//! Whole-benchmark runs and their comparison.
//!
//! `--all` runs every workload untraced, then traced, each as a child
//! process of this same binary (so peak memory and CPU are per run, exactly
//! as the driver measures them), prints every metric by name with its unit
//! and writes the same as JSON. `--repeat K` does that K times, on seeds
//! `seed`, `seed + 1`, …, and prints per-metric median, quartiles and
//! spread. `--compare a.json b.json` checks two result sets against the
//! bounds in `BENCHMARK.json`.

use crate::json::Json;
use crate::layers;
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::panel::{LONG, WIDE};
use crate::run::out_dir;
use crate::stats::{median, quartiles, spread};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone)]
pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub repeat: usize,
    pub smoke: bool,
    /// Only this workload, when set.
    pub workload: Option<String>,
    /// Only traced (`Some(true)`) or only untraced (`Some(false)`) runs.
    pub traced: Option<bool>,
    pub out: Option<PathBuf>,
}

/// One child run; returns its parsed result line.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().rev().find(|l| !l.trim().is_empty());
    match line.map(Json::parse) {
        Some(Ok(result)) if output.status.success() => Ok(result),
        _ => Err(format!(
            "the {workload} run (seed {seed}, trace {}) failed with {}:\n{}",
            traced as u8,
            output.status,
            String::from_utf8_lossy(&output.stderr)
        )),
    }
}

pub fn run_suite(args: &SuiteArgs) -> i32 {
    let seconds = if args.smoke {
        args.seconds.min(1.0)
    } else {
        args.seconds
    };
    let workloads: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.0)
        .filter(|name| args.workload.as_deref().is_none_or(|only| only == *name))
        .collect();
    if workloads.is_empty() {
        eprintln!("no workload is called {:?}", args.workload);
        return 2;
    }
    let modes: Vec<bool> = match args.traced {
        Some(traced) => vec![traced],
        None => vec![false, true],
    };

    let mut runs = Vec::new();
    let mut all_correct = true;
    for repetition in 0..args.repeat.max(1) {
        let seed = args.seed + repetition as u64;
        for &traced in &modes {
            for workload in &workloads {
                eprintln!(
                    "run {}/{}: {workload}, seed {seed}, {}",
                    repetition + 1,
                    args.repeat.max(1),
                    if traced { "traced" } else { "untraced" }
                );
                let result = match child_run(workload, seed, seconds, traced, args.smoke) {
                    Ok(result) => result,
                    Err(error) => {
                        eprintln!("{error}");
                        return 1;
                    }
                };
                all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
                let mut run = result.as_obj().cloned().unwrap_or_default();
                run.insert("workload".into(), Json::Str(workload.to_string()));
                run.insert("trace".into(), Json::Num(traced as u8 as f64));
                run.insert("seed".into(), Json::Num(seed as f64));
                runs.push(Json::Obj(run));
            }
        }
    }

    // The first five fields identify the set: `--compare` refuses two sets
    // that differ in any of them.
    let set = Json::obj([
        (
            "threads_available",
            Json::Num(layers::threads_available() as f64),
        ),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(args.smoke)),
        (
            "panels",
            Json::obj([
                ("long", Json::Str(LONG.describe())),
                ("wide", Json::Str(WIDE.describe())),
            ]),
        ),
        ("repeat", Json::Num(args.repeat.max(1) as f64)),
        ("runs", Json::Arr(runs)),
    ]);
    print_table(&set);

    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("results.json"));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, set.render() + "\n"));
    match written {
        Ok(()) => println!("\nresults written to {}", path.display()),
        Err(error) => {
            eprintln!("writing {}: {error}", path.display());
            return 1;
        }
    }
    if all_correct {
        0
    } else {
        eprintln!("at least one run failed its output checks");
        1
    }
}

/// `(workload, trace) -> metric -> values`, one value per run.
fn values_by_metric(set: &Json) -> BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>> {
    let mut out: BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for run in set.get("runs").and_then(Json::as_arr).unwrap_or_default() {
        let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?");
        let traced = run.get("trace").and_then(Json::as_f64) == Some(1.0);
        let metrics = run.get("metrics").and_then(Json::as_obj);
        for (name, metric) in metrics.into_iter().flatten() {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                out.entry((workload.to_string(), traced))
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    out
}

/// `(failed, attempted, sound)` over every run of `workload` in `set`,
/// traced or not; `sound` is false if any of them was not `correct`.
fn failed_ops(set: &Json, workload: &str) -> (u64, u64, bool) {
    let (mut failed, mut attempted, mut sound) = (0, 0, true);
    for run in set.get("runs").and_then(Json::as_arr).unwrap_or_default() {
        if run.get("workload").and_then(Json::as_str) != Some(workload) {
            continue;
        }
        let count = |key| run.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        failed += count("failed");
        attempted += count("attempted");
        sound &= run.get("correct").and_then(Json::as_bool) == Some(true);
    }
    (failed, attempted, sound)
}

/// Every metric by name with its unit: the value of a single run, or the
/// median, quartiles and spread of several.
fn print_table(set: &Json) {
    let values = values_by_metric(set);
    let names = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, false))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, true)));
    let names: Vec<_> = names.collect();
    for (workload, _) in WORKLOADS {
        for traced in [false, true] {
            let Some(metrics) = values.get(&(workload.to_string(), traced)) else {
                continue;
            };
            println!(
                "\n== {workload} ({}) ==",
                if traced {
                    "traced, per layer"
                } else {
                    "untraced, end to end"
                }
            );
            for (name, unit, _) in names.iter().filter(|n| n.2 == traced) {
                let Some(runs) = metrics.get(*name) else {
                    continue;
                };
                if runs.len() < 2 {
                    println!("{name:<40} {:>16.4} {unit}", runs[0]);
                } else {
                    let (q1, q3) = quartiles(runs);
                    println!(
                        "{name:<40} {:>16.4} {unit:<6} q1 {q1:.4} q3 {q3:.4} spread {:.1}% (n={})",
                        median(runs),
                        100.0 * spread(runs),
                        runs.len()
                    );
                }
            }
        }
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `(name, better, bound)` rows of `BENCHMARK.json`, found at the root
/// of the checkout the program is run from (or one directory up).
fn bounds() -> Result<Vec<(String, Better, f64)>, String> {
    let path = ["BENCHMARK.json", "../BENCHMARK.json"]
        .iter()
        .map(Path::new)
        .find(|p| p.is_file())
        .ok_or("BENCHMARK.json not found in . or ..")?;
    let spec = load(path)?;
    let rows = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    rows.iter()
        .map(|row| {
            let name = row.get("name").and_then(Json::as_str);
            let better = match row.get("better").and_then(Json::as_str) {
                Some("lower") => Some(Better::Lower),
                Some("higher") => Some(Better::Higher),
                _ => None,
            };
            let bound = row.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => Ok((name.to_string(), better, bound)),
                _ => Err(format!("malformed end_to_end row: {}", row.render())),
            }
        })
        .collect()
}

/// By how much of `base` the value `new` is worse, given the direction.
pub fn worse_by(base: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// Compare result set `b` against base `a`; one row per (workload, metric),
/// and one per workload for the ops that failed (bound: none may, in any run
/// of `b`, traced or not). Returns the exit code: 0 when no bound is breached.
pub fn compare(a_path: &Path, b_path: &Path) -> i32 {
    let (a, b, bounds) = match (load(a_path), load(b_path), bounds()) {
        (Ok(a), Ok(b), Ok(bounds)) => (a, b, bounds),
        (a, b, bounds) => {
            for error in [a.err(), b.err(), bounds.err()].into_iter().flatten() {
                eprintln!("{error}");
            }
            return 2;
        }
    };
    for key in ["threads_available", "seed", "seconds", "smoke", "panels"] {
        if a.get(key) != b.get(key) {
            eprintln!(
                "the result sets differ in {key}: {} vs {} — not comparable",
                a.get(key).map_or("missing".into(), Json::render),
                b.get(key).map_or("missing".into(), Json::render)
            );
            return 2;
        }
    }
    let (values_a, values_b) = (values_by_metric(&a), values_by_metric(&b));
    println!(
        "{:<16} {:<16} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "base", "new", "worse by", "bound"
    );
    let mut breaches = 0;
    for (workload, _) in WORKLOADS {
        let key = (workload.to_string(), false);
        // sets without untraced runs of this workload still get its
        // failed-ops row
        if let Some((in_a, in_b)) = values_a.get(&key).zip(values_b.get(&key)) {
            for (name, better, bound) in &bounds {
                let (Some(runs_a), Some(runs_b)) = (in_a.get(name), in_b.get(name)) else {
                    println!("{workload:<16} {name:<16} missing from a result set");
                    breaches += 1;
                    continue;
                };
                let (base, new) = (median(runs_a), median(runs_b));
                let worse = worse_by(base, new, *better);
                // A spread wider than the bound cannot resolve a change of the
                // bound's size either way.
                let resolved = runs_a.len() < 2 || spread(runs_a) <= *bound;
                let verdict = if worse > *bound {
                    breaches += 1;
                    "BREACH"
                } else if !resolved {
                    "unresolved"
                } else {
                    "ok"
                };
                println!(
                    "{workload:<16} {name:<16} {base:>12.4} {new:>12.4} {:>8.1}% {:>6.0}%  {verdict}",
                    100.0 * worse,
                    100.0 * bound
                );
            }
        }
        let (base_failed, base_attempted, _) = failed_ops(&a, workload);
        let (failed, attempted, sound) = failed_ops(&b, workload);
        if attempted == 0 {
            continue;
        }
        let verdict = if failed > 0 || !sound {
            breaches += 1;
            "BREACH"
        } else {
            "ok"
        };
        println!(
            "{workload:<16} {:<16} {:>12} {:>12} {:>9} {:>7}  {verdict}",
            "failed/attempted",
            format!("{base_failed}/{base_attempted}"),
            format!("{failed}/{attempted}"),
            "",
            "0"
        );
    }
    if breaches > 0 {
        eprintln!("{breaches} bound(s) breached");
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(100.0, 112.0, Better::Lower) - 0.12).abs() < 1e-12);
        assert!((worse_by(100.0, 112.0, Better::Higher) + 0.12).abs() < 1e-12);
        assert!((worse_by(50.0, 45.0, Better::Higher) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn failed_ops_count_every_run_of_the_workload() {
        let set = Json::parse(
            r#"{"runs":[
            {"workload":"w","trace":0,"correct":true,"attempted":40,"failed":0},
            {"workload":"w","trace":1,"correct":false,"attempted":10,"failed":2},
            {"workload":"v","trace":0,"correct":true,"attempted":7,"failed":0}]}"#,
        )
        .unwrap();
        assert_eq!(failed_ops(&set, "w"), (2, 50, false));
        assert_eq!(failed_ops(&set, "v"), (0, 7, true));
    }

    #[test]
    fn values_are_grouped_by_workload_and_mode() {
        let set = Json::parse(
            r#"{"runs":[
            {"workload":"w","trace":0,"metrics":{"op_p50_ms":{"value":1.5,"unit":"ms"}}},
            {"workload":"w","trace":0,"metrics":{"op_p50_ms":{"value":2.5,"unit":"ms"}}},
            {"workload":"w","trace":1,"metrics":{"core.self_ms":{"value":9,"unit":"ms"}}}]}"#,
        )
        .unwrap();
        let values = values_by_metric(&set);
        assert_eq!(
            values[&("w".to_string(), false)]["op_p50_ms"],
            vec![1.5, 2.5]
        );
        assert_eq!(values[&("w".to_string(), true)]["core.self_ms"], vec![9.0]);
    }
}
