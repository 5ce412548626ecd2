//! The repo's benchmark: five workloads on a wiki-scale hierarchical panel,
//! end-to-end metrics from an untraced run and per-layer attribution from a
//! traced one. See `README.md` beside this package and `BENCHMARK.json` at
//! the repository root.
//!
//! ```text
//! reptile-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run; the last line of stdout is the result as one JSON object
//! reptile-benchmark --all [--seed N] [--seconds S] [--repeat K] [--smoke]
//!                   [--workload NAME] [--traced | --untraced] [--out FILE]
//!     every workload untraced, then traced; prints every metric, writes JSON
//! reptile-benchmark --compare a.json b.json
//!     checks two result sets against the bounds in BENCHMARK.json
//! ```

mod json;
mod layers;
mod metrics;
mod panel;
mod probes;
mod run;
mod stats;
mod suite;
mod trace;
mod workloads;

use json::Json;
use run::{RunArgs, RunOutcome};
use std::path::PathBuf;
use suite::SuiteArgs;

/// The run length `BENCHMARK.json` fixes, used when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "usage:
  reptile-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
  reptile-benchmark --all [--seed N] [--seconds S] [--repeat K] [--smoke]
                    [--workload NAME] [--traced | --untraced] [--out FILE]
  reptile-benchmark --compare A.json B.json
workloads: long_shallow wide_deep serve_sessions ingest_refresh fleet_drill";

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    traced: Option<bool>,
    repeat: Option<usize>,
    all: bool,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    fn value<'a>(flag: &str, it: &mut std::slice::Iter<'a, String>) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("{flag}: {text:?} is not a valid number"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => cli.workload = Some(value(flag, &mut it)?.clone()),
            "--seed" => cli.seed = Some(number(flag, value(flag, &mut it)?)?),
            "--seconds" => {
                let seconds: f64 = number(flag, value(flag, &mut it)?)?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds: {seconds} is out of range"));
                }
                cli.seconds = Some(seconds);
            }
            "--trace" => {
                cli.traced = Some(match value(flag, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--traced" => cli.traced = Some(true),
            "--untraced" => cli.traced = Some(false),
            "--repeat" => cli.repeat = Some(number(flag, value(flag, &mut it)?)?),
            "--all" => cli.all = true,
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(PathBuf::from(value(flag, &mut it)?)),
            "--compare" => {
                let a = PathBuf::from(value(flag, &mut it)?);
                let b = PathBuf::from(value(flag, &mut it)?);
                cli.compare = Some((a, b));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// Print every metric of the run by name with its unit, then — as the last
/// line — the result as the contract's JSON object.
fn print_result(outcome: &RunOutcome, traced: bool) {
    let table = if traced {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let mut metrics = std::collections::BTreeMap::new();
    for metric in table {
        let Some(value) = outcome.report.get(metric.name) else {
            continue;
        };
        println!("{:<40} {value:>16.4} {}", metric.name, metric.unit);
        let entry = Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::Str(metric.unit.into())),
        ]);
        metrics.insert(metric.name.to_string(), entry);
    }
    for problem in &outcome.problems {
        eprintln!("FAILED: {problem}");
    }
    let result = Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
}

fn single_run(cli: &Cli) -> i32 {
    let Some(workload) = cli.workload.clone() else {
        eprintln!("{USAGE}");
        return 2;
    };
    let traced = cli.traced.unwrap_or(false);
    let args = RunArgs {
        workload,
        seed: cli.seed.unwrap_or(1),
        seconds: cli.seconds.unwrap_or(DEFAULT_SECONDS),
        traced,
        smoke: cli.smoke,
    };
    let Some(outcome) = run::run(&args) else {
        eprintln!("no workload is called {:?}\n{USAGE}", args.workload);
        return 2;
    };
    println!(
        "{} seed {} {} s {} ({} cores)",
        args.workload,
        args.seed,
        args.seconds,
        if traced { "traced" } else { "untraced" },
        layers::threads_available()
    );
    print_result(&outcome, traced);
    // A run that failed its checks still reports: `correct` is false.
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("{message}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let code = if let Some((a, b)) = &cli.compare {
        suite::compare(a, b)
    } else if cli.all || cli.repeat.is_some() || (cli.smoke && cli.workload.is_none()) {
        suite::run_suite(&SuiteArgs {
            seed: cli.seed.unwrap_or(1),
            seconds: cli.seconds.unwrap_or(DEFAULT_SECONDS),
            repeat: cli.repeat.unwrap_or(1),
            smoke: cli.smoke,
            workload: cli.workload.clone(),
            // a bare --smoke is the quick untraced check; --all adds the
            // traced runs
            traced: cli.traced.or((cli.smoke && !cli.all).then_some(false)),
            out: cli.out.clone(),
        })
    } else {
        single_run(&cli)
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let cli = cli(&[
            "--workload",
            "wide_deep",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("wide_deep"));
        assert_eq!(
            (cli.seed, cli.seconds, cli.traced),
            (Some(7), Some(15.0), Some(true))
        );
        assert!(!cli.all && !cli.smoke);
    }

    #[test]
    fn rejects_malformed_command_lines() {
        assert!(cli(&["--seed"]).is_err());
        assert!(cli(&["--seed", "x"]).is_err());
        assert!(cli(&["--trace", "2"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--compare", "a.json"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
    }
}
