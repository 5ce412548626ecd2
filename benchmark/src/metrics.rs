//! The names and units of the metrics the program emits — the same lists
//! `BENCHMARK.json` carries (a unit test keeps the two equal).
//!
//! Units: `ms`, `us` and `s` are reserved for durations timed directly in
//! every run of every workload. Stage totals divided by an op count carry
//! `ms/op`; they are legitimately 0 where a workload never enters the stage.

use std::collections::BTreeMap;

/// An end-to-end metric the program emits: name and unit. Direction and
/// bound live in `BENCHMARK.json` alone; `--compare` reads them there.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn metric(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

pub const END_TO_END: &[Metric] = &[
    metric("setup_s", "s"),
    metric("op_p50_ms", "ms"),
    metric("ops_per_s", "1/s"),
    metric("peak_rss_mb", "MB"),
];

pub const PER_LAYER: &[Metric] = &[
    metric("relational.view_scan_ms", "ms"),
    metric("relational.parallel_scan_ms", "ms"),
    metric("relational.drill_scan_ms", "ms"),
    metric("relational.rows_tested_per_op", "count"),
    metric("relational.runs_skipped_per_op", "count"),
    metric("relational.shards_pruned_per_op", "count"),
    metric("relational.ingest_apply_ms", "ms"),
    metric("relational.pool_speedup_x", "x"),
    metric("relational.pool_inline_share", "ratio"),
    metric("relational.pool_queue_wait_ms_per_op", "ms/op"),
    metric("factor.encode_ms", "ms"),
    metric("factor.aggregates_ms", "ms"),
    metric("factor.recomputed_per_op", "count"),
    metric("factor.reused_per_op", "count"),
    metric("factor.delta_patched_per_op", "count"),
    metric("model.design_build_ms", "ms"),
    metric("model.fit_ms", "ms"),
    metric("model.predict_ms", "ms"),
    metric("model.design_rows", "count"),
    metric("model.design_clusters", "count"),
    metric("model.em_iterations", "count"),
    metric("linalg.gram_solve_us", "us"),
    metric("core.recommend_ms", "ms"),
    metric("core.self_ms", "ms"),
    metric("core.ingest_ms", "ms"),
    metric("session.hit_us", "us"),
    metric("session.serve_one_ms", "ms"),
    metric("session.ingest_ms", "ms"),
    metric("session.view_hit_rate", "ratio"),
    metric("session.model_hit_rate", "ratio"),
    metric("session.evictions", "count"),
    metric("session.invalidations", "count"),
    metric("serve.ping_rtt_us", "us"),
    metric("serve.door_overhead_ms", "ms"),
    metric("serve.queue_wait_us", "us"),
    metric("serve.admitted", "count"),
    metric("serve.completed", "count"),
    metric("serve.dedup_joined", "count"),
    metric("serve.overloaded", "count"),
    metric("serve.rejected", "count"),
    metric("serve.protocol_errors", "count"),
    metric("wire.rpcs_per_op", "count"),
    metric("wire.bytes_per_op", "count"),
    metric("wire.gram_partials_per_op", "count"),
    metric("wire.e_step_partials_per_op", "count"),
    metric("wire.overlapped_merges_per_op", "count"),
    metric("wire.remote_merge_ms_per_op", "ms/op"),
    metric("wire.ship_once_s", "s"),
    metric("wire.fallbacks", "count"),
    metric("wire.overhead_x", "x"),
    metric("obs.scan_ms_per_op", "ms/op"),
    metric("obs.merge_ms_per_op", "ms/op"),
    metric("obs.encode_ms_per_op", "ms/op"),
    metric("obs.design_build_ms_per_op", "ms/op"),
    metric("obs.solve_ms_per_op", "ms/op"),
    metric("obs.e_step_ms_per_op", "ms/op"),
    metric("obs.trace_overhead_x", "x"),
    metric("client.op_p95_ms", "ms"),
    metric("client.tail_pct", "%"),
    metric("client.op_max_ms", "ms"),
    metric("client.cpu_ms_per_op", "ms"),
    metric("client.samples", "count"),
];

/// Metrics that are the difference of two timings rather than a timing.
pub const DIFFERENCES: &[&str] = &["core.self_ms", "serve.door_overhead_ms"];

/// The five workloads, in the order `--all` runs them, with the one-line
/// reason `BENCHMARK.json` records.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "long_shallow",
        "453k-row panel, pool exec, cold shallow recommend: >=70% of the op is relational scanning, so scan kernels, zone maps and the shard pool show here and model changes must not",
    ),
    (
        "wide_deep",
        "86,400 training groups, serial exec, cold deep recommend: design build, EM fit and engine glue dominate and scans stay <=30%, so factor/model/linalg/core changes show here",
    ),
    (
        "serve_sessions",
        "2 TCP clients replay Zipf drill sessions through reptile-serve: front door, queue and shared caches carry the op (hot paths hit, the tail evicts), compute per miss is small",
    ),
    (
        "ingest_refresh",
        "one Session with a standing complaint; op = ingest an append batch, recommend, ingest a correction batch, recommend: the write path of the same relational/factor/cache code",
    ),
    (
        "fleet_drill",
        "Exec::Remote over 2 loopback workers, two shallow recommends per op: reptile-wire, ship and remote EM carry the op; long_shallow is its in-process twin",
    ),
];

/// Values for the metrics of one run, by name. Setting a name the tables do
/// not list is a bug in the benchmark, so it panics.
#[derive(Debug, Clone, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name:?} is not in the benchmark's tables"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The names of `expected` this report lacks or holds a non-finite
    /// value for, plus the directly timed ones (`s`, `ms`, `us`) that are
    /// not positive: every run must really have measured those. The
    /// [`DIFFERENCES`] are exempt — noise can take a small one to zero.
    pub fn problems<'a>(&self, expected: impl Iterator<Item = (&'a str, &'a str)>) -> Vec<String> {
        let mut problems = Vec::new();
        for (name, unit) in expected {
            let timed = matches!(unit, "s" | "ms" | "us") && !DIFFERENCES.contains(&name);
            match self.get(name) {
                None => problems.push(format!("{name}: not measured")),
                Some(v) if !v.is_finite() => problems.push(format!("{name}: {v}")),
                Some(v) if timed && v <= 0.0 => problems.push(format!("{name}: timed {v} {unit}")),
                Some(_) => {}
            }
        }
        problems
    }
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.0));
        for name in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }

    /// `BENCHMARK.json` at the repository root is the contract the driver
    /// reads; these tables are what the program emits.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let field =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).map(str::to_string);

        let listed: Vec<_> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| (field(w, "name").unwrap(), field(w, "why").unwrap()))
            .collect();
        let ours: Vec<_> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(listed, ours);

        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<_> = spec
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| (field(m, "name").unwrap(), field(m, "unit").unwrap()))
                .collect();
            let ours: Vec<_> = table
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        // every end-to-end metric is gated, setup_s with the largest bound
        let bound_of = |name: &str| {
            spec.get("end_to_end")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .find(|m| field(m, "name").as_deref() == Some(name))
                .and_then(|m| m.get("bound").and_then(Json::as_f64))
                .unwrap_or_else(|| panic!("{name} has no bound"))
        };
        for metric in END_TO_END {
            let bound = bound_of(metric.name);
            assert!(
                bound > 0.0 && bound <= bound_of("setup_s"),
                "{}",
                metric.name
            );
        }
    }

    #[test]
    fn report_flags_unmeasured_and_untimed_metrics() {
        let mut report = Report::default();
        report.set("op_p50_ms", 1.5);
        report.set("setup_s", 0.0);
        let expected = [("op_p50_ms", "ms"), ("setup_s", "s"), ("ops_per_s", "1/s")];
        let problems = report.problems(expected.into_iter());
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].starts_with("setup_s"));
        assert!(problems[1].starts_with("ops_per_s"));
    }
}
