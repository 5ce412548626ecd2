//! Code-native scan kernels vs the row-at-a-time `Value` scan.
//!
//! Four scan shapes over the *deep* scaling workload
//! (`reptile_datasets::scaling::deep_scaling_panel`), each measured on the
//! compiled kernel (`View::compute`: predicate compilation, run skipping,
//! zone maps, the segment group-by — see `reptile_relational::scan`)
//! against an in-bench
//! row-at-a-time baseline that replays the pre-compilation scan exactly
//! (per-row `Predicate::matches`, per-row `numeric` measure decode,
//! `Value`-keyed groups):
//!
//! * `full_scan/*` — the widest group-by the engine computes (day, region,
//!   district, village) under the trivial predicate: the kernel's floor,
//!   every row of the time-major panel is a key change, so each costs the
//!   kernel one packed-key table lookup;
//! * `shallow_full_scan/*` — a coarse group-by (region, day) over every row
//!   of the hierarchy-ordered panel, the shape of the end-to-end benchmark's
//!   `long_shallow` views: a key holds for a whole region's rows, so the
//!   kernel folds long segments and looks a key up once per segment;
//! * `restricted_drilldown/*` — the drill-down shape `recommend` issues:
//!   group by (region, district) restricted to one region's provenance.
//!   The region column is run-length-ordered, so the kernel skips whole
//!   non-matching runs instead of testing rows;
//! * `unsatisfiable/*` — a predicate term on a value absent from its
//!   column dictionary: the compiled scan short-circuits to an empty view
//!   without touching a row, while the baseline pays a full relation scan.
//!
//! Before timing anything the harness asserts the kernel exactness
//! contract on every shape: compiled groups and aggregates `==` the
//! reference scan's (bit-identical, not tolerance), serial and sharded
//! alike.
//!
//! Full mode writes `BENCH_scan.json` (cases, compiled-over-baseline
//! speedups, `threads_available`). `--smoke` runs a scaled-down version as
//! the CI gate: the compiled restricted drill-down must not lose to the
//! row-at-a-time scan (10% noise margin on a single-core runner), the
//! compiled shallow full scan must run at least 3x faster than it, and the
//! compiled full-depth scan at least 2x.

use std::collections::BTreeMap;

use reptile_bench::{
    baseline_json, fmt, json_f64_map, print_bench_table, run_bench, threads_available,
    write_baseline, BenchArgs, BenchStats,
};
use reptile_datasets::scaling::{deep_scaling_panel, DeepScalingConfig};
use reptile_relational::{AggState, AttrId, Predicate, Relation, Value, View};
use std::sync::Arc;

fn median_of(stats: &[BenchStats], name: &str) -> f64 {
    stats
        .iter()
        .find(|s| s.name == name)
        .map(|s| s.median_s)
        .unwrap_or(f64::NAN)
}

/// The pre-compilation view scan, row at a time: `Value`-compared
/// predicate, per-row numeric decode of the measure, `Value`-keyed groups.
/// This is the baseline the compiled kernel is measured against *and* the
/// reference its exactness is asserted against.
fn row_at_a_time(
    relation: &Arc<Relation>,
    predicate: &Predicate,
    group_by: &[AttrId],
    measure: AttrId,
) -> BTreeMap<Vec<Value>, AggState> {
    let mut groups: BTreeMap<Vec<Value>, AggState> = BTreeMap::new();
    for row in 0..relation.len() {
        if !predicate.matches(relation, row) {
            continue;
        }
        let key: Vec<Value> = group_by
            .iter()
            .map(|a| relation.value(row, *a).clone())
            .collect();
        let value = relation
            .numeric(row, measure)
            .expect("numeric measure")
            .unwrap_or(0.0);
        groups.entry(key).or_default().push(value);
    }
    groups
}

/// Assert the compiled kernel's exactness on one shape: serial compiled
/// output `==` the reference scan (groups, bit-level aggregates), and every
/// sharded compute `==` the serial one.
fn assert_exactness(
    label: &str,
    relation: &Arc<Relation>,
    predicate: &Predicate,
    group_by: &[AttrId],
    measure: AttrId,
) {
    let compiled = View::compute(
        relation.clone(),
        predicate.clone(),
        group_by.to_vec(),
        measure,
        &reptile_relational::Exec::Serial,
    )
    .expect("compiled view");
    let reference = row_at_a_time(relation, predicate, group_by, measure);
    assert_eq!(compiled.len(), reference.len(), "{label}: group count");
    for (values, agg) in &reference {
        let key = reptile_relational::GroupKey(values.clone());
        assert_eq!(
            compiled.group(&key).expect("group present"),
            agg,
            "{label}: aggregate deviated at {key}"
        );
    }
    for shards in [2usize, 7, 64] {
        let sharded = View::compute(
            relation.clone(),
            predicate.clone(),
            group_by.to_vec(),
            measure,
            &reptile_relational::Exec::Shards(shards),
        )
        .expect("sharded view");
        assert_eq!(
            compiled, sharded,
            "{label}: Exec::Shards({shards}) deviated from serial"
        );
    }
}

fn main() {
    let args = BenchArgs::parse();
    let smoke = args.smoke;
    let threads_available = threads_available();
    let config = if smoke {
        DeepScalingConfig::smoke()
    } else {
        DeepScalingConfig::default()
    };
    let workload = deep_scaling_panel(config);
    let schema = workload.schema.clone();
    let relation = workload.relation.clone();
    let m = schema.attr("m").unwrap();
    let region = schema.attr("region").unwrap();
    let district = schema.attr("district").unwrap();

    let full_gb = workload.training_view.group_by().to_vec();
    let shallow_gb = vec![region, schema.attr("day").unwrap()];
    let drill_gb = vec![region, district];
    // The drill-down `recommend` issues: the complaint group's provenance
    // predicate plus one added geo level.
    let complained_region = workload.complaint_key.value(0).clone();
    let drill_pred = Predicate::eq(region, complained_region);
    let absent_pred = Predicate::eq(region, Value::str("R-absent"));

    println!(
        "deep panel: {} rows, {} full-depth groups",
        relation.len(),
        workload.training_view.len()
    );

    let shapes: [(&str, &Predicate, &[AttrId]); 4] = [
        ("full_scan", &Predicate::all(), &full_gb),
        ("shallow_full_scan", &Predicate::all(), &shallow_gb),
        ("restricted_drilldown", &drill_pred, &drill_gb),
        ("unsatisfiable", &absent_pred, &drill_gb),
    ];
    for (label, predicate, group_by) in shapes {
        assert_exactness(label, &relation, predicate, group_by, m);
    }
    args.apply_profile();

    let mut stats = Vec::new();
    for (label, predicate, group_by) in shapes {
        stats.push(run_bench(&format!("{label}/compiled"), || {
            View::compute(
                relation.clone(),
                predicate.clone(),
                group_by.to_vec(),
                m,
                &reptile_relational::Exec::Serial,
            )
            .unwrap()
        }));
        stats.push(run_bench(&format!("{label}/row_at_a_time"), || {
            row_at_a_time(&relation, predicate, group_by, m)
        }));
    }

    print_bench_table("scan (compiled kernels vs row-at-a-time)", &stats);

    let speedups: Vec<(String, f64)> = shapes
        .iter()
        .map(|(label, _, _)| {
            (
                label.to_string(),
                median_of(&stats, &format!("{label}/row_at_a_time"))
                    / median_of(&stats, &format!("{label}/compiled")),
            )
        })
        .collect();
    println!("\n== median speedup (compiled over row-at-a-time), {threads_available} core(s) ==");
    for (name, ratio) in &speedups {
        println!("{name}: {}x", fmt(*ratio));
    }

    if smoke {
        // Three gates, all serial against serial, so they hold on any core
        // count. The restricted drill-down — where run skipping and short
        // predicate terms must pay for the compilation — must not lose (a
        // single-core runner gets a small noise margin). The shallow full
        // scan — where the group-by kernel folds whole segments instead of
        // updating a table per row — must win by 3x. The full-depth scan —
        // every row a key change, one output group per few rows, so view
        // assembly is as much of it as the kernel — must win by 2x: work
        // per group creeping back in (a decoded key, a row list, a
        // comparator sort) shows here first. With all three the smoke ratio
        // read 2.3x, without them 3.1–10.7x over repeated runs on a shared
        // host: the gate sits under what that noise can reach.
        let drill_gate = if threads_available >= 2 { 1.0 } else { 0.9 };
        for (shape, gate) in [
            ("restricted_drilldown", drill_gate),
            ("shallow_full_scan", 3.0),
            ("full_scan", 2.0),
        ] {
            let ratio = speedups
                .iter()
                .find(|(name, _)| name == shape)
                .map(|(_, r)| *r)
                .unwrap_or(f64::NAN);
            if !(ratio.is_finite() && ratio >= gate) {
                eprintln!(
                    "bench-smoke FAILED: compiled {shape} is {ratio:.3}x the row-at-a-time \
                     scan (gate {gate:.2}, {threads_available} cores)"
                );
                std::process::exit(1);
            }
            println!(
                "bench-smoke OK: compiled {shape} at {}x row-at-a-time on \
                 {threads_available} core(s)",
                fmt(ratio)
            );
        }
    } else {
        let extras = [(
            "median_speedup_compiled_over_row_at_a_time",
            json_f64_map(&speedups),
        )];
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scan.json");
        write_baseline(path, &baseline_json(&stats, &extras), args.force)
            .expect("write BENCH_scan.json");
        println!("wrote {path}");
    }
}
