//! Sharded parallel aggregation backend vs the serial encoded path.
//!
//! Three layers of the scaling workload (`reptile_datasets::scaling`), each
//! measured serial vs sharded at 2 and 4 threads:
//!
//! * `aggregates/*` — the per-hierarchy encoded aggregate batch: per-shard
//!   [`EncodedHierarchyAggregates::compute_range`] partials merged exactly
//!   vs the one-thread scan;
//! * `fit/*` — the factorised multi-level EM fit on a prebuilt design
//!   (gram cells, per-cluster grams, per-iteration cluster operators and
//!   E-step solves fan out over the shard pool);
//! * `end_to_end/*` — cold design build (factor encode + aggregate batch +
//!   cluster partition) *plus* the fit: the serving-shaped "cold complaint"
//!   cost the ROADMAP's scale story cares about.
//!
//! Before timing anything the harness asserts the sharded backend's
//! exactness contract: merged shard aggregates, the sharded fit and the
//! sharded recommendation are `==` (not tolerance) to serial.
//!
//! Full mode writes `BENCH_sharding.json` (cases, speedups, and the
//! machine's thread count — speedups are only meaningful on multi-core
//! hosts). `--smoke` runs a scaled-down version as the CI gate: on a
//! multi-core runner the sharded end-to-end build at N≥2 threads must not
//! be slower than serial (10% noise margin); on a single-core runner true
//! scaling cannot be validated, so the gate degrades to an overhead bound
//! (sharding may cost at most ~30% there) and says so.

use reptile_bench::{
    baseline_json, fmt, json_f64_map, print_bench_table, run_bench, threads_available,
    write_baseline, BenchArgs, BenchStats,
};
use reptile_datasets::scaling::{scaling_panel, ScalingConfig, SCALING_STATISTIC};
use reptile_factor::encoded::EncodedHierarchyAggregates;
use reptile_factor::{EncodedFactor, Parallelism};
use reptile_model::{DesignBuilder, MultilevelConfig, MultilevelModel, TrainingBackend};
use reptile_relational::View;
use reptile_relational::{Relation, Schema};
use std::sync::Arc;

const SHARD_COUNTS: [usize; 2] = [2, 4];

fn median_of(stats: &[BenchStats], name: &str) -> f64 {
    stats
        .iter()
        .find(|s| s.name == name)
        .map(|s| s.median_s)
        .unwrap_or(f64::NAN)
}

/// Assert the exactness contract the sharded backend is built on; panics
/// (failing the bench and the CI gate) on any deviation.
fn assert_exactness(
    schema: &Arc<Schema>,
    relation: &Arc<Relation>,
    training_view: &View,
    geo: &EncodedFactor,
    em: MultilevelConfig,
) {
    // merge(partition(n)) == compute, including shard counts past the path
    // count (empty shards merge as identities).
    let serial = EncodedHierarchyAggregates::compute(geo, &reptile_relational::Exec::Serial);
    for shards in [2usize, 3, 7, geo.leaf_count(), geo.leaf_count() + 5] {
        let parts: Vec<EncodedHierarchyAggregates> =
            Parallelism::shard_ranges(geo.leaf_count(), shards)
                .into_iter()
                .map(|(start, len)| EncodedHierarchyAggregates::compute_range(geo, start, len))
                .collect();
        assert_eq!(
            EncodedHierarchyAggregates::merge(&parts),
            serial,
            "merge(partition({shards})) deviated from the serial aggregate batch"
        );
    }
    // Relation shards concatenate back to the base relation, in row order.
    let shards = relation.partition(4);
    let total: usize = shards.shards().iter().map(|s| s.len()).sum();
    assert_eq!(total, relation.len());
    // Sharded fit == serial fit, bit for bit.
    let serial_design = DesignBuilder::new(training_view, schema, SCALING_STATISTIC)
        .build()
        .expect("serial design");
    let serial_fit =
        MultilevelModel::fit_with_backend(&serial_design, em, TrainingBackend::Factorized)
            .expect("serial fit");
    let par = Parallelism::new(4);
    let sharded_design = DesignBuilder::new(training_view, schema, SCALING_STATISTIC)
        .with_exec(reptile_relational::Exec::Pool(par))
        .build()
        .expect("sharded design");
    let sharded_fit = MultilevelModel::fit_exec(
        &sharded_design,
        em,
        TrainingBackend::Factorized,
        &reptile_relational::Exec::Pool(par),
    )
    .expect("sharded fit");
    assert_eq!(serial_fit.beta, sharded_fit.beta, "sharded beta deviated");
    assert_eq!(serial_fit.sigma2, sharded_fit.sigma2);
    assert_eq!(
        serial_fit.predict_all(&serial_design),
        sharded_fit.predict_all_with(&sharded_design, &par)
    );
}

fn main() {
    let args = BenchArgs::parse();
    let smoke = args.smoke;
    let threads_available = threads_available();
    let config = if smoke {
        ScalingConfig::smoke()
    } else {
        ScalingConfig::default()
    };
    let em = MultilevelConfig {
        iterations: if smoke { 4 } else { 8 },
        ..Default::default()
    };
    let workload = scaling_panel(config);
    let schema = workload.schema.clone();

    // The wide geo hierarchy of the training design, encoded once — the
    // aggregate-level case isolates the shard/merge of one factor.
    let probe_design = DesignBuilder::new(&workload.training_view, &schema, SCALING_STATISTIC)
        .build()
        .expect("probe design");
    let geo = EncodedFactor::encode(
        probe_design
            .factorization()
            .hierarchies()
            .last()
            .expect("geo hierarchy"),
        &reptile_relational::Exec::Serial,
    );

    assert_exactness(
        &schema,
        &workload.relation,
        &workload.training_view,
        &geo,
        em,
    );
    args.apply_profile();

    let mut stats = Vec::new();

    // ------------------------------------------------------------------
    // aggregates: the encoded per-hierarchy aggregate batch
    // ------------------------------------------------------------------
    stats.push(run_bench("aggregates/serial", || {
        EncodedHierarchyAggregates::compute(&geo, &reptile_relational::Exec::Serial)
    }));
    for &n in &SHARD_COUNTS {
        let par = Parallelism::new(n);
        stats.push(run_bench(&format!("aggregates/sharded/{n}"), || {
            EncodedHierarchyAggregates::compute(&geo, &reptile_relational::Exec::Pool(par))
        }));
    }

    // ------------------------------------------------------------------
    // fit: factorised EM on a prebuilt design
    // ------------------------------------------------------------------
    let design = DesignBuilder::new(&workload.training_view, &schema, SCALING_STATISTIC)
        .build()
        .expect("design");
    stats.push(run_bench("fit/serial", || {
        MultilevelModel::fit_with_backend(&design, em, TrainingBackend::Factorized).unwrap()
    }));
    for &n in &SHARD_COUNTS {
        let par = Parallelism::new(n);
        stats.push(run_bench(&format!("fit/sharded/{n}"), || {
            MultilevelModel::fit_exec(
                &design,
                em,
                TrainingBackend::Factorized,
                &reptile_relational::Exec::Pool(par),
            )
            .unwrap()
        }));
    }

    // ------------------------------------------------------------------
    // end_to_end: cold design build + fit (the cold-complaint path)
    // ------------------------------------------------------------------
    let cold = |par: Parallelism| {
        let design = DesignBuilder::new(&workload.training_view, &schema, SCALING_STATISTIC)
            .with_exec(reptile_relational::Exec::Pool(par))
            .build()
            .unwrap();
        MultilevelModel::fit_exec(
            &design,
            em,
            TrainingBackend::Factorized,
            &reptile_relational::Exec::Pool(par),
        )
        .unwrap()
    };
    stats.push(run_bench("end_to_end/serial", || {
        cold(Parallelism::serial())
    }));
    for &n in &SHARD_COUNTS {
        stats.push(run_bench(&format!("end_to_end/sharded/{n}"), || {
            cold(Parallelism::new(n))
        }));
    }

    print_bench_table("sharding (serial vs sharded encoded backend)", &stats);

    let mut speedups: Vec<(String, f64)> = Vec::new();
    for &n in &SHARD_COUNTS {
        for layer in ["aggregates", "fit", "end_to_end"] {
            speedups.push((
                format!("{layer}/{n}"),
                median_of(&stats, &format!("{layer}/serial"))
                    / median_of(&stats, &format!("{layer}/sharded/{n}")),
            ));
        }
    }
    println!("\n== median speedup (sharded over serial), {threads_available} core(s) ==");
    for (name, ratio) in &speedups {
        println!("{name}: {}x", fmt(*ratio));
    }

    if smoke {
        // The gate watches the end-to-end build. A shard count only has to
        // beat serial when the runner has that many real cores behind it
        // (10% noise margin for a shared runner); oversubscribed counts —
        // and everything on a single-core host — are held to an overhead
        // bound instead, so a 2-core runner is not failed for the cost of
        // timeslicing 4 shards.
        if threads_available < 2 {
            println!(
                "bench-smoke: single-core host — validating sharding overhead only \
                 (speedup requires >= 2 cores)"
            );
        }
        let mut ok = true;
        for &n in &SHARD_COUNTS {
            // The overhead bound is deliberately loose: a timesliced
            // single-core container can wobble 20-30% on sub-10ms medians
            // without the sharded path actually having regressed.
            let backed_by_cores = threads_available >= n;
            let gate = if backed_by_cores { 0.9 } else { 0.6 };
            let ratio = speedups
                .iter()
                .find(|(name, _)| name == &format!("end_to_end/{n}"))
                .map(|(_, r)| *r)
                .unwrap_or(f64::NAN);
            if !(ratio.is_finite() && ratio >= gate) {
                eprintln!(
                    "bench-smoke FAILED: sharded end_to_end at {n} threads is {ratio:.3}x \
                     serial (gate {gate:.2}, {threads_available} cores)"
                );
                ok = false;
            } else if !backed_by_cores && threads_available >= 2 {
                println!(
                    "bench-smoke: {n} shard threads on {threads_available} cores — \
                     overhead bound only"
                );
            }
        }
        if !ok {
            std::process::exit(1);
        }
        println!("bench-smoke OK: sharded end_to_end within gate on {threads_available} core(s)");
    } else {
        let extras = [(
            "median_speedup_sharded_over_serial",
            json_f64_map(&speedups),
        )];
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sharding.json");
        write_baseline(path, &baseline_json(&stats, &extras), args.force)
            .expect("write BENCH_sharding.json");
        println!("wrote {path}");
    }
}
