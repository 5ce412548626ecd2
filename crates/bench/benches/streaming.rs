//! Streaming ingest: delta-maintained encoded aggregates vs cold rebuild.
//!
//! The covid workload is replayed as timestamped daily batches
//! (`reptile_datasets::stream`) and the factorised state is kept current two
//! ways:
//!
//! * `stream/factor/cold/*` — what every pre-streaming invocation did: after
//!   each batch, re-derive the hierarchy factors from the relation
//!   (`Factorization::from_relation`: full scan + path sort), re-encode the
//!   dictionaries and recompute `EncodedAggregates` from scratch;
//! * `stream/factor/delta/*` — the maintenance path: per-hierarchy path
//!   counts absorb the batch in `O(|batch|)`, the resulting [`PathDelta`]s
//!   drive `EncodedAggregates::apply_delta`, untouched hierarchies re-share
//!   their state by `Arc`. (The delta arm's one-time warm-panel encode is
//!   *included* in its timing — the conservative direction.)
//!
//! * `stream/engine/cold` vs `stream/engine/warm` — the serving view of the
//!   same story: per batch, a fresh engine + view + recommendation versus
//!   one long-lived engine whose `ingest` delta-maintains factor state
//!   while `SharedCaches::invalidate_ingest` evicts only the signatures
//!   the batch touched.
//!
//! Both arms are checked for exact agreement before timing. Full mode
//! writes `BENCH_streaming.json` at the repo root; `--smoke` runs a
//! scaled-down version and exits non-zero if delta maintenance fails to
//! beat the cold rebuild — the CI regression gate for this subsystem.

use reptile::{Complaint, Direction, Reptile};
use reptile_bench::{
    baseline_json, fmt, json_f64_map, print_bench_table, run_bench, write_baseline, BenchArgs,
    BenchStats,
};
use reptile_datasets::covid::{CovidCaseStudy, CovidConfig};
use reptile_datasets::{CovidStream, StreamConfig};
use reptile_factor::{EncodedAggregates, EncodedFactorization, Factorization, PathCountIndex};
use reptile_relational::{
    AggregateKind, Exec, GroupKey, Hierarchy, Predicate, Relation, Schema, Value, View,
};
use reptile_session::SharedCaches;
use std::sync::Arc;

fn cold_state(
    relation: &Relation,
    geo: &Hierarchy,
    time: &Hierarchy,
) -> (EncodedFactorization, EncodedAggregates) {
    let fact = Factorization::from_relation(relation, &[(geo, 2), (time, 1)]);
    let enc = EncodedFactorization::encode(&fact);
    let aggs = EncodedAggregates::compute(&enc, &Exec::Serial);
    (enc, aggs)
}

fn median_of(stats: &[BenchStats], name: &str) -> f64 {
    stats
        .iter()
        .find(|s| s.name == name)
        .map(|s| s.median_s)
        .unwrap_or(f64::NAN)
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args = BenchArgs::parse();
    let smoke = args.smoke;
    args.apply_profile();
    let mut stats: Vec<BenchStats> = Vec::new();
    let mut speedups: Vec<(String, f64)> = Vec::new();

    // ------------------------------------------------------------------
    // factor layer: per-batch maintenance of the encoded aggregates
    // ------------------------------------------------------------------
    let sizes: &[(usize, usize, usize)] = if smoke {
        &[(8, 3, 30)]
    } else {
        &[(12, 4, 60), (20, 5, 90)]
    };
    let mut factor_ratio = f64::NAN;
    for &(locations, sub_locations, days) in sizes {
        let cs = CovidCaseStudy::us(CovidConfig {
            locations,
            sub_locations,
            days,
            seed: 42,
        });
        let stream = CovidStream::replay(
            &cs,
            StreamConfig {
                warmup_days: days / 2,
                correction_every: 7,
            },
        );
        let schema: &Arc<Schema> = &cs.schema;
        let geo = schema.hierarchy("geo").unwrap().clone();
        let time = schema.hierarchy("time").unwrap().clone();
        // Pre-apply the batches once: snapshots[i] = relation after batch i.
        // Applying the batch is common to both arms and excluded from them.
        let mut snapshots: Vec<Arc<Relation>> = vec![stream.warm.clone()];
        for sb in &stream.batches {
            snapshots.push(Arc::new(
                snapshots.last().unwrap().apply(&sb.batch).unwrap(),
            ));
        }
        let label = format!("{locations}x{sub_locations}x{days}");

        // Correctness first: the delta-maintained end state must agree with
        // the cold rebuild of the final snapshot.
        let (final_enc, final_aggs) = {
            let (mut enc, mut aggs) = cold_state(&stream.warm, &geo, &time);
            let mut counts = PathCountIndex::build(&stream.warm, schema.hierarchies());
            for sb in &stream.batches {
                let delta = counts.apply(&sb.batch, schema.hierarchies());
                let (e, a) = aggs.apply_delta(&enc, &delta, &Exec::Serial);
                enc = e;
                aggs = a;
            }
            (enc, aggs)
        };
        let (cold_enc, cold_aggs) = cold_state(snapshots.last().unwrap(), &geo, &time);
        assert_eq!(final_enc.n_rows(), cold_enc.n_rows());
        assert_eq!(
            reptile_factor::encoded::semantic_diff(&final_enc, &final_aggs, &cold_enc, &cold_aggs),
            None,
            "delta-maintained state must equal the cold rebuild"
        );

        stats.push(run_bench(&format!("stream/factor/cold/{label}"), || {
            let mut acc = 0.0;
            for rel in &snapshots[1..] {
                let (_, aggs) = cold_state(rel, &geo, &time);
                acc += aggs.grand_total();
            }
            acc
        }));
        stats.push(run_bench(&format!("stream/factor/delta/{label}"), || {
            let (mut enc, mut aggs) = cold_state(&stream.warm, &geo, &time);
            let mut counts = PathCountIndex::build(&stream.warm, schema.hierarchies());
            let mut acc = 0.0;
            for sb in &stream.batches {
                let delta = counts.apply(&sb.batch, schema.hierarchies());
                let (e, a) = aggs.apply_delta(&enc, &delta, &Exec::Serial);
                enc = e;
                aggs = a;
                acc += aggs.grand_total();
            }
            acc
        }));
        let ratio = median_of(&stats, &format!("stream/factor/cold/{label}"))
            / median_of(&stats, &format!("stream/factor/delta/{label}"));
        speedups.push((format!("factor/{label}"), ratio));
        factor_ratio = ratio;
    }

    // ------------------------------------------------------------------
    // engine layer: ingest + recommend per batch, warm session vs cold
    // ------------------------------------------------------------------
    let (locations, sub_locations, days, batches_served) = if smoke {
        (10, 3, 30, 6)
    } else {
        (12, 4, 60, 12)
    };
    let cs = CovidCaseStudy::us(CovidConfig {
        locations,
        sub_locations,
        days,
        seed: 7,
    });
    let stream = CovidStream::replay(
        &cs,
        StreamConfig {
            warmup_days: days - batches_served,
            correction_every: 0,
        },
    );
    let schema = cs.schema.clone();
    let location = schema.attr("location").unwrap();
    let day = schema.attr("day").unwrap();
    let confirmed = schema.attr("confirmed").unwrap();
    let complaint_on = |d: i64| {
        Complaint::new(
            GroupKey(vec![Value::str("US-State000"), Value::int(d)]),
            AggregateKind::Mean,
            Direction::TooLow,
        )
    };

    // The serving scenario: a standing *investigation* — the analyst
    // re-evaluating a complaint about a known anomalous past day while data
    // keeps streaming in. The investigation view pins that day, so its
    // snapshot, drill-down views and trained models are all untouched by
    // the stream: under versioned invalidation every batch leaves them
    // warm, while the pre-streaming workflow rebuilds the engine, rescans
    // the relation and retrains per batch because the relation changed
    // underneath it. (Work that is new under either strategy — complaints
    // about the just-landed day — costs the same in both arms by
    // construction, so it is left out to measure the maintenance
    // difference, not dilute it.)
    let investigation_day = 3i64;
    let investigation_view = |rel: &Arc<Relation>| {
        View::compute(
            rel.clone(),
            Predicate::eq(day, Value::int(investigation_day)),
            vec![location, day],
            confirmed,
            &Exec::Serial,
        )
        .unwrap()
    };
    stats.push(run_bench("stream/engine/cold", || {
        // Per batch: apply the batch, then a brand-new engine over the new
        // snapshot, a fresh view and a stateless recommendation — the
        // pre-streaming workflow. (Both arms pay the relation update; they
        // differ in what survives it.)
        let mut rel = stream.warm.clone();
        let mut acc = 0.0;
        for sb in &stream.batches {
            rel = Arc::new(rel.apply(&sb.batch).unwrap());
            let engine = Reptile::new(rel.clone(), schema.clone());
            let view = investigation_view(&rel);
            let rec = engine
                .recommend(&view, &complaint_on(investigation_day))
                .unwrap();
            acc += rec.original_value;
        }
        acc
    }));
    stats.push(run_bench("stream/engine/warm", || {
        // One long-lived engine + caches: ingest applies each batch with
        // delta maintenance and evicts only the signatures the batch
        // touched — which, for a day-pinned investigation, is none of them.
        let engine = Arc::new(Reptile::new(stream.warm.clone(), schema.clone()));
        let caches = SharedCaches::new();
        let view = investigation_view(&stream.warm);
        let mut acc = 0.0;
        for sb in &stream.batches {
            let report = engine.ingest(&sb.batch).unwrap();
            caches.invalidate_ingest(&report);
            let rec = engine
                .recommend_with_cache(
                    &view,
                    &complaint_on(investigation_day),
                    &caches.handle_for(&view),
                )
                .unwrap();
            acc += rec.original_value;
        }
        acc
    }));
    let engine_ratio =
        median_of(&stats, "stream/engine/cold") / median_of(&stats, "stream/engine/warm");
    speedups.push(("engine".to_string(), engine_ratio));

    print_bench_table("streaming (delta maintenance vs cold rebuild)", &stats);
    println!("\n== median speedup (delta over cold) ==");
    for (name, ratio) in &speedups {
        println!("{name}: {}x", fmt(*ratio));
    }

    if smoke {
        // Gate: delta maintenance must beat the cold rebuild at the factor
        // layer (the tentpole claim), with a 10% noise margin, and the warm
        // engine path must at least not regress badly.
        const GATE: f64 = 0.9;
        let ok = factor_ratio.is_finite()
            && factor_ratio >= 1.0
            && engine_ratio.is_finite()
            && engine_ratio >= GATE;
        if !ok {
            eprintln!(
                "bench-smoke FAILED: delta not beating cold (factor {factor_ratio:.3}x, engine {engine_ratio:.3}x)"
            );
            std::process::exit(1);
        }
        println!(
            "bench-smoke OK: delta maintenance is {factor_ratio:.2}x cold at the factor layer, {engine_ratio:.2}x at the engine layer"
        );
    } else {
        assert!(
            factor_ratio > 1.0,
            "delta maintenance must beat cold rebuild (got {factor_ratio:.3}x)"
        );
        let extras = [("median_speedup_delta_over_cold", json_f64_map(&speedups))];
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_streaming.json");
        write_baseline(path, &baseline_json(&stats, &extras), args.force)
            .expect("write BENCH_streaming.json");
        println!("wrote {path}");
    }
}
