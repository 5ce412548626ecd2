//! Figure 9: drill-down optimisation — Static vs Dynamic vs Cache+Dynamic
//! maintenance of the decomposed aggregates over successive Reptile
//! invocations, plus the same optimisation at the serving layer: a cached
//! `reptile-session::Session` replaying an analyst's complain → accept →
//! drill loop vs a stateless engine doing the same walk.
//!
//! Run with: `cargo run -p reptile-bench --release --bin fig9_drilldown`

use reptile::{Complaint, Direction, Reptile};
use reptile_bench::{fmt, print_table, time};
use reptile_datasets::hiergen::synthetic_hierarchy;
use reptile_factor::{DrilldownMode, DrilldownSession, EncodedFactorization, Factorization};
use reptile_relational::{AggregateKind, GroupKey, Predicate, Relation, Schema, Value, View};
use reptile_session::Session;
use std::sync::Arc;

fn run_invocations(mode: DrilldownMode, b_depth: usize, width: usize) -> (f64, usize) {
    // Each invocation's factors, encoded up front as a design build hands
    // them to the session.
    let invocations: Vec<EncodedFactorization> = (3..=6)
        .map(|a_depth| {
            EncodedFactorization::encode(&Factorization::new(vec![
                synthetic_hierarchy("B", 100, b_depth, width, 2),
                synthetic_hierarchy("A", 0, a_depth, width, 2),
            ]))
        })
        .collect();
    let mut session = DrilldownSession::new(mode);
    let mut recomputed = 0usize;
    let (_, secs) = time(|| {
        for factors in &invocations {
            let _ = session.encoded(factors.factors().to_vec());
            recomputed += session.stats().recomputed;
        }
    });
    (secs, recomputed)
}

/// The analyst's loop: complain at (region, year), accept the geo drill,
/// complain at (district) level, accept again — then repeat the whole walk.
fn drill_walk_dataset() -> (Arc<Relation>, Arc<Schema>) {
    let schema = Arc::new(
        Schema::builder()
            .hierarchy("geo", ["region", "district", "village"])
            .hierarchy("time", ["year"])
            .measure("severity")
            .build()
            .unwrap(),
    );
    let mut b = Relation::builder(schema.clone());
    for year in 2000i64..2003 {
        for r in 0..3 {
            for d in 0..4 {
                let district = format!("R{r}-D{d}");
                for v in 0..4 {
                    let village = format!("{district}-V{v}");
                    let value = 10.0 + r as f64 + 0.5 * d as f64 + 0.2 * v as f64;
                    b = b
                        .row([
                            Value::str(format!("R{r}")),
                            Value::str(district.clone()),
                            Value::str(village),
                            Value::int(year),
                            Value::float(value),
                        ])
                        .unwrap();
                }
            }
        }
    }
    (Arc::new(b.build()), schema)
}

fn serving_walk_rows() -> Vec<Vec<String>> {
    let (relation, schema) = drill_walk_dataset();
    let root = View::compute(
        relation.clone(),
        Predicate::all(),
        vec![schema.attr("region").unwrap(), schema.attr("year").unwrap()],
        schema.attr("severity").unwrap(),
        &reptile_relational::Exec::Serial,
    )
    .unwrap();
    let top = Complaint::new(
        GroupKey(vec![Value::str("R0"), Value::int(2001)]),
        AggregateKind::Mean,
        Direction::TooLow,
    );
    let deeper = Complaint::new(
        GroupKey(vec![
            Value::str("R0"),
            Value::int(2001),
            Value::str("R0-D2"),
        ]),
        AggregateKind::Mean,
        Direction::TooLow,
    );

    // Stateless: recompute the walk from scratch each replay.
    let (_, t_stateless) = time(|| {
        for _ in 0..3 {
            let engine = Reptile::new(relation.clone(), schema.clone());
            engine.recommend(&root, &top).expect("recommend");
            let geo = schema.hierarchy("geo").expect("geo").clone();
            let dd = root
                .drill_down(&top.key, &geo, &reptile_relational::Exec::Serial)
                .expect("drill");
            engine.recommend(&dd.view, &deeper).expect("recommend");
        }
    });

    // Session: the first walk warms the caches; replays are served from them.
    let engine = Arc::new(Reptile::new(relation.clone(), schema.clone()));
    let mut session = Session::new(engine, root);
    let (_, t_session) = time(|| {
        for _ in 0..3 {
            session.recommend(&top).expect("recommend");
            session.accept(&top.key, "geo").expect("accept");
            session.recommend(&deeper).expect("recommend");
            session.reset();
        }
    });
    let trainings = session.stats_snapshot().models.misses;

    vec![vec![
        "3 replays".to_string(),
        fmt(t_stateless),
        format!("{} ({} trainings)", fmt(t_session), trainings),
        fmt(t_stateless / t_session.max(1e-12)),
    ]]
}

fn main() {
    let width = 2048;
    let mut rows = Vec::new();
    for b_depth in [3usize, 4, 5] {
        let (t_static, r_static) = run_invocations(DrilldownMode::Static, b_depth, width);
        let (t_dynamic, r_dynamic) = run_invocations(DrilldownMode::Dynamic, b_depth, width);
        let (t_cached, r_cached) = run_invocations(DrilldownMode::CachedDynamic, b_depth, width);
        rows.push(vec![
            b_depth.to_string(),
            format!("{} ({} recomputes)", fmt(t_static), r_static),
            format!("{} ({} recomputes)", fmt(t_dynamic), r_dynamic),
            format!("{} ({} recomputes)", fmt(t_cached), r_cached),
        ]);
    }
    print_table(
        "Figure 9a: drill-down maintenance across 4 invocations (seconds)",
        &["B depth", "Static", "Dynamic", "Cache+Dynamic"],
        &rows,
    );
    println!("\nExpected shape: Dynamic avoids recomputing hierarchy B every invocation");
    println!("(>1.2x faster than Static); Cache+Dynamic eliminates repeated work across");
    println!("invocations entirely.");

    print_table(
        "Figure 9b: analyst drill-down walk via reptile-session (seconds)",
        &["workload", "stateless engine", "cached session", "speedup"],
        &serving_walk_rows(),
    );
    println!("\nExpected shape: the session trains each (view, model) pair once on the");
    println!("first walk and serves every replay from its caches.");
}
