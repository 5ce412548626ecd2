//! Figure 8: multi-query execution — the work-sharing / independence
//! optimised decomposed-aggregate batch vs the LMFAO-style serial baseline,
//! plus the same optimisation one level up: the `reptile-session`
//! `BatchServer` sharing trained models across concurrent complaints vs a
//! stateless one-shot loop.
//!
//! Run with: `cargo run -p reptile-bench --release --bin fig8_multiquery`

use reptile::{Complaint, Direction, Reptile};
use reptile_bench::{fmt, print_table, time};
use reptile_datasets::hiergen::synthetic_factorization_with_fanout;
use reptile_factor::{lmfao, EncodedAggregates, EncodedFactorization, Exec};
use reptile_relational::{AggregateKind, GroupKey, Predicate, Relation, Schema, Value, View};
use reptile_session::{BatchRequest, BatchServer};
use std::sync::Arc;

fn aggregate_batch_rows() -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for w in [64usize, 256, 1024, 4096] {
        let (fact, _) = synthetic_factorization_with_fanout(3, 3, w, 2);
        let enc = EncodedFactorization::encode(&fact);
        let (_, t_shared) = time(|| EncodedAggregates::compute(&enc, &Exec::Serial));
        let (_, t_serial) = time(|| lmfao::compute_serial(&fact));
        rows.push(vec![
            w.to_string(),
            fmt(t_shared),
            fmt(t_serial),
            fmt(t_serial / t_shared.max(1e-12)),
        ]);
    }
    rows
}

/// A region/district/village x year panel for the serving comparison.
fn serving_dataset() -> (Arc<Relation>, Arc<Schema>) {
    let schema = Arc::new(
        Schema::builder()
            .hierarchy("geo", ["region", "district", "village"])
            .hierarchy("time", ["year"])
            .measure("severity")
            .build()
            .unwrap(),
    );
    let mut b = Relation::builder(schema.clone());
    for year in 2000i64..2004 {
        for r in 0..4 {
            for d in 0..4 {
                let district = format!("R{r}-D{d}");
                for v in 0..4 {
                    let village = format!("{district}-V{v}");
                    for rep in 0..3 {
                        let value = 10.0
                            + r as f64
                            + 0.5 * d as f64
                            + 0.2 * v as f64
                            + 0.1 * rep as f64
                            + (year - 2000) as f64;
                        b = b
                            .row([
                                Value::str(format!("R{r}")),
                                Value::str(district.clone()),
                                Value::str(village.clone()),
                                Value::int(year),
                                Value::float(value),
                            ])
                            .unwrap();
                    }
                }
            }
        }
    }
    (Arc::new(b.build()), schema)
}

fn serving_batch_rows() -> Vec<Vec<String>> {
    let (relation, schema) = serving_dataset();
    let view = Arc::new(
        View::compute(
            relation.clone(),
            Predicate::all(),
            vec![schema.attr("region").unwrap(), schema.attr("year").unwrap()],
            schema.attr("severity").unwrap(),
            &reptile_relational::Exec::Serial,
        )
        .unwrap(),
    );
    let keys: Vec<GroupKey> = view.keys();

    let mut rows = Vec::new();
    for n in [4usize, 8, 16] {
        let complaints: Vec<Complaint> = (0..n)
            .map(|i| {
                Complaint::new(
                    keys[i % keys.len()].clone(),
                    AggregateKind::Mean,
                    Direction::TooLow,
                )
            })
            .collect();

        let (_, t_serial) = time(|| {
            for c in &complaints {
                let engine = Reptile::new(relation.clone(), schema.clone());
                engine.recommend(&view, c).expect("recommend");
            }
        });

        let requests: Vec<BatchRequest> = complaints
            .iter()
            .map(|c| BatchRequest::new(view.clone(), c.clone()))
            .collect();
        let (_, t_batch) = time(|| {
            let engine = Arc::new(Reptile::new(relation.clone(), schema.clone()));
            let server = BatchServer::new(engine).with_threads(8);
            let results = server.serve(&requests);
            assert!(results.iter().all(|r| r.is_ok()));
        });

        rows.push(vec![
            n.to_string(),
            fmt(t_serial),
            fmt(t_batch),
            fmt(t_serial / t_batch.max(1e-12)),
        ]);
    }
    rows
}

fn main() {
    print_table(
        "Figure 8a: multi-query aggregate batch (seconds)",
        &["cardinality w", "reptile shared", "lmfao serial", "speedup"],
        &aggregate_batch_rows(),
    );
    println!("\nExpected shape: Reptile's shared plan is several times faster, with the");
    println!("gap widening as the cardinality (and hence the materialised cross-hierarchy");
    println!("COF tables of the baseline) grows. The paper reports >4x.");

    print_table(
        "Figure 8b: multi-complaint serving via reptile-session (seconds)",
        &[
            "complaints",
            "one-shot serial",
            "batch server (8 threads)",
            "speedup",
        ],
        &serving_batch_rows(),
    );
    println!("\nExpected shape: the batch server deduplicates (view, model) work items,");
    println!("training each distinct pair once and fanning evaluation across threads, so");
    println!("its advantage grows with the number of complaints sharing a view.");
}
