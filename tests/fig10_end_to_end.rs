//! Figure 10: end-to-end runtime of a drill-down sequence on the Absentee-
//! and COMPAS-shaped workloads at the paper's cardinalities (179K and 60,843
//! rows) — factorised EM against the Matlab-style materialised EM (20 EM
//! iterations, a COUNT design per drill step).
//!
//! The timing is a measurement, not a gate, so the test is `#[ignore]`d and
//! asserts no timing: it fits every step under both training backends and
//! prints the table.
//!
//! ```sh
//! cargo test --release -p reptile --test fig10_end_to_end -- --ignored --nocapture
//! ```

use reptile_datasets::{absentee, compas};
use reptile_model::{DesignBuilder, MultilevelConfig, MultilevelModel, TrainingBackend};
use reptile_relational::{AggregateKind, AttrId, Exec, Predicate, Relation, Schema, View};
use std::sync::Arc;
use std::time::Instant;

/// Seconds to fit one model per drill step — grouping by a growing prefix
/// of `drill_order` — with `backend`.
fn run_sequence(
    schema: &Arc<Schema>,
    relation: &Arc<Relation>,
    drill_order: &[AttrId],
    measure: AttrId,
    backend: TrainingBackend,
) -> f64 {
    let config = MultilevelConfig {
        iterations: 20,
        ..Default::default()
    };
    let start = Instant::now();
    for depth in 1..=drill_order.len() {
        let view = View::compute(
            relation.clone(),
            Predicate::all(),
            drill_order[..depth].to_vec(),
            measure,
            &Exec::Serial,
        )
        .unwrap();
        let design = DesignBuilder::new(&view, schema, AggregateKind::Count)
            .build()
            .unwrap();
        MultilevelModel::fit_exec(&design, config, backend, &Exec::Serial).unwrap();
    }
    start.elapsed().as_secs_f64()
}

#[test]
#[ignore = "Figure 10 timing table; run with --ignored --nocapture to print it"]
fn figure_10_drill_sequences_under_both_backends() {
    let (absentee_schema, absentee_rel) =
        absentee::generate(absentee::AbsenteeConfig::paper_scale());
    let (compas_schema, compas_rel) = compas::generate(compas::CompasConfig::paper_scale());
    let workloads = [
        (
            "Absentee",
            &absentee_schema,
            &absentee_rel,
            &["county", "party", "week", "gender"][..],
            "ballots",
        ),
        (
            "COMPAS",
            &compas_schema,
            &compas_rel,
            &["year", "month", "age_range", "race", "charge_degree"][..],
            "score",
        ),
    ];
    println!("== Figure 10 — end-to-end runtime (seconds) ==");
    println!("dataset       rows  factorised  materialised  speedup");
    for (name, schema, relation, order, measure) in workloads {
        let order: Vec<AttrId> = order.iter().map(|a| schema.attr(a).unwrap()).collect();
        let measure = schema.attr(measure).unwrap();
        let [factorized, materialized] =
            [TrainingBackend::Factorized, TrainingBackend::Materialized]
                .map(|backend| run_sequence(schema, relation, &order, measure, backend));
        println!(
            "{name:<10} {:>7}  {factorized:>10.3}  {materialized:>12.3}  {:>6.2}x",
            relation.len(),
            materialized / factorized.max(1e-12)
        );
    }
}
