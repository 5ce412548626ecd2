//! What a remote design build and fit cost on the wire.
//!
//! One test, alone in its binary: [`Counter::RemoteRpcs`] is process-global,
//! and pinning an exact delta needs no neighbour bumping it.

use reptile_model::multilevel::{MultilevelConfig, MultilevelModel, TrainingBackend};
use reptile_model::DesignBuilder;
use reptile_obs::{counter_value, Counter};
use reptile_relational::{AggregateKind, Exec, Predicate, Relation, Remote, Schema, Value, View};
use reptile_wire::testing::LoopbackWorkers;
use std::sync::Arc;

/// A remote design build and fit run where their view lives, on the
/// coordinator: the hierarchy aggregates, the design and every fit of it
/// send no RPC, whatever the fleet size.
#[test]
fn a_remote_design_build_and_fit_make_no_rpcs() {
    let schema = Arc::new(
        Schema::builder()
            .hierarchy("time", ["year"])
            .hierarchy("geo", ["district", "village"])
            .measure("m")
            .build()
            .unwrap(),
    );
    let mut b = Relation::builder(schema.clone());
    for (i, year) in [2000i64, 2001, 2002].into_iter().enumerate() {
        for d in 0..4 {
            for v in 0..5 {
                let value = 10.0 * i as f64 + 3.0 * d as f64 + ((d * 7 + v * 3) % 5) as f64;
                b = b
                    .row([
                        Value::int(year),
                        Value::str(format!("D{d}")),
                        Value::str(format!("D{d}-v{v}")),
                        Value::float(value),
                    ])
                    .unwrap();
            }
        }
    }
    let rel = Arc::new(b.build());
    let group_by = ["year", "district", "village"].map(|a| schema.attr(a).unwrap());
    let measure = schema.attr("m").unwrap();
    let config = MultilevelConfig::default();
    let counters = || {
        [
            Counter::RemoteRpcs,
            Counter::RemoteGramPartials,
            Counter::RemoteEStepPartials,
            Counter::RemoteFallbacks,
        ]
        .map(counter_value)
    };
    for workers in 1..=3u64 {
        let exec = Exec::Remote(Remote::new(Arc::new(LoopbackWorkers::undelayed(
            workers as usize,
        ))));
        let view = View::compute(
            rel.clone(),
            Predicate::all(),
            group_by.to_vec(),
            measure,
            &exec,
        )
        .unwrap();
        let before = counters();
        let design = DesignBuilder::new(&view, &schema, AggregateKind::Mean)
            .with_exec(exec.clone())
            .build()
            .unwrap();
        assert!(design.clusters().len() as u64 >= workers);
        for fit in ["first", "second"] {
            let model =
                MultilevelModel::fit_exec(&design, config, TrainingBackend::Factorized, &exec)
                    .unwrap();
            assert_eq!(model.iterations_run, config.iterations);
            let after = counters();
            let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
            assert_eq!(
                delta,
                [0, 0, 0, 0],
                "design build and {fit} fit over {workers} workers: \
                 [rpcs, gram partials, e-step partials, fallbacks]"
            );
        }
    }
}
