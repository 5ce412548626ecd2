//! Regression tests for the sharded execution backend behind the serving
//! layer: a batch server whose engine fans every request out over the shard
//! pool must return recommendations **bit-identical** to a serial engine —
//! across cold builds, warm caches, and ingest delta patches — because the
//! sharded builders and operators are exact (`==`) mirrors of the serial
//! ones.

use reptile::{Complaint, Direction, Exec, Recommendation, Reptile, ReptileConfig};
use reptile_relational::{
    AggregateKind, GroupKey, IngestBatch, Predicate, Relation, Schema, Value, View,
};
use reptile_session::{BatchRequest, BatchServer};
use std::sync::Arc;

/// District -> village geography crossed with a day hierarchy; one village
/// drops its reports on one day.
fn dataset() -> (Arc<Relation>, Arc<Schema>) {
    let schema = Arc::new(
        Schema::builder()
            .hierarchy("geo", ["district", "village"])
            .hierarchy("time", ["day"])
            .measure("reports")
            .build()
            .unwrap(),
    );
    let mut b = Relation::builder(schema.clone());
    for day in 0..3i64 {
        for d in 0..3 {
            for v in 0..4 {
                let village = format!("D{d}-V{v}");
                let base = 20.0 + d as f64 * 2.0 + v as f64 * 0.5;
                let value = if village == "D1-V3" && day == 1 {
                    base - 15.0
                } else {
                    base
                };
                b = b
                    .row([
                        Value::str(format!("D{d}")),
                        Value::str(village),
                        Value::int(day),
                        Value::float(value),
                    ])
                    .unwrap();
            }
        }
    }
    (Arc::new(b.build()), schema)
}

fn district_day_view(rel: &Arc<Relation>, schema: &Arc<Schema>) -> Arc<View> {
    Arc::new(
        View::compute(
            rel.clone(),
            Predicate::all(),
            vec![
                schema.attr("district").unwrap(),
                schema.attr("day").unwrap(),
            ],
            schema.attr("reports").unwrap(),
            &reptile_relational::Exec::Serial,
        )
        .unwrap(),
    )
}

fn requests(view: &Arc<View>) -> Vec<BatchRequest> {
    let mut out = Vec::new();
    for d in 0..3 {
        for day in 0..3i64 {
            out.push(BatchRequest::new(
                view.clone(),
                Complaint::new(
                    GroupKey(vec![Value::str(format!("D{d}")), Value::int(day)]),
                    AggregateKind::Mean,
                    Direction::TooLow,
                ),
            ));
        }
    }
    // A duplicate, to keep the dedup path under test.
    out.push(out[4].clone());
    out
}

fn assert_identical(a: &Recommendation, b: &Recommendation) {
    assert_eq!(a.original_value, b.original_value);
    assert_eq!(a.ranked.len(), b.ranked.len());
    for (x, y) in a.ranked.iter().zip(&b.ranked) {
        assert_eq!(x.hierarchy, y.hierarchy);
        assert_eq!(x.added_attribute, y.added_attribute);
        assert_eq!(x.key, y.key);
        assert_eq!(x.observed, y.observed);
        assert_eq!(x.expected, y.expected, "group {}", x.key);
        assert_eq!(x.repaired_complaint_value, y.repaired_complaint_value);
        assert_eq!(x.penalty, y.penalty);
        assert_eq!(x.improvement, y.improvement);
    }
}

#[test]
fn sharded_engine_batches_match_serial_engine_batches() {
    // Exercise real pool dispatch even on a 1-core host.
    let _force = reptile_relational::parallel::ForcePoolDispatch::new();
    let (rel, schema) = dataset();
    let serial_server = BatchServer::new(Arc::new(Reptile::new(rel.clone(), schema.clone())));
    let sharded_engine = Reptile::new(rel.clone(), schema.clone()).with_config(ReptileConfig {
        exec: Exec::pool(4),
        ..Default::default()
    });
    let sharded_server = BatchServer::new(Arc::new(sharded_engine)).with_threads(2);

    let view = district_day_view(&rel, &schema);
    let reqs = requests(&view);
    let serial = serial_server.serve(&reqs);
    let sharded = sharded_server.serve(&reqs);
    assert_eq!(serial.len(), sharded.len());
    for (a, b) in serial.iter().zip(&sharded) {
        assert_identical(a.as_ref().unwrap(), b.as_ref().unwrap());
    }
    // Serve the same batch again: the sharded server answers from its warm
    // caches (no retraining) and still matches.
    let warm = sharded_server.serve(&reqs);
    let trained_before = sharded_server.stats_snapshot().models.misses;
    for (a, b) in serial.iter().zip(&warm) {
        assert_identical(a.as_ref().unwrap(), b.as_ref().unwrap());
    }
    assert_eq!(
        sharded_server.stats_snapshot().models.misses,
        trained_before
    );
}

#[test]
fn concurrent_hierarchy_evaluation_under_batch_serving_matches_serial() {
    // District-only views leave BOTH hierarchies drillable, so every
    // request's candidate hierarchies evaluate concurrently on the shard
    // pool *while* the batch server's request workers contend on the shared
    // claim-protocol caches. The results — including the per-hierarchy
    // details in schema order — must equal a serial engine evaluating one
    // request at a time. Forced pool dispatch keeps this meaningful on a
    // 1-core host (the inline fallback would serialise everything).
    let _force = reptile_relational::parallel::ForcePoolDispatch::new();
    let (rel, schema) = dataset();
    let view = Arc::new(
        View::compute(
            rel.clone(),
            Predicate::all(),
            vec![schema.attr("district").unwrap()],
            schema.attr("reports").unwrap(),
            &reptile_relational::Exec::Serial,
        )
        .unwrap(),
    );
    let mut reqs = Vec::new();
    for d in 0..3 {
        // Mean and Std complaints; Std additionally fits a second (mean)
        // model per hierarchy, doubling the shared-cache contention.
        for statistic in [AggregateKind::Mean, AggregateKind::Std] {
            reqs.push(BatchRequest::new(
                view.clone(),
                Complaint::new(
                    GroupKey(vec![Value::str(format!("D{d}"))]),
                    statistic,
                    Direction::TooLow,
                ),
            ));
        }
    }

    let serial_engine = Reptile::new(rel.clone(), schema.clone());
    let expected: Vec<Recommendation> = reqs
        .iter()
        .map(|r| serial_engine.recommend(&r.view, &r.complaint).unwrap())
        .collect();
    for rec in &expected {
        assert_eq!(rec.hierarchies.len(), 2, "geo and time both drillable");
    }

    let sharded_engine = Reptile::new(rel.clone(), schema.clone()).with_config(ReptileConfig {
        exec: Exec::pool(4),
        ..Default::default()
    });
    let server = BatchServer::new(Arc::new(sharded_engine)).with_threads(3);
    for round in 0..2 {
        // Round 0 trains cold under contention; round 1 answers warm.
        let got = server.serve(&reqs);
        for (want, got) in expected.iter().zip(&got) {
            let got = got.as_ref().unwrap();
            assert_identical(want, got);
            assert_eq!(
                want.hierarchies.len(),
                got.hierarchies.len(),
                "round {round}"
            );
            for (a, b) in want.hierarchies.iter().zip(&got.hierarchies) {
                assert_eq!(a.hierarchy, b.hierarchy, "schema hierarchy order kept");
                assert_eq!(a.added_attribute, b.added_attribute);
                assert_eq!(a.ranked.len(), b.ranked.len());
                for (x, y) in a.ranked.iter().zip(&b.ranked) {
                    assert_eq!(x.key, y.key);
                    assert_eq!(x.expected, y.expected, "round {round}, {}", x.key);
                    assert_eq!(x.penalty, y.penalty);
                }
            }
        }
    }
}

#[test]
fn batch_serving_dispatches_requests_onto_the_shard_pool() {
    // One-scheduler lock-in: `BatchServer::serve` fans requests out as
    // may-block jobs on the process-wide shard pool — not on ad-hoc scoped
    // threads — so every unique request shows up in the pool's may-block
    // job counter. (The obs registry is process-global and other tests in
    // this binary also dispatch, so assert on the delta being at least the
    // unique-request count, never on an exact total.)
    let _force = reptile_relational::parallel::ForcePoolDispatch::new();
    let (rel, schema) = dataset();
    let engine = Reptile::new(rel.clone(), schema.clone()).with_config(ReptileConfig {
        exec: Exec::pool(2),
        ..Default::default()
    });
    let server = BatchServer::new(Arc::new(engine)).with_threads(4);
    let view = district_day_view(&rel, &schema);
    let reqs = requests(&view);
    let unique = reqs.len() - 1; // requests() appends one duplicate

    let before = reptile_obs::counter_value(reptile_obs::Counter::PoolMayBlockJobs);
    for result in server.serve(&reqs) {
        result.unwrap();
    }
    let after = reptile_obs::counter_value(reptile_obs::Counter::PoolMayBlockJobs);
    // The scattering thread keeps one shard for itself, so a K-request
    // batch dispatches K-1 pool jobs.
    let expected = (unique - 1) as u64;
    assert!(
        after - before >= expected,
        "expected at least {expected} may-block pool jobs for {unique} unique requests, \
         counter moved {before} -> {after}"
    );
}

#[test]
fn ingest_delta_patching_is_exact_per_shard() {
    // Stream a new day (a new path on the time hierarchy) into a serial
    // and a sharded engine that both served before it: the post-ingest
    // recommendations, whose designs the sharded engine builds with
    // sharded aggregate scans, must still match bit-for-bit.
    let (rel, schema) = dataset();
    let serial_server = BatchServer::new(Arc::new(Reptile::new(rel.clone(), schema.clone())));
    let sharded_engine = Reptile::new(rel.clone(), schema.clone()).with_config(ReptileConfig {
        exec: Exec::pool(3),
        ..Default::default()
    });
    let sharded_server = BatchServer::new(Arc::new(sharded_engine));

    // Warm both servers' caches before the ingest.
    let view = district_day_view(&rel, &schema);
    let reqs = requests(&view);
    for server in [&serial_server, &sharded_server] {
        for result in server.serve(&reqs) {
            result.unwrap();
        }
    }

    let mut batch = IngestBatch::new();
    for d in 0..3 {
        for v in 0..4 {
            batch = batch.insert([
                Value::str(format!("D{d}")),
                Value::str(format!("D{d}-V{v}")),
                Value::int(3),
                Value::float(if d == 2 && v == 0 { 4.0 } else { 21.0 }),
            ]);
        }
    }
    let serial_report = serial_server.ingest(&batch).unwrap();
    let sharded_report = sharded_server.ingest(&batch.clone()).unwrap();
    assert_eq!(
        (serial_report.inserted, serial_report.deleted),
        (sharded_report.inserted, sharded_report.deleted)
    );
    assert_eq!(
        serial_report.relation.version(),
        sharded_report.relation.version()
    );

    let serial_view = district_day_view(&serial_report.relation, &schema);
    let sharded_view = district_day_view(&sharded_report.relation, &schema);
    let complaint = Complaint::new(
        GroupKey(vec![Value::str("D2"), Value::int(3)]),
        AggregateKind::Mean,
        Direction::TooLow,
    );
    let serial = serial_server
        .serve(&[BatchRequest::new(serial_view, complaint.clone())])
        .remove(0)
        .unwrap();
    let sharded = sharded_server
        .serve(&[BatchRequest::new(sharded_view, complaint)])
        .remove(0)
        .unwrap();
    assert_identical(&serial, &sharded);
    let best = sharded.best_group().unwrap();
    assert!(best.key.to_string().contains("D2-V0"), "{}", best.key);
}
