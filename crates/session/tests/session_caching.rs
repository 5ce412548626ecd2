//! Acceptance tests for the session subsystem: warm sessions retrain
//! nothing, batch serving trains each distinct (view, model) pair exactly
//! once, and every cached path returns rankings identical to the stateless
//! one-shot engine.

use reptile::{Complaint, Direction, Recommendation, Reptile, ScoredGroup};
use reptile_relational::{AggregateKind, GroupKey, Predicate, Relation, Schema, Value, View};
use reptile_session::{BatchRequest, BatchServer, Session, SharedCaches};
use std::sync::Arc;

/// A three-level geography (region -> district -> village) crossed with a
/// year hierarchy; one village under-reports in one year.
fn dataset() -> (Arc<Relation>, Arc<Schema>) {
    let schema = Arc::new(
        Schema::builder()
            .hierarchy("geo", ["region", "district", "village"])
            .hierarchy("time", ["year"])
            .measure("severity")
            .build()
            .unwrap(),
    );
    let mut b = Relation::builder(schema.clone());
    for year in [1985i64, 1986] {
        for r in 0..2 {
            for d in 0..2 {
                let district = format!("R{r}-D{d}");
                for v in 0..3 {
                    let village = format!("{district}-V{v}");
                    for rep in 0..3 {
                        let base = 5.0 + r as f64 + 0.5 * d as f64 + 0.1 * rep as f64;
                        let value = if village == "R0-D1-V2" && year == 1986 {
                            base - 4.0
                        } else {
                            base
                        };
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

fn region_year_view(rel: &Arc<Relation>, schema: &Arc<Schema>) -> View {
    View::compute(
        rel.clone(),
        Predicate::all(),
        vec![schema.attr("region").unwrap(), schema.attr("year").unwrap()],
        schema.attr("severity").unwrap(),
        &reptile_relational::Exec::Serial,
    )
    .unwrap()
}

fn complaint(region: &str, year: i64) -> Complaint {
    Complaint::new(
        GroupKey(vec![Value::str(region), Value::int(year)]),
        AggregateKind::Mean,
        Direction::TooLow,
    )
}

fn assert_same_ranking(a: &Recommendation, b: &Recommendation) {
    assert_eq!(a.ranked.len(), b.ranked.len());
    assert_eq!(a.original_value, b.original_value);
    for (x, y) in a.ranked.iter().zip(&b.ranked) {
        let same = |x: &ScoredGroup, y: &ScoredGroup| {
            x.hierarchy == y.hierarchy
                && x.added_attribute == y.added_attribute
                && x.key == y.key
                && x.observed == y.observed
                && x.expected == y.expected
                && x.repaired_complaint_value == y.repaired_complaint_value
                && x.penalty == y.penalty
                && x.improvement == y.improvement
        };
        assert!(same(x, y), "ranking mismatch: {x:?} vs {y:?}");
    }
}

#[test]
fn warm_session_rerecommendation_trains_zero_models() {
    let (rel, schema) = dataset();
    let view = region_year_view(&rel, &schema);
    let engine = Arc::new(Reptile::new(rel, schema));
    let mut session = Session::new(engine, view);
    let c = complaint("R0", 1986);

    let cold = session.recommend(&c).unwrap();
    let after_cold = session.stats_snapshot().models;
    assert!(after_cold.misses > 0, "cold call must train models");
    assert_eq!(after_cold.hits, 0);

    let warm = session.recommend(&c).unwrap();
    let after_warm = session.stats_snapshot().models;
    // Zero retraining: the model-cache miss count (= trainings) is unchanged.
    assert_eq!(after_warm.misses, after_cold.misses);
    assert_eq!(after_warm.hits, after_cold.misses);
    assert_same_ranking(&cold, &warm);
}

#[test]
fn cached_session_matches_stateless_engine() {
    let (rel, schema) = dataset();
    let view = region_year_view(&rel, &schema);
    let c = complaint("R1", 1985);

    let one_shot = Reptile::new(rel.clone(), schema.clone());
    let expected = one_shot.recommend(&view, &c).unwrap();

    let engine = Arc::new(Reptile::new(rel, schema));
    let mut session = Session::new(engine, view);
    // Twice: the cold pass and the fully cached pass must both match the
    // stateless engine exactly.
    let cold = session.recommend(&c).unwrap();
    let warm = session.recommend(&c).unwrap();
    assert_same_ranking(&expected, &cold);
    assert_same_ranking(&expected, &warm);
}

#[test]
fn complaints_over_the_same_view_share_trained_models() {
    let (rel, schema) = dataset();
    let view = region_year_view(&rel, &schema);
    let engine = Arc::new(Reptile::new(rel, schema));
    let mut session = Session::new(engine, view);

    session.recommend(&complaint("R0", 1986)).unwrap();
    let trained = session.stats_snapshot().models.misses;
    // A different complaint tuple over the SAME view needs the same parallel
    // training views, hence the same models: no new training.
    session.recommend(&complaint("R1", 1985)).unwrap();
    assert_eq!(session.stats_snapshot().models.misses, trained);
    assert!(session.stats_snapshot().models.hits >= trained);
}

#[test]
fn accept_drills_deeper_and_keeps_the_loop_going() {
    let (rel, schema) = dataset();
    let view = region_year_view(&rel, &schema);
    let engine = Arc::new(Reptile::new(rel, schema));
    let mut session = Session::new(engine, view);

    // Complain at (region, year), accept the recommended geo drill-down.
    let c = complaint("R0", 1986);
    let rec = session.recommend(&c).unwrap();
    let best_hierarchy = rec.best_hierarchy().unwrap().to_string();
    assert_eq!(best_hierarchy, "geo");
    session.accept(&c.key, &best_hierarchy).unwrap();
    assert_eq!(session.depth(), 1);
    assert_eq!(session.path()[0].added_attribute, "district");
    assert_eq!(session.view().group_by().len(), 3);

    // Complain one level deeper (district level), drill again to villages.
    let deeper = Complaint::new(
        GroupKey(vec![
            Value::str("R0"),
            Value::int(1986),
            Value::str("R0-D1"),
        ]),
        AggregateKind::Mean,
        Direction::TooLow,
    );
    let rec = session.recommend(&deeper).unwrap();
    let best = rec.best_group().unwrap();
    assert!(
        best.key.to_string().contains("R0-D1-V2"),
        "expected the corrupted village, got {}",
        best.key
    );
    session.accept(&deeper.key, "geo").unwrap();
    assert_eq!(session.depth(), 2);
    assert_eq!(session.path()[1].added_attribute, "village");

    // reset returns to the root view but keeps the caches warm.
    let trained = session.stats_snapshot().models.misses;
    session.reset();
    assert_eq!(session.depth(), 0);
    session.recommend(&c).unwrap();
    assert_eq!(session.stats_snapshot().models.misses, trained);
}

#[test]
fn view_cache_canonicalizes_predicate_order() {
    let (rel, schema) = dataset();
    let year = schema.attr("year").unwrap();
    let region = schema.attr("region").unwrap();
    let gb = vec![schema.attr("district").unwrap()];
    let measure = schema.attr("severity").unwrap();

    // The same restriction written in both attribute orders.
    let p1 = Predicate::eq(region, Value::str("R0")).and_eq(year, Value::int(1986));
    let p2 = Predicate::eq(year, Value::int(1986)).and_eq(region, Value::str("R0"));
    let v1 = View::compute(
        rel.clone(),
        p1,
        gb.clone(),
        measure,
        &reptile_relational::Exec::Serial,
    )
    .unwrap();
    let v2 = View::compute(
        rel.clone(),
        p2,
        gb,
        measure,
        &reptile_relational::Exec::Serial,
    )
    .unwrap();

    let engine = Arc::new(Reptile::new(rel, schema));
    let c = Complaint::new(
        GroupKey(vec![Value::str("R0-D1")]),
        AggregateKind::Mean,
        Direction::TooLow,
    );
    let caches = SharedCaches::new();
    let first = engine
        .recommend_with_cache(&v1, &c, &caches.handle_for(&v1))
        .unwrap();
    let trained = caches.stats_snapshot().models.misses;
    assert!(trained > 0);
    // The differently-written but identical view must hit the same cache
    // entries: zero additional training.
    let second = engine
        .recommend_with_cache(&v2, &c, &caches.handle_for(&v2))
        .unwrap();
    assert_eq!(caches.stats_snapshot().models.misses, trained);
    assert_same_ranking(&first, &second);
}

#[test]
fn batch_server_trains_each_distinct_pair_exactly_once() {
    let (rel, schema) = dataset();
    let view = Arc::new(region_year_view(&rel, &schema));

    // Eight complaints over the identical view: four distinct tuples, each
    // complained twice.
    let complaints: Vec<Complaint> = vec![
        complaint("R0", 1985),
        complaint("R0", 1986),
        complaint("R1", 1985),
        complaint("R1", 1986),
        complaint("R0", 1985),
        complaint("R0", 1986),
        complaint("R1", 1985),
        complaint("R1", 1986),
    ];
    let requests: Vec<BatchRequest> = complaints
        .iter()
        .map(|c| BatchRequest::new(view.clone(), c.clone()))
        .collect();

    let engine = Arc::new(Reptile::new(rel.clone(), schema.clone()));
    let server = BatchServer::new(engine).with_threads(8);
    let results = server.serve(&requests);
    assert_eq!(results.len(), 8);

    // All eight complaints drill the same view along the same hierarchy with
    // the same statistic: exactly ONE distinct (view, model) pair, trained
    // exactly once however many threads wanted it.
    let stats = server.stats_snapshot().models;
    assert_eq!(stats.misses, 1, "each distinct (view, model) trained once");
    assert_eq!(stats.insertions, 1);
    assert!(stats.hits >= 3, "remaining unique requests hit the cache");

    // Results are identical to the sequential one-shot engine.
    for (c, result) in complaints.iter().zip(&results) {
        let batched = result.as_ref().unwrap();
        let one_shot = Reptile::new(rel.clone(), schema.clone());
        let expected = one_shot.recommend(&view, c).unwrap();
        assert_same_ranking(&expected, batched);
    }
}

#[test]
fn batch_server_handles_mixed_views_and_errors() {
    let (rel, schema) = dataset();
    let coarse = Arc::new(region_year_view(&rel, &schema));
    let fine = Arc::new(
        View::compute(
            rel.clone(),
            Predicate::all(),
            vec![
                schema.attr("region").unwrap(),
                schema.attr("district").unwrap(),
            ],
            schema.attr("severity").unwrap(),
            &reptile_relational::Exec::Serial,
        )
        .unwrap(),
    );
    let requests = vec![
        BatchRequest::new(coarse.clone(), complaint("R0", 1986)),
        BatchRequest::new(
            fine.clone(),
            Complaint::new(
                GroupKey(vec![Value::str("R1"), Value::str("R1-D0")]),
                AggregateKind::Mean,
                Direction::TooHigh,
            ),
        ),
        // Unknown tuple: must come back as an error, not poison the batch.
        BatchRequest::new(coarse.clone(), complaint("R9", 1986)),
    ];
    let engine = Arc::new(Reptile::new(rel, schema));
    let server = BatchServer::new(engine).with_threads(4);
    let results = server.serve(&requests);
    assert!(results[0].is_ok());
    assert!(results[1].is_ok());
    assert!(matches!(
        results[2],
        Err(reptile::ReptileError::UnknownComplaintTuple(_))
    ));
    // Distinct views -> distinct model signatures: one training for the
    // coarse view (geo only; time is exhausted) plus two for the fine view
    // (both geo and time can still drill).
    assert_eq!(server.stats_snapshot().models.misses, 3);
}

/// A `Session` and a `BatchServer` driven through the same drill sequence
/// give the same answers and the same cache accounting: the session's
/// cache is the batch server's shared cache, pinned to the current view.
#[test]
fn session_accounting_matches_shared_accounting() {
    let (rel, schema) = dataset();
    let view = Arc::new(region_year_view(&rel, &schema));
    let engine = Arc::new(Reptile::new(rel, schema.clone()));
    let mut session = Session::new(engine.clone(), (*view).clone());
    let server = BatchServer::new(engine).with_threads(1);
    let geo = schema.hierarchy("geo").unwrap().clone();

    let steps = [
        complaint("R0", 1986),
        Complaint::new(
            GroupKey(vec![
                Value::str("R0"),
                Value::int(1986),
                Value::str("R0-D1"),
            ]),
            AggregateKind::Mean,
            Direction::TooLow,
        ),
    ];
    let mut served = view;
    for c in &steps {
        // Cold, then warm: the second pass is all hits on both sides.
        for _ in 0..2 {
            let ours = session.recommend(c).unwrap();
            let theirs = server
                .serve_one(&BatchRequest::new(served.clone(), c.clone()))
                .unwrap();
            assert_eq!(format!("{ours:?}"), format!("{theirs:?}"));
        }
        // Accept the geo drill-down: the session drills through its cache,
        // the server resolves the same drilled view definition.
        let next = geo.next_level(served.group_by()).unwrap();
        let mut group_by = served.group_by().to_vec();
        group_by.push(next);
        let drilled = server
            .resolve_view(
                served.provenance_predicate(&c.key),
                group_by,
                served.measure(),
            )
            .unwrap();
        session.accept(&c.key, "geo").unwrap();
        assert_eq!(format!("{:?}", session.view()), format!("{drilled:?}"));
        served = drilled;
        assert_eq!(session.stats_snapshot(), server.stats_snapshot());
    }
    let snapshot = session.stats_snapshot();
    assert!(snapshot.views.hits > 0 && snapshot.models.hits > 0);
    assert!(snapshot.models.misses > 0);
}
