//! Streaming-ingest acceptance tests: after an [`IngestBatch`] flows through
//! a session or batch server, no stale view or model is ever served (the
//! invalidation regression), while entries over untouched
//! subtrees stay warm (versioned invalidation, not a cache flush).

use reptile::{Complaint, Direction, EngineCache, Recommendation, Reptile, ScoredGroup, ViewKey};
use reptile_relational::{
    AggregateKind, GroupKey, IngestBatch, Predicate, Relation, Schema, Value, View,
};
use reptile_session::{BatchRequest, BatchServer, CacheStats, Session, SharedCaches};
use std::sync::Arc;

/// Region -> district -> village geography crossed with years; village
/// R0-D1-V2 under-reports in 1986.
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
                && x.penalty == y.penalty
        };
        assert!(same(x, y), "ranking mismatch: {x:?} vs {y:?}");
    }
}

/// A batch that "repairs" R0-D1-V2's 1986 reports by deleting them and
/// re-inserting corrected values — existing paths only, so no hierarchy's
/// distinct path set changes.
fn repair_batch(rel: &Relation, schema: &Schema) -> IngestBatch {
    let village = schema.attr("village").unwrap();
    let year = schema.attr("year").unwrap();
    let mut batch = IngestBatch::new();
    for r in 0..rel.len() {
        if rel.value(r, village) == &Value::str("R0-D1-V2")
            && rel.value(r, year) == &Value::int(1986)
        {
            let mut row = rel.row(r);
            batch.push_delete(row.clone());
            row[4] = Value::float(6.5);
            batch.push_insert(row);
        }
    }
    assert!(!batch.is_empty());
    batch
}

/// Rewrites the measure of one 1985 row: a batch no 1986-pinned predicate
/// selects.
fn correct_a_1985_row(rel: &Relation, schema: &Schema) -> IngestBatch {
    let year = schema.attr("year").unwrap();
    let row = rel
        .filter_indices(|r| rel.value(r, year) == &Value::int(1985))
        .first()
        .map(|&r| rel.row(r))
        .unwrap();
    let mut corrected = row.clone();
    corrected[4] = Value::float(9.9);
    let mut batch = IngestBatch::new();
    batch.push_delete(row);
    batch.push_insert(corrected);
    batch
}

/// THE regression: a warm session must never serve pre-ingest models or
/// views after `Session::ingest`. The post-ingest recommendation has to be
/// indistinguishable from a cold stateless engine over the new snapshot.
#[test]
fn session_recommendation_after_ingest_matches_cold_engine() {
    let (rel, schema) = dataset();
    let view = region_year_view(&rel, &schema);
    let engine = Arc::new(Reptile::new(rel.clone(), schema.clone()));
    let mut session = Session::new(engine.clone(), view);
    let c = complaint("R0", 1986);

    // Warm everything up on the pre-ingest data.
    let before = session.recommend(&c).unwrap();
    let best = before.best_group().unwrap();
    assert!(
        best.key.to_string().contains("R0-D1"),
        "the corrupted village's district should rank first, got {}",
        best.key
    );
    session.recommend(&c).unwrap(); // fully cached pass

    // Stream the repair in and re-pose the same complaint.
    let report = session.ingest(&repair_batch(&rel, &schema)).unwrap();
    assert_eq!(report.relation.ident(), rel.ident());
    let after = session.recommend(&c).unwrap();

    // The session result must equal a cold engine over the new snapshot —
    // stale observed values or stale model predictions would both break this.
    let fresh_view = region_year_view(&report.relation, &schema);
    let cold = Reptile::new(report.relation.clone(), schema.clone());
    let expected = cold.recommend(&fresh_view, &c).unwrap();
    assert_same_ranking(&expected, &after);

    // And the repair is actually visible: the complaint's observed mean rose.
    assert!(after.original_value > before.original_value);
}

/// Regression: a non-numeric measure value that came and went. While a row
/// carries it every scan fails typed; once the row is deleted the value
/// only lingers in the patched measure dictionary, and the next scan used
/// to panic looking for a row that no longer exists.
#[test]
fn vanished_non_numeric_measure_neither_panics_nor_lingers() {
    let (rel, schema) = dataset();
    let view = region_year_view(&rel, &schema);
    let engine = Arc::new(Reptile::new(rel.clone(), schema.clone()));
    let mut session = Session::new(engine.clone(), view);
    let c = complaint("R0", 1986);
    let before = session.recommend(&c).unwrap();

    let stray = [
        Value::str("R0"),
        Value::str("R0-D1"),
        Value::str("R0-D1-V2"),
        Value::int(1986),
        Value::str("n/a"),
    ];
    let err = session
        .ingest(&IngestBatch::new().insert(stray.clone()))
        .unwrap_err();
    assert!(err.to_string().contains("severity"), "typed, got: {err}");

    session.ingest(&IngestBatch::new().delete(stray)).unwrap();
    let after = session.recommend(&c).unwrap();
    // Same rows as before the detour, so the same answer — from the session
    // and from a cold engine over the final snapshot alike.
    assert_bit_identical(&before, &after, "session after the value vanished");
    let relation = engine.relation();
    let cold = Reptile::new(relation.clone(), schema.clone());
    let expected = cold
        .recommend(&region_year_view(&relation, &schema), &c)
        .unwrap();
    assert_bit_identical(&expected, &after, "cold engine over the final snapshot");
}

/// Versioned invalidation: an ingest touching only 1986 evicts the 1986
/// signatures and leaves every 1985 model warm.
/// Every field of every scored group and the drilled views, floats by bits.
fn assert_bit_identical(a: &Recommendation, b: &Recommendation, what: &str) {
    let all = |groups: &[ScoredGroup]| -> Vec<String> {
        groups
            .iter()
            .map(|g| {
                let bits = [
                    g.observed,
                    g.expected,
                    g.repaired_complaint_value,
                    g.penalty,
                    g.improvement,
                ]
                .map(f64::to_bits);
                format!("{} {} {} {bits:x?}", g.hierarchy, g.added_attribute, g.key)
            })
            .collect()
    };
    assert_eq!(
        a.original_value.to_bits(),
        b.original_value.to_bits(),
        "{what}"
    );
    assert_eq!(all(&a.ranked), all(&b.ranked), "{what}");
    assert_eq!(a.hierarchies.len(), b.hierarchies.len(), "{what}");
    for (x, y) in a.hierarchies.iter().zip(&b.hierarchies) {
        assert_eq!(all(&x.ranked), all(&y.ranked), "{what}: {}", x.hierarchy);
    }
}

/// Code order is not value order: an ingest of dimension values that sort
/// *before* the existing ones appends their codes at the end of the cached
/// dictionaries. Everything built on the codes — the view, the training
/// design, the recommendation, a session hit — must still equal what a
/// fresh engine computes over the final snapshot, whose dictionaries are
/// sorted.
#[test]
fn values_sorting_before_existing_ones_keep_design_and_answers_exact() {
    use reptile_model::DesignBuilder;
    let (rel, schema) = dataset();
    let engine = Arc::new(Reptile::new(rel.clone(), schema.clone()));
    let mut session = Session::new(engine.clone(), region_year_view(&rel, &schema));
    let c = complaint("R0", 1986);
    session.recommend(&c).unwrap(); // caches (and code columns) are warm

    // Region "A0" < "R0", its districts and villages, and year 1984 < 1985
    // (A0 skips 1985, so the training designs have empty groups).
    let mut batch = IngestBatch::new();
    for year in [1984i64, 1986] {
        for (d, v, severity) in [(0, 0, 5.5), (0, 1, 5.7), (1, 0, 6.1), (1, 1, 6.2)] {
            batch.push_insert(vec![
                Value::str("A0"),
                Value::str(format!("A0-D{d}")),
                Value::str(format!("A0-D{d}-V{v}")),
                Value::int(year),
                Value::float(severity + 0.1 * (year - 1984) as f64),
            ]);
        }
    }
    // ... and the existing regions report for 1984 too.
    for r in 0..rel.len() {
        if rel.value(r, schema.attr("year").unwrap()) == &Value::int(1985) {
            let mut row = rel.row(r);
            row[3] = Value::int(1984);
            batch.push_insert(row);
        }
    }
    let ingested = session.ingest(&batch).unwrap().relation;
    // (`village` was never scanned before the ingest, so its column is
    // built fresh and sorted: both kinds of dictionary meet in one design.)
    for attr in ["region", "district", "year"] {
        let column = ingested.code_column(schema.attr(attr).unwrap());
        let values = column.dict().values();
        assert!(
            values.windows(2).any(|w| w[0] > w[1]),
            "{attr}: the ingest should have appended codes out of value order"
        );
    }

    // The final snapshot rebuilt from its rows: fresh, sorted dictionaries.
    let mut fresh = Relation::builder(schema.clone());
    for r in 0..ingested.len() {
        fresh = fresh.row(ingested.row(r)).unwrap();
    }
    let fresh = Arc::new(fresh.build());
    let fresh_engine = Reptile::new(fresh.clone(), schema.clone());
    let fresh_view = region_year_view(&fresh, &schema);

    // The training designs agree in everything the model reads.
    {
        let hierarchy = schema.hierarchy("geo").unwrap();
        let exec = reptile_relational::Exec::Serial;
        let over = |view: &View| view.drill_down_parallel(hierarchy, &exec).unwrap().view;
        let (ours, theirs) = (over(session.view()), over(&fresh_view));
        let design = |view: &View| {
            DesignBuilder::new(view, &schema, AggregateKind::Mean)
                .build()
                .unwrap()
        };
        let (ours, theirs) = (design(&ours), design(&theirs));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(ours.y()), bits(theirs.y()));
        assert_eq!(ours.observed(), theirs.observed());
        assert!(
            ours.observed().contains(&false),
            "A0 did not report in 1985"
        );
        for (a, b) in ours
            .factorization()
            .hierarchies()
            .iter()
            .zip(theirs.factorization().hierarchies())
        {
            assert_eq!(a.paths, b.paths, "path table of {}", a.name);
        }
        for c in 0..ours.n_cols() {
            let column = |d: &reptile_model::TrainingDesign| -> Vec<(Value, u64)> {
                let column = d.features().column(c);
                column
                    .iter()
                    .map(|(v, f)| (v.clone(), f.to_bits()))
                    .collect()
            };
            assert_eq!(
                column(&ours),
                column(&theirs),
                "baked features of column {c}"
            );
        }
        assert_eq!(ours.clusters().len(), theirs.clusters().len());
        for (a, b) in ours
            .clusters()
            .clusters()
            .iter()
            .zip(theirs.clusters().clusters())
        {
            assert_eq!((a.start_row, a.len), (b.start_row, b.len));
            assert_eq!(bits(&a.const_features), bits(&b.const_features));
            assert_eq!(bits(&a.intra_features), bits(&b.intra_features));
        }
    }

    // The answers agree: first the post-ingest miss, then the hit, for a
    // tuple that existed before and for one the ingest brought.
    for c in [c, complaint("A0", 1984)] {
        let cold = fresh_engine.recommend(&fresh_view, &c).unwrap();
        let miss = session.recommend(&c).unwrap();
        let trained = session.stats_snapshot().models.misses;
        let hit = session.recommend(&c).unwrap();
        assert_eq!(
            session.stats_snapshot().models.misses,
            trained,
            "second pass is a hit"
        );
        assert_bit_identical(&miss, &cold, "post-ingest recommend vs fresh engine");
        assert_bit_identical(&hit, &cold, "session hit vs fresh engine");
    }
}

#[test]
fn ingest_keeps_untouched_subtree_models_warm() {
    let (rel, schema) = dataset();
    let year = schema.attr("year").unwrap();
    let engine = Reptile::new(rel.clone(), schema.clone());
    let caches = SharedCaches::new();
    let year_view = |rel: &Arc<Relation>, y: i64| {
        View::compute(
            rel.clone(),
            Predicate::eq(year, Value::int(y)),
            vec![schema.attr("region").unwrap(), schema.attr("year").unwrap()],
            schema.attr("severity").unwrap(),
            &reptile_relational::Exec::Serial,
        )
        .unwrap()
    };
    let v85 = year_view(&rel, 1985);
    let v86 = year_view(&rel, 1986);
    engine
        .recommend_with_cache(&v85, &complaint("R0", 1985), &caches.handle_for(&v85))
        .unwrap();
    engine
        .recommend_with_cache(&v86, &complaint("R0", 1986), &caches.handle_for(&v86))
        .unwrap();
    let trained = caches.stats_snapshot().models.misses;
    assert!(trained > 0);

    // The batch only changes 1986 rows.
    let report = engine.ingest(&repair_batch(&rel, &schema)).unwrap();
    caches.invalidate_ingest(&report);
    assert!(
        caches.stats_snapshot().models.invalidations > 0,
        "1986 models evicted"
    );
    assert!(
        caches.stats_snapshot().views.invalidations > 0,
        "1986 views evicted"
    );

    // 1985: everything still warm — zero new trainings, and the pre-ingest
    // view snapshot itself is still accepted (its day-pinned predicate
    // selects none of the changed rows), so the request actually HITS the
    // cache rather than being served cache-less.
    let hits_before = caches.stats_snapshot().models.hits;
    engine
        .recommend_with_cache(&v85, &complaint("R0", 1985), &caches.handle_for(&v85))
        .unwrap();
    assert_eq!(
        caches.stats_snapshot().models.misses,
        trained,
        "1985 stayed warm"
    );
    assert!(
        caches.stats_snapshot().models.hits > hits_before,
        "1985 models served from cache"
    );

    // 1986: must retrain (the old models were evicted), and the result
    // matches a cold engine over the new snapshot.
    let v86_fresh = year_view(&report.relation, 1986);
    let after = engine
        .recommend_with_cache(
            &v86_fresh,
            &complaint("R0", 1986),
            &caches.handle_for(&v86_fresh),
        )
        .unwrap();
    assert!(
        caches.stats_snapshot().models.misses > trained,
        "1986 retrained"
    );
    let cold = Reptile::new(report.relation.clone(), schema.clone());
    let expected = cold
        .recommend(&year_view(&report.relation, 1986), &complaint("R0", 1986))
        .unwrap();
    assert_same_ranking(&expected, &after);
}

/// The snapshot-floor guard: a caller still holding a pre-ingest view
/// cannot repopulate the cache after an ingest invalidation — its keys
/// survive (relation idents are lineage-stable by design), so without the
/// floor its recomputed pre-ingest results would be cached and served to
/// post-ingest requests.
#[test]
fn pre_ingest_snapshot_cannot_repopulate_the_cache() {
    let (rel, schema) = dataset();
    let engine = Reptile::new(rel.clone(), schema.clone());
    let old_view = region_year_view(&rel, &schema); // pre-ingest snapshot
    let c = complaint("R0", 1986);
    let caches = SharedCaches::new();
    engine
        .recommend_with_cache(&old_view, &c, &caches.handle_for(&old_view))
        .unwrap();
    let trained = caches.stats_snapshot().models.misses;

    let report = engine.ingest(&repair_batch(&rel, &schema)).unwrap();
    caches.invalidate_ingest(&report);

    // Serving the old snapshot still works (snapshot-consistent) but runs
    // cache-less: no hits, no misses, nothing published.
    let stats_before = (
        caches.stats_snapshot().models,
        caches.stats_snapshot().views,
    );
    let stale = engine
        .recommend_with_cache(&old_view, &c, &caches.handle_for(&old_view))
        .unwrap();
    assert_eq!(
        (
            caches.stats_snapshot().models,
            caches.stats_snapshot().views
        ),
        stats_before
    );
    let cold_old = Reptile::new(rel.clone(), schema.clone());
    assert_same_ranking(&cold_old.recommend(&old_view, &c).unwrap(), &stale);

    // A post-ingest request misses (nothing stale was re-published),
    // retrains, and matches a cold engine over the new snapshot.
    let fresh_view = region_year_view(&report.relation, &schema);
    let fresh = engine
        .recommend_with_cache(&fresh_view, &c, &caches.handle_for(&fresh_view))
        .unwrap();
    assert!(
        caches.stats_snapshot().models.misses > trained,
        "fresh snapshot retrained"
    );
    let cold_new = Reptile::new(report.relation.clone(), schema.clone());
    assert_same_ranking(&cold_new.recommend(&fresh_view, &c).unwrap(), &fresh);
    assert!(fresh.original_value > stale.original_value);
}

/// A cache that missed an ingest invalidation entirely (a second holder
/// over the same engine whose owner never routed the ingest through it) is
/// refused cache access instead of silently serving its unscreened stale
/// entries.
#[test]
fn cache_that_missed_an_ingest_is_not_consulted() {
    let (rel, schema) = dataset();
    let engine = Reptile::new(rel.clone(), schema.clone());
    let view = region_year_view(&rel, &schema);
    let c = complaint("R0", 1986);
    // Two independent cache holders over the same engine.
    let synced = SharedCaches::new();
    let unsynced = SharedCaches::new();
    engine
        .recommend_with_cache(&view, &c, &synced.handle_for(&view))
        .unwrap();
    engine
        .recommend_with_cache(&view, &c, &unsynced.handle_for(&view))
        .unwrap();

    // Only `synced` learns about the ingest.
    let report = engine.ingest(&repair_batch(&rel, &schema)).unwrap();
    synced.invalidate_ingest(&report);

    // A post-ingest request through the unsynced cache would, pre-guard,
    // hit its surviving stale models. The engine must refuse to consult it
    // (no cache interaction) and still produce the cold-correct answer.
    let fresh_view = region_year_view(&report.relation, &schema);
    let unsynced_stats = (
        unsynced.stats_snapshot().models,
        unsynced.stats_snapshot().views,
    );
    let rec = engine
        .recommend_with_cache(&fresh_view, &c, &unsynced.handle_for(&fresh_view))
        .unwrap();
    assert_eq!(
        (
            unsynced.stats_snapshot().models,
            unsynced.stats_snapshot().views
        ),
        unsynced_stats,
        "unsynced cache must not be consulted"
    );
    let cold = Reptile::new(report.relation.clone(), schema.clone());
    let expected = cold.recommend(&fresh_view, &c).unwrap();
    assert_same_ranking(&expected, &rec);

    // The synced cache keeps full access and also answers correctly.
    let rec = engine
        .recommend_with_cache(&fresh_view, &c, &synced.handle_for(&fresh_view))
        .unwrap();
    assert_same_ranking(&expected, &rec);
    assert!(synced.stats_snapshot().models.misses > 0);
}

/// A cache that misses one ingest but witnesses a later one must be
/// flushed, not screened precisely: the later batch's change set says
/// nothing about the missed batch's rows.
#[test]
fn cache_with_an_ingest_gap_is_flushed_not_trusted() {
    let (rel, schema) = dataset();
    let year = schema.attr("year").unwrap();
    let engine = Reptile::new(rel.clone(), schema.clone());
    let caches = SharedCaches::new();
    let v86 = View::compute(
        rel.clone(),
        Predicate::eq(year, Value::int(1986)),
        vec![schema.attr("region").unwrap(), schema.attr("year").unwrap()],
        schema.attr("severity").unwrap(),
        &reptile_relational::Exec::Serial,
    )
    .unwrap();
    let c = complaint("R0", 1986);
    engine
        .recommend_with_cache(&v86, &c, &caches.handle_for(&v86))
        .unwrap();
    let trained = caches.stats_snapshot().models.misses;

    // Batch 1 rewrites 1986 rows — the cache never hears about it.
    let _missed = engine.ingest(&repair_batch(&rel, &schema)).unwrap();
    // Batch 2 touches only 1985 rows — the cache witnesses this one. Its
    // change set does not select the 1986 entries, so precise screening
    // alone would keep them; the version gap must force a flush instead.
    let report2 = engine
        .ingest(&correct_a_1985_row(&engine.relation(), &schema))
        .unwrap();
    caches.invalidate_ingest(&report2);
    assert!(
        caches.stats_snapshot().models.invalidations > 0,
        "gap flushed models"
    );

    // Recommending over the current snapshot retrains and is correct.
    let v86_fresh = View::compute(
        report2.relation.clone(),
        Predicate::eq(year, Value::int(1986)),
        vec![schema.attr("region").unwrap(), schema.attr("year").unwrap()],
        schema.attr("severity").unwrap(),
        &reptile_relational::Exec::Serial,
    )
    .unwrap();
    let rec = engine
        .recommend_with_cache(&v86_fresh, &c, &caches.handle_for(&v86_fresh))
        .unwrap();
    assert!(
        caches.stats_snapshot().models.misses > trained,
        "stale model not served"
    );
    let cold = Reptile::new(report2.relation.clone(), schema.clone());
    assert_same_ranking(&cold.recommend(&v86_fresh, &c).unwrap(), &rec);
}

/// The batch server keeps serving across an ingest and never hands out
/// pre-ingest results for post-ingest requests.
#[test]
fn batch_server_serves_fresh_results_after_ingest() {
    let (rel, schema) = dataset();
    let view = Arc::new(region_year_view(&rel, &schema));
    let engine = Arc::new(Reptile::new(rel.clone(), schema.clone()));
    let server = BatchServer::new(engine.clone()).with_threads(4);

    let requests: Vec<BatchRequest> = [("R0", 1986), ("R1", 1985)]
        .iter()
        .map(|(r, y)| BatchRequest::new(view.clone(), complaint(r, *y)))
        .collect();
    let before = server.serve(&requests);
    assert!(before.iter().all(Result::is_ok));

    let report = server.ingest(&repair_batch(&rel, &schema)).unwrap();
    let fresh = engine.refresh_view(&view).unwrap();
    let requests: Vec<BatchRequest> = [("R0", 1986), ("R1", 1985)]
        .iter()
        .map(|(r, y)| BatchRequest::new(fresh.clone(), complaint(r, *y)))
        .collect();
    let after = server.serve(&requests);

    let cold = Reptile::new(report.relation.clone(), schema.clone());
    for ((r, y), result) in [("R0", 1986), ("R1", 1985)].iter().zip(&after) {
        let expected = cold
            .recommend(
                &region_year_view(&report.relation, &schema),
                &complaint(r, *y),
            )
            .unwrap();
        assert_same_ranking(&expected, result.as_ref().unwrap());
    }

    // The repaired complaint improved, and the pre-ingest answer differed.
    let obs_before = before[0].as_ref().unwrap().original_value;
    let obs_after = after[0].as_ref().unwrap().original_value;
    assert!(obs_after > obs_before);
}

/// A batch that *grows* the geography hierarchy: a brand-new village under
/// R0-D0 reporting in both years. Unlike [`repair_batch`] (which only
/// changes measure values on existing paths), this changes geo's distinct
/// path set, so the next serve builds designs over a new geo path table.
fn growth_batch(tag: usize) -> IngestBatch {
    let mut batch = IngestBatch::new();
    for year in [1985i64, 1986] {
        for rep in 0..3 {
            batch.push_insert(vec![
                Value::str("R0"),
                Value::str("R0-D0"),
                Value::str(format!("R0-D0-N{tag}")),
                Value::int(year),
                Value::float(5.0 + 0.1 * rep as f64),
            ]);
        }
    }
    batch
}

/// The `step`-th batch of a mixed feed over [`dataset`]: repairs of the
/// complained subtree, new villages, a 1985 correction, a region and a year
/// that sort before every present one, and a village deleted outright.
fn mixed_batch(step: usize, rel: &Relation, schema: &Schema) -> IngestBatch {
    let village = schema.attr("village").unwrap();
    match step % 5 {
        0 => repair_batch(rel, schema),
        1 => growth_batch(step),
        2 => correct_a_1985_row(rel, schema),
        3 => {
            let mut batch = IngestBatch::new();
            for (d, severity) in [(0, 4.3), (1, 6.1)] {
                batch.push_insert(vec![
                    Value::str(format!("A{step:02}")),
                    Value::str(format!("A{step:02}-D{d}")),
                    Value::str(format!("A{step:02}-D{d}-V0")),
                    Value::int(1984 - step as i64),
                    Value::float(severity + 0.1 * step as f64),
                ]);
            }
            batch
        }
        _ => {
            let gone = Value::str(format!("R1-D{}-V{}", step % 2, step % 3));
            let mut batch = IngestBatch::new();
            for r in (0..rel.len()).filter(|&r| rel.value(r, village) == &gone) {
                batch.push_delete(rel.row(r));
            }
            batch
        }
    }
}

/// After every batch of a mixed feed through a session, each cached view
/// `==` a cold compute over the engine's snapshot, and the recommendation
/// equals a cold engine's. The cache advances its views by each batch —
/// the parallel (training) view, stale after every batch, as well as the
/// drilled view the batch may leave alone — so the post-ingest recommend
/// serves every view as a hit.
#[test]
fn cached_views_advance_with_every_batch() {
    let (rel, schema) = dataset();
    let engine = Arc::new(Reptile::new(rel.clone(), schema.clone()));
    let mut session = Session::new(engine.clone(), region_year_view(&rel, &schema));
    let c = complaint("R0", 1986);
    session.recommend(&c).unwrap();
    let geo = schema.hierarchy("geo").unwrap();
    let mut advanced = 0;
    for step in 0..12 {
        let batch = mixed_batch(step, &engine.relation(), &schema);
        assert!(!batch.is_empty(), "step {step}");
        let before = session.stats_snapshot().views;
        let now = session.ingest(&batch).unwrap().relation;
        let after = session.stats_snapshot().views;
        assert!(
            after.advanced > before.advanced,
            "step {step}: nothing advanced"
        );
        advanced += after.advanced - before.advanced;
        assert!(Arc::ptr_eq(session.view().relation(), &now), "step {step}");

        let cached = session.cached_views();
        for view in &cached {
            let cold = View::compute(
                now.clone(),
                view.predicate().clone(),
                view.group_by().to_vec(),
                view.measure(),
                &reptile_relational::Exec::Serial,
            )
            .unwrap();
            let what = format!(
                "step {step}: {:?} by {:?}",
                view.predicate(),
                view.group_by()
            );
            assert!(**view == cold, "{what}");
        }
        let next = geo.next_level(session.view().group_by()).unwrap();
        let parallel = ViewKey::drilled(session.view(), next);
        assert!(
            cached
                .iter()
                .any(|v| ViewKey::of_view(v) == parallel && Arc::ptr_eq(v.relation(), &now)),
            "step {step}: the parallel view was advanced to the new snapshot"
        );

        let before = session.stats_snapshot().views;
        let served = session.recommend(&c).unwrap();
        let after = session.stats_snapshot().views;
        assert!(after.hits > before.hits, "step {step}: the views hit");
        assert_eq!(after.misses, before.misses, "step {step}: no view missed");
        let cold = Reptile::new(now.clone(), schema.clone());
        let expected = cold
            .recommend(&region_year_view(&now, &schema), &c)
            .unwrap();
        assert_bit_identical(&served, &expected, &format!("step {step}"));
    }
    assert!(advanced >= 12);
}

/// The observability counters stay exact across serve/ingest rounds: the
/// caches' invalidation counters count exactly the same evictions for
/// identical ingests, every counter is monotone, and every round's answers
/// equal a cold engine over the engine's current snapshot.
#[test]
fn counters_are_exact_across_identical_serve_ingest_rounds() {
    let (rel, schema) = dataset();
    let view = Arc::new(region_year_view(&rel, &schema));
    let engine = Arc::new(Reptile::new(rel.clone(), schema.clone()));
    let server = BatchServer::new(engine.clone()).with_threads(1);
    let requests: Vec<BatchRequest> = [("R0", 1985), ("R0", 1986), ("R1", 1985), ("R1", 1986)]
        .iter()
        .map(|(r, y)| BatchRequest::new(view.clone(), complaint(r, *y)))
        .collect();

    // Warm pass: populate both caches.
    assert!(server.serve(&requests).iter().all(Result::is_ok));
    let warm = server.stats_snapshot();
    assert_eq!(warm.invalidations(), 0, "nothing ingested yet");
    assert!(warm.models.insertions > 0, "warm pass trained models");

    // Two structurally identical (ingest -> serve) rounds, each adding one
    // new village under R0-D0. Each ingest invalidates the same key set
    // (the serve in between repopulates exactly the keys the previous
    // ingest evicted) — so the per-round counter deltas must be *equal*,
    // not merely positive.
    let mut invalidated = Vec::new();
    for round in 0..2 {
        let snap0 = server.stats_snapshot();
        server.ingest(&growth_batch(round)).unwrap();
        let fresh = engine.refresh_view(&view).unwrap();
        let reqs: Vec<BatchRequest> = [("R0", 1985), ("R0", 1986), ("R1", 1985), ("R1", 1986)]
            .iter()
            .map(|(r, y)| BatchRequest::new(fresh.clone(), complaint(r, *y)))
            .collect();
        let answers = server.serve(&reqs);
        let cold = Reptile::new(engine.relation(), schema.clone());
        for (request, answer) in reqs.iter().zip(answers) {
            let expected = cold.recommend(&fresh, &request.complaint).unwrap();
            let what = format!("round {round}: {}", request.complaint.key);
            assert_bit_identical(&expected, &answer.unwrap(), &what);
        }
        let snap1 = server.stats_snapshot();
        invalidated.push(snap1.invalidations() - snap0.invalidations());
        // Monotone, componentwise.
        for (a, b) in [
            (snap0.views, snap1.views),
            (snap0.models, snap1.models),
            (snap0.total(), snap1.total()),
        ] {
            assert!(a.hits <= b.hits);
            assert!(a.misses <= b.misses);
            assert!(a.insertions <= b.insertions);
            assert!(a.evictions <= b.evictions);
            assert!(a.invalidations <= b.invalidations);
        }
    }
    assert!(invalidated[0] > 0, "the ingest evicted touched entries");
    assert_eq!(
        invalidated[0], invalidated[1],
        "identical rounds invalidate identical key sets"
    );
}

/// Counters under *concurrent* serving + ingest: two threads serve batches
/// while the main thread streams repair batches through the server. No
/// interleaving may break the conservation laws — counters only grow, a
/// cache never removes more than was inserted, the pool ledger never shows
/// more completed than dispatched jobs — and after the dust settles the
/// server must agree with a cold engine over the final snapshot.
#[test]
fn counters_stay_consistent_under_concurrent_serving_and_ingest() {
    use reptile_obs as obs;

    let (rel, schema) = dataset();
    let view = Arc::new(region_year_view(&rel, &schema));
    let engine = Arc::new(Reptile::new(rel.clone(), schema.clone()));
    let server = BatchServer::new(engine.clone()).with_threads(4);
    assert!(server
        .serve(&[BatchRequest::new(view.clone(), complaint("R0", 1986))])
        .iter()
        .all(Result::is_ok));
    let before = server.stats_snapshot();

    std::thread::scope(|scope| {
        for _ in 0..2 {
            let server = &server;
            let view = &view;
            scope.spawn(move || {
                for _ in 0..4 {
                    // Views may be mid-ingest stale here; the server must
                    // still answer (recomputing against its snapshot), and
                    // the counters must absorb the churn without drift.
                    let reqs: Vec<BatchRequest> =
                        [("R0", 1985), ("R0", 1986), ("R1", 1985), ("R1", 1986)]
                            .iter()
                            .map(|(r, y)| BatchRequest::new(view.clone(), complaint(r, *y)))
                            .collect();
                    assert!(server.serve(&reqs).iter().all(Result::is_ok));
                }
            });
        }
        for _ in 0..3 {
            let rel_now = engine.relation();
            server.ingest(&repair_batch(&rel_now, &schema)).unwrap();
        }
    });

    let after = server.stats_snapshot();
    for (a, b) in [(before.views, after.views), (before.models, after.models)] {
        assert!(a.hits <= b.hits && a.misses <= b.misses && a.insertions <= b.insertions);
        // Conservation: a cache cannot remove more entries than it ever
        // admitted, under any interleaving.
        assert!(b.evictions + b.invalidations <= b.insertions);
    }
    // Pool ledger: completed work never exceeds dispatched work, however
    // the serve/ingest threads interleaved. (Other tests in this binary
    // dispatch concurrently, so equality is not asserted here — the
    // at-quiescence balance is covered by the pool's own tests.)
    let dispatched = obs::counter_value(obs::Counter::PoolJobsDispatched);
    let completed = obs::counter_value(obs::Counter::PoolJobsExecuted)
        + obs::counter_value(obs::Counter::PoolStealAssists);
    assert!(
        completed <= dispatched,
        "pool ledger drifted: {completed} completed vs {dispatched} dispatched"
    );

    // Final agreement with a cold engine over the settled snapshot.
    let settled = engine.relation();
    let fresh = engine.refresh_view(&view).unwrap();
    let served = server
        .serve(&[BatchRequest::new(fresh, complaint("R0", 1986))])
        .pop()
        .unwrap()
        .unwrap();
    let cold = Reptile::new(settled.clone(), schema.clone());
    let expected = cold
        .recommend(&region_year_view(&settled, &schema), &complaint("R0", 1986))
        .unwrap();
    assert_same_ranking(&expected, &served);
}

/// The one publication rule, driven by hand: a handle pinned to a view
/// claims a key, an ingest is invalidated, then the handle publishes. The
/// value lands only if the ingest changed no row the pinned predicate
/// selects; either way the claim is released and its waiters wake.
#[test]
fn pinned_handle_publishes_only_when_the_ingest_missed_its_predicate() {
    let (rel, schema) = dataset();
    let engine = Reptile::new(rel.clone(), schema.clone());
    let v86 = |rel: &Arc<Relation>| {
        View::compute(
            rel.clone(),
            Predicate::eq(schema.attr("year").unwrap(), Value::int(1986)),
            vec![schema.attr("region").unwrap(), schema.attr("year").unwrap()],
            schema.attr("severity").unwrap(),
            &reptile_relational::Exec::Serial,
        )
        .unwrap()
    };
    let stats = |hits, misses, insertions| CacheStats {
        hits,
        misses,
        insertions,
        evictions: 0,
        invalidations: 0,
        advanced: 0,
    };

    // Claim, ingest, publish, while a second request waits on the claim.
    // Returns what the waiter saw and what a lookup afterwards sees.
    let drive = |caches: &SharedCaches, batch: IngestBatch| {
        let pinned_view = v86(&engine.relation());
        let key = ViewKey::of_view(&pinned_view);
        let pinned = caches.handle_for(&pinned_view);
        assert!(pinned.get_view(&key).is_none(), "a miss claims the key");
        let report = engine.ingest(&batch).unwrap();
        caches.invalidate_ingest(&report);
        let fresh = v86(&report.relation);
        let waited = std::thread::scope(|s| {
            let waiter = s.spawn(|| caches.handle_for(&fresh).get_view(&key));
            std::thread::sleep(std::time::Duration::from_millis(20));
            pinned.put_view(key.clone(), Arc::new(pinned_view.clone()));
            waiter.join().unwrap()
        });
        let next = caches.handle_for(&fresh).get_view(&key);
        (waited, next)
    };

    // The repair rewrites 1986 rows: the pinned predicate selects them, so
    // nothing is published; the waiter and the next lookup both miss.
    let caches = SharedCaches::new();
    let (waited, next) = drive(&caches, repair_batch(&rel, &schema));
    assert!(waited.is_none() && next.is_none());
    assert_eq!(caches.stats_snapshot().views, stats(0, 3, 0));

    // A 1985 correction leaves the 1986 view's contents alone: the value
    // is published across the ingest, and the waiter and the next lookup
    // both hit it.
    let caches = SharedCaches::new();
    caches.sync_with(&engine.relation());
    let batch = correct_a_1985_row(&engine.relation(), &schema);
    let (waited, next) = drive(&caches, batch);
    assert!(waited.is_some() && next.is_some());
    assert_eq!(caches.stats_snapshot().views, stats(2, 1, 1));
}
