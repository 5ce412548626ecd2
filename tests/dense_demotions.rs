//! Views whose group tables start in their dense arm, on data that keeps
//! and on data that breaks a hierarchy's functional dependencies.
//!
//! The group-by kernel addresses its dense slot table by the deepest grouped
//! level of each hierarchy, which names a group only while every value of
//! that level sits under one parent. Nothing promises that: an ingest can
//! move a page under a second agent. The kernel verifies every dense hit
//! against the stored key tuple and demotes to its hashed arm on the first
//! mismatch, so the views must stay exact under every execution context.
//!
//! These tests assert deltas of the process-global
//! [`Counter::DenseDemotions`], so they live alone in this binary and every
//! one of them holds [`COUNTER`] while it scans: no concurrent scan can move
//! the count another test reads.

use reptile_obs::{counter_value, Counter};
use reptile_relational::aggregate::aggregate_values;
use reptile_relational::{
    Exec, GroupKey, IngestBatch, Predicate, Relation, Remote, Schema, Value, View,
};
use reptile_wire::testing::LoopbackWorkers;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Held by every test of this binary for its whole run.
static COUNTER: Mutex<()> = Mutex::new(());

/// splitmix64: the seeded generator of the cases.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A `site` path: language, access, agent, page — each name carries its
/// parents', so the base data is strict.
fn path(l: usize, a: usize, g: usize, p: usize) -> [Value; 4] {
    [
        Value::str(format!("L{l}")),
        Value::str(format!("L{l}.A{a}")),
        Value::str(format!("L{l}.A{a}.G{g}")),
        Value::str(format!("L{l}.A{a}.G{g}.P{p}")),
    ]
}

fn row(site: &[Value; 4], week: i64, day: i64, views: f64) -> Vec<Value> {
    let mut row = site.to_vec();
    row.extend([Value::int(week), Value::int(day), Value::float(views)]);
    row
}

/// The view `==` the row-at-a-time `Value` scan: the same keys in the same
/// (value) order, and per key the aggregate of its rows' measures folded in
/// row order, bit for bit.
fn assert_view_equals_value_scan(view: &View, label: &str) {
    let rel = view.relation();
    let mut expect: BTreeMap<GroupKey, Vec<f64>> = BTreeMap::new();
    for r in (0..rel.len()).filter(|&r| view.predicate().matches(rel, r)) {
        let key = view.group_by().iter().map(|a| rel.value(r, *a).clone());
        let value = rel.numeric(r, view.measure()).unwrap().unwrap_or(0.0);
        expect
            .entry(GroupKey(key.collect()))
            .or_default()
            .push(value);
    }
    assert_eq!(
        view.keys(),
        expect.keys().cloned().collect::<Vec<_>>(),
        "{label}: group keys and their order"
    );
    for (key, values) in &expect {
        assert_eq!(
            view.group(key).unwrap(),
            &aggregate_values(values),
            "{label}: aggregate at {key}"
        );
    }
}

/// The view `==` the `Value` scan, `==` under `Shards(1..=7)` and every
/// loopback fleet, and equal in keys and aggregates to the same view over
/// `rebuilt`.
fn assert_exact_everywhere(view: &View, rebuilt: &Arc<Relation>, fleets: &[Exec], label: &str) {
    assert_view_equals_value_scan(view, label);
    let rel = view.relation();
    let compute = |rel: &Arc<Relation>, exec: &Exec| {
        View::compute(
            rel.clone(),
            view.predicate().clone(),
            view.group_by().to_vec(),
            view.measure(),
            exec,
        )
        .unwrap()
    };
    for shards in 1..=7 {
        assert!(
            compute(rel, &Exec::Shards(shards)) == *view,
            "{label}: {shards} shards"
        );
    }
    for (n, fleet) in fleets.iter().enumerate() {
        assert!(compute(rel, fleet) == *view, "{label}: {} workers", n + 1);
    }
    let cold = compute(rebuilt, &Exec::Serial);
    assert_eq!(cold.keys(), view.keys(), "{label}: rebuilt keys");
    assert_eq!(
        cold.aggregates(),
        view.aggregates(),
        "{label}: rebuilt aggregates"
    );
}

/// The view battery on the deep mixed-fanout panel (a three-level geography
/// whose regions and districts own different numbers of children, two
/// measures): every shape a drill-down scans — the full-depth group-by, a
/// shallow one, a restricted drill, an unsatisfiable predicate, and the
/// second measure — equals the `Value` scan serially, and every
/// `Exec::Shards(n)` equals the serial view, including shard counts at and
/// past the group count (empty shards merge as identities). The drill-down
/// the engine issues is `==` under a pool as well. The panel is strict, so
/// no group table leaves its dense arm.
#[test]
fn deep_panel_views_are_exact_under_every_shard_count() {
    use reptile_datasets::scaling::{deep_scaling_panel, DeepScalingConfig};

    let _serial = COUNTER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let demotions = counter_value(Counter::DenseDemotions);
    let workload = deep_scaling_panel(DeepScalingConfig::smoke());
    let schema = &workload.schema;
    let [region, district, day, m, m2] =
        ["region", "district", "day", "m", "m2"].map(|n| schema.attr(n).unwrap());
    let complained = Predicate::eq(region, workload.complaint_key.value(0).clone());
    let shapes = [
        (
            "full depth",
            Predicate::all(),
            workload.training_view.group_by().to_vec(),
            m,
        ),
        ("shallow", Predicate::all(), vec![region, day], m),
        ("restricted drill", complained, vec![region, district], m),
        (
            "unsatisfiable",
            Predicate::eq(region, Value::str("R-absent")),
            vec![region, district],
            m,
        ),
        (
            "second measure",
            Predicate::all(),
            vec![region, district, day],
            m2,
        ),
    ];
    for (label, predicate, group_by, measure) in shapes {
        let compute = |exec: &Exec| {
            View::compute(
                workload.relation.clone(),
                predicate.clone(),
                group_by.clone(),
                measure,
                exec,
            )
            .unwrap()
        };
        let serial = compute(&Exec::Serial);
        assert_view_equals_value_scan(&serial, label);
        for shards in [2, 3, 7, serial.len(), serial.len() + 5] {
            assert_eq!(
                serial,
                compute(&Exec::Shards(shards)),
                "{label}: {shards} shards"
            );
        }
    }
    let geo = schema.hierarchy("geo").unwrap();
    let serial = workload
        .complaint_view
        .drill_down_parallel(geo, &Exec::Serial)
        .unwrap();
    for threads in [2, 4] {
        let pooled = workload
            .complaint_view
            .drill_down_parallel(geo, &Exec::pool(threads))
            .unwrap();
        assert_eq!(
            serial.view, pooled.view,
            "drill-down on a {threads}-thread pool"
        );
    }
    assert_eq!(
        counter_value(Counter::DenseDemotions),
        demotions,
        "strict data never demotes"
    );
}

/// Property: an ingest that moves a page under a second agent — the same
/// page value inserted under another agent, with deletes and unseen values
/// in the same batch — makes the dense group tables demote, and every view
/// stays exact. The strict base snapshot never demotes.
#[test]
fn an_ingest_that_moves_a_page_under_a_second_agent_keeps_views_exact() {
    let _serial = COUNTER
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let schema = Arc::new(
        Schema::builder()
            .hierarchy("site", ["language", "access", "agent", "page"])
            .hierarchy("time", ["week", "day"])
            .measure("views")
            .build()
            .unwrap(),
    );
    let [language, access, agent, page, week, day, views] = [
        "language", "access", "agent", "page", "week", "day", "views",
    ]
    .map(|n| schema.attr(n).unwrap());
    let group_bys = [
        vec![language, access, agent, week, page],
        vec![agent, page],
        vec![page, day],
        vec![language, week, agent],
    ];
    let fleets: Vec<Exec> = (1..=3)
        .map(|n| Exec::Remote(Remote::new(Arc::new(LoopbackWorkers::undelayed(n)))))
        .collect();
    let mut moved = 0usize;
    for seed in 0..6u64 {
        let mut rng = Rng(seed);
        // Time-major like a feed, a tenth of the cells missing.
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for w in 0..3 {
            for d in 0..2 {
                for (l, a, g, p) in (0..24).map(|i| (i / 12, i / 6 % 2, i / 3 % 2, i % 3)) {
                    if rng.below(10) > 0 {
                        let views = rng.below(400) as f64 * 0.25 - 7.0;
                        rows.push(row(&path(l, a, g, p), w, d, views));
                    }
                }
            }
        }
        let build = |rows: &[Vec<Value>]| {
            let mut rel = Relation::empty(schema.clone());
            for row in rows {
                rel.push_row(row.clone()).unwrap();
            }
            Arc::new(rel)
        };
        let base = build(&rows);
        let predicates = |rows: &[Vec<Value>], rng: &mut Rng| {
            let some = &rows[rng.below(rows.len())];
            [
                Predicate::all(),
                Predicate::eq(week, some[week.index()].clone()),
                Predicate::eq(agent, some[agent.index()].clone()),
            ]
        };
        let before = counter_value(Counter::DenseDemotions);
        for predicate in predicates(&rows, &mut rng) {
            for group_by in &group_bys {
                let view = View::compute(
                    base.clone(),
                    predicate.clone(),
                    group_by.clone(),
                    views,
                    &Exec::Serial,
                )
                .unwrap();
                let label = format!("seed {seed} base: {predicate:?} by {group_by:?}");
                assert_exact_everywhere(&view, &base, &fleets, &label);
            }
        }
        assert_eq!(
            counter_value(Counter::DenseDemotions),
            before,
            "seed {seed}: strict data never demotes"
        );

        // Move a page under a second agent: its value arrives again with
        // another agent's path, next to deletes and an unseen page.
        let victim = rows[rng.below(rows.len())].clone();
        let (l, a, g) = (rng.below(2), rng.below(2), rng.below(2));
        let mut second = path(l, a, g, 0);
        if second[2] == victim[agent.index()] {
            second = path(l, a, 1 - g, 0);
        }
        second[3] = victim[page.index()].clone();
        let mut batch = IngestBatch::new();
        for _ in 0..1 + rng.below(6) {
            let (w, d) = (rng.below(3) as i64, rng.below(2) as i64);
            batch.push_insert(row(&second, w, d, rng.below(400) as f64 * 0.5));
        }
        for _ in 0..rng.below(4) {
            batch.push_delete(rows.swap_remove(rng.below(rows.len())));
        }
        let mut unseen = path(l, a, g, 9);
        unseen[3] = Value::str("A-first");
        batch.push_insert(row(&unseen, 2, 1, 3.5));
        let rel = Arc::new(base.apply(&batch).unwrap());
        // The oracle's rows: kept rows in order, then the inserts.
        let mut expected = Vec::new();
        let mut deletes: Vec<Vec<Value>> = batch.deletes().to_vec();
        for r in 0..base.len() {
            let cells = base.row(r);
            match deletes.iter().position(|d| *d == cells) {
                Some(i) => {
                    deletes.swap_remove(i);
                }
                None => expected.push(cells),
            }
        }
        expected.extend(batch.inserts().iter().cloned());
        let rebuilt = build(&expected);
        let before = counter_value(Counter::DenseDemotions);
        for predicate in predicates(&expected, &mut rng) {
            for group_by in &group_bys {
                let view = View::compute(
                    rel.clone(),
                    predicate.clone(),
                    group_by.clone(),
                    views,
                    &Exec::Serial,
                )
                .unwrap();
                let label = format!("seed {seed} moved: {predicate:?} by {group_by:?}");
                assert_exact_everywhere(&view, &rebuilt, &fleets, &label);
            }
        }
        if counter_value(Counter::DenseDemotions) > before {
            moved += 1;
        }
    }
    assert_eq!(moved, 6, "every moved page demotes some table");
}
