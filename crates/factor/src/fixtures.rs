//! Factorisations shared by the crate's unit tests.

use crate::factorization::{Factorization, HierarchyFactor};
use crate::feature::FeatureMap;
use reptile_linalg::Matrix;
use reptile_relational::{AttrId, Value};

/// The paper's running example (Figure 4): time `{t1, t2}` × geo
/// `{(d1, v1), (d1, v2), (d2, v3)}`, 6 rows, with dyadic features.
pub(crate) fn paper_example() -> (Factorization, FeatureMap) {
    let time = HierarchyFactor::from_paths(
        "time",
        vec![AttrId(0)],
        vec![vec![Value::str("t1")], vec![Value::str("t2")]],
    );
    let geo = HierarchyFactor::from_paths(
        "geo",
        vec![AttrId(1), AttrId(2)],
        vec![
            vec![Value::str("d1"), Value::str("v1")],
            vec![Value::str("d1"), Value::str("v2")],
            vec![Value::str("d2"), Value::str("v3")],
        ],
    );
    let fact = Factorization::new(vec![time, geo]);
    let mut features = FeatureMap::zeros(3);
    features.set(0, Value::str("t1"), 1.5);
    features.set(0, Value::str("t2"), 3.0);
    features.set(1, Value::str("d1"), 4.0);
    features.set(1, Value::str("d2"), -1.0);
    features.set(2, Value::str("v1"), 1.25);
    features.set(2, Value::str("v2"), 0.25);
    features.set(2, Value::str("v3"), 5.0);
    (fact, features)
}

/// Three hierarchies of uneven fanout (5 × 3 × 3 rows): repetitions > 1,
/// multi-level hierarchies before and after a single-level one.
pub(crate) fn three_hierarchies() -> Factorization {
    let a = HierarchyFactor::from_paths(
        "a",
        vec![AttrId(0), AttrId(1)],
        vec![
            vec![Value::int(1), Value::int(11)],
            vec![Value::int(1), Value::int(12)],
            vec![Value::int(2), Value::int(21)],
            vec![Value::int(2), Value::int(22)],
            vec![Value::int(2), Value::int(23)],
        ],
    );
    let b = HierarchyFactor::from_paths(
        "b",
        vec![AttrId(2)],
        vec![
            vec![Value::int(100)],
            vec![Value::int(200)],
            vec![Value::int(300)],
        ],
    );
    let c = HierarchyFactor::from_paths(
        "c",
        vec![AttrId(3), AttrId(4)],
        vec![
            vec![Value::str("x"), Value::str("x1")],
            vec![Value::str("y"), Value::str("y1")],
            vec![Value::str("y"), Value::str("y2")],
        ],
    );
    Factorization::new(vec![a, b, c])
}

/// Seeded features in `[-2, 2)` for every value of every column.
pub(crate) fn random_features(fact: &Factorization, seed: u64) -> FeatureMap {
    let mut features = FeatureMap::zeros(fact.n_cols());
    let mut s = seed;
    for c in 0..fact.n_cols() {
        let pos = fact.position(c);
        for (v, _) in fact.hierarchies()[pos.hierarchy].level_runs(pos.level) {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            features.set(c, v, ((s >> 33) as f64 / u32::MAX as f64) * 4.0 - 2.0);
        }
    }
    features
}

/// Deterministic pseudo-random matrix with entries in `[-1, 1)`.
pub(crate) fn pseudo_random(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut s = seed;
    Matrix::from_fn(rows, cols, |_, _| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) as f64 / u32::MAX as f64) * 2.0 - 1.0
    })
}
