//! LMFAO-style baseline for the decomposed-aggregate batch (Figure 8).
//!
//! LMFAO is a state-of-the-art factorised batch aggregation engine, but (as
//! used in the paper's comparison) it computes the `COUNT` batch and the
//! gram-matrix `COF`s serially and does not exploit the independence between
//! hierarchies: cross-hierarchy `COF`s are materialised as real pair tables
//! and per-level counts are recomputed from scratch for every aggregate in
//! the batch rather than being reused bottom-up.
//!
//! This module reproduces that behaviour so the multi-query/work-sharing
//! speedup of [`EncodedAggregates::compute`](crate::EncodedAggregates::compute)
//! can be measured against it. It is also the exactness oracle of the
//! aggregates: both compute integer counts, so they agree `==`.

use crate::factorization::{Factorization, HierarchyFactor};
use reptile_relational::Value;
use std::collections::BTreeMap;

/// Fully materialised aggregate batch produced by the serial baseline.
#[derive(Debug, Clone)]
pub struct SerialAggregates {
    /// `TOTAL` per column.
    pub totals: Vec<f64>,
    /// `COUNT` per column.
    pub counts: Vec<BTreeMap<Value, f64>>,
    /// `COF` per column pair `(left, right)` with `left < right`, fully
    /// materialised even across hierarchies.
    pub cofs: BTreeMap<(usize, usize), BTreeMap<(Value, Value), f64>>,
}

/// Descendant-leaf counts of one level, recomputed from scratch (no reuse of
/// the level below).
fn scan_level(factor: &HierarchyFactor, level: usize) -> BTreeMap<Value, f64> {
    let mut map = BTreeMap::new();
    for path in &factor.paths {
        *map.entry(path[level].clone()).or_insert(0.0) += 1.0;
    }
    map
}

/// Same-hierarchy pair counts, recomputed from scratch.
fn scan_pair(factor: &HierarchyFactor, l1: usize, l2: usize) -> BTreeMap<(Value, Value), f64> {
    let mut map = BTreeMap::new();
    for path in &factor.paths {
        *map.entry((path[l1].clone(), path[l2].clone()))
            .or_insert(0.0) += 1.0;
    }
    map
}

/// Leaf-path count of one hierarchy, recomputed by scanning its paths.
fn scan_leaf_count(factor: &HierarchyFactor) -> f64 {
    factor.paths.len() as f64
}

/// Compute the full aggregate batch serially: every aggregate rescans the
/// relations it needs and cross-hierarchy `COF`s are materialised.
pub fn compute_serial(fact: &Factorization) -> SerialAggregates {
    let m = fact.n_cols();
    let mut totals = vec![0.0; m];
    let mut counts = vec![BTreeMap::new(); m];
    let mut cofs = BTreeMap::new();

    // TOTAL and COUNT, one scan per aggregate (no sharing between levels or
    // with the later-product computation).
    for c in 0..m {
        let pos = fact.position(c);
        let factor = &fact.hierarchies()[pos.hierarchy];
        let later: f64 = fact.hierarchies()[pos.hierarchy + 1..]
            .iter()
            .map(scan_leaf_count)
            .product();
        let level_counts = scan_level(factor, pos.level);
        totals[c] = scan_leaf_count(factor) * later;
        counts[c] = level_counts
            .into_iter()
            .map(|(v, cnt)| (v, cnt * later))
            .collect();
    }

    // COF for every ordered pair of columns, serially.
    for left in 0..m {
        for right in (left + 1)..m {
            let lp = fact.position(left);
            let rp = fact.position(right);
            let table: BTreeMap<(Value, Value), f64> = if lp.hierarchy == rp.hierarchy {
                let factor = &fact.hierarchies()[lp.hierarchy];
                let later: f64 = fact.hierarchies()[lp.hierarchy + 1..]
                    .iter()
                    .map(scan_leaf_count)
                    .product();
                scan_pair(factor, lp.level, rp.level)
                    .into_iter()
                    .map(|(k, c)| (k, c * later))
                    .collect()
            } else {
                // Materialise the cartesian pair table: this is the cost the
                // independence optimisation avoids.
                let left_factor = &fact.hierarchies()[lp.hierarchy];
                let right_factor = &fact.hierarchies()[rp.hierarchy];
                let later_right: f64 = fact.hierarchies()[rp.hierarchy + 1..]
                    .iter()
                    .map(scan_leaf_count)
                    .product();
                let left_counts = scan_level(left_factor, lp.level);
                let right_counts = scan_level(right_factor, rp.level);
                let mut table = BTreeMap::new();
                for (a, ca) in &left_counts {
                    for (b, cb) in &right_counts {
                        table.insert((a.clone(), b.clone()), ca * cb * later_right);
                    }
                }
                table
            };
            cofs.insert((left, right), table);
        }
    }

    SerialAggregates {
        totals,
        counts,
        cofs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoded::{EncodedAggregates, EncodedFactorization};
    use crate::factorization::HierarchyFactor;
    use reptile_relational::{AttrId, Exec};

    fn example() -> Factorization {
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
        Factorization::new(vec![time, geo])
    }

    #[test]
    fn serial_baseline_agrees_with_optimized_aggregates() {
        let fact = example();
        let serial = compute_serial(&fact);
        let enc = EncodedFactorization::encode(&fact);
        let optimized = EncodedAggregates::compute(&enc, &Exec::Serial);
        let code = |c: usize, v: &Value| enc.dict(c).code_of(v).expect("value in domain");
        let one_hot = |c: usize, v: &Value| {
            let mut f = vec![0.0; enc.dict(c).len()];
            f[code(c, v) as usize] = 1.0;
            f
        };
        for c in 0..fact.n_cols() {
            assert_eq!(serial.totals[c], optimized.total(c), "TOTAL col {c}");
            assert_eq!(serial.counts[c].len(), optimized.counts_raw(c).0.len());
            for (v, cnt) in &serial.counts[c] {
                assert_eq!(
                    *cnt,
                    optimized.count(c, code(c, v)),
                    "COUNT col {c} value {v}"
                );
            }
        }
        for ((left, right), table) in &serial.cofs {
            for ((a, b), cnt) in table {
                let got = optimized.cof_weighted_sum(
                    *left,
                    *right,
                    &one_hot(*left, a),
                    &one_hot(*right, b),
                );
                assert_eq!(got, *cnt, "COF ({left},{right}) [{a},{b}]");
            }
        }
    }

    #[test]
    fn cross_hierarchy_cofs_are_materialized_in_baseline() {
        let fact = example();
        let serial = compute_serial(&fact);
        // time x district pair table has 2 x 2 = 4 entries even though the
        // optimized engine never materialises it.
        assert_eq!(serial.cofs[&(0, 1)].len(), 4);
        // time x village: 2 x 3
        assert_eq!(serial.cofs[&(0, 2)].len(), 6);
        // district x village stays sparse (FD): 3 entries
        assert_eq!(serial.cofs[&(1, 2)].len(), 3);
    }
}
