use crate::encoded::{EncodedAggregates, EncodedCofPairs, EncodedFactorization};
use crate::factorization::Factorization;
use crate::fixtures::{paper_example, three_hierarchies};
use reptile_relational::{Exec, Value};
use std::collections::BTreeMap;

/// `TOTAL` / `COUNT` / `COF` by brute force over the materialised value
/// rows, compared exactly (every quantity is an integer count).
fn brute_force_check(fact: &Factorization) {
    let enc = EncodedFactorization::encode(fact);
    let aggs = EncodedAggregates::compute(&enc, &Exec::Serial);
    let rows = fact.materialize_values();
    let m = fact.n_cols();
    let one_hot = |c: usize, v: &Value| {
        let mut f = vec![0.0; enc.dict(c).len()];
        f[enc.dict(c).code_of(v).expect("value in domain") as usize] = 1.0;
        f
    };
    for p in 0..m {
        // TOTAL_p: distinct suffixes from p onward.
        let mut suffixes: Vec<Vec<Value>> = rows.iter().map(|r| r[p..].to_vec()).collect();
        suffixes.sort();
        suffixes.dedup();
        assert_eq!(aggs.total(p), suffixes.len() as f64, "TOTAL col {p}");
        assert_eq!(
            aggs.repetitions(p),
            rows.len() as f64 / suffixes.len() as f64,
            "repetitions col {p}"
        );
        // COUNT_p[v]
        let mut counts: BTreeMap<Value, f64> = BTreeMap::new();
        for s in &suffixes {
            *counts.entry(s[0].clone()).or_insert(0.0) += 1.0;
        }
        for (v, c) in &counts {
            let code = enc.dict(p).code_of(v).unwrap();
            assert_eq!(aggs.count(p, code), *c, "COUNT col {p} value {v}");
        }
        assert_eq!(aggs.counts_raw(p).0.len(), counts.len());
        let (runs, scale) = aggs.block_runs_raw(p);
        let run_total: f64 = runs.iter().map(|(_, c)| c * scale).sum();
        assert_eq!(run_total, suffixes.len() as f64);
        // COF_(p,q)
        for q in (p + 1)..m {
            let mut cof: BTreeMap<(Value, Value), f64> = BTreeMap::new();
            for s in &suffixes {
                *cof.entry((s[0].clone(), s[q - p].clone())).or_insert(0.0) += 1.0;
            }
            for ((a, b), c) in &cof {
                let sum = aggs.cof_weighted_sum(p, q, &one_hot(p, a), &one_hot(q, b));
                assert_eq!(sum, *c, "COF ({p},{q}) [{a},{b}]");
            }
        }
    }
    assert_eq!(aggs.grand_total(), rows.len() as f64);
}

fn paper_aggregates() -> (EncodedFactorization, EncodedAggregates) {
    let enc = EncodedFactorization::encode(&paper_example().0);
    let aggs = EncodedAggregates::compute(&enc, &Exec::Serial);
    (enc, aggs)
}

#[test]
fn paper_example_matches_brute_force() {
    brute_force_check(&paper_example().0);
}

#[test]
fn three_hierarchies_match_brute_force() {
    brute_force_check(&three_hierarchies());
}

#[test]
fn paper_figure4_counts() {
    // Figure 4 of the paper: with order (T, D, V),
    // TOTAL_T = 6 (all rows), TOTAL_D = TOTAL_V = 3 (geo suffixes).
    let (enc, aggs) = paper_aggregates();
    let code = |c: usize, v: &str| enc.dict(c).code_of(&Value::str(v)).unwrap();
    assert_eq!(aggs.grand_total(), 6.0);
    assert_eq!(aggs.total(0), 6.0);
    assert_eq!(aggs.total(1), 3.0);
    assert_eq!(aggs.total(2), 3.0);
    assert_eq!(aggs.count(0, code(0, "t1")), 3.0);
    assert_eq!(aggs.count(1, code(1, "d1")), 2.0);
    assert_eq!(aggs.count(1, code(1, "d2")), 1.0);
    assert_eq!(aggs.count(2, code(2, "v2")), 1.0);
    // A code outside the dictionary counts zero.
    assert_eq!(aggs.count(1, enc.dict(1).len() as u32), 0.0);
    assert_eq!(aggs.repetitions(1), 2.0);
    assert_eq!(aggs.repetitions(0), 1.0);
}

#[test]
fn independent_cof_is_not_materialized() {
    let (_, aggs) = paper_aggregates();
    match aggs.cof(0, 1) {
        EncodedCofPairs::Independent { scale, .. } => assert_eq!(scale, 1.0),
        _ => panic!("cross-hierarchy COF should be independent"),
    }
    match aggs.cof(1, 2) {
        EncodedCofPairs::Materialized { entries, .. } => assert_eq!(entries.len(), 3),
        _ => panic!("same-hierarchy COF should be materialized"),
    }
}

#[test]
#[should_panic(expected = "left < right")]
fn cof_requires_ordered_columns() {
    let (_, aggs) = paper_aggregates();
    let _ = aggs.cof(2, 1);
}
