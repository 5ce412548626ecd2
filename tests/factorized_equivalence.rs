//! Cross-crate equivalence tests: the factorised operators must produce the
//! same numbers as the naive (materialised) implementations on randomly
//! generated hierarchical structures, and the factorised EM must match the
//! materialised EM. These are the correctness guarantees behind the paper's
//! performance claims (Figures 7, 10, 15).

use reptile_datasets::hiergen::synthetic_factorization_with_fanout;
use reptile_factor::encoded::{self, EncodedAggregates, EncodedFactorization, EncodedFeatureMap};
use reptile_factor::{ClusterPartition, Exec, Factorization, FeatureMap, Parallelism};
use reptile_linalg::{naive, Matrix};

/// The encoded factorisation, its aggregates and the baked features.
fn encode(
    fact: &Factorization,
    features: &FeatureMap,
) -> (EncodedFactorization, EncodedAggregates, EncodedFeatureMap) {
    let enc = EncodedFactorization::encode(fact);
    let aggs = EncodedAggregates::compute(&enc, &Exec::Serial);
    let enc_features = EncodedFeatureMap::encode(features, &enc);
    (enc, aggs, enc_features)
}

fn pseudo_random(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut s = seed;
    Matrix::from_fn(rows, cols, |_, _| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) as f64 / u32::MAX as f64) * 2.0 - 1.0
    })
}

#[test]
fn factorized_operators_match_naive_across_shapes() {
    for (d, t, w, fanout) in [(1, 3, 8, 2), (2, 2, 6, 1), (3, 1, 5, 1), (2, 3, 8, 2)] {
        let (fact, features) = synthetic_factorization_with_fanout(d, t, w, fanout);
        let (enc, aggs, enc_features) = encode(&fact, &features);
        let x = fact.materialize(&features);

        let gram = encoded::gram(&aggs, &enc_features, &Parallelism::serial());
        let expected = naive::gram(&x).unwrap();
        assert!(
            gram.max_abs_diff(&expected) < 1e-7,
            "gram mismatch for shape d={d} t={t} w={w}"
        );

        let a = pseudo_random(3, fact.n_rows(), 7 + d as u64);
        let lm = encoded::left_mult(&a, &aggs, &enc_features);
        assert!(lm.max_abs_diff(&naive::left_mult(&a, &x).unwrap()) < 1e-7);

        let b = pseudo_random(fact.n_cols(), 2, 11 + t as u64);
        let rm = encoded::right_mult(&enc, &enc_features, &b);
        assert!(rm.max_abs_diff(&naive::right_mult(&x, &b).unwrap()) < 1e-7);
    }
}

#[test]
fn cluster_operators_match_naive_across_shapes() {
    for (d, t, w, fanout) in [(2, 2, 6, 2), (3, 1, 4, 1), (2, 3, 8, 2)] {
        let (fact, features) = synthetic_factorization_with_fanout(d, t, w, fanout);
        let (enc, _, enc_features) = encode(&fact, &features);
        let part = ClusterPartition::from_encoded(&enc, &enc_features, 1, &Parallelism::serial());
        let x = fact.materialize(&features);
        let ranges = part.row_ranges();

        let grams = part.grams(&Parallelism::serial());
        let expected = naive::cluster_grams(&x, &ranges).unwrap();
        for (g, e) in grams.iter().zip(&expected) {
            assert!(g.max_abs_diff(e) < 1e-7);
        }

        let betas: Vec<Vec<f64>> = (0..part.len())
            .map(|i| {
                (0..fact.n_cols())
                    .map(|j| ((i + j) % 5) as f64 - 2.0)
                    .collect()
            })
            .collect();
        let concat = part.right_mult_per_cluster_vec(&betas, &Parallelism::serial());
        let mut idx = 0usize;
        for (c, beta) in ranges.iter().zip(&betas) {
            let block = x.row_block(c.0, c.1);
            let exp = block.matmul(&Matrix::column_vector(beta)).unwrap();
            for r in 0..c.1 {
                assert!((concat[idx] - exp.get(r, 0)).abs() < 1e-7);
                idx += 1;
            }
        }

        let v: Vec<f64> = (0..fact.n_rows()).map(|i| (i % 7) as f64 - 3.0).collect();
        let per_cluster = part.left_mult_global_vec(&v, &Parallelism::serial());
        for ((start, len), res) in ranges.iter().zip(&per_cluster) {
            let block = x.row_block(*start, *len);
            let exp = Matrix::row_vector(&v[*start..*start + *len])
                .matmul(&block)
                .unwrap();
            for (j, r) in res.iter().enumerate() {
                assert!((r - exp.get(0, j)).abs() < 1e-7);
            }
        }
    }
}

#[test]
fn decomposed_aggregates_match_brute_force_on_tree_hierarchies() {
    let (fact, features) = synthetic_factorization_with_fanout(2, 3, 8, 2);
    let (enc, aggs, _) = encode(&fact, &features);
    let rows = fact.materialize_values();
    for p in 0..fact.n_cols() {
        let mut suffixes: Vec<Vec<reptile_relational::Value>> =
            rows.iter().map(|r| r[p..].to_vec()).collect();
        suffixes.sort();
        suffixes.dedup();
        assert_eq!(aggs.total(p), suffixes.len() as f64);
        let mut counts: std::collections::BTreeMap<reptile_relational::Value, f64> =
            std::collections::BTreeMap::new();
        for s in &suffixes {
            *counts.entry(s[0].clone()).or_insert(0.0) += 1.0;
        }
        for (v, c) in counts {
            assert_eq!(aggs.count(p, enc.dict(p).code_of(&v).unwrap()), c);
        }
    }
}
