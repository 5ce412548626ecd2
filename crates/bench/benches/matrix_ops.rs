//! Benchmark behind Figure 7: factorised matrix operations vs the naive
//! (LAPACK-style) implementations over the materialised matrix, as the
//! number of hierarchies grows.

use reptile_bench::{print_bench_table, run_bench};
use reptile_datasets::hiergen::synthetic_factorization;
use reptile_factor::encoded::{self, EncodedAggregates, EncodedFactorization, EncodedFeatureMap};
use reptile_factor::{Exec, Parallelism};
use reptile_linalg::{naive, Matrix};

fn main() {
    let mut stats = Vec::new();
    for d in [2usize, 3, 4] {
        let (fact, features) = synthetic_factorization(d, 1, 10);
        let enc = EncodedFactorization::encode(&fact);
        let aggs = EncodedAggregates::compute(&enc, &Exec::Serial);
        let enc_features = EncodedFeatureMap::encode(&features, &enc);
        let x = fact.materialize(&features);
        let a = Matrix::from_fn(1, fact.n_rows(), |_, c| (c % 7) as f64 - 3.0);
        let b = Matrix::from_fn(fact.n_cols(), 1, |r, _| r as f64 + 0.5);

        stats.push(run_bench(&format!("materialize/naive/{d}"), || {
            fact.materialize(&features)
        }));
        stats.push(run_bench(&format!("gram/naive/{d}"), || {
            naive::gram(&x).unwrap()
        }));
        stats.push(run_bench(&format!("gram/factorized/{d}"), || {
            encoded::gram(&aggs, &enc_features, &Parallelism::serial())
        }));
        stats.push(run_bench(&format!("left_mult/naive/{d}"), || {
            naive::left_mult(&a, &x).unwrap()
        }));
        stats.push(run_bench(&format!("left_mult/factorized/{d}"), || {
            encoded::left_mult(&a, &aggs, &enc_features)
        }));
        stats.push(run_bench(&format!("right_mult/naive/{d}"), || {
            naive::right_mult(&x, &b).unwrap()
        }));
        stats.push(run_bench(&format!("right_mult/factorized/{d}"), || {
            encoded::right_mult(&enc, &enc_features, &b)
        }));
    }
    print_bench_table("fig7_matrix_ops", &stats);
}
