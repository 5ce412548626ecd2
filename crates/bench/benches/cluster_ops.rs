//! Benchmark behind Figure 15: per-cluster matrix operations vs the naive
//! per-cluster dense products.

use reptile_bench::{print_bench_table, run_bench};
use reptile_datasets::hiergen::synthetic_factorization;
use reptile_factor::{ClusterPartition, EncodedFactorization, EncodedFeatureMap, Parallelism};
use reptile_linalg::naive;

fn main() {
    let mut stats = Vec::new();
    for d in [2usize, 3, 4] {
        let (fact, features) = synthetic_factorization(d, 1, 10);
        let enc = EncodedFactorization::encode(&fact);
        let enc_features = EncodedFeatureMap::encode(&features, &enc);
        let part = ClusterPartition::from_encoded(&enc, &enc_features, 1, &Parallelism::serial());
        let x = fact.materialize(&features);
        let ranges = part.row_ranges();
        stats.push(run_bench(&format!("cluster_gram/naive/{d}"), || {
            naive::cluster_grams(&x, &ranges).unwrap()
        }));
        stats.push(run_bench(&format!("cluster_gram/factorized/{d}"), || {
            part.grams(&Parallelism::serial())
        }));
        let beta: Vec<f64> = (0..fact.n_cols()).map(|i| i as f64 * 0.1).collect();
        stats.push(run_bench(&format!("cluster_right/factorized/{d}"), || {
            part.right_mult_shared_vec(&beta, &Parallelism::serial())
        }));
        let v: Vec<f64> = (0..fact.n_rows()).map(|i| (i % 5) as f64).collect();
        stats.push(run_bench(&format!("cluster_left/factorized/{d}"), || {
            part.left_mult_global_vec(&v, &Parallelism::serial())
        }));
    }
    print_bench_table("fig15_cluster_ops", &stats);
}
