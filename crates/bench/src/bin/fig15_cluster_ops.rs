//! Figure 15 (Appendix F): per-cluster matrix operations vs the naive dense
//! per-cluster products as the number of hierarchies grows.
//!
//! Run with: `cargo run -p reptile-bench --release --bin fig15_cluster_ops`

use reptile_bench::{fmt, print_table, time};
use reptile_datasets::hiergen::synthetic_factorization;
use reptile_factor::{ClusterPartition, EncodedFactorization, EncodedFeatureMap, Parallelism};
use reptile_linalg::{naive, Matrix};

fn main() {
    let mut rows = Vec::new();
    for d in 1..=5usize {
        let (fact, features) = synthetic_factorization(d, 1, 10);
        let enc = EncodedFactorization::encode(&fact);
        let enc_features = EncodedFeatureMap::encode(&features, &enc);
        let part = ClusterPartition::from_encoded(&enc, &enc_features, 1, &Parallelism::serial());
        let ranges = part.row_ranges();
        let (_, t_fact_gram) = time(|| part.grams(&Parallelism::serial()));
        let beta: Vec<f64> = (0..fact.n_cols()).map(|i| i as f64 * 0.1 + 1.0).collect();
        let (_, t_fact_right) = time(|| part.right_mult_shared_vec(&beta, &Parallelism::serial()));
        let v: Vec<f64> = (0..fact.n_rows()).map(|i| (i % 9) as f64 - 4.0).collect();
        let (_, t_fact_left) = time(|| part.left_mult_global_vec(&v, &Parallelism::serial()));

        let (t_naive_gram, t_naive_right, t_naive_left) = if d <= 4 {
            let x = fact.materialize(&features);
            let (_, tg) = time(|| naive::cluster_grams(&x, &ranges).unwrap());
            let a: Vec<Matrix> = (0..part.len())
                .map(|_| Matrix::column_vector(&beta))
                .collect();
            let (_, tr) = time(|| naive::cluster_right_mult(&x, &a, &ranges).unwrap());
            let dvec: Vec<Matrix> = ranges
                .iter()
                .map(|&(s, l)| Matrix::row_vector(&v[s..s + l]))
                .collect();
            let (_, tl) = time(|| naive::cluster_left_mult(&dvec, &x, &ranges).unwrap());
            (Some(tg), Some(tr), Some(tl))
        } else {
            (None, None, None)
        };
        let opt = |t: Option<f64>| t.map(fmt).unwrap_or_else(|| "-".into());
        rows.push(vec![
            d.to_string(),
            part.len().to_string(),
            opt(t_naive_gram),
            fmt(t_fact_gram),
            opt(t_naive_left),
            fmt(t_fact_left),
            opt(t_naive_right),
            fmt(t_fact_right),
        ]);
    }
    print_table(
        "Figure 15: per-cluster matrix operations (seconds)",
        &[
            "d",
            "clusters",
            "gram naive",
            "gram fact",
            "left naive",
            "left fact",
            "right naive",
            "right fact",
        ],
        &rows,
    );
    println!("\nExpected shape: the factorised per-cluster operators beat the dense");
    println!("per-cluster products, with the gap growing with the number of hierarchies");
    println!("(the paper reports 3x / 5.8x / 6.9x at 7 hierarchies).");
}
