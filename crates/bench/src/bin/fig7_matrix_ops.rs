//! Figure 7: runtimes of matrix materialisation, gram matrix, left and right
//! multiplication — factorised vs naive (LAPACK-style) — as the number of
//! hierarchies `d` grows (one attribute per hierarchy, cardinality 10).
//!
//! Run with: `cargo run -p reptile-bench --release --bin fig7_matrix_ops`

use reptile_bench::{fmt, print_table, time};
use reptile_datasets::hiergen::synthetic_factorization;
use reptile_factor::encoded::{self, EncodedAggregates, EncodedFactorization, EncodedFeatureMap};
use reptile_factor::{Exec, Parallelism};
use reptile_linalg::{naive, Matrix};

fn main() {
    let max_d_naive = 5; // the naive path materialises 10^d rows
    let max_d = 6;
    let mut rows = Vec::new();
    for d in 1..=max_d {
        let (fact, features) = synthetic_factorization(d, 1, 10);
        let enc = EncodedFactorization::encode(&fact);
        let aggs = EncodedAggregates::compute(&enc, &Exec::Serial);
        let enc_features = EncodedFeatureMap::encode(&features, &enc);
        let a = Matrix::from_fn(1, fact.n_rows(), |_, c| (c % 7) as f64 - 3.0);
        let b = Matrix::from_fn(fact.n_cols(), 1, |r, _| r as f64 + 0.5);

        let serial = Parallelism::serial();
        let (_, t_fact_gram) = time(|| encoded::gram(&aggs, &enc_features, &serial));
        let (_, t_fact_left) = time(|| encoded::left_mult(&a, &aggs, &enc_features));
        let (_, t_fact_right) = time(|| encoded::right_mult(&enc, &enc_features, &b));

        let (naive_times, t_mat) = if d <= max_d_naive {
            let (x, t_mat) = time(|| fact.materialize(&features));
            let (_, t_gram) = time(|| naive::gram(&x).unwrap());
            let (_, t_left) = time(|| naive::left_mult(&a, &x).unwrap());
            let (_, t_right) = time(|| naive::right_mult(&x, &b).unwrap());
            (Some((t_gram, t_left, t_right)), Some(t_mat))
        } else {
            (None, None)
        };
        rows.push(vec![
            d.to_string(),
            fact.n_rows().to_string(),
            t_mat.map(fmt).unwrap_or_else(|| "-".into()),
            naive_times.map(|t| fmt(t.0)).unwrap_or_else(|| "-".into()),
            fmt(t_fact_gram),
            naive_times.map(|t| fmt(t.1)).unwrap_or_else(|| "-".into()),
            fmt(t_fact_left),
            naive_times.map(|t| fmt(t.2)).unwrap_or_else(|| "-".into()),
            fmt(t_fact_right),
        ]);
    }
    print_table(
        "Figure 7: matrix operation runtimes (seconds)",
        &[
            "d",
            "rows",
            "materialize",
            "gram naive",
            "gram fact",
            "left naive",
            "left fact",
            "right naive",
            "right fact",
        ],
        &rows,
    );
    println!("\nExpected shape: materialisation and naive gram grow exponentially in d;");
    println!("the factorised gram stays (near) flat; left/right multiplication stay");
    println!("exponential (output size) but the factorised variants are faster.");
}
