use crate::encoded::{
    gram, left_mult, right_mult, transpose_vec_mult, EncodedAggregates, EncodedFactorization,
    EncodedFeatureMap,
};
use crate::factorization::{Factorization, HierarchyFactor};
use crate::feature::FeatureMap;
use crate::fixtures::pseudo_random;
use crate::parallel::Parallelism;
use reptile_linalg::{naive, Matrix};
use reptile_relational::{AttrId, Exec, Value};

/// The paper example with features offset by 1 (`with_numbers`) or not, so
/// that some features are zero-valued.
fn example(with_numbers: bool) -> (Factorization, FeatureMap) {
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
    let base = if with_numbers { 1.0 } else { 0.0 };
    features.set(0, Value::str("t1"), base + 0.5);
    features.set(0, Value::str("t2"), base + 2.0);
    features.set(1, Value::str("d1"), base + 3.0);
    features.set(1, Value::str("d2"), base - 1.0);
    features.set(2, Value::str("v1"), base + 0.25);
    features.set(2, Value::str("v2"), base - 0.75);
    features.set(2, Value::str("v3"), base + 4.0);
    (fact, features)
}

/// The encoded operands of `fact` and `features`.
fn encode(
    fact: &Factorization,
    features: &FeatureMap,
) -> (EncodedFactorization, EncodedAggregates, EncodedFeatureMap) {
    let enc = EncodedFactorization::encode(fact);
    let aggs = EncodedAggregates::compute(&enc, &Exec::Serial);
    let enc_features = EncodedFeatureMap::encode(features, &enc);
    (enc, aggs, enc_features)
}

#[test]
fn gram_matches_naive() {
    let (fact, features) = example(true);
    let (_, aggs, enc_features) = encode(&fact, &features);
    let x = fact.materialize(&features);
    let expected = naive::gram(&x).unwrap();
    let got = gram(&aggs, &enc_features, &Parallelism::serial());
    assert!(
        got.max_abs_diff(&expected) < 1e-9,
        "{got:?} vs {expected:?}"
    );
}

#[test]
fn left_mult_matches_naive() {
    let (fact, features) = example(true);
    let (_, aggs, enc_features) = encode(&fact, &features);
    let x = fact.materialize(&features);
    let a = pseudo_random(4, fact.n_rows(), 7);
    let expected = naive::left_mult(&a, &x).unwrap();
    let got = left_mult(&a, &aggs, &enc_features);
    assert!(got.max_abs_diff(&expected) < 1e-9);
}

#[test]
fn right_mult_matches_naive() {
    let (fact, features) = example(true);
    let (enc, _, enc_features) = encode(&fact, &features);
    let x = fact.materialize(&features);
    let a = pseudo_random(fact.n_cols(), 3, 99);
    let expected = naive::right_mult(&x, &a).unwrap();
    let got = right_mult(&enc, &enc_features, &a);
    assert!(got.max_abs_diff(&expected) < 1e-9);
}

#[test]
fn transpose_vec_mult_matches_naive() {
    let (fact, features) = example(true);
    let (_, aggs, enc_features) = encode(&fact, &features);
    let x = fact.materialize(&features);
    let v: Vec<f64> = (0..fact.n_rows()).map(|i| (i as f64) * 0.5 - 1.0).collect();
    let expected = x.transpose().matmul(&Matrix::column_vector(&v)).unwrap();
    let got = transpose_vec_mult(&v, &aggs, &enc_features, &Parallelism::serial());
    for (i, g) in got.iter().enumerate() {
        assert!((g - expected.get(i, 0)).abs() < 1e-9, "Xᵀv[{i}]");
    }
}

#[test]
fn zero_features_give_zero_products() {
    // Some features are zero valued; the products still match naive.
    let (fact, features) = example(false);
    let (enc, aggs, enc_features) = encode(&fact, &features);
    let x = fact.materialize(&features);
    let got = gram(&aggs, &enc_features, &Parallelism::serial());
    assert!(got.max_abs_diff(&naive::gram(&x).unwrap()) < 1e-9);
    let b = pseudo_random(fact.n_cols(), 2, 17);
    let rm = right_mult(&enc, &enc_features, &b);
    assert!(rm.max_abs_diff(&naive::right_mult(&x, &b).unwrap()) < 1e-9);
}

#[test]
#[should_panic(expected = "left operand")]
fn left_mult_shape_checked() {
    let (fact, features) = example(true);
    let (_, aggs, enc_features) = encode(&fact, &features);
    let a = Matrix::zeros(1, fact.n_rows() + 1);
    let _ = left_mult(&a, &aggs, &enc_features);
}

#[test]
#[should_panic(expected = "right operand")]
fn right_mult_shape_checked() {
    let (fact, features) = example(true);
    let (enc, _, enc_features) = encode(&fact, &features);
    let a = Matrix::zeros(fact.n_cols() + 2, 1);
    let _ = right_mult(&enc, &enc_features, &a);
}

#[test]
fn larger_random_hierarchies_match_naive() {
    // Three hierarchies with uneven fanout; checks the operators on a
    // shape that exercises repetitions > 1 and multi-level hierarchies.
    let h1 = HierarchyFactor::from_paths(
        "h1",
        vec![AttrId(0), AttrId(1)],
        vec![
            vec![Value::int(1), Value::int(11)],
            vec![Value::int(1), Value::int(12)],
            vec![Value::int(2), Value::int(21)],
        ],
    );
    let h2 = HierarchyFactor::from_paths(
        "h2",
        vec![AttrId(2)],
        vec![
            vec![Value::int(5)],
            vec![Value::int(6)],
            vec![Value::int(7)],
            vec![Value::int(8)],
        ],
    );
    let h3 = HierarchyFactor::from_paths(
        "h3",
        vec![AttrId(3), AttrId(4)],
        vec![
            vec![Value::str("a"), Value::str("a1")],
            vec![Value::str("a"), Value::str("a2")],
            vec![Value::str("b"), Value::str("b1")],
        ],
    );
    let fact = Factorization::new(vec![h1, h2, h3]);
    let features = crate::fixtures::random_features(&fact, 5);
    let (enc, aggs, enc_features) = encode(&fact, &features);
    let x = fact.materialize(&features);

    let g = gram(&aggs, &enc_features, &Parallelism::serial());
    assert!(g.max_abs_diff(&naive::gram(&x).unwrap()) < 1e-8);

    let a = pseudo_random(2, fact.n_rows(), 3);
    let lm = left_mult(&a, &aggs, &enc_features);
    assert!(lm.max_abs_diff(&naive::left_mult(&a, &x).unwrap()) < 1e-8);

    let b = pseudo_random(fact.n_cols(), 2, 11);
    let rm = right_mult(&enc, &enc_features, &b);
    assert!(rm.max_abs_diff(&naive::right_mult(&x, &b).unwrap()) < 1e-8);
}
