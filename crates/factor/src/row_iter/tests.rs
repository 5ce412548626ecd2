use crate::encoded::{EncodedFactorization, EncodedRowDelta, EncodedRowIter};
use crate::factorization::{Factorization, HierarchyFactor};
use crate::fixtures::{paper_example, three_hierarchies};
use reptile_relational::{AttrId, Value};

/// The `(column, value)` changes of `delta`, decoded through the
/// dictionaries.
fn decoded(enc: &EncodedFactorization, delta: &EncodedRowDelta) -> Vec<(usize, Value)> {
    delta
        .changes
        .iter()
        .map(|&(c, code)| (c, enc.dict(c).value(code).clone()))
        .collect()
}

/// Reconstruct all rows from deltas and compare with direct
/// materialisation — the defining property of the iterator.
#[test]
fn deltas_reconstruct_materialized_rows() {
    for fact in [paper_example().0, three_hierarchies()] {
        let enc = EncodedFactorization::encode(&fact);
        let expected = fact.materialize_values();
        let mut current: Vec<Option<Value>> = vec![None; fact.n_cols()];
        let mut seen = 0usize;
        for delta in EncodedRowIter::new(&enc) {
            for (col, v) in decoded(&enc, &delta) {
                current[col] = Some(v);
            }
            let row: Vec<Value> = current.iter().map(|v| v.clone().unwrap()).collect();
            assert_eq!(row, expected[delta.row], "row {}", delta.row);
            seen += 1;
        }
        assert_eq!(seen, fact.n_rows());
    }
}

#[test]
fn adjacent_rows_change_few_columns() {
    let enc = EncodedFactorization::encode(&paper_example().0);
    let deltas: Vec<EncodedRowDelta> = EncodedRowIter::new(&enc).collect();
    // Row 1 differs from row 0 only in the village column (v1 -> v2).
    assert_eq!(decoded(&enc, &deltas[1]), vec![(2, Value::str("v2"))]);
    // Row 2 changes district and village.
    assert_eq!(
        decoded(&enc, &deltas[2]),
        vec![(1, Value::str("d2")), (2, Value::str("v3"))]
    );
    // Row 3 wraps the geo hierarchy and advances time.
    assert_eq!(
        decoded(&enc, &deltas[3]),
        vec![
            (0, Value::str("t2")),
            (1, Value::str("d1")),
            (2, Value::str("v1"))
        ]
    );
}

#[test]
fn single_hierarchy_iteration() {
    let single =
        EncodedFactorization::encode(&Factorization::new(vec![HierarchyFactor::from_paths(
            "only",
            vec![AttrId(0)],
            vec![
                vec![Value::int(1)],
                vec![Value::int(2)],
                vec![Value::int(3)],
            ],
        )]));
    let deltas: Vec<EncodedRowDelta> = EncodedRowIter::new(&single).collect();
    assert_eq!(deltas.len(), 3);
    assert_eq!(decoded(&single, &deltas[0]), vec![(0, Value::int(1))]);
    assert_eq!(decoded(&single, &deltas[2]), vec![(0, Value::int(3))]);
}

#[test]
fn empty_factorization_yields_nothing() {
    let empty =
        EncodedFactorization::encode(&Factorization::new(vec![HierarchyFactor::from_paths(
            "empty",
            vec![AttrId(0)],
            Vec::new(),
        )]));
    assert_eq!(EncodedRowIter::new(&empty).count(), 0);
}
