//! The factorised attribute matrix.
//!
//! A [`Factorization`] is the f-representation of the conceptual attribute
//! matrix whose rows are the cartesian product, across hierarchies, of each
//! hierarchy's (root, ..., leaf) paths. Because attributes within a hierarchy
//! are functionally dependent and attributes across hierarchies are
//! independent, this representation is linear in the data while the
//! materialised matrix is exponential in the number of hierarchies.
//!
//! The hierarchy that is currently being drilled down must be ordered last
//! (Section 3.4) so that the rows belonging to one cluster (one combination
//! of the already-grouped attributes) are vertically adjacent.

use reptile_linalg::Matrix;
use reptile_relational::{AttrId, Hierarchy, Relation, Value};
use std::collections::BTreeMap;

use crate::feature::FeatureMap;

/// Where an attribute lives inside a [`Factorization`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrPosition {
    /// Index of the hierarchy in hierarchy order.
    pub hierarchy: usize,
    /// Level within the hierarchy (0 = least specific).
    pub level: usize,
    /// Global column position in the attribute order.
    pub column: usize,
}

/// One hierarchy's contribution to the factorised matrix: its sorted
/// (root..leaf) paths plus per-level indexes.
#[derive(Debug, Clone)]
pub struct HierarchyFactor {
    /// Name of the hierarchy (for diagnostics).
    pub name: String,
    /// Attribute ids of the levels included, least specific first. When a
    /// hierarchy has not been fully drilled down only a prefix of its levels
    /// is included.
    pub attrs: Vec<AttrId>,
    /// Sorted distinct paths `(root value, ..., leaf value)`.
    pub paths: Vec<Vec<Value>>,
    /// Per level: value -> contiguous `[start, end)` range of paths carrying
    /// that value at the level. Contiguity follows from the functional
    /// dependency (a level value determines all its ancestors) and the
    /// lexicographic path ordering.
    pub ranges: Vec<BTreeMap<Value, (usize, usize)>>,
}

impl HierarchyFactor {
    /// Build a hierarchy factor from explicit paths (used by synthetic
    /// workload generators). Paths are sorted and de-duplicated.
    pub fn from_paths(
        name: impl Into<String>,
        attrs: Vec<AttrId>,
        mut paths: Vec<Vec<Value>>,
    ) -> Self {
        paths.sort();
        paths.dedup();
        let ranges = Self::build_ranges(&attrs, &paths);
        HierarchyFactor {
            name: name.into(),
            attrs,
            paths,
            ranges,
        }
    }

    /// Build from the distinct level tuples present in a relation, truncated
    /// to the first `depth` levels of `hierarchy`.
    pub fn from_relation(relation: &Relation, hierarchy: &Hierarchy, depth: usize) -> Self {
        let depth = depth.min(hierarchy.levels.len()).max(1);
        let attrs: Vec<AttrId> = hierarchy.levels[..depth].to_vec();
        let mut paths: Vec<Vec<Value>> = (0..relation.len())
            .map(|row| {
                attrs
                    .iter()
                    .map(|a| relation.value(row, *a).clone())
                    .collect()
            })
            .collect();
        paths.sort();
        paths.dedup();
        let ranges = Self::build_ranges(&attrs, &paths);
        HierarchyFactor {
            name: hierarchy.name.clone(),
            attrs,
            paths,
            ranges,
        }
    }

    fn build_ranges(
        attrs: &[AttrId],
        paths: &[Vec<Value>],
    ) -> Vec<BTreeMap<Value, (usize, usize)>> {
        let mut ranges = vec![BTreeMap::new(); attrs.len()];
        for (level, map) in ranges.iter_mut().enumerate() {
            let mut i = 0usize;
            while i < paths.len() {
                let v = paths[i][level].clone();
                let start = i;
                while i < paths.len() && paths[i][level] == v {
                    i += 1;
                }
                // A value may appear in several separated runs only if the FD
                // is violated; `from_relation` callers validate FDs upstream,
                // and for robustness we merge by extending the end.
                map.entry(v)
                    .and_modify(|r: &mut (usize, usize)| r.1 = i)
                    .or_insert((start, i));
            }
        }
        ranges
    }

    /// Number of levels present.
    pub fn depth(&self) -> usize {
        self.attrs.len()
    }

    /// Number of distinct leaf paths.
    pub fn leaf_count(&self) -> usize {
        self.paths.len()
    }

    /// Number of distinct values at `level`.
    pub fn cardinality(&self, level: usize) -> usize {
        self.ranges[level].len()
    }

    /// Number of leaf paths below value `v` of `level` (the `COUNT` building
    /// block before cross-hierarchy scaling).
    pub fn descendant_leaves(&self, level: usize, v: &Value) -> usize {
        self.ranges[level].get(v).map(|(s, e)| e - s).unwrap_or(0)
    }

    /// The values of `level` in *path order* together with their descendant
    /// leaf counts; this is the run structure used by the factorised left
    /// multiplication.
    pub fn level_runs(&self, level: usize) -> Vec<(Value, usize)> {
        let mut runs = Vec::new();
        let mut i = 0usize;
        while i < self.paths.len() {
            let v = self.paths[i][level].clone();
            let start = i;
            while i < self.paths.len() && self.paths[i][level] == v {
                i += 1;
            }
            runs.push((v, i - start));
        }
        runs
    }
}

/// The factorised attribute matrix: an ordered list of hierarchy factors.
#[derive(Debug, Clone)]
pub struct Factorization {
    hierarchies: Vec<HierarchyFactor>,
    /// column offset of each hierarchy in the global attribute order
    offsets: Vec<usize>,
    columns: usize,
}

impl Factorization {
    /// Assemble a factorisation from hierarchy factors. The drill-down
    /// hierarchy must be placed last by the caller.
    pub fn new(hierarchies: Vec<HierarchyFactor>) -> Self {
        let mut offsets = Vec::with_capacity(hierarchies.len());
        let mut columns = 0usize;
        for h in &hierarchies {
            offsets.push(columns);
            columns += h.depth();
        }
        Factorization {
            hierarchies,
            offsets,
            columns,
        }
    }

    /// Build directly from a relation given `(hierarchy, depth)` pairs; the
    /// last pair is treated as the drill-down hierarchy.
    pub fn from_relation(relation: &Relation, specs: &[(&Hierarchy, usize)]) -> Self {
        let hierarchies = specs
            .iter()
            .map(|(h, depth)| HierarchyFactor::from_relation(relation, h, *depth))
            .collect();
        Factorization::new(hierarchies)
    }

    /// The hierarchy factors in order.
    pub fn hierarchies(&self) -> &[HierarchyFactor] {
        &self.hierarchies
    }

    /// Number of columns (attributes) of the conceptual matrix.
    pub fn n_cols(&self) -> usize {
        self.columns
    }

    /// Number of rows of the conceptual matrix (product of leaf counts).
    pub fn n_rows(&self) -> usize {
        self.hierarchies
            .iter()
            .map(HierarchyFactor::leaf_count)
            .product()
    }

    /// Map a global column index to its `(hierarchy, level)` position.
    pub fn position(&self, column: usize) -> AttrPosition {
        for (h, offset) in self.offsets.iter().enumerate() {
            let depth = self.hierarchies[h].depth();
            if column < offset + depth {
                return AttrPosition {
                    hierarchy: h,
                    level: column - offset,
                    column,
                };
            }
        }
        panic!(
            "column {column} out of range for factorization with {} columns",
            self.columns
        );
    }

    /// Global column index of `(hierarchy, level)`.
    pub fn column_of(&self, hierarchy: usize, level: usize) -> usize {
        self.offsets[hierarchy] + level
    }

    /// Attribute ids in global column order.
    pub fn attr_order(&self) -> Vec<AttrId> {
        self.hierarchies
            .iter()
            .flat_map(|h| h.attrs.iter().copied())
            .collect()
    }

    /// Materialise the full attribute matrix as rows of values. Exponential —
    /// only for tests and the naive baselines.
    pub fn materialize_values(&self) -> Vec<Vec<Value>> {
        (0..self.n_rows())
            .map(|row| {
                let indices = self.row_to_path_indices(row);
                self.hierarchies
                    .iter()
                    .zip(indices)
                    .flat_map(|(factor, idx)| factor.paths[idx].iter().cloned())
                    .collect()
            })
            .collect()
    }

    /// Materialise the full *feature* matrix by mapping each attribute value
    /// through `features`. Exponential — used by the naive (Matlab-style)
    /// baselines and by correctness tests.
    pub fn materialize(&self, features: &FeatureMap) -> Matrix {
        let n = self.n_rows();
        let m = self.n_cols();
        let mut out = Matrix::zeros(n, m);
        let leaf_product = |hierarchies: &[HierarchyFactor]| -> usize {
            hierarchies
                .iter()
                .map(HierarchyFactor::leaf_count)
                .product()
        };
        for c in 0..m {
            let pos = self.position(c);
            let factor = &self.hierarchies[pos.hierarchy];
            // The block pattern repeats once per path combination of the
            // earlier hierarchies; each path repeats once per combination of
            // the later ones.
            let repeat_outer = leaf_product(&self.hierarchies[..pos.hierarchy]);
            let repeat_inner = leaf_product(&self.hierarchies[pos.hierarchy + 1..]);
            let mut row = 0usize;
            for _ in 0..repeat_outer {
                for path in &factor.paths {
                    let fv = features.value(c, &path[pos.level]);
                    for _ in 0..repeat_inner {
                        out.set(row, c, fv);
                        row += 1;
                    }
                }
            }
            debug_assert_eq!(row, n);
        }
        out
    }

    /// Find the index of a path inside `hierarchy`'s sorted path table.
    pub fn path_index_of(&self, hierarchy: usize, path: &[Value]) -> Option<usize> {
        self.hierarchies[hierarchy]
            .paths
            .binary_search_by(|p| p.as_slice().cmp(path))
            .ok()
    }

    /// Map a full attribute-value tuple (in global column order) to its
    /// conceptual row index, if every per-hierarchy path exists.
    pub fn row_index_of(&self, values: &[Value]) -> Option<usize> {
        if values.len() != self.n_cols() {
            return None;
        }
        let mut indices = Vec::with_capacity(self.hierarchies.len());
        for (h, factor) in self.hierarchies.iter().enumerate() {
            let offset = self.offsets[h];
            let path = &values[offset..offset + factor.depth()];
            indices.push(self.path_index_of(h, path)?);
        }
        Some(self.path_indices_to_row(&indices))
    }

    /// Decompose a row index into per-hierarchy path indices (last hierarchy
    /// varies fastest).
    pub fn row_to_path_indices(&self, row: usize) -> Vec<usize> {
        let mut idx = vec![0usize; self.hierarchies.len()];
        let mut remainder = row;
        for (h, factor) in self.hierarchies.iter().enumerate().rev() {
            idx[h] = remainder % factor.leaf_count();
            remainder /= factor.leaf_count();
        }
        idx
    }

    /// Compose per-hierarchy path indices back into a row index.
    pub fn path_indices_to_row(&self, indices: &[usize]) -> usize {
        let mut row = 0usize;
        for (h, factor) in self.hierarchies.iter().enumerate() {
            row = row * factor.leaf_count() + indices[h];
        }
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reptile_relational::Schema;
    use std::sync::Arc;

    /// The running example of the paper (Figure 3): Time hierarchy {t1, t2}
    /// and Geo hierarchy with districts {d1: [v1, v2], d2: [v3]}.
    pub fn paper_example() -> Factorization {
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
    fn shapes_match_cartesian_product() {
        let f = paper_example();
        assert_eq!(f.n_cols(), 3);
        assert_eq!(f.n_rows(), 6);
        assert_eq!(f.attr_order(), vec![AttrId(0), AttrId(1), AttrId(2)]);
    }

    #[test]
    fn positions_round_trip() {
        let f = paper_example();
        let p = f.position(2);
        assert_eq!(p.hierarchy, 1);
        assert_eq!(p.level, 1);
        assert_eq!(f.column_of(1, 1), 2);
        assert_eq!(f.column_of(0, 0), 0);
    }

    #[test]
    fn materialized_rows_follow_attribute_order() {
        let f = paper_example();
        let rows = f.materialize_values();
        assert_eq!(rows.len(), 6);
        // Figure 3b: rows ordered t1 x (d1 v1, d1 v2, d2 v3), then t2 x ...
        assert_eq!(
            rows[0],
            vec![Value::str("t1"), Value::str("d1"), Value::str("v1")]
        );
        assert_eq!(
            rows[1],
            vec![Value::str("t1"), Value::str("d1"), Value::str("v2")]
        );
        assert_eq!(
            rows[2],
            vec![Value::str("t1"), Value::str("d2"), Value::str("v3")]
        );
        assert_eq!(
            rows[3],
            vec![Value::str("t2"), Value::str("d1"), Value::str("v1")]
        );
        assert_eq!(
            rows[5],
            vec![Value::str("t2"), Value::str("d2"), Value::str("v3")]
        );
    }

    #[test]
    fn descendant_counts_and_runs() {
        let f = paper_example();
        let geo = &f.hierarchies()[1];
        assert_eq!(geo.leaf_count(), 3);
        assert_eq!(geo.cardinality(0), 2);
        assert_eq!(geo.descendant_leaves(0, &Value::str("d1")), 2);
        assert_eq!(geo.descendant_leaves(0, &Value::str("d2")), 1);
        assert_eq!(geo.descendant_leaves(0, &Value::str("dX")), 0);
        assert_eq!(
            geo.level_runs(0),
            vec![(Value::str("d1"), 2), (Value::str("d2"), 1)]
        );
        assert_eq!(geo.level_runs(1).len(), 3);
    }

    #[test]
    fn row_index_decomposition_round_trips() {
        let f = paper_example();
        for row in 0..f.n_rows() {
            let idx = f.row_to_path_indices(row);
            assert_eq!(f.path_indices_to_row(&idx), row);
        }
    }

    #[test]
    fn row_index_of_inverts_row_values() {
        let f = paper_example();
        for (row, values) in f.materialize_values().iter().enumerate() {
            assert_eq!(f.row_index_of(values), Some(row));
        }
        // unknown values or wrong arity give None
        assert_eq!(
            f.row_index_of(&[Value::str("t9"), Value::str("d1"), Value::str("v1")]),
            None
        );
        assert_eq!(f.row_index_of(&[Value::str("t1")]), None);
        assert_eq!(
            f.path_index_of(1, &[Value::str("d2"), Value::str("v3")]),
            Some(2)
        );
    }

    #[test]
    fn from_relation_builds_bcnf_paths() {
        let schema = Arc::new(
            Schema::builder()
                .hierarchy("geo", ["district", "village"])
                .hierarchy("time", ["year"])
                .measure("severity")
                .build()
                .unwrap(),
        );
        let rel = Relation::builder(schema.clone())
            .row(["Ofla", "Adishim", "1986", "8"])
            .unwrap()
            .row(["Ofla", "Adishim", "1987", "7"])
            .unwrap()
            .row(["Ofla", "Darube", "1986", "2"])
            .unwrap()
            .row(["Raya", "Zata", "1986", "9"])
            .unwrap()
            .build();
        let geo = schema.hierarchy("geo").unwrap();
        let time = schema.hierarchy("time").unwrap();
        // Drill down along geo: time first, geo last.
        let f = Factorization::from_relation(&rel, &[(time, 1), (geo, 2)]);
        assert_eq!(f.n_cols(), 3);
        assert_eq!(f.hierarchies()[0].leaf_count(), 2); // 1986, 1987
        assert_eq!(f.hierarchies()[1].leaf_count(), 3); // Adishim, Darube, Zata
        assert_eq!(f.n_rows(), 6);
        // truncating the geo hierarchy to depth 1 keeps only districts
        let f = Factorization::from_relation(&rel, &[(time, 1), (geo, 1)]);
        assert_eq!(f.hierarchies()[1].leaf_count(), 2);
        assert_eq!(f.n_rows(), 4);
    }

    #[test]
    fn materialize_feature_matrix_uses_feature_map() {
        let f = paper_example();
        let mut features = FeatureMap::zeros(f.n_cols());
        features.set(0, Value::str("t1"), 1.0);
        features.set(0, Value::str("t2"), 2.0);
        features.set(1, Value::str("d1"), 10.0);
        features.set(1, Value::str("d2"), 20.0);
        features.set(2, Value::str("v1"), 100.0);
        features.set(2, Value::str("v2"), 200.0);
        features.set(2, Value::str("v3"), 300.0);
        let x = f.materialize(&features);
        assert_eq!(x.shape(), (6, 3));
        assert_eq!(x.row(0), &[1.0, 10.0, 100.0]);
        assert_eq!(x.row(2), &[1.0, 20.0, 300.0]);
        assert_eq!(x.row(4), &[2.0, 10.0, 200.0]);
    }
}
