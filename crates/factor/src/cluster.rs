//! Per-cluster matrix operations (Appendix E/F).
//!
//! The multi-level model's random effects are estimated per *cluster*: one
//! cluster per combination of the already-grouped (inter-cluster) attributes,
//! with only the newly drilled attribute (and any features derived from it)
//! varying inside a cluster. Because the drill-down hierarchy is ordered last
//! in the factorisation, a cluster's rows are vertically adjacent and every
//! column except the trailing intra-cluster columns is constant within the
//! cluster — which is what the per-cluster operators exploit: each cluster's
//! gram / left / right product is assembled from one shared rank-one structure
//! plus the (few) intra columns.

use crate::encoded::{EncodedFactorization, EncodedFeatureMap};
use crate::parallel::Parallelism;
use reptile_linalg::Matrix;

/// One cluster: a contiguous block of conceptual rows sharing every column
/// except the trailing intra-cluster columns.
#[derive(Debug, Clone)]
pub struct ClusterInfo {
    /// First conceptual row of the cluster.
    pub start_row: usize,
    /// Number of rows in the cluster.
    pub len: usize,
    /// Feature value of each column for the cluster; entries of intra-cluster
    /// columns are unused (they vary within the cluster).
    pub const_features: Vec<f64>,
    /// Feature values of the intra-cluster columns, one row-major
    /// `len × k` block for the partition's `k` intra columns:
    /// `intra_features[r * k + j]` is the value of the j-th intra column in
    /// the cluster's r-th row.
    pub intra_features: Vec<f64>,
}

/// The partition of a factorisation's rows into clusters.
#[derive(Debug, Clone)]
pub struct ClusterPartition {
    clusters: Vec<ClusterInfo>,
    n_cols: usize,
    /// Global column indices of the intra-cluster columns (a suffix of the
    /// column range).
    intra_columns: Vec<usize>,
}

impl ClusterPartition {
    /// Build the partition with the trailing `intra_levels` levels of the
    /// last hierarchy treated as intra-cluster columns (1 for the common
    /// single-attribute drill-down; more when auxiliary or custom features
    /// are derived from the drilled attribute). Every path comparison is a
    /// `u32` compare and every feature lookup a flat-slice index.
    /// The earlier-hierarchy combination loop — the `O(n_rows)` bulk of the
    /// partition build — is sharded over `par` (the coordinator-local
    /// thread budget; pass [`Parallelism::serial`] for the inline build).
    /// Combinations are independent and gathered in combination order, so
    /// the partition is bit-identical for any budget.
    pub fn from_encoded(
        fact: &EncodedFactorization,
        features: &EncodedFeatureMap,
        intra_levels: usize,
        par: &Parallelism,
    ) -> Self {
        let factors = fact.factors();
        assert!(!factors.is_empty(), "factorization has no hierarchies");
        let m = fact.n_cols();
        let depths: Vec<usize> = factors.iter().map(|f| f.depth()).collect();
        let leaf_counts: Vec<usize> = factors.iter().map(|f| f.leaf_count()).collect();
        // The feature value of path `idx` of hierarchy `h` at `level`.
        let feature = |h: usize, level: usize, idx: usize| {
            features.value(fact.column_of(h, level), factors[h].code(level, idx))
        };
        let last = depths.len() - 1;
        let depth = depths[last];
        let intra_levels = intra_levels.clamp(1, depth);
        let prefix_len = depth - intra_levels;
        let intra_columns: Vec<usize> = (prefix_len..depth)
            .map(|level| fact.column_of(last, level))
            .collect();

        // Group the last hierarchy's paths by their inter-cluster prefix.
        let last_leafs = leaf_counts[last];
        let mut prefix_groups: Vec<(usize, usize)> = Vec::new(); // (start path, len)
        if last_leafs > 0 {
            if prefix_len == 0 {
                prefix_groups.push((0, last_leafs));
            } else {
                let mut i = 0usize;
                let lastf = &factors[last];
                while i < last_leafs {
                    let start = i;
                    while i < last_leafs
                        && (0..prefix_len)
                            .all(|level| lastf.code(level, start) == lastf.code(level, i))
                    {
                        i += 1;
                    }
                    prefix_groups.push((start, i - start));
                }
            }
        }

        // A prefix group's intra-column block is the same under every
        // earlier-hierarchy combination: built once, copied per cluster.
        let intra_blocks: Vec<Vec<f64>> = prefix_groups
            .iter()
            .map(|&(path_start, path_len)| {
                let mut block = Vec::with_capacity(path_len * intra_levels);
                for path in path_start..path_start + path_len {
                    block.extend((prefix_len..depth).map(|level| feature(last, level, path)));
                }
                block
            })
            .collect();

        // Enumerate earlier-hierarchy combinations in row order. Each
        // combination's clusters are built independently (and gathered in
        // combination order when sharded over `par`).
        let earlier_combos: usize = leaf_counts[..last].iter().product();
        let total_combos = earlier_combos.max(1);
        let combo_clusters = |combo: usize, clusters: &mut Vec<ClusterInfo>| {
            // Decompose the combo into per-hierarchy path indices to read the
            // constant feature values of the earlier hierarchies.
            let mut const_features = vec![0.0f64; m];
            if last > 0 {
                let mut rem = combo;
                for h in (0..last).rev() {
                    let idx = rem % leaf_counts[h];
                    rem /= leaf_counts[h];
                    for level in 0..depths[h] {
                        const_features[fact.column_of(h, level)] = feature(h, level, idx);
                    }
                }
            }
            for (&(path_start, path_len), intra) in prefix_groups.iter().zip(&intra_blocks) {
                let mut cf = const_features.clone();
                for level in 0..prefix_len {
                    cf[fact.column_of(last, level)] = feature(last, level, path_start);
                }
                clusters.push(ClusterInfo {
                    start_row: combo * last_leafs + path_start,
                    len: path_len,
                    const_features: cf,
                    intra_features: intra.clone(),
                });
            }
        };
        let clusters = if par.is_serial() || total_combos <= 1 {
            let mut clusters = Vec::with_capacity(total_combos * prefix_groups.len());
            for combo in 0..total_combos {
                combo_clusters(combo, &mut clusters);
            }
            clusters
        } else {
            par.map_ranges(total_combos, |start, count| {
                let mut chunk = Vec::with_capacity(count * prefix_groups.len());
                for combo in start..start + count {
                    combo_clusters(combo, &mut chunk);
                }
                chunk
            })
            .concat()
        };
        ClusterPartition {
            clusters,
            n_cols: m,
            intra_columns,
        }
    }

    /// The clusters in row order.
    pub fn clusters(&self) -> &[ClusterInfo] {
        &self.clusters
    }

    /// Number of clusters `G`.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether there are no clusters.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Row ranges `(start, len)` of every cluster — the shape the naive
    /// baselines consume.
    pub fn row_ranges(&self) -> Vec<(usize, usize)> {
        self.clusters.iter().map(|c| (c.start_row, c.len)).collect()
    }

    /// Number of feature columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Global column indices of the intra-cluster columns.
    pub fn intra_columns(&self) -> &[usize] {
        &self.intra_columns
    }

    /// Whether `col` varies within clusters.
    fn is_intra(&self, col: usize) -> bool {
        self.intra_columns.contains(&col)
    }

    fn intra_index(&self, col: usize) -> Option<usize> {
        self.intra_columns.iter().position(|c| *c == col)
    }

    /// The rows of `c`'s intra-column block, in row order.
    fn intra_rows<'c>(&self, c: &'c ClusterInfo) -> std::slice::ChunksExact<'c, f64> {
        c.intra_features.chunks_exact(self.intra_columns.len())
    }

    /// The gram matrix of one cluster — the per-cluster body the serial and
    /// fanned-out [`ClusterPartition::grams`] budgets share.
    fn gram_of(&self, c: &ClusterInfo) -> Matrix {
        let m = self.n_cols;
        let s = c.len as f64;
        // Sums and cross sums of the intra columns.
        let k = self.intra_columns.len();
        let mut intra_sum = vec![0.0f64; k];
        let mut intra_cross = vec![0.0f64; k * k];
        for row in self.intra_rows(c) {
            for a in 0..k {
                intra_sum[a] += row[a];
                for b in a..k {
                    intra_cross[a * k + b] += row[a] * row[b];
                }
            }
        }
        let mut g = Matrix::zeros(m, m);
        for j in 0..m {
            for l in j..m {
                let v = match (self.intra_index(j), self.intra_index(l)) {
                    (None, None) => s * c.const_features[j] * c.const_features[l],
                    (None, Some(b)) => c.const_features[j] * intra_sum[b],
                    (Some(a), None) => c.const_features[l] * intra_sum[a],
                    (Some(a), Some(b)) => {
                        let (a, b) = if a <= b { (a, b) } else { (b, a) };
                        intra_cross[a * k + b]
                    }
                };
                g.set(j, l, v);
                g.set(l, j, v);
            }
        }
        g
    }

    /// Per-cluster gram matrices `X_iᵀ·X_i` (Algorithm 5). Exploits that the
    /// inter-cluster columns are constant within the cluster. The
    /// per-cluster grams fan out over `par` (the coordinator-local thread
    /// budget), gathered in cluster order — bit-identical for any budget,
    /// clusters are independent.
    pub fn grams(&self, par: &Parallelism) -> Vec<Matrix> {
        if par.is_serial() {
            return self.clusters.iter().map(|c| self.gram_of(c)).collect();
        }
        par.map_items(self.clusters.len(), |i| self.gram_of(&self.clusters[i]))
    }

    /// Per-cluster right multiplications `X_i·A_i` (Algorithm 7); `a[i]` must
    /// be an `m × p` matrix.
    pub fn right_mult(&self, a: &[Matrix]) -> Vec<Matrix> {
        assert_eq!(
            a.len(),
            self.clusters.len(),
            "one right operand per cluster"
        );
        let m = self.n_cols;
        self.clusters
            .iter()
            .zip(a)
            .map(|(c, ai)| {
                assert_eq!(ai.rows(), m, "cluster right operand must have {m} rows");
                let p = ai.cols();
                // Base contribution of the constant columns, shared by all rows.
                let mut base = vec![0.0f64; p];
                for j in 0..m {
                    if self.is_intra(j) {
                        continue;
                    }
                    let f = c.const_features[j];
                    if f == 0.0 {
                        continue;
                    }
                    for (col, b) in base.iter_mut().enumerate() {
                        *b += f * ai.get(j, col);
                    }
                }
                let mut out = Matrix::zeros(c.len, p);
                for (r, intra) in self.intra_rows(c).enumerate() {
                    for (col, &b) in base.iter().enumerate() {
                        let mut v = b;
                        for (k, &icol) in self.intra_columns.iter().enumerate() {
                            v += intra[k] * ai.get(icol, col);
                        }
                        out.set(r, col, v);
                    }
                }
                out
            })
            .collect()
    }

    /// Append `X_i · beta` for one cluster to `out` — the per-cluster body
    /// shared by the serial and sharded right-multiplication variants.
    fn right_mult_vec_cluster(&self, c: &ClusterInfo, beta: &[f64], out: &mut Vec<f64>) {
        let m = self.n_cols;
        let mut base = 0.0;
        for (j, &bj) in beta.iter().enumerate().take(m) {
            if !self.is_intra(j) {
                base += c.const_features[j] * bj;
            }
        }
        for intra in self.intra_rows(c) {
            let mut v = base;
            for (k, &icol) in self.intra_columns.iter().enumerate() {
                v += intra[k] * beta[icol];
            }
            out.push(v);
        }
    }

    /// Per-cluster right multiplication `X_i · beta_i` where each cluster has
    /// its own coefficient vector; results are concatenated in row order
    /// (this is the vertical concatenation used for `Z·b`). Contiguous
    /// cluster shards fan out over `par`, concatenated in cluster (= row)
    /// order — bit-identical to the serial concatenation.
    pub fn right_mult_per_cluster_vec(&self, betas: &[Vec<f64>], par: &Parallelism) -> Vec<f64> {
        assert_eq!(betas.len(), self.clusters.len(), "one beta per cluster");
        let m = self.n_cols;
        let shard = |start: usize, count: usize| -> Vec<f64> {
            let mut out = Vec::new();
            for (c, beta) in self.clusters[start..start + count]
                .iter()
                .zip(&betas[start..start + count])
            {
                assert_eq!(beta.len(), m);
                self.right_mult_vec_cluster(c, beta, &mut out);
            }
            out
        };
        if par.is_serial() {
            return shard(0, self.clusters.len());
        }
        par.map_ranges(self.clusters.len(), shard).concat()
    }

    /// Per-cluster right multiplication with a single shared vector operand
    /// (the common case `X·β`), concatenated in row order. Contiguous
    /// cluster shards fan out over `par`, concatenated in cluster (= row)
    /// order — bit-identical to the serial concatenation.
    pub fn right_mult_shared_vec(&self, beta: &[f64], par: &Parallelism) -> Vec<f64> {
        assert_eq!(beta.len(), self.n_cols);
        let shard = |start: usize, count: usize| -> Vec<f64> {
            let mut out = Vec::new();
            for c in &self.clusters[start..start + count] {
                self.right_mult_vec_cluster(c, beta, &mut out);
            }
            out
        };
        if par.is_serial() {
            return shard(0, self.clusters.len());
        }
        par.map_ranges(self.clusters.len(), shard).concat()
    }

    /// Per-cluster left multiplications `D_i·X_i` (Algorithm 6); `d[i]` must
    /// be a `q × len_i` matrix.
    pub fn left_mult(&self, d: &[Matrix]) -> Vec<Matrix> {
        assert_eq!(d.len(), self.clusters.len(), "one left operand per cluster");
        let m = self.n_cols;
        self.clusters
            .iter()
            .zip(d)
            .map(|(c, di)| {
                assert_eq!(
                    di.cols(),
                    c.len,
                    "cluster left operand must have as many columns as the cluster has rows"
                );
                let q = di.rows();
                let mut out = Matrix::zeros(q, m);
                for r in 0..q {
                    let row = di.row(r);
                    let row_sum: f64 = row.iter().sum();
                    for j in 0..m {
                        if self.is_intra(j) {
                            continue;
                        }
                        out.set(r, j, c.const_features[j] * row_sum);
                    }
                    for (k, &icol) in self.intra_columns.iter().enumerate() {
                        let v: f64 = row
                            .iter()
                            .zip(self.intra_rows(c))
                            .map(|(a, w)| a * w[k])
                            .sum();
                        out.set(r, icol, v);
                    }
                }
                out
            })
            .collect()
    }

    /// One cluster's `v[cluster rows]·X_i` — the per-cluster body shared by
    /// the serial and sharded global-vector left multiplications.
    fn left_mult_global_cluster(&self, c: &ClusterInfo, v: &[f64]) -> Vec<f64> {
        let m = self.n_cols;
        let slice = &v[c.start_row..c.start_row + c.len];
        let row_sum: f64 = slice.iter().sum();
        let mut out = vec![0.0f64; m];
        for (j, o) in out.iter_mut().enumerate().take(m) {
            if !self.is_intra(j) {
                *o = c.const_features[j] * row_sum;
            }
        }
        for (k, &icol) in self.intra_columns.iter().enumerate() {
            out[icol] = slice
                .iter()
                .zip(self.intra_rows(c))
                .map(|(a, w)| a * w[k])
                .sum();
        }
        out
    }

    /// Per-cluster left multiplication of one global row vector `v` (length
    /// `n`): returns, for each cluster, the `1 × m` result of
    /// `v[cluster rows]·X_i`. This is the shape `X_iᵀ·(y_i − X_i·β)` needs.
    /// The per-cluster products fan out over `par`, gathered in cluster
    /// order — bit-identical for any budget, clusters read disjoint slices
    /// of `v`.
    pub fn left_mult_global_vec(&self, v: &[f64], par: &Parallelism) -> Vec<Vec<f64>> {
        if par.is_serial() {
            return self
                .clusters
                .iter()
                .map(|c| self.left_mult_global_cluster(c, v))
                .collect();
        }
        par.map_items(self.clusters.len(), |i| {
            self.left_mult_global_cluster(&self.clusters[i], v)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factorization::{Factorization, HierarchyFactor};
    use crate::feature::FeatureMap;
    use reptile_linalg::naive;
    use reptile_relational::{AttrId, Value};

    /// The partition of `fact` under `features`, built from their encoding.
    fn partition(
        fact: &Factorization,
        features: &FeatureMap,
        intra_levels: usize,
    ) -> ClusterPartition {
        let enc = EncodedFactorization::encode(fact);
        let enc_features = EncodedFeatureMap::encode(features, &enc);
        ClusterPartition::from_encoded(&enc, &enc_features, intra_levels, &Parallelism::serial())
    }

    fn example() -> (Factorization, FeatureMap) {
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
        features.set(0, Value::str("t1"), 1.0);
        features.set(0, Value::str("t2"), 2.0);
        features.set(1, Value::str("d1"), 3.0);
        features.set(1, Value::str("d2"), -1.0);
        features.set(2, Value::str("v1"), 0.5);
        features.set(2, Value::str("v2"), 1.5);
        features.set(2, Value::str("v3"), 4.0);
        (fact, features)
    }

    /// A 3-level last hierarchy with an extra (pseudo) level, so that two
    /// trailing columns are intra-cluster.
    fn example_multi_intra() -> (Factorization, FeatureMap) {
        let time = HierarchyFactor::from_paths(
            "time",
            vec![AttrId(0)],
            vec![
                vec![Value::str("t1")],
                vec![Value::str("t2")],
                vec![Value::str("t3")],
            ],
        );
        let geo = HierarchyFactor::from_paths(
            "geo",
            vec![AttrId(1), AttrId(2), AttrId(3)],
            vec![
                vec![Value::str("d1"), Value::str("v1"), Value::str("v1")],
                vec![Value::str("d1"), Value::str("v2"), Value::str("v2")],
                vec![Value::str("d2"), Value::str("v3"), Value::str("v3")],
                vec![Value::str("d2"), Value::str("v4"), Value::str("v4")],
            ],
        );
        let fact = Factorization::new(vec![time, geo]);
        let mut features = FeatureMap::zeros(4);
        features.set(0, Value::str("t1"), 1.0);
        features.set(0, Value::str("t2"), 2.0);
        features.set(0, Value::str("t3"), -1.0);
        features.set(1, Value::str("d1"), 3.0);
        features.set(1, Value::str("d2"), -1.0);
        for (i, v) in ["v1", "v2", "v3", "v4"].iter().enumerate() {
            features.set(2, Value::str(v), i as f64 + 0.5);
            // pseudo level: e.g. rainfall per village
            features.set(3, Value::str(v), 100.0 - 10.0 * i as f64);
        }
        (fact, features)
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
    fn clusters_cover_all_rows_contiguously() {
        let (fact, features) = example();
        let part = partition(&fact, &features, 1);
        // 2 time values x 2 districts = 4 clusters (Figure 3c: siblings per district).
        assert_eq!(part.len(), 4);
        let mut next = 0usize;
        let mut total = 0usize;
        for c in part.clusters() {
            assert_eq!(c.start_row, next);
            next += c.len;
            total += c.len;
            assert_eq!(c.intra_features.len(), c.len * part.intra_columns().len());
        }
        assert_eq!(total, fact.n_rows());
        assert_eq!(part.row_ranges().len(), 4);
        assert_eq!(part.intra_columns(), &[2]);
    }

    #[test]
    fn cluster_grams_match_naive() {
        let (fact, features) = example();
        let part = partition(&fact, &features, 1);
        let x = fact.materialize(&features);
        let expected = naive::cluster_grams(&x, &part.row_ranges()).unwrap();
        let got = part.grams(&Parallelism::serial());
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert!(g.max_abs_diff(e) < 1e-9, "{g:?} vs {e:?}");
        }
    }

    #[test]
    fn cluster_right_mult_matches_naive() {
        let (fact, features) = example();
        let part = partition(&fact, &features, 1);
        let x = fact.materialize(&features);
        let a: Vec<Matrix> = (0..part.len())
            .map(|i| pseudo_random(fact.n_cols(), 2, 10 + i as u64))
            .collect();
        let expected = naive::cluster_right_mult(&x, &a, &part.row_ranges()).unwrap();
        let got = part.right_mult(&a);
        for (g, e) in got.iter().zip(&expected) {
            assert!(g.max_abs_diff(e) < 1e-9);
        }
    }

    #[test]
    fn cluster_left_mult_matches_naive() {
        let (fact, features) = example();
        let part = partition(&fact, &features, 1);
        let x = fact.materialize(&features);
        let d: Vec<Matrix> = part
            .clusters()
            .iter()
            .enumerate()
            .map(|(i, c)| pseudo_random(2, c.len, 50 + i as u64))
            .collect();
        let expected = naive::cluster_left_mult(&d, &x, &part.row_ranges()).unwrap();
        let got = part.left_mult(&d);
        for (g, e) in got.iter().zip(&expected) {
            assert!(g.max_abs_diff(e) < 1e-9);
        }
    }

    #[test]
    fn shared_vector_helpers_match_naive() {
        let (fact, features) = example();
        let part = partition(&fact, &features, 1);
        let x = fact.materialize(&features);
        let beta = vec![0.3, -1.0, 2.0];
        let shared = part.right_mult_shared_vec(&beta, &Parallelism::serial());
        let expected = x.matmul(&Matrix::column_vector(&beta)).unwrap();
        for (i, v) in shared.iter().enumerate() {
            assert!((v - expected.get(i, 0)).abs() < 1e-9);
        }

        let v: Vec<f64> = (0..fact.n_rows()).map(|i| i as f64 * 0.25 - 0.5).collect();
        let per_cluster = part.left_mult_global_vec(&v, &Parallelism::serial());
        for (c, res) in part.clusters().iter().zip(&per_cluster) {
            let block = x.row_block(c.start_row, c.len);
            let expected = Matrix::row_vector(&v[c.start_row..c.start_row + c.len])
                .matmul(&block)
                .unwrap();
            for (j, r) in res.iter().enumerate() {
                assert!((r - expected.get(0, j)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn per_cluster_vec_mult_matches_block_products() {
        let (fact, features) = example();
        let part = partition(&fact, &features, 1);
        let x = fact.materialize(&features);
        let betas: Vec<Vec<f64>> = (0..part.len())
            .map(|i| vec![i as f64, 1.0 - i as f64, 0.5 * i as f64])
            .collect();
        let got = part.right_mult_per_cluster_vec(&betas, &Parallelism::serial());
        let mut idx = 0usize;
        for (c, beta) in part.clusters().iter().zip(&betas) {
            let block = x.row_block(c.start_row, c.len);
            let expected = block.matmul(&Matrix::column_vector(beta)).unwrap();
            for r in 0..c.len {
                assert!((got[idx] - expected.get(r, 0)).abs() < 1e-9);
                idx += 1;
            }
        }
        assert_eq!(idx, fact.n_rows());
    }

    #[test]
    fn multiple_intra_levels_match_naive() {
        let (fact, features) = example_multi_intra();
        let part = partition(&fact, &features, 2);
        assert_eq!(part.intra_columns(), &[2, 3]);
        // 3 times x 2 districts = 6 clusters of 2 villages each.
        assert_eq!(part.len(), 6);
        let x = fact.materialize(&features);
        let expected = naive::cluster_grams(&x, &part.row_ranges()).unwrap();
        for (g, e) in part.grams(&Parallelism::serial()).iter().zip(&expected) {
            assert!(g.max_abs_diff(e) < 1e-9);
        }
        let beta = vec![0.3, -1.0, 2.0, 0.01];
        let shared = part.right_mult_shared_vec(&beta, &Parallelism::serial());
        let exp = x.matmul(&Matrix::column_vector(&beta)).unwrap();
        for (i, v) in shared.iter().enumerate() {
            assert!((v - exp.get(i, 0)).abs() < 1e-9);
        }
        let v: Vec<f64> = (0..fact.n_rows()).map(|i| (i % 5) as f64 - 2.0).collect();
        let per_cluster = part.left_mult_global_vec(&v, &Parallelism::serial());
        for (c, res) in part.clusters().iter().zip(&per_cluster) {
            let block = x.row_block(c.start_row, c.len);
            let e = Matrix::row_vector(&v[c.start_row..c.start_row + c.len])
                .matmul(&block)
                .unwrap();
            for (j, r) in res.iter().enumerate() {
                assert!((r - e.get(0, j)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn partition_features_equal_the_materialized_rows() {
        for intra in [1usize, 2] {
            let (fact, features) = example_multi_intra();
            let part = partition(&fact, &features, intra);
            let x = fact.materialize(&features);
            let intra_columns = part.intra_columns().to_vec();
            assert_eq!(intra_columns.len(), intra);
            for c in part.clusters() {
                for r in 0..c.len {
                    let row = x.row(c.start_row + r);
                    for (col, &value) in row.iter().enumerate() {
                        match intra_columns.iter().position(|&ic| ic == col) {
                            Some(k) => assert_eq!(
                                c.intra_features[r * intra_columns.len() + k].to_bits(),
                                value.to_bits()
                            ),
                            None => assert_eq!(c.const_features[col], value),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn single_hierarchy_forms_one_cluster() {
        let only = HierarchyFactor::from_paths(
            "only",
            vec![AttrId(0)],
            vec![
                vec![Value::int(1)],
                vec![Value::int(2)],
                vec![Value::int(3)],
            ],
        );
        let fact = Factorization::new(vec![only]);
        let features = FeatureMap::indexed(&[vec![Value::int(1), Value::int(2), Value::int(3)]]);
        let part = partition(&fact, &features, 1);
        assert_eq!(part.len(), 1);
        assert_eq!(part.clusters()[0].len, 3);
    }
}
