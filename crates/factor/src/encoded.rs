//! The dictionary-encoded columnar factorised matrix and its operators.
//!
//! A `Value`-keyed path table ([`Factorization`]) would pay an `Arc<str>`
//! clone plus an `O(log n)` string comparison for every path/value touch on
//! the operator hot paths. This module encodes each hierarchy once and runs
//! everything downstream on dense integer codes:
//!
//! * [`EncodedFactor`] — one hierarchy stored *columnar*: per level a
//!   [`ValueDict`] (sorted domain → dense `u32` codes) and the level's code
//!   column in path order;
//! * [`EncodedFactorization`] — the ordered hierarchy factors plus column
//!   offsets, `Arc`-shared so a trained model's row resolver keeps them
//!   without copies;
//! * [`EncodedHierarchyAggregates`] / [`EncodedAggregates`] — the
//!   `TOTAL`/`COUNT`/`COF` batch of Section 4.2.1 as code-indexed `Vec<f64>`
//!   descendant tables and run/COF tables of `(u32, f64)` pairs;
//! * [`EncodedFeatureMap`] — per column a flat `Vec<f64>` indexed by code;
//! * [`gram`], [`left_mult`], [`right_mult`], [`transpose_vec_mult`] — the
//!   factorised operators of Algorithms 2–4 running on codes end-to-end.
//!
//! Codes are assigned in sorted `Value` order, so code order is value order
//! and every table below iterates in path (= value) order. The aggregates
//! are integer counts, equal (`==`) to the serial LMFAO-style baseline
//! ([`crate::lmfao::compute_serial`]); every [`Exec`] context is `==` the
//! serial computation. Decoding back to [`Value`] happens only at the
//! explanation/API boundary via the per-level dictionaries.

use crate::factorization::{AttrPosition, Factorization, HierarchyFactor};
use crate::feature::FeatureMap;
use crate::parallel::Parallelism;
use reptile_linalg::{Matrix, PrefixSum};
use reptile_obs::{Stage, StageTimer};
use reptile_relational::{AttrId, Exec, Value, ValueDict};
use std::cmp::Ordering;
use std::sync::Arc;

/// One level of an encoded hierarchy: its domain dictionary and the dense
/// code column in (value-sorted) path order.
///
/// The code column is `Arc`-shared, so cloning a factor costs a pointer
/// bump per level.
#[derive(Debug, Clone)]
pub struct EncodedLevel {
    /// Domain of the level. [`EncodedFactor::encode`] and the design build
    /// assign sorted-rank codes over the values present; a level assembled
    /// by [`EncodedFactor::from_levels`] may carry any dictionary, codes out
    /// of value order included.
    pub dict: ValueDict,
    /// The level's value codes, one per path, in path order.
    pub codes: Arc<Vec<u32>>,
}

impl EncodedLevel {
    /// Per code, whether some path carries it. Every code of an encoded or
    /// design-built level is carried; a dictionary handed to
    /// [`EncodedFactor::from_levels`] may hold values no path carries.
    pub fn carried_codes(&self) -> Vec<bool> {
        let mut carried = vec![false; self.dict.len()];
        for &code in self.codes.iter() {
            carried[code as usize] = true;
        }
        carried
    }
}

/// A dictionary-encoded hierarchy factor (columnar layout).
#[derive(Debug, Clone)]
pub struct EncodedFactor {
    /// Name of the hierarchy (for diagnostics).
    pub name: String,
    /// Attribute ids of the levels included, least specific first.
    pub attrs: Vec<AttrId>,
    /// Per-level dictionary + code column.
    pub levels: Vec<EncodedLevel>,
    leaf_count: usize,
    /// Per level, the start index of every maximal code run plus a
    /// `leaf_count` sentinel — precomputed at construction so that the
    /// per-shard [`EncodedFactor::level_runs_range`] scans are a binary
    /// search plus a walk over the runs actually present in the range,
    /// instead of an `O(len)` re-detection per call per level per shard.
    run_starts: Vec<Arc<Vec<usize>>>,
}

/// The sorted start indices of `codes`' maximal runs, with a final
/// `codes.len()` sentinel (so run `r` spans `starts[r]..starts[r + 1]`).
fn run_start_table(codes: &[u32]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut prev = None;
    for (i, &code) in codes.iter().enumerate() {
        if prev != Some(code) {
            starts.push(i);
            prev = Some(code);
        }
    }
    starts.push(codes.len());
    starts
}

impl EncodedFactor {
    /// Encode a `Value`-keyed hierarchy factor. This is the one place that
    /// still compares `Value`s (building the per-level dictionaries); all
    /// downstream work runs on the codes.
    ///
    /// The per-path dictionary lookups (the `O(n log |domain|)` bulk of the
    /// encode) fan out over `exec`'s *local* thread budget — encoding reads
    /// the coordinator-resident path table, so it never goes remote. Every
    /// shard reads the *same* per-level [`ValueDict`] — built once, up
    /// front, from one linear representatives pass — so codes are identical
    /// across shards and the concatenated columns equal the serial encode
    /// bit-for-bit.
    pub fn encode(factor: &HierarchyFactor, exec: &Exec) -> Self {
        let par = exec.parallelism();
        let _span = StageTimer::start(Stage::Encode);
        let depth = factor.depth();
        let leaf_count = factor.leaf_count();
        let mut levels = Vec::with_capacity(depth);
        for level in 0..depth {
            // Collect one representative per consecutive run (paths are
            // sorted, so runs bound the distinct count), then sort+dedup the
            // representatives into the dictionary.
            let mut reps: Vec<Value> = Vec::new();
            for path in &factor.paths {
                if reps.last() != Some(&path[level]) {
                    reps.push(path[level].clone());
                }
            }
            let dict = ValueDict::from_values(reps);
            let encode_range = |start: usize, len: usize| -> Vec<u32> {
                factor.paths[start..start + len]
                    .iter()
                    .map(|p| dict.code_of(&p[level]).expect("value drawn from domain"))
                    .collect()
            };
            let codes: Vec<u32> = if par.is_serial() {
                encode_range(0, factor.paths.len())
            } else {
                par.map_ranges(factor.paths.len(), encode_range).concat()
            };
            levels.push(EncodedLevel {
                dict,
                codes: Arc::new(codes),
            });
        }
        let run_starts = levels
            .iter()
            .map(|l| Arc::new(run_start_table(&l.codes)))
            .collect();
        EncodedFactor {
            name: factor.name.clone(),
            attrs: factor.attrs.clone(),
            levels,
            leaf_count,
            run_starts,
        }
    }

    /// Assemble a factor from its levels. The leaf count is the (shared)
    /// code column length and the run tables are rebuilt from the codes.
    pub fn from_levels(name: String, attrs: Vec<AttrId>, levels: Vec<EncodedLevel>) -> Self {
        let leaf_count = levels.first().map_or(0, |l| l.codes.len());
        debug_assert!(levels.iter().all(|l| l.codes.len() == leaf_count));
        let run_starts = levels
            .iter()
            .map(|l| Arc::new(run_start_table(&l.codes)))
            .collect();
        EncodedFactor {
            name,
            attrs,
            levels,
            leaf_count,
            run_starts,
        }
    }

    /// Number of levels present.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Number of distinct leaf paths.
    pub fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// Number of distinct values at `level`.
    pub fn cardinality(&self, level: usize) -> usize {
        self.levels[level].dict.len()
    }

    /// The code of path `path_idx` at `level`.
    #[inline]
    pub fn code(&self, level: usize, path_idx: usize) -> u32 {
        self.levels[level].codes[path_idx]
    }

    /// The values of `level` in *path order* together with their descendant
    /// leaf counts — the code-space mirror of
    /// [`HierarchyFactor::level_runs`].
    pub fn level_runs(&self, level: usize) -> Vec<(u32, usize)> {
        self.level_runs_range(level, 0, self.leaf_count)
    }

    /// [`EncodedFactor::level_runs`] restricted to the contiguous path range
    /// `[start, start + len)` — the per-shard scan behind
    /// [`EncodedHierarchyAggregates::compute_range`]. A run split by a shard
    /// boundary shows up as one partial run per side; the shard merge joins
    /// them back (runs are maximal *within* a shard, so only boundary runs
    /// can share a code with their neighbour).
    ///
    /// Served from the precomputed per-level run table: one binary search
    /// for the run covering `start`, then a walk clipping each run to the
    /// range — `O(log R + r)` for `r` runs in the range, independent of
    /// `len`.
    pub fn level_runs_range(&self, level: usize, start: usize, len: usize) -> Vec<(u32, usize)> {
        let codes = &self.levels[level].codes;
        let end = start + len;
        debug_assert!(end <= codes.len());
        if len == 0 {
            return Vec::new();
        }
        let starts = &self.run_starts[level];
        // Index of the run containing `start`: the last table entry <= start
        // (the sentinel guarantees a successor entry exists).
        let mut run = starts.partition_point(|&s| s <= start) - 1;
        let mut runs = Vec::new();
        let mut lo = start;
        while lo < end {
            let hi = starts[run + 1].min(end);
            runs.push((codes[lo], hi - lo));
            lo = hi;
            run += 1;
        }
        runs
    }

    /// The values of path `path_idx`, root level first, borrowed from the
    /// level dictionaries.
    pub fn path_values(&self, path_idx: usize) -> impl Iterator<Item = &Value> + Clone + '_ {
        self.levels
            .iter()
            .map(move |l| l.dict.value(l.codes[path_idx]))
    }

    /// Decode path `path_idx` back to its values, root level first.
    pub fn decode_path(&self, path_idx: usize) -> Vec<Value> {
        self.path_values(path_idx).cloned().collect()
    }

    /// Decode the whole factor back to its `Value`-keyed form (what the
    /// dense baselines materialise).
    pub fn decode(&self) -> HierarchyFactor {
        HierarchyFactor::from_paths(
            self.name.clone(),
            self.attrs.clone(),
            (0..self.leaf_count).map(|p| self.decode_path(p)).collect(),
        )
    }

    /// Compare path `path_idx` against a value path, level by level (the
    /// lexicographic order the path table is kept sorted in).
    pub fn cmp_path<'a>(
        &self,
        path_idx: usize,
        path: impl IntoIterator<Item = &'a Value>,
    ) -> Ordering {
        let mut path = path.into_iter();
        for mine in self.path_values(path_idx) {
            match path.next().map(|theirs| mine.cmp(theirs)) {
                Some(Ordering::Equal) => continue,
                Some(other) => return other,
                None => return Ordering::Greater,
            }
        }
        match path.next() {
            Some(_) => Ordering::Less,
            None => Ordering::Equal,
        }
    }

    /// Index of a value path in the (value-sorted) path table.
    pub fn path_index_of<'a>(
        &self,
        path: impl IntoIterator<Item = &'a Value> + Clone,
    ) -> Option<usize> {
        let (mut lo, mut hi) = (0usize, self.leaf_count);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.cmp_path(mid, path.clone()) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(mid),
            }
        }
        None
    }
}

/// The dictionary-encoded factorised matrix: ordered encoded hierarchy
/// factors plus column offsets. Factors are `Arc`-shared, so a design's row
/// resolver keeps them without copying code columns.
#[derive(Debug, Clone)]
pub struct EncodedFactorization {
    factors: Vec<Arc<EncodedFactor>>,
    offsets: Vec<usize>,
    columns: usize,
}

impl EncodedFactorization {
    /// Assemble from encoded factors (drill-down hierarchy last).
    pub fn new(factors: Vec<Arc<EncodedFactor>>) -> Self {
        let mut offsets = Vec::with_capacity(factors.len());
        let mut columns = 0usize;
        for f in &factors {
            offsets.push(columns);
            columns += f.depth();
        }
        EncodedFactorization {
            factors,
            offsets,
            columns,
        }
    }

    /// Encode every hierarchy of a `Value`-keyed factorisation (serial
    /// convenience; per-hierarchy callers on a hot path use
    /// [`EncodedFactor::encode`] with their own [`Exec`]).
    pub fn encode(fact: &Factorization) -> Self {
        EncodedFactorization::new(
            fact.hierarchies()
                .iter()
                .map(|h| Arc::new(EncodedFactor::encode(h, &Exec::Serial)))
                .collect(),
        )
    }

    /// The encoded hierarchy factors in order.
    pub fn factors(&self) -> &[Arc<EncodedFactor>] {
        &self.factors
    }

    /// Number of columns (attributes) of the conceptual matrix.
    pub fn n_cols(&self) -> usize {
        self.columns
    }

    /// Number of rows of the conceptual matrix (product of leaf counts).
    pub fn n_rows(&self) -> usize {
        self.factors.iter().map(|f| f.leaf_count()).product()
    }

    /// Map a global column index to its `(hierarchy, level)` position.
    pub fn position(&self, column: usize) -> AttrPosition {
        for (h, offset) in self.offsets.iter().enumerate() {
            let depth = self.factors[h].depth();
            if column < offset + depth {
                return AttrPosition {
                    hierarchy: h,
                    level: column - offset,
                    column,
                };
            }
        }
        panic!(
            "column {column} out of range for encoded factorization with {} columns",
            self.columns
        );
    }

    /// Global column index of `(hierarchy, level)`.
    pub fn column_of(&self, hierarchy: usize, level: usize) -> usize {
        self.offsets[hierarchy] + level
    }

    /// The dictionary of `column`'s domain — the decode boundary.
    pub fn dict(&self, column: usize) -> &ValueDict {
        let pos = self.position(column);
        &self.factors[pos.hierarchy].levels[pos.level].dict
    }
}

/// Aggregates local to one encoded hierarchy: the leaf count, dense
/// code-indexed descendant tables, and the block-order run and
/// same-hierarchy `COF` tables.
///
/// Every table is additive across contiguous path shards (all counts are
/// integer-valued `f64`s), which is what makes
/// [`EncodedHierarchyAggregates::merge`] of per-shard
/// [`EncodedHierarchyAggregates::compute_range`] partials *exactly* equal
/// to the unsharded [`EncodedHierarchyAggregates::compute`] — `==`, not
/// tolerance (`PartialEq` is derived for precisely that assertion).
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedHierarchyAggregates {
    /// Number of distinct leaf paths.
    pub leaf_count: f64,
    /// Per level: `desc[level][code]` = number of descendant leaf paths.
    pub desc: Vec<Vec<f64>>,
    /// Per level: `(code, descendant count)` in path (block) order.
    pub runs: Vec<Vec<(u32, f64)>>,
    /// Same-hierarchy `COF` tables, indexed by `l1 * depth + l2` for level
    /// pairs `l1 < l2`: `(parent code, child code, descendant leaves)`.
    pub cofs: Vec<Vec<(u32, u32, f64)>>,
}

impl EncodedHierarchyAggregates {
    /// Compute the per-hierarchy aggregates with bottom-up work sharing:
    /// level `l`'s descendant counts sum level `l + 1`'s grouped by parent,
    /// the `COUNT_{A_{k+1}} = ⊕ COF_{A_{k+1},A_k}` rewriting of Appendix I,
    /// and every update is a flat `Vec` index on a `u32` code.
    ///
    /// `exec` says *where* the scan runs: inline ([`Exec::Serial`]), over
    /// the in-process shard pool at the adaptive width ([`Exec::Pool`]), or
    /// over exactly `n` contiguous leaf shards ([`Exec::Shards`]). The work
    /// is O(distinct paths) over a factor the coordinator holds, so
    /// [`Exec::Remote`] runs it in process on the pool at its local budget
    /// ([`Exec::parallelism`]); only relation scans cross the wire. Every
    /// context is bit-identical to serial: all merged quantities are
    /// integer-valued `f64` sums (exact in any grouping) and boundary-split
    /// runs re-join exactly ([`EncodedHierarchyAggregates::merge`]).
    pub fn compute(factor: &EncodedFactor, exec: &Exec) -> Self {
        match exec {
            Exec::Serial => Self::compute_range(factor, 0, factor.leaf_count()),
            Exec::Pool(_) | Exec::Remote(_) => Self::compute_pool(factor, &exec.parallelism()),
            Exec::Shards(shards) => {
                // Exactly `shards` contiguous leaf shards, no size threshold
                // — counts past the leaf count are valid, their partials are
                // empty and merge as identities. The exactness property
                // tests drive this arm.
                let ranges = Parallelism::shard_ranges(factor.leaf_count(), (*shards).max(1));
                if ranges.len() <= 1 {
                    return Self::compute_range(factor, 0, factor.leaf_count());
                }
                let par = Parallelism::new(*shards);
                let parts = par.run_shards(&ranges, |start, len| {
                    Self::compute_range(factor, start, len)
                });
                Self::merge(&parts)
            }
        }
    }

    /// Shard over `par`'s adaptive ranges and merge.
    fn compute_pool(factor: &EncodedFactor, par: &Parallelism) -> Self {
        let ranges = par.ranges_for(factor.leaf_count());
        if ranges.len() <= 1 {
            return Self::compute_range(factor, 0, factor.leaf_count());
        }
        let parts = par.run_shards(&ranges, |start, len| {
            Self::compute_range(factor, start, len)
        });
        Self::merge(&parts)
    }

    /// The partial aggregates of the contiguous path shard
    /// `[start, start + len)`: descendant tables still sized to the *full*
    /// per-level dictionaries (shards share the factor's dictionaries, so
    /// codes index identically across shards) but counting only the shard's
    /// leaves; run and `COF` tables scanned over the shard's code-column
    /// slice. `compute(f)` is exactly `compute_range(f, 0, f.leaf_count())`,
    /// and any shard partition of the range merges back to it via
    /// [`EncodedHierarchyAggregates::merge`].
    pub fn compute_range(factor: &EncodedFactor, start: usize, len: usize) -> Self {
        // Per-shard scan span (serial `compute` is the one-shard case).
        let _span = StageTimer::start(Stage::Scan);
        let depth = factor.depth();
        let end = start + len;
        debug_assert!(end <= factor.leaf_count());
        let leaf_count = len as f64;
        let mut desc: Vec<Vec<f64>> = (0..depth)
            .map(|level| vec![0.0; factor.cardinality(level)])
            .collect();
        let mut runs: Vec<Vec<(u32, f64)>> = vec![Vec::new(); depth];

        if depth > 0 {
            // Leaf level: every path contributes one leaf.
            let leaf = depth - 1;
            for &code in &factor.levels[leaf].codes[start..end] {
                desc[leaf][code as usize] += 1.0;
            }
            runs[leaf] = factor
                .level_runs_range(leaf, start, len)
                .into_iter()
                .map(|(c, n)| (c, n as f64))
                .collect();
            // Shallower levels reuse the level below (work sharing): a value's
            // descendant count is the sum of its children's descendant counts.
            // The child run table was materialised by the previous iteration,
            // so no level's code column is scanned twice.
            for level in (0..leaf).rev() {
                let mut path_idx = start;
                for &(_, child_leaves) in &runs[level + 1] {
                    let parent = factor.code(level, path_idx) as usize;
                    desc[level][parent] += child_leaves;
                    path_idx += child_leaves as usize;
                }
                runs[level] = factor
                    .level_runs_range(level, start, len)
                    .into_iter()
                    .map(|(c, n)| (c, n as f64))
                    .collect();
            }
        }

        EncodedHierarchyAggregates {
            leaf_count,
            desc,
            runs,
            cofs: Self::cof_tables_range(factor, start, len),
        }
    }

    /// Exactly merge per-shard partial aggregates (in shard order) back into
    /// the unsharded state:
    ///
    /// * descendant tables are summed code-wise (shards share one dictionary,
    ///   so code `c` means the same value everywhere; integer `f64` sums are
    ///   exact in any grouping);
    /// * run and `COF` tables are concatenated, joining the boundary entries
    ///   when a run was split by a shard cut (runs are maximal *within* a
    ///   shard, so only the first entry of a shard can extend the last entry
    ///   of the previous one).
    ///
    /// # Panics
    /// Panics on an empty `parts` slice or mismatched table shapes (shards
    /// of different factors).
    pub fn merge(parts: &[EncodedHierarchyAggregates]) -> Self {
        let _span = StageTimer::start(Stage::Merge);
        let first = parts.first().expect("merge of at least one shard");
        let depth = first.desc.len();
        let leaf_count = parts.iter().map(|p| p.leaf_count).sum();
        let mut desc = first.desc.clone();
        for part in &parts[1..] {
            assert_eq!(part.desc.len(), depth, "shards must share one factor");
            for (level, table) in part.desc.iter().enumerate() {
                assert_eq!(
                    table.len(),
                    desc[level].len(),
                    "shards must share one dictionary"
                );
                for (acc, v) in desc[level].iter_mut().zip(table) {
                    *acc += v;
                }
            }
        }
        let runs = (0..depth)
            .map(|level| merge_boundary_runs(parts.iter().map(|p| &p.runs[level])))
            .collect();
        let cofs = (0..depth * depth)
            .map(|pair| merge_boundary_cofs(parts.iter().map(|p| &p.cofs[pair])))
            .collect();
        EncodedHierarchyAggregates {
            leaf_count,
            desc,
            runs,
            cofs,
        }
    }

    /// Same-hierarchy `COF` tables for every (shallower, deeper) level pair
    /// over the path shard `[start, start + len)`, from one linear scan of
    /// the code columns per pair.
    fn cof_tables_range(
        factor: &EncodedFactor,
        start: usize,
        len: usize,
    ) -> Vec<Vec<(u32, u32, f64)>> {
        let depth = factor.depth();
        let end = start + len;
        let mut cofs = vec![Vec::new(); depth * depth];
        for l1 in 0..depth {
            let c1 = &factor.levels[l1].codes;
            for l2 in (l1 + 1)..depth {
                let c2 = &factor.levels[l2].codes;
                let table = &mut cofs[l1 * depth + l2];
                let mut i = start;
                while i < end {
                    let a = c1[i];
                    let b = c2[i];
                    let run_start = i;
                    while i < end && c1[i] == a && c2[i] == b {
                        i += 1;
                    }
                    table.push((a, b, (i - run_start) as f64));
                }
            }
        }
        cofs
    }
}

/// Concatenate per-shard run tables in shard order, joining the boundary
/// entries when one code's run was split by a shard cut. Within a shard runs
/// are maximal (adjacent entries never share a code), so joining "current
/// head extends previous tail" exactly reconstructs the unsharded scan.
fn merge_boundary_runs<'a>(chunks: impl Iterator<Item = &'a Vec<(u32, f64)>>) -> Vec<(u32, f64)> {
    let mut merged: Vec<(u32, f64)> = Vec::new();
    for chunk in chunks {
        let mut rest = &chunk[..];
        if let (Some(&(code, count)), Some(last)) = (rest.first(), merged.last_mut()) {
            if last.0 == code {
                last.1 += count;
                rest = &rest[1..];
            }
        }
        merged.extend_from_slice(rest);
    }
    merged
}

/// [`merge_boundary_runs`] for `COF` tables: entries are maximal runs of a
/// `(parent, child)` code pair, so only a shard's first entry can extend the
/// previous shard's last.
fn merge_boundary_cofs<'a>(
    chunks: impl Iterator<Item = &'a Vec<(u32, u32, f64)>>,
) -> Vec<(u32, u32, f64)> {
    let mut merged: Vec<(u32, u32, f64)> = Vec::new();
    for chunk in chunks {
        let mut rest = &chunk[..];
        if let (Some(&(a, b, count)), Some(last)) = (rest.first(), merged.last_mut()) {
            if last.0 == a && last.1 == b {
                last.2 += count;
                rest = &rest[1..];
            }
        }
        merged.extend_from_slice(rest);
    }
    merged
}

/// A cross-column `COF` view over codes: either a materialised same-hierarchy
/// table or an implicit cross-hierarchy product.
#[derive(Debug)]
pub enum EncodedCofPairs<'a> {
    /// Same hierarchy: raw `(a, b, count)` entries plus the global suffix
    /// scale to apply per entry.
    Materialized {
        /// raw `(parent code, child code, descendant leaves)` entries
        entries: &'a [(u32, u32, f64)],
        /// global scaling factor applied per entry
        scale: f64,
    },
    /// Different hierarchies: `COF[a,b] = left[a] * right[b] * scale`.
    Independent {
        /// descendant counts for the left column's hierarchy, code-indexed
        left: &'a [f64],
        /// descendant counts for the right column's hierarchy, code-indexed
        right: &'a [f64],
        /// global scaling factor
        scale: f64,
    },
}

/// All decomposed aggregates `TOTAL`, `COUNT`, `COF` (Section 4.2.1) of an
/// [`EncodedFactorization`], defined on the attribute order `A_n, ..., A_1`:
///
/// * `TOTAL_A` — the number of distinct rows of the matrix projected onto
///   the columns from `A` rightwards;
/// * `COUNT_A[v]` — the same count restricted to rows with `A = v`;
/// * `COF_{A,B}[a,b]` — the count grouped by both `A` and `B`.
///
/// Within a hierarchy these reduce to descendant-leaf counts; across
/// hierarchies they factor into products of per-hierarchy counts (the
/// independence optimisation of Section 4.3), so cross-hierarchy `COF`s are
/// never materialised.
#[derive(Debug, Clone)]
pub struct EncodedAggregates {
    positions: Vec<AttrPosition>,
    per_hierarchy: Vec<Arc<EncodedHierarchyAggregates>>,
    leaf_counts: Vec<f64>,
}

impl EncodedAggregates {
    /// Compute the aggregates for every column of `fact` on the execution
    /// context `exec` — each hierarchy's batch runs through
    /// [`EncodedHierarchyAggregates::compute`], so all four contexts
    /// (serial, pool, exact shards, worker processes) are available and
    /// bit-identical.
    pub fn compute(fact: &EncodedFactorization, exec: &Exec) -> Self {
        let per_hierarchy: Vec<Arc<EncodedHierarchyAggregates>> = fact
            .factors()
            .iter()
            .map(|f| Arc::new(EncodedHierarchyAggregates::compute(f, exec)))
            .collect();
        EncodedAggregates {
            positions: (0..fact.n_cols()).map(|c| fact.position(c)).collect(),
            leaf_counts: per_hierarchy.iter().map(|h| h.leaf_count).collect(),
            per_hierarchy,
        }
    }

    /// Per-hierarchy aggregates, in factorisation order.
    pub fn per_hierarchy(&self) -> &[Arc<EncodedHierarchyAggregates>] {
        &self.per_hierarchy
    }

    /// Number of columns covered.
    pub fn n_cols(&self) -> usize {
        self.positions.len()
    }

    fn pos(&self, column: usize) -> AttrPosition {
        self.positions[column]
    }

    /// Product of leaf counts of hierarchies strictly after `h`.
    fn later_product(&self, h: usize) -> f64 {
        self.leaf_counts[h + 1..].iter().product()
    }

    /// Product of leaf counts of hierarchies strictly before `h`.
    fn earlier_product(&self, h: usize) -> f64 {
        self.leaf_counts[..h].iter().product()
    }

    /// `TOTAL` over the whole matrix: the number of conceptual rows.
    pub fn grand_total(&self) -> f64 {
        self.leaf_counts.iter().product()
    }

    /// `TOTAL_A` for the column at `column`.
    pub fn total(&self, column: usize) -> f64 {
        let p = self.pos(column);
        self.per_hierarchy[p.hierarchy].leaf_count * self.later_product(p.hierarchy)
    }

    /// How many times the suffix pattern starting at `column` repeats.
    pub fn repetitions(&self, column: usize) -> f64 {
        let p = self.pos(column);
        self.earlier_product(p.hierarchy)
    }

    /// `COUNT_A[code]` for the column at `column`.
    pub fn count(&self, column: usize, code: u32) -> f64 {
        let p = self.pos(column);
        let desc = &self.per_hierarchy[p.hierarchy].desc[p.level];
        desc.get(code as usize).copied().unwrap_or(0.0) * self.later_product(p.hierarchy)
    }

    /// The raw (unscaled) code-indexed descendant counts of `column` together
    /// with the global suffix scale. Codes follow sorted value order, so
    /// index order here is value order.
    pub fn counts_raw(&self, column: usize) -> (&[f64], f64) {
        let p = self.pos(column);
        (
            &self.per_hierarchy[p.hierarchy].desc[p.level],
            self.later_product(p.hierarchy),
        )
    }

    /// The raw block-order run table of `column` plus the suffix scale,
    /// borrowed.
    pub fn block_runs_raw(&self, column: usize) -> (&[(u32, f64)], f64) {
        let p = self.pos(column);
        (
            &self.per_hierarchy[p.hierarchy].runs[p.level],
            self.later_product(p.hierarchy),
        )
    }

    /// The `COF` view for two columns `left < right` in attribute order.
    pub fn cof(&self, left: usize, right: usize) -> EncodedCofPairs<'_> {
        assert!(left < right, "cof requires left < right column order");
        let lp = self.pos(left);
        let rp = self.pos(right);
        if lp.hierarchy == rp.hierarchy {
            let agg = &self.per_hierarchy[lp.hierarchy];
            let depth = agg.desc.len();
            EncodedCofPairs::Materialized {
                entries: &agg.cofs[lp.level * depth + rp.level],
                scale: self.later_product(lp.hierarchy),
            }
        } else {
            EncodedCofPairs::Independent {
                left: &self.per_hierarchy[lp.hierarchy].desc[lp.level],
                right: &self.per_hierarchy[rp.hierarchy].desc[rp.level],
                scale: self.later_product(lp.hierarchy) / self.leaf_counts[rp.hierarchy],
            }
        }
    }

    /// `Σ_{a,b} COF_{A,B}[a,b] · f[a] · g[b]` with feature columns as flat
    /// slices — the weighted pair sum the gram operator needs.
    /// Cross-hierarchy pairs use the independence factorisation and never
    /// materialise the product.
    pub fn cof_weighted_sum(&self, left: usize, right: usize, f: &[f64], g: &[f64]) -> f64 {
        match self.cof(left, right) {
            EncodedCofPairs::Materialized { entries, scale } => entries
                .iter()
                .map(|&(a, b, c)| (c * scale) * f[a as usize] * g[b as usize])
                .sum(),
            EncodedCofPairs::Independent { left, right, scale } => {
                let ls: f64 = left.iter().zip(f).map(|(c, fv)| c * fv).sum();
                let rs: f64 = right.iter().zip(g).map(|(c, gv)| c * gv).sum();
                ls * rs * scale
            }
        }
    }

    /// `Σ_a COUNT_A[a] · f[a]` over a code-indexed weight slice.
    pub fn count_weighted_sum(&self, column: usize, f: impl Fn(usize) -> f64) -> f64 {
        let (desc, scale) = self.counts_raw(column);
        desc.iter()
            .enumerate()
            .map(|(code, c)| (c * scale) * f(code))
            .sum()
    }
}

/// Code-indexed feature columns: the flat mirror of [`FeatureMap`].
#[derive(Debug, Clone, Default)]
pub struct EncodedFeatureMap {
    columns: Vec<Vec<f64>>,
}

impl EncodedFeatureMap {
    /// Bake a `Value`-keyed feature map into code-indexed columns using the
    /// factorisation's dictionaries (missing values take the map's default).
    pub fn encode(features: &FeatureMap, fact: &EncodedFactorization) -> Self {
        let columns = (0..fact.n_cols())
            .map(|c| {
                fact.dict(c)
                    .values()
                    .iter()
                    .map(|v| features.value(c, v))
                    .collect()
            })
            .collect();
        EncodedFeatureMap { columns }
    }

    /// The `Value`-keyed feature map of these columns over `fact`'s
    /// dictionaries (what the dense baselines materialise): one entry per
    /// value some path carries; codes no path carries are left to the
    /// map's default.
    pub fn decode(&self, fact: &EncodedFactorization) -> FeatureMap {
        let mut features = FeatureMap::zeros(self.columns.len());
        for (c, column) in self.columns.iter().enumerate() {
            let pos = fact.position(c);
            let level = &fact.factors()[pos.hierarchy].levels[pos.level];
            for (code, carried) in level.carried_codes().into_iter().enumerate() {
                if carried {
                    features.set(c, level.dict.value(code as u32).clone(), column[code]);
                }
            }
        }
        features
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Look up the feature value of `code` in `column`.
    #[inline]
    pub fn value(&self, column: usize, code: u32) -> f64 {
        self.columns[column][code as usize]
    }

    /// The full code-indexed feature column.
    pub fn column(&self, column: usize) -> &[f64] {
        &self.columns[column]
    }

    /// Wrap code-indexed columns built directly by a design builder (one
    /// column per design column, indexed by the level's codes).
    pub fn from_columns(columns: Vec<Vec<f64>>) -> Self {
        EncodedFeatureMap { columns }
    }
}

/// Everything the factorised operators need about one training design:
/// the encoded factorisation, the code-indexed features, and the aggregates.
#[derive(Debug, Clone)]
pub struct EncodedDesign {
    /// The dictionary-encoded factorisation.
    pub factorization: EncodedFactorization,
    /// Code-indexed feature columns.
    pub features: EncodedFeatureMap,
    /// The decomposed aggregates over codes.
    pub aggregates: EncodedAggregates,
}

// ---------------------------------------------------------------------------
// Factorised operators on codes (Algorithms 2–4)
// ---------------------------------------------------------------------------

/// The gram cell `(p, q)` (upper triangle, `p <= q`) — the one place the
/// per-entry floating-point sequence lives, shared by the serial and the
/// sharded gram so they cannot drift.
#[inline]
fn gram_entry(aggs: &EncodedAggregates, features: &EncodedFeatureMap, p: usize, q: usize) -> f64 {
    let fp = features.column(p);
    if p == q {
        aggs.repetitions(p)
            * aggs.count_weighted_sum(p, |code| {
                let f = fp[code];
                f * f
            })
    } else {
        aggs.repetitions(p) * aggs.cof_weighted_sum(p, q, fp, features.column(q))
    }
}

/// Factorised gram matrix `Xᵀ·X` (Algorithm 2): per column pair, the
/// `COUNT`/`COF`-weighted feature sums scaled by the duplication factor
/// `TOTAL_first / TOTAL_A`, with the upper-triangle cells fanned out over
/// `par`'s threads. The gram's
/// operands (aggregates and baked features) live on the coordinator, so
/// this operator takes the local thread budget directly
/// ([`Exec::parallelism`]) and never goes remote. Per-shard partials fill
/// disjoint cells of the one SPD system, and every cell runs the identical
/// serial accumulation (`gram_entry`), so the matrix is bit-identical for
/// any budget.
pub fn gram(aggs: &EncodedAggregates, features: &EncodedFeatureMap, par: &Parallelism) -> Matrix {
    let m = aggs.n_cols();
    let mut out = Matrix::zeros(m, m);
    if par.is_serial() {
        for p in 0..m {
            out.set(p, p, gram_entry(aggs, features, p, p));
            for q in (p + 1)..m {
                let val = gram_entry(aggs, features, p, q);
                out.set(p, q, val);
                out.set(q, p, val);
            }
        }
        return out;
    }
    let pairs = gram_pairs(m);
    let values = par.map_items(pairs.len(), |i| {
        let (p, q) = pairs[i];
        gram_entry(aggs, features, p, q)
    });
    for (&(p, q), &val) in pairs.iter().zip(&values) {
        out.set(p, q, val);
        out.set(q, p, val);
    }
    out
}

/// The canonical upper-triangle cell enumeration of an `m × m` gram matrix:
/// `(p, q)` with `p <= q` in row-major order — the cells the sharded gram
/// fans over threads.
fn gram_pairs(m: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::with_capacity(m * (m + 1) / 2);
    for p in 0..m {
        for q in p..m {
            pairs.push((p, q));
        }
    }
    pairs
}

/// One output cell of the factorised left multiplication: `row i of A` (as a
/// prefix sum) against column `p` of the conceptual matrix. Shared by the
/// serial and the sharded left multiplication.
#[inline]
fn left_mult_entry(
    prefix: &PrefixSum,
    aggs: &EncodedAggregates,
    features: &EncodedFeatureMap,
    p: usize,
    n: usize,
) -> f64 {
    let (runs, scale) = aggs.block_runs_raw(p);
    let fp = features.column(p);
    let reps = aggs.repetitions(p) as usize;
    let mut acc = 0.0;
    let mut start = 0usize;
    for _ in 0..reps {
        for &(code, count) in runs {
            let len = (count * scale) as usize;
            let range = prefix.range_sum(start, start + len);
            acc += fp[code as usize] * range;
            start += len;
        }
    }
    debug_assert_eq!(start, n);
    acc
}

/// Factorised left multiplication `A·X` (Algorithm 3): per-row prefix sums
/// of `A` sum the contiguous duplicates of each attribute value in O(1).
pub fn left_mult(a: &Matrix, aggs: &EncodedAggregates, features: &EncodedFeatureMap) -> Matrix {
    let m = aggs.n_cols();
    let n = aggs.grand_total() as usize;
    assert_eq!(
        a.cols(),
        n,
        "left operand must have as many columns as the factorised matrix has rows"
    );
    let mut out = Matrix::zeros(a.rows(), m);
    for i in 0..a.rows() {
        let prefix = PrefixSum::new(a.row(i));
        for p in 0..m {
            out.set(i, p, left_mult_entry(&prefix, aggs, features, p, n));
        }
    }
    out
}

/// `Xᵀ·v` for a column vector `v`, via the factorised left multiplication,
/// with the per-column accumulations fanned out over `par` (the prefix sum
/// over `v` is built once and shared read-only). Like [`gram`], the
/// operands are coordinator-resident, so the operator takes the local
/// thread budget directly and never goes remote. Each column runs
/// `left_mult_entry` exactly as the serial path does, so the result vector
/// is bit-identical for any budget.
pub fn transpose_vec_mult(
    v: &[f64],
    aggs: &EncodedAggregates,
    features: &EncodedFeatureMap,
    par: &Parallelism,
) -> Vec<f64> {
    if par.is_serial() {
        let row = Matrix::row_vector(v);
        let res = left_mult(&row, aggs, features);
        return res.row(0).to_vec();
    }
    let n = aggs.grand_total() as usize;
    assert_eq!(
        v.len(),
        n,
        "vector operand must have as many entries as the factorised matrix has rows"
    );
    let prefix = PrefixSum::new(v);
    par.map_items(aggs.n_cols(), |p| {
        left_mult_entry(&prefix, aggs, features, p, n)
    })
}

/// The changes between two consecutive rows of the conceptual matrix, in
/// code space.
#[derive(Debug, Clone)]
pub struct EncodedRowDelta {
    /// Index of the row these changes produce.
    pub row: usize,
    /// `(column, new code)` pairs in increasing column order; the first row
    /// lists every column.
    pub changes: Vec<(usize, u32)>,
}

/// Delta-based row iterator (Algorithm 1) over an [`EncodedFactorization`]:
/// adjacent rows of the conceptual matrix differ in only a few trailing
/// columns, so each step yields just the `(column, code)` changes.
#[derive(Debug)]
pub struct EncodedRowIter<'a> {
    fact: &'a EncodedFactorization,
    indices: Vec<usize>,
    row: usize,
    n_rows: usize,
}

impl<'a> EncodedRowIter<'a> {
    /// Create an iterator positioned before the first row.
    pub fn new(fact: &'a EncodedFactorization) -> Self {
        EncodedRowIter {
            fact,
            indices: vec![0; fact.factors().len()],
            row: 0,
            n_rows: fact.n_rows(),
        }
    }

    fn first_row_delta(&self) -> EncodedRowDelta {
        let mut changes = Vec::with_capacity(self.fact.n_cols());
        for (h, factor) in self.fact.factors().iter().enumerate() {
            for level in 0..factor.depth() {
                changes.push((self.fact.column_of(h, level), factor.code(level, 0)));
            }
        }
        EncodedRowDelta { row: 0, changes }
    }
}

impl<'a> Iterator for EncodedRowIter<'a> {
    type Item = EncodedRowDelta;

    fn next(&mut self) -> Option<Self::Item> {
        if self.row >= self.n_rows || self.n_rows == 0 {
            return None;
        }
        if self.row == 0 {
            self.row = 1;
            return Some(self.first_row_delta());
        }
        // Advance the mixed-radix counter (last hierarchy fastest) and record
        // which hierarchies changed path.
        let mut changed: Vec<(usize, usize, usize)> = Vec::new();
        let mut h = self.fact.factors().len();
        while h > 0 {
            h -= 1;
            let leafs = self.fact.factors()[h].leaf_count();
            let old = self.indices[h];
            let new = (old + 1) % leafs;
            self.indices[h] = new;
            changed.push((h, old, new));
            if new != 0 {
                break;
            }
        }
        let mut changes: Vec<(usize, u32)> = Vec::new();
        for (h, old, new) in changed {
            let factor = &self.fact.factors()[h];
            for level in 0..factor.depth() {
                let new_code = factor.code(level, new);
                if factor.code(level, old) != new_code {
                    changes.push((self.fact.column_of(h, level), new_code));
                }
            }
        }
        changes.sort_by_key(|(c, _)| *c);
        let delta = EncodedRowDelta {
            row: self.row,
            changes,
        };
        self.row += 1;
        Some(delta)
    }
}

/// Factorised right multiplication `X·A` (Algorithm 4). The output is
/// materialised (`n × A.cols()`); each row's dot products are updated
/// incrementally from the previous row through the delta row iterator.
pub fn right_mult(fact: &EncodedFactorization, features: &EncodedFeatureMap, a: &Matrix) -> Matrix {
    let m = fact.n_cols();
    let n = fact.n_rows();
    assert_eq!(
        a.rows(),
        m,
        "right operand must have as many rows as the factorised matrix has columns"
    );
    let p = a.cols();
    let mut out = Matrix::zeros(n, p);
    let mut current = vec![0.0f64; m];
    let mut dots = vec![0.0f64; p];
    for delta in EncodedRowIter::new(fact) {
        for &(col, code) in &delta.changes {
            let new_f = features.value(col, code);
            let old_f = current[col];
            if new_f != old_f {
                for (j, d) in dots.iter_mut().enumerate() {
                    *d += (new_f - old_f) * a.get(col, j);
                }
                current[col] = new_f;
            }
        }
        for (j, d) in dots.iter().enumerate() {
            out.set(delta.row, j, *d);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_example, three_hierarchies};
    use reptile_linalg::naive;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn encoding_round_trips_through_dictionaries() {
        let (fact, _) = paper_example();
        let enc = EncodedFactorization::encode(&fact);
        assert_eq!(enc.n_cols(), fact.n_cols());
        assert_eq!(enc.n_rows(), fact.n_rows());
        for (h, factor) in fact.hierarchies().iter().enumerate() {
            let ef = &enc.factors()[h];
            for level in 0..factor.depth() {
                for (i, path) in factor.paths.iter().enumerate() {
                    let code = ef.code(level, i);
                    assert_eq!(ef.levels[level].dict.value(code), &path[level]);
                }
            }
        }
    }

    /// The encoded `COUNT` and block-run tables, decoded to the `Value`-keyed
    /// form (per-value counts in value order, runs in path order), are
    /// bit-identical to that form built by brute force over
    /// `materialize_values`.
    #[test]
    fn encoded_aggregates_are_bit_identical_to_legacy() {
        for fact in [paper_example().0, three_hierarchies()] {
            let enc = EncodedFactorization::encode(&fact);
            let aggs = EncodedAggregates::compute(&enc, &Exec::Serial);
            let rows = fact.materialize_values();
            for c in 0..fact.n_cols() {
                // Distinct suffixes from `c`, in the order the rows first
                // reach them.
                let mut seen = BTreeSet::new();
                let mut counts: BTreeMap<&Value, f64> = BTreeMap::new();
                let mut runs: Vec<(&Value, f64)> = Vec::new();
                for suffix in rows.iter().map(|r| &r[c..]) {
                    if !seen.insert(suffix) {
                        continue;
                    }
                    *counts.entry(&suffix[0]).or_insert(0.0) += 1.0;
                    match runs.last_mut() {
                        Some((v, n)) if *v == &suffix[0] => *n += 1.0,
                        _ => runs.push((&suffix[0], 1.0)),
                    }
                }
                let (desc, scale) = aggs.counts_raw(c);
                assert_eq!(desc.len(), counts.len(), "COUNT col {c}");
                for ((value, count), (code, d)) in counts.iter().zip(desc.iter().enumerate()) {
                    assert_eq!(enc.dict(c).value(code as u32), *value);
                    assert_eq!(*count, d * scale, "COUNT col {c} value {value}");
                }
                let (enc_runs, run_scale) = aggs.block_runs_raw(c);
                let decoded: Vec<(&Value, f64)> = enc_runs
                    .iter()
                    .map(|&(code, n)| (enc.dict(c).value(code), n * run_scale))
                    .collect();
                assert_eq!(decoded, runs, "block runs col {c}");
            }
        }
    }

    /// On dyadic operands every product and partial sum is exact in `f64`,
    /// so the encoded operators equal the dense products over the
    /// materialised matrix bit for bit, whatever their summation order.
    #[test]
    fn encoded_ops_are_bit_identical_to_legacy_ops() {
        let (fact, features) = paper_example();
        let enc = EncodedFactorization::encode(&fact);
        let aggs = EncodedAggregates::compute(&enc, &Exec::Serial);
        let enc_features = EncodedFeatureMap::encode(&features, &enc);
        let x = fact.materialize(&features);
        let (n, m) = (fact.n_rows(), fact.n_cols());
        let dyadic = |rows: usize, cols: usize, seed: usize| {
            Matrix::from_fn(rows, cols, |r, c| {
                ((r * 7 + c * 3 + seed) % 9) as f64 * 0.25 - 1.0
            })
        };

        assert_eq!(
            gram(&aggs, &enc_features, &Parallelism::serial()),
            naive::gram(&x).unwrap()
        );

        let a = dyadic(3, n, 5);
        assert_eq!(
            left_mult(&a, &aggs, &enc_features),
            naive::left_mult(&a, &x).unwrap()
        );

        let b = dyadic(m, 2, 17);
        assert_eq!(
            right_mult(&enc, &enc_features, &b),
            naive::right_mult(&x, &b).unwrap()
        );

        let v: Vec<f64> = (0..n).map(|i| i as f64 * 0.5 - 1.0).collect();
        let xtv = x.transpose().matmul(&Matrix::column_vector(&v)).unwrap();
        assert_eq!(
            transpose_vec_mult(&v, &aggs, &enc_features, &Parallelism::serial()),
            (0..m).map(|i| xtv.get(i, 0)).collect::<Vec<f64>>()
        );
    }

    /// Each delta, decoded, lists exactly the columns in which the
    /// materialised value row differs from the row before it (every column
    /// for the first row).
    #[test]
    fn encoded_row_iter_mirrors_value_row_iter() {
        for fact in [paper_example().0, three_hierarchies()] {
            let enc = EncodedFactorization::encode(&fact);
            let rows = fact.materialize_values();
            let deltas: Vec<EncodedRowDelta> = EncodedRowIter::new(&enc).collect();
            assert_eq!(deltas.len(), rows.len());
            for (r, delta) in deltas.iter().enumerate() {
                assert_eq!(delta.row, r);
                let expected: Vec<(usize, &Value)> = (0..fact.n_cols())
                    .filter(|&c| r == 0 || rows[r][c] != rows[r - 1][c])
                    .map(|c| (c, &rows[r][c]))
                    .collect();
                let got: Vec<(usize, &Value)> = delta
                    .changes
                    .iter()
                    .map(|&(c, code)| (c, enc.dict(c).value(code)))
                    .collect();
                assert_eq!(got, expected, "row {r}");
            }
        }
    }

    #[test]
    fn empty_factor_is_handled() {
        let empty = HierarchyFactor::from_paths("empty", vec![AttrId(0)], Vec::new());
        let enc = EncodedFactorization::encode(&Factorization::new(vec![empty]));
        assert_eq!(enc.n_rows(), 0);
        let aggs = EncodedAggregates::compute(&enc, &Exec::Serial);
        assert_eq!(aggs.grand_total(), 0.0);
        assert_eq!(EncodedRowIter::new(&enc).count(), 0);
    }

    #[test]
    fn every_exec_context_is_bit_identical_to_serial() {
        let (fact, _) = paper_example();
        let enc = EncodedFactorization::encode(&fact);
        for factor in enc.factors() {
            let serial = EncodedHierarchyAggregates::compute(factor, &Exec::Serial);
            for shards in [1, 2, 3, 7, 64] {
                assert_eq!(
                    serial,
                    EncodedHierarchyAggregates::compute(factor, &Exec::Shards(shards)),
                    "{shards} shards"
                );
            }
            for threads in [1, 2, 4] {
                assert_eq!(
                    serial,
                    EncodedHierarchyAggregates::compute(factor, &Exec::pool(threads)),
                    "{threads}-thread pool"
                );
            }
        }
    }

    /// A fleet that is down: every transport call fails.
    struct Down;

    impl reptile_relational::RemoteTransport for Down {
        fn workers(&self) -> usize {
            2
        }
        fn ensure_relation(
            &self,
            _relation: &Arc<reptile_relational::Relation>,
        ) -> Result<Vec<(usize, usize)>, reptile_relational::RemoteError> {
            Err(reptile_relational::RemoteError::Transport("down".into()))
        }
        fn scatter(
            &self,
            _op: u8,
            _requests: Vec<Option<Vec<u8>>>,
        ) -> Result<Vec<Option<Vec<u8>>>, reptile_relational::RemoteError> {
            Err(reptile_relational::RemoteError::Transport("down".into()))
        }
    }

    /// Hierarchy aggregates never touch the transport: under a `Remote`
    /// whose every call fails they are `==` serial, at any local budget and
    /// over a later epoch whose dictionaries appended codes out of value
    /// order (as a relation's ingest does), and nothing falls back.
    #[test]
    fn remote_aggregates_run_in_process_and_never_touch_the_transport() {
        let (fact, _) = paper_example();
        let enc = EncodedFactorization::encode(&fact);
        // geo's next epoch: (d1, v2) is gone and (a0, v9) arrived. "a0"
        // sorts first but takes the next free district code; "v2" keeps its
        // code although no path carries it.
        let geo = &enc.factors()[1];
        let mut districts = geo.levels[0].dict.clone();
        let mut villages = geo.levels[1].dict.clone();
        let a0 = districts.code_or_insert(&Value::str("a0"));
        let v9 = villages.code_or_insert(&Value::str("v9"));
        assert_eq!(
            districts.ranks()[a0 as usize],
            0,
            "appended out of value order"
        );
        let code = |dict: &ValueDict, v: &str| dict.code_of(&Value::str(v)).unwrap();
        let district_codes = vec![a0, code(&districts, "d1"), code(&districts, "d2")];
        let village_codes = vec![v9, code(&villages, "v1"), code(&villages, "v3")];
        let next_geo = EncodedFactor::from_levels(
            geo.name.clone(),
            geo.attrs.clone(),
            vec![
                EncodedLevel {
                    dict: districts,
                    codes: Arc::new(district_codes),
                },
                EncodedLevel {
                    dict: villages,
                    codes: Arc::new(village_codes),
                },
            ],
        );
        let next = EncodedFactorization::new(vec![enc.factors()[0].clone(), Arc::new(next_geo)]);
        let before = reptile_obs::counter_value(reptile_obs::Counter::RemoteFallbacks);
        for local in [1, 2, 4] {
            let exec = Exec::Remote(
                reptile_relational::Remote::new(Arc::new(Down)).with_local(Parallelism::new(local)),
            );
            for (epoch, enc) in [&enc, &next].into_iter().enumerate() {
                for factor in enc.factors() {
                    assert_eq!(
                        EncodedHierarchyAggregates::compute(factor, &Exec::Serial),
                        EncodedHierarchyAggregates::compute(factor, &exec),
                        "{} at epoch {epoch}, {local} local threads",
                        factor.name
                    );
                }
                let serial_all = EncodedAggregates::compute(enc, &Exec::Serial);
                let remote_all = EncodedAggregates::compute(enc, &exec);
                assert_eq!(serial_all.per_hierarchy(), remote_all.per_hierarchy());
            }
        }
        assert_eq!(
            reptile_obs::counter_value(reptile_obs::Counter::RemoteFallbacks),
            before
        );
    }
}
