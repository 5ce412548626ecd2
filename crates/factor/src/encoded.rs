//! Dictionary-encoded columnar backend for the factorised operators.
//!
//! The `Value`-keyed representation ([`Factorization`] +
//! [`DecomposedAggregates`](crate::aggregates::DecomposedAggregates)) pays an
//! `Arc<str>` clone plus an `O(log n)` string-comparison `BTreeMap` lookup for
//! every path/value touch on the operator hot paths. This module replaces
//! those with dense integer codes:
//!
//! * [`EncodedFactor`] — one hierarchy stored *columnar*: per level a
//!   [`ValueDict`] (sorted domain → dense `u32` codes) and the level's code
//!   column in path order;
//! * [`EncodedFactorization`] — the ordered hierarchy factors plus column
//!   offsets, `Arc`-shared so drill-down caches reuse them without copies;
//! * [`EncodedHierarchyAggregates`] / [`EncodedAggregates`] — the
//!   `TOTAL`/`COUNT`/`COF` batch of Section 4.2.1 as code-indexed `Vec<f64>`
//!   descendant tables and run/COF tables of `(u32, f64)` pairs;
//! * [`EncodedFeatureMap`] — per column a flat `Vec<f64>` indexed by code;
//! * [`gram`], [`left_mult`], [`right_mult`], [`transpose_vec_mult`] — the
//!   factorised operators of Algorithms 2–4 running on codes end-to-end.
//!
//! Codes are assigned in sorted `Value` order, and every loop below iterates
//! in exactly the same order (and performs the same floating-point operation
//! sequence) as its `Value`-keyed counterpart, so results are **bit-identical**
//! to the legacy path — the equivalence property tests assert `==`, not
//! tolerance. Decoding back to [`Value`] happens only at the explanation/API
//! boundary via the per-level dictionaries.

use crate::factorization::{AttrPosition, Factorization, HierarchyFactor};
use crate::feature::FeatureMap;
use crate::parallel::Parallelism;
use crate::payload;
use reptile_linalg::{Matrix, PrefixSum};
use reptile_obs::{add_counter, Counter, Stage, StageTimer};
use reptile_relational::exec::{scatter_fold_in_order, DOMAIN_FACTOR, OP_AGG_RANGE};
use reptile_relational::{AttrId, Exec, Remote, RemoteError, Value, ValueDict};
use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

/// Which factor execution path an operator/design runs on. The legacy
/// `Value`-keyed path stays available so the encoded backend can be
/// benchmarked and equivalence-tested against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FactorBackend {
    /// `Value`-keyed `BTreeMap` aggregates and operators (the original path).
    Legacy,
    /// Dictionary-encoded columnar codes (the default).
    #[default]
    Encoded,
}

/// One level of an encoded hierarchy: its domain dictionary and the dense
/// code column in (value-sorted) path order.
///
/// The code column is `Arc`-shared so that [`EncodedFactor::apply_delta`]
/// can hand untouched columns to the next snapshot without copying them, and
/// cloning a factor (e.g. into a cache entry) costs pointer bumps per level.
#[derive(Debug, Clone)]
pub struct EncodedLevel {
    /// Domain of the level; sorted-rank codes at construction, with appended
    /// codes for values first seen by a later delta (see
    /// [`ValueDict::extend_with`]).
    pub dict: ValueDict,
    /// The level's value codes, one per path, in path order.
    pub codes: Arc<Vec<u32>>,
}

impl EncodedLevel {
    /// Per code, whether some path carries it. Every code of a freshly
    /// built level is carried; a delta-maintained dictionary also keeps the
    /// codes of values whose last path vanished.
    pub fn carried_codes(&self) -> Vec<bool> {
        let mut carried = vec![false; self.dict.len()];
        for &code in self.codes.iter() {
            carried[code as usize] = true;
        }
        carried
    }
}

/// A dictionary-encoded hierarchy factor (columnar layout).
#[derive(Debug)]
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
    /// Lazily computed content fingerprint (FNV-1a over the wire encoding)
    /// — the `(DOMAIN_FACTOR, key)` remote state key. Content-addressing
    /// makes stale worker state impossible by construction: a post-ingest
    /// snapshot is a *different* factor with a different fingerprint, so it
    /// ships under a new key instead of silently aliasing the old one.
    fingerprint: OnceLock<u64>,
}

impl Clone for EncodedFactor {
    fn clone(&self) -> Self {
        EncodedFactor {
            name: self.name.clone(),
            attrs: self.attrs.clone(),
            levels: self.levels.clone(),
            leaf_count: self.leaf_count,
            run_starts: self.run_starts.clone(),
            // `OnceLock` is not `Clone`; carry the computed value over so a
            // cached clone never re-hashes.
            fingerprint: match self.fingerprint.get() {
                Some(&fp) => {
                    let lock = OnceLock::new();
                    let _ = lock.set(fp);
                    lock
                }
                None => OnceLock::new(),
            },
        }
    }
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
            fingerprint: OnceLock::new(),
        }
    }

    /// Reassemble a factor from its levels — the wire decode path
    /// ([`payload::decode_factor`]). The leaf count is the (shared) code
    /// column length and the run tables are rebuilt; dictionaries arrive in
    /// the encoder's code order, so the result is structurally identical to
    /// the factor that was encoded.
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
            fingerprint: OnceLock::new(),
        }
    }

    /// The factor's content fingerprint: FNV-1a over its wire encoding,
    /// computed once and cached. Coordinator and worker compute the same
    /// value from the same content, so it doubles as an end-to-end shipping
    /// integrity check.
    pub fn fingerprint(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| payload::fnv1a(&payload::encode_factor(self)))
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

    /// Decode the whole factor back to its `Value`-keyed form (the legacy
    /// backends' representation).
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

    /// Apply a path delta, producing the next snapshot of this factor.
    ///
    /// Dictionaries are extended in place (stable codes for existing values,
    /// appended codes for unseen ones — see [`ValueDict::extend_with`]), and
    /// the code columns are spliced by a single merge pass that keeps the
    /// path table in value-sorted order. Compared to a cold re-encode this
    /// skips the per-level dictionary rebuild and the `O(n log |domain|)`
    /// code lookups; only the delta's own paths touch a dictionary.
    ///
    /// `delta.removed` paths must be present and `delta.added` paths absent
    /// (both sorted and distinct) — [`PathDelta::between`] produces exactly
    /// this shape. Violations are caught by debug assertions.
    pub fn apply_delta(&self, delta: &PathDelta) -> EncodedFactor {
        let depth = self.depth();
        debug_assert!(delta.added.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(delta.removed.windows(2).all(|w| w[0] < w[1]));
        // 1. Extend the dictionaries with any unseen values.
        let mut dicts: Vec<ValueDict> = self.levels.iter().map(|l| l.dict.clone()).collect();
        for path in &delta.added {
            debug_assert_eq!(path.len(), depth);
            for (level, dict) in dicts.iter_mut().enumerate() {
                dict.code_or_insert(&path[level]);
            }
        }
        // 2. Merge-splice the code columns in one pass over the old table.
        let target = self.leaf_count + delta.added.len() - delta.removed.len();
        let mut columns: Vec<Vec<u32>> = (0..depth).map(|_| Vec::with_capacity(target)).collect();
        let push_value_path = |columns: &mut Vec<Vec<u32>>, path: &[Value]| {
            for (level, col) in columns.iter_mut().enumerate() {
                col.push(dicts[level].code_of(&path[level]).expect("extended above"));
            }
        };
        let mut add = delta.added.iter().peekable();
        let mut rem = delta.removed.iter().peekable();
        for idx in 0..self.leaf_count {
            while let Some(a) = add.peek() {
                match self.cmp_path(idx, a.iter()) {
                    Ordering::Greater => {
                        push_value_path(&mut columns, a);
                        add.next();
                    }
                    cmp => {
                        debug_assert_ne!(cmp, Ordering::Equal, "added path already present");
                        break;
                    }
                }
            }
            if let Some(r) = rem.peek() {
                if self.cmp_path(idx, r.iter()) == Ordering::Equal {
                    rem.next();
                    continue;
                }
            }
            for (level, col) in columns.iter_mut().enumerate() {
                col.push(self.levels[level].codes[idx]);
            }
        }
        for a in add {
            push_value_path(&mut columns, a);
        }
        debug_assert!(rem.peek().is_none(), "removed path not present in factor");
        let leaf_count = columns.first().map_or(target, Vec::len);
        let levels: Vec<EncodedLevel> = dicts
            .into_iter()
            .zip(columns)
            .map(|(dict, codes)| EncodedLevel {
                dict,
                codes: Arc::new(codes),
            })
            .collect();
        let run_starts = levels
            .iter()
            .map(|l| Arc::new(run_start_table(&l.codes)))
            .collect();
        EncodedFactor {
            name: self.name.clone(),
            attrs: self.attrs.clone(),
            levels,
            leaf_count,
            run_starts,
            fingerprint: OnceLock::new(),
        }
    }
}

/// The distinct-path changes of one hierarchy between two snapshots: paths
/// that appeared and paths that vanished, both in sorted order. This is the
/// unit [`EncodedFactor::apply_delta`] and
/// [`EncodedAggregates::apply_delta`] maintain encoded state from — note it
/// is a *path* delta, not a row delta: a row insert only shows up here if it
/// created a previously-absent path (and a delete only if it removed the
/// last row of one).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PathDelta {
    /// Paths present after but not before, sorted.
    pub added: Vec<Vec<Value>>,
    /// Paths present before but not after, sorted.
    pub removed: Vec<Vec<Value>>,
}

impl PathDelta {
    /// Diff an encoded factor against the next snapshot of the same
    /// hierarchy (both path tables are value-sorted). One merge pass; both
    /// sides compare through their level dictionaries and only the paths
    /// of the delta are decoded.
    pub fn between(factor: &EncodedFactor, next: &EncodedFactor) -> PathDelta {
        let mut delta = PathDelta::default();
        let (mut i, mut j) = (0usize, 0usize);
        while i < factor.leaf_count() && j < next.leaf_count() {
            match factor.cmp_path(i, next.path_values(j)) {
                Ordering::Less => {
                    delta.removed.push(factor.decode_path(i));
                    i += 1;
                }
                Ordering::Greater => {
                    delta.added.push(next.decode_path(j));
                    j += 1;
                }
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        delta
            .removed
            .extend((i..factor.leaf_count()).map(|i| factor.decode_path(i)));
        delta
            .added
            .extend((j..next.leaf_count()).map(|j| next.decode_path(j)));
        delta
    }

    /// Number of path changes.
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Per-hierarchy path deltas for a whole factorisation; `None` marks a
/// hierarchy whose distinct path set did not change (its factor and
/// aggregates are re-shared by `Arc` instead of recomputed).
#[derive(Debug, Clone, Default)]
pub struct FactorizationDelta {
    /// One optional delta per hierarchy, in factorisation order.
    pub per_hierarchy: Vec<Option<PathDelta>>,
}

impl FactorizationDelta {
    /// A delta touching none of `hierarchies` hierarchies.
    pub fn none(hierarchies: usize) -> Self {
        FactorizationDelta {
            per_hierarchy: vec![None; hierarchies],
        }
    }

    /// Set hierarchy `h`'s path delta (builder style).
    pub fn with(mut self, h: usize, delta: PathDelta) -> Self {
        self.per_hierarchy[h] = Some(delta);
        self
    }

    /// Whether no hierarchy has a (non-empty) delta.
    pub fn is_empty(&self) -> bool {
        self.per_hierarchy
            .iter()
            .all(|d| d.as_ref().is_none_or(PathDelta::is_empty))
    }
}

/// The dictionary-encoded factorised matrix: ordered encoded hierarchy
/// factors plus column offsets. Factors are `Arc`-shared so that the
/// drill-down session cache can hand them out without copying code columns.
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

/// Aggregates local to one encoded hierarchy: the code-space mirror of
/// [`HierarchyAggregates`](crate::aggregates::HierarchyAggregates), with
/// dense code-indexed descendant tables instead of `BTreeMap<Value, f64>`.
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
    /// Compute the per-hierarchy aggregates with the same bottom-up work
    /// sharing as the `Value`-keyed path — but every map update is a flat
    /// `Vec` index on a `u32` code.
    ///
    /// `exec` says *where* the scan runs: inline ([`Exec::Serial`]), over
    /// the in-process shard pool at the adaptive width ([`Exec::Pool`]),
    /// over exactly `n` contiguous leaf shards ([`Exec::Shards`]), or
    /// scattered across worker processes ([`Exec::Remote`]) with the
    /// partials merged back on the coordinator. Every context is
    /// bit-identical to serial: all merged quantities are integer-valued
    /// `f64` sums (exact in any grouping) and boundary-split runs re-join
    /// exactly ([`EncodedHierarchyAggregates::merge`]).
    ///
    /// This signature is infallible, so a remote failure (worker gone,
    /// protocol error) falls back to the coordinator-local pool after
    /// bumping the `remote_fallbacks` counter — the result is still exact,
    /// only the placement changed. Distributed deployments gate on
    /// `remote_fallbacks == 0` to catch silent degradation.
    pub fn compute(factor: &EncodedFactor, exec: &Exec) -> Self {
        match exec {
            Exec::Serial => Self::compute_range(factor, 0, factor.leaf_count()),
            Exec::Pool(par) => Self::compute_pool(factor, par),
            Exec::Shards(shards) => {
                // Exactly `shards` contiguous leaf shards, no size threshold
                // — counts past the leaf count are valid, their partials are
                // empty and merge as identities. The exactness property
                // tests drive this arm (and it is the in-process mirror of
                // the per-worker scatter below).
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
            Exec::Remote(remote) => match Self::compute_remote(factor, remote) {
                Ok(aggs) => aggs,
                Err(_) => {
                    add_counter(Counter::RemoteFallbacks, 1);
                    Self::compute_pool(factor, &remote.local())
                }
            },
        }
    }

    /// The [`Exec::Pool`] arm: shard over `par`'s adaptive ranges and merge.
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

    /// The [`Exec::Remote`] arm: ship the factor (content-addressed, so the
    /// transport skips workers that already hold it), scatter one
    /// contiguous leaf range per worker, and merge the decoded partials in
    /// worker order — structurally identical to `Exec::Shards(workers)`,
    /// hence bit-identical to serial.
    ///
    /// The *full* factor ships to every worker (dictionaries in code order
    /// plus whole code columns) rather than a sliced partition: factors are
    /// small relative to relations (distinct paths, not rows), one blob
    /// serves every later range request, and shared full dictionaries are
    /// what make the code-keyed partials merge with no translation.
    pub fn compute_remote(factor: &EncodedFactor, remote: &Remote) -> Result<Self, RemoteError> {
        let transport = remote.transport();
        let fingerprint = factor.fingerprint();
        transport.ensure_state(DOMAIN_FACTOR, fingerprint, &|| {
            payload::encode_factor(factor)
        })?;
        let ranges = Parallelism::shard_ranges(factor.leaf_count(), transport.workers().max(1));
        let requests: Vec<Option<Vec<u8>>> = ranges
            .iter()
            .map(|&(start, len)| {
                (len > 0).then(|| payload::encode_agg_request(fingerprint, start, len))
            })
            .collect();
        // Streamed scatter: each partial decodes, shape-checks and folds the
        // moment it lands (in worker order — out-of-order arrivals buffer in
        // `scatter_fold_in_order`), so merge work overlaps the network wait.
        // The incremental pairwise merge is the same left fold `merge` runs
        // over a full slice — integer-`f64` sums and boundary run joins are
        // associative — so the result is bit-identical to the gathered path.
        // The overlap span covers the whole scatter+fold window.
        let _span = StageTimer::start(Stage::RemoteMerge);
        let mut acc: Option<Self> = None;
        scatter_fold_in_order(
            transport.as_ref(),
            OP_AGG_RANGE,
            requests,
            &mut |_, reply| {
                let part = payload::decode_aggregates(&reply)
                    .map_err(|e| RemoteError::Protocol(e.to_string()))?;
                // Shape-check before merging so a corrupt or mismatched reply
                // becomes a typed error instead of a panic inside `merge`.
                payload::check_partial_shape(factor, &part)
                    .map_err(|e| RemoteError::Protocol(e.to_string()))?;
                acc = Some(match acc.take() {
                    Some(prev) => Self::merge(&[prev, part]),
                    None => part,
                });
                Ok(())
            },
        )?;
        match acc {
            Some(merged) => Ok(merged),
            // Every worker was range-pruned (empty factor).
            None => Ok(Self::compute_range(factor, 0, 0)),
        }
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

    /// Same-hierarchy `COF` tables for every (shallower, deeper) level pair,
    /// from one linear scan of the code columns per pair.
    fn cof_tables(factor: &EncodedFactor) -> Vec<Vec<(u32, u32, f64)>> {
        Self::cof_tables_range(factor, 0, factor.leaf_count())
    }

    /// The `COF` scans restricted to the path shard `[start, start + len)`.
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

    /// The `COF` tables of a whole factor, sharded over `par` and
    /// boundary-merged — used by the delta-patch path, whose table rebuild is
    /// the dominant linear scan.
    fn cof_tables_with(factor: &EncodedFactor, par: &Parallelism) -> Vec<Vec<(u32, u32, f64)>> {
        let ranges = par.ranges_for(factor.leaf_count());
        if ranges.len() <= 1 {
            return Self::cof_tables(factor);
        }
        let chunks = par.run_shards(&ranges, |start, len| {
            Self::cof_tables_range(factor, start, len)
        });
        let depth = factor.depth();
        (0..depth * depth)
            .map(|pair| merge_boundary_cofs(chunks.iter().map(|c| &c[pair])))
            .collect()
    }

    /// Maintain the aggregates across a path delta instead of recomputing
    /// from scratch: `new_factor` must be `old_factor.apply_delta(delta)`.
    ///
    /// The descendant tables are *patched* — every added (removed) path
    /// increments (decrements) its value's count at each level, `O(|delta| ·
    /// depth)` dictionary probes, exact because the counts are integers. The
    /// run and `COF` tables are re-derived from the spliced code columns in
    /// linear `u32` scans (their entries are positional, so a single
    /// mid-table insertion shifts every later entry anyway). What the delta
    /// path never pays is the cold path's relation scan, path sort and
    /// dictionary rebuild.
    ///
    /// Codes of values whose last path vanished stay in the dictionaries
    /// with a descendant count of zero — they no longer appear in any run or
    /// `COF` entry, so every aggregate query is unaffected.
    ///
    /// The linear run/`COF` rebuild scans fan out over `exec`'s *local*
    /// thread budget (boundary-merged back, so the result is bit-identical
    /// to the serial patch); the patch never goes remote — it reads the
    /// coordinator's own delta, and the `O(|delta| · depth)` descendant
    /// patch is already sub-linear in the factor.
    pub fn apply_delta(&self, new_factor: &EncodedFactor, delta: &PathDelta, exec: &Exec) -> Self {
        let par = &exec.parallelism();
        let depth = new_factor.depth();
        let mut desc = self.desc.clone();
        for (level, table) in desc.iter_mut().enumerate() {
            table.resize(new_factor.cardinality(level), 0.0);
        }
        let mut patch = |path: &[Value], step: f64| {
            for (level, table) in desc.iter_mut().enumerate() {
                let code = new_factor.levels[level]
                    .dict
                    .code_of(&path[level])
                    .expect("delta value present in extended dictionary");
                table[code as usize] += step;
            }
        };
        for path in &delta.added {
            patch(path, 1.0);
        }
        for path in &delta.removed {
            patch(path, -1.0);
        }
        let level_runs_f64 = |level: usize, start: usize, len: usize| -> Vec<(u32, f64)> {
            new_factor
                .level_runs_range(level, start, len)
                .into_iter()
                .map(|(c, n)| (c, n as f64))
                .collect()
        };
        let ranges = par.ranges_for(new_factor.leaf_count());
        let runs = if ranges.len() <= 1 {
            (0..depth)
                .map(|level| level_runs_f64(level, 0, new_factor.leaf_count()))
                .collect()
        } else {
            (0..depth)
                .map(|level| {
                    let chunks =
                        par.run_shards(&ranges, |start, len| level_runs_f64(level, start, len));
                    merge_boundary_runs(chunks.iter())
                })
                .collect()
        };
        EncodedHierarchyAggregates {
            leaf_count: new_factor.leaf_count() as f64,
            desc,
            runs,
            cofs: Self::cof_tables_with(new_factor, par),
        }
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

/// All decomposed aggregates of an [`EncodedFactorization`] — the code-space
/// mirror of [`DecomposedAggregates`](crate::aggregates::DecomposedAggregates).
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
        let per_hierarchy = fact
            .factors()
            .iter()
            .map(|f| Arc::new(EncodedHierarchyAggregates::compute(f, exec)))
            .collect();
        Self::from_parts(fact, per_hierarchy)
    }

    /// Assemble from precomputed per-hierarchy aggregates (used by the
    /// drill-down cache, which recomputes only the drilled hierarchy).
    pub fn from_parts(
        fact: &EncodedFactorization,
        per_hierarchy: Vec<Arc<EncodedHierarchyAggregates>>,
    ) -> Self {
        let positions = (0..fact.n_cols()).map(|c| fact.position(c)).collect();
        let leaf_counts = per_hierarchy.iter().map(|h| h.leaf_count).collect();
        EncodedAggregates {
            positions,
            per_hierarchy,
            leaf_counts,
        }
    }

    /// Per-hierarchy aggregates (exposed for the drill-down cache).
    pub fn per_hierarchy(&self) -> &[Arc<EncodedHierarchyAggregates>] {
        &self.per_hierarchy
    }

    /// Column positions, in column order (exposed for the wire codecs).
    pub fn positions(&self) -> &[AttrPosition] {
        &self.positions
    }

    /// Reassemble from shipped parts — the worker-side mirror of
    /// [`EncodedAggregates::from_parts`] for hosts that hold the *decoded
    /// aggregate tables* but not the factorisation they came from. The
    /// tables must be the coordinator's actual state (shipped, not
    /// recomputed): a delta-patched table can order its entries differently
    /// from a cold rebuild, and the gram's per-cell FP sequence follows
    /// entry order.
    ///
    /// # Panics
    /// Panics if a position names a hierarchy outside `per_hierarchy`
    /// (decoders validate positions before calling this).
    pub fn from_raw_parts(
        positions: Vec<AttrPosition>,
        per_hierarchy: Vec<Arc<EncodedHierarchyAggregates>>,
    ) -> Self {
        for p in &positions {
            assert!(
                p.hierarchy < per_hierarchy.len(),
                "position names hierarchy {} of {}",
                p.hierarchy,
                per_hierarchy.len()
            );
        }
        let leaf_counts = per_hierarchy.iter().map(|h| h.leaf_count).collect();
        EncodedAggregates {
            positions,
            per_hierarchy,
            leaf_counts,
        }
    }

    /// Maintain the factorisation and its aggregates across an ingest's path
    /// deltas instead of recomputing: `fact` must be the factorisation these
    /// aggregates were computed over, with one optional [`PathDelta`] per
    /// hierarchy. Hierarchies without a (non-empty) delta re-share their
    /// encoded factor *and* per-hierarchy aggregate state by `Arc` — the
    /// common streaming case, where a day of appended rows touches the time
    /// hierarchy and leaves every other hierarchy's state byte-identical at
    /// zero cost. Changed hierarchies flow through
    /// [`EncodedFactor::apply_delta`] and
    /// [`EncodedHierarchyAggregates::apply_delta`], whose table rebuilds fan
    /// out over `exec`'s local thread budget (bit-identical to the serial
    /// patch).
    pub fn apply_delta(
        &self,
        fact: &EncodedFactorization,
        delta: &FactorizationDelta,
        exec: &Exec,
    ) -> (EncodedFactorization, EncodedAggregates) {
        assert_eq!(
            delta.per_hierarchy.len(),
            fact.factors().len(),
            "one delta slot per hierarchy"
        );
        let mut factors = Vec::with_capacity(fact.factors().len());
        let mut parts = Vec::with_capacity(fact.factors().len());
        for ((factor, part), d) in fact
            .factors()
            .iter()
            .zip(&self.per_hierarchy)
            .zip(&delta.per_hierarchy)
        {
            match d {
                Some(d) if !d.is_empty() => {
                    let next = Arc::new(factor.apply_delta(d));
                    parts.push(Arc::new(part.apply_delta(&next, d, exec)));
                    factors.push(next);
                }
                _ => {
                    factors.push(factor.clone());
                    parts.push(part.clone());
                }
            }
        }
        let next_fact = EncodedFactorization::new(factors);
        let aggregates = EncodedAggregates::from_parts(&next_fact, parts);
        (next_fact, aggregates)
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
    /// with the global suffix scale. Because codes follow sorted value order,
    /// index order here equals the legacy `BTreeMap` iteration order.
    pub fn counts_raw(&self, column: usize) -> (&[f64], f64) {
        let p = self.pos(column);
        (
            &self.per_hierarchy[p.hierarchy].desc[p.level],
            self.later_product(p.hierarchy),
        )
    }

    /// The raw block-order run table of `column` plus the suffix scale —
    /// borrowed, unlike the legacy path which clones a fresh `Vec<(Value,
    /// f64)>` per call.
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
    /// slices. The operation order matches the legacy closure-based
    /// `cof_weighted_sum` exactly.
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

/// Compare two encoded aggregate states for *semantic* equality in value
/// space, returning `None` when equal or `Some(description)` of the first
/// mismatch.
///
/// This is the equality contract behind delta maintenance: a
/// delta-maintained dictionary keeps stable codes (with appended codes for
/// values first seen mid-stream, and zero-count codes for values whose
/// paths vanished), so code *numbering* is the one representational freedom
/// between a maintained state and a cold rebuild. Everything else — grand
/// total, per-column `TOTAL`/repetitions, per-value `COUNT`s (checked in
/// both directions), decoded block-run sequences and decoded same-hierarchy
/// `COF` entry sequences — must match exactly (`==`, not tolerance: every
/// compared quantity is an integer count, or a product of integer counts
/// accumulated in identical path order). Used by the in-crate delta tests,
/// the workspace property tests and the streaming benchmark's correctness
/// gate, so there is one source of truth for "delta equals cold".
pub fn semantic_diff(
    a_fact: &EncodedFactorization,
    a: &EncodedAggregates,
    b_fact: &EncodedFactorization,
    b: &EncodedAggregates,
) -> Option<String> {
    if a.grand_total() != b.grand_total() {
        return Some(format!(
            "grand_total {} != {}",
            a.grand_total(),
            b.grand_total()
        ));
    }
    if a.n_cols() != b.n_cols() {
        return Some(format!("n_cols {} != {}", a.n_cols(), b.n_cols()));
    }
    for c in 0..a.n_cols() {
        if a.total(c) != b.total(c) {
            return Some(format!("TOTAL col {c}: {} != {}", a.total(c), b.total(c)));
        }
        if a.repetitions(c) != b.repetitions(c) {
            return Some(format!("repetitions col {c}"));
        }
        // COUNT per decoded value, both directions (either dictionary may
        // hold values the other never saw — their counts must be zero).
        let (a_desc, a_scale) = a.counts_raw(c);
        let (b_desc, b_scale) = b.counts_raw(c);
        let count_of = |fact: &EncodedFactorization, desc: &[f64], scale: f64, value: &Value| {
            fact.dict(c)
                .code_of(value)
                .map(|code| desc[code as usize] * scale)
                .unwrap_or(0.0)
        };
        for (code, count) in a_desc.iter().enumerate() {
            let value = a_fact.dict(c).value(code as u32);
            let other = count_of(b_fact, b_desc, b_scale, value);
            if count * a_scale != other {
                return Some(format!(
                    "COUNT col {c} value {value}: {} != {other}",
                    count * a_scale
                ));
            }
        }
        for (code, count) in b_desc.iter().enumerate() {
            let value = b_fact.dict(c).value(code as u32);
            let other = count_of(a_fact, a_desc, a_scale, value);
            if count * b_scale != other {
                return Some(format!(
                    "COUNT col {c} value {value}: {other} != {}",
                    count * b_scale
                ));
            }
        }
        // Block runs: identical decoded (value, scaled count) sequence —
        // path order is value order on both sides.
        let (a_runs, ar_scale) = a.block_runs_raw(c);
        let (b_runs, br_scale) = b.block_runs_raw(c);
        if a_runs.len() != b_runs.len() {
            return Some(format!(
                "run count col {c}: {} != {}",
                a_runs.len(),
                b_runs.len()
            ));
        }
        for (i, (&(ac, an), &(bc, bn))) in a_runs.iter().zip(b_runs).enumerate() {
            if a_fact.dict(c).value(ac) != b_fact.dict(c).value(bc)
                || an * ar_scale != bn * br_scale
            {
                return Some(format!("run {i} col {c} differs"));
            }
        }
    }
    // Same-hierarchy COF tables: identical decoded entry sequences. The
    // cross-hierarchy (Independent) case is fully determined by the
    // per-column counts compared above.
    for left in 0..a.n_cols() {
        for right in (left + 1)..a.n_cols() {
            match (a.cof(left, right), b.cof(left, right)) {
                (
                    EncodedCofPairs::Materialized {
                        entries: ae,
                        scale: asc,
                    },
                    EncodedCofPairs::Materialized {
                        entries: be,
                        scale: bsc,
                    },
                ) => {
                    if ae.len() != be.len() {
                        return Some(format!("COF ({left},{right}) entry count"));
                    }
                    for (i, (&(a1, a2, an), &(b1, b2, bn))) in ae.iter().zip(be).enumerate() {
                        if a_fact.dict(left).value(a1) != b_fact.dict(left).value(b1)
                            || a_fact.dict(right).value(a2) != b_fact.dict(right).value(b2)
                            || an * asc != bn * bsc
                        {
                            return Some(format!("COF ({left},{right}) entry {i} differs"));
                        }
                    }
                }
                (EncodedCofPairs::Independent { .. }, EncodedCofPairs::Independent { .. }) => {}
                _ => return Some(format!("COF ({left},{right}) shape mismatch")),
            }
        }
    }
    None
}

/// Code-indexed feature columns: the flat mirror of [`FeatureMap`].
#[derive(Debug, Clone, Default)]
pub struct EncodedFeatureMap {
    columns: Vec<Vec<f64>>,
}

impl EncodedFeatureMap {
    /// Bake a `Value`-keyed feature map into code-indexed columns using the
    /// factorisation's dictionaries (missing values take the map's default,
    /// exactly as the legacy lookup would).
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
    /// dictionaries (the legacy backends' representation): one entry per
    /// value some path carries — codes a delta-maintained dictionary keeps
    /// for vanished values are left to the map's default.
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

    /// All code-indexed columns (exposed for the wire codecs).
    pub fn columns(&self) -> &[Vec<f64>] {
        &self.columns
    }

    /// Reassemble from shipped code-indexed columns — the worker-side
    /// mirror of [`EncodedFeatureMap::encode`] for hosts without the
    /// `Value`-keyed feature map.
    pub fn from_columns(columns: Vec<Vec<f64>>) -> Self {
        EncodedFeatureMap { columns }
    }
}

/// Everything the encoded execution path needs about one training design:
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

impl EncodedDesign {
    /// Assemble from pre-encoded parts, baking a `Value`-keyed feature map.
    pub fn from_parts(
        factorization: EncodedFactorization,
        aggregates: EncodedAggregates,
        features: &FeatureMap,
    ) -> Self {
        let features = EncodedFeatureMap::encode(features, &factorization);
        EncodedDesign {
            factorization,
            features,
            aggregates,
        }
    }
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

/// Factorised gram matrix `Xᵀ·X` (Algorithm 2) on the encoded backend,
/// with the upper-triangle cells fanned out over `par`'s threads. The gram's
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
/// `(p, q)` with `p <= q` in row-major order. This is the index space every
/// gram partial speaks — the sharded gram fans these cells over threads and
/// the remote gram ships contiguous ranges of them to workers, so the cell
/// at index `k` means the same `(p, q)` on every host.
pub fn gram_pairs(m: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::with_capacity(m * (m + 1) / 2);
    for p in 0..m {
        for q in p..m {
            pairs.push((p, q));
        }
    }
    pairs
}

/// Gram cells `[start, start + len)` of the [`gram_pairs`] enumeration —
/// the worker-side gram partial. Each cell runs the identical serial
/// accumulation (`gram_entry`), so partials computed on any host drop
/// bit-exactly into the coordinator's matrix.
///
/// Returns `None` when the range falls outside the enumeration (hostile or
/// mismatched request — callers answer typed, never panic).
pub fn gram_cells(
    aggs: &EncodedAggregates,
    features: &EncodedFeatureMap,
    start: usize,
    len: usize,
) -> Option<Vec<f64>> {
    let m = aggs.n_cols();
    if features.n_cols() != m {
        return None;
    }
    let n_cells = m * (m + 1) / 2;
    if start.checked_add(len)? > n_cells {
        return None;
    }
    let pairs = gram_pairs(m);
    Some(
        pairs[start..start + len]
            .iter()
            .map(|&(p, q)| gram_entry(aggs, features, p, q))
            .collect(),
    )
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

/// Factorised left multiplication `A·X` (Algorithm 3) on the encoded backend.
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

/// Delta-based row iterator (Algorithm 1) over an [`EncodedFactorization`].
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

/// Factorised right multiplication `X·A` (Algorithm 4) on the encoded
/// backend, updating each output row incrementally from the previous one.
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
    use crate::aggregates::DecomposedAggregates;
    use crate::ops;

    fn paper_example() -> (Factorization, FeatureMap) {
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
        features.set(0, Value::str("t1"), 1.5);
        features.set(0, Value::str("t2"), 3.0);
        features.set(1, Value::str("d1"), 4.0);
        features.set(1, Value::str("d2"), -1.0);
        features.set(2, Value::str("v1"), 1.25);
        features.set(2, Value::str("v2"), 0.25);
        features.set(2, Value::str("v3"), 5.0);
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

    #[test]
    fn encoded_aggregates_are_bit_identical_to_legacy() {
        let (fact, _) = paper_example();
        let legacy = DecomposedAggregates::compute(&fact);
        let enc = EncodedFactorization::encode(&fact);
        let encoded = EncodedAggregates::compute(&enc, &Exec::Serial);
        assert_eq!(legacy.grand_total(), encoded.grand_total());
        for c in 0..fact.n_cols() {
            assert_eq!(legacy.total(c), encoded.total(c));
            assert_eq!(legacy.repetitions(c), encoded.repetitions(c));
            let (desc, scale) = encoded.counts_raw(c);
            let legacy_counts = legacy.counts(c);
            assert_eq!(legacy_counts.len(), desc.len());
            for ((value, lc), (code, ec)) in legacy_counts.iter().zip(desc.iter().enumerate()) {
                assert_eq!(enc.dict(c).value(code as u32), value);
                assert_eq!(*lc, ec * scale);
                assert_eq!(legacy.count(c, value), encoded.count(c, code as u32));
            }
            let (runs, rscale) = encoded.block_runs_raw(c);
            let legacy_runs = legacy.block_runs(c);
            assert_eq!(legacy_runs.len(), runs.len());
            for ((lv, lc), &(code, rc)) in legacy_runs.iter().zip(runs) {
                assert_eq!(enc.dict(c).value(code), lv);
                assert_eq!(*lc, rc * rscale);
            }
        }
    }

    #[test]
    fn encoded_ops_are_bit_identical_to_legacy_ops() {
        let (fact, features) = paper_example();
        let legacy = DecomposedAggregates::compute(&fact);
        let enc = EncodedFactorization::encode(&fact);
        let encoded = EncodedAggregates::compute(&enc, &Exec::Serial);
        let enc_features = EncodedFeatureMap::encode(&features, &enc);

        assert_eq!(
            ops::gram(&legacy, &features),
            gram(&encoded, &enc_features, &Parallelism::serial())
        );

        let a = pseudo_random(3, fact.n_rows(), 5);
        assert_eq!(
            ops::left_mult(&a, &legacy, &features),
            left_mult(&a, &encoded, &enc_features)
        );

        let b = pseudo_random(fact.n_cols(), 2, 17);
        assert_eq!(
            ops::right_mult(&fact, &features, &b),
            right_mult(&enc, &enc_features, &b)
        );

        let v: Vec<f64> = (0..fact.n_rows()).map(|i| i as f64 * 0.5 - 1.0).collect();
        assert_eq!(
            ops::transpose_vec_mult(&v, &legacy, &features),
            transpose_vec_mult(&v, &encoded, &enc_features, &Parallelism::serial())
        );
    }

    #[test]
    fn encoded_row_iter_mirrors_value_row_iter() {
        let (fact, _) = paper_example();
        let enc = EncodedFactorization::encode(&fact);
        let legacy: Vec<crate::row_iter::RowDelta> = crate::RowIter::new(&fact).collect();
        let encoded: Vec<EncodedRowDelta> = EncodedRowIter::new(&enc).collect();
        assert_eq!(legacy.len(), encoded.len());
        for (l, e) in legacy.iter().zip(&encoded) {
            assert_eq!(l.row, e.row);
            assert_eq!(l.changes.len(), e.changes.len());
            for ((lc, lv), &(ec, code)) in l.changes.iter().zip(&e.changes) {
                assert_eq!(*lc, ec);
                assert_eq!(enc.dict(ec).value(code), lv);
            }
        }
    }

    /// Semantic (decoded) equality of two aggregate states whose dictionaries
    /// may number codes differently — delegates to [`semantic_diff`], the
    /// shared delta-vs-cold equality contract.
    fn assert_semantically_equal(
        a_fact: &EncodedFactorization,
        a: &EncodedAggregates,
        b_fact: &EncodedFactorization,
        b: &EncodedAggregates,
    ) {
        assert_eq!(semantic_diff(a_fact, a, b_fact, b), None);
    }

    #[test]
    fn apply_delta_matches_recompute_with_new_values_and_removals() {
        let (fact, _) = paper_example();
        let enc = EncodedFactorization::encode(&fact);
        let aggs = EncodedAggregates::compute(&enc, &Exec::Serial);
        // geo: remove (d1, v2), add (d1, v0) (new leaf value sorting first)
        // and (d3, v9) (new district and new leaf).
        let delta = FactorizationDelta::none(2).with(
            1,
            PathDelta {
                added: vec![
                    vec![Value::str("d1"), Value::str("v0")],
                    vec![Value::str("d3"), Value::str("v9")],
                ],
                removed: vec![vec![Value::str("d1"), Value::str("v2")]],
            },
        );
        let (next_fact, next_aggs) = aggs.apply_delta(&enc, &delta, &Exec::Serial);
        // the untouched time hierarchy is re-shared, not copied
        assert!(Arc::ptr_eq(&enc.factors()[0], &next_fact.factors()[0]));
        assert!(Arc::ptr_eq(
            &aggs.per_hierarchy()[0],
            &next_aggs.per_hierarchy()[0]
        ));
        // existing codes stayed stable: d1 and d2 keep their old codes
        for v in ["d1", "d2"] {
            assert_eq!(
                enc.dict(1).code_of(&Value::str(v)),
                next_fact.dict(1).code_of(&Value::str(v))
            );
        }
        // cold rebuild of the same post-delta path set
        let geo = HierarchyFactor::from_paths(
            "geo",
            vec![AttrId(1), AttrId(2)],
            vec![
                vec![Value::str("d1"), Value::str("v0")],
                vec![Value::str("d1"), Value::str("v1")],
                vec![Value::str("d2"), Value::str("v3")],
                vec![Value::str("d3"), Value::str("v9")],
            ],
        );
        let time = HierarchyFactor::from_paths(
            "time",
            vec![AttrId(0)],
            vec![vec![Value::str("t1")], vec![Value::str("t2")]],
        );
        let cold_fact = EncodedFactorization::encode(&Factorization::new(vec![time, geo]));
        let cold_aggs = EncodedAggregates::compute(&cold_fact, &Exec::Serial);
        assert_semantically_equal(&next_fact, &next_aggs, &cold_fact, &cold_aggs);
    }

    #[test]
    fn path_delta_between_diffs_sorted_tables() {
        let (fact, _) = paper_example();
        let geo = EncodedFactor::encode(&fact.hierarchies()[1], &Exec::Serial);
        let new_paths = vec![
            vec![Value::str("d1"), Value::str("v1")],
            vec![Value::str("d2"), Value::str("v3")],
            vec![Value::str("d2"), Value::str("v4")],
        ];
        let new_geo = EncodedFactor::encode(
            &HierarchyFactor::from_paths("geo", geo.attrs.clone(), new_paths.clone()),
            &Exec::Serial,
        );
        let delta = PathDelta::between(&geo, &new_geo);
        assert_eq!(delta.added, vec![vec![Value::str("d2"), Value::str("v4")]]);
        assert_eq!(
            delta.removed,
            vec![vec![Value::str("d1"), Value::str("v2")]]
        );
        assert_eq!(delta.len(), 2);
        assert!(!delta.is_empty());
        // applying the diff reproduces the new table exactly
        let next = geo.apply_delta(&delta);
        assert_eq!(next.leaf_count(), 3);
        for (i, path) in new_paths.iter().enumerate() {
            assert_eq!(next.cmp_path(i, path), std::cmp::Ordering::Equal);
            assert_eq!(&next.decode_path(i), path);
        }
        // empty diff shares the code columns
        let noop = PathDelta::between(&next, &new_geo);
        assert!(noop.is_empty());
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

    /// In-process `RemoteTransport`: `ensure_state` stores the shipped blob
    /// by `(domain, key)`, and `scatter` answers each `OP_AGG_RANGE` request
    /// through the *real* payload codecs — decode the request, decode the
    /// stored factor, `compute_range`, encode the partial. Exercises the
    /// entire remote aggregate path except the socket.
    struct Loopback {
        workers: usize,
        state: std::sync::Mutex<std::collections::HashMap<(u8, u64), Vec<u8>>>,
    }

    impl Loopback {
        fn new(workers: usize) -> Self {
            Loopback {
                workers,
                state: std::sync::Mutex::new(std::collections::HashMap::new()),
            }
        }
    }

    impl reptile_relational::RemoteTransport for Loopback {
        fn workers(&self) -> usize {
            self.workers
        }

        fn ensure_relation(
            &self,
            _relation: &Arc<reptile_relational::Relation>,
        ) -> Result<Vec<(usize, usize)>, RemoteError> {
            Err(RemoteError::Transport(
                "factor loopback ships no relations".into(),
            ))
        }

        fn ensure_state(
            &self,
            domain: u8,
            key: u64,
            encode: &dyn Fn() -> Vec<u8>,
        ) -> Result<(), RemoteError> {
            self.state
                .lock()
                .unwrap()
                .entry((domain, key))
                .or_insert_with(encode);
            Ok(())
        }

        fn scatter(
            &self,
            op: u8,
            requests: Vec<Option<Vec<u8>>>,
        ) -> Result<Vec<Option<Vec<u8>>>, RemoteError> {
            assert_eq!(op, OP_AGG_RANGE);
            assert_eq!(requests.len(), self.workers);
            let state = self.state.lock().unwrap();
            requests
                .into_iter()
                .map(|request| {
                    let Some(request) = request else {
                        return Ok(None);
                    };
                    let (key, start, len) = payload::decode_agg_request(&request)
                        .map_err(|e| RemoteError::Protocol(e.to_string()))?;
                    let blob = state
                        .get(&(DOMAIN_FACTOR, key))
                        .ok_or_else(|| RemoteError::Worker(format!("no state {key:#x}")))?;
                    let factor = payload::decode_factor(blob)
                        .map_err(|e| RemoteError::Protocol(e.to_string()))?;
                    let part = EncodedHierarchyAggregates::compute_range(&factor, start, len);
                    Ok(Some(payload::encode_aggregates(&part)))
                })
                .collect()
        }
    }

    #[test]
    fn remote_aggregates_are_bit_identical_to_serial() {
        let (fact, _) = paper_example();
        let enc = EncodedFactorization::encode(&fact);
        for workers in [1, 2, 3, 8] {
            let transport = Arc::new(Loopback::new(workers));
            let remote = Remote::new(transport.clone());
            let exec = Exec::Remote(remote.clone());
            for factor in enc.factors() {
                let serial = EncodedHierarchyAggregates::compute(factor, &Exec::Serial);
                let distributed = EncodedHierarchyAggregates::compute_remote(factor, &remote)
                    .expect("loopback scatter");
                assert_eq!(serial, distributed, "{workers} workers");
                // The infallible surface takes the same path.
                assert_eq!(serial, EncodedHierarchyAggregates::compute(factor, &exec));
            }
            // The whole-factorisation surface propagates the context.
            let serial_all = EncodedAggregates::compute(&enc, &Exec::Serial);
            let remote_all = EncodedAggregates::compute(&enc, &exec);
            assert_eq!(semantic_diff(&enc, &serial_all, &enc, &remote_all), None);
            // Each factor shipped exactly once, keyed by fingerprint.
            assert_eq!(
                transport.state.lock().unwrap().len(),
                enc.factors().len(),
                "content-addressed state ships once per factor"
            );
        }
    }

    #[test]
    fn remote_failure_falls_back_to_local_pool() {
        struct Refusing;
        impl reptile_relational::RemoteTransport for Refusing {
            fn workers(&self) -> usize {
                2
            }
            fn ensure_relation(
                &self,
                _relation: &Arc<reptile_relational::Relation>,
            ) -> Result<Vec<(usize, usize)>, RemoteError> {
                Err(RemoteError::Transport("down".into()))
            }
            fn ensure_state(
                &self,
                _domain: u8,
                _key: u64,
                _encode: &dyn Fn() -> Vec<u8>,
            ) -> Result<(), RemoteError> {
                Err(RemoteError::Transport("down".into()))
            }
            fn scatter(
                &self,
                _op: u8,
                _requests: Vec<Option<Vec<u8>>>,
            ) -> Result<Vec<Option<Vec<u8>>>, RemoteError> {
                Err(RemoteError::Transport("down".into()))
            }
        }
        let (fact, _) = paper_example();
        let enc = EncodedFactorization::encode(&fact);
        let factor = &enc.factors()[1];
        let exec = Exec::Remote(Remote::new(Arc::new(Refusing)));
        let before = reptile_obs::counter_value(Counter::RemoteFallbacks);
        let aggs = EncodedHierarchyAggregates::compute(factor, &exec);
        assert_eq!(
            aggs,
            EncodedHierarchyAggregates::compute(factor, &Exec::Serial),
            "fallback result is still exact"
        );
        assert_eq!(
            reptile_obs::counter_value(Counter::RemoteFallbacks),
            before + 1,
            "the degradation is observable"
        );
    }

    #[test]
    fn fingerprint_tracks_content_across_epochs() {
        let (fact, _) = paper_example();
        let geo = EncodedFactor::encode(&fact.hierarchies()[1], &Exec::Serial);
        let clone = geo.clone();
        assert_eq!(geo.fingerprint(), clone.fingerprint());
        // A delta produces a *different* factor with a different
        // fingerprint — post-ingest state ships under a new key, so a stale
        // worker copy can never answer for the new epoch.
        let delta = PathDelta {
            added: vec![vec![Value::str("d9"), Value::str("v9")]],
            removed: vec![],
        };
        let next = geo.apply_delta(&delta);
        assert_ne!(geo.fingerprint(), next.fingerprint());
        // Same content rebuilt from scratch -> same fingerprint.
        let rebuilt = payload::decode_factor(&payload::encode_factor(&next)).unwrap();
        assert_eq!(next.fingerprint(), rebuilt.fingerprint());
    }
}
