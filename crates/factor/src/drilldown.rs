//! Drill-down maintenance of the decomposed aggregates (Section 4.4,
//! Appendix J, Figure 9).
//!
//! After a drill-down only one hierarchy changes (it gains one level), yet a
//! naive implementation recomputes every decomposed aggregate. Because
//! hierarchies are independent, the aggregates of the *other* hierarchies can
//! be carried over unchanged — only the global scaling factors (the leaf-count
//! products) change, and those are applied lazily by
//! [`EncodedAggregates`]. A cross-invocation cache further removes the
//! cost of re-deriving aggregates for hierarchies that were computed by an
//! earlier Reptile invocation.
//!
//! Three maintenance modes are provided, matching the paper's Figure 9:
//! `Static` (recompute everything), `Dynamic` (recompute only the drilled
//! hierarchy, reuse the rest from the previous call), and `CachedDynamic`
//! (additionally reuse any previously computed hierarchy state).

use crate::encoded::{
    EncodedAggregates, EncodedFactor, EncodedFactorization, EncodedHierarchyAggregates,
    FactorizationDelta, PathDelta,
};
use reptile_relational::Exec;
use reptile_relational::{Hierarchy, IngestBatch, Relation, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Whole nanoseconds since `t0`, saturating (for the `u64` stats fields).
fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Maintenance strategy for successive drill-downs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrilldownMode {
    /// Recompute every hierarchy's aggregates on every call.
    Static,
    /// Reuse the hierarchies that did not change since the previous call.
    Dynamic,
    /// Reuse any hierarchy state ever computed in this session.
    CachedDynamic,
}

/// Statistics about the last [`DrilldownSession::encoded`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Hierarchies whose aggregates were recomputed from scratch.
    pub recomputed: usize,
    /// Hierarchies whose aggregates were served from the session state/cache.
    pub reused: usize,
    /// Hierarchies whose encoded state was *delta-maintained* from a cached
    /// earlier snapshot instead of recomputed (see
    /// [`EncodedAggregates::apply_delta`]).
    pub delta_patched: usize,
    /// Nanoseconds the last call spent computing aggregates from scratch.
    /// Always 0 while stage timing is off (the counters
    /// above stay exact either way) — durations are integer nanoseconds so
    /// the struct stays `Copy + Eq`.
    pub encode_ns: u64,
    /// Nanoseconds the last call spent in delta-patch attempts (successful
    /// or abandoned). Always 0 while stage timing is off.
    pub delta_patch_ns: u64,
}

impl SessionStats {
    /// Add `other`'s counters and durations into `self` (used to maintain
    /// the session-lifetime running totals next to the per-call stats).
    fn absorb(&mut self, other: &SessionStats) {
        self.recomputed += other.recomputed;
        self.reused += other.reused;
        self.delta_patched += other.delta_patched;
        self.encode_ns += other.encode_ns;
        self.delta_patch_ns += other.delta_patch_ns;
    }
}

/// Cache key of one hierarchy's aggregate state: name, depth, leaf count,
/// a content fingerprint of the paths so that equally shaped factors over
/// different provenance (e.g. the villages of two different districts) never
/// alias, and the hierarchy's ingest epoch (see
/// [`DrilldownSession::bump_epoch`]) so that state cached before an ingest
/// can never be served after it — even on a fingerprint collision.
type FactorKey = (String, usize, usize, u64, u64);

/// Default bound on cached per-hierarchy aggregate states (long-lived
/// serving sessions touch many distinct provenances; the cache must not grow
/// with session lifetime).
pub const DEFAULT_SESSION_CAPACITY: usize = 256;

/// One hierarchy's cached state: the dictionary-encoded factor and its
/// aggregates, `Arc`-shared so cache hits are pointer bumps.
type EncodedEntry = (Arc<EncodedFactor>, Arc<EncodedHierarchyAggregates>);

/// A source of decomposed aggregates that the design builder can consult
/// instead of recomputing from scratch — implemented by [`DrilldownSession`]
/// so the engine threads its cross-invocation cache through design builds.
pub trait AggregateSource {
    /// Serve (or compute) the aggregates of already dictionary-encoded
    /// hierarchy factors (drill-down hierarchy last). The returned
    /// factorisation holds the same path tables, possibly as an earlier
    /// snapshot's delta-maintained factors (same paths in the same order,
    /// other code numbering).
    fn encoded_aggregates(
        &mut self,
        factors: Vec<Arc<EncodedFactor>>,
    ) -> (EncodedFactorization, EncodedAggregates);
}

/// Per-hierarchy index of a relation's distinct full-depth paths with their
/// row counts — the bookkeeping that turns a row-level
/// [`IngestBatch`] into the per-hierarchy [`PathDelta`]s that
/// [`EncodedAggregates::apply_delta`] maintains encoded state from. A
/// hierarchy's factorised state depends only on its distinct path set, so a
/// batch that merely adds rows to existing paths (the common streaming
/// append) produces an empty delta for that hierarchy: nothing to patch,
/// nothing to invalidate. Shared by the engine's ingest and the streaming
/// benchmark so the delta detection they exercise is one implementation.
#[derive(Debug)]
pub struct PathCountIndex {
    /// `counts[h][path]` = number of rows carrying `path` on hierarchy `h`.
    counts: Vec<BTreeMap<Vec<Value>, usize>>,
}

impl PathCountIndex {
    /// Index `relation`'s rows over every hierarchy (one full scan).
    ///
    /// The scan runs on the relation's code columns: rows are counted
    /// under dense `u32` code tuples (no per-row `Value` clones) and each
    /// distinct path is decoded exactly once at the end — the same
    /// compile-then-decode shape as the view scan kernels.
    pub fn build(relation: &Relation, hierarchies: &[Hierarchy]) -> Self {
        let counts = hierarchies
            .iter()
            .map(|hierarchy| {
                let cols: Vec<_> = hierarchy
                    .levels
                    .iter()
                    .map(|a| relation.code_column(*a))
                    .collect();
                let mut coded: BTreeMap<Vec<u32>, usize> = BTreeMap::new();
                for row in 0..relation.len() {
                    let key: Vec<u32> = cols.iter().map(|c| c.code(row)).collect();
                    *coded.entry(key).or_insert(0) += 1;
                }
                coded
                    .into_iter()
                    .map(|(codes, n)| {
                        let path: Vec<Value> = codes
                            .iter()
                            .zip(&cols)
                            .map(|(code, col)| col.dict().value(*code).clone())
                            .collect();
                        (path, n)
                    })
                    .collect()
            })
            .collect();
        PathCountIndex { counts }
    }

    /// Fold a validated batch in and return, per hierarchy, the *net*
    /// distinct-path delta: paths whose row count crossed zero (in either
    /// direction) between the batch's start and end. A path inserted and
    /// deleted within one batch cancels out; paths in the returned
    /// [`PathDelta`]s are sorted and distinct, exactly the shape
    /// [`EncodedFactor::apply_delta`] requires. Hierarchies with no net
    /// change get `None` (their slot re-shares state by `Arc`).
    ///
    /// `hierarchies` must be the slice the index was built with.
    pub fn apply(&mut self, batch: &IngestBatch, hierarchies: &[Hierarchy]) -> FactorizationDelta {
        let mut delta = FactorizationDelta::none(hierarchies.len());
        for (h, hierarchy) in hierarchies.iter().enumerate() {
            let counts = &mut self.counts[h];
            let path_of = |row: &[Value]| -> Vec<Value> {
                hierarchy
                    .levels
                    .iter()
                    .map(|a| row[a.index()].clone())
                    .collect()
            };
            // Row counts of every path the batch touches, as of batch start.
            let mut before: BTreeMap<Vec<Value>, usize> = BTreeMap::new();
            for row in batch.inserts() {
                let path = path_of(row);
                before
                    .entry(path.clone())
                    .or_insert_with(|| counts.get(&path).copied().unwrap_or(0));
                *counts.entry(path).or_insert(0) += 1;
            }
            for row in batch.deletes() {
                let path = path_of(row);
                before
                    .entry(path.clone())
                    .or_insert_with(|| counts.get(&path).copied().unwrap_or(0));
                if let Some(n) = counts.get_mut(&path) {
                    *n = n.saturating_sub(1);
                    if *n == 0 {
                        counts.remove(&path);
                    }
                }
            }
            let mut added = Vec::new();
            let mut removed = Vec::new();
            for (path, before) in before {
                let after = counts.get(&path).copied().unwrap_or(0);
                match (before == 0, after == 0) {
                    (true, false) => added.push(path),
                    (false, true) => removed.push(path),
                    _ => {}
                }
            }
            if !added.is_empty() || !removed.is_empty() {
                delta = delta.with(h, PathDelta { added, removed });
            }
        }
        delta
    }
}

/// A stateful session that serves decomposed aggregates across successive
/// drill-down invocations.
#[derive(Debug)]
pub struct DrilldownSession {
    mode: DrilldownMode,
    capacity: usize,
    clock: u64,
    /// One encoded factor + aggregates per key, with its last-use clock.
    cache: HashMap<FactorKey, (EncodedEntry, u64)>,
    /// Keys used by the previous invocation (the `Dynamic` reuse set).
    previous: Vec<FactorKey>,
    /// Per-hierarchy ingest epoch, folded into every [`FactorKey`]. Bumped
    /// by the engine when an ingest changes a hierarchy's distinct path set;
    /// entries cached under the old epoch become unreachable as exact
    /// answers but stay usable as delta bases.
    epochs: HashMap<String, u64>,
    /// Most recently inserted encoded entry per `(hierarchy name, depth)` —
    /// the candidate base for delta patching on a miss.
    delta_bases: HashMap<(String, usize), FactorKey>,
    /// Execution context for cold factor builds and delta patches —
    /// inline, shard pool, exact shards, or worker processes. Serial by
    /// default; every context is bit-identical, so it never affects cache
    /// contents.
    exec: Exec,
    /// Per-session stage-timing switch (the engine mirrors its `ObsConfig`
    /// here). Timing also turns on when the process-wide
    /// [`reptile_obs::enabled`] flag is set; either way results and cache
    /// contents are bit-identical — only [`SessionStats`] durations change.
    profile: bool,
    stats: SessionStats,
    cumulative: SessionStats,
}

impl DrilldownSession {
    /// Create a session with the given maintenance mode and the default
    /// cache bound.
    pub fn new(mode: DrilldownMode) -> Self {
        Self::with_capacity(mode, DEFAULT_SESSION_CAPACITY)
    }

    /// Create a session holding at most `capacity` cached hierarchy states
    /// (least-recently-used beyond that; minimum 1).
    pub fn with_capacity(mode: DrilldownMode, capacity: usize) -> Self {
        DrilldownSession {
            mode,
            capacity: capacity.max(1),
            clock: 0,
            cache: HashMap::new(),
            previous: Vec::new(),
            epochs: HashMap::new(),
            delta_bases: HashMap::new(),
            exec: Exec::Serial,
            profile: false,
            stats: SessionStats::default(),
            cumulative: SessionStats::default(),
        }
    }

    /// Set the execution context for cold encoded factor builds and delta
    /// patches (builder style). Every context is bit-identical to serial,
    /// so this changes *where* the work runs — never cached contents.
    pub fn with_exec(mut self, exec: Exec) -> Self {
        self.exec = exec;
        self
    }

    /// Update the execution context on a live session (e.g. when the
    /// engine's configuration is replaced).
    pub fn set_exec(&mut self, exec: Exec) {
        self.exec = exec;
    }

    /// The configured execution context.
    pub fn exec(&self) -> &Exec {
        &self.exec
    }

    /// Turn per-call stage timing on or off for this session (the engine
    /// mirrors its `ObsConfig` here). Off by default; when off, the
    /// [`SessionStats`] duration fields stay 0 unless the process-wide
    /// [`reptile_obs::enabled`] flag is set.
    pub fn set_profile(&mut self, profile: bool) {
        self.profile = profile;
    }

    /// Whether this call should read clocks (session switch or global flag).
    fn timing_on(&self) -> bool {
        self.profile || reptile_obs::enabled()
    }

    /// The maintenance mode.
    pub fn mode(&self) -> DrilldownMode {
        self.mode
    }

    /// The cache bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached hierarchy states.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Statistics of the most recent call.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Running totals over the whole session: every counter and duration
    /// of every [`DrilldownSession::encoded`] call since creation, summed.
    pub fn cumulative_stats(&self) -> SessionStats {
        self.cumulative
    }

    /// The current ingest epoch of `hierarchy` (0 until the first
    /// [`DrilldownSession::bump_epoch`]).
    pub fn epoch(&self, hierarchy: &str) -> u64 {
        self.epochs.get(hierarchy).copied().unwrap_or(0)
    }

    /// Advance `hierarchy`'s ingest epoch, returning the new value. Every
    /// cache key folds the epoch in, so state cached for this hierarchy
    /// before the bump can no longer be served as an exact answer — a stale
    /// factor can never outlive an ingest, even if the post-ingest path set
    /// happens to collide with the old content fingerprint. The stale
    /// encoded entries stay in the cache (until evicted) as *delta bases*:
    /// the next request for this hierarchy diffs its paths against the
    /// latest cached snapshot and patches it forward instead of recomputing,
    /// when the diff is small.
    pub fn bump_epoch(&mut self, hierarchy: &str) -> u64 {
        let epoch = self.epochs.entry(hierarchy.to_string()).or_insert(0);
        *epoch += 1;
        *epoch
    }

    /// The cache key of a factor of `hierarchy` with the given shape and
    /// content fingerprint, at the hierarchy's current ingest epoch.
    fn key(&self, hierarchy: &str, depth: usize, leaves: usize, fingerprint: u64) -> FactorKey {
        (
            hierarchy.to_string(),
            depth,
            leaves,
            fingerprint,
            self.epoch(hierarchy),
        )
    }

    /// Make room for one insertion: while the cache is at its capacity,
    /// evict the least-recently-used entry — but never one of the current
    /// invocation's own hierarchies.
    fn evict_for_insert(&mut self, current_keys: &[FactorKey]) {
        while self.cache.len() >= self.capacity {
            let lru = self
                .cache
                .iter()
                .filter(|(k, _)| !current_keys.contains(*k))
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone());
            match lru {
                Some(key) => self.cache.remove(&key),
                None => break,
            };
        }
    }

    /// Try to serve `factor`'s encoded state by delta-maintaining the most
    /// recently cached snapshot of the same hierarchy (same name, depth and
    /// level attributes). The candidate's actual paths are diffed against
    /// `factor`'s — correctness never rests on fingerprints or epochs
    /// here, only on the diff — and the patch is taken when the diff is
    /// small (at most half the base's paths); larger diffs fall back to a
    /// cold re-encode, which touches every path anyway.
    ///
    /// An *empty* diff is a verified content match: the cached snapshot is
    /// returned as-is (two `Arc` bumps), which re-validates entries whose
    /// key only changed because an ingest bumped the hierarchy's epoch
    /// without actually changing this factor's paths (e.g. a depth-1 prefix
    /// untouched by a new leaf under an existing parent).
    fn try_delta_patch(&self, factor: &EncodedFactor) -> Option<EncodedEntry> {
        let base_key = self
            .delta_bases
            .get(&(factor.name.clone(), factor.depth()))?;
        let ((base_factor, base_aggs), _) = self.cache.get(base_key)?;
        if base_factor.attrs != factor.attrs {
            return None;
        }
        let delta = PathDelta::between(base_factor, factor);
        if delta.is_empty() {
            return Some((base_factor.clone(), base_aggs.clone()));
        }
        if base_factor.leaf_count() == 0 || delta.len() > base_factor.leaf_count() / 2 {
            return None;
        }
        let next = Arc::new(base_factor.apply_delta(&delta));
        debug_assert_eq!(next.leaf_count(), factor.leaf_count());
        let aggs = Arc::new(base_aggs.apply_delta(&next, &delta, &self.exec));
        Some((next, aggs))
    }

    /// Compute (or reuse) the decomposed aggregates of already encoded
    /// hierarchy factors (drill-down hierarchy last). The cached
    /// per-hierarchy state is the encoded factor *plus* its aggregates, both
    /// behind `Arc`s: a hit costs two pointer clones and a miss keeps the
    /// caller's factor as is — no path is encoded a second time.
    pub fn encoded(
        &mut self,
        incoming: Vec<Arc<EncodedFactor>>,
    ) -> (EncodedFactorization, EncodedAggregates) {
        let timing = self.timing_on();
        let mut stats = SessionStats::default();
        let mut factors = Vec::with_capacity(incoming.len());
        let mut parts = Vec::with_capacity(incoming.len());
        let mut current_keys = Vec::with_capacity(incoming.len());
        for factor in incoming {
            let key = self.key(
                &factor.name,
                factor.depth(),
                factor.leaf_count(),
                factor.fingerprint(),
            );
            let reusable = match self.mode {
                DrilldownMode::Static => false,
                DrilldownMode::Dynamic => {
                    self.previous.contains(&key) && self.cache.contains_key(&key)
                }
                DrilldownMode::CachedDynamic => self.cache.contains_key(&key),
            };
            self.clock += 1;
            let (enc, aggs) = if reusable {
                stats.reused += 1;
                let entry = self.cache.get_mut(&key).expect("checked above");
                entry.1 = self.clock;
                entry.0.clone()
            } else {
                // Miss: before paying a cold aggregate batch, try to
                // *maintain* the latest cached snapshot of this hierarchy
                // forward by a path delta (possibly across an epoch bump
                // after an ingest).
                let patched = if self.mode == DrilldownMode::Static {
                    None
                } else {
                    let t0 = timing.then(Instant::now);
                    let patched = self.try_delta_patch(&factor);
                    if let Some(t0) = t0 {
                        stats.delta_patch_ns += elapsed_ns(t0);
                    }
                    patched
                };
                let entry = match patched {
                    Some(entry) => {
                        stats.delta_patched += 1;
                        entry
                    }
                    None => {
                        stats.recomputed += 1;
                        let t0 = timing.then(Instant::now);
                        let aggs =
                            Arc::new(EncodedHierarchyAggregates::compute(&factor, &self.exec));
                        if let Some(t0) = t0 {
                            stats.encode_ns += elapsed_ns(t0);
                        }
                        (factor.clone(), aggs)
                    }
                };
                if !self.cache.contains_key(&key) {
                    self.evict_for_insert(&current_keys);
                }
                self.cache.insert(key.clone(), (entry.clone(), self.clock));
                self.delta_bases
                    .insert((factor.name.clone(), factor.depth()), key.clone());
                entry
            };
            factors.push(enc);
            parts.push(aggs);
            current_keys.push(key);
        }
        if self.mode == DrilldownMode::Dynamic {
            // Dynamic only keeps state from the immediately preceding call.
            self.cache.retain(|k, _| current_keys.contains(k));
        }
        self.previous = current_keys;
        self.cumulative.absorb(&stats);
        self.stats = stats;
        let encoded_fact = EncodedFactorization::new(factors);
        let aggregates = EncodedAggregates::from_parts(&encoded_fact, parts);
        (encoded_fact, aggregates)
    }
}

impl AggregateSource for DrilldownSession {
    fn encoded_aggregates(
        &mut self,
        factors: Vec<Arc<EncodedFactor>>,
    ) -> (EncodedFactorization, EncodedAggregates) {
        self.encoded(factors)
    }
}

/// A stateless [`AggregateSource`] that recomputes everything on every call —
/// what a design build does when no drill-down session is threaded through.
/// Carries an execution context so stand-alone builds can still fan their
/// aggregate batch out (bit-identically; serial by default).
#[derive(Debug, Clone, Default)]
pub struct FreshAggregates {
    /// Execution context for the encoded aggregate batch.
    pub exec: Exec,
}

impl FreshAggregates {
    /// A fresh source running its encoded computation on `exec`.
    pub fn with_exec(exec: Exec) -> Self {
        FreshAggregates { exec }
    }
}

impl AggregateSource for FreshAggregates {
    fn encoded_aggregates(
        &mut self,
        factors: Vec<Arc<EncodedFactor>>,
    ) -> (EncodedFactorization, EncodedAggregates) {
        let enc = EncodedFactorization::new(factors);
        let aggs = EncodedAggregates::compute(&enc, &self.exec);
        (enc, aggs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factorization::{Factorization, HierarchyFactor};
    use reptile_relational::{AttrId, Value};

    fn hierarchy(name: &str, attr: usize, depth: usize, width: usize) -> HierarchyFactor {
        // Build a `depth`-level hierarchy where every level-l value has
        // `width` children.
        let mut paths = Vec::new();
        let total: usize = width.pow(depth as u32);
        for leaf in 0..total {
            let mut path = Vec::with_capacity(depth);
            let mut acc = leaf;
            let mut divisor = total;
            for level in 0..depth {
                divisor /= width;
                let idx = acc / divisor;
                acc %= divisor;
                path.push(Value::str(format!("{name}-{level}-{idx}")));
            }
            // encode the full prefix so FDs hold
            let mut full = Vec::with_capacity(depth);
            let mut prefix = String::new();
            for p in &path {
                prefix.push('/');
                prefix.push_str(&p.to_string());
                full.push(Value::str(prefix.clone()));
            }
            paths.push(full);
        }
        let attrs = (0..depth).map(|i| AttrId(attr + i)).collect();
        HierarchyFactor::from_paths(name, attrs, paths)
    }

    /// Cold-encode every hierarchy, as a design build does from its codes.
    fn cold(fact: &Factorization) -> Vec<Arc<EncodedFactor>> {
        EncodedFactorization::encode(fact).factors().to_vec()
    }

    fn fact(depth_a: usize, depth_b: usize) -> Factorization {
        Factorization::new(vec![
            hierarchy("A", 0, depth_a, 2),
            hierarchy("B", 10, depth_b, 2),
        ])
    }

    #[test]
    fn static_mode_recomputes_everything() {
        let mut s = DrilldownSession::new(DrilldownMode::Static);
        s.encoded(cold(&fact(1, 1)));
        assert_eq!(
            s.stats(),
            SessionStats {
                recomputed: 2,
                reused: 0,
                delta_patched: 0,

                ..SessionStats::default()
            }
        );
        s.encoded(cold(&fact(1, 1)));
        assert_eq!(
            s.stats(),
            SessionStats {
                recomputed: 2,
                reused: 0,
                delta_patched: 0,

                ..SessionStats::default()
            }
        );
    }

    #[test]
    fn dynamic_mode_reuses_unchanged_hierarchies() {
        let mut s = DrilldownSession::new(DrilldownMode::Dynamic);
        s.encoded(cold(&fact(1, 1)));
        assert_eq!(
            s.stats(),
            SessionStats {
                recomputed: 2,
                reused: 0,
                delta_patched: 0,

                ..SessionStats::default()
            }
        );
        // Drill down hierarchy B: only B is recomputed.
        s.encoded(cold(&fact(1, 2)));
        assert_eq!(
            s.stats(),
            SessionStats {
                recomputed: 1,
                reused: 1,
                delta_patched: 0,

                ..SessionStats::default()
            }
        );
        // Going back to the earlier B depth is NOT cached in dynamic mode.
        s.encoded(cold(&fact(1, 1)));
        assert_eq!(
            s.stats(),
            SessionStats {
                recomputed: 1,
                reused: 1,
                delta_patched: 0,

                ..SessionStats::default()
            }
        );
    }

    #[test]
    fn cached_mode_reuses_previous_invocations() {
        let mut s = DrilldownSession::new(DrilldownMode::CachedDynamic);
        s.encoded(cold(&fact(1, 1)));
        s.encoded(cold(&fact(1, 2)));
        assert_eq!(
            s.stats(),
            SessionStats {
                recomputed: 1,
                reused: 1,
                delta_patched: 0,

                ..SessionStats::default()
            }
        );
        // Revisit the first configuration: everything is served from cache.
        s.encoded(cold(&fact(1, 1)));
        assert_eq!(
            s.stats(),
            SessionStats {
                recomputed: 0,
                reused: 2,
                delta_patched: 0,

                ..SessionStats::default()
            }
        );
        // A brand-new depth still requires work for that hierarchy only.
        s.encoded(cold(&fact(2, 1)));
        assert_eq!(
            s.stats(),
            SessionStats {
                recomputed: 1,
                reused: 1,
                delta_patched: 0,

                ..SessionStats::default()
            }
        );
    }

    #[test]
    fn cache_is_bounded_and_evicts_least_recently_used() {
        let mut s = DrilldownSession::with_capacity(DrilldownMode::CachedDynamic, 2);
        assert_eq!(s.capacity(), 2);
        let a = fact(1, 1); // hierarchies A(depth 1), B(depth 1)
        s.encoded(cold(&a));
        assert_eq!(s.len(), 2);
        // A new A-depth fills the cache past capacity: the oldest state that
        // is not part of the current invocation (A depth 1) is evicted while
        // B (just reused this call) survives.
        s.encoded(cold(&fact(2, 1)));
        assert_eq!(s.len(), 2);
        assert_eq!(
            s.stats(),
            SessionStats {
                recomputed: 1,
                reused: 1,
                delta_patched: 0,

                ..SessionStats::default()
            }
        );
        // A depth 1 was evicted: recomputed again; B still cached.
        s.encoded(cold(&a));
        assert_eq!(
            s.stats(),
            SessionStats {
                recomputed: 1,
                reused: 1,
                delta_patched: 0,

                ..SessionStats::default()
            }
        );
    }

    #[test]
    fn equally_shaped_factors_with_different_content_do_not_alias() {
        // Two factors with the same name/depth/leaf-count but different paths
        // (think: the villages of district D1 vs district D2) must not reuse
        // each other's aggregates.
        let a = hierarchy("H", 0, 1, 2);
        let mut other_paths = a.paths.clone();
        for p in &mut other_paths {
            *p = vec![Value::str(format!("other-{}", p[0]))];
        }
        let b = HierarchyFactor::from_paths("H", a.attrs.clone(), other_paths);
        assert_eq!(a.depth(), b.depth());
        assert_eq!(a.leaf_count(), b.leaf_count());
        let mut s = DrilldownSession::new(DrilldownMode::CachedDynamic);
        s.encoded(cold(&Factorization::new(vec![a.clone()])));
        s.encoded(cold(&Factorization::new(vec![b])));
        assert_eq!(
            s.stats(),
            SessionStats {
                recomputed: 1,
                reused: 0,
                delta_patched: 0,

                ..SessionStats::default()
            }
        );
        // The original factor is still served from cache.
        s.encoded(cold(&Factorization::new(vec![a])));
        assert_eq!(
            s.stats(),
            SessionStats {
                recomputed: 0,
                reused: 1,
                delta_patched: 0,

                ..SessionStats::default()
            }
        );
    }

    /// The reuse counts of a cached drill-down walk: the `Value`-keyed
    /// cache this session once kept beside the encoded one read the same.
    #[test]
    fn encoded_mode_reuses_like_legacy_mode() {
        let mut s = DrilldownSession::new(DrilldownMode::CachedDynamic);
        s.encoded(cold(&fact(1, 1)));
        assert_eq!(
            s.stats(),
            SessionStats {
                recomputed: 2,
                reused: 0,
                delta_patched: 0,

                ..SessionStats::default()
            }
        );
        s.encoded(cold(&fact(1, 2)));
        assert_eq!(
            s.stats(),
            SessionStats {
                recomputed: 1,
                reused: 1,
                delta_patched: 0,

                ..SessionStats::default()
            }
        );
        // Revisit the first configuration: everything served from cache.
        s.encoded(cold(&fact(1, 1)));
        assert_eq!(
            s.stats(),
            SessionStats {
                recomputed: 0,
                reused: 2,
                delta_patched: 0,

                ..SessionStats::default()
            }
        );
        // There is one cache: the same shape again is still served from it.
        s.encoded(cold(&fact(1, 1)));
        assert_eq!(
            s.stats(),
            SessionStats {
                recomputed: 0,
                reused: 2,
                delta_patched: 0,

                ..SessionStats::default()
            }
        );
    }

    /// The capacity bounds every cached state together, across invocations
    /// of mixed depth, including ones wider than the bound.
    #[test]
    fn capacity_bounds_both_backends_together() {
        let mut s = DrilldownSession::with_capacity(DrilldownMode::CachedDynamic, 3);
        s.encoded(cold(&fact(1, 1))); // 2 states
        s.encoded(cold(&fact(2, 2))); // +2 states -> one eviction
        assert!(s.len() <= s.capacity(), "{} > {}", s.len(), s.capacity());
        s.encoded(cold(&fact(2, 1)));
        assert!(s.len() <= s.capacity(), "{} > {}", s.len(), s.capacity());
        s.encoded(cold(&fact(1, 2)));
        assert!(s.len() <= s.capacity(), "{} > {}", s.len(), s.capacity());
    }

    #[test]
    fn encoded_session_matches_fresh_computation() {
        use crate::encoded::{EncodedAggregates, EncodedFactorization};
        let f = fact(2, 2);
        let mut s = DrilldownSession::new(DrilldownMode::CachedDynamic);
        s.encoded(cold(&fact(2, 1)));
        let (enc, aggs) = s.encoded(cold(&f));
        let fresh_fact = EncodedFactorization::encode(&f);
        let fresh = EncodedAggregates::compute(&fresh_fact, &Exec::Serial);
        assert_eq!(enc.n_rows(), fresh_fact.n_rows());
        for c in 0..f.n_cols() {
            assert_eq!(aggs.total(c), fresh.total(c));
            assert_eq!(aggs.counts_raw(c).0, fresh.counts_raw(c).0);
            assert_eq!(aggs.block_runs_raw(c).0, fresh.block_runs_raw(c).0);
        }
        assert_eq!(aggs.grand_total(), fresh.grand_total());
    }

    #[test]
    fn epoch_bump_unreaches_cached_state_and_verifies_by_diff() {
        let mut s = DrilldownSession::new(DrilldownMode::CachedDynamic);
        let f = fact(2, 2);
        s.encoded(cold(&f));
        s.encoded(cold(&f));
        assert_eq!(
            s.stats(),
            SessionStats {
                recomputed: 0,
                reused: 2,
                delta_patched: 0,

                ..SessionStats::default()
            }
        );
        // After an ingest epoch bump the old key can no longer hit; the
        // unchanged content is re-validated by an (empty) path diff instead
        // of trusted via fingerprint.
        assert_eq!(s.epoch("A"), 0);
        assert_eq!(s.bump_epoch("A"), 1);
        s.encoded(cold(&f));
        assert_eq!(
            s.stats(),
            SessionStats {
                recomputed: 0,
                reused: 1,
                delta_patched: 1,

                ..SessionStats::default()
            }
        );
        // ... and the re-validated entry hits directly on the next call.
        s.encoded(cold(&f));
        assert_eq!(
            s.stats(),
            SessionStats {
                recomputed: 0,
                reused: 2,
                delta_patched: 0,

                ..SessionStats::default()
            }
        );
    }

    #[test]
    fn delta_patch_maintains_changed_hierarchy_exactly() {
        let mut s = DrilldownSession::new(DrilldownMode::CachedDynamic);
        let a = hierarchy("A", 0, 2, 2);
        let b = hierarchy("B", 10, 1, 2);
        s.encoded(cold(&Factorization::new(vec![a.clone(), b.clone()])));
        // A streaming ingest adds one new leaf path (with unseen values) and
        // removes one existing path from A, then bumps A's epoch.
        let mut paths = a.paths.clone();
        paths.push(vec![Value::str("/zz"), Value::str("/zz/0")]);
        paths.remove(0);
        let a2 = HierarchyFactor::from_paths("A", a.attrs.clone(), paths);
        s.bump_epoch("A");
        let (enc, aggs) = s.encoded(cold(&Factorization::new(vec![a2.clone(), b.clone()])));
        assert_eq!(
            s.stats(),
            SessionStats {
                recomputed: 0,
                reused: 1,
                delta_patched: 1,

                ..SessionStats::default()
            }
        );
        // The patched state agrees with a cold computation, decoded per value
        // (the patched dictionary keeps stable codes plus an appended tail).
        let fresh_fact =
            crate::encoded::EncodedFactorization::encode(&Factorization::new(vec![a2, b]));
        let fresh = EncodedAggregates::compute(&fresh_fact, &Exec::Serial);
        assert_eq!(aggs.grand_total(), fresh.grand_total());
        for c in 0..enc.n_cols() {
            assert_eq!(aggs.total(c), fresh.total(c));
            let (desc, scale) = aggs.counts_raw(c);
            for (code, count) in desc.iter().enumerate() {
                let value = enc.dict(c).value(code as u32);
                let cold = fresh_fact
                    .dict(c)
                    .code_of(value)
                    .map(|fc| fresh.counts_raw(c).0[fc as usize] * fresh.counts_raw(c).1)
                    .unwrap_or(0.0);
                assert_eq!(count * scale, cold, "col {c} value {value}");
            }
        }
        // Pre-existing values kept their codes (stable-code extension).
        let base = crate::encoded::EncodedFactor::encode(&a, &Exec::Serial);
        for (code, value) in base.levels[0].dict.iter() {
            assert_eq!(enc.factors()[0].levels[0].dict.code_of(value), Some(code));
        }
    }

    #[test]
    fn aggregates_are_identical_across_modes() {
        let f = fact(2, 2);
        let (_, from_static) = DrilldownSession::new(DrilldownMode::Static).encoded(cold(&f));
        let mut dynamic = DrilldownSession::new(DrilldownMode::CachedDynamic);
        dynamic.encoded(cold(&fact(2, 1)));
        let (_, from_dynamic) = dynamic.encoded(cold(&f));
        for c in 0..f.n_cols() {
            assert_eq!(from_static.total(c), from_dynamic.total(c));
            assert_eq!(from_static.counts_raw(c), from_dynamic.counts_raw(c));
            assert_eq!(
                from_static.block_runs_raw(c),
                from_dynamic.block_runs_raw(c)
            );
        }
        assert_eq!(from_static.grand_total(), from_dynamic.grand_total());
    }
}
