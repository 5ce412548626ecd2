//! The serving cache: one pair of LRU caches (computed [`View`]s keyed by
//! [`ViewKey`], trained [`TrainedModel`] handles keyed by [`ModelKey`])
//! behind a claim protocol, shared by every request of a [`crate::Session`]
//! or a [`crate::BatchServer`].
//!
//! A lookup that misses *claims* the key: concurrent requests needing the
//! same key wait for the claimant to publish instead of recomputing, so each
//! distinct `(view, model)` pair is trained exactly once however many
//! requests want it. Every request reaches the caches through a
//! [`SharedCacheHandle`] pinned to the snapshot of the view it was posed
//! over; that pin is the one publication rule under ingest (see
//! [`SharedCaches::handle_for`]).

use reptile::{EngineCache, IngestReport, ModelKey, TrainedModel, ViewKey};
use reptile_relational::{Relation, Value, View};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Number of views the serving cache keeps.
const DEFAULT_VIEW_CAPACITY: usize = 256;
/// Number of trained models the serving cache keeps.
const DEFAULT_MODEL_CAPACITY: usize = 128;

/// Counters describing a cache's behaviour since creation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing (the caller computed the entry).
    pub misses: u64,
    /// Entries stored.
    pub insertions: u64,
    /// Entries dropped to make room.
    pub evictions: u64,
    /// Entries an ingest made stale (advanced or dropped).
    pub invalidations: u64,
    /// Entries an ingest moved to its new snapshot by the batch, stale or
    /// untouched.
    pub advanced: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise sum of two stats (for aggregated snapshots).
    fn plus(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            insertions: self.insertions + other.insertions,
            evictions: self.evictions + other.evictions,
            invalidations: self.invalidations + other.invalidations,
            advanced: self.advanced + other.advanced,
        }
    }

    fn json_object(&self) -> String {
        format!(
            "{{\"hits\":{},\"misses\":{},\"insertions\":{},\"evictions\":{},\"invalidations\":{},\"advanced\":{}}}",
            self.hits,
            self.misses,
            self.insertions,
            self.evictions,
            self.invalidations,
            self.advanced
        )
    }
}

/// One aggregated, point-in-time copy of the serving cache's statistics:
/// the view cache, the model cache, and their counter-wise total. Returned
/// by [`SharedCaches::stats_snapshot`] (and surfaced from `Session` /
/// `BatchServer`), so one call answers "what did the caches do". Plain
/// `Copy` data — serializable with [`CachesSnapshot::to_json`] as
/// hand-rolled JSON.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CachesSnapshot {
    /// View-cache counters.
    pub views: CacheStats,
    /// Model-cache counters (misses count model trainings).
    pub models: CacheStats,
}

impl CachesSnapshot {
    /// Counter-wise sum over both caches.
    pub fn total(&self) -> CacheStats {
        self.views.plus(&self.models)
    }

    /// Ingest invalidations across both caches.
    pub fn invalidations(&self) -> u64 {
        self.views.invalidations + self.models.invalidations
    }

    /// JSON object with `views`, `models`, and `total` sub-objects.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"views\":{},\"models\":{},\"total\":{}}}",
            self.views.json_object(),
            self.models.json_object(),
            self.total().json_object()
        )
    }
}

struct Entry<V> {
    value: V,
    last_used: u64,
}

/// A least-recently-used cache with statistics. Eviction scans for the
/// oldest entry, which is linear in the capacity — fine for the few hundred
/// entries a serving cache holds, and it keeps the structure dependency-free.
struct LruCache<K, V> {
    capacity: usize,
    clock: u64,
    map: HashMap<K, Entry<V>>,
    stats: CacheStats,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// A cache holding at most `capacity` entries (minimum 1).
    fn new(capacity: usize) -> Self {
        LruCache {
            capacity: capacity.max(1),
            clock: 0,
            map: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Look up `key`, counting a hit or miss and refreshing recency.
    fn get(&mut self, key: &K) -> Option<V> {
        self.clock += 1;
        let clock = self.clock;
        let value = self.map.get_mut(key).map(|e| {
            e.last_used = clock;
            e.value.clone()
        });
        match value {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        value
    }

    /// Store `key -> value`, evicting the least-recently-used entry when the
    /// cache is full and `key` is new.
    fn insert(&mut self, key: K, value: V) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(existing) = self.map.get_mut(&key) {
            existing.value = value;
            existing.last_used = clock;
            return;
        }
        if self.map.len() >= self.capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                self.stats.evictions += 1;
            }
        }
        self.map.insert(
            key,
            Entry {
                value,
                last_used: clock,
            },
        );
        self.stats.insertions += 1;
    }

    /// Take out the entries whose key `stale` selects, counting them as
    /// invalidations: after an [`IngestReport`] only the signatures whose
    /// predicate selects a changed row go and every other entry stays warm.
    fn take_stale(&mut self, stale: impl Fn(&K) -> bool) -> Vec<(K, V)> {
        let taken: Vec<(K, V)> = self
            .map
            .extract_if(|k, _| stale(k))
            .map(|(k, e)| (k, e.value))
            .collect();
        self.stats.invalidations += taken.len() as u64;
        taken
    }
}

/// How many ingest change sets [`IngestLog`] retains per relation lineage
/// before it starts answering conservatively for very old snapshots.
const INGEST_LOG_WINDOW: usize = 64;

/// Per-lineage log of recent ingest change sets: whether a view computed
/// over an older snapshot is still content-identical to its current
/// recomputation (no logged ingest after its snapshot changed a row its
/// predicate selects). The log keeps the last 64 change sets per lineage;
/// snapshots older than the window are conservatively reported out of date.
#[derive(Default)]
struct IngestLog {
    lineages: HashMap<u64, LineageLog>,
}

#[derive(Default)]
struct LineageLog {
    /// Snapshots older than this version fall outside the retained window.
    min_known: u64,
    /// Highest post-ingest version recorded for the lineage.
    latest: u64,
    /// `(post-ingest version, changed rows)`, oldest first. The row sets
    /// are shared with the [`IngestReport`]s they came from, not copied.
    entries: VecDeque<(u64, Arc<[Vec<Value>]>)>,
}

impl LineageLog {
    /// Forget every change set and start the window at `version`.
    fn restart_at(&mut self, version: u64) {
        self.entries.clear();
        self.min_known = version;
        self.latest = version;
    }
}

impl IngestLog {
    /// Record one ingest's change set. Returns whether the lineage was
    /// witnessed *contiguously*: versions advance by one per ingest, so a
    /// recorded version more than one past the previously witnessed one
    /// means the holder missed at least one ingest and its cached entries
    /// were never screened against the missed change sets. The log then
    /// rejects every older snapshot from now on, and the caller must flush.
    #[must_use = "a gap means the caller's cached entries were never screened and must be flushed"]
    fn record(&mut self, report: &IngestReport) -> bool {
        let log = self.lineages.entry(report.relation.ident()).or_default();
        let version = report.relation.version();
        if version > log.latest + 1 {
            log.restart_at(version);
            return false;
        }
        log.latest = log.latest.max(version);
        log.entries
            .push_back((version, Arc::clone(report.changed_rows())));
        while log.entries.len() > INGEST_LOG_WINDOW {
            if let Some((version, _)) = log.entries.pop_front() {
                log.min_known = version;
            }
        }
        true
    }

    /// Mark a lineage as witnessed up to `version` without recording any
    /// change set: snapshots at or after `version` are accepted, older ones
    /// are conservatively rejected.
    fn seed(&mut self, relation_ident: u64, version: u64) {
        let log = self.lineages.entry(relation_ident).or_default();
        if version > log.latest {
            log.restart_at(version);
        }
    }

    /// The highest post-ingest version recorded for a lineage (0 if none).
    fn horizon(&self, relation_ident: u64) -> u64 {
        self.lineages
            .get(&relation_ident)
            .map_or(0, |log| log.latest)
    }

    /// Whether a view with canonical signature `key`, computed over
    /// snapshot `version` of its lineage, still matches the current
    /// snapshot's contents.
    fn is_current(&self, key: &ViewKey, version: u64) -> bool {
        let Some(log) = self.lineages.get(&key.relation_ident()) else {
            return true; // no ingest ever recorded for this lineage
        };
        if version < log.min_known {
            return false; // predates the retained window: assume stale
        }
        log.entries
            .iter()
            .filter(|(v, _)| *v > version)
            .all(|(_, rows)| !rows.iter().any(|row| key.matches_row(row)))
    }
}

/// An LRU cache wrapped with the claim protocol: a miss claims the key, and
/// concurrent readers of a claimed key wait for the claimant to publish.
struct Claimable<K, V> {
    state: Mutex<ClaimState<K, V>>,
    ready: Condvar,
}

struct ClaimState<K, V> {
    cache: LruCache<K, V>,
    in_flight: HashSet<K>,
}

impl<K: Eq + Hash + Clone, V: Clone> Claimable<K, V> {
    fn new(capacity: usize) -> Self {
        Claimable {
            state: Mutex::new(ClaimState {
                cache: LruCache::new(capacity),
                in_flight: HashSet::new(),
            }),
            ready: Condvar::new(),
        }
    }

    /// Return the cached value (a hit, possibly after waiting out another
    /// request's claim), or claim the key (a miss; the caller must
    /// `fulfill` or `abort`). A claimed key is never also cached, so
    /// waiting first and looking up after counts exactly one hit or miss.
    fn get_or_claim(&self, key: &K) -> Option<V> {
        let mut st = self.state.lock().expect("cache lock");
        while st.in_flight.contains(key) {
            st = self.ready.wait(st).expect("cache lock");
        }
        let value = st.cache.get(key);
        if value.is_none() {
            st.in_flight.insert(key.clone());
        }
        value
    }

    /// Release a claimed key and wake the waiters, publishing `value` only
    /// if `still_valid()` — evaluated **inside this cache's critical
    /// section**, so the check and the insert cannot be separated by a
    /// concurrent `invalidate_ingest` (which records the log before
    /// evicting: an insert that slips in before the record is screened by
    /// the eviction that follows; one that comes after sees the recorded
    /// change set and skips itself). Returns whether `value` was stored.
    fn fulfill(&self, key: K, value: V, still_valid: impl FnOnce() -> bool) -> bool {
        let mut st = self.state.lock().expect("cache lock");
        st.in_flight.remove(&key);
        let stored = still_valid();
        if stored {
            st.cache.insert(key, value);
        }
        self.ready.notify_all();
        stored
    }

    /// Release a claim whose computation failed; a waiter will re-claim.
    fn abort(&self, key: &K) {
        let mut st = self.state.lock().expect("cache lock");
        st.in_flight.remove(key);
        self.ready.notify_all();
    }

    /// Drop the entries whose key `stale` selects, except those `claim`
    /// selects: their keys are claimed in the same critical section and the
    /// entries returned, for the caller to `fulfill` or `abort` each.
    fn invalidate(&self, stale: impl Fn(&K) -> bool, claim: impl Fn(&V) -> bool) -> Vec<(K, V)> {
        let mut st = self.state.lock().expect("cache lock");
        let mut taken = st.cache.take_stale(stale);
        taken.retain(|(_, value)| claim(value));
        for (key, _) in &taken {
            st.in_flight.insert(key.clone());
        }
        taken
    }

    /// The entries whose value `select` picks, left in place, without
    /// touching recency or counts.
    fn select(&self, select: impl Fn(&V) -> bool) -> Vec<(K, V)> {
        let st = self.state.lock().expect("cache lock");
        let entries = st.cache.map.iter();
        entries
            .filter(|(_, e)| select(&e.value))
            .map(|(k, e)| (k.clone(), e.value.clone()))
            .collect()
    }

    /// Store `value` under `key` in place of its entry if `unchanged`
    /// accepts the entry's value, keeping its recency; returns whether it
    /// did.
    fn replace(&self, key: &K, value: V, unchanged: impl FnOnce(&V) -> bool) -> bool {
        let mut st = self.state.lock().expect("cache lock");
        match st.cache.map.get_mut(key) {
            Some(entry) if unchanged(&entry.value) => {
                entry.value = value;
                true
            }
            _ => false,
        }
    }

    /// Count `n` entries moved to a new snapshot by its batch.
    fn count_advanced(&self, n: u64) {
        self.state.lock().expect("cache lock").cache.stats.advanced += n;
    }

    fn stats(&self) -> CacheStats {
        self.state.lock().expect("cache lock").cache.stats
    }
}

/// The view and model caches of a `Session` or a `BatchServer`, shared by
/// every request it serves.
///
/// Each cache operation is individually atomic, a lock is held only for
/// the map operation itself — never across a view scan or a model fit —
/// and the only nesting is the ingest log inside a cache lock at
/// publication, so the engine can call in from any number of pool workers
/// without deadlock.
pub struct SharedCaches {
    views: Claimable<ViewKey, Arc<View>>,
    models: Claimable<ModelKey, Arc<TrainedModel>>,
    /// Recent ingest change sets: a handle pinned to a snapshot an ingest
    /// has since made out of date discards its publications.
    ingest_log: Mutex<IngestLog>,
}

impl SharedCaches {
    /// Empty caches (256 views, 128 models).
    pub fn new() -> Self {
        SharedCaches {
            views: Claimable::new(DEFAULT_VIEW_CAPACITY),
            models: Claimable::new(DEFAULT_MODEL_CAPACITY),
            ingest_log: Mutex::new(IngestLog::default()),
        }
    }

    fn log(&self) -> MutexGuard<'_, IngestLog> {
        self.ingest_log.lock().expect("ingest log lock")
    }

    /// Aggregated snapshot of both caches' statistics (hits, misses,
    /// evictions and ingest invalidations across the view and model
    /// caches). Each cache is locked once, never both at the same time.
    pub fn stats_snapshot(&self) -> CachesSnapshot {
        CachesSnapshot {
            views: self.views.stats(),
            models: self.models.stats(),
        }
    }

    /// The cached views, in no particular order: a point-in-time copy that
    /// counts no hit or miss.
    pub fn cached_views(&self) -> Vec<Arc<View>> {
        let entries = self.views.select(|_| true);
        entries.into_iter().map(|(_, view)| view).collect()
    }

    /// A per-request handle pinned to the snapshot `view` was computed over.
    /// Everything the engine derives while serving that request (drilled
    /// views, trained models) comes from the same snapshot, so if an ingest
    /// changes rows the view's predicate selects — before, during or after
    /// the request — the handle discards its publications instead of caching
    /// pre-ingest state under post-ingest keys. The request itself still
    /// gets its snapshot-consistent result.
    pub fn handle_for(&self, view: &View) -> SharedCacheHandle<'_> {
        self.pinned(ViewKey::of_view(view), view.relation().version())
    }

    /// A handle pinned to the view signature `key` over snapshot `version`.
    pub(crate) fn pinned(&self, key: ViewKey, version: u64) -> SharedCacheHandle<'_> {
        SharedCacheHandle {
            caches: self,
            pin: (key, version),
            claimed_views: Mutex::new(Vec::new()),
            claimed_models: Mutex::new(Vec::new()),
        }
    }

    /// Versioned invalidation after an ingest: exactly the views (and the
    /// models trained over them) whose signature the report marks stale —
    /// i.e. whose predicate selects at least one inserted or deleted row —
    /// go stale, and the change set is recorded, so handles pinned to
    /// snapshots this batch made out of date (and engine requests posed over
    /// them, via [`EngineCache::accepts_view`]) can neither read nor
    /// publish.
    ///
    /// Every view over the snapshot the batch was applied to moves to the
    /// new one by the batch ([`View::advance`]), so the cache holds no
    /// snapshot but the latest one its entries reach:
    /// - a stale one is stored again, not dropped: its key is taken out and
    ///   claimed under the cache lock, the view advanced outside it and
    ///   published through the same pinned check as any computed view, so a
    ///   request waiting on the key gets a hit;
    /// - an untouched one keeps serving while it advances, and is then
    ///   replaced in place.
    ///
    /// Every other stale entry, and every stale model, is dropped.
    pub fn invalidate_ingest(&self, report: &IngestReport) {
        // Record first: a reader that consults the log after this point sees
        // the change set before any republished post-ingest entry can land.
        let contiguous = self.log().record(report);
        if !contiguous {
            // Missed an earlier ingest: nothing here was screened — flush.
            self.views.invalidate(|_| true, |_| false);
            self.models.invalidate(|_| true, |_| false);
            return;
        }
        let next = &report.relation;
        let advances = |view: &Arc<View>| next.succeeds(view.relation());
        let stale = self
            .views
            .invalidate(|key| report.invalidates_view(key), advances);
        self.models
            .invalidate(|key| report.invalidates_view(&key.view), |_| false);
        let untouched = self.views.select(advances);
        let mut advanced = 0;
        for (key, view) in stale {
            match view.advance(next) {
                Some(view) => {
                    let still_valid = || self.log().is_current(&key, next.version());
                    if self.views.fulfill(key.clone(), Arc::new(view), still_valid) {
                        advanced += 1;
                    }
                }
                None => self.views.abort(&key),
            }
        }
        for (key, old) in untouched {
            if let Some(view) = old.advance(next) {
                let unchanged = |entry: &Arc<View>| Arc::ptr_eq(entry, &old);
                if self.views.replace(&key, Arc::new(view), unchanged) {
                    advanced += 1;
                }
            }
        }
        if advanced > 0 {
            self.views.count_advanced(advanced);
        }
    }

    /// Mark these caches as up to date with `relation`'s lineage without
    /// recording a change set — called by `Session::new` and
    /// `BatchServer::new` so caches created after the engine already
    /// ingested start at the current snapshot instead of being refused cache
    /// access by the engine's horizon check forever.
    pub fn sync_with(&self, relation: &Relation) {
        self.log().seed(relation.ident(), relation.version());
    }
}

impl Default for SharedCaches {
    fn default() -> Self {
        Self::new()
    }
}

/// Borrowed, `EngineCache`-shaped access to a [`SharedCaches`], pinned to
/// one request's view snapshot.
///
/// The handle tracks its outstanding claims and releases them on drop, so a
/// worker that panics mid-computation (unwinding past its `put_*`/`abort_*`)
/// cannot leave a key in-flight forever and deadlock the waiters — they
/// re-claim and the panic propagates normally through the thread join.
///
/// One handle serves one request, but the engine evaluates that request's
/// candidate hierarchies *concurrently* ([`EngineCache`] takes `&self`), so
/// the claim lists sit behind a mutex of their own. Claim-list locks nest
/// inside nothing: they are taken only in the `EngineCache` methods, before
/// or after — never while — the `Claimable` cache lock is held.
pub struct SharedCacheHandle<'a> {
    caches: &'a SharedCaches,
    /// Canonical signature + snapshot version of the request's view.
    /// Everything the request derives only refines that view's predicate.
    pin: (ViewKey, u64),
    claimed_views: Mutex<Vec<ViewKey>>,
    claimed_models: Mutex<Vec<ModelKey>>,
}

impl SharedCacheHandle<'_> {
    /// Whether no ingest has changed rows the pinned view's predicate
    /// selects since its snapshot.
    fn pin_is_current(&self) -> bool {
        self.caches.log().is_current(&self.pin.0, self.pin.1)
    }
}

impl EngineCache for SharedCacheHandle<'_> {
    fn accepts_view(&self, view: &View) -> bool {
        self.caches
            .log()
            .is_current(&ViewKey::of_view(view), view.relation().version())
    }

    fn ingest_horizon(&self, relation_ident: u64) -> u64 {
        self.caches.log().horizon(relation_ident)
    }

    fn get_view(&self, key: &ViewKey) -> Option<Arc<View>> {
        if !self.pin_is_current() {
            // An ingest superseded the pinned snapshot mid-request: stop
            // reading the shared cache (its entries may reflect the newer
            // snapshot — a hit would mix snapshots within one request) and
            // do not claim (the publication would be discarded anyway, and
            // waiters should not block on it). The engine recomputes from
            // the request's own snapshot.
            return None;
        }
        let view = self.caches.views.get_or_claim(key);
        if view.is_none() {
            let mut claims = self.claimed_views.lock().expect("claim list lock");
            claims.push(key.clone());
        }
        view
    }

    fn put_view(&self, key: ViewKey, view: Arc<View>) {
        // No claim held means the stale-snapshot `get` skipped the claim
        // protocol: drop the value without touching the in-flight set (the
        // key may be another worker's live claim).
        if take_claim(&self.claimed_views, &key) {
            self.caches
                .views
                .fulfill(key, view, || self.pin_is_current());
        }
    }

    fn abort_view(&self, key: &ViewKey) {
        if take_claim(&self.claimed_views, key) {
            self.caches.views.abort(key);
        }
    }

    fn get_model(&self, key: &ModelKey) -> Option<Arc<TrainedModel>> {
        if !self.pin_is_current() {
            return None; // see get_view: no mixed-snapshot reads, no claims
        }
        let model = self.caches.models.get_or_claim(key);
        if model.is_none() {
            let mut claims = self.claimed_models.lock().expect("claim list lock");
            claims.push(key.clone());
        }
        model
    }

    fn put_model(&self, key: ModelKey, model: Arc<TrainedModel>) {
        if take_claim(&self.claimed_models, &key) {
            self.caches
                .models
                .fulfill(key, model, || self.pin_is_current());
        }
    }

    fn abort_model(&self, key: &ModelKey) {
        if take_claim(&self.claimed_models, key) {
            self.caches.models.abort(key);
        }
    }
}

/// Remove `key`'s outstanding claim, returning whether this handle held
/// one. `false` means the handle never claimed the key (its stale-snapshot
/// `get` skipped the claim protocol) — the publication must then be dropped
/// *without* touching the in-flight set, which may hold another worker's
/// live claim.
fn take_claim<K: Eq>(claims: &Mutex<Vec<K>>, key: &K) -> bool {
    let mut claims = claims.lock().expect("claim list lock");
    let held = claims.iter().position(|k| k == key);
    held.map(|i| claims.swap_remove(i)).is_some()
}

impl Drop for SharedCacheHandle<'_> {
    fn drop(&mut self) {
        for key in self.claimed_views.lock().expect("claim list lock").iter() {
            self.caches.views.abort(key);
        }
        for key in self.claimed_models.lock().expect("claim list lock").iter() {
            self.caches.models.abort(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<K: Eq + Hash, V> LruCache<K, V> {
        fn contains(&self, key: &K) -> bool {
            self.map.contains_key(key)
        }

        fn len(&self) -> usize {
            self.map.len()
        }
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut cache: LruCache<u32, u32> = LruCache::new(4);
        assert_eq!(cache.get(&1), None);
        cache.insert(1, 10);
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.get(&2), None);
        let stats = cache.stats;
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn eviction_follows_lru_order() {
        let mut cache: LruCache<u32, u32> = LruCache::new(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        // Touch 1 so that 2 becomes the least recently used.
        assert_eq!(cache.get(&1), Some(10));
        cache.insert(3, 30);
        assert!(cache.contains(&1));
        assert!(!cache.contains(&2), "2 was least recently used");
        assert!(cache.contains(&3));
        assert_eq!(cache.stats.evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinserting_updates_without_eviction() {
        let mut cache: LruCache<u32, u32> = LruCache::new(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        cache.insert(1, 11);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&1), Some(11));
        assert_eq!(cache.stats.evictions, 0);
    }

    #[test]
    fn capacity_of_zero_is_clamped_to_one() {
        let mut cache: LruCache<u32, u32> = LruCache::new(0);
        assert_eq!(cache.capacity, 1);
        cache.insert(1, 10);
        cache.insert(2, 20);
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(&2));
    }
}
