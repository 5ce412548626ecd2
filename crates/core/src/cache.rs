//! Cross-invocation caching interfaces for the engine (the serving-side
//! counterpart of the paper's multi-query optimisation, Sections 4.4/5.1.3).
//!
//! A stateless [`crate::Reptile::recommend`] call recomputes every view and
//! retrains every model. Interactive drill-down sessions and batch serving
//! (see the `reptile-session` crate) instead pass an [`EngineCache`] to
//! [`crate::Reptile::recommend_with_cache`]: computed views are keyed by a
//! *canonical* [`ViewKey`] and trained models — bundled with their per-row
//! predictions as a reusable [`TrainedModel`] handle — by a [`ModelKey`], so
//! repeated complaints over the same view skip both the group-by scans and
//! the EM training entirely.
//!
//! The trait is deliberately minimal: the engine only asks "have you seen
//! this signature?" and "remember this". Eviction policy, statistics and
//! concurrency (including exactly-once training under contention) live with
//! the implementations in `reptile-session`.

use crate::engine::{RepairModelKind, ReptileConfig};
use reptile_model::{DesignRows, FeaturePlan, LinearModel, MultilevelModel};
use reptile_relational::{AggregateKind, AttrId, GroupKey, Predicate, Relation, Value, View};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Canonical signature of a computed view: the identity of the underlying
/// relation, the predicate's equality terms in sorted order (the same
/// conjunction written in any attribute order yields the same key), the
/// group-by list, and the measure.
///
/// Relation identity is the relation's *lineage ident*
/// ([`Relation::ident`]): distinct relations never share one, so
/// equally-shaped views over different relations (e.g. a clean panel and a
/// corrupted copy) cannot alias — while successive ingest snapshots of the
/// *same* relation deliberately do share it, so that warm entries survive an
/// ingest of rows their predicate does not select. The flip side of that
/// sharing is an invalidation obligation: whoever applies an
/// [`IngestBatch`](reptile_relational::IngestBatch) must evict the entries
/// the batch *does* touch ([`crate::engine::IngestReport::invalidates_view`]
/// is the exact rule; `reptile-session`'s `Session::ingest` and
/// `BatchServer::ingest` apply it).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ViewKey {
    relation: u64,
    terms: Vec<(AttrId, Value)>,
    group_by: Vec<AttrId>,
    measure: AttrId,
}

impl ViewKey {
    /// Canonicalise `(relation, predicate, group_by, measure)` into a key.
    pub fn new(
        relation: &Arc<Relation>,
        predicate: &Predicate,
        group_by: Vec<AttrId>,
        measure: AttrId,
    ) -> Self {
        // `Predicate` keeps its terms in canonical sorted-by-attribute order
        // (see `Predicate::and_eq`), so the term list is the key as-is.
        ViewKey {
            relation: relation.ident(),
            terms: predicate.terms().to_vec(),
            group_by,
            measure,
        }
    }

    /// The lineage ident of the relation this view reads.
    pub fn relation_ident(&self) -> u64 {
        self.relation
    }

    /// Whether `row` (a full tuple, indexed by attribute id) satisfies the
    /// view's predicate — i.e. whether inserting or deleting this row would
    /// change the view's contents. The invalidation primitive behind
    /// [`crate::engine::IngestReport::invalidates_view`].
    pub fn matches_row(&self, row: &[Value]) -> bool {
        self.terms
            .iter()
            .all(|(attr, value)| row.get(attr.index()) == Some(value))
    }

    /// The signature of an already-computed view.
    pub fn of_view(view: &View) -> Self {
        ViewKey::new(
            view.relation(),
            view.predicate(),
            view.group_by().to_vec(),
            view.measure(),
        )
    }

    /// The signature of `view` drilled down by appending `added` to its
    /// group-by list (the *parallel groups* training view).
    pub fn drilled(view: &View, added: AttrId) -> Self {
        let mut group_by = view.group_by().to_vec();
        group_by.push(added);
        ViewKey::new(view.relation(), view.predicate(), group_by, view.measure())
    }

    /// The signature of `view` drilled down by `added` and restricted to the
    /// provenance of tuple `key` (the complaint-scoped drill-down view).
    pub fn drilled_for(view: &View, key: &GroupKey, added: AttrId) -> Self {
        let mut group_by = view.group_by().to_vec();
        group_by.push(added);
        ViewKey::new(
            view.relation(),
            &view.provenance_predicate(key),
            group_by,
            view.measure(),
        )
    }
}

/// Signature of one trained repair model: the training view it was fitted
/// over, the modelled statistic, and a fingerprint of everything else that
/// shapes the fit (model kind, EM config, backend, empty-group policy,
/// feature plan).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelKey {
    /// Signature of the parallel-groups training view.
    pub view: ViewKey,
    /// The statistic the model estimates.
    pub statistic: AggregateKind,
    /// Fingerprint of the engine configuration and feature plan.
    pub config_fingerprint: u64,
}

/// Stable fingerprint of the parts of the engine configuration that change
/// what a fitted model looks like.
pub fn config_fingerprint(config: &ReptileConfig, plan: &FeaturePlan) -> u64 {
    let mut h = DefaultHasher::new();
    match config.model {
        RepairModelKind::MultiLevel => 0u8.hash(&mut h),
        RepairModelKind::Linear => 1u8.hash(&mut h),
    }
    config.em.iterations.hash(&mut h);
    config.em.ridge.to_bits().hash(&mut h);
    config.em.tolerance.to_bits().hash(&mut h);
    config.backend.hash(&mut h);
    config.empty_groups.hash(&mut h);
    plan.extras.len().hash(&mut h);
    for extra in &plan.extras {
        extra.name.hash(&mut h);
        extra.attr.hash(&mut h);
        extra.values.len().hash(&mut h);
        for (value, feature) in &extra.values {
            value.hash(&mut h);
            feature.to_bits().hash(&mut h);
        }
    }
    plan.exclude_from_random_effects.hash(&mut h);
    h.finish()
}

/// The fitted repair model itself.
#[derive(Debug, Clone)]
pub enum FittedRepairModel {
    /// Multi-level (mixed effects) model — the paper default.
    MultiLevel(MultilevelModel),
    /// Plain linear regression (the "Linear" ablation).
    Linear(LinearModel),
}

/// A reusable trained-model handle: the fitted model plus its expected
/// statistic for every row of the training design, and the design's
/// key → row resolver (its path tables, not the design). Serving a warm
/// complaint needs only these — no design rebuild, no retraining.
#[derive(Debug, Clone)]
pub struct TrainedModel {
    /// The fitted model.
    pub model: FittedRepairModel,
    /// Model-estimated expected statistic per design row.
    pub predictions: Vec<f64>,
    /// Resolves a drill-down group's key to its design row.
    pub rows: Arc<DesignRows>,
}

impl TrainedModel {
    /// The expected statistic of each drill-down group of `view`, in group
    /// order (`None` where the training design has no row for the group).
    pub fn expected(&self, view: &View) -> Vec<Option<f64>> {
        let rows = self.rows.rows_of_keys(view.groups().map(|(key, _)| key));
        rows.into_iter()
            .map(|row| row.map(|row| self.predictions[row]))
            .collect()
    }
}

/// A cache the engine consults during [`crate::Reptile::recommend_with_cache`].
///
/// `get_*` returning `None` is a *claim*: the engine computes the entry and
/// either `put_*`s it or, on failure, `abort_*`s the claim. Blocking
/// implementations (the batch server's shared cache) use the claim to make
/// concurrent duplicate work wait instead of retraining.
///
/// Every method takes `&self` and the trait requires [`Sync`]: the engine
/// evaluates candidate hierarchies *concurrently* on the shard pool, and
/// all of them look up and publish through the one cache handle the caller
/// passed in. Implementations provide their own interior mutability behind
/// whatever lock discipline they already have — a plain mutex around the
/// LRU maps for the single-session caches, the claim-protocol mutex +
/// condvar for the batch server's shared caches. The contract for
/// implementors: each method must be individually atomic and must never
/// hold a lock while calling back into the engine; blocking in `get_*`
/// (waiting out another worker's in-flight claim) is allowed because the
/// engine dispatches hierarchy evaluations as *may-block* pool jobs, which
/// the pool's work-stealing assist never runs inline on a waiting caller.
pub trait EngineCache: Sync {
    /// Whether this cache accepts requests posed over `view`'s snapshot.
    /// After an ingest-driven invalidation the serving caches record the
    /// change set; a view whose snapshot predates an ingest *whose changed
    /// rows its predicate selects* is out of date (its own contents differ
    /// from the current snapshot's), and the engine serves such requests
    /// *without* the cache — they get a snapshot-consistent answer but can
    /// neither read post-ingest entries (mixing snapshots) nor write
    /// pre-ingest results under keys that survived the eviction
    /// (resurrecting staleness). A pre-ingest view whose predicate selects
    /// none of the changed rows is content-identical to its current
    /// recomputation — and so is everything the engine derives from it
    /// (drilled and parallel views only *refine* its predicate) — so it
    /// keeps full cache access. The default accepts everything.
    fn accepts_view(&self, _view: &View) -> bool {
        true
    }
    /// The highest post-ingest relation version (per lineage ident) this
    /// cache has been invalidated for — see [`IngestLog::horizon`]. The
    /// engine refuses to consult a cache whose horizon lags the registered
    /// relation's current version: such a cache missed an ingest
    /// invalidation and may hold entries no eviction ever screened. The
    /// default (0) is correct for caches that never outlive an ingest.
    fn ingest_horizon(&self, _relation_ident: u64) -> u64 {
        0
    }
    /// Look up a computed view.
    fn get_view(&self, key: &ViewKey) -> Option<Arc<View>>;
    /// Store a computed view.
    fn put_view(&self, key: ViewKey, view: Arc<View>);
    /// Release a view claim after a failed computation.
    fn abort_view(&self, _key: &ViewKey) {}
    /// Look up a trained model.
    fn get_model(&self, key: &ModelKey) -> Option<Arc<TrainedModel>>;
    /// Store a trained model.
    fn put_model(&self, key: ModelKey, model: Arc<TrainedModel>);
    /// Release a model claim after a failed fit.
    fn abort_model(&self, _key: &ModelKey) {}
}

/// How many ingest change sets [`IngestLog`] retains per relation lineage
/// before it starts answering conservatively for very old snapshots.
const INGEST_LOG_WINDOW: usize = 64;

/// Per-lineage log of recent ingest change sets — the bookkeeping behind
/// [`EngineCache::accepts_view`]. Serving caches record every
/// [`IngestReport`](crate::engine::IngestReport) they invalidate for;
/// [`IngestLog::is_current`] then answers whether a view computed over an
/// older snapshot is still content-identical to its current recomputation
/// (no logged ingest after its snapshot changed a row its predicate
/// selects). The log keeps the last 64 change sets per
/// lineage; snapshots older than the window are conservatively reported
/// out of date.
#[derive(Debug, Default)]
pub struct IngestLog {
    lineages: HashMap<u64, LineageLog>,
}

#[derive(Debug)]
struct LineageLog {
    /// Snapshots older than this version fall outside the retained window.
    min_known: u64,
    /// Highest post-ingest version recorded for the lineage.
    latest: u64,
    /// `(post-ingest version, changed rows)`, oldest first. The row sets
    /// are shared with the [`IngestReport`](crate::engine::IngestReport)s
    /// they came from (and with every other log), not copied.
    entries: VecDeque<(u64, Arc<[Vec<Value>]>)>,
}

impl IngestLog {
    /// An empty log.
    pub fn new() -> Self {
        IngestLog::default()
    }

    /// Record one ingest's change set (shared by `Arc`, not copied).
    ///
    /// Returns whether the lineage was witnessed *contiguously*: versions
    /// advance by one per ingest, so a recorded version more than one past
    /// the previously witnessed one means this log's holder missed at least
    /// one ingest — its cached entries were never screened against the
    /// missed change sets. In that case the log discards what it knew about
    /// the lineage (conservatively rejecting every older snapshot from now
    /// on) and returns `false`; the caller must flush its cached entries
    /// for the same reason.
    #[must_use = "a gap means the caller's cached entries were never screened and must be flushed"]
    pub fn record(&mut self, report: &crate::engine::IngestReport) -> bool {
        let log = self
            .lineages
            .entry(report.relation.ident())
            .or_insert(LineageLog {
                min_known: 0,
                latest: 0,
                entries: VecDeque::new(),
            });
        let version = report.relation.version();
        let contiguous = version <= log.latest + 1;
        if !contiguous {
            // Missed ingest(s): everything known about the lineage is
            // unreliable. Start over from this snapshot.
            log.entries.clear();
            log.min_known = version;
            log.latest = version;
            return false;
        }
        log.latest = log.latest.max(version);
        log.entries
            .push_back((version, report.changed_rows.clone()));
        while log.entries.len() > INGEST_LOG_WINDOW {
            if let Some((version, _)) = log.entries.pop_front() {
                log.min_known = version;
            }
        }
        true
    }

    /// Mark a lineage as witnessed up to `version` without recording any
    /// change set — how a *freshly created* (hence empty) cache over an
    /// already-ingested relation starts: snapshots at or after `version`
    /// are accepted, anything older is conservatively rejected, and the
    /// next contiguous ingest keeps full precision.
    pub fn seed(&mut self, relation_ident: u64, version: u64) {
        let log = self.lineages.entry(relation_ident).or_insert(LineageLog {
            min_known: 0,
            latest: 0,
            entries: VecDeque::new(),
        });
        if version > log.latest {
            log.entries.clear();
            log.min_known = version;
            log.latest = version;
        }
    }

    /// The highest post-ingest version recorded for a lineage (0 if none):
    /// how far this log's holder has *witnessed* the lineage advance. The
    /// engine compares it against the registered relation's current version
    /// to detect caches that missed an invalidation entirely (e.g. a second
    /// `Session` over the same engine that never saw the ingest) and serves
    /// them cache-less rather than let them return stale entries.
    pub fn horizon(&self, relation_ident: u64) -> u64 {
        self.lineages
            .get(&relation_ident)
            .map(|log| log.latest)
            .unwrap_or(0)
    }

    /// Whether a view with canonical signature `key`, computed over
    /// snapshot `version` of its lineage, still matches the current
    /// snapshot's contents.
    pub fn is_current(&self, key: &ViewKey, version: u64) -> bool {
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

    /// [`IngestLog::is_current`] for a held [`View`].
    pub fn view_is_current(&self, view: &View) -> bool {
        self.is_current(&ViewKey::of_view(view), view.relation().version())
    }
}

/// The no-op cache behind the stateless [`crate::Reptile::recommend`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCache;

impl EngineCache for NoCache {
    fn get_view(&self, _key: &ViewKey) -> Option<Arc<View>> {
        None
    }

    fn put_view(&self, _key: ViewKey, _view: Arc<View>) {}

    fn get_model(&self, _key: &ModelKey) -> Option<Arc<TrainedModel>> {
        None
    }

    fn put_model(&self, _key: ModelKey, _model: Arc<TrainedModel>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use reptile_relational::Schema;

    fn relation() -> Arc<Relation> {
        let schema = Arc::new(
            Schema::builder()
                .hierarchy("dim", ["g"])
                .measure("m")
                .build()
                .unwrap(),
        );
        Arc::new(Relation::builder(schema).row(["g0", "1"]).unwrap().build())
    }

    #[test]
    fn view_keys_canonicalize_predicate_order() {
        let rel = relation();
        let a = Predicate::eq(AttrId(3), Value::str("x")).and_eq(AttrId(1), Value::int(7));
        let b = Predicate::eq(AttrId(1), Value::int(7)).and_eq(AttrId(3), Value::str("x"));
        let ka = ViewKey::new(&rel, &a, vec![AttrId(0)], AttrId(9));
        let kb = ViewKey::new(&rel, &b, vec![AttrId(0)], AttrId(9));
        assert_eq!(ka, kb);
    }

    #[test]
    fn view_keys_distinguish_group_by_measure_and_relation() {
        let rel = relation();
        let p = Predicate::all();
        let base = ViewKey::new(&rel, &p, vec![AttrId(0), AttrId(1)], AttrId(9));
        assert_ne!(
            base,
            ViewKey::new(&rel, &p, vec![AttrId(1), AttrId(0)], AttrId(9))
        );
        assert_ne!(
            base,
            ViewKey::new(&rel, &p, vec![AttrId(0), AttrId(1)], AttrId(8))
        );
        assert_ne!(
            base,
            ViewKey::new(
                &rel,
                &Predicate::eq(AttrId(5), Value::int(1)),
                vec![AttrId(0), AttrId(1)],
                AttrId(9),
            )
        );
        // Equally shaped views over a DIFFERENT relation must not alias.
        let other = relation();
        assert_ne!(
            base,
            ViewKey::new(&other, &p, vec![AttrId(0), AttrId(1)], AttrId(9))
        );
    }

    #[test]
    fn config_fingerprint_tracks_every_knob() {
        let base = ReptileConfig::default();
        let plan = FeaturePlan::none();
        let fp = config_fingerprint(&base, &plan);
        assert_eq!(fp, config_fingerprint(&base, &plan));

        let mut other = base.clone();
        other.model = RepairModelKind::Linear;
        assert_ne!(fp, config_fingerprint(&other, &plan));

        let mut other = base.clone();
        other.em.iterations += 1;
        assert_ne!(fp, config_fingerprint(&other, &plan));

        let excluded = FeaturePlan::none().exclude_from_z("rainfall");
        assert_ne!(fp, config_fingerprint(&base, &excluded));

        // Every execution context is bit-identical to serial, so the exec
        // knob must NOT change the fingerprint: a parallel engine and a
        // serial one share model-cache entries.
        let mut other = base.clone();
        other.exec = reptile_factor::Exec::pool(8);
        assert_eq!(fp, config_fingerprint(&other, &plan));

        // Observability is bit-exact too (timers only read clocks), so the
        // obs switch must NOT change the fingerprint either: a profiled
        // engine and an unprofiled one share cache entries.
        let mut other = base.clone();
        other.obs = reptile_obs::ObsConfig::profiled();
        assert_eq!(fp, config_fingerprint(&other, &plan));
    }
}
