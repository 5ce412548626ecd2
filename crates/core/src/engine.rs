//! The Reptile engine: complaint-based drill-down recommendation
//! (Problem 1, Section 4.5).
//!
//! For every candidate hierarchy the engine
//! 1. drills the complaint tuple down to the hierarchy's next level,
//! 2. builds the *parallel groups* training view (the same drill-down without
//!    restricting to the complaint's provenance),
//! 3. assembles the factorised training design and fits the repair model
//!    (a multi-level model by default),
//! 4. predicts every drill-down group's expected statistic, repairs the group
//!    to it, recombines the complaint tuple with the distributive merge `G`,
//!    and scores the repair by the complaint function, and
//! 5. returns the groups of all hierarchies ranked by how much their repair
//!    resolves the complaint.

use crate::cache::{
    config_fingerprint, EngineCache, FittedRepairModel, ModelKey, NoCache, TrainedModel, ViewKey,
};
use crate::complaint::Complaint;
use crate::{ReptileError, Result};
use reptile_factor::{
    AggregateSource, DecomposedAggregates, DrilldownMode, DrilldownSession, EncodedAggregates,
    EncodedFactor, EncodedFactorization, Exec, FactorBackend, Factorization, PathCountIndex,
};
use reptile_model::{
    DesignBuilder, EmptyGroupPolicy, FeaturePlan, LinearModel, MultilevelConfig, MultilevelModel,
    TrainingBackend,
};
use reptile_obs::{ObsConfig, Stage, StageTimer};
use reptile_relational::{
    AggState, AggregateKind, AttrId, GroupKey, Hierarchy, IngestBatch, Relation, Schema, Value,
    View,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Whole nanoseconds since `t0`, saturating (for the stage-breakdown fields).
fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Which repair model the engine fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairModelKind {
    /// Multi-level (mixed effects) model trained with EM — the paper default.
    MultiLevel,
    /// Plain linear regression (the "Linear" ablation).
    Linear,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ReptileConfig {
    /// Repair model to fit per candidate drill-down.
    pub model: RepairModelKind,
    /// EM configuration for the multi-level model.
    pub em: MultilevelConfig,
    /// Backend used to execute the model's matrix operations.
    pub backend: TrainingBackend,
    /// How many top groups to keep per recommendation.
    pub top_k: usize,
    /// Fill policy for empty parallel groups.
    pub empty_groups: EmptyGroupPolicy,
    /// Where the engine's factorised work runs: inline, on the shared
    /// thread pool, over an exact shard count, or scattered to worker
    /// processes. Governs cold encoded factor builds and ingest delta
    /// patches (via the engine's [`DrilldownSession`]), view scans, design
    /// construction, and the multi-level fit's gram/cluster/E-step
    /// fan-outs. Serial by default. Every context is **bit-identical** to
    /// serial, so this knob is deliberately *not* part of
    /// [`config_fingerprint`] — engines with different execution contexts
    /// share cache entries.
    pub exec: Exec,
    /// Per-engine stage timing (design builds, ingest stage breakdowns,
    /// session stage durations). Off by default; results are
    /// **bit-identical** either way, so — like `exec` — this knob is
    /// deliberately *not* part of [`config_fingerprint`]: a profiled and an
    /// unprofiled engine share cache entries.
    pub obs: ObsConfig,
}

impl Default for ReptileConfig {
    fn default() -> Self {
        ReptileConfig {
            model: RepairModelKind::MultiLevel,
            em: MultilevelConfig::default(),
            backend: TrainingBackend::Factorized,
            top_k: 5,
            empty_groups: EmptyGroupPolicy::GlobalMean,
            exec: Exec::Serial,
            obs: ObsConfig::default(),
        }
    }
}

/// One candidate drill-down group with its scores.
#[derive(Debug, Clone)]
pub struct ScoredGroup {
    /// Name of the hierarchy this group belongs to.
    pub hierarchy: String,
    /// The attribute added by the drill-down.
    pub added_attribute: String,
    /// The group key in the drilled-down view.
    pub key: GroupKey,
    /// Observed value of the complained statistic for the group.
    pub observed: f64,
    /// Model-estimated expected value of the statistic.
    pub expected: f64,
    /// Value of the complaint tuple's statistic after repairing this group.
    pub repaired_complaint_value: f64,
    /// Complaint penalty after the repair (lower is better).
    pub penalty: f64,
    /// Improvement over the unrepaired complaint penalty.
    pub improvement: f64,
}

/// The result of evaluating one hierarchy.
#[derive(Debug, Clone)]
pub struct HierarchyRecommendation {
    /// Hierarchy name.
    pub hierarchy: String,
    /// Attribute that the drill-down added.
    pub added_attribute: String,
    /// The drilled-down view (restricted to the complaint's provenance),
    /// shared with the serving cache rather than deep-copied per call.
    pub view: Arc<View>,
    /// The groups of this hierarchy, best first.
    pub ranked: Vec<ScoredGroup>,
}

/// A full recommendation: the per-hierarchy details and the overall ranking.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// Per-hierarchy results (in schema hierarchy order).
    pub hierarchies: Vec<HierarchyRecommendation>,
    /// All groups across hierarchies, best first, truncated to `top_k`.
    pub ranked: Vec<ScoredGroup>,
    /// The complaint tuple's original statistic value.
    pub original_value: f64,
}

impl Recommendation {
    /// The best hierarchy to drill down (the one owning the top group).
    pub fn best_hierarchy(&self) -> Option<&str> {
        self.ranked.first().map(|g| g.hierarchy.as_str())
    }

    /// The best group overall.
    pub fn best_group(&self) -> Option<&ScoredGroup> {
        self.ranked.first()
    }
}

/// [`AggregateSource`] over the engine's shared [`DrilldownSession`]: locks
/// the mutex per aggregate call only, so a design build does not hold the
/// session across its (backend-independent) view scans.
struct SharedSession<'a>(&'a Mutex<DrilldownSession>);

impl AggregateSource for SharedSession<'_> {
    fn legacy_aggregates(&mut self, fact: &Factorization) -> DecomposedAggregates {
        self.0.lock().unwrap().aggregates(fact)
    }

    fn encoded_aggregates(
        &mut self,
        factors: Vec<Arc<EncodedFactor>>,
    ) -> (EncodedFactorization, EncodedAggregates) {
        self.0.lock().unwrap().encoded(factors)
    }
}

/// Per-stage wall-clock breakdown of one [`Reptile::ingest`] call. All
/// zeros unless stage timing was on ([`ReptileConfig::obs`] or the
/// process-wide `reptile_obs` flag) — timing never changes what the ingest
/// does, only whether clocks are read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStages {
    /// Applying the batch to the relation snapshot (insert/delete replay).
    pub apply_ns: u64,
    /// Folding the batch into the path-count index and deriving the
    /// per-hierarchy distinct-path deltas (includes the index's lazy first
    /// build).
    pub path_delta_ns: u64,
    /// Bumping the drill-down session epochs of the touched hierarchies.
    pub epoch_ns: u64,
}

/// A unified ingest surface: anything that can apply an [`IngestBatch`]
/// atomically and report what changed. Every ingest entry point in the
/// workspace — [`Reptile::ingest`], `Session::ingest`,
/// `BatchServer::ingest`, the serving front door's `Server::ingest` and
/// its network `Ingest` frame — implements this trait and shares one
/// report shape ([`IngestReport`]) and one error shape
/// ([`crate::ReptileError`]), so callers can be written once against the
/// trait and pointed at any layer.
///
/// The receiver is `&mut self` to accommodate the strictest implementor
/// (`Session` revalidates its borrowed state); implementors whose inherent
/// `ingest` takes `&self` simply delegate.
pub trait IngestSink {
    /// Apply `batch` as one atomic ingest: one new relation snapshot
    /// version, delta-maintained derived state, and a report of what
    /// changed.
    fn apply_batch(&mut self, batch: &IngestBatch) -> Result<IngestReport>;
}

impl IngestSink for Reptile {
    fn apply_batch(&mut self, batch: &IngestBatch) -> Result<IngestReport> {
        self.ingest(batch)
    }
}

/// What one [`Reptile::ingest`] did: the new relation snapshot, the change
/// counts, which hierarchies' distinct path sets changed (their session
/// epochs were bumped), and the exact invalidation rule for view/model
/// caches.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// The post-ingest relation snapshot (same lineage ident, next version).
    pub relation: Arc<Relation>,
    /// Rows inserted by the batch.
    pub inserted: usize,
    /// Rows deleted by the batch.
    pub deleted: usize,
    /// Hierarchies whose distinct full-depth path set changed. The engine
    /// already bumped their [`DrilldownSession`] epochs; serving layers use
    /// this to know an ingest happened at all.
    pub touched_hierarchies: Vec<String>,
    /// Per-stage wall-clock breakdown (zeros unless stage timing was on).
    pub stages: IngestStages,
    /// Every inserted or deleted tuple (the predicate-matching set),
    /// `Arc`-shared with the ingest logs that record it.
    pub(crate) changed_rows: Arc<[Vec<Value>]>,
}

impl IngestReport {
    /// Whether a cached entry under `key` is stale after this ingest: the
    /// key reads this relation lineage *and* at least one changed tuple
    /// satisfies its predicate. Entries whose predicate selects none of the
    /// changed rows aggregate exactly the same multiset before and after
    /// the batch, so they stay warm.
    pub fn invalidates_view(&self, key: &ViewKey) -> bool {
        key.relation_ident() == self.relation.ident()
            && self.changed_rows.iter().any(|row| key.matches_row(row))
    }

    /// The inserted and deleted tuples this ingest applied.
    pub fn changed_rows(&self) -> &[Vec<Value>] {
        &self.changed_rows
    }
}

/// The Reptile engine.
///
/// The engine holds the registered relation behind an `RwLock` (the current
/// snapshot; [`Reptile::ingest`] swaps in the next one while readers keep
/// serving from the views they already hold) and an internal
/// [`DrilldownSession`] (behind a mutex, so shared references can serve
/// concurrent complaints) that carries the decomposed aggregates of
/// unchanged hierarchies across successive invocations — the `CachedDynamic`
/// maintenance of Section 4.4, extended with per-hierarchy ingest epochs and
/// delta maintenance. View- and model-level reuse is delegated to an
/// [`EngineCache`] passed to [`Reptile::recommend_with_cache`].
#[derive(Debug)]
pub struct Reptile {
    relation: RwLock<Arc<Relation>>,
    schema: Arc<Schema>,
    config: ReptileConfig,
    plan: FeaturePlan,
    session: Mutex<DrilldownSession>,
    /// Lazily built path-count index behind ingest delta detection.
    path_index: Mutex<Option<PathCountIndex>>,
}

impl Reptile {
    /// Create an engine over a relation and its schema with defaults.
    pub fn new(relation: Arc<Relation>, schema: Arc<Schema>) -> Self {
        Reptile {
            relation: RwLock::new(relation),
            schema,
            config: ReptileConfig::default(),
            plan: FeaturePlan::none(),
            session: Mutex::new(DrilldownSession::new(DrilldownMode::CachedDynamic)),
            path_index: Mutex::new(None),
        }
    }

    /// Override the configuration. The drill-down session's shard budget
    /// follows the configured [`ReptileConfig::exec`], and its
    /// stage-timing switch follows [`ReptileConfig::obs`].
    pub fn with_config(mut self, config: ReptileConfig) -> Self {
        {
            let mut session = self.session.lock().expect("session lock");
            session.set_exec(config.exec.clone());
            session.set_profile(config.obs.enabled);
        }
        self.config = config;
        self
    }

    /// Register auxiliary / custom features (Section 3.3).
    pub fn with_plan(mut self, plan: FeaturePlan) -> Self {
        self.plan = plan;
        self
    }

    /// The current snapshot of the relation the engine explains.
    pub fn relation(&self) -> Arc<Relation> {
        self.relation.read().expect("relation lock").clone()
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The current configuration.
    pub fn config(&self) -> &ReptileConfig {
        &self.config
    }

    /// Running totals of the engine's internal drill-down session across
    /// every call since creation: factor-state recomputes vs reuses, delta
    /// patches absorbed, and (when profiling is on) the encode /
    /// delta-patch stage durations.
    pub fn session_stats(&self) -> reptile_factor::SessionStats {
        self.session
            .lock()
            .expect("session lock")
            .cumulative_stats()
    }

    /// Apply a streaming [`IngestBatch`] to the registered relation with
    /// *delta maintenance* instead of a cold rebuild: the relation advances
    /// to its next snapshot (old views keep serving their old snapshot), the
    /// engine's path index detects which hierarchies' distinct path sets
    /// changed, and only those hierarchies have their [`DrilldownSession`]
    /// epochs bumped — cached factor state for untouched hierarchies stays
    /// warm, and the touched ones are patched forward from their latest
    /// snapshot on next use.
    ///
    /// The returned [`IngestReport`] carries the exact invalidation rule for
    /// view/model caches ([`IngestReport::invalidates_view`]). Callers that
    /// hold an [`EngineCache`] **must** apply it (as
    /// `reptile_session::Session::ingest` and
    /// `reptile_session::BatchServer::ingest` do) before serving the next
    /// recommendation from that cache.
    ///
    /// ```
    /// use reptile::{Complaint, Direction, Reptile};
    /// use reptile_relational::{
    ///     AggregateKind, GroupKey, IngestBatch, Predicate, Relation, Schema, Value, View,
    /// };
    /// use std::sync::Arc;
    ///
    /// let schema = Arc::new(
    ///     Schema::builder()
    ///         .hierarchy("geo", ["district", "village"])
    ///         .hierarchy("time", ["day"])
    ///         .measure("reports")
    ///         .build()
    ///         .unwrap(),
    /// );
    /// let mut builder = Relation::builder(schema.clone());
    /// for day in 0..2i64 {
    ///     for (d, v) in [("D1", "D1-a"), ("D1", "D1-b"), ("D2", "D2-a"), ("D2", "D2-b")] {
    ///         builder = builder
    ///             .row([Value::str(d), Value::str(v), Value::int(day), Value::float(10.0)])
    ///             .unwrap();
    ///     }
    /// }
    /// let engine = Reptile::new(Arc::new(builder.build()), schema.clone());
    ///
    /// // Stream in day 2, with village D1-b dropping most of its reports.
    /// let mut batch = IngestBatch::new();
    /// for (d, v, m) in [("D1", "D1-a", 10.0), ("D1", "D1-b", 1.0), ("D2", "D2-a", 10.0), ("D2", "D2-b", 10.0)] {
    ///     batch = batch.insert([Value::str(d), Value::str(v), Value::int(2), Value::float(m)]);
    /// }
    /// let report = engine.ingest(&batch).unwrap();
    /// assert_eq!(report.inserted, 4);
    /// // day 2 is a new time path; every geo path already existed
    /// assert_eq!(report.touched_hierarchies, vec!["time".to_string()]);
    ///
    /// // Recommending over the new snapshot drills into the faulty village.
    /// let view = View::compute(
    ///     report.relation.clone(),
    ///     Predicate::all(),
    ///     vec![schema.attr("district").unwrap(), schema.attr("day").unwrap()],
    ///     schema.attr("reports").unwrap(),
    ///     &reptile_relational::Exec::Serial,
    /// )
    /// .unwrap();
    /// let complaint = Complaint::new(
    ///     GroupKey(vec![Value::str("D1"), Value::int(2)]),
    ///     AggregateKind::Mean,
    ///     Direction::TooLow,
    /// );
    /// let recommendation = engine
    ///     .recommend_with_cache(&view, &complaint, &reptile::NoCache)
    ///     .unwrap();
    /// let best = recommendation.best_group().unwrap();
    /// assert_eq!(best.added_attribute, "village");
    /// assert!(best.key.to_string().contains("D1-b"));
    /// ```
    pub fn ingest(&self, batch: &IngestBatch) -> Result<IngestReport> {
        // Per-stage breakdown for the report (apply / path-delta / epoch),
        // measured only when timing is on; the ingest itself is identical
        // either way.
        let timing = self.config.obs.enabled || reptile_obs::enabled();
        let mut stages = IngestStages::default();
        let mut relation = self.relation.write().expect("relation lock");
        let t0 = timing.then(Instant::now);
        let next = Arc::new(relation.apply(batch).map_err(ReptileError::from)?);
        if let Some(t0) = t0 {
            stages.apply_ns = elapsed_ns(t0);
        }
        let t0 = timing.then(Instant::now);
        let touched = {
            let mut index = self.path_index.lock().expect("path index lock");
            let index = index
                .get_or_insert_with(|| PathCountIndex::build(&relation, self.schema.hierarchies()));
            let delta = index.apply(batch, self.schema.hierarchies());
            self.schema
                .hierarchies()
                .iter()
                .zip(&delta.per_hierarchy)
                .filter(|(_, d)| d.as_ref().is_some_and(|d| !d.is_empty()))
                .map(|(h, _)| h.name.clone())
                .collect::<Vec<String>>()
        };
        if let Some(t0) = t0 {
            stages.path_delta_ns = elapsed_ns(t0);
        }
        *relation = next.clone();
        drop(relation);
        {
            let t0 = timing.then(Instant::now);
            let mut session = self.session.lock().expect("session lock");
            for hierarchy in &touched {
                session.bump_epoch(hierarchy);
            }
            if let Some(t0) = t0 {
                stages.epoch_ns = elapsed_ns(t0);
            }
        }
        Ok(IngestReport {
            relation: next,
            inserted: batch.inserts().len(),
            deleted: batch.deletes().len(),
            touched_hierarchies: touched,
            stages,
            changed_rows: batch
                .changed_rows()
                .map(<[Value]>::to_vec)
                .collect::<Vec<_>>()
                .into(),
        })
    }

    /// Recompute `view`'s definition (same predicate, group-by and measure)
    /// over the engine's *current* relation snapshot — how serving layers
    /// move a held view forward after an ingest invalidated it. The scan
    /// fans out over the configured shard budget (bit-identically).
    pub fn refresh_view(&self, view: &View) -> Result<Arc<View>> {
        Ok(Arc::new(View::compute(
            self.relation(),
            view.predicate().clone(),
            view.group_by().to_vec(),
            view.measure(),
            &self.config.exec,
        )?))
    }

    /// Solve Problem 1 for `complaint` posed against `view`: evaluate every
    /// hierarchy that can still be drilled, rank the drill-down groups, and
    /// return the overall ranking. Stateless: every view is recomputed and
    /// every model retrained (see [`Reptile::recommend_with_cache`]).
    ///
    /// ```
    /// use reptile::{Complaint, Direction, Reptile};
    /// use reptile_relational::{AggregateKind, GroupKey, Predicate, Relation, Schema, Value, View};
    /// use std::sync::Arc;
    ///
    /// let schema = Arc::new(
    ///     Schema::builder()
    ///         .hierarchy("geo", ["district", "village"])
    ///         .measure("severity")
    ///         .build()
    ///         .unwrap(),
    /// );
    /// let mut builder = Relation::builder(schema.clone());
    /// for (d, v, s) in [
    ///     ("D1", "D1-a", 8.0),
    ///     ("D1", "D1-b", 1.5), // the anomalous village
    ///     ("D1", "D1-c", 8.5),
    ///     ("D2", "D2-a", 8.0),
    ///     ("D2", "D2-b", 7.5),
    /// ] {
    ///     builder = builder.row([Value::str(d), Value::str(v), Value::float(s)]).unwrap();
    /// }
    /// let relation = Arc::new(builder.build());
    /// let view = View::compute(
    ///     relation.clone(),
    ///     Predicate::all(),
    ///     vec![schema.attr("district").unwrap()],
    ///     schema.attr("severity").unwrap(),
    ///     &reptile_relational::Exec::Serial,
    /// )
    /// .unwrap();
    /// let complaint = Complaint::new(
    ///     GroupKey(vec![Value::str("D1")]),
    ///     AggregateKind::Mean,
    ///     Direction::TooLow,
    /// );
    /// let engine = Reptile::new(relation, schema);
    /// let recommendation = engine.recommend(&view, &complaint).unwrap();
    /// // drilling down to the village level exposes D1-b
    /// let best = recommendation.best_group().unwrap();
    /// assert_eq!(best.added_attribute, "village");
    /// assert!(best.key.to_string().contains("D1-b"));
    /// ```
    pub fn recommend(&self, view: &View, complaint: &Complaint) -> Result<Recommendation> {
        self.recommend_with_cache(view, complaint, &NoCache)
    }

    /// Like [`Reptile::recommend`], but serving computed views and trained
    /// models from `cache` where the canonical signatures match, and
    /// populating it with whatever had to be computed. This is the entry
    /// point used by `reptile-session`'s interactive sessions and batch
    /// server; with a warm cache a re-recommendation performs no view scans
    /// and no model training.
    ///
    /// Candidate hierarchies are evaluated **concurrently** on the shard
    /// pool when [`ReptileConfig::exec`] allows: the `cache` handle
    /// is shared (the trait requires `Sync` and `&self` methods), one
    /// may-block pool job evaluates each hierarchy, and each evaluation's
    /// own nested scatters (design build, EM fit) run inline on its worker,
    /// so the fan-out cannot deadlock on pool capacity. Results are
    /// gathered in schema hierarchy order and every score is bit-identical
    /// to the serial loop — each hierarchy's evaluation is an independent,
    /// deterministic computation.
    pub fn recommend_with_cache(
        &self,
        view: &View,
        complaint: &Complaint,
        cache: &dyn EngineCache,
    ) -> Result<Recommendation> {
        // A request the cache may not serve — its view snapshot was made out
        // of date by an ingest, or the cache itself missed an ingest
        // invalidation — runs cache-less: snapshot-consistent for the
        // caller, and it can neither read mixed-snapshot entries nor
        // re-publish pre-ingest state under keys that survived eviction.
        let cache: &dyn EngineCache = if self.cache_usable(view, cache) {
            cache
        } else {
            &NoCache
        };
        let original_state = view
            .group(&complaint.key)
            .map_err(|_| ReptileError::UnknownComplaintTuple(complaint.key.to_string()))?;
        let original_value = original_state.value(complaint.statistic);

        let candidates: Vec<&Hierarchy> = self
            .schema
            .hierarchies()
            .iter()
            .filter(|h| h.next_level(view.group_by()).is_some())
            .collect();
        if candidates.is_empty() {
            return Err(ReptileError::NothingToDrill);
        }

        // One scatter over the candidate hierarchies. Dispatched as
        // may-block jobs: an evaluation may wait on the serving cache's
        // claim condvar, so the pool's work-stealing assist must not run
        // one inline on a caller that might itself hold the awaited claim.
        // A context that would run the scatter inline anyway keeps the old
        // sequential short-circuit instead, so a failing hierarchy does
        // not pay for training the remaining ones.
        let local = self.config.exec.parallelism();
        let results: Vec<Result<HierarchyRecommendation>> = if local.effective_threads() == 1 {
            let mut out = Vec::with_capacity(candidates.len());
            for hierarchy in &candidates {
                let result =
                    self.evaluate_hierarchy(view, complaint, hierarchy, original_value, cache);
                let failed = result.is_err();
                out.push(result);
                if failed {
                    break;
                }
            }
            out
        } else {
            local.map_items_may_block(candidates.len(), |i| {
                self.evaluate_hierarchy(view, complaint, candidates[i], original_value, cache)
            })
        };
        let mut hierarchies = Vec::with_capacity(results.len());
        let mut all: Vec<ScoredGroup> = Vec::new();
        for result in results {
            let rec = result?;
            // Each list is stably sorted by penalty, so the overall top-k
            // lies within the per-hierarchy top-k prefixes.
            all.extend(rec.ranked.iter().take(self.config.top_k).cloned());
            hierarchies.push(rec);
        }
        all.sort_by(|a, b| a.penalty.total_cmp(&b.penalty));
        all.truncate(self.config.top_k);
        Ok(Recommendation {
            hierarchies,
            ranked: all,
            original_value,
        })
    }

    /// Predicted expected statistics for every group of a candidate
    /// drill-down (exposed for the Outlier baseline and the case studies).
    pub fn expected_statistics(
        &self,
        view: &View,
        complaint: &Complaint,
        hierarchy: &Hierarchy,
    ) -> Result<BTreeMap<GroupKey, f64>> {
        let dd = view.drill_down(&complaint.key, hierarchy, &self.config.exec)?;
        let trained = self.fit_and_predict(view, complaint, hierarchy, &NoCache)?;
        let expected = trained.expected(&dd.view);
        Ok(dd
            .view
            .groups()
            .zip(expected)
            .filter_map(|((key, _), expected)| Some((key.clone(), expected?)))
            .collect())
    }

    /// The signature of the model [`Reptile::recommend_with_cache`] would fit
    /// for `statistic` when drilling `view` down to `added` — exposed so
    /// callers (e.g. the batch server) can deduplicate work items without
    /// computing anything.
    pub fn model_key(&self, view: &View, added: AttrId, statistic: AggregateKind) -> ModelKey {
        ModelKey {
            view: ViewKey::drilled(view, added),
            statistic,
            config_fingerprint: config_fingerprint(&self.config, &self.plan),
        }
    }

    /// Drill `view` down into tuple `key` along `hierarchy`, serving the
    /// resulting view from `cache` when its signature is already known.
    pub fn drill_down_cached(
        &self,
        view: &View,
        key: &GroupKey,
        hierarchy: &Hierarchy,
        cache: &dyn EngineCache,
    ) -> Result<(Arc<View>, AttrId)> {
        let cache: &dyn EngineCache = if self.cache_usable(view, cache) {
            cache
        } else {
            &NoCache
        };
        view.group(key)
            .map_err(|_| ReptileError::UnknownComplaintTuple(key.to_string()))?;
        let next = hierarchy
            .next_level(view.group_by())
            .ok_or(ReptileError::NothingToDrill)?;
        let view_key = ViewKey::drilled_for(view, key, next);
        let predicate = view.provenance_predicate(key);
        let mut group_by = view.group_by().to_vec();
        group_by.push(next);
        let drilled = self.view_via_cache(&view_key, cache, || {
            // Aggregate the VIEW's relation (it may differ from the engine's,
            // exactly like View::drill_down and drill_down_parallel do).
            Ok(View::compute(
                view.relation().clone(),
                predicate,
                group_by,
                view.measure(),
                &self.config.exec,
            )?)
        })?;
        Ok((drilled, next))
    }

    /// Whether `cache` may serve a request posed over `view`:
    ///
    /// 1. if `view` reads the engine's registered lineage, the cache must
    ///    have *witnessed* every ingest of it
    ///    ([`EngineCache::ingest_horizon`] at least the current snapshot
    ///    version) — a cache that missed an invalidation (e.g. a second
    ///    session over the same engine whose holder never called its
    ///    `ingest`) may hold entries no eviction ever screened, and gets no
    ///    cache access until its holder catches up;
    /// 2. the view's own snapshot must still be content-current
    ///    ([`EngineCache::accepts_view`]): no witnessed ingest after it
    ///    changed rows its predicate selects.
    fn cache_usable(&self, view: &View, cache: &dyn EngineCache) -> bool {
        let current = self.relation.read().expect("relation lock").clone();
        if view.relation().ident() == current.ident()
            && cache.ingest_horizon(current.ident()) < current.version()
        {
            return false;
        }
        cache.accepts_view(view)
    }

    /// Serve a view from `cache` or compute and insert it, releasing the
    /// claim on failure.
    fn view_via_cache(
        &self,
        key: &ViewKey,
        cache: &dyn EngineCache,
        compute: impl FnOnce() -> Result<View>,
    ) -> Result<Arc<View>> {
        if let Some(view) = cache.get_view(key) {
            return Ok(view);
        }
        match compute() {
            Ok(view) => {
                let view = Arc::new(view);
                cache.put_view(key.clone(), view.clone());
                Ok(view)
            }
            Err(e) => {
                cache.abort_view(key);
                Err(e)
            }
        }
    }

    /// Serve the trained model for `(view ⤵ hierarchy, statistic)` from
    /// `cache`, or assemble the design, fit, and insert it. The aggregate
    /// computation inside the design build goes through the engine's
    /// [`DrilldownSession`], so hierarchies unchanged since earlier
    /// invocations are not recomputed even on a model-cache miss.
    fn fit_and_predict(
        &self,
        view: &View,
        complaint: &Complaint,
        hierarchy: &Hierarchy,
        cache: &dyn EngineCache,
    ) -> Result<Arc<TrainedModel>> {
        let next = hierarchy
            .next_level(view.group_by())
            .ok_or(ReptileError::NothingToDrill)?;
        let model_key = self.model_key(view, next, complaint.statistic);
        if let Some(model) = cache.get_model(&model_key) {
            return Ok(model);
        }
        let result = (|| {
            // Training data: the same drill-down over ALL parallel groups.
            let parallel_key = ViewKey::drilled(view, next);
            let parallel = self.view_via_cache(&parallel_key, cache, || {
                Ok(view.drill_down_parallel(hierarchy, &self.config.exec)?.view)
            })?;
            // The design runs on the factor backend matching the configured
            // training backend; the engine's drill-down session serves cached
            // per-hierarchy state (encoded factors + aggregates) either way.
            // The session mutex is taken per aggregate call, not across the
            // whole design build, so concurrent batch-served complaints only
            // serialize the (cached) aggregate step.
            let factor_backend = match self.config.backend {
                TrainingBackend::FactorizedLegacy => FactorBackend::Legacy,
                _ => FactorBackend::Encoded,
            };
            let mut source = SharedSession(&self.session);
            let design_span = StageTimer::start_if(Stage::DesignBuild, self.config.obs.enabled);
            let design = DesignBuilder::new(&parallel, &self.schema, complaint.statistic)
                .with_plan(self.plan.clone())
                .empty_groups(self.config.empty_groups)
                .with_factor_backend(factor_backend)
                .with_exec(self.config.exec.clone())
                .with_aggregate_source(&mut source)
                .build()?;
            drop(design_span);
            let (model, predictions) = match self.config.model {
                RepairModelKind::MultiLevel => {
                    let model = MultilevelModel::fit_exec(
                        &design,
                        self.config.em,
                        self.config.backend,
                        &self.config.exec,
                    )?;
                    let predictions =
                        model.predict_all_with(&design, &self.config.exec.parallelism());
                    (FittedRepairModel::MultiLevel(model), predictions)
                }
                RepairModelKind::Linear => {
                    let model = LinearModel::fit(&design)?;
                    let predictions = model.predict_all(&design);
                    (FittedRepairModel::Linear(model), predictions)
                }
            };
            Ok(Arc::new(TrainedModel {
                model,
                predictions,
                rows: design.rows().clone(),
            }))
        })();
        match result {
            Ok(model) => {
                cache.put_model(model_key, model.clone());
                Ok(model)
            }
            Err(e) => {
                cache.abort_model(&model_key);
                Err(e)
            }
        }
    }

    fn evaluate_hierarchy(
        &self,
        view: &View,
        complaint: &Complaint,
        hierarchy: &Hierarchy,
        original_value: f64,
        cache: &dyn EngineCache,
    ) -> Result<HierarchyRecommendation> {
        let (dd_view, added) = self.drill_down_cached(view, &complaint.key, hierarchy, cache)?;
        let trained = self.fit_and_predict(view, complaint, hierarchy, cache)?;
        // For complaints over composed statistics (STD/VAR), the repair must
        // fix the group's *constituent* statistics too: a group whose mean is
        // far from its expectation inflates the parent's spread even if its
        // own spread is normal (Figure 1's Zata village). Fit a second model
        // for the group means in that case.
        let mean_predictions = if matches!(
            complaint.statistic,
            reptile_relational::AggregateKind::Std | reptile_relational::AggregateKind::Var
        ) {
            let mean_complaint = Complaint::new(
                complaint.key.clone(),
                reptile_relational::AggregateKind::Mean,
                complaint.direction,
            );
            Some(self.fit_and_predict(view, &mean_complaint, hierarchy, cache)?)
        } else {
            None
        };
        let added_attribute = self.schema.name(added).to_string();
        // Only the drilled view's groups are resolved to design rows, and
        // every repair is scored against the view's once-folded total.
        let expected = trained.expected(&dd_view);
        let expected_means = mean_predictions.map(|means| means.expected(&dd_view));
        let total = dd_view.total();
        let mut ranked = Vec::with_capacity(dd_view.len());
        for (i, (key, agg)) in dd_view.groups().enumerate() {
            let observed = agg.value(complaint.statistic);
            let expected = expected[i].unwrap_or(observed);
            let mut repaired: AggState = agg.repaired_to(complaint.statistic, expected);
            if let Some(expected_mean) = expected_means.as_ref().and_then(|means| means[i]) {
                repaired = repaired.with_mean(expected_mean);
            }
            let repaired_value = total
                .unmerge(agg)
                .merge(&repaired)
                .value(complaint.statistic);
            let penalty = complaint.penalty(repaired_value);
            ranked.push(ScoredGroup {
                hierarchy: hierarchy.name.clone(),
                added_attribute: added_attribute.clone(),
                key: key.clone(),
                observed,
                expected,
                repaired_complaint_value: repaired_value,
                penalty,
                improvement: complaint.improvement(original_value, repaired_value),
            });
        }
        ranked.sort_by(|a, b| a.penalty.total_cmp(&b.penalty));
        Ok(HierarchyRecommendation {
            hierarchy: hierarchy.name.clone(),
            added_attribute,
            view: dd_view,
            ranked,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complaint::Direction;
    use reptile_relational::{AggregateKind, Predicate, Value};

    /// Build a small two-hierarchy dataset where one village in one district
    /// systematically under-reports in one year.
    fn dataset(corrupt_village: &str, delta: f64) -> (Arc<Relation>, Arc<Schema>) {
        let schema = Arc::new(
            Schema::builder()
                .hierarchy("geo", ["district", "village"])
                .hierarchy("time", ["year"])
                .measure("severity")
                .build()
                .unwrap(),
        );
        let mut b = Relation::builder(schema.clone());
        for year in [1985i64, 1986, 1987] {
            for d in 0..3 {
                for v in 0..4 {
                    let village = format!("D{d}-V{v}");
                    for rep in 0..5 {
                        let base = 6.0 + d as f64 * 0.5 + (rep as f64) * 0.1;
                        let value = if village == corrupt_village && year == 1986 {
                            base + delta
                        } else {
                            base
                        };
                        b = b
                            .row([
                                Value::str(format!("D{d}")),
                                Value::str(village.clone()),
                                Value::int(year),
                                Value::float(value),
                            ])
                            .unwrap();
                    }
                }
            }
        }
        (Arc::new(b.build()), schema)
    }

    fn district_year_view(rel: &Arc<Relation>, schema: &Arc<Schema>) -> View {
        View::compute(
            rel.clone(),
            Predicate::all(),
            vec![
                schema.attr("district").unwrap(),
                schema.attr("year").unwrap(),
            ],
            schema.attr("severity").unwrap(),
            &reptile_relational::Exec::Serial,
        )
        .unwrap()
    }

    #[test]
    fn recommends_the_corrupted_village_for_a_mean_complaint() {
        let (rel, schema) = dataset("D1-V2", -4.0);
        let view = district_year_view(&rel, &schema);
        let complaint = Complaint::new(
            GroupKey(vec![Value::str("D1"), Value::int(1986)]),
            AggregateKind::Mean,
            Direction::TooLow,
        );
        let engine = Reptile::new(rel, schema);
        let rec = engine.recommend(&view, &complaint).unwrap();
        let best = rec.best_group().unwrap();
        assert_eq!(best.hierarchy, "geo");
        assert_eq!(rec.best_hierarchy(), Some("geo"));
        assert!(best.key.to_string().contains("D1-V2"), "{}", best.key);
        // the expected value is higher than the corrupted observed mean
        assert!(best.expected > best.observed + 1.0);
        // repairing improves the complaint
        assert!(best.improvement > 0.0);
    }

    #[test]
    fn evaluates_all_drillable_hierarchies() {
        let (rel, schema) = dataset("D0-V0", 3.0);
        let view = district_year_view(&rel, &schema);
        let complaint = Complaint::new(
            GroupKey(vec![Value::str("D0"), Value::int(1986)]),
            AggregateKind::Mean,
            Direction::TooHigh,
        );
        let engine = Reptile::new(rel, schema);
        let rec = engine.recommend(&view, &complaint).unwrap();
        // geo can drill to village; time is exhausted (year already grouped)
        assert_eq!(rec.hierarchies.len(), 1);
        assert_eq!(rec.hierarchies[0].hierarchy, "geo");
        assert!(rec.ranked.len() <= engine.config().top_k);
        assert!(!rec.hierarchies[0].ranked.is_empty());
    }

    #[test]
    fn sharded_recommendation_is_bit_identical_to_serial() {
        let (rel, schema) = dataset("D1-V2", -4.0);
        let view = district_year_view(&rel, &schema);
        let complaint = Complaint::new(
            GroupKey(vec![Value::str("D1"), Value::int(1986)]),
            AggregateKind::Mean,
            Direction::TooLow,
        );
        let serial_engine = Reptile::new(rel.clone(), schema.clone());
        let serial = serial_engine.recommend(&view, &complaint).unwrap();
        // Thread budgets below and far above the shardable item counts
        // (single-path shards at 64) must reproduce the serial ranking
        // exactly: same groups, same scores, to the last bit.
        for threads in [2usize, 64] {
            let config = ReptileConfig {
                exec: Exec::pool(threads),
                ..Default::default()
            };
            let engine = Reptile::new(rel.clone(), schema.clone()).with_config(config);
            let sharded = engine.recommend(&view, &complaint).unwrap();
            assert_eq!(serial.original_value, sharded.original_value);
            assert_eq!(serial.ranked.len(), sharded.ranked.len());
            for (a, b) in serial.ranked.iter().zip(&sharded.ranked) {
                assert_eq!(a.hierarchy, b.hierarchy);
                assert_eq!(a.added_attribute, b.added_attribute);
                assert_eq!(a.key, b.key);
                assert_eq!(a.observed, b.observed, "{threads} threads, {}", a.key);
                assert_eq!(a.expected, b.expected, "{threads} threads, {}", a.key);
                assert_eq!(a.repaired_complaint_value, b.repaired_complaint_value);
                assert_eq!(a.penalty, b.penalty);
                assert_eq!(a.improvement, b.improvement);
            }
        }
    }

    #[test]
    fn concurrent_hierarchy_evaluation_is_bit_identical_to_serial() {
        // A district-only view leaves BOTH hierarchies drillable (geo to
        // village, time to year), so a parallel engine evaluates two
        // candidate hierarchies concurrently on the shard pool through the
        // shared cache handle. Results must equal the serial loop exactly,
        // including the per-hierarchy details in schema order.
        // Dispatch the hierarchy jobs to the pool for real even on a
        // 1-core host — this test is about the concurrent evaluation path,
        // not the inline fallback.
        let _force = reptile_relational::parallel::ForcePoolDispatch::new();
        let (rel, schema) = dataset("D1-V2", -4.0);
        let view = View::compute(
            rel.clone(),
            Predicate::all(),
            vec![schema.attr("district").unwrap()],
            schema.attr("severity").unwrap(),
            &reptile_relational::Exec::Serial,
        )
        .unwrap();
        let complaint = Complaint::new(
            GroupKey(vec![Value::str("D1")]),
            AggregateKind::Mean,
            Direction::TooLow,
        );
        let serial_engine = Reptile::new(rel.clone(), schema.clone());
        let serial = serial_engine.recommend(&view, &complaint).unwrap();
        assert_eq!(serial.hierarchies.len(), 2, "geo and time both drillable");
        for threads in [2usize, 8] {
            let config = ReptileConfig {
                exec: Exec::pool(threads),
                ..Default::default()
            };
            let engine = Reptile::new(rel.clone(), schema.clone()).with_config(config);
            let parallel = engine.recommend(&view, &complaint).unwrap();
            assert_eq!(serial.original_value, parallel.original_value);
            assert_eq!(serial.hierarchies.len(), parallel.hierarchies.len());
            for (a, b) in serial.hierarchies.iter().zip(&parallel.hierarchies) {
                assert_eq!(a.hierarchy, b.hierarchy, "schema hierarchy order kept");
                assert_eq!(a.added_attribute, b.added_attribute);
                assert_eq!(a.ranked.len(), b.ranked.len());
                for (x, y) in a.ranked.iter().zip(&b.ranked) {
                    assert_eq!(x.key, y.key);
                    assert_eq!(x.observed, y.observed);
                    assert_eq!(x.expected, y.expected, "{threads} threads, {}", x.key);
                    assert_eq!(x.penalty, y.penalty);
                }
            }
            assert_eq!(serial.ranked.len(), parallel.ranked.len());
            for (a, b) in serial.ranked.iter().zip(&parallel.ranked) {
                assert_eq!(a.hierarchy, b.hierarchy);
                assert_eq!(a.key, b.key);
                assert_eq!(a.penalty, b.penalty);
                assert_eq!(a.improvement, b.improvement);
            }
        }
    }

    /// The recommendation by the `Value`-keyed route this engine replaced,
    /// kept as the exactness oracle: predictions keyed by cloned group keys,
    /// each resolved through one `Vec<Value>` and the legacy
    /// `Factorization::row_index_of`; the drilled view's total re-folded for
    /// every scored group; every group of every hierarchy merged before the
    /// top-k cut.
    fn oracle_recommend(engine: &Reptile, view: &View, complaint: &Complaint) -> Recommendation {
        let exec = &engine.config.exec;
        let predictions = |parallel: &View, statistic: AggregateKind| {
            let design = DesignBuilder::new(parallel, &engine.schema, statistic)
                .with_plan(engine.plan.clone())
                .empty_groups(engine.config.empty_groups)
                .with_exec(exec.clone())
                .build()
                .unwrap();
            let model =
                MultilevelModel::fit_exec(&design, engine.config.em, engine.config.backend, exec)
                    .unwrap();
            let by_row = model.predict_all_with(&design, &exec.parallelism());
            let fact = design.factorization();
            let gb_of_column: Vec<usize> = fact
                .attr_order()
                .iter()
                .map(|a| parallel.group_by().iter().position(|g| g == a).unwrap())
                .collect();
            let mut predictions = BTreeMap::new();
            for (key, _) in parallel.groups() {
                let values: Vec<Value> =
                    gb_of_column.iter().map(|&g| key.value(g).clone()).collect();
                if let Some(row) = fact.row_index_of(&values) {
                    predictions.insert(key.clone(), by_row[row]);
                }
            }
            predictions
        };
        let original_value = view
            .group(&complaint.key)
            .unwrap()
            .value(complaint.statistic);
        let mut hierarchies = Vec::new();
        let mut all: Vec<ScoredGroup> = Vec::new();
        for hierarchy in engine.schema.hierarchies() {
            if hierarchy.next_level(view.group_by()).is_none() {
                continue;
            }
            let dd = view.drill_down(&complaint.key, hierarchy, exec).unwrap();
            let parallel = view.drill_down_parallel(hierarchy, exec).unwrap().view;
            let expected_by_key = predictions(&parallel, complaint.statistic);
            let means = matches!(complaint.statistic, AggregateKind::Std | AggregateKind::Var)
                .then(|| predictions(&parallel, AggregateKind::Mean));
            let added_attribute = engine.schema.name(dd.added_attribute).to_string();
            let mut ranked = Vec::new();
            for (key, agg) in dd.view.groups() {
                let observed = agg.value(complaint.statistic);
                let expected = expected_by_key.get(key).copied().unwrap_or(observed);
                let mut repaired = agg.repaired_to(complaint.statistic, expected);
                if let Some(mean) = means.as_ref().and_then(|means| means.get(key)) {
                    repaired = repaired.with_mean(*mean);
                }
                let refolded = dd
                    .view
                    .groups()
                    .fold(AggState::empty(), |acc, (_, g)| acc.merge(g));
                let repaired_value = refolded
                    .unmerge(agg)
                    .merge(&repaired)
                    .value(complaint.statistic);
                ranked.push(ScoredGroup {
                    hierarchy: hierarchy.name.clone(),
                    added_attribute: added_attribute.clone(),
                    key: key.clone(),
                    observed,
                    expected,
                    repaired_complaint_value: repaired_value,
                    penalty: complaint.penalty(repaired_value),
                    improvement: complaint.improvement(original_value, repaired_value),
                });
            }
            ranked.sort_by(|a, b| a.penalty.total_cmp(&b.penalty));
            all.extend(ranked.iter().cloned());
            hierarchies.push(HierarchyRecommendation {
                hierarchy: hierarchy.name.clone(),
                added_attribute,
                view: Arc::new(dd.view),
                ranked,
            });
        }
        all.sort_by(|a, b| a.penalty.total_cmp(&b.penalty));
        all.truncate(engine.config.top_k);
        Recommendation {
            hierarchies,
            ranked: all,
            original_value,
        }
    }

    /// Every field of every scored group, floats by their bits.
    fn assert_bit_identical(a: &Recommendation, b: &Recommendation, what: &str) {
        let fields = |g: &ScoredGroup| {
            (
                g.hierarchy.clone(),
                g.added_attribute.clone(),
                g.key.clone(),
                [
                    g.observed.to_bits(),
                    g.expected.to_bits(),
                    g.repaired_complaint_value.to_bits(),
                    g.penalty.to_bits(),
                    g.improvement.to_bits(),
                ],
            )
        };
        let all = |groups: &[ScoredGroup]| groups.iter().map(fields).collect::<Vec<_>>();
        assert_eq!(
            a.original_value.to_bits(),
            b.original_value.to_bits(),
            "{what}"
        );
        assert_eq!(all(&a.ranked), all(&b.ranked), "{what}: overall ranking");
        assert_eq!(a.hierarchies.len(), b.hierarchies.len(), "{what}");
        for (x, y) in a.hierarchies.iter().zip(&b.hierarchies) {
            assert_eq!(x.hierarchy, y.hierarchy, "{what}");
            assert_eq!(x.added_attribute, y.added_attribute, "{what}");
            assert_eq!(x.view, y.view, "{what}: drilled view of {}", x.hierarchy);
            assert_eq!(all(&x.ranked), all(&y.ranked), "{what}: {}", x.hierarchy);
        }
    }

    /// The code-native recommendation is `==` the `Value`-keyed oracle, field
    /// by field and bit by bit, on every execution context.
    #[test]
    fn code_native_recommendation_equals_the_value_keyed_oracle() {
        let (full, schema) = dataset("D1-V2", -4.0);
        let village = schema.attr("village").unwrap();
        let year = schema.attr("year").unwrap();
        // Dropping one village's 1987 rows leaves empty parallel groups.
        let holes = Arc::new(full.take(&full.filter_indices(|r| {
            !(full.value(r, village) == &Value::str("D2-V1")
                && full.value(r, year) == &Value::int(1987))
        })));
        let rainfall = FeaturePlan::none()
            .with_extra(reptile_model::ExtraFeature::new(
                "rainfall",
                village,
                (0..3)
                    .flat_map(|d| (0..3).map(move |v| (d, v)))
                    .map(|(d, v)| {
                        (
                            Value::str(format!("D{d}-V{v}")),
                            100.0 + 7.0 * (d * 4 + v) as f64,
                        )
                    })
                    .collect(),
            ))
            .exclude_from_z("rainfall");
        let mean = AggregateKind::Mean;
        let fill = EmptyGroupPolicy::GlobalMean;
        // (name, relation, statistic, fill policy, plan, view group-by): a
        // district-only view leaves both hierarchies drillable; a
        // (district, year) view drills geo only, which crosses the two
        // hierarchies in the design (so the dropped rows are an empty
        // parallel group) and groups by the village the extra is keyed on.
        let cases = [
            ("mean", &full, mean, fill, None, &["district"][..]),
            ("std", &full, AggregateKind::Std, fill, None, &["district"]),
            (
                "holes, mean fill",
                &holes,
                mean,
                fill,
                None,
                &["district", "year"],
            ),
            (
                "holes, zero fill",
                &holes,
                mean,
                EmptyGroupPolicy::Zero,
                None,
                &["district", "year"],
            ),
            (
                "extra outside Z",
                &full,
                mean,
                fill,
                Some(&rainfall),
                &["district", "year"],
            ),
        ];
        for (name, rel, statistic, empty_groups, plan, group_by) in cases {
            let view = View::compute(
                rel.clone(),
                Predicate::all(),
                group_by.iter().map(|a| schema.attr(a).unwrap()).collect(),
                schema.attr("severity").unwrap(),
                &Exec::Serial,
            )
            .unwrap();
            let complaint = Complaint::new(
                GroupKey([Value::str("D1"), Value::int(1986)][..group_by.len()].to_vec()),
                statistic,
                if statistic == mean {
                    Direction::TooLow
                } else {
                    Direction::TooHigh
                },
            );
            let engine_on = |exec: Exec| {
                let config = ReptileConfig {
                    exec,
                    empty_groups,
                    top_k: 7,
                    ..Default::default()
                };
                let engine = Reptile::new(rel.clone(), schema.clone()).with_config(config);
                match plan {
                    Some(plan) => engine.with_plan(plan.clone()),
                    None => engine,
                }
            };
            let oracle = oracle_recommend(&engine_on(Exec::Serial), &view, &complaint);
            assert_eq!(oracle.hierarchies.len(), 3 - group_by.len(), "{name}");
            if Arc::ptr_eq(rel, &holes) {
                let geo = schema.hierarchy("geo").unwrap();
                let parallel = view.drill_down_parallel(geo, &Exec::Serial).unwrap().view;
                let design = DesignBuilder::new(&parallel, &schema, statistic)
                    .build()
                    .unwrap();
                assert!(design.observed().contains(&false), "{name}: no empty group");
            }
            let fleet = Arc::new(reptile_wire::testing::LoopbackWorkers::undelayed(2));
            for (context, exec) in [
                ("serial", Exec::Serial),
                ("3 shards", Exec::Shards(3)),
                (
                    "remote",
                    Exec::Remote(reptile_relational::Remote::new(fleet)),
                ),
            ] {
                let got = engine_on(exec).recommend(&view, &complaint).unwrap();
                assert_bit_identical(&got, &oracle, &format!("{name}, {context}"));
            }
        }
    }

    #[test]
    fn unknown_complaint_tuple_is_rejected() {
        let (rel, schema) = dataset("D0-V0", 3.0);
        let view = district_year_view(&rel, &schema);
        let complaint = Complaint::new(
            GroupKey(vec![Value::str("D9"), Value::int(1986)]),
            AggregateKind::Mean,
            Direction::TooHigh,
        );
        let engine = Reptile::new(rel, schema);
        assert!(matches!(
            engine.recommend(&view, &complaint),
            Err(ReptileError::UnknownComplaintTuple(_))
        ));
    }

    #[test]
    fn nothing_to_drill_when_all_hierarchies_exhausted() {
        let (rel, schema) = dataset("D0-V0", 3.0);
        let view = View::compute(
            rel.clone(),
            Predicate::all(),
            vec![
                schema.attr("district").unwrap(),
                schema.attr("village").unwrap(),
                schema.attr("year").unwrap(),
            ],
            schema.attr("severity").unwrap(),
            &reptile_relational::Exec::Serial,
        )
        .unwrap();
        let key = view.keys().into_iter().next().unwrap();
        let complaint = Complaint::new(key, AggregateKind::Mean, Direction::TooHigh);
        let engine = Reptile::new(rel, schema);
        assert!(matches!(
            engine.recommend(&view, &complaint),
            Err(ReptileError::NothingToDrill)
        ));
    }

    #[test]
    fn linear_model_configuration_also_works() {
        let (rel, schema) = dataset("D2-V3", -3.0);
        let view = district_year_view(&rel, &schema);
        let complaint = Complaint::new(
            GroupKey(vec![Value::str("D2"), Value::int(1986)]),
            AggregateKind::Mean,
            Direction::TooLow,
        );
        let config = ReptileConfig {
            model: RepairModelKind::Linear,
            top_k: 3,
            ..Default::default()
        };
        let engine = Reptile::new(rel, schema).with_config(config);
        let rec = engine.recommend(&view, &complaint).unwrap();
        assert_eq!(rec.ranked.len(), 3);
        assert!(rec
            .ranked
            .iter()
            .any(|g| g.key.to_string().contains("D2-V3")));
    }

    #[test]
    fn ingest_tracks_touched_hierarchies_and_invalidation() {
        let (rel, schema) = dataset("D1-V2", -4.0);
        let engine = Reptile::new(rel.clone(), schema.clone());
        // Appending more rows for existing (village, year) paths touches no
        // hierarchy's distinct path set.
        let batch = IngestBatch::new().insert([
            Value::str("D1"),
            Value::str("D1-V2"),
            Value::int(1986),
            Value::float(5.0),
        ]);
        let report = engine.ingest(&batch).unwrap();
        assert_eq!(report.inserted, 1);
        assert_eq!(report.deleted, 0);
        assert!(report.touched_hierarchies.is_empty());
        assert_eq!(report.relation.ident(), rel.ident());
        assert_eq!(report.relation.version(), rel.version() + 1);
        assert_eq!(engine.relation().len(), rel.len() + 1);

        // A new year path touches only the time hierarchy.
        let batch = IngestBatch::new().insert([
            Value::str("D1"),
            Value::str("D1-V2"),
            Value::int(1988),
            Value::float(6.0),
        ]);
        let report = engine.ingest(&batch).unwrap();
        assert_eq!(report.touched_hierarchies, vec!["time".to_string()]);

        // Deleting the only 1988 row removes the path again.
        let batch = IngestBatch::new().delete([
            Value::str("D1"),
            Value::str("D1-V2"),
            Value::int(1988),
            Value::float(6.0),
        ]);
        let report = engine.ingest(&batch).unwrap();
        assert_eq!(report.touched_hierarchies, vec!["time".to_string()]);

        // The invalidation rule is predicate-based: a 1986 view is stale,
        // a 1987-only view is not, and a view over an unrelated relation
        // lineage is never invalidated.
        let year = schema.attr("year").unwrap();
        let stale = ViewKey::new(
            &report.relation,
            &reptile_relational::Predicate::all(),
            vec![schema.attr("district").unwrap()],
            schema.attr("severity").unwrap(),
        );
        assert!(report.invalidates_view(&stale));
        let fresh = ViewKey::new(
            &report.relation,
            &reptile_relational::Predicate::eq(year, Value::int(1987)),
            vec![schema.attr("district").unwrap()],
            schema.attr("severity").unwrap(),
        );
        assert!(!report.invalidates_view(&fresh));
        let other_lineage = Arc::new((*rel).clone());
        let foreign = ViewKey::new(
            &other_lineage,
            &reptile_relational::Predicate::all(),
            vec![schema.attr("district").unwrap()],
            schema.attr("severity").unwrap(),
        );
        assert!(!report.invalidates_view(&foreign));
    }

    #[test]
    fn recommend_after_ingest_reflects_the_new_snapshot() {
        // Start clean; stream in a corruption; the recommendation over the
        // refreshed view must expose the corrupted village.
        let (rel, schema) = dataset("D0-V0", 0.0); // no corruption yet
        let engine = Reptile::new(rel.clone(), schema.clone());
        let view = district_year_view(&rel, &schema);
        // delete D1-V3's 1986 rows and re-insert them far lower
        let mut batch = IngestBatch::new();
        let village = schema.attr("village").unwrap();
        let year = schema.attr("year").unwrap();
        for r in 0..rel.len() {
            if rel.value(r, village) == &Value::str("D1-V3")
                && rel.value(r, year) == &Value::int(1986)
            {
                let mut row = rel.row(r);
                batch.push_delete(row.clone());
                row[3] = Value::float(1.0);
                batch.push_insert(row);
            }
        }
        let report = engine.ingest(&batch).unwrap();
        assert!(report.touched_hierarchies.is_empty(), "no path changed");
        let refreshed = engine.refresh_view(&view).unwrap();
        let complaint = Complaint::new(
            GroupKey(vec![Value::str("D1"), Value::int(1986)]),
            AggregateKind::Mean,
            Direction::TooLow,
        );
        let rec = engine
            .recommend_with_cache(&refreshed, &complaint, &NoCache)
            .unwrap();
        let best = rec.best_group().unwrap();
        assert!(best.key.to_string().contains("D1-V3"), "{}", best.key);
    }

    #[test]
    fn expected_statistics_cover_all_drill_down_groups() {
        let (rel, schema) = dataset("D1-V1", -2.0);
        let view = district_year_view(&rel, &schema);
        let complaint = Complaint::new(
            GroupKey(vec![Value::str("D1"), Value::int(1986)]),
            AggregateKind::Mean,
            Direction::TooLow,
        );
        let geo = schema.hierarchy("geo").unwrap().clone();
        let engine = Reptile::new(rel, schema);
        let expected = engine.expected_statistics(&view, &complaint, &geo).unwrap();
        assert_eq!(expected.len(), 4); // four villages in D1
        for value in expected.values() {
            assert!(value.is_finite());
        }
    }
}
