//! Parallel multi-complaint serving (the multi-query optimisation of the
//! paper's Figures 8/9 as a serving primitive).
//!
//! A [`BatchServer`] evaluates many independent complaints concurrently **on
//! the process-wide shard pool** — one may-block pool job per unique
//! request, so the pool is the only scheduler in the process (the
//! one-scheduler invariant): request jobs and the shard scatters they
//! trigger share a single queue and worker set, and a request worker
//! waiting for its own scatter drains other requests' compute shards (the
//! pool's work-stealing assist) instead of idling. The engine (and through
//! it the relation and schema `Arc`s) is shared read-only across jobs. Work
//! deduplication happens at two levels:
//!
//! 1. **Request dedup before fan-out** — byte-identical `(view, complaint)`
//!    requests (see [`BatchRequest::signature`]) are collapsed to one
//!    evaluation whose result is replicated. The network front door
//!    (`reptile-serve`) runs the same signature check *before* admission
//!    control, so duplicate in-flight requests never double-count against
//!    its pending-queue bound.
//! 2. **Exactly-once training under contention** — the [`SharedCaches`] back
//!    the engine's claim protocol: the first worker to miss a `(view, model)`
//!    signature claims it and trains; concurrent workers needing the same
//!    signature block on a condvar until the model is published, then count a
//!    hit. Each distinct `(view, model)` pair is trained exactly once per
//!    batch. Parking on the claim condvar is safe on the pool because
//!    claimants are always themselves running jobs and make independent
//!    progress (the same argument as the engine's hierarchy jobs).

use crate::cache::{CachesSnapshot, SharedCaches};
use reptile::{Complaint, Direction, EngineCache, Recommendation, Reptile, Result, ViewKey};
use reptile_relational::{AggregateKind, AttrId, GroupKey, Parallelism, Predicate, View};
use std::collections::HashMap;
use std::sync::Arc;

/// One complaint to serve, posed against a (shared) view.
#[derive(Clone)]
pub struct BatchRequest {
    /// The view the complaint is posed against.
    pub view: Arc<View>,
    /// The complaint.
    pub complaint: Complaint,
}

impl BatchRequest {
    /// Create a request.
    pub fn new(view: Arc<View>, complaint: Complaint) -> Self {
        BatchRequest { view, complaint }
    }

    /// Hashable identity of this request: two requests with equal signatures
    /// pose the byte-identical complaint against the byte-identical view
    /// signature, so one evaluation serves both. [`BatchServer::serve`] uses
    /// it to collapse duplicates before fan-out, and the network front door
    /// (`reptile-serve`) checks it *before* admission control so duplicate
    /// in-flight requests don't double-count against the pending bound.
    pub fn signature(&self) -> RequestSignature {
        RequestSignature::from_parts(ViewKey::of_view(&self.view), &self.complaint)
    }
}

/// Hashable identity of a request (see [`BatchRequest::signature`]). The
/// complaint direction is encoded as a discriminant plus the `ShouldBe`
/// target's bit pattern, so `ShouldBe(0.0)` and `ShouldBe(-0.0)` stay
/// distinct exactly when their evaluations could differ.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RequestSignature {
    view: ViewKey,
    key: GroupKey,
    statistic: AggregateKind,
    direction: u8,
    direction_bits: u64,
}

impl RequestSignature {
    /// The signature [`BatchRequest::signature`] computes, built from a
    /// view *signature* instead of a view object — so admission control can
    /// dedup a request before the (possibly expensive) view exists.
    pub fn from_parts(view: ViewKey, complaint: &Complaint) -> Self {
        let (direction, bits) = match complaint.direction {
            Direction::TooHigh => (0u8, 0u64),
            Direction::TooLow => (1, 0),
            Direction::ShouldBe(target) => (2, target.to_bits()),
        };
        RequestSignature {
            view,
            key: complaint.key.clone(),
            statistic: complaint.statistic,
            direction,
            direction_bits: bits,
        }
    }
}

/// A parallel multi-complaint server over one engine, scheduled entirely on
/// the process-wide shard pool.
///
/// There used to be two schedulers stacked here: scoped request-worker
/// threads pulling from an atomic cursor on top, the shard pool below. Now
/// [`BatchServer::serve`] submits one *may-block* pool job per unique
/// request, so requests and the shard scatters they trigger (cold factor
/// builds, ingest delta patches, model fits) interleave in one queue over
/// one worker set — no static `cores / threads()` split of the machine is
/// needed, because shard widths adapt per scatter
/// ([`Parallelism::adaptive_width`]) and a request job waiting on its own
/// scatter assists others'. Results stay bit-identical to serial execution,
/// so mixing sharded and serial engines behind one cache is safe.
pub struct BatchServer {
    engine: Arc<Reptile>,
    caches: SharedCaches,
    threads: usize,
}

impl BatchServer {
    /// Create a server whose request fan-out may use every available core:
    /// the shard pool is the single scheduler, so there is no second budget
    /// to carve out of the machine — concurrent requests and their scatters
    /// queue on the same workers instead of oversubscribing.
    pub fn new(engine: Arc<Reptile>) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(8);
        // Sync the fresh caches to the engine's current snapshot: an engine
        // that already ingested would otherwise refuse them cache access.
        let caches = SharedCaches::new();
        caches.sync_with(&engine.relation());
        BatchServer {
            engine,
            caches,
            threads,
        }
    }

    /// Limit the worker count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The engine serving the batches.
    pub fn engine(&self) -> &Arc<Reptile> {
        &self.engine
    }

    /// Aggregated snapshot of the shared caches' statistics, cumulative
    /// across batches (`models.misses` counts models trained).
    pub fn stats_snapshot(&self) -> CachesSnapshot {
        self.caches.stats_snapshot()
    }

    /// Stream an [`IngestBatch`](reptile_relational::IngestBatch) into the
    /// engine while the server keeps serving: the engine applies the batch,
    /// then the shared caches advance their views by it, drop the models
    /// (and the views that cannot advance) the batch made stale, and record
    /// its change set ([`SharedCaches::invalidate_ingest`]), so a
    /// worker that is mid-computation against a pre-ingest snapshot the
    /// batch changed cannot publish into the post-ingest cache. Requests
    /// built from old view snapshots keep working (snapshot consistency);
    /// callers should build subsequent requests from views over
    /// [`IngestReport::relation`](reptile::IngestReport) (e.g. via
    /// [`reptile::Reptile::refresh_view`]).
    pub fn ingest(&self, batch: &reptile_relational::IngestBatch) -> Result<reptile::IngestReport> {
        let report = self.engine.ingest(batch)?;
        self.caches.invalidate_ingest(&report);
        Ok(report)
    }

    /// Evaluate one request against the shared caches, pinned to the
    /// request view's snapshot. This is the whole per-request execution —
    /// [`BatchServer::serve`] runs it under a pool job per unique request,
    /// and the network front door (`reptile-serve`) calls it directly from
    /// its own pool jobs.
    pub fn serve_one(&self, request: &BatchRequest) -> Result<Recommendation> {
        let cache = self.caches.handle_for(&request.view);
        self.engine
            .recommend_with_cache(&request.view, &request.complaint, &cache)
    }

    /// Resolve (or compute and cache) the view `γ_{group_by,
    /// aggs(measure)}(σ_predicate(relation))` over the engine's current
    /// snapshot, through the shared view cache's claim protocol — concurrent
    /// requests for the same view signature compute it exactly once. The
    /// lookup is pinned to `(signature, current version)` like any request,
    /// so a view an ingest makes stale before it is published is not
    /// published. The network front door uses this to turn a wire
    /// request's view *definition* into the [`BatchRequest`]'s view.
    pub fn resolve_view(
        &self,
        predicate: Predicate,
        group_by: Vec<AttrId>,
        measure: AttrId,
    ) -> Result<Arc<View>> {
        let relation = self.engine.relation();
        let key = ViewKey::new(&relation, &predicate, group_by.clone(), measure);
        let cache = self.caches.pinned(key.clone(), relation.version());
        if let Some(view) = cache.get_view(&key) {
            return Ok(view);
        }
        // Missed and claimed: compute, publish (the handle's Drop aborts the
        // claim if the compute errors or unwinds).
        let view = Arc::new(View::compute(
            relation,
            predicate,
            group_by,
            measure,
            &self.engine.config().exec,
        )?);
        cache.put_view(key, Arc::clone(&view));
        Ok(view)
    }

    /// Evaluate `requests` concurrently and return one result per request,
    /// in order. Identical requests are evaluated once; distinct requests
    /// sharing `(view, model)` work items train each pair exactly once.
    ///
    /// Fan-out runs on the process-wide shard pool: one may-block job per
    /// unique request (single-item ranges, so the pool's FIFO queue
    /// load-balances a skewed batch across workers exactly like the old
    /// atomic cursor did — but on the *same* scheduler the requests' own
    /// scatters use). Contexts where dispatch cannot pay off (serial thread
    /// budget, single-core host, already on a pool worker) evaluate inline,
    /// bit-identically.
    pub fn serve(&self, requests: &[BatchRequest]) -> Vec<Result<Recommendation>> {
        // Collapse byte-identical requests before fanning out.
        let mut index_of: HashMap<RequestSignature, usize> = HashMap::new();
        let mut unique: Vec<&BatchRequest> = Vec::new();
        let mut assignment = Vec::with_capacity(requests.len());
        for request in requests {
            let next_index = unique.len();
            let index = *index_of.entry(request.signature()).or_insert(next_index);
            if index == next_index {
                unique.push(request);
            }
            assignment.push(index);
        }

        let parallelism = Parallelism::new(self.threads);
        let unique_results: Vec<Result<Recommendation>> =
            if unique.len() <= 1 || parallelism.effective_threads() == 1 {
                unique
                    .iter()
                    .map(|request| self.serve_one(request))
                    .collect()
            } else {
                let ranges = Parallelism::shard_ranges(unique.len(), unique.len());
                parallelism.run_shards_may_block(&ranges, |start, len| {
                    debug_assert_eq!(len, 1, "one request per pool job");
                    self.serve_one(unique[start])
                })
            };

        assignment
            .into_iter()
            .map(|i| unique_results[i].clone())
            .collect()
    }
}

impl reptile::IngestSink for BatchServer {
    fn apply_batch(
        &mut self,
        batch: &reptile_relational::IngestBatch,
    ) -> Result<reptile::IngestReport> {
        self.ingest(batch)
    }
}
