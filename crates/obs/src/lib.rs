//! Self-profiling observability for the Reptile engine: stage timers, pool
//! counters, and a serializable [`MetricsSnapshot`].
//!
//! Reptile's value proposition (Huang & Wu, SIGMOD 2022) is *interactive*
//! drill-down latency, and that latency now flows through many layers —
//! dictionary encode, delta patch, sharded scan, replay merge, Cholesky
//! solve, the shard-pool queue. This crate gives every one of those layers a
//! place to report where time goes without perturbing what they compute:
//!
//! * **Counters** ([`Counter`]) are process-wide monotonic atomics that are
//!   *always on* — a relaxed `fetch_add` per pool event is cheap enough to
//!   keep in release builds, and the shard pool itself is process-wide so
//!   its bookkeeping cannot live on any one engine.
//! * **Stage timers** ([`StageTimer`], one histogram per [`Stage`]) call
//!   `Instant::now()`, which is *not* free, so they sit behind an enable
//!   flag: the global [`set_enabled`] switch for deep library layers whose
//!   APIs carry no engine handle, and the per-engine `ObsConfig` (defined in
//!   `reptile`, mirrored here as [`ObsConfig`]) for engine-level spans. The
//!   disabled path is a single relaxed load and a branch.
//!
//! **Bit-exactness guarantee.** Observability only *reads* clocks and bumps
//! counters; it never changes an execution path, a shard split, or a merge
//! order. Every result is `==` with observability enabled or disabled, and
//! `ObsConfig` is deliberately excluded from `config_fingerprint` so toggling
//! profiling can never split the view/model caches (asserted by
//! `config_fingerprint_tracks_every_knob` in `reptile::cache`).
//!
//! # Paper map
//!
//! | Stage | Paper locus | Code locus |
//! |---|---|---|
//! | [`Stage::Encode`] | §5 factorised encoding | `EncodedFactor::encode` |
//! | [`Stage::Scan`] | §5 aggregate pushdown | `View::compute_ranges`, `EncodedHierarchyAggregates::compute` |
//! | [`Stage::Merge`] | shard-exact merge (PR 4/5) | `View` replay merge, `EncodedHierarchyAggregates::merge` |
//! | [`Stage::Solve`] | §6 model training | `MultilevelModel::fit_sharded` |
//! | [`Stage::DesignBuild`] | §6 design assembly | `Reptile::fit_and_predict` |
//! | [`Stage::EStep`] | Appendix D EM bottleneck | per-iteration E-step in `run_em` |
//! | [`Stage::QueueWait`] | — | shard-pool submit→execute latency |
//! | [`Stage::RemoteMerge`] | distributed partial merge (PR 9) | coordinator merge of decoded worker partials |
//!
//! # Example
//!
//! ```
//! use reptile_obs::{MetricsSnapshot, Stage, StageTimer};
//! reptile_obs::reset();
//! reptile_obs::set_enabled(true);
//! {
//!     let _span = StageTimer::start(Stage::Scan);
//!     // ... scan work ...
//! }
//! let snap = MetricsSnapshot::capture();
//! assert_eq!(snap.stage(Stage::Scan).count, 1);
//! assert!(snap.to_json().contains("\"scan\""));
//! reptile_obs::set_enabled(false);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------------

/// The pipeline stages with dedicated timer histograms. Exactly the spans
/// named by the observability issue: encode / scan / merge / solve /
/// design-build / E-step / queue-wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Dictionary-encoding a hierarchy factor (`EncodedFactor::encode`).
    Encode,
    /// Scanning rows into per-shard partial aggregates (views and encoded
    /// hierarchy aggregates).
    Scan,
    /// Merging per-shard partials in fixed shard order (replay merge).
    Merge,
    /// Fitting one repair model end to end (gram systems + EM).
    Solve,
    /// Assembling the training design from a view.
    DesignBuild,
    /// One EM iteration's per-cluster posterior E-step solves.
    EStep,
    /// Latency between a shard job's enqueue and the moment a worker (or a
    /// stealing submitter) starts running it.
    QueueWait,
    /// Coordinator-side merge of partials decoded from remote workers
    /// (distributed execution; disjoint from [`Stage::Merge`], which covers
    /// in-process shard merges).
    RemoteMerge,
}

/// Number of [`Stage`] variants (array size for the registry).
pub const STAGE_COUNT: usize = 8;

impl Stage {
    /// All stages, in registry order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Encode,
        Stage::Scan,
        Stage::Merge,
        Stage::Solve,
        Stage::DesignBuild,
        Stage::EStep,
        Stage::QueueWait,
        Stage::RemoteMerge,
    ];

    /// Stable snake_case name used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Encode => "encode",
            Stage::Scan => "scan",
            Stage::Merge => "merge",
            Stage::Solve => "solve",
            Stage::DesignBuild => "design_build",
            Stage::EStep => "e_step",
            Stage::QueueWait => "queue_wait",
            Stage::RemoteMerge => "remote_merge",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Encode => 0,
            Stage::Scan => 1,
            Stage::Merge => 2,
            Stage::Solve => 3,
            Stage::DesignBuild => 4,
            Stage::EStep => 5,
            Stage::QueueWait => 6,
            Stage::RemoteMerge => 7,
        }
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Process-wide monotonic counters (always on — one relaxed `fetch_add`).
///
/// The pool invariant the concurrency tests assert:
/// `PoolJobsDispatched == PoolJobsExecuted + PoolStealAssists` once every
/// dispatched batch has been waited on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// `scatter()` calls that dispatched ranges to the shard pool.
    PoolScatters,
    /// `scatter()` calls that ran inline (serial budget, nested worker, or
    /// single-core host fallback).
    PoolInlineScatters,
    /// Jobs pushed onto the pool queue.
    PoolJobsDispatched,
    /// Jobs executed by pool worker threads.
    PoolJobsExecuted,
    /// Jobs executed by the *submitting* thread while it waited
    /// (work-stealing assists).
    PoolStealAssists,
    /// Jobs dispatched with the may-block tag (spill lanes).
    PoolMayBlockJobs,
    /// Rows the compiled scan kernel tested a predicate against (rows
    /// accepted in bulk from a matching run are *not* counted — that is the
    /// point of run skipping).
    RowsTested,
    /// Whole runs the compiled scan kernel skipped without testing a row.
    RunsSkipped,
    /// Row shards pruned by a zone map before dispatch (no row in the shard
    /// can satisfy the compiled predicate).
    ShardsPruned,
    /// Total items (rows) offered to adaptive scatter sizing — the running
    /// numerator of the observed mean scatter size.
    AdaptiveScatterItems,
    /// Adaptive scatter sizing decisions taken — the running denominator of
    /// the observed mean scatter size.
    AdaptiveScatterCalls,
    /// Requests admitted by the serving front door (including duplicates
    /// joined onto an in-flight request).
    ServeAdmitted,
    /// Admitted requests answered with a recommendation or an engine/internal
    /// error (a terminal, evaluated outcome).
    ServeCompleted,
    /// Requests refused at the door because the pending ledger was full
    /// (typed `Overloaded` response; never admitted).
    ServeOverloaded,
    /// Admitted requests rejected with a typed `DeadlineExceeded` response.
    ServeDeadlineExpired,
    /// Admitted requests drained with a typed response because shutdown began
    /// before their evaluation started.
    ServeDrained,
    /// Admissions that joined an identical in-flight request instead of
    /// consuming a pending-ledger slot (dedup-before-admission).
    ServeDedupJoined,
    /// Malformed frames / undecodable requests answered with a typed protocol
    /// error.
    ServeProtocolErrors,
    /// Bytes of encoded payload shipped to remote workers (partitions, layer
    /// state, and scatter plans — request side of the wire).
    RemoteBytesShipped,
    /// Scatter RPCs issued to remote workers (one per worker per scatter that
    /// was not pruned away).
    RemoteRpcs,
    /// Remote scatters that fell back to local execution after a transport
    /// error (distributed correctness tests gate this at zero).
    RemoteFallbacks,
    /// Remote partials folded into the coordinator merge while at least one
    /// later worker reply was still in flight — the overlap the streamed
    /// scatter pipeline exists to create (merge work hides network wait).
    RemoteOverlappedMerges,
    /// Gram partials (gram-cell ranges and per-cluster gram blocks) computed
    /// worker-side instead of on the coordinator.
    RemoteGramPartials,
    /// E-step partials (per-cluster posterior moments) computed worker-side
    /// instead of on the coordinator.
    RemoteEStepPartials,
    /// Bytes of reply frames read back from remote workers (acks, view
    /// partials, gram / E-step partials — reply side of the wire).
    RemoteBytesReceived,
}

/// Number of [`Counter`] variants.
pub const COUNTER_COUNT: usize = 25;

impl Counter {
    /// All counters, in registry order.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::PoolScatters,
        Counter::PoolInlineScatters,
        Counter::PoolJobsDispatched,
        Counter::PoolJobsExecuted,
        Counter::PoolStealAssists,
        Counter::PoolMayBlockJobs,
        Counter::RowsTested,
        Counter::RunsSkipped,
        Counter::ShardsPruned,
        Counter::AdaptiveScatterItems,
        Counter::AdaptiveScatterCalls,
        Counter::ServeAdmitted,
        Counter::ServeCompleted,
        Counter::ServeOverloaded,
        Counter::ServeDeadlineExpired,
        Counter::ServeDrained,
        Counter::ServeDedupJoined,
        Counter::ServeProtocolErrors,
        Counter::RemoteBytesShipped,
        Counter::RemoteRpcs,
        Counter::RemoteFallbacks,
        Counter::RemoteOverlappedMerges,
        Counter::RemoteGramPartials,
        Counter::RemoteEStepPartials,
        Counter::RemoteBytesReceived,
    ];

    /// Stable snake_case name used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Counter::PoolScatters => "pool_scatters",
            Counter::PoolInlineScatters => "pool_inline_scatters",
            Counter::PoolJobsDispatched => "pool_jobs_dispatched",
            Counter::PoolJobsExecuted => "pool_jobs_executed",
            Counter::PoolStealAssists => "pool_steal_assists",
            Counter::PoolMayBlockJobs => "pool_may_block_jobs",
            Counter::RowsTested => "rows_tested",
            Counter::RunsSkipped => "runs_skipped",
            Counter::ShardsPruned => "shards_pruned",
            Counter::AdaptiveScatterItems => "adaptive_scatter_items",
            Counter::AdaptiveScatterCalls => "adaptive_scatter_calls",
            Counter::ServeAdmitted => "serve_admitted",
            Counter::ServeCompleted => "serve_completed",
            Counter::ServeOverloaded => "serve_overloaded",
            Counter::ServeDeadlineExpired => "serve_deadline_expired",
            Counter::ServeDrained => "serve_drained",
            Counter::ServeDedupJoined => "serve_dedup_joined",
            Counter::ServeProtocolErrors => "serve_protocol_errors",
            Counter::RemoteBytesShipped => "remote_bytes_shipped",
            Counter::RemoteRpcs => "remote_rpcs",
            Counter::RemoteFallbacks => "remote_fallbacks",
            Counter::RemoteOverlappedMerges => "remote_overlapped_merges",
            Counter::RemoteGramPartials => "remote_gram_partials",
            Counter::RemoteEStepPartials => "remote_e_step_partials",
            Counter::RemoteBytesReceived => "remote_bytes_received",
        }
    }

    fn index(self) -> usize {
        match self {
            Counter::PoolScatters => 0,
            Counter::PoolInlineScatters => 1,
            Counter::PoolJobsDispatched => 2,
            Counter::PoolJobsExecuted => 3,
            Counter::PoolStealAssists => 4,
            Counter::PoolMayBlockJobs => 5,
            Counter::RowsTested => 6,
            Counter::RunsSkipped => 7,
            Counter::ShardsPruned => 8,
            Counter::AdaptiveScatterItems => 9,
            Counter::AdaptiveScatterCalls => 10,
            Counter::ServeAdmitted => 11,
            Counter::ServeCompleted => 12,
            Counter::ServeOverloaded => 13,
            Counter::ServeDeadlineExpired => 14,
            Counter::ServeDrained => 15,
            Counter::ServeDedupJoined => 16,
            Counter::ServeProtocolErrors => 17,
            Counter::RemoteBytesShipped => 18,
            Counter::RemoteRpcs => 19,
            Counter::RemoteFallbacks => 20,
            Counter::RemoteOverlappedMerges => 21,
            Counter::RemoteGramPartials => 22,
            Counter::RemoteEStepPartials => 23,
            Counter::RemoteBytesReceived => 24,
        }
    }
}

// ---------------------------------------------------------------------------
// Gauges
// ---------------------------------------------------------------------------

/// Always-on gauges. The `*Max` gauges are high-water marks (updated with
/// `fetch_max`); [`Gauge::ServePendingDepth`] is a live level set with
/// [`gauge_set`] every time the serving ledger changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gauge {
    /// Maximum observed pool queue depth at enqueue time.
    PoolQueueDepthMax,
    /// Widest scatter (number of ranges) dispatched to the pool.
    PoolScatterWidthMax,
    /// Number of pool worker threads (set once at pool spawn).
    PoolWorkers,
    /// Current serving front-door pending depth (admitted, not yet terminal).
    ServePendingDepth,
    /// High-water mark of [`Gauge::ServePendingDepth`].
    ServePendingDepthMax,
}

/// Number of [`Gauge`] variants.
pub const GAUGE_COUNT: usize = 5;

impl Gauge {
    /// All gauges, in registry order.
    pub const ALL: [Gauge; GAUGE_COUNT] = [
        Gauge::PoolQueueDepthMax,
        Gauge::PoolScatterWidthMax,
        Gauge::PoolWorkers,
        Gauge::ServePendingDepth,
        Gauge::ServePendingDepthMax,
    ];

    /// Stable snake_case name used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::PoolQueueDepthMax => "pool_queue_depth_max",
            Gauge::PoolScatterWidthMax => "pool_scatter_width_max",
            Gauge::PoolWorkers => "pool_workers",
            Gauge::ServePendingDepth => "serve_pending_depth",
            Gauge::ServePendingDepthMax => "serve_pending_depth_max",
        }
    }

    fn index(self) -> usize {
        match self {
            Gauge::PoolQueueDepthMax => 0,
            Gauge::PoolScatterWidthMax => 1,
            Gauge::PoolWorkers => 2,
            Gauge::ServePendingDepth => 3,
            Gauge::ServePendingDepthMax => 4,
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Power-of-two histogram buckets: bucket `i` counts durations `d` with
/// `2^i ns <= d < 2^(i+1) ns` (bucket 0 also holds sub-nanosecond zeros).
/// 32 buckets cover up to ~4.3 s per span, far beyond any Reptile stage.
pub const HISTOGRAM_BUCKETS: usize = 32;

struct StageRecord {
    count: AtomicU64,
    total_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl StageRecord {
    const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        StageRecord {
            count: ZERO,
            total_ns: ZERO,
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: ZERO,
            buckets: [ZERO; HISTOGRAM_BUCKETS],
        }
    }

    fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        let bucket = (64 - ns.leading_zeros() as usize)
            .saturating_sub(1)
            .min(HISTOGRAM_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.min_ns.store(u64::MAX, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

struct Registry {
    enabled: AtomicBool,
    stages: [StageRecord; STAGE_COUNT],
    counters: [AtomicU64; COUNTER_COUNT],
    gauges: [AtomicU64; GAUGE_COUNT],
}

static REGISTRY: Registry = {
    #[allow(clippy::declare_interior_mutable_const)]
    const REC: StageRecord = StageRecord::new();
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    Registry {
        enabled: AtomicBool::new(false),
        stages: [REC; STAGE_COUNT],
        counters: [ZERO; COUNTER_COUNT],
        gauges: [ZERO; GAUGE_COUNT],
    }
};

/// Turn the process-wide stage timers on or off. Counters and gauges are
/// unaffected (always on). Off is the default: the disabled path is one
/// relaxed load and a branch.
pub fn set_enabled(on: bool) {
    REGISTRY.enabled.store(on, Ordering::Relaxed);
}

/// Whether the process-wide stage timers are on.
#[inline]
pub fn enabled() -> bool {
    REGISTRY.enabled.load(Ordering::Relaxed)
}

/// Zero every stage histogram, counter, and gauge. Benches call this between
/// phases so snapshots attribute work to the right workload.
pub fn reset() {
    for rec in &REGISTRY.stages {
        rec.reset();
    }
    for c in &REGISTRY.counters {
        c.store(0, Ordering::Relaxed);
    }
    for g in &REGISTRY.gauges {
        g.store(0, Ordering::Relaxed);
    }
}

/// Add `n` to a monotonic counter (always on; relaxed).
#[inline]
pub fn add_counter(counter: Counter, n: u64) {
    REGISTRY.counters[counter.index()].fetch_add(n, Ordering::Relaxed);
}

/// Current value of a counter.
pub fn counter_value(counter: Counter) -> u64 {
    REGISTRY.counters[counter.index()].load(Ordering::Relaxed)
}

/// Raise a high-water-mark gauge to at least `value`.
#[inline]
pub fn gauge_max(gauge: Gauge, value: u64) {
    REGISTRY.gauges[gauge.index()].fetch_max(value, Ordering::Relaxed);
}

/// Overwrite a level gauge with `value` (for gauges that track a current
/// level rather than a high-water mark, e.g. [`Gauge::ServePendingDepth`]).
#[inline]
pub fn gauge_set(gauge: Gauge, value: u64) {
    REGISTRY.gauges[gauge.index()].store(value, Ordering::Relaxed);
}

/// Current value of a gauge.
pub fn gauge_value(gauge: Gauge) -> u64 {
    REGISTRY.gauges[gauge.index()].load(Ordering::Relaxed)
}

/// Record a pre-measured duration against a stage's histogram (used for
/// queue-wait, where the span crosses threads and a guard cannot). Honoured
/// regardless of the enable flag — the *caller* decides whether it measured.
#[inline]
pub fn record_duration_ns(stage: Stage, ns: u64) {
    REGISTRY.stages[stage.index()].record(ns);
}

/// Total nanoseconds recorded against `stage` so far.
pub fn stage_total_ns(stage: Stage) -> u64 {
    REGISTRY.stages[stage.index()]
        .total_ns
        .load(Ordering::Relaxed)
}

/// Number of spans recorded against `stage` so far.
pub fn stage_count(stage: Stage) -> u64 {
    REGISTRY.stages[stage.index()].count.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// StageTimer
// ---------------------------------------------------------------------------

/// RAII span timer: measures from construction to drop and records into the
/// stage's histogram. When timing is off ([`StageTimer::start`] with the
/// global flag clear, or [`StageTimer::start_if`]`(_, false)` with the global
/// flag clear) the guard is inert — no clock read, no atomics on drop.
#[must_use = "the span is measured from construction to drop"]
pub struct StageTimer {
    stage: Stage,
    start: Option<Instant>,
}

impl StageTimer {
    /// Start a span gated on the process-wide flag ([`set_enabled`]).
    #[inline]
    pub fn start(stage: Stage) -> Self {
        Self::start_if(stage, false)
    }

    /// Start a span that measures when `on` **or** the process-wide flag is
    /// set — the per-engine `ObsConfig` gate for spans that do carry an
    /// engine handle.
    #[inline]
    pub fn start_if(stage: Stage, on: bool) -> Self {
        let start = if on || enabled() {
            Some(Instant::now())
        } else {
            None
        };
        StageTimer { stage, start }
    }

    /// Whether this span is live (measuring).
    pub fn is_active(&self) -> bool {
        self.start.is_some()
    }

    /// Stop early and return the measured nanoseconds (0 when inert). The
    /// span is recorded exactly once (drop becomes a no-op).
    pub fn stop(mut self) -> u64 {
        self.finish()
    }

    fn finish(&mut self) -> u64 {
        match self.start.take() {
            Some(t0) => {
                let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                REGISTRY.stages[self.stage.index()].record(ns);
                ns
            }
            None => 0,
        }
    }
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        self.finish();
    }
}

// ---------------------------------------------------------------------------
// ObsConfig
// ---------------------------------------------------------------------------

/// Per-engine observability switch. Lives on `ReptileConfig` but is
/// deliberately **excluded** from `config_fingerprint`: profiling must never
/// split the view/model caches, because results are bit-identical either way.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Time the engine-level spans (design-build, ingest stages, session
    /// stage durations) even when the process-wide flag is off.
    pub enabled: bool,
}

impl ObsConfig {
    /// Observability on.
    pub fn profiled() -> Self {
        ObsConfig { enabled: true }
    }
}

// ---------------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------------

/// Point-in-time copy of one stage's histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Stable snake_case stage name (the JSON key).
    pub name: &'static str,
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations in nanoseconds.
    pub total_ns: u64,
    /// Shortest span (0 when no spans recorded).
    pub min_ns: u64,
    /// Longest span.
    pub max_ns: u64,
    /// Power-of-two duration buckets (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl StageSnapshot {
    /// Mean span duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Histogram quantile estimate (upper bucket bound), `q` in `[0, 1]`.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        self.max_ns
    }
}

/// A plain, serializable copy of the whole registry: per-stage histograms,
/// counters, and gauges. Serialization is the same hand-rolled JSON style as
/// `reptile-bench` — no external dependencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// One entry per [`Stage`], in [`Stage::ALL`] order.
    pub stages: Vec<StageSnapshot>,
    /// `(name, value)` per [`Counter`], in [`Counter::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` per [`Gauge`], in [`Gauge::ALL`] order.
    pub gauges: Vec<(&'static str, u64)>,
}

impl MetricsSnapshot {
    /// Copy the live registry.
    pub fn capture() -> Self {
        let stages = Stage::ALL
            .iter()
            .map(|&s| {
                let rec = &REGISTRY.stages[s.index()];
                let count = rec.count.load(Ordering::Relaxed);
                let min = rec.min_ns.load(Ordering::Relaxed);
                let mut buckets = [0u64; HISTOGRAM_BUCKETS];
                for (dst, src) in buckets.iter_mut().zip(&rec.buckets) {
                    *dst = src.load(Ordering::Relaxed);
                }
                StageSnapshot {
                    name: s.name(),
                    count,
                    total_ns: rec.total_ns.load(Ordering::Relaxed),
                    min_ns: if count == 0 { 0 } else { min },
                    max_ns: rec.max_ns.load(Ordering::Relaxed),
                    buckets,
                }
            })
            .collect();
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.name(), counter_value(c)))
            .collect();
        let gauges = Gauge::ALL
            .iter()
            .map(|&g| (g.name(), gauge_value(g)))
            .collect();
        MetricsSnapshot {
            stages,
            counters,
            gauges,
        }
    }

    /// Snapshot for one stage by name-stable enum.
    pub fn stage(&self, stage: Stage) -> &StageSnapshot {
        &self.stages[stage.index()]
    }

    /// The `"stages"` JSON object alone (embedded into `BENCH_*.json`):
    /// `{"encode":{"count":..,"total_ns":..,"mean_ns":..,"min_ns":..,"max_ns":..},...}`.
    pub fn stages_json(&self) -> String {
        let mut out = String::from("{");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"total_ns\":{},\"mean_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
                s.name,
                s.count,
                s.total_ns,
                s.mean_ns(),
                s.min_ns,
                s.max_ns
            ));
        }
        out.push('}');
        out
    }

    /// Full snapshot as a JSON object with `stages`, `counters`, `gauges`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"stages\": ");
        out.push_str(&self.stages_json());
        out.push_str(",\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{v}"));
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{v}"));
        }
        out.push_str("}\n}");
        out
    }

    /// Human-readable table (one line per non-empty stage, then counters).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:>10} {:>14} {:>12} {:>12} {:>12}\n",
            "stage", "count", "total_ms", "mean_us", "min_us", "max_us"
        ));
        for s in &self.stages {
            if s.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<14} {:>10} {:>14.3} {:>12.2} {:>12.2} {:>12.2}\n",
                s.name,
                s.count,
                s.total_ns as f64 / 1e6,
                s.mean_ns() as f64 / 1e3,
                s.min_ns as f64 / 1e3,
                s.max_ns as f64 / 1e3,
            ));
        }
        for (name, v) in self.counters.iter().chain(self.gauges.iter()) {
            if *v != 0 {
                out.push_str(&format!("{name:<26} {v:>10}\n"));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so every test serialises on this lock
    // to keep counts deterministic under the multi-threaded test runner.
    use std::sync::Mutex;
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_timer_records_nothing() {
        let _g = locked();
        reset();
        set_enabled(false);
        {
            let t = StageTimer::start(Stage::Encode);
            assert!(!t.is_active());
        }
        assert_eq!(stage_count(Stage::Encode), 0);
        assert_eq!(stage_total_ns(Stage::Encode), 0);
    }

    #[test]
    fn enabled_timer_records_span() {
        let _g = locked();
        reset();
        set_enabled(true);
        {
            let t = StageTimer::start(Stage::Scan);
            assert!(t.is_active());
        }
        set_enabled(false);
        let snap = MetricsSnapshot::capture();
        assert_eq!(snap.stage(Stage::Scan).count, 1);
        assert!(snap.stage(Stage::Scan).max_ns >= snap.stage(Stage::Scan).min_ns);
    }

    #[test]
    fn start_if_overrides_global_flag() {
        let _g = locked();
        reset();
        set_enabled(false);
        {
            let _t = StageTimer::start_if(Stage::Solve, true);
        }
        assert_eq!(stage_count(Stage::Solve), 1);
    }

    #[test]
    fn stop_records_exactly_once() {
        let _g = locked();
        reset();
        set_enabled(true);
        let t = StageTimer::start(Stage::Merge);
        let ns = t.stop();
        set_enabled(false);
        assert_eq!(stage_count(Stage::Merge), 1);
        assert_eq!(stage_total_ns(Stage::Merge), ns);
    }

    #[test]
    fn counters_and_gauges_always_on() {
        let _g = locked();
        reset();
        set_enabled(false);
        add_counter(Counter::PoolJobsExecuted, 3);
        add_counter(Counter::PoolJobsExecuted, 2);
        gauge_max(Gauge::PoolQueueDepthMax, 4);
        gauge_max(Gauge::PoolQueueDepthMax, 2);
        assert_eq!(counter_value(Counter::PoolJobsExecuted), 5);
        assert_eq!(gauge_value(Gauge::PoolQueueDepthMax), 4);
    }

    #[test]
    fn gauge_set_overwrites_in_both_directions() {
        let _g = locked();
        reset();
        gauge_set(Gauge::ServePendingDepth, 7);
        assert_eq!(gauge_value(Gauge::ServePendingDepth), 7);
        gauge_set(Gauge::ServePendingDepth, 2);
        assert_eq!(gauge_value(Gauge::ServePendingDepth), 2);
        gauge_max(Gauge::ServePendingDepthMax, 7);
        gauge_max(Gauge::ServePendingDepthMax, 2);
        assert_eq!(gauge_value(Gauge::ServePendingDepthMax), 7);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let _g = locked();
        reset();
        record_duration_ns(Stage::QueueWait, 0);
        record_duration_ns(Stage::QueueWait, 1);
        record_duration_ns(Stage::QueueWait, 2);
        record_duration_ns(Stage::QueueWait, 3);
        record_duration_ns(Stage::QueueWait, 1024);
        let snap = MetricsSnapshot::capture();
        let s = snap.stage(Stage::QueueWait);
        assert_eq!(s.count, 5);
        assert_eq!(s.buckets[0], 2); // 0 and 1
        assert_eq!(s.buckets[1], 2); // 2 and 3
        assert_eq!(s.buckets[10], 1); // 1024
        assert_eq!(s.quantile_ns(1.0), 1 << 11);
    }

    #[test]
    fn json_has_all_keys() {
        let _g = locked();
        reset();
        let snap = MetricsSnapshot::capture();
        let json = snap.to_json();
        for s in Stage::ALL {
            assert!(json.contains(&format!("\"{}\"", s.name())), "{}", s.name());
        }
        for c in Counter::ALL {
            assert!(json.contains(&format!("\"{}\"", c.name())), "{}", c.name());
        }
        for g in Gauge::ALL {
            assert!(json.contains(&format!("\"{}\"", g.name())), "{}", g.name());
        }
        assert!(json.contains("\"stages\""));
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"gauges\""));
    }

    #[test]
    fn reset_clears_everything() {
        let _g = locked();
        reset();
        record_duration_ns(Stage::Encode, 42);
        add_counter(Counter::PoolScatters, 7);
        gauge_max(Gauge::PoolWorkers, 3);
        reset();
        assert_eq!(stage_count(Stage::Encode), 0);
        assert_eq!(counter_value(Counter::PoolScatters), 0);
        assert_eq!(gauge_value(Gauge::PoolWorkers), 0);
        let snap = MetricsSnapshot::capture();
        assert_eq!(snap.stage(Stage::Encode).min_ns, 0);
    }
}
