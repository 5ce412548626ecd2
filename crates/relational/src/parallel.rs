//! Shard-parallel execution of the workspace's hot paths.
//!
//! Reptile's training aggregates (`COUNT`/`TOTAL`/`COF`), gram systems and
//! view scans are *additive across row partitions* of the base relation:
//! every table is a sum of integer counts (or of values accumulated per
//! entry), so the hot paths can fan out over contiguous shards and merge
//! exactly. This module provides the one knob and the one fan-out
//! primitive that [`View::compute`](crate::View::compute) (under
//! [`Exec::Pool`](crate::Exec)), the
//! sharded builders in `reptile-factor` (`encoded`, `cluster`),
//! `reptile-model` and `reptile` (the engine's per-hierarchy candidate
//! evaluation) share:
//!
//! * [`Parallelism`] — how many OS threads a sharded build may use
//!   (`serial()` by default, so nothing changes unless a caller opts in);
//! * [`Parallelism::run_shards`] — scatter a closure over contiguous
//!   `(start, len)` ranges onto a process-wide pool of *persistent* worker
//!   threads (std-only, no external thread-pool crate; workers idle on a
//!   condvar between scatters, roughly an order of magnitude cheaper per
//!   scatter than spawning threads) and gather the per-shard results *in
//!   shard order*, which is what makes the merges deterministic. The
//!   workers are detached and long-lived, so the borrowed scatter closures
//!   are lifetime-erased before queueing; soundness rests on `WaitGuard`
//!   (the scatter never returns — not even by unwinding — before every
//!   dispatched shard completed), **not** on scoped threads.
//!
//! **Work-stealing assist.** While a caller waits for its dispatched
//! shards it does not just block on the completion latch: it *drains*
//! queued compute jobs — its own and unrelated scatters' alike — running
//! them inline as if it were a pool worker. Under concurrent load
//! (`BatchServer` request workers all scattering onto the one pool) a
//! scatter queued behind another therefore makes progress on the caller's
//! own core instead of idling, which bounds tail latency; and a caller
//! whose jobs nobody picked up (every worker busy or parked on an
//! external condition) completes them itself, so a scatter can never
//! deadlock on pool capacity. Only jobs submitted as pure compute are
//! stolen: jobs flagged *may-block* (the engine's hierarchy evaluations,
//! which can wait on a serving cache's claim condvar) are left to the
//! dedicated workers, because running one inline could park the assisting
//! caller on a condition only the caller itself can satisfy.
//!
//! **One scheduler.** The pool is the process's only scheduler: besides
//! scatters, owned fire-and-forget jobs enter through [`spawn_pool_job`] —
//! the serving front door (`reptile-serve`) submits every admitted request
//! as one may-block job, so request execution and the shard scatters it
//! triggers share the single queue and the single worker set, and a request
//! worker waiting on its own scatter assists others' instead of idling.
//! Shard *widths* are adaptive ([`Parallelism::adaptive_width`]): scatters
//! under [`ADAPTIVE_INLINE_FLOOR`] items run inline, scatters at or above
//! the observed mean size (fed back through the obs layer's
//! `adaptive_scatter_*` counters) get the full budget, and sizes in between
//! scale proportionally — replacing the old static `cores / threads()`
//! split. Width never changes results, only latency.
//!
//! **Exactness contract.** Every sharded code path in this workspace is
//! bit-identical (`==`, not tolerance) to its serial counterpart. Two
//! mechanisms deliver that, and new sharded paths must use one of them:
//!
//! 1. *Integer-sum merges* — the encoded aggregate tables hold integer
//!    counts as `f64`; integer-valued `f64` addition is exact in any
//!    grouping (up to 2⁵³), so per-shard partial tables summed code-wise
//!    equal the serial accumulation bit-for-bit.
//! 2. *Disjoint-output sharding* — operators whose outputs are per-entry
//!    (gram cells, per-cluster blocks, per-column accumulators) are
//!    sharded over entries, each entry running the *identical* serial
//!    floating-point sequence; no partial sum ever crosses a shard.
//!
//! What is deliberately **not** sharded: any reduction whose serial
//! operation order would change (e.g. the response-vector scan over view
//! groups, or a direct per-shard split of a single gram *entry*'s
//! `Σ c·f·g`), because floating-point addition is not associative and the
//! equivalence tests assert exact equality against the serial path.
//!
//! **Observability.** The pool reports to the process-wide `reptile-obs`
//! registry: always-on relaxed counters for scatters (dispatched vs inline
//! fallback), jobs dispatched / executed by workers / drained by the
//! work-stealing assist, and may-block jobs, plus high-water gauges for
//! queue depth, scatter width and worker count. Per-job queue-wait spans
//! (enqueue → dequeue) are only measured while `reptile_obs::enabled()` is
//! set — the disabled path never reads a clock. None of this changes what a
//! scatter computes: results are bit-identical with observability on or
//! off. The invariant the concurrency tests assert once the pool is
//! quiescent: `jobs_dispatched == jobs_executed + steal_assists`.

use reptile_obs as obs;
use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// How many threads the sharded builders and operators may use.
///
/// The default is [`Parallelism::serial`], which makes every `*_with`
/// entry point take exactly the code path (and produce exactly the bits)
/// of its serial counterpart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    threads: NonZeroUsize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::serial()
    }
}

impl Parallelism {
    /// Single-threaded execution (the default): sharded entry points run
    /// their serial counterpart inline.
    pub const fn serial() -> Self {
        Parallelism {
            threads: NonZeroUsize::MIN,
        }
    }

    /// Use up to `threads` OS threads (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Parallelism {
            threads: NonZeroUsize::new(threads.max(1)).expect("clamped"),
        }
    }

    /// Use every core the OS reports
    /// ([`std::thread::available_parallelism`]), falling back to serial when
    /// the hint is unavailable.
    pub fn available() -> Self {
        Parallelism {
            threads: std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// The configured thread budget.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Whether this configuration runs everything inline.
    pub fn is_serial(&self) -> bool {
        self.threads.get() == 1
    }

    /// The thread count a scatter from *this calling context* would
    /// actually overlap: 1 when execution would inline anyway (serial
    /// budget, single-core host, or already running on a pool worker —
    /// nested scatters never dispatch), the configured budget otherwise.
    /// Entry points with a cheaper serial algorithm (e.g.
    /// `View::compute`'s direct scan vs its shard/merge structure)
    /// consult this to skip the sharded shape when it cannot pay off.
    pub fn effective_threads(&self) -> usize {
        if self.is_serial() || single_core_host() || in_pool_worker() {
            1
        } else {
            self.threads.get()
        }
    }

    /// Divide this budget among `workers` concurrent consumers: every
    /// consumer gets `threads / workers` threads, at least one, so a
    /// fan-out of fan-outs does not oversubscribe the machine. The same
    /// division works in both directions — a per-request shard budget
    /// splitting the machine (`machine.split(per_request)` = how many
    /// request workers fit) or a worker count splitting the machine into
    /// per-worker shard budgets; `BatchServer::new` uses the former.
    pub fn split(&self, workers: usize) -> Self {
        Parallelism::new(self.threads.get() / workers.max(1))
    }

    /// Split `0..len` into exactly `shards` contiguous `(start, len)`
    /// ranges, balanced to within one element. When `shards > len` the
    /// trailing ranges are empty — shard counts larger than the item count
    /// are valid (their partial aggregates are empty and merge as
    /// identities).
    pub fn shard_ranges(len: usize, shards: usize) -> Vec<(usize, usize)> {
        let shards = shards.max(1);
        let base = len / shards;
        let extra = len % shards;
        let mut ranges = Vec::with_capacity(shards);
        let mut start = 0usize;
        for s in 0..shards {
            let chunk = base + usize::from(s < extra);
            ranges.push((start, chunk));
            start += chunk;
        }
        debug_assert_eq!(start, len);
        ranges
    }

    /// The ranges [`Parallelism::run_shards`] would fan `0..len` out over:
    /// one contiguous range per thread, never more ranges than items.
    pub fn ranges_for(&self, len: usize) -> Vec<(usize, usize)> {
        Self::shard_ranges(len, self.threads.get().min(len.max(1)))
    }

    /// Adaptive fan-out width for a scatter over `len` items, replacing the
    /// static `cores / threads()` split: tiny scatters run inline, scatters
    /// at or above the observed mean size get the full budget, and scatters
    /// in between get a width proportional to their size relative to that
    /// mean. The mean comes from the obs layer's always-on
    /// `adaptive_scatter_items` / `adaptive_scatter_calls` counters, which
    /// this call also feeds — so the rule self-tunes to the workload the
    /// process actually sees (a serving mix of narrow drill-downs and wide
    /// base-relation scans lands each at its own width).
    ///
    /// Any width is bit-exact (the merges are width-independent — see the
    /// exactness contract above), so this only moves latency, never results.
    pub fn adaptive_width(&self, len: usize) -> usize {
        let budget = self.effective_threads();
        if budget == 1 {
            return 1;
        }
        obs::add_counter(obs::Counter::AdaptiveScatterItems, len as u64);
        obs::add_counter(obs::Counter::AdaptiveScatterCalls, 1);
        if len < ADAPTIVE_INLINE_FLOOR {
            return 1;
        }
        let calls = obs::counter_value(obs::Counter::AdaptiveScatterCalls).max(1);
        let mean = (obs::counter_value(obs::Counter::AdaptiveScatterItems) / calls).max(1);
        if len as u64 >= mean {
            budget
        } else {
            // Below the running mean but above the inline floor: scale the
            // width by len/mean, keeping at least a 2-way split (it already
            // cleared the floor) and never exceeding the budget.
            let scaled = ((len as u128) * (budget as u128) / (mean as u128)) as usize;
            scaled.clamp(2, budget)
        }
    }

    /// The ranges an adaptive scatter over `0..len` fans out over: one
    /// contiguous range per [`Parallelism::adaptive_width`] slot, never more
    /// ranges than items. A single returned range means "run inline".
    pub fn adaptive_ranges(&self, len: usize) -> Vec<(usize, usize)> {
        Self::shard_ranges(len, self.adaptive_width(len).min(len.max(1)))
    }

    /// Scatter `shard(start, len)` over the given ranges and gather the
    /// results **in range order**. Serial configurations (or a single
    /// range) run inline on the caller's thread; otherwise the trailing
    /// ranges are dispatched to the process-wide [shard pool](self) —
    /// persistent workers woken by condvar, roughly an order of magnitude
    /// cheaper per scatter than spawning threads, which matters because the
    /// EM loop scatters several times per iteration — and the caller
    /// computes the first range itself, then blocks until every dispatched
    /// shard completed. A shard that panics re-raises the panic on the
    /// calling thread after the remaining shards finish.
    pub fn run_shards<T: Send>(
        &self,
        ranges: &[(usize, usize)],
        shard: impl Fn(usize, usize) -> T + Sync,
    ) -> Vec<T> {
        self.scatter(ranges, shard, false)
    }

    /// Like [`Parallelism::run_shards`], for shard closures that may *park*
    /// — wait on a condition another thread satisfies, e.g. a serving
    /// cache's in-flight claim. Jobs dispatched by this variant are flagged
    /// so the work-stealing assist never runs one inline on a waiting
    /// caller (which could park the caller on a condition only the caller
    /// itself can satisfy); only the dedicated pool workers — whose
    /// claimants always make independent progress — pick them up. The
    /// engine's per-hierarchy candidate evaluation uses this.
    pub fn run_shards_may_block<T: Send>(
        &self,
        ranges: &[(usize, usize)],
        shard: impl Fn(usize, usize) -> T + Sync,
    ) -> Vec<T> {
        self.scatter(ranges, shard, true)
    }

    fn scatter<T: Send>(
        &self,
        ranges: &[(usize, usize)],
        shard: impl Fn(usize, usize) -> T + Sync,
        may_block: bool,
    ) -> Vec<T> {
        if self.is_serial() || ranges.len() <= 1 || in_pool_worker() || single_core_host() {
            // A pool worker never scatters (its sub-shards would queue
            // behind the very scatters the pool is draining — a deadlock
            // shape); nested parallelism degrades to inline execution. A
            // single-core host degrades too: dispatching to the pool there
            // can only add wake-up and timeslicing latency (tens of
            // milliseconds under cgroup CPU quotas) and can never overlap
            // any compute — inline execution is bit-identical and strictly
            // faster.
            obs::add_counter(obs::Counter::PoolInlineScatters, 1);
            return ranges.iter().map(|&(s, l)| shard(s, l)).collect();
        }
        let pool = shard_pool();
        pool.ensure_workers(self.threads.get() - 1);
        obs::add_counter(obs::Counter::PoolScatters, 1);
        obs::gauge_max(obs::Gauge::PoolScatterWidthMax, ranges.len() as u64);

        let extra = ranges.len() - 1;
        let latch = Latch::new(extra);
        let slots: Vec<Mutex<Option<T>>> = (0..extra).map(|_| Mutex::new(None)).collect();
        {
            // The guard blocks until every dispatched job completed — on
            // the normal path *and* when the caller's own shard panics —
            // so the jobs' borrows of `shard`, `slots` and `latch` can
            // never dangle (the safety contract of the lifetime erasure
            // in `PoolShared::submit`). While blocked it drains queued
            // compute jobs (the work-stealing assist), so the wait makes
            // progress even when every worker is busy elsewhere.
            let _guard = WaitGuard(&latch, pool);
            {
                let shard = &shard;
                let slots = &slots;
                let latch = &latch;
                pool.submit_batch(
                    ranges[1..].iter().enumerate().map(move |(j, &(s, l))| {
                        let job: Box<dyn FnOnce() + Send + '_> =
                            Box::new(move || {
                                match catch_unwind(AssertUnwindSafe(|| shard(s, l))) {
                                    Ok(value) => {
                                        *slots[j].lock().expect("shard slot") = Some(value);
                                        latch.complete(None);
                                    }
                                    Err(payload) => latch.complete(Some(payload)),
                                }
                            });
                        job
                    }),
                    may_block,
                );
            }
            let (s0, l0) = ranges[0];
            let first = match catch_unwind(AssertUnwindSafe(|| shard(s0, l0))) {
                Ok(first) => first,
                Err(payload) => {
                    // Let the guard drain the dispatched jobs, then re-raise.
                    drop(_guard);
                    resume_unwind(payload);
                }
            };
            drop(_guard);
            if let Some(payload) = latch.take_panic() {
                resume_unwind(payload);
            }
            let mut out = Vec::with_capacity(ranges.len());
            out.push(first);
            for slot in &slots {
                out.push(
                    slot.lock()
                        .expect("shard slot")
                        .take()
                        .expect("completed shard filled its slot"),
                );
            }
            out
        }
    }

    /// Fan `0..len` out over this budget's threads (contiguous balanced
    /// ranges) and gather the per-range results in order.
    pub fn map_ranges<T: Send>(
        &self,
        len: usize,
        shard: impl Fn(usize, usize) -> T + Sync,
    ) -> Vec<T> {
        self.run_shards(&self.ranges_for(len), shard)
    }

    /// Compute `item(i)` for every `i` in `0..len`, sharded over this
    /// budget, returning the results in item order. Each item runs the
    /// identical serial computation; only *which thread* runs it changes.
    pub fn map_items<T: Send>(&self, len: usize, item: impl Fn(usize) -> T + Sync) -> Vec<T> {
        Self::gather_chunks(
            len,
            self.map_ranges(len, |start, chunk| {
                (start..start + chunk).map(&item).collect::<Vec<T>>()
            }),
        )
    }

    /// [`Parallelism::map_items`] for items that may *park* mid-computation
    /// (see [`Parallelism::run_shards_may_block`]).
    pub fn map_items_may_block<T: Send>(
        &self,
        len: usize,
        item: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        Self::gather_chunks(
            len,
            self.run_shards_may_block(&self.ranges_for(len), |start, chunk| {
                (start..start + chunk).map(&item).collect::<Vec<T>>()
            }),
        )
    }

    fn gather_chunks<T>(len: usize, mut chunks: Vec<Vec<T>>) -> Vec<T> {
        if chunks.len() == 1 {
            return chunks.pop().expect("one chunk");
        }
        let mut out = Vec::with_capacity(len);
        for chunk in chunks {
            out.extend(chunk);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The process-wide shard pool
// ---------------------------------------------------------------------------
//
// One lazily grown set of persistent worker threads serves every
// [`Parallelism::run_shards`] scatter in the process — the engine's design
// builds, the EM fits, and all of a `BatchServer`'s request workers share
// it, so concurrent scatters queue instead of oversubscribing the machine.
// Jobs are pure compute closures that never block on other jobs (a worker
// that would scatter runs inline instead — see `run_shards`), so queueing
// cannot deadlock.

/// A type-erased shard job. Lifetime-erased from the scatter's borrows; the
/// erasure is sound because `run_shards` (via `WaitGuard`, which waits even
/// during unwinding) never returns before every submitted job completed.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Scatters below this many items run inline regardless of the thread
/// budget: dispatch and merge overhead exceeds any overlap win (this is the
/// view layer's long-standing `SHARD_MIN_ROWS` threshold, promoted to the
/// adaptive rule's floor).
pub const ADAPTIVE_INLINE_FLOOR: usize = 2048;

/// Submit one owned, fire-and-forget job to the process-wide shard pool,
/// growing the pool to at least `min_workers` dedicated workers first. This
/// is the serving front door's entry point: every admitted request becomes
/// one `may_block` pool job, so the pool is the *only* scheduler in the
/// process — request jobs and the shard scatters they trigger share the one
/// queue, and a request worker waiting on its scatter drains other requests'
/// compute shards (the work-stealing assist) instead of idling.
///
/// Unlike a scatter, a spawned job always dispatches — even on a single-core
/// host — because serving jobs overlap *blocked* time (network writes, claim
/// waits, deadline queues), not just compute. The job is wrapped in
/// `catch_unwind` so a panicking request handler can never take a pool
/// worker down; callers that need to observe the panic (the serving layer
/// turns it into a typed error response) must catch it themselves first.
pub fn spawn_pool_job(min_workers: usize, may_block: bool, job: impl FnOnce() + Send + 'static) {
    let pool = shard_pool();
    pool.ensure_workers(min_workers.max(1));
    let boxed: Job = Box::new(move || {
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            // Contained: the worker survives; the payload is dropped because
            // no scatter latch is waiting to re-raise it.
        }
    });
    pool.submit_batch(std::iter::once(boxed), may_block);
}

/// One queue entry: the job plus whether it may park on an external
/// condition (see [`Parallelism::run_shards_may_block`]). Pool workers run
/// either kind; the work-stealing assist only drains pure compute.
struct QueuedJob {
    run: Job,
    may_block: bool,
    /// Enqueue instant, present only while stage timing is on
    /// ([`reptile_obs::enabled`]); dequeue records the queue-wait span.
    enqueued: Option<Instant>,
}

impl QueuedJob {
    /// Record the enqueue → dequeue latency into the queue-wait histogram
    /// (no-op for jobs enqueued while timing was off).
    fn record_queue_wait(&self) {
        if let Some(t0) = self.enqueued {
            let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            obs::record_duration_ns(obs::Stage::QueueWait, ns);
        }
    }
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    /// Wakes idle workers when jobs arrive.
    work: Condvar,
}

struct PoolQueue {
    jobs: VecDeque<QueuedJob>,
    workers: usize,
}

thread_local! {
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

fn in_pool_worker() -> bool {
    IN_POOL_WORKER.with(Cell::get)
}

/// Count of live [`ForcePoolDispatch`] guards (tests only).
static FORCE_DISPATCH: AtomicUsize = AtomicUsize::new(0);

/// Test-only override: while a guard is alive, scatters dispatch to the
/// pool even on a single-core host. Without it, every suite run in a
/// 1-CPU container would exercise only the inline fallback — the pool's
/// queueing, may-block jobs and work-stealing assist would go untested
/// exactly where ordering bugs hide. Not part of the public API.
#[doc(hidden)]
#[derive(Debug)]
pub struct ForcePoolDispatch;

impl ForcePoolDispatch {
    /// Activate the override for this guard's lifetime.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        FORCE_DISPATCH.fetch_add(1, Ordering::SeqCst);
        ForcePoolDispatch
    }
}

impl Drop for ForcePoolDispatch {
    fn drop(&mut self) {
        FORCE_DISPATCH.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Whether the host exposes only one hardware thread (cached once): pool
/// dispatch is pure overhead there, so every scatter runs inline —
/// unless a test holds a [`ForcePoolDispatch`] guard.
fn single_core_host() -> bool {
    static CORES: OnceLock<usize> = OnceLock::new();
    FORCE_DISPATCH.load(Ordering::SeqCst) == 0
        && *CORES.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }) == 1
}

fn shard_pool() -> &'static Arc<PoolShared> {
    static POOL: OnceLock<Arc<PoolShared>> = OnceLock::new();
    POOL.get_or_init(|| {
        Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                workers: 0,
            }),
            work: Condvar::new(),
        })
    })
}

impl PoolShared {
    /// Grow the pool to at least `wanted` workers (never shrinks; workers
    /// are detached and idle on a condvar between scatters).
    fn ensure_workers(self: &Arc<Self>, wanted: usize) {
        let mut queue = self.queue.lock().expect("shard pool lock");
        while queue.workers < wanted {
            queue.workers += 1;
            let shared = Arc::clone(self);
            std::thread::Builder::new()
                .name("reptile-shard".into())
                .spawn(move || shared.worker_loop())
                .expect("spawn shard pool worker");
        }
        obs::gauge_max(obs::Gauge::PoolWorkers, queue.workers as u64);
    }

    fn worker_loop(self: Arc<Self>) {
        IN_POOL_WORKER.with(|flag| flag.set(true));
        let mut queue = self.queue.lock().expect("shard pool lock");
        loop {
            if let Some(job) = queue.jobs.pop_front() {
                drop(queue);
                job.record_queue_wait();
                obs::add_counter(obs::Counter::PoolJobsExecuted, 1);
                // The job catches its own panics (see `run_shards`), so a
                // worker survives every scatter.
                (job.run)();
                queue = self.queue.lock().expect("shard pool lock");
            } else {
                queue = self.work.wait(queue).expect("shard pool lock");
            }
        }
    }

    /// Enqueue a batch of lifetime-erased jobs and wake the workers.
    ///
    /// # Safety contract
    /// The caller must not let the jobs' borrows expire before every job
    /// completed — upheld by `run_shards`' `WaitGuard`.
    fn submit_batch<'a>(
        &self,
        jobs: impl Iterator<Item = Box<dyn FnOnce() + Send + 'a>>,
        may_block: bool,
    ) {
        let mut queue = self.queue.lock().expect("shard pool lock");
        let mut dispatched = 0u64;
        for job in jobs {
            // SAFETY: `run_shards` blocks (via `WaitGuard`, also on the
            // unwinding path) until the job has run to completion, so every
            // borrow inside the closure strictly outlives its execution.
            let run: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'a>, Job>(job) };
            let enqueued = obs::enabled().then(Instant::now);
            queue.jobs.push_back(QueuedJob {
                run,
                may_block,
                enqueued,
            });
            dispatched += 1;
        }
        obs::add_counter(obs::Counter::PoolJobsDispatched, dispatched);
        if may_block {
            obs::add_counter(obs::Counter::PoolMayBlockJobs, dispatched);
        }
        obs::gauge_max(obs::Gauge::PoolQueueDepthMax, queue.jobs.len() as u64);
        drop(queue);
        self.work.notify_all();
    }

    /// Remove the first queued *pure compute* job (skipping may-block
    /// ones), for a waiting caller to run inline — the work-stealing
    /// assist. Returns `None` when no compute job is queued.
    fn steal_compute(&self) -> Option<Job> {
        let mut queue = self.queue.lock().expect("shard pool lock");
        let index = queue.jobs.iter().position(|j| !j.may_block)?;
        let job = queue.jobs.remove(index)?;
        drop(queue);
        job.record_queue_wait();
        obs::add_counter(obs::Counter::PoolStealAssists, 1);
        Some(job.run)
    }

    /// Wait for `latch` to drain, running queued compute jobs inline in
    /// the meantime (flagged as a pool worker for the duration of each
    /// job, so a stolen job's own nested scatters stay inline). Progress
    /// is guaranteed: all of the latch's jobs were enqueued before this
    /// wait starts, so each is either drained right here (compute jobs),
    /// or already running on / later claimed by a dedicated worker — and
    /// the final completion always signals the latch condvar.
    fn wait_assisting(&self, latch: &Latch) {
        loop {
            if latch.is_done() {
                return;
            }
            if let Some(job) = self.steal_compute() {
                IN_POOL_WORKER.with(|flag| {
                    let prev = flag.get();
                    flag.set(true);
                    // Jobs catch their own panics, so the flag restore
                    // cannot be skipped by an unwind.
                    job();
                    flag.set(prev);
                });
                continue;
            }
            // No compute job left to drain: every outstanding job is
            // already running on (or will be claimed by) a dedicated
            // worker, so sleeping on the latch is safe — the done-recheck
            // happens under the latch lock, so a completion between the
            // steal attempt and the wait is not missed.
            latch.wait();
            return;
        }
    }
}

/// Completion latch of one scatter: counts outstanding jobs and carries the
/// first panic payload out of the pool.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Latch {
    fn new(remaining: usize) -> Self {
        Latch {
            state: Mutex::new(LatchState {
                remaining,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    fn complete(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut state = self.state.lock().expect("latch lock");
        state.remaining -= 1;
        if state.panic.is_none() {
            state.panic = panic;
        }
        if state.remaining == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.state.lock().expect("latch lock").remaining == 0
    }

    fn wait(&self) {
        let mut state = self.state.lock().expect("latch lock");
        while state.remaining > 0 {
            state = self.done.wait(state).expect("latch lock");
        }
    }

    fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.state.lock().expect("latch lock").panic.take()
    }
}

/// Blocks until the latch drains — including when the caller unwinds — so
/// pool jobs can never outlive the stack frame they borrow from. The wait
/// assists (drains queued compute jobs) on both paths, so a scatter whose
/// jobs nobody picked up completes them on the caller's own thread.
struct WaitGuard<'a>(&'a Latch, &'a Arc<PoolShared>);

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        self.1.wait_assisting(self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_serial() {
        assert!(Parallelism::default().is_serial());
        assert_eq!(Parallelism::serial().threads(), 1);
        assert_eq!(Parallelism::new(0).threads(), 1);
        assert_eq!(Parallelism::new(4).threads(), 4);
        assert!(Parallelism::available().threads() >= 1);
    }

    #[test]
    fn split_divides_the_budget() {
        assert_eq!(Parallelism::new(8).split(4).threads(), 2);
        assert_eq!(Parallelism::new(4).split(8).threads(), 1);
        assert_eq!(Parallelism::new(4).split(0).threads(), 4);
    }

    #[test]
    fn shard_ranges_cover_contiguously_and_balance() {
        for (len, shards) in [(10, 3), (3, 10), (0, 4), (7, 1), (16, 4)] {
            let ranges = Parallelism::shard_ranges(len, shards);
            assert_eq!(ranges.len(), shards.max(1));
            let mut next = 0usize;
            for &(start, chunk) in &ranges {
                assert_eq!(start, next);
                next += chunk;
            }
            assert_eq!(next, len);
            let max = ranges.iter().map(|r| r.1).max().unwrap();
            let min = ranges.iter().map(|r| r.1).min().unwrap();
            assert!(max - min <= 1, "unbalanced: {ranges:?}");
        }
    }

    #[test]
    fn never_more_ranges_than_items() {
        assert_eq!(Parallelism::new(8).ranges_for(3).len(), 3);
        assert_eq!(Parallelism::new(8).ranges_for(0).len(), 1);
        assert_eq!(Parallelism::new(2).ranges_for(100).len(), 2);
    }

    #[test]
    fn adaptive_width_is_serial_below_the_floor() {
        let _force = ForcePoolDispatch::new();
        let par = Parallelism::new(4);
        assert_eq!(par.adaptive_width(0), 1);
        assert_eq!(par.adaptive_width(ADAPTIVE_INLINE_FLOOR - 1), 1);
        assert_eq!(par.adaptive_ranges(17).len(), 1);
        // A serial budget never fans out, whatever the size.
        assert_eq!(Parallelism::serial().adaptive_width(1 << 20), 1);
    }

    #[test]
    fn adaptive_width_reaches_full_budget_at_or_above_the_mean() {
        let _force = ForcePoolDispatch::new();
        let par = Parallelism::new(4);
        // The running mean can never exceed the largest scatter ever
        // recorded, so the largest-so-far size always gets the full budget
        // (counters are process-global; this holds under concurrent tests).
        let huge = 1usize << 40;
        assert_eq!(par.adaptive_width(huge), 4);
        let ranges = par.adaptive_ranges(huge);
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges.iter().map(|r| r.1).sum::<usize>(), huge);
    }

    #[test]
    fn adaptive_width_stays_within_bounds_and_feeds_the_obs_mean() {
        let _force = ForcePoolDispatch::new();
        let par = Parallelism::new(8);
        let calls0 = obs::counter_value(obs::Counter::AdaptiveScatterCalls);
        for len in [0usize, 100, 3000, 50_000, 1 << 22] {
            let w = par.adaptive_width(len);
            assert!((1..=8).contains(&w), "width {w} for len {len}");
            if len < ADAPTIVE_INLINE_FLOOR {
                assert_eq!(w, 1);
            }
        }
        let calls1 = obs::counter_value(obs::Counter::AdaptiveScatterCalls);
        assert!(calls1 >= calls0 + 5, "every decision feeds the mean");
    }

    #[test]
    fn adaptive_ranges_produce_identical_results_to_serial() {
        let _force = ForcePoolDispatch::new();
        let par = Parallelism::new(4);
        let len = ADAPTIVE_INLINE_FLOOR * 3 + 17;
        let ranges = par.adaptive_ranges(len);
        let sums = par.run_shards(&ranges, |start, l| {
            (start as u64..(start + l) as u64).sum::<u64>()
        });
        assert_eq!(sums.iter().sum::<u64>(), (0..len as u64).sum::<u64>());
    }

    #[test]
    fn spawn_pool_job_runs_detached() {
        let _force = ForcePoolDispatch::new();
        let (tx, rx) = std::sync::mpsc::channel::<usize>();
        for i in 0..10usize {
            let tx = tx.clone();
            spawn_pool_job(2, true, move || {
                tx.send(i).unwrap();
            });
        }
        drop(tx);
        let mut got: Vec<usize> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn spawn_pool_job_contains_panics_and_pool_survives() {
        let _force = ForcePoolDispatch::new();
        spawn_pool_job(2, true, || panic!("injected handler panic"));
        let (tx, rx) = std::sync::mpsc::channel::<u32>();
        spawn_pool_job(2, true, move || tx.send(7).unwrap());
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(30)),
            Ok(7),
            "pool must stay serviceable after a panicking spawned job"
        );
    }

    #[test]
    fn map_items_preserves_order_under_parallelism() {
        let serial: Vec<usize> = Parallelism::serial().map_items(100, |i| i * i);
        let parallel: Vec<usize> = Parallelism::new(4).map_items(100, |i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 100);
        assert_eq!(serial[7], 49);
    }

    #[test]
    fn run_shards_gathers_in_range_order() {
        let ranges = Parallelism::shard_ranges(11, 4);
        let sums = Parallelism::new(4)
            .run_shards(&ranges, |start, len| (start..start + len).sum::<usize>());
        assert_eq!(sums.iter().sum::<usize>(), (0..11).sum::<usize>());
        assert_eq!(sums.len(), 4);
    }

    #[test]
    fn pool_workers_are_reused_across_many_scatters() {
        // Dispatch for real even on a 1-core host: this test is about
        // the pool machinery, not the inline fallback.
        let _force = ForcePoolDispatch::new();
        let par = Parallelism::new(3);
        for round in 0..200usize {
            let out = par.map_items(7, move |i| i * 2 + round);
            let expected: Vec<usize> = (0..7).map(|i| i * 2 + round).collect();
            assert_eq!(out, expected);
        }
    }

    #[test]
    fn shard_panic_propagates_and_pool_survives() {
        // Dispatch for real even on a 1-core host: this test is about
        // the pool machinery, not the inline fallback.
        let _force = ForcePoolDispatch::new();
        let par = Parallelism::new(4);
        let result = std::panic::catch_unwind(|| {
            par.map_items(8, |i| {
                if i == 5 {
                    panic!("shard blew up");
                }
                i
            })
        });
        assert!(result.is_err(), "panic must cross the pool boundary");
        // The pool is still serviceable after a panicking scatter.
        assert_eq!(par.map_items(4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn nested_scatters_do_not_deadlock() {
        // Dispatch for real even on a 1-core host: this test is about
        // the pool machinery, not the inline fallback.
        let _force = ForcePoolDispatch::new();
        let par = Parallelism::new(2);
        let out = par.map_ranges(4, |start, len| {
            Parallelism::new(2)
                .map_items(3, |i| i + start + len)
                .into_iter()
                .sum::<usize>()
        });
        assert!(out.iter().sum::<usize>() > 0);
        assert_eq!(out.len(), 2);
    }

    /// A one-way gate a test can park shard closures on.
    struct Gate {
        open: Mutex<bool>,
        cv: Condvar,
    }

    impl Gate {
        fn new() -> Self {
            Gate {
                open: Mutex::new(false),
                cv: Condvar::new(),
            }
        }

        fn wait(&self) {
            let mut open = self.open.lock().unwrap();
            while !*open {
                open = self.cv.wait(open).unwrap();
            }
        }

        fn open(&self) {
            *self.open.lock().unwrap() = true;
            self.cv.notify_all();
        }
    }

    #[test]
    fn may_block_scatter_returns_ordered_results() {
        // Dispatch for real even on a 1-core host: this test is about
        // the pool machinery, not the inline fallback.
        let _force = ForcePoolDispatch::new();
        let par = Parallelism::new(4);
        let out = par.map_items_may_block(9, |i| i * 3);
        assert_eq!(out, (0..9).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn assist_drains_compute_jobs_while_workers_are_parked() {
        // Dispatch for real even on a 1-core host: this test is about
        // the pool machinery, not the inline fallback.
        let _force = ForcePoolDispatch::new();
        // One worker thread (budget 2). A may-block scatter parks that
        // worker (and its own caller) on a gate; a second, unrelated
        // compute scatter must still complete: without the work-stealing
        // assist its dispatched jobs would sit behind the parked worker
        // forever, with it the caller drains them inline.
        let gate = Arc::new(Gate::new());
        let started = Arc::new(Gate::new());
        let parked = {
            let gate = Arc::clone(&gate);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                let par = Parallelism::new(2);
                par.run_shards_may_block(&[(0usize, 1usize), (1, 1)], |start, _| {
                    started.open();
                    gate.wait();
                    start
                })
            })
        };
        // Wait until at least one parked shard is actually running.
        started.wait();
        // The unrelated compute scatter completes while the pool is stuck.
        let out = Parallelism::new(2).map_items(6, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
        gate.open();
        assert_eq!(parked.join().unwrap(), vec![0, 1]);
    }

    #[test]
    fn caller_completes_its_own_jobs_when_no_worker_picks_them_up() {
        // Dispatch for real even on a 1-core host: this test is about
        // the pool machinery, not the inline fallback.
        let _force = ForcePoolDispatch::new();
        // Park the pool's workers on may-block jobs, then issue a compute
        // scatter from a fresh caller: its dispatched shards can only run
        // via the caller's own assist.
        let gate = Arc::new(Gate::new());
        let started = Arc::new(Gate::new());
        let parked: Vec<_> = (0..2)
            .map(|_| {
                let gate = Arc::clone(&gate);
                let started = Arc::clone(&started);
                std::thread::spawn(move || {
                    let par = Parallelism::new(3);
                    par.run_shards_may_block(&[(0usize, 1usize), (1, 1)], |start, _| {
                        started.open();
                        gate.wait();
                        start
                    })
                })
            })
            .collect();
        started.wait();
        let sums = Parallelism::new(3).map_ranges(12, |start, len| {
            (start..start + len).map(|i| i * i).sum::<usize>()
        });
        assert_eq!(
            sums.iter().sum::<usize>(),
            (0..12).map(|i| i * i).sum::<usize>()
        );
        gate.open();
        for handle in parked {
            assert_eq!(handle.join().unwrap(), vec![0, 1]);
        }
    }

    /// Wait until every dispatched pool job has been accounted for by a
    /// worker or a stealing assist. Counters are process-global and other
    /// tests scatter concurrently, so the invariant is asserted at
    /// quiescence (with a generous deadline) rather than as an exact delta.
    fn wait_for_pool_quiescence() {
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        loop {
            let dispatched = obs::counter_value(obs::Counter::PoolJobsDispatched);
            let executed = obs::counter_value(obs::Counter::PoolJobsExecuted);
            let assists = obs::counter_value(obs::Counter::PoolStealAssists);
            assert!(
                executed + assists <= dispatched,
                "a job was executed that was never dispatched: \
                 {executed} + {assists} > {dispatched}"
            );
            if executed + assists == dispatched {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "pool never quiesced: dispatched={dispatched} executed={executed} \
                 assists={assists}"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn pool_counters_account_for_every_dispatched_job() {
        // Dispatch for real even on a 1-core host: this test is about
        // the pool machinery, not the inline fallback.
        let _force = ForcePoolDispatch::new();
        let par = Parallelism::new(3);
        let before = obs::counter_value(obs::Counter::PoolJobsDispatched);
        for round in 0..20usize {
            let out = par.map_items(6, move |i| i + round);
            assert_eq!(out, (0..6).map(|i| i + round).collect::<Vec<_>>());
        }
        // map_items(6) over 3 threads dispatches 2 of its 3 ranges per
        // scatter; concurrent tests can only add more.
        let after = obs::counter_value(obs::Counter::PoolJobsDispatched);
        assert!(after >= before + 40, "dispatched {before} -> {after}");
        wait_for_pool_quiescence();
    }

    #[test]
    fn queue_wait_is_recorded_when_enabled_and_monotone() {
        // Dispatch for real even on a 1-core host: this test is about
        // the pool machinery, not the inline fallback.
        let _force = ForcePoolDispatch::new();
        let par = Parallelism::new(3);
        let count0 = obs::stage_count(obs::Stage::QueueWait);
        let total0 = obs::stage_total_ns(obs::Stage::QueueWait);
        obs::set_enabled(true);
        for round in 0..5usize {
            let _ = par.map_items(6, move |i| i * round);
        }
        obs::set_enabled(false);
        // Every job enqueued while timing was on records one wait span:
        // 5 scatters × 2 dispatched ranges, plus whatever concurrent tests
        // added — the histogram only ever grows.
        let count1 = obs::stage_count(obs::Stage::QueueWait);
        let total1 = obs::stage_total_ns(obs::Stage::QueueWait);
        assert!(
            count1 >= count0 + 10,
            "queue-wait count {count0} -> {count1}"
        );
        assert!(total1 >= total0, "queue-wait total must be monotone");
        // Further (untimed) scatters never decrease the histogram.
        let _ = par.map_items(6, |i| i);
        assert!(obs::stage_count(obs::Stage::QueueWait) >= count1);
        assert!(obs::stage_total_ns(obs::Stage::QueueWait) >= total1);
    }

    #[test]
    fn concurrent_scatters_share_the_pool() {
        // Dispatch for real even on a 1-core host: this test is about
        // the pool machinery, not the inline fallback.
        let _force = ForcePoolDispatch::new();
        // Several OS threads scattering at once must all complete with
        // correct, ordered results (jobs from different scatters interleave
        // in the shared queue).
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let par = Parallelism::new(3);
                    for round in 0..50usize {
                        let out = par.map_items(5, move |i| i * 10 + t + round);
                        let expected: Vec<usize> = (0..5).map(|i| i * 10 + t + round).collect();
                        assert_eq!(out, expected);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("concurrent scatter thread");
        }
    }
}
