//! The layer probes of a traced run: every layer measured from outside, by
//! timing calls into its public functions (through [`crate::layers`]), in
//! the workload's own context — its panel, its execution context, a prefix
//! of its request stream. Every traced run probes every layer, so a
//! regression in a layer the workload's op barely touches is still visible
//! from that workload; the README says which rows each workload's
//! end-to-end metrics should follow.
//!
//! Each probe records its calls as spans of the run's trace (ops numbered
//! from [`PROBE_OP_BASE`]) and writes medians into the report.

use crate::layers::{self, Counters, Fleet, Request};
use crate::metrics::Report;
use crate::panel::Feed;
use crate::stats::median;
use crate::trace::Trace;
use crate::workloads::{ProbeContext, FLEET_WORKERS};
use reptile_relational::{AggregateKind, Exec};
use std::time::{Duration, Instant};

/// Probe spans carry op ids from here up, apart from the workload's own.
pub const PROBE_OP_BASE: u64 = 1_000_000;

/// How many repetitions each probe makes.
#[derive(Debug, Clone, Copy)]
pub struct Reps {
    /// Requests replayed call by call through the engine's layers.
    pub engine_ops: usize,
    /// Warm `Session::recommend` calls.
    pub session_hits: usize,
    /// Requests replayed through `BatchServer::serve_one` (at most), and how
    /// many of them again through the front door.
    pub in_process: usize,
    pub served: usize,
    pub pings: usize,
    /// Ingest batches (appends and corrections alternate).
    pub batches: usize,
    /// Alternating serial/pooled view scans.
    pub pool_pairs: usize,
    /// Remote ops, and the time after which no further one is started.
    pub remote_ops: usize,
    pub remote_budget: Duration,
}

impl Reps {
    pub const FULL: Reps = Reps {
        engine_ops: 3,
        session_hits: 50,
        in_process: 1000,
        served: 24,
        pings: 32,
        batches: 4,
        pool_pairs: 20,
        remote_ops: 4,
        remote_budget: Duration::from_secs(6),
    };

    pub const SMOKE: Reps = Reps {
        engine_ops: 1,
        session_hits: 5,
        in_process: 8,
        served: 4,
        pings: 4,
        batches: 2,
        pool_pairs: 2,
        remote_ops: 1,
        remote_budget: Duration::from_secs(1),
    };
}

/// The first `n` distinct requests of the stream.
fn distinct(requests: &[Request], n: usize) -> Vec<&Request> {
    let mut out: Vec<&Request> = Vec::new();
    for request in requests {
        if out.len() < n && !out.contains(&request) {
            out.push(request);
        }
    }
    out
}

/// Run every probe. Returns what went wrong; empty when sound.
pub fn run_all(
    ctx: &ProbeContext,
    reps: &Reps,
    trace: &mut Trace,
    report: &mut Report,
) -> Vec<String> {
    let mut problems = Vec::new();
    let mut next_op = PROBE_OP_BASE;
    problems.extend(engine(ctx, reps, trace, report, &mut next_op));
    session_and_serve(ctx, reps, trace, report, &mut next_op, &mut problems);
    ingest(ctx, reps, trace, report, &mut next_op);
    pool(ctx, reps, trace, report, &mut next_op);
    wire(ctx, reps, trace, report, &mut next_op, &mut problems);
    problems
}

/// relational / factor / model / linalg / core: each sampled request first
/// runs whole (`core.recommend`), then is replayed as the sequence of
/// public calls the engine makes — per candidate hierarchy: drill scan,
/// parallel scan, design build, fit, predict. `core.self_ms` is the whole
/// minus what the replayed children cover (prediction maps, scoring,
/// ranking, glue). If the children add up to more than the whole plus a
/// tenth, the replay is no longer what the engine does and the run fails.
fn engine(
    ctx: &ProbeContext,
    reps: &Reps,
    trace: &mut Trace,
    report: &mut Report,
    next_op: &mut u64,
) -> Option<String> {
    let schema = ctx.relation.schema().clone();
    let exec = &ctx.exec;
    let (mut whole_ms, mut children_ms, mut gram_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut shape = (0, 0, 0);
    let mut iterations = 0;
    let first_op = *next_op;
    let sampled = distinct(&ctx.requests, reps.engine_ops);
    for request in sampled.iter().cycle().take(reps.engine_ops) {
        let op = *next_op;
        *next_op += 1;
        let complaint = request.complaint();
        let root = trace.begin(op, "probe.engine", None);
        let engine = layers::engine(&ctx.relation, exec, true);
        let (view, _) = trace.span(op, "relational.view_scan", Some(root), || {
            layers::view_scan(&ctx.relation, request, exec)
        });
        let (answer, whole) = trace.span(op, "core.recommend", Some(root), || {
            layers::recommend(&engine, &view, &complaint)
        });
        answer.unwrap_or_else(|e| panic!("probe recommend failed: {e}"));
        whole_ms.push(whole);

        // For spread complaints the engine also fits the group means.
        let statistics: &[AggregateKind] = match request.statistic {
            s @ (AggregateKind::Std | AggregateKind::Var) => &[s, AggregateKind::Mean][..],
            ref s => std::slice::from_ref(s),
        };
        let hierarchies = layers::candidates(&schema, &view);
        let replay = trace.begin(op, "core.recommend.replay", Some(root));
        let per_thread = trace.fork();
        let evaluated = layers::hierarchy_fanout(exec, hierarchies.len(), |h| {
            let mut trace = per_thread.fork();
            let hierarchy = &hierarchies[h];
            trace.span(op, "relational.drill_scan", None, || {
                layers::drill_scan(&view, &complaint.key, hierarchy, exec)
            });
            let (parallel, _) = trace.span(op, "relational.parallel_scan", None, || {
                layers::parallel_scan(&view, hierarchy, exec)
            });
            let mut designs = Vec::new();
            let mut iterations = 0;
            for &statistic in statistics {
                let (design, _) = trace.span(op, "model.design_build", None, || {
                    layers::design_build(&parallel, &schema, statistic, exec)
                });
                let (model, _) = trace.span(op, "model.fit", None, || layers::fit(&design, exec));
                trace.span(op, "model.predict", None, || {
                    layers::predict(&model, &design, exec)
                });
                iterations = layers::em_iterations(&model);
                designs.push(design);
            }
            (trace, designs, iterations)
        });
        let replayed = trace.end(replay);
        let mut designs = Vec::new();
        for (thread_trace, thread_designs, thread_iterations) in evaluated {
            trace.absorb(thread_trace, Some(replay));
            designs.extend(thread_designs);
            iterations = thread_iterations;
        }
        // what the replayed calls cover (concurrent ones once), without the
        // replay's own glue
        children_ms.push(replayed - trace.self_ns(replay) as f64 / 1e6);

        // Inside the design build and the fit in the engine; timed on their
        // own here, beside the replay.
        let widest = designs
            .iter()
            .max_by_key(|d| layers::design_shape(d).0)
            .expect("a drillable hierarchy");
        shape = layers::design_shape(widest);
        for design in &designs {
            let (encoded, _) = trace.span(op, "factor.encode", Some(root), || {
                layers::encode(design, exec)
            });
            trace.span(op, "factor.aggregates", Some(root), || {
                layers::aggregates(&encoded, exec)
            });
        }
        let system = layers::gram_system(shape.2);
        for _ in 0..20 {
            let t0 = Instant::now();
            std::hint::black_box(layers::gram_solve(std::hint::black_box(&system)));
            gram_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        trace.end(root);
    }

    let per_op = |name: &str| median(&trace.per_op_ms(name, first_op));
    report.set("relational.view_scan_ms", per_op("relational.view_scan"));
    report.set("relational.drill_scan_ms", per_op("relational.drill_scan"));
    report.set(
        "relational.parallel_scan_ms",
        per_op("relational.parallel_scan"),
    );
    report.set("model.design_build_ms", per_op("model.design_build"));
    report.set("model.fit_ms", per_op("model.fit"));
    report.set("model.predict_ms", per_op("model.predict"));
    report.set("factor.encode_ms", per_op("factor.encode"));
    report.set("factor.aggregates_ms", per_op("factor.aggregates"));
    report.set("model.design_rows", shape.0 as f64);
    report.set("model.design_clusters", shape.1 as f64);
    report.set("model.em_iterations", iterations as f64);
    report.set("linalg.gram_solve_us", median(&gram_us));
    // request by request: the replay of a request against its own whole
    let self_ms: Vec<f64> = whole_ms
        .iter()
        .zip(&children_ms)
        .map(|(w, c)| w - c)
        .collect();
    let excess: Vec<f64> = whole_ms
        .iter()
        .zip(&children_ms)
        .map(|(w, c)| c / w)
        .collect();
    report.set("core.recommend_ms", median(&whole_ms));
    report.set("core.self_ms", median(&self_ms).max(0.0));
    (median(&excess) > 1.10).then(|| {
        format!(
            "the replayed layer calls take {:.2} times the recommend they replay ({:.1} ms)",
            median(&excess),
            median(&whole_ms)
        )
    })
}

/// session and serve: a warm session key, then the workload's request
/// stream through `BatchServer::serve_one` in process and its head through
/// the front door over TCP. The door's overhead is the median difference,
/// request by request.
fn session_and_serve(
    ctx: &ProbeContext,
    reps: &Reps,
    trace: &mut Trace,
    report: &mut Report,
    next_op: &mut u64,
    problems: &mut Vec<String>,
) {
    let first = &ctx.requests[0];
    let engine = layers::engine(&ctx.relation, &Exec::Serial, true);
    let view = layers::view_scan(&ctx.relation, first, &Exec::Serial);
    let mut session = layers::session(&engine, view);
    let complaint = first.complaint();
    layers::session_recommend(&mut session, &complaint).expect("session warm-up");
    let mut hit_us = Vec::new();
    for _ in 0..reps.session_hits {
        let op = *next_op;
        *next_op += 1;
        let (answer, ms) = trace.span(op, "session.hit", None, || {
            layers::session_recommend(&mut session, &complaint)
        });
        answer.expect("warm session recommend");
        hit_us.push(ms * 1e3);
    }
    report.set("session.hit_us", median(&hit_us));

    // The whole request stream in process (cache statistics need its
    // working set); its first `served` requests again through the door.
    let list: Vec<&Request> = ctx.requests.iter().take(reps.in_process).collect();

    let batch = layers::batch_server(&layers::engine(&ctx.relation, &Exec::Serial, true));
    let mut serve_one_ms = Vec::new();
    let mut in_process = Vec::new();
    for request in &list {
        let op = *next_op;
        *next_op += 1;
        let (answer, ms) = trace.span(op, "session.serve_one", None, || {
            layers::serve_one(&batch, request)
        });
        in_process.push(answer.expect("serve_one"));
        serve_one_ms.push(ms);
    }
    let caches = layers::batch_caches(&batch);
    report.set("session.serve_one_ms", median(&serve_one_ms));
    report.set("session.view_hit_rate", caches.views.hit_rate());
    report.set("session.model_hit_rate", caches.models.hit_rate());
    report.set("session.evictions", caches.total().evictions as f64);

    let server = layers::server_bind(&layers::engine(&ctx.relation, &Exec::Serial, true));
    let mut client = layers::client_connect(server.local_addr());
    let mut ping_us = Vec::new();
    for _ in 0..reps.pings {
        let op = *next_op;
        *next_op += 1;
        let ((), ms) = trace.span(op, "serve.ping", None, || layers::client_ping(&mut client));
        ping_us.push(ms * 1e3);
    }
    let before = Counters::capture();
    let mut door_ms = Vec::new();
    for (request, expected) in list.iter().zip(&in_process).take(reps.served) {
        let op = *next_op;
        *next_op += 1;
        let (answer, ms) = trace.span(op, "serve.request", None, || {
            layers::client_recommend(&mut client, request)
        });
        door_ms.push(ms);
        if answer.as_ref() != Ok(expected) {
            problems.push(format!(
                "the front door answered {answer:?}, serve_one in process {expected:?}"
            ));
        }
    }
    let waited = Counters::capture().since(&before);
    drop(client);
    let ledger = layers::server_shutdown(server);
    if !ledger.conserved() {
        problems.push(format!(
            "probe server's ledger is not conserved: {ledger:?}"
        ));
    }
    report.set("serve.ping_rtt_us", median(&ping_us));
    // request by request: the same request costs the same compute on both
    // sides, so the difference is the door's
    let overhead_ms: Vec<f64> = door_ms
        .iter()
        .zip(&serve_one_ms)
        .map(|(d, s)| d - s)
        .collect();
    report.set("serve.door_overhead_ms", median(&overhead_ms));
    report.set(
        "serve.queue_wait_us",
        waited.queue_wait_ns as f64 / 1e3 / waited.queue_wait_count.max(1) as f64,
    );
    report.set("serve.admitted", ledger.admitted as f64);
    report.set("serve.completed", ledger.completed as f64);
    report.set("serve.dedup_joined", ledger.dedup_joined as f64);
    report.set("serve.overloaded", ledger.overloaded as f64);
    report.set("serve.rejected", ledger.rejected as f64);
    report.set("serve.protocol_errors", ledger.protocol_errors as f64);
}

/// The write path at three depths, on the panel's own feed: the relation
/// (`Relation::apply`), the engine (`Reptile::ingest`) and a warm session
/// (`Session::ingest`, which also invalidates and refreshes).
fn ingest(
    ctx: &ProbeContext,
    reps: &Reps,
    trace: &mut Trace,
    report: &mut Report,
    next_op: &mut u64,
) {
    // The feed's corrections name rows of the generated snapshot, so these
    // probes start from it rather than from the workload's current one.
    let base = &ctx.panel.relation;
    let standing = &ctx.requests[0];
    let mut feed = Feed::new(&ctx.panel);
    let batches: Vec<_> = (0..reps.batches).map(|_| feed.next_batch()).collect();

    let mut apply_ms = Vec::new();
    let mut snapshot = None;
    for batch in &batches {
        let op = *next_op;
        *next_op += 1;
        let (next, ms) = trace.span(op, "relational.ingest_apply", None, || {
            layers::relation_apply(snapshot.as_ref().unwrap_or(&**base), batch)
        });
        snapshot = Some(next);
        apply_ms.push(ms);
    }
    drop(snapshot);
    report.set("relational.ingest_apply_ms", median(&apply_ms));

    let engine = layers::engine(base, &Exec::Serial, true);
    let mut core_ms = Vec::new();
    for batch in &batches {
        let op = *next_op;
        *next_op += 1;
        let (_, ms) = trace.span(op, "core.ingest", None, || {
            layers::engine_ingest(&engine, batch)
        });
        core_ms.push(ms);
    }
    report.set("core.ingest_ms", median(&core_ms));

    let engine = layers::engine(base, &Exec::Serial, true);
    let view = layers::view_scan(base, standing, &Exec::Serial);
    let mut session = layers::session(&engine, view);
    let complaint = standing.complaint();
    let _ = layers::session_recommend(&mut session, &complaint);
    let mut session_ms = Vec::new();
    for batch in &batches {
        let op = *next_op;
        *next_op += 1;
        let (outcome, ms) = trace.span(op, "session.ingest", None, || {
            layers::session_ingest(&mut session, batch)
        });
        outcome.expect("session ingest");
        session_ms.push(ms);
        let _ = layers::session_recommend(&mut session, &complaint);
    }
    report.set("session.ingest_ms", median(&session_ms));
    report.set(
        "session.invalidations",
        layers::session_caches(&session).invalidations() as f64,
    );
}

/// The shard pool: the complaint view scanned serially and on every core,
/// in alternating pairs (base of the ratio: serial).
fn pool(
    ctx: &ProbeContext,
    reps: &Reps,
    trace: &mut Trace,
    report: &mut Report,
    next_op: &mut u64,
) {
    let request = &ctx.requests[0];
    let pooled_exec = layers::exec_available();
    let (mut serial_ms, mut pooled_ms) = (Vec::new(), Vec::new());
    let mut pooled = Counters::default();
    for _ in 0..reps.pool_pairs {
        let op = *next_op;
        *next_op += 1;
        let (_, ms) = trace.span(op, "relational.view_scan.serial", None, || {
            layers::view_scan(&ctx.relation, request, &Exec::Serial)
        });
        serial_ms.push(ms);
        let before = Counters::capture();
        let (_, ms) = trace.span(op, "relational.view_scan.pooled", None, || {
            layers::view_scan(&ctx.relation, request, &pooled_exec)
        });
        pooled_ms.push(ms);
        pooled = pooled.plus(&Counters::capture().since(&before));
    }
    report.set(
        "relational.pool_speedup_x",
        median(&serial_ms) / median(&pooled_ms),
    );
    let scatters = pooled.pool_scatters + pooled.pool_inline_scatters;
    report.set(
        "relational.pool_inline_share",
        pooled.pool_inline_scatters as f64 / scatters.max(1) as f64,
    );
    report.set(
        "relational.pool_queue_wait_ms_per_op",
        pooled.queue_wait_ns as f64 / 1e6 / reps.pool_pairs as f64,
    );
}

/// wire: a fleet of loopback workers of the probe's own. A view's partitions
/// and EM state ship on its first use, whatever the complained tuple, so
/// the first sampled request of every view runs once before anything is
/// counted; the sum of those runs is `wire.ship_once_s` (what a set-up that
/// warms the fleet pays). Then every sampled request is timed and counted,
/// and the same ops run serially give the base of `wire.overhead_x`.
fn wire(
    ctx: &ProbeContext,
    reps: &Reps,
    trace: &mut Trace,
    report: &mut Report,
    next_op: &mut u64,
    problems: &mut Vec<String>,
) {
    let fleet = Fleet::start(FLEET_WORKERS);
    let remote = fleet.exec().clone();
    let requests = distinct(&ctx.requests, reps.remote_ops);
    let mut op_under = |exec: &Exec, request: &Request, name: &'static str| -> f64 {
        let op = *next_op;
        *next_op += 1;
        let (answer, ms) = trace.span(op, name, None, || {
            let engine = layers::engine(&ctx.relation, exec, true);
            let view = layers::view_scan(&ctx.relation, request, exec);
            layers::recommend(&engine, &view, &request.complaint())
        });
        answer.unwrap_or_else(|e| panic!("{name} failed: {e}"));
        ms
    };

    let before_ship = Counters::capture();
    let mut ship_ms = 0.0;
    for (at, request) in requests.iter().enumerate() {
        if !requests[..at].iter().any(|seen| seen.same_view(request)) {
            ship_ms += op_under(&remote, request, "wire.ship_once");
        }
    }
    report.set("wire.ship_once_s", ship_ms / 1e3);

    let before = Counters::capture();
    let started = Instant::now();
    let mut remote_ms = Vec::new();
    for request in &requests {
        remote_ms.push(op_under(&remote, request, "wire.remote_op"));
        if started.elapsed() >= reps.remote_budget {
            break;
        }
    }
    let counted = Counters::capture();
    let serial_ms: Vec<f64> = requests[..remote_ms.len()]
        .iter()
        .map(|request| op_under(&Exec::Serial, request, "wire.serial_twin"))
        .collect();
    fleet.stop();

    let ops = remote_ms.len() as f64;
    let delta = counted.since(&before);
    report.set("wire.rpcs_per_op", delta.rpcs as f64 / ops);
    report.set("wire.bytes_per_op", delta.bytes_shipped as f64 / ops);
    report.set(
        "wire.gram_partials_per_op",
        delta.gram_partials as f64 / ops,
    );
    report.set(
        "wire.e_step_partials_per_op",
        delta.e_step_partials as f64 / ops,
    );
    report.set(
        "wire.overlapped_merges_per_op",
        delta.overlapped_merges as f64 / ops,
    );
    report.set(
        "wire.remote_merge_ms_per_op",
        delta.remote_merge_ns as f64 / 1e6 / ops,
    );
    // totals, not medians: the sampled requests differ in depth, and the
    // median of a few ops of two kinds sits on whichever kind has one more
    report.set(
        "wire.overhead_x",
        remote_ms.iter().sum::<f64>() / serial_ms.iter().sum::<f64>(),
    );
    let fallbacks = counted.since(&before_ship).fallbacks;
    report.set("wire.fallbacks", fallbacks as f64);
    if fallbacks > 0 {
        problems.push(format!(
            "{fallbacks} remote operations of the wire probe fell back to local execution"
        ));
    }
}
