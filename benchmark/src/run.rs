//! One run of one workload: set-up, the timed section, the output checks,
//! and — traced — the per-layer attribution.
//!
//! An untraced run yields the end-to-end metrics. A traced run spends half
//! of its time budget on the op list, alternating untraced slices with
//! slices that have the benchmark's spans and the program's own stage
//! timers armed (the ratio of the two medians is the tracing overhead), and
//! then probes every layer. End-to-end numbers never come from a traced run.

use crate::layers::{self, Counters};
use crate::metrics::{Report, END_TO_END, PER_LAYER};
use crate::probes::{self, Reps};
use crate::stats::{self, median, supported_tail};
use crate::trace::Trace;
use crate::workloads::{
    FleetDrill, IngestRefresh, LongShallow, ServeSessions, Timed, WideDeep, Workload,
};
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// A quick check: one set-up and minimal probe repetitions.
    pub smoke: bool,
}

#[derive(Debug, Clone)]
pub struct RunOutcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub report: Report,
    /// What failed, for a human; empty when `correct`.
    pub problems: Vec<String>,
}

/// Set-ups in a measured run: `setup_s` is the median of three.
const SETUP_REPS: usize = 3;

/// Run `args.workload`; `None` for a name the benchmark does not have.
pub fn run(args: &RunArgs) -> Option<RunOutcome> {
    Some(match args.workload.as_str() {
        LongShallow::NAME => drive::<LongShallow>(args),
        WideDeep::NAME => drive::<WideDeep>(args),
        ServeSessions::NAME => drive::<ServeSessions>(args),
        IngestRefresh::NAME => drive::<IngestRefresh>(args),
        FleetDrill::NAME => drive::<FleetDrill>(args),
        _ => return None,
    })
}

/// Where trace files go: `benchmark/out/` under the checkout root the
/// program is run from (or `out/` when run from the package directory).
pub fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn drive<W: Workload>(args: &RunArgs) -> RunOutcome {
    let mut problems = Vec::new();
    let mut report = Report::default();

    // Set up several times; every instance but the last is finished (its
    // teardown checks still count) before the next set-up is timed.
    let mut setup_s = Vec::new();
    let mut workload = None;
    let setups = if args.smoke { 1 } else { SETUP_REPS };
    for _ in 0..setups {
        if let Some(previous) = workload.take() {
            problems.extend(W::finish(previous));
        }
        let t0 = Instant::now();
        workload = Some(W::setup(args.seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");
    let budget = Duration::from_secs_f64(args.seconds);

    let timed = if args.traced {
        let timed = traced(&mut workload, budget, args, &mut report, &mut problems);
        problems.extend(workload.finish());
        timed
    } else {
        let timed = workload.run(budget, &mut Trace::disabled());
        problems.extend(workload.finish());
        report.set("setup_s", median(&setup_s));
        report.set("op_p50_ms", median(&timed.latencies_ms));
        report.set("ops_per_s", timed.correct_ops() as f64 / timed.wall_s);
        report.set("peak_rss_mb", stats::process_peak_rss_mb());
        timed
    };

    let expected = if args.traced { PER_LAYER } else { END_TO_END };
    problems.extend(report.problems(expected.iter().map(|m| (m.name, m.unit))));
    problems.extend(timed.failures);
    RunOutcome {
        // a run-level problem (a ledger not conserved, a metric not
        // measured) fails the run without being a failed op
        correct: timed.failed == 0 && problems.is_empty(),
        attempted: timed.attempted,
        failed: timed.failed,
        report,
        problems,
    }
}

fn traced<W: Workload>(
    workload: &mut W,
    budget: Duration,
    args: &RunArgs,
    report: &mut Report,
    problems: &mut Vec<String>,
) -> Timed {
    // Half of the budget on the op list, in alternating untraced and traced
    // slices (of at least one op); the layer probes take the rest of the
    // run. The workloads keep state across ops (sessions and caches warm,
    // the ingested relation grows), so two halves run one after the other
    // would differ by their position in the op list as much as by the
    // tracing.
    let slice = budget / 16;
    let (mut untraced, mut timed) = (Timed::default(), Timed::default());
    let mut counted = Counters::default();
    let mut trace = Trace::new();
    let start = Instant::now();
    while start.elapsed() < budget / 2 {
        untraced.absorb(workload.run(slice, &mut Trace::disabled()));
        layers::set_stage_timers(true);
        let before = Counters::capture();
        timed.absorb(workload.run(slice, &mut trace));
        counted = counted.plus(&Counters::capture().since(&before));
        layers::set_stage_timers(false);
    }
    // the probes' engines arm their own timers; this is the global switch
    layers::set_stage_timers(true);

    let ops = timed.attempted as f64;
    let (tail_pct, tail_ms) = supported_tail(&timed.latencies_ms);
    report.set("client.op_p95_ms", tail_ms);
    report.set("client.tail_pct", tail_pct);
    report.set(
        "client.op_max_ms",
        timed.latencies_ms.iter().copied().fold(0.0, f64::max),
    );
    report.set("client.cpu_ms_per_op", timed.cpu_s * 1e3 / ops);
    report.set("client.samples", ops);
    report.set(
        "obs.trace_overhead_x",
        median(&timed.latencies_ms) / median(&untraced.latencies_ms),
    );
    let per_op_ms = |ns: u64| ns as f64 / 1e6 / ops;
    report.set("obs.scan_ms_per_op", per_op_ms(counted.scan_ns));
    report.set("obs.merge_ms_per_op", per_op_ms(counted.merge_ns));
    report.set("obs.encode_ms_per_op", per_op_ms(counted.encode_ns));
    report.set(
        "obs.design_build_ms_per_op",
        per_op_ms(counted.design_build_ns),
    );
    report.set("obs.solve_ms_per_op", per_op_ms(counted.solve_ns));
    report.set("obs.e_step_ms_per_op", per_op_ms(counted.e_step_ns));
    report.set(
        "relational.rows_tested_per_op",
        counted.rows_tested as f64 / ops,
    );
    report.set(
        "relational.runs_skipped_per_op",
        counted.runs_skipped as f64 / ops,
    );
    report.set(
        "relational.shards_pruned_per_op",
        counted.shards_pruned as f64 / ops,
    );
    report.set("factor.recomputed_per_op", timed.recomputed as f64 / ops);
    report.set("factor.reused_per_op", timed.reused as f64 / ops);
    report.set(
        "factor.delta_patched_per_op",
        timed.delta_patched as f64 / ops,
    );

    let reps = if args.smoke { Reps::SMOKE } else { Reps::FULL };
    problems.extend(probes::run_all(
        &workload.probe_context(),
        &reps,
        &mut trace,
        report,
    ));
    layers::set_stage_timers(false);

    let path = out_dir().join(format!("trace-{}.jsonl", args.workload));
    if let Err(error) = trace.write_jsonl(&path) {
        problems.push(format!("writing {}: {error}", path.display()));
    }

    // Failures of the untraced half count too.
    timed.absorb(untraced);
    timed
}
