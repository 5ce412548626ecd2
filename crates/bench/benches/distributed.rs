//! Distributed execution baseline: view scans, hierarchy aggregates and a
//! full recommendation computed through real worker sockets, against the
//! serial and in-process-sharded references.
//!
//! **Exactness first**: before anything is timed, every remote result is
//! asserted bit-identical (`==`) to serial — a wire path that merely
//! *approximates* the in-process answer must fail here, not ship skewed
//! numbers. Only then does the measured section run.
//!
//! Writes `BENCH_distributed.json` at the repository root. The `distributed`
//! extras section records the coordinator-observed wire accounting (RPCs,
//! bytes shipped, overlapped merges, worker-side gram and E-step partials)
//! and the remote-over-serial median overhead per layer — on localhost the
//! wire adds serialization + loopback latency, so the overhead ratio is
//! the honest headline, not a speedup.
//!
//! Two pipeline properties are asserted and exported as counters: the
//! scatter/merge path folds partials while later replies are still in
//! flight (non-zero `remote_overlapped_merges`, made deterministic with a
//! delayed loopback fleet), and the remote recommendation fits its model
//! on the coordinator (zero `remote_gram_partials` and
//! `remote_e_step_partials`). Fit exactness under `Exec::Remote` is the
//! `distributed_exactness` test's.

use reptile::{Complaint, Direction, Reptile, ReptileConfig};
use reptile_bench::{
    baseline_json, json_f64_map, print_bench_table, run_bench, write_baseline, BenchArgs,
};
use reptile_factor::encoded::EncodedHierarchyAggregates;
use reptile_factor::{EncodedFactor, HierarchyFactor};
use reptile_relational::{
    AggregateKind, Exec, GroupKey, Predicate, Relation, Remote, Schema, Value, View,
};
use reptile_wire::testing::LoopbackWorkers;
use reptile_wire::WorkerSet;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

/// Districts x villages x days with one faulty village, sized by `days`.
fn dataset(days: i64) -> (Arc<Relation>, Arc<Schema>) {
    let schema = Arc::new(
        Schema::builder()
            .hierarchy("geo", ["district", "village"])
            .hierarchy("time", ["day"])
            .measure("reports")
            .build()
            .unwrap(),
    );
    let mut b = Relation::builder(schema.clone());
    for day in 0..days {
        for d in 0..6 {
            for v in 0..8 {
                let faulty = d == 2 && v == 5 && day == 1;
                b = b
                    .row([
                        Value::str(format!("D{d}")),
                        Value::str(format!("D{d}-V{v}")),
                        Value::int(day),
                        Value::float(
                            22.0 + d as f64 * 1.5 + v as f64 * 0.3 + day as f64 * 0.05
                                - if faulty { 16.0 } else { 0.0 },
                        ),
                    ])
                    .unwrap();
            }
        }
    }
    (Arc::new(b.build()), schema)
}

/// Start `n` in-process workers on ephemeral ports (full wire path over
/// loopback sockets) and connect a transport to them.
fn start_workers(n: usize) -> (Arc<WorkerSet>, Exec) {
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker");
        addrs.push(listener.local_addr().expect("worker addr").to_string());
        std::thread::spawn(move || {
            let _ = reptile_wire::worker::serve(listener);
        });
    }
    let set = WorkerSet::connect(&addrs).expect("connect workers");
    let exec = Exec::Remote(Remote::new(set.clone()));
    (set, exec)
}

fn main() {
    let args = BenchArgs::parse();
    let days = if args.smoke { 4 } else { 16 };
    let workers = 2usize;
    let (rel, schema) = dataset(days);
    let (set, remote) = start_workers(workers);

    let district = schema.attr("district").unwrap();
    let day = schema.attr("day").unwrap();
    let reports = schema.attr("reports").unwrap();
    let geo = schema.hierarchies().first().unwrap();
    let group_by = vec![district, day];

    let compute_view = |exec: &Exec| {
        View::compute(
            rel.clone(),
            Predicate::all(),
            group_by.clone(),
            reports,
            exec,
        )
        .unwrap()
    };
    let enc = EncodedFactor::encode(
        &HierarchyFactor::from_relation(&rel, geo, geo.levels.len()),
        &Exec::Serial,
    );
    let complaint = Complaint::new(
        GroupKey(vec![Value::str("D2"), Value::int(1)]),
        AggregateKind::Mean,
        Direction::TooLow,
    );
    let serial_engine = Reptile::new(rel.clone(), schema.clone());
    let remote_engine = Reptile::new(rel.clone(), schema.clone()).with_config(ReptileConfig {
        exec: remote.clone(),
        ..Default::default()
    });

    // ---- Exactness before timing -------------------------------------
    let serial_view = compute_view(&Exec::Serial);
    assert_eq!(
        serial_view,
        compute_view(&Exec::Shards(workers)),
        "sharded view must equal serial"
    );
    assert_eq!(
        serial_view,
        compute_view(&remote),
        "remote view must equal serial"
    );
    assert_eq!(
        EncodedHierarchyAggregates::compute(&enc, &Exec::Serial),
        EncodedHierarchyAggregates::compute(&enc, &remote),
        "remote aggregates must equal serial"
    );
    let serial_rec = serial_engine.recommend(&serial_view, &complaint).unwrap();
    let remote_rec = remote_engine.recommend(&serial_view, &complaint).unwrap();
    assert_eq!(
        serial_rec.ranked.len(),
        remote_rec.ranked.len(),
        "remote recommendation must equal serial"
    );
    for (a, b) in serial_rec.ranked.iter().zip(&remote_rec.ranked) {
        assert_eq!(a.key, b.key);
        assert_eq!(a.improvement.to_bits(), b.improvement.to_bits());
        assert_eq!(a.penalty.to_bits(), b.penalty.to_bits());
    }
    // Overlapped pipeline, made deterministic: a loopback fleet whose
    // replies arrive in ascending stagger forces the in-order merge to
    // fold early partials while later ones are still outstanding.
    let overlaps_before = reptile_obs::counter_value(reptile_obs::Counter::RemoteOverlappedMerges);
    let staggered = Remote::new(Arc::new(LoopbackWorkers::new(vec![
        Duration::ZERO,
        Duration::from_millis(5),
        Duration::from_millis(10),
    ])));
    assert_eq!(
        EncodedHierarchyAggregates::compute(&enc, &Exec::Serial),
        EncodedHierarchyAggregates::compute_remote(&enc, &staggered).unwrap(),
        "overlapped merge must equal serial"
    );
    let overlapped_merges =
        reptile_obs::counter_value(reptile_obs::Counter::RemoteOverlappedMerges) - overlaps_before;
    assert!(
        overlapped_merges >= 2,
        "staggered replies must produce overlapped merges, got {overlapped_merges}"
    );

    let fallbacks = reptile_obs::counter_value(reptile_obs::Counter::RemoteFallbacks);
    assert_eq!(
        fallbacks, 0,
        "exactness ran through the wire, not a local fallback"
    );
    println!(
        "exactness: remote == sharded == serial for views, aggregates, recommendation ({} rows, {overlapped_merges} overlapped merges)",
        rel.len()
    );

    args.apply_profile();
    let rpcs_before = reptile_obs::counter_value(reptile_obs::Counter::RemoteRpcs);
    let bytes_before = reptile_obs::counter_value(reptile_obs::Counter::RemoteBytesShipped);
    let gram_before = reptile_obs::counter_value(reptile_obs::Counter::RemoteGramPartials);
    let e_step_before = reptile_obs::counter_value(reptile_obs::Counter::RemoteEStepPartials);

    // ---- Measured section --------------------------------------------
    // Partitions and factor state are already shipped (ship-once), so the
    // remote cases measure the steady state: scatter + worker compute +
    // partial merge per evaluation.
    let all_stats = vec![
        run_bench("view/serial", || compute_view(&Exec::Serial)),
        run_bench(&format!("view/shards/{workers}"), || {
            compute_view(&Exec::Shards(workers))
        }),
        run_bench(&format!("view/remote/{workers}"), || compute_view(&remote)),
        run_bench("aggregates/serial", || {
            EncodedHierarchyAggregates::compute(&enc, &Exec::Serial)
        }),
        run_bench(&format!("aggregates/remote/{workers}"), || {
            EncodedHierarchyAggregates::compute(&enc, &remote)
        }),
        run_bench("recommend/serial", || {
            serial_engine.recommend(&serial_view, &complaint).unwrap()
        }),
        run_bench(&format!("recommend/remote/{workers}"), || {
            remote_engine.recommend(&serial_view, &complaint).unwrap()
        }),
    ];
    print_bench_table("distributed", &all_stats);

    let median = |name: &str| {
        all_stats
            .iter()
            .find(|s| s.name.starts_with(name))
            .map(|s| s.median_s)
            .unwrap_or(f64::NAN)
    };
    let rpcs = reptile_obs::counter_value(reptile_obs::Counter::RemoteRpcs) - rpcs_before;
    let bytes = reptile_obs::counter_value(reptile_obs::Counter::RemoteBytesShipped) - bytes_before;
    let gram_partials =
        reptile_obs::counter_value(reptile_obs::Counter::RemoteGramPartials) - gram_before;
    let e_step_partials =
        reptile_obs::counter_value(reptile_obs::Counter::RemoteEStepPartials) - e_step_before;
    assert!(
        rpcs > 0,
        "the measured section must have scattered remotely"
    );
    assert_eq!(
        [gram_partials, e_step_partials],
        [0, 0],
        "the measured recommendations must have fitted on the coordinator"
    );
    assert_eq!(
        reptile_obs::counter_value(reptile_obs::Counter::RemoteFallbacks),
        0,
        "zero remote fallbacks allowed"
    );

    let extras = [(
        "distributed",
        json_f64_map(&[
            ("workers".to_string(), workers as f64),
            ("rows".to_string(), rel.len() as f64),
            (
                "view_remote_overhead_x".to_string(),
                median("view/remote") / median("view/serial"),
            ),
            (
                "aggregates_remote_overhead_x".to_string(),
                median("aggregates/remote") / median("aggregates/serial"),
            ),
            (
                "recommend_remote_overhead_x".to_string(),
                median("recommend/remote") / median("recommend/serial"),
            ),
            ("remote_rpcs".to_string(), rpcs as f64),
            ("remote_bytes_shipped".to_string(), bytes as f64),
            (
                "remote_overlapped_merges".to_string(),
                overlapped_merges as f64,
            ),
            ("remote_gram_partials".to_string(), gram_partials as f64),
            ("remote_e_step_partials".to_string(), e_step_partials as f64),
        ]),
    )];

    set.shutdown().expect("shutdown workers");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_distributed.json");
    write_baseline(path, &baseline_json(&all_stats, &extras), args.force)
        .expect("write BENCH_distributed.json");
    println!("\nwrote {path}");
}
