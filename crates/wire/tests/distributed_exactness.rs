//! Cross-process exactness: the standing `==` property, now across real
//! worker processes.
//!
//! Two `reptile-worker` binaries are spawned; the coordinator ships
//! partitions, scatters view plans, and merges partials. The bar is the
//! workspace's bit-exactness contract: `Exec::Remote` equals
//! `Exec::Shards` equals `Exec::Serial` under `==` — never tolerance — for
//! view scans, the fit and the full end-to-end recommendation, re-verified
//! after an ingest epoch. A remote failure is a typed error, never a
//! silent local fallback, so `RemoteFallbacks` must not move.

use reptile_relational::{
    AggregateKind, Exec, GroupKey, IngestBatch, Predicate, Relation, Remote, Schema, Value, View,
};
use reptile_wire::WorkerSet;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

/// A running worker process; killed on drop so a failing test never leaks
/// a listener.
struct Worker {
    child: Child,
    addr: String,
}

impl Worker {
    fn spawn() -> Worker {
        let mut child = Command::new(env!("CARGO_BIN_EXE_reptile-worker"))
            .args(["--port", "0"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn reptile-worker");
        let stdout = child.stdout.take().expect("worker stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("worker banner");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected worker banner {line:?}"))
            .to_string();
        Worker { child, addr }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_worker_set(n: usize) -> (Vec<Worker>, Exec) {
    let workers: Vec<Worker> = (0..n).map(|_| Worker::spawn()).collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
    let set = WorkerSet::connect(&addrs).expect("connect worker set");
    (workers, Exec::Remote(Remote::new(set)))
}

fn sample_relation() -> Arc<Relation> {
    let schema = Arc::new(
        Schema::builder()
            .hierarchy("geo", ["district", "village"])
            .hierarchy("time", ["year"])
            .measure("m")
            .build()
            .unwrap(),
    );
    let mut b = Relation::builder(schema);
    // Deterministic skew: one faulty village in 2002.
    let mut noise = 17u64;
    for year in [2001i64, 2002, 2003] {
        for d in 0..3 {
            for v in 0..4 {
                noise = noise.wrapping_mul(6364136223846793005).wrapping_add(1);
                let jitter = ((noise >> 33) % 1000) as f64 / 1000.0 - 0.5;
                let value = 10.0 + d as f64 + 0.3 * v as f64 + jitter
                    - if d == 1 && v == 2 && year == 2002 {
                        6.0
                    } else {
                        0.0
                    };
                b = b
                    .row([
                        Value::str(format!("D{d}")),
                        Value::str(format!("D{d}-V{v}")),
                        Value::int(year),
                        Value::float(value),
                    ])
                    .unwrap();
            }
        }
    }
    Arc::new(b.build())
}

fn ingest_epoch(rel: &Arc<Relation>) -> Arc<Relation> {
    // A new district (appended dictionary codes) plus a deletion: the
    // hardest shape for stale-state bugs.
    let batch = IngestBatch::new()
        .insert([
            Value::str("Azz-new"),
            Value::str("Azz-new-V0"),
            Value::int(2002),
            Value::float(3.25),
        ])
        .delete(rel.row(1).to_vec());
    Arc::new(rel.apply(&batch).unwrap())
}

#[test]
fn remote_views_equal_sharded_equal_serial_across_epochs() {
    let fallbacks_before = reptile_obs::counter_value(reptile_obs::Counter::RemoteFallbacks);
    let rpcs_before = reptile_obs::counter_value(reptile_obs::Counter::RemoteRpcs);
    let bytes_before = reptile_obs::counter_value(reptile_obs::Counter::RemoteBytesShipped);
    let (_workers, remote) = spawn_worker_set(2);
    let first = sample_relation();
    let schema = first.schema().clone();
    let district = schema.attr("district").unwrap();
    let village = schema.attr("village").unwrap();
    let year = schema.attr("year").unwrap();
    let m = schema.attr("m").unwrap();
    // Epoch 0, epoch 1, then epoch 0 again: the workers hold one partition
    // per lineage, so going back must re-ship the older snapshot.
    let second = ingest_epoch(&first);
    for (epoch, rel) in [(0, &first), (1, &second), (0, &first)] {
        let group_bys = [vec![district, year], vec![village], vec![]];
        let predicates = [
            Predicate::all(),
            Predicate::eq(district, Value::str("D1")),
            Predicate::eq(village, Value::str("nowhere")),
        ];
        for group_by in &group_bys {
            for predicate in &predicates {
                let serial = View::compute(
                    rel.clone(),
                    predicate.clone(),
                    group_by.clone(),
                    m,
                    &Exec::Serial,
                )
                .unwrap();
                let sharded = View::compute(
                    rel.clone(),
                    predicate.clone(),
                    group_by.clone(),
                    m,
                    &Exec::Shards(2),
                )
                .unwrap();
                let distributed =
                    View::compute(rel.clone(), predicate.clone(), group_by.clone(), m, &remote)
                        .unwrap();
                assert_eq!(serial, sharded, "epoch {epoch}");
                assert_eq!(serial, distributed, "epoch {epoch}");
            }
        }
    }
    assert_eq!(
        reptile_obs::counter_value(reptile_obs::Counter::RemoteFallbacks),
        fallbacks_before,
        "a remote fallback means the wire path broke and was silently papered over"
    );
    assert!(reptile_obs::counter_value(reptile_obs::Counter::RemoteRpcs) > rpcs_before);
    assert!(
        reptile_obs::counter_value(reptile_obs::Counter::RemoteBytesShipped) > bytes_before,
        "the remote views must have crossed the wire"
    );
}

#[test]
fn remote_recommendation_equals_serial_across_epochs() {
    use reptile::{Complaint, Direction, Reptile, ReptileConfig};
    let fallbacks_before = reptile_obs::counter_value(reptile_obs::Counter::RemoteFallbacks);
    let (_workers, remote) = spawn_worker_set(2);
    let rel = sample_relation();
    let schema = rel.schema().clone();
    let view_of = |rel: &Arc<Relation>, exec: &Exec| {
        View::compute(
            rel.clone(),
            Predicate::all(),
            vec![
                schema.attr("district").unwrap(),
                schema.attr("year").unwrap(),
            ],
            schema.attr("m").unwrap(),
            exec,
        )
        .unwrap()
    };
    let complaint = Complaint::new(
        GroupKey(vec![Value::str("D1"), Value::int(2002)]),
        AggregateKind::Mean,
        Direction::TooLow,
    );

    let serial_engine = Reptile::new(rel.clone(), schema.clone());
    let remote_engine = Reptile::new(rel.clone(), schema.clone()).with_config(ReptileConfig {
        exec: remote.clone(),
        ..Default::default()
    });

    for epoch in 0..2 {
        let serial = serial_engine
            .recommend(
                &view_of(&serial_engine.relation(), &Exec::Serial),
                &complaint,
            )
            .unwrap();
        let distributed = remote_engine
            .recommend(&view_of(&remote_engine.relation(), &remote), &complaint)
            .unwrap();
        assert_eq!(serial.original_value, distributed.original_value);
        assert_eq!(serial.ranked.len(), distributed.ranked.len());
        for (a, b) in serial.ranked.iter().zip(&distributed.ranked) {
            assert_eq!(a.hierarchy, b.hierarchy, "epoch {epoch}");
            assert_eq!(a.key, b.key, "epoch {epoch}");
            assert_eq!(a.observed, b.observed, "epoch {epoch} / {}", a.key);
            assert_eq!(a.expected, b.expected, "epoch {epoch} / {}", a.key);
            assert_eq!(
                a.repaired_complaint_value, b.repaired_complaint_value,
                "epoch {epoch} / {}",
                a.key
            );
            assert_eq!(a.penalty, b.penalty, "epoch {epoch} / {}", a.key);
            assert_eq!(a.improvement, b.improvement, "epoch {epoch} / {}", a.key);
        }
        assert!(serial
            .best_group()
            .is_some_and(|g| g.key.to_string().contains("D1-V2")));
        if epoch == 0 {
            // Same ingest on both engines: both advance one epoch.
            let batch = IngestBatch::new()
                .insert([
                    Value::str("Azz-new"),
                    Value::str("Azz-new-V0"),
                    Value::int(2002),
                    Value::float(3.25),
                ])
                .delete(rel.row(1).to_vec());
            serial_engine.ingest(&batch).unwrap();
            remote_engine.ingest(&batch).unwrap();
        }
    }
    assert_eq!(
        reptile_obs::counter_value(reptile_obs::Counter::RemoteFallbacks),
        fallbacks_before,
        "the distributed recommendation silently fell back to local compute"
    );
}

#[test]
fn overlapped_scatter_merges_before_last_worker_reply() {
    use reptile_wire::testing::LoopbackWorkers;
    use std::time::Duration;

    let rel = sample_relation();
    let schema = rel.schema().clone();
    let group_by = vec![
        schema.attr("district").unwrap(),
        schema.attr("village").unwrap(),
    ];
    let m = schema.attr("m").unwrap();
    let view_under = |exec: &Exec| {
        View::compute(rel.clone(), Predicate::all(), group_by.clone(), m, exec).unwrap()
    };
    let serial = view_under(&Exec::Serial);

    // Deterministic overlap: worker 0 (first in fold order) answers
    // immediately, workers 1 and 2 lag far apart. Worker 0's partial MUST
    // fold while two replies are outstanding and worker 1's while one is —
    // two overlapped merges per scatter, by construction.
    let overlaps_before = reptile_obs::counter_value(reptile_obs::Counter::RemoteOverlappedMerges);
    let fallbacks_before = reptile_obs::counter_value(reptile_obs::Counter::RemoteFallbacks);
    let remote = Exec::Remote(Remote::new(Arc::new(LoopbackWorkers::new(vec![
        Duration::ZERO,
        Duration::from_millis(80),
        Duration::from_millis(160),
    ]))));
    assert_eq!(serial, view_under(&remote));
    assert!(
        reptile_obs::counter_value(reptile_obs::Counter::RemoteOverlappedMerges)
            >= overlaps_before + 2,
        "ascending reply delays must produce overlapped merges"
    );

    // Property sweep: random per-worker delay assignments (seeded LCG) must
    // never change the merged bits — buffered out-of-order arrivals replay
    // in worker order whatever the network timing.
    let mut seed = 0xC0FFEE_u64;
    for round in 0..5 {
        let mut delays = Vec::with_capacity(3);
        for _ in 0..3 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            delays.push(Duration::from_millis((seed >> 33) % 50));
        }
        let remote = Exec::Remote(Remote::new(Arc::new(LoopbackWorkers::new(delays.clone()))));
        assert_eq!(
            serial,
            view_under(&remote),
            "round {round} delays {delays:?}"
        );
    }
    assert_eq!(
        reptile_obs::counter_value(reptile_obs::Counter::RemoteFallbacks),
        fallbacks_before
    );
}

/// The fit runs where its design lives, so it is `==` field by field under
/// every context: in process at any shard count, and under `Exec::Remote`
/// over in-process loopback workers and over real worker processes (whose
/// views feed the design) — before and after an ingest epoch, with no
/// fallback and no worker-side gram or E-step partial.
#[test]
fn remote_fit_is_bit_identical_to_serial_across_epochs() {
    use reptile_model::multilevel::{MultilevelConfig, MultilevelModel, TrainingBackend};
    use reptile_model::DesignBuilder;
    use reptile_wire::testing::LoopbackWorkers;

    let fallbacks_before = reptile_obs::counter_value(reptile_obs::Counter::RemoteFallbacks);
    let gram_before = reptile_obs::counter_value(reptile_obs::Counter::RemoteGramPartials);
    let e_step_before = reptile_obs::counter_value(reptile_obs::Counter::RemoteEStepPartials);
    let (_workers, real) = spawn_worker_set(2);
    let mut execs: Vec<(String, Exec)> = (1..=7)
        .map(|n| (format!("Shards({n})"), Exec::Shards(n)))
        .collect();
    execs.push(("Pool(4)".to_string(), Exec::pool(4)));
    for n in 1..=3 {
        let loopback = Remote::new(Arc::new(LoopbackWorkers::undelayed(n)));
        execs.push((format!("{n} loopback workers"), Exec::Remote(loopback)));
    }
    execs.push(("2 worker processes".to_string(), real));
    let config = MultilevelConfig::default();
    let fit_under = |rel: &Arc<Relation>, exec: &Exec| {
        let schema = rel.schema().clone();
        let view = View::compute(
            rel.clone(),
            Predicate::all(),
            vec![
                schema.attr("year").unwrap(),
                schema.attr("district").unwrap(),
                schema.attr("village").unwrap(),
            ],
            schema.attr("m").unwrap(),
            exec,
        )
        .unwrap();
        let design = DesignBuilder::new(&view, &schema, AggregateKind::Mean)
            .with_exec(exec.clone())
            .build()
            .unwrap();
        let model =
            MultilevelModel::fit_exec(&design, config, TrainingBackend::Factorized, exec).unwrap();
        let predictions = model.predict_all_with(&design, &exec.parallelism());
        (model, predictions)
    };

    let mut rel = sample_relation();
    for epoch in 0..2 {
        let (serial, serial_predictions) = fit_under(&rel, &Exec::Serial);
        for (label, exec) in &execs {
            let (fit, predictions) = fit_under(&rel, exec);
            // The standing bar: ==, never tolerance.
            let at = format!("{label}, epoch {epoch}");
            assert_eq!(serial.beta, fit.beta, "{at}");
            assert_eq!(serial.sigma2, fit.sigma2, "{at}");
            assert_eq!(serial.sigma_b, fit.sigma_b, "{at}");
            assert_eq!(serial.b, fit.b, "{at}");
            assert_eq!(serial.rss, fit.rss, "{at}");
            assert_eq!(serial.iterations_run, fit.iterations_run, "{at}");
            assert_eq!(serial.converged, fit.converged, "{at}");
            assert_eq!(serial.z_columns, fit.z_columns, "{at}");
            assert_eq!(serial.n, fit.n, "{at}");
            assert_eq!(serial_predictions, predictions, "{at}");
        }
        rel = ingest_epoch(&rel);
    }
    assert_eq!(
        reptile_obs::counter_value(reptile_obs::Counter::RemoteFallbacks),
        fallbacks_before,
        "a remote view silently fell back to local compute"
    );
    assert_eq!(
        reptile_obs::counter_value(reptile_obs::Counter::RemoteGramPartials),
        gram_before,
        "the fit's grams are built on the coordinator"
    );
    assert_eq!(
        reptile_obs::counter_value(reptile_obs::Counter::RemoteEStepPartials),
        e_step_before,
        "the E-step runs on the coordinator"
    );
}

#[test]
fn worker_set_shutdown_terminates_workers() {
    let workers: Vec<Worker> = (0..2).map(|_| Worker::spawn()).collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
    let set = WorkerSet::connect(&addrs).expect("connect");
    set.shutdown().expect("shutdown");
    for mut w in workers {
        let status = w.child.wait().expect("worker exit");
        assert!(status.success(), "worker exited {status:?}");
    }
}
