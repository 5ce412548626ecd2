//! The serving test battery: pool-backed serving, concurrency, deadlines,
//! admission control, dedup-before-admission, panic containment, and the
//! shutdown ledger conservation law.
//!
//! Every admitted request that answers with data must be **bit-identical**
//! (`==`, never tolerance) to a serial engine evaluating the same complaint
//! over the same relation snapshot; every rejected request must receive a
//! typed error and no data.

use reptile::{Direction, Recommendation, Reptile};
use reptile_relational::{AggregateKind, IngestBatch, Predicate, Relation, Schema, Value, View};
use reptile_serve::{
    Client, ClientError, RecommendRequest, ServeConfig, ServeErrorKind, Server, WireRecommendation,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Same district/village/day dataset the session-layer serving tests use.
fn dataset() -> (Arc<Relation>, Arc<Schema>) {
    let schema = Arc::new(
        Schema::builder()
            .hierarchy("geo", ["district", "village"])
            .hierarchy("time", ["day"])
            .measure("reports")
            .build()
            .unwrap(),
    );
    let mut b = Relation::builder(schema.clone());
    for day in 0..3i64 {
        for d in 0..3 {
            for v in 0..4 {
                let village = format!("D{d}-V{v}");
                let base = 20.0 + d as f64 * 2.0 + v as f64 * 0.5;
                let value = if village == "D1-V3" && day == 1 {
                    base - 15.0
                } else {
                    base
                };
                b = b
                    .row([
                        Value::str(format!("D{d}")),
                        Value::str(village),
                        Value::int(day),
                        Value::float(value),
                    ])
                    .unwrap();
            }
        }
    }
    (Arc::new(b.build()), schema)
}

/// A wire request complaining about district `d` on day `day`.
fn request_for(d: usize, day: i64, deadline_ms: u32, fault: &str) -> RecommendRequest {
    RecommendRequest {
        predicate: vec![],
        group_by: vec!["district".into(), "day".into()],
        measure: "reports".into(),
        complaint_key: vec![Value::str(format!("D{d}")), Value::int(day)],
        statistic: AggregateKind::Mean,
        direction: Direction::TooLow,
        deadline_ms,
        fault: fault.into(),
    }
}

/// Serial reference: evaluate the same complaint on a fresh single-threaded
/// engine over `rel` and project onto the wire shape.
fn serial_reference(
    rel: &Arc<Relation>,
    schema: &Arc<Schema>,
    req: &RecommendRequest,
) -> WireRecommendation {
    let mut predicate = Predicate::all();
    for (name, value) in &req.predicate {
        predicate = predicate.and_eq(schema.attr(name).unwrap(), value.clone());
    }
    let group_by = req
        .group_by
        .iter()
        .map(|n| schema.attr(n).unwrap())
        .collect::<Vec<_>>();
    let view = Arc::new(
        View::compute(
            rel.clone(),
            predicate,
            group_by,
            schema.attr(&req.measure).unwrap(),
            &reptile_relational::Exec::Serial,
        )
        .unwrap(),
    );
    let engine = Reptile::new(rel.clone(), schema.clone());
    let rec: Recommendation = engine.recommend(&view, &req.complaint()).unwrap();
    WireRecommendation::from_recommendation(&rec, rel.version())
}

/// Bit-exact comparison of a served response against the serial reference.
fn assert_identical(got: &WireRecommendation, want: &WireRecommendation) {
    assert_eq!(got.original_value.to_bits(), want.original_value.to_bits());
    assert_eq!(got.ranked.len(), want.ranked.len());
    for (x, y) in got.ranked.iter().zip(&want.ranked) {
        assert_eq!(x.hierarchy, y.hierarchy);
        assert_eq!(x.added_attribute, y.added_attribute);
        assert_eq!(x.key, y.key);
        assert_eq!(x.observed.to_bits(), y.observed.to_bits());
        assert_eq!(x.expected.to_bits(), y.expected.to_bits());
        assert_eq!(
            x.repaired_complaint_value.to_bits(),
            y.repaired_complaint_value.to_bits()
        );
        assert_eq!(x.penalty.to_bits(), y.penalty.to_bits());
        assert_eq!(x.improvement.to_bits(), y.improvement.to_bits());
    }
}

/// Tentpole lock-in: responses served over the wire by pool-backed workers
/// are bit-identical to a serial engine, across many concurrent client
/// connections, and the shutdown ledger conserves.
#[test]
fn pool_backed_serving_matches_serial_reference() {
    let jobs_before = reptile_obs::counter_value(reptile_obs::Counter::PoolMayBlockJobs);
    let (rel, schema) = dataset();
    let engine = Arc::new(Reptile::new(rel.clone(), schema.clone()));
    let server = Server::bind(
        engine,
        "127.0.0.1:0",
        ServeConfig {
            workers: 4,
            max_pending: 64,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut expected = HashMap::new();
    for d in 0..3usize {
        for day in 0..3i64 {
            expected.insert(
                (d, day),
                serial_reference(&rel, &schema, &request_for(d, day, 0, "")),
            );
        }
    }
    let expected = Arc::new(expected);

    let handles: Vec<_> = (0..4)
        .map(|worker| {
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.ping().unwrap();
                for round in 0..3 {
                    for d in 0..3usize {
                        for day in 0..3i64 {
                            let got = client.recommend(request_for(d, day, 0, "")).unwrap();
                            assert_identical(&got, &expected[&(d, day)]);
                            let _ = (worker, round);
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let ledger = server.shutdown();
    assert_eq!(ledger.admitted, 4 * 3 * 3 * 3);
    assert_eq!(
        ledger.completed + ledger.rejected + ledger.drained,
        ledger.admitted
    );
    assert!(ledger.conserved(), "{ledger:?}");
    assert_eq!(ledger.protocol_errors, 0);
    // Every admitted request that did not join an in-flight one crossed the
    // shard pool's queue as one may-block job (other tests in this binary
    // dispatch too, so this is a lower bound).
    let jobs = reptile_obs::counter_value(reptile_obs::Counter::PoolMayBlockJobs) - jobs_before;
    assert!(
        jobs >= ledger.admitted - ledger.dedup_joined,
        "{jobs} pool jobs for {ledger:?}"
    );
    // No assertion on `dedup_joined`: whether four free-running clients ever
    // collide on an in-flight key is a race. In-flight joining is asserted
    // deterministically below, with `sleep:` faults holding the leader.
}

/// Satellite: serving under concurrent ingest with tight deadlines. Every
/// admitted request either returns a result bit-identical to a serial
/// engine over the snapshot version it reports, or a typed rejection; the
/// shutdown ledger conserves admitted = completed + rejected + drained.
#[test]
fn concurrent_ingest_with_tight_deadlines_is_exact_and_conserved() {
    let (rel, schema) = dataset();
    let engine = Arc::new(Reptile::new(rel.clone(), schema.clone()));
    let server = Arc::new(
        Server::bind(
            engine,
            "127.0.0.1:0",
            ServeConfig {
                workers: 4,
                max_pending: 32,
                fault_injection: true,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let addr = server.local_addr();

    // Ingest thread: stream new days in while clients hammer the door,
    // recording every relation snapshot by version for later verification.
    let snapshots: Arc<std::sync::Mutex<HashMap<u64, Arc<Relation>>>> = Arc::new(
        std::sync::Mutex::new(HashMap::from([(rel.version(), rel.clone())])),
    );
    let ingest_server = Arc::clone(&server);
    let ingest_snapshots = Arc::clone(&snapshots);
    let ingest = std::thread::spawn(move || {
        for day in 3..9i64 {
            let mut batch = IngestBatch::new();
            for d in 0..3 {
                for v in 0..4 {
                    batch = batch.insert([
                        Value::str(format!("D{d}")),
                        Value::str(format!("D{d}-V{v}")),
                        Value::int(day),
                        Value::float(21.0 + d as f64 - v as f64 * 0.25),
                    ]);
                }
            }
            let report = ingest_server.ingest(&batch).unwrap();
            ingest_snapshots
                .lock()
                .unwrap()
                .insert(report.relation.version(), report.relation.clone());
            std::thread::sleep(Duration::from_millis(5));
        }
    });

    // Client threads: a mix of untimed requests, generously-deadlined
    // requests, and impossible deadlines on slowed (fault-injected)
    // requests that must come back as typed DeadlineExceeded.
    let handles: Vec<_> = (0..3)
        .map(|worker: usize| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut answered: Vec<WireRecommendation> = Vec::new();
                let mut deadline_hits = 0usize;
                for round in 0..6 {
                    let d = (worker + round) % 3;
                    let day = (round % 3) as i64;
                    match client.recommend(request_for(d, day, 5_000, "")) {
                        Ok(rec) => answered.push(rec),
                        Err(ClientError::Server { kind, .. }) => {
                            assert!(
                                matches!(
                                    kind,
                                    ServeErrorKind::Overloaded | ServeErrorKind::DeadlineExceeded
                                ),
                                "only typed backpressure rejections allowed, got {kind}"
                            );
                        }
                        Err(other) => panic!("unexpected client failure: {other}"),
                    }
                    // An impossible deadline on a slowed request: typed
                    // rejection, never data. (Sleep dominates the 1 ms
                    // budget regardless of machine speed.)
                    match client.recommend(request_for(d, day, 1, "sleep:60")) {
                        Err(ClientError::Server { kind, .. }) => {
                            assert!(
                                matches!(
                                    kind,
                                    ServeErrorKind::DeadlineExceeded | ServeErrorKind::Overloaded
                                ),
                                "expired request must reject typed, got {kind}"
                            );
                            deadline_hits += 1;
                        }
                        Ok(_) => panic!("expired request must never receive data"),
                        Err(other) => panic!("unexpected client failure: {other}"),
                    }
                }
                (answered, deadline_hits)
            })
        })
        .collect();

    let mut answered = Vec::new();
    let mut deadline_hits = 0;
    for h in handles {
        let (a, d) = h.join().unwrap();
        answered.extend(a);
        deadline_hits += d;
    }
    ingest.join().unwrap();
    assert_eq!(
        deadline_hits,
        3 * 6,
        "every impossible deadline rejected typed"
    );
    assert!(!answered.is_empty());

    // Exactness under ingest: each response must match a serial engine over
    // the exact snapshot version it claims to have been evaluated on.
    let snapshots = snapshots.lock().unwrap();
    for rec in &answered {
        let snapshot = snapshots
            .get(&rec.relation_version)
            .unwrap_or_else(|| panic!("response reports unknown version {}", rec.relation_version));
        // Reconstruct which request produced it: clients only complain
        // about days 0..3, so recompute those nine candidates serially over
        // the claimed snapshot and require an exact (==) match.
        let mut matched = false;
        'outer: for d in 0..3usize {
            for day in 0..3i64 {
                let req = request_for(d, day, 0, "");
                let want = serial_reference(snapshot, &schema, &req);
                if want == *rec {
                    matched = true;
                    break 'outer;
                }
            }
        }
        assert!(
            matched,
            "response over version {} matches no serial reference",
            rec.relation_version
        );
    }
    drop(snapshots);

    let server = Arc::try_unwrap(server).unwrap_or_else(|_| panic!("server still shared"));
    let ledger = server.shutdown();
    assert!(ledger.conserved(), "{ledger:?}");
    assert_eq!(ledger.protocol_errors, 0);
    assert!(ledger.rejected >= deadline_hits as u64 - ledger.overloaded);
}

/// Satellite: a panicking request handler is contained — the connection
/// gets a typed Internal error, the same connection keeps working, other
/// connections are unaffected, and the pool stays healthy (later requests
/// still evaluate correctly).
#[test]
fn panicking_handler_is_contained() {
    let (rel, schema) = dataset();
    let engine = Arc::new(Reptile::new(rel.clone(), schema.clone()));
    let server = Server::bind(
        engine,
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            max_pending: 16,
            fault_injection: true,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let want = serial_reference(&rel, &schema, &request_for(0, 0, 0, ""));

    let mut victim = Client::connect(addr).unwrap();
    let mut bystander = Client::connect(addr).unwrap();

    for _ in 0..3 {
        match victim.recommend(request_for(0, 0, 0, "panic")) {
            Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ServeErrorKind::Internal),
            other => panic!("panicking handler must answer typed Internal, got {other:?}"),
        }
        // Same connection still serves.
        assert_identical(&victim.recommend(request_for(0, 0, 0, "")).unwrap(), &want);
        // Other connections unaffected.
        assert_identical(
            &bystander.recommend(request_for(0, 0, 0, "")).unwrap(),
            &want,
        );
    }

    let ledger = server.shutdown();
    assert!(ledger.conserved(), "{ledger:?}");
    // Panicked evaluations are completed (answered), not lost.
    assert_eq!(ledger.admitted, 9);
    assert_eq!(ledger.completed, 9);
}

/// Satellite (fix regression): duplicate in-flight requests are collapsed by
/// the dedup signature *before* admission control, so duplicates never
/// consume pending-ledger slots; a genuinely distinct request is the one
/// that gets the typed Overloaded.
#[test]
fn duplicate_inflight_requests_do_not_consume_pending_slots() {
    let (rel, schema) = dataset();
    let engine = Arc::new(Reptile::new(rel.clone(), schema.clone()));
    let server = Server::bind(
        engine,
        "127.0.0.1:0",
        ServeConfig {
            workers: 4,
            max_pending: 2,
            fault_injection: true,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let want_a = serial_reference(&rel, &schema, &request_for(0, 0, 0, ""));

    // Two distinct slow requests fill both pending slots.
    let slow_a = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.recommend(request_for(0, 0, 0, "sleep:700")).unwrap()
    });
    let slow_b = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.recommend(request_for(1, 1, 0, "sleep:700")).unwrap()
    });
    // Let both get admitted and start sleeping.
    std::thread::sleep(Duration::from_millis(250));
    assert_eq!(server.ledger().admitted, 2, "both slow requests in flight");

    // Duplicates of request A (same view + complaint — the fault marker is
    // not part of the dedup signature) must be admitted as joins, not
    // refused, even though pending == max_pending.
    let dups: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.recommend(request_for(0, 0, 0, "")).unwrap()
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(150));

    // A genuinely distinct third signature is refused typed Overloaded.
    let mut overflow = Client::connect(addr).unwrap();
    match overflow.recommend(request_for(2, 2, 0, "")) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ServeErrorKind::Overloaded),
        other => panic!("distinct request past the bound must be Overloaded, got {other:?}"),
    }

    // Everyone waiting on A gets A's (bit-exact) result.
    assert_identical(&slow_a.join().unwrap(), &want_a);
    slow_b.join().unwrap();
    for dup in dups {
        assert_identical(&dup.join().unwrap(), &want_a);
    }

    let ledger = server.shutdown();
    assert!(ledger.conserved(), "{ledger:?}");
    assert_eq!(
        ledger.dedup_joined, 3,
        "all three duplicates joined in flight"
    );
    assert_eq!(ledger.overloaded, 1);
    assert_eq!(ledger.admitted, 5);
    assert_eq!(ledger.completed, 5);
}

/// Graceful shutdown drains: a queued-but-unstarted request gets a typed
/// drain response (never silence, never data), in-flight evaluations finish
/// and deliver, and the final ledger conserves.
#[test]
fn shutdown_drains_queued_requests_with_typed_responses() {
    let (rel, schema) = dataset();
    let engine = Arc::new(Reptile::new(rel.clone(), schema.clone()));
    let server = Server::bind(
        engine,
        "127.0.0.1:0",
        ServeConfig {
            // One worker the slow request occupies; later admissions queue
            // behind it on the pool.
            workers: 1,
            max_pending: 8,
            fault_injection: true,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let slow = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.recommend(request_for(0, 0, 0, "sleep:600"))
    });
    std::thread::sleep(Duration::from_millis(200));
    // These distinct requests are admitted but (likely) queued behind the
    // sleeper on the single guaranteed worker.
    let queued: Vec<_> = (1..3)
        .map(|d| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.recommend(request_for(d, (d % 3) as i64, 0, ""))
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));

    let ledger = server.shutdown();
    assert!(ledger.conserved(), "{ledger:?}");

    // The sleeper either completed (its evaluation had started) or drained;
    // either way it got a typed outcome, and so did every queued request.
    match slow.join().unwrap() {
        Ok(_) => {}
        Err(ClientError::Server { kind, .. }) => {
            assert!(matches!(
                kind,
                ServeErrorKind::Overloaded | ServeErrorKind::DeadlineExceeded
            ));
        }
        Err(other) => panic!("sleeper must get a typed outcome, got {other}"),
    }
    for q in queued {
        match q.join().unwrap() {
            Ok(_) => {}
            Err(ClientError::Server { kind, .. }) => {
                assert!(matches!(
                    kind,
                    ServeErrorKind::Overloaded | ServeErrorKind::DeadlineExceeded
                ));
            }
            Err(other) => panic!("queued request must get a typed outcome, got {other}"),
        }
    }
}

/// Regression (review): a near-cap request whose fault marker
/// would be echoed into the error detail must come back as a *truncated*
/// typed `BadRequest` — the response frame stays under the cap, nothing
/// panics while holding the connection's writer lock, and the same
/// connection (and in-flight serving generally) keeps working.
#[test]
fn oversized_echoed_error_is_truncated_and_typed() {
    use reptile_serve::RP;

    let (rel, schema) = dataset();
    let engine = Arc::new(Reptile::new(rel.clone(), schema.clone()));
    // No fault injection: a non-empty fault marker is refused with an
    // error message that echoes the marker.
    let server = Server::bind(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();

    // Minimal request shape: 46 bytes of encoding overhead, so this fault
    // length puts the request payload exactly at the frame cap while the
    // echoed error detail (+~35 bytes of surrounding text) would exceed it.
    let huge_fault = "x".repeat(RP.max_len as usize - 46);
    let req = RecommendRequest {
        predicate: vec![],
        group_by: vec![],
        measure: String::new(),
        complaint_key: vec![],
        statistic: AggregateKind::Mean,
        direction: Direction::TooLow,
        deadline_ms: 0,
        fault: huge_fault,
    };
    match client.recommend(req) {
        Err(ClientError::Server { kind, message }) => {
            assert_eq!(kind, ServeErrorKind::BadRequest);
            assert!(
                message.len() < 4096,
                "echoed error detail must be truncated, got {} bytes",
                message.len()
            );
            assert!(message.contains("[truncated]"), "{message:?}");
        }
        other => panic!("huge fault marker must answer typed BadRequest, got {other:?}"),
    }

    // The connection survived (resolution errors keep it open) and the
    // server still serves data.
    client.ping().unwrap();
    let want = serial_reference(&rel, &schema, &request_for(0, 0, 0, ""));
    assert_identical(&client.recommend(request_for(0, 0, 0, "")).unwrap(), &want);

    let ledger = server.shutdown();
    assert!(ledger.conserved(), "{ledger:?}");
    assert_eq!(ledger.bad_requests, 1);
}

/// Regression (review): dedup joins are free of the pending bound but NOT
/// unbounded — past `max_waiters_per_request` waiters on one in-flight
/// signature, further duplicates are refused with a typed `Overloaded`.
#[test]
fn dedup_joins_are_capped_per_signature() {
    let (rel, schema) = dataset();
    let engine = Arc::new(Reptile::new(rel.clone(), schema.clone()));
    let server = Server::bind(
        engine,
        "127.0.0.1:0",
        ServeConfig {
            workers: 4,
            max_pending: 8,
            max_waiters_per_request: 2,
            fault_injection: true,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let want = serial_reference(&rel, &schema, &request_for(0, 0, 0, ""));

    // One slow evaluation holds the signature in flight (1 waiter)...
    let slow = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.recommend(request_for(0, 0, 0, "sleep:700")).unwrap()
    });
    std::thread::sleep(Duration::from_millis(200));
    // ...one duplicate still joins (2 waiters == the cap)...
    let dup = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.recommend(request_for(0, 0, 0, "")).unwrap()
    });
    std::thread::sleep(Duration::from_millis(150));
    // ...and the next duplicate is refused typed, with pending nowhere
    // near max_pending.
    let mut overflow = Client::connect(addr).unwrap();
    match overflow.recommend(request_for(0, 0, 0, "")) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ServeErrorKind::Overloaded),
        other => panic!("join past the waiter cap must be Overloaded, got {other:?}"),
    }

    assert_identical(&slow.join().unwrap(), &want);
    assert_identical(&dup.join().unwrap(), &want);
    let ledger = server.shutdown();
    assert!(ledger.conserved(), "{ledger:?}");
    assert_eq!(ledger.dedup_joined, 1);
    assert_eq!(ledger.overloaded, 1);
    assert_eq!(ledger.admitted, 2);
    assert_eq!(ledger.completed, 2);
}

/// Regression (review): the admission dedup key is scoped by the relation
/// version, so a request admitted *after* an ingest never joins an
/// evaluation admitted *before* it (ViewKey's relation identity is the
/// lineage ident, stable across snapshots — unscoped, the join would
/// silently serve pre-admission data).
#[test]
fn dedup_never_joins_across_an_ingest_boundary() {
    let (rel, schema) = dataset();
    let engine = Arc::new(Reptile::new(rel.clone(), schema.clone()));
    let server = Server::bind(
        engine,
        "127.0.0.1:0",
        ServeConfig {
            workers: 4,
            max_pending: 8,
            fault_injection: true,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // A slow request holds its (pre-ingest) signature in flight.
    let slow = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.recommend(request_for(0, 0, 0, "sleep:700")).unwrap()
    });
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(server.ledger().admitted, 1);

    // Ingest a new day while it sleeps.
    let mut batch = IngestBatch::new();
    for d in 0..3 {
        for v in 0..4 {
            batch = batch.insert([
                Value::str(format!("D{d}")),
                Value::str(format!("D{d}-V{v}")),
                Value::int(3),
                Value::float(22.0 + d as f64 - v as f64 * 0.25),
            ]);
        }
    }
    let report = server.ingest(&batch).unwrap();
    let post = report.relation.clone();

    // An identical complaint admitted after the ingest must NOT join the
    // in-flight pre-ingest evaluation: it evaluates fresh over the new
    // snapshot and returns it bit-exactly.
    let mut after = Client::connect(addr).unwrap();
    let got = after.recommend(request_for(0, 0, 0, "")).unwrap();
    assert_eq!(got.relation_version, post.version());
    assert_identical(
        &got,
        &serial_reference(&post, &schema, &request_for(0, 0, 0, "")),
    );
    assert_eq!(
        server.ledger().dedup_joined,
        0,
        "a post-ingest request must never dedup-join a pre-ingest evaluation"
    );

    slow.join().unwrap();
    let ledger = server.shutdown();
    assert!(ledger.conserved(), "{ledger:?}");
    assert_eq!(ledger.admitted, 2);
    assert_eq!(ledger.completed, 2);
    assert_eq!(ledger.dedup_joined, 0);
}

/// Satellite: the wire `Ingest` frame and the unified [`reptile::IngestSink`]
/// surface. A client ingests through the front door; the wire report matches
/// what the in-process sink reports field for field, and a recommendation
/// over the post-ingest snapshot is bit-identical to a serial engine that
/// applied the same batch. A malformed batch answers a typed `Engine` error
/// and leaves the connection (and the relation) intact.
#[test]
fn wire_ingest_matches_in_process_sinks() {
    use reptile::IngestSink;
    use reptile_serve::IngestRequest;

    let (rel, schema) = dataset();
    let engine = Arc::new(Reptile::new(rel.clone(), schema.clone()));
    let server = Server::bind(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // The same batch through two sinks: the wire, and the trait on a
    // serial engine.
    let inserts = vec![
        vec![
            Value::str("D0"),
            Value::str("D0-V9"),
            Value::int(1),
            Value::float(4.75),
        ],
        vec![
            Value::str("D3"),
            Value::str("D3-V0"),
            Value::int(2),
            Value::float(31.5),
        ],
    ];
    let deletes = vec![vec![
        Value::str("D0"),
        Value::str("D0-V0"),
        Value::int(0),
        Value::float(20.0),
    ]];
    let mut batch = IngestBatch::new();
    for row in &inserts {
        batch = batch.insert(row.clone());
    }
    for row in &deletes {
        batch = batch.delete(row.clone());
    }
    let mut serial_engine = Reptile::new(rel.clone(), schema.clone());
    let serial_report = serial_engine.apply_batch(&batch).unwrap();

    let wire_report = client.ingest(IngestRequest { inserts, deletes }).unwrap();
    assert_eq!(wire_report.inserted as usize, serial_report.inserted);
    assert_eq!(wire_report.deleted as usize, serial_report.deleted);
    assert_eq!(
        wire_report.relation_version,
        serial_report.relation.version()
    );

    // A recommendation over the post-ingest snapshot, served over the wire,
    // is bit-identical to the serial reference over the same snapshot.
    let req = request_for(1, 1, 0, "");
    let want = serial_reference(&serial_report.relation, &schema, &req);
    let got = client.recommend(req).unwrap();
    assert_eq!(got.relation_version, wire_report.relation_version);
    assert_identical(&got, &want);

    // A row with the wrong arity is an Engine error, not a dropped
    // connection — and must not have bumped the snapshot.
    let err = client
        .ingest(IngestRequest {
            inserts: vec![vec![Value::str("short")]],
            deletes: vec![],
        })
        .unwrap_err();
    match err {
        ClientError::Server { kind, .. } => assert_eq!(kind, ServeErrorKind::Engine),
        other => panic!("expected typed server error, got {other}"),
    }
    let again = client.recommend(request_for(1, 1, 0, "")).unwrap();
    assert_eq!(again.relation_version, wire_report.relation_version);

    let ledger = server.shutdown();
    assert!(ledger.conserved(), "{ledger:?}");
    assert_eq!(ledger.protocol_errors, 0);
}

/// Regression: the door's reader tells a bad *body* from bad *framing*. A
/// frame with a correct length prefix and a valid header whose Recommend
/// body is cut short answers a typed `BadRequest` and the connection keeps
/// serving, as does a frame of an unknown kind (the whole frame was read).
/// A bad magic loses the framing: it is answered, then the connection is
/// dropped.
#[test]
fn body_errors_keep_the_connection_and_framing_errors_drop_it() {
    use reptile_relational::codec::{read_frame, write_frame, FRAME_HEADER_LEN};
    use reptile_serve::{
        decode_response, encode_request, Request, RequestFrame, Response, ResponseFrame, RP,
    };
    use std::net::TcpStream;

    let (rel, schema) = dataset();
    let engine = Arc::new(Reptile::new(rel, schema));
    let server = Server::bind(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    let mut round_trip = |payload: &[u8]| {
        write_frame(&mut s, &RP, payload).unwrap();
        let reply = read_frame(&mut s, &RP).unwrap().expect("reply frame");
        decode_response(&reply).unwrap()
    };
    let ping = |id| {
        encode_request(&RequestFrame {
            id,
            request: Request::Ping,
        })
    };
    let assert_bad_request = |reply: ResponseFrame| match reply.response {
        Response::Error { kind, .. } => assert_eq!(kind, ServeErrorKind::BadRequest),
        other => panic!("expected a typed BadRequest, got {other:?}"),
    };

    // A Recommend frame whose body stops halfway: the prefix matches the
    // bytes sent and the header checks out.
    let recommend = encode_request(&RequestFrame {
        id: 5,
        request: Request::Recommend(request_for(0, 0, 0, "")),
    });
    let cut = FRAME_HEADER_LEN + (recommend.len() - FRAME_HEADER_LEN) / 2;
    assert_bad_request(round_trip(&recommend[..cut]));
    let pong = round_trip(&ping(6));
    assert_eq!((pong.id, pong.response), (6, Response::Pong));

    // An unknown kind keeps the connection.
    let mut unknown = ping(7);
    unknown[3] = 0x55;
    assert_bad_request(round_trip(&unknown));
    let pong = round_trip(&ping(8));
    assert_eq!((pong.id, pong.response), (8, Response::Pong));

    // A bad magic is answered, then the connection is dropped: a ping after
    // it gets no reply.
    let mut bad_magic = ping(9);
    bad_magic[0] = b'X';
    assert_bad_request(round_trip(&bad_magic));
    write_frame(&mut s, &RP, &ping(10)).unwrap();
    s.set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    assert!(
        !matches!(read_frame(&mut s, &RP), Ok(Some(_))),
        "no frame may follow a dropped connection"
    );

    let ledger = server.shutdown();
    assert_eq!(ledger.protocol_errors, 3);
}
