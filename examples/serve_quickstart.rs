//! Serving quickstart: the network front door end to end in one process.
//!
//! Boots a [`reptile_serve::Server`] on an ephemeral localhost port over
//! the drought-severity survey of the main quickstart, then connects a few
//! [`reptile_serve::Client`]s that pose the Ofla-1986 complaint over the
//! wire — concurrently, while a fresh survey year streams in through
//! ingest. Ends with a graceful shutdown and prints the request ledger,
//! whose conservation law (`admitted == completed + rejected + drained`)
//! the example asserts.
//!
//! Run with: `cargo run -p reptile-serve --example serve_quickstart`
//!
//! Pass `--deadline-ms N` to attach a per-request deadline (try `1` to see
//! typed `deadline_exceeded` rejections instead of data).

use reptile::{Direction, Reptile};
use reptile_relational::{AggregateKind, IngestBatch, Relation, Schema, Value};
use reptile_serve::{Client, ClientError, RecommendRequest, ServeConfig, Server};
use std::sync::Arc;

fn cli_deadline_ms() -> u32 {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--deadline-ms" {
            return args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--deadline-ms takes a millisecond count, e.g. --deadline-ms 250");
        }
    }
    0
}

/// The quickstart survey: Zata's 1986 reports were entered shifted down.
fn dataset() -> (Arc<Relation>, Arc<Schema>) {
    let schema = Arc::new(
        Schema::builder()
            .hierarchy("geo", ["district", "village"])
            .hierarchy("time", ["year"])
            .measure("severity")
            .build()
            .expect("valid schema"),
    );
    let mut builder = Relation::builder(schema.clone());
    for year in [1984i64, 1985, 1986, 1987, 1988] {
        for (vi, village) in ["Adishim", "Darube", "Dinka", "Fala", "Zata"]
            .iter()
            .enumerate()
        {
            for rep in 0..6 {
                let base = 7.0 + 0.2 * vi as f64 + 0.1 * rep as f64;
                let severity = if *village == "Zata" && year == 1986 {
                    base - 5.0
                } else {
                    base
                };
                builder = builder
                    .row([
                        Value::str("Ofla"),
                        Value::str(*village),
                        Value::int(year),
                        Value::float(severity.clamp(1.0, 10.0)),
                    ])
                    .expect("row matches schema");
            }
        }
        for (vi, village) in ["Korem", "Maychew", "Chercher"].iter().enumerate() {
            for rep in 0..6 {
                builder = builder
                    .row([
                        Value::str("Raya"),
                        Value::str(*village),
                        Value::int(year),
                        Value::float(6.5 + 0.2 * vi as f64 + 0.1 * rep as f64),
                    ])
                    .expect("row matches schema");
            }
        }
    }
    (Arc::new(builder.build()), schema)
}

fn main() {
    let deadline_ms = cli_deadline_ms();
    let (relation, schema) = dataset();

    // 1. Boot the front door on an ephemeral port. Requests are scheduled
    //    on the process-wide shard pool; the pending ledger bounds load.
    let engine = Arc::new(Reptile::new(relation, schema));
    let server = Server::bind(
        engine,
        "127.0.0.1:0",
        ServeConfig {
            workers: 4,
            max_pending: 32,
            ..Default::default()
        },
    )
    .expect("bind front door");
    let addr = server.local_addr();
    println!("front door listening on {addr}");

    // 2. Concurrent clients pose the Ofla-1986 complaint over the wire.
    let request = RecommendRequest {
        predicate: vec![],
        group_by: vec!["district".into(), "year".into()],
        measure: "severity".into(),
        complaint_key: vec![Value::str("Ofla"), Value::int(1986)],
        statistic: AggregateKind::Std,
        direction: Direction::TooHigh,
        deadline_ms,
        fault: String::new(),
    };
    let clients: Vec<_> = (0..3)
        .map(|worker| {
            let request = request.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.ping().expect("ping");
                match client.recommend(request) {
                    Ok(rec) => {
                        let best = rec.ranked.first().expect("at least one group");
                        println!(
                            "client {worker}: drill into {} {:?} (improvement {:.2}, \
                             evaluated over relation v{})",
                            best.added_attribute, best.key, best.improvement, rec.relation_version
                        );
                        assert!(format!("{:?}", best.key).contains("Zata"));
                    }
                    Err(ClientError::Server { kind, message }) => {
                        println!("client {worker}: typed rejection [{kind}] {message}");
                    }
                    Err(other) => panic!("client {worker}: {other}"),
                }
            })
        })
        .collect();

    // 3. Meanwhile, the 1989 survey streams in: a new relation snapshot
    //    plus exact cache invalidation, concurrent with the serving above.
    let mut batch = IngestBatch::new();
    for (vi, village) in ["Adishim", "Darube", "Dinka", "Fala", "Zata"]
        .iter()
        .enumerate()
    {
        batch = batch.insert([
            Value::str("Ofla"),
            Value::str(*village),
            Value::int(1989),
            Value::float(7.1 + 0.2 * vi as f64),
        ]);
    }
    let report = server.ingest(&batch).expect("ingest");
    println!(
        "ingested 1989 survey -> relation v{}",
        report.relation.version()
    );

    for c in clients {
        c.join().expect("client thread");
    }

    // 4. Graceful shutdown: drain, then check the conservation law.
    let ledger = server.shutdown();
    println!(
        "ledger: admitted={} completed={} rejected={} drained={} overloaded={}",
        ledger.admitted, ledger.completed, ledger.rejected, ledger.drained, ledger.overloaded
    );
    assert!(ledger.conserved(), "{ledger:?}");
    println!("ledger conserves: admitted == completed + rejected + drained");
}
