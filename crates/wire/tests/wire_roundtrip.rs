//! Wire-layer round trips and hostile-bytes safety.
//!
//! The framing harness (`tests/framing.rs`) covers header-level hostility;
//! this suite drives the *payload* codecs the worker protocol carries —
//! shipped partitions, view plans, view partials — plus a live worker fed
//! hostile frames over a real socket. The
//! invariant everywhere: malformed input is a typed error, never a panic
//! and never a giant allocation.

use reptile_relational::codec::{put_f64, put_u32, put_u64, Frame};
use reptile_relational::{
    ship, Exec, Predicate, Relation, RelationalError, Remote, RemoteError, RemoteTransport, Schema,
    Value, View,
};
use reptile_wire::frame::{KIND_LOAD_PARTITION, KIND_OK, KIND_PING, KIND_RESULT, KIND_SCATTER, RW};
use reptile_wire::testing::LoopbackWorkers;
use reptile_wire::WorkerState;
use std::sync::Arc;

/// Write one RW frame to a live socket.
fn write_frame(s: &mut std::net::TcpStream, frame: &Frame) {
    reptile_relational::codec::write_frame(s, &RW, &RW.encode(frame)).unwrap();
}

/// Read one RW frame from a live socket.
fn read_frame(s: &mut std::net::TcpStream) -> Option<Frame> {
    reptile_relational::codec::read_frame(s, &RW).unwrap()
}

fn sample_relation() -> Arc<Relation> {
    let schema = Arc::new(
        Schema::builder()
            .hierarchy("geo", ["region", "site"])
            .measure("kwh")
            .build()
            .unwrap(),
    );
    let mut b = Relation::builder(schema);
    for (region, site, kwh) in [
        ("north", "n1", 4.5),
        ("north", "n2", 5.25),
        ("south", "s1", -1.0),
        ("south", "s2", 2.0),
        ("south", "s3", 0.125),
    ] {
        b = b
            .row([Value::str(region), Value::str(site), Value::float(kwh)])
            .unwrap();
    }
    Arc::new(b.build())
}

#[test]
fn partition_payload_round_trips_bit_exactly() {
    let rel = sample_relation();
    let bytes = ship::encode_partition(&rel, 1, 3);
    let part = ship::decode_partition(&bytes).expect("decode partition");
    assert_eq!(part.relation.len(), 3);
    assert_eq!(part.relation.ident(), rel.ident());
    assert_eq!(part.relation.version(), rel.version());
    // Shared-dictionary contract: the partition carries the FULL
    // dictionaries in code order, so a code means the same value on the
    // worker as on the coordinator — even for values absent from this
    // partition's rows.
    let schema = rel.schema();
    for attr in [schema.attr("region").unwrap(), schema.attr("site").unwrap()] {
        let full = rel.code_column(attr);
        let shipped = part.relation.code_column(attr);
        assert_eq!(shipped.dict(), full.dict());
        assert_eq!(shipped.codes(), &full.codes()[1..4]);
    }
    for local in 0..3 {
        assert_eq!(part.relation.row(local), rel.row(1 + local));
    }
}

#[test]
fn partition_payload_rejects_hostile_bytes_without_panicking() {
    let rel = sample_relation();
    let bytes = ship::encode_partition(&rel, 0, rel.len());
    // Truncation at every prefix length must be a typed error, not a panic.
    for cut in 0..bytes.len() {
        assert!(
            ship::decode_partition(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes decoded"
        );
    }
    // Bit flips in the leading counts either decode (harmlessly different
    // metadata) or fail typed; they must never panic or over-allocate.
    for i in 0..bytes.len().min(64) {
        let mut evil = bytes.clone();
        evil[i] ^= 0xff;
        let _ = ship::decode_partition(&evil);
    }
    assert!(ship::decode_partition(b"not a partition").is_err());
}

#[test]
fn view_plan_and_partial_round_trip() {
    let rel = sample_relation();
    let schema = rel.schema();
    let region = schema.attr("region").unwrap();
    let kwh = schema.attr("kwh").unwrap();
    let plan_bytes = ship::encode_view_plan(
        rel.ident(),
        rel.version(),
        &Predicate::all(),
        &[region],
        kwh,
    );
    let plan = ship::decode_view_plan(&plan_bytes).expect("decode plan");
    assert_eq!(plan.ident, rel.ident());
    assert_eq!(plan.version, rel.version());
    for cut in 0..plan_bytes.len() {
        assert!(ship::decode_view_plan(&plan_bytes[..cut]).is_err());
    }

    // A partial computed from a shipped partition merges back losslessly:
    // this is the exact path the worker drives, minus the socket.
    let part_bytes = ship::encode_partition(&rel, 0, rel.len());
    let part = ship::decode_partition(&part_bytes).unwrap();
    let partial_bytes = ship::answer_view_scan(&part, &plan_bytes).expect("scan");
    let groups = ship::decode_view_partial(&partial_bytes, 1).expect("decode partial");
    let serial = View::compute(
        rel.clone(),
        Predicate::all(),
        vec![region],
        kwh,
        &Exec::Serial,
    )
    .unwrap();
    assert_eq!(groups.len(), serial.len());
    for cut in 0..partial_bytes.len() {
        assert!(ship::decode_view_partial(&partial_bytes[..cut], 1).is_err());
    }
    // Wrong expected key width is a typed shape error.
    assert!(ship::decode_view_partial(&partial_bytes, 2).is_err());
}

/// A transport that hands every request to honest loopback workers and
/// then rewrites the reply bytes: a lying (or out-of-date) worker.
struct LyingWorkers {
    honest: LoopbackWorkers,
    mangle: fn(Vec<u8>) -> Vec<u8>,
}

impl RemoteTransport for LyingWorkers {
    fn workers(&self) -> usize {
        self.honest.workers()
    }

    fn ensure_relation(
        &self,
        relation: &Arc<Relation>,
    ) -> Result<Vec<(usize, usize)>, RemoteError> {
        self.honest.ensure_relation(relation)
    }

    fn scatter(
        &self,
        op: u8,
        requests: Vec<Option<Vec<u8>>>,
    ) -> Result<Vec<Option<Vec<u8>>>, RemoteError> {
        let replies = self.honest.scatter(op, requests)?;
        Ok(replies
            .into_iter()
            .map(|reply| reply.map(self.mangle))
            .collect())
    }
}

/// A view reply re-encoded the way workers answered before row lists left
/// the wire: every group's values followed by as many `u64` row indices.
fn with_row_sections(reply: Vec<u8>) -> Vec<u8> {
    let mut old = reply[..8].to_vec();
    for (codes, values) in ship::decode_view_partial(&reply, 1).unwrap() {
        put_u32(&mut old, codes[0]);
        put_u32(&mut old, values.len() as u32);
        for value in &values {
            put_f64(&mut old, *value);
        }
        for row in 0..values.len() {
            put_u64(&mut old, u64::MAX - row as u64);
        }
    }
    old
}

/// Cut inside the first group's value list: header, one code, the value
/// count, and half of the first `f64`.
fn cut_inside_values(mut reply: Vec<u8>) -> Vec<u8> {
    reply.truncate(8 + 4 + 4 + 4);
    reply
}

#[test]
fn lying_view_replies_are_typed_errors() {
    let rel = sample_relation();
    let schema = rel.schema();
    let region = schema.attr("region").unwrap();
    let kwh = schema.attr("kwh").unwrap();
    let plan = ship::encode_view_plan(
        rel.ident(),
        rel.version(),
        &Predicate::all(),
        &[region],
        kwh,
    );
    let part = ship::decode_partition(&ship::encode_partition(&rel, 0, rel.len())).unwrap();
    let honest = ship::answer_view_scan(&part, &plan).unwrap();
    assert_eq!(ship::decode_view_partial(&honest, 1).unwrap().len(), 2);
    for (what, mangle) in [
        ("old layout", with_row_sections as fn(Vec<u8>) -> Vec<u8>),
        ("cut inside a value list", cut_inside_values),
    ] {
        // At the codec: a typed error, whatever the row indices claim.
        let lie = mangle(honest.clone());
        assert!(
            ship::decode_view_partial(&lie, 1).is_err(),
            "{what}: decoded"
        );
        // Through a whole view scan (and the baseline that used to index
        // the relation by those rows): a protocol error, never a panic.
        for workers in 1..=2 {
            let remote = Exec::Remote(Remote::new(Arc::new(LyingWorkers {
                honest: LoopbackWorkers::undelayed(workers),
                mangle,
            })));
            let err = View::compute(rel.clone(), Predicate::all(), vec![region], kwh, &remote)
                .unwrap_err();
            assert!(
                matches!(&err, RelationalError::Remote(msg) if msg.starts_with("protocol:")),
                "{what}, {workers} workers: {err}"
            );
        }
    }
}

/// The remote fit and the remote hierarchy aggregates are retired: frame
/// kind 0x02 (keyed state blobs: the EM state, encoded factors) and scatter
/// ops 2, 3, 4 and 5 (aggregate ranges, gram cells, cluster grams, the
/// E-step) are gone from the worker. A scatter that still names one of
/// those ops — well-formed, garbage or truncated — answers a typed
/// `BadRequest` on a live connection; a kind-0x02 frame ends its connection
/// cleanly. The worker keeps accepting, and nothing is retained.
#[test]
fn worker_rejects_hostile_em_frames_over_a_live_socket() {
    use reptile_wire::worker::{decode_error_body, WorkerErrorKind};
    use std::net::{TcpListener, TcpStream};
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let mut state = WorkerState::new();
        for stream in listener.incoming().take(2) {
            let _ = reptile_wire::worker::serve_connection(&mut state, stream.unwrap());
        }
        state
    });

    let mut s = TcpStream::connect(addr).unwrap();
    let mut request = 0x9999u64.to_be_bytes().to_vec();
    request.extend_from_slice(&[0u8; 16]);
    let mut id = 1;
    for op in [2u8, 3, 4, 5] {
        // A well-formed range request, then every truncation of it down to
        // the bare op byte.
        for cut in [request.len(), 17, 9, 5, 0] {
            let mut body = vec![op];
            body.extend_from_slice(&request[..cut]);
            let frame = Frame::new(KIND_SCATTER, id, body);
            id += 1;
            write_frame(&mut s, &frame);
            let reply = read_frame(&mut s).expect("reply");
            assert_eq!(reply.id, frame.id);
            assert_eq!(
                reply.kind,
                reptile_wire::frame::KIND_ERROR,
                "retired op {op} (cut {cut}) got kind {:#04x}",
                reply.kind
            );
            let (kind, msg) = decode_error_body(&reply.body);
            assert_eq!(kind, WorkerErrorKind::BadRequest, "op {op}, cut {cut}");
            assert!(
                msg.contains("unknown scatter op"),
                "op {op}, cut {cut}: {msg}"
            );
        }
    }
    // The connection survived all of it.
    write_frame(&mut s, &Frame::new(KIND_PING, 99, Vec::new()));
    assert_eq!(read_frame(&mut s).unwrap().kind, KIND_OK);

    // A kind-0x02 state blob is not an RW frame any more: the worker ends
    // the connection instead of answering.
    let mut state_blob = vec![1u8];
    state_blob.extend_from_slice(&0x1234u64.to_be_bytes());
    state_blob.extend_from_slice(b"definitely not an encoded factor");
    write_frame(&mut s, &Frame::new(0x02, 100, state_blob));
    assert!(
        reptile_relational::codec::read_frame(&mut s, &RW)
            .unwrap()
            .is_none(),
        "a retired kind must end the connection cleanly"
    );
    drop(s);

    // The worker keeps accepting.
    let mut s = TcpStream::connect(addr).unwrap();
    write_frame(&mut s, &Frame::new(KIND_PING, 101, Vec::new()));
    assert_eq!(read_frame(&mut s).unwrap().kind, KIND_OK);
    drop(s);

    let state = server.join().unwrap();
    assert_eq!(
        state.partition_count(),
        0,
        "no hostile blob may be retained"
    );
}

#[test]
fn worker_rejects_hostile_frames_over_a_live_socket() {
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let mut state = WorkerState::new();
        // Serve exactly three connections, then stop.
        for stream in listener.incoming().take(3) {
            let _ = reptile_wire::worker::serve_connection(&mut state, stream.unwrap());
        }
        state
    });

    // Connection 1: raw garbage after a valid length prefix — the worker
    // must drop the connection without dying.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&9u32.to_be_bytes()).unwrap();
    s.write_all(b"XXgarbage").unwrap();
    drop(s);

    // Connection 2: well-framed frames with hostile bodies — each must be
    // answered with a typed error frame, and the connection must survive
    // all of them.
    let mut s = TcpStream::connect(addr).unwrap();
    let hostile = [
        Frame::new(KIND_LOAD_PARTITION, 1, b"not a partition".to_vec()),
        Frame::new(
            KIND_SCATTER,
            2,
            vec![reptile_relational::exec::OP_VIEW_SCAN, 7, 7, 7],
        ),
        Frame::new(KIND_SCATTER, 3, Vec::new()),
        Frame::new(KIND_SCATTER, 4, vec![0x77, 1, 2, 3]),
    ];
    for frame in &hostile {
        write_frame(&mut s, frame);
        let reply = read_frame(&mut s).expect("reply");
        assert_eq!(reply.id, frame.id);
        assert_eq!(
            reply.kind,
            reptile_wire::frame::KIND_ERROR,
            "hostile frame id {} got kind {:#04x}",
            frame.id,
            reply.kind
        );
        let (_kind, msg) = reptile_wire::worker::decode_error_body(&reply.body);
        assert!(!msg.is_empty());
    }
    // Still alive: a ping on the same connection answers OK.
    write_frame(&mut s, &Frame::new(KIND_PING, 5, Vec::new()));
    assert_eq!(read_frame(&mut s).unwrap().kind, KIND_OK);
    drop(s);

    // Connection 3: a legitimate load + scatter works after all the abuse,
    // and state survived across connections.
    let rel = sample_relation();
    let schema = rel.schema();
    let region = schema.attr("region").unwrap();
    let kwh = schema.attr("kwh").unwrap();
    let mut s = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut s,
        &Frame::new(
            KIND_LOAD_PARTITION,
            6,
            ship::encode_partition(&rel, 0, rel.len()),
        ),
    );
    assert_eq!(read_frame(&mut s).unwrap().kind, KIND_OK);
    let plan = ship::encode_view_plan(
        rel.ident(),
        rel.version(),
        &Predicate::all(),
        &[region],
        kwh,
    );
    let mut body = vec![reptile_relational::exec::OP_VIEW_SCAN];
    body.extend_from_slice(&plan);
    write_frame(&mut s, &Frame::new(KIND_SCATTER, 7, body));
    let reply = read_frame(&mut s).unwrap();
    assert_eq!(reply.kind, KIND_RESULT);
    assert_eq!(ship::decode_view_partial(&reply.body, 1).unwrap().len(), 2);
    drop(s);

    let state = server.join().unwrap();
    assert_eq!(state.partition_count(), 1);
}
