//! The worker process: holds one relation partition plus keyed state blobs
//! and answers scatter RPCs.
//!
//! A worker is deliberately dumb: it never plans, never merges, and never
//! talks to another worker. The coordinator ships it a partition (full
//! dictionaries in code order — the shared-dictionary contract, so the
//! worker's codes mean exactly what the coordinator's do), ships keyed
//! state blobs (encoded factors under their content fingerprint), and
//! scatters operation payloads. Every answer is either the exact bytes the
//! coordinator's merge expects or a typed error — a worker holding a stale
//! snapshot epoch answers with an error, never a wrong-but-plausible
//! partial.

use crate::frame::{
    KIND_ERROR, KIND_ESTEP_PARTIAL, KIND_GRAM_PARTIAL, KIND_LOAD_PARTITION, KIND_LOAD_STATE,
    KIND_OK, KIND_PING, KIND_RESULT, KIND_SCATTER, KIND_SHUTDOWN, RW,
};
use reptile_factor::encoded::EncodedHierarchyAggregates;
use reptile_factor::{payload, EncodedFactor};
use reptile_model::remote::{self as em_remote, EmAnswerError, EmWorkerState};
use reptile_relational::codec::{put_str, read_frame, write_frame, Frame, Reader, StreamError};
use reptile_relational::exec::{
    DOMAIN_EM, DOMAIN_FACTOR, OP_AGG_RANGE, OP_CLUSTER_ZTZ, OP_E_STEP, OP_GRAM_CELLS, OP_VIEW_SCAN,
};
use reptile_relational::ship::{self, ShippedPartition};
use std::collections::HashMap;
use std::io::BufWriter;
use std::net::{TcpListener, TcpStream};

/// Worker-side failure classes, carried in [`KIND_ERROR`] reply bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerErrorKind {
    /// The request body did not decode (or referenced an unknown op).
    BadRequest,
    /// The worker does not hold the state the request needs (missing
    /// partition, missing factor, stale snapshot epoch).
    MissingState,
    /// The operation itself failed.
    Compute,
}

impl WorkerErrorKind {
    fn to_tag(self) -> u8 {
        match self {
            WorkerErrorKind::BadRequest => 0,
            WorkerErrorKind::MissingState => 1,
            WorkerErrorKind::Compute => 2,
        }
    }

    /// Decode the tag byte; unknown tags conservatively map to `Compute`.
    pub fn from_tag(tag: u8) -> Self {
        match tag {
            0 => WorkerErrorKind::BadRequest,
            1 => WorkerErrorKind::MissingState,
            _ => WorkerErrorKind::Compute,
        }
    }
}

impl std::fmt::Display for WorkerErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WorkerErrorKind::BadRequest => "bad_request",
            WorkerErrorKind::MissingState => "missing_state",
            WorkerErrorKind::Compute => "compute",
        })
    }
}

/// Encode a typed error reply body.
fn error_body(kind: WorkerErrorKind, message: &str) -> Vec<u8> {
    let mut body = vec![kind.to_tag()];
    put_str(&mut body, message);
    body
}

/// Decode an error reply body into `(kind, message)`. Total: malformed
/// error bodies decode to a `Compute` error describing the malformation.
pub fn decode_error_body(body: &[u8]) -> (WorkerErrorKind, String) {
    let mut r = Reader::new(body);
    let kind = match r.u8() {
        Ok(tag) => WorkerErrorKind::from_tag(tag),
        Err(_) => return (WorkerErrorKind::Compute, "empty error body".to_string()),
    };
    match r.str() {
        Ok(msg) => (kind, msg.to_string()),
        Err(_) => (kind, "unreadable error message".to_string()),
    }
}

/// Everything a worker process holds between requests: at most one
/// partition per relation lineage (the newest shipped epoch wins) and one
/// decoded state blob per `(domain, key)`.
#[derive(Default)]
pub struct WorkerState {
    /// Relation partitions by lineage ident.
    partitions: HashMap<u64, ShippedPartition>,
    /// Decoded encoded-factor state by content fingerprint.
    factors: HashMap<u64, EncodedFactor>,
    /// Decoded EM state (aggregates + features + clusters) by content
    /// fingerprint — the ship-once operands of the per-iteration gram and
    /// E-step scatters.
    em_states: HashMap<u64, EmWorkerState>,
}

impl WorkerState {
    /// Fresh empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of partitions currently held (one per relation lineage).
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Number of factor state blobs currently held.
    pub fn factor_count(&self) -> usize {
        self.factors.len()
    }

    /// Number of EM state blobs currently held.
    pub fn em_state_count(&self) -> usize {
        self.em_states.len()
    }

    /// Handle one request frame, producing the reply frame. `shutdown` is
    /// set when the request asks the process to exit.
    pub fn handle(&mut self, frame: &Frame, shutdown: &mut bool) -> Frame {
        let id = frame.id;
        match frame.kind {
            KIND_PING => Frame::new(KIND_OK, id, Vec::new()),
            KIND_SHUTDOWN => {
                *shutdown = true;
                Frame::new(KIND_OK, id, Vec::new())
            }
            KIND_LOAD_PARTITION => match ship::decode_partition(&frame.body) {
                Ok(part) => {
                    // Newest epoch wins: a re-ship after ingest replaces the
                    // stale partition for that lineage.
                    self.partitions.insert(part.relation.ident(), part);
                    Frame::new(KIND_OK, id, Vec::new())
                }
                Err(e) => Frame::new(
                    KIND_ERROR,
                    id,
                    error_body(WorkerErrorKind::BadRequest, &format!("partition: {e}")),
                ),
            },
            KIND_LOAD_STATE => self.load_state(id, &frame.body),
            KIND_SCATTER => self.scatter(id, &frame.body),
            k => Frame::new(
                KIND_ERROR,
                id,
                error_body(WorkerErrorKind::BadRequest, &format!("kind {k:#04x}")),
            ),
        }
    }

    fn load_state(&mut self, id: u64, body: &[u8]) -> Frame {
        let mut r = Reader::new(body);
        let (domain, key) = match (r.u8(), r.u64()) {
            (Ok(d), Ok(k)) => (d, k),
            _ => {
                return Frame::new(
                    KIND_ERROR,
                    id,
                    error_body(WorkerErrorKind::BadRequest, "state header truncated"),
                )
            }
        };
        // Decode at load time so scatters never pay it and a bad payload
        // fails loudly here, keyed to the exact ship.
        match domain {
            DOMAIN_FACTOR => match payload::decode_factor(&body[9..]) {
                Ok(factor) => {
                    self.factors.insert(key, factor);
                    Frame::new(KIND_OK, id, Vec::new())
                }
                Err(e) => Frame::new(
                    KIND_ERROR,
                    id,
                    error_body(WorkerErrorKind::BadRequest, &format!("factor state: {e}")),
                ),
            },
            DOMAIN_EM => match em_remote::decode_em_state(&body[9..]) {
                Ok(state) => {
                    self.em_states.insert(key, state);
                    Frame::new(KIND_OK, id, Vec::new())
                }
                Err(e) => Frame::new(
                    KIND_ERROR,
                    id,
                    error_body(WorkerErrorKind::BadRequest, &format!("EM state: {e}")),
                ),
            },
            _ => Frame::new(
                KIND_ERROR,
                id,
                error_body(
                    WorkerErrorKind::BadRequest,
                    &format!("unknown state domain {domain}"),
                ),
            ),
        }
    }

    fn scatter(&mut self, id: u64, body: &[u8]) -> Frame {
        let Some((&op, payload_bytes)) = body.split_first() else {
            return Frame::new(
                KIND_ERROR,
                id,
                error_body(WorkerErrorKind::BadRequest, "empty scatter body"),
            );
        };
        match op {
            OP_VIEW_SCAN => self.view_scan(id, payload_bytes),
            OP_AGG_RANGE => self.agg_range(id, payload_bytes),
            OP_GRAM_CELLS => self.em_answer(id, KIND_GRAM_PARTIAL, |s| {
                em_remote::answer_gram_cells(&s.em_states, payload_bytes)
            }),
            OP_CLUSTER_ZTZ => self.em_answer(id, KIND_GRAM_PARTIAL, |s| {
                em_remote::answer_cluster_ztz(&s.em_states, payload_bytes)
            }),
            OP_E_STEP => self.em_answer(id, KIND_ESTEP_PARTIAL, |s| {
                em_remote::answer_e_step(&s.em_states, payload_bytes)
            }),
            _ => Frame::new(
                KIND_ERROR,
                id,
                error_body(
                    WorkerErrorKind::BadRequest,
                    &format!("unknown scatter op {op}"),
                ),
            ),
        }
    }

    /// Run one EM operator and wrap its partial in `reply_kind`, mapping
    /// typed answer errors onto the wire error kinds.
    fn em_answer(
        &self,
        id: u64,
        reply_kind: u8,
        answer: impl FnOnce(&Self) -> Result<Vec<u8>, EmAnswerError>,
    ) -> Frame {
        match answer(self) {
            Ok(partial) => Frame::new(reply_kind, id, partial),
            Err(EmAnswerError::BadRequest(msg)) => Frame::new(
                KIND_ERROR,
                id,
                error_body(WorkerErrorKind::BadRequest, &msg),
            ),
            Err(EmAnswerError::MissingState(key)) => Frame::new(
                KIND_ERROR,
                id,
                error_body(
                    WorkerErrorKind::MissingState,
                    &format!("no EM state under key {key:#018x}"),
                ),
            ),
            Err(EmAnswerError::Compute(msg)) => {
                Frame::new(KIND_ERROR, id, error_body(WorkerErrorKind::Compute, &msg))
            }
        }
    }

    fn view_scan(&self, id: u64, plan: &[u8]) -> Frame {
        // Peek the plan's target lineage to find the partition; the epoch
        // check itself lives in `answer_view_scan`.
        let mut r = Reader::new(plan);
        let Ok(ident) = r.u64() else {
            return Frame::new(
                KIND_ERROR,
                id,
                error_body(WorkerErrorKind::BadRequest, "plan truncated"),
            );
        };
        let Some(partition) = self.partitions.get(&ident) else {
            return Frame::new(
                KIND_ERROR,
                id,
                error_body(
                    WorkerErrorKind::MissingState,
                    &format!("no partition for relation {ident}"),
                ),
            );
        };
        match ship::answer_view_scan(partition, plan) {
            Ok(partial) => Frame::new(KIND_RESULT, id, partial),
            Err(e) => Frame::new(
                KIND_ERROR,
                id,
                error_body(WorkerErrorKind::Compute, &e.to_string()),
            ),
        }
    }

    fn agg_range(&self, id: u64, request: &[u8]) -> Frame {
        let (key, start, len) = match payload::decode_agg_request(request) {
            Ok(parts) => parts,
            Err(e) => {
                return Frame::new(
                    KIND_ERROR,
                    id,
                    error_body(WorkerErrorKind::BadRequest, &format!("agg request: {e}")),
                )
            }
        };
        let Some(factor) = self.factors.get(&key) else {
            return Frame::new(
                KIND_ERROR,
                id,
                error_body(
                    WorkerErrorKind::MissingState,
                    &format!("no factor state under key {key:#018x}"),
                ),
            );
        };
        if start + len > factor.leaf_count() {
            return Frame::new(
                KIND_ERROR,
                id,
                error_body(
                    WorkerErrorKind::Compute,
                    &format!(
                        "range {start}+{len} out of bounds for {} paths",
                        factor.leaf_count()
                    ),
                ),
            );
        }
        let partial = EncodedHierarchyAggregates::compute_range(factor, start, len);
        Frame::new(KIND_RESULT, id, payload::encode_aggregates(&partial))
    }
}

/// Serve one coordinator connection to completion. Returns `true` when a
/// shutdown frame was handled (the caller should stop accepting).
///
/// Frames are answered in arrival order on the same stream, so a
/// coordinator that pipelines N requests reads N replies back in order.
/// Malformed frames get a typed error reply where a request id could be
/// read; an unframeable stream ends the connection.
pub fn serve_connection(state: &mut WorkerState, stream: TcpStream) -> Result<bool, StreamError> {
    let mut reader = stream.try_clone()?;
    let mut writer = BufWriter::new(stream);
    let mut shutdown = false;
    while let Some(frame) = read_frame(&mut reader, &RW)? {
        let reply = state.handle(&frame, &mut shutdown);
        write_frame(&mut writer, &RW, &RW.encode(&reply))?;
        if shutdown {
            break;
        }
    }
    Ok(shutdown)
}

/// The worker accept loop: serve coordinator connections one at a time
/// (state persists across connections) until a shutdown frame arrives.
/// Connection-level errors drop that connection and keep accepting — a
/// wedged or hostile peer must not take the worker down.
pub fn serve(listener: TcpListener) -> std::io::Result<()> {
    let mut state = WorkerState::new();
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        if let Ok(true) = serve_connection(&mut state, stream) {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use reptile_relational::{Relation, Schema, Value};
    use std::sync::Arc;

    fn sample_relation() -> Arc<Relation> {
        let schema = Arc::new(
            Schema::builder()
                .hierarchy("geo", ["district", "village"])
                .measure("m")
                .build()
                .unwrap(),
        );
        let mut b = Relation::builder(schema);
        for (d, v, m) in [
            ("D0", "D0-V0", 1.5),
            ("D0", "D0-V1", 2.5),
            ("D1", "D1-V0", 4.0),
        ] {
            b = b
                .row([Value::str(d), Value::str(v), Value::float(m)])
                .unwrap();
        }
        Arc::new(b.build())
    }

    #[test]
    fn ping_and_shutdown() {
        let mut state = WorkerState::new();
        let mut shutdown = false;
        let reply = state.handle(&Frame::new(KIND_PING, 3, vec![]), &mut shutdown);
        assert_eq!(reply, Frame::new(KIND_OK, 3, vec![]));
        assert!(!shutdown);
        state.handle(&Frame::new(KIND_SHUTDOWN, 4, vec![]), &mut shutdown);
        assert!(shutdown);
    }

    #[test]
    fn partition_load_then_scan_answers_exact_partial() {
        let rel = sample_relation();
        let mut state = WorkerState::new();
        let mut shutdown = false;
        let body = ship::encode_partition(&rel, 0, rel.len());
        let reply = state.handle(&Frame::new(KIND_LOAD_PARTITION, 1, body), &mut shutdown);
        assert_eq!(reply.kind, KIND_OK);
        assert_eq!(state.partition_count(), 1);

        let schema = rel.schema();
        let plan = ship::encode_view_plan(
            rel.ident(),
            rel.version(),
            &reptile_relational::Predicate::all(),
            &[schema.attr("district").unwrap()],
            schema.attr("m").unwrap(),
        );
        let mut scatter_body = vec![OP_VIEW_SCAN];
        scatter_body.extend_from_slice(&plan);
        let reply = state.handle(&Frame::new(KIND_SCATTER, 2, scatter_body), &mut shutdown);
        assert_eq!(reply.kind, KIND_RESULT);
        let partial = ship::decode_view_partial(&reply.body, 1).unwrap();
        assert_eq!(partial.len(), 2); // D0 and D1 groups
        assert_eq!(partial[0].1, vec![1.5, 2.5]);
        assert_eq!(partial[1].1, vec![4.0]);
    }

    #[test]
    fn missing_state_and_bad_requests_answer_typed_errors() {
        let mut state = WorkerState::new();
        let mut shutdown = false;
        // Scan without a partition.
        let rel = sample_relation();
        let plan = ship::encode_view_plan(
            rel.ident(),
            rel.version(),
            &reptile_relational::Predicate::all(),
            &[],
            reptile_relational::AttrId(2),
        );
        let mut body = vec![OP_VIEW_SCAN];
        body.extend_from_slice(&plan);
        let reply = state.handle(&Frame::new(KIND_SCATTER, 1, body), &mut shutdown);
        assert_eq!(reply.kind, KIND_ERROR);
        let (kind, msg) = decode_error_body(&reply.body);
        assert_eq!(kind, WorkerErrorKind::MissingState);
        assert!(msg.contains("no partition"), "{msg}");
        // Garbage partition bytes.
        let reply = state.handle(
            &Frame::new(KIND_LOAD_PARTITION, 2, vec![1, 2, 3]),
            &mut shutdown,
        );
        assert_eq!(reply.kind, KIND_ERROR);
        assert_eq!(
            decode_error_body(&reply.body).0,
            WorkerErrorKind::BadRequest
        );
        // Unknown scatter op.
        let reply = state.handle(&Frame::new(KIND_SCATTER, 3, vec![250, 0]), &mut shutdown);
        assert_eq!(
            decode_error_body(&reply.body).0,
            WorkerErrorKind::BadRequest
        );
        // Empty scatter.
        let reply = state.handle(&Frame::new(KIND_SCATTER, 4, vec![]), &mut shutdown);
        assert_eq!(
            decode_error_body(&reply.body).0,
            WorkerErrorKind::BadRequest
        );
        assert!(!shutdown);
    }

    #[test]
    fn factor_state_load_then_agg_range_round_trips() {
        use reptile_factor::{Exec, HierarchyFactor};
        let factor = HierarchyFactor::from_paths(
            "geo".to_string(),
            vec![reptile_relational::AttrId(0), reptile_relational::AttrId(1)],
            vec![
                vec![Value::str("D0"), Value::str("D0-V0")],
                vec![Value::str("D0"), Value::str("D0-V1")],
                vec![Value::str("D1"), Value::str("D1-V0")],
            ],
        );
        let enc = EncodedFactor::encode(&factor, &Exec::Serial);
        let key = enc.fingerprint();
        let mut state = WorkerState::new();
        let mut shutdown = false;
        let mut body = vec![DOMAIN_FACTOR];
        body.extend_from_slice(&key.to_be_bytes());
        body.extend_from_slice(&payload::encode_factor(&enc));
        let reply = state.handle(&Frame::new(KIND_LOAD_STATE, 1, body), &mut shutdown);
        assert_eq!(reply.kind, KIND_OK, "{:?}", decode_error_body(&reply.body));
        assert_eq!(state.factor_count(), 1);

        let mut scatter = vec![OP_AGG_RANGE];
        scatter.extend_from_slice(&payload::encode_agg_request(key, 1, 2));
        let reply = state.handle(&Frame::new(KIND_SCATTER, 2, scatter), &mut shutdown);
        assert_eq!(reply.kind, KIND_RESULT);
        let partial = payload::decode_aggregates(&reply.body).unwrap();
        assert_eq!(
            partial,
            EncodedHierarchyAggregates::compute_range(&enc, 1, 2)
        );

        // Unknown key is a typed MissingState error.
        let mut scatter = vec![OP_AGG_RANGE];
        scatter.extend_from_slice(&payload::encode_agg_request(key ^ 1, 0, 1));
        let reply = state.handle(&Frame::new(KIND_SCATTER, 3, scatter), &mut shutdown);
        assert_eq!(reply.kind, KIND_ERROR);
        assert_eq!(
            decode_error_body(&reply.body).0,
            WorkerErrorKind::MissingState
        );
    }
}
