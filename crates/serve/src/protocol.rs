//! The front door's "RP" protocol: its frame constant, kind table and
//! request/response body codecs.
//!
//! Framing — length prefix, header, cap, stream reads and writes — is
//! [`reptile_relational::codec`]'s, shared with the worker wire; this
//! module writes bodies with `codec::put_*` and reads them with
//! [`Reader`]. `f64`s travel as [`f64::to_bits`] so a recommendation's
//! scores arrive **bit-identical** (the serving exactness tests compare
//! with `==`, never tolerance); sequences are a `u32` count + elements.
//!
//! **Decode safety.** Every body decoder is total: truncated, garbage,
//! hostile-count and trailing-byte bodies all return a typed
//! [`CodecError`] — never a panic, never a partial read. The round trip
//! (`decode(encode(x)) == x`) and the rejections are property-tested in
//! `tests/protocol_roundtrip.rs`.

use reptile::{Complaint, Direction, Recommendation, ScoredGroup};
use reptile_relational::codec::{
    put_f64, put_str, put_u32, put_u64, put_u8, put_value, CodecError, Frame, FrameSpec, Reader,
};
use reptile_relational::{AggregateKind, GroupKey, Value};

/// Frame kind discriminants (requests low, responses high bit set).
const KIND_PING: u8 = 0;
const KIND_RECOMMEND: u8 = 1;
const KIND_INGEST: u8 = 2;
const KIND_PONG: u8 = 0x80;
const KIND_RECOMMENDATION: u8 = 0x81;
const KIND_ERROR: u8 = 0x82;
const KIND_INGEST_REPORT: u8 = 0x83;

/// The front door's frames: magic `"RP"`, version 1, payloads up to 1 MiB.
pub const RP: FrameSpec = FrameSpec {
    magic: *b"RP",
    version: 1,
    max_len: 1 << 20,
    kinds: &[
        KIND_PING,
        KIND_RECOMMEND,
        KIND_INGEST,
        KIND_PONG,
        KIND_RECOMMENDATION,
        KIND_ERROR,
        KIND_INGEST_REPORT,
    ],
};

// ---------------------------------------------------------------------------
// Wire types
// ---------------------------------------------------------------------------

/// A recommend request as it travels on the wire: the view *definition*
/// (attribute names, not ids — the server resolves them against its schema)
/// plus the complaint and the per-request deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct RecommendRequest {
    /// Equality predicate terms `attribute = value` (conjunction; order is
    /// irrelevant — the server canonicalises).
    pub predicate: Vec<(String, Value)>,
    /// Group-by attribute names of the complaint view.
    pub group_by: Vec<String>,
    /// Measure attribute name.
    pub measure: String,
    /// The complained tuple's group-by key, aligned with `group_by`.
    pub complaint_key: Vec<Value>,
    /// The complained statistic.
    pub statistic: AggregateKind,
    /// The complaint direction.
    pub direction: Direction,
    /// Per-request deadline in milliseconds from admission; `0` means "use
    /// the server's default" (which may be none).
    pub deadline_ms: u32,
    /// Test/ops chaos hook (`""` = none). Honoured only by servers started
    /// with fault injection enabled: `"panic"` panics the handler,
    /// `"sleep:N"` sleeps N ms before evaluating. A server without fault
    /// injection answers a non-empty marker with `BadRequest`.
    pub fault: String,
}

/// An ingest request as it travels on the wire: rows to insert and rows to
/// delete, each a full tuple in schema attribute order. The server applies
/// them as one atomic [`IngestBatch`](reptile_relational::IngestBatch) —
/// one new relation snapshot version, answered with
/// [`Response::IngestReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct IngestRequest {
    /// Rows to insert, each in schema attribute order.
    pub inserts: Vec<Vec<Value>>,
    /// Rows to delete (first match wins, as in
    /// [`IngestBatch::delete`](reptile_relational::IngestBatch::delete)).
    pub deletes: Vec<Vec<Value>>,
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Evaluate a complaint (see [`RecommendRequest`]).
    Recommend(RecommendRequest),
    /// Apply an ingest batch (see [`IngestRequest`]).
    Ingest(IngestRequest),
}

/// A request frame: the caller-chosen id is echoed in the response.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Caller-chosen correlation id, echoed verbatim.
    pub id: u64,
    /// The request.
    pub request: Request,
}

/// Typed failure classes a server can answer with. Rejections
/// (`Overloaded`, `DeadlineExceeded`) are the backpressure surface: a
/// rejected request **never** receives data, only one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeErrorKind {
    /// Refused at admission: the pending ledger is full (or the server is
    /// shutting down). Retry later, ideally with backoff.
    Overloaded,
    /// The per-request deadline expired before a result could be sent.
    DeadlineExceeded,
    /// The request was well-framed but invalid (unknown attribute, arity
    /// mismatch, fault marker without fault injection, undecodable frame).
    BadRequest,
    /// The engine evaluated the request and returned an error (e.g. the
    /// complaint tuple does not exist in the view).
    Engine,
    /// The request handler panicked; the connection remains usable.
    Internal,
}

impl ServeErrorKind {
    fn to_tag(self) -> u8 {
        match self {
            ServeErrorKind::Overloaded => 0,
            ServeErrorKind::DeadlineExceeded => 1,
            ServeErrorKind::BadRequest => 2,
            ServeErrorKind::Engine => 3,
            ServeErrorKind::Internal => 4,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, CodecError> {
        Ok(match tag {
            0 => ServeErrorKind::Overloaded,
            1 => ServeErrorKind::DeadlineExceeded,
            2 => ServeErrorKind::BadRequest,
            3 => ServeErrorKind::Engine,
            4 => ServeErrorKind::Internal,
            t => return Err(CodecError::BadTag(t)),
        })
    }
}

impl std::fmt::Display for ServeErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ServeErrorKind::Overloaded => "overloaded",
            ServeErrorKind::DeadlineExceeded => "deadline_exceeded",
            ServeErrorKind::BadRequest => "bad_request",
            ServeErrorKind::Engine => "engine",
            ServeErrorKind::Internal => "internal",
        };
        f.write_str(name)
    }
}

/// One scored group of a recommendation, wire-shaped: all `f64`s travel as
/// bit patterns, so the client reconstructs the server's scores exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct WireScoredGroup {
    /// Name of the hierarchy this group belongs to.
    pub hierarchy: String,
    /// The attribute added by the drill-down.
    pub added_attribute: String,
    /// The group key in the drilled-down view.
    pub key: Vec<Value>,
    /// Observed value of the complained statistic for the group.
    pub observed: f64,
    /// Model-estimated expected value of the statistic.
    pub expected: f64,
    /// Value of the complaint tuple's statistic after repairing this group.
    pub repaired_complaint_value: f64,
    /// Complaint penalty after the repair (lower is better).
    pub penalty: f64,
    /// Improvement over the unrepaired complaint penalty.
    pub improvement: f64,
}

/// A recommendation as it travels on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireRecommendation {
    /// The complaint tuple's original statistic value.
    pub original_value: f64,
    /// The relation snapshot version the request was evaluated over —
    /// under concurrent ingest, the version to recompute against when
    /// verifying this response bit-exactly.
    pub relation_version: u64,
    /// All groups across hierarchies, best first, truncated to the
    /// engine's `top_k`.
    pub ranked: Vec<WireScoredGroup>,
}

impl WireRecommendation {
    /// Project an engine [`Recommendation`] onto the wire shape.
    pub fn from_recommendation(rec: &Recommendation, relation_version: u64) -> Self {
        WireRecommendation {
            original_value: rec.original_value,
            relation_version,
            ranked: rec
                .ranked
                .iter()
                .map(WireScoredGroup::from_scored)
                .collect(),
        }
    }
}

impl WireScoredGroup {
    /// Project an engine [`ScoredGroup`] onto the wire shape.
    pub fn from_scored(g: &ScoredGroup) -> Self {
        WireScoredGroup {
            hierarchy: g.hierarchy.clone(),
            added_attribute: g.added_attribute.clone(),
            key: g.key.values().to_vec(),
            observed: g.observed,
            expected: g.expected,
            repaired_complaint_value: g.repaired_complaint_value,
            penalty: g.penalty,
            improvement: g.improvement,
        }
    }
}

/// An ingest report as it travels on the wire: the same fields every
/// in-process ingest surface reports
/// ([`reptile::IngestReport`]), minus the relation
/// handle (the version stands in for it across the wire).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireIngestReport {
    /// Rows inserted by the batch.
    pub inserted: u64,
    /// Rows deleted by the batch.
    pub deleted: u64,
    /// The post-ingest relation snapshot version.
    pub relation_version: u64,
    /// Hierarchies whose distinct full-depth path set changed.
    pub touched_hierarchies: Vec<String>,
}

impl WireIngestReport {
    /// Project an engine [`reptile::IngestReport`] onto the wire shape.
    pub fn from_report(report: &reptile::IngestReport) -> Self {
        WireIngestReport {
            inserted: report.inserted as u64,
            deleted: report.deleted as u64,
            relation_version: report.relation.version(),
            touched_hierarchies: report.touched_hierarchies.clone(),
        }
    }
}

/// A decoded response frame body.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// A successful evaluation.
    Recommendation(WireRecommendation),
    /// A typed failure (see [`ServeErrorKind`]).
    Error {
        /// The failure class.
        kind: ServeErrorKind,
        /// Human-readable detail.
        message: String,
    },
    /// Answer to [`Request::Ingest`]: the batch was applied atomically.
    IngestReport(WireIngestReport),
}

/// A response frame: `id` echoes the request's (0 for a malformed frame,
/// whose id is not trusted).
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// The request id this answers (0 for a malformed frame).
    pub id: u64,
    /// The response body.
    pub response: Response,
}

// ---------------------------------------------------------------------------
// Complaint helpers
// ---------------------------------------------------------------------------

impl RecommendRequest {
    /// The request's complaint, with the wire key re-wrapped as a
    /// [`GroupKey`].
    pub fn complaint(&self) -> Complaint {
        Complaint {
            key: GroupKey(self.complaint_key.clone()),
            statistic: self.statistic,
            direction: self.direction,
        }
    }
}

impl IngestRequest {
    /// The request's rows as an engine
    /// [`IngestBatch`](reptile_relational::IngestBatch).
    pub fn batch(&self) -> reptile_relational::IngestBatch {
        let mut batch = reptile_relational::IngestBatch::new();
        for row in &self.inserts {
            batch = batch.insert(row.clone());
        }
        for row in &self.deletes {
            batch = batch.delete(row.clone());
        }
        batch
    }
}

fn statistic_tag(kind: AggregateKind) -> u8 {
    match kind {
        AggregateKind::Count => 0,
        AggregateKind::Sum => 1,
        AggregateKind::Mean => 2,
        AggregateKind::Std => 3,
        AggregateKind::Var => 4,
        AggregateKind::Min => 5,
        AggregateKind::Max => 6,
    }
}

fn statistic_from_tag(tag: u8) -> Result<AggregateKind, CodecError> {
    Ok(match tag {
        0 => AggregateKind::Count,
        1 => AggregateKind::Sum,
        2 => AggregateKind::Mean,
        3 => AggregateKind::Std,
        4 => AggregateKind::Var,
        5 => AggregateKind::Min,
        6 => AggregateKind::Max,
        t => return Err(CodecError::BadTag(t)),
    })
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_values(out: &mut Vec<u8>, values: &[Value]) {
    put_u32(out, values.len() as u32);
    for v in values {
        put_value(out, v);
    }
}

/// Encode a request frame's payload (everything after the length prefix),
/// ready for [`write_frame`](reptile_relational::codec::write_frame) with
/// [`RP`].
pub fn encode_request(frame: &RequestFrame) -> Vec<u8> {
    match &frame.request {
        Request::Ping => RP.header(KIND_PING, frame.id),
        Request::Recommend(req) => {
            let mut out = RP.header(KIND_RECOMMEND, frame.id);
            put_u32(&mut out, req.predicate.len() as u32);
            for (attr, value) in &req.predicate {
                put_str(&mut out, attr);
                put_value(&mut out, value);
            }
            put_u32(&mut out, req.group_by.len() as u32);
            for attr in &req.group_by {
                put_str(&mut out, attr);
            }
            put_str(&mut out, &req.measure);
            put_values(&mut out, &req.complaint_key);
            put_u8(&mut out, statistic_tag(req.statistic));
            let (tag, target) = match req.direction {
                Direction::TooHigh => (0, 0.0),
                Direction::TooLow => (1, 0.0),
                Direction::ShouldBe(target) => (2, target),
            };
            put_u8(&mut out, tag);
            put_f64(&mut out, target);
            put_u32(&mut out, req.deadline_ms);
            put_str(&mut out, &req.fault);
            out
        }
        Request::Ingest(req) => {
            let mut out = RP.header(KIND_INGEST, frame.id);
            for rows in [&req.inserts, &req.deletes] {
                put_u32(&mut out, rows.len() as u32);
                for row in rows {
                    put_values(&mut out, row);
                }
            }
            out
        }
    }
}

/// Encode a response frame's payload (everything after the length prefix),
/// ready for [`write_frame`](reptile_relational::codec::write_frame) with
/// [`RP`].
pub fn encode_response(frame: &ResponseFrame) -> Vec<u8> {
    match &frame.response {
        Response::Pong => RP.header(KIND_PONG, frame.id),
        Response::Recommendation(rec) => {
            let mut out = RP.header(KIND_RECOMMENDATION, frame.id);
            put_f64(&mut out, rec.original_value);
            put_u64(&mut out, rec.relation_version);
            put_u32(&mut out, rec.ranked.len() as u32);
            for g in &rec.ranked {
                put_str(&mut out, &g.hierarchy);
                put_str(&mut out, &g.added_attribute);
                put_values(&mut out, &g.key);
                put_f64(&mut out, g.observed);
                put_f64(&mut out, g.expected);
                put_f64(&mut out, g.repaired_complaint_value);
                put_f64(&mut out, g.penalty);
                put_f64(&mut out, g.improvement);
            }
            out
        }
        Response::Error { kind, message } => {
            let mut out = RP.header(KIND_ERROR, frame.id);
            put_u8(&mut out, kind.to_tag());
            put_str(&mut out, message);
            out
        }
        Response::IngestReport(report) => {
            let mut out = RP.header(KIND_INGEST_REPORT, frame.id);
            put_u64(&mut out, report.inserted);
            put_u64(&mut out, report.deleted);
            put_u64(&mut out, report.relation_version);
            put_u32(&mut out, report.touched_hierarchies.len() as u32);
            for name in &report.touched_hierarchies {
                put_str(&mut out, name);
            }
            out
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

fn read_string(r: &mut Reader<'_>) -> Result<String, CodecError> {
    r.str().map(str::to_owned)
}

fn read_values(r: &mut Reader<'_>) -> Result<Vec<Value>, CodecError> {
    let n = r.count(1)?;
    (0..n).map(|_| r.value()).collect()
}

/// `n` elements read by `read`, after a count validated against the bytes
/// left (each element takes at least `min_len` bytes).
fn read_seq<T>(
    r: &mut Reader<'_>,
    min_len: usize,
    mut read: impl FnMut(&mut Reader<'_>) -> Result<T, CodecError>,
) -> Result<Vec<T>, CodecError> {
    let n = r.count(min_len)?;
    (0..n).map(|_| read(r)).collect()
}

/// Decode a request from an [`RP`] frame. A response kind is rejected as
/// [`CodecError::Invalid`].
pub fn decode_request(frame: &Frame) -> Result<RequestFrame, CodecError> {
    let mut r = Reader::new(&frame.body);
    let request = match frame.kind {
        KIND_PING => Request::Ping,
        KIND_RECOMMEND => {
            // attr (≥4) + value tag (1)
            let predicate = read_seq(&mut r, 5, |r| Ok((read_string(r)?, r.value()?)))?;
            let group_by = read_seq(&mut r, 4, read_string)?;
            let measure = read_string(&mut r)?;
            let complaint_key = read_values(&mut r)?;
            let statistic = statistic_from_tag(r.u8()?)?;
            let direction = match (r.u8()?, r.f64()?) {
                (0, _) => Direction::TooHigh,
                (1, _) => Direction::TooLow,
                (2, target) => Direction::ShouldBe(target),
                (t, _) => return Err(CodecError::BadTag(t)),
            };
            Request::Recommend(RecommendRequest {
                predicate,
                group_by,
                measure,
                complaint_key,
                statistic,
                direction,
                deadline_ms: r.u32()?,
                fault: read_string(&mut r)?,
            })
        }
        KIND_INGEST => Request::Ingest(IngestRequest {
            inserts: read_seq(&mut r, 4, read_values)?,
            deletes: read_seq(&mut r, 4, read_values)?,
        }),
        k => {
            return Err(CodecError::Invalid(format!(
                "kind {k:#04x} is not a request"
            )))
        }
    };
    r.finish()?;
    Ok(RequestFrame {
        id: frame.id,
        request,
    })
}

/// Decode a response from an [`RP`] frame. A request kind is rejected as
/// [`CodecError::Invalid`].
pub fn decode_response(frame: &Frame) -> Result<ResponseFrame, CodecError> {
    let mut r = Reader::new(&frame.body);
    let response = match frame.kind {
        KIND_PONG => Response::Pong,
        KIND_RECOMMENDATION => Response::Recommendation(WireRecommendation {
            original_value: r.f64()?,
            relation_version: r.u64()?,
            ranked: read_seq(&mut r, 8, |r| {
                Ok(WireScoredGroup {
                    hierarchy: read_string(r)?,
                    added_attribute: read_string(r)?,
                    key: read_values(r)?,
                    observed: r.f64()?,
                    expected: r.f64()?,
                    repaired_complaint_value: r.f64()?,
                    penalty: r.f64()?,
                    improvement: r.f64()?,
                })
            })?,
        }),
        KIND_ERROR => Response::Error {
            kind: ServeErrorKind::from_tag(r.u8()?)?,
            message: read_string(&mut r)?,
        },
        KIND_INGEST_REPORT => Response::IngestReport(WireIngestReport {
            inserted: r.u64()?,
            deleted: r.u64()?,
            relation_version: r.u64()?,
            touched_hierarchies: read_seq(&mut r, 4, read_string)?,
        }),
        k => {
            return Err(CodecError::Invalid(format!(
                "kind {k:#04x} is not a response"
            )))
        }
    };
    r.finish()?;
    Ok(ResponseFrame {
        id: frame.id,
        response,
    })
}
