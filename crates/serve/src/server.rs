//! The TCP front door: accept loop, admission control, deadlines, drain.
//!
//! One [`Server`] owns a `TcpListener`, one accept thread, and one reader
//! thread per connection. Readers do only cheap work (decode, resolve
//! attribute names, admission); every admitted request becomes **one
//! may-block job on the process-wide shard pool**
//! ([`reptile_relational::spawn_pool_job`]) — the pool is the process's
//! only scheduler, so request evaluation and the shard scatters it
//! triggers share a single queue and worker set (the one-scheduler
//! invariant).
//!
//! **Admission & the ledger.** `max_pending` bounds the requests admitted
//! but not yet terminal. At the door, a request's
//! [`RequestSignature`] (the same dedup key `BatchServer::serve` uses) is
//! checked **before** the bound: a duplicate of an in-flight request joins
//! that request's waiter list without consuming a pending slot. A full
//! ledger refuses with a typed [`ServeErrorKind::Overloaded`]. Every
//! admitted request reaches exactly one terminal state — counted so that
//! on shutdown `admitted == completed + rejected + drained` (asserted by
//! [`ServeLedger::conserved`] and the serving test battery).
//!
//! **Deadlines.** A request's deadline (its own `deadline_ms`, else the
//! server default) is checked when its job starts and again per waiter
//! before each response: an expired request gets a typed
//! [`ServeErrorKind::DeadlineExceeded`] — never data, never silence.
//!
//! **Drain.** [`Server::shutdown`] stops admission (refusals are typed
//! `Overloaded`), evaluates nothing new — admitted-but-unstarted requests
//! get a typed drained response — lets in-flight evaluations finish and
//! deliver their responses, then joins every thread and returns the final
//! ledger.

use crate::protocol::{
    decode_request, encode_response, RecommendRequest, Request, Response, ResponseFrame,
    ServeErrorKind, WireIngestReport, WireRecommendation, RP,
};
use reptile::{Complaint, IngestReport, Reptile, Result as EngineResult, ViewKey};
use reptile_obs as obs;
use reptile_relational::codec::{read_frame, write_frame, FrameError, StreamError};
use reptile_relational::{spawn_pool_job, AttrId, IngestBatch, Predicate};
use reptile_session::{BatchRequest, BatchServer, RequestSignature};
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Front-door configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shard-pool workers to guarantee (the pool never shrinks; other
    /// components may have grown it further). Serving dispatches to the
    /// pool even on a single-core host — requests overlap blocked time,
    /// not just compute.
    pub workers: usize,
    /// Bound on requests admitted but not yet terminal. Distinct in-flight
    /// signatures consume one slot each; duplicates join free.
    pub max_pending: usize,
    /// Default per-request deadline in ms applied when a request carries
    /// `deadline_ms == 0`. `0` here means no default deadline.
    pub default_deadline_ms: u32,
    /// Bound on requests sharing one in-flight evaluation (the original
    /// plus its dedup joins). Joins past the cap are refused with a typed
    /// `Overloaded` — without it, hammering one slow signature would grow
    /// an unbounded waiter list that `max_pending` never sees.
    pub max_waiters_per_request: usize,
    /// Write timeout in ms applied to every connection's stream. A client
    /// that stops reading (full TCP window) fails the blocked send after
    /// this long and the connection is dropped, instead of wedging a pool
    /// worker (and shutdown) forever. `0` means no timeout.
    pub write_timeout_ms: u64,
    /// Honour the wire `fault` markers (`"panic"`, `"sleep:N"`) — test and
    /// chaos tooling only. Off: a non-empty marker is a `BadRequest`.
    pub fault_injection: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().max(2))
                .unwrap_or(2),
            max_pending: 64,
            default_deadline_ms: 0,
            max_waiters_per_request: 32,
            write_timeout_ms: 5_000,
            fault_injection: false,
        }
    }
}

/// Final (or live) snapshot of the front door's request accounting.
///
/// Conservation: every admitted request is terminal exactly once, so once
/// the server is quiescent `admitted == completed + rejected + drained`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeLedger {
    /// Recommend requests that decoded and resolved successfully.
    pub received: u64,
    /// Requests admitted (including duplicates joined onto an in-flight
    /// evaluation).
    pub admitted: u64,
    /// Admissions that joined an in-flight signature without consuming a
    /// pending slot (subset of `admitted`).
    pub dedup_joined: u64,
    /// Admitted requests answered with an evaluated outcome — a
    /// recommendation, an engine error, or a contained handler panic.
    pub completed: u64,
    /// Admitted requests rejected with a typed `DeadlineExceeded`.
    pub rejected: u64,
    /// Admitted requests answered with a typed drain response because
    /// shutdown began before their evaluation started.
    pub drained: u64,
    /// Requests refused at the door with a typed `Overloaded` (never
    /// admitted; not part of the conservation sum).
    pub overloaded: u64,
    /// Malformed frames answered with a typed protocol error.
    pub protocol_errors: u64,
    /// Well-framed requests refused as `BadRequest` (unknown attribute,
    /// arity mismatch, fault marker without fault injection).
    pub bad_requests: u64,
}

impl ServeLedger {
    /// Whether the conservation law holds: `admitted == completed +
    /// rejected + drained`. Only meaningful at quiescence (after
    /// [`Server::shutdown`]).
    pub fn conserved(&self) -> bool {
        self.admitted == self.completed + self.rejected + self.drained
    }
}

/// Atomic cells behind [`ServeLedger`].
#[derive(Default)]
struct LedgerCells {
    received: AtomicU64,
    admitted: AtomicU64,
    dedup_joined: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    drained: AtomicU64,
    overloaded: AtomicU64,
    protocol_errors: AtomicU64,
    bad_requests: AtomicU64,
}

impl LedgerCells {
    fn snapshot(&self) -> ServeLedger {
        ServeLedger {
            received: self.received.load(Ordering::SeqCst),
            admitted: self.admitted.load(Ordering::SeqCst),
            dedup_joined: self.dedup_joined.load(Ordering::SeqCst),
            completed: self.completed.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
            drained: self.drained.load(Ordering::SeqCst),
            overloaded: self.overloaded.load(Ordering::SeqCst),
            protocol_errors: self.protocol_errors.load(Ordering::SeqCst),
            bad_requests: self.bad_requests.load(Ordering::SeqCst),
        }
    }
}

/// Outbound error messages are clamped to this many bytes before encoding.
/// Error detail can echo client-supplied text (a fault marker, an unknown
/// attribute name) from a request near the [`RP`] frame cap;
/// unbounded, the echo plus response overhead would push the response frame
/// past the cap.
const MAX_ERROR_MESSAGE_LEN: usize = 2048;

/// Clamp an error message to [`MAX_ERROR_MESSAGE_LEN`] bytes (on a char
/// boundary), marking the cut.
fn truncate_error_message(message: &mut String) {
    if message.len() <= MAX_ERROR_MESSAGE_LEN {
        return;
    }
    let mut end = MAX_ERROR_MESSAGE_LEN;
    while !message.is_char_boundary(end) {
        end -= 1;
    }
    message.truncate(end);
    message.push_str("… [truncated]");
}

/// One client connection's write half (readers own their clone of the
/// stream). Responses from pool jobs and the reader interleave through the
/// mutex, one whole frame at a time.
struct Conn {
    writer: Mutex<TcpStream>,
}

impl Conn {
    /// A poisoned writer lock is still a usable `TcpStream` — recover it
    /// rather than cascading one send's panic into every other waiter on
    /// the connection (and into shutdown).
    fn lock_writer(&self) -> std::sync::MutexGuard<'_, TcpStream> {
        self.writer.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Best-effort frame send: a vanished client must not fail the server.
    fn send(&self, mut frame: ResponseFrame) {
        if let Response::Error { message, .. } = &mut frame.response {
            truncate_error_message(message);
        }
        let mut payload = encode_response(&frame);
        if payload.len() > RP.max_len as usize {
            // Backstop for any other over-cap response (e.g. a pathological
            // recommendation): the waiter still gets a typed answer, never
            // an unframeable one.
            payload = encode_response(&ResponseFrame {
                id: frame.id,
                response: Response::Error {
                    kind: ServeErrorKind::Internal,
                    message: "response exceeded the frame cap".into(),
                },
            });
        }
        let mut writer = self.lock_writer();
        if write_frame(&mut *writer, &RP, &payload).is_err() {
            // The client vanished or stopped reading past the write
            // timeout: the connection is unusable. Close both halves so
            // its reader exits instead of feeding more requests into a
            // stream nobody drains.
            let _ = writer.shutdown(Shutdown::Both);
        }
    }

    fn shutdown_read(&self) {
        let writer = self.lock_writer();
        let _ = writer.shutdown(Shutdown::Read);
    }
}

/// A request waiting on an in-flight evaluation.
struct Waiter {
    conn: Arc<Conn>,
    id: u64,
    deadline: Option<Instant>,
}

/// A wire request resolved against the schema: everything a pool job needs.
struct ResolvedRequest {
    predicate: Predicate,
    group_by: Vec<AttrId>,
    measure: AttrId,
    complaint: Complaint,
    fault: String,
}

/// Admission-time dedup key: the session-layer [`RequestSignature`] scoped
/// by the relation version seen at admission. The version matters because
/// `ViewKey`'s relation identity is the lineage ident, which is *stable
/// across ingest snapshots* — without the version, a request admitted
/// after an ingest could join an evaluation started before it and silently
/// receive pre-admission data. (The cache layer keeps the lineage-keyed
/// signature on purpose: its entries are invalidated exactly; admission
/// dedup has no such hook, so it must never cross an ingest boundary.)
type DedupKey = (u64, RequestSignature);

struct ServeState {
    /// Admitted, not yet terminal (in-flight signatures; dedup joins don't
    /// add to this).
    pending: usize,
    /// In-flight evaluations by dedup key; the value is everyone
    /// waiting on the result.
    inflight: HashMap<DedupKey, Vec<Waiter>>,
    conns: Vec<Arc<Conn>>,
    readers: Vec<JoinHandle<()>>,
}

struct Core {
    batch: BatchServer,
    config: ServeConfig,
    state: Mutex<ServeState>,
    /// Signalled whenever `pending` decreases (shutdown waits on it).
    quiesced: Condvar,
    shutting_down: AtomicBool,
    ledger: LedgerCells,
}

impl Core {
    fn set_pending_gauges(&self, pending: usize) {
        obs::gauge_set(obs::Gauge::ServePendingDepth, pending as u64);
        obs::gauge_max(obs::Gauge::ServePendingDepthMax, pending as u64);
    }

    fn resolve(&self, req: &RecommendRequest) -> Result<ResolvedRequest, String> {
        if !req.fault.is_empty() && !self.config.fault_injection {
            return Err(format!(
                "fault marker {:?} requires a server with fault injection enabled",
                req.fault
            ));
        }
        let relation = self.batch.engine().relation();
        let schema = relation.schema();
        let mut predicate = Predicate::all();
        for (name, value) in &req.predicate {
            let attr = schema.attr(name).map_err(|e| e.to_string())?;
            predicate = predicate.and_eq(attr, value.clone());
        }
        let mut group_by = Vec::with_capacity(req.group_by.len());
        for name in &req.group_by {
            group_by.push(schema.attr(name).map_err(|e| e.to_string())?);
        }
        if req.complaint_key.len() != group_by.len() {
            return Err(format!(
                "complaint key arity {} does not match group-by arity {}",
                req.complaint_key.len(),
                group_by.len()
            ));
        }
        let measure = schema.attr(&req.measure).map_err(|e| e.to_string())?;
        Ok(ResolvedRequest {
            predicate,
            group_by,
            measure,
            complaint: req.complaint(),
            fault: req.fault.clone(),
        })
    }

    /// The dedup key admission checks — the *same* [`RequestSignature`]
    /// `BatchServer::serve` collapses duplicates with (built before any
    /// view exists), scoped by the relation version seen at admission so
    /// joins never cross an ingest boundary (see [`DedupKey`]).
    fn signature(&self, resolved: &ResolvedRequest) -> DedupKey {
        let relation = self.batch.engine().relation();
        let key = ViewKey::new(
            &relation,
            &resolved.predicate,
            resolved.group_by.clone(),
            resolved.measure,
        );
        (
            relation.version(),
            RequestSignature::from_parts(key, &resolved.complaint),
        )
    }

    /// Admit (or refuse) one resolved request from a reader thread.
    fn admit(self: &Arc<Self>, resolved: ResolvedRequest, waiter: Waiter) {
        self.ledger.received.fetch_add(1, Ordering::SeqCst);
        let sig = self.signature(&resolved);
        let mut state = self.state.lock().expect("serve state lock");
        if self.shutting_down.load(Ordering::SeqCst) {
            drop(state);
            self.ledger.overloaded.fetch_add(1, Ordering::SeqCst);
            obs::add_counter(obs::Counter::ServeOverloaded, 1);
            waiter.conn.send(ResponseFrame {
                id: waiter.id,
                response: Response::Error {
                    kind: ServeErrorKind::Overloaded,
                    message: "server is shutting down".into(),
                },
            });
            return;
        }
        if let Some(waiters) = state.inflight.get_mut(&sig) {
            // Dedup before admission control: a duplicate of an in-flight
            // request is admitted onto its waiter list without consuming a
            // pending slot, so duplicates can never trip the bound — up to
            // the per-signature waiter cap, past which joins are refused
            // typed (free joins must not become an unbounded bypass).
            if waiters.len() >= self.config.max_waiters_per_request.max(1) {
                drop(state);
                self.ledger.overloaded.fetch_add(1, Ordering::SeqCst);
                obs::add_counter(obs::Counter::ServeOverloaded, 1);
                waiter.conn.send(ResponseFrame {
                    id: waiter.id,
                    response: Response::Error {
                        kind: ServeErrorKind::Overloaded,
                        message: format!(
                            "in-flight request already has {} waiters",
                            self.config.max_waiters_per_request
                        ),
                    },
                });
                return;
            }
            waiters.push(waiter);
            drop(state);
            self.ledger.admitted.fetch_add(1, Ordering::SeqCst);
            self.ledger.dedup_joined.fetch_add(1, Ordering::SeqCst);
            obs::add_counter(obs::Counter::ServeAdmitted, 1);
            obs::add_counter(obs::Counter::ServeDedupJoined, 1);
            return;
        }
        if state.pending >= self.config.max_pending {
            drop(state);
            self.ledger.overloaded.fetch_add(1, Ordering::SeqCst);
            obs::add_counter(obs::Counter::ServeOverloaded, 1);
            waiter.conn.send(ResponseFrame {
                id: waiter.id,
                response: Response::Error {
                    kind: ServeErrorKind::Overloaded,
                    message: format!(
                        "pending ledger full ({} in flight)",
                        self.config.max_pending
                    ),
                },
            });
            return;
        }
        state.pending += 1;
        self.set_pending_gauges(state.pending);
        state.inflight.insert(sig.clone(), vec![waiter]);
        drop(state);
        self.ledger.admitted.fetch_add(1, Ordering::SeqCst);
        obs::add_counter(obs::Counter::ServeAdmitted, 1);
        let core = Arc::clone(self);
        spawn_pool_job(self.config.workers, true, move || {
            core.run_request(sig, resolved);
        });
    }

    /// Terminal bookkeeping shared by every response path.
    fn finish_waiter(&self, waiter: &Waiter, response: Response, class: Terminal) {
        match class {
            Terminal::Completed => {
                self.ledger.completed.fetch_add(1, Ordering::SeqCst);
                obs::add_counter(obs::Counter::ServeCompleted, 1);
            }
            Terminal::Rejected => {
                self.ledger.rejected.fetch_add(1, Ordering::SeqCst);
                obs::add_counter(obs::Counter::ServeDeadlineExpired, 1);
            }
            Terminal::Drained => {
                self.ledger.drained.fetch_add(1, Ordering::SeqCst);
                obs::add_counter(obs::Counter::ServeDrained, 1);
            }
        }
        waiter.conn.send(ResponseFrame {
            id: waiter.id,
            response,
        });
    }

    /// Evaluate one admitted signature on a pool worker.
    fn run_request(self: &Arc<Self>, sig: DedupKey, resolved: ResolvedRequest) {
        let now = Instant::now();
        let mut expired: Vec<Waiter> = Vec::new();
        let evaluate;
        {
            let mut state = self.state.lock().expect("serve state lock");
            if self.shutting_down.load(Ordering::SeqCst) {
                // Admitted before shutdown, evaluation not yet started:
                // drain with a typed response instead of computing.
                let waiters = state.inflight.remove(&sig).unwrap_or_default();
                state.pending -= 1;
                self.set_pending_gauges(state.pending);
                drop(state);
                for waiter in &waiters {
                    self.finish_waiter(
                        waiter,
                        Response::Error {
                            kind: ServeErrorKind::Overloaded,
                            message: "server shut down before evaluation; request drained".into(),
                        },
                        Terminal::Drained,
                    );
                }
                self.quiesced.notify_all();
                return;
            }
            let waiters = state.inflight.get_mut(&sig).expect("admitted entry");
            // Skip evaluation for waiters already past their deadline; if
            // nobody is left the whole evaluation is skipped (check and
            // entry removal are atomic under the state lock).
            let mut i = 0;
            while i < waiters.len() {
                if waiters[i].deadline.is_some_and(|d| now >= d) {
                    expired.push(waiters.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            evaluate = !waiters.is_empty();
            if !evaluate {
                state.inflight.remove(&sig);
                state.pending -= 1;
                self.set_pending_gauges(state.pending);
            }
        }
        for waiter in &expired {
            self.finish_waiter(
                waiter,
                Response::Error {
                    kind: ServeErrorKind::DeadlineExceeded,
                    message: "deadline expired before evaluation started".into(),
                },
                Terminal::Rejected,
            );
        }
        if !evaluate {
            self.quiesced.notify_all();
            return;
        }

        // Evaluate outside the lock. Panics are contained here and become a
        // typed Internal response; the pool worker survives regardless.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if !resolved.fault.is_empty() {
                apply_fault(&resolved.fault);
            }
            let view = self.batch.resolve_view(
                resolved.predicate.clone(),
                resolved.group_by.clone(),
                resolved.measure,
            )?;
            let version = view.relation().version();
            let request = BatchRequest::new(view, resolved.complaint.clone());
            self.batch
                .serve_one(&request)
                .map(|rec| WireRecommendation::from_recommendation(&rec, version))
        }));

        let waiters = {
            let mut state = self.state.lock().expect("serve state lock");
            let waiters = state.inflight.remove(&sig).unwrap_or_default();
            state.pending -= 1;
            self.set_pending_gauges(state.pending);
            waiters
        };
        let done = Instant::now();
        for waiter in &waiters {
            // A result after the deadline is never delivered as data — the
            // contract is a typed error, checked per waiter.
            if waiter.deadline.is_some_and(|d| done >= d) {
                self.finish_waiter(
                    waiter,
                    Response::Error {
                        kind: ServeErrorKind::DeadlineExceeded,
                        message: "deadline expired during evaluation".into(),
                    },
                    Terminal::Rejected,
                );
                continue;
            }
            let response = match &outcome {
                Ok(Ok(rec)) => Response::Recommendation(rec.clone()),
                Ok(Err(engine_err)) => Response::Error {
                    kind: ServeErrorKind::Engine,
                    message: engine_err.to_string(),
                },
                Err(_) => Response::Error {
                    kind: ServeErrorKind::Internal,
                    message: "request handler panicked; connection remains serviceable".into(),
                },
            };
            self.finish_waiter(waiter, response, Terminal::Completed);
        }
        self.quiesced.notify_all();
    }

    /// Count a malformed frame and answer it with a typed `BadRequest` under
    /// id 0 (the request id is not trusted).
    fn protocol_error(&self, conn: &Conn, message: String) {
        self.ledger.protocol_errors.fetch_add(1, Ordering::SeqCst);
        obs::add_counter(obs::Counter::ServeProtocolErrors, 1);
        conn.send(ResponseFrame {
            id: 0,
            response: Response::Error {
                kind: ServeErrorKind::BadRequest,
                message,
            },
        });
    }

    /// One connection's read loop: decode frames, answer pings, admit
    /// recommend requests. Returns when the peer closes (or shutdown
    /// closes the read half).
    fn reader_loop(self: &Arc<Self>, mut stream: TcpStream, conn: Arc<Conn>) {
        loop {
            let frame = match read_frame(&mut stream, &RP) {
                Ok(Some(frame)) => frame,
                Ok(None) => return,
                Err(err @ StreamError::Frame(FrameError::UnknownKind(_))) => {
                    // The whole frame was read: the next one can still
                    // parse, so answer typed and keep the connection.
                    self.protocol_error(&conn, err.to_string());
                    continue;
                }
                Err(err) => {
                    // Framing is lost (truncation, oversize, bad magic or
                    // version, transport failure): no resync point, drop
                    // the connection.
                    self.protocol_error(&conn, err.to_string());
                    return;
                }
            };
            let frame = match decode_request(&frame) {
                Ok(frame) => frame,
                Err(err) => {
                    // The frame was well-delimited and its header checked;
                    // only the body is bad. Answer typed and keep reading.
                    self.protocol_error(&conn, err.to_string());
                    continue;
                }
            };
            match frame.request {
                Request::Ping => conn.send(ResponseFrame {
                    id: frame.id,
                    response: Response::Pong,
                }),
                Request::Recommend(req) => {
                    let resolved = match self.resolve(&req) {
                        Ok(resolved) => resolved,
                        Err(message) => {
                            self.ledger.bad_requests.fetch_add(1, Ordering::SeqCst);
                            conn.send(ResponseFrame {
                                id: frame.id,
                                response: Response::Error {
                                    kind: ServeErrorKind::BadRequest,
                                    message,
                                },
                            });
                            continue;
                        }
                    };
                    let deadline_ms = if req.deadline_ms > 0 {
                        req.deadline_ms
                    } else {
                        self.config.default_deadline_ms
                    };
                    let deadline = (deadline_ms > 0)
                        .then(|| Instant::now() + Duration::from_millis(u64::from(deadline_ms)));
                    self.admit(
                        resolved,
                        Waiter {
                            conn: Arc::clone(&conn),
                            id: frame.id,
                            deadline,
                        },
                    );
                }
                Request::Ingest(req) => {
                    // Ingest runs inline on the reader: per-connection
                    // ordering (a client's ingest happens-before its next
                    // recommend) falls out of the loop, and the engine's
                    // ingest path is already safe under concurrent serving.
                    if self.shutting_down.load(Ordering::SeqCst) {
                        conn.send(ResponseFrame {
                            id: frame.id,
                            response: Response::Error {
                                kind: ServeErrorKind::Overloaded,
                                message: "server is shutting down".into(),
                            },
                        });
                        continue;
                    }
                    let outcome =
                        catch_unwind(AssertUnwindSafe(|| self.batch.ingest(&req.batch())));
                    let response = match outcome {
                        Ok(Ok(report)) => {
                            Response::IngestReport(WireIngestReport::from_report(&report))
                        }
                        Ok(Err(engine_err)) => {
                            self.ledger.bad_requests.fetch_add(1, Ordering::SeqCst);
                            Response::Error {
                                kind: ServeErrorKind::Engine,
                                message: engine_err.to_string(),
                            }
                        }
                        Err(_) => Response::Error {
                            kind: ServeErrorKind::Internal,
                            message: "ingest handler panicked; connection remains serviceable"
                                .into(),
                        },
                    };
                    conn.send(ResponseFrame {
                        id: frame.id,
                        response,
                    });
                }
            }
        }
    }
}

/// Evaluation-side terminal classes (door refusals are counted separately).
enum Terminal {
    Completed,
    Rejected,
    Drained,
}

/// Honour a fault marker (only reachable with fault injection enabled):
/// `"panic"` panics, `"sleep:N"` sleeps N milliseconds, anything else is a
/// no-op (resolution already screened markers).
fn apply_fault(fault: &str) {
    if fault == "panic" {
        panic!("injected fault: request handler panic");
    }
    if let Some(ms) = fault
        .strip_prefix("sleep:")
        .and_then(|n| n.parse::<u64>().ok())
    {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// The serving front door: a TCP listener over one engine, scheduled on
/// the process-wide shard pool. See the module docs for the admission,
/// deadline and drain semantics.
pub struct Server {
    core: Arc<Core>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// accepting. The engine's relation/schema are shared read-only; the
    /// server owns a [`BatchServer`] whose shared caches give concurrent
    /// requests exactly-once view/model computation.
    pub fn bind(
        engine: Arc<Reptile>,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let core = Arc::new(Core {
            batch: BatchServer::new(engine),
            config,
            state: Mutex::new(ServeState {
                pending: 0,
                inflight: HashMap::new(),
                conns: Vec::new(),
                readers: Vec::new(),
            }),
            quiesced: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            ledger: LedgerCells::default(),
        });
        let accept_core = Arc::clone(&core);
        let accept = std::thread::Builder::new()
            .name("reptile-serve-accept".into())
            .spawn(move || accept_loop(accept_core, listener))?;
        Ok(Server {
            core,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (with the OS-assigned port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind the front door.
    pub fn engine(&self) -> &Arc<Reptile> {
        self.core.batch.engine()
    }

    /// Stream an ingest batch into the engine while serving continues:
    /// a new relation snapshot plus exact cache invalidation, like
    /// [`BatchServer::ingest`]. Ingest is an operator-side action, not a
    /// wire request — the front door serves reads.
    pub fn ingest(&self, batch: &IngestBatch) -> EngineResult<IngestReport> {
        self.core.batch.ingest(batch)
    }

    /// Live ledger snapshot (counters are monotonic; conservation is only
    /// guaranteed after [`Server::shutdown`]).
    pub fn ledger(&self) -> ServeLedger {
        self.core.ledger.snapshot()
    }

    /// Graceful shutdown: stop admission (typed `Overloaded` refusals),
    /// drain admitted-but-unstarted requests with a typed response, let
    /// in-flight evaluations finish and deliver, then join every thread.
    /// Returns the final ledger, on which
    /// [`ServeLedger::conserved`] holds.
    pub fn shutdown(mut self) -> ServeLedger {
        self.core.shutting_down.store(true, Ordering::SeqCst);
        // Unblock the accept loop (it re-checks the flag per connection).
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Close every connection's read half: readers drain out while the
        // write halves stay open for in-flight responses.
        {
            let state = self.core.state.lock().expect("serve state lock");
            for conn in &state.conns {
                conn.shutdown_read();
            }
        }
        // Wait for every admitted request to reach a terminal state.
        {
            let mut state = self.core.state.lock().expect("serve state lock");
            while state.pending > 0 {
                state = self.core.quiesced.wait(state).expect("serve state lock");
            }
        }
        // Readers exit on EOF after the read-half shutdown; join them.
        let readers = {
            let mut state = self.core.state.lock().expect("serve state lock");
            std::mem::take(&mut state.readers)
        };
        for reader in readers {
            let _ = reader.join();
        }
        self.core.ledger.snapshot()
    }
}

impl reptile::IngestSink for Server {
    fn apply_batch(&mut self, batch: &IngestBatch) -> EngineResult<IngestReport> {
        self.ingest(batch)
    }
}

fn accept_loop(core: Arc<Core>, listener: TcpListener) {
    for incoming in listener.incoming() {
        if core.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let stream = match incoming {
            Ok(stream) => stream,
            Err(_) => {
                // Persistent accept failures (e.g. EMFILE under fd
                // exhaustion) would otherwise busy-spin this thread at
                // 100% CPU; back off briefly before retrying.
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
        };
        if core.config.write_timeout_ms > 0 {
            // Bound blocked sends: a client that stops reading fails the
            // write after the timeout instead of wedging a pool worker
            // (SO_SNDTIMEO is a socket option, so the cloned write half
            // shares it; reads are framed by the protocol, not timed).
            let _ =
                stream.set_write_timeout(Some(Duration::from_millis(core.config.write_timeout_ms)));
        }
        let Ok(write_half) = stream.try_clone() else {
            continue;
        };
        let conn = Arc::new(Conn {
            writer: Mutex::new(write_half),
        });
        let reader_core = Arc::clone(&core);
        let reader_conn = Arc::clone(&conn);
        let handle = std::thread::Builder::new()
            .name("reptile-serve-conn".into())
            .spawn(move || reader_core.reader_loop(stream, reader_conn));
        let Ok(handle) = handle else { continue };
        let mut state = core.state.lock().expect("serve state lock");
        state.conns.push(conn);
        state.readers.push(handle);
    }
}
