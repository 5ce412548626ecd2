//! The coordinator-side transport: a [`WorkerSet`] of connected worker
//! processes implementing [`RemoteTransport`].
//!
//! The set owns one TCP connection per worker and does three things:
//!
//! * **Ship-once relations** — [`RemoteTransport::ensure_relation`]
//!   partitions the relation over the workers ([`Parallelism::shard_ranges`],
//!   the *same* contiguous split as in-process sharding, which is what makes
//!   remote partial merges bit-identical) and ships each worker its rows
//!   with the full dictionaries. Shipping is idempotent per snapshot epoch
//!   `(ident, version)`: the first caller pays the bytes, every later plan
//!   against that epoch pays nothing.
//! * **Ship-once state** — [`RemoteTransport::ensure_state`] ships keyed
//!   blobs (encoded factors under their content fingerprint) to every
//!   worker, once per key. Content addressing makes staleness impossible:
//!   post-ingest state has a different fingerprint, so it ships under a new
//!   key instead of silently colliding with the old.
//! * **Overlapped scatters** — [`RemoteTransport::scatter_streamed`]
//!   writes every un-pruned worker's request before reading any reply
//!   (one round trip), then consumes replies **as they arrive**: one
//!   reader thread per live worker feeds a completion channel, and the
//!   coordinator's merge runs the moment a partial lands while later
//!   replies are still in flight. Each completion reports how many replies
//!   are still outstanding, which is what lets the in-order fold driver
//!   ([`reptile_relational::exec::scatter_fold_in_order`]) count merges
//!   that genuinely overlapped the network wait
//!   ([`Counter::RemoteOverlappedMerges`]). The blocking
//!   [`RemoteTransport::scatter`] is a thin gather over the same path.
//!
//! Every frame written bumps [`Counter::RemoteRpcs`] and adds its bytes to
//! [`Counter::RemoteBytesShipped`]; every reply frame read adds its bytes to
//! [`Counter::RemoteBytesReceived`].

use crate::frame::{
    KIND_ERROR, KIND_ESTEP_PARTIAL, KIND_GRAM_PARTIAL, KIND_LOAD_PARTITION, KIND_LOAD_STATE,
    KIND_OK, KIND_PING, KIND_RESULT, KIND_SCATTER, KIND_SHUTDOWN, RW,
};
use crate::worker::decode_error_body;
use reptile_obs::{add_counter, Counter};
use reptile_relational::codec::{read_frame, write_frame, Frame, StreamError};
use reptile_relational::ship;
use reptile_relational::{Parallelism, Relation, RemoteError, RemoteTransport};
use std::collections::{HashMap, HashSet};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// One worker connection.
struct WorkerConn {
    stream: TcpStream,
}

impl WorkerConn {
    fn send(&mut self, frame: &Frame) -> Result<(), RemoteError> {
        let bytes = write_frame(&mut self.stream, &RW, &RW.encode(frame)).map_err(wire_err)?;
        add_counter(Counter::RemoteRpcs, 1);
        add_counter(Counter::RemoteBytesShipped, bytes as u64);
        Ok(())
    }

    fn recv(&mut self, expect_id: u64) -> Result<Frame, RemoteError> {
        let frame = read_frame(&mut self.stream, &RW)
            .map_err(wire_err)?
            .ok_or_else(|| RemoteError::Transport("worker closed the connection".to_string()))?;
        add_counter(Counter::RemoteBytesReceived, frame.wire_len() as u64);
        if frame.id != expect_id {
            return Err(RemoteError::Protocol(format!(
                "reply id {} does not match request id {expect_id}",
                frame.id
            )));
        }
        Ok(frame)
    }
}

fn wire_err(e: StreamError) -> RemoteError {
    match e {
        StreamError::Frame(f) => RemoteError::Protocol(f.to_string()),
        StreamError::Io(io) => RemoteError::Transport(io.to_string()),
    }
}

/// Check an OK-expected reply; worker errors surface typed.
fn expect_ok(frame: &Frame) -> Result<(), RemoteError> {
    match frame.kind {
        KIND_OK => Ok(()),
        KIND_ERROR => {
            let (kind, msg) = decode_error_body(&frame.body);
            Err(RemoteError::Worker(format!("{kind}: {msg}")))
        }
        k => Err(RemoteError::Protocol(format!(
            "expected OK reply, got kind {k:#04x}"
        ))),
    }
}

/// A worker's contiguous `(start, len)` row range within a shipped
/// relation snapshot — the same split `Parallelism::shard_ranges` gives
/// in-process shards.
type ShardRange = (usize, usize);

/// A connected set of worker processes. Cloneable handles share the
/// connections and the ship-once ledgers; typically wrapped in
/// [`Remote::new`](reptile_relational::Remote::new) and carried by
/// [`Exec::Remote`](reptile_relational::Exec).
pub struct WorkerSet {
    /// One lock per connection so a streamed scatter's reader threads can
    /// each own their worker's stream without serialising on a set-wide
    /// lock.
    conns: Vec<Mutex<WorkerConn>>,
    /// Serialises whole operations (a scatter, a ship, a ping): frames of
    /// two concurrent operations must never interleave on the streams.
    op_gate: Mutex<()>,
    /// Worker ranges per shipped snapshot epoch `(ident, version)`.
    shipped_relations: Mutex<HashMap<(u64, u64), Vec<ShardRange>>>,
    /// State keys already on every worker.
    shipped_state: Mutex<HashSet<(u8, u64)>>,
    next_id: AtomicU64,
}

/// Bounded connect retries: a worker that is still binding its listener
/// (the common race when coordinator and workers start together) gets a
/// few short, exponentially backed-off attempts before
/// [`RemoteError::Transport`] surfaces.
const CONNECT_ATTEMPTS: u32 = 5;
const CONNECT_BACKOFF_START_MS: u64 = 5;

impl std::fmt::Debug for WorkerSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerSet")
            .field("workers", &self.workers())
            .finish()
    }
}

impl WorkerSet {
    /// Connect to worker processes at `addrs` and ping each one. Each
    /// address gets `CONNECT_ATTEMPTS` (5) tries with short exponential
    /// backoff (a worker still binding its listener is a race, not a
    /// failure); a worker that stays unreachable or answers the ping wrong
    /// fails the whole set.
    pub fn connect<A: ToSocketAddrs>(addrs: &[A]) -> Result<Arc<WorkerSet>, RemoteError> {
        if addrs.is_empty() {
            return Err(RemoteError::Transport("no worker addresses".to_string()));
        }
        let mut conns = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let stream = connect_with_backoff(addr)?;
            stream
                .set_nodelay(true)
                .map_err(|e| RemoteError::Transport(e.to_string()))?;
            conns.push(Mutex::new(WorkerConn { stream }));
        }
        let set = WorkerSet {
            conns,
            op_gate: Mutex::new(()),
            shipped_relations: Mutex::new(HashMap::new()),
            shipped_state: Mutex::new(HashSet::new()),
            next_id: AtomicU64::new(1),
        };
        set.ping()?;
        Ok(Arc::new(set))
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn conn(&self, i: usize) -> std::sync::MutexGuard<'_, WorkerConn> {
        self.conns[i].lock().expect("worker conn lock")
    }

    /// Pipelined send-to-all / expect-OK-from-all (ping, shutdown, ships).
    fn broadcast(&self, make_frame: impl Fn(u64) -> Frame) -> Result<(), RemoteError> {
        let _gate = self.op_gate.lock().expect("op gate");
        let id = self.fresh_id();
        for i in 0..self.conns.len() {
            self.conn(i).send(&make_frame(id))?;
        }
        for i in 0..self.conns.len() {
            expect_ok(&self.conn(i).recv(id)?)?;
        }
        Ok(())
    }

    /// Ping every worker (pipelined), verifying liveness and protocol.
    pub fn ping(&self) -> Result<(), RemoteError> {
        self.broadcast(|id| Frame::new(KIND_PING, id, Vec::new()))
    }

    /// Ask every worker process to exit. The set is unusable afterwards.
    pub fn shutdown(&self) -> Result<(), RemoteError> {
        self.broadcast(|id| Frame::new(KIND_SHUTDOWN, id, Vec::new()))
    }
}

fn connect_with_backoff<A: ToSocketAddrs>(addr: &A) -> Result<TcpStream, RemoteError> {
    let mut delay = Duration::from_millis(CONNECT_BACKOFF_START_MS);
    let mut last = None;
    for attempt in 0..CONNECT_ATTEMPTS {
        if attempt > 0 {
            std::thread::sleep(delay);
            delay *= 2;
        }
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = Some(e),
        }
    }
    Err(RemoteError::Transport(format!(
        "connect: {} (after {CONNECT_ATTEMPTS} attempts)",
        last.expect("at least one attempt")
    )))
}

impl RemoteTransport for WorkerSet {
    fn workers(&self) -> usize {
        self.conns.len()
    }

    fn ensure_relation(
        &self,
        relation: &Arc<Relation>,
    ) -> Result<Vec<(usize, usize)>, RemoteError> {
        let epoch = (relation.ident(), relation.version());
        if let Some(ranges) = self
            .shipped_relations
            .lock()
            .expect("shipped relations lock")
            .get(&epoch)
        {
            return Ok(ranges.clone());
        }
        let ranges = Parallelism::shard_ranges(relation.len(), self.conns.len().max(1));
        {
            let _gate = self.op_gate.lock().expect("op gate");
            let id = self.fresh_id();
            for (i, &(start, len)) in ranges.iter().enumerate() {
                let body = ship::encode_partition(relation, start, len);
                self.conn(i)
                    .send(&Frame::new(KIND_LOAD_PARTITION, id, body))?;
            }
            for i in 0..self.conns.len() {
                expect_ok(&self.conn(i).recv(id)?)?;
            }
        }
        self.shipped_relations
            .lock()
            .expect("shipped relations lock")
            .insert(epoch, ranges.clone());
        Ok(ranges)
    }

    fn ensure_state(
        &self,
        domain: u8,
        key: u64,
        encode: &dyn Fn() -> Vec<u8>,
    ) -> Result<(), RemoteError> {
        if self
            .shipped_state
            .lock()
            .expect("shipped state lock")
            .contains(&(domain, key))
        {
            return Ok(());
        }
        let mut body = vec![domain];
        body.extend_from_slice(&key.to_be_bytes());
        body.extend_from_slice(&encode());
        self.broadcast(|id| Frame::new(KIND_LOAD_STATE, id, body.clone()))?;
        self.shipped_state
            .lock()
            .expect("shipped state lock")
            .insert((domain, key));
        Ok(())
    }

    fn scatter(
        &self,
        op: u8,
        requests: Vec<Option<Vec<u8>>>,
    ) -> Result<Vec<Option<Vec<u8>>>, RemoteError> {
        let mut replies: Vec<Option<Vec<u8>>> = vec![None; requests.len()];
        self.scatter_streamed(op, requests, &mut |worker, bytes, _outstanding| {
            replies[worker] = Some(bytes);
            Ok(())
        })?;
        Ok(replies)
    }

    fn scatter_streamed(
        &self,
        op: u8,
        requests: Vec<Option<Vec<u8>>>,
        complete: &mut dyn FnMut(usize, Vec<u8>, usize) -> Result<(), RemoteError>,
    ) -> Result<(), RemoteError> {
        let _gate = self.op_gate.lock().expect("op gate");
        if requests.len() != self.conns.len() {
            return Err(RemoteError::Protocol(format!(
                "scatter carries {} requests for {} workers",
                requests.len(),
                self.conns.len()
            )));
        }
        let id = self.fresh_id();
        // Write every un-pruned request before reading any reply: one
        // scatter, one round trip.
        let live: Vec<usize> = requests
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.is_some().then_some(i))
            .collect();
        for &i in &live {
            let payload = requests[i].as_ref().expect("live request");
            let mut body = Vec::with_capacity(1 + payload.len());
            body.push(op);
            body.extend_from_slice(payload);
            self.conn(i).send(&Frame::new(KIND_SCATTER, id, body))?;
        }
        // One reader thread per live worker feeds the completion channel;
        // the merge below runs on this thread the moment a reply lands,
        // while later replies are still in flight. `arrived` is bumped by
        // the reader *before* the channel send, so the outstanding count a
        // completion reports never overstates the overlap.
        let total = live.len();
        let arrived = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Result<Frame, RemoteError>)>();
        std::thread::scope(|scope| {
            for &i in &live {
                let tx = tx.clone();
                let arrived = &arrived;
                scope.spawn(move || {
                    let result = self.conn(i).recv(id);
                    arrived.fetch_add(1, Ordering::SeqCst);
                    let _ = tx.send((i, result));
                });
            }
            drop(tx);
            // Drain the channel fully even after an error so every reader
            // thread's reply is consumed and the streams stay framed.
            let mut first_err: Option<RemoteError> = None;
            for (worker, result) in rx {
                if first_err.is_some() {
                    continue;
                }
                let step = result.and_then(|frame| match frame.kind {
                    KIND_RESULT | KIND_GRAM_PARTIAL | KIND_ESTEP_PARTIAL => {
                        let outstanding = total - arrived.load(Ordering::SeqCst).min(total);
                        complete(worker, frame.body, outstanding)
                    }
                    KIND_ERROR => {
                        let (kind, msg) = decode_error_body(&frame.body);
                        Err(RemoteError::Worker(format!("{kind}: {msg}")))
                    }
                    k => Err(RemoteError::Protocol(format!(
                        "expected scatter result, got kind {k:#04x}"
                    ))),
                });
                if let Err(e) = step {
                    first_err = Some(e);
                }
            }
            match first_err {
                Some(e) => Err(e),
                None => Ok(()),
            }
        })
    }
}
