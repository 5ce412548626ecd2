//! Deterministic in-process transport for overlap tests and benches.
//!
//! [`LoopbackWorkers`] drives real [`WorkerState`]s (the same handlers a
//! worker process runs) with **injectable per-worker reply delays** and a
//! real threaded [`RemoteTransport::scatter_streamed`]: each worker
//! answers on its own thread after its delay, completions land as they
//! arrive, and the outstanding count is honest. That makes overlapped
//! merging deterministic — because the merge replays partials in worker
//! order, give worker 0 the *shortest* delay and later workers ascending
//! ones: worker 0's partial then folds while the others are still
//! outstanding. (Descending delays would buffer everything until the
//! slowest first worker lands and count zero overlaps.) This is what the
//! exactness property tests and the distributed bench use to
//! assert a non-zero `remote_overlapped_merges` without racing on real
//! network timing.
//!
//! This is production-adjacent test plumbing, not a toy: partials come
//! from the real worker handlers, so a merged result must still be
//! bit-identical to serial.

use crate::frame::{
    KIND_ERROR, KIND_ESTEP_PARTIAL, KIND_GRAM_PARTIAL, KIND_LOAD_PARTITION, KIND_LOAD_STATE,
    KIND_RESULT, KIND_SCATTER,
};
use crate::worker::{decode_error_body, WorkerState};
use reptile_obs::{add_counter, Counter};
use reptile_relational::codec::Frame;
use reptile_relational::ship;
use reptile_relational::{Parallelism, Relation, RemoteError, RemoteTransport};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

/// Shard ranges already shipped, keyed by relation `(ident, version)`.
type ShippedRelations = HashMap<(u64, u64), Vec<(usize, usize)>>;

/// An in-process worker fleet with per-worker artificial reply delays.
pub struct LoopbackWorkers {
    workers: Vec<Mutex<WorkerState>>,
    delays: Vec<Duration>,
    shipped_relations: Mutex<ShippedRelations>,
    shipped_state: Mutex<HashSet<(u8, u64)>>,
    next_id: AtomicU64,
}

impl LoopbackWorkers {
    /// `delays[i]` is how long worker `i` sits on each scatter reply.
    pub fn new(delays: Vec<Duration>) -> Self {
        let workers = delays
            .iter()
            .map(|_| Mutex::new(WorkerState::new()))
            .collect();
        LoopbackWorkers {
            workers,
            delays,
            shipped_relations: Mutex::new(HashMap::new()),
            shipped_state: Mutex::new(HashSet::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// A fleet of `n` undelayed workers.
    pub fn undelayed(n: usize) -> Self {
        Self::new(vec![Duration::ZERO; n])
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Run one frame against worker `i` (the real handler), counting the
    /// RPC and the bytes of both frames like the TCP transport does.
    fn call(&self, i: usize, frame: Frame) -> Frame {
        add_counter(Counter::RemoteRpcs, 1);
        add_counter(Counter::RemoteBytesShipped, frame.wire_len() as u64);
        let mut shutdown = false;
        let reply = self.workers[i]
            .lock()
            .expect("loopback worker lock")
            .handle(&frame, &mut shutdown);
        add_counter(Counter::RemoteBytesReceived, reply.wire_len() as u64);
        reply
    }
}

fn reply_to_result(frame: Frame) -> Result<Vec<u8>, RemoteError> {
    match frame.kind {
        KIND_RESULT | KIND_GRAM_PARTIAL | KIND_ESTEP_PARTIAL => Ok(frame.body),
        KIND_ERROR => {
            let (kind, msg) = decode_error_body(&frame.body);
            Err(RemoteError::Worker(format!("{kind}: {msg}")))
        }
        k => Err(RemoteError::Protocol(format!(
            "expected scatter result, got kind {k:#04x}"
        ))),
    }
}

fn expect_ok(frame: Frame) -> Result<(), RemoteError> {
    if frame.kind == KIND_ERROR {
        let (kind, msg) = decode_error_body(&frame.body);
        return Err(RemoteError::Worker(format!("{kind}: {msg}")));
    }
    Ok(())
}

impl RemoteTransport for LoopbackWorkers {
    fn workers(&self) -> usize {
        self.workers.len()
    }

    fn ensure_relation(
        &self,
        relation: &std::sync::Arc<Relation>,
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
        let ranges = Parallelism::shard_ranges(relation.len(), self.workers.len().max(1));
        let id = self.fresh_id();
        for (i, &(start, len)) in ranges.iter().enumerate() {
            let body = ship::encode_partition(relation, start, len);
            expect_ok(self.call(i, Frame::new(KIND_LOAD_PARTITION, id, body)))?;
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
        let id = self.fresh_id();
        for i in 0..self.workers.len() {
            expect_ok(self.call(i, Frame::new(KIND_LOAD_STATE, id, body.clone())))?;
        }
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
        if requests.len() != self.workers.len() {
            return Err(RemoteError::Protocol(format!(
                "scatter carries {} requests for {} workers",
                requests.len(),
                self.workers.len()
            )));
        }
        let id = self.fresh_id();
        let live: Vec<usize> = requests
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.is_some().then_some(i))
            .collect();
        let total = live.len();
        let arrived = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Frame)>();
        std::thread::scope(|scope| {
            for &i in &live {
                let tx = tx.clone();
                let arrived = &arrived;
                let payload = requests[i].as_ref().expect("live request");
                let mut body = Vec::with_capacity(1 + payload.len());
                body.push(op);
                body.extend_from_slice(payload);
                scope.spawn(move || {
                    std::thread::sleep(self.delays[i]);
                    let reply = self.call(i, Frame::new(KIND_SCATTER, id, body));
                    arrived.fetch_add(1, Ordering::SeqCst);
                    let _ = tx.send((i, reply));
                });
            }
            drop(tx);
            let mut first_err: Option<RemoteError> = None;
            for (worker, frame) in rx {
                if first_err.is_some() {
                    continue;
                }
                let step = reply_to_result(frame).and_then(|bytes| {
                    let outstanding = total - arrived.load(Ordering::SeqCst).min(total);
                    complete(worker, bytes, outstanding)
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
