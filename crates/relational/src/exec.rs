//! The execution context: one knob that says *where* a plan runs.
//!
//! Reptile's operators used to encode their execution site in their names —
//! `compute` / `compute_with` / `compute_sharded` — which hard-wired *where*
//! work runs into *what* work is. [`Exec`] is the redesign: every compute
//! surface takes one `&Exec` and the same plan fans out inline
//! ([`Exec::Serial`]), onto the in-process shard pool ([`Exec::Pool`]), over
//! an exact shard count ([`Exec::Shards`]), or across worker *processes*
//! ([`Exec::Remote`]). Partials always merge on the coordinator by the same
//! integer-sum + replay-merge rules, so every variant is **bit-exact** `==`
//! serial — the workspace property tests assert `==` across all of them,
//! including across process boundaries.
//!
//! # The plan/transport split
//!
//! [`RemoteTransport`] is deliberately byte-oriented: the view scan builds
//! a *plan* and merges *partials*; the transport only ships opaque payloads
//! and is implemented once, by `reptile-wire`'s `WorkerSet`, over
//! `std::net`. One rule says what runs remotely: workers hold relation
//! partitions and nothing else, so relation scans scatter, and everything
//! built from a view — hierarchy aggregates, grams, the whole EM fit,
//! predictions — runs on the coordinator at [`Exec::parallelism`], the local
//! budget every variant carries. A remote failure is a typed
//! [`RelationalError::Remote`](crate::error::RelationalError::Remote).

use crate::parallel::Parallelism;
use crate::relation::Relation;
use reptile_obs::{add_counter, Counter};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Scatter op: code-keyed partial view table over a shipped partition
/// (plan/partial codecs in [`crate::ship`]). The only op; `2` (hierarchy
/// aggregates over a leaf range) is retired.
pub const OP_VIEW_SCAN: u8 = 1;

/// A remote execution failure, surfaced to callers as
/// [`RelationalError::Remote`](crate::error::RelationalError::Remote).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteError {
    /// The transport failed (connection refused, broken pipe, short read).
    Transport(String),
    /// A worker answered with a typed error payload.
    Worker(String),
    /// A worker's reply failed to decode.
    Protocol(String),
}

impl fmt::Display for RemoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteError::Transport(msg) => write!(f, "transport: {msg}"),
            RemoteError::Worker(msg) => write!(f, "worker error: {msg}"),
            RemoteError::Protocol(msg) => write!(f, "protocol: {msg}"),
        }
    }
}

impl std::error::Error for RemoteError {}

/// The byte-oriented coordinator→workers transport. Implemented by
/// `reptile-wire`'s `WorkerSet` (TCP worker processes); tests implement it
/// in-process. All methods take `&self`: the transport is shared behind an
/// `Arc` and must synchronise internally.
pub trait RemoteTransport: Send + Sync {
    /// Number of workers. Scatter calls must pass exactly this many
    /// requests and return exactly this many replies.
    fn workers(&self) -> usize;

    /// Make sure every worker holds its partition of `relation`'s snapshot.
    /// Workers hold one partition per lineage ident, so this is idempotent
    /// per `(ident, version)` and re-ships whenever another version of the
    /// lineage is asked for, newer or older. Returns each worker's
    /// contiguous row range `(start, len)` in worker order — ordered and
    /// disjoint, covering `0..relation.len()`, so worker partials
    /// replay-merge exactly like in-process shard partials.
    fn ensure_relation(&self, relation: &Arc<Relation>)
        -> Result<Vec<(usize, usize)>, RemoteError>;

    /// Fan one scatter out: `requests[i]` goes to worker `i` (`None` = this
    /// worker is pruned, no RPC), replies come back in worker order with
    /// `None` exactly where the request was `None`.
    fn scatter(
        &self,
        op: u8,
        requests: Vec<Option<Vec<u8>>>,
    ) -> Result<Vec<Option<Vec<u8>>>, RemoteError>;

    /// Fan one scatter out and surface each reply **as it arrives**, in
    /// arrival order. `complete(worker, reply, outstanding)` is invoked once
    /// per non-pruned worker with the number of replies still in flight at
    /// that moment (`0` for the last). An error from `complete` aborts the
    /// scatter and is returned verbatim.
    ///
    /// The default delegates to the blocking [`scatter`](Self::scatter) and
    /// reports every reply with `outstanding = 0` — honest for transports
    /// with no streaming: by the time anything is delivered, nothing is in
    /// flight. Streaming transports (`reptile-wire`'s `WorkerSet`, the test
    /// delay transports) override this to deliver replies the moment they
    /// land.
    fn scatter_streamed(
        &self,
        op: u8,
        requests: Vec<Option<Vec<u8>>>,
        complete: &mut dyn FnMut(usize, Vec<u8>, usize) -> Result<(), RemoteError>,
    ) -> Result<(), RemoteError> {
        let replies = self.scatter(op, requests)?;
        for (worker, reply) in replies.into_iter().enumerate() {
            if let Some(bytes) = reply {
                complete(worker, bytes, 0)?;
            }
        }
        Ok(())
    }
}

/// Drive one streamed scatter and fold the partials **in worker order**
/// while replies are still arriving.
///
/// This is the coordinator half of the overlapped pipeline: replies arrive
/// in whatever order the workers finish, but every merge rule in the
/// workspace (integer-sum view tables, boundary-joined run/COF tables) is
/// only bit-exact when partials fold in fixed worker order. So
/// out-of-order arrivals are buffered, and `fold` is invoked strictly in
/// worker order the moment its predecessor has folded — merge work
/// overlaps the network wait without changing the FP sequence.
///
/// Every `fold` that runs while at least one later reply is still in flight
/// bumps [`Counter::RemoteOverlappedMerges`]. A worker reply the transport
/// never delivered (without erroring) is a [`RemoteError::Protocol`].
pub fn scatter_fold_in_order(
    transport: &dyn RemoteTransport,
    op: u8,
    requests: Vec<Option<Vec<u8>>>,
    fold: &mut dyn FnMut(usize, Vec<u8>) -> Result<(), RemoteError>,
) -> Result<(), RemoteError> {
    let expected: Vec<usize> = requests
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.is_some().then_some(i))
        .collect();
    // Out-of-order arrivals wait here until every earlier worker has folded.
    let mut buffered: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
    // Index into `expected` of the next worker allowed to fold.
    let mut next = 0usize;
    let mut folded = 0usize;
    transport.scatter_streamed(op, requests, &mut |worker, bytes, outstanding| {
        buffered.insert(worker, bytes);
        // Fold the contiguous in-order prefix that just became available.
        while next < expected.len() {
            let want = expected[next];
            let Some(bytes) = buffered.remove(&want) else {
                break;
            };
            // Only merges that run while a later reply is genuinely still
            // in flight count as overlapped — folding a locally buffered
            // straggler after the last arrival hides no network wait.
            if outstanding > 0 {
                add_counter(Counter::RemoteOverlappedMerges, 1);
            }
            fold(want, bytes)?;
            next += 1;
            folded += 1;
        }
        Ok(())
    })?;
    if folded != expected.len() {
        return Err(RemoteError::Protocol(format!(
            "streamed scatter delivered {folded} of {} expected replies",
            expected.len()
        )));
    }
    Ok(())
}

/// A connected worker fleet plus the local thread budget used for
/// coordinator-side work (merges, hierarchy aggregates, gram products,
/// model solves).
#[derive(Clone)]
pub struct Remote {
    transport: Arc<dyn RemoteTransport>,
    local: Parallelism,
}

impl Remote {
    /// Wrap a transport; coordinator-side work stays serial.
    pub fn new(transport: Arc<dyn RemoteTransport>) -> Self {
        Remote {
            transport,
            local: Parallelism::serial(),
        }
    }

    /// Use `local` threads for coordinator-side work.
    pub fn with_local(mut self, local: Parallelism) -> Self {
        self.local = local;
        self
    }

    /// The transport.
    pub fn transport(&self) -> &Arc<dyn RemoteTransport> {
        &self.transport
    }

    /// The coordinator-side thread budget.
    pub fn local(&self) -> Parallelism {
        self.local
    }
}

impl fmt::Debug for Remote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Remote")
            .field("workers", &self.transport.workers())
            .field("local", &self.local)
            .finish()
    }
}

impl PartialEq for Remote {
    /// Two `Remote`s are equal when they share the same transport instance
    /// and local budget (config-equality for cache keys; transports have no
    /// meaningful value identity).
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.transport, &other.transport) && self.local == other.local
    }
}

/// Where a plan executes. The serial default makes every compute surface
/// take exactly the code path (and produce exactly the bits) of the old
/// serial entry points.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Exec {
    /// Inline on the calling thread.
    #[default]
    Serial,
    /// The in-process shard pool at the adaptive scatter width (the old
    /// `*_with` paths).
    Pool(Parallelism),
    /// Exactly this many contiguous shards, no size threshold (the old
    /// `*_sharded` paths — shard counts past the row count are valid, their
    /// partials are empty and merge as identities). The exactness property
    /// tests drive this variant.
    Shards(usize),
    /// Across worker processes, partials merged on the coordinator.
    Remote(Remote),
}

impl Exec {
    /// `Exec::Pool` over `threads` OS threads (clamped to at least 1).
    pub fn pool(threads: usize) -> Exec {
        Exec::Pool(Parallelism::new(threads))
    }

    /// `Exec::Pool` over every core the OS reports.
    pub fn available() -> Exec {
        Exec::Pool(Parallelism::available())
    }

    /// The *local* thread budget this context carries — what
    /// coordinator-resident operators (merges, gram products, model fits,
    /// predictions) fan out over. `Remote` returns its coordinator-side
    /// budget: a training design lives on the coordinator, so its fit never
    /// goes over the wire.
    pub fn parallelism(&self) -> Parallelism {
        match self {
            Exec::Serial => Parallelism::serial(),
            Exec::Pool(par) => *par,
            Exec::Shards(shards) => Parallelism::new(*shards),
            Exec::Remote(remote) => remote.local(),
        }
    }

    /// Whether this context runs everything inline on the calling thread.
    pub fn is_serial(&self) -> bool {
        matches!(self, Exec::Serial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NullTransport;
    impl RemoteTransport for NullTransport {
        fn workers(&self) -> usize {
            2
        }
        fn ensure_relation(
            &self,
            relation: &Arc<Relation>,
        ) -> Result<Vec<(usize, usize)>, RemoteError> {
            Ok(Parallelism::shard_ranges(relation.len(), 2))
        }
        fn scatter(
            &self,
            _op: u8,
            requests: Vec<Option<Vec<u8>>>,
        ) -> Result<Vec<Option<Vec<u8>>>, RemoteError> {
            Ok(requests.into_iter().map(|_| None).collect())
        }
    }

    /// Streams replies in reverse worker order, reporting honest in-flight
    /// counts, so the fold driver must buffer everything and replay.
    struct ReversedTransport;
    impl RemoteTransport for ReversedTransport {
        fn workers(&self) -> usize {
            3
        }
        fn ensure_relation(
            &self,
            relation: &Arc<Relation>,
        ) -> Result<Vec<(usize, usize)>, RemoteError> {
            Ok(Parallelism::shard_ranges(relation.len(), 3))
        }
        fn scatter(
            &self,
            _op: u8,
            requests: Vec<Option<Vec<u8>>>,
        ) -> Result<Vec<Option<Vec<u8>>>, RemoteError> {
            Ok(requests)
        }
        fn scatter_streamed(
            &self,
            _op: u8,
            requests: Vec<Option<Vec<u8>>>,
            complete: &mut dyn FnMut(usize, Vec<u8>, usize) -> Result<(), RemoteError>,
        ) -> Result<(), RemoteError> {
            let mut live: Vec<(usize, Vec<u8>)> = requests
                .into_iter()
                .enumerate()
                .filter_map(|(i, r)| r.map(|b| (i, b)))
                .collect();
            live.reverse();
            let mut outstanding = live.len();
            for (worker, bytes) in live {
                outstanding -= 1;
                complete(worker, bytes, outstanding)?;
            }
            Ok(())
        }
    }

    #[test]
    fn fold_in_order_replays_out_of_order_arrivals() {
        let requests = vec![Some(vec![0u8]), None, Some(vec![2u8])];
        let mut seen = Vec::new();
        scatter_fold_in_order(&ReversedTransport, 9, requests, &mut |worker, bytes| {
            seen.push((worker, bytes));
            Ok(())
        })
        .unwrap();
        // Worker 2 arrived first but worker 0 folds first: fixed-order replay.
        assert_eq!(seen, vec![(0, vec![0u8]), (2, vec![2u8])]);
    }

    // Counter assertions live in one test: the obs registry is
    // process-global and the harness runs tests concurrently, so split
    // exact-equality checks on the same counter would race each other.
    #[test]
    fn fold_in_order_overlap_counting() {
        // In-order streaming: worker 0 folds while 1 and 2 are in flight,
        // worker 1 folds while 2 is in flight, worker 2 folds last.
        struct InOrderStreaming;
        impl RemoteTransport for InOrderStreaming {
            fn workers(&self) -> usize {
                3
            }
            fn ensure_relation(
                &self,
                relation: &Arc<Relation>,
            ) -> Result<Vec<(usize, usize)>, RemoteError> {
                Ok(Parallelism::shard_ranges(relation.len(), 3))
            }
            fn scatter(
                &self,
                _op: u8,
                requests: Vec<Option<Vec<u8>>>,
            ) -> Result<Vec<Option<Vec<u8>>>, RemoteError> {
                Ok(requests)
            }
            fn scatter_streamed(
                &self,
                _op: u8,
                requests: Vec<Option<Vec<u8>>>,
                complete: &mut dyn FnMut(usize, Vec<u8>, usize) -> Result<(), RemoteError>,
            ) -> Result<(), RemoteError> {
                let live: Vec<(usize, Vec<u8>)> = requests
                    .into_iter()
                    .enumerate()
                    .filter_map(|(i, r)| r.map(|b| (i, b)))
                    .collect();
                let mut outstanding = live.len();
                for (worker, bytes) in live {
                    outstanding -= 1;
                    complete(worker, bytes, outstanding)?;
                }
                Ok(())
            }
        }
        // The default (blocking) streamed impl reports outstanding = 0:
        // a gather-then-deliver transport can never claim overlap.
        struct EchoTransport;
        impl RemoteTransport for EchoTransport {
            fn workers(&self) -> usize {
                2
            }
            fn ensure_relation(
                &self,
                relation: &Arc<Relation>,
            ) -> Result<Vec<(usize, usize)>, RemoteError> {
                Ok(Parallelism::shard_ranges(relation.len(), 2))
            }
            fn scatter(
                &self,
                _op: u8,
                requests: Vec<Option<Vec<u8>>>,
            ) -> Result<Vec<Option<Vec<u8>>>, RemoteError> {
                Ok(requests)
            }
        }

        let before = reptile_obs::counter_value(Counter::RemoteOverlappedMerges);
        // All three replies stream back-to-back in reverse order: workers 2
        // and 1 are buffered, then worker 0 lands last (outstanding = 0) and
        // the whole buffer folds — no merge overlapped a reply in flight.
        let requests = vec![Some(vec![0u8]), Some(vec![1u8]), Some(vec![2u8])];
        scatter_fold_in_order(&ReversedTransport, 9, requests, &mut |_, _| Ok(())).unwrap();
        assert_eq!(
            reptile_obs::counter_value(Counter::RemoteOverlappedMerges),
            before
        );
        let requests = vec![Some(vec![0u8]), Some(vec![1u8])];
        scatter_fold_in_order(&EchoTransport, 9, requests, &mut |_, _| Ok(())).unwrap();
        assert_eq!(
            reptile_obs::counter_value(Counter::RemoteOverlappedMerges),
            before
        );
        // In-order streaming overlaps: two of the three folds run while a
        // later reply is still in flight.
        let requests = vec![Some(vec![0u8]), Some(vec![1u8]), Some(vec![2u8])];
        scatter_fold_in_order(&InOrderStreaming, 9, requests, &mut |_, _| Ok(())).unwrap();
        assert_eq!(
            reptile_obs::counter_value(Counter::RemoteOverlappedMerges),
            before + 2
        );
    }

    #[test]
    fn fold_in_order_rejects_missing_replies() {
        // NullTransport answers every request with None: zero delivered
        // replies for two expected is a typed protocol error.
        let requests = vec![Some(vec![1u8]), Some(vec![2u8])];
        let err =
            scatter_fold_in_order(&NullTransport, 1, requests, &mut |_, _| Ok(())).unwrap_err();
        assert!(matches!(err, RemoteError::Protocol(_)));
    }

    #[test]
    fn default_is_serial() {
        assert!(Exec::default().is_serial());
        assert_eq!(Exec::default().parallelism(), Parallelism::serial());
    }

    #[test]
    fn parallelism_reflects_variant() {
        assert_eq!(Exec::pool(4).parallelism(), Parallelism::new(4));
        assert_eq!(Exec::Shards(3).parallelism(), Parallelism::new(3));
        let remote = Remote::new(Arc::new(NullTransport)).with_local(Parallelism::new(2));
        assert_eq!(
            Exec::Remote(remote.clone()).parallelism(),
            Parallelism::new(2)
        );
        assert!(!Exec::Remote(remote).is_serial());
    }

    #[test]
    fn remote_equality_is_transport_identity() {
        let t: Arc<dyn RemoteTransport> = Arc::new(NullTransport);
        let a = Remote::new(t.clone());
        let b = Remote::new(t);
        let c = Remote::new(Arc::new(NullTransport));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, b.clone().with_local(Parallelism::new(2)));
    }
}
