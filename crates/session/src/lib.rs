//! # reptile-session — cached interactive sessions and parallel serving
//!
//! **Paper map** (Huang & Wu, *Reptile*, SIGMOD 2022): the serving-side
//! counterpart of the multi-query optimisation of **Section 5.1.3**
//! (Figure 8) — plus streaming ingest with versioned invalidation. Reuse
//! sits at the view and model level; hierarchy aggregates are recomputed by
//! every design build (the §4.4 reuse of Figure 9 cannot pay here, see
//! `reptile-factor`).
//!
//! Reptile is built for *interactive* drill-down: an analyst complains about
//! an aggregate, inspects the recommendation, accepts a drill-down, and
//! complains again one level deeper. The stateless
//! [`reptile::Reptile::recommend`] retrains every model and recomputes every
//! view per call; this crate adds the serving layer that makes the loop (and
//! concurrent multi-complaint workloads) cheap:
//!
//! * [`Session`] — tracks the analyst's drill-down path and threads the
//!   serving cache through every call;
//! * [`SharedCaches`] — the one serving cache: LRU view and model caches
//!   keyed by canonical signatures of `(predicate, group-by, measure)` and
//!   `(view, statistic, model config)`, with hit/miss statistics and a claim
//!   protocol, so repeated complaints reuse trained multilevel models and
//!   concurrent ones train each model once;
//! * [`BatchServer`] — evaluates many independent complaints concurrently
//!   as may-block jobs on the process-wide shard pool, sharing the engine
//!   read-only and deduplicating identical `(view, complaint)` requests
//!   (the paper's multi-query optimisation, Figure 8, as a serving
//!   primitive): each distinct `(view, model)` pair is trained exactly once
//!   per batch, however many complaints need it.

mod batch;
mod cache;
mod session;

pub use batch::{BatchRequest, BatchServer, RequestSignature};
pub use cache::{CacheStats, CachesSnapshot, SharedCacheHandle, SharedCaches};
pub use session::{DrillStep, Session};
