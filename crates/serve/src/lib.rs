//! # reptile-serve — the network front door
//!
//! One process, one scheduler, one front door. This crate puts a TCP
//! server in front of a [`reptile::Reptile`] engine:
//!
//! - **Protocol** ([`protocol`]): the "RP" kind table and body codecs over
//!   the shared framing in [`reptile_relational::codec`] — no external
//!   dependencies. Frames are bounded ([`protocol::RP`]'s 1 MiB
//!   `max_len`); a bad length prefix or header is a typed
//!   [`FrameError`](reptile_relational::codec::FrameError), a bad body a
//!   typed [`CodecError`](reptile_relational::codec::CodecError); `f64`s
//!   travel as raw bits so a round-tripped request compares equal
//!   bit-for-bit.
//! - **Scheduling** ([`server`]): admitted requests run as may-block jobs
//!   on the process-wide shard pool — the same workers that execute shard
//!   scatters — so the process has exactly one scheduler and serving
//!   concurrency composes with intra-request parallelism instead of
//!   fighting it.
//! - **Admission & deadlines** ([`server::ServeConfig`]): a bounded
//!   pending ledger refuses excess load with typed
//!   [`protocol::ServeErrorKind::Overloaded`] responses; per-request
//!   deadlines return typed
//!   [`protocol::ServeErrorKind::DeadlineExceeded`] — an expired request
//!   never receives data. Duplicate in-flight requests are detected by
//!   the session layer's dedup signature (scoped by the relation version
//!   seen at admission, so joins never cross an ingest boundary) *before*
//!   admission control and join the in-flight evaluation without
//!   consuming a pending slot — up to a per-signature waiter cap, past
//!   which further duplicates are refused typed. Outbound error detail is
//!   truncated so an echoed client payload can never push a response past
//!   the frame cap, and a write timeout drops clients that stop reading
//!   instead of wedging pool workers.
//! - **Drain** ([`server::Server::shutdown`]): graceful shutdown stops
//!   admission, answers queued-but-unstarted requests with a typed drain
//!   response, finishes in-flight evaluations, and returns a
//!   [`server::ServeLedger`] on which the conservation law
//!   `admitted == completed + rejected + drained` holds.

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError};
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, IngestRequest,
    RecommendRequest, Request, RequestFrame, Response, ResponseFrame, ServeErrorKind,
    WireIngestReport, WireRecommendation, WireScoredGroup, RP,
};
pub use server::{ServeConfig, ServeLedger, Server};
