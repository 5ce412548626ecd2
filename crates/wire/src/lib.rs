//! Distributed execution for Reptile: worker processes and the
//! coordinator-side transport.
//!
//! **Paper map** (Huang & Wu, *Reptile*, SIGMOD 2022): the factorised
//! aggregate computation of Sections 4.2–4.3 distributes because every
//! merged quantity is an integer-count sum and every shard's output is
//! disjoint — the properties the in-process shard pool already exploits.
//! This crate moves the same shard plan across process boundaries:
//!
//! * [`frame`] — the worker protocol's [`RW`](frame::RW) constant (magic
//!   `"RW"`, version 1, 64 MiB cap) and kind table, over the framing,
//!   [`Frame`](reptile_relational::codec::Frame) and typed errors the
//!   serving front door shares ([`reptile_relational::codec`]);
//! * [`worker`] — the worker process: holds relation partitions (full
//!   dictionaries in code order — the shared-dictionary contract, so codes
//!   mean the same thing on every process) and content-fingerprinted
//!   encoded factors, and answers view-scan and aggregate-range scatters
//!   with exact partials or typed errors;
//! * [`coordinator`] — [`WorkerSet`], the [`RemoteTransport`] the
//!   relational and factor layers scatter through: ship-once partitions
//!   and state, pipelined scatter RPCs, bytes/RPC observability counters.
//!
//! The correctness bar is the workspace's standing one: an
//! [`Exec::Remote`](reptile_relational::Exec) computation must equal the
//! serial one **bit-for-bit** (`==`, never tolerance), including after
//! ingest epochs — driven by the `distributed_exactness` integration test,
//! which runs real worker processes.
//!
//! Run a worker with `cargo run -p reptile-wire --bin reptile-worker --
//! --port 0` (it prints `listening on <addr>`), then connect a
//! [`WorkerSet`] to the printed addresses and wrap it:
//! `Exec::Remote(Remote::new(worker_set))`.

#![warn(missing_docs)]

pub mod coordinator;
pub mod frame;
pub mod testing;
pub mod worker;

pub use coordinator::WorkerSet;
pub use reptile_relational::{Exec, Remote, RemoteError, RemoteTransport};
pub use worker::{WorkerErrorKind, WorkerState};
