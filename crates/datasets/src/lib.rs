//! Workload generators for the Reptile reproduction.
//!
//! **Paper map** (Huang & Wu, *Reptile*, SIGMOD 2022): the evaluation
//! workloads of **Section 5** — synthetic hierarchies (§5.1–5.2) and the
//! covid/FIST/absentee/COMPAS/election case studies (§5.3, Tables 1–2).
//!
//! The paper evaluates on a mix of synthetic data (Sections 5.1–5.2) and real
//! datasets (JHU COVID-19, FIST drought surveys, NC absentee ballots, COMPAS,
//! US election results). The real datasets and their documented data-quality
//! issues are not available offline, so this crate provides simulators that
//! reproduce their schemas, hierarchy shapes, cardinalities, and — crucially —
//! the error classes that the evaluation injects or exploits (missing
//! records, duplication, systematic value drift, backlogs, prevalent missing
//! sources). Every simulator records the injected ground truth so accuracy
//! can be measured exactly as in the paper.

pub mod absentee;
pub mod compas;
pub mod correlate;
pub mod covid;
pub mod errors;
pub mod fist;
pub mod hiergen;
pub mod rng;
pub mod scaling;
pub mod synthetic;
pub mod vote;

pub use errors::{ErrorKind, InjectedError};
pub use rng::SimRng;
pub use scaling::{scaling_panel, ScalingConfig, ScalingWorkload};
