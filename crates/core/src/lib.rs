//! # Reptile — aggregation-level explanations for hierarchical data
//!
//! **Paper map** (Huang & Wu, *Reptile*, SIGMOD 2022): the complaint model
//! of **Section 3** and the end-to-end recommendation loop of **Section
//! 4.5** (Problem 1), tying the §4 factorised machinery and the §5
//! multi-level model together — plus streaming ingest
//! ([`Reptile::ingest`]) extending the §4.3/§4.4 maintenance story to a
//! changing base relation.
//!
//! This crate is the top level of a from-scratch reproduction of
//! *"Reptile: Aggregation-level Explanations for Hierarchical Data"*
//! (Huang & Wu, SIGMOD 2022). Given an anomalous aggregate query result (a
//! *complaint*), Reptile recommends the next drill-down attribute and ranks
//! the drill-down groups by how much repairing each group's statistic to its
//! *expected* value — estimated by a multi-level model trained over all
//! parallel groups — would resolve the complaint.
//!
//! ```
//! use reptile::{Complaint, Direction, Reptile};
//! use reptile_relational::{AggregateKind, GroupKey, Predicate, Relation, Schema, Value, View};
//! use std::sync::Arc;
//!
//! // A tiny severity survey: district -> village geography, one year.
//! let schema = Arc::new(
//!     Schema::builder()
//!         .hierarchy("geo", ["district", "village"])
//!         .hierarchy("time", ["year"])
//!         .measure("severity")
//!         .build()
//!         .unwrap(),
//! );
//! let mut builder = Relation::builder(schema.clone());
//! for (d, v, y, s) in [
//!     ("Ofla", "Adishim", 1986, 8.0),
//!     ("Ofla", "Darube", 1986, 2.0),
//!     ("Ofla", "Dinka", 1986, 7.5),
//!     ("Raya", "Zata", 1986, 8.5),
//! ] {
//!     builder = builder
//!         .row([Value::str(d), Value::str(v), Value::int(y), Value::float(s)])
//!         .unwrap();
//! }
//! let relation = Arc::new(builder.build());
//!
//! // Current view: mean severity per (district, year).
//! let view = View::compute(
//!     relation.clone(),
//!     Predicate::all(),
//!     vec![schema.attr("district").unwrap(), schema.attr("year").unwrap()],
//!     schema.attr("severity").unwrap(),
//!     &reptile_relational::Exec::Serial,
//! )
//! .unwrap();
//!
//! // Complain that Ofla's 1986 mean severity looks too low, and ask Reptile
//! // which drill-down group to look at.
//! let complaint = Complaint::new(
//!     GroupKey(vec![Value::str("Ofla"), Value::int(1986)]),
//!     AggregateKind::Mean,
//!     Direction::TooLow,
//! );
//! let engine = Reptile::new(relation, schema);
//! let recommendation = engine.recommend(&view, &complaint).unwrap();
//! assert!(!recommendation.ranked.is_empty());
//! ```
//!
//! The heavy lifting lives in the companion crates:
//! `reptile-relational` (data model), `reptile-factor` (factorised matrices
//! and decomposed aggregates), `reptile-linalg`
//! (dense substrate), `reptile-model` (multi-level EM model),
//! `reptile-datasets` (workload simulators for the paper's experiments), and
//! `reptile-session` (cached interactive explanation sessions and the
//! parallel multi-complaint `BatchServer`). This crate's [`cache`] module
//! defines the canonical view/model signatures and the [`cache::EngineCache`]
//! interface those sessions inject via [`Reptile::recommend_with_cache`].

pub mod baselines;
pub mod cache;
pub mod complaint;
pub mod engine;

pub use cache::{
    config_fingerprint, EngineCache, FittedRepairModel, ModelKey, NoCache, TrainedModel, ViewKey,
};
pub use complaint::{Complaint, Direction};
pub use engine::{
    HierarchyRecommendation, IngestReport, IngestSink, Recommendation, RepairModelKind, Reptile,
    ReptileConfig, ScoredGroup,
};
pub use reptile_factor::{Exec, Parallelism, Remote, RemoteError, RemoteTransport, SessionStats};
pub use reptile_obs::{MetricsSnapshot, ObsConfig};

/// Errors surfaced by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum ReptileError {
    /// The complaint tuple does not exist in the provided view.
    UnknownComplaintTuple(String),
    /// No hierarchy can be drilled further from the current view.
    NothingToDrill,
    /// Model training failed.
    Model(String),
    /// Relational failure.
    Relational(String),
}

impl std::fmt::Display for ReptileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReptileError::UnknownComplaintTuple(k) => {
                write!(f, "complaint tuple {k} not found in the current view")
            }
            ReptileError::NothingToDrill => {
                write!(f, "no hierarchy has a further level to drill into")
            }
            ReptileError::Model(m) => write!(f, "model error: {m}"),
            ReptileError::Relational(m) => write!(f, "relational error: {m}"),
        }
    }
}

impl std::error::Error for ReptileError {}

impl From<reptile_model::ModelError> for ReptileError {
    fn from(e: reptile_model::ModelError) -> Self {
        ReptileError::Model(e.to_string())
    }
}

impl From<reptile_relational::RelationalError> for ReptileError {
    fn from(e: reptile_relational::RelationalError) -> Self {
        ReptileError::Relational(e.to_string())
    }
}

/// Result alias for the crate.
pub type Result<T> = std::result::Result<T, ReptileError>;
