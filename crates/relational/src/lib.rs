//! Relational substrate for the Reptile reproduction.
//!
//! **Paper map** (Huang & Wu, *Reptile*, SIGMOD 2022): this crate implements
//! the data model of **Section 3.1** — relations whose dimension attributes
//! are partitioned into hierarchies, complaint views as group-by aggregates
//! over provenance predicates — plus the distributive merge functions `G` of
//! **Appendix A** that let a parent aggregate absorb a repaired child
//! without rescanning the data:
//!
//! * typed [`Value`]s and columnar [`Relation`]s stored as dictionary-encoded
//!   code columns,
//! * [`Schema`]s whose dimension attributes are partitioned into
//!   [`Hierarchy`] dimensions (e.g. `Region -> District -> Village`),
//! * distributive aggregation ([`AggState`], [`AggregateKind`]) together with
//!   the merge functions `G` of the paper's Appendix A,
//! * group-by [`View`]s, provenance filters and the `drilldown` operator of
//!   Section 3.1,
//! * dictionary encoding of attribute domains ([`ValueDict`]) for the
//!   factorised operators' columnar backend (§4.2's aggregates run on dense
//!   codes; values are decoded only at the explanation boundary),
//! * code-native scan kernels ([`scan`]) — predicates compiled to dense
//!   `u32` comparisons against the relation's per-attribute code columns, with
//!   run skipping and per-shard zone maps, bit-identical to the serial
//!   `Value` scan (see the [`scan`] module docs for the compilation rule),
//! * streaming ingest ([`IngestBatch`], [`Relation::apply`]) — snapshot
//!   semantics for live feeds, with dictionaries that keep existing codes
//!   and append new values,
//! * row sharding ([`Relation::partition`]) — contiguous row shards that
//!   share one per-attribute [`ValueDict`] (stable codes across shards):
//!   the relation-level entry point for distributing a workload, carrying
//!   the same shard invariant the engine's hot path applies internally to
//!   encoded *path* ranges (the paper's training aggregates are additive
//!   across row partitions, so per-shard state merges back exactly — the
//!   workspace property tests pin both levels),
//! * the sharded execution primitive itself ([`Parallelism`] and the
//!   process-wide shard pool in [`parallel`]) — hosted here, at the bottom
//!   of the workspace, so that [`View::compute`] can fan its group-by
//!   scans out over the same pool the factorised operators upstream use
//!   (`reptile-factor` re-exports it unchanged),
//! * the execution context ([`Exec`]) that collapses *where* a plan runs —
//!   inline, shard pool, exact shard count, or across worker processes —
//!   into one argument on every compute surface, with the byte codecs
//!   ([`codec`], [`ship`]) that let `reptile-wire` ship partitions, plans
//!   and partials between coordinator and workers bit-exactly.
//!
//! Everything in the factorised representation, the multi-level model and the
//! Reptile engine itself is built on top of these types.

#![warn(missing_docs)]

pub mod aggregate;
pub mod codec;
pub mod dict;
pub mod error;
pub mod exec;
pub mod hierarchy;
pub mod ingest;
pub mod parallel;
pub mod predicate;
pub mod relation;
pub mod scan;
pub mod schema;
pub mod ship;
pub mod value;
pub mod view;

pub use aggregate::{AggState, AggregateKind};
pub use codec::CodecError;
pub use dict::ValueDict;
pub use error::RelationalError;
pub use exec::{Exec, Remote, RemoteError, RemoteTransport};
pub use hierarchy::{validate_hierarchy, HierarchyLevels};
pub use ingest::IngestBatch;
pub use parallel::{spawn_pool_job, Parallelism, ADAPTIVE_INLINE_FLOOR};
pub use predicate::Predicate;
pub use relation::{Relation, RelationBuilder, RelationShards};
pub use scan::{CodeColumn, CompiledPredicate, MeasureColumn};
pub use schema::{AttrId, Attribute, AttributeRole, Hierarchy, Schema, SchemaBuilder};
pub use value::Value;
pub use view::{DrillDownResult, GroupKey, View};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, RelationalError>;
