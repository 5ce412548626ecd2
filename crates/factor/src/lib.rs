//! Factorised representation of hierarchical feature matrices.
//!
//! **Paper map** (Huang & Wu, *Reptile*, SIGMOD 2022): the factorised
//! operators and decomposed aggregates of **Sections 4.2–4.3** (Algorithms
//! 1–4, 10) and the per-cluster operators of Appendices E/F behind the §5
//! model's EM. The drill-down reuse of **Section 4.4** (Figure 9) is not
//! kept: every design build computes its aggregates from its own path
//! tables in O(paths), the same order as any key that could identify them,
//! and the model cache above skips repeated builds.
//!
//! The paper's key systems contribution is that the feature matrix used to
//! train the multi-level repair model never needs to be materialised: its
//! rows are the cartesian product of per-hierarchy paths, so the matrix is
//! exponential in the number of hierarchies while its factorised form is
//! linear. This crate implements:
//!
//! * [`Factorization`] — the f-representation of the attribute/feature matrix
//!   (Section 3.4, Appendix C) as per-hierarchy sorted `Value` path tables:
//!   the input the factors are encoded from, and the form the dense
//!   baselines materialise;
//! * [`encoded`] — the factorised compute path: per-level
//!   [`ValueDict`](reptile_relational::ValueDict)s map values to dense `u32`
//!   codes, the `TOTAL` / `COUNT` / `COF` aggregates of Section 4.2.1
//!   ([`EncodedAggregates`]) run the work-sharing plan of Algorithm 10 with
//!   the cross-hierarchy independence optimisation on flat `Vec<f64>`
//!   tables, and the gram matrix, left and right multiplication of
//!   Algorithms 2–4 and the delta row iterator of Algorithm 1 run on codes
//!   end to end;
//! * [`cluster`] — the per-cluster operator variants (Appendix E/F) used by
//!   the EM algorithm's random-effect updates;
//! * [`lmfao`] — an LMFAO-style baseline that computes the same aggregate
//!   batch without cross-hierarchy independence or work sharing (Figure 8);
//! * [`parallel`] — the sharding primitive ([`Parallelism`]) behind the
//!   shard-parallel builders and operators: the aggregate batch fans out
//!   over contiguous path shards onto a process-wide pool of persistent
//!   std-thread workers and merges *exactly* (every merged quantity is an
//!   integer-count sum), so sharded and serial execution are
//!   bit-identical. The pool itself lives in
//!   [`reptile_relational::parallel`] (so the relational layer's
//!   [`View::compute`](reptile_relational::View::compute) can share it) and
//!   is re-exported here unchanged. *Where* work runs — inline, pool or
//!   exact shard count — is one [`Exec`] argument on every compute surface;
//!   factor work never crosses the wire, so an [`Exec::Remote`] runs it in
//!   process at its local budget.

#![warn(missing_docs)]

pub mod cluster;
pub mod encoded;
pub mod factorization;
pub mod feature;
pub mod lmfao;
pub use reptile_relational::parallel;

pub use cluster::ClusterPartition;
pub use encoded::{
    EncodedAggregates, EncodedDesign, EncodedFactor, EncodedFactorization, EncodedFeatureMap,
    EncodedHierarchyAggregates, EncodedRowIter,
};
pub use factorization::{AttrPosition, Factorization, HierarchyFactor};
pub use feature::FeatureMap;
pub use parallel::Parallelism;
pub use reptile_relational::{Exec, Remote, RemoteError, RemoteTransport};

/// Running counts of hierarchy aggregate computations (see
/// `reptile::Reptile::session_stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Hierarchies whose aggregates a design build computed.
    pub recomputed: usize,
    /// Always 0: aggregates are never reused across design builds.
    pub reused: usize,
    /// Always 0: aggregates are never patched across ingests.
    pub delta_patched: usize,
}

#[cfg(test)]
mod fixtures;

// Unit tests of the decomposed aggregates (Section 4.2.1), the factorised
// operators (Algorithms 2–4) and the delta row iterator (Algorithm 1),
// checked on the encoded implementation against brute force over the
// materialised rows and against `reptile_linalg::naive`.
#[cfg(test)]
mod aggregates {
    mod tests;
}
#[cfg(test)]
mod ops {
    mod tests;
}
#[cfg(test)]
mod row_iter {
    mod tests;
}
