//! Model layer of the Reptile reproduction.
//!
//! **Paper map** (Huang & Wu, *Reptile*, SIGMOD 2022): the multi-level
//! repair model of **Section 5** — featurisation (§3.3), training-design
//! assembly over the factorised matrix (§3.4/§5.2), EM training of the
//! mixed-effects model (Appendix D) and AIC model comparison (Appendix K).
//!
//! Reptile estimates a drill-down group's *expected* statistic by fitting a
//! model to the statistics of all parallel groups (Section 3.2). This crate
//! provides:
//!
//! * [`features`] — the default main-effect featurisation of categorical
//!   attributes, auxiliary-dataset features, and custom features
//!   (Section 3.3);
//! * [`design`] — assembling a [`TrainingDesign`]: the factorised feature
//!   matrix, the response vector `y`, and the cluster partition used for the
//!   random effects;
//! * [`linear`] — ordinary least squares over the factorised matrix;
//! * [`multilevel`] — the multi-level (mixed effects) linear model trained by
//!   EM (Appendix D), with both a factorised and a materialised ("Matlab
//!   style") training path;
//! * [`aic`] — Akaike-information-criterion model comparison (Appendix K).

pub mod aic;
pub mod design;
pub mod features;
pub mod linear;
pub mod multilevel;
pub mod remote;

pub use design::{DesignBuilder, DesignRows, EmptyGroupPolicy, TrainingDesign};
pub use features::{ExtraFeature, FeaturePlan};
pub use linear::LinearModel;
pub use multilevel::{MultilevelConfig, MultilevelModel, TrainingBackend};

/// Errors produced while building designs or fitting models.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// The training view had no groups.
    EmptyTrainingData,
    /// A referenced attribute is not part of the training view's group-by.
    UnknownAttribute(String),
    /// Underlying linear algebra failure (singular system etc.).
    Linalg(String),
    /// Underlying relational failure.
    Relational(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::EmptyTrainingData => write!(f, "training view has no groups"),
            ModelError::UnknownAttribute(a) => {
                write!(f, "attribute `{a}` is not in the training view")
            }
            ModelError::Linalg(msg) => write!(f, "linear algebra error: {msg}"),
            ModelError::Relational(msg) => write!(f, "relational error: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<reptile_linalg::LinalgError> for ModelError {
    fn from(e: reptile_linalg::LinalgError) -> Self {
        ModelError::Linalg(e.to_string())
    }
}

impl From<reptile_relational::RelationalError> for ModelError {
    fn from(e: reptile_relational::RelationalError) -> Self {
        ModelError::Relational(e.to_string())
    }
}

/// Result alias for the crate.
pub type Result<T> = std::result::Result<T, ModelError>;
