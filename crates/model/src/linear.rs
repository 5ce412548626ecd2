//! Ordinary least squares over the factorised design.
//!
//! This is the "Linear" baseline of Appendix K and the initialiser of the EM
//! algorithm: `β = (XᵀX)⁻¹ Xᵀ y`, with both products computed directly on the
//! factorised representation.

use crate::design::TrainingDesign;
use crate::Result;
use reptile_factor::{encoded, Parallelism};
use reptile_linalg::cholesky::invert_spd_with_ridge;
use reptile_linalg::Matrix;

/// A fitted ordinary-least-squares model.
#[derive(Debug, Clone)]
pub struct LinearModel {
    /// Fixed-effect coefficients (one per design column).
    pub beta: Vec<f64>,
    /// Residual variance estimate (RSS / n).
    pub sigma2: f64,
    /// Residual sum of squares.
    pub rss: f64,
    /// Number of training rows.
    pub n: usize,
}

impl LinearModel {
    /// Fit by OLS using the factorised gram matrix and `Xᵀy`.
    pub fn fit(design: &TrainingDesign) -> Result<Self> {
        let enc = design.encoded();
        let serial = Parallelism::serial();
        let gram = encoded::gram(&enc.aggregates, &enc.features, &serial);
        let xty = encoded::transpose_vec_mult(design.y(), &enc.aggregates, &enc.features, &serial);
        // The gram matrix is SPD once ridged: Cholesky with LU fallback.
        let gram_inv = invert_spd_with_ridge(&gram, 1e-8)?;
        let beta_mat = gram_inv.matmul(&Matrix::column_vector(&xty))?;
        let beta: Vec<f64> = beta_mat.into_data();
        let fitted = design
            .clusters()
            .right_mult_shared_vec(&beta, &Parallelism::serial());
        let rss: f64 = design
            .y()
            .iter()
            .zip(&fitted)
            .map(|(y, f)| (y - f) * (y - f))
            .sum();
        let n = design.n_rows();
        Ok(LinearModel {
            beta,
            sigma2: if n > 0 { rss / n as f64 } else { 0.0 },
            rss,
            n,
        })
    }

    /// Fitted values for every design row (`X·β`).
    pub fn predict_all(&self, design: &TrainingDesign) -> Vec<f64> {
        design
            .clusters()
            .right_mult_shared_vec(&self.beta, &Parallelism::serial())
    }

    /// Number of estimated parameters (coefficients plus the noise variance),
    /// used for AIC.
    pub fn n_params(&self) -> usize {
        self.beta.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignBuilder;
    // The dense reference solve deliberately stays on the pivoted-LU path so
    // it is independent of the Cholesky code under test.
    use reptile_linalg::lu::invert_with_ridge;
    use reptile_relational::{AggregateKind, Predicate, Relation, Schema, Value, View};
    use std::sync::Arc;

    /// Synthetic dataset where the group mean is exactly recoverable from the
    /// main-effect features: y(group g in year t) = base_t, identical across
    /// groups of a year.
    fn exact_dataset() -> (Arc<Relation>, View) {
        let schema = Arc::new(
            Schema::builder()
                .hierarchy("time", ["year"])
                .hierarchy("geo", ["village"])
                .measure("m")
                .build()
                .unwrap(),
        );
        let mut b = Relation::builder(schema.clone());
        for (year, base) in [(2000i64, 10.0f64), (2001, 20.0), (2002, 30.0)] {
            for v in 0..5 {
                b = b
                    .row([
                        Value::int(year),
                        Value::str(format!("v{v}")),
                        Value::float(base),
                    ])
                    .unwrap();
            }
        }
        let rel = Arc::new(b.build());
        let s = rel.schema().clone();
        let view = View::compute(
            rel.clone(),
            Predicate::all(),
            vec![s.attr("year").unwrap(), s.attr("village").unwrap()],
            s.attr("m").unwrap(),
            &reptile_relational::Exec::Serial,
        )
        .unwrap();
        (rel, view)
    }

    #[test]
    fn ols_recovers_exact_main_effect_structure() {
        let (rel, view) = exact_dataset();
        let schema = rel.schema().clone();
        let design = DesignBuilder::new(&view, &schema, AggregateKind::Mean)
            .build()
            .unwrap();
        let model = LinearModel::fit(&design).unwrap();
        // Every group's mean is exactly its year median, so OLS fits with
        // (near) zero residual.
        assert!(model.rss < 1e-12, "rss = {}", model.rss);
        let preds = model.predict_all(&design);
        for (p, y) in preds.iter().zip(design.y()) {
            assert!((p - y).abs() < 1e-8);
        }
        assert_eq!(model.n, design.n_rows());
        assert_eq!(model.n_params(), design.n_cols() + 1);
    }

    #[test]
    fn ols_matches_dense_normal_equations() {
        let (rel, view) = exact_dataset();
        let schema = rel.schema().clone();
        let design = DesignBuilder::new(&view, &schema, AggregateKind::Count)
            .build()
            .unwrap();
        let model = LinearModel::fit(&design).unwrap();
        // Compare against a dense solve of the same normal equations.
        let x = design.materialize_x();
        let gram = x.transpose().matmul(&x).unwrap();
        let y = Matrix::column_vector(design.y());
        let xty = x.transpose().matmul(&y).unwrap();
        let beta = invert_with_ridge(&gram, 1e-8)
            .unwrap()
            .matmul(&xty)
            .unwrap();
        for (i, b) in model.beta.iter().enumerate() {
            assert!((b - beta.get(i, 0)).abs() < 1e-6, "beta[{i}]");
        }
    }
}
