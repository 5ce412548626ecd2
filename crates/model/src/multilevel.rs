//! Multi-level (mixed effects) linear model trained with EM (Appendix D).
//!
//! The model for cluster `i` is `y_i = X_i·β + Z_i·b_i + ε_i` with
//! `b_i ~ N(0, Σ)` and `ε_i ~ N(0, σ²I)`. Clusters are the parent groups of
//! the drill-down (e.g. the districts when drilling from district to
//! village); `Z_i` defaults to `X_i` restricted to the design's
//! random-effect columns `z`.
//!
//! **Sufficient statistics.** Appendix D ("Bottleneck") precomputes what
//! every EM iteration reuses; this fit carries that through to the end, so
//! no iteration touches the `n` design rows. Once per fit it computes the
//! gram `G = XᵀX` and its inverse, `Xᵀy`, every cluster's full gram
//! `G_i = X_iᵀX_i`, the OLS point `β₀ = G⁻¹Xᵀy`, its residual
//! `r₀ = y − Xβ₀` with `s₀ = ‖r₀‖²`, `e_i = X_iᵀr₀_i` and `d = Xᵀr₀`.
//! Every iteration is then small-matrix algebra around `β₀`, with
//! `δ = β − β₀`:
//!
//! * `Z_iᵀ(y_i − X_iβ) = e_i[z] − G_i[z,:]·δ`;
//! * `Xᵀ(y − Zb) = Xᵀy − Σ_i G_i[:,z]·b_i`;
//! * `‖y − Xβ‖² = s₀ − 2δᵀd + δᵀGδ` — never the expanded
//!   `yᵀy − 2βᵀXᵀy + βᵀGβ`, which cancels catastrophically when `y` is
//!   large next to its residual (view counts);
//! * the σ² cross term `(y − Xβ)ᵀZb = Σ_i b_iᵀZ_iᵀ(y_i − X_iβ)`, and the
//!   trace term `Σ_i tr(Z_iᵀZ_i·E[b_ib_iᵀ])` as before.
//!
//! An iteration costs `O(g·m²)` for `g` clusters and `m` columns, whatever
//! `n` is. Cluster sums run in cluster order on the coordinator, so the fit
//! is `==` under every [`Exec`]. The final `rss` is one exact pass after
//! the loop.
//!
//! Two training backends differ only in how they compute those
//! statistics (`Products`):
//! * [`TrainingBackend::Factorized`] — the factorised operators (gram,
//!   per-cluster grams, left/right multiplication) over the
//!   dictionary-encoded columnar representation; the feature matrix is
//!   never materialised.
//! * [`TrainingBackend::Materialized`] — the "Matlab/LAPACK style" baseline
//!   used in Figure 10: the feature matrix is fully materialised and every
//!   statistic is a dense product.
//!
//! The gram-style systems inverted by EM (`XᵀX`, `Z_iᵀZ_i/σ² + Σ⁻¹`, `Σ`)
//! are symmetric positive definite once ridged, so they go through the
//! Cholesky path of [`invert_spd_with_ridge`], which falls back to pivoted
//! LU on non-SPD input.

use crate::design::TrainingDesign;
use crate::{ModelError, Result};
use reptile_factor::{encoded, Exec, Parallelism};
use reptile_linalg::cholesky::invert_spd_with_ridge;
use reptile_linalg::Matrix;
use reptile_obs::{Stage, StageTimer};

/// EM training configuration.
#[derive(Debug, Clone, Copy)]
pub struct MultilevelConfig {
    /// Maximum number of EM iterations (the paper uses 20).
    pub iterations: usize,
    /// Ridge added to gram matrices before inversion for numerical safety.
    pub ridge: f64,
    /// Early-stopping tolerance on the change of `β` between iterations.
    pub tolerance: f64,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            iterations: 20,
            ridge: 1e-8,
            tolerance: 1e-10,
        }
    }
}

/// Which execution path EM uses for matrix products.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrainingBackend {
    /// Factorised operators over dictionary-encoded codes (Reptile default).
    Factorized,
    /// Fully materialised dense products (Matlab-style baseline).
    Materialized,
}

/// A fitted multi-level model.
#[derive(Debug, Clone)]
pub struct MultilevelModel {
    /// Fixed-effect coefficients (one per design column).
    pub beta: Vec<f64>,
    /// Residual variance σ².
    pub sigma2: f64,
    /// Random-effect covariance Σ (q × q).
    pub sigma_b: Matrix,
    /// Random-effect coefficients per cluster (each of length q).
    pub b: Vec<Vec<f64>>,
    /// Design columns included in Z.
    pub z_columns: Vec<usize>,
    /// Number of EM iterations actually run.
    pub iterations_run: usize,
    /// Whether the β change dropped below the tolerance.
    pub converged: bool,
    /// Residual sum of squares of the fitted values (fixed + random).
    pub rss: f64,
    /// Number of training rows.
    pub n: usize,
}

impl MultilevelModel {
    /// Fit with the default (factorised) backend.
    pub fn fit(design: &TrainingDesign, config: MultilevelConfig) -> Result<Self> {
        Self::fit_exec(design, config, TrainingBackend::Factorized, &Exec::Serial)
    }

    /// Fit under an execution context. On the
    /// [`TrainingBackend::Factorized`] (encoded) path the once-per-fit
    /// statistics (gram cells, per-cluster grams, the cluster products of
    /// the OLS residual) fan out over [`Exec::parallelism`]'s shards. Every
    /// sharded step runs the identical per-entry/per-cluster serial
    /// floating-point sequence and the EM loop itself is serial, so the
    /// fitted model is **bit-identical** to the fit under
    /// [`Exec::Serial`] — the shard-merge property
    /// tests assert `==` on `beta`, `sigma2`, `sigma_b`, `b` and the
    /// predictions. The fit always runs on the calling process:
    /// [`Exec::Remote`] fits at its coordinator-side budget, because the
    /// design lives there and workers hold relation partitions, not
    /// designs. The materialized baseline ignores the budget (it exists to
    /// be an honest serial baseline).
    pub fn fit_exec(
        design: &TrainingDesign,
        config: MultilevelConfig,
        backend: TrainingBackend,
        exec: &Exec,
    ) -> Result<Self> {
        // One solve span per model fit (all backends), nested E-step spans
        // per EM iteration — observability never changes the fit itself.
        let _span = StageTimer::start(Stage::Solve);
        let products = Products::new(design, backend, exec.parallelism())?;
        Self::fit_from(design, config, &products)
    }

    /// Fitted values (fixed + random effects) for every design row.
    pub fn predict_all(&self, design: &TrainingDesign) -> Vec<f64> {
        self.predict_all_with(design, &Parallelism::serial())
    }

    /// [`MultilevelModel::predict_all`] with the per-cluster products
    /// sharded over `par` (bit-identical — the cluster operators gather in
    /// row order).
    pub fn predict_all_with(&self, design: &TrainingDesign, par: &Parallelism) -> Vec<f64> {
        let fixed = design.clusters().right_mult_shared_vec(&self.beta, par);
        let padded: Vec<Vec<f64>> = self
            .b
            .iter()
            .map(|bi| pad(bi, &self.z_columns, design.n_cols()))
            .collect();
        let random = design.clusters().right_mult_per_cluster_vec(&padded, par);
        fixed.iter().zip(&random).map(|(f, r)| f + r).collect()
    }

    /// Fixed-effect-only predictions (`X·β`).
    pub fn predict_fixed(&self, design: &TrainingDesign) -> Vec<f64> {
        design
            .clusters()
            .right_mult_shared_vec(&self.beta, &Parallelism::serial())
    }

    /// Number of estimated parameters, used for AIC: the fixed effects, the
    /// free entries of Σ, and σ².
    pub fn n_params(&self) -> usize {
        let q = self.z_columns.len();
        self.beta.len() + q * (q + 1) / 2 + 1
    }

    /// The fit itself, shared by every backend and context: the once-per-fit
    /// statistics through `products`, then the EM loop, which reads nothing
    /// of size `n`.
    fn fit_from(
        design: &TrainingDesign,
        config: MultilevelConfig,
        products: &Products<'_>,
    ) -> Result<Self> {
        let y = design.y();
        let n = y.len();
        let m = design.n_cols();
        let z = design.z_columns();
        let q = z.len();

        // ---------------- once per fit ----------------
        let gram = products.gram()?;
        let cluster_grams = products.cluster_grams()?;
        let g = cluster_grams.len();
        let gram_inv = invert_spd_with_ridge(&gram, config.ridge)?;
        let xty = products.xt(y)?;
        let beta0 = gram_inv.matmul(&Matrix::column_vector(&xty))?.into_data();
        let r0: Vec<f64> = y
            .iter()
            .zip(products.x(&beta0)?)
            .map(|(yi, fi)| yi - fi)
            .collect();
        let s0: f64 = r0.iter().map(|r| r * r).sum();
        let e = products.cluster_xt(&r0)?;
        let d = products.xt(&r0)?;
        let ztz: Vec<Matrix> = cluster_grams
            .iter()
            .map(|gi| select_square(gi, z))
            .collect();
        // `Z_iᵀ(y_i − X_iβ)` for every cluster, from `δ = β − β₀`.
        let zt_residual = |delta: &[f64]| -> Vec<Vec<f64>> {
            cluster_grams
                .iter()
                .zip(&e)
                .map(|(gi, ei)| z.iter().map(|&r| ei[r] - dot(gi.row(r), delta)).collect())
                .collect()
        };

        // ---------------- EM ----------------
        let mut beta = beta0.clone();
        let mut sigma2 = (s0 / n.max(1) as f64).max(1e-9);
        let mut sigma_b = Matrix::identity(q).scale(sigma2.max(1e-6));
        let mut b: Vec<Vec<f64>> = vec![vec![0.0; q]; g];
        let mut zt_r = zt_residual(&vec![0.0; m]);
        let mut iterations_run = 0usize;
        let mut converged = false;
        for _ in 0..config.iterations {
            iterations_run += 1;
            // E step: the posterior of every b_i,
            // V_i = (Z_iᵀZ_i/σ² + Σ⁻¹)⁻¹, μ_i = V_i·Z_iᵀ(y_i − X_iβ)/σ².
            // Σ = mean E[b_ib_iᵀ] and the σ² trace term
            // Σ_i tr(Z_iᵀZ_i·E[b_ib_iᵀ]) accumulate as each posterior lands.
            let e_step_span = StageTimer::start(Stage::EStep);
            let sigma_b_inv = invert_spd_with_ridge(&sigma_b, config.ridge)?;
            let mut sigma_sum = Matrix::zeros(q, q);
            let mut trace_term = 0.0;
            for ((ztz_i, zt_ri), bi) in ztz.iter().zip(&zt_r).zip(b.iter_mut()) {
                let vi_inner = Matrix::from_fn(q, q, |r, c| {
                    ztz_i.get(r, c) * (1.0 / sigma2) + sigma_b_inv.get(r, c)
                });
                let vi = invert_spd_with_ridge(&vi_inner, config.ridge)?;
                for (a, mu) in bi.iter_mut().enumerate() {
                    *mu = dot(vi.row(a), zt_ri) * (1.0 / sigma2);
                }
                // E[b_ib_iᵀ] = V_i + μ_iμ_iᵀ, symmetric (so is V_i, exactly).
                let mut tr = 0.0;
                for r in 0..q {
                    for c in 0..q {
                        let e = vi.get(r, c) + bi[r] * bi[c];
                        sigma_sum.add_at(r, c, e);
                        tr += ztz_i.get(r, c) * e;
                    }
                }
                trace_term += tr;
            }
            sigma_b = sigma_sum.scale(1.0 / g.max(1) as f64);
            drop(e_step_span);

            // M step: β = G⁻¹·(Xᵀy − Σ_i G_i[:,z]·b_i).
            let mut xt_zb = vec![0.0; m];
            for (gi, bi) in cluster_grams.iter().zip(&b) {
                for (row, acc) in xt_zb.iter_mut().enumerate() {
                    let gi_row = gi.row(row);
                    *acc += z.iter().zip(bi).map(|(&c, v)| gi_row[c] * v).sum::<f64>();
                }
            }
            let xt_y_minus_zb: Vec<f64> = xty.iter().zip(&xt_zb).map(|(a, b)| a - b).collect();
            let new_beta = gram_inv
                .matmul(&Matrix::column_vector(&xt_y_minus_zb))?
                .into_data();

            // σ² = (1/n)[‖y − Xβ‖² + Σ_i tr(Z_iᵀZ_i·E[b_ib_iᵀ]) − 2(y − Xβ)ᵀZb]
            let delta: Vec<f64> = new_beta.iter().zip(&beta0).map(|(a, b)| a - b).collect();
            let gram_delta: Vec<f64> = (0..m).map(|r| dot(gram.row(r), &delta)).collect();
            let rtr = s0 - 2.0 * dot(&delta, &d) + dot(&delta, &gram_delta);
            zt_r = zt_residual(&delta);
            let cross: f64 = b.iter().zip(&zt_r).map(|(bi, zr)| dot(bi, zr)).sum();
            sigma2 = ((rtr + trace_term - 2.0 * cross) / n as f64).max(1e-12);

            let step: f64 = beta
                .iter()
                .zip(&new_beta)
                .map(|(a, c)| (a - c) * (a - c))
                .sum::<f64>()
                .sqrt();
            beta = new_beta;
            if step < config.tolerance {
                converged = true;
                break;
            }
        }

        // The final residual sum of squares: one exact pass.
        let padded: Vec<Vec<f64>> = b.iter().map(|bi| pad(bi, z, m)).collect();
        let zb = products.x_per_cluster(&padded)?;
        let fixed = products.x(&beta)?;
        let rss: f64 = y
            .iter()
            .zip(fixed.iter().zip(&zb))
            .map(|(yi, (f, z))| {
                let e = yi - f - z;
                e * e
            })
            .sum();

        Ok(MultilevelModel {
            beta,
            sigma2,
            sigma_b,
            b,
            z_columns: z.to_vec(),
            iterations_run,
            converged,
            rss,
            n,
        })
    }
}

/// How one fit multiplies by its design. Every `O(n)` pass of EM goes
/// through here, before the iteration loop or after it; the backends differ
/// in nothing else.
enum Products<'a> {
    /// Factorised operators: `G` and `Xᵀv` over the encoded aggregates and
    /// the per-cluster products over the cluster partition.
    Factorized {
        design: &'a TrainingDesign,
        par: Parallelism,
    },
    /// Dense products over the materialised `X` and its cluster row ranges.
    Dense {
        x: Matrix,
        ranges: Vec<(usize, usize)>,
    },
}

impl<'a> Products<'a> {
    fn new(design: &'a TrainingDesign, backend: TrainingBackend, par: Parallelism) -> Result<Self> {
        if design.n_rows() == 0 {
            return Err(ModelError::EmptyTrainingData);
        }
        Ok(match backend {
            TrainingBackend::Factorized => Products::Factorized { design, par },
            TrainingBackend::Materialized => Products::Dense {
                x: design.materialize_x(),
                ranges: design.clusters().row_ranges(),
            },
        })
    }

    /// `G = XᵀX`.
    fn gram(&self) -> Result<Matrix> {
        Ok(match self {
            Products::Factorized { design, par } => {
                let enc = design.encoded();
                encoded::gram(&enc.aggregates, &enc.features, par)
            }
            Products::Dense { x, .. } => x.transpose().matmul(x)?,
        })
    }

    /// Every cluster's `G_i = X_iᵀX_i`, in cluster order.
    fn cluster_grams(&self) -> Result<Vec<Matrix>> {
        match self {
            Products::Factorized { design, par } => Ok(design.clusters().grams(par)),
            Products::Dense { x, ranges } => ranges
                .iter()
                .map(|&(s, l)| {
                    let block = x.row_block(s, l);
                    Ok(block.transpose().matmul(&block)?)
                })
                .collect(),
        }
    }

    /// `Xᵀv`.
    fn xt(&self, v: &[f64]) -> Result<Vec<f64>> {
        Ok(match self {
            Products::Factorized { design, par } => {
                let enc = design.encoded();
                encoded::transpose_vec_mult(v, &enc.aggregates, &enc.features, par)
            }
            Products::Dense { x, .. } => {
                x.transpose().matmul(&Matrix::column_vector(v))?.into_data()
            }
        })
    }

    /// `X_iᵀv_i` for every cluster `i` (`v_i`: `v` on the cluster's rows).
    fn cluster_xt(&self, v: &[f64]) -> Result<Vec<Vec<f64>>> {
        match self {
            Products::Factorized { design, par } => {
                Ok(design.clusters().left_mult_global_vec(v, par))
            }
            Products::Dense { x, ranges } => ranges
                .iter()
                .map(|&(s, l)| {
                    let row = Matrix::row_vector(&v[s..s + l]).matmul(&x.row_block(s, l))?;
                    Ok(row.row(0).to_vec())
                })
                .collect(),
        }
    }

    /// `X·β`.
    fn x(&self, beta: &[f64]) -> Result<Vec<f64>> {
        Ok(match self {
            Products::Factorized { design, par } => {
                design.clusters().right_mult_shared_vec(beta, par)
            }
            Products::Dense { x, .. } => x.matmul(&Matrix::column_vector(beta))?.into_data(),
        })
    }

    /// `X_i·β_i` for every cluster, concatenated in row order.
    fn x_per_cluster(&self, betas: &[Vec<f64>]) -> Result<Vec<f64>> {
        match self {
            Products::Factorized { design, par } => {
                Ok(design.clusters().right_mult_per_cluster_vec(betas, par))
            }
            Products::Dense { x, ranges } => {
                let mut out = Vec::with_capacity(x.rows());
                for (&(s, l), beta) in ranges.iter().zip(betas) {
                    let block = x.row_block(s, l);
                    out.extend(block.matmul(&Matrix::column_vector(beta))?.into_data());
                }
                Ok(out)
            }
        }
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Expand a q-vector over `z_cols` into an m-vector with zeros elsewhere.
pub(crate) fn pad(b: &[f64], z_cols: &[usize], m: usize) -> Vec<f64> {
    let mut out = vec![0.0; m];
    for (v, &c) in b.iter().zip(z_cols) {
        out[c] = *v;
    }
    out
}

/// Select the square sub-matrix of `m` given row/column indices.
pub(crate) fn select_square(m: &Matrix, idx: &[usize]) -> Matrix {
    Matrix::from_fn(idx.len(), idx.len(), |r, c| m.get(idx[r], idx[c]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::DesignBuilder;
    use crate::features::FeaturePlan;
    use crate::linear::LinearModel;
    use reptile_relational::{AggregateKind, Predicate, Relation, Schema, Value, View};
    use std::sync::Arc;

    /// Hierarchical dataset with strong cluster effects: each district has a
    /// systematic offset on top of a year effect; villages add noise.
    fn clustered_dataset(noise: f64) -> (Arc<Relation>, View) {
        let schema = Arc::new(
            Schema::builder()
                .hierarchy("time", ["year"])
                .hierarchy("geo", ["district", "village"])
                .measure("m")
                .build()
                .unwrap(),
        );
        let mut b = Relation::builder(schema.clone());
        let mut seed = 17u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / u32::MAX as f64) - 0.5
        };
        for (yi, year) in [2000i64, 2001, 2002].iter().enumerate() {
            for (di, district) in ["D0", "D1", "D2", "D3"].iter().enumerate() {
                for v in 0..4 {
                    let value = 10.0 * (yi as f64 + 1.0) + 5.0 * di as f64 + noise * next();
                    b = b
                        .row([
                            Value::int(*year),
                            Value::str(*district),
                            Value::str(format!("{district}-v{v}")),
                            Value::float(value),
                        ])
                        .unwrap();
                }
            }
        }
        let rel = Arc::new(b.build());
        let s = rel.schema().clone();
        let view = View::compute(
            rel.clone(),
            Predicate::all(),
            vec![
                s.attr("year").unwrap(),
                s.attr("district").unwrap(),
                s.attr("village").unwrap(),
            ],
            s.attr("m").unwrap(),
            &reptile_relational::Exec::Serial,
        )
        .unwrap();
        (rel, view)
    }

    #[test]
    fn factorized_and_materialized_backends_agree() {
        let (rel, view) = clustered_dataset(1.0);
        let schema = rel.schema().clone();
        let design = DesignBuilder::new(&view, &schema, AggregateKind::Mean)
            .build()
            .unwrap();
        let config = MultilevelConfig {
            iterations: 10,
            ..Default::default()
        };
        let fact =
            MultilevelModel::fit_exec(&design, config, TrainingBackend::Factorized, &Exec::Serial)
                .unwrap();
        let dense = MultilevelModel::fit_exec(
            &design,
            config,
            TrainingBackend::Materialized,
            &Exec::Serial,
        )
        .unwrap();
        for (a, b) in fact.beta.iter().zip(&dense.beta) {
            assert!((a - b).abs() < 1e-6, "beta mismatch: {a} vs {b}");
        }
        assert!((fact.sigma2 - dense.sigma2).abs() < 1e-6);
        assert!(fact.sigma_b.max_abs_diff(&dense.sigma_b) < 1e-6);
        let pf = fact.predict_all(&design);
        let pd = dense.predict_all(&design);
        for (a, b) in pf.iter().zip(&pd) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn sharded_fit_is_bit_identical_to_serial() {
        let (rel, view) = clustered_dataset(1.5);
        let schema = rel.schema().clone();
        let config = MultilevelConfig {
            iterations: 8,
            ..Default::default()
        };
        let serial_design = DesignBuilder::new(&view, &schema, AggregateKind::Mean)
            .build()
            .unwrap();
        let serial = MultilevelModel::fit_exec(
            &serial_design,
            config,
            TrainingBackend::Factorized,
            &Exec::Serial,
        )
        .unwrap();
        // Shard counts below, at, and above the cluster/thread sweet spot —
        // all must reproduce the serial fit exactly (==, not tolerance).
        for threads in [2usize, 3, 64] {
            let par = Parallelism::new(threads);
            let design = DesignBuilder::new(&view, &schema, AggregateKind::Mean)
                .with_exec(reptile_relational::Exec::Pool(par))
                .build()
                .unwrap();
            let sharded = MultilevelModel::fit_exec(
                &design,
                config,
                TrainingBackend::Factorized,
                &Exec::Shards(threads),
            )
            .unwrap();
            assert_eq!(serial.beta, sharded.beta, "{threads} threads");
            assert_eq!(serial.sigma2, sharded.sigma2);
            assert_eq!(serial.sigma_b, sharded.sigma_b);
            assert_eq!(serial.b, sharded.b);
            assert_eq!(serial.rss, sharded.rss);
            assert_eq!(serial.iterations_run, sharded.iterations_run);
            assert_eq!(
                serial.predict_all(&serial_design),
                sharded.predict_all_with(&design, &par)
            );
        }
    }

    #[test]
    fn multilevel_fits_cluster_offsets_better_than_ols() {
        let (rel, view) = clustered_dataset(2.0);
        let schema = rel.schema().clone();
        let design = DesignBuilder::new(&view, &schema, AggregateKind::Mean)
            .build()
            .unwrap();
        let linear = LinearModel::fit(&design).unwrap();
        let ml = MultilevelModel::fit(&design, MultilevelConfig::default()).unwrap();
        assert!(ml.iterations_run >= 1);
        assert!(
            ml.rss <= linear.rss + 1e-9,
            "multi-level RSS {} should not exceed OLS RSS {}",
            ml.rss,
            linear.rss
        );
        assert_eq!(ml.b.len(), design.clusters().len());
        assert_eq!(
            ml.n_params(),
            design.n_cols() + design.n_cols() * (design.n_cols() + 1) / 2 + 1
        );
    }

    #[test]
    fn predictions_are_reasonable_for_observed_groups() {
        let (rel, view) = clustered_dataset(0.5);
        let schema = rel.schema().clone();
        let design = DesignBuilder::new(&view, &schema, AggregateKind::Mean)
            .build()
            .unwrap();
        let ml = MultilevelModel::fit(&design, MultilevelConfig::default()).unwrap();
        let preds = ml.predict_all(&design);
        let mut total_err = 0.0;
        let mut count = 0.0;
        for (row, obs) in design.observed().iter().enumerate() {
            if *obs {
                total_err += (preds[row] - design.y()[row]).abs();
                count += 1.0;
            }
        }
        // Mean absolute error well under the scale of the data (10..45).
        assert!(total_err / count < 2.0, "MAE = {}", total_err / count);
    }

    #[test]
    fn fixed_predictions_exclude_random_effects() {
        let (rel, view) = clustered_dataset(1.0);
        let schema = rel.schema().clone();
        let design = DesignBuilder::new(&view, &schema, AggregateKind::Mean)
            .build()
            .unwrap();
        let ml = MultilevelModel::fit(&design, MultilevelConfig::default()).unwrap();
        let fixed = ml.predict_fixed(&design);
        let full = ml.predict_all(&design);
        assert_eq!(fixed.len(), full.len());
        // Random effects are non-trivial for this clustered data, so the two
        // prediction vectors must differ somewhere.
        let diff: f64 = fixed
            .iter()
            .zip(&full)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(diff > 1e-8);
    }

    // ------------------------------------------------------------------
    // Oracle battery: the sufficient-statistics loop against the
    // pre-rewrite loop (`em_oracle`), which made its O(n) passes inside
    // every iteration. The floating-point sequence changed, so agreement is
    // to a stated bound, not `==`.
    // ------------------------------------------------------------------

    /// `max |new − old| / max |old|` over every entry of a field (every
    /// `b_i` together, so clusters whose random effect is near zero are
    /// judged on the effects' scale).
    fn relative_gap(new: &[f64], old: &[f64]) -> f64 {
        assert_eq!(new.len(), old.len());
        let scale = old.iter().fold(0.0f64, |a, v| a.max(v.abs()));
        let diff = new
            .iter()
            .zip(old)
            .fold(0.0f64, |a, (x, y)| a.max((x - y).abs()));
        if diff == 0.0 {
            0.0
        } else {
            diff / scale
        }
    }

    /// The largest [`relative_gap`] over β, σ², Σ, the `b_i` and `rss`;
    /// iteration counts and shapes must be equal.
    fn model_gap(new: &MultilevelModel, old: &MultilevelModel) -> f64 {
        assert_eq!(new.iterations_run, old.iterations_run);
        assert_eq!(new.converged, old.converged);
        assert_eq!((&new.z_columns, new.n), (&old.z_columns, old.n));
        [
            relative_gap(&new.beta, &old.beta),
            relative_gap(&[new.sigma2], &[old.sigma2]),
            relative_gap(new.sigma_b.data(), old.sigma_b.data()),
            relative_gap(&new.b.concat(), &old.b.concat()),
            relative_gap(&[new.rss], &[old.rss]),
        ]
        .into_iter()
        .fold(0.0, f64::max)
    }

    const BACKENDS: [TrainingBackend; 2] =
        [TrainingBackend::Factorized, TrainingBackend::Materialized];

    /// Largest gap between the fit and the oracle, over every backend.
    fn oracle_gap(design: &TrainingDesign, config: MultilevelConfig) -> f64 {
        BACKENDS
            .iter()
            .map(|&backend| {
                let new =
                    MultilevelModel::fit_exec(design, config, backend, &Exec::Serial).unwrap();
                let old = crate::em_oracle::fit(design, config, backend).unwrap();
                model_gap(&new, &old)
            })
            .fold(0.0, f64::max)
    }

    /// A well-conditioned design: every field within 1e-9 relative of the
    /// oracle, on every backend.
    fn assert_matches_oracle(label: &str, design: &TrainingDesign, config: MultilevelConfig) {
        let gap = oracle_gap(design, config);
        assert!(gap <= 1e-9, "{label}: relative gap {gap:e} to the oracle");
    }

    /// A year × region → district → village panel drilled to the village:
    /// one cluster per (year, district) with `villages` rows. Values are
    /// `offset` plus `scale` × (year, district and village effects plus
    /// noise).
    fn panel(
        (regions, districts, villages): (usize, usize, usize),
        offset: f64,
        scale: f64,
        plan: FeaturePlan,
    ) -> TrainingDesign {
        let schema = Arc::new(
            Schema::builder()
                .hierarchy("time", ["year"])
                .hierarchy("geo", ["region", "district", "village"])
                .measure("m")
                .build()
                .unwrap(),
        );
        let mut b = Relation::builder(schema.clone());
        let mut seed = 0x5EED_u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / u32::MAX as f64) - 0.5
        };
        for year in 0..3i64 {
            for r in 0..regions {
                for d in 0..districts {
                    for v in 0..villages {
                        let value = offset
                            + scale
                                * (10.0 * (year as f64 + 1.0)
                                    + 7.0 * r as f64
                                    + 3.0 * ((d * 5 + r) % 4) as f64
                                    + 0.5 * v as f64
                                    + 2.0 * next());
                        b = b
                            .row([
                                Value::int(2000 + year),
                                Value::str(format!("R{r}")),
                                Value::str(format!("R{r}-D{d}")),
                                Value::str(format!("R{r}-D{d}-v{v}")),
                                Value::float(value),
                            ])
                            .unwrap();
                    }
                }
            }
        }
        let rel = Arc::new(b.build());
        let s = rel.schema().clone();
        let view = View::compute(
            rel.clone(),
            Predicate::all(),
            ["year", "region", "district", "village"]
                .iter()
                .map(|a| s.attr(a).unwrap())
                .collect(),
            s.attr("m").unwrap(),
            &reptile_relational::Exec::Serial,
        )
        .unwrap();
        DesignBuilder::new(&view, &schema, AggregateKind::Mean)
            .with_plan(plan)
            .build()
            .unwrap()
    }

    #[test]
    fn sufficient_statistics_fit_matches_the_oracle() {
        let config = MultilevelConfig::default();
        for noise in [0.5, 1.5, 4.0] {
            let (rel, view) = clustered_dataset(noise);
            let design = DesignBuilder::new(&view, rel.schema(), AggregateKind::Mean)
                .build()
                .unwrap();
            assert_matches_oracle(&format!("clustered, noise {noise}"), &design, config);
        }
        let design = panel((3, 4, 5), 0.0, 1.0, FeaturePlan::none());
        assert_matches_oracle("panel", &design, config);
        let plan = FeaturePlan::none().exclude_from_z("district");
        let narrow = panel((3, 4, 5), 0.0, 1.0, plan);
        assert!(narrow.z_columns().len() < narrow.n_cols());
        assert_matches_oracle("panel, z ⊂ x", &narrow, config);
        // An early stop: a loose tolerance fires mid-loop on both sides.
        let loose = MultilevelConfig {
            tolerance: 1e-2,
            ..config
        };
        assert_matches_oracle("tolerance 1e-2", &design, loose);
        let early = MultilevelModel::fit(&design, loose).unwrap();
        assert!(early.converged && early.iterations_run < loose.iterations);
    }

    #[test]
    fn one_row_clusters_match_the_oracle() {
        // One village per district: every cluster's gram is rank one.
        let design = panel((3, 4, 1), 0.0, 1.0, FeaturePlan::none());
        assert!(design.clusters().clusters().iter().all(|c| c.len == 1));
        assert_matches_oracle("one-row clusters", &design, MultilevelConfig::default());
    }

    #[test]
    fn ridge_and_lu_fallback_matches_the_oracle() {
        use reptile_linalg::cholesky::CholeskyDecomposition;
        use reptile_linalg::lu::LuDecomposition;
        // Features of order 1e-8 put every pivot of `XᵀX` under the 1e-12
        // floor: without a ridge, Cholesky refuses, pivoted LU refuses, and
        // `invert_spd_with_ridge` inverts with the escalated ridge.
        let design = panel((3, 4, 5), 0.0, 1e-9, FeaturePlan::none());
        let config = MultilevelConfig {
            ridge: 0.0,
            ..Default::default()
        };
        for backend in BACKENDS {
            let products = Products::new(&design, backend, Parallelism::serial()).unwrap();
            let gram = products.gram().unwrap();
            assert!(CholeskyDecomposition::new(&gram).is_err(), "{backend:?}");
            assert!(LuDecomposition::new(&gram).is_err(), "{backend:?}");
        }
        assert_matches_oracle("ridge fallback", &design, config);
    }

    /// Ill-conditioned designs are determined only to about `κ·ε`, and the
    /// oracle's own backends (same loop, other products) already disagree
    /// far above 1e-9 on them. The bound there is that disagreement: the
    /// rewrite stays as close to the oracle as the oracle's `Factorized`
    /// and `Materialized` fits are to each other.
    #[test]
    fn ill_conditioned_designs_stay_within_the_oracles_own_spread() {
        use reptile_linalg::cholesky::CholeskyDecomposition;
        let exact = MultilevelConfig {
            ridge: 0.0,
            ..Default::default()
        };
        // One district per region: the region and district main effects
        // are the same column, so `XᵀX` is singular and Cholesky refuses
        // it (the LU path then escalates the ridge).
        let collinear = panel((4, 1, 3), 0.0, 1.0, FeaturePlan::none());
        let products = Products::new(
            &collinear,
            TrainingBackend::Factorized,
            Parallelism::serial(),
        )
        .unwrap();
        assert!(CholeskyDecomposition::new(&products.gram().unwrap()).is_err());
        // Counts-sized responses: every feature near 1e3, close to the
        // intercept column.
        let counts = panel((3, 4, 5), 1e3, 1.0, FeaturePlan::none());
        for (label, design, config) in [
            ("collinear", &collinear, exact),
            ("counts", &counts, MultilevelConfig::default()),
        ] {
            let spread = model_gap(
                &crate::em_oracle::fit(design, config, TrainingBackend::Factorized).unwrap(),
                &crate::em_oracle::fit(design, config, TrainingBackend::Materialized).unwrap(),
            );
            let gap = oracle_gap(design, config);
            assert!(spread > 1e-9, "{label}: not ill-conditioned ({spread:e})");
            assert!(
                gap <= spread,
                "{label}: gap {gap:e} to the oracle, oracle's own spread {spread:e}"
            );
        }
    }
}
