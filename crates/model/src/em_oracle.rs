//! The EM loop as it ran before the sufficient-statistics rewrite, kept as
//! a numerical oracle: every iteration makes its `O(n)` passes over the
//! design (`Xβ`, `Z·b`, `Xᵀ(y − Zb)`, the residual and its cluster
//! products), through the backend's own products. The production fit must
//! agree with it within a stated relative bound on every backend
//! (`multilevel::tests`).

use crate::design::TrainingDesign;
use crate::multilevel::{pad, select_square, MultilevelConfig, MultilevelModel, TrainingBackend};
use crate::Result;
use reptile_factor::{encoded, Parallelism};
use reptile_linalg::cholesky::invert_spd_with_ridge;
use reptile_linalg::Matrix;

/// Fit `design` with the pre-rewrite EM loop on `backend` (serial).
pub(crate) fn fit(
    design: &TrainingDesign,
    config: MultilevelConfig,
    backend: TrainingBackend,
) -> Result<MultilevelModel> {
    let serial = Parallelism::serial();
    let clusters = design.clusters();
    let z_cols = design.z_columns().to_vec();
    let y = design.y();
    let m = design.n_cols();
    match backend {
        TrainingBackend::Factorized => {
            let enc = design.encoded();
            let gram = encoded::gram(&enc.aggregates, &enc.features, &serial);
            let xt_vec = |v: &[f64]| -> Vec<f64> {
                encoded::transpose_vec_mult(v, &enc.aggregates, &enc.features, &serial)
            };
            let ztz: Vec<Matrix> = clusters
                .grams(&serial)
                .iter()
                .map(|g| select_square(g, &z_cols))
                .collect();
            run_em(OracleInputs {
                y,
                m,
                z_cols,
                gram_inv: &invert_spd_with_ridge(&gram, config.ridge)?,
                ztz: &ztz,
                xty: &xt_vec(y),
                fitted_fixed: &|beta| clusters.right_mult_shared_vec(beta, &serial),
                zb_concat: &|padded| clusters.right_mult_per_cluster_vec(padded, &serial),
                zt_global: &|v| clusters.left_mult_global_vec(v, &serial),
                xt_vec: &xt_vec,
                config,
            })
        }
        TrainingBackend::Materialized => {
            let x = design.materialize_x();
            let ranges = clusters.row_ranges();
            let gram = x.transpose().matmul(&x)?;
            let ztz: Vec<Matrix> = ranges
                .iter()
                .map(|&(s, l)| {
                    let block = x.row_block(s, l);
                    select_square(&block.transpose().matmul(&block).unwrap(), &z_cols)
                })
                .collect();
            let xt_vec = |v: &[f64]| -> Vec<f64> {
                x.transpose()
                    .matmul(&Matrix::column_vector(v))
                    .unwrap()
                    .into_data()
            };
            run_em(OracleInputs {
                y,
                m,
                z_cols,
                gram_inv: &invert_spd_with_ridge(&gram, config.ridge)?,
                ztz: &ztz,
                xty: &xt_vec(y),
                fitted_fixed: &|beta| x.matmul(&Matrix::column_vector(beta)).unwrap().into_data(),
                zb_concat: &|padded| {
                    let mut out = Vec::with_capacity(x.rows());
                    for (&(s, l), b) in ranges.iter().zip(padded) {
                        let block = x.row_block(s, l);
                        out.extend(block.matmul(&Matrix::column_vector(b)).unwrap().into_data());
                    }
                    out
                },
                zt_global: &|v| {
                    ranges
                        .iter()
                        .map(|&(s, l)| {
                            Matrix::row_vector(&v[s..s + l])
                                .matmul(&x.row_block(s, l))
                                .unwrap()
                                .row(0)
                                .to_vec()
                        })
                        .collect()
                },
                xt_vec: &xt_vec,
                config,
            })
        }
    }
}

/// Bundled inputs for the oracle loop.
struct OracleInputs<'a> {
    y: &'a [f64],
    m: usize,
    z_cols: Vec<usize>,
    gram_inv: &'a Matrix,
    ztz: &'a [Matrix],
    xty: &'a [f64],
    fitted_fixed: &'a dyn Fn(&[f64]) -> Vec<f64>,
    zb_concat: &'a dyn Fn(&[Vec<f64>]) -> Vec<f64>,
    zt_global: &'a dyn Fn(&[f64]) -> Vec<Vec<f64>>,
    xt_vec: &'a dyn Fn(&[f64]) -> Vec<f64>,
    config: MultilevelConfig,
}

fn run_em(inputs: OracleInputs<'_>) -> Result<MultilevelModel> {
    let OracleInputs {
        y,
        m,
        z_cols,
        gram_inv,
        ztz,
        xty,
        fitted_fixed,
        zb_concat,
        zt_global,
        xt_vec,
        config,
    } = inputs;
    let n = y.len();
    let q = z_cols.len();
    let g = ztz.len();

    let mut beta = gram_inv.matmul(&Matrix::column_vector(xty))?.into_data();
    let mut fitted = fitted_fixed(&beta);
    let mut sigma2 = y
        .iter()
        .zip(&fitted)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        / n.max(1) as f64;
    sigma2 = sigma2.max(1e-9);
    let mut sigma_b = Matrix::identity(q).scale(sigma2.max(1e-6));
    let mut b: Vec<Vec<f64>> = vec![vec![0.0; q]; g];
    let mut iterations_run = 0usize;
    let mut converged = false;

    for _ in 0..config.iterations {
        iterations_run += 1;
        // E step
        let sigma_b_inv = invert_spd_with_ridge(&sigma_b, config.ridge)?;
        let residual: Vec<f64> = y.iter().zip(&fitted).map(|(yi, fi)| yi - fi).collect();
        let zt_r = zt_global(&residual);
        let mut e_bbt: Vec<Matrix> = Vec::with_capacity(g);
        for (i, bi) in b.iter_mut().enumerate() {
            let vi_inner = ztz[i].scale(1.0 / sigma2).add(&sigma_b_inv)?;
            let vi = invert_spd_with_ridge(&vi_inner, config.ridge)?;
            let zt_ri: Vec<f64> = z_cols.iter().map(|&c| zt_r[i][c]).collect();
            let mu = vi
                .matmul(&Matrix::column_vector(&zt_ri))?
                .scale(1.0 / sigma2);
            *bi = mu.col_iter(0).collect();
            e_bbt.push(vi.add(&mu.matmul(&mu.transpose())?)?);
        }

        // M step
        let padded: Vec<Vec<f64>> = b.iter().map(|bi| pad(bi, &z_cols, m)).collect();
        let zb = zb_concat(&padded);
        let y_minus_zb: Vec<f64> = y.iter().zip(&zb).map(|(yi, z)| yi - z).collect();
        let new_beta = gram_inv
            .matmul(&Matrix::column_vector(&xt_vec(&y_minus_zb)))?
            .into_data();
        let mut sigma_sum = Matrix::zeros(q, q);
        for e in &e_bbt {
            sigma_sum = sigma_sum.add(e)?;
        }
        sigma_b = sigma_sum.scale(1.0 / g.max(1) as f64);

        fitted = fitted_fixed(&new_beta);
        let resid: Vec<f64> = y.iter().zip(&fitted).map(|(yi, fi)| yi - fi).collect();
        let rtr: f64 = resid.iter().map(|r| r * r).sum();
        let mut trace_term = 0.0;
        for (zz, e) in ztz.iter().zip(&e_bbt) {
            trace_term += zz.matmul(e)?.trace()?;
        }
        let cross: f64 = resid.iter().zip(&zb).map(|(r, z)| r * z).sum();
        sigma2 = ((rtr + trace_term - 2.0 * cross) / n as f64).max(1e-12);

        let delta: f64 = beta
            .iter()
            .zip(&new_beta)
            .map(|(a, c)| (a - c) * (a - c))
            .sum::<f64>()
            .sqrt();
        beta = new_beta;
        if delta < config.tolerance {
            converged = true;
            break;
        }
    }

    let padded: Vec<Vec<f64>> = b.iter().map(|bi| pad(bi, &z_cols, m)).collect();
    let zb = zb_concat(&padded);
    let fixed = fitted_fixed(&beta);
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
        z_columns: z_cols,
        iterations_run,
        converged,
        rss,
        n,
    })
}
