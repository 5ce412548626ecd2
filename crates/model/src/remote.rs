//! Worker-side EM operators and their wire codecs.
//!
//! PR 9 put the shard plan on the wire for views and hierarchy aggregates;
//! this module does the same for the EM loop's per-iteration operators —
//! the factorised gram cells, the per-cluster `ZᵀZ` blocks, and the E-step
//! posterior solves — so `MultilevelModel::fit` under `Exec::Remote` fans
//! its hot path across the worker fleet instead of running it locally.
//!
//! **The ship-the-state rule.** A worker computes gram/E-step partials from
//! the coordinator's *actual* encoded state — the aggregate tables, baked
//! feature columns, and cluster partition ship once (content-addressed
//! under `DOMAIN_EM`) and are reused every iteration. Workers never
//! recompute that state from factors: a delta-maintained aggregate table
//! can order its entries differently from a cold rebuild, and the gram's
//! per-cell floating-point sequence follows entry order. Shipping the
//! tables bit-exactly (`f64` as raw bits) is what makes a worker's partial
//! `==` the coordinator's.
//!
//! **The replay-merge rule.** Every scatter here merges through
//! [`scatter_fold_in_order`]: replies land in arrival order, fold in fixed
//! worker order (gram cells into fixed matrix slots, cluster blocks in
//! cluster order), so the merged result is bit-identical to serial while
//! merge work overlaps the network wait.
//!
//! Codecs follow the house rules ([`reptile_relational::codec`]): counts
//! validated before allocation, total decoders with typed errors, payload
//! sizes checked against the 64 MiB frame cap **at encode time**
//! ([`check_payload_size`]) so an oversized partial fails typed instead of
//! dying at the framing layer.

use reptile_factor::cluster::ClusterInfo;
use reptile_factor::encoded::{gram_cells, gram_pairs, EncodedAggregates, EncodedFeatureMap};
use reptile_factor::payload::{self, fnv1a};
use reptile_factor::{AttrPosition, ClusterPartition, Parallelism};
use reptile_linalg::cholesky::invert_spd_with_ridge;
use reptile_linalg::Matrix;
use reptile_obs::{add_counter, Counter, Stage, StageTimer};
use reptile_relational::codec::{
    check_payload_size, put_f64, put_u32, put_u64, CodecError, Reader,
};
use reptile_relational::exec::{scatter_fold_in_order, OP_CLUSTER_ZTZ, OP_E_STEP, OP_GRAM_CELLS};
use reptile_relational::{Remote, RemoteError};
use std::collections::HashMap;
use std::sync::Arc;

use crate::multilevel::select_square;

// ---------------------------------------------------------------------------
// Shipped EM state
// ---------------------------------------------------------------------------

/// The ship-once EM state a worker answers gram / E-step scatters from: the
/// coordinator's encoded aggregates, baked feature columns, cluster
/// partition, and random-effect columns — everything the per-iteration
/// operators read that does not change across iterations.
#[derive(Debug, Clone)]
pub struct EmWorkerState {
    aggregates: EncodedAggregates,
    features: EncodedFeatureMap,
    clusters: ClusterPartition,
    z_cols: Vec<usize>,
}

impl EmWorkerState {
    /// Number of design columns.
    pub fn n_cols(&self) -> usize {
        self.features.n_cols()
    }

    /// Number of clusters.
    pub fn n_clusters(&self) -> usize {
        self.clusters.len()
    }
}

/// Content fingerprint of an encoded EM state blob — the `ensure_state`
/// key under [`reptile_relational::exec::DOMAIN_EM`].
pub fn em_state_fingerprint(bytes: &[u8]) -> u64 {
    fnv1a(bytes)
}

/// Encode the EM state blob. Fails typed ([`CodecError::Oversized`]) when
/// the blob would not fit a wire frame — the caller falls back to the
/// local fit rather than shipping a frame the worker must reject.
pub fn encode_em_state(
    aggregates: &EncodedAggregates,
    features: &EncodedFeatureMap,
    clusters: &ClusterPartition,
    z_cols: &[usize],
) -> Result<Vec<u8>, CodecError> {
    let mut buf = Vec::new();
    // Per-hierarchy aggregate tables, length-prefixed so each decodes with
    // the existing (total) aggregate codec.
    let per_hierarchy = aggregates.per_hierarchy();
    put_u32(&mut buf, per_hierarchy.len() as u32);
    for h in per_hierarchy {
        let body = payload::encode_aggregates(h);
        put_u32(&mut buf, body.len() as u32);
        buf.extend_from_slice(&body);
    }
    // Column positions.
    let positions = aggregates.positions();
    put_u32(&mut buf, positions.len() as u32);
    for p in positions {
        put_u32(&mut buf, p.hierarchy as u32);
        put_u32(&mut buf, p.level as u32);
        put_u32(&mut buf, p.column as u32);
    }
    // Baked feature columns.
    let columns = features.columns();
    put_u32(&mut buf, columns.len() as u32);
    for col in columns {
        put_u32(&mut buf, col.len() as u32);
        for &v in col {
            put_f64(&mut buf, v);
        }
    }
    // Cluster partition.
    put_u32(&mut buf, clusters.n_cols() as u32);
    put_u32(&mut buf, clusters.intra_columns().len() as u32);
    for &c in clusters.intra_columns() {
        put_u64(&mut buf, c as u64);
    }
    put_u32(&mut buf, clusters.len() as u32);
    let k = clusters.intra_columns().len();
    for c in clusters.clusters() {
        put_u64(&mut buf, c.start_row as u64);
        put_u64(&mut buf, c.len as u64);
        debug_assert_eq!(c.const_features.len(), clusters.n_cols());
        for &v in &c.const_features {
            put_f64(&mut buf, v);
        }
        // One row of k intra values per cluster row — the decoder rebuilds
        // the row structure from (len, k), so shape mismatches cannot ship.
        assert_eq!(c.intra_features.len(), c.len, "one intra row per row");
        for row in &c.intra_features {
            assert_eq!(row.len(), k, "one intra value per intra column");
            for &v in row {
                put_f64(&mut buf, v);
            }
        }
    }
    // Random-effect columns.
    put_u32(&mut buf, z_cols.len() as u32);
    for &c in z_cols {
        put_u64(&mut buf, c as u64);
    }
    check_payload_size("EM state blob", buf.len())?;
    Ok(buf)
}

/// Decode and validate an EM state blob. Total: hostile bytes produce a
/// typed error, and every cross-reference the per-iteration operators
/// index through (positions into hierarchies/levels, run and `COF` codes
/// into dictionaries, feature column lengths, cluster shapes, `z_cols`
/// bounds) is validated here so the compute handlers cannot panic on a
/// corrupt blob.
pub fn decode_em_state(bytes: &[u8]) -> Result<EmWorkerState, CodecError> {
    let mut r = Reader::new(bytes);
    let n_hier = r.count(4)?;
    let mut per_hierarchy = Vec::with_capacity(n_hier);
    for _ in 0..n_hier {
        let len = r.count(1)?;
        let body = r.bytes(len)?;
        per_hierarchy.push(Arc::new(payload::decode_aggregates(body)?));
    }
    let n_cols = r.count(12)?;
    let mut positions = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        let hierarchy = r.u32()? as usize;
        let level = r.u32()? as usize;
        let column = r.u32()? as usize;
        let depth = per_hierarchy
            .get(hierarchy)
            .map(|h| h.desc.len())
            .ok_or_else(|| {
                CodecError::Invalid(format!("position names hierarchy {hierarchy} of {n_hier}"))
            })?;
        if level >= depth {
            return Err(CodecError::Invalid(format!(
                "position names level {level} of depth {depth}"
            )));
        }
        positions.push(AttrPosition {
            hierarchy,
            level,
            column,
        });
    }
    // Run/COF codes index dictionaries (and baked feature columns) by
    // construction on the coordinator; on a worker they are untrusted.
    for h in &per_hierarchy {
        let depth = h.desc.len();
        for (level, runs) in h.runs.iter().enumerate() {
            let card = h.desc[level].len();
            for &(code, _) in runs {
                if code as usize >= card {
                    return Err(CodecError::Invalid(format!(
                        "run code {code} out of range for level {level} cardinality {card}"
                    )));
                }
            }
        }
        for (t, table) in h.cofs.iter().enumerate() {
            let (l1, l2) = (t / depth.max(1), t % depth.max(1));
            for &(a, b, _) in table {
                if a as usize >= h.desc[l1].len() || b as usize >= h.desc[l2].len() {
                    return Err(CodecError::Invalid(format!(
                        "COF code ({a},{b}) out of range for levels ({l1},{l2})"
                    )));
                }
            }
        }
    }
    let aggregates = EncodedAggregates::from_raw_parts(positions.clone(), per_hierarchy.clone());
    // Feature columns: one per position, dictionary-sized.
    let feat_cols = r.count(4)?;
    if feat_cols != n_cols {
        return Err(CodecError::Invalid(format!(
            "{feat_cols} feature columns for {n_cols} positions"
        )));
    }
    let mut columns = Vec::with_capacity(feat_cols);
    for (c, p) in positions.iter().enumerate() {
        let len = r.count(8)?;
        let card = per_hierarchy[p.hierarchy].desc[p.level].len();
        if len != card {
            return Err(CodecError::Invalid(format!(
                "feature column {c} has {len} entries, dictionary has {card}"
            )));
        }
        let mut col = Vec::with_capacity(len);
        for _ in 0..len {
            col.push(r.f64()?);
        }
        columns.push(col);
    }
    let features = EncodedFeatureMap::from_columns(columns);
    // Cluster partition.
    let cluster_cols = r.count(4)?;
    if cluster_cols != n_cols {
        return Err(CodecError::Invalid(format!(
            "cluster partition over {cluster_cols} columns, design has {n_cols}"
        )));
    }
    let intra_count = r.count(8)?;
    let mut intra_columns = Vec::with_capacity(intra_count);
    for _ in 0..intra_count {
        let c = r.u64()? as usize;
        if c >= n_cols {
            return Err(CodecError::Invalid(format!(
                "intra column {c} out of range for {n_cols} columns"
            )));
        }
        intra_columns.push(c);
    }
    let n_clusters = r.count(16)?;
    let mut infos = Vec::with_capacity(n_clusters);
    for _ in 0..n_clusters {
        let start_row = r.u64()? as usize;
        let len = r.u64()? as usize;
        let mut const_features = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            const_features.push(r.f64()?);
        }
        // `len * k` intra values; re-check against the remaining bytes
        // before allocating (a hostile `len` must not size an allocation).
        let k = intra_columns.len();
        let need = (len as u64).saturating_mul(k as u64).saturating_mul(8);
        if need > r.remaining() as u64 {
            return Err(CodecError::CountOverflow {
                count: (len * k.max(1)) as u64,
                remaining: r.remaining(),
            });
        }
        let mut intra_features = Vec::with_capacity(len);
        for _ in 0..len {
            let mut row = Vec::with_capacity(k);
            for _ in 0..k {
                row.push(r.f64()?);
            }
            intra_features.push(row);
        }
        infos.push(ClusterInfo {
            start_row,
            len,
            const_features,
            intra_features,
        });
    }
    let clusters = ClusterPartition::from_raw_parts(infos, cluster_cols, intra_columns);
    // Random-effect columns.
    let zn = r.count(8)?;
    let mut z_cols = Vec::with_capacity(zn);
    for _ in 0..zn {
        let c = r.u64()? as usize;
        if c >= n_cols {
            return Err(CodecError::Invalid(format!(
                "z column {c} out of range for {n_cols} columns"
            )));
        }
        z_cols.push(c);
    }
    r.finish()?;
    Ok(EmWorkerState {
        aggregates,
        features,
        clusters,
        z_cols,
    })
}

// ---------------------------------------------------------------------------
// Request / reply codecs
// ---------------------------------------------------------------------------

/// Encode an E-step scatter request: the state key, the cluster range
/// `[start, start + len)`, the iteration's scalars (`σ²`, ridge), the
/// coordinator-inverted `Σ⁻¹` and the full residual vector — all `f64`s as
/// raw bits, so the worker's per-cluster solve starts from bit-identical
/// operands.
pub fn encode_e_step_request(
    key: u64,
    start: usize,
    len: usize,
    sigma2: f64,
    ridge: f64,
    sigma_b_inv: &Matrix,
    residual: &[f64],
) -> Result<Vec<u8>, CodecError> {
    let mut buf = Vec::new();
    put_u64(&mut buf, key);
    put_u64(&mut buf, start as u64);
    put_u64(&mut buf, len as u64);
    put_f64(&mut buf, sigma2);
    put_f64(&mut buf, ridge);
    put_u32(&mut buf, sigma_b_inv.rows() as u32);
    for r in 0..sigma_b_inv.rows() {
        for c in 0..sigma_b_inv.cols() {
            put_f64(&mut buf, sigma_b_inv.get(r, c));
        }
    }
    put_u32(&mut buf, residual.len() as u32);
    for &v in residual {
        put_f64(&mut buf, v);
    }
    check_payload_size("E-step request", buf.len())?;
    Ok(buf)
}

/// A decoded E-step request.
pub struct EStepRequest {
    /// The EM state key the worker looks the shipped state up by.
    pub key: u64,
    /// First cluster of the range.
    pub start: usize,
    /// Number of clusters in the range.
    pub len: usize,
    /// Residual variance σ² of this iteration.
    pub sigma2: f64,
    /// Ridge used by every SPD inversion.
    pub ridge: f64,
    /// Coordinator-inverted Σ⁻¹ (q × q).
    pub sigma_b_inv: Matrix,
    /// Full residual vector `y − Xβ` in row order.
    pub residual: Vec<f64>,
}

/// Decode an E-step request (total).
pub fn decode_e_step_request(bytes: &[u8]) -> Result<EStepRequest, CodecError> {
    let mut r = Reader::new(bytes);
    let key = r.u64()?;
    let start = r.u64()?;
    let len = r.u64()?;
    if start.checked_add(len).is_none() {
        return Err(CodecError::Invalid("cluster range overflows".into()));
    }
    let sigma2 = r.f64()?;
    let ridge = r.f64()?;
    let q = r.count(8)?;
    let need = (q as u64).saturating_mul(q as u64).saturating_mul(8);
    if need > r.remaining() as u64 {
        return Err(CodecError::CountOverflow {
            count: (q as u64).saturating_mul(q as u64),
            remaining: r.remaining(),
        });
    }
    let mut data = Vec::with_capacity(q * q);
    for _ in 0..q * q {
        data.push(r.f64()?);
    }
    let sigma_b_inv = Matrix::from_fn(q, q, |row, col| data[row * q + col]);
    let n = r.count(8)?;
    let mut residual = Vec::with_capacity(n);
    for _ in 0..n {
        residual.push(r.f64()?);
    }
    r.finish()?;
    Ok(EStepRequest {
        key,
        start: start as usize,
        len: len as usize,
        sigma2,
        ridge,
        sigma_b_inv,
        residual,
    })
}

/// Encode a gram-cell partial: the cell values of one contiguous range of
/// the [`gram_pairs`] enumeration, raw bits.
pub fn encode_gram_cells_partial(cells: &[f64]) -> Result<Vec<u8>, CodecError> {
    let mut buf = Vec::with_capacity(4 + cells.len() * 8);
    put_u32(&mut buf, cells.len() as u32);
    for &v in cells {
        put_f64(&mut buf, v);
    }
    check_payload_size("gram partial", buf.len())?;
    Ok(buf)
}

/// Decode a gram-cell partial (total).
pub fn decode_gram_cells_partial(bytes: &[u8]) -> Result<Vec<f64>, CodecError> {
    let mut r = Reader::new(bytes);
    let n = r.count(8)?;
    let mut cells = Vec::with_capacity(n);
    for _ in 0..n {
        cells.push(r.f64()?);
    }
    r.finish()?;
    Ok(cells)
}

/// Encode a per-cluster matrix-block partial (`ZᵀZ` blocks): cluster count,
/// block dimension `q`, then `q × q` raw-bit values per cluster in cluster
/// order.
pub fn encode_matrix_blocks_partial(blocks: &[Matrix]) -> Result<Vec<u8>, CodecError> {
    let q = blocks.first().map_or(0, |m| m.rows());
    let mut buf = Vec::new();
    put_u32(&mut buf, blocks.len() as u32);
    put_u32(&mut buf, q as u32);
    for m in blocks {
        debug_assert_eq!((m.rows(), m.cols()), (q, q));
        for r in 0..q {
            for c in 0..q {
                put_f64(&mut buf, m.get(r, c));
            }
        }
    }
    check_payload_size("cluster gram partial", buf.len())?;
    Ok(buf)
}

/// Decode a per-cluster matrix-block partial (total).
pub fn decode_matrix_blocks_partial(bytes: &[u8]) -> Result<Vec<Matrix>, CodecError> {
    let mut r = Reader::new(bytes);
    let count = r.count(1)?;
    let q = r.count(1)?;
    let per_block = (q as u64) * (q as u64) * 8;
    if (count as u64).saturating_mul(per_block) > r.remaining() as u64 {
        return Err(CodecError::CountOverflow {
            count: count as u64,
            remaining: r.remaining(),
        });
    }
    let mut blocks = Vec::with_capacity(count);
    for _ in 0..count {
        let mut data = Vec::with_capacity(q * q);
        for _ in 0..q * q {
            data.push(r.f64()?);
        }
        blocks.push(Matrix::from_fn(q, q, |row, col| data[row * q + col]));
    }
    r.finish()?;
    Ok(blocks)
}

/// Encode an E-step partial: per cluster (in cluster order), the posterior
/// second moment `E[b_i b_iᵀ]` (`q × q`) and mean `μ_i` (`q`), raw bits.
pub fn encode_e_step_partial(solved: &[(Matrix, Vec<f64>)]) -> Result<Vec<u8>, CodecError> {
    let q = solved.first().map_or(0, |(m, _)| m.rows());
    let mut buf = Vec::new();
    put_u32(&mut buf, solved.len() as u32);
    put_u32(&mut buf, q as u32);
    for (e, mu) in solved {
        debug_assert_eq!((e.rows(), e.cols(), mu.len()), (q, q, q));
        for r in 0..q {
            for c in 0..q {
                put_f64(&mut buf, e.get(r, c));
            }
        }
        for &v in mu {
            put_f64(&mut buf, v);
        }
    }
    check_payload_size("E-step partial", buf.len())?;
    Ok(buf)
}

/// Decode an E-step partial (total).
pub fn decode_e_step_partial(bytes: &[u8]) -> Result<Vec<(Matrix, Vec<f64>)>, CodecError> {
    let mut r = Reader::new(bytes);
    let count = r.count(1)?;
    let q = r.count(1)?;
    let per_cluster = ((q as u64) * (q as u64) + q as u64) * 8;
    if (count as u64).saturating_mul(per_cluster) > r.remaining() as u64 {
        return Err(CodecError::CountOverflow {
            count: count as u64,
            remaining: r.remaining(),
        });
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let mut data = Vec::with_capacity(q * q);
        for _ in 0..q * q {
            data.push(r.f64()?);
        }
        let e = Matrix::from_fn(q, q, |row, col| data[row * q + col]);
        let mut mu = Vec::with_capacity(q);
        for _ in 0..q {
            mu.push(r.f64()?);
        }
        out.push((e, mu));
    }
    r.finish()?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Worker-side compute
// ---------------------------------------------------------------------------

/// A typed failure answering an EM scatter, mapped by the worker onto its
/// wire error kinds.
#[derive(Debug)]
pub enum EmAnswerError {
    /// The request payload was malformed or out of range.
    BadRequest(String),
    /// The request names an EM state the worker does not hold.
    MissingState(u64),
    /// The computation itself failed (singular system etc.).
    Compute(String),
}

fn lookup(states: &HashMap<u64, EmWorkerState>, key: u64) -> Result<&EmWorkerState, EmAnswerError> {
    states.get(&key).ok_or(EmAnswerError::MissingState(key))
}

/// Answer a gram-cell range scatter: cells `[start, start + len)` of the
/// canonical enumeration, computed by the identical serial accumulation the
/// coordinator's gram runs ([`gram_cells`]).
pub fn answer_gram_cells(
    states: &HashMap<u64, EmWorkerState>,
    request: &[u8],
) -> Result<Vec<u8>, EmAnswerError> {
    let (key, start, len) = payload::decode_agg_request(request)
        .map_err(|e| EmAnswerError::BadRequest(e.to_string()))?;
    let state = lookup(states, key)?;
    let cells = gram_cells(&state.aggregates, &state.features, start, len).ok_or_else(|| {
        EmAnswerError::BadRequest(format!(
            "gram cell range [{start}, {start}+{len}) out of bounds for {} columns",
            state.n_cols()
        ))
    })?;
    encode_gram_cells_partial(&cells).map_err(|e| EmAnswerError::Compute(e.to_string()))
}

/// Answer a cluster-`ZᵀZ` range scatter: for each cluster in
/// `[start, start + len)`, the `z_cols`-selected square of its gram —
/// exactly the per-cluster sequence the coordinator's
/// `clusters.grams(par)` + `select_square` runs.
pub fn answer_cluster_ztz(
    states: &HashMap<u64, EmWorkerState>,
    request: &[u8],
) -> Result<Vec<u8>, EmAnswerError> {
    let (key, start, len) = payload::decode_agg_request(request)
        .map_err(|e| EmAnswerError::BadRequest(e.to_string()))?;
    let state = lookup(states, key)?;
    let end = start
        .checked_add(len)
        .filter(|&e| e <= state.n_clusters())
        .ok_or_else(|| {
            EmAnswerError::BadRequest(format!(
                "cluster range [{start}, {start}+{len}) out of bounds for {} clusters",
                state.n_clusters()
            ))
        })?;
    let blocks: Vec<Matrix> = (start..end)
        .map(|i| select_square(&state.clusters.gram_at(i), &state.z_cols))
        .collect();
    encode_matrix_blocks_partial(&blocks).map_err(|e| EmAnswerError::Compute(e.to_string()))
}

/// Answer an E-step scatter: for each cluster in the range, the posterior
/// solve of Appendix D — `V_i = (Z_iᵀZ_i/σ² + Σ⁻¹)⁻¹`,
/// `μ_i = V_i Z_iᵀ(y_i − Xβ)/σ²`, `E[b_i b_iᵀ] = V_i + μ_i μ_iᵀ` — in the
/// byte-for-byte floating-point sequence of the coordinator's local
/// closure, from bit-identical shipped operands.
pub fn answer_e_step(
    states: &HashMap<u64, EmWorkerState>,
    request: &[u8],
) -> Result<Vec<u8>, EmAnswerError> {
    let req =
        decode_e_step_request(request).map_err(|e| EmAnswerError::BadRequest(e.to_string()))?;
    let state = lookup(states, req.key)?;
    let q = state.z_cols.len();
    if req.sigma_b_inv.rows() != q {
        return Err(EmAnswerError::BadRequest(format!(
            "Σ⁻¹ is {}×{}, state has {q} z columns",
            req.sigma_b_inv.rows(),
            req.sigma_b_inv.cols()
        )));
    }
    let end = req
        .start
        .checked_add(req.len)
        .filter(|&e| e <= state.n_clusters())
        .ok_or_else(|| {
            EmAnswerError::BadRequest(format!(
                "cluster range [{}, {}+{}) out of bounds for {} clusters",
                req.start,
                req.start,
                req.len,
                state.n_clusters()
            ))
        })?;
    // The residual must cover every row the range's clusters read.
    let rows_needed = state.clusters.clusters()[req.start..end]
        .iter()
        .map(|c| c.start_row + c.len)
        .max()
        .unwrap_or(0);
    if req.residual.len() < rows_needed {
        return Err(EmAnswerError::BadRequest(format!(
            "residual has {} rows, range needs {rows_needed}",
            req.residual.len()
        )));
    }
    let mut solved = Vec::with_capacity(req.len);
    for i in req.start..end {
        // Identical FP sequence to the coordinator's local E-step closure.
        let ztz_i = select_square(&state.clusters.gram_at(i), &state.z_cols);
        let vi_inner = ztz_i
            .scale(1.0 / req.sigma2)
            .add(&req.sigma_b_inv)
            .map_err(|e| EmAnswerError::Compute(e.to_string()))?;
        let vi = invert_spd_with_ridge(&vi_inner, req.ridge)
            .map_err(|e| EmAnswerError::Compute(e.to_string()))?;
        let zt_r_full = state.clusters.left_mult_global_at(i, &req.residual);
        let zt_ri: Vec<f64> = state.z_cols.iter().map(|&c| zt_r_full[c]).collect();
        let mu = vi
            .matmul(&Matrix::column_vector(&zt_ri))
            .map_err(|e| EmAnswerError::Compute(e.to_string()))?
            .scale(1.0 / req.sigma2);
        let mu_vec: Vec<f64> = mu.col_iter(0).collect();
        let mu_outer = mu
            .matmul(&mu.transpose())
            .map_err(|e| EmAnswerError::Compute(e.to_string()))?;
        let e = vi
            .add(&mu_outer)
            .map_err(|e| EmAnswerError::Compute(e.to_string()))?;
        solved.push((e, mu_vec));
    }
    encode_e_step_partial(&solved).map_err(|e| EmAnswerError::Compute(e.to_string()))
}

// ---------------------------------------------------------------------------
// Coordinator-side scatters
// ---------------------------------------------------------------------------

fn protocol(e: impl std::fmt::Display) -> RemoteError {
    RemoteError::Protocol(e.to_string())
}

/// Per-worker contiguous `(start, len)` ranges paired with their encoded
/// scatter requests (`None` for range-pruned workers).
type RangedRequests = (Vec<(usize, usize)>, Vec<Option<Vec<u8>>>);

/// Per-worker contiguous ranges over `n` items, with `None` requests for
/// range-pruned workers.
fn range_requests(
    n: usize,
    workers: usize,
    encode: impl Fn(usize, usize) -> Result<Vec<u8>, RemoteError>,
) -> Result<RangedRequests, RemoteError> {
    let ranges = Parallelism::shard_ranges(n, workers.max(1));
    let mut requests = Vec::with_capacity(ranges.len());
    for &(start, len) in &ranges {
        requests.push(if len > 0 {
            Some(encode(start, len)?)
        } else {
            None
        });
    }
    Ok((ranges, requests))
}

/// The full gram matrix, with its upper-triangle cells computed
/// worker-side: one contiguous cell range per worker, partials placed into
/// fixed matrix slots as they fold in worker order. Bit-identical to the
/// coordinator-local [`reptile_factor::encoded::gram`] — every cell runs
/// the same serial accumulation, placement carries no arithmetic.
pub fn remote_gram(remote: &Remote, key: u64, m: usize) -> Result<Matrix, RemoteError> {
    let transport = remote.transport();
    let pairs = gram_pairs(m);
    let (ranges, requests) = range_requests(pairs.len(), transport.workers(), |start, len| {
        Ok(payload::encode_agg_request(key, start, len))
    })?;
    let mut out = Matrix::zeros(m, m);
    let _span = StageTimer::start(Stage::RemoteMerge);
    scatter_fold_in_order(
        transport.as_ref(),
        OP_GRAM_CELLS,
        requests,
        &mut |worker, reply| {
            let cells = decode_gram_cells_partial(&reply).map_err(protocol)?;
            let (start, len) = ranges[worker];
            if cells.len() != len {
                return Err(protocol(format!(
                    "gram partial has {} cells for a range of {len}",
                    cells.len()
                )));
            }
            add_counter(Counter::RemoteGramPartials, 1);
            for (j, &v) in cells.iter().enumerate() {
                let (p, q) = pairs[start + j];
                out.set(p, q, v);
                out.set(q, p, v);
            }
            Ok(())
        },
    )?;
    Ok(out)
}

/// All per-cluster `ZᵀZ` blocks, computed worker-side over contiguous
/// cluster ranges and gathered in cluster order.
pub fn remote_cluster_ztz(
    remote: &Remote,
    key: u64,
    n_clusters: usize,
    q: usize,
) -> Result<Vec<Matrix>, RemoteError> {
    let transport = remote.transport();
    let (ranges, requests) = range_requests(n_clusters, transport.workers(), |start, len| {
        Ok(payload::encode_agg_request(key, start, len))
    })?;
    let mut out = Vec::with_capacity(n_clusters);
    let _span = StageTimer::start(Stage::RemoteMerge);
    scatter_fold_in_order(
        transport.as_ref(),
        OP_CLUSTER_ZTZ,
        requests,
        &mut |worker, reply| {
            let blocks = decode_matrix_blocks_partial(&reply).map_err(protocol)?;
            let (_, len) = ranges[worker];
            if blocks.len() != len || blocks.iter().any(|b| b.rows() != q) {
                return Err(protocol(format!(
                    "cluster gram partial has {} {}×{} blocks for a range of {len} (q = {q})",
                    blocks.len(),
                    blocks.first().map_or(0, |b| b.rows()),
                    blocks.first().map_or(0, |b| b.cols()),
                )));
            }
            add_counter(Counter::RemoteGramPartials, 1);
            out.extend(blocks);
            Ok(())
        },
    )?;
    Ok(out)
}

/// One iteration's E-step, solved worker-side over contiguous cluster
/// ranges and gathered in cluster order. The scalars, `Σ⁻¹` and the full
/// residual ship per iteration (raw bits); the heavy state was shipped
/// once.
#[allow(clippy::too_many_arguments)] // mirrors the E-step request frame
pub fn remote_e_step(
    remote: &Remote,
    key: u64,
    n_clusters: usize,
    q: usize,
    sigma2: f64,
    ridge: f64,
    sigma_b_inv: &Matrix,
    residual: &[f64],
) -> Result<Vec<(Matrix, Vec<f64>)>, RemoteError> {
    let transport = remote.transport();
    let (ranges, requests) = range_requests(n_clusters, transport.workers(), |start, len| {
        encode_e_step_request(key, start, len, sigma2, ridge, sigma_b_inv, residual)
            .map_err(protocol)
    })?;
    let mut out = Vec::with_capacity(n_clusters);
    let _span = StageTimer::start(Stage::RemoteMerge);
    scatter_fold_in_order(
        transport.as_ref(),
        OP_E_STEP,
        requests,
        &mut |worker, reply| {
            let solved = decode_e_step_partial(&reply).map_err(protocol)?;
            let (_, len) = ranges[worker];
            if solved.len() != len || solved.iter().any(|(e, mu)| e.rows() != q || mu.len() != q) {
                return Err(protocol(format!(
                    "E-step partial has {} solves for a range of {len} (q = {q})",
                    solved.len()
                )));
            }
            add_counter(Counter::RemoteEStepPartials, 1);
            out.extend(solved);
            Ok(())
        },
    )?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reptile_factor::encoded::EncodedDesign;
    use reptile_factor::{EncodedFactorization, Exec, Factorization, FeatureMap, HierarchyFactor};
    use reptile_relational::codec::MAX_WIRE_PAYLOAD;
    use reptile_relational::{AttrId, Value};

    /// A small two-hierarchy design with one intra level (the factor
    /// crate's paper example).
    fn sample_state() -> (EmWorkerState, Vec<u8>) {
        let time = HierarchyFactor::from_paths(
            "time",
            vec![AttrId(0)],
            vec![vec![Value::str("t1")], vec![Value::str("t2")]],
        );
        let geo = HierarchyFactor::from_paths(
            "geo",
            vec![AttrId(1), AttrId(2)],
            vec![
                vec![Value::str("d1"), Value::str("v1")],
                vec![Value::str("d1"), Value::str("v2")],
                vec![Value::str("d2"), Value::str("v3")],
            ],
        );
        let fact = Factorization::new(vec![time, geo]);
        let mut features = FeatureMap::zeros(3);
        features.set(0, Value::str("t1"), 1.5);
        features.set(0, Value::str("t2"), 3.0);
        features.set(1, Value::str("d1"), 4.0);
        features.set(1, Value::str("d2"), -1.0);
        features.set(2, Value::str("v1"), 1.25);
        features.set(2, Value::str("v2"), 0.25);
        features.set(2, Value::str("v3"), 5.0);
        let factorization = EncodedFactorization::encode(&fact);
        let aggregates = EncodedAggregates::compute(&factorization, &Exec::Serial);
        let enc = EncodedDesign::from_parts(factorization, aggregates, &features);
        let clusters = ClusterPartition::from_encoded(
            &enc.factorization,
            &enc.features,
            1,
            &Parallelism::new(1),
        );
        let z_cols: Vec<usize> = (0..enc.features.n_cols()).collect();
        let bytes = encode_em_state(&enc.aggregates, &enc.features, &clusters, &z_cols).unwrap();
        let state = decode_em_state(&bytes).unwrap();
        (state, bytes)
    }

    #[test]
    fn em_state_round_trips_bit_exact() {
        let (state, bytes) = sample_state();
        // Re-encoding the decoded state reproduces the bytes exactly.
        let again = encode_em_state(
            &state.aggregates,
            &state.features,
            &state.clusters,
            &state.z_cols,
        )
        .unwrap();
        assert_eq!(bytes, again);
        assert_eq!(em_state_fingerprint(&bytes), em_state_fingerprint(&again));
    }

    #[test]
    fn worker_gram_cells_match_local_gram() {
        let (state, _) = sample_state();
        let m = state.n_cols();
        let local =
            reptile_factor::encoded::gram(&state.aggregates, &state.features, &Parallelism::new(1));
        let pairs = gram_pairs(m);
        let mut states = HashMap::new();
        let key = 7u64;
        states.insert(key, state);
        // Any split of the cell range reproduces the local matrix's cells.
        let reply = answer_gram_cells(
            &states,
            &payload::encode_agg_request(key, 1, pairs.len() - 1),
        )
        .unwrap();
        let cells = decode_gram_cells_partial(&reply).unwrap();
        for (j, &v) in cells.iter().enumerate() {
            let (p, q) = pairs[1 + j];
            assert_eq!(v.to_bits(), local.get(p, q).to_bits());
        }
    }

    #[test]
    fn worker_ztz_blocks_match_local() {
        let (state, _) = sample_state();
        let g = state.n_clusters();
        let local: Vec<Matrix> = state
            .clusters
            .grams(&Parallelism::new(1))
            .iter()
            .map(|m| select_square(m, &state.z_cols))
            .collect();
        let mut states = HashMap::new();
        states.insert(3u64, state);
        let reply = answer_cluster_ztz(&states, &payload::encode_agg_request(3, 0, g)).unwrap();
        let blocks = decode_matrix_blocks_partial(&reply).unwrap();
        assert_eq!(blocks, local);
    }

    #[test]
    fn e_step_request_round_trips() {
        let sigma_b_inv = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f64 + 0.5);
        let residual = vec![1.5, -2.25, f64::MIN_POSITIVE, -0.0];
        let bytes = encode_e_step_request(9, 1, 3, 0.125, 1e-8, &sigma_b_inv, &residual).unwrap();
        let req = decode_e_step_request(&bytes).unwrap();
        assert_eq!((req.key, req.start, req.len), (9, 1, 3));
        assert_eq!(req.sigma2.to_bits(), 0.125f64.to_bits());
        assert_eq!(req.sigma_b_inv, sigma_b_inv);
        assert_eq!(
            req.residual.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            residual.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn hostile_bytes_never_panic() {
        let (state, state_bytes) = sample_state();
        let mut states = HashMap::new();
        states.insert(1u64, state);
        let e_step =
            encode_e_step_request(1, 0, 1, 1.0, 1e-8, &Matrix::identity(2), &[0.0; 8]).unwrap();
        let gram_req = payload::encode_agg_request(1, 0, 3);
        // Truncation sweeps: every prefix decodes to a typed error or a
        // well-formed (shorter) value — never a panic.
        for bytes in [&state_bytes, &e_step, &gram_req] {
            for cut in 0..bytes.len().min(300) {
                let _ = decode_em_state(&bytes[..cut]);
                let _ = decode_e_step_request(&bytes[..cut]);
                let _ = decode_gram_cells_partial(&bytes[..cut]);
                let _ = decode_matrix_blocks_partial(&bytes[..cut]);
                let _ = decode_e_step_partial(&bytes[..cut]);
                let _ = answer_gram_cells(&states, &bytes[..cut]);
                let _ = answer_cluster_ztz(&states, &bytes[..cut]);
                let _ = answer_e_step(&states, &bytes[..cut]);
            }
        }
        // Corruption sweep over the state blob.
        let mut corrupt = state_bytes.clone();
        for i in (0..corrupt.len()).step_by(13) {
            corrupt[i] ^= 0xA5;
            let _ = decode_em_state(&corrupt);
            corrupt[i] ^= 0xA5;
        }
        // Out-of-range requests answer typed.
        assert!(matches!(
            answer_cluster_ztz(&states, &payload::encode_agg_request(1, 0, usize::MAX)),
            Err(EmAnswerError::BadRequest(_))
        ));
        assert!(matches!(
            answer_gram_cells(&states, &payload::encode_agg_request(99, 0, 1)),
            Err(EmAnswerError::MissingState(99))
        ));
        // A residual shorter than the cluster rows answers typed.
        let short = encode_e_step_request(1, 0, 1, 1.0, 1e-8, &Matrix::identity(6), &[]).unwrap();
        assert!(matches!(
            answer_e_step(&states, &short),
            Err(EmAnswerError::BadRequest(_))
        ));
    }

    #[test]
    fn oversized_partials_fail_typed_at_encode_time() {
        // A residual that would blow the frame cap is rejected before any
        // frame is written.
        let residual = vec![0.0f64; MAX_WIRE_PAYLOAD / 8];
        let err =
            encode_e_step_request(1, 0, 1, 1.0, 1e-8, &Matrix::identity(1), &residual).unwrap_err();
        assert!(matches!(err, CodecError::Oversized { .. }));
        let cells = vec![0.0f64; MAX_WIRE_PAYLOAD / 8];
        assert!(matches!(
            encode_gram_cells_partial(&cells),
            Err(CodecError::Oversized { .. })
        ));
    }
}
