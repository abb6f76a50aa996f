//! Sinkhorn–Knopp scaling — the paper's Algorithm 1 (`ScaleSK`).
//!
//! One iteration, exactly as in the paper:
//!
//! ```text
//! for j = 1..n in parallel:  dc[j] ← 1 / Σ_{i ∈ A_*j} dr[i]·a_ij
//! for i = 1..n in parallel:  dr[i] ← 1 / Σ_{j ∈ A_i*} a_ij·dc[j]
//! ```
//!
//! After the row pass every row sum of `S = D_R A D_C` is exactly one
//! (modulo round-off), so the convergence measure is the maximum deviation
//! of the *column* sums from one.
//!
//! # Fused schedule
//!
//! [`sinkhorn_knopp_cancel_into`] makes one gather sweep per side per
//! iteration, `2k` sweeps over the nonzeros for `k` iterations:
//!
//! - the first column pass reads `dr ≡ 1`, so its sums are the column
//!   degrees: `dc[j] = 1/deg(j)` comes from the CSC row pointers;
//! - every later column pass computes `csum_j = Σ_i dr[i]` once. That is
//!   the sum the previous iteration's error needs, with the same `dr` in
//!   the same order, so the pass folds `|csum_j·dc[j] − 1|` (old `dc`)
//!   into the previous iteration's error before it writes the new
//!   `dc[j] = 1/csum_j`;
//! - one closing [`max_col_sum_error`] sweep gives the last error.
//!
//! Every value is produced by the same floating-point operations on the
//! same operands as the unfused loop of [`sinkhorn_knopp_seq`] (a sum of
//! `deg` ones is exactly `deg`), so `dr`, `dc`, `history`, `error` and
//! `iterations` are bit-identical to it at every pool size. With a
//! tolerance, an iteration's error is known only in the next column pass,
//! after it has overwritten `dc`; the pass then restores `dc` from a
//! snapshot taken before it. On [`Cancelled`], `history` can lack the
//! entry of the last completed iteration, whose error was never swept.
//!
//! Vertices with zero degree (possible in sprank-deficient inputs) keep
//! their scaling factor — their value never influences any sampled entry.

use dsmatch_graph::{BipartiteGraph, CancelToken, Cancelled};
use rayon::prelude::*;

use crate::{ScalingConfig, ScalingResult};

/// Minimum column sum of the scaled matrix over non-empty columns — the
/// `α` of the paper's §3.3 relaxation: if every column sum is ≥ α after a
/// few iterations, `OneSidedMatch` still guarantees `n(1 − 1/e^α)`.
pub fn min_col_sum(g: &BipartiteGraph, s: &crate::ScalingResult) -> f64 {
    (0..g.ncols())
        .into_par_iter()
        .filter(|&j| g.col_degree(j) > 0)
        .map(|j| s.col_sum(g, j))
        .reduce(|| f64::INFINITY, f64::min)
}

/// Scaling error: `max_j |Σ_{i ∈ A_*j} dr[i]·dc[j] − 1|`, the quantity the
/// paper reports as "Err." in Table 1 and "Scaling error" in Table 3.
pub fn max_col_sum_error(g: &BipartiteGraph, dr: &[f64], dc: &[f64]) -> f64 {
    (0..g.ncols())
        .into_par_iter()
        .map(|j| {
            let s: f64 = g.col_adj(j).iter().map(|&i| dr[i as usize]).sum();
            (s * dc[j] - 1.0).abs()
        })
        .reduce(|| 0.0, f64::max)
}

/// Scaling error of the identity scaling, `max_j |deg(j) − 1|`, from the
/// CSC row pointers: bit-equal to [`max_col_sum_error`] with `dr = dc = 1`
/// (a sum of `deg` ones is exactly `deg`) without the gather sweep.
pub(crate) fn identity_col_error(g: &BipartiteGraph) -> f64 {
    (0..g.ncols()).map(|j| (g.col_degree(j) as f64 - 1.0).abs()).fold(0.0, f64::max)
}

/// First column pass: with `dr ≡ 1` every column sum is the degree.
fn sk_col_pass_degrees(g: &BipartiteGraph, dc: &mut [f64]) {
    dc.par_iter_mut().enumerate().for_each(|(j, dcj)| {
        let deg = g.col_degree(j);
        if deg > 0 {
            *dcj = 1.0 / deg as f64;
        }
    });
}

/// Later column pass: returns the previous iteration's scaling error
/// (`max_j |csum_j·dc[j] − 1|` with the `dc` it is about to overwrite)
/// and writes `dc[j] = 1/csum_j`.
fn sk_col_pass_fused(g: &BipartiteGraph, dr: &[f64], dc: &mut [f64]) -> f64 {
    dc.par_iter_mut()
        .enumerate()
        .map(|(j, dcj)| {
            let csum: f64 = g.col_adj(j).iter().map(|&i| dr[i as usize]).sum();
            let err = (csum * *dcj - 1.0).abs();
            if csum > 0.0 {
                *dcj = 1.0 / csum;
            }
            err
        })
        .reduce(|| 0.0, f64::max)
}

fn sk_row_pass_par(g: &BipartiteGraph, dr: &mut [f64], dc: &[f64]) {
    dr.par_iter_mut().enumerate().for_each(|(i, dri)| {
        let rsum: f64 = g.row_adj(i).iter().map(|&j| dc[j as usize]).sum();
        if rsum > 0.0 {
            *dri = 1.0 / rsum;
        }
    });
}

/// Parallel Sinkhorn–Knopp (paper Algorithm 1). Runs in the current Rayon
/// thread pool; install a sized pool to control thread count as the paper's
/// experiments do.
///
/// ```
/// use dsmatch_graph::{BipartiteGraph, Csr};
/// use dsmatch_scale::{sinkhorn_knopp, ScalingConfig};
///
/// let g = BipartiteGraph::from_csr(Csr::from_dense(&[&[1, 1], &[1, 1]]));
/// let s = sinkhorn_knopp(&g, &ScalingConfig::iterations(1));
/// // The all-ones 2×2 becomes uniform 1/2 after one iteration.
/// assert!((s.entry(0, 1) - 0.5).abs() < 1e-12);
/// assert!(s.error < 1e-12);
/// ```
pub fn sinkhorn_knopp(g: &BipartiteGraph, cfg: &ScalingConfig) -> ScalingResult {
    let mut out = ScalingResult::empty();
    sinkhorn_knopp_into(g, cfg, &mut out);
    out
}

/// Buffer-reuse variant of [`sinkhorn_knopp`]: identical arithmetic, but
/// the `dr`/`dc`/`history` vectors of `out` are reset and refilled in place.
/// After the first solve on a given shape the buffers stop growing, so
/// repeated solves on same-shaped instances perform no scaling allocation.
pub fn sinkhorn_knopp_into(g: &BipartiteGraph, cfg: &ScalingConfig, out: &mut ScalingResult) {
    sinkhorn_knopp_cancel_into(g, cfg, out, &CancelToken::unbounded())
        .expect("unbounded token never cancels")
}

/// [`sinkhorn_knopp_into`] with cooperative cancellation: the token is
/// polled once per scaling iteration. On [`Cancelled`] the factors in
/// `out` are whatever the completed iterations produced — numerically
/// valid, just not converged — and the buffers stay reusable; `history`
/// can lack the last completed iteration's error (see the module docs).
pub fn sinkhorn_knopp_cancel_into(
    g: &BipartiteGraph,
    cfg: &ScalingConfig,
    out: &mut ScalingResult,
    token: &CancelToken,
) -> Result<(), Cancelled> {
    out.dr.clear();
    out.dr.resize(g.nrows(), 1.0);
    out.dc.clear();
    out.dc.resize(g.ncols(), 1.0);
    out.history.clear();
    let early_exit = cfg.tolerance > 0.0;
    let mut snapshot = Vec::new();
    let mut converged = None;
    let mut done = 0usize;
    while done < cfg.max_iterations {
        token.check()?;
        if done == 0 {
            sk_col_pass_degrees(g, &mut out.dc);
        } else {
            if early_exit {
                snapshot.clear();
                snapshot.extend_from_slice(&out.dc);
            }
            let prev = sk_col_pass_fused(g, &out.dr, &mut out.dc);
            out.history.push(prev);
            if early_exit && prev <= cfg.tolerance {
                out.dc.copy_from_slice(&snapshot);
                converged = Some(prev);
                break;
            }
        }
        sk_row_pass_par(g, &mut out.dr, &out.dc);
        done += 1;
    }
    out.error = match converged {
        Some(error) => error,
        None if done == 0 => identity_col_error(g),
        None => {
            let error = max_col_sum_error(g, &out.dr, &out.dc);
            out.history.push(error);
            error
        }
    };
    out.iterations = done;
    Ok(())
}

/// Sequential Sinkhorn–Knopp — identical arithmetic to [`sinkhorn_knopp`]
/// (the parallel passes are embarrassingly parallel and order-independent,
/// so both versions produce bitwise-identical factors; tests rely on this).
pub fn sinkhorn_knopp_seq(g: &BipartiteGraph, cfg: &ScalingConfig) -> ScalingResult {
    let mut dr = vec![1.0f64; g.nrows()];
    let mut dc = vec![1.0f64; g.ncols()];
    let mut history = Vec::with_capacity(cfg.max_iterations);
    let mut error = f64::INFINITY;
    let mut done = 0usize;
    for _ in 0..cfg.max_iterations {
        for j in 0..g.ncols() {
            let csum: f64 = g.col_adj(j).iter().map(|&i| dr[i as usize]).sum();
            if csum > 0.0 {
                dc[j] = 1.0 / csum;
            }
        }
        for i in 0..g.nrows() {
            let rsum: f64 = g.row_adj(i).iter().map(|&j| dc[j as usize]).sum();
            if rsum > 0.0 {
                dr[i] = 1.0 / rsum;
            }
        }
        done += 1;
        error = (0..g.ncols())
            .map(|j| {
                let s: f64 = g.col_adj(j).iter().map(|&i| dr[i as usize]).sum();
                (s * dc[j] - 1.0).abs()
            })
            .fold(0.0, f64::max);
        history.push(error);
        if cfg.tolerance > 0.0 && error <= cfg.tolerance {
            break;
        }
    }
    if done == 0 {
        error = max_col_sum_error(g, &dr, &dc);
    }
    ScalingResult { dr, dc, iterations: done, error, history }
}

/// Weighted Sinkhorn–Knopp for a general non-negative value array.
///
/// `vals` holds one value per stored entry of `g.csr()`, in row-major entry
/// order. This extends the paper's (0,1) setting to arbitrary non-negative
/// matrices with total support (e.g. for weighted-matching experiments).
pub fn sinkhorn_knopp_weighted(
    g: &BipartiteGraph,
    vals: &[f64],
    cfg: &ScalingConfig,
) -> ScalingResult {
    assert_eq!(vals.len(), g.nnz(), "one value per stored entry required");
    assert!(vals.iter().all(|&v| v >= 0.0), "values must be non-negative");

    // Build the column-major value permutation once (the transpose of the
    // value array), so the column pass can stream values contiguously.
    let csr = g.csr();
    let mut cursor: Vec<usize> = g.csc().row_ptr().to_vec();
    let mut vals_csc = vec![0.0f64; vals.len()];
    let mut rows_csc = vec![0u32; vals.len()];
    for i in 0..g.nrows() {
        let start = csr.row_ptr()[i];
        for (k, &j) in csr.row(i).iter().enumerate() {
            let slot = &mut cursor[j as usize];
            vals_csc[*slot] = vals[start + k];
            rows_csc[*slot] = i as u32;
            *slot += 1;
        }
    }
    let csc_ptr = g.csc().row_ptr();

    let mut dr = vec![1.0f64; g.nrows()];
    let mut dc = vec![1.0f64; g.ncols()];
    let mut history = Vec::with_capacity(cfg.max_iterations);
    let mut error = f64::INFINITY;
    let mut done = 0usize;

    let col_error = |dr: &[f64], dc: &[f64]| -> f64 {
        (0..g.ncols())
            .into_par_iter()
            .map(|j| {
                let s: f64 = (csc_ptr[j]..csc_ptr[j + 1])
                    .map(|k| dr[rows_csc[k] as usize] * vals_csc[k])
                    .sum();
                (s * dc[j] - 1.0).abs()
            })
            .reduce(|| 0.0, f64::max)
    };

    for _ in 0..cfg.max_iterations {
        dc.par_iter_mut().enumerate().for_each(|(j, dcj)| {
            let csum: f64 =
                (csc_ptr[j]..csc_ptr[j + 1]).map(|k| dr[rows_csc[k] as usize] * vals_csc[k]).sum();
            if csum > 0.0 {
                *dcj = 1.0 / csum;
            }
        });
        dr.par_iter_mut().enumerate().for_each(|(i, dri)| {
            let start = csr.row_ptr()[i];
            let rsum: f64 =
                csr.row(i).iter().enumerate().map(|(k, &j)| vals[start + k] * dc[j as usize]).sum();
            if rsum > 0.0 {
                *dri = 1.0 / rsum;
            }
        });
        done += 1;
        error = col_error(&dr, &dc);
        history.push(error);
        if cfg.tolerance > 0.0 && error <= cfg.tolerance {
            break;
        }
    }
    if done == 0 {
        error = col_error(&dr, &dc);
    }
    ScalingResult { dr, dc, iterations: done, error, history }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmatch_graph::Csr;

    fn graph(rows: &[&[u8]]) -> BipartiteGraph {
        BipartiteGraph::from_csr(Csr::from_dense(rows))
    }

    #[test]
    fn all_ones_scales_to_uniform_in_one_iteration() {
        let g = graph(&[&[1, 1, 1], &[1, 1, 1], &[1, 1, 1]]);
        let r = sinkhorn_knopp(&g, &ScalingConfig::iterations(1));
        for i in 0..3 {
            for j in 0..3 {
                assert!((r.entry(i, j) - 1.0 / 3.0).abs() < 1e-14);
            }
        }
        assert!(r.error < 1e-14);
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn row_sums_are_one_after_any_iteration() {
        let g = graph(&[&[1, 1, 0], &[0, 1, 1], &[1, 0, 1]]);
        let r = sinkhorn_knopp(&g, &ScalingConfig::iterations(3));
        for i in 0..3 {
            assert!((r.row_sum(&g, i) - 1.0).abs() < 1e-12, "row {i}");
        }
    }

    #[test]
    fn converges_on_total_support_matrix() {
        // A symmetric doubly-stochastic-able pattern (cycle structure).
        let g = graph(&[&[1, 1, 0, 0], &[0, 1, 1, 0], &[0, 0, 1, 1], &[1, 0, 0, 1]]);
        let r = sinkhorn_knopp(&g, &ScalingConfig::until(1e-10, 500));
        assert!(r.error <= 1e-10, "error = {}", r.error);
        for j in 0..4 {
            assert!((r.col_sum(&g, j) - 1.0).abs() < 1e-9);
        }
        // This pattern is a circulant: the limit is uniform 1/2 per entry.
        assert!((r.entry(0, 0) - 0.5).abs() < 1e-8);
    }

    #[test]
    fn seq_and_par_agree_bitwise() {
        let g = graph(&[
            &[1, 1, 0, 1, 0],
            &[0, 1, 1, 0, 0],
            &[1, 0, 1, 1, 1],
            &[0, 1, 0, 1, 0],
            &[1, 0, 0, 0, 1],
        ]);
        let a = sinkhorn_knopp(&g, &ScalingConfig::iterations(8));
        let b = sinkhorn_knopp_seq(&g, &ScalingConfig::iterations(8));
        assert_eq!(a.dr, b.dr);
        assert_eq!(a.dc, b.dc);
        assert_eq!(a.error, b.error);
    }

    #[test]
    fn zero_iterations_reports_raw_error() {
        let g = graph(&[&[1, 1], &[1, 1]]);
        let r = sinkhorn_knopp(&g, &ScalingConfig::iterations(0));
        assert_eq!(r.iterations, 0);
        assert_eq!(r.error, 1.0); // column sums are 2
        assert!(r.history.is_empty());
        assert_eq!(r.dr, vec![1.0, 1.0]);
    }

    #[test]
    fn tolerance_early_exit() {
        let g = graph(&[&[1, 1], &[1, 1]]);
        // Uniform matrix converges in one iteration; cap of 50 is not hit.
        let r = sinkhorn_knopp(&g, &ScalingConfig::until(1e-12, 50));
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn error_history_is_monotone_on_nice_matrices() {
        let g = graph(&[&[1, 1, 0], &[1, 1, 1], &[0, 1, 1]]);
        let r = sinkhorn_knopp(&g, &ScalingConfig::iterations(30));
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "history not decreasing: {:?}", r.history);
        }
    }

    #[test]
    fn empty_rows_and_cols_are_tolerated() {
        let g = graph(&[&[1, 0, 0], &[0, 0, 1], &[0, 0, 0]]);
        let r = sinkhorn_knopp(&g, &ScalingConfig::iterations(4));
        assert!(r.dr.iter().all(|d| d.is_finite()));
        assert!(r.dc.iter().all(|d| d.is_finite()));
    }

    #[test]
    fn weighted_matches_pattern_on_unit_values() {
        let g = graph(&[&[1, 1, 0], &[0, 1, 1], &[1, 0, 1]]);
        let vals = vec![1.0; g.nnz()];
        let a = sinkhorn_knopp(&g, &ScalingConfig::iterations(6));
        let b = sinkhorn_knopp_weighted(&g, &vals, &ScalingConfig::iterations(6));
        for (x, y) in a.dr.iter().zip(&b.dr) {
            assert!((x - y).abs() < 1e-13);
        }
        for (x, y) in a.dc.iter().zip(&b.dc) {
            assert!((x - y).abs() < 1e-13);
        }
    }

    #[test]
    fn weighted_doubly_stochastic_limit() {
        // 2×2 with distinct positive values still scales to doubly
        // stochastic (Sinkhorn's theorem for positive matrices).
        let g = graph(&[&[1, 1], &[1, 1]]);
        let vals = vec![1.0, 2.0, 3.0, 4.0];
        let r = sinkhorn_knopp_weighted(&g, &vals, &ScalingConfig::until(1e-12, 1000));
        assert!(r.error <= 1e-12);
        // Row sums: dr[i]·Σ_j v_ij·dc[j] == 1.
        let s00 = r.dr[0] * 1.0 * r.dc[0];
        let s01 = r.dr[0] * 2.0 * r.dc[1];
        assert!((s00 + s01 - 1.0).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "one value per stored entry")]
    fn weighted_checks_length() {
        let g = graph(&[&[1, 1], &[1, 1]]);
        let _ = sinkhorn_knopp_weighted(&g, &[1.0], &ScalingConfig::iterations(1));
    }

    #[test]
    fn cancel_refuses_dead_token_and_slot_stays_reusable() {
        let g = graph(&[&[1, 1, 0], &[1, 1, 1], &[0, 1, 1]]);
        let cfg = ScalingConfig::iterations(5);
        let dead = CancelToken::unbounded();
        dead.cancel();
        let mut out = ScalingResult::empty();
        assert!(sinkhorn_knopp_cancel_into(&g, &cfg, &mut out, &dead).is_err());
        // The same slot then reproduces a fresh run exactly — cancellation
        // leaves the factor buffers reusable, not poisoned.
        sinkhorn_knopp_cancel_into(&g, &cfg, &mut out, &CancelToken::unbounded())
            .expect("live token");
        let fresh = sinkhorn_knopp(&g, &cfg);
        assert_eq!(out.dr, fresh.dr);
        assert_eq!(out.dc, fresh.dc);
        assert_eq!(out.iterations, fresh.iterations);
    }
}
