//! Ruiz equilibration (1-norm variant).
//!
//! The paper's §2.2 reviews Ruiz's algorithm as the alternative to
//! Sinkhorn–Knopp: instead of alternating exact column/row normalization,
//! each iteration scales **both** sides simultaneously by the inverse square
//! roots of the current row and column sums, converging to the same doubly
//! stochastic limit but — per Knight, Ruiz & Uçar — more slowly on
//! unsymmetric matrices. We implement it so the ablation benchmark can
//! reproduce that comparison (`ablation_bench`, and the quality impact in
//! EXPERIMENTS.md).
//!
//! # Fused schedule
//!
//! [`ruiz_cancel_into`] makes `2k − 1` gather sweeps over the nonzeros for
//! `k ≥ 1` iterations:
//!
//! - the first iteration reads `dr = dc ≡ 1`, so its row and column sums
//!   are the degrees and it sweeps nothing;
//! - every later iteration sweeps the columns once into one reused O(n)
//!   scratch, `c_j = (Σ_i dr[i])·dc[j]`. That product is exactly the
//!   previous iteration's error term `|c_j − 1|`, so the same sweep yields
//!   the previous error, checks the tolerance before any factor changes,
//!   and then the row sweep updates `dr` in place;
//! - one closing [`max_col_sum_error`] sweep gives the last error.
//!
//! Every value is produced by the same floating-point operations on the
//! same operands as the unfused loop of [`ruiz_seq`], so `dr`, `dc`,
//! `history`, `error` and `iterations` are bit-identical to it at every
//! pool size. On [`Cancelled`], `history` can lack the entry of the last
//! completed iteration, whose error was never swept.

use dsmatch_graph::{BipartiteGraph, CancelToken, Cancelled};
use rayon::prelude::*;

use crate::sinkhorn::{identity_col_error, max_col_sum_error};
use crate::{ScalingConfig, ScalingResult};

/// Parallel Ruiz equilibration in the 1-norm.
///
/// One iteration:
/// ```text
/// r_i = Σ_j s_ij,  c_j = Σ_i s_ij          (current scaled sums)
/// dr[i] ← dr[i] / √r_i,  dc[j] ← dc[j] / √c_j
/// ```
pub fn ruiz(g: &BipartiteGraph, cfg: &ScalingConfig) -> ScalingResult {
    let mut out = ScalingResult::empty();
    ruiz_into(g, cfg, &mut out);
    out
}

/// Buffer-reuse variant of [`ruiz`]: identical arithmetic, the factor and
/// history vectors of `out` are reset and refilled in place (see
/// [`crate::sinkhorn_knopp_into`] for the allocation contract).
pub fn ruiz_into(g: &BipartiteGraph, cfg: &ScalingConfig, out: &mut ScalingResult) {
    ruiz_cancel_into(g, cfg, out, &CancelToken::unbounded()).expect("unbounded token never cancels")
}

/// [`ruiz_into`] with cooperative cancellation: the token is polled once
/// per iteration. On [`Cancelled`] the factors in `out` are whatever the
/// completed iterations produced, and the buffers stay reusable; `history`
/// can lack the last completed iteration's error (see the module docs).
pub fn ruiz_cancel_into(
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
    let mut csums = Vec::new();
    let mut converged = None;
    let mut done = 0usize;
    while done < cfg.max_iterations {
        token.check()?;
        if done == 0 {
            degree_pass(&mut out.dr, |i| g.row_degree(i));
            degree_pass(&mut out.dc, |j| g.col_degree(j));
        } else {
            let dr = &out.dr;
            let dc = &out.dc;
            csums.resize(g.ncols(), 0.0);
            let prev = csums
                .par_iter_mut()
                .enumerate()
                .map(|(j, c)| {
                    let s: f64 = g.col_adj(j).iter().map(|&i| dr[i as usize]).sum();
                    *c = s * dc[j];
                    (*c - 1.0).abs()
                })
                .reduce(|| 0.0, f64::max);
            out.history.push(prev);
            if cfg.tolerance > 0.0 && prev <= cfg.tolerance {
                converged = Some(prev);
                break;
            }
            // Row i's sum reads only its own `dr[i]` and the old `dc`, so
            // the row update can run in place.
            out.dr.par_iter_mut().enumerate().for_each(|(i, d)| {
                let s: f64 = g.row_adj(i).iter().map(|&j| dc[j as usize]).sum();
                let r = s * *d;
                if r > 0.0 {
                    *d /= r.sqrt();
                }
            });
            out.dc.par_iter_mut().zip(csums.par_iter()).for_each(|(d, &c)| {
                if c > 0.0 {
                    *d /= c.sqrt();
                }
            });
        }
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

/// First Ruiz update of one factor vector: with every factor at one, each
/// scaled sum is the vertex degree, so `d ← 1/√deg` without a gather.
pub(crate) fn degree_pass(d: &mut [f64], degree: impl Fn(usize) -> usize + Sync) {
    d.par_iter_mut().enumerate().for_each(|(v, dv)| {
        let r = degree(v) as f64;
        if r > 0.0 {
            *dv /= r.sqrt();
        }
    });
}

/// Sequential Ruiz — identical arithmetic to [`ruiz`].
pub fn ruiz_seq(g: &BipartiteGraph, cfg: &ScalingConfig) -> ScalingResult {
    let mut dr = vec![1.0f64; g.nrows()];
    let mut dc = vec![1.0f64; g.ncols()];
    let mut history = Vec::with_capacity(cfg.max_iterations);
    let mut error = f64::INFINITY;
    let mut done = 0usize;
    for _ in 0..cfg.max_iterations {
        let rsums: Vec<f64> = (0..g.nrows())
            .map(|i| dr[i] * g.row_adj(i).iter().map(|&j| dc[j as usize]).sum::<f64>())
            .collect();
        let csums: Vec<f64> = (0..g.ncols())
            .map(|j| dc[j] * g.col_adj(j).iter().map(|&i| dr[i as usize]).sum::<f64>())
            .collect();
        for (d, &r) in dr.iter_mut().zip(&rsums) {
            if r > 0.0 {
                *d /= r.sqrt();
            }
        }
        for (d, &c) in dc.iter_mut().zip(&csums) {
            if c > 0.0 {
                *d /= c.sqrt();
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

#[cfg(test)]
mod tests {
    use super::*;
    use dsmatch_graph::Csr;

    fn graph(rows: &[&[u8]]) -> BipartiteGraph {
        BipartiteGraph::from_csr(Csr::from_dense(rows))
    }

    #[test]
    fn symmetric_all_ones_converges_fast() {
        let g = graph(&[&[1, 1], &[1, 1]]);
        let r = ruiz(&g, &ScalingConfig::until(1e-10, 200));
        assert!(r.error <= 1e-10);
        assert!((r.entry(0, 0) - 0.5).abs() < 1e-8);
    }

    #[test]
    fn converges_to_doubly_stochastic() {
        let g = graph(&[&[1, 1, 0], &[1, 1, 1], &[0, 1, 1]]);
        let r = ruiz(&g, &ScalingConfig::until(1e-9, 2000));
        assert!(r.error <= 1e-9, "error = {}", r.error);
        for i in 0..3 {
            assert!((r.row_sum(&g, i) - 1.0).abs() < 1e-7);
        }
    }

    #[test]
    fn seq_and_par_agree() {
        let g = graph(&[&[1, 0, 1, 1], &[1, 1, 0, 0], &[0, 1, 1, 0], &[1, 0, 0, 1]]);
        let a = ruiz(&g, &ScalingConfig::iterations(10));
        let b = ruiz_seq(&g, &ScalingConfig::iterations(10));
        for (x, y) in a.dr.iter().zip(&b.dr) {
            assert!((x - y).abs() < 1e-14);
        }
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn slower_than_sinkhorn_on_unsymmetric_pattern() {
        // Knight–Ruiz–Uçar observation the paper cites: for unsymmetric
        // matrices SK converges faster. Compare errors after equal
        // iteration counts.
        let g = graph(&[
            &[1, 1, 1, 1, 1],
            &[1, 1, 0, 0, 0],
            &[0, 1, 1, 0, 0],
            &[0, 0, 1, 1, 0],
            &[0, 0, 0, 1, 1],
        ]);
        let sk = crate::sinkhorn_knopp(&g, &ScalingConfig::iterations(12));
        let rz = ruiz(&g, &ScalingConfig::iterations(12));
        assert!(
            sk.error <= rz.error + 1e-12,
            "SK error {} should not exceed Ruiz error {}",
            sk.error,
            rz.error
        );
    }

    #[test]
    fn handles_empty_vectors_gracefully() {
        let g = graph(&[&[0, 0], &[1, 0]]);
        let r = ruiz(&g, &ScalingConfig::iterations(3));
        assert!(r.dr.iter().all(|d| d.is_finite()));
        assert!(r.dc.iter().all(|d| d.is_finite()));
    }

    #[test]
    fn cancel_refuses_dead_token_and_slot_stays_reusable() {
        let g = graph(&[&[1, 1], &[1, 1]]);
        let cfg = ScalingConfig::iterations(4);
        let dead = CancelToken::unbounded();
        dead.cancel();
        let mut out = ScalingResult::empty();
        assert!(ruiz_cancel_into(&g, &cfg, &mut out, &dead).is_err());
        ruiz_cancel_into(&g, &cfg, &mut out, &CancelToken::unbounded()).expect("live token");
        let fresh = ruiz(&g, &cfg);
        assert_eq!(out.dr, fresh.dr);
        assert_eq!(out.dc, fresh.dc);
        assert_eq!(out.iterations, fresh.iterations);
    }
}
