//! # dsmatch-scale — doubly-stochastic matrix scaling
//!
//! Both heuristics of the paper draw their sampling probabilities from a
//! doubly-stochastic scaling `S = D_R · A · D_C` of the (0,1) adjacency
//! matrix (paper §2.2). This crate implements:
//!
//! - [`sinkhorn_knopp`] / [`sinkhorn_knopp_seq`] — the paper's Algorithm 1
//!   (`ScaleSK`): alternately normalize columns then rows. The parallel
//!   version mirrors the paper's OpenMP `parallel for` loops with Rayon.
//! - [`sinkhorn_knopp_weighted`] — the same iteration for a general
//!   non-negative value array (beyond the paper's (0,1) setting).
//! - [`ruiz`] — Ruiz equilibration in the 1-norm (reviewed in §2.2 of the
//!   paper as the slower-converging alternative for unsymmetric matrices).
//!
//! The **scaling error** reported everywhere in the paper's §4 is
//! `max_j |Σ_i s_ij − 1|` measured after the row update (at which point row
//! sums are exactly one modulo round-off): see [`ScalingResult::error`].
//!
//! Scaled entries are never materialized: `s_ij = dr[i] · dc[j]` (times
//! `a_ij` in the weighted case) is recomputed on demand, exactly as in the
//! paper's implementation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod ruiz;
mod sinkhorn;
mod symmetric;

pub use analysis::{second_singular_value, sk_convergence_rate};
pub use ruiz::{ruiz, ruiz_cancel_into, ruiz_into, ruiz_seq};
pub use sinkhorn::{
    max_col_sum_error, min_col_sum, sinkhorn_knopp, sinkhorn_knopp_cancel_into,
    sinkhorn_knopp_into, sinkhorn_knopp_seq, sinkhorn_knopp_weighted,
};
pub use symmetric::{symmetric_scaling, SymmetricScalingResult};

use dsmatch_graph::BipartiteGraph;

/// Stopping rule for a scaling iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScalingConfig {
    /// Hard cap on the number of iterations. The paper's experiments use
    /// 0, 1, 5, 10 and occasionally 15–20 iterations; convergence is *not*
    /// required for the quality guarantees (§3.3).
    pub max_iterations: usize,
    /// Early-exit tolerance on the scaling error; `0.0` disables early exit
    /// so exactly `max_iterations` iterations run.
    pub tolerance: f64,
}

impl ScalingConfig {
    /// Run exactly `n` iterations (the mode used by all paper experiments).
    pub fn iterations(n: usize) -> Self {
        Self { max_iterations: n, tolerance: 0.0 }
    }

    /// Run until the scaling error drops to `tol`, but at most `cap`
    /// iterations.
    pub fn until(tol: f64, cap: usize) -> Self {
        Self { max_iterations: cap, tolerance: tol }
    }
}

impl Default for ScalingConfig {
    /// Five iterations — the count §4.1.2 of the paper identifies as
    /// "sufficient to achieve the guaranteed qualities" on most instances.
    fn default() -> Self {
        Self::iterations(5)
    }
}

/// Output of a scaling run.
#[derive(Clone, Debug)]
pub struct ScalingResult {
    /// Row scaling factors (diagonal of `D_R`).
    pub dr: Vec<f64>,
    /// Column scaling factors (diagonal of `D_C`).
    pub dc: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final scaling error `max_j |Σ_i s_ij − 1|`.
    pub error: f64,
    /// Scaling error after each iteration (length = `iterations`).
    pub history: Vec<f64>,
}

impl ScalingResult {
    /// The identity scaling (`dr = dc = 1`), used for the paper's
    /// "0 iterations" rows where sampling is uniform over adjacency lists.
    pub fn identity(g: &BipartiteGraph) -> Self {
        let mut out = Self::empty();
        out.reset_identity(g);
        out
    }

    /// An empty result with no allocation — the slot callers hand to the
    /// `*_into` entry points ([`sinkhorn_knopp_into`], [`ruiz_into`]) when
    /// building a reusable workspace.
    pub fn empty() -> Self {
        Self {
            dr: Vec::new(),
            dc: Vec::new(),
            iterations: 0,
            error: f64::INFINITY,
            history: Vec::new(),
        }
    }

    /// Reset this result to the identity scaling of `g` **in place**: the
    /// `dr`/`dc`/`history` buffers are resized but keep their allocation
    /// once they have grown to the instance size, so batch workloads stop
    /// allocating per solve. The error `max_j |deg(j) − 1|` is read off the
    /// column pointers in O(n), without a gather over the nonzeros.
    pub fn reset_identity(&mut self, g: &BipartiteGraph) {
        self.dr.clear();
        self.dr.resize(g.nrows(), 1.0);
        self.dc.clear();
        self.dc.resize(g.ncols(), 1.0);
        self.history.clear();
        self.iterations = 0;
        self.error = sinkhorn::identity_col_error(g);
    }

    /// Scaled entry `s_ij = dr[i] · dc[j]` (valid only where `a_ij = 1`).
    #[inline]
    pub fn entry(&self, i: usize, j: usize) -> f64 {
        self.dr[i] * self.dc[j]
    }

    /// Sum of scaled entries in row `i`.
    pub fn row_sum(&self, g: &BipartiteGraph, i: usize) -> f64 {
        let s: f64 = g.row_adj(i).iter().map(|&j| self.dc[j as usize]).sum();
        self.dr[i] * s
    }

    /// Sum of scaled entries in column `j`.
    pub fn col_sum(&self, g: &BipartiteGraph, j: usize) -> f64 {
        let s: f64 = g.col_adj(j).iter().map(|&i| self.dr[i as usize]).sum();
        self.dc[j] * s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsmatch_graph::Csr;

    #[test]
    fn config_constructors() {
        let c = ScalingConfig::iterations(7);
        assert_eq!(c.max_iterations, 7);
        assert_eq!(c.tolerance, 0.0);
        let c = ScalingConfig::until(1e-4, 100);
        assert_eq!(c.max_iterations, 100);
        assert_eq!(c.tolerance, 1e-4);
        assert_eq!(ScalingConfig::default().max_iterations, 5);
    }

    #[test]
    fn identity_result_entries() {
        let g = BipartiteGraph::from_csr(Csr::from_dense(&[&[1, 1], &[1, 1]]));
        let r = ScalingResult::identity(&g);
        assert_eq!(r.entry(0, 1), 1.0);
        assert_eq!(r.row_sum(&g, 0), 2.0);
        assert_eq!(r.col_sum(&g, 1), 2.0);
        // Error of the unscaled all-ones 2×2: |2 − 1| = 1.
        assert_eq!(r.error, 1.0);
        assert_eq!(r.iterations, 0);
    }
}
