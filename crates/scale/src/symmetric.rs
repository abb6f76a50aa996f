//! Symmetric doubly-stochastic scaling for undirected graphs.
//!
//! For a symmetric pattern `A`, a *symmetry-preserving* scaling uses a
//! single diagonal `D` with `S = D·A·D` doubly stochastic (Knight, Ruiz &
//! Uçar — reference [23] of the paper). The natural iteration is the
//! symmetric Ruiz update `d[v] ← d[v] / √(rowsum_v)`, which keeps row and
//! column sums equal by construction. This backs the undirected 1-out
//! heuristic (`dsmatch-core::one_out_undirected`), the paper's announced
//! §5 extension.
//!
//! [`symmetric_scaling`] runs the fused schedule of the Ruiz kernel: `k`
//! gather sweeps for `k ≥ 1` iterations instead of `2k`. The first
//! iteration's row sums are the degrees, each later sweep's `s_v·d[v]` is
//! exactly the previous iteration's error term, so one sweep yields both,
//! and one closing sweep gives the last error. The result is bit-identical
//! to the unfused loop.

use dsmatch_graph::UndirectedGraph;
use rayon::prelude::*;

use crate::ruiz::degree_pass;
use crate::ScalingConfig;

/// Result of a symmetric scaling run.
#[derive(Clone, Debug)]
pub struct SymmetricScalingResult {
    /// The scaling diagonal: `s_uv = d[u]·d[v]` for every edge `(u,v)`.
    pub d: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final `max_v |Σ_u s_uv − 1|`.
    pub error: f64,
}

impl SymmetricScalingResult {
    /// Identity scaling (uniform sampling).
    pub fn identity(g: &UndirectedGraph) -> Self {
        Self { d: vec![1.0; g.n()], iterations: 0, error: identity_error(g) }
    }

    /// Scaled entry for edge `(u, v)`.
    #[inline]
    pub fn entry(&self, u: usize, v: usize) -> f64 {
        self.d[u] * self.d[v]
    }

    /// Scaled sum of row `v`.
    pub fn row_sum(&self, g: &UndirectedGraph, v: usize) -> f64 {
        let s: f64 = g.adj(v).iter().map(|&u| self.d[u as usize]).sum();
        self.d[v] * s
    }
}

fn row_error(g: &UndirectedGraph, d: &[f64]) -> f64 {
    (0..g.n())
        .into_par_iter()
        .map(|v| {
            let s: f64 = g.adj(v).iter().map(|&u| d[u as usize]).sum();
            (s * d[v] - 1.0).abs()
        })
        .reduce(|| 0.0, f64::max)
}

/// `max_v |deg(v) − 1|`: bit-equal to [`row_error`] with `d ≡ 1` (a sum
/// of `deg` ones is exactly `deg`) without the gather sweep.
fn identity_error(g: &UndirectedGraph) -> f64 {
    (0..g.n()).map(|v| (g.degree(v) as f64 - 1.0).abs()).fold(0.0, f64::max)
}

/// Parallel symmetric (Ruiz-style) scaling: `d ← d / √rowsum` per
/// iteration.
pub fn symmetric_scaling(g: &UndirectedGraph, cfg: &ScalingConfig) -> SymmetricScalingResult {
    let mut d = vec![1.0f64; g.n()];
    let mut sums = Vec::new();
    let mut converged = None;
    let mut done = 0usize;
    while done < cfg.max_iterations {
        if done == 0 {
            degree_pass(&mut d, |v| g.degree(v));
        } else {
            let cur = &d;
            sums.resize(g.n(), 0.0);
            let prev = sums
                .par_iter_mut()
                .enumerate()
                .map(|(v, sv)| {
                    let s: f64 = g.adj(v).iter().map(|&u| cur[u as usize]).sum();
                    *sv = s * cur[v];
                    (*sv - 1.0).abs()
                })
                .reduce(|| 0.0, f64::max);
            if cfg.tolerance > 0.0 && prev <= cfg.tolerance {
                converged = Some(prev);
                break;
            }
            d.par_iter_mut().zip(sums.par_iter()).for_each(|(dv, &s)| {
                if s > 0.0 {
                    *dv /= s.sqrt();
                }
            });
        }
        done += 1;
    }
    let error = match converged {
        Some(error) => error,
        None if done == 0 => identity_error(g),
        None => row_error(g, &d),
    };
    SymmetricScalingResult { d, iterations: done, error }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unfused loop — two sweeps per iteration — kept as the oracle
    /// the fused [`symmetric_scaling`] must match bit for bit.
    fn symmetric_scaling_unfused(
        g: &UndirectedGraph,
        cfg: &ScalingConfig,
    ) -> SymmetricScalingResult {
        let mut d = vec![1.0f64; g.n()];
        let mut error = f64::INFINITY;
        let mut done = 0usize;
        for _ in 0..cfg.max_iterations {
            let sums: Vec<f64> = (0..g.n())
                .into_par_iter()
                .map(|v| {
                    let s: f64 = g.adj(v).iter().map(|&u| d[u as usize]).sum();
                    s * d[v]
                })
                .collect();
            d.par_iter_mut().zip(sums.par_iter()).for_each(|(dv, &s)| {
                if s > 0.0 {
                    *dv /= s.sqrt();
                }
            });
            done += 1;
            error = row_error(g, &d);
            if cfg.tolerance > 0.0 && error <= cfg.tolerance {
                break;
            }
        }
        if done == 0 {
            error = row_error(g, &d);
        }
        SymmetricScalingResult { d, iterations: done, error }
    }

    fn assert_bit_equal(g: &UndirectedGraph, cfg: &ScalingConfig) {
        let fused = symmetric_scaling(g, cfg);
        let oracle = symmetric_scaling_unfused(g, cfg);
        let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fused.d), bits(&oracle.d), "{cfg:?}");
        assert_eq!(fused.iterations, oracle.iterations, "{cfg:?}");
        assert_eq!(fused.error.to_bits(), oracle.error.to_bits(), "{cfg:?}");
    }

    #[test]
    fn fused_matches_unfused_oracle_bitwise() {
        // A path with a pendant star and isolated vertices: uneven degrees
        // (no total support), so the error stays away from zero, plus
        // degree-0 vertices that keep their factor.
        let mut edges: Vec<(usize, usize)> = (0..40).map(|v| (v, v + 1)).collect();
        edges.extend((42..50).map(|v| (0, v)));
        edges.extend((0..40).step_by(3).map(|v| (v, (v * 7 + 5) % 41)).filter(|&(u, v)| u != v));
        let irregular = UndirectedGraph::from_edges(53, &edges);
        // A dense irregular graph with total support: the tolerance
        // configs stop after a few iterations, through the early-exit path.
        let dense: Vec<(usize, usize)> = (0..30)
            .flat_map(|u| (u + 1..30).map(move |v| (u, v)))
            .filter(|&(u, v)| (u * 31 + v * 17) % 5 < 3)
            .collect();
        let dense = UndirectedGraph::from_edges(30, &dense);
        let graphs = [cycle(12), irregular, dense, UndirectedGraph::from_edges(3, &[])];
        for g in &graphs {
            for cfg in [
                ScalingConfig::iterations(0),
                ScalingConfig::iterations(1),
                ScalingConfig::iterations(5),
                ScalingConfig::until(1e-3, 500),
                ScalingConfig::until(1e-6, 500),
            ] {
                assert_bit_equal(g, &cfg);
            }
        }
        // The tolerance exits the comparison above went through.
        let iterations = |g, tol| symmetric_scaling(g, &ScalingConfig::until(tol, 500)).iterations;
        assert_eq!(iterations(&graphs[0], 1e-12), 1);
        assert!((2..500).contains(&iterations(&graphs[2], 1e-3)));
        assert!((2..500).contains(&iterations(&graphs[2], 1e-6)));
    }

    fn cycle(n: usize) -> UndirectedGraph {
        let edges: Vec<(usize, usize)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        UndirectedGraph::from_edges(n, &edges)
    }

    #[test]
    fn cycle_scales_to_half() {
        // Every vertex has degree 2: the doubly stochastic limit puts 1/2
        // on each edge.
        let g = cycle(10);
        let r = symmetric_scaling(&g, &ScalingConfig::until(1e-12, 100));
        assert!(r.error <= 1e-12);
        assert!((r.entry(0, 1) - 0.5).abs() < 1e-10);
        for v in 0..10 {
            assert!((r.row_sum(&g, v) - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn star_graph_converges() {
        // K_{1,4} star: hub degree 4, leaves degree 1. The doubly
        // stochastic limit requires hub-leaf entries of 1 for leaves...
        // impossible exactly (no total support), but the iteration must
        // stay finite and reduce error.
        let g = UndirectedGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let r = symmetric_scaling(&g, &ScalingConfig::iterations(50));
        assert!(r.d.iter().all(|x| x.is_finite() && *x > 0.0));
        let r0 = symmetric_scaling(&g, &ScalingConfig::iterations(1));
        assert!(r.error <= r0.error + 1e-12);
    }

    #[test]
    fn identity_has_degree_error() {
        let g = cycle(6);
        let r = SymmetricScalingResult::identity(&g);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.error, 1.0); // degree 2 ⇒ |2 − 1| = 1
    }

    #[test]
    fn isolated_vertices_tolerated() {
        let g = UndirectedGraph::from_edges(4, &[(0, 1)]);
        let r = symmetric_scaling(&g, &ScalingConfig::iterations(5));
        assert!(r.d.iter().all(|x| x.is_finite()));
        assert!((r.entry(0, 1) - 1.0).abs() < 1e-10);
    }
}
