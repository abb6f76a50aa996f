//! `heur-er`: one caller runs `scale:sk:5,two` on one Erdős–Rényi
//! instance through a 1-thread workspace, with the seed rotating per op.
//! Almost all the time goes to the Sinkhorn–Knopp scaling and the
//! two-sided heuristic.

use dsmatch::engine::{Json, Pipeline, SolveReport, Solver, Workspace};
use dsmatch::exact::sprank;
use dsmatch::graph::BipartiteGraph;

use crate::common::{against_optimum, derive, period_index, Workload};
use crate::trace::Tracer;

pub const N: usize = 50_000;
pub const DEGREE: f64 = 8.0;
pub const SPEC: &str = "scale:sk:5,two";
/// Workspace threads. On a shared 2-vCPU host a 2-thread pool's
/// barrier-synchronised loops make run medians spread 3-4 times wider
/// than one thread does; the parallel path is measured by `batch-skewed`
/// and the per-layer sweep.
pub const THREADS: usize = 1;

const STREAM_INSTANCE: u64 = 11;
const STREAM_OPS: u64 = 12;

/// The workload's instance for `seed`.
pub fn instance(seed: u64) -> BipartiteGraph {
    dsmatch::gen::erdos_renyi_square(N, DEGREE, derive(seed, STREAM_INSTANCE, 0))
}

pub struct HeurEr {
    seed: u64,
    pub g: BipartiteGraph,
    ws: Workspace,
    pipeline: Pipeline,
    opt: usize,
}

impl HeurEr {
    /// Set-up: instance synthesis (with its CSR build) and the workspace
    /// with its thread pool.
    pub fn setup(seed: u64) -> HeurEr {
        HeurEr::from_graph(seed, instance(seed), THREADS)
    }

    /// The workload on a given instance.
    pub fn from_graph(seed: u64, g: BipartiteGraph, threads: usize) -> HeurEr {
        HeurEr {
            seed,
            g,
            ws: Workspace::with_threads(threads),
            pipeline: SPEC.parse().expect("valid spec"),
            opt: 0,
        }
    }

    pub fn reference(&mut self) {
        self.opt = sprank(&self.g);
    }

    pub fn facts(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("pipeline", Json::from(SPEC)),
            ("threads", Json::from(THREADS)),
            ("n", Json::from(self.g.nrows())),
            ("nnz", Json::from(self.g.nnz())),
            ("optimum", Json::from(self.opt)),
        ]
    }
}

impl Workload for HeurEr {
    type Out = SolveReport;
    const WARMUP: u64 = 10;
    const REPLAY: u64 = 40;

    /// Op `k`: one solve with the op's seed.
    fn solve(&mut self, k: u64, tr: &Tracer) -> SolveReport {
        let seed = derive(self.seed, STREAM_OPS, period_index(k));
        let (g, ws, pipeline) = (&self.g, &mut self.ws, &self.pipeline);
        tr.span("engine.solve", k, || pipeline.clone().with_seed(seed).solve(g, ws))
    }

    fn check(&self, k: u64, report: SolveReport, tr: &Tracer) -> Result<f64, String> {
        tr.span("graph.verify", k, || report.matching.verify(&self.g))
            .map_err(|e| format!("heur-er op {k}: {e}"))?;
        against_optimum(report.cardinality(), self.opt, false, &format!("heur-er op {k}"))
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::common::{closed_loop, nproc};

    /// `quality_min` covers a fixed op set: neither the window's length
    /// nor the pool size changes it.
    #[test]
    fn quality_min_does_not_depend_on_window_or_pool() {
        let g = dsmatch::gen::erdos_renyi_square(20_000, DEGREE, 5);
        let quality = |threads: usize, window_ms: u64| {
            let mut w = HeurEr::from_graph(11, g.clone(), threads);
            w.reference();
            let run = closed_loop(&mut w, Duration::from_millis(window_ms));
            assert_eq!(run.failed, 0, "{:?}", run.errors);
            run.quality_min
        };
        let q = quality(1, 1);
        assert!(q > 0.5 && q < 1.0, "{q}");
        assert_eq!(q, quality(1, 400));
        assert_eq!(q, quality(nproc().max(2), 1));
    }
}
