//! `batch-skewed`: one caller runs `solve_batch` with `scale:sk:5,two`
//! over a per-worker workspace pool on 48 Erdős–Rényi instances of size
//! `N0 / (k + 1)`. Each instance solves sequentially on one worker; the
//! parallelism is coarse stealable tasks, so load balance sets throughput.

use dsmatch::engine::{Json, Pipeline, SolveReport, Workspace, WorkspacePool};
use dsmatch::exact::sprank;
use dsmatch::graph::BipartiteGraph;

use crate::common::{against_optimum, derive, period_index, Workload};
use crate::trace::Tracer;

pub const N0: usize = 32_000;
pub const COUNT: usize = 48;
pub const DEGREE: f64 = 8.0;
pub const SPEC: &str = "scale:sk:5,two";

const STREAM_INSTANCE: u64 = 41;
const STREAM_OPS: u64 = 42;

/// The batch for `seed`: instance `k` has `N0 / (k + 1)` rows.
pub fn instances(seed: u64) -> Vec<BipartiteGraph> {
    (0..COUNT)
        .map(|k| {
            let n = N0 / (k + 1);
            dsmatch::gen::erdos_renyi_square(n, DEGREE, derive(seed, STREAM_INSTANCE, k as u64))
        })
        .collect()
}

pub struct BatchSkewed {
    seed: u64,
    pub graphs: Vec<BipartiteGraph>,
    pool: WorkspacePool,
    pub pipeline: Pipeline,
    opts: Vec<usize>,
}

impl BatchSkewed {
    /// Set-up: the 48 instance builds and the per-worker workspace pool.
    pub fn setup(seed: u64, threads: usize) -> BatchSkewed {
        BatchSkewed {
            seed,
            graphs: instances(seed),
            pool: Workspace::per_worker(threads),
            pipeline: SPEC.parse().expect("valid spec"),
            opts: Vec::new(),
        }
    }

    pub fn reference(&mut self) {
        self.opts = self.graphs.iter().map(sprank).collect();
    }

    pub fn facts(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("pipeline", Json::from(SPEC)),
            ("instances", Json::from(COUNT)),
            ("n0", Json::from(N0)),
            ("rows_total", Json::from(self.graphs.iter().map(|g| g.nrows()).sum::<usize>())),
            ("nnz_total", Json::from(self.graphs.iter().map(|g| g.nnz()).sum::<usize>())),
        ]
    }

    /// The `(instance, seed)` jobs of op `k`.
    pub fn jobs(&self, k: u64) -> Vec<(&BipartiteGraph, u64)> {
        let per_op = COUNT as u64;
        self.graphs
            .iter()
            .zip(0..)
            .map(|(g, i)| (g, derive(self.seed, STREAM_OPS, period_index(k) * per_op + i)))
            .collect()
    }
}

impl Workload for BatchSkewed {
    type Out = Vec<SolveReport>;
    const WARMUP: u64 = 3;
    const REPLAY: u64 = 10;

    /// Op `k`: one whole batch call.
    fn solve(&mut self, k: u64, tr: &Tracer) -> Vec<SolveReport> {
        let jobs = self.jobs(k);
        tr.span("batch.solve_batch", k, || self.pipeline.solve_batch(&jobs, &self.pool))
    }

    /// Every report is verified; the op's quality is the batch's minimum.
    fn check(&self, k: u64, reports: Vec<SolveReport>, tr: &Tracer) -> Result<f64, String> {
        if reports.len() != COUNT {
            return Err(format!("batch op {k}: {} reports for {COUNT} jobs", reports.len()));
        }
        let mut quality = f64::INFINITY;
        for (i, (report, g)) in reports.iter().zip(&self.graphs).enumerate() {
            let what = format!("batch op {k} instance {i}");
            tr.span("graph.verify", k, || report.matching.verify(g))
                .map_err(|e| format!("{what}: {e}"))?;
            quality =
                quality.min(against_optimum(report.cardinality(), self.opts[i], false, &what)?);
        }
        Ok(quality)
    }
}
