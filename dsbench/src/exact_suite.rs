//! `exact-suite`: one caller runs `scale:sk:5,two,auto` on four
//! `gen::suite` surrogates in turn, through a 1-thread workspace. The
//! exact finisher takes most of each solve, and `auto`'s pick is not the
//! fastest engine on every family.
//!
//! One op is a pass over the four families: the families' solve times
//! differ by up to 2x, and a median over single solves would fall between
//! two families' times, where it jumps with either family's tail.

use dsmatch::engine::{Json, Pipeline, SolveReport, Solver, Workspace};
use dsmatch::exact::sprank;
use dsmatch::graph::BipartiteGraph;

use crate::common::{against_optimum, derive, period_index, Workload};
use crate::trace::Tracer;

/// Surrogate families: regular, sprank-deficient road, mesh, heavy-tailed.
pub const FAMILIES: [&str; 4] = ["hugebubbles", "road_usa", "venturiLevel3", "kkt_power"];
pub const N: usize = 50_000;
pub const SPEC: &str = "scale:sk:5,two,auto";
/// Workspace threads; see `heur_er::THREADS`.
pub const THREADS: usize = 1;

const STREAM_INSTANCE: u64 = 21;
const STREAM_OPS: u64 = 22;

/// The four surrogates for `seed`, in [`FAMILIES`] order.
pub fn instances(seed: u64) -> Vec<BipartiteGraph> {
    let entries = dsmatch::gen::suite::instances();
    FAMILIES
        .iter()
        .zip(0u64..)
        .map(|(name, k)| {
            let entry = entries.iter().find(|e| e.name == *name).expect("suite family exists");
            entry.build(N, derive(seed, STREAM_INSTANCE, k))
        })
        .collect()
}

pub struct ExactSuite {
    seed: u64,
    pub graphs: Vec<BipartiteGraph>,
    ws: Workspace,
    pipeline: Pipeline,
    opts: Vec<usize>,
}

impl ExactSuite {
    /// Set-up: the four surrogate builds and the workspace with its pool.
    pub fn setup(seed: u64) -> ExactSuite {
        ExactSuite {
            seed,
            graphs: instances(seed),
            ws: Workspace::with_threads(THREADS),
            pipeline: SPEC.parse().expect("valid spec"),
            opts: Vec::new(),
        }
    }

    pub fn reference(&mut self) {
        self.opts = self.graphs.iter().map(sprank).collect();
    }

    pub fn facts(&self) -> Vec<(&'static str, Json)> {
        let shape = |f: fn(&BipartiteGraph) -> usize| {
            Json::Arr(self.graphs.iter().map(|g| Json::from(f(g))).collect())
        };
        vec![
            ("pipeline", Json::from(SPEC)),
            ("threads", Json::from(THREADS)),
            ("families", Json::Arr(FAMILIES.iter().map(|f| Json::from(*f)).collect())),
            ("n", shape(BipartiteGraph::nrows)),
            ("nnz", shape(BipartiteGraph::nnz)),
            ("optimum", Json::Arr(self.opts.iter().map(|&o| Json::from(o)).collect())),
        ]
    }
}

impl Workload for ExactSuite {
    type Out = Vec<SolveReport>;
    const WARMUP: u64 = 2;
    const REPLAY: u64 = 10;

    /// Op `k`: one exact solve on each family, in [`FAMILIES`] order.
    fn solve(&mut self, k: u64, tr: &Tracer) -> Vec<SolveReport> {
        let families = FAMILIES.len() as u64;
        let (ws, pipeline) = (&mut self.ws, &self.pipeline);
        (self.graphs.iter().zip(0..))
            .map(|(g, f)| {
                let seed = derive(self.seed, STREAM_OPS, period_index(k) * families + f);
                tr.span("engine.solve", k, || pipeline.clone().with_seed(seed).solve(g, ws))
            })
            .collect()
    }

    /// Every solve must reach its family's optimum.
    fn check(&self, k: u64, reports: Vec<SolveReport>, tr: &Tracer) -> Result<f64, String> {
        if reports.len() != FAMILIES.len() {
            return Err(format!("exact-suite op {k}: {} reports", reports.len()));
        }
        for (f, report) in reports.iter().enumerate() {
            let what = format!("exact-suite op {k} ({})", FAMILIES[f]);
            tr.span("graph.verify", k, || report.matching.verify(&self.graphs[f]))
                .map_err(|e| format!("{what}: {e}"))?;
            against_optimum(report.cardinality(), self.opts[f], true, &what)?;
        }
        Ok(1.0)
    }
}
