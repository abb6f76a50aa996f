//! The traced per-layer sweep: spans around direct calls into each
//! layer's public functions, on the workloads' own instance shapes.
//!
//! Work counters (phases, augmentations, cardinalities) come from runs
//! whose warm starts are computed on a 1-thread pool, so they do not depend
//! on the host's parallelism.

use std::hint::black_box;
use std::time::Instant;

use dsmatch::engine::{select_finisher, AlgorithmKind, Json, Pipeline, Solver, Workspace};
use dsmatch::exact::{
    hopcroft_karp_par_ws, pothen_fan_graft_ws, pothen_fan_par_ws, push_relabel_from, sprank,
    AugmentWorkspace,
};
use dsmatch::graph::{BipartiteGraph, Matching, TripletMatrix};
use dsmatch::heur::{karp_sipser_mt_ws, two_sided_choices, KsMtScratch};
use dsmatch::scale::{sinkhorn_knopp_into, ScalingConfig, ScalingResult};
use dsmatch::weighted::{suitor, WeightedGraph};
use rayon::prelude::*;
use rayon::ThreadPool;

use crate::common::{derive, median, Args, Metric};
use crate::serve_mix::{Inputs, ServeMix, KINDS};
use crate::trace::Tracer;
use crate::{batch_skewed, exact_suite, heur_er, serve_mix};

/// Exact engines timed per family.
pub const ENGINES: [AlgorithmKind; 4] = [
    AlgorithmKind::PushRelabel,
    AlgorithmKind::PothenFanGraft,
    AlgorithmKind::PothenFanPar,
    AlgorithmKind::HopcroftKarpPar,
];

const STREAM_PROBE: u64 = 51;

pub fn pool(threads: usize) -> ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool")
}

/// The exact stage's warm start: the `scale:sk:5,two` matching at `seed`,
/// computed on a 1-thread pool.
pub fn warm_start(g: &BipartiteGraph, seed: u64) -> Matching {
    let pipeline: Pipeline = "scale:sk:5,two".parse().expect("valid spec");
    pipeline.with_seed(seed).solve(g, &mut Workspace::with_threads(1)).matching
}

/// Run a warm-started exact engine directly, in the current pool.
/// Returns the matching and the engine's phase count where it has one.
pub fn run_engine(
    kind: AlgorithmKind,
    g: &BipartiteGraph,
    init: &Matching,
    ws: &mut AugmentWorkspace,
) -> (Matching, Option<usize>, Option<usize>) {
    match kind {
        AlgorithmKind::PothenFanGraft => {
            let (m, s) = pothen_fan_graft_ws(g, Some(init), ws);
            (m, Some(s.phases), Some(s.augmentations))
        }
        AlgorithmKind::PothenFanPar => {
            let (m, s) = pothen_fan_par_ws(g, Some(init), ws);
            (m, Some(s.phases), Some(s.augmentations))
        }
        AlgorithmKind::HopcroftKarpPar => {
            let (m, s) = hopcroft_karp_par_ws(g, Some(init), ws);
            (m, Some(s.phases), Some(s.augmentations))
        }
        _ => (push_relabel_from(g, init.clone()).0, None, None),
    }
}

/// Host-independent counters of one exact family: `pf-par`'s phases and
/// augmentations from the 1-thread warm start, run on `pool`, and the rows
/// the warm start leaves unmatched.
pub fn exact_counters(g: &BipartiteGraph, init: &Matching, pool: &ThreadPool) -> [usize; 3] {
    let (m, phases, augs) = pool
        .install(|| run_engine(AlgorithmKind::PothenFanPar, g, init, &mut AugmentWorkspace::new()));
    let unmatched = g.nrows() - init.cardinality();
    black_box(m);
    [phases.unwrap_or(0), augs.unwrap_or(0), unmatched]
}

/// The two-sided choices and their Karp–Sipser matching, on `pool`.
pub fn heur_matching(g: &BipartiteGraph, seed: u64, pool: &ThreadPool) -> Matching {
    pool.install(|| {
        let mut scaling = ScalingResult::empty();
        sinkhorn_knopp_into(g, &ScalingConfig::iterations(5), &mut scaling);
        let (r, c) = two_sided_choices(g, &scaling, seed);
        karp_sipser_mt_ws(&r, &c, &mut KsMtScratch::new())
    })
}

/// Bytes one Sinkhorn–Knopp iteration moves, computed from the shape:
/// a column pass, a row pass and the error check each read the pointers
/// (8 B per row or column), the indices (4 B per nonzero) and gather one
/// factor per nonzero (8 B); the passes write one factor per row or
/// column and the check reads the column factors.
pub fn sk_iteration_bytes(g: &BipartiteGraph) -> f64 {
    let (n, nnz) = ((g.nrows() + g.ncols()) as f64 / 2.0, g.nnz() as f64);
    3.0 * (8.0 * (n + 1.0) + 12.0 * nnz) + 24.0 * n
}

struct Sweep<'a> {
    tr: &'a Tracer,
    op: u64,
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    best: Vec<(String, Json)>,
}

impl Sweep<'_> {
    /// One untimed warm call of `f`, then `reps` calls each inside a span
    /// named `name`, all inside `pool` when given. Returns the median
    /// duration of these calls in seconds.
    fn probe(
        &mut self,
        name: &str,
        reps: usize,
        pool: Option<&ThreadPool>,
        mut f: impl FnMut() + Send,
    ) -> f64 {
        let mut body = || {
            f();
            (0..reps)
                .map(|_| {
                    let t0 = Instant::now();
                    f();
                    (t0, Instant::now())
                })
                .collect::<Vec<_>>()
        };
        let marks = match pool {
            Some(p) => p.install(body),
            None => body(),
        };
        let mut times = Vec::with_capacity(marks.len());
        for (t0, t1) in marks {
            self.tr.record(name, self.op, t0, t1);
            times.push((t1 - t0).as_secs_f64());
        }
        self.op += 1;
        median(&times)
    }

    /// One call of `f` inside a span named `name`; its value and seconds.
    fn once<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.tr.record(name, self.op, t0, t1);
        self.op += 1;
        (out, (t1 - t0).as_secs_f64())
    }

    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    fn check(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    fn check_max(&mut self, what: &str, g: &BipartiteGraph, m: &Matching, opt: usize) {
        let ok = m.verify(g).map_err(|e| format!("{what}: {e}")).and_then(|()| {
            (m.cardinality() == opt)
                .then_some(())
                .ok_or_else(|| format!("{what}: cardinality {} != optimum {opt}", m.cardinality()))
        });
        self.check(ok);
    }
}

/// What the sweep measured, and the checks it made on the way.
pub struct SweepResult {
    pub metrics: Vec<Metric>,
    /// The fastest warm-started engine per suite family.
    pub best: Json,
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
}

/// Run every layer probe once; spans land in `tr`.
pub fn sweep(args: &Args, tr: &Tracer) -> SweepResult {
    let (seed, threads) = (args.seed, args.threads);
    let mut s = Sweep {
        tr,
        op: 0,
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        best: Vec::new(),
    };
    let (pool_n, pool_1) = (pool(threads), pool(1));
    let probe_seed = derive(seed, STREAM_PROBE, 0);

    // runtime: dispatch cost with a trivial body, and scope spawns.
    let g = heur_er::instance(seed);
    let mut rows = vec![0u32; g.nrows()];
    let parfor = |v: &mut Vec<u32>| v.par_iter_mut().for_each(|x| *x = x.wrapping_add(1));
    let t = s.probe("runtime.parfor", 200, Some(&pool_n), || parfor(&mut rows));
    s.put("runtime.parfor_us", t * 1e6, "us");
    let t = s.probe("runtime.parfor_t1", 200, Some(&pool_1), || parfor(&mut rows));
    s.put("runtime.parfor_us_t1", t * 1e6, "us");
    let t = s.probe("runtime.spawn", 200, Some(&pool_n), || {
        rayon::scope(|sc| (0..batch_skewed::COUNT).for_each(|_| sc.spawn(|_| {})))
    });
    s.put("runtime.spawn_us", t * 1e6, "us");

    // scale and heur on the heur-er instance.
    let sk = ScalingConfig::iterations(5);
    let mut out = ScalingResult::empty();
    let sk_n = s.probe("scale.sk5", 10, Some(&pool_n), || sinkhorn_knopp_into(&g, &sk, &mut out));
    let sk_1 =
        s.probe("scale.sk5_t1", 10, Some(&pool_1), || sinkhorn_knopp_into(&g, &sk, &mut out));
    let bytes = 5.0 * sk_iteration_bytes(&g);
    s.put("scale.sk5_ms", sk_n * 1e3, "ms");
    s.put("scale.sk5_ms_t1", sk_1 * 1e3, "ms");
    s.put("scale.speedup", sk_1 / sk_n, "x");
    s.put("scale.bytes_computed", bytes, "bytes");
    s.put("scale.gbps_computed", bytes / sk_n / 1e9, "GB/s");
    let scaling = out;
    let mut choices = (Vec::new(), Vec::new());
    let ch_n = s.probe("heur.choices", 10, Some(&pool_n), || {
        choices = two_sided_choices(&g, &scaling, probe_seed)
    });
    let ch_1 = s.probe("heur.choices_t1", 10, Some(&pool_1), || {
        choices = two_sided_choices(&g, &scaling, probe_seed)
    });
    let mut scratch = KsMtScratch::new();
    let mut heur = Matching::new(0, 0);
    let (r, c) = &choices;
    let ks_n =
        s.probe("heur.ksmt", 10, Some(&pool_n), || heur = karp_sipser_mt_ws(r, c, &mut scratch));
    let ks_1 = s.probe("heur.ksmt_t1", 10, Some(&pool_1), || {
        black_box(karp_sipser_mt_ws(r, c, &mut scratch));
    });
    s.put("heur.choices_ms", ch_n * 1e3, "ms");
    s.put("heur.choices_ms_t1", ch_1 * 1e3, "ms");
    s.put("heur.ksmt_ms", ks_n * 1e3, "ms");
    s.put("heur.ksmt_ms_t1", ks_1 * 1e3, "ms");
    let ok = heur.verify(&g).map_err(|e| format!("heur probe: {e}"));
    s.check(ok);
    s.put("heur.cardinality", heur_matching(&g, probe_seed, &pool_n).cardinality() as f64, "count");

    // engine: Pipeline::solve minus the kernels it runs, called directly
    // for the same op right after it, both at heur-er's thread count; the
    // median of the paired differences.
    let pipeline: Pipeline = heur_er::SPEC.parse().expect("valid spec");
    let mut ws = Workspace::with_threads(heur_er::THREADS);
    let pool_op = pool(heur_er::THREADS);
    let mut scaling = scaling;
    let mut overheads = Vec::new();
    for rep in 0..=10 {
        let (_, solve) = s.once("engine.solve", || {
            black_box(pipeline.clone().with_seed(probe_seed).solve(&g, &mut ws))
        });
        let (_, kernels) = s.once("engine.kernels", || {
            pool_op.install(|| {
                sinkhorn_knopp_into(&g, &sk, &mut scaling);
                let (r, c) = two_sided_choices(&g, &scaling, probe_seed);
                black_box(karp_sipser_mt_ws(&r, &c, &mut scratch))
            })
        });
        // Rep 0 warms both paths.
        if rep > 0 {
            overheads.push(solve - kernels);
        }
    }
    s.put("engine.overhead_ms", median(&overheads) * 1e3, "ms");

    // graph: CSR build from triplets at heur-er size.
    let mut builds = Vec::new();
    for _ in 0..3 {
        let mut t = TripletMatrix::with_capacity(g.nrows(), g.ncols(), g.nnz());
        g.csr().iter_entries().for_each(|(i, j)| t.push(i, j));
        builds.push(s.once("graph.csr_build", || black_box(t.into_csr())).1);
    }
    s.put("graph.csr_build_s", median(&builds), "s");
    drop((g, rows, scaling, choices, heur, ws, pool_op));

    // gen and exact on the exact-suite surrogates; engines run at
    // exact-suite's thread count, the counters on both pools.
    let pool_exact = pool(exact_suite::THREADS);
    let (graphs, suite_s) = s.once("gen.suite", || exact_suite::instances(seed));
    s.put("gen.suite_s", suite_s, "s");
    for (f, g) in exact_suite::FAMILIES.iter().zip(&graphs) {
        let opt = sprank(g);
        let init = warm_start(g, probe_seed);
        let [phases, augs, unmatched] = exact_counters(g, &init, &pool_n);
        let mut aws = AugmentWorkspace::new();
        let mut times = Vec::new();
        for kind in ENGINES {
            let mut last = Matching::new(0, 0);
            let name = format!("exact.{f}.{}", kind.name().replace('-', "_"));
            let t = s.probe(&name, 3, Some(&pool_exact), || {
                last = run_engine(kind, g, &init, &mut aws).0
            });
            s.check_max(&name, g, &last, opt);
            s.put(format!("{name}_ms"), t * 1e3, "ms");
            times.push(t);
        }
        let mut last = Matching::new(0, 0);
        let auto = s.probe(&format!("exact.{f}.auto"), 3, Some(&pool_exact), || {
            last = run_engine(select_finisher(g), g, &init, &mut aws).0
        });
        s.check_max(&format!("exact.{f}.auto"), g, &last, opt);
        let (best, best_t) =
            times.iter().copied().enumerate().min_by(|a, b| a.1.total_cmp(&b.1)).expect("engines");
        s.best.push((f.to_string(), Json::from(ENGINES[best].name())));
        s.put(format!("exact.{f}.auto_ms"), auto * 1e3, "ms");
        s.put(format!("exact.{f}.best_ms"), best_t * 1e3, "ms");
        s.put(format!("exact.{f}.auto_regret"), auto / best_t, "x");
        s.put(format!("exact.{f}.phases"), phases as f64, "count");
        s.put(format!("exact.{f}.augmentations"), augs as f64, "count");
        s.put(format!("exact.{f}.unmatched_in"), unmatched as f64, "count");
    }
    drop(graphs);

    // gen, json, graph, weighted at serve-mix shapes.
    let inputs = Inputs::new(seed, serve_mix::CLIENTS);
    let reference = serve_mix::Reference::new(seed, &inputs);
    let t = s.probe("gen.er", 10, None, || {
        black_box(dsmatch::gen::erdos_renyi_square(serve_mix::MISS_N, 4.0, probe_seed));
    });
    s.put("gen.er_ms", t * 1e3, "ms");
    for (kind, line) in serve_mix::sample_lines(seed, &inputs, &reference) {
        let t = s.probe(&format!("json.parse.{kind}"), 30, None, || {
            black_box(dsmatch::engine::Json::parse(&line).expect("job lines parse"));
        });
        s.put(format!("json.parse_us.{kind}"), t * 1e6, "us");
    }
    let read: Pipeline = "scale:sk:5,two,auto".parse().expect("valid spec");
    let report =
        read.with_seed(probe_seed).solve(&reference.shared[0], &mut Workspace::with_threads(1));
    let t = s.probe("json.encode", 200, None, || {
        black_box(report.to_json().to_string());
    });
    s.put("json.encode_us", t * 1e6, "us");
    let t = s.probe("graph.verify", 50, None, || {
        black_box(report.matching.verify(&reference.shared[0])).expect("solver matchings verify");
    });
    s.put("graph.verify_ms", t * 1e3, "ms");
    let (base, edges) = (&reference.client_base[0], &reference.deltas[0]);
    let t = s.probe("graph.patch", 50, None, || {
        black_box(base.csr().patched(edges, &[]));
    });
    s.put("graph.patch_ms", t * 1e3, "ms");
    let mut scaling = ScalingResult::empty();
    sinkhorn_knopp_into(&reference.shared[0], &sk, &mut scaling);
    let wg = weighted_view(&reference.shared[0], &scaling);
    let t = s.probe("weighted.suitor", 10, None, || {
        black_box(suitor(&wg));
    });
    s.put("weighted.suitor_ms", t * 1e3, "ms");
    drop((reference, report, wg));

    // serve: a short traced session of the serve-mix traffic.
    match ServeMix::setup(args, inputs, 100) {
        Ok(mut mix) => {
            mix.reference();
            let run = mix.run(serve_mix::WARMUP, None, 50, tr);
            for (kind, lat) in KINDS.iter().zip(run.jobs.by_kind()) {
                s.put(format!("serve.{kind}.p50_ms"), median(&lat) * 1e3, "ms");
            }
            s.put("serve.outside_stages_ms", median(&run.outside_stages) * 1e3, "ms");
            s.put("serve.rejects", run.rejects as f64, "count");
            s.attempted += run.run.attempted;
            s.failed += run.run.failed;
            s.errors.extend(run.run.errors);
            match mix.finish() {
                Ok(summary) => {
                    s.put("serve.summary_ok", summary.ok as f64, "count");
                    s.put("serve.summary_errors", summary.errors as f64, "count");
                }
                Err(e) => s.check(Err(e)),
            }
        }
        Err(e) => s.check(Err(e)),
    }

    // batch: per-instance 1-thread solves against the batch call.
    let graphs = batch_skewed::instances(seed);
    let pipeline: Pipeline = batch_skewed::SPEC.parse().expect("valid spec");
    let mut ws1 = Workspace::with_threads(1);
    let mut solo = Vec::with_capacity(graphs.len());
    for g in &graphs {
        black_box(pipeline.clone().with_seed(probe_seed).solve(g, &mut ws1));
    }
    for g in &graphs {
        let (_, t) = s.once("batch.instance_t1", || {
            black_box(pipeline.clone().with_seed(probe_seed).solve(g, &mut ws1))
        });
        solo.push(t);
    }
    let wsp = Workspace::per_worker(threads);
    let jobs: Vec<(&BipartiteGraph, u64)> = graphs.iter().map(|g| (g, probe_seed)).collect();
    let wall = s.probe("batch.solve_batch", 10, None, || {
        black_box(pipeline.solve_batch(&jobs, &wsp));
    });
    let total: f64 = solo.iter().sum();
    s.put("batch.efficiency", total / (threads as f64 * wall), "ratio");
    s.put("batch.largest_share", solo[0] / total, "ratio");

    SweepResult {
        metrics: s.metrics,
        best: Json::Obj(s.best),
        attempted: s.attempted,
        failed: s.failed,
        errors: s.errors,
    }
}

/// The instance with its scaling entries as edge weights, the weighted
/// pipelines' view of it.
fn weighted_view(g: &BipartiteGraph, scaling: &ScalingResult) -> WeightedGraph {
    let mut edges = Vec::with_capacity(g.nnz());
    for (i, j) in g.csr().iter_entries() {
        let w = scaling.entry(i, j);
        let w = if w.is_finite() && w > 0.0 { w } else { f64::MIN_POSITIVE };
        edges.push((i, g.nrows() + j, w));
    }
    WeightedGraph::from_weighted_edges(g.nrows() + g.ncols(), &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::nproc;

    /// The counters the sweep reports must not depend on the pool size.
    #[test]
    fn work_counters_are_identical_at_pools_1_and_nproc() {
        let threads = nproc().max(2);
        let (p1, pn) = (pool(1), pool(threads));
        let entries = dsmatch::gen::suite::instances();
        for name in exact_suite::FAMILIES {
            let e = entries.iter().find(|e| e.name == name).expect("family");
            let g = e.build(20_000, 7);
            let init = warm_start(&g, 3);
            assert_eq!(exact_counters(&g, &init, &p1), exact_counters(&g, &init, &pn), "{name}");
        }
        let g = dsmatch::gen::erdos_renyi_square(20_000, 8.0, 5);
        assert_eq!(
            heur_matching(&g, 9, &p1).cardinality(),
            heur_matching(&g, 9, &pn).cardinality()
        );
    }
}
