//! `dsbench`: the dsmatch benchmark.
//!
//! Four closed-loop workloads drive the public API (`Pipeline::solve`,
//! `Pipeline::solve_batch`, `serve_unix_socket`) from one process each and
//! check every op's output. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` replays the workload with spans on and runs the per-layer
//! sweep. See README.md in this directory.

mod batch_skewed;
mod common;
mod exact_suite;
mod heur_er;
mod layers;
mod repeat;
mod serve_mix;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use common::{
    closed_loop, median, print_facts, replay, result_line, timed_reps, Args, Metric, Run,
};
use dsmatch::engine::Json;
use serve_mix::{Inputs, ServeMix};
use trace::Tracer;

const USAGE: &str = "usage: dsbench --workload <heur-er|exact-suite|serve-mix|batch-skewed|all> \
--seed <n> --seconds <s> --trace <0|1> [--repeat <k>]";

/// A single-workload run that takes longer than this has hung: it exits
/// with an error instead of printing a result.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Set-up repetitions; `setup_s` is their median. Half run before the
/// timed window and half after it: the host has slow spells lasting a few
/// seconds, and spreading the set-ups over the run keeps one spell from
/// moving the median.
const SETUP_REPS: usize = 16;

/// One workload's state between set-up and teardown.
enum Bench {
    Heur(heur_er::HeurEr),
    Exact(exact_suite::ExactSuite),
    Serve(ServeMix),
    Batch(batch_skewed::BatchSkewed),
}

impl Bench {
    fn setup(args: &Args, inputs: Option<Inputs>, rep: usize) -> Result<Bench, String> {
        let (seed, threads) = (args.seed, args.threads);
        Ok(match args.workload.as_str() {
            "heur-er" => Bench::Heur(heur_er::HeurEr::setup(seed)),
            "exact-suite" => Bench::Exact(exact_suite::ExactSuite::setup(seed)),
            "batch-skewed" => Bench::Batch(batch_skewed::BatchSkewed::setup(seed, threads)),
            _ => Bench::Serve(ServeMix::setup(args, inputs.expect("serve-mix inputs"), rep)?),
        })
    }

    fn reference(&mut self) {
        match self {
            Bench::Heur(w) => w.reference(),
            Bench::Exact(w) => w.reference(),
            Bench::Serve(w) => w.reference(),
            Bench::Batch(w) => w.reference(),
        }
    }

    fn facts(&self) -> Vec<(&'static str, Json)> {
        match self {
            Bench::Heur(w) => w.facts(),
            Bench::Exact(w) => w.facts(),
            Bench::Serve(w) => w.facts(),
            Bench::Batch(w) => w.facts(),
        }
    }

    /// Warm-up, then the timed window. For `serve-mix`, also every timed
    /// job's latency and kind.
    fn measure(&mut self, window: Duration) -> (Run, Option<Run>) {
        match self {
            Bench::Heur(w) => (closed_loop(w, window), None),
            Bench::Exact(w) => (closed_loop(w, window), None),
            Bench::Batch(w) => (closed_loop(w, window), None),
            Bench::Serve(w) => {
                let off = Tracer::new(false, Instant::now());
                let mix = w.run(serve_mix::WARMUP, Some(window), 0, &off);
                (mix.run, Some(mix.jobs))
            }
        }
    }

    /// The traced run's replay: warm-up, then the same ops untraced and
    /// traced, interleaved so drift in the host's speed hits both alike —
    /// op by op for the library workloads, in untraced-traced-traced-
    /// untraced blocks for `serve-mix`. Returns the untraced and traced
    /// runs.
    fn replay_pair(&mut self, tr: &Tracer) -> (Run, Run) {
        match self {
            Bench::Heur(w) => replay(w, tr),
            Bench::Exact(w) => replay(w, tr),
            Bench::Batch(w) => replay(w, tr),
            Bench::Serve(w) => {
                let off = Tracer::new(false, Instant::now());
                let (mut plain, mut traced) = (Run::new(), Run::new());
                for on in [false, true, true, false] {
                    let (tracer, into) = if on { (tr, &mut traced) } else { (&off, &mut plain) };
                    into.merge(w.run(serve_mix::WARMUP, None, serve_mix::REPLAY, tracer).run);
                }
                (plain, traced)
            }
        }
    }

    fn finish(self) -> Result<(), String> {
        match self {
            Bench::Serve(w) => w.finish().map(drop),
            _ => Ok(()),
        }
    }
}

/// Metrics, op counts and failures of one run.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

fn serve_inputs(args: &Args, copies: usize) -> Vec<Inputs> {
    if args.workload != "serve-mix" {
        return Vec::new();
    }
    let inputs = Inputs::new(args.seed, serve_mix::CLIENTS);
    vec![inputs; copies]
}

/// The end-to-end run: half the set-ups, reference optima off the clock,
/// warm-up, the timed window, then the other half of the set-ups.
fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let mut inputs = serve_inputs(args, SETUP_REPS);
    let mut rep = 0;
    let mut setup = || {
        rep += 1;
        Bench::setup(args, inputs.pop(), rep)
    };
    let (mut bench, mut setup_times) = timed_reps(SETUP_REPS / 2, &mut setup)?;
    bench.reference();
    let ticks = common::cpu_ticks();
    let (run, jobs) = bench.measure(args.window());
    let steal = common::steal_pct(ticks, common::cpu_ticks());
    print_facts(&args.workload, args, {
        let mut facts = bench.facts();
        facts.push(("timed_ops", Json::from(run.latencies.len())));
        facts.push(("window_s", Json::from(run.window_s)));
        facts.push(("steal_pct", Json::from(steal)));
        // Facts, not gated metrics: on a shared host the tail follows the
        // hypervisor's steal more than the code.
        let ms = |xs: &[f64], q| Json::from(common::quantile(xs, q) * 1e3);
        facts.push(("latency_p90_ms", ms(&run.latencies, 0.9)));
        facts.push(("latency_p99_ms", ms(&run.latencies, 0.99)));
        if let Some(jobs) = &jobs {
            facts.push(("timed_jobs", Json::from(jobs.latencies.len())));
            facts.push(("job_latency_p99_ms", ms(&jobs.latencies, 0.99)));
            let by_kind = |q| Json::Arr(jobs.by_kind().iter().map(|l| ms(l, q)).collect());
            facts.push(("job_p50_ms_by_kind", by_kind(0.5)));
            facts.push(("job_p90_ms_by_kind", by_kind(0.9)));
        }
        facts
    });
    bench.finish()?;
    let peak_rss_mb = common::peak_rss_mb();
    setup_times.extend(timed_reps(SETUP_REPS / 2, &mut setup)?.1);
    Ok(Outcome {
        metrics: run.end_to_end(median(&setup_times), peak_rss_mb),
        attempted: run.attempted,
        failed: run.failed,
        errors: run.errors,
    })
}

/// The traced run: the workload's replay (for `trace.overhead`), then the
/// per-layer sweep. Spans are written to `dsbench-trace/` at the end.
fn traced(args: &Args) -> Result<Outcome, String> {
    let tr = Tracer::new(true, Instant::now());
    let mut bench = Bench::setup(args, serve_inputs(args, 1).pop(), 0)?;
    bench.reference();
    let (plain, traced) = bench.replay_pair(&tr);
    print_facts(&args.workload, args, {
        let mut facts = bench.facts();
        facts.push(("replay_ops", Json::from(plain.latencies.len())));
        facts
    });
    bench.finish()?;
    let overhead = common::median(&traced.latencies) / common::median(&plain.latencies) - 1.0;

    let sweep = layers::sweep(args, &tr);
    println!("{}", Json::obj(vec![("exact_best_engine", sweep.best)]));
    let mut metrics = sweep.metrics;
    metrics.push(Metric::new("trace.overhead", overhead, "ratio"));
    let path = PathBuf::from(format!("dsbench-trace/{}-seed{}.jsonl", args.workload, args.seed));
    tr.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("dsbench: {} spans written to {}", tr.len(), path.display());
    let mut errors = plain.errors;
    errors.extend(traced.errors);
    errors.extend(sweep.errors);
    Ok(Outcome {
        metrics,
        attempted: plain.attempted + traced.attempted + sweep.attempted,
        failed: plain.failed + traced.failed + sweep.failed,
        errors,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dsbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" || args.repeat > 1 {
        std::process::exit(repeat::run(&args));
    }
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("dsbench: no result after {} s; an op hung", WATCHDOG.as_secs());
        std::process::exit(1);
    });
    let outcome = if args.trace { traced(&args) } else { end_to_end(&args) };
    match outcome {
        Ok(o) => {
            for e in &o.errors {
                eprintln!("dsbench: check failed: {e}");
            }
            let correct = o.failed == 0;
            println!("{}", result_line(correct, o.attempted, o.failed, &o.metrics));
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("dsbench: {e}");
            std::process::exit(1);
        }
    }
}
