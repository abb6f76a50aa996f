//! Shared plumbing: command-line arguments, seed derivation, order
//! statistics, host facts and the result line.

use std::time::{Duration, Instant};

use dsmatch::engine::Json;
use dsmatch::graph::SplitMix64;

use crate::trace::Tracer;

/// The four workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["heur-er", "exact-suite", "serve-mix", "batch-skewed"];

/// Seed used while the benchmark and the changes it judges are developed.
pub const DEV_SEED: u64 = 1;
/// Seed kept out of development, for validating a claimed gain.
pub const HELDOUT_SEED: u64 = 9001;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// A name from [`WORKLOADS`], or `all`.
    pub workload: String,
    /// Every instance and op seed derives from this one.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// `true`: the traced per-layer run instead of the end-to-end run.
    pub trace: bool,
    /// `k > 1`: run the workload `k` times, each in its own process with
    /// seeds `seed, seed+1, …`, and print each metric's spread.
    pub repeat: usize,
    /// Worker threads: `nproc`.
    pub threads: usize,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>
    /// [--repeat <k>]`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: DEV_SEED,
            seconds: 10.0,
            trace: false,
            repeat: 1,
            threads: nproc(),
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    }
                }
                "--repeat" => args.repeat = value.parse().map_err(|_| bad())?,
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {} or all, got {:?}",
                WORKLOADS.join(", "),
                args.workload
            ));
        }
        if !(args.seconds.is_finite() && args.seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        if args.repeat == 0 {
            return Err("--repeat must be at least 1".into());
        }
        Ok(args)
    }

    /// The timed window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Host parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// A seed for item `k` of stream `stream`, derived from the run seed.
pub fn derive(seed: u64, stream: u64, k: u64) -> u64 {
    let mut rng = SplitMix64::stream(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15), k);
    rng.next_u64()
}

/// Quantile `q` of `xs` (need not be sorted), interpolated linearly
/// between the two nearest order statistics. Empty input gives NaN.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Wall time of each of `reps` calls of `build`, and the last call's
/// value. Each value is dropped before the next call; an error ends the
/// repetitions.
pub fn timed_reps<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one repetition"), times))
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host CPU ticks stolen by the hypervisor and ticks in total, summed
/// over all CPUs (`/proc/stat`); zeros where unavailable.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| l.split_whitespace().filter_map(|f| f.parse().ok()).collect())
        .unwrap_or_default();
    (fields.get(7).copied().unwrap_or(0), fields.iter().take(8).sum())
}

/// Share of CPU time the hypervisor stole between two [`cpu_ticks`]
/// readings, in percent.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// Op seeds repeat with this period, and `quality_min` is the minimum
/// over ops `0..OP_PERIOD` (jobs, per client, on `serve-mix`). Every run
/// completes those ops, off the clock when the window ends first, so
/// `quality_min` depends on the seed only, not on how many ops fit in the
/// window. A multiple of the five serve job kinds, so that the period ends
/// on a whole block.
pub const OP_PERIOD: u64 = 40;

/// Index of op `k`'s seed within the period.
pub fn period_index(k: u64) -> u64 {
    k % OP_PERIOD
}

/// Timed ops of one closed-loop run and their checks.
#[derive(Clone, Debug, Default)]
pub struct Run {
    /// Latency of every timed op, seconds.
    pub latencies: Vec<f64>,
    /// Kind of every timed op (`serve-mix` job kind; 0 for the other
    /// workloads' ops), parallel to `latencies`.
    pub kinds: Vec<usize>,
    /// Clock time the timed ops' throughput is taken over: the time spent
    /// in the program's calls for one caller, the wall window for several.
    pub window_s: f64,
    /// Ops issued, warm-up included (every one is checked).
    pub attempted: usize,
    /// Ops whose output failed a check.
    pub failed: usize,
    /// Minimum of cardinality / optimum over the checked ops `0..OP_PERIOD`.
    pub quality_min: f64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Run {
    pub fn new() -> Run {
        Run { quality_min: f64::INFINITY, ..Run::default() }
    }

    /// Record op `k`'s check outcome.
    pub fn check(&mut self, k: u64, outcome: Result<f64, String>) {
        self.attempted += 1;
        match outcome {
            Ok(q) if k < OP_PERIOD => self.quality_min = self.quality_min.min(q),
            Ok(_) => {}
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(e);
                }
            }
        }
    }

    /// Fold another caller's run into this one (closed loops with several
    /// callers).
    pub fn merge(&mut self, other: Run) {
        self.latencies.extend(other.latencies);
        self.kinds.extend(other.kinds);
        self.window_s = self.window_s.max(other.window_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.quality_min = self.quality_min.min(other.quality_min);
        self.errors.extend(other.errors);
    }

    /// Timed latencies of each op kind, in kind order.
    pub fn by_kind(&self) -> Vec<Vec<f64>> {
        let kinds = self.kinds.iter().max().map_or(0, |k| k + 1);
        let mut out = vec![Vec::new(); kinds];
        for (&lat, &kind) in self.latencies.iter().zip(&self.kinds) {
            out[kind].push(lat);
        }
        out
    }

    /// Record one timed op of `kind` that took `latency`.
    pub fn time(&mut self, latency: f64, kind: usize) {
        self.latencies.push(latency);
        self.kinds.push(kind);
    }

    /// The end-to-end metrics every workload reports.
    pub fn end_to_end(&self, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
        let ms = |q: f64| quantile(&self.latencies, q) * 1e3;
        vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("throughput_ops_s", self.latencies.len() as f64 / self.window_s, "ops/s"),
            Metric::new("latency_p50_ms", ms(0.5), "ms"),
            Metric::new("quality_min", self.quality_min, "ratio"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    }
}

/// A library workload as the closed loop drives it: `solve` is the timed
/// call into the program, `check` judges its output off the clock.
pub trait Workload {
    /// What one op's call returns.
    type Out;
    /// Untimed ops before the window.
    const WARMUP: u64;
    /// Ops in the traced run's replay.
    const REPLAY: u64;
    /// Op `k`: the call into the program.
    fn solve(&mut self, k: u64, tr: &Tracer) -> Self::Out;
    /// Op `k`'s output checked: cardinality / optimum, or what is wrong.
    fn check(&self, k: u64, out: Self::Out, tr: &Tracer) -> Result<f64, String>;
}

/// Op `k`, untimed, with its check.
fn untimed_op<W: Workload>(w: &mut W, run: &mut Run, k: u64, tr: &Tracer) {
    let out = w.solve(k, tr);
    run.check(k, w.check(k, out, tr));
}

/// Op `k` with its call timed; the check runs after the clock stops.
fn timed_op<W: Workload>(w: &mut W, run: &mut Run, k: u64, tr: &Tracer) {
    let t0 = Instant::now();
    let out = w.solve(k, tr);
    let latency = t0.elapsed().as_secs_f64();
    run.time(latency, 0);
    run.window_s += latency;
    run.check(k, w.check(k, out, tr));
}

/// Closed loop with one caller: `W::WARMUP` untimed ops, then ops until
/// `window` has passed, then untimed ops up to `OP_PERIOD` if the window
/// ended first. Every op is checked.
pub fn closed_loop<W: Workload>(w: &mut W, window: Duration) -> Run {
    let off = Tracer::new(false, Instant::now());
    let mut run = Run::new();
    (0..W::WARMUP).for_each(|k| untimed_op(w, &mut run, k, &off));
    let deadline = Instant::now() + window;
    let mut k = W::WARMUP;
    while Instant::now() < deadline {
        timed_op(w, &mut run, k, &off);
        k += 1;
    }
    (k..OP_PERIOD).for_each(|k| untimed_op(w, &mut run, k, &off));
    run
}

/// The traced run's replay: warm-up, then `W::REPLAY` ops untraced and
/// traced, interleaved op by op so drift in the host's speed hits both
/// alike. Returns the untraced and traced runs.
pub fn replay<W: Workload>(w: &mut W, tr: &Tracer) -> (Run, Run) {
    let off = Tracer::new(false, Instant::now());
    let (mut plain, mut traced) = (Run::new(), Run::new());
    (0..W::WARMUP).for_each(|k| untimed_op(w, &mut plain, k, &off));
    for k in W::WARMUP..W::WARMUP + W::REPLAY {
        timed_op(w, &mut plain, k, &off);
        timed_op(w, &mut traced, k, tr);
    }
    (plain, traced)
}

/// Cardinality check against a known optimum: exact pipelines must reach
/// it, heuristics must not exceed it. Returns cardinality / optimum.
pub fn against_optimum(card: usize, opt: usize, exact: bool, what: &str) -> Result<f64, String> {
    if card > opt || (exact && card != opt) {
        return Err(format!("{what}: cardinality {card}, optimum {opt}"));
    }
    Ok(if opt == 0 { 1.0 } else { card as f64 / opt as f64 })
}

/// Print host facts (one JSON line, before the result line).
pub fn print_facts(workload: &str, args: &Args, mut facts: Vec<(&str, Json)>) {
    let mut pairs = vec![
        ("facts", Json::from(workload)),
        ("nproc", Json::from(nproc())),
        ("seed", Json::from(args.seed)),
        ("dev_seed", Json::from(DEV_SEED)),
        ("heldout_seed", Json::from(HELDOUT_SEED)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::from(args.trace)),
    ];
    pairs.append(&mut facts);
    println!("{}", Json::obj(pairs));
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let doc = Json::obj(vec![("value", Json::Num(m.value)), ("unit", Json::from(m.unit))]);
            (m.name.clone(), doc)
        })
        .collect::<Vec<_>>();
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.5);
        assert!((quantile(&xs, 0.9) - 90.1).abs() < 1e-9);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_index() {
        assert_ne!(derive(1, 0, 0), derive(1, 1, 0));
        assert_ne!(derive(1, 0, 0), derive(1, 0, 1));
        assert_eq!(derive(7, 3, 5), derive(7, 3, 5));
    }
}
