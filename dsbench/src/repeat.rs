//! Multi-process modes: `--workload all` runs every workload, each in its
//! own process; `--repeat k` runs a workload `k` times with seeds
//! `seed, seed+1, …` and prints each metric's median, quartiles and
//! spread `(q3 − q1) / median`, the figure the bounds in BENCHMARK.json
//! are set from.

use std::process::Command;

use dsmatch::engine::Json;

use crate::common::{Args, WORKLOADS};

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` gives them (the
/// default exclusive method). Needs at least two values.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Run one child process; its result line, or why it failed.
fn child(args: &Args, workload: &str, seed: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    for line in stdout.lines() {
        println!("{workload} seed {seed}: {line}");
    }
    if !out.status.success() {
        return Err(format!("{workload} seed {seed} exited with {}", out.status));
    }
    let last = stdout.lines().last().ok_or("no output")?;
    Json::parse(last).map_err(|e| format!("{workload} seed {seed}: bad result line: {e}"))
}

/// `(name, value, unit)` of every metric in a result line.
fn metrics(result: &Json) -> Vec<(String, f64, String)> {
    match result.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                (name.clone(), value, unit.to_string())
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Run the requested workloads `args.repeat` times each; returns the exit
/// code (non-zero when any child failed).
pub fn run(args: &Args) -> i32 {
    let workloads: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let mut code = 0;
    for workload in workloads {
        let mut runs = Vec::new();
        for r in 0..args.repeat as u64 {
            match child(args, workload, args.seed + r) {
                Ok(result) => runs.push(metrics(&result)),
                Err(e) => {
                    eprintln!("dsbench: {e}");
                    code = 1;
                }
            }
        }
        let Some(first) = runs.first() else { continue };
        println!("== {workload}: {} run(s)", runs.len());
        for (i, (name, _, unit)) in first.iter().enumerate() {
            let values: Vec<f64> = runs.iter().filter_map(|r| r.get(i).map(|m| m.1)).collect();
            if values.len() < 2 {
                println!("{name:<36} {:>14.6} {unit}", values[0]);
                continue;
            }
            let [q1, q2, q3] = quartiles(&values);
            let spread = (q3 - q1) / q2;
            println!(
                "{name:<36} median {q2:>14.6} {unit:<6} q1 {q1:>14.6} q3 {q3:>14.6} spread {spread:.4}"
            );
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }
}
