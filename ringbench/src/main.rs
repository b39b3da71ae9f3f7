//! `ringbench`: the selfstab benchmark.
//!
//! ```text
//! ringbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!           [--repeat R]
//! ringbench --list
//! ```
//!
//! One workload per process: `--workload all` and `--repeat` re-run this
//! binary once per workload or seed, so peak memory and set-up never
//! carry over. The last line of standard output is the result object;
//! the lines before it are for people.

mod corpus;
mod inproc;
mod oracle;
mod report;
mod serve_warm;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use serde_json::{json, Value};

use corpus::catalogue;
use report::{human, ratio, END_TO_END, PER_LAYER};
use workloads::Workload;

/// The command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: usize,
    pub list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_owned(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        repeat: 0,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--repeat" => args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--list" => args.list = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload != "all" && Workload::from_name(&args.workload).is_none() {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// The commit under test: `.git/HEAD` of the working directory resolved
/// by hand (no subprocess, nothing read outside the checkout), else
/// `unknown`.
fn commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return sha.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One workload in this process.
fn run_one(workload: Workload, args: &Args) -> ExitCode {
    // The whole run — and on serve-warm the server's pool, accept loop and
    // connection threads, which inherit the affinity — shares one CPU, the
    // last (device interrupts favour the first): the scheduler cannot
    // migrate work between CPUs mid-job, and a submitted job never waits
    // for an idle CPU to wake.
    if stats::nproc() >= 2 {
        stats::pin_current_thread(stats::nproc() - 1);
    }
    let started = Instant::now();
    let report = match workload {
        Workload::ServeWarm => serve_warm::run(args),
        _ => inproc::run(workload, args),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ringbench: {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    for e in &report.errors {
        eprintln!("ringbench: {}: wrong result: {e}", workload.name());
    }
    let info = json!({
        "workload": workload.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": stats::nproc(),
        "commit": commit(),
        "elapsed_s": started.elapsed().as_secs_f64(),
        "run": report.info.clone(),
    });
    println!("# {info}");
    for (name, unit, value) in &report.metrics {
        println!("#   {name:<32} {:>14} {unit}", human(*value));
    }
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}

/// Runs this binary as a child for one workload and seed; returns its
/// result object.
fn child(workload: Workload, seed: u64, args: &Args) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines().filter(|l| l.starts_with('#')) {
        println!("{line}");
    }
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed} exited with {}",
            workload.name(),
            out.status
        ));
    }
    stdout
        .lines()
        .last()
        .and_then(|l| serde_json::from_str(l).ok())
        .ok_or_else(|| format!("{} seed {seed} printed no result", workload.name()))
}

/// Python's `statistics.quantiles(values, n=4)` (exclusive method).
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// `--repeat R`: the steadiness report. Runs the workload R times in
/// fresh processes with seeds `seed..seed+R` and prints every metric's
/// median, quartiles and spread (IQR / median).
fn steadiness(workload: Workload, args: &Args) -> ExitCode {
    let mut results = Vec::new();
    for i in 0..args.repeat {
        match child(workload, args.seed + i as u64, args) {
            Ok(v) => results.push(v),
            Err(e) => {
                eprintln!("ringbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "# steadiness {} over {} seeds from {} ({} nproc)",
        workload.name(),
        results.len(),
        args.seed,
        stats::nproc()
    );
    println!(
        "# {:<32} {:>12} {:>12} {:>12} {:>8}",
        "metric", "q1", "median", "q3", "spread"
    );
    let mut medians = BTreeMap::new();
    for (name, unit) in names {
        let values: Vec<f64> = results
            .iter()
            .filter_map(|r| r["metrics"][*name]["value"].as_f64())
            .collect();
        let (q1, q2, q3) = quartiles(&values);
        println!(
            "# {name:<32} {:>12} {:>12} {:>12} {:>8.4}",
            human(q1),
            human(q2),
            human(q3),
            ratio(q3 - q1, q2)
        );
        medians.insert((*name).to_owned(), json!({"value": q2, "unit": *unit}));
    }
    let attempted: u64 = results.iter().filter_map(|r| r["attempted"].as_u64()).sum();
    let failed: u64 = results.iter().filter_map(|r| r["failed"].as_u64()).sum();
    println!(
        "{}",
        json!({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": Value::Object(medians)})
    );
    ExitCode::SUCCESS
}

/// `--workload all`: every workload in its own process.
fn run_all(args: &Args) -> ExitCode {
    let mut metrics = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    for workload in Workload::ALL {
        match child(workload, args.seed, args) {
            Ok(v) => {
                attempted += v["attempted"].as_u64().unwrap_or(0);
                failed += v["failed"].as_u64().unwrap_or(0);
                if let Value::Object(map) = &v["metrics"] {
                    for (name, value) in map {
                        metrics.insert(format!("{}/{name}", workload.name()), value.clone());
                    }
                }
            }
            Err(e) => {
                eprintln!("ringbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{}",
        json!({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": Value::Object(metrics)})
    );
    ExitCode::SUCCESS
}

/// `--list`: every input as the program receives it, with its class and
/// the evidence behind the class.
fn list_catalogue() -> ExitCode {
    for spec in catalogue() {
        let ks = match (spec.ks.first(), spec.ks.last()) {
            (Some(lo), Some(hi)) => format!("verified at K={lo}..{hi}"),
            _ => "synthesis only".to_owned(),
        };
        let synth = if spec.synth.is_some() {
            "; synthesis input"
        } else {
            ""
        };
        println!(
            "## {} ({}, d={}, {ks}{synth})\n# {}\n{}",
            spec.name,
            spec.class.name(),
            spec.domain,
            spec.evidence,
            spec.text
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    stats::fix_mmap_threshold();
    stats::nproc();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ringbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        return list_catalogue();
    }
    match (Workload::from_name(&args.workload), args.repeat) {
        (None, _) => run_all(&args),
        (Some(w), 0) => run_one(w, &args),
        (Some(w), _) => steadiness(w, &args),
    }
}
