//! End-to-end benchmark of the served WOLVES loop.
//!
//! Each run starts an in-process server on loopback TCP (the default
//! thread-pool engine with two shards and two workers), sets it up, drives
//! one workload from two closed-loop client connections for `--seconds`,
//! checks every answer against a from-scratch oracle and prints one JSON
//! result line. `--trace 1` replaces the end-to-end metrics with the
//! per-layer metrics of the traced ladder (see `trace.rs`).
//!
//! ```text
//! perfbench --workload <serve-read|edit-revalidate|correct-audit>
//!           [--seed N] [--seconds S] [--trace 0|1]
//!           [--repeat K]      # K runs on seeds N..N+K, medians and quartiles
//!           [--self-check]    # a corrupted expected answer must fail the run
//! ```

mod common;
mod correct_audit;
mod edit_revalidate;
mod repeat;
mod serve_read;
mod steps;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;

use common::Outcome;

/// The benchmark's workloads, by their command-line names.
pub const WORKLOADS: [&str; 3] = ["serve-read", "edit-revalidate", "correct-audit"];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Corrupt one expected answer (the oracle self-check).
    pub corrupt: bool,
}

/// Where a traced run writes its spans.
pub fn spans_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(".perfbench")
        .join("spans")
        .join(format!("{workload}-seed{seed}.tsv"))
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--repeat K] [--self-check]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let at = args.iter().position(|a| a == flag)?;
    match args.get(at + 1).map(|v| v.parse::<T>()) {
        Some(Ok(v)) => Some(v),
        _ => usage(),
    }
}

fn run(cfg: &RunConfig) -> Outcome {
    let outcome = match cfg.workload.as_str() {
        "serve-read" => serve_read::run(cfg),
        "edit-revalidate" => edit_revalidate::run(cfg),
        "correct-audit" => correct_audit::run(cfg),
        _ => usage(),
    };
    let _ = std::fs::remove_dir_all(PathBuf::from(".perfbench").join("tmp"));
    outcome
}

/// The result line: `correct`, `attempted`, `failed` and every metric with
/// its unit, at full precision.
fn result_line(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (index, metric) in outcome.metrics.iter().enumerate() {
        if index > 0 {
            metrics.push_str(", ");
        }
        let value = if metric.value.is_finite() {
            metric.value
        } else {
            0.0
        };
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    let workload: String = value(&args, "--workload").unwrap_or_else(|| usage());
    if !WORKLOADS.contains(&workload.as_str()) {
        usage();
    }
    let mut cfg = RunConfig {
        workload,
        seed: value(&args, "--seed").unwrap_or(1),
        seconds: value(&args, "--seconds").unwrap_or(10.0),
        trace: value::<u8>(&args, "--trace").unwrap_or(0) == 1,
        corrupt: false,
    };
    if let Some(runs) = value::<usize>(&args, "--repeat") {
        std::process::exit(repeat::run(&cfg, runs));
    }
    if args.iter().any(|a| a == "--self-check") {
        cfg.corrupt = true;
        cfg.seconds = cfg.seconds.min(2.0);
        let outcome = run(&cfg);
        for line in &outcome.report {
            println!("# {line}");
        }
        if outcome.correct() {
            println!("self-check FAILED: a corrupted expected answer went unnoticed");
            std::process::exit(1);
        }
        println!(
            "self-check passed: the corrupted expected answer failed the run \
             ({} of {} attempts failed)",
            outcome.failed, outcome.attempted
        );
        return;
    }
    let outcome = run(&cfg);
    println!(
        "# {} seed={} seconds={} trace={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for line in &outcome.report {
        println!("# {line}");
    }
    for failure in &outcome.final_failures {
        println!("# FAILED (end-of-run check): {failure}");
    }
    for metric in &outcome.metrics {
        println!(
            "# {:<30} {:>16.3} {}",
            metric.name, metric.value, metric.unit
        );
    }
    println!("{}", result_line(&outcome));
}
