//! Repeat mode: one workload run `k` times, each in its own process on the
//! next seed, then every metric's median, quartiles and spread (the
//! inter-quartile range as a share of the median) — what the bounds in
//! `BENCHMARK.json` were set from.

use std::collections::BTreeMap;
use std::process::Command;

use crate::common::{quantile, sorted_f64};
use crate::RunConfig;

/// Pulls `"name": {"value": v, "unit": "u"}` entries out of a result line.
fn parse_metrics(line: &str) -> Vec<(String, f64, String)> {
    let mut out = Vec::new();
    let Some(start) = line.find("\"metrics\"") else {
        return out;
    };
    let mut rest = &line[start + 9..];
    while let Some(open) = rest.find("\": {\"value\": ") {
        let name_start = rest[..open].rfind('"').map_or(0, |q| q + 1);
        let name = rest[name_start..open].to_owned();
        let after = &rest[open + 13..];
        let end = after.find(',').unwrap_or(after.len());
        let value = after[..end].trim().parse::<f64>().unwrap_or(f64::NAN);
        let unit_at = after.find("\"unit\": \"").map_or(after.len(), |u| u + 9);
        let unit_end = after[unit_at..]
            .find('"')
            .map_or(after.len(), |e| unit_at + e);
        out.push((name, value, after[unit_at..unit_end].to_owned()));
        rest = &after[unit_end..];
    }
    out
}

pub fn run(cfg: &RunConfig, runs: usize) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return 1;
        }
    };
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    let mut all_correct = true;
    for offset in 0..runs as u64 {
        let seed = cfg.seed + offset;
        let output = Command::new(&exe)
            .args([
                "--workload",
                &cfg.workload,
                "--seed",
                &seed.to_string(),
                "--seconds",
                &cfg.seconds.to_string(),
                "--trace",
                if cfg.trace { "1" } else { "0" },
            ])
            .output();
        let output = match output {
            Ok(output) if output.status.success() => output,
            Ok(output) => {
                eprintln!(
                    "perfbench: run on seed {seed} exited with {}",
                    output.status
                );
                return 1;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run seed {seed}: {e}");
                return 1;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        let correct = line.contains("\"correct\": true");
        all_correct &= correct;
        println!("seed {seed}: {line}");
        for (name, value, unit) in parse_metrics(line) {
            if !values.contains_key(&name) {
                order.push(name.clone());
            }
            values
                .entry(name)
                .or_insert((unit, Vec::new()))
                .1
                .push(value);
        }
    }
    println!(
        "{:<30} {:>14} {:>14} {:>14} {:>9}  unit",
        "metric", "q1", "median", "q3", "spread"
    );
    for name in order {
        let (unit, samples) = &values[&name];
        let sorted = sorted_f64(samples.iter().copied());
        let (q1, q2, q3) = quartiles(&sorted);
        let spread = if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2 };
        println!("{name:<30} {q1:>14.4} {q2:>14.4} {q3:>14.4} {spread:>9.4}  {unit}");
    }
    if all_correct {
        0
    } else {
        println!("at least one run reported correct=false");
        1
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method) gives them; the median for the middle one.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let exclusive = |p: f64| {
        let m = (n + 1) as f64 * p;
        let j = (m.floor() as usize).clamp(1, n - 1);
        let delta = m - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (exclusive(0.25), quantile(sorted, 0.5), exclusive(0.75))
}
