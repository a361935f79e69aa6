//! Benchmark harness for the intermittent-control workspace.
//!
//! Drives the program only from outside — the sweep entry point
//! `run_batch_opts` in-process, and the `serve` binary over its HTTP
//! wire protocol — on inputs generated from `--seed`, checks the
//! outputs, and prints one JSON result document as the last line of
//! stdout. `perfbench/run.py` builds this binary and wraps it; the
//! workloads and metrics are described in `perfbench/README.md`.
//!
//! ```text
//! perfbench <sweep-full|serve-mixed> --seed N --seconds S
//!           --trace 0|1 --out-dir DIR [--server-bin PATH]
//! ```

mod cells;
mod ledger;
mod replay;
mod serve;
mod stats;
mod sweep;

use std::path::PathBuf;

use oic_engine::JsonValue;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for run artifacts (cell store, Chrome trace).
    pub out_dir: PathBuf,
    pub server_bin: Option<PathBuf>,
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for totals and ratios).
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: cells for the sweeps, requests for serve.
    pub attempted: usize,
    /// Failed operations (failed cell, safety violation, 503, or a
    /// stream without a `done` trailer).
    pub failed: usize,
    /// Failed correctness checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Free-form facts recorded beside the numbers.
    pub info: Vec<(String, JsonValue)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn problem(&mut self, message: impl Into<String>) {
        let message = message.into();
        eprintln!("perfbench: check failed: {message}");
        self.problems.push(message);
    }

    pub fn info(&mut self, key: &str, value: impl Into<JsonValue>) {
        self.info.push((key.to_string(), value.into()));
    }

    fn to_json(&self) -> JsonValue {
        let mut metrics = JsonValue::object();
        for m in &self.metrics {
            metrics = metrics.with(
                &m.name,
                JsonValue::object()
                    .with("value", m.value)
                    .with("unit", m.unit)
                    .with("samples", m.samples),
            );
        }
        let mut info = JsonValue::object();
        for (key, value) in &self.info {
            info = info.with(key, value.clone());
        }
        let problems: Vec<JsonValue> = self.problems.iter().map(|p| p.as_str().into()).collect();
        JsonValue::object()
            .with("correct", self.problems.is_empty())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .with("problems", JsonValue::Array(problems))
            .with("info", info)
    }
}

fn usage(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench <sweep-full|serve-mixed> --seed N --seconds S \
         --trace 0|1 --out-dir DIR [--server-bin PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut raw = std::env::args().skip(1);
    let workload = raw.next().unwrap_or_else(|| usage("missing workload"));
    let (mut seed, mut seconds, mut trace, mut out_dir, mut server_bin) =
        (None, None, None, None, None);
    while let Some(flag) = raw.next() {
        let value = raw
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed must be a u64")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds must be positive")),
        trace: trace.unwrap_or_else(|| usage("--trace must be 0 or 1")),
        out_dir: out_dir.unwrap_or_else(|| usage("--out-dir is required")),
        server_bin,
    }
}

fn main() {
    let args = parse_args();
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        usage(&format!("cannot create {}: {e}", args.out_dir.display()));
    }
    let outcome = match args.workload.as_str() {
        "sweep-full" => sweep::run(&args),
        "serve-mixed" => serve::run(&args),
        other => usage(&format!("unknown workload {other:?}")),
    };
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.to_json().to_json());
            std::process::exit(if outcome.problems.is_empty() { 0 } else { 1 });
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    }
}
