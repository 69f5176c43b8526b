//! `bench-e2e` — the daas-lab end-to-end benchmark.
//!
//! ```text
//! bench-e2e --workload paper-batch|live-serve|catch-up-restore
//!           --seed N --seconds S --trace 0|1
//! bench-e2e --self-test
//! ```
//!
//! Drives the program only through the entry points its users touch —
//! the `daas-cli` library calls `daas-lab` makes, and the `daas-serve`
//! daemon over its JSONL socket protocol — with the program's default
//! settings. Every output is checked against the world's ground truth.
//! `--trace 0` prints the end-to-end metrics with the recorder off;
//! `--trace 1` adds one recorder-on round and prints the per-layer
//! metrics. The last stdout line is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! See README.md for the workloads, the metrics and reference figures.

mod batch;
mod catchup;
mod checks;
mod daemon;
mod live;
mod loadgen;
mod metrics;
mod recorder;
mod selftest;
mod util;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use checks::Check;

/// What one run was asked to do.
pub struct RunOpts {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Micro-scale sizing for the self-test's smoke runs.
    pub smoke: bool,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub scale: f64,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub e2e: BTreeMap<String, f64>,
    pub layers: BTreeMap<String, f64>,
    /// The workload's own figures under their specific names (printed
    /// for reading; the JSON line carries the catalogue metrics).
    pub named: Vec<(String, f64, &'static str)>,
    /// Set when the run ended early (a hang, a crash, a failed request).
    pub error: Option<String>,
}

impl Outcome {
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push((name.to_string(), value, unit));
    }

    pub fn correct(&self) -> bool {
        self.error.is_none() && self.checks.iter().all(|c| c.result.is_ok())
    }
}

pub const WORKLOADS: [&str; 3] = ["paper-batch", "live-serve", "catch-up-restore"];

pub fn run_workload(name: &str, opts: &RunOpts) -> Outcome {
    match name {
        "paper-batch" => batch::run(opts),
        "live-serve" => live::run(opts),
        "catch-up-restore" => catchup::run(opts),
        other => Outcome { error: Some(format!("unknown workload {other:?}")), ..Outcome::default() },
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("bench-e2e: {msg}");
    eprintln!(
        "usage: bench-e2e --workload {} --seed N --seconds S --trace 0|1\n       bench-e2e --self-test",
        WORKLOADS.join("|")
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut workload: Option<String> = None;
    let mut opts = RunOpts { seed: 42, seconds: 24, trace: false, smoke: false };
    let mut self_test = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        let parsed = match arg.as_str() {
            "--workload" => value("--workload").map(|v| workload = Some(v)),
            "--seed" => value("--seed").and_then(|v| v.parse().map_err(|_| "--seed needs an integer".into())).map(|v| opts.seed = v),
            "--seconds" => value("--seconds")
                .and_then(|v| v.parse().map_err(|_| "--seconds needs an integer".into()))
                .map(|v: u64| opts.seconds = v.max(1)),
            "--trace" => value("--trace").and_then(|v| match v.as_str() {
                "0" => Ok(opts.trace = false),
                "1" => Ok(opts.trace = true),
                _ => Err("--trace needs 0 or 1".into()),
            }),
            "--self-test" => Ok(self_test = true),
            other => Err(format!("unknown argument {other:?}")),
        };
        if let Err(e) = parsed {
            return usage(&e);
        }
    }

    // Everything the run reads and writes is relative to the checkout
    // root, which keeps socket paths short wherever the checkout lives.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("bench_e2e sits in the repository");
    if let Err(e) = std::env::set_current_dir(root).and_then(|_| std::fs::create_dir_all(daemon::RUN_DIR)) {
        eprintln!("bench-e2e: cannot prepare {}: {e}", root.display());
        return ExitCode::FAILURE;
    }
    if self_test {
        return selftest::run();
    }
    let Some(workload) = workload else { return usage("--workload is required") };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload:?}"));
    }

    let outcome = run_workload(&workload, &opts);
    print_outcome(&workload, &opts, &outcome)
}

/// Prints the run's record: metadata, operation counts, check verdicts,
/// every metric by name and unit, then the JSON result line.
fn print_outcome(workload: &str, opts: &RunOpts, o: &Outcome) -> ExitCode {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!(
        "bench-e2e workload={workload} seed={} scale={} seconds={} trace={} nproc={nproc} commit={}",
        opts.seed,
        o.scale,
        opts.seconds,
        opts.trace as u8,
        commit(),
    );
    println!("operations: attempted {} failed {}", o.attempted, o.failed);
    for c in &o.checks {
        match &c.result {
            Ok(()) => println!("check {}: pass", c.name),
            Err(e) => println!("check {}: FAIL {e}", c.name),
        }
    }
    if let Some(e) = &o.error {
        println!("run ended early: {e}");
    }
    for (name, value, unit) in &o.named {
        println!("{workload} {name} = {value} {unit}");
    }
    let catalogue: Vec<(String, &str)> = if opts.trace {
        metrics::per_layer()
    } else {
        metrics::END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut layers = o.layers.clone();
    for (name, value, _) in &o.named {
        let key = format!("workload.{name}");
        if layers.contains_key(&key) {
            layers.insert(key, *value);
        }
    }
    let source = if opts.trace { &layers } else { &o.e2e };
    let mut body = Vec::new();
    let mut complete = true;
    for (name, unit) in &catalogue {
        // `+ 0.0` turns the -0 of an empty float sum into 0.
        let value = source.get(name).copied().unwrap_or(f64::NAN) + 0.0;
        println!("metric {name} = {value} {unit}");
        if !value.is_finite() {
            complete = false;
            continue;
        }
        body.push(format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"));
    }
    let correct = o.correct();
    if !complete || !correct {
        println!("verdict: FAIL");
        return ExitCode::FAILURE;
    }
    println!("verdict: PASS");
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.attempted.max(1),
        o.failed,
        body.join(",")
    );
    ExitCode::SUCCESS
}

/// The commit, when the checkout is a git work tree.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}
