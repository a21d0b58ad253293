//! End-to-end pipeline benchmark of the ERASER reproduction.
//!
//! Four workloads drive the pipeline through its public entry points only
//! (`ExperimentBuilder::build`, `MemoryRunner::decode_artifacts` /
//! `run_with_artifacts`, `Experiment::run`, and the `eraser_serve` client
//! and `ServerHandle`): three Monte-Carlo operating points ([`mc`]) and a
//! closed-loop served job mix ([`serve_mix`]). Each run prints one JSON
//! result line; `--trace 1` prints the per-layer split instead of the
//! end-to-end metrics.

pub mod host;
pub mod mc;
pub mod reference;
pub mod report;
pub mod serve_mix;
pub mod stats;

use report::Report;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["lpr_d7", "ler_d9", "stream_d7", "serve_mix"];

/// How one run measures.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload seed: fixes every call seed and the served job sequence.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Per-layer split instead of end-to-end metrics.
    pub trace: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl RunOptions {
    /// A full-length run.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> RunOptions {
        RunOptions {
            seed,
            seconds,
            trace,
            setups: 5,
        }
    }

    /// The smallest run that still exercises every path and check.
    pub fn smoke(seed: u64, trace: bool) -> RunOptions {
        RunOptions {
            seed,
            seconds: 0.0,
            trace,
            setups: 1,
        }
    }
}

/// Runs workload `name`.
pub fn run_workload(name: &str, opts: &RunOptions) -> Result<Report, String> {
    let mut report = Report::default();
    if name == "serve_mix" {
        serve_mix::run(opts, &mut report)?;
    } else if let Some(w) = mc::WORKLOADS.iter().find(|w| w.name == name) {
        mc::run(w, &reference::Band::of(name), opts, &mut report);
    } else {
        return Err(format!(
            "unknown workload `{name}` (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(report)
}
