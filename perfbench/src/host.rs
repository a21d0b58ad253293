//! The process environment: refused overrides, provenance, peak memory.

use eraser_json::Value;
use std::process::Command;

/// The `ERASER_*` variables set in the environment. Any of them would
/// silently change what an `Auto` or 0-valued run knob resolves to, so the
/// benchmark refuses to start when this is non-empty.
pub fn eraser_overrides() -> Vec<String> {
    let mut vars: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ERASER_"))
        .collect();
    vars.sort();
    vars
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where a result came from. Numbers are host-specific: the repository's
/// `.cargo/config.toml` builds with `target-cpu=native`.
pub fn provenance(workload: &str, seed: u64) -> Value {
    // `--git-dir` keeps git from walking up into an enclosing repository
    // when the benchmark runs from a plain source tree.
    let git = |args: &[&str]| {
        let mut full = vec!["--git-dir=.git", "--work-tree=.", "--no-optional-locks"];
        full.extend_from_slice(args);
        command_line("git", &full)
    };
    let revision = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(s) => Value::from(!s.is_empty()),
        None => Value::Null,
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut v = Value::object();
    v.set("workload", workload);
    v.set("seed", seed);
    v.set("git_revision", revision);
    v.set("git_dirty", dirty);
    v.set(
        "rustc",
        command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
    );
    v.set(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    v.set("cpu_model", cpu);
    v.set(
        "build_note",
        "built with target-cpu=native (.cargo/config.toml); numbers are host-specific",
    );
    v
}
