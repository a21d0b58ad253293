//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--smoke]`
//!
//! Prints a provenance line, a human-readable metric table, and as the last
//! line one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `--smoke` shrinks the run to the fewest calls that exercise every check.

use perfbench::{host, run_workload, RunOptions, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad --seconds `{value}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (expected 0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        smoke,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let overrides = host::eraser_overrides();
    if !overrides.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: they change what pinned run knobs \
             resolve to",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }
    let opts = if args.smoke {
        RunOptions::smoke(args.seed, args.trace)
    } else {
        RunOptions::new(args.seed, args.seconds, args.trace)
    };
    // `--workload all` runs every workload in turn, each printing its own
    // table and result line.
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    for workload in workloads {
        let report = match run_workload(workload, &opts) {
            Ok(report) => report,
            Err(message) => {
                eprintln!("perfbench: {message}");
                return ExitCode::from(2);
            }
        };
        let mut provenance = String::new();
        host::provenance(workload, args.seed).write(&mut provenance);
        println!("provenance {provenance}");
        print!("{}", report.table(workload, args.trace));
        let mut line = String::new();
        report.to_json(args.trace).write(&mut line);
        println!("{line}");
    }
    ExitCode::SUCCESS
}
