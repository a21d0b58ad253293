//! Tests of the benchmark's own code: seeded inputs, the metric contract
//! with `BENCHMARK.json`, and a smoke run of every workload.

use eraser_json::Value;
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::serve_mix::Job;
use perfbench::stats::call_seed;
use perfbench::{reference, run_workload, RunOptions, WORKLOADS};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Value) -> Vec<String> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn jobs(seed: u64) -> Vec<Job> {
    (0..64).map(|i| Job::draw(seed, i)).collect()
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let calls = |seed| (0..32).map(|k| call_seed(seed, k)).collect::<Vec<_>>();
    assert_eq!(calls(7), calls(7));
    assert_ne!(calls(7), calls(8));
    assert_eq!(jobs(7), jobs(7));
    assert_ne!(jobs(7), jobs(8));
    // Call seeds within a run are distinct, so no two calls repeat work.
    let mut seen = calls(7);
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), 32);
}

#[test]
fn job_mix_reuses_the_grid_and_jitters_the_rest() {
    let all: Vec<Job> = (0..2000).map(|i| Job::draw(11, i)).collect();
    let cold: Vec<&Job> = all.iter().filter(|j| j.cold).collect();
    let share = cold.len() as f64 / all.len() as f64;
    assert!((0.15..0.25).contains(&share), "cold share {share}");
    for job in &all {
        let on_grid = perfbench::serve_mix::GRID
            .iter()
            .any(|&(d, p)| d == job.distance && p == job.p);
        assert_eq!(on_grid, !job.cold, "{job:?}");
    }
    let mut ps: Vec<u64> = cold.iter().map(|j| j.p.to_bits()).collect();
    ps.sort_unstable();
    ps.dedup();
    assert_eq!(ps.len(), cold.len(), "every cold job has its own physics");
}

#[test]
fn metric_tables_match_benchmark_json() {
    let bench = benchmark_json();
    let table = |t: &[(&str, &str)]| t.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(names(bench.get("end_to_end").unwrap()), table(END_TO_END));
    assert_eq!(names(bench.get("per_layer").unwrap()), table(PER_LAYER));
    assert_eq!(names(bench.get("workloads").unwrap()), WORKLOADS.to_vec());
    for metric in bench.get("end_to_end").unwrap().as_array().unwrap() {
        let name = metric.get("name").and_then(Value::as_str).unwrap();
        let unit = metric.get("unit").and_then(Value::as_str).unwrap();
        assert!(END_TO_END.contains(&(name, unit)), "{name} [{unit}]");
    }
    for metric in bench.get("per_layer").unwrap().as_array().unwrap() {
        let name = metric.get("name").and_then(Value::as_str).unwrap();
        let unit = metric.get("unit").and_then(Value::as_str).unwrap();
        assert!(PER_LAYER.contains(&(name, unit)), "{name} [{unit}]");
    }
    // The interaction map covers exactly the per-layer metrics.
    let map = reference::reference();
    let keys: Vec<String> = map
        .get("interactions")
        .and_then(Value::as_object)
        .expect("an interaction map")
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    assert_eq!(keys, table(PER_LAYER));
}

#[test]
fn smoke_runs_every_workload_and_emits_the_declared_metrics() {
    let bench = benchmark_json();
    for trace in [false, true] {
        let key = if trace { "per_layer" } else { "end_to_end" };
        let declared = names(bench.get(key).unwrap());
        for &workload in WORKLOADS {
            let report = run_workload(workload, &RunOptions::smoke(3, trace))
                .unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert!(
                report.correct(),
                "{workload} (trace {trace}) failed: {:?}",
                report.failures
            );
            let line = report.to_json(trace);
            let emitted: Vec<String> = line
                .get("metrics")
                .and_then(Value::as_object)
                .unwrap()
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            assert_eq!(emitted, declared, "{workload} (trace {trace})");
        }
    }
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run_workload("nope", &RunOptions::smoke(1, false)).is_err());
}
