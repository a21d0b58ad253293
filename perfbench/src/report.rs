//! Metric names, units, and the result line the benchmark prints.

use eraser_json::Value;

/// End-to-end metrics, printed with tracing off: `(name, unit)`.
///
/// A *job* is one timed unit of submitted work: a timed Monte-Carlo call
/// (a fixed shot count at a fixed seed) or one served job.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("shot_round_ns", "ns"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Latency figures the untraced table prints beside [`END_TO_END`] but the
/// result line leaves out. On a shared 2-core Xeon VM, co-tenant load
/// slowed a varying share of jobs by up to 1.7x, so job times were
/// bimodal. Between identical runs their median jumped between the modes
/// (quartile spread up to 19% over ten runs), and the tail moved with the
/// worst stalls (up to 52%): too much for a regression bound. The gated
/// figures are means, which move only in proportion to the slowed share.
pub const CONTEXT: &[(&str, &str)] = &[("job_ms", "ms"), ("job_ms_tail", "ms")];

/// Per-layer metrics, printed by the traced run: `(name, unit)`. A metric
/// whose layer a workload does not exercise reads 0 (see
/// `perfbench/reference.json` for which workloads each one applies to).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("surface_code.runner_build_s", "s"),
    ("qec_decoder.artifacts_build_s", "s"),
    ("leak_sim.sim_shot_round_ns", "ns"),
    ("eraser_core.policy_plan_ns", "ns"),
    ("eraser_core.policy_plan_calls", "count"),
    ("eraser_core.lrcs_per_round", "1/round"),
    ("eraser_core.speculation_precision", "ratio"),
    ("eraser_core.erasures_per_shot", "1/shot"),
    ("qec_decoder.decode_shot_round_ns", "ns"),
    ("qec_decoder.erasure_shot_round_ns", "ns"),
    ("qec_decoder.predecode_tier0_hits", "count"),
    ("qec_decoder.predecode_tier1_hits", "count"),
    ("qec_decoder.predecode_tier2_hits", "count"),
    ("qec_decoder.predecode_saved_shot_round_ns", "ns"),
    ("qec_decoder.window_ns_per_round_mean", "ns"),
    ("eraser_core.run_shot_round_ns_tail", "ns"),
    ("eraser_serve.accept_ms", "ms"),
    ("eraser_serve.first_point_ms", "ms"),
    ("eraser_core.cache_hits", "count"),
    ("eraser_core.cache_misses", "count"),
    ("eraser_core.cache_evictions", "count"),
    ("eraser_core.cache_bytes", "bytes"),
    ("eraser_serve.busy_rejects", "count"),
    ("trace_overhead_pct", "%"),
    ("unexplained_pct", "%"),
];

/// The metric table a run prints: per-layer when traced, else end-to-end.
pub fn metric_table(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// One run's outcome: operation counts, metrics, and human-readable notes.
#[derive(Debug, Default)]
pub struct Report {
    /// Timed operations (calls or jobs).
    pub attempted: u64,
    /// Operations that panicked, failed an output check, or were refused.
    pub failed: u64,
    /// Descriptions of every failed check.
    pub failures: Vec<String>,
    /// Metric values by name, in insertion order.
    metrics: Vec<(&'static str, f64)>,
    /// Extra lines for the human-readable table (context, not gated).
    notes: Vec<String>,
}

impl Report {
    /// Records a failed operation with its reason.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.failures.push(reason);
    }

    /// Sets a metric; `name` must appear in [`END_TO_END`], [`CONTEXT`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric `{name}` is not declared in the metric tables"
        );
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Adds a note line to the human-readable output.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result object: `correct`, `attempted`, `failed`, and `metrics`
    /// restricted to (and ordered as) the table for `trace`. A table metric
    /// the run did not record, or a non-finite value, is a benchmark bug.
    pub fn to_json(&self, trace: bool) -> Value {
        let mut metrics = Value::object();
        for &(name, unit) in metric_table(trace) {
            let value = self
                .get(name)
                .unwrap_or_else(|| panic!("metric `{name}` was not recorded"));
            assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
            let mut m = Value::object();
            m.set("value", value);
            m.set("unit", unit);
            metrics.set(name, m);
        }
        let mut v = Value::object();
        v.set("correct", self.correct());
        v.set("attempted", self.attempted);
        v.set("failed", self.failed);
        v.set("metrics", metrics);
        v
    }

    /// The human-readable table: every metric with its unit, then
    /// `failed_frac`, the notes, and each failure.
    pub fn table(&self, workload: &str, trace: bool) -> String {
        let mut out = format!(
            "workload {workload} ({})\n",
            if trace { "traced" } else { "untraced" }
        );
        for &(name, unit) in metric_table(trace) {
            if let Some(value) = self.get(name) {
                out.push_str(&format!("  {name:<44} {value:>16.6} {unit}\n"));
            }
        }
        for &(name, unit) in CONTEXT {
            if let Some(value) = self.get(name) {
                out.push_str(&format!("  {name:<44} {value:>16.6} {unit} (not gated)\n"));
            }
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        out.push_str(&format!(
            "  {:<44} {frac:>16.6} ({} of {} operations)\n",
            "failed_frac", self.failed, self.attempted
        ));
        for note in &self.notes {
            out.push_str(&format!("  # {note}\n"));
        }
        for failure in &self.failures {
            out.push_str(&format!("  FAILED: {failure}\n"));
        }
        out
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(CONTEXT)
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}
