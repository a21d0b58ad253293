//! Reference statistics the pooled outputs are checked against, and the
//! layer interaction map, both kept in `perfbench/reference.json`.

use crate::stats::rate_p_value;
use eraser_json::Value;

/// A pooled statistic whose p-value against its reference falls below this
/// fails the run (about 5 sigma, two-sided).
pub const P_LIMIT: f64 = 1e-6;

/// Variance inflation for LRC counts, which arrive in bursts after
/// detection events rather than independently per shot-round: twice the
/// largest variance-to-mean ratio of per-call LRC counts (6.1) seen in the
/// reference runs of the three Monte-Carlo workloads.
const LRC_DISPERSION: f64 = 12.0;

const REFERENCE_JSON: &str = include_str!("../reference.json");

/// The parsed reference file.
pub fn reference() -> Value {
    Value::parse(REFERENCE_JSON).expect("reference.json is valid JSON")
}

/// A workload's reference counts, measured once over `shots` shots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    pub shots: u64,
    pub logical_errors: u64,
    pub total_lrcs: u64,
}

impl Band {
    /// The band recorded for `workload`.
    pub fn of(workload: &str) -> Band {
        let bands = reference();
        let entry = bands
            .get("bands")
            .and_then(|b| b.get(workload))
            .unwrap_or_else(|| panic!("reference.json has no band for `{workload}`"));
        let field = |key: &str| {
            entry
                .get(key)
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("band `{workload}` lacks integer `{key}`"))
        };
        Band {
            shots: field("shots"),
            logical_errors: field("logical_errors"),
            total_lrcs: field("total_lrcs"),
        }
    }

    /// P-values of pooled logical errors per shot and LRCs per shot
    /// against the band's rates.
    pub fn p_values(&self, logical_errors: u64, total_lrcs: u64, shots: u64) -> (f64, f64) {
        (
            rate_p_value(logical_errors, shots, self.logical_errors, self.shots, 1.0),
            rate_p_value(
                total_lrcs,
                shots,
                self.total_lrcs,
                self.shots,
                LRC_DISPERSION,
            ),
        )
    }
}
