//! Analytical FPGA resource and latency model (Table 3 substitute).
//!
//! The paper synthesizes the generated RTL with Vivado on a Kintex
//! UltraScale+ `xcku3p-ffvd900-3-e` and reports <1% LUT/FF utilization and a
//! worst-case latency of 5 ns. Vivado is unavailable here, so Table 3 is
//! reproduced with a structural counting model over the same design:
//!
//! * **FFs** — previous-syndrome register (S), PUTT (S), LTT (D), had-LRC
//!   register (D), registered grant outputs (valid + backup-select + routing,
//!   ≈3 per data qubit), and a small control block;
//! * **LUTs** — per data qubit: the ≥2-of-N comparator (≤2 six-input LUTs),
//!   LTT update logic, and the primary/backup allocation gates (≈7 total);
//!   per parity qubit: PUTT masking (≈2);
//! * **latency** — LUT levels of the speculation comparator plus the
//!   allocation chain (which synthesizes like a carry chain, giving a
//!   log-depth critical path after restructuring).
//!
//! The model is calibrated to reproduce Table 3's O(d²) scaling and absolute
//! order of magnitude; `eraser-experiments table3` prints the model's
//! numbers beside the paper's (see the README's Quickstart).

use surface_code::RotatedCode;

/// An FPGA part with its LUT/FF capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpgaPart {
    /// Marketing name.
    pub name: &'static str,
    /// Available 6-input LUTs.
    pub luts: u64,
    /// Available flip-flops.
    pub ffs: u64,
}

/// The part used in the paper's Table 3: Kintex UltraScale+ KU3P
/// (`xcku3p-ffvd900-3-e`).
pub const XCKU3P: FpgaPart = FpgaPart {
    name: "xcku3p-ffvd900-3-e",
    luts: 162_720,
    ffs: 325_440,
};

/// Estimated resource usage of the ERASER block for one code distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceEstimate {
    /// Code distance.
    pub distance: usize,
    /// Estimated LUT count.
    pub luts: u64,
    /// Estimated flip-flop count.
    pub ffs: u64,
    /// LUT utilization (%) on the target part.
    pub lut_pct: f64,
    /// FF utilization (%) on the target part.
    pub ff_pct: f64,
    /// Estimated worst-case speculation+insertion latency in nanoseconds.
    pub latency_ns: f64,
}

/// Estimates the ERASER block's footprint on `part` for `code`.
///
/// # Example
///
/// ```
/// use eraser_core::resource::{estimate, XCKU3P};
/// use surface_code::RotatedCode;
///
/// let est = estimate(&RotatedCode::new(11), XCKU3P);
/// assert!(est.lut_pct < 1.0, "paper: <1% logic up to d=11");
/// assert!(est.latency_ns <= 5.0, "paper: 5 ns worst case");
/// ```
pub fn estimate(code: &RotatedCode, part: FpgaPart) -> ResourceEstimate {
    let s = code.num_stabs() as u64;
    let d2 = code.num_data() as u64;
    let ffs = 2 * s + 4 * d2 + 16;
    let luts = 7 * d2 + 2 * s;
    // Speculation: XOR + 2 LUT levels for the ≥2-of-4 comparator; the
    // allocation chain restructures to log depth.
    let levels = 3 + (d2 as f64).log2().ceil() as u64;
    let latency_ns = 0.38 * levels as f64 + 0.9;
    ResourceEstimate {
        distance: code.distance(),
        luts,
        ffs,
        lut_pct: 100.0 * luts as f64 / part.luts as f64,
        ff_pct: 100.0 * ffs as f64 / part.ffs as f64,
        latency_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Table 3 reference values (LUT%, FF%).
    const TABLE3: [(usize, f64, f64); 5] = [
        (3, 0.04, 0.02),
        (5, 0.12, 0.05),
        (7, 0.26, 0.10),
        (9, 0.42, 0.18),
        (11, 0.76, 0.26),
    ];

    #[test]
    fn utilization_stays_under_one_percent() {
        for (d, _, _) in TABLE3 {
            let est = estimate(&RotatedCode::new(d), XCKU3P);
            assert!(est.lut_pct < 1.0, "d={d}: {}", est.lut_pct);
            assert!(est.ff_pct < 1.0, "d={d}: {}", est.ff_pct);
        }
    }

    #[test]
    fn model_tracks_table3_within_2x() {
        for (d, lut_ref, ff_ref) in TABLE3 {
            let est = estimate(&RotatedCode::new(d), XCKU3P);
            let lut_ratio = est.lut_pct / lut_ref;
            let ff_ratio = est.ff_pct / ff_ref;
            assert!(
                (0.5..2.0).contains(&lut_ratio),
                "d={d}: LUT model {} vs paper {lut_ref}",
                est.lut_pct
            );
            assert!(
                (0.5..2.0).contains(&ff_ratio),
                "d={d}: FF model {} vs paper {ff_ref}",
                est.ff_pct
            );
        }
    }

    #[test]
    fn scaling_is_quadratic_in_distance() {
        let e3 = estimate(&RotatedCode::new(3), XCKU3P);
        let e11 = estimate(&RotatedCode::new(11), XCKU3P);
        let ratio = e11.luts as f64 / e3.luts as f64;
        // (121 data + 120 stabs) / (9 data + 8 stabs) ≈ 13.3.
        assert!((10.0..16.0).contains(&ratio), "got {ratio}");
    }

    #[test]
    fn latency_within_papers_5ns() {
        for d in [3usize, 5, 7, 9, 11] {
            let est = estimate(&RotatedCode::new(d), XCKU3P);
            assert!(est.latency_ns <= 5.0, "d={d}: {} ns", est.latency_ns);
            assert!(est.latency_ns > 1.0);
        }
    }

    #[test]
    fn latency_grows_with_distance() {
        let e3 = estimate(&RotatedCode::new(3), XCKU3P);
        let e11 = estimate(&RotatedCode::new(11), XCKU3P);
        assert!(e11.latency_ns > e3.latency_ns);
    }
}
