//! Reference values from the paper, printed beside measured results so
//! paper-vs-measured comparison is immediate: each figure command's table
//! carries the paper's value in its own column or title (see the README's
//! Quickstart for running them).

/// Table 2: probability (%) of a leaked data qubit staying invisible for
/// 0..=3 rounds.
pub const TABLE2_PCT: [(u32, f64); 4] = [(0, 93.8), (1, 5.90), (2, 0.36), (3, 0.02)];

/// Table 3: (distance, LUT %, FF %) from Vivado on xcku3p.
pub const TABLE3: [(usize, f64, f64); 5] = [
    (3, 0.04, 0.02),
    (5, 0.12, 0.05),
    (7, 0.26, 0.10),
    (9, 0.42, 0.18),
    (11, 0.76, 0.26),
];

/// Table 4: (distance, Always-LRCs, ERASER, ERASER+M, Optimal) average LRCs
/// per round.
pub const TABLE4: [(usize, f64, f64, f64, f64); 5] = [
    (3, 4.2, 0.27, 0.26, 0.005),
    (5, 12.0, 0.81, 0.79, 0.015),
    (7, 24.0, 1.52, 1.50, 0.034),
    (9, 40.0, 2.40, 2.38, 0.058),
    (11, 60.0, 3.45, 3.41, 0.089),
];

/// §3.1 headline constants: Eq. (1) ≈ 10%, Eq. (2) ≈ 34%.
pub const EQ1_PCT: f64 = 10.0;
pub const EQ2_PCT: f64 = 34.0;

/// §6.1 headline factors over Always-LRCs at p = 1e-3.
pub const ERASER_LER_IMPROVEMENT_AVG: f64 = 3.3;
pub const ERASER_LER_IMPROVEMENT_BEST: f64 = 4.3;
pub const ERASER_M_LER_IMPROVEMENT_AVG: f64 = 8.6;
pub const ERASER_M_LER_IMPROVEMENT_BEST: f64 = 26.0;

/// §6.4: speculation accuracy ≈97% for ERASER/ERASER+M vs ≈50% for
/// Always-LRCs; FPR 3% vs 50%; FNR ≈50% (ERASER) vs ≈40% (ERASER+M).
pub const SPEC_ACCURACY_ERASER_PCT: f64 = 97.0;
pub const SPEC_ACCURACY_ALWAYS_PCT: f64 = 50.0;
pub const FPR_ERASER_PCT: f64 = 3.0;
pub const FNR_ERASER_PCT: f64 = 50.0;
pub const FNR_ERASER_M_PCT: f64 = 40.0;

/// Fig 2(c): leakage multiplies the d=7 LER by ≈27× after one cycle and
/// ≈467× after five.
pub const FIG2C_RATIO_CYCLE1: f64 = 27.0;
pub const FIG2C_RATIO_CYCLE5: f64 = 467.0;
