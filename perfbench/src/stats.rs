//! Seed derivation and order statistics.

/// SplitMix64 finaliser: a bijective 64-bit mix.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The root seed of call `k` of a workload run with `seed`: a pure function
/// of the pair, so the work in every call is fixed by the seed alone.
pub fn call_seed(seed: u64, k: u64) -> u64 {
    mix64(mix64(seed) ^ mix64(k.wrapping_add(1)))
}

/// A small deterministic stream over [`mix64`] for drawing job sequences.
#[derive(Debug, Clone)]
pub struct SeedStream(u64);

impl SeedStream {
    pub fn new(seed: u64) -> SeedStream {
        SeedStream(mix64(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The tail of a latency sample: the highest percentile with at least ten
/// samples beyond it, i.e. the 11th-largest value, with that percentile.
/// Falls back to the maximum (percentile 100) below eleven samples.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (0.0, 100.0);
    }
    if n < 11 {
        return (v[n - 1], 100.0);
    }
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// Two-sided p-value that `k` events over `n` exposure units and `k_ref`
/// events over `n_ref` units share one Poisson rate.
///
/// Conditional on the total `t = k + k_ref`, `k` is Binomial(t, n / (n +
/// n_ref)) under that hypothesis, which stays exact for the tiny counts of
/// low logical error rates. Large totals use the normal approximation with
/// the variance inflated by `dispersion` (≥ 1) for bursty counts; so do
/// totals above [`EXACT_MAX_TOTAL`], whose exact sum would cost memory.
pub fn rate_p_value(k: u64, n: u64, k_ref: u64, n_ref: u64, dispersion: f64) -> f64 {
    let t = k + k_ref;
    if t == 0 {
        return 1.0;
    }
    let q = n as f64 / (n + n_ref) as f64;
    let mean = t as f64 * q;
    let var = mean * (1.0 - q);
    let p = if var >= 50.0 || t > EXACT_MAX_TOTAL {
        let z = (k as f64 - mean).abs() / (dispersion * var).sqrt();
        erfc(z / std::f64::consts::SQRT_2)
    } else {
        let pmf = binomial_pmf(t, q);
        let lower: f64 = pmf[..=k as usize].iter().sum();
        let upper: f64 = pmf[k as usize..].iter().sum();
        2.0 * lower.min(upper)
    };
    p.min(1.0)
}

/// Largest event total tested with the exact binomial sum.
pub const EXACT_MAX_TOTAL: u64 = 100_000;

/// Probabilities of 0..=t successes in t Binomial(t, q) trials.
fn binomial_pmf(t: u64, q: f64) -> Vec<f64> {
    let t = t as usize;
    let (ln_q, ln_1q) = (q.ln(), (1.0 - q).ln());
    let mut ln_choose = 0.0f64;
    let mut out = Vec::with_capacity(t + 1);
    for i in 0..=t {
        if i > 0 {
            ln_choose += ((t - i + 1) as f64).ln() - (i as f64).ln();
        }
        out.push((ln_choose + i as f64 * ln_q + (t - i) as f64 * ln_1q).exp());
    }
    out
}

/// Complementary error function (Chebyshev fit, fractional error below
/// 1.2e-7 everywhere).
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let r = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        r
    } else {
        2.0 - r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (t, pct) = tail(&values);
        assert_eq!(t, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(tail(&[5.0, 7.0]), (7.0, 100.0));
    }

    #[test]
    fn rate_p_values() {
        // Nothing observed anywhere: no evidence against the reference.
        assert_eq!(rate_p_value(0, 100, 0, 1000, 1.0), 1.0);
        // One event in a small sample against none in a large reference
        // is plausible; many are not.
        assert!(rate_p_value(1, 800, 0, 100_000, 1.0) > 1e-3);
        assert!(rate_p_value(10, 800, 0, 100_000, 1.0) < 1e-6);
        // Normal branch: equal rates pass, a 10% shift over 1e6 events fails,
        // and dispersion widens the band.
        assert!(rate_p_value(100_000, 1000, 1_000_000, 10_000, 1.0) > 0.5);
        assert!(rate_p_value(110_000, 1000, 1_000_000, 10_000, 1.0) < 1e-9);
        let narrow = rate_p_value(101_000, 1000, 1_000_000, 10_000, 1.0);
        let wide = rate_p_value(101_000, 1000, 1_000_000, 10_000, 4.0);
        assert!(wide > narrow);
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_207).abs() < 1e-7);
    }
}
