//! Bootstrap confidence intervals for risk measures.
//!
//! A separate risk analysis summarizes only six experiment points, so its
//! performance/volatility estimates carry sampling noise. This module
//! quantifies that noise by the nonparametric bootstrap: resample the
//! normalized results with replacement, recompute the measure, and take
//! percentile intervals. A deterministic seed makes the intervals
//! reproducible.

use crate::measure::RiskMeasure;
use crate::separate::separate;

/// A two-sided percentile confidence interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Interval {
    /// Width of the interval.
    #[cfg(test)]
    pub(crate) fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether the interval contains `x`.
    pub fn contains(&self, x: f64) -> bool {
        (self.lo..=self.hi).contains(&x)
    }
}

/// Bootstrap result for one separate risk analysis.
#[derive(Clone, Copy, Debug)]
pub struct BootstrapResult {
    /// The point estimate on the original data.
    pub point: RiskMeasure,
    /// Confidence interval of the performance.
    pub performance: Interval,
    /// Confidence interval of the volatility.
    pub volatility: Interval,
    /// Number of bootstrap replicates drawn.
    pub replicates: usize,
}

/// A tiny deterministic PRNG (xorshift64*), kept local so `ccs-risk` stays
/// free of external dependencies.
struct Prng(u64);

impl Prng {
    fn new(seed: u64) -> Self {
        Prng(seed.max(1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next_usize(&mut self, bound: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        let x = self.0.wrapping_mul(0x2545_F491_4F6C_DD1D);
        (x % bound as u64) as usize
    }
}

/// Percentile of a sorted slice (nearest-rank with interpolation).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let f = pos - lo as f64;
        sorted[lo] * (1.0 - f) + sorted[hi] * f
    }
}

/// Bootstraps the separate risk analysis of `normalized` results.
///
/// `confidence` is the two-sided level (e.g. 0.95); `replicates` the number
/// of resamples (≥ 100 recommended); `seed` fixes the resampling.
pub fn bootstrap_separate(
    normalized: &[f64],
    confidence: f64,
    replicates: usize,
    seed: u64,
) -> BootstrapResult {
    assert!(!normalized.is_empty());
    assert!((0.0..1.0).contains(&confidence) || confidence == 0.0 || confidence < 1.0);
    assert!(replicates >= 10, "too few bootstrap replicates");
    let point = separate(normalized);
    let mut rng = Prng::new(seed);
    let n = normalized.len();
    let mut perf = Vec::with_capacity(replicates);
    let mut vol = Vec::with_capacity(replicates);
    let mut resample = vec![0.0f64; n];
    for _ in 0..replicates {
        for slot in resample.iter_mut() {
            *slot = normalized[rng.next_usize(n)];
        }
        let m = separate(&resample);
        perf.push(m.performance);
        vol.push(m.volatility);
    }
    perf.sort_by(|a, b| a.total_cmp(b));
    vol.sort_by(|a, b| a.total_cmp(b));
    let alpha = (1.0 - confidence) / 2.0;
    BootstrapResult {
        point,
        performance: Interval {
            lo: percentile(&perf, alpha),
            hi: percentile(&perf, 1.0 - alpha),
        },
        volatility: Interval {
            lo: percentile(&vol, alpha),
            hi: percentile(&vol, 1.0 - alpha),
        },
        replicates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_estimate_within_its_own_interval() {
        let data = [0.2, 0.5, 0.8, 0.4, 0.6, 0.7];
        let b = bootstrap_separate(&data, 0.95, 500, 42);
        assert!(b.performance.contains(b.point.performance));
        // Volatility point can sit at the interval edge for tiny samples,
        // so allow a hair of slack.
        assert!(b.point.volatility >= b.volatility.lo - 0.05);
        assert!(b.point.volatility <= b.volatility.hi + 0.05);
    }

    #[test]
    fn constant_data_has_degenerate_interval() {
        let b = bootstrap_separate(&[0.5; 6], 0.95, 200, 1);
        assert!(b.performance.width() < 1e-12);
        assert!(b.volatility.width() < 1e-9);
        assert!((b.point.performance - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deterministic_in_seed() {
        let data = [0.1, 0.9, 0.5, 0.3];
        let a = bootstrap_separate(&data, 0.9, 300, 7);
        let b = bootstrap_separate(&data, 0.9, 300, 7);
        assert_eq!(a.performance, b.performance);
        assert_eq!(a.volatility, b.volatility);
        let c = bootstrap_separate(&data, 0.9, 300, 8);
        assert!(
            a.performance != c.performance || a.volatility != c.volatility,
            "different seeds must resample differently"
        );
    }

    #[test]
    fn wider_confidence_gives_wider_interval() {
        let data = [0.1, 0.4, 0.6, 0.9, 0.2, 0.8];
        let narrow = bootstrap_separate(&data, 0.5, 1000, 3);
        let wide = bootstrap_separate(&data, 0.99, 1000, 3);
        assert!(wide.performance.width() >= narrow.performance.width());
    }

    #[test]
    fn interval_bounds_stay_in_unit_range() {
        let data = [0.0, 1.0, 0.5, 0.25, 0.75, 1.0];
        let b = bootstrap_separate(&data, 0.95, 400, 11);
        assert!(b.performance.lo >= 0.0 && b.performance.hi <= 1.0);
        assert!(b.volatility.lo >= 0.0 && b.volatility.hi <= 0.5 + 1e-9);
    }

    #[test]
    #[should_panic]
    fn too_few_replicates_panics() {
        bootstrap_separate(&[0.5], 0.95, 5, 1);
    }
}
