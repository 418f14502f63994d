//! Streaming (online) risk statistics: the [`Welford`] accumulator.
//!
//! The batch analyses in [`crate::separate`](mod@crate::separate) need every measurement of a
//! scenario sweep up front. [`Welford`] is their *incremental*
//! counterpart: numerically stable online mean/variance (Welford's
//! algorithm) with the Chan et al. merge of partial accumulators, folded
//! one observation at a time by the live risk board, the replication
//! ensembles and the store's summaries.
//!
//! The contract with the batch oracle: feeding a [`Welford`] the same
//! normalized results and calling [`Welford::measure`] agrees with
//! [`crate::separate::separate`] to within `1e-9` in μ and σ² (the two use
//! different but algebraically equivalent variance formulations; the
//! crate's property tests pin the epsilon).

use crate::measure::RiskMeasure;
use serde::{Deserialize, Serialize};

/// Welford's online mean/variance accumulator.
///
/// Push observations one at a time; mean, population variance, min, max,
/// and count are available after every push. Two partial accumulators
/// combine exactly (up to rounding) with [`Welford::merge`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Welford {
    n: u64,
    mean: f64,
    /// Σ (xᵢ − mean)² — the running sum of squared deviations.
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation. Panics on a non-finite value — NaN must never
    /// silently poison a running mean.
    pub fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "Welford observation {x} is not finite");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Folds another accumulator into this one (Chan et al. parallel
    /// merge): the result is as if every observation of both had been
    /// pushed into a single accumulator.
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n as f64;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Observations pushed so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Running mean; 0 when empty (matching the degenerate-denominator
    /// convention used throughout the metrics layer).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance `Σ(x−μ)²/n`; 0 when empty. Clamped at 0 against
    /// tiny negative rounding, mirroring the batch oracle.
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.m2 / self.n as f64).max(0.0)
        }
    }

    /// Population standard deviation (`σ` of Eq. 6); 0 when empty.
    pub fn population_std(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// The streaming separate risk analysis (paper Eqs. 5–6) of the
    /// normalized results pushed so far: performance = mean, volatility =
    /// population standard deviation.
    ///
    /// Panics when empty (like [`crate::separate::separate`]) or when the
    /// observations were not normalized to `[0, 1]`.
    pub fn measure(&self) -> RiskMeasure {
        assert!(
            self.n > 0,
            "streaming risk measure needs at least one result"
        );
        assert!(
            self.min >= 0.0 && self.max <= 1.0,
            "streaming risk measure over unnormalized inputs [{}, {}]",
            self.min,
            self.max
        );
        RiskMeasure {
            performance: self.mean,
            volatility: self.population_std(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The naive two-pass mean/population-σ the property tests compare
    /// against.
    fn two_pass(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var.sqrt())
    }

    #[test]
    fn empty_accumulator_is_defined() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.population_std(), 0.0);
        assert_eq!(w.min(), None);
        assert_eq!(w.max(), None);
    }

    #[test]
    fn matches_hand_computation() {
        let mut w = Welford::new();
        for x in [0.0, 0.5, 1.0] {
            w.push(x);
        }
        assert!((w.mean() - 0.5).abs() < 1e-12);
        assert!((w.population_variance() - 1.0 / 6.0).abs() < 1e-12);
        assert_eq!(w.min(), Some(0.0));
        assert_eq!(w.max(), Some(1.0));
        let m = w.measure();
        assert!((m.performance - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut w = Welford::new();
        w.push(0.25);
        w.push(0.75);
        let snapshot = w;
        w.merge(&Welford::new());
        assert_eq!(w, snapshot);
        let mut e = Welford::new();
        e.merge(&snapshot);
        assert_eq!(e, snapshot);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn rejects_nan() {
        Welford::new().push(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "at least one result")]
    fn empty_measure_panics() {
        Welford::new().measure();
    }

    #[test]
    #[should_panic(expected = "unnormalized")]
    fn unnormalized_measure_panics() {
        let mut w = Welford::new();
        w.push(42.0);
        w.measure();
    }

    proptest! {
        /// Streaming mean/σ equals the naive two-pass computation.
        #[test]
        fn welford_matches_two_pass(xs in prop::collection::vec(0.0f64..=1.0, 1..200)) {
            let mut w = Welford::new();
            for &x in &xs {
                w.push(x);
            }
            let (mean, std) = two_pass(&xs);
            prop_assert!((w.mean() - mean).abs() < 1e-9);
            prop_assert!((w.population_std() - std).abs() < 1e-9);
            prop_assert_eq!(w.count(), xs.len() as u64);
        }

        /// Merging partial accumulators equals pushing the concatenation —
        /// the primitive a sharded grid needs.
        #[test]
        fn merge_of_partials_matches_single_pass(
            xs in prop::collection::vec(0.0f64..=1.0, 0..100),
            ys in prop::collection::vec(0.0f64..=1.0, 0..100),
        ) {
            let mut a = Welford::new();
            for &x in &xs {
                a.push(x);
            }
            let mut b = Welford::new();
            for &y in &ys {
                b.push(y);
            }
            a.merge(&b);
            let mut whole = Welford::new();
            for &x in xs.iter().chain(&ys) {
                whole.push(x);
            }
            prop_assert_eq!(a.count(), whole.count());
            prop_assert!((a.mean() - whole.mean()).abs() < 1e-9);
            prop_assert!((a.population_std() - whole.population_std()).abs() < 1e-9);
            prop_assert_eq!(a.min(), whole.min());
            prop_assert_eq!(a.max(), whole.max());
        }
    }
}
