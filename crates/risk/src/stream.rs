//! Streaming (online) risk statistics: Welford accumulators, sliding
//! windows, and realtime risk scores.
//!
//! The batch analyses in [`crate::separate`](mod@crate::separate) need every measurement of a
//! scenario sweep up front. This module provides the *incremental*
//! counterparts the observability layer runs while experiments are still in
//! flight:
//!
//! * [`Welford`] — numerically stable online mean/variance (Welford's
//!   algorithm) with the Chan et al. merge of partial accumulators, the
//!   primitive a distributed grid needs to combine shards.
//! * [`SlidingStats`] — the same statistics over only the most recent `w`
//!   observations, for drift-sensitive monitoring.
//! * [`RealtimeRisk`] — normalized impact × observed violation probability,
//!   in the spirit of KMamiz's `RiskAnalyzer.RealtimeRisk`: an
//!   interpretable live risk score computed from the outcomes observed so
//!   far.
//!
//! The contract with the batch oracle: feeding a [`Welford`] the same
//! normalized results and calling [`Welford::measure`] agrees with
//! [`crate::separate::separate`] to within `1e-9` (the two use different
//! but algebraically equivalent variance formulations; the property tests
//! pin the epsilon).

use crate::measure::RiskMeasure;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

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

    /// Unbiased sample variance `Σ(x−μ)²/(n−1)`; 0 with fewer than two
    /// observations.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).max(0.0)
        }
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

/// Mean/variance over only the most recent `window` observations.
///
/// Pushes are O(1); statistics are recomputed on demand by folding the
/// retained window through a fresh [`Welford`] (O(window)), trading a
/// little query cost for exactness — incremental removal of old
/// observations is numerically treacherous, and monitoring windows are
/// small.
#[derive(Clone, Debug)]
pub struct SlidingStats {
    window: usize,
    buf: VecDeque<f64>,
}

impl SlidingStats {
    /// A sliding accumulator retaining the last `window` observations.
    /// Panics if `window` is 0.
    pub fn new(window: usize) -> Self {
        assert!(
            window > 0,
            "sliding window must hold at least 1 observation"
        );
        SlidingStats {
            window,
            buf: VecDeque::with_capacity(window),
        }
    }

    /// Adds one observation, evicting the oldest when the window is full.
    pub fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "sliding observation {x} is not finite");
        if self.buf.len() == self.window {
            self.buf.pop_front();
        }
        self.buf.push_back(x);
    }

    /// Observations currently retained (≤ window).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no observation has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Statistics over the retained window, as a [`Welford`] fold.
    pub fn stats(&self) -> Welford {
        let mut w = Welford::new();
        for &x in &self.buf {
            w.push(x);
        }
        w
    }
}

/// A live risk score: normalized impact × observed violation probability.
///
/// Observations are *final dispositions* — each either fine
/// ([`RealtimeRisk::record_ok`]) or a violation with a severity in
/// `[0, 1]` ([`RealtimeRisk::record_violation`]). The score multiplies the
/// mean severity of the violations seen (impact) by the fraction of
/// dispositions that were violations (probability), so it starts at 0,
/// stays in `[0, 1]`, and rises only with observed evidence — the shape of
/// KMamiz's `RiskAnalyzer.RealtimeRisk`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RealtimeRisk {
    observed: u64,
    violations: u64,
    severity_sum: f64,
}

impl RealtimeRisk {
    /// A score with no observations yet.
    pub fn new() -> Self {
        RealtimeRisk::default()
    }

    /// Records a disposition that met its obligation.
    pub fn record_ok(&mut self) {
        self.observed += 1;
    }

    /// Records a violation of severity `impact ∈ [0, 1]` (1 = the
    /// obligation was lost entirely, e.g. a rejection or abort; fractions
    /// grade partial failures such as bounded deadline overruns).
    pub fn record_violation(&mut self, impact: f64) {
        assert!(
            (0.0..=1.0).contains(&impact),
            "violation impact {impact} outside [0, 1]"
        );
        self.observed += 1;
        self.violations += 1;
        self.severity_sum += impact;
    }

    /// Folds another score's observations into this one.
    pub fn merge(&mut self, other: &RealtimeRisk) {
        self.observed += other.observed;
        self.violations += other.violations;
        self.severity_sum += other.severity_sum;
    }

    /// Dispositions observed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Violations observed so far.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Observed violation probability: violations / observed; 0 when
    /// nothing has been observed.
    pub fn probability(&self) -> f64 {
        if self.observed == 0 {
            0.0
        } else {
            self.violations as f64 / self.observed as f64
        }
    }

    /// Normalized impact: mean severity over the violations seen; 0 when
    /// none occurred.
    pub fn impact(&self) -> f64 {
        if self.violations == 0 {
            0.0
        } else {
            self.severity_sum / self.violations as f64
        }
    }

    /// The live risk score, `impact × probability ∈ [0, 1]`.
    pub fn score(&self) -> f64 {
        self.impact() * self.probability()
    }
}

/// Min-max normalizes a slice of risk scores across the entities being
/// compared (KMamiz's `Normalizer` step): the riskiest maps to 1, the
/// safest to 0. Degenerate inputs (all equal, or fewer than two entities)
/// map to 0.5 — equally ranked, no evidence of contrast.
pub fn normalize_scores(scores: &[f64]) -> Vec<f64> {
    let min = scores.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if scores.len() < 2 || (max - min).abs() < 1e-12 {
        return vec![0.5; scores.len()];
    }
    scores.iter().map(|&s| (s - min) / (max - min)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::separate::separate;
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

    #[test]
    fn sliding_window_evicts_oldest() {
        let mut s = SlidingStats::new(3);
        for x in [0.0, 0.0, 0.0, 1.0, 1.0, 1.0] {
            s.push(x);
        }
        assert_eq!(s.len(), 3);
        let w = s.stats();
        assert_eq!(w.mean(), 1.0);
        assert_eq!(w.population_std(), 0.0);
    }

    #[test]
    fn sliding_partial_window() {
        let mut s = SlidingStats::new(10);
        s.push(0.2);
        s.push(0.4);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!((s.stats().mean() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn realtime_risk_is_impact_times_probability() {
        let mut r = RealtimeRisk::new();
        assert_eq!(r.score(), 0.0);
        r.record_ok();
        r.record_ok();
        r.record_ok();
        r.record_violation(1.0);
        // probability 1/4, impact 1 -> score 0.25.
        assert!((r.probability() - 0.25).abs() < 1e-12);
        assert!((r.score() - 0.25).abs() < 1e-12);
        r.record_violation(0.5);
        // probability 2/5, impact 0.75 -> score 0.3.
        assert!((r.score() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn realtime_risk_merge_equals_single_stream() {
        let mut a = RealtimeRisk::new();
        a.record_ok();
        a.record_violation(0.25);
        let mut b = RealtimeRisk::new();
        b.record_violation(0.75);
        b.record_ok();
        b.record_ok();
        let mut merged = a;
        merged.merge(&b);
        let mut single = RealtimeRisk::new();
        single.record_ok();
        single.record_violation(0.25);
        single.record_violation(0.75);
        single.record_ok();
        single.record_ok();
        assert_eq!(merged, single);
    }

    #[test]
    fn normalize_scores_spans_unit_interval() {
        let mid = normalize_scores(&[0.1, 0.3, 0.2]);
        assert_eq!(mid[0], 0.0);
        assert_eq!(mid[1], 1.0);
        assert!((mid[2] - 0.5).abs() < 1e-12);
        assert_eq!(normalize_scores(&[0.4, 0.4]), vec![0.5, 0.5]);
        assert_eq!(normalize_scores(&[0.7]), vec![0.5]);
        assert_eq!(normalize_scores(&[]), Vec::<f64>::new());
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

        /// Streaming-final equals the batch oracle (Eqs. 5-6) within 1e-9.
        #[test]
        fn streaming_measure_matches_batch_separate(
            xs in prop::collection::vec(0.0f64..=1.0, 1..64),
        ) {
            let mut w = Welford::new();
            for &x in &xs {
                w.push(x);
            }
            let streamed = w.measure();
            let batch = separate(&xs);
            prop_assert!((streamed.performance - batch.performance).abs() < 1e-9,
                "performance {} vs {}", streamed.performance, batch.performance);
            prop_assert!((streamed.volatility - batch.volatility).abs() < 1e-9,
                "volatility {} vs {}", streamed.volatility, batch.volatility);
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

        /// A sliding window over the last `w` values agrees with a fresh
        /// accumulator over exactly those values.
        #[test]
        fn sliding_stats_match_suffix(
            xs in prop::collection::vec(0.0f64..=1.0, 1..80),
            window in 1usize..16,
        ) {
            let mut s = SlidingStats::new(window);
            for &x in &xs {
                s.push(x);
            }
            let tail = &xs[xs.len().saturating_sub(window)..];
            let mut w = Welford::new();
            for &x in tail {
                w.push(x);
            }
            prop_assert_eq!(s.stats(), w);
        }
    }
}
