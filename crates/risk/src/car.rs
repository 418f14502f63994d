//! Computation-at-Risk (CaR) — the related-work risk measure the paper
//! compares itself against (Kleban & Clearwater 2004, refs \[15\]\[16\]).
//!
//! Where the paper's separate/integrated analysis grades *policies* by the
//! volatility of normalized objectives, CaR grades a *workload outcome* by
//! the tail of its per-job completion metrics, in direct analogy to
//! financial Value-at-Risk: "with confidence q, a job's makespan (or
//! slowdown) does not exceed CaR_q". This module implements CaR over any
//! sample set, so the two methods can be compared on identical simulation
//! output (see the `car_vs_risk` ablation in ccs-experiments).
//!
//! Definitions follow the CaR papers:
//! - **makespan** (response time): `finish − submit` per job;
//! - **expansion factor** (slowdown): `(wait + runtime)/runtime`;
//! - `CaR_q` = the `q`-quantile of the chosen metric's distribution.

use serde::{Deserialize, Serialize};

/// Which per-job metric the CaR analysis uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum CarMetric {
    /// Response time `finish − submit` (the CaR papers' "makespan").
    Makespan,
    /// Expansion factor `(wait + runtime)/runtime` (bounded below by 1).
    Slowdown,
}

impl CarMetric {
    /// Display label.
    pub(crate) fn label(self) -> &'static str {
        match self {
            CarMetric::Makespan => "makespan",
            CarMetric::Slowdown => "slowdown",
        }
    }
}

/// Summary of a CaR analysis over one sample set.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CarAnalysis {
    /// The metric analysed.
    pub metric: CarMetric,
    /// Number of samples.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample median (CaR at q = 0.5).
    pub median: f64,
    /// CaR at 90 %.
    pub car90: f64,
    /// CaR at 95 %.
    pub car95: f64,
    /// CaR at 99 %.
    pub car99: f64,
}

/// The `q`-quantile of `samples` (linear interpolation between order
/// statistics; `0 ≤ q ≤ 1`). Panics on an empty slice or out-of-range `q`.
pub(crate) fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample set");
    assert!((0.0..=1.0).contains(&q), "quantile level {q} outside [0,1]");
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Computation-at-Risk at confidence `q`: the value the metric stays below
/// with probability `q`.
pub fn car(samples: &[f64], q: f64) -> f64 {
    quantile(samples, q)
}

/// Runs the standard CaR summary over a sample set.
pub fn analyze(metric: CarMetric, samples: &[f64]) -> CarAnalysis {
    assert!(!samples.is_empty(), "CaR analysis needs samples");
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    CarAnalysis {
        metric,
        count: samples.len(),
        mean,
        median: quantile(samples, 0.5),
        car90: quantile(samples, 0.90),
        car95: quantile(samples, 0.95),
        car99: quantile(samples, 0.99),
    }
}

impl std::fmt::Display for CarAnalysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} over {} jobs: mean {:.1}, median {:.1}, CaR90 {:.1}, CaR95 {:.1}, CaR99 {:.1}",
            self.metric.label(),
            self.count,
            self.mean,
            self.median,
            self.car90,
            self.car95,
            self.car99
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_of_known_data() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        // Interpolation between order statistics.
        assert!((quantile(&xs, 0.1) - 1.4).abs() < 1e-12);
    }

    #[test]
    fn quantile_unsorted_input() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&xs, 0.5), 3.0);
    }

    #[test]
    fn car_is_monotone_in_q() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).powf(1.5)).collect();
        let mut prev = f64::NEG_INFINITY;
        for q in [0.1, 0.5, 0.9, 0.95, 0.99] {
            let c = car(&xs, q);
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn analyze_summary_is_consistent() {
        let xs: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let a = analyze(CarMetric::Makespan, &xs);
        assert_eq!(a.count, 1000);
        assert!((a.mean - 500.5).abs() < 1e-9);
        assert!((a.median - 500.5).abs() < 1.0);
        assert!(a.car90 < a.car95 && a.car95 < a.car99);
        assert!(a.car99 <= 1000.0);
        let text = format!("{a}");
        assert!(text.contains("makespan"));
    }

    #[test]
    #[should_panic]
    fn empty_samples_panic() {
        analyze(CarMetric::Slowdown, &[]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_q_panics() {
        quantile(&[1.0], 1.5);
    }

    #[test]
    fn single_sample_degenerate() {
        assert_eq!(car(&[7.0], 0.99), 7.0);
    }
}
