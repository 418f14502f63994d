//! The (performance, volatility) pair — the paper's two evaluation
//! indicators (Section 4): performance is the value measure of a policy,
//! volatility the risk measure.

use serde::{Deserialize, Serialize};

/// Performance/volatility of one policy for one objective (or combination)
/// in one scenario.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RiskMeasure {
    /// `μ` — mean normalized result over the scenario's experiment points
    /// (higher is better; range `[0, 1]`).
    pub performance: f64,
    /// `σ` — population standard deviation of the normalized results
    /// (lower is better; range `[0, 0.5]` for values in `[0, 1]`).
    pub volatility: f64,
}

impl RiskMeasure {
    /// The ideal measure: perfect performance with zero volatility.
    pub const IDEAL: RiskMeasure = RiskMeasure {
        performance: 1.0,
        volatility: 0.0,
    };

    /// Creates a measure; panics if either value is NaN or negative.
    pub fn new(performance: f64, volatility: f64) -> Self {
        assert!(performance.is_finite() && volatility.is_finite());
        assert!(performance >= 0.0 && volatility >= 0.0);
        RiskMeasure {
            performance,
            volatility,
        }
    }

    /// Euclidean distance to another measure in the (volatility,
    /// performance) plane — used for the concentration tie-break in policy
    /// ranking (paper Section 4.3, the C-vs-D comparison).
    pub(crate) fn distance(&self, other: &RiskMeasure) -> f64 {
        let dp = self.performance - other.performance;
        let dv = self.volatility - other.volatility;
        (dp * dp + dv * dv).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_is_one_zero() {
        assert_eq!(RiskMeasure::IDEAL.performance, 1.0);
        assert_eq!(RiskMeasure::IDEAL.volatility, 0.0);
    }

    #[test]
    fn distance_is_euclidean() {
        let a = RiskMeasure::new(1.0, 0.0);
        let b = RiskMeasure::new(0.0, 0.0);
        assert_eq!(a.distance(&b), 1.0);
        let c = RiskMeasure::new(0.7, 0.4);
        assert!((c.distance(&RiskMeasure::new(0.7, 0.3)) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_nan() {
        RiskMeasure::new(f64::NAN, 0.0);
    }
}
