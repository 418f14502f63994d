//! Trend lines over risk-analysis points (paper Section 4.3).
//!
//! A policy's points (one per scenario) may be summarized by a least-squares
//! trend line of performance against volatility. The *gradient* of that line
//! enters the ranking rules, with preference order decreasing → increasing →
//! zero: a decreasing gradient means lower volatility accompanies higher
//! performance (good); an increasing gradient means performance is bought
//! with volatility; a zero gradient means volatility varies with no
//! performance change. A policy whose points are identical (or collinear in
//! volatility) has no trend line at all.

use crate::measure::RiskMeasure;
use serde::{Deserialize, Serialize};

/// Classification of a policy's trend-line gradient.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Gradient {
    /// Performance falls as volatility rises (preferred: the policy's best
    /// performance comes with its lowest volatility).
    Decreasing,
    /// Performance rises with volatility.
    Increasing,
    /// Volatility changes with no performance change.
    Zero,
    /// No trend line: fewer than two distinct points.
    NotAvailable,
}

impl Gradient {
    /// Ranking preference (lower is better): decreasing, increasing, zero,
    /// then not-available (paper Section 4.3).
    pub(crate) fn preference(self) -> u8 {
        match self {
            Gradient::Decreasing => 0,
            Gradient::Increasing => 1,
            Gradient::Zero => 2,
            Gradient::NotAvailable => 3,
        }
    }

    /// Short label for tables.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Gradient::Decreasing => "Decreasing",
            Gradient::Increasing => "Increasing",
            Gradient::Zero => "Zero",
            Gradient::NotAvailable => "NA",
        }
    }
}

impl std::fmt::Display for Gradient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A fitted trend line `performance = slope · volatility + intercept`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrendLine {
    /// Slope in the (volatility, performance) plane.
    pub slope: f64,
    /// Intercept.
    pub intercept: f64,
}

/// Slopes with magnitude below this are classified as [`Gradient::Zero`].
const FLAT_SLOPE: f64 = 1e-6;

/// Fits the least-squares trend line through a policy's points. Returns
/// `None` when the points do not span distinct volatilities (the paper: a
/// policy "cannot have a trend line if it does not have any or too few
/// different points").
pub fn fit(points: &[RiskMeasure]) -> Option<TrendLine> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.volatility).sum::<f64>() / n;
    let my = points.iter().map(|p| p.performance).sum::<f64>() / n;
    let sxx: f64 = points
        .iter()
        .map(|p| (p.volatility - mx) * (p.volatility - mx))
        .sum();
    if sxx <= 1e-15 {
        return None;
    }
    let sxy: f64 = points
        .iter()
        .map(|p| (p.volatility - mx) * (p.performance - my))
        .sum();
    let slope = sxy / sxx;
    Some(TrendLine {
        slope,
        intercept: my - slope * mx,
    })
}

/// Classifies the gradient of a policy's points.
pub fn gradient(points: &[RiskMeasure]) -> Gradient {
    match fit(points) {
        None => Gradient::NotAvailable,
        Some(line) if line.slope.abs() < FLAT_SLOPE => Gradient::Zero,
        Some(line) if line.slope < 0.0 => Gradient::Decreasing,
        Some(_) => Gradient::Increasing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(data: &[(f64, f64)]) -> Vec<RiskMeasure> {
        data.iter().map(|&(v, p)| RiskMeasure::new(p, v)).collect()
    }

    #[test]
    fn identical_points_have_no_trend() {
        let p = pts(&[(0.0, 1.0); 5]);
        assert_eq!(gradient(&p), Gradient::NotAvailable);
        assert!(fit(&p).is_none());
    }

    #[test]
    fn single_point_has_no_trend() {
        assert_eq!(gradient(&pts(&[(0.2, 0.5)])), Gradient::NotAvailable);
    }

    #[test]
    fn decreasing_gradient() {
        let p = pts(&[(0.1, 0.9), (0.3, 0.6), (0.5, 0.3)]);
        assert_eq!(gradient(&p), Gradient::Decreasing);
        let line = fit(&p).unwrap();
        assert!((line.slope + 1.5).abs() < 1e-9);
    }

    #[test]
    fn increasing_gradient() {
        let p = pts(&[(0.1, 0.2), (0.5, 0.8)]);
        assert_eq!(gradient(&p), Gradient::Increasing);
    }

    #[test]
    fn zero_gradient() {
        let p = pts(&[(0.1, 0.7), (0.3, 0.7), (0.6, 0.7)]);
        assert_eq!(gradient(&p), Gradient::Zero);
    }

    #[test]
    fn preference_order_matches_paper() {
        assert!(Gradient::Decreasing.preference() < Gradient::Increasing.preference());
        assert!(Gradient::Increasing.preference() < Gradient::Zero.preference());
        assert!(Gradient::Zero.preference() < Gradient::NotAvailable.preference());
    }

    #[test]
    fn labels() {
        assert_eq!(Gradient::Decreasing.label(), "Decreasing");
        assert_eq!(format!("{}", Gradient::NotAvailable), "NA");
    }
}
