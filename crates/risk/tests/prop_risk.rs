//! Property-based tests of the risk-analysis mathematics.

use ccs_risk::{
    integrated, integrated_equal, normalize::normalize, rank, separate, Gradient, Objective,
    PolicySeries, RankBy, RiskMeasure, RiskPlot, Welford,
};
use proptest::prelude::*;

fn measures_strategy(n: usize) -> impl Strategy<Value = Vec<RiskMeasure>> {
    prop::collection::vec((0.0f64..=1.0, 0.0f64..=0.5), n..=n)
        .prop_map(|v| v.into_iter().map(|(p, s)| RiskMeasure::new(p, s)).collect())
}

proptest! {
    /// Population variance is never negative and bounded by the squared range.
    #[test]
    fn variance_bounds(xs in prop::collection::vec(-1e3f64..1e3, 1..100)) {
        let mut s = Welford::new();
        for &x in &xs {
            s.push(x);
        }
        let range = s.max().unwrap() - s.min().unwrap();
        prop_assert!(s.population_variance() >= 0.0);
        prop_assert!(s.population_variance() <= range * range / 4.0 + 1e-9);
    }

    /// Separate risk analysis stays in its mathematical bounds: performance
    /// in [0,1], volatility in [0, 0.5] (max population sd of unit-interval
    /// data).
    #[test]
    fn separate_bounds(xs in prop::collection::vec(0.0f64..=1.0, 1..50)) {
        let m = separate(&xs);
        prop_assert!((0.0..=1.0).contains(&m.performance));
        prop_assert!((0.0..=0.5 + 1e-9).contains(&m.volatility));
    }

    /// Shifting every normalized result by a constant shifts performance by
    /// the same constant and leaves volatility unchanged.
    #[test]
    fn separate_translation_equivariance(
        xs in prop::collection::vec(0.0f64..=0.5, 2..30),
        delta in 0.0f64..0.5,
    ) {
        let a = separate(&xs);
        let shifted: Vec<f64> = xs.iter().map(|x| x + delta).collect();
        let b = separate(&shifted);
        prop_assert!((b.performance - a.performance - delta).abs() < 1e-9);
        prop_assert!((b.volatility - a.volatility).abs() < 1e-9);
    }

    /// Integration with equal weights is bounded by the component extremes
    /// (convex combination) for both indicators.
    #[test]
    fn integrated_convexity(ms in measures_strategy(4)) {
        let m = integrated_equal(&ms);
        let (plo, phi) = ms.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
            (lo.min(x.performance), hi.max(x.performance))
        });
        let (vlo, vhi) = ms.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
            (lo.min(x.volatility), hi.max(x.volatility))
        });
        prop_assert!(m.performance >= plo - 1e-12 && m.performance <= phi + 1e-12);
        prop_assert!(m.volatility >= vlo - 1e-12 && m.volatility <= vhi + 1e-12);
    }

    /// Integration is linear in the weights: moving weight toward a better
    /// objective can only improve the blend.
    #[test]
    fn integrated_weight_monotonicity(w in 0.0f64..=1.0) {
        let good = RiskMeasure::new(0.9, 0.1);
        let bad = RiskMeasure::new(0.2, 0.4);
        let m = integrated(&[(good, w), (bad, 1.0 - w)]);
        let expect_p = w * 0.9 + (1.0 - w) * 0.2;
        prop_assert!((m.performance - expect_p).abs() < 1e-12);
        let m2 = integrated(&[(good, (w + 0.1).min(1.0)), (bad, 1.0 - (w + 0.1).min(1.0))]);
        prop_assert!(m2.performance >= m.performance - 1e-12);
    }

    /// Normalization always lands in [0, 1], and the best raw value always
    /// maps to the per-point maximum.
    #[test]
    fn normalization_bounds_and_orientation(
        raws in prop::collection::vec(0.0f64..=100.0, 1..10),
        waits in prop::collection::vec(0.0f64..=1e6, 1..10),
    ) {
        for obj in [Objective::Sla, Objective::Reliability, Objective::Profitability] {
            let n = normalize(obj, &raws);
            prop_assert!(n.iter().all(|&x| (0.0..=1.0).contains(&x)));
            // Higher raw => higher normalized (same order).
            for i in 0..raws.len() {
                for j in 0..raws.len() {
                    if raws[i] < raws[j] {
                        prop_assert!(n[i] <= n[j] + 1e-12);
                    }
                }
            }
        }
        let n = normalize(Objective::Wait, &waits);
        prop_assert!(n.iter().all(|&x| (0.0..=1.0).contains(&x)));
        // Lower wait => higher normalized.
        for i in 0..waits.len() {
            for j in 0..waits.len() {
                if waits[i] < waits[j] {
                    prop_assert!(n[i] >= n[j] - 1e-12);
                }
            }
        }
    }

    /// Ranking returns a permutation with dense 1-based ranks, under both
    /// orderings, for arbitrary plots.
    #[test]
    fn ranking_is_permutation(
        series in prop::collection::vec(measures_strategy(5), 2..8),
    ) {
        let plot = RiskPlot::new(
            "prop",
            series
                .into_iter()
                .enumerate()
                .map(|(i, pts)| PolicySeries::new(format!("P{i}"), pts))
                .collect(),
        );
        for by in [RankBy::BestPerformance, RankBy::BestVolatility] {
            let rows = rank(&plot, by);
            prop_assert_eq!(rows.len(), plot.series.len());
            let mut names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
            names.sort_unstable();
            let mut expect: Vec<String> = plot.series.iter().map(|s| s.name.clone()).collect();
            expect.sort_unstable();
            prop_assert_eq!(names, expect.iter().map(|s| s.as_str()).collect::<Vec<_>>());
            for (i, r) in rows.iter().enumerate() {
                prop_assert_eq!(r.rank, i + 1);
            }
        }
    }

    /// The best-volatility ranking never places a policy with strictly
    /// higher minimum volatility above one with strictly lower.
    #[test]
    fn volatility_ranking_respects_primary_key(
        series in prop::collection::vec(measures_strategy(4), 2..6),
    ) {
        let plot = RiskPlot::new(
            "prop",
            series
                .into_iter()
                .enumerate()
                .map(|(i, pts)| PolicySeries::new(format!("P{i}"), pts))
                .collect(),
        );
        let rows = rank(&plot, RankBy::BestVolatility);
        for w in rows.windows(2) {
            prop_assert!(w[0].min_volatility <= w[1].min_volatility + 1e-12);
        }
    }

    /// Gradient classification is stable under uniform point scaling of
    /// volatility (sign of the slope is scale-invariant).
    #[test]
    fn gradient_sign_scale_invariant(
        pts in prop::collection::vec((0.01f64..0.5, 0.0f64..1.0), 3..10),
        scale in 0.1f64..5.0,
    ) {
        let a: Vec<RiskMeasure> = pts.iter().map(|&(v, p)| RiskMeasure::new(p, v)).collect();
        let b: Vec<RiskMeasure> = pts.iter().map(|&(v, p)| RiskMeasure::new(p, v * scale)).collect();
        let ga = ccs_risk::trend::gradient(&a);
        let gb = ccs_risk::trend::gradient(&b);
        // Zero/NA can flip by epsilon; only assert for clear slopes.
        if matches!(ga, Gradient::Increasing | Gradient::Decreasing) {
            if let Some(fit) = ccs_risk::trend::fit(&a) {
                if fit.slope.abs() > 1e-3 {
                    prop_assert_eq!(ga, gb);
                }
            }
        }
    }
}
