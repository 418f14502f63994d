//! Risk analysis plots (paper Section 4.3, Figure 1).
//!
//! A risk analysis plot shows, for each policy, one (volatility,
//! performance) point per scenario. This module holds the plot data model,
//! the per-policy extrema summary of Table II, and the synthetic
//! eight-policy sample of Figure 1 used to validate the ranking rules.

use crate::measure::RiskMeasure;
use crate::trend::{self, Gradient, TrendLine};
use serde::{Deserialize, Serialize};

/// One policy's series of risk points across scenarios.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PolicySeries {
    /// Policy display name.
    pub name: String,
    /// One point per scenario.
    pub points: Vec<RiskMeasure>,
}

impl PolicySeries {
    /// Creates a series.
    pub fn new(name: impl Into<String>, points: Vec<RiskMeasure>) -> Self {
        PolicySeries {
            name: name.into(),
            points,
        }
    }

    /// Per-policy extrema (one row of paper Table II).
    pub fn extrema(&self) -> Extrema {
        let mut e = Extrema {
            max_performance: f64::NEG_INFINITY,
            min_performance: f64::INFINITY,
            max_volatility: f64::NEG_INFINITY,
            min_volatility: f64::INFINITY,
        };
        for p in &self.points {
            e.max_performance = e.max_performance.max(p.performance);
            e.min_performance = e.min_performance.min(p.performance);
            e.max_volatility = e.max_volatility.max(p.volatility);
            e.min_volatility = e.min_volatility.min(p.volatility);
        }
        e
    }

    /// The policy's trend line, if it has enough distinct points.
    pub(crate) fn trend(&self) -> Option<TrendLine> {
        trend::fit(&self.points)
    }

    /// The gradient classification of the trend line.
    pub fn gradient(&self) -> Gradient {
        trend::gradient(&self.points)
    }

    /// Mean distance of the points to the policy's own best corner
    /// (min volatility, max performance) — the concentration measure used
    /// as the final ranking tie-break (the paper's C-vs-D argument).
    pub(crate) fn concentration(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let e = self.extrema();
        let corner = RiskMeasure {
            performance: e.max_performance,
            volatility: e.min_volatility,
        };
        self.points.iter().map(|p| p.distance(&corner)).sum::<f64>() / self.points.len() as f64
    }
}

/// Max/min performance and volatility of one policy (a row of Table II).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Extrema {
    /// Highest performance over the scenarios.
    pub max_performance: f64,
    /// Lowest performance.
    pub min_performance: f64,
    /// Highest volatility.
    pub max_volatility: f64,
    /// Lowest volatility.
    pub min_volatility: f64,
}

impl Extrema {
    /// Performance range (Table II "difference").
    pub(crate) fn performance_difference(&self) -> f64 {
        self.max_performance - self.min_performance
    }

    /// Volatility range (Table II "difference").
    pub(crate) fn volatility_difference(&self) -> f64 {
        self.max_volatility - self.min_volatility
    }
}

/// A complete risk analysis plot: several policies over the same scenarios.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RiskPlot {
    /// Plot title, e.g. `"Set B: SLA"`.
    pub title: String,
    /// One series per policy.
    pub series: Vec<PolicySeries>,
}

impl RiskPlot {
    /// Creates a plot.
    pub fn new(title: impl Into<String>, series: Vec<PolicySeries>) -> Self {
        RiskPlot {
            title: title.into(),
            series,
        }
    }

    /// gnuplot-compatible data: one indexed block per policy, columns
    /// `volatility performance`.
    pub fn to_gnuplot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "# {}", self.title);
        for series in &self.series {
            let _ = writeln!(s, "\n\n# policy: {}", series.name);
            for p in &series.points {
                let _ = writeln!(s, "{:.6} {:.6}", p.volatility, p.performance);
            }
        }
        s
    }

    /// A complete gnuplot driver script that renders the companion `.dat`
    /// file (written by [`RiskPlot::to_gnuplot`]) in the visual style of the
    /// paper's figures: performance 0–1 on y, volatility on x, one point
    /// style per policy. `dat_name`/`png_name` are the file names the
    /// script should reference and produce.
    pub fn to_gnuplot_script(&self, dat_name: &str, png_name: &str) -> String {
        use std::fmt::Write as _;
        let x_max = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.volatility))
            .fold(0.5_f64, f64::max)
            * 1.05;
        let mut s = String::new();
        let _ = writeln!(s, "# Auto-generated driver for {dat_name}");
        let _ = writeln!(s, "set terminal pngcairo size 640,480");
        let _ = writeln!(s, "set output '{png_name}'");
        let _ = writeln!(s, "set title \"{}\"", self.title.replace('"', ""));
        let _ = writeln!(s, "set xlabel 'Volatility (Standard Deviation)'");
        let _ = writeln!(s, "set ylabel 'Performance'");
        let _ = writeln!(s, "set xrange [0:{x_max:.3}]");
        let _ = writeln!(s, "set yrange [0:1]");
        let _ = writeln!(s, "set key outside right top");
        let plots: Vec<String> = self
            .series
            .iter()
            .enumerate()
            .map(|(i, series)| {
                format!(
                    "'{dat_name}' index {i} with points pt {} ps 1.2 title '{}'",
                    i + 1,
                    series.name.replace('\'', "")
                )
            })
            .collect();
        let _ = writeln!(s, "plot {}", plots.join(", \\\n     "));
        s
    }
}

/// The eight synthetic policies A–H of the paper's sample risk analysis
/// plot (Figure 1). Their extrema reproduce Table II and their rankings
/// reproduce Tables III and IV.
pub fn sample_figure1() -> RiskPlot {
    let mk = |name: &str, pts: &[(f64, f64)]| {
        PolicySeries::new(
            name,
            pts.iter().map(|&(v, p)| RiskMeasure::new(p, v)).collect(),
        )
    };
    RiskPlot::new(
        "Sample risk analysis plot (Figure 1)",
        vec![
            // A: the ideal policy — the same best point in all 5 scenarios.
            mk("A", &[(0.0, 1.0); 5]),
            // B: constant performance 0.9, volatility 0.3..0.6 (zero gradient).
            mk(
                "B",
                &[
                    (0.3, 0.9),
                    (0.375, 0.9),
                    (0.45, 0.9),
                    (0.525, 0.9),
                    (0.6, 0.9),
                ],
            ),
            // C: perf 0.2..0.7, vol 0.3..1.0, decreasing, points concentrated
            // near its best corner (0.3, 0.7).
            mk(
                "C",
                &[
                    (0.3, 0.7),
                    (0.35, 0.7),
                    (0.3, 0.65),
                    (0.4, 0.68),
                    (1.0, 0.2),
                ],
            ),
            // D: same extrema as C, decreasing, but points spread evenly.
            mk(
                "D",
                &[
                    (0.3, 0.7),
                    (0.475, 0.575),
                    (0.65, 0.45),
                    (0.825, 0.325),
                    (1.0, 0.2),
                ],
            ),
            // E: perf 0.5..0.7, vol 0.1..0.3, decreasing.
            mk(
                "E",
                &[
                    (0.1, 0.7),
                    (0.15, 0.65),
                    (0.2, 0.6),
                    (0.25, 0.55),
                    (0.3, 0.5),
                ],
            ),
            // F: perf 0.2..0.7, vol 0.3..0.7, increasing.
            mk(
                "F",
                &[
                    (0.3, 0.2),
                    (0.4, 0.325),
                    (0.5, 0.45),
                    (0.6, 0.575),
                    (0.7, 0.7),
                ],
            ),
            // G: perf 0.4..0.7, vol 0.3..1.0, increasing.
            mk(
                "G",
                &[
                    (0.3, 0.4),
                    (0.475, 0.475),
                    (0.65, 0.55),
                    (0.825, 0.625),
                    (1.0, 0.7),
                ],
            ),
            // H: perf 0.2..0.7, vol 0.3..1.0, increasing.
            mk(
                "H",
                &[
                    (0.3, 0.2),
                    (0.475, 0.325),
                    (0.65, 0.45),
                    (0.825, 0.575),
                    (1.0, 0.7),
                ],
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_extrema_reproduced() {
        let plot = sample_figure1();
        let expect = [
            // (policy, max perf, min perf, perf diff, max vol, min vol, vol diff)
            ("A", 1.0, 1.0, 0.0, 0.0, 0.0, 0.0),
            ("B", 0.9, 0.9, 0.0, 0.6, 0.3, 0.3),
            ("C", 0.7, 0.2, 0.5, 1.0, 0.3, 0.7),
            ("D", 0.7, 0.2, 0.5, 1.0, 0.3, 0.7),
            ("E", 0.7, 0.5, 0.2, 0.3, 0.1, 0.2),
            ("F", 0.7, 0.2, 0.5, 0.7, 0.3, 0.4),
            ("G", 0.7, 0.4, 0.3, 1.0, 0.3, 0.7),
            ("H", 0.7, 0.2, 0.5, 1.0, 0.3, 0.7),
        ];
        for (name, maxp, minp, pdiff, maxv, minv, vdiff) in expect {
            let s = plot.series.iter().find(|s| s.name == name).unwrap();
            let e = s.extrema();
            assert!((e.max_performance - maxp).abs() < 1e-9, "{name} maxp");
            assert!((e.min_performance - minp).abs() < 1e-9, "{name} minp");
            assert!(
                (e.performance_difference() - pdiff).abs() < 1e-9,
                "{name} pdiff"
            );
            assert!((e.max_volatility - maxv).abs() < 1e-9, "{name} maxv");
            assert!((e.min_volatility - minv).abs() < 1e-9, "{name} minv");
            assert!(
                (e.volatility_difference() - vdiff).abs() < 1e-9,
                "{name} vdiff"
            );
        }
    }

    #[test]
    fn sample_gradients_match_paper() {
        let plot = sample_figure1();
        let grad = |n: &str| plot.series.iter().find(|s| s.name == n).unwrap().gradient();
        assert_eq!(grad("A"), Gradient::NotAvailable);
        assert_eq!(grad("B"), Gradient::Zero);
        assert_eq!(grad("C"), Gradient::Decreasing);
        assert_eq!(grad("D"), Gradient::Decreasing);
        assert_eq!(grad("E"), Gradient::Decreasing);
        assert_eq!(grad("F"), Gradient::Increasing);
        assert_eq!(grad("G"), Gradient::Increasing);
        assert_eq!(grad("H"), Gradient::Increasing);
    }

    #[test]
    fn c_is_more_concentrated_than_d() {
        let plot = sample_figure1();
        let conc = |n: &str| {
            plot.series
                .iter()
                .find(|s| s.name == n)
                .unwrap()
                .concentration()
        };
        assert!(
            conc("C") < conc("D"),
            "C's points cluster near its best corner"
        );
    }

    #[test]
    fn gnuplot_export_contains_all_policies() {
        let plot = sample_figure1();
        let text = plot.to_gnuplot();
        for s in &plot.series {
            assert!(text.contains(&format!("# policy: {}", s.name)));
        }
        assert!(
            text.lines()
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .count()
                >= 40
        );
    }

    #[test]
    fn gnuplot_script_references_every_series() {
        let plot = sample_figure1();
        let script = plot.to_gnuplot_script("fig1a.dat", "fig1a.png");
        assert!(script.contains("set output 'fig1a.png'"));
        assert!(script.contains("set yrange [0:1]"));
        for (i, s) in plot.series.iter().enumerate() {
            assert!(script.contains(&format!("index {i} ")), "{}", s.name);
            assert!(script.contains(&format!("title '{}'", s.name)));
        }
    }

    #[test]
    fn each_sample_policy_has_five_scenario_points() {
        for s in sample_figure1().series {
            assert_eq!(s.points.len(), 5, "{}", s.name);
        }
    }
}
