//! From raw grid measurements to risk-analysis plots.
//!
//! Implements the paper's evaluation pipeline (Sections 4 and 6): normalize
//! each objective across the policies at every experiment point, compute the
//! separate risk analysis per scenario, and assemble the separate/integrated
//! risk plots of Figures 3–8.

use crate::grid::RawGrid;
use crate::scenario::{EstimateSet, Scenario};
use ccs_economy::EconomicModel;
use ccs_risk::{
    integrated_equal, normalize::normalize_with, separate, Objective, PolicySeries, RiskMeasure,
    RiskPlot, WaitNormalization,
};
use serde::{Deserialize, Serialize};

/// Separate risk measures for one (economic model, estimate set) grid.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GridAnalysis {
    /// Economic model analyzed.
    pub econ: EconomicModel,
    /// Estimate set analyzed.
    pub set: EstimateSet,
    /// Policy names, column order of `separate`.
    pub policy_names: Vec<String>,
    /// `separate[scenario][policy][objective]` — the per-scenario separate
    /// risk analysis (Eqs. 5–6) of each objective.
    pub separate: Vec<Vec<[RiskMeasure; 4]>>,
}

/// Index of an objective in the `[wait, SLA, reliability, profitability]`
/// arrays used throughout.
pub fn obj_index(o: Objective) -> usize {
    Objective::ALL
        .iter()
        .position(|x| *x == o)
        .expect("objective in ALL")
}

/// Normalizes each objective of one experiment point across the
/// policies: `row[policy]` holds the raw `[wait, SLA, reliability,
/// profitability]` and so does the result, normalized. The batch
/// analysis, the live board and the result store all normalize here.
pub(crate) fn normalize_point(row: &[[f64; 4]], scheme: WaitNormalization) -> Vec<[f64; 4]> {
    let mut norm = vec![[0.0f64; 4]; row.len()];
    for (oi, obj) in Objective::ALL.into_iter().enumerate() {
        let raw_across: Vec<f64> = row.iter().map(|objs| objs[oi]).collect();
        for (p, x) in normalize_with(obj, &raw_across, scheme)
            .into_iter()
            .enumerate()
        {
            norm[p][oi] = x;
        }
    }
    norm
}

/// Runs the separate risk analysis over a raw grid with the default wait
/// normalization (relative to the worst policy at each experiment point).
pub fn analyze(grid: &RawGrid) -> GridAnalysis {
    analyze_with(grid, WaitNormalization::default())
}

/// Runs the separate risk analysis under an explicit wait-normalization
/// scheme (see `ccs_risk::WaitNormalization` and EXPERIMENTS.md deviation
/// #1 — the scheme materially affects the integrated Set B comparisons).
pub fn analyze_with(grid: &RawGrid, scheme: WaitNormalization) -> GridAnalysis {
    let n_pol = grid.policies.len();
    let mut sep = Vec::with_capacity(Scenario::ALL.len());
    for s in 0..Scenario::ALL.len() {
        // normalized[policy][objective][value]
        let mut norm = vec![[[0.0f64; 6]; 4]; n_pol];
        for (v, row) in grid.raw[s].iter().enumerate() {
            for (p, objs) in normalize_point(row, scheme).into_iter().enumerate() {
                for (oi, x) in objs.into_iter().enumerate() {
                    norm[p][oi][v] = x;
                }
            }
        }
        let row: Vec<[RiskMeasure; 4]> = (0..n_pol)
            .map(|p| {
                [
                    separate(&norm[p][0]),
                    separate(&norm[p][1]),
                    separate(&norm[p][2]),
                    separate(&norm[p][3]),
                ]
            })
            .collect();
        sep.push(row);
    }
    GridAnalysis {
        econ: grid.econ,
        set: grid.set,
        policy_names: grid.policy_names().iter().map(|s| s.to_string()).collect(),
        separate: sep,
    }
}

impl GridAnalysis {
    /// Risk plot of the separate analysis of one objective: one point per
    /// scenario per policy (Figures 3 and 6).
    pub fn separate_plot(&self, obj: Objective) -> RiskPlot {
        let oi = obj_index(obj);
        let series = self
            .policy_names
            .iter()
            .enumerate()
            .map(|(p, name)| {
                PolicySeries::new(
                    name.clone(),
                    self.separate.iter().map(|row| row[p][oi]).collect(),
                )
            })
            .collect();
        RiskPlot::new(format!("{}: {}", self.set, obj.abbrev()), series)
    }

    /// Risk plot of the integrated analysis over `objs` with equal weights:
    /// one point per scenario per policy (Figures 4, 5, 7, 8).
    pub fn integrated_plot(&self, objs: &[Objective]) -> RiskPlot {
        let idx: Vec<usize> = objs.iter().map(|&o| obj_index(o)).collect();
        let series = self
            .policy_names
            .iter()
            .enumerate()
            .map(|(p, name)| {
                let points = self
                    .separate
                    .iter()
                    .map(|row| {
                        let parts: Vec<RiskMeasure> = idx.iter().map(|&oi| row[p][oi]).collect();
                        integrated_equal(&parts)
                    })
                    .collect();
                PolicySeries::new(name.clone(), points)
            })
            .collect();
        let names: Vec<&str> = objs.iter().map(|o| o.abbrev()).collect();
        RiskPlot::new(format!("{}: {}", self.set, names.join(", ")), series)
    }

    /// Separate measure of `policy` (by name) for `obj`, averaged over all
    /// scenarios — a convenient scalar summary for reports and tests.
    pub fn mean_performance(&self, policy: &str, obj: Objective) -> f64 {
        let p = self
            .policy_names
            .iter()
            .position(|n| n == policy)
            .unwrap_or_else(|| panic!("unknown policy {policy}"));
        let oi = obj_index(obj);
        self.separate
            .iter()
            .map(|row| row[p][oi].performance)
            .sum::<f64>()
            / self.separate.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{one_grid, ExperimentConfig};

    fn quick_analysis() -> GridAnalysis {
        let cfg = ExperimentConfig::quick().with_jobs(60);
        analyze(&one_grid(
            EconomicModel::CommodityMarket,
            EstimateSet::A,
            &cfg,
        ))
    }

    #[test]
    fn analysis_dimensions() {
        let a = quick_analysis();
        assert_eq!(a.separate.len(), Scenario::ALL.len());
        assert_eq!(a.separate[0].len(), 5);
        assert_eq!(a.policy_names.len(), 5);
    }

    #[test]
    fn separate_plot_has_point_per_scenario() {
        let a = quick_analysis();
        let plot = a.separate_plot(Objective::Sla);
        assert_eq!(plot.series.len(), 5);
        for s in &plot.series {
            assert_eq!(s.points.len(), Scenario::ALL.len());
            for p in &s.points {
                assert!((0.0..=1.0).contains(&p.performance));
                assert!((0.0..=0.5 + 1e-9).contains(&p.volatility));
            }
        }
    }

    #[test]
    fn integrated_plot_blends_measures() {
        let a = quick_analysis();
        let all4 = a.integrated_plot(&Objective::ALL);
        assert_eq!(all4.series[0].points.len(), Scenario::ALL.len());
        // Integrated of all four lies within the per-objective envelope.
        for (p, _) in a.policy_names.iter().enumerate() {
            for (s, row) in a.separate.iter().enumerate() {
                let perf = all4.series[p].points[s].performance;
                let lo = row[p]
                    .iter()
                    .map(|m| m.performance)
                    .fold(f64::INFINITY, f64::min);
                let hi = row[p]
                    .iter()
                    .map(|m| m.performance)
                    .fold(f64::NEG_INFINITY, f64::max);
                assert!(perf >= lo - 1e-9 && perf <= hi + 1e-9);
            }
        }
    }

    #[test]
    fn normalization_scheme_changes_wait_scores_only() {
        let cfg = ExperimentConfig::quick().with_jobs(60);
        let grid = one_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
        let default = analyze(&grid);
        let reciprocal = analyze_with(&grid, WaitNormalization::Reciprocal { scale: 8671.0 });
        for (rd, rr) in default.separate.iter().zip(&reciprocal.separate) {
            for (pd, pr) in rd.iter().zip(rr) {
                // The three percentage objectives are identical...
                for oi in 1..4 {
                    assert_eq!(pd[oi].performance, pr[oi].performance);
                }
            }
        }
        // ...while wait scores generally move (policies with queues).
        let d = default.mean_performance("FCFS-BF", Objective::Wait);
        let r = reciprocal.mean_performance("FCFS-BF", Objective::Wait);
        assert_ne!(d, r);
    }

    #[test]
    fn libra_family_has_ideal_wait() {
        // Libra examines jobs at submission: zero wait in every scenario.
        let a = quick_analysis();
        assert!((a.mean_performance("Libra", Objective::Wait) - 1.0).abs() < 1e-9);
        assert!((a.mean_performance("Libra+$", Objective::Wait) - 1.0).abs() < 1e-9);
    }
}
