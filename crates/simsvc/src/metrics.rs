//! Run-level metrics and the four objective measures (paper Section 3).

use serde::{Deserialize, Serialize};

/// Aggregate counters of one simulation run, from which the paper's four
/// objectives are computed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// `m` — jobs submitted to the computing service.
    pub submitted: u32,
    /// `n` — jobs accepted (SLA accepted).
    pub accepted: u32,
    /// `nSLA` — jobs whose SLA was fulfilled (completed within deadline).
    pub fulfilled: u32,
    /// Σ over fulfilled jobs of `(start − submit)` (seconds).
    pub wait_sum_fulfilled: f64,
    /// Σ utility earned over accepted jobs (dollars; can be negative in the
    /// bid-based model because penalties are unbounded).
    pub utility_total: f64,
    /// Σ budgets over all submitted jobs (dollars).
    pub budget_total: f64,
    /// Σ delay past deadline over accepted jobs (seconds) — extra
    /// diagnostic, not one of the four objectives.
    pub delay_sum: f64,
    /// Interruption events: a running job preempted by a node failure
    /// (one job interrupted twice counts twice). 0 without fault injection.
    pub interrupted: u32,
    /// Interrupted jobs re-admitted for another attempt.
    pub restarts: u32,
    /// Accepted jobs the service gave up on after interruptions (deadline
    /// lapsed or restart budget spent). They stay in `accepted` but never
    /// reach `fulfilled`, so they depress reliability (Eq. 3).
    pub aborted: u32,
    /// Node-down events delivered by the failure process.
    pub node_failures: u32,
    /// Node-up (repair) events delivered by the failure process.
    pub node_repairs: u32,
}

impl RunMetrics {
    /// The `wait` objective (Eq. 1): mean wait time for SLA acceptance over
    /// fulfilled jobs, in seconds. Zero when no job was fulfilled (the
    /// minimum/ideal value).
    pub fn wait(&self) -> f64 {
        if self.fulfilled == 0 {
            0.0
        } else {
            self.wait_sum_fulfilled / self.fulfilled as f64
        }
    }

    /// The `SLA` objective (Eq. 2): percentage of submitted jobs fulfilled.
    pub fn sla_pct(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.fulfilled as f64 / self.submitted as f64 * 100.0
        }
    }

    /// The `reliability` objective (Eq. 3): percentage of *accepted* jobs
    /// fulfilled. A service that accepted nothing broke no promises, so the
    /// empty case is defined as 100 %.
    pub fn reliability_pct(&self) -> f64 {
        if self.accepted == 0 {
            100.0
        } else {
            self.fulfilled as f64 / self.accepted as f64 * 100.0
        }
    }

    /// The `profitability` objective (Eq. 4): utility earned as a percentage
    /// of the total submitted budget. Clamped below at 0 (a run whose
    /// penalties exceed its earnings achieved none of the attainable
    /// profit).
    pub fn profitability_pct(&self) -> f64 {
        if self.budget_total <= 0.0 {
            0.0
        } else {
            (self.utility_total / self.budget_total * 100.0).max(0.0)
        }
    }

    /// All four objectives in paper order: `[wait, SLA, reliability,
    /// profitability]` — wait in seconds, the rest in percent.
    pub fn objectives(&self) -> [f64; 4] {
        [
            self.wait(),
            self.sla_pct(),
            self.reliability_pct(),
            self.profitability_pct(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_run_is_degenerate_but_defined() {
        let m = RunMetrics::default();
        assert_eq!(m.wait(), 0.0);
        assert_eq!(m.sla_pct(), 0.0);
        assert_eq!(m.reliability_pct(), 100.0);
        assert_eq!(m.profitability_pct(), 0.0);
    }

    #[test]
    fn objective_formulas() {
        let m = RunMetrics {
            submitted: 10,
            accepted: 8,
            fulfilled: 6,
            wait_sum_fulfilled: 120.0,
            utility_total: 250.0,
            budget_total: 1000.0,
            ..Default::default()
        };
        assert_eq!(m.wait(), 20.0);
        assert_eq!(m.sla_pct(), 60.0);
        assert_eq!(m.reliability_pct(), 75.0);
        assert_eq!(m.profitability_pct(), 25.0);
        assert_eq!(m.objectives(), [20.0, 60.0, 75.0, 25.0]);
    }

    #[test]
    fn negative_utility_clamps_profitability() {
        let m = RunMetrics {
            submitted: 2,
            accepted: 2,
            fulfilled: 0,
            wait_sum_fulfilled: 0.0,
            utility_total: -500.0,
            budget_total: 100.0,
            delay_sum: 10.0,
            ..Default::default()
        };
        assert_eq!(m.profitability_pct(), 0.0);
    }

    #[test]
    fn degenerate_denominators_never_produce_nan() {
        // Eq. 1 over zero fulfilled jobs and Eq. 4 over zero (or negative)
        // total budget are *defined* as 0 — NaN must never escape into
        // normalisation or the SVG plots.
        for m in [
            RunMetrics::default(),
            RunMetrics {
                submitted: 5,
                accepted: 3,
                fulfilled: 0,
                utility_total: 42.0,
                budget_total: 0.0,
                ..Default::default()
            },
            RunMetrics {
                submitted: 5,
                budget_total: -1.0,
                ..Default::default()
            },
        ] {
            for v in m.objectives() {
                assert!(v.is_finite(), "objective {v} not finite for {m:?}");
            }
        }
    }
}
