//! Run-level metrics and the four objective measures (paper Section 3).

use ccs_des::{FastHashMap, FastHashSet};
use ccs_economy::{bid_utility, EconomicModel};
use ccs_policies::Outcome;
use ccs_workload::{Job, JobId};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

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

/// What one completion added: whether it met its SLA, the utility earned,
/// and the wait from submission to first start (Eq. 1 counts it if met).
pub(crate) struct Completion {
    pub fulfilled: bool,
    pub utility: f64,
    pub wait: f64,
}

/// The one fold of an outcome stream into [`RunMetrics`] (Eqs. 1–4), fed
/// by both the runner's batch post-pass and the streaming
/// [`crate::LiveRunStats`], so the two agree bit for bit. It reads the
/// live stream's restart (a second `Accepted` of an interrupted job) and
/// failed restart (its `Rejected`) as the batch stream's `Restarted` and
/// `Aborted`. It keeps each job as a `J`: a borrow in the post-pass, a
/// copy in the observer, which outlives the run's job slice.
#[derive(Clone, Debug)]
pub(crate) struct MetricsFold<J> {
    econ: EconomicModel,
    pub jobs: FastHashMap<JobId, J>,
    interrupted: FastHashSet<JobId>,
    /// First start per job: a restart keeps the one Eq. 1 measures to.
    pub first_start: FastHashMap<JobId, f64>,
    pub metrics: RunMetrics,
}

impl<J: Borrow<Job>> MetricsFold<J> {
    /// The fold of `jobs` under `econ` before any outcome; `keep` makes a `J`.
    pub(crate) fn new<'j>(jobs: &'j [Job], econ: EconomicModel, keep: fn(&'j Job) -> J) -> Self {
        MetricsFold {
            econ,
            jobs: jobs.iter().map(|j| (j.id, keep(j))).collect(),
            interrupted: FastHashSet::default(),
            first_start: FastHashMap::default(),
            metrics: RunMetrics {
                submitted: jobs.len() as u32,
                budget_total: jobs.iter().map(|j| j.budget).sum(),
                ..Default::default()
            },
        }
    }

    /// Folds one outcome; a completion also returns what it added.
    pub(crate) fn fold(&mut self, outcome: &Outcome) -> Option<Completion> {
        let m = &mut self.metrics;
        match *outcome {
            Outcome::Accepted { job, .. } if self.interrupted.contains(&job) => m.restarts += 1,
            Outcome::Accepted { .. } => m.accepted += 1,
            Outcome::Rejected { job, .. } if self.interrupted.contains(&job) => m.aborted += 1,
            Outcome::Rejected { .. } => {}
            Outcome::Started { job, at } => {
                self.first_start.entry(job).or_insert(at);
            }
            Outcome::Completed {
                job,
                start,
                finish,
                charged,
            } => {
                let j: &Job = self.jobs[&job].borrow();
                let fulfilled = j.fulfilled_by(finish);
                let utility = match self.econ {
                    EconomicModel::CommodityMarket => {
                        charged.expect("commodity completion must carry its charge")
                    }
                    EconomicModel::BidBased => bid_utility(j, finish),
                };
                m.utility_total += utility;
                m.delay_sum += j.delay_at(finish);
                let wait = (*self.first_start.entry(job).or_insert(start) - j.submit).max(0.0);
                if fulfilled {
                    m.fulfilled += 1;
                    m.wait_sum_fulfilled += wait;
                }
                return Some(Completion {
                    fulfilled,
                    utility,
                    wait,
                });
            }
            Outcome::Interrupted { job, .. } => {
                self.interrupted.insert(job);
                m.interrupted += 1;
            }
            Outcome::Restarted { .. } => m.restarts += 1,
            Outcome::Aborted { .. } => m.aborted += 1,
            Outcome::NodeFailed { .. } => m.node_failures += 1,
            Outcome::NodeRepaired { .. } => m.node_repairs += 1,
        }
        None
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
