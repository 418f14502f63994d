//! The experiment scenarios: the twelve of paper Table VI plus a
//! failure-rate extension.
//!
//! Each scenario sweeps one experimental parameter across six values while
//! everything else stays at its default: job mix (% high-urgency), workload
//! (arrival-delay factor), runtime-estimate inaccuracy, and — for each of
//! the deadline, budget, and penalty attributes — bias, high:low ratio, and
//! low-value mean. The thirteenth scenario, [`Scenario::FailureRate`],
//! leaves the workload at its defaults and instead injects node failures at
//! increasing per-node rates (see [`Scenario::fault`]); its zero-rate point
//! is the exact fault-free baseline.
//!
//! Two experiment sets differ only in the *default* estimate inaccuracy:
//! Set A assumes accurate estimates (0 %), Set B the trace's own estimates
//! (100 %).

use ccs_simsvc::FaultConfig;
use ccs_workload::{QosConfig, ScenarioTransform};
use serde::{Deserialize, Serialize};

/// Experiment set (paper Section 5.4).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize, Hash)]
pub enum EstimateSet {
    /// Accurate runtime estimates (0 % inaccuracy).
    A,
    /// Actual (trace) runtime estimates (100 % inaccuracy).
    B,
}

impl EstimateSet {
    /// Both sets, in paper order.
    pub const ALL: [EstimateSet; 2] = [EstimateSet::A, EstimateSet::B];

    /// The set's default inaccuracy percentage.
    pub(crate) fn default_inaccuracy(self) -> f64 {
        match self {
            EstimateSet::A => 0.0,
            EstimateSet::B => 100.0,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            EstimateSet::A => "Set A",
            EstimateSet::B => "Set B",
        }
    }
}

impl std::fmt::Display for EstimateSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which QoS attribute a bias/ratio/mean scenario varies.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize, Hash)]
pub enum QosAttr {
    /// The deadline factor.
    Deadline,
    /// The budget factor.
    Budget,
    /// The penalty-rate factor.
    Penalty,
}

/// One of the experiment scenarios (paper Table VI rows plus the
/// failure-rate extension).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize, Hash)]
pub enum Scenario {
    /// Varying percentage of high-urgency jobs.
    JobMix,
    /// Varying arrival-delay factor (workload level).
    Workload,
    /// Varying percentage of runtime-estimate inaccuracy.
    Inaccuracy,
    /// Varying bias of one QoS attribute.
    Bias(QosAttr),
    /// Varying high:low ratio of one QoS attribute.
    Ratio(QosAttr),
    /// Varying low-value mean of one QoS attribute.
    LowMean(QosAttr),
    /// Varying per-node failure rate (failures per node-week) with
    /// exponential repairs — the fault-injection extension. The workload
    /// stays at the set's defaults; only the cluster's weather changes.
    FailureRate,
}

impl Scenario {
    /// All scenarios, in a fixed order (plot point order): the paper's
    /// twelve followed by the failure-rate extension.
    pub const ALL: [Scenario; 13] = [
        Scenario::JobMix,
        Scenario::Workload,
        Scenario::Inaccuracy,
        Scenario::Bias(QosAttr::Deadline),
        Scenario::Bias(QosAttr::Budget),
        Scenario::Bias(QosAttr::Penalty),
        Scenario::Ratio(QosAttr::Deadline),
        Scenario::Ratio(QosAttr::Budget),
        Scenario::Ratio(QosAttr::Penalty),
        Scenario::LowMean(QosAttr::Deadline),
        Scenario::LowMean(QosAttr::Budget),
        Scenario::LowMean(QosAttr::Penalty),
        Scenario::FailureRate,
    ];

    /// The paper's original twelve scenarios (Table VI), excluding the
    /// failure-rate extension.
    #[cfg(test)]
    pub(crate) fn paper() -> &'static [Scenario] {
        &Scenario::ALL[..12]
    }

    /// The six varying values of this scenario (Table VI columns).
    pub fn values(self) -> [f64; 6] {
        match self {
            Scenario::JobMix => [0.0, 20.0, 40.0, 60.0, 80.0, 100.0],
            Scenario::Workload => [0.02, 0.10, 0.25, 0.50, 0.75, 1.00],
            Scenario::Inaccuracy => [0.0, 20.0, 40.0, 60.0, 80.0, 100.0],
            Scenario::Bias(_) | Scenario::Ratio(_) | Scenario::LowMean(_) => {
                [1.0, 2.0, 4.0, 6.0, 8.0, 10.0]
            }
            Scenario::FailureRate => [0.0, 0.25, 0.5, 1.0, 2.0, 4.0],
        }
    }

    /// Human-readable label (figure legends, reports).
    pub fn label(self) -> String {
        let attr = |a: QosAttr| match a {
            QosAttr::Deadline => "deadline",
            QosAttr::Budget => "budget",
            QosAttr::Penalty => "penalty",
        };
        match self {
            Scenario::JobMix => "job mix (% high urgency)".to_string(),
            Scenario::Workload => "workload (arrival delay factor)".to_string(),
            Scenario::Inaccuracy => "inaccuracy of runtime estimates (%)".to_string(),
            Scenario::Bias(a) => format!("{} bias", attr(a)),
            Scenario::Ratio(a) => format!("{} high:low ratio", attr(a)),
            Scenario::LowMean(a) => format!("{} low-value mean", attr(a)),
            Scenario::FailureRate => "failure rate (node failures/week)".to_string(),
        }
    }

    /// Builds the scenario transform for one experiment point: the set's
    /// defaults with this scenario's parameter overridden to `value`.
    pub fn transform(self, set: EstimateSet, value: f64) -> ScenarioTransform {
        let mut t = baseline(set);
        match self {
            Scenario::JobMix => t.qos.pct_high_urgency = value,
            Scenario::Workload => t.arrival_delay_factor = value,
            Scenario::Inaccuracy => t.inaccuracy_pct = value,
            Scenario::Bias(a) => attr_mut(&mut t.qos, a).bias = value,
            Scenario::Ratio(a) => attr_mut(&mut t.qos, a).high_low_ratio = value,
            Scenario::LowMean(a) => attr_mut(&mut t.qos, a).low_mean = value,
            // Failure rate varies the *cluster*, not the workload: the jobs
            // are the set's exact baseline so the zero-rate point reproduces
            // the fault-free results bit for bit.
            Scenario::FailureRate => {}
        }
        t
    }

    /// Failure-injection configuration for one experiment point: `Some` only
    /// for [`Scenario::FailureRate`] with a nonzero rate. `value` is
    /// failures per node-week (exponential MTBF = week ÷ value, exponential
    /// MTTR = 2 h, restart-from-scratch, at most 3 restarts per job). The
    /// fault seed mixes `seed` with a fixed tag so the failure timeline is
    /// independent of workload sampling, and is the same for every policy
    /// facing the same experiment point — competing policies see identical
    /// weather.
    pub fn fault(self, value: f64, seed: u64) -> Option<FaultConfig> {
        const WEEK_SECS: f64 = 7.0 * 24.0 * 3600.0;
        const FAULT_SEED_TAG: u64 = 0xFA11_7AB1_E5EE_D001;
        match self {
            Scenario::FailureRate if value > 0.0 => Some(FaultConfig::exponential(
                seed ^ FAULT_SEED_TAG,
                WEEK_SECS / value,
                2.0 * 3600.0,
            )),
            _ => None,
        }
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

fn attr_mut(qos: &mut QosConfig, a: QosAttr) -> &mut ccs_workload::FactorSpec {
    match a {
        QosAttr::Deadline => &mut qos.deadline,
        QosAttr::Budget => &mut qos.budget,
        QosAttr::Penalty => &mut qos.penalty,
    }
}

/// The default (all-underlined) experiment settings of `set`
/// (paper Table VI; the exact defaults are documented in DESIGN.md §4).
pub fn baseline(set: EstimateSet) -> ScenarioTransform {
    ScenarioTransform {
        qos: QosConfig::default(), // 20 % high urgency; bias 2, ratio 4, mean 4
        arrival_delay_factor: 0.25,
        inaccuracy_pct: set.default_inaccuracy(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_scenarios_six_values_each() {
        assert_eq!(Scenario::ALL.len(), 13);
        assert_eq!(Scenario::paper().len(), 12);
        assert!(!Scenario::paper().contains(&Scenario::FailureRate));
        for s in Scenario::ALL {
            assert_eq!(s.values().len(), 6);
        }
    }

    #[test]
    fn failure_rate_scenario_shape() {
        // First point is the exact fault-free baseline ...
        assert_eq!(Scenario::FailureRate.values()[0], 0.0);
        assert!(Scenario::FailureRate.fault(0.0, 42).is_none());
        // ... every other scenario never injects faults ...
        for s in Scenario::paper() {
            assert!(s.fault(10.0, 42).is_none(), "{s:?}");
        }
        // ... and nonzero rates yield a validated config whose MTBF scales
        // inversely with the rate.
        let f1 = Scenario::FailureRate.fault(1.0, 42).unwrap();
        let f4 = Scenario::FailureRate.fault(4.0, 42).unwrap();
        f1.validate().unwrap();
        assert!((f1.mtbf.mean() / f4.mtbf.mean() - 4.0).abs() < 1e-9);
        assert_eq!(f1.seed, f4.seed, "same weather seed across the sweep");
        // The transform itself is the untouched baseline.
        let t = Scenario::FailureRate.transform(EstimateSet::A, 4.0);
        let b = baseline(EstimateSet::A);
        assert_eq!(t.arrival_delay_factor, b.arrival_delay_factor);
        assert_eq!(t.inaccuracy_pct, b.inaccuracy_pct);
        assert_eq!(t.qos.pct_high_urgency, b.qos.pct_high_urgency);
    }

    #[test]
    fn table_vi_values() {
        assert_eq!(
            Scenario::Workload.values(),
            [0.02, 0.10, 0.25, 0.50, 0.75, 1.00]
        );
        assert_eq!(
            Scenario::JobMix.values(),
            [0.0, 20.0, 40.0, 60.0, 80.0, 100.0]
        );
        assert_eq!(
            Scenario::Bias(QosAttr::Deadline).values(),
            [1.0, 2.0, 4.0, 6.0, 8.0, 10.0]
        );
    }

    #[test]
    fn sets_differ_only_in_inaccuracy_default() {
        let a = baseline(EstimateSet::A);
        let b = baseline(EstimateSet::B);
        assert_eq!(a.inaccuracy_pct, 0.0);
        assert_eq!(b.inaccuracy_pct, 100.0);
        assert_eq!(a.arrival_delay_factor, b.arrival_delay_factor);
        assert_eq!(a.qos.pct_high_urgency, b.qos.pct_high_urgency);
    }

    #[test]
    fn transform_overrides_only_its_parameter() {
        let t = Scenario::JobMix.transform(EstimateSet::A, 80.0);
        assert_eq!(t.qos.pct_high_urgency, 80.0);
        assert_eq!(t.arrival_delay_factor, 0.25);

        let t = Scenario::Ratio(QosAttr::Budget).transform(EstimateSet::B, 10.0);
        assert_eq!(t.qos.budget.high_low_ratio, 10.0);
        assert_eq!(t.qos.deadline.high_low_ratio, 4.0, "others stay default");
        assert_eq!(t.inaccuracy_pct, 100.0);

        let t = Scenario::Inaccuracy.transform(EstimateSet::B, 20.0);
        assert_eq!(
            t.inaccuracy_pct, 20.0,
            "scenario value overrides the set default"
        );
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<String> =
            Scenario::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 13);
    }
}
