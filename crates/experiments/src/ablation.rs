//! Ablation studies of the design choices called out in DESIGN.md.
//!
//! The paper makes several structural claims in passing; these experiments
//! isolate each one:
//!
//! - **Admission control** (paper Section 5.2: "we find that these policies
//!   without job admission control perform much worse, especially when
//!   deadlines of jobs are short") — `admission_control_ablation`.
//! - **EASY backfilling** — `backfilling_ablation` degrades the
//!   backfilling policies to plain priority scheduling.
//! - **Deadline escalation** in the proportional-share engine — the cascade
//!   mechanism by which under-estimates hurt the Libra family
//!   (`escalation_ablation`).
//! - **Libra+$ β** (the utilization-pricing weight; paper fixes β = 0.3) —
//!   `beta_sweep` traces the SLA-vs-profitability trade-off.
//! - **FirstReward slack threshold** (paper Section 5.2: "Setting the
//!   correct slack threshold is not trivial as the ideal slack threshold
//!   changes depending on the workload") — `slack_threshold_sweep`
//!   reproduces that sensitivity across workload levels.

use crate::scenario::{baseline, EstimateSet};
use ccs_economy::{EconomicModel, LibraDollarParams};
use ccs_policies::NodeSelection;
use ccs_policies::{
    backfill::BackfillOptions, BackfillPolicy, ConservativeBf, FirstRewardParams,
    FirstRewardPolicy, LibraPolicy, LibraVariant, Policy, PriorityOrder,
};
use ccs_simsvc::{Run, RunConfig, RunMetrics};
use ccs_workload::{apply_scenario, BaseJob, Job, ScenarioTransform};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One ablation variant's outcome.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AblationRow {
    /// Variant label, e.g. `"SJF-BF (no admission control)"`.
    pub label: String,
    /// Aggregate run metrics of the variant.
    pub metrics: RunMetrics,
}

/// A complete ablation study.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Ablation {
    /// Study title.
    pub title: String,
    /// What the study demonstrates.
    pub claim: String,
    /// One row per variant.
    pub rows: Vec<AblationRow>,
}

impl Ablation {
    /// Renders the study as an aligned text table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "=== {} ===", self.title);
        let _ = writeln!(s, "{}", self.claim);
        let _ = writeln!(
            s,
            "{:<42} {:>9} {:>8} {:>8} {:>11} {:>9}",
            "variant", "accepted", "SLA %", "wait (s)", "reliab. %", "profit %"
        );
        for r in &self.rows {
            let m = &r.metrics;
            let _ = writeln!(
                s,
                "{:<42} {:>9} {:>8.1} {:>8.0} {:>11.1} {:>9.1}",
                r.label,
                m.accepted,
                m.sla_pct(),
                m.wait(),
                m.reliability_pct(),
                m.profitability_pct()
            );
        }
        s
    }
}

fn jobs_for(base: &[BaseJob], t: &ScenarioTransform, seed: u64) -> Vec<Job> {
    apply_scenario(base, t, seed)
}

/// The metrics of one plain run of a hand-configured policy variant.
fn metrics_of(jobs: &[Job], policy: impl Policy + 'static, cfg: &RunConfig) -> RunMetrics {
    let out = Run::with_policy(jobs, Box::new(policy), cfg).execute();
    out.unwrap_or_else(|e| panic!("{e}")).result.metrics
}

/// Admission control on/off for the three backfilling policies, at the
/// default deadlines and at short deadlines (low-value mean 1).
pub(crate) fn admission_control_ablation(base: &[BaseJob], seed: u64, nodes: u32) -> Ablation {
    let cfg = RunConfig {
        nodes,
        econ: EconomicModel::CommodityMarket,
    };
    let mut rows = Vec::new();
    for (deadline_label, low_mean) in [("default deadlines", 4.0), ("short deadlines", 1.0)] {
        let mut t = baseline(EstimateSet::A);
        t.qos.deadline.low_mean = low_mean;
        let jobs = jobs_for(base, &t, seed);
        for order in [PriorityOrder::Fcfs, PriorityOrder::Sjf, PriorityOrder::Edf] {
            for (ac_label, admission_control) in [("with AC", true), ("no AC", false)] {
                let policy = BackfillPolicy::with_options(
                    order,
                    cfg.econ,
                    nodes,
                    BackfillOptions {
                        backfilling: true,
                        admission_control,
                    },
                );
                let name = policy.name();
                let metrics = metrics_of(&jobs, policy, &cfg);
                rows.push(AblationRow {
                    label: format!("{name} ({ac_label}, {deadline_label})"),
                    metrics,
                });
            }
        }
    }
    Ablation {
        title: "Generous admission control".into(),
        claim: "Paper Section 5.2: policies without job admission control perform \
                much worse, especially when deadlines of jobs are short."
            .into(),
        rows,
    }
}

/// EASY backfilling on/off for the three backfilling policies.
pub(crate) fn backfilling_ablation(base: &[BaseJob], seed: u64, nodes: u32) -> Ablation {
    let cfg = RunConfig {
        nodes,
        econ: EconomicModel::CommodityMarket,
    };
    let jobs = jobs_for(base, &baseline(EstimateSet::A), seed);
    let mut rows = Vec::new();
    for order in [PriorityOrder::Fcfs, PriorityOrder::Sjf, PriorityOrder::Edf] {
        for (label, backfilling) in [("EASY", true), ("no backfill", false)] {
            let policy = BackfillPolicy::with_options(
                order,
                cfg.econ,
                nodes,
                BackfillOptions {
                    backfilling,
                    admission_control: true,
                },
            );
            let name = policy.name();
            let metrics = metrics_of(&jobs, policy, &cfg);
            rows.push(AblationRow {
                label: format!("{name} ({label})"),
                metrics,
            });
        }
    }
    Ablation {
        title: "EASY backfilling".into(),
        claim: "Backfilling raises utilization and fulfilled SLAs over plain \
                priority scheduling with head-of-line blocking."
            .into(),
        rows,
    }
}

/// Deadline escalation on/off for the Libra family under trace estimates.
pub(crate) fn escalation_ablation(base: &[BaseJob], seed: u64, nodes: u32) -> Ablation {
    let cfg = RunConfig {
        nodes,
        econ: EconomicModel::BidBased,
    };
    let jobs = jobs_for(base, &baseline(EstimateSet::B), seed);
    let mut rows = Vec::new();
    for (label, escalation) in [("escalation on", true), ("escalation off", false)] {
        for variant in [LibraVariant::Plain, LibraVariant::RiskD] {
            let policy = LibraPolicy::with_engine(variant, cfg.econ, nodes, escalation);
            let name = policy.name();
            let metrics = metrics_of(&jobs, policy, &cfg);
            rows.push(AblationRow {
                label: format!("{name} ({label})"),
                metrics,
            });
        }
    }
    Ablation {
        title: "Proportional-share deadline escalation (Set B)".into(),
        claim: "The cascade by which overdue under-estimated jobs squeeze \
                co-residents; without it the Libra family's Set B reliability \
                loss shrinks to the self-inflicted misses."
            .into(),
        rows,
    }
}

/// Sweeps Libra+$'s utilization-pricing weight β.
pub(crate) fn beta_sweep(base: &[BaseJob], seed: u64, nodes: u32, betas: &[f64]) -> Ablation {
    let cfg = RunConfig {
        nodes,
        econ: EconomicModel::CommodityMarket,
    };
    let jobs = jobs_for(base, &baseline(EstimateSet::A), seed);
    let rows = betas
        .iter()
        .map(|&beta| {
            let policy = LibraPolicy::new(LibraVariant::Dollar, cfg.econ, nodes)
                .with_dollar_params(LibraDollarParams {
                    beta,
                    ..Default::default()
                });
            let metrics = metrics_of(&jobs, policy, &cfg);
            AblationRow {
                label: format!("Libra+$ β = {beta}"),
                metrics,
            }
        })
        .collect();
    Ablation {
        title: "Libra+$ pricing weight β".into(),
        claim: "Raising β prices out more jobs (SLA falls) while revenue per \
                accepted budget rises — the paper fixes β = 0.3."
            .into(),
        rows,
    }
}

/// Sweeps FirstReward's slack threshold across workload levels.
pub(crate) fn slack_threshold_sweep(
    base: &[BaseJob],
    seed: u64,
    nodes: u32,
    thresholds: &[f64],
) -> Ablation {
    let cfg = RunConfig {
        nodes,
        econ: EconomicModel::BidBased,
    };
    let mut rows = Vec::new();
    for (load_label, factor) in [("heavy load", 0.1), ("light load", 1.0)] {
        let mut t = baseline(EstimateSet::B);
        t.arrival_delay_factor = factor;
        let jobs = jobs_for(base, &t, seed);
        for &threshold in thresholds {
            let policy = FirstRewardPolicy::with_params(
                nodes,
                FirstRewardParams {
                    slack_threshold: threshold,
                    ..Default::default()
                },
            );
            let metrics = metrics_of(&jobs, policy, &cfg);
            rows.push(AblationRow {
                label: format!("FirstReward slack ≥ {threshold} ({load_label})"),
                metrics,
            });
        }
    }
    Ablation {
        title: "FirstReward slack threshold".into(),
        claim: "Paper Section 5.2: the ideal slack threshold changes with the \
                workload — a threshold tuned for one load is wrong for another."
            .into(),
        rows,
    }
}

/// EASY vs conservative backfilling (Mu'alem & Feitelson, the paper's
/// reference \[19\]) under accurate and trace estimates.
pub(crate) fn easy_vs_conservative(base: &[BaseJob], seed: u64, nodes: u32) -> Ablation {
    let cfg = RunConfig {
        nodes,
        econ: EconomicModel::CommodityMarket,
    };
    let mut rows = Vec::new();
    for (set, set_label) in [(EstimateSet::A, "Set A"), (EstimateSet::B, "Set B")] {
        let jobs = jobs_for(base, &baseline(set), seed);
        let easy = BackfillPolicy::new(PriorityOrder::Fcfs, cfg.econ, nodes);
        rows.push(AblationRow {
            label: format!("FCFS-BF / EASY ({set_label})"),
            metrics: metrics_of(&jobs, easy, &cfg),
        });
        let cons = ConservativeBf::new(cfg.econ, nodes);
        rows.push(AblationRow {
            label: format!("Cons-BF / conservative ({set_label})"),
            metrics: metrics_of(&jobs, cons, &cfg),
        });
    }
    Ablation {
        title: "EASY vs conservative backfilling".into(),
        claim: "Conservative backfilling reserves a start for every queued \
                job (predictability) at some cost in packing; EASY protects \
                only the queue head (utilization)."
            .into(),
        rows,
    }
}

/// Computation-at-Risk comparison (the related-work method of paper refs
/// \[15\]\[16\]): per-policy CaR summaries of makespan and slowdown tails,
/// computed on the same runs the risk analysis grades.
pub fn car_comparison(base: &[BaseJob], seed: u64, nodes: u32) -> String {
    use ccs_risk::car::{analyze as car_analyze, CarMetric};
    use ccs_simsvc::samples::{response_times, slowdowns};

    let cfg = RunConfig {
        nodes,
        econ: EconomicModel::BidBased,
    };
    let jobs = jobs_for(base, &baseline(EstimateSet::B), seed);
    let mut s =
        String::from("=== Computation-at-Risk (Kleban & Clearwater) on bid-based Set B runs ===\n");
    for kind in ccs_policies::PolicyKind::BID_BASED {
        let res = ccs_simsvc::simulate(&jobs, kind, &cfg);
        let rt = response_times(&jobs, &res.records);
        let sd = slowdowns(&jobs, &res.records);
        if rt.is_empty() {
            let _ = writeln!(s, "{:<12} no completed jobs", kind.name());
            continue;
        }
        let _ = writeln!(
            s,
            "{:<12} {}",
            kind.name(),
            car_analyze(CarMetric::Makespan, &rt)
        );
        let _ = writeln!(s, "{:<12} {}", "", car_analyze(CarMetric::Slowdown, &sd));
    }
    s
}

/// Best-fit vs worst-fit node selection for Libra (the placement strategies
/// the original Libra paper compares), plus a heterogeneous cluster with the
/// same aggregate capacity as the homogeneous baseline.
pub(crate) fn placement_ablation(base: &[BaseJob], seed: u64, nodes: u32) -> Ablation {
    let cfg = RunConfig {
        nodes,
        econ: EconomicModel::BidBased,
    };
    let jobs = jobs_for(base, &baseline(EstimateSet::A), seed);
    let mut rows = Vec::new();
    for (label, selection) in [
        ("best fit", NodeSelection::BestFit),
        ("worst fit", NodeSelection::WorstFit),
    ] {
        let policy =
            LibraPolicy::new(LibraVariant::Plain, cfg.econ, nodes).with_selection(selection);
        rows.push(AblationRow {
            label: format!("Libra ({label}, homogeneous)"),
            metrics: metrics_of(&jobs, policy, &cfg),
        });
    }
    // Heterogeneous: half the nodes at 0.5x, half at 1.5x (same total).
    let mut ratings = vec![0.5; nodes as usize / 2];
    ratings.extend(vec![1.5; nodes as usize - nodes as usize / 2]);
    let policy = LibraPolicy::with_ratings(LibraVariant::Plain, cfg.econ, ratings);
    rows.push(AblationRow {
        label: "Libra (best fit, heterogeneous 0.5x/1.5x)".into(),
        metrics: metrics_of(&jobs, policy, &cfg),
    });
    Ablation {
        title: "Libra node selection and cluster heterogeneity".into(),
        claim: "Best fit saturates nodes, preserving whole free nodes for \
                demanding jobs; worst fit fragments shares. A heterogeneous \
                cluster of equal aggregate capacity shifts tight-deadline \
                jobs onto the fast nodes."
            .into(),
        rows,
    }
}

/// Flat vs time-of-use commodity pricing on a diurnal (office-hours)
/// workload — the "prices can be flat or variable" option of paper
/// Section 5.1 that the evaluated policies leave unexplored.
pub(crate) fn pricing_schedule_ablation(base: &[BaseJob], seed: u64, nodes: u32) -> Ablation {
    use ccs_economy::PriceSchedule;
    use ccs_workload::{apply_diurnal, DiurnalProfile};

    let cfg = RunConfig {
        nodes,
        econ: EconomicModel::CommodityMarket,
    };
    let diurnal = apply_diurnal(base, &DiurnalProfile::office_hours(6.0), seed);
    let jobs = jobs_for(&diurnal, &baseline(EstimateSet::A), seed);
    let mut rows = Vec::new();
    for (label, schedule) in [
        ("flat $1", PriceSchedule::Flat(1.0)),
        (
            "TOU $2 peak / $0.5 off-peak",
            PriceSchedule::PeakOffPeak {
                peak: 2.0,
                off_peak: 0.5,
                peak_start_hour: 9,
                peak_end_hour: 17,
            },
        ),
    ] {
        let policy =
            BackfillPolicy::new(PriorityOrder::Sjf, cfg.econ, nodes).with_schedule(schedule);
        let metrics = metrics_of(&jobs, policy, &cfg);
        rows.push(AblationRow {
            label: format!("SJF-BF ({label})"),
            metrics,
        });
    }
    Ablation {
        title: "Flat vs variable (time-of-use) commodity pricing".into(),
        claim: "Variable pricing extracts more revenue from a diurnal \
                workload whose arrivals concentrate in the peak window, at \
                the cost of pricing some peak jobs out of their budgets."
            .into(),
        rows,
    }
}

/// Runs every ablation at the given scale.
pub fn run_all(base: &[BaseJob], seed: u64, nodes: u32) -> Vec<Ablation> {
    vec![
        admission_control_ablation(base, seed, nodes),
        backfilling_ablation(base, seed, nodes),
        escalation_ablation(base, seed, nodes),
        beta_sweep(base, seed, nodes, &[0.0, 0.1, 0.3, 0.6, 1.0]),
        slack_threshold_sweep(base, seed, nodes, &[-1e6, 0.0, 25.0, 1e4, 1e6]),
        easy_vs_conservative(base, seed, nodes),
        pricing_schedule_ablation(base, seed, nodes),
        placement_ablation(base, seed, nodes),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_workload::SdscSp2Model;

    fn base() -> Vec<BaseJob> {
        SdscSp2Model {
            jobs: 250,
            ..Default::default()
        }
        .generate(42)
    }

    #[test]
    fn admission_control_matters_most_with_short_deadlines() {
        let a = admission_control_ablation(&base(), 42, 128);
        assert_eq!(a.rows.len(), 12);
        // Compare SJF with/without AC at short deadlines: reliability must
        // collapse without admission control.
        let find = |label: &str| {
            a.rows
                .iter()
                .find(|r| r.label.contains(label))
                .unwrap_or_else(|| panic!("{label} missing"))
                .metrics
        };
        let with_ac = find("SJF-BF (with AC, short deadlines)");
        let without = find("SJF-BF (no AC, short deadlines)");
        assert!(
            without.reliability_pct() < with_ac.reliability_pct() - 10.0,
            "no-AC reliability {} should collapse vs {}",
            without.reliability_pct(),
            with_ac.reliability_pct()
        );
    }

    #[test]
    fn backfilling_helps_fulfilment() {
        let a = backfilling_ablation(&base(), 42, 128);
        let easy: u32 = a
            .rows
            .iter()
            .filter(|r| r.label.contains("EASY"))
            .map(|r| r.metrics.fulfilled)
            .sum();
        let plain: u32 = a
            .rows
            .iter()
            .filter(|r| r.label.contains("no backfill"))
            .map(|r| r.metrics.fulfilled)
            .sum();
        assert!(easy >= plain, "EASY {easy} vs plain {plain}");
    }

    #[test]
    fn beta_zero_is_cheapest_and_most_accepting() {
        let a = beta_sweep(&base(), 42, 128, &[0.0, 1.0]);
        assert!(a.rows[0].metrics.accepted >= a.rows[1].metrics.accepted);
    }

    #[test]
    fn slack_threshold_extremes_bracket_acceptance() {
        let b = base();
        let a = slack_threshold_sweep(&b, 42, 128, &[-1e9, 1e9]);
        // Threshold -inf accepts everything feasible; +inf accepts nothing.
        let lenient = &a.rows[0].metrics;
        let strict = &a.rows[1].metrics;
        assert!(lenient.accepted > 0);
        assert_eq!(strict.accepted, 0);
    }

    #[test]
    fn renders_as_table() {
        let a = backfilling_ablation(&base(), 42, 64);
        let text = a.render();
        assert!(text.contains("EASY backfilling"));
        assert!(text.lines().count() >= 8);
    }
}
