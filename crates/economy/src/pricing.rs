//! Commodity-market pricing functions (paper Section 5.2).
//!
//! All prices are quoted from the *runtime estimate* — the provider cannot
//! observe the true runtime before execution, so over-estimation inflates
//! commodity revenue and under-estimation deflates it, exactly as the paper
//! discusses for Set B.

use ccs_workload::qos::BASE_PRICE;
use ccs_workload::Job;
use serde::{Deserialize, Serialize};

/// Flat cost charged by FCFS-BF / SJF-BF / EDF-BF: the base price applied to
/// the estimated processor-seconds: `tr_i · procs_i · PBase`.
#[inline]
pub fn base_cost(job: &Job) -> f64 {
    job.estimate * job.procs as f64 * BASE_PRICE
}

/// Parameters of Libra's static deadline-incentive pricing
/// `cost = (γ·tr + δ·tr/d) · procs` — longer jobs pay more (γ term) and
/// tighter deadlines pay more (δ term), rewarding relaxed deadlines.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LibraParams {
    /// Weight of the runtime component.
    pub gamma: f64,
    /// Weight of the deadline-incentive component.
    pub delta: f64,
}

impl Default for LibraParams {
    fn default() -> Self {
        // Paper: "For the experiments, both γ and δ are 1."
        LibraParams {
            gamma: 1.0,
            delta: 1.0,
        }
    }
}

/// Libra's cost for a job (per its estimate and relative deadline).
#[inline]
pub fn libra_cost(job: &Job, p: &LibraParams) -> f64 {
    let tr = job.estimate;
    let d = job.deadline.max(f64::MIN_POSITIVE);
    (p.gamma * tr + p.delta * tr / d) * job.procs as f64 * BASE_PRICE
}

/// Parameters of Libra+$'s utilization-adaptive pricing
/// `P_ij = α·PBase_j + β·PUtil_ij` with
/// `PUtil_ij = RESMax_j / RESFree_ij · PBase_j`.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LibraDollarParams {
    /// Weight of the static component.
    pub alpha: f64,
    /// Weight of the utilization-adaptive component.
    pub beta: f64,
    /// Floor on the free-capacity fraction, bounding the price spike of a
    /// nearly saturated node.
    pub min_free_fraction: f64,
}

impl Default for LibraDollarParams {
    fn default() -> Self {
        // Paper: "For the experiments, α is 1 and β is 0.3."
        LibraDollarParams {
            alpha: 1.0,
            beta: 0.3,
            min_free_fraction: 0.1,
        }
    }
}

/// Libra+$'s per-processor-second price on a node whose free share fraction
/// *after committing the job in question* is `free_share_after`
/// (`RESFree/RESMax`). The scarcer the node, the higher the price.
#[inline]
pub fn libra_dollar_rate(free_share_after: f64, p: &LibraDollarParams) -> f64 {
    let free = free_share_after.max(p.min_free_fraction);
    p.alpha * BASE_PRICE + p.beta * (1.0 / free) * BASE_PRICE
}

/// Libra+$'s total cost for a job priced at the *highest* per-unit rate
/// among its allocated nodes (the paper's revenue-maximizing choice).
#[inline]
pub fn libra_dollar_cost(job: &Job, max_rate: f64) -> f64 {
    job.estimate * job.procs as f64 * max_rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_workload::Urgency;

    fn job(estimate: f64, deadline: f64, procs: u32) -> Job {
        Job {
            id: 0,
            submit: 0.0,
            runtime: estimate,
            estimate,
            procs,
            urgency: Urgency::Low,
            deadline,
            budget: 1e9,
            penalty_rate: 0.0,
        }
    }

    #[test]
    fn base_cost_scales_with_estimate_and_width() {
        assert_eq!(base_cost(&job(100.0, 400.0, 1)), 100.0);
        assert_eq!(base_cost(&job(100.0, 400.0, 8)), 800.0);
        assert_eq!(base_cost(&job(200.0, 400.0, 8)), 1600.0);
    }

    #[test]
    fn libra_rewards_relaxed_deadlines() {
        let p = LibraParams::default();
        let tight = libra_cost(&job(100.0, 110.0, 1), &p);
        let relaxed = libra_cost(&job(100.0, 1000.0, 1), &p);
        assert!(
            tight > relaxed,
            "tight deadline must cost more: {tight} vs {relaxed}"
        );
        // γ·tr dominates; δ·tr/d is the incentive term.
        assert!((relaxed - (100.0 + 0.1)).abs() < 1e-9);
    }

    #[test]
    fn libra_dollar_rate_rises_with_scarcity() {
        let p = LibraDollarParams::default();
        let idle = libra_dollar_rate(0.9, &p);
        let busy = libra_dollar_rate(0.2, &p);
        let saturated = libra_dollar_rate(0.0, &p);
        assert!(idle < busy);
        assert!(busy < saturated);
        // α=1, β=0.3: idle node ≈ 1.33 × base; the 0.1 free-fraction floor
        // caps the spike at 1 + 0.3/0.1 = 4 × base.
        assert!((idle - (1.0 + 0.3 / 0.9)).abs() < 1e-9);
        assert!((saturated - 4.0).abs() < 1e-9);
    }

    #[test]
    fn libra_dollar_cost_uses_highest_rate() {
        let j = job(100.0, 400.0, 4);
        let cost = libra_dollar_cost(&j, 2.0);
        assert_eq!(cost, 800.0);
    }

    #[test]
    fn libra_dollar_exceeds_base_price_always() {
        let p = LibraDollarParams::default();
        for f in [0.0, 0.2, 0.5, 0.99, 1.0] {
            assert!(libra_dollar_rate(f, &p) > BASE_PRICE);
        }
    }
}
