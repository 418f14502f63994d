//! QoS annotation: deadlines, budgets, and penalty rates.
//!
//! The trace has no QoS attributes, so the paper synthesizes them (Section
//! 5.3) through two *urgency classes* whose attribute factors are normally
//! distributed, linked by a *high:low ratio*, and skewed by a *bias* that
//! counteracts every attribute being a pure multiple of runtime:
//!
//! - **deadline**: `d_i = F_d · tr_i`. High-urgency jobs draw `F_d` around
//!   the *low-value mean*; low-urgency jobs around `low-value mean × ratio`
//!   (a higher ratio gives low-urgency jobs *longer* deadlines).
//! - **budget**: `b_i = F_b · tr_i · procs_i · BASE_PRICE`. High-urgency jobs
//!   draw `F_b` around `low-value mean × ratio`; low-urgency jobs around the
//!   low-value mean.
//! - **penalty rate**: `pr_i = F_p · procs_i · BASE_PRICE` dollars per second
//!   of delay, with the same high/low structure as budget.
//! - **bias** `β`: jobs longer than the mean runtime get their factor divided
//!   by `β`; shorter jobs get it multiplied (paper Section 5.3).

use crate::job::{BaseJob, Job, Urgency};
use ccs_des::dist::{Distribution, TruncatedNormal};
use ccs_des::SimRng;
use serde::{Deserialize, Serialize};

/// Flat price of one processor-second, in dollars. The paper sets
/// `PBase_j = $1 per second` for every node.
pub const BASE_PRICE: f64 = 1.0;

/// Distributional spec for one QoS attribute factor (deadline, budget, or
/// penalty-rate factor).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FactorSpec {
    /// Mean factor of the *low-value* class (paper Table VI "low-value mean").
    pub low_mean: f64,
    /// Ratio of the high-value class mean to the low-value class mean
    /// (paper Table VI "high:low ratio").
    pub high_low_ratio: f64,
    /// Bias `β ≥ 1` applied against runtime length (paper Table VI "bias").
    pub bias: f64,
    /// Coefficient of variation of the truncated-normal factor draw.
    pub cv: f64,
}

impl Default for FactorSpec {
    fn default() -> Self {
        // Paper Table VI defaults (underlined values; see DESIGN.md §4).
        FactorSpec {
            low_mean: 4.0,
            high_low_ratio: 4.0,
            bias: 2.0,
            cv: 0.2,
        }
    }
}

impl FactorSpec {
    /// Mean factor for the class holding the *high* value of this attribute.
    pub(crate) fn high_mean(&self) -> f64 {
        self.low_mean * self.high_low_ratio
    }
}

/// Full QoS annotation configuration (one experiment's settings).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct QosConfig {
    /// Percentage (0–100) of jobs in the high-urgency class.
    pub pct_high_urgency: f64,
    /// Deadline factor spec. High-urgency ⇒ *low* `d/tr`.
    pub deadline: FactorSpec,
    /// Budget factor spec. High-urgency ⇒ *high* `b/base-cost`.
    pub budget: FactorSpec,
    /// Penalty-rate factor spec. High-urgency ⇒ *high* rate.
    pub penalty: FactorSpec,
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig {
            pct_high_urgency: 20.0,
            deadline: FactorSpec::default(),
            budget: FactorSpec::default(),
            penalty: FactorSpec::default(),
        }
    }
}

/// Minimum admissible deadline factor: a deadline can never be shorter than
/// the runtime itself plus a small scheduling margin.
const MIN_DEADLINE_FACTOR: f64 = 1.05;

/// Applies the bias transform: long jobs get `factor/β`, short jobs get
/// `factor·β` (paper Section 5.3).
fn apply_bias(factor: f64, runtime: f64, mean_runtime: f64, bias: f64) -> f64 {
    if runtime > mean_runtime {
        factor / bias
    } else {
        factor * bias
    }
}

/// Draws the three QoS factors for one job and builds the annotated [`Job`].
///
/// `inaccuracy_pct` interpolates the runtime estimate between perfectly
/// accurate (0) and the trace's own estimate (100), per paper Section 5.3.
pub(crate) fn annotate_job(
    base: &BaseJob,
    cfg: &QosConfig,
    mean_runtime: f64,
    inaccuracy_pct: f64,
    rng: &mut SimRng,
) -> Job {
    let urgency = if rng.bernoulli(cfg.pct_high_urgency / 100.0) {
        Urgency::High
    } else {
        Urgency::Low
    };

    // Deadline: HIGH urgency => low d/tr (mean = low_mean).
    let d_mean = match urgency {
        Urgency::High => cfg.deadline.low_mean,
        Urgency::Low => cfg.deadline.high_mean(),
    };
    let d_factor = TruncatedNormal::at_least(d_mean, cfg.deadline.cv * d_mean, MIN_DEADLINE_FACTOR)
        .sample(rng);
    let d_factor = apply_bias(d_factor, base.runtime, mean_runtime, cfg.deadline.bias);

    // Budget: HIGH urgency => high b/f(tr) (mean = low_mean * ratio).
    let b_mean = match urgency {
        Urgency::High => cfg.budget.high_mean(),
        Urgency::Low => cfg.budget.low_mean,
    };
    let b_factor = TruncatedNormal::at_least(b_mean, cfg.budget.cv * b_mean, 0.5).sample(rng);
    let b_factor = apply_bias(b_factor, base.runtime, mean_runtime, cfg.budget.bias);

    // Penalty rate: HIGH urgency => high pr/g(tr).
    let p_mean = match urgency {
        Urgency::High => cfg.penalty.high_mean(),
        Urgency::Low => cfg.penalty.low_mean,
    };
    let p_factor = TruncatedNormal::at_least(p_mean, cfg.penalty.cv * p_mean, 0.05).sample(rng);
    let p_factor = apply_bias(p_factor, base.runtime, mean_runtime, cfg.penalty.bias);

    let estimate =
        (base.runtime + (base.trace_estimate - base.runtime) * inaccuracy_pct / 100.0).max(1.0);

    Job {
        id: base.id,
        submit: base.submit,
        runtime: base.runtime,
        estimate,
        procs: base.procs,
        urgency,
        deadline: d_factor * base.runtime,
        budget: b_factor * base.runtime * base.procs as f64 * BASE_PRICE,
        penalty_rate: p_factor * base.procs as f64 * BASE_PRICE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(id: u32, runtime: f64) -> BaseJob {
        BaseJob {
            id,
            submit: id as f64 * 100.0,
            runtime,
            trace_estimate: runtime * 2.0,
            procs: 4,
        }
    }

    fn annotate_many(cfg: &QosConfig, n: u32) -> Vec<Job> {
        let master = SimRng::seed_from(11);
        (0..n)
            .map(|i| {
                let mut rng = master.fork(i as u64);
                annotate_job(&base(i, 1000.0), cfg, 1000.0, 0.0, &mut rng)
            })
            .collect()
    }

    #[test]
    fn urgency_mix_matches_percentage() {
        let cfg = QosConfig {
            pct_high_urgency: 30.0,
            ..Default::default()
        };
        let jobs = annotate_many(&cfg, 5000);
        let high = jobs.iter().filter(|j| j.urgency == Urgency::High).count() as f64 / 5000.0;
        assert!((high - 0.3).abs() < 0.03, "high fraction {high}");
    }

    #[test]
    fn all_high_or_all_low_extremes() {
        let all_high = QosConfig {
            pct_high_urgency: 100.0,
            ..Default::default()
        };
        assert!(annotate_many(&all_high, 100)
            .iter()
            .all(|j| j.urgency == Urgency::High));
        let all_low = QosConfig {
            pct_high_urgency: 0.0,
            ..Default::default()
        };
        assert!(annotate_many(&all_low, 100)
            .iter()
            .all(|j| j.urgency == Urgency::Low));
    }

    #[test]
    fn high_urgency_has_tighter_deadlines_and_bigger_budgets() {
        let cfg = QosConfig {
            pct_high_urgency: 50.0,
            ..Default::default()
        };
        let jobs = annotate_many(&cfg, 4000);
        let mean = |f: &dyn Fn(&Job) -> f64, u: Urgency| {
            let sel: Vec<f64> = jobs.iter().filter(|j| j.urgency == u).map(f).collect();
            sel.iter().sum::<f64>() / sel.len() as f64
        };
        let d_high = mean(&|j| j.deadline / j.runtime, Urgency::High);
        let d_low = mean(&|j| j.deadline / j.runtime, Urgency::Low);
        assert!(
            d_high < d_low,
            "high urgency should have tighter deadlines: {d_high} vs {d_low}"
        );
        let b_high = mean(&|j| j.budget, Urgency::High);
        let b_low = mean(&|j| j.budget, Urgency::Low);
        assert!(
            b_high > b_low,
            "high urgency should pay more: {b_high} vs {b_low}"
        );
        let p_high = mean(&|j| j.penalty_rate, Urgency::High);
        let p_low = mean(&|j| j.penalty_rate, Urgency::Low);
        assert!(p_high > p_low);
    }

    #[test]
    fn bias_shortens_deadlines_of_long_jobs() {
        let cfg = QosConfig {
            pct_high_urgency: 0.0,
            ..Default::default()
        };
        let master = SimRng::seed_from(3);
        let mut d_long = 0.0;
        let mut d_short = 0.0;
        for i in 0..500u32 {
            let mut rng = master.fork(i as u64);
            let long = annotate_job(&base(i, 2000.0), &cfg, 1000.0, 0.0, &mut rng);
            let mut rng = master.fork(i as u64);
            let short = annotate_job(&base(i, 500.0), &cfg, 1000.0, 0.0, &mut rng);
            d_long += long.deadline / long.runtime;
            d_short += short.deadline / short.runtime;
        }
        // bias 2: long jobs' factors divided by 2, short multiplied by 2.
        assert!(
            d_short / d_long > 3.0,
            "expected ~4x spread, got {}",
            d_short / d_long
        );
    }

    #[test]
    fn inaccuracy_interpolates_estimates() {
        let cfg = QosConfig::default();
        let master = SimRng::seed_from(9);
        let b = base(0, 1000.0); // trace estimate 2000
        let mut rng = master.fork(0);
        let j0 = annotate_job(&b, &cfg, 1000.0, 0.0, &mut rng);
        assert_eq!(j0.estimate, 1000.0, "0 % inaccuracy = perfect estimate");
        let mut rng2 = master.fork(0);
        let j100 = annotate_job(&b, &cfg, 1000.0, 100.0, &mut rng2);
        assert_eq!(j100.estimate, 2000.0, "100 % inaccuracy = trace estimate");
        let mut rng3 = master.fork(0);
        let j50 = annotate_job(&b, &cfg, 1000.0, 50.0, &mut rng3);
        assert_eq!(j50.estimate, 1500.0);
    }

    #[test]
    fn deadline_always_exceeds_runtime_for_unbiased_short_jobs() {
        // With bias >= 1 and runtime <= mean, factor >= MIN_DEADLINE_FACTOR.
        let cfg = QosConfig {
            pct_high_urgency: 100.0,
            deadline: FactorSpec {
                low_mean: 1.1,
                high_low_ratio: 1.0,
                bias: 1.0,
                cv: 0.5,
            },
            ..Default::default()
        };
        let jobs = annotate_many(&cfg, 1000);
        assert!(jobs.iter().all(|j| j.deadline >= j.runtime * 1.049));
    }

    #[test]
    fn budgets_and_penalties_positive() {
        let jobs = annotate_many(&QosConfig::default(), 1000);
        assert!(jobs.iter().all(|j| j.budget > 0.0 && j.penalty_rate > 0.0));
    }
}
