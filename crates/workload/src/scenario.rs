//! Scenario transforms: turning a base trace into one experiment's workload.
//!
//! An experiment point in the paper (one cell of Table VI) is defined by a
//! QoS configuration plus two trace-level transforms:
//!
//! - the **arrival-delay factor** scales every inter-arrival gap (a factor
//!   below 1 compresses the trace, i.e. raises the load), and
//! - the **estimate-inaccuracy percentage** interpolates each job's runtime
//!   estimate between perfectly accurate (0 %) and the trace's own, mostly
//!   over-estimated value (100 %).
//!
//! QoS factor draws for job *k* come from a fork of the scenario seed
//! labelled *k*, so sweeping the arrival-delay factor (or inaccuracy) leaves
//! every job's deadline/budget/penalty untouched — exactly the
//! "only the workload changes while the rest of the experiment settings
//! remain the same" semantics of paper Section 4.1.

use crate::job::{BaseJob, Job, JobFields};
use crate::qos::{FactorSpec, QosConfig};
use ccs_des::SimRng;
use serde::{Deserialize, Serialize};

/// A fully specified experiment-point transform.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ScenarioTransform {
    /// QoS annotation settings.
    pub qos: QosConfig,
    /// Multiplier on trace inter-arrival times (paper: 0.02–1.00; lower =
    /// heavier load).
    pub arrival_delay_factor: f64,
    /// Runtime-estimate inaccuracy in percent (0 = accurate, 100 = trace).
    pub inaccuracy_pct: f64,
}

impl Default for ScenarioTransform {
    fn default() -> Self {
        ScenarioTransform {
            qos: QosConfig::default(),
            arrival_delay_factor: 0.25,
            inaccuracy_pct: 0.0,
        }
    }
}

impl ScenarioTransform {
    /// This transform as a policy that reads only `reads` sees it: every
    /// QoS spec whose draws move only fields outside `reads` is reset to
    /// its default, the rest kept. For every field in `reads`,
    /// `apply_scenario` gives the same value, bit for bit, under the
    /// projection as under `self`.
    ///
    /// Why: `annotate_job` draws each job's factors from the job's own
    /// forked RNG in a fixed order — urgency, deadline, budget, penalty.
    /// A spec changes the field it annotates and, because a truncated
    /// normal rejection-samples a variable number of draws, every field
    /// drawn after it; no field drawn before it. The urgency share also
    /// picks which class mean each later draw uses. So the penalty spec
    /// moves only `penalty_rate`, the budget spec `budget` and
    /// `penalty_rate`, the deadline spec those and `deadline`, and the
    /// urgency share all four. Arrival scaling and estimate inaccuracy
    /// draw nothing and are kept.
    pub fn project(&self, reads: JobFields) -> ScenarioTransform {
        let mut t = *self;
        let defaults = QosConfig::default();
        let mut moved = JobFields::NONE;
        let mut reset = |moves: JobFields| {
            moved = moved.with(moves);
            !reads.intersects(moved)
        };
        if reset(JobFields::PENALTY_RATE) {
            t.qos.penalty = FactorSpec::default();
        }
        if reset(JobFields::BUDGET) {
            t.qos.budget = FactorSpec::default();
        }
        if reset(JobFields::DEADLINE) {
            t.qos.deadline = FactorSpec::default();
        }
        if reset(JobFields::URGENCY) {
            t.qos.pct_high_urgency = defaults.pct_high_urgency;
        }
        t
    }
}

/// Applies a scenario transform to a base trace, producing the job stream
/// one simulation run consumes. Deterministic in `(base, transform, seed)`.
pub fn apply_scenario(base: &[BaseJob], t: &ScenarioTransform, seed: u64) -> Vec<Job> {
    let master = SimRng::seed_from(seed);
    let mean_runtime = if base.is_empty() {
        0.0
    } else {
        base.iter().map(|j| j.runtime).sum::<f64>() / base.len() as f64
    };

    let mut jobs = Vec::with_capacity(base.len());
    let mut prev_orig = 0.0;
    let mut prev_new = 0.0;
    for b in base {
        let gap = (b.submit - prev_orig).max(0.0);
        let submit = prev_new + gap * t.arrival_delay_factor;
        prev_orig = b.submit;
        prev_new = submit;

        let mut rng = master.fork(b.id as u64);
        let mut job = crate::qos::annotate_job(b, &t.qos, mean_runtime, t.inaccuracy_pct, &mut rng);
        job.submit = submit;
        jobs.push(job);
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SdscSp2Model;

    fn base() -> Vec<BaseJob> {
        SdscSp2Model::small().generate(5)
    }

    #[test]
    fn arrival_factor_scales_gaps() {
        let b = base();
        let full = apply_scenario(
            &b,
            &ScenarioTransform {
                arrival_delay_factor: 1.0,
                ..Default::default()
            },
            1,
        );
        let tenth = apply_scenario(
            &b,
            &ScenarioTransform {
                arrival_delay_factor: 0.1,
                ..Default::default()
            },
            1,
        );
        let span_full = full.last().unwrap().submit - full[0].submit;
        let span_tenth = tenth.last().unwrap().submit - tenth[0].submit;
        assert!((span_tenth / span_full - 0.1).abs() < 1e-9);
    }

    #[test]
    fn qos_invariant_under_arrival_sweep() {
        let b = base();
        let a = apply_scenario(
            &b,
            &ScenarioTransform {
                arrival_delay_factor: 1.0,
                ..Default::default()
            },
            1,
        );
        let c = apply_scenario(
            &b,
            &ScenarioTransform {
                arrival_delay_factor: 0.02,
                ..Default::default()
            },
            1,
        );
        for (x, y) in a.iter().zip(&c) {
            assert_eq!(x.deadline, y.deadline);
            assert_eq!(x.budget, y.budget);
            assert_eq!(x.penalty_rate, y.penalty_rate);
            assert_eq!(x.urgency, y.urgency);
        }
    }

    #[test]
    fn qos_invariant_under_inaccuracy_sweep() {
        let b = base();
        let a = apply_scenario(
            &b,
            &ScenarioTransform {
                inaccuracy_pct: 0.0,
                ..Default::default()
            },
            1,
        );
        let c = apply_scenario(
            &b,
            &ScenarioTransform {
                inaccuracy_pct: 100.0,
                ..Default::default()
            },
            1,
        );
        for (x, y) in a.iter().zip(&c) {
            assert_eq!(x.deadline, y.deadline);
            assert_eq!(x.budget, y.budget);
            assert_eq!(x.submit, y.submit);
            assert_eq!(y.estimate, y.runtime + (y.estimate - y.runtime)); // tautology guard
        }
        // At 0 % every estimate equals the runtime; at 100 % most differ.
        assert!(a.iter().all(|j| j.estimate == j.runtime.max(1.0)));
        let diff = c.iter().filter(|j| j.estimate != j.runtime).count();
        assert!(diff > c.len() / 2);
    }

    #[test]
    fn projection_resets_only_specs_whose_fields_are_unread() {
        let mut t = ScenarioTransform::default();
        t.qos.pct_high_urgency = 60.0;
        t.qos.deadline.bias = 6.0;
        t.qos.budget.low_mean = 8.0;
        t.qos.penalty.high_low_ratio = 10.0;
        t.arrival_delay_factor = 0.5;
        fn spelled(x: &impl std::fmt::Debug) -> String {
            format!("{x:?}")
        }
        assert_eq!(spelled(&t.project(JobFields::ALL)), spelled(&t));
        let no_penalty = t.project(JobFields::ALL.without(JobFields::PENALTY_RATE));
        assert_eq!(no_penalty.qos.penalty.high_low_ratio, 4.0);
        assert_eq!(no_penalty.qos.budget.low_mean, 8.0);
        // Budget alone unread: its draws still move the penalty rate.
        let no_budget = t.project(JobFields::ALL.without(JobFields::BUDGET));
        assert_eq!(spelled(&no_budget.qos.budget), spelled(&t.qos.budget));
        let neither = JobFields::ALL
            .without(JobFields::BUDGET)
            .without(JobFields::PENALTY_RATE);
        let p = t.project(neither);
        assert_eq!(p.qos.budget.low_mean, 4.0);
        assert_eq!(p.qos.deadline.bias, 6.0);
        assert_eq!(p.qos.pct_high_urgency, 60.0);
        let only_core = neither
            .without(JobFields::DEADLINE)
            .without(JobFields::URGENCY);
        let p = t.project(only_core);
        assert_eq!(spelled(&p.qos), spelled(&QosConfig::default()));
        assert_eq!(p.arrival_delay_factor, 0.5);
    }

    #[test]
    fn deterministic_in_seed() {
        let b = base();
        let t = ScenarioTransform::default();
        assert_eq!(apply_scenario(&b, &t, 9), apply_scenario(&b, &t, 9));
        assert_ne!(apply_scenario(&b, &t, 9), apply_scenario(&b, &t, 10));
    }

    #[test]
    fn preserves_job_count_and_ids() {
        let b = base();
        let jobs = apply_scenario(&b, &ScenarioTransform::default(), 2);
        assert_eq!(jobs.len(), b.len());
        for (j, bj) in jobs.iter().zip(&b) {
            assert_eq!(j.id, bj.id);
            assert_eq!(j.runtime, bj.runtime);
            assert_eq!(j.procs, bj.procs);
        }
    }

    #[test]
    fn submits_remain_monotone() {
        let jobs = apply_scenario(
            &base(),
            &ScenarioTransform {
                arrival_delay_factor: 0.02,
                ..Default::default()
            },
            3,
        );
        for w in jobs.windows(2) {
            assert!(w[1].submit >= w[0].submit);
        }
    }
}
