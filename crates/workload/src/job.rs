//! Job records.
//!
//! Two stages of job exist in the pipeline:
//!
//! 1. [`BaseJob`] — what a trace (real or synthetic) provides: arrival,
//!    actual runtime, the user's runtime estimate, and processor count.
//! 2. [`Job`] — a base job after *scenario transforms* (arrival scaling,
//!    estimate-inaccuracy interpolation) and *QoS annotation* (urgency
//!    class, deadline, budget, penalty rate). This is what policies see.

use serde::{Deserialize, Serialize};

/// Identifier of a job within one workload (dense, 0-based).
pub type JobId = u32;

/// Urgency class of a job (paper Section 5.3).
///
/// High-urgency jobs have tight deadlines but large budgets and penalty
/// rates; low-urgency jobs are the opposite.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize, Hash)]
pub enum Urgency {
    /// Tight deadline, high budget, high penalty rate.
    High,
    /// Relaxed deadline, low budget, low penalty rate.
    Low,
}

/// A job as it appears in a trace, before QoS annotation.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BaseJob {
    /// Dense 0-based identifier.
    pub id: JobId,
    /// Submission time in seconds since trace start.
    pub submit: f64,
    /// Actual runtime in seconds (> 0).
    pub runtime: f64,
    /// The user's runtime estimate from the trace, in seconds (> 0). In real
    /// traces ~92 % of these over-estimate and ~8 % under-estimate.
    pub trace_estimate: f64,
    /// Number of processors required (1..=nodes).
    pub procs: u32,
}

/// A fully annotated job, ready for submission to the computing service.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Dense 0-based identifier.
    pub id: JobId,
    /// Submission time in seconds since simulation start (`tsu_i`).
    pub submit: f64,
    /// Actual runtime in seconds; unknown to the scheduler.
    pub runtime: f64,
    /// Runtime estimate the user supplies (`tr_i` in the paper's pricing
    /// formulas — schedulers and pricing may only consult this).
    pub estimate: f64,
    /// Number of processors required.
    pub procs: u32,
    /// Urgency class.
    pub urgency: Urgency,
    /// Deadline `d_i`, in seconds *relative to submission*.
    pub deadline: f64,
    /// Budget `b_i` in dollars — the most the user will pay.
    pub budget: f64,
    /// Penalty rate `pr_i` in dollars per second of delay past the deadline
    /// (bid-based model only).
    pub penalty_rate: f64,
}

impl Job {
    /// Absolute deadline: `submit + deadline`.
    #[inline]
    pub fn absolute_deadline(&self) -> f64 {
        self.submit + self.deadline
    }

    /// Processor-seconds of real work.
    #[inline]
    pub fn work(&self) -> f64 {
        self.runtime * self.procs as f64
    }

    /// True if the user's estimate is below the actual runtime.
    #[inline]
    pub(crate) fn is_underestimated(&self) -> bool {
        self.estimate < self.runtime
    }

    /// Whether a completion at absolute time `finish` fulfils the SLA
    /// (paper Eq. 10: delay `dy_i = (tf_i − tsu_i) − d_i`; fulfilled iff the
    /// delay is non-positive).
    #[inline]
    pub fn fulfilled_by(&self, finish: f64) -> bool {
        finish - self.submit <= self.deadline + 1e-9
    }

    /// Delay past the deadline for a completion at `finish` (0 if on time).
    #[inline]
    pub fn delay_at(&self, finish: f64) -> f64 {
        ((finish - self.submit) - self.deadline).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> Job {
        Job {
            id: 0,
            submit: 100.0,
            runtime: 50.0,
            estimate: 60.0,
            procs: 4,
            urgency: Urgency::Low,
            deadline: 200.0,
            budget: 500.0,
            penalty_rate: 1.0,
        }
    }

    #[test]
    fn absolute_deadline_is_submit_plus_relative() {
        assert_eq!(job().absolute_deadline(), 300.0);
    }

    #[test]
    fn work_accounts_for_width() {
        assert_eq!(job().work(), 200.0);
    }

    #[test]
    fn fulfilment_boundary() {
        let j = job();
        assert!(j.fulfilled_by(300.0), "exactly on deadline is fulfilled");
        assert!(j.fulfilled_by(299.9));
        assert!(!j.fulfilled_by(300.5));
    }

    #[test]
    fn delay_saturates_at_zero() {
        let j = job();
        assert_eq!(j.delay_at(250.0), 0.0);
        assert_eq!(j.delay_at(320.0), 20.0);
    }

    #[test]
    fn underestimate_detection() {
        let mut j = job();
        assert!(!j.is_underestimated());
        j.estimate = 40.0;
        assert!(j.is_underestimated());
    }
}
