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

/// A set of [`Job`] fields: what a policy reads of each job it schedules
/// (see `ccs_policies::Policy::reads`). Two workloads whose jobs agree on
/// every field a policy reads drive that policy through the same run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JobFields(u16);

impl JobFields {
    /// No field.
    pub const NONE: JobFields = JobFields(0);
    /// [`Job::id`].
    pub const ID: JobFields = JobFields(1 << 0);
    /// [`Job::submit`].
    pub const SUBMIT: JobFields = JobFields(1 << 1);
    /// [`Job::runtime`].
    pub const RUNTIME: JobFields = JobFields(1 << 2);
    /// [`Job::estimate`].
    pub const ESTIMATE: JobFields = JobFields(1 << 3);
    /// [`Job::procs`].
    pub const PROCS: JobFields = JobFields(1 << 4);
    /// [`Job::urgency`].
    pub const URGENCY: JobFields = JobFields(1 << 5);
    /// [`Job::deadline`].
    pub const DEADLINE: JobFields = JobFields(1 << 6);
    /// [`Job::budget`].
    pub const BUDGET: JobFields = JobFields(1 << 7);
    /// [`Job::penalty_rate`].
    pub const PENALTY_RATE: JobFields = JobFields(1 << 8);
    /// Every field.
    pub const ALL: JobFields = JobFields((1 << 9) - 1);

    /// This set without the fields of `other`.
    pub const fn without(self, other: JobFields) -> JobFields {
        JobFields(self.0 & !other.0)
    }

    /// This set with the fields of `other`.
    pub const fn with(self, other: JobFields) -> JobFields {
        JobFields(self.0 | other.0)
    }

    /// Whether this set holds any field of `other`.
    pub const fn intersects(self, other: JobFields) -> bool {
        self.0 & other.0 != 0
    }

    /// The name of the first field of this set on which `a` and `b`
    /// differ, comparing floats bit for bit; `None` when they agree on
    /// every field of the set.
    pub fn first_difference(self, a: &Job, b: &Job) -> Option<&'static str> {
        let fields: [(JobFields, &'static str, bool); 9] = [
            (JobFields::ID, "id", a.id == b.id),
            (
                JobFields::SUBMIT,
                "submit",
                a.submit.to_bits() == b.submit.to_bits(),
            ),
            (
                JobFields::RUNTIME,
                "runtime",
                a.runtime.to_bits() == b.runtime.to_bits(),
            ),
            (
                JobFields::ESTIMATE,
                "estimate",
                a.estimate.to_bits() == b.estimate.to_bits(),
            ),
            (JobFields::PROCS, "procs", a.procs == b.procs),
            (JobFields::URGENCY, "urgency", a.urgency == b.urgency),
            (
                JobFields::DEADLINE,
                "deadline",
                a.deadline.to_bits() == b.deadline.to_bits(),
            ),
            (
                JobFields::BUDGET,
                "budget",
                a.budget.to_bits() == b.budget.to_bits(),
            ),
            (
                JobFields::PENALTY_RATE,
                "penalty_rate",
                a.penalty_rate.to_bits() == b.penalty_rate.to_bits(),
            ),
        ];
        fields
            .into_iter()
            .find(|&(field, _, equal)| self.intersects(field) && !equal)
            .map(|(_, name, _)| name)
    }
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
    fn first_difference_names_the_first_differing_field_of_the_set() {
        let (a, mut b) = (job(), job());
        assert_eq!(JobFields::ALL.first_difference(&a, &b), None);
        b.budget = 1.0;
        b.penalty_rate = -0.0;
        assert_eq!(JobFields::ALL.first_difference(&a, &b), Some("budget"));
        let reads = JobFields::ALL.without(JobFields::BUDGET);
        assert_eq!(reads.first_difference(&a, &b), Some("penalty_rate"));
        let reads = reads.without(JobFields::PENALTY_RATE);
        assert_eq!(reads.first_difference(&a, &b), None);
        // Bit for bit: 0.0 and -0.0 differ.
        let mut c = a;
        c.penalty_rate = 0.0;
        b.penalty_rate = -0.0;
        b.budget = c.budget;
        assert_eq!(
            JobFields::ALL.first_difference(&c, &b),
            Some("penalty_rate")
        );
        assert!(JobFields::ALL.intersects(JobFields::ID));
        assert_eq!(
            reads.with(JobFields::BUDGET).with(JobFields::PENALTY_RATE),
            JobFields::ALL
        );
    }

    #[test]
    fn underestimate_detection() {
        let mut j = job();
        assert!(!j.is_underestimated());
        j.estimate = 40.0;
        assert!(j.is_underestimated());
    }
}
