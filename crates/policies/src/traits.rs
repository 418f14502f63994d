//! The policy interface the service simulator drives.
//!
//! A policy owns its cluster model and scheduling state. The simulator
//! (ccs-simsvc) feeds it job submissions in arrival order, advancing the
//! policy's internal clock between arrivals, and finally drains it. The
//! policy reports everything that happens through [`Outcome`] events, from
//! which the four paper objectives are computed.

use ccs_workload::{Job, JobId};

/// Root cause of an SLA rejection — the label every policy attaches to
/// [`Outcome::Rejected`], surfaced per job by the trace layer and counted
/// in trace reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, serde::Serialize, serde::Deserialize)]
pub enum RejectReason {
    /// The job requests more processors than the whole cluster owns.
    TooLarge,
    /// The deadline lapsed while the job waited in the queue.
    DeadlineLapsed,
    /// Estimated completion would overshoot the deadline.
    EstimateExceedsDeadline,
    /// Quoted cost exceeds the job's budget (commodity market).
    OverBudget,
    /// No node can supply the proportional share the deadline needs (Libra).
    InsufficientShare,
    /// Reward slack below the admission threshold (FirstReward).
    LowSlack,
    /// A reason outside the built-in taxonomy (custom policies).
    Other,
}

impl RejectReason {
    /// Every built-in reason, in a stable reporting order.
    pub const ALL: [RejectReason; 7] = [
        RejectReason::TooLarge,
        RejectReason::DeadlineLapsed,
        RejectReason::EstimateExceedsDeadline,
        RejectReason::OverBudget,
        RejectReason::InsufficientShare,
        RejectReason::LowSlack,
        RejectReason::Other,
    ];

    /// Stable snake_case code used in traces and reports.
    pub fn code(self) -> &'static str {
        match self {
            RejectReason::TooLarge => "too_large",
            RejectReason::DeadlineLapsed => "deadline_lapsed",
            RejectReason::EstimateExceedsDeadline => "estimate_exceeds_deadline",
            RejectReason::OverBudget => "over_budget",
            RejectReason::InsufficientShare => "insufficient_share",
            RejectReason::LowSlack => "low_slack",
            RejectReason::Other => "other",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// Something observable that happened inside a policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Outcome {
    /// The SLA was accepted (job admitted) at time `at`.
    Accepted {
        /// Job concerned.
        job: JobId,
        /// Absolute time of acceptance.
        at: f64,
    },
    /// The job was rejected (SLA not accepted) at time `at`.
    Rejected {
        /// Job concerned.
        job: JobId,
        /// Absolute time of rejection.
        at: f64,
        /// Why the policy declined the SLA.
        reason: RejectReason,
    },
    /// The job began executing at time `at` (this is `tst_i` in the paper's
    /// wait objective, Eq. 1).
    Started {
        /// Job concerned.
        job: JobId,
        /// Absolute start time.
        at: f64,
    },
    /// The job finished executing.
    Completed {
        /// Job concerned.
        job: JobId,
        /// Absolute time execution began.
        start: f64,
        /// Absolute completion time (`tf_i`).
        finish: f64,
        /// Amount charged under commodity-market pricing, fixed at start
        /// time from the runtime estimate. `None` in the bid-based model,
        /// where utility is derived from the completion time instead.
        charged: Option<f64>,
    },
    /// A running job lost a node and was preempted (failure injection).
    /// The runner decides what happens next: a restart/resume attempt
    /// (later surfaced as [`Outcome::Restarted`]) or an abort.
    Interrupted {
        /// Job concerned.
        job: JobId,
        /// Absolute time of the node failure that hit it.
        at: f64,
    },
    /// A previously interrupted job was re-admitted for another attempt.
    Restarted {
        /// Job concerned.
        job: JobId,
        /// Absolute time of re-admission.
        at: f64,
    },
    /// A previously accepted job will never complete: after an
    /// interruption it could not be re-admitted (deadline lapsed, restart
    /// limit hit, …). The SLA is lost but — unlike a rejection — it *was*
    /// accepted, so the abort counts against reliability (Eq. 3).
    Aborted {
        /// Job concerned.
        job: JobId,
        /// Absolute time the job was given up on.
        at: f64,
    },
    /// A cluster node went down (failure injection).
    NodeFailed {
        /// Node index.
        node: u32,
        /// Absolute failure time.
        at: f64,
    },
    /// A failed cluster node came back up.
    NodeRepaired {
        /// Node index.
        node: u32,
        /// Absolute repair time.
        at: f64,
    },
}

/// A running job preempted by a node failure, as reported by
/// [`Policy::on_nodes_fail`]. The runner turns this into an
/// [`Outcome::Interrupted`] and decides between resubmission and abort.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interruption {
    /// The preempted job.
    pub job: JobId,
    /// When its current attempt had started.
    pub started_at: f64,
    /// Processor-seconds of work still outstanding at the failure, as far
    /// as the policy can tell (actual remaining runtime, not estimate).
    pub remaining_work: f64,
}

/// A resource-management policy under evaluation.
pub trait Policy {
    /// Short display name, matching the paper (e.g. `"SJF-BF"`).
    fn name(&self) -> &'static str;

    /// Handles a job submitted at `now`. The simulator guarantees
    /// `advance_to(now)` has already been called.
    fn on_submit(&mut self, job: &Job, now: f64, out: &mut Vec<Outcome>);

    /// Time of the policy's next internal event (a completion, a share
    /// re-evaluation, …), if any.
    fn next_event_time(&mut self) -> Option<f64>;

    /// Processes internal events up to and including `t`.
    fn advance_to(&mut self, t: f64, out: &mut Vec<Outcome>);

    /// Runs the policy to quiescence after the last arrival. In a
    /// fault-free run this empties the queue; under failure injection the
    /// runner may give up on futile weather (see the drain stagnation cap
    /// in `ccs-simsvc`) and call this with jobs still queued — those stay
    /// accepted-but-unfulfilled and must not panic the policy.
    fn drain(&mut self, out: &mut Vec<Outcome>);

    /// Reacts to `nodes` going down together at `now` (failure
    /// injection; the runner feeds each maximal equal-time run of failures
    /// through here). The policy must reclaim the lost capacity in its
    /// cluster model and report every preempted job as an
    /// [`Interruption`] — the *runner* owns the restart/abort decision. May
    /// also emit regular outcomes (e.g. a queued job rejected because the
    /// shrunken cluster can no longer meet its deadline). A per-failure
    /// reaction pass (a scheduling sweep, a share recompute) may run once
    /// for the whole batch. Default: failure-oblivious no-op, so custom
    /// policies keep compiling (and simply never lose capacity).
    fn on_nodes_fail(
        &mut self,
        nodes: &[u32],
        now: f64,
        out: &mut Vec<Outcome>,
    ) -> Vec<Interruption> {
        let _ = (nodes, now, out);
        Vec::new()
    }

    /// Reacts to `nodes` coming back up together at `now`: restore the
    /// capacity and (for queueing policies) try to start waiting jobs.
    /// Default no-op.
    fn on_nodes_repair(&mut self, nodes: &[u32], now: f64, out: &mut Vec<Outcome>) {
        let _ = (nodes, now, out);
    }

    /// Number of admitted jobs waiting to start (0 for policies that run
    /// jobs immediately on admission). The runner uses this during the
    /// drain phase to decide whether future repairs can still unblock work.
    fn queued_jobs(&self) -> usize {
        0
    }

    /// Whether the run so far is exactly the run LibraRiskD, built with
    /// the same settings, would make on the same inputs: `Some(true)`
    /// certifies it, `Some(false)` withdraws the claim for good, and
    /// `None` (the default) makes none. Plain Libra answers: LibraRiskD is
    /// Libra minus the nodes at risk of deadline delay, so the two runs
    /// agree as long as no admission picks such a node. The runner reads
    /// it once the run has drained.
    fn riskd_equivalent(&self) -> Option<bool> {
        None
    }
}

/// Identifier of each concrete policy, as listed in paper Table V.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, serde::Serialize, serde::Deserialize)]
pub enum PolicyKind {
    /// First-Come-First-Serve with EASY backfilling.
    FcfsBf,
    /// Shortest-Job-First with EASY backfilling.
    SjfBf,
    /// Earliest-Deadline-First with EASY backfilling.
    EdfBf,
    /// Libra: deadline-driven proportional share with admission control.
    Libra,
    /// Libra with the enhanced utilization-adaptive pricing function.
    LibraDollar,
    /// Libra considering the risk of deadline delay on node selection.
    LibraRiskD,
    /// FirstReward: reward-ranked admission balancing earnings vs penalties.
    FirstReward,
}

impl PolicyKind {
    /// Display name used in figures and reports (paper naming).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::FcfsBf => "FCFS-BF",
            PolicyKind::SjfBf => "SJF-BF",
            PolicyKind::EdfBf => "EDF-BF",
            PolicyKind::Libra => "Libra",
            PolicyKind::LibraDollar => "Libra+$",
            PolicyKind::LibraRiskD => "LibraRiskD",
            PolicyKind::FirstReward => "FirstReward",
        }
    }

    /// The five policies the paper evaluates in the commodity market model.
    pub const COMMODITY: [PolicyKind; 5] = [
        PolicyKind::FcfsBf,
        PolicyKind::SjfBf,
        PolicyKind::EdfBf,
        PolicyKind::Libra,
        PolicyKind::LibraDollar,
    ];

    /// The five policies the paper evaluates in the bid-based model.
    pub const BID_BASED: [PolicyKind; 5] = [
        PolicyKind::FcfsBf,
        PolicyKind::EdfBf,
        PolicyKind::FirstReward,
        PolicyKind::Libra,
        PolicyKind::LibraRiskD,
    ];
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_v_policy_sets() {
        assert_eq!(PolicyKind::COMMODITY.len(), 5);
        assert_eq!(PolicyKind::BID_BASED.len(), 5);
        assert!(PolicyKind::COMMODITY.contains(&PolicyKind::LibraDollar));
        assert!(!PolicyKind::COMMODITY.contains(&PolicyKind::FirstReward));
        assert!(PolicyKind::BID_BASED.contains(&PolicyKind::LibraRiskD));
        assert!(!PolicyKind::BID_BASED.contains(&PolicyKind::SjfBf));
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(PolicyKind::LibraDollar.name(), "Libra+$");
        assert_eq!(PolicyKind::SjfBf.name(), "SJF-BF");
        assert_eq!(format!("{}", PolicyKind::FirstReward), "FirstReward");
    }
}
