//! Adversarial policy fixtures: the chaos engine's test doubles.
//!
//! Three kinds of fixture live here:
//!
//! - [`BrownoutPolicy`] — a *legal* mid-run perturbation: wraps a real
//!   policy and rejects every submission inside a time window, modelling an
//!   operator pausing admissions. Used by the schedule generator as a
//!   stressor; a correct simulator stays invariant-clean under it.
//! - [`BrokenPolicyKind`] — deliberately *incorrect* policies that violate
//!   the SLA lifecycle in specific ways. They exist to prove the invariant
//!   engine catches real bugs and that the shrinker can minimise the
//!   schedules that expose them.
//! - [`StuckPolicy`] — a policy whose event horizon never empties, for
//!   exercising the watchdog: without a budget the drain would spin
//!   forever; with one, the run is cancelled into `BudgetExceeded`.

use ccs_policies::{Interruption, Outcome, Policy, RejectReason};
use ccs_workload::{Job, JobId};
use serde::{Deserialize, Serialize};

/// Wraps a policy and rejects every submission in `[from, until)` — a
/// deterministic admission brownout. Outside the window it is transparent.
///
/// Lifecycle-legal by construction: a first submission rejected in the
/// window is an ordinary [`Outcome::Rejected`]; a rejected *resubmission*
/// (after an interruption) is reconciled to `Aborted` by the runner, which
/// is the legal terminal state for an interrupted job.
pub struct BrownoutPolicy {
    inner: Box<dyn Policy>,
    from: f64,
    until: f64,
}

impl BrownoutPolicy {
    /// Wraps `inner`, rejecting all submissions with `from <= now < until`.
    pub fn new(inner: Box<dyn Policy>, from: f64, until: f64) -> Self {
        BrownoutPolicy { inner, from, until }
    }
}

impl Policy for BrownoutPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_submit(&mut self, job: &Job, now: f64, out: &mut Vec<Outcome>) {
        if now >= self.from && now < self.until {
            out.push(Outcome::Rejected {
                job: job.id,
                at: now,
                reason: RejectReason::Other,
            });
        } else {
            self.inner.on_submit(job, now, out);
        }
    }

    fn next_event_time(&mut self) -> Option<f64> {
        self.inner.next_event_time()
    }

    fn advance_to(&mut self, t: f64, out: &mut Vec<Outcome>) {
        self.inner.advance_to(t, out);
    }

    fn drain(&mut self, out: &mut Vec<Outcome>) {
        self.inner.drain(out);
    }

    fn on_nodes_fail(
        &mut self,
        nodes: &[u32],
        now: f64,
        out: &mut Vec<Outcome>,
    ) -> Vec<Interruption> {
        self.inner.on_nodes_fail(nodes, now, out)
    }

    fn on_nodes_repair(&mut self, nodes: &[u32], now: f64, out: &mut Vec<Outcome>) {
        self.inner.on_nodes_repair(nodes, now, out);
    }

    fn queued_jobs(&self) -> usize {
        self.inner.queued_jobs()
    }
}

/// The ways the deliberately broken fixture policy can be broken. Each
/// variant violates a different invariant family, so the chaos tests can
/// assert the engine attributes failures correctly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BrokenPolicyKind {
    /// Accepts every job but silently never runs every third one: the
    /// accepted SLA evaporates. Violates the end-state lifecycle rule
    /// (accepted jobs must complete or abort) and ledger conservation
    /// (the lost jobs are never invoiced).
    DropEveryThird,
    /// Completes every job with `finish` warped *before* `start`.
    /// Violates lifecycle time sanity and event-time monotonicity.
    TimeWarp,
    /// Emits `Accepted` twice for every job. Violates decide-once.
    DoubleAccept,
}

impl BrokenPolicyKind {
    /// Stable code used in reproducer JSON and CI artifact names.
    pub fn code(self) -> &'static str {
        match self {
            BrokenPolicyKind::DropEveryThird => "drop_every_third",
            BrokenPolicyKind::TimeWarp => "time_warp",
            BrokenPolicyKind::DoubleAccept => "double_accept",
        }
    }

    /// Builds the broken policy.
    pub fn build(self) -> Box<dyn Policy> {
        Box::new(BrokenPolicy {
            kind: self,
            submitted: 0,
            pending: Vec::new(),
        })
    }
}

/// One scheduled completion of the naive infinite-capacity core.
struct PendingRun {
    finish: f64,
    start: f64,
    job: JobId,
    charge: f64,
}

/// A naive infinite-capacity policy with a deliberate defect. Every job is
/// "run" immediately at submission (no queue, no capacity model); the
/// defect decides what goes wrong on the way. Always carries a commodity
/// charge so the runner's billing path never panics — the point is to fail
/// *invariants*, not asserts.
struct BrokenPolicy {
    kind: BrokenPolicyKind,
    submitted: u64,
    /// Pending completions, kept sorted by (finish, job) descending so the
    /// next one pops off the end deterministically.
    pending: Vec<PendingRun>,
}

impl BrokenPolicy {
    fn release_due(&mut self, t: f64, out: &mut Vec<Outcome>) {
        while self.pending.last().is_some_and(|p| p.finish <= t) {
            let p = self.pending.pop().expect("checked non-empty");
            let (start, finish) = match self.kind {
                // The defect: completion reported as finishing before it
                // started (and before previously emitted events).
                BrokenPolicyKind::TimeWarp => (p.start, (p.start - 1.0).max(0.0) - 1e-3),
                _ => (p.start, p.finish),
            };
            out.push(Outcome::Completed {
                job: p.job,
                start,
                finish,
                charged: Some(p.charge),
            });
        }
    }
}

impl Policy for BrokenPolicy {
    fn name(&self) -> &'static str {
        "broken-fixture"
    }

    fn on_submit(&mut self, job: &Job, now: f64, out: &mut Vec<Outcome>) {
        self.submitted += 1;
        out.push(Outcome::Accepted {
            job: job.id,
            at: now,
        });
        if self.kind == BrokenPolicyKind::DoubleAccept {
            out.push(Outcome::Accepted {
                job: job.id,
                at: now,
            });
        }
        if self.kind == BrokenPolicyKind::DropEveryThird && self.submitted.is_multiple_of(3) {
            return; // the defect: accepted, then silently forgotten
        }
        out.push(Outcome::Started {
            job: job.id,
            at: now,
        });
        self.pending.push(PendingRun {
            finish: now + job.runtime,
            start: now,
            job: job.id,
            charge: job.estimate * job.procs as f64,
        });
        self.pending
            .sort_by(|a, b| (b.finish, b.job).partial_cmp(&(a.finish, a.job)).unwrap());
    }

    fn next_event_time(&mut self) -> Option<f64> {
        self.pending.last().map(|p| p.finish)
    }

    fn advance_to(&mut self, t: f64, out: &mut Vec<Outcome>) {
        self.release_due(t, out);
    }

    fn drain(&mut self, out: &mut Vec<Outcome>) {
        self.release_due(f64::INFINITY, out);
    }
}

/// A policy whose internal event horizon never empties: `next_event_time`
/// always proposes a new, later event and `advance_to` does nothing. An
/// unguarded drain against it spins forever; the watchdog cancels it into
/// `BudgetExceeded` — exactly the wedged-cell scenario the grid's
/// per-cell budgets exist for.
pub struct StuckPolicy {
    horizon: f64,
}

impl StuckPolicy {
    /// A fresh stuck policy.
    pub fn new() -> Self {
        StuckPolicy { horizon: 0.0 }
    }
}

impl Default for StuckPolicy {
    fn default() -> Self {
        StuckPolicy::new()
    }
}

impl Policy for StuckPolicy {
    fn name(&self) -> &'static str {
        "stuck-fixture"
    }

    fn on_submit(&mut self, job: &Job, now: f64, out: &mut Vec<Outcome>) {
        out.push(Outcome::Accepted {
            job: job.id,
            at: now,
        });
    }

    fn next_event_time(&mut self) -> Option<f64> {
        // Always one more event, always a little later: a drain loop that
        // trusts the policy to quiesce never returns.
        self.horizon += 1.0;
        Some(self.horizon)
    }

    fn advance_to(&mut self, _t: f64, _out: &mut Vec<Outcome>) {}

    fn drain(&mut self, _out: &mut Vec<Outcome>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_economy::EconomicModel;
    use ccs_policies::{build_policy, PolicyKind};
    use ccs_simsvc::{Run, RunConfig, RunOutput};
    use ccs_workload::Urgency;

    fn checked(jobs: &[Job], policy: Box<dyn Policy>, cfg: &RunConfig) -> RunOutput {
        Run::with_policy(jobs, policy, cfg)
            .check()
            .execute()
            .unwrap()
    }

    fn job(id: JobId, submit: f64) -> Job {
        Job {
            id,
            submit,
            runtime: 100.0,
            estimate: 100.0,
            procs: 1,
            urgency: Urgency::Low,
            deadline: 1000.0,
            budget: 500.0,
            penalty_rate: 1.0,
        }
    }

    #[test]
    fn brownout_rejects_only_inside_the_window() {
        let jobs: Vec<Job> = (0..10).map(|i| job(i, i as f64 * 100.0)).collect();
        let cfg = RunConfig {
            nodes: 8,
            econ: EconomicModel::CommodityMarket,
        };
        let inner = build_policy(PolicyKind::FcfsBf, cfg.econ, cfg.nodes);
        let policy = Box::new(BrownoutPolicy::new(inner, 250.0, 550.0));
        let checked = checked(&jobs, policy, &cfg);
        assert!(checked.violations.is_empty(), "{:?}", checked.violations);
        // Jobs 3, 4, 5 submit at 300/400/500 — inside the window.
        assert_eq!(checked.result.metrics.accepted, 7);
        assert_eq!(checked.result.metrics.submitted, 10);
    }

    #[test]
    fn brownout_forwards_a_failure_storm_as_one_batch() {
        // Two 2-processor jobs hold all 4 processors and a 1-processor job
        // waits. Two processors fail at one instant: one scheduling pass
        // per storm keeps the waiting job queued, while one pass per node
        // would start it on the first victim's freed processor and then
        // preempt it for the second.
        let storm = |mut p: Box<dyn Policy>| {
            let mut out = Vec::new();
            for (id, submit, procs) in [(0, 0.0, 2), (1, 1.0, 2), (2, 2.0, 1)] {
                let j = Job {
                    procs,
                    ..job(id, submit)
                };
                p.advance_to(submit, &mut out);
                p.on_submit(&j, submit, &mut out);
            }
            let hit = p.on_nodes_fail(&[0, 1], 10.0, &mut out);
            (out, hit)
        };
        let backfill = || build_policy(PolicyKind::FcfsBf, EconomicModel::BidBased, 4);
        let (bare_out, bare_hit) = storm(backfill());
        assert_eq!(bare_hit.len(), 1, "only job 1 is preempted");
        let wrapped = storm(Box::new(BrownoutPolicy::new(backfill(), 1e9, 2e9)));
        assert_eq!(wrapped, (bare_out, bare_hit));
    }

    #[test]
    fn each_broken_kind_trips_the_expected_invariant() {
        let jobs: Vec<Job> = (0..12).map(|i| job(i, i as f64 * 10.0)).collect();
        let cfg = RunConfig {
            nodes: 4,
            econ: EconomicModel::CommodityMarket,
        };
        for (kind, expect) in [
            (BrokenPolicyKind::DropEveryThird, "sla_lifecycle"),
            (BrokenPolicyKind::TimeWarp, "event_time_monotone"),
            (BrokenPolicyKind::DoubleAccept, "sla_lifecycle"),
        ] {
            let checked = checked(&jobs, kind.build(), &cfg);
            assert!(
                checked.violations.iter().any(|v| v.invariant == expect),
                "{kind:?}: expected {expect}, got {:?}",
                checked.violations
            );
        }
    }

    #[test]
    fn stuck_policy_never_quiesces() {
        let mut p = StuckPolicy::new();
        let a = p.next_event_time().unwrap();
        let b = p.next_event_time().unwrap();
        assert!(b > a, "the horizon must keep receding");
    }
}
