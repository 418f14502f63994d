//! FirstReward (Irwin, Grit & Chase, HPDC 2004), as adapted by the paper.
//!
//! FirstReward targets the bid-based model: it weighs a job's discounted
//! earnings against the opportunity cost of the penalties that accepting it
//! could impose on the other accepted jobs.
//!
//! - **Present value**: `PV_i = b_i / (1 + discount_rate · RPT_i)` where
//!   `RPT_i` is the estimated remaining processing time.
//! - **Opportunity cost** (unbounded penalties):
//!   `cost_i = Σ_{j≠i} pr_j · RPT_i` over all currently accepted jobs.
//! - **Reward**: `reward_i = (α·PV_i − (1−α)·cost_i) / RPT_i`; the queue is
//!   served highest-reward-first, so newly accepted lucrative jobs can delay
//!   previously accepted ones.
//! - **Admission**: `slack_i = (PV_i − cost_i)/pr_i`; the job is rejected at
//!   submission if its slack is below the slack threshold.
//!
//! Per the paper: α = 1, discount rate = 1 %, slack threshold = 25; extended
//! to multi-processor parallel jobs; **no backfilling** (head-of-line
//! blocking can leave processors idle).

use crate::run_core::RunCore;
use crate::traits::{Interruption, Outcome, Policy, RejectReason};
use ccs_workload::Job;

/// Tunable parameters of FirstReward.
#[derive(Clone, Copy, Debug)]
pub struct FirstRewardParams {
    /// Weight between earnings and opportunity cost in the reward.
    pub alpha: f64,
    /// Discount rate per financial time unit of remaining processing time.
    pub discount_rate: f64,
    /// Minimum admissible slack.
    pub slack_threshold: f64,
    /// Seconds per financial time unit used in the PV discounting. The
    /// original FirstReward paper works in abstract time units; we use
    /// hours so that the paper's discount rate (1 %) stays meaningful for
    /// hour-scale jobs (see DESIGN.md §5.6).
    pub time_unit_secs: f64,
}

impl Default for FirstRewardParams {
    fn default() -> Self {
        // Paper Section 5.2: "α is 1, the discount rate is 1%, and the slack
        // threshold is 25."
        FirstRewardParams {
            alpha: 1.0,
            discount_rate: 0.01,
            slack_threshold: 25.0,
            time_unit_secs: 3600.0,
        }
    }
}

/// The FirstReward policy.
pub struct FirstRewardPolicy {
    params: FirstRewardParams,
    runs: RunCore,
    queue: Vec<Job>,
}

impl FirstRewardPolicy {
    /// Creates a FirstReward policy over `nodes` space-shared processors.
    pub fn new(nodes: u32) -> Self {
        Self::with_params(nodes, FirstRewardParams::default())
    }

    /// Creates a FirstReward policy with explicit parameters.
    pub fn with_params(nodes: u32, params: FirstRewardParams) -> Self {
        FirstRewardPolicy {
            params,
            runs: RunCore::new(nodes),
            queue: Vec::new(),
        }
    }

    /// Discounted present value of `job` given remaining processing time
    /// (`rpt` in seconds, converted to financial time units).
    fn present_value(&self, job: &Job, rpt: f64) -> f64 {
        job.budget / (1.0 + self.params.discount_rate * rpt / self.params.time_unit_secs)
    }

    /// Opportunity cost of running `job` for `rpt` more seconds: the penalty
    /// every *other* accepted (queued or running) job could accrue meanwhile.
    ///
    /// The original formula (`Σ_{j≠i} pr_j · RPT_i`) models a single-queue
    /// resource where every accepted job truly waits behind job `i`. On a
    /// parallel machine job `i` only holds `procs_i / nodes` of the
    /// capacity, so — as part of the paper's "extended to multiple-processor
    /// parallel jobs" adaptation — the cost is weighted by that machine
    /// fraction (DESIGN.md §5.6).
    fn opportunity_cost(&self, job: &Job, rpt: f64) -> f64 {
        let sum_pr: f64 = self
            .queue
            .iter()
            .filter(|q| q.id != job.id)
            .map(|q| q.penalty_rate)
            .chain(
                self.runs
                    .running_jobs()
                    .filter(|r| r.id != job.id)
                    .map(|r| r.penalty_rate),
            )
            .sum();
        // Nominal capacity, so a transient failure does not perturb the
        // admission economics (and a fully down cluster divides by zero).
        let machine_fraction = job.procs as f64 / self.runs.cluster().base() as f64;
        sum_pr * rpt * machine_fraction
    }

    /// The α-weighted reward rate used to order the queue.
    fn reward(&self, job: &Job) -> f64 {
        let rpt = job.estimate;
        let pv = self.present_value(job, rpt);
        let cost = self.opportunity_cost(job, rpt);
        (self.params.alpha * pv - (1.0 - self.params.alpha) * cost) / rpt.max(1e-9)
    }

    /// Admission test at submission time.
    fn admissible(&self, job: &Job) -> bool {
        let rpt = job.estimate;
        let pv = self.present_value(job, rpt);
        let cost = self.opportunity_cost(job, rpt);
        let slack = (pv - cost) / job.penalty_rate.max(1e-12);
        slack >= self.params.slack_threshold
    }

    /// Head-of-line scheduling: start the highest-reward queued job while it
    /// fits; stop at the first that does not (no backfilling).
    fn try_schedule(&mut self, now: f64, out: &mut Vec<Outcome>) {
        loop {
            // Highest reward first.
            let mut best: Option<(f64, usize)> = None;
            for (i, q) in self.queue.iter().enumerate() {
                let r = self.reward(q);
                if best.is_none_or(|(br, _)| r > br) {
                    best = Some((r, i));
                }
            }
            let Some((_, idx)) = best else { return };
            let job = self.queue[idx];
            if job.procs > self.runs.cluster().free_procs() {
                return; // head-of-line blocking: no backfill behind it
            }
            self.queue.remove(idx);
            // Bid-based only: utility derives from the finish time.
            self.runs.start(job, now, None, out);
        }
    }
}

impl Policy for FirstRewardPolicy {
    fn name(&self) -> &'static str {
        "FirstReward"
    }

    fn on_submit(&mut self, job: &Job, now: f64, out: &mut Vec<Outcome>) {
        let refusal = if job.procs > self.runs.cluster().base() {
            Some(RejectReason::TooLarge)
        } else if !self.admissible(job) {
            Some(RejectReason::LowSlack)
        } else {
            None
        };
        if let Some(reason) = refusal {
            out.push(Outcome::Rejected {
                job: job.id,
                at: now,
                reason,
            });
            return;
        }
        out.push(Outcome::Accepted {
            job: job.id,
            at: now,
        });
        self.queue.push(*job);
        self.try_schedule(now, out);
    }

    fn next_event_time(&mut self) -> Option<f64> {
        self.runs.next_event_time()
    }

    fn advance_to(&mut self, t: f64, out: &mut Vec<Outcome>) {
        while let Some(finish) = self.runs.complete_next(t, out) {
            self.try_schedule(finish, out);
        }
    }

    fn drain(&mut self, out: &mut Vec<Outcome>) {
        self.advance_to(f64::INFINITY, out);
        // Queued jobs may survive drain when the runner abandons futile
        // weather (failure injection); they stay accepted-but-unfulfilled.
        debug_assert!(self.runs.is_idle());
    }

    /// One fail-and-reschedule step per node, in order: FirstReward's
    /// reward ranking is re-read after every lost processor.
    fn on_nodes_fail(
        &mut self,
        nodes: &[u32],
        now: f64,
        out: &mut Vec<Outcome>,
    ) -> Vec<Interruption> {
        let mut interruptions = Vec::new();
        for _ in nodes {
            if self.runs.fail_one(now, &mut interruptions) {
                self.try_schedule(now, out);
            }
        }
        interruptions
    }

    fn on_nodes_repair(&mut self, nodes: &[u32], now: f64, out: &mut Vec<Outcome>) {
        for _ in nodes {
            self.runs.repair_one();
            self.try_schedule(now, out);
        }
    }

    fn queued_jobs(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_workload::{JobId, Urgency};

    fn job(id: JobId, submit: f64, runtime: f64, budget: f64, pr: f64, procs: u32) -> Job {
        Job {
            id,
            submit,
            runtime,
            estimate: runtime,
            procs,
            urgency: Urgency::High,
            deadline: runtime * 4.0,
            budget,
            penalty_rate: pr,
        }
    }

    fn run(policy: &mut FirstRewardPolicy, jobs: &[Job]) -> Vec<Outcome> {
        let mut out = Vec::new();
        for j in jobs {
            policy.advance_to(j.submit, &mut out);
            policy.on_submit(j, j.submit, &mut out);
        }
        policy.drain(&mut out);
        out
    }

    #[test]
    fn accepts_profitable_job() {
        let mut p = FirstRewardPolicy::new(4);
        let out = run(&mut p, &[job(0, 0.0, 100.0, 1000.0, 1.0, 2)]);
        assert!(matches!(out[0], Outcome::Accepted { job: 0, .. }));
        assert!(out
            .iter()
            .any(|o| matches!(o, Outcome::Completed { job: 0, .. })));
    }

    #[test]
    fn rejects_when_slack_below_threshold() {
        let mut p = FirstRewardPolicy::new(4);
        // PV = 10/(1+1) = 5; slack = 5/1 = 5 < 25 -> reject.
        let out = run(&mut p, &[job(0, 0.0, 100.0, 10.0, 1.0, 1)]);
        assert!(matches!(out[0], Outcome::Rejected { job: 0, .. }));
    }

    #[test]
    fn more_accepted_work_raises_opportunity_cost() {
        let mut p = FirstRewardPolicy::new(2);
        // Fill the machine with jobs carrying fat penalty rates, then submit
        // a borderline job: its opportunity cost now sinks it.
        let filler: Vec<Job> = (0..4).map(|i| job(i, 0.0, 1000.0, 1e6, 50.0, 1)).collect();
        let mut jobs = filler.clone();
        // Borderline job: PV=50000/(1+10)=4545; cost = 4*50*1000=200000 -> slack<0.
        jobs.push(job(9, 1.0, 1000.0, 50_000.0, 1.0, 1));
        let out = run(&mut p, &jobs);
        let rejected: Vec<JobId> = out
            .iter()
            .filter_map(|o| match o {
                Outcome::Rejected { job, .. } => Some(*job),
                _ => None,
            })
            .collect();
        assert!(rejected.contains(&9), "opportunity cost must reject it");
    }

    #[test]
    fn queue_served_in_reward_order() {
        let mut p = FirstRewardPolicy::new(2);
        // Occupy the machine, queue two more; the higher-reward one runs next
        // even though it arrived later.
        let out = run(
            &mut p,
            &[
                job(0, 0.0, 100.0, 1e6, 0.1, 2),
                job(1, 1.0, 100.0, 5_000.0, 0.1, 2),
                job(2, 2.0, 100.0, 500_000.0, 0.1, 2),
            ],
        );
        let starts: Vec<(JobId, f64)> = out
            .iter()
            .filter_map(|o| match o {
                Outcome::Started { job, at } => Some((*job, *at)),
                _ => None,
            })
            .collect();
        assert_eq!(starts[0].0, 0);
        assert_eq!(starts[1].0, 2, "reward order, not FCFS");
        assert_eq!(starts[2].0, 1);
    }

    #[test]
    fn head_of_line_blocking_no_backfill() {
        let mut p = FirstRewardPolicy::new(4);
        // Job 0 takes all 4 procs. Job 1 (high reward, 4 procs) blocks the
        // queue; job 2 (1 proc, lower reward) must NOT start before job 1
        // even though processors... are busy anyway; after job 0 finishes,
        // job 1 runs, and job 2 waits again (4 procs still busy).
        let out = run(
            &mut p,
            &[
                job(0, 0.0, 100.0, 1e6, 0.1, 4),
                job(1, 1.0, 100.0, 9e5, 0.1, 4),
                job(2, 2.0, 10.0, 1e4, 0.1, 1), // lower reward rate than job 1
            ],
        );
        let starts: Vec<(JobId, f64)> = out
            .iter()
            .filter_map(|o| match o {
                Outcome::Started { job, at } => Some((*job, *at)),
                _ => None,
            })
            .collect();
        let s2 = starts.iter().find(|s| s.0 == 2).unwrap();
        assert!(
            s2.1 >= 200.0,
            "no backfill: job 2 waits for both wide jobs (started at {})",
            s2.1
        );
    }

    #[test]
    fn acceptance_happens_at_submission_but_start_can_wait() {
        let mut p = FirstRewardPolicy::new(2);
        let out = run(
            &mut p,
            &[
                job(0, 0.0, 100.0, 1e6, 0.1, 2),
                job(1, 5.0, 50.0, 1e6, 0.1, 2),
            ],
        );
        let acc1 = out
            .iter()
            .find_map(|o| match o {
                Outcome::Accepted { job: 1, at } => Some(*at),
                _ => None,
            })
            .unwrap();
        assert_eq!(acc1, 5.0, "accepted immediately at submission");
        let start1 = out
            .iter()
            .find_map(|o| match o {
                Outcome::Started { job: 1, at } => Some(*at),
                _ => None,
            })
            .unwrap();
        assert_eq!(start1, 100.0, "but starts only when processors free");
    }
}
