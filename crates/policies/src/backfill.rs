//! EASY backfilling with generous admission control (paper Section 5.2).
//!
//! FCFS-BF, SJF-BF, and EDF-BF share this engine and differ only in how the
//! queue is prioritized (arrival time, runtime estimate, or deadline). The
//! scheduler is space-shared and non-preemptive:
//!
//! - The highest-priority queued job starts as soon as enough processors are
//!   free.
//! - When it cannot start, EASY backfilling lets lower-priority jobs jump
//!   ahead **provided they do not delay the head job's reservation**, judged
//!   from runtime *estimates*: a candidate may start if it is predicted to
//!   finish before the head's shadow time, or if it fits into the extra
//!   processors left at the shadow time.
//! - **Generous admission control**: whenever a job is considered for
//!   execution it is rejected if (i) its estimated completion would exceed
//!   its deadline, or (ii) its deadline already lapsed while it waited in the
//!   queue. In the commodity market model a job whose expected cost exceeds
//!   its budget is rejected as well.

use crate::run_core::RunCore;
use crate::traits::{Interruption, Outcome, Policy, RejectReason};
use ccs_economy::{base_cost, EconomicModel, PriceSchedule};
use ccs_workload::Job;
use std::cmp::Ordering;

/// Structural options of the backfilling scheduler, for ablation studies.
///
/// The paper notes (Section 5.2) that "these policies without job admission
/// control perform much worse, especially when deadlines of jobs are
/// short" — `admission_control: false` reproduces that configuration.
/// `backfilling: false` degrades EASY to plain priority scheduling with
/// head-of-line blocking.
#[derive(Clone, Copy, Debug)]
pub struct BackfillOptions {
    /// Enable EASY backfilling behind a blocked head job.
    pub backfilling: bool,
    /// Enable the generous admission control (deadline + budget checks).
    pub admission_control: bool,
}

impl Default for BackfillOptions {
    fn default() -> Self {
        BackfillOptions {
            backfilling: true,
            admission_control: true,
        }
    }
}

/// Queue discipline of the backfilling scheduler.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PriorityOrder {
    /// First Come First Serve: earliest submission first.
    Fcfs,
    /// Shortest Job First: smallest runtime *estimate* first.
    Sjf,
    /// Earliest Deadline First: earliest absolute deadline first.
    Edf,
}

/// The shared FCFS/SJF/EDF backfilling policy.
pub struct BackfillPolicy {
    name: &'static str,
    order: PriorityOrder,
    econ: EconomicModel,
    options: BackfillOptions,
    /// Commodity price schedule; `None` = the flat base price (the paper's
    /// configuration). Variable schedules price by the job's actual start
    /// window (paper Section 5.1: "prices can be flat or variable").
    schedule: Option<PriceSchedule>,
    runs: RunCore,
    /// Waiting jobs, kept sorted in the policy's priority order at all
    /// times (jobs are immutable while queued, so sortedness is an
    /// invariant maintained by [`BackfillPolicy::enqueue`] instead of a
    /// full re-sort on every scheduling pass).
    queue: Vec<Job>,
    /// Diagnostic counter: scheduling sweeps run so far. The batched fault
    /// hooks exist precisely to keep this from growing once per node in a
    /// failure storm; the regression test pins that contract.
    scheduling_passes: u64,
}

/// Slack for floating-point comparisons of times.
const T_EPS: f64 = 1e-9;

impl BackfillPolicy {
    /// Creates a backfilling policy over `nodes` space-shared processors.
    pub fn new(order: PriorityOrder, econ: EconomicModel, nodes: u32) -> Self {
        Self::with_options(order, econ, nodes, BackfillOptions::default())
    }

    /// Creates a policy with explicit structural options (ablations).
    pub fn with_options(
        order: PriorityOrder,
        econ: EconomicModel,
        nodes: u32,
        options: BackfillOptions,
    ) -> Self {
        let name = match order {
            PriorityOrder::Fcfs => "FCFS-BF",
            PriorityOrder::Sjf => "SJF-BF",
            PriorityOrder::Edf => "EDF-BF",
        };
        BackfillPolicy {
            name,
            order,
            econ,
            options,
            schedule: None,
            runs: RunCore::new(nodes),
            queue: Vec::new(),
            scheduling_passes: 0,
        }
    }

    /// Uses a time-of-use price schedule instead of the flat base price
    /// (commodity model only).
    pub fn with_schedule(mut self, schedule: PriceSchedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// The commodity quote for starting `job` at `now`.
    fn quote(&self, job: &Job, now: f64) -> f64 {
        match &self.schedule {
            None => base_cost(job),
            Some(s) => s.cost(now, job.estimate, job.procs),
        }
    }

    /// Total scheduling sweeps (`BackfillPolicy::try_schedule` runs) so
    /// far — a cost diagnostic: a batched N-node failure storm should add
    /// exactly one, not N.
    #[cfg(test)]
    pub(crate) fn scheduling_passes(&self) -> u64 {
        self.scheduling_passes
    }

    /// The queue's priority relation. Ids break every tie, so this is a
    /// total order in which no two distinct jobs compare equal — a
    /// binary-search insert therefore lands each job exactly where a
    /// (stable) full sort would put it.
    fn queue_cmp(order: PriorityOrder, a: &Job, b: &Job) -> Ordering {
        match order {
            PriorityOrder::Fcfs => a.submit.total_cmp(&b.submit).then(a.id.cmp(&b.id)),
            PriorityOrder::Sjf => a.estimate.total_cmp(&b.estimate).then(a.id.cmp(&b.id)),
            PriorityOrder::Edf => a
                .absolute_deadline()
                .total_cmp(&b.absolute_deadline())
                .then(a.id.cmp(&b.id)),
        }
    }

    /// Inserts a job at its priority position, keeping the queue sorted.
    fn enqueue(&mut self, job: Job) {
        let order = self.order;
        let pos = match self
            .queue
            .binary_search_by(|probe| Self::queue_cmp(order, probe, &job))
        {
            Ok(p) | Err(p) => p,
        };
        self.queue.insert(pos, job);
    }

    /// Generous admission control, applied whenever a job is considered for
    /// execution. Returns the rejection reason when the job must go.
    fn admission_error(&self, job: &Job, now: f64) -> Option<RejectReason> {
        if !self.options.admission_control {
            return None; // ablation: accept everything, deadlines be damned
        }
        let abs_deadline = job.absolute_deadline();
        if now > abs_deadline + T_EPS {
            return Some(RejectReason::DeadlineLapsed); // (ii) lapsed while waiting
        }
        if now + job.estimate > abs_deadline + T_EPS {
            return Some(RejectReason::EstimateExceedsDeadline); // (i)
        }
        if self.econ == EconomicModel::CommodityMarket && self.quote(job, now) > job.budget {
            return Some(RejectReason::OverBudget);
        }
        None
    }

    fn start(&mut self, job: Job, now: f64, out: &mut Vec<Outcome>) {
        let charged = match self.econ {
            EconomicModel::CommodityMarket => Some(self.quote(&job, now)),
            EconomicModel::BidBased => None,
        };
        out.push(Outcome::Accepted {
            job: job.id,
            at: now,
        });
        self.runs.start(job, now, charged, out);
    }

    /// Core scheduling pass: start/reject from the head, then backfill.
    fn try_schedule(&mut self, now: f64, out: &mut Vec<Outcome>) {
        self.scheduling_passes += 1;
        debug_assert!(
            self.queue
                .windows(2)
                .all(|w| Self::queue_cmp(self.order, &w[0], &w[1]) == Ordering::Less),
            "queue sortedness invariant broken"
        );
        // Phase 1 — service the head of the queue while possible.
        loop {
            let Some(head) = self.queue.first() else {
                return;
            };
            if let Some(reason) = self.admission_error(head, now) {
                let job = self.queue.remove(0);
                out.push(Outcome::Rejected {
                    job: job.id,
                    at: now,
                    reason,
                });
                continue;
            }
            if head.procs <= self.runs.cluster().free_procs() {
                let job = self.queue.remove(0);
                self.start(job, now, out);
                continue;
            }
            break; // head admissible but blocked: try backfilling
        }

        // Phase 2 — EASY backfill against the head's reservation.
        if !self.options.backfilling {
            return; // ablation: plain priority scheduling, no backfill
        }
        let head = self.queue[0];
        if head.procs > self.runs.cluster().total() {
            // Failures shrank the cluster below the head's demand: no
            // reservation is computable until capacity returns (or the
            // head's deadline lapses and it is rejected above).
            return;
        }
        let res = self.runs.cluster().reservation(head.procs, now);
        let mut extra = res.extra_procs;
        let mut i = 1;
        while i < self.queue.len() {
            let cand = self.queue[i];
            if let Some(reason) = self.admission_error(&cand, now) {
                self.queue.remove(i);
                out.push(Outcome::Rejected {
                    job: cand.id,
                    at: now,
                    reason,
                });
                continue;
            }
            if cand.procs <= self.runs.cluster().free_procs() {
                let fits_before_shadow = now + cand.estimate <= res.shadow_time + T_EPS;
                let fits_extra = cand.procs <= extra;
                if fits_before_shadow || fits_extra {
                    if !fits_before_shadow {
                        extra -= cand.procs;
                    }
                    self.queue.remove(i);
                    self.start(cand, now, out);
                    continue;
                }
            }
            i += 1;
        }
    }
}

impl Policy for BackfillPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_submit(&mut self, job: &Job, now: f64, out: &mut Vec<Outcome>) {
        if job.procs > self.runs.cluster().base() {
            // Physically impossible on this cluster (even with every node
            // up), regardless of options.
            out.push(Outcome::Rejected {
                job: job.id,
                at: now,
                reason: RejectReason::TooLarge,
            });
            return;
        }
        self.enqueue(*job);
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
        // The queue may legitimately be non-empty here: under failure
        // injection the runner abandons futile weather (nodes that will
        // never again be up together), leaving wide jobs queued forever —
        // they are scored as accepted-but-unfulfilled.
        debug_assert!(self.runs.is_idle(), "no job may be left running");
    }

    fn on_nodes_fail(
        &mut self,
        nodes: &[u32],
        now: f64,
        out: &mut Vec<Outcome>,
    ) -> Vec<Interruption> {
        let mut interruptions = Vec::new();
        let mut capacity_changed = false;
        for _ in nodes {
            capacity_changed |= self.runs.fail_one(now, &mut interruptions);
        }
        if capacity_changed {
            // Capacity changed: re-examine the queue *once* for the whole
            // batch. This re-runs the admission checks, rejecting queued
            // jobs whose deadline can no longer be met, and may backfill
            // into the preempted jobs' surviving processors.
            self.try_schedule(now, out);
        }
        interruptions
    }

    fn on_nodes_repair(&mut self, nodes: &[u32], now: f64, out: &mut Vec<Outcome>) {
        for _ in nodes {
            self.runs.repair_one();
        }
        self.try_schedule(now, out);
    }

    fn queued_jobs(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_workload::{JobId, Urgency};

    fn job(id: JobId, submit: f64, runtime: f64, estimate: f64, deadline: f64, procs: u32) -> Job {
        Job {
            id,
            submit,
            runtime,
            estimate,
            procs,
            urgency: Urgency::Low,
            deadline,
            budget: 1e12,
            penalty_rate: 1.0,
        }
    }

    fn run(policy: &mut BackfillPolicy, jobs: &[Job]) -> Vec<Outcome> {
        let mut out = Vec::new();
        for j in jobs {
            policy.advance_to(j.submit, &mut out);
            policy.on_submit(j, j.submit, &mut out);
        }
        policy.drain(&mut out);
        out
    }

    fn completions(out: &[Outcome]) -> Vec<(JobId, f64)> {
        out.iter()
            .filter_map(|o| match o {
                Outcome::Completed { job, finish, .. } => Some((*job, *finish)),
                _ => None,
            })
            .collect()
    }

    fn rejected(out: &[Outcome]) -> Vec<JobId> {
        out.iter()
            .filter_map(|o| match o {
                Outcome::Rejected { job, .. } => Some(*job),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn immediate_start_when_cluster_free() {
        let mut p = BackfillPolicy::new(PriorityOrder::Fcfs, EconomicModel::BidBased, 8);
        let out = run(&mut p, &[job(0, 0.0, 100.0, 100.0, 1000.0, 4)]);
        assert!(matches!(out[0], Outcome::Accepted { job: 0, at } if at == 0.0));
        assert!(matches!(out[1], Outcome::Started { job: 0, at } if at == 0.0));
        assert_eq!(completions(&out), vec![(0, 100.0)]);
    }

    #[test]
    fn fcfs_blocks_head_of_line() {
        let mut p = BackfillPolicy::new(PriorityOrder::Fcfs, EconomicModel::BidBased, 8);
        // Job 0 takes all 8; job 1 needs 8 (queued); job 2 needs 2 but is
        // long (est 1000 > shadow) -> cannot backfill... but extra procs at
        // shadow = 0 so it must wait.
        let out = run(
            &mut p,
            &[
                job(0, 0.0, 100.0, 100.0, 1e6, 8),
                job(1, 1.0, 100.0, 100.0, 1e6, 8),
                job(2, 2.0, 1000.0, 1000.0, 1e6, 2),
            ],
        );
        let c = completions(&out);
        assert_eq!(c[0].0, 0);
        assert_eq!(c[1], (1, 200.0), "job 1 starts when job 0 finishes");
        assert_eq!(c[2], (2, 1200.0), "job 2 waits behind both");
    }

    #[test]
    fn easy_backfill_fills_holes_without_delaying_head() {
        let mut p = BackfillPolicy::new(PriorityOrder::Fcfs, EconomicModel::BidBased, 8);
        // Job 0 uses 6 procs until t=100. Job 1 (head of queue) needs 8:
        // shadow = 100. Job 2 needs 2 procs for 50s: fits before shadow.
        let out = run(
            &mut p,
            &[
                job(0, 0.0, 100.0, 100.0, 1e6, 6),
                job(1, 1.0, 100.0, 100.0, 1e6, 8),
                job(2, 2.0, 50.0, 50.0, 1e6, 2),
            ],
        );
        let c = completions(&out);
        assert_eq!(c[0], (2, 52.0), "job 2 backfilled at t=2");
        assert_eq!(c[1], (0, 100.0));
        assert_eq!(c[2], (1, 200.0), "head not delayed by the backfill");
    }

    #[test]
    fn backfill_denied_when_it_would_delay_head() {
        let mut p = BackfillPolicy::new(PriorityOrder::Fcfs, EconomicModel::BidBased, 8);
        // Same as above but job 2 runs for 500 s: it would hold 2 procs past
        // the shadow time (100) and extra at shadow is 0 -> denied.
        let out = run(
            &mut p,
            &[
                job(0, 0.0, 100.0, 100.0, 1e6, 6),
                job(1, 1.0, 100.0, 100.0, 1e6, 8),
                job(2, 2.0, 500.0, 500.0, 1e6, 2),
            ],
        );
        let c = completions(&out);
        assert_eq!(c[0], (0, 100.0));
        assert_eq!(c[1], (1, 200.0), "head runs on time");
        assert_eq!(c[2], (2, 700.0), "long job waits for the head");
    }

    #[test]
    fn backfill_into_extra_procs_at_shadow() {
        let mut p = BackfillPolicy::new(PriorityOrder::Fcfs, EconomicModel::BidBased, 8);
        // Job 0 uses 4 procs until 100. Head job 1 needs 6 -> shadow 100,
        // extra = 8 - 6 = 2 at shadow. Job 2 needs 2 procs for 500 s: holds
        // procs past shadow but fits in the extra -> allowed.
        let out = run(
            &mut p,
            &[
                job(0, 0.0, 100.0, 100.0, 1e6, 4),
                job(1, 1.0, 100.0, 100.0, 1e6, 6),
                job(2, 2.0, 500.0, 500.0, 1e6, 2),
            ],
        );
        let c = completions(&out);
        assert_eq!(c[0], (0, 100.0));
        assert_eq!(c[1], (1, 200.0), "head starts at its shadow time");
        assert_eq!(c[2], (2, 502.0), "extra-proc backfill started at t=2");
    }

    #[test]
    fn sjf_orders_by_estimate() {
        let mut p = BackfillPolicy::new(PriorityOrder::Sjf, EconomicModel::BidBased, 4);
        // All three need the whole machine; the shortest queued job runs next.
        let out = run(
            &mut p,
            &[
                job(0, 0.0, 100.0, 100.0, 1e6, 4),
                job(1, 1.0, 300.0, 300.0, 1e6, 4),
                job(2, 2.0, 50.0, 50.0, 1e6, 4),
            ],
        );
        let c = completions(&out);
        assert_eq!(c[0].0, 0);
        assert_eq!(c[1].0, 2, "SJF runs the 50s job before the 300s job");
        assert_eq!(c[2].0, 1);
    }

    #[test]
    fn edf_orders_by_deadline() {
        let mut p = BackfillPolicy::new(PriorityOrder::Edf, EconomicModel::BidBased, 4);
        let out = run(
            &mut p,
            &[
                job(0, 0.0, 100.0, 100.0, 1e6, 4),
                job(1, 1.0, 100.0, 100.0, 1e6, 4), // deadline ~1e6
                job(2, 2.0, 100.0, 100.0, 400.0, 4), // deadline 402
            ],
        );
        let c = completions(&out);
        assert_eq!(c[1].0, 2, "EDF runs the tight-deadline job first");
        assert_eq!(c[2].0, 1);
    }

    #[test]
    fn generous_admission_rejects_lapsed_and_hopeless_jobs() {
        let mut p = BackfillPolicy::new(PriorityOrder::Fcfs, EconomicModel::BidBased, 4);
        // Job 1's deadline (80) can't fit its estimate (100): rejected on
        // first consideration. Job 2 would finish at 200 > 150: rejected once
        // job 0 occupies the machine and its own deadline lapses.
        let out = run(
            &mut p,
            &[
                job(0, 0.0, 100.0, 100.0, 1e6, 4),
                job(1, 1.0, 100.0, 100.0, 80.0, 4),
                job(2, 2.0, 100.0, 100.0, 50.0, 4),
            ],
        );
        let r = rejected(&out);
        assert!(r.contains(&1));
        assert!(r.contains(&2));
        assert_eq!(completions(&out).len(), 1);
    }

    #[test]
    fn commodity_rejects_over_budget_jobs() {
        let mut p = BackfillPolicy::new(PriorityOrder::Fcfs, EconomicModel::CommodityMarket, 4);
        let mut j = job(0, 0.0, 100.0, 100.0, 1e6, 4);
        j.budget = 100.0; // base cost = 100*4 = 400 > 100
        let out = run(&mut p, &[j]);
        assert_eq!(rejected(&out), vec![0]);
    }

    #[test]
    fn commodity_charges_estimate_based_cost() {
        let mut p = BackfillPolicy::new(PriorityOrder::Fcfs, EconomicModel::CommodityMarket, 4);
        let j = job(0, 0.0, 100.0, 150.0, 1e6, 2); // over-estimated
        let out = run(&mut p, &[j]);
        let charged = out
            .iter()
            .find_map(|o| match o {
                Outcome::Completed { charged, .. } => *charged,
                _ => None,
            })
            .unwrap();
        assert_eq!(charged, 300.0, "est 150 × 2 procs × $1");
    }

    #[test]
    fn time_of_use_schedule_prices_by_start_window() {
        use ccs_economy::PriceSchedule;
        let tou = PriceSchedule::PeakOffPeak {
            peak: 2.0,
            off_peak: 0.5,
            peak_start_hour: 9,
            peak_end_hour: 17,
        };
        let mut p = BackfillPolicy::new(PriorityOrder::Fcfs, EconomicModel::CommodityMarket, 4)
            .with_schedule(tou);
        // One job entirely off-peak (03:00), one entirely in-peak (12:00).
        let night = job(0, 3.0 * 3600.0, 3600.0, 3600.0, 1e6, 2);
        let day = job(1, 12.0 * 3600.0, 3600.0, 3600.0, 1e6, 2);
        let out = run(&mut p, &[night, day]);
        let charged = |id: JobId| {
            out.iter()
                .find_map(|o| match o {
                    Outcome::Completed { job, charged, .. } if *job == id => *charged,
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(charged(0), 3600.0 * 0.5 * 2.0, "off-peak rate");
        assert_eq!(charged(1), 3600.0 * 2.0 * 2.0, "peak rate");
    }

    #[test]
    fn underestimated_job_delays_head_beyond_shadow() {
        // The reservation is computed from estimates; an under-estimate can
        // push the head past its expected start — the paper's core Set B
        // effect for backfilling policies.
        let mut p = BackfillPolicy::new(PriorityOrder::Fcfs, EconomicModel::BidBased, 8);
        let mut j0 = job(0, 0.0, 500.0, 100.0, 1e6, 8); // claims 100, runs 500
        j0.estimate = 100.0;
        let out = run(&mut p, &[j0, job(1, 1.0, 100.0, 100.0, 1e6, 8)]);
        let c = completions(&out);
        assert_eq!(c[0], (0, 500.0));
        assert_eq!(c[1], (1, 600.0), "head started only at the real finish");
    }

    #[test]
    fn node_fail_preempts_and_repair_restarts_the_queue() {
        let mut p = BackfillPolicy::new(PriorityOrder::Fcfs, EconomicModel::BidBased, 4);
        let mut out = Vec::new();
        let a = job(0, 0.0, 100.0, 100.0, 1e6, 4);
        p.on_submit(&a, 0.0, &mut out);
        let b = job(1, 1.0, 50.0, 50.0, 1e6, 4);
        p.advance_to(1.0, &mut out);
        p.on_submit(&b, 1.0, &mut out);
        assert_eq!(p.queued_jobs(), 1);

        // A node dies at t=10: every processor is busy, so job 0 (the only
        // candidate) is preempted; job 1 still needs 4 > 3 up processors.
        let hit = p.on_nodes_fail(&[0], 10.0, &mut out);
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].job, 0);
        assert!((hit[0].remaining_work - 90.0).abs() < 1e-9);
        assert_eq!(p.queued_jobs(), 1, "job 1 cannot start on 3 procs");

        // Repair at t=20: job 1 finally starts.
        p.on_nodes_repair(&[0], 20.0, &mut out);
        assert_eq!(p.queued_jobs(), 0);
        p.drain(&mut out);
        assert_eq!(completions(&out), vec![(1, 70.0)]);
    }

    #[test]
    fn node_fail_rejects_queued_jobs_with_lapsed_deadlines() {
        let mut p = BackfillPolicy::new(PriorityOrder::Fcfs, EconomicModel::BidBased, 2);
        let mut out = Vec::new();
        p.on_submit(&job(0, 0.0, 1000.0, 1000.0, 1e6, 2), 0.0, &mut out);
        // Estimate 100 with deadline 150: feasible only if started by t=50.
        p.advance_to(1.0, &mut out);
        p.on_submit(&job(1, 1.0, 100.0, 100.0, 150.0, 2), 1.0, &mut out);
        // The failure at t=200 triggers a queue re-examination which notices
        // job 1's deadline lapsed while it waited.
        let hit = p.on_nodes_fail(&[0], 200.0, &mut out);
        assert_eq!(hit[0].job, 0);
        assert!(rejected(&out).contains(&1));
    }

    #[test]
    fn simultaneous_failure_storm_runs_one_reclamation_pass() {
        // A 100-node storm delivered through the batch hook must cost ONE
        // scheduling sweep (capacity reclamation pass), not one per node —
        // and still preempt exactly the jobs sequential delivery would.
        let mut p = BackfillPolicy::new(PriorityOrder::Fcfs, EconomicModel::BidBased, 100);
        let mut out = Vec::new();
        for i in 0..10 {
            // Ten 10-proc jobs fill the machine.
            p.on_submit(&job(i, 0.0, 1000.0, 1000.0, 1e6, 10), 0.0, &mut out);
        }
        assert_eq!(p.queued_jobs(), 0, "machine exactly full");
        let before = p.scheduling_passes();
        let nodes: Vec<u32> = (0..100).collect();
        let hit = p.on_nodes_fail(&nodes, 10.0, &mut out);
        assert_eq!(hit.len(), 10, "every running job preempted");
        assert_eq!(
            p.scheduling_passes() - before,
            1,
            "one reclamation pass for the whole storm"
        );
        // And the batch result matches node-at-a-time delivery exactly.
        let mut q = BackfillPolicy::new(PriorityOrder::Fcfs, EconomicModel::BidBased, 100);
        let mut qout = Vec::new();
        for i in 0..10 {
            q.on_submit(&job(i, 0.0, 1000.0, 1000.0, 1e6, 10), 0.0, &mut qout);
        }
        let seq_before = q.scheduling_passes();
        let mut seq_hit = Vec::new();
        for n in 0..100u32 {
            seq_hit.extend(q.on_nodes_fail(&[n], 10.0, &mut qout));
        }
        assert_eq!(hit, seq_hit);
        assert_eq!(
            q.scheduling_passes() - seq_before,
            100,
            "node-at-a-time delivery pays a pass per node"
        );
    }

    #[test]
    fn drain_empties_queue() {
        let mut p = BackfillPolicy::new(PriorityOrder::Fcfs, EconomicModel::BidBased, 2);
        let jobs: Vec<Job> = (0..20)
            .map(|i| job(i, i as f64, 10.0, 10.0, 1e6, 1))
            .collect();
        let out = run(&mut p, &jobs);
        assert_eq!(completions(&out).len(), 20);
        assert_eq!(p.queued_jobs(), 0);
    }
}
