//! Conservative backfilling (Mu'alem & Feitelson 2001 — the paper's
//! reference \[19\] studies EASY vs conservative on the same SP2 traces).
//!
//! Where EASY backfilling only protects the *head* of the queue,
//! conservative backfilling gives **every** queued job a reservation when
//! it arrives: a backfill move is allowed only if it delays *no* existing
//! reservation (judged, as always, from runtime estimates). This trades
//! some utilization for predictability — queued jobs can be given a start
//! guarantee at submission time.
//!
//! This policy is an extension beyond the paper's evaluated set (the paper
//! evaluates EASY variants only); it is provided as an additional baseline
//! and is exercised by the EASY-vs-conservative ablation.
//!
//! Implementation: a *profile* of free processors over time is maintained
//! as step functions; each job is placed at the earliest estimate-feasible
//! slot. Actual completions (which may differ from the estimates) trigger a
//! full re-plan of the waiting queue, preserving the relative reservation
//! order — the standard "compression" step of conservative backfilling.
//! Started jobs run on the space-shared run core that EASY backfilling and
//! FirstReward use too; this policy keeps only its reservation plan. Node
//! failures are not modelled here (its fault hooks are the no-op defaults).

use crate::run_core::RunCore;
use crate::traits::{Outcome, Policy, RejectReason};
use ccs_economy::{base_cost, EconomicModel};
use ccs_workload::Job;

/// A planned (not yet started) job: its reservation start time.
#[derive(Clone, Copy, Debug)]
struct Reservation {
    job: Job,
    start: f64,
}

/// Conservative backfilling over space-shared processors (FCFS reservation
/// order).
pub struct ConservativeBf {
    econ: EconomicModel,
    runs: RunCore,
    /// Waiting jobs with reservations, in reservation order.
    plan: Vec<Reservation>,
    /// Reusable profile buffers for `earliest_start` — placements happen
    /// on every submit/completion/replan, so they must not allocate.
    deltas_scratch: Vec<(f64, i64)>,
    candidates_scratch: Vec<f64>,
}

const T_EPS: f64 = 1e-9;

impl ConservativeBf {
    /// Creates a conservative-backfilling policy over `nodes` processors.
    pub fn new(econ: EconomicModel, nodes: u32) -> Self {
        ConservativeBf {
            econ,
            runs: RunCore::new(nodes),
            plan: Vec::new(),
            deltas_scratch: Vec::new(),
            candidates_scratch: Vec::new(),
        }
    }

    /// The generous admission control shared with the EASY policies.
    /// Returns the rejection reason when the job cannot be admitted.
    fn admission_error(&self, job: &Job, planned_start: f64) -> Option<RejectReason> {
        if planned_start + job.estimate > job.absolute_deadline() + T_EPS {
            return Some(RejectReason::EstimateExceedsDeadline);
        }
        if self.econ == EconomicModel::CommodityMarket && base_cost(job) > job.budget {
            return Some(RejectReason::OverBudget);
        }
        None
    }

    /// Earliest estimate-feasible start for `job` given the running set and
    /// the reservations in `plan_prefix` (all earlier-reserved jobs).
    ///
    /// Works on a step profile of free processors built from running jobs'
    /// estimated completions and the prefix reservations. Running jobs'
    /// releases all add processors and are pushed first, so the stable sort
    /// keeps them ahead of any reservation change at the same instant:
    /// their order among themselves decides nothing.
    fn earliest_start(
        &self,
        job: &Job,
        plan_prefix: &[Reservation],
        now: f64,
        deltas: &mut Vec<(f64, i64)>,
        candidates: &mut Vec<f64>,
    ) -> f64 {
        // Build change points: (time, delta free procs).
        deltas.clear();
        let pool = self.runs.cluster();
        deltas.extend(pool.releases(now).map(|(t, procs)| (t, procs as i64)));
        for res in plan_prefix {
            deltas.push((res.start, -(res.job.procs as i64)));
            deltas.push((res.start + res.job.estimate, res.job.procs as i64));
        }
        deltas.sort_by(|a, b| a.0.total_cmp(&b.0));

        let free = pool.free_procs() as i64;
        // Candidate start times: now and every change point.
        candidates.clear();
        candidates.push(now);
        candidates.extend(deltas.iter().map(|d| d.0));
        let need = job.procs as i64;

        for &cand in candidates.iter() {
            if cand < now {
                continue;
            }
            // Free processors throughout [cand, cand + estimate)?
            let mut f = free;
            let mut ok = true;
            // free procs at time cand:
            for &(t, d) in deltas.iter() {
                if t <= cand + T_EPS {
                    f += d;
                }
            }
            if f < need {
                continue;
            }
            // Check the window: apply deltas inside (cand, cand+est).
            let mut fw = f - need; // commit the job
            for &(t, d) in deltas.iter() {
                if t > cand + T_EPS && t < cand + job.estimate - T_EPS {
                    fw += d;
                    if fw < 0 {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                return cand;
            }
        }
        // Fallback: after everything (cannot happen: the last candidate —
        // when all load drains — always fits).
        unreachable!("a slot always exists once the machine drains")
    }

    /// Re-plans every queued job (in reservation order) from scratch — run
    /// after any event that changes the schedule. Jobs whose reservation can
    /// no longer meet their deadline are rejected.
    fn replan(&mut self, now: f64, out: &mut Vec<Outcome>) {
        let old_plan = std::mem::take(&mut self.plan);
        for res in old_plan {
            self.place(res.job, now, out);
        }
    }

    /// Computes a reservation for `job` and either starts it (reservation is
    /// now), queues it, or rejects it.
    fn place(&mut self, job: Job, now: f64, out: &mut Vec<Outcome>) {
        let mut deltas = std::mem::take(&mut self.deltas_scratch);
        let mut candidates = std::mem::take(&mut self.candidates_scratch);
        let start = self.earliest_start(&job, &self.plan, now, &mut deltas, &mut candidates);
        self.deltas_scratch = deltas;
        self.candidates_scratch = candidates;
        if let Some(reason) = self.admission_error(&job, start) {
            out.push(Outcome::Rejected {
                job: job.id,
                at: now,
                reason,
            });
            return;
        }
        // The profile is estimate-optimistic (overrunning jobs are treated
        // as releasing "now"), so gate actual starts on real occupancy.
        if start <= now + T_EPS && job.procs <= self.runs.cluster().free_procs() {
            let charged = match self.econ {
                EconomicModel::CommodityMarket => Some(base_cost(&job)),
                EconomicModel::BidBased => None,
            };
            out.push(Outcome::Accepted {
                job: job.id,
                at: now,
            });
            self.runs.start(job, now, charged, out);
        } else {
            self.plan.push(Reservation {
                job,
                start: start.max(now),
            });
        }
    }
}

impl Policy for ConservativeBf {
    fn name(&self) -> &'static str {
        "Cons-BF"
    }

    fn on_submit(&mut self, job: &Job, now: f64, out: &mut Vec<Outcome>) {
        if job.procs > self.runs.cluster().base() {
            out.push(Outcome::Rejected {
                job: job.id,
                at: now,
                reason: RejectReason::TooLarge,
            });
            return;
        }
        self.place(*job, now, out);
    }

    fn next_event_time(&mut self) -> Option<f64> {
        self.runs.next_event_time()
    }

    fn advance_to(&mut self, t: f64, out: &mut Vec<Outcome>) {
        loop {
            // Fire the next completion, or start the next due reservation,
            // whichever comes first within the horizon. Reservations can
            // mature between completions (exact-fit schedules with accurate
            // estimates), but an un-startable matured reservation (an
            // overrunning predecessor) simply waits for the next completion.
            let next_completion = self.runs.next_event_time();
            let free = self.runs.cluster().free_procs();
            // Only reservations that could actually start.
            let next_reservation = self
                .plan
                .iter()
                .filter(|r| r.job.procs <= free)
                .map(|r| r.start)
                .fold(f64::INFINITY, f64::min);
            match next_completion {
                Some(tc) if tc <= t && tc <= next_reservation => {
                    let finish = self.runs.complete_next(tc, out).expect("due completion");
                    // Compression: early completions pull reservations
                    // forward; late ones push them back. Either way,
                    // re-derive the plan.
                    self.replan(finish, out);
                }
                _ if next_reservation.is_finite() && next_reservation <= t => {
                    let before = self.plan.len() + self.runs.cluster().running_jobs();
                    self.replan(next_reservation, out);
                    let progressed = self.plan.len() + self.runs.cluster().running_jobs() != before
                        || self.plan.iter().all(|r| r.start > next_reservation + T_EPS);
                    if !progressed {
                        break; // blocked on an overrunning job: wait
                    }
                }
                _ => break,
            }
        }
    }

    fn drain(&mut self, out: &mut Vec<Outcome>) {
        // Completions always make progress; between them, matured
        // reservations start as capacity allows.
        while !self.runs.is_idle() || !self.plan.is_empty() {
            let before_running = self.runs.cluster().running_jobs();
            let before_plan = self.plan.len();
            self.advance_to(f64::INFINITY, out);
            if self.runs.cluster().running_jobs() == before_running
                && self.plan.len() == before_plan
            {
                // Fully blocked with nothing running: impossible unless the
                // plan is empty; guard against an infinite loop regardless.
                if self.runs.is_idle() {
                    // With nothing running, replan at the earliest
                    // reservation to force starts.
                    let t = self
                        .plan
                        .iter()
                        .map(|r| r.start)
                        .fold(f64::INFINITY, f64::min);
                    if t.is_finite() {
                        self.replan(t, out);
                    }
                    if self.runs.is_idle() && !self.plan.is_empty() {
                        unreachable!("conservative plan wedged with an idle machine");
                    }
                }
            }
        }
        debug_assert!(self.plan.is_empty());
        debug_assert!(self.runs.is_idle());
    }

    fn queued_jobs(&self) -> usize {
        self.plan.len()
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

    fn run(policy: &mut ConservativeBf, jobs: &[Job]) -> Vec<Outcome> {
        let mut out = Vec::new();
        for j in jobs {
            policy.advance_to(j.submit, &mut out);
            policy.on_submit(j, j.submit, &mut out);
        }
        policy.drain(&mut out);
        out
    }

    fn finish_of(out: &[Outcome], id: JobId) -> f64 {
        out.iter()
            .find_map(|o| match o {
                Outcome::Completed { job, finish, .. } if *job == id => Some(*finish),
                _ => None,
            })
            .unwrap_or_else(|| panic!("job {id} never completed"))
    }

    fn start_of(out: &[Outcome], id: JobId) -> f64 {
        out.iter()
            .find_map(|o| match o {
                Outcome::Started { job, at } if *job == id => Some(*at),
                _ => None,
            })
            .unwrap_or_else(|| panic!("job {id} never started"))
    }

    #[test]
    fn a_fitting_reservation_starts_beside_a_blocked_one_at_its_start() {
        // Jobs 0 and 2 overrun their estimates and run until 70. Job 1
        // (6 procs) and job 4 (1 proc) come to be reserved at 50, where job
        // 0's estimate ends; job 0 still holds its 4 procs then, which
        // leaves 2 free: room for job 4 only. Job 4 starts at 50 instead of
        // waiting for the completions at 70.
        let mut p = ConservativeBf::new(EconomicModel::BidBased, 7);
        let jobs = [
            job(0, 10.0, 60.0, 40.0, 1e6, 4),
            job(1, 10.0, 30.0, 50.0, 1e6, 6),
            job(2, 10.0, 60.0, 20.0, 1e6, 1),
            job(3, 10.0, 20.0, 10.0, 1e6, 3),
            job(4, 30.0, 10.0, 60.0, 1e6, 1),
        ];
        let out = run(&mut p, &jobs);
        assert_eq!(start_of(&out, 4), 50.0);
        assert_eq!(start_of(&out, 1), 70.0);
    }

    #[test]
    fn immediate_start_on_idle_machine() {
        let mut p = ConservativeBf::new(EconomicModel::BidBased, 8);
        let out = run(&mut p, &[job(0, 0.0, 100.0, 100.0, 1e6, 4)]);
        assert_eq!(finish_of(&out, 0), 100.0);
    }

    #[test]
    fn fifo_service_when_machine_contended() {
        let mut p = ConservativeBf::new(EconomicModel::BidBased, 8);
        let out = run(
            &mut p,
            &[
                job(0, 0.0, 100.0, 100.0, 1e6, 8),
                job(1, 1.0, 100.0, 100.0, 1e6, 8),
            ],
        );
        assert_eq!(finish_of(&out, 0), 100.0);
        assert_eq!(finish_of(&out, 1), 200.0);
    }

    #[test]
    fn backfills_when_no_reservation_is_delayed() {
        let mut p = ConservativeBf::new(EconomicModel::BidBased, 8);
        // Job 0: 6 procs until 100. Job 1: 8 procs, reserved at 100.
        // Job 2: 2 procs for 50 s fits before job 1's reservation.
        let out = run(
            &mut p,
            &[
                job(0, 0.0, 100.0, 100.0, 1e6, 6),
                job(1, 1.0, 100.0, 100.0, 1e6, 8),
                job(2, 2.0, 50.0, 50.0, 1e6, 2),
            ],
        );
        assert_eq!(finish_of(&out, 2), 52.0, "backfilled immediately");
        assert_eq!(finish_of(&out, 1), 200.0, "reservation preserved");
    }

    #[test]
    fn protects_every_reservation_not_just_the_head() {
        // EASY would backfill job 3 using the 'extra' slack of the head
        // reservation even if it delays job 2's (second) reservation;
        // conservative must not.
        let mut p = ConservativeBf::new(EconomicModel::BidBased, 4);
        let out = run(
            &mut p,
            &[
                job(0, 0.0, 100.0, 100.0, 1e6, 4), // runs now
                job(1, 1.0, 50.0, 50.0, 1e6, 4),   // reserved at 100
                job(2, 2.0, 50.0, 50.0, 1e6, 2),   // reserved at 150
                job(3, 3.0, 300.0, 300.0, 1e6, 2), // would delay job 2 if backfilled
            ],
        );
        assert!(
            finish_of(&out, 2) <= 200.0 + 1e-6,
            "job 2's reservation held"
        );
        assert!(finish_of(&out, 3) >= 300.0, "job 3 waited instead");
    }

    #[test]
    fn early_completion_compresses_the_plan() {
        let mut p = ConservativeBf::new(EconomicModel::BidBased, 4);
        // Job 0 claims 1000 s but finishes in 100 s; job 1's reservation
        // (planned at 1000) must compress to 100.
        let mut j0 = job(0, 0.0, 100.0, 1000.0, 1e6, 4);
        j0.estimate = 1000.0;
        let out = run(&mut p, &[j0, job(1, 1.0, 50.0, 50.0, 1e6, 4)]);
        assert_eq!(finish_of(&out, 1), 150.0, "compressed after early finish");
    }

    #[test]
    fn rejects_jobs_whose_reservation_misses_the_deadline() {
        let mut p = ConservativeBf::new(EconomicModel::BidBased, 4);
        let out = run(
            &mut p,
            &[
                job(0, 0.0, 100.0, 100.0, 1e6, 4),
                job(1, 1.0, 100.0, 100.0, 120.0, 4), // would start at 100, end 200 > 121
            ],
        );
        assert!(out
            .iter()
            .any(|o| matches!(o, Outcome::Rejected { job: 1, .. })));
    }

    #[test]
    fn drains_large_contended_queues() {
        let mut p = ConservativeBf::new(EconomicModel::BidBased, 4);
        let jobs: Vec<Job> = (0..30)
            .map(|i| job(i, i as f64, 50.0, 60.0, 1e7, 1 + (i % 4)))
            .collect();
        let out = run(&mut p, &jobs);
        let completed = out
            .iter()
            .filter(|o| matches!(o, Outcome::Completed { .. }))
            .count();
        let rejected = out
            .iter()
            .filter(|o| matches!(o, Outcome::Rejected { .. }))
            .count();
        assert_eq!(completed + rejected, 30);
        assert_eq!(p.queued_jobs(), 0);
    }

    #[test]
    fn commodity_pricing_applies() {
        let mut p = ConservativeBf::new(EconomicModel::CommodityMarket, 4);
        let out = run(&mut p, &[job(0, 0.0, 100.0, 150.0, 1e6, 2)]);
        let charged = out
            .iter()
            .find_map(|o| match o {
                Outcome::Completed { charged, .. } => *charged,
                _ => None,
            })
            .unwrap();
        assert_eq!(charged, 300.0);
    }
}
