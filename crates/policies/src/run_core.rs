//! The space-shared run core that EASY backfilling, conservative
//! backfilling and FirstReward share.
//!
//! All three policies run jobs on whole processors of one [`SpaceShared`]
//! pool and differ only in their queue: its order, its admission rules and
//! its pricing. Everything a job does once started lives here — occupying
//! processors, its completion event, its `Completed` outcome, preemption by
//! a node failure and the capacity a repair brings back — so each policy
//! keeps only the queue it serves and a scheduling pass over it.

use crate::traits::{Interruption, Outcome};
use ccs_cluster::SpaceShared;
use ccs_des::{EventHandle, EventQueue, FastHashMap, SimTime};
use ccs_workload::{Job, JobId};

/// A started job.
#[derive(Clone, Copy, Debug)]
struct RunInfo {
    start: f64,
    /// Commodity charge fixed at start; `None` in the bid-based model.
    charged: Option<f64>,
    /// The job itself, kept so a preemption can compute remaining work.
    job: Job,
    /// Handle of the scheduled completion event, cancelled on preemption.
    handle: EventHandle,
}

/// Running jobs on a space-shared pool and their completion events.
pub(crate) struct RunCore {
    cluster: SpaceShared,
    completions: EventQueue<JobId>,
    running: FastHashMap<JobId, RunInfo>,
}

impl RunCore {
    /// An idle pool of `nodes` processors.
    pub(crate) fn new(nodes: u32) -> Self {
        RunCore {
            cluster: SpaceShared::new(nodes),
            completions: EventQueue::new(),
            running: FastHashMap::default(),
        }
    }

    /// The processor pool (occupancy, capacity, reservations).
    pub(crate) fn cluster(&self) -> &SpaceShared {
        &self.cluster
    }

    /// The jobs running now, in an order fixed by the run's history.
    pub(crate) fn running_jobs(&self) -> impl Iterator<Item = &Job> + '_ {
        self.running.values().map(|r| &r.job)
    }

    /// Starts `job` at `now`: its processors are held until its estimate
    /// runs out as far as reservations can tell, and it completes after its
    /// actual runtime. Emits [`Outcome::Started`].
    pub(crate) fn start(
        &mut self,
        job: Job,
        now: f64,
        charged: Option<f64>,
        out: &mut Vec<Outcome>,
    ) {
        self.cluster.start(job.id, job.procs, now + job.estimate);
        let handle = self
            .completions
            .push(SimTime::new(now + job.runtime), job.id);
        out.push(Outcome::Started {
            job: job.id,
            at: now,
        });
        self.running.insert(
            job.id,
            RunInfo {
                start: now,
                charged,
                job,
                handle,
            },
        );
    }

    /// Time of the next completion, if any job is running.
    pub(crate) fn next_event_time(&mut self) -> Option<f64> {
        self.completions.peek_time().map(|t| t.as_secs())
    }

    /// Completes the next job due at or before `t`: frees its processors,
    /// emits [`Outcome::Completed`] and returns the finish time, at which
    /// the owner runs its scheduling pass. `None` once nothing is due.
    pub(crate) fn complete_next(&mut self, t: f64, out: &mut Vec<Outcome>) -> Option<f64> {
        if self.completions.peek_time()?.as_secs() > t {
            return None;
        }
        let (et, job_id) = self.completions.pop().expect("peeked event");
        let finish = et.as_secs();
        let info = self
            .running
            .remove(&job_id)
            .expect("completion of unknown job");
        self.cluster.finish(job_id);
        out.push(Outcome::Completed {
            job: job_id,
            start: info.start,
            finish,
            charged: info.charged,
        });
        Some(finish)
    }

    /// Whether no job is left running (every run completed or preempted).
    pub(crate) fn is_idle(&self) -> bool {
        self.running.is_empty()
    }

    /// Takes one processor down at `now`, preempting the job the pool
    /// picks when the machine was full and reporting it in
    /// `interruptions`. Returns `false` when every processor is already
    /// down (the failure is absorbed with nothing to reclaim).
    pub(crate) fn fail_one(&mut self, now: f64, interruptions: &mut Vec<Interruption>) -> bool {
        let Ok(victim) = self.cluster.fail_one() else {
            return false;
        };
        if let Some(victim) = victim {
            let info = self
                .running
                .remove(&victim)
                .expect("preempted job must be running");
            self.completions.cancel(info.handle);
            let elapsed = (now - info.start).max(0.0);
            interruptions.push(Interruption {
                job: victim,
                started_at: info.start,
                remaining_work: (info.job.runtime - elapsed).max(0.0),
            });
        }
        true
    }

    /// Brings one failed processor back up (no-op when none is down).
    pub(crate) fn repair_one(&mut self) {
        self.cluster.repair_one();
    }
}
