//! Space-shared cluster: whole processors allocated to one job at a time.
//!
//! This is the execution model of commercial batch schedulers and of the
//! paper's backfilling policies. The cluster itself only tracks processor
//! occupancy; *when* jobs finish is driven by the service simulator (which
//! knows actual runtimes). What this module adds beyond counting is the
//! **reservation computation** for EASY backfilling: given the queue head's
//! processor demand, compute from the running jobs' *estimated* completions
//! the shadow time (earliest time the head can start) and the number of
//! extra processors left over at that moment.

use ccs_workload::JobId;

/// A job currently occupying processors.
#[derive(Clone, Copy, Debug)]
struct Running {
    job_id: JobId,
    procs: u32,
    /// Completion time *predicted from the user estimate* — what EASY uses.
    est_finish: f64,
}

/// Space-shared processor pool.
///
/// `total` is the *currently up* capacity: failure injection shrinks it one
/// processor at a time ([`SpaceShared::fail_one`]) and repair restores it
/// ([`SpaceShared::repair_one`]), never above the nominal `base` size the
/// pool was created with.
#[derive(Clone, Debug)]
pub struct SpaceShared {
    /// Nominal capacity (processors when every node is up).
    base: u32,
    total: u32,
    free: u32,
    running: Vec<Running>,
}

/// Result of the EASY reservation computation for the queue-head job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reservation {
    /// Earliest (estimate-based) time the head job's processors are free.
    pub shadow_time: f64,
    /// Processors free at `shadow_time` beyond the head job's requirement.
    pub extra_procs: u32,
}

impl SpaceShared {
    /// Creates a pool of `total` processors, all free.
    pub fn new(total: u32) -> Self {
        assert!(total > 0, "cluster must have at least one processor");
        SpaceShared {
            base: total,
            total,
            free: total,
            running: Vec::new(),
        }
    }

    /// Currently up processors (nominal size minus failed nodes).
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Nominal capacity the pool was created with.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Processors currently down (`base - total`).
    pub fn down(&self) -> u32 {
        self.base - self.total
    }

    /// Currently free processors.
    pub fn free_procs(&self) -> u32 {
        self.free
    }

    /// Number of running jobs.
    pub fn running_jobs(&self) -> usize {
        self.running.len()
    }

    /// Starts a job on `procs` processors, recording its estimate-based
    /// completion time for reservation computations.
    ///
    /// Panics if fewer than `procs` processors are free — policies must
    /// check [`SpaceShared::free_procs`] first.
    pub fn start(&mut self, job_id: JobId, procs: u32, est_finish: f64) {
        assert!(
            procs <= self.free,
            "job {job_id} needs {procs} procs but only {} free",
            self.free
        );
        assert!(procs > 0);
        self.free -= procs;
        self.running.push(Running {
            job_id,
            procs,
            est_finish,
        });
    }

    /// Releases the processors of a finished job. Panics if the job is not
    /// running (double-finish is always a simulator bug).
    pub fn finish(&mut self, job_id: JobId) {
        let idx = self
            .running
            .iter()
            .position(|r| r.job_id == job_id)
            .unwrap_or_else(|| panic!("job {job_id} is not running"));
        self.free += self.running.swap_remove(idx).procs;
        debug_assert!(self.free <= self.total);
    }

    /// EASY reservation for a head job needing `procs_needed` processors.
    ///
    /// Walks running jobs in order of estimated completion (clamped to
    /// `now`, since an overrunning job can release no earlier than now) and
    /// returns the earliest time at which `procs_needed` processors are
    /// expected free, plus how many *extra* processors are free at that time.
    /// If the demand is satisfiable right now, `shadow_time == now` and
    /// `extra = free - procs_needed`.
    pub fn reservation(&self, procs_needed: u32, now: f64) -> Reservation {
        assert!(
            procs_needed <= self.total,
            "reservation for more processors than the cluster has"
        );
        if procs_needed <= self.free {
            return Reservation {
                shadow_time: now,
                extra_procs: self.free - procs_needed,
            };
        }
        let mut releases: Vec<(f64, u32)> = self.releases(now).collect();
        releases.sort_by(|a, b| a.0.total_cmp(&b.0));

        let mut avail = self.free;
        let mut i = 0;
        while i < releases.len() {
            // Process all releases at the same instant together.
            let t = releases[i].0;
            while i < releases.len() && releases[i].0 == t {
                avail += releases[i].1;
                i += 1;
            }
            if avail >= procs_needed {
                return Reservation {
                    shadow_time: t,
                    extra_procs: avail - procs_needed,
                };
            }
        }
        unreachable!("all jobs release eventually; demand <= total must be satisfiable")
    }

    /// Each running job's predicted release `(time, procs)`: its estimated
    /// completion clamped to `now`, since an overrunning job can release no
    /// earlier than now. The order is fixed by the pool's history.
    pub fn releases(&self, now: f64) -> impl Iterator<Item = (f64, u32)> + '_ {
        self.running
            .iter()
            .map(move |r| (r.est_finish.max(now), r.procs))
    }

    /// Takes one processor down. A free processor is absorbed silently; if
    /// every processor is busy, the job with the *latest* estimated finish
    /// (ties broken by highest id, so the choice is deterministic) is
    /// preempted and its id returned — the caller must treat it as
    /// interrupted. Returns `Err(())` when no processor is left to fail.
    #[allow(clippy::result_unit_err)]
    pub fn fail_one(&mut self) -> Result<Option<JobId>, ()> {
        if self.total == 0 {
            return Err(());
        }
        self.total -= 1;
        if self.free > 0 {
            self.free -= 1;
            return Ok(None);
        }
        let idx = (0..self.running.len())
            .max_by(|&a, &b| {
                self.running[a]
                    .est_finish
                    .total_cmp(&self.running[b].est_finish)
                    .then(self.running[a].job_id.cmp(&self.running[b].job_id))
            })
            .expect("free == 0 and total > 0 imply at least one running job");
        let victim = self.running.swap_remove(idx);
        // The victim's processors come back to the pool, minus the one that
        // just died.
        self.free += victim.procs - 1;
        debug_assert!(self.free + self.running.iter().map(|r| r.procs).sum::<u32>() == self.total);
        Ok(Some(victim.job_id))
    }

    /// Brings one failed processor back up. No-op when nothing is down.
    pub fn repair_one(&mut self) {
        if self.total < self.base {
            self.total += 1;
            self.free += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_and_finish_track_occupancy() {
        let mut c = SpaceShared::new(16);
        c.start(1, 4, 100.0);
        c.start(2, 8, 50.0);
        assert_eq!(c.free_procs(), 4);
        assert_eq!(c.running_jobs(), 2);
        c.finish(1);
        assert_eq!(c.free_procs(), 8);
        c.finish(2);
        assert_eq!(c.free_procs(), 16);
    }

    #[test]
    #[should_panic]
    fn overcommit_panics() {
        let mut c = SpaceShared::new(4);
        c.start(1, 5, 10.0);
    }

    #[test]
    #[should_panic]
    fn double_finish_panics() {
        let mut c = SpaceShared::new(4);
        c.start(1, 2, 10.0);
        c.finish(1);
        c.finish(1);
    }

    #[test]
    fn reservation_immediate_when_free() {
        let mut c = SpaceShared::new(16);
        c.start(1, 4, 100.0);
        let r = c.reservation(8, 0.0);
        assert_eq!(r.shadow_time, 0.0);
        assert_eq!(r.extra_procs, 4);
    }

    #[test]
    fn reservation_waits_for_earliest_sufficient_release() {
        let mut c = SpaceShared::new(16);
        c.start(1, 8, 100.0);
        c.start(2, 8, 50.0);
        // Need 12: free 0; at t=50 job 2 releases 8 (avail 8, not enough);
        // at t=100 job 1 releases 8 more (avail 16 >= 12).
        let r = c.reservation(12, 0.0);
        assert_eq!(r.shadow_time, 100.0);
        assert_eq!(r.extra_procs, 4);
    }

    #[test]
    fn reservation_partial_release_sufficient() {
        let mut c = SpaceShared::new(16);
        c.start(1, 8, 100.0);
        c.start(2, 8, 50.0);
        let r = c.reservation(6, 0.0);
        assert_eq!(r.shadow_time, 50.0);
        assert_eq!(r.extra_procs, 2);
    }

    #[test]
    fn reservation_clamps_overdue_estimates_to_now() {
        let mut c = SpaceShared::new(8);
        c.start(1, 8, 10.0); // estimated done at 10, still running at 20
        let r = c.reservation(8, 20.0);
        assert_eq!(r.shadow_time, 20.0, "overdue job treated as releasing now");
        assert_eq!(r.extra_procs, 0);
    }

    #[test]
    fn reservation_simultaneous_releases_counted_together() {
        let mut c = SpaceShared::new(16);
        c.start(1, 6, 50.0);
        c.start(2, 6, 50.0);
        c.start(3, 4, 99.0);
        let r = c.reservation(12, 0.0);
        assert_eq!(r.shadow_time, 50.0);
        assert_eq!(r.extra_procs, 0);
    }

    #[test]
    fn fail_one_absorbs_free_capacity_first() {
        let mut c = SpaceShared::new(4);
        c.start(1, 2, 100.0);
        assert_eq!(c.fail_one(), Ok(None));
        assert_eq!(c.total(), 3);
        assert_eq!(c.free_procs(), 1);
        assert_eq!(c.down(), 1);
        c.repair_one();
        assert_eq!(c.total(), 4);
        assert_eq!(c.free_procs(), 2);
        // Repairing an intact cluster is a no-op.
        c.repair_one();
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn fail_one_preempts_latest_estimated_finish() {
        let mut c = SpaceShared::new(4);
        c.start(1, 2, 50.0);
        c.start(2, 2, 200.0);
        assert_eq!(c.fail_one(), Ok(Some(2)), "longest job is the victim");
        assert_eq!(c.total(), 3);
        assert_eq!(c.free_procs(), 1, "victim's other processor is freed");
        assert_eq!(c.running_jobs(), 1);
    }

    #[test]
    fn fail_one_on_empty_cluster_errs() {
        let mut c = SpaceShared::new(1);
        assert_eq!(c.fail_one(), Ok(None));
        assert_eq!(c.fail_one(), Err(()));
        assert_eq!(c.total(), 0);
    }
}
