//! Worker-kill stressor for the multi-process experiment grid.
//!
//! The supervisor (`ccs_experiments::supervisor`) shards grid cells across
//! worker OS processes and must survive a worker dying mid-shard. This
//! module provides the drill: a [`WorkerKillPlan`] names one worker and a
//! cell count after which that worker abruptly aborts itself (no cleanup,
//! no shutdown frame — the closest std-only stand-in for SIGKILL). The
//! plan travels to workers through the `KILL_WORKER_ENV` environment
//! variable, mirroring the `CCS_FAIL_CELL` / `CCS_STALL_CELL` drills.
//!
//! Like every stressor in this crate, a plan is a pure function of its
//! seed, so a CI kill drill replays exactly on a laptop.

use ccs_des::SimRng;
use serde::{Deserialize, Serialize};

/// Environment variable carrying a serialised [`WorkerKillPlan`]
/// (`"worker:after_cells"`) into worker processes.
pub(crate) const KILL_WORKER_ENV: &str = "CCS_KILL_WORKER";

/// A deterministic worker-kill schedule: worker `worker` calls
/// `std::process::abort()` upon receiving its `after_cells + 1`-th cell
/// assignment, i.e. after completing `after_cells` cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerKillPlan {
    /// 1-based id of the worker that dies.
    pub worker: u64,
    /// Number of cells the worker completes before aborting.
    pub after_cells: u64,
}

impl WorkerKillPlan {
    /// Generate a kill plan from a seed: pick a victim among `workers`
    /// workers and an abort point within its expected shard of
    /// `shard_len` cells. Pure in `seed` — the same seed always yields
    /// the same plan.
    pub fn generate(seed: u64, workers: u64, shard_len: u64) -> WorkerKillPlan {
        let mut rng = SimRng::seed_from(seed ^ 0x6b69_6c6c_706c_616e);
        let worker = 1 + rng.next_u64() % workers.max(1);
        let after_cells = rng.next_u64() % shard_len.max(1);
        WorkerKillPlan {
            worker,
            after_cells,
        }
    }

    /// Parse the `"worker:after_cells"` form, naming what was wrong on
    /// failure.
    pub(crate) fn parse(s: &str) -> Result<WorkerKillPlan, String> {
        let (w, n) = s
            .split_once(':')
            .ok_or_else(|| format!("expected \"worker:after_cells\", got {s:?}"))?;
        let worker = w
            .trim()
            .parse::<u64>()
            .map_err(|e| format!("bad worker id {w:?}: {e}"))?;
        let after_cells = n
            .trim()
            .parse::<u64>()
            .map_err(|e| format!("bad cell count {n:?}: {e}"))?;
        if worker == 0 {
            return Err("worker ids are 1-based; 0 never matches".to_string());
        }
        Ok(WorkerKillPlan {
            worker,
            after_cells,
        })
    }

    /// Read the plan from `KILL_WORKER_ENV`, if set and well-formed.
    /// A malformed value is ignored (drills must never corrupt a real
    /// run) — the supervisor validates the plan before exporting it.
    pub fn from_env() -> Option<WorkerKillPlan> {
        std::env::var(KILL_WORKER_ENV)
            .ok()
            .and_then(|v| WorkerKillPlan::parse(&v).ok())
    }

    /// Should the worker identified by `worker` abort before running the
    /// cell assignment that follows `cells_done` completed cells?
    pub fn should_kill(&self, worker: u64, cells_done: u64) -> bool {
        self.worker == worker && cells_done >= self.after_cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_seed_deterministic() {
        let a = WorkerKillPlan::generate(42, 4, 100);
        let b = WorkerKillPlan::generate(42, 4, 100);
        assert_eq!(a, b);
        let c = WorkerKillPlan::generate(43, 4, 100);
        let d = WorkerKillPlan::generate(44, 4, 100);
        // At least one different seed must produce a different plan.
        assert!(a != c || a != d);
    }

    #[test]
    fn generate_is_bounded() {
        for seed in 0..200 {
            let p = WorkerKillPlan::generate(seed, 4, 50);
            assert!(
                (1..=4).contains(&p.worker),
                "worker {} out of range",
                p.worker
            );
            assert!(p.after_cells < 50);
        }
    }

    #[test]
    fn env_round_trip() {
        let p = WorkerKillPlan {
            worker: 3,
            after_cells: 17,
        };
        assert_eq!(WorkerKillPlan::parse("3:17").unwrap(), p);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(WorkerKillPlan::parse("").is_err());
        assert!(WorkerKillPlan::parse("3").is_err());
        assert!(WorkerKillPlan::parse("x:1").is_err());
        assert!(WorkerKillPlan::parse("1:y").is_err());
        assert!(WorkerKillPlan::parse("0:5").is_err());
    }

    #[test]
    fn should_kill_matches_worker_and_progress() {
        let p = WorkerKillPlan {
            worker: 2,
            after_cells: 3,
        };
        assert!(!p.should_kill(1, 10));
        assert!(!p.should_kill(2, 2));
        assert!(p.should_kill(2, 3));
        assert!(p.should_kill(2, 7));
    }
}
