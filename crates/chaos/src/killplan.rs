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
//! A plan names its victim and abort point outright, so a CI kill drill
//! replays exactly on a laptop.

use serde::{Deserialize, Serialize};

/// Environment variable carrying a serialised [`WorkerKillPlan`]
/// (`"worker:after_cells"`) into worker processes.
pub const KILL_WORKER_ENV: &str = "CCS_KILL_WORKER";

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

    /// Reads the plan from [`KILL_WORKER_ENV`]: `Ok(None)` when it is
    /// unset, an error naming what is wrong when it is malformed.
    /// `utility_risk` checks the variable before any cell runs or worker
    /// spawns and refuses a malformed value, so a drill with a typo fails
    /// loudly instead of running no drill.
    pub fn from_env() -> Result<Option<WorkerKillPlan>, String> {
        match std::env::var(KILL_WORKER_ENV) {
            Ok(v) => WorkerKillPlan::parse(&v).map(Some),
            Err(std::env::VarError::NotPresent) => Ok(None),
            Err(e) => Err(e.to_string()),
        }
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
