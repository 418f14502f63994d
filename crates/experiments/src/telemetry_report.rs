//! The `--telemetry out.json` artifact: a merged snapshot of every
//! instrumentation series plus the per-(scenario × policy) wall-time
//! tables of the grids that were run.
//!
//! Asking for the report is what switches the registry on: `utility_risk`
//! calls [`ccs_telemetry::enable`] when `--telemetry FILE` is given, before
//! any grid runs, so the counter/gauge/histogram snapshot covers the whole
//! run. Cell timings are recorded on every run (see [`crate::grid`]).

use crate::grid::{CellTiming, RawGrid};
use crate::scenario::Scenario;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Current [`TelemetryReport::schema_version`]. v2 added the per-cell
/// phase cost vector to [`CellTiming`]; v3 added worker attribution
/// (`CellTiming::worker`, 0 when the cell ran in-process); v4 added
/// per-worker transport labels (`GridWallTimes::worker_transports`) and
/// the `grid.transport.*` counters; v5 dropped `feature_enabled` (the
/// registry is switched on at runtime, so every report has it on) and
/// counts only cells simulated in this run in `grid.cells.completed`.
pub const SCHEMA_VERSION: u32 = 5;

/// Wall-time table of one grid: seconds per (scenario, policy), summed
/// over the six scenario values.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GridWallTimes {
    /// Economic model label, e.g. `"commodity market"`.
    pub econ: String,
    /// Estimate set label, e.g. `"Set A"`.
    pub set: String,
    /// Row labels: the twelve scenario names.
    pub scenarios: Vec<String>,
    /// Column labels: the policy names.
    pub policies: Vec<String>,
    /// `secs[scenario][policy]` — wall-clock seconds, summed over values.
    pub secs: Vec<Vec<f64>>,
    /// End-to-end wall-clock seconds for the grid.
    pub wall_secs: f64,
    /// Busy seconds per worker thread.
    pub worker_busy_secs: Vec<f64>,
    /// Transport label (`"pipe"` / `"tcp"`) per supervised worker,
    /// indexed like `worker_busy_secs`. Empty for in-process runs.
    pub worker_transports: Vec<String>,
}

impl GridWallTimes {
    /// Builds the table from a finished grid.
    pub fn of(grid: &RawGrid) -> GridWallTimes {
        let n_pol = grid.policies.len();
        let mut secs = vec![vec![0.0; n_pol]; grid.cell_secs.len()];
        for (s, per_value) in grid.cell_secs.iter().enumerate() {
            for per_policy in per_value {
                for (p, &t) in per_policy.iter().enumerate() {
                    secs[s][p] += t;
                }
            }
        }
        GridWallTimes {
            econ: grid.econ.to_string(),
            set: grid.set.label().to_string(),
            scenarios: Scenario::ALL.iter().map(|s| s.label()).collect(),
            policies: grid.policies.iter().map(|p| p.name().to_string()).collect(),
            secs,
            wall_secs: grid.wall_secs,
            worker_busy_secs: grid.worker_busy_secs.clone(),
            worker_transports: grid.worker_transports.clone(),
        }
    }
}

/// Everything `--telemetry out.json` serialises.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Schema marker for forward compatibility.
    pub schema_version: u32,
    /// Merged counters / high-water gauges / histograms from the global
    /// registry.
    pub snapshot: ccs_telemetry::Snapshot,
    /// One wall-time table per grid that was run.
    pub grids: Vec<GridWallTimes>,
    /// The globally slowest cells across all grids, most expensive first.
    pub slowest_cells: Vec<CellTiming>,
}

impl TelemetryReport {
    /// Assembles the report from the grids of a finished run plus the
    /// current global telemetry snapshot.
    pub fn collect(grids: &[RawGrid]) -> TelemetryReport {
        let mut slowest: Vec<CellTiming> = grids.iter().flat_map(|g| g.slowest_cells(10)).collect();
        slowest.sort_by(|a, b| b.secs.total_cmp(&a.secs));
        slowest.truncate(10);
        TelemetryReport {
            schema_version: SCHEMA_VERSION,
            snapshot: ccs_telemetry::snapshot(),
            grids: grids.iter().map(GridWallTimes::of).collect(),
            slowest_cells: slowest,
        }
    }

    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("telemetry report serialises")
    }

    /// Parses a report previously written with [`TelemetryReport::write`].
    pub fn from_json(json: &str) -> Result<TelemetryReport, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Writes the report to `path` atomically, creating parent directories.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        crate::atomic::write_atomic(path, (self.to_json() + "\n").as_bytes())
    }
}

/// Renders the end-of-run slowest-cells summary printed to stderr: each
/// cell with its wall time, event rate and (when profiled) its dominant
/// phase, then one line totalling the workload-cache traffic across all
/// grids. Reads the unified per-cell cost model ([`RawGrid::slowest_cells`]
/// over [`crate::grid::CellCost`]) — the same data the result store
/// persists — rather than recomputing its own timings.
pub fn slowest_cells_summary(grids: &[RawGrid], k: usize) -> String {
    use std::fmt::Write as _;
    let mut cells: Vec<(String, String, CellTiming)> = grids
        .iter()
        .flat_map(|g| {
            let tag = format!("{} / {}", g.econ, g.set.label());
            g.slowest_cells(k).into_iter().map(move |c| {
                // Supervised grids tag each worker with its transport
                // (`w3/tcp`); in-process workers are plain threads.
                let worker = if c.worker == 0 {
                    "w-".to_string()
                } else {
                    match g.worker_transports.get((c.worker - 1) as usize) {
                        Some(t) => format!("w{}/{t}", c.worker),
                        None => format!("w{}", c.worker),
                    }
                };
                (tag.clone(), worker, c)
            })
        })
        .collect();
    cells.sort_by(|a, b| b.2.secs.total_cmp(&a.2.secs));
    cells.truncate(k);
    let mut s = String::from("slowest cells:\n");
    for (tag, worker, c) in cells {
        let _ = write!(
            s,
            "  {:>8.3}s  {:>9.0} ev/s  {worker:>3}  {tag}  {}[{}]  {}",
            c.secs,
            c.events_per_sec(),
            c.scenario,
            c.value_idx,
            c.policy
        );
        if let Some((phase, ns)) = c.cost.top_phase() {
            let pct = 100.0 * ns as f64 / c.cost.total_phase_ns().max(1) as f64;
            let _ = write!(s, "  [{phase} {pct:.0}%]");
        }
        s.push('\n');
    }
    let hits: u64 = grids.iter().map(|g| g.workload_cache_hits).sum();
    let misses: u64 = grids.iter().map(|g| g.workload_cache_misses).sum();
    let _ = writeln!(s, "workload cache: {hits} hits, {misses} misses");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{run_grid, ExperimentConfig};
    use crate::scenario::EstimateSet;
    use ccs_economy::EconomicModel;

    #[test]
    fn report_round_trips_and_has_tables() {
        let cfg = ExperimentConfig::quick().with_jobs(40);
        let g = run_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
        let report = TelemetryReport::collect(std::slice::from_ref(&g));
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        assert_eq!(report.grids.len(), 1);
        let table = &report.grids[0];
        assert_eq!(table.scenarios.len(), 13);
        assert_eq!(table.policies.len(), 5);
        assert_eq!(table.secs.len(), 13);
        assert!(table.secs.iter().flatten().sum::<f64>() > 0.0);
        assert_eq!(report.slowest_cells.len(), 10);

        let back = TelemetryReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.grids[0].scenarios, table.scenarios);
        assert_eq!(back.slowest_cells.len(), 10);
    }

    #[test]
    fn summary_lists_k_cells() {
        let cfg = ExperimentConfig::quick().with_jobs(40);
        let g = run_grid(EconomicModel::BidBased, EstimateSet::B, &cfg);
        let text = slowest_cells_summary(std::slice::from_ref(&g), 3);
        assert!(text.starts_with("slowest cells:"));
        // Header + k cells + the workload-cache totals line.
        assert_eq!(text.lines().count(), 5);
        assert!(text.contains("ev/s"));
        // Every cell line carries a worker (thread or process) tag.
        let tagged = text
            .lines()
            .skip(1)
            .take(3)
            .all(|l| l.contains("  w") && l.contains("ev/s"));
        assert!(tagged, "{text}");
        assert!(text.contains("workload cache:"));
    }

    #[test]
    fn summary_tags_supervised_workers_with_their_transport() {
        let cfg = ExperimentConfig::quick().with_jobs(40);
        let mut g = run_grid(EconomicModel::BidBased, EstimateSet::B, &cfg);
        let max_worker = g
            .cell_workers
            .iter()
            .flatten()
            .flatten()
            .copied()
            .max()
            .unwrap_or(0) as usize;
        assert!(max_worker >= 1, "in-process cells are worker-attributed");
        g.worker_transports = vec!["tcp".to_string(); max_worker];
        let text = slowest_cells_summary(std::slice::from_ref(&g), 3);
        let tagged = text.lines().skip(1).take(3).all(|l| l.contains("/tcp"));
        assert!(tagged, "{text}");
    }
}
