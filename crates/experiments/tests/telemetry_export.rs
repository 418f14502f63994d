//! End-to-end coverage of the `--telemetry out.json` artifact, of the
//! registry's cell accounting, and of the guarantee that instrumentation
//! never changes simulation results. This binary switches the registry
//! on; `telemetry_off.rs` covers a process that never does.

use ccs_economy::EconomicModel;
use ccs_experiments::{
    policies_for, EstimateSet, ExperimentConfig, GridControl, GridRun, RawGrid, TelemetryReport,
};
use std::path::PathBuf;
use std::process::Command;

/// One grid under `ctl`, run on its own.
fn grid_ctl(
    econ: EconomicModel,
    set: EstimateSet,
    cfg: &ExperimentConfig,
    ctl: &GridControl,
) -> RawGrid {
    GridRun::new(cfg)
        .control(ctl)
        .run(&[(econ, set)])
        .unwrap()
        .remove(0)
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ccs_{}_{name}", std::process::id()))
}

/// Runs `utility_risk summary --quick --jobs 60 --telemetry FILE` in a
/// default build and parses the emitted JSON: the file must contain the
/// kernel counters, the queue-depth high-water mark, the per-policy
/// decision-latency histograms, the cell counters, and the
/// per-(scenario × policy) wall-time tables.
#[test]
fn utility_risk_emits_parseable_telemetry() {
    let out = temp_path("telemetry.json");
    let status = Command::new(env!("CARGO_BIN_EXE_utility_risk"))
        .args([
            "summary",
            "--quick",
            "--quiet",
            "--jobs",
            "60",
            "--telemetry",
            out.to_str().unwrap(),
        ])
        .status()
        .expect("spawn utility_risk");
    assert!(status.success(), "utility_risk failed: {status}");

    let json = std::fs::read_to_string(&out).expect("telemetry file written");
    std::fs::remove_file(&out).ok();
    let report = TelemetryReport::from_json(&json).expect("telemetry JSON parses");

    // The summary subcommand runs all four grids.
    assert_eq!(report.grids.len(), 4);
    for table in &report.grids {
        assert_eq!(table.scenarios.len(), 13);
        assert_eq!(table.secs.len(), 13);
        assert!(!table.policies.is_empty());
        assert!(
            table.secs.iter().flatten().sum::<f64>() > 0.0,
            "{} / {}: cells must take measurable time",
            table.econ,
            table.set
        );
        assert!(table.wall_secs > 0.0);
        assert!(!table.worker_busy_secs.is_empty());
    }
    assert!(!report.slowest_cells.is_empty());

    let s = &report.snapshot;
    let counter = |name: &str| s.counters.get(name).copied().unwrap_or(0);
    assert!(
        counter("des.events.processed") > 0,
        "kernel events-processed counter missing: {:?}",
        s.counters
    );
    assert!(
        s.gauges.get("des.queue.depth_hwm").copied().unwrap_or(0) > 0,
        "queue-depth high-water mark missing: {:?}",
        s.gauges
    );
    let decision_histograms: Vec<_> = s
        .histograms
        .iter()
        .filter(|(name, h)| name.starts_with("runner.decision.duration_ns.") && h.count > 0)
        .collect();
    assert!(
        !decision_histograms.is_empty(),
        "per-policy decision-latency histograms missing: {:?}",
        s.histograms.keys().collect::<Vec<_>>()
    );
    assert!(
        s.histograms
            .iter()
            .any(|(name, h)| name.starts_with("runner.run.duration_ns.") && h.count > 0),
        "per-run wall-time histograms missing"
    );
    assert!(counter("runner.runs.completed") > 0);
    // Structural: 240 default-point repeats + 60 set-B Inaccuracy cells.
    assert_eq!(counter("grid.cells.reused"), 300, "{:?}", s.counters);
    // LibraRiskD cells whose Libra cell's run certified them equal to it.
    // Pinned for seed 42 and 60 jobs: a change here changed which runs
    // pick a node at risk of deadline delay.
    let derived = counter("grid.cells.derived");
    assert_eq!(derived, 72, "{:?}", s.counters);
    // Every other cell was simulated once, successfully, in this run.
    let cells: u64 = report
        .grids
        .iter()
        .map(|g| (g.scenarios.len() * 6 * g.policies.len()) as u64)
        .sum();
    assert_eq!(counter("grid.cells.completed"), cells - 300 - derived);
    assert_eq!(
        s.histograms["grid.cell.duration_ns"].count,
        cells - 300 - derived
    );
}

/// `grid.cells.completed` and `grid.cell.duration_ns` count only cells
/// simulated to success in this run: not journal-restored cells, not
/// cells past the cell budget, not cells that reuse another's result, and
/// not failed cells.
#[test]
fn cell_telemetry_counts_only_cells_simulated_to_success() {
    ccs_telemetry::enable();
    let journal = temp_path("cell_telemetry.jsonl");
    std::fs::remove_file(&journal).ok();
    let cfg = ExperimentConfig::quick().with_jobs(30);
    let (econ, set) = (EconomicModel::CommodityMarket, EstimateSet::A);
    let policies = policies_for(econ);
    let total = 13 * 6 * policies.len();
    let half = total / 2;
    // Run 1 journals the first half of the plan and skips the rest.
    let first = GridControl {
        journal: Some(journal.clone()),
        cell_budget: Some(half),
        ..GridControl::default()
    };
    grid_ctl(econ, set, &cfg, &first);

    // Run 2 restores that half, runs the next `budget` cells with one of
    // them panicking, and skips the rest.
    let budget = 100;
    let fail_idx = half + 5;
    let fail_cell = format!(
        "{}:{}:{}",
        fail_idx / (6 * policies.len()),
        fail_idx / policies.len() % 6,
        policies[fail_idx % policies.len()].name()
    );
    let second = GridControl {
        journal: Some(journal.clone()),
        cell_budget: Some(budget),
        fail_cell: Some(fail_cell),
        ..GridControl::default()
    };
    let count = || {
        let s = ccs_telemetry::snapshot();
        (
            s.counters.get("grid.cells.completed").copied().unwrap_or(0),
            s.histograms
                .get("grid.cell.duration_ns")
                .map_or(0, |h| h.count),
        )
    };
    let before = count();
    let g = grid_ctl(econ, set, &cfg, &second);
    let after = count();
    std::fs::remove_file(&journal).ok();

    assert_eq!(g.errors.len(), 1, "{:?}", g.errors);
    assert!(g.cells_reused > 0, "the run must reuse some cells");
    let simulated = budget as u64 - g.cells_reused - g.errors.len() as u64;
    assert_eq!(after.0 - before.0, simulated, "grid.cells.completed");
    assert_eq!(after.1 - before.1, simulated, "grid.cell.duration_ns");
}

/// FNV-1a over the canonical JSON encoding of a run result.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Simulation outputs must be byte-identical with telemetry on: the run
/// hashes to the constant a run with the registry off produced.
#[test]
fn run_result_identical_across_feature_configs() {
    use ccs_experiments::baseline;
    use ccs_simsvc::{simulate, RunConfig};
    use ccs_workload::{apply_scenario, SdscSp2Model};

    ccs_telemetry::enable();
    let mut model = SdscSp2Model::small();
    model.jobs = 60;
    let base = model.generate(12345);
    let jobs = apply_scenario(&base, &baseline(EstimateSet::B), 12345);
    let cfg = RunConfig {
        nodes: 32,
        econ: EconomicModel::CommodityMarket,
    };
    let result = simulate(&jobs, ccs_policies::PolicyKind::FcfsBf, &cfg);
    let json = serde_json::to_string(&result).expect("run result serialises");
    // FNV-1a of the canonical encoding, recorded with telemetry off.
    // (Re-recorded when RunMetrics gained the fault-injection counters.)
    const GOLDEN: u64 = 1379623899478093181;
    assert_eq!(fnv1a(json.as_bytes()), GOLDEN, "RunResult encoding drifted");
}
