//! End-to-end coverage of the fault-tolerant multi-process grid: the
//! supervised run must produce results byte-identical to a single-process
//! run regardless of worker count, survive a worker killed mid-shard
//! (`CCS_KILL_WORKER`), heal a supervisor restart via `--resume`, and
//! quarantine a poison cell as a typed error (exit 1) instead of aborting.

use std::path::PathBuf;
use std::process::Command;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccs_supervisor_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A `utility_risk summary` invocation on the small quick grid.
fn summary_cmd(out: &std::path::Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_utility_risk"));
    cmd.args([
        "summary",
        "--quick",
        "--jobs",
        "25",
        "--quiet",
        "--out",
        out.to_str().unwrap(),
    ]);
    cmd.env_remove("CCS_FAIL_CELL")
        .env_remove("CCS_STALL_CELL")
        .env_remove("CCS_KILL_WORKER");
    cmd
}

/// A supervised variant of [`summary_cmd`]. The long heartbeat deadline
/// keeps slow CI machines from tripping the watchdog.
fn supervised_cmd(out: &std::path::Path, workers: &str) -> Command {
    let mut cmd = summary_cmd(out);
    cmd.args(["--workers", workers, "--heartbeat-ms", "60000"]);
    cmd
}

/// The store's logical content as a deterministic projection: every column
/// that must be invariant across worker counts and kill schedules, sorted
/// by digest. Physical columns (secs, events_per_sec, worker) are
/// excluded — wall time depends on the machine and attribution on the
/// schedule.
fn store_projection(out: &std::path::Path) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_utility_risk"));
    cmd.args([
        "query",
        "--store",
        out.join("results_store.json").to_str().unwrap(),
        "--select",
        "econ,set,scenario,value,policy,norm_score,risk_score,events,digest",
        "--sort-by",
        "digest",
    ]);
    let output = cmd.output().expect("spawn utility_risk query");
    assert!(
        output.status.success(),
        "query failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("query output is UTF-8")
}

/// Tentpole acceptance: the same grid through 1 worker, 4 workers, and the
/// in-process path produces byte-identical stdout and byte-identical
/// logical store projections.
#[test]
fn worker_count_does_not_change_results() {
    let dir = temp_dir("counts");
    let out_inproc = dir.join("inproc");
    let out_w1 = dir.join("w1");
    let out_w4 = dir.join("w4");

    let inproc = summary_cmd(&out_inproc).output().expect("spawn in-process");
    assert!(
        inproc.status.success(),
        "{}",
        String::from_utf8_lossy(&inproc.stderr)
    );
    let w1 = supervised_cmd(&out_w1, "1")
        .output()
        .expect("spawn 1-worker");
    assert!(
        w1.status.success(),
        "{}",
        String::from_utf8_lossy(&w1.stderr)
    );
    let w4 = supervised_cmd(&out_w4, "4")
        .output()
        .expect("spawn 4-worker");
    assert!(
        w4.status.success(),
        "{}",
        String::from_utf8_lossy(&w4.stderr)
    );

    let stdout_inproc = String::from_utf8_lossy(&inproc.stdout).to_string();
    assert_eq!(
        stdout_inproc,
        String::from_utf8_lossy(&w1.stdout),
        "1-worker stdout must match the in-process run"
    );
    assert_eq!(
        stdout_inproc,
        String::from_utf8_lossy(&w4.stdout),
        "4-worker stdout must match the in-process run"
    );
    let proj = store_projection(&out_inproc);
    assert_eq!(
        proj,
        store_projection(&out_w1),
        "1-worker store projection must match in-process"
    );
    assert_eq!(
        proj,
        store_projection(&out_w4),
        "4-worker store projection must match in-process"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill drill: worker 2 of 2 aborts mid-shard after three cells
/// (`CCS_KILL_WORKER`). The supervisor must reassign the orphaned work,
/// finish the sweep with exit 0, and produce stdout byte-identical to an
/// undisturbed run.
#[test]
fn killed_worker_recovers_to_identical_results() {
    let dir = temp_dir("kill");
    let out_clean = dir.join("clean");
    let out_kill = dir.join("kill");

    let clean = supervised_cmd(&out_clean, "2")
        .output()
        .expect("spawn clean");
    assert!(
        clean.status.success(),
        "{}",
        String::from_utf8_lossy(&clean.stderr)
    );
    let killed = supervised_cmd(&out_kill, "2")
        .env("CCS_KILL_WORKER", "2:3")
        .output()
        .expect("spawn kill drill");
    assert_eq!(
        killed.status.code(),
        Some(0),
        "supervisor must absorb the abort: {}",
        String::from_utf8_lossy(&killed.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&clean.stdout),
        String::from_utf8_lossy(&killed.stdout),
        "kill-drill stdout must be byte-identical to the undisturbed run"
    );
    assert_eq!(
        store_projection(&out_clean),
        store_projection(&out_kill),
        "kill-drill store projection must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Supervisor restart: a run truncated by `--cell-budget` leaves a journal
/// (shard journals merged into the primary); resuming with a *different*
/// worker count completes the grid to stdout byte-identical to an
/// uninterrupted run.
#[test]
fn supervisor_restart_resumes_to_identical_results() {
    let dir = temp_dir("restart");
    let out = dir.join("out");
    let journal = dir.join("journal.jsonl");

    let truncated = supervised_cmd(&out, "2")
        .args(["--cell-budget", "30"])
        .args(["--resume", journal.to_str().unwrap()])
        .output()
        .expect("spawn truncated");
    assert!(
        truncated.status.success(),
        "{}",
        String::from_utf8_lossy(&truncated.stderr)
    );
    assert!(journal.exists(), "primary journal must exist after the run");

    let resumed = supervised_cmd(&out, "3")
        .args(["--resume", journal.to_str().unwrap()])
        .output()
        .expect("spawn resumed");
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );

    let out_fresh = dir.join("fresh");
    let fresh = summary_cmd(&out_fresh).output().expect("spawn fresh");
    assert!(fresh.status.success());
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&fresh.stdout),
        "resumed supervised run must be byte-identical to an uninterrupted one"
    );
    // Shard journals are merged into the primary and deleted.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".shard"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "shard journals left behind: {leftovers:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Poison cell: a cell that panics on every attempt (`CCS_FAIL_CELL`) is
/// retried, then quarantined as a typed error — the sweep completes and
/// exits 1 rather than aborting — and a `--resume` rerun without the
/// injection heals to a clean, byte-identical report.
#[test]
fn poison_cell_quarantines_then_resume_heals() {
    let dir = temp_dir("poison");
    let out = dir.join("out");
    let journal = dir.join("journal.jsonl");

    let poisoned = supervised_cmd(&out, "2")
        .args(["--retries", "2", "--backoff-ms", "5"])
        .args(["--resume", journal.to_str().unwrap()])
        .env("CCS_FAIL_CELL", "0:1:SJF-BF")
        .output()
        .expect("spawn poisoned");
    assert_eq!(
        poisoned.status.code(),
        Some(1),
        "a quarantined cell must exit(1), not abort: {}",
        String::from_utf8_lossy(&poisoned.stderr)
    );
    let stderr = String::from_utf8_lossy(&poisoned.stderr);
    assert!(
        stderr.contains("was quarantined"),
        "stderr must name the quarantine: {stderr}"
    );
    let errors_json =
        std::fs::read_to_string(out.join("cell_errors.json")).expect("cell_errors.json written");
    assert!(
        errors_json.contains("Quarantine") && errors_json.contains("SJF-BF"),
        "error artifact must carry the typed quarantine: {errors_json}"
    );

    let healed = supervised_cmd(&out, "2")
        .args(["--resume", journal.to_str().unwrap()])
        .output()
        .expect("spawn healed");
    assert_eq!(
        healed.status.code(),
        Some(0),
        "healed resume must exit 0: {}",
        String::from_utf8_lossy(&healed.stderr)
    );
    let out_fresh = dir.join("fresh");
    let fresh = summary_cmd(&out_fresh).output().expect("spawn fresh");
    assert!(fresh.status.success());
    assert_eq!(
        String::from_utf8_lossy(&healed.stdout),
        String::from_utf8_lossy(&fresh.stdout),
        "healed report must be byte-identical to an uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Config validation: malformed supervisor flags exit 2 with an error
/// naming the offending flag, before any simulation starts.
#[test]
fn invalid_supervisor_flags_exit_2_naming_the_flag() {
    let cases: &[(&[&str], &str)] = &[
        (&["summary", "--workers", "0"], "--workers"),
        (&["summary", "--workers", "999"], "--workers"),
        (
            &["summary", "--workers", "2", "--retries", "0"],
            "--retries",
        ),
        (
            &["summary", "--workers", "2", "--backoff-ms", "0"],
            "--backoff-ms",
        ),
        (
            &["summary", "--workers", "2", "--heartbeat-ms", "5"],
            "--heartbeat-ms",
        ),
        (&["summary", "--retries", "3"], "--retries"),
        (&["summary", "--backoff-ms", "10"], "--backoff-ms"),
        (
            &["summary", "--workers", "1", "--replicas", "2"],
            "--replicas",
        ),
        (&["robustness", "--workers", "2"], "--workers"),
    ];
    for (flags, flag) in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_utility_risk"))
            .args(*flags)
            .args(["--quick", "--quiet"])
            .output()
            .expect("spawn utility_risk");
        assert_eq!(
            output.status.code(),
            Some(2),
            "{flags:?} must exit 2: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(flag),
            "{flags:?} error must name {flag}: {stderr}"
        );
    }
}

/// The cell budget truncates the planned cell list, so which cells a
/// budgeted run completes does not depend on the execution mode: one
/// thread, four threads, and two worker processes journal the same keys.
#[test]
fn cell_budget_journals_the_same_cells_in_every_mode() {
    use ccs_economy::EconomicModel;
    use ccs_experiments::{
        cell_key, policies_for, run_grid_ctl, EstimateSet, ExperimentConfig, GridControl, Journal,
        Scenario, SupervisorConfig,
    };
    let (econ, set) = (EconomicModel::BidBased, EstimateSet::B);
    let journaled = |name: &str, threads: usize, supervisor: Option<SupervisorConfig>| {
        let journal = temp_dir(name).join("journal.jsonl");
        let cfg = ExperimentConfig {
            threads,
            ..ExperimentConfig::quick().with_jobs(25)
        };
        let ctl = GridControl {
            journal: Some(journal.clone()),
            cell_budget: Some(30),
            supervisor,
            ..GridControl::default()
        };
        let grid = run_grid_ctl(econ, set, &cfg, &ctl);
        assert!(grid.errors.is_empty(), "{name}: {:?}", grid.errors);
        let j = Journal::open(&journal).unwrap();
        let mut keys = Vec::new();
        for s in 0..Scenario::ALL.len() {
            for v in 0..6 {
                for &p in &policies_for(econ) {
                    let key = cell_key(econ, set, &cfg, s, v, p);
                    if j.get(&key).is_some() {
                        keys.push(key);
                    }
                }
            }
        }
        assert_eq!(keys.len(), 30, "{name}: exactly the budgeted cells");
        keys
    };
    let one = journaled("budget_threads1", 1, None);
    assert_eq!(one, journaled("budget_threads4", 4, None));
    let fleet = SupervisorConfig {
        workers: 2,
        heartbeat_ms: 60_000,
        worker_bin: Some(env!("CARGO_BIN_EXE_utility_risk").into()),
        ..SupervisorConfig::default()
    };
    assert_eq!(one, journaled("budget_workers2", 1, Some(fleet)));
}

/// Each distinct cell is simulated once per run. A four-grid evaluation,
/// in-process and over a two-worker fleet, equals four independent grids
/// bit for bit while reusing 300 of its 1560 cells: the default point
/// recurs 13 times per grid (240), and set B's Inaccuracy points equal
/// set A's (60). In-process, LibraRiskD cells are also derived from their
/// Libra cell's run; a fleet derives none. Under the fleet every reused row of the store names the worker
/// that simulated the result it copies.
#[test]
fn evaluation_simulates_each_distinct_cell_once_per_run() {
    use ccs_economy::EconomicModel;
    use ccs_experiments::{
        run_evaluation_ctl, run_grid, EstimateSet, ExperimentConfig, GridControl, ResultStore,
        SupervisorConfig,
    };
    let cfg = ExperimentConfig {
        threads: 2,
        ..ExperimentConfig::quick().with_jobs(25)
    };
    let independent: Vec<_> = [
        (EconomicModel::CommodityMarket, EstimateSet::A),
        (EconomicModel::CommodityMarket, EstimateSet::B),
        (EconomicModel::BidBased, EstimateSet::A),
        (EconomicModel::BidBased, EstimateSet::B),
    ]
    .into_iter()
    .map(|(econ, set)| run_grid(econ, set, &cfg))
    .collect();
    let fleet = SupervisorConfig {
        workers: 2,
        heartbeat_ms: 60_000,
        worker_bin: Some(env!("CARGO_BIN_EXE_utility_risk").into()),
        ..SupervisorConfig::default()
    };
    for supervisor in [None, Some(fleet)] {
        let supervised = supervisor.is_some();
        let ev = run_evaluation_ctl(
            &cfg,
            &GridControl {
                supervisor,
                ..GridControl::default()
            },
        );
        assert!(ev.cell_errors().is_empty(), "{:?}", ev.cell_errors());
        for (g, want) in ev.raw_grids.iter().zip(&independent) {
            assert_eq!(g.raw, want.raw, "{} / {}", g.econ, g.set);
            assert_eq!(g.cell_events, want.cell_events);
            assert_eq!(g.cell_sigma, want.cell_sigma);
        }
        let reused: u64 = ev.raw_grids.iter().map(|g| g.cells_reused).sum();
        assert_eq!(reused, 300, "supervised: {supervised}");
        let derived: u64 = ev.raw_grids.iter().map(|g| g.cells_derived).sum();
        if supervised {
            assert_eq!(derived, 0);
        } else {
            // Only bid-based grids run LibraRiskD; set A's grid has no
            // memo copies, so it derives what the independent grid does.
            assert!(derived > 0);
            let bid_a = (&ev.raw_grids[2], &independent[2]);
            assert_eq!(bid_a.0.cells_derived, bid_a.1.cells_derived);
        }
        if supervised {
            // A reused cell simulated nothing, so it is the row with 0 s.
            let cols = ResultStore::from_evaluation(&ev, &cfg).columns;
            let workers: Vec<u64> = cols
                .secs
                .iter()
                .zip(&cols.worker)
                .filter(|(&secs, _)| secs == 0.0)
                .map(|(_, &w)| w)
                .collect();
            assert_eq!(workers.len(), 300);
            assert!(workers.iter().all(|&w| w > 0), "{workers:?}");
        }
    }
}
