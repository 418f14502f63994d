//! Watchdog-bounded grid cells and journal hygiene.
//!
//! - A grid run under a generous per-cell budget is byte-identical to an
//!   unguarded run (the watchdog observes, it never steers).
//! - A synthetically stuck cell (the `CCS_STALL_CELL` drill) is cancelled
//!   into a Budget-kind [`CellError`] while the rest of the grid completes,
//!   and a `--resume` rerun without the drill heals to output
//!   byte-identical to an untouched run.
//! - Budget-cancelled cells are never journaled, so resume re-runs exactly
//!   the failed work.
//! - Journal compaction rewrites the journal without changing what a
//!   resume reads from it.

use ccs_economy::EconomicModel;
use ccs_experiments::{
    run_evaluation, CellErrorKind, EstimateSet, ExperimentConfig, GridControl, GridRun, Journal,
    RawGrid,
};
use std::path::PathBuf;
use std::process::Command;

/// One grid, run on its own.
fn one_grid(econ: EconomicModel, set: EstimateSet, cfg: &ExperimentConfig) -> RawGrid {
    GridRun::new(cfg).run(&[(econ, set)]).unwrap().remove(0)
}

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

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccs_watchdog_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_cfg() -> ExperimentConfig {
    ExperimentConfig::quick().with_jobs(25)
}

/// The watchdog must be an observer: under a budget no real cell ever
/// trips, the guarded grid's numbers are bit-for-bit those of the
/// unguarded fast path.
#[test]
fn generous_budget_grid_is_byte_identical_to_unguarded() {
    let cfg = small_cfg();
    let plain = one_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
    let guarded = grid_ctl(
        EconomicModel::CommodityMarket,
        EstimateSet::A,
        &cfg,
        &GridControl {
            cell_wall_budget: Some(300.0),
            cell_event_budget: Some(50_000_000),
            ..Default::default()
        },
    );
    assert!(guarded.errors.is_empty(), "{:?}", guarded.errors);
    assert_eq!(
        plain.raw, guarded.raw,
        "a non-tripping watchdog must not change a single bit"
    );
}

/// A starvation-level event budget cancels every cell into a Budget-kind
/// error, nothing is journaled, and a later unbudgeted resume over the
/// same journal recomputes everything to the true numbers.
#[test]
fn tiny_budget_cancels_cells_without_journaling_them() {
    let dir = temp_dir("tiny");
    let journal = dir.join("journal.jsonl");
    let cfg = small_cfg();

    let starved = run_evaluation(
        &cfg,
        &GridControl {
            journal: Some(journal.clone()),
            cell_event_budget: Some(10),
            ..Default::default()
        },
    )
    .unwrap();
    let errors = starved.cell_errors();
    assert!(
        !errors.is_empty(),
        "an event budget of 10 must cancel cells"
    );
    for e in &errors {
        assert_eq!(e.kind, CellErrorKind::Budget, "{e}");
        assert!(e.to_string().contains("exceeded its budget"), "{e}");
    }

    // Nothing was journaled (the journal may not even exist), so the
    // resumed, unbudgeted run recomputes every cell — and matches a fresh
    // evaluation exactly.
    let resumed = run_evaluation(
        &cfg,
        &GridControl {
            journal: Some(journal),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(resumed.cell_errors().is_empty());
    let fresh = run_evaluation(&cfg, &GridControl::default()).unwrap();
    for (r, f) in resumed.raw_grids.iter().zip(&fresh.raw_grids) {
        assert_eq!(r.raw, f.raw, "{} / {}", r.econ, r.set.label());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Library-level stall drill: the wedged cell is cancelled with a
/// Budget-kind error naming the cell, every other cell completes with real
/// numbers.
#[test]
fn stalled_cell_is_cancelled_while_the_rest_completes() {
    let cfg = small_cfg();
    let grid = grid_ctl(
        EconomicModel::CommodityMarket,
        EstimateSet::A,
        &cfg,
        &GridControl {
            stall_cell: Some("0:1:SJF-BF".into()),
            ..Default::default()
        },
    );
    assert_eq!(grid.errors.len(), 1, "{:?}", grid.errors);
    let err = &grid.errors[0];
    assert_eq!(err.kind, CellErrorKind::Budget);
    assert_eq!(err.policy, "SJF-BF");
    assert_eq!((err.scenario_idx, err.value_idx), (0, 1));

    // The stalled cell holds the placeholder; its neighbours hold real,
    // untouched numbers.
    let reference = one_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
    let stalled_col = reference
        .policies
        .iter()
        .position(|p| p.name() == "SJF-BF")
        .unwrap();
    for (s, per_value) in grid.raw.iter().enumerate() {
        for (v, per_policy) in per_value.iter().enumerate() {
            for (p, cell) in per_policy.iter().enumerate() {
                if (s, v, p) == (0, 1, stalled_col) {
                    assert_eq!(*cell, [0.0; 4], "stalled cell keeps the placeholder");
                } else {
                    assert_eq!(*cell, reference.raw[s][v][p], "cell {s}:{v}:{p} diverged");
                }
            }
        }
    }
}

/// Binary-level acceptance of the stall drill: `utility_risk` under
/// `CCS_STALL_CELL` exits nonzero with a budget-worded report, and a
/// `--resume` rerun without the drill (plus `--compact-journal` hygiene)
/// produces stdout byte-identical to an untouched run.
#[test]
fn stall_drill_reports_budget_error_and_resume_heals() {
    let dir = temp_dir("stall");
    let journal = dir.join("journal.jsonl");
    let out = dir.join("out");
    let args = |extra: &[&str]| {
        let mut a = vec![
            "summary".to_string(),
            "--quick".into(),
            "--jobs".into(),
            "25".into(),
            "--quiet".into(),
            "--out".into(),
            out.to_str().unwrap().into(),
        ];
        for e in extra {
            a.push(e.to_string());
        }
        a
    };
    let resume = [
        "--resume".to_string(),
        journal.to_str().unwrap().to_string(),
    ];
    let resume_refs: Vec<&str> = resume.iter().map(|s| s.as_str()).collect();

    // Run 1: one commodity cell per grid is wedged. The process finishes
    // the sweep, reports the budget cancellation, and exits 1.
    let stalled = Command::new(env!("CARGO_BIN_EXE_utility_risk"))
        .args(args(&resume_refs))
        .env("CCS_STALL_CELL", "0:1:SJF-BF")
        .output()
        .expect("spawn utility_risk");
    assert_eq!(
        stalled.status.code(),
        Some(1),
        "a stalled cell must exit(1), not hang: {}",
        String::from_utf8_lossy(&stalled.stderr)
    );
    let stderr = String::from_utf8_lossy(&stalled.stderr);
    assert!(
        stderr.contains("exceeded its budget"),
        "stderr must word the failure as a budget cancellation: {stderr}"
    );
    let errors_json =
        std::fs::read_to_string(out.join("cell_errors.json")).expect("cell_errors.json written");
    assert!(errors_json.contains("SJF-BF"), "{errors_json}");
    assert!(errors_json.contains("Budget"), "{errors_json}");

    // Run 2: resume without the drill, compacting the journal afterwards.
    let healed = Command::new(env!("CARGO_BIN_EXE_utility_risk"))
        .args(args(&[resume_refs[0], resume_refs[1], "--compact-journal"]))
        .env_remove("CCS_STALL_CELL")
        .output()
        .expect("spawn utility_risk");
    assert_eq!(
        healed.status.code(),
        Some(0),
        "healed resume must exit 0: {}",
        String::from_utf8_lossy(&healed.stderr)
    );
    assert!(
        String::from_utf8_lossy(&healed.stderr).contains("journal compacted"),
        "compaction must be reported: {}",
        String::from_utf8_lossy(&healed.stderr)
    );

    // Run 3: replay purely from the compacted journal — still clean.
    let replay = Command::new(env!("CARGO_BIN_EXE_utility_risk"))
        .args(args(&resume_refs))
        .output()
        .expect("spawn utility_risk");
    assert_eq!(replay.status.code(), Some(0));

    // Run 4: fresh, untouched run. All three clean runs agree byte for
    // byte on stdout (the per-policy summary tables).
    let fresh = Command::new(env!("CARGO_BIN_EXE_utility_risk"))
        .args(args(&[]))
        .output()
        .expect("spawn utility_risk");
    assert_eq!(fresh.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&healed.stdout),
        String::from_utf8_lossy(&fresh.stdout),
        "healed resume must match an untouched run"
    );
    assert_eq!(
        String::from_utf8_lossy(&replay.stdout),
        String::from_utf8_lossy(&fresh.stdout),
        "replay from the compacted journal must match an untouched run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Compaction rewrites the journal to one record per cell without changing
/// what a resume computes from it.
#[test]
fn journal_compaction_preserves_resume_results() {
    let dir = temp_dir("compact");
    let journal = dir.join("journal.jsonl");
    let cfg = small_cfg();

    let full = run_evaluation(
        &cfg,
        &GridControl {
            journal: Some(journal.clone()),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(full.cell_errors().is_empty());

    let before = std::fs::read_to_string(&journal).unwrap().lines().count();
    let (read, kept) = Journal::compact(&journal).expect("compaction succeeds");
    assert_eq!(read, before);
    assert!(kept <= read);
    assert!(kept > 0);

    let resumed = run_evaluation(
        &cfg,
        &GridControl {
            journal: Some(journal),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(resumed.cell_errors().is_empty());
    for (f, r) in full.raw_grids.iter().zip(&resumed.raw_grids) {
        assert_eq!(
            f.raw,
            r.raw,
            "{} / {}: resume over a compacted journal must be identical",
            f.econ,
            f.set.label()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
