//! End-to-end coverage of the crash-safe, resumable experiment grid: a run
//! killed partway (cell budget) resumes from its journal to results
//! byte-identical to an uninterrupted run, and a panicking cell is confined
//! to a reported `CellError` (nonzero exit) instead of aborting the study.

use ccs_experiments::{
    run_evaluation, CellError, CellErrorKind, ExperimentConfig, GridControl, TelemetryReport,
};
use std::path::PathBuf;
use std::process::Command;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccs_failures_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_cfg() -> ExperimentConfig {
    ExperimentConfig::quick().with_jobs(25)
}

/// Satellite 4, library level: truncate a full evaluation after a cell
/// budget, then resume from the journal — the merged results must be
/// byte-identical to an uninterrupted evaluation (same floats, bit for
/// bit), and the resumed run must only have paid for the missing cells.
#[test]
fn budget_truncated_evaluation_resumes_to_identical_results() {
    let dir = temp_dir("resume");
    let journal = dir.join("journal.jsonl");
    let cfg = small_cfg();

    let full = run_evaluation(&cfg, &GridControl::default()).unwrap();

    // Interrupted run: only 40 cells per grid actually execute; the rest
    // hold placeholders and are *not* journaled.
    let interrupted = run_evaluation(
        &cfg,
        &GridControl {
            journal: Some(journal.clone()),
            cell_budget: Some(40),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(interrupted.cell_errors().is_empty());

    // Resumed run: journal hits for the 4 × 40 completed cells, live
    // simulation for the remainder.
    let resumed = run_evaluation(
        &cfg,
        &GridControl {
            journal: Some(journal.clone()),
            ..Default::default()
        },
    )
    .unwrap();
    assert!(resumed.cell_errors().is_empty());

    for (f, r) in full.raw_grids.iter().zip(&resumed.raw_grids) {
        assert_eq!(f.econ, r.econ);
        assert_eq!(f.set, r.set);
        assert_eq!(
            f.raw, r.raw,
            "{} / {}: resumed grid must be byte-identical to the uninterrupted one",
            f.econ, f.set
        );
    }

    // A second resume is a pure replay: every cell comes from the journal
    // and the numbers still match.
    let replay = run_evaluation(
        &cfg,
        &GridControl {
            journal: Some(journal),
            ..Default::default()
        },
    )
    .unwrap();
    for (f, r) in full.raw_grids.iter().zip(&replay.raw_grids) {
        assert_eq!(f.raw, r.raw);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite 4 + tentpole acceptance, binary level: a deliberately
/// panicking policy cell (injected via `CCS_FAIL_CELL`) must not abort the
/// grid — the run completes, writes `cell_errors.json`, and exits nonzero;
/// a `--resume` rerun without the injection re-runs only the failed cells
/// and produces the same stdout as an untouched run.
#[test]
fn panicking_cell_reports_errors_and_resume_heals() {
    let dir = temp_dir("panic");
    let journal = dir.join("journal.jsonl");
    let out = dir.join("out");
    let args = |with_resume: bool| {
        let mut a = vec![
            "summary".to_string(),
            "--quick".into(),
            "--jobs".into(),
            "25".into(),
            "--quiet".into(),
            "--out".into(),
            out.to_str().unwrap().into(),
        ];
        if with_resume {
            a.push("--resume".into());
            a.push(journal.to_str().unwrap().to_string());
        }
        a
    };

    // Run 1: one cell per grid panics. The process must finish the whole
    // sweep, report the errors, and exit nonzero.
    let poisoned = Command::new(env!("CARGO_BIN_EXE_utility_risk"))
        .args(args(true))
        .env("CCS_FAIL_CELL", "0:1:SJF-BF")
        .output()
        .expect("spawn utility_risk");
    assert_eq!(
        poisoned.status.code(),
        Some(1),
        "a panicking cell must exit(1), not abort: {}",
        String::from_utf8_lossy(&poisoned.stderr)
    );
    let stderr = String::from_utf8_lossy(&poisoned.stderr);
    assert!(
        stderr.contains("panicked"),
        "stderr must name the panicking cell: {stderr}"
    );
    let errors_json =
        std::fs::read_to_string(out.join("cell_errors.json")).expect("cell_errors.json written");
    assert!(
        errors_json.contains("SJF-BF"),
        "error artifact names the policy: {errors_json}"
    );

    // Run 2: resume without the injection. Only the failed/missing cells
    // re-run; exit clean.
    let healed = Command::new(env!("CARGO_BIN_EXE_utility_risk"))
        .args(args(true))
        .env_remove("CCS_FAIL_CELL")
        .output()
        .expect("spawn utility_risk");
    assert_eq!(
        healed.status.code(),
        Some(0),
        "healed resume must exit 0: {}",
        String::from_utf8_lossy(&healed.stderr)
    );
    // Run 3: fresh, uninterrupted run. Its stdout (the four per-policy
    // summary tables) must be byte-identical to the healed resume's.
    let fresh = Command::new(env!("CARGO_BIN_EXE_utility_risk"))
        .args(args(false))
        .env_remove("CCS_FAIL_CELL")
        .output()
        .expect("spawn utility_risk");
    assert_eq!(fresh.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&healed.stdout),
        String::from_utf8_lossy(&fresh.stdout),
        "resumed report must be byte-identical to an uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `figure` runs its two grids under the environment's drills and ends
/// like the grid subcommands: a panicking cell is reported in
/// `cell_errors.json` with exit 1, and the telemetry report lists both
/// grids and their slowest cells.
#[test]
fn failing_figure_cell_reports_errors_and_both_grids() {
    let dir = temp_dir("figure");
    let out = dir.join("out");
    let telemetry = dir.join("telemetry.json");
    let run = Command::new(env!("CARGO_BIN_EXE_utility_risk"))
        .args([
            "figure", "fig3", "--quick", "--jobs", "30", "--quiet", "--out",
        ])
        .arg(&out)
        .arg("--telemetry")
        .arg(&telemetry)
        .env("CCS_FAIL_CELL", "0:0:Libra")
        .output()
        .expect("spawn utility_risk");
    assert_eq!(
        run.status.code(),
        Some(1),
        "a failed figure cell must exit 1: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let errors = std::fs::read_to_string(out.join("cell_errors.json")).expect("cell errors");
    let errors: Vec<CellError> = serde_json::from_str(&errors).unwrap();
    assert_eq!(errors.len(), 2, "one error per grid: {errors:?}");
    for e in &errors {
        assert_eq!(
            (e.scenario_idx, e.value_idx, e.policy.as_str()),
            (0, 0, "Libra")
        );
        assert_eq!(e.kind, CellErrorKind::Panic);
    }
    let report = std::fs::read_to_string(&telemetry).expect("telemetry report");
    let report: TelemetryReport = serde_json::from_str(&report).unwrap();
    assert_eq!(report.grids.len(), 2);
    assert!(!report.slowest_cells.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// An unopenable `--resume` journal is a configuration error caught before
/// the run starts (exit 2, naming the flag), not a panic partway into the
/// grid.
/// So are an out-of-range `tables --table N`, an unknown `figure` id, and
/// a flag the subcommand does not take; the valid forms of the first two
/// print and write what they should.
#[test]
fn unopenable_resume_journal_exits_2_naming_the_flag() {
    let dir = temp_dir("bad_journal");
    // A regular file where the journal's directory should be.
    let not_a_dir = dir.join("file");
    std::fs::write(&not_a_dir, b"").unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_utility_risk"))
        .args(["summary", "--quick", "--jobs", "25", "--quiet", "--resume"])
        .arg(not_a_dir.join("journal.jsonl"))
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("spawn utility_risk");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--resume"), "{stderr}");

    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_utility_risk"))
            .args(args)
            .output()
            .expect("spawn utility_risk")
    };
    let table3 = run(&["tables", "--table", "3"]);
    assert!(table3.status.success());
    assert_eq!(
        String::from_utf8_lossy(&table3.stdout),
        ccs_experiments::tables::table3()
    );
    // A flag the subcommand does not take is an error too, raised before
    // anything is created: `figure` must not open the `--resume` journal.
    let journal = dir.join("foreign.jsonl");
    let journal = journal.to_str().unwrap();
    let bundle = dir.to_str().unwrap();
    for (args, names) in [
        (&["tables", "--table", "7"][..], "--table"),
        (&["figure", "fig9"][..], "fig9"),
        (&["figure", "fig3", "--resume", journal][..], "--resume"),
        (&["tables", "--compact-journal"][..], "--compact-journal"),
        (&["workload", "--cell-budget", "3"][..], "--cell-budget"),
        (&["query", "--rounds", "3"][..], "--rounds"),
        (&["chaos", "--limit", "2"][..], "--limit"),
        (&["trace", "--workers", "1"][..], "--workers"),
        (&["trace-report", bundle, "--top", "abc"][..], "--top"),
        (&["tables", "--table", "1", "--jobs", "5"][..], "--jobs"),
        (
            &["query", "--store", bundle, "--replicas", "2"][..],
            "--replicas",
        ),
        (&["worker", "--bogus"][..], "--bogus"),
    ] {
        let output = run(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(names),
            "{args:?} must name {names}: {stderr}"
        );
    }
    assert!(
        !std::path::Path::new(journal).exists(),
        "a rejected --resume must not create its journal"
    );
    let fig2_dir = dir.join("fig2");
    let fig2 = run(&[
        "figure",
        "fig2",
        "--quiet",
        "--out",
        fig2_dir.to_str().unwrap(),
    ]);
    assert!(fig2.status.success());
    assert!(fig2_dir.join("fig2.dat").exists() && fig2_dir.join("fig2.svg").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader that stops early (`utility_risk … | head`) closes the pipe under
/// the CLI: the run ends quietly with the SIGPIPE status a shell reports
/// (141), not with a panic and exit 101.
#[test]
fn closed_stdout_ends_the_cli_quietly() {
    use std::process::Stdio;
    let dir = temp_dir("pipe");
    let mut child = Command::new(env!("CARGO_BIN_EXE_utility_risk"))
        .args(["robustness", "--quick", "--jobs", "25", "--quiet", "--out"])
        .arg(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn utility_risk");
    // Close the read end before the first study is printed.
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("wait for utility_risk");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(141), "{stderr}");
    assert!(stderr.is_empty(), "--quiet and no panic text: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
