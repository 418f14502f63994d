//! End-to-end coverage of the tracing layer: capture a traced run, write
//! the bundle, re-parse the JSONL trace and provenance manifest from disk,
//! and prove that Eqs. 1–4 recomputed from the trace agree with the
//! runner's metrics pipeline (the correctness oracle of the trace layer).

use ccs_experiments::trace_report::analyze;
use ccs_experiments::trace_run::{parse_jsonl, ProvenanceManifest};
use ccs_experiments::{capture_cell, write_bundle, ExperimentConfig, TraceCellSpec};
use ccs_telemetry::trace::{check_causal_order, TRACE_SCHEMA_VERSION};
use std::path::PathBuf;
use std::process::Command;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccs_trace_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The full artifact round trip: bundle → disk → parse → analyse →
/// cross-check. Eqs. 2 and 3 are ratios of integer counts and must match
/// exactly; Eqs. 1 and 4 sum floats in a different order than the runner
/// and must agree to within 1e-9 relative.
#[test]
fn trace_bundle_round_trips_and_matches_runner_metrics() {
    let cfg = ExperimentConfig::quick().with_jobs(60);
    let bundle = capture_cell(&TraceCellSpec::default(), &cfg);
    let dir = temp_dir("bundle");
    let files = write_bundle(&bundle, &dir).expect("write bundle");
    assert_eq!(files.len(), 3);

    let jsonl = std::fs::read_to_string(dir.join("trace.jsonl")).expect("trace.jsonl written");
    let records = parse_jsonl(&jsonl).expect("trace.jsonl parses");
    assert_eq!(records, bundle.trace.records);
    check_causal_order(&records).expect("trace is causally ordered");

    let manifest_text =
        std::fs::read_to_string(dir.join("manifest.json")).expect("manifest.json written");
    let manifest: ProvenanceManifest =
        serde_json::from_str(&manifest_text).expect("manifest parses");
    assert_eq!(manifest.trace_schema_version, TRACE_SCHEMA_VERSION);
    assert_eq!(manifest.seed, cfg.seed);
    assert_eq!(manifest.policy, "FCFS-BF");
    assert!(!manifest.crates.is_empty());

    let analysis = analyze(&records).expect("trace analyses");
    let m = &manifest.metrics;
    // Integer counts (and thus Eqs. 2/3) must match exactly.
    assert_eq!(analysis.submitted, m.submitted);
    assert_eq!(analysis.accepted, m.accepted);
    assert_eq!(analysis.fulfilled, m.fulfilled);
    let [wait, sla, rel, prof] = analysis.objectives();
    assert_eq!(sla, m.sla_pct, "Eq. 2 is exact given exact counts");
    assert_eq!(rel, m.reliability_pct, "Eq. 3 is exact given exact counts");
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    assert!(close(wait, m.wait), "Eq. 1: {wait} vs {}", m.wait);
    assert!(
        close(prof, m.profitability_pct),
        "Eq. 4: {prof} vs {}",
        m.profitability_pct
    );
    assert_eq!(analysis.crosscheck(m), Vec::<String>::new());

    // The Chrome trace must at least be valid JSON with a traceEvents array.
    let chrome =
        std::fs::read_to_string(dir.join("trace.chrome.json")).expect("trace.chrome.json written");
    let v = serde_json::parse_value_str(&chrome).expect("chrome trace parses as JSON");
    match v.get("traceEvents") {
        Some(serde::Value::Seq(events)) => assert!(!events.is_empty()),
        other => panic!("traceEvents array missing: {other:?}"),
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// The traced run must produce the same `RunResult` as the plain runner —
/// tracing is observation, never perturbation.
#[test]
fn tracing_does_not_perturb_results() {
    use ccs_simsvc::{simulate, RunConfig};
    use ccs_workload::apply_scenario;

    let cfg = ExperimentConfig::quick().with_jobs(60);
    let spec = TraceCellSpec::default();
    let bundle = capture_cell(&spec, &cfg);

    let base = cfg.trace.generate(cfg.seed);
    let value = spec.scenario.values()[spec.value_idx];
    let jobs = apply_scenario(&base, &spec.scenario.transform(spec.set, value), cfg.seed);
    let plain = simulate(
        &jobs,
        spec.policy,
        &RunConfig {
            nodes: cfg.nodes,
            econ: spec.econ,
        },
    );
    let a = serde_json::to_string(&plain).unwrap();
    let b = serde_json::to_string(&bundle.result).unwrap();
    assert_eq!(a, b, "traced and untraced runs must be byte-identical");
}

/// CLI smoke: `utility_risk trace` writes the bundle and exits 0 (the
/// cross-check is built into the command), then `utility_risk trace-report`
/// re-analyses the same bundle from disk and also exits 0.
#[test]
fn trace_cli_round_trip() {
    let dir = temp_dir("cli");
    let out = Command::new(env!("CARGO_BIN_EXE_utility_risk"))
        .args([
            "trace",
            "--quick",
            "--jobs",
            "50",
            "--policy",
            "EDF-BF",
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("spawn utility_risk trace");
    assert!(
        out.status.success(),
        "utility_risk trace failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("Eq.4 profitability"),
        "report missing: {stdout}"
    );
    assert!(stdout.contains("cross-check vs runner metrics: OK"));

    let report = Command::new(env!("CARGO_BIN_EXE_utility_risk"))
        .args(["trace-report", dir.to_str().unwrap()])
        .output()
        .expect("spawn utility_risk trace-report");
    assert!(
        report.status.success(),
        "utility_risk trace-report failed: {}",
        String::from_utf8_lossy(&report.stderr)
    );
    let report_out = String::from_utf8_lossy(&report.stdout);
    assert!(report_out.contains("EDF-BF"), "manifest header missing");
    assert!(report_out.contains("cross-check vs runner metrics: OK"));

    std::fs::remove_dir_all(&dir).ok();
}

/// `--quiet` must silence every stderr progress line while leaving stdout
/// (the data) untouched.
#[test]
fn quiet_flag_silences_stderr() {
    let dir = temp_dir("quiet");
    let out = Command::new(env!("CARGO_BIN_EXE_utility_risk"))
        .args([
            "trace",
            "--quick",
            "--jobs",
            "30",
            "--quiet",
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("spawn utility_risk trace --quiet");
    assert!(out.status.success());
    assert!(
        out.stderr.is_empty(),
        "--quiet must suppress stderr, got: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!out.stdout.is_empty(), "--quiet must not eat stdout data");
    std::fs::remove_dir_all(&dir).ok();
}
