//! Capturing one traced run: per-job SLA trace, provenance manifest, and
//! export writers (JSONL + Chrome `trace_event`).
//!
//! [`capture_cell`] runs a single grid cell (one economic model × estimate
//! set × scenario value × policy) with tracing on and packages the result
//! as a [`TraceBundle`]. [`write_bundle`] persists the three artifacts:
//!
//! * `trace.jsonl` — one serialised `TraceRecord` per line;
//! * `manifest.json` — the [`ProvenanceManifest`] (seed, scenario, policy,
//!   workload params, crate versions, cargo features, reference metrics);
//! * `trace.chrome.json` — Chrome `trace_event` JSON loadable in Perfetto
//!   (<https://ui.perfetto.dev>): per-job wait/run slices on one track per
//!   job, rejection instants, kernel-span instants.

use crate::grid::ExperimentConfig;
use crate::scenario::{EstimateSet, Scenario};
use ccs_economy::EconomicModel;
use ccs_policies::PolicyKind;
use ccs_simsvc::{Run, RunConfig, RunResult, RunTrace, Timeline};
use ccs_telemetry::trace::{TraceEvent, TraceRecord, TRACE_SCHEMA_VERSION};
use ccs_workload::apply_scenario;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Version of the provenance-manifest schema. Bumped on any change to the
/// manifest's fields, like [`TRACE_SCHEMA_VERSION`] for trace records.
pub const MANIFEST_SCHEMA_VERSION: u32 = 1;

/// Timeline bucket width used for the manifest's utilization summary.
const TIMELINE_BUCKET_SECS: f64 = 3600.0;

/// Which grid cell to trace.
#[derive(Clone, Copy, Debug)]
pub struct TraceCellSpec {
    /// Economic model.
    pub econ: EconomicModel,
    /// Estimate set (A = accurate, B = trace estimates).
    pub set: EstimateSet,
    /// Scenario axis.
    pub scenario: Scenario,
    /// Index into the scenario's six values.
    pub value_idx: usize,
    /// Policy under trace.
    pub policy: PolicyKind,
}

impl Default for TraceCellSpec {
    /// The paper's baseline cell: commodity market, Set B, the default 20%
    /// high-urgency job mix, FCFS-BF.
    fn default() -> Self {
        TraceCellSpec {
            econ: EconomicModel::CommodityMarket,
            set: EstimateSet::B,
            scenario: Scenario::ALL[0],
            value_idx: 1,
            policy: PolicyKind::FcfsBf,
        }
    }
}

impl TraceCellSpec {
    /// Consumes the spec's flags (`--econ commodity|bid`, `--set A|B`,
    /// `--scenario IDX`, `--value IDX`, `--policy NAME`) from `args`,
    /// leaving unrelated flags in place for the shared CLI parser.
    pub fn parse_args(args: &mut Vec<String>) -> Result<TraceCellSpec, String> {
        let mut spec = TraceCellSpec::default();
        let mut take = |flag: &str| -> Result<Option<String>, String> {
            match args.iter().position(|a| a == flag) {
                None => Ok(None),
                Some(i) if i + 1 < args.len() => {
                    args.remove(i);
                    Ok(Some(args.remove(i)))
                }
                Some(_) => Err(format!("{flag} requires a value")),
            }
        };
        if let Some(v) = take("--econ")? {
            spec.econ = match v.as_str() {
                "commodity" => EconomicModel::CommodityMarket,
                "bid" => EconomicModel::BidBased,
                other => return Err(format!("--econ {other}: expected commodity|bid")),
            };
        }
        if let Some(v) = take("--set")? {
            spec.set = match v.as_str() {
                "A" | "a" => EstimateSet::A,
                "B" | "b" => EstimateSet::B,
                other => return Err(format!("--set {other}: expected A|B")),
            };
        }
        if let Some(v) = take("--scenario")? {
            let idx: usize = v.parse().map_err(|_| {
                format!(
                    "--scenario {v}: expected an index 0..{}",
                    Scenario::ALL.len()
                )
            })?;
            spec.scenario = *Scenario::ALL.get(idx).ok_or(format!(
                "--scenario {idx}: only 0..{} exist",
                Scenario::ALL.len()
            ))?;
        }
        if let Some(v) = take("--value")? {
            let idx: usize = v
                .parse()
                .map_err(|_| format!("--value {v}: expected an index 0..6"))?;
            if idx >= 6 {
                return Err(format!("--value {idx}: only 0..6 exist"));
            }
            spec.value_idx = idx;
        }
        if let Some(v) = take("--policy")? {
            spec.policy = parse_policy(&v).ok_or(format!(
                "--policy {v}: expected one of FCFS-BF SJF-BF EDF-BF Libra Libra+$ LibraRiskD FirstReward"
            ))?;
        }
        let allowed = policies_of(spec.econ);
        if !allowed.contains(&spec.policy) {
            return Err(format!(
                "policy {} is not evaluated under the {} model",
                spec.policy, spec.econ
            ));
        }
        Ok(spec)
    }
}

fn policies_of(econ: EconomicModel) -> [PolicyKind; 5] {
    match econ {
        EconomicModel::CommodityMarket => PolicyKind::COMMODITY,
        EconomicModel::BidBased => PolicyKind::BID_BASED,
    }
}

/// Parses a policy display name (case-insensitive).
pub fn parse_policy(name: &str) -> Option<PolicyKind> {
    [
        PolicyKind::FcfsBf,
        PolicyKind::SjfBf,
        PolicyKind::EdfBf,
        PolicyKind::Libra,
        PolicyKind::LibraDollar,
        PolicyKind::LibraRiskD,
        PolicyKind::FirstReward,
    ]
    .into_iter()
    .find(|k| k.name().eq_ignore_ascii_case(name))
}

/// Reference metrics copied from the runner into the manifest, so a trace
/// report can cross-check Eqs. 1–4 without re-running the simulation.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ManifestMetrics {
    /// Jobs submitted.
    pub submitted: u32,
    /// SLAs accepted.
    pub accepted: u32,
    /// Jobs fulfilled (completed within deadline).
    pub fulfilled: u32,
    /// Sum of wait times over fulfilled jobs (seconds).
    pub wait_sum_fulfilled: f64,
    /// Total provider utility.
    pub utility_total: f64,
    /// Total offered budget.
    pub budget_total: f64,
    /// Eq. 1 — mean wait of fulfilled jobs (seconds).
    pub wait: f64,
    /// Eq. 2 — SLA percentage.
    pub sla_pct: f64,
    /// Eq. 3 — reliability percentage.
    pub reliability_pct: f64,
    /// Eq. 4 — profitability percentage.
    pub profitability_pct: f64,
}

impl ManifestMetrics {
    fn of(result: &RunResult) -> ManifestMetrics {
        let m = &result.metrics;
        let [wait, sla, rel, prof] = m.objectives();
        ManifestMetrics {
            submitted: m.submitted,
            accepted: m.accepted,
            fulfilled: m.fulfilled,
            wait_sum_fulfilled: m.wait_sum_fulfilled,
            utility_total: m.utility_total,
            budget_total: m.budget_total,
            wait,
            sla_pct: sla,
            reliability_pct: rel,
            profitability_pct: prof,
        }
    }
}

/// Workload-synthesis parameters recorded for reproducibility.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct WorkloadParams {
    /// Number of synthetic jobs.
    pub jobs: u64,
    /// Mean interarrival time (seconds).
    pub mean_interarrival: f64,
    /// Mean runtime (seconds).
    pub mean_runtime: f64,
}

/// Everything needed to reproduce and interpret one traced run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ProvenanceManifest {
    /// [`MANIFEST_SCHEMA_VERSION`] at write time.
    pub schema_version: u32,
    /// [`TRACE_SCHEMA_VERSION`] of the trace records next to this manifest.
    pub trace_schema_version: u32,
    /// Master seed of the workload synthesis.
    pub seed: u64,
    /// Cluster size in processors.
    pub nodes: u32,
    /// Workload-synthesis parameters.
    pub workload: WorkloadParams,
    /// Economic model display name.
    pub econ: String,
    /// Estimate set label.
    pub set: String,
    /// Scenario label.
    pub scenario: String,
    /// Index of the scenario value (0..6).
    pub value_idx: u64,
    /// The scenario value itself.
    pub value: f64,
    /// Policy display name.
    pub policy: String,
    /// Workspace crate versions at capture time.
    pub crates: BTreeMap<String, String>,
    /// Compiled-in cargo features (`profile`, the only one).
    pub features: Vec<String>,
    /// Mean processor utilization over the run (0–1, hourly buckets).
    pub mean_utilization: f64,
    /// Peak accepted-but-waiting queue depth.
    pub peak_waiting: u64,
    /// The runner's aggregate metrics, for cross-checking.
    pub metrics: ManifestMetrics,
}

/// One traced cell: manifest + trace + the untouched run result.
#[derive(Clone, Debug)]
pub struct TraceBundle {
    /// Provenance manifest.
    pub manifest: ProvenanceManifest,
    /// The run's trace.
    pub trace: RunTrace,
    /// The run's ordinary result (identical to an untraced run).
    pub result: RunResult,
}

/// Runs `spec`'s cell with tracing on and assembles the bundle.
pub fn capture_cell(spec: &TraceCellSpec, cfg: &ExperimentConfig) -> TraceBundle {
    let base = cfg.trace.generate(cfg.seed);
    let value = spec.scenario.values()[spec.value_idx];
    let transform = spec.scenario.transform(spec.set, value);
    let jobs = apply_scenario(&base, &transform, cfg.seed);
    let run_cfg = RunConfig {
        nodes: cfg.nodes,
        econ: spec.econ,
    };
    // The failure-rate scenario injects faults exactly as the grid does, so
    // a traced cell reproduces its grid counterpart bit for bit.
    let fault = spec.scenario.fault(value, cfg.seed);
    let out = Run::new(&jobs, spec.policy, &run_cfg)
        .fault(fault.as_ref())
        .trace()
        .execute()
        .unwrap_or_else(|e| panic!("{e}"));
    let trace = out.trace.expect("a traced run carries its trace");
    let result = out.result;
    let timeline = Timeline::from_run(&jobs, &result.records, cfg.nodes, TIMELINE_BUCKET_SECS);

    let version = env!("CARGO_PKG_VERSION").to_string();
    let crates: BTreeMap<String, String> = [
        "ccs-des",
        "ccs-workload",
        "ccs-cluster",
        "ccs-economy",
        "ccs-policies",
        "ccs-risk",
        "ccs-simsvc",
        "ccs-telemetry",
        "ccs-experiments",
    ]
    .iter()
    .map(|name| (name.to_string(), version.clone()))
    .collect();

    let features = if ccs_telemetry::profile::PROFILE_ENABLED {
        vec!["profile".to_string()]
    } else {
        Vec::new()
    };

    let manifest = ProvenanceManifest {
        schema_version: MANIFEST_SCHEMA_VERSION,
        trace_schema_version: TRACE_SCHEMA_VERSION,
        seed: cfg.seed,
        nodes: cfg.nodes,
        workload: WorkloadParams {
            jobs: cfg.trace.jobs as u64,
            mean_interarrival: cfg.trace.mean_interarrival,
            mean_runtime: cfg.trace.mean_runtime,
        },
        econ: spec.econ.to_string(),
        set: spec.set.label().to_string(),
        scenario: spec.scenario.label(),
        value_idx: spec.value_idx as u64,
        value,
        policy: spec.policy.name().to_string(),
        crates,
        features,
        mean_utilization: timeline.mean_utilization(),
        peak_waiting: timeline.peak_waiting() as u64,
        metrics: ManifestMetrics::of(&result),
    };

    TraceBundle {
        manifest,
        trace,
        result,
    }
}

/// Serialises a trace as JSON Lines: one record per line, in causal order.
pub fn trace_jsonl(trace: &RunTrace) -> String {
    let mut s = String::with_capacity(trace.records.len() * 96);
    for r in &trace.records {
        s.push_str(&serde_json::to_string(r).expect("trace records always serialise"));
        s.push('\n');
    }
    s
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders the trace as Chrome `trace_event` JSON (the object form, with a
/// `traceEvents` array), loadable in Perfetto or `about://tracing`.
///
/// Sim seconds become microseconds (the format's native unit). Each job is
/// one thread track: a `wait` slice from submit to start, a `run` slice
/// from start to finish, and an instant for rejections; kernel spans land
/// on tid 0 as instants with their counters as args. Two counter (`"C"`)
/// tracks ride along: a `jobs` track plotting waiting/running occupancy at
/// every transition, and a `kernel_queue` track plotting the event-queue
/// high-water mark per kernel span — Perfetto renders both as area charts
/// above the slices.
pub fn chrome_trace_json(trace: &RunTrace) -> String {
    #[derive(Default, Clone, Copy)]
    struct Life {
        submit: Option<f64>,
        start: Option<f64>,
        finish: Option<f64>,
        fulfilled: bool,
        utility: f64,
    }
    let mut lives: BTreeMap<u64, Life> = BTreeMap::new();
    let mut rejects: Vec<(u64, f64, String)> = Vec::new();
    let mut kernel: Vec<(f64, ccs_telemetry::trace::KernelSpan)> = Vec::new();
    for r in &trace.records {
        match &r.event {
            TraceEvent::JobSubmitted { job, .. } => {
                lives.entry(*job).or_default().submit = Some(r.t);
            }
            TraceEvent::JobStarted { job, .. } => {
                lives.entry(*job).or_default().start = Some(r.t);
            }
            TraceEvent::JobCompleted {
                job,
                finish,
                fulfilled,
                utility,
                ..
            } => {
                let l = lives.entry(*job).or_default();
                l.finish = Some(*finish);
                l.fulfilled = *fulfilled;
                l.utility = *utility;
            }
            TraceEvent::SlaRejected { job, reason } => {
                rejects.push((*job, r.t, reason.clone()));
            }
            TraceEvent::KernelSpan(span) => kernel.push((r.t, *span)),
            _ => {}
        }
    }

    let us = |secs: f64| secs * 1e6;
    let mut events: Vec<String> = Vec::with_capacity(lives.len() * 2 + rejects.len() + 2);
    events.push(format!(
        r#"{{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{{"name":"ccs {} ({})"}}}}"#,
        esc(&trace.policy),
        esc(&trace.econ)
    ));
    for (job, l) in &lives {
        let Some(submit) = l.submit else { continue };
        if let Some(start) = l.start {
            if start > submit {
                events.push(format!(
                    r#"{{"name":"wait","cat":"sla","ph":"X","pid":1,"tid":{job},"ts":{:.3},"dur":{:.3}}}"#,
                    us(submit),
                    us(start - submit)
                ));
            }
            if let Some(finish) = l.finish {
                events.push(format!(
                    r#"{{"name":"run","cat":"sla","ph":"X","pid":1,"tid":{job},"ts":{:.3},"dur":{:.3},"args":{{"fulfilled":{},"utility":{:.6}}}}}"#,
                    us(start),
                    us(finish - start),
                    l.fulfilled,
                    l.utility
                ));
            }
        }
    }
    for (job, t, reason) in &rejects {
        events.push(format!(
            r#"{{"name":"rejected: {}","cat":"sla","ph":"i","pid":1,"tid":{job},"ts":{:.3},"s":"t"}}"#,
            esc(reason),
            us(*t)
        ));
    }
    for (t, span) in &kernel {
        events.push(format!(
            r#"{{"name":"kernel_span","cat":"des","ph":"i","pid":1,"tid":0,"ts":{:.3},"s":"p","args":{{"scheduled":{},"processed":{},"cancelled":{},"tombstone_skips":{},"depth_hwm":{}}}}}"#,
            us(*t),
            span.scheduled,
            span.processed,
            span.cancelled,
            span.tombstone_skips,
            span.depth_hwm
        ));
        events.push(format!(
            r#"{{"name":"kernel_queue","cat":"des","ph":"C","pid":1,"tid":0,"ts":{:.3},"args":{{"depth_hwm":{}}}}}"#,
            us(*t),
            span.depth_hwm
        ));
    }

    // The `jobs` counter track: waiting/running occupancy sampled at every
    // transition. Waiting = submitted but not yet started; a job that never
    // starts leaves the waiting count at its rejection instant.
    let mut transitions: Vec<(f64, i64, i64)> = Vec::new(); // (t, Δwaiting, Δrunning)
    for (job, l) in &lives {
        let Some(submit) = l.submit else { continue };
        transitions.push((submit, 1, 0));
        match l.start {
            Some(start) => {
                transitions.push((start, -1, 1));
                if let Some(finish) = l.finish {
                    transitions.push((finish, 0, -1));
                }
            }
            None => {
                if let Some((_, t, _)) = rejects.iter().find(|(j, _, _)| j == job) {
                    transitions.push((*t, -1, 0));
                }
            }
        }
    }
    transitions.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut waiting = 0i64;
    let mut running = 0i64;
    for (t, dw, dr) in transitions {
        waiting += dw;
        running += dr;
        events.push(format!(
            r#"{{"name":"jobs","cat":"sla","ph":"C","pid":1,"tid":0,"ts":{:.3},"args":{{"waiting":{},"running":{}}}}}"#,
            us(t),
            waiting.max(0),
            running.max(0)
        ));
    }

    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
        events.join(",\n")
    )
}

/// Writes `trace.jsonl`, `manifest.json`, and `trace.chrome.json` under
/// `dir` (created if missing). Returns the paths written.
pub fn write_bundle(bundle: &TraceBundle, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let jsonl = dir.join("trace.jsonl");
    std::fs::write(&jsonl, trace_jsonl(&bundle.trace))?;
    let manifest = dir.join("manifest.json");
    let mut manifest_json =
        serde_json::to_string_pretty(&bundle.manifest).expect("manifest always serialises");
    manifest_json.push('\n');
    std::fs::write(&manifest, manifest_json)?;
    let chrome = dir.join("trace.chrome.json");
    std::fs::write(&chrome, chrome_trace_json(&bundle.trace))?;
    Ok(vec![jsonl, manifest, chrome])
}

/// Parses a `trace.jsonl` payload back into records.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            serde_json::from_str::<TraceRecord>(l).map_err(|e| format!("line {}: {e:?}", i + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_round_trips_through_jsonl() {
        let cfg = ExperimentConfig::quick().with_jobs(40);
        let bundle = capture_cell(&TraceCellSpec::default(), &cfg);
        assert_eq!(bundle.manifest.metrics.submitted, 40);
        assert_eq!(bundle.manifest.policy, "FCFS-BF");
        let back = parse_jsonl(&trace_jsonl(&bundle.trace)).unwrap();
        assert_eq!(back, bundle.trace.records);
    }

    #[test]
    fn chrome_trace_is_wellformed_json() {
        let cfg = ExperimentConfig::quick().with_jobs(25);
        let bundle = capture_cell(&TraceCellSpec::default(), &cfg);
        let chrome = chrome_trace_json(&bundle.trace);
        let v = serde_json::parse_value_str(&chrome).expect("chrome trace parses as JSON");
        let Some(serde::Value::Seq(events)) = v.get("traceEvents") else {
            panic!("traceEvents array missing")
        };
        assert!(!events.is_empty());
        // The jobs counter track exists and its running count peaks > 0.
        let mut max_running = 0i64;
        for e in events {
            if e.get("name").and_then(|n| match n {
                serde::Value::Str(s) => Some(s.as_str()),
                _ => None,
            }) == Some("jobs")
            {
                assert_eq!(e.get("ph"), Some(&serde::Value::Str("C".to_string())));
                if let Some(serde::Value::Int(r)) = e.get("args").and_then(|a| a.get("running")) {
                    max_running = max_running.max(*r);
                }
            }
        }
        assert!(
            max_running > 0,
            "jobs counter track never saw a running job"
        );
    }

    #[test]
    fn spec_parser_strips_its_flags_and_validates() {
        let mut args: Vec<String> = ["--policy", "libra", "--quick", "--econ", "bid"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let spec = TraceCellSpec::parse_args(&mut args).unwrap();
        assert_eq!(spec.policy, PolicyKind::Libra);
        assert_eq!(spec.econ, EconomicModel::BidBased);
        assert_eq!(args, vec!["--quick".to_string()]);

        let mut bad: Vec<String> = ["--policy", "SJF-BF", "--econ", "bid"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(
            TraceCellSpec::parse_args(&mut bad).is_err(),
            "SJF-BF is commodity-only"
        );
    }
}
