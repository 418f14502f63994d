//! The columnar result store: one compact, queryable artifact per study.
//!
//! A completed evaluation scatters its numbers across figure JSON, the
//! resume journal, telemetry snapshots, and trace JSONL. The store unifies
//! them: one row per grid cell (plus one per chaos-soak finding) in a
//! struct-of-arrays layout — string tables for scenario/policy names,
//! plain `f64`/`u64` columns for everything numeric — written atomically
//! next to the other grid artifacts as [`STORE_FILE`].
//!
//! `utility_risk query` slices it (filter by scenario/policy/model,
//! project columns, sort, summarize) without re-reading any JSONL or trace
//! file. Summarizing `norm_score` per scenario/policy literally reproduces
//! the paper's separate risk analysis: the group mean is Eq. 5, the group
//! population σ is Eq. 6.
//!
//! Schema stability: [`STORE_SCHEMA_VERSION`] gates loads. Adding a column
//! is a version bump; readers refuse newer (or older) schemas instead of
//! misinterpreting them — the store is an artifact format, not an API.

use crate::analysis::normalize_point;
use crate::atomic::write_atomic;
use crate::grid::{CellCost, ExperimentConfig};
use crate::journal::cell_key;
use crate::scenario::{EstimateSet, Scenario};
use crate::Evaluation;
use ccs_chaos::SoakReport;
use ccs_economy::EconomicModel;
use ccs_risk::stream::Welford;
use ccs_risk::WaitNormalization;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// File name of the store artifact, written under the run's `--out` dir.
pub const STORE_FILE: &str = "results_store.json";

/// Store schema version; bump on any column or encoding change.
///
/// v4 added the ensemble columns: `replicas` plus the four `sigma_*`
/// replica-spread columns. v3 added the `worker` attribution column (which
/// worker process/thread simulated each cell). v2 added the per-cell cost
/// vector: `events_per_sec`, `peak_queue_depth`, and one `ns_*` self-time
/// column per profiled phase. Files of any other version are refused with
/// their version number; re-running the grid regenerates them.
pub const STORE_SCHEMA_VERSION: u32 = 4;

/// Row provenance: a normal grid cell, or a chaos-soak finding.
pub const SOURCE_GRID: u8 = 0;
/// Row provenance code for chaos-soak findings (see [`SOURCE_GRID`]).
pub const SOURCE_CHAOS: u8 = 1;

/// Estimate-set code meaning "not applicable" (chaos rows).
const SET_NONE: u8 = 2;

/// The column arrays. All vectors share one length; row `i` is the `i`-th
/// element of every column.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Columns {
    /// Provenance: [`SOURCE_GRID`] or [`SOURCE_CHAOS`].
    pub source: Vec<u8>,
    /// Economic model: 0 = commodity market, 1 = bid-based.
    pub econ: Vec<u8>,
    /// Estimate set: 0 = A, 1 = B, 2 = n/a (chaos rows).
    pub set: Vec<u8>,
    /// Index into the scenario string table.
    pub scenario: Vec<u32>,
    /// Scenario value index (0..6 for grid rows, 0 for chaos rows).
    pub value_idx: Vec<u8>,
    /// Scenario sweep value (grid rows) or soak round (chaos rows).
    pub value: Vec<f64>,
    /// Index into the policy string table.
    pub policy: Vec<u32>,
    /// Master seed of the run that produced the row.
    pub seed: Vec<u64>,
    /// Raw wait objective (Eq. 1), seconds.
    pub wait: Vec<f64>,
    /// Raw SLA objective (Eq. 2), percent.
    pub sla: Vec<f64>,
    /// Raw reliability objective (Eq. 3), percent.
    pub reliability: Vec<f64>,
    /// Raw profitability objective (Eq. 4), percent.
    pub profitability: Vec<f64>,
    /// Equal-weight mean of the four objectives normalized across the
    /// policies at this experiment point (1 = ideal). 0 for chaos rows.
    pub norm_score: Vec<f64>,
    /// Realtime risk score `(1 − norm_score) × (1 − reliability/100)`;
    /// pinned to 1 for chaos findings (an invariant violation is maximal
    /// risk evidence).
    pub risk_score: Vec<f64>,
    /// Wall-clock seconds spent simulating the cell (0 for journal hits).
    pub secs: Vec<f64>,
    /// Outcome events the cell produced (0 for journal hits).
    pub events: Vec<u64>,
    /// Provenance digest: the journal [`cell_key`] for grid rows, the
    /// failure signature for chaos rows.
    pub digest: Vec<String>,
    /// Outcome events per wall-clock second (0 when the cell did not
    /// simulate). Schema v2.
    pub events_per_sec: Vec<f64>,
    /// Largest policy queue depth observed in the cell (0 unless the run
    /// was profiled). Schema v2.
    pub peak_queue_depth: Vec<u64>,
    /// Self-time nanoseconds in workload synthesis. Schema v2; all `ns_*`
    /// columns are 0 unless the producing build had the `profile` feature.
    pub ns_workload_gen: Vec<u64>,
    /// Self-time nanoseconds in policy admission (`on_submit`). Schema v2.
    pub ns_admission: Vec<u64>,
    /// Self-time nanoseconds in event dispatch (`advance_to`/drain).
    /// Schema v2.
    pub ns_dispatch: Vec<u64>,
    /// Self-time nanoseconds in proportional-share recomputation.
    /// Schema v2.
    pub ns_ps_recompute: Vec<u64>,
    /// Self-time nanoseconds in fault delivery. Schema v2.
    pub ns_fault: Vec<u64>,
    /// Self-time nanoseconds in the metrics post-pass. Schema v2.
    pub ns_collect: Vec<u64>,
    /// 1-based id of the worker (thread in-process, OS process under the
    /// multi-process supervisor) that simulated the cell; 0 when
    /// unattributed (chaos rows, skipped cells, pre-v3 journal hits).
    /// Schema v3.
    pub worker: Vec<u64>,
    /// Seed replicas the cell's objectives were averaged over (1 = a plain
    /// single-replica run); 0 = n/a (chaos rows). Schema v4.
    pub replicas: Vec<u64>,
    /// Population σ of the wait objective across the cell's seed replicas
    /// (0 for single-replica cells). Schema v4, like all `sigma_*` columns.
    pub sigma_wait: Vec<f64>,
    /// Population σ of the SLA objective across replicas. Schema v4.
    pub sigma_sla: Vec<f64>,
    /// Population σ of the reliability objective across replicas. Schema v4.
    pub sigma_reliability: Vec<f64>,
    /// Population σ of the profitability objective across replicas.
    /// Schema v4.
    pub sigma_profitability: Vec<f64>,
}

impl Columns {
    /// The row's cost-vector columns, reassembled as a [`CellCost`].
    pub fn cell_cost(&self, i: usize) -> CellCost {
        CellCost {
            phase_ns: [
                self.ns_workload_gen[i],
                self.ns_admission[i],
                self.ns_dispatch[i],
                self.ns_ps_recompute[i],
                self.ns_fault[i],
                self.ns_collect[i],
            ],
            peak_queue_depth: self.peak_queue_depth[i],
        }
    }
}

/// The queryable columnar result store.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ResultStore {
    /// Must equal [`STORE_SCHEMA_VERSION`] to load.
    pub schema_version: u32,
    /// Scenario string table, indexed by [`Columns::scenario`].
    pub scenarios: Vec<String>,
    /// Policy string table, indexed by [`Columns::policy`].
    pub policies: Vec<String>,
    /// The column arrays.
    pub columns: Columns,
}

/// The one field every store schema shares; read when the full parse
/// fails, so the error can name the file's version.
#[derive(Deserialize)]
struct SchemaHeader {
    schema_version: u32,
}

fn schema_mismatch(path: &Path, version: u32) -> String {
    format!(
        "{}: schema version {version} (this build reads {STORE_SCHEMA_VERSION}; re-run the grid \
         to regenerate it)",
        path.display()
    )
}

/// Every queryable column name, in presentation order.
pub const COLUMN_NAMES: [&str; 31] = [
    "source",
    "econ",
    "set",
    "scenario",
    "value_idx",
    "value",
    "policy",
    "seed",
    "wait",
    "sla",
    "reliability",
    "profitability",
    "norm_score",
    "risk_score",
    "secs",
    "events",
    "digest",
    "events_per_sec",
    "peak_queue_depth",
    "ns_workload_gen",
    "ns_admission",
    "ns_dispatch",
    "ns_ps_recompute",
    "ns_fault",
    "ns_collect",
    "worker",
    "replicas",
    "sigma_wait",
    "sigma_sla",
    "sigma_reliability",
    "sigma_profitability",
];

/// The schema-v2 cost-vector columns, in [`crate::grid::PHASE_LEAVES`]
/// order — the phase-attribution surface `utility_risk perf` reads.
pub const PHASE_COLUMNS: [&str; 6] = [
    "ns_workload_gen",
    "ns_admission",
    "ns_dispatch",
    "ns_ps_recompute",
    "ns_fault",
    "ns_collect",
];

/// Default projection for row-mode queries.
const DEFAULT_SELECT: [&str; 9] = [
    "source",
    "econ",
    "set",
    "scenario",
    "value",
    "policy",
    "sla",
    "norm_score",
    "risk_score",
];

fn source_name(code: u8) -> &'static str {
    match code {
        SOURCE_GRID => "grid",
        _ => "chaos",
    }
}

fn econ_name(code: u8) -> &'static str {
    match code {
        0 => "commodity",
        _ => "bid",
    }
}

fn econ_code(econ: EconomicModel) -> u8 {
    match econ {
        EconomicModel::CommodityMarket => 0,
        EconomicModel::BidBased => 1,
    }
}

fn set_name(code: u8) -> &'static str {
    match code {
        0 => "A",
        1 => "B",
        _ => "-",
    }
}

fn set_code(set: EstimateSet) -> u8 {
    match set {
        EstimateSet::A => 0,
        EstimateSet::B => 1,
    }
}

/// One cell's worth of data, in row form, fed to [`ResultStore::push_row`].
/// Public so integration tests (and external tooling) can synthesise
/// stores without running a grid.
pub struct Row<'a> {
    /// Provenance: [`SOURCE_GRID`] or [`SOURCE_CHAOS`].
    pub source: u8,
    /// Economic model code (0 = commodity, 1 = bid).
    pub econ: u8,
    /// Estimate set code (0 = A, 1 = B, 2 = n/a).
    pub set: u8,
    /// Scenario label (interned on push).
    pub scenario: &'a str,
    /// Scenario value index.
    pub value_idx: u8,
    /// Scenario sweep value.
    pub value: f64,
    /// Policy display name (interned on push).
    pub policy: &'a str,
    /// Master seed of the producing run.
    pub seed: u64,
    /// Raw `[wait, sla, reliability, profitability]`.
    pub objectives: [f64; 4],
    /// Normalized score (Eq. 5 input).
    pub norm_score: f64,
    /// Realtime risk score.
    pub risk_score: f64,
    /// Wall-clock seconds simulating the cell.
    pub secs: f64,
    /// Outcome events the cell produced.
    pub events: u64,
    /// Provenance digest.
    pub digest: String,
    /// Phase cost vector (zeros when unprofiled).
    pub cost: CellCost,
    /// 1-based worker attribution (0 = unattributed).
    pub worker: u64,
    /// Seed replicas the objectives were averaged over (0 = n/a).
    pub replicas: u64,
    /// Per-objective replica spread `[σ_wait, σ_sla, σ_rel, σ_prof]`.
    pub sigma: [f64; 4],
}

impl ResultStore {
    /// An empty store at the current schema version.
    pub fn new() -> Self {
        ResultStore {
            schema_version: STORE_SCHEMA_VERSION,
            scenarios: Vec::new(),
            policies: Vec::new(),
            columns: Columns::default(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.columns.source.len()
    }

    /// True when the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn intern(table: &mut Vec<String>, s: &str) -> u32 {
        match table.iter().position(|x| x == s) {
            Some(i) => i as u32,
            None => {
                table.push(s.to_string());
                (table.len() - 1) as u32
            }
        }
    }

    /// Appends one row, interning its scenario and policy labels.
    pub fn push_row(&mut self, row: Row<'_>) {
        let scenario = Self::intern(&mut self.scenarios, row.scenario);
        let policy = Self::intern(&mut self.policies, row.policy);
        let c = &mut self.columns;
        c.source.push(row.source);
        c.econ.push(row.econ);
        c.set.push(row.set);
        c.scenario.push(scenario);
        c.value_idx.push(row.value_idx);
        c.value.push(row.value);
        c.policy.push(policy);
        c.seed.push(row.seed);
        c.wait.push(row.objectives[0]);
        c.sla.push(row.objectives[1]);
        c.reliability.push(row.objectives[2]);
        c.profitability.push(row.objectives[3]);
        c.norm_score.push(row.norm_score);
        c.risk_score.push(row.risk_score);
        c.secs.push(row.secs);
        c.events.push(row.events);
        c.digest.push(row.digest);
        c.events_per_sec.push(if row.secs > 0.0 {
            row.events as f64 / row.secs
        } else {
            0.0
        });
        c.peak_queue_depth.push(row.cost.peak_queue_depth);
        c.ns_workload_gen.push(row.cost.phase_ns[0]);
        c.ns_admission.push(row.cost.phase_ns[1]);
        c.ns_dispatch.push(row.cost.phase_ns[2]);
        c.ns_ps_recompute.push(row.cost.phase_ns[3]);
        c.ns_fault.push(row.cost.phase_ns[4]);
        c.ns_collect.push(row.cost.phase_ns[5]);
        c.worker.push(row.worker);
        c.replicas.push(row.replicas);
        c.sigma_wait.push(row.sigma[0]);
        c.sigma_sla.push(row.sigma[1]);
        c.sigma_reliability.push(row.sigma[2]);
        c.sigma_profitability.push(row.sigma[3]);
    }

    /// Builds the store of a completed evaluation: one row per grid cell
    /// across all four grids, with normalized scores computed under the
    /// default wait-normalization scheme (the one the batch analysis
    /// uses). `cfg` must be the configuration the evaluation ran with —
    /// it anchors each row's [`cell_key`] provenance digest.
    pub fn from_evaluation(ev: &Evaluation, cfg: &ExperimentConfig) -> Self {
        let mut store = ResultStore::new();
        store.append_evaluation(ev, cfg);
        store
    }

    /// Appends every cell of `ev`'s four raw grids as grid-source rows.
    pub fn append_evaluation(&mut self, ev: &Evaluation, cfg: &ExperimentConfig) {
        let scheme = WaitNormalization::default();
        for grid in &ev.raw_grids {
            for (s, per_value) in grid.raw.iter().enumerate() {
                let scenario = Scenario::ALL[s];
                let label = scenario.label();
                for (v, row) in per_value.iter().enumerate() {
                    // Normalize across the policies at this point exactly
                    // as the batch analysis does.
                    let norm = normalize_point(row, scheme);
                    for (p, &objectives) in row.iter().enumerate() {
                        let norm_score = norm[p].iter().sum::<f64>() / 4.0;
                        let violation_p = (1.0 - objectives[2] / 100.0).clamp(0.0, 1.0);
                        self.push_row(Row {
                            source: SOURCE_GRID,
                            econ: econ_code(grid.econ),
                            set: set_code(grid.set),
                            scenario: &label,
                            value_idx: v as u8,
                            value: scenario.values()[v],
                            policy: grid.policies[p].name(),
                            seed: cfg.seed,
                            objectives,
                            norm_score,
                            risk_score: (1.0 - norm_score).clamp(0.0, 1.0) * violation_p,
                            secs: grid.cell_secs[s][v][p],
                            events: grid.cell_events[s][v][p],
                            digest: cell_key(grid.econ, grid.set, cfg, s, v, grid.policies[p]),
                            cost: grid.cell_costs[s][v][p],
                            worker: grid.cell_workers[s][v][p],
                            replicas: cfg.replicas.max(1) as u64,
                            sigma: grid.cell_sigma[s][v][p],
                        });
                    }
                }
            }
        }
    }

    /// Appends each chaos-soak finding as a chaos-source row, making risk
    /// regressions under stressors queryable alongside normal cells. The
    /// scenario label lists the failing case's stressor codes; the digest
    /// is the failure signature; the risk score is pinned to 1.
    pub fn append_chaos(&mut self, report: &SoakReport) {
        for finding in &report.findings {
            let codes: Vec<&str> = finding.case.stressors.iter().map(|s| s.code()).collect();
            let label = format!("chaos:{}", codes.join("+"));
            self.push_row(Row {
                source: SOURCE_CHAOS,
                econ: econ_code(finding.case.econ),
                set: SET_NONE,
                scenario: &label,
                value_idx: 0,
                value: finding.round as f64,
                policy: finding.case.policy.name(),
                seed: finding.case.seed,
                objectives: [0.0; 4],
                norm_score: 0.0,
                risk_score: 1.0,
                secs: 0.0,
                events: 0,
                digest: finding.signature.clone(),
                cost: CellCost::default(),
                worker: 0,
                replicas: 0,
                sigma: [0.0; 4],
            });
        }
    }

    /// Atomically writes the store as [`STORE_FILE`] under `dir`.
    pub fn save(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        let path = dir.join(STORE_FILE);
        let json = serde_json::to_string(self).expect("store serialises");
        write_atomic(&path, json.as_bytes())?;
        Ok(path)
    }

    /// Loads a store, refusing other schema versions and ragged columns.
    /// The store is regenerated by any grid run, so a file from an older
    /// (or newer) build is not upgraded: it fails with its schema version
    /// and a pointer at re-running the grid, the same rule the journal
    /// follows.
    pub fn load(path: &Path) -> Result<ResultStore, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let store: ResultStore = match serde_json::from_str(&text) {
            Ok(store) => store,
            // Another schema's columns fail the full parse; name its
            // version when the header is readable.
            Err(e) => {
                return Err(match serde_json::from_str::<SchemaHeader>(&text) {
                    Ok(h) if h.schema_version != STORE_SCHEMA_VERSION => {
                        schema_mismatch(path, h.schema_version)
                    }
                    _ => format!("cannot parse {}: {e}", path.display()),
                });
            }
        };
        if store.schema_version != STORE_SCHEMA_VERSION {
            return Err(schema_mismatch(path, store.schema_version));
        }
        let n = store.len();
        let c = &store.columns;
        let lens = [
            c.source.len(),
            c.econ.len(),
            c.set.len(),
            c.scenario.len(),
            c.value_idx.len(),
            c.value.len(),
            c.policy.len(),
            c.seed.len(),
            c.wait.len(),
            c.sla.len(),
            c.reliability.len(),
            c.profitability.len(),
            c.norm_score.len(),
            c.risk_score.len(),
            c.secs.len(),
            c.events.len(),
            c.digest.len(),
            c.events_per_sec.len(),
            c.peak_queue_depth.len(),
            c.ns_workload_gen.len(),
            c.ns_admission.len(),
            c.ns_dispatch.len(),
            c.ns_ps_recompute.len(),
            c.ns_fault.len(),
            c.ns_collect.len(),
            c.worker.len(),
            c.replicas.len(),
            c.sigma_wait.len(),
            c.sigma_sla.len(),
            c.sigma_reliability.len(),
            c.sigma_profitability.len(),
        ];
        if lens.iter().any(|&l| l != n) {
            return Err(format!("{}: ragged columns {lens:?}", path.display()));
        }
        Ok(store)
    }

    /// The value of column `col` at row `i`, as a sortable cell.
    fn cell(&self, col: &str, i: usize) -> Cell {
        let c = &self.columns;
        match col {
            "source" => Cell::Text(source_name(c.source[i]).to_string()),
            "econ" => Cell::Text(econ_name(c.econ[i]).to_string()),
            "set" => Cell::Text(set_name(c.set[i]).to_string()),
            "scenario" => Cell::Text(self.scenarios[c.scenario[i] as usize].clone()),
            "value_idx" => Cell::Int(c.value_idx[i] as u64),
            "value" => Cell::Num(c.value[i]),
            "policy" => Cell::Text(self.policies[c.policy[i] as usize].clone()),
            "seed" => Cell::Int(c.seed[i]),
            "wait" => Cell::Num(c.wait[i]),
            "sla" => Cell::Num(c.sla[i]),
            "reliability" => Cell::Num(c.reliability[i]),
            "profitability" => Cell::Num(c.profitability[i]),
            "norm_score" => Cell::Num(c.norm_score[i]),
            "risk_score" => Cell::Num(c.risk_score[i]),
            "secs" => Cell::Num(c.secs[i]),
            "events" => Cell::Int(c.events[i]),
            "digest" => Cell::Text(c.digest[i].clone()),
            "events_per_sec" => Cell::Num(c.events_per_sec[i]),
            "peak_queue_depth" => Cell::Int(c.peak_queue_depth[i]),
            "ns_workload_gen" => Cell::Int(c.ns_workload_gen[i]),
            "ns_admission" => Cell::Int(c.ns_admission[i]),
            "ns_dispatch" => Cell::Int(c.ns_dispatch[i]),
            "ns_ps_recompute" => Cell::Int(c.ns_ps_recompute[i]),
            "ns_fault" => Cell::Int(c.ns_fault[i]),
            "ns_collect" => Cell::Int(c.ns_collect[i]),
            "worker" => Cell::Int(c.worker[i]),
            "replicas" => Cell::Int(c.replicas[i]),
            "sigma_wait" => Cell::Num(c.sigma_wait[i]),
            "sigma_sla" => Cell::Num(c.sigma_sla[i]),
            "sigma_reliability" => Cell::Num(c.sigma_reliability[i]),
            "sigma_profitability" => Cell::Num(c.sigma_profitability[i]),
            other => unreachable!("column {other} validated before access"),
        }
    }

    /// Evaluates `q` against the store. Row mode projects/sorts/limits;
    /// summary mode groups by (source, econ, set, scenario, policy) and
    /// reports n/mean/σ/min/max of the summarized column over each group.
    pub fn query(&self, q: &Query) -> Result<QueryResult, String> {
        let keep: Vec<usize> = (0..self.len()).filter(|&i| q.matches(self, i)).collect();
        if q.summarize {
            return self.summarize(q, &keep);
        }
        let select: Vec<String> = if q.select.is_empty() {
            DEFAULT_SELECT.iter().map(|s| s.to_string()).collect()
        } else {
            q.select.clone()
        };
        for col in &select {
            validate_column(col)?;
        }
        let mut order = keep;
        if let Some(sort_col) = &q.sort_by {
            validate_column(sort_col)?;
            order.sort_by(|&a, &b| self.cell(sort_col, a).cmp(&self.cell(sort_col, b)));
            if q.descending {
                order.reverse();
            }
        }
        if let Some(limit) = q.limit {
            order.truncate(limit);
        }
        let rows = order
            .iter()
            .map(|&i| {
                select
                    .iter()
                    .map(|col| self.cell(col, i).render())
                    .collect()
            })
            .collect();
        Ok(QueryResult {
            header: select,
            rows,
        })
    }

    fn summarize(&self, q: &Query, keep: &[usize]) -> Result<QueryResult, String> {
        let target = q
            .select
            .first()
            .cloned()
            .unwrap_or_else(|| "norm_score".to_string());
        validate_column(&target)?;
        if matches!(self.cell(&target, 0), Cell::Text(_)) && !self.is_empty() {
            return Err(format!("--summarize: column {target} is not numeric"));
        }
        // Group key → accumulator, ordered by first appearance then sorted.
        let mut groups: Vec<(Vec<String>, Welford)> = Vec::new();
        for &i in keep {
            let key: Vec<String> = GROUP_COLS
                .iter()
                .map(|col| self.cell(col, i).render())
                .collect();
            let x = match self.cell(&target, i) {
                Cell::Num(v) => v,
                Cell::Int(v) => v as f64,
                Cell::Text(_) => unreachable!("checked above"),
            };
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, w)) => w.push(x),
                None => {
                    let mut w = Welford::new();
                    w.push(x);
                    groups.push((key, w));
                }
            }
        }
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        let mut header: Vec<String> = GROUP_COLS.iter().map(|s| s.to_string()).collect();
        for suffix in ["n", "mean", "std", "min", "max"] {
            header.push(format!("{target}_{suffix}"));
        }
        let rows = groups
            .into_iter()
            .map(|(mut key, w)| {
                key.push(w.count().to_string());
                key.push(render_f64(w.mean()));
                key.push(render_f64(w.population_std()));
                key.push(render_f64(w.min().unwrap_or(0.0)));
                key.push(render_f64(w.max().unwrap_or(0.0)));
                key
            })
            .collect();
        Ok(QueryResult { header, rows })
    }
}

impl Default for ResultStore {
    fn default() -> Self {
        ResultStore::new()
    }
}

/// The summary-mode grouping columns.
const GROUP_COLS: [&str; 5] = ["source", "econ", "set", "scenario", "policy"];

fn validate_column(col: &str) -> Result<(), String> {
    if COLUMN_NAMES.contains(&col) {
        Ok(())
    } else {
        Err(format!(
            "unknown column {col:?} (available: {})",
            COLUMN_NAMES.join(", ")
        ))
    }
}

/// One rendered/sortable cell value.
#[derive(Clone, Debug)]
enum Cell {
    Num(f64),
    Int(u64),
    Text(String),
}

impl Cell {
    fn render(&self) -> String {
        match self {
            Cell::Num(v) => render_f64(*v),
            Cell::Int(v) => v.to_string(),
            Cell::Text(s) => s.clone(),
        }
    }

    fn cmp(&self, other: &Cell) -> std::cmp::Ordering {
        match (self, other) {
            (Cell::Num(a), Cell::Num(b)) => a.total_cmp(b),
            (Cell::Int(a), Cell::Int(b)) => a.cmp(b),
            (Cell::Text(a), Cell::Text(b)) => a.cmp(b),
            // Heterogeneous cells cannot arise: a column has one type.
            _ => std::cmp::Ordering::Equal,
        }
    }
}

/// Stable float rendering for query output: six decimal places, enough to
/// round-trip objective percentages and scores for golden comparisons.
fn render_f64(v: f64) -> String {
    format!("{v:.6}")
}

/// A parsed `utility_risk query` invocation.
#[derive(Clone, Debug, Default)]
pub struct Query {
    /// Keep only rows with this provenance ([`SOURCE_GRID`]/[`SOURCE_CHAOS`]).
    pub source: Option<u8>,
    /// Keep only rows under this economic model.
    pub econ: Option<EconomicModel>,
    /// Keep only rows of this estimate set.
    pub set: Option<EstimateSet>,
    /// Keep only rows whose scenario label contains this substring
    /// (case-insensitive).
    pub scenario_contains: Option<String>,
    /// Keep only rows of this policy (exact display name).
    pub policy: Option<String>,
    /// Columns to project (row mode) or the single column to aggregate
    /// (summary mode). Empty = defaults.
    pub select: Vec<String>,
    /// Sort row output by this column.
    pub sort_by: Option<String>,
    /// Reverse the sort.
    pub descending: bool,
    /// Keep at most this many rows (after sorting).
    pub limit: Option<usize>,
    /// Group and aggregate instead of listing rows.
    pub summarize: bool,
}

impl Query {
    fn matches(&self, store: &ResultStore, i: usize) -> bool {
        let c = &store.columns;
        if let Some(src) = self.source {
            if c.source[i] != src {
                return false;
            }
        }
        if let Some(econ) = self.econ {
            if c.econ[i] != econ_code(econ) {
                return false;
            }
        }
        if let Some(set) = self.set {
            if c.set[i] != set_code(set) {
                return false;
            }
        }
        if let Some(sub) = &self.scenario_contains {
            let label = &store.scenarios[c.scenario[i] as usize];
            if !label.to_lowercase().contains(&sub.to_lowercase()) {
                return false;
            }
        }
        if let Some(policy) = &self.policy {
            if store.policies[c.policy[i] as usize] != *policy {
                return false;
            }
        }
        true
    }
}

/// A rendered query: a header row plus data rows, all strings.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResult {
    /// Column names, in output order.
    pub header: Vec<String>,
    /// Data rows, each as wide as the header.
    pub rows: Vec<Vec<String>>,
}

impl QueryResult {
    /// Tab-separated rendering with a header line — trivially parseable
    /// (the CI golden checks cut on tabs) yet readable in a terminal.
    pub fn render(&self) -> String {
        let mut s = self.header.join("\t");
        s.push('\n');
        for row in &self.rows {
            s.push_str(&row.join("\t"));
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ExperimentConfig;
    use crate::{run_evaluation, GridControl};

    fn tiny_store() -> (ResultStore, ExperimentConfig) {
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(30)
        };
        let ev = run_evaluation(&cfg, &GridControl::default()).unwrap();
        (ResultStore::from_evaluation(&ev, &cfg), cfg)
    }

    #[test]
    fn store_has_one_row_per_cell_and_round_trips() {
        let (store, _) = tiny_store();
        // 13 scenarios × 6 values × 5 policies × 4 grids.
        assert_eq!(store.len(), 13 * 6 * 5 * 4);
        assert_eq!(store.scenarios.len(), Scenario::ALL.len());
        let dir = std::env::temp_dir().join("ccs_store_roundtrip_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = store.save(&dir).unwrap();
        let loaded = ResultStore::load(&path).unwrap();
        assert_eq!(loaded.len(), store.len());
        assert_eq!(loaded.columns.norm_score, store.columns.norm_score);
        assert_eq!(loaded.columns.digest, store.columns.digest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_version_gate() {
        let dir = std::env::temp_dir().join("ccs_store_schema_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ResultStore::new();
        store.schema_version = 99;
        let path = store.save(&dir).unwrap();
        let err = ResultStore::load(&path).unwrap_err();
        assert!(err.contains("schema version 99"), "{err}");
        // Older schemas lack current columns, so they fail the full parse;
        // the header still names the version and points at a re-run.
        for v in 1..=3 {
            let old = format!(
                r#"{{"schema_version":{v},"scenarios":[],"policies":[],"columns":{{"source":[]}}}}"#
            );
            std::fs::write(&path, old).unwrap();
            let err = ResultStore::load(&path).unwrap_err();
            assert!(err.contains(&format!("schema version {v} ")), "{err}");
            assert!(err.contains("re-run the grid"), "{err}");
        }
        // A current-version file that does not parse keeps the parse error.
        std::fs::write(&path, r#"{"schema_version":4,"columns":{}}"#).unwrap();
        let err = ResultStore::load(&path).unwrap_err();
        assert!(err.starts_with("cannot parse"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grid_rows_carry_worker_attribution() {
        let (store, _) = tiny_store();
        // Every grid cell simulated in-process is attributed to a worker
        // thread; 0 would mean the attribution was lost.
        assert!(store.columns.worker.iter().all(|&w| w >= 1));
        assert!(store.columns.worker.iter().all(|&w| w <= 2));
    }

    #[test]
    fn cost_columns_round_trip_and_stay_consistent() {
        let (store, _) = tiny_store();
        let c = &store.columns;
        for i in 0..store.len() {
            let expect = if c.secs[i] > 0.0 {
                c.events[i] as f64 / c.secs[i]
            } else {
                0.0
            };
            assert_eq!(c.events_per_sec[i], expect, "row {i}");
            // cell_cost reassembles exactly what push_row scattered.
            let cost = c.cell_cost(i);
            assert_eq!(cost.phase_ns[3], c.ns_ps_recompute[i]);
            assert_eq!(cost.peak_queue_depth, c.peak_queue_depth[i]);
        }
        // Simulated cells exist, so some event rates are positive.
        assert!(c.events_per_sec.iter().any(|&r| r > 0.0));
    }

    #[test]
    fn filters_project_sort_and_limit() {
        let (store, _) = tiny_store();
        let q = Query {
            econ: Some(EconomicModel::CommodityMarket),
            set: Some(EstimateSet::A),
            policy: Some("FCFS-BF".to_string()),
            select: vec!["scenario".into(), "value".into(), "risk_score".into()],
            sort_by: Some("risk_score".into()),
            descending: true,
            limit: Some(10),
            ..Default::default()
        };
        let res = store.query(&q).unwrap();
        assert_eq!(res.header, vec!["scenario", "value", "risk_score"]);
        assert_eq!(res.rows.len(), 10);
        let scores: Vec<f64> = res.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert!(scores.windows(2).all(|w| w[0] >= w[1]), "not sorted desc");
    }

    #[test]
    fn summarize_reproduces_separate_risk_analysis() {
        // Group mean/σ of norm-scored objectives per scenario/policy must
        // equal Eqs. 5–6 computed by the batch pipeline over the same
        // normalized values — here cross-checked for the SLA objective.
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(30)
        };
        let ev = run_evaluation(&cfg, &GridControl::default()).unwrap();
        let store = ResultStore::from_evaluation(&ev, &cfg);
        let q = Query {
            econ: Some(EconomicModel::CommodityMarket),
            set: Some(EstimateSet::A),
            select: vec!["sla".into()],
            summarize: true,
            ..Default::default()
        };
        let res = store.query(&q).unwrap();
        // One group per scenario × policy.
        assert_eq!(res.rows.len(), Scenario::ALL.len() * 5);
        for row in &res.rows {
            let n: u64 = row[5].parse().unwrap();
            assert_eq!(n, 6, "six sweep values per scenario");
        }
    }

    #[test]
    fn unknown_column_is_a_typed_error() {
        let (store, _) = tiny_store();
        let q = Query {
            select: vec!["bogus".into()],
            ..Default::default()
        };
        let err = store.query(&q).unwrap_err();
        assert!(err.contains("unknown column \"bogus\""), "{err}");
    }

    #[test]
    fn chaos_findings_land_as_rows() {
        use ccs_chaos::{ChaosCase, SoakFinding};
        let mut store = ResultStore::new();
        let case = ChaosCase::generate(7);
        let report = SoakReport {
            rounds: 1,
            clean: 0,
            events: 0,
            findings: vec![SoakFinding {
                round: 0,
                signature: "violation:test".to_string(),
                detail: "detail".to_string(),
                case: case.clone(),
                minimized: case,
            }],
        };
        store.append_chaos(&report);
        assert_eq!(store.len(), 1);
        assert_eq!(store.columns.source[0], SOURCE_CHAOS);
        assert_eq!(store.columns.risk_score[0], 1.0);
        assert!(store.scenarios[0].starts_with("chaos:"));
        let q = Query {
            source: Some(SOURCE_CHAOS),
            ..Default::default()
        };
        assert_eq!(store.query(&q).unwrap().rows.len(), 1);
    }
}
