//! # ccs-experiments — reproduction harness for every table and figure
//!
//! Drives the full evaluation of the paper (Sections 5–6): the 13-scenario
//! (the paper's 12 + a failure-rate extension) × 6-value experiment grid
//! over both economic models and both estimate sets, the
//! separate/integrated risk analyses, and the renderers that regenerate
//! every paper table (I–VI) and figure (1–8). Grid runs are crash-safe:
//! cells checkpoint to a JSONL [`journal`] and panicking cells are
//! confined and reported instead of aborting the sweep.
//!
//! Entry points:
//!
//! - [`run_evaluation`] — the whole study (use
//!   [`ExperimentConfig::quick`] for a small-trace smoke run).
//! - [`GridRun`] — any list of grids as one run, under a journal, budgets,
//!   drills or a worker fleet. Its settings are checked up front and
//!   refused as a [`ConfigError`]. (`grid::run_grid_with_base_ctl`, a
//!   one-grid shim over it, stays only while `perfbench/tracer` calls it.)
//! - [`figures`] — assemble/print/write Figures 1–8.
//! - [`tables`] — render Tables I–VI.
//!
//! One binary, `utility_risk`, drives all of it from the command line
//! (`cargo run -p ccs-experiments --release --bin utility_risk -- all`);
//! its subcommands are listed in its module doc, its flags in [`cli`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod analysis;
pub mod atomic;
pub mod cli;
pub mod export;
pub mod figures;
pub mod grid;
pub mod ipc;
pub mod journal;
pub mod live;
pub mod perf;
pub mod progress;
pub mod replications;
pub mod report_md;
pub mod scenario;
pub mod store;
pub mod supervisor;
pub mod tables;
pub mod telemetry_report;
pub mod trace_report;
pub mod trace_run;
pub mod worker;

pub use ablation::{run_all as run_all_ablations, Ablation};
pub use analysis::{analyze, analyze_with, GridAnalysis};
pub use atomic::write_atomic;
pub use cli::parse_cli_checked;
pub use export::EvaluationExport;
pub use grid::{
    policies_for, run_cell_ensemble, CellTiming, ExperimentConfig, GridControl, GridRun, RawGrid,
    FAIL_CELL_ENV, STALL_CELL_ENV,
};
pub use journal::{cell_key, CellError, CellErrorKind, CellRecord, Journal};
pub use live::{LiveRiskBoard, LiveRiskSnapshot, PolicyRisk};
pub use replications::{
    across_trace_models, replicate, wait_normalization_study, Robustness, TraceModelStudy,
};
pub use scenario::{baseline, EstimateSet, QosAttr, Scenario};
pub use store::{Query, QueryResult, ResultStore, STORE_FILE, STORE_SCHEMA_VERSION};
pub use supervisor::{backoff_delay_ms, SupervisorConfig, WorkerFailure};
pub use telemetry_report::TelemetryReport;
pub use trace_report::TraceAnalysis;
pub use trace_run::{capture_cell, write_bundle, ProvenanceManifest, TraceBundle, TraceCellSpec};

use ccs_economy::EconomicModel;

/// The four grids of the full study: each economic model in each set.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// Commodity market, Set A (accurate estimates).
    pub commodity_a: GridAnalysis,
    /// Commodity market, Set B (trace estimates).
    pub commodity_b: GridAnalysis,
    /// Bid-based, Set A.
    pub bid_a: GridAnalysis,
    /// Bid-based, Set B.
    pub bid_b: GridAnalysis,
    /// The raw grids behind the four analyses (same order as the fields
    /// above) — retained for timing reports and telemetry export.
    pub raw_grids: Vec<RawGrid>,
}

/// Runs all four grids (2 economic models × 2 estimate sets) under `ctl`
/// as one [`GridRun`], and their separate risk analyses. With the default
/// config this is the full study: 13 scenarios × 6 values × 5 policies × 4
/// grids = 1560 simulation runs of 5000 jobs each — run in release mode.
/// The four grids share one resume journal, so a killed run resumes across
/// the whole study (the cell budget, if set, applies per grid), and under
/// a supervisor one worker fleet. The run is planned whole: a cell whose
/// inputs equal an earlier cell's, in any of the four grids, takes that
/// cell's result — or its failure — instead of simulating again.
pub fn run_evaluation(
    cfg: &ExperimentConfig,
    ctl: &GridControl,
) -> Result<Evaluation, ConfigError> {
    let study = EconomicModel::ALL.map(|econ| EstimateSet::ALL.map(|set| (econ, set)));
    let grids = GridRun::new(cfg).control(ctl).run(&study.concat())?;
    Ok(Evaluation {
        commodity_a: analyze(&grids[0]),
        commodity_b: analyze(&grids[1]),
        bid_a: analyze(&grids[2]),
        bid_b: analyze(&grids[3]),
        raw_grids: grids,
    })
}

impl Evaluation {
    /// Every cell error across the four grids, in grid order.
    pub fn cell_errors(&self) -> Vec<&CellError> {
        self.raw_grids.iter().flat_map(|g| &g.errors).collect()
    }
}

impl Evaluation {
    /// Figures 3–8 assembled from this evaluation.
    pub fn paper_figures(&self) -> Vec<figures::Figure> {
        vec![
            figures::figure1(),
            figures::separate_figure("fig3", &self.commodity_a, &self.commodity_b),
            figures::integrated3_figure("fig4", &self.commodity_a, &self.commodity_b),
            figures::integrated4_figure("fig5", &self.commodity_a, &self.commodity_b),
            figures::separate_figure("fig6", &self.bid_a, &self.bid_b),
            figures::integrated3_figure("fig7", &self.bid_a, &self.bid_b),
            figures::integrated4_figure("fig8", &self.bid_a, &self.bid_b),
        ]
    }
}

/// Every figure id the CLI's `figure` subcommand accepts, in paper order.
pub const FIGURE_IDS: [&str; 8] = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
];

/// Builds one paper figure by id (`"fig1"`, `"fig3"` ... `"fig8"`) and
/// returns it with the grids it ran: the two that figure needs, as one
/// run of `run`, or none for `"fig1"`. Panics on any other id; `"fig2"` is
/// not a risk plot — use [`figures::write_figure2`] instead.
pub fn build_figure(
    id: &str,
    run: &GridRun,
) -> Result<(figures::Figure, Vec<RawGrid>), ConfigError> {
    use figures::{integrated3_figure, integrated4_figure, separate_figure};
    use EconomicModel::{BidBased, CommodityMarket};
    type Assemble = fn(&str, &GridAnalysis, &GridAnalysis) -> figures::Figure;
    let (econ, assemble): (_, Assemble) = match id {
        "fig1" => return Ok((figures::figure1(), Vec::new())),
        "fig3" => (CommodityMarket, separate_figure),
        "fig4" => (CommodityMarket, integrated3_figure),
        "fig5" => (CommodityMarket, integrated4_figure),
        "fig6" => (BidBased, separate_figure),
        "fig7" => (BidBased, integrated3_figure),
        "fig8" => (BidBased, integrated4_figure),
        other => panic!("unknown figure id {other}"),
    };
    let grids = run.run(&[(econ, EstimateSet::A), (econ, EstimateSet::B)])?;
    let figure = assemble(id, &analyze(&grids[0]), &analyze(&grids[1]));
    Ok((figure, grids))
}

/// A configuration error surfaced to CLI users: the offending flag or
/// field plus what was wrong with it. Binaries print it and exit with
/// status 2 instead of panicking.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfigError {
    /// The flag or field at fault (e.g. `"--jobs"`, `"mtbf"`).
    pub field: String,
    /// What was wrong.
    pub message: String,
}

impl ConfigError {
    /// Shorthand constructor.
    pub fn new(field: impl Into<String>, message: impl Into<String>) -> Self {
        ConfigError {
            field: field.into(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "configuration error in {}: {}", self.field, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Up-front validation of a full experiment configuration, including every
/// scenario's sweep values and the derived fault configurations — so a bad
/// value surfaces as a named [`ConfigError`] before any simulation starts,
/// not as a panic (or NaN) deep inside a worker thread.
pub fn validate_config(cfg: &ExperimentConfig) -> Result<(), ConfigError> {
    if cfg.nodes == 0 {
        return Err(ConfigError::new("nodes", "cluster size must be at least 1"));
    }
    if cfg.trace.jobs == 0 {
        return Err(ConfigError::new(
            "jobs",
            "trace must contain at least 1 job",
        ));
    }
    if !cfg.trace.mean_interarrival.is_finite() || cfg.trace.mean_interarrival <= 0.0 {
        return Err(ConfigError::new(
            "mean_interarrival",
            format!(
                "must be finite and positive, got {}",
                cfg.trace.mean_interarrival
            ),
        ));
    }
    for (idx, s) in Scenario::ALL.iter().enumerate() {
        let values = s.values();
        for v in values {
            if !v.is_finite() || v < 0.0 {
                return Err(ConfigError::new(
                    format!("scenario[{idx}] ({})", s.label()),
                    format!("sweep value {v} is not finite and non-negative"),
                ));
            }
        }
        let width = values[values.len() - 1] - values[0];
        if width <= 0.0 {
            return Err(ConfigError::new(
                format!("scenario[{idx}] ({})", s.label()),
                "sweep has zero width (first and last value coincide)",
            ));
        }
        for v in values {
            if let Some(fault) = s.fault(v, cfg.seed) {
                fault
                    .validate()
                    .map_err(|e| ConfigError::new(format!("scenario[{idx}] ({})", s.label()), e))?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_evaluation_end_to_end() {
        let cfg = ExperimentConfig::quick().with_jobs(40);
        let ev = run_evaluation(&cfg, &GridControl::default()).unwrap();
        let figs = ev.paper_figures();
        assert_eq!(figs.len(), 7);
        assert_eq!(figs[1].plots.len(), 8, "fig3 has 8 sub-plots");
        assert_eq!(figs[6].plots.len(), 2, "fig8 has 2 sub-plots");
    }

    #[test]
    fn cli_parsing_with_telemetry() {
        let (cfg, _out, tele) =
            parse_cli_checked(&["--quick".into(), "--telemetry".into(), "/tmp/t.json".into()])
                .unwrap();
        assert_eq!(cfg.trace.jobs, ExperimentConfig::quick().trace.jobs);
        assert_eq!(tele, Some(std::path::PathBuf::from("/tmp/t.json")));
        let (_, _, none) = parse_cli_checked(&["--quick".into()]).unwrap();
        assert_eq!(none, None);
    }

    #[test]
    fn cli_parsing() {
        let (cfg, out, _) = parse_cli_checked(&[
            "--jobs".into(),
            "100".into(),
            "--seed".into(),
            "7".into(),
            "--out".into(),
            "/tmp/x".into(),
        ])
        .unwrap();
        assert_eq!(cfg.trace.jobs, 100);
        assert_eq!(cfg.seed, 7);
        assert_eq!(out, std::path::PathBuf::from("/tmp/x"));
        // `--quick` only sets the default job count: an explicit `--jobs`
        // wins on either side of it, and earlier flags survive it.
        let args =
            |words: &[&str]| -> Vec<String> { words.iter().map(|w| w.to_string()).collect() };
        for words in [
            &["--seed", "7", "--jobs", "30", "--quick"][..],
            &["--quick", "--seed", "7", "--jobs", "30"][..],
        ] {
            let (cfg, _, _) = parse_cli_checked(&args(words)).unwrap();
            assert_eq!((cfg.trace.jobs, cfg.seed), (30, 7), "{words:?}");
        }
    }
}
