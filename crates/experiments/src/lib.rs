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
//! - [`figures`] — assemble/print/write Figures 1–8.
//! - [`tables`] — render Tables I–VI.
//!
//! One binary, `utility_risk`, drives all of it from the command line
//! (`cargo run -p ccs-experiments --release --bin utility_risk -- all`);
//! its subcommands are listed in its module doc.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod analysis;
pub mod atomic;
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
pub use export::EvaluationExport;
pub use grid::{
    policies_for, run_cell_ensemble, run_grid, run_grid_ctl, run_grid_with_base,
    run_grid_with_base_ctl, run_grid_with_base_ctl_observed, CellTiming, ExperimentConfig,
    GridControl, RawGrid, FAIL_CELL_ENV, STALL_CELL_ENV,
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

/// Runs all four grids (2 economic models × 2 estimate sets) and their
/// separate risk analyses. With the default config this is the full study:
/// 13 scenarios × 6 values × 5 policies × 4 grids = 1560 simulation runs
/// of 5000 jobs each — run in release mode.
pub fn run_evaluation(cfg: &ExperimentConfig) -> Evaluation {
    run_evaluation_ctl(cfg, &GridControl::default())
}

/// Like [`run_evaluation`], but with [`GridControl`]: all four grids share
/// one resume journal, so a killed run resumes across the whole study.
/// (The cell budget, if set, applies per grid.) Under a supervisor the
/// four grids also share one worker fleet: workers are spawned and remotes
/// dialed once, and shut down once after the last grid. The four grids
/// also share one memo of simulated cells, so each distinct cell is
/// simulated once per run: set B reuses set A's Inaccuracy points.
pub fn run_evaluation_ctl(cfg: &ExperimentConfig, ctl: &GridControl) -> Evaluation {
    let base = cfg.trace.generate(cfg.seed);
    let mut fleet = ctl
        .supervisor
        .as_ref()
        .map(|sup| supervisor::Fleet::open(sup, ctl, cfg));
    let order = [
        (EconomicModel::CommodityMarket, EstimateSet::A),
        (EconomicModel::CommodityMarket, EstimateSet::B),
        (EconomicModel::BidBased, EstimateSet::A),
        (EconomicModel::BidBased, EstimateSet::B),
    ];
    let memo = grid::CellMemo::for_run(&order, cfg);
    let grids: Vec<RawGrid> = order
        .into_iter()
        .map(|(econ, set)| {
            let board = grid::default_board(econ);
            grid::run_grid_in_run(econ, set, cfg, &base, ctl, &board, fleet.as_mut(), &memo)
        })
        .collect();
    drop(fleet);
    Evaluation {
        commodity_a: analyze(&grids[0]),
        commodity_b: analyze(&grids[1]),
        bid_a: analyze(&grids[2]),
        bid_b: analyze(&grids[3]),
        raw_grids: grids,
    }
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

/// Builds one paper figure by id (`"fig1"`, `"fig3"` ... `"fig8"`), running
/// only the grids that figure needs. Panics on any other id; `"fig2"` is
/// not a risk plot — use [`figures::write_figure2`] instead.
pub fn build_figure(id: &str, cfg: &ExperimentConfig) -> figures::Figure {
    let pair = |econ| {
        (
            analyze(&run_grid(econ, EstimateSet::A, cfg)),
            analyze(&run_grid(econ, EstimateSet::B, cfg)),
        )
    };
    match id {
        "fig1" => figures::figure1(),
        "fig3" => {
            let (a, b) = pair(EconomicModel::CommodityMarket);
            figures::separate_figure("fig3", &a, &b)
        }
        "fig4" => {
            let (a, b) = pair(EconomicModel::CommodityMarket);
            figures::integrated3_figure("fig4", &a, &b)
        }
        "fig5" => {
            let (a, b) = pair(EconomicModel::CommodityMarket);
            figures::integrated4_figure("fig5", &a, &b)
        }
        "fig6" => {
            let (a, b) = pair(EconomicModel::BidBased);
            figures::separate_figure("fig6", &a, &b)
        }
        "fig7" => {
            let (a, b) = pair(EconomicModel::BidBased);
            figures::integrated3_figure("fig7", &a, &b)
        }
        "fig8" => {
            let (a, b) = pair(EconomicModel::BidBased);
            figures::integrated4_figure("fig8", &a, &b)
        }
        other => panic!("unknown figure id {other}"),
    }
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

/// Parses the flags shared by every `utility_risk` subcommand:
/// `--jobs N`, `--seed S`, `--out DIR`, `--threads T`, `--replicas R`
/// (seed replicas per grid cell), `--telemetry FILE`, `--quick`, `--quiet`
/// (suppress all stderr progress output — see [`progress`]). Every flag
/// value is checked up front (parseable, finite, in range) and the first
/// problem is returned as a typed [`ConfigError`] naming the offending
/// flag.
pub fn parse_cli_checked(
    args: &[String],
) -> Result<
    (
        ExperimentConfig,
        std::path::PathBuf,
        Option<std::path::PathBuf>,
    ),
    ConfigError,
> {
    let mut cfg = ExperimentConfig::default();
    let mut out = std::path::PathBuf::from("target/figures");
    let mut telemetry = None;
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, ConfigError> {
        args.get(i)
            .cloned()
            .ok_or_else(|| ConfigError::new(flag, "requires a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => cfg = ExperimentConfig::quick(),
            "--quiet" => progress::set_quiet(true),
            "--jobs" => {
                i += 1;
                let v = value(args, i, "--jobs")?;
                cfg.trace.jobs = v.parse().map_err(|_| {
                    ConfigError::new("--jobs", format!("expected a count, got {v:?}"))
                })?;
                if cfg.trace.jobs == 0 {
                    return Err(ConfigError::new("--jobs", "must be at least 1"));
                }
            }
            "--seed" => {
                i += 1;
                let v = value(args, i, "--seed")?;
                cfg.seed = v.parse().map_err(|_| {
                    ConfigError::new("--seed", format!("expected an unsigned integer, got {v:?}"))
                })?;
            }
            "--threads" => {
                i += 1;
                let v = value(args, i, "--threads")?;
                cfg.threads = v.parse().map_err(|_| {
                    ConfigError::new(
                        "--threads",
                        format!("expected a thread count (0 = auto), got {v:?}"),
                    )
                })?;
            }
            "--replicas" => {
                i += 1;
                let v = value(args, i, "--replicas")?;
                cfg.replicas = v.parse().map_err(|_| {
                    ConfigError::new("--replicas", format!("expected a replica count, got {v:?}"))
                })?;
                if cfg.replicas == 0 {
                    return Err(ConfigError::new("--replicas", "must be at least 1"));
                }
            }
            "--out" => {
                i += 1;
                out = std::path::PathBuf::from(value(args, i, "--out")?);
            }
            "--telemetry" => {
                i += 1;
                telemetry = Some(std::path::PathBuf::from(value(args, i, "--telemetry")?));
            }
            other => {
                return Err(ConfigError::new(
                    other,
                    "unknown argument (supported: --quick --quiet --jobs --seed --threads \
                     --replicas --out --telemetry)",
                ))
            }
        }
        i += 1;
    }
    validate_config(&cfg)?;
    Ok((cfg, out, telemetry))
}

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
        let ev = run_evaluation(&cfg);
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
    }
}
