//! `utility-risk` — the umbrella CLI over every reproduction artifact.
//!
//! ```text
//! utility_risk tables                      Tables I–VI (or only --table N, 1–6)
//! utility_risk figure FIG                  one figure, fig1..fig8 (+ artifacts)
//! utility_risk all                         everything (figures + tables + report + store)
//! utility_risk ablations                   ablation studies + CaR comparison
//! utility_risk robustness                  seed-replication study
//! utility_risk summary                     per-policy objective means
//! utility_risk dominance                   pairwise stochastic dominance
//! utility_risk workload                    synthetic-workload statistics
//! utility_risk timing                      one timed run per policy at the default point
//! utility_risk trace                       one traced run + SLA report
//! utility_risk trace-report DIR|FILE       offline re-analysis of a trace bundle
//! utility_risk chaos                       seeded chaos soak (generate→run→check→shrink)
//! utility_risk query                       slice the columnar result store
//! utility_risk perf                        phase-attributed cost report from the store
//! utility_risk perf diff                   attribute a perf delta to phases and cells
//! utility_risk serve-worker                remote TCP worker agent for --remote
//! ```
//!
//! Every flag is one row of the table in [`ccs_experiments::cli`], which
//! also prints the usage (run with no arguments). A flag given to a
//! subcommand that does not take it exits 2 naming the flag, before any
//! file is created or any cell runs. The flags, by who takes them:
//!
//! - every subcommand but `trace-report` and `serve-worker`: `--quiet`,
//!   `--out DIR`, `--telemetry FILE`;
//! - the same but `tables`, `query`, `perf`, `perf diff` and `chaos`,
//!   which these flags do not shape: `--quick` (200 jobs unless `--jobs`
//!   says otherwise), `--jobs N`, `--seed S`, `--threads T`,
//!   `--replicas R`;
//! - `all`, `summary`, `dominance`: `--resume JOURNAL`, `--cell-budget N`,
//!   `--cell-wall-budget SECS`, `--cell-event-budget N`,
//!   `--compact-journal` (needs `--resume`), `--workers N`,
//!   `--remote HOST:PORT,…`, `--retries N` (a cell's attempt cap, and the
//!   consecutive failed opens that quarantine a local or remote link),
//!   `--backoff-ms MS`, `--heartbeat-ms MS`, `--connect-timeout-ms MS`
//!   (the last four need `--workers` or `--remote`);
//! - `tables`: `--table N`;
//! - `trace`: `--econ commodity|bid`, `--set A|B`, `--scenario IDX`,
//!   `--value IDX`, `--policy NAME`;
//! - `trace-report`: `--manifest FILE`, `--top N`;
//! - `chaos`: `--seed S` (the soak's root seed), `--rounds N`,
//!   `--budget SECS`, `--max-events N`;
//! - `query`: `--econ`, `--set`, `--policy` as for `trace`, `--store FILE`,
//!   `--source grid|chaos`, `--scenario SUBSTR`, `--select COL,COL,…`,
//!   `--sort-by COL`, `--desc`, `--limit N`, `--summarize`;
//! - `perf`: `--top N`, `--store FILE`, `--by scenario|policy`;
//! - `perf diff`: either `--baseline OLD_STORE` with `--store FILE`, or
//!   `--bench TRENDLINE` with `--from LABEL`, `--to LABEL`;
//! - `serve-worker`: `--listen HOST:PORT` (required).
//!
//! `profile` is the one cargo feature: grid runs built with `--features
//! profile` additionally write `profile.folded` (collapsed flamegraph
//! stacks) under `--out`. Nothing else needs a rebuild: `--telemetry`
//! switches the registry on, `trace` always captures DES kernel spans,
//! and builds with debug assertions run every grid cell under the online
//! invariant checker.

use ccs_chaos::{run_soak, SoakConfig};
use ccs_economy::EconomicModel;
use ccs_experiments::cli::{self, Cli, Command};
use ccs_experiments::figures::{print_figure, print_figure2, write_figure, write_figure2};
use ccs_experiments::{
    build_figure, policies_for, progress, replicate, run_all_ablations, run_evaluation, tables,
    telemetry_report, trace_report, write_atomic, CellError, ConfigError, EstimateSet,
    ExperimentConfig, GridRun, Journal, ProvenanceManifest, RawGrid, ResultStore, TelemetryReport,
    STORE_FILE,
};
use ccs_risk::Objective;
use ccs_simsvc::RunConfig;
use ccs_workload::{apply_scenario, WorkloadSummary};
use std::path::{Path, PathBuf};

// Every stdout write of this binary goes through these shadows of the std
// macros. Those panic once a reader that stops early (`| head`) has closed
// the pipe; these end the process quietly instead, with the status a shell
// reports for a process killed by SIGPIPE.
macro_rules! print {
    ($($arg:tt)*) => { write_stdout(format_args!($($arg)*)) };
}
macro_rules! println {
    () => { print!("\n") };
    ($($arg:tt)*) => { print!("{}\n", format_args!($($arg)*)) };
}

/// Writes to stdout, exiting with status 141 (128 + SIGPIPE) when the
/// reader is gone.
fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(141);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `utility_risk trace-report`: offline analysis of a trace bundle written
/// by `trace` (or any `trace.jsonl` in the same schema). Reconstructs every
/// job's SLA lifecycle, recomputes the paper's four objectives (Eqs. 1–4)
/// from the trace alone, reports rejection root causes and the
/// longest-waiting jobs, and — when a manifest is present — cross-checks
/// the recomputed objectives against the runner's metrics, exiting 1 on any
/// disagreement. Never returns.
fn run_trace_report(target: &Path, manifest: Option<PathBuf>, top: usize) -> ! {
    let dir = target.is_dir();
    let bundled = Some(target.join("manifest.json")).filter(|p| dir && p.exists());
    let manifest_path = manifest.or(bundled);
    let trace_path = if dir {
        target.join("trace.jsonl")
    } else {
        target.to_path_buf()
    };

    let text = std::fs::read_to_string(&trace_path).unwrap_or_else(|e| {
        eprintln!(
            "utility_risk trace-report: cannot read {}: {e}",
            trace_path.display()
        );
        std::process::exit(2);
    });
    let records = ccs_experiments::trace_run::parse_jsonl(&text).unwrap_or_else(|e| {
        eprintln!("utility_risk trace-report: {}: {e}", trace_path.display());
        std::process::exit(1);
    });
    let analysis = trace_report::analyze(&records).unwrap_or_else(|e| {
        eprintln!("utility_risk trace-report: invalid trace: {e}");
        std::process::exit(1);
    });

    let manifest: Option<ProvenanceManifest> = manifest_path.as_ref().map(|p| {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!(
                "utility_risk trace-report: cannot read {}: {e}",
                p.display()
            );
            std::process::exit(2);
        });
        serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("utility_risk trace-report: {}: {e:?}", p.display());
            std::process::exit(1);
        })
    });

    if let Some(m) = &manifest {
        println!(
            "== {} / {} / {} = {} / {} (seed {}, {} jobs, {} nodes) ==",
            m.econ, m.set, m.scenario, m.value, m.policy, m.seed, m.workload.jobs, m.nodes
        );
    }
    let metrics = manifest.as_ref().map(|m| &m.metrics);
    print!("{}", analysis.render(metrics, top));
    let disagrees = metrics.is_some_and(|m| !analysis.crosscheck(m).is_empty());
    std::process::exit(if disagrees { 1 } else { 0 });
}

/// `utility_risk timing`: times one run per policy and economic model at
/// the Set B default point of the configured trace, printing the headline
/// objective values — a quick check that the simulator is healthy and
/// fast.
fn run_timing(cfg: &ExperimentConfig) {
    let base = cfg.trace.generate(cfg.seed);
    let jobs = apply_scenario(&base, &ccs_experiments::baseline(EstimateSet::B), cfg.seed);
    for econ in EconomicModel::ALL {
        for kind in policies_for(econ) {
            let t0 = std::time::Instant::now();
            let run_cfg = RunConfig {
                nodes: cfg.nodes,
                econ,
            };
            let r = ccs_simsvc::simulate(&jobs, kind, &run_cfg);
            println!(
                "{:>18} {:<12} {:>7.1?}  sla={:5.1}% rel={:5.1}% prof={:5.1}% wait={:8.0}s acc={}",
                format!("{econ}"),
                kind.name(),
                t0.elapsed(),
                r.metrics.sla_pct(),
                r.metrics.reliability_pct(),
                r.metrics.profitability_pct(),
                r.metrics.wait(),
                r.metrics.accepted
            );
        }
    }
}

/// Loads a result store or exits 1 with a pointer at how to produce one.
fn load_store_or_die(path: &Path, context: &str) -> ResultStore {
    match ResultStore::load(path) {
        Ok(store) => store,
        Err(e) => {
            eprintln!(
                "utility_risk {context}: {e}\n(run `utility_risk summary` or `all` first to \
                 produce the store, or point the flag at one)"
            );
            std::process::exit(1);
        }
    }
}

/// Prints a `utility_risk perf diff` report and exits 0, or reports why
/// there is none and exits 1.
fn finish_perf_diff(report: Result<String, String>) -> ! {
    match report {
        Ok(text) => {
            print!("{text}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("utility_risk perf diff: {e}");
            std::process::exit(1);
        }
    }
}

/// Builds the columnar result store of a finished evaluation and writes it
/// atomically under `out`, next to the figure artifacts.
fn write_store(ev: &ccs_experiments::Evaluation, cfg: &ExperimentConfig, out: &Path) {
    let store = ResultStore::from_evaluation(ev, cfg);
    let path = store.save(out).expect("write results store");
    progress::note(&format!(
        "result store: {} row(s) in {}",
        store.len(),
        path.display()
    ));
}

/// Runs the chaos soak: seeded generate→run→check→shrink rounds, a
/// `chaos_report.json` artifact, and one replayable reproducer JSON per
/// finding. Exits 1 when any round found a violation, budget trip, or
/// panic.
fn run_chaos(cfg: &SoakConfig, out: &Path) -> ! {
    let budget = &cfg.budget;
    progress::note(&format!(
        "chaos soak: seed {} / {} rounds / budget {}s, {} events per replay",
        cfg.seed,
        cfg.rounds,
        budget.max_wall_secs.unwrap_or_default(),
        budget.max_events.unwrap_or_default()
    ));
    let report = run_soak(cfg, |round, case, outcome| {
        if let Some(sig) = outcome.signature() {
            eprintln!(
                "chaos: round {round} FAILED ({sig}) — case seed {}, shrinking…",
                case.seed
            );
        }
    });
    let json = serde_json::to_string_pretty(&report).expect("soak report serialises");
    write_atomic(&out.join("chaos_report.json"), json.as_bytes()).expect("write chaos_report.json");
    for finding in &report.findings {
        let path = out.join(format!("chaos_reproducer_round{}.json", finding.round));
        write_atomic(&path, finding.minimized.to_json().as_bytes()).expect("write reproducer");
        eprintln!(
            "chaos: round {} minimal reproducer ({}) written to {}",
            finding.round,
            finding.signature,
            path.display()
        );
    }
    // Soak findings land as chaos-source rows in the result store, so a
    // later `utility_risk query --source chaos` surfaces them alongside
    // (or without) the grid cells of a previous run in the same out dir.
    if !report.findings.is_empty() {
        let store_path = out.join(STORE_FILE);
        let mut store = if store_path.exists() {
            ResultStore::load(&store_path).unwrap_or_else(|e| {
                eprintln!("chaos: replacing unreadable store ({e})");
                ResultStore::new()
            })
        } else {
            ResultStore::new()
        };
        store.append_chaos(&report);
        store.save(out).expect("write results store");
        progress::note(&format!(
            "chaos: {} finding(s) appended to {}",
            report.findings.len(),
            store_path.display()
        ));
    }
    println!(
        "chaos soak: {}/{} rounds clean, {} events simulated, {} finding(s); report: {}",
        report.clean,
        report.rounds,
        report.events,
        report.findings.len(),
        out.join("chaos_report.json").display()
    );
    std::process::exit(if report.is_clean() { 0 } else { 1 });
}

/// Reports failed cells (panics, budget trips, invariant violations):
/// atomically writes `cell_errors.json` under `out` and prints each error.
/// Returns true when there was anything to report (the process should then
/// exit nonzero once the telemetry artifacts are flushed).
fn report_cell_errors(errors: &[CellError], out: &Path) -> bool {
    if errors.is_empty() {
        return false;
    }
    let path = out.join("cell_errors.json");
    let json = serde_json::to_string_pretty(&errors.to_vec()).expect("cell errors serialise");
    write_atomic(&path, json.as_bytes()).expect("write cell_errors.json");
    for e in errors {
        eprintln!("utility_risk: {e}");
    }
    eprintln!(
        "utility_risk: {} grid cell(s) failed — details in {} (rerun with --resume to retry \
         only the missing cells)",
        errors.len(),
        path.display()
    );
    true
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The hidden `worker` subcommand: how the supervisor re-execs this
    // binary as a grid worker (see `ccs_experiments::supervisor`). It
    // speaks length-prefixed JSON frames on stdin/stdout and never
    // returns, so it must run before any flag parsing. The supervisor
    // passes no argument after it.
    if args.first().map(String::as_str) == Some("worker") {
        if let Some(arg) = args.get(1) {
            let e = ConfigError::new(arg, "the `worker` subcommand takes no arguments");
            eprintln!("utility_risk: {e}");
            std::process::exit(2);
        }
        ccs_experiments::worker::worker_main();
    }
    if args.is_empty() {
        eprint!("{}", cli::usage());
        std::process::exit(2);
    }
    let Cli {
        command,
        cfg,
        out,
        telemetry,
        ctl,
        compact_journal,
    } = cli::parse(&args).unwrap_or_else(|e| {
        eprintln!("utility_risk: {e}");
        if e.field == "subcommand" {
            eprint!("{}", cli::usage());
        }
        std::process::exit(2);
    });
    if telemetry.is_some() {
        ccs_telemetry::enable();
    }
    // Grids retained by the subcommand (if any) for the end-of-run timing
    // summary and the optional --telemetry artifact.
    let mut raw_grids: Vec<RawGrid> = Vec::new();
    // Panicked grid cells, reported (with a nonzero exit) at the end.
    let mut cell_errors: Vec<CellError> = Vec::new();
    // A setting a run refuses exits 2 before any cell runs.
    let refused = |e: ConfigError| -> ! {
        eprintln!("utility_risk: {e}");
        std::process::exit(2)
    };
    // The four-grid study.
    let evaluation = || run_evaluation(&cfg, &ctl).unwrap_or_else(|e| refused(e));

    match command {
        // `serve-worker` — the remote TCP worker agent the supervisor's
        // `--remote` flag dials. Long-lived: one protocol session per
        // accepted connection, until a clean Shutdown frame.
        Command::ServeWorker(listen) => ccs_experiments::worker::serve_worker_main(&listen),
        Command::TraceReport {
            target,
            manifest,
            top,
        } => run_trace_report(&target, manifest, top),
        Command::Tables(None) => print!("{}", tables::all_tables()),
        Command::Tables(Some(n)) => {
            let render = [
                tables::table1,
                tables::table2,
                tables::table3,
                tables::table4,
                tables::table5,
                tables::table6,
            ][n - 1];
            print!("{}", render());
        }
        Command::Figure(id) => {
            let files = if id == "fig2" {
                print!("{}", print_figure2());
                write_figure2(&out).expect("write artifacts")
            } else {
                let run = GridRun::new(&cfg).control(&ctl);
                let (fig, grids) = build_figure(id, &run).unwrap_or_else(|e| refused(e));
                print!("{}", print_figure(&fig));
                cell_errors = grids.iter().flat_map(|g| g.errors.clone()).collect();
                raw_grids = grids;
                write_figure(&out, &fig).expect("write artifacts")
            };
            progress::note(&format!(
                "wrote {} files under {}",
                files.len(),
                out.display()
            ));
        }
        Command::All => {
            let ev = evaluation();
            println!("{}", tables::all_tables());
            cell_errors = ev.cell_errors().into_iter().cloned().collect();
            for fig in ev.paper_figures() {
                print!("{}", print_figure(&fig));
                write_figure(&out, &fig).expect("write artifacts");
            }
            // Figure 2 is not a risk plot; only its artifacts are written,
            // so stdout stays the risk figures alone.
            write_figure2(&out).expect("write artifacts");
            write_atomic(
                &out.join("report.md"),
                ccs_experiments::report_md::evaluation_report(&ev).as_bytes(),
            )
            .expect("write report.md");
            ccs_experiments::EvaluationExport::from_evaluation(&ev)
                .write(&out.join("evaluation.json"))
                .expect("write evaluation.json");
            write_store(&ev, &cfg, &out);
            progress::note(&format!("artifacts under {}", out.display()));
            raw_grids = ev.raw_grids;
        }
        Command::Ablations => {
            let base = cfg.trace.generate(cfg.seed);
            for ablation in run_all_ablations(&base, cfg.seed, cfg.nodes) {
                println!("{}", ablation.render());
            }
            println!(
                "{}",
                ccs_experiments::ablation::car_comparison(&base, cfg.seed, cfg.nodes)
            );
        }
        Command::Robustness => {
            for econ in EconomicModel::ALL {
                for set in EstimateSet::ALL {
                    let r = replicate(econ, set, &cfg, &[1, 2, 3, 4, 5]);
                    println!("{}", r.render());
                    println!("ordering by mean: {}\n", r.ordering().join(" > "));
                }
            }
            for econ in EconomicModel::ALL {
                let s = ccs_experiments::across_trace_models(econ, EstimateSet::B, &cfg);
                println!("{}", s.render());
            }
            // Sensitivity of the integrated ordering to the wait
            // normalization (EXPERIMENTS.md deviation #1).
            for econ in EconomicModel::ALL {
                println!("=== wait-normalization sensitivity: {econ} / Set B ===");
                for (scheme, scores) in
                    ccs_experiments::wait_normalization_study(econ, EstimateSet::B, &cfg)
                {
                    let row: Vec<String> =
                        scores.iter().map(|(p, v)| format!("{p}={v:.3}")).collect();
                    println!("{:<34} {}", scheme, row.join("  "));
                }
                println!();
            }
        }
        Command::Summary => {
            let ev = evaluation();
            cell_errors = ev.cell_errors().into_iter().cloned().collect();
            for g in [&ev.commodity_a, &ev.commodity_b, &ev.bid_a, &ev.bid_b] {
                println!("\n== {} / {} ==", g.econ, g.set);
                print!("{:<12}", "policy");
                for o in Objective::ALL {
                    print!(" {:>13}", o.abbrev());
                }
                println!();
                for name in g.policy_names.clone() {
                    print!("{:<12}", name);
                    for o in Objective::ALL {
                        print!(" {:>13.3}", g.mean_performance(&name, o));
                    }
                    println!();
                }
            }
            write_store(&ev, &cfg, &out);
            raw_grids = ev.raw_grids;
        }
        Command::Dominance => {
            let ev = evaluation();
            cell_errors = ev.cell_errors().into_iter().cloned().collect();
            for g in [&ev.commodity_a, &ev.commodity_b, &ev.bid_a, &ev.bid_b] {
                let plot = g.integrated_plot(&Objective::ALL);
                println!(
                    "\n== {} / {} (integrated, all four objectives) ==",
                    g.econ, g.set
                );
                println!("{}", ccs_risk::report::dominance_table(&plot));
            }
            write_store(&ev, &cfg, &out);
            raw_grids = ev.raw_grids;
        }
        Command::Timing => run_timing(&cfg),
        Command::Workload => {
            let base = cfg.trace.generate(cfg.seed);
            let jobs = apply_scenario(&base, &ccs_experiments::baseline(EstimateSet::B), cfg.seed);
            println!("{}\n", WorkloadSummary::compute(&jobs, cfg.nodes));
            println!("{}", ccs_workload::TraceHistograms::of(&base).render(48));
        }
        Command::Chaos(soak) => run_chaos(&soak, &out),
        Command::Perf { store, top, by } => {
            let store = load_store_or_die(&store, "perf");
            print!("{}", ccs_experiments::perf::report(&store, top, by));
        }
        Command::PerfDiffStores { baseline, store } => {
            let baseline = load_store_or_die(&baseline, "perf diff");
            let new = load_store_or_die(&store, "perf diff");
            finish_perf_diff(ccs_experiments::perf::diff_stores(&baseline, &new))
        }
        Command::PerfDiffBench { bench, from, to } => finish_perf_diff(
            std::fs::read_to_string(&bench)
                .map_err(|e| format!("cannot read {}: {e}", bench.display()))
                .and_then(|text| {
                    ccs_experiments::perf::diff_bench(&text, from.as_deref(), to.as_deref())
                }),
        ),
        Command::Query { query, store } => {
            let store = load_store_or_die(&store, "query");
            match store.query(&query) {
                Ok(res) => print!("{}", res.render()),
                Err(e) => {
                    eprintln!("utility_risk query: {e}");
                    std::process::exit(2);
                }
            }
        }
        Command::Trace(spec) => {
            let bundle = ccs_experiments::capture_cell(&spec, &cfg);
            let files = ccs_experiments::write_bundle(&bundle, &out).expect("write trace bundle");
            progress::note(&format!(
                "wrote {} files under {}",
                files.len(),
                out.display()
            ));
            let analysis =
                trace_report::analyze(&bundle.trace.records).expect("trace is causally ordered");
            println!(
                "== traced run: {} / {} / {} = {} / {} ==",
                bundle.manifest.econ,
                bundle.manifest.set,
                bundle.manifest.scenario,
                bundle.manifest.value,
                bundle.manifest.policy
            );
            print!("{}", analysis.render(Some(&bundle.manifest.metrics), 10));
            if !analysis.crosscheck(&bundle.manifest.metrics).is_empty() {
                eprintln!("trace cross-check FAILED: trace and runner metrics disagree");
                std::process::exit(1);
            }
        }
    }

    if compact_journal {
        let path = ctl.journal.as_deref().expect("checked at parse time");
        match Journal::compact(path) {
            // Reported even under --quiet: these stats are the whole point
            // of asking for --compact-journal.
            Ok((read, kept)) => eprintln!(
                "journal compacted: {read} line(s) -> {kept} record(s) in {}",
                path.display()
            ),
            Err(e) => {
                eprintln!(
                    "utility_risk: cannot compact journal {}: {e}",
                    path.display()
                );
                std::process::exit(1);
            }
        }
    }
    if !raw_grids.is_empty() {
        progress::note_raw(&telemetry_report::slowest_cells_summary(&raw_grids, 5));
        // Phase-profiled builds additionally export the merged profile as
        // collapsed flamegraph stacks (inferno / flamegraph.pl / speedscope
        // all read the folded format directly).
        let mut merged = ccs_telemetry::profile::ProfileSnapshot::default();
        for g in &raw_grids {
            merged.merge(&g.profile);
        }
        if !merged.is_empty() {
            let path = out.join("profile.folded");
            write_atomic(&path, merged.folded().as_bytes()).expect("write profile.folded");
            progress::note(&format!(
                "phase profile (folded stacks): {}",
                path.display()
            ));
        }
    }
    if let Some(path) = telemetry {
        TelemetryReport::collect(&raw_grids)
            .write(&path)
            .expect("write telemetry report");
        progress::note(&format!("telemetry report written to {}", path.display()));
    }
    if report_cell_errors(&cell_errors, &out) {
        std::process::exit(1);
    }
}
