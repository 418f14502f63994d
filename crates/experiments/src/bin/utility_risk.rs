//! `utility-risk` — the umbrella CLI over every reproduction artifact.
//!
//! ```text
//! utility_risk tables [--table N]          Tables I–VI
//! utility_risk figure <fig1|fig3..fig8>    one figure (+ artifacts)
//! utility_risk all                         everything (figures + tables + report)
//! utility_risk ablations                   ablation studies + CaR comparison
//! utility_risk robustness                  seed-replication study
//! utility_risk summary                     per-policy objective means
//! utility_risk dominance                   pairwise stochastic dominance
//! utility_risk workload                    synthetic-workload statistics
//! utility_risk trace                       one traced run + SLA report
//! utility_risk chaos                       seeded chaos soak (generate→run→check→shrink)
//! utility_risk query                       slice the columnar result store
//! utility_risk perf                        phase-attributed cost report from the store
//! utility_risk perf diff                   attribute a perf delta to phases and cells
//! ```
//!
//! Every subcommand accepts the shared flags `--quick`, `--quiet`,
//! `--jobs N`, `--seed S`, `--threads T`, `--replicas R` (seed replicas
//! per grid cell, fanned across the in-process pool; objectives become the
//! replica mean μ and `sigma_*` store columns record the spread),
//! `--out DIR`. `trace` additionally
//! takes `--econ commodity|bid`, `--set A|B`, `--scenario IDX`,
//! `--value IDX`, `--policy NAME`. Grid subcommands take the crash-safety
//! flags `--resume JOURNAL`, `--cell-budget N`, `--cell-wall-budget SECS`,
//! `--cell-event-budget N`, `--compact-journal`, plus the multi-process
//! supervisor flags `--workers N`, `--retries N`, `--backoff-ms MS`,
//! `--heartbeat-ms MS` (the latter three require `--workers`; results are
//! byte-identical to a single-process run). `chaos` takes `--rounds N`,
//! `--budget SECS`, `--max-events N` (per-replay watchdog budget). `query`
//! reads the `results_store.json` a grid run wrote (no simulation, no
//! JSONL) and takes `--store FILE`, the filters `--source grid|chaos`,
//! `--econ commodity|bid`, `--set A|B`, `--scenario SUBSTR`,
//! `--policy NAME`, plus `--select COLS`, `--sort-by COL`, `--desc`,
//! `--limit N`, `--summarize`. `perf` reads the same store (`--store FILE`,
//! `--top N`, `--by scenario|policy`); `perf diff` compares either two
//! stores (`--store NEW --baseline OLD`) or two `BENCH_kernel.json`
//! trendline entries (`--bench FILE [--from LABEL] [--to LABEL]`),
//! attributing the delta to phases and cell groups. Grid runs built with
//! `--features profile` additionally write `profile.folded` (collapsed
//! flamegraph stacks) under `--out`.

use ccs_chaos::{run_soak, SoakConfig};
use ccs_economy::EconomicModel;
use ccs_experiments::figures::{print_figure, write_figure};
use ccs_experiments::store::{SOURCE_CHAOS, SOURCE_GRID};
use ccs_experiments::{
    build_figure, parse_cli_checked, progress, replicate, run_all_ablations, run_evaluation_ctl,
    tables, telemetry_report, trace_report, write_atomic, CellError, ConfigError, EstimateSet,
    GridControl, Journal, Query, RawGrid, ResultStore, SupervisorConfig, TelemetryReport,
    TraceCellSpec, STORE_FILE,
};
use ccs_risk::Objective;
use ccs_simsvc::RunBudget;
use ccs_workload::{apply_scenario, WorkloadSummary};

fn usage() -> ! {
    eprintln!(
        "usage: utility_risk <tables|figure FIG|all|ablations|robustness|summary|dominance|workload|trace|chaos|query|perf> \
         [--quick] [--quiet] [--jobs N] [--seed S] [--threads T] [--replicas R] [--out DIR] [--telemetry FILE]\n\
         grid subcommands (all/summary/dominance) also take: [--resume JOURNAL] [--cell-budget N] \
         [--cell-wall-budget SECS] [--cell-event-budget N] [--compact-journal]\n\
         multi-process grid: [--workers N] [--remote HOST:PORT,…] [--retries N] [--backoff-ms MS] \
         [--heartbeat-ms MS] [--connect-timeout-ms MS]\n\
         serve-worker takes: --listen HOST:PORT (a remote TCP worker agent for --remote)\n\
         trace also takes: [--econ commodity|bid] [--set A|B] [--scenario IDX] [--value IDX] [--policy NAME]\n\
         chaos also takes: [--rounds N] [--budget SECS] [--max-events N]\n\
         query takes: [--store FILE] [--source grid|chaos] [--econ commodity|bid] [--set A|B] \
         [--scenario SUBSTR] [--policy NAME] [--select COL,COL,…] [--sort-by COL] [--desc] \
         [--limit N] [--summarize]\n\
         perf takes: [--store FILE] [--top N] [--by scenario|policy]\n\
         perf diff takes: --store NEW --baseline OLD | --bench FILE [--from LABEL] [--to LABEL]"
    );
    std::process::exit(2);
}

/// Strips the crash-safety flags (`--resume FILE`, `--cell-budget N`,
/// `--cell-wall-budget SECS`, `--cell-event-budget N`, `--compact-journal`)
/// and the multi-process supervisor flags (`--workers N`,
/// `--remote HOST:PORT,…`, `--retries N`, `--backoff-ms MS`,
/// `--heartbeat-ms MS`, `--connect-timeout-ms MS`) from the argument list
/// before the shared parser sees them. Returns the grid control plus
/// whether the journal should be compacted afterwards.
fn parse_grid_control(args: &mut Vec<String>) -> Result<(GridControl, bool), String> {
    let mut ctl = GridControl::default();
    let mut compact = false;
    let mut workers: Option<usize> = None;
    let mut remotes: Vec<String> = Vec::new();
    let mut retries: Option<u32> = None;
    let mut backoff_ms: Option<u64> = None;
    let mut heartbeat_ms: Option<u64> = None;
    let mut connect_timeout_ms: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workers" => {
                let v = args
                    .get(i + 1)
                    .cloned()
                    .ok_or("--workers requires a count")?;
                workers = Some(
                    v.parse()
                        .map_err(|_| format!("--workers: expected a count, got {v:?}"))?,
                );
                args.drain(i..i + 2);
            }
            "--remote" => {
                let v = args
                    .get(i + 1)
                    .cloned()
                    .ok_or("--remote requires host:port[,host:port,…]")?;
                remotes.extend(
                    v.split(',')
                        .map(str::trim)
                        .filter(|a| !a.is_empty())
                        .map(String::from),
                );
                args.drain(i..i + 2);
            }
            "--connect-timeout-ms" => {
                let v = args
                    .get(i + 1)
                    .cloned()
                    .ok_or("--connect-timeout-ms requires milliseconds")?;
                connect_timeout_ms = Some(v.parse().map_err(|_| {
                    format!("--connect-timeout-ms: expected milliseconds, got {v:?}")
                })?);
                args.drain(i..i + 2);
            }
            "--retries" => {
                let v = args
                    .get(i + 1)
                    .cloned()
                    .ok_or("--retries requires a count")?;
                retries = Some(
                    v.parse()
                        .map_err(|_| format!("--retries: expected a count, got {v:?}"))?,
                );
                args.drain(i..i + 2);
            }
            "--backoff-ms" => {
                let v = args
                    .get(i + 1)
                    .cloned()
                    .ok_or("--backoff-ms requires milliseconds")?;
                backoff_ms = Some(
                    v.parse()
                        .map_err(|_| format!("--backoff-ms: expected milliseconds, got {v:?}"))?,
                );
                args.drain(i..i + 2);
            }
            "--heartbeat-ms" => {
                let v = args
                    .get(i + 1)
                    .cloned()
                    .ok_or("--heartbeat-ms requires milliseconds")?;
                heartbeat_ms =
                    Some(v.parse().map_err(|_| {
                        format!("--heartbeat-ms: expected milliseconds, got {v:?}")
                    })?);
                args.drain(i..i + 2);
            }
            "--resume" => {
                let v = args
                    .get(i + 1)
                    .cloned()
                    .ok_or("--resume requires a journal path")?;
                let path = std::path::PathBuf::from(v);
                // Fail at parse time, not partway into the grid.
                Journal::create(&path).map_err(|e| {
                    let msg = format!("cannot open journal {}: {e}", path.display());
                    ConfigError::new("--resume", msg).to_string()
                })?;
                ctl.journal = Some(path);
                args.drain(i..i + 2);
            }
            "--cell-budget" => {
                let v = args
                    .get(i + 1)
                    .cloned()
                    .ok_or("--cell-budget requires a count")?;
                ctl.cell_budget = Some(
                    v.parse()
                        .map_err(|_| format!("--cell-budget: expected a count, got {v:?}"))?,
                );
                args.drain(i..i + 2);
            }
            "--cell-wall-budget" => {
                let v = args
                    .get(i + 1)
                    .cloned()
                    .ok_or("--cell-wall-budget requires seconds")?;
                let secs: f64 = v
                    .parse()
                    .map_err(|_| format!("--cell-wall-budget: expected seconds, got {v:?}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(format!(
                        "--cell-wall-budget: must be finite and positive, got {v}"
                    ));
                }
                ctl.cell_wall_budget = Some(secs);
                args.drain(i..i + 2);
            }
            "--cell-event-budget" => {
                let v = args
                    .get(i + 1)
                    .cloned()
                    .ok_or("--cell-event-budget requires a count")?;
                ctl.cell_event_budget =
                    Some(v.parse().map_err(|_| {
                        format!("--cell-event-budget: expected a count, got {v:?}")
                    })?);
                args.drain(i..i + 2);
            }
            "--compact-journal" => {
                compact = true;
                args.remove(i);
            }
            _ => i += 1,
        }
    }
    if compact && ctl.journal.is_none() {
        return Err("--compact-journal requires --resume JOURNAL".to_string());
    }
    if workers.is_some() || !remotes.is_empty() {
        let d = SupervisorConfig::default();
        // `--remote` without `--workers` means a purely remote grid: no
        // local children, all shards dialed out.
        let sup = SupervisorConfig {
            workers: workers.unwrap_or(0),
            remotes,
            retries: retries.unwrap_or(d.retries),
            backoff_ms: backoff_ms.unwrap_or(d.backoff_ms),
            heartbeat_ms: heartbeat_ms.unwrap_or(d.heartbeat_ms),
            connect_timeout_ms: connect_timeout_ms.unwrap_or(d.connect_timeout_ms),
            worker_bin: None,
        };
        sup.validate().map_err(|e| e.to_string())?;
        ctl.supervisor = Some(sup);
    } else {
        for (flag, set) in [
            ("--retries", retries.is_some()),
            ("--backoff-ms", backoff_ms.is_some()),
            ("--heartbeat-ms", heartbeat_ms.is_some()),
            ("--connect-timeout-ms", connect_timeout_ms.is_some()),
        ] {
            if set {
                return Err(format!(
                    "{flag} requires --workers N or --remote HOST:PORT (supervised grid mode)"
                ));
            }
        }
    }
    Ok((ctl, compact))
}

/// The `chaos` subcommand's own flags, stripped before the shared parser.
struct ChaosArgs {
    rounds: u32,
    wall_secs: f64,
    max_events: u64,
}

fn parse_chaos_args(args: &mut Vec<String>) -> Result<ChaosArgs, String> {
    let defaults = SoakConfig::default();
    let mut chaos = ChaosArgs {
        rounds: defaults.rounds,
        wall_secs: defaults.budget.max_wall_secs.unwrap_or(30.0),
        max_events: defaults.budget.max_events.unwrap_or(5_000_000),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--rounds" => {
                let v = args
                    .get(i + 1)
                    .cloned()
                    .ok_or("--rounds requires a count")?;
                chaos.rounds = v
                    .parse()
                    .map_err(|_| format!("--rounds: expected a count, got {v:?}"))?;
                args.drain(i..i + 2);
            }
            "--budget" => {
                let v = args
                    .get(i + 1)
                    .cloned()
                    .ok_or("--budget requires seconds")?;
                chaos.wall_secs = v
                    .parse()
                    .map_err(|_| format!("--budget: expected seconds, got {v:?}"))?;
                if !chaos.wall_secs.is_finite() || chaos.wall_secs <= 0.0 {
                    return Err(format!("--budget: must be finite and positive, got {v}"));
                }
                args.drain(i..i + 2);
            }
            "--max-events" => {
                let v = args
                    .get(i + 1)
                    .cloned()
                    .ok_or("--max-events requires a count")?;
                chaos.max_events = v
                    .parse()
                    .map_err(|_| format!("--max-events: expected a count, got {v:?}"))?;
                args.drain(i..i + 2);
            }
            _ => i += 1,
        }
    }
    Ok(chaos)
}

/// The `query` subcommand's own flags, stripped before the shared parser.
/// Returns the parsed query plus an optional explicit store path
/// (defaulting to `OUT/results_store.json` otherwise).
fn parse_query_args(args: &mut Vec<String>) -> Result<(Query, Option<std::path::PathBuf>), String> {
    let mut q = Query::default();
    let mut store_path = None;
    let value_of = |args: &mut Vec<String>, i: usize, flag: &str| -> Result<String, String> {
        let v = args
            .get(i + 1)
            .cloned()
            .ok_or(format!("{flag} requires a value"))?;
        args.drain(i..i + 2);
        Ok(v)
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--store" => {
                store_path = Some(std::path::PathBuf::from(value_of(args, i, "--store")?));
            }
            "--source" => {
                q.source = Some(match value_of(args, i, "--source")?.as_str() {
                    "grid" => SOURCE_GRID,
                    "chaos" => SOURCE_CHAOS,
                    other => return Err(format!("--source: expected grid|chaos, got {other:?}")),
                });
            }
            "--econ" => {
                q.econ = Some(match value_of(args, i, "--econ")?.as_str() {
                    "commodity" => EconomicModel::CommodityMarket,
                    "bid" => EconomicModel::BidBased,
                    other => return Err(format!("--econ: expected commodity|bid, got {other:?}")),
                });
            }
            "--set" => {
                q.set = Some(match value_of(args, i, "--set")?.as_str() {
                    "A" | "a" => EstimateSet::A,
                    "B" | "b" => EstimateSet::B,
                    other => return Err(format!("--set: expected A|B, got {other:?}")),
                });
            }
            "--scenario" => q.scenario_contains = Some(value_of(args, i, "--scenario")?),
            "--policy" => q.policy = Some(value_of(args, i, "--policy")?),
            "--select" => {
                q.select = value_of(args, i, "--select")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--sort-by" => q.sort_by = Some(value_of(args, i, "--sort-by")?),
            "--desc" => {
                q.descending = true;
                args.remove(i);
            }
            "--limit" => {
                let v = value_of(args, i, "--limit")?;
                q.limit = Some(
                    v.parse()
                        .map_err(|_| format!("--limit: expected a count, got {v:?}"))?,
                );
            }
            "--summarize" => {
                q.summarize = true;
                args.remove(i);
            }
            _ => i += 1,
        }
    }
    Ok((q, store_path))
}

/// The `perf` subcommand's own flags, stripped before the shared parser.
/// `diff` is set by the positional `diff` word after `perf`.
struct PerfArgs {
    diff: bool,
    store: Option<std::path::PathBuf>,
    baseline: Option<std::path::PathBuf>,
    bench: Option<std::path::PathBuf>,
    from: Option<String>,
    to: Option<String>,
    top: usize,
    by: ccs_experiments::perf::GroupBy,
}

fn parse_perf_args(diff: bool, args: &mut Vec<String>) -> Result<PerfArgs, String> {
    let mut p = PerfArgs {
        diff,
        store: None,
        baseline: None,
        bench: None,
        from: None,
        to: None,
        top: 10,
        by: ccs_experiments::perf::GroupBy::Scenario,
    };
    let value_of = |args: &mut Vec<String>, i: usize, flag: &str| -> Result<String, String> {
        let v = args
            .get(i + 1)
            .cloned()
            .ok_or(format!("{flag} requires a value"))?;
        args.drain(i..i + 2);
        Ok(v)
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--store" => {
                p.store = Some(std::path::PathBuf::from(value_of(args, i, "--store")?));
            }
            "--baseline" => {
                p.baseline = Some(std::path::PathBuf::from(value_of(args, i, "--baseline")?));
            }
            "--bench" => {
                p.bench = Some(std::path::PathBuf::from(value_of(args, i, "--bench")?));
            }
            "--from" => p.from = Some(value_of(args, i, "--from")?),
            "--to" => p.to = Some(value_of(args, i, "--to")?),
            "--top" => {
                let v = value_of(args, i, "--top")?;
                p.top = v
                    .parse()
                    .map_err(|_| format!("--top: expected a count, got {v:?}"))?;
            }
            "--by" => {
                p.by = ccs_experiments::perf::GroupBy::parse(&value_of(args, i, "--by")?)?;
            }
            _ => i += 1,
        }
    }
    if p.diff && p.bench.is_none() && p.baseline.is_none() {
        return Err("perf diff needs --baseline OLD_STORE or --bench TRENDLINE".to_string());
    }
    if !p.diff && (p.baseline.is_some() || p.bench.is_some() || p.from.is_some() || p.to.is_some())
    {
        return Err("--baseline/--bench/--from/--to only apply to perf diff".to_string());
    }
    Ok(p)
}

/// Loads a result store or exits 1 with a pointer at how to produce one.
fn load_store_or_die(path: &std::path::Path, context: &str) -> ResultStore {
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

/// Runs `utility_risk perf` / `perf diff` against already-written artifacts
/// (no simulation) and exits.
fn run_perf(p: &PerfArgs, out: &std::path::Path) -> ! {
    if !p.diff {
        let path = p.store.clone().unwrap_or_else(|| out.join(STORE_FILE));
        let store = load_store_or_die(&path, "perf");
        print!("{}", ccs_experiments::perf::report(&store, p.top, p.by));
        std::process::exit(0);
    }
    let result = if let Some(bench) = &p.bench {
        match std::fs::read_to_string(bench) {
            Ok(text) => {
                ccs_experiments::perf::diff_bench(&text, p.from.as_deref(), p.to.as_deref())
            }
            Err(e) => Err(format!("cannot read {}: {e}", bench.display())),
        }
    } else {
        let new_path = p.store.clone().unwrap_or_else(|| out.join(STORE_FILE));
        let base_path = p.baseline.clone().expect("checked at parse time");
        let baseline = load_store_or_die(&base_path, "perf diff");
        let new = load_store_or_die(&new_path, "perf diff");
        ccs_experiments::perf::diff_stores(&baseline, &new)
    };
    match result {
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
fn write_store(
    ev: &ccs_experiments::Evaluation,
    cfg: &ccs_experiments::ExperimentConfig,
    out: &std::path::Path,
) {
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
fn run_chaos(chaos: &ChaosArgs, seed: u64, out: &std::path::Path) -> ! {
    let cfg = SoakConfig {
        seed,
        rounds: chaos.rounds,
        budget: RunBudget {
            max_wall_secs: Some(chaos.wall_secs),
            max_events: Some(chaos.max_events),
        },
    };
    progress::note(&format!(
        "chaos soak: seed {} / {} rounds / budget {}s, {} events per replay",
        cfg.seed, cfg.rounds, chaos.wall_secs, chaos.max_events
    ));
    let report = run_soak(&cfg, |round, case, outcome| {
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
fn report_cell_errors(errors: &[CellError], out: &std::path::Path) -> bool {
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
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // The hidden `worker` subcommand: how the supervisor re-execs this
    // binary as a grid worker (see `ccs_experiments::supervisor`). It
    // speaks length-prefixed JSON frames on stdin/stdout and never
    // returns, so it must run before any flag parsing.
    if args.first().map(String::as_str) == Some("worker") {
        ccs_experiments::worker::worker_main();
    }
    // `serve-worker` — the remote TCP worker agent the supervisor's
    // `--remote` flag dials. Long-lived: one protocol session per
    // accepted connection, until a clean Shutdown frame. Never returns.
    if args.first().map(String::as_str) == Some("serve-worker") {
        let listen = match (args.get(1).map(String::as_str), args.get(2)) {
            (Some("--listen"), Some(addr)) if args.len() == 3 => addr.clone(),
            _ => {
                eprintln!("utility_risk serve-worker: requires exactly --listen HOST:PORT");
                std::process::exit(2);
            }
        };
        ccs_experiments::worker::serve_worker_main(&listen);
    }
    if args.is_empty() {
        usage();
    }
    let cmd = args.remove(0);
    // `figure` consumes one positional argument before the shared flags.
    let fig_id = if cmd == "figure" {
        if args.is_empty() || args[0].starts_with("--") {
            usage();
        }
        Some(args.remove(0))
    } else {
        None
    };
    // `trace` strips its cell-selection flags before the shared parser
    // (which panics on anything it does not know).
    let spec = if cmd == "trace" {
        match TraceCellSpec::parse_args(&mut args) {
            Ok(spec) => Some(spec),
            Err(e) => {
                eprintln!("utility_risk trace: {e}");
                usage();
            }
        }
    } else {
        None
    };
    // `chaos` strips its soak flags before the shared parser.
    let chaos_args = if cmd == "chaos" {
        match parse_chaos_args(&mut args) {
            Ok(chaos) => Some(chaos),
            Err(e) => {
                eprintln!("utility_risk chaos: {e}");
                usage();
            }
        }
    } else {
        None
    };
    // `perf` consumes an optional positional `diff`, then strips its own
    // flags before the shared parser.
    let perf_args = if cmd == "perf" {
        let diff = args.first().map(|a| a == "diff").unwrap_or(false);
        if diff {
            args.remove(0);
        }
        match parse_perf_args(diff, &mut args) {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("utility_risk perf: {e}");
                usage();
            }
        }
    } else {
        None
    };
    // `query` strips its store/filter flags before the shared parser.
    let query_args = if cmd == "query" {
        match parse_query_args(&mut args) {
            Ok(parsed) => Some(parsed),
            Err(e) => {
                eprintln!("utility_risk query: {e}");
                usage();
            }
        }
    } else {
        None
    };
    let (ctl, compact_journal) = match parse_grid_control(&mut args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("utility_risk: {e}");
            usage();
        }
    };
    let (cfg, out, telemetry) = match parse_cli_checked(&args) {
        Ok(parsed) if ctl.supervisor.is_some() && parsed.0.replicas > 1 => {
            let e = ConfigError::new(
                "--replicas",
                "seed ensembles run in-process only; drop --workers/--remote or use --replicas 1",
            );
            eprintln!("utility_risk: {e}");
            std::process::exit(2);
        }
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("utility_risk: {e}");
            std::process::exit(2);
        }
    };
    // Grids retained by the subcommand (if any) for the end-of-run timing
    // summary and the optional --telemetry artifact.
    let mut raw_grids: Vec<RawGrid> = Vec::new();
    // Panicked grid cells, reported (with a nonzero exit) at the end.
    let mut cell_errors: Vec<CellError> = Vec::new();

    match cmd.as_str() {
        "tables" => print!("{}", tables::all_tables()),
        "figure" => {
            let id = fig_id.expect("parsed above");
            let fig = build_figure(&id, &cfg);
            print!("{}", print_figure(&fig));
            let files = write_figure(&out, &fig).expect("write artifacts");
            progress::note(&format!(
                "wrote {} files under {}",
                files.len(),
                out.display()
            ));
        }
        "all" => {
            println!("{}", tables::all_tables());
            let ev = run_evaluation_ctl(&cfg, &ctl);
            cell_errors = ev.cell_errors().into_iter().cloned().collect();
            for fig in ev.paper_figures() {
                print!("{}", print_figure(&fig));
                write_figure(&out, &fig).expect("write artifacts");
            }
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
        "ablations" => {
            let base = cfg.trace.generate(cfg.seed);
            for ablation in run_all_ablations(&base, cfg.seed, cfg.nodes) {
                println!("{}", ablation.render());
            }
            println!(
                "{}",
                ccs_experiments::ablation::car_comparison(&base, cfg.seed, cfg.nodes)
            );
        }
        "robustness" => {
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
        "summary" => {
            let ev = run_evaluation_ctl(&cfg, &ctl);
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
        "dominance" => {
            let ev = run_evaluation_ctl(&cfg, &ctl);
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
        "workload" => {
            let base = cfg.trace.generate(cfg.seed);
            let jobs = apply_scenario(&base, &ccs_experiments::baseline(EstimateSet::B), cfg.seed);
            println!("{}\n", WorkloadSummary::compute(&jobs, cfg.nodes));
            println!("{}", ccs_workload::TraceHistograms::of(&base).render(48));
        }
        "chaos" => {
            let chaos = chaos_args.expect("parsed above");
            run_chaos(&chaos, cfg.seed, &out);
        }
        "perf" => {
            let p = perf_args.expect("parsed above");
            run_perf(&p, &out);
        }
        "query" => {
            let (q, store_path) = query_args.expect("parsed above");
            let path = store_path.unwrap_or_else(|| out.join(STORE_FILE));
            let store = match ResultStore::load(&path) {
                Ok(store) => store,
                Err(e) => {
                    eprintln!(
                        "utility_risk query: {e}\n(run `utility_risk summary` or `all` first \
                         to produce the store, or point --store at one)"
                    );
                    std::process::exit(1);
                }
            };
            match store.query(&q) {
                Ok(res) => print!("{}", res.render()),
                Err(e) => {
                    eprintln!("utility_risk query: {e}");
                    std::process::exit(2);
                }
            }
        }
        "trace" => {
            let spec = spec.expect("parsed above");
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
        _ => usage(),
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
