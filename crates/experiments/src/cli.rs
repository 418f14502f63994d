//! The `utility_risk` command line: one table of flags, one parse.
//!
//! Every flag is one row of `FLAGS`: its name, which subcommands take
//! it, and either a switch setter or the metavariable of its value plus a
//! setter that checks the value and stores it. [`parse`] turns argv into a
//! [`Cli`] — the typed [`Command`] plus the experiment settings and the
//! grid control — and [`parse_cli_checked`] is the same table restricted
//! to the shared and run flags. A flag the subcommand does not take, a malformed
//! value, or a missing argument is a [`ConfigError`] naming the flag,
//! raised before any file is created or any cell runs.

use crate::grid::{
    policies_for, ExperimentConfig, GridControl, GridRun, FAIL_CELL_ENV, STALL_CELL_ENV,
};
use crate::perf::GroupBy;
use crate::scenario::{EstimateSet, Scenario};
use crate::store::{Query, SOURCE_CHAOS, SOURCE_GRID, STORE_FILE};
use crate::supervisor::SupervisorConfig;
use crate::trace_run::TraceCellSpec;
use crate::{progress, validate_config, ConfigError, FIGURE_IDS};
use ccs_chaos::SoakConfig;
use ccs_economy::EconomicModel;
use ccs_workload::SdscSp2Model;
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Every subcommand, in usage order.
const SUBCOMMANDS: [&str; 16] = [
    "tables",
    "figure",
    "all",
    "ablations",
    "robustness",
    "summary",
    "dominance",
    "workload",
    "timing",
    "trace",
    "trace-report",
    "chaos",
    "query",
    "perf",
    "perf diff",
    "serve-worker",
];

/// The grid subcommands, which alone take the crash-safety and fleet flags.
const GRID: &[&str] = &["all", "summary", "dominance"];

/// The subcommands the flags that shape a run do not shape: they print the
/// paper's tables, read a result store, or run a soak (`chaos`, which
/// takes its own `--seed`), so those flags are foreign to them.
const NO_RUN: &[&str] = &["tables", "query", "perf", "perf diff", "chaos"];

/// The metavariable of the one positional argument `sub` requires, if any.
fn positional(sub: &str) -> Option<&'static str> {
    match sub {
        "figure" => Some("FIG"),
        "trace-report" => Some("DIR|FILE"),
        _ => None,
    }
}

/// Which subcommands take a flag.
#[derive(Clone, Copy)]
enum Takes {
    /// Every subcommand but `trace-report` and `serve-worker`; also taken
    /// by [`parse_cli_checked`].
    Shared,
    /// The flags that shape a run: the `Shared` subcommands but `NO_RUN`;
    /// also taken by [`parse_cli_checked`].
    Run,
    /// Exactly these subcommands.
    Only(&'static [&'static str]),
}

impl Takes {
    /// Whether `sub` takes the flag; `None` is the shared-flags-only parse.
    fn accepts(self, sub: Option<&str>) -> bool {
        match self {
            Shared => !matches!(sub, Some("trace-report" | "serve-worker")),
            Run => Shared.accepts(sub) && !sub.is_some_and(|s| NO_RUN.contains(&s)),
            Only(subs) => sub.is_some_and(|s| subs.contains(&s)),
        }
    }

    fn describe(self) -> String {
        match self {
            Shared => "every subcommand but trace-report and serve-worker".to_string(),
            Run => format!(
                "every subcommand but {}, trace-report and serve-worker",
                NO_RUN.join(", ")
            ),
            Only(subs) => subs.join(", "),
        }
    }
}

/// How a flag reads its value. `Text` and `Value` take one value, shown
/// in usage as their metavariable.
enum Kind {
    /// A switch: no value.
    Switch(fn(&mut Raw)),
    /// Any text (a path, a name, a list), stored as given.
    Text(&'static str, fn(&mut Raw, &str)),
    /// A value the setter checks before storing it.
    Value(&'static str, fn(&mut Raw, &str) -> Result<(), String>),
}

/// One row of the flag table: name, the subcommands that take it, and
/// how it reads its value.
struct Flag(&'static str, Takes, Kind);

use Kind::{Switch, Text, Value};
use Takes::{Only, Run, Shared};

/// Every `utility_risk` flag. A name appears twice only where it means a
/// different thing to a disjoint set of subcommands.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag("--quick", Run, Switch(|a| a.quick = true)),
    Flag("--quiet", Shared, Switch(|a| a.quiet = true)),
    Flag("--jobs", Run, Value("N", |a, v| positive(v).map(|n| a.jobs = Some(n)))),
    Flag("--seed", Run, Value("S", |a, v| num(v).map(|s| a.cfg.seed = s))),
    Flag("--threads", Run, Value("T", |a, v| num(v).map(|t| a.cfg.threads = t))),
    Flag("--replicas", Run, Value("R", |a, v| positive(v).map(|r| a.cfg.replicas = r))),
    Flag("--out", Shared, Text("DIR", |a, v| a.out = Some(v.into()))),
    Flag("--telemetry", Shared, Text("FILE", |a, v| a.telemetry = Some(v.into()))),
    Flag("--resume", Only(GRID), Text("JOURNAL", |a, v| a.ctl.journal = Some(v.into()))),
    Flag("--cell-budget", Only(GRID), Value("N", |a, v| num(v).map(|n| a.ctl.cell_budget = Some(n)))),
    Flag("--cell-wall-budget", Only(GRID), Value("SECS", |a, v| secs(v).map(|s| a.ctl.cell_wall_budget = Some(s)))),
    Flag("--cell-event-budget", Only(GRID), Value("N", |a, v| num(v).map(|n| a.ctl.cell_event_budget = Some(n)))),
    Flag("--compact-journal", Only(GRID), Switch(|a| a.compact = true)),
    Flag("--workers", Only(GRID), Value("N", |a, v| num(v).map(|n| a.sup.workers = n))),
    Flag("--remote", Only(GRID), Text("HOST:PORT,…", |a, v| a.sup.remotes.extend(list(v)))),
    Flag("--retries", Only(GRID), Value("N", |a, v| num(v).map(|n| a.sup.retries = n))),
    Flag("--backoff-ms", Only(GRID), Value("MS", |a, v| num(v).map(|ms| a.sup.backoff_ms = ms))),
    Flag("--heartbeat-ms", Only(GRID), Value("MS", |a, v| num(v).map(|ms| a.sup.heartbeat_ms = ms))),
    Flag("--connect-timeout-ms", Only(GRID), Value("MS", |a, v| num(v).map(|ms| a.sup.connect_timeout_ms = ms))),
    Flag("--table", Only(&["tables"]), Value("N", |a, v| in_range(v, 1..=6).map(|n| a.table = Some(n)))),
    Flag("--econ", Only(&["trace", "query"]), Value("commodity|bid", |a, v| choice(v, ECONS).map(|e| a.econ = Some(e)))),
    Flag("--set", Only(&["trace", "query"]), Value("A|B", |a, v| choice(v, SETS).map(|s| a.set = Some(s)))),
    Flag("--scenario", Only(&["trace"]), Value("IDX", |a, v| in_range(v, 0..=Scenario::ALL.len() - 1).map(|i| a.spec.scenario = Scenario::ALL[i]))),
    Flag("--value", Only(&["trace"]), Value("IDX", |a, v| in_range(v, 0..=5).map(|i| a.spec.value_idx = i))),
    Flag("--policy", Only(&["trace", "query"]), Text("NAME", |a, v| a.policy = Some(v.into()))),
    Flag("--manifest", Only(&["trace-report"]), Text("FILE", |a, v| a.manifest = Some(v.into()))),
    Flag("--top", Only(&["trace-report", "perf"]), Value("N", |a, v| num(v).map(|n| a.top = n))),
    Flag("--seed", Only(&["chaos"]), Value("S", |a, v| num(v).map(|s| a.chaos.seed = s))),
    Flag("--rounds", Only(&["chaos"]), Value("N", |a, v| num(v).map(|n| a.chaos.rounds = n))),
    Flag("--budget", Only(&["chaos"]), Value("SECS", |a, v| secs(v).map(|s| a.chaos.budget.max_wall_secs = Some(s)))),
    Flag("--max-events", Only(&["chaos"]), Value("N", |a, v| num(v).map(|n| a.chaos.budget.max_events = Some(n)))),
    Flag("--store", Only(&["query", "perf", "perf diff"]), Text("FILE", |a, v| a.store = Some(v.into()))),
    Flag("--source", Only(&["query"]), Value("grid|chaos", |a, v| choice(v, SOURCES).map(|s| a.query.source = Some(s)))),
    Flag("--scenario", Only(&["query"]), Text("SUBSTR", |a, v| a.query.scenario_contains = Some(v.into()))),
    Flag("--select", Only(&["query"]), Text("COL,COL,…", |a, v| a.query.select = list(v))),
    Flag("--sort-by", Only(&["query"]), Text("COL", |a, v| a.query.sort_by = Some(v.into()))),
    Flag("--desc", Only(&["query"]), Switch(|a| a.query.descending = true)),
    Flag("--limit", Only(&["query"]), Value("N", |a, v| num(v).map(|n| a.query.limit = Some(n)))),
    Flag("--summarize", Only(&["query"]), Switch(|a| a.query.summarize = true)),
    Flag("--by", Only(&["perf"]), Value("scenario|policy", |a, v| choice(v, GROUP_BY).map(|g| a.by = g))),
    Flag("--baseline", Only(&["perf diff"]), Text("OLD_STORE", |a, v| a.baseline = Some(v.into()))),
    Flag("--bench", Only(&["perf diff"]), Text("TRENDLINE", |a, v| a.bench = Some(v.into()))),
    Flag("--from", Only(&["perf diff"]), Text("LABEL", |a, v| a.from = Some(v.into()))),
    Flag("--to", Only(&["perf diff"]), Text("LABEL", |a, v| a.to = Some(v.into()))),
    Flag("--listen", Only(&["serve-worker"]), Text("HOST:PORT", |a, v| a.listen = Some(v.into()))),
];

const ECONS: &[(&str, EconomicModel)] = &[
    ("commodity", EconomicModel::CommodityMarket),
    ("bid", EconomicModel::BidBased),
];
const SETS: &[(&str, EstimateSet)] = &[
    ("A", EstimateSet::A),
    ("a", EstimateSet::A),
    ("B", EstimateSet::B),
    ("b", EstimateSet::B),
];
const SOURCES: &[(&str, u8)] = &[("grid", SOURCE_GRID), ("chaos", SOURCE_CHAOS)];
const GROUP_BY: &[(&str, GroupBy)] =
    &[("scenario", GroupBy::Scenario), ("policy", GroupBy::Policy)];

fn num<T: FromStr>(v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("expected a number, got {v:?}"))
}

fn positive(v: &str) -> Result<usize, String> {
    match num(v)? {
        0 => Err("must be at least 1".to_string()),
        n => Ok(n),
    }
}

fn secs(v: &str) -> Result<f64, String> {
    let s: f64 = num(v)?;
    if s.is_finite() && s > 0.0 {
        Ok(s)
    } else {
        Err(format!("must be finite and positive, got {v}"))
    }
}

/// A number in `range`.
fn in_range(v: &str, range: RangeInclusive<usize>) -> Result<usize, String> {
    v.parse()
        .ok()
        .filter(|n| range.contains(n))
        .ok_or_else(|| format!("expected a number in {range:?}, got {v:?}"))
}

/// One of `options`.
fn choice<T: Copy>(v: &str, options: &[(&str, T)]) -> Result<T, String> {
    options
        .iter()
        .find(|(name, _)| *name == v)
        .map(|&(_, t)| t)
        .ok_or_else(|| {
            let names: Vec<&str> = options.iter().map(|o| o.0).collect();
            format!("expected {}, got {v:?}", names.join("|"))
        })
}

/// A comma-separated list, trimmed, empty items dropped.
fn list(v: &str) -> Vec<String> {
    v.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect()
}

/// Everything the flags set, before the checks that span flags.
#[derive(Default)]
struct Raw {
    /// Flags given, in order (repeats included).
    seen: Vec<&'static str>,
    positional: Option<String>,
    quick: bool,
    quiet: bool,
    jobs: Option<usize>,
    cfg: ExperimentConfig,
    out: Option<PathBuf>,
    telemetry: Option<PathBuf>,
    ctl: GridControl,
    compact: bool,
    sup: SupervisorConfig,
    table: Option<usize>,
    econ: Option<EconomicModel>,
    set: Option<EstimateSet>,
    policy: Option<String>,
    spec: TraceCellSpec,
    manifest: Option<PathBuf>,
    top: usize,
    chaos: SoakConfig,
    query: Query,
    store: Option<PathBuf>,
    by: GroupBy,
    baseline: Option<PathBuf>,
    bench: Option<PathBuf>,
    from: Option<String>,
    to: Option<String>,
    listen: Option<String>,
}

impl Raw {
    /// Reads `args` against `FLAGS` as seen by `sub` (`None`: the shared
    /// flags only). Checks each value; creates nothing.
    fn read(sub: Option<&str>, args: &[String]) -> Result<Raw, ConfigError> {
        let mut raw = Raw {
            top: 10,
            ..Raw::default()
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with('-') {
                match sub.and_then(positional) {
                    Some(_) if raw.positional.is_none() => raw.positional = Some(arg.clone()),
                    _ => return Err(ConfigError::new(arg, "unexpected argument")),
                }
                continue;
            }
            let named = || FLAGS.iter().filter(|f| f.0 == arg);
            let Some(flag) = named().find(|f| f.1.accepts(sub)) else {
                let takers: Vec<String> = named().map(|f| f.1.describe()).collect();
                let message = match sub {
                    _ if takers.is_empty() => "unknown flag".to_string(),
                    Some(s) => format!("`{s}` does not take it (taken by: {})", takers.join("; ")),
                    None => format!("not a shared flag (taken by: {})", takers.join("; ")),
                };
                return Err(ConfigError::new(arg, message));
            };
            raw.seen.push(flag.0);
            let mut value = |meta| {
                args.next()
                    .ok_or_else(|| ConfigError::new(flag.0, format!("requires a value {meta}")))
            };
            match flag.2 {
                Switch(set) => set(&mut raw),
                Text(meta, set) => set(&mut raw, value(meta)?),
                Value(meta, set) => {
                    set(&mut raw, value(meta)?).map_err(|e| ConfigError::new(flag.0, e))?
                }
            }
        }
        Ok(raw)
    }

    fn given(&self, flag: &str) -> bool {
        self.seen.contains(&flag)
    }

    /// The shared flags' settings: `--quick` sets the default job count
    /// and an explicit `--jobs` wins wherever it appears. `--quiet`
    /// switches progress output off once the settings are valid.
    fn shared(&self) -> Result<(ExperimentConfig, PathBuf, Option<PathBuf>), ConfigError> {
        let mut cfg = self.cfg;
        if self.quick {
            cfg.trace.jobs = SdscSp2Model::small().jobs;
        }
        if let Some(jobs) = self.jobs {
            cfg.trace.jobs = jobs;
        }
        validate_config(&cfg)?;
        if self.quiet {
            progress::set_quiet(true);
        }
        let out = self
            .out
            .clone()
            .unwrap_or_else(|| PathBuf::from("target/figures"));
        // Artifacts are written after the grids run: a file in the way, at
        // `--out` or at any ancestor it would be created under, would fail
        // them only then.
        if let Some(file) = out.ancestors().find(|p| p.exists() && !p.is_dir()) {
            let message = format!(
                "{} cannot be created as a directory: {} is not a directory",
                out.display(),
                file.display()
            );
            return Err(ConfigError::new("--out", message));
        }
        Ok((cfg, out, self.telemetry.clone()))
    }

    /// The grid control: journal, budgets and, when `--workers` or
    /// `--remote` is given, the supervisor, checked as [`GridRun`] checks
    /// it.
    fn grid_control(&self, cfg: &ExperimentConfig) -> Result<GridControl, ConfigError> {
        let mut ctl = self.ctl.clone();
        if self.compact && ctl.journal.is_none() {
            return Err(ConfigError::new(
                "--compact-journal",
                "requires --resume JOURNAL",
            ));
        }
        if self.given("--workers") || self.given("--remote") {
            let mut sup = self.sup.clone();
            // `--remote` without `--workers` means a purely remote grid: no
            // local children, all shards dialed out.
            if !self.given("--workers") {
                sup.workers = 0;
            }
            ctl.supervisor = Some(sup);
        } else if let Some(flag) = [
            "--retries",
            "--backoff-ms",
            "--heartbeat-ms",
            "--connect-timeout-ms",
        ]
        .into_iter()
        .find(|f| self.given(f))
        {
            return Err(ConfigError::new(
                flag,
                "requires --workers N or --remote HOST:PORT (supervised grid mode)",
            ));
        }
        GridRun::new(cfg).control(&ctl).check()?;
        Ok(ctl)
    }

    /// The subcommand with its own arguments, after the checks that span
    /// flags.
    fn command(self, sub: &str, out: &Path) -> Result<Command, ConfigError> {
        let required = |v: Option<String>, what: &str| {
            v.ok_or_else(|| ConfigError::new(sub, format!("requires {what}")))
        };
        let store = self.store.clone().unwrap_or_else(|| out.join(STORE_FILE));
        Ok(match sub {
            "tables" => Command::Tables(self.table),
            "figure" => {
                let id = required(self.positional, "a figure id FIG")?;
                let id = FIGURE_IDS.iter().find(|f| **f == id).ok_or_else(|| {
                    let valid = FIGURE_IDS.join(", ");
                    ConfigError::new(
                        "figure",
                        format!("unknown figure id {id:?} (valid: {valid})"),
                    )
                })?;
                Command::Figure(id)
            }
            "all" => Command::All,
            "ablations" => Command::Ablations,
            "robustness" => Command::Robustness,
            "summary" => Command::Summary,
            "dominance" => Command::Dominance,
            "workload" => Command::Workload,
            "timing" => Command::Timing,
            "trace" => {
                let mut spec = self.spec;
                spec.econ = self.econ.unwrap_or(spec.econ);
                spec.set = self.set.unwrap_or(spec.set);
                let name = self.policy.as_deref().unwrap_or(spec.policy.name());
                let policies = policies_for(spec.econ);
                spec.policy = policies
                    .iter()
                    .copied()
                    .find(|k| k.name().eq_ignore_ascii_case(name))
                    .ok_or_else(|| {
                        let names: Vec<&str> = policies.iter().map(|k| k.name()).collect();
                        ConfigError::new(
                            "--policy",
                            format!(
                                "{name:?} is not evaluated under the {} model (one of: {})",
                                spec.econ,
                                names.join(" ")
                            ),
                        )
                    })?;
                Command::Trace(spec)
            }
            "trace-report" => Command::TraceReport {
                target: required(self.positional, "a trace bundle DIR or trace.jsonl FILE")?.into(),
                manifest: self.manifest,
                top: self.top,
            },
            "chaos" => Command::Chaos(self.chaos),
            "query" => Command::Query {
                query: Query {
                    econ: self.econ,
                    set: self.set,
                    policy: self.policy,
                    ..self.query
                },
                store,
            },
            "perf" => Command::Perf {
                store,
                top: self.top,
                by: self.by,
            },
            // Two stores, or two trendline entries: a flag of the other
            // mode would be ignored.
            "perf diff" => match (self.baseline, self.bench) {
                (Some(baseline), None)
                    if !self.seen.iter().any(|f| ["--from", "--to"].contains(f)) =>
                {
                    Command::PerfDiffStores { baseline, store }
                }
                (None, Some(bench)) if !self.seen.contains(&"--store") => Command::PerfDiffBench {
                    bench,
                    from: self.from,
                    to: self.to,
                },
                _ => {
                    return Err(ConfigError::new(
                        "perf diff",
                        "takes --baseline OLD_STORE [--store FILE] or --bench TRENDLINE \
                         [--from LABEL] [--to LABEL]",
                    ))
                }
            },
            "serve-worker" => Command::ServeWorker(required(self.listen, "--listen HOST:PORT")?),
            other => unreachable!("{other} is not in SUBCOMMANDS"),
        })
    }
}

/// What a `utility_risk` subcommand was asked to do, with its own
/// arguments.
#[derive(Clone, Debug)]
pub enum Command {
    /// Tables I–VI, or only table N (1–6).
    Tables(Option<usize>),
    /// One figure, by id (one of `FIGURE_IDS`).
    Figure(&'static str),
    /// Every figure, table, report and the result store.
    All,
    /// Ablation studies plus the CaR comparison.
    Ablations,
    /// The seed-replication study.
    Robustness,
    /// Per-policy objective means.
    Summary,
    /// Pairwise stochastic dominance.
    Dominance,
    /// Synthetic-workload statistics.
    Workload,
    /// One timed run per policy at the default point.
    Timing,
    /// One traced cell.
    Trace(TraceCellSpec),
    /// Offline re-analysis of a trace bundle.
    TraceReport {
        /// A bundle directory or a bare `trace.jsonl`.
        target: PathBuf,
        /// An explicit manifest (else `DIR/manifest.json` if present).
        manifest: Option<PathBuf>,
        /// How many longest-waiting jobs to list.
        top: usize,
    },
    /// The chaos soak, seeded by `--seed`.
    Chaos(SoakConfig),
    /// A query over a result store.
    Query {
        /// Filters, projection, order.
        query: Query,
        /// `--store`, default `OUT/results_store.json`.
        store: PathBuf,
    },
    /// The cost report of a result store.
    Perf {
        /// `--store`, default `OUT/results_store.json`.
        store: PathBuf,
        /// Rows per breakdown.
        top: usize,
        /// Breakdown grouping.
        by: GroupBy,
    },
    /// A perf delta between two result stores.
    PerfDiffStores {
        /// `--baseline`: the old store.
        baseline: PathBuf,
        /// `--store`, default `OUT/results_store.json`: the new store.
        store: PathBuf,
    },
    /// A perf delta between two entries of a `BENCH_kernel.json` trendline.
    PerfDiffBench {
        /// `--bench`: the trendline.
        bench: PathBuf,
        /// `--from`: the older entry's label.
        from: Option<String>,
        /// `--to`: the newer entry's label.
        to: Option<String>,
    },
    /// A remote TCP worker agent listening on this address.
    ServeWorker(String),
}

/// A parsed `utility_risk` command line.
#[derive(Clone, Debug)]
pub struct Cli {
    /// The subcommand and its own arguments.
    pub command: Command,
    /// The experiment settings of the shared flags.
    pub cfg: ExperimentConfig,
    /// `--out DIR` (default `target/figures`).
    pub out: PathBuf,
    /// `--telemetry FILE`.
    pub telemetry: Option<PathBuf>,
    /// Journal, budgets and supervisor of the grid subcommands, and the
    /// drills of the environment for them and `figure`.
    pub ctl: GridControl,
    /// `--compact-journal`.
    pub compact_journal: bool,
}

/// Parses a `utility_risk` command line (without the program name), and
/// reads the drill variables of the environment once for the subcommands
/// that run grids under control. It opens no file: the run opens the
/// `--resume` journal, and [`GridRun`] refuses an unopenable one (naming
/// `--resume`) before any cell runs.
pub fn parse(args: &[String]) -> Result<Cli, ConfigError> {
    let word = |i: usize| args.get(i).map(String::as_str);
    let (sub, rest) = match (word(0), word(1)) {
        (Some("perf"), Some("diff")) => ("perf diff", &args[2..]),
        (w, _) => {
            let w = w.unwrap_or_default();
            let sub = SUBCOMMANDS.into_iter().find(|s| *s == w).ok_or_else(|| {
                ConfigError::new("subcommand", format!("unknown subcommand {w:?}"))
            })?;
            (sub, &args[1..])
        }
    };
    let raw = Raw::read(Some(sub), rest)?;
    let (cfg, out, telemetry) = raw.shared()?;
    let mut ctl = raw.grid_control(&cfg)?;
    // `figure` takes no run flags, but its grids run under the drills.
    if GRID.contains(&sub) || sub == "figure" {
        ctl.fail_cell = std::env::var(FAIL_CELL_ENV).ok();
        ctl.stall_cell = std::env::var(STALL_CELL_ENV).ok();
    }
    let compact_journal = raw.compact;
    let command = raw.command(sub, &out)?;
    Ok(Cli {
        command,
        cfg,
        out,
        telemetry,
        ctl,
        compact_journal,
    })
}

/// Parses the flags shared by the `utility_risk` subcommands that run
/// something — `--jobs N`, `--seed S`, `--out DIR`, `--threads T`,
/// `--replicas R` (seed replicas per grid cell), `--telemetry FILE`,
/// `--quick`, `--quiet` (suppress all stderr progress output — see
/// [`progress`]) — through the same table as
/// [`parse`]. Any other flag, or a bad value, is a [`ConfigError`] naming
/// the flag.
pub fn parse_cli_checked(
    args: &[String],
) -> Result<(ExperimentConfig, PathBuf, Option<PathBuf>), ConfigError> {
    Raw::read(None, args)?.shared()
}

/// The usage text, generated from `FLAGS`: every subcommand and exactly
/// the flags it takes.
pub fn usage() -> String {
    let flags = |pick: &dyn Fn(Takes) -> bool| -> String {
        let shown: Vec<String> = FLAGS
            .iter()
            .filter(|f| pick(f.1))
            .map(|f| match f.2 {
                Switch(_) => format!("[{}]", f.0),
                Text(meta, _) | Value(meta, _) => format!("[{} {meta}]", f.0),
            })
            .collect();
        shown.join(" ")
    };
    let subs: Vec<String> = SUBCOMMANDS
        .iter()
        .map(|s| match positional(s) {
            Some(p) => format!("{s} {p}"),
            None => s.to_string(),
        })
        .collect();
    let mut s = format!(
        "usage: utility_risk SUBCOMMAND [flags]\nsubcommands: {}\n",
        subs.join(", ")
    );
    s += &format!(
        "shared flags ({}): {}\n",
        Shared.describe(),
        flags(&|t| matches!(t, Shared))
    );
    s += &format!(
        "run flags ({}): {}\n",
        Run.describe(),
        flags(&|t| matches!(t, Run))
    );
    s += "own flags:\n";
    // Subcommands with the same own flags share one line.
    let mut lines: Vec<(Vec<&str>, String)> = Vec::new();
    for sub in SUBCOMMANDS {
        let own = flags(&|t| matches!(t, Only(_)) && t.accepts(Some(sub)));
        match lines.iter_mut().find(|(_, flags)| *flags == own) {
            Some((subs, _)) => subs.push(sub),
            None if !own.is_empty() => lines.push((vec![sub], own)),
            None => {}
        }
    }
    for (subs, own) in lines {
        // serve-worker's one flag is required: no brackets.
        let own = match subs[..] {
            ["serve-worker"] => own.trim_matches(['[', ']']),
            _ => &own,
        };
        s += &format!("  {}: {own}\n", subs.join(", "));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_policies::PolicyKind;

    fn parse_words(words: &[&str]) -> Result<Cli, ConfigError> {
        parse(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    /// The field of the error `words` parse to.
    fn faulted(words: &[&str]) -> String {
        parse_words(words).expect_err("must not parse").field
    }

    #[test]
    fn trace_flags_select_the_cell_and_validate_the_policy() {
        let cli = parse_words(&["trace", "--policy", "libra", "--quick", "--econ", "bid"]);
        let cli = cli.unwrap();
        let Command::Trace(spec) = cli.command else {
            panic!("not a trace: {:?}", cli.command)
        };
        assert_eq!(
            (spec.policy, spec.econ),
            (PolicyKind::Libra, EconomicModel::BidBased)
        );
        assert_eq!(cli.cfg.trace.jobs, ExperimentConfig::quick().trace.jobs);
        // SJF-BF is commodity-only.
        assert_eq!(
            faulted(&["trace", "--policy", "SJF-BF", "--econ", "bid"]),
            "--policy"
        );
        assert_eq!(faulted(&["trace", "--econ", "barter"]), "--econ");
        // `query` reads the same `--econ`/`--set`/`--policy` rows.
        let cli = parse_words(&["query", "--econ", "bid", "--set", "a", "--policy", "Libra"]);
        let Command::Query { query, .. } = cli.unwrap().command else {
            panic!("not a query")
        };
        assert_eq!(
            (query.econ, query.set),
            (Some(EconomicModel::BidBased), Some(EstimateSet::A))
        );
        assert_eq!(query.policy.as_deref(), Some("Libra"));
    }

    #[test]
    fn a_flag_the_subcommand_does_not_take_is_an_error_naming_it() {
        for (words, flag) in [
            (&["figure", "fig3", "--resume", "j.jsonl"][..], "--resume"),
            (&["tables", "--compact-journal"], "--compact-journal"),
            (&["timing", "--remote", "127.0.0.1:9"], "--remote"),
            (&["query", "--rounds", "3"], "--rounds"),
            (&["perf", "--baseline", "old.json"], "--baseline"),
            (&["trace-report", "dir", "--quick"], "--quick"),
            (&["serve-worker", "--listen", "h:1", "--quiet"], "--quiet"),
            (&["summary", "--bogus"], "--bogus"),
            (&["tables", "--table", "1", "--jobs", "5"], "--jobs"),
            (&["tables", "--seed", "3"], "--seed"),
            (&["query", "--store", "s", "--replicas", "2"], "--replicas"),
            (&["query", "--threads", "2"], "--threads"),
            (&["query", "--quick"], "--quick"),
            (&["chaos", "--quick"], "--quick"),
            (&["chaos", "--jobs", "9"], "--jobs"),
            (&["chaos", "--threads", "7"], "--threads"),
            (&["chaos", "--replicas", "3"], "--replicas"),
            (&["perf", "--store", "s", "--jobs", "5"], "--jobs"),
            (&["perf", "--seed", "3"], "--seed"),
            (&["perf", "diff", "--bench", "b", "--seed", "3"], "--seed"),
            (&["perf", "diff", "--bench", "b", "--quick"], "--quick"),
        ] {
            assert_eq!(faulted(words), flag, "{words:?}");
        }
        let err = parse_cli_checked(&["--quick".into(), "--workers".into(), "2".into()]);
        assert_eq!(err.unwrap_err().field, "--workers");
        // The flags that do not shape a run stay with `tables` and `query`,
        // and `chaos` keeps its seed.
        let cli = parse_words(&["query", "--quiet", "--out", "o", "--telemetry", "t.json"]);
        assert_eq!(cli.unwrap().out, PathBuf::from("o"));
        assert!(parse_words(&["tables", "--table", "2", "--out", "o"]).is_ok());
        let cli = parse_words(&["chaos", "--seed", "7", "--rounds", "2"]).unwrap();
        assert!(matches!(
            cli.command,
            Command::Chaos(SoakConfig { seed: 7, .. })
        ));
    }

    #[test]
    fn positionals_and_cross_flag_requirements() {
        let cli = parse_words(&["trace-report", "--top", "3", "dir"]).unwrap();
        assert!(matches!(cli.command, Command::TraceReport { top: 3, .. }));
        let cli = parse_words(&["perf", "diff", "--bench", "b.json", "--to", "x"]).unwrap();
        assert!(matches!(cli.command, Command::PerfDiffBench { .. }));
        for (words, field) in [
            (&["figure"][..], "figure"),
            (&["figure", "fig9"], "figure"),
            (&["trace-report"], "trace-report"),
            (&["trace-report", "a", "b"], "b"),
            (&["perf", "diff"], "perf diff"),
            (
                &["perf", "diff", "--baseline", "a", "--bench", "b"],
                "perf diff",
            ),
            (
                &["perf", "diff", "--baseline", "a", "--from", "x"],
                "perf diff",
            ),
            (
                &["perf", "diff", "--bench", "b", "--store", "s"],
                "perf diff",
            ),
            (&["serve-worker"], "serve-worker"),
            (&["summary", "--compact-journal"], "--compact-journal"),
            // Tests run in the package root, where Cargo.toml is a file.
            (&["summary", "--out", "Cargo.toml"], "--out"),
            (&["summary", "--out", "Cargo.toml/sub"], "--out"),
            (&["summary", "--retries", "3"], "--retries"),
            (
                &["summary", "--workers", "1", "--replicas", "2"],
                "--replicas",
            ),
            (&["bogus"], "subcommand"),
        ] {
            assert_eq!(faulted(words), field, "{words:?}");
        }
    }

    #[test]
    fn usage_lists_every_flag_and_flags_name_known_subcommands() {
        let text = usage();
        for Flag(name, takes, _) in FLAGS {
            let (spaced, closed) = (format!("{name} "), format!("{name}]"));
            assert!(text.contains(&spaced) || text.contains(&closed), "{name}");
            if let Only(subs) = takes {
                assert!(subs.iter().all(|s| SUBCOMMANDS.contains(s)), "{name}");
            }
        }
    }
}
