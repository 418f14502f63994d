//! The experiment grid: 13 scenarios (the paper's 12 + failure rate) × 6
//! values × policies, per economic model and estimate set — and the
//! parallel, crash-safe runner that fills it.
//!
//! The runner always records per-cell wall-clock timings (cheap: one
//! `Instant` pair per simulation run, far off the kernel hot path), so
//! slow cells can be reported on any run. With telemetry on
//! (`--telemetry FILE`), each cell simulated in this run also feeds the
//! global registry.

use crate::ipc::CellSpec;
use crate::journal::{cell_key, CellError, CellErrorKind, CellRecord, Journal};
use crate::live::LiveRiskBoard;
use crate::progress;
use crate::scenario::{EstimateSet, Scenario};
use crate::supervisor::Fleet;
use crate::ConfigError;
use ccs_chaos::StuckPolicy;
use ccs_economy::EconomicModel;
use ccs_policies::{build_policy, Policy, PolicyKind};
use ccs_simsvc::{
    FaultConfig, RebillError, Rebilled, Run, RunBudget, RunConfig, RunError, Violation,
};
use ccs_telemetry::profile::ProfileSnapshot;
use ccs_telemetry::{Counter, Histogram};
use ccs_workload::{apply_scenario, BaseJob, Job, JobFields, ScenarioTransform, SdscSp2Model};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Global experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentConfig {
    /// Cluster size (the paper: 128 nodes).
    pub nodes: u32,
    /// Synthetic trace model.
    pub trace: SdscSp2Model,
    /// Master seed for trace synthesis and QoS annotation.
    pub seed: u64,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Seed replicas per grid cell (the in-cell ensemble width). Every
    /// replica re-runs the cell over the *same* memoised workload with an
    /// independently forked fault-RNG stream; replica 0 keeps the cell's
    /// own stream, so `replicas == 1` reproduces a plain run exactly. The
    /// cell's recorded objectives become the replica mean μ and the spread
    /// σ is tracked alongside. Clamped to at least 1.
    pub replicas: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            nodes: 128,
            trace: SdscSp2Model::default(),
            seed: 42,
            threads: 0,
            replicas: 1,
        }
    }
}

impl ExperimentConfig {
    /// A reduced configuration (200 jobs) for tests, examples, and quick
    /// sanity runs. Preserves the full scenario grid.
    pub fn quick() -> Self {
        ExperimentConfig {
            trace: SdscSp2Model::small(),
            ..Default::default()
        }
    }

    /// Override the number of jobs in the synthetic trace.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.trace.jobs = jobs;
        self
    }

    /// Override the in-cell ensemble width (seed replicas per cell).
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas.max(1);
        self
    }
}

/// Runtime controls of one grid run: crash-safe checkpointing and the
/// testing hook that truncates a run after a fixed number of cells.
#[derive(Clone, Debug, Default)]
pub struct GridControl {
    /// JSONL journal path for crash-safe resume: completed cells are
    /// appended as they finish, and cells already present are reused
    /// instead of re-simulated. `None` disables journaling.
    pub journal: Option<std::path::PathBuf>,
    /// Resolve only the first this-many cells of the plan (journal hits
    /// don't count), then skip the rest — the hook integration tests use
    /// to "kill" a run at a deterministic point. The budget truncates the
    /// plan before duplicate cells are folded into aliases, so a budgeted
    /// run still resolves (and journals) exactly this many cells, and the
    /// same cells run in every execution mode. `None` = unlimited.
    pub cell_budget: Option<usize>,
    /// Deliberately panic the cell `"scenarioIdx:valueIdx:PolicyName"` in
    /// every grid of the run — the fault-injection backdoor proving a
    /// broken policy cannot take down a grid run. The library reads no
    /// environment; the CLI fills it from `FAIL_CELL_ENV`.
    pub fail_cell: Option<String>,
    /// Per-cell wall-clock budget in seconds: a cell whose simulation runs
    /// longer is cancelled cooperatively (inside the DES loop) into a
    /// [`CellErrorKind::Budget`] error instead of wedging the grid. `None`
    /// = unlimited.
    pub cell_wall_budget: Option<f64>,
    /// Per-cell event-count budget: cancels cells that spin past this many
    /// watchdog steps. `None` = unlimited.
    pub cell_event_budget: Option<u64>,
    /// Deliberately wedge the cell `"scenarioIdx:valueIdx:PolicyName"` by
    /// running it with a never-quiescing policy — the watchdog drill
    /// proving a stuck cell is cancelled (with a Budget-kind error) while
    /// the rest of the grid completes. The CLI fills it from
    /// `STALL_CELL_ENV`. The drill applies a small default budget when no
    /// per-cell budget is configured, so it terminates either way.
    pub stall_cell: Option<String>,
    /// Fan the grid's cells out across worker processes instead of
    /// in-process threads. `None` (the default) runs them on the local
    /// executor; `Some` hands them to the supervisor, which re-execs the
    /// current binary as `utility_risk worker` subprocesses and dials any
    /// remote agents. Workers synthesise their base jobs from `cfg.trace`,
    /// so [`GridRun::base`] refuses any other base jobs on this path.
    pub supervisor: Option<crate::supervisor::SupervisorConfig>,
}

impl GridControl {
    /// The per-cell watchdog budget.
    pub(crate) fn run_budget(&self) -> RunBudget {
        RunBudget {
            max_wall_secs: self.cell_wall_budget,
            max_events: self.cell_event_budget,
        }
    }

    /// Whether the cell labelled `label` is panicked deliberately.
    fn fails(&self, label: &str) -> bool {
        self.fail_cell.as_deref() == Some(label)
    }

    /// Whether the cell labelled `label` is wedged deliberately.
    fn stalls(&self, label: &str) -> bool {
        self.stall_cell.as_deref() == Some(label)
    }

    /// Whether either drill targets the cell labelled `label`.
    fn targets(&self, label: &str) -> bool {
        self.fails(label) || self.stalls(label)
    }
}

/// The phase leaves extracted from a cell's profile snapshot into its
/// fixed-width cost vector, in column order. These are the phase names the
/// runner/cluster/grid instrumentation uses; the same leaf can occur under
/// several parents (e.g. `ps_recompute` under both admission and dispatch)
/// and the cost vector aggregates by leaf.
pub(crate) const PHASE_LEAVES: [&str; 6] = [
    "workload_gen",
    "admission",
    "dispatch",
    "ps_recompute",
    "fault",
    "collect",
];

/// The per-cell cost vector: phase-attributed self-time plus the cell's
/// peak policy queue depth. All zeros unless the `profile` feature was on
/// (and for journal hits / skipped cells, whose work never re-ran).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellCost {
    /// Self-time nanoseconds per phase, indexed like `PHASE_LEAVES`.
    pub phase_ns: [u64; 6],
    /// Largest policy queue depth observed during the cell.
    pub peak_queue_depth: u64,
}

impl CellCost {
    /// Extracts the fixed-width cost vector from a cell's profile snapshot.
    pub(crate) fn from_snapshot(snap: &ProfileSnapshot) -> CellCost {
        let mut phase_ns = [0u64; 6];
        for (slot, leaf) in phase_ns.iter_mut().zip(PHASE_LEAVES) {
            *slot = snap.leaf_ns(leaf);
        }
        CellCost {
            phase_ns,
            peak_queue_depth: snap.peak_queue_depth,
        }
    }

    /// Total attributed nanoseconds across all phases.
    pub(crate) fn total_phase_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// The most expensive phase `(name, self_ns)`, or `None` when the cell
    /// holds no phase data (profile off, journal hit, or skipped).
    pub(crate) fn top_phase(&self) -> Option<(&'static str, u64)> {
        let (i, &ns) = self
            .phase_ns
            .iter()
            .enumerate()
            .max_by_key(|&(_, &ns)| ns)?;
        if ns == 0 {
            None
        } else {
            Some((PHASE_LEAVES[i], ns))
        }
    }
}

/// Wall-clock timing of one grid cell (one policy at one scenario value).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellTiming {
    /// Scenario label (e.g. `"deadline mean (Set A)"`).
    pub scenario: String,
    /// Scenario value index, 0..6.
    pub value_idx: usize,
    /// Policy display name.
    pub policy: String,
    /// Wall-clock seconds spent simulating this cell.
    pub secs: f64,
    /// Simulation outcomes the cell produced (0 for journal hits and
    /// skipped cells — their events were never re-simulated).
    pub events: u64,
    /// Phase-attributed cost vector (zeros unless profiled).
    pub cost: CellCost,
    /// 1-based id of the worker (thread or process) that simulated the
    /// cell; 0 when unattributed (skipped cells, pre-v3 journal hits).
    pub worker: u64,
}

impl CellTiming {
    /// Outcome events per wall-clock second, the grid's throughput measure
    /// for one cell. Zero when the cell did not simulate.
    pub(crate) fn events_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.events as f64 / self.secs
        } else {
            0.0
        }
    }
}

/// One workload-cache entry: a once-cell the first lookup of its key fills.
type WorkloadSlot = OnceLock<Arc<Vec<Job>>>;

/// Per-grid memoisation of synthesised job streams.
///
/// `apply_scenario` is deterministic in `(base, transform, seed)`, and one
/// grid run fixes `base` and `seed` — so cells whose scenario transform is
/// identical (every failure-rate value, plus any swept value that lands on
/// the baseline) can share one immutable trace instead of re-synthesising
/// it. Keyed by the transform's debug rendering, which spells out every
/// field at full float precision.
///
/// Each key owns a once-cell: the first lookup synthesises outside the map
/// lock while concurrent lookups of the same key wait for it, so every
/// transform is synthesised exactly once and the hit/miss counters do not
/// depend on thread interleaving.
pub(crate) struct WorkloadCache {
    seed: u64,
    trace: SdscSp2Model,
    /// The base trace: given up front, or synthesised from `trace` on the
    /// first miss (supervised runs and workers, which never receive one).
    base: OnceLock<Vec<BaseJob>>,
    map: Mutex<HashMap<String, Arc<WorkloadSlot>>>,
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
}

impl WorkloadCache {
    /// A cache whose base trace is synthesised from `cfg.trace` on demand.
    pub(crate) fn new(cfg: &ExperimentConfig) -> Self {
        WorkloadCache {
            seed: cfg.seed,
            trace: cfg.trace,
            base: OnceLock::new(),
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A cache over caller-provided base jobs.
    pub(crate) fn with_base(cfg: &ExperimentConfig, base: &[BaseJob]) -> Self {
        let cache = WorkloadCache::new(cfg);
        let _ = cache.base.set(base.to_vec());
        cache
    }

    /// The memoised job stream for `transform`, synthesised on a miss.
    pub(crate) fn workload(&self, transform: &ScenarioTransform) -> Arc<Vec<Job>> {
        let slot = Arc::clone(
            self.map
                .lock()
                .expect("workload cache map poisoned by a panic while locked")
                .entry(format!("{transform:?}"))
                .or_default(),
        );
        let mut missed = false;
        let jobs = slot.get_or_init(|| {
            missed = true;
            let base = self.base.get_or_init(|| self.trace.generate(self.seed));
            let _phase = ccs_telemetry::profile::enter("workload_gen");
            Arc::new(apply_scenario(base, transform, self.seed))
        });
        let counter = if missed { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        Arc::clone(jobs)
    }

    /// The job stream for `transform` if it has been synthesised, without
    /// counting a lookup.
    fn peek(&self, transform: &ScenarioTransform) -> Option<Arc<Vec<Job>>> {
        let map = self
            .map
            .lock()
            .expect("workload cache map poisoned by a panic while locked");
        map.get(&format!("{transform:?}"))?.get().cloned()
    }
}

/// Raw objective measurements for one (economic model, estimate set) pair.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RawGrid {
    /// Economic model these measurements were taken under.
    pub econ: EconomicModel,
    /// Estimate set (A or B).
    pub set: EstimateSet,
    /// The policies, in column order.
    pub policies: Vec<PolicyKind>,
    /// `raw[scenario][value][policy] = [wait, SLA, reliability,
    /// profitability]` — raw objective values (wait in seconds, the rest in
    /// percent). With `replicas > 1` each cell holds the replica mean μ.
    pub raw: Vec<Vec<Vec<[f64; 4]>>>,
    /// `cell_sigma[scenario][value][policy]` — per-objective population
    /// standard deviation across the cell's seed replicas. All zeros when
    /// `replicas == 1` and for skipped cells.
    pub cell_sigma: Vec<Vec<Vec<[f64; 4]>>>,
    /// `cell_secs[scenario][value][policy]` — wall-clock seconds per cell.
    /// Always populated, whether or not telemetry is on.
    pub cell_secs: Vec<Vec<Vec<f64>>>,
    /// `cell_events[scenario][value][policy]` — simulation outcomes per
    /// cell (0 for journal hits and skipped cells).
    pub cell_events: Vec<Vec<Vec<u64>>>,
    /// `cell_costs[scenario][value][policy]` — per-cell phase cost vectors
    /// (all zeros unless built with the `profile` feature).
    pub cell_costs: Vec<Vec<Vec<CellCost>>>,
    /// `cell_workers[scenario][value][policy]` — 1-based id of the worker
    /// (thread in-process, process under the supervisor) that simulated
    /// each cell; 0 for skipped cells and unattributed journal hits.
    pub cell_workers: Vec<Vec<Vec<u64>>>,
    /// Grid-wide merge of every simulated cell's profile snapshot — the
    /// folded-stack flamegraph source. Empty unless profiled.
    pub profile: ProfileSnapshot,
    /// Scenario traces served from the per-grid workload cache instead of
    /// being re-synthesised.
    pub workload_cache_hits: u64,
    /// Scenario traces synthesised (cache misses).
    pub workload_cache_misses: u64,
    /// Cells resolved by reusing another cell's result instead of being
    /// simulated: aliases of the cell that represents their content key in
    /// the run, in this grid or an earlier one. A reused cell records 0 s,
    /// a zero cost vector, and the worker id of the simulation it copies,
    /// or that simulation's failure.
    pub cells_reused: u64,
    /// LibraRiskD cells resolved from their point's Libra cell instead of
    /// being simulated: the Libra run certified that LibraRiskD would make
    /// the very same run (see [`ccs_policies::Policy::riskd_equivalent`]).
    /// A derived cell records 0 s, a zero cost vector, and the Libra
    /// cell's worker id. Only the local executor derives cells.
    pub cells_derived: u64,
    /// Cells resolved by billing another cell's run instead of being
    /// simulated: the cell's policy reads none of the fields in which its
    /// workload differs from that run's (see
    /// [`ccs_policies::Policy::reads`]), so the run is its run, and only
    /// Eqs. 1–4 over the run's outcome stream, with the cell's own jobs,
    /// differ. A re-billed cell records 0 s, a zero cost vector, and the
    /// event count and worker id of the run that billed it, or that run's
    /// failure. Only the local executor re-bills cells.
    pub cells_rebilled: u64,
    /// Busy seconds per worker thread (simulation time, excluding idle
    /// waits on the work queue) — the basis for utilisation reporting.
    /// Under a supervisor, indexed by worker id − 1; ids are run-scoped,
    /// so a grid lists every link its run's fleet has opened so far.
    pub worker_busy_secs: Vec<f64>,
    /// Transport label (`"pipe"` / `"tcp"`) per supervised worker,
    /// indexed like [`RawGrid::worker_busy_secs`] (worker id − 1). Empty
    /// for in-process runs, whose workers are threads, not links.
    pub worker_transports: Vec<String>,
    /// End-to-end wall-clock seconds for the whole grid.
    pub wall_secs: f64,
    /// Cells that panicked instead of completing, sorted by (scenario,
    /// value, policy). Their `raw` entries hold `[0.0; 4]` placeholders —
    /// never NaN — so downstream normalisation and plots stay defined.
    pub errors: Vec<CellError>,
}

impl RawGrid {
    /// The policy display names, in column order.
    pub(crate) fn policy_names(&self) -> Vec<&'static str> {
        self.policies.iter().map(|p| p.name()).collect()
    }

    /// Every cell's timing joined with its cost vector — the single code
    /// path behind both the slowest-cells summary and the persisted store
    /// columns.
    pub(crate) fn cell_timings(&self) -> Vec<CellTiming> {
        let mut cells: Vec<CellTiming> = Vec::new();
        for (s, per_value) in self.cell_secs.iter().enumerate() {
            for (v, per_policy) in per_value.iter().enumerate() {
                for (p, &secs) in per_policy.iter().enumerate() {
                    cells.push(CellTiming {
                        scenario: Scenario::ALL[s].label(),
                        value_idx: v,
                        policy: self.policies[p].name().to_string(),
                        secs,
                        events: self.cell_events[s][v][p],
                        cost: self.cell_costs[s][v][p],
                        worker: self.cell_workers[s][v][p],
                    });
                }
            }
        }
        cells
    }

    /// The `k` slowest cells, most expensive first.
    pub(crate) fn slowest_cells(&self, k: usize) -> Vec<CellTiming> {
        let mut cells = self.cell_timings();
        cells.sort_by(|a, b| b.secs.total_cmp(&a.secs));
        cells.truncate(k);
        cells
    }
}

/// The policies the paper evaluates for `econ` (Table V).
pub fn policies_for(econ: EconomicModel) -> Vec<PolicyKind> {
    match econ {
        EconomicModel::CommodityMarket => PolicyKind::COMMODITY.to_vec(),
        EconomicModel::BidBased => PolicyKind::BID_BASED.to_vec(),
    }
}

/// The one way to run grids, from one grid to the four-grid study.
/// `.control(&ctl)` adds [`GridControl`]'s journal, budgets, drills and
/// supervisor; `.base(&base)` runs over other base jobs (Lublin, diurnal,
/// SWF imports). One [`GridRun::run`] is one run,
/// planned whole: a cell whose inputs equal an earlier cell's, in any of
/// its grids, takes that cell's result instead of simulating. Its grids
/// share one journal and, under a supervisor, one fleet, spawned by the
/// first grid with cells to run and closed after the last.
#[derive(Clone, Copy)]
pub struct GridRun<'a> {
    cfg: &'a ExperimentConfig,
    ctl: Option<&'a GridControl>,
    base: Option<&'a [BaseJob]>,
}

/// Why a run without control cannot be refused: it has nothing to check.
pub(crate) const IN_PROCESS: &str = "an in-process run without control passes every check";

impl<'a> GridRun<'a> {
    /// An in-process run under `cfg`, without a journal.
    pub fn new(cfg: &'a ExperimentConfig) -> Self {
        GridRun {
            cfg,
            ctl: None,
            base: None,
        }
    }

    /// Runs under `ctl`.
    pub fn control(mut self, ctl: &'a GridControl) -> Self {
        self.ctl = Some(ctl);
        self
    }

    /// Runs over `base`; a fleet's workers synthesise theirs from
    /// `cfg.trace`, so under a supervisor it must equal that trace.
    pub fn base(mut self, base: &'a [BaseJob]) -> Self {
        self.base = Some(base);
        self
    }

    /// The checks the settings alone decide, each naming the field at
    /// fault: a valid supervisor and, on a fleet, no seed ensembles and no
    /// base jobs but the trace its workers synthesise.
    pub fn check(&self) -> Result<(), ConfigError> {
        let Some(sup) = self.ctl.and_then(|ctl| ctl.supervisor.as_ref()) else {
            return Ok(());
        };
        sup.validate()?;
        if self.cfg.replicas > 1 {
            return Err(ConfigError::new(
                "--replicas",
                "seed ensembles run in-process only; drop --workers/--remote or use --replicas 1",
            ));
        }
        let foreign = |base: &[BaseJob]| *base != self.cfg.trace.generate(self.cfg.seed)[..];
        if self.base.is_some_and(foreign) {
            return Err(ConfigError::new(
                "base",
                "a fleet's workers synthesise the trace model's base jobs; run others in-process",
            ));
        }
        Ok(())
    }

    /// Runs `grids` in order. A cell that panics or blows its budget is a
    /// [`CellError`] on its grid, never an abort; a setting the run
    /// refuses is an error before any cell runs, any worker spawns or any
    /// file is written.
    pub fn run(&self, grids: &[(EconomicModel, EstimateSet)]) -> Result<Vec<RawGrid>, ConfigError> {
        Ok(self.open(grids)?.collect())
    }

    /// Checks every setting, then opens the run over `grids`: its journal
    /// (adopting the shard journals a crashed run left), its plan, and its
    /// fleet, which spawns nothing until a grid has cells to run.
    pub(crate) fn open(
        &self,
        grids: &[(EconomicModel, EstimateSet)],
    ) -> Result<OpenRun<'a>, ConfigError> {
        self.check()?;
        if grids
            .iter()
            .enumerate()
            .any(|(i, g)| grids[..i].contains(g))
        {
            return Err(ConfigError::new("grids", "a run lists each grid once"));
        }
        let ctl = self.ctl.map_or_else(Cow::default, Cow::Borrowed);
        let fleet = match &ctl.supervisor {
            Some(sup) => Some(Fleet::open(sup, &ctl, self.cfg)?),
            None => None,
        };
        let journal = match ctl.journal.as_deref() {
            Some(path) => {
                let mut journal = Journal::open(path).map_err(|e| {
                    let message = format!("cannot open journal {}: {e}", path.display());
                    ConfigError::new("--resume", message)
                })?;
                let _ = journal.merge_shards();
                Some(journal)
            }
            None => None,
        };
        let base = match (&fleet, self.base) {
            (Some(_), _) => None,
            (None, Some(base)) => Some(Cow::Borrowed(base)),
            (None, None) => Some(Cow::Owned(self.cfg.trace.generate(self.cfg.seed))),
        };
        let local = fleet.is_none();
        let (fold, plans) = GridFold::plan(grids, self.cfg, ctl, journal, local);
        Ok(OpenRun {
            cfg: self.cfg,
            base,
            plans: plans.into_iter().enumerate(),
            fold,
            fleet,
        })
    }
}

/// One grid over `base` under `ctl`, panicking where [`GridRun::run`]
/// returns an error. It exists only because `perfbench/tracer` calls it;
/// the change that next edits the benchmark deletes it. Use [`GridRun`].
pub fn run_grid_with_base_ctl(
    econ: EconomicModel,
    set: EstimateSet,
    cfg: &ExperimentConfig,
    base: &[BaseJob],
    ctl: &GridControl,
) -> RawGrid {
    let run = GridRun::new(cfg).control(ctl).base(base);
    run.run(&[(econ, set)])
        .expect("grid settings must pass GridRun::check")
        .remove(0)
}

/// A run in progress, planned whole: an iterator over its grids in run
/// order. Dropping it closes the fleet, then folds the fleet's shard
/// journals into the run's journal.
pub(crate) struct OpenRun<'a> {
    cfg: &'a ExperimentConfig,
    /// The base trace of an in-process run; a fleet's workers and its
    /// in-process fallback synthesise theirs from `cfg.trace`.
    base: Option<Cow<'a, [BaseJob]>>,
    /// The cells each grid simulates, by grid index: its representatives
    /// and drill cells, in plan order.
    plans: std::iter::Enumerate<std::vec::IntoIter<Vec<CellSpec>>>,
    fold: GridFold<'a>,
    pub(crate) fleet: Option<Fleet>,
}

impl Drop for OpenRun<'_> {
    /// On a clean run the merge only deletes the shards (their records
    /// were journaled as CellOk frames arrived); after frame loss it
    /// adopts the stragglers.
    fn drop(&mut self) {
        let Some(fleet) = self.fleet.take() else {
            return;
        };
        // Closing the fleet ends every worker session, so no shard is
        // still being written.
        drop(fleet);
        if let Some(journal) = self.fold.journal.as_mut() {
            let _ = journal.merge_shards();
        }
    }
}

impl Iterator for OpenRun<'_> {
    type Item = RawGrid;

    /// Runs the next grid: simulates its planned cells with `run_cell` (on
    /// local threads or the fleet's workers) over the grid's own workload
    /// cache, folding each into the run's [`GridFold`] as it resolves.
    fn next(&mut self) -> Option<RawGrid> {
        let (g, cells) = self.plans.next()?;
        let started = Instant::now();
        let cache = match &self.base {
            Some(base) => WorkloadCache::with_base(self.cfg, base),
            None => WorkloadCache::new(self.cfg),
        };
        let env = CellEnv {
            cfg: self.cfg,
            ctl: &self.fold.ctl,
            cache: &cache,
            threads: if self.cfg.threads == 0 {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
            } else {
                self.cfg.threads
            },
        };
        let (busy, transports) = match self.fleet.as_mut() {
            Some(fleet) => fleet.run_cells(cells, &env, &self.fold),
            None => (run_local(&cells, &env, &self.fold, true), Vec::new()),
        };
        Some(self.fold.finish(g, started, busy, transports, &cache))
    }
}

/// Feeds grid-level timings into the global telemetry registry, if on.
/// Per-cell series are fed by [`GridFold::record`] as cells resolve.
fn record_grid_telemetry(grid: &RawGrid) {
    if !ccs_telemetry::enabled() {
        return;
    }
    let t = ccs_telemetry::global();
    t.histogram("grid.wall.duration_ns")
        .record_f64(grid.wall_secs * 1e9);
    for &busy in &grid.worker_busy_secs {
        t.histogram("grid.worker.busy_ns").record_f64(busy * 1e9);
    }
    t.counter("grid.workload.cache_hits")
        .add(grid.workload_cache_hits);
    t.counter("grid.workload.cache_misses")
        .add(grid.workload_cache_misses);
    t.counter("grid.cells.reused").add(grid.cells_reused);
    t.counter("grid.cells.derived").add(grid.cells_derived);
    t.counter("grid.cells.rebilled").add(grid.cells_rebilled);
}

/// Deliberately panics a chosen cell — the fault-injection backdoor the
/// robustness tests (and CI) use to prove a broken policy cannot take down
/// a whole grid run. Format: `"scenarioIdx:valueIdx:PolicyName"`. Read
/// once by the CLI into [`GridControl::fail_cell`] for the subcommands
/// that run grids under control; a label that names no cell is refused
/// there, naming the variable.
pub(crate) const FAIL_CELL_ENV: &str = "CCS_FAIL_CELL";

/// Deliberately wedges a chosen cell with a never-quiescing policy — the
/// watchdog drill proving a stuck cell is cancelled into a Budget-kind
/// [`CellError`] while the rest of the grid completes. Same
/// `"scenarioIdx:valueIdx:PolicyName"` format as [`FAIL_CELL_ENV`], read
/// the same way into [`GridControl::stall_cell`].
pub(crate) const STALL_CELL_ENV: &str = "CCS_STALL_CELL";

/// Renders a violation list as a one-line cell-error message (first three
/// violations verbatim, the rest counted).
fn violation_summary(violations: &[Violation]) -> String {
    let shown: Vec<String> = violations.iter().take(3).map(|v| v.to_string()).collect();
    let mut s = format!("{} violation(s): {}", violations.len(), shown.join("; "));
    if violations.len() > 3 {
        s.push_str(&format!(" (+{} more)", violations.len() - 3));
    }
    s
}

/// What a cell resolved to: `Ok((objectives, events))` on completion,
/// `Err((kind, message))` when the cell panicked, blew its budget, or
/// violated invariants.
pub(crate) type CellOutcome = Result<([f64; 4], u64), (CellErrorKind, String)>;

/// One simulated cell, before it is folded into a grid: the outcome (or a
/// typed failure), the replica spread, wall-clock seconds, and the
/// profile-derived cost.
pub(crate) struct SimulatedCell {
    /// The cell's outcome. With several replicas the objectives are the
    /// replica mean μ and the events are summed.
    pub outcome: CellOutcome,
    /// Population standard deviation of each objective across replicas.
    /// Zeros when only one replica ran or any replica failed.
    pub sigma: [f64; 4],
    /// Wall-clock seconds spent in the cell.
    pub secs: f64,
    /// Phase cost vector (zeros unless the `profile` feature is on).
    pub cost: CellCost,
    /// The cell's profile snapshot (empty unless profiled).
    pub profile: ProfileSnapshot,
    /// Whether every replica ran plain Libra to success with its
    /// [`ccs_simsvc::RunOutput::riskd_equivalent`] certificate intact: the
    /// same point's LibraRiskD cell is then this very result. False for
    /// every other cell, and for failed, restored, reused and
    /// worker-reported ones.
    pub riskd_equivalent: bool,
    /// The cells this cell's run billed ([`Run::rebill`]), in the order
    /// they were handed to it. Empty when the run failed: its cells then
    /// share its failure.
    pub rebilled: Vec<SimulatedCell>,
}

impl SimulatedCell {
    /// A cell that resolved to `outcome` and `sigma` without simulating
    /// anything here: no wall time, cost, or profile.
    fn resolved(outcome: CellOutcome, sigma: [f64; 4]) -> SimulatedCell {
        SimulatedCell {
            outcome,
            sigma,
            secs: 0.0,
            cost: CellCost::default(),
            profile: ProfileSnapshot::default(),
            riskd_equivalent: false,
            rebilled: Vec::new(),
        }
    }

    /// A cell that failed without being simulated here: a failure a
    /// worker reported, or the supervisor's quarantine verdict.
    pub(crate) fn failed(kind: CellErrorKind, message: String) -> SimulatedCell {
        SimulatedCell::resolved(Err((kind, message)), [0.0; 4])
    }

    /// A cell restored from its journal line instead of re-simulated.
    pub(crate) fn restored(rec: &CellRecord) -> SimulatedCell {
        SimulatedCell {
            secs: rec.secs,
            ..SimulatedCell::resolved(Ok((rec.objectives, rec.events)), rec.sigma)
        }
    }

    /// This cell's result as a cell that reuses it records it: the same
    /// outcome and spread — the reusing cell simulated nothing.
    fn reused(&self) -> SimulatedCell {
        SimulatedCell::resolved(self.outcome.clone(), self.sigma)
    }

    /// A cell billed over a run of `events` outcome events: the bill's
    /// objectives, or an invariant failure when the bill was refused or
    /// breaks an invariant. Like a reused cell it simulated nothing.
    fn billed(bill: &Result<Rebilled, RebillError>, events: u64) -> SimulatedCell {
        let outcome = match bill {
            Ok(b) if b.violations.is_empty() => Ok((b.metrics.objectives(), events)),
            Ok(b) => Err((CellErrorKind::Invariant, violation_summary(&b.violations))),
            Err(e) => Err((CellErrorKind::Invariant, e.to_string())),
        };
        SimulatedCell::resolved(outcome, [0.0; 4])
    }

    /// The journal line of this cell, run by `worker`, or `None` for a
    /// cell that must not be journaled: a failed one (a resume retries
    /// it) or a stall-drill one (its numbers come from the stuck fixture).
    pub(crate) fn journal_record(
        &self,
        spec: &CellSpec,
        worker: u64,
        ctl: &GridControl,
    ) -> Option<CellRecord> {
        let (objectives, events) = *self.outcome.as_ref().ok()?;
        if ctl.stalls(&spec.label()) {
            return None;
        }
        Some(CellRecord {
            key: spec.key.clone(),
            scenario_idx: spec.scenario_idx,
            value_idx: spec.value_idx,
            policy: spec.policy.name().to_string(),
            objectives,
            sigma: self.sigma,
            secs: self.secs,
            events,
            worker,
        })
    }
}

/// A cell's workload, then the workloads of the cells its run bills.
type CellJobs = (Arc<Vec<Job>>, Vec<Arc<Vec<Job>>>);

/// Simulates one replica of one grid cell under `ctl`'s budget and
/// drills, billing the run for the other workloads `get_jobs` returns.
/// Jobs are fetched through `get_jobs` inside the cell's profile span so
/// workload synthesis is attributed to the cell; panics are caught and
/// returned as typed failures, never propagated.
fn simulate_cell(
    kind: PolicyKind,
    run_cfg: &RunConfig,
    fault: Option<&FaultConfig>,
    ctl: &GridControl,
    cell_label: &str,
    get_jobs: impl FnOnce() -> CellJobs,
) -> SimulatedCell {
    let t0 = Instant::now();
    // The cell phase spans workload synthesis + the simulation run; a
    // panicking cell unwinds its inner guards, so the accumulator stays
    // consistent and `take()` below always isolates this cell.
    let cell_phase = ccs_telemetry::profile::enter("cell");
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        assert!(
            !ctl.fails(cell_label),
            "{FAIL_CELL_ENV} injected panic in cell {cell_label}"
        );
        let (jobs, billed) = get_jobs();
        let run_budget = ctl.run_budget();
        let (policy, budget): (Box<dyn Policy>, RunBudget) = if ctl.stalls(cell_label) {
            // Watchdog drill: swap in a policy whose event horizon never
            // empties. An unguarded drain against it would spin forever,
            // so the drill always runs with *some* budget.
            let budget = if run_budget.is_unlimited() {
                RunBudget {
                    max_wall_secs: Some(5.0),
                    max_events: Some(1_000_000),
                }
            } else {
                run_budget
            };
            (Box::new(StuckPolicy::new()), budget)
        } else {
            (build_policy(kind, run_cfg.econ, run_cfg.nodes), run_budget)
        };
        let run = Run::with_policy(&jobs, policy, run_cfg)
            .fault(fault)
            .budget(budget)
            .rebill(billed.iter().map(|jobs| jobs.as_slice()).collect());
        // Debug builds (tests, the hardened CI leg) check every cell's
        // invariants; the check is a post-pass, so results are unchanged.
        let run = if cfg!(debug_assertions) {
            run.check()
        } else {
            run
        };
        run.execute()
    }));
    drop(cell_phase);
    let secs = t0.elapsed().as_secs_f64();
    let profile = ccs_telemetry::profile::take();
    let cost = CellCost::from_snapshot(&profile);
    let riskd_equivalent = matches!(
        &outcome,
        Ok(Ok(run)) if run.violations.is_empty() && run.riskd_equivalent == Some(true)
    );
    let mut rebilled = Vec::new();
    let outcome = match outcome {
        Ok(Ok(run)) if run.violations.is_empty() => {
            rebilled = run
                .rebilled
                .iter()
                .map(|bill| SimulatedCell::billed(bill, run.events))
                .collect();
            Ok((run.result.metrics.objectives(), run.events))
        }
        Ok(Ok(run)) => Err((CellErrorKind::Invariant, violation_summary(&run.violations))),
        Ok(Err(RunError::Budget(e))) => Err((CellErrorKind::Budget, e.to_string())),
        // Bad input files under the panic kind, with the message `simulate` panics with.
        Ok(Err(e)) => Err((CellErrorKind::Panic, e.to_string())),
        Err(payload) => Err((CellErrorKind::Panic, panic_message(payload))),
    };
    SimulatedCell {
        outcome,
        sigma: [0.0; 4],
        secs,
        cost,
        profile,
        riskd_equivalent,
        rebilled,
    }
}

/// Deterministic fork of the fault seed for ensemble replica `replica`
/// (SplitMix64 finaliser): decorrelates the replicas' failure weather from
/// the base stream and from each other, while staying a pure function of
/// `(seed, replica)` so the ensemble is reproducible.
pub(crate) fn fork_replica_seed(seed: u64, replica: u64) -> u64 {
    let mut z = seed ^ replica.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs one grid cell as an ensemble of `replicas` seed replicas over one
/// shared workload, fanned across a scoped pool of at most `pool` threads.
///
/// Replica 0 keeps the cell's own fault stream, so `replicas <= 1`
/// delegates straight to [`simulate_cell`] — byte-identical to a plain
/// run. Replicas `1..` fork independent fault seeds via
/// [`fork_replica_seed`]; workload, policy, and budgets are shared, and
/// each replica's run bills the same replica of every billed cell.
/// Results are merged in fixed replica-index order, so μ/σ, event totals,
/// and cost vectors are byte-identical regardless of `pool` — the same
/// determinism contract the grid's local executor honours.
#[allow(clippy::too_many_arguments)]
fn simulate_cell_ensemble(
    kind: PolicyKind,
    run_cfg: &RunConfig,
    fault: Option<&FaultConfig>,
    ctl: &GridControl,
    cell_label: &str,
    replicas: usize,
    pool: usize,
    get_jobs: impl FnOnce() -> CellJobs,
) -> SimulatedCell {
    if replicas <= 1 {
        return simulate_cell(kind, run_cfg, fault, ctl, cell_label, get_jobs);
    }
    let t0 = Instant::now();
    // Synthesise (or fetch) the shared workloads once, up front, so every
    // replica reuses one memoised trace; attribute it to this cell.
    let cell_phase = ccs_telemetry::profile::enter("cell");
    let jobs = std::panic::catch_unwind(AssertUnwindSafe(get_jobs));
    drop(cell_phase);
    let mut profile = ccs_telemetry::profile::take();
    let mut cost = CellCost::from_snapshot(&profile);
    let jobs = match jobs {
        Ok(jobs) => jobs,
        Err(payload) => {
            return SimulatedCell {
                secs: t0.elapsed().as_secs_f64(),
                cost,
                profile,
                ..SimulatedCell::failed(CellErrorKind::Panic, panic_message(payload))
            }
        }
    };
    let faults: Vec<Option<FaultConfig>> = (0..replicas)
        .map(|r| {
            fault.map(|f| {
                let mut f = *f;
                if r > 0 {
                    f.seed = fork_replica_seed(f.seed, r as u64);
                }
                f
            })
        })
        .collect();
    let slots: Vec<Mutex<Option<SimulatedCell>>> =
        (0..replicas).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let pool = pool.clamp(1, replicas);
    std::thread::scope(|scope| {
        for _ in 0..pool {
            let slots = &slots;
            let next = &next;
            let faults = &faults;
            let jobs = &jobs;
            scope.spawn(move || loop {
                let r = next.fetch_add(1, Ordering::Relaxed);
                if r >= replicas {
                    break;
                }
                let sim = simulate_cell(kind, run_cfg, faults[r].as_ref(), ctl, cell_label, || {
                    jobs.clone()
                });
                *slots[r].lock().unwrap() = Some(sim);
            });
        }
    });
    let mut sims: Vec<SimulatedCell> = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap()
                .expect("every replica slot is filled")
        })
        .collect();
    // Merge in fixed replica-index order: sums, profiles, and the
    // first-error tiebreak never depend on pool interleaving.
    for sim in &sims {
        if !sim.profile.is_empty() {
            profile.merge(&sim.profile);
        }
        for (acc, ns) in cost.phase_ns.iter_mut().zip(sim.cost.phase_ns) {
            *acc += ns;
        }
        cost.peak_queue_depth = cost.peak_queue_depth.max(sim.cost.peak_queue_depth);
    }
    let (outcome, sigma) = merge_replicas(sims.iter().map(|sim| &sim.outcome));
    // A failed replica fails the cell, and with it every cell it billed;
    // otherwise each replica billed every cell, merged like the cell.
    let rebilled = match outcome {
        Err(_) => Vec::new(),
        Ok(_) => {
            let bills: Vec<Vec<SimulatedCell>> = sims
                .iter_mut()
                .map(|sim| std::mem::take(&mut sim.rebilled))
                .collect();
            (0..bills[0].len())
                .map(|i| {
                    let (outcome, sigma) = merge_replicas(bills.iter().map(|b| &b[i].outcome));
                    SimulatedCell::resolved(outcome, sigma)
                })
                .collect()
        }
    };
    SimulatedCell {
        outcome,
        sigma,
        secs: t0.elapsed().as_secs_f64(),
        cost,
        profile,
        riskd_equivalent: sims.iter().all(|sim| sim.riskd_equivalent),
        rebilled,
    }
}

/// Merges replica outcomes, in replica order, into the replica mean μ
/// with summed events and the per-objective population spread σ, or the
/// first failure (with σ zero).
fn merge_replicas<'c>(
    outcomes: impl Iterator<Item = &'c CellOutcome> + Clone,
) -> (CellOutcome, [f64; 4]) {
    let mut sum = [0.0f64; 4];
    let mut events = 0u64;
    let mut n = 0usize;
    for outcome in outcomes.clone() {
        match outcome {
            Ok((objectives, n_events)) => {
                for (acc, x) in sum.iter_mut().zip(objectives) {
                    *acc += x;
                }
                events += n_events;
                n += 1;
            }
            Err(e) => return (Err(e.clone()), [0.0; 4]),
        }
    }
    let n = n as f64;
    let mu = [sum[0] / n, sum[1] / n, sum[2] / n, sum[3] / n];
    let mut sigma = [0.0f64; 4];
    for (k, s) in sigma.iter_mut().enumerate() {
        let ss: f64 = outcomes
            .clone()
            .map(|outcome| {
                let x = outcome.as_ref().expect("no replica failed").0[k];
                (x - mu[k]) * (x - mu[k])
            })
            .sum();
        *s = (ss / n).sqrt();
    }
    (Ok((mu, events)), sigma)
}

/// Runs one policy cell as an in-process seed ensemble over a
/// caller-provided workload — the public face of
/// `simulate_cell_ensemble` for benchmarks and diagnostics, bypassing
/// the grid machinery (journals, budgets, drills).
///
/// Returns `Ok((mu, sigma, events))` — the replica-mean objectives, their
/// population spread, and the summed event count — or the first replica
/// failure, formatted. Deterministic in `(jobs, kind, run_cfg, fault,
/// replicas)` regardless of `pool`.
pub fn run_cell_ensemble(
    jobs: Arc<Vec<Job>>,
    kind: PolicyKind,
    run_cfg: &RunConfig,
    fault: Option<&FaultConfig>,
    replicas: usize,
    pool: usize,
) -> Result<([f64; 4], [f64; 4], u64), String> {
    let cell = simulate_cell_ensemble(
        kind,
        run_cfg,
        fault,
        &GridControl::default(),
        "ensemble-cell",
        replicas.max(1),
        pool.max(1),
        move || (jobs, Vec::new()),
    );
    match cell.outcome {
        Ok((mu, events)) => Ok((mu, cell.sigma, events)),
        Err((kind, msg)) => Err(format!("{kind:?}: {msg}")),
    }
}

/// What every cell of one grid shares: the configuration, the control
/// (per-cell budgets and drills), the workload cache, and the thread
/// budget.
pub(crate) struct CellEnv<'a> {
    /// Seed, cluster size, trace model, and replica count.
    pub cfg: &'a ExperimentConfig,
    /// Per-cell watchdog budget and fault-injection drills.
    pub ctl: &'a GridControl,
    /// Memoised scenario workloads.
    pub cache: &'a WorkloadCache,
    /// Local executor threads; also the width of each cell's replica pool.
    pub threads: usize,
}

/// What one cell's simulation consumes besides the run-level settings
/// (seed, cluster size, trace model, replicas, budgets): the economic
/// model, the policy, the scenario's workload transform, and its fault
/// process. [`run_cell`] simulates exactly these, so two cells of one run
/// with equal inputs produce the same bits — which is what lets
/// [`GridFold::plan`] simulate one of them and reuse its result for the
/// other.
#[derive(Clone, Copy, Debug)]
struct CellInputs {
    econ: EconomicModel,
    policy: PolicyKind,
    transform: ScenarioTransform,
    fault: Option<FaultConfig>,
}

impl CellInputs {
    fn of(spec: &CellSpec, seed: u64) -> CellInputs {
        let scenario = Scenario::ALL[spec.scenario_idx];
        let value = scenario.values()[spec.value_idx];
        CellInputs {
            econ: spec.econ,
            policy: spec.policy,
            transform: scenario.transform(spec.set, value),
            fault: scenario.fault(value, seed),
        }
    }

    /// The content key: the economic model, the policy, and the point —
    /// the workload transform and fault process — interned in `points` by
    /// its debug rendering, which spells out every field at full float
    /// precision (the workload cache keys the same way). A paper run's
    /// 1560 cells have ~120 distinct points, so interning keeps the plan's
    /// transient keys small: a key string per cell raised peak RSS by
    /// ~0.7 MiB at paper scale.
    fn content_key(
        &self,
        points: &mut HashMap<String, usize>,
    ) -> (EconomicModel, PolicyKind, usize) {
        let next = points.len();
        let point = format!("{:?}", (&self.transform, &self.fault));
        (self.econ, self.policy, *points.entry(point).or_insert(next))
    }

    /// The trajectory key: the content key of these inputs as a policy
    /// that reads only `reads` sees them ([`ScenarioTransform::project`]).
    /// Cells with equal trajectory keys drive their policy through the
    /// same run, so one run bills them all.
    fn trajectory_key(
        &self,
        reads: JobFields,
        points: &mut HashMap<String, usize>,
    ) -> (EconomicModel, PolicyKind, usize) {
        let projected = CellInputs {
            transform: self.transform.project(reads),
            ..*self
        };
        projected.content_key(points)
    }
}

/// Turns one cell into a [`SimulatedCell`]: derives its [`CellInputs`] and
/// [`RunConfig`], fetches the cached workloads, and runs the replica
/// ensemble, whose runs also bill the cells of `billed` (see
/// [`GridFold::billed_by`]) into [`SimulatedCell::rebilled`]. The single
/// simulation path of every execution mode: local threads, the
/// supervisor's fallback, and worker processes all call it.
pub(crate) fn run_cell(spec: &CellSpec, billed: &[&CellSpec], env: &CellEnv) -> SimulatedCell {
    let inputs = CellInputs::of(spec, env.cfg.seed);
    let run_cfg = RunConfig {
        nodes: env.cfg.nodes,
        econ: inputs.econ,
    };
    simulate_cell_ensemble(
        inputs.policy,
        &run_cfg,
        inputs.fault.as_ref(),
        env.ctl,
        &spec.label(),
        env.cfg.replicas.max(1),
        env.threads,
        || {
            let billed = billed
                .iter()
                .map(|spec| {
                    env.cache
                        .workload(&CellInputs::of(spec, env.cfg.seed).transform)
                })
                .collect();
            (env.cache.workload(&inputs.transform), billed)
        },
    )
}

/// The debug shadow check of re-billing: simulates each cell of `billed`
/// on its own and asserts that its objectives, spread and event count
/// equal those `sim`'s run billed it, bit for bit. Cells whose bill failed
/// are not compared. Reads workloads without counting cache lookups, so
/// the checked and the unchecked run report the same counters.
fn shadow_check_rebilled(billed: &[&CellSpec], sim: &SimulatedCell, env: &CellEnv) {
    let bits = |x: [f64; 4]| x.map(f64::to_bits);
    for (spec, bill) in billed.iter().zip(&sim.rebilled) {
        let Ok((objectives, events)) = bill.outcome else {
            continue;
        };
        let inputs = CellInputs::of(spec, env.cfg.seed);
        let jobs = env
            .cache
            .peek(&inputs.transform)
            .expect("a billed cell's workload was fetched to bill it");
        let run_cfg = RunConfig {
            nodes: env.cfg.nodes,
            econ: inputs.econ,
        };
        let own = simulate_cell_ensemble(
            inputs.policy,
            &run_cfg,
            inputs.fault.as_ref(),
            &GridControl::default(),
            &spec.label(),
            env.cfg.replicas.max(1),
            env.threads,
            || (jobs, Vec::new()),
        );
        let label = spec.label();
        let (own_objectives, own_events) = own
            .outcome
            .unwrap_or_else(|e| panic!("re-billed cell {label} fails on its own: {e:?}"));
        assert_eq!(
            bits(objectives),
            bits(own_objectives),
            "re-billed cell {label}"
        );
        assert_eq!(bits(bill.sigma), bits(own.sigma), "re-billed cell {label}");
        assert_eq!(events, own_events, "re-billed cell {label}");
    }
}

/// Every cell of one grid, in point-major order (scenario, value, policy).
fn grid_cells(econ: EconomicModel, set: EstimateSet, cfg: &ExperimentConfig) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for scenario_idx in 0..Scenario::ALL.len() {
        for value_idx in 0..6 {
            for policy in policies_for(econ) {
                cells.push(CellSpec {
                    econ,
                    set,
                    scenario_idx,
                    value_idx,
                    policy,
                    key: cell_key(econ, set, cfg, scenario_idx, value_idx, policy),
                });
            }
        }
    }
    cells
}

/// The run's fold: its plan (which cell represents each content key, and
/// which cells alias it) and the state of every grid of the run. Each
/// resolved cell lands here, with its aliases in any grid, in the
/// [`RawGrid`] arrays, the journal and its grid's live board. Thread-safe, so the
/// local executor's threads and the supervisor's event loop share it.
pub(crate) struct GridFold<'a> {
    journal: Option<Journal>,
    /// Each grid's live board, by grid index.
    boards: Vec<LiveRiskBoard>,
    /// The run's grids, in run order.
    grids: Vec<(EconomicModel, EstimateSet)>,
    /// The aliases, in any grid, of each representative that has some, by
    /// the representative's cell key. Fixed once planning ends.
    families: HashMap<String, Vec<CellSpec>>,
    /// Held-back LibraRiskD representatives, by the key of their point's
    /// Libra cell. Fixed once planning ends.
    held: HashMap<String, CellSpec>,
    /// The cells each representative's run bills instead of simulating
    /// them, by the representative's cell key: the later cells of its
    /// trajectory key. Fixed once planning ends.
    siblings: HashMap<String, Vec<CellSpec>>,
    /// The run's control: its budgets and drills (stall-drill cells are
    /// never journaled).
    ctl: Cow<'a, GridControl>,
    state: Mutex<FoldState>,
    /// Start of the progress bar, when one is drawn.
    progress: Option<Instant>,
    /// `grid.cell.duration_ns` and `grid.cells.completed`, when telemetry
    /// is on.
    cell_telemetry: Option<(&'static Histogram, &'static Counter)>,
}

/// Why the fold's lock can be poisoned: a panic inside [`GridFold`] itself
/// (cell panics are caught before they reach it) — a bug, not a cell error.
const FOLD_POISONED: &str = "grid fold poisoned by a panic while locked";

struct FoldState {
    /// Each grid of the run, by grid index, until it finishes.
    grids: Vec<Option<GridState>>,
    /// Cells of the run folded so far, and how many will be (for the
    /// progress bar).
    folded: usize,
    expected: usize,
}

impl FoldState {
    /// Grid `g`, which takes cells until it finishes.
    fn grid(&mut self, g: usize) -> &mut GridState {
        self.grids[g]
            .as_mut()
            .expect("a grid takes cells until it finishes")
    }
}

/// One grid of a run, as its cells resolve.
struct GridState {
    grid: RawGrid,
    /// Resolved cells per point: a point reports to the board once all its
    /// policies have resolved.
    point_fill: Vec<Vec<usize>>,
}

impl GridState {
    /// Grid `(econ, set)` with every cell a placeholder.
    fn new(econ: EconomicModel, set: EstimateSet) -> Self {
        let policies = policies_for(econ);
        let (n_scen, n_pol) = (Scenario::ALL.len(), policies.len());
        GridState {
            grid: RawGrid {
                econ,
                set,
                policies,
                raw: vec![vec![vec![[0.0; 4]; n_pol]; 6]; n_scen],
                cell_sigma: vec![vec![vec![[0.0; 4]; n_pol]; 6]; n_scen],
                cell_secs: vec![vec![vec![0.0; n_pol]; 6]; n_scen],
                cell_events: vec![vec![vec![0; n_pol]; 6]; n_scen],
                cell_costs: vec![vec![vec![CellCost::default(); n_pol]; 6]; n_scen],
                cell_workers: vec![vec![vec![0; n_pol]; 6]; n_scen],
                profile: ProfileSnapshot::default(),
                workload_cache_hits: 0,
                workload_cache_misses: 0,
                cells_reused: 0,
                cells_derived: 0,
                cells_rebilled: 0,
                worker_busy_secs: Vec::new(),
                worker_transports: Vec::new(),
                wall_secs: 0.0,
                errors: Vec::new(),
            },
            point_fill: vec![vec![0; 6]; n_scen],
        }
    }

    /// Counts one more resolved cell of point `(s, v)` and reports the
    /// point to `board` when it is complete.
    fn resolve_point(&mut self, board: &LiveRiskBoard, s: usize, v: usize) {
        self.point_fill[s][v] += 1;
        if self.point_fill[s][v] == self.grid.policies.len() {
            board.record_point(&self.grid.raw[s][v]);
        }
    }
}

impl<'a> GridFold<'a> {
    /// Plans the run in one pass over `grids`, in run order. Per grid: it
    /// restores journal hits straight into the grid, truncates the rest to
    /// the cell budget, and dedupes what is left by content key across the
    /// run: the first cell of a key represents it, and every later cell
    /// with that key, in this grid or a later one, is its alias. Drill
    /// cells neither represent nor alias — the drill must hit the very cell
    /// it names.
    ///
    /// With `local` (the local executor), it then keys each grid's
    /// representatives by trajectory — the content key as the cell's
    /// policy sees it, its workload [projected](ScenarioTransform::project)
    /// onto the fields the policy [reads](ccs_policies::Policy::reads):
    /// the grid's first representative of a trajectory key runs, and its
    /// run bills every later one, its sibling. Keys stay within a grid
    /// because a sibling's workload is fetched through the grid's cache,
    /// which holds it until the grid ends. Last, it holds back each
    /// LibraRiskD representative whose point's Libra cell is a
    /// representative of the same grid, for [`GridFold::record`] to derive
    /// from that cell's run; the held cell's siblings travel with it.
    /// Returns the fold and, per grid, the cells left to simulate.
    pub(crate) fn plan(
        grids: &[(EconomicModel, EstimateSet)],
        cfg: &ExperimentConfig,
        ctl: Cow<'a, GridControl>,
        journal: Option<Journal>,
        local: bool,
    ) -> (Self, Vec<Vec<CellSpec>>) {
        let mut fold = GridFold::new(grids, ctl, journal);
        let mut points = HashMap::new();
        let mut reps: HashMap<_, String> = HashMap::new();
        let mut reads: HashMap<(EconomicModel, PolicyKind), JobFields> = HashMap::new();
        let mut plans = Vec::with_capacity(grids.len());
        for &(econ, set) in grids {
            let mut cells = Vec::new();
            for spec in grid_cells(econ, set, cfg) {
                match fold.journal.as_ref().and_then(|j| j.get(&spec.key)) {
                    Some(rec) => {
                        fold.fill(&spec, SimulatedCell::restored(rec), rec.worker);
                    }
                    None => cells.push(spec),
                }
            }
            // The cell budget (the "kill the run partway" hook) truncates
            // the work list, so the same cells run in every mode: cells past
            // it stay missing — placeholders, not journaled — and a resume
            // picks them up.
            if let Some(n) = fold.ctl.cell_budget {
                for spec in cells.split_off(n.min(cells.len())) {
                    fold.skip(&spec);
                }
            }
            let mut to_run = Vec::with_capacity(cells.len());
            let mut trajectories: HashMap<_, String> = HashMap::new();
            for spec in cells {
                if fold.ctl.targets(&spec.label()) {
                    to_run.push(spec);
                    continue;
                }
                let inputs = CellInputs::of(&spec, cfg.seed);
                let content = inputs.content_key(&mut points);
                if let Some(rep) = reps.get(&content) {
                    fold.families.entry(rep.clone()).or_default().push(spec);
                    continue;
                }
                reps.insert(content, spec.key.clone());
                if local {
                    let reads = *reads
                        .entry((spec.econ, spec.policy))
                        .or_insert_with(|| build_policy(spec.policy, spec.econ, cfg.nodes).reads());
                    let trajectory = inputs.trajectory_key(reads, &mut points);
                    if let Some(rep) = trajectories.get(&trajectory) {
                        fold.siblings.entry(rep.clone()).or_default().push(spec);
                        continue;
                    }
                    trajectories.insert(trajectory, spec.key.clone());
                }
                to_run.push(spec);
            }
            // A LibraRiskD run is Libra's run unless Libra picks a node at
            // risk, which only the Libra run can tell: its representative
            // waits for the Libra cell of its point. Drill cells, journal
            // hits and aliases are not representatives, so none of them is
            // held; every other cell left to run is a representative.
            if local {
                let point = |spec: &CellSpec| (spec.scenario_idx, spec.value_idx);
                let rep_of =
                    |spec: &CellSpec, kind| spec.policy == kind && !fold.ctl.targets(&spec.label());
                let libra: HashMap<_, String> = to_run
                    .iter()
                    .filter(|spec| rep_of(spec, PolicyKind::Libra))
                    .map(|spec| (point(spec), spec.key.clone()))
                    .collect();
                let mut held = HashMap::new();
                to_run.retain(|spec| match libra.get(&point(spec)) {
                    Some(key) if rep_of(spec, PolicyKind::LibraRiskD) => {
                        held.insert(key.clone(), spec.clone());
                        false
                    }
                    _ => true,
                });
                fold.held.extend(held);
            }
            plans.push(to_run);
        }
        (fold, plans)
    }

    /// An empty fold over `grids`, before anything is planned.
    fn new(
        grids: &[(EconomicModel, EstimateSet)],
        ctl: Cow<'a, GridControl>,
        journal: Option<Journal>,
    ) -> Self {
        let board = |&(econ, _): &(EconomicModel, EstimateSet)| {
            let policies = policies_for(econ).iter().map(|p| p.name().into()).collect();
            LiveRiskBoard::new(policies)
        };
        let expected = grids
            .iter()
            .map(|&(econ, _)| Scenario::ALL.len() * 6 * policies_for(econ).len())
            .sum();
        GridFold {
            journal,
            boards: grids.iter().map(board).collect(),
            grids: grids.to_vec(),
            families: HashMap::new(),
            held: HashMap::new(),
            siblings: HashMap::new(),
            ctl,
            state: Mutex::new(FoldState {
                grids: grids
                    .iter()
                    .map(|&(econ, set)| Some(GridState::new(econ, set)))
                    .collect(),
                folded: 0,
                expected,
            }),
            progress: progress::bar_enabled().then(Instant::now),
            cell_telemetry: ccs_telemetry::enabled().then(|| {
                let t = ccs_telemetry::global();
                (
                    t.histogram("grid.cell.duration_ns"),
                    t.counter("grid.cells.completed"),
                )
            }),
        }
    }

    /// The index of `spec`'s grid in the run.
    fn grid_of(&self, spec: &CellSpec) -> usize {
        let grid = (spec.econ, spec.set);
        let g = self.grids.iter().position(|&g| g == grid);
        g.expect("a cell belongs to a grid of its run")
    }

    /// Folds a cell past the cell budget: it keeps its placeholder.
    fn skip(&self, spec: &CellSpec) {
        let g = self.grid_of(spec);
        let mut st = self.state.lock().expect(FOLD_POISONED);
        st.expected -= 1;
        st.grid(g)
            .resolve_point(&self.boards[g], spec.scenario_idx, spec.value_idx);
    }

    /// The cells the run of `spec` bills: its siblings, then those of the
    /// LibraRiskD representative it holds back, if any. Empty on a fleet,
    /// whose plan has none.
    pub(crate) fn billed_by(&self, spec: &CellSpec) -> (&[CellSpec], &[CellSpec]) {
        let siblings = |key: &str| self.siblings.get(key).map_or(&[][..], Vec::as_slice);
        let held = self
            .held
            .get(&spec.key)
            .map_or(&[][..], |riskd| siblings(&riskd.key));
        (siblings(&spec.key), held)
    }

    /// Folds one resolved cell that `worker` ran (0 = unattributed) with
    /// its aliases and the cells its run billed (see
    /// [`GridFold::billed_by`]). Only here is a cell known to have been
    /// simulated in this run, so only a success here counts as a
    /// completed cell in telemetry. A Libra cell with a held-back
    /// LibraRiskD sibling then settles that sibling too: a certified
    /// success is folded into it as a derived cell, with the held cell's
    /// own billed cells, and anything else returns it for the caller to
    /// simulate next.
    pub(crate) fn record(
        &self,
        spec: &CellSpec,
        mut sim: SimulatedCell,
        worker: u64,
    ) -> Option<&CellSpec> {
        if let (Some((cell_ns, completed)), Ok(_)) = (self.cell_telemetry, &sim.outcome) {
            cell_ns.record_f64(sim.secs * 1e9);
            completed.inc();
        }
        let (siblings, held_siblings) = self.billed_by(spec);
        // A failed run fails every cell it would have billed.
        let mut bills: Vec<SimulatedCell> = match sim.outcome {
            Ok(_) => std::mem::take(&mut sim.rebilled),
            Err(_) => (0..siblings.len() + held_siblings.len())
                .map(|_| sim.reused())
                .collect(),
        };
        assert_eq!(
            bills.len(),
            siblings.len() + held_siblings.len(),
            "a run bills every cell it was handed"
        );
        let held_bills = bills.split_off(siblings.len());
        let riskd = self.held.get(&spec.key);
        let derived = (riskd.is_some() && sim.riskd_equivalent).then(|| sim.reused());
        self.settle(spec, sim, worker);
        self.settle_billed(siblings, bills, worker);
        let riskd = riskd?;
        match derived {
            Some(derived) => {
                let g = self.grid_of(riskd);
                self.state
                    .lock()
                    .expect(FOLD_POISONED)
                    .grid(g)
                    .grid
                    .cells_derived += 1;
                self.settle(riskd, derived, worker);
                self.settle_billed(held_siblings, held_bills, worker);
                None
            }
            None => Some(riskd),
        }
    }

    /// Folds each cell of `billed` with its bill from a run of `worker`.
    fn settle_billed(&self, billed: &[CellSpec], bills: Vec<SimulatedCell>, worker: u64) {
        for (spec, bill) in billed.iter().zip(bills) {
            let g = self.grid_of(spec);
            self.state
                .lock()
                .expect(FOLD_POISONED)
                .grid(g)
                .grid
                .cells_rebilled += 1;
            self.settle(spec, bill, worker);
        }
    }

    /// Folds one resolved cell, then fans its result out to the cell's
    /// aliases in every grid of the run, failures included.
    fn settle(&self, spec: &CellSpec, sim: SimulatedCell, worker: u64) {
        let aliases = self.families.get(&spec.key).map_or(&[][..], Vec::as_slice);
        let copy = sim.reused();
        self.record_one(spec, sim, worker);
        for alias in aliases {
            let g = self.grid_of(alias);
            self.state
                .lock()
                .expect(FOLD_POISONED)
                .grid(g)
                .grid
                .cells_reused += 1;
            self.record_one(alias, copy.reused(), worker);
        }
    }

    /// How many cells of the run resolving `cells` settles: each cell plus
    /// its aliases, in any grid.
    pub(crate) fn cells_settled_by(&self, cells: &[CellSpec]) -> usize {
        cells
            .iter()
            .map(|c| 1 + self.families.get(&c.key).map_or(0, Vec::len))
            .sum()
    }

    /// Journals one resolved cell, then writes it into its grid.
    fn record_one(&self, spec: &CellSpec, sim: SimulatedCell, worker: u64) {
        if let Some(j) = &self.journal {
            if let Some(rec) = sim.journal_record(spec, worker, &self.ctl) {
                j.append(&rec);
            }
        }
        let (folded, expected) = self.fill(spec, sim, worker);
        if let Some(started) = self.progress {
            let suffix = self.boards[self.grid_of(spec)].snapshot().progress_suffix();
            progress::draw_bar(folded, expected, started, &suffix);
        }
    }

    /// Writes one resolved cell into its grid's arrays — a failed cell as a
    /// [`CellError`] beside its placeholder — and feeds the board when the
    /// cell completes its point. Returns the run's `(folded, expected)`
    /// cell counts.
    fn fill(&self, spec: &CellSpec, sim: SimulatedCell, worker: u64) -> (usize, usize) {
        let gi = self.grid_of(spec);
        let mut guard = self.state.lock().expect(FOLD_POISONED);
        let st = &mut *guard;
        let g = &mut st.grid(gi).grid;
        let (s, v) = (spec.scenario_idx, spec.value_idx);
        let p = g
            .policies
            .iter()
            .position(|k| *k == spec.policy)
            .expect("cell policy belongs to the grid");
        g.cell_secs[s][v][p] = sim.secs;
        g.cell_costs[s][v][p] = sim.cost;
        g.cell_workers[s][v][p] = worker;
        if !sim.profile.is_empty() {
            g.profile.merge(&sim.profile);
        }
        match sim.outcome {
            Ok((objectives, events)) => {
                g.raw[s][v][p] = objectives;
                g.cell_sigma[s][v][p] = sim.sigma;
                g.cell_events[s][v][p] = events;
            }
            Err((kind, message)) => g.errors.push(CellError {
                scenario: Scenario::ALL[s].label(),
                scenario_idx: s,
                value_idx: v,
                policy: spec.policy.name().to_string(),
                kind,
                message,
            }),
        }
        st.folded += 1;
        st.grid(gi).resolve_point(&self.boards[gi], s, v);
        (st.folded, st.expected)
    }

    /// Completes grid `g`, whose cells have all resolved: sorts its
    /// errors, attaches the grid-level figures, and records grid
    /// telemetry.
    fn finish(
        &self,
        g: usize,
        started: Instant,
        worker_busy_secs: Vec<f64>,
        worker_transports: Vec<String>,
        cache: &WorkloadCache,
    ) -> RawGrid {
        let mut st = self.state.lock().expect(FOLD_POISONED);
        let mut grid = st.grids[g].take().expect("a grid finishes once").grid;
        drop(st);
        grid.errors.sort_by(|a, b| {
            (a.scenario_idx, a.value_idx, &a.policy).cmp(&(b.scenario_idx, b.value_idx, &b.policy))
        });
        grid.workload_cache_hits = cache.hits.load(Ordering::Relaxed);
        grid.workload_cache_misses = cache.misses.load(Ordering::Relaxed);
        grid.worker_busy_secs = worker_busy_secs;
        grid.worker_transports = worker_transports;
        grid.wall_secs = started.elapsed().as_secs_f64();
        record_grid_telemetry(&grid);
        grid
    }
}

/// The local executor: up to `env.threads` scoped threads pull cells in
/// plan order (point-major), run each with [`run_cell`], billing the
/// cells [`GridFold::billed_by`] names, and fold it. A held-back
/// LibraRiskD cell its Libra cell did not certify comes back from the
/// fold and runs next on the same thread. Under debug assertions every
/// bill the fold keeps is checked against a simulation of its own.
/// Cells carry their thread's 1-based id when `attribute` is set and
/// worker id 0 otherwise (the supervisor's fallback). Returns each
/// thread's busy seconds.
pub(crate) fn run_local(
    cells: &[CellSpec],
    env: &CellEnv,
    fold: &GridFold,
    attribute: bool,
) -> Vec<f64> {
    let next = AtomicUsize::new(0);
    let threads = env.threads.min(cells.len()).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (1..=threads as u64)
            .map(|id| {
                let next = &next;
                scope.spawn(move || {
                    let mut busy = 0.0f64;
                    let mut cell = cells.get(next.fetch_add(1, Ordering::Relaxed));
                    while let Some(spec) = cell {
                        let (siblings, held) = fold.billed_by(spec);
                        let billed: Vec<&CellSpec> = siblings.iter().chain(held).collect();
                        let sim = run_cell(spec, &billed, env);
                        if cfg!(debug_assertions) {
                            // The held cell's siblings keep their bills
                            // only if the run certified the held cell.
                            let kept = if sim.riskd_equivalent {
                                billed.len()
                            } else {
                                siblings.len()
                            };
                            shadow_check_rebilled(&billed[..kept], &sim, env);
                        }
                        busy += sim.secs;
                        cell = fold
                            .record(spec, sim, if attribute { id } else { 0 })
                            .or_else(|| cells.get(next.fetch_add(1, Ordering::Relaxed)));
                    }
                    busy
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("grid worker thread panicked"))
            .collect()
    })
}

/// Renders a caught panic payload as text (panics carry `&str` or `String`
/// in practice).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One in-process grid without control, run on its own.
#[cfg(test)]
pub(crate) fn one_grid(econ: EconomicModel, set: EstimateSet, cfg: &ExperimentConfig) -> RawGrid {
    GridRun::new(cfg).run(&[(econ, set)]).unwrap().remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// One grid under `ctl`, run on its own.
    fn grid_ctl(
        econ: EconomicModel,
        set: EstimateSet,
        cfg: &ExperimentConfig,
        ctl: &GridControl,
    ) -> RawGrid {
        let run = GridRun::new(cfg).control(ctl).run(&[(econ, set)]);
        run.unwrap().remove(0)
    }

    #[test]
    fn failure_rate_zero_point_matches_baseline_workload_point() {
        // The failure-rate scenario's zero-rate cell must reproduce the
        // default-workload cell of every other scenario's baseline exactly:
        // same jobs, no faults.
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(60)
        };
        let g = one_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
        let fr = Scenario::ALL
            .iter()
            .position(|s| *s == Scenario::FailureRate)
            .unwrap();
        // Workload scenario's value index 2 is the default delay factor
        // 0.25 — i.e. the exact baseline workload.
        assert_eq!(Scenario::Workload.values()[2], 0.25);
        let wl = Scenario::ALL
            .iter()
            .position(|s| *s == Scenario::Workload)
            .unwrap();
        assert_eq!(g.raw[fr][0], g.raw[wl][2]);
        // Nonzero failure rates must change at least one objective.
        assert_ne!(g.raw[fr][0], g.raw[fr][5], "failures had no effect");
    }

    #[test]
    fn journal_resume_reproduces_uninterrupted_grid() {
        let dir = std::env::temp_dir().join("ccs_grid_resume_test");
        let _ = std::fs::remove_dir_all(&dir);
        let journal = dir.join("journal.jsonl");
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(40)
        };
        let full = one_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);

        // "Kill" a journaled run after 30 cells ...
        let truncated = grid_ctl(
            EconomicModel::CommodityMarket,
            EstimateSet::A,
            &cfg,
            &GridControl {
                journal: Some(journal.clone()),
                cell_budget: Some(30),
                ..Default::default()
            },
        );
        assert!(truncated.errors.is_empty());
        let journaled = Journal::open(&journal).unwrap().loaded();
        assert_eq!(journaled, 30, "exactly the budgeted cells are journaled");

        // ... then resume: only the missing cells run, and the merged grid
        // is identical to the uninterrupted one.
        let resumed = grid_ctl(
            EconomicModel::CommodityMarket,
            EstimateSet::A,
            &cfg,
            &GridControl {
                journal: Some(journal.clone()),
                cell_budget: None,
                ..Default::default()
            },
        );
        assert_eq!(resumed.raw, full.raw);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_cell_is_confined_and_not_journaled() {
        let dir = std::env::temp_dir().join("ccs_grid_failcell_test");
        let _ = std::fs::remove_dir_all(&dir);
        let journal = dir.join("journal.jsonl");
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(40)
        };
        let g = grid_ctl(
            EconomicModel::CommodityMarket,
            EstimateSet::A,
            &cfg,
            &GridControl {
                journal: Some(journal.clone()),
                cell_budget: None,
                fail_cell: Some("0:1:SJF-BF".to_string()),
                ..Default::default()
            },
        );

        assert_eq!(g.errors.len(), 1, "exactly the injected cell fails");
        let e = &g.errors[0];
        assert_eq!((e.scenario_idx, e.value_idx), (0, 1));
        assert_eq!(e.policy, "SJF-BF");
        assert!(e.message.contains("injected panic"), "{}", e.message);
        // The failed cell holds a defined placeholder, not NaN.
        let p = g
            .policies
            .iter()
            .position(|k| k.name() == "SJF-BF")
            .unwrap();
        assert_eq!(g.raw[0][1][p], [0.0; 4]);
        // Every *other* cell completed and was journaled.
        let total = Scenario::ALL.len() * 6 * g.policies.len();
        assert_eq!(Journal::open(&journal).unwrap().loaded(), total - 1);

        // Resuming without the env var re-runs only the failed cell and
        // heals the grid.
        let healed = grid_ctl(
            EconomicModel::CommodityMarket,
            EstimateSet::A,
            &cfg,
            &GridControl {
                journal: Some(journal.clone()),
                cell_budget: Some(1),
                ..Default::default()
            },
        );
        assert!(healed.errors.is_empty());
        let full = one_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
        assert_eq!(healed.raw, full.raw);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grid_dimensions() {
        let cfg = ExperimentConfig::quick().with_jobs(60);
        let g = one_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
        assert_eq!(g.raw.len(), 13);
        assert_eq!(g.raw[0].len(), 6);
        assert_eq!(g.raw[0][0].len(), 5);
        assert_eq!(g.policy_names()[0], "FCFS-BF");
        assert!(g.errors.is_empty());
    }

    #[test]
    fn objective_values_in_legal_ranges() {
        let cfg = ExperimentConfig::quick().with_jobs(60);
        let g = one_grid(EconomicModel::BidBased, EstimateSet::B, &cfg);
        for s in &g.raw {
            for v in s {
                for p in v {
                    let [wait, sla, rel, prof] = *p;
                    assert!(wait >= 0.0);
                    assert!((0.0..=100.0).contains(&sla), "sla {sla}");
                    assert!((0.0..=100.0).contains(&rel), "rel {rel}");
                    assert!((0.0..=100.0 + 1e-9).contains(&prof), "prof {prof}");
                }
            }
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let one = ExperimentConfig {
            threads: 1,
            ..ExperimentConfig::quick().with_jobs(40)
        };
        let many = ExperimentConfig {
            threads: 4,
            ..ExperimentConfig::quick().with_jobs(40)
        };
        let a = one_grid(EconomicModel::CommodityMarket, EstimateSet::A, &one);
        let b = one_grid(EconomicModel::CommodityMarket, EstimateSet::A, &many);
        assert_eq!(a.raw, b.raw);
    }

    #[test]
    fn fork_replica_seed_is_deterministic_and_decorrelated() {
        assert_eq!(fork_replica_seed(42, 1), fork_replica_seed(42, 1));
        let forks: std::collections::HashSet<u64> =
            (1..64).map(|r| fork_replica_seed(42, r)).collect();
        assert_eq!(forks.len(), 63, "replica forks collide");
        assert!(!forks.contains(&42), "a fork reproduced the base seed");
        assert_ne!(fork_replica_seed(42, 1), fork_replica_seed(43, 1));
    }

    #[test]
    fn single_replica_grid_has_zero_sigma_and_replicas_clamp() {
        assert_eq!(ExperimentConfig::default().replicas, 1);
        assert_eq!(ExperimentConfig::quick().with_replicas(0).replicas, 1);
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(40)
        };
        let g = one_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
        assert!(g
            .cell_sigma
            .iter()
            .flatten()
            .flatten()
            .all(|s| *s == [0.0; 4]));
    }

    #[test]
    fn ensemble_grid_is_deterministic_across_thread_counts() {
        let one = ExperimentConfig {
            threads: 1,
            ..ExperimentConfig::quick().with_jobs(40).with_replicas(3)
        };
        let many = ExperimentConfig {
            threads: 4,
            ..ExperimentConfig::quick().with_jobs(40).with_replicas(3)
        };
        let a = one_grid(EconomicModel::CommodityMarket, EstimateSet::A, &one);
        let b = one_grid(EconomicModel::CommodityMarket, EstimateSet::A, &many);
        // The fixed replica-index merge order makes μ, σ, and the event
        // totals byte-identical no matter how the pools interleave.
        assert_eq!(a.raw, b.raw);
        assert_eq!(a.cell_sigma, b.cell_sigma);
        assert_eq!(a.cell_events, b.cell_events);
    }

    #[test]
    fn ensemble_spreads_fault_cells_and_averages_over_replicas() {
        let single = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(40)
        };
        let ensemble = single.with_replicas(3);
        let a = one_grid(EconomicModel::CommodityMarket, EstimateSet::A, &single);
        let b = one_grid(EconomicModel::CommodityMarket, EstimateSet::A, &ensemble);
        let fr = Scenario::ALL
            .iter()
            .position(|s| *s == Scenario::FailureRate)
            .unwrap();
        // Fault-free scenarios: every replica re-runs the identical
        // deterministic simulation, so the spread collapses and the mean
        // reproduces the single run (up to the mean's last-ulp rounding).
        for (s, per_value) in b.cell_sigma.iter().enumerate() {
            if s == fr {
                continue;
            }
            for (v, per_policy) in per_value.iter().enumerate() {
                for (p, sigma) in per_policy.iter().enumerate() {
                    assert!(sigma.iter().all(|x| x.abs() < 1e-9), "σ {sigma:?}");
                    for k in 0..4 {
                        let (x, mu) = (a.raw[s][v][p][k], b.raw[s][v][p][k]);
                        assert!(
                            (x - mu).abs() <= 1e-9 * x.abs().max(1.0),
                            "[{s}][{v}][{p}][{k}]: {x} vs {mu}"
                        );
                    }
                }
            }
        }
        // Nonzero failure rates: the forked fault streams give the
        // replicas genuinely different weather, so some spread survives.
        let spread: f64 = b.cell_sigma[fr][1..]
            .iter()
            .flatten()
            .flat_map(|s| s.iter())
            .sum();
        assert!(spread > 0.0, "ensemble produced no spread on fault cells");
        // Events accumulate across replicas.
        assert!(b.cell_events[fr][5][0] > a.cell_events[fr][5][0]);
    }

    #[test]
    fn ensemble_journal_resume_restores_mean_and_sigma() {
        let dir = std::env::temp_dir().join("ccs_grid_ensemble_resume_test");
        let _ = std::fs::remove_dir_all(&dir);
        let journal = dir.join("journal.jsonl");
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(30).with_replicas(2)
        };
        let full = one_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
        let truncated = grid_ctl(
            EconomicModel::CommodityMarket,
            EstimateSet::A,
            &cfg,
            &GridControl {
                journal: Some(journal.clone()),
                cell_budget: Some(30),
                ..Default::default()
            },
        );
        assert!(truncated.errors.is_empty());
        let resumed = grid_ctl(
            EconomicModel::CommodityMarket,
            EstimateSet::A,
            &cfg,
            &GridControl {
                journal: Some(journal.clone()),
                cell_budget: None,
                ..Default::default()
            },
        );
        assert_eq!(resumed.raw, full.raw);
        assert_eq!(resumed.cell_sigma, full.cell_sigma);
        // An ensemble journal must not satisfy a single-replica run: the
        // cell keys carry the replica count.
        let single = grid_ctl(
            EconomicModel::CommodityMarket,
            EstimateSet::A,
            &ExperimentConfig { replicas: 1, ..cfg },
            &GridControl {
                journal: Some(journal.clone()),
                cell_budget: Some(0),
                ..Default::default()
            },
        );
        assert!(
            single
                .raw
                .iter()
                .flatten()
                .flatten()
                .all(|r| *r == [0.0; 4]),
            "single-replica run reused ensemble journal cells"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn workload_cache_shares_identical_transforms() {
        let cfg = ExperimentConfig {
            threads: 1,
            ..ExperimentConfig::quick().with_jobs(40)
        };
        let g = one_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
        // One cache lookup per simulated cell — one per distinct content
        // key, i.e. per distinct (transform, fault) point and policy — and
        // one miss per distinct transform.
        let points: HashSet<String> = Scenario::ALL
            .iter()
            .flat_map(|s| {
                s.values().map(|v| {
                    format!(
                        "{:?}",
                        (s.transform(EstimateSet::A, v), s.fault(v, cfg.seed))
                    )
                })
            })
            .collect();
        assert_eq!(
            g.workload_cache_hits + g.workload_cache_misses,
            (points.len() * g.policies.len()) as u64
        );
        let transforms: std::collections::HashSet<String> = Scenario::ALL
            .iter()
            .flat_map(|s| {
                s.values()
                    .map(|v| format!("{:?}", s.transform(EstimateSet::A, v)))
            })
            .collect();
        assert_eq!(g.workload_cache_misses, transforms.len() as u64);
        // The failure-rate scenario sweeps only the fault process: all six
        // of its values share one transform, so at least five lookups hit.
        assert!(g.workload_cache_hits >= 5, "hits {}", g.workload_cache_hits);
        // Every simulated cell decides every job, so each records events.
        for per_value in &g.cell_events {
            for per_policy in per_value {
                for &e in per_policy {
                    assert!(e >= 40, "simulated cell recorded {e} events");
                }
            }
        }
    }

    /// The keys of the cells a local run of `grids` plans to re-bill.
    fn rebilled_keys(
        grids: &[(EconomicModel, EstimateSet)],
        cfg: &ExperimentConfig,
    ) -> HashSet<String> {
        let (fold, _) = GridFold::plan(grids, cfg, Cow::Owned(GridControl::default()), None, true);
        fold.siblings
            .values()
            .flatten()
            .map(|spec| spec.key.clone())
            .collect()
    }

    /// The cells of a grid in plan order, each with its content key.
    fn planned_cells(
        econ: EconomicModel,
        set: EstimateSet,
        cfg: &ExperimentConfig,
    ) -> Vec<(usize, usize, usize, String)> {
        let policies = policies_for(econ);
        grid_cells(econ, set, cfg)
            .iter()
            .map(|spec| {
                let p = policies.iter().position(|&k| k == spec.policy).unwrap();
                let content = format!("{:?}", CellInputs::of(spec, cfg.seed));
                (spec.scenario_idx, spec.value_idx, p, content)
            })
            .collect()
    }

    #[test]
    fn grid_simulates_each_content_key_once() {
        let bits = |x: [f64; 4]| x.map(f64::to_bits);
        for replicas in [1, 2] {
            let cfg = ExperimentConfig {
                threads: 2,
                ..ExperimentConfig::quick()
                    .with_jobs(40)
                    .with_replicas(replicas)
            };
            let (econ, set) = (EconomicModel::CommodityMarket, EstimateSet::A);
            let g = one_grid(econ, set, &cfg);
            let rebilled = rebilled_keys(&[(econ, set)], &cfg);
            let mut reps: HashMap<String, (usize, usize, usize)> = HashMap::new();
            for (s, v, p, content) in planned_cells(econ, set, &cfg) {
                let &mut (rs, rv, rp) = reps.entry(content).or_insert((s, v, p));
                assert_eq!(bits(g.raw[s][v][p]), bits(g.raw[rs][rv][rp]));
                assert_eq!(bits(g.cell_sigma[s][v][p]), bits(g.cell_sigma[rs][rv][rp]));
                assert_eq!(g.cell_events[s][v][p], g.cell_events[rs][rv][rp]);
                assert_eq!(g.cell_workers[s][v][p], g.cell_workers[rs][rv][rp]);
                if (s, v, p) != (rs, rv, rp) {
                    assert_eq!(g.cell_secs[s][v][p], 0.0, "a reused cell did not simulate");
                }
            }
            // 390 cells, 330 distinct: the default point recurs in 12 more
            // scenarios per policy.
            assert_eq!(reps.len(), 330, "replicas {replicas}");
            assert_eq!(g.cells_reused, 60, "replicas {replicas}");
            // No commodity policy reads the penalty rate: the 15 distinct
            // penalty points per policy are billed from the default point.
            assert_eq!(g.cells_rebilled, 75, "replicas {replicas}");
            assert_eq!(rebilled.len(), 75);
            let simulated = g.cell_secs.iter().flatten().flatten().filter(|&&t| t > 0.0);
            assert_eq!(simulated.count(), reps.len() - 75, "replicas {replicas}");
            // Each distinct cell still fetches its workload once.
            assert_eq!(
                g.workload_cache_hits + g.workload_cache_misses,
                reps.len() as u64
            );
        }
    }

    #[test]
    fn aliases_inherit_their_representatives_failure_and_are_not_journaled() {
        let dir = std::env::temp_dir().join("ccs_grid_alias_failure_test");
        let _ = std::fs::remove_dir_all(&dir);
        let journal = dir.join("journal.jsonl");
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(30)
        };
        // An event budget of one cancels every simulated cell.
        let g = grid_ctl(
            EconomicModel::BidBased,
            EstimateSet::B,
            &cfg,
            &GridControl {
                journal: Some(journal.clone()),
                cell_event_budget: Some(1),
                ..Default::default()
            },
        );
        let total = Scenario::ALL.len() * 6 * g.policies.len();
        assert_eq!(g.cells_reused, 60);
        assert_eq!(g.errors.len(), total, "every alias reports its own error");
        assert!(g.errors.iter().all(|e| e.kind == CellErrorKind::Budget));
        let labels: HashSet<_> = g
            .errors
            .iter()
            .map(|e| (e.scenario_idx, e.value_idx, e.policy.clone()))
            .collect();
        assert_eq!(
            labels.len(),
            total,
            "one error per cell, under its own label"
        );
        assert_eq!(Journal::open(&journal).unwrap().loaded(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn later_grids_alias_earlier_representatives_but_never_journal_hits_or_drills() {
        let dir = std::env::temp_dir().join("ccs_grid_run_memo_test");
        let _ = std::fs::remove_dir_all(&dir);
        let journal = dir.join("journal.jsonl");
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(30)
        };
        let econ = EconomicModel::CommodityMarket;
        let grids = [(econ, EstimateSet::A), (econ, EstimateSet::B)];
        let run = |ctl: &GridControl, grids: &[(EconomicModel, EstimateSet)]| {
            GridRun::new(&cfg).control(ctl).run(grids).unwrap()
        };
        // A grid listed twice is refused: each cell has one place in a run.
        let twice = GridRun::new(&cfg).run(&[grids[0], grids[0]]);
        assert_eq!(twice.unwrap_err().field, "grids");
        let plain = GridControl::default();
        let ab = run(&plain, &grids);
        // Set B's six Inaccuracy points equal set A's, for every policy.
        assert_eq!((ab[0].cells_reused, ab[1].cells_reused), (60, 90));
        assert_eq!(ab[1].raw, one_grid(econ, EstimateSet::B, &cfg).raw);

        // Journal hits are not representatives: after a resumed set A, set
        // B simulates its Inaccuracy cells itself.
        let journaled = GridControl {
            journal: Some(journal.clone()),
            ..Default::default()
        };
        run(&journaled, &grids[..1]);
        let resumed = run(&journaled, &grids);
        assert_eq!(resumed[0].cells_reused, 0, "every cell was a journal hit");
        assert_eq!(resumed[1].cells_reused, 60);

        // A drill cell neither represents nor aliases: the default-point
        // cell it names is simulated (and panics) in each grid even though
        // its content key recurs, so each grid reuses one cell fewer.
        let drilled = GridControl {
            fail_cell: Some("0:1:SJF-BF".to_string()),
            ..Default::default()
        };
        let ab = run(&drilled, &grids);
        for g in &ab {
            assert_eq!(g.errors.len(), 1, "{:?}", g.errors);
        }
        assert_eq!((ab[0].cells_reused, ab[1].cells_reused), (59, 89));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A failed representative fails its aliases in later grids too: under
    /// an event budget of one every simulated cell is cancelled, set B
    /// takes its Inaccuracy failures from set A, and each of B's errors is
    /// the one B reports when it runs alone.
    #[test]
    fn failures_alias_across_grids() {
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(30)
        };
        let econ = EconomicModel::CommodityMarket;
        let ctl = GridControl {
            cell_event_budget: Some(1),
            ..Default::default()
        };
        let run = |grids: &[(EconomicModel, EstimateSet)]| {
            GridRun::new(&cfg).control(&ctl).run(grids).unwrap()
        };
        let ab = run(&[(econ, EstimateSet::A), (econ, EstimateSet::B)]);
        let alone = run(&[(econ, EstimateSet::B)]).remove(0);
        assert_eq!((ab[0].cells_reused, ab[1].cells_reused), (60, 90));
        assert_eq!(alone.cells_reused, 60);
        let total = Scenario::ALL.len() * 6 * alone.policies.len();
        assert_eq!(ab[1].errors.len(), total);
        assert_eq!(ab[1].errors, alone.errors);
    }

    /// Every LibraRiskD representative of a bid-based grid equals an
    /// independent LibraRiskD run on its inputs, bit for bit, and the grid
    /// derived exactly those whose point's Libra run certifies them.
    #[test]
    fn derived_cells_equal_an_independent_riskd_run() {
        let bits = |x: [f64; 4]| x.map(f64::to_bits);
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(60)
        };
        let base = cfg.trace.generate(cfg.seed);
        let econ = EconomicModel::BidBased;
        let run_cfg = RunConfig {
            nodes: cfg.nodes,
            econ,
        };
        let column = |kind| policies_for(econ).iter().position(|&k| k == kind).unwrap();
        let (p, libra) = (column(PolicyKind::LibraRiskD), column(PolicyKind::Libra));
        let (mut derived, mut simulated) = (0, 0);
        for set in EstimateSet::ALL {
            let g = one_grid(econ, set, &cfg);
            let rebilled = rebilled_keys(&[(econ, set)], &cfg);
            let mut seen = HashSet::new();
            let mut certified = 0;
            for spec in grid_cells(econ, set, &cfg) {
                let inputs = CellInputs::of(&spec, cfg.seed);
                if spec.policy != PolicyKind::LibraRiskD || !seen.insert(format!("{inputs:?}")) {
                    continue;
                }
                let jobs = apply_scenario(&base, &inputs.transform, cfg.seed);
                let run = |kind| {
                    Run::new(&jobs, kind, &run_cfg)
                        .fault(inputs.fault.as_ref())
                        .execute()
                        .unwrap()
                };
                let riskd = run(PolicyKind::LibraRiskD);
                let (s, v) = (spec.scenario_idx, spec.value_idx);
                let label = spec.label();
                assert_eq!(
                    bits(g.raw[s][v][p]),
                    bits(riskd.result.metrics.objectives()),
                    "{set} {label}"
                );
                assert_eq!(g.cell_events[s][v][p], riskd.events, "{set} {label}");
                assert_eq!(g.cell_sigma[s][v][p], [0.0; 4], "{set} {label}");
                if rebilled.contains(&spec.key) {
                    assert_eq!(g.cell_secs[s][v][p], 0.0, "{set} {label} was simulated");
                } else if run(PolicyKind::Libra).riskd_equivalent == Some(true) {
                    certified += 1;
                    assert_eq!(g.cell_secs[s][v][p], 0.0, "{set} {label} was simulated");
                    assert_eq!(g.cell_workers[s][v][p], g.cell_workers[s][v][libra]);
                } else {
                    simulated += 1;
                    assert!(g.cell_secs[s][v][p] > 0.0, "{set} {label} was derived");
                }
            }
            assert_eq!(g.cells_derived, certified, "{set}");
            derived += certified;
        }
        assert!(
            derived > 0 && simulated > 0,
            "derived {derived}, simulated {simulated}"
        );
    }

    /// How many cells a grid derives depends only on the cells: one thread
    /// or four, one replica or three, the count is the same, and so is
    /// every output at equal replicas.
    #[test]
    fn derived_cells_do_not_depend_on_threads_or_replicas() {
        let grid = |threads, replicas| {
            let cfg = ExperimentConfig {
                threads,
                ..ExperimentConfig::quick()
                    .with_jobs(40)
                    .with_replicas(replicas)
            };
            one_grid(EconomicModel::BidBased, EstimateSet::A, &cfg)
        };
        let one = grid(1, 1);
        assert!(one.cells_derived > 0);
        let (four, ens_one, ens_four) = (grid(4, 1), grid(1, 3), grid(4, 3));
        for g in [&four, &ens_one, &ens_four] {
            assert_eq!(g.cells_derived, one.cells_derived);
        }
        assert_eq!(four.raw, one.raw);
        assert_eq!(four.cell_events, one.cell_events);
        assert_eq!(ens_four.raw, ens_one.raw);
        assert_eq!(ens_four.cell_sigma, ens_one.cell_sigma);
        assert_eq!(ens_four.cell_events, ens_one.cell_events);
    }

    #[test]
    fn workload_cache_counters_do_not_depend_on_thread_count() {
        let grid = |threads| {
            let cfg = ExperimentConfig {
                threads,
                ..ExperimentConfig::quick().with_jobs(30)
            };
            one_grid(EconomicModel::BidBased, EstimateSet::B, &cfg)
        };
        let (one, four) = (grid(1), grid(4));
        // Each transform is synthesised exactly once, however many threads
        // race on its key.
        assert_eq!(one.workload_cache_hits, four.workload_cache_hits);
        assert_eq!(one.workload_cache_misses, four.workload_cache_misses);
    }

    /// Every re-billed cell of a four-grid run equals an independent run
    /// of its own inputs, bit for bit, records 0 s, and names the nonzero
    /// worker of the run that billed it. The count is the plan's: 15
    /// distinct penalty points per commodity policy and 30 penalty and
    /// budget points per bid-based policy other than FirstReward, in both
    /// sets, are billed from their grid's default point, 390 cells. Set
    /// B's default point aliases set A's 100 % Inaccuracy cell, so in set
    /// B the first of each policy's cells runs: 9 fewer.
    #[test]
    fn rebilled_cells_equal_an_independent_run() {
        let bits = |x: [f64; 4]| x.map(f64::to_bits);
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(30)
        };
        let base = cfg.trace.generate(cfg.seed);
        let grids = EconomicModel::ALL
            .map(|econ| EstimateSet::ALL.map(|set| (econ, set)))
            .concat();
        let run = GridRun::new(&cfg).run(&grids).unwrap();
        let rebilled = rebilled_keys(&grids, &cfg);
        assert_eq!(rebilled.len(), 381);
        let counted: u64 = run.iter().map(|g| g.cells_rebilled).sum();
        assert_eq!(counted, 381);
        for (&(econ, set), g) in grids.iter().zip(&run) {
            let policies = policies_for(econ);
            for spec in grid_cells(econ, set, &cfg) {
                if !rebilled.contains(&spec.key) {
                    continue;
                }
                let inputs = CellInputs::of(&spec, cfg.seed);
                let jobs = apply_scenario(&base, &inputs.transform, cfg.seed);
                let run_cfg = RunConfig {
                    nodes: cfg.nodes,
                    econ,
                };
                let own = Run::new(&jobs, spec.policy, &run_cfg)
                    .fault(inputs.fault.as_ref())
                    .execute()
                    .unwrap();
                let (s, v) = (spec.scenario_idx, spec.value_idx);
                let p = policies.iter().position(|&k| k == spec.policy).unwrap();
                let label = format!("{set} {}", spec.label());
                assert_eq!(
                    bits(g.raw[s][v][p]),
                    bits(own.result.metrics.objectives()),
                    "{label}"
                );
                assert_eq!(g.cell_events[s][v][p], own.events, "{label}");
                assert_eq!(g.cell_secs[s][v][p], 0.0, "{label}");
                assert_ne!(g.cell_workers[s][v][p], 0, "{label}");
            }
        }
    }

    /// A bill the run refused is the cell's own invariant failure, naming
    /// the job and the field.
    #[test]
    fn a_refused_bill_is_an_invariant_failure() {
        let refused = Err(RebillError::Field {
            job: 7,
            field: "deadline",
        });
        let cell = SimulatedCell::billed(&refused, 99);
        let (kind, message) = cell.outcome.unwrap_err();
        assert_eq!(kind, CellErrorKind::Invariant);
        assert!(
            message.contains("job 7") && message.contains("deadline"),
            "{message}"
        );
        assert_eq!((cell.secs, cell.cost), (0.0, CellCost::default()));
    }

    #[test]
    fn cell_costs_follow_profile_feature() {
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(40)
        };
        let g = one_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
        assert_eq!(g.cell_costs.len(), 13);
        assert_eq!(g.cell_costs[0].len(), 6);
        assert_eq!(g.cell_costs[0][0].len(), g.policies.len());
        let total_ns: u64 = g
            .cell_timings()
            .iter()
            .map(|c| c.cost.total_phase_ns())
            .sum();
        if ccs_telemetry::profile::PROFILE_ENABLED {
            // Profiled build: every simulated cell carries phase data and
            // the grid-wide flamegraph snapshot is populated.
            assert!(total_ns > 0, "profiled grid recorded no phase time");
            assert!(!g.profile.is_empty());
            assert!(g.profile.folded().contains("cell;run"));
            let depth_seen = g.cell_timings().iter().any(|c| c.cost.peak_queue_depth > 0);
            assert!(depth_seen, "no cell observed a queue depth");
        } else {
            // Default build: the cost model exists but stays all-zero —
            // no clock reads were taken.
            assert_eq!(total_ns, 0);
            assert!(g.profile.is_empty());
            assert!(g
                .cell_timings()
                .iter()
                .all(|c| c.cost.top_phase().is_none()));
        }
    }

    #[test]
    fn in_process_cells_attribute_their_worker_thread() {
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(40)
        };
        let g = one_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
        let ids: std::collections::HashSet<u64> =
            g.cell_workers.iter().flatten().flatten().copied().collect();
        assert!(!ids.contains(&0), "simulated cells must be attributed");
        assert!(
            ids.iter().all(|&w| w <= 2),
            "worker ids 1..=threads: {ids:?}"
        );
    }

    #[test]
    fn cell_timings_populated_without_feature() {
        let cfg = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::quick().with_jobs(40)
        };
        let g = one_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
        assert_eq!(g.cell_secs.len(), 13);
        assert_eq!(g.cell_secs[0].len(), 6);
        assert_eq!(g.cell_secs[0][0].len(), g.policies.len());
        let total: f64 = g.cell_secs.iter().flatten().flatten().copied().sum();
        assert!(total > 0.0, "cells should take measurable time");
        assert!(g.wall_secs > 0.0);
        assert_eq!(g.worker_busy_secs.len(), 2);
        let slow = g.slowest_cells(5);
        assert_eq!(slow.len(), 5);
        assert!(slow[0].secs >= slow[4].secs);
    }
}
