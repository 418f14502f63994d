//! The service simulator: drives one workload through one policy.

use crate::budget::{BudgetExceeded, RunBudget, Watchdog};
use crate::fault::{Degradation, FaultConfig};
use crate::invariant::{check_run, Violation};
use crate::metrics::RunMetrics;
use crate::record::JobRecord;
use crate::trace::{synthesise, RunTrace};
use ccs_des::{FailureEventKind, FailureProcess, FastHashMap, FastHashSet, NodeFailureEvent};
use ccs_economy::{bid_utility, EconomicModel, Ledger};
use ccs_policies::{build_policy, Interruption, Outcome, Policy, PolicyKind};
use ccs_telemetry::trace::{begin_kernel_capture, take_kernel_capture};
use ccs_workload::{Job, JobId};
use serde::{Deserialize, Serialize};

/// Configuration of one simulation run.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RunConfig {
    /// Cluster size in processors (the paper simulates 128).
    pub nodes: u32,
    /// Economic model in force.
    pub econ: EconomicModel,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            nodes: 128,
            econ: EconomicModel::CommodityMarket,
        }
    }
}

/// Result of one simulation run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Aggregate metrics (inputs to the four objectives).
    pub metrics: RunMetrics,
    /// Per-job outcome records, indexed in submission order.
    pub records: Vec<JobRecord>,
    /// Billing ledger: one invoice per decided job, in decision order.
    pub ledger: Ledger,
}

/// Simulates `jobs` (must be sorted by submit time) under `kind` and returns
/// the run result. Deterministic: identical inputs give identical outputs.
/// The shorthand for a plain [`Run`]; panics where [`Run::execute`] would
/// return a [`RunError`].
pub fn simulate(jobs: &[Job], kind: PolicyKind, cfg: &RunConfig) -> RunResult {
    Run::new(jobs, kind, cfg)
        .execute()
        .unwrap_or_else(|e| panic!("{e}"))
        .result
}

/// A plain [`Run`] that also reports its outcome-event count. Kept as a
/// shim over one `Run` call because the `perfbench` tracer imports it; new
/// code uses [`Run`] and [`RunOutput::events`] directly.
pub fn simulate_counted(jobs: &[Job], kind: PolicyKind, cfg: &RunConfig) -> (RunResult, u64) {
    let out = Run::new(jobs, kind, cfg)
        .execute()
        .unwrap_or_else(|e| panic!("{e}"));
    (out.result, out.events)
}

/// [`simulate_counted`] with node failures injected per `fault`. Kept as a
/// shim over one `Run` call because the `perfbench` tracer imports it; new
/// code uses [`Run::fault`]. Panics on an invalid `fault`.
pub fn simulate_faulty_counted(
    jobs: &[Job],
    kind: PolicyKind,
    cfg: &RunConfig,
    fault: &FaultConfig,
) -> (RunResult, u64) {
    let out = Run::new(jobs, kind, cfg)
        .fault(Some(fault))
        .execute()
        .unwrap_or_else(|e| panic!("{e}"));
    (out.result, out.events)
}

/// Why a [`Run`] produced no output.
#[derive(Clone, Debug, PartialEq)]
pub enum RunError {
    /// The watchdog cancelled the run (see [`Run::budget`]).
    Budget(BudgetExceeded),
    /// The [`FaultConfig`] failed [`FaultConfig::validate`]; the payload
    /// names the offending field.
    InvalidFault(String),
    /// A job was submitted before its predecessor in the input.
    UnsortedJobs {
        /// The first job out of submit-time order.
        job: JobId,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Budget(e) => e.fmt(f),
            RunError::InvalidFault(e) => write!(f, "invalid FaultConfig: {e}"),
            RunError::UnsortedJobs { .. } => f.write_str("jobs must be sorted by submit time"),
        }
    }
}

impl std::error::Error for RunError {}

/// Everything one [`Run`] produced.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// The simulation result; identical whatever settings the run had.
    pub result: RunResult,
    /// Outcome events the run produced (the grid's per-cell event count).
    pub events: u64,
    /// The SLA lifecycle trace, when the run was [traced](Run::trace).
    pub trace: Option<RunTrace>,
    /// Invariant violations, when the run was [checked](Run::check);
    /// empty for a correct run and for an unchecked one.
    pub violations: Vec<Violation>,
    /// The policy's [`Policy::riskd_equivalent`] certificate at the end of
    /// the run: `Some(true)` when a LibraRiskD run on the same inputs would
    /// be this very simulation, outcome for outcome. `None` for policies
    /// that make no such claim.
    pub riskd_equivalent: Option<bool>,
}

/// One trace-driven run of one workload under one policy and economic
/// model — the single way to simulate (see the [crate example](crate)).
/// The settings are independent of each other and none of them changes
/// [`RunOutput::result`].
pub struct Run<'a> {
    jobs: &'a [Job],
    policy: Box<dyn Policy>,
    cfg: &'a RunConfig,
    fault: Option<&'a FaultConfig>,
    budget: RunBudget,
    trace: bool,
    check: bool,
}

impl<'a> Run<'a> {
    /// A run of `jobs` (sorted by submit time) under the built-in `kind`.
    pub fn new(jobs: &'a [Job], kind: PolicyKind, cfg: &'a RunConfig) -> Self {
        Run::with_policy(jobs, build_policy(kind, cfg.econ, cfg.nodes), cfg)
    }

    /// A run under a caller-constructed policy — the hook for evaluating
    /// your own [`Policy`] implementations. [`Policy::name`] labels the
    /// telemetry series and the trace.
    pub fn with_policy(jobs: &'a [Job], policy: Box<dyn Policy>, cfg: &'a RunConfig) -> Self {
        Run {
            jobs,
            policy,
            cfg,
            fault: None,
            budget: RunBudget::unlimited(),
            trace: false,
            check: false,
        }
    }

    /// Injects node failures per `fault` (see [`FaultConfig`]); `None`, the
    /// default, takes the failure-free path.
    pub fn fault(mut self, fault: Option<&'a FaultConfig>) -> Self {
        self.fault = fault;
        self
    }

    /// Runs under a cooperative watchdog: the run is cancelled into
    /// [`RunError::Budget`] instead of hanging once it exhausts `budget`
    /// (see [`crate::budget`]). An unlimited budget, the default, runs no
    /// watchdog at all.
    pub fn budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Synthesises the run's [`RunTrace`] after it finishes (see
    /// [`crate::trace`]).
    pub fn trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Checks every invariant over the finished run into
    /// [`RunOutput::violations`] (see [`crate::invariant`]).
    pub fn check(mut self) -> Self {
        self.check = true;
        self
    }

    /// Runs the simulation. Deterministic: identical inputs give identical
    /// outputs.
    pub fn execute(self) -> Result<RunOutput, RunError> {
        let (jobs, cfg) = (self.jobs, self.cfg);
        let name = self.policy.name();
        let budget = (!self.budget.is_unlimited()).then_some(self.budget);
        // The driver drops the policy — and with it the DES event queues
        // that flush kernel stats — before returning, inside this window.
        if self.trace {
            begin_kernel_capture();
        }
        let driven = drive(jobs, self.policy, cfg, self.fault, budget);
        let kernel_spans = if self.trace {
            take_kernel_capture()
        } else {
            Vec::new()
        };
        let (result, out, riskd_equivalent) = driven?;
        let trace = self
            .trace
            .then(|| synthesise(jobs, cfg, name, &out, &result, kernel_spans));
        let violations = if self.check {
            check_run(jobs, cfg, &out, &result)
        } else {
            Vec::new()
        };
        Ok(RunOutput {
            result,
            events: out.len() as u64,
            trace,
            violations,
            riskd_equivalent,
        })
    }
}

/// Drain-phase safety valve: after this many *consecutive* failure events
/// delivered while the queue never shrinks and the policy never gains an
/// internal event, conclude the weather can no longer unblock the queued
/// work and stop delivering. This is how a degenerate renewal process (for
/// example every node down at t = 0 with astronomically long repairs, so
/// the cluster never again has enough simultaneously-up nodes for a wide
/// job) terminates with defined metrics: the still-queued jobs simply stay
/// accepted-but-unfulfilled, which `collect` scores like any other unmet
/// SLA. Legitimate runs reset the counter on every sign of progress, and
/// even a pathological-but-convergent case (say a 16-wide job on a cluster
/// at 76 % per-node availability) is expected to move its queue within a
/// few hundred events — five orders of magnitude under this cap.
const DRAIN_STAGNATION_CAP: u64 = 100_000;

/// Hard backstop on *total* failure events delivered during the drain, for
/// adversarial policies that feign progress (e.g. leak a fresh internal
/// event per delivery) without ever emptying their queue. Breaking out —
/// not panicking — keeps the run's metrics defined either way.
const DRAIN_FAILURE_EVENT_CAP: u64 = 10_000_000;

/// The one driver. `fault: None` takes exactly the failure-free path;
/// `budget: None` runs no watchdog and the unstepped drain. The policy's
/// [`Policy::name`] labels the per-policy telemetry series.
///
/// With a budget, the watchdog ticks once per driver step — each
/// submission, each failure delivery, each drain advance — and the run is
/// cancelled into [`BudgetExceeded`] the moment a bound trips. The budgeted
/// drain steps event by event (instead of one blanket `Policy::drain`) so a
/// policy whose event horizon never empties is caught between events
/// rather than hanging inside the policy; for well-behaved policies the
/// stepped drain processes the same events in the same order, so results
/// are identical either way.
///
/// The policy (and with it any DES event queues it owns) is dropped
/// *before* this returns, so a kernel-span capture window opened around
/// this call observes the queue-stat flushes, so the policy's
/// [`Policy::riskd_equivalent`] answer is read and returned just before the
/// drop.
///
/// Instrumentation never feeds back into simulation state, so results are
/// bit-identical whether or not telemetry is on; with it off every timer
/// guard below is a `None` that reads no clock.
fn drive(
    jobs: &[Job],
    mut policy: Box<dyn Policy>,
    cfg: &RunConfig,
    fault: Option<&FaultConfig>,
    budget: Option<RunBudget>,
) -> Result<(RunResult, Vec<Outcome>, Option<bool>), RunError> {
    let name = policy.name();
    // Per-policy latency histograms, looked up once per run; `None` (no
    // clock reads) unless telemetry is on.
    let labeled = |metric| {
        ccs_telemetry::enabled().then(|| ccs_telemetry::global().histogram_labeled(metric, name))
    };
    let _run_span = ccs_telemetry::TimerGuard::start(labeled("runner.run.duration_ns"));
    let decision_ns = labeled("runner.decision.duration_ns");
    // Phase attribution (no-op unless the `profile` feature is on): the
    // whole driver is the `run` phase; admission / dispatch / fault /
    // collect below are its children. Self-time on `run` itself is driver
    // overhead (loop bookkeeping, watchdog ticks).
    let _phase_run = ccs_telemetry::profile::enter("run");
    let mut faults = match fault {
        Some(f) => {
            f.validate().map_err(RunError::InvalidFault)?;
            Some(FaultDriver::new(jobs, f, cfg.nodes))
        }
        None => None,
    };
    let mut watchdog = budget.map(Watchdog::new);
    let mut out: Vec<Outcome> = Vec::with_capacity(jobs.len() * 4);
    let mut prev_submit = f64::NEG_INFINITY;
    for job in jobs {
        let sorted = job.submit >= prev_submit;
        if !sorted {
            return Err(RunError::UnsortedJobs { job: job.id });
        }
        prev_submit = job.submit;
        if let Some(wd) = watchdog.as_mut() {
            wd.tick().map_err(RunError::Budget)?;
        }
        if let Some(fd) = faults.as_mut() {
            let _phase = ccs_telemetry::profile::enter("fault");
            fd.deliver_until(job.submit, policy.as_mut(), &mut out);
        }
        {
            let _phase = ccs_telemetry::profile::enter("dispatch");
            policy.advance_to(job.submit, &mut out);
        }
        let _decision_span = ccs_telemetry::TimerGuard::start(decision_ns);
        {
            let _phase = ccs_telemetry::profile::enter("admission");
            policy.on_submit(job, job.submit, &mut out);
        }
        if ccs_telemetry::profile::PROFILE_ENABLED {
            ccs_telemetry::profile::depth(policy.queued_jobs() as u64);
        }
    }
    if let Some(fd) = faults.as_mut() {
        // Drain under failures: merge the policy's internal events with the
        // failure timeline in time order. Once the policy has no internal
        // events left but still holds queued jobs, only future repairs can
        // free them — keep delivering failure events until the queue moves
        // or empties.
        let mut delivered: u64 = 0;
        let mut stagnant: u64 = 0;
        let mut last_queued = usize::MAX;
        loop {
            if let Some(wd) = watchdog.as_mut() {
                wd.tick().map_err(RunError::Budget)?;
            }
            match (policy.next_event_time(), fd.peek_time()) {
                (Some(t), Some(f)) if f <= t => {
                    stagnant = 0;
                    last_queued = usize::MAX;
                    let _phase = ccs_telemetry::profile::enter("fault");
                    fd.deliver_next(policy.as_mut(), &mut out);
                }
                (Some(t), _) => {
                    stagnant = 0;
                    last_queued = usize::MAX;
                    let _phase = ccs_telemetry::profile::enter("dispatch");
                    policy.advance_to(t, &mut out);
                }
                (None, Some(_)) if policy.queued_jobs() > 0 => {
                    let queued = policy.queued_jobs();
                    if queued < last_queued {
                        stagnant = 0;
                    }
                    last_queued = queued;
                    stagnant += 1;
                    delivered += 1;
                    if stagnant >= DRAIN_STAGNATION_CAP || delivered >= DRAIN_FAILURE_EVENT_CAP {
                        // Futile weather — give up on the queued jobs; they
                        // are scored as accepted-but-unfulfilled below.
                        break;
                    }
                    let _phase = ccs_telemetry::profile::enter("fault");
                    fd.deliver_next(policy.as_mut(), &mut out);
                }
                _ => break,
            }
        }
    }
    if watchdog.is_some() {
        // Budgeted drain: advance one event horizon at a time so the
        // watchdog interposes between events. A policy whose
        // `next_event_time` never runs dry is cancelled here instead of
        // spinning inside a blanket `drain`.
        while let Some(t) = policy.next_event_time() {
            if let Some(wd) = watchdog.as_mut() {
                wd.tick().map_err(RunError::Budget)?;
            }
            {
                let _phase = ccs_telemetry::profile::enter("dispatch");
                policy.advance_to(t, &mut out);
            }
        }
    }
    let riskd_equivalent = {
        let _phase = ccs_telemetry::profile::enter("dispatch");
        policy.drain(&mut out);
        let certificate = policy.riskd_equivalent();
        drop(policy);
        certificate
    };
    let _phase_collect = ccs_telemetry::profile::enter("collect");
    if faults.is_some() {
        reconcile_fault_outcomes(&mut out);
    }
    let result = collect(jobs, cfg, &out);
    if ccs_telemetry::enabled() {
        let t = ccs_telemetry::global();
        t.counter("runner.jobs.submitted")
            .add(result.metrics.submitted as u64);
        t.counter("runner.jobs.accepted")
            .add(result.metrics.accepted as u64);
        // Saturating: a broken policy can accept a job twice, which the
        // invariant check reports; the counter must not panic first.
        t.counter("runner.jobs.rejected").add(
            result
                .metrics
                .submitted
                .saturating_sub(result.metrics.accepted) as u64,
        );
        t.counter("runner.jobs.fulfilled")
            .add(result.metrics.fulfilled as u64);
        t.counter("runner.runs.completed").inc();
    }
    Ok((result, out, riskd_equivalent))
}

/// Owns the failure timeline of one run and delivers its events to the
/// policy, translating each preemption into a restart or an abort.
struct FaultDriver<'a> {
    cfg: &'a FaultConfig,
    process: FailureProcess,
    /// Restart attempts consumed per job. Lookup-only maps throughout the
    /// driver take the deterministic integer hasher; none is ever iterated,
    /// so outputs are unaffected.
    attempts: FastHashMap<JobId, u32>,
    /// Original (as-submitted) jobs, for rebuilding resubmissions.
    by_id: FastHashMap<JobId, &'a Job>,
    /// One-event lookahead: an already-popped event whose kind broke the
    /// current same-time run; it heads the next delivery.
    pending: Option<NodeFailureEvent>,
    /// Pooled node-id scratch for batched same-time dispatch.
    nodes_scratch: Vec<u32>,
}

impl<'a> FaultDriver<'a> {
    fn new(jobs: &'a [Job], cfg: &'a FaultConfig, nodes: u32) -> Self {
        FaultDriver {
            cfg,
            process: FailureProcess::new(cfg.seed, cfg.mtbf, cfg.mttr, nodes),
            attempts: FastHashMap::default(),
            by_id: jobs.iter().map(|j| (j.id, j)).collect(),
            pending: None,
            nodes_scratch: Vec::new(),
        }
    }

    fn peek_time(&mut self) -> Option<f64> {
        match self.pending {
            Some(ev) => Some(ev.t),
            None => self.process.peek_time(),
        }
    }

    /// Delivers every failure event at or before `t`, in time order,
    /// batching each maximal run of equal-time same-kind events into one
    /// policy hook call.
    fn deliver_until(&mut self, t: f64, policy: &mut dyn Policy, out: &mut Vec<Outcome>) {
        while self.peek_time().is_some_and(|ft| ft <= t) {
            self.deliver_next(policy, out);
        }
    }

    /// Delivers the next failure run (the process is an unending renewal,
    /// so one always exists): the next event plus every immediately
    /// following event sharing its timestamp and kind, dispatched through
    /// the policy's batch hooks. With the continuous inter-event
    /// distributions sampled here a run is almost surely a single event, so
    /// this is byte-for-byte the scalar delivery — the batching pays off
    /// under injected simultaneous storms (chaos reproducers, tests).
    fn deliver_next(&mut self, policy: &mut dyn Policy, out: &mut Vec<Outcome>) {
        let first = self
            .pending
            .take()
            .unwrap_or_else(|| self.process.pop().expect("renewal process never ends"));
        let mut nodes = std::mem::take(&mut self.nodes_scratch);
        nodes.clear();
        nodes.push(first.node);
        while self.process.peek_time() == Some(first.t) {
            let ev = self.process.pop().expect("peeked event must pop");
            if ev.kind == first.kind {
                nodes.push(ev.node);
            } else {
                self.pending = Some(ev);
                break;
            }
        }
        self.deliver_run(first.t, first.kind, &nodes, policy, out);
        self.nodes_scratch = nodes;
    }

    fn deliver_run(
        &mut self,
        t: f64,
        kind: FailureEventKind,
        nodes: &[u32],
        policy: &mut dyn Policy,
        out: &mut Vec<Outcome>,
    ) {
        // Let completions strictly before the failure happen first.
        policy.advance_to(t, out);
        match kind {
            FailureEventKind::Fail => {
                for &node in nodes {
                    out.push(Outcome::NodeFailed { node, at: t });
                }
                let interruptions = policy.on_nodes_fail(nodes, t, out);
                for i in interruptions {
                    out.push(Outcome::Interrupted { job: i.job, at: t });
                    let attempts = self.attempts.entry(i.job).or_insert(0);
                    if *attempts < self.cfg.max_restarts {
                        *attempts += 1;
                        let job = resubmission(self.by_id[&i.job], &i, t, self.cfg.degradation);
                        // The policy re-runs admission (deadline feasibility
                        // on today's — possibly shrunken — cluster); its
                        // accept/reject is rewritten to Restarted/Aborted by
                        // `reconcile_fault_outcomes`.
                        policy.on_submit(&job, t, out);
                    } else {
                        out.push(Outcome::Aborted { job: i.job, at: t });
                    }
                }
            }
            FailureEventKind::Repair => {
                for &node in nodes {
                    out.push(Outcome::NodeRepaired { node, at: t });
                }
                policy.on_nodes_repair(nodes, t, out);
            }
        }
    }
}

/// Builds the job handed back to admission after an interruption at `now`.
/// The deadline stays the *original* absolute deadline (`submit + deadline`
/// of the first submission) — an SLA does not stretch because the provider's
/// node died — so the relative deadline can come out negative, in which case
/// admission rejects and the job is aborted.
fn resubmission(original: &Job, i: &Interruption, now: f64, degradation: Degradation) -> Job {
    let mut job = *original;
    job.submit = now;
    job.deadline = original.submit + original.deadline - now;
    match degradation {
        Degradation::Restart => {} // full runtime and estimate all over again
        Degradation::ResumePenalty { penalty } => {
            let remaining = i.remaining_work.max(0.0);
            let fraction = if original.runtime > 0.0 {
                (remaining / original.runtime).clamp(0.0, 1.0)
            } else {
                1.0
            };
            job.runtime = (remaining * (1.0 + penalty)).max(1e-6);
            job.estimate =
                (original.estimate * fraction * (1.0 + penalty)).max(job.runtime.min(1.0));
        }
    }
    job
}

/// Post-pass over the outcome stream of a faulty run: any accept/reject
/// decision *after* a job's first interruption is really a restart/abort.
/// (Done after the fact because backfill policies may defer decisions, so
/// the resubmission's outcome is not necessarily pushed inside
/// [`FaultDriver::deliver`].)
fn reconcile_fault_outcomes(out: &mut [Outcome]) {
    let mut interrupted: FastHashSet<JobId> = FastHashSet::default();
    for o in out.iter_mut() {
        match *o {
            Outcome::Interrupted { job, .. } => {
                interrupted.insert(job);
            }
            Outcome::Accepted { job, at } if interrupted.contains(&job) => {
                *o = Outcome::Restarted { job, at };
            }
            Outcome::Rejected { job, at, .. } if interrupted.contains(&job) => {
                *o = Outcome::Aborted { job, at };
            }
            _ => {}
        }
    }
}

/// Folds the outcome stream into metrics (Eqs. 1–4) and per-job records.
/// A faulty run's stream arrives reconciled: an interrupted job's later
/// accept or reject is already its `Restarted` or `Aborted`.
fn collect(jobs: &[Job], cfg: &RunConfig, out: &[Outcome]) -> RunResult {
    // Every map here is looked up by id — the records are finally drained
    // in job order — never iterated, so the fast hasher cannot reorder
    // anything.
    let by_id: FastHashMap<JobId, &Job> = jobs.iter().map(|j| (j.id, j)).collect();
    let mut records: FastHashMap<JobId, JobRecord> =
        FastHashMap::with_capacity_and_hasher(jobs.len(), Default::default());
    // First start per job: a restart keeps the one Eq. 1 measures to.
    let mut first_start: FastHashMap<JobId, f64> = FastHashMap::default();
    let mut ledger = Ledger::new();
    let mut m = RunMetrics {
        submitted: jobs.len() as u32,
        budget_total: jobs.iter().map(|j| j.budget).sum(),
        ..Default::default()
    };

    for o in out {
        match *o {
            Outcome::Accepted { job, at } => {
                m.accepted += 1;
                let r = records.entry(job).or_insert_with(|| JobRecord {
                    id: job,
                    accepted: true,
                    decided_at: at,
                    started_at: None,
                    finished_at: None,
                    fulfilled: false,
                    utility: 0.0,
                });
                r.accepted = true;
                r.decided_at = at;
            }
            Outcome::Rejected { job, at, .. } => {
                let prev = records.insert(job, JobRecord::rejected(job, at));
                assert!(prev.is_none(), "job {job} decided twice");
                ledger.reject(job, by_id[&job].budget);
            }
            Outcome::Started { job, at } => {
                assert!(
                    records.contains_key(&job),
                    "job {job} started before accepted"
                );
                first_start.entry(job).or_insert(at);
            }
            Outcome::Completed {
                job,
                start,
                finish,
                charged,
            } => {
                let j = by_id[&job];
                let fulfilled = j.fulfilled_by(finish);
                let utility = match cfg.econ {
                    EconomicModel::CommodityMarket => {
                        charged.expect("commodity completion must carry its charge")
                    }
                    EconomicModel::BidBased => bid_utility(j, finish),
                };
                let delay = j.delay_at(finish);
                m.utility_total += utility;
                m.delay_sum += delay;
                let wait = (*first_start.entry(job).or_insert(start) - j.submit).max(0.0);
                if fulfilled {
                    m.fulfilled += 1;
                    m.wait_sum_fulfilled += wait;
                }
                ledger.complete(cfg.econ, job, j.budget, charged, delay, j.penalty_rate);
                let r = records.get_mut(&job).expect("completed before accepted");
                r.finished_at = Some(finish);
                r.fulfilled = fulfilled;
                r.utility = utility;
            }
            Outcome::Interrupted { .. } => m.interrupted += 1,
            Outcome::Restarted { job, .. } => {
                m.restarts += 1;
                debug_assert!(
                    records.contains_key(&job),
                    "restarted job {job} was never accepted"
                );
            }
            Outcome::Aborted { job, .. } => {
                m.aborted += 1;
                // Accepted but never completing: the SLA is lost (hits
                // reliability, Eq. 3) and — a documented billing choice —
                // no invoice is issued: the provider earns nothing and the
                // client owes nothing for a job the provider's failure
                // killed.
                let r = records.get_mut(&job).expect("aborted before accepted");
                r.finished_at = None;
                r.fulfilled = false;
            }
            Outcome::NodeFailed { .. } => m.node_failures += 1,
            Outcome::NodeRepaired { .. } => m.node_repairs += 1,
        }
    }

    debug_assert_eq!(
        records.len(),
        jobs.len(),
        "every job must be decided exactly once"
    );
    let mut ordered: Vec<JobRecord> = jobs
        .iter()
        .map(|j| {
            let mut r = records
                .remove(&j.id)
                .unwrap_or_else(|| panic!("job {} has no outcome", j.id));
            r.started_at = first_start.get(&j.id).copied();
            r
        })
        .collect();
    ordered.sort_by_key(|r| r.id);
    RunResult {
        metrics: m,
        records: ordered,
        ledger,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_workload::Urgency;

    fn job(id: JobId, submit: f64, runtime: f64, deadline: f64, procs: u32, budget: f64) -> Job {
        Job {
            id,
            submit,
            runtime,
            estimate: runtime,
            procs,
            urgency: Urgency::Low,
            deadline,
            budget,
            penalty_rate: 1.0,
        }
    }

    #[test]
    fn single_job_commodity_run() {
        let jobs = vec![job(0, 0.0, 100.0, 1000.0, 4, 1000.0)];
        let cfg = RunConfig {
            nodes: 8,
            econ: EconomicModel::CommodityMarket,
        };
        let res = simulate(&jobs, PolicyKind::FcfsBf, &cfg);
        assert_eq!(res.metrics.submitted, 1);
        assert_eq!(res.metrics.accepted, 1);
        assert_eq!(res.metrics.fulfilled, 1);
        assert_eq!(res.metrics.wait(), 0.0);
        assert_eq!(res.metrics.utility_total, 400.0); // 100 s × 4 procs × $1
        assert_eq!(res.metrics.sla_pct(), 100.0);
        assert!(res.records[0].fulfilled);
    }

    #[test]
    fn bid_based_pays_penalty_for_late_jobs() {
        // Two whole-machine jobs: the second starts late and misses its
        // deadline, dragging utility below its budget.
        let jobs = vec![
            job(0, 0.0, 100.0, 1000.0, 8, 500.0),
            job(1, 1.0, 100.0, 120.0, 8, 500.0),
        ];
        let cfg = RunConfig {
            nodes: 8,
            econ: EconomicModel::BidBased,
        };
        let res = simulate(&jobs, PolicyKind::FcfsBf, &cfg);
        // Job 1: est completion from queue = 100+100 = 200 > 1+120 -> the
        // generous admission control rejects it instead.
        assert_eq!(res.metrics.accepted, 1);
        assert_eq!(res.metrics.fulfilled, 1);
        assert_eq!(res.metrics.utility_total, 500.0);
    }

    #[test]
    fn bid_based_penalty_applies_when_underestimated() {
        // Job claims est 50 (fits deadline) but actually runs 200 -> late.
        let mut j = job(0, 0.0, 200.0, 100.0, 8, 500.0);
        j.estimate = 50.0;
        let cfg = RunConfig {
            nodes: 8,
            econ: EconomicModel::BidBased,
        };
        let res = simulate(&[j], PolicyKind::FcfsBf, &cfg);
        assert_eq!(res.metrics.accepted, 1);
        assert_eq!(res.metrics.fulfilled, 0);
        // delay = 200 - 100 = 100 s at $1/s -> utility 400.
        assert_eq!(res.metrics.utility_total, 400.0);
        assert_eq!(res.metrics.delay_sum, 100.0);
        assert_eq!(res.metrics.reliability_pct(), 0.0);
    }

    #[test]
    fn every_policy_decides_every_job() {
        let jobs: Vec<Job> = (0..50)
            .map(|i| job(i, i as f64 * 50.0, 200.0, 2000.0, 1 + (i % 8), 1e6))
            .collect();
        for econ in EconomicModel::ALL {
            let kinds = match econ {
                EconomicModel::CommodityMarket => PolicyKind::COMMODITY,
                EconomicModel::BidBased => PolicyKind::BID_BASED,
            };
            for kind in kinds {
                let cfg = RunConfig { nodes: 16, econ };
                let res = simulate(&jobs, kind, &cfg);
                assert_eq!(res.records.len(), 50, "{kind} {econ}");
                let decided = res.records.iter().filter(|r| r.accepted).count() as u32;
                assert_eq!(decided, res.metrics.accepted, "{kind} {econ}");
                assert!(res.metrics.fulfilled <= res.metrics.accepted);
                assert!(res.metrics.accepted <= res.metrics.submitted);
            }
        }
    }

    #[test]
    fn deterministic_runs() {
        let jobs: Vec<Job> = (0..30)
            .map(|i| job(i, i as f64 * 100.0, 500.0, 4000.0, 1 + (i % 4), 1e5))
            .collect();
        let cfg = RunConfig {
            nodes: 8,
            econ: EconomicModel::BidBased,
        };
        let a = simulate(&jobs, PolicyKind::Libra, &cfg);
        let b = simulate(&jobs, PolicyKind::Libra, &cfg);
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn ledger_agrees_with_metrics() {
        let jobs: Vec<Job> = (0..25)
            .map(|i| job(i, i as f64 * 100.0, 300.0, 2000.0, 2, 5000.0))
            .collect();
        for econ in EconomicModel::ALL {
            let cfg = RunConfig { nodes: 8, econ };
            let kind = match econ {
                EconomicModel::CommodityMarket => PolicyKind::SjfBf,
                EconomicModel::BidBased => PolicyKind::EdfBf,
            };
            let res = simulate(&jobs, kind, &cfg);
            let st = res.ledger.statement();
            assert_eq!(st.invoices, 25);
            assert_eq!(st.rejected as u32, 25 - res.metrics.accepted);
            assert!(
                (st.net_revenue - res.metrics.utility_total).abs() < 1e-6,
                "{econ}: ledger {} vs metrics {}",
                st.net_revenue,
                res.metrics.utility_total
            );
            assert!((st.total_budget - res.metrics.budget_total).abs() < 1e-6);
        }
    }

    fn fault(seed: u64, mtbf: f64, mttr: f64) -> FaultConfig {
        FaultConfig::exponential(seed, mtbf, mttr)
    }

    fn run_faulty(jobs: &[Job], kind: PolicyKind, cfg: &RunConfig, f: &FaultConfig) -> RunResult {
        Run::new(jobs, kind, cfg)
            .fault(Some(f))
            .execute()
            .unwrap()
            .result
    }

    #[test]
    fn distant_failures_leave_results_untouched() {
        // MTBF far beyond the simulated horizon: the fault-aware driver must
        // reproduce the plain run outcome for outcome.
        let jobs: Vec<Job> = (0..40)
            .map(|i| job(i, i as f64 * 80.0, 400.0, 4000.0, 1 + (i % 8), 1e5))
            .collect();
        for econ in EconomicModel::ALL {
            let kinds = match econ {
                EconomicModel::CommodityMarket => PolicyKind::COMMODITY,
                EconomicModel::BidBased => PolicyKind::BID_BASED,
            };
            for kind in kinds {
                let cfg = RunConfig { nodes: 16, econ };
                let plain = simulate(&jobs, kind, &cfg);
                let faulty = run_faulty(&jobs, kind, &cfg, &fault(9, 1e15, 3600.0));
                assert_eq!(plain.records, faulty.records, "{kind} {econ}");
                assert_eq!(plain.metrics.objectives(), faulty.metrics.objectives());
                assert_eq!(faulty.metrics.node_failures, 0);
            }
        }
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let jobs: Vec<Job> = (0..60)
            .map(|i| job(i, i as f64 * 50.0, 600.0, 6000.0, 1 + (i % 4), 1e5))
            .collect();
        for kind in [
            PolicyKind::FcfsBf,
            PolicyKind::Libra,
            PolicyKind::FirstReward,
        ] {
            let econ = if kind == PolicyKind::FcfsBf {
                EconomicModel::CommodityMarket
            } else {
                EconomicModel::BidBased
            };
            let cfg = RunConfig { nodes: 8, econ };
            let f = fault(3, 2000.0, 500.0);
            let a = run_faulty(&jobs, kind, &cfg, &f);
            let b = run_faulty(&jobs, kind, &cfg, &f);
            assert_eq!(a.records, b.records, "{kind}");
            assert_eq!(a.metrics.objectives(), b.metrics.objectives());
            assert!(a.metrics.node_failures > 0, "{kind}: fault rate too low");
        }
    }

    #[test]
    fn failures_interrupt_restart_and_abort() {
        // Aggressive failures on a small cluster: jobs get interrupted, some
        // restart, some abort, and the run-level invariants still hold.
        let jobs: Vec<Job> = (0..50)
            .map(|i| job(i, i as f64 * 100.0, 800.0, 8000.0, 1 + (i % 4), 1e5))
            .collect();
        for kind in [PolicyKind::EdfBf, PolicyKind::Libra] {
            let cfg = RunConfig {
                nodes: 8,
                econ: EconomicModel::BidBased,
            };
            let res = run_faulty(&jobs, kind, &cfg, &fault(11, 1500.0, 2000.0));
            let m = &res.metrics;
            assert_eq!(res.records.len(), jobs.len(), "{kind}");
            assert!(m.node_failures > 0 && m.node_repairs > 0, "{kind}");
            assert!(m.interrupted > 0, "{kind}: nothing interrupted");
            assert!(m.restarts + m.aborted > 0, "{kind}");
            assert!(m.restarts + m.aborted >= m.interrupted.min(1), "{kind}");
            assert!(m.fulfilled <= m.accepted && m.accepted <= m.submitted);
            // Aborted jobs are accepted-but-unfinished records.
            let unfinished = res
                .records
                .iter()
                .filter(|r| r.accepted && r.finished_at.is_none())
                .count() as u32;
            assert_eq!(unfinished, m.aborted, "{kind}");
            for v in m.objectives() {
                assert!(v.is_finite(), "{kind}: objective {v}");
            }
        }
    }

    #[test]
    fn resume_penalty_beats_restart_under_failures() {
        // Resuming with a small penalty can only shorten reruns compared to
        // restarting from scratch, so total fulfilled work should not drop.
        let jobs: Vec<Job> = (0..40)
            .map(|i| job(i, i as f64 * 150.0, 1000.0, 15000.0, 2, 1e5))
            .collect();
        let cfg = RunConfig {
            nodes: 8,
            econ: EconomicModel::CommodityMarket,
        };
        let mut restart = fault(5, 3000.0, 500.0);
        restart.degradation = Degradation::Restart;
        let mut resume = restart;
        resume.degradation = Degradation::ResumePenalty { penalty: 0.1 };
        let a = run_faulty(&jobs, PolicyKind::FcfsBf, &cfg, &restart);
        let b = run_faulty(&jobs, PolicyKind::FcfsBf, &cfg, &resume);
        assert!(a.metrics.interrupted > 0);
        assert!(
            b.metrics.fulfilled >= a.metrics.fulfilled,
            "resume {} vs restart {}",
            b.metrics.fulfilled,
            a.metrics.fulfilled
        );
    }

    #[test]
    fn invalid_fault_config_is_a_typed_error_naming_the_field() {
        let jobs = vec![job(0, 0.0, 10.0, 100.0, 1, 1.0)];
        let mut f = fault(1, 100.0, 10.0);
        f.mtbf = ccs_des::FailureDist::Exponential { mean: f64::NAN };
        let cfg = RunConfig::default();
        let err = Run::new(&jobs, PolicyKind::FcfsBf, &cfg)
            .fault(Some(&f))
            .execute()
            .unwrap_err();
        assert!(
            matches!(&err, RunError::InvalidFault(field) if field.starts_with("mtbf:")),
            "{err:?}"
        );
        assert!(
            err.to_string().starts_with("invalid FaultConfig: mtbf:"),
            "{err}"
        );
    }

    #[test]
    #[should_panic]
    fn unsorted_jobs_panic() {
        let jobs = vec![
            job(0, 100.0, 10.0, 100.0, 1, 1.0),
            job(1, 0.0, 10.0, 100.0, 1, 1.0),
        ];
        let cfg = RunConfig::default();
        simulate(&jobs, PolicyKind::FcfsBf, &cfg);
    }

    #[test]
    fn unsorted_jobs_are_a_typed_error() {
        let jobs = vec![
            job(0, 100.0, 10.0, 100.0, 1, 1.0),
            job(1, 0.0, 10.0, 100.0, 1, 1.0),
        ];
        let cfg = RunConfig::default();
        let err = Run::new(&jobs, PolicyKind::FcfsBf, &cfg)
            .execute()
            .unwrap_err();
        assert_eq!(err, RunError::UnsortedJobs { job: 1 });
        assert_eq!(err.to_string(), "jobs must be sorted by submit time");
    }
}
