//! Deadline-driven proportional-share execution engine (time-shared nodes).
//!
//! Libra (Sherwani et al. 2004) allocates each job a minimum processor-time
//! share `tr_i / d_i` (runtime estimate over deadline) on each of its nodes
//! and distributes any remaining free time among the resident jobs — multiple
//! jobs run on a node at once. This module reproduces that model as an
//! **event-driven processor-sharing simulation with piecewise-constant
//! rates**:
//!
//! - Each task on a node has a demand weight `w`. Service rates are
//!   work-conserving and proportional: `r_i = w_i / max(Σw, …)` — every task
//!   receives *at least* its admitted share while the node is not
//!   over-committed, and spare capacity accelerates everyone.
//! - The weight is `w = remaining-estimated-work / remaining-time-to-deadline`
//!   (capped at 1), re-evaluated as the task runs, so demand drains as work
//!   completes. At submission it is the admitted share
//!   `min(est/deadline, 1)`, and it stays there while the task runs at
//!   exactly that share.
//! - A task that is still incomplete when its deadline passes *escalates* to
//!   full demand (`w = 1`). This over-commits the node (`Σw > 1`), squeezing
//!   co-resident tasks below their admitted shares — the mechanism by which
//!   under-estimated runtimes cascade into further deadline misses, exactly
//!   the failure mode the paper attributes to Libra under inaccurate
//!   estimates (Section 5.2).
//! - Node state advances lazily: weights and rates are re-evaluated only at
//!   node events (task arrival, task completion, deadline crossing) and held
//!   until the next one — a tight piecewise-constant approximation of the
//!   draining weights.
//!
//! Admission-control support: [`PsCluster::free_share`] (current spare
//! demand capacity of a node), [`PsCluster::free_share_if_fits`] (the
//! same value behind an admission cutoff, with an O(1) rejection from a
//! per-node lower bound on `Σw`) and [`PsCluster::node_at_risk`] (whether
//! any resident task has already run past its estimate — LibraRiskD's
//! "risk of deadline delay" signal, Yeo & Buyya ICPP 2006).

use ccs_des::{EventHandle, EventQueue, FastHashMap, SimTime};
use ccs_workload::{Job, JobId};

/// Weight floor: keeps every incomplete task's rate strictly positive.
const MIN_WEIGHT: f64 = 1e-6;
/// Work-units tolerance for declaring a task complete.
const EPS_WORK: f64 = 1e-6;
/// Residual demand fraction for tasks that overran their estimate (the
/// scheduler no longer knows how much work remains).
const RESIDUAL_EST_FRACTION: f64 = 0.05;
/// Relative rounding margin taken off the admission lower bound `lb`: the
/// bound and the scan each carry at most a few hundred ulps of relative
/// error (DESIGN §7c), so `1e-9` leaves a factor of over 10⁴ to spare.
const LB_REL_MARGIN: f64 = 1e-9;

/// Branchless bit-select: the bits of `a` when `cond` holds, else the bits
/// of `b`. Exactly equivalent to `if cond { a } else { b }` for every f64
/// bit pattern (NaNs included) — the mask is all-ones or all-zeros — but
/// compiles to straight-line mask arithmetic with no data-dependent branch,
/// which is what keeps the per-task weight fold free of the mispredict
/// stalls a deadline-crossing branch ladder causes.
#[inline(always)]
fn select(cond: bool, a: f64, b: f64) -> f64 {
    let mask = (cond as u64).wrapping_neg();
    f64::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
}

/// A job completing on the time-shared cluster.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobCompletion {
    /// The finished job.
    pub job_id: JobId,
    /// Absolute completion time (when its last task finished).
    pub finish: f64,
}

#[derive(Clone, Debug)]
struct PsTask {
    job_id: JobId,
    /// Actual processor-seconds this task needs (the job's runtime).
    work_total: f64,
    work_done: f64,
    /// The user's estimate of `work_total`.
    est_total: f64,
    abs_deadline: f64,
    /// Admitted share `min(est/deadline, 1)`: the weight of an overdue task
    /// when escalation is ablated.
    static_w: f64,
    /// Current service rate (set at the node's last event).
    rate: f64,
}

impl PsTask {
    fn remaining(&self) -> f64 {
        self.work_total - self.work_done
    }
}

#[derive(Debug)]
struct PsNode {
    tasks: Vec<PsTask>,
    last_update: f64,
    pending_event: Option<EventHandle>,
    /// Lower bound on the scan's `Σw` at any time in
    /// `[last_update, lb_until)`, written by `recompute` and read by the
    /// O(1) rejection in `free_share_if_fits`.
    lb: f64,
    /// End of the window in which `lb` holds: the node's pending event time,
    /// or `-∞` (no window) on an empty or freshly repaired node.
    lb_until: f64,
}

impl Default for PsNode {
    fn default() -> Self {
        PsNode {
            tasks: Vec::new(),
            last_update: 0.0,
            pending_event: None,
            lb: 0.0,
            lb_until: f64::NEG_INFINITY,
        }
    }
}

/// Event-driven processor-sharing cluster.
pub struct PsCluster {
    /// Whether incomplete tasks escalate to full demand once their deadline
    /// passes (the cascade mechanism; disable for ablation studies).
    escalation: bool,
    /// Speed rating of each node (1.0 = the reference speed the trace's
    /// runtimes are expressed in; 2.0 runs jobs twice as fast).
    ratings: Vec<f64>,
    /// Up/down state per node (failure injection): a down node holds no
    /// tasks and must not receive submissions.
    up: Vec<bool>,
    nodes: Vec<PsNode>,
    queue: EventQueue<usize>,
    /// Tasks still outstanding per job. Lookup-only access (never
    /// iterated), so the deterministic fast hasher is output-neutral.
    open_tasks: FastHashMap<JobId, u32>,
    completions: Vec<JobCompletion>,
    /// Reusable per-event buffers (the event loop allocates nothing).
    weights_scratch: Vec<f64>,
    finished_scratch: Vec<JobId>,
    /// Pooled scratch for batched same-time event dispatch (`pop_batch`).
    events_scratch: Vec<usize>,
    now: f64,
    /// Test-only switch: route `recompute`/`free_share` through the naive
    /// full-rescan reference implementation, the property-test oracle.
    #[cfg(test)]
    force_reference: bool,
}

impl PsCluster {
    /// Creates a cluster of `n_nodes` empty time-shared nodes.
    pub fn new(n_nodes: usize) -> Self {
        Self::with_escalation(n_nodes, true)
    }

    /// Creates a cluster with an explicit deadline-escalation setting
    /// (escalation disabled = ablation: overdue tasks keep their admitted
    /// share instead of seizing the node).
    pub fn with_escalation(n_nodes: usize, escalation: bool) -> Self {
        Self::with_ratings(vec![1.0; n_nodes], escalation)
    }

    /// Creates a **heterogeneous** cluster: one speed rating per node
    /// (1.0 = reference speed). A job's task on a node of rating `r`
    /// progresses `r×` as fast and demands `1/r` the share for the same
    /// deadline.
    pub fn with_ratings(ratings: Vec<f64>, escalation: bool) -> Self {
        assert!(!ratings.is_empty());
        assert!(
            ratings.iter().all(|&r| r > 0.0 && r.is_finite()),
            "node ratings must be positive and finite"
        );
        let n_nodes = ratings.len();
        let mut nodes = Vec::with_capacity(n_nodes);
        nodes.resize_with(n_nodes, PsNode::default);
        PsCluster {
            escalation,
            up: vec![true; ratings.len()],
            ratings,
            nodes,
            queue: EventQueue::new(),
            open_tasks: FastHashMap::default(),
            completions: Vec::new(),
            weights_scratch: Vec::new(),
            finished_scratch: Vec::new(),
            events_scratch: Vec::new(),
            now: 0.0,
            #[cfg(test)]
            force_reference: false,
        }
    }

    /// The speed rating of `node`.
    pub fn rating(&self, node: usize) -> f64 {
        self.ratings[node]
    }

    /// The minimum share of `node` a job with the given estimate and
    /// relative deadline needs (`est / (deadline × rating)`, capped at 1).
    pub fn required_share(&self, node: usize, estimate: f64, deadline: f64) -> f64 {
        (estimate / (deadline * self.ratings[node])).clamp(MIN_WEIGHT, 1.0)
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Current engine time (time of the last processed event or advance).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of resident (incomplete) tasks on `node`.
    pub fn resident_tasks(&self, node: usize) -> usize {
        self.nodes[node].tasks.len()
    }

    /// Demand weight of `task` as of `now`, given its work done `done`,
    /// on a node of speed `rating`.
    ///
    /// This is the pre-optimisation branchy form, kept verbatim as the
    /// property-test oracle for [`PsCluster::weight_of_branchless`] (the
    /// `force_reference` paths route here); production folds use the
    /// branchless twin.
    #[cfg(test)]
    fn weight_of(&self, task: &PsTask, now: f64, done: f64, rating: f64) -> f64 {
        let rem_time = task.abs_deadline - now;
        if rem_time <= 0.0 {
            // Deadline passed with work remaining.
            return if self.escalation {
                1.0 // escalate: seize the node (the cascade mechanism)
            } else {
                task.static_w // ablation: keep the admitted share
            };
        }
        let rem_est = (task.est_total - done).max(RESIDUAL_EST_FRACTION * task.est_total);
        // The same `min`/`max` pair as the branchless twin, not `clamp`.
        #[allow(clippy::manual_clamp)]
        (rem_est / (rem_time * rating)).min(1.0).max(MIN_WEIGHT)
    }

    /// Branchless [`PsCluster::weight_of`]: identical bits for every input,
    /// with the data-dependent deadline branch ladder replaced by mask/select
    /// arithmetic so the aggregate folds below run without per-task
    /// mispredicts.
    ///
    /// Byte-identity argument: the speculative live weight is the exact
    /// expression `weight_of` evaluates on the non-overdue path, and
    /// `select` copies one operand's bits verbatim. When the task is overdue
    /// the live expression may produce garbage (division by a non-positive
    /// remaining time, up to NaN) — but those bits are masked out by the
    /// select, never observed.
    #[inline(always)]
    fn weight_of_branchless(&self, task: &PsTask, now: f64, done: f64, rating: f64) -> f64 {
        let rem_time = task.abs_deadline - now;
        // Deadline passed with work remaining: escalate to full demand, or
        // keep the admitted share when escalation is ablated.
        let overdue_w = select(self.escalation, 1.0, task.static_w);
        let rem_est = (task.est_total - done).max(RESIDUAL_EST_FRACTION * task.est_total);
        // Not `clamp`: `min`/`max` drop a NaN quotient (0/0 when a
        // zero-length task meets an expired deadline) in favour of the
        // bound, which `clamp` would propagate instead.
        #[allow(clippy::manual_clamp)]
        let live_w = (rem_est / (rem_time * rating)).min(1.0).max(MIN_WEIGHT);
        select(rem_time <= 0.0, overdue_w, live_w)
    }

    /// Projects a task's work done at `now` without mutating it.
    fn projected_done(task: &PsTask, last_update: f64, now: f64) -> f64 {
        (task.work_done + task.rate * (now - last_update).max(0.0)).min(task.work_total)
    }

    /// Spare demand capacity of `node` at `now`: `1 − Σ current weights`
    /// (may be negative on an over-committed node).
    ///
    /// `now` must not precede the last processed event.
    pub fn free_share(&self, node: usize, now: f64) -> f64 {
        #[cfg(test)]
        if self.force_reference {
            return self.free_share_reference(node, now);
        }
        let n = &self.nodes[node];
        // Empty node: the rescan's empty sum is 0.0 and 1.0 − 0.0 is
        // exactly 1.0, so this shortcut is byte-identical.
        if n.tasks.is_empty() {
            return 1.0;
        }
        let rating = self.ratings[node];
        let used: f64 = n
            .tasks
            .iter()
            .map(|t| {
                self.weight_of_branchless(
                    t,
                    now,
                    Self::projected_done(t, n.last_update, now),
                    rating,
                )
            })
            .sum();
        1.0 - used
    }

    /// [`PsCluster::free_share`] with an admission cutoff: `Some(free)`
    /// (the exact `free_share` value) when `free + eps >= required`, `None`
    /// when the node is ineligible — decided, where possible, from a prefix
    /// of the weight sum without scanning the remaining tasks. With
    /// `refuse_at_risk` (LibraRiskD's filter) it is also `None` when
    /// [`PsCluster::node_at_risk`] holds; one pass over the residents
    /// projects each task's work once for both tests, and Libra and Libra+$
    /// (`refuse_at_risk == false`) pay nothing for the risk test.
    ///
    /// Byte-identity of the cutoff: every weight is ≥ `MIN_WEIGHT` > 0 and
    /// f64 addition of a nonnegative term never decreases a sum, so the
    /// running `used` is monotone nondecreasing across the scan (`1.0 - used`
    /// and `free + eps` are monotone in turn). A prefix that already fails
    /// `1.0 - used + eps >= required` therefore proves the full sum fails
    /// the *same* comparison, and an eligible node completes the identical
    /// left-fold `free_share` computes. An at-risk node is refused whatever
    /// its share, so stopping at the first at-risk task changes no decision.
    ///
    /// Before any scan, the node's admission lower bound (`bound_rejects`)
    /// refuses in O(1) a node the scan is certain to refuse on share alone.
    /// That is the same `None`, so the bound changes no decision and no
    /// accepted node's `free` bits.
    pub fn free_share_if_fits(
        &self,
        node: usize,
        now: f64,
        required: f64,
        eps: f64,
        refuse_at_risk: bool,
    ) -> Option<f64> {
        #[cfg(test)]
        if self.force_reference {
            let free = self.free_share_reference(node, now);
            let fits = free + eps >= required;
            return (fits && !(refuse_at_risk && self.node_at_risk(node, now))).then_some(free);
        }
        let n = &self.nodes[node];
        if n.tasks.is_empty() {
            let free = 1.0;
            return (free + eps >= required).then_some(free);
        }
        if Self::bound_rejects(n, now, required, eps) {
            debug_assert!(
                self.fit_scan(node, now, required, eps, false).is_none(),
                "admission lower bound rejected node {node} at {now}, but the scan accepts it"
            );
            return None;
        }
        self.fit_scan(node, now, required, eps, refuse_at_risk)
    }

    /// Whether `n`'s admission lower bound alone proves that the share scan
    /// fails `1.0 - used + eps >= required` at `now`.
    ///
    /// `lb` holds only inside `[last_update, lb_until)`: `advance_to(now)`
    /// has fired every event at or before `now`, so admission probes always
    /// fall inside it; probes outside it answer `false` and take the scan.
    /// Inside it `lb ≤ used` for the scan's rounded fold, and f64
    /// subtraction and addition are monotone, so `1.0 - lb + eps < required`
    /// implies `1.0 - used + eps < required`.
    #[inline(always)]
    fn bound_rejects(n: &PsNode, now: f64, required: f64, eps: f64) -> bool {
        n.last_update <= now && now < n.lb_until && 1.0 - n.lb + eps < required
    }

    /// The share scan behind [`PsCluster::free_share_if_fits`]: the
    /// left-fold of `free_share` with its prefix cutoff and the fused
    /// at-risk test.
    #[inline(always)]
    fn fit_scan(
        &self,
        node: usize,
        now: f64,
        required: f64,
        eps: f64,
        refuse_at_risk: bool,
    ) -> Option<f64> {
        let n = &self.nodes[node];
        // `projected_done` with its elapsed time hoisted out of the loop.
        let dt = (now - n.last_update).max(0.0);
        let rating = self.ratings[node];
        let mut used = 0.0;
        for t in &n.tasks {
            let done = (t.work_done + t.rate * dt).min(t.work_total);
            if refuse_at_risk && done >= t.est_total - EPS_WORK && t.remaining() > EPS_WORK {
                return None;
            }
            used += self.weight_of_branchless(t, now, done, rating);
            if 1.0 - used + eps < required {
                return None;
            }
        }
        Some(1.0 - used)
    }

    /// The pre-optimisation full-rescan `free_share`, kept as the
    /// property-test oracle.
    #[cfg(test)]
    fn free_share_reference(&self, node: usize, now: f64) -> f64 {
        let n = &self.nodes[node];
        let rating = self.ratings[node];
        let used: f64 = n
            .tasks
            .iter()
            .map(|t| self.weight_of(t, now, Self::projected_done(t, n.last_update, now), rating))
            .sum();
        1.0 - used
    }

    /// LibraRiskD's risk signal: true if any resident task has already run
    /// longer than its estimate (so its true remaining demand is unknown and
    /// the node may be heading for an escalation).
    pub fn node_at_risk(&self, node: usize, now: f64) -> bool {
        let n = &self.nodes[node];
        n.tasks.iter().any(|t| {
            let done = Self::projected_done(t, n.last_update, now);
            done >= t.est_total - EPS_WORK && t.remaining() > EPS_WORK
        })
    }

    /// Submits one job to the given nodes (one task per node). The caller is
    /// responsible for admission control and node selection, and must have
    /// called [`PsCluster::advance_to`] up to `now` first.
    ///
    /// Panics if `now` precedes already-processed events, if `node_ids` is
    /// empty, or if a node index is out of range.
    pub fn submit(&mut self, job: &Job, node_ids: &[usize], now: f64) {
        assert!(!node_ids.is_empty(), "job must occupy at least one node");
        assert!(
            now + 1e-9 >= self.now,
            "submit at {now} before engine time {}",
            self.now
        );
        self.now = self.now.max(now);
        assert!(
            node_ids.iter().all(|&nid| self.up[nid]),
            "job {} submitted to a down node",
            job.id
        );
        let prev = self.open_tasks.insert(job.id, node_ids.len() as u32);
        assert!(prev.is_none(), "job {} submitted twice", job.id);
        for &nid in node_ids {
            let task = PsTask {
                job_id: job.id,
                work_total: job.runtime,
                work_done: 0.0,
                est_total: job.estimate,
                abs_deadline: job.absolute_deadline(),
                static_w: self.required_share(nid, job.estimate, job.deadline),
                rate: 0.0,
            };
            self.accrue(nid, now);
            self.nodes[nid].tasks.push(task);
            self.recompute(nid, now);
        }
    }

    /// Earliest pending internal event, if any.
    pub fn next_event_time(&mut self) -> Option<f64> {
        self.queue.peek_time().map(|t| t.as_secs())
    }

    /// Processes every internal event up to and including time `t`, then
    /// returns the job completions that occurred (in completion order).
    pub fn advance_to(&mut self, t: f64) -> Vec<JobCompletion> {
        let mut out = Vec::new();
        self.advance_into(t, &mut out);
        out
    }

    /// Allocation-free variant of [`PsCluster::advance_to`]: appends the
    /// completions to a caller-owned buffer, so a driver loop can reuse one
    /// vector across every advance.
    pub fn advance_into(&mut self, t: f64, out: &mut Vec<JobCompletion>) {
        // Share recomputation dominates this loop; one guard per advance
        // call (not per event) keeps profiling overhead off the hot path.
        let _phase = ccs_telemetry::profile::enter("ps_recompute");
        // Batched same-time dispatch: each pop_batch drains the whole run of
        // node events sharing the next timestamp in one heap pass. A node
        // appears at most once per run (it never has two pending events), so
        // every affected node gets exactly one accrue/harvest/recompute at
        // that instant, and processing the run in pop order is identical to
        // popping one event at a time — any event a recompute schedules back
        // at the same instant carries a higher seq, so both disciplines fire
        // it after the rest of the run.
        let mut batch = std::mem::take(&mut self.events_scratch);
        let horizon = SimTime::new(if t.is_finite() { t } else { f64::INFINITY });
        while let Some(et) = self.queue.pop_batch_until(horizon, &mut batch) {
            let et = et.as_secs();
            self.now = self.now.max(et);
            for &node in &batch {
                self.nodes[node].pending_event = None;
                self.accrue(node, et);
                self.harvest_completions(node, et);
                self.recompute(node, et);
            }
        }
        self.events_scratch = batch;
        self.now = self.now.max(t);
        out.append(&mut self.completions);
    }

    /// Runs the engine to quiescence (all tasks complete); returns the
    /// remaining completions.
    pub fn drain(&mut self) -> Vec<JobCompletion> {
        self.advance_to(f64::INFINITY)
    }

    /// Total outstanding (incomplete) jobs.
    pub fn open_jobs(&self) -> usize {
        self.open_tasks.len()
    }

    /// Whether `node` is up (down nodes hold no tasks and reject submits).
    pub fn node_up(&self, node: usize) -> bool {
        self.up[node]
    }

    /// Number of nodes currently up.
    pub fn up_nodes(&self) -> usize {
        self.up.iter().filter(|&&u| u).count()
    }

    /// Takes every listed node down at time `now`, in one pass. Every job
    /// with a task on a failed node is interrupted *whole*: all of its
    /// tasks — on that node and any other — are removed, since a
    /// gang-scheduled job cannot continue with a missing member. Returns the
    /// interrupted jobs with their remaining work (the max over the job's
    /// tasks of `work_total − work_done`, accrued to `now`), in ascending
    /// job-id order. Already down nodes are skipped.
    ///
    /// The result is exactly what failing the nodes one call at a time
    /// would produce (every task is accrued to the same `now` either way),
    /// but each affected node is accrued and its shares recomputed **once**
    /// per batch instead of once per failure — the point of batched fault
    /// dispatch when a storm takes many nodes down simultaneously.
    pub fn fail_nodes(&mut self, nodes: &[usize], now: f64) -> Vec<(JobId, f64)> {
        assert!(
            now + 1e-9 >= self.now,
            "fail_nodes at {now} before engine time {}",
            self.now
        );
        self.now = self.now.max(now);
        let mut resident: Vec<JobId> = Vec::new();
        for &node in nodes {
            if self.up[node] {
                self.up[node] = false;
                resident.extend(self.nodes[node].tasks.iter().map(|t| t.job_id));
            }
        }
        resident.sort_unstable();
        resident.dedup();
        if resident.is_empty() {
            return Vec::new();
        }
        // Accrue every node holding a task of an interrupted job so the
        // remaining-work figures (and surviving neighbours) are exact at
        // `now`, then remove the tasks and re-plan the survivors.
        let affected: Vec<usize> = (0..self.nodes.len())
            .filter(|&nid| {
                self.nodes[nid]
                    .tasks
                    .iter()
                    .any(|t| resident.binary_search(&t.job_id).is_ok())
            })
            .collect();
        for &nid in &affected {
            self.accrue(nid, now);
        }
        // `resident` is sorted, so the result is already in job-id order.
        let interrupted: Vec<(JobId, f64)> = resident
            .iter()
            .map(|&job_id| {
                let remaining = affected
                    .iter()
                    .flat_map(|&nid| self.nodes[nid].tasks.iter())
                    .filter(|t| t.job_id == job_id)
                    .map(|t| t.remaining())
                    .fold(0.0, f64::max);
                (job_id, remaining)
            })
            .collect();
        for &nid in &affected {
            self.nodes[nid]
                .tasks
                .retain(|t| resident.binary_search(&t.job_id).is_err());
            self.recompute(nid, now);
        }
        for &job_id in &resident {
            self.open_tasks.remove(&job_id);
        }
        interrupted
    }

    /// Brings `node` back up at time `now` with no resident tasks. No-op if
    /// the node is already up.
    pub fn repair_node(&mut self, node: usize, now: f64) {
        assert!(
            now + 1e-9 >= self.now,
            "repair_node at {now} before engine time {}",
            self.now
        );
        self.now = self.now.max(now);
        if self.up[node] {
            return;
        }
        self.up[node] = true;
        debug_assert!(self.nodes[node].tasks.is_empty(), "down node held tasks");
        self.nodes[node].last_update = now;
        self.nodes[node].lb_until = f64::NEG_INFINITY;
    }

    /// Advances a node's task work to `now` at the current rates.
    fn accrue(&mut self, node: usize, now: f64) {
        let n = &mut self.nodes[node];
        let dt = now - n.last_update;
        if dt > 0.0 {
            for t in &mut n.tasks {
                t.work_done = (t.work_done + t.rate * dt).min(t.work_total);
            }
        }
        n.last_update = now;
    }

    /// Removes finished tasks on `node`, emitting job completions.
    fn harvest_completions(&mut self, node: usize, now: f64) {
        let mut finished = std::mem::take(&mut self.finished_scratch);
        finished.clear();
        self.nodes[node].tasks.retain(|t| {
            if t.remaining() <= EPS_WORK {
                finished.push(t.job_id);
                false
            } else {
                true
            }
        });
        for &job_id in &finished {
            let open = self
                .open_tasks
                .get_mut(&job_id)
                .expect("completing task of unknown job");
            *open -= 1;
            if *open == 0 {
                self.open_tasks.remove(&job_id);
                self.completions.push(JobCompletion {
                    job_id,
                    finish: now,
                });
            }
        }
        self.finished_scratch = finished;
    }

    /// Recomputes rates on `node` (work must already be accrued to `now`),
    /// schedules the node's next event, and writes the node's admission
    /// lower bound `lb`, valid until that event.
    ///
    /// Two byte-identical evaluation paths: a lone task always runs at
    /// exactly the node rating (`w/denom` is exactly 1.0 whatever `w` is);
    /// everything else takes the general pass over `weights_scratch` — the
    /// same arithmetic in the same order as the reference rescan, just
    /// without allocating.
    fn recompute(&mut self, node: usize, now: f64) {
        // One work unit per share recomputation, attributed to whichever
        // phase is active (`ps_recompute` during advance, the admission
        // phase during submit). No-op unless the `profile` feature is on.
        ccs_telemetry::profile::count(1);
        let n = &mut self.nodes[node];
        if let Some(h) = n.pending_event.take() {
            self.queue.cancel(h);
        }
        n.lb_until = f64::NEG_INFINITY;
        if n.tasks.is_empty() {
            return;
        }
        #[cfg(test)]
        if self.force_reference {
            self.recompute_reference(node, now);
            return;
        }
        debug_assert_eq!(n.last_update, now, "recompute before accrue");
        let rating = self.ratings[node];
        let mut next = f64::INFINITY;
        let mut lb = 0.0;
        if self.nodes[node].tasks.len() == 1 {
            // Lone task: `(w / max(w, MIN_WEIGHT)).min(1.0)` is exactly 1.0
            // because every weight is ≥ MIN_WEIGHT, so the rate is exactly
            // the rating; the weight itself only seeds the bound.
            let t = &self.nodes[node].tasks[0];
            let w = self.weight_of_branchless(t, now, t.work_done, rating);
            let t = &mut self.nodes[node].tasks[0];
            t.rate = rating;
            next = now + t.remaining() / t.rate;
            if t.abs_deadline > now {
                next = next.min(t.abs_deadline);
            }
            lb = Self::weight_floor(t, now, next, rating, w);
        } else {
            // Same two passes as the reference, into a reused buffer. The
            // running `sum_w` is the identical left-fold `.sum()` computes.
            let mut weights = std::mem::take(&mut self.weights_scratch);
            weights.clear();
            let mut sum_w = 0.0;
            for t in &self.nodes[node].tasks {
                let w = self.weight_of_branchless(t, now, t.work_done, rating);
                sum_w += w;
                weights.push(w);
            }
            let denom = sum_w.max(MIN_WEIGHT);
            let n = &mut self.nodes[node];
            for (t, w) in n.tasks.iter_mut().zip(&weights) {
                t.rate = (w / denom).min(1.0) * rating;
                let completion = now + t.remaining() / t.rate;
                next = next.min(completion);
                if t.abs_deadline > now {
                    next = next.min(t.abs_deadline); // escalation point
                }
            }
            // `next` is known only now: each resident's floor over
            // `[now, next)`, reusing its weight wherever that is the floor.
            for (t, &w) in n.tasks.iter().zip(&weights) {
                lb += Self::weight_floor(t, now, next, rating, w);
            }
            self.weights_scratch = weights;
        }
        debug_assert!(next > now - 1e-9);
        let n = &mut self.nodes[node];
        // Rounding margin (DESIGN §7c): relative for the rounding in the
        // bound and in the scan, plus one `MIN_WEIGHT` per resident to err
        // wide.
        n.lb = lb * (1.0 - LB_REL_MARGIN) - MIN_WEIGHT * n.tasks.len() as f64;
        n.lb_until = next;
        n.pending_event = Some(self.queue.push(SimTime::new(next.max(now)), node));
    }

    /// A lower bound on `t`'s weight at every time in `[now, next)`, given
    /// its weight `w` at `now`, the recompute time; `next` is the node's
    /// next event. See DESIGN §7c for the derivation.
    ///
    /// On that interval the rate is constant and no live resident's
    /// deadline is crossed (it is a node event), so an overdue weight is
    /// constant. A live weight is at least
    /// `max(a − r·s, c) / ((R − s)·ρ)` at `s = t − now`, with
    /// `a = est − done`, `c = RESIDUAL_EST_FRACTION·est`, `R = D − now`;
    /// its first branch is `(r + K/(R − s))/ρ` with `K = a − r·R`.
    /// With `K ≥ 0` or `a ≤ c` it is nondecreasing and `w` is the minimum.
    /// Otherwise the minimum is the first branch at `next`, if it is still
    /// above the floor there, else the floor breakpoint's value
    /// `c·r / ((c − K)·ρ)`. The clamps are monotone, so they apply to the
    /// bound too.
    #[inline(always)]
    fn weight_floor(t: &PsTask, now: f64, next: f64, rating: f64, w: f64) -> f64 {
        let rem_time = t.abs_deadline - now;
        let rem_est = t.est_total - t.work_done;
        let floor = RESIDUAL_EST_FRACTION * t.est_total;
        let slack = rem_est - t.rate * rem_time;
        if rem_time <= 0.0 || slack >= 0.0 || rem_est <= floor {
            return w;
        }
        let rem_est_next = rem_est - t.rate * (next - now);
        let low = if rem_est_next >= floor {
            // `next < D` here (at `next == D`, `rem_est_next` is `slack`).
            rem_est_next / ((t.abs_deadline - next) * rating)
        } else {
            // `floor - slack > 0` because `slack < 0`.
            floor * t.rate / ((floor - slack) * rating)
        };
        #[allow(clippy::manual_clamp)]
        low.min(1.0).max(MIN_WEIGHT)
    }

    /// The pre-optimisation full-rescan recompute, kept verbatim as the
    /// property-test oracle (`force_reference` routes here). Must stay in
    /// lockstep with the optimised paths bit for bit.
    #[cfg(test)]
    fn recompute_reference(&mut self, node: usize, now: f64) {
        // Pass 1: weights (share fractions of this node).
        let rating = self.ratings[node];
        let weights: Vec<f64> = self.nodes[node]
            .tasks
            .iter()
            .map(|t| self.weight_of(t, now, t.work_done, rating))
            .collect();
        let sum_w: f64 = weights.iter().sum();
        // Work-conserving proportional split; a lone task always runs at the
        // node's full speed. `rate` is a WORK rate: share × node rating.
        let denom = sum_w.max(MIN_WEIGHT);
        let n = &mut self.nodes[node];
        let mut next = f64::INFINITY;
        for (t, w) in n.tasks.iter_mut().zip(&weights) {
            t.rate = (w / denom).min(1.0) * rating;
            let completion = now + t.remaining() / t.rate;
            next = next.min(completion);
            if t.abs_deadline > now {
                next = next.min(t.abs_deadline); // escalation point
            }
        }
        debug_assert!(next > now - 1e-9);
        n.pending_event = Some(self.queue.push(SimTime::new(next.max(now)), node));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_workload::Urgency;

    fn job(id: JobId, submit: f64, runtime: f64, estimate: f64, deadline: f64, procs: u32) -> Job {
        Job {
            id,
            submit,
            runtime,
            estimate,
            procs,
            urgency: Urgency::Low,
            deadline,
            budget: 100.0,
            penalty_rate: 1.0,
        }
    }

    /// The time a fraction `u ∈ [0, 1)` of the way through `nid`'s current
    /// event interval `[last_update, lb_until)`, where its admission bound
    /// is live, or `None` when the node holds no bound (or the time rounds
    /// onto `lb_until`).
    fn probe_in_window(c: &PsCluster, nid: usize, u: f64) -> Option<f64> {
        let n = &c.nodes[nid];
        let t = n.last_update + u * (n.lb_until - n.last_update);
        (n.last_update <= t && t < n.lb_until).then_some(t)
    }

    /// Whether `fast`'s admission bound rejects `nid` at `t`; when it does,
    /// the naive `reference` scan must reject the node on share too.
    fn bound_fires(
        fast: &PsCluster,
        reference: &PsCluster,
        nid: usize,
        t: f64,
        required: f64,
        eps: f64,
    ) -> bool {
        assert!(reference.force_reference);
        let fired = PsCluster::bound_rejects(&fast.nodes[nid], t, required, eps);
        if fired {
            let free = reference.free_share_reference(nid, t);
            assert!(
                free + eps < required,
                "bound rejected node {nid} at {t} (lb {}), reference free {free} fits {required}",
                fast.nodes[nid].lb
            );
            assert_eq!(
                reference.free_share_if_fits(nid, t, required, eps, false),
                None
            );
        }
        fired
    }

    #[test]
    fn lone_task_runs_at_full_speed() {
        let mut c = PsCluster::new(2);
        // estimate/deadline = 0.1 but the node is otherwise idle, so the
        // leftover distribution gives the task the whole processor.
        let j = job(0, 0.0, 100.0, 100.0, 1000.0, 1);
        c.submit(&j, &[0], 0.0);
        let done = c.drain();
        assert_eq!(done.len(), 1);
        assert!(
            (done[0].finish - 100.0).abs() < 1e-6,
            "finish {}",
            done[0].finish
        );
    }

    #[test]
    fn two_tasks_share_proportionally() {
        let mut c = PsCluster::new(1);
        // Equal shares 0.5/0.5 -> both run at rate 0.5 until the first
        // completes, then the survivor speeds up to 1.
        let a = job(0, 0.0, 100.0, 100.0, 200.0, 1);
        let b = job(1, 0.0, 300.0, 300.0, 600.0, 1);
        c.submit(&a, &[0], 0.0);
        c.submit(&b, &[0], 0.0);
        let done = c.drain();
        assert_eq!(done.len(), 2);
        // a: rate 0.5 -> finishes at 200.
        assert!(
            (done[0].finish - 200.0).abs() < 1e-6,
            "a at {}",
            done[0].finish
        );
        // b: 100 work done by t=200 (rate .5), remaining 200 at rate 1 -> 400.
        assert_eq!(done[1].job_id, 1);
        assert!(
            (done[1].finish - 400.0).abs() < 1e-6,
            "b at {}",
            done[1].finish
        );
    }

    #[test]
    fn both_meet_deadlines_when_admitted_within_capacity() {
        let mut c = PsCluster::new(1);
        // shares 0.6 + 0.4 = 1.0: rates exactly the shares.
        let a = job(0, 0.0, 60.0, 60.0, 100.0, 1);
        let b = job(1, 0.0, 40.0, 40.0, 100.0, 1);
        c.submit(&a, &[0], 0.0);
        c.submit(&b, &[0], 0.0);
        let done = c.drain();
        for d in &done {
            assert!(d.finish <= 100.0 + 1e-6, "job {} at {}", d.job_id, d.finish);
        }
    }

    #[test]
    fn multi_node_job_completes_when_last_task_does() {
        let mut c = PsCluster::new(3);
        let wide = job(0, 0.0, 100.0, 100.0, 500.0, 3);
        c.submit(&wide, &[0, 1, 2], 0.0);
        // Load node 2 with a competitor so the wide job's task there is slower.
        let other = job(1, 0.0, 100.0, 100.0, 200.0, 1);
        c.submit(&other, &[2], 0.0);
        let done = c.drain();
        let wide_done = done.iter().find(|d| d.job_id == 0).unwrap();
        let other_done = done.iter().find(|d| d.job_id == 1).unwrap();
        assert!(wide_done.finish > 100.0, "slowed by sharing on node 2");
        assert!(other_done.finish > 100.0);
        assert_eq!(c.open_jobs(), 0);
    }

    #[test]
    fn free_share_reflects_admitted_weights() {
        let mut c = PsCluster::new(1);
        assert!((c.free_share(0, 0.0) - 1.0).abs() < 1e-12);
        let a = job(0, 0.0, 100.0, 100.0, 400.0, 1); // w = 0.25
        c.submit(&a, &[0], 0.0);
        assert!((c.free_share(0, 0.0) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn dynamic_mode_releases_share_as_work_progresses() {
        let mut c = PsCluster::new(1);
        let a = job(0, 0.0, 100.0, 100.0, 400.0, 1); // initial w = 0.25
        c.submit(&a, &[0], 0.0);
        let f0 = c.free_share(0, 0.0);
        c.advance_to(50.0);
        // Task runs at rate 1 (alone): at t=50 half the estimate is done;
        // remaining est 50 over remaining time 350 -> w ~ 0.143.
        let f1 = c.free_share(0, 50.0);
        assert!(f1 > f0, "dynamic share should free up: {f0} -> {f1}");
    }

    #[test]
    fn underestimated_task_escalates_after_deadline_and_squeezes_neighbours() {
        let mut c = PsCluster::new(1);
        // Task A claims est=10 (deadline 20, w=0.5) but actually needs 100.
        let a = job(0, 0.0, 100.0, 10.0, 20.0, 1);
        // Task B honestly needs 50 by 100 (w=0.5).
        let b = job(1, 0.0, 50.0, 50.0, 100.0, 1);
        c.submit(&a, &[0], 0.0);
        c.submit(&b, &[0], 0.0);
        let done = c.drain();
        let b_done = done.iter().find(|d| d.job_id == 1).unwrap();
        // Without A's overrun B would finish by 100; the escalation of A at
        // t=20 (w -> 1.0) squeezes B to 1/3 rate and pushes it past its
        // deadline — the cascade the paper describes.
        assert!(
            b_done.finish > 100.0 + 1e-6,
            "expected B delayed past its deadline, finished at {}",
            b_done.finish
        );
        assert_eq!(c.open_jobs(), 0, "everything still completes eventually");
    }

    #[test]
    fn at_risk_flags_overrunning_tasks() {
        let mut c = PsCluster::new(2);
        let a = job(0, 0.0, 100.0, 10.0, 1000.0, 1); // overruns at t=10
        c.submit(&a, &[0], 0.0);
        c.advance_to(5.0);
        assert!(!c.node_at_risk(0, 5.0));
        assert!(!c.node_at_risk(1, 5.0), "idle node never at risk");
        c.advance_to(50.0);
        assert!(c.node_at_risk(0, 50.0), "task ran past its estimate");
        let done = c.drain();
        assert_eq!(done.len(), 1);
        assert!(
            !c.node_at_risk(0, done[0].finish + 1.0),
            "risk clears on completion"
        );
    }

    #[test]
    fn completions_report_in_time_order() {
        let mut c = PsCluster::new(4);
        for i in 0..4 {
            let j = job(
                i,
                0.0,
                100.0 * (i + 1) as f64,
                100.0 * (i + 1) as f64,
                1e6,
                1,
            );
            c.submit(&j, &[i as usize], 0.0);
        }
        let done = c.drain();
        assert_eq!(done.len(), 4);
        for w in done.windows(2) {
            assert!(w[0].finish <= w[1].finish);
        }
    }

    #[test]
    fn advance_to_only_processes_due_events() {
        let mut c = PsCluster::new(1);
        let a = job(0, 0.0, 100.0, 100.0, 1000.0, 1);
        c.submit(&a, &[0], 0.0);
        assert!(c.advance_to(50.0).is_empty());
        let done = c.advance_to(150.0);
        assert_eq!(done.len(), 1);
    }

    #[test]
    #[should_panic]
    fn double_submit_panics() {
        let mut c = PsCluster::new(1);
        let a = job(0, 0.0, 10.0, 10.0, 100.0, 1);
        c.submit(&a, &[0], 0.0);
        c.submit(&a, &[0], 0.0);
    }

    #[test]
    fn fast_node_finishes_lone_job_proportionally_sooner() {
        let mut c = PsCluster::with_ratings(vec![1.0, 2.0], true);
        let slow = job(0, 0.0, 100.0, 100.0, 1000.0, 1);
        let fast = job(1, 0.0, 100.0, 100.0, 1000.0, 1);
        c.submit(&slow, &[0], 0.0);
        c.submit(&fast, &[1], 0.0);
        let done = c.drain();
        let f = |id: JobId| done.iter().find(|d| d.job_id == id).unwrap().finish;
        assert!((f(0) - 100.0).abs() < 1e-6, "reference node: {}", f(0));
        assert!(
            (f(1) - 50.0).abs() < 1e-6,
            "2x node halves the runtime: {}",
            f(1)
        );
    }

    #[test]
    fn fast_node_demands_less_share() {
        let c = PsCluster::with_ratings(vec![1.0, 4.0], true);
        assert!((c.required_share(0, 100.0, 400.0) - 0.25).abs() < 1e-12);
        assert!((c.required_share(1, 100.0, 400.0) - 0.0625).abs() < 1e-12);
        assert_eq!(c.rating(1), 4.0);
    }

    #[test]
    fn heterogeneous_sharing_still_conserves_work() {
        let mut c = PsCluster::with_ratings(vec![2.0], true);
        // Two equal tasks on a 2x node: each runs at work-rate 1.0.
        let a = job(0, 0.0, 100.0, 100.0, 400.0, 1);
        let b = job(1, 0.0, 100.0, 100.0, 400.0, 1);
        c.submit(&a, &[0], 0.0);
        c.submit(&b, &[0], 0.0);
        let done = c.drain();
        for d in &done {
            assert!(
                (d.finish - 100.0).abs() < 1e-6,
                "each at half of 2x = 1x: {}",
                d.finish
            );
        }
    }

    #[test]
    #[should_panic]
    fn non_positive_rating_rejected() {
        let _ = PsCluster::with_ratings(vec![1.0, 0.0], true);
    }

    #[test]
    fn fail_node_interrupts_whole_jobs_and_spares_neighbours() {
        let mut c = PsCluster::new(3);
        let wide = job(0, 0.0, 100.0, 100.0, 500.0, 2); // nodes 0 and 1
        let lone = job(1, 0.0, 100.0, 100.0, 500.0, 1); // node 2 only
        c.submit(&wide, &[0, 1], 0.0);
        c.submit(&lone, &[2], 0.0);
        c.advance_to(40.0);
        let hit = c.fail_nodes(&[1], 40.0);
        assert_eq!(hit.len(), 1, "only the wide job is resident on node 1");
        assert_eq!(hit[0].0, 0);
        assert!((hit[0].1 - 60.0).abs() < 1e-6, "remaining {}", hit[0].1);
        assert!(!c.node_up(1));
        assert_eq!(c.up_nodes(), 2);
        assert_eq!(
            c.resident_tasks(0),
            0,
            "the wide job's task on the surviving node is removed too"
        );
        assert_eq!(c.open_jobs(), 1);
        let done = c.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].job_id, 1, "the lone job still completes");
    }

    #[test]
    fn fail_and_repair_round_trip() {
        let mut c = PsCluster::new(2);
        assert!(c.fail_nodes(&[0], 0.0).is_empty(), "idle node: nobody hurt");
        assert!(c.fail_nodes(&[0], 1.0).is_empty(), "double fail is a no-op");
        c.repair_node(0, 10.0);
        assert!(c.node_up(0));
        c.repair_node(0, 11.0); // repairing an up node is a no-op
        let a = job(0, 20.0, 50.0, 50.0, 500.0, 1);
        c.submit(&a, &[0], 20.0);
        let done = c.drain();
        assert_eq!(done.len(), 1);
    }

    /// A batch failure must interrupt exactly the jobs that sequential
    /// single-node failures at the same instant would, with bit-identical
    /// remaining-work figures, and leave the survivors on a bit-identical
    /// trajectory — it only collapses N accrue/recompute passes into one.
    #[test]
    fn fail_nodes_batch_matches_sequential_fail_node() {
        use ccs_des::SimRng;
        const NODES: usize = 8;
        for seed in 0..4u64 {
            let mut batch = PsCluster::new(NODES);
            let mut seq = PsCluster::new(NODES);
            let mut rng = SimRng::seed_from(0xFA11 + seed);
            for id in 0..20 {
                let procs = rng.range_usize(1, 4);
                let mut nids: Vec<usize> = Vec::new();
                for _ in 0..procs {
                    let nid = rng.range_usize(0, NODES);
                    if !nids.contains(&nid) {
                        nids.push(nid);
                    }
                }
                let runtime = rng.uniform(10.0, 200.0);
                let j = job(id, 0.0, runtime, runtime, 500.0, nids.len() as u32);
                batch.submit(&j, &nids, 0.0);
                seq.submit(&j, &nids, 0.0);
            }
            batch.advance_to(25.0);
            seq.advance_to(25.0);
            let victims = [1usize, 3, 6];
            let a = batch.fail_nodes(&victims, 25.0);
            let mut b: Vec<(JobId, f64)> = Vec::new();
            for &v in &victims {
                b.extend(seq.fail_nodes(&[v], 25.0));
            }
            b.sort_unstable_by_key(|&(job_id, _)| job_id);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.0, y.0);
                assert_eq!(x.1.to_bits(), y.1.to_bits(), "job {} remaining", x.0);
            }
            for v in victims {
                assert!(!batch.node_up(v));
            }
            // Survivors finish on bit-identical schedules.
            let da = batch.drain();
            let db = seq.drain();
            assert_eq!(da.len(), db.len());
            for (x, y) in da.iter().zip(&db) {
                assert_eq!(x.job_id, y.job_id);
                assert_eq!(x.finish.to_bits(), y.finish.to_bits());
            }
        }
    }

    #[test]
    fn fail_nodes_skips_already_down_members() {
        let mut c = PsCluster::new(3);
        let a = job(0, 0.0, 100.0, 100.0, 500.0, 1);
        c.submit(&a, &[1], 0.0);
        c.fail_nodes(&[2], 0.0);
        let hit = c.fail_nodes(&[1, 2], 10.0);
        assert_eq!(hit, vec![(0, 90.0)]);
        assert_eq!(c.up_nodes(), 1);
    }

    #[test]
    #[should_panic]
    fn submit_to_down_node_panics() {
        let mut c = PsCluster::new(2);
        c.fail_nodes(&[1], 0.0);
        let a = job(0, 0.0, 10.0, 10.0, 100.0, 1);
        c.submit(&a, &[1], 0.0);
    }

    /// The incremental recompute (lone-task fast path, scratch buffers,
    /// admission lower bound) must be bit-identical to the naive
    /// full-rescan reference under arbitrary interleavings of
    /// submit / advance / fail / repair, with escalation on and off —
    /// including the free-share admission signal, probed
    /// both at random times and strictly inside a node's current event
    /// interval, where the O(1) bound rejection is live.
    #[test]
    fn incremental_recompute_matches_reference_oracle_bit_for_bit() {
        use ccs_des::SimRng;
        const NODES: usize = 6;
        for &escalation in &[true, false] {
            for seed in 0..4u64 {
                let mut fast = PsCluster::with_escalation(NODES, escalation);
                let mut slow = PsCluster::with_escalation(NODES, escalation);
                slow.force_reference = true;
                let mut rng = SimRng::seed_from(0xA11CE + seed);
                // A separate stream for the in-window probes keeps the
                // operation sequence above independent of them.
                let mut window_rng = SimRng::seed_from(0xB0B + seed);
                let mut bound_fired = 0usize;
                let mut now = 0.0f64;
                let mut next_id: JobId = 0;
                for _ in 0..400 {
                    match rng.range_usize(0, 10) {
                        0..=4 => {
                            // Submit to 1–2 random up nodes.
                            let procs = rng.range_usize(1, 3);
                            let mut nids: Vec<usize> = Vec::new();
                            for _ in 0..procs {
                                let nid = rng.range_usize(0, NODES);
                                if fast.node_up(nid) && !nids.contains(&nid) {
                                    nids.push(nid);
                                }
                            }
                            if nids.is_empty() {
                                continue;
                            }
                            let runtime = rng.uniform(1.0, 200.0);
                            let estimate = runtime * rng.uniform(0.2, 2.0);
                            let deadline = rng.uniform(10.0, 500.0);
                            let j =
                                job(next_id, now, runtime, estimate, deadline, nids.len() as u32);
                            next_id += 1;
                            fast.submit(&j, &nids, now);
                            slow.submit(&j, &nids, now);
                        }
                        5..=7 => {
                            now += rng.uniform(0.0, 80.0);
                            let a = fast.advance_to(now);
                            let b = slow.advance_to(now);
                            assert_eq!(a.len(), b.len());
                            for (x, y) in a.iter().zip(&b) {
                                assert_eq!(x.job_id, y.job_id);
                                assert_eq!(x.finish.to_bits(), y.finish.to_bits());
                            }
                        }
                        8 => {
                            let nid = rng.range_usize(0, NODES);
                            let a = fast.fail_nodes(&[nid], now);
                            let b = slow.fail_nodes(&[nid], now);
                            assert_eq!(a.len(), b.len());
                            for (x, y) in a.iter().zip(&b) {
                                assert_eq!(x.0, y.0);
                                assert_eq!(x.1.to_bits(), y.1.to_bits());
                            }
                        }
                        _ => {
                            let nid = rng.range_usize(0, NODES);
                            fast.repair_node(nid, now);
                            slow.repair_node(nid, now);
                        }
                    }
                    // Spot-check the admission signals at a random node
                    // and probe time.
                    let nid = rng.range_usize(0, NODES);
                    let probe = now + rng.uniform(0.0, 20.0);
                    assert_eq!(
                        fast.free_share(nid, probe).to_bits(),
                        slow.free_share(nid, probe).to_bits(),
                        "free_share diverged (escalation {escalation})"
                    );
                    assert_eq!(fast.node_at_risk(nid, probe), slow.node_at_risk(nid, probe));
                    // The cutoff form must agree with "full scan, then
                    // threshold" exactly: same decision, same bits.
                    let required = rng.uniform(0.0, 1.2);
                    let eps = 1e-9;
                    let full = fast.free_share(nid, probe);
                    let expect = (full + eps >= required).then_some(full);
                    for c in [&fast, &slow] {
                        assert_eq!(
                            c.free_share_if_fits(nid, probe, required, eps, false)
                                .map(f64::to_bits),
                            expect.map(f64::to_bits),
                            "free_share_if_fits diverged"
                        );
                    }
                    // The same contract strictly inside the node's event
                    // interval, with requirements both uniform and just
                    // past the node's exact free share.
                    if let Some(t) = probe_in_window(&fast, nid, window_rng.uniform(0.0, 1.0)) {
                        let full = slow.free_share(nid, t);
                        assert_eq!(fast.free_share(nid, t).to_bits(), full.to_bits());
                        for required in [
                            window_rng.uniform(0.0, 1.2),
                            full + eps + window_rng.uniform(0.0, 0.1),
                        ] {
                            let expect = (full + eps >= required).then_some(full);
                            for c in [&fast, &slow] {
                                assert_eq!(
                                    c.free_share_if_fits(nid, t, required, eps, false)
                                        .map(f64::to_bits),
                                    expect.map(f64::to_bits),
                                    "in-window free_share_if_fits diverged"
                                );
                            }
                            bound_fired +=
                                bound_fires(&fast, &slow, nid, t, required, eps) as usize;
                        }
                    }
                }
                assert!(
                    bound_fired > 0,
                    "the bound never fired (escalation {escalation}, seed {seed})"
                );
                let a = fast.drain();
                let b = slow.drain();
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.job_id, y.job_id);
                    assert_eq!(x.finish.to_bits(), y.finish.to_bits());
                }
                assert_eq!(fast.open_jobs(), 0);
                assert_eq!(slow.open_jobs(), 0);
            }
        }
    }

    /// LibraRiskD's fused admission scan must equal the two-pass form it
    /// replaced — `free_share_if_fits` without the risk test, filtered by
    /// `!node_at_risk` — bit for bit, on the fast engine and on the
    /// reference oracle, with escalation and the risk test each on and off.
    #[test]
    fn fused_fit_and_risk_scan_matches_two_pass_form_bit_for_bit() {
        use ccs_des::SimRng;
        const NODES: usize = 4;
        let mut refused_at_risk = 0usize;
        for &escalation in &[true, false] {
            for seed in 0..4u64 {
                let mut fast = PsCluster::with_escalation(NODES, escalation);
                let mut slow = PsCluster::with_escalation(NODES, escalation);
                slow.force_reference = true;
                let mut rng = SimRng::seed_from(0xF05E + seed);
                let mut window_rng = SimRng::seed_from(0xF1E1D + seed);
                let mut bound_fired = 0usize;
                let mut now = 0.0f64;
                for id in 0..300 {
                    match rng.range_usize(0, 10) {
                        0..=4 => {
                            let nid = rng.range_usize(0, NODES);
                            if fast.node_up(nid) {
                                // Estimates as low as a fifth of the
                                // runtime put tasks past their estimate.
                                let runtime = rng.uniform(1.0, 200.0);
                                let estimate = runtime * rng.uniform(0.2, 2.0);
                                let deadline = rng.uniform(10.0, 500.0);
                                let j = job(id, now, runtime, estimate, deadline, 1);
                                fast.submit(&j, &[nid], now);
                                slow.submit(&j, &[nid], now);
                            }
                        }
                        5..=7 => {
                            now += rng.uniform(0.0, 80.0);
                            fast.advance_to(now);
                            slow.advance_to(now);
                        }
                        8 => {
                            let nid = rng.range_usize(0, NODES);
                            fast.fail_nodes(&[nid], now);
                            slow.fail_nodes(&[nid], now);
                        }
                        _ => {
                            let nid = rng.range_usize(0, NODES);
                            fast.repair_node(nid, now);
                            slow.repair_node(nid, now);
                        }
                    }
                    let probe = now + rng.uniform(0.0, 20.0);
                    let required = rng.uniform(0.0, 1.2);
                    let eps = 1e-9;
                    for nid in 0..NODES {
                        // The random probe, then one strictly inside the
                        // node's event interval (where the bound is live).
                        let in_window = probe_in_window(&fast, nid, window_rng.uniform(0.0, 1.0))
                            .map(|t| (t, window_rng.uniform(0.0, 1.2)));
                        for (probe, required) in std::iter::once((probe, required)).chain(in_window)
                        {
                            for refuse in [false, true] {
                                let fused = |c: &PsCluster| {
                                    c.free_share_if_fits(nid, probe, required, eps, refuse)
                                        .map(f64::to_bits)
                                };
                                for c in [&fast, &slow] {
                                    let two_pass = c
                                        .free_share_if_fits(nid, probe, required, eps, false)
                                        .filter(|_| !(refuse && c.node_at_risk(nid, probe)))
                                        .map(f64::to_bits);
                                    assert_eq!(
                                        fused(c),
                                        two_pass,
                                        "escalation {escalation}, seed {seed}"
                                    );
                                }
                                assert_eq!(fused(&fast), fused(&slow));
                                if refuse
                                    && fast.node_at_risk(nid, probe)
                                    && fast
                                        .free_share_if_fits(nid, probe, required, eps, false)
                                        .is_some()
                                {
                                    refused_at_risk += 1;
                                }
                            }
                            bound_fired +=
                                bound_fires(&fast, &slow, nid, probe, required, eps) as usize;
                        }
                    }
                }
                assert!(
                    bound_fired > 0,
                    "the bound never fired (escalation {escalation}, seed {seed})"
                );
            }
        }
        assert!(refused_at_risk > 0, "no probe exercised the risk filter");
    }

    /// Adversarial inputs for the admission lower bound: sub-second
    /// estimates, deadlines within 1e-3 s of `now`, absolute times near
    /// 1e7 s (where `D − t` and `est − done` cancel hardest), mixed node
    /// ratings, escalation on and off. Every in-window bound rejection must
    /// be a reference-scan rejection, the fast engine must stay bit-equal
    /// to the reference, and the bound must fire on every seed.
    #[test]
    fn admission_bound_never_rejects_a_node_the_reference_accepts() {
        use ccs_des::SimRng;
        const RATINGS: [f64; 6] = [0.5, 1.0, 3.7, 0.5, 1.0, 3.7];
        for &escalation in &[true, false] {
            for seed in 0..6u64 {
                let mut fast = PsCluster::with_ratings(RATINGS.to_vec(), escalation);
                let mut slow = PsCluster::with_ratings(RATINGS.to_vec(), escalation);
                slow.force_reference = true;
                let mut rng = SimRng::seed_from(0xAD5E + seed);
                let mut now = 1e7 + rng.uniform(0.0, 1.0);
                fast.advance_to(now);
                slow.advance_to(now);
                let mut bound_fired = 0usize;
                for id in 0..400 {
                    if rng.range_usize(0, 10) < 6 {
                        let nid = rng.range_usize(0, RATINGS.len());
                        let runtime = rng.uniform(1e-4, 1.0);
                        let estimate = (runtime * rng.uniform(0.2, 2.0)).min(1.0);
                        // Half the deadlines land within 1e-3 s of now.
                        let deadline = if rng.range_usize(0, 2) == 0 {
                            rng.uniform(1e-6, 1e-3)
                        } else {
                            estimate * rng.uniform(1.0, 30.0)
                        };
                        let j = job(id, now, runtime, estimate, deadline, 1);
                        fast.submit(&j, &[nid], now);
                        slow.submit(&j, &[nid], now);
                    } else {
                        now += rng.uniform(0.0, 2e-3);
                        let a = fast.advance_to(now);
                        let b = slow.advance_to(now);
                        assert_eq!(a, b);
                    }
                    let eps = 1e-9;
                    // Anywhere in the window, and just before its end,
                    // where a decreasing weight is closest to its floor.
                    let fractions = [rng.uniform(0.0, 1.0), 1.0 - rng.uniform(0.0, 1e-9)];
                    for (nid, u) in (0..RATINGS.len()).flat_map(|n| fractions.map(|u| (n, u))) {
                        let Some(t) = probe_in_window(&fast, nid, u) else {
                            continue;
                        };
                        let full = slow.free_share(nid, t);
                        // Uniform, and a hair either side of the exact
                        // threshold `full + eps`.
                        for required in [
                            rng.uniform(0.0, 1.0),
                            full + eps - rng.uniform(0.0, 1e-3),
                            full + eps + rng.uniform(0.0, 1e-3),
                            full + eps + rng.uniform(0.0, 0.2),
                        ] {
                            for refuse in [false, true] {
                                assert_eq!(
                                    fast.free_share_if_fits(nid, t, required, eps, refuse)
                                        .map(f64::to_bits),
                                    slow.free_share_if_fits(nid, t, required, eps, refuse)
                                        .map(f64::to_bits),
                                    "escalation {escalation}, seed {seed}"
                                );
                            }
                            bound_fired +=
                                bound_fires(&fast, &slow, nid, t, required, eps) as usize;
                        }
                    }
                }
                assert!(
                    bound_fired > 0,
                    "the bound never fired (escalation {escalation}, seed {seed})"
                );
                assert_eq!(fast.drain(), slow.drain());
            }
        }
    }

    #[test]
    fn advance_into_reuses_caller_buffer() {
        let mut c = PsCluster::new(1);
        let a = job(0, 0.0, 10.0, 10.0, 100.0, 1);
        let b = job(1, 0.0, 30.0, 30.0, 300.0, 1);
        c.submit(&a, &[0], 0.0);
        c.submit(&b, &[0], 0.0);
        let mut out = Vec::with_capacity(8);
        c.advance_into(f64::INFINITY, &mut out);
        assert_eq!(out.len(), 2);
        out.clear();
        c.advance_into(f64::INFINITY, &mut out);
        assert!(out.is_empty(), "drained engine yields nothing more");
    }

    #[test]
    fn staggered_arrivals_accrue_correctly() {
        let mut c = PsCluster::new(1);
        let a = job(0, 0.0, 100.0, 100.0, 300.0, 1);
        c.submit(&a, &[0], 0.0);
        c.advance_to(50.0);
        // A has 50 done. B arrives; equal-ish shares from here on.
        let b = job(1, 50.0, 100.0, 100.0, 350.0, 1);
        c.submit(&b, &[0], 50.0);
        let done = c.drain();
        let a_done = done.iter().find(|d| d.job_id == 0).unwrap().finish;
        let b_done = done.iter().find(|d| d.job_id == 1).unwrap().finish;
        // At t=50 A has 50 estimated work left over 250 s (w_a = 1/5) and B
        // needs 100 over 350 s (w_b = 2/7), so r_a = 7/17 and r_b = 10/17
        // of the node. A's 50 remaining take 850/7 s: it ends at 1200/7 with
        // 500/7 of B done, and B's last 200/7 at full speed end at 200.
        assert!((a_done - 1200.0 / 7.0).abs() < 1e-6, "a at {a_done}");
        assert!((b_done - 200.0).abs() < 1e-6, "b at {b_done}");
    }
}
