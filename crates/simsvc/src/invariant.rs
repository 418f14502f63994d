//! Online invariant checking over the runner's outcome stream.
//!
//! The chaos engine (ccs-chaos) throws adversarial schedules at the
//! simulator; this module is the oracle that decides whether a run was
//! *correct*, independently of whether it was *interesting*. Five invariant
//! families are checked over the raw [`Outcome`] stream and the collected
//! [`RunResult`]:
//!
//! 1. **Event-time monotonicity** — the outcome stream never goes backwards
//!    in simulation time (beyond a float epsilon).
//! 2. **SLA lifecycle legality** — per job, outcomes follow the legal state
//!    machine: decided exactly once, `Started`/`Completed` only after
//!    acceptance, `Restarted`/`Aborted` only after an interruption,
//!    completion and abort terminal.
//! 3. **Node-capacity conservation** — failures and repairs alternate per
//!    node and name nodes the cluster actually owns; no node fails twice
//!    without an intervening repair.
//! 4. **Ledger conservation** — one invoice per decided-and-not-aborted
//!    job; the ledger's net revenue equals the metrics' total utility; the
//!    invoiced budget plus aborted budgets equals the submitted budget
//!    (the denominator feeding Eq. 4).
//! 5. **Objective recomputation (Eqs. 1–4)** — the four paper objectives
//!    are refolded from the outcome stream by an independent code path and
//!    compared against [`RunMetrics::objectives`](crate::metrics::RunMetrics::objectives).
//!
//! A [checked](crate::Run::check) run applies [`check_run`] to its
//! reconciled outcome stream: a pure post-pass over data the runner
//! already produces — it never feeds back into simulation state, so
//! checked and unchecked runs are byte-identical. Violations are
//! *reported*, not panicked, so a chaos soak can shrink a failing schedule
//! instead of dying on it.

use crate::runner::{RunConfig, RunResult};
use ccs_economy::{bid_utility, EconomicModel};
use ccs_policies::Outcome;
use ccs_workload::{Job, JobId};
use serde::{Deserialize, Serialize};

/// Relative tolerance for float identities (objective recomputation).
const REL_TOL: f64 = 1e-9;
/// Absolute tolerance for sums of dollars/seconds (ledger identities).
const ABS_TOL: f64 = 1e-6;
/// Slack allowed on event-time ordering, matching the scheduling epsilon
/// used by the policies themselves.
const TIME_EPS: f64 = 1e-6;

/// One invariant violation found in a run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Stable name of the violated invariant (e.g. `"sla_lifecycle"`).
    pub invariant: String,
    /// Simulation time of the offending event, or the end of the run for
    /// whole-run identities.
    pub at: f64,
    /// The job concerned, when the violation is job-scoped.
    pub job: Option<JobId>,
    /// Human-readable description of what was expected vs observed.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] t={:.3}", self.invariant, self.at)?;
        if let Some(j) = self.job {
            write!(f, " job {j}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Per-job lifecycle state tracked by the checker.
#[derive(Clone, Copy, Default)]
struct JobState {
    accepted: bool,
    rejected: bool,
    running: bool,
    started_ever: bool,
    completed: bool,
    aborted: bool,
    interrupted: bool,
}

impl JobState {
    fn decided(&self) -> bool {
        self.accepted || self.rejected
    }
    fn terminal(&self) -> bool {
        self.completed || self.aborted || self.rejected
    }
}

/// Checks every invariant family over one finished run. Pure function of
/// its inputs; returns all violations found (it does not stop at the
/// first).
pub fn check_run(
    jobs: &[Job],
    cfg: &RunConfig,
    out: &[Outcome],
    result: &RunResult,
) -> Vec<Violation> {
    let mut v = Vec::new();
    let by_id: std::collections::HashMap<JobId, &Job> = jobs.iter().map(|j| (j.id, j)).collect();
    let mut states: std::collections::HashMap<JobId, JobState> =
        by_id.keys().map(|&id| (id, JobState::default())).collect();
    let mut node_down = vec![false; cfg.nodes as usize];
    let mut prev_t = f64::NEG_INFINITY;
    let mut end_t: f64 = 0.0;

    let job_scoped = |v: &mut Vec<Violation>, inv: &str, at: f64, job: JobId, detail: String| {
        v.push(Violation {
            invariant: inv.to_string(),
            at,
            job: Some(job),
            detail,
        });
    };

    for o in out {
        let (t, job) = event_coords(o);
        // 1. Event-time monotonicity across the whole stream.
        if t + TIME_EPS < prev_t {
            v.push(Violation {
                invariant: "event_time_monotone".into(),
                at: t,
                job,
                detail: format!("event at t={t} after stream reached t={prev_t}"),
            });
        }
        prev_t = prev_t.max(t);
        end_t = end_t.max(t);

        // Job-scoped outcomes must name a submitted job at all.
        if let Some(id) = job {
            if !by_id.contains_key(&id) {
                job_scoped(
                    &mut v,
                    "sla_lifecycle",
                    t,
                    id,
                    "outcome names a job that was never submitted".into(),
                );
                continue;
            }
        }

        // 2. SLA lifecycle legality.
        match *o {
            Outcome::Accepted { job, at } => {
                let s = states.get_mut(&job).unwrap();
                if s.decided() {
                    job_scoped(&mut v, "sla_lifecycle", at, job, "accepted twice".into());
                }
                s.accepted = true;
            }
            Outcome::Rejected { job, at, .. } => {
                let s = states.get_mut(&job).unwrap();
                if s.decided() {
                    job_scoped(
                        &mut v,
                        "sla_lifecycle",
                        at,
                        job,
                        "rejected after already decided".into(),
                    );
                }
                s.rejected = true;
            }
            Outcome::Started { job, at } => {
                let s = states.get_mut(&job).unwrap();
                if !s.accepted {
                    job_scoped(
                        &mut v,
                        "sla_lifecycle",
                        at,
                        job,
                        "started before acceptance".into(),
                    );
                }
                if s.terminal() && !s.rejected {
                    job_scoped(
                        &mut v,
                        "sla_lifecycle",
                        at,
                        job,
                        "started after completion/abort".into(),
                    );
                }
                if s.running {
                    job_scoped(
                        &mut v,
                        "sla_lifecycle",
                        at,
                        job,
                        "started while already running".into(),
                    );
                }
                s.running = true;
                s.started_ever = true;
            }
            Outcome::Completed {
                job,
                start,
                finish,
                charged,
            } => {
                let s = states.get_mut(&job).unwrap();
                if !s.accepted {
                    job_scoped(
                        &mut v,
                        "sla_lifecycle",
                        finish,
                        job,
                        "completed before acceptance".into(),
                    );
                }
                if s.completed || s.aborted {
                    job_scoped(
                        &mut v,
                        "sla_lifecycle",
                        finish,
                        job,
                        "completed after completion/abort".into(),
                    );
                }
                if finish + TIME_EPS < start {
                    job_scoped(
                        &mut v,
                        "sla_lifecycle",
                        finish,
                        job,
                        format!("finish {finish} precedes start {start}"),
                    );
                }
                if cfg.econ == EconomicModel::CommodityMarket && charged.is_none() {
                    job_scoped(
                        &mut v,
                        "ledger_conservation",
                        finish,
                        job,
                        "commodity completion without a fixed charge".into(),
                    );
                }
                s.running = false;
                s.completed = true;
            }
            Outcome::Interrupted { job, at } => {
                let s = states.get_mut(&job).unwrap();
                if !s.accepted {
                    job_scoped(
                        &mut v,
                        "sla_lifecycle",
                        at,
                        job,
                        "interrupted before acceptance".into(),
                    );
                }
                if s.completed || s.aborted {
                    job_scoped(
                        &mut v,
                        "sla_lifecycle",
                        at,
                        job,
                        "interrupted after completion/abort".into(),
                    );
                }
                s.running = false;
                s.interrupted = true;
            }
            Outcome::Restarted { job, at } => {
                let s = states.get_mut(&job).unwrap();
                if !s.interrupted {
                    job_scoped(
                        &mut v,
                        "sla_lifecycle",
                        at,
                        job,
                        "restarted without interruption".into(),
                    );
                }
                if s.completed || s.aborted {
                    job_scoped(
                        &mut v,
                        "sla_lifecycle",
                        at,
                        job,
                        "restarted after completion/abort".into(),
                    );
                }
            }
            Outcome::Aborted { job, at } => {
                let s = states.get_mut(&job).unwrap();
                if !s.accepted {
                    job_scoped(
                        &mut v,
                        "sla_lifecycle",
                        at,
                        job,
                        "aborted before acceptance".into(),
                    );
                }
                if !s.interrupted {
                    job_scoped(
                        &mut v,
                        "sla_lifecycle",
                        at,
                        job,
                        "aborted without interruption".into(),
                    );
                }
                if s.completed || s.aborted {
                    job_scoped(
                        &mut v,
                        "sla_lifecycle",
                        at,
                        job,
                        "aborted after completion/abort".into(),
                    );
                }
                s.running = false;
                s.aborted = true;
            }
            // 3. Node-capacity conservation.
            Outcome::NodeFailed { node, at } => {
                if node >= cfg.nodes {
                    v.push(Violation {
                        invariant: "node_capacity".into(),
                        at,
                        job: None,
                        detail: format!("failure names node {node} outside 0..{}", cfg.nodes),
                    });
                } else if node_down[node as usize] {
                    v.push(Violation {
                        invariant: "node_capacity".into(),
                        at,
                        job: None,
                        detail: format!("node {node} failed while already down"),
                    });
                } else {
                    node_down[node as usize] = true;
                }
            }
            Outcome::NodeRepaired { node, at } => {
                if node >= cfg.nodes {
                    v.push(Violation {
                        invariant: "node_capacity".into(),
                        at,
                        job: None,
                        detail: format!("repair names node {node} outside 0..{}", cfg.nodes),
                    });
                } else if !node_down[node as usize] {
                    v.push(Violation {
                        invariant: "node_capacity".into(),
                        at,
                        job: None,
                        detail: format!("node {node} repaired while already up"),
                    });
                } else {
                    node_down[node as usize] = false;
                }
            }
        }
    }

    // End-state legality: every job decided; accepted jobs finished or were
    // aborted (the drain ran to quiescence).
    for j in jobs {
        let s = states[&j.id];
        if !s.decided() {
            job_scoped(
                &mut v,
                "sla_lifecycle",
                end_t,
                j.id,
                "job never decided".into(),
            );
        } else if s.accepted && !s.completed && !s.aborted {
            job_scoped(
                &mut v,
                "sla_lifecycle",
                end_t,
                j.id,
                "accepted job neither completed nor aborted at drain".into(),
            );
        }
    }

    check_ledger(jobs, out, result, end_t, &states, &mut v);
    check_objectives(jobs, &by_id, cfg, out, result, end_t, &mut v);
    v
}

/// 4. Ledger conservation: invoice counts and the budget/revenue identities
///    feeding Eq. 4.
fn check_ledger(
    jobs: &[Job],
    out: &[Outcome],
    result: &RunResult,
    end_t: f64,
    states: &std::collections::HashMap<JobId, JobState>,
    v: &mut Vec<Violation>,
) {
    let whole_run = |inv: &str, detail: String| Violation {
        invariant: inv.to_string(),
        at: end_t,
        job: None,
        detail,
    };
    let st = result.ledger.statement();
    let aborted: Vec<&Job> = jobs
        .iter()
        .filter(|j| states.get(&j.id).is_some_and(|s| s.aborted))
        .collect();
    let expect_invoices = jobs.len().saturating_sub(aborted.len());
    if st.invoices != expect_invoices {
        v.push(whole_run(
            "ledger_conservation",
            format!(
                "{} invoices issued for {} submitted − {} aborted jobs",
                st.invoices,
                jobs.len(),
                aborted.len()
            ),
        ));
    }
    // Interrupted-then-rejected resubmissions are reconciled to Aborted, so
    // a lifecycle-legal run rejects each invoiced-rejected job exactly once.
    let rejected_outcomes = out
        .iter()
        .filter(|o| matches!(o, Outcome::Rejected { .. }))
        .count();
    if st.rejected != rejected_outcomes {
        v.push(whole_run(
            "ledger_conservation",
            format!(
                "{} rejection invoices vs {} Rejected outcomes",
                st.rejected, rejected_outcomes
            ),
        ));
    }
    let scale = 1.0 + st.total_budget.abs() + result.metrics.budget_total.abs();
    if (st.net_revenue - result.metrics.utility_total).abs() > ABS_TOL * scale {
        v.push(whole_run(
            "ledger_conservation",
            format!(
                "ledger net revenue {} != metrics utility {}",
                st.net_revenue, result.metrics.utility_total
            ),
        ));
    }
    let aborted_budget: f64 = aborted.iter().map(|j| j.budget).sum();
    if (st.total_budget + aborted_budget - result.metrics.budget_total).abs() > ABS_TOL * scale {
        v.push(whole_run(
            "ledger_conservation",
            format!(
                "invoiced budget {} + aborted budget {} != submitted budget {}",
                st.total_budget, aborted_budget, result.metrics.budget_total
            ),
        ));
    }
}

/// 5. Recomputes the four paper objectives (Eqs. 1–4) from the raw outcome
///    stream through an independent fold and compares against the metrics the
///    runner collected.
fn check_objectives(
    jobs: &[Job],
    by_id: &std::collections::HashMap<JobId, &Job>,
    cfg: &RunConfig,
    out: &[Outcome],
    result: &RunResult,
    end_t: f64,
    v: &mut Vec<Violation>,
) {
    // Summed in submission order (not map order) so the fold is
    // bit-deterministic run to run.
    let submitted_budget: f64 = jobs.iter().map(|j| j.budget).sum();
    let mut accepted = 0u32;
    let mut fulfilled = 0u32;
    let mut wait_sum = 0.0f64;
    let mut utility = 0.0f64;
    let mut first_start: std::collections::HashMap<JobId, f64> = std::collections::HashMap::new();
    for o in out {
        match *o {
            Outcome::Accepted { .. } => accepted += 1,
            Outcome::Started { job, at } => {
                first_start.entry(job).or_insert(at);
            }
            Outcome::Completed {
                job,
                start,
                finish,
                charged,
            } => {
                let Some(j) = by_id.get(&job) else { continue };
                let s = *first_start.entry(job).or_insert(start);
                utility += match cfg.econ {
                    EconomicModel::CommodityMarket => charged.unwrap_or(0.0),
                    EconomicModel::BidBased => bid_utility(j, finish),
                };
                if j.fulfilled_by(finish) {
                    fulfilled += 1;
                    wait_sum += (s - j.submit).max(0.0);
                }
            }
            _ => {}
        }
    }
    // Eq. 1 — mean wait over fulfilled jobs.
    let wait = if fulfilled == 0 {
        0.0
    } else {
        wait_sum / fulfilled as f64
    };
    // Eq. 2 — SLA percentage over submitted jobs.
    let submitted = jobs.len() as u32;
    let sla = if submitted == 0 {
        0.0
    } else {
        fulfilled as f64 / submitted as f64 * 100.0
    };
    // Eq. 3 — reliability over accepted jobs.
    let reliability = if accepted == 0 {
        100.0
    } else {
        fulfilled as f64 / accepted as f64 * 100.0
    };
    // Eq. 4 — profitability over submitted budget.
    let profitability = if submitted_budget <= 0.0 {
        0.0
    } else {
        (utility / submitted_budget * 100.0).max(0.0)
    };
    let recomputed = [wait, sla, reliability, profitability];
    let reported = result.metrics.objectives();
    const NAMES: [&str; 4] = [
        "wait (Eq. 1)",
        "SLA (Eq. 2)",
        "reliability (Eq. 3)",
        "profitability (Eq. 4)",
    ];
    for i in 0..4 {
        let (a, b) = (recomputed[i], reported[i]);
        let tol = REL_TOL * (1.0 + a.abs().max(b.abs()));
        if (a - b).abs() > tol {
            v.push(Violation {
                invariant: "objective_recompute".into(),
                at: end_t,
                job: None,
                detail: format!("{}: recomputed {a} vs reported {b}", NAMES[i]),
            });
        }
    }
}

/// Extracts `(event time, concerned job)` from one outcome.
fn event_coords(o: &Outcome) -> (f64, Option<JobId>) {
    match *o {
        Outcome::Accepted { job, at }
        | Outcome::Rejected { job, at, .. }
        | Outcome::Started { job, at }
        | Outcome::Interrupted { job, at }
        | Outcome::Restarted { job, at }
        | Outcome::Aborted { job, at } => (at, Some(job)),
        Outcome::Completed { job, finish, .. } => (finish, Some(job)),
        Outcome::NodeFailed { node: _, at } | Outcome::NodeRepaired { node: _, at } => (at, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{simulate, Run, RunOutput};
    use crate::FaultConfig;
    use ccs_policies::PolicyKind;
    use ccs_workload::Urgency;

    fn checked(
        jobs: &[Job],
        kind: PolicyKind,
        cfg: &RunConfig,
        fault: Option<&FaultConfig>,
    ) -> RunOutput {
        Run::new(jobs, kind, cfg)
            .fault(fault)
            .check()
            .execute()
            .unwrap()
    }

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

    fn workload(n: u32) -> Vec<Job> {
        (0..n)
            .map(|i| job(i, i as f64 * 60.0, 400.0, 4000.0, 1 + (i % 4), 1e5))
            .collect()
    }

    #[test]
    fn clean_runs_have_no_violations() {
        let jobs = workload(40);
        for econ in EconomicModel::ALL {
            let kinds = match econ {
                EconomicModel::CommodityMarket => PolicyKind::COMMODITY,
                EconomicModel::BidBased => PolicyKind::BID_BASED,
            };
            for kind in kinds {
                let cfg = RunConfig { nodes: 16, econ };
                let checked = checked(&jobs, kind, &cfg, None);
                assert!(
                    checked.violations.is_empty(),
                    "{kind} {econ}: {:?}",
                    checked.violations
                );
                assert!(checked.events > 0);
            }
        }
    }

    #[test]
    fn clean_faulty_runs_have_no_violations() {
        let jobs = workload(50);
        let fault = FaultConfig::exponential(11, 2000.0, 500.0);
        for kind in [PolicyKind::FcfsBf, PolicyKind::EdfBf, PolicyKind::Libra] {
            let cfg = RunConfig {
                nodes: 8,
                econ: EconomicModel::BidBased,
            };
            let checked = checked(&jobs, kind, &cfg, Some(&fault));
            assert!(
                checked.violations.is_empty(),
                "{kind}: {:?}",
                checked.violations
            );
            assert!(checked.result.metrics.node_failures > 0);
        }
    }

    #[test]
    fn checked_result_matches_unchecked() {
        let jobs = workload(30);
        let cfg = RunConfig {
            nodes: 8,
            econ: EconomicModel::CommodityMarket,
        };
        let plain = simulate(&jobs, PolicyKind::SjfBf, &cfg);
        let checked = checked(&jobs, PolicyKind::SjfBf, &cfg, None);
        assert_eq!(plain.records, checked.result.records);
        assert_eq!(
            plain.metrics.objectives(),
            checked.result.metrics.objectives()
        );
    }

    #[test]
    fn tampered_stream_is_caught() {
        // Hand-build an illegal stream: started before accepted, completed
        // twice, repair of an up node, and a silently dropped job.
        let jobs = vec![
            job(0, 0.0, 10.0, 100.0, 1, 100.0),
            job(1, 1.0, 10.0, 100.0, 1, 100.0),
        ];
        let cfg = RunConfig {
            nodes: 4,
            econ: EconomicModel::CommodityMarket,
        };
        let out = vec![
            Outcome::Started { job: 0, at: 0.0 },
            Outcome::Accepted { job: 0, at: 0.0 },
            Outcome::Completed {
                job: 0,
                start: 0.0,
                finish: 10.0,
                charged: Some(10.0),
            },
            Outcome::Completed {
                job: 0,
                start: 0.0,
                finish: 10.0,
                charged: Some(10.0),
            },
            Outcome::NodeRepaired { node: 1, at: 5.0 },
        ];
        let result = simulate(&jobs, PolicyKind::FcfsBf, &cfg);
        let violations = check_run(&jobs, &cfg, &out, &result);
        let names: Vec<&str> = violations.iter().map(|v| v.invariant.as_str()).collect();
        assert!(names.contains(&"sla_lifecycle"), "{violations:?}");
        assert!(names.contains(&"node_capacity"), "{violations:?}");
        assert!(names.contains(&"event_time_monotone"), "{violations:?}");
    }

    #[test]
    fn violations_serialise_to_json() {
        let v = Violation {
            invariant: "sla_lifecycle".into(),
            at: 12.5,
            job: Some(3),
            detail: "started before acceptance".into(),
        };
        let json = serde_json::to_string(&v).unwrap();
        let back: Violation = serde_json::from_str(&json).unwrap();
        assert_eq!(v, back);
        assert!(v.to_string().contains("sla_lifecycle"));
    }
}
