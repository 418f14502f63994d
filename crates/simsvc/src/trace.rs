//! Per-job SLA lifecycle traces, synthesised from a run's outcome stream.
//!
//! A [traced](crate::Run::trace) run builds, after the simulation, a
//! causally ordered [`RunTrace`]: for every job, `JobSubmitted` →
//! `BidEvaluated` → `SlaAccepted`/`SlaRejected` → `JobStarted` →
//! `JobCompleted` (→ `SlaViolated` when the deadline was missed). Because
//! the trace is derived *after* the run from data the runner already
//! produces ([`Outcome`]s and [`JobRecord`](crate::JobRecord)s), tracing
//! adds nothing to the simulation hot path and the results are identical
//! to an untraced run.
//!
//! DES kernel spans are the one exception: they are captured live, inside
//! a window the traced run opens, when the policy's event queues drop and
//! hand over their stats. Every traced run carries them.

use crate::runner::{RunConfig, RunResult};
use ccs_policies::Outcome;
use ccs_telemetry::trace::{TraceEvent, TraceRecord, TraceSink, TRACE_SCHEMA_VERSION};
use ccs_workload::{Job, JobId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A run's complete trace: metadata plus the causally ordered records.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunTrace {
    /// Trace-record schema version ([`TRACE_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Policy display name (e.g. `"FCFS-BF"`).
    pub policy: String,
    /// Economic model display name.
    pub econ: String,
    /// Cluster size in processors.
    pub nodes: u32,
    /// Jobs submitted.
    pub submitted: u32,
    /// The trace records, sorted by (time, lifecycle rank, job id).
    pub records: Vec<TraceRecord>,
    /// Records evicted by the ring buffer (0 unless the run overflowed it).
    pub dropped: u64,
}

/// Builds the causally ordered record stream for one run from its
/// reconciled outcome stream; `name` is the policy label.
pub(crate) fn synthesise(
    jobs: &[Job],
    cfg: &RunConfig,
    name: &str,
    outcomes: &[Outcome],
    result: &RunResult,
    kernel_spans: Vec<ccs_telemetry::trace::KernelSpan>,
) -> RunTrace {
    let by_id: HashMap<JobId, &Job> = jobs.iter().map(|j| (j.id, j)).collect();
    // result.records is sorted by job id — binary search instead of a map.
    let record_of = |id: JobId| {
        let idx = result
            .records
            .binary_search_by_key(&id, |r| r.id)
            .expect("every decided job has a record");
        &result.records[idx]
    };

    let mut events: Vec<(f64, u8, u64, TraceEvent)> = Vec::with_capacity(jobs.len() * 6);
    let mut push = |t: f64, ev: TraceEvent| {
        events.push((t, ev.causal_rank(), ev.job().unwrap_or(u64::MAX), ev));
    };

    for j in jobs {
        push(
            j.submit,
            TraceEvent::JobSubmitted {
                job: j.id as u64,
                procs: j.procs as u64,
                estimate: j.estimate,
                deadline: j.deadline,
                budget: j.budget,
                penalty_rate: j.penalty_rate,
            },
        );
    }

    let mut attempts: HashMap<JobId, u32> = HashMap::new();
    for o in outcomes {
        match *o {
            Outcome::Accepted { job, at } => {
                push(
                    at,
                    TraceEvent::BidEvaluated {
                        job: job as u64,
                        policy: name.to_string(),
                        decision: "accept".to_string(),
                        reason: None,
                    },
                );
                push(at, TraceEvent::SlaAccepted { job: job as u64 });
            }
            Outcome::Rejected { job, at, reason } => {
                push(
                    at,
                    TraceEvent::BidEvaluated {
                        job: job as u64,
                        policy: name.to_string(),
                        decision: "reject".to_string(),
                        reason: Some(reason.code().to_string()),
                    },
                );
                push(
                    at,
                    TraceEvent::SlaRejected {
                        job: job as u64,
                        reason: reason.code().to_string(),
                    },
                );
            }
            Outcome::Started { job, at } => {
                let j = by_id[&job];
                push(
                    at,
                    TraceEvent::JobStarted {
                        job: job as u64,
                        wait: (at - j.submit).max(0.0),
                    },
                );
            }
            Outcome::Completed {
                job, start, finish, ..
            } => {
                let j = by_id[&job];
                let rec = record_of(job);
                push(
                    finish,
                    TraceEvent::JobCompleted {
                        job: job as u64,
                        start,
                        finish,
                        fulfilled: rec.fulfilled,
                        utility: rec.utility,
                    },
                );
                if !rec.fulfilled {
                    let delay = j.delay_at(finish);
                    push(
                        finish,
                        TraceEvent::SlaViolated {
                            job: job as u64,
                            delay,
                            penalty: delay * j.penalty_rate,
                            utility: rec.utility,
                        },
                    );
                }
            }
            Outcome::Restarted { job, at } => {
                let n = attempts.entry(job).or_insert(0);
                *n += 1;
                push(
                    at,
                    TraceEvent::JobRestart {
                        job: job as u64,
                        attempt: *n,
                    },
                );
            }
            Outcome::NodeFailed { node, at } => push(at, TraceEvent::NodeFail { node }),
            Outcome::NodeRepaired { node, at } => push(at, TraceEvent::NodeRepair { node }),
            // An interruption with no later restart surfaces as an accepted
            // job with no completion; the abort itself adds no lifecycle
            // record of its own.
            Outcome::Interrupted { .. } | Outcome::Aborted { .. } => {}
        }
    }

    // Causal order: time, then lifecycle rank, then job id for determinism.
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

    let t_end = events.last().map_or(0.0, |e| e.0);
    let mut sink = TraceSink::default();
    for (t, _, _, ev) in events {
        sink.record(t, ev);
    }
    // Kernel spans describe whole queue lifetimes; stamp them at the end.
    for span in kernel_spans {
        sink.record(t_end, TraceEvent::KernelSpan(span));
    }

    let dropped = sink.dropped();
    RunTrace {
        schema_version: TRACE_SCHEMA_VERSION,
        policy: name.to_string(),
        econ: cfg.econ.to_string(),
        nodes: cfg.nodes,
        submitted: jobs.len() as u32,
        records: sink.into_records(),
        dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultConfig, Run};
    use ccs_economy::EconomicModel;
    use ccs_policies::PolicyKind;
    use ccs_telemetry::trace::check_causal_order;
    use ccs_workload::Urgency;

    fn traced(
        jobs: &[Job],
        kind: PolicyKind,
        cfg: &RunConfig,
        fault: Option<&FaultConfig>,
    ) -> (RunResult, RunTrace) {
        let out = Run::new(jobs, kind, cfg)
            .fault(fault)
            .trace()
            .execute()
            .unwrap();
        (out.result, out.trace.unwrap())
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

    #[test]
    fn traced_run_matches_untraced() {
        let jobs: Vec<Job> = (0..40)
            .map(|i| job(i, i as f64 * 60.0, 300.0, 3000.0, 1 + (i % 8), 1e5))
            .collect();
        let cfg = RunConfig {
            nodes: 16,
            econ: EconomicModel::CommodityMarket,
        };
        let plain = crate::simulate(&jobs, PolicyKind::SjfBf, &cfg);
        let (traced, trace) = traced(&jobs, PolicyKind::SjfBf, &cfg, None);
        assert_eq!(plain.records, traced.records);
        assert_eq!(trace.submitted, 40);
        assert_eq!(trace.policy, "SJF-BF");
        check_causal_order(&trace.records).unwrap();
    }

    #[test]
    fn every_job_has_a_full_lifecycle() {
        let jobs: Vec<Job> = (0..30)
            .map(|i| job(i, i as f64 * 40.0, 200.0, 2500.0, 1 + (i % 4), 1e6))
            .collect();
        let cfg = RunConfig {
            nodes: 8,
            econ: EconomicModel::BidBased,
        };
        let (result, trace) = traced(&jobs, PolicyKind::Libra, &cfg, None);
        let count = |kind: &str| {
            trace
                .records
                .iter()
                .filter(|r| r.event.kind() == kind)
                .count() as u32
        };
        assert_eq!(count("job_submitted"), result.metrics.submitted);
        assert_eq!(count("bid_evaluated"), result.metrics.submitted);
        assert_eq!(count("sla_accepted"), result.metrics.accepted);
        assert_eq!(
            count("sla_rejected"),
            result.metrics.submitted - result.metrics.accepted
        );
        assert_eq!(
            count("sla_violated"),
            count("job_completed") - result.metrics.fulfilled
        );
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn faulty_trace_is_causally_ordered_and_carries_failure_events() {
        let jobs: Vec<Job> = (0..40)
            .map(|i| job(i, i as f64 * 100.0, 800.0, 8000.0, 1 + (i % 4), 1e5))
            .collect();
        let cfg = RunConfig {
            nodes: 8,
            econ: EconomicModel::CommodityMarket,
        };
        let fault = FaultConfig::exponential(11, 1500.0, 2000.0);
        let (result, trace) = traced(&jobs, PolicyKind::FcfsBf, &cfg, Some(&fault));
        check_causal_order(&trace.records).unwrap();
        let count = |kind: &str| {
            trace
                .records
                .iter()
                .filter(|r| r.event.kind() == kind)
                .count() as u32
        };
        assert_eq!(count("node_fail"), result.metrics.node_failures);
        assert_eq!(count("node_repair"), result.metrics.node_repairs);
        assert_eq!(count("job_restart"), result.metrics.restarts);
        assert!(result.metrics.node_failures > 0);
        // The traced result is identical to the untraced faulty run.
        let plain = Run::new(&jobs, PolicyKind::FcfsBf, &cfg)
            .fault(Some(&fault))
            .execute()
            .unwrap()
            .result;
        assert_eq!(plain.records, result.records);
    }

    #[test]
    fn every_traced_run_carries_kernel_spans() {
        let jobs = vec![job(0, 0.0, 100.0, 1000.0, 2, 1e6)];
        let cfg = RunConfig {
            nodes: 4,
            econ: EconomicModel::CommodityMarket,
        };
        let (_, trace) = traced(&jobs, PolicyKind::FcfsBf, &cfg, None);
        let spans = trace
            .records
            .iter()
            .filter(|r| r.event.kind() == "kernel_span")
            .count();
        assert!(spans > 0, "a traced run records its kernel spans");
    }
}
