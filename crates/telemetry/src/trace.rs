//! Structured per-job SLA lifecycle tracing.
//!
//! While the sibling metrics primitives aggregate (counters, histograms),
//! this module records *individual* events: one [`TraceRecord`] per
//! lifecycle step of every job — submit → bid → accept/reject → start →
//! finish/violation — plus one [`KernelSpan`] per DES event-queue lifetime.
//! The record stream is the raw material for the trace-report analysis in
//! `ccs-experiments` and doubles as a correctness oracle: the paper's
//! Eqs. 1–4 can be recomputed from it and cross-checked against the
//! runner's aggregate metrics.
//!
//! # When records are made
//!
//! The simulation runner synthesises traces *after* a run from its outcome
//! stream, so tracing never touches the hot path and results stay
//! byte-identical. Only DES kernel spans are captured live: a traced run
//! opens a thread-local window ([`begin_kernel_capture`]), each event
//! queue dropped inside it adds its span ([`record_kernel_span`]), and
//! [`take_kernel_capture`] closes it. Outside a window a queue's drop
//! records nothing.
//!
//! # Schema versioning
//!
//! [`TRACE_SCHEMA_VERSION`] names the wire format of serialised records.
//! Any change to an existing event variant or field — rename, removal,
//! retyping, or a semantic change to its value — bumps the version.
//! Purely additive variants or fields also bump it, because consumers
//! deserialise strictly. Emitters stamp the version into the provenance
//! manifest next to the trace so consumers can refuse mismatches.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::VecDeque;

/// Version of the serialised trace-record schema. See the module docs for
/// the bump rule.
///
/// v2: added the failure-injection variants `NodeFail`, `NodeRepair`, and
/// `JobRestart`.
pub const TRACE_SCHEMA_VERSION: u32 = 2;

/// Default ring capacity of a [`TraceSink`]: comfortably holds the ~6
/// events per job of a full 5000-job paper run.
pub const DEFAULT_SINK_CAPACITY: usize = 1 << 20;

/// Counters describing one DES event-queue lifetime, captured when the
/// queue flushes its stats on drop. Aggregated per run: a policy may own
/// several queues, so a run's trace can carry several spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelSpan {
    /// Events pushed onto the queue.
    pub scheduled: u64,
    /// Events popped and handled.
    pub processed: u64,
    /// Events cancelled before firing.
    pub cancelled: u64,
    /// Tombstoned entries skipped during pops.
    pub tombstone_skips: u64,
    /// High-water mark of live queue depth.
    pub depth_hwm: u64,
}

/// One typed trace event. Job-lifecycle variants carry the job id; the
/// [`KernelSpan`](TraceEvent::KernelSpan) variant describes the DES kernel
/// and has no job.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A job entered the system with its SLA terms.
    JobSubmitted {
        /// Job id.
        job: u64,
        /// Processors requested.
        procs: u64,
        /// User runtime estimate (seconds).
        estimate: f64,
        /// Relative deadline (seconds after submit).
        deadline: f64,
        /// Budget (currency units).
        budget: f64,
        /// Penalty rate (currency units per second of delay).
        penalty_rate: f64,
    },
    /// A policy evaluated the job's SLA bid.
    BidEvaluated {
        /// Job id.
        job: u64,
        /// Policy name (e.g. `"FCFS-BF"`, `"Libra"`).
        policy: String,
        /// `"accept"` or `"reject"`.
        decision: String,
        /// Rejection reason code when `decision == "reject"`.
        reason: Option<String>,
    },
    /// The SLA was accepted (provider is now on the hook for the deadline).
    SlaAccepted {
        /// Job id.
        job: u64,
    },
    /// The SLA was declined.
    SlaRejected {
        /// Job id.
        job: u64,
        /// Rejection reason code (see `ccs_policies::RejectReason`).
        reason: String,
    },
    /// The job began executing.
    JobStarted {
        /// Job id.
        job: u64,
        /// Seconds spent waiting since submission.
        wait: f64,
    },
    /// The job finished (fulfilled or late).
    JobCompleted {
        /// Job id.
        job: u64,
        /// Execution start time (sim seconds).
        start: f64,
        /// Completion time (sim seconds).
        finish: f64,
        /// Whether the deadline was met.
        fulfilled: bool,
        /// Provider utility earned (after any penalty).
        utility: f64,
    },
    /// The job completed after its deadline: an SLA violation.
    SlaViolated {
        /// Job id.
        job: u64,
        /// Seconds past the deadline.
        delay: f64,
        /// Penalty term `penalty_rate × delay` of the paper's utility
        /// function (Eqs. 8–9).
        penalty: f64,
        /// Net utility actually earned on the job.
        utility: f64,
    },
    /// A cluster node went down (failure injection); capacity was lost and
    /// any job resident on the node was preempted.
    NodeFail {
        /// Node index.
        node: u32,
    },
    /// A failed cluster node came back up with full capacity.
    NodeRepair {
        /// Node index.
        node: u32,
    },
    /// A previously started job was re-admitted after a node failure
    /// preempted it (restart-from-scratch or resume-with-penalty). The
    /// job's lifecycle rewinds: a fresh `JobStarted` follows.
    JobRestart {
        /// Job id.
        job: u64,
        /// Restart attempt number (1 = first re-admission).
        attempt: u32,
    },
    /// A DES event-queue lifetime (appended at the end of a run's trace).
    KernelSpan(KernelSpan),
}

impl TraceEvent {
    /// Short kind name, stable across schema versions.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::JobSubmitted { .. } => "job_submitted",
            TraceEvent::BidEvaluated { .. } => "bid_evaluated",
            TraceEvent::SlaAccepted { .. } => "sla_accepted",
            TraceEvent::SlaRejected { .. } => "sla_rejected",
            TraceEvent::JobStarted { .. } => "job_started",
            TraceEvent::JobCompleted { .. } => "job_completed",
            TraceEvent::SlaViolated { .. } => "sla_violated",
            TraceEvent::NodeFail { .. } => "node_fail",
            TraceEvent::NodeRepair { .. } => "node_repair",
            TraceEvent::JobRestart { .. } => "job_restart",
            TraceEvent::KernelSpan(_) => "kernel_span",
        }
    }

    /// The job this event belongs to, if any.
    pub fn job(&self) -> Option<u64> {
        match *self {
            TraceEvent::JobSubmitted { job, .. }
            | TraceEvent::BidEvaluated { job, .. }
            | TraceEvent::SlaAccepted { job }
            | TraceEvent::SlaRejected { job, .. }
            | TraceEvent::JobStarted { job, .. }
            | TraceEvent::JobCompleted { job, .. }
            | TraceEvent::SlaViolated { job, .. }
            | TraceEvent::JobRestart { job, .. } => Some(job),
            TraceEvent::NodeFail { .. } | TraceEvent::NodeRepair { .. } => None,
            TraceEvent::KernelSpan(_) => None,
        }
    }

    /// Position of this event kind in a job's lifecycle. Within one job the
    /// ranks of successive events must strictly increase; each kind occurs
    /// at most once per job. The exception is [`JobRestart`]
    /// (TraceEvent::JobRestart): it *rewinds* the job's lifecycle back to
    /// the accepted state, so a fresh `JobStarted` may legally follow — the
    /// causal checker resets the job's rank at each restart.
    pub fn causal_rank(&self) -> u8 {
        match self {
            TraceEvent::JobSubmitted { .. } => 0,
            TraceEvent::BidEvaluated { .. } => 1,
            TraceEvent::SlaAccepted { .. } | TraceEvent::SlaRejected { .. } => 2,
            TraceEvent::JobRestart { .. } => 2,
            TraceEvent::JobStarted { .. } => 3,
            TraceEvent::JobCompleted { .. } => 4,
            TraceEvent::SlaViolated { .. } => 5,
            TraceEvent::NodeFail { .. } | TraceEvent::NodeRepair { .. } => 1,
            TraceEvent::KernelSpan(_) => 6,
        }
    }
}

/// One timestamped, sequenced trace event. `seq` is the global emission
/// order (strictly increasing within a trace); `t` is sim time in seconds.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Global sequence number, strictly increasing within a trace.
    pub seq: u64,
    /// Simulation time of the event, in seconds.
    pub t: f64,
    /// The event payload.
    pub event: TraceEvent,
}

/// A bounded, single-owner ring buffer of trace records.
///
/// "Lock-free-ish" by construction: the sink is owned by the thread that
/// synthesises the trace, so there are no locks and no atomics at all —
/// the bound exists to cap memory, not to mediate concurrency. When full,
/// the *oldest* records are evicted and counted in [`dropped`](Self::dropped),
/// keeping the tail of a long run (completions, kernel spans) intact.
#[derive(Clone, Debug)]
pub struct TraceSink {
    cap: usize,
    next_seq: u64,
    dropped: u64,
    buf: VecDeque<TraceRecord>,
}

impl TraceSink {
    /// A sink holding at most `cap` records (minimum 1).
    pub fn with_capacity(cap: usize) -> Self {
        TraceSink {
            cap: cap.max(1),
            next_seq: 0,
            dropped: 0,
            buf: VecDeque::new(),
        }
    }

    /// Appends an event at sim time `t`, assigning the next sequence
    /// number. Evicts the oldest record when the ring is full.
    pub fn record(&mut self, t: f64, event: TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(TraceRecord {
            seq: self.next_seq,
            t,
            event,
        });
        self.next_seq += 1;
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the sink, yielding the retained records in emission order.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.buf.into()
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::with_capacity(DEFAULT_SINK_CAPACITY)
    }
}

/// Checks the causal-ordering invariant of a trace: `seq` strictly
/// increases, and within each job, sim time never decreases and
/// [`causal_rank`](TraceEvent::causal_rank) strictly increases (submit
/// before bid before accept/reject before start before completion before
/// violation). Returns a description of the first violation found.
pub fn check_causal_order(records: &[TraceRecord]) -> Result<(), String> {
    let mut last_seq: Option<u64> = None;
    let mut per_job: std::collections::HashMap<u64, (f64, u8)> = std::collections::HashMap::new();
    for r in records {
        if let Some(prev) = last_seq {
            if r.seq <= prev {
                return Err(format!(
                    "seq not strictly increasing: {} after {prev}",
                    r.seq
                ));
            }
        }
        last_seq = Some(r.seq);
        if let Some(job) = r.event.job() {
            let rank = r.event.causal_rank();
            let restart = matches!(r.event, TraceEvent::JobRestart { .. });
            if let Some(&(prev_t, prev_rank)) = per_job.get(&job) {
                if r.t < prev_t {
                    return Err(format!(
                        "job {job}: {} at t={} precedes an earlier event at t={prev_t}",
                        r.event.kind(),
                        r.t
                    ));
                }
                // A restart rewinds the lifecycle (rank resets to its own);
                // every other kind must strictly advance it.
                if !restart && rank <= prev_rank {
                    return Err(format!(
                        "job {job}: {} (rank {rank}) out of lifecycle order after rank {prev_rank}",
                        r.event.kind()
                    ));
                }
            } else if restart {
                return Err(format!("job {job}: restart without a prior lifecycle"));
            }
            per_job.insert(job, (r.t, rank));
        }
    }
    Ok(())
}

thread_local! {
    static KERNEL_SPANS: RefCell<Option<Vec<KernelSpan>>> = const { RefCell::new(None) };
}

/// Opens a kernel-span capture window on this thread. Queue-stat flushes
/// that happen before [`take_kernel_capture`] are collected.
pub fn begin_kernel_capture() {
    KERNEL_SPANS.with(|c| *c.borrow_mut() = Some(Vec::new()));
}

/// Closes the capture window and returns the spans collected since
/// [`begin_kernel_capture`].
pub fn take_kernel_capture() -> Vec<KernelSpan> {
    KERNEL_SPANS.with(|c| c.borrow_mut().take().unwrap_or_default())
}

/// Records a kernel span into this thread's open capture window, if any.
/// Called by the DES event queue when it drops.
pub fn record_kernel_span(span: KernelSpan) {
    KERNEL_SPANS.with(|c| {
        if let Some(spans) = c.borrow_mut().as_mut() {
            spans.push(span);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submitted(job: u64) -> TraceEvent {
        TraceEvent::JobSubmitted {
            job,
            procs: 1,
            estimate: 10.0,
            deadline: 100.0,
            budget: 5.0,
            penalty_rate: 0.01,
        }
    }

    #[test]
    fn sink_assigns_sequence_and_evicts_oldest() {
        let mut sink = TraceSink::with_capacity(2);
        sink.record(0.0, submitted(1));
        sink.record(1.0, submitted(2));
        sink.record(2.0, submitted(3));
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 1);
        let recs = sink.into_records();
        assert_eq!(recs[0].seq, 1);
        assert_eq!(recs[1].seq, 2);
        assert_eq!(recs[1].event.job(), Some(3));
    }

    #[test]
    fn causal_check_accepts_a_well_formed_lifecycle() {
        let mut sink = TraceSink::default();
        sink.record(0.0, submitted(7));
        sink.record(
            0.0,
            TraceEvent::BidEvaluated {
                job: 7,
                policy: "FCFS-BF".into(),
                decision: "accept".into(),
                reason: None,
            },
        );
        sink.record(0.0, TraceEvent::SlaAccepted { job: 7 });
        sink.record(3.0, TraceEvent::JobStarted { job: 7, wait: 3.0 });
        sink.record(
            13.0,
            TraceEvent::JobCompleted {
                job: 7,
                start: 3.0,
                finish: 13.0,
                fulfilled: true,
                utility: 4.0,
            },
        );
        assert_eq!(check_causal_order(&sink.into_records()), Ok(()));
    }

    #[test]
    fn causal_check_rejects_time_reversal_and_rank_repeat() {
        let mut sink = TraceSink::default();
        sink.record(5.0, submitted(1));
        sink.record(4.0, TraceEvent::SlaAccepted { job: 1 });
        assert!(check_causal_order(&sink.into_records()).is_err());

        let mut sink = TraceSink::default();
        sink.record(0.0, TraceEvent::SlaAccepted { job: 1 });
        sink.record(
            1.0,
            TraceEvent::SlaRejected {
                job: 1,
                reason: "over_budget".into(),
            },
        );
        assert!(check_causal_order(&sink.into_records()).is_err());
    }

    #[test]
    fn restart_rewinds_the_lifecycle() {
        let mut sink = TraceSink::default();
        sink.record(0.0, submitted(3));
        sink.record(0.0, TraceEvent::SlaAccepted { job: 3 });
        sink.record(1.0, TraceEvent::JobStarted { job: 3, wait: 1.0 });
        sink.record(5.0, TraceEvent::NodeFail { node: 2 });
        sink.record(5.0, TraceEvent::JobRestart { job: 3, attempt: 1 });
        sink.record(5.0, TraceEvent::JobStarted { job: 3, wait: 0.0 });
        sink.record(9.0, TraceEvent::NodeRepair { node: 2 });
        sink.record(
            15.0,
            TraceEvent::JobCompleted {
                job: 3,
                start: 5.0,
                finish: 15.0,
                fulfilled: true,
                utility: 1.0,
            },
        );
        assert_eq!(check_causal_order(&sink.into_records()), Ok(()));

        // A second start WITHOUT an intervening restart is still an error.
        let mut sink = TraceSink::default();
        sink.record(0.0, submitted(4));
        sink.record(1.0, TraceEvent::JobStarted { job: 4, wait: 1.0 });
        sink.record(2.0, TraceEvent::JobStarted { job: 4, wait: 2.0 });
        assert!(check_causal_order(&sink.into_records()).is_err());

        // A restart out of thin air (no prior lifecycle) is an error too.
        let mut sink = TraceSink::default();
        sink.record(0.0, TraceEvent::JobRestart { job: 5, attempt: 1 });
        assert!(check_causal_order(&sink.into_records()).is_err());
    }

    #[test]
    fn failure_events_have_no_job_and_round_trip() {
        let ev = TraceEvent::NodeFail { node: 7 };
        assert_eq!(ev.job(), None);
        assert_eq!(ev.kind(), "node_fail");
        let rec = TraceRecord {
            seq: 1,
            t: 2.0,
            event: TraceEvent::JobRestart { job: 3, attempt: 2 },
        };
        let json = serde_json::to_string(&rec).unwrap();
        let back: TraceRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn records_round_trip_through_json() {
        let rec = TraceRecord {
            seq: 42,
            t: 1.5,
            event: TraceEvent::SlaRejected {
                job: 9,
                reason: "too_large".into(),
            },
        };
        let json = serde_json::to_string(&rec).unwrap();
        let back: TraceRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn kernel_capture_is_scoped() {
        record_kernel_span(KernelSpan::default()); // outside any window: ignored
        begin_kernel_capture();
        record_kernel_span(KernelSpan {
            scheduled: 3,
            processed: 3,
            ..Default::default()
        });
        let spans = take_kernel_capture();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].scheduled, 3);
        assert!(take_kernel_capture().is_empty());
    }
}
