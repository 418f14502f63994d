//! Trace analysis: reconstructs per-job SLA lifecycles from a trace-record
//! stream, recomputes the paper's four objectives (Eqs. 1–4) from the trace
//! alone, and cross-checks them against the runner's metrics — the
//! correctness oracle tying the tracing layer to the metrics pipeline.

use crate::trace_run::ManifestMetrics;
use ccs_telemetry::trace::{check_causal_order, KernelSpan, TraceEvent, TraceRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Relative tolerance for the float objectives (Eqs. 1 and 4): trace
/// analysis sums in sorted-trace order while the runner sums in
/// outcome-stream order, so the totals may differ by rounding.
const REL_TOL: f64 = 1e-9;

/// One job's SLA lifecycle, reconstructed from its trace events.
#[derive(Clone, Debug, Default)]
pub struct JobLifecycle {
    /// Job id.
    pub job: u64,
    /// Submission time (sim seconds).
    pub submit: f64,
    /// Offered budget (dollars).
    pub budget: f64,
    /// Whether the SLA was accepted.
    pub accepted: bool,
    /// Rejection reason code, for rejected jobs.
    pub reject_reason: Option<String>,
    /// Start time, once started.
    pub start: Option<f64>,
    /// Wait from submission to start (seconds), once started.
    pub wait: Option<f64>,
    /// Finish time, once completed.
    pub finish: Option<f64>,
    /// Whether the job finished within its deadline.
    pub fulfilled: bool,
    /// Whether an `sla_violated` event was recorded.
    pub violated: bool,
    /// Utility earned on this job (dollars).
    pub utility: f64,
    /// Penalty paid on this job (dollars).
    pub penalty: f64,
    /// Failure-induced restarts (re-admissions) of this job.
    pub restarts: u32,
}

/// Kernel-event counters aggregated over all spans in the trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelTotals {
    /// Spans seen.
    pub spans: u64,
    /// Events scheduled.
    pub scheduled: u64,
    /// Events processed.
    pub processed: u64,
    /// Events cancelled.
    pub cancelled: u64,
    /// Tombstones skipped on pop.
    pub tombstone_skips: u64,
    /// Maximum queue-depth high-water mark over spans.
    pub depth_hwm: u64,
}

impl KernelTotals {
    fn absorb(&mut self, s: &KernelSpan) {
        self.spans += 1;
        self.scheduled += s.scheduled;
        self.processed += s.processed;
        self.cancelled += s.cancelled;
        self.tombstone_skips += s.tombstone_skips;
        self.depth_hwm = self.depth_hwm.max(s.depth_hwm);
    }
}

/// The result of analysing a trace-record stream.
#[derive(Clone, Debug)]
pub struct TraceAnalysis {
    /// Per-job lifecycles, ordered by job id.
    pub lifecycles: Vec<JobLifecycle>,
    /// Jobs submitted.
    pub submitted: u32,
    /// SLAs accepted.
    pub accepted: u32,
    /// SLAs rejected.
    pub rejected: u32,
    /// Jobs fulfilled.
    pub fulfilled: u32,
    /// SLA violations (accepted but missed deadline).
    pub violated: u32,
    /// Σ wait over fulfilled jobs (Eq. 1 numerator).
    pub wait_sum_fulfilled: f64,
    /// Σ utility over completed jobs (Eq. 4 numerator).
    pub utility_total: f64,
    /// Σ budget over submitted jobs (Eq. 4 denominator).
    pub budget_total: f64,
    /// Σ penalties over violated jobs.
    pub penalty_total: f64,
    /// Rejection counts keyed by reason code.
    pub rejection_reasons: BTreeMap<String, u32>,
    /// Node-failure events in the trace (fault injection).
    pub node_failures: u32,
    /// Node-repair events in the trace (fault injection).
    pub node_repairs: u32,
    /// Failure-induced job restarts across all jobs.
    pub restarts: u32,
    /// Aggregated DES-kernel counters (empty for a trace without spans).
    pub kernel: KernelTotals,
    /// Total records analysed.
    pub records: usize,
}

/// Reconstructs per-job lifecycles and aggregate counters from a record
/// stream. Fails if the stream is not causally ordered (see
/// [`check_causal_order`]) or events arrive for a job never submitted.
pub fn analyze(records: &[TraceRecord]) -> Result<TraceAnalysis, String> {
    check_causal_order(records)?;

    let mut lives: BTreeMap<u64, JobLifecycle> = BTreeMap::new();
    let mut kernel = KernelTotals::default();
    let mut node_failures: u32 = 0;
    let mut node_repairs: u32 = 0;
    let known = |lives: &mut BTreeMap<u64, JobLifecycle>, job: u64, what: &str| {
        if lives.contains_key(&job) {
            Ok(())
        } else {
            Err(format!("{what} for job {job} which was never submitted"))
        }
    };
    for r in records {
        match &r.event {
            TraceEvent::JobSubmitted { job, budget, .. } => {
                if lives
                    .insert(
                        *job,
                        JobLifecycle {
                            job: *job,
                            submit: r.t,
                            budget: *budget,
                            ..JobLifecycle::default()
                        },
                    )
                    .is_some()
                {
                    return Err(format!("job {job} submitted twice"));
                }
            }
            TraceEvent::BidEvaluated { job, .. } => known(&mut lives, *job, "bid_evaluated")?,
            TraceEvent::SlaAccepted { job } => {
                known(&mut lives, *job, "sla_accepted")?;
                lives.get_mut(job).unwrap().accepted = true;
            }
            TraceEvent::SlaRejected { job, reason } => {
                known(&mut lives, *job, "sla_rejected")?;
                lives.get_mut(job).unwrap().reject_reason = Some(reason.clone());
            }
            TraceEvent::JobStarted { job, wait } => {
                known(&mut lives, *job, "job_started")?;
                let l = lives.get_mut(job).unwrap();
                // A restarted job starts more than once; Eq. 1 measures the
                // wait to its *first* start, so later starts don't overwrite.
                if l.start.is_none() {
                    l.start = Some(r.t);
                    l.wait = Some(*wait);
                }
            }
            TraceEvent::JobCompleted {
                job,
                finish,
                fulfilled,
                utility,
                ..
            } => {
                known(&mut lives, *job, "job_completed")?;
                let l = lives.get_mut(job).unwrap();
                l.finish = Some(*finish);
                l.fulfilled = *fulfilled;
                l.utility = *utility;
            }
            TraceEvent::SlaViolated {
                job,
                penalty,
                utility,
                ..
            } => {
                known(&mut lives, *job, "sla_violated")?;
                let l = lives.get_mut(job).unwrap();
                l.violated = true;
                l.penalty = *penalty;
                l.utility = *utility;
            }
            TraceEvent::JobRestart { job, .. } => {
                known(&mut lives, *job, "job_restart")?;
                let l = lives.get_mut(job).unwrap();
                l.restarts += 1;
                // The lifecycle rewinds: completion state is re-earned.
                l.finish = None;
                l.fulfilled = false;
            }
            TraceEvent::NodeFail { .. } => node_failures += 1,
            TraceEvent::NodeRepair { .. } => node_repairs += 1,
            TraceEvent::KernelSpan(span) => kernel.absorb(span),
        }
    }

    let mut a = TraceAnalysis {
        lifecycles: Vec::with_capacity(lives.len()),
        submitted: 0,
        accepted: 0,
        rejected: 0,
        fulfilled: 0,
        violated: 0,
        wait_sum_fulfilled: 0.0,
        utility_total: 0.0,
        budget_total: 0.0,
        penalty_total: 0.0,
        rejection_reasons: BTreeMap::new(),
        node_failures,
        node_repairs,
        restarts: 0,
        kernel,
        records: records.len(),
    };
    for (_, l) in lives {
        a.restarts += l.restarts;
        a.submitted += 1;
        a.budget_total += l.budget;
        if l.accepted {
            a.accepted += 1;
            a.utility_total += l.utility;
        } else {
            a.rejected += 1;
            let reason = l.reject_reason.clone().unwrap_or_else(|| "none".into());
            *a.rejection_reasons.entry(reason).or_insert(0) += 1;
        }
        if l.fulfilled {
            a.fulfilled += 1;
            a.wait_sum_fulfilled += l.wait.unwrap_or(0.0);
        }
        if l.violated {
            a.violated += 1;
            a.penalty_total += l.penalty;
        }
        a.lifecycles.push(l);
    }
    Ok(a)
}

impl TraceAnalysis {
    /// The four objectives recomputed from the trace, in paper order
    /// `[wait, SLA %, reliability %, profitability %]` — the degenerate
    /// cases follow `RunMetrics` exactly (no fulfilled jobs → 0 wait;
    /// nothing accepted → 100 % reliability; no budget → 0 % profit).
    pub fn objectives(&self) -> [f64; 4] {
        let wait = if self.fulfilled == 0 {
            0.0
        } else {
            self.wait_sum_fulfilled / self.fulfilled as f64
        };
        let sla = if self.submitted == 0 {
            0.0
        } else {
            self.fulfilled as f64 / self.submitted as f64 * 100.0
        };
        let rel = if self.accepted == 0 {
            100.0
        } else {
            self.fulfilled as f64 / self.accepted as f64 * 100.0
        };
        let prof = if self.budget_total <= 0.0 {
            0.0
        } else {
            (self.utility_total / self.budget_total * 100.0).max(0.0)
        };
        [wait, sla, rel, prof]
    }

    /// The `k` started jobs with the longest waits, longest first.
    pub(crate) fn top_wait(&self, k: usize) -> Vec<&JobLifecycle> {
        let mut started: Vec<&JobLifecycle> = self
            .lifecycles
            .iter()
            .filter(|l| l.wait.is_some())
            .collect();
        started.sort_by(|a, b| {
            b.wait
                .unwrap_or(0.0)
                .total_cmp(&a.wait.unwrap_or(0.0))
                .then(a.job.cmp(&b.job))
        });
        started.truncate(k);
        started
    }

    /// Compares the trace-derived objectives against the runner's metrics
    /// from the provenance manifest. Counts (and thus Eqs. 2/3) must match
    /// exactly; the float objectives (Eqs. 1/4) within `REL_TOL`.
    /// Returns one message per mismatch — empty means the oracle passed.
    pub fn crosscheck(&self, m: &ManifestMetrics) -> Vec<String> {
        let mut bad = Vec::new();
        let mut exact_u32 = |name: &str, trace: u32, runner: u32| {
            if trace != runner {
                bad.push(format!("{name}: trace {trace} != runner {runner}"));
            }
        };
        exact_u32("submitted", self.submitted, m.submitted);
        exact_u32("accepted", self.accepted, m.accepted);
        exact_u32("fulfilled", self.fulfilled, m.fulfilled);

        let [wait, sla, rel, prof] = self.objectives();
        let close = |a: f64, b: f64| (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0);
        let mut approx = |name: &str, trace: f64, runner: f64| {
            if !close(trace, runner) {
                bad.push(format!("{name}: trace {trace} != runner {runner}"));
            }
        };
        approx(
            "wait_sum_fulfilled",
            self.wait_sum_fulfilled,
            m.wait_sum_fulfilled,
        );
        approx("utility_total", self.utility_total, m.utility_total);
        approx("budget_total", self.budget_total, m.budget_total);
        approx("Eq.1 wait", wait, m.wait);
        approx("Eq.4 profitability", prof, m.profitability_pct);
        // Eqs. 2/3 are ratios of the integer counts checked above, but
        // compare the recorded values too in case the manifest was edited.
        approx("Eq.2 SLA", sla, m.sla_pct);
        approx("Eq.3 reliability", rel, m.reliability_pct);
        bad
    }

    /// Renders the human-readable report: headline objectives, rejection
    /// root causes, the top-`k` waits, kernel totals, and — when the
    /// runner's metrics are available — the cross-check verdict.
    pub fn render(&self, metrics: Option<&ManifestMetrics>, k: usize) -> String {
        let mut s = String::new();
        let [wait, sla, rel, prof] = self.objectives();
        let _ = writeln!(
            s,
            "trace: {} records, {} jobs ({} accepted, {} rejected, {} fulfilled, {} violated)",
            self.records,
            self.submitted,
            self.accepted,
            self.rejected,
            self.fulfilled,
            self.violated
        );
        let _ = writeln!(s, "objectives recomputed from trace:");
        let _ = writeln!(s, "  Eq.1 wait           {wait:12.3} s");
        let _ = writeln!(s, "  Eq.2 SLA            {sla:12.3} %");
        let _ = writeln!(s, "  Eq.3 reliability    {rel:12.3} %");
        let _ = writeln!(s, "  Eq.4 profitability  {prof:12.3} %");
        let _ = writeln!(
            s,
            "  utility ${:.2} of ${:.2} offered; penalties ${:.2}",
            self.utility_total, self.budget_total, self.penalty_total
        );
        if self.node_failures > 0 || self.node_repairs > 0 || self.restarts > 0 {
            let _ = writeln!(
                s,
                "fault injection: {} node failures, {} repairs, {} job restarts",
                self.node_failures, self.node_repairs, self.restarts
            );
        }

        if self.rejection_reasons.is_empty() {
            let _ = writeln!(s, "rejections: none");
        } else {
            let _ = writeln!(s, "rejections by root cause:");
            for (reason, count) in &self.rejection_reasons {
                let _ = writeln!(s, "  {reason:<28} {count:6}");
            }
        }

        let top = self.top_wait(k);
        if !top.is_empty() {
            let _ = writeln!(s, "top-{} waits:", top.len());
            let _ = writeln!(
                s,
                "  {:>8} {:>12} {:>12} {:>12}",
                "job", "wait_s", "submit", "start"
            );
            for l in top {
                let _ = writeln!(
                    s,
                    "  {:>8} {:>12.3} {:>12.3} {:>12.3}",
                    l.job,
                    l.wait.unwrap_or(0.0),
                    l.submit,
                    l.start.unwrap_or(0.0)
                );
            }
        }

        if self.kernel.spans > 0 {
            let kt = &self.kernel;
            let _ = writeln!(
                s,
                "kernel: {} spans — {} scheduled, {} processed, {} cancelled, {} tombstone skips, depth hwm {}",
                kt.spans, kt.scheduled, kt.processed, kt.cancelled, kt.tombstone_skips, kt.depth_hwm
            );
        } else {
            let _ = writeln!(s, "kernel: no spans in this trace");
        }

        match metrics {
            None => {
                let _ = writeln!(s, "cross-check: skipped (no manifest)");
            }
            Some(m) => {
                let bad = self.crosscheck(m);
                if bad.is_empty() {
                    let _ = writeln!(s, "cross-check vs runner metrics: OK (Eqs. 1-4 agree)");
                } else {
                    let _ = writeln!(s, "cross-check vs runner metrics: {} MISMATCHES", bad.len());
                    for b in &bad {
                        let _ = writeln!(s, "  MISMATCH {b}");
                    }
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ExperimentConfig;
    use crate::trace_run::{capture_cell, TraceCellSpec};

    #[test]
    fn analysis_matches_runner_metrics() {
        let cfg = ExperimentConfig::quick().with_jobs(60);
        let bundle = capture_cell(&TraceCellSpec::default(), &cfg);
        let a = analyze(&bundle.trace.records).unwrap();
        assert_eq!(a.crosscheck(&bundle.manifest.metrics), Vec::<String>::new());
        assert_eq!(a.rejected, a.submitted - a.accepted);
        let reasons: u32 = a.rejection_reasons.values().sum();
        assert_eq!(reasons, a.rejected);
    }

    #[test]
    fn top_wait_is_sorted_descending() {
        let cfg = ExperimentConfig::quick().with_jobs(60);
        let bundle = capture_cell(&TraceCellSpec::default(), &cfg);
        let a = analyze(&bundle.trace.records).unwrap();
        let top = a.top_wait(10);
        for pair in top.windows(2) {
            assert!(pair[0].wait.unwrap() >= pair[1].wait.unwrap());
        }
    }

    #[test]
    fn render_flags_tampered_metrics() {
        let cfg = ExperimentConfig::quick().with_jobs(30);
        let bundle = capture_cell(&TraceCellSpec::default(), &cfg);
        let a = analyze(&bundle.trace.records).unwrap();
        let ok = a.render(Some(&bundle.manifest.metrics), 5);
        assert!(ok.contains("cross-check vs runner metrics: OK"));
        let mut tampered = bundle.manifest.metrics;
        tampered.fulfilled += 1;
        assert!(!a.crosscheck(&tampered).is_empty());
    }
}
