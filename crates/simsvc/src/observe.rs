//! The outcome-observer hook: streaming statistics *during* a run.
//!
//! The batch pipeline scores a run only after [`crate::runner`] has drained
//! the last event. A [`RunObserver`] instead receives every [`Outcome`] the
//! moment the driver produces it, so per-run risk measures exist at any
//! point in simulated time — the substrate an online SLA broker needs.
//!
//! The hook is strictly read-only: the driver feeds the observer newly
//! appended outcomes between simulation steps and never lets it touch
//! policy, cluster, or queue state, so a run with an observer attached is
//! byte-identical to one without (pinned by the perf-snapshot test and the
//! equality tests below).
//!
//! [`LiveRunStats`] is the built-in observer: it folds the stream into the
//! same [`RunMetrics`] the batch [`collect`](crate::runner) post-pass
//! produces (the equality is exact, not approximate — both feed the one
//! `MetricsFold`), plus a streaming wait distribution and a
//! [`RealtimeRisk`] score.

use crate::metrics::{MetricsFold, RunMetrics};
use ccs_policies::Outcome;
use ccs_risk::stream::{RealtimeRisk, Welford};
use ccs_workload::Job;

use crate::runner::RunConfig;

/// Receives each simulation [`Outcome`] as the run produces it.
///
/// Outcomes arrive in stream order, between driver steps (after each
/// submission, failure delivery, and drain advance). During fault
/// injection the observer sees the *live* stream: a restart surfaces as an
/// `Accepted` for a job it has already seen `Interrupted` (the batch
/// post-pass rewrites these to `Restarted` after the fact; an observer
/// wanting batch-equivalent accounting applies the same rule, as
/// [`LiveRunStats`] does).
pub trait RunObserver {
    /// Called once per outcome, in stream order.
    fn on_outcome(&mut self, outcome: &Outcome);
}

/// Streaming per-run statistics: live [`RunMetrics`], a Welford wait
/// distribution, and a [`RealtimeRisk`] score, all updated outcome by
/// outcome.
///
/// At end of run, [`LiveRunStats::metrics`] equals the batch post-pass
/// bit for bit — including under fault injection, where the observer
/// mirrors the accepted→restarted / rejected→aborted reconciliation the
/// batch path applies after the fact.
#[derive(Clone, Debug)]
pub struct LiveRunStats {
    fold: MetricsFold<Job>,
    /// Streaming distribution of per-job waits over fulfilled jobs.
    wait_stats: Welford,
    risk: RealtimeRisk,
    /// Largest simulated timestamp observed so far.
    now: f64,
}

impl LiveRunStats {
    /// An observer for a run of `jobs` under `cfg`. The job table is
    /// needed up front: deadline fulfilment and bid-based utility are
    /// functions of the submitted job, not of the outcome alone.
    pub fn new(jobs: &[Job], cfg: &RunConfig) -> Self {
        LiveRunStats {
            fold: MetricsFold::new(jobs, cfg.econ, |j| *j),
            wait_stats: Welford::new(),
            risk: RealtimeRisk::new(),
            now: 0.0,
        }
    }

    /// The run metrics as of the last observed outcome. At end of run this
    /// equals the batch post-pass exactly.
    pub fn metrics(&self) -> &RunMetrics {
        &self.fold.metrics
    }

    /// The four paper objectives as of the last observed outcome.
    pub fn objectives(&self) -> [f64; 4] {
        self.metrics().objectives()
    }

    /// Streaming wait distribution over fulfilled jobs (seconds).
    pub fn wait_stats(&self) -> &Welford {
        &self.wait_stats
    }

    /// The live risk score: mean violation severity × observed violation
    /// probability over final dispositions (fulfilments, late completions,
    /// rejections, aborts).
    pub fn realtime_risk(&self) -> &RealtimeRisk {
        &self.risk
    }

    /// Largest simulated timestamp observed so far.
    pub fn sim_time(&self) -> f64 {
        self.now
    }

    fn advance(&mut self, t: f64) {
        self.now = self.now.max(t);
    }

    /// Violation severity of a late completion: the deadline overrun as a
    /// fraction of the job's deadline window, clamped to `[0, 1]`.
    fn late_severity(job: &Job, finish: f64) -> f64 {
        if job.deadline > 0.0 {
            (job.delay_at(finish) / job.deadline).clamp(0.0, 1.0)
        } else {
            1.0
        }
    }
}

impl RunObserver for LiveRunStats {
    fn on_outcome(&mut self, outcome: &Outcome) {
        let completion = self.fold.fold(outcome);
        match *outcome {
            Outcome::Completed { job, finish, .. } => {
                self.advance(finish);
                match completion {
                    Some(c) if c.fulfilled => {
                        self.wait_stats.push(c.wait);
                        self.risk.record_ok();
                    }
                    _ => {
                        let severity = Self::late_severity(&self.fold.jobs[&job], finish);
                        self.risk.record_violation(severity);
                    }
                }
            }
            Outcome::Rejected { at, .. } | Outcome::Aborted { at, .. } => {
                self.advance(at);
                self.risk.record_violation(1.0);
            }
            Outcome::Accepted { at, .. }
            | Outcome::Started { at, .. }
            | Outcome::Interrupted { at, .. }
            | Outcome::Restarted { at, .. }
            | Outcome::NodeFailed { at, .. }
            | Outcome::NodeRepaired { at, .. } => self.advance(at),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use crate::runner::{simulate, Run, RunResult};
    use ccs_economy::EconomicModel;
    use ccs_policies::PolicyKind;
    use ccs_workload::{JobId, Urgency};

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

    fn observed(
        jobs: &[Job],
        kind: PolicyKind,
        cfg: &RunConfig,
        fault: Option<&FaultConfig>,
        live: &mut LiveRunStats,
    ) -> RunResult {
        let out = Run::new(jobs, kind, cfg)
            .fault(fault)
            .observe(live)
            .execute();
        out.unwrap().result
    }

    fn fleet(n: u64) -> Vec<Job> {
        (0..n)
            .map(|i| {
                job(
                    i as JobId,
                    i as f64 * 60.0,
                    400.0,
                    3000.0,
                    1 + (i % 6) as u32,
                    1e5,
                )
            })
            .collect()
    }

    #[test]
    fn streaming_metrics_equal_batch_collect() {
        let jobs = fleet(50);
        for econ in EconomicModel::ALL {
            let kinds = match econ {
                EconomicModel::CommodityMarket => PolicyKind::COMMODITY,
                EconomicModel::BidBased => PolicyKind::BID_BASED,
            };
            for kind in kinds {
                let cfg = RunConfig { nodes: 16, econ };
                let mut live = LiveRunStats::new(&jobs, &cfg);
                let observed = observed(&jobs, kind, &cfg, None, &mut live);
                assert_eq!(
                    live.metrics(),
                    &observed.metrics,
                    "{kind} {econ}: streaming-final != batch"
                );
                assert_eq!(live.objectives(), observed.metrics.objectives());
                assert_eq!(live.wait_stats().count(), observed.metrics.fulfilled as u64);
            }
        }
    }

    #[test]
    fn observer_presence_does_not_change_results() {
        let jobs = fleet(40);
        let cfg = RunConfig {
            nodes: 16,
            econ: EconomicModel::CommodityMarket,
        };
        let plain = simulate(&jobs, PolicyKind::SjfBf, &cfg);
        let mut live = LiveRunStats::new(&jobs, &cfg);
        let observed = observed(&jobs, PolicyKind::SjfBf, &cfg, None, &mut live);
        assert_eq!(plain.records, observed.records);
        assert_eq!(plain.metrics, observed.metrics);
    }

    #[test]
    fn streaming_metrics_equal_batch_under_faults() {
        // The hard case: the live stream shows restarts as re-acceptances;
        // the observer's reconciliation must mirror the batch post-pass.
        let jobs = fleet(60);
        let fault = FaultConfig::exponential(7, 1500.0, 800.0);
        for kind in [PolicyKind::EdfBf, PolicyKind::Libra] {
            let cfg = RunConfig {
                nodes: 8,
                econ: EconomicModel::BidBased,
            };
            let mut live = LiveRunStats::new(&jobs, &cfg);
            let observed = observed(&jobs, kind, &cfg, Some(&fault), &mut live);
            let batch = Run::new(&jobs, kind, &cfg).fault(Some(&fault)).execute();
            let batch = batch.unwrap().result;
            assert_eq!(batch.records, observed.records, "{kind}");
            assert_eq!(live.metrics(), &observed.metrics, "{kind}");
            assert!(
                observed.metrics.interrupted > 0,
                "{kind}: fault rate too low for the test to bite"
            );
        }
    }

    #[test]
    fn risk_score_reacts_to_violations() {
        // One comfortable job, one impossible deadline: the risk score
        // must move off zero as dispositions arrive.
        let jobs = vec![
            job(0, 0.0, 100.0, 1000.0, 4, 1000.0),
            job(1, 1.0, 500.0, 10.0, 4, 1000.0),
        ];
        let cfg = RunConfig {
            nodes: 8,
            econ: EconomicModel::CommodityMarket,
        };
        let mut live = LiveRunStats::new(&jobs, &cfg);
        let res = observed(&jobs, PolicyKind::FcfsBf, &cfg, None, &mut live);
        assert!(res.metrics.fulfilled >= 1);
        assert!(live.realtime_risk().observed() >= 1);
        assert!(
            live.realtime_risk().score() > 0.0,
            "an impossible deadline must register as risk"
        );
        assert!(live.sim_time() > 0.0);
    }
}
