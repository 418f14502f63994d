//! Post-run monitoring: utilization and backlog time series.
//!
//! The paper assumes the computing service "has monitoring mechanisms to
//! check the progress of existing job executions" (Section 3.3). This
//! module reconstructs that view from a finished run: processor
//! utilization, running-job count, and accepted-but-waiting backlog over
//! time, bucketed for plotting or alerting.

use crate::record::JobRecord;
use ccs_workload::Job;
use serde::{Deserialize, Serialize};

/// One sample of the service's state.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimePoint {
    /// Bucket start time (seconds).
    pub t: f64,
    /// Mean fraction of processors busy during the bucket (0–1). For
    /// time-shared policies this is the *allocated* fraction (a running
    /// job's processors count as busy for its whole residence).
    pub utilization: f64,
    /// Jobs executing at the bucket start.
    pub running: u32,
    /// Jobs accepted but not yet started at the bucket start (queue depth
    /// of the backfilling policies and FirstReward; always 0 for the Libra
    /// family, which starts jobs at acceptance).
    pub waiting: u32,
}

/// A bucketed service timeline.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Timeline {
    /// Bucket width in seconds.
    pub bucket: f64,
    /// Samples in time order.
    pub points: Vec<TimePoint>,
}

impl Timeline {
    /// Reconstructs the timeline of a run from its per-job records.
    ///
    /// `jobs` and `records` must be the inputs/outputs of the same
    /// `ccs_simsvc::simulate` call. Panics if `bucket <= 0`.
    pub fn from_run(jobs: &[Job], records: &[JobRecord], nodes: u32, bucket: f64) -> Timeline {
        assert!(bucket > 0.0, "bucket width must be positive");
        assert_eq!(jobs.len(), records.len());
        let horizon = records
            .iter()
            .filter_map(|r| r.finished_at)
            .fold(0.0_f64, f64::max);
        if ccs_telemetry::enabled() {
            let t = ccs_telemetry::global();
            t.counter("timeline.reconstructions.completed").inc();
            t.histogram("timeline.horizon_secs").record_f64(horizon);
        }
        if horizon <= 0.0 {
            return Timeline {
                bucket,
                points: Vec::new(),
            };
        }
        let n_buckets = (horizon / bucket).ceil() as usize;
        // busy[b] accumulates processor-seconds in bucket b.
        let mut busy = vec![0.0f64; n_buckets];
        let mut running = vec![0u32; n_buckets];
        let mut waiting = vec![0u32; n_buckets];

        for (j, r) in jobs.iter().zip(records) {
            let (Some(start), Some(finish)) = (r.started_at, r.finished_at) else {
                continue;
            };
            // Processor-seconds spread over the buckets of [start, finish).
            let procs = j.procs as f64;
            let first = (start / bucket) as usize;
            let last = ((finish / bucket) as usize).min(n_buckets - 1);
            for (b, slot) in busy.iter_mut().enumerate().take(last + 1).skip(first) {
                let lo = (b as f64) * bucket;
                let hi = lo + bucket;
                let overlap = (finish.min(hi) - start.max(lo)).max(0.0);
                *slot += overlap * procs;
            }
            // Counts sampled at bucket starts.
            for (b, slot) in running.iter_mut().enumerate().take(last + 1).skip(first) {
                let t = (b as f64) * bucket;
                if t >= start && t < finish {
                    *slot += 1;
                }
            }
            if r.accepted && start > j.submit {
                let qfirst = (j.submit / bucket) as usize;
                let qlast = ((start / bucket) as usize).min(n_buckets - 1);
                for (b, slot) in waiting.iter_mut().enumerate().take(qlast + 1).skip(qfirst) {
                    let t = (b as f64) * bucket;
                    if t >= j.submit && t < start {
                        *slot += 1;
                    }
                }
            }
        }

        let capacity = nodes as f64 * bucket;
        let points = (0..n_buckets)
            .map(|b| TimePoint {
                t: b as f64 * bucket,
                utilization: (busy[b] / capacity).min(1.0),
                running: running[b],
                waiting: waiting[b],
            })
            .collect();
        Timeline { bucket, points }
    }

    /// Mean utilization over the whole timeline.
    pub fn mean_utilization(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.utilization).sum::<f64>() / self.points.len() as f64
    }

    /// Peak waiting-queue depth.
    pub fn peak_waiting(&self) -> u32 {
        self.points.iter().map(|p| p.waiting).max().unwrap_or(0)
    }

    /// Renders a one-line-per-bucket text sparkline (`#` = utilization).
    pub fn render(&self, width: usize) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for p in &self.points {
            let bars = ((p.utilization * width as f64).round() as usize).min(width);
            let _ = writeln!(
                s,
                "{:>10.0}s |{:<width$}| run {:>4} wait {:>4}",
                p.t,
                "#".repeat(bars),
                p.running,
                p.waiting,
                width = width
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{simulate, RunConfig};
    use ccs_economy::EconomicModel;
    use ccs_policies::PolicyKind;
    use ccs_workload::Urgency;

    fn job(id: u32, submit: f64, runtime: f64, procs: u32) -> Job {
        Job {
            id,
            submit,
            runtime,
            estimate: runtime,
            procs,
            urgency: Urgency::Low,
            deadline: runtime * 100.0,
            budget: 1e9,
            penalty_rate: 1.0,
        }
    }

    #[test]
    fn single_job_full_utilization() {
        let jobs = vec![job(0, 0.0, 100.0, 4)];
        let cfg = RunConfig {
            nodes: 4,
            econ: EconomicModel::BidBased,
        };
        let res = simulate(&jobs, PolicyKind::FcfsBf, &cfg);
        let tl = Timeline::from_run(&jobs, &res.records, 4, 10.0);
        assert_eq!(tl.points.len(), 10);
        for p in &tl.points {
            assert!(
                (p.utilization - 1.0).abs() < 1e-9,
                "bucket {}: {}",
                p.t,
                p.utilization
            );
            assert_eq!(p.running, 1);
            assert_eq!(p.waiting, 0);
        }
        assert!((tl.mean_utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn queueing_shows_in_waiting_series() {
        // Two whole-machine jobs: the second waits 100 s.
        let jobs = vec![job(0, 0.0, 100.0, 4), job(1, 0.0, 100.0, 4)];
        let cfg = RunConfig {
            nodes: 4,
            econ: EconomicModel::BidBased,
        };
        let res = simulate(&jobs, PolicyKind::FcfsBf, &cfg);
        let tl = Timeline::from_run(&jobs, &res.records, 4, 20.0);
        assert_eq!(tl.peak_waiting(), 1);
        // First half has a waiter; second half does not.
        assert!(tl.points[0].waiting == 1);
        assert!(tl.points.last().unwrap().waiting == 0);
        assert!(
            (tl.mean_utilization() - 1.0).abs() < 1e-9,
            "back-to-back runs"
        );
    }

    #[test]
    fn idle_cluster_reads_zero() {
        let jobs = vec![job(0, 1000.0, 10.0, 1)];
        let cfg = RunConfig {
            nodes: 8,
            econ: EconomicModel::BidBased,
        };
        let res = simulate(&jobs, PolicyKind::FcfsBf, &cfg);
        let tl = Timeline::from_run(&jobs, &res.records, 8, 100.0);
        assert!(tl.points[0].utilization < 1e-9, "idle before the arrival");
        assert!(tl.mean_utilization() < 0.05);
    }

    #[test]
    fn empty_run_is_empty_timeline() {
        let tl = Timeline::from_run(&[], &[], 8, 10.0);
        assert!(tl.points.is_empty());
        assert_eq!(tl.mean_utilization(), 0.0);
        assert_eq!(tl.peak_waiting(), 0);
    }

    #[test]
    fn render_has_one_line_per_bucket() {
        let jobs = vec![job(0, 0.0, 50.0, 2)];
        let cfg = RunConfig {
            nodes: 4,
            econ: EconomicModel::BidBased,
        };
        let res = simulate(&jobs, PolicyKind::FcfsBf, &cfg);
        let tl = Timeline::from_run(&jobs, &res.records, 4, 10.0);
        assert_eq!(tl.render(20).lines().count(), tl.points.len());
    }
}
