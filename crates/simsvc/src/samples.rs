//! Per-job metric samples for distribution-level analyses (e.g. the
//! Computation-at-Risk comparison in `ccs_risk::car`).

use crate::record::JobRecord;
use ccs_workload::Job;

/// Response times (`finish − submit`, the CaR papers' "makespan") of the
/// completed jobs of a run, in job order.
pub fn response_times(jobs: &[Job], records: &[JobRecord]) -> Vec<f64> {
    assert_eq!(jobs.len(), records.len());
    jobs.iter()
        .zip(records)
        .filter_map(|(j, r)| r.finished_at.map(|f| f - j.submit))
        .collect()
}

/// Bounded slowdowns (expansion factors) of the completed jobs:
/// `max(finish − submit, τ) / max(runtime, τ)` with the customary
/// τ = 10 s floor that stops very short jobs from dominating.
pub fn slowdowns(jobs: &[Job], records: &[JobRecord]) -> Vec<f64> {
    const TAU: f64 = 10.0;
    assert_eq!(jobs.len(), records.len());
    jobs.iter()
        .zip(records)
        .filter_map(|(j, r)| {
            r.finished_at
                .map(|f| (f - j.submit).max(TAU) / j.runtime.max(TAU))
        })
        .collect()
}

/// Waits (`start − submit`) of the completed jobs.
pub fn waits(jobs: &[Job], records: &[JobRecord]) -> Vec<f64> {
    assert_eq!(jobs.len(), records.len());
    jobs.iter()
        .zip(records)
        .filter_map(|(j, r)| r.started_at.map(|s| (s - j.submit).max(0.0)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{simulate, RunConfig};
    use ccs_economy::EconomicModel;
    use ccs_policies::PolicyKind;
    use ccs_workload::Urgency;

    fn jobs() -> Vec<Job> {
        (0..10)
            .map(|i| Job {
                id: i,
                submit: i as f64 * 50.0,
                runtime: 100.0,
                estimate: 100.0,
                procs: 4,
                urgency: Urgency::Low,
                deadline: 1e6,
                budget: 1e5,
                penalty_rate: 1.0,
            })
            .collect()
    }

    #[test]
    fn samples_cover_completed_jobs() {
        let jobs = jobs();
        let cfg = RunConfig {
            nodes: 8,
            econ: EconomicModel::BidBased,
        };
        let res = simulate(&jobs, PolicyKind::FcfsBf, &cfg);
        let rt = response_times(&jobs, &res.records);
        let sd = slowdowns(&jobs, &res.records);
        let w = waits(&jobs, &res.records);
        assert_eq!(rt.len(), res.metrics.accepted as usize);
        assert_eq!(sd.len(), rt.len());
        assert_eq!(w.len(), rt.len());
        for (&r, (&s, &wt)) in rt.iter().zip(sd.iter().zip(&w)) {
            assert!(r >= 100.0 - 1e-9, "response >= runtime");
            assert!(s >= 1.0 - 1e-9, "slowdown >= 1");
            assert!(wt >= 0.0);
            assert!((r - (wt + 100.0)).abs() < 1e-6, "response = wait + runtime");
        }
    }

    #[test]
    fn slowdown_floor_caps_short_jobs() {
        // A 1-second job waiting 10 s would naively have slowdown 11; the
        // τ = 10 floor bounds it.
        let mut js = jobs();
        js[0].runtime = 1.0;
        js[0].estimate = 1.0;
        let cfg = RunConfig {
            nodes: 8,
            econ: EconomicModel::BidBased,
        };
        let res = simulate(&js, PolicyKind::FcfsBf, &cfg);
        let sd = slowdowns(&js, &res.records);
        assert!(sd[0] < 10.0, "bounded slowdown: {}", sd[0]);
    }
}
