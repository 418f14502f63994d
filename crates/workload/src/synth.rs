//! Synthetic SDSC SP2-like workload generator.
//!
//! The paper drives its simulation with the last 5000 jobs of the SDSC SP2
//! trace (Parallel Workloads Archive, v2.2). The trace itself cannot be
//! bundled, so this module generates a *distribution-matched* stand-in with
//! the summary statistics the paper reports for the subset:
//!
//! | statistic                    | paper   | this model (seeded default) |
//! |------------------------------|---------|------------------------------|
//! | jobs                         | 5000    | 5000                         |
//! | nodes                        | 128     | 128                          |
//! | mean inter-arrival           | 1969 s  | ≈ 1969 s (exponential)       |
//! | mean runtime                 | 8671 s  | ≈ 8671 s (log-normal, capped)|
//! | mean processors              | 17      | ≈ 17 (power-of-two weighted) |
//! | runtime estimates under/over | 8 %/92 %| 8 %/92 %                     |
//!
//! All sampling is per-job forked from the model seed, so job `k`'s
//! attributes do not depend on how many jobs precede it.

use crate::job::{BaseJob, JobId};
use ccs_des::dist::{Distribution, Exponential, LogNormal, Uniform};
use ccs_des::SimRng;
use serde::{Deserialize, Serialize};

/// How user runtime estimates are synthesized.
///
/// [`EstimateModel::Multiplicative`] draws a continuous padding factor —
/// simple and smooth. [`EstimateModel::Modal`] reflects the key empirical
/// finding of Tsafrir, Etsion & Feitelson (JSSPP 2005; the paper's
/// reference \[28\]): users overwhelmingly pick *round* wall-clock values
/// (15 min, 1 h, 4 h, the queue limit, …), so the estimate distribution is
/// concentrated on ~20 modal values. Modal estimates are drawn as the
/// smallest canonical value at or above the padded runtime, which keeps the
/// over/under-estimate mix intact while producing the trace-like spiky
/// histogram.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum EstimateModel {
    /// `estimate = runtime × (1 + Exp(surplus))` (continuous).
    Multiplicative,
    /// Padded runtime rounded up to a canonical modal value (Tsafrir-style).
    Modal,
}

/// The canonical estimate values of the modal model, in seconds
/// (5 min … 4 days, roughly the spikes real traces show).
pub(crate) const MODAL_ESTIMATES: [f64; 16] = [
    300.0, 600.0, 900.0, 1800.0, 3600.0, 7200.0, 10800.0, 14400.0, 21600.0, 28800.0, 43200.0,
    64800.0, 86400.0, 129600.0, 172800.0, 345600.0,
];

/// Configuration of the synthetic SDSC SP2 workload model.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SdscSp2Model {
    /// Number of jobs to generate.
    pub jobs: usize,
    /// Cluster size the widths are drawn against.
    pub nodes: u32,
    /// Mean inter-arrival time in seconds.
    pub mean_interarrival: f64,
    /// Target mean runtime in seconds.
    pub mean_runtime: f64,
    /// Coefficient of variation of the runtime log-normal.
    pub runtime_cv: f64,
    /// Maximum runtime in seconds (SDSC SP2 enforced an 18 h limit).
    pub max_runtime: f64,
    /// Minimum runtime in seconds.
    pub min_runtime: f64,
    /// Fraction of jobs whose estimate *under*-estimates the runtime
    /// (the paper measures 8 % for the SDSC SP2 subset).
    pub underestimate_fraction: f64,
    /// Mean of the exponential over-estimation surplus (estimate =
    /// runtime × (1 + Exp(surplus))).
    pub overestimate_surplus_mean: f64,
    /// How estimates are synthesized (continuous vs modal/round values).
    pub estimate_model: EstimateModel,
}

impl Default for SdscSp2Model {
    fn default() -> Self {
        SdscSp2Model {
            jobs: 5000,
            nodes: 128,
            mean_interarrival: 1969.0,
            mean_runtime: 8671.0,
            runtime_cv: 3.0,
            max_runtime: 64_800.0, // 18 hours
            min_runtime: 30.0,
            underestimate_fraction: 0.08,
            overestimate_surplus_mean: 3.0,
            estimate_model: EstimateModel::Multiplicative,
        }
    }
}

/// Weighted power-of-two width distribution with mean ≈ 17 processors,
/// mimicking the SDSC SP2 width histogram.
const WIDTH_WEIGHTS: [(u32, f64); 8] = [
    (1, 0.18),
    (2, 0.12),
    (4, 0.14),
    (8, 0.18),
    (16, 0.16),
    (32, 0.12),
    (64, 0.07),
    (128, 0.03),
];

impl SdscSp2Model {
    /// Smaller model for fast tests: 200 jobs on 128 nodes.
    pub fn small() -> Self {
        SdscSp2Model {
            jobs: 200,
            ..Default::default()
        }
    }

    /// Generates the workload. The same `(model, seed)` pair always produces
    /// the identical job list.
    pub fn generate(&self, seed: u64) -> Vec<BaseJob> {
        let master = SimRng::seed_from(seed);
        let ia_dist = Exponential::new(self.mean_interarrival);
        // Sample runtimes from a log-normal whose raw mean is inflated so the
        // post-cap mean lands near the target.
        let runtime_dist = LogNormal::from_mean_cv(self.mean_runtime * 1.22, self.runtime_cv);
        let under_dist = Uniform::new(0.1, 0.9);
        let surplus_dist = Exponential::new(self.overestimate_surplus_mean);

        let mut submit = 0.0;
        let mut jobs = Vec::with_capacity(self.jobs);
        for k in 0..self.jobs {
            // Independent stream per job: stream label = job index.
            let mut rng = master.fork(k as u64);
            submit += ia_dist.sample(&mut rng);
            let runtime = runtime_dist
                .sample(&mut rng)
                .clamp(self.min_runtime, self.max_runtime);
            let procs = {
                let u = rng.uniform01();
                let mut acc = 0.0;
                let mut chosen = WIDTH_WEIGHTS[WIDTH_WEIGHTS.len() - 1].0;
                for &(w, p) in &WIDTH_WEIGHTS {
                    acc += p;
                    if u < acc {
                        chosen = w;
                        break;
                    }
                }
                chosen.min(self.nodes)
            };
            let trace_estimate = if rng.bernoulli(self.underestimate_fraction) {
                (runtime * under_dist.sample(&mut rng)).max(1.0)
            } else {
                // Over-estimate: users request padded wall-clock limits.
                let padded =
                    (runtime * (1.0 + surplus_dist.sample(&mut rng))).min(self.max_runtime * 4.0);
                match self.estimate_model {
                    EstimateModel::Multiplicative => padded,
                    EstimateModel::Modal => MODAL_ESTIMATES
                        .iter()
                        .copied()
                        .find(|&m| m >= padded)
                        .unwrap_or(MODAL_ESTIMATES[MODAL_ESTIMATES.len() - 1]),
                }
            };
            jobs.push(BaseJob {
                id: k as JobId,
                submit,
                runtime,
                trace_estimate,
                procs,
            });
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> Vec<BaseJob> {
        SdscSp2Model::default().generate(42)
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = SdscSp2Model::default().generate(7);
        let b = SdscSp2Model::default().generate(7);
        assert_eq!(a, b);
        let c = SdscSp2Model::default().generate(8);
        assert_ne!(a, c);
    }

    #[test]
    fn job_count_and_ids() {
        let jobs = workload();
        assert_eq!(jobs.len(), 5000);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id as usize, i);
        }
    }

    #[test]
    fn arrivals_are_monotone() {
        let jobs = workload();
        for w in jobs.windows(2) {
            assert!(w[1].submit >= w[0].submit);
        }
    }

    #[test]
    fn mean_interarrival_near_target() {
        let jobs = workload();
        let span = jobs.last().unwrap().submit - jobs[0].submit;
        let mean_ia = span / (jobs.len() - 1) as f64;
        assert!(
            (mean_ia / 1969.0 - 1.0).abs() < 0.08,
            "mean inter-arrival {mean_ia}"
        );
    }

    #[test]
    fn mean_runtime_near_target() {
        let jobs = workload();
        let mean = jobs.iter().map(|j| j.runtime).sum::<f64>() / jobs.len() as f64;
        assert!(
            (mean / 8671.0 - 1.0).abs() < 0.12,
            "mean runtime {mean} (target 8671)"
        );
    }

    #[test]
    fn mean_width_near_target() {
        let jobs = workload();
        let mean = jobs.iter().map(|j| j.procs as f64).sum::<f64>() / jobs.len() as f64;
        assert!((mean - 17.0).abs() < 2.5, "mean width {mean} (target 17)");
    }

    #[test]
    fn runtime_bounds_respected() {
        let jobs = workload();
        assert!(jobs
            .iter()
            .all(|j| j.runtime >= 30.0 && j.runtime <= 64_800.0));
    }

    #[test]
    fn widths_are_valid() {
        let jobs = workload();
        assert!(jobs.iter().all(|j| j.procs >= 1 && j.procs <= 128));
    }

    #[test]
    fn estimate_accuracy_mix_matches_paper() {
        let jobs = workload();
        let under =
            jobs.iter().filter(|j| j.trace_estimate < j.runtime).count() as f64 / jobs.len() as f64;
        assert!(
            (under - 0.08).abs() < 0.02,
            "under-estimate fraction {under} (target 0.08)"
        );
    }

    #[test]
    fn estimates_positive() {
        let jobs = workload();
        assert!(jobs.iter().all(|j| j.trace_estimate > 0.0));
    }

    #[test]
    fn small_model_for_tests() {
        let jobs = SdscSp2Model::small().generate(1);
        assert_eq!(jobs.len(), 200);
    }

    #[test]
    fn modal_estimates_take_canonical_values() {
        let model = SdscSp2Model {
            estimate_model: EstimateModel::Modal,
            ..Default::default()
        };
        let jobs = model.generate(42);
        let modal = |e: f64| MODAL_ESTIMATES.iter().any(|&m| (m - e).abs() < 1e-9);
        let over: Vec<&BaseJob> = jobs
            .iter()
            .filter(|j| j.trace_estimate >= j.runtime)
            .collect();
        // All over-estimates land on canonical values...
        assert!(over.iter().all(|j| modal(j.trace_estimate)));
        // ...and the distribution is concentrated: few distinct values.
        let mut distinct: Vec<u64> = over.iter().map(|j| j.trace_estimate as u64).collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() <= MODAL_ESTIMATES.len());
        // Under-estimate mix unchanged.
        let under =
            jobs.iter().filter(|j| j.trace_estimate < j.runtime).count() as f64 / jobs.len() as f64;
        assert!((under - 0.08).abs() < 0.02, "under fraction {under}");
    }

    #[test]
    fn modal_estimates_still_cover_runtimes() {
        let model = SdscSp2Model {
            estimate_model: EstimateModel::Modal,
            ..Default::default()
        };
        let jobs = model.generate(7);
        for j in jobs.iter().filter(|j| j.trace_estimate >= j.runtime) {
            assert!(j.trace_estimate >= j.runtime, "over-estimates stay over");
        }
    }
}
