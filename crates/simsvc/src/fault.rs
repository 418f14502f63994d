//! Failure-injection configuration for the simulated service.
//!
//! A [`FaultConfig`] turns the plain simulator into one whose cluster nodes
//! fail and repair according to an alternating renewal process
//! ([`ccs_des::FailureProcess`]). The runner hands each equal-time run of
//! failures to the policy's
//! [`on_nodes_fail`](ccs_policies::Policy::on_nodes_fail) hook and decides — per the configured [`Degradation`] — whether an
//! interrupted job is resubmitted (restart from scratch or resume with a
//! penalty) or aborted once its restart budget is spent.
//!
//! Fault injection is opt-in and fully separate from
//! [`RunConfig`](crate::RunConfig): a [`Run`](crate::Run) injects failures
//! only when given one with [`Run::fault`](crate::Run::fault), and without
//! it is byte-identical to earlier releases. An invalid config is reported
//! as [`RunError::InvalidFault`](crate::RunError::InvalidFault), naming the
//! offending field.

use ccs_des::FailureDist;
use serde::{Deserialize, Serialize};

/// What a job interrupted by a node failure costs on its next attempt.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Degradation {
    /// The job lost all progress and must rerun its full runtime
    /// (stateless restart — no checkpointing).
    Restart,
    /// The job resumes from where it stopped, paying `penalty` (a
    /// fraction, e.g. `0.1` = 10 %) of the *remaining* work as recovery
    /// overhead. Models checkpoint restore + warm-up cost.
    ResumePenalty {
        /// Recovery overhead as a fraction of the remaining work (≥ 0).
        penalty: f64,
    },
}

/// Configuration of the failure/repair process for one run.
///
/// Deterministic: the per-node renewal processes are seeded from `seed`
/// alone, so the same `FaultConfig` yields the same failure timeline
/// regardless of the workload or policy under test — policies within one
/// experiment cell face identical weather.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed of the failure/repair renewal processes (independent of the
    /// workload seed).
    pub seed: u64,
    /// Time-between-failures distribution, per node (seconds).
    pub mtbf: FailureDist,
    /// Time-to-repair distribution, per node (seconds).
    pub mttr: FailureDist,
    /// What an interruption costs the affected job on resubmission.
    pub degradation: Degradation,
    /// How many times one job may be resubmitted after interruptions
    /// before the service gives up and aborts it.
    pub max_restarts: u32,
}

impl FaultConfig {
    /// Memoryless failure model: exponential MTBF/MTTR with the given
    /// means (seconds), restart-from-scratch degradation, and a restart
    /// budget of 3 — the defaults used by the failure-rate scenario sweep.
    pub fn exponential(seed: u64, mtbf_mean: f64, mttr_mean: f64) -> Self {
        FaultConfig {
            seed,
            mtbf: FailureDist::Exponential { mean: mtbf_mean },
            mttr: FailureDist::Exponential { mean: mttr_mean },
            degradation: Degradation::Restart,
            max_restarts: 3,
        }
    }

    /// Checks every numeric parameter, naming the offending field on
    /// failure. [`Run::execute`](crate::Run::execute) reports it as a
    /// [`RunError::InvalidFault`](crate::RunError::InvalidFault); CLIs
    /// surface it as a configuration error.
    pub fn validate(&self) -> Result<(), String> {
        self.mtbf.validate().map_err(|e| format!("mtbf: {e}"))?;
        self.mttr.validate().map_err(|e| format!("mttr: {e}"))?;
        if let Degradation::ResumePenalty { penalty } = self.degradation {
            if !penalty.is_finite() || penalty < 0.0 {
                return Err(format!(
                    "degradation.penalty: must be a finite fraction >= 0, got {penalty}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_shorthand_validates() {
        let f = FaultConfig::exponential(7, 604_800.0, 7_200.0);
        assert!(f.validate().is_ok());
        assert_eq!(f.max_restarts, 3);
        assert_eq!(f.degradation, Degradation::Restart);
    }

    #[test]
    fn validate_names_the_offending_field() {
        let mut f = FaultConfig::exponential(7, 604_800.0, 7_200.0);
        f.mtbf = FailureDist::Exponential { mean: -1.0 };
        let err = f.validate().unwrap_err();
        assert!(err.starts_with("mtbf:"), "{err}");

        let mut f = FaultConfig::exponential(7, 604_800.0, 7_200.0);
        f.mttr = FailureDist::Weibull {
            shape: f64::NAN,
            scale: 1.0,
        };
        let err = f.validate().unwrap_err();
        assert!(err.starts_with("mttr:"), "{err}");

        let mut f = FaultConfig::exponential(7, 604_800.0, 7_200.0);
        f.degradation = Degradation::ResumePenalty { penalty: -0.5 };
        let err = f.validate().unwrap_err();
        assert!(err.contains("degradation.penalty"), "{err}");
    }
}
