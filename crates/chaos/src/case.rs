//! Chaos cases: seed-reproducible adversarial simulation schedules.
//!
//! A [`ChaosCase`] is one fully specified run of the simulator under
//! stress: a workload shape, a policy/economy pairing, and a composition of
//! [`Stressor`]s (failure storms, arrival bursts, QoS outliers, admission
//! brownouts). Cases are generated from a single seed, serialise to JSON
//! (the replayable reproducer format), and replay deterministically:
//! `ChaosCase::generate(s).run(b)` yields the same [`CaseOutcome`] on every
//! machine, every time.

use crate::fixtures::{BrokenPolicyKind, BrownoutPolicy};
use ccs_des::SimRng;
use ccs_economy::EconomicModel;
use ccs_policies::{build_policy, Policy, PolicyKind};
use ccs_simsvc::{BudgetExceeded, FaultConfig, Run, RunBudget, RunConfig, RunError, Violation};
use ccs_workload::{apply_scenario, Job, ScenarioTransform, SdscSp2Model};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One stressor in a chaos schedule. Stressors compose: a case carries a
/// set of distinct kinds, each perturbing a different axis of the run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Stressor {
    /// Node fail/repair storm driven by the DES renewal failure process.
    FailureStorm {
        /// The full failure configuration (seeded independently of the
        /// workload, so the storm replays identically).
        fault: FaultConfig,
    },
    /// Compresses inter-arrival gaps: factors far below the default 0.25
    /// overload the service.
    ArrivalBurst {
        /// Multiplier on trace inter-arrival times (0.02–0.22 here).
        delay_factor: f64,
    },
    /// Widens the budget spread between urgency classes, creating
    /// deep-pocket outlier jobs next to shoestring ones.
    BudgetOutliers {
        /// Extra multiplier on the budget high:low ratio (≥ 1).
        ratio: f64,
    },
    /// Widens the deadline spread between urgency classes, creating
    /// near-impossible deadlines next to indifferent ones.
    DeadlineOutliers {
        /// Extra multiplier on the deadline high:low ratio (≥ 1).
        ratio: f64,
    },
    /// Degrades runtime estimates toward the trace's own (badly
    /// over-estimated) values.
    EstimateNoise {
        /// Estimate inaccuracy percentage (0–100).
        pct: f64,
    },
    /// Mid-run admission brownout: every submission inside the window is
    /// rejected (see `BrownoutPolicy`). Bounds are fractions of the
    /// workload's submission span, resolved at build time.
    Brownout {
        /// Window start as a fraction of the last submission time.
        from_frac: f64,
        /// Window end as a fraction of the last submission time.
        until_frac: f64,
    },
}

impl Stressor {
    /// Stable short code used in logs and labels.
    pub fn code(&self) -> &'static str {
        match self {
            Stressor::FailureStorm { .. } => "failure_storm",
            Stressor::ArrivalBurst { .. } => "arrival_burst",
            Stressor::BudgetOutliers { .. } => "budget_outliers",
            Stressor::DeadlineOutliers { .. } => "deadline_outliers",
            Stressor::EstimateNoise { .. } => "estimate_noise",
            Stressor::Brownout { .. } => "brownout",
        }
    }
}

/// One adversarial simulation schedule, fully specified and serialisable.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChaosCase {
    /// Seed of the workload generation (and provenance of the whole case).
    pub seed: u64,
    /// Cluster size in processors.
    pub nodes: u32,
    /// Workload length in jobs.
    pub jobs: u32,
    /// Economic model in force.
    pub econ: EconomicModel,
    /// Policy under test.
    pub policy: PolicyKind,
    /// The stressors composed onto this run (distinct kinds).
    pub stressors: Vec<Stressor>,
    /// When set, the real policy is replaced by a deliberately broken
    /// fixture — the self-test mode proving the invariant engine catches
    /// genuine defects.
    pub broken: Option<BrokenPolicyKind>,
}

/// What one chaos run concluded.
#[derive(Clone, Debug)]
pub enum CaseOutcome {
    /// The run completed and every invariant held.
    Clean {
        /// Outcome events the run produced.
        events: u64,
    },
    /// The run completed but violated at least one invariant.
    Violations(Vec<Violation>),
    /// The watchdog cancelled the run.
    Budget(BudgetExceeded),
    /// The simulator panicked (an assert tripped) — also a finding.
    Panic(String),
}

impl CaseOutcome {
    /// A stable signature of *how* the case failed, or `None` for a clean
    /// run. The shrinker uses signature equality as its "still reproduces
    /// the same failure" criterion.
    pub fn signature(&self) -> Option<String> {
        match self {
            CaseOutcome::Clean { .. } => None,
            CaseOutcome::Violations(v) => Some(format!(
                "violation:{}",
                v.first().map(|v| v.invariant.as_str()).unwrap_or("?")
            )),
            CaseOutcome::Budget(b) => Some(format!("budget:{:?}", b.kind)),
            CaseOutcome::Panic(_) => Some("panic".to_string()),
        }
    }

    /// One-line human-readable description of the failure (empty if clean).
    pub fn detail(&self) -> String {
        match self {
            CaseOutcome::Clean { .. } => String::new(),
            CaseOutcome::Violations(v) => v
                .first()
                .map(|v| v.to_string())
                .unwrap_or_else(|| "empty violation list".into()),
            CaseOutcome::Budget(b) => b.to_string(),
            CaseOutcome::Panic(msg) => format!("panic: {msg}"),
        }
    }
}

impl ChaosCase {
    /// Generates one case from a seed. Pure function of the seed: the same
    /// seed yields the same case on every platform.
    pub fn generate(seed: u64) -> ChaosCase {
        let mut rng = SimRng::seed_from(seed ^ 0xC4A0_5EED_0DD5_EED5);
        let nodes = 4 + rng.range_usize(0, 28) as u32; // 4..=32
        let jobs = 30 + rng.range_usize(0, 90) as u32; // 30..=120
        let econ = if rng.bernoulli(0.5) {
            EconomicModel::CommodityMarket
        } else {
            EconomicModel::BidBased
        };
        let policy = match econ {
            EconomicModel::CommodityMarket => *rng.choose(&PolicyKind::COMMODITY),
            EconomicModel::BidBased => *rng.choose(&PolicyKind::BID_BASED),
        };
        // A distinct-kind subset of 1..=4 stressors, order randomised.
        let mut kinds = [0usize, 1, 2, 3, 4, 5];
        rng.shuffle(&mut kinds);
        let count = rng.range_usize(1, 4);
        let stressors = kinds[..count]
            .iter()
            .map(|&k| Self::generate_stressor(k, &mut rng))
            .collect();
        ChaosCase {
            seed,
            nodes,
            jobs,
            econ,
            policy,
            stressors,
            broken: None,
        }
    }

    fn generate_stressor(kind: usize, rng: &mut SimRng) -> Stressor {
        match kind {
            0 => {
                // MTBF 10^3..10^4.5 s; MTTR between MTBF/100 and MTBF/10^0.5,
                // keeping per-node availability ≥ ~76 % so multi-proc jobs
                // can always eventually be placed and drains converge.
                let mtbf = 10f64.powf(rng.uniform(3.0, 4.5));
                let mttr = mtbf * 10f64.powf(rng.uniform(-2.0, -0.5));
                let mut fault = FaultConfig::exponential(rng.next_u64(), mtbf, mttr);
                fault.max_restarts = rng.range_usize(0, 3) as u32;
                Stressor::FailureStorm { fault }
            }
            1 => Stressor::ArrivalBurst {
                delay_factor: rng.uniform(0.02, 0.22),
            },
            2 => Stressor::BudgetOutliers {
                ratio: rng.uniform(1.0, 10.0),
            },
            3 => Stressor::DeadlineOutliers {
                ratio: rng.uniform(1.0, 10.0),
            },
            4 => Stressor::EstimateNoise {
                pct: rng.uniform(0.0, 100.0),
            },
            _ => {
                let from = rng.uniform(0.0, 0.6);
                Stressor::Brownout {
                    from_frac: from,
                    until_frac: (from + rng.uniform(0.05, 0.4)).min(1.0),
                }
            }
        }
    }

    /// Serialises the case as a replayable JSON reproducer.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("chaos cases always serialise")
    }

    /// Parses a reproducer written by [`ChaosCase::to_json`].
    pub fn from_json(text: &str) -> Result<ChaosCase, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// Materialises the workload, run configuration, fault process, and
    /// (possibly wrapped, possibly broken) policy this case describes.
    pub(crate) fn build(&self) -> (Vec<Job>, RunConfig, Option<FaultConfig>, Box<dyn Policy>) {
        let mut transform = ScenarioTransform::default();
        let mut fault = None;
        let mut brownout = None;
        for s in &self.stressors {
            match *s {
                Stressor::FailureStorm { fault: f } => fault = Some(f),
                Stressor::ArrivalBurst { delay_factor } => {
                    transform.arrival_delay_factor = delay_factor;
                }
                Stressor::BudgetOutliers { ratio } => {
                    transform.qos.budget.high_low_ratio *= ratio;
                }
                Stressor::DeadlineOutliers { ratio } => {
                    transform.qos.deadline.high_low_ratio *= ratio;
                }
                Stressor::EstimateNoise { pct } => transform.inaccuracy_pct = pct,
                Stressor::Brownout {
                    from_frac,
                    until_frac,
                } => brownout = Some((from_frac, until_frac)),
            }
        }

        let mut model = SdscSp2Model::small();
        model.jobs = self.jobs as usize;
        model.nodes = self.nodes;
        let base = model.generate(self.seed);
        let jobs = apply_scenario(&base, &transform, self.seed ^ 0x0000_51ED_5A17);

        let cfg = RunConfig {
            nodes: self.nodes,
            econ: self.econ,
        };
        let mut policy: Box<dyn Policy> = match self.broken {
            Some(kind) => kind.build(),
            None => build_policy(self.policy, cfg.econ, cfg.nodes),
        };
        if let Some((from_frac, until_frac)) = brownout {
            let span = jobs.last().map(|j| j.submit).unwrap_or(0.0);
            policy = Box::new(BrownoutPolicy::new(
                policy,
                from_frac * span,
                until_frac * span,
            ));
        }
        (jobs, cfg, fault, policy)
    }

    /// Runs the case under `budget` through the invariant-checked,
    /// watchdog-guarded simulator, converting panics into findings.
    pub fn run(&self, budget: RunBudget) -> CaseOutcome {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (jobs, cfg, fault, policy) = self.build();
            Run::with_policy(&jobs, policy, &cfg)
                .fault(fault.as_ref())
                .budget(budget)
                .check()
                .execute()
        }));
        match outcome {
            Err(payload) => CaseOutcome::Panic(panic_message(payload)),
            Ok(Err(RunError::Budget(budget))) => CaseOutcome::Budget(budget),
            // Bad input files under the panic kind, with the message `simulate` panics with.
            Ok(Err(e)) => CaseOutcome::Panic(e.to_string()),
            Ok(Ok(run)) if run.violations.is_empty() => CaseOutcome::Clean { events: run.events },
            Ok(Ok(run)) => CaseOutcome::Violations(run.violations),
        }
    }
}

/// Extracts the human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = ChaosCase::generate(7);
        let b = ChaosCase::generate(7);
        assert_eq!(a, b);
        assert_ne!(a, ChaosCase::generate(8));
        assert!(!a.stressors.is_empty() && a.stressors.len() <= 4);
        assert!((4..=32).contains(&a.nodes));
        assert!((30..=120).contains(&a.jobs));
    }

    #[test]
    fn stressor_kinds_are_distinct_within_a_case() {
        for seed in 0..50 {
            let case = ChaosCase::generate(seed);
            let mut codes: Vec<&str> = case.stressors.iter().map(|s| s.code()).collect();
            codes.sort_unstable();
            codes.dedup();
            assert_eq!(codes.len(), case.stressors.len(), "seed {seed}: {case:?}");
        }
    }

    #[test]
    fn json_round_trip_preserves_the_case() {
        let case = ChaosCase::generate(42);
        let back = ChaosCase::from_json(&case.to_json()).unwrap();
        assert_eq!(case, back);
    }

    #[test]
    fn replay_is_deterministic() {
        let case = ChaosCase::generate(3);
        let budget = RunBudget::events(5_000_000);
        match (case.run(budget), case.run(budget)) {
            (CaseOutcome::Clean { events: a }, CaseOutcome::Clean { events: b }) => {
                assert_eq!(a, b)
            }
            (a, b) => assert_eq!(a.signature(), b.signature(), "{a:?} vs {b:?}"),
        }
    }

    #[test]
    fn broken_case_fails_and_clean_case_passes() {
        let mut case = ChaosCase::generate(5);
        case.stressors.retain(|s| s.code() != "failure_storm");
        let budget = RunBudget::events(5_000_000);
        assert!(
            case.run(budget).signature().is_none(),
            "clean case must pass: {}",
            case.run(budget).detail()
        );
        case.broken = Some(BrokenPolicyKind::DropEveryThird);
        let sig = case.run(budget).signature();
        assert_eq!(sig.as_deref(), Some("violation:sla_lifecycle"));
    }
}
