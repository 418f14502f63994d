//! The chaos soak loop: generate → run → check → shrink, round after
//! round.
//!
//! Each round derives a fresh case seed from the soak seed, generates a
//! [`ChaosCase`], replays it under the invariant engine and watchdog, and —
//! when the round fails — immediately shrinks the case to its minimal
//! reproducer. The whole soak is a pure function of `(seed, rounds,
//! budget)`: CI runs it with a pinned seed and fails on any finding.

use crate::case::{CaseOutcome, ChaosCase};
use crate::shrink::{shrink, Shrunk};
use ccs_simsvc::RunBudget;
use serde::{Deserialize, Serialize};

/// Soak parameters.
#[derive(Clone, Copy, Debug)]
pub struct SoakConfig {
    /// Root seed; round `r` uses a seed derived from `seed` and `r`.
    pub seed: u64,
    /// Number of generate→run→check→shrink rounds.
    pub rounds: u32,
    /// Per-replay watchdog budget (also applied to shrink replays).
    pub budget: RunBudget,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            seed: 42,
            rounds: 50,
            budget: RunBudget {
                max_wall_secs: Some(30.0),
                max_events: Some(5_000_000),
            },
        }
    }
}

/// One failing round, minimised.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SoakFinding {
    /// Round index (0-based).
    pub round: u32,
    /// Failure signature shared by the original and minimised case.
    pub signature: String,
    /// Failure detail of the minimised reproducer's replay.
    pub detail: String,
    /// The case as generated.
    pub case: ChaosCase,
    /// The minimal reproducer (replayable via `ChaosCase::from_json`).
    pub minimized: ChaosCase,
}

/// Aggregate result of one soak.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SoakReport {
    /// Rounds executed.
    pub rounds: u32,
    /// Rounds that completed invariant-clean.
    pub clean: u32,
    /// Total outcome events across clean rounds.
    pub events: u64,
    /// Every failing round, minimised.
    pub findings: Vec<SoakFinding>,
}

impl SoakReport {
    /// True when every round was clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Derives round `r`'s case seed from the soak seed (splitmix-style, so
/// neighbouring rounds decorrelate).
pub(crate) fn round_seed(soak_seed: u64, round: u32) -> u64 {
    let mut z = soak_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(round as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the soak. `on_round` observes every round as it finishes (for CLI
/// progress); pass `|_, _, _| {}` to ignore.
pub fn run_soak(
    cfg: &SoakConfig,
    mut on_round: impl FnMut(u32, &ChaosCase, &CaseOutcome),
) -> SoakReport {
    let mut report = SoakReport::default();
    for round in 0..cfg.rounds {
        let case = ChaosCase::generate(round_seed(cfg.seed, round));
        let outcome = case.run(cfg.budget);
        on_round(round, &case, &outcome);
        report.rounds += 1;
        match &outcome {
            CaseOutcome::Clean { events } => {
                report.clean += 1;
                report.events += events;
            }
            _ => {
                let Shrunk {
                    case: minimized,
                    signature,
                    detail,
                    ..
                } = shrink(&case, cfg.budget);
                report.findings.push(SoakFinding {
                    round,
                    signature,
                    detail,
                    case,
                    minimized,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_seeds_decorrelate() {
        let a = round_seed(42, 0);
        let b = round_seed(42, 1);
        let c = round_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(round_seed(42, 0), a);
    }

    #[test]
    fn short_soak_on_current_policies_is_clean() {
        let cfg = SoakConfig {
            seed: 42,
            rounds: 5,
            ..Default::default()
        };
        let mut seen = 0;
        let report = run_soak(&cfg, |_, _, _| seen += 1);
        assert_eq!(seen, 5);
        assert_eq!(report.rounds, 5);
        assert!(
            report.is_clean(),
            "policies violated invariants: {:#?}",
            report.findings
        );
        assert!(report.events > 0);
    }

    #[test]
    fn soak_report_serialises() {
        let report = SoakReport {
            rounds: 1,
            clean: 1,
            events: 10,
            findings: Vec::new(),
        };
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"rounds\""));
    }
}
