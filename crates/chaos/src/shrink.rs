//! Greedy shrinker: minimises a failing [`ChaosCase`] to a smaller
//! reproducer of the *same* failure.
//!
//! The reduction loop tries, in order of how much each move simplifies the
//! case: dropping whole stressors, shortening the workload, and shrinking
//! the cluster. A move is kept only when the reduced case still fails with
//! the same [`CaseOutcome::signature`](crate::case::CaseOutcome::signature) — the failure must be *the same*
//! failure, not merely *a* failure. The loop restarts after every accepted
//! move and stops at a fixed point, so the result is 1-minimal under these
//! moves: no single remaining stressor can be dropped, and neither
//! dimension can be halved, without losing the reproduction.
//!
//! Every candidate is evaluated by a full deterministic replay, so the
//! shrinker costs (moves × replay) time — bounded by the case's own run
//! budget per replay.

use crate::case::ChaosCase;
use ccs_simsvc::RunBudget;

/// Fewest jobs a shrunken workload may have: enough for every broken
/// fixture to still misbehave at least once.
const MIN_JOBS: u32 = 5;
/// Smallest cluster the shrinker will propose.
const MIN_NODES: u32 = 1;

/// Result of shrinking one failing case.
#[derive(Clone, Debug)]
pub struct Shrunk {
    /// The minimised case (possibly identical to the input if nothing
    /// could be removed).
    pub case: ChaosCase,
    /// The failure signature both the original and the minimised case
    /// reproduce.
    pub signature: String,
    /// Failure detail of the minimised case's replay.
    pub detail: String,
    /// Candidate replays the shrinker spent.
    pub replays: u32,
}

/// Minimises `case` while preserving its failure signature. Panics if the
/// case does not fail under `budget` — shrink only failing cases.
pub fn shrink(case: &ChaosCase, budget: RunBudget) -> Shrunk {
    let outcome = case.run(budget);
    let signature = outcome.signature().expect("shrink requires a failing case");
    let mut cur = case.clone();
    let mut detail = outcome.detail();
    let mut replays = 0u32;

    let reproduces = |cand: &ChaosCase, replays: &mut u32| -> Option<String> {
        *replays += 1;
        let o = cand.run(budget);
        (o.signature().as_deref() == Some(signature.as_str())).then(|| o.detail())
    };

    'reduce: loop {
        // 1. Drop one stressor (biggest structural simplification first).
        for i in 0..cur.stressors.len() {
            let mut cand = cur.clone();
            cand.stressors.remove(i);
            if let Some(d) = reproduces(&cand, &mut replays) {
                cur = cand;
                detail = d;
                continue 'reduce;
            }
        }
        // 2. Halve the workload horizon.
        if cur.jobs > MIN_JOBS {
            let mut cand = cur.clone();
            cand.jobs = (cur.jobs / 2).max(MIN_JOBS);
            if let Some(d) = reproduces(&cand, &mut replays) {
                cur = cand;
                detail = d;
                continue 'reduce;
            }
        }
        // 3. Halve the cluster.
        if cur.nodes > MIN_NODES {
            let mut cand = cur.clone();
            cand.nodes = (cur.nodes / 2).max(MIN_NODES);
            if let Some(d) = reproduces(&cand, &mut replays) {
                cur = cand;
                detail = d;
                continue 'reduce;
            }
        }
        break;
    }

    Shrunk {
        case: cur,
        signature,
        detail,
        replays,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::BrokenPolicyKind;

    fn budget() -> RunBudget {
        RunBudget::events(5_000_000)
    }

    #[test]
    fn shrinks_a_broken_case_and_preserves_the_failure() {
        let mut case = ChaosCase::generate(11);
        case.broken = Some(BrokenPolicyKind::TimeWarp);
        let original = case.run(budget()).signature().expect("must fail");
        let shrunk = shrink(&case, budget());
        assert_eq!(shrunk.signature, original);
        // The minimised case still reproduces on replay (the reproducer
        // JSON round-trips through the same check).
        let replayed = ChaosCase::from_json(&shrunk.case.to_json()).unwrap();
        assert_eq!(
            replayed.run(budget()).signature().as_deref(),
            Some(original.as_str())
        );
        // The fixture fails regardless of stressors, so every stressor
        // must have been shrunk away and both dimensions forced down.
        assert!(shrunk.case.stressors.is_empty(), "{:?}", shrunk.case);
        assert_eq!(shrunk.case.jobs, MIN_JOBS);
        assert_eq!(shrunk.case.nodes, MIN_NODES);
        assert!(shrunk.replays > 0);
    }

    #[test]
    #[should_panic(expected = "failing case")]
    fn refuses_to_shrink_a_clean_case() {
        let mut case = ChaosCase::generate(5);
        case.stressors.retain(|s| s.code() != "failure_storm");
        shrink(&case, budget());
    }
}
