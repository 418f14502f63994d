//! Chaos-engine integration: the tentpole acceptance tests for ccs-chaos.
//!
//! - Ledger-conservation and SLA-lifecycle invariants fuzzed across four
//!   policies with failure injection on (property tests, seed-determined).
//! - Every deliberately broken policy fixture is *caught* by the invariant
//!   engine, *shrunk* to a minimal schedule, and its JSON reproducer
//!   replays to the same violation.
//! - The degenerate grid cell — every node down at t = 0 and effectively
//!   never repaired — yields defined metrics instead of panicking.
//! - A short soak (the loop behind `utility_risk chaos`) is clean and a
//!   pure function of its seed.

use ccs_chaos::{run_soak, shrink, BrokenPolicyKind, CaseOutcome, ChaosCase, SoakConfig, Stressor};
use ccs_economy::EconomicModel;
use ccs_policies::PolicyKind;
use ccs_simsvc::{FaultConfig, Run, RunBudget, RunConfig};
use ccs_workload::{Job, Urgency};
use proptest::prelude::*;

/// Event-count-only budget: fully deterministic (no wall clock), far above
/// anything a well-behaved case of ≤ 120 jobs can produce.
fn budget() -> RunBudget {
    RunBudget::events(5_000_000)
}

/// The four policies the issue names for invariant fuzzing: three
/// commodity-market schedulers and one bid-based, so both ledgers (charged
/// dollars and derived bid utility) are exercised.
const FUZZ_POLICIES: [(PolicyKind, EconomicModel); 4] = [
    (PolicyKind::FcfsBf, EconomicModel::CommodityMarket),
    (PolicyKind::SjfBf, EconomicModel::CommodityMarket),
    (PolicyKind::Libra, EconomicModel::CommodityMarket),
    (PolicyKind::FirstReward, EconomicModel::BidBased),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fuzzed workloads under fuzzed failure storms stay invariant-clean
    /// on every real policy. The failure process keeps per-node
    /// availability above ~76 % (the generator's own bound), so runs
    /// converge; any ledger, lifecycle, capacity, monotonicity, or
    /// objective-recomputation violation fails the property.
    #[test]
    fn invariants_hold_for_fuzzed_faulty_workloads(
        seed in 0u64..1_000_000,
        jobs in 30u32..90,
        nodes_extra in 0u32..24,
        mtbf_exp in 30u32..45,
        mttr_exp in 5u32..20,
        pol in 0usize..4,
    ) {
        let (policy, econ) = FUZZ_POLICIES[pol];
        let mtbf = 10f64.powf(mtbf_exp as f64 / 10.0); // 1e3 .. ~1e4.5 s
        let mttr = mtbf * 10f64.powf(-(mttr_exp as f64) / 10.0); // avail ≥ ~76 %
        let case = ChaosCase {
            seed,
            nodes: 4 + nodes_extra,
            jobs,
            econ,
            policy,
            stressors: vec![Stressor::FailureStorm {
                fault: FaultConfig::exponential(seed ^ 0x00FA_7A15, mtbf, mttr),
            }],
            broken: None,
        };
        match case.run(budget()) {
            CaseOutcome::Clean { .. } => {}
            other => prop_assert!(
                false,
                "policy {policy:?} violated an invariant: {}",
                other.detail()
            ),
        }
    }

    /// Shrinker property: whatever seed a broken-fixture case starts from,
    /// the minimised schedule still reproduces the *same* failure
    /// signature, and so does its JSON reproducer after a round-trip.
    #[test]
    fn shrunk_schedules_still_reproduce_their_violation(
        seed in 0u64..100_000,
        k in 0usize..3,
    ) {
        let kind = [
            BrokenPolicyKind::DropEveryThird,
            BrokenPolicyKind::TimeWarp,
            BrokenPolicyKind::DoubleAccept,
        ][k];
        let mut case = ChaosCase::generate(seed);
        case.broken = Some(kind);
        let sig = case
            .run(budget())
            .signature()
            .expect("a broken policy must produce a finding");
        let shrunk = shrink(&case, budget());
        prop_assert_eq!(&shrunk.signature, &sig);
        prop_assert!(shrunk.case.jobs <= case.jobs);
        prop_assert!(shrunk.case.nodes <= case.nodes);
        prop_assert!(shrunk.case.stressors.len() <= case.stressors.len());
        let replayed = ChaosCase::from_json(&shrunk.case.to_json())
            .expect("reproducer JSON parses");
        prop_assert_eq!(
            replayed.run(budget()).signature().as_deref(),
            Some(sig.as_str()),
            "minimised reproducer must replay to the same violation"
        );
    }
}

/// Acceptance: each deliberately broken policy is caught and attributed to
/// the right invariant family, then minimised without losing the bug.
#[test]
fn broken_policy_fixtures_are_caught_and_minimised() {
    let expected = [
        (BrokenPolicyKind::DropEveryThird, "violation:"),
        (BrokenPolicyKind::TimeWarp, "violation:"),
        (BrokenPolicyKind::DoubleAccept, "violation:sla_lifecycle"),
    ];
    for (kind, sig_prefix) in expected {
        let mut case = ChaosCase::generate(33);
        case.broken = Some(kind);
        let outcome = case.run(budget());
        let sig = outcome
            .signature()
            .unwrap_or_else(|| panic!("{kind:?} must be caught by the invariant engine"));
        assert!(
            sig.starts_with(sig_prefix),
            "{kind:?}: expected an invariant violation, got {sig} ({})",
            outcome.detail()
        );
        let shrunk = shrink(&case, budget());
        assert_eq!(
            shrunk.signature, sig,
            "{kind:?}: shrinking changed the failure"
        );
        assert!(
            shrunk.case.jobs < case.jobs || shrunk.case.stressors.len() < case.stressors.len(),
            "{kind:?}: shrinker removed nothing from {case:?}"
        );
    }
}

/// Satellite regression: a cell whose cluster is entirely down at t = 0
/// (tiny MTBF, astronomical MTTR — the nodes never again overlap in an up
/// state long enough to host a multi-processor job) must terminate with
/// defined metrics on every policy/economy pairing, not panic in the fault
/// drain. Before the drain-stagnation cap this spun to a 10-million-event
/// convergence assert.
#[test]
fn all_nodes_down_at_t0_yields_defined_metrics() {
    let combos: Vec<(PolicyKind, EconomicModel)> = PolicyKind::COMMODITY
        .iter()
        .map(|&p| (p, EconomicModel::CommodityMarket))
        .chain(
            PolicyKind::BID_BASED
                .iter()
                .map(|&p| (p, EconomicModel::BidBased)),
        )
        .collect();
    for (kind, econ) in combos {
        let jobs: Vec<Job> = (0..12)
            .map(|i| Job {
                id: i,
                submit: i as f64 * 100.0,
                runtime: 50.0,
                estimate: 50.0,
                procs: 1 + (i % 4), // multi-proc jobs are what used to wedge
                urgency: Urgency::Low,
                deadline: 10_000.0,
                budget: 100.0,
                penalty_rate: 1.0,
            })
            .collect();
        let cfg = RunConfig { nodes: 4, econ };
        let fault = FaultConfig::exponential(1, 1e-6, 1e15);
        let result = Run::new(&jobs, kind, &cfg)
            .fault(Some(&fault))
            .execute()
            .unwrap()
            .result;
        assert_eq!(result.metrics.submitted, 12, "{kind:?}/{econ:?}");
        assert_eq!(
            result.metrics.fulfilled, 0,
            "{kind:?}/{econ:?}: nothing can be fulfilled on a dead cluster"
        );
        for v in result.metrics.objectives() {
            assert!(
                v.is_finite(),
                "{kind:?}/{econ:?}: objectives must stay defined, got {v}"
            );
        }
    }
}

/// A bounded soak over the real policies is clean, and rerunning it with
/// the same seed reproduces the identical report — the determinism the
/// `utility_risk chaos` CLI and the CI chaos leg rely on.
#[test]
fn short_soak_is_clean_and_seed_deterministic() {
    let cfg = SoakConfig {
        seed: 42,
        rounds: 6,
        budget: budget(),
    };
    let mut seen = 0u32;
    let a = run_soak(&cfg, |_, _, _| seen += 1);
    assert_eq!(seen, 6);
    assert_eq!(a.rounds, 6);
    assert!(
        a.is_clean(),
        "soak found violations on real policies: {:?}",
        a.findings
            .iter()
            .map(|f| (&f.signature, &f.detail))
            .collect::<Vec<_>>()
    );
    let b = run_soak(&cfg, |_, _, _| {});
    assert_eq!(a.clean, b.clean);
    assert_eq!(
        a.events, b.events,
        "soak must be a pure function of its seed"
    );
}
