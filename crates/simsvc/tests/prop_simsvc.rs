//! Property-based tests of the service simulator across all policies.

use ccs_economy::EconomicModel;
use ccs_policies::PolicyKind;
use ccs_simsvc::{simulate, RunConfig};
use ccs_workload::{Job, Urgency};
use proptest::prelude::*;

fn jobs_strategy() -> impl Strategy<Value = Vec<Job>> {
    prop::collection::vec(
        (
            1.0f64..2000.0,  // inter-arrival gap
            10.0f64..2000.0, // runtime
            0.3f64..4.0,     // estimate factor
            1.2f64..16.0,    // deadline factor
            1u32..=16,       // procs
            1.0f64..8.0,     // budget factor
        ),
        1..40,
    )
    .prop_map(|raw| {
        let mut t = 0.0;
        raw.iter()
            .enumerate()
            .map(|(i, &(gap, rt, ef, df, procs, bf))| {
                t += gap;
                Job {
                    id: i as u32,
                    submit: t,
                    runtime: rt,
                    estimate: (rt * ef).max(1.0),
                    procs,
                    urgency: if i % 3 == 0 {
                        Urgency::High
                    } else {
                        Urgency::Low
                    },
                    deadline: rt * df,
                    budget: bf * rt * procs as f64,
                    penalty_rate: procs as f64,
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Core accounting invariants hold for every policy in its economic
    /// model: each job decided exactly once, fulfilled ⊆ accepted ⊆
    /// submitted, waits non-negative, and in the commodity model no job is
    /// ever charged more than its budget.
    #[test]
    fn accounting_invariants(jobs in jobs_strategy()) {
        for econ in EconomicModel::ALL {
            let kinds = match econ {
                EconomicModel::CommodityMarket => PolicyKind::COMMODITY,
                EconomicModel::BidBased => PolicyKind::BID_BASED,
            };
            for kind in kinds {
                let cfg = RunConfig { nodes: 16, econ };
                let res = simulate(&jobs, kind, &cfg);
                let m = &res.metrics;
                prop_assert_eq!(m.submitted as usize, jobs.len());
                prop_assert!(m.fulfilled <= m.accepted, "{}", kind);
                prop_assert!(m.accepted <= m.submitted, "{}", kind);
                prop_assert!(m.wait_sum_fulfilled >= 0.0);
                prop_assert_eq!(res.records.len(), jobs.len());
                let accepted_records = res.records.iter().filter(|r| r.accepted).count();
                prop_assert_eq!(accepted_records as u32, m.accepted, "{}", kind);
                for (r, j) in res.records.iter().zip(&jobs) {
                    prop_assert_eq!(r.id, j.id);
                    if r.accepted {
                        let start = r.started_at.expect("accepted jobs start");
                        let finish = r.finished_at.expect("accepted jobs finish");
                        prop_assert!(start >= j.submit - 1e-9, "{}: no time travel", kind);
                        prop_assert!(
                            finish >= start + j.runtime - 1e-6,
                            "{}: job {} ran faster than its runtime", kind, j.id
                        );
                        if econ == EconomicModel::CommodityMarket {
                            prop_assert!(
                                r.utility <= j.budget + 1e-6,
                                "{}: charged {} over budget {}", kind, r.utility, j.budget
                            );
                            prop_assert!(r.utility >= 0.0);
                        } else {
                            prop_assert!(r.utility <= j.budget + 1e-6);
                        }
                    } else {
                        prop_assert_eq!(r.utility, 0.0);
                        prop_assert!(r.finished_at.is_none());
                    }
                    if r.fulfilled {
                        prop_assert!(r.accepted);
                        let finish = r.finished_at.unwrap();
                        prop_assert!(finish - j.submit <= j.deadline + 1e-6);
                    }
                }
            }
        }
    }

    /// Objective values are always within their defined ranges.
    #[test]
    fn objectives_in_range(jobs in jobs_strategy()) {
        for econ in EconomicModel::ALL {
            let kinds = match econ {
                EconomicModel::CommodityMarket => PolicyKind::COMMODITY,
                EconomicModel::BidBased => PolicyKind::BID_BASED,
            };
            for kind in kinds {
                let cfg = RunConfig { nodes: 16, econ };
                let [wait, sla, rel, prof] = simulate(&jobs, kind, &cfg).metrics.objectives();
                prop_assert!(wait >= 0.0);
                prop_assert!((0.0..=100.0).contains(&sla));
                prop_assert!((0.0..=100.0).contains(&rel));
                prop_assert!((0.0..=100.0 + 1e-9).contains(&prof));
            }
        }
    }

    /// Simulation is a pure function of its inputs.
    #[test]
    fn determinism(jobs in jobs_strategy(), bid in any::<bool>()) {
        let econ = if bid { EconomicModel::BidBased } else { EconomicModel::CommodityMarket };
        let kind = if bid { PolicyKind::LibraRiskD } else { PolicyKind::SjfBf };
        let cfg = RunConfig { nodes: 16, econ };
        let a = simulate(&jobs, kind, &cfg);
        let b = simulate(&jobs, kind, &cfg);
        prop_assert_eq!(a.records, b.records);
    }

    /// The Libra family never makes a fulfilled job wait: start == submit.
    #[test]
    fn libra_zero_wait(jobs in jobs_strategy()) {
        for kind in [PolicyKind::Libra, PolicyKind::LibraRiskD] {
            let cfg = RunConfig { nodes: 16, econ: EconomicModel::BidBased };
            let res = simulate(&jobs, kind, &cfg);
            prop_assert_eq!(res.metrics.wait(), 0.0, "{}", kind);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With failure injection on, a run is still a pure function of its
    /// inputs: same jobs, same seed, same fault parameters — byte-identical
    /// records and metrics, and the objectives stay finite and in range.
    #[test]
    fn faulty_runs_are_byte_identical_for_same_seed(
        jobs in jobs_strategy(),
        seed in any::<u64>(),
        mtbf in 2000.0f64..200_000.0,
        mttr in 100.0f64..10_000.0,
        resume in any::<bool>(),
    ) {
        use ccs_simsvc::{Degradation, FaultConfig, Run};
        let mut fault = FaultConfig::exponential(seed, mtbf, mttr);
        if resume {
            fault.degradation = Degradation::ResumePenalty { penalty: 0.1 };
        }
        let cfg = RunConfig { nodes: 16, econ: EconomicModel::CommodityMarket };
        let run = || Run::new(&jobs, PolicyKind::SjfBf, &cfg).fault(Some(&fault)).execute().unwrap().result;
        let (a, b) = (run(), run());
        prop_assert_eq!(&a.records, &b.records);
        prop_assert_eq!(a.metrics.objectives(), b.metrics.objectives());
        prop_assert_eq!(a.metrics.node_failures, b.metrics.node_failures);
        prop_assert_eq!(a.metrics.restarts, b.metrics.restarts);
        for v in a.metrics.objectives() {
            prop_assert!(v.is_finite());
        }
    }
}

/// Whenever plain Libra's run certifies that LibraRiskD would make the same
/// run (`RunOutput::riskd_equivalent`), an actual LibraRiskD run on the
/// same inputs is that run: the same records, ledger, objective bits and
/// event count. The workloads overrun their estimates (estimate factor
/// down to 0.3), and each runs in both economic models with and without
/// failures, so certificates are both kept and withdrawn.
#[test]
fn libra_certificate_implies_an_identical_riskd_run() {
    use ccs_simsvc::{FaultConfig, Run};
    let (mut kept, mut withdrawn) = (0, 0);
    for case in 0..64 {
        let mut rng = TestRng::for_case("libra_certificate_implies_an_identical_riskd_run", case);
        let jobs = jobs_strategy().generate(&mut rng);
        let mtbf = (2000.0f64..200_000.0).generate(&mut rng);
        let mttr = (100.0f64..10_000.0).generate(&mut rng);
        let fault = FaultConfig::exponential(rng.next_u64(), mtbf, mttr);
        for econ in EconomicModel::ALL {
            let cfg = RunConfig { nodes: 16, econ };
            for fault in [None, Some(&fault)] {
                let run = |kind| Run::new(&jobs, kind, &cfg).fault(fault).execute().unwrap();
                let libra = run(PolicyKind::Libra);
                let label = format!("case {case}, {econ}, faults {}", fault.is_some());
                match libra.riskd_equivalent {
                    Some(true) => kept += 1,
                    Some(false) => {
                        withdrawn += 1;
                        continue;
                    }
                    None => panic!("{label}: plain Libra always answers"),
                }
                let riskd = run(PolicyKind::LibraRiskD);
                assert_eq!(riskd.result.records, libra.result.records, "{label}");
                assert_eq!(riskd.result.ledger, libra.result.ledger, "{label}");
                assert_eq!(
                    riskd.result.metrics.objectives().map(f64::to_bits),
                    libra.result.metrics.objectives().map(f64::to_bits),
                    "{label}"
                );
                assert_eq!(riskd.events, libra.events, "{label}");
                assert_eq!(riskd.riskd_equivalent, None, "{label}");
            }
        }
    }
    assert!(
        kept > 0 && withdrawn > 0,
        "kept {kept}, withdrawn {withdrawn}"
    );
}
