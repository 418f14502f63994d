//! The `Run` settings are orthogonal: whichever subset of trace, check and
//! budget a run carries, with or without fault injection, its
//! result is the plain run's, bit for bit, and each setting delivers
//! exactly its own output.

use ccs_economy::EconomicModel;
use ccs_policies::PolicyKind;
use ccs_simsvc::{FaultConfig, Run, RunBudget, RunConfig};
use ccs_workload::{Job, Urgency};

fn workload(n: u32) -> Vec<Job> {
    (0..n)
        .map(|i| Job {
            id: i,
            submit: i as f64 * 70.0,
            runtime: 500.0,
            estimate: 500.0,
            procs: 1 + (i % 6),
            urgency: Urgency::Low,
            deadline: 5000.0,
            budget: 1e5,
            penalty_rate: 1.0,
        })
        .collect()
}

#[test]
fn every_setting_subset_matches_the_plain_run() {
    let jobs = workload(50);
    let fault = FaultConfig::exponential(11, 2500.0, 600.0);
    let generous = RunBudget {
        max_wall_secs: Some(600.0),
        max_events: Some(100_000_000),
    };
    for econ in EconomicModel::ALL {
        let kinds = match econ {
            EconomicModel::CommodityMarket => PolicyKind::COMMODITY,
            EconomicModel::BidBased => PolicyKind::BID_BASED,
        };
        let cfg = RunConfig { nodes: 16, econ };
        for kind in kinds {
            for fault in [None, Some(&fault)] {
                let plain = Run::new(&jobs, kind, &cfg).fault(fault).execute().unwrap();
                if fault.is_some() {
                    assert!(plain.result.metrics.node_failures > 0, "{kind}: no weather");
                }
                for mask in 0u8..8 {
                    let (traced, checked, budgeted) = (mask & 1 != 0, mask & 2 != 0, mask & 4 != 0);
                    let case = format!(
                        "{kind} {econ} fault={} trace={traced} check={checked} budget={budgeted}",
                        fault.is_some()
                    );
                    let mut run = Run::new(&jobs, kind, &cfg).fault(fault);
                    if traced {
                        run = run.trace();
                    }
                    if checked {
                        run = run.check();
                    }
                    if budgeted {
                        run = run.budget(generous);
                    }
                    let out = run.execute().unwrap();

                    assert_eq!(out.result.records, plain.result.records, "{case}");
                    assert_eq!(out.result.ledger, plain.result.ledger, "{case}");
                    assert_eq!(
                        out.result.metrics.objectives().map(f64::to_bits),
                        plain.result.metrics.objectives().map(f64::to_bits),
                        "{case}"
                    );
                    assert_eq!(out.events, plain.events, "{case}");
                    assert_eq!(out.trace.is_some(), traced, "{case}");
                    if let Some(trace) = &out.trace {
                        assert_eq!(trace.policy, kind.name(), "{case}");
                        assert_eq!(trace.submitted as usize, jobs.len(), "{case}");
                    }
                    assert!(out.violations.is_empty(), "{case}: {:?}", out.violations);
                }
            }
        }
    }
}
