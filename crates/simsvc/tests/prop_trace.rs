//! Property tests for trace synthesis: whatever workload a policy is fed,
//! the emitted trace is causally ordered per job and consistent with the
//! run's aggregate metrics.

use ccs_economy::EconomicModel;
use ccs_policies::PolicyKind;
use ccs_simsvc::{Run, RunConfig};
use ccs_telemetry::trace::check_causal_order;
use ccs_workload::{Job, Urgency};
use proptest::prelude::*;

/// Builds a sorted, deterministic workload from generated raw tuples:
/// (gap, runtime, estimate skew, deadline factor, procs, budget).
fn workload(raw: &[(u16, u16, u8, u8, u8, u32)]) -> Vec<Job> {
    let mut t = 0.0;
    raw.iter()
        .enumerate()
        .map(|(i, &(gap, runtime, skew, dl, procs, budget))| {
            t += gap as f64;
            let runtime = 1.0 + runtime as f64;
            // Estimates range from half the runtime (optimistic) to ~2.5×.
            let estimate = (runtime * (0.5 + skew as f64 / 128.0)).max(1.0);
            Job {
                id: i as u32,
                submit: t,
                runtime,
                estimate,
                procs: 1 + (procs % 8) as u32,
                urgency: Urgency::Low,
                deadline: runtime * (0.5 + dl as f64 / 16.0),
                budget: 1.0 + budget as f64,
                penalty_rate: 0.01 * (1 + budget % 7) as f64,
            }
        })
        .collect()
}

fn jobs_strategy() -> impl Strategy<Value = Vec<(u16, u16, u8, u8, u8, u32)>> {
    prop::collection::vec(
        (
            0u16..500,
            0u16..2000,
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
            0u32..100_000,
        ),
        0..40,
    )
}

fn check_run(jobs: &[Job], kind: PolicyKind, econ: EconomicModel) {
    let cfg = RunConfig { nodes: 16, econ };
    let out = Run::new(jobs, kind, &cfg).trace().execute().unwrap();
    let (result, trace) = (out.result, out.trace.unwrap());

    prop_assert_eq!(check_causal_order(&trace.records), Ok(()));
    prop_assert_eq!(trace.dropped, 0u64);

    let count = |k: &str| trace.records.iter().filter(|r| r.event.kind() == k).count() as u32;
    prop_assert_eq!(count("job_submitted"), result.metrics.submitted);
    prop_assert_eq!(count("bid_evaluated"), result.metrics.submitted);
    prop_assert_eq!(count("sla_accepted"), result.metrics.accepted);
    prop_assert_eq!(
        count("sla_rejected"),
        result.metrics.submitted - result.metrics.accepted
    );
    // Fulfilled jobs are exactly the completed-and-not-violated ones.
    prop_assert_eq!(
        count("job_completed") - count("sla_violated"),
        result.metrics.fulfilled
    );
}

proptest! {
    #[test]
    fn traces_are_causally_ordered_across_policies(raw in jobs_strategy()) {
        let jobs = workload(&raw);
        for kind in [PolicyKind::FcfsBf, PolicyKind::EdfBf, PolicyKind::Libra] {
            check_run(&jobs, kind, EconomicModel::CommodityMarket);
            check_run(&jobs, kind, EconomicModel::BidBased);
        }
        check_run(&jobs, PolicyKind::FirstReward, EconomicModel::BidBased);
        check_run(&jobs, PolicyKind::LibraDollar, EconomicModel::CommodityMarket);
    }
}
