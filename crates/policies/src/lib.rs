//! # ccs-policies — resource-management policies under evaluation
//!
//! The seven policies of paper Table V:
//!
//! | Policy      | Economic models        | Primary scheduling parameter |
//! |-------------|------------------------|------------------------------|
//! | FCFS-BF     | commodity + bid-based  | arrival time                 |
//! | SJF-BF      | commodity              | runtime (estimate)           |
//! | EDF-BF      | commodity + bid-based  | deadline                     |
//! | Libra       | commodity + bid-based  | deadline                     |
//! | Libra+$     | commodity              | deadline                     |
//! | LibraRiskD  | bid-based              | deadline                     |
//! | FirstReward | bid-based              | budget with penalty          |
//!
//! Every policy implements the [`Policy`] trait and is built through
//! [`build_policy`], which wires the right cluster model (space-shared for
//! the backfilling policies and FirstReward, time-shared proportional
//! sharing for the Libra family) and the right pricing for the economic
//! model in force.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backfill;
pub mod conservative;
pub mod first_reward;
pub mod libra;
mod run_core;
pub mod traits;

pub use backfill::{BackfillOptions, BackfillPolicy, PriorityOrder};
pub use conservative::ConservativeBf;
pub use first_reward::{FirstRewardParams, FirstRewardPolicy};
pub use libra::{LibraPolicy, LibraVariant, NodeSelection};
pub use traits::{Interruption, Outcome, Policy, PolicyKind, RejectReason};

use ccs_economy::EconomicModel;

/// Instantiates a policy by kind for the given economic model over a cluster
/// of `nodes` processors.
pub fn build_policy(kind: PolicyKind, econ: EconomicModel, nodes: u32) -> Box<dyn Policy> {
    match kind {
        PolicyKind::FcfsBf => Box::new(BackfillPolicy::new(PriorityOrder::Fcfs, econ, nodes)),
        PolicyKind::SjfBf => Box::new(BackfillPolicy::new(PriorityOrder::Sjf, econ, nodes)),
        PolicyKind::EdfBf => Box::new(BackfillPolicy::new(PriorityOrder::Edf, econ, nodes)),
        PolicyKind::Libra => Box::new(LibraPolicy::new(LibraVariant::Plain, econ, nodes)),
        PolicyKind::LibraDollar => Box::new(LibraPolicy::new(LibraVariant::Dollar, econ, nodes)),
        PolicyKind::LibraRiskD => Box::new(LibraPolicy::new(LibraVariant::RiskD, econ, nodes)),
        PolicyKind::FirstReward => Box::new(FirstRewardPolicy::new(nodes)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_all_policies() {
        for kind in [
            PolicyKind::FcfsBf,
            PolicyKind::SjfBf,
            PolicyKind::EdfBf,
            PolicyKind::Libra,
            PolicyKind::LibraDollar,
            PolicyKind::LibraRiskD,
            PolicyKind::FirstReward,
        ] {
            let p = build_policy(kind, EconomicModel::BidBased, 16);
            assert_eq!(p.name(), kind.name());
        }
    }
}
