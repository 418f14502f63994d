//! # ccs-economy — economic models for a commercial computing service
//!
//! Implements paper Section 5.1/5.2:
//!
//! - [`model`] — the two economic models under evaluation: the **commodity
//!   market model** (the provider prices resources; a job is rejected if its
//!   expected cost exceeds the user's budget; no penalty for SLA misses) and
//!   the **bid-based model** (the user bids a budget; the provider is
//!   penalized linearly and unboundedly for completing a job past its
//!   deadline — Figure 2).
//! - [`pricing`] — the commodity pricing functions: the flat base price used
//!   by the backfilling policies, Libra's deadline-incentive function
//!   `γ·tr + δ·tr/d`, and Libra+$'s utilization-adaptive
//!   `P_ij = α·PBase_j + β·PUtil_ij`.
//! - [`penalty`] — the bid-based utility/penalty function
//!   `u_i = b_i − dy_i · pr_i` (paper Eq. 9–10) and the curve generator used
//!   to reproduce Figure 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ledger;
pub mod model;
pub mod penalty;
pub mod pricing;
pub mod schedule;

pub use ledger::{Ledger, Statement};
pub use model::EconomicModel;
pub use penalty::bid_utility;
pub use pricing::{
    base_cost, libra_cost, libra_dollar_cost, libra_dollar_rate, LibraDollarParams, LibraParams,
};
pub use schedule::PriceSchedule;
