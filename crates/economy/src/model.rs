//! The two economic models of the evaluation (paper Section 5.1).

use serde::{Deserialize, Serialize};

/// How price/utility is determined and whether SLA misses are penalized.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize, Hash)]
pub enum EconomicModel {
    /// The provider sets the price for resources consumed. A job whose
    /// expected cost exceeds its budget is rejected; there is **no penalty**
    /// for missing a deadline (the user is simply charged as usual).
    CommodityMarket,
    /// The user bids the price (their budget) for completing the job within
    /// its deadline. Finishing late reduces the utility linearly and
    /// **unboundedly** at the job's penalty rate (Figure 2).
    BidBased,
}

impl EconomicModel {
    /// Human-readable name used in reports and figure labels.
    pub(crate) fn name(self) -> &'static str {
        match self {
            EconomicModel::CommodityMarket => "commodity market",
            EconomicModel::BidBased => "bid-based",
        }
    }

    /// Both models, in paper order.
    pub const ALL: [EconomicModel; 2] = [EconomicModel::CommodityMarket, EconomicModel::BidBased];
}

impl std::fmt::Display for EconomicModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_distinct() {
        assert_ne!(
            EconomicModel::CommodityMarket.name(),
            EconomicModel::BidBased.name()
        );
        assert_eq!(EconomicModel::ALL.len(), 2);
    }

    #[test]
    fn serde_round_trip() {
        let s = serde_json::to_string(&EconomicModel::BidBased).unwrap();
        let m: EconomicModel = serde_json::from_str(&s).unwrap();
        assert_eq!(m, EconomicModel::BidBased);
    }
}
