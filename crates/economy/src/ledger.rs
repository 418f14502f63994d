//! Accounting ledger: per-job invoices and aggregate revenue statements.
//!
//! The paper assumes "accounting and pricing mechanisms to record resource
//! usage information and compute usage costs to charge service users
//! accordingly" (Section 3.4). This module is that mechanism: one
//! `Invoice` per job, an append-only [`Ledger`], aggregate statements,
//! and CSV export for external billing systems.

use crate::model::EconomicModel;
use ccs_workload::JobId;
use serde::{Deserialize, Serialize};

/// Billing disposition of one job.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub(crate) enum Disposition {
    /// Rejected at admission: nothing owed either way.
    Rejected,
    /// Completed within its deadline: full charge / full bid.
    Fulfilled,
    /// Completed late: charged as usual (commodity) or penalized
    /// (bid-based).
    Late,
}

/// One job's billing record.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) struct Invoice {
    /// The job billed.
    pub job: JobId,
    /// Billing disposition.
    pub disposition: Disposition,
    /// The user's budget (list price ceiling / bid).
    pub budget: f64,
    /// Amount the provider earned (negative = net compensation paid).
    pub amount: f64,
    /// Seconds of delay past the deadline (0 when on time).
    pub delay: f64,
}

/// Append-only billing ledger for one service run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Ledger {
    invoices: Vec<Invoice>,
}

/// Aggregate revenue statement.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Statement {
    /// Invoices issued (= jobs submitted).
    pub invoices: usize,
    /// Jobs rejected.
    pub rejected: usize,
    /// Jobs fulfilled on time.
    pub fulfilled: usize,
    /// Jobs completed late.
    pub late: usize,
    /// Gross earnings from positive invoices.
    pub gross_revenue: f64,
    /// Compensation paid out on negative invoices (≥ 0).
    pub compensation: f64,
    /// Net earnings (gross − compensation).
    pub net_revenue: f64,
    /// Total budget across all invoices (the attainable ceiling).
    pub total_budget: f64,
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Records a rejection.
    pub fn reject(&mut self, job: JobId, budget: f64) {
        self.invoices.push(Invoice {
            job,
            disposition: Disposition::Rejected,
            budget,
            amount: 0.0,
            delay: 0.0,
        });
    }

    /// Records a completed job's billing under the given economic model.
    ///
    /// `charged` is the commodity-market quote fixed at acceptance (ignored
    /// in the bid-based model, where the utility is `budget − delay ×
    /// penalty_rate`).
    pub fn complete(
        &mut self,
        econ: EconomicModel,
        job: JobId,
        budget: f64,
        charged: Option<f64>,
        delay: f64,
        penalty_rate: f64,
    ) {
        let amount = match econ {
            EconomicModel::CommodityMarket => {
                charged.expect("commodity billing requires the fixed charge")
            }
            EconomicModel::BidBased => budget - delay * penalty_rate,
        };
        self.invoices.push(Invoice {
            job,
            disposition: if delay > 0.0 {
                Disposition::Late
            } else {
                Disposition::Fulfilled
            },
            budget,
            amount,
            delay,
        });
    }

    /// All invoices, in issue order.
    #[cfg(test)]
    pub(crate) fn invoices(&self) -> &[Invoice] {
        &self.invoices
    }

    /// Aggregates the ledger into a statement.
    pub fn statement(&self) -> Statement {
        let mut s = Statement {
            invoices: self.invoices.len(),
            rejected: 0,
            fulfilled: 0,
            late: 0,
            gross_revenue: 0.0,
            compensation: 0.0,
            net_revenue: 0.0,
            total_budget: 0.0,
        };
        for inv in &self.invoices {
            s.total_budget += inv.budget;
            match inv.disposition {
                Disposition::Rejected => s.rejected += 1,
                Disposition::Fulfilled => s.fulfilled += 1,
                Disposition::Late => s.late += 1,
            }
            if inv.amount >= 0.0 {
                s.gross_revenue += inv.amount;
            } else {
                s.compensation += -inv.amount;
            }
        }
        s.net_revenue = s.gross_revenue - s.compensation;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commodity_billing_uses_the_fixed_charge() {
        let mut l = Ledger::new();
        l.complete(
            EconomicModel::CommodityMarket,
            0,
            500.0,
            Some(320.0),
            0.0,
            9.0,
        );
        assert_eq!(l.invoices()[0].amount, 320.0);
        assert_eq!(l.invoices()[0].disposition, Disposition::Fulfilled);
    }

    #[test]
    fn bid_billing_applies_linear_penalty() {
        let mut l = Ledger::new();
        l.complete(EconomicModel::BidBased, 0, 500.0, None, 0.0, 2.0);
        l.complete(EconomicModel::BidBased, 1, 500.0, None, 100.0, 2.0);
        l.complete(EconomicModel::BidBased, 2, 500.0, None, 400.0, 2.0);
        assert_eq!(l.invoices()[0].amount, 500.0);
        assert_eq!(l.invoices()[1].amount, 300.0);
        assert_eq!(l.invoices()[2].amount, -300.0, "unbounded penalty");
        assert_eq!(l.invoices()[2].disposition, Disposition::Late);
    }

    #[test]
    fn statement_aggregates() {
        let mut l = Ledger::new();
        l.reject(0, 100.0);
        l.complete(EconomicModel::BidBased, 1, 200.0, None, 0.0, 1.0);
        l.complete(EconomicModel::BidBased, 2, 300.0, None, 500.0, 1.0); // -200
        let s = l.statement();
        assert_eq!(s.invoices, 3);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.fulfilled, 1);
        assert_eq!(s.late, 1);
        assert_eq!(s.gross_revenue, 200.0);
        assert_eq!(s.compensation, 200.0);
        assert_eq!(s.net_revenue, 0.0);
        assert_eq!(s.total_budget, 600.0);
    }

    #[test]
    fn empty_ledger_statement_is_zero() {
        let s = Ledger::new().statement();
        assert_eq!(s.invoices, 0);
        assert_eq!(s.net_revenue, 0.0);
    }

    #[test]
    #[should_panic]
    fn commodity_without_charge_panics() {
        Ledger::new().complete(EconomicModel::CommodityMarket, 0, 1.0, None, 0.0, 1.0);
    }
}
