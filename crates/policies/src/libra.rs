//! The Libra family: Libra, Libra+$, and LibraRiskD (paper Section 5.2).
//!
//! All three use deadline-driven proportional processor sharing with job
//! admission control: a new job is examined **immediately on submission**
//! (so accepted jobs never wait — the family's ideal `wait` objective) and
//! admitted only if enough nodes can supply its minimum processor-time share
//! `est/deadline`. Node selection is best fit: the nodes with the least
//! spare share that still fit are chosen, saturating nodes one by one.
//!
//! All three run the same share engine, [`PsCluster`]: node demand is
//! re-evaluated as remaining estimated work over remaining time to
//! deadline, so shares freed by early-finishing jobs can be re-committed.
//! The variants differ in:
//!
//! - **Libra** — static deadline-incentive pricing (`γ·tr + δ·tr/d`) in the
//!   commodity model.
//! - **Libra+$** — Libra plus the utilization-adaptive pricing function
//!   `P_ij = α·PBase + β·PUtil_ij`; the job pays the highest per-unit price
//!   among its allocated nodes, and is rejected if that exceeds its budget.
//! - **LibraRiskD** — considers the *risk of deadline delay* when selecting
//!   nodes: only nodes with zero risk (no resident task running past its
//!   estimate) are eligible.

use crate::traits::{quote_checked_reads, Interruption, Outcome, Policy, RejectReason};
use ccs_cluster::{JobCompletion, PsCluster};
use ccs_des::FastHashMap;
use ccs_economy::{
    libra_cost, libra_dollar_cost, libra_dollar_rate, EconomicModel, LibraDollarParams, LibraParams,
};
use ccs_workload::{Job, JobFields, JobId};

/// Which member of the Libra family.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LibraVariant {
    /// Plain Libra.
    Plain,
    /// Libra with the enhanced pricing function (Libra+$).
    Dollar,
    /// Libra with delay-risk-aware node selection (LibraRiskD).
    RiskD,
}

/// Node-selection strategy (the original Libra paper, Sherwani et al. 2004,
/// compares these placement strategies).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeSelection {
    /// Least spare share first: saturate nodes to their maximum (the
    /// paper's configuration).
    BestFit,
    /// Most spare share first: spread load evenly across nodes.
    WorstFit,
}

#[derive(Clone, Copy, Debug)]
struct Meta {
    start: f64,
    charged: Option<f64>,
}

/// A Libra-family policy instance.
pub struct LibraPolicy {
    variant: LibraVariant,
    econ: EconomicModel,
    /// The share engine; it carries the escalation setting.
    cluster: PsCluster,
    selection: NodeSelection,
    dollar_params: LibraDollarParams,
    /// Insert/remove only (never iterated), so the fast integer hasher is
    /// output-neutral here.
    meta: FastHashMap<JobId, Meta>,
    /// Reusable buffers for the per-submit node scan and the per-advance
    /// completion harvest — admission runs on every job, so neither may
    /// allocate.
    eligible_scratch: Vec<(f64, usize)>,
    picked_scratch: Vec<usize>,
    completions_scratch: Vec<JobCompletion>,
    /// Plain Libra's certificate that LibraRiskD with the same settings
    /// would make this very run (see [`Policy::riskd_equivalent`]): true
    /// until an admission picks a node [`PsCluster::node_at_risk`] flags,
    /// then false for good. Always false for the other variants.
    riskd_equivalent: bool,
}

/// Share-fit slack for floating-point comparisons.
const SHARE_EPS: f64 = 1e-9;

impl LibraPolicy {
    /// Creates a Libra-family policy over `nodes` time-shared nodes.
    pub fn new(variant: LibraVariant, econ: EconomicModel, nodes: u32) -> Self {
        // All Libra variants re-evaluate demand from remaining *estimated*
        // work over remaining time to deadline (the proportional share is
        // adjusted as jobs progress — Sherwani et al. 2004). This is what
        // makes plain Libra vulnerable to inaccurate estimates: a task that
        // overran its estimate looks almost free, attracting new admissions
        // onto a node that will escalate when the overrun job's deadline
        // passes. LibraRiskD differs only in refusing such at-risk nodes
        // (Yeo & Buyya, ICPP 2006).
        LibraPolicy::build(variant, econ, PsCluster::new(nodes as usize))
    }

    /// Ablation constructor: control the deadline-escalation cascade of the
    /// underlying share engine.
    pub fn with_engine(
        variant: LibraVariant,
        econ: EconomicModel,
        nodes: u32,
        escalation: bool,
    ) -> Self {
        LibraPolicy::build(
            variant,
            econ,
            PsCluster::with_escalation(nodes as usize, escalation),
        )
    }

    /// Heterogeneous-cluster constructor: one speed rating per node. The
    /// admission control demands `est/(deadline × rating)` of a node's
    /// share, so fast nodes host more concurrent work — Libra's
    /// computational-economy papers explicitly target such clusters.
    pub fn with_ratings(variant: LibraVariant, econ: EconomicModel, ratings: Vec<f64>) -> Self {
        LibraPolicy::build(variant, econ, PsCluster::with_ratings(ratings, true))
    }

    /// A policy over `cluster` with the paper's selection and prices.
    fn build(variant: LibraVariant, econ: EconomicModel, cluster: PsCluster) -> Self {
        LibraPolicy {
            variant,
            econ,
            cluster,
            selection: NodeSelection::BestFit,
            dollar_params: LibraDollarParams::default(),
            meta: FastHashMap::default(),
            eligible_scratch: Vec::new(),
            picked_scratch: Vec::new(),
            completions_scratch: Vec::new(),
            riskd_equivalent: variant == LibraVariant::Plain,
        }
    }

    /// Overrides the node-selection strategy (best fit is the paper's).
    pub fn with_selection(mut self, selection: NodeSelection) -> Self {
        self.selection = selection;
        self
    }

    /// Overrides the Libra+$ pricing parameters (α, β).
    pub fn with_dollar_params(mut self, p: LibraDollarParams) -> Self {
        self.dollar_params = p;
        self
    }

    /// Best-fit node selection: every eligible node has at least `required`
    /// spare share (and zero delay risk for LibraRiskD); the `procs` fullest
    /// eligible nodes are written into `picked` (true), or too few exist
    /// (false). Caller-supplied buffers keep the per-submit scan
    /// allocation-free.
    fn select_nodes(
        &self,
        estimate: f64,
        deadline: f64,
        procs: u32,
        now: f64,
        eligible: &mut Vec<(f64, usize)>,
        picked: &mut Vec<usize>,
    ) -> bool {
        eligible.clear();
        picked.clear();
        let refuse_at_risk = self.variant == LibraVariant::RiskD;
        eligible.extend((0..self.cluster.nodes()).filter_map(|n| {
            if !self.cluster.node_up(n) {
                return None; // failed nodes host nothing
            }
            // Per-node requirement: fast nodes need less share.
            let required = self.cluster.required_share(n, estimate, deadline);
            if estimate > deadline * self.cluster.rating(n) {
                return None; // this node cannot make the deadline at all
            }
            // The cutoff form lets the share engine stop scanning a node's
            // residents as soon as a partial weight sum proves it too full —
            // the admission decision and the `free` key are byte-identical
            // to `free_share` plus the `free + SHARE_EPS < required` test.
            // LibraRiskD's at-risk test rides along in the same pass.
            let free =
                self.cluster
                    .free_share_if_fits(n, now, required, SHARE_EPS, refuse_at_risk)?;
            Some((free, n))
        }));
        let need = procs as usize;
        if eligible.len() < need {
            return false;
        }
        // Only the `need` best nodes are handed out, so an O(n) selection
        // followed by sorting just that prefix replaces the full O(n log n)
        // sort. The comparator is total and tie-broken by node index (no two
        // entries compare equal), so the selected set — and therefore the
        // sorted prefix — is byte-identical to the full sort's prefix.
        match self.selection {
            // Best fit: least free share first (saturate nodes to their
            // maximum — the paper's configuration).
            NodeSelection::BestFit => {
                if need > 0 && eligible.len() > need {
                    eligible.select_nth_unstable_by(need - 1, |a, b| {
                        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
                    });
                }
                eligible[..need].sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            }
            // Worst fit: most free share first (balance the load).
            NodeSelection::WorstFit => {
                if need > 0 && eligible.len() > need {
                    eligible.select_nth_unstable_by(need - 1, |a, b| {
                        b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
                    });
                }
                eligible[..need].sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            }
        }
        picked.extend(eligible[..need].iter().map(|e| e.1));
        true
    }

    /// Commodity-market price quote for `job` on the `picked` `(free share,
    /// node)` pairs that [`Self::select_nodes`] chose. `None` means the
    /// bid-based model is active and no quote applies. Each `free` is the
    /// exact `free_share(node, now)` value (`free_share_if_fits` returns
    /// the same left-fold), so Libra+$ prices without rescanning the
    /// picked nodes' residents.
    fn quote(&self, job: &Job, picked: &[(f64, usize)]) -> Option<f64> {
        if self.econ != EconomicModel::CommodityMarket {
            return None;
        }
        Some(match self.variant {
            LibraVariant::Plain | LibraVariant::RiskD => libra_cost(job, &LibraParams::default()),
            LibraVariant::Dollar => {
                let max_rate = picked
                    .iter()
                    .map(|&(free, n)| {
                        let required = self.cluster.required_share(n, job.estimate, job.deadline);
                        libra_dollar_rate(free - required, &self.dollar_params)
                    })
                    .fold(0.0, f64::max);
                libra_dollar_cost(job, max_rate)
            }
        })
    }
}

impl Policy for LibraPolicy {
    fn name(&self) -> &'static str {
        match self.variant {
            LibraVariant::Plain => "Libra",
            LibraVariant::Dollar => "Libra+$",
            LibraVariant::RiskD => "LibraRiskD",
        }
    }

    fn reads(&self) -> JobFields {
        quote_checked_reads(self.econ)
    }

    fn on_submit(&mut self, job: &Job, now: f64, out: &mut Vec<Outcome>) {
        let mut eligible = std::mem::take(&mut self.eligible_scratch);
        let mut nodes = std::mem::take(&mut self.picked_scratch);
        let found = self.select_nodes(
            job.estimate,
            job.deadline,
            job.procs,
            now,
            &mut eligible,
            &mut nodes,
        );
        if !found {
            self.eligible_scratch = eligible;
            self.picked_scratch = nodes;
            out.push(Outcome::Rejected {
                job: job.id,
                at: now,
                reason: RejectReason::InsufficientShare,
            });
            return;
        }
        // LibraRiskD's eligible set is this one minus the at-risk nodes,
        // with the same `free` bits on every other node. While none of the
        // picks is at risk they are still the best `procs` of that smaller
        // set, so LibraRiskD would pick, quote and decide exactly as here.
        if self.riskd_equivalent {
            self.riskd_equivalent = !nodes.iter().any(|&n| self.cluster.node_at_risk(n, now));
        }
        // `select_nodes` leaves the picked nodes' (free, node) pairs in
        // `eligible[..need]`, in the same order as `nodes`.
        let charged = self.quote(job, &eligible[..nodes.len()]);
        self.eligible_scratch = eligible;
        if let Some(cost) = charged {
            if cost > job.budget {
                self.picked_scratch = nodes;
                out.push(Outcome::Rejected {
                    job: job.id,
                    at: now,
                    reason: RejectReason::OverBudget,
                });
                return;
            }
        }
        self.cluster.submit(job, &nodes, now);
        self.picked_scratch = nodes;
        self.meta.insert(
            job.id,
            Meta {
                start: now,
                charged,
            },
        );
        out.push(Outcome::Accepted {
            job: job.id,
            at: now,
        });
        out.push(Outcome::Started {
            job: job.id,
            at: now,
        });
    }

    fn next_event_time(&mut self) -> Option<f64> {
        self.cluster.next_event_time()
    }

    fn riskd_equivalent(&self) -> Option<bool> {
        (self.variant == LibraVariant::Plain).then_some(self.riskd_equivalent)
    }

    fn advance_to(&mut self, t: f64, out: &mut Vec<Outcome>) {
        let mut done_buf = std::mem::take(&mut self.completions_scratch);
        done_buf.clear();
        self.cluster.advance_into(t, &mut done_buf);
        for done in &done_buf {
            let meta = self
                .meta
                .remove(&done.job_id)
                .expect("completion of unknown job");
            out.push(Outcome::Completed {
                job: done.job_id,
                start: meta.start,
                finish: done.finish,
                charged: meta.charged,
            });
        }
        self.completions_scratch = done_buf;
    }

    fn drain(&mut self, out: &mut Vec<Outcome>) {
        self.advance_to(f64::INFINITY, out);
        debug_assert!(self.meta.is_empty(), "all accepted jobs must complete");
    }

    fn on_nodes_fail(
        &mut self,
        nodes: &[u32],
        now: f64,
        _out: &mut Vec<Outcome>,
    ) -> Vec<Interruption> {
        // The share engine preempts every job with a task on any failed
        // node (cluster-wide: a gang-scheduled job cannot run short-handed).
        // The batch form accrues and recomputes each surviving node's
        // shares once per storm instead of once per failure event.
        let failed: Vec<usize> = nodes.iter().map(|&n| n as usize).collect();
        self.cluster
            .fail_nodes(&failed, now)
            .into_iter()
            .map(|(job_id, remaining_work)| {
                let meta = self
                    .meta
                    .remove(&job_id)
                    .expect("preempted job must have metadata");
                Interruption {
                    job: job_id,
                    started_at: meta.start,
                    remaining_work,
                }
            })
            .collect()
    }

    fn on_nodes_repair(&mut self, nodes: &[u32], now: f64, _out: &mut Vec<Outcome>) {
        for &node in nodes {
            self.cluster.repair_node(node as usize, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_workload::Urgency;

    fn job(id: JobId, submit: f64, runtime: f64, estimate: f64, deadline: f64, procs: u32) -> Job {
        Job {
            id,
            submit,
            runtime,
            estimate,
            procs,
            urgency: Urgency::Low,
            deadline,
            budget: 1e12,
            penalty_rate: 1.0,
        }
    }

    fn run(policy: &mut LibraPolicy, jobs: &[Job]) -> Vec<Outcome> {
        let mut out = Vec::new();
        for j in jobs {
            policy.advance_to(j.submit, &mut out);
            policy.on_submit(j, j.submit, &mut out);
        }
        policy.drain(&mut out);
        out
    }

    fn accepted(out: &[Outcome]) -> Vec<JobId> {
        out.iter()
            .filter_map(|o| match o {
                Outcome::Accepted { job, .. } => Some(*job),
                _ => None,
            })
            .collect()
    }

    fn rejected(out: &[Outcome]) -> Vec<JobId> {
        out.iter()
            .filter_map(|o| match o {
                Outcome::Rejected { job, .. } => Some(*job),
                _ => None,
            })
            .collect()
    }

    fn finish_of(out: &[Outcome], id: JobId) -> f64 {
        out.iter()
            .find_map(|o| match o {
                Outcome::Completed { job, finish, .. } if *job == id => Some(*finish),
                _ => None,
            })
            .unwrap()
    }

    #[test]
    fn accepts_immediately_and_meets_deadline() {
        let mut p = LibraPolicy::new(LibraVariant::Plain, EconomicModel::BidBased, 4);
        let out = run(&mut p, &[job(0, 10.0, 100.0, 100.0, 400.0, 2)]);
        assert_eq!(accepted(&out), vec![0]);
        assert!(
            matches!(out[1], Outcome::Started { at, .. } if at == 10.0),
            "zero wait"
        );
        assert!(finish_of(&out, 0) <= 410.0);
    }

    #[test]
    fn rejects_when_share_unavailable() {
        let mut p = LibraPolicy::new(LibraVariant::Plain, EconomicModel::BidBased, 1);
        // First job takes share 0.8 on the single node; second needs 0.5.
        let out = run(
            &mut p,
            &[
                job(0, 0.0, 80.0, 80.0, 100.0, 1),
                job(1, 0.0, 50.0, 50.0, 100.0, 1),
            ],
        );
        assert_eq!(accepted(&out), vec![0]);
        assert_eq!(rejected(&out), vec![1]);
    }

    #[test]
    fn rejects_infeasible_deadline() {
        let mut p = LibraPolicy::new(LibraVariant::Plain, EconomicModel::BidBased, 4);
        let out = run(&mut p, &[job(0, 0.0, 100.0, 200.0, 150.0, 1)]);
        assert_eq!(rejected(&out), vec![0]);
    }

    #[test]
    fn rejects_when_not_enough_nodes() {
        let mut p = LibraPolicy::new(LibraVariant::Plain, EconomicModel::BidBased, 2);
        let out = run(&mut p, &[job(0, 0.0, 10.0, 10.0, 100.0, 3)]);
        assert_eq!(rejected(&out), vec![0]);
    }

    #[test]
    fn best_fit_saturates_nodes() {
        let mut p = LibraPolicy::new(LibraVariant::Plain, EconomicModel::BidBased, 2);
        // Job 0 puts share 0.5 on one node. Job 1 (share 0.3) must go to the
        // same node (best fit), leaving node 1 empty for the wide job 2.
        let out = run(
            &mut p,
            &[
                job(0, 0.0, 50.0, 50.0, 100.0, 1),
                job(1, 0.0, 30.0, 30.0, 100.0, 1),
                job(2, 0.0, 90.0, 90.0, 100.0, 1),
            ],
        );
        assert_eq!(accepted(&out), vec![0, 1, 2], "best fit packs all three");
    }

    #[test]
    fn multi_node_jobs_take_share_everywhere() {
        let mut p = LibraPolicy::new(LibraVariant::Plain, EconomicModel::BidBased, 2);
        let out = run(
            &mut p,
            &[
                job(0, 0.0, 60.0, 60.0, 100.0, 2), // 0.6 share on both nodes
                job(1, 0.0, 50.0, 50.0, 100.0, 1), // needs 0.5: no node fits
            ],
        );
        assert_eq!(accepted(&out), vec![0]);
        assert_eq!(rejected(&out), vec![1]);
    }

    #[test]
    fn commodity_libra_charges_incentive_price() {
        let mut p = LibraPolicy::new(LibraVariant::Plain, EconomicModel::CommodityMarket, 4);
        let out = run(&mut p, &[job(0, 0.0, 100.0, 100.0, 400.0, 2)]);
        let charged = out
            .iter()
            .find_map(|o| match o {
                Outcome::Completed { charged, .. } => *charged,
                _ => None,
            })
            .unwrap();
        // (γ·100 + δ·100/400) × 2 procs = (100 + 0.25) × 2.
        assert!((charged - 200.5).abs() < 1e-9, "charged {charged}");
    }

    #[test]
    fn commodity_rejects_over_budget() {
        let mut p = LibraPolicy::new(LibraVariant::Plain, EconomicModel::CommodityMarket, 4);
        let mut j = job(0, 0.0, 100.0, 100.0, 400.0, 2);
        j.budget = 50.0;
        let out = run(&mut p, &[j]);
        assert_eq!(rejected(&out), vec![0]);
    }

    #[test]
    fn dollar_charges_more_on_busier_nodes() {
        // Submit an identical probe job on an idle cluster vs a loaded one.
        let probe = job(9, 0.0, 100.0, 100.0, 1000.0, 1);

        let mut idle = LibraPolicy::new(LibraVariant::Dollar, EconomicModel::CommodityMarket, 1);
        let out_idle = run(&mut idle, &[probe]);
        let charged_idle = out_idle
            .iter()
            .find_map(|o| match o {
                Outcome::Completed { charged, .. } => *charged,
                _ => None,
            })
            .unwrap();

        let mut busy = LibraPolicy::new(LibraVariant::Dollar, EconomicModel::CommodityMarket, 1);
        let load = job(0, 0.0, 700.0, 700.0, 1000.0, 1); // share 0.7
        let out_busy = run(&mut busy, &[load, probe]);
        let charged_busy = out_busy
            .iter()
            .find_map(|o| match o {
                Outcome::Completed {
                    job: 9, charged, ..
                } => *charged,
                _ => None,
            })
            .unwrap();
        assert!(
            charged_busy > charged_idle,
            "adaptive pricing: {charged_busy} <= {charged_idle}"
        );
    }

    #[test]
    fn riskd_avoids_at_risk_nodes() {
        let mut p = LibraPolicy::new(LibraVariant::RiskD, EconomicModel::BidBased, 2);
        // Job 0 on some node claims est 10 but runs 1000 (overruns at t=10).
        // At t=50 a new small job must avoid that node; a second new job
        // then cannot fit (other node taken) if both needed the risky node.
        let mut out = Vec::new();
        let j0 = job(0, 0.0, 1000.0, 10.0, 2000.0, 1);
        p.on_submit(&j0, 0.0, &mut out);
        p.advance_to(50.0, &mut out);
        let j1 = job(1, 50.0, 100.0, 100.0, 1500.0, 2); // needs BOTH nodes
        p.on_submit(&j1, 50.0, &mut out);
        assert_eq!(
            rejected(&out),
            vec![1],
            "one node is at risk, so a 2-node job cannot be placed"
        );
        let j2 = job(2, 50.0, 100.0, 100.0, 1500.0, 1); // single node is fine
        p.on_submit(&j2, 50.0, &mut out);
        assert!(accepted(&out).contains(&2));
        p.drain(&mut out);
    }

    #[test]
    fn plain_libra_withdraws_its_riskd_certificate_on_an_at_risk_pick() {
        let mut p = LibraPolicy::new(LibraVariant::Plain, EconomicModel::BidBased, 2);
        let mut out = Vec::new();
        // Job 0 claims est 10 but runs 1000: its node is at risk from t=10.
        p.on_submit(&job(0, 0.0, 1000.0, 10.0, 2000.0, 1), 0.0, &mut out);
        assert_eq!(p.riskd_equivalent(), Some(true), "no node at risk yet");
        p.advance_to(50.0, &mut out);
        // A rejection picks nothing, so it keeps the certificate.
        p.on_submit(&job(2, 50.0, 100.0, 100.0, 90.0, 1), 50.0, &mut out);
        assert_eq!(rejected(&out), vec![2]);
        assert_eq!(p.riskd_equivalent(), Some(true));
        // A 2-node job must take the at-risk node; LibraRiskD would not.
        p.on_submit(&job(3, 50.0, 100.0, 100.0, 1500.0, 2), 50.0, &mut out);
        assert!(accepted(&out).contains(&3));
        assert_eq!(p.riskd_equivalent(), Some(false));
        p.drain(&mut out);
        assert_eq!(p.riskd_equivalent(), Some(false), "withdrawn for good");
        for variant in [LibraVariant::Dollar, LibraVariant::RiskD] {
            let p = LibraPolicy::new(variant, EconomicModel::BidBased, 2);
            assert_eq!(p.riskd_equivalent(), None, "{variant:?} makes no claim");
        }
    }

    #[test]
    fn plain_libra_ignores_risk() {
        let mut p = LibraPolicy::new(LibraVariant::Plain, EconomicModel::BidBased, 2);
        let mut out = Vec::new();
        let j0 = job(0, 0.0, 1000.0, 10.0, 2000.0, 1);
        p.on_submit(&j0, 0.0, &mut out);
        p.advance_to(50.0, &mut out);
        let j1 = job(1, 50.0, 100.0, 100.0, 1500.0, 2);
        p.on_submit(&j1, 50.0, &mut out);
        assert!(
            accepted(&out).contains(&1),
            "Libra places jobs on risky nodes"
        );
        p.drain(&mut out);
    }

    #[test]
    fn libra_family_reuses_dynamically_freed_share() {
        // A job at share 0.5 runs alone (rate 1) and so drains its demand
        // early; the Libra family re-evaluates shares from remaining
        // estimated work, so a later job can claim more than 1 − 0.5.
        for variant in [LibraVariant::Plain, LibraVariant::RiskD] {
            let mut p = LibraPolicy::new(variant, EconomicModel::BidBased, 1);
            let filler = job(0, 0.0, 500.0, 500.0, 1000.0, 1); // share 0.5
            let late = job(1, 400.0, 100.0, 100.0, 160.0, 1); // share 0.625
            let mut out = Vec::new();
            p.on_submit(&filler, 0.0, &mut out);
            p.advance_to(400.0, &mut out);
            p.on_submit(&late, 400.0, &mut out);
            p.drain(&mut out);
            assert!(
                accepted(&out).contains(&1),
                "{:?}: dynamically freed share admits the late job",
                variant
            );
        }
    }

    #[test]
    fn worst_fit_spreads_while_best_fit_packs() {
        // Two small jobs; best fit co-locates them, worst fit spreads them.
        let j0 = job(0, 0.0, 30.0, 30.0, 100.0, 1);
        let j1 = job(1, 0.0, 30.0, 30.0, 100.0, 1);
        let wide = job(2, 0.0, 90.0, 90.0, 100.0, 1); // needs 0.9 share

        let mut best = LibraPolicy::new(LibraVariant::Plain, EconomicModel::BidBased, 2);
        let out = run(&mut best, &[j0, j1, wide]);
        assert_eq!(accepted(&out), vec![0, 1, 2], "packing leaves a free node");

        let mut worst = LibraPolicy::new(LibraVariant::Plain, EconomicModel::BidBased, 2)
            .with_selection(NodeSelection::WorstFit);
        let out = run(&mut worst, &[j0, j1, wide]);
        assert_eq!(
            rejected(&out),
            vec![2],
            "spreading fragments the shares so the wide job cannot fit"
        );
    }

    #[test]
    fn heterogeneous_cluster_places_tight_jobs_on_fast_nodes() {
        // deadline < estimate: impossible on a 1x node, fine on the 4x node.
        let mut p = LibraPolicy::with_ratings(
            LibraVariant::Plain,
            EconomicModel::BidBased,
            vec![1.0, 1.0, 4.0],
        );
        let tight1 = job(0, 0.0, 100.0, 100.0, 50.0, 1);
        let tight2 = job(1, 0.0, 100.0, 100.0, 50.0, 2); // needs 2 fast nodes: impossible
        let out = run(&mut p, &[tight1, tight2]);
        assert!(accepted(&out).contains(&0), "the 4x node hosts it");
        assert_eq!(rejected(&out), vec![1], "only one node is fast enough");
        // And the accepted job actually met its deadline (ran at 4x: 25 s).
        assert!(
            finish_of(&out, 0) <= 50.0 + 1e-6,
            "finished at {}",
            finish_of(&out, 0)
        );
    }

    #[test]
    fn node_fail_interrupts_and_down_node_is_unselectable() {
        let mut p = LibraPolicy::new(LibraVariant::Plain, EconomicModel::BidBased, 2);
        let mut out = Vec::new();
        let wide = job(0, 0.0, 100.0, 100.0, 400.0, 2);
        p.on_submit(&wide, 0.0, &mut out);
        p.advance_to(10.0, &mut out);
        let hit = p.on_nodes_fail(&[1], 10.0, &mut out);
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].job, 0);
        assert_eq!(hit[0].started_at, 0.0);
        assert!(hit[0].remaining_work > 0.0);
        // Another 2-node job cannot be placed while node 1 is down.
        let j1 = job(1, 20.0, 10.0, 10.0, 400.0, 2);
        p.advance_to(20.0, &mut out);
        p.on_submit(&j1, 20.0, &mut out);
        assert_eq!(rejected(&out), vec![1]);
        // After repair it fits.
        p.on_nodes_repair(&[1], 30.0, &mut out);
        let j2 = job(2, 40.0, 10.0, 10.0, 400.0, 2);
        p.advance_to(40.0, &mut out);
        p.on_submit(&j2, 40.0, &mut out);
        assert!(accepted(&out).contains(&2));
        p.drain(&mut out);
    }

    #[test]
    fn wait_is_always_zero() {
        let mut p = LibraPolicy::new(LibraVariant::Plain, EconomicModel::BidBased, 4);
        let jobs: Vec<Job> = (0..10)
            .map(|i| job(i, i as f64 * 10.0, 20.0, 20.0, 400.0, 1))
            .collect();
        let out = run(&mut p, &jobs);
        for o in &out {
            if let Outcome::Started { job, at } = o {
                assert_eq!(*at, jobs[*job as usize].submit, "start == submit");
            }
        }
    }
}
