//! Property-based tests of the scheduling policies at the policy-trait
//! level (capacity safety, admission monotonicity, reservation integrity).

use ccs_economy::EconomicModel;
use ccs_policies::{
    build_policy, BackfillPolicy, ConservativeBf, FirstRewardParams, FirstRewardPolicy,
    LibraPolicy, LibraVariant, Outcome, Policy, PolicyKind, PriorityOrder,
};
use ccs_workload::{Job, JobFields, Urgency};
use proptest::prelude::*;

fn jobs_strategy(max_procs: u32) -> impl Strategy<Value = Vec<Job>> {
    prop::collection::vec(
        (
            1.0f64..500.0,  // gap
            10.0f64..800.0, // runtime
            0.3f64..3.0,    // estimate factor
            1.5f64..12.0,   // deadline factor
            1u32..=8,       // procs
        ),
        1..25,
    )
    .prop_map(move |raw| {
        let mut t = 0.0;
        raw.iter()
            .enumerate()
            .map(|(i, &(gap, rt, ef, df, procs))| {
                t += gap;
                Job {
                    id: i as u32,
                    submit: t,
                    runtime: rt,
                    estimate: (rt * ef).max(1.0),
                    procs: procs.min(max_procs),
                    urgency: Urgency::Low,
                    deadline: rt * df,
                    budget: rt * procs as f64 * 8.0,
                    penalty_rate: procs as f64,
                }
            })
            .collect()
    })
}

/// Drives a policy through a job stream.
fn run_policy(mut policy: Box<dyn Policy>, jobs: &[Job]) -> Vec<Outcome> {
    let mut out = Vec::new();
    for j in jobs {
        policy.advance_to(j.submit, &mut out);
        policy.on_submit(j, j.submit, &mut out);
    }
    policy.drain(&mut out);
    out
}

/// Drives a policy through a job stream, tracking concurrent processor use
/// from the outcome stream. Only valid for space-shared policies — the PS
/// engine time-shares nodes by design.
fn run_and_audit(policy: Box<dyn Policy>, jobs: &[Job], nodes: u32) -> Vec<Outcome> {
    let out = run_policy(policy, jobs);
    let mut events: Vec<(f64, i64)> = Vec::new();
    for o in &out {
        match o {
            Outcome::Started { job, at } => {
                events.push((*at, jobs[*job as usize].procs as i64));
            }
            Outcome::Completed { job, finish, .. } => {
                events.push((*finish, -(jobs[*job as usize].procs as i64)));
            }
            _ => {}
        }
    }
    // Releases at the same instant happen before starts.
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut used = 0i64;
    for (t, d) in events {
        used += d;
        assert!(
            used <= nodes as i64,
            "capacity violated: {used} procs in use at t={t}"
        );
    }
    out
}

/// Every built-in policy, by name, under `econ` on `nodes` processors:
/// the seven of Table V and conservative backfilling.
fn every_policy(econ: EconomicModel, nodes: u32) -> Vec<Box<dyn Policy>> {
    let mut policies: Vec<Box<dyn Policy>> = [
        PolicyKind::FcfsBf,
        PolicyKind::SjfBf,
        PolicyKind::EdfBf,
        PolicyKind::Libra,
        PolicyKind::LibraDollar,
        PolicyKind::LibraRiskD,
        PolicyKind::FirstReward,
    ]
    .into_iter()
    .map(|kind| build_policy(kind, econ, nodes))
    .collect();
    policies.push(Box::new(ConservativeBf::new(econ, nodes)));
    policies
}

/// Drives a policy through a job stream with node failures and repairs
/// interleaved (node `i % nodes` fails before job `i` when `i % 5 == 2`
/// and comes back before job `i + 2`), rendering the outcome stream
/// with every float at full precision.
fn stream_with_weather(mut policy: Box<dyn Policy>, jobs: &[Job], nodes: u32) -> String {
    let mut out = Vec::new();
    let mut interrupted = Vec::new();
    for (i, j) in jobs.iter().enumerate() {
        policy.advance_to(j.submit, &mut out);
        let node = [i as u32 % nodes];
        if i % 5 == 2 {
            interrupted.extend(policy.on_nodes_fail(&node, j.submit, &mut out));
        } else if i % 5 == 4 {
            let node = [(i as u32 - 2) % nodes];
            policy.on_nodes_repair(&node, j.submit, &mut out);
        }
        policy.on_submit(j, j.submit, &mut out);
    }
    policy.drain(&mut out);
    format!("{out:?} {interrupted:?}")
}

/// `jobs` with every field outside `kept` replaced, job by job, from
/// `noise`: a budget or penalty rate of zero, a tiny amount, a huge one
/// or an arbitrary one, the other urgency class, a shifted deadline.
fn perturbed(jobs: &[Job], kept: JobFields, noise: &[(u8, f64)]) -> Vec<Job> {
    let pick = |(kind, x): (u8, f64)| match kind % 4 {
        0 => 0.0,
        1 => 1e-9,
        2 => 1e12,
        _ => x,
    };
    jobs.iter()
        .zip(noise.iter().cycle())
        .map(|(j, &(kind, x))| {
            let mut p = *j;
            let unread = |field| !kept.intersects(field);
            if unread(JobFields::BUDGET) {
                p.budget = pick((kind, x));
            }
            if unread(JobFields::PENALTY_RATE) {
                p.penalty_rate = pick((kind.wrapping_add(1), x * 0.5));
            }
            if unread(JobFields::URGENCY) {
                p.urgency = match j.urgency {
                    Urgency::High => Urgency::Low,
                    Urgency::Low => Urgency::High,
                };
            }
            if unread(JobFields::DEADLINE) {
                p.deadline = j.deadline * 0.5 + x * 1e-3;
            }
            p
        })
        .collect()
}

/// Whether changing the fields outside `declared` moves the outcome
/// stream of the policy `build` makes: the check that a read set misses a
/// field the policy does read.
fn stream_moves_outside(
    build: impl Fn() -> Box<dyn Policy>,
    declared: JobFields,
    jobs: &[Job],
    noise: &[(u8, f64)],
) -> bool {
    let nodes = 8;
    let want = stream_with_weather(build(), jobs, nodes);
    want != stream_with_weather(build(), &perturbed(jobs, declared, noise), nodes)
}

/// A commodity FCFS-BF read set without the budget is caught: FCFS-BF
/// rejects a job whose quote exceeds its budget, so some perturbed budget
/// moves its stream.
#[test]
fn a_commodity_backfill_read_set_without_the_budget_is_caught() {
    let econ = EconomicModel::CommodityMarket;
    let build = || build_policy(PolicyKind::FcfsBf, econ, 8);
    let declared = build().reads().without(JobFields::BUDGET);
    let mut rng = TestRng::for_case("commodity-backfill-budget", 0);
    let jobs = jobs_strategy(8).generate(&mut rng);
    let noise = [(1, 0.0), (0, 0.0)];
    assert!(stream_moves_outside(build, declared, &jobs, &noise));
    // The declared set itself holds.
    assert!(!stream_moves_outside(build, build().reads(), &jobs, &noise));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Each policy, under each economic model, makes the same run
    /// whatever the fields outside its read set hold: perturbing them
    /// leaves the outcome stream bit-identical, node failures and
    /// repairs included.
    #[test]
    fn fields_outside_the_read_set_never_move_the_stream(
        jobs in jobs_strategy(8),
        noise in prop::collection::vec((any::<u8>(), 0.0f64..1e6), 1..25),
    ) {
        for econ in [EconomicModel::CommodityMarket, EconomicModel::BidBased] {
            for policy in every_policy(econ, 8) {
                let name = policy.name();
                let build = || {
                    every_policy(econ, 8)
                        .into_iter()
                        .find(|p| p.name() == name)
                        .expect("the policy is built again")
                };
                prop_assert!(
                    !stream_moves_outside(build, policy.reads(), &jobs, &noise),
                    "{} under {:?}",
                    name,
                    econ
                );
            }
        }
    }

    /// Space-shared policies never oversubscribe the machine.
    #[test]
    fn space_shared_capacity_safety(jobs in jobs_strategy(8)) {
        let nodes = 8;
        for order in [PriorityOrder::Fcfs, PriorityOrder::Sjf, PriorityOrder::Edf] {
            let p = BackfillPolicy::new(order, EconomicModel::BidBased, nodes);
            run_and_audit(Box::new(p), &jobs, nodes);
        }
        run_and_audit(
            Box::new(ConservativeBf::new(EconomicModel::BidBased, nodes)),
            &jobs,
            nodes,
        );
        run_and_audit(Box::new(FirstRewardPolicy::new(nodes)), &jobs, nodes);
    }

    /// Every policy emits exactly one decision per job, and accepted jobs
    /// start and complete exactly once.
    #[test]
    fn outcome_stream_discipline(jobs in jobs_strategy(8)) {
        let nodes = 8;
        let policies: Vec<Box<dyn Policy>> = vec![
            Box::new(BackfillPolicy::new(PriorityOrder::Fcfs, EconomicModel::BidBased, nodes)),
            Box::new(ConservativeBf::new(EconomicModel::BidBased, nodes)),
            Box::new(LibraPolicy::new(LibraVariant::Plain, EconomicModel::BidBased, nodes)),
            Box::new(FirstRewardPolicy::new(nodes)),
        ];
        let _ = nodes;
        for p in policies {
            let name = p.name();
            let out = run_policy(p, &jobs);
            for j in &jobs {
                let accepts = out.iter().filter(|o| matches!(o, Outcome::Accepted { job, .. } if *job == j.id)).count();
                let rejects = out.iter().filter(|o| matches!(o, Outcome::Rejected { job, .. } if *job == j.id)).count();
                let starts = out.iter().filter(|o| matches!(o, Outcome::Started { job, .. } if *job == j.id)).count();
                let completes = out.iter().filter(|o| matches!(o, Outcome::Completed { job, .. } if *job == j.id)).count();
                prop_assert_eq!(accepts + rejects, 1, "{}: job {} decisions", name, j.id);
                prop_assert_eq!(starts, accepts, "{}: job {} starts", name, j.id);
                prop_assert_eq!(completes, accepts, "{}: job {} completions", name, j.id);
            }
        }
    }

    /// FirstReward acceptance is monotone non-increasing in the slack
    /// threshold.
    #[test]
    fn first_reward_threshold_monotonicity(jobs in jobs_strategy(8), t1 in -1e5f64..1e5, t2 in -1e5f64..1e5) {
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        let accepted = |threshold: f64| {
            let p = FirstRewardPolicy::with_params(
                8,
                FirstRewardParams { slack_threshold: threshold, ..Default::default() },
            );
            let out = run_and_audit(Box::new(p), &jobs, 8);
            out.iter().filter(|o| matches!(o, Outcome::Accepted { .. })).count()
        };
        prop_assert!(accepted(lo) >= accepted(hi), "lenient threshold accepts no fewer");
    }

    /// Conservative backfilling with accurate estimates never breaks an
    /// accepted job's deadline (each reservation is deadline-checked).
    #[test]
    fn conservative_accurate_estimates_keep_promises(jobs in jobs_strategy(8)) {
        let accurate: Vec<Job> = jobs
            .iter()
            .map(|j| Job { estimate: j.runtime, ..*j })
            .collect();
        let p = ConservativeBf::new(EconomicModel::BidBased, 8);
        let out = run_and_audit(Box::new(p), &accurate, 8);
        for o in &out {
            if let Outcome::Completed { job, finish, .. } = o {
                let j = &accurate[*job as usize];
                prop_assert!(
                    *finish <= j.submit + j.deadline + 1e-6,
                    "job {} finished at {finish} past its deadline {}",
                    j.id,
                    j.submit + j.deadline
                );
            }
        }
    }
}
