//! Extending the library: write your own resource-management policy and
//! evaluate it with the same simulator and risk analysis as the built-ins.
//!
//! The custom policy here is "GreedyValue": space-shared, no backfilling,
//! accepts everything whose deadline is feasible, and always runs the
//! queued job with the highest budget-per-processor-second.
//!
//! ```sh
//! cargo run --release -p ccs-experiments --example custom_policy
//! ```

use ccs_cluster::SpaceShared;
use ccs_des::{EventQueue, SimTime};
use ccs_economy::EconomicModel;
use ccs_policies::{Outcome, Policy, PolicyKind, RejectReason};
use ccs_simsvc::{simulate, Run, RunConfig};
use ccs_workload::{apply_scenario, Job, JobId, ScenarioTransform, SdscSp2Model};
use std::collections::HashMap;

/// Highest-value-first, space-shared, no admission control beyond deadline
/// feasibility. Deliberately naive — the point is the trait, not the policy.
struct GreedyValue {
    cluster: SpaceShared,
    queue: Vec<Job>,
    running: HashMap<JobId, f64>, // start times
    completions: EventQueue<JobId>,
}

impl GreedyValue {
    fn new(nodes: u32) -> Self {
        GreedyValue {
            cluster: SpaceShared::new(nodes),
            queue: Vec::new(),
            running: HashMap::new(),
            completions: EventQueue::new(),
        }
    }

    fn value_density(job: &Job) -> f64 {
        job.budget / (job.estimate * job.procs as f64).max(1.0)
    }

    fn try_start(&mut self, now: f64, out: &mut Vec<Outcome>) {
        loop {
            self.queue
                .sort_by(|a, b| Self::value_density(b).total_cmp(&Self::value_density(a)));
            // Drop jobs whose deadline can no longer be met.
            while let Some(head) = self.queue.first() {
                if now + head.estimate > head.absolute_deadline() {
                    let j = self.queue.remove(0);
                    out.push(Outcome::Rejected {
                        job: j.id,
                        at: now,
                        reason: RejectReason::EstimateExceedsDeadline,
                    });
                } else {
                    break;
                }
            }
            match self.queue.first() {
                Some(head) if head.procs <= self.cluster.free_procs() => {
                    let job = self.queue.remove(0);
                    self.cluster.start(job.id, job.procs, now + job.estimate);
                    self.completions
                        .push(SimTime::new(now + job.runtime), job.id);
                    out.push(Outcome::Accepted {
                        job: job.id,
                        at: now,
                    });
                    out.push(Outcome::Started {
                        job: job.id,
                        at: now,
                    });
                    self.running.insert(job.id, now);
                }
                _ => return,
            }
        }
    }
}

impl Policy for GreedyValue {
    fn name(&self) -> &'static str {
        "GreedyValue"
    }

    fn on_submit(&mut self, job: &Job, now: f64, out: &mut Vec<Outcome>) {
        self.queue.push(*job);
        self.try_start(now, out);
    }

    fn next_event_time(&mut self) -> Option<f64> {
        self.completions.peek_time().map(|t| t.as_secs())
    }

    fn advance_to(&mut self, t: f64, out: &mut Vec<Outcome>) {
        while let Some(et) = self.completions.peek_time() {
            if et.as_secs() > t {
                break;
            }
            let (et, id) = self.completions.pop().unwrap();
            let start = self.running.remove(&id).expect("unknown completion");
            self.cluster.finish(id);
            out.push(Outcome::Completed {
                job: id,
                start,
                finish: et.as_secs(),
                charged: None,
            });
            self.try_start(et.as_secs(), out);
        }
    }

    fn drain(&mut self, out: &mut Vec<Outcome>) {
        self.advance_to(f64::INFINITY, out);
    }
}

fn main() {
    let base = SdscSp2Model {
        jobs: 1200,
        ..Default::default()
    }
    .generate(99);
    let jobs = apply_scenario(&base, &ScenarioTransform::default(), 99);
    let cfg = RunConfig {
        nodes: 128,
        econ: EconomicModel::BidBased,
    };

    println!(
        "{:<12} {:>8} {:>10} {:>13} {:>10}",
        "policy", "SLA %", "wait (s)", "reliability %", "profit %"
    );
    // The custom policy, driven by the standard runner with every
    // invariant checked...
    let custom = Run::with_policy(&jobs, Box::new(GreedyValue::new(128)), &cfg)
        .check()
        .execute()
        .expect("the workload is sorted by submit time");
    assert!(custom.violations.is_empty(), "{:?}", custom.violations);
    let [w, s, r, p] = custom.result.metrics.objectives();
    println!(
        "{:<12} {:>8.1} {:>10.0} {:>13.1} {:>10.1}",
        "GreedyValue", s, w, r, p
    );

    // ...side by side with the paper's bid-based policies.
    for kind in PolicyKind::BID_BASED {
        let res = simulate(&jobs, kind, &cfg);
        let [w, s, r, p] = res.metrics.objectives();
        println!(
            "{:<12} {:>8.1} {:>10.0} {:>13.1} {:>10.1}",
            kind.name(),
            s,
            w,
            r,
            p
        );
    }
    println!(
        "\nAny type implementing ccs_policies::Policy plugs into \
         ccs_simsvc::Run::with_policy (with faults, budgets, observers, \
         traces and invariant checks) and the full risk-analysis pipeline."
    );
}
