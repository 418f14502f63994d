//! Property-based tests of the cluster engines.

use ccs_cluster::{PsCluster, SpaceShared};
use ccs_workload::{Job, Urgency};
use proptest::prelude::*;

fn job(id: u32, submit: f64, runtime: f64, estimate: f64, deadline: f64, procs: u32) -> Job {
    Job {
        id,
        submit,
        runtime,
        estimate,
        procs,
        urgency: Urgency::Low,
        deadline,
        budget: 1.0,
        penalty_rate: 1.0,
    }
}

/// Strategy: a batch of jobs with staggered arrivals and varying shapes.
fn jobs_strategy(nodes: u32) -> impl Strategy<Value = Vec<Job>> {
    prop::collection::vec(
        (
            0.0f64..1000.0, // submit offset
            10.0f64..500.0, // runtime
            0.2f64..4.0,    // estimate factor
            1.5f64..20.0,   // deadline factor
            1u32..=8,       // procs
        ),
        1..30,
    )
    .prop_map(move |raw| {
        let mut t = 0.0;
        raw.iter()
            .enumerate()
            .map(|(i, &(dt, rt, ef, df, procs))| {
                t += dt;
                job(
                    i as u32,
                    t,
                    rt,
                    (rt * ef).max(1.0),
                    rt * df,
                    procs.min(nodes),
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every task submitted to the PS engine completes, no job finishes
    /// faster than its runtime (rate ≤ 1), and completions are in order.
    #[test]
    fn ps_engine_conserves_work(jobs in jobs_strategy(4)) {
        let mut c = PsCluster::new(4);
        let mut submitted = 0usize;
        let mut done = Vec::new();
        for j in &jobs {
            done.extend(c.advance_to(j.submit));
            // Round-robin placement over the first `procs` nodes.
            let nodes: Vec<usize> = (0..j.procs as usize).collect();
            c.submit(j, &nodes, j.submit);
            submitted += 1;
        }
        done.extend(c.drain());
        prop_assert_eq!(done.len(), submitted, "every job completes");
        prop_assert_eq!(c.open_jobs(), 0);
        let mut prev = f64::NEG_INFINITY;
        for d in &done {
            prop_assert!(d.finish >= prev, "completion order");
            prev = d.finish;
            let j = &jobs[d.job_id as usize];
            prop_assert!(
                d.finish >= j.submit + j.runtime - 1e-6,
                "job {} finished at {} before physically possible {}",
                d.job_id, d.finish, j.submit + j.runtime
            );
        }
    }

    /// A lone job on an idle cluster always runs at full speed and, if its
    /// deadline is feasible, meets it.
    #[test]
    fn ps_lone_job_full_speed(rt in 10.0f64..5000.0, df in 1.1f64..20.0, procs in 1u32..=4) {
        let mut c = PsCluster::new(4);
        let j = job(0, 0.0, rt, rt, rt * df, procs);
        let nodes: Vec<usize> = (0..procs as usize).collect();
        c.submit(&j, &nodes, 0.0);
        let done = c.drain();
        prop_assert!((done[0].finish - rt).abs() < 1e-6);
    }

    /// free_share never exceeds 1 and decreases when a task is added (at
    /// submission each weight is its admitted share).
    #[test]
    fn ps_free_share_bounds(shares in prop::collection::vec(0.05f64..0.3, 1..6)) {
        let mut c = PsCluster::new(1);
        let mut prev_free = c.free_share(0, 0.0);
        prop_assert!((prev_free - 1.0).abs() < 1e-12);
        for (i, &s) in shares.iter().enumerate() {
            // runtime = estimate = s * deadline => admitted share s.
            let d = 1000.0;
            let j = job(i as u32, 0.0, s * d, s * d, d, 1);
            c.submit(&j, &[0], 0.0);
            let free = c.free_share(0, 0.0);
            prop_assert!(free <= prev_free + 1e-9, "share must shrink");
            prop_assert!(free <= 1.0 + 1e-9);
            prev_free = free;
        }
    }

    /// Space-shared occupancy accounting is exact under arbitrary
    /// start/finish interleavings.
    #[test]
    fn space_shared_occupancy(ops in prop::collection::vec((1u32..=16, any::<bool>()), 1..60)) {
        let mut c = SpaceShared::new(64);
        let mut live: Vec<(u32, u32)> = Vec::new(); // (job, procs)
        let mut next_id = 0u32;
        let mut used = 0u32;
        for (procs, finish_one) in ops {
            if finish_one && !live.is_empty() {
                let (id, p) = live.remove(0);
                c.finish(id);
                used -= p;
            } else if used + procs <= 64 {
                c.start(next_id, procs, 100.0);
                live.push((next_id, procs));
                used += procs;
                next_id += 1;
            }
            prop_assert_eq!(c.free_procs(), 64 - used);
            prop_assert_eq!(c.running_jobs(), live.len());
        }
    }

    /// The EASY reservation is consistent: at the shadow time, at least the
    /// requested processors are predicted free, and the shadow time is never
    /// before `now`.
    #[test]
    fn reservation_consistency(
        widths in prop::collection::vec((1u32..=16, 1.0f64..100.0), 0..10),
        need in 1u32..=32,
        now in 0.0f64..50.0,
    ) {
        let mut c = SpaceShared::new(32);
        let mut used = 0;
        for (i, &(p, fin)) in widths.iter().enumerate() {
            if used + p <= 32 {
                c.start(i as u32, p, fin);
                used += p;
            }
        }
        let r = c.reservation(need, now);
        prop_assert!(r.shadow_time >= now);
        prop_assert!(r.extra_procs <= 32 - need);
        if need <= c.free_procs() {
            prop_assert_eq!(r.shadow_time, now);
        }
    }
}

/// One random operation against a [`SpaceShared`] pool with fault
/// injection: allocate, release, fail a processor, or repair one.
fn ops_strategy() -> impl Strategy<Value = Vec<(u8, u32)>> {
    prop::collection::vec((0u8..4, 1u32..5), 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Capacity conservation under arbitrary fail/repair/allocate/release
    /// interleavings: after every operation, free + running == total, total
    /// never exceeds the nominal base, and `down` accounts for the rest.
    #[test]
    fn space_shared_conserves_capacity_under_faults(ops in ops_strategy()) {
        let base = 16u32;
        let mut c = SpaceShared::new(base);
        let mut next_id: u32 = 0;
        let mut running: Vec<(u32, u32)> = Vec::new(); // (job id, procs)
        for (op, arg) in ops {
            match op {
                0 => {
                    // Allocate, when it fits.
                    let procs = arg.min(c.free_procs());
                    if procs > 0 {
                        c.start(next_id, procs, f64::from(next_id) + 10.0);
                        running.push((next_id, procs));
                        next_id += 1;
                    }
                }
                1 => {
                    // Release an arbitrary running job.
                    if !running.is_empty() {
                        let (id, _) = running.swap_remove(arg as usize % running.len());
                        c.finish(id);
                    }
                }
                2 => {
                    // Fail one processor; a preempted victim leaves the
                    // model's running set too.
                    match c.fail_one() {
                        Ok(Some(victim)) => {
                            let before = running.len();
                            running.retain(|&(id, _)| id != victim);
                            prop_assert_eq!(before, running.len() + 1,
                                "victim {} must have been running exactly once", victim);
                        }
                        Ok(None) => {}
                        Err(()) => prop_assert_eq!(c.total(), 0),
                    }
                }
                _ => c.repair_one(),
            }
            // The conservation invariant, after every single step.
            let occupied: u32 = running.iter().map(|&(_, p)| p).sum();
            prop_assert_eq!(c.free_procs() + occupied, c.total());
            prop_assert!(c.total() <= base);
            prop_assert_eq!(c.down(), base - c.total());
            prop_assert_eq!(c.running_jobs(), running.len());
        }
    }
}
