//! Property-based tests of the workload pipeline.

use ccs_workload::swf::{parse, to_base_jobs, write, SwfRecord};
use ccs_workload::{
    apply_scenario, FactorSpec, JobFields, QosConfig, ScenarioTransform, SdscSp2Model,
};
use proptest::prelude::*;

fn record_strategy() -> impl Strategy<Value = SwfRecord> {
    (
        1i64..100_000,
        0.0f64..1e7,
        (1.0f64..1e5, 1i64..129, 1.0f64..1e5),
    )
        .prop_map(
            |(job_number, submit, (runtime, procs, req_time))| SwfRecord {
                job_number,
                submit,
                wait: 0.0,
                runtime,
                used_procs: procs,
                avg_cpu: -1.0,
                used_mem: -1.0,
                req_procs: procs,
                req_time,
                req_mem: -1.0,
                status: 1,
                uid: 1,
                gid: 1,
                exe: 1,
                queue: 1,
                partition: 1,
                preceding: -1,
                think_time: -1.0,
            },
        )
}

proptest! {
    /// SWF write → parse is lossless for any record set.
    #[test]
    fn swf_round_trip(records in prop::collection::vec(record_strategy(), 0..50)) {
        let text = write(&records);
        let parsed = parse(&text).unwrap();
        prop_assert_eq!(records, parsed);
    }

    /// Conversion to base jobs always yields sorted, rebased, dense output.
    #[test]
    fn base_jobs_well_formed(records in prop::collection::vec(record_strategy(), 1..60)) {
        let jobs = to_base_jobs(&records, 128, None);
        if let Some(first) = jobs.first() {
            prop_assert_eq!(first.submit, 0.0);
        }
        for (i, w) in jobs.windows(2).enumerate() {
            let _ = i;
            prop_assert!(w[1].submit >= w[0].submit);
        }
        for (i, j) in jobs.iter().enumerate() {
            prop_assert_eq!(j.id as usize, i);
            prop_assert!(j.runtime > 0.0);
            prop_assert!(j.procs >= 1 && j.procs <= 128);
        }
    }

    /// QoS annotation always produces physically sensible jobs, for any
    /// scenario parameters in Table VI's ranges.
    #[test]
    fn scenario_outputs_sane(
        seed in any::<u64>(),
        pct_high in 0.0f64..100.0,
        bias in 1.0f64..10.0,
        ratio in 1.0f64..10.0,
        low_mean in 1.0f64..10.0,
        arrival in 0.02f64..1.0,
        inaccuracy in 0.0f64..100.0,
    ) {
        let base = SdscSp2Model { jobs: 30, ..Default::default() }.generate(seed);
        let mut qos = QosConfig {
            pct_high_urgency: pct_high,
            ..Default::default()
        };
        qos.deadline.bias = bias;
        qos.budget.high_low_ratio = ratio;
        qos.penalty.low_mean = low_mean;
        let t = ScenarioTransform {
            qos,
            arrival_delay_factor: arrival,
            inaccuracy_pct: inaccuracy,
        };
        let jobs = apply_scenario(&base, &t, seed);
        prop_assert_eq!(jobs.len(), base.len());
        let mut prev = f64::NEG_INFINITY;
        for j in &jobs {
            prop_assert!(j.submit >= prev, "arrivals sorted");
            prev = j.submit;
            prop_assert!(j.runtime > 0.0);
            prop_assert!(j.estimate >= 1.0);
            prop_assert!(j.deadline > 0.0);
            prop_assert!(j.budget > 0.0);
            prop_assert!(j.penalty_rate > 0.0);
            prop_assert!(j.procs >= 1 && j.procs <= 128);
        }
    }

    /// The estimate under inaccuracy x% always lies between the runtime and
    /// the trace estimate (monotone interpolation).
    #[test]
    fn estimate_interpolation_bounded(seed in any::<u64>(), x in 0.0f64..100.0) {
        let base = SdscSp2Model { jobs: 20, ..Default::default() }.generate(seed);
        let t = ScenarioTransform { inaccuracy_pct: x, ..Default::default() };
        let jobs = apply_scenario(&base, &t, seed);
        for (j, b) in jobs.iter().zip(&base) {
            let lo = b.runtime.min(b.trace_estimate).max(1.0) - 1e-9;
            let hi = b.runtime.max(b.trace_estimate) + 1e-9;
            prop_assert!(j.estimate >= lo && j.estimate <= hi,
                "estimate {} outside [{lo}, {hi}]", j.estimate);
        }
    }

    /// Urgency classes see the right side of the deadline/budget split on
    /// average (statistical, so use a fixed large sample per case).
    #[test]
    fn urgency_split_direction(seed in 0u64..1000) {
        let base = SdscSp2Model { jobs: 400, ..Default::default() }.generate(seed);
        let t = ScenarioTransform {
            qos: QosConfig { pct_high_urgency: 50.0, ..Default::default() },
            ..Default::default()
        };
        let jobs = apply_scenario(&base, &t, seed);
        let mean = |hi: bool, f: &dyn Fn(&ccs_workload::Job) -> f64| {
            let v: Vec<f64> = jobs
                .iter()
                .filter(|j| (j.urgency == ccs_workload::Urgency::High) == hi)
                .map(f)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        prop_assert!(mean(true, &|j| j.deadline / j.runtime) < mean(false, &|j| j.deadline / j.runtime));
        prop_assert!(mean(true, &|j| j.budget / j.work().max(1.0)) > mean(false, &|j| j.budget / j.work().max(1.0)));
    }

    /// Projecting a transform onto a read set changes no field in the set:
    /// for every read set that keeps the trace fields and drops any of
    /// urgency, deadline, budget and penalty rate — every set a policy
    /// declares among them — the projected workload equals the original
    /// on each read field, bit for bit.
    #[test]
    fn projection_keeps_every_read_field(
        seed in any::<u64>(),
        dropped in 0usize..16,
        pct in 0.0f64..100.0,
        specs in prop::collection::vec((0.5f64..12.0, 1.0f64..10.0, 1.0f64..10.0, 0.05f64..1.5), 3),
        arrival in 0.02f64..1.0,
        inaccuracy in 0.0f64..100.0,
    ) {
        let qos_fields = [
            JobFields::URGENCY,
            JobFields::DEADLINE,
            JobFields::BUDGET,
            JobFields::PENALTY_RATE,
        ];
        let reads = qos_fields
            .iter()
            .enumerate()
            .filter(|&(i, _)| dropped & (1 << i) != 0)
            .fold(JobFields::ALL, |set, (_, &f)| set.without(f));
        let spec = |(low_mean, high_low_ratio, bias, cv)| FactorSpec { low_mean, high_low_ratio, bias, cv };
        let t = ScenarioTransform {
            qos: QosConfig {
                pct_high_urgency: pct,
                deadline: spec(specs[0]),
                budget: spec(specs[1]),
                penalty: spec(specs[2]),
            },
            arrival_delay_factor: arrival,
            inaccuracy_pct: inaccuracy,
        };
        let base = SdscSp2Model { jobs: 60, ..Default::default() }.generate(seed);
        let jobs = apply_scenario(&base, &t, seed);
        let projected = apply_scenario(&base, &t.project(reads), seed);
        prop_assert_eq!(jobs.len(), projected.len());
        for (a, b) in jobs.iter().zip(&projected) {
            prop_assert_eq!(reads.first_difference(a, b), None, "job {}", a.id);
        }
    }
}
