//! Integration of the extension features: a-priori risk analysis, ablation
//! studies, diurnal workloads, and run timelines.

use ccs_economy::EconomicModel;
use ccs_experiments::ablation;
use ccs_experiments::{analyze, EstimateSet, ExperimentConfig, GridControl, GridRun, RawGrid};
use ccs_policies::PolicyKind;
use ccs_risk::apriori::{forecast, pareto_front, uniform_mix, weight_sensitivity};
use ccs_risk::{integrated_equal, RiskMeasure};
use ccs_simsvc::{simulate, Run, RunConfig, Timeline};
use ccs_workload::{
    apply_diurnal, apply_scenario, DiurnalProfile, ScenarioTransform, SdscSp2Model,
};

/// One grid, run on its own.
fn one_grid(econ: EconomicModel, set: EstimateSet, cfg: &ExperimentConfig) -> RawGrid {
    GridRun::new(cfg).run(&[(econ, set)]).unwrap().remove(0)
}

#[test]
fn apriori_pipeline_over_measured_grid() {
    let cfg = ExperimentConfig::quick().with_jobs(50);
    let analysis = analyze(&one_grid(EconomicModel::BidBased, EstimateSet::B, &cfg));

    // Forecast each policy's 4-objective risk under a uniform future mix.
    let mut integrated: Vec<RiskMeasure> = Vec::new();
    for (p, _) in analysis.policy_names.iter().enumerate() {
        let per_scenario: Vec<RiskMeasure> = analysis
            .separate
            .iter()
            .map(|row| integrated_equal(&row[p]))
            .collect();
        let f = forecast(&per_scenario, &uniform_mix(per_scenario.len()));
        assert!((0.0..=1.0).contains(&f.performance));
        assert!(f.volatility >= 0.0);
        integrated.push(f);
    }

    // The Pareto front is non-empty and contains the best performer.
    let front = pareto_front(&integrated);
    assert!(!front.is_empty());
    let best = integrated
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.performance.total_cmp(&b.1.performance))
        .unwrap()
        .0;
    assert!(front.contains(&best), "top performer must be on the front");

    // Weight sensitivity runs over the measured data without panicking and
    // covers the whole weight range.
    let policies: Vec<(String, Vec<RiskMeasure>)> = analysis
        .policy_names
        .iter()
        .enumerate()
        .map(|(p, name)| {
            let ms: Vec<RiskMeasure> = (0..4)
                .map(|oi| {
                    let pts: Vec<RiskMeasure> =
                        analysis.separate.iter().map(|row| row[p][oi]).collect();
                    forecast(&pts, &uniform_mix(pts.len()))
                })
                .collect();
            (name.clone(), ms)
        })
        .collect();
    let s = weight_sensitivity(&policies, 3, 11);
    assert_eq!(s.points.len(), 11);
    assert_eq!(s.points[0].weight, 0.0);
    assert_eq!(s.points[10].weight, 1.0);
}

#[test]
fn ablations_run_and_support_paper_claims() {
    let base = SdscSp2Model {
        jobs: 200,
        ..Default::default()
    }
    .generate(42);
    let studies = ablation::run_all(&base, 42, 128);
    assert_eq!(studies.len(), 8);
    for study in &studies {
        assert!(!study.rows.is_empty(), "{}", study.title);
        let text = study.render();
        assert!(text.contains(&study.title));
    }
    // The escalation ablation: switching the cascade off cannot reduce the
    // Libra family's reliability.
    let esc = &studies[2];
    let rel = |label: &str| {
        esc.rows
            .iter()
            .find(|r| r.label.contains(label))
            .unwrap()
            .metrics
            .reliability_pct()
    };
    assert!(rel("Libra (escalation off)") >= rel("Libra (escalation on)") - 1.0);
}

#[test]
fn diurnal_workload_feeds_the_simulator() {
    let base = SdscSp2Model {
        jobs: 150,
        ..Default::default()
    }
    .generate(9);
    let diurnal = apply_diurnal(&base, &DiurnalProfile::office_hours(6.0), 9);
    let jobs = apply_scenario(&diurnal, &ScenarioTransform::default(), 9);
    let cfg = RunConfig {
        nodes: 128,
        econ: EconomicModel::CommodityMarket,
    };
    let res = simulate(&jobs, PolicyKind::EdfBf, &cfg);
    assert_eq!(res.metrics.submitted as usize, jobs.len());
    assert!(res.metrics.fulfilled > 0);
}

#[test]
fn timeline_reflects_policy_structure() {
    let base = SdscSp2Model {
        jobs: 200,
        ..Default::default()
    }
    .generate(5);
    let jobs = apply_scenario(&base, &ScenarioTransform::default(), 5);
    let cfg = RunConfig {
        nodes: 128,
        econ: EconomicModel::BidBased,
    };

    // Libra admits at submission: the waiting series is identically zero.
    let libra = simulate(&jobs, PolicyKind::Libra, &cfg);
    let tl = Timeline::from_run(&jobs, &libra.records, cfg.nodes, 3600.0);
    assert_eq!(tl.peak_waiting(), 0, "Libra never queues accepted jobs");
    assert!(tl.mean_utilization() > 0.0);

    // FCFS-BF under load queues accepted jobs.
    let fcfs = simulate(&jobs, PolicyKind::FcfsBf, &cfg);
    let tl = Timeline::from_run(&jobs, &fcfs.records, cfg.nodes, 3600.0);
    assert!(
        tl.peak_waiting() > 0,
        "backfilling policies queue under load"
    );
}

#[test]
fn conservative_backfilling_full_pipeline() {
    let base = SdscSp2Model {
        jobs: 200,
        ..Default::default()
    }
    .generate(8);
    let jobs = apply_scenario(&base, &ScenarioTransform::default(), 8);
    let cfg = RunConfig {
        nodes: 128,
        econ: EconomicModel::CommodityMarket,
    };
    let cons = ccs_policies::ConservativeBf::new(cfg.econ, cfg.nodes);
    let res = Run::with_policy(&jobs, Box::new(cons), &cfg)
        .execute()
        .unwrap()
        .result;
    assert_eq!(res.metrics.submitted as usize, jobs.len());
    assert!(res.metrics.fulfilled > 0, "conservative completes work");
    // Same invariants as every other policy.
    assert!(res.metrics.fulfilled <= res.metrics.accepted);
    let st = res.ledger.statement();
    assert_eq!(st.invoices as u32, res.metrics.submitted);
}

#[test]
fn car_analysis_over_simulated_runs() {
    use ccs_risk::car::{analyze, CarMetric};
    use ccs_simsvc::samples::{response_times, slowdowns};

    let base = SdscSp2Model {
        jobs: 300,
        ..Default::default()
    }
    .generate(2);
    let jobs = apply_scenario(&base, &ScenarioTransform::default(), 2);
    let cfg = RunConfig {
        nodes: 128,
        econ: EconomicModel::BidBased,
    };
    // Compare a queueing policy against the no-wait Libra family: the
    // queueing policy must show a heavier makespan tail.
    let edf = simulate(&jobs, PolicyKind::EdfBf, &cfg);
    let libra = simulate(&jobs, PolicyKind::Libra, &cfg);
    let edf_rt = response_times(&jobs, &edf.records);
    let libra_rt = response_times(&jobs, &libra.records);
    let a_edf = analyze(CarMetric::Makespan, &edf_rt);
    let a_libra = analyze(CarMetric::Makespan, &libra_rt);
    assert!(
        a_edf.car95 >= a_libra.median,
        "queueing has the longer tail"
    );
    let sd = slowdowns(&jobs, &edf.records);
    let a_sd = analyze(CarMetric::Slowdown, &sd);
    assert!(a_sd.median >= 1.0 - 1e-9);
    assert!(a_sd.car99 >= a_sd.car90);
}

#[test]
fn bootstrap_intervals_on_measured_results() {
    use ccs_risk::bootstrap::bootstrap_separate;
    use ccs_risk::normalize::normalize;
    use ccs_risk::Objective;

    let base = SdscSp2Model {
        jobs: 100,
        ..Default::default()
    }
    .generate(2);
    let cfg = RunConfig {
        nodes: 128,
        econ: EconomicModel::CommodityMarket,
    };
    // Six workload levels -> six SLA results for one policy, normalized
    // against a second policy at each point.
    let mut normalized = Vec::new();
    for factor in [0.02, 0.1, 0.25, 0.5, 0.75, 1.0] {
        let jobs = apply_scenario(
            &base,
            &ScenarioTransform {
                arrival_delay_factor: factor,
                ..Default::default()
            },
            2,
        );
        let a = simulate(&jobs, PolicyKind::SjfBf, &cfg).metrics.sla_pct();
        let b = simulate(&jobs, PolicyKind::FcfsBf, &cfg).metrics.sla_pct();
        normalized.push(normalize(Objective::Sla, &[a, b])[0]);
    }
    let boot = bootstrap_separate(&normalized, 0.95, 500, 42);
    assert!(boot.performance.contains(boot.point.performance));
    assert!(boot.performance.lo >= 0.0 && boot.performance.hi <= 1.0);
}

#[test]
fn markdown_report_generation() {
    let cfg = ExperimentConfig::quick().with_jobs(40);
    let ev = ccs_experiments::run_evaluation(&cfg, &GridControl::default()).unwrap();
    let report = ccs_experiments::report_md::evaluation_report(&ev);
    assert!(report.starts_with("# Risk-analysis study report"));
    assert!(report.contains("| Rank | Policy |"));
}
