//! End-to-end pipeline: synthetic trace → scenario transform → service
//! simulation → separate/integrated risk analysis → plots.

use ccs_economy::EconomicModel;
use ccs_experiments::{analyze, EstimateSet, ExperimentConfig, GridRun, RawGrid, Scenario};
use ccs_risk::{Objective, RankBy};
use ccs_simsvc::{simulate, RunConfig};
use ccs_workload::{apply_scenario, ScenarioTransform, SdscSp2Model, WorkloadSummary};

/// One grid, run on its own.
fn one_grid(econ: EconomicModel, set: EstimateSet, cfg: &ExperimentConfig) -> RawGrid {
    GridRun::new(cfg).run(&[(econ, set)]).unwrap().remove(0)
}

#[test]
fn trace_to_metrics_to_risk() {
    let base = SdscSp2Model {
        jobs: 120,
        ..Default::default()
    }
    .generate(7);
    let jobs = apply_scenario(&base, &ScenarioTransform::default(), 7);
    let summary = WorkloadSummary::compute(&jobs, 128);
    assert_eq!(summary.jobs, 120);
    assert!(summary.offered_load > 0.0);

    let cfg = RunConfig {
        nodes: 128,
        econ: EconomicModel::BidBased,
    };
    let res = simulate(&jobs, ccs_policies::PolicyKind::Libra, &cfg);
    let [wait, sla, rel, prof] = res.metrics.objectives();
    assert!(wait >= 0.0 && sla <= 100.0 && rel <= 100.0 && prof <= 100.0);

    // One normalized scenario sweep through the risk pipeline.
    let raw = [sla, 50.0, 75.0];
    let norm = ccs_risk::normalize::normalize(Objective::Sla, &raw);
    let sep = ccs_risk::separate(&norm);
    assert!((0.0..=1.0).contains(&sep.performance));
}

#[test]
fn quick_grid_supports_all_figure_views() {
    let cfg = ExperimentConfig::quick().with_jobs(50);
    let grid = one_grid(EconomicModel::CommodityMarket, EstimateSet::A, &cfg);
    assert_eq!(grid.raw.len(), Scenario::ALL.len());
    let analysis = analyze(&grid);

    // Separate plot per objective, integrated over triples and all four.
    for obj in Objective::ALL {
        let plot = analysis.separate_plot(obj);
        assert_eq!(plot.series.len(), 5);
        assert!(plot.title.contains(obj.abbrev()));
    }
    for (_omitted, triple) in Objective::triples() {
        let plot = analysis.integrated_plot(&triple);
        assert_eq!(plot.series[0].points.len(), 13);
        // Rankings are computable on every integrated plot.
        let rows = ccs_risk::rank(&plot, RankBy::BestPerformance);
        assert_eq!(rows.len(), 5);
    }
}

#[test]
fn swf_export_reimport_preserves_simulation() {
    // Export the synthetic workload as SWF, re-import it, and verify the
    // simulation outcome is identical — the dual of trace portability.
    let base = SdscSp2Model {
        jobs: 80,
        ..Default::default()
    }
    .generate(3);
    let records: Vec<ccs_workload::swf::SwfRecord> = base
        .iter()
        .map(|b| ccs_workload::swf::SwfRecord {
            job_number: b.id as i64 + 1,
            submit: b.submit,
            wait: -1.0,
            runtime: b.runtime,
            used_procs: b.procs as i64,
            avg_cpu: -1.0,
            used_mem: -1.0,
            req_procs: b.procs as i64,
            req_time: b.trace_estimate,
            req_mem: -1.0,
            status: 1,
            uid: 1,
            gid: 1,
            exe: 1,
            queue: 1,
            partition: 1,
            preceding: -1,
            think_time: -1.0,
        })
        .collect();
    let text = ccs_workload::swf::write(&records);
    let reparsed = ccs_workload::swf::parse(&text).unwrap();
    let reimported = ccs_workload::swf::to_base_jobs(&reparsed, 128, None);
    assert_eq!(reimported.len(), base.len());

    let t = ScenarioTransform::default();
    let jobs_a = apply_scenario(&base, &t, 9);
    let jobs_b = apply_scenario(&reimported, &t, 9);
    let cfg = RunConfig {
        nodes: 128,
        econ: EconomicModel::CommodityMarket,
    };
    let ra = simulate(&jobs_a, ccs_policies::PolicyKind::SjfBf, &cfg);
    let rb = simulate(&jobs_b, ccs_policies::PolicyKind::SjfBf, &cfg);
    assert_eq!(ra.metrics.fulfilled, rb.metrics.fulfilled);
    assert_eq!(ra.metrics.accepted, rb.metrics.accepted);
}
