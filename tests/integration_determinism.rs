//! Reproducibility guarantees: the entire stack is a pure function of
//! (configuration, seed), across thread counts and repeated runs.

use ccs_economy::EconomicModel;
use ccs_experiments::{analyze, EstimateSet, ExperimentConfig, GridRun, RawGrid};
use ccs_workload::{apply_scenario, ScenarioTransform, SdscSp2Model};

/// One grid, run on its own.
fn one_grid(econ: EconomicModel, set: EstimateSet, cfg: &ExperimentConfig) -> RawGrid {
    GridRun::new(cfg).run(&[(econ, set)]).unwrap().remove(0)
}

#[test]
fn trace_generation_bit_identical() {
    let m = SdscSp2Model {
        jobs: 300,
        ..Default::default()
    };
    assert_eq!(m.generate(123), m.generate(123));
}

#[test]
fn scenario_annotation_bit_identical() {
    let base = SdscSp2Model {
        jobs: 100,
        ..Default::default()
    }
    .generate(5);
    let t = ScenarioTransform::default();
    let a = apply_scenario(&base, &t, 77);
    let b = apply_scenario(&base, &t, 77);
    assert_eq!(a, b);
}

#[test]
fn grid_identical_across_thread_counts() {
    let mk = |threads| ExperimentConfig {
        threads,
        ..ExperimentConfig::quick().with_jobs(40)
    };
    let g1 = one_grid(EconomicModel::BidBased, EstimateSet::B, &mk(1));
    let g3 = one_grid(EconomicModel::BidBased, EstimateSet::B, &mk(3));
    let g8 = one_grid(EconomicModel::BidBased, EstimateSet::B, &mk(8));
    assert_eq!(g1.raw, g3.raw);
    assert_eq!(g1.raw, g8.raw);
}

#[test]
fn analysis_is_deterministic() {
    let cfg = ExperimentConfig::quick().with_jobs(40);
    let a = analyze(&one_grid(
        EconomicModel::CommodityMarket,
        EstimateSet::A,
        &cfg,
    ));
    let b = analyze(&one_grid(
        EconomicModel::CommodityMarket,
        EstimateSet::A,
        &cfg,
    ));
    for (ra, rb) in a.separate.iter().zip(&b.separate) {
        for (pa, pb) in ra.iter().zip(rb) {
            for (ma, mb) in pa.iter().zip(pb) {
                assert_eq!(ma.performance, mb.performance);
                assert_eq!(ma.volatility, mb.volatility);
            }
        }
    }
}

#[test]
fn different_seeds_differ() {
    let a = ExperimentConfig {
        seed: 1,
        ..ExperimentConfig::quick().with_jobs(60)
    };
    let b = ExperimentConfig {
        seed: 2,
        ..ExperimentConfig::quick().with_jobs(60)
    };
    let ga = one_grid(EconomicModel::CommodityMarket, EstimateSet::A, &a);
    let gb = one_grid(EconomicModel::CommodityMarket, EstimateSet::A, &b);
    assert_ne!(ga.raw, gb.raw, "seed must matter");
}
