//! A process that never switches telemetry on records nothing: hooks are
//! untaken branches and the global registry stays empty. This binary must
//! never call `ccs_telemetry::enable`.

use ccs_economy::EconomicModel;
use ccs_experiments::{EstimateSet, ExperimentConfig, GridRun, RawGrid};

/// One grid, run on its own.
fn one_grid(econ: EconomicModel, set: EstimateSet, cfg: &ExperimentConfig) -> RawGrid {
    GridRun::new(cfg).run(&[(econ, set)]).unwrap().remove(0)
}

#[test]
fn a_quick_grid_leaves_the_registry_empty() {
    let g = one_grid(
        EconomicModel::CommodityMarket,
        EstimateSet::A,
        &ExperimentConfig::quick().with_jobs(30),
    );
    assert!(g.errors.is_empty(), "{:?}", g.errors);
    assert!(!ccs_telemetry::enabled());
    let s = ccs_telemetry::snapshot();
    assert!(s.is_empty(), "telemetry recorded while off: {s:?}");
}
