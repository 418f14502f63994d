//! Byte-identity snapshot of the quick-grid objectives.
//!
//! The perf work in the simulation core (allocation-free event loop,
//! incremental PS recompute, admission-profile caching, workload
//! memoisation) is only safe because it must not change a single output
//! byte. This test pins that contract: it hashes the raw `f64` bit
//! patterns of two full quick grids (one per economic model, both
//! estimate sets) against constants captured before the optimisation
//! landed. Any rounding, reordering, or RNG drift — however small —
//! changes the hash.

use ccs_economy::EconomicModel;
use ccs_experiments::grid::{ExperimentConfig, GridRun, RawGrid};
use ccs_experiments::scenario::EstimateSet;

/// One grid, run on its own.
fn one_grid(econ: EconomicModel, set: EstimateSet, cfg: &ExperimentConfig) -> RawGrid {
    GridRun::new(cfg).run(&[(econ, set)]).unwrap().remove(0)
}

/// FNV-1a over the raw bit patterns of every objective in the grid, in
/// deterministic (scenario, value, policy, objective) order.
fn grid_hash(g: &RawGrid) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bits: u64| {
        for byte in bits.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for per_value in &g.raw {
        for per_policy in per_value {
            for cell in per_policy {
                for &obj in cell {
                    mix(obj.to_bits());
                }
            }
        }
    }
    h
}

fn quick_cfg() -> ExperimentConfig {
    ExperimentConfig {
        threads: 2,
        ..ExperimentConfig::quick().with_jobs(60)
    }
}

/// Captured from the pre-optimisation tree (seed 42, 60 jobs, 128 nodes).
/// If either constant changes, an optimisation altered simulation output
/// and must be reworked, not re-recorded.
const COMMODITY_A_HASH: u64 = 0x3435_67de_3d8c_a87e;
const BID_B_HASH: u64 = 0xf474_0ef8_0f16_9de3;

#[test]
fn commodity_set_a_quick_grid_is_byte_identical_to_pre_perf_snapshot() {
    let g = one_grid(EconomicModel::CommodityMarket, EstimateSet::A, &quick_cfg());
    assert!(g.errors.is_empty());
    let h = grid_hash(&g);
    assert_eq!(
        h, COMMODITY_A_HASH,
        "commodity/A quick grid drifted: got {h:#018x}"
    );
}

#[test]
fn bid_set_b_quick_grid_is_byte_identical_to_pre_perf_snapshot() {
    let g = one_grid(EconomicModel::BidBased, EstimateSet::B, &quick_cfg());
    assert!(g.errors.is_empty());
    let h = grid_hash(&g);
    assert_eq!(h, BID_B_HASH, "bid/B quick grid drifted: got {h:#018x}");
}
