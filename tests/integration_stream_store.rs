//! Cross-crate integration tests for the columnar result store: it must
//! answer queries over a finished grid, and over chaos findings, without
//! touching any other artifact.

use ccs_chaos::{ChaosCase, SoakFinding, SoakReport};
use ccs_economy::EconomicModel;
use ccs_experiments::{
    run_evaluation, EstimateSet, ExperimentConfig, GridControl, Query, ResultStore, Scenario,
    STORE_FILE,
};

fn quick_cfg() -> ExperimentConfig {
    ExperimentConfig {
        threads: 2,
        ..ExperimentConfig::quick().with_jobs(40)
    }
}

/// The store answers the figure-level question "which policy is riskiest
/// where?" over a finished evaluation — with row counts, filters, and
/// group sizes all consistent — and round-trips through disk.
#[test]
fn store_round_trips_and_answers_queries() {
    let cfg = quick_cfg();
    let ev = run_evaluation(&cfg, &GridControl::default()).unwrap();
    let store = ResultStore::from_evaluation(&ev, &cfg);
    let cells = Scenario::ALL.len() * 6 * 5;
    assert_eq!(store.len(), cells * 4, "one row per cell per grid");

    let dir = std::env::temp_dir().join("ccs_integration_store");
    let _ = std::fs::remove_dir_all(&dir);
    let path = store.save(&dir).unwrap();
    assert_eq!(path.file_name().unwrap(), STORE_FILE);
    let loaded = ResultStore::load(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);

    // Filter down to one (econ, set, policy) slice.
    let q = Query {
        econ: Some(EconomicModel::BidBased),
        set: Some(EstimateSet::B),
        policy: Some("Libra".to_string()),
        ..Default::default()
    };
    assert_eq!(
        loaded.query(&q).unwrap().rows.len(),
        Scenario::ALL.len() * 6
    );

    // Summarize reproduces the separate-analysis group shape: one group
    // per scenario × policy, each over the six sweep values.
    let q = Query {
        econ: Some(EconomicModel::CommodityMarket),
        set: Some(EstimateSet::A),
        summarize: true,
        ..Default::default()
    };
    let res = loaded.query(&q).unwrap();
    assert_eq!(res.rows.len(), Scenario::ALL.len() * 5);
    let n_col = res.header.iter().position(|h| h == "norm_score_n").unwrap();
    assert!(res.rows.iter().all(|r| r[n_col] == "6"));

    // Sorting by risk_score descending is monotone.
    let q = Query {
        select: vec!["risk_score".into()],
        sort_by: Some("risk_score".into()),
        descending: true,
        ..Default::default()
    };
    let scores: Vec<f64> = loaded
        .query(&q)
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].parse().unwrap())
        .collect();
    assert!(scores.windows(2).all(|w| w[0] >= w[1]));
}

/// Chaos-soak findings append as queryable chaos-source rows next to (and
/// filterable apart from) grid rows.
#[test]
fn chaos_findings_are_queryable_store_rows() {
    let cfg = quick_cfg();
    let ev = run_evaluation(&cfg, &GridControl::default()).unwrap();
    let mut store = ResultStore::from_evaluation(&ev, &cfg);
    let grid_rows = store.len();

    let case = ChaosCase::generate(99);
    let report = SoakReport {
        rounds: 2,
        clean: 1,
        events: 1234,
        findings: vec![SoakFinding {
            round: 1,
            signature: "violation:capacity_respected".to_string(),
            detail: "node over capacity".to_string(),
            case: case.clone(),
            minimized: case,
        }],
    };
    store.append_chaos(&report);
    assert_eq!(store.len(), grid_rows + 1);

    let chaos_only = Query {
        source: Some(ccs_experiments::store::SOURCE_CHAOS),
        select: vec!["scenario".into(), "risk_score".into(), "digest".into()],
        ..Default::default()
    };
    let res = store.query(&chaos_only).unwrap();
    assert_eq!(res.rows.len(), 1);
    assert!(res.rows[0][0].starts_with("chaos:"));
    assert_eq!(res.rows[0][1], "1.000000");
    assert_eq!(res.rows[0][2], "violation:capacity_respected");

    let grid_only = Query {
        source: Some(ccs_experiments::store::SOURCE_GRID),
        ..Default::default()
    };
    assert_eq!(store.query(&grid_only).unwrap().rows.len(), grid_rows);
}
