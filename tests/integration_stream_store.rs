//! Cross-crate integration tests for the streaming-analytics pipeline:
//! the live risk board must agree with the batch risk analysis at end of
//! run, per-run streaming statistics must agree with the batch metric
//! post-pass, and the columnar result store must answer queries over a
//! finished grid without touching any other artifact.

use ccs_chaos::{ChaosCase, SoakFinding, SoakReport};
use ccs_economy::EconomicModel;
use ccs_experiments::{
    analyze_with, policies_for, run_evaluation, EstimateSet, ExperimentConfig, GridControl,
    GridRun, LiveRiskBoard, Query, ResultStore, Scenario, STORE_FILE,
};
use ccs_risk::WaitNormalization;
use ccs_simsvc::{simulate, LiveRunStats, Run, RunConfig};
use ccs_workload::{apply_scenario, ScenarioTransform, SdscSp2Model};

fn quick_cfg() -> ExperimentConfig {
    ExperimentConfig {
        threads: 2,
        ..ExperimentConfig::quick().with_jobs(40)
    }
}

/// The tentpole contract: after a full grid, the live board's streaming
/// Welford accumulators reproduce the batch separate risk analysis
/// (Eqs. 5–6 over normalized objectives) to within 1e-9 — the streaming
/// path observes the exact rows the batch path consumes.
#[test]
fn live_board_final_measures_equal_batch_analysis() {
    let cfg = quick_cfg();
    let econ = EconomicModel::CommodityMarket;
    let set = EstimateSet::B;
    let scheme = WaitNormalization::default();
    let board = LiveRiskBoard::new(
        policies_for(econ)
            .iter()
            .map(|p| p.name().to_string())
            .collect(),
        scheme,
    );
    let grids = GridRun::new(&cfg).board(&board).run(&[(econ, set)]);
    let grid = grids.unwrap().remove(0);

    let streaming = board.final_measures();
    let batch = analyze_with(&grid, scheme);
    assert_eq!(board.snapshot().points, Scenario::ALL.len() * 6);
    for (s, per_policy) in batch.separate.iter().enumerate() {
        for (p, measures) in per_policy.iter().enumerate() {
            for (o, m) in measures.iter().enumerate() {
                let live = &streaming[s][p][o];
                assert!(
                    (live.performance - m.performance).abs() < 1e-9,
                    "μ diverged at scenario {s} policy {p} objective {o}: \
                     streaming {} vs batch {}",
                    live.performance,
                    m.performance
                );
                // Compare σ² (the Eq. 6 quantity before the square root):
                // the batch path's naive E[x²]−E[x]² cancels catastrophically
                // on near-constant data, leaving ~1e-9 of spurious σ where
                // Welford correctly reports 0, so σ itself is only as good
                // as the *batch* rounding allows.
                let live_var = live.volatility * live.volatility;
                let batch_var = m.volatility * m.volatility;
                assert!(
                    (live_var - batch_var).abs() < 1e-9,
                    "σ² diverged at scenario {s} policy {p} objective {o}: \
                     streaming {} vs batch {}",
                    live.volatility,
                    m.volatility
                );
            }
        }
    }
}

/// Streaming per-run statistics equal the batch post-pass exactly, and an
/// attached observer cannot change what the run produces.
#[test]
fn streaming_run_stats_match_batch_and_leave_results_untouched() {
    let base = SdscSp2Model {
        jobs: 150,
        ..SdscSp2Model::small()
    }
    .generate(7);
    let jobs = apply_scenario(&base, &ScenarioTransform::default(), 7);
    for econ in EconomicModel::ALL {
        let cfg = RunConfig { nodes: 64, econ };
        for kind in ccs_experiments::policies_for(econ) {
            let plain = simulate(&jobs, kind, &cfg);
            let mut live = LiveRunStats::new(&jobs, &cfg);
            let out = Run::new(&jobs, kind, &cfg).observe(&mut live).execute();
            let observed = out.unwrap().result;
            assert_eq!(
                plain.metrics,
                observed.metrics,
                "{econ:?}/{}: observer changed the run",
                kind.name()
            );
            assert_eq!(
                live.metrics(),
                &observed.metrics,
                "{econ:?}/{}: streaming metrics diverged from batch collect",
                kind.name()
            );
        }
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
