//! Figure-reproduction integration: every paper figure can be assembled,
//! printed, and written to disk from a quick evaluation.

use ccs_experiments::figures::{figure1, figure2_curves, print_figure, write_figure};
use ccs_experiments::{build_figure, run_evaluation, ExperimentConfig, GridControl};

#[test]
fn figure_builder_covers_fig1_and_fig3_through_fig8() {
    let cfg = ExperimentConfig::quick().with_jobs(40);
    for (id, subplots) in [
        ("fig1", 1),
        ("fig3", 8),
        ("fig4", 8),
        ("fig5", 2),
        ("fig6", 8),
        ("fig7", 8),
        ("fig8", 2),
    ] {
        let fig = build_figure(id, &cfg);
        assert_eq!(fig.id, id);
        assert_eq!(fig.plots.len(), subplots, "{id}");
        let text = print_figure(&fig);
        assert!(text.contains(&format!("=== {id}")), "{id}");
    }
}

/// A figure built on its own prints byte for byte what the study prints:
/// its two grids share one memo of simulated cells, as the study's four
/// do, and a reused cell changes no number.
#[test]
fn each_figure_equals_the_study_figure_byte_for_byte() {
    let cfg = ExperimentConfig::quick().with_jobs(40);
    let ev = run_evaluation(&cfg, &GridControl::default()).unwrap();
    let figs = ev.paper_figures();
    for fig in &figs[1..] {
        let alone = print_figure(&build_figure(&fig.id, &cfg));
        assert_eq!(alone, print_figure(fig), "{}", fig.id);
    }
}

#[test]
fn full_quick_evaluation_produces_all_figures() {
    let cfg = ExperimentConfig::quick().with_jobs(40);
    let ev = run_evaluation(&cfg, &GridControl::default()).unwrap();
    let figs = ev.paper_figures();
    assert_eq!(figs.len(), 7);
    // Sub-plot titles alternate Set A / Set B in paper order for fig3.
    let fig3 = &figs[1];
    assert!(fig3.plots[0].title.starts_with("Set A"));
    assert!(fig3.plots[1].title.starts_with("Set B"));
    assert!(fig3.plots[0].title.contains("wait"));
    assert!(fig3.plots[6].title.contains("profitability"));
}

#[test]
fn figure_artifacts_written_to_disk() {
    let dir = std::env::temp_dir().join("ccs_integration_figs");
    let _ = std::fs::remove_dir_all(&dir);
    let files = write_figure(&dir, &figure1()).unwrap();
    for f in &files {
        assert!(f.exists());
        assert!(std::fs::metadata(f).unwrap().len() > 0);
    }
    // fig1a.dat + fig1a.svg + fig1a.gp + fig1.txt
    assert_eq!(files.len(), 4);
    let svg = std::fs::read_to_string(dir.join("fig1a.svg")).unwrap();
    assert!(svg.starts_with("<svg"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn figure2_penalty_function_shape() {
    let curves = figure2_curves();
    for (label, curve) in &curves {
        // Utility is non-increasing in completion time.
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9, "{label}: utility increased");
        }
        // Flat region first (within deadline), then strictly decreasing.
        assert_eq!(curve[0].1, curve[1].1, "{label}: starts flat at the budget");
        let n = curve.len();
        assert!(
            curve[n - 1].1 < curve[n - 2].1,
            "{label}: decaying at the end"
        );
    }
}

#[test]
fn quick_bid_evaluation_shows_paper_shape() {
    // Even at 40 jobs the structural anchors hold: the Libra family has
    // ideal wait performance, and every point is inside the unit box.
    let cfg = ExperimentConfig::quick().with_jobs(40);
    let fig6 = build_figure("fig6", &cfg);
    let wait_a = &fig6.plots[0];
    for series in &wait_a.series {
        if series.name == "Libra" || series.name == "LibraRiskD" {
            for p in &series.points {
                assert!((p.performance - 1.0).abs() < 1e-9, "{}", series.name);
                assert!(p.volatility.abs() < 1e-9);
            }
        }
        for p in &series.points {
            assert!((0.0..=1.0).contains(&p.performance));
            assert!((0.0..=0.5 + 1e-9).contains(&p.volatility));
        }
    }
}
