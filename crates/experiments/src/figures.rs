//! Figure reproduction: assembles the risk plots of paper Figures 1–8 and
//! writes them as gnuplot data, SVG, and text summaries.

use crate::analysis::GridAnalysis;
use ccs_economy::penalty::penalty_curve;
use ccs_risk::report::ascii_plot;
use ccs_risk::svg::{render, render_lines, SvgOptions};
use ccs_risk::{sample_figure1, Objective, RiskPlot};
use ccs_workload::{Job, Urgency};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// One paper figure: a family of risk plots (sub-figures a, b, …).
#[derive(Clone, Debug)]
pub struct Figure {
    /// Figure identifier, e.g. `"fig3"`.
    pub id: String,
    /// Human description.
    pub caption: String,
    /// The sub-plots, in paper order (a, b, c, …).
    pub plots: Vec<RiskPlot>,
}

/// Figure 1: the sample risk analysis plot of eight synthetic policies.
pub fn figure1() -> Figure {
    Figure {
        id: "fig1".into(),
        caption: "Sample risk analysis plot of policies A–H".into(),
        plots: vec![sample_figure1()],
    }
}

/// Figure 2's data: the utility-vs-completion-time penalty curves for a
/// representative high-urgency and low-urgency job. Returns `(label,
/// curve)` pairs of `(seconds-after-submit, utility)` samples.
pub fn figure2_curves() -> Vec<(String, Vec<(f64, f64)>)> {
    let mk = |urgency: Urgency, deadline: f64, budget: f64, pr: f64| Job {
        id: 0,
        submit: 0.0,
        runtime: 3600.0,
        estimate: 3600.0,
        procs: 8,
        urgency,
        deadline,
        budget,
        penalty_rate: pr,
    };
    let high = mk(Urgency::High, 4.0 * 3600.0, 16.0 * 8.0 * 3600.0, 16.0 * 8.0);
    let low = mk(Urgency::Low, 16.0 * 3600.0, 4.0 * 8.0 * 3600.0, 4.0 * 8.0);
    vec![
        (
            "high urgency (tight deadline, big budget & penalty)".into(),
            penalty_curve(&high, 24.0 * 3600.0, 97),
        ),
        (
            "low urgency (relaxed deadline, small budget & penalty)".into(),
            penalty_curve(&low, 24.0 * 3600.0, 97),
        ),
    ]
}

/// A separate-analysis figure (Figures 3 and 6): the four objectives, each
/// in Set A then Set B — eight sub-plots, paper order a–h.
pub fn separate_figure(id: &str, a: &GridAnalysis, b: &GridAnalysis) -> Figure {
    let mut plots = Vec::with_capacity(8);
    for obj in Objective::ALL {
        plots.push(a.separate_plot(obj));
        plots.push(b.separate_plot(obj));
    }
    Figure {
        id: id.into(),
        caption: format!(
            "{}: separate risk analysis of one objective (Sets A and B)",
            a.econ
        ),
        plots,
    }
}

/// A three-objective integrated figure (Figures 4 and 7): the four
/// leave-one-out combinations, each in Set A then Set B.
pub fn integrated3_figure(id: &str, a: &GridAnalysis, b: &GridAnalysis) -> Figure {
    let mut plots = Vec::with_capacity(8);
    for (_omitted, triple) in Objective::triples() {
        plots.push(a.integrated_plot(&triple));
        plots.push(b.integrated_plot(&triple));
    }
    Figure {
        id: id.into(),
        caption: format!(
            "{}: integrated risk analysis of three objectives (Sets A and B)",
            a.econ
        ),
        plots,
    }
}

/// A four-objective integrated figure (Figures 5 and 8): Set A then Set B.
pub fn integrated4_figure(id: &str, a: &GridAnalysis, b: &GridAnalysis) -> Figure {
    Figure {
        id: id.into(),
        caption: format!(
            "{}: integrated risk analysis of all four objectives (Sets A and B)",
            a.econ
        ),
        plots: vec![
            a.integrated_plot(&Objective::ALL),
            b.integrated_plot(&Objective::ALL),
        ],
    }
}

/// Renders Figure 2 (the penalty function) as an SVG line chart.
pub fn figure2_svg() -> String {
    render_lines(
        "Bid-based model: impact of the penalty function on utility (Figure 2)",
        "completion time after submission (s)",
        "utility ($)",
        &figure2_curves(),
        &SvgOptions::default(),
    )
}

/// Renders Figure 2 as text for stdout: each penalty curve as a
/// `t (s)` / `utility ($)` table, every 12th sample.
pub fn print_figure2() -> String {
    let mut s = String::new();
    for (label, curve) in figure2_curves() {
        let _ = writeln!(s, "--- {label} ---");
        let _ = writeln!(s, "{:>12} {:>14}", "t (s)", "utility ($)");
        for (t, u) in curve.iter().step_by(12) {
            let _ = writeln!(s, "{t:>12.0} {u:>14.2}");
        }
    }
    s
}

/// Writes Figure 2's artifacts under `dir`: `fig2.dat` (gnuplot, one block
/// per curve) and `fig2.svg`. Returns the files written.
pub fn write_figure2(dir: &Path) -> io::Result<Vec<std::path::PathBuf>> {
    fs::create_dir_all(dir)?;
    let mut dat = String::from("# fig2: utility vs completion time (s after submit)\n");
    for (label, curve) in figure2_curves() {
        let _ = writeln!(dat, "\n\n# {label}");
        for (t, u) in curve {
            let _ = writeln!(dat, "{t:.1} {u:.2}");
        }
    }
    let dat_path = dir.join("fig2.dat");
    fs::write(&dat_path, dat)?;
    let svg_path = dir.join("fig2.svg");
    fs::write(&svg_path, figure2_svg())?;
    Ok(vec![dat_path, svg_path])
}

/// Sub-figure letters, paper style.
fn letter(i: usize) -> char {
    (b'a' + i as u8) as char
}

/// Writes a figure's artifacts under `dir`: one `.dat` (gnuplot), one
/// `.svg`, and a combined `.txt` summary. Returns the files written.
pub fn write_figure(dir: &Path, fig: &Figure) -> io::Result<Vec<std::path::PathBuf>> {
    fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    let mut summary = format!("# {} — {}\n\n", fig.id, fig.caption);
    for (i, plot) in fig.plots.iter().enumerate() {
        let stem = format!("{}{}", fig.id, letter(i));
        let dat = dir.join(format!("{stem}.dat"));
        fs::write(&dat, plot.to_gnuplot())?;
        written.push(dat);
        let svg = dir.join(format!("{stem}.svg"));
        fs::write(&svg, render(plot, &SvgOptions::default()))?;
        written.push(svg);
        let gp = dir.join(format!("{stem}.gp"));
        fs::write(
            &gp,
            plot.to_gnuplot_script(&format!("{stem}.dat"), &format!("{stem}.png")),
        )?;
        written.push(gp);
        let _ = writeln!(summary, "## {stem}: {}\n", plot.title);
        let _ = writeln!(summary, "{}", ascii_plot(plot, 64, 16));
    }
    let txt = dir.join(format!("{}.txt", fig.id));
    fs::write(&txt, summary)?;
    written.push(txt);
    Ok(written)
}

/// Renders a figure's plots as text for stdout (the "same rows/series the
/// paper reports"): per sub-plot, per policy, the (volatility, performance)
/// point of every scenario.
pub fn print_figure(fig: &Figure) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "=== {} — {} ===", fig.id, fig.caption);
    for (i, plot) in fig.plots.iter().enumerate() {
        let _ = writeln!(s, "\n--- {}{}: {} ---", fig.id, letter(i), plot.title);
        let _ = writeln!(s, "{:<14} (volatility, performance) per scenario", "policy");
        for series in &plot.series {
            let pts: Vec<String> = series
                .points
                .iter()
                .map(|p| format!("({:.3},{:.3})", p.volatility, p.performance))
                .collect();
            let _ = writeln!(s, "{:<14} {}", series.name, pts.join(" "));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::grid::{run_grid, ExperimentConfig};
    use crate::scenario::EstimateSet;
    use ccs_economy::EconomicModel;

    fn quick_pair() -> (GridAnalysis, GridAnalysis) {
        let cfg = ExperimentConfig::quick().with_jobs(50);
        (
            analyze(&run_grid(
                EconomicModel::CommodityMarket,
                EstimateSet::A,
                &cfg,
            )),
            analyze(&run_grid(
                EconomicModel::CommodityMarket,
                EstimateSet::B,
                &cfg,
            )),
        )
    }

    #[test]
    fn figure1_is_the_sample_plot() {
        let f = figure1();
        assert_eq!(f.plots.len(), 1);
        assert_eq!(f.plots[0].series.len(), 8);
    }

    #[test]
    fn figure2_curves_shape() {
        let curves = figure2_curves();
        assert_eq!(curves.len(), 2);
        for (_, c) in &curves {
            assert_eq!(c.len(), 97);
            // Flat at the budget, then strictly decreasing; ends negative.
            assert!(c[0].1 > 0.0);
            assert!(c.last().unwrap().1 < 0.0, "penalty is unbounded");
        }
        // High-urgency curve starts higher and falls faster.
        let hi = &curves[0].1;
        let lo = &curves[1].1;
        assert!(hi[0].1 > lo[0].1);
        assert!(hi.last().unwrap().1 < lo.last().unwrap().1);
    }

    #[test]
    fn separate_and_integrated_figures_have_paper_subplot_counts() {
        let (a, b) = quick_pair();
        assert_eq!(separate_figure("fig3", &a, &b).plots.len(), 8);
        assert_eq!(integrated3_figure("fig4", &a, &b).plots.len(), 8);
        assert_eq!(integrated4_figure("fig5", &a, &b).plots.len(), 2);
    }

    #[test]
    fn write_figure_emits_dat_svg_txt() {
        let dir = std::env::temp_dir().join("ccs_fig_test");
        let _ = std::fs::remove_dir_all(&dir);
        let files = write_figure(&dir, &figure1()).unwrap();
        assert_eq!(files.len(), 4); // fig1a.dat, fig1a.svg, fig1a.gp, fig1.txt
        assert!(files.iter().all(|f| f.exists()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn print_figure_lists_all_policies() {
        let text = print_figure(&figure1());
        for p in ["A", "B", "C", "D", "E", "F", "G", "H"] {
            assert!(text.lines().any(|l| l.starts_with(p)), "{p} missing");
        }
    }
}
