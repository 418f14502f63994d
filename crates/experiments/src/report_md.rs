//! Markdown report generation: a human-readable study report built from an
//! evaluation, suitable for committing next to EXPERIMENTS.md or posting as
//! CI output.

use crate::analysis::GridAnalysis;
use crate::Evaluation;
use ccs_risk::{rank, Objective, RankBy, RiskPlot};
use std::fmt::Write as _;

/// Renders a markdown table of a plot's per-policy extrema (Table II form).
pub(crate) fn extrema_md(plot: &RiskPlot) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "| Policy | max perf | min perf | max vol | min vol | gradient |"
    );
    let _ = writeln!(s, "|---|---|---|---|---|---|");
    for series in &plot.series {
        let e = series.extrema();
        let _ = writeln!(
            s,
            "| {} | {:.3} | {:.3} | {:.3} | {:.3} | {} |",
            series.name,
            e.max_performance,
            e.min_performance,
            e.max_volatility,
            e.min_volatility,
            series.gradient()
        );
    }
    s
}

/// Renders a markdown ranking table (Tables III/IV form).
pub(crate) fn ranking_md(plot: &RiskPlot, by: RankBy) -> String {
    let rows = rank(plot, by);
    let mut s = String::new();
    let crit = match by {
        RankBy::BestPerformance => "best performance",
        RankBy::BestVolatility => "best volatility",
    };
    let _ = writeln!(s, "Ranking by {crit}:");
    let _ = writeln!(s);
    let _ = writeln!(s, "| Rank | Policy | max perf | min vol | gradient |");
    let _ = writeln!(s, "|---|---|---|---|---|");
    for r in rows {
        let _ = writeln!(
            s,
            "| {} | {} | {:.3} | {:.3} | {} |",
            r.rank, r.name, r.max_performance, r.min_volatility, r.gradient
        );
    }
    s
}

fn grid_section(s: &mut String, g: &GridAnalysis) {
    let _ = writeln!(s, "### {} — {}\n", g.econ, g.set);
    for objs in [
        &Objective::ALL[..],
        &[Objective::Wait][..],
        &[Objective::Sla][..],
        &[Objective::Reliability][..],
        &[Objective::Profitability][..],
    ] {
        let plot = if objs.len() == 1 {
            g.separate_plot(objs[0])
        } else {
            g.integrated_plot(objs)
        };
        let label = if objs.len() == 1 {
            format!("separate: {}", objs[0].abbrev())
        } else {
            "integrated: all four objectives".to_string()
        };
        let _ = writeln!(s, "#### {label}\n");
        let _ = writeln!(s, "{}", extrema_md(&plot));
        let _ = writeln!(s, "{}", ranking_md(&plot, RankBy::BestPerformance));
    }
}

/// Renders a full markdown study report of an evaluation.
pub fn evaluation_report(ev: &Evaluation) -> String {
    let mut s = String::from("# Risk-analysis study report\n\n");
    let _ = writeln!(
        s,
        "Separate and integrated risk analysis (Yeo & Buyya, IPDPS 2007) of \
         the {} policies over the 13-scenario grid.\n",
        ev.commodity_a.policy_names.len()
    );
    for g in [&ev.commodity_a, &ev.commodity_b, &ev.bid_a, &ev.bid_b] {
        grid_section(&mut s, g);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_evaluation, ExperimentConfig, GridControl};
    use ccs_risk::sample_figure1;

    #[test]
    fn markdown_tables_well_formed() {
        let plot = sample_figure1();
        let ex = extrema_md(&plot);
        // Header + separator + 8 policies.
        assert_eq!(ex.lines().count(), 10);
        assert!(ex.lines().all(|l| l.starts_with('|')));
        let rk = ranking_md(&plot, RankBy::BestVolatility);
        assert!(rk.contains("| 1 | A |"));
        assert!(rk.contains("| 2 | E |"), "{rk}");
    }

    #[test]
    fn full_report_covers_all_grids() {
        let cfg = ExperimentConfig::quick().with_jobs(40);
        let ev = run_evaluation(&cfg, &GridControl::default()).unwrap();
        let report = evaluation_report(&ev);
        assert!(report.contains("commodity market — Set A"));
        assert!(report.contains("bid-based — Set B"));
        assert!(report.contains("integrated: all four objectives"));
        assert!(report.contains("separate: wait"));
        // Every policy appears.
        for name in &ev.commodity_a.policy_names {
            assert!(report.contains(name.as_str()), "{name}");
        }
        assert!(report.lines().count() > 100);
    }
}
