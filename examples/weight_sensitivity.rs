//! A-priori risk analysis (the paper's closing direction): use measured
//! per-scenario risk to (i) forecast risk for an anticipated future
//! scenario mix, (ii) find the objective weighting at which the recommended
//! policy flips, and (iii) identify the Pareto-efficient policies.
//!
//! ```sh
//! cargo run --release -p ccs-experiments --example weight_sensitivity -- --quick
//! ```

use ccs_economy::EconomicModel;
use ccs_experiments::{analyze, run_grid, EstimateSet, Scenario};
use ccs_risk::apriori::{forecast, pareto_front, uniform_mix, weight_sensitivity};
use ccs_risk::{integrated_equal, kendall_tau, rank, Objective, RankBy, RiskMeasure};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, _, _) = ccs_experiments::parse_cli_checked(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    println!("running commodity-market grid ({} jobs)...", cfg.trace.jobs);
    let analysis = analyze(&run_grid(
        EconomicModel::CommodityMarket,
        EstimateSet::B,
        &cfg,
    ));

    // Per-policy, per-objective separate risk averaged over scenarios.
    let policies: Vec<(String, Vec<RiskMeasure>)> = analysis
        .policy_names
        .iter()
        .enumerate()
        .map(|(p, name)| {
            let per_obj: Vec<RiskMeasure> = (0..4)
                .map(|oi| {
                    let pts: Vec<RiskMeasure> =
                        analysis.separate.iter().map(|row| row[p][oi]).collect();
                    forecast(&pts, &uniform_mix(pts.len()))
                })
                .collect();
            (name.clone(), per_obj)
        })
        .collect();

    // (i) Forecast under a future that is mostly heavy-load scenarios.
    println!("\n--- forecast: future dominated by the workload scenario ---");
    let workload_idx = Scenario::ALL
        .iter()
        .position(|s| matches!(s, Scenario::Workload))
        .unwrap();
    let n = analysis.separate.len();
    let mut mix = vec![0.3 / (n - 1) as f64; n];
    mix[workload_idx] = 0.7; // 70 % of future operation looks like the load sweep
    for (p, name) in analysis.policy_names.iter().enumerate() {
        let all4: Vec<RiskMeasure> = analysis
            .separate
            .iter()
            .map(|row| integrated_equal(&row[p]))
            .collect();
        let f = forecast(&all4, &mix);
        println!(
            "{name:<12} expected performance {:.3}, risk {:.3}",
            f.performance, f.volatility
        );
    }

    // (ii) Where does the best policy flip as profitability gains weight?
    let prof_idx = Objective::ALL
        .iter()
        .position(|o| *o == Objective::Profitability)
        .unwrap();
    let s = weight_sensitivity(&policies, prof_idx, 21);
    println!("\n--- sensitivity to the profitability weight ---");
    for p in s.points.iter().step_by(4) {
        println!(
            "w(profitability) = {:.2} -> best: {:<12} (perf {:.3})",
            p.weight, p.best, p.measure.performance
        );
    }
    if s.crossovers.is_empty() {
        println!("no crossover: one policy dominates at every weighting");
    } else {
        println!("recommendation flips at w ≈ {:?}", s.crossovers);
    }

    // (iii) Pareto front in the (performance, volatility) plane.
    let all4_measures: Vec<RiskMeasure> = policies
        .iter()
        .map(|(_, ms)| integrated_equal(ms))
        .collect();
    let front = pareto_front(&all4_measures);
    println!("\n--- Pareto-efficient policies (4-objective integration) ---");
    for &i in &front {
        println!(
            "{:<12} perf {:.3} vol {:.3}",
            policies[i].0, all4_measures[i].performance, all4_measures[i].volatility
        );
    }

    // How much does the ranking criterion matter?
    let plot = analysis.integrated_plot(&Objective::ALL);
    let by_perf: Vec<String> = rank(&plot, RankBy::BestPerformance)
        .into_iter()
        .map(|r| r.name)
        .collect();
    let by_vol: Vec<String> = rank(&plot, RankBy::BestVolatility)
        .into_iter()
        .map(|r| r.name)
        .collect();
    println!(
        "\nKendall τ between best-performance and best-volatility rankings: {:.2}",
        kendall_tau(&by_perf, &by_vol)
    );
}
