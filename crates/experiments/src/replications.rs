//! Seed-replication robustness: are the paper's conclusions an artifact of
//! one trace realization?
//!
//! The paper evaluates a single trace subset. Because our substitute trace
//! is synthetic, we can do better: re-run the whole grid under independent
//! seeds and report each policy's integrated performance as mean ± standard
//! deviation across replications. A policy ordering that survives the
//! replications is a property of the *policies*, not of one arrival
//! pattern.

use crate::analysis::{analyze, analyze_with, GridAnalysis};
use crate::grid::{ExperimentConfig, GridRun, IN_PROCESS};
use crate::scenario::EstimateSet;
use ccs_economy::EconomicModel;
use ccs_risk::{integrated_equal, Objective, WaitNormalization, Welford};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One policy's cross-replication statistics.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PolicyRobustness {
    /// Policy name.
    pub name: String,
    /// Mean (over replications) of the scenario-averaged 4-objective
    /// integrated performance.
    pub mean_performance: f64,
    /// Standard deviation over replications.
    pub std_performance: f64,
    /// Per-replication values, in seed order.
    pub samples: Vec<f64>,
}

/// A replication study for one (economic model, estimate set) pair.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Robustness {
    /// Economic model studied.
    pub econ: EconomicModel,
    /// Estimate set studied.
    pub set: EstimateSet,
    /// The seeds used.
    pub seeds: Vec<u64>,
    /// Per-policy statistics, in Table V order.
    pub policies: Vec<PolicyRobustness>,
}

/// Scenario-averaged 4-objective integrated performance of each policy.
fn summary_scores(analysis: &GridAnalysis) -> Vec<f64> {
    (0..analysis.policy_names.len())
        .map(|p| {
            analysis
                .separate
                .iter()
                .map(|row| integrated_equal(&row[p]).performance)
                .sum::<f64>()
                / analysis.separate.len() as f64
        })
        .collect()
}

/// Runs the full grid once per seed and aggregates.
pub fn replicate(
    econ: EconomicModel,
    set: EstimateSet,
    cfg: &ExperimentConfig,
    seeds: &[u64],
) -> Robustness {
    assert!(!seeds.is_empty());
    let mut per_policy: Vec<(String, Welford, Vec<f64>)> = Vec::new();
    for &seed in seeds {
        let mut c = *cfg;
        c.seed = seed;
        let analysis = analyze(&GridRun::new(&c).run(&[(econ, set)]).expect(IN_PROCESS)[0]);
        let scores = summary_scores(&analysis);
        if per_policy.is_empty() {
            per_policy = analysis
                .policy_names
                .iter()
                .map(|n| (n.clone(), Welford::new(), Vec::new()))
                .collect();
        }
        for ((_, stats, samples), score) in per_policy.iter_mut().zip(scores) {
            stats.push(score);
            samples.push(score);
        }
    }
    Robustness {
        econ,
        set,
        seeds: seeds.to_vec(),
        policies: per_policy
            .into_iter()
            .map(|(name, stats, samples)| PolicyRobustness {
                name,
                mean_performance: stats.mean(),
                std_performance: stats.population_std(),
                samples,
            })
            .collect(),
    }
}

impl Robustness {
    /// Policies ordered by mean performance, best first.
    pub fn ordering(&self) -> Vec<&str> {
        let mut idx: Vec<usize> = (0..self.policies.len()).collect();
        idx.sort_by(|&a, &b| {
            self.policies[b]
                .mean_performance
                .total_cmp(&self.policies[a].mean_performance)
        });
        idx.iter()
            .map(|&i| self.policies[i].name.as_str())
            .collect()
    }

    /// True when the ordering of `a` above `b` holds in *every* replication
    /// (a seed-robust conclusion).
    pub fn robustly_above(&self, a: &str, b: &str) -> bool {
        let find = |name: &str| {
            self.policies
                .iter()
                .find(|p| p.name == name)
                .unwrap_or_else(|| panic!("unknown policy {name}"))
        };
        find(a)
            .samples
            .iter()
            .zip(&find(b).samples)
            .all(|(x, y)| x > y)
    }

    /// Text table of the study.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "=== seed robustness: {} / {} ({} replications) ===",
            self.econ,
            self.set,
            self.seeds.len()
        );
        let _ = writeln!(
            s,
            "{:<12} {:>12} {:>10}   per-seed",
            "policy", "mean perf", "std"
        );
        for p in &self.policies {
            let samples: Vec<String> = p.samples.iter().map(|v| format!("{v:.3}")).collect();
            let _ = writeln!(
                s,
                "{:<12} {:>12.4} {:>10.4}   {}",
                p.name,
                p.mean_performance,
                p.std_performance,
                samples.join(" ")
            );
        }
        s
    }

    /// The objectives every score integrates (fixed: all four).
    pub fn objectives() -> [Objective; 4] {
        Objective::ALL
    }
}

/// How the 4-objective integrated ordering depends on the wait
/// normalization scheme (EXPERIMENTS.md deviation #1): the same raw grid is
/// re-analyzed under each scheme.
pub fn wait_normalization_study(
    econ: EconomicModel,
    set: EstimateSet,
    cfg: &ExperimentConfig,
) -> Vec<(String, Vec<(String, f64)>)> {
    let grid = GridRun::new(cfg).run(&[(econ, set)]).expect(IN_PROCESS);
    let grid = &grid[0];
    let schemes: [(&str, WaitNormalization); 3] = [
        ("relative-to-worst", WaitNormalization::RelativeToWorst),
        ("min-max", WaitNormalization::MinMax),
        (
            "reciprocal (scale = mean runtime)",
            WaitNormalization::Reciprocal { scale: 8671.0 },
        ),
    ];
    schemes
        .iter()
        .map(|(name, scheme)| {
            let analysis = analyze_with(grid, *scheme);
            let scores = summary_scores(&analysis);
            (
                name.to_string(),
                analysis.policy_names.iter().cloned().zip(scores).collect(),
            )
        })
        .collect()
}

/// A trace-model robustness study: the same grid under structurally
/// different workload generators.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TraceModelStudy {
    /// Economic model studied.
    pub econ: EconomicModel,
    /// Estimate set studied.
    pub set: EstimateSet,
    /// Per model: (model name, per-policy (name, mean 4-objective score)).
    pub models: Vec<(String, Vec<(String, f64)>)>,
}

/// Runs the full grid under three workload generators — the SDSC SP2
/// synthetic, a Lublin–Feitelson-style model, and the SDSC model with a
/// diurnal arrival cycle — and reports each policy's scenario-averaged
/// 4-objective integrated performance per model.
pub fn across_trace_models(
    econ: EconomicModel,
    set: EstimateSet,
    cfg: &ExperimentConfig,
) -> TraceModelStudy {
    use ccs_workload::{apply_diurnal, DiurnalProfile, LublinModel};

    let sdsc = cfg.trace.generate(cfg.seed);
    let lublin = LublinModel {
        jobs: cfg.trace.jobs,
        nodes: cfg.nodes,
        ..Default::default()
    }
    .generate(cfg.seed);
    let diurnal = apply_diurnal(&sdsc, &DiurnalProfile::office_hours(6.0), cfg.seed);

    let mut models = Vec::new();
    for (name, base) in [
        ("SDSC SP2 synthetic", &sdsc),
        ("Lublin-Feitelson", &lublin),
        ("SDSC + diurnal cycle", &diurnal),
    ] {
        let grids = GridRun::new(cfg).base(base).run(&[(econ, set)]);
        let analysis = analyze(&grids.expect(IN_PROCESS)[0]);
        let scores = summary_scores(&analysis);
        models.push((
            name.to_string(),
            analysis.policy_names.iter().cloned().zip(scores).collect(),
        ));
    }
    TraceModelStudy { econ, set, models }
}

impl TraceModelStudy {
    /// Policy ordering (best first) under each model.
    pub fn orderings(&self) -> Vec<(String, Vec<String>)> {
        self.models
            .iter()
            .map(|(name, scores)| {
                let mut sorted = scores.clone();
                sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
                (name.clone(), sorted.into_iter().map(|(p, _)| p).collect())
            })
            .collect()
    }

    /// Text table of the study.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "=== trace-model robustness: {} / {} ===",
            self.econ, self.set
        );
        for (name, scores) in &self.models {
            let row: Vec<String> = scores.iter().map(|(p, v)| format!("{p}={v:.3}")).collect();
            let _ = writeln!(s, "{:<22} {}", name, row.join("  "));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> Robustness {
        let cfg = ExperimentConfig::quick().with_jobs(40);
        replicate(EconomicModel::BidBased, EstimateSet::A, &cfg, &[1, 2, 3])
    }

    #[test]
    fn shapes_and_ranges() {
        let r = study();
        assert_eq!(r.policies.len(), 5);
        for p in &r.policies {
            assert_eq!(p.samples.len(), 3);
            assert!((0.0..=1.0).contains(&p.mean_performance), "{}", p.name);
            assert!(p.std_performance >= 0.0);
        }
    }

    #[test]
    fn ordering_is_a_permutation() {
        let r = study();
        let mut names = r.ordering();
        names.sort_unstable();
        let mut expect: Vec<&str> = r.policies.iter().map(|p| p.name.as_str()).collect();
        expect.sort_unstable();
        assert_eq!(names, expect);
    }

    #[test]
    fn libra_family_robustly_beats_fcfs_in_set_a() {
        // The Libra family's wait advantage is structural, so it must hold
        // for every seed.
        let r = study();
        assert!(r.robustly_above("Libra", "FCFS-BF"));
        assert!(r.robustly_above("LibraRiskD", "FCFS-BF"));
    }

    #[test]
    fn render_contains_all_policies() {
        let r = study();
        let text = r.render();
        for p in &r.policies {
            assert!(text.contains(&p.name));
        }
    }

    #[test]
    #[should_panic]
    fn unknown_policy_in_comparison_panics() {
        study().robustly_above("Nonexistent", "Libra");
    }

    #[test]
    fn wait_scheme_moves_scores_but_keeps_percentage_objectives() {
        let cfg = ExperimentConfig::quick().with_jobs(50);
        let study = wait_normalization_study(EconomicModel::CommodityMarket, EstimateSet::B, &cfg);
        assert_eq!(study.len(), 3);
        for (_, scores) in &study {
            assert_eq!(scores.len(), 5);
            for (_, v) in scores {
                assert!((0.0..=1.0).contains(v));
            }
        }
    }

    #[test]
    fn trace_models_preserve_the_headline_ordering() {
        let cfg = ExperimentConfig::quick().with_jobs(60);
        let s = across_trace_models(EconomicModel::BidBased, EstimateSet::B, &cfg);
        assert_eq!(s.models.len(), 3);
        for (model, ordering) in s.orderings() {
            // The wait-ideal Libra family outranks FCFS-BF under every
            // trace model.
            let pos = |name: &str| ordering.iter().position(|p| p == name).unwrap();
            assert!(pos("LibraRiskD") < pos("FCFS-BF"), "{model}: {ordering:?}");
        }
        let text = s.render();
        assert!(text.contains("Lublin"));
    }
}
