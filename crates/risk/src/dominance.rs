//! Stochastic dominance between policies.
//!
//! A risk plot gives each policy a *distribution* of performance across
//! scenarios. Saying "A outperforms B" from means alone hides the tails;
//! first-order stochastic dominance (FSD) is the standard decision-theoretic
//! strengthening: A dominates B when A's performance CDF lies at or below
//! B's everywhere (A is at least as likely to exceed any threshold), with
//! strict inequality somewhere. Every expected-utility maximizer with an
//! increasing utility then prefers A — regardless of risk appetite.
//!
//! [`dominates`] tests FSD on two sample sets; `dominance_matrix`
//! evaluates all policy pairs of a plot; `paired_wins` counts per-scenario
//! wins (the paired sign statistic), a weaker but scenario-matched
//! comparison.

use crate::plot::RiskPlot;
use serde::{Deserialize, Serialize};

/// Outcome of a pairwise dominance test.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Dominance {
    /// The first sample set first-order dominates the second.
    First,
    /// The second dominates the first.
    Second,
    /// The distributions are identical.
    Equal,
    /// The CDFs cross: neither dominates.
    Neither,
}

/// Tests first-order stochastic dominance between two sample sets of equal
/// or unequal size (higher values better). Uses the empirical CDFs compared
/// at every observed value.
pub fn dominates(a: &[f64], b: &[f64]) -> Dominance {
    assert!(!a.is_empty() && !b.is_empty(), "dominance needs samples");
    let mut grid: Vec<f64> = a.iter().chain(b).copied().collect();
    grid.sort_by(|x, y| x.total_cmp(y));
    grid.dedup();

    let cdf = |xs: &[f64], v: f64| xs.iter().filter(|&&x| x <= v).count() as f64 / xs.len() as f64;
    let mut a_better = false;
    let mut b_better = false;
    for &v in &grid {
        let fa = cdf(a, v);
        let fb = cdf(b, v);
        if fa < fb - 1e-12 {
            a_better = true; // A's CDF lower: A more likely to exceed v
        } else if fb < fa - 1e-12 {
            b_better = true;
        }
    }
    match (a_better, b_better) {
        (true, false) => Dominance::First,
        (false, true) => Dominance::Second,
        (false, false) => Dominance::Equal,
        (true, true) => Dominance::Neither,
    }
}

/// Per-scenario paired comparison: how often does the first policy's
/// performance strictly beat the second's on the *same* scenario?
/// Returns `(wins_a, wins_b, ties)`.
pub(crate) fn paired_wins(a: &[f64], b: &[f64]) -> (usize, usize, usize) {
    assert_eq!(
        a.len(),
        b.len(),
        "paired comparison needs matched scenarios"
    );
    let mut wins_a = 0;
    let mut wins_b = 0;
    let mut ties = 0;
    for (&x, &y) in a.iter().zip(b) {
        if x > y + 1e-12 {
            wins_a += 1;
        } else if y > x + 1e-12 {
            wins_b += 1;
        } else {
            ties += 1;
        }
    }
    (wins_a, wins_b, ties)
}

/// One row of the dominance matrix.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct DominancePair {
    /// First policy.
    pub a: String,
    /// Second policy.
    pub b: String,
    /// FSD verdict on the performance distributions.
    pub verdict: Dominance,
    /// Per-scenario wins of `a` over `b`.
    pub wins_a: usize,
    /// Per-scenario wins of `b` over `a`.
    pub wins_b: usize,
}

/// Evaluates every unordered policy pair of a plot on their performance
/// samples (one per scenario).
pub(crate) fn dominance_matrix(plot: &RiskPlot) -> Vec<DominancePair> {
    let perf: Vec<(String, Vec<f64>)> = plot
        .series
        .iter()
        .map(|s| {
            (
                s.name.clone(),
                s.points.iter().map(|p| p.performance).collect(),
            )
        })
        .collect();
    let mut out = Vec::new();
    for i in 0..perf.len() {
        for j in (i + 1)..perf.len() {
            let verdict = dominates(&perf[i].1, &perf[j].1);
            let (wins_a, wins_b, _) = paired_wins(&perf[i].1, &perf[j].1);
            out.push(DominancePair {
                a: perf[i].0.clone(),
                b: perf[j].0.clone(),
                verdict,
                wins_a,
                wins_b,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plot::sample_figure1;

    #[test]
    fn clear_dominance() {
        let a = [0.8, 0.9, 0.85];
        let b = [0.3, 0.4, 0.35];
        assert_eq!(dominates(&a, &b), Dominance::First);
        assert_eq!(dominates(&b, &a), Dominance::Second);
    }

    #[test]
    fn identical_distributions_are_equal() {
        let a = [0.5, 0.7, 0.6];
        let b = [0.6, 0.5, 0.7]; // same multiset, different order
        assert_eq!(dominates(&a, &b), Dominance::Equal);
    }

    #[test]
    fn crossing_cdfs_are_incomparable() {
        // a: tight around 0.5; b: spread {0.1, 0.9}. Neither dominates.
        let a = [0.5, 0.5];
        let b = [0.1, 0.9];
        assert_eq!(dominates(&a, &b), Dominance::Neither);
    }

    #[test]
    fn dominance_shift_invariance() {
        let a = [0.2, 0.4, 0.6];
        let b: Vec<f64> = a.iter().map(|x| x + 0.1).collect();
        assert_eq!(
            dominates(&b, &a),
            Dominance::First,
            "a shifted up dominates"
        );
    }

    #[test]
    fn paired_wins_counts() {
        let a = [0.9, 0.2, 0.5];
        let b = [0.1, 0.8, 0.5];
        assert_eq!(paired_wins(&a, &b), (1, 1, 1));
    }

    #[test]
    fn sample_plot_matrix_is_complete_and_sane() {
        let plot = sample_figure1();
        let m = dominance_matrix(&plot);
        assert_eq!(m.len(), 8 * 7 / 2);
        // A (the ideal policy) dominates everyone.
        for pair in m.iter().filter(|p| p.a == "A") {
            assert_eq!(pair.verdict, Dominance::First, "A vs {}", pair.b);
        }
        // C and D have the same performance multisets? C: {.7,.7,.65,.68,.2},
        // D: {.7,.575,.45,.325,.2} — C dominates D.
        let cd = m.iter().find(|p| p.a == "C" && p.b == "D").unwrap();
        assert_eq!(cd.verdict, Dominance::First);
        // F and H share the same performance values: equal.
        let fh = m
            .iter()
            .find(|p| (p.a == "F" && p.b == "H") || (p.a == "H" && p.b == "F"))
            .unwrap();
        assert_eq!(fh.verdict, Dominance::Equal);
    }

    #[test]
    #[should_panic]
    fn empty_samples_panic() {
        dominates(&[], &[1.0]);
    }
}
