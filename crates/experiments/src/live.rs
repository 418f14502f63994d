//! Live per-policy risk scoring while a grid runs.
//!
//! The batch pipeline ([`crate::analysis`]) scores policies only after all
//! 78 experiment points of a grid finish. The [`LiveRiskBoard`] folds each
//! point into streaming [`Welford`] accumulators *as workers complete it*,
//! so a per-policy risk posture — normalized impact × observed violation
//! probability, after KMamiz's `RealtimeRisk` — exists at any moment of the
//! run. It is surfaced in the stderr progress line and, with telemetry on,
//! as a histogram in telemetry snapshots.
//!
//! The board is an observer, not a participant: it receives copies of the
//! objective rows the grid stores anyway, so its presence cannot change
//! results. At end of run its per-scenario accumulators equal the batch
//! separate analysis (Eqs. 5–6) to within float-summation noise — the
//! integration test pins the agreement at 1e-9.

use crate::analysis::normalize_point;
use crate::scenario::Scenario;
use ccs_risk::stream::Welford;
use ccs_risk::{Objective, RiskMeasure, WaitNormalization};
use std::sync::Mutex;

/// One policy's live risk posture, from a [`LiveRiskBoard`] snapshot.
#[derive(Clone, Debug)]
pub struct PolicyRisk {
    /// Policy display name.
    pub name: String,
    /// Mean normalized performance over all objectives at all recorded
    /// points (1 = ideal).
    pub performance: f64,
    /// Normalized impact of underperformance: `1 − performance`.
    pub impact: f64,
    /// Observed SLA-violation probability: `1 − mean reliability / 100`.
    pub probability: f64,
    /// The realtime risk score, `impact × probability` ∈ [0, 1].
    pub score: f64,
}

/// A point-in-time reading of the board.
#[derive(Clone, Debug)]
pub struct LiveRiskSnapshot {
    /// Experiment points folded in so far.
    pub points: usize,
    /// Per-policy risk postures, in grid column order.
    pub policies: Vec<PolicyRisk>,
}

impl LiveRiskSnapshot {
    /// The policy with the highest live risk score, if any data exists.
    pub fn riskiest(&self) -> Option<&PolicyRisk> {
        self.policies
            .iter()
            .filter(|p| p.performance.is_finite())
            .max_by(|a, b| a.score.total_cmp(&b.score))
    }

    /// Compact suffix for the grid progress line, e.g.
    /// `" risk↑ FCFS-BF 0.31"`. Empty until the first point lands.
    pub fn progress_suffix(&self) -> String {
        match self.riskiest() {
            Some(p) if self.points > 0 => format!(" risk\u{2191} {} {:.3}", p.name, p.score),
            _ => String::new(),
        }
    }
}

/// Per-policy streaming accumulators of one grid run.
struct BoardInner {
    /// `norm[scenario][policy][objective]` — Welford over the normalized
    /// objective values recorded at that scenario's points.
    norm: Vec<Vec<[Welford; 4]>>,
    /// Per-policy Welford over the point-mean normalized score (all four
    /// objectives, all scenarios) — the impact side of the risk score.
    overall: Vec<Welford>,
    /// Per-policy Welford over raw reliability percentages — the
    /// probability side.
    reliability: Vec<Welford>,
    points: usize,
}

/// Streaming risk scoreboard over one grid run. Thread-safe: grid workers
/// record points concurrently; anyone may snapshot at any time.
pub struct LiveRiskBoard {
    policy_names: Vec<String>,
    scheme: WaitNormalization,
    inner: Mutex<BoardInner>,
}

impl LiveRiskBoard {
    /// A board for a grid over `policy_names` (column order), normalizing
    /// wait values with `scheme` — pass the scheme the batch analysis will
    /// use so streaming-final equals the batch post-pass.
    pub fn new(policy_names: Vec<String>, scheme: WaitNormalization) -> Self {
        let n = policy_names.len();
        LiveRiskBoard {
            policy_names,
            scheme,
            inner: Mutex::new(BoardInner {
                norm: vec![vec![[Welford::new(); 4]; n]; Scenario::ALL.len()],
                overall: vec![Welford::new(); n],
                reliability: vec![Welford::new(); n],
                points: 0,
            }),
        }
    }

    /// Folds one completed experiment point into the board.
    /// `row[policy] = [wait, SLA, reliability, profitability]`, raw values,
    /// exactly as stored into the grid.
    pub fn record_point(&self, scenario_idx: usize, row: &[[f64; 4]]) {
        let n = self.policy_names.len();
        assert_eq!(row.len(), n, "row width must match the policy count");
        let mut inner = self.inner.lock().unwrap();
        let point_norm = normalize_point(row, self.scheme);
        for (p, (objs, norm)) in row.iter().zip(&point_norm).enumerate() {
            for (acc, &x) in inner.norm[scenario_idx][p].iter_mut().zip(norm) {
                acc.push(x);
            }
            inner.reliability[p].push(objs[oi_of(Objective::Reliability)]);
            inner.overall[p].push(norm.iter().sum::<f64>() / 4.0);
        }
        inner.points += 1;
        record_live_telemetry(&self.policy_names, &inner);
    }

    /// A consistent point-in-time reading of every policy's risk posture.
    pub fn snapshot(&self) -> LiveRiskSnapshot {
        let inner = self.inner.lock().unwrap();
        let policies = self
            .policy_names
            .iter()
            .enumerate()
            .map(|(p, name)| policy_risk(name, &inner, p))
            .collect();
        LiveRiskSnapshot {
            points: inner.points,
            policies,
        }
    }

    /// The streaming separate risk analysis:
    /// `measures[scenario][policy][objective]`, each derived from the
    /// Welford accumulator over that scenario's normalized values. After
    /// the full grid has been recorded this equals the batch
    /// [`crate::analysis::analyze_with`] under the same scheme to within
    /// float-summation noise (pinned at 1e-9 by the integration test).
    ///
    /// Panics if any accumulator is still empty (scenario not yet visited).
    pub fn final_measures(&self) -> Vec<Vec<[RiskMeasure; 4]>> {
        let inner = self.inner.lock().unwrap();
        inner
            .norm
            .iter()
            .map(|per_policy| {
                per_policy
                    .iter()
                    .map(|w| {
                        [
                            w[0].measure(),
                            w[1].measure(),
                            w[2].measure(),
                            w[3].measure(),
                        ]
                    })
                    .collect()
            })
            .collect()
    }
}

fn oi_of(o: Objective) -> usize {
    Objective::ALL.iter().position(|x| *x == o).expect("in ALL")
}

fn policy_risk(name: &str, inner: &BoardInner, p: usize) -> PolicyRisk {
    let performance = if inner.overall[p].is_empty() {
        f64::NAN
    } else {
        inner.overall[p].mean()
    };
    let impact = (1.0 - performance).clamp(0.0, 1.0);
    let probability = if inner.reliability[p].is_empty() {
        0.0
    } else {
        (1.0 - inner.reliability[p].mean() / 100.0).clamp(0.0, 1.0)
    };
    PolicyRisk {
        name: name.to_string(),
        performance,
        impact,
        probability,
        score: if performance.is_finite() {
            impact * probability
        } else {
            0.0
        },
    }
}

/// Feeds the live scores into the telemetry registry, if on: one
/// `grid.risk.live_score_ppm` histogram sample per policy per recorded
/// point, in parts-per-million so integer buckets resolve small scores.
fn record_live_telemetry(policy_names: &[String], inner: &BoardInner) {
    if !ccs_telemetry::enabled() {
        return;
    }
    let t = ccs_telemetry::global();
    let h = t.histogram("grid.risk.live_score_ppm");
    for (p, name) in policy_names.iter().enumerate() {
        let r = policy_risk(name, inner, p);
        if r.performance.is_finite() {
            h.record_f64(r.score * 1e6);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_a() -> Vec<[f64; 4]> {
        vec![[120.0, 80.0, 90.0, 40.0], [60.0, 85.0, 95.0, 50.0]]
    }

    fn board2() -> LiveRiskBoard {
        LiveRiskBoard::new(vec!["P0".into(), "P1".into()], WaitNormalization::default())
    }

    #[test]
    fn snapshot_tracks_recorded_points() {
        let b = board2();
        assert_eq!(b.snapshot().points, 0);
        assert!(b.snapshot().progress_suffix().is_empty());
        b.record_point(0, &row_a());
        let s = b.snapshot();
        assert_eq!(s.points, 1);
        assert_eq!(s.policies.len(), 2);
        for p in &s.policies {
            assert!((0.0..=1.0).contains(&p.score), "{}: {}", p.name, p.score);
            assert!((0.0..=1.0).contains(&p.probability));
        }
        assert!(s.progress_suffix().starts_with(" risk\u{2191} "));
    }

    #[test]
    fn dominated_policy_scores_riskier() {
        let b = board2();
        // P1 beats P0 on every objective at every point.
        b.record_point(0, &row_a());
        b.record_point(1, &[[200.0, 70.0, 80.0, 30.0], [50.0, 90.0, 99.0, 60.0]]);
        let s = b.snapshot();
        assert_eq!(s.riskiest().unwrap().name, "P0");
        assert!(s.policies[0].score > s.policies[1].score);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        board2().record_point(0, &[[0.0; 4]]);
    }
}
