//! Renewal failure/repair process for cluster nodes.
//!
//! Each node alternates between *up* and *down* phases: time-to-failure is
//! drawn from an MTBF distribution, time-to-repair from an MTTR
//! distribution (both [`FailureDist`]: exponential or Weibull). The process
//! is lazy — popping a `Fail` event schedules that node's `Repair`, and
//! popping the `Repair` schedules the next `Fail` — so at most one event
//! per node is ever outstanding and a node can never fail twice without an
//! intervening repair.
//!
//! Determinism: every node gets its own RNG stream, forked from the
//! process seed by node index. Draw order therefore never depends on how
//! the consumer interleaves `pop` calls with other simulation work, and
//! the full failure timeline is a pure function of
//! `(seed, mtbf, mttr, nodes)`.

use crate::dist::{Distribution, Exponential, Weibull};
use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// A positive-support lifetime distribution for MTBF/MTTR draws.
///
/// A closed enum (rather than `Box<dyn Distribution>`) so failure
/// configurations stay `Copy`, comparable, trivially hashable into
/// provenance keys, and serialisable into replayable chaos reproducers.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum FailureDist {
    /// Exponential with the given mean (memoryless — the classic
    /// Poisson-failure assumption).
    Exponential {
        /// Mean of the distribution, in sim seconds.
        mean: f64,
    },
    /// Weibull with the given shape and scale (shape < 1: infant
    /// mortality; shape > 1: wear-out).
    Weibull {
        /// Shape parameter k (> 0).
        shape: f64,
        /// Scale parameter λ (> 0), in sim seconds.
        scale: f64,
    },
}

impl FailureDist {
    /// Draws one lifetime.
    pub(crate) fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            FailureDist::Exponential { mean } => Exponential::new(mean).sample(rng),
            FailureDist::Weibull { shape, scale } => Weibull::new(shape, scale).sample(rng),
        }
    }

    /// Analytic mean of the distribution, in sim seconds.
    pub fn mean(&self) -> f64 {
        match *self {
            FailureDist::Exponential { mean } => mean,
            FailureDist::Weibull { shape, scale } => Weibull::new(shape, scale).mean(),
        }
    }

    /// Checks the parameters are finite and positive; returns a
    /// human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        let check = |name: &str, v: f64| -> Result<(), String> {
            if !v.is_finite() || v <= 0.0 {
                Err(format!("{name} must be finite and positive, got {v}"))
            } else {
                Ok(())
            }
        };
        match *self {
            FailureDist::Exponential { mean } => check("mean", mean),
            FailureDist::Weibull { shape, scale } => {
                check("shape", shape)?;
                check("scale", scale)
            }
        }
    }
}

/// What happened to a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureEventKind {
    /// The node went down; its allocations are lost.
    Fail,
    /// The node came back up with full capacity.
    Repair,
}

/// One failure-timeline event, as returned by [`FailureProcess::pop`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeFailureEvent {
    /// Simulation time of the event, in seconds.
    pub t: f64,
    /// Node index in `0..nodes`.
    pub node: u32,
    /// Failure or repair.
    pub kind: FailureEventKind,
}

/// The merged failure/repair timeline of a cluster of `nodes` nodes.
///
/// ```
/// use ccs_des::{FailureDist, FailureEventKind, FailureProcess};
///
/// let mut p = FailureProcess::new(
///     42,
///     FailureDist::Exponential { mean: 1000.0 },
///     FailureDist::Exponential { mean: 50.0 },
///     4,
/// );
/// let first = p.pop().unwrap();
/// assert_eq!(first.kind, FailureEventKind::Fail);
/// ```
pub struct FailureProcess {
    mtbf: FailureDist,
    mttr: FailureDist,
    queue: EventQueue<(u32, FailureEventKind)>,
    rngs: Vec<SimRng>,
}

impl FailureProcess {
    /// Builds the process: each node's first failure is pre-scheduled at an
    /// MTBF draw from its own forked RNG stream.
    pub fn new(seed: u64, mtbf: FailureDist, mttr: FailureDist, nodes: u32) -> Self {
        let mut queue = EventQueue::new();
        let mut rngs = Vec::with_capacity(nodes as usize);
        let root = SimRng::seed_from(seed);
        for node in 0..nodes {
            let mut rng = root.fork(node as u64);
            let t = mtbf.sample(&mut rng);
            queue.push(SimTime::new(t), (node, FailureEventKind::Fail));
            rngs.push(rng);
        }
        FailureProcess {
            mtbf,
            mttr,
            queue,
            rngs,
        }
    }

    /// Time of the next failure or repair, if any.
    pub fn peek_time(&mut self) -> Option<f64> {
        self.queue.peek_time().map(|t| t.as_secs())
    }

    /// Pops the next event and schedules the node's follow-up (repair after
    /// a failure, next failure after a repair). Never returns `None` for a
    /// process with at least one node — the timeline is endless.
    pub fn pop(&mut self) -> Option<NodeFailureEvent> {
        let (t, (node, kind)) = self.queue.pop()?;
        let t = t.as_secs();
        let rng = &mut self.rngs[node as usize];
        let (next_dist, next_kind) = match kind {
            FailureEventKind::Fail => (self.mttr, FailureEventKind::Repair),
            FailureEventKind::Repair => (self.mtbf, FailureEventKind::Fail),
        };
        let dt = next_dist.sample(rng);
        self.queue.push(SimTime::new(t + dt), (node, next_kind));
        Some(NodeFailureEvent { t, node, kind })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp(mean: f64) -> FailureDist {
        FailureDist::Exponential { mean }
    }

    #[test]
    fn per_node_events_alternate_fail_repair() {
        let mut p = FailureProcess::new(7, exp(500.0), exp(20.0), 3);
        let mut last: Vec<Option<FailureEventKind>> = vec![None; 3];
        let mut prev_t = 0.0;
        for _ in 0..300 {
            let ev = p.pop().unwrap();
            assert!(ev.t >= prev_t, "timeline must be non-decreasing");
            prev_t = ev.t;
            let expect = match last[ev.node as usize] {
                None | Some(FailureEventKind::Repair) => FailureEventKind::Fail,
                Some(FailureEventKind::Fail) => FailureEventKind::Repair,
            };
            assert_eq!(ev.kind, expect, "node {} broke alternation", ev.node);
            last[ev.node as usize] = Some(ev.kind);
        }
    }

    #[test]
    fn timeline_is_deterministic_per_seed() {
        let drain = |seed: u64| -> Vec<NodeFailureEvent> {
            let mut p = FailureProcess::new(seed, exp(300.0), exp(30.0), 8);
            (0..200).map(|_| p.pop().unwrap()).collect()
        };
        assert_eq!(drain(11), drain(11));
        assert_ne!(drain(11), drain(12));
    }

    #[test]
    fn empirical_rates_track_the_means() {
        let mut p = FailureProcess::new(99, exp(1000.0), exp(100.0), 16);
        let mut uptimes = Vec::new();
        let mut downtimes = Vec::new();
        let mut down_since: Vec<Option<f64>> = vec![None; 16];
        let mut up_since: Vec<f64> = vec![0.0; 16];
        for _ in 0..40_000 {
            let ev = p.pop().unwrap();
            let n = ev.node as usize;
            match ev.kind {
                FailureEventKind::Fail => {
                    uptimes.push(ev.t - up_since[n]);
                    down_since[n] = Some(ev.t);
                }
                FailureEventKind::Repair => {
                    downtimes.push(ev.t - down_since[n].take().unwrap());
                    up_since[n] = ev.t;
                }
            }
        }
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean(&uptimes) / 1000.0 - 1.0).abs() < 0.05);
        assert!((mean(&downtimes) / 100.0 - 1.0).abs() < 0.05);
    }

    #[test]
    fn weibull_dist_validates_and_samples() {
        let d = FailureDist::Weibull {
            shape: 1.5,
            scale: 1000.0,
        };
        d.validate().unwrap();
        let mut rng = SimRng::seed_from(3);
        assert!(d.sample(&mut rng) >= 0.0);
        assert!(FailureDist::Exponential { mean: 0.0 }.validate().is_err());
        assert!(FailureDist::Weibull {
            shape: f64::NAN,
            scale: 1.0
        }
        .validate()
        .is_err());
    }
}
