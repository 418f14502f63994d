//! # ccs-des — deterministic discrete-event simulation kernel
//!
//! This crate is the simulation substrate underneath the `utility-risk`
//! workspace. It replaces the role GridSim played in the original paper
//! (Yeo & Buyya, *Integrated Risk Analysis for a Commercial Computing
//! Service*, IPDPS 2007): a virtual clock, a priority event queue with
//! stable FIFO tie-breaking and cancellation, seeded random number
//! streams, the probability distributions the workload model needs, the
//! node failure process, and a fast deterministic hasher for integer keys.
//!
//! Everything here is deterministic: the same seed produces bit-identical
//! simulation results on every run and platform, which is a prerequisite for
//! the reproducibility experiments in `ccs-experiments`.
//!
//! ## Quick tour
//!
//! ```
//! use ccs_des::{Simulation, SimTime};
//!
//! // Fire events in time order, stopping before t = 10.
//! let mut sim: Simulation<&'static str> = Simulation::new();
//! sim.schedule_at(SimTime::new(3.0), "a");
//! sim.schedule_at(SimTime::new(7.0), "b");
//! sim.schedule_at(SimTime::new(12.0), "c");
//! let mut fired = Vec::new();
//! while let Some((t, ev)) = sim.next_before(SimTime::new(10.0)) {
//!     fired.push((t.as_secs(), ev));
//! }
//! assert_eq!(fired, vec![(3.0, "a"), (7.0, "b")]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod failure;
pub mod fasthash;
pub mod queue;
pub mod rng;
pub mod sim;
pub mod time;

pub use dist::{Distribution, Exponential, LogNormal, Normal, TruncatedNormal, Uniform, Weibull};
pub use failure::{FailureDist, FailureEventKind, FailureProcess, NodeFailureEvent};
pub use fasthash::{FastBuildHasher, FastHashMap, FastHashSet, FastHasher};
pub use queue::{EventHandle, EventQueue};
pub use rng::SimRng;
pub use sim::Simulation;
pub use time::SimTime;
