//! # ccs-cluster — cluster resource models
//!
//! The computing service simulated in the paper resembles the IBM SP2 at the
//! San Diego Supercomputer Center: 128 compute nodes. Two execution models
//! are needed (paper Section 5.2):
//!
//! - [`space`] — **space-shared** nodes: one job per processor at a time.
//!   Used by the backfilling policies (FCFS-BF, SJF-BF, EDF-BF, and
//!   conservative backfilling) and FirstReward. Includes the *reservation* computation EASY backfilling
//!   needs (shadow time + extra processors).
//! - [`timeshare`] — **time-shared** deadline-driven proportional sharing:
//!   multiple tasks per node, each entitled to a minimum processor-time
//!   share `runtime-estimate / deadline`, with leftover capacity distributed
//!   proportionally. Used by Libra, Libra+$, and LibraRiskD. Implemented as
//!   an event-driven processor-sharing engine with piecewise-constant rates
//!   (see DESIGN.md §5 for the fidelity argument).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod space;
pub mod timeshare;

pub use space::SpaceShared;
pub use timeshare::{JobCompletion, PsCluster};
