//! # ccs-chaos — deterministic chaos engine for the computing service
//!
//! Robustness is a claim until something adversarial tests it. This crate
//! generates seed-reproducible *chaos schedules* — compositions of node
//! failure storms, arrival bursts, QoS outliers, estimate noise, and
//! mid-run admission brownouts — and replays them through the simulator
//! under the online invariant engine (`ccs_simsvc::invariant`) and the
//! cooperative watchdog (`ccs_simsvc::budget`).
//!
//! The pieces:
//!
//! - [`ChaosCase`] / [`Stressor`] — one adversarial schedule, generated
//!   from a single seed and serialisable to replayable JSON.
//! - `BrownoutPolicy`, [`StuckPolicy`], [`BrokenPolicyKind`] — policy
//!   fixtures: a legal perturbation wrapper, a never-quiescing policy for
//!   watchdog drills, and deliberately defective policies proving the
//!   invariant engine catches real bugs.
//! - [`shrink`](mod@shrink) — greedy minimisation of a failing case to the smallest
//!   schedule (fewest stressors, shortest workload, smallest cluster) that
//!   still reproduces the *same* failure signature.
//! - [`run_soak`] — the generate→run→check→shrink loop behind the
//!   `utility_risk chaos` CLI and the CI chaos leg.
//! - [`WorkerKillPlan`] — a seed-deterministic worker-kill drill for the
//!   multi-process grid supervisor (`CCS_KILL_WORKER`).
//! - [`FlakyTransport`] — a seed-pure network fault plan for the grid
//!   transport (`CCS_FLAKY_TRANSPORT`): injected drops, delays,
//!   truncated/duplicated frames, and mid-frame disconnects.
//!
//! Everything is deterministic: a soak is a pure function of its seed,
//! round count, and budget, so a CI failure replays exactly on a laptop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case;
pub mod fixtures;
pub mod flaky;
pub mod killplan;
pub mod shrink;
pub mod soak;

pub use case::{CaseOutcome, ChaosCase, Stressor};
pub use fixtures::{BrokenPolicyKind, StuckPolicy};
pub use flaky::{ConnectionFlakes, FlakyReader, FlakyTransport, FlakyWriter};
pub use killplan::WorkerKillPlan;
pub use shrink::{shrink, Shrunk};
pub use soak::{run_soak, SoakConfig, SoakFinding, SoakReport};
