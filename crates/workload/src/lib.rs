//! # ccs-workload — parallel workload modelling
//!
//! Provides everything the simulation needs to know about *jobs*:
//!
//! - [`job`] — the job record used throughout the workspace (resource
//!   requirements + QoS requirements: deadline, budget, penalty rate).
//! - [`swf`] — a parser/writer for the Standard Workload Format used by the
//!   Parallel Workloads Archive, so real traces (e.g. SDSC SP2) can be
//!   dropped in.
//! - [`synth`] — a seeded synthetic generator reproducing the summary
//!   statistics of the last-5000-job SDSC SP2 subset the paper simulates
//!   (the trace itself is not redistributable; see DESIGN.md §5.1).
//! - [`qos`] — the paper's QoS annotation methodology: two urgency classes,
//!   normally distributed deadline/budget/penalty factors, high:low ratios,
//!   and the bias transform (paper Section 5.3).
//! - [`scenario`] — the experiment-facing transforms: arrival-delay factor
//!   and runtime-estimate inaccuracy interpolation.
//! - [`stats`] — workload summary statistics (offered load, estimate
//!   accuracy mix, …).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diurnal;
pub mod histogram;
pub mod job;
pub mod lublin;
pub mod qos;
pub mod scenario;
pub mod stats;
pub mod swf;
pub mod synth;

pub use diurnal::{apply_diurnal, DiurnalProfile};
pub use histogram::{LogHistogram, TraceHistograms};
pub use job::{BaseJob, Job, JobId, Urgency};
pub use lublin::LublinModel;
pub use qos::{FactorSpec, QosConfig};
pub use scenario::{apply_scenario, ScenarioTransform};
pub use stats::WorkloadSummary;
pub use synth::{EstimateModel, SdscSp2Model};
