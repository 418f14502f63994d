//! # ccs-simsvc — the commercial computing service simulator
//!
//! Glues the substrates together: a workload (ccs-workload) is fed job by
//! job into a policy (ccs-policies) operating a cluster (ccs-cluster) under
//! an economic model (ccs-economy). The output is a [`RunResult`]: the
//! aggregate [`RunMetrics`] from which the paper's four objectives (wait,
//! SLA, reliability, profitability) are computed, plus per-job
//! [`JobRecord`]s for drill-down.
//!
//! Every run goes through one builder, [`Run`]: construct it for a
//! built-in policy kind or a policy of your own, choose any of
//! `.fault()`, `.budget()`, `.trace()` and `.check()`, and
//! `.execute()` it into a [`RunOutput`]. [`simulate`] is the shorthand for
//! a plain run.
//!
//! ```
//! use ccs_simsvc::{simulate, FaultConfig, Run, RunConfig};
//! use ccs_policies::PolicyKind;
//! use ccs_economy::EconomicModel;
//! use ccs_workload::{apply_scenario, ScenarioTransform, SdscSp2Model};
//!
//! let base = SdscSp2Model::small().generate(42);
//! let jobs = apply_scenario(&base, &ScenarioTransform::default(), 42);
//! let cfg = RunConfig { nodes: 128, econ: EconomicModel::CommodityMarket };
//! let result = simulate(&jobs, PolicyKind::Libra, &cfg);
//! let [wait, sla, reliability, profitability] = result.metrics.objectives();
//! assert!(sla <= 100.0 && reliability <= 100.0 && profitability <= 100.0);
//! assert!(wait >= 0.0);
//!
//! // The same run with every setting on: the result does not change.
//! let fault = FaultConfig::exponential(42, 1e15, 3600.0);
//! let out = Run::new(&jobs, PolicyKind::Libra, &cfg)
//!     .fault(Some(&fault))
//!     .trace()
//!     .check()
//!     .execute()
//!     .unwrap();
//! assert_eq!(out.result, result);
//! assert!(out.trace.is_some() && out.violations.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod fault;
pub mod invariant;
pub mod metrics;
pub mod record;
pub mod runner;
pub mod samples;
pub mod timeline;
pub mod trace;

pub use budget::{BudgetExceeded, BudgetKind, RunBudget};
pub use fault::{Degradation, FaultConfig};
pub use invariant::{check_run, Violation};
pub use metrics::RunMetrics;
pub use record::JobRecord;
pub use runner::{
    simulate, simulate_counted, simulate_faulty_counted, Run, RunConfig, RunError, RunOutput,
    RunResult,
};
pub use timeline::{TimePoint, Timeline};
pub use trace::RunTrace;
