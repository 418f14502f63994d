//! # ccs-risk — separate and integrated risk analysis
//!
//! The primary contribution of Yeo & Buyya, *Integrated Risk Analysis for a
//! Commercial Computing Service* (IPDPS 2007): a pair of simple, intuitive
//! evaluation methods that grade resource-management policies against the
//! four essential objectives of a commercial computing service.
//!
//! This crate is deliberately **independent of the simulator**: it consumes
//! plain `f64` objective measurements, so it can assess any system that can
//! report the four objectives (or indeed any normalized performance
//! figures).
//!
//! The pipeline:
//!
//! 1. Measure raw objective values ([`Objective`], paper Section 3) for
//!    every policy at every experiment point of a scenario.
//! 2. [`normalize`](crate::normalize::normalize) them to `[0, 1]`
//!    (1 = best).
//! 3. [`separate`](crate::separate::separate) risk analysis per objective
//!    per scenario → a [`RiskMeasure`] (performance `μ`, volatility `σ`).
//! 4. [`integrated`](crate::integrated::integrated) risk analysis over a
//!    weighted combination of objectives.
//! 5. Collect per-policy points into a [`RiskPlot`], fit
//!    [trend lines](crate::trend), and [rank](crate::rank::rank) policies by
//!    best performance or best volatility.
//!
//! ```
//! use ccs_risk::{normalize, separate, integrated, Objective, RiskMeasure};
//!
//! // Six SLA percentages from a six-value scenario sweep for one policy:
//! let sla = normalize::normalize(Objective::Sla, &[88.0, 92.0, 85.0, 90.0, 91.0, 86.0]);
//! let sla_risk = separate::separate(&sla);
//! assert!(sla_risk.performance > 0.8 && sla_risk.volatility < 0.05);
//!
//! // Integrate with a perfect-reliability measure at equal weights:
//! let combo = integrated::integrated_equal(&[sla_risk, RiskMeasure::IDEAL]);
//! assert!(combo.performance > sla_risk.performance);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apriori;
pub mod bootstrap;
pub mod car;
pub mod dominance;
pub mod integrated;
pub mod measure;
pub mod normalize;
pub mod objective;
pub mod plot;
pub mod rank;
pub mod report;
pub mod separate;
pub mod stream;
pub mod svg;
pub mod trend;

pub use apriori::{
    forecast, kendall_tau, pareto_front, uniform_mix, weight_sensitivity, Sensitivity,
};
pub use bootstrap::{bootstrap_separate, BootstrapResult, Interval};
pub use car::{car, CarAnalysis, CarMetric};
pub use dominance::{dominates, Dominance};
pub use integrated::{integrated, integrated_equal};
pub use measure::RiskMeasure;
pub use normalize::{normalize_with, WaitNormalization};
pub use objective::{Focus, Objective};
pub use plot::{sample_figure1, Extrema, PolicySeries, RiskPlot};
pub use rank::{rank, RankBy, RankedPolicy};
pub use separate::separate;
pub use stream::Welford;
pub use trend::{Gradient, TrendLine};
