//! Machine-readable export of evaluation results.
//!
//! `utility_risk all` (and downstream users) can persist the entire analysis as
//! JSON — every separate risk measure per (economic model, estimate set,
//! scenario, policy, objective) — so figures can be re-rendered, diffed
//! across versions, or consumed by external tooling without re-running the
//! 1560 simulations.

use crate::analysis::GridAnalysis;
use crate::scenario::Scenario;
use crate::Evaluation;
use ccs_risk::Objective;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// Serializable snapshot of a full evaluation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EvaluationExport {
    /// Version marker of the export schema.
    pub schema: u32,
    /// The scenario labels, in grid order.
    pub scenarios: Vec<String>,
    /// The objective abbreviations, in array order.
    pub objectives: Vec<String>,
    /// The four grids.
    pub grids: Vec<GridAnalysis>,
}

/// Current export schema version.
pub(crate) const SCHEMA_VERSION: u32 = 1;

impl EvaluationExport {
    /// Builds an export from an evaluation.
    pub fn from_evaluation(ev: &Evaluation) -> Self {
        EvaluationExport {
            schema: SCHEMA_VERSION,
            scenarios: Scenario::ALL.iter().map(|s| s.label()).collect(),
            objectives: Objective::ALL
                .iter()
                .map(|o| o.abbrev().to_string())
                .collect(),
            grids: vec![
                ev.commodity_a.clone(),
                ev.commodity_b.clone(),
                ev.bid_a.clone(),
                ev.bid_b.clone(),
            ],
        }
    }

    /// Serializes to pretty JSON.
    pub(crate) fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("export serialization cannot fail")
    }

    /// Parses an export back from JSON.
    #[cfg(test)]
    pub(crate) fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Writes the export to `path` atomically (temp file + fsync +
    /// rename): a crash mid-write can never leave a torn export behind.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        crate::atomic::write_atomic(path, self.to_json().as_bytes())
    }

    /// Reads an export from `path`.
    #[cfg(test)]
    pub(crate) fn read(path: &Path) -> io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_evaluation, ExperimentConfig, GridControl};

    fn quick_export() -> EvaluationExport {
        let cfg = ExperimentConfig::quick().with_jobs(40);
        let ev = run_evaluation(&cfg, &GridControl::default()).unwrap();
        EvaluationExport::from_evaluation(&ev)
    }

    #[test]
    fn round_trip_preserves_every_measure() {
        let ex = quick_export();
        let back = EvaluationExport::from_json(&ex.to_json()).unwrap();
        assert_eq!(back.schema, SCHEMA_VERSION);
        assert_eq!(back.scenarios.len(), 13);
        assert_eq!(
            back.objectives,
            vec!["wait", "SLA", "reliability", "profitability"]
        );
        assert_eq!(back.grids.len(), 4);
        for (a, b) in ex.grids.iter().zip(&back.grids) {
            assert_eq!(a.policy_names, b.policy_names);
            for (ra, rb) in a.separate.iter().zip(&b.separate) {
                for (pa, pb) in ra.iter().zip(rb) {
                    for (ma, mb) in pa.iter().zip(pb) {
                        // JSON text round-trips floats to within an ULP.
                        assert!((ma.performance - mb.performance).abs() < 1e-12);
                        assert!((ma.volatility - mb.volatility).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn file_round_trip() {
        let ex = quick_export();
        let path = std::env::temp_dir().join("ccs_export_test/evaluation.json");
        ex.write(&path).unwrap();
        let back = EvaluationExport::read(&path).unwrap();
        assert_eq!(back.grids.len(), 4);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn rejects_corrupt_json() {
        assert!(EvaluationExport::from_json("{not json").is_err());
        assert!(EvaluationExport::from_json("{}").is_err());
    }
}
