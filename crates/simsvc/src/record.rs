//! Per-job outcome records, for drill-down analysis and the examples.

use ccs_workload::JobId;
use serde::{Deserialize, Serialize};

/// What happened to one submitted job.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// The job.
    pub id: JobId,
    /// Whether its SLA was accepted.
    pub accepted: bool,
    /// Time the accept/reject decision was made.
    pub decided_at: f64,
    /// Execution start time (accepted jobs only).
    pub started_at: Option<f64>,
    /// Completion time (accepted jobs only).
    pub finished_at: Option<f64>,
    /// Whether the job completed within its deadline.
    pub fulfilled: bool,
    /// Utility the provider earned from this job (0 for rejected jobs;
    /// negative = net penalty in the bid-based model).
    pub utility: f64,
}

impl JobRecord {
    /// A rejected-job record.
    pub(crate) fn rejected(id: JobId, at: f64) -> Self {
        JobRecord {
            id,
            accepted: false,
            decided_at: at,
            started_at: None,
            finished_at: None,
            fulfilled: false,
            utility: 0.0,
        }
    }

    /// Wait time for SLA acceptance (start − submit) given the submit time.
    pub fn wait(&self, submit: f64) -> Option<f64> {
        self.started_at.map(|s| (s - submit).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejected_record_shape() {
        let r = JobRecord::rejected(3, 42.0);
        assert!(!r.accepted);
        assert!(!r.fulfilled);
        assert_eq!(r.utility, 0.0);
        assert_eq!(r.wait(0.0), None);
    }

    #[test]
    fn wait_computation() {
        let r = JobRecord {
            id: 1,
            accepted: true,
            decided_at: 10.0,
            started_at: Some(25.0),
            finished_at: Some(100.0),
            fulfilled: true,
            utility: 5.0,
        };
        assert_eq!(r.wait(10.0), Some(15.0));
    }
}
