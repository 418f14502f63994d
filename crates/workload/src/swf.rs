//! Standard Workload Format (SWF) parsing and writing.
//!
//! SWF is the format of the Parallel Workloads Archive (Feitelson). Each
//! non-comment line has 18 whitespace-separated fields; `-1` marks a missing
//! value. This module parses the fields the simulation needs and can write
//! them back out, so synthetic workloads can also be exported for use with
//! other tools.

use crate::job::{BaseJob, JobId};
use std::fmt::Write as _;

/// One raw SWF record (all 18 fields, unvalidated).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SwfRecord {
    /// Field 1: job number.
    pub job_number: i64,
    /// Field 2: submit time (s).
    pub submit: f64,
    /// Field 3: wait time (s).
    pub wait: f64,
    /// Field 4: run time (s).
    pub runtime: f64,
    /// Field 5: number of allocated processors.
    pub used_procs: i64,
    /// Field 6: average CPU time used (s).
    pub avg_cpu: f64,
    /// Field 7: used memory (KB).
    pub used_mem: f64,
    /// Field 8: requested number of processors.
    pub req_procs: i64,
    /// Field 9: requested time — the user runtime estimate (s).
    pub req_time: f64,
    /// Field 10: requested memory (KB).
    pub req_mem: f64,
    /// Field 11: completion status.
    pub status: i64,
    /// Field 12: user id.
    pub uid: i64,
    /// Field 13: group id.
    pub gid: i64,
    /// Field 14: executable (application) number.
    pub exe: i64,
    /// Field 15: queue number.
    pub queue: i64,
    /// Field 16: partition number.
    pub partition: i64,
    /// Field 17: preceding job number.
    pub preceding: i64,
    /// Field 18: think time from preceding job (s).
    pub think_time: f64,
}

/// Error produced while parsing an SWF document.
#[derive(Debug, Clone, PartialEq)]
pub struct SwfError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for SwfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SWF parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SwfError {}

/// Parses an SWF document (text) into records, skipping `;` comment lines
/// and blank lines.
pub fn parse(text: &str) -> Result<Vec<SwfRecord>, SwfError> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 18 {
            return Err(SwfError {
                line: idx + 1,
                message: format!("expected 18 fields, found {}", fields.len()),
            });
        }
        let f_i64 = |k: usize| -> Result<i64, SwfError> {
            fields[k].parse::<i64>().map_err(|e| SwfError {
                line: idx + 1,
                message: format!("field {}: {e}", k + 1),
            })
        };
        let f_f64 = |k: usize| -> Result<f64, SwfError> {
            fields[k].parse::<f64>().map_err(|e| SwfError {
                line: idx + 1,
                message: format!("field {}: {e}", k + 1),
            })
        };
        out.push(SwfRecord {
            job_number: f_i64(0)?,
            submit: f_f64(1)?,
            wait: f_f64(2)?,
            runtime: f_f64(3)?,
            used_procs: f_i64(4)?,
            avg_cpu: f_f64(5)?,
            used_mem: f_f64(6)?,
            req_procs: f_i64(7)?,
            req_time: f_f64(8)?,
            req_mem: f_f64(9)?,
            status: f_i64(10)?,
            uid: f_i64(11)?,
            gid: f_i64(12)?,
            exe: f_i64(13)?,
            queue: f_i64(14)?,
            partition: f_i64(15)?,
            preceding: f_i64(16)?,
            think_time: f_f64(17)?,
        });
    }
    Ok(out)
}

/// Serializes records back to SWF text (one line per record, no header).
pub fn write(records: &[SwfRecord]) -> String {
    let mut s = String::with_capacity(records.len() * 80);
    for r in records {
        let _ = writeln!(
            s,
            "{} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
            r.job_number,
            r.submit,
            r.wait,
            r.runtime,
            r.used_procs,
            r.avg_cpu,
            r.used_mem,
            r.req_procs,
            r.req_time,
            r.req_mem,
            r.status,
            r.uid,
            r.gid,
            r.exe,
            r.queue,
            r.partition,
            r.preceding,
            r.think_time
        );
    }
    s
}

/// Converts SWF records into [`BaseJob`]s suitable for simulation.
///
/// Filtering matches common methodology: jobs must have finite submit,
/// run and requested times, a positive runtime, and a processor count no
/// larger than `max_procs`. Missing processor counts
/// fall back from requested to used; missing estimates fall back to the
/// runtime itself (a perfectly accurate estimate). Submit times are shifted
/// so the first job arrives at t = 0, and `last_n` (if given) keeps only the
/// trailing subset — the paper uses the last 5000 jobs of SDSC SP2.
pub fn to_base_jobs(records: &[SwfRecord], max_procs: u32, last_n: Option<usize>) -> Vec<BaseJob> {
    let mut jobs: Vec<BaseJob> = records
        .iter()
        .filter_map(|r| {
            let procs = if r.req_procs > 0 {
                r.req_procs
            } else {
                r.used_procs
            };
            // A NaN or infinite time would pass the comparisons below and
            // wedge a simulation that schedules by it.
            let finite = [r.submit, r.runtime, r.req_time]
                .iter()
                .all(|t| t.is_finite());
            if !finite || r.runtime <= 0.0 || procs <= 0 || procs > max_procs as i64 {
                return None;
            }
            let estimate = if r.req_time > 0.0 {
                r.req_time
            } else {
                r.runtime
            };
            Some(BaseJob {
                id: 0, // assigned after filtering
                submit: r.submit,
                runtime: r.runtime,
                trace_estimate: estimate,
                procs: procs as u32,
            })
        })
        .collect();
    jobs.sort_by(|a, b| a.submit.total_cmp(&b.submit));
    if let Some(n) = last_n {
        if jobs.len() > n {
            jobs.drain(..jobs.len() - n);
        }
    }
    let t0 = jobs.first().map(|j| j.submit).unwrap_or(0.0);
    for (i, j) in jobs.iter_mut().enumerate() {
        j.id = i as JobId;
        j.submit -= t0;
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; SDSC SP2 sample
; MaxProcs: 128
1 0 10 3600 8 -1 -1 8 7200 -1 1 1 1 1 1 1 -1 -1
2 100 0 60 4 -1 -1 4 120 -1 1 2 1 1 1 1 -1 -1
3 250 5 -1 16 -1 -1 16 500 -1 0 3 1 1 1 1 -1 -1
4 300 5 500 0 -1 -1 0 600 -1 1 3 1 1 1 1 -1 -1
5 400 5 500 256 -1 -1 256 600 -1 1 3 1 1 1 1 -1 -1
";

    #[test]
    fn parses_fields_and_skips_comments() {
        let recs = parse(SAMPLE).unwrap();
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[0].job_number, 1);
        assert_eq!(recs[0].runtime, 3600.0);
        assert_eq!(recs[0].req_time, 7200.0);
        assert_eq!(recs[1].req_procs, 4);
    }

    #[test]
    fn rejects_malformed_lines() {
        let err = parse("1 2 3\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("18 fields"));

        let err = parse("1 0 10 x 8 -1 -1 8 7200 -1 1 1 1 1 1 1 -1 -1\n").unwrap_err();
        assert!(err.message.contains("field 4"));
    }

    #[test]
    fn filtering_drops_invalid_jobs() {
        let recs = parse(SAMPLE).unwrap();
        let jobs = to_base_jobs(&recs, 128, None);
        // Job 3 has runtime -1, job 4 has 0 procs, job 5 exceeds 128 procs.
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].procs, 8);
        assert_eq!(jobs[1].procs, 4);
    }

    #[test]
    fn submit_times_rebased_and_ids_dense() {
        let recs = parse(SAMPLE).unwrap();
        let jobs = to_base_jobs(&recs, 128, None);
        assert_eq!(jobs[0].submit, 0.0);
        assert_eq!(jobs[1].submit, 100.0);
        assert_eq!(jobs[0].id, 0);
        assert_eq!(jobs[1].id, 1);
    }

    #[test]
    fn last_n_keeps_trailing_subset() {
        let recs = parse(SAMPLE).unwrap();
        let jobs = to_base_jobs(&recs, 128, Some(1));
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].runtime, 60.0);
        assert_eq!(jobs[0].submit, 0.0, "rebased to the subset start");
    }

    #[test]
    fn round_trip() {
        let recs = parse(SAMPLE).unwrap();
        let text = write(&recs);
        let again = parse(&text).unwrap();
        assert_eq!(recs, again);
    }

    #[test]
    fn filtering_drops_non_finite_times() {
        let good = "1 0 0 100 4 -1 -1 4 200 -1 1 1 1 1 1 1 -1 -1\n";
        let bad = [
            "2 NaN 0 100 4 -1 -1 4 200 -1 1 1 1 1 1 1 -1 -1\n",
            "3 10 0 NaN 4 -1 -1 4 200 -1 1 1 1 1 1 1 -1 -1\n",
            "4 10 0 inf 4 -1 -1 4 200 -1 1 1 1 1 1 1 -1 -1\n",
            "5 10 0 100 4 -1 -1 4 NaN -1 1 1 1 1 1 1 -1 -1\n",
            "6 -inf 0 100 4 -1 -1 4 inf -1 1 1 1 1 1 1 -1 -1\n",
        ];
        let recs = parse(&(good.to_string() + &bad.concat())).unwrap();
        assert_eq!(recs.len(), 6, "the parser reads every line");
        let jobs = to_base_jobs(&recs, 128, None);
        assert_eq!(jobs.len(), 1, "{jobs:?}");
        assert_eq!((jobs[0].runtime, jobs[0].trace_estimate), (100.0, 200.0));
    }

    #[test]
    fn missing_estimate_falls_back_to_runtime() {
        let line = "1 0 0 100 4 -1 -1 4 -1 -1 1 1 1 1 1 1 -1 -1\n";
        let jobs = to_base_jobs(&parse(line).unwrap(), 128, None);
        assert_eq!(jobs[0].trace_estimate, 100.0);
    }
}
