//! A small, dependency-free benchmark harness.
//!
//! The former criterion-based benches could not build in the offline
//! environment; this harness covers the throughput numbers the project
//! tracks (DES kernel, PS cluster, workload synthesis, per-policy
//! admission, grid cells — see `bin/bench_kernel.rs`) and emits them
//! machine-readably so CI (or a reviewer) can diff `BENCH_kernel.json`
//! across commits.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One benchmark measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Measurement {
    /// Benchmark name, e.g. `"des_kernel_schedule_pop"`.
    pub name: String,
    /// Work units processed per iteration (events, jobs, …).
    pub units_per_iter: u64,
    /// Number of timed iterations.
    pub iters: u64,
    /// Total wall-clock seconds across timed iterations.
    pub total_secs: f64,
    /// Mean seconds per iteration.
    pub secs_per_iter: f64,
    /// Fastest single iteration, seconds.
    pub best_secs_per_iter: f64,
    /// Work units per second of the *fastest* iteration
    /// (`units_per_iter / best_secs_per_iter`). Interference from a shared
    /// machine only ever slows an iteration down, so the minimum is the
    /// cleanest observation and the stable number to compare across runs.
    pub units_per_sec: f64,
}

/// One dated run in the committed benchmark trendline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Unix seconds when the run was recorded.
    pub recorded_unix_secs: u64,
    /// Free-form label (`CCS_BENCH_LABEL`), e.g. the PR topic.
    pub label: String,
    /// Whether the telemetry registry was on while measuring.
    pub telemetry_enabled: bool,
    /// The measurements, in execution order.
    pub measurements: Vec<Measurement>,
}

/// The committed trendline file: `BENCH_kernel.json` grows one
/// [`BenchEntry`] per full benchmark run (one per PR), so throughput
/// history is diffable in-repo and the CI gate always compares against the
/// *latest* entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchHistory {
    /// Always [`HISTORY_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Runs, oldest first.
    pub entries: Vec<BenchEntry>,
}

/// Current `BenchHistory::schema_version`.
pub const HISTORY_SCHEMA_VERSION: u32 = 3;

/// The one field every trendline schema shares.
#[derive(Deserialize)]
struct SchemaHeader {
    schema_version: u32,
}

/// Why a trendline file failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryError {
    /// The file is not a trendline of any schema.
    Parse(String),
    /// The file declares a schema version this build does not read.
    SchemaVersion(u32),
}

impl std::fmt::Display for HistoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistoryError::Parse(msg) => f.write_str(msg),
            HistoryError::SchemaVersion(v) => write!(
                f,
                "history schema version {v} (this build reads {HISTORY_SCHEMA_VERSION})"
            ),
        }
    }
}

impl std::error::Error for HistoryError {}

impl BenchHistory {
    /// An empty trendline at the current schema version.
    pub fn new() -> Self {
        BenchHistory {
            schema_version: HISTORY_SCHEMA_VERSION,
            entries: Vec::new(),
        }
    }

    /// The most recent run — what the CI bench gate compares against.
    pub fn latest(&self) -> Option<&BenchEntry> {
        self.entries.last()
    }

    /// Parses a trendline file. The schema version is read first, so a
    /// file of any other version (such as the single-run v2 report that
    /// preceded the trendline) fails as [`HistoryError::SchemaVersion`].
    pub fn from_json(text: &str) -> Result<BenchHistory, HistoryError> {
        let header: SchemaHeader = serde_json::from_str(text)
            .map_err(|e| HistoryError::Parse(format!("cannot parse history: {e}")))?;
        if header.schema_version != HISTORY_SCHEMA_VERSION {
            return Err(HistoryError::SchemaVersion(header.schema_version));
        }
        serde_json::from_str(text)
            .map_err(|e| HistoryError::Parse(format!("cannot parse history: {e}")))
    }

    /// Collapses runs of consecutive entries sharing a label, keeping the
    /// newest of each run; returns how many entries were dropped. Re-running
    /// the suite under one label (say, iterating on a PR) then supersedes
    /// the previous attempt instead of bloating the committed trendline.
    pub fn dedupe_consecutive(&mut self) -> usize {
        let before = self.entries.len();
        let mut i = 0;
        while i + 1 < self.entries.len() {
            if self.entries[i].label == self.entries[i + 1].label {
                self.entries.remove(i);
            } else {
                i += 1;
            }
        }
        before - self.entries.len()
    }

    /// Renders the trendline as TSV, one row per (entry, measurement) —
    /// the `bench_kernel --list` output, trivially greppable/cuttable.
    ///
    /// The final `delta_units_per_sec` column is the throughput change vs
    /// the same-named measurement in the *previous* trendline entry
    /// (`+12.3%` / `-4.0%`), so a regression is visible straight from the
    /// listing; `-` when there is no previous entry or the benchmark first
    /// appears in this one.
    pub fn to_tsv(&self) -> String {
        let mut s = String::from(
            "recorded_unix_secs\tlabel\ttelemetry\tbenchmark\tunits_per_sec\tbest_secs_per_iter\tdelta_units_per_sec\n",
        );
        for (i, e) in self.entries.iter().enumerate() {
            let prev = i.checked_sub(1).map(|p| &self.entries[p]);
            for m in &e.measurements {
                let delta = prev
                    .and_then(|p| p.measurements.iter().find(|pm| pm.name == m.name))
                    .filter(|pm| pm.units_per_sec > 0.0)
                    .map(|pm| {
                        format!(
                            "{:+.1}%",
                            (m.units_per_sec / pm.units_per_sec - 1.0) * 100.0
                        )
                    })
                    .unwrap_or_else(|| "-".to_string());
                s.push_str(&format!(
                    "{}\t{}\t{}\t{}\t{:.1}\t{:.9}\t{}\n",
                    e.recorded_unix_secs,
                    e.label,
                    e.telemetry_enabled,
                    m.name,
                    m.units_per_sec,
                    m.best_secs_per_iter,
                    delta
                ));
            }
        }
        s
    }
}

impl Default for BenchHistory {
    fn default() -> Self {
        BenchHistory::new()
    }
}

/// Times `f` (which processes `units` work units per call): a warm-up
/// call, then enough iterations to fill roughly `min_secs` of wall time.
///
/// `f` should return a value derived from its work so the optimiser
/// cannot delete the computation; the value is folded into a checksum.
pub fn measure<R: std::hash::Hash>(
    name: &str,
    units: u64,
    min_secs: f64,
    mut f: impl FnMut() -> R,
) -> Measurement {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::Hasher;
    let mut sink = DefaultHasher::new();

    // Warm-up and per-iteration estimate.
    let t0 = Instant::now();
    f().hash(&mut sink);
    let est = t0.elapsed().as_secs_f64().max(1e-9);

    let iters = ((min_secs / est).ceil() as u64).clamp(1, 1_000);
    // Time each iteration individually and report the fastest: a noisy
    // neighbour can only ever make an iteration slower, so the minimum is
    // the most reproducible estimate on a shared machine. (The per-iter
    // `Instant` reads cost tens of nanoseconds against iterations of at
    // least tens of microseconds.)
    let mut total_secs = 0.0f64;
    let mut best_secs_per_iter = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        f().hash(&mut sink);
        let dt = t0.elapsed().as_secs_f64();
        total_secs += dt;
        best_secs_per_iter = best_secs_per_iter.min(dt);
    }
    // Keep the checksum alive without polluting the report.
    std::hint::black_box(sink.finish());

    let secs_per_iter = total_secs / iters as f64;
    Measurement {
        name: name.to_string(),
        units_per_iter: units,
        iters,
        total_secs,
        secs_per_iter,
        best_secs_per_iter,
        units_per_sec: units as f64 / best_secs_per_iter.max(1e-12),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_counts_iterations_and_throughput() {
        let m = measure("spin", 1000, 0.01, || {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(m.iters >= 1);
        assert!(m.total_secs > 0.0);
        assert!(m.units_per_sec > 0.0);
        assert_eq!(m.units_per_iter, 1000);
        assert!(
            m.best_secs_per_iter <= m.secs_per_iter,
            "the fastest iteration cannot be slower than the mean"
        );
    }

    #[test]
    fn history_round_trips() {
        let mut history = BenchHistory::new();
        history.entries.push(BenchEntry {
            recorded_unix_secs: 1_700_000_000,
            label: "next".to_string(),
            telemetry_enabled: false,
            measurements: vec![measure("tiny", 1, 0.001, || 7u64)],
        });
        let json = serde_json::to_string_pretty(&history).unwrap();
        let back = BenchHistory::from_json(&json).unwrap();
        assert_eq!(back.schema_version, HISTORY_SCHEMA_VERSION);
        assert_eq!(back.entries.len(), 1);
        assert_eq!(back.latest().unwrap().label, "next");
    }

    #[test]
    fn history_refuses_unknown_schema() {
        let json = r#"{"schema_version": 9, "entries": []}"#;
        let err = BenchHistory::from_json(json).unwrap_err();
        assert_eq!(err, HistoryError::SchemaVersion(9));
        assert!(err.to_string().contains("schema version 9"), "{err}");

        // The single-run v2 report that preceded the trendline.
        let legacy = r#"{"schema_version": 2, "telemetry_enabled": false, "measurements": []}"#;
        let err = BenchHistory::from_json(legacy).unwrap_err();
        assert_eq!(err, HistoryError::SchemaVersion(2));

        let err = BenchHistory::from_json("not json").unwrap_err();
        assert!(matches!(err, HistoryError::Parse(_)), "{err:?}");
    }

    fn entry(label: &str, at: u64) -> BenchEntry {
        BenchEntry {
            recorded_unix_secs: at,
            label: label.to_string(),
            telemetry_enabled: false,
            measurements: vec![measure("tiny", 1, 0.001, || at)],
        }
    }

    #[test]
    fn dedupe_keeps_newest_of_consecutive_same_label_runs() {
        let mut history = BenchHistory::new();
        history.entries = vec![
            entry("pr-1", 10),
            entry("pr-2", 20),
            entry("pr-2", 30),
            entry("pr-2", 40),
            entry("pr-3", 50),
            // A label reappearing later is a distinct run, not a duplicate.
            entry("pr-2", 60),
        ];
        let dropped = history.dedupe_consecutive();
        assert_eq!(dropped, 2);
        let kept: Vec<(u64, &str)> = history
            .entries
            .iter()
            .map(|e| (e.recorded_unix_secs, e.label.as_str()))
            .collect();
        assert_eq!(
            kept,
            vec![(10, "pr-1"), (40, "pr-2"), (50, "pr-3"), (60, "pr-2")]
        );
        assert_eq!(history.dedupe_consecutive(), 0, "idempotent");
    }

    #[test]
    fn tsv_lists_one_row_per_measurement() {
        let mut history = BenchHistory::new();
        history.entries = vec![entry("a", 1), entry("b", 2)];
        let tsv = history.to_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines.len(), 3, "{tsv}");
        assert!(lines[0].starts_with("recorded_unix_secs\tlabel\t"));
        assert!(lines[0].ends_with("\tdelta_units_per_sec"));
        assert!(lines[1].starts_with("1\ta\tfalse\ttiny\t"));
        assert!(lines[2].starts_with("2\tb\tfalse\ttiny\t"));
        // Every row is as wide as the header.
        let width = lines[0].split('\t').count();
        assert!(lines.iter().all(|l| l.split('\t').count() == width));
    }

    #[test]
    fn tsv_delta_column_compares_against_previous_entry() {
        fn fixed(name: &str, units_per_sec: f64) -> Measurement {
            Measurement {
                name: name.to_string(),
                units_per_iter: 1,
                iters: 1,
                total_secs: 1.0,
                secs_per_iter: 1.0,
                best_secs_per_iter: 1.0,
                units_per_sec,
            }
        }
        let mut history = BenchHistory::new();
        history.entries = vec![
            BenchEntry {
                recorded_unix_secs: 1,
                label: "old".to_string(),
                telemetry_enabled: false,
                measurements: vec![fixed("kernel", 100.0)],
            },
            BenchEntry {
                recorded_unix_secs: 2,
                label: "new".to_string(),
                telemetry_enabled: false,
                measurements: vec![fixed("kernel", 125.0), fixed("fresh", 9.0)],
            },
        ];
        let tsv = history.to_tsv();
        let last = |name: &str| {
            tsv.lines()
                .find(|l| l.contains(&format!("\t{name}\t")))
                .unwrap()
                .rsplit('\t')
                .next()
                .unwrap()
                .to_string()
        };
        // The first entry has nothing to compare against.
        assert_eq!(last("kernel"), "-");
        let row = tsv
            .lines()
            .filter(|l| l.contains("\tkernel\t"))
            .nth(1)
            .unwrap();
        assert!(row.ends_with("\t+25.0%"), "{tsv}");
        // A benchmark first appearing in the newest entry has no baseline.
        let fresh = tsv.lines().find(|l| l.contains("\tfresh\t")).unwrap();
        assert!(fresh.ends_with("\t-"), "{tsv}");
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = entry("tiny", 42);
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: BenchEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(back.recorded_unix_secs, 42);
        assert_eq!(back.measurements.len(), 1);
        assert_eq!(back.measurements[0].name, "tiny");
    }
}
