//! Crash-safe grid checkpointing: a JSONL journal of completed cells.
//!
//! Every finished grid cell (one policy at one scenario value) appends one
//! [`CellRecord`] line, keyed by a provenance hash over everything that
//! determines the cell's result (seed, trace size, cluster size, economic
//! model, estimate set, scenario, value, policy, fault parameters). A rerun
//! with `--resume <journal>` loads the file and skips every cell whose key
//! matches — so a run killed halfway (or one that lost cells to a panicking
//! policy) only pays for the missing cells, and the merged report is
//! byte-identical to an uninterrupted run.
//!
//! Cells that *fail* (panic) are never journaled: a resume retries them.

use crate::grid::ExperimentConfig;
use crate::scenario::{EstimateSet, Scenario};
use ccs_economy::EconomicModel;
use ccs_policies::PolicyKind;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Why a grid cell failed instead of completing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellErrorKind {
    /// The cell's policy panicked; the panic was confined to the cell.
    Panic,
    /// The cell exceeded its per-cell watchdog budget (wall clock or event
    /// count) and was cancelled cooperatively inside the simulation loop.
    Budget,
    /// The cell simulated to completion but the online invariant engine
    /// found violations, so its numbers cannot be trusted.
    Invariant,
    /// The multi-process supervisor retried the cell K times (worker
    /// crashes, heartbeat timeouts, protocol errors, or panics) and gave
    /// up — a poison cell, quarantined so the sweep can finish around it.
    Quarantine,
}

/// One grid cell that failed instead of completing. The grid reports
/// these (and the run exits nonzero) rather than aborting the whole sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellError {
    /// Scenario label.
    pub scenario: String,
    /// Scenario index into [`Scenario::ALL`].
    pub scenario_idx: usize,
    /// Scenario value index, 0..6.
    pub value_idx: usize,
    /// Policy display name.
    pub policy: String,
    /// How the cell failed.
    pub kind: CellErrorKind,
    /// The panic payload, budget diagnostic, or violation summary, as text.
    pub message: String,
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verb = match self.kind {
            CellErrorKind::Panic => "panicked",
            CellErrorKind::Budget => "exceeded its budget",
            CellErrorKind::Invariant => "violated invariants",
            CellErrorKind::Quarantine => "was quarantined",
        };
        write!(
            f,
            "cell [{} @ value {} / {}] {verb}: {}",
            self.scenario, self.value_idx, self.policy, self.message
        )
    }
}

/// One completed grid cell, as journaled.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellRecord {
    /// Provenance hash of everything that determines this cell's result.
    pub key: String,
    /// Scenario index into [`Scenario::ALL`] (for human inspection).
    pub scenario_idx: usize,
    /// Scenario value index, 0..6.
    pub value_idx: usize,
    /// Policy display name.
    pub policy: String,
    /// The cell's objective row `[wait, SLA, reliability, profitability]` —
    /// the replica mean μ when the cell ran as a seed ensemble.
    pub objectives: [f64; 4],
    /// Per-objective population standard deviation across the cell's seed
    /// replicas (all zeros for single-replica cells). Journals written
    /// before this field existed fail line-parse and re-run, like any
    /// schema change.
    pub sigma: [f64; 4],
    /// Wall-clock seconds the cell originally took.
    pub secs: f64,
    /// Simulation outcomes the cell produced. Journals written before this
    /// field existed fail to parse line by line and are simply re-run —
    /// the same graceful degradation as a torn line.
    pub events: u64,
    /// 1-based id of the worker (thread or process) that simulated the
    /// cell; 0 when unattributed. Pre-existing journals without this field
    /// fail line-parse and re-run, like any schema change.
    pub worker: u64,
}

/// A journal file's text. Bytes that are not UTF-8 (a corrupt line) are
/// replaced, so that line fails to parse and is skipped like a torn one
/// instead of failing the whole read.
fn read_text(path: &Path) -> std::io::Result<String> {
    Ok(String::from_utf8_lossy(&std::fs::read(path)?).into_owned())
}

/// The non-empty lines of journal text, each with its record when it
/// parses; torn and corrupt lines carry `None`.
fn lines(text: &str) -> impl Iterator<Item = (&str, Option<CellRecord>)> {
    text.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty())
        .map(|line| (line, serde_json::from_str(line).ok()))
}

/// Append-only JSONL journal of completed cells, shared across grid worker
/// threads.
#[derive(Debug)]
pub struct Journal {
    /// Previously journaled cells, by provenance key.
    seen: HashMap<String, CellRecord>,
    writer: Mutex<std::fs::File>,
}

impl Journal {
    /// Opens (creating if missing) the journal at `path` and loads every
    /// parseable record already in it. Torn trailing lines — the expected
    /// residue of a killed run — are skipped, not fatal, and terminated
    /// with a newline so the next append starts a line of its own.
    pub fn open(path: &Path) -> std::io::Result<Journal> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut seen = HashMap::new();
        if let Ok(text) = read_text(path) {
            if !text.is_empty() && !text.ends_with('\n') {
                file.write_all(b"\n")?;
            }
            for rec in lines(&text).filter_map(|(_, rec)| rec) {
                seen.insert(rec.key.clone(), rec);
            }
        }
        Ok(Journal {
            seen,
            writer: Mutex::new(file),
        })
    }

    /// Number of cells loaded from disk at open time.
    pub fn loaded(&self) -> usize {
        self.seen.len()
    }

    /// A previously completed cell, if this exact cell was journaled.
    pub fn get(&self, key: &str) -> Option<&CellRecord> {
        self.seen.get(key)
    }

    /// Appends one completed cell and flushes it to disk immediately, so a
    /// crash right after loses nothing.
    pub fn append(&self, rec: &CellRecord) {
        let line = serde_json::to_string(rec).expect("CellRecord serialises");
        let mut w = self.writer.lock().unwrap();
        // One write call per line keeps concurrent appends line-atomic on
        // POSIX O_APPEND files.
        let _ = w.write_all(format!("{line}\n").as_bytes());
        let _ = w.flush();
    }

    /// Compacts the journal at `path` in place: keeps exactly one line per
    /// cell key (the last record wins, preserving first-appearance order)
    /// and drops torn or unparseable lines. The rewrite is atomic — a crash
    /// mid-compaction leaves the original file untouched. Returns `(lines
    /// read, records kept)`.
    pub fn compact(path: &Path) -> std::io::Result<(usize, usize)> {
        let text = read_text(path)?;
        let mut order: Vec<String> = Vec::new();
        let mut latest: HashMap<String, String> = HashMap::new();
        let mut read = 0usize;
        for (line, rec) in lines(&text) {
            read += 1;
            if let Some(rec) = rec {
                if latest.insert(rec.key.clone(), line.to_string()).is_none() {
                    order.push(rec.key);
                }
            }
        }
        let mut out = String::new();
        for key in &order {
            out.push_str(&latest[key]);
            out.push('\n');
        }
        crate::atomic::write_atomic(path, out.as_bytes())?;
        Ok((read, order.len()))
    }

    /// The per-worker shard journal path derived from a primary journal:
    /// `<primary>.shard<worker_id>`. Workers append to their own shard so
    /// no two processes ever write one file; [`Journal::merge_shards`]
    /// folds the shards back into the primary.
    pub(crate) fn shard_path(primary: &Path, worker_id: u64) -> PathBuf {
        let mut name = primary
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "journal".to_string());
        name.push_str(&format!(".shard{worker_id}"));
        primary.with_file_name(name)
    }

    /// Folds every `<primary>.shard*` file next to `primary` into the
    /// primary journal, then deletes the shards. Records whose key the
    /// primary already holds are skipped (the primary wins — it was
    /// written by the supervisor as results arrived; shards only add
    /// cells that completed after the supervisor last heard about them).
    /// Shard files are parsed with the same torn-line tolerance as
    /// [`Journal::open`]: a worker killed mid-append leaves a torn tail,
    /// which is skipped, not fatal. Returns `(shards merged, records
    /// adopted)`.
    pub(crate) fn merge_shards(primary: &Path) -> std::io::Result<(usize, usize)> {
        let dir = match primary.parent().filter(|d| !d.as_os_str().is_empty()) {
            Some(d) => d.to_path_buf(),
            None => PathBuf::from("."),
        };
        let Some(name) = primary
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
        else {
            return Ok((0, 0));
        };
        let prefix = format!("{name}.shard");
        let mut shards: Vec<PathBuf> = Vec::new();
        match std::fs::read_dir(&dir) {
            Ok(entries) => {
                for entry in entries.flatten() {
                    if entry.file_name().to_string_lossy().starts_with(&prefix) {
                        shards.push(entry.path());
                    }
                }
            }
            Err(_) => return Ok((0, 0)),
        }
        if shards.is_empty() {
            return Ok((0, 0));
        }
        shards.sort();
        let journal = Journal::open(primary)?;
        let mut adopted_keys: std::collections::HashSet<String> = std::collections::HashSet::new();
        let mut adopted = 0usize;
        for shard in &shards {
            if let Ok(text) = read_text(shard) {
                for rec in lines(&text).filter_map(|(_, rec)| rec) {
                    if journal.get(&rec.key).is_none() && adopted_keys.insert(rec.key.clone()) {
                        journal.append(&rec);
                        adopted += 1;
                    }
                }
            }
        }
        for shard in &shards {
            let _ = std::fs::remove_file(shard);
        }
        Ok((shards.len(), adopted))
    }
}

/// Provenance hash of one grid cell: FNV-1a over a canonical description of
/// every input that determines its result. Any change — seed, trace size,
/// cluster size, economic model, estimate set, scenario definition, fault
/// parameters, policy — changes the key, so a stale journal can never leak
/// wrong numbers into a resumed run.
pub fn cell_key(
    econ: EconomicModel,
    set: EstimateSet,
    cfg: &ExperimentConfig,
    scenario_idx: usize,
    value_idx: usize,
    policy: PolicyKind,
) -> String {
    let scenario = Scenario::ALL[scenario_idx];
    let value = scenario.values()[value_idx];
    let fault = scenario.fault(value, cfg.seed);
    let canon = format!(
        "v2|seed={}|nodes={}|jobs={}|interarrival={}|econ={:?}|set={:?}|scenario={:?}|value={}|policy={:?}|fault={:?}|replicas={}",
        cfg.seed,
        cfg.nodes,
        cfg.trace.jobs,
        cfg.trace.mean_interarrival,
        econ,
        set,
        scenario,
        value,
        policy,
        fault,
        cfg.replicas.max(1),
    );
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canon.as_bytes() {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(key: &str, idx: usize) -> CellRecord {
        CellRecord {
            key: key.to_string(),
            scenario_idx: idx,
            value_idx: 1,
            policy: "FCFS-BF".to_string(),
            objectives: [1.0, 2.0, 3.0, 4.0],
            sigma: [0.0; 4],
            secs: 0.5,
            events: 123,
            worker: 1,
        }
    }

    #[test]
    fn round_trips_records_and_survives_torn_lines() {
        let dir = std::env::temp_dir().join("ccs_journal_test_roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("journal.jsonl");
        {
            let j = Journal::open(&path).unwrap();
            assert_eq!(j.loaded(), 0);
            j.append(&rec("aaaa", 0));
            j.append(&rec("bbbb", 1));
        }
        // Simulate a crash mid-append: a torn, unparseable trailing line,
        // here cut inside a multi-byte character.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"{\"key\":\"cc\xe2\x82").unwrap();
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.loaded(), 2);
        assert_eq!(j.get("aaaa"), Some(&rec("aaaa", 0)));
        assert_eq!(j.get("bbbb"), Some(&rec("bbbb", 1)));
        assert_eq!(j.get("cccc"), None);
        // A record appended after reopening over the torn tail starts a
        // line of its own, so it survives the next open.
        j.append(&rec("dddd", 3));
        drop(j);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.loaded(), 3);
        assert_eq!(j.get("dddd"), Some(&rec("dddd", 3)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_keeps_last_record_per_key_and_drops_torn_lines() {
        let dir = std::env::temp_dir().join("ccs_journal_test_compact");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("journal.jsonl");
        {
            let j = Journal::open(&path).unwrap();
            j.append(&rec("aaaa", 0));
            j.append(&rec("bbbb", 1));
            j.append(&rec("aaaa", 7)); // rewrite of aaaa: last wins
        }
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"key\":\"torn").unwrap();
        }
        let (read, kept) = Journal::compact(&path).unwrap();
        assert_eq!((read, kept), (4, 2));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        // Order of first appearance is preserved; the duplicate key holds
        // its latest record.
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.loaded(), 2);
        assert_eq!(j.get("aaaa"), Some(&rec("aaaa", 7)));
        assert_eq!(j.get("bbbb"), Some(&rec("bbbb", 1)));
        // Compaction is idempotent.
        assert_eq!(Journal::compact(&path).unwrap(), (2, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_error_display_words_the_failure_by_kind() {
        let mut e = CellError {
            scenario: "deadline mean (Set A)".to_string(),
            scenario_idx: 0,
            value_idx: 1,
            policy: "FCFS-BF".to_string(),
            kind: CellErrorKind::Panic,
            message: "boom".to_string(),
        };
        assert!(e.to_string().contains("panicked: boom"));
        e.kind = CellErrorKind::Budget;
        assert!(e.to_string().contains("exceeded its budget: boom"));
        e.kind = CellErrorKind::Invariant;
        assert!(e.to_string().contains("violated invariants: boom"));
        e.kind = CellErrorKind::Quarantine;
        assert!(e.to_string().contains("was quarantined: boom"));
    }

    #[test]
    fn merge_shards_adopts_deduplicates_and_deletes() {
        let dir = std::env::temp_dir().join("ccs_journal_test_merge");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("journal.jsonl");
        {
            let j = Journal::open(&path).unwrap();
            j.append(&rec("aaaa", 0));
        }
        // Shard 1 holds one duplicate of the primary and one new record;
        // shard 2 holds a record duplicated across shards plus a torn tail.
        {
            let s1 = Journal::open(&Journal::shard_path(&path, 1)).unwrap();
            s1.append(&rec("aaaa", 9)); // primary wins
            s1.append(&rec("bbbb", 1));
            s1.append(&rec("cccc", 2));
            let s2 = Journal::open(&Journal::shard_path(&path, 2)).unwrap();
            s2.append(&rec("cccc", 8)); // first shard wins
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(Journal::shard_path(&path, 2))
                .unwrap();
            write!(f, "{{\"key\":\"torn").unwrap();
        }
        let (shards, adopted) = Journal::merge_shards(&path).unwrap();
        assert_eq!((shards, adopted), (2, 2));
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.loaded(), 3);
        assert_eq!(j.get("aaaa"), Some(&rec("aaaa", 0)), "primary wins");
        assert_eq!(j.get("bbbb"), Some(&rec("bbbb", 1)));
        assert_eq!(j.get("cccc"), Some(&rec("cccc", 2)), "first shard wins");
        // Shard files are consumed; a second merge is a no-op.
        assert!(!Journal::shard_path(&path, 1).exists());
        assert!(!Journal::shard_path(&path, 2).exists());
        assert_eq!(Journal::merge_shards(&path).unwrap(), (0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_path_appends_worker_suffix() {
        let p = Path::new("/tmp/x/journal.jsonl");
        assert_eq!(
            Journal::shard_path(p, 3),
            Path::new("/tmp/x/journal.jsonl.shard3")
        );
    }

    #[test]
    fn keys_separate_every_provenance_dimension() {
        let cfg = ExperimentConfig::quick();
        let base = cell_key(
            EconomicModel::CommodityMarket,
            EstimateSet::A,
            &cfg,
            0,
            0,
            PolicyKind::FcfsBf,
        );
        let mut other_seed = cfg;
        other_seed.seed += 1;
        let ensemble = cfg.with_replicas(3);
        let variants = [
            cell_key(
                EconomicModel::CommodityMarket,
                EstimateSet::A,
                &ensemble,
                0,
                0,
                PolicyKind::FcfsBf,
            ),
            cell_key(
                EconomicModel::BidBased,
                EstimateSet::A,
                &cfg,
                0,
                0,
                PolicyKind::FcfsBf,
            ),
            cell_key(
                EconomicModel::CommodityMarket,
                EstimateSet::B,
                &cfg,
                0,
                0,
                PolicyKind::FcfsBf,
            ),
            cell_key(
                EconomicModel::CommodityMarket,
                EstimateSet::A,
                &other_seed,
                0,
                0,
                PolicyKind::FcfsBf,
            ),
            cell_key(
                EconomicModel::CommodityMarket,
                EstimateSet::A,
                &cfg,
                1,
                0,
                PolicyKind::FcfsBf,
            ),
            cell_key(
                EconomicModel::CommodityMarket,
                EstimateSet::A,
                &cfg,
                0,
                1,
                PolicyKind::FcfsBf,
            ),
            cell_key(
                EconomicModel::CommodityMarket,
                EstimateSet::A,
                &cfg,
                0,
                0,
                PolicyKind::SjfBf,
            ),
        ];
        for v in &variants {
            assert_ne!(&base, v);
        }
        // Deterministic: same inputs, same key.
        assert_eq!(
            base,
            cell_key(
                EconomicModel::CommodityMarket,
                EstimateSet::A,
                &cfg,
                0,
                0,
                PolicyKind::FcfsBf,
            )
        );
    }

    #[test]
    fn failure_rate_cells_key_on_fault_parameters() {
        // Same scenario, different value index → different fault config →
        // different key even though the workload transform is identical.
        let cfg = ExperimentConfig::quick();
        let fr = Scenario::ALL
            .iter()
            .position(|s| *s == Scenario::FailureRate)
            .unwrap();
        let k0 = cell_key(
            EconomicModel::CommodityMarket,
            EstimateSet::A,
            &cfg,
            fr,
            0,
            PolicyKind::FcfsBf,
        );
        let k1 = cell_key(
            EconomicModel::CommodityMarket,
            EstimateSet::A,
            &cfg,
            fr,
            1,
            PolicyKind::FcfsBf,
        );
        assert_ne!(k0, k1);
    }
}
