//! The decoders a grid trusts with bytes from outside the process never
//! panic, whatever the bytes: every worker frame read through
//! `ipc::read_frame`, a journal opened with `Journal::open`, a result
//! store loaded with `ResultStore::load`, and a trace bundle read by
//! `trace-report` (`trace_report::report_bundle`) either decode or return
//! a typed error. The inputs are real encodings with byte flips, digit edits,
//! truncations, insertions and rewritten length words applied; a panic
//! anywhere fails the case.

use ccs_economy::EconomicModel;
use ccs_experiments::grid::CellCost;
use ccs_experiments::ipc::{encode_frame, read_frame, CellSpec, FromWorker, ToWorker};
use ccs_experiments::trace_report::report_bundle;
use ccs_experiments::{
    capture_cell, write_bundle, CellErrorKind, CellRecord, EstimateSet, ExperimentConfig,
    GridControl, Journal, ResultStore, Scenario, TraceCellSpec,
};
use ccs_policies::PolicyKind;
use ccs_telemetry::profile::ProfileSnapshot;
use ccs_workload::SdscSp2Model;
use proptest::prelude::*;
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::OnceLock;

/// One edit of an encoded input: `(kind, position, byte)`. The position is
/// taken modulo the input length, so every edit lands.
type Edit = (u8, u32, u8);

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    prop::collection::vec((0u8..6, any::<u32>(), any::<u8>()), 1..6)
}

/// Applies `edits` in order. Kinds: flip a byte, rewrite a digit (keeps
/// the JSON well formed but moves a number, often out of its type's
/// range), insert a byte, delete a byte, truncate, and rewrite the
/// leading 4-byte length word.
fn mutate(bytes: &[u8], edits: &[Edit]) -> Vec<u8> {
    const DIGITS: &[u8] = b"0123456789-.e+";
    let mut out = bytes.to_vec();
    for &(kind, pos, byte) in edits {
        if out.is_empty() {
            out.push(byte);
            continue;
        }
        let at = pos as usize % out.len();
        match kind {
            0 => out[at] ^= byte.max(1),
            1 => {
                if let Some(d) = out[at..].iter().position(u8::is_ascii_digit) {
                    out[at + d] = DIGITS[byte as usize % DIGITS.len()];
                }
            }
            2 => out.insert(at, byte),
            3 => {
                out.remove(at);
            }
            4 => out.truncate(at),
            _ => {
                if out.len() >= 4 {
                    // Small lengths, lengths near the payload's own, and
                    // anything up to the cap and past it.
                    let word = match byte % 3 {
                        0 => u32::from(byte),
                        1 => (out.len() as u32).wrapping_add(pos % 9).wrapping_sub(4),
                        _ => pos,
                    };
                    out[..4].copy_from_slice(&word.to_be_bytes());
                }
            }
        }
    }
    out
}

fn spec() -> CellSpec {
    CellSpec {
        econ: EconomicModel::BidBased,
        set: EstimateSet::B,
        scenario_idx: 12,
        value_idx: 5,
        policy: PolicyKind::LibraRiskD,
        key: "0123456789abcdef".to_string(),
    }
}

/// The wire form of every frame kind: the three `ToWorker` frames, then
/// the four `FromWorker` frames.
fn frames() -> Vec<Vec<u8>> {
    let to_worker = [
        ToWorker::Hello {
            worker_id: 3,
            seed: 42,
            nodes: 128,
            trace: SdscSp2Model::small(),
            heartbeat_ms: 1000,
            cell_wall_budget: Some(30.5),
            cell_event_budget: Some(5_000_000),
            fail_cell: Some("0:1:SJF-BF".to_string()),
            stall_cell: None,
            shard_journal: Some("out/journal.jsonl.shard3".to_string()),
        },
        ToWorker::RunCell { cell: spec() },
        ToWorker::Shutdown,
    ];
    let from_worker = [
        FromWorker::Ready { worker_id: 3 },
        FromWorker::Heartbeat {
            worker_id: 3,
            cells_done: 17,
        },
        FromWorker::CellOk {
            cell: spec(),
            objectives: [1234.5, 87.5, 99.25, 61.125],
            secs: 0.0625,
            events: 987_654,
            cost: CellCost {
                phase_ns: [1, 22, 333, 4444, 55555, 666666],
                peak_queue_depth: 64,
            },
            profile: ProfileSnapshot::default(),
        },
        FromWorker::CellErr {
            cell: spec(),
            kind: CellErrorKind::Budget,
            message: "exceeded its budget: 5000001 events".to_string(),
        },
    ];
    let mut frames: Vec<Vec<u8>> = to_worker.iter().map(|f| encode_frame(f).unwrap()).collect();
    frames.extend(from_worker.iter().map(|f| encode_frame(f).unwrap()));
    frames
}

fn record(i: usize) -> CellRecord {
    CellRecord {
        key: format!(
            "{:016x}",
            0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)
        ),
        scenario_idx: i % 13,
        value_idx: i % 6,
        policy: ["FCFS-BF", "SJF-BF", "EDF-BF", "Libra", "LibraRiskD"][i % 5].to_string(),
        objectives: [100.0 * i as f64, 95.5, 99.0, 42.25],
        sigma: [0.0, 0.5, 0.0, 1.5],
        secs: 0.01 * i as f64,
        events: 1000 + i as u64,
        worker: i as u64 % 3,
    }
}

/// A journal of four cell records, one JSON line each.
fn journal_bytes() -> Vec<u8> {
    let mut text = String::new();
    for i in 0..4 {
        text.push_str(&serde_json::to_string(&record(i)).unwrap());
        text.push('\n');
    }
    text.into_bytes()
}

/// A real result store: a small quick grid, saved as a grid run saves it.
fn store_bytes() -> &'static [u8] {
    static STORE: OnceLock<Vec<u8>> = OnceLock::new();
    STORE.get_or_init(|| {
        let cfg = ExperimentConfig::quick().with_jobs(12);
        let ev = ccs_experiments::run_evaluation(&cfg, &GridControl::default()).unwrap();
        let dir = scratch("store_seed");
        let path = ResultStore::from_evaluation(&ev, &cfg).save(&dir).unwrap();
        let bytes = std::fs::read(path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

/// A real trace bundle, as `trace` writes it: the `trace.jsonl` and
/// `manifest.json` bytes of a small Libra cell under node failures, so the
/// records include failures, repairs, restarts and kernel spans.
fn bundle_bytes() -> &'static (Vec<u8>, Vec<u8>) {
    static BUNDLE: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        let cfg = ExperimentConfig::quick().with_jobs(12);
        let spec = TraceCellSpec {
            econ: EconomicModel::BidBased,
            scenario: Scenario::FailureRate,
            value_idx: 5,
            policy: PolicyKind::Libra,
            ..TraceCellSpec::default()
        };
        let dir = scratch("bundle_seed");
        write_bundle(&capture_cell(&spec, &cfg), &dir).unwrap();
        let read = |name| std::fs::read(dir.join(name)).unwrap();
        let bytes = (read("trace.jsonl"), read("manifest.json"));
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

/// `trace-report` over bundle bytes, as it reads them from disk.
fn report(trace: &[u8], manifest: Option<&[u8]>) -> Result<bool, String> {
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    let manifest = manifest.map(text);
    report_bundle(&text(trace), manifest.as_deref(), 5).map(|r| r.disagrees)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccs_prop_decoders_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn unmutated_inputs_decode() {
    let frames = frames();
    let mut stream = Cursor::new(frames[..3].concat());
    for _ in 0..3 {
        assert!(read_frame::<ToWorker>(&mut stream).unwrap().is_some());
    }
    assert!(read_frame::<ToWorker>(&mut stream).unwrap().is_none());
    let mut stream = Cursor::new(frames[3..].concat());
    for _ in 0..4 {
        assert!(read_frame::<FromWorker>(&mut stream).unwrap().is_some());
    }
    let dir = scratch("clean");
    let path = dir.join("journal.jsonl");
    std::fs::write(&path, journal_bytes()).unwrap();
    assert_eq!(Journal::open(&path).unwrap().loaded(), 4);
    std::fs::write(dir.join("store.json"), store_bytes()).unwrap();
    assert!(!ResultStore::load(&dir.join("store.json"))
        .unwrap()
        .is_empty());
    let _ = std::fs::remove_dir_all(&dir);
    let (trace, manifest) = bundle_bytes();
    assert_eq!(
        report(trace, Some(manifest)),
        Ok(false),
        "the bundle cross-checks"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A mutated frame, alone or followed by an intact one, decodes as
    /// either frame direction or fails typed.
    #[test]
    fn mutated_frames_never_panic(which in 0usize..7, edits in edits(), then in 0usize..7) {
        let frames = frames();
        let mut bytes = mutate(&frames[which], &edits);
        bytes.extend_from_slice(&frames[then]);
        let mut stream = Cursor::new(bytes.as_slice());
        while let Ok(Some(_)) = read_frame::<ToWorker>(&mut stream) {}
        let mut stream = Cursor::new(bytes.as_slice());
        while let Ok(Some(_)) = read_frame::<FromWorker>(&mut stream) {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A mutated journal opens (skipping what no longer parses) or fails
    /// typed.
    #[test]
    fn mutated_journals_never_panic(edits in edits()) {
        let dir = scratch("journal");
        let path = dir.join(format!("journal{}.jsonl", edits[0].1));
        std::fs::write(&path, mutate(&journal_bytes(), &edits)).unwrap();
        if let Ok(journal) = Journal::open(&path) {
            prop_assert!(journal.loaded() <= 4);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A mutated store loads or fails typed.
    #[test]
    fn mutated_stores_never_panic(edits in edits()) {
        let dir = scratch("store");
        let path = dir.join(format!("store{}.json", edits[0].1));
        std::fs::write(&path, mutate(store_bytes(), &edits)).unwrap();
        let _ = ResultStore::load(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A trace bundle with its trace, its manifest or both mutated is
    /// reported or refused typed, with or without the manifest.
    #[test]
    fn mutated_trace_bundles_never_panic(
        which in 0u8..3,
        trace_edits in edits(),
        manifest_edits in edits(),
    ) {
        let (trace, manifest) = bundle_bytes();
        let trace = if which != 1 { mutate(trace, &trace_edits) } else { trace.clone() };
        let manifest = if which != 0 { mutate(manifest, &manifest_edits) } else { manifest.clone() };
        let _ = report(&trace, Some(&manifest));
        let _ = report(&trace, None);
    }
}
