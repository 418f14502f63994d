//! The grid worker: one shard executor of the multi-process grid, local
//! or remote.
//!
//! A worker runs the current binary re-exec'd in one of two modes:
//!
//! - `utility_risk worker` (hidden subcommand) — a child process of the
//!   supervisor speaking the [`crate::ipc`] frame protocol over
//!   stdin/stdout, exactly one session, then exit.
//! - `utility_risk serve-worker --listen HOST:PORT` — a long-lived TCP
//!   agent: it accepts one connection at a time and runs a protocol
//!   session per connection, so a supervisor whose link dropped can
//!   redial and resume. A supervisor holds one session per run: every
//!   grid of the run streams its cells over it, and the one
//!   [`ToWorker::Shutdown`] after the last grid ends the agent; a dead
//!   connection only ends the *session*.
//!
//! Each session starts with [`ToWorker::Hello`], then the supervisor
//! streams [`ToWorker::RunCell`] assignments one at a time and the worker
//! answers each with `CellOk` or a typed `CellErr`. A dedicated thread
//! emits [`FromWorker::Heartbeat`] beacons at a quarter of the configured
//! interval, independent of the (possibly long-running) cell on the main
//! thread — so a slow cell is not silence, only a dead link is. The
//! heartbeat thread is joined when its session ends, so a reconnecting
//! agent never accumulates threads.
//!
//! Results are belt-and-braces durable: each completed cell is appended to
//! the worker's *shard journal* (`<primary>.shard<id>`) before the
//! `CellOk` frame is sent. If the link dies between the append and the
//! supervisor's read, the record is not lost twice over: a redialed
//! session answers a re-assigned cell straight from the shard journal
//! (resume — the cell is never re-simulated), and
//! `Journal::merge_shards` adopts any stragglers at the end of the run.
//!
//! The `CCS_KILL_WORKER` drill (`"worker:after_cells"`,
//! [`ccs_chaos::WorkerKillPlan`]) makes the matching worker
//! `std::process::abort()` upon its next assignment — the std-only
//! stand-in for SIGKILL that the kill-recovery tests and the CI drill use.
//! Worker ids are run-scoped (one fleet serves every grid of a run), so
//! the drill fires once per run; the replacement worker gets a new id.

use crate::grid::{run_cell, CellEnv, ExperimentConfig, GridControl, SimulatedCell, WorkloadCache};
use crate::ipc::{read_frame, write_frame, CellSpec, FromWorker, ToWorker};
use crate::journal::Journal;
use crate::scenario::Scenario;
use ccs_chaos::WorkerKillPlan;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Exit code for a protocol violation (unreadable or out-of-order frame,
/// or a frame that failed to serialise): distinct from 0 (clean shutdown)
/// and from abort/panic codes, so the supervisor's crash classification
/// stays meaningful.
pub(crate) const PROTOCOL_EXIT: i32 = 3;

/// Live worker-side heartbeat threads — observable so tests can prove
/// sessions join their thread instead of leaking one per reconnect.
static LIVE_HEARTBEATS: AtomicUsize = AtomicUsize::new(0);

/// Number of heartbeat threads currently alive in this process.
#[cfg(test)]
pub(crate) fn live_heartbeat_threads() -> usize {
    LIVE_HEARTBEATS.load(Ordering::SeqCst)
}

struct HeartbeatGuard;

impl HeartbeatGuard {
    fn arm() -> HeartbeatGuard {
        LIVE_HEARTBEATS.fetch_add(1, Ordering::SeqCst);
        HeartbeatGuard
    }
}

impl Drop for HeartbeatGuard {
    fn drop(&mut self) {
        LIVE_HEARTBEATS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Why one protocol session ended.
#[derive(Debug)]
pub(crate) enum SessionEnd {
    /// Clean [`ToWorker::Shutdown`]: the worker should exit 0.
    Shutdown,
    /// The supervisor closed the link at a frame boundary.
    Eof,
    /// The link died while sending — supervisor gone or network cut.
    Dead,
    /// The inbound stream was unreadable or out of order, or an outbound
    /// frame failed to serialise: the link cannot be trusted.
    Protocol(String),
}

/// Cross-session memoisation for `serve-worker`: base jobs and scenario
/// workloads survive reconnects as long as the Hello's `(seed, nodes,
/// trace)` stay the same, so a redialed session resumes without
/// re-synthesising megabytes of workload.
#[derive(Default)]
pub(crate) struct WorkerState {
    /// The Hello `(seed, nodes, trace)` the cache was built for.
    key: Option<String>,
    cache: Option<WorkloadCache>,
}

/// Sends one frame through the shared writer lock. An
/// [`ErrorKind::InvalidData`] failure is a *local* serialisation bug
/// (e.g. a frame over the length cap) — callers must surface it as a
/// protocol error, never as a silent clean exit.
fn send(out: &Mutex<Box<dyn Write + Send>>, msg: &FromWorker) -> std::io::Result<()> {
    let mut w = out.lock().unwrap();
    write_frame(&mut *w, msg)
}

/// Maps a send failure to how the session ends.
fn send_failure(e: std::io::Error) -> SessionEnd {
    if e.kind() == ErrorKind::InvalidData {
        SessionEnd::Protocol(format!("outbound frame failed to serialise: {e}"))
    } else {
        SessionEnd::Dead
    }
}

/// Runs one protocol session (Hello → cells → Shutdown/EOF) over an
/// arbitrary transport. Returns how it ended; the heartbeat thread it
/// spawned is always joined before returning.
pub(crate) fn run_session<R: Read>(
    reader: &mut R,
    writer: Box<dyn Write + Send>,
    state: &mut WorkerState,
) -> SessionEnd {
    let out = Arc::new(Mutex::new(writer));

    let hello = match read_frame::<ToWorker>(reader) {
        Ok(Some(h @ ToWorker::Hello { .. })) => h,
        Ok(None) => return SessionEnd::Eof,
        other => {
            return SessionEnd::Protocol(format!("expected Hello frame, got {other:?}"));
        }
    };
    let ToWorker::Hello {
        worker_id,
        seed,
        nodes,
        trace,
        heartbeat_ms,
        cell_wall_budget,
        cell_event_budget,
        fail_cell,
        stall_cell,
        shard_journal,
    } = hello
    else {
        unreachable!("matched Hello above");
    };
    // A cluster or trace without nodes would fail every cell: refuse the
    // session rather than answer it with `Ready`.
    for (field, n) in [("Hello.nodes", nodes), ("Hello.trace.nodes", trace.nodes)] {
        if n == 0 {
            return SessionEnd::Protocol(format!("{field} is 0; a cluster needs a node"));
        }
    }

    // Supervised runs never carry ensembles (the supervisor path asserts
    // `replicas <= 1`), so workers are pinned to one replica per cell.
    let cfg = ExperimentConfig {
        nodes,
        trace,
        seed,
        threads: 1,
        replicas: 1,
    };
    // An unopenable shard journal ends the session, not the process: a
    // `serve-worker` agent goes back to accepting, and the supervisor counts
    // the lost session against the link like any failure before `Ready`.
    let shard = match shard_journal {
        None => None,
        Some(p) => match Journal::open(Path::new(&p)) {
            Ok(journal) => Some(journal),
            Err(e) => return SessionEnd::Protocol(format!("cannot open shard journal {p}: {e}")),
        },
    };
    let kill_plan = WorkerKillPlan::from_env();

    // Invalidate the cross-session memo if this Hello describes a
    // different run.
    let state_key = format!("{seed}:{nodes}:{trace:?}");
    if state.key.as_deref() != Some(state_key.as_str()) {
        state.key = Some(state_key);
        state.cache = None;
    }
    let ctl = GridControl {
        cell_wall_budget,
        cell_event_budget,
        fail_cell,
        stall_cell,
        ..GridControl::default()
    };
    let env = CellEnv {
        cfg: &cfg,
        ctl: &ctl,
        cache: state.cache.get_or_insert_with(|| WorkloadCache::new(&cfg)),
        threads: 1,
    };

    let cells_done = Arc::new(AtomicU64::new(0));
    let hb_stop = Arc::new(AtomicBool::new(false));
    // Heartbeats ride a dedicated thread so a long cell on the main
    // thread never reads as silence. The thread is stop-flagged and
    // joined when the session ends, so a reconnecting agent never leaks
    // one thread per session.
    let hb_thread = {
        let out = Arc::clone(&out);
        let cells_done = Arc::clone(&cells_done);
        let stop = Arc::clone(&hb_stop);
        let interval = std::time::Duration::from_millis((heartbeat_ms / 4).max(10));
        std::thread::spawn(move || {
            let _guard = HeartbeatGuard::arm();
            while !stop.load(Ordering::SeqCst) {
                let beat = FromWorker::Heartbeat {
                    worker_id,
                    cells_done: cells_done.load(Ordering::Relaxed),
                };
                if send(&out, &beat).is_err() {
                    // The link is gone; the main thread's next read or
                    // write notices too. Nothing left to beat for.
                    break;
                }
                // Sleep in short slices so a stop flag set at session end
                // is honoured promptly even under long intervals.
                let deadline = std::time::Instant::now() + interval;
                while !stop.load(Ordering::SeqCst) && std::time::Instant::now() < deadline {
                    std::thread::sleep(std::time::Duration::from_millis(25));
                }
            }
        })
    };

    let end = run_cells(
        reader,
        &out,
        &env,
        shard.as_ref(),
        kill_plan,
        worker_id,
        &cells_done,
    );
    hb_stop.store(true, Ordering::SeqCst);
    let _ = hb_thread.join();
    end
}

/// The Ready → RunCell/Shutdown loop of one session.
fn run_cells<R: Read>(
    reader: &mut R,
    out: &Mutex<Box<dyn Write + Send>>,
    env: &CellEnv,
    shard: Option<&Journal>,
    kill_plan: Option<WorkerKillPlan>,
    worker_id: u64,
    cells_done: &AtomicU64,
) -> SessionEnd {
    if let Err(e) = send(out, &FromWorker::Ready { worker_id }) {
        return send_failure(e);
    }

    loop {
        let msg = match read_frame::<ToWorker>(reader) {
            Ok(Some(m)) => m,
            Ok(None) => return SessionEnd::Eof,
            Err(e) => {
                return SessionEnd::Protocol(format!("bad frame from supervisor: {e}"));
            }
        };
        let cell = match msg {
            ToWorker::RunCell { cell } => match out_of_range(&cell) {
                Some(field) => {
                    return SessionEnd::Protocol(format!("RunCell.{field} out of range"))
                }
                None => cell,
            },
            ToWorker::Shutdown => return SessionEnd::Shutdown,
            ToWorker::Hello { .. } => {
                return SessionEnd::Protocol("unexpected second Hello".to_string());
            }
        };

        if let Some(plan) = kill_plan {
            if plan.should_kill(worker_id, cells_done.load(Ordering::Relaxed)) {
                // The kill drill: die abruptly mid-shard, no cleanup, no
                // goodbye frame — the supervisor must cope.
                std::process::abort();
            }
        }

        let sim = match shard.and_then(|j| j.get(&cell.key)) {
            // Reconnect-and-resume: a cell this worker already journaled
            // (the CellOk frame was lost to a dropped link) is answered
            // from the shard journal instead of being re-simulated.
            Some(rec) => SimulatedCell::restored(rec),
            None => {
                let sim = run_cell(&cell, env);
                if let Some(j) = shard {
                    if let Some(rec) = sim.journal_record(&cell, worker_id, env.ctl) {
                        j.append(&rec);
                    }
                }
                sim
            }
        };
        cells_done.fetch_add(1, Ordering::Relaxed);
        let reply = match sim.outcome {
            Ok((objectives, events)) => FromWorker::CellOk {
                cell,
                objectives,
                secs: sim.secs,
                events,
                cost: sim.cost,
                profile: sim.profile,
            },
            Err((kind, message)) => FromWorker::CellErr {
                cell,
                kind,
                message,
            },
        };
        if let Err(e) = send(out, &reply) {
            return send_failure(e);
        }
    }
}

/// The index of `cell` that names no point of a grid, if any. Checked on
/// receipt: the lookup it would fail runs outside the cell's panic guard.
fn out_of_range(cell: &CellSpec) -> Option<&'static str> {
    match Scenario::ALL.get(cell.scenario_idx) {
        None => Some("scenario_idx"),
        Some(s) if cell.value_idx >= s.values().len() => Some("value_idx"),
        Some(_) => None,
    }
}

/// Runs the stdio (child-process) worker: exactly one session over
/// stdin/stdout, then exit. Never returns.
pub fn worker_main() -> ! {
    let mut stdin = std::io::stdin().lock();
    let mut state = WorkerState::default();
    match run_session(&mut stdin, Box::new(std::io::stdout()), &mut state) {
        SessionEnd::Protocol(msg) => {
            eprintln!("worker: {msg}");
            std::process::exit(PROTOCOL_EXIT);
        }
        _ => std::process::exit(0),
    }
}

/// Runs the TCP worker agent: binds `listen` ("host:port"), then accepts
/// one connection at a time and runs a protocol session per connection.
/// A healthy run is one session serving all of the run's grids. A clean
/// `Shutdown` frame — sent once, after the run's last grid — exits the
/// agent; a dead or protocol-broken
/// connection only ends the session — the agent goes back to accepting,
/// which is what lets a supervisor redial after a network drop and
/// resume the shard. Never returns.
pub fn serve_worker_main(listen: &str) -> ! {
    let listener = match TcpListener::bind(listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("serve-worker: cannot bind {listen}: {e}");
            std::process::exit(2);
        }
    };
    let local = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| listen.to_string());
    // Machine-readable readiness line (stdout is otherwise unused), so
    // scripts binding port 0 learn the actual address.
    println!("serve-worker listening {local}");
    let _ = std::io::stdout().flush();

    let mut state = WorkerState::default();
    for conn in listener.incoming() {
        let stream = match conn {
            Ok(s) => s,
            Err(e) => {
                eprintln!("serve-worker: accept failed: {e}");
                continue;
            }
        };
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "?".to_string());
        let _ = stream.set_nodelay(true);
        let writer = match stream.try_clone() {
            Ok(w) => w,
            Err(e) => {
                eprintln!("serve-worker: cannot clone stream from {peer}: {e}");
                continue;
            }
        };
        let mut reader = stream;
        match run_session(&mut reader, Box::new(writer), &mut state) {
            SessionEnd::Shutdown => std::process::exit(0),
            SessionEnd::Eof | SessionEnd::Dead => {
                eprintln!("serve-worker: session from {peer} ended; awaiting reconnect");
            }
            SessionEnd::Protocol(msg) => {
                eprintln!("serve-worker: protocol error from {peer}: {msg}; awaiting reconnect");
            }
        }
    }
    std::process::exit(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipc::{encode_frame, Transport};
    use std::net::TcpStream;

    fn hello(worker_id: u64, shard: Option<String>) -> ToWorker {
        ToWorker::Hello {
            worker_id,
            seed: 42,
            nodes: 8,
            trace: ccs_workload::SdscSp2Model::default(),
            heartbeat_ms: 60_000,
            cell_wall_budget: None,
            cell_event_budget: None,
            fail_cell: None,
            stall_cell: None,
            shard_journal: shard,
        }
    }

    /// Serialises the tests that run sessions in this process: the
    /// heartbeat-thread count is process-wide, so a session of one test
    /// must not be live while another test asserts the count is zero.
    fn one_session_at_a_time() -> std::sync::MutexGuard<'static, ()> {
        static SESSIONS: Mutex<()> = Mutex::new(());
        SESSIONS.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Drives `run_session` in-process over a socket pair — the
    /// drop-order regression test for the worker side: however the
    /// session ends, its heartbeat thread must be joined.
    fn drive(frames: Vec<ToWorker>) -> SessionEnd {
        drive_with(frames, &mut WorkerState::default())
    }

    /// [`drive`] over a caller-held [`WorkerState`], as an agent carries
    /// it from one session to the next.
    fn drive_with(frames: Vec<ToWorker>, state: &mut WorkerState) -> SessionEnd {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sup = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            for f in &frames {
                s.write_all(&encode_frame(f).unwrap()).unwrap();
            }
            // No more frames are coming: close the write half so a
            // session that outlives the script sees a clean EOF instead
            // of deadlocking against our own drain loop below.
            s.shutdown(std::net::Shutdown::Write).unwrap();
            // Read (and discard) worker frames until the worker closes;
            // without this the worker's writes could block forever.
            let mut sink = [0u8; 4096];
            while let Ok(n) = s.read(&mut sink) {
                if n == 0 {
                    break;
                }
            }
        });
        let (stream, _) = listener.accept().unwrap();
        let writer = stream.try_clone().unwrap();
        let mut reader = stream;
        let end = run_session(&mut reader, Box::new(writer), state);
        drop(reader);
        sup.join().unwrap();
        end
    }

    #[test]
    fn session_joins_heartbeat_thread_on_clean_shutdown() {
        let _serial = one_session_at_a_time();
        let end = drive(vec![hello(1, None), ToWorker::Shutdown]);
        assert!(matches!(end, SessionEnd::Shutdown), "{end:?}");
        assert_eq!(live_heartbeat_threads(), 0, "heartbeat thread leaked");
    }

    #[test]
    fn session_joins_heartbeat_thread_on_eof_and_protocol_error() {
        let _serial = one_session_at_a_time();
        let end = drive(vec![hello(1, None)]);
        assert!(matches!(end, SessionEnd::Eof), "{end:?}");
        assert_eq!(live_heartbeat_threads(), 0);

        // A second Hello mid-session is a protocol violation.
        let end = drive(vec![hello(1, None), hello(1, None)]);
        assert!(matches!(end, SessionEnd::Protocol(_)), "{end:?}");
        assert_eq!(live_heartbeat_threads(), 0);
    }

    /// An unopenable shard journal ends only its session, typed and
    /// naming the path; the next session on the same state runs normally.
    #[test]
    fn unopenable_shard_journal_ends_the_session_not_the_agent() {
        let _serial = one_session_at_a_time();
        let dir = std::env::temp_dir().join(format!("ccs_worker_badshard_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("plain-file");
        std::fs::write(&file, b"not a directory").unwrap();
        let shard = file
            .join("journal.jsonl.shard1")
            .to_string_lossy()
            .into_owned();

        // Only the Hello: the session ends on it, and an unread frame
        // behind it would reset the socket under the driving thread.
        let mut state = WorkerState::default();
        let end = drive_with(vec![hello(1, Some(shard.clone()))], &mut state);
        match &end {
            SessionEnd::Protocol(msg) => assert!(msg.contains(&shard), "{msg}"),
            other => panic!("expected a protocol end, got {other:?}"),
        }
        // `Shutdown` is read only after `Ready` has been sent.
        let end = drive_with(vec![hello(2, None), ToWorker::Shutdown], &mut state);
        assert!(matches!(end, SessionEnd::Shutdown), "{end:?}");
        assert_eq!(live_heartbeat_threads(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hello_without_nodes_ends_the_session_before_ready() {
        let _serial = one_session_at_a_time();
        let (mut no_nodes, mut no_trace_nodes) = (hello(1, None), hello(1, None));
        if let ToWorker::Hello { nodes, .. } = &mut no_nodes {
            *nodes = 0;
        }
        if let ToWorker::Hello { trace, .. } = &mut no_trace_nodes {
            trace.nodes = 0;
        }
        for (frame, field) in [
            (no_nodes, "Hello.nodes"),
            (no_trace_nodes, "Hello.trace.nodes"),
        ] {
            match drive(vec![frame]) {
                SessionEnd::Protocol(msg) => assert!(msg.starts_with(field), "{msg}"),
                other => panic!("expected a protocol end naming {field}, got {other:?}"),
            }
        }
        assert_eq!(live_heartbeat_threads(), 0);
    }

    /// A cell index past the grid ends the session with a protocol error
    /// naming the field; the agent lives on to serve the next one.
    #[test]
    fn out_of_range_cell_ends_the_session_not_the_agent() {
        use crate::scenario::EstimateSet;
        use ccs_economy::EconomicModel;
        use ccs_policies::PolicyKind;

        let _serial = one_session_at_a_time();
        let cell = |scenario_idx, value_idx| ToWorker::RunCell {
            cell: CellSpec {
                econ: EconomicModel::CommodityMarket,
                set: EstimateSet::A,
                scenario_idx,
                value_idx,
                policy: PolicyKind::FcfsBf,
                key: "bad".to_string(),
            },
        };
        for (frame, field) in [
            (cell(Scenario::ALL.len(), 0), "RunCell.scenario_idx"),
            (cell(0, 6), "RunCell.value_idx"),
        ] {
            match drive(vec![hello(1, None), frame]) {
                SessionEnd::Protocol(msg) => assert!(msg.starts_with(field), "{msg}"),
                other => panic!("expected a protocol end naming {field}, got {other:?}"),
            }
        }
        assert_eq!(live_heartbeat_threads(), 0);
    }

    #[test]
    fn first_frame_must_be_hello() {
        let _serial = one_session_at_a_time();
        let end = drive(vec![ToWorker::Shutdown]);
        assert!(matches!(end, SessionEnd::Protocol(_)), "{end:?}");
    }

    #[test]
    fn session_replays_journaled_cells_without_resimulating() {
        use crate::journal::cell_key;
        use crate::scenario::EstimateSet;
        use ccs_economy::EconomicModel;
        use ccs_policies::PolicyKind;

        let _serial = one_session_at_a_time();

        let dir = std::env::temp_dir().join(format!("ccs_worker_replay_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let shard_path = dir.join("shard.jsonl");
        let cfg = ExperimentConfig {
            nodes: 8,
            trace: ccs_workload::SdscSp2Model::default(),
            seed: 42,
            threads: 1,
            replicas: 1,
        };
        let key = cell_key(
            EconomicModel::CommodityMarket,
            EstimateSet::A,
            &cfg,
            0,
            0,
            PolicyKind::FcfsBf,
        );
        // Pre-seed the shard journal as a previous session would have.
        {
            let j = Journal::open(&shard_path).unwrap();
            j.append(&crate::journal::CellRecord {
                key: key.clone(),
                scenario_idx: 0,
                value_idx: 0,
                policy: PolicyKind::FcfsBf.name().to_string(),
                objectives: [1.0, 2.0, 3.0, 4.0],
                sigma: [0.0; 4],
                secs: 0.5,
                events: 777,
                worker: 9,
            });
        }

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shard_str = shard_path.to_string_lossy().into_owned();
        let sup = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&encode_frame(&hello(9, Some(shard_str))).unwrap())
                .unwrap();
            s.write_all(
                &encode_frame(&ToWorker::RunCell {
                    cell: crate::ipc::CellSpec {
                        econ: EconomicModel::CommodityMarket,
                        set: EstimateSet::A,
                        scenario_idx: 0,
                        value_idx: 0,
                        policy: PolicyKind::FcfsBf,
                        key,
                    },
                })
                .unwrap(),
            )
            .unwrap();
            // Collect frames until CellOk arrives, then shut down.
            loop {
                match read_frame::<FromWorker>(&mut s).unwrap().unwrap() {
                    FromWorker::CellOk {
                        objectives, events, ..
                    } => {
                        assert_eq!(objectives, [1.0, 2.0, 3.0, 4.0], "replayed, not re-run");
                        assert_eq!(events, 777);
                        break;
                    }
                    FromWorker::Ready { .. } | FromWorker::Heartbeat { .. } => continue,
                    other => panic!("unexpected frame {other:?}"),
                }
            }
            s.write_all(&encode_frame(&ToWorker::Shutdown).unwrap())
                .unwrap();
            let mut sink = [0u8; 4096];
            while let Ok(n) = s.read(&mut sink) {
                if n == 0 {
                    break;
                }
            }
        });
        let (stream, _) = listener.accept().unwrap();
        let writer = stream.try_clone().unwrap();
        let mut reader = stream;
        let mut state = WorkerState::default();
        let end = run_session(&mut reader, Box::new(writer), &mut state);
        assert!(matches!(end, SessionEnd::Shutdown), "{end:?}");
        drop(reader);
        sup.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transport_kind_labels() {
        // Anchors the worker-tag vocabulary the telemetry summary uses.
        assert_eq!(crate::ipc::TransportKind::Pipe.label(), "pipe");
        assert_eq!(crate::ipc::TransportKind::Tcp.label(), "tcp");
        // Silence the unused-import lint meaningfully: the trait is the
        // supervisor's contract.
        fn _takes_transport(_t: &dyn Transport) {}
    }
}
