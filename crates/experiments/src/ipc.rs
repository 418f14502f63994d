//! Supervisor ↔ worker IPC: length-prefixed JSON frames over a
//! [`Transport`].
//!
//! The multi-process grid (`crate::supervisor` / `crate::worker`) speaks a
//! deliberately boring protocol — std-only per the offline-build
//! constraint: each frame is a 4-byte big-endian length followed by that
//! many bytes of JSON, flowing supervisor → worker ([`ToWorker`]) and
//! worker → supervisor ([`FromWorker`]). Length prefixing makes torn
//! frames detectable: a peer killed mid-write leaves a short read, which
//! the supervisor classifies as a crash or disconnect, not a hang. Frames
//! larger than `MAX_FRAME_LEN` are rejected before allocation, so a
//! corrupted length word cannot OOM the peer.
//!
//! The byte stream itself is abstracted behind the [`Transport`] trait
//! with two implementations:
//!
//! - `PipeTransport` — a re-exec'd `utility_risk worker` child process
//!   reached over its stdin/stdout pipes (the PR 8 single-box grid).
//! - [`TcpTransport`] — a `utility_risk serve-worker` agent reached over
//!   a `std::net::TcpStream`, making remote machines first-class grid
//!   capacity (dialed with a connect deadline, severed by a socket
//!   shutdown instead of a process kill).
//!
//! Both transports optionally thread their halves through the
//! `ccs-chaos` [`ccs_chaos::FlakyTransport`] fault injector, so the
//! network failure drills run identically against pipes and sockets.

use crate::grid::CellCost;
use crate::journal::CellErrorKind;
use crate::scenario::EstimateSet;
use ccs_chaos::ConnectionFlakes;
use ccs_economy::EconomicModel;
use ccs_policies::PolicyKind;
use ccs_telemetry::profile::ProfileSnapshot;
use ccs_workload::SdscSp2Model;
use serde::{Deserialize, Serialize};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Upper bound on one frame's JSON payload. Generous — the largest real
/// frame (a profiled `CellOk`) is a few KiB — but small enough that a
/// corrupt length word fails fast instead of attempting a huge allocation.
pub(crate) const MAX_FRAME_LEN: u32 = 16 << 20;

/// Serialises one frame to its wire form: 4-byte big-endian payload
/// length, then the payload. Fails with [`ErrorKind::InvalidData`] if the
/// message does not serialise or exceeds `MAX_FRAME_LEN` — a *local*
/// protocol bug, distinct from the connection-level errors a transport
/// write can return.
pub fn encode_frame<T: Serialize>(msg: &T) -> std::io::Result<Vec<u8>> {
    let payload = serde_json::to_string(msg)
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
    let bytes = payload.as_bytes();
    let len = u32::try_from(bytes.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME_LEN)
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "frame too large"))?;
    let mut buf = Vec::with_capacity(4 + bytes.len());
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(bytes);
    Ok(buf)
}

/// Writes one frame ([`encode_frame`]) with a single `write_all`, so
/// concurrent writers interleave only at frame boundaries when serialised
/// by a caller-side lock.
pub(crate) fn write_frame<T: Serialize>(w: &mut impl Write, msg: &T) -> std::io::Result<()> {
    w.write_all(&encode_frame(msg)?)?;
    w.flush()
}

/// Reads one frame, returning `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed the pipe between frames — normal shutdown).
/// EOF *inside* a frame, an oversized length word, or unparseable JSON
/// are errors: the peer died mid-write or the stream is corrupt.
pub fn read_frame<T: Deserialize>(r: &mut impl Read) -> std::io::Result<Option<T>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME_LEN}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let text = std::str::from_utf8(&payload)
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
    serde_json::from_str(text)
        .map(Some)
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))
}

/// Which kind of link carries a worker's frames — surfaced in telemetry
/// worker tags and the failure taxonomy (pipe EOF is a crash, TCP EOF is
/// a disconnect).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransportKind {
    /// Child process stdin/stdout pipes on this machine.
    Pipe,
    /// A `std::net::TcpStream` to a `serve-worker` agent.
    Tcp,
}

impl TransportKind {
    /// Short lowercase label (`"pipe"` / `"tcp"`) for worker tags.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            TransportKind::Pipe => "pipe",
            TransportKind::Tcp => "tcp",
        }
    }
}

/// One supervisor-side connection to a worker, whatever carries it. The
/// supervisor owns the write half (frames are sent from its main loop)
/// and hands the read half to a dedicated reader thread via
/// [`Transport::take_reader`].
pub trait Transport: Send {
    /// Pipe or TCP — drives failure classification and worker tags.
    fn kind(&self) -> TransportKind;
    /// Human-readable peer name (`"pipe"` or `"tcp host:port"`).
    fn peer(&self) -> String;
    /// Sends one pre-encoded frame ([`encode_frame`]) and flushes.
    fn send_bytes(&mut self, frame: &[u8]) -> std::io::Result<()>;
    /// Takes the read half for the reader thread. Yields `Some` exactly
    /// once.
    fn take_reader(&mut self) -> Option<Box<dyn Read + Send>>;
    /// Closes the supervisor→worker direction only (clean shutdown: the
    /// worker sees EOF at a frame boundary and exits its session).
    fn close_writer(&mut self);
    /// Force-closes both directions — kills the child process or shuts
    /// the socket down — unblocking any thread parked in a read.
    /// Idempotent.
    fn sever(&mut self);
    /// Blocks until the peer process is gone, returning its exit code.
    /// `None` for socket transports (no process to reap) and for peers
    /// killed by a signal.
    fn reap(&mut self) -> Option<i32>;
}

/// [`Transport`] over a re-exec'd worker child process's stdio pipes.
pub(crate) struct PipeTransport {
    child: Child,
    writer: Option<Box<dyn Write + Send>>,
    reader: Option<Box<dyn Read + Send>>,
}

impl PipeTransport {
    /// Spawns `worker_bin worker` with piped stdio, optionally threading
    /// both pipe halves through a flaky-network schedule.
    pub(crate) fn spawn(
        worker_bin: &Path,
        flakes: Option<ConnectionFlakes>,
    ) -> std::io::Result<Self> {
        let mut child = Command::new(worker_bin)
            .arg("worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let (writer, reader): (Box<dyn Write + Send>, Box<dyn Read + Send>) = match flakes {
            Some(f) => (
                Box::new(f.wrap_writer(stdin)),
                Box::new(f.wrap_reader(stdout)),
            ),
            None => (Box::new(stdin), Box::new(stdout)),
        };
        Ok(PipeTransport {
            child,
            writer: Some(writer),
            reader: Some(reader),
        })
    }
}

impl Transport for PipeTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Pipe
    }

    fn peer(&self) -> String {
        "pipe".to_string()
    }

    fn send_bytes(&mut self, frame: &[u8]) -> std::io::Result<()> {
        let w = self
            .writer
            .as_mut()
            .ok_or_else(|| std::io::Error::new(ErrorKind::BrokenPipe, "writer closed"))?;
        w.write_all(frame)?;
        w.flush()
    }

    fn take_reader(&mut self) -> Option<Box<dyn Read + Send>> {
        self.reader.take()
    }

    fn close_writer(&mut self) {
        // Dropping the boxed half drops the underlying ChildStdin: EOF.
        self.writer = None;
    }

    fn sever(&mut self) {
        self.writer = None;
        let _ = self.child.kill();
    }

    fn reap(&mut self) -> Option<i32> {
        self.child.wait().ok().and_then(|st| st.code())
    }
}

/// [`Transport`] over a TCP connection to a `serve-worker` agent.
pub struct TcpTransport {
    peer: String,
    stream: TcpStream,
    writer: Option<Box<dyn Write + Send>>,
    reader: Option<Box<dyn Read + Send>>,
}

impl TcpTransport {
    /// Dials `addr` ("host:port") with a connect deadline, optionally
    /// threading both stream halves through a flaky-network schedule.
    /// Established connections carry no read deadline — a blocked read is
    /// the heartbeat watchdog's job, resolved by [`Transport::sever`] —
    /// but writes are bounded by `write_timeout` so a stalled peer cannot
    /// wedge the supervisor's main loop.
    pub fn dial(
        addr: &str,
        connect_timeout: Duration,
        write_timeout: Duration,
        flakes: Option<ConnectionFlakes>,
    ) -> std::io::Result<Self> {
        let mut last_err = None;
        let mut stream = None;
        for sock_addr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sock_addr, connect_timeout) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let stream = stream.ok_or_else(|| {
            last_err.unwrap_or_else(|| {
                std::io::Error::new(ErrorKind::AddrNotAvailable, format!("{addr}: no addresses"))
            })
        })?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(write_timeout));
        let write_half = stream.try_clone()?;
        let read_half = stream.try_clone()?;
        let (writer, reader): (Box<dyn Write + Send>, Box<dyn Read + Send>) = match flakes {
            Some(f) => (
                Box::new(f.wrap_writer(write_half)),
                Box::new(f.wrap_reader(read_half)),
            ),
            None => (Box::new(write_half), Box::new(read_half)),
        };
        Ok(TcpTransport {
            peer: format!("tcp {addr}"),
            stream,
            writer: Some(writer),
            reader: Some(reader),
        })
    }
}

impl Transport for TcpTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Tcp
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }

    fn send_bytes(&mut self, frame: &[u8]) -> std::io::Result<()> {
        let w = self
            .writer
            .as_mut()
            .ok_or_else(|| std::io::Error::new(ErrorKind::BrokenPipe, "writer closed"))?;
        w.write_all(frame)?;
        w.flush()
    }

    fn take_reader(&mut self) -> Option<Box<dyn Read + Send>> {
        self.reader.take()
    }

    fn close_writer(&mut self) {
        self.writer = None;
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
    }

    fn sever(&mut self) {
        self.writer = None;
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    fn reap(&mut self) -> Option<i32> {
        None
    }
}

/// One grid cell, fully addressed: everything a worker needs to locate the
/// scenario/value/policy, plus the provenance key the supervisor journals
/// the result under.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellSpec {
    /// Economic model of the enclosing grid.
    pub econ: EconomicModel,
    /// Estimate set of the enclosing grid.
    pub set: EstimateSet,
    /// Scenario index into `Scenario::ALL`.
    pub scenario_idx: usize,
    /// Scenario value index, 0..6.
    pub value_idx: usize,
    /// The policy to run.
    pub policy: PolicyKind,
    /// Provenance key (`crate::journal::cell_key`) for journaling.
    pub key: String,
}

impl CellSpec {
    /// The cell's drill label, `"scenarioIdx:valueIdx:PolicyName"` — the
    /// format of `CCS_FAIL_CELL` and `CCS_STALL_CELL`.
    pub(crate) fn label(&self) -> String {
        format!(
            "{}:{}:{}",
            self.scenario_idx,
            self.value_idx,
            self.policy.name()
        )
    }
}

/// Frames the supervisor sends to a worker (over the worker's stdin).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ToWorker {
    /// Handshake: the run's full configuration. Sent exactly once, first.
    Hello {
        /// This worker's 1-based id.
        worker_id: u64,
        /// Master seed (trace synthesis + QoS annotation).
        seed: u64,
        /// Cluster size.
        nodes: u32,
        /// Synthetic trace model — workers re-synthesise base jobs
        /// themselves rather than shipping megabytes of jobs per frame.
        trace: SdscSp2Model,
        /// Heartbeat interval in milliseconds (workers beat at 1/4 this).
        heartbeat_ms: u64,
        /// Per-cell wall-clock budget in seconds, if any.
        cell_wall_budget: Option<f64>,
        /// Per-cell event budget, if any.
        cell_event_budget: Option<u64>,
        /// `CCS_FAIL_CELL` drill, resolved supervisor-side.
        fail_cell: Option<String>,
        /// `CCS_STALL_CELL` drill, resolved supervisor-side.
        stall_cell: Option<String>,
        /// Path of this worker's shard journal (UTF-8; the serde shim has
        /// no `PathBuf` impl), or `None` to disable shard journaling.
        shard_journal: Option<String>,
    },
    /// Run one cell. The supervisor sends at most one outstanding cell
    /// per worker, so a worker never queues work it could lose.
    RunCell {
        /// The cell to simulate.
        cell: CellSpec,
    },
    /// Clean shutdown: the worker exits 0.
    Shutdown,
}

/// Frames a worker sends to the supervisor (over its stdout).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FromWorker {
    /// Handshake acknowledgement: the worker is ready for cells.
    Ready {
        /// Echo of the worker's id.
        worker_id: u64,
    },
    /// Liveness beacon, sent from a dedicated thread so a long-running
    /// cell does not read as silence (wedged *cells* are the per-cell
    /// budget's job; the heartbeat watchdog catches dead *processes*).
    Heartbeat {
        /// Echo of the worker's id.
        worker_id: u64,
        /// Cells completed so far (monotonic).
        cells_done: u64,
    },
    /// A cell completed. The worker has already appended the result to
    /// its shard journal, so the record survives even if this frame is
    /// lost to a crash.
    CellOk {
        /// The cell that ran.
        cell: CellSpec,
        /// Objective row `[wait, SLA, reliability, profitability]`.
        objectives: [f64; 4],
        /// Wall-clock seconds the cell took.
        secs: f64,
        /// Simulation outcomes the cell produced.
        events: u64,
        /// Phase cost vector (zeros unless profiled).
        cost: CellCost,
        /// The cell's profile snapshot (empty unless profiled).
        profile: ProfileSnapshot,
    },
    /// A cell failed in a *typed* way (panic, budget, invariants) while
    /// the worker itself stayed healthy.
    CellErr {
        /// The cell that failed.
        cell: CellSpec,
        /// Failure classification.
        kind: CellErrorKind,
        /// Panic payload, budget diagnostic, or violation summary.
        message: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn spec() -> CellSpec {
        CellSpec {
            econ: EconomicModel::CommodityMarket,
            set: EstimateSet::A,
            scenario_idx: 3,
            value_idx: 2,
            policy: PolicyKind::FcfsBf,
            key: "deadbeef".to_string(),
        }
    }

    #[test]
    fn frames_round_trip() {
        let msgs = vec![
            ToWorker::Hello {
                worker_id: 2,
                seed: 42,
                nodes: 128,
                trace: SdscSp2Model::default(),
                heartbeat_ms: 2000,
                cell_wall_budget: Some(5.0),
                cell_event_budget: None,
                fail_cell: None,
                stall_cell: Some("0:1:SJF-BF".to_string()),
                shard_journal: Some("/tmp/j.jsonl.shard2".to_string()),
            },
            ToWorker::RunCell { cell: spec() },
            ToWorker::Shutdown,
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, m).unwrap();
        }
        let mut r = Cursor::new(buf);
        for m in &msgs {
            let got: ToWorker = read_frame(&mut r).unwrap().unwrap();
            assert_eq!(&got, m);
        }
        assert_eq!(read_frame::<ToWorker>(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn worker_frames_round_trip() {
        let msgs = vec![
            FromWorker::Ready { worker_id: 1 },
            FromWorker::Heartbeat {
                worker_id: 1,
                cells_done: 7,
            },
            FromWorker::CellOk {
                cell: spec(),
                objectives: [1.0, 2.0, 3.0, 4.0],
                secs: 0.25,
                events: 99,
                cost: CellCost::default(),
                profile: ProfileSnapshot::default(),
            },
            FromWorker::CellErr {
                cell: spec(),
                kind: CellErrorKind::Panic,
                message: "boom".to_string(),
            },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, m).unwrap();
        }
        let mut r = Cursor::new(buf);
        for m in &msgs {
            let got: FromWorker = read_frame(&mut r).unwrap().unwrap();
            assert_eq!(&got, m);
        }
    }

    #[test]
    fn torn_frame_is_an_error_not_a_hang() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &ToWorker::Shutdown).unwrap();
        // A worker killed mid-write leaves a truncated tail.
        buf.truncate(buf.len() - 1);
        let mut r = Cursor::new(buf);
        assert!(read_frame::<ToWorker>(&mut r).is_err());

        // Truncation inside the *header* is also an error, not EOF.
        let mut buf = Vec::new();
        write_frame(&mut buf, &ToWorker::Shutdown).unwrap();
        buf.truncate(2);
        let mut r = Cursor::new(buf);
        assert!(read_frame::<ToWorker>(&mut r).is_err());
    }

    #[test]
    fn oversized_length_word_is_rejected_before_allocation() {
        let mut buf = (MAX_FRAME_LEN + 1).to_be_bytes().to_vec();
        buf.extend_from_slice(b"junk");
        let mut r = Cursor::new(buf);
        let err = read_frame::<ToWorker>(&mut r).unwrap_err();
        assert!(err.to_string().contains("exceeds cap"), "{err}");
    }

    #[test]
    fn garbage_payload_is_invalid_data() {
        let mut buf = 4u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"}{!!");
        let mut r = Cursor::new(buf);
        assert!(read_frame::<ToWorker>(&mut r).is_err());
    }

    #[test]
    fn zero_length_frame_is_a_typed_error_not_a_hang() {
        // A zero-length frame is syntactically valid framing but can never
        // hold a JSON message: it must parse-fail, not panic or stall.
        let buf = 0u32.to_be_bytes().to_vec();
        let mut r = Cursor::new(buf);
        let err = read_frame::<ToWorker>(&mut r).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    /// Runs `feed` against a socket pair and returns what `read_frame`
    /// saw on the receiving end — the TCP twin of the Cursor tests above.
    fn over_tcp(
        feed: impl FnOnce(&mut TcpStream) + Send + 'static,
    ) -> std::io::Result<Option<ToWorker>> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            feed(&mut s);
        });
        let (mut conn, _) = listener.accept().unwrap();
        let got = read_frame::<ToWorker>(&mut conn);
        writer.join().unwrap();
        got
    }

    #[test]
    fn tcp_torn_oversized_and_zero_length_frames_are_typed_errors() {
        // Torn frame: the peer dies mid-payload.
        let torn = over_tcp(|s| {
            let mut buf = Vec::new();
            write_frame(&mut buf, &ToWorker::Shutdown).unwrap();
            buf.truncate(buf.len() - 1);
            s.write_all(&buf).unwrap();
        });
        assert!(torn.is_err(), "torn TCP frame must error, got {torn:?}");

        // Oversized length word: rejected before allocation.
        let oversized = over_tcp(|s| {
            s.write_all(&(MAX_FRAME_LEN + 1).to_be_bytes()).unwrap();
            s.write_all(b"junk").unwrap();
        });
        let err = oversized.unwrap_err();
        assert!(err.to_string().contains("exceeds cap"), "{err}");

        // Zero-length frame: typed parse failure.
        let zero = over_tcp(|s| {
            s.write_all(&0u32.to_be_bytes()).unwrap();
        });
        assert_eq!(zero.unwrap_err().kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn tcp_transport_round_trips_frames_and_severs() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let got: ToWorker = read_frame(&mut conn).unwrap().unwrap();
            assert_eq!(got, ToWorker::Shutdown);
            // Then hold the connection open until the client severs it:
            // the blocked read must unblock with EOF/reset, not hang.
            let next = read_frame::<ToWorker>(&mut conn);
            assert!(matches!(next, Ok(None) | Err(_)));
        });
        let mut t = TcpTransport::dial(
            &addr.to_string(),
            Duration::from_secs(5),
            Duration::from_secs(5),
            None,
        )
        .unwrap();
        assert_eq!(t.kind(), TransportKind::Tcp);
        assert!(t.peer().starts_with("tcp "));
        assert!(t.reap().is_none(), "sockets have no exit code");
        t.send_bytes(&encode_frame(&ToWorker::Shutdown).unwrap())
            .unwrap();
        let mut reader = t.take_reader().expect("read half available once");
        assert!(t.take_reader().is_none(), "read half yields exactly once");
        t.sever();
        // Our own read half is also unblocked by the shutdown.
        let got = read_frame::<FromWorker>(&mut reader);
        assert!(matches!(got, Ok(None) | Err(_)), "severed read: {got:?}");
        server.join().unwrap();
    }

    #[test]
    fn dial_to_a_dead_port_fails_fast() {
        // Bind-then-drop guarantees an unused port.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let err = TcpTransport::dial(
            &addr,
            Duration::from_millis(500),
            Duration::from_secs(1),
            None,
        );
        assert!(err.is_err(), "dialing a closed port must fail");
    }
}
