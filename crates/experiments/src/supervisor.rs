//! The multi-machine grid supervisor: shards cells across worker
//! processes — local children over stdio pipes, remote `serve-worker`
//! agents over TCP — and survives their deaths *and* their networks.
//!
//! Local workers are the current binary re-exec'd as `utility_risk
//! worker` (see `crate::worker`); remote workers are long-lived
//! `utility_risk serve-worker` agents dialed over `std::net::TcpStream`.
//! Both speak the [`crate::ipc`] frame protocol through the
//! [`Transport`] trait, so the loop below is transport-blind. The
//! supervisor is only an executor: the run's plan (journal hits, cell
//! budget, drills, aliases) and its fold (grid arrays, journal, live
//! boards) live in [`crate::grid`] and are shared with in-process runs. What stays
//! here is what fleets need:
//!
//! - **Fleet lifetime** — a `Fleet` lives for one run, not one grid:
//!   the first grid with cells to run spawns the local workers and dials
//!   the remotes, later grids reuse the same sessions (one `Hello` per
//!   link — its fields are all run-level, and each cell names its own
//!   grid), and closing the fleet after the last grid sends `Shutdown`
//!   once per link. Deques, attempts, retries and the done-set are per
//!   grid; links and their quarantine verdicts, the event channel and
//!   worker ids are per run.
//! - **Shard planning** — cells are dealt round-robin into per-slot
//!   deques ([`crate::grid::plan_shards`]), one slot per local worker
//!   plus one per remote address; an idle worker drains its own deque
//!   first, then *steals* from the longest other deque, so a dead or
//!   quarantined worker's remaining shard is absorbed by survivors and
//!   uneven cell costs rebalance at runtime.
//! - **Heartbeat watchdog** — workers beat at a quarter of
//!   `heartbeat_ms`; a worker silent for the full interval is declared
//!   dead ([`WorkerFailure::HeartbeatTimeout`]), severed, and its link
//!   reader joined. Long cells don't trip this (heartbeats ride their
//!   own worker-side thread); wedged cells are the per-cell budget's
//!   job. The watchdog is also what bounds a half-open TCP link: reads
//!   carry no deadline, severing the socket is what unblocks them.
//! - **Failure classification** — every worker death is typed
//!   ([`WorkerFailure`]): process exit ([`WorkerFailure::Crash`]; exit
//!   code [`crate::worker::PROTOCOL_EXIT`] re-classifies as protocol),
//!   heartbeat timeout, torn/garbage frame
//!   ([`WorkerFailure::Protocol`]), failed dial
//!   ([`WorkerFailure::ConnectTimeout`]), or dropped link
//!   ([`WorkerFailure::Disconnected`]). In-flight cells are orphaned
//!   and retried.
//! - **Retry with deterministic backoff** — orphaned or panicked cells
//!   re-enter the queue after [`backoff_delay_ms`]; reopening a link
//!   reuses the same schedule, keyed by the remote address or the local
//!   slot. Budget/invariant failures are *not* retried — they are
//!   deterministic verdicts.
//! - **Reopen-and-resume** — one lifecycle for every link, local or
//!   remote: only how the transport is made differs
//!   ([`PipeTransport::spawn`] or [`TcpTransport::dial`]). A dead link is
//!   reopened after its backoff and re-Hello'd under its original shard
//!   id, so its shard journal answers re-assigned cells it already
//!   completed without re-simulating them. A link that fails `retries`
//!   consecutive opens (or dies that often before its first `Ready`) is
//!   quarantined for the run; its shard flows to survivors through
//!   work-stealing.
//! - **Graceful degradation** — a grid left with no live link and none
//!   waiting to reopen *degrades to in-process execution* with a warning:
//!   the leftover cells run on the grid's local executor, and the run
//!   completes with exit 0 rather than aborting.
//!
//! Every death joins the dead worker's reader thread, and closing the
//! fleet joins the rest ([`live_reader_threads`] observes this), so runs
//! never leak threads across tests or reconnect cycles.
//!
//! The correctness contract is byte-identity: the merged grid (and
//! everything derived from it) is identical regardless of transport mix,
//! worker count, flake schedule, kill schedule, or reconnect history —
//! cells are deterministic, so *where* and *when* one runs cannot change
//! its numbers. Duplicate frames (a flaky link replaying a `CellOk`) are
//! deduplicated against the assignment and a done-set before counting.

use crate::grid::{
    plan_shards, run_local, CellEnv, ExperimentConfig, GridControl, GridFold, SimulatedCell,
};
use crate::ipc::{
    encode_frame, read_frame, CellSpec, FromWorker, PipeTransport, TcpTransport, ToWorker,
    Transport, TransportKind,
};
use crate::journal::{CellErrorKind, Journal};
use crate::progress;
use crate::ConfigError;
use ccs_chaos::FlakyTransport;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::ErrorKind;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Retried attempts never back off longer than this, whatever the
/// exponent says.
pub const MAX_BACKOFF_MS: u64 = 30_000;

/// Configuration of a supervised (multi-process, possibly multi-machine)
/// grid run.
#[derive(Clone, Debug, PartialEq)]
pub struct SupervisorConfig {
    /// Number of local worker processes. May be `0` when at least one
    /// remote is given.
    pub workers: usize,
    /// Remote `serve-worker` agents to dial, as `host:port` addresses.
    pub remotes: Vec<String>,
    /// Failures after which a cell is quarantined (K). `1` means no
    /// second chances. The same cap quarantines a link, local or remote,
    /// after K consecutive failed opens or deaths before `Ready`.
    pub retries: u32,
    /// Base backoff before a retry, in milliseconds; attempt `n` waits
    /// `base << (n-1)` (capped at [`MAX_BACKOFF_MS`]) plus jitter.
    pub backoff_ms: u64,
    /// Heartbeat deadline in milliseconds: a worker silent this long is
    /// declared dead. Workers beat at a quarter of this interval. Also
    /// bounds a single frame write to a remote.
    pub heartbeat_ms: u64,
    /// Deadline for one TCP connect attempt, in milliseconds.
    pub connect_timeout_ms: u64,
    /// Worker executable. `None` re-execs the current binary — correct
    /// for `utility_risk`; tests point this at `CARGO_BIN_EXE_…`.
    pub worker_bin: Option<PathBuf>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            workers: 1,
            remotes: Vec::new(),
            retries: 3,
            backoff_ms: 250,
            heartbeat_ms: 5_000,
            connect_timeout_ms: 3_000,
            worker_bin: None,
        }
    }
}

impl SupervisorConfig {
    /// Validates every field, naming the offending CLI flag — the PR 3
    /// convention: binaries print the [`ConfigError`] and exit 2.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 && self.remotes.is_empty() {
            return Err(ConfigError::new(
                "--workers",
                format!(
                    "worker count must be 1..=256 (or give --remote), got {}",
                    self.workers
                ),
            ));
        }
        if self.workers > 256 {
            return Err(ConfigError::new(
                "--workers",
                format!("worker count must be 1..=256, got {}", self.workers),
            ));
        }
        if self.remotes.len() > 256 {
            return Err(ConfigError::new(
                "--remote",
                format!("at most 256 remotes, got {}", self.remotes.len()),
            ));
        }
        for addr in &self.remotes {
            let well_formed = addr.rsplit_once(':').is_some_and(|(host, port)| {
                !host.is_empty() && port.parse::<u16>().is_ok_and(|p| p > 0)
            });
            if !well_formed {
                return Err(ConfigError::new(
                    "--remote",
                    format!("remote address must be host:port, got {addr:?}"),
                ));
            }
        }
        if self.retries == 0 || self.retries > 100 {
            return Err(ConfigError::new(
                "--retries",
                format!("retry cap must be 1..=100, got {}", self.retries),
            ));
        }
        if self.backoff_ms == 0 || self.backoff_ms > MAX_BACKOFF_MS {
            return Err(ConfigError::new(
                "--backoff-ms",
                format!(
                    "base backoff must be 1..={MAX_BACKOFF_MS} ms, got {}",
                    self.backoff_ms
                ),
            ));
        }
        if self.heartbeat_ms < 100 || self.heartbeat_ms > 600_000 {
            return Err(ConfigError::new(
                "--heartbeat-ms",
                format!(
                    "heartbeat deadline must be 100..=600000 ms, got {}",
                    self.heartbeat_ms
                ),
            ));
        }
        if self.connect_timeout_ms == 0 || self.connect_timeout_ms > 600_000 {
            return Err(ConfigError::new(
                "--connect-timeout-ms",
                format!(
                    "connect timeout must be 1..=600000 ms, got {}",
                    self.connect_timeout_ms
                ),
            ));
        }
        Ok(())
    }
}

/// Why the supervisor gave up on one attempt of one cell.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerFailure {
    /// The worker process exited while a cell was in flight. `None` exit
    /// code means a signal/abort (the kill drill lands here).
    Crash {
        /// The process exit code, if it exited normally.
        exit_code: Option<i32>,
    },
    /// The worker sent nothing (not even a heartbeat) for the full
    /// deadline and was declared dead.
    HeartbeatTimeout {
        /// How long the worker had been silent, in milliseconds.
        silent_ms: u64,
    },
    /// The worker's link produced a torn or unparseable frame; the
    /// stream cannot be trusted, so the worker was severed.
    Protocol {
        /// The framing/parse error.
        detail: String,
    },
    /// A dial to a remote worker did not complete within the connect
    /// deadline.
    ConnectTimeout {
        /// The remote address dialed.
        addr: String,
        /// The connect deadline that expired, in milliseconds.
        ms: u64,
    },
    /// The network link to a worker dropped (reset, refused redial, or
    /// closed by the peer) while the worker may well be healthy.
    Disconnected {
        /// The I/O error or close reason.
        detail: String,
    },
    /// The worker stayed healthy but the cell itself failed in a typed
    /// way (panic, budget, invariants).
    CellFailed {
        /// The cell-level failure classification.
        kind: CellErrorKind,
        /// Panic payload, budget diagnostic, or violation summary.
        message: String,
    },
}

impl WorkerFailure {
    /// Whether another attempt could plausibly succeed. Worker deaths
    /// (crash, timeout, protocol) and network failures (connect timeout,
    /// disconnect) are environmental — retry. Panics may be load- or
    /// state-dependent — retry up to the quarantine cap. Budget and
    /// invariant verdicts are deterministic properties of the cell —
    /// retrying would reproduce them, so they are final.
    pub fn is_retryable(&self) -> bool {
        match self {
            WorkerFailure::CellFailed { kind, .. } => matches!(kind, CellErrorKind::Panic),
            _ => true,
        }
    }
}

impl std::fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerFailure::Crash { exit_code: Some(c) } => write!(f, "worker exited with code {c}"),
            WorkerFailure::Crash { exit_code: None } => {
                write!(f, "worker died to a signal or abort")
            }
            WorkerFailure::HeartbeatTimeout { silent_ms } => {
                write!(f, "worker silent for {silent_ms} ms (heartbeat deadline)")
            }
            WorkerFailure::Protocol { detail } => write!(f, "protocol error: {detail}"),
            WorkerFailure::ConnectTimeout { addr, ms } => {
                write!(f, "connect to {addr} timed out after {ms} ms")
            }
            WorkerFailure::Disconnected { detail } => write!(f, "connection lost: {detail}"),
            WorkerFailure::CellFailed { kind, message } => {
                write!(f, "cell failed ({kind:?}): {message}")
            }
        }
    }
}

/// Deterministic retry delay for attempt `attempt` (1-based) of the cell
/// identified by `key`: exponential in the attempt (`base << (attempt-1)`,
/// capped at [`MAX_BACKOFF_MS`]) plus jitter in `[0, base)` derived by
/// FNV-1a from `(seed, key, attempt)` — no wall clock, no global RNG, so
/// two supervisors replaying the same failure history compute the same
/// schedule. Reopening a link reuses it, keyed by the remote address or
/// the local slot.
pub fn backoff_delay_ms(seed: u64, key: &str, attempt: u32, base_ms: u64) -> u64 {
    let shift = attempt.saturating_sub(1).min(16);
    let exp = base_ms.saturating_mul(1u64 << shift).min(MAX_BACKOFF_MS);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            hash ^= *b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&seed.to_le_bytes());
    eat(key.as_bytes());
    eat(&attempt.to_le_bytes());
    exp + hash % base_ms.max(1)
}

/// Live supervisor-side link reader threads — observable so tests can
/// prove worker deaths and shutdown join their reader instead of leaking
/// one per connection.
static LIVE_READERS: AtomicUsize = AtomicUsize::new(0);

/// Number of link reader threads currently alive in this process.
pub fn live_reader_threads() -> usize {
    LIVE_READERS.load(Ordering::SeqCst)
}

struct ReaderGuard;

impl ReaderGuard {
    fn arm() -> ReaderGuard {
        LIVE_READERS.fetch_add(1, Ordering::SeqCst);
        ReaderGuard
    }
}

impl Drop for ReaderGuard {
    fn drop(&mut self) {
        LIVE_READERS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One connected worker, from the supervisor's side: a [`Transport`]
/// plus the liveness and assignment bookkeeping around it.
struct WorkerHandle {
    id: u64,
    /// Index into the fleet's link table, which is also its deque.
    slot: usize,
    conn: Box<dyn Transport>,
    alive: bool,
    ready: bool,
    last_seen: Instant,
    current: Option<CellSpec>,
    reader: Option<JoinHandle<()>>,
}

/// What a reader thread saw on one worker's link.
enum Event {
    Frame(u64, FromWorker),
    /// Clean EOF at a frame boundary.
    Eof(u64),
    /// Torn or unparseable frame — the stream cannot be trusted.
    Corrupt(u64, String),
    /// The link itself died (reset / aborted / broken pipe).
    Lost(u64, String),
}

/// An I/O error that means the *link* died, as opposed to a readable
/// stream carrying garbage. `UnexpectedEof` is deliberately absent: a
/// mid-frame EOF is a torn frame, which classifies as
/// [`WorkerFailure::Protocol`].
fn is_link_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::ConnectionRefused
            | ErrorKind::BrokenPipe
            | ErrorKind::NotConnected
            | ErrorKind::TimedOut
            | ErrorKind::WouldBlock
    )
}

/// One link's standing in the run — a local worker slot or a remote
/// address: its shard identity (stable across reopens, so the shard
/// journal survives them), its failure streak, and when to try again. A
/// quarantine verdict lasts for the rest of the run.
struct Link {
    /// The remote's `host:port`; `None` for a local child of `worker_bin`.
    remote: Option<String>,
    /// Worker id of the first successful open — reused as the
    /// shard-journal id for every later reopen.
    shard_id: Option<u64>,
    /// Consecutive failed opens / pre-`Ready` deaths. Reset by `Ready`.
    failures: u32,
    /// When a dead link may reopen; `None` before its first open.
    reopen_at: Option<Instant>,
    quarantined: bool,
}

/// One run's worker fleet: the links to local children and dialed
/// remotes (with their quarantine verdicts), the event channel every link
/// reader feeds, and the run-scoped worker ids.
///
/// The fleet opens lazily — the first [`Fleet::run_cells`] pass with cells
/// to run spawns the local workers and dials the remotes, each link
/// receiving one `Hello` — and every later pass reuses the same sessions:
/// a `Hello` carries only run-level settings, and each [`CellSpec`] names
/// its own grid. Dropping the fleet closes it once: `Shutdown` on every
/// live link, children reaped, reader threads joined, shard journals
/// merged into the primary.
pub(crate) struct Fleet {
    sup: SupervisorConfig,
    cfg: ExperimentConfig,
    /// The run's control: the budgets, drills and journal path every
    /// `Hello` carries.
    ctl: GridControl,
    worker_bin: PathBuf,
    /// The supervisor is the single injection point for network chaos:
    /// both halves of every link (pipe or TCP) are wrapped here, workers
    /// never read the env, so the flake schedule is a pure function of
    /// (seed, rate, connection id).
    flake_plan: Option<FlakyTransport>,
    tx: mpsc::Sender<Event>,
    rx: mpsc::Receiver<Event>,
    handles: Vec<WorkerHandle>,
    /// One link per deque: the local workers, then one per remote.
    links: Vec<Link>,
    /// Transport label per worker id (index id − 1): one entry per spawn
    /// or dial of the run, so its length is also the last id handed out.
    transports: Vec<String>,
    telemetry: Option<&'static ccs_telemetry::Telemetry>,
}

impl Fleet {
    /// A fleet for one run under `sup`, which [`SupervisorConfig::validate`]
    /// has accepted, with the run-level `Hello` settings taken from `ctl`
    /// and `cfg`. Nothing is spawned or dialed until the first grid pass
    /// that has cells to run.
    pub(crate) fn open(
        sup: &SupervisorConfig,
        ctl: &GridControl,
        cfg: &ExperimentConfig,
    ) -> Result<Fleet, ConfigError> {
        let worker_bin = match &sup.worker_bin {
            Some(bin) => bin.clone(),
            None => std::env::current_exe().map_err(|e| {
                ConfigError::new("worker_bin", format!("no current executable: {e}"))
            })?,
        };
        let (tx, rx) = mpsc::channel::<Event>();
        Ok(Fleet {
            sup: sup.clone(),
            cfg: *cfg,
            ctl: ctl.clone(),
            worker_bin,
            flake_plan: FlakyTransport::from_env(),
            tx,
            rx,
            handles: Vec::new(),
            links: std::iter::repeat_n(None, sup.workers)
                .chain(sup.remotes.iter().cloned().map(Some))
                .map(|remote| Link {
                    remote,
                    shard_id: None,
                    failures: 0,
                    reopen_at: None,
                    quarantined: false,
                })
                .collect(),
            transports: Vec::new(),
            telemetry: ccs_telemetry::enabled().then(ccs_telemetry::global),
        })
    }

    /// The session-opening frame for connection `worker_id`. A worker's
    /// shard journal is addressed by `shard_id`, not by the connection's
    /// worker id: a reopened link keeps its original shard id, which is
    /// exactly what lets it resume from that journal.
    fn hello(&self, worker_id: u64, shard_id: u64) -> ToWorker {
        ToWorker::Hello {
            worker_id,
            seed: self.cfg.seed,
            nodes: self.cfg.nodes,
            trace: self.cfg.trace,
            heartbeat_ms: self.sup.heartbeat_ms,
            cell_wall_budget: self.ctl.cell_wall_budget,
            cell_event_budget: self.ctl.cell_event_budget,
            fail_cell: self.ctl.fail_cell.clone(),
            stall_cell: self.ctl.stall_cell.clone(),
            shard_journal: self.ctl.journal.as_deref().map(|p| {
                Journal::shard_path(p, shard_id)
                    .to_string_lossy()
                    .into_owned()
            }),
        }
    }

    /// Hands out the next run-scoped worker id for a link of `kind`.
    fn next_id(&mut self, kind: TransportKind) -> u64 {
        self.transports.push(kind.label().to_string());
        self.transports.len() as u64
    }

    /// Wires one freshly made transport into the fleet: reader thread,
    /// Hello frame, handle. A failed Hello severs the link, and the
    /// reader's terminal event then reports the death like any other — so
    /// a link whose Hello tore is reopened (or quarantined), not left
    /// half-open.
    fn attach(&mut self, id: u64, slot: usize, shard_id: u64, mut conn: Box<dyn Transport>) {
        let mut reader = conn.take_reader().expect("fresh transport has a reader");
        let reader_tx = self.tx.clone();
        let telemetry = self.telemetry;
        let reader_thread = std::thread::spawn(move || {
            let _guard = ReaderGuard::arm();
            loop {
                match read_frame::<FromWorker>(&mut reader) {
                    Ok(Some(frame)) => {
                        if let Some(t) = telemetry {
                            t.counter("grid.transport.frames_rx").inc();
                        }
                        if reader_tx.send(Event::Frame(id, frame)).is_err() {
                            break;
                        }
                    }
                    Ok(None) => {
                        let _ = reader_tx.send(Event::Eof(id));
                        break;
                    }
                    Err(e) if is_link_error(&e) => {
                        let _ = reader_tx.send(Event::Lost(id, e.to_string()));
                        break;
                    }
                    Err(e) => {
                        let _ = reader_tx.send(Event::Corrupt(id, e.to_string()));
                        break;
                    }
                }
            }
        });
        let hello_ok = match encode_frame(&self.hello(id, shard_id)) {
            Ok(bytes) => conn.send_bytes(&bytes).is_ok(),
            Err(_) => false,
        };
        if hello_ok {
            if let Some(t) = self.telemetry {
                t.counter("grid.transport.frames_tx").inc();
            }
        } else {
            conn.sever();
        }
        self.handles.push(WorkerHandle {
            id,
            slot,
            conn,
            alive: true,
            ready: false,
            last_seen: Instant::now(),
            current: None,
            reader: Some(reader_thread),
        });
    }

    /// Opens link `slot`: spawns its local child or dials its remote. A
    /// failed open counts against the link like a death before `Ready`.
    fn open_link(&mut self, slot: usize) {
        let remote = self.links[slot].remote.clone();
        let kind = match remote {
            None => TransportKind::Pipe,
            Some(_) => TransportKind::Tcp,
        };
        let id = self.next_id(kind);
        let flakes = self.flake_plan.as_ref().map(|p| p.connection(id));
        let opened: Result<Box<dyn Transport>, String> = match &remote {
            None => {
                if let Some(t) = self.telemetry {
                    t.counter("grid.worker.spawns").inc();
                }
                match PipeTransport::spawn(&self.worker_bin, flakes) {
                    Ok(conn) => Ok(Box::new(conn)),
                    Err(e) => Err(format!("cannot spawn worker {id}: {e}")),
                }
            }
            Some(addr) => {
                if let Some(t) = self.telemetry {
                    t.counter("grid.transport.dials").inc();
                    if self.links[slot].shard_id.is_some() {
                        t.counter("grid.transport.redials").inc();
                    }
                }
                let connect_timeout = Duration::from_millis(self.sup.connect_timeout_ms);
                let write_timeout = Duration::from_millis(self.sup.heartbeat_ms);
                match TcpTransport::dial(addr, connect_timeout, write_timeout, flakes) {
                    Ok(conn) => Ok(Box::new(conn)),
                    Err(e) if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) => {
                        if let Some(t) = self.telemetry {
                            t.counter("grid.transport.timeouts").inc();
                        }
                        let ms = self.sup.connect_timeout_ms;
                        let addr = addr.clone();
                        Err(WorkerFailure::ConnectTimeout { addr, ms }.to_string())
                    }
                    Err(e) => Err(WorkerFailure::Disconnected {
                        detail: format!("dial {addr}: {e}"),
                    }
                    .to_string()),
                }
            }
        };
        match opened {
            Ok(conn) => {
                let shard_id = *self.links[slot].shard_id.get_or_insert(id);
                self.attach(id, slot, shard_id, conn);
            }
            Err(cause) => self.link_failed(slot, true, Some(cause)),
        }
    }

    /// Books one loss of link `slot` — a failed open (`cause` says why) or
    /// a death — and either quarantines the link for the run or schedules
    /// its reopen with backoff. Only a failure before `Ready` extends the
    /// streak (`counts`): a link that opens and dies at once must not be
    /// reopened forever, while a death after `Ready` reopens with a fresh
    /// streak (attempt 1 backoff).
    fn link_failed(&mut self, slot: usize, counts: bool, cause: Option<String>) {
        let link = &mut self.links[slot];
        link.failures += u32::from(counts);
        let n = link.failures;
        let (name, verb) = match &link.remote {
            Some(addr) => (format!("remote {addr}"), "dial"),
            None => (format!("local slot {slot}"), "spawn"),
        };
        if n >= self.sup.retries {
            link.quarantined = true;
            progress::note(&match cause {
                Some(cause) => format!(
                    "supervisor: {name} quarantined after {n} failed {verb}(s); last: {cause}"
                ),
                None => format!("supervisor: {name} quarantined after {n} failure(s)"),
            });
        } else {
            let key = link.remote.as_deref().unwrap_or(&name);
            let delay = backoff_delay_ms(self.cfg.seed, key, n.max(1), self.sup.backoff_ms);
            link.reopen_at = Some(Instant::now() + Duration::from_millis(delay));
            if let Some(cause) = cause {
                progress::note(&format!("supervisor: {cause}; re{verb} in {delay} ms"));
            }
        }
    }

    /// Common tail of every worker death: join the reader, count it, and
    /// book the loss against its link. Returns the orphaned in-flight
    /// cell, if any. Callers have already unblocked the reader — by
    /// severing, or (pipe EOF) by reaping, which implies EOF.
    fn mark_dead(&mut self, i: usize, failure: &WorkerFailure) -> Option<CellSpec> {
        let h = &mut self.handles[i];
        h.alive = false;
        if let Some(t) = self.telemetry {
            t.counter("grid.worker.deaths").inc();
            if h.conn.kind() == TransportKind::Tcp {
                t.counter("grid.transport.disconnects").inc();
            }
        }
        if let Some(rt) = h.reader.take() {
            let _ = rt.join();
        }
        progress::note(&format!(
            "supervisor: worker {} ({}) died: {failure}",
            h.id,
            h.conn.peer()
        ));
        let (slot, ready, cell) = (h.slot, h.ready, h.current.take());
        self.link_failed(slot, !ready, None);
        cell
    }

    /// Handles one event from a link reader: a frame refreshes the
    /// worker's liveness and may resolve its cell; a terminal event is
    /// classified into a [`WorkerFailure`] and kills the worker.
    fn on_event(&mut self, ev: Event, pass: &mut GridPass, busy_secs: &mut Vec<f64>) {
        let id = match &ev {
            Event::Frame(id, _) | Event::Eof(id) | Event::Corrupt(id, _) | Event::Lost(id, _) => {
                *id
            }
        };
        let Some(i) = self.handles.iter().position(|h| h.id == id) else {
            return;
        };
        let h = &mut self.handles[i];
        if !h.alive {
            // A late frame from a worker already declared dead (its cell
            // is orphaned and may be running elsewhere) must not be
            // double-counted.
            return;
        }
        let failure = match ev {
            Event::Frame(_, frame) => {
                h.last_seen = Instant::now();
                match frame {
                    FromWorker::Ready { .. } => {
                        h.ready = true;
                        // A full session start clears the link's failure
                        // streak.
                        self.links[h.slot].failures = 0;
                    }
                    FromWorker::Heartbeat { .. } => {
                        if let Some(t) = self.telemetry {
                            t.counter(&format!("grid.worker.{id}.heartbeats")).inc();
                        }
                    }
                    FromWorker::CellOk {
                        cell,
                        objectives,
                        secs,
                        events,
                        cost,
                        profile,
                    } => {
                        // Only the assignment we are waiting for counts: a
                        // flaky link can duplicate frames, and a replay of
                        // an earlier grid's cell never matches.
                        if h.current.as_ref().map(|c| c.key.as_str()) != Some(cell.key.as_str()) {
                            return;
                        }
                        h.current = None;
                        if !pass.done.insert(cell.key.clone()) {
                            return;
                        }
                        let idx = (id - 1) as usize;
                        if busy_secs.len() <= idx {
                            busy_secs.resize(idx + 1, 0.0);
                        }
                        busy_secs[idx] += secs;
                        let sim = SimulatedCell {
                            outcome: Ok((objectives, events)),
                            sigma: [0.0; 4],
                            secs,
                            cost,
                            profile,
                            riskd_equivalent: false,
                        };
                        pass.fold.record(&cell, sim, id);
                        pass.resolved += 1;
                    }
                    FromWorker::CellErr {
                        cell,
                        kind,
                        message,
                    } => {
                        if h.current.as_ref().map(|c| c.key.as_str()) != Some(cell.key.as_str()) {
                            return;
                        }
                        h.current = None;
                        if !pass.done.contains(&cell.key) {
                            pass.fail_attempt(cell, WorkerFailure::CellFailed { kind, message });
                        }
                    }
                }
                return;
            }
            Event::Eof(_) => match h.conn.kind() {
                TransportKind::Pipe => {
                    // Don't sever: the child is exiting on its own, and
                    // killing it here would destroy the exit code the
                    // classification reads.
                    match h.conn.reap() {
                        Some(code) if code == crate::worker::PROTOCOL_EXIT => {
                            WorkerFailure::Protocol {
                                detail: format!("worker reported a protocol error (exit {code})"),
                            }
                        }
                        code => WorkerFailure::Crash { exit_code: code },
                    }
                }
                TransportKind::Tcp => {
                    h.conn.sever();
                    WorkerFailure::Disconnected {
                        detail: "connection closed by peer".to_string(),
                    }
                }
            },
            Event::Corrupt(_, detail) => {
                h.conn.sever();
                let _ = h.conn.reap();
                WorkerFailure::Protocol { detail }
            }
            Event::Lost(_, detail) => {
                h.conn.sever();
                match h.conn.kind() {
                    TransportKind::Pipe => WorkerFailure::Crash {
                        exit_code: h.conn.reap(),
                    },
                    TransportKind::Tcp => WorkerFailure::Disconnected { detail },
                }
            }
        };
        if let Some(cell) = self.mark_dead(i, &failure) {
            pass.fail_attempt(cell, failure);
        }
    }

    /// Runs the planned `cells` of one grid on the fleet and folds every
    /// result into `fold` — the same fold the local executor uses, so the
    /// fleet changes only *where* cells run, never the grid. Completed
    /// cells are journaled as their frames arrive. If no link is live or
    /// waiting to reopen, the leftover cells run on the local executor
    /// instead. Returns busy seconds and the transport label per worker id
    /// of the run so far.
    pub(crate) fn run_cells(
        &mut self,
        cells: Vec<CellSpec>,
        env: &CellEnv,
        fold: &GridFold,
    ) -> (Vec<f64>, Vec<String>) {
        let total_to_run = cells.len();
        // Shard the work round-robin into per-link deques: one per local
        // worker, then one per remote address.
        let shards = plan_shards(total_to_run, self.links.len());
        let mut deques: Vec<VecDeque<CellSpec>> = shards
            .iter()
            .map(|shard| shard.iter().map(|&i| cells[i].clone()).collect())
            .collect();
        let mut pass = GridPass {
            fold,
            seed: self.cfg.seed,
            retries: self.sup.retries,
            backoff_ms: self.sup.backoff_ms,
            telemetry: self.telemetry,
            attempts: HashMap::new(),
            retry: Vec::new(),
            done: HashSet::new(),
            resolved: 0,
        };
        let mut busy_secs = vec![0.0; self.transports.len()];
        // A pass opens no more local slots than it has cells.
        let n_local = self.sup.workers;
        let in_pass = |slot: usize| slot >= n_local || slot < total_to_run;

        let heartbeat_deadline = Duration::from_millis(self.sup.heartbeat_ms);
        let mut degraded: Vec<CellSpec> = Vec::new();
        while pass.resolved < total_to_run {
            // 0. Open every link of the pass with no live worker whose
            //    backoff, if any, has expired: the fleet's first open, and
            //    each reopen after a death. Links that survived earlier
            //    grids keep their sessions.
            let now = Instant::now();
            for slot in (0..self.links.len()).filter(|&s| in_pass(s)) {
                let link = &self.links[slot];
                if !link.quarantined
                    && link.reopen_at.is_none_or(|at| at <= now)
                    && !self.handles.iter().any(|h| h.alive && h.slot == slot)
                {
                    self.open_link(slot);
                }
            }

            // 1. Assign work to idle live workers: own deque, then steal
            //    from the longest, then a due retry.
            let now = Instant::now();
            for h in self
                .handles
                .iter_mut()
                .filter(|h| h.alive && h.ready && h.current.is_none())
            {
                let cell = deques[h.slot]
                    .pop_front()
                    .or_else(|| {
                        // Steal from the back of the longest other deque.
                        deques
                            .iter_mut()
                            .max_by_key(|d| d.len())
                            .filter(|d| !d.is_empty())
                            .and_then(|d| d.pop_back())
                    })
                    .or_else(|| pass.take_due_retry(now));
                if let Some(cell) = cell {
                    h.current = Some(cell.clone());
                    let sent = encode_frame(&ToWorker::RunCell { cell })
                        .and_then(|bytes| h.conn.send_bytes(&bytes));
                    match sent {
                        Ok(()) => {
                            if let Some(t) = self.telemetry {
                                t.counter("grid.transport.frames_tx").inc();
                            }
                        }
                        Err(e) => {
                            // The frame may be half-written: the link
                            // cannot be trusted, and the worker may be
                            // healthily blocked mid-read (still
                            // heartbeating, so the watchdog would never
                            // fire). Sever so the reader thread's terminal
                            // event orphans the cell.
                            if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) {
                                if let Some(t) = self.telemetry {
                                    t.counter("grid.transport.timeouts").inc();
                                }
                            }
                            h.conn.sever();
                        }
                    }
                }
            }

            // 2. Wait for events, then drain everything queued — on a
            //    pass's first iteration that includes the heartbeats an
            //    idle fleet queued between grids, so the watchdog below
            //    never judges a link by a stale `last_seen`.
            let first = self.rx.recv_timeout(Duration::from_millis(25)).ok();
            let batch: Vec<Event> = first
                .into_iter()
                .chain(std::iter::from_fn(|| self.rx.try_recv().ok()))
                .collect();
            for ev in batch {
                self.on_event(ev, &mut pass, &mut busy_secs);
            }

            // 3. Heartbeat watchdog.
            let now = Instant::now();
            for i in 0..self.handles.len() {
                let h = &mut self.handles[i];
                if !h.alive || now.duration_since(h.last_seen) <= heartbeat_deadline {
                    continue;
                }
                // Severing unblocks the reader thread (and, over TCP, the
                // possibly half-open peer) before mark_dead joins it.
                h.conn.sever();
                let _ = h.conn.reap();
                let failure = WorkerFailure::HeartbeatTimeout {
                    silent_ms: now.duration_since(h.last_seen).as_millis() as u64,
                };
                if let Some(cell) = self.mark_dead(i, &failure) {
                    pass.fail_attempt(cell, failure);
                }
            }

            // 4. No live link and none waiting to reopen: hand the
            //    leftover cells to the in-process executor.
            if pass.resolved < total_to_run
                && !self.handles.iter().any(|h| h.alive)
                && (0..self.links.len()).all(|s| !in_pass(s) || self.links[s].quarantined)
            {
                degraded = deques
                    .iter_mut()
                    .flat_map(|d| d.drain(..))
                    .chain(pass.retry.drain(..).map(|(_, c)| c))
                    .collect();
                break;
            }
        }

        // Graceful degradation: every link of the fleet is quarantined.
        // Rather than aborting a multi-hour sweep, finish the remaining
        // cells on the local executor — byte-identical numbers, worker id
        // 0 — and say so even under --quiet.
        if !degraded.is_empty() {
            let remote = if n_local == 0 { "remote " } else { "" };
            eprintln!(
                "warning: all {} {remote}worker(s) unreachable or quarantined; \
                 running {} remaining cell(s) in-process",
                self.links.len(),
                fold.cells_settled_by(&degraded)
            );
            run_local(&degraded, env, fold, false);
        }
        busy_secs.resize(self.transports.len(), 0.0);
        (busy_secs, self.transports.clone())
    }
}

impl Drop for Fleet {
    /// Closes the fleet once, after its last grid: ask every live worker
    /// politely to shut down, close the write half (EOF also exits the
    /// worker loop), reap children, and join every reader thread. Alive
    /// TCP links are *not* severed here — severing could cut the socket
    /// before the agent reads Shutdown, leaving it parked in a dead session
    /// instead of exiting. Then fold the shard journals into the primary:
    /// on a clean run this only deletes them (their records were journaled
    /// as CellOk frames arrived), after frame loss it adopts the
    /// stragglers.
    fn drop(&mut self) {
        for h in self.handles.iter_mut().filter(|h| h.alive) {
            let polite = encode_frame(&ToWorker::Shutdown)
                .and_then(|bytes| h.conn.send_bytes(&bytes))
                .is_ok();
            if polite {
                if let Some(t) = self.telemetry {
                    t.counter("grid.transport.frames_tx").inc();
                }
            }
            h.conn.close_writer();
        }
        for h in &mut self.handles {
            let _ = h.conn.reap();
            if let Some(rt) = h.reader.take() {
                let _ = rt.join();
            }
        }
        if let Some(path) = self.ctl.journal.as_deref() {
            let _ = Journal::merge_shards(path);
        }
    }
}

/// One grid's bookkeeping over a borrowed [`Fleet`]: its cells' attempt
/// counts and retry queue, the done-set, and how many cells have resolved.
struct GridPass<'p, 'a> {
    fold: &'p GridFold<'a>,
    seed: u64,
    retries: u32,
    backoff_ms: u64,
    telemetry: Option<&'static ccs_telemetry::Telemetry>,
    attempts: HashMap<String, u32>,
    retry: Vec<(Instant, CellSpec)>,
    /// Keys of cells already folded into the grid: a flaky link can
    /// replay a CellOk frame, and only the first copy may count.
    done: HashSet<String>,
    resolved: usize,
}

impl GridPass<'_, '_> {
    /// A failed cell is final: fold it as an error, unattributed.
    fn resolve_err(&mut self, cell: &CellSpec, kind: CellErrorKind, message: String) {
        self.fold
            .record(cell, SimulatedCell::failed(kind, message), 0);
        self.resolved += 1;
    }

    /// Counts one failed attempt of `cell`: a deterministic verdict or the
    /// last allowed attempt resolves it as an error, anything else
    /// re-queues it after its backoff.
    fn fail_attempt(&mut self, cell: CellSpec, failure: WorkerFailure) {
        let n = self.attempts.entry(cell.key.clone()).or_insert(0);
        *n += 1;
        let n = *n;
        if !failure.is_retryable() {
            if let WorkerFailure::CellFailed { kind, message } = failure {
                self.resolve_err(&cell, kind, message);
            } else {
                unreachable!("only CellFailed is non-retryable");
            }
        } else if n >= self.retries {
            self.resolve_err(
                &cell,
                CellErrorKind::Quarantine,
                format!("quarantined after {n} failed attempt(s); last: {failure}"),
            );
        } else {
            if let Some(t) = self.telemetry {
                t.counter("grid.worker.retries").inc();
            }
            let delay = backoff_delay_ms(self.seed, &cell.key, n, self.backoff_ms);
            self.retry
                .push((Instant::now() + Duration::from_millis(delay), cell));
        }
    }

    /// Removes and returns the earliest retry that is due at `now`.
    fn take_due_retry(&mut self, now: Instant) -> Option<CellSpec> {
        let due = self
            .retry
            .iter()
            .enumerate()
            .filter(|(_, (at, _))| *at <= now)
            .min_by_key(|(_, (at, _))| *at)
            .map(|(i, _)| i);
        due.map(|i| self.retry.swap_remove(i).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        for attempt in 1..=10u32 {
            let a = backoff_delay_ms(42, "cellkey", attempt, 250);
            let b = backoff_delay_ms(42, "cellkey", attempt, 250);
            assert_eq!(a, b, "same inputs, same delay");
            let shift = (attempt - 1).min(16);
            let exp = 250u64.saturating_mul(1 << shift).min(MAX_BACKOFF_MS);
            assert!(
                a >= exp,
                "attempt {attempt}: delay {a} below exponential floor {exp}"
            );
            assert!(
                a < exp + 250,
                "attempt {attempt}: jitter out of bounds ({a} >= {exp} + base)"
            );
        }
    }

    #[test]
    fn backoff_jitter_varies_with_seed_and_key() {
        let base = backoff_delay_ms(1, "k", 1, 1000);
        let other_seed = backoff_delay_ms(2, "k", 1, 1000);
        let other_key = backoff_delay_ms(1, "k2", 1, 1000);
        let other_attempt = backoff_delay_ms(1, "k", 2, 1000);
        // The jitter hash must react to every input (collisions are
        // possible but three simultaneous ones are not, for FNV on these
        // fixed strings).
        assert!(
            base != other_seed || base != other_key || base + 1000 != other_attempt,
            "jitter ignored all inputs"
        );
    }

    #[test]
    fn backoff_never_exceeds_cap_plus_jitter() {
        for attempt in 1..=64u32 {
            let d = backoff_delay_ms(7, "x", attempt, MAX_BACKOFF_MS);
            assert!(d < 2 * MAX_BACKOFF_MS + 1, "delay {d} blew the cap");
        }
    }

    #[test]
    fn failure_classification_retryability() {
        assert!(WorkerFailure::Crash { exit_code: None }.is_retryable());
        assert!(WorkerFailure::Crash { exit_code: Some(3) }.is_retryable());
        assert!(WorkerFailure::HeartbeatTimeout { silent_ms: 5000 }.is_retryable());
        assert!(WorkerFailure::Protocol {
            detail: "torn".into()
        }
        .is_retryable());
        assert!(WorkerFailure::ConnectTimeout {
            addr: "10.0.0.1:9000".into(),
            ms: 3000
        }
        .is_retryable());
        assert!(WorkerFailure::Disconnected {
            detail: "connection reset".into()
        }
        .is_retryable());
        assert!(WorkerFailure::CellFailed {
            kind: CellErrorKind::Panic,
            message: "boom".into()
        }
        .is_retryable());
        // Deterministic verdicts are final.
        assert!(!WorkerFailure::CellFailed {
            kind: CellErrorKind::Budget,
            message: "over".into()
        }
        .is_retryable());
        assert!(!WorkerFailure::CellFailed {
            kind: CellErrorKind::Invariant,
            message: "violated".into()
        }
        .is_retryable());
    }

    #[test]
    fn failure_display_names_the_cause() {
        assert!(WorkerFailure::Crash { exit_code: Some(3) }
            .to_string()
            .contains("code 3"));
        assert!(WorkerFailure::Crash { exit_code: None }
            .to_string()
            .contains("signal or abort"));
        assert!(WorkerFailure::HeartbeatTimeout { silent_ms: 1234 }
            .to_string()
            .contains("1234 ms"));
        assert!(WorkerFailure::Protocol {
            detail: "bad frame".into()
        }
        .to_string()
        .contains("bad frame"));
        let ct = WorkerFailure::ConnectTimeout {
            addr: "grid-7:9000".into(),
            ms: 3000,
        }
        .to_string();
        assert!(ct.contains("grid-7:9000") && ct.contains("3000 ms"), "{ct}");
        assert!(WorkerFailure::Disconnected {
            detail: "reset by peer".into()
        }
        .to_string()
        .contains("reset by peer"));
    }

    #[test]
    fn config_validation_names_the_flag() {
        let ok = SupervisorConfig::default();
        assert!(ok.validate().is_ok());
        let cases = [
            (
                SupervisorConfig {
                    workers: 0,
                    ..ok.clone()
                },
                "--workers",
            ),
            (
                SupervisorConfig {
                    workers: 1000,
                    ..ok.clone()
                },
                "--workers",
            ),
            (
                SupervisorConfig {
                    retries: 0,
                    ..ok.clone()
                },
                "--retries",
            ),
            (
                SupervisorConfig {
                    backoff_ms: 0,
                    ..ok.clone()
                },
                "--backoff-ms",
            ),
            (
                SupervisorConfig {
                    heartbeat_ms: 5,
                    ..ok.clone()
                },
                "--heartbeat-ms",
            ),
            (
                SupervisorConfig {
                    connect_timeout_ms: 0,
                    ..ok.clone()
                },
                "--connect-timeout-ms",
            ),
            (
                SupervisorConfig {
                    remotes: vec!["no-port".into()],
                    ..ok.clone()
                },
                "--remote",
            ),
            (
                SupervisorConfig {
                    remotes: vec![":9000".into()],
                    ..ok.clone()
                },
                "--remote",
            ),
            (
                SupervisorConfig {
                    remotes: vec!["host:notaport".into()],
                    ..ok.clone()
                },
                "--remote",
            ),
        ];
        for (bad, flag) in cases {
            let err = bad.validate().unwrap_err();
            assert_eq!(err.field, flag);
        }
    }

    #[test]
    fn remote_only_config_is_valid() {
        let cfg = SupervisorConfig {
            workers: 0,
            remotes: vec!["127.0.0.1:9000".into(), "grid-7:9001".into()],
            ..SupervisorConfig::default()
        };
        assert!(cfg.validate().is_ok());
    }

    /// The `utility_risk` binary `cargo test` builds for the integration
    /// tests, beside this test binary's `deps/` directory.
    fn worker_bin() -> PathBuf {
        let exe = std::env::current_exe().expect("test binary path");
        let dir = exe
            .parent()
            .and_then(|deps| deps.parent())
            .expect("test binary lives in <target>/<profile>/deps");
        let bin = dir.join(format!("utility_risk{}", std::env::consts::EXE_SUFFIX));
        assert!(
            bin.exists(),
            "worker binary {} is missing: `cargo test` builds it with the integration tests",
            bin.display()
        );
        bin
    }

    /// Fleet reuse: two grids run on one fleet, with an idle gap longer
    /// than the heartbeat deadline between them. The second grid must
    /// reuse the first grid's two children — none declared dead, none
    /// respawned — and closing the fleet must join every reader thread.
    #[test]
    fn one_fleet_serves_consecutive_grids_across_an_idle_gap() {
        use crate::grid::{one_grid, GridRun};
        use crate::scenario::EstimateSet;
        use ccs_economy::EconomicModel;

        let cfg = ExperimentConfig::quick().with_jobs(25);
        let sup = SupervisorConfig {
            workers: 2,
            heartbeat_ms: 1_000,
            worker_bin: Some(worker_bin()),
            ..SupervisorConfig::default()
        };
        let ctl = GridControl {
            supervisor: Some(sup.clone()),
            ..GridControl::default()
        };
        let grids = [
            (EconomicModel::CommodityMarket, EstimateSet::A),
            (EconomicModel::BidBased, EstimateSet::B),
        ];
        let mut run = GridRun::new(&cfg).control(&ctl).open(&grids).unwrap();
        let first = run.next().unwrap();
        std::thread::sleep(Duration::from_millis(sup.heartbeat_ms * 3 / 2));
        let second = run.next().unwrap();
        let fleet = run.fleet.as_ref().unwrap();

        assert_eq!(
            fleet.transports,
            ["pipe", "pipe"],
            "spawned 2 children in total"
        );
        assert!(
            fleet.handles.iter().all(|h| h.alive),
            "no worker may be declared dead across the idle gap"
        );
        for grid in [&first, &second] {
            assert!(grid.errors.is_empty(), "{:?}", grid.errors);
            assert_eq!(grid.worker_transports, ["pipe", "pipe"]);
            let workers: HashSet<u64> = grid
                .cell_workers
                .iter()
                .flatten()
                .flatten()
                .copied()
                .collect();
            assert_eq!(
                workers,
                HashSet::from([1, 2]),
                "both grids ran on workers 1 and 2"
            );
        }
        drop(run);
        assert_eq!(
            live_reader_threads(),
            0,
            "closing the fleet joins every reader"
        );
        assert_eq!(
            second.raw,
            one_grid(EconomicModel::BidBased, EstimateSet::B, &cfg).raw,
            "the reused fleet's grid equals the in-process grid"
        );
    }

    /// A fleet out of links finishes in-process: after every link is
    /// quarantined, each leftover cell runs on the local executor under
    /// worker id 0, and the grid equals the in-process grid.
    fn assert_fleet_finishes_in_process(sup: SupervisorConfig) {
        use crate::grid::{one_grid, GridRun};
        use crate::scenario::EstimateSet;
        use ccs_economy::EconomicModel;

        let cfg = ExperimentConfig::quick().with_jobs(25);
        let ctl = GridControl {
            supervisor: Some(sup),
            ..GridControl::default()
        };
        let (econ, set) = (EconomicModel::CommodityMarket, EstimateSet::A);
        let grid = GridRun::new(&cfg)
            .control(&ctl)
            .run(&[(econ, set)])
            .unwrap()
            .remove(0);
        assert!(grid.errors.is_empty(), "{:?}", grid.errors);
        assert!(
            grid.cell_workers
                .iter()
                .flatten()
                .flatten()
                .all(|&w| w == 0),
            "every cell ran in-process"
        );
        let local = one_grid(econ, set, &cfg);
        assert_eq!(grid.raw, local.raw);
        assert_eq!(grid.cell_sigma, local.cell_sigma);
        assert_eq!(grid.cell_events, local.cell_events);
    }

    /// A local worker binary that cannot be spawned.
    fn missing_worker_bin() -> PathBuf {
        std::env::temp_dir().join(format!("ccs_no_worker_bin_{}", std::process::id()))
    }

    #[test]
    fn unspawnable_local_workers_quarantine_and_finish_in_process() {
        assert_fleet_finishes_in_process(SupervisorConfig {
            workers: 2,
            retries: 2,
            backoff_ms: 1,
            worker_bin: Some(missing_worker_bin()),
            ..SupervisorConfig::default()
        });
    }

    #[test]
    fn mixed_fleet_out_of_links_finishes_in_process() {
        // Bind-then-drop leaves a port with no listener.
        let dead_addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        assert_fleet_finishes_in_process(SupervisorConfig {
            workers: 1,
            remotes: vec![dead_addr],
            retries: 2,
            backoff_ms: 1,
            connect_timeout_ms: 250,
            worker_bin: Some(missing_worker_bin()),
            ..SupervisorConfig::default()
        });
    }

    #[test]
    fn link_error_classification_keeps_torn_frames_typed() {
        use std::io::Error;
        assert!(is_link_error(&Error::from(ErrorKind::ConnectionReset)));
        assert!(is_link_error(&Error::from(ErrorKind::BrokenPipe)));
        assert!(is_link_error(&Error::from(ErrorKind::TimedOut)));
        // A mid-frame EOF is a *torn frame* — it must classify as a
        // protocol error, not a link loss.
        assert!(!is_link_error(&Error::from(ErrorKind::UnexpectedEof)));
        assert!(!is_link_error(&Error::from(ErrorKind::InvalidData)));
    }
}
