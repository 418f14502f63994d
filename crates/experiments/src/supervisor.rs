//! The multi-machine grid supervisor: shards cells across worker
//! processes — local children over stdio pipes, remote `serve-worker`
//! agents over TCP — and survives their deaths *and* their networks.
//!
//! Local workers are the current binary re-exec'd as `utility_risk
//! worker` (see `crate::worker`); remote workers are long-lived
//! `utility_risk serve-worker` agents dialed over `std::net::TcpStream`.
//! Both speak the [`crate::ipc`] frame protocol through the
//! [`Transport`] trait, so the loop below is transport-blind. The
//! supervisor is only an executor: the grid's plan (journal hits, cell
//! budget, drills) and its fold (grid arrays, journal, live board) live
//! in [`crate::grid`] and are shared with in-process runs. What stays
//! here is what fleets need:
//!
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
//!   re-enter the queue after [`backoff_delay_ms`]; failed dials reuse
//!   the same schedule keyed by the remote address. Budget/invariant
//!   failures are *not* retried — they are deterministic verdicts.
//! - **Reconnect-and-resume** — a dropped remote is redialed with
//!   backoff and re-Hello'd under its original shard id, so its shard
//!   journal answers re-assigned cells it already completed without
//!   re-simulating them. A remote that fails `retries` consecutive
//!   dials (or dies that often before its first `Ready`) is
//!   quarantined; its shard flows to survivors through work-stealing.
//! - **Graceful degradation** — local workers respawn up to 2× the
//!   configured count; past that cap, remaining cells are quarantined.
//!   A remote-only grid whose remotes are all quarantined *degrades to
//!   in-process execution* with a warning: the leftover cells run on the
//!   grid's local executor, and the run completes with exit 0 rather than
//!   aborting.
//!
//! Every death joins the dead worker's reader thread, and shutdown
//! joins the rest ([`live_reader_threads`] observes this), so grid runs
//! never leak threads across tests or reconnect cycles.
//!
//! The correctness contract is byte-identity: the merged grid (and
//! everything derived from it) is identical regardless of transport mix,
//! worker count, flake schedule, kill schedule, or reconnect history —
//! cells are deterministic, so *where* and *when* one runs cannot change
//! its numbers. Duplicate frames (a flaky link replaying a `CellOk`) are
//! deduplicated against the assignment and a done-set before counting.

use crate::grid::{plan_shards, run_local, CellEnv, GridControl, GridFold, SimulatedCell};
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
    /// second chances. The same cap quarantines a remote after K
    /// consecutive failed dials.
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
/// schedule. Redials reuse it with the remote address as the key.
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
    slot: usize,
    conn: Box<dyn Transport>,
    alive: bool,
    ready: bool,
    last_seen: Instant,
    current: Option<CellSpec>,
    reader: Option<JoinHandle<()>>,
    /// Index into the remote slot table when this link is a dialed TCP
    /// connection; `None` for local children.
    remote: Option<usize>,
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

/// One remote address's standing in the grid: its shard identity (stable
/// across redials, so the shard journal survives reconnects), its dial
/// failure streak, and when to try again.
struct RemoteSlot {
    addr: String,
    slot: usize,
    /// Worker id of the first successful connection — reused as the
    /// shard-journal id for every later redial. `0` until first contact.
    shard_id: u64,
    /// Consecutive failed dials / pre-`Ready` deaths. Reset by `Ready`.
    dial_failures: u32,
    redial_at: Option<Instant>,
    quarantined: bool,
    connected: bool,
}

/// Runs the planned `cells` of one grid on a fleet of worker processes
/// and folds every result into `fold` — the same fold the local executor
/// uses, so the fleet changes only *where* cells run, never the grid.
/// Completed cells are journaled as their frames arrive. If every remote
/// is gone and no local workers are configured, the leftover cells run on
/// the local executor instead. Returns busy seconds and the transport
/// label per worker connection.
pub(crate) fn run_grid_supervised(
    sup: &SupervisorConfig,
    ctl: &GridControl,
    cells: Vec<CellSpec>,
    env: &CellEnv,
    fold: &GridFold,
) -> (Vec<f64>, Vec<String>) {
    sup.validate()
        .unwrap_or_else(|e| panic!("invalid supervisor config: {e}"));
    let cfg = env.cfg;
    // The supervisor is the single injection point for network chaos:
    // both halves of every link (pipe or TCP) are wrapped here, workers
    // never read the env, so the flake schedule is a pure function of
    // (seed, rate, connection id).
    let flake_plan = FlakyTransport::from_env();
    let total_to_run = cells.len();

    // Shard the work round-robin into per-slot deques: one slot per
    // local worker, then one per remote address.
    let n_local = sup.workers;
    let n_slots = n_local + sup.remotes.len();
    let shards = plan_shards(total_to_run, n_slots);
    let mut deques: Vec<VecDeque<CellSpec>> = shards
        .iter()
        .map(|shard| shard.iter().map(|&i| cells[i].clone()).collect())
        .collect();

    let worker_bin = sup.worker_bin.clone().unwrap_or_else(|| {
        std::env::current_exe().expect("cannot resolve current executable for worker re-exec")
    });
    // A worker's shard journal is addressed by `shard_id`, not by the
    // connection's worker id: a redialed remote keeps its original shard
    // id, which is exactly what lets it resume from that journal.
    let hello = |worker_id: u64, shard_id: u64| ToWorker::Hello {
        worker_id,
        seed: cfg.seed,
        nodes: cfg.nodes,
        trace: cfg.trace,
        heartbeat_ms: sup.heartbeat_ms,
        cell_wall_budget: env.run_budget.max_wall_secs,
        cell_event_budget: env.run_budget.max_events,
        fail_cell: env.drills.fail_cell.clone(),
        stall_cell: env.drills.stall_cell.clone(),
        shard_journal: ctl.journal.as_deref().map(|p| {
            Journal::shard_path(p, shard_id)
                .to_string_lossy()
                .into_owned()
        }),
    };

    let (tx, rx) = mpsc::channel::<Event>();
    let connect_timeout = Duration::from_millis(sup.connect_timeout_ms);
    let write_timeout = Duration::from_millis(sup.heartbeat_ms);
    let spawn_cap = n_local * 2;
    let mut spawned = 0usize;
    let mut next_id = 0u64;
    let mut handles: Vec<WorkerHandle> = Vec::new();
    let mut busy_secs: Vec<f64> = Vec::new();
    let mut worker_transports: Vec<String> = Vec::new();
    let mut remote_slots: Vec<RemoteSlot> = sup
        .remotes
        .iter()
        .enumerate()
        .map(|(r_idx, addr)| RemoteSlot {
            addr: addr.clone(),
            slot: n_local + r_idx,
            shard_id: 0,
            dial_failures: 0,
            redial_at: None,
            quarantined: false,
            connected: false,
        })
        .collect();
    let telemetry = ccs_telemetry::ENABLED.then(ccs_telemetry::global);

    // Wires one freshly made transport into the grid: reader thread,
    // Hello frame, handle. A failed Hello severs the link and leaves the
    // handle dead — the reader's terminal event and the respawn/redial
    // logic take it from there.
    macro_rules! attach {
        ($id:expr, $slot:expr, $remote:expr, $shard_id:expr, $conn:expr) => {{
            let id: u64 = $id;
            let mut conn: Box<dyn Transport> = $conn;
            let mut reader = conn.take_reader().expect("fresh transport has a reader");
            let reader_tx = tx.clone();
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
            let hello_ok = match encode_frame(&hello(id, $shard_id)) {
                Ok(bytes) => conn.send_bytes(&bytes).is_ok(),
                Err(_) => false,
            };
            if hello_ok {
                if let Some(t) = telemetry {
                    t.counter("grid.transport.frames_tx").inc();
                }
            } else {
                conn.sever();
            }
            handles.push(WorkerHandle {
                id,
                slot: $slot,
                conn,
                alive: hello_ok,
                ready: false,
                last_seen: Instant::now(),
                current: None,
                reader: Some(reader_thread),
                remote: $remote,
            });
        }};
    }

    macro_rules! spawn_local {
        ($slot:expr) => {{
            next_id += 1;
            spawned += 1;
            let id = next_id;
            busy_secs.push(0.0);
            worker_transports.push(TransportKind::Pipe.label().to_string());
            if let Some(t) = telemetry {
                t.counter("grid.worker.spawns").inc();
            }
            let flakes = flake_plan.as_ref().map(|p| p.connection(id));
            match PipeTransport::spawn(&worker_bin, flakes) {
                Ok(conn) => attach!(id, $slot, None, id, Box::new(conn)),
                Err(e) => progress::note(&format!("supervisor: cannot spawn worker {id}: {e}")),
                // No handle on spawn failure: the main loop's respawn
                // logic takes it from here.
            }
        }};
    }

    macro_rules! dial_remote {
        ($r_idx:expr) => {{
            let r_idx: usize = $r_idx;
            if let Some(t) = telemetry {
                t.counter("grid.transport.dials").inc();
                if remote_slots[r_idx].shard_id != 0 {
                    t.counter("grid.transport.redials").inc();
                }
            }
            next_id += 1;
            let id = next_id;
            busy_secs.push(0.0);
            worker_transports.push(TransportKind::Tcp.label().to_string());
            let flakes = flake_plan.as_ref().map(|p| p.connection(id));
            let addr = remote_slots[r_idx].addr.clone();
            match TcpTransport::dial(&addr, connect_timeout, write_timeout, flakes) {
                Ok(conn) => {
                    let r = &mut remote_slots[r_idx];
                    if r.shard_id == 0 {
                        r.shard_id = id;
                    }
                    r.connected = true;
                    r.redial_at = None;
                    let (slot, shard_id) = (r.slot, r.shard_id);
                    attach!(id, slot, Some(r_idx), shard_id, Box::new(conn));
                }
                Err(e) => {
                    let failure = if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock)
                    {
                        if let Some(t) = telemetry {
                            t.counter("grid.transport.timeouts").inc();
                        }
                        WorkerFailure::ConnectTimeout {
                            addr: addr.clone(),
                            ms: sup.connect_timeout_ms,
                        }
                    } else {
                        WorkerFailure::Disconnected {
                            detail: format!("dial {addr}: {e}"),
                        }
                    };
                    let r = &mut remote_slots[r_idx];
                    r.dial_failures += 1;
                    if r.dial_failures >= sup.retries {
                        r.quarantined = true;
                        r.redial_at = None;
                        progress::note(&format!(
                            "supervisor: remote {addr} quarantined after {} failed dial(s); \
                             last: {failure}",
                            r.dial_failures
                        ));
                    } else {
                        let delay =
                            backoff_delay_ms(cfg.seed, &addr, r.dial_failures, sup.backoff_ms);
                        r.redial_at = Some(Instant::now() + Duration::from_millis(delay));
                        progress::note(&format!("supervisor: {failure}; redial in {delay} ms"));
                    }
                }
            }
        }};
    }

    if total_to_run > 0 {
        for slot in 0..n_local.min(total_to_run) {
            spawn_local!(slot);
        }
        for r_idx in 0..remote_slots.len() {
            dial_remote!(r_idx);
        }
    }

    let heartbeat_deadline = Duration::from_millis(sup.heartbeat_ms);
    let mut attempts: HashMap<String, u32> = HashMap::new();
    let mut retry: Vec<(Instant, CellSpec)> = Vec::new();
    // Keys of cells already folded into the grid: a flaky link can
    // replay a CellOk frame, and only the first copy may count.
    let mut done: HashSet<String> = HashSet::new();
    let mut degraded: Vec<CellSpec> = Vec::new();
    let mut resolved = 0usize;

    // A failed cell is final: fold it as an error, unattributed.
    macro_rules! resolve_err {
        ($cell:expr, $kind:expr, $message:expr) => {{
            fold.record($cell, SimulatedCell::failed($kind, $message), 0);
            resolved += 1;
        }};
    }
    macro_rules! fail_cell_attempt {
        ($cell:expr, $failure:expr) => {{
            let cell: CellSpec = $cell;
            let failure: WorkerFailure = $failure;
            let n = attempts.entry(cell.key.clone()).or_insert(0);
            *n += 1;
            let n = *n;
            if !failure.is_retryable() {
                if let WorkerFailure::CellFailed { kind, message } = failure {
                    resolve_err!(&cell, kind, message);
                } else {
                    unreachable!("only CellFailed is non-retryable");
                }
            } else if n >= sup.retries {
                resolve_err!(
                    &cell,
                    CellErrorKind::Quarantine,
                    format!("quarantined after {n} failed attempt(s); last: {failure}")
                );
            } else {
                if let Some(t) = telemetry {
                    t.counter("grid.worker.retries").inc();
                }
                let delay = backoff_delay_ms(cfg.seed, &cell.key, n, sup.backoff_ms);
                retry.push((Instant::now() + Duration::from_millis(delay), cell));
            }
        }};
    }
    // Common tail of every worker death: join the reader, count it,
    // orphan the in-flight cell, and schedule the remote's redial (or
    // quarantine it). `$was_severed` paths have already unblocked the
    // reader; the pipe-EOF path reaped instead, which implies EOF too.
    macro_rules! mark_dead {
        ($h:expr, $failure:expr) => {{
            let h: &mut WorkerHandle = $h;
            let failure: WorkerFailure = $failure;
            h.alive = false;
            if let Some(t) = telemetry {
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
            let was_ready = h.ready;
            if let Some(cell) = h.current.take() {
                fail_cell_attempt!(cell, failure);
            }
            if let Some(r_idx) = h.remote {
                let r = &mut remote_slots[r_idx];
                r.connected = false;
                // A death before Ready extends the dial-failure streak —
                // a listener that accepts and immediately dies must not
                // be redialed forever. A post-Ready death redials with a
                // fresh streak (attempt 1 backoff).
                if !was_ready {
                    r.dial_failures += 1;
                }
                if r.dial_failures >= sup.retries {
                    r.quarantined = true;
                    r.redial_at = None;
                    progress::note(&format!(
                        "supervisor: remote {} quarantined after {} failure(s)",
                        r.addr, r.dial_failures
                    ));
                } else {
                    let attempt = r.dial_failures.max(1);
                    let delay = backoff_delay_ms(cfg.seed, &r.addr, attempt, sup.backoff_ms);
                    r.redial_at = Some(Instant::now() + Duration::from_millis(delay));
                }
            }
        }};
    }

    while resolved < total_to_run {
        // 0. Redial remotes whose backoff expired.
        let now = Instant::now();
        for r_idx in 0..remote_slots.len() {
            let due = {
                let r = &remote_slots[r_idx];
                !r.quarantined && !r.connected && r.redial_at.is_some_and(|at| at <= now)
            };
            if due {
                dial_remote!(r_idx);
            }
        }

        // 1. Assign work to idle live workers: own deque, then steal from
        //    the longest, then a due retry.
        let now = Instant::now();
        for h in handles
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
                .or_else(|| {
                    // A due retry, earliest first.
                    let due = retry
                        .iter()
                        .enumerate()
                        .filter(|(_, (at, _))| *at <= now)
                        .min_by_key(|(_, (at, _))| *at)
                        .map(|(i, _)| i);
                    due.map(|i| retry.swap_remove(i).1)
                });
            if let Some(cell) = cell {
                h.current = Some(cell.clone());
                let sent = encode_frame(&ToWorker::RunCell { cell })
                    .and_then(|bytes| h.conn.send_bytes(&bytes));
                match sent {
                    Ok(()) => {
                        if let Some(t) = telemetry {
                            t.counter("grid.transport.frames_tx").inc();
                        }
                    }
                    Err(e) => {
                        // The frame may be half-written: the link cannot
                        // be trusted, and the worker may be healthily
                        // blocked mid-read (still heartbeating, so the
                        // watchdog would never fire). Sever so the reader
                        // thread's terminal event orphans the cell.
                        if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) {
                            if let Some(t) = telemetry {
                                t.counter("grid.transport.timeouts").inc();
                            }
                        }
                        h.conn.sever();
                    }
                }
            }
        }

        // 2. Wait for events.
        let timeout = Duration::from_millis(25);
        let mut batch: Vec<Event> = Vec::new();
        match rx.recv_timeout(timeout) {
            Ok(ev) => {
                batch.push(ev);
                while let Ok(ev) = rx.try_recv() {
                    batch.push(ev);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {}
        }

        for ev in batch {
            match ev {
                Event::Frame(id, frame) => {
                    let Some(h) = handles.iter_mut().find(|h| h.id == id) else {
                        continue;
                    };
                    if !h.alive {
                        // A late frame from a worker already declared
                        // dead (its cell is orphaned and may be running
                        // elsewhere) must not be double-counted.
                        continue;
                    }
                    h.last_seen = Instant::now();
                    match frame {
                        FromWorker::Ready { .. } => {
                            h.ready = true;
                            if let Some(r_idx) = h.remote {
                                // A full session start clears the
                                // remote's failure streak.
                                remote_slots[r_idx].dial_failures = 0;
                            }
                        }
                        FromWorker::Heartbeat { .. } => {
                            if let Some(t) = telemetry {
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
                            // Only the assignment we are waiting for
                            // counts: a flaky link can duplicate frames.
                            if h.current.as_ref().map(|c| c.key.as_str()) != Some(cell.key.as_str())
                            {
                                continue;
                            }
                            h.current = None;
                            if !done.insert(cell.key.clone()) {
                                continue;
                            }
                            busy_secs[(id - 1) as usize] += secs;
                            let sim = SimulatedCell {
                                outcome: Ok((objectives, events)),
                                sigma: [0.0; 4],
                                secs,
                                cost,
                                profile,
                            };
                            fold.record(&cell, sim, id);
                            resolved += 1;
                        }
                        FromWorker::CellErr {
                            cell,
                            kind,
                            message,
                        } => {
                            if h.current.as_ref().map(|c| c.key.as_str()) != Some(cell.key.as_str())
                            {
                                continue;
                            }
                            h.current = None;
                            if done.contains(&cell.key) {
                                continue;
                            }
                            fail_cell_attempt!(cell, WorkerFailure::CellFailed { kind, message });
                        }
                    }
                }
                dead => {
                    enum LinkEnd {
                        Eof,
                        Corrupt(String),
                        Lost(String),
                    }
                    let (id, end) = match dead {
                        Event::Eof(id) => (id, LinkEnd::Eof),
                        Event::Corrupt(id, d) => (id, LinkEnd::Corrupt(d)),
                        Event::Lost(id, d) => (id, LinkEnd::Lost(d)),
                        Event::Frame(..) => unreachable!("handled above"),
                    };
                    let Some(h) = handles.iter_mut().find(|h| h.id == id) else {
                        continue;
                    };
                    if !h.alive {
                        continue;
                    }
                    let failure = match (h.conn.kind(), end) {
                        (TransportKind::Pipe, LinkEnd::Eof) => {
                            // Don't sever: the child is exiting on its
                            // own, and killing it here would destroy the
                            // exit code the classification reads.
                            match h.conn.reap() {
                                Some(code) if code == crate::worker::PROTOCOL_EXIT => {
                                    WorkerFailure::Protocol {
                                        detail: format!(
                                            "worker reported a protocol error (exit {code})"
                                        ),
                                    }
                                }
                                code => WorkerFailure::Crash { exit_code: code },
                            }
                        }
                        (TransportKind::Tcp, LinkEnd::Eof) => {
                            h.conn.sever();
                            WorkerFailure::Disconnected {
                                detail: "connection closed by peer".to_string(),
                            }
                        }
                        (_, LinkEnd::Corrupt(d)) => {
                            h.conn.sever();
                            let _ = h.conn.reap();
                            WorkerFailure::Protocol { detail: d }
                        }
                        (TransportKind::Pipe, LinkEnd::Lost(_)) => {
                            h.conn.sever();
                            let code = h.conn.reap();
                            WorkerFailure::Crash { exit_code: code }
                        }
                        (TransportKind::Tcp, LinkEnd::Lost(d)) => {
                            h.conn.sever();
                            WorkerFailure::Disconnected { detail: d }
                        }
                    };
                    mark_dead!(h, failure);
                }
            }
        }

        // 3. Heartbeat watchdog.
        let now = Instant::now();
        let mut timed_out: Vec<u64> = Vec::new();
        for h in handles.iter().filter(|h| h.alive) {
            if now.duration_since(h.last_seen) > heartbeat_deadline {
                timed_out.push(h.id);
            }
        }
        for id in timed_out {
            let h = handles.iter_mut().find(|h| h.id == id).unwrap();
            // Severing unblocks the reader thread (and, over TCP, the
            // possibly half-open peer) before mark_dead! joins it.
            h.conn.sever();
            let _ = h.conn.reap();
            let silent_ms = now.duration_since(h.last_seen).as_millis() as u64;
            mark_dead!(h, WorkerFailure::HeartbeatTimeout { silent_ms });
        }

        // 4. Everyone dead with work outstanding → respawn locals (up to
        //    the cap), wait out remote redial timers, degrade to
        //    in-process execution (remote-only grid, all quarantined), or
        //    quarantine what's left.
        if resolved < total_to_run && !handles.iter().any(|h| h.alive) {
            let awaiting_redial = remote_slots.iter().any(|r| !r.quarantined && !r.connected);
            if n_local > 0 && spawned < spawn_cap {
                let slot = spawned % n_local;
                spawn_local!(slot);
            } else if awaiting_redial {
                // A redial timer is pending; step 0 fires it.
            } else if n_local == 0 {
                degraded = deques
                    .iter_mut()
                    .flat_map(|d| d.drain(..))
                    .chain(retry.drain(..).map(|(_, c)| c))
                    .collect();
                break;
            } else {
                let outstanding: Vec<CellSpec> = deques
                    .iter_mut()
                    .flat_map(|d| d.drain(..))
                    .chain(retry.drain(..).map(|(_, c)| c))
                    .collect();
                for cell in outstanding {
                    resolve_err!(
                        &cell,
                        CellErrorKind::Quarantine,
                        format!("no live workers left (spawn cap {spawn_cap} reached)")
                    );
                }
            }
        }
    }

    // Graceful degradation: every remote is quarantined and no local
    // workers were configured. Rather than aborting a multi-hour sweep,
    // finish the remaining cells on the local executor — byte-identical
    // numbers, worker id 0 — and say so even under --quiet.
    if !degraded.is_empty() {
        eprintln!(
            "warning: all {} remote worker(s) unreachable or quarantined; \
             running {} remaining cell(s) in-process",
            remote_slots.len(),
            degraded.len()
        );
        run_local(&degraded, env, fold, false);
    }

    // Clean shutdown: ask politely, close the write half (EOF also exits
    // the worker loop), reap children, and join every reader thread.
    // Alive TCP links are *not* severed here — severing could cut the
    // socket before the agent reads Shutdown, leaving it parked in a
    // dead session instead of exiting.
    for h in handles.iter_mut().filter(|h| h.alive) {
        let polite = encode_frame(&ToWorker::Shutdown)
            .and_then(|bytes| h.conn.send_bytes(&bytes))
            .is_ok();
        if polite {
            if let Some(t) = telemetry {
                t.counter("grid.transport.frames_tx").inc();
            }
        }
        h.conn.close_writer();
    }
    for mut h in handles {
        let _ = h.conn.reap();
        if let Some(rt) = h.reader.take() {
            let _ = rt.join();
        }
    }
    // Fold shard journals into the primary: on a clean run this only
    // deletes them (their records were journaled as CellOk frames
    // arrived), after frame loss it adopts the stragglers.
    if let Some(path) = ctl.journal.as_deref() {
        let _ = Journal::merge_shards(path);
    }

    (busy_secs, worker_transports)
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
