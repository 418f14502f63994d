//! Seed-pure network fault injection for the grid transport.
//!
//! The multi-machine grid (`ccs_experiments::supervisor`) drives workers
//! over pipes and TCP sockets. This module provides the network's chaos
//! drill: a [`FlakyTransport`] plan wraps a connection's read/write halves
//! in [`FlakyReader`] / [`FlakyWriter`] adapters that inject drops,
//! delays, truncated and duplicated frames, and mid-frame disconnects on
//! a schedule that is a pure function of `(plan seed, connection id,
//! frame index)` — no wall clock, no global RNG, so a CI flake drill
//! replays exactly on a laptop.
//!
//! The supervisor is the single injection point (it simulates "the
//! network"; workers never read the plan), and it wraps *both* halves of
//! a connection, so supervisor→worker frames can tear mid-write and
//! worker→supervisor frames can cut mid-read. Every injected fault must
//! surface through the typed `WorkerFailure` taxonomy — the property the
//! flake drills exist to prove.
//!
//! The plan travels through the `FLAKY_TRANSPORT_ENV` environment
//! variable (`"seed:rate_pct"`), mirroring `CCS_KILL_WORKER`.

use serde::{Deserialize, Serialize};
use std::io::{ErrorKind, Read, Write};

/// Environment variable carrying a serialised [`FlakyTransport`]
/// (`"seed:rate_pct"`) into the supervisor.
pub const FLAKY_TRANSPORT_ENV: &str = "CCS_FLAKY_TRANSPORT";

/// Injected delays never sleep longer than this — faults must perturb
/// ordering, not stall the grid.
pub(crate) const MAX_FLAKE_DELAY_MS: u64 = 8;

/// What the flaky network does to one frame (write side) or one read
/// call (read side).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FlakeAction {
    /// Deliver untouched.
    Pass,
    /// Deliver after a short deterministic delay (reordering pressure).
    Delay {
        /// Sleep before delivery, bounded by [`MAX_FLAKE_DELAY_MS`].
        ms: u64,
    },
    /// Write a strict prefix of the frame, then fail the connection —
    /// the peer sees a torn frame (EOF inside a frame).
    Truncate,
    /// Drop the frame entirely and fail the connection — the peer sees
    /// a clean-looking cut at a frame boundary.
    Drop,
    /// Deliver the frame twice — the peer must tolerate replays.
    Duplicate,
    /// (Read side) deliver a byte, then cut the connection mid-frame.
    Cut,
}

/// A deterministic network fault plan: `rate_pct` percent of frames are
/// faulted, with the action and timing derived by FNV-1a from
/// `(seed, connection, direction, frame index)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlakyTransport {
    /// Seed of the fault schedule.
    pub seed: u64,
    /// Percent of frames faulted, 0..=100.
    pub rate_pct: u32,
}

fn fnv1a(parts: &[u64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

impl FlakyTransport {
    /// Parse the `"seed:rate_pct"` form, naming what was wrong on
    /// failure.
    pub(crate) fn parse(s: &str) -> Result<FlakyTransport, String> {
        let (seed, rate) = s
            .split_once(':')
            .ok_or_else(|| format!("expected \"seed:rate_pct\", got {s:?}"))?;
        let seed = seed
            .trim()
            .parse::<u64>()
            .map_err(|e| format!("bad seed {seed:?}: {e}"))?;
        let rate_pct = rate
            .trim()
            .parse::<u32>()
            .map_err(|e| format!("bad rate {rate:?}: {e}"))?;
        if rate_pct > 100 {
            return Err(format!("rate must be 0..=100 percent, got {rate_pct}"));
        }
        Ok(FlakyTransport { seed, rate_pct })
    }

    /// Reads the plan from [`FLAKY_TRANSPORT_ENV`]: `Ok(None)` when it
    /// is unset, an error naming what is wrong when it is malformed.
    /// `utility_risk` checks the variable before any cell runs or worker
    /// spawns and refuses a malformed value, so a drill with a typo fails
    /// loudly instead of running no drill.
    pub fn from_env() -> Result<Option<FlakyTransport>, String> {
        match std::env::var(FLAKY_TRANSPORT_ENV) {
            Ok(v) => FlakyTransport::parse(&v).map(Some),
            Err(std::env::VarError::NotPresent) => Ok(None),
            Err(e) => Err(e.to_string()),
        }
    }

    /// The fault schedule of one connection. Connections are identified
    /// by the supervisor-assigned worker id, which is unique per
    /// connection (a redial mints a fresh id), so every session replays
    /// its own deterministic schedule.
    pub fn connection(&self, conn: u64) -> ConnectionFlakes {
        ConnectionFlakes {
            seed: self.seed,
            rate_pct: self.rate_pct,
            conn,
        }
    }
}

/// One connection's seed-pure fault schedule; hands out wrapped
/// read/write halves.
#[derive(Clone, Copy, Debug)]
pub struct ConnectionFlakes {
    seed: u64,
    rate_pct: u32,
    conn: u64,
}

impl ConnectionFlakes {
    fn roll(&self, direction: u64, n: u64) -> u64 {
        fnv1a(&[self.seed, self.conn, direction, n])
    }

    /// The action applied to the `n`-th written frame (0-based).
    pub(crate) fn write_action(&self, n: u64) -> FlakeAction {
        let h = self.roll(0, n);
        if h % 100 >= self.rate_pct as u64 {
            return FlakeAction::Pass;
        }
        match (h / 100) % 4 {
            0 => FlakeAction::Delay {
                ms: 1 + (h / 400) % MAX_FLAKE_DELAY_MS,
            },
            1 => FlakeAction::Truncate,
            2 => FlakeAction::Drop,
            _ => FlakeAction::Duplicate,
        }
    }

    /// The action applied to the `n`-th read call (0-based). Read-side
    /// faults are rarer (half the write rate) and only delay or cut —
    /// duplication and truncation are write-side phenomena.
    pub(crate) fn read_action(&self, n: u64) -> FlakeAction {
        let h = self.roll(1, n);
        if h % 200 >= self.rate_pct as u64 {
            return FlakeAction::Pass;
        }
        if (h / 200).is_multiple_of(2) {
            FlakeAction::Delay {
                ms: 1 + (h / 800) % MAX_FLAKE_DELAY_MS,
            }
        } else {
            FlakeAction::Cut
        }
    }

    /// Wraps the write half of a connection. Each `write` call is
    /// treated as one frame (the frame protocol writes exactly one
    /// buffer per frame).
    pub fn wrap_writer<W: Write + Send>(self, inner: W) -> FlakyWriter<W> {
        FlakyWriter {
            inner,
            flakes: self,
            frame: 0,
            dead: false,
        }
    }

    /// Wraps the read half of a connection.
    pub fn wrap_reader<R: Read + Send>(self, inner: R) -> FlakyReader<R> {
        FlakyReader {
            inner,
            flakes: self,
            call: 0,
            dead: false,
        }
    }
}

/// Write half of a flaky connection: applies [`ConnectionFlakes`] frame
/// by frame. Once a fault kills the connection, every later write fails
/// — a real socket does not heal.
pub struct FlakyWriter<W: Write> {
    inner: W,
    flakes: ConnectionFlakes,
    frame: u64,
    dead: bool,
}

impl<W: Write> Write for FlakyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.dead {
            return Err(std::io::Error::new(
                ErrorKind::BrokenPipe,
                "flaky: connection already dropped",
            ));
        }
        let action = self.flakes.write_action(self.frame);
        self.frame += 1;
        match action {
            FlakeAction::Pass => {
                self.inner.write_all(buf)?;
                Ok(buf.len())
            }
            FlakeAction::Delay { ms } => {
                std::thread::sleep(std::time::Duration::from_millis(ms.min(MAX_FLAKE_DELAY_MS)));
                self.inner.write_all(buf)?;
                Ok(buf.len())
            }
            FlakeAction::Duplicate => {
                self.inner.write_all(buf)?;
                self.inner.write_all(buf)?;
                Ok(buf.len())
            }
            FlakeAction::Truncate => {
                // A strict prefix: the peer sees EOF inside the frame.
                self.dead = true;
                let cut = (buf.len() / 2).max(1).min(buf.len().saturating_sub(1));
                let _ = self.inner.write_all(&buf[..cut]);
                let _ = self.inner.flush();
                Err(std::io::Error::new(
                    ErrorKind::BrokenPipe,
                    "flaky: frame truncated mid-write",
                ))
            }
            FlakeAction::Drop => {
                self.dead = true;
                Err(std::io::Error::new(
                    ErrorKind::ConnectionReset,
                    "flaky: frame dropped, connection reset",
                ))
            }
            FlakeAction::Cut => unreachable!("Cut is a read-side action"),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.dead {
            return Err(std::io::Error::new(
                ErrorKind::BrokenPipe,
                "flaky: connection already dropped",
            ));
        }
        self.inner.flush()
    }
}

/// Read half of a flaky connection: applies [`ConnectionFlakes`] per
/// read call (one frame is one header read plus one payload read, so
/// cuts land both at and inside frame boundaries).
pub struct FlakyReader<R: Read> {
    inner: R,
    flakes: ConnectionFlakes,
    call: u64,
    dead: bool,
}

impl<R: Read> Read for FlakyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.dead {
            return Err(std::io::Error::new(
                ErrorKind::ConnectionReset,
                "flaky: connection already cut",
            ));
        }
        let action = self.flakes.read_action(self.call);
        self.call += 1;
        match action {
            FlakeAction::Delay { ms } => {
                std::thread::sleep(std::time::Duration::from_millis(ms.min(MAX_FLAKE_DELAY_MS)));
                self.inner.read(buf)
            }
            FlakeAction::Cut => {
                // Deliver one byte, then die: the next read (the peer is
                // mid-frame) sees a reset, never a clean EOF.
                self.dead = true;
                if buf.is_empty() {
                    return Ok(0);
                }
                match self.inner.read(&mut buf[..1]) {
                    Ok(n) => Ok(n),
                    Err(_) => Err(std::io::Error::new(
                        ErrorKind::ConnectionReset,
                        "flaky: connection cut mid-read",
                    )),
                }
            }
            _ => self.inner.read(buf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn env_form_round_trips() {
        let plan = FlakyTransport {
            seed: 42,
            rate_pct: 15,
        };
        assert_eq!(FlakyTransport::parse("42:15").unwrap(), plan);
        assert!(FlakyTransport::parse("nope").is_err());
        assert!(FlakyTransport::parse("1:101").is_err());
        assert!(FlakyTransport::parse("x:5").is_err());
    }

    #[test]
    fn schedule_is_seed_pure() {
        let plan = FlakyTransport {
            seed: 7,
            rate_pct: 30,
        };
        let a = plan.connection(3);
        let b = plan.connection(3);
        for n in 0..200 {
            assert_eq!(a.write_action(n), b.write_action(n));
            assert_eq!(a.read_action(n), b.read_action(n));
        }
        // A different connection replays a different schedule (with 200
        // frames at 30% the odds of identical schedules are nil).
        let c = plan.connection(4);
        assert!(
            (0..200).any(|n| a.write_action(n) != c.write_action(n)),
            "connection id ignored"
        );
    }

    #[test]
    fn zero_rate_is_transparent() {
        let plan = FlakyTransport {
            seed: 1,
            rate_pct: 0,
        };
        let conn = plan.connection(1);
        let mut out = Vec::new();
        let mut w = conn.wrap_writer(&mut out);
        for _ in 0..50 {
            w.write_all(b"frame").unwrap();
        }
        assert_eq!(out.len(), 250);
        let mut r = conn.wrap_reader(Cursor::new(out));
        let mut back = Vec::new();
        r.read_to_end(&mut back).unwrap();
        assert_eq!(back.len(), 250);
    }

    #[test]
    fn faulted_writer_stays_dead() {
        let plan = FlakyTransport {
            seed: 99,
            rate_pct: 100,
        };
        let conn = plan.connection(1);
        // At 100% every frame is faulted; find the first killing action.
        let mut w = conn.wrap_writer(Vec::new());
        let mut died = false;
        for _ in 0..64 {
            if w.write(b"0123456789").is_err() {
                died = true;
                break;
            }
        }
        assert!(died, "a 100% flake schedule never killed the connection");
        assert!(w.write(b"after").is_err(), "dead connections do not heal");
        assert!(w.flush().is_err());
    }

    #[test]
    fn truncate_writes_a_strict_prefix() {
        let plan = FlakyTransport {
            seed: 0,
            rate_pct: 100,
        };
        let conn = plan.connection(1);
        // Find a frame index whose action is Truncate, then build a fresh
        // writer and advance to it with unfaulted sacrificial frames...
        // simpler: scan actions directly and check the wrapped behavior
        // on a writer whose first faulted frame is a truncation.
        let n = (0..512)
            .find(|&n| conn.write_action(n) == FlakeAction::Truncate)
            .expect("100% schedule contains a truncation");
        assert!(conn.write_action(n) == FlakeAction::Truncate);
        // Behavioral check on a dedicated single-action schedule.
        let mut out = Vec::new();
        let mut w = FlakyWriter {
            inner: &mut out,
            flakes: conn,
            frame: n,
            dead: false,
        };
        let err = w.write(b"0123456789").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::BrokenPipe);
        assert!(!out.is_empty() && out.len() < 10, "prefix, not all or none");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The schedule is a pure function of (seed, conn, index):
            /// re-deriving any action gives the same answer, and a zero
            /// rate never faults.
            #[test]
            fn schedule_is_pure_and_rate_zero_is_clean(
                seed in any::<u64>(),
                rate_pct in 0u32..=100,
                conn in any::<u64>(),
                n in 0u64..1024,
            ) {
                let plan = FlakyTransport { seed, rate_pct };
                let c = plan.connection(conn);
                prop_assert_eq!(c.write_action(n), c.write_action(n));
                prop_assert_eq!(c.read_action(n), c.read_action(n));
                if rate_pct == 0 {
                    prop_assert_eq!(c.write_action(n), FlakeAction::Pass);
                    prop_assert_eq!(c.read_action(n), FlakeAction::Pass);
                }
            }

            /// Whatever the schedule, a wrapped writer either delivers
            /// every frame it acknowledged or fails with a typed link
            /// error — and once it fails it stays failed (a real socket
            /// does not heal), so the supervisor's sever/redial path is
            /// always reachable and a hang is never the outcome.
            #[test]
            fn faulted_connections_error_typed_and_stay_dead(
                seed in any::<u64>(),
                rate_pct in 1u32..=100,
                conn in any::<u64>(),
            ) {
                let plan = FlakyTransport { seed, rate_pct };
                let mut out = Vec::new();
                let mut w = plan.connection(conn).wrap_writer(&mut out);
                let mut delivered = 0usize;
                let mut died_at: Option<usize> = None;
                for i in 0..256 {
                    match w.write(b"0123456789") {
                        Ok(k) => {
                            prop_assert_eq!(k, 10);
                            delivered += 1;
                        }
                        Err(e) => {
                            prop_assert!(matches!(
                                e.kind(),
                                ErrorKind::BrokenPipe | ErrorKind::ConnectionReset
                            ));
                            died_at = Some(i);
                            break;
                        }
                    }
                }
                if let Some(_i) = died_at {
                    prop_assert!(w.write(b"after").is_err());
                    prop_assert!(w.flush().is_err());
                }
                // Acknowledged frames reached the wire (duplicates may
                // add more bytes, truncation a strict prefix of one).
                prop_assert!(out.len() >= delivered * 10);
            }
        }
    }

    #[test]
    fn cut_reader_errors_mid_stream_not_clean_eof() {
        let plan = FlakyTransport {
            seed: 5,
            rate_pct: 100,
        };
        let conn = plan.connection(2);
        let n = (0..512)
            .find(|&n| conn.read_action(n) == FlakeAction::Cut)
            .expect("100% schedule contains a cut");
        let data = vec![0xABu8; 4096];
        let mut r = FlakyReader {
            inner: Cursor::new(data),
            flakes: conn,
            call: n,
            dead: false,
        };
        let mut buf = [0u8; 16];
        let first = r.read(&mut buf).unwrap();
        assert_eq!(first, 1, "cut delivers one byte first");
        let err = r.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::ConnectionReset);
    }
}
