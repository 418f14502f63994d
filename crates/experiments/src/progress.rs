//! The single funnel for stderr progress output of the experiment
//! binaries: informational notes, the live grid progress/ETA line, and the
//! `--quiet` switch that silences all of it.
//!
//! Policy:
//!
//! * [`note`] / [`note_raw`] — informational lines ("wrote 8 files",
//!   slowest-cell summaries). Printed unless `--quiet`.
//! * `bar_enabled` + `draw_bar` — the `\r`-rewritten progress/ETA
//!   line. On when stderr is a terminal, forced by `CCS_PROGRESS=1`/`0`,
//!   and always off under `--quiet`.
//!
//! Results (tables, figures, reports) go to stdout or files and are never
//! routed through here — `--quiet` must not eat data.

use std::io::{IsTerminal, Write as _};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static QUIET: AtomicBool = AtomicBool::new(false);

/// Enables or disables quiet mode (set by the `--quiet` CLI flag).
pub(crate) fn set_quiet(quiet: bool) {
    QUIET.store(quiet, Ordering::Relaxed);
}

/// True when `--quiet` was given: all stderr progress output is suppressed.
pub fn quiet() -> bool {
    QUIET.load(Ordering::Relaxed)
}

/// Prints an informational line to stderr, unless quiet.
pub fn note(msg: &str) {
    if !quiet() {
        eprintln!("{msg}");
    }
}

/// Prints a preformatted (possibly multi-line) block to stderr without
/// adding a newline, unless quiet.
pub fn note_raw(msg: &str) {
    if !quiet() {
        eprint!("{msg}");
        let _ = std::io::stderr().flush();
    }
}

/// Whether to draw the live progress/ETA line on stderr.
///
/// `--quiet` wins; otherwise on when stderr is a terminal, with
/// `CCS_PROGRESS=1` forcing it on (for piped logs) and `CCS_PROGRESS=0`
/// forcing it off.
pub(crate) fn bar_enabled() -> bool {
    if quiet() {
        return false;
    }
    match std::env::var("CCS_PROGRESS") {
        Ok(v) if v == "0" => false,
        Ok(v) if v == "1" => true,
        _ => std::io::stderr().is_terminal(),
    }
}

/// Redraws the `\r`-rewritten grid progress/ETA line, with a
/// caller-supplied suffix appended — the hook the grid runner uses to
/// surface the live risk score next to the ETA. Callers gate on
/// [`bar_enabled`] once up front (the check reads an env var). Keep the
/// suffix short and of stable width; the line is rewritten in place.
pub(crate) fn draw_bar(done: usize, total: usize, started: Instant, extra: &str) {
    let elapsed = started.elapsed().as_secs_f64();
    let eta = if done > 0 {
        elapsed / done as f64 * (total - done) as f64
    } else {
        f64::NAN
    };
    let mut err = std::io::stderr().lock();
    let _ = write!(
        err,
        "\rgrid: {done}/{total} points ({:.0}%) elapsed {elapsed:.1}s ETA {eta:.1}s{extra}   ",
        done as f64 / total as f64 * 100.0
    );
    if done == total {
        let _ = writeln!(err);
    }
    let _ = err.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_flag_round_trips_and_kills_the_bar() {
        // Serialised by the test running in one process; restore at the end.
        let before = quiet();
        set_quiet(true);
        assert!(quiet());
        assert!(!bar_enabled(), "--quiet overrides CCS_PROGRESS");
        set_quiet(false);
        assert!(!quiet());
        set_quiet(before);
    }
}
