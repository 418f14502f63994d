//! Hierarchical phase profiler: self-time wall clocks attributed to a
//! thread-local stack of named phases.
//!
//! # Model
//!
//! A *phase* is a named region of the hot path (`"run"`, `"admission"`,
//! `"ps_recompute"`, …). Phases nest: entering `"dispatch"` while `"run"`
//! is active produces the folded path `run;dispatch`. Each path accumulates
//!
//! * `self_ns` — wall nanoseconds spent with that exact path on top of the
//!   stack (child time is *not* double counted into the parent),
//! * `calls` — number of times the path was entered,
//! * `events` — work units reported via [`count`] while the path was on top
//!   (the DES kernel reports one per event pop, the PS engine one per share
//!   recompute).
//!
//! [`take`] drains the calling thread's accumulator into a
//! [`ProfileSnapshot`]; grid workers call it once per cell so every cell
//! gets an isolated cost breakdown. Snapshots merge commutatively and
//! associatively (sums plus a max for the queue-depth gauge), mirroring
//! `crate::Snapshot::merge`.
//!
//! # Feature semantics
//!
//! Recording is gated on the `profile` cargo feature. Feature off:
//! [`PhaseGuard`] is a zero-sized stub, [`enter`]/[`count`]/[`depth`] are
//! empty inline bodies — no clock reads, no thread-local access — and
//! [`take`] returns an empty snapshot. The *data model* (snapshot, merge,
//! folded rendering) is always compiled so perf tooling works in any build.
//! Profiling never feeds back into simulation state, so profiled runs are
//! byte-identical to unprofiled ones.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Separator between phase names in a folded path (`run;dispatch`).
pub(crate) const PATH_SEPARATOR: char = ';';

/// Accumulated cost of one folded phase path.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseStat {
    /// Wall nanoseconds with this exact path on top of the phase stack.
    pub self_ns: u64,
    /// Number of times this path was entered.
    pub calls: u64,
    /// Work units reported via [`count`] while this path was on top.
    pub events: u64,
}

impl PhaseStat {
    /// Element-wise sum (wrapping, like the counter snapshots).
    pub fn merge(&mut self, other: &PhaseStat) {
        self.self_ns = self.self_ns.wrapping_add(other.self_ns);
        self.calls = self.calls.wrapping_add(other.calls);
        self.events = self.events.wrapping_add(other.events);
    }
}

/// A mergeable point-in-time capture of one thread's phase accumulator.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileSnapshot {
    /// Folded path (`cell;run;admission`) → accumulated cost.
    pub phases: BTreeMap<String, PhaseStat>,
    /// Largest queue depth reported via [`depth`] (a max gauge).
    pub peak_queue_depth: u64,
}

impl ProfileSnapshot {
    /// True when nothing was recorded (the profile-off case).
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty() && self.peak_queue_depth == 0
    }

    /// Merges `other` into `self`: per-path stats add, the depth gauge
    /// takes the max. Commutative and associative, so per-cell snapshots
    /// can be folded together in any order.
    pub fn merge(&mut self, other: &ProfileSnapshot) {
        for (path, stat) in &other.phases {
            self.phases.entry(path.clone()).or_default().merge(stat);
        }
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
    }

    /// Consuming variant of [`ProfileSnapshot::merge`].
    pub fn merged(mut self, other: &ProfileSnapshot) -> ProfileSnapshot {
        self.merge(other);
        self
    }

    /// Sum of `self_ns` over every path whose *leaf* phase is `leaf`.
    ///
    /// The same phase name can appear under several parents (`run;dispatch`
    /// and `run;dispatch;ps_recompute` have different leaves; `admission`
    /// under either economic model has the same one), so cost-vector
    /// extraction aggregates by leaf.
    pub fn leaf_ns(&self, leaf: &str) -> u64 {
        self.phases
            .iter()
            .filter(|(path, _)| path.rsplit(PATH_SEPARATOR).next() == Some(leaf))
            .map(|(_, s)| s.self_ns)
            .fold(0, u64::wrapping_add)
    }

    /// Total recorded self-time across all paths.
    pub fn total_ns(&self) -> u64 {
        self.phases
            .values()
            .map(|s| s.self_ns)
            .fold(0, u64::wrapping_add)
    }

    /// Renders the snapshot as folded-stack flamegraph text: one
    /// `path value` line per phase path (value = self nanoseconds), the
    /// format `inferno`/`flamegraph.pl`/speedscope ingest directly.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, stat) in &self.phases {
            out.push_str(path);
            out.push(' ');
            out.push_str(&stat.self_ns.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(feature = "profile")]
mod enabled {
    use super::{PhaseStat, ProfileSnapshot, PATH_SEPARATOR};
    use std::cell::{Cell, RefCell};
    use std::collections::BTreeMap;
    use std::time::Instant;

    /// Whether phase recording is compiled in.
    pub const PROFILE_ENABLED: bool = true;

    struct State {
        /// Current folded path; empty when no phase is active.
        path: String,
        /// `path.len()` before each active phase was appended, for
        /// truncation on exit (a stack of restore points).
        marks: Vec<usize>,
        /// Wall-clock instant of the last phase transition.
        last_mark: Option<Instant>,
        acc: BTreeMap<String, PhaseStat>,
        peak_depth: u64,
    }

    impl State {
        const fn new() -> State {
            State {
                path: String::new(),
                marks: Vec::new(),
                last_mark: None,
                acc: BTreeMap::new(),
                peak_depth: 0,
            }
        }

        /// Charges wall time since the last transition, plus any pending
        /// event counts, to the path currently on top of the stack.
        fn flush(&mut self, now: Instant) {
            let pending = PENDING_EVENTS.with(|c| c.replace(0));
            if self.marks.is_empty() {
                // No active phase: elapsed time and stray counts are
                // unattributable; drop them.
                return;
            }
            let ns = self
                .last_mark
                .map(|m| now.duration_since(m).as_nanos() as u64)
                .unwrap_or(0);
            match self.acc.get_mut(self.path.as_str()) {
                Some(stat) => {
                    stat.self_ns = stat.self_ns.wrapping_add(ns);
                    stat.events = stat.events.wrapping_add(pending);
                }
                None => {
                    self.acc.insert(
                        self.path.clone(),
                        PhaseStat {
                            self_ns: ns,
                            calls: 0,
                            events: pending,
                        },
                    );
                }
            }
        }
    }

    thread_local! {
        static STATE: RefCell<State> = const { RefCell::new(State::new()) };
        // Event counts are a plain `Cell` so the per-event hot path
        // (`count(1)` from the DES kernel pop) is a single add, flushed
        // into the accumulator only at phase transitions.
        static PENDING_EVENTS: Cell<u64> = const { Cell::new(0) };
    }

    /// RAII handle for an active phase; exits the phase on drop.
    #[must_use = "the phase ends when the guard drops"]
    pub struct PhaseGuard {
        _not_send: std::marker::PhantomData<*const ()>,
    }

    /// Enters a phase: charges elapsed time to the enclosing phase, pushes
    /// `name` onto the thread's phase stack.
    #[inline]
    pub fn enter(name: &'static str) -> PhaseGuard {
        let now = Instant::now();
        STATE.with(|s| {
            let st = &mut *s.borrow_mut();
            st.flush(now);
            st.marks.push(st.path.len());
            if !st.path.is_empty() {
                st.path.push(PATH_SEPARATOR);
            }
            st.path.push_str(name);
            match st.acc.get_mut(st.path.as_str()) {
                Some(stat) => stat.calls = stat.calls.wrapping_add(1),
                None => {
                    st.acc.insert(
                        st.path.clone(),
                        PhaseStat {
                            self_ns: 0,
                            calls: 1,
                            events: 0,
                        },
                    );
                }
            }
            st.last_mark = Some(Instant::now());
        });
        PhaseGuard {
            _not_send: std::marker::PhantomData,
        }
    }

    impl Drop for PhaseGuard {
        fn drop(&mut self) {
            let now = Instant::now();
            STATE.with(|s| {
                let st = &mut *s.borrow_mut();
                st.flush(now);
                if let Some(mark) = st.marks.pop() {
                    st.path.truncate(mark);
                }
                st.last_mark = if st.marks.is_empty() {
                    None
                } else {
                    Some(Instant::now())
                };
            });
        }
    }

    /// Reports `n` work units against the phase currently on top.
    #[inline]
    pub fn count(n: u64) {
        PENDING_EVENTS.with(|c| c.set(c.get().wrapping_add(n)));
    }

    /// Reports an observed queue depth (thread-local max gauge).
    #[inline]
    pub fn depth(d: u64) {
        STATE.with(|s| {
            let st = &mut *s.borrow_mut();
            if d > st.peak_depth {
                st.peak_depth = d;
            }
        });
    }

    /// Drains the calling thread's accumulator into a snapshot and resets
    /// it. Call between cells (with no guards live) for per-cell isolation.
    pub fn take() -> ProfileSnapshot {
        STATE.with(|s| {
            let st = &mut *s.borrow_mut();
            debug_assert!(
                st.marks.is_empty(),
                "profile::take() with {} phase guard(s) still live",
                st.marks.len()
            );
            PENDING_EVENTS.with(|c| c.set(0));
            st.last_mark = None;
            ProfileSnapshot {
                phases: std::mem::take(&mut st.acc),
                peak_queue_depth: std::mem::take(&mut st.peak_depth),
            }
        })
    }
}

#[cfg(not(feature = "profile"))]
mod disabled {
    use super::ProfileSnapshot;

    /// Whether phase recording is compiled in.
    pub const PROFILE_ENABLED: bool = false;

    /// Zero-sized stub; entering and dropping it is a no-op. Carries an
    /// (empty) `Drop` impl so call sites may `drop(guard)` explicitly
    /// without linting differently across feature combinations.
    #[must_use = "the phase ends when the guard drops"]
    pub struct PhaseGuard;

    impl Drop for PhaseGuard {
        fn drop(&mut self) {}
    }

    /// No-op: recording is compiled out.
    #[inline(always)]
    pub fn enter(_name: &'static str) -> PhaseGuard {
        PhaseGuard
    }

    /// No-op: recording is compiled out.
    #[inline(always)]
    pub fn count(_n: u64) {}

    /// No-op: recording is compiled out.
    #[inline(always)]
    pub fn depth(_d: u64) {}

    /// Returns an empty snapshot: recording is compiled out.
    #[inline(always)]
    pub fn take() -> ProfileSnapshot {
        ProfileSnapshot::default()
    }
}

#[cfg(feature = "profile")]
pub use enabled::{count, depth, enter, take, PhaseGuard, PROFILE_ENABLED};

#[cfg(not(feature = "profile"))]
pub use disabled::{count, depth, enter, take, PhaseGuard, PROFILE_ENABLED};

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(entries: &[(&str, u64, u64, u64)], depth: u64) -> ProfileSnapshot {
        let mut s = ProfileSnapshot {
            peak_queue_depth: depth,
            ..Default::default()
        };
        for &(path, self_ns, calls, events) in entries {
            s.phases.insert(
                path.to_string(),
                PhaseStat {
                    self_ns,
                    calls,
                    events,
                },
            );
        }
        s
    }

    #[test]
    fn merge_sums_stats_and_maxes_depth() {
        let mut a = snap(&[("run", 10, 1, 5), ("run;admission", 3, 2, 0)], 4);
        let b = snap(&[("run", 7, 1, 2), ("run;dispatch", 9, 1, 11)], 9);
        a.merge(&b);
        assert_eq!(
            a.phases["run"],
            PhaseStat {
                self_ns: 17,
                calls: 2,
                events: 7
            }
        );
        assert_eq!(a.phases["run;admission"].self_ns, 3);
        assert_eq!(a.phases["run;dispatch"].events, 11);
        assert_eq!(a.peak_queue_depth, 9);
    }

    #[test]
    fn leaf_aggregation_spans_parents() {
        let s = snap(
            &[
                ("run;dispatch", 5, 1, 100),
                ("run;admission;ps_recompute", 7, 3, 2),
                ("run;dispatch;ps_recompute", 11, 4, 6),
            ],
            0,
        );
        assert_eq!(s.leaf_ns("ps_recompute"), 18);
        assert_eq!(s.leaf_ns("dispatch"), 5);
        assert_eq!(s.leaf_ns("absent"), 0);
        assert_eq!(s.total_ns(), 23);
    }

    #[test]
    fn folded_renders_one_line_per_path() {
        let s = snap(&[("cell;run", 42, 1, 0), ("cell", 7, 1, 0)], 0);
        assert_eq!(s.folded(), "cell 7\ncell;run 42\n");
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let s = snap(&[("cell;run;fault", 123, 4, 5)], 17);
        let text = serde_json::to_string(&s).expect("serialise");
        let back: ProfileSnapshot = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, s);
    }

    #[cfg(not(feature = "profile"))]
    #[test]
    fn disabled_guard_is_zero_sized_and_take_is_empty() {
        assert_eq!(std::mem::size_of::<PhaseGuard>(), 0);
        const { assert!(!PROFILE_ENABLED) };
        let _g = enter("run");
        count(5);
        depth(9);
        assert!(take().is_empty());
    }

    #[cfg(feature = "profile")]
    #[test]
    fn enabled_guards_nest_and_attribute_self_time() {
        const { assert!(PROFILE_ENABLED) };
        {
            let _cell = enter("cell");
            count(1);
            {
                let _run = enter("run");
                count(10);
                depth(3);
            }
            {
                let _run = enter("run");
                count(2);
                depth(7);
            }
        }
        let s = take();
        assert_eq!(s.phases["cell"].calls, 1);
        assert_eq!(s.phases["cell"].events, 1);
        let run = s.phases["cell;run"];
        assert_eq!(run.calls, 2);
        assert_eq!(run.events, 12);
        assert_eq!(s.peak_queue_depth, 7);
        // A second take starts from a clean slate.
        assert!(take().is_empty());
    }

    #[cfg(feature = "profile")]
    #[test]
    fn take_isolates_cells() {
        {
            let _g = enter("cell");
            count(4);
        }
        let first = take();
        assert_eq!(first.phases["cell"].events, 4);
        {
            let _g = enter("cell");
            count(6);
        }
        let second = take();
        assert_eq!(second.phases["cell"].events, 6);
    }
}
