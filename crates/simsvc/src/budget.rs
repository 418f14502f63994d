//! Cooperative run budgets: the watchdog that keeps a wedged simulation
//! from hanging its caller.
//!
//! `catch_unwind` confines *panics* to one grid cell, but a pathological
//! policy that simply never runs out of events (an ever-growing
//! `next_event_time`, an unservable queue under permanent failures) hangs
//! the driver loop forever — and with it any `--resume` run waiting on the
//! cell. A [`RunBudget`] bounds a run by wall-clock time and by driver
//! steps; the runner checks it cooperatively inside the DES loop (between
//! events, never mid-event) and cancels the run into a typed
//! [`BudgetExceeded`] instead.
//!
//! Budgets are opt-in: a [`Run`](crate::Run) without
//! [`Run::budget`](crate::Run::budget), or with an unlimited one, runs no
//! watchdog and takes a checked-nothing code path that is byte-identical
//! to earlier releases.

use std::time::Instant;

/// Wall-clock and event-count bounds for one simulation run.
///
/// `None` fields are unlimited; [`RunBudget::unlimited`] never trips.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunBudget {
    /// Maximum wall-clock seconds the run may take.
    pub max_wall_secs: Option<f64>,
    /// Maximum driver steps (submissions, failure deliveries, drain
    /// advances — at least one per simulation event the runner mediates).
    pub max_events: Option<u64>,
}

impl RunBudget {
    /// A budget that never trips.
    pub fn unlimited() -> Self {
        RunBudget::default()
    }

    /// Bound by wall-clock seconds only.
    pub fn wall_secs(secs: f64) -> Self {
        RunBudget {
            max_wall_secs: Some(secs),
            max_events: None,
        }
    }

    /// Bound by driver steps only (fully deterministic).
    pub fn events(n: u64) -> Self {
        RunBudget {
            max_wall_secs: None,
            max_events: Some(n),
        }
    }

    /// True when neither bound is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_wall_secs.is_none() && self.max_events.is_none()
    }
}

/// Which bound a run exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetKind {
    /// The wall-clock bound tripped.
    Wall,
    /// The event-count bound tripped.
    Events,
}

/// A run cancelled by its [`RunBudget`]. The simulation state is discarded
/// — a budgeted run yields either a complete result or this error, never a
/// partial result.
#[derive(Clone, Debug, PartialEq)]
pub struct BudgetExceeded {
    /// Which bound tripped.
    pub kind: BudgetKind,
    /// Driver steps taken when the watchdog fired.
    pub steps: u64,
    /// Wall-clock seconds elapsed when the watchdog fired.
    pub elapsed_secs: f64,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            BudgetKind::Wall => write!(
                f,
                "run budget exceeded: wall clock ({:.2}s elapsed, {} steps)",
                self.elapsed_secs, self.steps
            ),
            // The event bound is a deterministic verdict, so its message
            // carries no wall time: the same cell fails with the same text
            // on every run.
            BudgetKind::Events => {
                write!(f, "run budget exceeded: event count ({} steps)", self.steps)
            }
        }
    }
}

impl std::error::Error for BudgetExceeded {}

/// How many steps pass between `Instant::now()` calls — wall checks are
/// three orders of magnitude cheaper than the events they meter, but there
/// is no reason to pay for a syscall on every one.
const WALL_CHECK_INTERVAL: u64 = 256;

/// The runner-side watchdog: one per budgeted run.
pub(crate) struct Watchdog {
    budget: RunBudget,
    started: Instant,
    steps: u64,
}

impl Watchdog {
    pub(crate) fn new(budget: RunBudget) -> Self {
        Watchdog {
            budget,
            started: Instant::now(),
            steps: 0,
        }
    }

    /// One driver step. Returns `Err` the moment a bound is exceeded.
    pub(crate) fn tick(&mut self) -> Result<(), BudgetExceeded> {
        self.steps += 1;
        if let Some(max) = self.budget.max_events {
            if self.steps > max {
                return Err(BudgetExceeded {
                    kind: BudgetKind::Events,
                    steps: self.steps,
                    elapsed_secs: self.started.elapsed().as_secs_f64(),
                });
            }
        }
        if let Some(max) = self.budget.max_wall_secs {
            if self.steps.is_multiple_of(WALL_CHECK_INTERVAL) {
                let elapsed = self.started.elapsed().as_secs_f64();
                if elapsed > max {
                    return Err(BudgetExceeded {
                        kind: BudgetKind::Wall,
                        steps: self.steps,
                        elapsed_secs: elapsed,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let mut wd = Watchdog::new(RunBudget::unlimited());
        for _ in 0..100_000 {
            wd.tick().unwrap();
        }
    }

    #[test]
    fn event_budget_trips_deterministically() {
        let mut wd = Watchdog::new(RunBudget::events(10));
        for _ in 0..10 {
            wd.tick().unwrap();
        }
        let err = wd.tick().unwrap_err();
        assert_eq!(err.kind, BudgetKind::Events);
        assert_eq!(err.steps, 11);
    }

    #[test]
    fn wall_budget_trips_eventually() {
        // A zero-second wall budget must trip within one check interval.
        let mut wd = Watchdog::new(RunBudget::wall_secs(0.0));
        let err = (0..10_000)
            .find_map(|_| wd.tick().err())
            .expect("zero wall budget must trip");
        assert_eq!(err.kind, BudgetKind::Wall);
    }

    #[test]
    fn display_names_the_bound() {
        let e = BudgetExceeded {
            kind: BudgetKind::Events,
            steps: 42,
            elapsed_secs: 0.5,
        };
        assert!(e.to_string().contains("event count"));
        assert!(e.to_string().contains("42"));
        let later = BudgetExceeded {
            elapsed_secs: 0.75,
            ..e.clone()
        };
        assert_eq!(e.to_string(), later.to_string(), "no wall time in the text");
    }
}
