//! The simulation driver: a virtual clock bound to an event queue.

use crate::queue::{EventHandle, EventQueue};
use crate::time::SimTime;

/// A discrete-event simulation: a monotone clock plus a future-event list.
///
/// `Simulation` is intentionally minimal — event *payloads* are a caller
/// supplied type `E` and the caller drives the loop, which keeps the kernel
/// free of trait-object dispatch in the hot path:
///
/// ```
/// use ccs_des::{Simulation, SimTime};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Arrive(u32), Depart(u32) }
///
/// let mut sim = Simulation::new();
/// sim.schedule_at(SimTime::new(1.0), Ev::Arrive(7));
/// while let Some((now, ev)) = sim.next() {
///     if let Ev::Arrive(id) = ev {
///         sim.schedule_in(2.5, Ev::Depart(id)); // relative scheduling
///     }
/// }
/// assert_eq!(sim.now(), SimTime::new(3.5));
/// ```
pub struct Simulation<E> {
    clock: SimTime,
    queue: EventQueue<E>,
    processed: u64,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

// One histogram sample per simulation lifetime; the embedded queue's own
// drop flushes the event counters, so nothing is double-counted here.
impl<E> Drop for Simulation<E> {
    fn drop(&mut self) {
        if ccs_telemetry::enabled() {
            ccs_telemetry::global()
                .histogram("des.sim.events_per_run")
                .record(self.processed);
        }
    }
}

impl<E> Simulation<E> {
    /// Creates a simulation with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Simulation {
            clock: SimTime::ZERO,
            queue: EventQueue::new(),
            processed: 0,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Total number of events processed so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules an event at an absolute virtual time.
    ///
    /// Panics if `time` is earlier than the current clock — an event in the
    /// past would silently corrupt causality.
    pub fn schedule_at(&mut self, time: SimTime, event: E) -> EventHandle {
        assert!(
            time >= self.clock,
            "cannot schedule into the past: now={}, requested={}",
            self.clock,
            time
        );
        self.queue.push(time, event)
    }

    /// Schedules an event `delay` seconds from now (`delay >= 0`).
    pub fn schedule_in(&mut self, delay: f64, event: E) -> EventHandle {
        self.schedule_at(self.clock + delay, event)
    }

    /// Cancels a previously scheduled event. Returns `true` if it was still
    /// pending.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.queue.cancel(handle)
    }

    /// Advances the clock to the next event and returns it, or `None` when
    /// the event list is exhausted.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, E)> {
        let (time, ev) = self.queue.pop()?;
        debug_assert!(time >= self.clock, "event queue returned a past event");
        self.clock = time;
        self.processed += 1;
        // Attribute the pop to whatever phase is active (no-op unless the
        // `profile` feature is on; a single thread-local add when it is).
        ccs_telemetry::profile::count(1);
        Some((time, ev))
    }

    /// Like [`Simulation::next`], but only if the next event fires strictly
    /// before `horizon`; otherwise leaves the queue untouched and returns
    /// `None` (the clock does not advance).
    pub fn next_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        match self.queue.peek_time() {
            Some(t) if t < horizon => self.next(),
            _ => None,
        }
    }

    /// Batched dispatch: advances the clock to the next pending instant and
    /// drains *every* event scheduled at exactly that instant into `buf`
    /// (cleared first, caller-pooled), returning the instant. One call
    /// replaces a `next()` loop over a burst of simultaneous events, so the
    /// handler can do its per-instant work once per run instead of once per
    /// event. Returns `None` when the event list is exhausted.
    pub fn next_batch(&mut self, buf: &mut Vec<E>) -> Option<SimTime> {
        let t = self.queue.pop_batch(buf)?;
        debug_assert!(t >= self.clock, "event queue returned a past run");
        self.clock = t;
        self.processed += buf.len() as u64;
        // Attribute the pops to whatever phase is active (no-op unless the
        // `profile` feature is on; a single thread-local add when it is).
        ccs_telemetry::profile::count(buf.len() as u64);
        Some(t)
    }

    /// Time of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Runs every remaining event through `handler`. The handler may schedule
    /// further events via the `&mut Simulation` it receives.
    pub fn run<F: FnMut(&mut Self, SimTime, E)>(&mut self, mut handler: F) {
        while let Some((t, ev)) = self.next() {
            handler(self, t, ev);
        }
    }
}

// `run` needs to hand the simulation back to the handler while iterating;
// do that with a small internal dance to satisfy the borrow checker.
impl<E> Simulation<E> {
    fn next_internal(&mut self) -> Option<(SimTime, E)> {
        self.next()
    }
}

/// Extension: a run loop that passes `&mut Simulation` to the handler.
///
/// This is a free function (not a method) so the closure can borrow the
/// simulation mutably without aliasing the iterator state.
pub fn run_to_completion<E, F>(sim: &mut Simulation<E>, mut handler: F)
where
    F: FnMut(&mut Simulation<E>, SimTime, E),
{
    while let Some((t, ev)) = sim.next_internal() {
        handler(sim, t, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::new(5.0), 1u32);
        sim.schedule_at(SimTime::new(2.0), 2u32);
        let (t1, _) = sim.next().unwrap();
        let (t2, _) = sim.next().unwrap();
        assert!(t1 <= t2);
        assert_eq!(sim.now(), SimTime::new(5.0));
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    #[should_panic]
    fn scheduling_into_past_panics() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::new(5.0), ());
        sim.next();
        sim.schedule_at(SimTime::new(1.0), ());
    }

    #[test]
    fn relative_scheduling() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::new(10.0), "x");
        sim.next();
        sim.schedule_in(4.0, "y");
        let (t, _) = sim.next().unwrap();
        assert_eq!(t, SimTime::new(14.0));
    }

    #[test]
    fn cascading_events_via_run_loop() {
        // Each event n < 5 schedules n+1 one second later.
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::ZERO, 0u32);
        let mut seen = Vec::new();
        run_to_completion(&mut sim, |sim, _t, n| {
            seen.push(n);
            if n < 5 {
                sim.schedule_in(1.0, n + 1);
            }
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(sim.now(), SimTime::new(5.0));
    }

    #[test]
    fn next_before_respects_horizon() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::new(1.0), "a");
        sim.schedule_at(SimTime::new(9.0), "b");
        assert!(sim.next_before(SimTime::new(5.0)).is_some());
        assert!(sim.next_before(SimTime::new(5.0)).is_none());
        // Clock did not advance past the horizon check.
        assert_eq!(sim.now(), SimTime::new(1.0));
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn next_batch_advances_clock_once_per_instant() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::new(1.0), "a");
        sim.schedule_at(SimTime::new(1.0), "b");
        sim.schedule_at(SimTime::new(4.0), "c");
        let mut buf = Vec::new();
        assert_eq!(sim.next_batch(&mut buf), Some(SimTime::new(1.0)));
        assert_eq!(buf, vec!["a", "b"]);
        assert_eq!(sim.now(), SimTime::new(1.0));
        assert_eq!(sim.events_processed(), 2);
        assert_eq!(sim.next_batch(&mut buf), Some(SimTime::new(4.0)));
        assert_eq!(buf, vec!["c"]);
        assert_eq!(sim.next_batch(&mut buf), None);
        assert_eq!(sim.events_processed(), 3);
    }

    #[test]
    fn cancellation_through_sim() {
        let mut sim = Simulation::new();
        let h = sim.schedule_at(SimTime::new(1.0), "a");
        sim.schedule_at(SimTime::new(2.0), "b");
        assert!(sim.cancel(h));
        let (_, ev) = sim.next().unwrap();
        assert_eq!(ev, "b");
    }
}
