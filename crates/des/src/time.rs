//! Virtual simulation time.
//!
//! Simulation time is a non-negative number of seconds since the start of
//! the simulation. [`SimTime`] wraps an `f64` and provides a *total* order
//! (NaN is rejected at construction), so it can key the event queue
//! directly.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in seconds since simulation start.
///
/// `SimTime` is totally ordered and supports arithmetic with plain `f64`
/// durations. Construction panics on NaN so that the ordering is total.
#[derive(Clone, Copy, PartialEq)]
pub struct SimTime(f64);

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl SimTime {
    /// Time zero — the start of the simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time from seconds. Panics if `secs` is NaN or negative.
    #[inline]
    pub fn new(secs: f64) -> Self {
        assert!(!secs.is_nan(), "SimTime cannot be NaN");
        assert!(secs >= 0.0, "SimTime cannot be negative (got {secs})");
        SimTime(secs)
    }

    /// Returns the time as seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Construction rejects NaN, so total_cmp agrees with partial_cmp.
        self.0.total_cmp(&other.0)
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: f64) -> SimTime {
        SimTime::new(self.0 + rhs)
    }
}

impl AddAssign<f64> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: f64) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = f64;
    #[inline]
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

impl From<f64> for SimTime {
    fn from(secs: f64) -> Self {
        SimTime::new(secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total_and_sane() {
        let a = SimTime::new(1.0);
        let b = SimTime::new(2.0);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::new(5.0) + 2.5;
        assert_eq!(t.as_secs(), 7.5);
        assert_eq!(t - SimTime::new(5.0), 2.5);
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        let _ = SimTime::new(f64::NAN);
    }

    #[test]
    #[should_panic]
    fn negative_rejected() {
        let _ = SimTime::new(-1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::new(1.5)), "1.500");
        assert_eq!(format!("{:?}", SimTime::new(0.0)), "t=0.000");
    }
}
