//! Time-of-use price schedules for the commodity market model.
//!
//! Paper Section 5.1: "Pricing parameters can be usage time and usage
//! quantity, while prices can be flat or variable. A flat price means that
//! pricing is fixed for a certain time period, whereas a variable price
//! means that pricing changes over time." The evaluated policies use flat
//! pricing; this module adds the variable case as a peak/off-peak
//! time-of-use schedule and exact cost integration over a usage window.

use serde::{Deserialize, Serialize};

/// Seconds per hour/day.
const HOUR: f64 = 3600.0;
const DAY: f64 = 86_400.0;

/// A commodity price schedule in dollars per processor-second.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub enum PriceSchedule {
    /// One price at all times.
    Flat(f64),
    /// Time-of-use: `peak` applies daily between `peak_start_hour`
    /// (inclusive) and `peak_end_hour` (exclusive); `off_peak` otherwise.
    /// Simulation time 0 is midnight.
    PeakOffPeak {
        /// Price during the daily peak window ($/proc·s).
        peak: f64,
        /// Price outside the peak window ($/proc·s).
        off_peak: f64,
        /// Hour of day the peak window opens (0–23).
        peak_start_hour: u32,
        /// Hour of day the peak window closes (1–24, > start).
        peak_end_hour: u32,
    },
}

impl PriceSchedule {
    /// The price in force at absolute time `t`.
    pub fn rate_at(&self, t: f64) -> f64 {
        match *self {
            PriceSchedule::Flat(p) => p,
            PriceSchedule::PeakOffPeak {
                peak,
                off_peak,
                peak_start_hour,
                peak_end_hour,
            } => {
                let hour = (t.rem_euclid(DAY) / HOUR) as u32;
                if hour >= peak_start_hour && hour < peak_end_hour {
                    peak
                } else {
                    off_peak
                }
            }
        }
    }

    /// Exact cost of occupying `procs` processors over `[start, start +
    /// duration)`: the integral of the rate over the window times the
    /// processor count.
    pub fn cost(&self, start: f64, duration: f64, procs: u32) -> f64 {
        assert!(duration >= 0.0 && start >= 0.0);
        match *self {
            PriceSchedule::Flat(p) => p * duration * procs as f64,
            PriceSchedule::PeakOffPeak { .. } => {
                // Walk hour boundaries; the rate is constant within an hour.
                let mut t = start;
                let end = start + duration;
                let mut total = 0.0;
                while t < end - 1e-9 {
                    let next_boundary = ((t / HOUR).floor() + 1.0) * HOUR;
                    let seg_end = next_boundary.min(end);
                    total += self.rate_at(t) * (seg_end - t);
                    t = seg_end;
                }
                total * procs as f64
            }
        }
    }

    /// Mean rate over a window (cost per processor-second).
    pub fn mean_rate(&self, start: f64, duration: f64) -> f64 {
        if duration <= 0.0 {
            return self.rate_at(start);
        }
        self.cost(start, duration, 1) / duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tou() -> PriceSchedule {
        PriceSchedule::PeakOffPeak {
            peak: 2.0,
            off_peak: 0.5,
            peak_start_hour: 9,
            peak_end_hour: 17,
        }
    }

    #[test]
    fn flat_cost_is_linear() {
        let p = PriceSchedule::Flat(1.5);
        assert_eq!(p.cost(123.0, 100.0, 4), 600.0);
        assert_eq!(p.rate_at(1e9), 1.5);
    }

    #[test]
    fn rate_switches_at_peak_boundaries() {
        let p = tou();
        assert_eq!(p.rate_at(8.99 * HOUR), 0.5);
        assert_eq!(p.rate_at(9.0 * HOUR), 2.0);
        assert_eq!(p.rate_at(16.99 * HOUR), 2.0);
        assert_eq!(p.rate_at(17.0 * HOUR), 0.5);
        // Wraps daily.
        assert_eq!(p.rate_at(DAY + 12.0 * HOUR), 2.0);
        assert_eq!(p.rate_at(DAY + 3.0 * HOUR), 0.5);
    }

    #[test]
    fn cost_integrates_across_the_boundary() {
        let p = tou();
        // One hour straddling the 9:00 boundary: 30 min at 0.5 + 30 min at 2.
        let cost = p.cost(8.5 * HOUR, HOUR, 1);
        assert!(
            (cost - (1800.0 * 0.5 + 1800.0 * 2.0)).abs() < 1e-6,
            "{cost}"
        );
    }

    #[test]
    fn full_day_cost_matches_hand_computation() {
        let p = tou();
        // 8 peak hours at 2.0 + 16 off-peak hours at 0.5 per proc.
        let expect = (8.0 * 2.0 + 16.0 * 0.5) * HOUR;
        let cost = p.cost(0.0, DAY, 1);
        assert!((cost - expect).abs() < 1e-6);
        // Mean rate over a full day is window-invariant.
        assert!((p.mean_rate(0.0, DAY) - p.mean_rate(5.0 * HOUR, DAY)).abs() < 1e-9);
    }

    #[test]
    fn peak_jobs_cost_more_than_night_jobs() {
        let p = tou();
        let day_job = p.cost(10.0 * HOUR, 2.0 * HOUR, 8);
        let night_job = p.cost(1.0 * HOUR, 2.0 * HOUR, 8);
        assert!(day_job > night_job * 3.0);
    }

    #[test]
    fn zero_duration_costs_nothing() {
        assert_eq!(tou().cost(50.0, 0.0, 16), 0.0);
    }
}
