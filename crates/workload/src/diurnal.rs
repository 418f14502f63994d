//! Diurnal (daily-cycle) arrival modulation.
//!
//! Real supercomputer traces — SDSC SP2 included — show strong daily
//! cycles: submissions peak in working hours and ebb at night (Lublin &
//! Feitelson 2003). The base synthetic model uses a homogeneous Poisson
//! process; this module wraps any base workload with a non-homogeneous
//! arrival process via *thinning*, preserving each job's runtime, width,
//! and estimate while redistributing the arrival instants.
//!
//! The modulation is a 24-hour rate profile; the canonical
//! [`DiurnalProfile::office_hours`] profile peaks at 14:00 and bottoms out
//! at 04:00 with a configurable peak-to-trough ratio.

use crate::job::BaseJob;
use ccs_des::SimRng;

/// Seconds per day.
const DAY: f64 = 86_400.0;

/// A 24-hour arrival-rate profile (relative rates, one per hour).
#[derive(Clone, Debug)]
pub struct DiurnalProfile {
    /// Relative rate for each hour of the day (all > 0). Normalized
    /// internally — only ratios matter.
    pub hourly_rate: [f64; 24],
}

impl DiurnalProfile {
    /// Sinusoidal profile peaking at 14:00, minimum at 02:00, with the given
    /// peak-to-trough ratio (≥ 1).
    pub fn office_hours(peak_to_trough: f64) -> Self {
        assert!(peak_to_trough >= 1.0);
        let mut hourly_rate = [0.0; 24];
        let amplitude = (peak_to_trough - 1.0) / (peak_to_trough + 1.0);
        for (h, r) in hourly_rate.iter_mut().enumerate() {
            // cos is 1 at the 14:00 peak.
            let phase = (h as f64 - 14.0) / 24.0 * std::f64::consts::TAU;
            *r = 1.0 + amplitude * phase.cos();
        }
        DiurnalProfile { hourly_rate }
    }

    /// A flat profile (no modulation).
    #[cfg(test)]
    pub(crate) fn flat() -> Self {
        DiurnalProfile {
            hourly_rate: [1.0; 24],
        }
    }

    /// Relative rate at an absolute time (seconds since simulation start,
    /// assumed to begin at midnight).
    pub(crate) fn rate_at(&self, t: f64) -> f64 {
        let seconds_of_day = t.rem_euclid(DAY);
        let hour = (seconds_of_day / 3600.0) as usize % 24;
        self.hourly_rate[hour]
    }

    /// Maximum relative rate (the thinning envelope).
    pub(crate) fn max_rate(&self) -> f64 {
        self.hourly_rate.iter().cloned().fold(0.0, f64::max)
    }

    /// Mean relative rate.
    pub(crate) fn mean_rate(&self) -> f64 {
        self.hourly_rate.iter().sum::<f64>() / 24.0
    }
}

/// Redistributes the arrival times of `base` as a non-homogeneous Poisson
/// process with the given daily profile, keeping the workload's overall
/// mean inter-arrival time. Job bodies (runtime, width, estimate) are
/// untouched and stay in their original order. Deterministic in `seed`.
pub fn apply_diurnal(base: &[BaseJob], profile: &DiurnalProfile, seed: u64) -> Vec<BaseJob> {
    if base.len() < 2 {
        return base.to_vec();
    }
    let span = base.last().unwrap().submit - base[0].submit;
    let mean_gap = span / (base.len() - 1) as f64;
    // Homogeneous envelope rate, scaled so the thinned process keeps the
    // original mean rate.
    let envelope_rate = profile.max_rate() / profile.mean_rate() / mean_gap;

    let mut rng = SimRng::seed_from(seed ^ 0xD1FF_0000_0000_0001);
    let mut out = Vec::with_capacity(base.len());
    let mut t = 0.0;
    for b in base {
        // Thinned Poisson: propose from the envelope, accept with
        // probability rate(t)/max_rate.
        loop {
            let u = (1.0 - rng.uniform01()).max(f64::MIN_POSITIVE);
            t += -u.ln() / envelope_rate;
            if rng.uniform01() < profile.rate_at(t) / profile.max_rate() {
                break;
            }
        }
        let mut j = *b;
        j.submit = t;
        out.push(j);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SdscSp2Model;

    #[test]
    fn flat_profile_keeps_mean_rate() {
        let base = SdscSp2Model {
            jobs: 3000,
            ..Default::default()
        }
        .generate(1);
        let out = apply_diurnal(&base, &DiurnalProfile::flat(), 1);
        assert_eq!(out.len(), base.len());
        let span_base = base.last().unwrap().submit - base[0].submit;
        let span_out = out.last().unwrap().submit - out[0].submit;
        assert!(
            (span_out / span_base - 1.0).abs() < 0.1,
            "spans comparable: {span_base} vs {span_out}"
        );
    }

    #[test]
    fn office_hours_concentrates_daytime_arrivals() {
        let base = SdscSp2Model {
            jobs: 5000,
            ..Default::default()
        }
        .generate(2);
        let profile = DiurnalProfile::office_hours(8.0);
        let out = apply_diurnal(&base, &profile, 2);
        let hour = |t: f64| ((t % DAY) / 3600.0) as u32;
        let day = out
            .iter()
            .filter(|j| (9..18).contains(&hour(j.submit)))
            .count();
        let night = out.iter().filter(|j| hour(j.submit) < 6).count();
        assert!(
            day > night * 2,
            "daytime arrivals should dominate: {day} vs {night}"
        );
    }

    #[test]
    fn job_bodies_preserved() {
        let base = SdscSp2Model {
            jobs: 200,
            ..Default::default()
        }
        .generate(3);
        let out = apply_diurnal(&base, &DiurnalProfile::office_hours(4.0), 3);
        for (a, b) in base.iter().zip(&out) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.runtime, b.runtime);
            assert_eq!(a.procs, b.procs);
            assert_eq!(a.trace_estimate, b.trace_estimate);
        }
    }

    #[test]
    fn arrivals_strictly_increasing() {
        let base = SdscSp2Model {
            jobs: 500,
            ..Default::default()
        }
        .generate(4);
        let out = apply_diurnal(&base, &DiurnalProfile::office_hours(6.0), 4);
        for w in out.windows(2) {
            assert!(w[1].submit > w[0].submit);
        }
    }

    #[test]
    fn deterministic() {
        let base = SdscSp2Model {
            jobs: 100,
            ..Default::default()
        }
        .generate(5);
        let p = DiurnalProfile::office_hours(4.0);
        assert_eq!(apply_diurnal(&base, &p, 9), apply_diurnal(&base, &p, 9));
        assert_ne!(
            apply_diurnal(&base, &p, 9),
            apply_diurnal(&base, &p, 10),
            "seed must matter"
        );
    }

    #[test]
    fn profile_rate_lookup() {
        let p = DiurnalProfile::office_hours(8.0);
        assert!(p.rate_at(14.5 * 3600.0) > p.rate_at(2.5 * 3600.0));
        assert!(
            p.rate_at(DAY + 14.5 * 3600.0) > p.rate_at(DAY + 2.5 * 3600.0),
            "wraps daily"
        );
        let flat = DiurnalProfile::flat();
        assert_eq!(flat.max_rate(), 1.0);
        assert_eq!(flat.mean_rate(), 1.0);
    }

    #[test]
    fn tiny_inputs_pass_through() {
        let base = SdscSp2Model {
            jobs: 1,
            ..Default::default()
        }
        .generate(6);
        let out = apply_diurnal(&base, &DiurnalProfile::flat(), 6);
        assert_eq!(out, base);
    }
}
