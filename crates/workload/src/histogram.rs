//! Log-binned histograms of workload attributes.
//!
//! Trace characterization (runtime, width, inter-arrival, estimate-accuracy
//! distributions) is how workload models are validated against real traces;
//! these helpers render the synthetic model's distributions for inspection
//! and tests.

use crate::job::BaseJob;
use std::fmt::Write as _;

/// A histogram over logarithmically spaced bins.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    /// Lower edge of the first bin.
    pub min: f64,
    /// Multiplicative width of each bin.
    pub factor: f64,
    /// Counts per bin; the last bin absorbs everything above the range.
    pub counts: Vec<u64>,
    /// Observations below `min`.
    pub underflow: u64,
    total: u64,
}

impl LogHistogram {
    /// Creates a histogram with `bins` bins starting at `min`, each bin
    /// `factor×` wider than the previous.
    pub(crate) fn new(min: f64, factor: f64, bins: usize) -> Self {
        assert!(min > 0.0 && factor > 1.0 && bins > 0);
        LogHistogram {
            min,
            factor,
            counts: vec![0; bins],
            underflow: 0,
            total: 0,
        }
    }

    /// Adds an observation.
    pub(crate) fn add(&mut self, x: f64) {
        self.total += 1;
        if x < self.min {
            self.underflow += 1;
            return;
        }
        let bin = ((x / self.min).ln() / self.factor.ln()) as usize;
        let bin = bin.min(self.counts.len() - 1);
        self.counts[bin] += 1;
    }

    /// Builds a histogram from samples.
    pub(crate) fn from_samples(
        samples: impl IntoIterator<Item = f64>,
        min: f64,
        factor: f64,
        bins: usize,
    ) -> Self {
        let mut h = Self::new(min, factor, bins);
        for x in samples {
            h.add(x);
        }
        h
    }

    /// Total observations (including underflow).
    #[cfg(test)]
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// The lower edge of bin `i`.
    pub(crate) fn edge(&self, i: usize) -> f64 {
        self.min * self.factor.powi(i as i32)
    }

    /// Renders an ASCII bar chart, one row per bin.
    pub fn render(&self, width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(1).max(1);
        let mut s = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let bars = (c as f64 / max as f64 * width as f64).round() as usize;
            let _ = writeln!(
                s,
                "[{:>10.0}, {:>10.0}) {:>7} |{}",
                self.edge(i),
                self.edge(i + 1),
                c,
                "#".repeat(bars)
            );
        }
        s
    }
}

/// The standard characterization of a base workload: runtime, width, and
/// inter-arrival histograms plus the estimate-accuracy ratio distribution.
pub struct TraceHistograms {
    /// Runtime distribution (seconds; log bins from 30 s).
    pub runtime: LogHistogram,
    /// Width distribution (processors; log bins from 1, factor 2 = one bin
    /// per power of two).
    pub width: LogHistogram,
    /// Inter-arrival gaps (seconds).
    pub interarrival: LogHistogram,
    /// Estimate/runtime ratio (accuracy; 1.0 = exact).
    pub accuracy: LogHistogram,
}

impl TraceHistograms {
    /// Characterizes a base workload.
    pub fn of(jobs: &[BaseJob]) -> Self {
        let runtime = LogHistogram::from_samples(jobs.iter().map(|j| j.runtime), 30.0, 2.0, 12);
        let width = LogHistogram::from_samples(jobs.iter().map(|j| j.procs as f64), 1.0, 2.0, 8);
        let gaps = jobs
            .windows(2)
            .map(|w| (w[1].submit - w[0].submit).max(1.0));
        let interarrival = LogHistogram::from_samples(gaps, 1.0, 4.0, 10);
        let accuracy = LogHistogram::from_samples(
            jobs.iter().map(|j| j.trace_estimate / j.runtime.max(1e-9)),
            0.125,
            2.0,
            9,
        );
        TraceHistograms {
            runtime,
            width,
            interarrival,
            accuracy,
        }
    }

    /// Renders all four histograms.
    pub fn render(&self, width: usize) -> String {
        format!(
            "runtime (s):\n{}\nwidth (procs):\n{}\ninter-arrival (s):\n{}\nestimate/runtime ratio:\n{}",
            self.runtime.render(width),
            self.width.render(width),
            self.interarrival.render(width),
            self.accuracy.render(width)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SdscSp2Model;

    #[test]
    fn bin_edges_are_geometric() {
        let h = LogHistogram::new(10.0, 2.0, 5);
        assert_eq!(h.edge(0), 10.0);
        assert_eq!(h.edge(1), 20.0);
        assert_eq!(h.edge(4), 160.0);
    }

    #[test]
    fn counts_land_in_the_right_bins() {
        let mut h = LogHistogram::new(10.0, 10.0, 3);
        for &x in &[5.0, 15.0, 99.0, 100.0, 999.0, 5000.0, 1e9] {
            h.add(x);
        }
        assert_eq!(h.underflow, 1, "5.0 under the range");
        assert_eq!(h.counts[0], 2, "15 and 99 in [10, 100)");
        assert_eq!(h.counts[1], 2, "100 and 999 in [100, 1000)");
        assert_eq!(h.counts[2], 2, "5000 and the overflow absorbed at the top");
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn trace_histograms_characterize_the_synthetic_model() {
        let jobs = SdscSp2Model::default().generate(42);
        let h = TraceHistograms::of(&jobs);
        assert_eq!(h.runtime.total(), 5000);
        assert_eq!(h.width.total(), 5000);
        assert_eq!(h.interarrival.total(), 4999);
        // Widths are powers of two: the factor-2 bins carry everything and
        // the single-processor bin is well populated.
        assert!(h.width.counts[0] > 500);
        // Estimates are mostly over-estimates: the accuracy mode is >= 1.
        let counts = &h.accuracy.counts;
        let mode = (0..counts.len()).max_by_key(|&i| counts[i]).unwrap();
        assert!(h.accuracy.edge(mode) >= 0.9);
        let text = h.render(40);
        assert!(text.contains("runtime (s):"));
        assert!(text.lines().count() > 30);
    }

    #[test]
    fn render_scales_bars_to_width() {
        let mut h = LogHistogram::new(1.0, 2.0, 3);
        for _ in 0..100 {
            h.add(1.5);
        }
        h.add(3.0);
        let text = h.render(20);
        assert!(text.lines().next().unwrap().ends_with(&"#".repeat(20)));
    }
}
