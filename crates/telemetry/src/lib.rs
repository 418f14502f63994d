//! Lightweight instrumentation for the CCS simulator workspace.
//!
//! Three primitives — [`Counter`], [`MaxGauge`] and [`Histogram`] — plus a
//! span-style [`TimerGuard`] and a process-wide [`Telemetry`] registry that
//! aggregates everything into a serialisable [`Snapshot`].
//!
//! # Switching it on
//!
//! The registry is always compiled; a run switches it on with [`enable`]
//! (`utility_risk --telemetry FILE` does). Instrumented code asks
//! [`enabled`] — one relaxed load — before it touches the global registry,
//! so a run that never enables pays one branch per hook, takes no clock
//! reads for timers, and leaves [`snapshot`] empty. Counters and gauges
//! are relaxed `AtomicU64`s, histograms are 65 log2-bucketed `AtomicU64`
//! arrays, and a live `TimerGuard` records elapsed nanoseconds into its
//! histogram on drop. Instrumentation never feeds back into simulation
//! state, so results are bit-identical either way.
//!
//! # Bucketing
//!
//! Histograms bucket by bit-width: value `v` lands in bucket
//! `64 - v.leading_zeros()`, i.e. bucket 0 holds only `v == 0`, bucket 1
//! holds `v == 1`, bucket `k` holds `2^(k-1) ..= 2^k - 1`. Sum, count, min
//! and max are tracked exactly, so means are not quantised.

//!
//! # Tracing
//!
//! The [`trace`] module adds per-job SLA lifecycle *events* on top of these
//! aggregates, and DES kernel spans captured while a trace window is open.
//!
//! # Phase profiling
//!
//! The [`profile`] module adds a hierarchical self-time phase profiler
//! (folded-stack wall-time attribution) behind the `profile` feature, the
//! crate's one cargo feature; without it every phase guard is a no-op.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod profile;
mod snapshot;
pub mod trace;

pub use snapshot::{HistogramSnapshot, Snapshot};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Switches the process-wide registry on. Set-once: nothing switches it
/// back off, so a hook that saw [`enabled`] return `true` stays valid.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether [`enable`] has been called in this process. Every hook into
/// the global registry checks this first; it is one relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Number of histogram buckets: one for zero plus one per bit width of u64.
pub const NUM_BUCKETS: usize = 65;

/// Bucket index for a value: `0` for zero, else `64 - leading_zeros`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Lower bound (inclusive) of a bucket, for reporting.
#[inline]
pub fn bucket_lower_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        1 => 1,
        i => 1u64 << (i - 1),
    }
}

/// A monotonically increasing event count.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Tracks the maximum value ever observed (a high-water mark).
#[derive(Default)]
pub struct MaxGauge {
    value: AtomicU64,
}

impl MaxGauge {
    /// Creates a gauge at zero.
    pub const fn new() -> Self {
        MaxGauge {
            value: AtomicU64::new(0),
        }
    }

    /// Raises the high-water mark to `v` if `v` exceeds it.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current high-water mark.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed histogram of u64 samples (latencies in ns, sizes, …).
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a non-negative float by rounding to the nearest integer.
    /// Negative, NaN and subnormal values clamp to zero; values above
    /// `u64::MAX` clamp to `u64::MAX`.
    #[inline]
    pub fn record_f64(&self, value: f64) {
        let v = if value.is_nan() || value < 1.0 {
            // covers negatives, zero and all subnormals
            if value >= 0.5 {
                1
            } else {
                0
            }
        } else if value >= u64::MAX as f64 {
            u64::MAX
        } else {
            value.round() as u64
        };
        self.record(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the histogram into a plain snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Records elapsed wall-clock nanoseconds into a histogram when dropped.
///
/// Look the histogram up once (e.g. per run) and start a guard per timed
/// section; a guard over `None` takes no clock reads and records nothing.
pub struct TimerGuard(Option<(Instant, &'static Histogram)>);

impl TimerGuard {
    /// Starts timing into `histogram`, or does nothing for `None`.
    #[inline]
    pub fn start(histogram: Option<&'static Histogram>) -> Self {
        TimerGuard(histogram.map(|h| (Instant::now(), h)))
    }
}

impl Drop for TimerGuard {
    fn drop(&mut self) {
        if let Some((start, h)) = self.0 {
            h.record(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
    }
}

/// A registry of named counters, gauges and histograms.
///
/// Metric objects are created on first use and live for the lifetime of
/// the registry; lookups take a mutex but the returned `&'static`-like
/// references are leaked boxes, so hot paths can cache them.
#[derive(Default)]
pub struct Telemetry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static MaxGauge>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
}

impl Telemetry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name`, creating it if new.
    pub fn counter(&self, name: &str) -> &'static Counter {
        let mut map = self.counters.lock().unwrap();
        if let Some(c) = map.get(name) {
            return c;
        }
        let c: &'static Counter = Box::leak(Box::new(Counter::new()));
        map.insert(name.to_string(), c);
        c
    }

    /// Returns the max-gauge registered under `name`, creating it if new.
    pub fn gauge(&self, name: &str) -> &'static MaxGauge {
        let mut map = self.gauges.lock().unwrap();
        if let Some(g) = map.get(name) {
            return g;
        }
        let g: &'static MaxGauge = Box::leak(Box::new(MaxGauge::new()));
        map.insert(name.to_string(), g);
        g
    }

    /// Returns the histogram registered under `name`, creating it if new.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        let mut map = self.histograms.lock().unwrap();
        if let Some(h) = map.get(name) {
            return h;
        }
        let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
        map.insert(name.to_string(), h);
        h
    }

    /// Returns the histogram `"{name}.{suffix}"`.
    pub fn histogram_labeled(&self, name: &str, suffix: &str) -> &'static Histogram {
        self.histogram(&format!("{name}.{suffix}"))
    }

    /// Copies every metric into a plain, mergeable [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// The process-wide registry used by all instrumented crates.
pub fn global() -> &'static Telemetry {
    static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
    GLOBAL.get_or_init(Telemetry::new)
}

/// Snapshot of the global registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1 << 63), 64);
        assert_eq!(bucket_index((1 << 63) - 1), 63);
    }

    #[test]
    fn bucket_lower_bounds_invert_index() {
        for i in 0..NUM_BUCKETS {
            let lo = bucket_lower_bound(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
        }
    }

    #[test]
    fn counter_and_gauge() {
        let t = Telemetry::new();
        t.counter("a").inc();
        t.counter("a").add(4);
        t.gauge("g").observe(10);
        t.gauge("g").observe(3);
        let s = t.snapshot();
        assert_eq!(s.counters["a"], 5);
        assert_eq!(s.gauges["g"], 10);
    }

    #[test]
    fn histogram_tracks_exact_sum_and_extremes() {
        let t = Telemetry::new();
        let h = t.histogram("h");
        for v in [0u64, 1, 7, 1000, u64::MAX] {
            h.record(v);
        }
        let s = t.snapshot();
        let hs = &s.histograms["h"];
        assert_eq!(hs.count, 5);
        assert_eq!(hs.min, 0);
        assert_eq!(hs.max, u64::MAX);
        assert_eq!(hs.buckets[0], 1); // the zero
        assert_eq!(hs.buckets[64], 1); // u64::MAX
        assert_eq!(hs.buckets.iter().sum::<u64>(), 5);
    }

    #[test]
    fn record_f64_edge_cases() {
        let t = Telemetry::new();
        let h = t.histogram("f");
        h.record_f64(0.0);
        h.record_f64(f64::MIN_POSITIVE / 2.0); // subnormal -> bucket 0
        h.record_f64(-3.0); // negative clamps to 0
        h.record_f64(f64::NAN); // NaN clamps to 0
        h.record_f64(f64::MAX); // clamps to u64::MAX
        h.record_f64(1.6); // rounds to 2
        let s = t.snapshot().histograms["f"].clone();
        assert_eq!(s.count, 6);
        assert_eq!(s.buckets[0], 4);
        assert_eq!(s.buckets[64], 1);
        assert_eq!(s.buckets[2], 1);
    }

    #[test]
    fn timer_guard_records_into_its_histogram() {
        let t = Telemetry::new();
        drop(TimerGuard::start(Some(t.histogram("timer"))));
        drop(TimerGuard::start(None));
        let s = t.snapshot();
        assert_eq!(s.histograms["timer"].count, 1);
        assert_eq!(s.histograms.len(), 1);
    }
}
