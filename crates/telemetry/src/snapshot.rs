//! Plain-data snapshots of telemetry state.
//!
//! Snapshots are what crosses thread and process boundaries: they are
//! `Clone + Serialize + Deserialize`, and they merge. Merging is
//! commutative and associative — counters and histogram buckets add,
//! gauges take the max — so per-worker snapshots can be folded together
//! in any order without changing the total.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Frozen copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (`crate::NUM_BUCKETS` entries when
    /// produced by a live histogram; empty for a default value).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Exact sum of all samples (wrapping add on overflow is accepted).
    pub sum: u64,
    /// Smallest sample, or 0 if empty.
    pub min: u64,
    /// Largest sample, or 0 if empty.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Folds `other` into `self` (pointwise bucket add, exact-stat merge).
    pub(crate) fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += *o;
        }
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = match (self.count, other.count) {
            (0, _) => other.min,
            (_, 0) => self.min,
            _ => self.min.min(other.min),
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
    }
}

/// Frozen copy of an entire [`crate::Telemetry`] registry.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Snapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// High-water marks by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// `true` when no metric was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into `self`: counters add, gauges max, histograms
    /// merge pointwise. Commutative and associative.
    pub(crate) fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += *v;
        }
        for (k, v) in &other.gauges {
            let e = self.gauges.entry(k.clone()).or_insert(0);
            *e = (*e).max(*v);
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }

    /// Convenience: merged copy of two snapshots.
    pub fn merged(mut self, other: &Snapshot) -> Snapshot {
        self.merge(other);
        self
    }

    /// Sum of every counter, useful for conservation checks in tests.
    pub fn counter_total(&self) -> u64 {
        self.counters.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: &[u64]) -> HistogramSnapshot {
        let mut h = HistogramSnapshot {
            buckets: vec![0; crate::NUM_BUCKETS],
            ..Default::default()
        };
        for &v in values {
            h.buckets[crate::bucket_index(v)] += 1;
            h.count += 1;
            h.sum = h.sum.wrapping_add(v);
            h.min = if h.count == 1 { v } else { h.min.min(v) };
            h.max = h.max.max(v);
        }
        h
    }

    #[test]
    fn histogram_merge_keeps_exact_stats() {
        let mut a = hist(&[1, 10]);
        let b = hist(&[0, 100]);
        a.merge(&b);
        assert_eq!(a.count, 4);
        assert_eq!(a.sum, 111);
        assert_eq!(a.min, 0);
        assert_eq!(a.max, 100);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = hist(&[5, 9]);
        let before = a.clone();
        a.merge(&HistogramSnapshot::default());
        assert_eq!(a, before);
        let mut empty = HistogramSnapshot::default();
        empty.merge(&before);
        assert_eq!(empty.count, before.count);
        assert_eq!(empty.min, before.min);
        assert_eq!(empty.max, before.max);
    }

    #[test]
    fn snapshot_merge_semantics() {
        let mut a = Snapshot::default();
        a.counters.insert("c".into(), 2);
        a.gauges.insert("g".into(), 7);
        let mut b = Snapshot::default();
        b.counters.insert("c".into(), 3);
        b.counters.insert("d".into(), 1);
        b.gauges.insert("g".into(), 4);
        a.merge(&b);
        assert_eq!(a.counters["c"], 5);
        assert_eq!(a.counters["d"], 1);
        assert_eq!(a.gauges["g"], 7);
    }
}
