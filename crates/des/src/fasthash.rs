//! A tiny, deterministic hasher for small integer keys.
//!
//! The kernel's pending-event set and the runner's per-job indices are all
//! keyed by dense integers (`u64` sequence numbers, `u32` job ids). The
//! standard library's default SipHash is DoS-resistant but measurably slow
//! for these single-word keys, and its per-`HashMap` random seed is exactly
//! what a deterministic simulator does *not* want. This hasher replaces it
//! with the splitmix64 finalizer: two multiplications with full avalanche,
//! the same on every run and platform.
//!
//! Only use this for trusted, non-adversarial keys (simulation-internal
//! ids) — it makes no flooding-resistance promises.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Word-at-a-time hasher: splitmix64 finalizer over each written integer,
/// FNV-1a for the (rare) byte-slice fallback.
#[derive(Default)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn mix(&mut self, n: u64) {
        let mut z = self.0 ^ n;
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Byte-slice keys are off the hot path; FNV-1a keeps them correct.
        let mut h = self.0 ^ 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
    #[inline]
    fn write_i32(&mut self, n: i32) {
        self.mix(n as u32 as u64);
    }
    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.mix(n as u64);
    }
}

/// Deterministic `BuildHasher` for [`FastHasher`].
pub(crate) type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// `HashMap` keyed by trusted simulation-internal integers.
pub type FastHashMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// `HashSet` of trusted simulation-internal integers.
pub type FastHashSet<K> = HashSet<K, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FastHashMap<u64, &str> = FastHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, "v");
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert!(m.contains_key(&i));
        }
        assert!(!m.contains_key(&1000));
    }

    #[test]
    fn sequential_keys_avalanche() {
        // Neighbouring sequence numbers must land in different buckets:
        // check low-bit diversity over a dense key range.
        use std::hash::BuildHasher;
        let b = FastBuildHasher::default();
        let mut low_bits: HashSet<u64> = HashSet::new();
        for i in 0..256u64 {
            low_bits.insert(b.hash_one(i) & 0xffff);
        }
        // 256 keys into 65 536 low-bit buckets: collisions should be rare.
        assert!(
            low_bits.len() > 250,
            "poor low-bit mixing: {}",
            low_bits.len()
        );
    }

    #[test]
    fn deterministic_across_builders() {
        use std::hash::BuildHasher;
        let a = FastBuildHasher::default();
        let b = FastBuildHasher::default();
        for i in [0u64, 1, 42, u64::MAX] {
            assert_eq!(a.hash_one(i), b.hash_one(i));
        }
    }
}
