//! Seeded, forkable random-number streams.
//!
//! Every stochastic component of the simulator draws from a [`SimRng`] that
//! is constructed from an explicit 64-bit seed, and independent substreams
//! are derived with [`SimRng::fork`] so that changing how one component
//! consumes randomness does not perturb any other component (a classic
//! pitfall in simulation studies).
//!
//! The generator is an in-tree xoshiro256++ (Blackman & Vigna) seeded
//! through a SplitMix64 expander — no external crates, bit-identical on
//! every platform.

/// SplitMix64 finalizer — used to expand seeds and decorrelate fork labels
/// from parent seeds.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ core state.
#[derive(Clone)]
struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Expands a 64-bit seed into the 256-bit state with a SplitMix64
    /// stream (the seeding procedure the xoshiro authors recommend).
    fn from_seed(seed: u64) -> Xoshiro256 {
        let mut acc = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            acc = acc.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *slot = splitmix64(acc);
        }
        // All-zero state is a fixed point; seed stream cannot produce it
        // from splitmix64 outputs of distinct inputs, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x853C_49E6_748F_EA9B;
        }
        Xoshiro256 { s }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// A deterministic random stream.
///
/// ```
/// use ccs_des::SimRng;
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
///
/// let mut fork1 = a.fork(1);
/// let mut fork2 = a.fork(2);
/// assert_ne!(fork1.next_u64(), fork2.next_u64()); // decorrelated substreams
/// ```
pub struct SimRng {
    inner: Xoshiro256,
    seed: u64,
}

impl SimRng {
    /// Creates a stream from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: Xoshiro256::from_seed(splitmix64(seed)),
            seed,
        }
    }

    /// The seed this stream was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent substream identified by `label`.
    ///
    /// Forking depends only on `(seed, label)` — not on how much of the
    /// parent stream has been consumed — so component streams stay stable as
    /// the simulator evolves.
    pub fn fork(&self, label: u64) -> SimRng {
        let child = splitmix64(self.seed ^ splitmix64(label.wrapping_add(0xA5A5_5A5A_DEAD_BEEF)));
        SimRng::seed_from(child)
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn uniform01(&mut self) -> f64 {
        // 53-bit mantissa construction: uniform on [0,1) with full precision.
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.uniform01()
    }

    /// Uniform integer in `[lo, hi)`.
    #[inline]
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi, "range_usize requires lo < hi");
        let span = (hi - lo) as u64;
        // Multiply-shift bounded sampling (Lemire): unbiased enough for
        // simulation use and branch-free.
        let x = self.inner.next_u64();
        lo + (((x as u128 * span as u128) >> 64) as u64) as usize
    }

    /// Bernoulli trial with success probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform01() < p
    }

    /// Chooses one element of a non-empty slice uniformly at random.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.range_usize(0, items.len())]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range_usize(0, i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_independent_of_consumption() {
        let mut a = SimRng::seed_from(99);
        let b = SimRng::seed_from(99);
        let _ = a.next_u64(); // consume from a only
        let mut fa = a.fork(5);
        let mut fb = b.fork(5);
        assert_eq!(fa.next_u64(), fb.next_u64());
    }

    #[test]
    fn uniform01_in_range_and_well_spread() {
        let mut rng = SimRng::seed_from(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.uniform01();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = SimRng::seed_from(4);
        let hits = (0..10_000).filter(|_| rng.bernoulli(0.3)).count();
        let f = hits as f64 / 10_000.0;
        assert!((f - 0.3).abs() < 0.03, "frequency {f}");
    }

    #[test]
    fn range_usize_covers_bounds() {
        let mut rng = SimRng::seed_from(11);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            let v = rng.range_usize(10, 14);
            assert!((10..14).contains(&v));
            seen_lo |= v == 10;
            seen_hi |= v == 13;
        }
        assert!(seen_lo && seen_hi, "both endpoints should appear");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::seed_from(5);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "shuffle left identity (astronomically unlikely)"
        );
    }

    #[test]
    fn choose_covers_all_elements_eventually() {
        let mut rng = SimRng::seed_from(6);
        let items = [1, 2, 3, 4];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[*rng.choose(&items) as usize - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
