//! Property-based tests of the DES kernel invariants.

use ccs_des::dist::{Distribution, Exponential, LogNormal, TruncatedNormal, Uniform};
use ccs_des::{EventQueue, SimRng, SimTime};
use proptest::prelude::*;

proptest! {
    /// Events always pop in non-decreasing time order, regardless of push
    /// order, and ties pop FIFO.
    #[test]
    fn queue_pops_sorted_with_fifo_ties(times in prop::collection::vec(0u32..50, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::new(t as f64), i);
        }
        let mut popped: Vec<(f64, usize)> = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_secs(), i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO on equal times");
            }
        }
    }

    /// Cancelled events never pop; everything else still does.
    #[test]
    fn cancellation_is_exact(
        times in prop::collection::vec(0u32..100, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let handles: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.push(SimTime::new(t as f64), i))
            .collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, h) in handles.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                prop_assert!(q.cancel(*h));
            } else {
                expected.push(i);
            }
        }
        let mut popped: Vec<usize> = Vec::new();
        while let Some((_, i)) = q.pop() {
            popped.push(i);
        }
        popped.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(popped, expected);
    }

    /// len() always equals the number of events that will actually pop.
    #[test]
    fn queue_len_is_truthful(ops in prop::collection::vec((0u32..100, any::<bool>()), 0..100)) {
        let mut q = EventQueue::new();
        let mut handles = Vec::new();
        for (t, do_cancel) in ops {
            let h = q.push(SimTime::new(t as f64), ());
            handles.push(h);
            if do_cancel {
                q.cancel(h);
            }
        }
        let claimed = q.len();
        let mut actual = 0;
        while q.pop().is_some() {
            actual += 1;
        }
        prop_assert_eq!(claimed, actual);
    }

    /// Distribution samples respect their support.
    #[test]
    fn distribution_supports(seed in any::<u64>()) {
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..100 {
            prop_assert!(Uniform::new(3.0, 7.0).sample(&mut rng) >= 3.0);
            prop_assert!(Uniform::new(3.0, 7.0).sample(&mut rng) < 7.0);
            prop_assert!(Exponential::new(5.0).sample(&mut rng) >= 0.0);
            prop_assert!(LogNormal::from_mean_cv(10.0, 2.0).sample(&mut rng) > 0.0);
            let t = TruncatedNormal::new(0.0, 10.0, -1.0, 1.0).sample(&mut rng);
            prop_assert!((-1.0..=1.0).contains(&t));
        }
    }

    /// Forked substreams are independent of parent consumption.
    #[test]
    fn fork_stability(seed in any::<u64>(), consumed in 0usize..32, label in any::<u64>()) {
        let mut a = SimRng::seed_from(seed);
        let b = SimRng::seed_from(seed);
        for _ in 0..consumed {
            let _ = a.next_u64();
        }
        let mut fa = a.fork(label);
        let mut fb = b.fork(label);
        for _ in 0..16 {
            prop_assert_eq!(fa.next_u64(), fb.next_u64());
        }
    }
}
