//! Property tests for the metrics layer: histogram bucket accounting,
//! quantile monotonicity, and lock-free counter correctness under
//! concurrent increments.

use proptest::prelude::*;

use ixp_obs::{Histogram, Registry};

proptest! {
    /// Bucket counts (including the overflow bucket) always sum to the
    /// total observation count, whatever the bounds and inputs.
    #[test]
    fn bucket_counts_sum_to_total(
        bounds in proptest::collection::vec(0u64..10_000, 1..10),
        values in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        let h = Histogram::with_bounds(&bounds);
        for v in &values {
            h.observe(*v);
        }
        let s = h.snapshot();
        prop_assert_eq!(s.counts.len(), s.bounds.len() + 1);
        let bucket_sum: u64 = s.counts.iter().sum();
        prop_assert_eq!(bucket_sum, values.len() as u64);
        prop_assert_eq!(s.count, values.len() as u64);
    }

    /// Every observation lands in the first bucket whose bound is >= the
    /// value (or the overflow bucket), never anywhere else.
    #[test]
    fn observations_land_in_the_right_bucket(
        bounds in proptest::collection::vec(0u64..1_000, 1..6),
        value in 0u64..2_000,
    ) {
        let h = Histogram::with_bounds(&bounds);
        h.observe(value);
        let s = h.snapshot();
        let expect = s.bounds.iter().position(|b| value <= *b).unwrap_or(s.bounds.len());
        for (i, c) in s.counts.iter().enumerate() {
            prop_assert_eq!(*c, u64::from(i == expect), "bucket {} of {:?}", i, s.bounds);
        }
    }

    /// Quantile extraction is monotone in the requested quantile: for any
    /// contents, q1 <= q2 implies quantile(q1) <= quantile(q2).
    #[test]
    fn quantiles_are_monotone(
        bounds in proptest::collection::vec(0u64..10_000, 1..10),
        values in proptest::collection::vec(0u64..20_000, 1..200),
        mut qa in 0u64..=1000,
        mut qb in 0u64..=1000,
    ) {
        if qa > qb {
            std::mem::swap(&mut qa, &mut qb);
        }
        let h = Histogram::with_bounds(&bounds);
        for v in &values {
            h.observe(*v);
        }
        let s = h.snapshot();
        prop_assert!(s.quantile_permille(qa) <= s.quantile_permille(qb));
        prop_assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
    }

    /// The reported quantile bound actually covers the requested fraction
    /// of observations: at least ceil(count * q / 1000) observations are
    /// <= the returned bound.
    #[test]
    fn quantile_bound_covers_the_rank(
        values in proptest::collection::vec(0u64..5_000, 1..100),
        q in 1u64..=1000,
    ) {
        let h = Histogram::with_bounds(&[16, 64, 256, 1024, 4096]);
        for v in &values {
            h.observe(*v);
        }
        let s = h.snapshot();
        let bound = s.quantile_permille(q);
        let covered = values.iter().filter(|v| **v <= bound).count() as u64;
        let rank = (s.count * q).div_ceil(1000).max(1);
        prop_assert!(covered >= rank, "bound {} covers {} < rank {}", bound, covered, rank);
    }

    /// Concurrent counter increments from N scoped threads lose no
    /// updates: the final reading is exactly the sum of everything every
    /// thread added.
    #[test]
    fn concurrent_counter_increments_lose_no_updates(
        threads in 2usize..8,
        per_thread in 1u64..400,
    ) {
        let registry = Registry::new();
        let counter = registry.counter("contended_total");
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for _ in 0..per_thread {
                        counter.inc();
                    }
                });
            }
        });
        prop_assert_eq!(counter.get(), threads as u64 * per_thread);
        prop_assert_eq!(registry.snapshot().counter("contended_total"), Some(threads as u64 * per_thread));
    }

    /// Concurrent histogram observations keep the bucket-sum invariant.
    #[test]
    fn concurrent_histogram_observations_keep_invariants(
        threads in 2usize..6,
        per_thread in 1u64..200,
    ) {
        let h = Histogram::with_bounds(&[10, 100, 1000]);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        h.observe(t as u64 * 37 + i);
                    }
                });
            }
        });
        let s = h.snapshot();
        let total = threads as u64 * per_thread;
        prop_assert_eq!(s.count, total);
        prop_assert_eq!(s.counts.iter().sum::<u64>(), total);
        // `count()` is as much an exported reading as `snapshot()`.
        prop_assert_eq!(h.count(), total);
    }
}
