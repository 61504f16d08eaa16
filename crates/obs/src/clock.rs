//! Injectable time sources.
//!
//! All instrumentation in the workspace reads time through the [`Clock`]
//! trait instead of sampling `Instant::now()` ambiently. Production code
//! injects a [`RealClock`]; tests and reproducibility-sensitive runs (the
//! `--clock test` mode of `repro`) inject a [`TestClock`], which only moves
//! when explicitly advanced. This is what lets span timings live inside the
//! report path without violating the ambient-time ban: with a
//! `TestClock`, two runs over the same input produce byte-identical metric
//! snapshots.
//!
//! Clippy's `disallowed_methods` (the root `clippy.toml`) enforces the
//! boundary: `RealClock::new` carries the workspace's one `#[allow]` for
//! `Instant::now()`.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

/// A monotonic nanosecond clock. Implementations must be cheap to read and
/// safe to share across the analysis worker pool.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Nanoseconds since an arbitrary (per-clock) origin. Monotone
    /// non-decreasing for `RealClock`; constant for `TestClock` unless
    /// explicitly advanced.
    fn now_ns(&self) -> u64;
}

/// Wall-clock time, anchored to the instant the clock was constructed so
/// readings start near zero and fit comfortably in a `u64`.
#[derive(Debug, Clone)]
pub(crate) struct RealClock {
    origin: Instant,
}

impl RealClock {
    /// Anchor a new clock at the current instant.
    #[allow(
        clippy::disallowed_methods,
        reason = "the one sanctioned real-clock read; everything else takes a `&dyn Clock`"
    )]
    pub(crate) fn new() -> RealClock {
        RealClock { origin: Instant::now() }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        RealClock::new()
    }
}

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        let nanos = self.origin.elapsed().as_nanos();
        if nanos > u128::from(u64::MAX) {
            u64::MAX
        } else {
            nanos as u64
        }
    }
}

/// A deterministic clock for tests and reproducible runs.
///
/// Deliberately does *not* auto-tick on reads: the analysis pipeline runs
/// weeks on a worker pool, and a read-advanced clock would make span
/// durations depend on thread interleaving. A `TestClock` returns the same
/// value from every thread until a unit test advances it, so all durations
/// collapse to known constants and snapshots stay byte-identical across
/// runs.
#[derive(Debug, Default)]
pub(crate) struct TestClock {
    now: AtomicU64,
}

impl TestClock {
    /// A clock frozen at zero.
    pub(crate) fn new() -> TestClock {
        TestClock { now: AtomicU64::new(0) }
    }

    /// A clock frozen at `start_ns`.
    #[cfg(test)]
    pub(crate) fn at(start_ns: u64) -> TestClock {
        TestClock { now: AtomicU64::new(start_ns) }
    }

    /// Move the clock forward by `delta_ns`.
    #[cfg(test)]
    pub(crate) fn advance_ns(&self, delta_ns: u64) {
        use std::sync::atomic::Ordering::Relaxed;
        // Saturate instead of wrapping so a pathological advance cannot
        // make the clock run backwards.
        #[allow(
            clippy::let_underscore_must_use,
            reason = "the closure always returns Some, so fetch_update cannot fail"
        )]
        let _ = self.now.fetch_update(Relaxed, Relaxed, |cur| Some(cur.saturating_add(delta_ns)));
    }

    /// Set the clock to an absolute reading.
    #[cfg(test)]
    pub(crate) fn set_ns(&self, now_ns: u64) {
        self.now.store(now_ns, std::sync::atomic::Ordering::Relaxed);
    }
}

impl Clock for TestClock {
    fn now_ns(&self) -> u64 {
        crate::metrics::read(&self.now)
    }
}

/// Convenience: a shareable real clock.
pub fn real_clock() -> Arc<dyn Clock> {
    Arc::new(RealClock::new())
}

/// Convenience: a shareable test clock frozen at zero.
pub fn test_clock() -> Arc<dyn Clock> {
    Arc::new(TestClock::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotone() {
        let c = RealClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn test_clock_only_moves_when_advanced() {
        let c = TestClock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 0);
        c.advance_ns(250);
        assert_eq!(c.now_ns(), 250);
        c.set_ns(10);
        assert_eq!(c.now_ns(), 10);
    }

    #[test]
    fn test_clock_advance_saturates() {
        let c = TestClock::at(u64::MAX - 1);
        c.advance_ns(u64::MAX);
        assert_eq!(c.now_ns(), u64::MAX);
    }

    #[test]
    fn clocks_are_object_safe() {
        let clocks: Vec<Arc<dyn Clock>> = vec![real_clock(), test_clock()];
        for c in clocks {
            let _ = c.now_ns();
        }
    }
}
