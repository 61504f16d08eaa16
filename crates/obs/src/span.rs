//! Lightweight span timing over an injected [`Clock`].
//!
//! A [`Stopwatch`] holds only the start reading; the clock is passed back
//! in when the span ends, so the hot loop carries a single `u64` and no
//! reference-counted pointer per span.

use crate::clock::Clock;
use crate::metrics::Histogram;

/// An open span: a start reading against some clock.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start_ns: u64,
}

impl Stopwatch {
    /// Start timing now (against `clock`).
    pub fn start(clock: &dyn Clock) -> Stopwatch {
        Stopwatch { start_ns: clock.now_ns() }
    }

    /// Nanoseconds elapsed since the start reading. Saturating: a clock
    /// that moved backwards (impossible for the provided clocks, possible
    /// for a miswired custom one) reads as zero, not a huge wrap.
    pub fn elapsed_ns(&self, clock: &dyn Clock) -> u64 {
        clock.now_ns().saturating_sub(self.start_ns)
    }

    /// End the span, recording its duration into `histogram`. Returns the
    /// duration for callers that also want the raw number.
    pub fn record(&self, clock: &dyn Clock, histogram: &Histogram) -> u64 {
        let elapsed = self.elapsed_ns(clock);
        histogram.observe(elapsed);
        elapsed
    }
}

/// Time a closure against `clock`, recording the duration into
/// `histogram`, and pass its result through.
pub(crate) fn time<R>(clock: &dyn Clock, histogram: &Histogram, f: impl FnOnce() -> R) -> R {
    let sw = Stopwatch::start(clock);
    let out = f();
    sw.record(clock, histogram);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;

    #[test]
    fn stopwatch_measures_against_test_clock() {
        let clock = TestClock::new();
        let h = Histogram::with_bounds(&[100, 1000]);
        let sw = Stopwatch::start(&clock);
        clock.advance_ns(300);
        assert_eq!(sw.elapsed_ns(&clock), 300);
        assert_eq!(sw.record(&clock, &h), 300);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 300);
        assert_eq!(s.counts, vec![0, 1, 0]);
    }

    #[test]
    fn time_passes_result_through() {
        let clock = TestClock::new();
        let h = Histogram::detached();
        let got = time(&clock, &h, || {
            clock.advance_ns(50);
            41 + 1
        });
        assert_eq!(got, 42);
        assert_eq!(h.sum(), 50);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn backwards_clock_saturates_to_zero() {
        let clock = TestClock::at(500);
        let sw = Stopwatch::start(&clock);
        clock.set_ns(100);
        assert_eq!(sw.elapsed_ns(&clock), 0);
    }
}
