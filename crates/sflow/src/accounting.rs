//! Scaling samples back up to traffic estimates.
//!
//! With 1-in-N random sampling, each sample stands for N frames and
//! `N × frame_length` bytes. Every traffic number in the paper — the
//! filtering percentages of Fig. 1, the per-server shares of Fig. 2, the
//! link-usage ratios of Fig. 7 — is such an estimate. This module keeps the
//! arithmetic in one audited place.

#![deny(clippy::cast_possible_truncation)]
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

/// An additive traffic estimate derived from flow samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficEstimate {
    /// Number of samples aggregated.
    pub samples: u64,
    /// Estimated frames on the wire.
    pub frames: u64,
    /// Estimated bytes on the wire.
    pub bytes: u64,
}

impl TrafficEstimate {
    /// The zero estimate.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Account one sample given its rate and original frame length. Both
    /// inputs come straight off the wire, so the scaling arithmetic
    /// saturates rather than wrapping on forged extremes.
    #[allow(
        clippy::arithmetic_side_effects,
        reason = "`samples += 1` counts calls, which no run brings near u64::MAX; the wire-valued terms saturate"
    )]
    pub fn add_raw(&mut self, sampling_rate: u32, frame_length: u32) {
        self.samples += 1;
        self.frames = self.frames.saturating_add(u64::from(sampling_rate));
        self.bytes = self
            .bytes
            .saturating_add(u64::from(sampling_rate).saturating_mul(u64::from(frame_length)));
    }

    /// Merge another estimate into this one.
    pub(crate) fn merge(&mut self, other: &TrafficEstimate) {
        self.samples = self.samples.saturating_add(other.samples);
        self.frames = self.frames.saturating_add(other.frames);
        self.bytes = self.bytes.saturating_add(other.bytes);
    }

    /// This estimate's byte share of a total, in percent (0 if total empty).
    pub fn share_of(&self, total: &TrafficEstimate) -> f64 {
        if total.bytes == 0 {
            0.0
        } else {
            100.0 * self.bytes as f64 / total.bytes as f64
        }
    }

    /// Scale the estimate by a compensation factor (e.g. the collector's
    /// loss-compensation ratio). Sample counts stay raw — they record what
    /// was actually received — while frames and bytes are extrapolated.
    #[allow(
        clippy::cast_possible_truncation,
        reason = "float-to-int `as` saturates; the factor is finite and positive and a scaled estimate beyond u64::MAX pins there"
    )]
    pub fn scaled(&self, factor: f64) -> TrafficEstimate {
        let factor = if factor.is_finite() && factor > 0.0 { factor } else { 1.0 };
        TrafficEstimate {
            samples: self.samples,
            frames: (self.frames as f64 * factor).round() as u64,
            bytes: (self.bytes as f64 * factor).round() as u64,
        }
    }
}

impl std::ops::Add for TrafficEstimate {
    type Output = TrafficEstimate;
    fn add(mut self, rhs: TrafficEstimate) -> TrafficEstimate {
        self.merge(&rhs);
        self
    }
}

impl std::iter::Sum for TrafficEstimate {
    #[allow(
        clippy::arithmetic_side_effects,
        reason = "TrafficEstimate's `+` is merge, which saturates"
    )]
    fn sum<I: Iterator<Item = TrafficEstimate>>(iter: I) -> Self {
        iter.fold(TrafficEstimate::zero(), |acc, e| acc + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_is_linear_in_rate() {
        let mut low = TrafficEstimate::zero();
        low.add_raw(1_000, 1_500);
        let mut high = TrafficEstimate::zero();
        high.add_raw(16_384, 1_500);
        assert_eq!(low.bytes * 16_384 / 1_000, high.bytes);
        assert_eq!(high.frames, 16_384);
    }

    #[test]
    fn shares_sum_to_hundred() {
        let mut a = TrafficEstimate::zero();
        let mut b = TrafficEstimate::zero();
        a.add_raw(16_384, 900);
        a.add_raw(16_384, 100);
        b.add_raw(16_384, 1_000);
        let total = a + b;
        assert!((a.share_of(&total) + b.share_of(&total) - 100.0).abs() < 1e-9);
        assert!((a.share_of(&total) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn empty_total_yields_zero_share() {
        let a = TrafficEstimate::zero();
        assert!(a.share_of(&TrafficEstimate::zero()).abs() < 1e-9);
    }

    #[test]
    fn sum_over_iterator() {
        let parts = vec![
            {
                let mut e = TrafficEstimate::zero();
                e.add_raw(10, 100);
                e
            },
            {
                let mut e = TrafficEstimate::zero();
                e.add_raw(10, 200);
                e
            },
        ];
        let total: TrafficEstimate = parts.into_iter().sum();
        assert_eq!(total.bytes, 3_000);
        assert_eq!(total.samples, 2);
    }
}
