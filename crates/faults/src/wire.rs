//! Seeded UDP-level perturbation for `(peer, packet)` streams.
//!
//! [`FaultPlan`](crate::FaultPlan) understands sFlow headers and injects
//! identity-aware faults; [`WirePlan`] sits one layer lower, where the
//! transport front-end lives, and perturbs *datagrams as the socket sees
//! them* — any protocol, no decoding: per-packet drop, duplication,
//! reordering, and truncation. The template-churn scenarios that pair
//! with it (withhold windows, flap windows, exporter restarts) are
//! workload-shaping knobs, so they live in [`crate::chaos`] and feed the
//! transport generator's config rather than rewriting bytes here.
//!
//! Same seed, same perturbation, byte for byte — the transport soak gate
//! replays the identical faulted stream on both sides of a
//! kill-and-resume and expects byte-identical metrics.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::delivery::Delivery;

/// Which wire-level failures to inject, and how often. Probabilities are
/// per input packet and independent.
#[derive(Debug, Clone, Default)]
pub struct WireFaultConfig {
    /// Seed for every random decision the plan makes.
    pub seed: u64,
    /// Probability a packet is silently dropped (UDP loss).
    pub drop: f64,
    /// Probability a packet is delivered twice.
    pub duplicate: f64,
    /// Probability a packet is held back and delivered 1–3 packets late.
    pub reorder: f64,
    /// Probability a packet is cut short at a random byte.
    pub truncate: f64,
}

impl WireFaultConfig {
    /// The identity plan: nothing is perturbed.
    pub fn clean(seed: u64) -> WireFaultConfig {
        WireFaultConfig { seed, ..WireFaultConfig::default() }
    }

    /// Pure packet loss at rate `p`.
    pub fn loss(seed: u64, p: f64) -> WireFaultConfig {
        WireFaultConfig { seed, drop: p, ..WireFaultConfig::default() }
    }
}

/// Exact counts of what a [`WirePlan`] injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Packets pulled from the wrapped stream.
    pub input: u64,
    /// Packets handed to the consumer (includes duplicates).
    pub emitted: u64,
    /// Packets dropped by the loss coin.
    pub dropped: u64,
    /// Packets delivered twice.
    pub duplicated: u64,
    /// Packets delivered out of order.
    pub reordered: u64,
    /// Packets cut short.
    pub truncated: u64,
}

/// The wire-level perturbing iterator adaptor over `(peer, packet)`
/// pairs. Iterate with `by_ref()` if you need [`WirePlan::stats`]
/// afterwards.
pub struct WirePlan<I> {
    inner: I,
    cfg: WireFaultConfig,
    rng: SmallRng,
    /// The delivery stage; counts `emitted`, `duplicated` and `reordered`.
    queue: Delivery<(u64, Vec<u8>)>,
    stats: WireStats,
}

impl<I: Iterator<Item = (u64, Vec<u8>)>> WirePlan<I> {
    /// Wrap a packet stream with a wire-fault configuration.
    pub fn new(inner: I, cfg: WireFaultConfig) -> WirePlan<I> {
        let rng = SmallRng::seed_from_u64(cfg.seed ^ 0x7769_7265_FA17);
        WirePlan { inner, cfg, rng, queue: Delivery::default(), stats: WireStats::default() }
    }

    /// What has been injected so far (complete once the iterator is
    /// exhausted).
    pub fn stats(&self) -> WireStats {
        let Delivery { emitted, duplicated, reordered, .. } = self.queue;
        WireStats { emitted, duplicated, reordered, ..self.stats }
    }

    /// Apply the plan to one input packet.
    fn process(&mut self, peer: u64, mut packet: Vec<u8>) {
        self.stats.input += 1;
        if self.rng.gen::<f64>() < self.cfg.drop {
            self.stats.dropped += 1;
            return;
        }
        if self.rng.gen::<f64>() < self.cfg.truncate && packet.len() > 1 {
            let cut = self.rng.gen_range(1..packet.len());
            packet.truncate(cut);
            self.stats.truncated += 1;
        }
        self.queue.deliver((peer, packet), self.cfg.duplicate, self.cfg.reorder, &mut self.rng);
    }
}

impl<I: Iterator<Item = (u64, Vec<u8>)>> Iterator for WirePlan<I> {
    type Item = (u64, Vec<u8>);

    fn next(&mut self) -> Option<(u64, Vec<u8>)> {
        loop {
            if let Some(p) = self.queue.pop() {
                return Some(p);
            }
            match self.inner.next() {
                Some((peer, packet)) => self.process(peer, packet),
                // Stream over: flush a still-held reordered packet.
                None => return self.queue.flush(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(n: u64) -> Vec<(u64, Vec<u8>)> {
        (0..n).map(|i| (i % 4, i.to_be_bytes().to_vec())).collect()
    }

    #[test]
    fn clean_plan_is_identity() {
        let input = feed(64);
        let mut plan = WirePlan::new(input.clone().into_iter(), WireFaultConfig::clean(7));
        let out: Vec<_> = plan.by_ref().collect();
        assert_eq!(out, input);
        let s = plan.stats();
        assert_eq!(s.input, 64);
        assert_eq!(s.emitted, 64);
        assert_eq!(s.dropped + s.duplicated + s.reordered + s.truncated, 0);
    }

    #[test]
    fn plans_replay_bit_for_bit() {
        let cfg = WireFaultConfig { seed: 3, drop: 0.1, duplicate: 0.1, reorder: 0.1, truncate: 0.1 };
        let a: Vec<_> = WirePlan::new(feed(500).into_iter(), cfg.clone()).collect();
        let b: Vec<_> = WirePlan::new(feed(500).into_iter(), cfg).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn loss_is_counted_exactly() {
        let mut plan = WirePlan::new(feed(5000).into_iter(), WireFaultConfig::loss(9, 0.05));
        let n = plan.by_ref().count() as u64;
        let s = plan.stats();
        assert_eq!(s.input, 5000);
        assert_eq!(s.emitted, n);
        assert_eq!(s.input, s.emitted + s.dropped);
        let rate = s.dropped as f64 / s.input as f64;
        assert!((rate - 0.05).abs() < 0.015, "injected loss {rate:.3}");
    }

    #[test]
    fn duplicates_keep_their_peer() {
        let cfg = WireFaultConfig { seed: 5, duplicate: 1.0, ..WireFaultConfig::default() };
        let out: Vec<_> = WirePlan::new(feed(10).into_iter(), cfg).collect();
        assert_eq!(out.len(), 20);
        for pair in out.chunks(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }

    #[test]
    fn reordered_packets_all_arrive() {
        let cfg = WireFaultConfig { seed: 11, reorder: 0.5, ..WireFaultConfig::default() };
        let mut plan = WirePlan::new(feed(200).into_iter(), cfg);
        let mut out: Vec<_> = plan.by_ref().map(|(_, p)| p).collect();
        assert!(plan.stats().reordered > 0);
        out.sort();
        let mut expect: Vec<_> = feed(200).into_iter().map(|(_, p)| p).collect();
        expect.sort();
        assert_eq!(out, expect);
    }
}
