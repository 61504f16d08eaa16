//! The seeded datagram-stream perturbation plan.
//!
//! [`FaultPlan`] wraps any iterator of encoded sFlow datagrams (in practice
//! `ixp_traffic::WeekStream`) and applies the configured failure modes in a
//! fixed order per input datagram:
//!
//! 1. **identity-aware faults** (need the decoded header): agent restart
//!    (sequence renumbered from 1, uptime reset), counter wrap (cumulative
//!    `if_counters` pushed close to the type maximum so later exports wrap
//!    past zero), and whole-agent outage windows (every datagram of the
//!    sub-agent inside the window is dropped);
//! 2. **byte-level faults**: drop, truncate, bit-corrupt;
//! 3. **delivery faults**: duplicate (the datagram is emitted twice) and
//!    reorder (the datagram is held back and re-injected one to three
//!    datagrams later).
//!
//! Every random decision comes from one `SmallRng` seeded by
//! [`FaultConfig::seed`], so a plan replays bit-for-bit. With an all-zero
//! configuration the plan is the identity: every input byte vector passes
//! through unchanged, in order.

use std::collections::BTreeMap;

use ixp_sflow::{DatagramBuilder, DatagramView};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::delivery::Delivery;

/// Offset added to cumulative octet counters when `counter_wrap` is on:
/// close enough to `u64::MAX` that a realistic second export wraps past 0.
const OCTET_WRAP_PUSH: u64 = u64::MAX - (1 << 38);

/// Offset added to cumulative packet counters when `counter_wrap` is on.
const UCAST_WRAP_PUSH: u32 = u32::MAX - (1 << 18);

/// A whole-agent outage: every datagram of `sub_agent` whose 1-based input
/// index falls in `[from, until)` is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// The sub-agent taken down.
    pub sub_agent: u32,
    /// First input index affected (1-based, inclusive).
    pub from: u64,
    /// First input index no longer affected (exclusive).
    pub until: u64,
}

/// Which failures to inject, and how often.
///
/// Probabilities are per input datagram and independent; deterministic
/// faults (restarts, outages) are keyed on the 1-based input index.
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    /// Seed for every random decision the plan makes.
    pub seed: u64,
    /// Probability a datagram is silently dropped (UDP loss).
    pub drop: f64,
    /// Probability a datagram is delivered twice.
    pub duplicate: f64,
    /// Probability a datagram is held back and delivered 1–3 datagrams late.
    pub reorder: f64,
    /// Probability a datagram is cut short at a random byte.
    pub truncate: f64,
    /// Probability a single bit of the datagram is flipped.
    pub corrupt: f64,
    /// Agent restarts: `(sub_agent, at)` renumbers the sub-agent's datagram
    /// sequence from 1 starting at input index `at` (1-based), as a rebooted
    /// switch would.
    pub restarts: Vec<(u32, u64)>,
    /// Whole-agent outage windows.
    pub outages: Vec<OutageWindow>,
    /// Push cumulative interface counters close to the type maximum so the
    /// next export wraps — exercises wrap-safe delta accounting downstream.
    pub counter_wrap: bool,
}

impl FaultConfig {
    /// Pure datagram loss at rate `p`.
    pub fn loss(seed: u64, p: f64) -> FaultConfig {
        FaultConfig { seed, drop: p, ..FaultConfig::default() }
    }
}

/// Exact counts of what a [`FaultPlan`] injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Datagrams pulled from the wrapped stream.
    pub input: u64,
    /// Datagrams handed to the consumer (includes duplicates).
    pub emitted: u64,
    /// Datagrams dropped by the loss coin.
    pub dropped: u64,
    /// Datagrams dropped inside an outage window.
    pub outage_dropped: u64,
    /// Datagrams delivered twice.
    pub duplicated: u64,
    /// Datagrams delivered out of order.
    pub reordered: u64,
    /// Datagrams cut short.
    pub truncated: u64,
    /// Datagrams with a flipped bit.
    pub corrupted: u64,
    /// Agent restarts that actually fired.
    pub restarts_injected: u64,
}

impl FaultStats {
    /// Fraction of input datagrams that never reached the consumer.
    pub fn injected_loss_rate(&self) -> f64 {
        if self.input == 0 {
            0.0
        } else {
            (self.dropped + self.outage_dropped) as f64 / self.input as f64
        }
    }
}

/// The perturbing iterator adaptor. See the module docs for the fault
/// order. Iterate with `while let Some(d) = plan.next()` (or `by_ref()`) if
/// you need [`FaultPlan::stats`] afterwards.
pub struct FaultPlan<I> {
    inner: I,
    cfg: FaultConfig,
    rng: SmallRng,
    /// 1-based index of the last input datagram pulled.
    idx: u64,
    /// The delivery stage; counts `emitted`, `duplicated` and `reordered`.
    queue: Delivery<Vec<u8>>,
    /// Per-sub-agent sequence offset applied after an injected restart.
    renumber: BTreeMap<u32, u32>,
    /// Re-encodes a datagram that a restart or a counter wrap rewrites.
    builder: DatagramBuilder,
    stats: FaultStats,
}

impl<I: Iterator<Item = Vec<u8>>> FaultPlan<I> {
    /// Wrap a datagram stream with a fault configuration.
    pub fn new(inner: I, cfg: FaultConfig) -> FaultPlan<I> {
        let rng = SmallRng::seed_from_u64(cfg.seed ^ 0xFA17_7001);
        FaultPlan {
            inner,
            cfg,
            rng,
            idx: 0,
            queue: Delivery::default(),
            renumber: BTreeMap::new(),
            builder: DatagramBuilder::default(),
            stats: FaultStats::default(),
        }
    }

    /// What has been injected so far (complete once the iterator is
    /// exhausted).
    pub fn stats(&self) -> FaultStats {
        let Delivery { emitted, duplicated, reordered, .. } = self.queue;
        FaultStats { emitted, duplicated, reordered, ..self.stats }
    }

    /// Apply the plan to one input datagram.
    fn process(&mut self, mut d: Vec<u8>) {
        self.stats.input += 1;
        self.idx += 1;
        let idx = self.idx;

        // Identity-aware faults need the decoded header. The pristine feed
        // is always well-formed; if an upstream stage already damaged the
        // bytes, these faults simply do not apply.
        if let Ok(dg) = DatagramView::decode(&d) {
            let sub = dg.sub_agent_id;
            for &(agent, at) in &self.cfg.restarts {
                if sub == agent && idx >= at && !self.renumber.contains_key(&sub) {
                    // First datagram of this sub-agent at/after the restart
                    // point: renumber so its sequence restarts at 1.
                    self.renumber.insert(sub, dg.sequence.wrapping_sub(1));
                    self.stats.restarts_injected += 1;
                }
            }
            let offset = self.renumber.get(&sub).copied();
            let wrap = self.cfg.counter_wrap && dg.counters().next().is_some();
            let in_outage = self
                .cfg
                .outages
                .iter()
                .any(|w| w.sub_agent == sub && idx >= w.from && idx < w.until);
            if in_outage {
                self.stats.outage_dropped += 1;
                return;
            }
            if offset.is_some() || wrap {
                d = self.rewrite(&dg, offset);
            }
        }

        if self.rng.gen::<f64>() < self.cfg.drop {
            self.stats.dropped += 1;
            return;
        }
        if self.rng.gen::<f64>() < self.cfg.truncate && d.len() > 1 {
            let cut = self.rng.gen_range(1..d.len());
            d.truncate(cut);
            self.stats.truncated += 1;
        }
        if self.rng.gen::<f64>() < self.cfg.corrupt && !d.is_empty() {
            let pos = self.rng.gen_range(0..d.len());
            let bit = self.rng.gen_range(0..8u8);
            if let Some(b) = d.get_mut(pos) {
                *b ^= 1 << bit;
            }
            self.stats.corrupted += 1;
        }
        self.queue.deliver(d, self.cfg.duplicate, self.cfg.reorder, &mut self.rng);
    }

    /// Re-encode `dg` with its sequence shifted back by `offset` and, under
    /// `counter_wrap`, its counters pushed toward the wrap: flow samples
    /// first, then counters; a sample of a type the decoder does not know
    /// is left out.
    fn rewrite(&mut self, dg: &DatagramView<'_>, offset: Option<u32>) -> Vec<u8> {
        for sample in dg.flow_samples() {
            self.builder.push_flow(&sample);
        }
        for mut c in dg.counters() {
            if self.cfg.counter_wrap {
                c.if_in_octets = c.if_in_octets.wrapping_add(OCTET_WRAP_PUSH);
                c.if_out_octets = c.if_out_octets.wrapping_add(OCTET_WRAP_PUSH);
                c.if_in_ucast = c.if_in_ucast.wrapping_add(UCAST_WRAP_PUSH);
                c.if_out_ucast = c.if_out_ucast.wrapping_add(UCAST_WRAP_PUSH);
            }
            self.builder.push_counters(&c);
        }
        let (sequence, uptime_ms) = match offset {
            // A rebooted agent's uptime restarts too; keep it proportional
            // to the new sequence like the generator does.
            Some(offset) => {
                let sequence = dg.sequence.wrapping_sub(offset);
                (sequence, sequence.wrapping_mul(40))
            }
            None => (dg.sequence, dg.uptime_ms),
        };
        self.builder.finish(dg.agent_address, dg.sub_agent_id, sequence, uptime_ms)
    }
}

impl<I: Iterator<Item = Vec<u8>>> Iterator for FaultPlan<I> {
    type Item = Vec<u8>;

    fn next(&mut self) -> Option<Vec<u8>> {
        loop {
            if let Some(d) = self.queue.pop() {
                return Some(d);
            }
            match self.inner.next() {
                Some(d) => self.process(d),
                // Stream over: flush a still-held reordered datagram.
                None => return self.queue.flush(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    /// A minimal well-formed datagram for sub-agent `sub` with sequence
    /// `seq`.
    fn dg(sub: u32, seq: u32) -> Vec<u8> {
        DatagramBuilder::default().finish(Ipv4Addr::new(10, 255, 0, 1), sub, seq, seq * 40)
    }

    fn feed(n: u32) -> Vec<Vec<u8>> {
        (1..=n).map(|s| dg(0, s)).collect()
    }

    #[test]
    fn clean_plan_is_identity() {
        let input = feed(50);
        let mut plan = FaultPlan::new(
            input.clone().into_iter(),
            FaultConfig { seed: 7, ..FaultConfig::default() },
        );
        let mut out = Vec::new();
        for d in plan.by_ref() {
            out.push(d);
        }
        assert_eq!(out, input);
        let s = plan.stats();
        assert_eq!(s.input, 50);
        assert_eq!(s.emitted, 50);
        assert_eq!(s.dropped + s.outage_dropped + s.duplicated + s.truncated + s.corrupted, 0);
    }

    #[test]
    fn plans_replay_bit_for_bit() {
        let cfg = FaultConfig {
            seed: 99,
            drop: 0.1,
            duplicate: 0.05,
            reorder: 0.1,
            truncate: 0.05,
            corrupt: 0.05,
            restarts: vec![(0, 20)],
            outages: vec![OutageWindow { sub_agent: 0, from: 40, until: 45 }],
            counter_wrap: false,
        };
        let a: Vec<Vec<u8>> = FaultPlan::new(feed(200).into_iter(), cfg.clone()).collect();
        let b: Vec<Vec<u8>> = FaultPlan::new(feed(200).into_iter(), cfg).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn loss_rate_matches_the_coin() {
        let mut plan = FaultPlan::new(feed(5000).into_iter(), FaultConfig::loss(3, 0.1));
        let n = plan.by_ref().count() as u64;
        let s = plan.stats();
        assert_eq!(s.input, 5000);
        assert_eq!(s.emitted, n);
        assert_eq!(s.input, s.emitted + s.dropped);
        let rate = s.injected_loss_rate();
        assert!((rate - 0.1).abs() < 0.02, "injected loss {rate:.3}");
    }

    #[test]
    fn restart_renumbers_from_one() {
        let cfg = FaultConfig { seed: 1, restarts: vec![(0, 11)], ..FaultConfig::default() };
        let out: Vec<Vec<u8>> = FaultPlan::new(feed(20).into_iter(), cfg).collect();
        let seqs: Vec<u32> =
            out.iter().map(|d| DatagramView::decode(d).unwrap().sequence).collect();
        let expected: Vec<u32> = (1..=10u32).chain(1..=10).collect();
        assert_eq!(seqs, expected);
    }

    #[test]
    fn outage_drops_only_the_windowed_subagent() {
        let mut input = Vec::new();
        for s in 1..=10u32 {
            input.push(dg(0, s));
            input.push(dg(1, s));
        }
        let cfg = FaultConfig {
            seed: 1,
            outages: vec![OutageWindow { sub_agent: 1, from: 1, until: 100 }],
            ..FaultConfig::default()
        };
        let out: Vec<Vec<u8>> = FaultPlan::new(input.into_iter(), cfg).collect();
        assert_eq!(out.len(), 10);
        for d in &out {
            assert_eq!(DatagramView::decode(d).unwrap().sub_agent_id, 0);
        }
    }

    #[test]
    fn duplicates_are_byte_identical_and_counted() {
        let cfg = FaultConfig { seed: 5, duplicate: 1.0, ..FaultConfig::default() };
        let mut plan = FaultPlan::new(feed(10).into_iter(), cfg);
        let out: Vec<Vec<u8>> = plan.by_ref().collect();
        assert_eq!(out.len(), 20);
        for pair in out.chunks(2) {
            assert_eq!(pair[0], pair[1]);
        }
        assert_eq!(plan.stats().duplicated, 10);
    }

    #[test]
    fn reordered_datagrams_all_arrive() {
        let cfg = FaultConfig { seed: 11, reorder: 0.5, ..FaultConfig::default() };
        let mut plan = FaultPlan::new(feed(100).into_iter(), cfg);
        let mut seqs: Vec<u32> =
            plan.by_ref().map(|d| DatagramView::decode(&d).unwrap().sequence).collect();
        assert!(plan.stats().reordered > 0);
        seqs.sort_unstable();
        assert_eq!(seqs, (1..=100u32).collect::<Vec<_>>());
    }
}
