//! The per-port sampling process.
//!
//! sFlow's random 1-in-N sampling is implemented the way real ASICs do it:
//! after each sample, draw the number of frames to *skip* uniformly from
//! `[0, 2N)`, giving a mean inter-sample gap of N and an unbiased sample
//! stream (the absence of sampling bias in the studied IXP's deployment is
//! discussed in the Anatomy paper the study builds on).
//!
//! The sampler also performs the 128-byte snippet truncation that shapes
//! everything downstream: the analysis only ever gets `SNIPPET_LEN` bytes.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::datagram::{Datagram, FlowSample, RawPacketHeader, HEADER_PROTO_ETHERNET};

/// Number of leading frame bytes captured per sample (paper §2.1).
pub const SNIPPET_LEN: usize = 128;

/// Configuration of one sampling agent.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Sampling rate N: one frame out of N is sampled on average.
    pub rate: u32,
    /// ifIndex of the monitored port (becomes the flow-sample source id).
    pub source_id: u32,
    /// IPv4 address of the exporting agent.
    pub agent_address: std::net::Ipv4Addr,
    /// Samples per exported datagram.
    pub samples_per_datagram: usize,
    /// RNG seed (derived per-port by the generator for reproducibility).
    pub seed: u64,
}

impl SamplerConfig {
    /// The paper's configuration: rate 16 384, a typical batch of 7 samples
    /// per datagram (bounded by the 1 500-byte export MTU).
    pub fn paper(source_id: u32, agent_address: std::net::Ipv4Addr, seed: u64) -> Self {
        SamplerConfig {
            rate: crate::PAPER_SAMPLING_RATE,
            source_id,
            agent_address,
            samples_per_datagram: 7,
            seed,
        }
    }
}

/// A sampling agent for one switch port: feed it every frame, collect the
/// datagrams it decides to export.
#[derive(Debug)]
pub struct Sampler {
    config: SamplerConfig,
    rng: SmallRng,
    skip: u32,
    sample_pool: u32,
    sample_seq: u32,
    datagram_seq: u32,
    uptime_ms: u32,
    pending: Vec<FlowSample>,
}

impl Sampler {
    /// Create a sampler; the first skip count is drawn immediately.
    pub fn new(config: SamplerConfig) -> Self {
        // ixp-lint: allow(panic-path) rate is operator configuration, not wire input
        assert!(config.rate >= 1, "sampling rate must be at least 1");
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let skip = draw_skip(&mut rng, config.rate);
        Sampler {
            config,
            rng,
            skip,
            sample_pool: 0,
            sample_seq: 0,
            datagram_seq: 0,
            uptime_ms: 0,
            pending: Vec::new(),
        }
    }

    /// The configured sampling rate.
    pub fn rate(&self) -> u32 {
        self.config.rate
    }

    /// Observe one frame on the wire. Returns a datagram when the pending
    /// batch fills up.
    pub fn observe(&mut self, frame: &[u8]) -> Option<Datagram> {
        self.sample_pool = self.sample_pool.wrapping_add(1);
        self.uptime_ms = self.uptime_ms.wrapping_add(1);
        if self.skip > 0 {
            self.skip -= 1;
            return None;
        }
        self.skip = draw_skip(&mut self.rng, self.config.rate);
        self.take_sample(frame);
        if self.pending.len() >= self.config.samples_per_datagram {
            Some(self.export())
        } else {
            None
        }
    }

    /// Sample a frame unconditionally (used by the workload generator, which
    /// synthesises the *sampled* stream directly instead of materialising
    /// all 16 384× frames — statistically equivalent and 4 orders of
    /// magnitude cheaper).
    pub fn force_sample(&mut self, frame: &[u8]) -> Option<Datagram> {
        self.sample_pool = self.sample_pool.wrapping_add(self.config.rate);
        self.uptime_ms = self.uptime_ms.wrapping_add(1);
        self.take_sample(frame);
        if self.pending.len() >= self.config.samples_per_datagram {
            Some(self.export())
        } else {
            None
        }
    }

    fn take_sample(&mut self, frame: &[u8]) {
        self.sample_seq = self.sample_seq.wrapping_add(1);
        #[allow(clippy::indexing_slicing, reason = "the end index is clamped to frame.len()")]
        let captured = &frame[..frame.len().min(SNIPPET_LEN)];
        self.pending.push(FlowSample {
            sequence: self.sample_seq,
            source_id: self.config.source_id,
            sampling_rate: self.config.rate,
            sample_pool: self.sample_pool,
            drops: 0,
            input_if: self.config.source_id,
            output_if: 0,
            record: RawPacketHeader {
                protocol: HEADER_PROTO_ETHERNET,
                frame_length: frame.len() as u32,
                stripped: 0,
                header: captured.to_vec(),
            },
        });
    }

    /// Flush any pending samples into a final datagram.
    pub fn flush(&mut self) -> Option<Datagram> {
        if self.pending.is_empty() {
            None
        } else {
            Some(self.export())
        }
    }

    fn export(&mut self) -> Datagram {
        self.datagram_seq = self.datagram_seq.wrapping_add(1);
        Datagram {
            agent_address: self.config.agent_address,
            sub_agent_id: 0,
            sequence: self.datagram_seq,
            uptime_ms: self.uptime_ms,
            samples: std::mem::take(&mut self.pending),
            counters: Vec::new(),
        }
    }
}

fn draw_skip(rng: &mut SmallRng, rate: u32) -> u32 {
    if rate == 1 {
        0
    } else {
        rng.gen_range(0..2 * rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn test_config(rate: u32) -> SamplerConfig {
        SamplerConfig {
            rate,
            source_id: 12,
            agent_address: Ipv4Addr::new(10, 0, 0, 2),
            samples_per_datagram: 4,
            seed: 7,
        }
    }

    #[test]
    fn rate_one_samples_everything() {
        let mut s = Sampler::new(test_config(1));
        let mut samples = 0;
        for i in 0..100u32 {
            let frame = i.to_be_bytes();
            if let Some(dg) = s.observe(&frame) {
                samples += dg.samples.len();
            }
        }
        samples += s.flush().map_or(0, |d| d.samples.len());
        assert_eq!(samples, 100);
    }

    #[test]
    fn mean_sampling_rate_is_unbiased() {
        let rate = 64;
        let mut s = Sampler::new(test_config(rate));
        let frames = 400_000u32;
        let mut samples = 0usize;
        for _ in 0..frames {
            if let Some(dg) = s.observe(&[0u8; 64]) {
                samples += dg.samples.len();
            }
        }
        samples += s.flush().map_or(0, |d| d.samples.len());
        let expected = frames as f64 / rate as f64;
        let observed = samples as f64;
        // 3-sigma bound for a mean-N geometric-ish process.
        assert!(
            (observed - expected).abs() < 4.0 * expected.sqrt() + 50.0,
            "observed {observed} vs expected {expected}"
        );
    }

    #[test]
    fn snippet_is_capped_at_128_bytes() {
        let mut s = Sampler::new(test_config(1));
        let frame = vec![0x5a; 1514];
        let dg = loop {
            if let Some(dg) = s.observe(&frame) {
                break dg;
            }
        };
        for sample in &dg.samples {
            assert_eq!(sample.record.header.len(), SNIPPET_LEN);
            assert_eq!(sample.record.frame_length, 1514);
        }
    }

    #[test]
    fn short_frames_are_captured_whole() {
        let mut s = Sampler::new(test_config(1));
        let frame = vec![0x11; 60];
        let dg = loop {
            if let Some(dg) = s.observe(&frame) {
                break dg;
            }
        };
        assert_eq!(dg.samples[0].record.header.len(), 60);
    }

    #[test]
    fn force_sample_accounts_full_pool() {
        let mut s = Sampler::new(test_config(1000));
        let mut exported = Vec::new();
        for _ in 0..8 {
            if let Some(dg) = s.force_sample(&[0u8; 64]) {
                exported.push(dg);
            }
        }
        if let Some(dg) = s.flush() {
            exported.push(dg);
        }
        let last = exported.last().unwrap().samples.last().unwrap();
        // 8 forced samples at rate 1000 stand for 8 000 observed frames.
        assert_eq!(last.sample_pool, 8 * 1000);
    }

    #[test]
    fn sequence_numbers_are_monotone() {
        let mut s = Sampler::new(test_config(1));
        let mut last_seq = 0;
        let mut last_dg_seq = 0;
        for _ in 0..40 {
            if let Some(dg) = s.observe(&[0u8; 64]) {
                assert!(dg.sequence > last_dg_seq);
                last_dg_seq = dg.sequence;
                for sample in &dg.samples {
                    assert!(sample.sequence > last_seq);
                    last_seq = sample.sequence;
                }
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let run = || {
            let mut s = Sampler::new(test_config(16));
            let mut out = Vec::new();
            for i in 0..5_000u32 {
                if let Some(dg) = s.observe(&i.to_be_bytes()) {
                    out.push(dg.encode());
                }
            }
            out
        };
        assert_eq!(run(), run());
    }
}
