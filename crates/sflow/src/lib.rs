//! # ixp-sflow
//!
//! An implementation of the subset of **sFlow version 5** that the IMC'13
//! IXP study rests on: flow samples carrying the first bytes of randomly
//! sampled Ethernet frames, shipped in XDR-encoded datagrams from the
//! switch agents to a collector.
//!
//! The study's measurement apparatus (paper §2.1) is:
//!
//! * random sampling of **1 out of 16 384** frames on every public-fabric
//!   port,
//! * capture of the **first 128 bytes** of each sampled frame, and
//! * continuous collection over 17 weeks.
//!
//! This crate provides both halves of that apparatus:
//!
//! * [`Datagram`]/[`FlowSample`] — faithful encode/decode of the v5 wire
//!   format (datagram header, flow-sample header, raw-packet-header record),
//!   so the analysis side works on *bytes*, exactly like a real collector;
//!   [`DatagramView`] is the same decode borrowing the caller's buffer,
//!   which is what the ingest path uses, and [`DatagramBuilder`] the same
//!   encode sample by sample, which is what the traffic generator uses;
//! * [`Sampler`] — the per-port sampling process (geometric skip counts, the
//!   textbook implementation of sFlow's random 1-in-N sampling) plus snippet
//!   truncation; and
//! * [`accounting`] — scaling sampled bytes/frames back up to traffic
//!   estimates (1 sample ≙ N frames), which is how every traffic share in
//!   the paper is computed; and
//! * [`collector`] — the fault-tolerant collector front-end: per-source
//!   sequence accounting (loss estimation, duplicate suppression, restart
//!   detection), counter-wrap-safe deltas, and loss compensation, because
//!   sFlow rides UDP and a 17-week campaign will see every failure mode.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable, clippy::indexing_slicing, clippy::let_underscore_must_use, clippy::unused_result_ok))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accounting;
pub mod checkpoint;
pub mod collector;
pub mod datagram;
pub mod sampler;

pub mod xdr;

pub use accounting::TrafficEstimate;
pub use checkpoint::StateError;
pub use collector::{Collector, CollectorStats, CounterTotals, DecodeErrorCounts, Ingest, SourceKey, SourceStats};
pub use datagram::{
    flow_sample_len, CounterSample, Datagram, DatagramBuilder, DatagramView, DecodeError, FlowSample,
    FlowSampleView, RawPacketHeader, SampleView, COUNTER_SAMPLE_LEN, HEADER_PROTO_ETHERNET,
};
pub use sampler::{Sampler, SamplerConfig, SNIPPET_LEN};

/// The sampling rate used by the studied IXP: 1 out of 16 384 frames.
pub const PAPER_SAMPLING_RATE: u32 = 16_384;
