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
//! This crate provides the wire format and the arithmetic over it:
//!
//! * [`DatagramView`]/[`DatagramBuilder`] — decode and encode of the v5
//!   wire format (datagram header, flow-sample header, raw-packet-header
//!   record, `if_counters`), so the analysis side works on *bytes*, exactly
//!   like a real collector: the view borrows the caller's buffer and the
//!   builder encodes sample by sample into one reused buffer. The owned
//!   [`Datagram`] is what `Datagram::decode` and `Collector::ingest` return;
//! * `SNIPPET_LEN` — the 128-byte snippet truncation that shapes everything
//!   downstream: the analysis only ever gets that many bytes of a frame;
//! * `accounting` — scaling sampled bytes/frames back up to traffic
//!   estimates (1 sample ≙ N frames), which is how every traffic share in
//!   the paper is computed; and
//! * [`collector`] — the fault-tolerant collector front-end: per-source
//!   sequence accounting (loss estimation, duplicate suppression, restart
//!   detection), counter-wrap-safe deltas, and loss compensation, because
//!   sFlow rides UDP and a 17-week campaign will see every failure mode.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
        clippy::disallowed_macros
    )
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accounting;
pub mod checkpoint;
pub mod collector;
pub mod datagram;
mod xdr;

pub use accounting::TrafficEstimate;
pub use checkpoint::StateError;
pub use collector::{Collector, CollectorStats, Ingest, SourceStats};
pub use datagram::{
    flow_sample_len, CounterSample, Datagram, DatagramBuilder, DatagramView, DecodeError,
    FlowSample, RawPacketHeader, SampleView, COUNTER_SAMPLE_LEN, HEADER_PROTO_ETHERNET,
    SNIPPET_LEN,
};

/// The sampling rate used by the studied IXP: 1 out of 16 384 frames.
pub const PAPER_SAMPLING_RATE: u32 = 16_384;
