//! # ixp-wire
//!
//! Wire-format handling for the `ixp-vantage` measurement pipeline.
//!
//! The IMC'13 study ("On the Benefits of Using a Large IXP as an Internet
//! Vantage Point") works on **sFlow samples**: the first 128 bytes of randomly
//! sampled Ethernet frames. Everything the analysis knows about the Internet it
//! has to recover from those bytes. This crate provides the byte-level plumbing
//! both ends of our reproduction share:
//!
//! * the **workload generator** ([`ixp-traffic`]) uses the `Repr` types to
//!   *emit* syntactically valid frames, and
//! * the **analysis pipeline** ([`ixp-core`]) uses the packet views to
//!   *dissect* the very same bytes, exactly as the authors' tooling had to.
//!
//! The design follows the smoltcp idiom:
//!
//! * `Packet<T: AsRef<[u8]>>` wrappers give zero-copy, bounds-checked field
//!   access over a byte buffer. A constructor validates lengths up front so
//!   the accessors cannot panic: `new_snippet` for IPv4, TCP and UDP (the
//!   headers whole, the payload possibly cut), `new_checked` for Ethernet
//!   and ICMP. The strict whole-packet `new_checked` of IPv4, TCP and UDP is
//!   built for the crate's tests only.
//! * `Repr` structs are the parsed, owned representation; `Repr::parse` and
//!   `Repr::emit` are inverses for every valid value (property-tested).
//! * Malformed input is an [`Error`], never a panic.
//!
//! One deliberate extension beyond smoltcp: because sFlow truncates frames at
//! 128 bytes, [`ipv4::Packet::new_snippet`] and the [`dissect`] module accept
//! buffers that are *shorter than the IPv4 total length*, as long as all
//! headers are intact — precisely the situation the paper's string-matching
//! classifier operates in (74 bytes of TCP payload, 86 of UDP).
//!
//! [`ixp-traffic`]: ../ixp_traffic/index.html
//! [`ixp-core`]: ../ixp_core/index.html

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
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checksum;
pub mod dissect;
pub mod ethernet;
pub mod icmp;
pub mod ip;
pub mod ipv4;
pub mod tcp;
pub mod udp;

mod error;

pub use error::{Error, Result};

pub use dissect::{Dissection, Network, Transport};
pub use ethernet::{EtherType, EthernetAddress};
pub use ip::Protocol;
