//! # ixp-transport — hardened wire transport for the collector
//!
//! The front-end that turns raw datagrams (loopback UDP or a
//! deterministic in-memory link) into work for the sFlow
//! collector/supervisor pipeline, with the same contracts the rest of
//! the workspace holds decoders to:
//!
//! * **fail-closed decode** — NetFlow v5 ([`netflow5`]), NetFlow v9
//!   ([`netflow9`]), and IPFIX ([`ipfix`]) packets either decode
//!   completely or are rejected with a typed [`error::DecodeFault`];
//!   no panics, no partial records, every length proven against the
//!   bytes present. v9 and IPFIX are two headers around one set walker
//!   and decode to one [`Export`];
//! * **bounded template state** — v9/IPFIX templates live in a
//!   per-(peer, observation-domain) LRU cache ([`template`]) with hard
//!   bounds and refresh-on-conflict versioning;
//! * **conservation accounting** — the intake ([`intake`]) puts every
//!   offered packet in exactly one bucket, extending the pipeline
//!   invariant with a `template_missing_dropped` term for data that
//!   outran its template and a transient `pending` parking lot;
//! * **checkpointable** — intake state serializes via the same
//!   versioned fail-closed codec as the collector, so a supervisor
//!   kill-and-resume mid-template-withhold loses nothing;
//! * **deterministic replay** — [`gen`] produces seeded workloads and
//!   [`link::MemLink`] carries them reproducibly, so CI gates never
//!   depend on socket permissions ([`link::UdpLink`] is the same
//!   packets over a real loopback socket).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable, clippy::indexing_slicing, clippy::let_underscore_must_use, clippy::unused_result_ok))]

pub mod error;
mod export;
pub mod flow;
pub mod gen;
pub mod intake;
pub mod ipfix;
pub mod link;
pub mod netflow5;
pub mod netflow9;
pub mod rd;
pub mod template;

pub use error::{DecodeFault, LinkError};
pub use export::Export;
pub use flow::FlowRecord;
pub use gen::{generate, FlowGenConfig, FIN};
pub use intake::{
    Drained, TransportConfig, TransportIntake, TransportMetrics, TransportStats,
    TRANSPORT_STATE_VERSION,
};
pub use link::{peer_id, Link, MemLink, UdpLink, MAX_PACKET};
pub use template::{Template, TemplateCache, TemplateCacheConfig};
