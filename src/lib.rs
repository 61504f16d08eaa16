//! Umbrella crate re-exporting the `ixp-vantage` public API.
pub use ixp_cert as cert;
pub use ixp_codec as codec;
pub use ixp_core as core;
pub use ixp_dns as dns;
pub use ixp_faults as faults;
pub use ixp_netmodel as netmodel;
pub use ixp_obs as obs;
pub use ixp_obsd as obsd;
pub use ixp_sflow as sflow;
pub use ixp_supervisor as supervisor;
pub use ixp_traffic as traffic;
pub use ixp_transport as transport;
pub use ixp_wire as wire;
