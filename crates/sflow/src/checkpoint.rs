//! Collector-state checkpoints: the format version, and a re-export of the
//! `ixp-codec` field codec the state is written in (this is where
//! `ixp-core`'s week scan and the supervisor import it from).
//!
//! The supervised pipeline (`ixp-supervisor`) kills the process at any
//! datagram boundary and resumes byte-identically, which needs the state
//! to be *deterministic* (hash maps are written in sorted key order, so
//! `save → restore → save` is the identity on bytes and checkpoints can
//! be compared with `cmp`), *robust* (every read goes through the
//! bounds-checked [`Cur`] and fails with a typed [`StateError`], never a
//! panic — the same contract as the datagram decoder in [`crate::xdr`])
//! and *versioned* (each blob leads with a format version, so a schema
//! change is a clean [`StateError::BadVersion`]). The enclosing file
//! format (magic, envelope version, checksum) belongs to `ixp-supervisor`.

pub use ixp_codec::{
    put_bool, put_bytes, put_str, put_u128, put_u16, put_u32, put_u64, put_u8, Cur, StateError,
};

/// Serialization format version of [`crate::Collector`] state.
pub const COLLECTOR_STATE_VERSION: u32 = 1;
