//! The one byte-level vocabulary every persisted or sealed format in the
//! workspace is written in, and the one JSON reader ([`json`]).
//!
//! Three things live here once, so two copies of a format cannot drift:
//!
//! * [`fnv64`] — FNV-1a-64, the digest of reports and cross-commit format
//!   pins;
//! * the field codec (`field.rs`): the big-endian `put_*` writers and the
//!   bounds-checked [`Cur`] reader with its typed [`StateError`] — state
//!   comes back off disk, which makes it wire-grade input: every read is
//!   checked and fails with an error, never a panic. Layout is plain
//!   big-endian primitives with 64-bit length prefixes for byte strings;
//!   there is no self-description. Every writer and reader is `#[inline]`,
//!   and a lint keeps it so;
//! * the sealed-record trailer ([`append_trailer`] / [`split_verified`])
//!   that the checkpoint envelope (`IXPCKPT1`) and the transport state
//!   blob both end in: a word-wise, four-lane digest of every byte before
//!   it, defined once in `trailer.rs` and private to that module, so those
//!   two functions are its only callers. Each format keeps its own
//!   magic/version/length framing in its own crate; only "digest everything
//!   before, append big-endian, verify before the payload codec runs" is
//!   shared. It is not [`fnv64`], whose one dependent multiplication a
//!   byte was 12 ms of a 33 ms checkpoint at `paper(400)`; this takes
//!   under one.
//!
//! The crate depends on nothing, so every other crate can use it.

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
mod field;
pub mod json;
mod trailer;

use std::fmt;

pub use field::{put_bool, put_bytes, put_str, put_u128, put_u16, put_u32, put_u64, put_u8, Cur};
pub use trailer::{append_trailer, split_verified, TrailerError};

/// FNV-1a-64 over `bytes`: the digest of reports and pins. Not
/// the sealed-record trailer, which is [`append_trailer`]'s word-wise
/// digest.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A typed decode failure while restoring checkpointed state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateError {
    /// The blob ended before the announced content did.
    Truncated,
    /// The state was written by an unknown format version.
    BadVersion(u32),
    /// The bytes decoded but describe an impossible state (unsorted keys,
    /// out-of-range references, accounting that does not balance).
    Invalid(&'static str),
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Truncated => write!(f, "checkpoint state truncated"),
            StateError::BadVersion(v) => {
                write!(f, "unsupported checkpoint state version {v}")
            }
            StateError::Invalid(what) => write!(f, "invalid checkpoint state: {what}"),
        }
    }
}

impl std::error::Error for StateError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_primitives() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_bool(&mut out, true);
        put_u16(&mut out, 0xBEEF);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_u128(&mut out, u128::MAX / 3);
        put_bytes(&mut out, b"abc");
        put_str(&mut out, "über");
        let mut cur = Cur::new(&out);
        assert_eq!(cur.u8(), Ok(7));
        assert_eq!(cur.bool(), Ok(true));
        assert_eq!(cur.u16(), Ok(0xBEEF));
        assert_eq!(cur.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(cur.u64(), Ok(u64::MAX - 1));
        assert_eq!(cur.u128(), Ok(u128::MAX / 3));
        assert_eq!(cur.bytes(), Ok(&b"abc"[..]));
        assert_eq!(cur.str(), Ok("über"));
        assert_eq!(cur.finish(), Ok(()));
    }

    #[test]
    fn truncation_is_a_typed_error_at_every_cut() {
        let mut out = Vec::new();
        put_u32(&mut out, 1);
        put_bytes(&mut out, b"payload");
        put_u64(&mut out, 42);
        for cut in 0..out.len() {
            let prefix: Vec<u8> = out.iter().copied().take(cut).collect();
            let mut cur = Cur::new(&prefix);
            let r = cur.u32().and_then(|_| cur.bytes().map(<[u8]>::len)).and_then(|_| cur.u64());
            assert!(r.is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn hostile_lengths_do_not_allocate_or_panic() {
        // A length prefix claiming u64::MAX bytes.
        let mut out = Vec::new();
        put_u64(&mut out, u64::MAX);
        let mut cur = Cur::new(&out);
        assert_eq!(cur.bytes(), Err(StateError::Truncated));
        // A count prefix claiming more elements than bytes remain.
        let mut out = Vec::new();
        put_u64(&mut out, 1 << 40);
        let mut cur = Cur::new(&out);
        assert_eq!(cur.count(8), Err(StateError::Truncated));
    }

    #[test]
    fn bad_bool_and_bad_utf8_are_invalid_not_truncated() {
        let mut cur = Cur::new(&[2u8]);
        assert!(matches!(cur.bool(), Err(StateError::Invalid(_))));
        let mut out = Vec::new();
        put_bytes(&mut out, &[0xFF, 0xFE]);
        let mut cur = Cur::new(&out);
        assert!(matches!(cur.str(), Err(StateError::Invalid(_))));
    }

    #[test]
    fn errors_render_and_implement_error() {
        let errors: [Box<dyn std::error::Error>; 3] = [
            Box::new(StateError::Truncated),
            Box::new(StateError::BadVersion(9)),
            Box::new(StateError::Invalid("x")),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn published_fnv64_vectors_hold() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn trailer_round_trips_and_rejects_damage() {
        let mut sealed = b"content".to_vec();
        append_trailer(&mut sealed);
        assert_eq!(split_verified(&sealed), Ok(&b"content"[..]));
        let mut empty = Vec::new();
        append_trailer(&mut empty);
        assert_eq!(split_verified(&empty), Ok(&[][..]));
        for cut in 0..8 {
            assert_eq!(split_verified(&sealed[..cut]), Err(TrailerError::Truncated));
        }
        for cut in 8..sealed.len() {
            assert_eq!(split_verified(&sealed[..cut]), Err(TrailerError::Mismatch));
        }
        sealed.push(0);
        assert_eq!(split_verified(&sealed), Err(TrailerError::Mismatch));
    }
}
