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
//!   it, defined once in this file and called from those two functions
//!   only. Each format keeps its own
//!   magic/version/length framing in its own crate; only "digest everything
//!   before, append big-endian, verify before the payload codec runs" is
//!   shared. It is not [`fnv64`], whose one dependent multiplication a
//!   byte was 12 ms of a 33 ms checkpoint at `paper(400)`; this takes
//!   under one.
//!
//! The crate depends on nothing, so every other crate can use it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable, clippy::indexing_slicing, clippy::let_underscore_must_use, clippy::unused_result_ok, clippy::disallowed_macros))]
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
mod field;
pub mod json;

use std::fmt;

pub use field::{put_bool, put_bytes, put_str, put_u128, put_u16, put_u32, put_u64, put_u8, Cur};

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

/// Why a sealed record's trailer was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrailerError {
    /// The record is too short to hold a trailer at all.
    Truncated,
    /// The trailer does not match the bytes before it.
    Mismatch,
}

impl fmt::Display for TrailerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrailerError::Truncated => write!(f, "sealed record too short for its trailer"),
            TrailerError::Mismatch => write!(f, "sealed record trailer mismatch"),
        }
    }
}

impl std::error::Error for TrailerError {}

impl From<TrailerError> for StateError {
    fn from(e: TrailerError) -> StateError {
        match e {
            TrailerError::Truncated => StateError::Truncated,
            TrailerError::Mismatch => StateError::Invalid("state checksum mismatch"),
        }
    }
}

/// Multiplier of every [`lane_step`]: 2^64 / φ, odd.
const TRAILER_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Initial state and shift of each of the four lanes. The states are the
/// fractional bits of √2, √3, √5 and √7. The shifts are all at least 32, so
/// a word's top bits come down into the low half, under the multiplication;
/// and they are all different, so that no two lanes compute the same
/// function — which also keeps the compiler from pairing lanes in SSE2
/// registers, where a 64-bit multiplication is three 32-bit ones and the
/// digest runs at half its speed.
const TRAILER_LANES: [(u64, u32); 4] = [
    (0x6a09_e667_f3bc_c908, 32),
    (0xbb67_ae85_84ca_a73b, 33),
    (0x3c6e_f372_fe94_f82b, 35),
    (0xa54f_f53a_5f1d_36f1, 37),
];

/// Initial state (the fractional bits of √11) and shift of the closing fold.
const TRAILER_FOLD: (u64, u32) = (0x510e_527f_ade6_82d1, 32);

/// Take word `w` into state `h`: xor, xor-shift, multiply. For a fixed `w`
/// this is a bijection of `h` (an xor with a constant, an xor-shift and a
/// multiplication by an odd number all are) and for a fixed `h` a bijection
/// of `w`, which is what the single-bit-flip guarantee of
/// [`trailer_digest`] rests on. The shift comes before the multiplication
/// so that every bit of `w` also sits in the low half when it is
/// multiplied: what a flipped bit does to the state then depends on the
/// state, and no fixed flip in the lane's next word undoes it. (Multiply
/// first and the top bit of `w` comes through as the top bit of the product
/// whatever the state is: flipping it, and two bits of the next word, would
/// go unseen every time.)
fn lane_step(h: u64, w: u64, shift: u32) -> u64 {
    let x = h ^ w;
    (x ^ (x >> shift)).wrapping_mul(TRAILER_MUL)
}

/// The little-endian `u64` words of `bytes`, whose length is a multiple of
/// eight.
fn le_words(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes.chunks_exact(8).filter_map(|w| w.try_into().ok()).map(u64::from_le_bytes)
}

/// The digest every sealed record ends in: damage detection at memory
/// speed. It is not a cryptographic hash (FNV-1a was not one either) and it
/// is not [`fnv64`], which stays the digest of reports and pins.
///
/// `bytes` is read as 32-byte blocks of four little-endian `u64` words;
/// word `j` of every block goes through [`lane_step`] into lane `j`, so four
/// multiplications are in flight where FNV-1a has one a byte. The closing
/// fold takes, through the same step and in this order, the four lanes, the
/// byte length, and the last `len % 32` bytes zero-padded to four words.
///
/// A single-bit flip at unchanged length changes exactly one word, hence
/// (bijection in the word) the state that took it, hence (bijection in the
/// state, every later word being the same) the result: it is always
/// detected, as it was under FNV-1a. Any other damage — several flips,
/// words or blocks that moved, zero bytes added or dropped — goes unnoticed
/// only if the state differences it makes cancel: a chance of the order of
/// 2⁻⁶⁴ for damage unrelated to the data, and, measured over random states,
/// under one in four hundred for the worst two-word pattern that can be
/// written down without seeing them (one bit flipped and, in the same
/// lane's next word, the likeliest bits to undo it).
fn trailer_digest(bytes: &[u8]) -> u64 {
    let mut lanes = TRAILER_LANES.map(|(seed, _)| seed);
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for ((lane, (_, shift)), w) in lanes.iter_mut().zip(TRAILER_LANES).zip(le_words(block)) {
            *lane = lane_step(*lane, w, shift);
        }
    }
    let mut tail = [0u8; 32];
    for (padded, b) in tail.iter_mut().zip(blocks.remainder()) {
        *padded = *b;
    }
    let (seed, shift) = TRAILER_FOLD;
    let folded = lanes.into_iter().chain([bytes.len() as u64]).chain(le_words(&tail));
    folded.fold(seed, |h, w| lane_step(h, w, shift))
}

/// Seal `out`: append the big-endian [`trailer_digest`] of everything in it.
pub fn append_trailer(out: &mut Vec<u8>) {
    let sum = trailer_digest(out);
    put_u64(out, sum);
}

/// Split the 8-byte trailer off `sealed` and return the content before it,
/// but only if the trailer is the content's [`trailer_digest`]. Truncation,
/// bit flips and extensions are all caught here, before any field is read.
pub fn split_verified(sealed: &[u8]) -> Result<&[u8], TrailerError> {
    let at = sealed.len().checked_sub(8).ok_or(TrailerError::Truncated)?;
    let (content, trailer) = sealed.split_at_checked(at).ok_or(TrailerError::Truncated)?;
    let stored = Cur::new(trailer).u64().map_err(|_| TrailerError::Truncated)?;
    if trailer_digest(content) == stored {
        Ok(content)
    } else {
        Err(TrailerError::Mismatch)
    }
}

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
            let r = cur
                .u32()
                .and_then(|_| cur.bytes().map(<[u8]>::len))
                .and_then(|_| cur.u64());
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
