//! The sealed-record trailer: the digest every sealed record ends in,
//! appended by [`append_trailer`] and checked by [`split_verified`]. The
//! digest itself is private to this module, so those two functions are the
//! only way any format reaches it.

use std::fmt;

use crate::{put_u64, Cur, StateError};

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
/// is not [`fnv64`](crate::fnv64), which stays the digest of reports and pins.
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
