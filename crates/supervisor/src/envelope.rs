//! The checkpoint *file* format: a self-identifying envelope around an
//! opaque state payload.
//!
//! ```text
//! +--------+---------+-------------+---------+----------+
//! | magic  | version | payload len | payload | checksum |
//! | 8 B    | u32 BE  | u64 BE      | ...     | u64 BE   |
//! +--------+---------+-------------+---------+----------+
//! ```
//!
//! The trailing checksum is the shared `ixp-codec` trailer — its word-wise
//! four-lane digest, since version 2 — over every byte before it (magic,
//! version, length, payload), so truncation, bit flips, and extensions are
//! all detected before the payload codec ever runs. A checkpoint that fails
//! any of these checks is rejected with a typed [`CheckpointError`] — never
//! a panic, and never a partial restore. Version 1 ended in FNV-1a-64 over
//! the same bytes; there is no reader for it, and a version-1 file is
//! rejected as [`CheckpointError::BadVersion`].

use std::fmt;

pub use ixp_codec::fnv64;
use ixp_codec::{append_trailer, put_u32, put_u64, split_verified, Cur, StateError, TrailerError};

/// File magic: "IXPCKPT1".
pub(crate) const MAGIC: [u8; 8] = *b"IXPCKPT1";

/// Envelope format version (independent of the payload's own versions).
/// 2: the trailer is `ixp-codec`'s word-wise digest; widths unchanged.
pub const FORMAT_VERSION: u32 = 2;

/// A typed failure while opening or decoding a checkpoint file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The envelope was written by an unknown format version.
    BadVersion(u32),
    /// The file ended before the announced content did.
    Truncated,
    /// The trailing checksum does not match the content.
    ChecksumMismatch,
    /// Bytes remain after the envelope's announced extent.
    TrailingBytes,
    /// The envelope was intact but the state payload was not.
    State(StateError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::BadVersion(v) => {
                write!(f, "unsupported checkpoint envelope version {v}")
            }
            CheckpointError::Truncated => write!(f, "checkpoint file truncated"),
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::TrailingBytes => write!(f, "trailing bytes after checkpoint"),
            CheckpointError::State(e) => write!(f, "checkpoint payload invalid: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::State(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StateError> for CheckpointError {
    fn from(e: StateError) -> CheckpointError {
        CheckpointError::State(e)
    }
}

impl From<TrailerError> for CheckpointError {
    fn from(e: TrailerError) -> CheckpointError {
        match e {
            TrailerError::Truncated => CheckpointError::Truncated,
            TrailerError::Mismatch => CheckpointError::ChecksumMismatch,
        }
    }
}

/// Wrap a state payload in the checkpoint envelope.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 28);
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    append_trailer(&mut out);
    out
}

/// Open an envelope, returning the verified payload slice.
pub fn open(bytes: &[u8]) -> Result<&[u8], CheckpointError> {
    let (magic, rest) = bytes.split_at_checked(8).ok_or(CheckpointError::Truncated)?;
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let mut cur = Cur::new(rest);
    let version = cur.u32().map_err(|_| CheckpointError::Truncated)?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let len = cur.u64().map_err(|_| CheckpointError::Truncated)?;
    let n = usize::try_from(len).map_err(|_| CheckpointError::Truncated)?;
    let header: usize = 8 + 4 + 8;
    let sealed_len = header
        .checked_add(n)
        .and_then(|end| end.checked_add(8))
        .ok_or(CheckpointError::Truncated)?;
    let sealed = bytes.get(..sealed_len).ok_or(CheckpointError::Truncated)?;
    let content = split_verified(sealed)?;
    if bytes.len() != sealed_len {
        return Err(CheckpointError::TrailingBytes);
    }
    content.get(header..).ok_or(CheckpointError::Truncated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_round_trips() {
        let payload = b"supervised state";
        let sealed = seal(payload);
        assert_eq!(open(&sealed), Ok(&payload[..]));
        assert_eq!(open(&seal(&[])), Ok(&[][..]));
    }

    // Every truncation, every single-bit flip, trailing bytes and a
    // hostile length: `ixp-codec`'s `tests/corruption.rs` walks this
    // framing beside the transport state.

    #[test]
    fn wrong_magic_and_version_are_typed() {
        let mut sealed = seal(b"x");
        sealed[0] = b'Z';
        assert_eq!(open(&sealed), Err(CheckpointError::BadMagic));
        let mut sealed = seal(b"x");
        sealed[11] = 9; // version low byte
                        // The checksum covers the version, so either error is acceptable —
                        // but it must be an error.
        assert!(open(&sealed).is_err());
    }

    #[test]
    fn errors_render_and_chain() {
        let e = CheckpointError::State(StateError::Truncated);
        assert!(e.to_string().contains("payload"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
