//! The field codec: the big-endian `put_*` writers and the bounds-checked
//! [`Cur`] reader, re-exported at the crate root.
//!
//! Every public function here is `#[inline]`, and the lint below keeps it
//! so. The workspace builds without LTO, so a writer or reader that is not
//! inlined is a call across crates for each field: some 2.4 M of them in a
//! `paper(400)` checkpoint, which was a quarter of `WeekScan::save_state`.

#![deny(clippy::missing_inline_in_public_items)]

use crate::StateError;

/// Append a `u8`.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a `bool` as one byte.
#[inline]
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Append a big-endian `u16`.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a big-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a big-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a big-endian `u128`.
#[inline]
pub fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a length-prefixed byte string (`u64` length, then the bytes),
/// growing `out` at most once for the two.
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    #[allow(
        clippy::arithmetic_side_effects,
        reason = "b is in memory, so b.len() <= isize::MAX and 8 more fit in usize"
    )]
    out.reserve(8 + b.len());
    put_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// Append a length-prefixed UTF-8 string.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// A bounds-checked read cursor over a checkpoint blob. Every accessor
/// returns a typed error instead of panicking — the blob is treated as
/// hostile input (it may have been truncated or corrupted on disk).
#[derive(Debug, Clone, Copy)]
pub struct Cur<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    /// A cursor at the start of `data`.
    #[inline]
    pub fn new(data: &'a [u8]) -> Cur<'a> {
        Cur { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub(crate) fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    /// Succeeds only if the cursor consumed the blob exactly.
    #[inline]
    pub fn finish(&self) -> Result<(), StateError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(StateError::Invalid("trailing bytes after state"))
        }
    }

    /// Read one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, StateError> {
        let end = self.pos.checked_add(1).ok_or(StateError::Truncated)?;
        match *self.data.get(self.pos..end).ok_or(StateError::Truncated)? {
            [a] => {
                self.pos = end;
                Ok(a)
            }
            _ => Err(StateError::Truncated),
        }
    }

    /// Read one byte as a strict `bool` (0 or 1).
    #[inline]
    pub fn bool(&mut self) -> Result<bool, StateError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(StateError::Invalid("boolean byte out of range")),
        }
    }

    /// Read a big-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, StateError> {
        let end = self.pos.checked_add(2).ok_or(StateError::Truncated)?;
        match *self.data.get(self.pos..end).ok_or(StateError::Truncated)? {
            [a, b] => {
                self.pos = end;
                Ok(u16::from_be_bytes([a, b]))
            }
            _ => Err(StateError::Truncated),
        }
    }

    /// Read a big-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, StateError> {
        let end = self.pos.checked_add(4).ok_or(StateError::Truncated)?;
        match *self.data.get(self.pos..end).ok_or(StateError::Truncated)? {
            [a, b, c, d] => {
                self.pos = end;
                Ok(u32::from_be_bytes([a, b, c, d]))
            }
            _ => Err(StateError::Truncated),
        }
    }

    /// Read a big-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, StateError> {
        let end = self.pos.checked_add(8).ok_or(StateError::Truncated)?;
        match *self.data.get(self.pos..end).ok_or(StateError::Truncated)? {
            [a, b, c, d, e, f, g, h] => {
                self.pos = end;
                Ok(u64::from_be_bytes([a, b, c, d, e, f, g, h]))
            }
            _ => Err(StateError::Truncated),
        }
    }

    /// Read a big-endian `u128`.
    #[inline]
    pub fn u128(&mut self) -> Result<u128, StateError> {
        let hi = self.u64()?;
        let lo = self.u64()?;
        Ok((u128::from(hi) << 64) | u128::from(lo))
    }

    /// Read a length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], StateError> {
        let len = self.u64()?;
        let n = usize::try_from(len).map_err(|_| StateError::Truncated)?;
        let end = self.pos.checked_add(n).ok_or(StateError::Truncated)?;
        let s = self.data.get(self.pos..end).ok_or(StateError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Read a length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, StateError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|_| StateError::Invalid("non-UTF-8 string in state"))
    }

    /// Read an element count and sanity-cap it against the remaining bytes,
    /// assuming each element needs at least `min_element_size` bytes. A
    /// corrupted count then fails fast instead of driving a giant loop.
    #[inline]
    pub fn count(&mut self, min_element_size: usize) -> Result<usize, StateError> {
        let raw = self.u64()?;
        let n = usize::try_from(raw).map_err(|_| StateError::Truncated)?;
        let need = n.checked_mul(min_element_size.max(1)).ok_or(StateError::Truncated)?;
        if need > self.remaining() {
            return Err(StateError::Truncated);
        }
        Ok(n)
    }
}
