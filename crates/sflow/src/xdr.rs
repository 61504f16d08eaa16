//! Minimal XDR-style (RFC 4506) primitives: big-endian u32-aligned encoding,
//! which is what the sFlow v5 specification uses throughout.

#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
use crate::datagram::DecodeError;

/// Pad a byte length up to the next multiple of four. Saturates instead of
/// wrapping for lengths within 3 of `usize::MAX` (which no real datagram
/// can reach, but a forged length field can claim).
pub(crate) const fn pad4(len: usize) -> usize {
    len.saturating_add(3) & !3
}

/// Append an opaque byte string with XDR padding (no length prefix; sFlow
/// fields carry explicit separate lengths).
pub(crate) fn put_opaque(out: &mut Vec<u8>, data: &[u8]) {
    out.extend_from_slice(data);
    #[allow(
        clippy::arithmetic_side_effects,
        reason = "data is in memory, so its length is under usize::MAX - 3 and pad4 rounds it up without saturating"
    )]
    let padding = pad4(data.len()) - data.len();
    out.extend(std::iter::repeat_n(0, padding));
}

/// A forward-only reader over an XDR byte stream.
#[derive(Debug, Clone)]
pub(crate) struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a buffer.
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[allow(
        clippy::arithmetic_side_effects,
        reason = "pos moves only past bytes the checks in u32, opaque and skip found, so pos <= data.len()"
    )]
    pub(crate) fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Current offset from the start of the buffer.
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    /// Read one big-endian u32.
    pub(crate) fn u32(&mut self) -> Result<u32, DecodeError> {
        match self.data.get(self.pos..self.pos.wrapping_add(4)) {
            #[allow(
                clippy::arithmetic_side_effects,
                reason = "get(pos..pos + 4) just returned four bytes"
            )]
            Some(&[a, b, c, d]) => {
                self.pos += 4;
                Ok(u32::from_be_bytes([a, b, c, d]))
            }
            _ => Err(DecodeError::Truncated),
        }
    }

    /// Read `len` opaque bytes plus their XDR padding.
    pub(crate) fn opaque(&mut self, len: usize) -> Result<&'a [u8], DecodeError> {
        let padded = pad4(len);
        if self.remaining() < padded {
            return Err(DecodeError::Truncated);
        }
        let end = self.pos.checked_add(len).ok_or(DecodeError::Truncated)?;
        let out = self.data.get(self.pos..end).ok_or(DecodeError::Truncated)?;
        self.pos = self.pos.saturating_add(padded);
        Ok(out)
    }

    /// Skip `len` bytes exactly (no padding).
    pub(crate) fn skip(&mut self, len: usize) -> Result<(), DecodeError> {
        if self.remaining() < len {
            return Err(DecodeError::Truncated);
        }
        self.pos = self.pos.saturating_add(len);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad4_rounds_up() {
        assert_eq!(pad4(0), 0);
        assert_eq!(pad4(1), 4);
        assert_eq!(pad4(4), 4);
        assert_eq!(pad4(5), 8);
        assert_eq!(pad4(128), 128);
    }

    #[test]
    fn opaque_round_trip() {
        let mut buf = Vec::new();
        put_opaque(&mut buf, b"hello");
        assert_eq!(buf.len(), 8);
        let mut r = Reader::new(&buf);
        assert_eq!(r.opaque(5).unwrap(), b"hello");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn u32_sequence() {
        let mut buf = Vec::new();
        ixp_codec::put_u32(&mut buf, 5);
        ixp_codec::put_u32(&mut buf, 0xdead_beef);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32().unwrap(), 5);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u32().unwrap_err(), DecodeError::Truncated);
    }
}
