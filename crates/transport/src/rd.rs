//! Bounds-checked big-endian reader for the flow-export decoders.
//!
//! Mirrors the sFlow XDR `Reader` discipline: every access is checked,
//! over-reads surface as [`DecodeFault::Truncated`], and the cursor
//! position is available so a decoder can prove it consumed exactly the
//! length a packet claimed. No method panics on any input.

#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
use crate::error::DecodeFault;

/// Cursor over one received packet.
#[derive(Debug)]
pub(crate) struct Rd<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    /// Start at the beginning of `data`.
    pub(crate) fn new(data: &'a [u8]) -> Rd<'a> {
        Rd { data, pos: 0 }
    }

    /// Bytes left unread.
    pub(crate) fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    /// Read one byte.
    pub(crate) fn u8(&mut self) -> Result<u8, DecodeFault> {
        let b = *self.data.get(self.pos).ok_or(DecodeFault::Truncated)?;
        self.pos = self.pos.saturating_add(1);
        Ok(b)
    }

    /// Read a big-endian `u16`.
    pub(crate) fn u16(&mut self) -> Result<u16, DecodeFault> {
        let raw = self.take(2)?;
        match raw {
            [a, b] => Ok(u16::from_be_bytes([*a, *b])),
            _ => Err(DecodeFault::Truncated),
        }
    }

    /// Read a big-endian `u32`.
    pub(crate) fn u32(&mut self) -> Result<u32, DecodeFault> {
        let raw = self.take(4)?;
        match raw {
            [a, b, c, d] => Ok(u32::from_be_bytes([*a, *b, *c, *d])),
            _ => Err(DecodeFault::Truncated),
        }
    }

    /// Read `n` bytes (`n` ≤ 8) as a big-endian unsigned integer — how
    /// NetFlow v9/IPFIX encode variable-width counters.
    pub(crate) fn be_uint(&mut self, n: usize) -> Result<u64, DecodeFault> {
        if n > 8 {
            return Err(DecodeFault::Inconsistent);
        }
        let raw = self.take(n)?;
        let mut v = 0u64;
        for b in raw {
            v = (v << 8) | u64::from(*b);
        }
        Ok(v)
    }

    /// Take the next `n` bytes as a slice.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeFault> {
        let end = self.pos.checked_add(n).ok_or(DecodeFault::Truncated)?;
        let s = self.data.get(self.pos..end).ok_or(DecodeFault::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Skip `n` bytes.
    pub(crate) fn skip(&mut self, n: usize) -> Result<(), DecodeFault> {
        self.take(n).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_bounds_checked() {
        let mut r = Rd::new(&[1, 2, 3]);
        assert_eq!(r.u16(), Ok(0x0102));
        assert_eq!(r.u16(), Err(DecodeFault::Truncated));
        assert_eq!(r.u8(), Ok(3));
        assert_eq!(r.u8(), Err(DecodeFault::Truncated));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn be_uint_handles_odd_widths() {
        let mut r = Rd::new(&[0, 0, 1, 0xFF]);
        assert_eq!(r.be_uint(3), Ok(1));
        assert_eq!(r.be_uint(1), Ok(255));
        assert_eq!(Rd::new(&[0; 16]).be_uint(9), Err(DecodeFault::Inconsistent));
    }
}
