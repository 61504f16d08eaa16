//! The Internet checksum (RFC 1071) and the TCP/UDP pseudo-header.

use std::net::Ipv4Addr;

/// Running ones-complement sum, fold-at-the-end style: the TCP/UDP
/// emitters checksum a header and a payload that live in different buffers
/// without copying.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Checksum {
    sum: u32,
    /// Set once an odd-length slice has been folded in; feeding anything
    /// after that point would mis-align every subsequent 16-bit word.
    odd_fed: bool,
}

/// Add with end-around carry, the incremental RFC 1071 form: a carry out
/// of bit 31 folds straight back into bit 0, so the accumulator stays
/// congruent mod 0xffff no matter how much data is fed.
fn fold_add(sum: u32, word: u32) -> u32 {
    let (s, carried) = sum.overflowing_add(word);
    s.wrapping_add(u32::from(carried))
}

impl Checksum {
    /// A fresh accumulator.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Feed a byte slice. Odd-length slices are padded with a zero byte,
    /// which is correct for the *final* slice only; intermediate slices fed
    /// to one accumulator must be even-length (checked in debug builds).
    #[allow(
        clippy::disallowed_macros,
        reason = "debug builds only: the order the caller feeds slices in, not anything decoded"
    )]
    pub(crate) fn add(&mut self, data: &[u8]) {
        debug_assert!(
            !self.odd_fed,
            "Checksum::add after an odd-length slice; only the final slice may be odd"
        );
        let mut chunks = data.chunks_exact(2);
        for chunk in &mut chunks {
            if let &[hi, lo] = chunk {
                self.sum = fold_add(self.sum, u32::from(u16::from_be_bytes([hi, lo])));
            }
        }
        if let [last] = chunks.remainder() {
            self.sum = fold_add(self.sum, u32::from(u16::from_be_bytes([*last, 0])));
            self.odd_fed = true;
        }
    }

    /// Feed one big-endian u16.
    #[allow(
        clippy::disallowed_macros,
        reason = "debug builds only: the order the caller feeds slices in, not anything decoded"
    )]
    pub(crate) fn add_u16(&mut self, v: u16) {
        debug_assert!(
            !self.odd_fed,
            "Checksum::add_u16 after an odd-length slice; only the final slice may be odd"
        );
        self.sum = fold_add(self.sum, u32::from(v));
    }

    /// Feed the TCP/UDP pseudo-header for the given IPv4 endpoints.
    pub(crate) fn add_pseudo_header(
        &mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        protocol: u8,
        length: u16,
    ) {
        self.add(&src.octets());
        self.add(&dst.octets());
        self.add_u16(u16::from(protocol));
        self.add_u16(length);
    }

    /// Fold carries and return the ones-complement result.
    #[allow(
        clippy::arithmetic_side_effects,
        reason = "two 16-bit halves add to at most 0x1fffe, well inside u32"
    )]
    pub(crate) fn finish(self) -> u16 {
        let mut sum = self.sum;
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }
}

/// Checksum a single contiguous buffer.
pub(crate) fn data(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add(data);
    c.finish()
}

/// Verify a buffer whose checksum field is already in place: the ones-
/// complement sum over the whole buffer must be zero (i.e. `data` returns 0).
pub(crate) fn verify(buffer: &[u8]) -> bool {
    data(buffer) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // The classic example: 00 01 f2 03 f4 f5 f6 f7 -> checksum 0x220d.
        let bytes = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(data(&bytes), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(data(&[0xab]), data(&[0xab, 0x00]));
    }

    #[test]
    fn verify_round_trip() {
        let mut buf = vec![0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11, 0, 0];
        let c = data(&buf);
        buf[10..12].copy_from_slice(&c.to_be_bytes());
        assert!(verify(&buf));
        buf[3] ^= 0x40;
        assert!(!verify(&buf));
    }

    #[test]
    fn pseudo_header_matches_manual_sum() {
        let mut a = Checksum::new();
        a.add_pseudo_header(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 6, 20);
        let mut b = Checksum::new();
        b.add(&[10, 0, 0, 1, 10, 0, 0, 2, 0, 6, 0, 20]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn zero_buffer_is_all_ones() {
        assert_eq!(data(&[0u8; 8]), 0xffff);
    }

    #[test]
    fn odd_final_slice_is_fine() {
        let mut c = Checksum::new();
        c.add(&[0x12, 0x34]);
        c.add(&[0x56]);
        let mut d = Checksum::new();
        d.add(&[0x12, 0x34, 0x56, 0x00]);
        assert_eq!(c.finish(), d.finish());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "odd-length slice")]
    fn odd_intermediate_slice_asserts_in_debug() {
        let mut c = Checksum::new();
        c.add(&[0xab]);
        c.add(&[0x01, 0x02]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "odd-length slice")]
    fn add_u16_after_odd_slice_asserts_in_debug() {
        let mut c = Checksum::new();
        c.add(&[0xab]);
        c.add_u16(0x0102);
    }
}
