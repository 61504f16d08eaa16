//! TCP segment views and representation.
//!
//! The study's server identification keys off TCP ports (80, 8080, 443, 1935)
//! and the first bytes of payload; we model the option-less 20-byte header,
//! which is all the generator emits and all the dissector needs.
#![allow(
    clippy::indexing_slicing,
    reason = "field accessors are guarded by new_checked/new_snippet length validation; new_unchecked documents its panic contract"
)]

use std::net::Ipv4Addr;

use crate::checksum::Checksum;
use crate::ip::Protocol;
use crate::{Error, Result};

/// Length of the option-less TCP header.
pub const HEADER_LEN: usize = 20;

/// A tiny, dependency-free substitute for the `bitflags` crate, scoped to
/// this module's needs.
macro_rules! bitflags_lite {
    (
        $(#[$meta:meta])*
        pub struct $name:ident: $ty:ty {
            $( $(#[$fmeta:meta])* const $fname:ident = $fval:expr; )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
        pub struct $name($ty);

        impl $name {
            $( $(#[$fmeta])* pub const $fname: $name = $name($fval); )*

            /// The empty flag set.
            pub const fn empty() -> Self { $name(0) }

            /// Construct from the raw field value.
            pub const fn from_bits(bits: $ty) -> Self { $name(bits) }

            /// The raw field value.
            pub const fn bits(self) -> $ty { self.0 }

            /// True if every flag in `other` is set in `self`.
            pub const fn contains(self, other: $name) -> bool {
                self.0 & other.0 == other.0
            }
        }

        impl core::ops::BitOr for $name {
            type Output = $name;
            fn bitor(self, rhs: $name) -> $name { $name(self.0 | rhs.0) }
        }
    };
}

bitflags_lite! {
    /// TCP control flags (the subset the pipeline cares about).
    pub struct Flags: u8 {
        /// FIN.
        const FIN = 0x01;
        /// SYN.
        const SYN = 0x02;
        /// RST.
        const RST = 0x04;
        /// PSH.
        const PSH = 0x08;
        /// ACK.
        const ACK = 0x10;
    }
}

/// A read/write view over a TCP segment.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    /// Wrap a buffer, requiring at least the fixed header plus any options
    /// promised by the data-offset field.
    #[cfg(test)]
    pub(crate) fn new_checked(buffer: T) -> Result<Packet<T>> {
        let packet = Packet::new_unchecked(buffer);
        packet.check_len(false)?;
        Ok(packet)
    }

    /// Wrap an sFlow snippet: the fixed 20-byte header must be present, but
    /// options and payload may be cut off.
    pub fn new_snippet(buffer: T) -> Result<Packet<T>> {
        let packet = Packet::new_unchecked(buffer);
        packet.check_len(true)?;
        Ok(packet)
    }

    fn check_len(&self, allow_truncated: bool) -> Result<()> {
        let len = self.buffer.as_ref().len();
        if len < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let header_len = self.header_len() as usize;
        if header_len < HEADER_LEN {
            return Err(Error::Malformed);
        }
        if !allow_truncated && len < header_len {
            return Err(Error::Truncated);
        }
        Ok(())
    }

    /// Source port.
    pub(crate) fn src_port(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[0], b[1]])
    }

    /// Destination port.
    pub(crate) fn dst_port(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[2], b[3]])
    }

    /// Sequence number.
    pub(crate) fn seq_number(&self) -> u32 {
        let b = self.buffer.as_ref();
        u32::from_be_bytes([b[4], b[5], b[6], b[7]])
    }

    /// Acknowledgement number.
    pub(crate) fn ack_number(&self) -> u32 {
        let b = self.buffer.as_ref();
        u32::from_be_bytes([b[8], b[9], b[10], b[11]])
    }

    /// Header length in bytes (data offset × 4).
    #[allow(
        clippy::arithmetic_side_effects,
        reason = "the data-offset nibble times four is at most 60, which fits a u8"
    )]
    pub(crate) fn header_len(&self) -> u8 {
        (self.buffer.as_ref()[12] >> 4) * 4
    }

    /// Control flags.
    pub(crate) fn flags(&self) -> Flags {
        Flags::from_bits(self.buffer.as_ref()[13] & 0x1f)
    }

    /// Receive window.
    pub(crate) fn window(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[14], b[15]])
    }

    /// Payload bytes available in this buffer (possibly truncated).
    pub fn payload(&self) -> &[u8] {
        let b = self.buffer.as_ref();
        let start = (self.header_len() as usize).min(b.len());
        &b[start..]
    }

    /// Verify the checksum over the full segment (requires an untruncated
    /// buffer; snippets cannot be verified and should skip this).
    pub fn verify_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        let data = self.buffer.as_ref();
        let mut sum = Checksum::new();
        sum.add_pseudo_header(src, dst, Protocol::Tcp.into(), data.len() as u16);
        sum.add(data);
        sum.finish() == 0
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Set the source port.
    pub(crate) fn set_src_port(&mut self, v: u16) {
        self.buffer.as_mut()[0..2].copy_from_slice(&v.to_be_bytes());
    }

    /// Set the destination port.
    pub(crate) fn set_dst_port(&mut self, v: u16) {
        self.buffer.as_mut()[2..4].copy_from_slice(&v.to_be_bytes());
    }

    /// Set the sequence number.
    pub(crate) fn set_seq_number(&mut self, v: u32) {
        self.buffer.as_mut()[4..8].copy_from_slice(&v.to_be_bytes());
    }

    /// Set the acknowledgement number.
    pub(crate) fn set_ack_number(&mut self, v: u32) {
        self.buffer.as_mut()[8..12].copy_from_slice(&v.to_be_bytes());
    }

    /// Set the data offset (header length in bytes).
    #[allow(
        clippy::disallowed_macros,
        reason = "debug builds only: an emitter's own argument, never decoded input"
    )]
    pub(crate) fn set_header_len(&mut self, len: u8) {
        debug_assert!(len.is_multiple_of(4) && len >= 20);
        self.buffer.as_mut()[12] = (len / 4) << 4;
    }

    /// Set the control flags.
    pub(crate) fn set_flags(&mut self, flags: Flags) {
        self.buffer.as_mut()[13] = flags.bits();
    }

    /// Set the receive window.
    pub(crate) fn set_window(&mut self, v: u16) {
        self.buffer.as_mut()[14..16].copy_from_slice(&v.to_be_bytes());
    }

    /// Zero the urgent pointer (never used by the generator).
    pub(crate) fn clear_urgent(&mut self) {
        self.buffer.as_mut()[18..20].copy_from_slice(&[0, 0]);
    }

    /// Compute and store the checksum over the full segment.
    pub(crate) fn fill_checksum(&mut self, src: Ipv4Addr, dst: Ipv4Addr) {
        self.buffer.as_mut()[16..18].copy_from_slice(&[0, 0]);
        let data = self.buffer.as_ref();
        let mut sum = Checksum::new();
        sum.add_pseudo_header(src, dst, Protocol::Tcp.into(), data.len() as u16);
        sum.add(data);
        let value = sum.finish();
        self.buffer.as_mut()[16..18].copy_from_slice(&value.to_be_bytes());
    }
}

/// Owned representation of an option-less TCP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Control flags.
    pub flags: Flags,
    /// Receive window.
    pub window: u16,
}

impl Repr {
    /// Parse a segment view (full or snippet).
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Result<Repr> {
        packet.check_len(true)?;
        Ok(Repr {
            src_port: packet.src_port(),
            dst_port: packet.dst_port(),
            seq: packet.seq_number(),
            ack: packet.ack_number(),
            flags: packet.flags(),
            window: packet.window(),
        })
    }

    /// Emit header fields; the payload must already be in place after the
    /// header so the checksum covers it.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(
        &self,
        packet: &mut Packet<T>,
        src: Ipv4Addr,
        dst: Ipv4Addr,
    ) -> Result<()> {
        if packet.buffer.as_ref().len() < HEADER_LEN {
            return Err(Error::BufferTooSmall);
        }
        packet.set_src_port(self.src_port);
        packet.set_dst_port(self.dst_port);
        packet.set_seq_number(self.seq);
        packet.set_ack_number(self.ack);
        packet.set_header_len(HEADER_LEN as u8);
        packet.set_flags(self.flags);
        packet.set_window(self.window);
        packet.clear_urgent();
        packet.fill_checksum(src, dst);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 7);
    const DST: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 80);

    fn sample_repr() -> Repr {
        Repr {
            src_port: 49152,
            dst_port: 80,
            seq: 0x1234_5678,
            ack: 0x9abc_def0,
            flags: Flags::PSH | Flags::ACK,
            window: 65535,
        }
    }

    #[test]
    fn emit_parse_round_trip_with_payload() {
        let repr = sample_repr();
        let payload = b"GET / HTTP/1.1\r\nHost: example.com\r\n\r\n";
        let mut buf = vec![0u8; HEADER_LEN + payload.len()];
        buf[HEADER_LEN..].copy_from_slice(payload);
        let mut packet = Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut packet, SRC, DST).unwrap();

        let packet = Packet::new_checked(&buf[..]).unwrap();
        assert!(packet.verify_checksum(SRC, DST));
        assert_eq!(Repr::parse(&packet).unwrap(), repr);
        assert_eq!(packet.payload(), payload);
    }

    #[test]
    fn checksum_detects_payload_corruption() {
        let repr = sample_repr();
        let mut buf = [0u8; HEADER_LEN + 16];
        repr.emit(&mut Packet::new_unchecked(&mut buf[..]), SRC, DST).unwrap();
        buf[HEADER_LEN + 3] ^= 0xff;
        assert!(!Packet::new_checked(&buf[..]).unwrap().verify_checksum(SRC, DST));
    }

    #[test]
    fn flags_semantics() {
        let syn_ack = Flags::SYN | Flags::ACK;
        assert!(syn_ack.contains(Flags::SYN));
        assert!(syn_ack.contains(Flags::ACK));
        assert!(!syn_ack.contains(Flags::FIN));
        assert_eq!(syn_ack.bits(), 0x12);
    }

    #[test]
    fn truncated_header_is_error() {
        assert_eq!(Packet::new_checked(&[0u8; 12][..]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn snippet_allows_truncated_options() {
        // Header claims 32 bytes of header (options), but the buffer only has
        // the fixed 20 — acceptable in snippet mode.
        let mut buf = [0u8; HEADER_LEN];
        buf[12] = 8 << 4;
        assert!(Packet::new_checked(&buf[..]).is_err());
        assert!(Packet::new_snippet(&buf[..]).is_ok());
    }

    #[test]
    fn bad_data_offset_is_malformed() {
        let mut buf = [0u8; HEADER_LEN];
        buf[12] = 3 << 4; // 12-byte header is illegal
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Malformed);
    }
}
