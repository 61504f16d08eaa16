//! IPv4 packet views and representation.
//!
//! Two validity modes are provided, because the vantage point only ever sees
//! the first 128 bytes of a frame:
//!
//! * `Packet::new_checked` — strict: the buffer must contain the entire
//!   packet as promised by the total-length field (the unit tests' check of
//!   what *emitting* wrote).
//! * [`Packet::new_snippet`] — tolerant: the header must be intact and the
//!   total-length field must be *at least* plausible, but the payload may be
//!   truncated (used when *dissecting* sFlow samples).
#![allow(
    clippy::indexing_slicing,
    reason = "field accessors are guarded by new_checked/new_snippet length validation; new_unchecked documents its panic contract"
)]

use std::net::Ipv4Addr;

use crate::checksum;
use crate::ip::Protocol;
use crate::{Error, Result};

/// Minimum (and, without options, the only emitted) header length.
pub const HEADER_LEN: usize = 20;

/// A read/write view over an IPv4 packet.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    /// Wrap a buffer holding a complete IPv4 packet.
    #[cfg(test)]
    pub(crate) fn new_checked(buffer: T) -> Result<Packet<T>> {
        let packet = Packet::new_unchecked(buffer);
        packet.check_len(false)?;
        Ok(packet)
    }

    /// Wrap a buffer holding a possibly payload-truncated IPv4 packet, as
    /// produced by an sFlow sampler. The full header (including options)
    /// must still be present.
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
        if self.version() != 4 {
            return Err(Error::BadVersion);
        }
        let header_len = self.header_len() as usize;
        if header_len < HEADER_LEN {
            return Err(Error::Malformed);
        }
        if len < header_len {
            return Err(Error::Truncated);
        }
        let total_len = self.total_len() as usize;
        if total_len < header_len {
            return Err(Error::Malformed);
        }
        if !allow_truncated && len < total_len {
            return Err(Error::BadLength);
        }
        Ok(())
    }

    /// IP version field (must be 4).
    pub(crate) fn version(&self) -> u8 {
        self.buffer.as_ref()[0] >> 4
    }

    /// Header length in bytes (IHL × 4).
    #[allow(
        clippy::arithmetic_side_effects,
        reason = "the IHL nibble times four is at most 60, which fits a u8"
    )]
    pub(crate) fn header_len(&self) -> u8 {
        (self.buffer.as_ref()[0] & 0x0f) * 4
    }

    /// Total packet length (header + payload) as claimed by the header.
    pub(crate) fn total_len(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[2], b[3]])
    }

    /// True if the Don't Fragment flag is set.
    #[cfg(test)]
    pub(crate) fn dont_frag(&self) -> bool {
        self.buffer.as_ref()[6] & 0x40 != 0
    }

    /// Time to live.
    pub(crate) fn ttl(&self) -> u8 {
        self.buffer.as_ref()[8]
    }

    /// Transport protocol.
    pub(crate) fn protocol(&self) -> Protocol {
        Protocol::from(self.buffer.as_ref()[9])
    }

    /// Source address.
    pub(crate) fn src_addr(&self) -> Ipv4Addr {
        let b = self.buffer.as_ref();
        Ipv4Addr::new(b[12], b[13], b[14], b[15])
    }

    /// Destination address.
    pub(crate) fn dst_addr(&self) -> Ipv4Addr {
        let b = self.buffer.as_ref();
        Ipv4Addr::new(b[16], b[17], b[18], b[19])
    }

    /// Verify the header checksum.
    pub fn verify_checksum(&self) -> bool {
        let header_len = self.header_len() as usize;
        checksum::verify(&self.buffer.as_ref()[..header_len])
    }

    /// The transport payload available in this buffer. For a snippet this is
    /// shorter than `total_len - header_len`.
    #[cfg(test)]
    pub(crate) fn payload(&self) -> &[u8] {
        let b = self.buffer.as_ref();
        let start = (self.header_len() as usize).min(b.len());
        let end = (self.total_len() as usize).min(b.len());
        &b[start..end.max(start)]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Set version and IHL (header length in bytes; must be a multiple of 4).
    #[allow(
        clippy::disallowed_macros,
        reason = "debug builds only: an emitter's own argument, never decoded input"
    )]
    pub(crate) fn set_version_and_header_len(&mut self, header_len: u8) {
        debug_assert!(header_len.is_multiple_of(4) && header_len >= 20);
        self.buffer.as_mut()[0] = 0x40 | (header_len / 4);
    }

    /// Set the DSCP/ECN byte.
    pub(crate) fn set_dscp_ecn(&mut self, v: u8) {
        self.buffer.as_mut()[1] = v;
    }

    /// Set the total-length field.
    pub(crate) fn set_total_len(&mut self, v: u16) {
        self.buffer.as_mut()[2..4].copy_from_slice(&v.to_be_bytes());
    }

    /// Set the identification field.
    pub(crate) fn set_ident(&mut self, v: u16) {
        self.buffer.as_mut()[4..6].copy_from_slice(&v.to_be_bytes());
    }

    /// Clear flags/fragment-offset (we never emit fragments).
    pub(crate) fn set_no_fragment(&mut self, dont_frag: bool) {
        let flags: u16 = if dont_frag { 0x4000 } else { 0 };
        self.buffer.as_mut()[6..8].copy_from_slice(&flags.to_be_bytes());
    }

    /// Set the TTL.
    pub(crate) fn set_ttl(&mut self, v: u8) {
        self.buffer.as_mut()[8] = v;
    }

    /// Set the transport protocol.
    pub(crate) fn set_protocol(&mut self, v: Protocol) {
        self.buffer.as_mut()[9] = v.into();
    }

    /// Set the source address.
    pub(crate) fn set_src_addr(&mut self, v: Ipv4Addr) {
        self.buffer.as_mut()[12..16].copy_from_slice(&v.octets());
    }

    /// Set the destination address.
    pub(crate) fn set_dst_addr(&mut self, v: Ipv4Addr) {
        self.buffer.as_mut()[16..20].copy_from_slice(&v.octets());
    }

    /// Compute and store the header checksum.
    pub(crate) fn fill_checksum(&mut self) {
        self.buffer.as_mut()[10..12].copy_from_slice(&[0, 0]);
        let header_len = self.header_len() as usize;
        let sum = checksum::data(&self.buffer.as_ref()[..header_len]);
        self.buffer.as_mut()[10..12].copy_from_slice(&sum.to_be_bytes());
    }
}

/// Owned representation of an (option-less) IPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Source address.
    pub src_addr: Ipv4Addr,
    /// Destination address.
    pub dst_addr: Ipv4Addr,
    /// Transport protocol carried in the payload.
    pub protocol: Protocol,
    /// Length of the transport payload in bytes.
    pub payload_len: usize,
    /// Time to live.
    pub ttl: u8,
}

impl Repr {
    /// Parse a packet (full or snippet) into its representation.
    ///
    /// The reported `payload_len` is the one *claimed by the header* — for a
    /// snippet this exceeds the bytes actually available, which is exactly
    /// the quantity traffic accounting needs.
    #[allow(
        clippy::arithmetic_side_effects,
        reason = "check_len(true) has rejected a total length under the header length"
    )]
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Result<Repr> {
        packet.check_len(true)?;
        if !packet.verify_checksum() {
            return Err(Error::BadChecksum);
        }
        Ok(Repr {
            src_addr: packet.src_addr(),
            dst_addr: packet.dst_addr(),
            protocol: packet.protocol(),
            payload_len: packet.total_len() as usize - packet.header_len() as usize,
            ttl: packet.ttl(),
        })
    }

    /// Total length this header will claim.
    #[allow(
        clippy::arithmetic_side_effects,
        reason = "payload_len is a u16 total less its header when parsed, or the length of a payload held in memory when emitted"
    )]
    pub fn total_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Emit the header (with valid checksum) into the packet buffer.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) -> Result<()> {
        if packet.buffer.as_ref().len() < HEADER_LEN {
            return Err(Error::BufferTooSmall);
        }
        if self.total_len() > u16::MAX as usize {
            return Err(Error::BadLength);
        }
        packet.set_version_and_header_len(HEADER_LEN as u8);
        packet.set_dscp_ecn(0);
        packet.set_total_len(self.total_len() as u16);
        packet.set_ident(0);
        packet.set_no_fragment(true);
        packet.set_ttl(self.ttl);
        packet.set_protocol(self.protocol);
        packet.set_src_addr(self.src_addr);
        packet.set_dst_addr(self.dst_addr);
        packet.fill_checksum();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_repr() -> Repr {
        Repr {
            src_addr: Ipv4Addr::new(192, 0, 2, 1),
            dst_addr: Ipv4Addr::new(203, 0, 113, 9),
            protocol: Protocol::Tcp,
            payload_len: 40,
            ttl: 61,
        }
    }

    #[test]
    fn emit_parse_round_trip() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.total_len()];
        let mut packet = Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut packet).unwrap();
        let packet = Packet::new_checked(&buf[..]).unwrap();
        assert!(packet.verify_checksum());
        assert_eq!(Repr::parse(&packet).unwrap(), repr);
    }

    #[test]
    fn snippet_parse_reports_claimed_payload_len() {
        let repr = Repr { payload_len: 1400, ..sample_repr() };
        let mut buf = [0u8; 128];
        let mut packet = Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut packet).unwrap();
        // Full-packet validation must reject the truncation...
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::BadLength);
        // ...but snippet mode accepts it and reports the claimed length.
        let packet = Packet::new_snippet(&buf[..]).unwrap();
        let parsed = Repr::parse(&packet).unwrap();
        assert_eq!(parsed.payload_len, 1400);
        assert_eq!(packet.payload().len(), 128 - HEADER_LEN);
    }

    #[test]
    fn rejects_bad_version() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.total_len()];
        repr.emit(&mut Packet::new_unchecked(&mut buf[..])).unwrap();
        buf[0] = 0x65; // version 6
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::BadVersion);
    }

    #[test]
    fn rejects_corrupted_checksum() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.total_len()];
        repr.emit(&mut Packet::new_unchecked(&mut buf[..])).unwrap();
        buf[8] = buf[8].wrapping_add(1); // corrupt TTL
        let packet = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(Repr::parse(&packet).unwrap_err(), Error::BadChecksum);
    }

    #[test]
    fn rejects_short_header() {
        assert_eq!(Packet::new_checked(&[0x45u8; 10][..]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn rejects_bad_ihl() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.total_len()];
        repr.emit(&mut Packet::new_unchecked(&mut buf[..])).unwrap();
        buf[0] = 0x43; // IHL = 12 bytes < 20
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn dont_fragment_flag() {
        let repr = sample_repr();
        let mut buf = vec![0u8; repr.total_len()];
        repr.emit(&mut Packet::new_unchecked(&mut buf[..])).unwrap();
        let packet = Packet::new_checked(&buf[..]).unwrap();
        assert!(packet.dont_frag());
    }
}
