//! UDP datagram views and representation.
#![allow(clippy::indexing_slicing, reason = "field accessors are guarded by new_checked/new_snippet length validation; new_unchecked documents its panic contract")]

use std::net::Ipv4Addr;

use crate::checksum::Checksum;
use crate::ip::Protocol;
use crate::{Error, Result};

/// Length of the UDP header.
pub const HEADER_LEN: usize = 8;

/// A read/write view over a UDP datagram.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    /// Wrap a buffer holding a complete datagram.
    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        let packet = Packet::new_unchecked(buffer);
        packet.check_len(false)?;
        Ok(packet)
    }

    /// Wrap a possibly payload-truncated sFlow snippet.
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
        let claimed = self.len() as usize;
        if claimed < HEADER_LEN {
            return Err(Error::Malformed);
        }
        if !allow_truncated && len < claimed {
            return Err(Error::BadLength);
        }
        Ok(())
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[0], b[1]])
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[2], b[3]])
    }

    /// Length field (header + payload).
    pub fn len(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[4], b[5]])
    }

    /// True when the length field claims an empty payload.
    pub fn is_empty(&self) -> bool {
        self.len() as usize == HEADER_LEN
    }

    /// Checksum field.
    pub fn checksum(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[6], b[7]])
    }

    /// Payload bytes available in this buffer.
    pub fn payload(&self) -> &[u8] {
        let b = self.buffer.as_ref();
        let end = (self.len() as usize).min(b.len());
        &b[HEADER_LEN.min(end)..end]
    }

    /// Verify the checksum (untruncated buffers only; a zero checksum means
    /// "not computed" and verifies trivially, per RFC 768).
    pub fn verify_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        if self.checksum() == 0 {
            return true;
        }
        let data = self.buffer.as_ref();
        let mut sum = Checksum::new();
        sum.add_pseudo_header(src, dst, Protocol::Udp.into(), data.len() as u16);
        sum.add(data);
        sum.finish() == 0
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Set the source port.
    pub fn set_src_port(&mut self, v: u16) {
        self.buffer.as_mut()[0..2].copy_from_slice(&v.to_be_bytes());
    }

    /// Set the destination port.
    pub fn set_dst_port(&mut self, v: u16) {
        self.buffer.as_mut()[2..4].copy_from_slice(&v.to_be_bytes());
    }

    /// Set the length field.
    pub fn set_len(&mut self, v: u16) {
        self.buffer.as_mut()[4..6].copy_from_slice(&v.to_be_bytes());
    }

    /// Mutable payload access.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let end = (self.len() as usize).min(self.buffer.as_ref().len());
        &mut self.buffer.as_mut()[HEADER_LEN.min(end)..end]
    }

    /// Compute and store the checksum over the full datagram.
    pub fn fill_checksum(&mut self, src: Ipv4Addr, dst: Ipv4Addr) {
        self.buffer.as_mut()[6..8].copy_from_slice(&[0, 0]);
        let data = self.buffer.as_ref();
        let mut sum = Checksum::new();
        sum.add_pseudo_header(src, dst, Protocol::Udp.into(), data.len() as u16);
        sum.add(data);
        let mut value = sum.finish();
        if value == 0 {
            value = 0xffff; // RFC 768: transmitted as all ones
        }
        self.buffer.as_mut()[6..8].copy_from_slice(&value.to_be_bytes());
    }
}

/// Owned representation of a UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload length in bytes (as claimed by the length field).
    pub payload_len: usize,
}

impl Repr {
    /// Parse a datagram view (full or snippet).
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Result<Repr> {
        packet.check_len(true)?;
        Ok(Repr {
            src_port: packet.src_port(),
            dst_port: packet.dst_port(),
            payload_len: packet.len() as usize - HEADER_LEN,
        })
    }

    /// Number of header bytes `emit` writes.
    pub const fn buffer_len(&self) -> usize {
        HEADER_LEN
    }

    /// Emit header fields; the payload must already be in place.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(
        &self,
        packet: &mut Packet<T>,
        src: Ipv4Addr,
        dst: Ipv4Addr,
    ) -> Result<()> {
        if packet.buffer.as_ref().len() < HEADER_LEN {
            return Err(Error::BufferTooSmall);
        }
        let total = HEADER_LEN + self.payload_len;
        if total > u16::MAX as usize {
            return Err(Error::BadLength);
        }
        packet.set_src_port(self.src_port);
        packet.set_dst_port(self.dst_port);
        packet.set_len(total as u16);
        packet.fill_checksum(src, dst);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 1, 2, 3);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 9, 8, 7);

    #[test]
    fn emit_parse_round_trip() {
        let repr = Repr { src_port: 53124, dst_port: 53, payload_len: 24 };
        let mut buf = [0u8; HEADER_LEN + 24];
        buf[HEADER_LEN..].fill(0x5a);
        repr.emit(&mut Packet::new_unchecked(&mut buf[..]), SRC, DST).unwrap();
        let packet = Packet::new_checked(&buf[..]).unwrap();
        assert!(packet.verify_checksum(SRC, DST));
        assert_eq!(Repr::parse(&packet).unwrap(), repr);
        assert_eq!(packet.payload().len(), 24);
    }

    #[test]
    fn zero_checksum_verifies() {
        let repr = Repr { src_port: 1, dst_port: 2, payload_len: 4 };
        let mut buf = [0u8; HEADER_LEN + 4];
        repr.emit(&mut Packet::new_unchecked(&mut buf[..]), SRC, DST).unwrap();
        buf[6..8].copy_from_slice(&[0, 0]);
        assert!(Packet::new_checked(&buf[..]).unwrap().verify_checksum(SRC, DST));
    }

    #[test]
    fn snippet_mode_tolerates_truncation() {
        let repr = Repr { src_port: 1000, dst_port: 443, payload_len: 500 };
        let mut buf = [0u8; 128];
        repr.emit(&mut Packet::new_unchecked(&mut buf[..]), SRC, DST).unwrap();
        assert!(Packet::new_checked(&buf[..]).is_err());
        let snippet = Packet::new_snippet(&buf[..]).unwrap();
        assert_eq!(Repr::parse(&snippet).unwrap().payload_len, 500);
        assert_eq!(snippet.payload().len(), 128 - HEADER_LEN);
    }

    #[test]
    fn malformed_length_rejected() {
        let mut buf = [0u8; HEADER_LEN];
        buf[4..6].copy_from_slice(&4u16.to_be_bytes()); // < 8
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn short_buffer_rejected() {
        assert_eq!(Packet::new_checked(&[0u8; 4][..]).unwrap_err(), Error::Truncated);
    }
}
