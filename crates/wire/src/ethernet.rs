//! Ethernet II framing.
//!
//! The IXP's public peering fabric is a layer-2 switching platform; every
//! sFlow sample starts with an Ethernet II header. Only untagged Ethernet II
//! is modelled (the study's IXP strips customer VLAN tags at the edge;
//! 802.1Q-tagged frames are classified as "other" by the filtering cascade).
#![allow(clippy::indexing_slicing, reason = "field accessors are guarded by the new_checked length validation; new_unchecked documents its panic contract")]

use core::fmt;

use crate::{Error, Result};

/// Length of the Ethernet II header: two MAC addresses plus the EtherType.
pub const HEADER_LEN: usize = 14;

/// A MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EthernetAddress(pub [u8; 6]);

impl EthernetAddress {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: EthernetAddress = EthernetAddress([0xff; 6]);

    /// True if this is a unicast address (I/G bit clear, non-zero).
    pub fn is_unicast(&self) -> bool {
        self.0[0] & 0x01 == 0 && self.0 != [0; 6]
    }

    /// True if the group bit is set (multicast or broadcast).
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// Derive a deterministic, locally administered unicast MAC from a
    /// 32-bit identifier — how the traffic generator mints router MACs for
    /// IXP member ports.
    pub fn from_member_id(id: u32) -> Self {
        let b = id.to_be_bytes();
        // 0x02 = locally administered, unicast.
        EthernetAddress([0x02, 0x1f, b[0], b[1], b[2], b[3]])
    }
}

impl fmt::Display for EthernetAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = &self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

/// The EtherType field.
///
/// The filtering cascade (paper Fig. 1) needs to tell IPv4 from native IPv6
/// from "everything else"; nothing finer is required.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// ARP (0x0806) — shows up as IXP-local housekeeping traffic.
    Arp,
    /// Native IPv6 (0x86dd) — ~0.4 % of the study's traffic.
    Ipv6,
    /// Anything else, preserved verbatim.
    Unknown(u16),
}

impl From<u16> for EtherType {
    fn from(raw: u16) -> Self {
        match raw {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            0x86dd => EtherType::Ipv6,
            other => EtherType::Unknown(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(value: EtherType) -> u16 {
        match value {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Ipv6 => 0x86dd,
            EtherType::Unknown(other) => other,
        }
    }
}

/// A read/write view over an Ethernet II frame.
#[derive(Debug, Clone)]
pub struct Frame<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Frame<T> {
    /// Wrap a buffer without checking its length.
    ///
    /// Accessors will panic on out-of-bounds access; prefer [`Frame::new_checked`].
    pub fn new_unchecked(buffer: T) -> Frame<T> {
        Frame { buffer }
    }

    /// Wrap a buffer, ensuring it can hold at least the Ethernet header.
    pub fn new_checked(buffer: T) -> Result<Frame<T>> {
        if buffer.as_ref().len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        Ok(Frame { buffer })
    }

    /// Consume the view, returning the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// Destination MAC.
    pub fn dst_addr(&self) -> EthernetAddress {
        let b = self.buffer.as_ref();
        EthernetAddress([b[0], b[1], b[2], b[3], b[4], b[5]])
    }

    /// Source MAC.
    pub fn src_addr(&self) -> EthernetAddress {
        let b = self.buffer.as_ref();
        EthernetAddress([b[6], b[7], b[8], b[9], b[10], b[11]])
    }

    /// EtherType.
    pub fn ethertype(&self) -> EtherType {
        let b = self.buffer.as_ref();
        EtherType::from(u16::from_be_bytes([b[12], b[13]]))
    }

    /// The L3 payload (whatever of it the buffer holds).
    pub fn payload(&self) -> &[u8] {
        &self.buffer.as_ref()[HEADER_LEN..]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Frame<T> {
    /// Set the destination MAC.
    pub fn set_dst_addr(&mut self, addr: EthernetAddress) {
        self.buffer.as_mut()[0..6].copy_from_slice(&addr.0);
    }

    /// Set the source MAC.
    pub fn set_src_addr(&mut self, addr: EthernetAddress) {
        self.buffer.as_mut()[6..12].copy_from_slice(&addr.0);
    }

    /// Set the EtherType.
    pub fn set_ethertype(&mut self, value: EtherType) {
        let raw: u16 = value.into();
        self.buffer.as_mut()[12..14].copy_from_slice(&raw.to_be_bytes());
    }

    /// Mutable access to the L3 payload.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buffer.as_mut()[HEADER_LEN..]
    }
}

/// Owned representation of an Ethernet II header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Source MAC address.
    pub src_addr: EthernetAddress,
    /// Destination MAC address.
    pub dst_addr: EthernetAddress,
    /// EtherType of the payload.
    pub ethertype: EtherType,
}

impl Repr {
    /// Parse a frame header into its owned representation.
    pub fn parse<T: AsRef<[u8]>>(frame: &Frame<T>) -> Result<Repr> {
        if frame.buffer.as_ref().len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        Ok(Repr {
            src_addr: frame.src_addr(),
            dst_addr: frame.dst_addr(),
            ethertype: frame.ethertype(),
        })
    }

    /// Number of bytes `emit` writes.
    pub const fn buffer_len(&self) -> usize {
        HEADER_LEN
    }

    /// Write this header into the start of the frame buffer.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, frame: &mut Frame<T>) {
        frame.set_dst_addr(self.dst_addr);
        frame.set_src_addr(self.src_addr);
        frame.set_ethertype(self.ethertype);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static FRAME_BYTES: [u8; 18] = [
        0x02, 0x1f, 0x00, 0x00, 0x00, 0x01, // dst
        0x02, 0x1f, 0x00, 0x00, 0x00, 0x02, // src
        0x08, 0x00, // ipv4
        0xaa, 0xbb, 0xcc, 0xdd, // payload
    ];

    #[test]
    fn parse_fields() {
        let frame = Frame::new_checked(&FRAME_BYTES[..]).unwrap();
        assert_eq!(frame.dst_addr(), EthernetAddress::from_member_id(1));
        assert_eq!(frame.src_addr(), EthernetAddress::from_member_id(2));
        assert_eq!(frame.ethertype(), EtherType::Ipv4);
        assert_eq!(frame.payload(), &[0xaa, 0xbb, 0xcc, 0xdd]);
    }

    #[test]
    fn truncated_header_is_error() {
        assert_eq!(Frame::new_checked(&FRAME_BYTES[..13]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn repr_round_trip() {
        let repr = Repr {
            src_addr: EthernetAddress([1, 2, 3, 4, 5, 6]),
            dst_addr: EthernetAddress([7, 8, 9, 10, 11, 12]),
            ethertype: EtherType::Ipv6,
        };
        let mut buf = [0u8; HEADER_LEN];
        let mut frame = Frame::new_unchecked(&mut buf[..]);
        repr.emit(&mut frame);
        let parsed = Repr::parse(&Frame::new_checked(&buf[..]).unwrap()).unwrap();
        assert_eq!(parsed, repr);
    }

    #[test]
    fn ethertype_raw_round_trip() {
        for raw in [0x0800u16, 0x0806, 0x86dd, 0x8100, 0x1234] {
            assert_eq!(u16::from(EtherType::from(raw)), raw);
        }
    }

    #[test]
    fn member_macs_are_unicast_and_distinct() {
        let a = EthernetAddress::from_member_id(443);
        let b = EthernetAddress::from_member_id(444);
        assert!(a.is_unicast() && b.is_unicast());
        assert_ne!(a, b);
        assert!(!a.is_multicast());
        assert!(EthernetAddress::BROADCAST.is_multicast());
    }
}
