//! Minimal ICMPv4 support.
//!
//! ICMP only matters to the pipeline as something to *discard*: the filtering
//! cascade (paper §2.2.1, Fig. 1) removes member-to-member IPv4 traffic that
//! is neither TCP nor UDP, and ICMP is the dominant representative of that
//! sliver. The generator still emits well-formed echoes so that the dissector
//! is exercised on real bytes.
#![allow(
    clippy::indexing_slicing,
    reason = "field accessors are guarded by new_checked/new_snippet length validation; new_unchecked documents its panic contract"
)]

use crate::checksum;
use crate::{Error, Result};

/// Length of the ICMP echo header.
pub const HEADER_LEN: usize = 8;

/// ICMP message type (the two the generator emits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Message {
    /// Echo reply (type 0).
    EchoReply,
    /// Echo request (type 8).
    EchoRequest,
    /// Anything else.
    Unknown(u8),
}

impl From<u8> for Message {
    fn from(raw: u8) -> Self {
        match raw {
            0 => Message::EchoReply,
            8 => Message::EchoRequest,
            other => Message::Unknown(other),
        }
    }
}

impl From<Message> for u8 {
    fn from(value: Message) -> u8 {
        match value {
            Message::EchoReply => 0,
            Message::EchoRequest => 8,
            Message::Unknown(other) => other,
        }
    }
}

/// A read/write view over an ICMP echo message.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    /// Wrap a buffer holding at least the echo header.
    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        if buffer.as_ref().len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        Ok(Packet { buffer })
    }

    /// Message type.
    #[cfg(test)]
    pub(crate) fn message(&self) -> Message {
        Message::from(self.buffer.as_ref()[0])
    }

    /// Echo identifier.
    pub fn ident(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[4], b[5]])
    }

    /// Echo sequence number.
    pub fn seq(&self) -> u16 {
        let b = self.buffer.as_ref();
        u16::from_be_bytes([b[6], b[7]])
    }

    /// Verify the message checksum (untruncated buffers only).
    pub fn verify_checksum(&self) -> bool {
        checksum::verify(self.buffer.as_ref())
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Fill in an echo message and its checksum.
    pub fn emit_echo(&mut self, message: Message, ident: u16, seq: u16) {
        let b = self.buffer.as_mut();
        b[0] = message.into();
        b[1] = 0;
        b[2..4].copy_from_slice(&[0, 0]);
        b[4..6].copy_from_slice(&ident.to_be_bytes());
        b[6..8].copy_from_slice(&seq.to_be_bytes());
        let sum = checksum::data(self.buffer.as_ref());
        self.buffer.as_mut()[2..4].copy_from_slice(&sum.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_round_trip() {
        let mut buf = [0u8; HEADER_LEN + 8];
        let mut packet = Packet::new_unchecked(&mut buf[..]);
        packet.emit_echo(Message::EchoRequest, 0xbeef, 7);
        let packet = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(packet.message(), Message::EchoRequest);
        assert_eq!(packet.ident(), 0xbeef);
        assert_eq!(packet.seq(), 7);
        assert!(packet.verify_checksum());
    }

    #[test]
    fn corrupted_checksum_detected() {
        let mut buf = [0u8; HEADER_LEN];
        Packet::new_unchecked(&mut buf[..]).emit_echo(Message::EchoReply, 1, 2);
        buf[5] ^= 1;
        assert!(!Packet::new_checked(&buf[..]).unwrap().verify_checksum());
    }

    #[test]
    fn truncated_is_error() {
        assert_eq!(Packet::new_checked(&[0u8; 4][..]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn message_round_trip() {
        for raw in [0u8, 8, 3, 11] {
            assert_eq!(u8::from(Message::from(raw)), raw);
        }
    }
}
