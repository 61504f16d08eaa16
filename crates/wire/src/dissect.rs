//! One-shot dissection of a 128-byte sFlow frame snippet.
//!
//! This is the workhorse the analysis pipeline calls once per sample: it
//! peels Ethernet → IPv4 → TCP/UDP/ICMP and hands back the borrowed payload
//! slice that the HTTP string matcher then scans. Anything that is not
//! complete enough to classify is reported as such rather than erroring the
//! stream — the paper's filtering cascade *counts* the weird stuff (native
//! IPv6, ARP, malformed frames), it does not crash on it.

use crate::ethernet::{self, EtherType, EthernetAddress};
use crate::icmp;
use crate::ip::Protocol;
use crate::ipv4;
use crate::tcp;
use crate::udp;
use crate::{Error, Result};

/// The transport-layer outcome of dissecting an IPv4 snippet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// A TCP segment; `payload_offset` indexes into the frame buffer.
    Tcp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Control flags.
        flags: tcp::Flags,
    },
    /// A UDP datagram.
    Udp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
    },
    /// An ICMP message.
    Icmp,
    /// Some other transport protocol (GRE, ESP, ...).
    Other(Protocol),
    /// The transport header did not fit in the snippet.
    Truncated(Protocol),
}

/// The layer-3 outcome of dissecting a frame snippet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Network<'a> {
    /// An IPv4 packet with its parsed header and transport outcome.
    Ipv4 {
        /// The parsed IPv4 header.
        repr: ipv4::Repr,
        /// Transport-layer dissection outcome.
        transport: Transport,
        /// Transport payload bytes available in the snippet.
        payload: &'a [u8],
    },
    /// A native IPv6 packet (not dissected further; the study's IXP carried
    /// ~0.4 % IPv6, which the cascade removes first).
    Ipv6,
    /// An ARP frame (IXP-local housekeeping).
    Arp,
    /// Any other EtherType.
    OtherEtherType(u16),
    /// The frame claimed IPv4 but the IPv4 layer was unparseable.
    MalformedIpv4(Error),
}

/// A fully dissected frame snippet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dissection<'a> {
    /// Source MAC (identifies the sending IXP member port).
    pub src_mac: EthernetAddress,
    /// Destination MAC (identifies the receiving IXP member port).
    pub dst_mac: EthernetAddress,
    /// Layer-3 outcome.
    pub network: Network<'a>,
}

impl<'a> Dissection<'a> {
    /// Dissect a frame snippet (the first ≤128 bytes of a sampled frame).
    ///
    /// Returns `Err` only if the buffer cannot even hold an Ethernet header;
    /// every higher-layer oddity is encoded in [`Network`].
    pub fn parse(snippet: &'a [u8]) -> Result<Dissection<'a>> {
        let frame = ethernet::Frame::new_checked(snippet)?;
        let src_mac = frame.src_addr();
        let dst_mac = frame.dst_addr();
        let network = match frame.ethertype() {
            EtherType::Ipv4 => dissect_ipv4(snippet.get(ethernet::HEADER_LEN..).unwrap_or(&[])),
            EtherType::Ipv6 => Network::Ipv6,
            EtherType::Arp => Network::Arp,
            EtherType::Unknown(raw) => Network::OtherEtherType(raw),
        };
        Ok(Dissection { src_mac, dst_mac, network })
    }

    /// The transport payload bytes, if any.
    pub fn payload(&self) -> &'a [u8] {
        match &self.network {
            Network::Ipv4 { payload, .. } => payload,
            _ => &[],
        }
    }
}

fn dissect_ipv4(l3: &[u8]) -> Network<'_> {
    let repr = match ipv4::Packet::new_snippet(l3).and_then(|p| ipv4::Repr::parse(&p)) {
        Ok(r) => r,
        Err(e) => return Network::MalformedIpv4(e),
    };
    // Re-slice from `l3` directly so the payload borrows the input buffer,
    // not the temporary packet view.
    #[allow(clippy::arithmetic_side_effects, reason = "the IHL nibble times four is at most 60")]
    let header_len = ((l3.first().copied().unwrap_or(0) & 0x0f) as usize) * 4;
    #[allow(
        clippy::arithmetic_side_effects,
        reason = "Repr::parse accepted these bytes, so check_len saw header_len >= ipv4::HEADER_LEN, and payload_len is at most u16::MAX"
    )]
    let claimed_end =
        (ipv4::HEADER_LEN + repr.payload_len + (header_len - ipv4::HEADER_LEN)).min(l3.len());
    let l4 = l3.get(header_len.min(claimed_end)..claimed_end).unwrap_or(&[]);
    let transport = match repr.protocol {
        Protocol::Tcp => match tcp::Packet::new_snippet(l4) {
            Ok(seg) => Transport::Tcp {
                src_port: seg.src_port(),
                dst_port: seg.dst_port(),
                flags: seg.flags(),
            },
            Err(_) => Transport::Truncated(Protocol::Tcp),
        },
        Protocol::Udp => match udp::Packet::new_snippet(l4) {
            Ok(dgram) => Transport::Udp { src_port: dgram.src_port(), dst_port: dgram.dst_port() },
            Err(_) => Transport::Truncated(Protocol::Udp),
        },
        Protocol::Icmp => {
            if icmp::Packet::new_checked(l4).is_ok() {
                Transport::Icmp
            } else {
                Transport::Truncated(Protocol::Icmp)
            }
        }
        other => Transport::Other(other),
    };
    // Compute the payload slice after the transport header.
    let payload: &[u8] = match repr.protocol {
        Protocol::Tcp => match tcp::Packet::new_snippet(l4) {
            Ok(_) => {
                #[allow(
                    clippy::arithmetic_side_effects,
                    reason = "the data-offset nibble times four is at most 60"
                )]
                let hl = (l4.get(12).copied().unwrap_or(0) >> 4) as usize * 4;
                l4.get(hl..).unwrap_or(&[])
            }
            Err(_) => &[],
        },
        Protocol::Udp => l4.get(udp::HEADER_LEN..).unwrap_or(&[]),
        _ => &[],
    };
    Network::Ipv4 { repr, transport, payload }
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use super::*;
    use crate::tcp::Flags;

    /// Build a full frame: Ethernet + IPv4 + TCP + payload, then truncate to
    /// `cap` bytes like an sFlow sampler would.
    fn build_tcp_frame(payload: &[u8], cap: usize) -> Vec<u8> {
        let src_ip = Ipv4Addr::new(198, 51, 100, 1);
        let dst_ip = Ipv4Addr::new(192, 0, 2, 2);
        let tcp_len = tcp::HEADER_LEN + payload.len();
        let total = ethernet::HEADER_LEN + ipv4::HEADER_LEN + tcp_len;
        let mut buf = vec![0u8; total];

        let eth_repr = ethernet::Repr {
            src_addr: EthernetAddress::from_member_id(1),
            dst_addr: EthernetAddress::from_member_id(2),
            ethertype: EtherType::Ipv4,
        };
        let mut frame = ethernet::Frame::new_unchecked(&mut buf[..]);
        eth_repr.emit(&mut frame);

        let ip_repr = ipv4::Repr {
            src_addr: src_ip,
            dst_addr: dst_ip,
            protocol: Protocol::Tcp,
            payload_len: tcp_len,
            ttl: 62,
        };
        let l3 = &mut buf[ethernet::HEADER_LEN..];
        ip_repr.emit(&mut ipv4::Packet::new_unchecked(&mut l3[..])).unwrap();

        let l4 = &mut buf[ethernet::HEADER_LEN + ipv4::HEADER_LEN..];
        l4[tcp::HEADER_LEN..].copy_from_slice(payload);
        let tcp_repr = tcp::Repr {
            src_port: 51000,
            dst_port: 80,
            seq: 1,
            ack: 1,
            flags: Flags::PSH | Flags::ACK,
            window: 64000,
        };
        tcp_repr.emit(&mut tcp::Packet::new_unchecked(&mut l4[..]), src_ip, dst_ip).unwrap();

        buf.truncate(cap.min(total));
        buf
    }

    #[test]
    fn dissects_full_tcp_frame() {
        let frame = build_tcp_frame(b"GET /index.html HTTP/1.1\r\nHost: example.org\r\n\r\n", 4096);
        let d = Dissection::parse(&frame).unwrap();
        match &d.network {
            Network::Ipv4 { repr, transport: Transport::Tcp { dst_port, .. }, .. } => {
                assert_eq!(*dst_port, 80);
                assert_eq!(repr.protocol, Protocol::Tcp);
            }
            other => panic!("unexpected dissection: {other:?}"),
        }
        assert!(d.payload().starts_with(b"GET /index.html"));
    }

    #[test]
    fn dissects_sflow_truncated_frame() {
        let long_payload = vec![b'x'; 1000];
        let frame = build_tcp_frame(&long_payload, 128);
        assert_eq!(frame.len(), 128);
        let d = Dissection::parse(&frame).unwrap();
        match &d.network {
            Network::Ipv4 { repr, transport: Transport::Tcp { dst_port, .. }, payload } => {
                assert_eq!(*dst_port, 80);
                // 128 - 14 (eth) - 20 (ip) - 20 (tcp) = 74 bytes of payload,
                // matching the paper's "74 bytes of TCP payload".
                assert_eq!(payload.len(), 74);
                // The IPv4 total length still claims the full TCP segment.
                assert_eq!(repr.payload_len, 20 + 1000);
            }
            other => panic!("unexpected dissection: {other:?}"),
        }
    }

    #[test]
    fn ipv6_frames_are_flagged_not_parsed() {
        let mut frame = build_tcp_frame(b"", 4096);
        frame[12..14].copy_from_slice(&0x86ddu16.to_be_bytes());
        let d = Dissection::parse(&frame).unwrap();
        assert_eq!(d.network, Network::Ipv6);
        assert!(d.payload().is_empty());
    }

    #[test]
    fn corrupt_ipv4_is_malformed_not_panic() {
        let mut frame = build_tcp_frame(b"hello", 4096);
        frame[ethernet::HEADER_LEN] = 0x43; // bad IHL
        let d = Dissection::parse(&frame).unwrap();
        assert!(matches!(d.network, Network::MalformedIpv4(_)));
    }

    #[test]
    fn too_short_for_ethernet_is_error() {
        assert!(Dissection::parse(&[0u8; 8]).is_err());
    }

    #[test]
    fn udp_payload_snippet_is_86_bytes() {
        // Build Ethernet + IPv4 + UDP with a big payload, cap at 128:
        // 128 - 14 - 20 - 8 = 86, the paper's UDP payload figure.
        let src_ip = Ipv4Addr::new(203, 0, 113, 5);
        let dst_ip = Ipv4Addr::new(203, 0, 113, 6);
        let udp_len = udp::HEADER_LEN + 900;
        let total = ethernet::HEADER_LEN + ipv4::HEADER_LEN + udp_len;
        let mut buf = vec![0u8; total];
        ethernet::Repr {
            src_addr: EthernetAddress::from_member_id(3),
            dst_addr: EthernetAddress::from_member_id(4),
            ethertype: EtherType::Ipv4,
        }
        .emit(&mut ethernet::Frame::new_unchecked(&mut buf[..]));
        ipv4::Repr {
            src_addr: src_ip,
            dst_addr: dst_ip,
            protocol: Protocol::Udp,
            payload_len: udp_len,
            ttl: 60,
        }
        .emit(&mut ipv4::Packet::new_unchecked(&mut buf[ethernet::HEADER_LEN..]))
        .unwrap();
        udp::Repr { src_port: 40000, dst_port: 1935, payload_len: 900 }
            .emit(
                &mut udp::Packet::new_unchecked(
                    &mut buf[ethernet::HEADER_LEN + ipv4::HEADER_LEN..],
                ),
                src_ip,
                dst_ip,
            )
            .unwrap();
        buf.truncate(128);
        let d = Dissection::parse(&buf).unwrap();
        assert_eq!(d.payload().len(), 86);
        assert!(matches!(
            d.network,
            Network::Ipv4 { transport: Transport::Udp { dst_port: 1935, .. }, .. }
        ));
    }
}
