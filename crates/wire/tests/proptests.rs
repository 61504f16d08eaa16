//! Property-based tests for the wire formats: emit∘parse identity and
//! no-panic on arbitrary bytes.

use std::net::Ipv4Addr;

use proptest::prelude::*;

use ixp_wire::dissect::Dissection;
use ixp_wire::ethernet::{self, EthernetAddress};
use ixp_wire::ip::Protocol;
use ixp_wire::{icmp, ipv4, tcp, udp, EtherType};

fn arb_ipv4_addr() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

proptest! {
    #[test]
    fn ethernet_repr_round_trips(src in any::<[u8; 6]>(), dst in any::<[u8; 6]>(), et in any::<u16>()) {
        let repr = ethernet::Repr {
            src_addr: EthernetAddress(src),
            dst_addr: EthernetAddress(dst),
            ethertype: EtherType::from(et),
        };
        let mut buf = [0u8; ethernet::HEADER_LEN];
        repr.emit(&mut ethernet::Frame::new_unchecked(&mut buf[..]));
        let parsed = ethernet::Repr::parse(&ethernet::Frame::new_checked(&buf[..]).unwrap()).unwrap();
        prop_assert_eq!(parsed, repr);
    }

    #[test]
    fn ipv4_repr_round_trips(
        src in arb_ipv4_addr(),
        dst in arb_ipv4_addr(),
        proto in any::<u8>(),
        payload_len in 0usize..1400,
        ttl in 1u8..=255,
    ) {
        let repr = ipv4::Repr { src_addr: src, dst_addr: dst, protocol: Protocol::from(proto), payload_len, ttl };
        let mut buf = vec![0u8; repr.total_len()];
        repr.emit(&mut ipv4::Packet::new_unchecked(&mut buf[..])).unwrap();
        let packet = ipv4::Packet::new_snippet(&buf[..]).unwrap();
        prop_assert!(packet.verify_checksum());
        prop_assert_eq!(ipv4::Repr::parse(&packet).unwrap(), repr);
    }

    #[test]
    fn tcp_repr_round_trips(
        src in arb_ipv4_addr(),
        dst in arb_ipv4_addr(),
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        raw_flags in 0u8..32,
        window in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let repr = tcp::Repr {
            src_port, dst_port, seq, ack,
            flags: tcp::Flags::from_bits(raw_flags),
            window,
        };
        let mut buf = vec![0u8; tcp::HEADER_LEN + payload.len()];
        buf[tcp::HEADER_LEN..].copy_from_slice(&payload);
        repr.emit(&mut tcp::Packet::new_unchecked(&mut buf[..]), src, dst).unwrap();
        let packet = tcp::Packet::new_snippet(&buf[..]).unwrap();
        prop_assert!(packet.verify_checksum(src, dst));
        prop_assert_eq!(tcp::Repr::parse(&packet).unwrap(), repr);
        prop_assert_eq!(packet.payload(), &payload[..]);
    }

    #[test]
    fn udp_repr_round_trips(
        src in arb_ipv4_addr(),
        dst in arb_ipv4_addr(),
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let repr = udp::Repr { src_port, dst_port, payload_len: payload.len() };
        let mut buf = vec![0u8; udp::HEADER_LEN + payload.len()];
        buf[udp::HEADER_LEN..].copy_from_slice(&payload);
        repr.emit(&mut udp::Packet::new_unchecked(&mut buf[..]), src, dst).unwrap();
        let packet = udp::Packet::new_snippet(&buf[..]).unwrap();
        prop_assert!(packet.verify_checksum(src, dst));
        prop_assert_eq!(udp::Repr::parse(&packet).unwrap(), repr);
    }

    #[test]
    fn icmp_echo_round_trips(ident in any::<u16>(), seq in any::<u16>()) {
        let mut buf = [0u8; icmp::HEADER_LEN];
        icmp::Packet::new_unchecked(&mut buf[..]).emit_echo(icmp::Message::EchoRequest, ident, seq);
        let packet = icmp::Packet::new_checked(&buf[..]).unwrap();
        prop_assert!(packet.verify_checksum());
        prop_assert_eq!(packet.ident(), ident);
        prop_assert_eq!(packet.seq(), seq);
    }

    /// The dissector must never panic on arbitrary garbage, and whatever it
    /// returns must be internally consistent.
    #[test]
    fn dissection_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..160)) {
        match Dissection::parse(&bytes) {
            Ok(d) => {
                let _ = d.payload();
            }
            Err(_) => prop_assert!(bytes.len() < ethernet::HEADER_LEN || bytes.len() < 14),
        }
    }

    /// The no-panic decoder contract, exercised the way the sampler does it:
    /// a *structurally plausible* frame (valid Ethernet + IPv4 + TCP start),
    /// corrupted at arbitrary positions and truncated to an arbitrary sFlow
    /// snippet length ≤ 128, must never panic the dissector — the deep
    /// header-length/claimed-length slicing paths all get hit this way.
    #[test]
    fn snippet_dissection_never_panics(
        src in arb_ipv4_addr(),
        dst in arb_ipv4_addr(),
        proto in any::<u8>(),
        payload_len in 0usize..200,
        cap in 0usize..=128,
        corrupt_at in any::<u32>(),
        corrupt_val in any::<u8>(),
    ) {
        let ip_repr = ipv4::Repr {
            src_addr: src, dst_addr: dst,
            protocol: Protocol::from(proto), payload_len, ttl: 64,
        };
        let mut frame = vec![0u8; ethernet::HEADER_LEN + ip_repr.total_len()];
        let eth_repr = ethernet::Repr {
            src_addr: EthernetAddress::from_member_id(1),
            dst_addr: EthernetAddress::from_member_id(2),
            ethertype: EtherType::Ipv4,
        };
        eth_repr.emit(&mut ethernet::Frame::new_unchecked(&mut frame[..]));
        ip_repr.emit(&mut ipv4::Packet::new_unchecked(
            &mut frame[ethernet::HEADER_LEN..],
        )).unwrap();
        // Corrupt one byte anywhere (including the IHL nibble and the
        // total-length field — the interesting slicing inputs).
        let idx = corrupt_at as usize % frame.len();
        frame[idx] ^= corrupt_val;
        let snippet = &frame[..cap.min(frame.len())];
        match Dissection::parse(snippet) {
            Ok(d) => {
                let _ = d.payload();
            }
            Err(_) => prop_assert!(snippet.len() < ethernet::HEADER_LEN),
        }
    }

    /// Flipping any single byte of a checksummed IPv4 header is detected
    /// (unless the flip is in the checksum-neutral padding, which a 20-byte
    /// option-less header does not have).
    #[test]
    fn ipv4_checksum_detects_single_byte_corruption(
        src in arb_ipv4_addr(),
        dst in arb_ipv4_addr(),
        idx in 0usize..ipv4::HEADER_LEN,
        flip in 1u8..=255,
    ) {
        let repr = ipv4::Repr {
            src_addr: src, dst_addr: dst,
            protocol: Protocol::Tcp, payload_len: 0, ttl: 64,
        };
        let mut buf = vec![0u8; repr.total_len()];
        repr.emit(&mut ipv4::Packet::new_unchecked(&mut buf[..])).unwrap();
        buf[idx] ^= flip;
        // The packet may now fail structural checks or the checksum — but it
        // must never verify as pristine *and* parse back to the same repr.
        if let Ok(packet) = ipv4::Packet::new_snippet(&buf[..]) {
            if packet.verify_checksum() {
                // Ones-complement sums have one ambiguity: 0x0000 vs 0xffff
                // words. A flip that lands there can preserve the sum; the
                // parsed repr must then still differ from the original.
                if let Ok(parsed) = ipv4::Repr::parse(&packet) {
                    prop_assert_ne!(parsed, repr);
                }
            }
        }
    }
}
