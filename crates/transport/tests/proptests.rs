//! Property tests: the wire decoders and the intake must fail closed on
//! arbitrary, truncated, and bit-flipped bytes — no panics, no
//! over-reads, and exact conservation accounting on every path.

use std::net::Ipv4Addr;

use proptest::prelude::*;

use ixp_transport::flow::FlowRecord;
use ixp_transport::template::{TemplateCache, TemplateCacheConfig};
use ixp_transport::{ipfix, netflow5, netflow9, Drained, TransportConfig, TransportIntake};

fn arb_record() -> impl Strategy<Value = FlowRecord> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        any::<u8>(),
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(|(src, dst, src_port, dst_port, proto, packets, bytes)| FlowRecord {
            src: Ipv4Addr::from(src),
            dst: Ipv4Addr::from(dst),
            src_port,
            dst_port,
            proto,
            packets: u64::from(packets),
            bytes: u64::from(bytes),
        })
}

/// A well-formed packet of any of the three flow protocols, with or
/// without its template announcement.
fn arb_packet() -> impl Strategy<Value = Vec<u8>> {
    (
        0u8..3,
        any::<u32>(),
        any::<u32>(),
        any::<bool>(),
        proptest::collection::vec(arb_record(), 0..8),
    )
        .prop_map(|(proto, sequence, domain, announce, records)| {
            let fields = netflow9::encode::flow_template_fields();
            let template = if announce { Some(&fields[..]) } else { None };
            match proto {
                0 => netflow5::encode(&netflow5::V5Packet {
                    sequence,
                    engine: (0, 1),
                    sampling_interval: 1,
                    records: records.into_iter().take(30).collect(),
                }),
                1 => netflow9::encode::packet(sequence, domain, 260, template, &records),
                _ => ipfix::encode::packet(sequence, domain, 300, template, &records),
            }
        })
}

fn drained_flows(work: &[Drained]) -> usize {
    work.iter()
        .map(|d| match d {
            Drained::Flows { records, .. } => records.len(),
            Drained::Sflow { .. } => 0,
        })
        .sum()
}

proptest! {
    /// Arbitrary bytes through the full intake: never a panic, every
    /// packet lands in exactly one bucket.
    #[test]
    fn arbitrary_bytes_never_panic_and_always_account(
        packets in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..256), 0..64),
    ) {
        let mut intake = TransportIntake::new(TransportConfig::default());
        for (i, packet) in packets.iter().enumerate() {
            intake.offer(i as u64 % 4, packet);
            intake.drain(8);
            prop_assert!(intake.fully_accounted(), "{:?}", intake.stats());
        }
        let s = intake.finish();
        prop_assert!(intake.fully_accounted(), "{s:?}");
        prop_assert_eq!(s.offered, packets.len() as u64);
    }

    /// Every proper prefix of a well-formed packet decodes to an error
    /// or parks — never panics, never fabricates records beyond the cut.
    #[test]
    fn truncation_at_every_cut_fails_closed(packet in arb_packet()) {
        for cut in 0..packet.len() {
            let mut intake = TransportIntake::new(TransportConfig::default());
            intake.offer(1, &packet[..cut]);
            intake.drain(1);
            intake.finish();
            prop_assert!(intake.fully_accounted(), "cut {cut}: {:?}", intake.stats());
        }
    }

    /// A single bit flip anywhere in a well-formed packet is survivable:
    /// the intake accepts, rejects, or parks it — with exact accounting
    /// either way.
    #[test]
    fn bit_flips_never_panic(packet in arb_packet(), at in any::<u16>(), bit in 0u8..8) {
        let mut flipped = packet.clone();
        let i = usize::from(at) % flipped.len().max(1);
        if let Some(b) = flipped.get_mut(i) {
            *b ^= 1 << bit;
        }
        let mut intake = TransportIntake::new(TransportConfig::default());
        intake.offer(1, &flipped);
        intake.drain(1);
        let s = intake.finish();
        prop_assert!(intake.fully_accounted(), "{s:?}");
        prop_assert_eq!(s.received, 1);
    }

    /// Raw decoder calls on arbitrary bytes return a typed fault or a
    /// bounded outcome — no panics, no over-reads past the slice.
    #[test]
    fn raw_decoders_are_total(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = netflow5::decode(&bytes);
        let mut cache = TemplateCache::new(TemplateCacheConfig::default());
        let _ = netflow9::decode(&bytes, 1, &mut cache);
        let _ = ipfix::decode(&bytes, 1, &mut cache);
    }

    /// NetFlow v5 encode → decode round-trips the records exactly
    /// (zero-record v5 packets are rejected by design, so start at 1).
    #[test]
    fn v5_round_trips(
        sequence in any::<u32>(),
        records in proptest::collection::vec(arb_record(), 1..30),
    ) {
        let packet = netflow5::encode(&netflow5::V5Packet {
            sequence,
            engine: (3, 7),
            sampling_interval: 1,
            records: records.clone(),
        });
        let decoded = netflow5::decode(&packet).expect("own encoding must decode");
        prop_assert_eq!(decoded.sequence, sequence);
        prop_assert_eq!(decoded.records, records);
    }

    /// Templated encode → decode round-trips through a cold cache when
    /// the template is announced in-band, for both v9 and IPFIX.
    #[test]
    fn templated_round_trips(
        sequence in any::<u32>(),
        domain in any::<u32>(),
        is_ipfix in any::<bool>(),
        records in proptest::collection::vec(arb_record(), 0..12),
    ) {
        let fields = netflow9::encode::flow_template_fields();
        let packet = if is_ipfix {
            ipfix::encode::packet(sequence, domain, 300, Some(&fields), &records)
        } else {
            netflow9::encode::packet(sequence, domain, 260, Some(&fields), &records)
        };
        let mut intake = TransportIntake::new(TransportConfig::default());
        intake.offer(9, &packet);
        let work = intake.drain(1);
        prop_assert_eq!(drained_flows(&work), records.len());
        let s = intake.finish();
        prop_assert_eq!(s.accepted, 1);
        prop_assert_eq!(s.flows, records.len() as u64);
    }

    /// The state codec survives arbitrary damage: any byte-suffix
    /// replacement either restores an equivalent intake or fails with a
    /// typed error — never a panic.
    #[test]
    fn state_restore_is_total(
        packets in proptest::collection::vec(arb_packet(), 0..8),
        damage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut intake = TransportIntake::new(TransportConfig::default());
        for (i, packet) in packets.iter().enumerate() {
            intake.offer(i as u64, packet);
        }
        intake.drain(4); // leave a mix of inbox / parked / decoded state
        let mut blob = intake.save_state();
        let keep = blob.len().saturating_sub(damage.len());
        blob.truncate(keep);
        blob.extend_from_slice(&damage);
        let _ = TransportIntake::restore_from(&blob);
    }
}
