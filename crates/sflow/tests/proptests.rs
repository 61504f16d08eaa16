//! Property tests: datagram round-trip, decoder robustness, and collector
//! sequence accounting.

use std::net::Ipv4Addr;

use proptest::prelude::*;

use ixp_sflow::{
    Collector, CounterSample, Datagram, DatagramView, FlowSample, Ingest, RawPacketHeader, SampleView,
    HEADER_PROTO_ETHERNET,
};

fn arb_sample() -> impl Strategy<Value = FlowSample> {
    (
        any::<u32>(),
        any::<u32>(),
        1u32..1_000_000,
        any::<u32>(),
        0u32..10,
        any::<u32>(),
        any::<u32>(),
        proptest::collection::vec(any::<u8>(), 0..=128),
        14u32..9_000,
    )
        .prop_map(
            |(sequence, source_id, sampling_rate, sample_pool, drops, input_if, output_if, header, frame_length)| {
                FlowSample {
                    sequence,
                    source_id,
                    sampling_rate,
                    sample_pool,
                    drops,
                    input_if,
                    output_if,
                    record: RawPacketHeader {
                        protocol: HEADER_PROTO_ETHERNET,
                        frame_length,
                        stripped: 0,
                        header,
                    },
                }
            },
        )
}

fn arb_datagram() -> impl Strategy<Value = Datagram> {
    (
        any::<u32>().prop_map(Ipv4Addr::from),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        proptest::collection::vec(arb_sample(), 0..12),
    )
        .prop_map(|(agent_address, sub_agent_id, sequence, uptime_ms, samples)| Datagram {
            agent_address,
            sub_agent_id,
            sequence,
            uptime_ms,
            samples,
            counters: vec![],
        })
}

fn arb_counter() -> impl Strategy<Value = CounterSample> {
    (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>(), any::<u32>(), any::<u64>(), any::<u32>())
        .prop_map(
            |(sequence, source_id, if_speed, if_in_octets, if_in_ucast, if_out_octets, if_out_ucast)| {
                CounterSample {
                    sequence,
                    source_id,
                    if_index: source_id,
                    if_speed,
                    if_in_octets,
                    if_in_ucast,
                    if_out_octets,
                    if_out_ucast,
                }
            },
        )
}

fn arb_datagram_with_counters() -> impl Strategy<Value = Datagram> {
    (arb_datagram(), proptest::collection::vec(arb_counter(), 0..4))
        .prop_map(|(dg, counters)| Datagram { counters, ..dg })
}

/// The borrowed decoder and the owned one must tell the same story about
/// `bytes`: the same error, or the same header, samples and counters.
fn assert_view_matches_owned(bytes: &[u8]) -> Result<(), TestCaseError> {
    let view = match (DatagramView::decode(bytes), Datagram::decode(bytes)) {
        (Err(a), Err(b)) => {
            prop_assert_eq!(a, b);
            return Ok(());
        }
        (Ok(view), Ok(owned)) => {
            prop_assert_eq!(view.to_owned(), owned);
            view
        }
        (view, owned) => {
            prop_assert!(false, "view {:?} but owned {:?}", view.map(drop), owned.map(drop));
            return Ok(());
        }
    };
    let owned = view.to_owned();
    prop_assert_eq!(view.agent_address, owned.agent_address);
    prop_assert_eq!(view.sub_agent_id, owned.sub_agent_id);
    prop_assert_eq!(view.sequence, owned.sequence);
    prop_assert_eq!(view.uptime_ms, owned.uptime_ms);
    let flows: Vec<FlowSample> = view.flow_samples().map(|s| s.to_owned()).collect();
    prop_assert_eq!(&flows, &owned.samples);
    let counters: Vec<CounterSample> = view.counters().collect();
    prop_assert_eq!(&counters, &owned.counters);
    // The mixed walk yields the same samples, interleaved in wire order.
    let mut mixed_flows = Vec::new();
    let mut mixed_counters = Vec::new();
    for sample in view.samples() {
        match sample {
            SampleView::Flow(s) => mixed_flows.push(s.to_owned()),
            SampleView::Counters(c) => mixed_counters.push(c),
            SampleView::Unknown => {}
        }
    }
    prop_assert_eq!(mixed_flows, flows);
    prop_assert_eq!(mixed_counters, counters);
    Ok(())
}

proptest! {
    /// The view decoder round-trips what the encoder wrote, counters
    /// included, and agrees with the owned decoder on it.
    #[test]
    fn view_round_trips_and_matches_owned(dg in arb_datagram_with_counters()) {
        let bytes = dg.encode();
        prop_assert_eq!(DatagramView::decode(&bytes).map(|v| v.to_owned()), Ok(dg));
        assert_view_matches_owned(&bytes)?;
    }

    #[test]
    fn view_matches_owned_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        assert_view_matches_owned(&bytes)?;
    }

    #[test]
    fn view_matches_owned_on_truncated_and_bit_flipped_datagrams(
        dg in arb_datagram_with_counters(),
        cut in any::<proptest::sample::Index>(),
        idx in any::<proptest::sample::Index>(),
        bit in 0u32..8,
    ) {
        let mut bytes = dg.encode();
        assert_view_matches_owned(&bytes[..cut.index(bytes.len() + 1)])?;
        let i = idx.index(bytes.len());
        bytes[i] ^= 1 << bit;
        assert_view_matches_owned(&bytes)?;
    }
}

proptest! {
    #[test]
    fn datagram_round_trips(dg in arb_datagram()) {
        let bytes = dg.encode();
        prop_assert_eq!(bytes.len() % 4, 0);
        let decoded = Datagram::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, dg);
    }

    /// The decoder must not panic on arbitrary input.
    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = Datagram::decode(&bytes);
    }

    /// Corrupting one byte of a valid datagram must not panic and, if it
    /// still decodes, must stay within the original sample count.
    #[test]
    fn decoder_handles_corruption(dg in arb_datagram(), idx in any::<proptest::sample::Index>(), flip in 1u8..=255) {
        let mut bytes = dg.encode();
        if bytes.is_empty() { return Ok(()); }
        let i = idx.index(bytes.len());
        bytes[i] ^= flip;
        let _ = Datagram::decode(&bytes);
    }

    /// The collector must never panic on adversarial input — arbitrary
    /// byte blobs interleaved with valid, corrupted, and truncated
    /// datagrams — and its accounting invariant must always hold:
    /// every ingested buffer is accepted, a duplicate, or a counted error.
    #[test]
    fn collector_never_panics_and_never_loses_count(
        dgs in proptest::collection::vec(arb_datagram(), 0..20),
        blobs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..256), 0..10),
        corrupt_idx in any::<proptest::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let mut c = Collector::new();
        let mut ingested = 0u64;
        for (i, dg) in dgs.iter().enumerate() {
            let mut bytes = dg.encode();
            if i % 3 == 2 && !bytes.is_empty() {
                let j = corrupt_idx.index(bytes.len());
                bytes[j] ^= flip;
            }
            let _ = c.ingest(&bytes);
            ingested += 1;
        }
        for blob in &blobs {
            let _ = c.ingest(blob);
            ingested += 1;
        }
        let s = c.stats();
        prop_assert_eq!(s.datagrams, ingested);
        prop_assert_eq!(s.datagrams, s.accepted + s.duplicates + s.decode_errors.total());
        prop_assert!(s.loss_rate() >= 0.0 && s.loss_rate() <= 1.0);
        prop_assert!(s.compensation_factor() >= 1.0);
    }

    /// Sequence accounting is correct across the u32 wraparound: an
    /// in-order stream that crosses u32::MAX with `gap - 1` datagrams
    /// missing per jump reports exactly the skipped count as lost and
    /// never misreads the wrap as a restart.
    #[test]
    fn collector_wraparound_accounting(
        start_back in 0u32..40,
        gaps in proptest::collection::vec(1u32..5, 1..30),
    ) {
        let agent = Ipv4Addr::new(192, 0, 2, 1);
        let mut c = Collector::new();
        let mut seq = u32::MAX - start_back;
        let mut expect_lost = 0u64;
        let mut expect_accepted = 0u64;
        let mk = |seq: u32| Datagram {
            agent_address: agent,
            sub_agent_id: 0,
            sequence: seq,
            uptime_ms: 1_000,
            samples: vec![],
            counters: vec![],
        }.encode();
        prop_assert!(matches!(c.ingest(&mk(seq)), Ingest::Accepted(_)));
        expect_accepted += 1;
        for gap in gaps {
            seq = seq.wrapping_add(gap);
            expect_lost += u64::from(gap - 1);
            prop_assert!(matches!(c.ingest(&mk(seq)), Ingest::Accepted(_)));
            expect_accepted += 1;
        }
        let s = c.stats();
        prop_assert_eq!(s.accepted, expect_accepted);
        prop_assert_eq!(s.lost, expect_lost);
        prop_assert_eq!(s.restarts, 0);
        prop_assert_eq!(s.duplicates, 0);
    }

    /// Replaying any stream a second time yields only duplicates within
    /// the reorder window; accepted count never exceeds distinct
    /// sequence numbers.
    #[test]
    fn collector_replay_is_all_duplicates(seqs in proptest::collection::vec(0u32..64, 1..40)) {
        let agent = Ipv4Addr::new(192, 0, 2, 2);
        let mk = |seq: u32| Datagram {
            agent_address: agent,
            sub_agent_id: 0,
            sequence: seq,
            uptime_ms: 1_000,
            samples: vec![],
            counters: vec![],
        }.encode();
        let mut c = Collector::new();
        for &s in &seqs {
            let _ = c.ingest(&mk(s));
        }
        let first = c.stats();
        // All sequences live within a 64-wide band < the 128 reorder
        // window, so a full replay must be suppressed entirely.
        for &s in &seqs {
            prop_assert_eq!(c.ingest(&mk(s)), Ingest::Duplicate);
        }
        let second = c.stats();
        prop_assert_eq!(second.accepted, first.accepted);
        prop_assert_eq!(second.duplicates, first.duplicates + seqs.len() as u64);
        let distinct: std::collections::HashSet<u32> = seqs.iter().copied().collect();
        prop_assert!(first.accepted <= distinct.len() as u64);
    }
}

proptest! {
    /// Checkpointing the collector at an arbitrary datagram boundary and
    /// restoring is byte-identical to never having been interrupted: the
    /// resumed collector's final state blob equals the uninterrupted
    /// run's, for any mix of valid, corrupted, and garbage datagrams.
    #[test]
    fn collector_checkpoint_boundary_is_byte_identical(
        dgs in proptest::collection::vec(arb_datagram(), 1..16),
        blobs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..128), 0..6),
        cut in any::<proptest::sample::Index>(),
        corrupt_idx in any::<proptest::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let mut stream: Vec<Vec<u8>> = Vec::new();
        for (i, dg) in dgs.iter().enumerate() {
            let mut bytes = dg.encode();
            if i % 4 == 3 && !bytes.is_empty() {
                let j = corrupt_idx.index(bytes.len());
                bytes[j] ^= flip;
            }
            stream.push(bytes);
        }
        stream.extend(blobs);
        let boundary = cut.index(stream.len() + 1);

        let mut whole = Collector::new();
        for bytes in &stream {
            let _ = whole.ingest(bytes);
        }

        let mut first = Collector::new();
        for bytes in stream.iter().take(boundary) {
            let _ = first.ingest(bytes);
        }
        let ckpt = first.save_state();
        let mut resumed = Collector::restore_state(&ckpt).expect("restore own checkpoint");
        for bytes in stream.iter().skip(boundary) {
            let _ = resumed.ingest(bytes);
        }
        prop_assert_eq!(resumed.save_state(), whole.save_state());
    }

    /// A damaged checkpoint — any strict truncation, or an arbitrary byte
    /// flip — is rejected with a typed `StateError` or restores to a
    /// still-balanced collector. It must never panic and never yield a
    /// collector whose accounting does not add up.
    #[test]
    fn collector_checkpoint_corruption_is_typed_never_panics(
        dgs in proptest::collection::vec(arb_datagram(), 1..12),
        cut in any::<proptest::sample::Index>(),
        flip_at in any::<proptest::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let mut c = Collector::new();
        for dg in &dgs {
            let _ = c.ingest(&dg.encode());
        }
        let blob = c.save_state();

        let boundary = cut.index(blob.len());
        let prefix: Vec<u8> = blob.iter().copied().take(boundary).collect();
        prop_assert!(Collector::restore_state(&prefix).is_err());

        let mut bad = blob.clone();
        let j = flip_at.index(bad.len());
        bad[j] ^= flip;
        if let Ok(restored) = Collector::restore_state(&bad) {
            // The flip survived validation: the restored state must still
            // satisfy the accounting invariant (restore re-checks it).
            let s = restored.stats();
            prop_assert_eq!(
                s.datagrams,
                s.accepted + s.duplicates + s.decode_errors.total()
            );
        }
    }
}
