//! Cross-commit format pins: the FNV-1a-64 of every byte-stable artefact
//! a supervised run leaves behind, taken from one seeded `tiny` run under
//! the frozen clock, cut mid-stream where parked packets, dedup windows
//! and the template cache are all hot.
//!
//! The other byte-identity gates (`chaos_soak`, `transport_soak`,
//! `scripts/ci.sh`'s `cmp` stanzas) compare two runs of the *same*
//! commit, and `benchmark/golden.json` pins only a checkpoint length, so
//! none of them notices a refactor that changes what is written. These
//! constants do: they were computed on the commit before the codecs moved
//! into `ixp-codec` and must not change unless the matching `*_VERSION`
//! constant is bumped in the same change.
//!
//! That has happened once: `FORMAT_VERSION`, `TRANSPORT_STATE_VERSION` and
//! the flight record's version went 1 → 2 together when the trailer of all
//! three sealed formats changed from FNV-1a-64 to `ixp-codec`'s word-wise
//! digest, and the whole-record pins were taken again then. What lies
//! between a record's version field and its trailer did not change, and the
//! `*_PAYLOAD`/`*_FIELDS` pins — computed on the parent of that change,
//! before any codec was touched — hold it to that.
//!
//! The sealed binary flight record has since been deleted, and its pins with
//! it: a flight dump is now the `ixp-trace/1` document of the journal's
//! tail, and the reference run's whole-ring tail must equal the trace that
//! `TRACE_FNV` pins.
//!
//! A pin sees two same-width fields trade places only where the sample
//! holds different values in them, and the reference run leaves many at
//! zero or equal. The second sample (`distinct_sample`, its pins computed
//! on the parent of the change that added it) gives each such field a value
//! of its own, and its test also restores every format and saves it again:
//! a writer whose reader does not mirror it comes back different. Every
//! `*_VERSION` constant of a state format is named in this file, which
//! `scripts/ci.sh` checks.

use std::net::Ipv4Addr;

use ixp_bench::pipeline::{Images, Pipeline, SFLOW_PEER};
use ixp_vantage::codec::fnv64;
use ixp_vantage::core::analyzer::Analyzer;
use ixp_vantage::core::scan::WEEKSCAN_STATE_VERSION;
use ixp_vantage::core::WeekScan;
use ixp_vantage::faults::{self, WireFaultConfig, WirePlan};
use ixp_vantage::netmodel::{InternetModel, ScaleConfig, Week};
use ixp_vantage::obs::journal;
use ixp_vantage::obs::{Journal, Obs};
use ixp_vantage::sflow::checkpoint::COLLECTOR_STATE_VERSION;
use ixp_vantage::sflow::{CounterSample, DatagramBuilder, FlowSample, RawPacketHeader};
use ixp_vantage::supervisor::{envelope, Supervisor, SupervisorConfig, SUPERVISOR_STATE_VERSION};
use ixp_vantage::traffic::{MixConfig, WeekStream};
use ixp_vantage::transport::intake::TRANSPORT_STATE_VERSION;
use ixp_vantage::transport::{
    generate, FlowGenConfig, TemplateCacheConfig, TransportConfig, TransportIntake,
};

const SEED: u64 = 1616;
const FLOW_PACKETS: u64 = 200;

const CHECKPOINT_FNV: u64 = 0x6f3b_dd3a_a9ba_63ba;
const TRANSPORT_STATE_FNV: u64 = 0xebeb_c376_347c_06b3;
const TRACE_FNV: u64 = 0xa97d_d6cd_95c9_739d;
const METRICS_JSON_FNV: u64 = 0x55ab_aa8f_f099_7644;

const CHECKPOINT_PAYLOAD_FNV: u64 = 0xdf7a_2ba3_e846_2511;
const TRANSPORT_FIELDS_FNV: u64 = 0xbce5_177a_1834_ae2e;

const DISTINCT_CHECKPOINT_FNV: u64 = 0x1b2b_bbe1_a831_2821;
const DISTINCT_TRANSPORT_STATE_FNV: u64 = 0xa3f7_49a3_f89e_f835;

/// What a sealed record holds between its version field and its 8-byte
/// trailer: the part a change of trailer or version number must not move.
fn between(sealed: &[u8], header: usize) -> &[u8] {
    sealed.get(header..sealed.len().saturating_sub(8)).expect("record shorter than its frame")
}

/// The reference week's sFlow feed with flow export interleaved, under
/// light wire faults. The first few flow packets come from exporters whose
/// templates never arrive, so they are still parked at the cut.
fn stream(analyzer: &Analyzer<'_>) -> Vec<(u64, Vec<u8>)> {
    let sflow: Vec<(u64, Vec<u8>)> =
        analyzer.feed(Week::REFERENCE).map(|d| (SFLOW_PEER, d)).collect();
    let mut withhold = faults::withhold_windows(SEED, FLOW_PACKETS, 2, 40);
    withhold.insert(0, (0, 20));
    let orphans = generate(&FlowGenConfig {
        seed: SEED ^ 0x0DD,
        packets: 8,
        exporters: 2, // v9 and IPFIX only — both templated
        withhold: vec![(0, 8)],
        ..FlowGenConfig::default()
    })
    .into_iter()
    .map(|(peer, p)| (peer + 0x0DD0_0000, p));
    let mut flows = orphans.chain(generate(&FlowGenConfig {
        seed: SEED,
        packets: FLOW_PACKETS,
        withhold,
        flap: faults::flap_windows(SEED, FLOW_PACKETS, 1, 30),
        restarts: faults::exporter_restart_offsets(SEED, FLOW_PACKETS, 1),
        ..FlowGenConfig::default()
    }));
    let stride = (sflow.len() / FLOW_PACKETS as usize).max(1);
    let mut mixed = Vec::with_capacity(sflow.len() + FLOW_PACKETS as usize);
    for (i, dg) in sflow.into_iter().enumerate() {
        mixed.push(dg);
        if (i + 1) % stride == 0 {
            mixed.extend(flows.next());
        }
    }
    mixed.extend(flows);
    let wire =
        WireFaultConfig { seed: SEED, drop: 0.02, duplicate: 0.01, reorder: 0.01, truncate: 0.002 };
    WirePlan::new(mixed.into_iter(), wire).collect()
}

#[test]
fn sealed_formats_and_documents_are_byte_stable_across_commits() {
    let model = InternetModel::generate(ScaleConfig::tiny(), SEED);
    let analyzer = Analyzer::new(&model);
    let members = model.registry.members_at(Week::REFERENCE).len() as u32;
    let stream = stream(&analyzer);
    let kill_at = stream.len() as u64 / 2;

    let obs = Obs::deterministic();
    let journal = Journal::deterministic();
    let config = SupervisorConfig {
        ring_capacity: 256,
        arrivals_per_tick: 64,
        drain_budget: 96,
        ..SupervisorConfig::default()
    };
    let sup = Supervisor::new(WeekScan::new(Week::REFERENCE, members), config);
    let mut pipeline = Pipeline::new(sup, Some(TransportIntake::new(TransportConfig::default())));
    pipeline.attach(&obs, &journal);
    assert!(!pipeline.drive(stream.into_iter(), Some(kill_at), |_| {}), "no cut");
    let parked = pipeline.intake().is_some_and(|intake| intake.stats().pending > 0);
    assert!(parked, "the cut must leave packets parked");
    let Images { checkpoint, transport } = pipeline.kill();
    let transport_state = transport.expect("an intake is in front");
    assert!(
        journal.render_tail(journal::DEFAULT_CAPACITY) == journal.render(),
        "the whole-ring flight dump is not the trace"
    );

    let payload = envelope::open(&checkpoint).expect("the checkpoint opens");
    let got = [
        ("checkpoint", fnv64(&checkpoint), CHECKPOINT_FNV),
        ("checkpoint payload", fnv64(payload), CHECKPOINT_PAYLOAD_FNV),
        ("transport state fields", fnv64(between(&transport_state, 4)), TRANSPORT_FIELDS_FNV),
        ("transport state", fnv64(&transport_state), TRANSPORT_STATE_FNV),
        ("ixp-trace/1", fnv64(journal.render().as_bytes()), TRACE_FNV),
        (
            "ixp-obs/1 metrics.json",
            fnv64(ixp_vantage::obs::json::render(&obs.snapshot()).as_bytes()),
            METRICS_JSON_FNV,
        ),
    ];
    let moved: Vec<String> = got
        .iter()
        .filter(|(_, fnv, pinned)| fnv != pinned)
        .map(|(what, fnv, pinned)| format!("{what}: fnv64 {fnv:#018x}, pinned {pinned:#018x}"))
        .collect();
    assert!(
        moved.is_empty(),
        "bytes changed — a format change needs its version constant bumped with this pin: \
         {moved:#?}"
    );
}

/// `packet` with the four bytes at `at` replaced by `word`.
fn with_word(packet: &[u8], at: usize, word: u32) -> Vec<u8> {
    let mut damaged = packet.to_vec();
    damaged.splice(at..at + 4, word.to_be_bytes());
    damaged
}

/// One counter source exported twice, its octet and packet deltas all
/// different, and three flow samples too short to dissect.
fn counter_datagrams() -> [Vec<u8>; 2] {
    let agent = Ipv4Addr::new(192, 0, 2, 77);
    let counters = |sequence, in_octets, out_octets, in_ucast, out_ucast| CounterSample {
        sequence,
        source_id: 7,
        if_index: 5,
        if_speed: 10_000_000_000,
        if_in_octets: in_octets,
        if_in_ucast: in_ucast,
        if_out_octets: out_octets,
        if_out_ucast: out_ucast,
    };
    let short = |sequence| FlowSample {
        sequence,
        source_id: 7,
        sampling_rate: 16_384,
        sample_pool: 0,
        drops: 0,
        input_if: 5,
        output_if: 6,
        record: RawPacketHeader {
            protocol: 1,
            frame_length: 64,
            stripped: 4,
            header: vec![0xAB; 6],
        },
    };
    let mut builder = DatagramBuilder::default();
    builder.push_counters(&counters(1, 1_000, 2_000, 10, 30));
    builder.push_flow(&short(1));
    let first = builder.finish(agent, 9, 1, 1_000);
    builder.push_counters(&counters(2, 3_000, 8_000, 21, 47));
    builder.push_flow(&short(2));
    builder.push_flow(&short(3));
    [first, builder.finish(agent, 9, 2, 2_000)]
}

/// A run in which the fields a same-width neighbour could stand in for hold
/// values of their own: sFlow datagrams damaged into each decode error kind
/// in different numbers, a counter source with in ≠ out, undissectable
/// samples, a ring stalled until it sheds; and flow export, some of it
/// truncated, of a bad version or padded, through an intake with
/// non-default bounds whose inbox sheds, whose parking budget drops and
/// whose template cache evicts. Returns the configuration and the two
/// sealed records, cut mid-stream with packets parked.
fn distinct_sample() -> (SupervisorConfig, Vec<u8>, Vec<u8>) {
    let model = InternetModel::tiny(SEED);
    let feed: Vec<Vec<u8>> =
        WeekStream::with_budget(&model, MixConfig::default(), Week::REFERENCE, SEED, 1_000)
            .collect();
    let mut damaged: Vec<Vec<u8>> = vec![feed[1][..feed[1].len() - 4].to_vec()];
    damaged.extend(feed[2..4].iter().map(|d| with_word(d, 0, 4)));
    damaged.extend(feed[4..7].iter().map(|d| with_word(d, 4, 2)));
    damaged.extend(feed[7..11].iter().map(|d| with_word(d, 24, 0xFFFF)));
    damaged.extend(counter_datagrams());

    let config = SupervisorConfig {
        ring_capacity: 8,
        arrivals_per_tick: 8,
        drain_budget: 8,
        ..SupervisorConfig::default()
    };
    let mut sup = Supervisor::new(WeekScan::new(Week::REFERENCE, 12), config);
    let (head, tail) = feed.split_at(feed.len() / 2);
    for datagram in head {
        sup.offer(datagram.clone());
    }
    sup.set_stalled(true);
    for datagram in &tail[..24] {
        sup.offer(datagram.clone());
    }
    sup.set_stalled(false);
    for datagram in &tail[24..40] {
        sup.offer(datagram.clone());
    }
    for datagram in damaged.into_iter().chain(tail[40..].iter().cloned()) {
        sup.offer(datagram);
    }

    let mut intake = TransportIntake::new(TransportConfig {
        inbox_capacity: 6,
        pending_byte_budget: 1_500,
        dedup_window: 5,
        template_cache: TemplateCacheConfig { max_domains: 3, max_templates_per_domain: 2 },
    });
    let flows = generate(&FlowGenConfig {
        seed: SEED,
        packets: 240,
        exporters: 5,
        template_every: 12,
        withhold: vec![(0, 30), (150, 170)],
        flap: vec![(60, 90)],
        restarts: vec![100, 200],
        ..FlowGenConfig::default()
    });
    for (i, (peer, packet)) in flows.iter().take(164).enumerate() {
        let packet = match i {
            13 | 57 | 91 => packet[..3].to_vec(),
            20..=24 => with_word(packet, 0, 0x0008_0000),
            _ if i % 5 == 2 && (40..75).contains(&i) => [&packet[..], &[0]].concat(),
            _ => packet.clone(),
        };
        intake.offer(*peer, &packet);
        if !(110..120).contains(&i) {
            intake.drain(usize::MAX);
        }
    }
    (config, sup.checkpoint(), intake.save_state())
}

#[test]
fn a_sample_with_a_value_of_its_own_in_every_field_pins_and_restores_to_itself() {
    assert_eq!(
        [
            envelope::FORMAT_VERSION,
            SUPERVISOR_STATE_VERSION,
            WEEKSCAN_STATE_VERSION,
            COLLECTOR_STATE_VERSION,
            TRANSPORT_STATE_VERSION,
        ],
        [2, 1, 1, 1, 2],
        "a format version moved: take the pins of this file again"
    );
    let (config, checkpoint, transport_state) = distinct_sample();
    let got = [
        ("checkpoint", fnv64(&checkpoint), DISTINCT_CHECKPOINT_FNV),
        ("transport state", fnv64(&transport_state), DISTINCT_TRANSPORT_STATE_FNV),
    ];
    let moved: Vec<String> = got
        .iter()
        .filter(|(_, fnv, pinned)| fnv != pinned)
        .map(|(what, fnv, pinned)| format!("{what}: fnv64 {fnv:#018x}, pinned {pinned:#018x}"))
        .collect();
    assert!(moved.is_empty(), "bytes changed without a version bump: {moved:#?}");

    let restored = Supervisor::restore(&checkpoint, config).expect("the checkpoint restores");
    assert!(restored.checkpoint() == checkpoint, "checkpoint: restore → save moved bytes");
    let intake = TransportIntake::restore_from(&transport_state).expect("the state restores");
    assert!(intake.save_state() == transport_state, "transport state: restore → save moved bytes");
}
