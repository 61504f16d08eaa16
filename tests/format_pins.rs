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
//! constant (and, where the field sequence moved, its L10 digest in
//! `crates/lint/src/codec_sym.rs`) is bumped in the same change.
//!
//! That has happened once: `FORMAT_VERSION`, `TRANSPORT_STATE_VERSION` and
//! `FLIGHT_VERSION` went 1 → 2 together when the trailer of all three
//! sealed formats changed from FNV-1a-64 to `ixp-codec`'s word-wise digest,
//! and the three whole-record pins were taken again then. What lies between
//! a record's version field and its trailer did not change, and the three
//! `*_PAYLOAD`/`*_FIELDS`/`*_EVENTS` pins — computed on the parent of that
//! change, before any codec was touched — hold it to that.

use ixp_vantage::codec::fnv64;
use ixp_vantage::core::analyzer::Analyzer;
use ixp_vantage::core::WeekScan;
use ixp_vantage::faults::{self, WireFaultConfig, WirePlan};
use ixp_vantage::netmodel::{InternetModel, ScaleConfig, Week};
use ixp_vantage::obs::journal::{self, EventKind};
use ixp_vantage::obs::{Journal, Obs};
use ixp_vantage::supervisor::{envelope, Supervisor, SupervisorConfig};
use ixp_vantage::transport::{
    generate, Drained, FlowGenConfig, TransportConfig, TransportIntake, TransportMetrics,
};

const SEED: u64 = 1616;
const SFLOW_PEER: u64 = 0x5F10;
const FLOW_PACKETS: u64 = 200;

const CHECKPOINT_FNV: u64 = 0x6f3b_dd3a_a9ba_63ba;
const TRANSPORT_STATE_FNV: u64 = 0xebeb_c376_347c_06b3;
const FLIGHT_FNV: u64 = 0x5fc7_5d58_19ff_a142;
const TRACE_FNV: u64 = 0xa97d_d6cd_95c9_739d;
const METRICS_JSON_FNV: u64 = 0x55ab_aa8f_f099_7644;

const CHECKPOINT_PAYLOAD_FNV: u64 = 0xdf7a_2ba3_e846_2511;
const TRANSPORT_FIELDS_FNV: u64 = 0xbce5_177a_1834_ae2e;
const FLIGHT_EVENTS_FNV: u64 = 0x8065_eea0_73d4_24b1;

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
    let wire = WireFaultConfig {
        seed: SEED,
        drop: 0.02,
        duplicate: 0.01,
        reorder: 0.01,
        truncate: 0.002,
    };
    WirePlan::new(mixed.into_iter(), wire).collect()
}

#[test]
fn sealed_formats_and_documents_are_byte_stable_across_commits() {
    let model = InternetModel::generate(ScaleConfig::tiny(), SEED);
    let analyzer = Analyzer::new(&model);
    let members = model.registry.members_at(Week::REFERENCE).len() as u32;
    let stream = stream(&analyzer);
    let kill_at = stream.len() / 2;

    let obs = Obs::deterministic();
    let journal = Journal::deterministic();
    let config = SupervisorConfig {
        ring_capacity: 256,
        arrivals_per_tick: 64,
        drain_budget: 96,
        ..SupervisorConfig::default()
    };
    let mut sup =
        Supervisor::with_obs(WeekScan::with_obs(Week::REFERENCE, members, &obs), config, &obs);
    sup.bind_journal(journal.clone());
    let mut intake = TransportIntake::new(TransportConfig::default());
    intake.bind_metrics(TransportMetrics::register(&obs.registry));
    intake.bind_journal(journal.clone());

    for (peer, packet) in stream.iter().take(kill_at) {
        intake.offer(*peer, packet);
        for unit in intake.drain(usize::MAX) {
            if let Drained::Sflow { datagram, .. } = unit {
                sup.offer(datagram);
            }
        }
    }
    journal.record(EventKind::Kill, 0, 1, kill_at as u64, sup.stats().ticks);

    let transport_state = intake.save_state();
    assert!(intake.stats().pending > 0, "the cut must leave packets parked");
    let flight = journal.dump_flight(journal::DEFAULT_CAPACITY);
    assert!(flight.len() > 24, "the flight record must carry events");

    let checkpoint = sup.checkpoint();
    let payload = envelope::open(&checkpoint).expect("the checkpoint opens");
    let got = [
        ("checkpoint", fnv64(&checkpoint), CHECKPOINT_FNV),
        ("checkpoint payload", fnv64(payload), CHECKPOINT_PAYLOAD_FNV),
        ("transport state fields", fnv64(between(&transport_state, 4)), TRANSPORT_FIELDS_FNV),
        ("flight record events", fnv64(between(&flight, 16)), FLIGHT_EVENTS_FNV),
        ("transport state", fnv64(&transport_state), TRANSPORT_STATE_FNV),
        ("flight record", fnv64(&flight), FLIGHT_FNV),
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
        "bytes changed — a format change needs its version constant (and L10 digest, if the \
         field sequence moved) bumped with this pin: {moved:#?}"
    );
}
