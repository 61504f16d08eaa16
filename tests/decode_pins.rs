//! Pins of what `generate()` emits, what the NetFlow v9 and IPFIX decoders
//! and the intake make of it, and what the two fault plans deliver —
//! computed at the commit before the two decoders became one set walker
//! and the two plans' delivery queues one.
//!
//! The soaks and `scripts/ci.sh`'s `cmp` stanzas compare a build with
//! itself and `benchmark/golden.json` pins nine transport counters of one
//! workload; only these constants notice a decoder that changes a record
//! value, a fault kind, a cache count or an LRU tick on damaged input. The
//! file reads only names the decoders had before and after (`sequence`,
//! `records`, `missing_template`; the intake's public surface, whose saved
//! state carries the `(peer, version, domain)` dedup keys and the cache's
//! tick), so it runs unedited in a checkout of that commit.
//!
//! A failure here means a decision or a byte moved. Do not re-pin without
//! saying so.

use std::fmt::{Debug, Write as _};

use ixp_vantage::codec::fnv64;
use ixp_vantage::faults::{FaultConfig, FaultPlan, OutageWindow, WireFaultConfig, WirePlan};
use ixp_vantage::netmodel::{InternetModel, Week};
use ixp_vantage::obs::Journal;
use ixp_vantage::traffic::{MixConfig, WeekStream};
use ixp_vantage::transport::flow::FlowRecord;
use ixp_vantage::transport::{
    generate, ipfix, netflow9, DecodeFault, FlowGenConfig, TemplateCache, TemplateCacheConfig,
    TransportConfig, TransportIntake,
};

const GENERATED: (u64, usize) = (0x357a_d3d6_58f5_8968, 600);
const WIRE_PLAN: (u64, usize) = (0xa384_0850_8fba_866b, 599);
const FAULT_PLAN: (u64, usize) = (0x9f6d_d3eb_82b1_64fa, 132);
const DECODED: (u64, usize) = (0xab97_9ede_4697_e03b, 3_987);
const INTAKE: (u64, usize) = (0x3413_c927_7406_1c0c, 3_987);

/// `fnv64` over every `(peer, packet)`, length-framed, and how many.
fn digest(stream: &[(u64, Vec<u8>)]) -> (u64, usize) {
    let mut bytes = Vec::new();
    for (peer, packet) in stream {
        bytes.extend_from_slice(&peer.to_be_bytes());
        bytes.extend_from_slice(&(packet.len() as u64).to_be_bytes());
        bytes.extend_from_slice(packet);
    }
    (fnv64(&bytes), stream.len())
}

/// Five exporters (v9, IPFIX, v5, v9, IPFIX) across a withhold window, a
/// flap window and two restarts.
fn generated() -> Vec<(u64, Vec<u8>)> {
    generate(&FlowGenConfig {
        seed: 2424,
        packets: 600,
        exporters: 5,
        template_every: 16,
        withhold: vec![(0, 25), (300, 340)],
        flap: vec![(120, 150)],
        restarts: vec![200, 451],
        ..FlowGenConfig::default()
    })
}

fn wire_faulted(stream: Vec<(u64, Vec<u8>)>) -> (Vec<(u64, Vec<u8>)>, String) {
    let cfg =
        WireFaultConfig { seed: 77, drop: 0.05, duplicate: 0.05, reorder: 0.1, truncate: 0.05 };
    let mut plan = WirePlan::new(stream.into_iter(), cfg);
    let out: Vec<_> = plan.by_ref().collect();
    (out, format!("{:?}", plan.stats()))
}

/// The faulted stream, then one announcing and one data-only packet per
/// dialect, each followed by its every-length prefixes and its every
/// single-bit flip.
fn corpus() -> Vec<(u64, Vec<u8>)> {
    let rec = |i: u8| FlowRecord {
        src: [10, 0, 0, i].into(),
        dst: [10, 0, 1, i].into(),
        src_port: 4000 + u16::from(i),
        dst_port: 443,
        proto: 6,
        packets: 3,
        bytes: 1500,
    };
    let fields = netflow9::encode::flow_template_fields();
    let records = [rec(1), rec(2), rec(3)];
    let bases = [
        netflow9::encode::packet(1, 7, 260, Some(&fields), &records[..2]),
        netflow9::encode::packet(2, 7, 260, None, &records),
        ipfix::encode::packet(1, 9, 300, Some(&fields), &records[..2]),
        ipfix::encode::packet(2, 9, 300, None, &records),
    ];
    let (mut out, _) = wire_faulted(generated());
    for (peer, base) in (0x0BA5_E000u64..).zip(bases) {
        out.push((peer, base.clone()));
        out.extend((0..base.len()).map(|cut| (peer, base[..cut].to_vec())));
        for bit in 0..base.len() * 8 {
            let mut flipped = base.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            out.push((peer, flipped));
        }
    }
    out
}

/// One decode result: what both outcome types have always named alike, or
/// the fault.
fn render<T>(
    log: &mut String,
    result: Result<T, DecodeFault>,
    fields: impl Fn(&T) -> (u32, &[FlowRecord], bool),
    cache: &TemplateCache,
) {
    match &result {
        Ok(out) => writeln!(log, "{:?} {:?}", fields(out), cache.counts()),
        Err(fault) => writeln!(log, "{fault:?} {:?}", cache.counts()),
    }
    .expect("writing to a String");
}

#[test]
fn generate_is_byte_stable_across_commits() {
    let got = digest(&generated());
    assert_eq!(got, GENERATED, "got ({:#018x}, {})", got.0, got.1);
}

#[test]
fn both_fault_plans_deliver_the_same_streams_across_commits() {
    let (out, stats) = wire_faulted(generated());
    let got = (digest(&out).0 ^ fnv64(stats.as_bytes()), out.len());
    assert_eq!(got, WIRE_PLAN, "WirePlan: got ({:#018x}, {}), {stats}", got.0, got.1);

    // A budgeted reference week: 143 sFlow datagrams of sub-agent 0, the
    // last one carrying the counters `counter_wrap` pushes.
    let model = InternetModel::tiny(2012);
    let feed = WeekStream::with_budget(&model, MixConfig::default(), Week::REFERENCE, 2012, 1_000);
    let cfg = FaultConfig {
        seed: 78,
        drop: 0.05,
        duplicate: 0.05,
        reorder: 0.1,
        truncate: 0.05,
        corrupt: 0.05,
        restarts: vec![(1, 10), (0, 20), (0, 90)],
        outages: vec![OutageWindow { sub_agent: 0, from: 100, until: 110 }],
        counter_wrap: true,
    };
    let mut plan = FaultPlan::new(feed, cfg);
    let out: Vec<(u64, Vec<u8>)> = plan.by_ref().map(|d| (0, d)).collect();
    let stats = format!("{:?}", plan.stats());
    let got = (digest(&out).0 ^ fnv64(stats.as_bytes()), out.len());
    assert_eq!(got, FAULT_PLAN, "FaultPlan: got ({:#018x}, {}), {stats}", got.0, got.1);
}

/// Every corpus packet through both decoders (the other dialect's answer
/// is `BadVersion`, which is pinned too), each against its own small cache
/// so the flipped domain ids also drive LRU eviction.
#[test]
fn decoders_decide_the_same_on_clean_and_damaged_packets_across_commits() {
    let bounds = TemplateCacheConfig { max_domains: 8, max_templates_per_domain: 4 };
    let (mut v9_cache, mut ipfix_cache) = (TemplateCache::new(bounds), TemplateCache::new(bounds));
    let mut log = String::new();
    let corpus = corpus();
    for (peer, packet) in &corpus {
        let v9 = netflow9::decode(packet, *peer, &mut v9_cache);
        render(&mut log, v9, |o| (o.sequence, &o.records, o.missing_template), &v9_cache);
        let ipfix = ipfix::decode(packet, *peer, &mut ipfix_cache);
        render(&mut log, ipfix, |o| (o.sequence, &o.records, o.missing_template), &ipfix_cache);
    }
    let got = (fnv64(log.as_bytes()), corpus.len());
    assert_eq!(got, DECODED, "got ({:#018x}, {})", got.0, got.1);
}

/// The same corpus through the intake: what it hands downstream packet by
/// packet, the journal it writes, and the state it would checkpoint.
#[test]
fn intake_books_and_saves_the_same_across_commits() {
    fn line(log: &mut String, what: &dyn Debug) {
        writeln!(log, "{what:?}").expect("writing to a String");
    }
    let mut intake = TransportIntake::new(TransportConfig {
        pending_byte_budget: 4096,
        template_cache: TemplateCacheConfig { max_domains: 8, max_templates_per_domain: 4 },
        ..TransportConfig::default()
    });
    let journal = Journal::deterministic();
    intake.bind_journal(journal.clone());
    let mut log = String::new();
    let corpus = corpus();
    for (peer, packet) in &corpus {
        intake.offer(*peer, packet);
        line(&mut log, &intake.drain(4));
    }
    let state = intake.save_state();
    line(&mut log, &intake.finish());
    line(&mut log, &intake.template_counts());
    log.push_str(&journal.render());
    let got = (fnv64(log.as_bytes()) ^ fnv64(&state), corpus.len());
    assert_eq!(got, INTAKE, "got ({:#018x}, {})", got.0, got.1);
}
