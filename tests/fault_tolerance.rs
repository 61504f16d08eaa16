//! Degraded-mode acceptance tests: the analysis pipeline behind the
//! paper's tables must survive a hostile sFlow transport — datagram loss,
//! duplication, reordering, truncation, bit corruption, agent restarts,
//! counter wraps, outage windows — with exact ingest accounting and only
//! marginal drift in the headline statistics.

mod common;

use common::{analyzer, clean, drift_pct, model};
use ixp_vantage::core::analyzer::WeeklyReport;
use ixp_vantage::core::visibility;
use ixp_vantage::faults::{FaultConfig, FaultPlan, OutageWindow};
use ixp_vantage::netmodel::Week;

const SEED: u64 = 777;

/// Run the reference week through a fault plan; return the report plus the
/// plan's injection stats.
fn degraded(cfg: FaultConfig) -> (WeeklyReport, ixp_vantage::faults::FaultStats) {
    let analyzer = analyzer();
    let mut plan = FaultPlan::new(analyzer.feed(Week::REFERENCE), cfg);
    let scan = analyzer.scan_week_from(Week::REFERENCE, plan.by_ref());
    let stats = plan.stats();
    (analyzer.report_from_scan(scan), stats)
}

/// The headline acceptance criterion: 5 % loss plus one agent restart
/// moves Table 1's unique-AS and unique-prefix counts by less than 2 %,
/// the loss estimate is within half a percentage point of what was
/// actually injected, and nothing is silently discarded.
#[test]
fn five_percent_loss_plus_restart_stays_within_tolerance() {
    let cfg = FaultConfig {
        seed: 777,
        drop: 0.05,
        restarts: vec![(0, 500)],
        ..FaultConfig::default()
    };
    let (report, stats) = degraded(cfg);
    let t1 = visibility::table1(&report.snapshot);
    let t1_clean = visibility::table1(&clean().snapshot);

    assert!(stats.restarts_injected == 1, "restart did not fire");
    let injected_pct = 100.0 * stats.injected_loss_rate();
    assert!((4.0..6.0).contains(&injected_pct), "loss coin off: {injected_pct:.2} %");

    // Table 1 stability.
    let ases = drift_pct(t1.peering.ases, t1_clean.peering.ases);
    let prefixes = drift_pct(t1.peering.prefixes, t1_clean.peering.prefixes);
    assert!(ases < 2.0, "unique-AS drift {ases:.2} % >= 2 %");
    assert!(prefixes < 2.0, "unique-prefix drift {prefixes:.2} % >= 2 %");

    // Loss-estimate accuracy: the collector detects the restart instead of
    // booking the sequence regression as a giant gap.
    let h = &report.health;
    let err = h.loss_pct() - injected_pct;
    assert!(err.abs() < 0.5, "loss estimate off by {err:+.2} pp");
    assert_eq!(h.collector.restarts, 1, "restart not detected");

    // No silent discard: every ingested datagram is accepted, a suppressed
    // duplicate, or a counted decode error.
    assert!(h.fully_accounted(), "accounting invariant violated: {:?}", h.collector);
    assert_eq!(h.collector.datagrams, stats.emitted);
}

/// Full hostility: loss, duplicates, reordering, truncation, bit flips,
/// counter wrap. The accounting invariant must still balance exactly.
#[test]
fn hostile_stream_is_fully_accounted() {
    let cfg = FaultConfig {
        seed: 31,
        drop: 0.05,
        duplicate: 0.02,
        reorder: 0.02,
        truncate: 0.01,
        corrupt: 0.01,
        restarts: vec![(0, 300)],
        counter_wrap: true,
        ..FaultConfig::default()
    };
    let (report, stats) = degraded(cfg);
    let h = &report.health;

    assert!(h.fully_accounted(), "accounting invariant violated: {:?}", h.collector);
    assert_eq!(h.collector.datagrams, stats.emitted, "collector missed datagrams");
    // Injected duplicates are suppressed, not double-counted. (A duplicate
    // of a truncated/corrupted datagram books as two decode errors instead,
    // so suppression is bounded by, not equal to, the injection count.)
    assert!(h.collector.duplicates > 0);
    assert!(h.collector.duplicates <= stats.duplicated);
    // Truncations surface as counted decode errors, not crashes.
    assert!(stats.truncated > 0, "truncation coin never fired");
    assert!(h.collector.decode_errors.total() > 0, "no decode errors counted");
    // The week still produces a usable census.
    assert!(!report.census.is_empty());
    assert!(report.snapshot.filter.total().bytes > 0);
}

/// An outage window is plain loss to the collector: the gap estimate must
/// track the dropped datagrams within half a percentage point.
#[test]
fn outage_window_is_counted_as_loss() {
    let cfg = FaultConfig {
        seed: 5,
        outages: vec![OutageWindow { sub_agent: 0, from: 200, until: 500 }],
        ..FaultConfig::default()
    };
    let (report, stats) = degraded(cfg);
    assert!(stats.outage_dropped > 0, "outage window dropped nothing");
    let injected_pct = 100.0 * stats.injected_loss_rate();
    let err = report.health.loss_pct() - injected_pct;
    assert!(err.abs() < 0.5, "outage loss estimate off by {err:+.2} pp");
    assert!(report.health.fully_accounted());
}

/// Counter wraps must not disturb the flow statistics: the wrap only
/// touches cumulative `if_counters`, which the wrap-safe deltas absorb.
#[test]
fn counter_wrap_does_not_disturb_flow_statistics() {
    let cfg = FaultConfig { seed: 9, counter_wrap: true, ..FaultConfig::default() };
    let (report, stats) = degraded(cfg);
    assert_eq!(stats.dropped + stats.outage_dropped, 0);
    let t1 = visibility::table1(&report.snapshot);
    let t1_clean = visibility::table1(&clean().snapshot);
    assert_eq!(t1.peering.ips, t1_clean.peering.ips);
    assert_eq!(t1.peering.prefixes, t1_clean.peering.prefixes);
    assert_eq!(t1.peering.ases, t1_clean.peering.ases);
    assert_eq!(report.health.collector.lost, 0);
    assert!(report.health.fully_accounted());
}

/// A seeded plan replays bit-for-bit: the same configuration must yield an
/// identical degraded report, down to the health counters.
#[test]
fn degraded_runs_replay_deterministically() {
    let cfg = || FaultConfig {
        seed: 2013,
        drop: 0.03,
        duplicate: 0.01,
        reorder: 0.01,
        restarts: vec![(0, 400)],
        ..FaultConfig::default()
    };
    let (a, sa) = degraded(cfg());
    let (b, sb) = degraded(cfg());
    assert_eq!(sa, sb);
    assert_eq!(a.health, b.health);
    let (ta, tb) = (visibility::table1(&a.snapshot), visibility::table1(&b.snapshot));
    assert_eq!(ta.peering.ips, tb.peering.ips);
    assert_eq!(ta.peering.prefixes, tb.peering.prefixes);
    assert_eq!(ta.peering.ases, tb.peering.ases);
    assert_eq!(a.census.len(), b.census.len());
}

/// The allocation-free path and the owned one are the same scan: a week
/// under every fault kind fed through `WeekScan::ingest` (borrowed views)
/// checkpoints byte-identically to the same feed driven through the owned
/// `Collector::ingest` and `WeekScan::ingest_sample` per decoded sample.
#[test]
fn borrowed_ingest_matches_owned_ingest_byte_for_byte() {
    use ixp_vantage::core::WeekScan;
    use ixp_vantage::sflow::{Collector, Ingest};

    let cfg = FaultConfig {
        seed: 14,
        drop: 0.05,
        duplicate: 0.02,
        reorder: 0.02,
        truncate: 0.01,
        corrupt: 0.01,
        restarts: vec![(0, 300)],
        ..FaultConfig::default()
    };
    let mut plan = FaultPlan::new(analyzer().feed(Week::REFERENCE), cfg);
    let feed: Vec<Vec<u8>> = plan.by_ref().collect();
    let stats = plan.stats();
    for (what, n) in [
        ("drop", stats.dropped),
        ("duplicate", stats.duplicated),
        ("reorder", stats.reordered),
        ("truncate", stats.truncated),
        ("corrupt", stats.corrupted),
        ("restart", stats.restarts_injected),
    ] {
        assert!(n > 0, "the plan injected no {what}");
    }

    let members = model().registry.members_at(Week::REFERENCE).len() as u32;
    let mut borrowed = WeekScan::new(Week::REFERENCE, members);
    let mut owned = WeekScan::new(Week::REFERENCE, members);
    let mut collector = Collector::new();
    for datagram in &feed {
        borrowed.ingest(datagram);
        if let Ingest::Accepted(dg) = collector.ingest(datagram) {
            for s in &dg.samples {
                owned.ingest_sample(s.sampling_rate, s.record.frame_length, &s.record.header);
            }
        }
    }
    assert!(borrowed.unique_ips() > 0 && !borrowed.domains.is_empty());

    // A scan's state ends with its collector's; `owned` never used its
    // own, so swap the stand-alone collector's state in for that tail.
    let mut expected = owned.save_state();
    expected.truncate(expected.len() - owned.collector().save_state().len());
    expected.extend_from_slice(&collector.save_state());
    assert!(borrowed.save_state() == expected, "borrowed and owned ingest diverged");
}
