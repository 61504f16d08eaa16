//! Degraded-mode acceptance tests: the analysis pipeline behind the
//! paper's tables must survive a hostile sFlow transport — datagram loss,
//! duplication, reordering, truncation, bit corruption, agent restarts,
//! counter wraps, outage windows — with exact ingest accounting and only
//! marginal drift in the headline statistics. The plans and tolerances are
//! rows of `ixp_bench::scenario`.

mod common;

use common::{analyzer, clean, model};
use ixp_bench::scenario::{self, Outcome, Scenario};
use ixp_vantage::netmodel::Week;

const SEED: u64 = 777;

/// Run the reference week through the row's fault plan.
fn degraded(row: &Scenario) -> Outcome {
    row.run(analyzer(), clean(), &row.feed(analyzer()))
}

/// The headline acceptance criterion: 5 % loss plus one agent restart
/// moves Table 1's unique counts by less than the row's drift bound, the
/// loss estimate is within its bound of what was actually injected, and
/// nothing is silently discarded.
#[test]
fn five_percent_loss_plus_restart_stays_within_tolerance() {
    let row = scenario::loss_restart();
    let o = degraded(&row);
    assert!(o.faults.restarts_injected == 1, "restart did not fire");
    // Table 1 stability, the loss coin, and loss-estimate accuracy: the
    // collector detects the restart instead of booking the sequence
    // regression as a giant gap.
    assert_eq!(row.check(&o), Ok(()));
    let h = &o.report.health;
    assert_eq!(h.collector.restarts, 1, "restart not detected");

    // No silent discard: every ingested datagram is accepted, a suppressed
    // duplicate, or a counted decode error.
    assert!(o.ledger, "accounting invariant violated: {:?}", h.collector);
    assert_eq!(h.collector.datagrams, o.faults.emitted);
}

/// Full hostility: loss, duplicates, reordering, truncation, bit flips,
/// counter wrap. The accounting invariant must still balance exactly.
#[test]
fn hostile_stream_is_fully_accounted() {
    let o = degraded(&scenario::hostile());
    let (h, stats) = (&o.report.health, o.faults);

    assert!(o.ledger, "accounting invariant violated: {:?}", h.collector);
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
    assert!(!o.report.census.is_empty());
    assert!(o.report.snapshot.filter.total().bytes > 0);
}

/// An outage window is plain loss to the collector: the gap estimate must
/// track the dropped datagrams within the row's bound.
#[test]
fn outage_window_is_counted_as_loss() {
    let row = scenario::outage();
    let o = degraded(&row);
    assert!(o.faults.outage_dropped > 0, "outage window dropped nothing");
    assert_eq!(row.check(&o), Ok(()));
    assert!(o.ledger);
}

/// Counter wraps must not disturb the flow statistics: the wrap only
/// touches cumulative `if_counters`, which the wrap-safe deltas absorb.
#[test]
fn counter_wrap_does_not_disturb_flow_statistics() {
    let o = degraded(&scenario::counter_wrap());
    assert_eq!(o.faults.dropped + o.faults.outage_dropped, 0);
    let (got, clean) = (o.drift.got, o.drift.clean);
    assert_eq!(got.ips, clean.ips);
    assert_eq!(got.prefixes, clean.prefixes);
    assert_eq!(got.ases, clean.ases);
    assert_eq!(o.report.health.collector.lost, 0);
    assert!(o.ledger);
}

/// A seeded plan replays bit-for-bit: the same configuration must yield an
/// identical degraded report, down to the health counters.
#[test]
fn degraded_runs_replay_deterministically() {
    let (a, b) = (degraded(&scenario::replay()), degraded(&scenario::replay()));
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.report.health, b.report.health);
    assert_eq!(a.drift.got, b.drift.got);
    assert_eq!(a.report.census.len(), b.report.census.len());
}

/// The allocation-free path and the owned one are the same scan: a week
/// under every fault kind fed through `WeekScan::ingest` (borrowed views)
/// checkpoints byte-identically to the same feed driven through the owned
/// `Collector::ingest` and `WeekScan::ingest_sample` per decoded sample.
#[test]
fn borrowed_ingest_matches_owned_ingest_byte_for_byte() {
    use ixp_vantage::core::WeekScan;
    use ixp_vantage::sflow::{Collector, Ingest};

    let feed = scenario::every_fault().feed(analyzer());
    let stats = feed.faults;
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
    for (_, datagram) in feed.units() {
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
