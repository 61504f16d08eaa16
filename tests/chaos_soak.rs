//! Chaos-soak acceptance gate: the supervised pipeline must survive
//! process-level chaos — kill-and-resume at seeded datagram offsets,
//! sustained overload that sheds into the bounded intake ring, and
//! corrupted or truncated checkpoint images — with byte-identical
//! recovery, zero silent discards, and Table 1 drift under the row's bound.
//! The plan, rings, bursts, kills and tolerance are the chaos rows of
//! `ixp_bench::scenario`.

mod common;

use std::sync::OnceLock;

use common::{analyzer, clean};
use ixp_bench::scenario::{self, Feed};
use ixp_vantage::faults::chaos;
use ixp_vantage::obs::Obs;
use ixp_vantage::supervisor::Supervisor;

const SEED: u64 = 777;

/// The reference week's datagrams after the chaos rows' fault plan,
/// materialized once — every supervised arm must see identical bytes.
fn feed() -> &'static Feed {
    static F: OnceLock<Feed> = OnceLock::new();
    F.get_or_init(|| scenario::chaos_kills().feed(analyzer()))
}

fn total() -> u64 {
    feed().packets.len() as u64
}

/// Kill-and-resume at every seeded offset: each killed run, restored from
/// its own sealed checkpoint and replayed over the regenerated feed, ends
/// with a checkpoint — and a metrics snapshot — byte-identical to the
/// uninterrupted run's. Zero silent discards throughout, the kill point
/// included.
#[test]
fn kill_and_resume_recovers_byte_identically() {
    let row = scenario::chaos_kills();
    let (whole, _) = row.supervise(analyzer(), feed(), &[]);

    for kill_at in row.kill_points(total()) {
        let (resumed, _) = row.supervise(analyzer(), feed(), &[kill_at]);
        assert_eq!(resumed.resumes, [kill_at], "no resume at kill offset {kill_at}");
        assert_eq!(resumed.images, whole.images, "checkpoint diverged after kill at {kill_at}");
        assert_eq!(
            resumed.metrics, whole.metrics,
            "metrics snapshot diverged after kill at {kill_at}"
        );
        assert!(resumed.ledger, "silent discard after kill at {kill_at}");
    }
}

/// Every injected kill leaves a flight dump — the tail of the event
/// journal — whose last event is the kill edge naming the killed offset,
/// exactly what a post-mortem needs.
#[test]
fn every_kill_leaves_a_parseable_flight_dump() {
    use ixp_vantage::obs::journal::EventKind;

    let row = scenario::chaos_kills();
    for kill_at in row.kill_points(total()) {
        let journal = ixp_vantage::obs::Journal::deterministic();
        let mut killed = row.pipeline(analyzer());
        killed.attach(&Obs::deterministic(), &journal);
        let cut = !killed.drive(feed().units(), Some(kill_at), |_| {});
        assert!(cut, "kill offset {kill_at} was never reached");
        killed.kill();
        let events = journal.tail(64);
        let tail = events.last().expect("flight dump holds the journal tail");
        assert_eq!(tail.kind, EventKind::Kill, "tail must be the kill edge");
        assert_eq!(tail.a, kill_at, "flight tail must name the killed offset");
        assert_eq!(tail.sub_agent, 0, "with no intake the kill edge names the supervisor");
        // The dump explains the failure: supervisor activity precedes it.
        assert!(
            events.iter().any(|e| matches!(e.kind, EventKind::TickStart | EventKind::TickEnd)),
            "flight dump carries no tick context for kill at {kill_at}"
        );
    }
}

/// Corrupted and truncated checkpoint images are rejected with a typed
/// error — a restore either succeeds completely or fails closed; it never
/// panics and never yields a half-restored pipeline.
#[test]
fn damaged_checkpoints_fail_closed() {
    let row = scenario::chaos_kills();
    let mut p = row.pipeline(analyzer());
    p.drive(feed().units(), Some(total() / 2), |_| {});
    let ckpt = p.kill().checkpoint;

    for seed in 0..64u64 {
        let mut flipped = ckpt.clone();
        chaos::flip_bit(&mut flipped, seed);
        let err = Supervisor::restore(&flipped, row.config())
            .err()
            .unwrap_or_else(|| panic!("bit flip (seed {seed}) restored"));
        // The error is typed and printable, not a panic payload.
        assert!(!err.to_string().is_empty());

        let truncated = chaos::truncate_at_random(&ckpt, seed);
        assert!(
            Supervisor::restore(&truncated, row.config()).is_err(),
            "truncation (seed {seed}) restored"
        );
    }
}

/// Sustained overload: with the drain stage stalled in seeded burst
/// windows, the bounded ring sheds — visibly. Every shed datagram lands in
/// the accounting (`Supervisor::fully_accounted`: offered = collector
/// datagrams + shed + queued, and each datagram in one collector bucket),
/// deadline misses are counted, and the run still recovers byte-identically
/// across a kill inside a burst.
#[test]
fn overload_sheds_visibly_and_recovers() {
    let row = scenario::chaos_overload();
    assert!(!row.burst_windows(total()).is_empty());

    let (whole, scan) = row.supervise(analyzer(), feed(), &[]);
    let stats = whole.stats;
    assert!(stats.shed > 0, "overload bursts never filled the ring");
    assert!(stats.deadline_misses > 0, "stalled ticks missed no deadlines");
    assert_eq!(stats.high_water, row.config().ring_capacity, "ring never hit capacity");
    assert_eq!(scan.shed(), stats.shed, "ring and scan disagree on sheds");
    assert!(whole.ledger, "shed accounting does not balance");

    // Killed inside the first burst — the ring is full and mid-shed — and
    // resumed; the queued datagrams are part of the checkpoint.
    let (killed, _) = row.supervise(analyzer(), feed(), &row.kill_points(total()));
    assert_eq!(killed.resumes.len(), 1, "the mid-burst kill was never reached");
    assert!(killed.ledger, "shed accounting does not balance at the mid-burst kill");
    assert_eq!(killed.images, whole.images, "divergence after mid-burst kill");
}

/// The headline gate: stream faults, overload bursts, and a chain of
/// kill-and-resume cycles together move Table 1's unique counts by less
/// than the row's drift bound against the fault-free run — and the soaked
/// pipeline's final state is byte-identical to the same chaos without any
/// kills.
#[test]
fn chaos_soak_stays_within_two_percent_drift() {
    let row = scenario::chaos_soak();
    let (whole, _) = row.supervise(analyzer(), feed(), &[]);

    let o = row.run(analyzer(), clean(), feed());
    let resumes = o.supervised.resumes.len();
    assert!(resumes >= 2, "soak exercised too few resumes: {resumes}");
    assert_eq!(o.supervised.images, whole.images, "kill chain diverged from whole run");
    assert!(o.ledger, "soak accounting does not balance");
    assert_eq!(row.check(&o), Ok(()));
}
