//! Chaos-soak acceptance gate: the supervised pipeline must survive
//! process-level chaos — kill-and-resume at seeded datagram offsets,
//! sustained overload that sheds into the bounded intake ring, and
//! corrupted or truncated checkpoint images — with byte-identical
//! recovery, zero silent discards, and Table 1 drift under 2 %.

mod common;

use std::sync::OnceLock;

use common::{analyzer, clean, drift_pct, model};
use ixp_vantage::core::{visibility, WeekScan};
use ixp_vantage::faults::{chaos, FaultConfig, FaultPlan};
use ixp_vantage::netmodel::Week;
use ixp_vantage::obs::Obs;
use ixp_vantage::supervisor::{Supervisor, SupervisorConfig};

const SEED: u64 = 777;

/// The reference week's datagrams after a moderately hostile fault plan,
/// materialized once — every supervised arm must see identical bytes.
fn faulted_feed() -> &'static Vec<Vec<u8>> {
    static F: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    F.get_or_init(|| {
        let cfg = FaultConfig {
            seed: SEED,
            drop: 0.02,
            duplicate: 0.005,
            reorder: 0.005,
            truncate: 0.001,
            corrupt: 0.001,
            restarts: vec![(0, 400)],
            ..FaultConfig::default()
        };
        FaultPlan::new(analyzer().feed(Week::REFERENCE), cfg).collect()
    })
}

fn members() -> u32 {
    model().registry.members_at(Week::REFERENCE).len() as u32
}

fn config() -> SupervisorConfig {
    SupervisorConfig {
        ring_capacity: 128,
        arrivals_per_tick: 32,
        drain_budget: 48,
        ..SupervisorConfig::default()
    }
}

fn fresh(obs: Option<&Obs>) -> Supervisor {
    match obs {
        Some(obs) => Supervisor::with_obs(
            WeekScan::with_obs(Week::REFERENCE, members(), obs),
            config(),
            obs,
        ),
        None => Supervisor::new(WeekScan::new(Week::REFERENCE, members()), config()),
    }
}

/// Kill-and-resume at every seeded offset: each killed run, restored from
/// its own sealed checkpoint and replayed over the regenerated feed, ends
/// with a checkpoint — and a metrics snapshot — byte-identical to the
/// uninterrupted run's. Zero silent discards throughout.
#[test]
fn kill_and_resume_recovers_byte_identically() {
    let feed = faulted_feed();
    let obs_whole = Obs::deterministic();
    let mut whole = fresh(Some(&obs_whole));
    whole.run_feed(feed.iter().cloned(), None);
    let whole_ckpt = whole.checkpoint();
    let whole_metrics = ixp_vantage::obs::json::render(&obs_whole.snapshot());

    for kill_at in chaos::kill_offsets(SEED, feed.len() as u64, 4) {
        let mut killed = fresh(None);
        let done = killed.run_feed(feed.iter().cloned(), Some(kill_at));
        assert!(!done, "kill offset {kill_at} was never reached");
        let ckpt = killed.checkpoint();
        drop(killed);

        let obs = Obs::deterministic();
        let mut resumed = Supervisor::restore(&ckpt, config())
            .unwrap_or_else(|e| panic!("restore at {kill_at}: {e}"));
        resumed.bind_obs(&obs);
        assert_eq!(resumed.offered(), kill_at, "resume cursor at {kill_at}");
        resumed.run_feed(feed.iter().cloned(), None);

        assert_eq!(
            resumed.checkpoint(),
            whole_ckpt,
            "checkpoint diverged after kill at {kill_at}"
        );
        assert_eq!(
            ixp_vantage::obs::json::render(&obs.snapshot()),
            whole_metrics,
            "metrics snapshot diverged after kill at {kill_at}"
        );
        assert!(resumed.fully_accounted(), "silent discard after kill at {kill_at}");
    }
}

/// Every injected kill leaves a flight dump beside the checkpoint — the
/// sealed tail of the event journal — that parses fail-closed and whose
/// last event names the killed offset and tick count, exactly what a
/// post-mortem needs. A bit-flipped dump is rejected with a typed error.
#[test]
fn every_kill_leaves_a_parseable_flight_dump() {
    use ixp_vantage::obs::journal::{self, EventKind};

    let feed = faulted_feed();
    let dir = std::env::temp_dir().join(format!("ixp-chaos-flight-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    for kill_at in chaos::kill_offsets(SEED, feed.len() as u64, 4) {
        let journal = ixp_vantage::obs::Journal::deterministic();
        let mut killed = fresh(None);
        killed.bind_journal(journal.clone());
        let done = killed.run_feed(feed.iter().cloned(), Some(kill_at));
        assert!(!done, "kill offset {kill_at} was never reached");

        // As the repro binary's kill path: record the kill edge, then dump
        // the journal tail to `<checkpoint>.flight`.
        journal.record(EventKind::Kill, 0, 0, killed.offered(), killed.stats().ticks);
        let path = dir.join(format!("kill-{kill_at}.ckpt.flight"));
        std::fs::write(&path, journal.dump_flight(64)).unwrap();
        assert!(path.is_file(), "flight dump missing after kill at {kill_at}");

        let bytes = std::fs::read(&path).unwrap();
        let events = journal::parse_flight(&bytes)
            .unwrap_or_else(|e| panic!("flight dump after kill at {kill_at}: {e}"));
        let tail = events.last().expect("flight dump holds the journal tail");
        assert_eq!(tail.kind, EventKind::Kill, "tail must be the kill edge");
        assert_eq!(tail.a, kill_at, "flight tail must name the killed offset");
        // The dump explains the failure: supervisor activity precedes it.
        assert!(
            events.iter().any(|e| matches!(e.kind, EventKind::TickStart | EventKind::TickEnd)),
            "flight dump carries no tick context for kill at {kill_at}"
        );

        // A damaged dump is rejected with a typed error, never a panic.
        let mut flipped = bytes.clone();
        chaos::flip_bit(&mut flipped, kill_at);
        let err = journal::parse_flight(&flipped)
            .err()
            .unwrap_or_else(|| panic!("bit-flipped flight dump (kill {kill_at}) parsed"));
        assert!(!err.to_string().is_empty());
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// Corrupted and truncated checkpoint images are rejected with a typed
/// error — a restore either succeeds completely or fails closed; it never
/// panics and never yields a half-restored pipeline.
#[test]
fn damaged_checkpoints_fail_closed() {
    let feed = faulted_feed();
    let mut sup = fresh(None);
    sup.run_feed(feed.iter().cloned(), Some((feed.len() / 2) as u64));
    let ckpt = sup.checkpoint();

    for seed in 0..64u64 {
        let mut flipped = ckpt.clone();
        chaos::flip_bit(&mut flipped, seed);
        let err = Supervisor::restore(&flipped, config())
            .err()
            .unwrap_or_else(|| panic!("bit flip (seed {seed}) restored"));
        // The error is typed and printable, not a panic payload.
        assert!(!err.to_string().is_empty());

        let truncated = chaos::truncate_at_random(&ckpt, seed);
        assert!(
            Supervisor::restore(&truncated, config()).is_err(),
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
    let feed = faulted_feed();
    let total = feed.len() as u64;
    let bursts = chaos::overload_bursts(SEED, total, 2, (total / 8).max(1));
    assert!(!bursts.is_empty());

    let drive = |sup: &mut Supervisor, kill_at: Option<u64>| -> bool {
        let skip = sup.offered() as usize;
        for (i, dg) in feed.iter().enumerate().skip(skip) {
            if kill_at.is_some_and(|k| sup.offered() >= k) {
                return false;
            }
            sup.set_stalled(bursts.iter().any(|b| b.contains(i as u64 + 1)));
            sup.offer(dg.clone());
        }
        sup.set_stalled(false);
        sup.finish();
        true
    };

    let mut whole = fresh(None);
    drive(&mut whole, None);
    let stats = whole.stats();
    assert!(stats.shed > 0, "overload bursts never filled the ring");
    assert!(stats.deadline_misses > 0, "stalled ticks missed no deadlines");
    assert_eq!(stats.high_water, config().ring_capacity, "ring never hit capacity");
    assert_eq!(whole.scan().shed(), stats.shed, "ring and scan disagree on sheds");
    assert!(whole.fully_accounted(), "shed accounting does not balance");
    let whole_ckpt = whole.checkpoint();

    // Kill inside the first burst — the ring is full and mid-shed — and
    // resume; the queued datagrams are part of the checkpoint.
    let kill_at = bursts.first().map(|b| b.from + (b.until - b.from) / 2).unwrap_or(1);
    let mut killed = fresh(None);
    assert!(!drive(&mut killed, Some(kill_at)));
    let ckpt = killed.checkpoint();
    let mut resumed = Supervisor::restore(&ckpt, config()).expect("restore mid-burst");
    drive(&mut resumed, None);
    assert_eq!(resumed.checkpoint(), whole_ckpt, "divergence after mid-burst kill");
}

/// The headline gate: stream faults, overload bursts, and a chain of
/// kill-and-resume cycles together move Table 1's unique-prefix and
/// unique-AS counts by less than 2 % against the fault-free run — and the
/// soaked pipeline's final state is byte-identical to the same chaos
/// without any kills.
#[test]
fn chaos_soak_stays_within_two_percent_drift() {
    let feed = faulted_feed();
    let total = feed.len() as u64;
    let bursts = chaos::overload_bursts(SEED.wrapping_add(1), total, 2, (total / 10).max(1));
    let kills = chaos::kill_offsets(SEED.wrapping_add(1), total, 3);

    let drive = |sup: &mut Supervisor, kill_at: Option<u64>| -> bool {
        let skip = sup.offered() as usize;
        for (i, dg) in feed.iter().enumerate().skip(skip) {
            if kill_at.is_some_and(|k| sup.offered() >= k) {
                return false;
            }
            sup.set_stalled(bursts.iter().any(|b| b.contains(i as u64 + 1)));
            sup.offer(dg.clone());
        }
        sup.set_stalled(false);
        sup.finish();
        true
    };

    let mut whole = fresh(None);
    drive(&mut whole, None);
    let whole_ckpt = whole.checkpoint();

    let mut sup = fresh(None);
    let mut resumes = 0;
    for &k in &kills {
        if drive(&mut sup, Some(k)) {
            break;
        }
        let ckpt = sup.checkpoint();
        sup = Supervisor::restore(&ckpt, config()).expect("restore in kill chain");
        resumes += 1;
    }
    drive(&mut sup, None);
    assert!(resumes >= 2, "soak exercised too few resumes: {resumes}");
    assert_eq!(sup.checkpoint(), whole_ckpt, "kill chain diverged from whole run");

    assert!(sup.fully_accounted(), "soak accounting does not balance");
    let report = analyzer().report_from_scan(sup.into_scan());
    let t1 = visibility::table1(&report.snapshot);
    let t1_clean = visibility::table1(&clean().snapshot);
    let prefixes = drift_pct(t1.peering.prefixes, t1_clean.peering.prefixes);
    let ases = drift_pct(t1.peering.ases, t1_clean.peering.ases);
    assert!(prefixes < 2.0, "unique-prefix drift {prefixes:.2} % >= 2 %");
    assert!(ases < 2.0, "unique-AS drift {ases:.2} % >= 2 %");
}
