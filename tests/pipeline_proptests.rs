//! Property tests for the supervised pipeline, driven through the feed loop
//! every caller runs (`Pipeline::drive`, no intake in front): kill/resume
//! byte-identity at arbitrary datagram boundaries, and fail-closed
//! checkpoint decoding.

use std::net::Ipv4Addr;

use proptest::prelude::*;

use ixp_bench::pipeline::{Pipeline, SFLOW_PEER};
use ixp_vantage::core::WeekScan;
use ixp_vantage::netmodel::Week;
use ixp_vantage::sflow::Datagram;
use ixp_vantage::supervisor::{HealthPolicy, Supervisor, SupervisorConfig};

fn dg(sub: u32, seq: u32) -> Vec<u8> {
    Datagram {
        agent_address: Ipv4Addr::new(10, 200, 0, 1),
        sub_agent_id: sub,
        sequence: seq,
        uptime_ms: seq.wrapping_mul(25),
        samples: vec![],
        counters: vec![],
    }
    .encode()
}

/// A feed over a couple of sub-agents with seeded gaps and garbage mixed
/// in — enough disorder to move the health machine and the error counters.
fn feed(seqs: &[u32], garbage_every: usize) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for (i, &s) in seqs.iter().enumerate() {
        if garbage_every > 0 && i % garbage_every == garbage_every - 1 {
            out.push(vec![0xFF; 7]);
        }
        out.push(dg((i % 2) as u32, s));
    }
    out
}

fn config(ring: usize, per_tick: u64, budget: usize) -> SupervisorConfig {
    SupervisorConfig {
        ring_capacity: ring,
        arrivals_per_tick: per_tick,
        drain_budget: budget,
        policy: HealthPolicy::default(),
    }
}

/// Drive `sup` over `stream` from its cursor on, stopping before unit
/// `kill_at` if one is given.
fn drive(sup: Supervisor, stream: &[Vec<u8>], kill_at: Option<u64>) -> Pipeline {
    let mut pipe = Pipeline::new(sup, None);
    pipe.drive(stream.iter().cloned().map(|d| (SFLOW_PEER, d)), kill_at, |_| {});
    pipe
}

fn fresh(cfg: SupervisorConfig) -> Supervisor {
    Supervisor::new(WeekScan::new(Week::REFERENCE, 10), cfg)
}

proptest! {
    /// Killing a supervised run at ANY datagram boundary, checkpointing,
    /// restoring, and replaying the rest of the feed yields a checkpoint
    /// byte-identical to the uninterrupted run's — under arbitrary ring
    /// capacities, tick spacings, and drain budgets (including ones that
    /// force sheds and deadline misses).
    #[test]
    fn kill_resume_is_byte_identical(
        seqs in proptest::collection::vec(1u32..200, 1..60),
        garbage_every in 0usize..6,
        ring in 1usize..12,
        per_tick in 1u64..10,
        budget in 1usize..6,
        kill in any::<proptest::sample::Index>(),
    ) {
        let stream = feed(&seqs, garbage_every);
        let cfg = config(ring, per_tick, budget);

        let whole = drive(fresh(cfg), &stream, None);

        let kill_at = kill.index(stream.len() + 1) as u64;
        let killed = drive(fresh(cfg), &stream, Some(kill_at));
        prop_assert!(killed.balances());
        let mid = killed.supervisor().checkpoint();

        let restored = Supervisor::restore(&mid, cfg).expect("restore own checkpoint");
        let resumed = drive(restored, &stream, None);

        prop_assert_eq!(resumed.supervisor().checkpoint(), whole.supervisor().checkpoint());
        prop_assert!(resumed.balances());
    }

    /// Any strict truncation and any single byte flip of a checkpoint
    /// image is rejected with a typed error — the envelope checksum and
    /// payload validation fail closed, never panic, never half-restore.
    #[test]
    fn checkpoint_damage_is_rejected_typed(
        seqs in proptest::collection::vec(1u32..100, 1..30),
        kill in any::<proptest::sample::Index>(),
        cut in any::<proptest::sample::Index>(),
        flip_at in any::<proptest::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let stream = feed(&seqs, 4);
        let cfg = config(4, 3, 2);
        let killed = drive(fresh(cfg), &stream, Some(kill.index(stream.len()) as u64));
        let ckpt = killed.supervisor().checkpoint();

        let prefix: Vec<u8> = ckpt.iter().copied().take(cut.index(ckpt.len())).collect();
        prop_assert!(Supervisor::restore(&prefix, cfg).is_err());

        let mut bad = ckpt.clone();
        let j = flip_at.index(bad.len());
        bad[j] ^= flip;
        prop_assert!(Supervisor::restore(&bad, cfg).is_err());
    }
}
