//! Pins of the bytes [`FaultPlan`] delivers over whole `tiny` reference
//! weeks, computed at the commit before the plan moved from the owned
//! `Datagram` to `DatagramView` and `DatagramBuilder`.
//!
//! The configuration fires every branch that rewrites or drops a datagram:
//! two restarts of sub-agent 0 (so every later datagram is renumbered and
//! re-encoded), `counter_wrap` on the closing counters, an outage window,
//! and the drop, truncate, corrupt, duplicate and reorder coins.
//! `tests/decode_pins.rs` pins a budgeted 143-datagram stream; these
//! constants cover the whole week, two seeds.
//!
//! A failure here means a fault decision or a re-encoded byte moved. Do not
//! re-pin without saying so.

use std::collections::BTreeSet;

use ixp_codec::fnv64;
use ixp_faults::{FaultConfig, FaultPlan, OutageWindow};
use ixp_netmodel::{InternetModel, Week};
use ixp_sflow::DatagramView;
use ixp_traffic::{MixConfig, WeekStream};

/// `(seed, fnv64, datagrams)` of the faulted reference week.
const WEEKS: [(u64, u64, usize); 2] =
    [(2012, 0x7d16_427e_b7e4_21bc, 8_455), (99, 0xb3c2_d7e3_040c_ab1b, 8_476)];

/// Every fault kind the plan has, at rates that fire each many times.
fn every_fault(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        drop: 0.02,
        duplicate: 0.02,
        reorder: 0.05,
        truncate: 0.02,
        corrupt: 0.02,
        restarts: vec![(0, 1_000), (1, 2_000)],
        outages: vec![OutageWindow { sub_agent: 0, from: 4_000, until: 4_100 }],
        counter_wrap: true,
    }
}

#[test]
fn a_faulted_tiny_week_is_byte_stable_across_commits() {
    for (seed, fnv, datagrams) in WEEKS {
        let model = InternetModel::tiny(seed);
        let feed = || WeekStream::new(&model, MixConfig::default(), Week::REFERENCE, seed);
        // The closing counters as the clean week exports them, and as
        // `counter_wrap` pushes them.
        let pushed: BTreeSet<(u32, u32)> = feed()
            .filter_map(|d| DatagramView::decode(&d).ok().map(|v| v.counters().collect::<Vec<_>>()))
            .flatten()
            .map(|c| (c.source_id, c.if_in_ucast.wrapping_add(u32::MAX - (1 << 18))))
            .collect();
        let mut plan = FaultPlan::new(feed(), every_fault(seed));
        // Length-framed, so a truncation cannot hide behind its neighbour.
        let mut bytes = Vec::new();
        let (mut count, mut wrapped) = (0, 0);
        for datagram in plan.by_ref() {
            bytes.extend_from_slice(&(datagram.len() as u64).to_be_bytes());
            bytes.extend_from_slice(&datagram);
            count += 1;
            if let Ok(view) = DatagramView::decode(&datagram) {
                wrapped += view
                    .counters()
                    .filter(|c| pushed.contains(&(c.source_id, c.if_in_ucast)))
                    .count();
            }
        }
        let stats = plan.stats();
        assert!(wrapped > 0, "seed {seed}: no wrapped counters delivered");
        assert_eq!(stats.restarts_injected, 1, "seed {seed}: {stats:?}");
        assert!(stats.outage_dropped > 0 && stats.dropped > 0, "seed {seed}: {stats:?}");
        assert!(stats.truncated > 0 && stats.corrupted > 0, "seed {seed}: {stats:?}");
        assert!(stats.duplicated > 0 && stats.reordered > 0, "seed {seed}: {stats:?}");
        let got = (fnv64(&bytes), count);
        assert_eq!(got, (fnv, datagrams), "seed {seed}: got ({:#018x}, {})", got.0, got.1);
    }
}
