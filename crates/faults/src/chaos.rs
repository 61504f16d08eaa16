//! Process-level chaos scenarios for the supervised pipeline.
//!
//! [`FaultPlan`](crate::FaultPlan) perturbs the *datagram stream*; this
//! module perturbs the *process around it*: where to kill a run (so the
//! chaos-soak gate can checkpoint and resume at seeded offsets), when to
//! stall the drain stage (sustained overload bursts that fill the intake
//! ring and force shedding), and how to damage a checkpoint image
//! (truncation, bit flips) to prove restores fail closed.
//!
//! Everything is seeded and pure — same seed, same scenario — so a chaos
//! soak is as replayable as the clean experiment it perturbs.

use std::collections::BTreeSet;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A sustained-overload window: the supervisor's drain stage is stalled
/// while the 1-based offered-datagram index is in `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstWindow {
    /// First offered index under overload (1-based, inclusive).
    pub from: u64,
    /// First offered index past the overload (exclusive).
    pub until: u64,
}

impl BurstWindow {
    /// True if 1-based offered index `i` falls inside the window.
    pub fn contains(&self, i: u64) -> bool {
        (self.from..self.until).contains(&i)
    }
}

/// `n` distinct, sorted kill offsets in `[1, total]`: the offered-datagram
/// counts at which a supervised run is killed and resumed from checkpoint.
/// Returns fewer than `n` when `total` cannot supply that many distinct
/// offsets; empty when `total` is 0.
pub fn kill_offsets(seed: u64, total: u64, n: usize) -> Vec<u64> {
    if total == 0 || n == 0 {
        return Vec::new();
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6b69_6c6c);
    let want = (n as u64).min(total);
    let mut offsets = BTreeSet::new();
    // Distinct draws terminate because want ≤ total (the range size).
    while (offsets.len() as u64) < want {
        offsets.insert(rng.gen_range(1..=total));
    }
    offsets.into_iter().collect()
}

/// `n` non-overlapping, sorted overload bursts across a feed of `total`
/// datagrams, each roughly `burst_len` datagrams long. Degenerate inputs
/// (zero length or a feed too short to fit a burst) yield fewer or no
/// windows rather than panicking.
pub fn overload_bursts(seed: u64, total: u64, n: usize, burst_len: u64) -> Vec<BurstWindow> {
    if total == 0 || n == 0 || burst_len == 0 {
        return Vec::new();
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0062_7572_7374);
    let len = burst_len.min(total);
    // Carve the feed into n equal slots and place one burst per slot, so
    // windows never overlap and stay sorted by construction.
    let slot = total / n as u64;
    if slot == 0 {
        return Vec::new();
    }
    let mut bursts = Vec::new();
    for k in 0..n as u64 {
        let slot_start = k * slot + 1;
        let room = slot.saturating_sub(len);
        let from = slot_start + if room > 0 { rng.gen_range(0..=room) } else { 0 };
        let until = (from + len).min(k * slot + slot + 1);
        if until > from {
            bursts.push(BurstWindow { from, until });
        }
    }
    bursts
}

/// Carve `total` 0-based indices into `n` equal slots and place one
/// `len`-long window per slot — non-overlapping and sorted by
/// construction. The shared shape behind the template-churn windows.
fn carve_windows(mut rng: SmallRng, total: u64, n: usize, len: u64) -> Vec<(u64, u64)> {
    if total == 0 || n == 0 || len == 0 {
        return Vec::new();
    }
    let len = len.min(total);
    let slot = total / n as u64;
    if slot == 0 {
        return Vec::new();
    }
    let mut windows = Vec::new();
    for k in 0..n as u64 {
        let slot_start = k * slot;
        let room = slot.saturating_sub(len);
        let from = slot_start + if room > 0 { rng.gen_range(0..=room) } else { 0 };
        let until = (from + len).min(slot_start + slot);
        if until > from {
            windows.push((from, until));
        }
    }
    windows
}

/// `n` non-overlapping template-withhold windows over a flow workload of
/// `total` packets: 0-based half-open `[from, until)` ranges where the
/// generator suppresses template announcements, so data records outrun
/// their templates and the transport intake must park or shed them.
pub fn withhold_windows(seed: u64, total: u64, n: usize, len: u64) -> Vec<(u64, u64)> {
    carve_windows(SmallRng::seed_from_u64(seed ^ 0x7769_7468), total, n, len)
}

/// `n` non-overlapping template-flap windows: ranges where the announced
/// template layout changes, forcing refresh-on-conflict revisions in the
/// transport template cache.
pub fn flap_windows(seed: u64, total: u64, n: usize, len: u64) -> Vec<(u64, u64)> {
    carve_windows(SmallRng::seed_from_u64(seed ^ 0x666c_6170), total, n, len)
}

/// `n` distinct, sorted 0-based exporter-restart offsets in `[1, total)`:
/// packet indices at which the sending exporter reboots mid-template-set
/// (sequence counters reset, announcement state forgotten). Index 0 is
/// excluded — a restart before the first packet is not a restart.
pub fn exporter_restart_offsets(seed: u64, total: u64, n: usize) -> Vec<u64> {
    if total < 2 || n == 0 {
        return Vec::new();
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6578_7265);
    let want = (n as u64).min(total - 1);
    let mut offsets = BTreeSet::new();
    // Distinct draws terminate because want ≤ total - 1 (the range size).
    while (offsets.len() as u64) < want {
        offsets.insert(rng.gen_range(1..total));
    }
    offsets.into_iter().collect()
}

/// Flip one seeded-random bit of `bytes` (no-op on an empty slice).
/// Models single-bit storage corruption of a checkpoint image.
pub fn flip_bit(bytes: &mut [u8], seed: u64) {
    if bytes.is_empty() {
        return;
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x666c_6970);
    let i = rng.gen_range(0..bytes.len());
    let bit = rng.gen_range(0..8u32);
    if let Some(b) = bytes.get_mut(i) {
        *b ^= 1 << bit;
    }
}

/// Cut `bytes` short at a seeded-random length in `[0, len)` (empty input
/// stays empty). Models a checkpoint write that lost the race with the
/// kill — the classic torn-write crash artifact.
pub fn truncate_at_random(bytes: &[u8], seed: u64) -> Vec<u8> {
    if bytes.is_empty() {
        return Vec::new();
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0074_7275_6e63);
    let keep = rng.gen_range(0..bytes.len());
    bytes.iter().copied().take(keep).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_offsets_are_distinct_sorted_in_range_and_deterministic() {
        let a = kill_offsets(7, 1000, 10);
        let b = kill_offsets(7, 1000, 10);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&k| (1..=1000).contains(&k)));
        assert_ne!(a, kill_offsets(8, 1000, 10));
    }

    #[test]
    fn kill_offsets_handle_degenerate_inputs() {
        assert!(kill_offsets(1, 0, 5).is_empty());
        assert!(kill_offsets(1, 10, 0).is_empty());
        // More kills requested than the feed has boundaries: all of them.
        assert_eq!(kill_offsets(1, 3, 10), vec![1, 2, 3]);
    }

    #[test]
    fn overload_bursts_are_sorted_and_non_overlapping() {
        let bursts = overload_bursts(42, 10_000, 4, 500);
        assert_eq!(bursts.len(), 4);
        for pair in bursts.windows(2) {
            assert!(pair[0].until <= pair[1].from);
        }
        for b in &bursts {
            assert!(b.until > b.from);
            assert!(b.until - b.from <= 500);
        }
        assert_eq!(bursts, overload_bursts(42, 10_000, 4, 500));
    }

    #[test]
    fn overload_bursts_handle_degenerate_inputs() {
        assert!(overload_bursts(1, 0, 3, 10).is_empty());
        assert!(overload_bursts(1, 100, 0, 10).is_empty());
        assert!(overload_bursts(1, 100, 3, 0).is_empty());
        // Feed shorter than the requested slots still yields valid windows.
        for b in overload_bursts(1, 2, 5, 10) {
            assert!(b.until > b.from);
        }
    }

    #[test]
    fn template_windows_are_sorted_non_overlapping_and_deterministic() {
        for windows in [withhold_windows(7, 4000, 3, 300), flap_windows(7, 4000, 3, 300)] {
            assert_eq!(windows.len(), 3);
            for pair in windows.windows(2) {
                assert!(pair[0].1 <= pair[1].0);
            }
            for (from, until) in &windows {
                assert!(until > from);
                assert!(until - from <= 300);
            }
        }
        assert_eq!(withhold_windows(7, 4000, 3, 300), withhold_windows(7, 4000, 3, 300));
        // Different salts: withhold and flap windows land differently.
        assert_ne!(withhold_windows(7, 4000, 3, 300), flap_windows(7, 4000, 3, 300));
        assert!(withhold_windows(1, 0, 3, 10).is_empty());
        assert!(flap_windows(1, 100, 0, 10).is_empty());
    }

    #[test]
    fn exporter_restarts_are_distinct_sorted_and_never_at_zero() {
        let a = exporter_restart_offsets(5, 1000, 4);
        assert_eq!(a, exporter_restart_offsets(5, 1000, 4));
        assert_eq!(a.len(), 4);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&k| (1..1000).contains(&k)));
        assert!(exporter_restart_offsets(5, 1, 4).is_empty());
        assert!(exporter_restart_offsets(5, 0, 4).is_empty());
        // More restarts requested than offsets exist: all of them.
        assert_eq!(exporter_restart_offsets(5, 4, 10), vec![1, 2, 3]);
    }

    #[test]
    fn flip_bit_changes_exactly_one_bit() {
        let original = vec![0u8; 64];
        let mut flipped = original.clone();
        flip_bit(&mut flipped, 9);
        let differing: u32 = original
            .iter()
            .zip(&flipped)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(differing, 1);
        let mut empty: Vec<u8> = Vec::new();
        flip_bit(&mut empty, 9);
        assert!(empty.is_empty());
    }

    #[test]
    fn truncate_at_random_always_shortens() {
        let bytes = vec![7u8; 128];
        for seed in 0..32 {
            let cut = truncate_at_random(&bytes, seed);
            assert!(cut.len() < bytes.len());
            assert_eq!(cut, truncate_at_random(&bytes, seed));
        }
        assert!(truncate_at_random(&[], 1).is_empty());
    }
}
