//! L8 clean fixtures: each construct mirrors a violation in the
//! violations tree, written the way the rules want it.

use std::sync::atomic::{AtomicU64, Ordering};

/// Acquire load on the snapshot path.
pub fn snapshot(c: &AtomicU64) -> u64 {
    c.load(Ordering::Acquire)
}

/// Relaxed is fine for a writer (not reachable from a snapshot seed).
pub fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

/// Index-keyed merge: arrival order cannot leak into the result.
pub fn merge(rx: &Receiver<(usize, u64)>, slots: &mut Vec<u64>) {
    while let Ok((i, v)) = rx.recv() {
        if let Some(slot) = slots.get_mut(i) {
            *slot = v;
        }
    }
}

/// Collected then sorted: the result is order-independent.
pub fn merge_sorted(rx: &Receiver<u64>) -> Vec<u64> {
    let mut out = Vec::new();
    while let Ok(v) = rx.recv() {
        out.push(v);
    }
    out.sort_unstable();
    out
}
