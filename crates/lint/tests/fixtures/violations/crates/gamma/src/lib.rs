//! L8 violation fixtures: Relaxed snapshot loads and order-dependent
//! merges.

use std::sync::atomic::{AtomicU64, Ordering};

/// Relaxed load directly in a snapshot entry point.
pub fn snapshot(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

/// Relaxed load one call away from a snapshot entry point.
pub fn snapshot_all(c: &AtomicU64) -> u64 {
    peek(c)
}

fn peek(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

/// Order-dependent fold: float accumulation plus an unsorted push.
pub fn merge(rx: &Receiver<f64>) -> (f64, Vec<u64>) {
    let mut sum = 0.0;
    let mut tags = Vec::new();
    while let Ok(v) = rx.recv() {
        sum += v;
        tags.push(1u64);
    }
    (sum, tags)
}
