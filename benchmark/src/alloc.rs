//! A counting global allocator, installed in the benchmark binary only:
//! live bytes, their peak, and allocation count and volume. Counts are
//! exact and repeat run to run, which is why `peak_heap_mb` and the
//! `*.allocs_per_*` layer metrics can carry tight bounds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Wraps the system allocator and counts what passes through it.
pub struct Counting;

// Statistics only: no other data is published through these, so Relaxed.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(by: u64) {
    ALLOCS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(by, Relaxed);
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through as given.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through as given.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from this allocator with this layout (caller's
        // contract), and this allocator only ever hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, plus the caller guarantees `new_size`
        // is valid for `layout.align()`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grew(new_size as u64);
        }
        p
    }
}

/// A reading of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reading {
    /// Bytes currently allocated.
    pub live: u64,
    /// Highest `live` since the last [`reset_peak`].
    pub peak: u64,
    /// Allocations made so far (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested so far.
    pub alloc_bytes: u64,
}

/// Read all four counters.
pub fn read() -> Reading {
    Reading {
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
        allocs: ALLOCS.load(Relaxed),
        alloc_bytes: ALLOC_BYTES.load(Relaxed),
    }
}

/// Restart peak tracking from the current live level and return that level.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Allocations and bytes requested while `f` ran.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let before = read();
    let out = f();
    let after = read();
    (
        out,
        after.allocs - before.allocs,
        after.alloc_bytes - before.alloc_bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // The counters are process-wide and `cargo test` runs tests on parallel
    // threads, so these assert lower bounds and deltas of their own making.
    #[test]
    fn counts_allocations_and_bytes() {
        let (v, allocs, bytes) = count(|| vec![0u8; 4096]);
        assert!(allocs >= 1);
        assert!(bytes >= 4096);
        drop(v);
    }

    #[test]
    fn peak_tracks_the_high_water_mark() {
        // A block far larger than anything the other tests hold, so their
        // traffic cannot hide it.
        const BIG: u64 = 64 << 20;
        const SLACK: u64 = 16 << 20;
        let base = reset_peak();
        let big = vec![1u8; BIG as usize];
        assert!(read().live + SLACK >= base + BIG);
        drop(big);
        let after = read();
        assert!(
            after.peak + SLACK >= base + BIG,
            "peak forgets nothing until reset"
        );
        assert!(after.live < after.peak);
    }

    #[test]
    fn realloc_is_counted_once_and_rebalances_live() {
        let mut v: Vec<u8> = Vec::with_capacity(1 << 16);
        v.push(1);
        let (_, allocs, bytes) = count(|| v.reserve_exact(1 << 18));
        assert!(allocs >= 1);
        assert!(bytes >= 1 << 18);
    }
}
