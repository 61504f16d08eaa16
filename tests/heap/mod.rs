//! The counting allocator of the root tests: the system allocator,
//! counting the process's live bytes, their high-water mark and the blocks
//! it hands out, and each thread's blocks and bytes. The report allocates
//! on a helper thread as well as on the caller, and one thread frees what
//! another allocated, so only a count over every thread adds up. A test file
//! that declares `mod heap;` installs this in its own binary; one that reads
//! the process-wide counts holds one test, so no other test's allocations
//! are in them, while the per-thread counts see the calling thread alone.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering::SeqCst};

/// Bytes live now.
pub(crate) static LIVE: AtomicI64 = AtomicI64::new(0);
/// The high-water mark of `LIVE` since it was last reset.
pub(crate) static PEAK: AtomicI64 = AtomicI64::new(0);
/// Blocks handed out: every `alloc`, `alloc_zeroed` and `realloc`.
pub(crate) static BLOCKS: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// The blocks this thread has been handed, counted as `BLOCKS` is, and
    /// the bytes it asked for in them (a `realloc` counts its new size).
    pub(crate) static THREAD: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as i64, SeqCst) + bytes as i64;
    PEAK.fetch_max(live, SeqCst);
    BLOCKS.fetch_add(1, SeqCst);
    // Unreachable thread-local storage (a thread being torn down) is not
    // a thread a test measures.
    let _ = THREAD.try_with(|n| n.set((n.get().0 + 1, n.get().1 + bytes as u64)));
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, SeqCst);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters (atomics, const-initialised
// thread-local `Cell`s) neither allocate nor touch allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's layout is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's layout is passed through as given.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from this allocator with this layout (caller's
        // contract), and this allocator only ever hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        // SAFETY: as for `dealloc`, plus the caller guarantees `new_size`
        // is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;
