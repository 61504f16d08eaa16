//! `Analyzer::report_from_scan` runs while the per-IP table is live, so
//! whatever it allocates sits on top of the process's peak heap. What it
//! may hold is sized by the directories it joins against (prefixes, ASes,
//! countries) and by the servers it identifies — never by the number of
//! IPs in the table: a sorted copy of the table, 16 bytes an IP, fails
//! here. An integration test is a binary of its own, so the counting
//! allocator below is installed here and nowhere else.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ixp_vantage::core::{Analyzer, ServerRecord};
use ixp_vantage::netmodel::{InternetModel, ScaleConfig, Week};

/// The system allocator, tracking the calling thread's live bytes and
/// their high-water mark (the test harness runs other tests on other
/// threads at the same time).
struct PeakPerThread;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    // Unreachable thread-local storage (a thread being torn down) is not
    // a thread this test measures.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes as i64);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrink(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - bytes as i64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialised
// thread-local `Cell`s that neither allocate nor touch allocator state.
unsafe impl GlobalAlloc for PeakPerThread {
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
static ALLOCATOR: PeakPerThread = PeakPerThread;

/// `f`'s result, and how far this thread's live heap rose above its level
/// at the call while `f` ran.
fn peak_above_entry<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let entry = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(entry));
    let out = f();
    (out, (PEAK.with(Cell::get) - entry) as u64)
}

#[test]
fn report_transient_heap_is_sized_by_servers_and_directories_not_by_the_ip_table() {
    let model = InternetModel::generate(ScaleConfig::tiny(), 14);
    let analyzer = Analyzer::new(&model);
    let scan = analyzer.scan_week(Week::REFERENCE);
    let unique_ips = scan.unique_ips();

    let (report, peak) = peak_above_entry(|| analyzer.report_from_scan(scan));
    assert!(report.snapshot.peering.ips > 0 && !report.census.is_empty());
    let servers = report.census.len();

    // What the call held at its peak beyond the report it returned.
    let with_report = LIVE.with(Cell::get);
    drop(report);
    let retained = (with_report - LIVE.with(Cell::get)) as u64;
    let transient = peak.saturating_sub(retained);

    // The census grows its record vector by doubling (at most one more
    // copy of the records), the snapshot marks seen prefixes in two byte
    // vectors and classes each AS in one; the rest is small and fixed.
    let bound = std::mem::size_of::<ServerRecord>() * servers
        + 2 * model.routing.len()
        + model.registry.len()
        + 8 * 1024;
    assert!(
        transient <= bound as u64,
        "report_from_scan held {transient} bytes beyond its result ({retained}), bound {bound}"
    );
    assert!(
        bound < 16 * unique_ips,
        "bound {bound} would let a 16-byte-per-IP copy of {unique_ips} IPs through"
    );
}
