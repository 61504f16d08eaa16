//! `Analyzer::report_from_scan` runs while the per-IP table is live, so
//! whatever it allocates sits on top of the process's peak heap. What it
//! may hold is sized by the directories it joins against (prefixes, ASes,
//! countries) and by the servers it identifies — never by the number of
//! IPs in the table: a sorted copy of the table, 16 bytes an IP, fails
//! here. An integration test is a binary of its own, so the counting
//! allocator below is installed here and nowhere else.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering::SeqCst};

use ixp_vantage::core::{Analyzer, ServerRecord};
use ixp_vantage::netmodel::{InternetModel, ScaleConfig, Week};

/// The system allocator, tracking the process's live bytes and their
/// high-water mark. The report allocates on a helper thread as well as on
/// the caller, and one thread frees what another allocated, so only a
/// count over every thread adds up; this binary holds one test, so no
/// other test's allocations are in it.
struct PeakOfProcess;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as i64, SeqCst) + bytes as i64;
    PEAK.fetch_max(live, SeqCst);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, SeqCst);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are atomics that neither
// allocate nor touch allocator state.
unsafe impl GlobalAlloc for PeakOfProcess {
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
static ALLOCATOR: PeakOfProcess = PeakOfProcess;

/// `f`'s result, and how far the live heap rose above its level at the
/// call while `f` ran.
fn peak_above_entry<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let entry = LIVE.load(SeqCst);
    PEAK.store(entry, SeqCst);
    let out = f();
    (out, (PEAK.load(SeqCst) - entry) as u64)
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
    let with_report = LIVE.load(SeqCst);
    drop(report);
    let retained = (with_report - LIVE.load(SeqCst)) as u64;
    let transient = peak.saturating_sub(retained);

    // The census grows its record vector by doubling (at most one more
    // copy of the records), the snapshot marks seen prefixes in two byte
    // vectors and classes each AS in one, and the walk's second worker
    // adds up a peering set of its own (16 bytes a country and an AS, one
    // a prefix) until the merge; the rest is small and fixed.
    let bound = std::mem::size_of::<ServerRecord>() * servers
        + 2 * model.routing.len()
        + model.registry.len()
        + 16 * (model.countries.len() + model.registry.len())
        + model.routing.len()
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
