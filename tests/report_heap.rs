//! `Analyzer::report_from_scan` runs while the per-IP table is live, so
//! whatever it allocates sits on top of the process's peak heap. What it
//! may hold is sized by the directories it joins against (prefixes, ASes,
//! countries) and by the servers it identifies — never by the number of
//! IPs in the table: a sorted copy of the table, 16 bytes an IP, fails
//! here. The counting allocator is `heap`'s, installed in this binary.

mod heap;

use std::sync::atomic::Ordering::SeqCst;

use heap::{LIVE, PEAK};
use ixp_vantage::core::{Analyzer, ServerRecord};
use ixp_vantage::netmodel::{InternetModel, ScaleConfig, Week};

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
