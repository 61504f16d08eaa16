//! `WeekScan::ingest` allocates for what it learns — a new IP, a new
//! domain, a new source — and for nothing else; `WeekStream::next`, which
//! feeds it, allocates the datagram it returns and nothing else. An
//! integration test is a binary of its own, so the counting allocator below
//! is installed here and nowhere else.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ixp_vantage::core::WeekScan;
use ixp_vantage::netmodel::{InternetModel, ScaleConfig, Week};
use ixp_vantage::traffic::{MixConfig, WeekStream};

/// The system allocator, counting the calling thread's allocations (the
/// test harness runs other tests on other threads at the same time).
struct CountingPerThread;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    // Unreachable thread-local storage (a thread being torn down) is not
    // a thread this test measures.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = ALLOCATED_BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` that neither allocates nor touches allocator state.
unsafe impl GlobalAlloc for CountingPerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's layout is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's layout is passed through as given.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout (caller's
        // contract), and this allocator only ever hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        // SAFETY: as for `dealloc`, plus the caller guarantees `new_size`
        // is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingPerThread = CountingPerThread;

/// Allocations (and reallocations) this thread makes while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    allocated(f).1
}

/// What `f` returns, how often this thread allocated while it ran, and how
/// many bytes it asked for in all.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (count, bytes) = (ALLOCATIONS.with(Cell::get), ALLOCATED_BYTES.with(Cell::get));
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - count, ALLOCATED_BYTES.with(Cell::get) - bytes)
}

/// The reference week at tiny scale, and its member count.
fn tiny_week() -> (Vec<Vec<u8>>, u32) {
    let model = InternetModel::generate(ScaleConfig::tiny(), 14);
    let week = Week::REFERENCE;
    let feed: Vec<Vec<u8>> = WeekStream::new(&model, MixConfig::default(), week, model.seed).collect();
    assert!(feed.len() > 1_000, "a feed of {} datagrams proves little", feed.len());
    (feed, model.registry.members_at(week).len() as u32)
}

#[test]
fn ingest_of_known_sources_ips_and_domains_allocates_nothing() {
    let (feed, members) = tiny_week();
    let mut scan = WeekScan::new(Week::REFERENCE, members);
    for datagram in &feed {
        scan.ingest(datagram);
    }
    let warm = scan.ingest_health().collector;
    assert_eq!(warm.accepted, feed.len() as u64);
    let (ips, domains) = (scan.unique_ips(), scan.domains.len());
    assert!(ips > 0 && domains > 0);

    // The same week again: each source's sequence numbers start over, which
    // the collector books as one restart and then accepts as before.
    let second_pass = allocations(|| {
        for datagram in &feed {
            scan.ingest(datagram);
        }
    });
    let again = scan.ingest_health().collector;
    assert_eq!(again.accepted, 2 * warm.accepted, "the second pass was not accepted");
    assert_eq!(again.restarts, warm.sources as u64);
    assert_eq!((scan.unique_ips(), scan.domains.len()), (ips, domains));
    assert_eq!(second_pass, 0, "allocations in a pass that learned nothing");

    // The slow paths of a known source: exact duplicates, and truncated
    // datagrams whose header still names the source.
    let last = feed.last().expect("non-empty feed");
    let cut = &last[..last.len() / 2];
    let faulty = allocations(|| {
        for _ in 0..100 {
            scan.ingest(last);
            scan.ingest(cut);
        }
    });
    let after = scan.ingest_health().collector;
    assert_eq!(after.duplicates, again.duplicates + 100);
    assert_eq!(after.decode_errors.total(), again.decode_errors.total() + 100);
    assert_eq!(after.unattributed_errors, 0);
    assert_eq!(faulty, 0, "allocations on the duplicate or reject path");
}

#[test]
fn a_fresh_scan_allocates_for_what_it_learns_not_per_datagram() {
    let (feed, members) = tiny_week();
    let mut scan = WeekScan::new(Week::REFERENCE, members);
    let fresh = allocations(|| {
        for datagram in &feed {
            scan.ingest(datagram);
        }
    });
    // One allocation per interned domain, and a logarithmic number of
    // growth steps of the tables themselves (a server's URI list is a slot
    // in one of them).
    assert!(scan.ips.values().any(|s| !scan.uris(s).is_empty()));
    let bound = (scan.domains.len() + 200) as u64;
    assert!(fresh > 0 && fresh <= bound, "{fresh} allocations, bound {bound}");
    assert!(
        bound < feed.len() as u64,
        "bound {bound} does not separate table growth from {} datagrams",
        feed.len()
    );
}

#[test]
fn each_generated_datagram_is_the_one_allocation_of_its_step() {
    let model = InternetModel::generate(ScaleConfig::tiny(), 14);
    let mut stream = WeekStream::new(&model, MixConfig::default(), Week::REFERENCE, model.seed);
    let mut datagrams = 0;
    let mut closing = 0;
    loop {
        let (datagram, count, bytes) = allocated(|| stream.next());
        let Some(datagram) = datagram else {
            assert_eq!(count, 0, "allocations after the last datagram");
            break;
        };
        datagrams += 1;
        // From the very first datagram to the closing one, which carries
        // every port's counters behind a short batch of samples.
        assert_eq!(
            (count, bytes, datagram.capacity()),
            (1, datagram.len() as u64, datagram.len()),
            "datagram {datagrams} of {} bytes",
            datagram.len()
        );
        closing = datagram.len();
    }
    assert!(datagrams > 1_000, "a feed of {datagrams} datagrams proves little");
    assert!(closing > 4_000, "the last datagram carried no counters: {closing} bytes");
    assert!(stream.next().is_none());
}

/// A NetFlow v9 or IPFIX data packet whose template is cached costs three
/// allocations from `offer` to the end of `drain`: the inbox copy, the
/// `records` it decodes to, and the `Vec<Drained>` handed back. (Four before
/// the two decoders became one: each data set also cloned its template's
/// field list out of the cache.)
#[test]
fn a_data_packet_under_a_cached_template_costs_its_copy_its_records_and_its_work() {
    use ixp_vantage::transport::flow::FlowRecord;
    use ixp_vantage::transport::{ipfix, netflow9, Drained, TransportConfig, TransportIntake};

    type Encode = fn(u32, u32, u16, Option<&[(u16, u16)]>, &[FlowRecord]) -> Vec<u8>;
    let dialects: [(&str, Encode); 2] =
        [("NetFlow v9", netflow9::encode::packet), ("IPFIX", ipfix::encode::packet)];
    let fields = netflow9::encode::flow_template_fields();
    let records = [FlowRecord { proto: 6, packets: 3, bytes: 1500, ..FlowRecord::default() }; 3];
    for (dialect, encode) in dialects {
        let mut intake = TransportIntake::new(TransportConfig::default());
        // The announcement, then enough data that the inbox and the
        // exporter's dedup window have reached their steady capacity.
        intake.offer(1, &encode(0, 7, 300, Some(&fields), &records));
        for sequence in 1..=40 {
            intake.offer(1, &encode(sequence, 7, 300, None, &records));
        }
        assert_eq!(intake.drain(64).len(), 41, "{dialect}: warm-up");

        let packets: Vec<Vec<u8>> =
            (41..=48).map(|sequence| encode(sequence, 7, 300, None, &records)).collect();
        let steady = allocations(|| {
            for packet in &packets {
                intake.offer(1, packet);
                let work = intake.drain(1);
                assert!(
                    matches!(&work[..], [Drained::Flows { records, .. }] if records.len() == 3),
                    "{dialect}: {work:?}"
                );
            }
        });
        assert_eq!(steady, 3 * packets.len() as u64, "{dialect}");
    }
}
