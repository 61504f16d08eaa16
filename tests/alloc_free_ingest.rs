//! `WeekScan::ingest` allocates for what it learns — a new IP, a new
//! domain, a new source — and for nothing else; `WeekStream::next`, which
//! feeds it, allocates the datagram it returns and nothing else; and no
//! decoder of outside bytes lets a length it reads size an allocation. The
//! counting allocator is `heap`'s, installed in this binary; its per-thread
//! counts see the calling thread alone, so the tests may run side by side.

mod heap;

use std::cell::Cell;

use heap::THREAD;
use ixp_vantage::core::WeekScan;
use ixp_vantage::netmodel::{InternetModel, ScaleConfig, Week};
use ixp_vantage::traffic::{MixConfig, WeekStream};

/// What `f` returns, how often this thread allocated (and reallocated)
/// while it ran, and how many bytes it asked for in all.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (count, bytes) = THREAD.with(Cell::get);
    let out = f();
    let (count_after, bytes_after) = THREAD.with(Cell::get);
    (out, count_after - count, bytes_after - bytes)
}

/// The reference week at tiny scale, and its member count.
fn tiny_week() -> (Vec<Vec<u8>>, u32) {
    let model = InternetModel::generate(ScaleConfig::tiny(), 14);
    let week = Week::REFERENCE;
    let feed: Vec<Vec<u8>> =
        WeekStream::new(&model, MixConfig::default(), week, model.seed).collect();
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
    let second_pass = allocated(|| {
        for datagram in &feed {
            scan.ingest(datagram);
        }
    })
    .1;
    let again = scan.ingest_health().collector;
    assert_eq!(again.accepted, 2 * warm.accepted, "the second pass was not accepted");
    assert_eq!(again.restarts, warm.sources as u64);
    assert_eq!((scan.unique_ips(), scan.domains.len()), (ips, domains));
    assert_eq!(second_pass, 0, "allocations in a pass that learned nothing");

    // The slow paths of a known source: exact duplicates, and truncated
    // datagrams whose header still names the source.
    let last = feed.last().expect("non-empty feed");
    let cut = &last[..last.len() / 2];
    let faulty = allocated(|| {
        for _ in 0..100 {
            scan.ingest(last);
            scan.ingest(cut);
        }
    })
    .1;
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
    let fresh = allocated(|| {
        for datagram in &feed {
            scan.ingest(datagram);
        }
    })
    .1;
    // One allocation per interned domain, a logarithmic number of growth
    // steps of the tables themselves, and a B-tree node for every few
    // servers' URI lists.
    assert!(scan.ips.keys().any(|ip| !scan.uris((*ip).into()).is_empty()));
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
        let steady = allocated(|| {
            for packet in &packets {
                intake.offer(1, packet);
                let work = intake.drain(1);
                assert!(
                    matches!(&work[..], [Drained::Flows { records, .. }] if records.len() == 3),
                    "{dialect}: {work:?}"
                );
            }
        })
        .1;
        assert_eq!(steady, 3 * packets.len() as u64, "{dialect}");
    }
}

/// A per-IP row is at least 23 bytes, so a scan state whose row count claims
/// one row more than the bytes after it can hold is refused when the count
/// is read, before it sizes the table. (Capped at 19 bytes a row, such a
/// count passed and reserved a table larger than the whole state.) Restore
/// parses the rows on a helper thread, which this file's per-thread counter
/// cannot see; it is refused here before the helper starts.
/// `restore_heap.rs` counts what a restore allocates on both threads.
#[test]
fn a_row_count_past_the_remaining_bytes_is_refused_before_it_sizes_the_table() {
    use ixp_vantage::codec::StateError;
    use ixp_vantage::core::Category;

    let (feed, members) = tiny_week();
    let mut scan = WeekScan::new(Week::REFERENCE, members);
    for datagram in &feed {
        scan.ingest(datagram);
    }
    let mut blob = scan.save_state();
    // The count follows the header, the cascade totals and the names.
    let names: usize = scan.domains.iter().map(|name| 8 + name.len()).sum();
    let at = 25 + 24 * Category::ALL.len() + 8 + names;
    assert_eq!(blob[at..at + 8], (scan.unique_ips() as u64).to_be_bytes());
    let claimed = (blob.len() - at - 8) / 23 + 1;
    blob[at..at + 8].copy_from_slice(&(claimed as u64).to_be_bytes());

    let (restored, _, bytes) = allocated(|| WeekScan::restore_state(&blob).map(drop));
    assert!(restored.is_err(), "{claimed} rows restored");
    assert!(
        bytes < blob.len() as u64,
        "{bytes} bytes allocated for a state of {} claiming {claimed} rows",
        blob.len()
    );
    assert_eq!(restored, Err(StateError::Truncated));
}

/// Overwrite each aligned 2-byte word of `valid`, then each aligned 4-byte
/// word, with all-ones — the largest length or count the field can claim —
/// resealing a sealed record so the damage reaches the field readers, and
/// check that no call of `decode` allocates more than a bound linear in
/// what it was given.
fn hostile_words_buy_no_memory(what: &str, valid: &[u8], sealed: bool, decode: impl Fn(&[u8])) {
    use ixp_vantage::codec::append_trailer;

    let body = if sealed { &valid[..valid.len() - 8] } else { valid };
    let damaged = [2, 4].into_iter().flat_map(|width| {
        (0..body.len() / width).map(move |word| {
            let mut bytes = body.to_vec();
            bytes[word * width..(word + 1) * width].fill(0xFF);
            if sealed {
                append_trailer(&mut bytes);
            }
            (width, word * width, bytes)
        })
    });
    for (width, at, bytes) in [(0, 0, valid.to_vec())].into_iter().chain(damaged) {
        let (_, _, allocated) = allocated(|| decode(&bytes));
        let bound = 64 * bytes.len() as u64 + 64 * 1024;
        assert!(
            allocated <= bound,
            "{what}: {width}-byte word at {at} of {} bytes set to all-ones: {allocated} bytes \
             allocated, bound {bound}",
            bytes.len()
        );
    }
}

/// A count or length read off the wire or out of a state file never sizes an
/// allocation on its own: every decode entry point that takes outside bytes
/// allocates at most `64 × len + 64 KiB` for them, however they are damaged.
#[test]
fn hostile_lengths_cannot_buy_memory_at_any_decode_entry_point() {
    use ixp_vantage::sflow::{Collector, Datagram, DatagramView};
    use ixp_vantage::supervisor::{Supervisor, SupervisorConfig};
    use ixp_vantage::transport::{
        generate, ipfix, netflow5, netflow9, FlowGenConfig, TemplateCache, TemplateCacheConfig,
        TransportConfig, TransportIntake,
    };

    let (feed, members) = tiny_week();
    let closing = feed.last().expect("non-empty feed");
    for datagram in [&feed[0], closing] {
        hostile_words_buy_no_memory("DatagramView::decode", datagram, false, |b| {
            let _ = DatagramView::decode(b);
        });
        hostile_words_buy_no_memory("Datagram::decode", datagram, false, |b| {
            let _ = Datagram::decode(b);
        });
    }

    // One NetFlow v9, one IPFIX (each announcing its template) and one v5
    // packet, each decoded against a cache of its own.
    let flows = generate(&FlowGenConfig { seed: 26, packets: 3, ..FlowGenConfig::default() });
    let [(_, v9), (_, ipfix), (_, v5)] = &flows[..] else { panic!("three packets") };
    let cache = || TemplateCache::new(TemplateCacheConfig::default());
    hostile_words_buy_no_memory("netflow9::decode", v9, false, |b| {
        let _ = netflow9::decode(b, 1, &mut cache());
    });
    hostile_words_buy_no_memory("ipfix::decode", ipfix, false, |b| {
        let _ = ipfix::decode(b, 1, &mut cache());
    });
    hostile_words_buy_no_memory("netflow5::decode", v5, false, |b| {
        let _ = netflow5::decode(b);
    });

    let mut collector = Collector::new();
    let mut scan = WeekScan::new(Week::REFERENCE, members);
    for datagram in &feed[..12] {
        let _ = collector.ingest_view(datagram);
        scan.ingest(datagram);
    }
    hostile_words_buy_no_memory("Collector::restore_state", &collector.save_state(), false, |b| {
        let _ = Collector::restore_state(b);
    });
    hostile_words_buy_no_memory("WeekScan::restore_state", &scan.save_state(), false, |b| {
        let _ = WeekScan::restore_state(b);
    });

    // A supervisor whose ring still holds datagrams at the checkpoint.
    let config = SupervisorConfig {
        ring_capacity: 4,
        arrivals_per_tick: 4,
        drain_budget: 2,
        ..SupervisorConfig::default()
    };
    let mut sup = Supervisor::new(WeekScan::new(Week::REFERENCE, members), config);
    for datagram in &feed[..6] {
        sup.offer(datagram.clone());
    }
    hostile_words_buy_no_memory("Supervisor::restore", &sup.checkpoint(), true, |b| {
        let _ = Supervisor::restore(b, config);
    });

    // An intake with packets parked, queued and deduplicated.
    let mut intake = TransportIntake::new(TransportConfig::default());
    let withheld = generate(&FlowGenConfig {
        seed: 26,
        packets: 12,
        withhold: vec![(0, 6)],
        ..FlowGenConfig::default()
    });
    for (peer, packet) in &withheld {
        intake.offer(*peer, packet);
        if intake.stats().offered.is_multiple_of(3) {
            intake.drain(2);
        }
    }
    hostile_words_buy_no_memory("TransportIntake::restore_from", &intake.save_state(), true, |b| {
        let _ = TransportIntake::restore_from(b);
    });
}
