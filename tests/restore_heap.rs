//! `WeekScan::restore_state` rebuilds the per-IP table while the process
//! holds the checkpoint image, so what it allocates beside the scan it
//! returns sits on top of the peak heap. A helper thread parses the rows
//! and builds the URI lists while the caller inserts: restore may hold the
//! table, the URI lists and the helper's fixed chunk buffers, and no copy
//! of the rows. The helper allocates on a thread of its own, which a
//! per-thread counter (as in `alloc_free_ingest.rs`) cannot see; the
//! counting allocator here is `heap`'s, process-wide, installed in this
//! binary.

mod heap;

use std::net::Ipv4Addr;
use std::sync::atomic::Ordering::SeqCst;

use heap::{LIVE, PEAK};
use ixp_vantage::codec::StateError;
use ixp_vantage::core::scan::IpStats;
use ixp_vantage::core::{Category, WeekScan};
use ixp_vantage::netmodel::Week;
use ixp_vantage::wire::ethernet::{self, EthernetAddress};
use ixp_vantage::wire::ip::Protocol;
use ixp_vantage::wire::{ipv4, tcp, EtherType};

/// An HTTP request for `host` from member 1's `src` to member 2's `dst`,
/// as an Ethernet + IPv4 + TCP frame.
fn request(src: Ipv4Addr, dst: Ipv4Addr, host: &str) -> Vec<u8> {
    let payload = format!("GET / HTTP/1.1\r\nHost: {host}\r\n\r\n");
    let tcp_len = tcp::HEADER_LEN + payload.len();
    let mut buf = vec![0u8; ethernet::HEADER_LEN + ipv4::HEADER_LEN + tcp_len];
    ethernet::Repr {
        src_addr: EthernetAddress::from_member_id(1),
        dst_addr: EthernetAddress::from_member_id(2),
        ethertype: EtherType::Ipv4,
    }
    .emit(&mut ethernet::Frame::new_unchecked(&mut buf[..]));
    ipv4::Repr {
        src_addr: src,
        dst_addr: dst,
        protocol: Protocol::Tcp,
        payload_len: tcp_len,
        ttl: 60,
    }
    .emit(&mut ipv4::Packet::new_unchecked(&mut buf[ethernet::HEADER_LEN..]))
    .expect("an IPv4 header fits");
    let l4 = &mut buf[ethernet::HEADER_LEN + ipv4::HEADER_LEN..];
    l4[tcp::HEADER_LEN..].copy_from_slice(payload.as_bytes());
    tcp::Repr {
        src_port: 40_000,
        dst_port: 80,
        seq: 0,
        ack: 0,
        flags: tcp::Flags::ACK,
        window: 1_000,
    }
    .emit(&mut tcp::Packet::new_unchecked(l4), src, dst)
    .expect("a TCP header fits");
    buf
}

/// `f`'s result, and how far the live heap rose above its level at the
/// call while `f` ran.
fn peak_above_entry<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let entry = LIVE.load(SeqCst);
    PEAK.store(entry, SeqCst);
    let out = f();
    (out, PEAK.load(SeqCst) - entry)
}

/// A scan of `requests` requests between distinct pairs of addresses: twice
/// as many rows, every server with a URI id, so the helper builds URI lists
/// as well.
fn scan_of(requests: u32) -> WeekScan {
    let mut scan = WeekScan::new(Week::REFERENCE, 10);
    for i in 0..requests {
        let (src, dst) = (Ipv4Addr::from(0x0a00_0000 + 2 * i), Ipv4Addr::from(0x0a00_0001 + 2 * i));
        let frame = request(src, dst, &format!("h{}.example", i % 64));
        scan.ingest_sample(16_384, frame.len() as u32, &frame);
    }
    scan
}

#[test]
fn restore_holds_the_table_its_uri_lists_and_a_fixed_chunk_budget_on_both_threads() {
    // 2¹⁷ + 128 rows: 32 full chunks and a short one.
    let scan = scan_of((1 << 16) + 64);
    let rows = scan.unique_ips();
    assert!(rows > 1 << 17, "{rows} rows");
    let mut state = scan.save_state();
    drop(scan);

    let entry = LIVE.load(SeqCst);
    let (restored, peak) = peak_above_entry(|| WeekScan::restore_state(&state));
    let restored = restored.expect("restore");
    assert_eq!(restored.unique_ips(), rows);
    assert!(restored.save_state() == state, "restore → save changed bytes");
    // What the scan keeps: the table, the URI lists, the domains and the
    // collector. Beside it, restore may hold the helper's three buffers
    // of 4 096 parsed rows, each a table entry, and a little more (the
    // thread, the two channels, a domain table's growth).
    let retained = LIVE.load(SeqCst) - entry;
    let chunk_budget = 3 * 4_096 * size_of::<(u32, IpStats)>() as i64;
    let bound = retained + chunk_budget + 64 * 1024;
    assert!(
        peak <= bound,
        "restore peaked {peak} bytes above entry, keeps {retained}, bound {bound}"
    );
    assert!(
        chunk_budget + 64 * 1024 < 8 * rows as i64,
        "the bound would let an 8-byte-per-row copy of {rows} rows through"
    );
    drop(restored);

    // A row count one more than the bytes after it can hold is refused
    // when it is read, before it sizes a table for it.
    let names: usize = WeekScan::restore_state(&state)
        .expect("restore")
        .domains
        .iter()
        .map(|name| 8 + name.len())
        .sum();
    let at = 25 + 24 * Category::ALL.len() + 8 + names;
    assert_eq!(state[at..at + 8], (rows as u64).to_be_bytes());
    let claimed = (state.len() - at - 8) / 23 + 1;
    state[at..at + 8].copy_from_slice(&(claimed as u64).to_be_bytes());
    let (refused, peak) = peak_above_entry(|| WeekScan::restore_state(&state).map(drop));
    assert_eq!(refused, Err(StateError::Truncated));
    assert!(
        peak < state.len() as i64,
        "{peak} bytes held for a state of {} claiming {claimed} rows",
        state.len()
    );

    // A state of 200 rows, each aligned 2- and 4-byte word set to all-ones
    // in turn, holds at most `alloc_free_ingest.rs`'s bound for a decode of
    // outside bytes, `64 × len + 64 KiB`, counted on both threads: the
    // helper's buffers are no longer than the rows the bytes hold.
    let valid = scan_of(100).save_state();
    for width in [2, 4] {
        for at in (0..valid.len() / width).map(|word| word * width) {
            let mut bytes = valid.clone();
            bytes[at..at + width].fill(0xFF);
            let (_, peak) = peak_above_entry(|| WeekScan::restore_state(&bytes).map(drop));
            let bound = 64 * bytes.len() as i64 + 64 * 1024;
            assert!(peak <= bound, "{width}-byte word at {at}: {peak} bytes held, bound {bound}");
        }
    }
}
