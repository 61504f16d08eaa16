//! Property tests over the analysis pipeline's invariants.

use proptest::prelude::*;

use ixp_core::http::{classify, HttpEvidence};
use ixp_core::{Category, WeekScan};
use ixp_netmodel::Week;

proptest! {
    /// The HTTP string matcher never panics and never extracts an invalid
    /// Host value from arbitrary bytes.
    #[test]
    fn http_classifier_total(payload in proptest::collection::vec(any::<u8>(), 0..160)) {
        match classify(&payload) {
            HttpEvidence::Request { host } | HttpEvidence::RequestHeaders { host } => {
                if let Some(h) = host {
                    prop_assert!(!h.is_empty());
                    prop_assert!(h.len() <= 253);
                    prop_assert!(h.chars().all(|c| c.is_ascii_alphanumeric() || ".-".contains(c)));
                }
            }
            HttpEvidence::Response | HttpEvidence::ResponseHeaders | HttpEvidence::None => {}
        }
    }

    /// Valid requests with arbitrary (well-formed) hosts round-trip through
    /// the matcher.
    #[test]
    fn http_classifier_extracts_wellformed_hosts(
        label in "[a-z][a-z0-9-]{0,10}[a-z0-9]",
        tld in "[a-z]{2,7}",
    ) {
        let domain = format!("{label}.{tld}");
        let payload = format!("GET /x HTTP/1.1\r\nHost: {domain}\r\nAccept: */*\r\n\r\n");
        match classify(payload.as_bytes()) {
            HttpEvidence::Request { host } => prop_assert_eq!(host, Some(domain.as_str())),
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    /// The scan is total over arbitrary byte blobs (never panics) and the
    /// cascade shares always form a partition.
    #[test]
    fn scan_is_total_and_partitions(
        blobs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..256), 1..40),
        members in 1u32..100,
    ) {
        let mut scan = WeekScan::new(Week::REFERENCE, members);
        for blob in &blobs {
            scan.ingest(blob);
            scan.ingest_sample(16_384, blob.len() as u32, blob);
        }
        let total = scan.filter.total();
        let sum: u64 = Category::ALL.iter().map(|c| scan.filter.get(*c).bytes).sum();
        prop_assert_eq!(total.bytes, sum);
        if total.bytes > 0 {
            let share_sum: f64 = Category::ALL.iter().map(|c| scan.filter.share(*c)).sum();
            prop_assert!((share_sum - 100.0).abs() < 1e-6);
        }
    }

    /// Traffic accounting is additive: splitting a sample stream in two and
    /// merging the estimates equals scanning the whole stream.
    #[test]
    fn filter_report_is_additive(
        frames in proptest::collection::vec((60u32..1514, 1u32..64), 2..30),
        split in any::<proptest::sample::Index>(),
    ) {
        // Use simple valid ARP frames so categorization is deterministic.
        let make = |len: u32| -> Vec<u8> {
            let mut buf = vec![0u8; 60];
            buf[12] = 0x08;
            buf[13] = 0x06; // ARP
            let _ = len;
            buf
        };
        let k = split.index(frames.len().max(1)).max(1);
        let mut whole = WeekScan::new(Week::REFERENCE, 5);
        let mut a = WeekScan::new(Week::REFERENCE, 5);
        let mut b = WeekScan::new(Week::REFERENCE, 5);
        for (i, (len, rate)) in frames.iter().enumerate() {
            let f = make(*len);
            whole.ingest_sample(*rate * 100, *len, &f);
            if i < k {
                a.ingest_sample(*rate * 100, *len, &f);
            } else {
                b.ingest_sample(*rate * 100, *len, &f);
            }
        }
        let merged = a.filter.get(Category::OtherL3) + b.filter.get(Category::OtherL3);
        prop_assert_eq!(merged, whole.filter.get(Category::OtherL3));
    }
}
