//! Property tests for the obsd protocol core: the parser and responder
//! are total over arbitrary bytes, and the deterministic endpoints are
//! byte-identical across same-seed states under the frozen TestClock.

use proptest::prelude::*;

use ixp_obs::journal::{EventKind, Journal, EVENT_KINDS};
use ixp_obs::metrics::Registry;
use ixp_obs::test_clock;
use ixp_obsd::{parse_request, respond, Board, ParsedRequest, Response, ServerState};

fn state() -> ServerState {
    let registry = Registry::new();
    registry.counter("sflow_datagrams_total").add(41);
    registry.gauge("sflow_sources").set(3);
    let journal = Journal::with_capacity(16, test_clock());
    journal.record(EventKind::TickStart, 0, 0, 0, 0);
    let board = Board::new();
    board.publish_agents(&[(1, 2, "healthy")]);
    ServerState::new(registry, journal, board)
}

fn assert_well_formed(r: &Response) {
    let text = String::from_utf8_lossy(&r.bytes).to_string();
    assert!(text.starts_with("HTTP/1.1 "), "status line missing: {text:?}");
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body separator");
    let declared: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .expect("content-length header");
    assert_eq!(declared, body.len(), "content-length disagrees with body");
    assert!(head.contains("Connection: close"));
}

proptest! {
    /// The request parser never panics and always lands in one of its
    /// three outcomes, whatever the bytes.
    #[test]
    fn parser_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = parse_request(&bytes);
    }

    /// Truncating a valid request at any byte yields Incomplete or
    /// Malformed — never a panic, never a bogus Complete with a
    /// different path.
    #[test]
    fn parser_handles_truncation(cut in 0usize..24) {
        let full = b"GET /metrics HTTP/1.1\r\n";
        let cut = cut.min(full.len());
        match parse_request(&full[..cut]) {
            ParsedRequest::Complete { method, path } => {
                prop_assert_eq!(method, "GET");
                prop_assert_eq!(path, "/metrics");
            }
            ParsedRequest::Incomplete | ParsedRequest::Malformed => {}
        }
    }

    /// The responder answers arbitrary bytes with a well-formed HTTP
    /// response and never panics or stops the server (only /quit stops).
    #[test]
    fn responder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let s = state();
        let r = respond(&s, &bytes);
        assert_well_formed(&r);
        if r.stop {
            // Only an explicit GET /quit may stop the loop.
            prop_assert!(bytes.starts_with(b"GET /quit"));
        }
    }

    /// Every defined event kind reaches the responder's /trace endpoint
    /// unharmed: the body is the journal's own rendering, and its last
    /// event names the kind just recorded.
    #[test]
    fn trace_endpoint_roundtrips_kinds(kind_idx in 0usize..EVENT_KINDS.len()) {
        let s = state();
        let kind = EVENT_KINDS[kind_idx];
        s.journal.record(kind, 7, 8, 9, 10);
        let r = respond(&s, b"GET /trace HTTP/1.1\r\n\r\n");
        assert_well_formed(&r);
        let text = String::from_utf8_lossy(&r.bytes).to_string();
        let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
        prop_assert_eq!(&body, &s.journal.render());
        let last = body.lines().rev().find(|l| l.contains("\"kind\": ")).unwrap_or_default();
        let named = format!("\"kind\": \"{}\"", kind.as_str());
        prop_assert!(last.contains(&named), "last event {:?} does not name {}", last, named);
    }
}

/// Same-seed states answer `/trace` and `/metrics.json` byte-identically
/// under the frozen TestClock — the serving-layer face of the snapshot
/// determinism the CI metrics smoke already enforces.
#[test]
fn same_seed_bodies_are_byte_identical() {
    let build = || {
        let s = state();
        s.journal.record(EventKind::Shed, 1, 2, 3, 4);
        s.journal.record(EventKind::TickEnd, 0, 0, 5, 0);
        let trace = respond(&s, b"GET /trace HTTP/1.1\r\n\r\n").bytes;
        let metrics = respond(&s, b"GET /metrics.json HTTP/1.1\r\n\r\n").bytes;
        let healthz = respond(&s, b"GET /healthz HTTP/1.1\r\n\r\n").bytes;
        (trace, metrics, healthz)
    };
    assert_eq!(build(), build());
}
