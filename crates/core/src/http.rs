//! HTTP string matching over 128-byte payload snippets (paper §2.2.2).
//!
//! Two pattern families, exactly as the paper describes:
//!
//! 1. **initial-line patterns** — request method words (`GET`, `HEAD`,
//!    `POST`, …) followed by a path and `HTTP/1.{0,1}`, and response status
//!    lines `HTTP/1.{0,1} <code>`;
//! 2. **header-field patterns** — well-known header names (`Host:`,
//!    `Server:`, `Access-Control-Allow-Methods:`, …) anywhere in the
//!    snippet.
//!
//! A match also decides *which endpoint is the server*: a request line or a
//! `Host:` header implicates the destination; a status line or `Server:`
//! header implicates the source.

/// What the matcher found in one payload snippet. A `host` borrows the
/// snippet it was found in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpEvidence<'a> {
    /// Nothing HTTP-like.
    None,
    /// A request: the destination is a server. The Host value, if it was
    /// recoverable from the snippet, identifies the URI authority.
    Request {
        /// Value of the `Host:` header, when present in the snippet.
        host: Option<&'a str>,
    },
    /// A response: the source is a server.
    Response,
    /// Header fields only, implicating the destination (request headers).
    RequestHeaders {
        /// Value of the `Host:` header, when present.
        host: Option<&'a str>,
    },
    /// Header fields only, implicating the source (response headers).
    ResponseHeaders,
}

const METHODS: [&str; 7] = ["GET ", "HEAD ", "POST ", "PUT ", "DELETE ", "OPTIONS ", "CONNECT "];

/// Header-field names; the pattern is the name followed by `": "`.
const REQUEST_HEADERS: [&str; 5] = ["Host", "User-Agent", "Accept", "Referer", "Cookie"];

const RESPONSE_HEADERS: [&str; 5] =
    ["Server", "Content-Type", "Access-Control-Allow-Methods", "Set-Cookie", "Content-Length"];

/// Scan one payload snippet.
pub fn classify(payload: &[u8]) -> HttpEvidence<'_> {
    if payload.len() < 4 {
        return HttpEvidence::None;
    }
    // Pattern 1a: request line at the start of the payload. Require the
    // protocol tag somewhere in the snippet (it may be cut off for very
    // long request targets; then fall through to headers).
    if METHODS.iter().any(|m| payload.starts_with(m.as_bytes()))
        && find(payload, b"HTTP/1.").is_some()
    {
        return HttpEvidence::Request { host: extract_host(payload) };
    }
    // Pattern 1b: status line.
    if payload.starts_with(b"HTTP/1.") {
        return HttpEvidence::Response;
    }
    // Pattern 2: header fields anywhere. Every pattern is a name followed
    // by `": "`, so `name: ` occurs in the payload exactly when some `": "`
    // is preceded by `name`: one pass over the colons replaces one search
    // per name. A response header wins over any request header.
    let mut has_request_header = false;
    for (at, _) in payload.windows(2).enumerate().filter(|(_, w)| *w == b": ") {
        let name = &payload[..at];
        if RESPONSE_HEADERS.iter().any(|h| name.ends_with(h.as_bytes())) {
            return HttpEvidence::ResponseHeaders;
        }
        has_request_header =
            has_request_header || REQUEST_HEADERS.iter().any(|h| name.ends_with(h.as_bytes()));
    }
    if has_request_header {
        HttpEvidence::RequestHeaders { host: extract_host(payload) }
    } else {
        HttpEvidence::None
    }
}

/// Extract the Host header's authority, port stripped, if it fits the
/// snippet.
fn extract_host(payload: &[u8]) -> Option<&str> {
    let start = find(payload, b"Host: ")? + 6;
    let rest = payload.get(start..)?;
    let end = rest.iter().position(|b| *b == b'\r' || *b == b'\n')?;
    let value = rest.get(..end)?;
    if value.is_empty() || value.len() > 253 {
        return None;
    }
    if !value.iter().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'-' | b':')) {
        return None;
    }
    // Strip an explicit port; a bare `:8080` names no host at all.
    let authority = value.split(|b| *b == b':').next().filter(|a| !a.is_empty())?;
    std::str::from_utf8(authority).ok()
}

/// Naive subsequence search (snippets are ≤ 128 bytes; this beats fancier
/// algorithms at this size).
fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// The matcher as first written — one naive search per header name — kept
/// as the reference [`classify`] is property-tested against.
#[cfg(test)]
fn classify_reference(payload: &[u8]) -> HttpEvidence<'_> {
    if payload.len() < 4 {
        return HttpEvidence::None;
    }
    if METHODS.iter().any(|m| payload.starts_with(m.as_bytes()))
        && find(payload, b"HTTP/1.").is_some()
    {
        return HttpEvidence::Request { host: extract_host(payload) };
    }
    if payload.starts_with(b"HTTP/1.") {
        return HttpEvidence::Response;
    }
    let has = |names: &[&str]| {
        names.iter().any(|h| find(payload, format!("{h}: ").as_bytes()).is_some())
    };
    match (has(&REQUEST_HEADERS), has(&RESPONSE_HEADERS)) {
        (_, true) => HttpEvidence::ResponseHeaders,
        (true, false) => HttpEvidence::RequestHeaders { host: extract_host(payload) },
        (false, false) => HttpEvidence::None,
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// Pieces of HTTP-looking traffic, near misses included.
    const FRAGMENTS: [&str; 24] = [
        "GET /index.html HTTP/1.1\r\n",
        "POST /a/very/long/request/target/that/pushes/the/protocol/tag/out/of/the/snippet",
        "HTTP/1.0 304 Not Modified\r\n",
        "Host: www.foo.example\r\n",
        "Host: foo.example:8080\r\n",
        "Host: :80\r\n",
        "Host: ",
        "User-Agent: curl/7\r\n",
        "Accept: */*\r\n",
        "Referer: http://a.example/\r\n",
        "Cookie: k=v\r\n",
        "Server: nginx\r\n",
        "Content-Type: text/html\r\n",
        "Access-Control-Allow-Methods: GET\r\n",
        "Set-Cookie: s=1\r\n",
        "Content-Length: 12\r\n",
        "X-Forwarded-Host: proxied.example\r\n",
        "Server:tight\r\n",
        "Accept:  ",
        ": ",
        "::  : ",
        "\r\n",
        "\x16\x03\x01\x02\x00",
        "junk",
    ];

    fn snippet(pieces: &[usize]) -> Vec<u8> {
        let mut out: Vec<u8> =
            pieces.iter().flat_map(|i| FRAGMENTS[i % FRAGMENTS.len()].bytes()).collect();
        out.truncate(128);
        out
    }

    proptest! {
        #[test]
        fn one_pass_matcher_agrees_with_reference_on_arbitrary_bytes(
            payload in proptest::collection::vec(any::<u8>(), 0..160),
        ) {
            prop_assert_eq!(classify(&payload), classify_reference(&payload));
        }

        #[test]
        fn one_pass_matcher_agrees_with_reference_on_every_prefix_of_http_snippets(
            pieces in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..8),
        ) {
            let payload = snippet(&pieces);
            for cut in 0..=payload.len() {
                let prefix = &payload[..cut];
                prop_assert_eq!(classify(prefix), classify_reference(prefix));
            }
        }
    }

    fn request_host(host_line: &str) -> Option<String> {
        let payload = format!("GET / HTTP/1.1\r\n{host_line}\r\n");
        match classify(payload.as_bytes()) {
            HttpEvidence::Request { host } => host.map(str::to_string),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_authority_is_no_host() {
        assert_eq!(request_host("Host: :80"), None);
        assert_eq!(request_host("Host: :"), None);
        assert_eq!(request_host("Host: a:").as_deref(), Some("a"));
    }

    #[test]
    fn host_value_length_bound_is_253() {
        let longest = "a".repeat(253);
        assert_eq!(request_host(&format!("Host: {longest}")), Some(longest));
        assert_eq!(request_host(&format!("Host: {}", "a".repeat(254))), None);
    }

    #[test]
    fn classifies_requests_and_extracts_host() {
        let p = b"GET /index.html HTTP/1.1\r\nHost: www.foo.example\r\nAccept: */*\r\n\r\n";
        match classify(p) {
            HttpEvidence::Request { host } => {
                assert_eq!(host, Some("www.foo.example"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn classifies_responses() {
        let p = b"HTTP/1.1 200 OK\r\nServer: nginx\r\nContent-Type: text/html\r\n\r\n<html>";
        assert_eq!(classify(p), HttpEvidence::Response);
    }

    #[test]
    fn header_only_frames_are_attributed_by_direction() {
        let req = b"sdfsd\r\nHost: a.b.example\r\nCookie: x=1\r\n";
        match classify(req) {
            HttpEvidence::RequestHeaders { host } => {
                assert_eq!(host, Some("a.b.example"));
            }
            other => panic!("{other:?}"),
        }
        let resp = b"junk\r\nServer: Apache\r\nSet-Cookie: s=2\r\n";
        assert_eq!(classify(resp), HttpEvidence::ResponseHeaders);
    }

    #[test]
    fn binary_payloads_do_not_match() {
        let tls = [0x17u8, 0x03, 0x03, 0x00, 0x40, 0x99, 0x81, 0xaa, 0xbb];
        assert_eq!(classify(&tls), HttpEvidence::None);
        let content: Vec<u8> = (0..100).map(|i| 0x80u8 | i).collect();
        assert_eq!(classify(&content), HttpEvidence::None);
    }

    #[test]
    fn truncated_host_is_dropped() {
        let p = b"GET / HTTP/1.1\r\nHost: www.very-long-na"; // cut mid-value
        match classify(p) {
            HttpEvidence::Request { host } => assert_eq!(host, None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn host_with_port_is_stripped() {
        let p = b"GET / HTTP/1.1\r\nHost: foo.example:8080\r\n";
        match classify(p) {
            HttpEvidence::Request { host } => assert_eq!(host, Some("foo.example")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn garbage_host_rejected() {
        let p = b"GET / HTTP/1.1\r\nHost: \xff\xfe\x01\r\n";
        match classify(p) {
            HttpEvidence::Request { host } => assert_eq!(host, None),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn short_payloads_are_none() {
        assert_eq!(classify(b""), HttpEvidence::None);
        assert_eq!(classify(b"GET"), HttpEvidence::None);
    }

    #[test]
    fn methods_without_protocol_tag_fall_to_headers() {
        let p = b"GET /something-that-goes-on-and-on";
        assert_eq!(classify(p), HttpEvidence::None);
    }
}
