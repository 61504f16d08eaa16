//! Payload synthesis: the bytes that end up inside the 128-byte snippets.
//!
//! The paper's server identification is string matching on these bytes
//! (§2.2.2): request lines (`GET / HTTP/1.1`), header fields (`Host:`,
//! `Server:` …). The generator therefore writes *real* header text for
//! header-bearing frames, opaque content bytes for mid-stream frames,
//! TLS-record-shaped bytes for HTTPS, and RTMP handshake bytes for port
//! 1935 — so the classifier downstream faces the same evidence the authors'
//! did.

use rand::rngs::SmallRng;
use rand::Rng;

/// Build an HTTP request head (fits a request line + Host into the snippet).
pub fn http_request(domain: &str, path_id: u32, rng: &mut SmallRng) -> Vec<u8> {
    let method = match rng.gen_range(0..10) {
        0 => "POST",
        1 => "HEAD",
        _ => "GET",
    };
    let path = match path_id % 5 {
        0 => "/".to_string(),
        1 => format!("/index-{}.html", path_id % 97),
        2 => format!("/assets/app-{}.js", path_id % 89),
        3 => format!("/media/seg-{}.ts", path_id % 983),
        _ => format!("/api/v1/item/{}", path_id),
    };
    format!(
        "{method} {path} HTTP/1.1\r\nHost: {domain}\r\nUser-Agent: Mozilla/5.0\r\nAccept: */*\r\nConnection: keep-alive\r\n\r\n"
    )
    .into_bytes()
}

/// Build an HTTP response head.
pub fn http_response(server_token: &str, length: usize, rng: &mut SmallRng) -> Vec<u8> {
    let (code, reason) = match rng.gen_range(0..20) {
        0 => (301, "Moved Permanently"),
        1 => (304, "Not Modified"),
        2 => (404, "Not Found"),
        _ => (200, "OK"),
    };
    let ctype = match rng.gen_range(0..5) {
        0 => "text/html; charset=utf-8",
        1 => "application/javascript",
        2 => "image/jpeg",
        3 => "video/mp4",
        _ => "application/octet-stream",
    };
    let mut head = format!(
        "HTTP/1.1 {code} {reason}\r\nServer: {server_token}\r\nContent-Type: {ctype}\r\nContent-Length: {length}\r\nAccess-Control-Allow-Methods: GET, HEAD\r\n\r\n"
    )
    .into_bytes();
    // Pad with the first content bytes so the frame reaches its size.
    head.extend(std::iter::repeat_n(0xE5u8, 32));
    head
}

/// Opaque mid-stream content bytes (no HTTP tokens). The bytes avoid ASCII
/// so no accidental string match can occur.
pub fn content_bytes(len: usize, rng: &mut SmallRng) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(0x80..=0xFFu8)).collect()
}

/// A TLS application-data record header followed by ciphertext-looking
/// bytes: what port-443 snippets look like (no strings to match — the
/// paper needs active measurements for HTTPS precisely because of this).
pub fn tls_record(len: usize, rng: &mut SmallRng) -> Vec<u8> {
    let mut out = Vec::with_capacity(len.max(5));
    out.extend_from_slice(&[0x17, 0x03, 0x03]); // TLS 1.2 application data
    let payload_len = len.saturating_sub(5).max(1) as u16;
    out.extend_from_slice(&payload_len.to_be_bytes());
    out.extend((0..payload_len).map(|_| rng.gen::<u8>() | 0x80));
    out
}

/// RTMP chunk bytes (port 1935; Akamai's multi-purpose servers, §2.2.2).
pub fn rtmp_chunk(len: usize, rng: &mut SmallRng) -> Vec<u8> {
    let mut out = Vec::with_capacity(len.max(1));
    out.push(0x03); // RTMP version / chunk basic header
    out.extend((1..len).map(|_| rng.gen::<u8>() | 0x80));
    out
}

/// A DNS-query-shaped UDP payload.
pub fn dns_query(rng: &mut SmallRng) -> Vec<u8> {
    let mut out = vec![0u8; 12];
    out[0] = rng.gen();
    out[1] = rng.gen();
    out[2] = 0x01; // RD
    out[5] = 0x01; // QDCOUNT = 1
    out.extend_from_slice(b"\x03www\x07example\x00\x00\x01\x00\x01");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    #[test]
    fn request_contains_method_and_host() {
        let p = http_request("www.foo.example", 7, &mut rng());
        let s = String::from_utf8_lossy(&p);
        assert!(s.contains("HTTP/1.1"));
        assert!(s.contains("Host: www.foo.example"));
    }

    #[test]
    fn response_contains_status_and_server() {
        let p = http_response("nginx/1.2.1", 1234, &mut rng());
        let s = String::from_utf8_lossy(&p);
        assert!(s.starts_with("HTTP/1.1 "));
        assert!(s.contains("Server: nginx/1.2.1"));
        assert!(s.contains("Content-Length: 1234"));
    }

    #[test]
    fn content_bytes_contain_no_http_tokens() {
        let p = content_bytes(500, &mut rng());
        let s = String::from_utf8_lossy(&p);
        for token in ["HTTP/1.", "GET ", "Host:", "Server:"] {
            assert!(!s.contains(token));
        }
    }

    #[test]
    fn tls_record_is_shaped_right() {
        let p = tls_record(100, &mut rng());
        assert_eq!(&p[..3], &[0x17, 0x03, 0x03]);
        assert!(!String::from_utf8_lossy(&p).contains("HTTP"));
    }

    #[test]
    fn rtmp_chunk_starts_with_version() {
        let p = rtmp_chunk(64, &mut rng());
        assert_eq!(p[0], 0x03);
        assert_eq!(p.len(), 64);
    }

    #[test]
    fn dns_query_has_question() {
        let p = dns_query(&mut rng());
        assert!(p.len() > 12);
        assert_eq!(p[5], 1);
    }
}
