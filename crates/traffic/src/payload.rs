//! Payload synthesis: the bytes that end up inside the 128-byte snippets.
//!
//! The paper's server identification is string matching on these bytes
//! (§2.2.2): request lines (`GET / HTTP/1.1`), header fields (`Host:`,
//! `Server:` …). The generator therefore writes *real* header text for
//! header-bearing frames, opaque content bytes for mid-stream frames,
//! TLS-record-shaped bytes for HTTPS, and RTMP handshake bytes for port
//! 1935 — so the classifier downstream faces the same evidence the authors'
//! did.
//!
//! Every function writes into the caller's buffer — the part of a snippet
//! behind its headers — and returns how many bytes it wrote. What does not
//! fit is dropped, as the sampler drops what lies beyond the snippet, but
//! every random byte is still drawn: the stream of draws, not the buffer,
//! decides what the rest of the week looks like.

use rand::rngs::SmallRng;
use rand::Rng;

/// The write position in a payload buffer; bytes past its end are dropped.
struct Cursor<'a> {
    out: &'a mut [u8],
    len: usize,
}

impl<'a> Cursor<'a> {
    fn new(out: &'a mut [u8]) -> Cursor<'a> {
        Cursor { out, len: 0 }
    }

    fn byte(&mut self, byte: u8) {
        if let Some(slot) = self.out.get_mut(self.len) {
            *slot = byte;
            self.len += 1;
        }
    }

    fn put(&mut self, bytes: &[u8]) {
        let room = &mut self.out[self.len..];
        let n = bytes.len().min(room.len());
        room[..n].copy_from_slice(&bytes[..n]);
        self.len += n;
    }

    fn decimal(&mut self, mut value: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (value % 10) as u8;
            value /= 10;
            if value == 0 {
                break;
            }
        }
        self.put(&digits[at..]);
    }
}

/// Build an HTTP request head (fits a request line + Host into the snippet).
pub(crate) fn http_request(
    out: &mut [u8],
    domain: &str,
    path_id: u32,
    rng: &mut SmallRng,
) -> usize {
    let mut w = Cursor::new(out);
    request_line(&mut w, path_id, rng);
    w.put(b"Host: ");
    w.put(domain.as_bytes());
    w.put(b"\r\nUser-Agent: Mozilla/5.0\r\nAccept: */*\r\nConnection: keep-alive\r\n\r\n");
    w.len
}

/// The request line of [`http_request`] alone: a request whose Host header
/// lies beyond the snippet, so no URI leaks.
pub(crate) fn http_request_line(out: &mut [u8], path_id: u32, rng: &mut SmallRng) -> usize {
    let mut w = Cursor::new(out);
    request_line(&mut w, path_id, rng);
    w.len
}

fn request_line(w: &mut Cursor<'_>, path_id: u32, rng: &mut SmallRng) {
    let method: &[u8] = match rng.gen_range(0..10) {
        0 => b"POST",
        1 => b"HEAD",
        _ => b"GET",
    };
    w.put(method);
    w.put(b" /");
    let (stem, id, extension): (&[u8], u32, &[u8]) = match path_id % 5 {
        0 => (b"", 0, b""),
        1 => (b"index-", path_id % 97, b".html"),
        2 => (b"assets/app-", path_id % 89, b".js"),
        3 => (b"media/seg-", path_id % 983, b".ts"),
        _ => (b"api/v1/item/", path_id, b""),
    };
    if !stem.is_empty() {
        w.put(stem);
        w.decimal(u64::from(id));
        w.put(extension);
    }
    w.put(b" HTTP/1.1\r\n");
}

/// Build an HTTP response head.
pub(crate) fn http_response(
    out: &mut [u8],
    server_token: &str,
    length: usize,
    rng: &mut SmallRng,
) -> usize {
    let (code, reason): (&[u8], &[u8]) = match rng.gen_range(0..20) {
        0 => (b"301", b"Moved Permanently"),
        1 => (b"304", b"Not Modified"),
        2 => (b"404", b"Not Found"),
        _ => (b"200", b"OK"),
    };
    let ctype: &[u8] = match rng.gen_range(0..5) {
        0 => b"text/html; charset=utf-8",
        1 => b"application/javascript",
        2 => b"image/jpeg",
        3 => b"video/mp4",
        _ => b"application/octet-stream",
    };
    let mut w = Cursor::new(out);
    for part in [b"HTTP/1.1 ", code, b" ", reason, b"\r\nServer: ", server_token.as_bytes()] {
        w.put(part);
    }
    w.put(b"\r\nContent-Type: ");
    w.put(ctype);
    w.put(b"\r\nContent-Length: ");
    w.decimal(length as u64);
    w.put(b"\r\nAccess-Control-Allow-Methods: GET, HEAD\r\n\r\n");
    // Pad with the first content bytes so the frame reaches its size.
    w.put(&[0xE5; 32]);
    w.len
}

/// Opaque mid-stream content bytes (no HTTP tokens). The bytes avoid ASCII
/// so no accidental string match can occur.
pub(crate) fn content_bytes(out: &mut [u8], len: usize, rng: &mut SmallRng) -> usize {
    let mut w = Cursor::new(out);
    for _ in 0..len {
        w.byte(rng.gen_range(0x80..=0xFFu8));
    }
    w.len
}

/// A TLS application-data record header followed by ciphertext-looking
/// bytes: what port-443 snippets look like (no strings to match — the
/// paper needs active measurements for HTTPS precisely because of this).
pub(crate) fn tls_record(out: &mut [u8], len: usize, rng: &mut SmallRng) -> usize {
    let mut w = Cursor::new(out);
    w.put(&[0x17, 0x03, 0x03]); // TLS 1.2 application data
    let payload_len = len.saturating_sub(5).max(1) as u16;
    w.put(&payload_len.to_be_bytes());
    for _ in 0..payload_len {
        w.byte(rng.gen::<u8>() | 0x80);
    }
    w.len
}

/// RTMP chunk bytes (port 1935; Akamai's multi-purpose servers, §2.2.2).
pub(crate) fn rtmp_chunk(out: &mut [u8], len: usize, rng: &mut SmallRng) -> usize {
    let mut w = Cursor::new(out);
    w.byte(0x03); // RTMP version / chunk basic header
    for _ in 1..len {
        w.byte(rng.gen::<u8>() | 0x80);
    }
    w.len
}

/// A DNS-query-shaped UDP payload.
pub(crate) fn dns_query(out: &mut [u8], rng: &mut SmallRng) -> usize {
    let mut w = Cursor::new(out);
    let id: [u8; 2] = [rng.gen(), rng.gen()];
    w.put(&id);
    w.put(&[0x01, 0, 0, 0x01, 0, 0, 0, 0, 0, 0]); // RD; QDCOUNT = 1
    w.put(b"\x03www\x07example\x00\x00\x01\x00\x01");
    w.len
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    /// What `write` leaves in a buffer of `room` bytes.
    fn written(room: usize, write: impl FnOnce(&mut [u8]) -> usize) -> Vec<u8> {
        let mut buf = vec![0u8; room];
        let n = write(&mut buf);
        buf.truncate(n);
        buf
    }

    #[test]
    fn request_contains_method_and_host() {
        let p = written(512, |out| http_request(out, "www.foo.example", 7, &mut rng()));
        let s = String::from_utf8_lossy(&p);
        assert!(s.contains("HTTP/1.1"));
        assert!(s.contains("Host: www.foo.example"));
    }

    #[test]
    fn response_contains_status_and_server() {
        let p = written(512, |out| http_response(out, "nginx/1.2.1", 1234, &mut rng()));
        let s = String::from_utf8_lossy(&p);
        assert!(s.starts_with("HTTP/1.1 "));
        assert!(s.contains("Server: nginx/1.2.1"));
        assert!(s.contains("Content-Length: 1234"));
    }

    #[test]
    fn content_bytes_contain_no_http_tokens() {
        let p = written(512, |out| content_bytes(out, 500, &mut rng()));
        let s = String::from_utf8_lossy(&p);
        for token in ["HTTP/1.", "GET ", "Host:", "Server:"] {
            assert!(!s.contains(token));
        }
    }

    #[test]
    fn tls_record_is_shaped_right() {
        let p = written(512, |out| tls_record(out, 100, &mut rng()));
        assert_eq!(&p[..3], &[0x17, 0x03, 0x03]);
        assert!(!String::from_utf8_lossy(&p).contains("HTTP"));
    }

    #[test]
    fn rtmp_chunk_starts_with_version() {
        let p = written(512, |out| rtmp_chunk(out, 64, &mut rng()));
        assert_eq!(p[0], 0x03);
        assert_eq!(p.len(), 64);
    }

    #[test]
    fn dns_query_has_question() {
        let p = written(512, |out| dns_query(out, &mut rng()));
        assert!(p.len() > 12);
        assert_eq!(p[5], 1);
    }

    #[test]
    fn request_paths_and_lengths_are_spelled_in_decimal() {
        for (path_id, path) in [
            (0, "/"),
            (5, "/"),
            (1, "/index-1.html"),
            (96, "/index-96.html"),
            (97, "/assets/app-8.js"),
            (983, "/media/seg-0.ts"),
            (4, "/api/v1/item/4"),
            (u32::MAX - 1, "/api/v1/item/4294967294"),
        ] {
            let p = written(512, |out| http_request(out, "a.example", path_id, &mut rng()));
            let line = written(512, |out| http_request_line(out, path_id, &mut rng()));
            let s = String::from_utf8(p).unwrap();
            assert!(s.contains(&["", path, "HTTP/1.1\r\nHost: a.example\r\n"].join(" ")), "{s}");
            assert!(s.ends_with("Connection: keep-alive\r\n\r\n"));
            // The request line alone is the request cut before its Host.
            assert_eq!(line, s.as_bytes()[..s.find("Host: ").unwrap()]);
        }
        for (length, digits) in [
            (0usize, "0"),
            (9, "9"),
            (10, "10"),
            (1_999_999, "1999999"),
            (u64::MAX as usize, "18446744073709551615"),
        ] {
            let p = written(512, |out| http_response(out, "gws-sim", length, &mut rng()));
            let s = String::from_utf8_lossy(&p).into_owned();
            assert!(s.contains(&["Content-Length: ", "\r\nAccess-Control"].join(digits)), "{s}");
            assert!(p.ends_with(&[0xE5; 32]));
        }
    }

    #[test]
    fn a_short_buffer_truncates_the_bytes_but_not_the_draws() {
        type Write = fn(&mut [u8], &mut SmallRng) -> usize;
        let writers: [Write; 7] = [
            |out, rng| http_request(out, "www.foo.example", 7, rng),
            |out, rng| http_request_line(out, 7, rng),
            |out, rng| http_response(out, "nginx/1.2.1", 1234, rng),
            |out, rng| content_bytes(out, 118, rng),
            |out, rng| tls_record(out, 118, rng),
            |out, rng| rtmp_chunk(out, 110, rng),
            |out, rng| dns_query(out, rng),
        ];
        for write in writers {
            let mut whole_rng = rng();
            let whole = written(512, |out| write(out, &mut whole_rng));
            for room in [0, 1, 5, 74, 86] {
                let mut cut_rng = rng();
                let cut = written(room, |out| write(out, &mut cut_rng));
                assert_eq!(cut, whole[..room.min(whole.len())]);
                assert_eq!(cut_rng.gen::<u64>(), whole_rng.clone().gen::<u64>());
            }
        }
    }
}
