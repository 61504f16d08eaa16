//! ixp-obsd — the HTTP exposition server of the observability plane.
//!
//! A dependency-free, panic-free HTTP/1.1 front end over
//! `std::net::TcpListener` that makes a *running* supervised pipeline
//! inspectable (DESIGN.md §13). Four read-only endpoints share one
//! [`ServerState`]:
//!
//! | path            | body                                            |
//! |-----------------|-------------------------------------------------|
//! | `/metrics`      | Prometheus text exposition of the live registry |
//! | `/metrics.json` | the `ixp-obs/1` JSON snapshot                   |
//! | `/healthz`      | `ixp-health/1`: per-agent health + audit verdict|
//! | `/trace`        | the `ixp-trace/1` journal export                |
//!
//! plus `GET /quit`, which answers and then stops the accept loop so a
//! harness can terminate a serving run cleanly. The protocol front end
//! follows the same fail-closed discipline as the wire decoders: request
//! reads are bounded ([`MAX_REQUEST_BYTES`]), parsing is total
//! ([`parse_request`] never panics on arbitrary or truncated bytes), and
//! every outcome is an explicit response or an explicit close — there is
//! no path that leaves a connection dangling or the server wedged.
//!
//! The request/response core ([`respond`]) is a pure function of the
//! state and the raw request bytes, which is what the proptests drive;
//! the socket loop ([`Server`]) is a thin shell around it. Binding is
//! probe-gated by callers the same way `flowgen --probe` gates the UDP
//! smoke: where sockets are denied, the pure core still works in memory.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo, clippy::unimplemented, clippy::unreachable, clippy::indexing_slicing, clippy::let_underscore_must_use, clippy::unused_result_ok))]

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ixp_obs::journal::Journal;
use ixp_obs::metrics::Registry;
use ixp_obs::{json, prometheus};

/// Schema identifier of the `/healthz` document.
pub const HEALTH_SCHEMA: &str = "ixp-health/1";

/// Upper bound on a request head. Anything longer is answered 431 and
/// closed — the four endpoints need nothing beyond a short request line.
pub const MAX_REQUEST_BYTES: usize = 8192;

/// Per-connection socket read timeout.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// The per-(agent, sub_agent) health rows plus the audit verdict that
/// `/healthz` serves. Published whole by the pipeline at sync points.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthView {
    /// `(agent key, state name)` rows, e.g. `("10.0.0.1/7", "healthy")`,
    /// in ascending key order.
    pub agents: Vec<(String, String)>,
    /// Total conservation breaches the auditor has observed.
    pub audit_breaches: u64,
    /// Human verdict: `"pass"`, or the failing invariant's name.
    pub audit_verdict: String,
}

impl HealthView {
    /// A view that has seen no agents and no audits yet.
    pub fn empty() -> HealthView {
        HealthView { agents: Vec::new(), audit_breaches: 0, audit_verdict: "pass".to_string() }
    }
}

/// Shared, cloneable holder of the latest [`HealthView`]. The pipeline
/// publishes; the server reads. Kept as plain strings so `ixp-obsd`
/// needs no supervisor types.
#[derive(Debug, Clone, Default)]
pub struct Board {
    inner: Arc<Mutex<HealthView>>,
}

impl Board {
    /// A board holding the empty view.
    pub fn new() -> Board {
        Board { inner: Arc::new(Mutex::new(HealthView::empty())) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HealthView> {
        // A poisoned board still holds a structurally valid view.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Replace the published view.
    pub fn publish(&self, view: HealthView) {
        *self.lock() = view;
    }

    /// Publish health rows from raw `(agent, sub_agent, state)` triples.
    pub fn publish_agents(&self, rows: &[(u32, u32, &str)]) {
        let mut agents: BTreeMap<String, String> = BTreeMap::new();
        for (agent, sub_agent, state) in rows {
            agents.insert(format!("{agent}/{sub_agent}"), (*state).to_string());
        }
        self.lock().agents = agents.into_iter().collect();
    }

    /// Update only the audit verdict fields.
    pub fn publish_audit(&self, breaches: u64, verdict: &str) {
        let mut view = self.lock();
        view.audit_breaches = breaches;
        view.audit_verdict = verdict.to_string();
    }

    /// The current view.
    pub fn view(&self) -> HealthView {
        self.lock().clone()
    }
}

/// Everything the endpoints read. Cloning shares all underlying state.
#[derive(Debug, Clone)]
pub struct ServerState {
    /// The live metric registry (`/metrics`, `/metrics.json`).
    pub registry: Registry,
    /// The live event journal (`/trace`).
    pub journal: Journal,
    /// The health board (`/healthz`).
    pub board: Board,
}

impl ServerState {
    /// Bundle a registry, journal, and board.
    pub fn new(registry: Registry, journal: Journal, board: Board) -> ServerState {
        ServerState { registry, journal, board }
    }
}

/// Outcome of feeding request bytes to the parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsedRequest {
    /// A complete request head: method and path.
    Complete {
        /// The HTTP method token.
        method: String,
        /// The request target, e.g. `/metrics`.
        path: String,
    },
    /// No complete request line yet; the caller may read more bytes.
    Incomplete,
    /// The bytes cannot be an HTTP request head; answer 400 and close.
    Malformed,
}

/// Parse an HTTP/1.1 request head from raw bytes. Total: any input maps
/// to one of the three outcomes, never a panic. Only the request line is
/// interpreted; headers are skipped (the endpoints take no arguments).
pub fn parse_request(bytes: &[u8]) -> ParsedRequest {
    // The request line ends at the first LF (tolerating a bare LF as
    // well as CRLF). Without one, the head is still in flight; the
    // caller enforces [`MAX_REQUEST_BYTES`] before giving up.
    let Some(eol) = bytes.iter().position(|b| *b == b'\n') else {
        return ParsedRequest::Incomplete;
    };
    let line = bytes.get(..eol).unwrap_or(&[]);
    let line = match line.split_last() {
        Some((b'\r', rest)) => rest,
        _ => line,
    };
    let Ok(line) = std::str::from_utf8(line) else {
        return ParsedRequest::Malformed;
    };
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (Some(method), Some(path), Some(version)) =
        (parts.next(), parts.next(), parts.next())
    else {
        return ParsedRequest::Malformed;
    };
    if parts.next().is_some() {
        return ParsedRequest::Malformed;
    }
    if !version.starts_with("HTTP/1.") {
        return ParsedRequest::Malformed;
    }
    if method.is_empty()
        || !method.bytes().all(|b| b.is_ascii_uppercase())
        || !path.starts_with('/')
    {
        return ParsedRequest::Malformed;
    }
    ParsedRequest::Complete { method: method.to_string(), path: path.to_string() }
}

/// A finished HTTP exchange: the bytes to write back, and whether the
/// server should stop accepting after this response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The full response (status line, headers, body).
    pub bytes: Vec<u8>,
    /// `true` after `GET /quit`: answer, then stop the accept loop.
    pub stop: bool,
}

fn http_response(status: u16, reason: &str, content_type: &str, body: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 128);
    out.extend_from_slice(
        format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    );
    out.extend_from_slice(body.as_bytes());
    out
}

fn render_healthz(view: &HealthView) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{}\",\n", json::escape(HEALTH_SCHEMA)));
    let status = if view.audit_breaches == 0 { "ok" } else { "breach" };
    out.push_str(&format!("  \"status\": \"{status}\",\n"));
    out.push_str(&format!("  \"audit_breaches\": {},\n", view.audit_breaches));
    out.push_str(&format!(
        "  \"audit_verdict\": \"{}\",\n",
        json::escape(&view.audit_verdict)
    ));
    out.push_str("  \"agents\": [");
    let mut first = true;
    for (agent, state) in &view.agents {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    {{\"agent\": \"{}\", \"state\": \"{}\"}}",
            json::escape(agent),
            json::escape(state)
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Answer one request. Pure in the state and the raw bytes: arbitrary
/// input yields a well-formed response (or a 400/431 close), never a
/// panic — this is the function the proptests hammer.
pub fn respond(state: &ServerState, request: &[u8]) -> Response {
    let (method, path) = match parse_request(request) {
        ParsedRequest::Complete { method, path } => (method, path),
        ParsedRequest::Incomplete if request.len() >= MAX_REQUEST_BYTES => {
            return Response {
                bytes: http_response(
                    431,
                    "Request Header Fields Too Large",
                    "text/plain",
                    "request head exceeds the server bound\n",
                ),
                stop: false,
            };
        }
        ParsedRequest::Incomplete | ParsedRequest::Malformed => {
            return Response {
                bytes: http_response(400, "Bad Request", "text/plain", "malformed request\n"),
                stop: false,
            };
        }
    };
    if method != "GET" {
        return Response {
            bytes: http_response(
                405,
                "Method Not Allowed",
                "text/plain",
                "only GET is served here\n",
            ),
            stop: false,
        };
    }
    match path.as_str() {
        "/metrics" => match prometheus::render(&state.registry.snapshot()) {
            Ok(body) => Response {
                bytes: http_response(
                    200,
                    "OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    &body,
                ),
                stop: false,
            },
            Err(e) => Response {
                bytes: http_response(
                    500,
                    "Internal Server Error",
                    "text/plain",
                    &format!("exposition failed: {e}\n"),
                ),
                stop: false,
            },
        },
        "/metrics.json" => Response {
            bytes: http_response(
                200,
                "OK",
                "application/json",
                &json::render(&state.registry.snapshot()),
            ),
            stop: false,
        },
        "/healthz" => Response {
            bytes: http_response(
                200,
                "OK",
                "application/json",
                &render_healthz(&state.board.view()),
            ),
            stop: false,
        },
        "/trace" => Response {
            bytes: http_response(200, "OK", "application/json", &state.journal.render()),
            stop: false,
        },
        "/quit" => Response {
            bytes: http_response(200, "OK", "text/plain", "stopping\n"),
            stop: true,
        },
        _ => Response {
            bytes: http_response(404, "Not Found", "text/plain", "unknown endpoint\n"),
            stop: false,
        },
    }
}

/// The accept loop: one connection at a time, bounded reads, fail-closed
/// parsing, `Connection: close` semantics.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: ServerState,
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port). Errors — most
    /// relevantly a sandbox denying the bind — surface to the caller for
    /// probe-gating; nothing here panics or retries.
    pub fn bind(addr: &str, state: ServerState) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server { listener, state })
    }

    /// The bound address (for the `obsd: serving on <addr>` announce).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve connections until a `GET /quit` arrives. Per-connection
    /// errors (timeouts, resets, oversized or malformed requests) are
    /// answered or dropped and never abort the loop.
    pub fn serve(&self) -> std::io::Result<()> {
        loop {
            let (stream, _) = self.listener.accept()?;
            if self.handle(stream) {
                return Ok(());
            }
        }
    }

    /// Handle one connection; `true` when the server should stop.
    fn handle(&self, mut stream: TcpStream) -> bool {
        #[allow(clippy::let_underscore_must_use, reason = "a socket that refuses the timeout is still served; the read loop ends on close, error or MAX_REQUEST_BYTES")]
        let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
        let mut buf = Vec::with_capacity(512);
        let mut chunk = [0u8; 512];
        let response = loop {
            if buf.len() >= MAX_REQUEST_BYTES {
                break respond(&self.state, &buf);
            }
            match parse_request(&buf) {
                ParsedRequest::Incomplete => {}
                _ => break respond(&self.state, &buf),
            }
            match stream.read(&mut chunk) {
                // Peer closed before completing a request line.
                Ok(0) => break respond(&self.state, &buf),
                Ok(n) => buf.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
                // Timeout or reset: answer what we have (400 for an
                // incomplete head) rather than hanging.
                Err(_) => break respond(&self.state, &buf),
            }
        };
        #[allow(clippy::let_underscore_must_use, reason = "the peer may hang up before its answer; a failed write to one client must not abort the accept loop")]
        let _ = stream.write_all(&response.bytes);
        #[allow(clippy::let_underscore_must_use, reason = "as for write_all: the connection closes either way")]
        let _ = stream.flush();
        response.stop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixp_obs::journal::EventKind;
    use ixp_obs::test_clock;

    fn state() -> ServerState {
        let registry = Registry::new();
        registry.counter("sflow_datagrams_total").add(3);
        let journal = Journal::with_capacity(8, test_clock());
        journal.record(EventKind::TickStart, 0, 0, 0, 0);
        let board = Board::new();
        board.publish_agents(&[(167772161, 7, "healthy")]);
        board.publish_audit(0, "pass");
        ServerState::new(registry, journal, board)
    }

    fn body_of(bytes: &[u8]) -> String {
        let text = String::from_utf8_lossy(bytes);
        match text.split_once("\r\n\r\n") {
            Some((_, body)) => body.to_string(),
            None => String::new(),
        }
    }

    #[test]
    fn parse_accepts_simple_gets() {
        assert_eq!(
            parse_request(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
            ParsedRequest::Complete { method: "GET".to_string(), path: "/metrics".to_string() }
        );
        assert_eq!(parse_request(b"GET /trace HTTP/1.0\n"), ParsedRequest::Complete {
            method: "GET".to_string(),
            path: "/trace".to_string()
        });
    }

    #[test]
    fn parse_is_incomplete_without_a_line() {
        assert_eq!(parse_request(b""), ParsedRequest::Incomplete);
        assert_eq!(parse_request(b"GET /metr"), ParsedRequest::Incomplete);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(parse_request(b"\xFF\xFE\n"), ParsedRequest::Malformed);
        assert_eq!(parse_request(b"GET\n"), ParsedRequest::Malformed);
        assert_eq!(parse_request(b"GET /x HTTP/1.1 extra\n"), ParsedRequest::Malformed);
        assert_eq!(parse_request(b"GET /x SMTP/1.1\n"), ParsedRequest::Malformed);
        assert_eq!(parse_request(b"get /x HTTP/1.1\n"), ParsedRequest::Malformed);
        assert_eq!(parse_request(b"GET x HTTP/1.1\n"), ParsedRequest::Malformed);
    }

    #[test]
    fn endpoints_answer() {
        let s = state();
        let metrics = respond(&s, b"GET /metrics HTTP/1.1\r\n\r\n");
        assert!(!metrics.stop);
        assert!(body_of(&metrics.bytes).contains("sflow_datagrams_total 3\n"));

        let json_body = body_of(&respond(&s, b"GET /metrics.json HTTP/1.1\r\n\r\n").bytes);
        let doc = json::parse(&json_body).expect("snapshot parses");
        assert_eq!(doc.get("schema").and_then(json::Value::as_str), Some("ixp-obs/1"));

        let trace_body = body_of(&respond(&s, b"GET /trace HTTP/1.1\r\n\r\n").bytes);
        let (events, dropped) =
            ixp_obs::journal::parse_trace(&trace_body).expect("trace parses");
        assert_eq!(events.len(), 1);
        assert_eq!(dropped, 0);

        let health_body = body_of(&respond(&s, b"GET /healthz HTTP/1.1\r\n\r\n").bytes);
        let doc = json::parse(&health_body).expect("healthz parses");
        assert_eq!(doc.get("schema").and_then(json::Value::as_str), Some(HEALTH_SCHEMA));
        assert_eq!(doc.get("status").and_then(json::Value::as_str), Some("ok"));
    }

    #[test]
    fn quit_stops_and_unknown_404s() {
        let s = state();
        assert!(respond(&s, b"GET /quit HTTP/1.1\r\n\r\n").stop);
        let nf = respond(&s, b"GET /nope HTTP/1.1\r\n\r\n");
        assert!(String::from_utf8_lossy(&nf.bytes).starts_with("HTTP/1.1 404"));
        let post = respond(&s, b"POST /metrics HTTP/1.1\r\n\r\n");
        assert!(String::from_utf8_lossy(&post.bytes).starts_with("HTTP/1.1 405"));
        let bad = respond(&s, b"\xFF\n");
        assert!(String::from_utf8_lossy(&bad.bytes).starts_with("HTTP/1.1 400"));
    }

    #[test]
    fn oversized_head_is_431() {
        let s = state();
        let huge = vec![b'A'; MAX_REQUEST_BYTES];
        let r = respond(&s, &huge);
        assert!(String::from_utf8_lossy(&r.bytes).starts_with("HTTP/1.1 431"));
    }

    #[test]
    fn mixed_kind_registry_is_a_500_not_a_panic() {
        let s = state();
        s.registry.counter("fam_x{shard=\"0\"}").inc();
        s.registry.gauge("fam_x{shard=\"1\"}").set(1);
        let r = respond(&s, b"GET /metrics HTTP/1.1\r\n\r\n");
        assert!(String::from_utf8_lossy(&r.bytes).starts_with("HTTP/1.1 500"));
        assert!(body_of(&r.bytes).contains("fam_x"));
    }

    #[test]
    fn healthz_reports_breach_status() {
        let s = state();
        s.board.publish_audit(2, "sflow-ledger");
        let body = body_of(&respond(&s, b"GET /healthz HTTP/1.1\r\n\r\n").bytes);
        let doc = json::parse(&body).expect("parses");
        assert_eq!(doc.get("status").and_then(json::Value::as_str), Some("breach"));
        assert_eq!(doc.get("audit_breaches").and_then(json::Value::as_u64), Some(2));
    }

    #[test]
    fn responses_carry_content_length_and_close() {
        let s = state();
        let r = respond(&s, b"GET /metrics HTTP/1.1\r\n\r\n");
        let text = String::from_utf8_lossy(&r.bytes).to_string();
        let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
        let declared: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.parse().ok())
            .expect("content-length present");
        assert_eq!(declared, body.len());
        assert!(head.contains("Connection: close"));
    }

    #[test]
    fn loopback_roundtrip_when_sockets_allowed() {
        // Probe-gated like flowgen --probe: if the sandbox denies the
        // bind, the pure-core tests above already cover the protocol.
        let s = state();
        let Ok(server) = Server::bind("127.0.0.1:0", s) else {
            eprintln!("obsd test: loopback bind denied here; skipping socket roundtrip");
            return;
        };
        let addr = server.local_addr().expect("bound address");
        let handle = std::thread::spawn(move || server.serve());
        for path in ["/metrics", "/metrics.json", "/healthz", "/trace"] {
            let mut conn = TcpStream::connect(addr).expect("connect");
            conn.write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())
                .expect("write");
            let mut reply = String::new();
            conn.read_to_string(&mut reply).expect("read");
            assert!(reply.starts_with("HTTP/1.1 200"), "{path} -> {reply}");
        }
        let mut conn = TcpStream::connect(addr).expect("connect quit");
        conn.write_all(b"GET /quit HTTP/1.1\r\n\r\n").expect("write quit");
        let mut reply = String::new();
        conn.read_to_string(&mut reply).expect("read quit");
        assert!(reply.starts_with("HTTP/1.1 200"));
        handle.join().expect("server thread").expect("serve returns cleanly");
    }
}
