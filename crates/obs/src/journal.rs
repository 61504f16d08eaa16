//! The deterministic event journal and crash flight recorder.
//!
//! A [`Journal`] is a bounded ring of typed [`Event`]s describing what the
//! supervised pipeline *did*: tick boundaries, health-state transitions,
//! template cache churn, shedding, parking, replay, source restarts and
//! quarantines, audit breaches, and the kill/restore edges themselves.
//! Events are stamped with the supervisor tick and the injected
//! [`Clock`](crate::Clock) — never ambient wall time — so two same-seed
//! supervised runs under the frozen `TestClock` produce byte-identical
//! journals (the same property the metrics snapshots already have).
//!
//! Two export formats share the same event stream:
//!
//! * [`render_trace`] — the schema-versioned `ixp-trace/1` JSON document
//!   served at `/trace` and written by `repro --trace`; [`parse_trace`]
//!   reads it back fail-closed.
//! * [`seal_flight`] / [`parse_flight`] — the binary *flight record*
//!   dumped to a `<checkpoint>.flight` side file when a run is killed,
//!   a restore is rejected, or the conservation auditor fires. The frame
//!   is magic, format version, event count and fixed-width events written
//!   with `ixp-codec`'s big-endian fields, closed by its digest trailer
//!   like the checkpoint envelope — parsing is total and every corruption
//!   maps to a typed [`FlightError`].
//!
//! The journal is cheap when disabled (capacity 0 short-circuits before
//! taking the lock's contents seriously) and bounded when enabled: once
//! full, the oldest event is dropped and counted, so the tail — the part
//! a post-mortem needs — is always intact.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use ixp_codec::{
    append_trailer, put_u32, put_u64, put_u8, split_verified, Cur, StateError, TrailerError,
};

use crate::clock::Clock;

/// Schema identifier written into every trace document.
pub const TRACE_SCHEMA: &str = "ixp-trace/1";

/// Default ring capacity when a journal is enabled without an explicit
/// size: enough for several supervisor ticks of dense transition traffic
/// while keeping a flight dump comfortably small.
pub const DEFAULT_CAPACITY: usize = 1024;

/// Magic prefix of a sealed flight record.
pub const FLIGHT_MAGIC: &[u8; 8] = b"IXPFLGT1";

/// Format version of the flight-record frame. 2: the trailer is
/// `ixp-codec`'s word-wise digest (FNV-1a-64 in version 1); widths unchanged.
pub const FLIGHT_VERSION: u32 = 2;

/// Bytes of one encoded event inside a flight record.
const EVENT_WIRE_BYTES: usize = 57;

/// What happened. The discriminants are the wire encoding of the kind
/// byte inside a flight record; renumbering is a format break and must
/// bump [`FLIGHT_VERSION`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A supervisor tick began. `a` = offered datagrams so far.
    TickStart = 0,
    /// A supervisor tick ended. `a` = datagrams drained this tick,
    /// `b` = 1 if the tick was a deadline miss (stalled drain).
    TickEnd = 1,
    /// A per-(agent, sub_agent) health transition fired.
    /// `a` = previous state index, `b` = new state index
    /// (Healthy/Degraded/Quarantined/Recovering as in
    /// `ixp-supervisor::health::HealthState`).
    Transition = 2,
    /// One packet installed or refreshed flow templates. `agent` = peer
    /// key, `sub_agent` = 0, `a` = templates newly installed, `b` =
    /// templates refreshed to a new layout.
    TemplateInstall = 3,
    /// One packet's installs evicted flow templates (LRU). `agent` = peer
    /// key, `sub_agent` = 0, `a` = templates evicted, `b` = 0.
    TemplateEvict = 4,
    /// Work was shed. `a` = items shed in this event, `b` = shed total
    /// after it.
    Shed = 5,
    /// A template-less data packet was parked. `agent` = peer key,
    /// `sub_agent` = 0, `a` = packets parked after it, `b` = bytes parked
    /// after it.
    Park = 6,
    /// Parked packets were replayed after a template install.
    /// `a` = packets replayed, `b` = packets still parked.
    Replay = 7,
    /// A source restart was detected (sequence regression).
    /// `a` = restarts total after this one.
    SourceRestart = 8,
    /// A source crossed the error-run threshold and was quarantined.
    /// `a` = consecutive error run length.
    SourceQuarantined = 9,
    /// The runtime conservation auditor found an unbalanced ledger.
    /// `a` = invariant index (see `crate::audit`), `b` = absolute
    /// imbalance.
    AuditBreach = 10,
    /// The run was killed at an injected fault point. `a` = offered
    /// datagrams at the kill, `b` = ticks completed.
    Kill = 11,
    /// A checkpoint restore was rejected fail-closed. `a` = 0.
    RestoreRejected = 12,
}

/// Every kind, in wire order.
pub const EVENT_KINDS: &[EventKind] = &[
    EventKind::TickStart,
    EventKind::TickEnd,
    EventKind::Transition,
    EventKind::TemplateInstall,
    EventKind::TemplateEvict,
    EventKind::Shed,
    EventKind::Park,
    EventKind::Replay,
    EventKind::SourceRestart,
    EventKind::SourceQuarantined,
    EventKind::AuditBreach,
    EventKind::Kill,
    EventKind::RestoreRejected,
];

impl EventKind {
    /// Stable lowercase name used in the trace document.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::TickStart => "tick_start",
            EventKind::TickEnd => "tick_end",
            EventKind::Transition => "transition",
            EventKind::TemplateInstall => "template_install",
            EventKind::TemplateEvict => "template_evict",
            EventKind::Shed => "shed",
            EventKind::Park => "park",
            EventKind::Replay => "replay",
            EventKind::SourceRestart => "source_restart",
            EventKind::SourceQuarantined => "source_quarantined",
            EventKind::AuditBreach => "audit_breach",
            EventKind::Kill => "kill",
            EventKind::RestoreRejected => "restore_rejected",
        }
    }

    /// Decode a wire kind byte.
    pub fn from_u8(b: u8) -> Option<EventKind> {
        EVENT_KINDS.get(b as usize).copied()
    }

    /// Decode a trace-document kind name.
    pub fn from_name(name: &str) -> Option<EventKind> {
        EVENT_KINDS.iter().copied().find(|k| k.as_str() == name)
    }
}

/// One journal entry. `agent`/`sub_agent` identify the source the event
/// concerns (0 when not applicable); `a`/`b` are kind-specific operands
/// documented on each [`EventKind`] variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number, never reused even after ring drops.
    pub seq: u64,
    /// Supervisor tick the event was recorded under.
    pub tick: u64,
    /// Injected-clock reading at record time (constant under the frozen
    /// `TestClock`, so deterministic runs stay byte-identical).
    pub at_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Agent address (or peer key) the event concerns; 0 if global.
    pub agent: u64,
    /// Sub-agent / source id / observation domain; 0 if global.
    pub sub_agent: u64,
    /// First kind-specific operand.
    pub a: u64,
    /// Second kind-specific operand.
    pub b: u64,
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<Event>,
    capacity: usize,
    next_seq: u64,
    tick: u64,
    dropped: u64,
}

/// The bounded, shareable event journal. Cloning is cheap; all clones
/// append to the same ring. A journal built with capacity 0 (the
/// [`Journal::disabled`] default) records nothing and costs one atomic
/// load per call.
#[derive(Debug, Clone)]
pub struct Journal {
    ring: Arc<Mutex<Ring>>,
    clock: Arc<dyn Clock>,
    enabled: bool,
}

impl Default for Journal {
    fn default() -> Self {
        Journal::disabled()
    }
}

impl Journal {
    /// A journal with an explicit ring capacity reading the given clock.
    /// Capacity 0 yields a disabled journal.
    pub fn with_capacity(capacity: usize, clock: Arc<dyn Clock>) -> Journal {
        Journal {
            ring: Arc::new(Mutex::new(Ring {
                events: VecDeque::with_capacity(capacity.min(DEFAULT_CAPACITY)),
                capacity,
                next_seq: 0,
                tick: 0,
                dropped: 0,
            })),
            clock,
            enabled: capacity > 0,
        }
    }

    /// A journal with the default capacity under the frozen test clock.
    pub fn deterministic() -> Journal {
        Journal::with_capacity(DEFAULT_CAPACITY, crate::clock::test_clock())
    }

    /// A journal that records nothing.
    pub fn disabled() -> Journal {
        Journal::with_capacity(0, crate::clock::test_clock())
    }

    /// Whether this journal records events at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Ring> {
        // A poisoned ring still holds structurally valid events; recover
        // the data rather than propagating a panic into the collector.
        self.ring.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Set the tick stamp applied to subsequently recorded events.
    pub fn set_tick(&self, tick: u64) {
        if !self.enabled {
            return;
        }
        self.lock().tick = tick;
    }

    /// Append an event. The tick stamp is the last [`Journal::set_tick`]
    /// value; the time stamp is the injected clock's current reading.
    pub fn record(&self, kind: EventKind, agent: u64, sub_agent: u64, a: u64, b: u64) {
        if !self.enabled {
            return;
        }
        let at_ns = self.clock.now_ns();
        let mut ring = self.lock();
        let seq = ring.next_seq;
        ring.next_seq = ring.next_seq.saturating_add(1);
        let tick = ring.tick;
        if ring.events.len() >= ring.capacity {
            ring.events.pop_front();
            ring.dropped = ring.dropped.saturating_add(1);
        }
        ring.events.push_back(Event { seq, tick, at_ns, kind, agent, sub_agent, a, b });
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.lock().events.iter().copied().collect()
    }

    /// The most recent `last_n` events, oldest first.
    pub fn tail(&self, last_n: usize) -> Vec<Event> {
        let ring = self.lock();
        let skip = ring.events.len().saturating_sub(last_n);
        ring.events.iter().skip(skip).copied().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether the ring currently holds no events.
    pub fn is_empty(&self) -> bool {
        self.lock().events.is_empty()
    }

    /// Events evicted from the ring since construction.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Serialize the retained events as an `ixp-trace/1` document.
    pub fn render(&self) -> String {
        render_trace(&self.events(), self.dropped())
    }

    /// Seal the most recent `last_n` events into a flight record.
    pub fn dump_flight(&self, last_n: usize) -> Vec<u8> {
        seal_flight(&self.tail(last_n))
    }
}

// ---------------------------------------------------------------------------
// ixp-trace/1 JSON export
// ---------------------------------------------------------------------------

/// Serialize events to the versioned `ixp-trace/1` JSON document. The
/// layout mirrors the `ixp-obs/1` snapshot: integers and short strings
/// only, so equal event streams serialize byte-identically.
pub fn render_trace(events: &[Event], dropped: u64) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{}\",\n", crate::json::escape(TRACE_SCHEMA)));
    out.push_str(&format!("  \"dropped\": {dropped},\n"));
    out.push_str("  \"events\": [");
    let mut first = true;
    for e in events {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    {{\"seq\": {}, \"tick\": {}, \"at_ns\": {}, \"kind\": \"{}\", \
             \"agent\": {}, \"sub_agent\": {}, \"a\": {}, \"b\": {}}}",
            e.seq,
            e.tick,
            e.at_ns,
            e.kind.as_str(),
            e.agent,
            e.sub_agent,
            e.a,
            e.b
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Why a trace document was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The document is not the JSON subset the exporter emits.
    Syntax,
    /// The `schema` field is missing or names a different format.
    BadSchema,
    /// An event object is missing a field or carries a wrong type.
    BadEvent,
    /// An event names an unknown kind.
    BadKind(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Syntax => write!(f, "trace document is not valid JSON"),
            TraceError::BadSchema => {
                write!(f, "trace document does not declare schema {TRACE_SCHEMA}")
            }
            TraceError::BadEvent => write!(f, "trace event is missing a required field"),
            TraceError::BadKind(k) => write!(f, "trace event has unknown kind {k:?}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Parse an `ixp-trace/1` document back into events. Fail-closed: any
/// syntax error, schema mismatch, or malformed event rejects the whole
/// document.
pub fn parse_trace(input: &str) -> Result<(Vec<Event>, u64), TraceError> {
    let doc = crate::json::parse(input).ok_or(TraceError::Syntax)?;
    match doc.get("schema").and_then(crate::json::Value::as_str) {
        Some(s) if s == TRACE_SCHEMA => {}
        _ => return Err(TraceError::BadSchema),
    }
    let dropped = doc
        .get("dropped")
        .and_then(crate::json::Value::as_u64)
        .ok_or(TraceError::BadEvent)?;
    let raw = doc
        .get("events")
        .and_then(crate::json::Value::as_arr)
        .ok_or(TraceError::BadEvent)?;
    let mut events = Vec::with_capacity(raw.len());
    for ev in raw {
        let field = |k: &str| ev.get(k).and_then(crate::json::Value::as_u64);
        let kind_name = ev
            .get("kind")
            .and_then(crate::json::Value::as_str)
            .ok_or(TraceError::BadEvent)?;
        let kind = EventKind::from_name(kind_name)
            .ok_or_else(|| TraceError::BadKind(kind_name.to_string()))?;
        events.push(Event {
            seq: field("seq").ok_or(TraceError::BadEvent)?,
            tick: field("tick").ok_or(TraceError::BadEvent)?,
            at_ns: field("at_ns").ok_or(TraceError::BadEvent)?,
            kind,
            agent: field("agent").ok_or(TraceError::BadEvent)?,
            sub_agent: field("sub_agent").ok_or(TraceError::BadEvent)?,
            a: field("a").ok_or(TraceError::BadEvent)?,
            b: field("b").ok_or(TraceError::BadEvent)?,
        });
    }
    Ok((events, dropped))
}

// ---------------------------------------------------------------------------
// Flight record (binary, sealed)
// ---------------------------------------------------------------------------

/// Why a flight record was rejected. Every corruption maps here; parsing
/// never panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightError {
    /// The frame does not start with [`FLIGHT_MAGIC`].
    BadMagic,
    /// The frame declares an unknown format version.
    BadVersion(u32),
    /// The frame ends before its declared content.
    Truncated,
    /// The trailer does not match the frame body.
    ChecksumMismatch,
    /// Bytes follow the checksum trailer.
    TrailingBytes,
    /// An event carries an undefined kind byte.
    BadKind(u8),
}

impl std::fmt::Display for FlightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlightError::BadMagic => write!(f, "flight record has wrong magic"),
            FlightError::BadVersion(v) => {
                write!(f, "flight record declares unsupported version {v}")
            }
            FlightError::Truncated => write!(f, "flight record is truncated"),
            FlightError::ChecksumMismatch => write!(f, "flight record checksum mismatch"),
            FlightError::TrailingBytes => {
                write!(f, "flight record has trailing bytes after the checksum")
            }
            FlightError::BadKind(b) => {
                write!(f, "flight record event has undefined kind byte {b}")
            }
        }
    }
}

impl std::error::Error for FlightError {}

impl From<TrailerError> for FlightError {
    fn from(e: TrailerError) -> FlightError {
        match e {
            TrailerError::Truncated => FlightError::Truncated,
            TrailerError::Mismatch => FlightError::ChecksumMismatch,
        }
    }
}

/// The fixed-width reads [`parse_flight`] makes can only fail by running
/// out of bytes.
impl From<StateError> for FlightError {
    fn from(_: StateError) -> FlightError {
        FlightError::Truncated
    }
}

/// Seal events into a flight record:
/// `magic | version | count | events | trailer over everything before it`.
pub fn seal_flight(events: &[Event]) -> Vec<u8> {
    let count = u32::try_from(events.len()).unwrap_or(u32::MAX);
    let mut out =
        Vec::with_capacity(16 + events.len().saturating_mul(EVENT_WIRE_BYTES) + 8);
    out.extend_from_slice(FLIGHT_MAGIC);
    put_u32(&mut out, FLIGHT_VERSION);
    put_u32(&mut out, count);
    for e in events.iter().take(count as usize) {
        put_u64(&mut out, e.seq);
        put_u64(&mut out, e.tick);
        put_u64(&mut out, e.at_ns);
        put_u8(&mut out, e.kind as u8);
        put_u64(&mut out, e.agent);
        put_u64(&mut out, e.sub_agent);
        put_u64(&mut out, e.a);
        put_u64(&mut out, e.b);
    }
    append_trailer(&mut out);
    out
}

/// Parse a sealed flight record. Total: every malformed input maps to a
/// typed [`FlightError`], never a panic.
pub fn parse_flight(bytes: &[u8]) -> Result<Vec<Event>, FlightError> {
    let (magic, rest) = bytes.split_at_checked(8).ok_or(FlightError::Truncated)?;
    if magic != FLIGHT_MAGIC {
        return Err(FlightError::BadMagic);
    }
    let mut cur = Cur::new(rest);
    let version = cur.u32()?;
    if version != FLIGHT_VERSION {
        return Err(FlightError::BadVersion(version));
    }
    let count = cur.u32()? as usize;
    // Cap hostile counts before allocating: the frame must physically fit.
    let sealed_len = count
        .checked_mul(EVENT_WIRE_BYTES)
        .and_then(|n| n.checked_add(16 + 8))
        .ok_or(FlightError::Truncated)?;
    if bytes.len() < sealed_len {
        return Err(FlightError::Truncated);
    }
    if bytes.len() > sealed_len {
        return Err(FlightError::TrailingBytes);
    }
    split_verified(bytes)?;
    let mut events = Vec::with_capacity(count.min(DEFAULT_CAPACITY * 4));
    for _ in 0..count {
        let seq = cur.u64()?;
        let tick = cur.u64()?;
        let at_ns = cur.u64()?;
        let kind_byte = cur.u8()?;
        let kind = EventKind::from_u8(kind_byte).ok_or(FlightError::BadKind(kind_byte))?;
        let agent = cur.u64()?;
        let sub_agent = cur.u64()?;
        let a = cur.u64()?;
        let b = cur.u64()?;
        events.push(Event { seq, tick, at_ns, kind, agent, sub_agent, a, b });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{test_clock, TestClock};

    fn sample_journal() -> Journal {
        let j = Journal::with_capacity(8, test_clock());
        j.set_tick(1);
        j.record(EventKind::TickStart, 0, 0, 256, 0);
        j.record(EventKind::Transition, 0x0a00_0001, 7, 0, 1);
        j.record(EventKind::Shed, 0, 0, 3, 3);
        j.record(EventKind::TickEnd, 0, 0, 256, 0);
        j
    }

    #[test]
    fn disabled_journal_records_nothing() {
        let j = Journal::disabled();
        j.record(EventKind::Kill, 1, 2, 3, 4);
        assert!(!j.is_enabled());
        assert!(j.is_empty());
        assert_eq!(j.dropped(), 0);
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let j = Journal::with_capacity(2, test_clock());
        j.record(EventKind::TickStart, 0, 0, 0, 0);
        j.record(EventKind::Shed, 0, 0, 1, 1);
        j.record(EventKind::TickEnd, 0, 0, 0, 0);
        let events = j.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events.first().map(|e| e.kind), Some(EventKind::Shed));
        assert_eq!(events.last().map(|e| e.kind), Some(EventKind::TickEnd));
        assert_eq!(j.dropped(), 1);
        // Sequence numbers survive eviction.
        assert_eq!(events.last().map(|e| e.seq), Some(2));
    }

    #[test]
    fn tick_stamp_applies_to_later_events() {
        let j = Journal::with_capacity(4, test_clock());
        j.record(EventKind::TickStart, 0, 0, 0, 0);
        j.set_tick(5);
        j.record(EventKind::TickEnd, 0, 0, 0, 0);
        let events = j.events();
        assert_eq!(events.first().map(|e| e.tick), Some(0));
        assert_eq!(events.last().map(|e| e.tick), Some(5));
    }

    #[test]
    fn clock_stamps_events() {
        let clock = Arc::new(TestClock::new());
        let j = Journal::with_capacity(4, clock.clone());
        j.record(EventKind::TickStart, 0, 0, 0, 0);
        clock.advance_ns(42);
        j.record(EventKind::TickEnd, 0, 0, 0, 0);
        let events = j.events();
        assert_eq!(events.first().map(|e| e.at_ns), Some(0));
        assert_eq!(events.last().map(|e| e.at_ns), Some(42));
    }

    #[test]
    fn trace_roundtrip() {
        let j = sample_journal();
        let doc = j.render();
        let (events, dropped) = parse_trace(&doc).expect("exporter output parses");
        assert_eq!(events, j.events());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn trace_rendering_is_deterministic() {
        assert_eq!(sample_journal().render(), sample_journal().render());
    }

    #[test]
    fn trace_rejects_bad_documents() {
        assert_eq!(parse_trace("{"), Err(TraceError::Syntax));
        assert_eq!(
            parse_trace("{\"schema\": \"ixp-obs/1\", \"dropped\": 0, \"events\": []}"),
            Err(TraceError::BadSchema)
        );
        let bad_kind = format!(
            "{{\"schema\": \"{TRACE_SCHEMA}\", \"dropped\": 0, \"events\": [\
             {{\"seq\": 0, \"tick\": 0, \"at_ns\": 0, \"kind\": \"warp\", \
             \"agent\": 0, \"sub_agent\": 0, \"a\": 0, \"b\": 0}}]}}"
        );
        assert_eq!(parse_trace(&bad_kind), Err(TraceError::BadKind("warp".to_string())));
        let missing_field = format!(
            "{{\"schema\": \"{TRACE_SCHEMA}\", \"dropped\": 0, \"events\": [\
             {{\"seq\": 0, \"kind\": \"kill\"}}]}}"
        );
        assert_eq!(parse_trace(&missing_field), Err(TraceError::BadEvent));
    }

    #[test]
    fn flight_roundtrip() {
        let j = sample_journal();
        let sealed = j.dump_flight(16);
        let events = parse_flight(&sealed).expect("sealed dump parses");
        assert_eq!(events, j.events());
    }

    #[test]
    fn flight_tail_is_bounded() {
        let j = sample_journal();
        let sealed = j.dump_flight(2);
        let events = parse_flight(&sealed).expect("parses");
        assert_eq!(events.len(), 2);
        assert_eq!(events.last().map(|e| e.kind), Some(EventKind::TickEnd));
    }

    #[test]
    fn flight_rejects_corruption_typed() {
        let sealed = sample_journal().dump_flight(16);
        // Wrong magic.
        let mut bad = sealed.clone();
        if let Some(b) = bad.first_mut() {
            *b ^= 0xFF;
        }
        assert_eq!(parse_flight(&bad), Err(FlightError::BadMagic));
        // Unknown version.
        let mut bad = sealed.clone();
        if let Some(b) = bad.get_mut(11) {
            *b = 9;
        }
        assert_eq!(parse_flight(&bad), Err(FlightError::BadVersion(9)));
        // Body bit flip -> checksum.
        let mut bad = sealed.clone();
        if let Some(b) = bad.get_mut(20) {
            *b ^= 0x01;
        }
        assert_eq!(parse_flight(&bad), Err(FlightError::ChecksumMismatch));
        // Every truncation, every bit flip and trailing bytes: see
        // `ixp-codec`'s `tests/corruption.rs`, which walks this framing
        // beside the checkpoint envelope and the transport state.
    }

    #[test]
    fn flight_rejects_bad_kind_byte() {
        let mut j = sample_journal().events();
        if let Some(e) = j.first_mut() {
            e.kind = EventKind::Kill;
        }
        let mut sealed = seal_flight(&j);
        // Kind byte of event 0 sits at offset 16 + 24.
        if let Some(b) = sealed.get_mut(40) {
            *b = 200;
        }
        // Re-seal the checksum so only the kind is bad.
        sealed.truncate(sealed.len() - 8);
        append_trailer(&mut sealed);
        assert_eq!(parse_flight(&sealed), Err(FlightError::BadKind(200)));
    }

    #[test]
    fn kind_names_roundtrip() {
        for k in EVENT_KINDS {
            assert_eq!(EventKind::from_name(k.as_str()), Some(*k));
            assert_eq!(EventKind::from_u8(*k as u8), Some(*k));
        }
        assert_eq!(EventKind::from_u8(255), None);
        assert_eq!(EventKind::from_name("nope"), None);
    }
}
