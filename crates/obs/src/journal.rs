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
//! The event stream has one export, `render_trace`'s schema-versioned
//! `ixp-trace/1` JSON document, taken over two spans of the ring:
//!
//! * [`Journal::render`] — every retained event: served at `/trace` and
//!   written by `repro --trace`;
//! * [`Journal::render_tail`] — the newest events only: the *flight dump*
//!   written to a `<checkpoint>.flight` side file when a run is killed,
//!   a restore is rejected, or the conservation auditor fires.
//!
//! A document's `dropped` counts every event it does not hold, so it
//! equals its first event's `seq`. The export is write-only here:
//! consumers compare rendered bytes, and a post-mortem reads a document
//! with `ixp-codec`'s JSON reader.
//!
//! The journal is cheap when disabled (capacity 0 short-circuits before
//! taking the lock's contents seriously) and bounded when enabled: once
//! full, the oldest event is dropped and counted, so the tail — the part
//! a post-mortem needs — is always intact.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::clock::Clock;

/// Schema identifier written into every trace document.
pub(crate) const TRACE_SCHEMA: &str = "ixp-trace/1";

/// Default ring capacity when a journal is enabled without an explicit
/// size: enough for several supervisor ticks of dense transition traffic
/// while keeping a flight dump comfortably small.
pub const DEFAULT_CAPACITY: usize = 1024;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A supervisor tick began. `a` = offered datagrams so far.
    TickStart,
    /// A supervisor tick ended. `a` = datagrams drained this tick,
    /// `b` = 1 if the tick was a deadline miss (stalled drain).
    TickEnd,
    /// A per-(agent, sub_agent) health transition fired.
    /// `a` = previous state index, `b` = new state index
    /// (Healthy/Degraded/Quarantined/Recovering as in
    /// `ixp-supervisor::health::HealthState`).
    Transition,
    /// One packet installed or refreshed flow templates. `agent` = peer
    /// key, `sub_agent` = 0, `a` = templates newly installed, `b` =
    /// templates refreshed to a new layout.
    TemplateInstall,
    /// One packet's installs evicted flow templates (LRU). `agent` = peer
    /// key, `sub_agent` = 0, `a` = templates evicted, `b` = 0.
    TemplateEvict,
    /// Work was shed. `a` = items shed in this event, `b` = shed total
    /// after it.
    Shed,
    /// A template-less data packet was parked. `agent` = peer key,
    /// `sub_agent` = 0, `a` = packets parked after it, `b` = bytes parked
    /// after it.
    Park,
    /// Parked packets were replayed after a template install.
    /// `a` = packets replayed, `b` = packets still parked.
    Replay,
    /// A source restart was detected (sequence regression).
    /// `a` = restarts total after this one.
    SourceRestart,
    /// A source crossed the error-run threshold and was quarantined.
    /// `a` = consecutive error run length.
    SourceQuarantined,
    /// The runtime conservation auditor found an unbalanced ledger.
    /// `a` = invariant index (see `crate::audit`), `b` = absolute
    /// imbalance.
    AuditBreach,
    /// The run was killed at an injected fault point. `a` = offered
    /// datagrams at the kill, `b` = ticks completed.
    Kill,
    /// A checkpoint restore was rejected fail-closed. `a` = 0.
    RestoreRejected,
}

/// Every kind, in declaration order.
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
        self.render_tail(usize::MAX)
    }

    /// Serialize the most recent `last_n` events as an `ixp-trace/1`
    /// document. Its `dropped` counts every event the document does not
    /// hold — ring evictions plus the retained events before the tail — so
    /// it equals the first event's `seq`.
    pub fn render_tail(&self, last_n: usize) -> String {
        let (tail, dropped) = {
            let ring = self.lock();
            let skip = ring.events.len().saturating_sub(last_n);
            let before = u64::try_from(skip).unwrap_or(u64::MAX);
            let tail: Vec<Event> = ring.events.iter().skip(skip).copied().collect();
            (tail, ring.dropped.saturating_add(before))
        };
        render_trace(&tail, dropped)
    }
}

// ---------------------------------------------------------------------------
// ixp-trace/1 JSON export
// ---------------------------------------------------------------------------

/// Serialize events to the versioned `ixp-trace/1` JSON document. The
/// layout mirrors the `ixp-obs/1` snapshot: integers and short strings
/// only, so equal event streams serialize byte-identically.
pub(crate) fn render_trace(events: &[Event], dropped: u64) -> String {
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
    fn trace_rendering_is_deterministic() {
        assert_eq!(sample_journal().render(), sample_journal().render());
    }

    #[test]
    fn a_tail_document_counts_what_it_leaves_out() {
        // Capacity 3 after five records: seqs 0 and 1 evicted, 2..=4 kept.
        let j = Journal::with_capacity(3, test_clock());
        for a in 0..5 {
            j.record(EventKind::Shed, 0, 0, a, a);
        }
        let seqs_and_dropped = |doc: &str| {
            let doc = crate::json::parse(doc).expect("an ixp-trace/1 document parses");
            let events = doc.get("events").and_then(|e| e.as_arr()).expect("an events array");
            let seqs: Vec<u64> =
                events.iter().filter_map(|e| e.get("seq").and_then(|s| s.as_u64())).collect();
            (seqs, doc.get("dropped").and_then(|d| d.as_u64()))
        };
        assert_eq!(seqs_and_dropped(&j.render_tail(2)), (vec![3, 4], Some(3)));
        assert_eq!(seqs_and_dropped(&j.render()), (vec![2, 3, 4], Some(2)));
        assert_eq!(j.render_tail(j.len()), j.render());
    }
}
