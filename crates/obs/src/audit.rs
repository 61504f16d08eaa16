//! The conservation ledger, stated once, and its runtime auditor.
//!
//! Each stage books a consumed datagram into one bucket at one booking
//! point (DESIGN.md §8). What the buckets add up to is [`LEDGER`], five rows
//! of metric family names, and [`Identity::balance`] is the only code that
//! adds a row up. A component reads its own `Series` table
//! ([`family_sum`](crate::publish::family_sum)) in `fully_accounted()` and
//! its restore; the [`Auditor`] reads the live families in a [`Snapshot`],
//! catching while the pipeline runs what the types cannot see.
//!
//! A `queued` row has work in flight between its sides: the supervisor
//! ring, the transport inbox. A component passes the queue's depth; the
//! registry holds none, so the auditor checks a queued row only in
//! [`AuditScope::Final`], once the queues are drained, and the others at
//! every sync point ([`AuditScope::Steady`]).
//!
//! One skip rule: a row whose `total` family is not registered is skipped,
//! its component never built. Binding registers a table's every row, and
//! `tests/metrics_smoke.rs` checks that a row's families are bound together,
//! so an absent part is a breach, as is a side that overflows `u64`. A breach
//! bumps `obs_audit_breaches_total` (0 on a healthy run, so snapshots keep
//! their bytes), journals an [`EventKind::AuditBreach`] and is an
//! [`AuditError`].

use crate::journal::{EventKind, Journal};
use crate::metrics::{family_total, Counter, MetricValue, Registry, Snapshot};

/// Name of the breach counter the auditor registers.
pub(crate) const BREACH_COUNTER: &str = "obs_audit_breaches_total";

/// The ledger identities, each stated once as its row of [`LEDGER`]. The
/// discriminant order is stable: it is the `a` operand of the
/// `audit_breach` journal event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Every sFlow datagram the collector saw is in one bucket.
    SflowLedger = 0,
    /// Every packet the transport decode stage received is in one bucket.
    TransportLedger = 1,
    /// Every accepted transport packet is counted under one protocol.
    TransportProtoSum = 2,
    /// Every datagram offered to the supervisor was ingested, shed or waits.
    SupervisorOffered = 3,
    /// Every packet offered to the transport was received, shed or waits.
    TransportOffered = 4,
}

/// One row of the ledger: `total = parts… (+ queue depth)`, over metric
/// families. A family sums over its label blocks.
#[derive(Debug)]
pub struct Identity {
    /// Which identity this is.
    pub invariant: Invariant,
    /// Short stable name, for reports and the `/healthz` verdict.
    pub name: &'static str,
    /// The family every unit enters by.
    pub total: &'static str,
    /// The families it leaves by.
    pub parts: &'static [&'static str],
    /// Work in flight sits between the sides: the right adds a queue depth.
    pub queued: bool,
}

/// The ledger, in [`Invariant`] order.
pub static LEDGER: [Identity; 5] = [
    Identity {
        invariant: Invariant::SflowLedger,
        name: "sflow-ledger",
        total: "sflow_datagrams_total",
        parts: &["sflow_accepted_total", "sflow_duplicates_total", "sflow_decode_errors_total"],
        queued: false,
    },
    Identity {
        invariant: Invariant::TransportLedger,
        name: "transport-ledger",
        total: "transport_received_total",
        parts: &[
            "transport_accepted_total",
            "transport_duplicates_total",
            "transport_decode_errors_total",
            "transport_template_missing_dropped_total",
            "transport_pending_packets",
        ],
        queued: false,
    },
    Identity {
        invariant: Invariant::TransportProtoSum,
        name: "transport-proto-sum",
        total: "transport_accepted_total",
        parts: &["transport_packets_total"],
        queued: false,
    },
    Identity {
        invariant: Invariant::SupervisorOffered,
        name: "supervisor-offered",
        total: "supervisor_offered_total",
        parts: &["sflow_datagrams_total", "supervisor_shed_total"],
        queued: true,
    },
    Identity {
        invariant: Invariant::TransportOffered,
        name: "transport-offered",
        total: "transport_offered_total",
        parts: &["transport_received_total", "transport_shed_total"],
        queued: true,
    },
];

impl Identity {
    /// Add the row up. `read` gives a family's sum over its label blocks,
    /// `None` when the family is absent or its sum overflows `u64`;
    /// `queued` is the depth of a queued row's queue, ignored on the
    /// others. An absent `total` skips the row (see the module docs); an
    /// absent part, or a right side that overflows, is a breach.
    pub fn balance(
        &self,
        read: impl Fn(&str) -> Option<u64>,
        queued: u64,
    ) -> Result<(), AuditError> {
        let Some(left) = read(self.total) else { return Ok(()) };
        let queued = if self.queued { queued } else { 0 };
        let right = self.parts.iter().try_fold(queued, |sum, part| sum.checked_add(read(part)?));
        match right {
            Some(right) if right == left => Ok(()),
            _ => Err(AuditError { invariant: self.invariant, left, right }),
        }
    }
}

impl Invariant {
    /// Stable journal-event index.
    pub(crate) fn index(self) -> u64 {
        self as u64
    }

    /// Its row of [`LEDGER`].
    pub fn identity(self) -> &'static Identity {
        let [sflow, transport, protos, supervisor, offered] = &LEDGER;
        match self {
            Invariant::SflowLedger => sflow,
            Invariant::TransportLedger => transport,
            Invariant::TransportProtoSum => protos,
            Invariant::SupervisorOffered => supervisor,
            Invariant::TransportOffered => offered,
        }
    }

    /// Short stable name for reports and the `/healthz` verdict.
    pub(crate) fn as_str(self) -> &'static str {
        self.identity().name
    }

    /// The identity, spelled out for humans.
    pub(crate) fn equation(self) -> String {
        let row = self.identity();
        let queued = if row.queued { " + queued" } else { "" };
        format!("{} = {}{queued}", row.total, row.parts.join(" + "))
    }
}

/// A conservation breach: the two sides of an identity disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditError {
    /// Which identity failed.
    pub invariant: Invariant,
    /// Left-hand side, the `total` family.
    pub left: u64,
    /// Right-hand side; `None` when a part is absent or the sum overflows.
    pub right: Option<u64>,
}

impl AuditError {
    /// Absolute imbalance, the `b` operand of the journal event
    /// (`u64::MAX` for a right side that does not evaluate).
    pub(crate) fn imbalance(&self) -> u64 {
        self.right.map_or(u64::MAX, |right| self.left.abs_diff(right))
    }
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let right =
            self.right.map_or("absent or overflowing".to_string(), |right| right.to_string());
        let (name, equation, left) =
            (self.invariant.as_str(), self.invariant.equation(), self.left);
        write!(f, "conservation breach [{name}]: {equation} (lhs {left} != rhs {right})")
    }
}

impl std::error::Error for AuditError {}

/// Which identities to check; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditScope {
    /// Only the identities that hold at any metrics sync point.
    Steady,
    /// Steady identities plus the end-of-run queue-drained identities.
    Final,
}

/// Check the ledger identities against a snapshot. Returns every breach,
/// in invariant order.
pub(crate) fn check(snapshot: &Snapshot, scope: AuditScope) -> Vec<AuditError> {
    let read = |family: &str| {
        family_total(
            family,
            snapshot.entries.iter().filter_map(|(name, value)| match value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => Some((name.as_str(), *v)),
                MetricValue::Histogram(_) => None,
            }),
        )
    };
    LEDGER
        .iter()
        .filter(|row| !row.queued || scope == AuditScope::Final)
        .filter_map(|row| row.balance(read, 0).err())
        .collect()
}

/// The periodic auditor: checks a registry's live snapshot, counts
/// breaches, and writes them into the journal. Cloning shares state.
#[derive(Debug, Clone)]
pub struct Auditor {
    registry: Registry,
    journal: Journal,
    breaches: Counter,
}

impl Auditor {
    /// Build an auditor over `registry`, journaling breaches into
    /// `journal`. Registers `BREACH_COUNTER` (0 on a healthy run, so
    /// same-seed byte-identity is preserved).
    pub fn new(registry: Registry, journal: Journal) -> Auditor {
        let breaches = registry.counter(BREACH_COUNTER);
        Auditor { registry, journal, breaches }
    }

    /// Run one audit over the registry's current snapshot. Every breach
    /// bumps the breach counter and records an `audit_breach` journal
    /// event; the first breach (in invariant order) is returned as the
    /// typed error.
    pub fn run(&self, scope: AuditScope) -> Result<(), AuditError> {
        let snapshot = self.registry.snapshot();
        self.run_on(&snapshot, scope)
    }

    /// As [`Auditor::run`], over an externally cut snapshot.
    pub(crate) fn run_on(&self, snapshot: &Snapshot, scope: AuditScope) -> Result<(), AuditError> {
        let breaches = check(snapshot, scope);
        for breach in &breaches {
            self.breaches.inc();
            self.journal.record(
                EventKind::AuditBreach,
                0,
                0,
                breach.invariant.index(),
                breach.imbalance(),
            );
        }
        match breaches.into_iter().next() {
            None => Ok(()),
            Some(first) => Err(first),
        }
    }

    /// Total breaches observed so far.
    pub fn breaches(&self) -> u64 {
        self.breaches.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::test_clock;

    fn balanced_registry() -> Registry {
        let r = Registry::new();
        r.counter("sflow_datagrams_total").add(100);
        r.counter("sflow_accepted_total").add(90);
        r.counter("sflow_duplicates_total").add(4);
        r.counter("sflow_decode_errors_total{kind=\"truncated\"}").add(5);
        r.counter("sflow_decode_errors_total{kind=\"bad_version\"}").add(1);
        r.counter("supervisor_offered_total").add(103);
        r.counter("supervisor_shed_total").add(3);
        r
    }

    #[test]
    fn balanced_ledger_passes_both_scopes() {
        let r = balanced_registry();
        assert!(check(&r.snapshot(), AuditScope::Steady).is_empty());
        assert!(check(&r.snapshot(), AuditScope::Final).is_empty());
    }

    #[test]
    fn unbalanced_sflow_ledger_fires() {
        let r = balanced_registry();
        // Lose a datagram: ingested without any bucket increment.
        r.counter("sflow_datagrams_total").add(1);
        let breaches = check(&r.snapshot(), AuditScope::Steady);
        assert_eq!(breaches.len(), 1);
        let b = &breaches[0];
        assert_eq!(b.invariant, Invariant::SflowLedger);
        assert_eq!(b.left, 101);
        assert_eq!(b.right, Some(100));
        assert_eq!(b.imbalance(), 1);
    }

    #[test]
    fn ring_backlog_is_legal_mid_run_but_not_at_the_end() {
        let r = balanced_registry();
        // Four datagrams offered but still sitting in the ring.
        r.counter("supervisor_offered_total").add(4);
        assert!(check(&r.snapshot(), AuditScope::Steady).is_empty());
        let breaches = check(&r.snapshot(), AuditScope::Final);
        assert_eq!(breaches.len(), 1);
        assert_eq!(breaches[0].invariant, Invariant::SupervisorOffered);
        // A component knows its queue's depth and passes it.
        let snapshot = r.snapshot();
        let read = |family: &str| snapshot.counter(family);
        assert_eq!(Invariant::SupervisorOffered.identity().balance(read, 4), Ok(()));
    }

    #[test]
    fn transport_ledger_counts_pending_and_proto_split() {
        let r = Registry::new();
        r.counter("transport_received_total").add(50);
        r.counter("transport_accepted_total").add(40);
        r.counter("transport_duplicates_total").add(2);
        r.counter("transport_decode_errors_total{kind=\"truncated\"}").add(3);
        r.counter("transport_template_missing_dropped_total").add(4);
        r.gauge("transport_pending_packets").set(1);
        r.counter("transport_packets_total{proto=\"sflow\"}").add(30);
        r.counter("transport_packets_total{proto=\"netflow5\"}").add(10);
        assert!(check(&r.snapshot(), AuditScope::Steady).is_empty());
        // Break the proto split.
        r.counter("transport_packets_total{proto=\"netflow5\"}").add(1);
        let breaches = check(&r.snapshot(), AuditScope::Steady);
        assert_eq!(breaches.len(), 1);
        assert_eq!(breaches[0].invariant, Invariant::TransportProtoSum);
    }

    #[test]
    fn an_absent_part_is_a_breach() {
        let r = Registry::new();
        r.counter("transport_received_total").add(2);
        r.counter("transport_accepted_total").add(2);
        r.counter("transport_duplicates_total");
        r.counter("transport_decode_errors_total{kind=\"truncated\"}");
        r.counter("transport_template_missing_dropped_total");
        // No `transport_pending_packets`, no `transport_packets_total`.
        let breaches = check(&r.snapshot(), AuditScope::Steady);
        let expected = [Invariant::TransportLedger, Invariant::TransportProtoSum]
            .map(|invariant| AuditError { invariant, left: 2, right: None });
        assert_eq!(breaches, expected);
        assert_eq!(breaches[0].imbalance(), u64::MAX);
    }

    #[test]
    fn a_side_that_overflows_is_a_breach_not_a_saturated_match() {
        let r = Registry::new();
        r.counter("transport_offered_total").add(u64::MAX);
        r.counter("transport_received_total").add(u64::MAX);
        r.counter("transport_shed_total").add(1);
        let offered = check(&r.snapshot(), AuditScope::Final);
        let breach = offered.iter().find(|b| b.invariant == Invariant::TransportOffered);
        assert_eq!(breach.map(|b| b.right), Some(None));
    }

    #[test]
    fn ledger_rows_are_in_invariant_order() {
        for (index, row) in LEDGER.iter().enumerate() {
            assert_eq!(row.invariant.index(), index as u64);
            assert!(std::ptr::eq(row.invariant.identity(), row), "{}", row.name);
            assert_eq!(row.invariant.as_str(), row.name);
            assert!(!row.parts.is_empty() && !row.parts.contains(&row.total), "{}", row.name);
        }
    }

    #[test]
    fn absent_components_are_skipped() {
        let r = Registry::new();
        r.counter("unrelated_total").add(7);
        assert!(check(&r.snapshot(), AuditScope::Final).is_empty());
    }

    #[test]
    fn auditor_counts_and_journals_breaches() {
        let r = balanced_registry();
        let journal = crate::journal::Journal::with_capacity(16, test_clock());
        let auditor = Auditor::new(r.clone(), journal.clone());
        assert!(auditor.run(AuditScope::Final).is_ok());
        assert_eq!(auditor.breaches(), 0);

        r.counter("sflow_datagrams_total").add(2);
        let err = auditor.run(AuditScope::Steady).expect_err("breach fires");
        assert_eq!(err.invariant, Invariant::SflowLedger);
        assert_eq!(auditor.breaches(), 1);
        let events = journal.events();
        let breach = events.last().expect("journal event recorded");
        assert_eq!(breach.kind, EventKind::AuditBreach);
        assert_eq!(breach.a, Invariant::SflowLedger.index());
        assert_eq!(breach.b, 2);
        // The breach counter itself must not unbalance anything.
        assert!(r.snapshot().counter(BREACH_COUNTER).is_some());
    }

    #[test]
    fn error_messages_name_the_equation() {
        let err = AuditError { invariant: Invariant::TransportOffered, left: 5, right: Some(3) };
        let msg = err.to_string();
        assert!(msg.contains("transport-offered"));
        assert!(msg.contains(
            "transport_offered_total = transport_received_total + transport_shed_total + queued"
        ));
        assert!(msg.contains("lhs 5 != rhs 3"));
    }
}
