//! The runtime conservation auditor.
//!
//! Each stage books a consumed datagram into exactly one accounting bucket
//! at one booking point, which the compiler checks (DESIGN.md §8). This
//! module is the runtime mirror: it re-checks the same ledger identities
//! against the live metric families in a [`Snapshot`], so a conservation
//! bug the types cannot see (or corruption introduced by a restore) is
//! caught while the pipeline is running, not days later in a report.
//!
//! Two audit scopes exist because two kinds of identity exist:
//!
//! * [`AuditScope::Steady`] invariants hold at *every* metrics sync
//!   point — each ingested datagram is already in exactly one bucket.
//! * [`AuditScope::Final`] adds the end-of-run identities that are
//!   legitimately violated mid-run by work still sitting in a queue
//!   (the supervisor ring holds offered-but-undrained datagrams; the
//!   transport inbox holds received-but-unoffered packets).
//!
//! A breach increments `obs_audit_breaches_total`, records an
//! [`EventKind::AuditBreach`] journal event, and surfaces as a typed
//! [`AuditError`]. On a healthy pipeline the breach counter stays 0, so
//! registering it does not disturb the byte-identity of same-seed
//! snapshots.

use crate::journal::{EventKind, Journal};
use crate::metrics::{split_name, Counter, MetricValue, Registry, Snapshot};

/// Name of the breach counter the auditor registers.
pub const BREACH_COUNTER: &str = "obs_audit_breaches_total";

/// The ledger identities the auditor enforces, each stated once as its row
/// of [`LEDGER`]. The discriminant order is stable: it is the `a` operand of
/// the `audit_breach` journal event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Every sFlow datagram the collector saw is in one bucket.
    SflowLedger = 0,
    /// Every packet the transport decode stage received is in one bucket.
    TransportLedger = 1,
    /// Every accepted transport packet is counted under one protocol.
    TransportProtoSum = 2,
    /// Every datagram offered to the supervisor was ingested or shed.
    SupervisorOffered = 3,
    /// Every packet offered to the transport was received or shed.
    TransportOffered = 4,
}

/// One row of the ledger.
struct Identity {
    invariant: Invariant,
    name: &'static str,
    /// The first scope it holds in; see the module docs.
    scope: AuditScope,
    /// `left = term + term …`, a term being a family or `sum(family)` for
    /// one split across label blocks.
    equation: &'static str,
}

/// The ledger, in [`Invariant`] order.
const LEDGER: [Identity; 5] = [
    Identity {
        invariant: Invariant::SflowLedger,
        name: "sflow-ledger",
        scope: AuditScope::Steady,
        equation: "sflow_datagrams_total = sflow_accepted_total + sflow_duplicates_total \
                   + sum(sflow_decode_errors_total)",
    },
    Identity {
        invariant: Invariant::TransportLedger,
        name: "transport-ledger",
        scope: AuditScope::Steady,
        equation: "transport_received_total = transport_accepted_total + \
                   transport_duplicates_total + sum(transport_decode_errors_total) + \
                   transport_template_missing_dropped_total + transport_pending_packets",
    },
    Identity {
        invariant: Invariant::TransportProtoSum,
        name: "transport-proto-sum",
        scope: AuditScope::Steady,
        equation: "transport_accepted_total = sum(transport_packets_total)",
    },
    Identity {
        invariant: Invariant::SupervisorOffered,
        name: "supervisor-offered",
        scope: AuditScope::Final,
        equation: "supervisor_offered_total = sflow_datagrams_total + supervisor_shed_total",
    },
    Identity {
        invariant: Invariant::TransportOffered,
        name: "transport-offered",
        scope: AuditScope::Final,
        equation: "transport_offered_total = transport_received_total + transport_shed_total",
    },
];

impl Invariant {
    /// Stable journal-event index.
    pub fn index(self) -> u64 {
        self as u64
    }

    /// Short stable name for reports and the `/healthz` verdict.
    pub fn as_str(self) -> &'static str {
        LEDGER[self as usize].name
    }

    /// The identity, spelled out for humans.
    pub fn equation(self) -> &'static str {
        LEDGER[self as usize].equation
    }
}

/// A conservation breach: the two sides of an identity disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditError {
    /// Which identity failed.
    pub invariant: Invariant,
    /// Left-hand side as read from the snapshot.
    pub left: u64,
    /// Right-hand side as read from the snapshot.
    pub right: u64,
}

impl AuditError {
    /// Absolute imbalance, the `b` operand of the journal event.
    pub fn imbalance(&self) -> u64 {
        self.left.abs_diff(self.right)
    }
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "conservation breach [{}]: {} (lhs {} != rhs {})",
            self.invariant.as_str(),
            self.invariant.equation(),
            self.left,
            self.right
        )
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

/// Sum every series of `family` (label blocks included), counting both
/// counters and gauges. `None` when the family is absent — the component
/// was never instantiated, so its invariants do not apply.
fn family_sum(snapshot: &Snapshot, family: &str) -> Option<u64> {
    let mut sum = 0u64;
    let mut present = false;
    for (name, value) in &snapshot.entries {
        if split_name(name).0 != family {
            continue;
        }
        present = true;
        match value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                sum = sum.saturating_add(*v);
            }
            MetricValue::Histogram(_) => {}
        }
    }
    if present {
        Some(sum)
    } else {
        None
    }
}

/// Check the ledger identities against a snapshot. Returns every breach,
/// in invariant order. An invariant whose leading family is absent from
/// the snapshot is skipped — its component was never constructed.
pub fn check(snapshot: &Snapshot, scope: AuditScope) -> Vec<AuditError> {
    let mut breaches = Vec::new();
    for row in &LEDGER {
        if row.scope == AuditScope::Final && scope != AuditScope::Final {
            continue;
        }
        let Some((left, terms)) = row.equation.split_once(" = ") else { continue };
        let Some(left) = family_sum(snapshot, left) else { continue };
        let right = terms.split(" + ").try_fold(0u64, |sum, term| {
            let family = term.strip_prefix("sum(").and_then(|f| f.strip_suffix(')'));
            match family_sum(snapshot, family.unwrap_or(term)) {
                Some(v) => Some(sum.saturating_add(v)),
                // A one-term identity compares two families and needs both.
                None if term == terms => None,
                // A ledger's absent bucket is one nothing fell into yet: its
                // zero state is legitimately unregistered.
                None => Some(sum),
            }
        });
        if let Some(right) = right.filter(|right| *right != left) {
            breaches.push(AuditError { invariant: row.invariant, left, right });
        }
    }
    breaches
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
    /// `journal`. Registers [`BREACH_COUNTER`] (0 on a healthy run, so
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
    pub fn run_on(&self, snapshot: &Snapshot, scope: AuditScope) -> Result<(), AuditError> {
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
        assert_eq!(b.right, 100);
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
    fn an_absent_bucket_counts_as_zero_but_an_absent_breakdown_skips() {
        let r = Registry::new();
        r.counter("transport_received_total").add(2);
        r.counter("transport_accepted_total").add(2);
        // No `transport_packets_total` series: nothing to compare the
        // accepted total with. The ledger's other buckets: nothing in them.
        assert!(check(&r.snapshot(), AuditScope::Steady).is_empty());
        r.counter("transport_received_total").add(1);
        let breaches = check(&r.snapshot(), AuditScope::Steady);
        let expected = AuditError { invariant: Invariant::TransportLedger, left: 3, right: 2 };
        assert_eq!(breaches, [expected]);
    }

    #[test]
    fn ledger_rows_are_in_invariant_order() {
        for (index, row) in LEDGER.iter().enumerate() {
            assert_eq!(row.invariant.index(), index as u64);
            assert_eq!((row.invariant.as_str(), row.invariant.equation()), (row.name, row.equation));
            assert!(row.equation.contains(" = "), "{}", row.name);
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
        let err = AuditError { invariant: Invariant::TransportOffered, left: 5, right: 3 };
        let msg = err.to_string();
        assert!(msg.contains("transport-offered"));
        assert!(msg.contains("transport_shed_total"));
    }
}
