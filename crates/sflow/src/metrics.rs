//! Live collector metrics (ixp-obs instrumentation).
//!
//! [`CollectorMetrics`] mirrors [`CollectorStats`](crate::collector::CollectorStats)
//! as *live* registry metrics, so a running ingest exposes the same
//! accounting the end-of-run health report prints — datagrams by outcome,
//! sequence-gap loss, restarts, quarantine — without a stats walk.
//!
//! Two deliberate deviations from the report shape, forced by metric
//! monotonicity:
//!
//! * the report's `lost` is *net of late arrivals* (a late datagram takes
//!   its provisional loss back), but a counter must never move backwards,
//!   so the registry carries `sflow_seq_lost_total` (gaps opened) and
//!   `sflow_seq_recovered_total` (late arrivals that closed one) and the
//!   net estimate is their difference;
//! * `sources` / `quarantined_sources` are gauges, updated on transition.
//!
//! Ingest latency is recorded into `sflow_ingest_duration_ns`, sampled one
//! datagram in [`LATENCY_SAMPLE_EVERY`](crate::collector::LATENCY_SAMPLE_EVERY)
//! so the hot loop does not pay two clock reads per datagram.
//!
//! A default-constructed (detached) bundle counts into thin air: the
//! uninstrumented path pays one uncontended atomic add per datagram.

use ixp_obs::{Counter, Gauge, Histogram, Registry};

use crate::collector::Ingest;
use crate::datagram::DecodeError;

/// Counter/gauge bundle for collector ingest outcomes.
#[derive(Debug, Clone, Default)]
pub struct CollectorMetrics {
    /// Every buffer handed to `ingest` (`sflow_datagrams_total`).
    pub datagrams: Counter,
    /// Unique decodable datagrams accepted.
    pub accepted: Counter,
    /// Duplicates suppressed (head repeats and windowed).
    pub duplicates: Counter,
    /// Decode errors: `DecodeError::Truncated`.
    pub truncated: Counter,
    /// Decode errors: `DecodeError::BadVersion`.
    pub bad_version: Counter,
    /// Decode errors: `DecodeError::UnsupportedAgentAddress`.
    pub unsupported_agent: Counter,
    /// Decode errors: `DecodeError::Inconsistent`.
    pub inconsistent: Counter,
    /// Decode errors too damaged to attribute to a source.
    pub unattributed: Counter,
    /// Sequence gaps opened: datagrams provisionally counted lost.
    pub lost: Counter,
    /// Late arrivals that took a provisional loss back.
    pub recovered: Counter,
    /// Agent restarts detected.
    pub restarts: Counter,
    /// Distinct sources seen so far.
    pub sources: Gauge,
    /// Sources currently flagged by the garbage quarantine.
    pub quarantined_sources: Gauge,
    /// Sampled per-`ingest` latency, in nanoseconds.
    pub ingest_ns: Histogram,
}

impl CollectorMetrics {
    /// A metrics bundle counting into thin air (no registry).
    pub fn detached() -> CollectorMetrics {
        CollectorMetrics::default()
    }

    /// Register the bundle in `registry` under the `sflow_*` families.
    pub fn register(registry: &Registry) -> CollectorMetrics {
        let kind =
            |k: &str| registry.counter(&format!("sflow_decode_errors_total{{kind=\"{k}\"}}"));
        CollectorMetrics {
            datagrams: registry.counter("sflow_datagrams_total"),
            accepted: registry.counter("sflow_accepted_total"),
            duplicates: registry.counter("sflow_duplicates_total"),
            truncated: kind("truncated"),
            bad_version: kind("bad_version"),
            unsupported_agent: kind("unsupported_agent_address"),
            inconsistent: kind("inconsistent"),
            unattributed: registry.counter("sflow_unattributed_errors_total"),
            lost: registry.counter("sflow_seq_lost_total"),
            recovered: registry.counter("sflow_seq_recovered_total"),
            restarts: registry.counter("sflow_restarts_total"),
            sources: registry.gauge("sflow_sources"),
            quarantined_sources: registry.gauge("sflow_quarantined_sources"),
            ingest_ns: registry.duration_histogram("sflow_ingest_duration_ns"),
        }
    }

    /// Count one ingest outcome (the per-datagram hot-path add).
    pub fn record<D>(&self, outcome: &Ingest<D>) {
        self.datagrams.inc();
        match outcome {
            Ingest::Accepted(_) => self.accepted.inc(),
            Ingest::Duplicate => self.duplicates.inc(),
            Ingest::Rejected(e) => match e {
                DecodeError::Truncated => self.truncated.inc(),
                DecodeError::BadVersion(_) => self.bad_version.inc(),
                DecodeError::UnsupportedAgentAddress(_) => self.unsupported_agent.inc(),
                DecodeError::Inconsistent => self.inconsistent.inc(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_route_to_the_right_counter() {
        let registry = Registry::new();
        let m = CollectorMetrics::register(&registry);
        m.record::<()>(&Ingest::Duplicate);
        m.record::<()>(&Ingest::Rejected(DecodeError::Truncated));
        m.record::<()>(&Ingest::Rejected(DecodeError::BadVersion(4)));
        assert_eq!(m.datagrams.get(), 3);
        assert_eq!(m.duplicates.get(), 1);
        assert_eq!(m.truncated.get(), 1);
        assert_eq!(m.bad_version.get(), 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sflow_datagrams_total"), Some(3));
        assert_eq!(
            snap.counter("sflow_decode_errors_total{kind=\"bad_version\"}"),
            Some(1)
        );
    }
}
