//! The metric catalogue: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` and README.md list the same names (a test
//! holds the three together); a run that does not emit exactly its
//! catalogue fails.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics (`--trace 0`), all six on every workload: name, unit,
/// direction, and the share of the parent's median by which the metric may
/// worsen before it counts as a regression (measured in NOISE.md).
pub const END_TO_END: [(&str, &str, Better, f64); 6] = [
    ("setup_s", "s", Lower, 0.25),
    ("datagrams_per_s", "1/s", Higher, 0.20),
    ("report_ms", "ms", Lower, 0.20),
    ("checkpoint_ms", "ms", Lower, 0.20),
    ("restore_ms", "ms", Lower, 0.20),
    ("peak_heap_mb", "MB", Lower, 0.05),
];

/// Per-layer metrics (`--trace 1`): name, unit, direction. A layer that does
/// no work on a workload reads 0 there.
pub const PER_LAYER: [(&str, &str, Better); 86] = [
    // ixp-netmodel / ixp-traffic / ixp-faults / ixp-dns + ixp-cert → setup_s
    ("netmodel.generate_ms", "ms", Lower),
    ("core.analyzer_build_ms", "ms", Lower),
    ("traffic.gen_ns_per_datagram", "ns", Lower),
    ("faults.plan_ns_per_packet", "ns", Lower),
    ("transport.gen_ns_per_packet", "ns", Lower),
    // ixp-transport → datagrams_per_s, checkpoint_ms, restore_ms (live only)
    ("transport.link_recv_ns_per_packet", "ns", Lower),
    ("transport.offer_ns_per_packet", "ns", Lower),
    ("transport.drain_sflow_ns_per_packet", "ns", Lower),
    ("transport.drain_v5_ns_per_packet", "ns", Lower),
    ("transport.drain_v9_ns_per_packet", "ns", Lower),
    ("transport.drain_ipfix_ns_per_packet", "ns", Lower),
    ("transport.ns_per_flow_record", "ns", Lower),
    ("transport.allocs_per_packet", "count", Lower),
    ("transport.alloc_bytes_per_packet", "B", Lower),
    ("transport.accepted_share", "%", Higher),
    ("transport.duplicates", "count", Lower),
    ("transport.decode_errors", "count", Lower),
    ("transport.template_missing_dropped", "count", Lower),
    ("transport.shed", "count", Lower),
    ("transport.template_installs", "count", Lower),
    ("transport.template_refreshes", "count", Lower),
    ("transport.template_evictions", "count", Lower),
    ("transport.save_state_us", "us", Lower),
    ("transport.restore_us", "us", Lower),
    ("transport.state_bytes", "B", Lower),
    // ixp-supervisor → the same three (live only)
    ("supervisor.self_ns_per_datagram", "ns", Lower),
    ("supervisor.ring_ns_per_datagram", "ns", Lower),
    ("supervisor.allocs_per_datagram", "count", Lower),
    ("supervisor.ticks", "count", Lower),
    ("supervisor.deadline_misses", "count", Lower),
    ("supervisor.ring_high_water", "count", Lower),
    ("supervisor.shed", "count", Lower),
    ("supervisor.health_transitions", "count", Lower),
    ("supervisor.checkpoint_ms", "ms", Lower),
    ("supervisor.restore_ms", "ms", Lower),
    ("supervisor.seal_ms", "ms", Lower),
    ("supervisor.open_ms", "ms", Lower),
    ("supervisor.checkpoint_bytes", "B", Lower),
    // ixp-sflow → datagrams_per_s
    ("sflow.decode_ns_per_datagram", "ns", Lower),
    ("sflow.collector_ns_per_datagram", "ns", Lower),
    ("sflow.seqtrack_ns_per_datagram", "ns", Lower),
    ("sflow.allocs_per_datagram", "count", Lower),
    ("sflow.alloc_bytes_per_datagram", "B", Lower),
    ("sflow.accepted", "count", Higher),
    ("sflow.duplicates", "count", Lower),
    ("sflow.decode_errors", "count", Lower),
    ("sflow.lost_estimate", "count", Lower),
    ("sflow.restarts", "count", Lower),
    ("sflow.sources", "count", Lower),
    ("sflow.save_state_us", "us", Lower),
    ("sflow.restore_state_us", "us", Lower),
    // ixp-wire → datagrams_per_s
    ("wire.dissect_ns_per_sample", "ns", Lower),
    ("wire.dissect_ok_share", "%", Higher),
    // ixp-core scan → datagrams_per_s, checkpoint_ms, restore_ms, peak_heap_mb
    ("core.http.classify_ns_per_payload", "ns", Lower),
    ("core.http.match_share", "%", Higher),
    ("core.scan.ingest_ns_per_datagram", "ns", Lower),
    ("core.scan.ingest_sample_ns_per_sample", "ns", Lower),
    ("core.scan.table_ns_per_sample", "ns", Lower),
    ("core.scan.allocs_per_sample", "count", Lower),
    ("core.scan.unique_ips", "count", Higher),
    ("core.scan.domains", "count", Higher),
    ("core.scan.heap_bytes_per_ip", "B", Lower),
    ("core.scan.save_state_ms", "ms", Lower),
    ("core.scan.restore_state_ms", "ms", Lower),
    ("core.scan.state_bytes", "B", Lower),
    // ixp-core analysis (census calls into ixp-dns and ixp-cert) → report_ms
    ("core.census.identify_ms", "ms", Lower),
    ("core.census.servers", "count", Higher),
    ("core.snapshot.build_ms", "ms", Lower),
    ("core.visibility.tables_ms", "ms", Lower),
    ("core.cluster.ms", "ms", Lower),
    ("core.report.render_ms", "ms", Lower),
    // ixp-obs → datagrams_per_s, restore_ms (live only)
    ("obs.attach_overhead_pct", "%", Lower),
    ("obs.attach_noise_pct", "%", Lower),
    ("obs.journal_overhead_pct", "%", Lower),
    ("obs.journal_noise_pct", "%", Lower),
    ("obs.snapshot_us", "us", Lower),
    ("obs.prometheus_render_us", "us", Lower),
    ("obs.json_render_us", "us", Lower),
    ("obs.audit_run_us", "us", Lower),
    ("obs.journal_events", "count", Lower),
    ("obs.journal_dropped", "count", Lower),
    // the harness itself
    ("trace.overhead_pct", "%", Lower),
    ("trace.unattributed_pct", "%", Lower),
    ("trace.spans", "count", Lower),
    ("bench.runqueue_wait_pct", "%", Lower),
    ("bench.slow_unit_share", "%", Lower),
];

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|(n, u, ..)| (n, u))
        .chain(PER_LAYER.iter().map(|(n, u, _)| (n, u)))
        .find(|(n, _)| **n == name)
        .map(|(_, u)| *u)
}
