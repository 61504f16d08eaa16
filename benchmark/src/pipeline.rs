//! The pipelines under test, driven through public functions only.
//!
//! Two entry paths: `WeekScan::ingest` (direct) and MemLink →
//! `TransportIntake` → `Supervisor` → `WeekScan` with a live registry,
//! journal and auditor (live, as `repro --transport memory` wires it).
//! Once a pass is ingested either becomes a [`Sealed`] pipeline, so every
//! workload checkpoints, restores and reports through the same calls and
//! seals the same IXPCKPT1 envelope. (The direct path seals its scan state
//! in that envelope itself: `Supervisor::restore` rightly rejects a
//! supervisor wrapped around an already-ingested scan, whose offered count
//! does not cover the pipeline.)

use std::collections::BTreeMap;

use ixp_core::{report, visibility, WeekScan, WeeklyReport};
use ixp_netmodel::{InternetModel, Week};
use ixp_obs::{AuditScope, Auditor, Journal, Obs};
pub use ixp_supervisor::envelope::fnv64;
use ixp_supervisor::{envelope, Supervisor, SupervisorConfig};
use ixp_transport::{
    Drained, Link as _, MemLink, TransportConfig, TransportIntake, TransportMetrics,
};

use crate::timing::timed;
use crate::workload::Inputs;

/// Datagrams per timed segment of a pass, about: 25–35 ms of ingest work
/// on every workload. Short segments find the floor more often: on this
/// machine interference comes in bursts of milliseconds, and a segment's
/// time is at its floor only when no burst falls inside it.
const SEGMENT: usize = 8_192;

/// Cut a feed into near-equal segments of about [`SEGMENT`] packets — the
/// same ranges every round, and no short tail segment.
pub fn segments<T>(feed: &[T]) -> std::slice::Chunks<'_, T> {
    let count = ((feed.len() + SEGMENT / 2) / SEGMENT).max(1);
    feed.chunks(feed.len().div_ceil(count).max(1))
}

/// The live path audits its ledgers every this many offered datagrams.
const AUDIT_EVERY: u64 = 4096;

/// Packets `pump` pulls off the link per batch (the value `repro` uses).
const PUMP_BATCH: usize = 64;

/// Packets put on the wire at a time, outside the timer.
const WIRE_BATCH: usize = 1024;

/// What the live path carries besides the supervisor.
pub struct LiveParts {
    pub obs: Obs,
    pub journal: Journal,
    pub intake: TransportIntake,
}

impl LiveParts {
    /// A fresh registry and journal bound to `intake`.
    fn attach(mut intake: TransportIntake) -> LiveParts {
        let obs = Obs::real();
        let journal = Journal::with_capacity(ixp_obs::journal::DEFAULT_CAPACITY, obs.clock.clone());
        intake.bind_metrics(TransportMetrics::register(&obs.registry));
        intake.bind_journal(journal.clone());
        LiveParts {
            obs,
            journal,
            intake,
        }
    }
}

/// A pipeline being fed.
// One or two alive at a time; boxing the live half would put an indirection
// on the timed path for nothing.
#[allow(clippy::large_enum_variant)]
pub enum Pipeline {
    Direct(WeekScan),
    Live {
        parts: LiveParts,
        sup: Supervisor,
        auditor: Auditor,
        link: MemLink,
        /// Steady-state audits that found a ledger out of balance.
        breaches: u64,
    },
}

impl Pipeline {
    /// An empty pipeline for the reference week.
    pub fn new(inputs: &Inputs<'_>, live: bool) -> Pipeline {
        let week = Week::REFERENCE;
        if !live {
            return Pipeline::Direct(WeekScan::new(week, inputs.members));
        }
        let parts = LiveParts::attach(TransportIntake::new(TransportConfig::default()));
        let mut sup = Supervisor::with_obs(
            WeekScan::with_obs(week, inputs.members, &parts.obs),
            SupervisorConfig::default(),
            &parts.obs,
        );
        sup.bind_journal(parts.journal.clone());
        let auditor = Auditor::new(parts.obs.registry.clone(), parts.journal.clone());
        Pipeline::Live {
            parts,
            sup,
            auditor,
            link: MemLink::new(),
            breaches: 0,
        }
    }

    /// Take `packets` in at the workload's entry point and return the
    /// nanoseconds that took. On the live path the exporters' side of the
    /// link — putting the packets on the wire — is outside the timer, and is
    /// done a batch at a time so the wire never holds more than a batch.
    pub fn ingest_timed(&mut self, packets: &[(u64, Vec<u8>)]) -> u64 {
        match self {
            Pipeline::Direct(scan) => {
                timed(|| {
                    for (_, datagram) in packets {
                        scan.ingest(datagram);
                    }
                })
                .1
            }
            Pipeline::Live {
                parts,
                sup,
                auditor,
                link,
                breaches,
            } => {
                let mut ns = 0;
                for batch in packets.chunks(WIRE_BATCH) {
                    for (peer, packet) in batch {
                        link.send(*peer, packet).expect("MemLink::send cannot fail");
                    }
                    ns += timed(|| loop {
                        let n = parts
                            .intake
                            .pump(link, PUMP_BATCH)
                            .expect("MemLink::recv cannot fail");
                        for unit in parts.intake.drain(usize::MAX) {
                            if let Drained::Sflow { datagram, .. } = unit {
                                sup.offer(datagram);
                                if sup.offered() % AUDIT_EVERY == 0
                                    && auditor.run(AuditScope::Steady).is_err()
                                {
                                    *breaches += 1;
                                }
                            }
                        }
                        if n == 0 {
                            break;
                        }
                    })
                    .1;
                }
                ns
            }
        }
    }

    /// End of the pass: the fed pipeline, and how many steady-state audits
    /// breached on the way.
    pub fn seal(self) -> (Sealed, u64) {
        match self {
            Pipeline::Direct(scan) => (Sealed::Direct(scan), 0),
            Pipeline::Live {
                parts,
                sup,
                breaches,
                ..
            } => (Sealed::Live { sup, parts }, breaches),
        }
    }
}

/// A fully fed pipeline, not yet flushed.
#[allow(clippy::large_enum_variant)]
pub enum Sealed {
    Direct(WeekScan),
    Live { sup: Supervisor, parts: LiveParts },
}

/// One whole-pipeline checkpoint.
#[derive(Clone, PartialEq, Eq)]
pub struct Image {
    pub supervisor: Vec<u8>,
    /// The transport side file (live path only).
    pub transport: Option<Vec<u8>>,
}

impl Image {
    pub fn len(&self) -> usize {
        self.supervisor.len() + self.transport.as_ref().map_or(0, Vec::len)
    }
}

/// The complete result of a week, and every count the checks compare.
pub struct Finished {
    /// Every `report::render_*` section, concatenated.
    pub rendered: String,
    pub table1: visibility::Table1,
    /// Datagram/sample/IP counts and every ledger bucket, by name.
    pub facts: BTreeMap<&'static str, u64>,
    /// Both ledgers closed and the final audit passed.
    pub accounted: bool,
}

impl Finished {
    /// Everything `golden.json` pins at the default seed: the counts, the
    /// digest of the rendered report, and the sizes of feed and checkpoint.
    pub fn golden_facts(
        &self,
        feed_packets: u64,
        checkpoint_bytes: usize,
    ) -> BTreeMap<String, String> {
        let mut facts: BTreeMap<String, String> = self
            .facts
            .iter()
            .map(|(name, n)| (name.to_string(), n.to_string()))
            .collect();
        facts.insert(
            "report.fnv64".into(),
            format!("{:016x}", fnv64(self.rendered.as_bytes())),
        );
        facts.insert("feed.packets".into(), feed_packets.to_string());
        facts.insert("checkpoint.bytes".into(), checkpoint_bytes.to_string());
        facts
    }
}

impl Sealed {
    /// `checkpoint_ms`: seal the pipeline as it stands.
    pub fn checkpoint(&self) -> Image {
        match self {
            Sealed::Direct(scan) => Image {
                supervisor: envelope::seal(&scan.save_state()),
                transport: None,
            },
            Sealed::Live { sup, parts } => Image {
                supervisor: sup.checkpoint(),
                transport: Some(parts.intake.save_state()),
            },
        }
    }

    /// `restore_ms`: open, validate and rebuild from `image`; where obs is
    /// attached, re-register and replay the counters into a fresh registry.
    pub fn restore(image: &Image) -> Result<Sealed, String> {
        let Some(transport) = &image.transport else {
            let payload = envelope::open(&image.supervisor)
                .map_err(|e| format!("checkpoint envelope rejected: {e}"))?;
            return WeekScan::restore_state(payload)
                .map(Sealed::Direct)
                .map_err(|e| format!("scan state rejected: {e}"));
        };
        let mut sup = Supervisor::restore(&image.supervisor, SupervisorConfig::default())
            .map_err(|e| format!("supervisor checkpoint rejected: {e}"))?;
        let intake = TransportIntake::restore_from(transport)
            .map_err(|e| format!("transport state rejected: {e}"))?;
        let parts = LiveParts::attach(intake);
        sup.bind_obs(&parts.obs);
        sup.bind_journal(parts.journal.clone());
        Ok(Sealed::Live { sup, parts })
    }

    /// `report_ms`: from the last datagram to the complete result — flush,
    /// census and snapshot, visibility tables, every renderer.
    pub fn finish_report(self, inputs: &Inputs<'_>) -> Finished {
        let mut facts = BTreeMap::new();
        let mut accounted = true;
        let scan = match self {
            Sealed::Direct(scan) => scan,
            Sealed::Live { mut sup, mut parts } => {
                sup.finish();
                let t = parts.intake.finish();
                let (installed, refreshed, evicted) = parts.intake.template_counts();
                accounted &= parts.intake.fully_accounted();
                let auditor = Auditor::new(parts.obs.registry.clone(), parts.journal.clone());
                accounted &= auditor.run(AuditScope::Final).is_ok();
                let s = sup.stats();
                facts.extend([
                    ("transport.offered", t.offered),
                    ("transport.received", t.received),
                    ("transport.accepted", t.accepted),
                    ("transport.duplicates", t.duplicates),
                    ("transport.decode_errors", t.decode_errors),
                    ("transport.truncated", t.truncated),
                    ("transport.bad_version", t.bad_version),
                    ("transport.inconsistent", t.inconsistent),
                    ("transport.shed", t.shed),
                    (
                        "transport.template_missing_dropped",
                        t.template_missing_dropped,
                    ),
                    ("transport.flows", t.flows),
                    ("transport.sflow_datagrams", t.sflow_datagrams),
                    ("transport.v5_packets", t.v5_packets),
                    ("transport.v9_packets", t.v9_packets),
                    ("transport.ipfix_packets", t.ipfix_packets),
                    ("transport.template_installs", installed),
                    ("transport.template_refreshes", refreshed),
                    ("transport.template_evictions", evicted),
                    (
                        "obs.journal_events",
                        parts.journal.len() as u64 + parts.journal.dropped(),
                    ),
                    ("obs.journal_dropped", parts.journal.dropped()),
                    ("supervisor.offered", s.offered),
                    ("supervisor.shed", s.shed),
                    ("supervisor.ticks", s.ticks),
                    ("supervisor.deadline_misses", s.deadline_misses),
                    ("supervisor.ring_high_water", s.high_water as u64),
                    ("supervisor.health_transitions", s.transitions.iter().sum()),
                ]);
                sup.into_scan()
            }
        };
        let health = scan.ingest_health();
        accounted &= health.fully_accounted();
        let c = health.collector;
        facts.extend([
            ("scan.unique_ips", scan.unique_ips() as u64),
            ("scan.domains", scan.domains.len() as u64),
            ("scan.samples", scan.filter.total().samples),
            ("scan.undissectable_samples", health.undissectable_samples),
            ("scan.shed", health.shed),
            ("sflow.datagrams", c.datagrams),
            ("sflow.accepted", c.accepted),
            ("sflow.duplicates", c.duplicates),
            ("sflow.lost_estimate", c.lost),
            ("sflow.restarts", c.restarts),
            ("sflow.decode_errors", c.decode_errors.total()),
            ("sflow.truncated", c.decode_errors.truncated),
            ("sflow.bad_version", c.decode_errors.bad_version),
            ("sflow.unsupported_agent", c.decode_errors.unsupported_agent),
            ("sflow.inconsistent", c.decode_errors.inconsistent),
            ("sflow.unattributed_errors", c.unattributed_errors),
            ("sflow.sources", c.sources as u64),
            ("sflow.quarantined_sources", c.quarantined_sources as u64),
        ]);

        let weekly = inputs.analyzer.report_from_scan(scan);
        let tables = Tables::build(&weekly, inputs.analyzer.model);
        let rendered = render(&weekly, &tables, inputs.analyzer.model);
        let table1 = tables.t1;
        facts.extend([
            ("table1.peering_ips", table1.peering.ips),
            ("table1.peering_prefixes", table1.peering.prefixes),
            ("table1.peering_ases", table1.peering.ases),
            ("census.servers", weekly.census.len() as u64),
        ]);
        Finished {
            rendered,
            table1,
            facts,
            accounted,
        }
    }
}

/// The visibility tables of a weekly report.
pub struct Tables {
    pub t1: visibility::Table1,
    t2: visibility::Table2,
    t3: visibility::Table3,
}

impl Tables {
    pub fn build(weekly: &WeeklyReport, model: &InternetModel) -> Tables {
        Tables {
            t1: visibility::table1(&weekly.snapshot),
            t2: visibility::table2(&weekly.snapshot, model, 10),
            t3: visibility::table3(&weekly.snapshot),
        }
    }
}

/// Every `report::render_*` section of a week, concatenated.
pub fn render(weekly: &WeeklyReport, tables: &Tables, model: &InternetModel) -> String {
    [
        report::render_fig1(weekly),
        report::render_table1(weekly),
        report::render_table2(&tables.t2),
        report::render_table3(&tables.t3),
        report::render_fig2(weekly),
        report::render_fig3(weekly, model),
        report::render_ingest_health(weekly),
    ]
    .concat()
}
