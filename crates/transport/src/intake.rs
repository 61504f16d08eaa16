//! The transport intake: a bounded packet front-end with full-packet
//! accounting, template-aware parking, and checkpointable state.
//!
//! [`TransportIntake`] sits between a [`Link`](crate::link::Link) and the
//! existing sFlow collector/supervisor pipeline. Every datagram offered
//! to it ends up in **exactly one** bucket, extending the pipeline's
//! conservation invariant to the wire: the front door's and the decode
//! stage's are the `transport-offered` and `transport-ledger` rows of
//! `ixp_obs::LEDGER`, with the inbox queued between them.
//!
//! `pending` is the transient bucket: a NetFlow v9 / IPFIX datagram whose
//! template has not arrived yet is parked *whole* (up to a byte budget)
//! and replayed verbatim when a template installs; [`finish`] flushes
//! whatever never resolved into `template_missing_dropped`, so the final
//! balance has no transient terms. Packets shed at the byte budget are
//! counted the moment they are dropped — load shedding is always visible
//! in the accounting, never silent.
//!
//! The whole intake — stats, dedup windows, parked packets, inbox, and
//! the template cache — serializes through [`save_state`] /
//! [`restore_from`] in the same versioned fail-closed codec style as the
//! collector checkpoint, so a supervisor kill-and-resume crossing a
//! template-withhold window loses nothing and stays byte-identical.
//!
//! [`save_state`]: TransportIntake::save_state
//! [`restore_from`]: TransportIntake::restore_from
//! [`finish`]: TransportIntake::finish

use std::collections::{BTreeMap, VecDeque};

use ixp_codec::{
    append_trailer, put_bytes, put_u16, put_u32, put_u64, split_verified, Cur, StateError,
};
use ixp_obs::journal::{EventKind, Journal};
use ixp_obs::{family_sum, Invariant, Published, Registry, Series};

use crate::error::{DecodeFault, LinkError};
use crate::flow::FlowRecord;
use crate::link::{Link, MAX_PACKET};
use crate::template::{Template, TemplateCache, TemplateCacheConfig};
use crate::{ipfix, netflow5, netflow9};

/// Serialization format version of [`TransportIntake`] state. 2: the
/// trailer is `ixp-codec`'s word-wise digest (FNV-1a-64 in version 1);
/// widths unchanged.
pub const TRANSPORT_STATE_VERSION: u32 = 2;

/// Cap on distinct `(peer, protocol, domain)` dedup windows kept.
const MAX_DEDUP_KEYS: usize = 4096;

/// Size bounds of the intake.
#[derive(Debug, Clone, Copy)]
pub struct TransportConfig {
    /// Most packets queued between `offer` and `drain` before shedding.
    pub inbox_capacity: usize,
    /// Byte budget for packets parked awaiting their template.
    pub pending_byte_budget: usize,
    /// Recent export sequence numbers remembered per exporter domain for
    /// duplicate suppression.
    pub dedup_window: usize,
    /// Bounds of the template cache.
    pub template_cache: TemplateCacheConfig,
}

impl Default for TransportConfig {
    fn default() -> TransportConfig {
        TransportConfig {
            inbox_capacity: 4096,
            pending_byte_budget: 256 * 1024,
            dedup_window: 32,
            template_cache: TemplateCacheConfig::default(),
        }
    }
}

/// Lifetime packet accounting. Every field is monotonic except
/// `pending` / `pending_bytes`, which track the parked set and drop to
/// zero when it drains or [`TransportIntake::finish`] flushes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Packets presented at the front door (`offer`).
    pub offered: u64,
    /// Packets that reached the decode stage (`drain`).
    pub received: u64,
    /// Packets fully decoded and handed downstream.
    pub accepted: u64,
    /// Packets suppressed as retransmit duplicates.
    pub duplicates: u64,
    /// Packets rejected by a decoder (sum of the three kinds below).
    pub decode_errors: u64,
    /// Decode errors: ran out of bytes.
    pub truncated: u64,
    /// Decode errors: unknown version field.
    pub bad_version: u64,
    /// Decode errors: internally inconsistent framing.
    pub inconsistent: u64,
    /// Packets dropped at the inbox bound or oversized.
    pub shed: u64,
    /// Template-less packets dropped at the parking budget or flushed
    /// unresolved by `finish`.
    pub template_missing_dropped: u64,
    /// Packets currently parked awaiting a template.
    pub pending: u64,
    /// Bytes currently parked awaiting a template.
    pub pending_bytes: u64,
    /// Flow records decoded out of accepted packets.
    pub flows: u64,
    /// Accepted packets that were sFlow datagrams (passed through).
    pub sflow_datagrams: u64,
    /// Accepted NetFlow v5 packets.
    pub v5_packets: u64,
    /// Accepted NetFlow v9 packets.
    pub v9_packets: u64,
    /// Accepted IPFIX messages.
    pub ipfix_packets: u64,
}

/// One unit of work handed downstream by [`TransportIntake::drain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Drained {
    /// An sFlow datagram, passed through verbatim for the collector
    /// (which owns sFlow sequence accounting and duplicate detection).
    Sflow {
        /// Stable identity of the sending exporter.
        peer: u64,
        /// The raw datagram bytes.
        datagram: Vec<u8>,
    },
    /// Flow records decoded from one NetFlow v5/v9 or IPFIX packet.
    Flows {
        /// Stable identity of the sending exporter.
        peer: u64,
        /// The normalized records.
        records: Vec<FlowRecord>,
    },
}

/// The `transport_*` families, read off the intake's [`TransportStats`]
/// and its template cache's lifetime counts. The two `pending` gauges are
/// levels: the parked set drains.
pub const SERIES: &[Series<TransportIntake>] = &[
    Series::counter("transport_offered_total", |t| t.stats.offered),
    Series::counter("transport_received_total", |t| t.stats.received),
    Series::counter("transport_accepted_total", |t| t.stats.accepted),
    Series::counter("transport_packets_total{proto=\"sflow\"}", |t| t.stats.sflow_datagrams),
    Series::counter("transport_packets_total{proto=\"netflow5\"}", |t| t.stats.v5_packets),
    Series::counter("transport_packets_total{proto=\"netflow9\"}", |t| t.stats.v9_packets),
    Series::counter("transport_packets_total{proto=\"ipfix\"}", |t| t.stats.ipfix_packets),
    Series::counter("transport_duplicates_total", |t| t.stats.duplicates),
    Series::counter("transport_decode_errors_total{kind=\"truncated\"}", |t| t.stats.truncated),
    Series::counter("transport_decode_errors_total{kind=\"bad_version\"}", |t| t.stats.bad_version),
    Series::counter("transport_decode_errors_total{kind=\"inconsistent\"}", |t| {
        t.stats.inconsistent
    }),
    Series::counter("transport_shed_total", |t| t.stats.shed),
    Series::counter("transport_template_missing_dropped_total", |t| {
        t.stats.template_missing_dropped
    }),
    Series::counter("transport_flow_records_total", |t| t.stats.flows),
    Series::counter("transport_templates_total{event=\"installed\"}", |t| t.cache.installed),
    Series::counter("transport_templates_total{event=\"refreshed\"}", |t| t.cache.refreshed),
    Series::counter("transport_templates_total{event=\"evicted\"}", |t| t.cache.evicted),
    Series::level("transport_pending_packets", |t| t.stats.pending),
    Series::level("transport_pending_bytes", |t| t.stats.pending_bytes),
];

/// [`SERIES`] bound to a registry, for [`TransportIntake::bind_metrics`].
/// The default is unbound and publishes nowhere.
#[derive(Debug, Default)]
pub struct TransportMetrics(Published<TransportIntake>);

impl TransportMetrics {
    /// Register the `transport_*` families in `registry`.
    pub fn register(registry: &Registry) -> TransportMetrics {
        TransportMetrics(Published::bind(registry, SERIES))
    }
}

/// The bounded, checkpointable packet intake.
#[derive(Debug, Default)]
pub struct TransportIntake {
    config: TransportConfig,
    stats: TransportStats,
    inbox: VecDeque<(u64, Vec<u8>)>,
    /// Packets parked whole, awaiting their template.
    parked: VecDeque<(u64, Vec<u8>)>,
    /// Recent export sequences per `(peer, version, domain)`.
    seen: BTreeMap<(u64, u16, u32), VecDeque<u32>>,
    cache: TemplateCache,
    metrics: TransportMetrics,
    journal: Journal,
}

impl TransportIntake {
    /// An empty intake with the given bounds.
    pub fn new(config: TransportConfig) -> TransportIntake {
        TransportIntake {
            config,
            cache: TemplateCache::new(config.template_cache),
            ..TransportIntake::default()
        }
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Lifetime `(installed, refreshed, evicted)` template counts.
    pub fn template_counts(&self) -> (u64, u64, u64) {
        self.cache.counts()
    }

    /// The conservation invariant at both stage boundaries: the three
    /// `transport-*` rows of [`LEDGER`](ixp_obs::LEDGER) over [`SERIES`],
    /// the inbox being the queue in between, and the stored
    /// `decode_errors` equal to its three kinds.
    pub fn fully_accounted(&self) -> bool {
        let s = &self.stats;
        let kinds =
            s.truncated.checked_add(s.bad_version).and_then(|v| v.checked_add(s.inconsistent));
        let read = |family: &str| family_sum(SERIES, self, family);
        let rows =
            [Invariant::TransportLedger, Invariant::TransportProtoSum, Invariant::TransportOffered];
        kinds == Some(s.decode_errors)
            && rows.iter().all(|row| row.identity().balance(read, self.inbox.len() as u64).is_ok())
    }

    /// Attach live metrics and publish the stats so far into them, so a
    /// restored intake's registry matches an uninterrupted run's. From here
    /// on [`TransportIntake::drain`] and [`TransportIntake::finish`] are
    /// the sync points.
    pub fn bind_metrics(&mut self, metrics: TransportMetrics) {
        self.metrics = metrics;
        self.metrics.0.publish(self);
    }

    /// Attach an event journal; template churn, sheds, parks, and
    /// replays emit span events into it from here on.
    pub fn bind_journal(&mut self, journal: Journal) {
        self.journal = journal;
    }

    /// Offer one packet at the front door. Returns `false` when it was
    /// shed (inbox full or oversized) — shed packets are counted, so the
    /// caller may drop the return value without losing accounting.
    pub fn offer(&mut self, peer: u64, packet: &[u8]) -> bool {
        self.stats.offered += 1;
        let queued = packet.len() <= MAX_PACKET && self.inbox.len() < self.config.inbox_capacity;
        if queued {
            self.inbox.push_back((peer, packet.to_vec()));
        } else {
            self.stats.shed += 1;
            self.journal.record(EventKind::Shed, peer, 0, 1, self.stats.shed);
        }
        queued
    }

    /// Pull up to `max_packets` packets out of `link` into the inbox.
    /// Returns how many arrived (0 means the link was idle).
    pub fn pump(&mut self, link: &mut dyn Link, max_packets: usize) -> Result<usize, LinkError> {
        let mut n = 0usize;
        while n < max_packets {
            let Some((peer, packet)) = link.recv()? else { break };
            self.offer(peer, &packet);
            n = n.saturating_add(1);
        }
        Ok(n)
    }

    /// Decode up to `budget` inbox packets, returning the work they
    /// produced in arrival order.
    pub fn drain(&mut self, budget: usize) -> Vec<Drained> {
        let mut out = Vec::new();
        for _ in 0..budget {
            let Some((peer, packet)) = self.inbox.pop_front() else { break };
            self.stats.received += 1;
            let (disposition, templates_moved) = self.classify(peer, packet);
            self.book(peer, disposition, &mut out);
            if templates_moved {
                self.replay_parked(&mut out);
            }
        }
        self.metrics.0.publish(self);
        out
    }

    /// End of stream: everything still queued or parked is flushed into
    /// its terminal bucket so the final balance has no transient terms.
    pub fn finish(&mut self) -> TransportStats {
        let mut flushed_inbox = 0u64;
        while self.inbox.pop_front().is_some() {
            self.stats.shed += 1;
            flushed_inbox += 1;
        }
        if flushed_inbox > 0 {
            self.journal.record(EventKind::Shed, 0, 0, flushed_inbox, self.stats.shed);
        }
        let mut flushed_parked = 0u64;
        while self.parked.pop_front().is_some() {
            self.stats.template_missing_dropped += 1;
            flushed_parked += 1;
        }
        if flushed_parked > 0 {
            // Parked packets flushed unresolved at end of stream
            // (`sub_agent = 1` distinguishes this from front-door sheds).
            self.journal.record(
                EventKind::Shed,
                0,
                1,
                flushed_parked,
                self.stats.template_missing_dropped,
            );
        }
        self.stats.pending = 0;
        self.stats.pending_bytes = 0;
        self.metrics.0.publish(self);
        self.stats
    }

    /// The one booking point of the decode stage: each disposition moves
    /// exactly one term of `received`'s right-hand side, and with it its
    /// kind or protocol counter, so the three identities of
    /// [`TransportIntake::fully_accounted`] hold by construction.
    fn book(&mut self, peer: u64, disposition: Disposition, out: &mut Vec<Drained>) {
        match disposition {
            Disposition::Accepted { proto, work } => {
                self.stats.accepted += 1;
                match proto {
                    Proto::Sflow => self.stats.sflow_datagrams += 1,
                    Proto::V5 => self.stats.v5_packets += 1,
                    Proto::V9 => self.stats.v9_packets += 1,
                    Proto::Ipfix => self.stats.ipfix_packets += 1,
                }
                if let Some(Drained::Flows { records, .. }) = &work {
                    self.stats.flows = self.stats.flows.saturating_add(records.len() as u64);
                }
                out.extend(work);
            }
            Disposition::Duplicate => self.stats.duplicates += 1,
            Disposition::Fault(fault) => {
                self.stats.decode_errors += 1;
                match fault {
                    DecodeFault::Truncated => self.stats.truncated += 1,
                    DecodeFault::BadVersion(_) => self.stats.bad_version += 1,
                    DecodeFault::Inconsistent => self.stats.inconsistent += 1,
                }
            }
            Disposition::TemplateUnresolved(packet) => self.park(peer, packet),
        }
    }

    /// Classify one packet on first sight by its leading version field.
    fn classify(&mut self, peer: u64, packet: Vec<u8>) -> Classified {
        let Some(&[a, b]) = packet.get(..2) else {
            return (Disposition::Fault(DecodeFault::Truncated), false);
        };
        match u16::from_be_bytes([a, b]) {
            // An sFlow v5 datagram leads with a u32 version, so its
            // first 16 bits are zero; the collector owns its decode.
            0x0000 => {
                let work = Some(Drained::Sflow { peer, datagram: packet });
                (Disposition::Accepted { proto: Proto::Sflow, work }, false)
            }
            netflow5::VERSION => (self.classify_v5(peer, &packet), false),
            netflow9::VERSION | ipfix::VERSION => self.classify_templated(peer, packet, true),
            other => (Disposition::Fault(DecodeFault::BadVersion(other)), false),
        }
    }

    /// Decode a template-free NetFlow v5 packet.
    fn classify_v5(&mut self, peer: u64, packet: &[u8]) -> Disposition {
        let p = match netflow5::decode(packet) {
            Ok(p) => p,
            Err(fault) => return Disposition::Fault(fault),
        };
        let domain = (u32::from(p.engine.0) << 8) | u32::from(p.engine.1);
        if self.seen_before(peer, netflow5::VERSION, domain, p.sequence) {
            return Disposition::Duplicate;
        }
        let work = Some(Drained::Flows { peer, records: p.records });
        Disposition::Accepted { proto: Proto::V5, work }
    }

    /// Decode a template-described v9/IPFIX packet; one whose template has
    /// not arrived comes back whole, to be parked. `dedup` is off for a
    /// replayed packet: it was checked when it was parked (and it can stop
    /// decoding, if its template was refreshed to an incompatible layout).
    fn classify_templated(&mut self, peer: u64, packet: Vec<u8>, dedup: bool) -> Classified {
        let counts_before = self.cache.counts();
        let decoded = if packet.starts_with(&netflow9::VERSION.to_be_bytes()) {
            netflow9::decode(&packet, peer, &mut self.cache)
        } else if packet.starts_with(&ipfix::VERSION.to_be_bytes()) {
            ipfix::decode(&packet, peer, &mut self.cache)
        } else {
            // Only a parked packet out of a damaged checkpoint gets here.
            Err(DecodeFault::Truncated)
        };
        let templates_moved = self.template_churn(peer, counts_before);
        let d = match decoded {
            Ok(d) => d,
            Err(fault) => return (Disposition::Fault(fault), false),
        };
        if dedup && self.seen_before(peer, d.version, d.domain, d.sequence) {
            return (Disposition::Duplicate, false);
        }
        let disposition = if d.missing_template {
            Disposition::TemplateUnresolved(packet)
        } else {
            let proto = if d.version == ipfix::VERSION { Proto::Ipfix } else { Proto::V9 };
            let work =
                (!d.records.is_empty()).then_some(Drained::Flows { peer, records: d.records });
            Disposition::Accepted { proto, work }
        };
        (disposition, templates_moved)
    }

    /// What one decoder call did to the cache, from the count deltas:
    /// journals its installs/refreshes and its evictions, and says whether
    /// a template was installed or refreshed, so that parked packets may
    /// now resolve.
    fn template_churn(&self, peer: u64, before: (u64, u64, u64)) -> bool {
        let (installed, refreshed, evicted) = self.cache.counts();
        let new_installed = installed.saturating_sub(before.0);
        let new_refreshed = refreshed.saturating_sub(before.1);
        let new_evicted = evicted.saturating_sub(before.2);
        let moved = new_installed > 0 || new_refreshed > 0;
        if moved {
            self.journal.record(EventKind::TemplateInstall, peer, 0, new_installed, new_refreshed);
        }
        if new_evicted > 0 {
            self.journal.record(EventKind::TemplateEvict, peer, 0, new_evicted, 0);
        }
        moved
    }

    /// Replay parked packets after a template install, looping while
    /// replays keep resolving (a replayed packet may itself install).
    fn replay_parked(&mut self, out: &mut Vec<Drained>) {
        let parked_before = self.parked.len() as u64;
        loop {
            let before = self.parked.len();
            if before == 0 {
                break;
            }
            let parked = std::mem::take(&mut self.parked);
            self.stats.pending = 0;
            self.stats.pending_bytes = 0;
            for (peer, packet) in parked {
                let (disposition, _) = self.classify_templated(peer, packet, false);
                self.book(peer, disposition, out);
            }
            if self.parked.len() >= before {
                break;
            }
        }
        if parked_before > 0 {
            let resolved = parked_before.saturating_sub(self.parked.len() as u64);
            self.journal.record(EventKind::Replay, 0, 0, resolved, self.parked.len() as u64);
        }
    }

    /// Park a packet whole, or drop it (accounted) at the byte budget.
    fn park(&mut self, peer: u64, packet: Vec<u8>) {
        let len = packet.len() as u64;
        if self.stats.pending_bytes.saturating_add(len) > self.config.pending_byte_budget as u64 {
            self.stats.template_missing_dropped += 1;
            // Dropped at the parking byte budget (`sub_agent = 1`
            // distinguishes this from front-door sheds, as in `finish`).
            self.journal.record(EventKind::Shed, peer, 1, 1, self.stats.template_missing_dropped);
            return;
        }
        self.stats.pending += 1;
        self.stats.pending_bytes = self.stats.pending_bytes.saturating_add(len);
        self.parked.push_back((peer, packet));
        self.journal.record(EventKind::Park, peer, 0, self.stats.pending, self.stats.pending_bytes);
    }

    /// Check-and-record `sequence` in the exporter's dedup window.
    fn seen_before(&mut self, peer: u64, version: u16, domain: u32, sequence: u32) -> bool {
        let key = (peer, version, domain);
        if !self.seen.contains_key(&key) && self.seen.len() >= MAX_DEDUP_KEYS {
            // Bounded state: forget the smallest key. Losing a window
            // only risks missing a duplicate, never losing a packet.
            if let Some(first) = self.seen.keys().next().copied() {
                self.seen.remove(&first);
            }
        }
        let window = self.seen.entry(key).or_default();
        if window.contains(&sequence) {
            return true;
        }
        window.push_back(sequence);
        while window.len() > self.config.dedup_window.max(1) {
            window.pop_front();
        }
        false
    }

    /// Serialize the intake — stats, dedup windows, parked packets,
    /// inbox, template cache, and bounds — deterministically, with a
    /// trailing `ixp-codec` checksum so storage damage (bit flips,
    /// truncation, extension) is detected before the codec runs.
    pub fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, TRANSPORT_STATE_VERSION);
        // Bounds first: restore rebuilds the same shedding behaviour.
        put_u64(&mut out, self.config.inbox_capacity as u64);
        put_u64(&mut out, self.config.pending_byte_budget as u64);
        put_u64(&mut out, self.config.dedup_window as u64);
        put_u64(&mut out, self.config.template_cache.max_domains as u64);
        put_u64(&mut out, self.config.template_cache.max_templates_per_domain as u64);
        // Stats, in declaration order, mirroring `restore_from` exactly.
        let s = &self.stats;
        put_u64(&mut out, s.offered);
        put_u64(&mut out, s.received);
        put_u64(&mut out, s.accepted);
        put_u64(&mut out, s.duplicates);
        put_u64(&mut out, s.decode_errors);
        put_u64(&mut out, s.truncated);
        put_u64(&mut out, s.bad_version);
        put_u64(&mut out, s.inconsistent);
        put_u64(&mut out, s.shed);
        put_u64(&mut out, s.template_missing_dropped);
        put_u64(&mut out, s.pending);
        put_u64(&mut out, s.pending_bytes);
        put_u64(&mut out, s.flows);
        put_u64(&mut out, s.sflow_datagrams);
        put_u64(&mut out, s.v5_packets);
        put_u64(&mut out, s.v9_packets);
        put_u64(&mut out, s.ipfix_packets);
        // Dedup windows (BTreeMap: already sorted, so deterministic).
        put_u64(&mut out, self.seen.len() as u64);
        for ((peer, version, domain), window) in &self.seen {
            put_u64(&mut out, *peer);
            put_u16(&mut out, *version);
            put_u32(&mut out, *domain);
            put_u64(&mut out, window.len() as u64);
            for seq in window {
                put_u32(&mut out, *seq);
            }
        }
        // Parked packets and inbox, verbatim and in order.
        put_u64(&mut out, self.parked.len() as u64);
        for (peer, packet) in &self.parked {
            put_u64(&mut out, *peer);
            put_bytes(&mut out, packet);
        }
        put_u64(&mut out, self.inbox.len() as u64);
        for (peer, packet) in &self.inbox {
            put_u64(&mut out, *peer);
            put_bytes(&mut out, packet);
        }
        // Template cache.
        put_u64(&mut out, self.cache.tick);
        let (installed, refreshed, evicted) = self.cache.counts();
        put_u64(&mut out, installed);
        put_u64(&mut out, refreshed);
        put_u64(&mut out, evicted);
        put_u64(&mut out, self.cache.domains.len() as u64);
        for ((peer, odid), domain) in &self.cache.domains {
            put_u64(&mut out, *peer);
            put_u32(&mut out, *odid);
            put_u64(&mut out, domain.last_used);
            put_u64(&mut out, domain.templates.len() as u64);
            for (id, t) in &domain.templates {
                put_u16(&mut out, *id);
                put_u32(&mut out, t.revision);
                put_u32(&mut out, t.record_len);
                put_u64(&mut out, t.last_used);
                put_u16(&mut out, t.fields.len() as u16);
                for (ie, len) in &t.fields {
                    put_u16(&mut out, *ie);
                    put_u16(&mut out, *len);
                }
            }
        }
        // The seal is outside the field codec: restore strips and
        // verifies it before the cursor runs.
        append_trailer(&mut out);
        out
    }

    /// Rebuild an intake from [`save_state`](Self::save_state) bytes.
    /// The blob is wire-grade input: the trailing checksum must match,
    /// every read is bounds-checked, and the restored accounting must
    /// balance, or the restore fails.
    pub fn restore_from(data: &[u8]) -> Result<TransportIntake, StateError> {
        let mut cur = Cur::new(split_verified(data)?);
        let version = cur.u32()?;
        if version != TRANSPORT_STATE_VERSION {
            return Err(StateError::BadVersion(version));
        }
        let as_usize =
            |v: u64| usize::try_from(v).map_err(|_| StateError::Invalid("bound overflows usize"));
        let config = TransportConfig {
            inbox_capacity: as_usize(cur.u64()?)?,
            pending_byte_budget: as_usize(cur.u64()?)?,
            dedup_window: as_usize(cur.u64()?)?,
            template_cache: TemplateCacheConfig {
                max_domains: as_usize(cur.u64()?)?,
                max_templates_per_domain: as_usize(cur.u64()?)?,
            },
        };
        let stats = TransportStats {
            offered: cur.u64()?,
            received: cur.u64()?,
            accepted: cur.u64()?,
            duplicates: cur.u64()?,
            decode_errors: cur.u64()?,
            truncated: cur.u64()?,
            bad_version: cur.u64()?,
            inconsistent: cur.u64()?,
            shed: cur.u64()?,
            template_missing_dropped: cur.u64()?,
            pending: cur.u64()?,
            pending_bytes: cur.u64()?,
            flows: cur.u64()?,
            sflow_datagrams: cur.u64()?,
            v5_packets: cur.u64()?,
            v9_packets: cur.u64()?,
            ipfix_packets: cur.u64()?,
        };
        let mut seen: BTreeMap<(u64, u16, u32), VecDeque<u32>> = BTreeMap::new();
        let mut prev_key: Option<(u64, u16, u32)> = None;
        for _ in 0..cur.count(14)? {
            let key = (cur.u64()?, cur.u16()?, cur.u32()?);
            if prev_key.is_some_and(|p| p >= key) {
                return Err(StateError::Invalid("dedup keys not strictly sorted"));
            }
            prev_key = Some(key);
            let mut window = VecDeque::new();
            for _ in 0..cur.count(4)? {
                window.push_back(cur.u32()?);
            }
            seen.insert(key, window);
        }
        let mut parked = VecDeque::new();
        for _ in 0..cur.count(16)? {
            let peer = cur.u64()?;
            let packet = cur.bytes()?.to_vec();
            parked.push_back((peer, packet));
        }
        let mut inbox = VecDeque::new();
        for _ in 0..cur.count(16)? {
            let peer = cur.u64()?;
            let packet = cur.bytes()?.to_vec();
            inbox.push_back((peer, packet));
        }
        let mut cache = TemplateCache::new(config.template_cache);
        cache.tick = cur.u64()?;
        cache.installed = cur.u64()?;
        cache.refreshed = cur.u64()?;
        cache.evicted = cur.u64()?;
        let mut prev_domain: Option<(u64, u32)> = None;
        for _ in 0..cur.count(24)? {
            let key = (cur.u64()?, cur.u32()?);
            if prev_domain.is_some_and(|p| p >= key) {
                return Err(StateError::Invalid("template domains not strictly sorted"));
            }
            prev_domain = Some(key);
            let last_used = cur.u64()?;
            let mut templates = BTreeMap::new();
            let mut prev_id: Option<u16> = None;
            for _ in 0..cur.count(14)? {
                let id = cur.u16()?;
                if prev_id.is_some_and(|p| p >= id) {
                    return Err(StateError::Invalid("template ids not strictly sorted"));
                }
                prev_id = Some(id);
                let revision = cur.u32()?;
                let record_len = cur.u32()?;
                let t_last_used = cur.u64()?;
                let n_fields = usize::from(cur.u16()?);
                let mut fields = Vec::new();
                let mut sum = 0u32;
                for _ in 0..n_fields {
                    let ie = cur.u16()?;
                    let len = cur.u16()?;
                    sum = sum.saturating_add(u32::from(len));
                    fields.push((ie, len));
                }
                if sum != record_len {
                    return Err(StateError::Invalid("template record_len does not match fields"));
                }
                templates
                    .insert(id, Template { fields, record_len, revision, last_used: t_last_used });
            }
            cache.domains.insert(key, crate::template::Domain { last_used, templates });
        }
        cur.finish()?;

        let intake = TransportIntake {
            config,
            stats,
            inbox,
            parked,
            seen,
            cache,
            metrics: TransportMetrics::default(),
            journal: Journal::disabled(),
        };
        if stats.pending != intake.parked.len() as u64 {
            return Err(StateError::Invalid("pending count disagrees with parked packets"));
        }
        if !intake.fully_accounted() {
            return Err(StateError::Invalid("restored accounting does not balance"));
        }
        Ok(intake)
    }
}

/// Which protocol counter an accepted packet moves.
enum Proto {
    Sflow,
    V5,
    V9,
    Ipfix,
}

/// Where one packet of the decode stage ends up. Every exit of the
/// classify path has to produce one, and [`TransportIntake::book`] is the
/// only consumer: a packet cannot leave the stage unbooked or booked twice.
#[must_use]
enum Disposition {
    /// Decoded; `work` goes downstream (none for a template-only packet).
    Accepted {
        proto: Proto,
        work: Option<Drained>,
    },
    /// A retransmit of a sequence already in the exporter's dedup window.
    Duplicate,
    Fault(DecodeFault),
    /// Its template has not arrived: the packet comes back to be parked.
    TemplateUnresolved(Vec<u8>),
}

/// A packet's disposition, and whether it installed or refreshed a
/// template, so that parked packets may now resolve.
type Classified = (Disposition, bool);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowRecord;
    use std::net::Ipv4Addr;

    fn rec(i: u8) -> FlowRecord {
        FlowRecord {
            src: Ipv4Addr::new(10, 1, 0, i),
            dst: Ipv4Addr::new(10, 2, 0, i),
            src_port: 1000 + u16::from(i),
            dst_port: 443,
            proto: 6,
            packets: 4,
            bytes: 600,
        }
    }

    fn v5(seq: u32, n: u8) -> Vec<u8> {
        netflow5::encode(&netflow5::V5Packet {
            sequence: seq,
            engine: (0, 1),
            sampling_interval: 1,
            records: (0..n).map(rec).collect(),
        })
    }

    fn intake() -> TransportIntake {
        TransportIntake::new(TransportConfig::default())
    }

    #[test]
    fn mixed_protocols_accept_and_account() {
        let mut t = intake();
        let fields = netflow9::encode::flow_template_fields();
        assert!(t.offer(1, &v5(1, 2)));
        assert!(t.offer(2, &netflow9::encode::packet(1, 7, 260, Some(&fields), &[rec(1)])));
        assert!(t.offer(3, &ipfix::encode::packet(1, 9, 300, Some(&fields), &[rec(2)])));
        assert!(t.offer(4, b"\x00\x00\x00\x05sflowish"));
        assert!(t.offer(5, &[0xBE, 0xEF, 0, 0]));
        let work = t.drain(16);
        let flows: usize = work
            .iter()
            .map(|d| match d {
                Drained::Flows { records, .. } => records.len(),
                Drained::Sflow { .. } => 0,
            })
            .sum();
        assert_eq!(flows, 4);
        let s = t.finish();
        assert_eq!(s.offered, 5);
        assert_eq!(s.accepted, 4);
        assert_eq!(s.decode_errors, 1);
        assert_eq!(s.bad_version, 1);
        assert_eq!((s.sflow_datagrams, s.v5_packets, s.v9_packets, s.ipfix_packets), (1, 1, 1, 1));
        assert!(t.fully_accounted());
    }

    /// The booking point, row by row: every disposition, booked on first
    /// sight and on replay, moves `received`'s right-hand side by one
    /// through exactly one terminal bucket, and its kind or protocol
    /// counter with it.
    #[test]
    fn book_moves_exactly_one_terminal_bucket_per_disposition() {
        use DecodeFault::{BadVersion, Inconsistent, Truncated};
        let roomy = TransportConfig::default().pending_byte_budget;
        let flows = || Some(Drained::Flows { peer: 9, records: vec![rec(1), rec(2)] });
        let sflow = || Some(Drained::Sflow { peer: 9, datagram: vec![0, 0, 0, 5] });
        let accepted = |proto, work| Disposition::Accepted { proto, work };
        let fault = Disposition::Fault;
        let unparked = Disposition::TemplateUnresolved;
        let unresolved = || netflow9::encode::packet(7, 7, 260, None, &[rec(3)]);
        // (disposition, parking budget, terminal bucket, kind or protocol counter)
        let rows = || {
            [
                (accepted(Proto::Sflow, sflow()), roomy, "accepted", Some("sflow")),
                (accepted(Proto::V5, flows()), roomy, "accepted", Some("v5")),
                (accepted(Proto::V9, flows()), roomy, "accepted", Some("v9")),
                (accepted(Proto::Ipfix, None), roomy, "accepted", Some("ipfix")),
                (Disposition::Duplicate, roomy, "duplicates", None),
                (fault(Truncated), roomy, "decode_errors", Some("truncated")),
                (fault(BadVersion(0xBEEF)), roomy, "decode_errors", Some("bad_version")),
                (fault(Inconsistent), roomy, "decode_errors", Some("inconsistent")),
                (unparked(unresolved()), roomy, "pending", None),
                (unparked(unresolved()), 1, "template_missing_dropped", None),
            ]
        };
        let terminal = |s: &TransportStats| {
            [
                ("accepted", s.accepted),
                ("duplicates", s.duplicates),
                ("decode_errors", s.decode_errors),
                ("template_missing_dropped", s.template_missing_dropped),
                ("pending", s.pending),
            ]
        };
        let sub = |s: &TransportStats| {
            [
                ("sflow", s.sflow_datagrams),
                ("v5", s.v5_packets),
                ("v9", s.v9_packets),
                ("ipfix", s.ipfix_packets),
                ("truncated", s.truncated),
                ("bad_version", s.bad_version),
                ("inconsistent", s.inconsistent),
            ]
        };
        // The counters that moved, each by exactly one.
        let moved = |before: &[(&'static str, u64)], after: &[(&'static str, u64)]| {
            let grew = |(b, a): (&(&'static str, u64), &(&str, u64))| match a.1.checked_sub(b.1) {
                Some(0) => None,
                Some(1) => Some(b.0),
                other => panic!("{} moved by {other:?}", b.0),
            };
            before.iter().zip(after).filter_map(grew).collect::<Vec<_>>()
        };
        for replay in [false, true] {
            for (disposition, pending_byte_budget, bucket, counter) in rows() {
                let label = format!("{bucket} ({counter:?}), replay {replay}");
                let work = match &disposition {
                    Disposition::Accepted { work, .. } => work.clone(),
                    _ => None,
                };
                let records = match &work {
                    Some(Drained::Flows { records, .. }) => records.len() as u64,
                    _ => 0,
                };
                let mut t = TransportIntake::new(TransportConfig {
                    pending_byte_budget,
                    ..TransportConfig::default()
                });
                // Some history, so a counter that is assigned rather than
                // bumped would show.
                t.offer(1, &v5(1, 1));
                t.offer(1, &v5(1, 1));
                t.offer(1, &[0xBE, 0xEF, 0, 0]);
                t.drain(16);
                // One packet in hand: off the inbox on first sight, off the
                // bench on replay.
                t.stats.offered += 1;
                t.stats.received += 1;
                if replay {
                    t.stats.pending += 1;
                    t.parked.push_back((9, unresolved()));
                    assert!(t.fully_accounted(), "{label}: parked");
                    t.stats.pending -= 1;
                    t.parked.clear();
                }
                assert!(!t.fully_accounted(), "{label}: in hand");
                let before = t.stats();
                let mut out = Vec::new();
                t.book(9, disposition, &mut out);
                let after = t.stats();
                assert_eq!(moved(&terminal(&before), &terminal(&after)), [bucket], "{label}");
                assert_eq!(moved(&sub(&before), &sub(&after)), Vec::from_iter(counter), "{label}");
                assert!(t.fully_accounted(), "{label}: booked");
                assert_eq!(after.received, before.received, "{label}");
                assert_eq!(after.flows - before.flows, records, "{label}");
                assert_eq!(out, Vec::from_iter(work), "{label}");
            }
        }
    }

    #[test]
    fn inbox_bound_sheds_with_accounting() {
        let mut t = TransportIntake::new(TransportConfig {
            inbox_capacity: 2,
            ..TransportConfig::default()
        });
        for i in 0..5u32 {
            t.offer(1, &v5(i, 1));
        }
        let s = t.stats();
        assert_eq!(s.offered, 5);
        assert_eq!(s.shed, 3);
        assert!(t.fully_accounted());
        t.drain(16);
        assert!(t.fully_accounted());
        assert_eq!(t.stats().accepted, 2);
    }

    proptest::proptest! {
        /// Conservation at any inbox depth: runs of offers fill an inbox of
        /// up to 300 with new, repeated and cut-short packets, runs of
        /// drains empty it in arbitrary budgets, and after every run each
        /// packet is shed, queued or booked in exactly one bucket. A count
        /// that moves only on a deep inbox is exercised too.
        #[test]
        fn every_offer_is_booked_once_at_any_inbox_depth(
            capacity in 1usize..=300,
            runs in proptest::collection::vec((proptest::prelude::any::<bool>(), 1usize..=400), 1..12),
        ) {
            let mut t = TransportIntake::new(TransportConfig {
                inbox_capacity: capacity,
                ..TransportConfig::default()
            });
            let mut seq = 0u32;
            for (offer, run) in runs {
                if offer {
                    for _ in 0..run {
                        seq += 1;
                        // Every third packet repeats the one before it;
                        // every fifth is cut inside its header.
                        let packet = v5(seq - u32::from(seq.is_multiple_of(3)), 1);
                        t.offer(1, if seq.is_multiple_of(5) { &packet[..10] } else { &packet });
                    }
                } else {
                    t.drain(run);
                }
                proptest::prop_assert!(t.fully_accounted(), "{:?}", t.stats());
            }
        }
    }

    #[test]
    fn withheld_template_parks_then_replays() {
        let mut t = intake();
        let fields = netflow9::encode::flow_template_fields();
        // Data first: parked, no records emitted.
        t.offer(1, &netflow9::encode::packet(1, 7, 260, None, &[rec(1), rec(2)]));
        let work = t.drain(16);
        assert!(work.is_empty());
        assert_eq!(t.stats().pending, 1);
        assert!(t.fully_accounted());
        // Template arrives: the parked packet replays and resolves.
        t.offer(1, &netflow9::encode::packet(2, 7, 260, Some(&fields), &[]));
        let work = t.drain(16);
        let flows: usize = work
            .iter()
            .map(|d| match d {
                Drained::Flows { records, .. } => records.len(),
                Drained::Sflow { .. } => 0,
            })
            .sum();
        assert_eq!(flows, 2);
        let s = t.finish();
        assert_eq!(s.pending, 0);
        assert_eq!(s.template_missing_dropped, 0);
        assert_eq!(s.accepted, 2);
        assert!(t.fully_accounted());
    }

    #[test]
    fn journal_sees_park_replay_and_template_churn() {
        let mut t = intake();
        let journal = Journal::deterministic();
        t.bind_journal(journal.clone());
        let fields = netflow9::encode::flow_template_fields();
        // Data-before-template parks; the template install replays it.
        t.offer(1, &netflow9::encode::packet(1, 7, 260, None, &[rec(1)]));
        t.drain(16);
        t.offer(1, &netflow9::encode::packet(2, 7, 260, Some(&fields), &[]));
        t.drain(16);
        let kinds: Vec<EventKind> = journal.events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::Park), "no park event: {kinds:?}");
        assert!(kinds.contains(&EventKind::TemplateInstall), "no install event: {kinds:?}");
        assert!(kinds.contains(&EventKind::Replay), "no replay event: {kinds:?}");
        let replay = journal
            .events()
            .iter()
            .rev()
            .find(|e| e.kind == EventKind::Replay)
            .copied()
            .expect("replay event");
        assert_eq!((replay.a, replay.b), (1, 0), "one packet resolved, none left parked");
    }

    #[test]
    fn journal_sees_front_door_and_budget_sheds() {
        let mut t = TransportIntake::new(TransportConfig {
            inbox_capacity: 1,
            pending_byte_budget: 1,
            ..TransportConfig::default()
        });
        let journal = Journal::deterministic();
        t.bind_journal(journal.clone());
        t.offer(1, &v5(1, 1));
        t.offer(1, &v5(2, 1)); // front-door shed (inbox full)
        t.drain(16);
        t.offer(2, &netflow9::encode::packet(1, 7, 260, None, &[rec(1)]));
        t.drain(16); // budget shed (pending_byte_budget = 1)
        let sheds: Vec<_> =
            journal.events().iter().filter(|e| e.kind == EventKind::Shed).copied().collect();
        assert!(sheds.iter().any(|e| e.sub_agent == 0), "no front-door shed: {sheds:?}");
        assert!(sheds.iter().any(|e| e.sub_agent == 1), "no budget shed: {sheds:?}");
    }

    #[test]
    fn parking_budget_drops_with_accounting() {
        let mut t = TransportIntake::new(TransportConfig {
            pending_byte_budget: 64,
            ..TransportConfig::default()
        });
        for seq in 0..8u32 {
            t.offer(1, &netflow9::encode::packet(seq, 7, 260, None, &[rec(1)]));
        }
        t.drain(16);
        let s = t.stats();
        assert!(s.template_missing_dropped > 0, "budget never tripped");
        assert!(s.pending > 0, "budget admitted nothing");
        assert!(t.fully_accounted());
        let final_s = t.finish();
        assert_eq!(final_s.pending, 0);
        assert_eq!(
            final_s.template_missing_dropped + final_s.accepted + final_s.duplicates,
            final_s.received
        );
    }

    #[test]
    fn duplicates_are_suppressed_per_domain() {
        let mut t = intake();
        let packet = v5(41, 2);
        t.offer(1, &packet);
        t.offer(1, &packet);
        // Same sequence from a different peer is not a duplicate.
        t.offer(2, &packet);
        t.drain(16);
        let s = t.finish();
        assert_eq!(s.accepted, 2);
        assert_eq!(s.duplicates, 1);
        assert!(t.fully_accounted());
    }

    #[test]
    fn finish_flushes_unresolved_to_template_missing_dropped() {
        let mut t = intake();
        t.offer(1, &netflow9::encode::packet(1, 7, 260, None, &[rec(1)]));
        t.offer(1, &v5(9, 1)); // left in the inbox: shed by finish
        t.drain(1);
        let s = t.finish();
        assert_eq!(s.template_missing_dropped, 1);
        assert_eq!(s.shed, 1);
        assert_eq!(s.pending, 0);
        assert!(t.fully_accounted());
    }

    #[test]
    fn checkpoint_roundtrips_byte_identically() {
        let mut t = intake();
        let fields = netflow9::encode::flow_template_fields();
        t.offer(1, &netflow9::encode::packet(1, 7, 260, Some(&fields), &[rec(1)]));
        t.offer(2, &ipfix::encode::packet(1, 9, 300, None, &[rec(2)])); // parks
        t.offer(3, &v5(5, 1));
        t.drain(2); // leave one packet in the inbox
        let blob = t.save_state();
        let restored = TransportIntake::restore_from(&blob).unwrap();
        assert_eq!(restored.save_state(), blob, "save → restore → save drifted");
        assert_eq!(restored.stats(), t.stats());
        assert!(restored.fully_accounted());
    }

    /// The checks *behind* the seal. That every truncation and every
    /// single-bit flip of the sealed blob is rejected is covered, for this
    /// framing and the other two, by `ixp-codec`'s `tests/corruption.rs`.
    #[test]
    fn restore_is_fail_closed() {
        let mut t = intake();
        t.offer(1, &v5(1, 1));
        t.drain(16);
        let blob = t.save_state();
        // Re-seal after tampering so the typed checks behind the
        // checksum are exercised, not just the checksum itself.
        let reseal = |mut bytes: Vec<u8>| {
            bytes.truncate(bytes.len() - 8);
            append_trailer(&mut bytes);
            bytes
        };
        let mut wrong = blob.clone();
        wrong[3] = 99; // version
        assert!(matches!(
            TransportIntake::restore_from(&reseal(wrong)),
            Err(StateError::BadVersion(_))
        ));
        // Tamper with a stats field: the balance check must catch it.
        let mut unbalanced = blob.clone();
        let offered_at = 4 + 5 * 8 + 7; // version + bounds, low byte of `offered`
        unbalanced[offered_at] = unbalanced[offered_at].wrapping_add(1);
        assert!(TransportIntake::restore_from(&reseal(unbalanced)).is_err());
    }

    /// A side that adds up past `u64::MAX` does not balance: saturated, it
    /// would equal anything. Here `offered = received + shed` holds only
    /// if `u64::MAX + 1` saturates.
    #[test]
    fn restore_refuses_a_balance_that_holds_only_by_saturation() {
        let mut blob = intake().save_state();
        blob.truncate(blob.len() - 8);
        // The stats follow the version and the five bounds, in field order.
        let mut set = |field: usize, v: u64| {
            let at = 4 + 5 * 8 + 8 * field;
            blob[at..at + 8].copy_from_slice(&v.to_be_bytes());
        };
        // offered, received, accepted, sflow_datagrams; shed.
        for field in [0, 1, 2, 13] {
            set(field, u64::MAX);
        }
        set(8, 1);
        append_trailer(&mut blob);
        assert_eq!(
            TransportIntake::restore_from(&blob).err(),
            Some(StateError::Invalid("restored accounting does not balance"))
        );
    }

    #[test]
    fn resume_mid_withhold_loses_nothing() {
        let mut t = intake();
        let fields = netflow9::encode::flow_template_fields();
        t.offer(1, &netflow9::encode::packet(1, 7, 260, None, &[rec(1), rec(2)]));
        t.drain(16);
        let blob = t.save_state();
        drop(t);
        // New process: restore, then the withheld template finally lands.
        let mut t2 = TransportIntake::restore_from(&blob).unwrap();
        t2.offer(1, &netflow9::encode::packet(2, 7, 260, Some(&fields), &[]));
        let work = t2.drain(16);
        let flows: usize = work
            .iter()
            .map(|d| match d {
                Drained::Flows { records, .. } => records.len(),
                Drained::Sflow { .. } => 0,
            })
            .sum();
        assert_eq!(flows, 2, "parked packet lost across the checkpoint");
        let s = t2.finish();
        assert_eq!(s.accepted, 2);
        assert_eq!(s.template_missing_dropped, 0);
        assert!(t2.fully_accounted());
    }
}
