//! The fault-tolerant collector front-end: per-source sequence accounting.
//!
//! sFlow rides UDP, so a real collector must reconstruct stream health from
//! the datagram sequence numbers alone (sFlow v5 spec §4: "the sequence
//! number can be used to detect lost datagrams"). [`Collector`] tracks each
//! `(agent, sub_agent)` source independently:
//!
//! * **gap/loss estimation** — a forward sequence jump of `k` means `k − 1`
//!   datagrams are missing (until they show up late);
//! * **duplicate suppression** — a 128-wide sliding bitmap over recent
//!   sequence numbers (the RTP/IPsec anti-replay window construction)
//!   recognises both exact re-delivery of the head and older duplicates;
//! * **reorder tolerance** — a late datagram inside the window is accepted
//!   and the loss estimate is corrected back down;
//! * **restart detection** — a sequence regression beyond the reorder
//!   window, or a large forward jump with the agent's uptime reset, means
//!   the agent rebooted (the v5 heuristic), not that thousands of
//!   datagrams vanished;
//! * **counter-wrap-safe deltas** — cumulative `if_counters` are
//!   accumulated as `wrapping_sub` deltas per `(agent, ifIndex)`, so a
//!   counter passing the type maximum contributes its true increment;
//! * **garbage quarantine** — a source emitting a long run of undecodable
//!   datagrams is flagged for the health report.
//!
//! The collector never discards silently: every ingested buffer is counted
//! exactly once as accepted, duplicate, or rejected-with-kind, so
//! `datagrams = accepted + duplicates + decode_errors` always holds.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use ixp_obs::journal::{EventKind, Journal};
use ixp_obs::{
    family_sum, test_clock, Clock, Histogram, Invariant, Obs, Published, Series, Stopwatch,
};

use crate::accounting::TrafficEstimate;
use crate::checkpoint::{self, Cur, StateError, COLLECTOR_STATE_VERSION};
use crate::datagram::{CounterSample, Datagram, DatagramView, DecodeError};

/// Sequence regressions up to this distance are treated as reordering; a
/// regression beyond it is a restart. 128 matches the sliding-window width.
const REORDER_WINDOW: u32 = 128;

/// Ingest latency is sampled into `sflow_ingest_duration_ns` once every
/// this many datagrams: the only registry cell the ingest path touches.
pub(crate) const LATENCY_SAMPLE_EVERY: u64 = 64;

/// Forward distances below 2³¹ are forward jumps; at or above, the
/// wrapping difference is really a regression.
const HALF_RANGE: u32 = 1 << 31;

/// Consecutive decode failures before a source is flagged as quarantined.
const QUARANTINE_THRESHOLD: u32 = 32;

/// Per-kind decode-error counters (the visible form of `DecodeError`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeErrorCounts {
    /// `DecodeError::Truncated`.
    pub truncated: u64,
    /// `DecodeError::BadVersion`.
    pub bad_version: u64,
    /// `DecodeError::UnsupportedAgentAddress`.
    pub unsupported_agent: u64,
    /// `DecodeError::Inconsistent`.
    pub inconsistent: u64,
}

impl DecodeErrorCounts {
    /// Count one error by kind.
    pub(crate) fn count(&mut self, e: DecodeError) {
        match e {
            DecodeError::Truncated => self.truncated += 1,
            DecodeError::BadVersion(_) => self.bad_version += 1,
            DecodeError::UnsupportedAgentAddress(_) => self.unsupported_agent += 1,
            DecodeError::Inconsistent => self.inconsistent += 1,
        }
    }

    /// Total across all kinds.
    pub fn total(&self) -> u64 {
        self.truncated + self.bad_version + self.unsupported_agent + self.inconsistent
    }

    /// `(label, count)` pairs in declaration order, for reports.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
        [
            ("truncated", self.truncated),
            ("bad-version", self.bad_version),
            ("unsupported-agent-address", self.unsupported_agent),
            ("inconsistent", self.inconsistent),
        ]
        .into_iter()
    }
}

/// One sFlow data stream: an `(agent, sub_agent)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceKey {
    /// The agent's IPv4 address.
    pub agent: Ipv4Addr,
    /// The sub-agent id within the agent.
    pub sub_agent: u32,
}

/// Health counters of one source.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceStats {
    /// Datagrams accepted (unique, decodable).
    pub received: u64,
    /// Datagrams suppressed as duplicates.
    pub duplicates: u64,
    /// Datagrams estimated lost from sequence gaps.
    pub lost: u64,
    /// Restarts detected.
    pub restarts: u64,
    /// Undecodable datagrams attributed to this source by header peek.
    pub decode_errors: u64,
    /// True once a long consecutive run of garbage flagged this source.
    pub quarantined: bool,
}

/// Per-source sequence state: head + anti-replay bitmap.
#[derive(Debug, Clone)]
struct SourceState {
    /// Highest (most recent) sequence number accepted.
    last_seq: u32,
    /// Bit `i` set ⇔ sequence `last_seq − i` was received (bit 0 = head).
    window: u128,
    /// Uptime reported with `last_seq`, for the restart heuristic.
    last_uptime: u32,
    /// False until the first datagram establishes the head.
    started: bool,
    /// Current run of consecutive decode failures.
    error_run: u32,
    stats: SourceStats,
}

impl SourceState {
    fn new() -> SourceState {
        SourceState {
            last_seq: 0,
            window: 0,
            last_uptime: 0,
            started: false,
            error_run: 0,
            stats: SourceStats::default(),
        }
    }
}

/// Accumulated wrap-safe interface-counter deltas for one `(agent,
/// source_id)` stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CounterTotals {
    /// Octets received, summed over wrap-safe deltas.
    pub in_octets: u64,
    /// Octets transmitted.
    pub out_octets: u64,
    /// Unicast packets received.
    pub in_ucast: u64,
    /// Unicast packets transmitted.
    pub out_ucast: u64,
    /// Counter exports seen (deltas accumulated = exports − 1).
    pub exports: u64,
}

#[derive(Debug, Clone)]
struct CounterTrack {
    last: CounterSample,
    totals: CounterTotals,
}

/// Aggregate collector health, for `IngestHealth`-style reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectorStats {
    /// Buffers handed to [`Collector::ingest`].
    pub datagrams: u64,
    /// Unique decodable datagrams accepted.
    pub accepted: u64,
    /// Duplicates suppressed.
    pub duplicates: u64,
    /// Datagrams estimated lost (sequence gaps, net of late arrivals):
    /// `seq_opened − seq_recovered`.
    pub lost: u64,
    /// Sequence numbers found missing when a gap opened.
    pub seq_opened: u64,
    /// Late arrivals that closed a gap.
    pub seq_recovered: u64,
    /// Agent restarts detected.
    pub restarts: u64,
    /// Decode errors by kind.
    pub decode_errors: DecodeErrorCounts,
    /// Decode errors whose header was too damaged to attribute to a source.
    pub unattributed_errors: u64,
    /// Distinct sources seen.
    pub sources: usize,
    /// Sources flagged by the garbage quarantine.
    pub quarantined_sources: usize,
}

impl CollectorStats {
    /// Estimated datagram loss rate: `lost / (accepted + lost)`.
    pub fn loss_rate(&self) -> f64 {
        let expected = self.accepted + self.lost;
        if expected == 0 {
            0.0
        } else {
            self.lost as f64 / expected as f64
        }
    }

    /// Multiplier that scales received-traffic estimates back up to the
    /// expected stream: `(accepted + lost) / accepted`, at least 1.
    pub fn compensation_factor(&self) -> f64 {
        if self.accepted == 0 {
            1.0
        } else {
            ((self.accepted + self.lost) as f64 / self.accepted as f64).max(1.0)
        }
    }
}

/// What happened to one ingested buffer. `D` is the form the accepted
/// datagram comes back in: an owned [`Datagram`] from [`Collector::ingest`],
/// a borrowed [`DatagramView`] from [`Collector::ingest_view`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ingest<D = Datagram> {
    /// New, decodable: process the samples.
    Accepted(D),
    /// Already delivered (head repeat or inside the replay window).
    Duplicate,
    /// Undecodable; the kind was counted.
    Rejected(DecodeError),
}

/// Running aggregate over all sources, maintained incrementally at each
/// ingest so [`Collector::stats`] is O(1) instead of a walk over every
/// source (the stats walk used to be recomputed per datagram by callers
/// polling health mid-run).
#[derive(Debug, Clone, Copy, Default)]
struct AggTotals {
    accepted: u64,
    duplicates: u64,
    lost: u64,
    restarts: u64,
    quarantined: u64,
}

/// The per-source sequence-accounting collector. See the module docs.
#[derive(Debug)]
pub struct Collector {
    sources: HashMap<SourceKey, SourceState>,
    counters: HashMap<(Ipv4Addr, u32), CounterTrack>,
    datagrams: u64,
    errors: DecodeErrorCounts,
    unattributed_errors: u64,
    agg: AggTotals,
    // `agg.lost` is net of late arrivals and so can fall; a counter cannot.
    // These two are what `sflow_seq_lost_total` (gaps opened) and
    // `sflow_seq_recovered_total` (late arrivals that closed one) publish,
    // and the net estimate is their difference.
    seq_opened: u64,
    seq_recovered: u64,
    latency_samples: u64,
    published: Published<CollectorStats>,
    ingest_ns: Histogram,
    clock: Arc<dyn Clock>,
    // Disabled unless attached via [`Collector::bind_journal`]: restart
    // and quarantine detections then become journal events for the
    // flight recorder. Journal state is not checkpointed.
    journal: Journal,
}

impl Default for Collector {
    fn default() -> Collector {
        Collector {
            sources: HashMap::new(),
            counters: HashMap::new(),
            datagrams: 0,
            errors: DecodeErrorCounts::default(),
            unattributed_errors: 0,
            agg: AggTotals::default(),
            seq_opened: 0,
            seq_recovered: 0,
            latency_samples: 0,
            published: Published::default(),
            ingest_ns: Histogram::detached(),
            clock: test_clock(),
            journal: Journal::disabled(),
        }
    }
}

/// The `sflow_*` counter and gauge families, read off
/// [`Collector::stats`]. The two gauges are high-water marks: the per-week
/// collectors of a parallel study share them, and a running maximum reads
/// the same whatever order they publish in.
pub const SERIES: &[Series<CollectorStats>] = &[
    Series::counter("sflow_datagrams_total", |c| c.datagrams),
    Series::counter("sflow_accepted_total", |c| c.accepted),
    Series::counter("sflow_duplicates_total", |c| c.duplicates),
    Series::counter("sflow_decode_errors_total{kind=\"truncated\"}", |c| c.decode_errors.truncated),
    Series::counter("sflow_decode_errors_total{kind=\"bad_version\"}", |c| {
        c.decode_errors.bad_version
    }),
    Series::counter("sflow_decode_errors_total{kind=\"unsupported_agent_address\"}", |c| {
        c.decode_errors.unsupported_agent
    }),
    Series::counter("sflow_decode_errors_total{kind=\"inconsistent\"}", |c| {
        c.decode_errors.inconsistent
    }),
    Series::counter("sflow_unattributed_errors_total", |c| c.unattributed_errors),
    Series::counter("sflow_seq_lost_total", |c| c.seq_opened),
    Series::counter("sflow_seq_recovered_total", |c| c.seq_recovered),
    Series::counter("sflow_restarts_total", |c| c.restarts),
    Series::high_water("sflow_sources", |c| c.sources as u64),
    Series::high_water("sflow_quarantined_sources", |c| c.quarantined_sources as u64),
];

impl Collector {
    /// A fresh collector, unbound from any registry and on a frozen test
    /// clock: the uninstrumented configuration.
    pub fn new() -> Collector {
        Collector::default()
    }

    /// [`Collector::new`] + [`Collector::bind_obs`].
    #[cfg(test)]
    pub(crate) fn with_obs(obs: &Obs) -> Collector {
        let mut c = Collector::new();
        c.bind_obs(obs);
        c
    }

    /// Bring the bound registry's `sflow_*` series up to this collector's
    /// accounting. Ingest does not: the registry is as fresh as the last
    /// call (the owner's sync points, `save_state`, `bind_obs`).
    pub fn publish(&self) {
        self.published.publish(&self.stats());
    }

    /// Ingest one encoded datagram into an owned [`Datagram`]: the
    /// allocating adapter over [`Collector::ingest_view`].
    pub fn ingest(&mut self, bytes: &[u8]) -> Ingest {
        match self.ingest_view(bytes) {
            Ingest::Accepted(view) => Ingest::Accepted(view.to_owned()),
            Ingest::Duplicate => Ingest::Duplicate,
            Ingest::Rejected(e) => Ingest::Rejected(e),
        }
    }

    /// Ingest one encoded datagram. Never panics, never silently drops:
    /// the outcome is always counted. The whole buffer is validated before
    /// any sequence state moves; an accepted datagram comes back as a view
    /// borrowing `bytes`, so the steady-state path allocates nothing.
    pub fn ingest_view<'a>(&mut self, bytes: &'a [u8]) -> Ingest<DatagramView<'a>> {
        let sampled = self.datagrams.is_multiple_of(LATENCY_SAMPLE_EVERY);
        if sampled {
            self.latency_samples += 1;
        }
        let sw = if sampled { Some(Stopwatch::start(self.clock.as_ref())) } else { None };
        let outcome = self.ingest_inner(bytes);
        // The one booking point: every exit of `ingest_inner` returns an
        // outcome and each outcome moves one bucket, so
        // `datagrams = accepted + duplicates + errors` by construction.
        self.datagrams += 1;
        match &outcome {
            Ingest::Accepted(_) => self.agg.accepted += 1,
            Ingest::Duplicate => self.agg.duplicates += 1,
            Ingest::Rejected(e) => self.errors.count(*e),
        }
        if let Some(sw) = sw {
            sw.record(self.clock.as_ref(), &self.ingest_ns);
        }
        outcome
    }

    /// Sequence, window and per-source state; the caller books the outcome.
    fn ingest_inner<'a>(&mut self, bytes: &'a [u8]) -> Ingest<DatagramView<'a>> {
        let dg = match DatagramView::decode(bytes) {
            Ok(dg) => dg,
            Err(e) => {
                match peek_source(bytes) {
                    Some(key) => {
                        let src = self.sources.entry(key).or_insert_with(SourceState::new);
                        src.stats.decode_errors += 1;
                        src.error_run += 1;
                        if src.error_run >= QUARANTINE_THRESHOLD && !src.stats.quarantined {
                            src.stats.quarantined = true;
                            self.agg.quarantined += 1;
                            self.journal.record(
                                EventKind::SourceQuarantined,
                                u64::from(u32::from(key.agent)),
                                u64::from(key.sub_agent),
                                u64::from(src.error_run),
                                0,
                            );
                        }
                    }
                    None => self.unattributed_errors += 1,
                }
                return Ingest::Rejected(e);
            }
        };
        let key = SourceKey { agent: dg.agent_address, sub_agent: dg.sub_agent_id };
        let src = self.sources.entry(key).or_insert_with(SourceState::new);
        src.error_run = 0;

        if !src.started {
            src.started = true;
            src.last_seq = dg.sequence;
            src.window = 1;
            src.last_uptime = dg.uptime_ms;
            src.stats.received += 1;
            self.track_counters(&dg);
            return Ingest::Accepted(dg);
        }

        let ahead = dg.sequence.wrapping_sub(src.last_seq);
        if ahead == 0 {
            src.stats.duplicates += 1;
            return Ingest::Duplicate;
        }
        if ahead < HALF_RANGE {
            if ahead > REORDER_WINDOW && dg.uptime_ms < src.last_uptime {
                // Large forward jump and the uptime went backwards: the
                // agent rebooted and its new sequence landed above the old
                // one. Counting the jump as loss would be wildly wrong.
                restart(src, &dg);
                self.agg.restarts += 1;
                self.journal.record(
                    EventKind::SourceRestart,
                    u64::from(u32::from(key.agent)),
                    u64::from(key.sub_agent),
                    self.agg.restarts,
                    0,
                );
            } else {
                // Forward jump of `ahead`: the `ahead − 1` sequence numbers
                // in between are (so far) lost.
                let missing = u64::from(ahead - 1);
                src.stats.lost += missing;
                self.agg.lost += missing;
                self.seq_opened += missing;
                src.window = if ahead >= REORDER_WINDOW { 1 } else { (src.window << ahead) | 1 };
                src.last_seq = dg.sequence;
                src.last_uptime = dg.uptime_ms;
                src.stats.received += 1;
            }
            self.track_counters(&dg);
            return Ingest::Accepted(dg);
        }

        // Regression.
        let behind = src.last_seq.wrapping_sub(dg.sequence);
        if behind < REORDER_WINDOW {
            let bit = 1u128 << behind;
            if src.window & bit != 0 {
                src.stats.duplicates += 1;
                return Ingest::Duplicate;
            }
            // Late arrival: it was provisionally counted lost when the gap
            // opened; take it back. Counter records from out-of-order
            // datagrams are skipped — their cumulative values are stale.
            // (A late arrival just after a restart may not have a
            // provisional loss to take back; mirror the exact per-source
            // correction into the aggregate so they never diverge.)
            src.window |= bit;
            let before = src.stats.lost;
            src.stats.lost = before.saturating_sub(1);
            let corrected = before - src.stats.lost;
            self.agg.lost = self.agg.lost.saturating_sub(corrected);
            self.seq_recovered += corrected;
            src.stats.received += 1;
            return Ingest::Accepted(dg);
        }

        // Regression beyond any plausible reordering: sequence reset.
        restart(src, &dg);
        self.agg.restarts += 1;
        self.journal.record(
            EventKind::SourceRestart,
            u64::from(u32::from(key.agent)),
            u64::from(key.sub_agent),
            self.agg.restarts,
            0,
        );
        self.track_counters(&dg);
        Ingest::Accepted(dg)
    }

    /// Accumulate wrap-safe deltas for the datagram's counter samples.
    fn track_counters(&mut self, dg: &DatagramView<'_>) {
        for c in dg.counters() {
            let track = self
                .counters
                .entry((dg.agent_address, c.source_id))
                .or_insert_with(|| CounterTrack { last: c, totals: CounterTotals::default() });
            if track.totals.exports > 0 {
                // The deltas are wrap-corrected but still wire-controlled:
                // a forged absolute counter can make a single delta huge, so
                // the running totals saturate rather than overflowing.
                let t = &mut track.totals;
                t.in_octets = t
                    .in_octets
                    .saturating_add(c.if_in_octets.wrapping_sub(track.last.if_in_octets));
                t.out_octets = t
                    .out_octets
                    .saturating_add(c.if_out_octets.wrapping_sub(track.last.if_out_octets));
                t.in_ucast = t
                    .in_ucast
                    .saturating_add(u64::from(c.if_in_ucast.wrapping_sub(track.last.if_in_ucast)));
                t.out_ucast = t.out_ucast.saturating_add(u64::from(
                    c.if_out_ucast.wrapping_sub(track.last.if_out_ucast),
                ));
            }
            track.totals.exports += 1;
            track.last = c;
        }
    }

    /// Aggregate health across all sources. O(1): the totals are
    /// maintained incrementally by [`Collector::ingest`], so callers can
    /// poll health per datagram without a per-source walk.
    pub fn stats(&self) -> CollectorStats {
        CollectorStats {
            datagrams: self.datagrams,
            accepted: self.agg.accepted,
            duplicates: self.agg.duplicates,
            lost: self.agg.lost,
            seq_opened: self.seq_opened,
            seq_recovered: self.seq_recovered,
            restarts: self.agg.restarts,
            decode_errors: self.errors,
            unattributed_errors: self.unattributed_errors,
            sources: self.sources.len(),
            quarantined_sources: usize::try_from(self.agg.quarantined).unwrap_or(usize::MAX),
        }
    }

    /// Health counters of one source, if it has been seen.
    #[cfg(test)]
    pub(crate) fn source_stats(&self, key: &SourceKey) -> Option<SourceStats> {
        self.sources.get(key).map(|s| s.stats)
    }

    /// Iterate over all sources and their health.
    pub fn sources(&self) -> impl Iterator<Item = (&SourceKey, SourceStats)> {
        self.sources.iter().map(|(k, s)| (k, s.stats))
    }

    /// Accumulated wrap-safe counter deltas for an `(agent, source_id)`
    /// stream.
    #[cfg(test)]
    pub(crate) fn counter_totals(&self, agent: Ipv4Addr, source_id: u32) -> Option<CounterTotals> {
        self.counters.get(&(agent, source_id)).map(|t| t.totals)
    }

    /// Scale a received-traffic estimate up by the loss-compensation
    /// factor, so degraded feeds still estimate the full stream.
    pub fn compensate(&self, estimate: &TrafficEstimate) -> TrafficEstimate {
        estimate.scaled(self.stats().compensation_factor())
    }

    /// Serialize the full collector state — per-source sequence trackers,
    /// dup-suppression windows, quarantine flags, counter tracks, and all
    /// accounting totals — into a versioned, deterministic byte blob.
    ///
    /// Deterministic means: the same state always yields the same bytes
    /// (hash maps are emitted in sorted key order), so checkpoints taken
    /// from identical runs compare equal with `cmp`. Sealing is a sync
    /// point: the registry is published up to the state being written.
    pub fn save_state(&self) -> Vec<u8> {
        self.publish();
        let mut out = Vec::new();
        checkpoint::put_u32(&mut out, COLLECTOR_STATE_VERSION);
        checkpoint::put_u64(&mut out, self.datagrams);
        checkpoint::put_u64(&mut out, self.errors.truncated);
        checkpoint::put_u64(&mut out, self.errors.bad_version);
        checkpoint::put_u64(&mut out, self.errors.unsupported_agent);
        checkpoint::put_u64(&mut out, self.errors.inconsistent);
        checkpoint::put_u64(&mut out, self.unattributed_errors);
        checkpoint::put_u64(&mut out, self.seq_opened);
        checkpoint::put_u64(&mut out, self.seq_recovered);
        checkpoint::put_u64(&mut out, self.latency_samples);

        let mut sources: Vec<(&SourceKey, &SourceState)> = self.sources.iter().collect();
        sources.sort_by_key(|(k, _)| (u32::from(k.agent), k.sub_agent));
        checkpoint::put_u64(&mut out, sources.len() as u64);
        for (k, s) in sources {
            checkpoint::put_u32(&mut out, u32::from(k.agent));
            checkpoint::put_u32(&mut out, k.sub_agent);
            checkpoint::put_u32(&mut out, s.last_seq);
            checkpoint::put_u128(&mut out, s.window);
            checkpoint::put_u32(&mut out, s.last_uptime);
            checkpoint::put_bool(&mut out, s.started);
            checkpoint::put_u32(&mut out, s.error_run);
            checkpoint::put_u64(&mut out, s.stats.received);
            checkpoint::put_u64(&mut out, s.stats.duplicates);
            checkpoint::put_u64(&mut out, s.stats.lost);
            checkpoint::put_u64(&mut out, s.stats.restarts);
            checkpoint::put_u64(&mut out, s.stats.decode_errors);
            checkpoint::put_bool(&mut out, s.stats.quarantined);
        }

        let mut counters: Vec<(&(Ipv4Addr, u32), &CounterTrack)> = self.counters.iter().collect();
        counters.sort_by_key(|((agent, source_id), _)| (u32::from(*agent), *source_id));
        checkpoint::put_u64(&mut out, counters.len() as u64);
        for ((agent, source_id), t) in counters {
            checkpoint::put_u32(&mut out, u32::from(*agent));
            checkpoint::put_u32(&mut out, *source_id);
            checkpoint::put_u32(&mut out, t.last.sequence);
            checkpoint::put_u32(&mut out, t.last.source_id);
            checkpoint::put_u32(&mut out, t.last.if_index);
            checkpoint::put_u64(&mut out, t.last.if_speed);
            checkpoint::put_u64(&mut out, t.last.if_in_octets);
            checkpoint::put_u32(&mut out, t.last.if_in_ucast);
            checkpoint::put_u64(&mut out, t.last.if_out_octets);
            checkpoint::put_u32(&mut out, t.last.if_out_ucast);
            checkpoint::put_u64(&mut out, t.totals.in_octets);
            checkpoint::put_u64(&mut out, t.totals.out_octets);
            checkpoint::put_u64(&mut out, t.totals.in_ucast);
            checkpoint::put_u64(&mut out, t.totals.out_ucast);
            checkpoint::put_u64(&mut out, t.totals.exports);
        }
        out
    }

    /// Restore a collector from [`Collector::save_state`] bytes, consuming
    /// the cursor exactly. The blob is validated as hostile input: typed
    /// errors (never panics) on truncation, version skew, unsorted keys, or
    /// accounting that does not balance. The restored collector starts
    /// unbound and on the frozen test clock; use [`Collector::bind_obs`] to
    /// re-attach instrumentation.
    pub fn restore_state(bytes: &[u8]) -> Result<Collector, StateError> {
        let mut cur = Cur::new(bytes);
        let c = Collector::restore_from(&mut cur)?;
        cur.finish()?;
        Ok(c)
    }

    /// Restore from an open cursor (the week-scan checkpoint nests the
    /// collector state inside its own), leaving the cursor just past the
    /// collector section.
    pub fn restore_from(cur: &mut Cur<'_>) -> Result<Collector, StateError> {
        let version = cur.u32()?;
        if version != COLLECTOR_STATE_VERSION {
            return Err(StateError::BadVersion(version));
        }
        let mut c = Collector::new();
        c.datagrams = cur.u64()?;
        c.errors.truncated = cur.u64()?;
        c.errors.bad_version = cur.u64()?;
        c.errors.unsupported_agent = cur.u64()?;
        c.errors.inconsistent = cur.u64()?;
        c.unattributed_errors = cur.u64()?;
        c.seq_opened = cur.u64()?;
        c.seq_recovered = cur.u64()?;
        c.latency_samples = cur.u64()?;

        // Per-source entry: 2×u32 key + 3×u32 + u128 + 2×bool + 5×u64.
        let n_sources = cur.count(78)?;
        let mut prev_key: Option<(u32, u32)> = None;
        for _ in 0..n_sources {
            let agent = cur.u32()?;
            let sub_agent = cur.u32()?;
            if prev_key.is_some_and(|p| p >= (agent, sub_agent)) {
                return Err(StateError::Invalid("source keys not strictly increasing"));
            }
            prev_key = Some((agent, sub_agent));
            let mut s = SourceState::new();
            s.last_seq = cur.u32()?;
            s.window = cur.u128()?;
            s.last_uptime = cur.u32()?;
            s.started = cur.bool()?;
            s.error_run = cur.u32()?;
            s.stats.received = cur.u64()?;
            s.stats.duplicates = cur.u64()?;
            s.stats.lost = cur.u64()?;
            s.stats.restarts = cur.u64()?;
            s.stats.decode_errors = cur.u64()?;
            s.stats.quarantined = cur.bool()?;
            // Rebuild the aggregate from per-source sums: the blob then
            // cannot smuggle in an aggregate that disagrees with the
            // sources it claims to summarize.
            c.agg.accepted = c.agg.accepted.saturating_add(s.stats.received);
            c.agg.duplicates = c.agg.duplicates.saturating_add(s.stats.duplicates);
            c.agg.lost = c.agg.lost.saturating_add(s.stats.lost);
            c.agg.restarts = c.agg.restarts.saturating_add(s.stats.restarts);
            c.agg.quarantined += u64::from(s.stats.quarantined);
            let key = SourceKey { agent: Ipv4Addr::from(agent), sub_agent };
            c.sources.insert(key, s);
        }

        // Per-counter entry: 2×u32 key + CounterSample (5×u32 + 3×u64) +
        // CounterTotals (5×u64).
        let n_counters = cur.count(92)?;
        let mut prev_key: Option<(u32, u32)> = None;
        for _ in 0..n_counters {
            let agent = cur.u32()?;
            let source_id = cur.u32()?;
            if prev_key.is_some_and(|p| p >= (agent, source_id)) {
                return Err(StateError::Invalid("counter keys not strictly increasing"));
            }
            prev_key = Some((agent, source_id));
            let last = CounterSample {
                sequence: cur.u32()?,
                source_id: cur.u32()?,
                if_index: cur.u32()?,
                if_speed: cur.u64()?,
                if_in_octets: cur.u64()?,
                if_in_ucast: cur.u32()?,
                if_out_octets: cur.u64()?,
                if_out_ucast: cur.u32()?,
            };
            let totals = CounterTotals {
                in_octets: cur.u64()?,
                out_octets: cur.u64()?,
                in_ucast: cur.u64()?,
                out_ucast: cur.u64()?,
                exports: cur.u64()?,
            };
            c.counters.insert((Ipv4Addr::from(agent), source_id), CounterTrack { last, totals });
        }

        // The no-silent-discard invariant must already hold in the blob.
        let stats = c.stats();
        if Invariant::SflowLedger.identity().balance(|f| family_sum(SERIES, &stats, f), 0).is_err()
        {
            return Err(StateError::Invalid("datagram accounting does not balance"));
        }
        if c.seq_opened.checked_sub(c.seq_recovered) != Some(c.agg.lost) {
            return Err(StateError::Invalid("loss accounting does not balance"));
        }
        Ok(c)
    }

    /// Attach an event journal: restart detections and quarantine firings
    /// are recorded for the flight recorder. Past events are not
    /// replayed — the journal is live-run evidence, not state.
    pub fn bind_journal(&mut self, journal: Journal) {
        self.journal = journal;
    }

    /// Attach the collector to live instrumentation: register [`SERIES`]
    /// in the bundle's registry, publish the accounting so far into it, and
    /// adopt the bundle's clock. For a restored collector the registry then
    /// reads exactly as if it had run uninterrupted under it (latency
    /// observations, a measurement rather than a ledger entry, replay as
    /// zero-duration samples: what the frozen test clock records anyway).
    pub fn bind_obs(&mut self, obs: &Obs) {
        self.published = Published::bind(&obs.registry, SERIES);
        self.ingest_ns = obs.registry.duration_histogram("sflow_ingest_duration_ns");
        for _ in 0..self.latency_samples {
            self.ingest_ns.observe(0);
        }
        self.clock = Arc::clone(&obs.clock);
        self.publish();
    }
}

/// Best-effort source attribution for an undecodable buffer: if the fixed
/// 16-byte header prefix survived (version 5, IPv4 agent), read the agent
/// address and sub-agent id from their fixed offsets.
fn peek_source(bytes: &[u8]) -> Option<SourceKey> {
    if peek_u32(bytes, 0)? != 5 || peek_u32(bytes, 4)? != 1 {
        return None;
    }
    let agent = Ipv4Addr::from(peek_u32(bytes, 8)?);
    let sub_agent = peek_u32(bytes, 12)?;
    Some(SourceKey { agent, sub_agent })
}

/// Big-endian u32 at a byte offset, if present.
fn peek_u32(bytes: &[u8], off: usize) -> Option<u32> {
    match *bytes.get(off..off.checked_add(4)?)? {
        [a, b, c, d] => Some(u32::from_be_bytes([a, b, c, d])),
        _ => None,
    }
}

/// Restart bookkeeping: reset the window to the new head.
fn restart(src: &mut SourceState, dg: &DatagramView<'_>) {
    src.stats.restarts += 1;
    src.stats.received += 1;
    src.last_seq = dg.sequence;
    src.window = 1;
    src.last_uptime = dg.uptime_ms;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dg(sub: u32, seq: u32) -> Vec<u8> {
        dg_up(sub, seq, seq.wrapping_mul(40))
    }

    fn dg_up(sub: u32, seq: u32, uptime_ms: u32) -> Vec<u8> {
        Datagram {
            agent_address: Ipv4Addr::new(10, 255, 0, 1),
            sub_agent_id: sub,
            sequence: seq,
            uptime_ms,
            samples: vec![],
            counters: vec![],
        }
        .encode()
    }

    fn key(sub: u32) -> SourceKey {
        SourceKey { agent: Ipv4Addr::new(10, 255, 0, 1), sub_agent: sub }
    }

    #[test]
    fn in_order_stream_has_no_loss() {
        let mut c = Collector::new();
        for seq in 1..=100u32 {
            assert!(matches!(c.ingest(&dg(0, seq)), Ingest::Accepted(_)));
        }
        let s = c.stats();
        assert_eq!(s.accepted, 100);
        assert_eq!(s.lost, 0);
        assert_eq!(s.duplicates, 0);
        assert_eq!(s.restarts, 0);
        assert!(s.loss_rate().abs() < 1e-9);
        assert!((s.compensation_factor() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gaps_count_as_loss_and_compensation_scales() {
        let mut c = Collector::new();
        for seq in [1u32, 2, 5, 6, 10] {
            c.ingest(&dg(0, seq));
        }
        let s = c.stats();
        assert_eq!(s.accepted, 5);
        assert_eq!(s.lost, 5); // 3,4 and 7,8,9
        assert!((s.loss_rate() - 0.5).abs() < 1e-9);
        assert!((s.compensation_factor() - 2.0).abs() < 1e-9);
        let mut e = TrafficEstimate::zero();
        e.add_raw(16_384, 1_000);
        assert_eq!(c.compensate(&e).bytes, e.bytes * 2);
        assert_eq!(c.compensate(&e).samples, e.samples);
    }

    #[test]
    fn duplicates_are_suppressed_head_and_windowed() {
        let mut c = Collector::new();
        c.ingest(&dg(0, 1));
        c.ingest(&dg(0, 2));
        assert_eq!(c.ingest(&dg(0, 2)), Ingest::Duplicate); // head repeat
        assert_eq!(c.ingest(&dg(0, 1)), Ingest::Duplicate); // windowed
        let s = c.stats();
        assert_eq!(s.accepted, 2);
        assert_eq!(s.duplicates, 2);
        assert_eq!(s.lost, 0);
    }

    #[test]
    fn late_arrival_corrects_the_loss_estimate() {
        let mut c = Collector::new();
        c.ingest(&dg(0, 1));
        c.ingest(&dg(0, 3)); // gap: 2 provisionally lost
        assert_eq!(c.stats().lost, 1);
        assert!(matches!(c.ingest(&dg(0, 2)), Ingest::Accepted(_)));
        let s = c.stats();
        assert_eq!(s.lost, 0);
        assert_eq!(s.accepted, 3);
        // And the late one is now a duplicate if it comes again.
        assert_eq!(c.ingest(&dg(0, 2)), Ingest::Duplicate);
    }

    #[test]
    fn regression_beyond_window_is_a_restart_not_loss() {
        let mut c = Collector::new();
        for seq in 5_000..5_010u32 {
            c.ingest(&dg(0, seq));
        }
        assert!(matches!(c.ingest(&dg(0, 1)), Ingest::Accepted(_)));
        c.ingest(&dg(0, 2));
        let s = c.stats();
        assert_eq!(s.restarts, 1);
        assert_eq!(s.lost, 0);
        assert_eq!(s.accepted, 12);
    }

    #[test]
    fn forward_jump_with_uptime_reset_is_a_restart() {
        let mut c = Collector::new();
        c.ingest(&dg_up(0, 1_000, 4_000_000));
        // Rebooted agent whose new sequence landed far above: tiny uptime.
        assert!(matches!(c.ingest(&dg_up(0, 9_000, 40)), Ingest::Accepted(_)));
        let s = c.stats();
        assert_eq!(s.restarts, 1);
        assert_eq!(s.lost, 0);
    }

    #[test]
    fn sequence_accounting_survives_u32_wraparound() {
        let mut c = Collector::new();
        // Approach the wrap, cross it, keep going — with one dropped
        // datagram on each side of the boundary.
        let seqs = [u32::MAX - 3, u32::MAX - 2, u32::MAX, 1u32, 2, 3];
        for s in seqs {
            assert!(matches!(c.ingest(&dg(0, s)), Ingest::Accepted(_)));
        }
        let s = c.stats();
        assert_eq!(s.accepted, 6);
        assert_eq!(s.lost, 2); // u32::MAX-1 and 0
        assert_eq!(s.restarts, 0, "wraparound must not look like a restart");
        // A windowed duplicate across the boundary is still recognised.
        assert_eq!(c.ingest(&dg(0, u32::MAX)), Ingest::Duplicate);
        // And the lost pre-wrap sequence arriving late is accepted.
        assert!(matches!(c.ingest(&dg(0, u32::MAX - 1)), Ingest::Accepted(_)));
        assert_eq!(c.stats().lost, 1);
    }

    #[test]
    fn sources_are_tracked_independently() {
        let mut c = Collector::new();
        for seq in 1..=10u32 {
            c.ingest(&dg(0, seq));
        }
        for seq in [1u32, 5] {
            c.ingest(&dg(1, seq));
        }
        assert_eq!(c.source_stats(&key(0)).map(|s| s.lost), Some(0));
        assert_eq!(c.source_stats(&key(1)).map(|s| s.lost), Some(3));
        assert_eq!(c.stats().sources, 2);
    }

    /// One stream through every exit of `ingest_inner`, the ledger
    /// checked after each datagram: the step's bucket moved by one and
    /// nothing else did.
    #[test]
    fn every_exit_books_exactly_one_bucket() {
        let attributable: Vec<u8> = dg(0, 99).into_iter().take(20).collect();
        let steps: [(&str, Vec<u8>, &str); 10] = [
            ("first datagram", dg_up(0, 100, 4_000), "accepted"),
            ("in order", dg_up(0, 101, 4_040), "accepted"),
            ("forward gap", dg_up(0, 105, 4_200), "accepted"),
            ("head repeat", dg_up(0, 105, 4_200), "duplicates"),
            ("in-window repeat", dg_up(0, 101, 4_040), "duplicates"),
            ("late arrival", dg_up(0, 103, 4_120), "accepted"),
            ("forward restart", dg_up(0, 9_000, 40), "accepted"),
            ("regression restart", dg_up(0, 1, 80), "accepted"),
            ("undecodable, source peeked", attributable, "errors"),
            ("undecodable, no source", vec![1, 2, 3], "errors"),
        ];
        let mut c = Collector::new();
        let ledger = |c: &Collector| {
            let s = c.stats();
            assert_eq!(s.datagrams, s.accepted + s.duplicates + s.decode_errors.total());
            [
                ("accepted", s.accepted),
                ("duplicates", s.duplicates),
                ("errors", s.decode_errors.total()),
            ]
        };
        for (step, bytes, bucket) in steps {
            let before = ledger(&c);
            let outcome = c.ingest_view(&bytes);
            let booked = match outcome {
                Ingest::Accepted(_) => "accepted",
                Ingest::Duplicate => "duplicates",
                Ingest::Rejected(_) => "errors",
            };
            assert_eq!(booked, bucket, "{step}: outcome");
            for (b, a) in before.iter().zip(ledger(&c)) {
                assert_eq!(a.1 - b.1, u64::from(a.0 == bucket), "{step}: {}", a.0);
            }
        }
        let s = c.stats();
        assert_eq!((s.accepted, s.duplicates, s.decode_errors.truncated), (6, 2, 2));
        assert_eq!((s.restarts, s.lost, s.unattributed_errors), (2, 2, 1));
    }

    #[test]
    fn decode_errors_are_counted_by_kind_and_attributed() {
        let mut c = Collector::new();
        // Garbage with no recoverable header.
        assert!(matches!(c.ingest(&[1, 2, 3]), Ingest::Rejected(DecodeError::Truncated)));
        // A truncated-but-attributable datagram: valid 16-byte prefix.
        let full = dg(7, 1);
        let cut = full.get(..20).map(<[u8]>::to_vec);
        if let Some(prefix) = cut {
            assert!(matches!(c.ingest(&prefix), Ingest::Rejected(DecodeError::Truncated)));
        }
        let s = c.stats();
        assert_eq!(s.decode_errors.truncated, 2);
        assert_eq!(s.decode_errors.total(), 2);
        assert_eq!(s.unattributed_errors, 1);
        assert_eq!(c.source_stats(&key(7)).map(|s| s.decode_errors), Some(1));
        // Accounting invariant: nothing silently discarded.
        assert_eq!(s.datagrams, s.accepted + s.duplicates + s.decode_errors.total());
    }

    #[test]
    fn garbage_run_quarantines_the_source() {
        let mut c = Collector::new();
        let full = dg(3, 1);
        let prefix: Vec<u8> = full.iter().copied().take(20).collect();
        for _ in 0..QUARANTINE_THRESHOLD {
            c.ingest(&prefix);
        }
        assert_eq!(c.stats().quarantined_sources, 1);
        assert_eq!(c.source_stats(&key(3)).map(|s| s.quarantined), Some(true));
        // A clean decode ends the error run but the flag stays for the
        // report.
        c.ingest(&dg(3, 2));
        assert_eq!(c.stats().quarantined_sources, 1);
    }

    #[test]
    fn counter_deltas_are_wrap_safe() {
        let push = u64::MAX - 500;
        let mk = |seq: u32, octets: u64, ucast: u32| {
            Datagram {
                agent_address: Ipv4Addr::new(10, 255, 0, 1),
                sub_agent_id: 0,
                sequence: seq,
                uptime_ms: seq * 40,
                samples: vec![],
                counters: vec![CounterSample {
                    sequence: seq,
                    source_id: 9,
                    if_index: 9,
                    if_speed: 10_000_000_000,
                    if_in_octets: octets.wrapping_add(push),
                    if_in_ucast: ucast.wrapping_add(u32::MAX - 5),
                    if_out_octets: 0,
                    if_out_ucast: 0,
                }],
            }
            .encode()
        };
        let mut c = Collector::new();
        // First export sits just below the wrap; second crosses it.
        c.ingest(&mk(1, 100, 2));
        c.ingest(&mk(2, 90_000, 900));
        let t = c.counter_totals(Ipv4Addr::new(10, 255, 0, 1), 9).unwrap();
        assert_eq!(t.exports, 2);
        assert_eq!(t.in_octets, 89_900);
        assert_eq!(t.in_ucast, 898);
    }

    #[test]
    fn aggregate_stats_match_a_per_source_recomputation() {
        let mut c = Collector::new();
        // A messy multi-source stream: gaps, duplicates, late arrivals,
        // restarts, attributed and unattributed garbage.
        for seq in [1u32, 2, 5, 5, 3, 9_000, 1] {
            c.ingest(&dg(0, seq));
        }
        c.ingest(&dg_up(1, 1_000, 4_000_000));
        c.ingest(&dg_up(1, 9_000, 40)); // forward jump + uptime reset
        let prefix: Vec<u8> = dg(2, 1).iter().copied().take(20).collect();
        for _ in 0..QUARANTINE_THRESHOLD {
            c.ingest(&prefix);
        }
        c.ingest(&[0u8; 3]);
        let s = c.stats();
        let mut accepted = 0;
        let mut duplicates = 0;
        let mut lost = 0;
        let mut restarts = 0;
        let mut quarantined = 0;
        for (_, st) in c.sources() {
            accepted += st.received;
            duplicates += st.duplicates;
            lost += st.lost;
            restarts += st.restarts;
            quarantined += usize::from(st.quarantined);
        }
        assert_eq!(s.accepted, accepted);
        assert_eq!(s.duplicates, duplicates);
        assert_eq!(s.lost, lost);
        assert_eq!(s.restarts, restarts);
        assert_eq!(s.quarantined_sources, quarantined);
        assert_eq!(s.sources, 3);
        assert_eq!(s.datagrams, s.accepted + s.duplicates + s.decode_errors.total());
    }

    #[test]
    fn published_metrics_mirror_the_stats_report() {
        let obs = ixp_obs::Obs::deterministic();
        let mut c = Collector::with_obs(&obs);
        for seq in [1u32, 2, 5, 5, 3] {
            c.ingest(&dg(0, seq));
        }
        c.ingest(&[0u8; 3]);
        let s = c.stats();
        // Ingest moves no counter or gauge; `publish` brings them all up.
        assert_eq!(obs.snapshot().counter("sflow_datagrams_total"), Some(0));
        c.publish();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("sflow_datagrams_total"), Some(s.datagrams));
        assert_eq!(snap.counter("sflow_accepted_total"), Some(s.accepted));
        assert_eq!(snap.counter("sflow_duplicates_total"), Some(s.duplicates));
        assert_eq!(snap.counter("sflow_restarts_total"), Some(s.restarts));
        // Net loss = gaps opened − late arrivals recovered.
        let opened = snap.counter("sflow_seq_lost_total").unwrap_or(0);
        let recovered = snap.counter("sflow_seq_recovered_total").unwrap_or(0);
        assert_eq!(opened, 2); // seqs 3 and 4 provisionally lost
        assert_eq!(recovered, 1); // seq 3 arrived late
        assert_eq!(s.lost, opened - recovered);
        assert_eq!(
            snap.counter("sflow_decode_errors_total{kind=\"truncated\"}"),
            Some(s.decode_errors.truncated)
        );
        assert_eq!(snap.counter("sflow_unattributed_errors_total"), Some(1));
        match snap.get("sflow_sources") {
            Some(ixp_obs::MetricValue::Gauge(n)) => assert_eq!(*n, 1),
            other => panic!("unexpected sflow_sources entry: {other:?}"),
        }
        // The sampled latency histogram saw at least the first ingest.
        match snap.get("sflow_ingest_duration_ns") {
            Some(ixp_obs::MetricValue::Histogram(h)) => assert!(h.count >= 1),
            other => panic!("unexpected latency entry: {other:?}"),
        }
    }

    /// A collector exercising every state dimension: gaps, late arrivals,
    /// duplicates, restarts, quarantine, counter tracks, unattributed
    /// garbage.
    fn messy_collector() -> Collector {
        let mut c = Collector::new();
        for seq in [1u32, 2, 5, 5, 3, 9_000, 1] {
            c.ingest(&dg(0, seq));
        }
        c.ingest(&dg_up(1, 1_000, 4_000_000));
        c.ingest(&dg_up(1, 9_000, 40));
        let prefix: Vec<u8> = dg(2, 1).iter().copied().take(20).collect();
        for _ in 0..QUARANTINE_THRESHOLD {
            c.ingest(&prefix);
        }
        c.ingest(&[0u8; 3]);
        c
    }

    #[test]
    fn save_restore_round_trips_and_stays_byte_identical() {
        let c = messy_collector();
        let blob = c.save_state();
        let restored = Collector::restore_state(&blob).expect("restore");
        assert_eq!(restored.stats(), c.stats());
        assert_eq!(restored.save_state(), blob, "save → restore → save changed bytes");
    }

    #[test]
    fn restore_then_continue_matches_uninterrupted_run() {
        // Same stream ingested (a) straight through and (b) with a
        // checkpoint/restore in the middle — the final state must be
        // byte-identical.
        let stream: Vec<Vec<u8>> =
            [1u32, 2, 5, 5, 3, 9_000, 1, 7, 4, 9_001].iter().map(|&s| dg(0, s)).collect();
        for cut in 0..=stream.len() {
            let mut a = Collector::new();
            for b in &stream {
                a.ingest(b);
            }
            let mut head = Collector::new();
            for b in stream.iter().take(cut) {
                head.ingest(b);
            }
            let mut resumed = Collector::restore_state(&head.save_state()).expect("restore");
            for b in stream.iter().skip(cut) {
                resumed.ingest(b);
            }
            assert_eq!(resumed.save_state(), a.save_state(), "divergence at cut {cut}");
        }
    }

    #[test]
    fn corrupted_or_truncated_state_is_a_typed_error_never_a_panic() {
        let blob = messy_collector().save_state();
        for cut in 0..blob.len() {
            let prefix: Vec<u8> = blob.iter().copied().take(cut).collect();
            assert!(Collector::restore_state(&prefix).is_err(), "cut {cut} restored");
        }
        // Single-byte corruption anywhere must be rejected (the payload has
        // no checksum of its own — the accounting and ordering validation
        // plus the envelope checksum in ixp-supervisor carry that — but it
        // must never panic and never restore an unbalanced state).
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            if let Some(b) = bad.get_mut(i) {
                *b ^= 0x80;
            }
            if let Ok(restored) = Collector::restore_state(&bad) {
                let s = restored.stats();
                assert_eq!(s.datagrams, s.accepted + s.duplicates + s.decode_errors.total());
            }
        }
    }

    #[test]
    fn restore_rejects_version_skew() {
        let mut blob = messy_collector().save_state();
        if let Some(b) = blob.get_mut(3) {
            *b = 99;
        }
        match Collector::restore_state(&blob) {
            Err(crate::checkpoint::StateError::BadVersion(99)) => {}
            other => panic!("expected BadVersion(99), got {:?}", other.err()),
        }
    }

    #[test]
    fn bind_obs_replays_checkpointed_totals_into_a_fresh_registry() {
        // Run instrumented; checkpoint; restore into a new registry. Both
        // registries must snapshot identically under the frozen clock.
        let obs_a = ixp_obs::Obs::deterministic();
        let mut live = Collector::with_obs(&obs_a);
        for seq in [1u32, 2, 5, 5, 3] {
            live.ingest(&dg(0, seq));
        }
        live.ingest(&[0u8; 3]);
        let blob = live.save_state();

        let obs_b = ixp_obs::Obs::deterministic();
        let mut restored = Collector::restore_state(&blob).expect("restore");
        restored.bind_obs(&obs_b);
        assert_eq!(
            ixp_obs::json::render(&obs_a.snapshot()),
            ixp_obs::json::render(&obs_b.snapshot())
        );
    }

    #[test]
    fn never_panics_on_hostile_prefixes() {
        let mut c = Collector::new();
        let full = dg(0, 1);
        for cut in 0..full.len() {
            let prefix: Vec<u8> = full.iter().copied().take(cut).collect();
            let _ = c.ingest(&prefix);
        }
        let s = c.stats();
        assert_eq!(s.datagrams, full.len() as u64);
        assert_eq!(s.datagrams, s.accepted + s.duplicates + s.decode_errors.total());
    }
}
