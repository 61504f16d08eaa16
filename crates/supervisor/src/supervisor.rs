//! The supervisor proper: deterministic ticks, backpressure, watchdog,
//! and whole-pipeline checkpoint/restore.
//!
//! Time is *counted, not measured*: a tick fires every
//! `arrivals_per_tick` offered datagrams, and each tick grants the drain
//! stage a budget of `drain_budget` datagrams — its deadline. This keeps
//! the whole supervised pipeline a pure function of the input stream, so
//! a run can be killed at **any** datagram boundary, checkpointed,
//! restored, and continued to a byte-identical result; wall-clock
//! supervision would make every run unique. Sustained overload is modeled
//! explicitly (a stalled drain stage misses its deadlines and the ring
//! sheds), not by racing threads.

use std::collections::BTreeMap;

use ixp_core::WeekScan;
use ixp_netmodel::Week;
use ixp_obs::journal::{EventKind, Journal};
use ixp_obs::{Obs, Published, Series};
use ixp_sflow::checkpoint::{self, Cur, StateError};

use crate::envelope::{self, CheckpointError};
use crate::health::{AgentHealth, HealthPolicy, HealthState, TickDelta};
use crate::ring::IntakeRing;

/// Serialization format version of [`Supervisor`] state.
pub const SUPERVISOR_STATE_VERSION: u32 = 1;

/// Configuration of the supervised ingest loop. Configuration is not part
/// of a checkpoint: the restoring side supplies it, and the restore
/// validates the saved state against it where they interact (ring depth).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Capacity of the bounded intake ring (datagrams).
    pub ring_capacity: usize,
    /// Offered datagrams between watchdog ticks.
    pub arrivals_per_tick: u64,
    /// Drain-stage deadline budget: datagrams the collector may ingest per
    /// tick. A tick that leaves the ring non-empty is a deadline miss.
    pub drain_budget: usize,
    /// Health-state thresholds.
    pub policy: HealthPolicy,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            ring_capacity: 4096,
            arrivals_per_tick: 256,
            drain_budget: 512,
            policy: HealthPolicy::default(),
        }
    }
}

impl SupervisorConfig {
    fn normalized(mut self) -> SupervisorConfig {
        self.ring_capacity = self.ring_capacity.max(1);
        self.arrivals_per_tick = self.arrivals_per_tick.max(1);
        self.drain_budget = self.drain_budget.max(1);
        self
    }
}

/// Bump one per-state slot. [`HealthState::index`] is below 4 by
/// construction; `.get_mut` keeps the hot path lexically panic-free.
fn bump(slots: &mut [u64; 4], i: usize) {
    if let Some(slot) = slots.get_mut(i) {
        *slot += 1;
    }
}

/// Last-seen per-source collector stats, for tick deltas.
#[derive(Debug, Clone, Copy, Default)]
struct PrevStats {
    received: u64,
    lost: u64,
    decode_errors: u64,
    quarantined: bool,
}

/// Aggregate supervisor counters, for reports and assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorStats {
    /// Datagrams offered to the intake ring (including shed ones).
    pub offered: u64,
    /// Datagrams shed by the full ring.
    pub shed: u64,
    /// Watchdog ticks run.
    pub ticks: u64,
    /// Ticks that missed their drain deadline.
    pub deadline_misses: u64,
    /// Datagrams currently queued.
    pub ring_depth: usize,
    /// Deepest the ring has ever been.
    pub high_water: usize,
    /// Health transitions by destination state ([`HealthState::index`]).
    pub transitions: [u64; 4],
    /// Agents per health state ([`HealthState::index`]).
    pub agents: [u64; 4],
}

/// One per-state slot, by position in [`HealthState::ALL`](crate::HealthState::ALL).
fn slot(slots: &[u64; 4], i: usize) -> u64 {
    slots.get(i).copied().unwrap_or(0)
}

/// The `supervisor_*` families, read off [`Supervisor::stats`]: the intake
/// ring's offered/shed counts and high-water mark, the watchdog's ticks and
/// deadline misses, agents per health state and transitions per destination
/// state.
pub const SERIES: &[Series<SupervisorStats>] = &[
    Series::counter("supervisor_offered_total", |s| s.offered),
    Series::counter("supervisor_shed_total", |s| s.shed),
    Series::counter("supervisor_ticks_total", |s| s.ticks),
    Series::counter("supervisor_deadline_misses_total", |s| s.deadline_misses),
    Series::high_water("supervisor_ring_depth", |s| s.high_water as u64),
    Series::level("supervisor_agents{state=\"healthy\"}", |s| slot(&s.agents, 0)),
    Series::level("supervisor_agents{state=\"degraded\"}", |s| slot(&s.agents, 1)),
    Series::level("supervisor_agents{state=\"quarantined\"}", |s| slot(&s.agents, 2)),
    Series::level("supervisor_agents{state=\"recovering\"}", |s| slot(&s.agents, 3)),
    Series::counter("supervisor_transitions_total{to=\"healthy\"}", |s| slot(&s.transitions, 0)),
    Series::counter("supervisor_transitions_total{to=\"degraded\"}", |s| slot(&s.transitions, 1)),
    Series::counter("supervisor_transitions_total{to=\"quarantined\"}", |s| slot(&s.transitions, 2)),
    Series::counter("supervisor_transitions_total{to=\"recovering\"}", |s| slot(&s.transitions, 3)),
];

/// The supervised ingest loop around one week's [`WeekScan`].
#[derive(Debug)]
pub struct Supervisor {
    config: SupervisorConfig,
    scan: WeekScan,
    ring: IntakeRing,
    offered: u64,
    ticks: u64,
    deadline_misses: u64,
    stalled: bool,
    transitions: [u64; 4],
    prev: BTreeMap<(u32, u32), PrevStats>,
    health: BTreeMap<(u32, u32), AgentHealth>,
    published: Published<SupervisorStats>,
    // Disabled unless attached via [`Supervisor::bind_journal`]. Not
    // part of a checkpoint: the journal is live evidence of *this*
    // process's run, exactly what a flight record must show.
    journal: Journal,
}

impl Supervisor {
    /// Supervise an existing scan, unbound from any registry.
    pub fn new(scan: WeekScan, config: SupervisorConfig) -> Supervisor {
        let config = config.normalized();
        Supervisor {
            ring: IntakeRing::new(config.ring_capacity),
            config,
            scan,
            offered: 0,
            ticks: 0,
            deadline_misses: 0,
            stalled: false,
            transitions: [0; 4],
            prev: BTreeMap::new(),
            health: BTreeMap::new(),
            published: Published::default(),
            journal: Journal::disabled(),
        }
    }

    /// [`Supervisor::new`] + [`Supervisor::bind_obs`].
    pub fn with_obs(scan: WeekScan, config: SupervisorConfig, obs: &Obs) -> Supervisor {
        let mut sup = Supervisor::new(scan, config);
        sup.bind_obs(obs);
        sup
    }

    /// The week being supervised.
    pub fn week(&self) -> Week {
        self.scan.week
    }

    /// Datagrams offered so far (the resume cursor into the feed).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// The supervised scan, for inspection mid-run.
    pub fn scan(&self) -> &WeekScan {
        &self.scan
    }

    /// Finish supervision and hand the scan to the analysis pipeline.
    pub fn into_scan(self) -> WeekScan {
        self.scan
    }

    /// Current health state of one `(agent, sub_agent)` source.
    pub fn health_of(&self, agent: u32, sub_agent: u32) -> Option<HealthState> {
        self.health.get(&(agent, sub_agent)).map(AgentHealth::state)
    }

    /// Every source's current health state, in ascending key order (the
    /// `/healthz` endpoint's rows).
    pub fn health_states(&self) -> Vec<((u32, u32), HealthState)> {
        self.health.iter().map(|(k, h)| (*k, h.state())).collect()
    }

    /// Attach an event journal: tick boundaries, shed decisions, and
    /// health transitions are recorded from here on, and the nested
    /// scan's collector journals its restart/quarantine detections into
    /// the same ring. Call after construction or restore; past events
    /// are not replayed (the journal is live-run evidence, not state).
    pub fn bind_journal(&mut self, journal: Journal) {
        self.scan.bind_journal(journal.clone());
        journal.set_tick(self.ticks);
        self.journal = journal;
    }

    /// The attached journal (disabled unless [`Supervisor::bind_journal`]
    /// was called), for flight dumps at fault points.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Aggregate supervisor counters.
    pub fn stats(&self) -> SupervisorStats {
        let mut agents = [0u64; 4];
        for h in self.health.values() {
            bump(&mut agents, h.state().index());
        }
        SupervisorStats {
            offered: self.offered,
            shed: self.ring.shed(),
            ticks: self.ticks,
            deadline_misses: self.deadline_misses,
            ring_depth: self.ring.len(),
            high_water: self.ring.high_water(),
            transitions: self.transitions,
            agents,
        }
    }

    /// Model a stalled drain stage: while set, ticks drain nothing and
    /// every tick is a deadline miss, so arrivals pile into the ring and
    /// eventually shed. This is how the chaos harness applies sustained
    /// overload deterministically.
    pub fn set_stalled(&mut self, stalled: bool) {
        self.stalled = stalled;
    }

    /// Offer one datagram to the intake ring. Sheds (and counts the shed
    /// into the scan's ingest health) if the ring is full; runs a tick
    /// every `arrivals_per_tick` offers.
    pub fn offer(&mut self, datagram: Vec<u8>) {
        self.offered += 1;
        if !self.ring.offer(datagram) {
            self.scan.record_shed(1);
            self.journal.record(EventKind::Shed, 0, 0, 1, self.ring.shed());
        }
        if self.offered.is_multiple_of(self.config.arrivals_per_tick) {
            self.tick();
        }
    }

    /// Drive the supervisor from a datagram feed, skipping the first
    /// [`Supervisor::offered`] items (zero on a fresh supervisor; the
    /// already-consumed prefix after a restore — the feed is regenerated
    /// from its seed, so skipping by count realigns it exactly).
    ///
    /// Returns `true` if the feed completed (and the run was finished);
    /// `false` if `kill_at` was reached first — the crash point. A killed
    /// supervisor is left exactly at the datagram boundary, ready to be
    /// checkpointed.
    pub fn run_feed<I>(&mut self, feed: I, kill_at: Option<u64>) -> bool
    where
        I: Iterator<Item = Vec<u8>>,
    {
        let skip = usize::try_from(self.offered).unwrap_or(usize::MAX);
        for datagram in feed.skip(skip) {
            if kill_at.is_some_and(|k| self.offered >= k) {
                return false;
            }
            self.offer(datagram);
        }
        self.finish();
        true
    }

    /// End of stream: drain everything still queued (the final partial
    /// tick has no deadline — nothing more is arriving) and run a last
    /// watchdog pass so health states settle.
    pub fn finish(&mut self) {
        while let Some(datagram) = self.ring.pop() {
            self.scan.ingest(&datagram);
        }
        self.watchdog();
        self.publish();
    }

    /// Bring the bound registry up to the pipeline as it stands: the nested
    /// scan's `sflow_*`/`wire_*` series and the supervisor's own. The sync
    /// points are the tick, [`Supervisor::finish`],
    /// [`Supervisor::checkpoint`] and [`Supervisor::bind_obs`]; between them
    /// the registry lags by at most one tick (`arrivals_per_tick` offers).
    fn publish(&self) {
        self.scan.publish();
        self.published.publish(&self.stats());
    }

    fn tick(&mut self) {
        self.ticks += 1;
        self.journal.set_tick(self.ticks);
        self.journal.record(EventKind::TickStart, 0, 0, self.offered, 0);
        let mut drained = 0u64;
        let mut missed = false;
        if self.stalled {
            // The drain stage is wedged: it consumes none of its budget,
            // which by definition misses the deadline.
            self.deadline_misses += 1;
            missed = true;
        } else {
            let mut budget = self.config.drain_budget;
            while budget > 0 {
                match self.ring.pop() {
                    Some(datagram) => {
                        self.scan.ingest(&datagram);
                        budget -= 1;
                        drained += 1;
                    }
                    None => break,
                }
            }
            if !self.ring.is_empty() {
                self.deadline_misses += 1;
                missed = true;
            }
        }
        self.watchdog();
        self.publish();
        self.journal.record(EventKind::TickEnd, 0, 0, drained, u64::from(missed));
    }

    /// One watchdog pass: diff every source's collector stats against the
    /// previous tick and advance its health state machine. Sources are
    /// visited in sorted key order so the pass is deterministic.
    fn watchdog(&mut self) {
        let mut current: Vec<((u32, u32), ixp_sflow::SourceStats)> = self
            .scan
            .collector()
            .sources()
            .map(|(k, s)| ((u32::from(k.agent), k.sub_agent), s))
            .collect();
        current.sort_by_key(|(k, _)| *k);
        for (key, s) in current {
            let prev = self.prev.get(&key).copied().unwrap_or_default();
            let delta = TickDelta {
                received: s.received.saturating_sub(prev.received),
                lost: s.lost.saturating_sub(prev.lost),
                decode_errors: s.decode_errors.saturating_sub(prev.decode_errors),
                // Severe only on the tick the collector's quarantine fires;
                // afterwards stickiness is the state machine's business.
                quarantined: s.quarantined && !prev.quarantined,
            };
            self.prev.insert(
                key,
                PrevStats {
                    received: s.received,
                    lost: s.lost,
                    decode_errors: s.decode_errors,
                    quarantined: s.quarantined,
                },
            );
            let agent = self.health.entry(key).or_default();
            let before = agent.state();
            if let Some(next) = agent.observe(&delta, &self.config.policy) {
                bump(&mut self.transitions, next.index());
                self.journal.record(
                    EventKind::Transition,
                    u64::from(key.0),
                    u64::from(key.1),
                    before.index() as u64,
                    next.index() as u64,
                );
            }
        }
    }

    /// Serialize the whole supervised pipeline — supervisor counters, ring
    /// contents, per-agent health, and the nested scan/collector state —
    /// into a sealed checkpoint file image (magic, version, checksum; see
    /// [`crate::envelope`]). Sealing is a sync point: the registry is
    /// published up to the state being written.
    pub fn checkpoint(&self) -> Vec<u8> {
        self.publish();
        // Sized for everything ahead of the scan state; `put_bytes` below
        // reserves for that in one step, once its length is known, so the
        // payload never grows by doubling — not under a full ring either.
        // (The scan state is not serialized first and sized with the rest:
        // L10 reads the fields in the order the calls stand in.)
        let mut payload = Vec::with_capacity(self.head_len());
        checkpoint::put_u32(&mut payload, SUPERVISOR_STATE_VERSION);
        checkpoint::put_u64(&mut payload, self.offered);
        checkpoint::put_u64(&mut payload, self.ticks);
        checkpoint::put_u64(&mut payload, self.deadline_misses);
        checkpoint::put_bool(&mut payload, self.stalled);
        for t in self.transitions {
            checkpoint::put_u64(&mut payload, t);
        }
        self.ring.save(&mut payload);
        checkpoint::put_u64(&mut payload, self.prev.len() as u64);
        for (key, p) in &self.prev {
            checkpoint::put_u32(&mut payload, key.0);
            checkpoint::put_u32(&mut payload, key.1);
            checkpoint::put_u64(&mut payload, p.received);
            checkpoint::put_u64(&mut payload, p.lost);
            checkpoint::put_u64(&mut payload, p.decode_errors);
            checkpoint::put_bool(&mut payload, p.quarantined);
        }
        checkpoint::put_u64(&mut payload, self.health.len() as u64);
        for (key, h) in &self.health {
            checkpoint::put_u32(&mut payload, key.0);
            checkpoint::put_u32(&mut payload, key.1);
            h.save(&mut payload);
        }
        checkpoint::put_bytes(&mut payload, &self.scan.save_state());
        envelope::seal(&payload)
    }

    /// Exact size of what [`Supervisor::checkpoint`] writes ahead of the
    /// scan state: version, counters and transitions, the ring, then 33
    /// bytes a baseline and 13 a health entry behind their counts.
    fn head_len(&self) -> usize {
        61 + self.ring.saved_len() + 8 + 33 * self.prev.len() + 8 + 13 * self.health.len()
    }

    /// Restore a supervised pipeline from a [`Supervisor::checkpoint`]
    /// image under the same configuration. The image is hostile input:
    /// envelope and payload are fully validated with typed errors, never
    /// panics. The restored supervisor is unbound; use
    /// [`Supervisor::bind_obs`] to re-attach instrumentation.
    pub fn restore(bytes: &[u8], config: SupervisorConfig) -> Result<Supervisor, CheckpointError> {
        let config = config.normalized();
        let payload = envelope::open(bytes)?;
        let mut cur = Cur::new(payload);
        let version = cur.u32()?;
        if version != SUPERVISOR_STATE_VERSION {
            return Err(CheckpointError::State(StateError::BadVersion(version)));
        }
        let offered = cur.u64()?;
        let ticks = cur.u64()?;
        let deadline_misses = cur.u64()?;
        let stalled = cur.bool()?;
        let mut transitions = [0u64; 4];
        for t in &mut transitions {
            *t = cur.u64()?;
        }
        let ring = IntakeRing::restore(&mut cur, config.ring_capacity)?;
        // Per-prev entry: 2×u32 key + 3×u64 + bool.
        let n_prev = cur.count(33)?;
        let mut prev = BTreeMap::new();
        let mut last: Option<(u32, u32)> = None;
        for _ in 0..n_prev {
            let key = (cur.u32()?, cur.u32()?);
            if last.is_some_and(|l| l >= key) {
                return Err(StateError::Invalid("prev keys not strictly increasing").into());
            }
            last = Some(key);
            let p = PrevStats {
                received: cur.u64()?,
                lost: cur.u64()?,
                decode_errors: cur.u64()?,
                quarantined: cur.bool()?,
            };
            prev.insert(key, p);
        }
        // Per-health entry: 2×u32 key + u8 state + u32 counter.
        let n_health = cur.count(13)?;
        let mut health = BTreeMap::new();
        let mut last: Option<(u32, u32)> = None;
        for _ in 0..n_health {
            let key = (cur.u32()?, cur.u32()?);
            if last.is_some_and(|l| l >= key) {
                return Err(StateError::Invalid("health keys not strictly increasing").into());
            }
            last = Some(key);
            health.insert(key, AgentHealth::restore(&mut cur)?);
        }
        let scan_blob = cur.bytes()?;
        let scan = WeekScan::restore_state(scan_blob)?;
        cur.finish()?;
        if scan.shed() != ring.shed() {
            return Err(StateError::Invalid("shed counters disagree").into());
        }
        let ingested = scan.ingest_health().ingested().saturating_add(ring.len() as u64);
        if ingested != offered {
            return Err(StateError::Invalid("offered count does not cover the pipeline").into());
        }
        Ok(Supervisor {
            config,
            scan,
            ring,
            offered,
            ticks,
            deadline_misses,
            stalled,
            transitions,
            prev,
            health,
            published: Published::default(),
            journal: Journal::disabled(),
        })
    }

    /// Attach the pipeline to live instrumentation: bind the nested scan
    /// (which publishes its `sflow_*`/`wire_*` counts so far), register
    /// [`SERIES`] in the bundle's registry and publish the supervisor's own.
    /// For a restored supervisor the registry then reads exactly as if the
    /// run had never been interrupted.
    pub fn bind_obs(&mut self, obs: &Obs) {
        self.scan.bind_obs(obs);
        self.published = Published::bind(&obs.registry, SERIES);
        self.published.publish(&self.stats());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    use ixp_obs::MetricValue;
    use ixp_sflow::Datagram;

    fn dg(sub: u32, seq: u32) -> Vec<u8> {
        Datagram {
            agent_address: Ipv4Addr::new(10, 255, 0, 1),
            sub_agent_id: sub,
            sequence: seq,
            uptime_ms: seq.wrapping_mul(40),
            samples: vec![],
            counters: vec![],
        }
        .encode()
    }

    fn supervisor(config: SupervisorConfig) -> Supervisor {
        Supervisor::new(WeekScan::new(Week::REFERENCE, 10), config)
    }

    fn small_config() -> SupervisorConfig {
        SupervisorConfig {
            ring_capacity: 8,
            arrivals_per_tick: 4,
            drain_budget: 8,
            policy: HealthPolicy::default(),
        }
    }

    /// A feed with a gap burst in the middle (drives Degraded → recovery).
    fn lossy_feed() -> Vec<Vec<u8>> {
        let mut seqs: Vec<u32> = (1..=40).collect();
        seqs.retain(|s| !(20..=27).contains(s));
        seqs.iter().map(|&s| dg(0, s)).collect()
    }

    #[test]
    fn clean_run_stays_healthy_with_no_misses_or_sheds() {
        let mut sup = supervisor(small_config());
        let done = sup.run_feed((1..=32u32).map(|s| dg(0, s)), None);
        assert!(done);
        let s = sup.stats();
        assert_eq!(s.offered, 32);
        assert_eq!(s.shed, 0);
        assert_eq!(s.deadline_misses, 0);
        assert_eq!(s.ticks, 8);
        assert_eq!(s.agents, [1, 0, 0, 0]);
        assert_eq!(sup.health_of(u32::from(Ipv4Addr::new(10, 255, 0, 1)), 0),
                   Some(HealthState::Healthy));
        let h = sup.scan().ingest_health();
        assert!(h.fully_accounted());
        assert_eq!(h.collector.accepted, 32);
    }

    #[test]
    fn loss_burst_degrades_then_recovers() {
        let mut sup = supervisor(small_config());
        sup.run_feed(lossy_feed().into_iter(), None);
        let s = sup.stats();
        // Degraded at the burst, Recovering after, Healthy at the end.
        assert!(s.transitions[HealthState::Degraded.index()] >= 1);
        assert!(s.transitions[HealthState::Recovering.index()] >= 1);
        assert_eq!(s.agents, [1, 0, 0, 0], "agent did not return to healthy");
    }

    #[test]
    fn stalled_drain_misses_deadlines_and_sheds_with_exact_accounting() {
        let mut sup = supervisor(small_config());
        sup.set_stalled(true);
        for seq in 1..=32u32 {
            sup.offer(dg(0, seq));
        }
        let s = sup.stats();
        assert_eq!(s.offered, 32);
        assert_eq!(s.shed, 24, "ring holds 8, the rest must shed");
        assert_eq!(s.deadline_misses, s.ticks);
        assert_eq!(s.high_water, 8);
        // Shed datagrams are in the health accounting, not lost silently.
        let h = sup.scan().ingest_health();
        assert_eq!(h.shed, 24);
        assert!(h.fully_accounted());
        // Un-stall and finish: the queued 8 drain, nothing more sheds.
        sup.set_stalled(false);
        sup.finish();
        let h = sup.scan().ingest_health();
        assert_eq!(h.collector.datagrams, 8);
        assert_eq!(h.ingested(), 32);
        assert!(h.fully_accounted());
    }

    #[test]
    fn kill_and_resume_is_byte_identical_at_every_boundary() {
        let feed = lossy_feed;
        let mut reference = supervisor(small_config());
        reference.run_feed(feed().into_iter(), None);
        let reference_ckpt = reference.checkpoint();
        for kill_at in 0..=feed().len() as u64 {
            let mut first = supervisor(small_config());
            let done = first.run_feed(feed().into_iter(), Some(kill_at));
            assert!(!done || kill_at >= feed().len() as u64);
            let mid = first.checkpoint();
            let mut resumed =
                Supervisor::restore(&mid, small_config()).expect("restore");
            assert_eq!(resumed.offered(), kill_at.min(feed().len() as u64));
            resumed.run_feed(feed().into_iter(), None);
            assert_eq!(
                resumed.checkpoint(),
                reference_ckpt,
                "divergence after kill at {kill_at}"
            );
        }
    }

    #[test]
    fn checkpoint_sizes_its_payload_head_exactly() {
        // Baselines and health entries from two sources, then a stalled
        // drain that leaves the ring full.
        let mut sup = supervisor(small_config());
        sup.run_feed((1..=16u32).flat_map(|s| [dg(0, s), dg(1, s)]), None);
        sup.set_stalled(true);
        for seq in 17..=40u32 {
            sup.offer(dg(0, seq));
        }
        assert!(sup.ring.len() == 8 && sup.prev.len() == 2 && sup.health.len() == 2);
        let sealed = sup.checkpoint();
        let payload = envelope::open(&sealed).expect("the checkpoint opens");
        assert_eq!(payload.len(), sup.head_len() + 8 + sup.scan.save_state().len());
    }

    #[test]
    fn checkpoint_corruption_is_rejected_typed_never_panics() {
        let mut sup = supervisor(small_config());
        sup.run_feed(lossy_feed().into_iter(), Some(20));
        let ckpt = sup.checkpoint();
        for cut in 0..ckpt.len() {
            let prefix: Vec<u8> = ckpt.iter().copied().take(cut).collect();
            assert!(Supervisor::restore(&prefix, small_config()).is_err());
        }
        for i in 0..ckpt.len() {
            let mut bad = ckpt.clone();
            if let Some(b) = bad.get_mut(i) {
                *b ^= 0x40;
            }
            assert!(
                Supervisor::restore(&bad, small_config()).is_err(),
                "flip at {i} restored (checksum must catch it)"
            );
        }
    }

    #[test]
    fn restore_rejects_a_smaller_ring_than_the_saved_depth() {
        let mut sup = supervisor(SupervisorConfig {
            ring_capacity: 8,
            arrivals_per_tick: 1000, // no tick: everything stays queued
            ..small_config()
        });
        for seq in 1..=8u32 {
            sup.offer(dg(0, seq));
        }
        let ckpt = sup.checkpoint();
        let tiny = SupervisorConfig { ring_capacity: 2, ..small_config() };
        assert!(Supervisor::restore(&ckpt, tiny).is_err());
    }

    /// Every counter and gauge of the three families the supervised
    /// pipeline publishes, by name.
    fn published(obs: &Obs) -> BTreeMap<String, u64> {
        obs.snapshot()
            .entries
            .into_iter()
            .filter_map(|(name, value)| match value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => Some((name, v)),
                MetricValue::Histogram(_) => None,
            })
            .filter(|(name, _)| {
                ["sflow_", "wire_", "supervisor_"].iter().any(|family| name.starts_with(family))
            })
            .collect()
    }

    /// What `published` must read when the registry is up to date, from
    /// `stats()` and `ingest_health()` alone. `sflow_seq_lost_total` and
    /// `sflow_seq_recovered_total` are checked as their difference (the
    /// report's net `lost`), the eight `wire_*` outcomes with no accessor of
    /// their own through their sum.
    fn assert_registry_equals_stats(obs: &Obs, sup: &Supervisor) {
        let (s, h, scan) = (sup.stats(), sup.scan().ingest_health(), sup.scan());
        let c = h.collector;
        let mut want: BTreeMap<String, u64> = [
            ("sflow_datagrams_total", c.datagrams),
            ("sflow_accepted_total", c.accepted),
            ("sflow_duplicates_total", c.duplicates),
            ("sflow_decode_errors_total{kind=\"truncated\"}", c.decode_errors.truncated),
            ("sflow_decode_errors_total{kind=\"bad_version\"}", c.decode_errors.bad_version),
            (
                "sflow_decode_errors_total{kind=\"unsupported_agent_address\"}",
                c.decode_errors.unsupported_agent,
            ),
            ("sflow_decode_errors_total{kind=\"inconsistent\"}", c.decode_errors.inconsistent),
            ("sflow_unattributed_errors_total", c.unattributed_errors),
            ("sflow_restarts_total", c.restarts),
            ("sflow_sources", c.sources as u64),
            ("sflow_quarantined_sources", c.quarantined_sources as u64),
            ("wire_frames_total", scan.filter.total().samples + h.undissectable_samples),
            ("wire_frame_outcomes_total{outcome=\"too_short\"}", h.undissectable_samples),
            (
                "wire_frame_outcomes_total{outcome=\"ipv6\"}",
                scan.filter.get(ixp_core::Category::Ipv6).samples,
            ),
            ("supervisor_offered_total", s.offered),
            ("supervisor_shed_total", s.shed),
            ("supervisor_ticks_total", s.ticks),
            ("supervisor_deadline_misses_total", s.deadline_misses),
            ("supervisor_ring_depth", s.high_water as u64),
        ]
        .into_iter()
        .map(|(name, v)| (name.to_string(), v))
        .collect();
        for state in HealthState::ALL {
            let (i, label) = (state.index(), state.as_str());
            want.insert(format!("supervisor_agents{{state=\"{label}\"}}"), s.agents[i]);
            want.insert(format!("supervisor_transitions_total{{to=\"{label}\"}}"), s.transitions[i]);
        }
        let got = published(obs);
        for (name, v) in &want {
            assert_eq!(got.get(name), Some(v), "{name}");
        }
        assert_eq!(got["sflow_seq_lost_total"] - got["sflow_seq_recovered_total"], c.lost);
        let outcomes: u64 = got
            .iter()
            .filter(|(name, _)| name.starts_with("wire_frame_outcomes_total"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(outcomes, got["wire_frames_total"]);
        // Nothing published goes unchecked, and every table row is there.
        assert_eq!(got.len(), want.len() + 2 + 8);
        assert_eq!(
            got.len(),
            SERIES.len() + ixp_core::scan::SERIES.len() + ixp_sflow::collector::SERIES.len()
        );
    }

    /// The registry is a published view of the stats: it does not move
    /// between sync points, and at each one it equals them.
    #[test]
    fn registry_moves_only_at_sync_points_and_then_equals_the_stats() {
        let model = ixp_netmodel::InternetModel::tiny(7);
        let members = model.registry.members_at(Week::REFERENCE).len() as u32;
        let mut feed: Vec<Vec<u8>> =
            ixp_traffic::WeekStream::new(&model, ixp_traffic::MixConfig::default(), Week::REFERENCE, 7)
                .take(120)
                .collect();
        // Garbage, a duplicate and a gap, so those series are not all zero.
        feed.insert(10, vec![1, 2, 3]);
        feed.insert(21, feed[20].clone());
        feed.remove(40);
        let mut feed = feed.into_iter();

        let obs = Obs::deterministic();
        let config = SupervisorConfig { arrivals_per_tick: 64, ..SupervisorConfig::default() };
        let mut sup =
            Supervisor::with_obs(WeekScan::with_obs(Week::REFERENCE, members, &obs), config, &obs);
        let bound = published(&obs);
        assert!(bound.values().all(|v| *v == 0));

        // One offer short of the first tick: nothing is published.
        feed.by_ref().take(63).for_each(|dg| sup.offer(dg));
        assert_eq!(published(&obs), bound);
        // The 64th offer ticks: the ring drains into the scan, then a publish.
        feed.by_ref().take(1).for_each(|dg| sup.offer(dg));
        assert_registry_equals_stats(&obs, &sup);
        let at_tick = published(&obs);
        assert!(at_tick["wire_frames_total"] > 0 && at_tick["sflow_duplicates_total"] > 0);

        // Between ticks the stats move and the registry does not.
        feed.by_ref().take(30).for_each(|dg| sup.offer(dg));
        assert_eq!(sup.stats().offered, 94);
        assert_eq!(published(&obs), at_tick);
        // Sealing is a sync point.
        let _ = sup.checkpoint();
        assert_registry_equals_stats(&obs, &sup);
        let sealed = published(&obs);
        assert_eq!(sealed["supervisor_offered_total"], 94);

        // So is the end of the stream; `finish` ingests what is queued.
        feed.for_each(|dg| sup.offer(dg));
        assert_eq!(sup.stats().ticks, 1);
        assert_eq!(published(&obs), sealed);
        sup.finish();
        assert_registry_equals_stats(&obs, &sup);
        assert_eq!(published(&obs)["sflow_datagrams_total"], 121);

        // `WeekScan::ingest` on its own publishes nothing either.
        let obs = Obs::deterministic();
        let mut scan = WeekScan::with_obs(Week::REFERENCE, members, &obs);
        scan.ingest(&dg(0, 1));
        assert!(published(&obs).values().all(|v| *v == 0));
        scan.publish();
        assert_eq!(published(&obs)["sflow_accepted_total"], 1);
    }

    #[test]
    fn bind_obs_replays_supervisor_counters() {
        let obs_a = Obs::deterministic();
        let mut live = Supervisor::with_obs(
            WeekScan::with_obs(Week::REFERENCE, 10, &obs_a),
            small_config(),
            &obs_a,
        );
        live.run_feed(lossy_feed().into_iter(), None);
        let ckpt = live.checkpoint();
        let obs_b = Obs::deterministic();
        let mut restored = Supervisor::restore(&ckpt, small_config()).expect("restore");
        restored.bind_obs(&obs_b);
        assert_eq!(
            ixp_obs::json::render(&obs_a.snapshot()),
            ixp_obs::json::render(&obs_b.snapshot())
        );
    }
}
