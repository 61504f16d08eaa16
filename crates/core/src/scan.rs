//! The single-pass weekly scan: decode sFlow → dissect frames → filtering
//! cascade (paper Fig. 1) → per-IP evidence accumulation.
//!
//! Everything later stages need from the raw stream is collected here in
//! one pass: category traffic totals, per-IP byte/sample counts, endpoint
//! role evidence from HTTP string matching, service-port bitmaps, URI
//! observations, and the member port seen on each IP's side of the fabric.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::net::Ipv4Addr;
use std::sync::Arc;

use ixp_netmodel::{MemberId, Week};
use ixp_obs::{family_sum, Invariant, Obs, Published, Series};
use ixp_sflow::checkpoint::{self, Cur, StateError};
use ixp_sflow::collector::{Collector, CollectorStats, Ingest, SERIES as COLLECTOR_SERIES};
use ixp_sflow::TrafficEstimate;
use ixp_wire::dissect::{Dissection, Network, Transport};
use ixp_wire::{ipv4, EthernetAddress};

use crate::http::{self, HttpEvidence};

/// Filtering-cascade categories (paper Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Native IPv6.
    Ipv6,
    /// Other EtherTypes / malformed layer 3.
    OtherL3,
    /// Not member-to-member, or local housekeeping traffic.
    NonMemberOrLocal,
    /// Member-to-member IPv4 ICMP.
    Icmp,
    /// Member-to-member IPv4, other transport protocols.
    OtherTransport,
    /// Peering traffic, TCP.
    PeeringTcp,
    /// Peering traffic, UDP.
    PeeringUdp,
}

impl Category {
    /// All categories in cascade order.
    pub const ALL: [Category; 7] = [
        Category::Ipv6,
        Category::OtherL3,
        Category::NonMemberOrLocal,
        Category::Icmp,
        Category::OtherTransport,
        Category::PeeringTcp,
        Category::PeeringUdp,
    ];
}

/// Traffic totals per cascade category.
#[derive(Debug, Clone, Default)]
pub struct FilterReport {
    /// Indexed by `Category as usize`, i.e. in [`Category::ALL`] order.
    totals: [TrafficEstimate; Category::ALL.len()],
}

impl FilterReport {
    /// Estimate for one category.
    #[allow(clippy::indexing_slicing, reason = "Category's discriminants are 0..ALL.len(), the length of totals")]
    pub fn get(&self, cat: Category) -> TrafficEstimate {
        self.totals[cat as usize]
    }

    /// Total across all categories.
    pub fn total(&self) -> TrafficEstimate {
        Category::ALL.iter().map(|c| self.get(*c)).sum()
    }

    /// Peering traffic (TCP + UDP).
    pub fn peering(&self) -> TrafficEstimate {
        self.get(Category::PeeringTcp) + self.get(Category::PeeringUdp)
    }

    /// Byte share of a category in percent of the total.
    pub fn share(&self, cat: Category) -> f64 {
        self.get(cat).share_of(&self.total())
    }

    #[allow(clippy::indexing_slicing, reason = "Category's discriminants are 0..ALL.len(), the length of totals")]
    fn add(&mut self, cat: Category, rate: u32, frame_len: u32) {
        self.totals[cat as usize].add_raw(rate, frame_len);
    }
}

/// Per-IP evidence bits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Evidence(pub u16);

impl Evidence {
    /// Payload string matching marked this IP as an HTTP server.
    pub const HTTP_SERVER: u16 = 1 << 0;
    /// The IP appeared as the client side of some flow.
    pub const CLIENT: u16 = 1 << 1;
    /// The IP received TLS-looking traffic on TCP 443 (HTTPS candidate).
    pub const TLS443: u16 = 1 << 2;
    /// Activity seen on TCP port 80 (server side).
    pub const PORT_80: u16 = 1 << 3;
    /// Activity on TCP 8080 (server side).
    pub const PORT_8080: u16 = 1 << 4;
    /// Activity on TCP 443 (server side).
    pub const PORT_443: u16 = 1 << 5;
    /// Activity on TCP 1935 (server side).
    pub const PORT_1935: u16 = 1 << 6;

    /// Check a bit.
    pub fn has(&self, bit: u16) -> bool {
        self.0 & bit != 0
    }

    /// Set a bit.
    pub fn set(&mut self, bit: u16) {
        self.0 |= bit;
    }

    /// Number of distinct well-known service ports seen.
    pub fn service_port_count(&self) -> u32 {
        (self.0 & (Self::PORT_80 | Self::PORT_8080 | Self::PORT_443 | Self::PORT_1935))
            .count_ones()
    }
}

/// Accumulated per-IP statistics. Kept to 24 bytes so that a table entry
/// is 32 and never straddles a cache line: every sample costs two lookups
/// in a table far larger than the cache. The URI authorities seen with this
/// IP as the server are in [`WeekScan::uris`].
#[derive(Debug, Clone, Default)]
pub struct IpStats {
    /// Estimated bytes this IP was an endpoint of (peering traffic only).
    pub bytes: u64,
    /// Samples this IP appeared in.
    pub samples: u32,
    /// The member port on this IP's side of the fabric (last seen).
    pub member: MemberId,
    /// One more than the index of this IP's [`UriList`]; 0 while it has none.
    uri_list: u32,
    /// Role/port evidence.
    pub evidence: Evidence,
}

const MAX_URIS_PER_IP: usize = 8;

/// The interned ids of the URI authorities observed with one IP as the
/// server: distinct, in order of first sight, at most [`MAX_URIS_PER_IP`].
#[derive(Debug, Clone, Copy, Default)]
struct UriList {
    ids: [u32; MAX_URIS_PER_IP],
    len: u8,
}

impl UriList {
    fn as_slice(&self) -> &[u32] {
        self.ids.get(..usize::from(self.len)).unwrap_or(&[])
    }

    /// Append `id` unless it is present or the list is full; `false` if it
    /// was present.
    fn insert(&mut self, id: u32) -> bool {
        if self.as_slice().contains(&id) {
            return false;
        }
        if let Some(slot) = self.ids.get_mut(usize::from(self.len)) {
            *slot = id;
            self.len += 1;
        }
        true
    }
}

/// Hasher state for the per-IP table: one folded 64×64→128-bit multiply of
/// the address by a per-table secret, instead of SipHash-1-3 over four
/// bytes twice per sample. The two secrets are drawn from [`RandomState`]
/// once per table, so a sender cannot precompute addresses that collide;
/// iteration order was unspecified under `RandomState` too, and every
/// consumer of [`WeekScan::ips`] sorts or sums commutatively.
#[derive(Debug, Clone, Copy)]
pub struct IpHashBuilder {
    seed: u64,
    multiplier: u64,
}

impl Default for IpHashBuilder {
    fn default() -> IpHashBuilder {
        let random = RandomState::new();
        IpHashBuilder { seed: random.hash_one(0u8), multiplier: random.hash_one(1u8) | 1 }
    }
}

impl BuildHasher for IpHashBuilder {
    type Hasher = IpHasher;

    fn build_hasher(&self) -> IpHasher {
        IpHasher { state: self.seed, multiplier: self.multiplier }
    }
}

/// See [`IpHashBuilder`].
#[derive(Debug, Clone, Copy)]
pub struct IpHasher {
    state: u64,
    multiplier: u64,
}

impl IpHasher {
    fn mix(&mut self, word: u64) {
        let product = u128::from(self.state ^ word) * u128::from(self.multiplier);
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for IpHasher {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.mix(u64::from(*b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// The per-IP table: raw IPv4 address → accumulated statistics.
pub type IpTable = HashMap<u32, IpStats, IpHashBuilder>;

/// A tiny string interner for URI authorities.
#[derive(Debug, Default)]
pub struct DomainTable {
    /// Each name is allocated once and shared with `names`.
    by_name: HashMap<Arc<str>, u32>,
    names: Vec<Arc<str>>,
}

impl DomainTable {
    /// Intern a domain, returning its id.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(id) = self.by_name.get(name) {
            return *id;
        }
        let id = self.names.len() as u32;
        let name: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&name));
        self.by_name.insert(name, id);
        id
    }

    /// Resolve an id.
    #[allow(clippy::indexing_slicing, reason = "ids come from intern(), and restore_state rejects a uri id >= domain_count")]
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Number of distinct domains observed.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no domains were observed.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate over all interned names.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(|name| &**name)
    }
}

/// Ingest-stream health for one week: the collector's sequence accounting
/// plus the scan's own sample-level dissection counter. This is what the
/// `IngestHealth` section of the weekly report renders, and what the
/// `repro --exp faults` sweep checks its accounting invariant against.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IngestHealth {
    /// Datagram-level accounting from the fault-tolerant collector.
    pub collector: CollectorStats,
    /// Samples inside accepted datagrams that could not be dissected.
    pub undissectable_samples: u64,
    /// Datagrams shed by the bounded intake queue under overload, before
    /// they reached the collector. Counted here so backpressure degrades
    /// the accounting visibly, never silently.
    pub shed: u64,
}

impl IngestHealth {
    /// Estimated datagram loss in percent of the expected stream.
    pub fn loss_pct(&self) -> f64 {
        100.0 * self.collector.loss_rate()
    }

    /// Multiplier that scales received-traffic estimates to the expected
    /// full stream.
    pub fn compensation_factor(&self) -> f64 {
        self.collector.compensation_factor()
    }

    /// The collector's no-silent-discard invariant, the `sflow-ledger` row
    /// of [`LEDGER`](ixp_obs::LEDGER) over its [`SERIES`](COLLECTOR_SERIES):
    /// every datagram it saw is accepted, a suppressed duplicate, or a
    /// counted decode error. The shed datagrams never reached it; that they
    /// are counted is `Supervisor::fully_accounted`'s `supervisor-offered`.
    pub fn fully_accounted(&self) -> bool {
        let read = |family: &str| family_sum(COLLECTOR_SERIES, &self.collector, family);
        Invariant::SflowLedger.identity().balance(read, 0).is_ok()
    }

    /// A traffic estimate scaled up by the loss-compensation factor, so
    /// degraded feeds still estimate the full stream.
    pub fn compensated(&self, estimate: &TrafficEstimate) -> TrafficEstimate {
        estimate.scaled(self.compensation_factor())
    }
}

/// Frame-dissection outcomes by the taxonomy of [`Network`] and
/// [`Transport`] — the breakdown behind the paper's Table 1 cascade. The
/// tally is checkpointed, and it is what the `wire_*` families publish
/// ([`SERIES`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DissectTally {
    frames: u64,
    ipv4_tcp: u64,
    ipv4_udp: u64,
    ipv4_icmp: u64,
    ipv4_other: u64,
    ipv4_truncated: u64,
    ipv6: u64,
    arp: u64,
    other_ethertype: u64,
    malformed_ipv4: u64,
    too_short: u64,
}

impl DissectTally {
    /// How many counters the tally has: the length of
    /// [`DissectTally::fields`], and so of the tally in the state format.
    const FIELDS: usize = 11;

    /// Count one dissection outcome.
    fn record(&mut self, outcome: &ixp_wire::Result<Dissection<'_>>) {
        self.frames += 1;
        let d = match outcome {
            Ok(d) => d,
            Err(_) => {
                self.too_short += 1;
                return;
            }
        };
        match &d.network {
            Network::Ipv4 { transport, .. } => match transport {
                Transport::Tcp { .. } => self.ipv4_tcp += 1,
                Transport::Udp { .. } => self.ipv4_udp += 1,
                Transport::Icmp => self.ipv4_icmp += 1,
                Transport::Other(_) => self.ipv4_other += 1,
                Transport::Truncated(_) => self.ipv4_truncated += 1,
            },
            Network::Ipv6 => self.ipv6 += 1,
            Network::Arp => self.arp += 1,
            Network::OtherEtherType(_) => self.other_ethertype += 1,
            Network::MalformedIpv4(_) => self.malformed_ipv4 += 1,
        }
    }

    /// Fields in serialization order.
    fn fields(&self) -> [u64; Self::FIELDS] {
        [
            self.frames,
            self.ipv4_tcp,
            self.ipv4_udp,
            self.ipv4_icmp,
            self.ipv4_other,
            self.ipv4_truncated,
            self.ipv6,
            self.arp,
            self.other_ethertype,
            self.malformed_ipv4,
            self.too_short,
        ]
    }

    /// Inverse of [`DissectTally::fields`]: rebuild from the same order.
    fn from_fields(f: [u64; Self::FIELDS]) -> DissectTally {
        let [frames, ipv4_tcp, ipv4_udp, ipv4_icmp, ipv4_other, ipv4_truncated, ipv6, arp, other_ethertype, malformed_ipv4, too_short] =
            f;
        DissectTally {
            frames,
            ipv4_tcp,
            ipv4_udp,
            ipv4_icmp,
            ipv4_other,
            ipv4_truncated,
            ipv6,
            arp,
            other_ethertype,
            malformed_ipv4,
            too_short,
        }
    }
}

/// The `wire_*` families: every frame handed to the dissector, and one
/// series per outcome.
pub const SERIES: &[Series<WeekScan>] = &[
    Series::counter("wire_frames_total", |s| s.tally.frames),
    Series::counter("wire_frame_outcomes_total{outcome=\"ipv4_tcp\"}", |s| s.tally.ipv4_tcp),
    Series::counter("wire_frame_outcomes_total{outcome=\"ipv4_udp\"}", |s| s.tally.ipv4_udp),
    Series::counter("wire_frame_outcomes_total{outcome=\"ipv4_icmp\"}", |s| s.tally.ipv4_icmp),
    Series::counter("wire_frame_outcomes_total{outcome=\"ipv4_other\"}", |s| s.tally.ipv4_other),
    Series::counter("wire_frame_outcomes_total{outcome=\"ipv4_truncated\"}", |s| {
        s.tally.ipv4_truncated
    }),
    Series::counter("wire_frame_outcomes_total{outcome=\"ipv6\"}", |s| s.tally.ipv6),
    Series::counter("wire_frame_outcomes_total{outcome=\"arp\"}", |s| s.tally.arp),
    Series::counter("wire_frame_outcomes_total{outcome=\"other_ethertype\"}", |s| {
        s.tally.other_ethertype
    }),
    Series::counter("wire_frame_outcomes_total{outcome=\"malformed_ipv4\"}", |s| {
        s.tally.malformed_ipv4
    }),
    Series::counter("wire_frame_outcomes_total{outcome=\"too_short\"}", |s| s.tally.too_short),
];

/// A member-to-member IPv4 TCP or UDP frame — everything the per-IP
/// evidence needs, and what only [`WeekScan::categorize`] can construct.
struct Peering<'a> {
    repr: ipv4::Repr,
    transport: Transport,
    payload: &'a [u8],
    src_member: MemberId,
    dst_member: MemberId,
}

/// What one peering sample adds to the per-IP table, worked out before the
/// table is touched (see [`WeekScan::ingest`]).
#[derive(Clone, Copy, Default)]
struct Update<'a> {
    src: u32,
    dst: u32,
    /// Estimated bytes the sample stands for.
    bytes: u64,
    src_member: MemberId,
    dst_member: MemberId,
    src_evidence: Evidence,
    dst_evidence: Evidence,
    /// URI authority requested of `dst`.
    host: Option<&'a str>,
}

/// Updates [`WeekScan::ingest`] holds back before applying them: more than
/// the seven or so flow samples that fit a 1 500-byte export datagram.
const APPLY_BATCH: usize = 16;

/// Serialization format version of [`WeekScan`] state.
pub const WEEKSCAN_STATE_VERSION: u32 = 1;

/// Size of one per-IP row of the state format before its URI ids: the u32
/// key, u64 bytes, u32 samples, u16 evidence, u32 member and the id count
/// byte. Each id adds four.
const IP_ROW_LEN: usize = 23;

/// From this many addresses on, [`WeekScan::save_state`] sorts and writes
/// the per-IP rows in two address ranges, the upper on a second core;
/// below it, in one range on the caller. Measured on a two-core Xeon, the
/// split halved the sort-and-write of `paper(400)`'s 349 K addresses
/// (17.4 → 8.6 ms), but bought a `small` table (65 K) 5 % of its checkpoint
/// and cost its report 3–7 %: the report walks the table next, and the
/// helper had left half of it in the other core's cache. Restore has no
/// such split: its helper only parses, and the caller inserts.
const SPLIT_AT_IPS: usize = 1 << 17;

/// Rows the restore helper parses into one buffer before it hands the
/// buffer to the inserting caller: 128 KiB of parsed rows, few enough
/// hand-overs that the channel costs nothing beside 4 096 inserts.
const RESTORE_CHUNK: usize = 4_096;

/// Buffers the restore helper and the caller pass between them: one being
/// filled, one waiting in the channel, one being inserted. With
/// [`RESTORE_CHUNK`] this caps the helper's memory at 384 KiB, whatever
/// row count the state claims.
const RESTORE_BUFFERS: usize = 3;

/// Address bits one pass of [`sort_by_address`] sorts by, and the passes
/// that cover an address: 11 + 11 + 10. A table of 2 048 counters stays in
/// the first-level cache while its pass scatters; the 65 536 of a two-pass
/// sort would not.
const RADIX_BITS: u32 = 11;
const RADIX: usize = 1 << RADIX_BITS;
const RADIX_PASSES: usize = 3;

/// Values of the top digit, the 10 bits the last pass sorts by. Address
/// ranges of the table start at a top digit.
const TOP_DIGITS: usize = 1 << (32 - RADIX_BITS as usize * (RADIX_PASSES - 1));

/// The digit of `ip` that pass `pass` sorts by, lowest first.
fn radix_digit(ip: u32, pass: usize) -> usize {
    (ip >> (RADIX_BITS as usize * pass)) as usize & (RADIX - 1)
}

/// The top digit of `ip`, below [`TOP_DIGITS`].
fn top_digit(ip: u32) -> usize {
    radix_digit(ip, RADIX_PASSES - 1)
}

/// An address of the per-IP table and its entry.
type Pair<'a> = (u32, &'a IpStats);

/// The per-IP table dealt into address ranges by
/// [`WeekScan::address_ranges`]: every address of a range is below every
/// address of the next.
struct AddressRanges<'a> {
    /// The pairs, range after range, each range in table order.
    dealt: Vec<Pair<'a>>,
    /// A second buffer as long, to sort into.
    scratch: Vec<Pair<'a>>,
    /// Per range, lowest first: how many pairs, and the exact size of their
    /// rows in the state format.
    ranges: Vec<(usize, usize)>,
}

impl<'a> AddressRanges<'a> {
    /// The exact size of every row in the state format.
    fn bytes(&self) -> usize {
        self.ranges.iter().map(|(_, bytes)| bytes).sum()
    }

    /// Sort each range by address and hand it to `visit` with the sink of
    /// the same index: the lowest on the caller, each other on a scoped
    /// thread of its own, which leaves that range's rows in its core's
    /// cache while it writes them. A panic on a thread is resumed here.
    fn sorted_each<S: Send>(self, sinks: &mut [S], visit: impl Fn(&[Pair<'a>], &mut S) + Sync) {
        let AddressRanges { mut dealt, mut scratch, ranges } = self;
        let (mut rest, mut rest_scratch) = (&mut dealt[..], &mut scratch[..]);
        let mut jobs = Vec::with_capacity(ranges.len());
        for ((len, _), sink) in ranges.iter().zip(sinks) {
            let at = (*len).min(rest.len()).min(rest_scratch.len());
            let (pairs, tail) = std::mem::take(&mut rest).split_at_mut(at);
            let (scratch, scratch_tail) = std::mem::take(&mut rest_scratch).split_at_mut(at);
            (rest, rest_scratch) = (tail, scratch_tail);
            jobs.push((pairs, scratch, sink));
        }
        let run =
            |(pairs, scratch, sink): (_, _, &mut S)| visit(sort_by_address(pairs, scratch), sink);
        let mut jobs = jobs.into_iter();
        let first = jobs.next();
        std::thread::scope(|scope| {
            let helpers: Vec<_> = jobs.map(|job| scope.spawn(|| run(job))).collect();
            if let Some(job) = first {
                run(job);
            }
            for helper in helpers {
                helper.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            }
        });
    }
}

/// Sort `pairs` by address, dealing into `scratch` (as long) and back; the
/// sorted pairs are in whichever of the two the last pass dealt into. A
/// stable counting sort, lowest digit first: one walk counts every digit,
/// then each pass [`deal`]s the pairs by its digit. That is three
/// sequential reads and three scatters over 2 048 open cache lines where a
/// comparison sort makes some eighteen data-dependent passes.
fn sort_by_address<'s, 'a>(
    mut pairs: &'s mut [Pair<'a>],
    mut scratch: &'s mut [Pair<'a>],
) -> &'s [Pair<'a>] {
    let mut counts = [[0usize; RADIX]; RADIX_PASSES];
    for (ip, _) in pairs.iter() {
        for (pass, counts) in counts.iter_mut().enumerate() {
            if let Some(n) = counts.get_mut(radix_digit(*ip, pass)) {
                *n += 1;
            }
        }
    }
    for (pass, counts) in counts.iter_mut().enumerate() {
        deal(pairs, scratch, counts, |ip| radix_digit(ip, pass));
        std::mem::swap(&mut pairs, &mut scratch);
    }
    pairs
}

/// Deal `from` into `into` (as long) by the key of each address, stably:
/// `counts` holds how many pairs have each key, turns into where the first
/// of each goes, and the pairs go there in the order they are found — which
/// is what makes successive deals compose into a sort.
fn deal<'a>(
    from: &[Pair<'a>],
    into: &mut [Pair<'a>],
    counts: &mut [usize],
    key: impl Fn(u32) -> usize,
) {
    let mut next = 0;
    for n in counts.iter_mut() {
        next += std::mem::replace(n, next);
    }
    for pair in from {
        let Some(next) = counts.get_mut(key(pair.0)) else { continue };
        if let Some(slot) = into.get_mut(*next) {
            *slot = *pair;
        }
        *next += 1;
    }
}

/// The result of scanning one week of sFlow.
#[derive(Debug)]
pub struct WeekScan {
    /// The week scanned.
    pub week: Week,
    /// Cascade totals.
    pub filter: FilterReport,
    /// Per-IP statistics (peering traffic endpoints only).
    pub ips: IpTable,
    /// Interned URI authorities.
    pub domains: DomainTable,
    /// Per-server URI lists, by `IpStats::uri_list`.
    uri_lists: Vec<UriList>,
    /// Samples that could not be dissected at all.
    pub undissectable: u64,
    /// The fault-tolerant collector front-end: sequence accounting,
    /// duplicate suppression, restart detection, per-kind decode errors.
    collector: Collector,
    /// Frame-dissection outcome counts.
    tally: DissectTally,
    /// [`SERIES`] bound to a registry (unbound until [`WeekScan::bind_obs`]).
    published: Published<WeekScan>,
    /// Datagrams shed by the bounded intake queue before reaching the
    /// collector (reported via [`WeekScan::record_shed`]).
    shed: u64,
    /// Number of member ports active this week (MACs above this id are not
    /// members yet and their frames are classified as non-member traffic).
    member_count: u32,
}

impl WeekScan {
    /// Create an empty scan for a week observed by `member_count` member
    /// ports.
    pub fn new(week: Week, member_count: u32) -> WeekScan {
        WeekScan {
            week,
            filter: FilterReport::default(),
            ips: IpTable::default(),
            domains: DomainTable::default(),
            uri_lists: Vec::new(),
            undissectable: 0,
            collector: Collector::new(),
            tally: DissectTally::default(),
            published: Published::default(),
            shed: 0,
            member_count,
        }
    }

    /// [`WeekScan::new`] + [`WeekScan::bind_obs`].
    pub fn with_obs(week: Week, member_count: u32, obs: &Obs) -> WeekScan {
        let mut scan = WeekScan::new(week, member_count);
        scan.bind_obs(obs);
        scan
    }

    /// Bring the bound registry's `sflow_*` and `wire_*` series up to this
    /// scan's counts. Ingest does not: the registry is as fresh as the last
    /// call (the owner's sync points, `save_state`, `bind_obs`).
    pub fn publish(&self) {
        self.collector.publish();
        self.published.publish(self);
    }

    /// Feed one encoded sFlow datagram through the fault-tolerant
    /// collector: duplicates are suppressed, sequence gaps are accounted as
    /// loss, and decode failures are counted by kind — never silently
    /// dropped.
    #[allow(clippy::indexing_slicing, reason = "n < APPLY_BATCH at pending[n], since it is reset on reaching it, so n <= APPLY_BATCH at pending[..n]")]
    pub fn ingest(&mut self, datagram_bytes: &[u8]) {
        let dg = match self.collector.ingest_view(datagram_bytes) {
            Ingest::Accepted(dg) => dg,
            // Both outcomes are already counted in the collector's stats;
            // nothing vanishes.
            Ingest::Duplicate | Ingest::Rejected(_) => return,
        };
        // Evaluate first, then apply back to back: the table lookups of a
        // batch are independent of each other, so their cache misses overlap
        // instead of each one stalling the dissection of the next sample.
        let mut pending = [Update::default(); APPLY_BATCH];
        let mut n = 0;
        for sample in dg.flow_samples() {
            let record = sample.record;
            let Some(update) =
                self.evaluate_sample(sample.sampling_rate, record.frame_length, record.header)
            else {
                continue;
            };
            pending[n] = update;
            n += 1;
            if n == APPLY_BATCH {
                pending.iter().for_each(|update| self.apply(update));
                n = 0;
            }
        }
        pending[..n].iter().for_each(|update| self.apply(update));
    }

    /// Feed one raw sample (rate, claimed wire length, snippet).
    pub fn ingest_sample(&mut self, rate: u32, frame_len: u32, snippet: &[u8]) {
        if let Some(update) = self.evaluate_sample(rate, frame_len, snippet) {
            self.apply(&update);
        }
    }

    /// Dissect one sample, count it in the cascade and match its payload:
    /// everything but the per-IP table, which only peering samples reach.
    fn evaluate_sample<'a>(
        &mut self,
        rate: u32,
        frame_len: u32,
        snippet: &'a [u8],
    ) -> Option<Update<'a>> {
        let parsed = Dissection::parse(snippet);
        self.tally.record(&parsed);
        let d = match parsed {
            Ok(d) => d,
            Err(_) => {
                self.undissectable += 1;
                return None;
            }
        };
        let (category, peering) = self.categorize(&d);
        self.filter.add(category, rate, frame_len);
        let Peering { repr, transport, payload, src_member, dst_member } = peering?;
        let src = u32::from(repr.src_addr);
        let dst = u32::from(repr.dst_addr);

        // Role evidence: the server side of a classified flow gets
        // `HTTP_SERVER` and its port bit, the other side `CLIENT`.
        let mut src_evidence = Evidence::default();
        let mut dst_evidence = Evidence::default();
        let mut host = None;
        if let Transport::Tcp { src_port, dst_port, .. } = transport {
            match http::classify(payload) {
                HttpEvidence::Request { host: h } | HttpEvidence::RequestHeaders { host: h } => {
                    dst_evidence.set(Evidence::HTTP_SERVER);
                    set_port_bit(&mut dst_evidence, dst_port);
                    src_evidence.set(Evidence::CLIENT);
                    host = h;
                }
                HttpEvidence::Response | HttpEvidence::ResponseHeaders => {
                    src_evidence.set(Evidence::HTTP_SERVER);
                    set_port_bit(&mut src_evidence, src_port);
                    dst_evidence.set(Evidence::CLIENT);
                }
                HttpEvidence::None => {}
            }
            // HTTPS candidates: TLS-shaped bytes towards port 443.
            if dst_port == 443 && matches!(payload.first(), Some(0x16) | Some(0x17)) {
                dst_evidence.set(Evidence::TLS443);
                dst_evidence.set(Evidence::PORT_443);
            }
            // RTMP activity (port-level evidence; no string matching).
            if dst_port == 1935 && !payload.is_empty() {
                dst_evidence.set(Evidence::PORT_1935);
            }
        }
        Some(Update {
            src,
            dst,
            bytes: u64::from(rate) * u64::from(frame_len),
            src_member,
            dst_member,
            src_evidence,
            dst_evidence,
            host,
        })
    }

    /// Add one peering sample's evidence to both of its endpoints.
    fn apply(&mut self, update: &Update<'_>) {
        let src = self.ips.entry(update.src).or_default();
        src.bytes += update.bytes;
        src.samples += 1;
        src.member = update.src_member;
        src.evidence.0 |= update.src_evidence.0;

        let dst = self.ips.entry(update.dst).or_default();
        dst.bytes += update.bytes;
        dst.samples += 1;
        dst.member = update.dst_member;
        dst.evidence.0 |= update.dst_evidence.0;
        if let Some(host) = update.host {
            let id = self.domains.intern(host);
            insert_uri(&mut self.uri_lists, dst, id);
        }
    }

    /// Place a frame in the cascade. The two peering categories come with
    /// the [`Peering`] view that proves them.
    fn categorize<'a>(&self, d: &Dissection<'a>) -> (Category, Option<Peering<'a>>) {
        let (repr, transport, payload) = match &d.network {
            Network::Ipv6 => return (Category::Ipv6, None),
            Network::Arp | Network::OtherEtherType(_) | Network::MalformedIpv4(_) => {
                return (Category::OtherL3, None)
            }
            Network::Ipv4 { repr, transport, payload } => (*repr, *transport, *payload),
        };
        let src_m = member_of(d.src_mac).filter(|m| m.0 < self.member_count);
        let dst_m = member_of(d.dst_mac).filter(|m| m.0 < self.member_count);
        let (src_member, dst_member) = match (src_m, dst_m) {
            (Some(a), Some(b)) if a != b => (a, b),
            _ => return (Category::NonMemberOrLocal, None),
        };
        let category = match transport {
            Transport::Icmp => return (Category::Icmp, None),
            Transport::Other(_) | Transport::Truncated(_) => {
                return (Category::OtherTransport, None)
            }
            Transport::Tcp { .. } => Category::PeeringTcp,
            Transport::Udp { .. } => Category::PeeringUdp,
        };
        (category, Some(Peering { repr, transport, payload, src_member, dst_member }))
    }

    /// Unique peering IPs seen.
    pub fn unique_ips(&self) -> usize {
        self.ips.len()
    }

    /// Stats for one IP.
    pub fn stats(&self, ip: Ipv4Addr) -> Option<&IpStats> {
        self.ips.get(&u32::from(ip))
    }

    /// Interned ids of the URI authorities observed when the IP that `stats`
    /// (an entry of this scan) belongs to acted as the server (bounded).
    pub fn uris(&self, stats: &IpStats) -> &[u32] {
        let list = (stats.uri_list as usize).checked_sub(1).and_then(|i| self.uri_lists.get(i));
        list.map_or(&[], UriList::as_slice)
    }

    /// The collector front-end, for sequence/counter introspection.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Count datagrams the bounded intake queue shed before they reached
    /// this scan's collector, for the report's ingest health. The queue's
    /// own shed count is what its ledger row (`supervisor-offered`) reads.
    pub fn record_shed(&mut self, n: u64) {
        self.shed = self.shed.saturating_add(n);
    }

    /// Datagrams shed by the intake queue so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Ingest-stream health: collector accounting plus the sample-level
    /// dissection counter and the intake queue's shed count.
    pub fn ingest_health(&self) -> IngestHealth {
        IngestHealth {
            collector: self.collector.stats(),
            undissectable_samples: self.undissectable,
            shed: self.shed,
        }
    }

    /// A traffic estimate scaled up by the collector's loss-compensation
    /// factor, so degraded feeds still estimate the full stream.
    pub fn compensated(&self, estimate: &TrafficEstimate) -> TrafficEstimate {
        self.collector.compensate(estimate)
    }

    /// Serialize the full scan state — cascade totals, per-IP evidence,
    /// interned domains, dissection tally, shed count, and the nested
    /// collector state — into a versioned, deterministic byte blob.
    /// Deterministic: hash maps are written in sorted key order, so equal
    /// states yield equal bytes. Sealing is a sync point: the registry is
    /// published up to the state being written.
    pub fn save_state(&self) -> Vec<u8> {
        self.save_state_in(self.save_parts())
    }

    /// How many address ranges [`WeekScan::save_state`] sorts and writes
    /// the per-IP table in: two from [`SPLIT_AT_IPS`] addresses on, else one.
    fn save_parts(&self) -> usize {
        if self.ips.len() < SPLIT_AT_IPS {
            1
        } else {
            2
        }
    }

    /// [`WeekScan::save_state`] with the per-IP rows sorted and written in
    /// `parts` address ranges. The lowest range writes into the state
    /// buffer, each other one into a run of its own that is appended after
    /// it; the buffer is allocated once, at its exact length.
    fn save_state_in(&self, parts: usize) -> Vec<u8> {
        self.publish();
        let ranges = self.address_ranges(parts);
        let collector = self.collector.save_state();
        let names: usize = self.domains.names.iter().map(|n| 8 + n.len()).sum();
        let len = 25 + 24 * Category::ALL.len() + 8 + names + 8 + ranges.bytes()
            + 8 * self.tally.fields().len()
            + collector.len();
        let mut out = Vec::with_capacity(len);
        checkpoint::put_u32(&mut out, WEEKSCAN_STATE_VERSION);
        checkpoint::put_u8(&mut out, self.week.0);
        checkpoint::put_u32(&mut out, self.member_count);
        checkpoint::put_u64(&mut out, self.shed);
        checkpoint::put_u64(&mut out, self.undissectable);
        for cat in Category::ALL {
            let e = self.filter.get(cat);
            checkpoint::put_u64(&mut out, e.samples);
            checkpoint::put_u64(&mut out, e.frames);
            checkpoint::put_u64(&mut out, e.bytes);
        }
        checkpoint::put_u64(&mut out, self.domains.names.len() as u64);
        for name in &self.domains.names {
            checkpoint::put_str(&mut out, name);
        }
        checkpoint::put_u64(&mut out, self.ips.len() as u64);
        let mut runs: Vec<Vec<u8>> =
            ranges.ranges.iter().skip(1).map(|(_, bytes)| Vec::with_capacity(*bytes)).collect();
        let mut sinks: Vec<&mut Vec<u8>> = std::iter::once(&mut out).chain(&mut runs).collect();
        ranges.sorted_each(&mut sinks, |rows, out| self.put_rows(rows, out));
        for run in &runs {
            out.extend_from_slice(run);
        }
        for f in self.tally.fields() {
            checkpoint::put_u64(&mut out, f);
        }
        out.extend_from_slice(&collector);
        out
    }

    /// Append the state-format row of each of `rows`, entries of this scan.
    fn put_rows(&self, rows: &[Pair<'_>], out: &mut Vec<u8>) {
        for (ip, s) in rows {
            let uris = self.uris(s);
            checkpoint::put_u32(out, *ip);
            checkpoint::put_u64(out, s.bytes);
            checkpoint::put_u32(out, s.samples);
            checkpoint::put_u16(out, s.evidence.0);
            checkpoint::put_u32(out, s.member.0);
            checkpoint::put_u8(out, uris.len().min(MAX_URIS_PER_IP) as u8);
            for id in uris.iter().take(MAX_URIS_PER_IP) {
                checkpoint::put_u32(out, *id);
            }
        }
    }

    /// The per-IP table dealt into `parts` address ranges (at least one)
    /// for [`AddressRanges::sorted_each`]. One walk of the table collects
    /// the `(address, entry)` pairs and, per top digit, counts them and sums
    /// the size of their rows. Range `k` starts at the first top digit with
    /// at least `k / parts` of the pairs below it, and one [`deal`] by range
    /// puts the ranges one after the other. The buffer the pairs were
    /// collected in is the one the ranges are sorted into.
    fn address_ranges(&self, parts: usize) -> AddressRanges<'_> {
        let parts = parts.max(1);
        let mut pairs = Vec::with_capacity(self.ips.len());
        let mut tops = [(0usize, 0usize); TOP_DIGITS];
        for (ip, stats) in &self.ips {
            pairs.push((*ip, stats));
            if let Some((n, bytes)) = tops.get_mut(top_digit(*ip)) {
                *n += 1;
                *bytes += IP_ROW_LEN + 4 * self.uris(stats).len();
            }
        }
        let mut ranges = vec![(0, 0); parts];
        let mut range_of = [0usize; TOP_DIGITS];
        let mut below = 0;
        for ((n, bytes), range) in tops.iter().zip(&mut range_of) {
            *range = (1..parts).take_while(|k| below * parts >= k * pairs.len()).count();
            if let Some((len, size)) = ranges.get_mut(*range) {
                *len += n;
                *size += bytes;
            }
            below += n;
        }
        let mut dealt = pairs.clone();
        // One range is dealt already.
        if parts > 1 {
            let mut lens: Vec<usize> = ranges.iter().map(|(len, _)| *len).collect();
            deal(&pairs, &mut dealt, &mut lens, |ip| {
                range_of.get(top_digit(ip)).map_or(usize::MAX, |range| *range)
            });
        }
        AddressRanges { dealt, scratch: pairs, ranges }
    }

    /// Restore a scan from [`WeekScan::save_state`] bytes. The blob is
    /// validated as hostile input: typed errors (never panics) on
    /// truncation, version skew, unsorted or duplicate keys, out-of-range
    /// domain references, or collector accounting that does not balance.
    /// The per-IP table is reserved from the row count, then a second core
    /// parses and validates the rows while the caller inserts them
    /// ([`read_rows_beside`]); the first bad row is the error. The restored
    /// scan is unbound and on the frozen test clock; use
    /// [`WeekScan::bind_obs`] to re-attach instrumentation.
    pub fn restore_state(bytes: &[u8]) -> Result<WeekScan, StateError> {
        WeekScan::restore_state_in(bytes, read_rows_beside)
    }

    /// [`WeekScan::restore_state`] with the per-IP rows read by
    /// `read_rows(table, cursor, row count, domain count)`, which returns
    /// the cursor after the rows and their URI lists. The tests hold
    /// [`read_rows_beside`] to a loop on one thread through it.
    fn restore_state_in<'a>(
        bytes: &'a [u8],
        read_rows: impl FnOnce(&mut IpTable, Cur<'a>, usize, u32) -> RowsRead<'a>,
    ) -> Result<WeekScan, StateError> {
        let mut cur = Cur::new(bytes);
        let version = cur.u32()?;
        if version != WEEKSCAN_STATE_VERSION {
            return Err(StateError::BadVersion(version));
        }
        let week = Week(cur.u8()?);
        let member_count = cur.u32()?;
        let mut scan = WeekScan::new(week, member_count);
        scan.shed = cur.u64()?;
        scan.undissectable = cur.u64()?;
        for total in &mut scan.filter.totals {
            *total =
                TrafficEstimate { samples: cur.u64()?, frames: cur.u64()?, bytes: cur.u64()? };
        }
        let n_domains = cur.count(8)?;
        for id in 0..n_domains {
            let name = cur.str()?;
            if scan.domains.intern(name) != id as u32 {
                return Err(StateError::Invalid("duplicate domain in intern table"));
            }
        }
        let domain_count = scan.domains.len() as u32;
        let n_ips = cur.count(IP_ROW_LEN)?;
        scan.ips.reserve(n_ips);
        (cur, scan.uri_lists) = read_rows(&mut scan.ips, cur, n_ips, domain_count)?;
        // Mirror of the save-side `for f in self.tally.fields()` loop, so
        // the encode/decode field walks stay symmetric.
        let mut tally_fields = [0u64; DissectTally::FIELDS];
        for f in &mut tally_fields {
            *f = cur.u64()?;
        }
        scan.tally = DissectTally::from_fields(tally_fields);
        scan.collector = Collector::restore_from(&mut cur)?;
        cur.finish()?;
        Ok(scan)
    }

    /// Attach the scan to live instrumentation: bind the nested collector,
    /// register [`SERIES`] in the bundle's registry and publish the counts
    /// so far. For a restored scan the registry then reads exactly as if it
    /// had run uninterrupted under it.
    pub fn bind_obs(&mut self, obs: &Obs) {
        self.collector.bind_obs(obs);
        self.published = Published::bind(&obs.registry, SERIES);
        self.published.publish(self);
    }

    /// Attach an event journal to the collector front-end so source
    /// restarts and quarantines become flight-recorder events (see
    /// `Collector::bind_journal`). Journal state is live-run evidence and
    /// is never checkpointed or replayed.
    pub fn bind_journal(&mut self, journal: ixp_obs::journal::Journal) {
        self.collector.bind_journal(journal);
    }
}

/// Read one per-IP row of the state format at `at`: an address above
/// `prev`, the entry's fields and at most [`MAX_URIS_PER_IP`] distinct URI
/// ids below `domain_count`, which go into a list of `lists`. The one
/// parser of a row. It is inlined, and it reads through a copy of the
/// cursor that it writes back once the row is whole: as a call, or reading
/// through `at`, it left the position in memory between fields, and a
/// `small` restore that parsed and inserted on one thread took 15–25 %
/// longer than with the fields read in the loop itself.
#[inline(always)]
fn read_row(
    at: &mut Cur<'_>,
    domain_count: u32,
    prev: Option<u32>,
    lists: &mut Vec<UriList>,
) -> Result<(u32, IpStats), StateError> {
    let mut cur = *at;
    let ip = cur.u32()?;
    if prev.is_some_and(|p| p >= ip) {
        return Err(StateError::Invalid("ip keys not strictly increasing"));
    }
    let mut s = IpStats {
        bytes: cur.u64()?,
        samples: cur.u32()?,
        evidence: Evidence(cur.u16()?),
        member: MemberId(cur.u32()?),
        uri_list: 0,
    };
    let n_uris = usize::from(cur.u8()?);
    if n_uris > MAX_URIS_PER_IP {
        return Err(StateError::Invalid("uri list exceeds the per-ip bound"));
    }
    for _ in 0..n_uris {
        let id = cur.u32()?;
        if id >= domain_count {
            return Err(StateError::Invalid("uri id out of domain-table range"));
        }
        if !insert_uri(lists, &mut s, id) {
            return Err(StateError::Invalid("duplicate uri id for one ip"));
        }
    }
    *at = cur;
    Ok((ip, s))
}

/// What reading the per-IP rows returns: the cursor after them and the URI
/// lists they refer to, or the error of the first bad row.
type RowsRead<'a> = Result<(Cur<'a>, Vec<UriList>), StateError>;

/// Read the `n_ips` per-IP rows at `cur` into `ips`, reserved for them, on
/// two cores. A scoped helper parses and validates the rows with
/// [`read_row`], [`RESTORE_CHUNK`] to a buffer, and hands each full buffer
/// over a bounded channel; this thread only inserts, and sends the emptied
/// buffer back over a second one. Inserts miss the cache; with no parse
/// between them, the misses of successive inserts overlap. A buffer holds
/// at most the rows the bytes hold, so a short state buys short buffers.
/// Returns the cursor after the rows and the URI lists the helper built,
/// or the error of the first bad row, where the helper stops. A panic on
/// the helper is resumed here. The ends of both channels this thread holds
/// live inside the scope, so if it unwinds they drop before the scope
/// joins, and a helper blocked on either wakes to a closed channel and
/// returns.
fn read_rows_beside<'a>(
    ips: &mut IpTable,
    cur: Cur<'a>,
    n_ips: usize,
    domain_count: u32,
) -> RowsRead<'a> {
    std::thread::scope(|scope| {
        #[allow(clippy::disallowed_methods, reason = "one sender, one receiver: chunks arrive in row order")]
        let (full_tx, full_rx) = std::sync::mpsc::sync_channel::<Vec<(u32, IpStats)>>(1);
        #[allow(clippy::disallowed_methods, reason = "one sender, one receiver, and every buffer is alike")]
        let (empty_tx, empty_rx) = std::sync::mpsc::sync_channel(RESTORE_BUFFERS);
        for _ in 0..RESTORE_BUFFERS {
            #[allow(clippy::let_underscore_must_use, reason = "the receiver is alive and has room for every buffer")]
            let _ = empty_tx.send(Vec::with_capacity(n_ips.min(RESTORE_CHUNK)));
        }
        let helper = scope.spawn(move || {
            let (mut cur, mut lists, mut prev) = (cur, Vec::new(), None);
            let mut left = n_ips;
            while left > 0 {
                // Either channel closes early only if the caller unwound.
                let Ok(mut chunk) = empty_rx.recv() else { break };
                for _ in 0..left.min(RESTORE_CHUNK) {
                    let (ip, stats) = read_row(&mut cur, domain_count, prev, &mut lists)?;
                    prev = Some(ip);
                    chunk.push((ip, stats));
                }
                left -= chunk.len();
                if full_tx.send(chunk).is_err() {
                    break;
                }
            }
            Ok((cur, lists))
        });
        for mut chunk in full_rx {
            for (ip, stats) in chunk.drain(..) {
                ips.insert(ip, stats);
            }
            #[allow(clippy::let_underscore_must_use, reason = "fails once the helper has sent its last chunk and returned; the buffer is then dropped")]
            let _ = empty_tx.send(chunk);
        }
        helper.join().unwrap_or_else(|e| std::panic::resume_unwind(e))
    })
}

/// Add `id` to the URI list of `stats`, creating the list on first use;
/// `false` if it was there already.
fn insert_uri(lists: &mut Vec<UriList>, stats: &mut IpStats, id: u32) -> bool {
    let index = (stats.uri_list as usize).wrapping_sub(1);
    if let Some(list) = lists.get_mut(index) {
        return list.insert(id);
    }
    let mut list = UriList::default();
    list.insert(id);
    lists.push(list);
    stats.uri_list = lists.len() as u32;
    true
}

fn set_port_bit(e: &mut Evidence, port: u16) {
    match port {
        80 => e.set(Evidence::PORT_80),
        8080 => e.set(Evidence::PORT_8080),
        443 => e.set(Evidence::PORT_443),
        1935 => e.set(Evidence::PORT_1935),
        _ => {}
    }
}

/// Recover the member id from a port MAC (the inverse of
/// `EthernetAddress::from_member_id`).
pub fn member_of(mac: EthernetAddress) -> Option<MemberId> {
    let b = mac.0;
    if b[0] == 0x02 && b[1] == 0x1f {
        Some(MemberId(u32::from_be_bytes([b[2], b[3], b[4], b[5]])))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixp_wire::ethernet::{self, EthernetAddress};
    use ixp_wire::ip::Protocol;
    use ixp_wire::{ipv4, tcp};

    /// Build an Ethernet+IPv4+TCP frame between two member ports.
    fn tcp_frame(src_member: u32, dst_member: u32, payload: &[u8], dst_port: u16) -> Vec<u8> {
        let src_ip = Ipv4Addr::new(100, 0, 0, 1);
        let dst_ip = Ipv4Addr::new(100, 0, 1, 1);
        let tcp_len = tcp::HEADER_LEN + payload.len();
        let total = ethernet::HEADER_LEN + ipv4::HEADER_LEN + tcp_len;
        let mut buf = vec![0u8; total];
        ethernet::Repr {
            src_addr: EthernetAddress::from_member_id(src_member),
            dst_addr: EthernetAddress::from_member_id(dst_member),
            ethertype: ixp_wire::EtherType::Ipv4,
        }
        .emit(&mut ethernet::Frame::new_unchecked(&mut buf[..]));
        ipv4::Repr {
            src_addr: src_ip,
            dst_addr: dst_ip,
            protocol: Protocol::Tcp,
            payload_len: tcp_len,
            ttl: 60,
        }
        .emit(&mut ipv4::Packet::new_unchecked(&mut buf[ethernet::HEADER_LEN..]))
        .unwrap();
        let l4 = &mut buf[ethernet::HEADER_LEN + ipv4::HEADER_LEN..];
        l4[tcp::HEADER_LEN..].copy_from_slice(payload);
        tcp::Repr {
            src_port: 40000,
            dst_port,
            seq: 0,
            ack: 0,
            flags: tcp::Flags::ACK,
            window: 1000,
        }
        .emit(&mut tcp::Packet::new_unchecked(&mut l4[..]), src_ip, dst_ip)
        .unwrap();
        buf
    }

    #[test]
    fn member_of_inverts_port_macs() {
        for id in [0u32, 1, 456, 100_000] {
            assert_eq!(member_of(EthernetAddress::from_member_id(id)), Some(MemberId(id)));
        }
        assert_eq!(member_of(EthernetAddress([0x02, 0xFD, 0, 0, 0, 1])), None);
        assert_eq!(member_of(EthernetAddress::BROADCAST), None);
    }

    #[test]
    fn request_marks_destination_as_server_and_collects_uri() {
        let mut scan = WeekScan::new(Week::REFERENCE, 10);
        let frame = tcp_frame(1, 2, b"GET / HTTP/1.1\r\nHost: www.x.example\r\n\r\n", 80);
        scan.ingest_sample(16_384, frame.len() as u32, &frame);
        let dst = scan.stats(Ipv4Addr::new(100, 0, 1, 1)).unwrap();
        assert!(dst.evidence.has(Evidence::HTTP_SERVER));
        assert!(dst.evidence.has(Evidence::PORT_80));
        assert_eq!(scan.uris(dst).len(), 1);
        assert_eq!(scan.domains.name(scan.uris(dst)[0]), "www.x.example");
        let src = scan.stats(Ipv4Addr::new(100, 0, 0, 1)).unwrap();
        assert!(src.evidence.has(Evidence::CLIENT));
        assert!(!src.evidence.has(Evidence::HTTP_SERVER));
    }

    #[test]
    fn response_marks_source_as_server() {
        let mut scan = WeekScan::new(Week::REFERENCE, 10);
        let frame = tcp_frame(3, 4, b"HTTP/1.1 200 OK\r\nServer: x\r\n\r\n", 50_000);
        scan.ingest_sample(16_384, frame.len() as u32, &frame);
        let src = scan.stats(Ipv4Addr::new(100, 0, 0, 1)).unwrap();
        assert!(src.evidence.has(Evidence::HTTP_SERVER));
    }

    #[test]
    fn non_member_macs_fall_out_of_peering() {
        let mut scan = WeekScan::new(Week::REFERENCE, 3);
        // Member ids 5 and 6 exceed the member count of 3.
        let frame = tcp_frame(5, 6, b"GET / HTTP/1.1\r\n", 80);
        scan.ingest_sample(16_384, frame.len() as u32, &frame);
        assert_eq!(scan.filter.get(Category::NonMemberOrLocal).samples, 1);
        assert_eq!(scan.unique_ips(), 0);
    }

    #[test]
    fn same_member_both_sides_is_local() {
        let mut scan = WeekScan::new(Week::REFERENCE, 10);
        let frame = tcp_frame(2, 2, b"GET / HTTP/1.1\r\n", 80);
        scan.ingest_sample(16_384, frame.len() as u32, &frame);
        assert_eq!(scan.filter.get(Category::NonMemberOrLocal).samples, 1);
    }

    #[test]
    fn tls_443_marks_candidate() {
        let mut scan = WeekScan::new(Week::REFERENCE, 10);
        let frame = tcp_frame(1, 2, &[0x16, 0x03, 0x03, 0x00, 0x10, 0x80], 443);
        scan.ingest_sample(16_384, frame.len() as u32, &frame);
        let dst = scan.stats(Ipv4Addr::new(100, 0, 1, 1)).unwrap();
        assert!(dst.evidence.has(Evidence::TLS443));
        assert!(dst.evidence.has(Evidence::PORT_443));
        assert!(!dst.evidence.has(Evidence::HTTP_SERVER));
    }

    #[test]
    fn filter_shares_sum_to_100() {
        let mut scan = WeekScan::new(Week::REFERENCE, 10);
        for (port, payload) in
            [(80u16, &b"GET / HTTP/1.1\r\n"[..]), (443, &[0x16, 0x03, 0x03][..]), (25, &[0x80u8][..])]
        {
            let frame = tcp_frame(1, 2, payload, port);
            scan.ingest_sample(16_384, frame.len() as u32, &frame);
        }
        let total: f64 = Category::ALL.iter().map(|c| scan.filter.share(*c)).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn undissectable_bytes_are_counted_not_fatal() {
        let mut scan = WeekScan::new(Week::REFERENCE, 10);
        // A datagram-level decode failure lands in the per-kind error
        // counters, not the sample-level dissection counter.
        scan.ingest(&[1, 2, 3]);
        let errors = scan.ingest_health().collector.decode_errors;
        assert_eq!((errors.total(), errors.truncated), (1, 1));
        // A sample-level dissection failure is counted separately.
        scan.ingest_sample(1, 10, &[0xff; 4]);
        assert_eq!(scan.undissectable, 1);
        let health = scan.ingest_health();
        assert!(health.fully_accounted());
        assert_eq!(health.undissectable_samples, 1);
        assert_eq!(health.collector.datagrams, 1);
    }

    /// A scan exercising every checkpointed dimension: cascade totals,
    /// per-IP evidence, interned domains, undissectables, decode errors,
    /// and a shed count.
    fn messy_scan() -> WeekScan {
        let mut scan = WeekScan::new(Week::REFERENCE, 10);
        for (port, payload) in [
            (80u16, &b"GET / HTTP/1.1\r\nHost: a.example\r\n\r\n"[..]),
            (80, &b"GET / HTTP/1.1\r\nHost: b.example\r\n\r\n"[..]),
            (443, &[0x16, 0x03, 0x03][..]),
            (25, &[0x80u8][..]),
        ] {
            let frame = tcp_frame(1, 2, payload, port);
            scan.ingest_sample(16_384, frame.len() as u32, &frame);
        }
        scan.ingest(&[1, 2, 3]); // decode error
        scan.ingest_sample(1, 10, &[0xff; 4]); // undissectable
        scan.record_shed(3);
        scan
    }

    #[test]
    fn scan_save_restore_round_trips_and_stays_byte_identical() {
        let scan = messy_scan();
        let blob = scan.save_state();
        let restored = WeekScan::restore_state(&blob).expect("restore");
        assert_eq!(restored.save_state(), blob, "save → restore → save changed bytes");
        assert_eq!(restored.ingest_health(), scan.ingest_health());
        assert_eq!(restored.unique_ips(), scan.unique_ips());
        assert_eq!(restored.domains.len(), scan.domains.len());
        // Interning continues where it left off.
        let mut r = restored;
        let frame = tcp_frame(1, 2, b"GET / HTTP/1.1\r\nHost: a.example\r\n\r\n", 80);
        r.ingest_sample(16_384, frame.len() as u32, &frame);
        assert_eq!(r.domains.len(), scan.domains.len(), "known domain re-interned");
    }

    /// The part counts `save_state` takes: one below [`SPLIT_AT_IPS`]
    /// addresses, two from it on.
    const PARTS: [usize; 2] = [1, 2];

    #[test]
    fn save_state_sizes_its_buffer_exactly() {
        let scan = messy_scan();
        for parts in PARTS {
            let blob = scan.save_state_in(parts);
            assert_eq!(blob.capacity(), blob.len(), "{parts} part(s)");
        }
    }

    /// The address order `save_state` used before the counting sort,
    /// frozen: collect, then a comparison sort by copied key.
    fn address_order_reference(scan: &WeekScan) -> Vec<(u32, &IpStats)> {
        let mut ips: Vec<(u32, &IpStats)> = scan.ips.iter().map(|(ip, s)| (*ip, s)).collect();
        ips.sort_unstable_by_key(|(ip, _)| *ip);
        ips
    }

    /// `save_state` as it was before the counting sort, frozen: a separate
    /// walk for the length, the reference order, the same writes.
    fn save_state_reference(scan: &WeekScan) -> Vec<u8> {
        let own_len = 25 + 24 * Category::ALL.len()
            + 8
            + scan.domains.names.iter().map(|n| 8 + n.len()).sum::<usize>()
            + 8
            + scan.ips.values().map(|s| 23 + 4 * scan.uris(s).len()).sum::<usize>()
            + 8 * scan.tally.fields().len();
        let mut out = Vec::with_capacity(own_len);
        checkpoint::put_u32(&mut out, WEEKSCAN_STATE_VERSION);
        checkpoint::put_u8(&mut out, scan.week.0);
        checkpoint::put_u32(&mut out, scan.member_count);
        checkpoint::put_u64(&mut out, scan.shed);
        checkpoint::put_u64(&mut out, scan.undissectable);
        for cat in Category::ALL {
            let e = scan.filter.get(cat);
            checkpoint::put_u64(&mut out, e.samples);
            checkpoint::put_u64(&mut out, e.frames);
            checkpoint::put_u64(&mut out, e.bytes);
        }
        checkpoint::put_u64(&mut out, scan.domains.names.len() as u64);
        for name in &scan.domains.names {
            checkpoint::put_str(&mut out, name);
        }
        let ips = address_order_reference(scan);
        checkpoint::put_u64(&mut out, ips.len() as u64);
        for (ip, s) in &ips {
            let uris = scan.uris(s);
            checkpoint::put_u32(&mut out, *ip);
            checkpoint::put_u64(&mut out, s.bytes);
            checkpoint::put_u32(&mut out, s.samples);
            checkpoint::put_u16(&mut out, s.evidence.0);
            checkpoint::put_u32(&mut out, s.member.0);
            checkpoint::put_u8(&mut out, uris.len().min(MAX_URIS_PER_IP) as u8);
            for id in uris.iter().take(MAX_URIS_PER_IP) {
                checkpoint::put_u32(&mut out, *id);
            }
        }
        for f in scan.tally.fields() {
            checkpoint::put_u64(&mut out, f);
        }
        out.extend_from_slice(&scan.collector.save_state());
        out
    }

    /// A scan whose table holds exactly `addresses`, each entry telling its
    /// address apart.
    fn table_of(addresses: impl IntoIterator<Item = u32>) -> WeekScan {
        let mut scan = WeekScan::new(Week::REFERENCE, 10);
        for ip in addresses {
            let stats = IpStats {
                bytes: u64::from(ip) * 3 + 1,
                samples: ip.rotate_left(7),
                member: MemberId(ip % 10),
                ..IpStats::default()
            };
            scan.ips.insert(ip, stats);
        }
        scan
    }

    /// The table in address order as `parts` sorted ranges hand it to
    /// their writers, and the size of its rows.
    fn address_order_in(scan: &WeekScan, parts: usize) -> (Vec<(u32, &IpStats)>, usize) {
        let ranges = scan.address_ranges(parts);
        let bytes = ranges.bytes();
        let mut orders = vec![Vec::new(); ranges.ranges.len()];
        ranges.sorted_each(&mut orders, |pairs, order| order.extend_from_slice(pairs));
        (orders.concat(), bytes)
    }

    /// For each part count, the counting sort puts the same entries (by
    /// identity, not only by address) in the same order as the comparison
    /// sort, sums the length the separate walk summed, and so leaves the
    /// same bytes.
    fn assert_orders_as_the_reference(scan: &WeekScan) {
        let entries = |order: Vec<(u32, &IpStats)>| -> Vec<(u32, *const IpStats)> {
            order.into_iter().map(|(ip, s)| (ip, std::ptr::from_ref(s))).collect()
        };
        let walked: usize = scan.ips.values().map(|s| 23 + 4 * scan.uris(s).len()).sum();
        let reference = save_state_reference(scan);
        for parts in PARTS {
            let (order, bytes) = address_order_in(scan, parts);
            assert_eq!(bytes, walked, "{parts} part(s)");
            assert_eq!(entries(order), entries(address_order_reference(scan)), "{parts} part(s)");
            assert!(scan.save_state_in(parts) == reference, "{parts} part(s): state bytes differ");
        }
        assert!(scan.save_state() == reference, "state bytes differ");
    }

    #[test]
    fn address_order_matches_the_comparison_sort_at_the_edges() {
        assert_orders_as_the_reference(&table_of([]));
        for one in [0, 1, 0x0a00_0001, u32::MAX] {
            assert_orders_as_the_reference(&table_of([one]));
        }
        assert_orders_as_the_reference(&table_of([u32::MAX, 0]));
        assert_orders_as_the_reference(&table_of([0, u32::MAX, 1, u32::MAX - 1, 1 << 31]));
        // Every address under one top digit: the upper range is empty.
        let top = |digit: u32, low: u32| (digit << 22) | (low & ((1 << 22) - 1));
        let one_digit = table_of((0..500).map(|i| top(5, i * 7_919)));
        assert_eq!(one_digit.address_ranges(2).ranges[1], (0, 0));
        assert_orders_as_the_reference(&one_digit);
        // Both sides of the split digit and on it, down to its first and
        // last address and the last one below it.
        let around =
            [3, 5, 6, 9].into_iter().flat_map(|d| (0..100).map(move |i| top(d, i * 40_009)));
        let edges = [top(6, 0), top(6, u32::MAX), top(5, u32::MAX)];
        let split = table_of(around.chain(edges));
        let (lower, upper) = split.ips.keys().partition::<Vec<u32>, _>(|ip| top_digit(**ip) < 6);
        assert_eq!(split.address_ranges(2).ranges.iter().map(|r| r.0).collect::<Vec<_>>(), [
            lower.len(),
            upper.len()
        ]);
        assert_orders_as_the_reference(&split);
        // Every value of one digit under fixed other digits, for each of the
        // three digits: an order only that pass can establish.
        for pass in 0..RADIX_PASSES {
            let shift = RADIX_BITS as usize * pass;
            for base in [0u32, u32::MAX, 0x5a5a_5a5a, 0xc0a8_0001] {
                let rest = base & !(((RADIX - 1) as u32) << shift);
                let digits = (0..RADIX as u64).map(|d| d << shift).filter(|d| *d <= 0xffff_ffff);
                let scan = table_of(digits.map(|d| rest | d as u32));
                assert!(scan.ips.len() >= RADIX / 2, "pass {pass}: {} addresses", scan.ips.len());
                assert_orders_as_the_reference(&scan);
            }
        }
    }

    /// A table one address short of [`SPLIT_AT_IPS`] is written in one
    /// part, one at it in two, and both leave the reference bytes.
    #[test]
    fn save_state_splits_from_its_constant_on() {
        // An odd multiplier spreads the addresses over every top digit.
        let spread = |n: usize| table_of((0..n as u32).map(|i| i.wrapping_mul(0x9e37_79b9)));
        for (ips, parts) in [(SPLIT_AT_IPS - 1, 1), (SPLIT_AT_IPS, 2)] {
            let scan = spread(ips);
            assert_eq!((scan.ips.len(), scan.save_parts()), (ips, parts));
            assert!(scan.save_state() == save_state_reference(&scan), "{ips} addresses");
        }
    }

    /// The serial schedule [`read_rows_beside`] is held to: each row read
    /// with [`read_row`] and inserted on this thread before the next is read.
    fn read_rows_inline<'a>(
        ips: &mut IpTable,
        mut cur: Cur<'a>,
        n_ips: usize,
        domain_count: u32,
    ) -> RowsRead<'a> {
        let (mut lists, mut prev) = (Vec::new(), None);
        for _ in 0..n_ips {
            let (ip, stats) = read_row(&mut cur, domain_count, prev, &mut lists)?;
            prev = Some(ip);
            ips.insert(ip, stats);
        }
        Ok((cur, lists))
    }

    /// A table of `rows` addresses, row `i` at `7 919 i + 3`, with URI ids
    /// from three interned names: two on most rows and one on every fifth,
    /// so that rows differ in length.
    fn synthetic(rows: usize) -> WeekScan {
        let mut scan = table_of((0..rows as u32).map(|i| 7_919 * i + 3));
        for name in ["a.example", "b.example", "c.example"] {
            scan.domains.intern(name);
        }
        for (ip, stats) in &mut scan.ips {
            let i = (ip - 3) / 7_919;
            insert_uri(&mut scan.uri_lists, stats, i % 3);
            if i % 5 != 4 {
                insert_uri(&mut scan.uri_lists, stats, (i + 1) % 3);
            }
        }
        scan
    }

    /// Where each per-IP row of `state`, the saved `scan`, starts, and
    /// where the last one ends.
    fn row_starts(scan: &WeekScan, state: &[u8]) -> Vec<usize> {
        let names: usize = scan.domains.iter().map(|n| 8 + n.len()).sum();
        let mut at = 25 + 24 * Category::ALL.len() + 8 + names + 8;
        let mut starts = vec![at];
        for _ in 0..scan.unique_ips() {
            at += IP_ROW_LEN + 4 * usize::from(state[at + IP_ROW_LEN - 1]);
            starts.push(at);
        }
        starts
    }

    /// The offsets of `state` to cut or damage. In a state of a few rows,
    /// all of them up to the tally's second field. In a larger one, the row
    /// count and the first row, a row either side of every chunk boundary,
    /// and the last row and the first tally field: everywhere the two
    /// schedules part, where the helper hands its cursor back included,
    /// without a restore for each of a quarter million offsets. What
    /// follows is read by the caller alone on either schedule.
    fn probe_offsets(starts: &[usize], len: usize) -> Vec<usize> {
        let rows = starts.len() - 1;
        let row = |k: usize| starts[k.min(rows)];
        let head = if rows < 4 { 0 } else { row(0) - 8 };
        let tail = (row(rows) + 9).min(len + 1);
        let boundaries = (1..=rows / RESTORE_CHUNK).map(|c| c * RESTORE_CHUNK);
        let mut windows = vec![head..row(1), row(rows.saturating_sub(1))..tail];
        windows.extend(boundaries.map(|k| row(k - 1)..row(k + 1)));
        let mut offsets: Vec<usize> = windows.into_iter().flatten().collect();
        offsets.sort_unstable();
        offsets.dedup();
        offsets
    }

    /// `restore_state_in` on one thread and on two: the same error, or
    /// scans that save the same bytes, which are returned.
    fn restored_alike(bytes: &[u8]) -> Result<Vec<u8>, StateError> {
        let saved = |scan: WeekScan| scan.save_state();
        let one = WeekScan::restore_state_in(bytes, read_rows_inline).map(saved);
        let two = WeekScan::restore_state_in(bytes, read_rows_beside).map(saved);
        let (a, b) = (one.as_ref().err(), two.as_ref().err());
        assert!(one == two, "{} bytes: {a:?} on one thread, {b:?} on two", bytes.len());
        one
    }

    /// Restore on two threads is restore on one. The states are the empty
    /// and one-row tables, the messy scan, both scanned weeks, and tables of
    /// one chunk less one row, one chunk, one more row, and two chunks and
    /// a row. Each restores, on either schedule, to a scan that saves the
    /// input again. Every cut of its probed offsets is refused alike, and
    /// every aligned 2- and 4-byte word there set to all-ones gives the same
    /// result on both.
    #[test]
    fn restore_on_two_threads_matches_one_on_every_cut_and_damaged_word() {
        let small = [table_of([]), table_of([0x0a00_0001]), messy_scan()];
        let sizes = [RESTORE_CHUNK - 1, RESTORE_CHUNK, RESTORE_CHUNK + 1, 2 * RESTORE_CHUNK + 1];
        let chunked = sizes.map(synthetic);
        let weeks = crate::testutil::scanned_weeks().iter().map(|(scan, _)| scan);
        for scan in small.iter().chain(weeks).chain(&chunked) {
            let state = scan.save_state();
            assert!(restored_alike(&state) == Ok(state.clone()), "{} rows", scan.unique_ips());
            let offsets = probe_offsets(&row_starts(scan, &state), state.len());
            for cut in offsets.iter().filter(|cut| **cut < state.len()) {
                assert!(restored_alike(&state[..*cut]).is_err(), "cut {cut} restored");
            }
            for width in [2, 4] {
                let words =
                    offsets.iter().filter(|at| *at % width == 0 && *at + width <= state.len());
                for at in words {
                    let mut bad = state.clone();
                    bad[*at..*at + width].fill(0xFF);
                    restored_alike(&bad).ok();
                }
            }
        }
    }

    /// A key not above the one before it, a URI id past the domain table
    /// and a URI id twice in one row are refused alike on one thread and
    /// two: planted in the last row of the first chunk, the first of the
    /// second, and the last row of all, alone in its chunk.
    #[test]
    fn both_schedules_refuse_a_bad_row_alike_across_a_chunk_boundary_and_in_the_last_chunk() {
        let scan = synthetic(2 * RESTORE_CHUNK + 1);
        let state = scan.save_state();
        let starts = row_starts(&scan, &state);
        let domains = (scan.domains.len() as u32).to_be_bytes();
        for row in [RESTORE_CHUNK - 1, RESTORE_CHUNK, 2 * RESTORE_CHUNK] {
            let (at, ids) = (starts[row], starts[row] + IP_ROW_LEN);
            assert_eq!(state[ids - 1], 2, "row {row} has two URI ids");
            let mut unordered = state.clone();
            unordered.copy_within(starts[row - 1]..starts[row - 1] + 4, at);
            let mut out_of_range = state.clone();
            out_of_range[ids..ids + 4].copy_from_slice(&domains);
            let mut duplicate = state.clone();
            duplicate.copy_within(ids..ids + 4, ids + 4);
            for (bad, refusal) in [
                (unordered, "ip keys not strictly increasing"),
                (out_of_range, "uri id out of domain-table range"),
                (duplicate, "duplicate uri id for one ip"),
            ] {
                assert_eq!(restored_alike(&bad), Err(StateError::Invalid(refusal)), "row {row}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn address_order_matches_the_comparison_sort_on_random_tables(
            addresses in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..700),
            // Clustered like real prefixes: many addresses that differ in
            // one digit only, around a few bases.
            bases in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..4),
            offsets in proptest::collection::vec((0..RADIX_PASSES as u32, 0..RADIX as u32), 0..300),
        ) {
            let clustered = bases.iter().flat_map(|base| {
                offsets.iter().map(move |(pass, d)| base ^ d.wrapping_shl(RADIX_BITS * pass))
            });
            let scan = table_of(addresses.iter().copied().chain(clustered).chain([0, u32::MAX]));
            assert_orders_as_the_reference(&scan);
        }
    }

    /// Whole-state differential on real weeks, clean and fault-injected:
    /// the bytes are the reference writer's, and they are a fixed point of
    /// restore + save.
    #[test]
    fn save_state_matches_the_reference_writer_on_scanned_weeks() {
        for (scan, _) in crate::testutil::scanned_weeks() {
            assert!(scan.unique_ips() > 1_000 && scan.domains.len() > 10);
            assert_orders_as_the_reference(scan);
            let blob = scan.save_state();
            let restored = WeekScan::restore_state(&blob).expect("restore");
            for parts in PARTS {
                let again = restored.save_state_in(parts);
                assert!(again == blob, "{parts} part(s): save → restore → save changed bytes");
            }
            assert_orders_as_the_reference(&restored);
        }
    }

    #[test]
    fn scan_restore_rejects_corruption_with_typed_errors_never_panics() {
        let blob = messy_scan().save_state();
        for cut in 0..blob.len() {
            let prefix: Vec<u8> = blob.iter().copied().take(cut).collect();
            assert!(WeekScan::restore_state(&prefix).is_err(), "cut {cut} restored");
        }
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            if let Some(b) = bad.get_mut(i) {
                *b ^= 0x01;
            }
            // Either a typed rejection or a state whose accounting balances.
            if let Ok(scan) = WeekScan::restore_state(&bad) {
                assert!(scan.ingest_health().fully_accounted());
            }
        }
    }

    #[test]
    fn a_shed_is_reported_in_health_and_stays_out_of_the_collector_ledger() {
        let mut scan = WeekScan::new(Week::REFERENCE, 10);
        scan.ingest(&[1, 2, 3]);
        scan.record_shed(7);
        let h = scan.ingest_health();
        assert_eq!((h.shed, h.collector.datagrams), (7, 1));
        assert!(h.fully_accounted());
    }

    #[test]
    fn scan_bind_obs_replays_into_a_fresh_registry() {
        let obs_a = ixp_obs::Obs::deterministic();
        let mut live = WeekScan::with_obs(Week::REFERENCE, 10, &obs_a);
        let frame = tcp_frame(1, 2, b"GET / HTTP/1.1\r\nHost: a.example\r\n\r\n", 80);
        live.ingest_sample(16_384, frame.len() as u32, &frame);
        live.ingest(&[1, 2, 3]);
        live.ingest_sample(1, 10, &[0xff; 4]);
        let blob = live.save_state();
        let obs_b = ixp_obs::Obs::deterministic();
        let mut restored = WeekScan::restore_state(&blob).expect("restore");
        restored.bind_obs(&obs_b);
        assert_eq!(
            ixp_obs::json::render(&obs_a.snapshot()),
            ixp_obs::json::render(&obs_b.snapshot())
        );
    }

    #[test]
    fn dissection_outcomes_land_in_their_own_series() {
        let obs = ixp_obs::Obs::deterministic();
        let mut scan = WeekScan::with_obs(Week::REFERENCE, 10, &obs);
        let tcp = tcp_frame(1, 2, b"GET / HTTP/1.1\r\n", 80);
        let mut ipv6 = vec![0u8; 60];
        ipv6[12..14].copy_from_slice(&[0x86, 0xdd]);
        let mut unknown = ipv6.clone();
        unknown[12..14].copy_from_slice(&[0x12, 0x34]);
        for frame in [&tcp[..], &tcp[..], &ipv6[..], &unknown[..], &[0u8; 4][..]] {
            scan.ingest_sample(16_384, 600, frame);
        }
        scan.publish();
        let snap = obs.snapshot();
        let outcome =
            |o: &str| snap.counter(&format!("wire_frame_outcomes_total{{outcome=\"{o}\"}}"));
        assert_eq!(snap.counter("wire_frames_total"), Some(5));
        assert_eq!(outcome("ipv4_tcp"), Some(2));
        assert_eq!(outcome("ipv6"), Some(1));
        assert_eq!(outcome("other_ethertype"), Some(1));
        assert_eq!(outcome("too_short"), Some(1));
        assert_eq!(outcome("ipv4_udp"), Some(0));
    }

    /// A datagram with more flow samples than one batch holds — peering,
    /// undissectable and non-member ones mixed, one server named by many
    /// hosts — lands exactly as the same samples fed one at a time.
    #[test]
    fn batched_ingest_applies_every_sample_in_order() {
        use ixp_sflow::datagram::{Datagram, FlowSample, RawPacketHeader};

        let frames: Vec<Vec<u8>> = (0..3 * APPLY_BATCH as u32 + 5)
            .map(|i| match i % 5 {
                0 => vec![0u8; 9],
                1 => tcp_frame(1, 1, b"GET / HTTP/1.1\r\nHost: local.example\r\n\r\n", 80),
                2 => tcp_frame(2, 1, b"HTTP/1.1 200 OK\r\nServer: x\r\n\r\n", 8080),
                _ => {
                    let request = format!("GET / HTTP/1.1\r\nHost: h{}.x.example\r\n\r\n", i % 11);
                    tcp_frame(1, 2, request.as_bytes(), 80)
                }
            })
            .collect();
        let datagram = Datagram {
            agent_address: Ipv4Addr::new(10, 0, 0, 1),
            sub_agent_id: 0,
            sequence: 1,
            uptime_ms: 1,
            samples: frames
                .iter()
                .enumerate()
                .map(|(i, frame)| FlowSample {
                    sequence: i as u32,
                    source_id: 1,
                    sampling_rate: 16_384,
                    sample_pool: 0,
                    drops: 0,
                    input_if: 1,
                    output_if: 2,
                    record: RawPacketHeader {
                        protocol: 1,
                        frame_length: 600 + i as u32,
                        stripped: 4,
                        header: frame.clone(),
                    },
                })
                .collect(),
            counters: Vec::new(),
        };

        let mut batched = WeekScan::new(Week::REFERENCE, 10);
        batched.ingest(&datagram.encode());
        let mut single = WeekScan::new(Week::REFERENCE, 10);
        for (i, frame) in frames.iter().enumerate() {
            single.ingest_sample(16_384, 600 + i as u32, frame);
        }

        let counted = batched.filter.total().samples + batched.undissectable;
        assert_eq!(counted, frames.len() as u64);
        assert!(batched.undissectable > 0 && batched.unique_ips() == 2);
        let server = batched.stats(Ipv4Addr::new(100, 0, 1, 1)).unwrap();
        assert_eq!(batched.uris(server).len(), MAX_URIS_PER_IP);
        // Same scan state; the collector's part differs (only `batched` saw
        // a datagram) and comes last.
        let own = |scan: &WeekScan| {
            let mut blob = scan.save_state();
            blob.truncate(blob.len() - scan.collector().save_state().len());
            blob
        };
        assert!(own(&batched) == own(&single));
    }

    #[test]
    fn uris_are_deduplicated_and_bounded() {
        let mut scan = WeekScan::new(Week::REFERENCE, 10);
        for i in 0..20 {
            let host = format!("h{}.x.example", i % 12);
            let payload = format!("GET / HTTP/1.1\r\nHost: {host}\r\n\r\n");
            let frame = tcp_frame(1, 2, payload.as_bytes(), 80);
            scan.ingest_sample(16_384, frame.len() as u32, &frame);
        }
        let dst = scan.stats(Ipv4Addr::new(100, 0, 1, 1)).unwrap();
        let uris = scan.uris(dst);
        assert_eq!(uris.len(), 8);
        let mut dedup = uris.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), uris.len());
        assert_eq!(std::mem::size_of::<(u32, IpStats)>(), 32);
    }
}
