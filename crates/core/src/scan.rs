//! The single-pass weekly scan: decode sFlow → dissect frames → filtering
//! cascade (paper Fig. 1) → per-IP evidence accumulation.
//!
//! Everything later stages need from the raw stream is collected here in
//! one pass: category traffic totals, per-IP byte/sample counts, endpoint
//! role evidence from HTTP string matching, service-port bitmaps, URI
//! observations, and the member port seen on each IP's side of the fabric.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::net::Ipv4Addr;
use std::sync::Arc;

use ixp_netmodel::{MemberId, Week};
use ixp_obs::{Obs, Published, Series};
use ixp_sflow::checkpoint::{self, Cur, StateError};
use ixp_sflow::collector::{Collector, CollectorStats, Ingest};
use ixp_sflow::{DecodeErrorCounts, TrafficEstimate};
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

    /// Is this one of the two peering categories?
    pub fn is_peering(&self) -> bool {
        matches!(self, Category::PeeringTcp | Category::PeeringUdp)
    }
}

/// Traffic totals per cascade category.
#[derive(Debug, Clone, Default)]
pub struct FilterReport {
    /// Indexed by `Category as usize`, i.e. in [`Category::ALL`] order.
    totals: [TrafficEstimate; Category::ALL.len()],
}

impl FilterReport {
    /// Estimate for one category.
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

    /// Every datagram offered to the pipeline: the ones the collector saw
    /// plus the ones the intake queue shed before it could.
    pub fn ingested(&self) -> u64 {
        self.collector.datagrams.saturating_add(self.shed)
    }

    /// The no-silent-discard invariant, extended over the intake queue:
    /// every offered buffer is accepted, a suppressed duplicate, a counted
    /// decode error, or an explicitly counted shed.
    pub fn fully_accounted(&self) -> bool {
        let c = &self.collector;
        let accounted = c
            .accepted
            .checked_add(c.duplicates)
            .and_then(|v| v.checked_add(c.decode_errors.total()))
            .and_then(|v| v.checked_add(self.shed));
        accounted == Some(self.ingested())
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
    fn fields(&self) -> [u64; 11] {
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
    fn from_fields(f: [u64; 11]) -> DissectTally {
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

/// One per-IP entry as [`WeekScan::save_state`] writes it: the fields of
/// the state format, whose writer (and so its pinned schema digest) reads
/// the same now that the URI ids live outside [`IpStats`].
struct IpRow<'a> {
    bytes: u64,
    samples: u32,
    evidence: Evidence,
    member: MemberId,
    uris: &'a [u32],
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

/// Address bits one pass of [`WeekScan::address_order`] sorts by, and the
/// passes that cover an address: 11 + 11 + 10. A table of 2 048 counters
/// stays in the first-level cache while its pass scatters; the 65 536 of a
/// two-pass sort would not.
const RADIX_BITS: u32 = 11;
const RADIX: usize = 1 << RADIX_BITS;
const RADIX_PASSES: usize = 3;

/// The digit of `ip` that pass `pass` sorts by, lowest first.
fn radix_digit(ip: u32, pass: usize) -> usize {
    (ip >> (RADIX_BITS as usize * pass)) as usize & (RADIX - 1)
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

    /// Datagram decode failures by kind (the once-silent error path).
    pub fn decode_errors(&self) -> DecodeErrorCounts {
        self.collector.stats().decode_errors
    }

    /// The collector front-end, for sequence/counter introspection.
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Count datagrams the bounded intake queue shed before they reached
    /// this scan's collector, keeping the no-silent-discard invariant over
    /// the whole pipeline.
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
        self.publish();
        let (ips, ip_bytes) = self.address_order();
        // Exact size of everything written ahead of the nested collector
        // state: header and cascade totals, length-prefixed names, per-IP
        // entries, tally.
        let names: usize = self.domains.names.iter().map(|n| 8 + n.len()).sum();
        let own_len = 25 + 24 * Category::ALL.len() + 8 + names + 8 + ip_bytes
            + 8 * self.tally.fields().len();
        let mut out = Vec::with_capacity(own_len);
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
        checkpoint::put_u64(&mut out, ips.len() as u64);
        for (ip, s) in &ips {
            let s = IpRow {
                bytes: s.bytes,
                samples: s.samples,
                evidence: s.evidence,
                member: s.member,
                uris: self.uris(s),
            };
            checkpoint::put_u32(&mut out, *ip);
            checkpoint::put_u64(&mut out, s.bytes);
            checkpoint::put_u32(&mut out, s.samples);
            checkpoint::put_u16(&mut out, s.evidence.0);
            checkpoint::put_u32(&mut out, s.member.0);
            checkpoint::put_u8(&mut out, s.uris.len().min(MAX_URIS_PER_IP) as u8);
            for id in s.uris.iter().take(MAX_URIS_PER_IP) {
                checkpoint::put_u32(&mut out, *id);
            }
        }
        for f in self.tally.fields() {
            checkpoint::put_u64(&mut out, f);
        }
        let collector = self.collector.save_state();
        out.reserve_exact(collector.len());
        out.extend_from_slice(&collector);
        out
    }

    /// The per-IP table in address order — the order that makes equal
    /// states equal bytes — and the exact size of its entries in the state
    /// format. One walk of the table collects the `(address, entry)` pairs,
    /// sums the size and counts every digit; then a stable counting sort,
    /// lowest digit first, deals the pairs from one buffer into the other
    /// once a digit. That is three sequential reads and three scatters over
    /// 2 048 open cache lines where a comparison sort makes some eighteen
    /// data-dependent passes; the second buffer is gone before the state
    /// buffer, which is larger, is allocated.
    fn address_order(&self) -> (Vec<(u32, &IpStats)>, usize) {
        let mut pairs = Vec::with_capacity(self.ips.len());
        let mut bytes = 0;
        let mut counts = [[0usize; RADIX]; RADIX_PASSES];
        for (ip, stats) in &self.ips {
            pairs.push((*ip, stats));
            // u32 key + u64 + 2×u32 + u16 + uri count byte, then the ids.
            bytes += 23 + 4 * self.uris(stats).len();
            for (pass, counts) in counts.iter_mut().enumerate() {
                if let Some(n) = counts.get_mut(radix_digit(*ip, pass)) {
                    *n += 1;
                }
            }
        }
        let mut dealt = pairs.clone();
        for (pass, counts) in counts.iter_mut().enumerate() {
            // From how many pairs hold each digit to where the first goes.
            let mut next = 0;
            for n in counts.iter_mut() {
                next += std::mem::replace(n, next);
            }
            for pair in &pairs {
                let Some(next) = counts.get_mut(radix_digit(pair.0, pass)) else { continue };
                if let Some(slot) = dealt.get_mut(*next) {
                    *slot = *pair;
                }
                *next += 1;
            }
            std::mem::swap(&mut pairs, &mut dealt);
        }
        (pairs, bytes)
    }

    /// Restore a scan from [`WeekScan::save_state`] bytes. The blob is
    /// validated as hostile input: typed errors (never panics) on
    /// truncation, version skew, unsorted or duplicate keys, out-of-range
    /// domain references, or collector accounting that does not balance.
    /// The restored scan is unbound and on the frozen test clock; use
    /// [`WeekScan::bind_obs`] to re-attach instrumentation.
    pub fn restore_state(bytes: &[u8]) -> Result<WeekScan, StateError> {
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
        // Per-IP entry: u32 key + u64 + 2×u32 + u16 + uri count byte.
        let n_ips = cur.count(19)?;
        scan.ips.reserve(n_ips);
        let mut prev_ip: Option<u32> = None;
        for _ in 0..n_ips {
            let ip = cur.u32()?;
            if prev_ip.is_some_and(|p| p >= ip) {
                return Err(StateError::Invalid("ip keys not strictly increasing"));
            }
            prev_ip = Some(ip);
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
                if !insert_uri(&mut scan.uri_lists, &mut s, id) {
                    return Err(StateError::Invalid("duplicate uri id for one ip"));
                }
            }
            scan.ips.insert(ip, s);
        }
        // Mirror of the save-side `for f in self.tally.fields()` loop, so
        // the encode/decode field walks stay symmetric (ixp-lint L10).
        let mut tally_fields = [0u64; 11];
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
        assert_eq!(scan.decode_errors().total(), 1);
        assert_eq!(scan.decode_errors().truncated, 1);
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

    #[test]
    fn save_state_sizes_its_buffer_exactly() {
        let blob = messy_scan().save_state();
        assert_eq!(blob.capacity(), blob.len());
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

    /// The counting sort puts the same entries (by identity, not only by
    /// address) in the same order as the comparison sort, sums the length
    /// the separate walk summed, and so leaves the same bytes.
    fn assert_orders_as_the_reference(scan: &WeekScan) {
        let entries = |order: Vec<(u32, &IpStats)>| -> Vec<(u32, *const IpStats)> {
            order.into_iter().map(|(ip, s)| (ip, std::ptr::from_ref(s))).collect()
        };
        let (order, bytes) = scan.address_order();
        let walked: usize = scan.ips.values().map(|s| 23 + 4 * scan.uris(s).len()).sum();
        assert_eq!(bytes, walked);
        assert_eq!(entries(order), entries(address_order_reference(scan)));
        assert!(scan.save_state() == save_state_reference(scan), "state bytes differ");
    }

    #[test]
    fn address_order_matches_the_comparison_sort_at_the_edges() {
        assert_orders_as_the_reference(&table_of([]));
        for one in [0, 1, 0x0a00_0001, u32::MAX] {
            assert_orders_as_the_reference(&table_of([one]));
        }
        assert_orders_as_the_reference(&table_of([u32::MAX, 0]));
        assert_orders_as_the_reference(&table_of([0, u32::MAX, 1, u32::MAX - 1, 1 << 31]));
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
            assert!(restored.save_state() == blob, "save → restore → save changed bytes");
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
    fn shed_extends_the_accounting_invariant() {
        let mut scan = WeekScan::new(Week::REFERENCE, 10);
        scan.ingest(&[1, 2, 3]);
        scan.record_shed(7);
        let h = scan.ingest_health();
        assert_eq!(h.shed, 7);
        assert_eq!(h.ingested(), h.collector.datagrams + 7);
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
