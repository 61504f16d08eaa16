//! The single-pass weekly scan: decode sFlow → dissect frames → filtering
//! cascade (paper Fig. 1) → per-IP evidence accumulation.
//!
//! Everything later stages need from the raw stream is collected here in
//! one pass: category traffic totals, per-IP byte/sample counts, endpoint
//! role evidence from HTTP string matching, service-port bitmaps, URI
//! observations, and the member port seen on each IP's side of the fabric.

use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hasher};
use std::net::Ipv4Addr;
use std::sync::Arc;

use ixp_netmodel::{MemberId, Week};
use ixp_obs::{family_sum, Invariant, Obs, Published, Series};
use ixp_sflow::collector::{Collector, CollectorStats, Ingest, SERIES as COLLECTOR_SERIES};
use ixp_sflow::TrafficEstimate;
use ixp_wire::dissect::{Dissection, Network, Transport};
use ixp_wire::{ipv4, EthernetAddress};

use crate::http::{self, HttpEvidence};

mod state;

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
    #[allow(
        clippy::indexing_slicing,
        reason = "Category's discriminants are 0..ALL.len(), the length of totals"
    )]
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

    #[allow(
        clippy::indexing_slicing,
        reason = "Category's discriminants are 0..ALL.len(), the length of totals"
    )]
    fn add(&mut self, cat: Category, rate: u32, frame_len: u32) {
        self.totals[cat as usize].add_raw(rate, frame_len);
    }
}

/// Per-IP evidence bits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Evidence(pub u16);

impl Evidence {
    /// Payload string matching marked this IP as an HTTP server.
    pub(crate) const HTTP_SERVER: u16 = 1 << 0;
    /// The IP appeared as the client side of some flow.
    pub(crate) const CLIENT: u16 = 1 << 1;
    /// The IP received TLS-looking traffic on TCP 443 (HTTPS candidate).
    pub(crate) const TLS443: u16 = 1 << 2;
    /// Activity seen on TCP port 80 (server side).
    pub(crate) const PORT_80: u16 = 1 << 3;
    /// Activity on TCP 8080 (server side).
    pub(crate) const PORT_8080: u16 = 1 << 4;
    /// Activity on TCP 443 (server side).
    pub(crate) const PORT_443: u16 = 1 << 5;
    /// Activity on TCP 1935 (server side).
    pub(crate) const PORT_1935: u16 = 1 << 6;

    /// Check a bit.
    pub(crate) fn has(&self, bit: u16) -> bool {
        self.0 & bit != 0
    }

    /// Set a bit.
    pub(crate) fn set(&mut self, bit: u16) {
        self.0 |= bit;
    }

    /// Number of distinct well-known service ports seen.
    pub(crate) fn service_port_count(&self) -> u32 {
        (self.0 & (Self::PORT_80 | Self::PORT_8080 | Self::PORT_443 | Self::PORT_1935)).count_ones()
    }
}

/// Accumulated per-IP statistics. Packed to 16 bytes at 4-byte alignment,
/// so that a table entry with its `u32` key is 20 bytes, 21 with the
/// table's control byte: the table is the largest thing a week's scan
/// holds, and a scan restored beside its source makes two. The price is
/// that one entry in four straddles a cache line, so a lookup there may
/// touch two. The member port is kept as the `u16` [`member_port`] narrows
/// it to. The URI authorities seen with this IP as the server are kept
/// apart, by address, since only servers have any: see [`WeekScan::uris`].
#[derive(Debug, Clone, Default)]
#[repr(C, packed(4))]
pub struct IpStats {
    /// Estimated bytes this IP was an endpoint of (peering traffic only).
    pub bytes: u64,
    /// Samples this IP appeared in.
    pub samples: u32,
    /// The member port on this IP's side of the fabric (last seen).
    member: u16,
    /// Role/port evidence.
    pub evidence: Evidence,
}

impl IpStats {
    /// The member port on this IP's side of the fabric (last seen).
    pub(crate) fn member(&self) -> MemberId {
        MemberId(u32::from(self.member))
    }
}

/// The member port `id` names in a scan of `member_count` ports, narrowed
/// to the `u16` an [`IpStats`] stores: `None` unless `id` is below
/// `member_count` and fits. Ingest counts a frame from or to a MAC it
/// turns down as non-member traffic, and restore refuses a row holding one.
fn member_port(id: u32, member_count: u32) -> Option<u16> {
    if id < member_count {
        u16::try_from(id).ok()
    } else {
        None
    }
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
pub(crate) type IpTable = HashMap<u32, IpStats, IpHashBuilder>;

/// A tiny string interner for URI authorities.
#[derive(Debug, Default)]
pub struct DomainTable {
    /// Each name is allocated once and shared with `names`.
    by_name: HashMap<Arc<str>, u32>,
    names: Vec<Arc<str>>,
}

impl DomainTable {
    /// Intern a domain, returning its id.
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
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
    #[allow(
        clippy::indexing_slicing,
        reason = "ids come from intern(), and restore_state rejects a uri id >= domain_count"
    )]
    pub(crate) fn name(&self, id: u32) -> &str {
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
    src_member: u16,
    dst_member: u16,
}

/// What one peering sample adds to the per-IP table, worked out before the
/// table is touched (see [`WeekScan::ingest`]).
#[derive(Clone, Copy, Default)]
struct Update<'a> {
    src: u32,
    dst: u32,
    /// Estimated bytes the sample stands for.
    bytes: u64,
    src_member: u16,
    dst_member: u16,
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
    /// The URI list of each server that has one, by address. Every key is
    /// an address of `ips`.
    uri_lists: BTreeMap<u32, UriList>,
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
            uri_lists: BTreeMap::new(),
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
    #[allow(
        clippy::indexing_slicing,
        reason = "n < APPLY_BATCH at pending[n], since it is reset on reaching it, so n <= APPLY_BATCH at pending[..n]"
    )]
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
            self.uri_lists.entry(update.dst).or_default().insert(id);
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
        let port = |mac| member_of(mac).and_then(|m| member_port(m.0, self.member_count));
        let (src_m, dst_m) = (port(d.src_mac), port(d.dst_mac));
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
    #[cfg(test)]
    pub(crate) fn stats(&self, ip: Ipv4Addr) -> Option<&IpStats> {
        self.ips.get(&u32::from(ip))
    }

    /// Interned ids of the URI authorities observed when `ip` acted as the
    /// server (bounded).
    pub fn uris(&self, ip: Ipv4Addr) -> &[u32] {
        self.uri_lists.get(&u32::from(ip)).map_or(&[], UriList::as_slice)
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
pub(crate) use state::two_core_states;

/// Build an Ethernet+IPv4+TCP frame between two member ports.
#[cfg(test)]
fn tcp_frame(src_member: u32, dst_member: u32, payload: &[u8], dst_port: u16) -> Vec<u8> {
    use ixp_wire::{ethernet, ip::Protocol, tcp};
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
    tcp::Repr { src_port: 40000, dst_port, seq: 0, ack: 0, flags: tcp::Flags::ACK, window: 1000 }
        .emit(&mut tcp::Packet::new_unchecked(&mut l4[..]), src_ip, dst_ip)
        .unwrap();
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let server = Ipv4Addr::new(100, 0, 1, 1);
        let dst = scan.stats(server).unwrap();
        assert!(dst.evidence.has(Evidence::HTTP_SERVER));
        assert!(dst.evidence.has(Evidence::PORT_80));
        assert_eq!(scan.uris(server).len(), 1);
        assert_eq!(scan.domains.name(scan.uris(server)[0]), "www.x.example");
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
        // Member ids 5 and 6 exceed the member count of 3. Under a count of
        // `u32::MAX`, 65 537 is below it but past what a table entry holds;
        // cut to 16 bits it would pass for member 1.
        for (member_count, src, dst) in [(3, 5, 6), (u32::MAX, 65_537, 2)] {
            let mut scan = WeekScan::new(Week::REFERENCE, member_count);
            let frame = tcp_frame(src, dst, b"GET / HTTP/1.1\r\n", 80);
            scan.ingest_sample(16_384, frame.len() as u32, &frame);
            assert_eq!(scan.filter.get(Category::NonMemberOrLocal).samples, 1, "{src} → {dst}");
            assert_eq!(scan.unique_ips(), 0, "{src} → {dst}");
        }
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
        for (port, payload) in [
            (80u16, &b"GET / HTTP/1.1\r\n"[..]),
            (443, &[0x16, 0x03, 0x03][..]),
            (25, &[0x80u8][..]),
        ] {
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
        assert_eq!(batched.uris(Ipv4Addr::new(100, 0, 1, 1)).len(), MAX_URIS_PER_IP);
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
        let uris = scan.uris(Ipv4Addr::new(100, 0, 1, 1));
        assert_eq!(uris.len(), 8);
        let mut dedup = uris.to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), uris.len());
    }

    #[test]
    fn a_table_entry_is_20_bytes_at_4_byte_alignment() {
        let entry = (std::mem::size_of::<(u32, IpStats)>(), std::mem::align_of::<(u32, IpStats)>());
        assert_eq!(entry, (20, 4));
        assert_eq!(std::mem::size_of::<IpStats>(), 16);
    }
}
