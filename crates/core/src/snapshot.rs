//! The weekly snapshot: every aggregate the paper's tables and figures are
//! computed from, produced by one pass over the scan's per-IP map plus the
//! census.
//!
//! All lookups go through *public* data only — the routing snapshot
//! (RouteViews/GeoLite stand-in), the member directory, the AS graph, and
//! published range lists. Ground truth is never consulted here.

#![deny(clippy::disallowed_types)]

use std::collections::{hash_map, BTreeMap};
use std::net::Ipv4Addr;
use std::sync::{Mutex, PoisonError};

use ixp_netmodel::{CountryId, InternetModel, Locality, MemberId, Region, Week};
use ixp_sflow::TrafficEstimate;

use crate::beside;
use crate::census::{MetadataCoverage, ServerCensus};
use crate::scan::{Evidence, FilterReport, IpStats, WeekScan};

/// One "view" block of Table 1 (peering or server traffic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Unique IPs.
    pub ips: u64,
    /// Unique prefixes.
    pub prefixes: u64,
    /// Unique ASes.
    pub ases: u64,
    /// Unique countries.
    pub countries: u64,
    /// Estimated bytes.
    pub bytes: u64,
}

/// Table 3 split for one view: [A(L), A(M), A(G)].
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalitySplit {
    /// Unique IPs per class.
    pub ips: [u64; 3],
    /// Unique prefixes per class.
    pub prefixes: [u64; 3],
    /// Unique ASes per class.
    pub ases: [u64; 3],
    /// Estimated bytes per class.
    pub bytes: [u64; 3],
}

impl LocalitySplit {
    /// Percentage row for a metric selector.
    pub(crate) fn shares(&self, metric: impl Fn(&Self) -> [u64; 3]) -> [f64; 3] {
        let v = metric(self);
        let total: u64 = v.iter().sum();
        if total == 0 {
            [0.0; 3]
        } else {
            [
                100.0 * v[0] as f64 / total as f64,
                100.0 * v[1] as f64 / total as f64,
                100.0 * v[2] as f64 / total as f64,
            ]
        }
    }

    /// Add a row of counts to class `l`'s column of each metric (a row has
    /// no column for its `countries`).
    fn add(&mut self, l: Locality, row: ViewStats) {
        *cell(&mut self.ips, l) += row.ips;
        *cell(&mut self.prefixes, l) += row.prefixes;
        *cell(&mut self.ases, l) += row.ases;
        *cell(&mut self.bytes, l) += row.bytes;
    }
}

/// Class `l`'s cell of a Table 3 row.
fn cell(row: &mut [u64; 3], l: Locality) -> &mut u64 {
    let [member, near, global] = row;
    match l {
        Locality::Member => member,
        Locality::NearMember => near,
        Locality::Global => global,
    }
}

/// Geo/topology attributes of one census record (aligned by index).
#[derive(Debug, Clone, Copy)]
pub struct ServerGeo {
    /// Country of the server's prefix.
    pub country: CountryId,
    /// Longitudinal region bucket.
    pub region: Region,
    /// Dense AS index.
    pub as_idx: u32,
    /// Dense prefix index.
    pub prefix_idx: u32,
    /// Table 3 class of the hosting AS.
    pub locality: Locality,
}

/// HTTPS funnel and traffic stats.
#[derive(Debug, Clone, Copy, Default)]
pub struct HttpsStats {
    /// Port-443 TLS candidates.
    pub candidates: usize,
    /// Candidates completing a handshake.
    pub responders: usize,
    /// Validated HTTPS servers.
    pub confirmed: usize,
    /// Bytes attributed to confirmed HTTPS servers.
    pub bytes: u64,
}

/// Everything the tables/figures need about one week.
#[derive(Debug)]
pub struct WeeklySnapshot {
    /// The week.
    pub week: Week,
    /// Active members.
    pub member_count: u32,
    /// Fig. 1 cascade totals.
    pub filter: FilterReport,
    /// Samples that failed dissection.
    pub undissectable: u64,
    /// Table 1, peering block.
    pub peering: ViewStats,
    /// Table 1, server block.
    pub server: ViewStats,
    /// Table 3, peering view.
    pub peering_locality: LocalitySplit,
    /// Table 3, server view.
    pub server_locality: LocalitySplit,
    /// Per-country (unique IPs, bytes), peering view; indexed by CountryId.
    pub country_peering: Vec<(u64, u64)>,
    /// Per-country (unique server IPs, bytes).
    pub country_server: Vec<(u64, u64)>,
    /// Per-AS (unique IPs, bytes), dense AS index.
    pub as_peering: Vec<(u32, u64)>,
    /// Per-AS (unique server IPs, bytes).
    pub as_server: Vec<(u32, u64)>,
    /// Geo attributes aligned with the census records, which
    /// `WeeklyReport::servers` walks together.
    pub server_geo: Vec<Option<ServerGeo>>,
    /// HTTPS funnel stats.
    pub https: HttpsStats,
    /// Meta-data coverage.
    pub coverage: MetadataCoverage,
    /// (count, bytes) of servers also acting as clients.
    pub dual_role: (usize, u64),
    /// Multi-purpose server count.
    pub multi_port: usize,
    /// Published-range tracking: label -> (server count, bytes).
    pub range_tracking: BTreeMap<String, (usize, u64)>,
    /// Per-reseller-member identified-server counts behind that member.
    pub reseller_servers: Vec<(MemberId, usize)>,
    /// Peering IPs that did not resolve in the routing snapshot.
    pub unresolved_ips: u64,
    /// IPs seen acting as clients.
    pub client_ips: u64,
}

/// Addresses a walker copies out of the table per hold of its lock, and
/// the batch whose routing lookups then run back to back. DESIGN §14 ("The
/// report path") records the measurement that set it.
const CHUNK: usize = 512;

/// What one view of Table 1 adds up per country, AS and prefix: the
/// peering walk fills one per walker, the server view one. Every field is
/// a sum, or for `prefix_seen` an OR, so merged sums do not depend on
/// which walker took which address. The view's totals and its Table 3
/// split are taken from the merged sums.
struct ViewSums {
    /// Per country: (IPs, bytes).
    country: Vec<(u64, u64)>,
    /// Per dense AS index: (IPs, bytes).
    by_as: Vec<(u32, u64)>,
    /// Per dense prefix index: some address resolved into it.
    prefix_seen: Vec<bool>,
    /// Addresses no prefix covers (counted by the peering walk only).
    unresolved: u64,
    /// Addresses seen acting as clients (counted by the peering walk only).
    client_ips: u64,
}

impl ViewSums {
    fn zero(model: &InternetModel) -> ViewSums {
        ViewSums {
            country: vec![(0, 0); model.countries.len()],
            by_as: vec![(0, 0); model.registry.len()],
            prefix_seen: vec![false; model.routing.len()],
            unresolved: 0,
            client_ips: 0,
        }
    }

    /// Count one address of `bytes` that resolved into prefix `prefix_idx`
    /// of `country`, originated by dense AS `as_idx`.
    fn count(&mut self, country: CountryId, as_idx: u32, prefix_idx: u32, bytes: u64) {
        if let Some(c) = self.country.get_mut(country.0 as usize) {
            c.0 += 1;
            c.1 += bytes;
        }
        if let Some(a) = self.by_as.get_mut(as_idx as usize) {
            a.0 += 1;
            a.1 += bytes;
        }
        if let Some(seen) = self.prefix_seen.get_mut(prefix_idx as usize) {
            *seen = true;
        }
    }

    /// Fold another walker's sums into these (and drop them).
    fn add(&mut self, other: ViewSums) {
        for (a, b) in self.country.iter_mut().zip(&other.country) {
            a.0 += b.0;
            a.1 += b.1;
        }
        for (a, b) in self.by_as.iter_mut().zip(&other.by_as) {
            a.0 += b.0;
            a.1 += b.1;
        }
        for (a, b) in self.prefix_seen.iter_mut().zip(&other.prefix_seen) {
            *a |= *b;
        }
        self.unresolved += other.unresolved;
        self.client_ips += other.client_ips;
    }

    /// The view's Table 1 block and its Table 3 split, with each AS in its
    /// class of the week (`locality`, by dense AS index). The split is
    /// taken first; the block's totals are its sums.
    fn stats(&self, model: &InternetModel, locality: &[Locality]) -> (ViewStats, LocalitySplit) {
        let mut split = LocalitySplit::default();
        for ((ips, bytes), l) in self.by_as.iter().zip(locality) {
            if *ips > 0 {
                let (ips, bytes) = (u64::from(*ips), *bytes);
                split.add(*l, ViewStats { ips, ases: 1, bytes, ..ViewStats::default() });
            }
        }
        for (pidx, _) in self.prefix_seen.iter().enumerate().filter(|(_, seen)| **seen) {
            if let Some(l) = locality.get(model.routing.origin_index(pidx as u32) as usize) {
                split.add(*l, ViewStats { prefixes: 1, ..ViewStats::default() });
            }
        }
        let view = ViewStats {
            ips: split.ips.iter().sum(),
            prefixes: split.prefixes.iter().sum(),
            ases: split.ases.iter().sum(),
            countries: self.country.iter().filter(|(ips, _)| *ips > 0).count() as u64,
            bytes: split.bytes.iter().sum(),
        };
        (view, split)
    }
}

/// The peering walk over `scan.ips` on two workers with chunks of `N`
/// addresses, and `side`'s result. A helper [`beside`] the caller walks
/// from the start; the caller runs `side` and then joins the walk. Each
/// worker adds the chunks it takes into sums of its own, and the helper's
/// are merged into the caller's here. `side` stays on the caller so that
/// what it allocates comes from the caller's heap, which is where it is
/// freed (DESIGN §14).
fn peering_walk<const N: usize, T>(
    scan: &WeekScan,
    model: &InternetModel,
    side: impl FnOnce() -> T,
) -> (ViewSums, T) {
    let table = Mutex::new(scan.ips.iter());
    let (helper, (side, mut sums)) =
        beside(|| walk::<N>(&table, model), || (side(), walk::<N>(&table, model)));
    sums.add(helper);
    (sums, side)
}

/// One worker's share of the walk: chunks of up to `N` addresses taken
/// from the shared iterator until it is dry. Within a chunk every routing
/// lookup runs first, back to back so that their cache misses overlap,
/// and then every update (evaluate, then apply, as ingest does).
fn walk<const N: usize>(
    table: &Mutex<hash_map::Iter<'_, u32, IpStats>>,
    model: &InternetModel,
) -> ViewSums {
    let routing = &model.routing;
    let mut sums = ViewSums::zero(model);
    let mut chunk = [(0u32, 0u64, false); N];
    let mut resolved = [None::<u32>; N];
    loop {
        let taken = {
            // Every update under the lock is the iterator's own step, so a
            // poisoned lock still holds a valid iterator.
            let mut rest = table.lock().unwrap_or_else(PoisonError::into_inner);
            // The chunk leads the zip: the table gives up no address the
            // chunk has no room for.
            let mut taken = 0;
            for (slot, (ip, stats)) in chunk.iter_mut().zip(&mut *rest) {
                *slot = (*ip, stats.bytes, stats.evidence.has(Evidence::CLIENT));
                taken += 1;
            }
            taken
        };
        let Some(chunk) = chunk.get(..taken).filter(|chunk| !chunk.is_empty()) else {
            return sums;
        };
        for (entry, (ip, _, _)) in resolved.iter_mut().zip(chunk) {
            *entry = routing.lookup(Ipv4Addr::from(*ip));
        }
        for (entry, (_, bytes, client)) in resolved.iter().zip(chunk) {
            sums.client_ips += u64::from(*client);
            let Some(entry) = *entry else {
                sums.unresolved += 1;
                continue;
            };
            let country = routing.entry(entry).country;
            sums.count(country, routing.origin_index(entry), entry, *bytes);
        }
    }
}

impl WeeklySnapshot {
    /// Aggregate a finished scan + census. The walk over the scan's table
    /// runs on the caller and one helper thread.
    pub fn build(scan: &WeekScan, census: &ServerCensus, model: &InternetModel) -> WeeklySnapshot {
        let (peering, ()) = peering_walk::<CHUNK, ()>(scan, model, || ());
        WeeklySnapshot::from_peering(scan, census, model, peering)
    }

    /// [`WeeklySnapshot::build`] with its census made by `census`, on the
    /// caller while the helper starts the peering walk, and returned.
    pub(crate) fn build_beside(
        scan: &WeekScan,
        model: &InternetModel,
        census: impl FnOnce() -> ServerCensus,
    ) -> (WeeklySnapshot, ServerCensus) {
        let (peering, census) = peering_walk::<CHUNK, _>(scan, model, census);
        (WeeklySnapshot::from_peering(scan, &census, model, peering), census)
    }

    /// The rest of [`WeeklySnapshot::build`] after the peering walk: the
    /// server view, which needs the census, and the roll-ups.
    fn from_peering(
        scan: &WeekScan,
        census: &ServerCensus,
        model: &InternetModel,
        peering_sums: ViewSums,
    ) -> WeeklySnapshot {
        let week = scan.week;

        // Locality per AS is week-dependent; pre-compute once.
        let locality: Vec<Locality> = (0..model.registry.len() as u32)
            .map(|i| model.graph.locality_of_index(&model.registry, i, week))
            .collect();

        // Server view + geo alignment.
        let mut server_sums = ViewSums::zero(model);
        let mut server_geo = Vec::with_capacity(census.records.len());
        let mut https_bytes = 0u64;
        for record in &census.records {
            let geo = model.routing.lookup(record.ip).and_then(|pidx| {
                let e = model.routing.entry(pidx);
                let as_idx = model.routing.origin_index(pidx);
                Some(ServerGeo {
                    country: e.country,
                    region: model.countries.region(e.country),
                    as_idx,
                    prefix_idx: pidx,
                    locality: *locality.get(as_idx as usize)?,
                })
            });
            if let Some(g) = geo {
                server_sums.count(g.country, g.as_idx, g.prefix_idx, record.bytes);
            }
            if record.https {
                https_bytes += record.bytes;
            }
            server_geo.push(geo);
        }
        let (peering, peering_locality) = peering_sums.stats(model, &locality);
        let (server, server_locality) = server_sums.stats(model, &locality);

        // Published-range tracking (EC2/StormCloud experiments, §4.2).
        let mut range_tracking: BTreeMap<String, (usize, u64)> = BTreeMap::new();
        let ranges = model.servers.published_ranges();
        for record in &census.records {
            for r in ranges {
                if r.prefix.contains(record.ip) {
                    let slot = range_tracking.entry(r.label.clone()).or_default();
                    slot.0 += 1;
                    slot.1 += record.bytes;
                    break;
                }
            }
        }

        // Reseller tracking (§4.2): identified servers whose fabric-side
        // port belongs to a reseller member.
        let mut reseller_servers = Vec::new();
        for asn in model.registry.member_asns() {
            let Some(m) = model.registry.info(*asn).and_then(|i| i.member) else { continue };
            if m.reseller {
                let count = census.records.iter().filter(|r| r.member == m.id).count();
                reseller_servers.push((m.id, count));
            }
        }

        WeeklySnapshot {
            week,
            member_count: model.registry.members_at(week).len() as u32,
            filter: scan.filter.clone(),
            undissectable: scan.undissectable,
            peering,
            server,
            peering_locality,
            server_locality,
            country_peering: peering_sums.country,
            country_server: server_sums.country,
            as_peering: peering_sums.by_as,
            as_server: server_sums.by_as,
            server_geo,
            https: HttpsStats {
                candidates: census.https_candidates,
                responders: census.https_responders,
                confirmed: census.https_confirmed,
                bytes: https_bytes,
            },
            coverage: census.coverage,
            dual_role: census.dual_role(),
            multi_port: census.multi_port_count(),
            range_tracking,
            reseller_servers,
            unresolved_ips: peering_sums.unresolved,
            client_ips: peering_sums.client_ips,
        }
    }

    /// The server-traffic share of peering traffic (paper: > 70 %).
    pub fn server_traffic_share(&self) -> f64 {
        let peering: TrafficEstimate = self.filter.peering();
        if peering.bytes == 0 {
            0.0
        } else {
            // Per-IP byte attribution double-counts flows whose both
            // endpoints are servers; cap at 100.
            (100.0 * self.server.bytes as f64 / peering.bytes as f64).min(100.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::two_core_states;
    use crate::testutil;

    /// `WeeklySnapshot::build` as it stood before the join went through the
    /// routing snapshot's dense indices: a hash probe per IP for the AS
    /// index, and locality by AS number. Frozen; compared field by field.
    fn build_reference(
        scan: &WeekScan,
        census: &ServerCensus,
        model: &InternetModel,
    ) -> WeeklySnapshot {
        let week = scan.week;
        let n_countries = model.countries.len();
        let n_as = model.registry.len();
        let n_prefix = model.routing.len();

        let mut country_peering = vec![(0u64, 0u64); n_countries];
        let mut country_server = vec![(0u64, 0u64); n_countries];
        let mut as_peering = vec![(0u32, 0u64); n_as];
        let mut as_server = vec![(0u32, 0u64); n_as];
        let mut prefix_seen = vec![false; n_prefix];
        let mut prefix_server = vec![false; n_prefix];
        let mut peering = ViewStats::default();
        let mut server_view = ViewStats::default();
        let mut peering_loc = LocalitySplit::default();
        let mut server_loc = LocalitySplit::default();
        let mut unresolved = 0u64;
        let mut client_ips = 0u64;

        // Locality per AS is week-dependent; pre-compute once.
        let locality: Vec<Locality> = (0..n_as as u32)
            .map(|i| {
                let info = model.registry.by_index(i);
                let joined = info.member.map(|m| m.joined.0 <= week.0).unwrap_or(false);
                match model.graph.distance(&model.registry, info.asn).unwrap() {
                    _ if joined => Locality::Member,
                    0 => Locality::Member,
                    1 => Locality::NearMember,
                    _ => Locality::Global,
                }
            })
            .collect();
        let loc_idx = |l: Locality| match l {
            Locality::Member => 0usize,
            Locality::NearMember => 1,
            Locality::Global => 2,
        };

        // Peering view: every unique endpoint IP.
        for (raw_ip, stats) in &scan.ips {
            if stats.evidence.has(Evidence::CLIENT) {
                client_ips += 1;
            }
            let entry = match model.routing.lookup(std::net::Ipv4Addr::from(*raw_ip)) {
                Some(idx) => idx,
                None => {
                    unresolved += 1;
                    continue;
                }
            };
            let e = model.routing.entry(entry);
            let as_idx = model.registry.index_of(e.origin).unwrap() as usize;
            peering.ips += 1;
            peering.bytes += stats.bytes;
            country_peering[e.country.0 as usize].0 += 1;
            country_peering[e.country.0 as usize].1 += stats.bytes;
            as_peering[as_idx].0 += 1;
            as_peering[as_idx].1 += stats.bytes;
            prefix_seen[entry as usize] = true;
            let l = loc_idx(locality[as_idx]);
            peering_loc.ips[l] += 1;
            peering_loc.bytes[l] += stats.bytes;
        }

        // Server view + geo alignment.
        let mut server_geo = Vec::with_capacity(census.records.len());
        let mut https_bytes = 0u64;
        for record in &census.records {
            let geo = model.routing.lookup(record.ip).map(|pidx| {
                let e = model.routing.entry(pidx);
                let as_idx = model.registry.index_of(e.origin).unwrap();
                ServerGeo {
                    country: e.country,
                    region: model.countries.region(e.country),
                    as_idx,
                    prefix_idx: pidx,
                    locality: locality[as_idx as usize],
                }
            });
            if let Some(g) = geo {
                server_view.ips += 1;
                server_view.bytes += record.bytes;
                country_server[g.country.0 as usize].0 += 1;
                country_server[g.country.0 as usize].1 += record.bytes;
                as_server[g.as_idx as usize].0 += 1;
                as_server[g.as_idx as usize].1 += record.bytes;
                prefix_server[g.prefix_idx as usize] = true;
                let l = loc_idx(g.locality);
                server_loc.ips[l] += 1;
                server_loc.bytes[l] += record.bytes;
            }
            if record.https {
                https_bytes += record.bytes;
            }
            server_geo.push(geo);
        }

        // Unique prefix/AS/country roll-ups.
        peering.prefixes = prefix_seen.iter().filter(|b| **b).count() as u64;
        server_view.prefixes = prefix_server.iter().filter(|b| **b).count() as u64;
        peering.ases = as_peering.iter().filter(|(ips, _)| *ips > 0).count() as u64;
        server_view.ases = as_server.iter().filter(|(ips, _)| *ips > 0).count() as u64;
        peering.countries = country_peering.iter().filter(|(ips, _)| *ips > 0).count() as u64;
        server_view.countries = country_server.iter().filter(|(ips, _)| *ips > 0).count() as u64;
        for (i, (ips, _)) in as_peering.iter().enumerate() {
            if *ips > 0 {
                peering_loc.ases[loc_idx(locality[i])] += 1;
            }
        }
        for (i, (ips, _)) in as_server.iter().enumerate() {
            if *ips > 0 {
                server_loc.ases[loc_idx(locality[i])] += 1;
            }
        }
        for (pidx, seen) in prefix_seen.iter().enumerate() {
            if *seen {
                let e = model.routing.entry(pidx as u32);
                let as_idx = model.registry.index_of(e.origin).unwrap() as usize;
                peering_loc.prefixes[loc_idx(locality[as_idx])] += 1;
            }
        }
        for (pidx, seen) in prefix_server.iter().enumerate() {
            if *seen {
                let e = model.routing.entry(pidx as u32);
                let as_idx = model.registry.index_of(e.origin).unwrap() as usize;
                server_loc.prefixes[loc_idx(locality[as_idx])] += 1;
            }
        }

        // Published-range tracking (EC2/StormCloud experiments, §4.2).
        let mut range_tracking: BTreeMap<String, (usize, u64)> = BTreeMap::new();
        let ranges = model.servers.published_ranges();
        for record in &census.records {
            for r in ranges {
                if r.prefix.contains(record.ip) {
                    let slot = range_tracking.entry(r.label.clone()).or_default();
                    slot.0 += 1;
                    slot.1 += record.bytes;
                    break;
                }
            }
        }

        // Reseller tracking (§4.2): identified servers whose fabric-side
        // port belongs to a reseller member.
        let mut reseller_servers = Vec::new();
        for asn in model.registry.member_asns() {
            let info = model.registry.info(*asn).unwrap();
            let m = info.member.unwrap();
            if m.reseller {
                let count = census.records.iter().filter(|r| r.member == m.id).count();
                reseller_servers.push((m.id, count));
            }
        }

        WeeklySnapshot {
            week,
            member_count: model.registry.members_at(week).len() as u32,
            filter: scan.filter.clone(),
            undissectable: scan.undissectable,
            peering,
            server: server_view,
            peering_locality: peering_loc,
            server_locality: server_loc,
            country_peering,
            country_server,
            as_peering,
            as_server,
            server_geo,
            https: HttpsStats {
                candidates: census.https_candidates,
                responders: census.https_responders,
                confirmed: census.https_confirmed,
                bytes: https_bytes,
            },
            coverage: census.coverage,
            dual_role: census.dual_role(),
            multi_port: census.multi_port_count(),
            range_tracking,
            reseller_servers,
            unresolved_ips: unresolved,
            client_ips,
        }
    }

    #[test]
    fn build_matches_the_frozen_reference_on_clean_and_faulty_weeks() {
        let model = testutil::model();
        let weeks = testutil::scanned_weeks();
        assert!(weeks[1].0.ingest_health().collector.lost > 0, "the faulty week lost nothing");
        for (scan, census) in weeks {
            let built = WeeklySnapshot::build(scan, census, model);
            let reference = build_reference(scan, census, model);
            assert!(built.peering.ips > 0 && built.server.ips > 0);
            testutil::assert_same_debug(&built, &reference);
        }
    }

    /// A chunk length no table of [`two_core_states`] reaches: the first
    /// worker to take the lock takes the whole table, and the other walks
    /// nothing.
    const WHOLE: usize = 1 << 14;

    /// The split walk with chunks of `N`, with no side job and with the
    /// census as the side job, against the frozen serial walk's `reference`.
    fn assert_split_walk_matches<const N: usize>(
        scan: &WeekScan,
        census: &ServerCensus,
        reference: &WeeklySnapshot,
    ) {
        let (model, a) = (testutil::model(), testutil::analyzer());
        let (peering, ()) = peering_walk::<N, ()>(scan, model, || ());
        let built = WeeklySnapshot::from_peering(scan, census, model, peering);
        testutil::assert_same_debug(&built, reference);

        let (peering, side) = peering_walk::<N, _>(scan, model, || {
            ServerCensus::identify(scan, model, &a.dns, &a.crawl)
        });
        testutil::assert_same_debug(&side.records, &census.records);
        let built = WeeklySnapshot::from_peering(scan, &side, model, peering);
        testutil::assert_same_debug(&built, reference);
    }

    #[test]
    fn the_split_walk_equals_the_frozen_serial_walk_for_every_chunk_length() {
        let (model, a) = (testutil::model(), testutil::analyzer());
        for scan in two_core_states() {
            assert!(scan.ips.len() < WHOLE);
            let census = ServerCensus::identify(scan, model, &a.dns, &a.crawl);
            let reference = build_reference(scan, &census, model);
            assert_split_walk_matches::<1>(scan, &census, &reference);
            assert_split_walk_matches::<7>(scan, &census, &reference);
            assert_split_walk_matches::<CHUNK>(scan, &census, &reference);
            assert_split_walk_matches::<WHOLE>(scan, &census, &reference);
        }
    }

    #[test]
    fn an_empty_table_gives_the_zero_peering_view() {
        let (model, a) = (testutil::model(), testutil::analyzer());
        let scan = WeekScan::new(Week::REFERENCE, 0);
        let census = ServerCensus::identify(&scan, model, &a.dns, &a.crawl);
        let built = WeeklySnapshot::build(&scan, &census, model);
        assert_eq!(built.peering, ViewStats::default());
        assert_eq!((built.unresolved_ips, built.client_ips), (0, 0));
        testutil::assert_same_debug(&built, &build_reference(&scan, &census, model));
    }

    #[test]
    #[should_panic(expected = "the side job failed")]
    fn a_panicking_side_job_panics_on_the_caller() {
        let (scan, _) = &testutil::scanned_weeks()[0];
        let census = || -> ServerCensus { panic!("the side job failed") };
        let _ = WeeklySnapshot::build_beside(scan, testutil::model(), census);
    }
}
