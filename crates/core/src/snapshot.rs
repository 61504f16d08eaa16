//! The weekly snapshot: every aggregate the paper's tables and figures are
//! computed from, produced by one pass over the scan's per-IP map plus the
//! census.
//!
//! All lookups go through *public* data only — the routing snapshot
//! (RouteViews/GeoLite stand-in), the member directory, the AS graph, and
//! published range lists. Ground truth is never consulted here.

#![deny(clippy::disallowed_types)]

use std::collections::BTreeMap;

use ixp_netmodel::{
    CountryId, InternetModel, Locality, MemberId, Region, Week,
};
use ixp_sflow::TrafficEstimate;

use crate::census::{MetadataCoverage, ServerCensus};
use crate::scan::{Evidence, FilterReport, WeekScan};

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
    pub fn shares(&self, metric: impl Fn(&Self) -> [u64; 3]) -> [f64; 3] {
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
    /// Geo attributes aligned with the census records.
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

impl WeeklySnapshot {
    /// Aggregate a finished scan + census.
    pub fn build(
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
            .map(|i| model.graph.locality_of_index(&model.registry, i, week))
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
            let as_idx = model.routing.origin_index(entry) as usize;
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
                let as_idx = model.routing.origin_index(pidx);
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
        peering.countries =
            country_peering.iter().filter(|(ips, _)| *ips > 0).count() as u64;
        server_view.countries =
            country_server.iter().filter(|(ips, _)| *ips > 0).count() as u64;
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
                let as_idx = model.routing.origin_index(pidx as u32) as usize;
                peering_loc.prefixes[loc_idx(locality[as_idx])] += 1;
            }
        }
        for (pidx, seen) in prefix_server.iter().enumerate() {
            if *seen {
                let as_idx = model.routing.origin_index(pidx as u32) as usize;
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
        peering.countries =
            country_peering.iter().filter(|(ips, _)| *ips > 0).count() as u64;
        server_view.countries =
            country_server.iter().filter(|(ips, _)| *ips > 0).count() as u64;
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
}
