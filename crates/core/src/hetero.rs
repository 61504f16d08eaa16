//! Heterogeneity analyses (paper §5.2/§5.3): the Fig. 6 scatters and the
//! Fig. 7 link-usage study.

use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};

use ixp_netmodel::MemberId;
use ixp_sflow::DatagramView;
use ixp_wire::dissect::{Dissection, Network, Transport};

use crate::analyzer::{Analyzer, WeeklyReport};
use crate::cluster::Clusters;
use crate::scan::member_of;

/// Fig. 6b: one dot per organization with more than `min_servers` servers.
#[derive(Debug, Clone)]
pub struct Fig6b {
    /// (cluster key, #server IPs, #ASes).
    pub points: Vec<(String, usize, usize)>,
    /// Clusters above the "large" threshold (paper: 143 above 1000 IPs).
    pub large_count: usize,
    /// The large threshold used.
    pub large_threshold: usize,
}

/// Produce Fig. 6b from a clustering.
pub fn fig6b(clusters: &Clusters, min_servers: usize, large_threshold: usize) -> Fig6b {
    let points: Vec<(String, usize, usize)> = clusters
        .clusters
        .iter()
        .filter(|c| c.size > min_servers)
        .map(|c| (c.key.clone(), c.size, c.ases))
        .collect();
    let large_count = clusters.clusters.iter().filter(|c| c.size > large_threshold).count();
    Fig6b { points, large_count, large_threshold }
}

/// Fig. 6c: one dot per AS hosting servers of clustered organizations.
#[derive(Debug, Clone)]
pub struct Fig6c {
    /// (dense AS index, #server IPs hosted, #organizations hosted).
    pub points: Vec<(u32, usize, usize)>,
    /// ASes hosting more than 5 organizations (paper: > 500).
    pub over_5_orgs: usize,
    /// ASes hosting more than 10 organizations (paper: > 200).
    pub over_10_orgs: usize,
}

/// Produce Fig. 6c. Only organizations with more than `min_servers` servers
/// count, as in the paper.
pub fn fig6c(report: &WeeklyReport, clusters: &Clusters, min_servers: usize) -> Fig6c {
    let big: HashSet<u32> = clusters
        .clusters
        .iter()
        .enumerate()
        .filter(|(_, c)| c.size > min_servers)
        .map(|(i, _)| i as u32)
        .collect();
    let mut per_as: HashMap<u32, (usize, HashSet<u32>)> = HashMap::new();
    for (_, geo, a) in clusters.walk(report) {
        let (Some(geo), Some((cid, _))) = (geo, a) else { continue };
        if !big.contains(&cid) {
            continue;
        }
        let slot = per_as.entry(geo.as_idx).or_default();
        slot.0 += 1;
        slot.1.insert(cid);
    }
    let mut points: Vec<(u32, usize, usize)> =
        per_as.into_iter().map(|(as_idx, (ips, orgs))| (as_idx, ips, orgs.len())).collect();
    // Out of `HashMap` order: renderers list and rank these rows.
    points.sort_unstable_by_key(|&(as_idx, _, _)| as_idx);
    let over_5_orgs = points.iter().filter(|(_, _, orgs)| *orgs > 5).count();
    let over_10_orgs = points.iter().filter(|(_, _, orgs)| *orgs > 10).count();
    Fig6c { points, over_5_orgs, over_10_orgs }
}

/// Fig. 7: per-member link usage for one organization's traffic.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// The cluster key analysed.
    pub key: String,
    /// The member identified as the organization's own port.
    pub home_member: MemberId,
    /// One dot per member exchanging the org's traffic: (member, % of the
    /// member's org-traffic on the direct link, % of all org traffic this
    /// member accounts for).
    pub points: Vec<(MemberId, f64, f64)>,
    /// Share of the organization's traffic *not* on its direct links
    /// (paper, Akamai: 11.1 %).
    pub offlink_share: f64,
    /// Organization servers observed only via non-direct links (paper:
    /// > 15K of 28K for Akamai).
    pub servers_via_other_links: usize,
    /// All organization servers observed in the pass.
    pub servers_total: usize,
}

/// Second pass over the week's feed: attribute one organization's traffic
/// to direct vs. other member links (paper Fig. 7).
pub fn link_usage(
    analyzer: &Analyzer<'_>,
    report: &WeeklyReport,
    clusters: &Clusters,
    key: &str,
) -> Option<Fig7> {
    let (cid, _) = clusters.by_key(key)?;
    // The org's server IPs and its home member: the member port carrying
    // the plurality of its server-side bytes.
    let mut server_ips: HashSet<u32> = HashSet::new();
    let mut member_bytes: HashMap<u32, u64> = HashMap::new();
    for (r, _) in clusters.members(report, cid) {
        server_ips.insert(u32::from(r.ip));
        *member_bytes.entry(r.member.0).or_default() += r.bytes;
    }
    let home_member = heaviest(&member_bytes)?;

    // Re-stream the week's feed.
    let mut per_member: HashMap<u32, (u64, u64)> = HashMap::new(); // member -> (direct, other)
    let mut servers_direct: HashSet<u32> = HashSet::new();
    let mut servers_other: HashSet<u32> = HashSet::new();
    for bytes in analyzer.feed(report.snapshot.week) {
        let Ok(dg) = DatagramView::decode(&bytes) else { continue };
        for sample in dg.flow_samples() {
            let Ok(d) = Dissection::parse(sample.record.header) else { continue };
            let Network::Ipv4 { repr, transport, .. } = &d.network else { continue };
            if !matches!(transport, Transport::Tcp { .. }) {
                continue;
            }
            let src = u32::from(repr.src_addr);
            let dst = u32::from(repr.dst_addr);
            let (server_ip, server_mac, client_mac) = if server_ips.contains(&src) {
                (src, d.src_mac, d.dst_mac)
            } else if server_ips.contains(&dst) {
                (dst, d.dst_mac, d.src_mac)
            } else {
                continue;
            };
            let (Some(server_m), Some(client_m)) = (member_of(server_mac), member_of(client_mac))
            else {
                continue;
            };
            let vol = u64::from(sample.sampling_rate) * u64::from(sample.record.frame_length);
            let slot = per_member.entry(client_m.0).or_default();
            if server_m == home_member {
                slot.0 += vol;
                servers_direct.insert(server_ip);
            } else {
                slot.1 += vol;
                servers_other.insert(server_ip);
            }
        }
    }

    let org_total: u64 = per_member.values().map(|(a, b)| a + b).sum();
    if org_total == 0 {
        return None;
    }
    let mut points: Vec<(MemberId, f64, f64)> = per_member
        .iter()
        .map(|(m, (direct, other))| {
            let member_total = direct + other;
            (
                MemberId(*m),
                100.0 * *direct as f64 / member_total as f64,
                100.0 * member_total as f64 / org_total as f64,
            )
        })
        .collect();
    points.sort_by_key(|(m, ..)| m.0);
    let off: u64 = per_member.values().map(|(_, other)| *other).sum();
    let servers_total: HashSet<u32> = servers_direct.union(&servers_other).copied().collect();
    Some(Fig7 {
        key: key.to_string(),
        home_member,
        offlink_share: 100.0 * off as f64 / org_total as f64,
        servers_via_other_links: servers_other.len(),
        servers_total: servers_total.len(),
        points,
    })
}

/// The member carrying the most bytes; of members that tie, the lowest id,
/// so the pick does not follow the map's iteration order.
fn heaviest(member_bytes: &HashMap<u32, u64>) -> Option<MemberId> {
    member_bytes.iter().max_by_key(|&(&m, &b)| (b, Reverse(m))).map(|(&m, _)| MemberId(m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use ixp_netmodel::InternetModel;

    fn setup() -> (
        &'static InternetModel,
        &'static Analyzer<'static>,
        &'static WeeklyReport,
        &'static Clusters,
    ) {
        (testutil::model(), testutil::analyzer(), testutil::reference(), testutil::clusters())
    }

    #[test]
    fn fig6b_points_are_plausible() {
        let (model, _, _, clusters) = setup();
        let f = fig6b(clusters, 2, 50);
        assert!(!f.points.is_empty());
        for (_, ips, ases) in &f.points {
            assert!(*ases >= 1);
            assert!(*ips > 2);
            assert!(ases <= ips, "more ASes than servers?");
        }
        // Spread exists: at least one org covers several ASes.
        assert!(f.points.iter().any(|(_, _, a)| *a > 3), "no multi-AS org");
        let _ = model;
    }

    #[test]
    fn fig6c_shows_heterogeneous_ases() {
        let (_, _, report, clusters) = setup();
        let f = fig6c(report, clusters, 1);
        assert!(!f.points.is_empty());
        // Some AS hosts servers of more than one organization.
        assert!(f.points.iter().any(|(_, _, orgs)| *orgs > 1), "no AS hosts multiple orgs");
        assert!(
            f.points.windows(2).all(|w| w[0].0 < w[1].0),
            "points must come out in AS-index order, not hash order"
        );
    }

    #[test]
    fn fig7_attributes_cdn_traffic() {
        let (_, analyzer, report, clusters) = setup();
        let f = link_usage(analyzer, report, clusters, "akamai.example")
            .expect("akamai-like link usage");
        assert!(!f.points.is_empty());
        assert!(f.servers_total > 0);
        assert!(f.offlink_share >= 0.0 && f.offlink_share <= 100.0);
        // Off-link traffic exists (the heterogenization signature) but the
        // direct links dominate.
        assert!(f.offlink_share > 0.5, "no off-link traffic: {:.2}%", f.offlink_share);
        assert!(f.offlink_share < 60.0, "direct links should dominate: {:.2}%", f.offlink_share);
        // x-values are percentages.
        for (_, x, y) in &f.points {
            assert!((0.0..=100.0).contains(x));
            assert!(*y >= 0.0);
        }
    }

    #[test]
    fn the_home_member_of_a_byte_tie_is_the_lower_id() {
        // Each map hashes with its own random state, so some of these
        // iterate the tied members in one order and some in the other.
        for _ in 0..32 {
            let bytes: HashMap<u32, u64> = [(9, 50), (7, 100), (3, 100), (5, 99)].into();
            assert_eq!(heaviest(&bytes), Some(MemberId(3)));
        }
        assert_eq!(heaviest(&HashMap::new()), None);
    }

    #[test]
    fn fig7_missing_cluster_returns_none() {
        let (_, analyzer, report, clusters) = setup();
        assert!(link_usage(analyzer, report, clusters, "nonexistent.example").is_none());
    }
}
