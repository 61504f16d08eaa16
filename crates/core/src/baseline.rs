//! Baselines the paper compares against (§2.2.2, §6).
//!
//! * **Port-based traffic classification** ([30, 41] in the paper): call an
//!   IP a Web server if it receives traffic on a well-known Web port,
//!   payload unseen. The comparison quantifies what string matching buys:
//!   port-only classification both *misses* evidence (servers whose sampled
//!   frames are all mid-stream) and *hallucinates* servers (VPN/SSH riding
//!   port 443 through firewalls).
//! * **Ownership-based AS-to-organization mapping** (Cai et al., their ref. 24): an
//!   organization is its own AS(es). The comparison quantifies how much of
//!   a heterogeneously deployed footprint that view cannot express.

use std::collections::HashSet;

use ixp_netmodel::InternetModel;
use ixp_sflow::DatagramView;
use ixp_wire::dissect::{Dissection, Network, Transport};

use crate::analyzer::{Analyzer, WeeklyReport};
use crate::cluster::Clusters;

/// Port-based classification outcome vs. the payload-based census.
#[derive(Debug, Clone, Copy)]
pub struct PortBaseline {
    /// IPs the port heuristic calls servers.
    pub port_servers: usize,
    /// Payload-identified servers (the census).
    pub census_servers: usize,
    /// Port-classified IPs that the census does *not* confirm
    /// (VPN/SSH-on-443 artefacts and other noise).
    pub false_servers: usize,
    /// Census servers the port heuristic misses.
    pub missed_servers: usize,
}

/// The well-known Web ports used by the baseline.
const WEB_PORTS: [u16; 4] = [80, 8080, 443, 1935];

/// Re-stream the week and classify by destination port only.
pub fn port_baseline(analyzer: &Analyzer<'_>, report: &WeeklyReport) -> PortBaseline {
    let mut port_servers: HashSet<u32> = HashSet::new();
    for bytes in analyzer.feed(report.snapshot.week) {
        let Ok(dg) = DatagramView::decode(&bytes) else { continue };
        for sample in dg.flow_samples() {
            let Ok(d) = Dissection::parse(sample.record.header) else { continue };
            let Network::Ipv4 { repr, transport, .. } = &d.network else { continue };
            match transport {
                Transport::Tcp { src_port, dst_port, .. } => {
                    if WEB_PORTS.contains(dst_port) {
                        port_servers.insert(u32::from(repr.dst_addr));
                    }
                    if WEB_PORTS.contains(src_port) {
                        port_servers.insert(u32::from(repr.src_addr));
                    }
                }
                _ => continue,
            }
        }
    }
    let census: HashSet<u32> = report.census.records.iter().map(|r| u32::from(r.ip)).collect();
    let false_servers = port_servers.difference(&census).count();
    let missed_servers = census.difference(&port_servers).count();
    PortBaseline {
        port_servers: port_servers.len(),
        census_servers: census.len(),
        false_servers,
        missed_servers,
    }
}

/// What the AS-to-organization view can and cannot express about one
/// clustered organization.
#[derive(Debug, Clone, Copy)]
pub struct AsOrgBaseline {
    /// The cluster's servers in total.
    pub servers: usize,
    /// Servers inside the organization's own AS(es) — all the baseline can
    /// attribute.
    pub in_own_as: usize,
    /// Servers in third-party ASes — invisible to the ownership view.
    pub in_third_party: usize,
    /// Share of the footprint the baseline misses (percent).
    pub missed_share: f64,
}

/// Evaluate the AS-to-org baseline for one cluster. The organization's
/// "own" AS is taken as the AS hosting the plurality of its servers — the
/// best the ownership view could possibly do.
pub fn as_org_baseline(
    report: &WeeklyReport,
    clusters: &Clusters,
    key: &str,
) -> Option<AsOrgBaseline> {
    let (cid, _) = clusters.by_key(key)?;
    let mut per_as: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    let mut total = 0usize;
    for g in clusters.members(report, cid).filter_map(|(_, geo)| geo) {
        *per_as.entry(g.as_idx).or_default() += 1;
        total += 1;
    }
    let own = per_as.values().max().copied().unwrap_or(0);
    Some(AsOrgBaseline {
        servers: total,
        in_own_as: own,
        in_third_party: total - own,
        missed_share: 100.0 * (total - own) as f64 / total.max(1) as f64,
    })
}

/// A model-validated summary across the biggest clusters: how many
/// heterogeneously deployed servers the ownership view loses overall.
pub fn validate_as_org_coverage(
    report: &WeeklyReport,
    clusters: &Clusters,
    model: &InternetModel,
) -> f64 {
    // Ground truth: a server is attributable by the ownership view iff it
    // sits in its true organization's home AS.
    let mut total = 0usize;
    let mut attributable = 0usize;
    for r in &report.census.records {
        let Some(s) = model.servers.by_ip(r.ip) else { continue };
        let org = model.orgs.get(s.org);
        total += 1;
        if Some(s.asn) == org.home_asn {
            attributable += 1;
        }
    }
    let _ = clusters;
    100.0 * (total - attributable) as f64 / total.max(1) as f64
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
    fn port_baseline_differs_from_payload_census() {
        let (_, analyzer, report, _) = setup();
        let b = port_baseline(analyzer, report);
        assert!(b.port_servers > 0);
        assert!(b.census_servers > 0);
        // The port view hallucinates servers (VPN on 443).
        assert!(b.false_servers > 0, "port classification should over-claim");
    }

    #[test]
    fn ownership_view_misses_cdn_spread() {
        let (_, _, report, clusters) = setup();
        let b = as_org_baseline(report, clusters, "akamai.example").expect("akamai baseline");
        assert!(b.servers > 0);
        assert_eq!(b.servers, b.in_own_as + b.in_third_party);
        assert!(b.in_third_party > 0, "CDN footprint should extend beyond its own AS");
    }

    #[test]
    fn validated_coverage_gap_is_substantial() {
        let (model, _, report, clusters) = setup();
        let missed = validate_as_org_coverage(report, clusters, model);
        assert!(missed > 5.0, "only {missed:.1}% outside home ASes");
        assert!(missed < 95.0);
    }
}
