//! Blind-spot analysis (paper §3.3): what the vantage point *cannot* see,
//! established with IXP-external measurements.
//!
//! Three experiments:
//!
//! 1. **Domain recovery** — which share of the popularity list's domains
//!    surfaced in the sampled URIs (paper: 20 % of the top-1M, 63 % of the
//!    top-10K, 80 % of the top-1K);
//! 2. **Resolver campaign** — resolve uncovered domains through the open
//!    resolvers, harvest server IPs, and split them into already-seen vs.
//!    unseen (paper: ≈ 600K found, > 360K already seen);
//! 3. **Unseen classification** — bucket the servers the IXP never sees
//!    (paper: private clusters and far-away servers are > 40 %).
//!
//! Both campaigns query through [`ResolverPool::resolve_with_retry`] with a
//! campaign-scoped [`Quarantine`]: flapping resolvers are retried under a
//! simulated deadline budget, dead slots fail over, and because each
//! campaign owns its quarantine table and queries sequentially the whole
//! run stays deterministic.
//!
//! [`ResolverPool::resolve_with_retry`]: ixp_dns::ResolverPool::resolve_with_retry

use std::collections::{BTreeMap, HashMap, HashSet};

use ixp_faults::Quarantine;
use ixp_netmodel::{AsRole, InternetModel, Region, Week};

use crate::analyzer::{Analyzer, WeeklyReport};

/// Consecutive budget-exhausting failures before a campaign stops asking a
/// resolver slot.
const RESOLVER_QUARANTINE_THRESHOLD: u32 = 2;

/// Domain-recovery rates at the paper's three cut-offs.
#[derive(Debug, Clone, Copy)]
pub struct DomainRecovery {
    /// Share of the full list recovered from URIs (paper ≈ 20 %).
    pub full_list: f64,
    /// Share of the top decile (the "top-10K" analogue).
    pub top_decile: f64,
    /// Share of the top percentile (the "top-1K" analogue).
    pub top_percentile: f64,
}

/// Compute domain recovery from the observed URIs.
pub fn domain_recovery(report: &WeeklyReport, model: &InternetModel) -> DomainRecovery {
    let observed: HashSet<&str> = report
        .census
        .records
        .iter()
        .flat_map(|r| r.uris.iter().map(String::as_str))
        .collect();
    let rate = |n: usize| -> f64 {
        if n == 0 {
            return 0.0;
        }
        let hit = model
            .popularity
            .top(n)
            .iter()
            .filter(|s| observed.contains(s.domain.as_str()))
            .count();
        100.0 * hit as f64 / n as f64
    };
    let total = model.popularity.len();
    DomainRecovery {
        full_list: rate(total),
        top_decile: rate((total / 10).max(1)),
        top_percentile: rate((total / 100).max(1)),
    }
}

/// Why an actively-discovered server IP is invisible at the IXP (paper's
/// four §3.3 categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum UnseenReason {
    /// Answered only by resolvers inside its own AS: a private cluster.
    PrivateCluster,
    /// Hosted far from the IXP's region.
    FarAway,
    /// Hosted by a small organization/university network.
    SmallOrigin,
    /// None of the structural explanations apply (the paper's error-handler
    /// bucket and other residue).
    Other,
}

/// Result of the resolver campaign.
#[derive(Debug, Clone)]
pub struct ResolverCampaign {
    /// Domains queried.
    pub domains_queried: usize,
    /// Distinct server IPs harvested.
    pub found: usize,
    /// Of those, already identified at the IXP this week.
    pub already_seen: usize,
    /// Unseen IPs per reason bucket.
    pub unseen: BTreeMap<UnseenReason, usize>,
    /// Queries that failed over past at least one resolver slot.
    pub failovers: usize,
    /// Resolver slots the campaign quarantined as persistently dead.
    pub quarantined_resolvers: usize,
}

impl ResolverCampaign {
    /// Unseen total.
    pub fn unseen_total(&self) -> usize {
        self.unseen.values().sum()
    }

    /// Share of unseen servers explained by the first two categories
    /// (paper: > 40 %).
    pub fn structural_share(&self) -> f64 {
        let a = self.unseen.get(&UnseenReason::PrivateCluster).copied().unwrap_or(0);
        let b = self.unseen.get(&UnseenReason::FarAway).copied().unwrap_or(0);
        100.0 * (a + b) as f64 / self.unseen_total().max(1) as f64
    }
}

/// European-ish country codes considered "near" the vantage point.
fn near_codes() -> HashSet<&'static str> {
    [
        "DE", "NL", "FR", "GB", "BE", "LU", "AT", "CH", "CZ", "PL", "DK", "SE", "NO", "FI",
        "IT", "ES", "PT", "IE", "HU", "SK", "SI", "HR", "RO", "BG", "GR", "EE", "LV", "LT",
        "UA", "RU", "EU",
    ]
    .into_iter()
    .collect()
}

/// Run the resolver campaign over the popularity domains the URIs did not
/// cover, using `resolvers_per_domain` vetted resolvers each.
pub fn resolver_campaign(
    analyzer: &Analyzer<'_>,
    report: &WeeklyReport,
    week: Week,
    resolvers_per_domain: usize,
) -> ResolverCampaign {
    let model = analyzer.model;
    let observed: HashSet<&str> = report
        .census
        .records
        .iter()
        .flat_map(|r| r.uris.iter().map(String::as_str))
        .collect();
    let near = near_codes();

    // Which uncovered domains to chase: the paper uses the whole top-1M;
    // we use the whole list. One quarantine table for the whole campaign:
    // slots that keep timing out stop consuming the deadline budget.
    let quarantine = Quarantine::new(RESOLVER_QUARANTINE_THRESHOLD);
    let usable: Vec<_> = analyzer.resolvers.usable().collect();
    let mut found: HashMap<u32, HashSet<u32>> = HashMap::new(); // ip -> answering-resolver AS dense idx
    let mut domains_queried = 0usize;
    let mut failovers = 0usize;
    for (di, site) in model.popularity.iter().enumerate() {
        if observed.contains(site.domain.as_str()) {
            continue;
        }
        domains_queried += 1;
        if usable.is_empty() {
            continue;
        }
        for k in 0..resolvers_per_domain {
            // Deterministic resolver pick, spread per domain.
            let resolver_idx = di.wrapping_mul(97).wrapping_add(k * 31);
            let out = analyzer.resolvers.resolve_with_retry(
                model,
                &site.domain,
                resolver_idx,
                week,
                &quarantine,
            );
            if out.failovers > 0 {
                failovers += 1;
            }
            // Attribution must follow the slot that actually answered —
            // failover may have moved the query off `resolver_idx`.
            let slot = match out.resolver {
                Some(slot) => slot,
                None => continue,
            };
            if out.answers.is_empty() {
                continue;
            }
            // The answering resolver's AS (for the private-cluster test).
            let resolver = usable[slot % usable.len()];
            let resolver_as = model.registry.index_of(resolver.asn).unwrap_or(0);
            for ip in out.answers {
                found.entry(u32::from(ip)).or_default().insert(resolver_as);
            }
        }
    }

    let mut already_seen = 0usize;
    let mut unseen: BTreeMap<UnseenReason, usize> = BTreeMap::new();
    for (raw_ip, resolver_ases) in &found {
        let ip = std::net::Ipv4Addr::from(*raw_ip);
        if report.census.get(ip).is_some() {
            already_seen += 1;
            continue;
        }
        // Classify the unseen IP with public data only.
        let reason = match model.routing.lookup(ip) {
            Some(pidx) => {
                let entry = model.routing.entry(pidx);
                let as_idx = model.routing.origin_index(pidx);
                let only_in_as = resolver_ases.len() == 1 && resolver_ases.contains(&as_idx);
                let code = model.countries.code(entry.country);
                let info = model.registry.by_index(as_idx);
                if only_in_as {
                    UnseenReason::PrivateCluster
                } else if !near.contains(code)
                    && model.countries.region(entry.country) != Region::De
                {
                    UnseenReason::FarAway
                } else if matches!(
                    info.role,
                    AsRole::University | AsRole::EyeballSmall | AsRole::Enterprise
                ) {
                    UnseenReason::SmallOrigin
                } else {
                    UnseenReason::Other
                }
            }
            None => UnseenReason::Other,
        };
        *unseen.entry(reason).or_default() += 1;
    }

    ResolverCampaign {
        domains_queried,
        found: found.len(),
        already_seen,
        unseen,
        failovers,
        quarantined_resolvers: quarantine.quarantined_count(),
    }
}

/// The Akamai-style case study (§3.3): IXP view vs. active-measurement view
/// vs. published ground truth for one organization.
#[derive(Debug, Clone, Copy)]
pub struct FootprintCaseStudy {
    /// Servers of the org identified at the IXP this week.
    pub ixp_servers: usize,
    /// Distinct ASes of those servers.
    pub ixp_ases: usize,
    /// Servers found by the active campaign (IXP ∪ resolvers).
    pub active_servers: usize,
    /// Distinct ASes of the active view.
    pub active_ases: usize,
    /// Ground-truth servers (published footprint).
    pub truth_servers: usize,
    /// Ground-truth ASes.
    pub truth_ases: usize,
}

/// Run the case study for one cluster key. The `validate_` prefix marks the
/// ground-truth comparison.
pub fn validate_footprint_case_study(
    analyzer: &Analyzer<'_>,
    report: &WeeklyReport,
    clusters: &crate::cluster::Clusters,
    key: &str,
    week: Week,
    resolvers_per_domain: usize,
) -> Option<FootprintCaseStudy> {
    let model = analyzer.model;
    let (cid, _) = clusters.by_key(key)?;

    // IXP view.
    let mut ixp_ips: HashSet<u32> = HashSet::new();
    let mut ixp_ases: HashSet<u32> = HashSet::new();
    for (idx, a) in clusters.assignments.iter().enumerate() {
        if matches!(a, Some((c, _)) if *c == cid) {
            ixp_ips.insert(u32::from(report.census.records[idx].ip));
            if let Some(g) = report.snapshot.server_geo[idx] {
                ixp_ases.insert(g.as_idx);
            }
        }
    }

    // Active view: resolve the org's observed URIs through many resolvers.
    let mut active_ips = ixp_ips.clone();
    let mut active_ases = ixp_ases.clone();
    // Sorted: the campaign-scoped quarantine makes query order matter, so
    // the iteration order must be deterministic.
    let mut domains: Vec<&str> = clusters
        .assignments
        .iter()
        .enumerate()
        .filter(|(_, a)| matches!(a, Some((c, _)) if *c == cid))
        .flat_map(|(idx, _)| report.census.records[idx].uris.iter().map(String::as_str))
        .collect::<HashSet<&str>>()
        .into_iter()
        .collect();
    domains.sort_unstable();
    let quarantine = Quarantine::new(RESOLVER_QUARANTINE_THRESHOLD);
    for (di, domain) in domains.iter().enumerate() {
        for k in 0..resolvers_per_domain {
            let out = analyzer.resolvers.resolve_with_retry(
                model,
                domain,
                di * 131 + k * 17,
                week,
                &quarantine,
            );
            for ip in out.answers {
                active_ips.insert(u32::from(ip));
                if let Some(pidx) = model.routing.lookup(ip) {
                    active_ases.insert(model.routing.origin_index(pidx));
                }
            }
        }
    }

    // Ground truth ("publicly stated" footprint).
    let truth_org = model
        .orgs
        .iter()
        .find(|o| o.soa_domain == key)
        .map(|o| o.id)?;
    let mut truth_servers = 0usize;
    let mut truth_ases: HashSet<u32> = HashSet::new();
    for s in model.servers.servers() {
        if s.org == truth_org && s.exists_in(week) {
            truth_servers += 1;
            if let Some(as_idx) = model.registry.index_of(s.asn) {
                truth_ases.insert(as_idx);
            }
        }
    }

    Some(FootprintCaseStudy {
        ixp_servers: ixp_ips.len(),
        ixp_ases: ixp_ases.len(),
        active_servers: active_ips.len(),
        active_ases: active_ases.len(),
        truth_servers,
        truth_ases: truth_ases.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use ixp_netmodel::InternetModel;

    fn setup() -> (&'static InternetModel, &'static Analyzer<'static>, &'static WeeklyReport) {
        (testutil::model(), testutil::analyzer(), testutil::reference())
    }

    #[test]
    fn domain_recovery_favours_the_head() {
        let (model, _, report) = setup();
        let r = domain_recovery(report, model);
        // The tiny-scale percentile bucket holds only a few dozen domains,
        // so allow sampling noise on the monotonicity; the paper-scale
        // harness reports the clean 80/63/20 ordering (EXPERIMENTS.md E23).
        assert!(r.top_percentile >= r.top_decile - 10.0, "{r:?}");
        assert!(r.top_decile >= r.full_list - 5.0, "{r:?}");
        assert!(r.top_percentile > 0.0, "nothing recovered at the head");
        assert!(r.full_list < 100.0, "full recovery is implausible");
    }

    #[test]
    fn resolver_campaign_finds_unseen_servers() {
        let (_, analyzer, report) = setup();
        let c = resolver_campaign(analyzer, report, Week::REFERENCE, 8);
        assert!(c.domains_queried > 0);
        assert!(c.found > 0);
        assert!(c.already_seen > 0, "campaign should rediscover known servers");
        assert!(c.unseen_total() > 0, "campaign should also find unseen servers");
    }

    #[test]
    fn footprint_case_study_orders_views_correctly() {
        let (_, analyzer, report) = setup();
        let clusters = testutil::clusters();
        let cs = validate_footprint_case_study(
            analyzer,
            report,
            clusters,
            "akamai.example",
            Week::REFERENCE,
            12,
        )
        .expect("akamai case study");
        // Active measurements see at least as much as the IXP alone, and
        // the published truth is the largest.
        assert!(cs.active_servers >= cs.ixp_servers);
        assert!(cs.truth_servers >= cs.ixp_servers);
        assert!(cs.truth_ases >= 1);
        assert!(
            cs.truth_servers > cs.ixp_servers,
            "hidden footprint should exceed the IXP view: {cs:?}"
        );
    }
}
