//! The Alexa-style popularity list.
//!
//! §3.3 of the paper recovers ≈ 20 % of the Alexa top-1M second-level
//! domains (63 % of the top-10K, 80 % of the top-1K) from URIs seen in the
//! sampled payloads. The model therefore needs a ranked domain list whose
//! head is dominated by the big content players — whose traffic the IXP
//! definitely sees — and whose tail is full of small sites that may or may
//! not surface in a week of samples.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::orgs::OrgCatalog;
use crate::types::OrgId;

/// One ranked site.
#[derive(Debug, Clone)]
pub struct RankedSite {
    /// 1-based popularity rank.
    pub rank: u32,
    /// The second-level domain.
    pub domain: String,
    /// The organization serving it.
    pub org: OrgId,
}

/// The ranked list.
#[derive(Debug, Clone)]
pub struct PopularityList {
    sites: Vec<RankedSite>,
}

impl PopularityList {
    /// Rank every domain in the organization catalog.
    ///
    /// The ranking is popularity-by-construction: an organization's traffic
    /// multiplier and size push its domains toward the head, with noise so
    /// the list is not a deterministic function of size alone.
    pub(crate) fn build(orgs: &OrgCatalog, seed: u64) -> PopularityList {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5_0006);
        let mut scored: Vec<(f64, String, OrgId)> = Vec::new();
        for org in orgs.iter() {
            let org_score = org.traffic_multiplier * (1.0 + f64::from(org.target_servers)).ln();
            for (k, domain) in org.domains.iter().enumerate() {
                // Within an org the first domains are the flagship sites.
                let within = 1.0 / (1.0 + k as f64).powf(0.7);
                let noise = 0.5 + rng.gen::<f64>();
                scored.push((org_score * within * noise, domain.clone(), org.id));
            }
        }
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        let sites = scored
            .into_iter()
            .enumerate()
            .map(|(i, (_, domain, org))| RankedSite { rank: i as u32 + 1, domain, org })
            .collect();
        PopularityList { sites }
    }

    /// Number of ranked sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True if empty.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The top `n` sites.
    pub fn top(&self, n: usize) -> &[RankedSite] {
        &self.sites[..n.min(self.sites.len())]
    }

    /// All sites in rank order.
    pub fn iter(&self) -> impl Iterator<Item = &RankedSite> {
        self.sites.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::country::CountryTable;
    use crate::registry::AsRegistry;
    use crate::scale::ScaleConfig;

    fn build() -> (PopularityList, OrgCatalog) {
        let countries = CountryTable::build();
        let scale = ScaleConfig::tiny();
        let registry = AsRegistry::generate(&scale, &countries, 77);
        let orgs = OrgCatalog::generate(&scale, &registry, 77);
        let list = PopularityList::build(&orgs, 77);
        (list, orgs)
    }

    #[test]
    fn ranks_are_dense_and_ordered() {
        let (list, _) = build();
        assert!(!list.is_empty());
        for (i, site) in list.iter().enumerate() {
            assert_eq!(site.rank, i as u32 + 1);
        }
    }

    #[test]
    fn covers_all_org_domains() {
        let (list, orgs) = build();
        let total: usize = orgs.iter().map(|o| o.domains.len()).sum();
        assert_eq!(list.len(), total);
    }

    #[test]
    fn head_is_dominated_by_heavy_orgs() {
        let (list, orgs) = build();
        let head = list.top(list.len() / 10);
        let head_mult: f64 = head.iter().map(|s| orgs.get(s.org).traffic_multiplier).sum::<f64>()
            / head.len() as f64;
        let all_mult: f64 = list.iter().map(|s| orgs.get(s.org).traffic_multiplier).sum::<f64>()
            / list.len() as f64;
        assert!(head_mult > all_mult, "head {head_mult:.2} vs all {all_mult:.2}");
    }

    #[test]
    fn deterministic() {
        let (a, orgs) = build();
        let b = PopularityList::build(&orgs, 77);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.domain, y.domain);
        }
    }
}
