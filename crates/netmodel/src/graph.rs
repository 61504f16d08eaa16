//! The AS-level topology: provider edges, BFS distances from the IXP member
//! set, and the gateway member through which each AS's traffic crosses the
//! IXP fabric.
//!
//! Table 3 of the paper splits the routed-AS population into A(L) (members),
//! A(M) (one AS-hop from a member), and A(G) (further away). Those classes
//! are *computed* here from an explicit graph — the same BFS a researcher
//! would run on public BGP data — not assigned. The edge model is a
//! customer-provider hierarchy: every non-member AS buys transit from one to
//! three providers, which with calibrated probability are IXP members
//! (Europe's big transits and eyeballs all peer at the IXP), non-member
//! transits, or regional aggregators.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::country::CountryTable;
use crate::registry::{AsRegistry, AsRole};
use crate::types::{Asn, Locality, MemberId, Week};

/// Probability that any single provider pick lands on an IXP member.
/// Calibrated so that ≈ 49 % of ASes end up at distance 1 (Table 3's A(M)).
const P_PROVIDER_IS_MEMBER: f64 = 0.34;

/// Probability that a distant (RoW) AS attaches through an IXP reseller.
const P_RESELLER_ATTACH: f64 = 0.08;

/// The computed topology.
#[derive(Debug, Clone)]
pub struct AsGraph {
    /// Per dense-AS-index: distance (in AS hops) to the nearest member of
    /// the reference-week member set. Members have distance 0.
    distance: Vec<u8>,
    /// Per dense-AS-index: the member whose IXP port carries this AS's
    /// traffic (members map to themselves).
    gateway: Vec<MemberId>,
    /// Per dense-AS-index: provider adjacency (dense indices).
    providers: Vec<Vec<u32>>,
}

impl AsGraph {
    /// Build the topology for a generated registry.
    pub fn build(
        registry: &AsRegistry,
        countries: &CountryTable,
        seed: u64,
    ) -> AsGraph {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5_0002);
        let n = registry.len();

        // Candidate provider pools (dense indices).
        let mut member_transit: Vec<u32> = Vec::new(); // members able to carry transit
        let mut member_resellers: Vec<u32> = Vec::new();
        let mut nonmember_transit: Vec<u32> = Vec::new();
        let mut regional: Vec<u32> = Vec::new();
        for (i, info) in registry.iter().enumerate() {
            let i = i as u32;
            let is_member = info.member.is_some();
            match info.role {
                AsRole::Tier1 | AsRole::Transit => {
                    if is_member {
                        member_transit.push(i);
                    } else {
                        nonmember_transit.push(i);
                    }
                }
                AsRole::EyeballLarge | AsRole::Hoster => {
                    if is_member {
                        member_transit.push(i);
                    } else {
                        regional.push(i);
                    }
                }
                AsRole::Reseller if is_member => member_resellers.push(i),
                _ => {}
            }
        }
        assert!(!member_transit.is_empty(), "no transit-capable members");
        if nonmember_transit.is_empty() {
            // Degenerate tiny models: fall back to members only.
            nonmember_transit = member_transit.clone();
        }

        let mut providers: Vec<Vec<u32>> = vec![Vec::new(); n];
        let row = |t: &CountryTable, c| t.region(c) == crate::types::Region::RoW;

        for (i, info) in registry.iter().enumerate() {
            // Established members peer at the IXP and need no providers;
            // members that join *during* the study still need providers for
            // the weeks before they join.
            if info.member.map(|m| m.joined.0 == 0).unwrap_or(false) {
                continue;
            }
            // Non-member transits must reach the IXP: force one member uplink.
            if matches!(info.role, AsRole::Tier1 | AsRole::Transit) {
                let p = member_transit[rng.gen_range(0..member_transit.len())];
                providers[i].push(p);
                continue;
            }
            // Distant ASes sometimes come in through a reseller.
            if !member_resellers.is_empty()
                && row(countries, info.country)
                && rng.gen::<f64>() < P_RESELLER_ATTACH
            {
                let p = member_resellers[rng.gen_range(0..member_resellers.len())];
                providers[i].push(p);
                continue;
            }
            let k = match rng.gen::<f64>() {
                x if x < 0.50 => 1,
                x if x < 0.85 => 2,
                _ => 3,
            };
            for _ in 0..k {
                let x: f64 = rng.gen();
                let pool = if x < P_PROVIDER_IS_MEMBER {
                    &member_transit
                } else if x < P_PROVIDER_IS_MEMBER + 0.55 || regional.is_empty() {
                    &nonmember_transit
                } else {
                    &regional
                };
                let p = pool[rng.gen_range(0..pool.len())];
                if p != i as u32 && !providers[i].contains(&p) {
                    providers[i].push(p);
                }
            }
            if providers[i].is_empty() {
                providers[i].push(member_transit[rng.gen_range(0..member_transit.len())]);
            }
        }

        // Regional aggregators (non-member eyeballs/hosters picked as
        // providers) need upstreams of their own if they have none.
        for (i, upstreams) in providers.iter_mut().enumerate() {
            let info = registry.by_index(i as u32);
            if info.member.is_none()
                && upstreams.is_empty()
                && !matches!(info.role, AsRole::Tier1 | AsRole::Transit)
            {
                upstreams.push(member_transit[rng.gen_range(0..member_transit.len())]);
            }
        }

        let (distance, gateway) = bfs_from_members(registry, &providers);
        AsGraph { distance, gateway, providers }
    }

    /// The distance class of an AS (Table 3's A(L)/A(M)/A(G)) as of the
    /// reference week: members that have joined by then count as A(L), and
    /// everyone else by BFS distance from the established member set.
    pub fn locality(&self, registry: &AsRegistry, asn: Asn) -> Option<Locality> {
        self.locality_at(registry, asn, Week::REFERENCE)
    }

    /// The distance class of an AS at a specific week.
    pub fn locality_at(&self, registry: &AsRegistry, asn: Asn, week: Week) -> Option<Locality> {
        registry.index_of(asn).map(|i| self.locality_of_index(registry, i, week))
    }

    /// [`AsGraph::locality_at`] for the AS at a dense registry index.
    pub fn locality_of_index(&self, registry: &AsRegistry, index: u32, week: Week) -> Locality {
        let info = registry.by_index(index);
        if info.member.map(|m| m.joined.0 <= week.0).unwrap_or(false) {
            return Locality::Member;
        }
        match self.distance[index as usize] {
            0 => Locality::Member,
            1 => Locality::NearMember,
            _ => Locality::Global,
        }
    }

    /// Distance in AS hops from the nearest member.
    pub fn distance(&self, registry: &AsRegistry, asn: Asn) -> Option<u8> {
        registry.index_of(asn).map(|i| self.distance[i as usize])
    }

    /// The member port this AS's traffic uses at the given week. ASes that
    /// are members themselves (and have joined by `week`) use their own
    /// port; everyone else uses their BFS gateway.
    pub fn gateway(&self, registry: &AsRegistry, asn: Asn, week: Week) -> Option<MemberId> {
        let info = registry.info(asn)?;
        if let Some(m) = info.member {
            if m.joined.0 <= week.0 {
                return Some(m.id);
            }
        }
        registry.index_of(asn).map(|i| self.gateway[i as usize])
    }

    /// Provider adjacency of an AS (dense indices), for tests/inspection.
    pub fn providers_of(&self, registry: &AsRegistry, asn: Asn) -> Option<&[u32]> {
        registry.index_of(asn).map(|i| self.providers[i as usize].as_slice())
    }

    /// ASes whose gateway is the given member (the member's "customer cone"
    /// as seen from the fabric).
    pub fn cone_of(&self, registry: &AsRegistry, member: MemberId) -> Vec<Asn> {
        (0..registry.len() as u32)
            .filter(|i| self.gateway[*i as usize] == member)
            .map(|i| registry.by_index(i).asn)
            .collect()
    }
}

/// Multi-source BFS from the member set over the undirected provider graph,
/// also propagating the gateway member along BFS tree edges.
fn bfs_from_members(
    registry: &AsRegistry,
    providers: &[Vec<u32>],
) -> (Vec<u8>, Vec<MemberId>) {
    let n = registry.len();
    // Undirected adjacency.
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, ps) in providers.iter().enumerate() {
        for &p in ps {
            adj[i].push(p);
            adj[p as usize].push(i as u32);
        }
    }

    let mut distance = vec![u8::MAX; n];
    let mut gateway = vec![MemberId(0); n];
    let mut queue = std::collections::VecDeque::new();
    for (i, info) in registry.iter().enumerate() {
        // BFS sources are the established members; late joiners keep their
        // provider-derived distance/gateway for the pre-join weeks.
        if let Some(m) = info.member {
            if m.joined.0 == 0 {
                distance[i] = 0;
                gateway[i] = m.id;
                queue.push_back(i as u32);
            }
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = distance[u as usize];
        for &v in &adj[u as usize] {
            if distance[v as usize] == u8::MAX {
                distance[v as usize] = du.saturating_add(1);
                gateway[v as usize] = gateway[u as usize];
                queue.push_back(v);
            }
        }
    }
    // Anything unreachable (cannot happen with forced uplinks, but belt and
    // braces for exotic scale configs) attaches to member 0.
    for d in distance.iter_mut() {
        if *d == u8::MAX {
            *d = 3;
        }
    }
    (distance, gateway)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ScaleConfig;

    fn build() -> (AsRegistry, AsGraph, CountryTable) {
        let countries = CountryTable::build();
        let scale = ScaleConfig::tiny();
        let registry = AsRegistry::generate(&scale, &countries, 11);
        let graph = AsGraph::build(&registry, &countries, 11);
        (registry, graph, countries)
    }

    #[test]
    fn established_members_have_distance_zero() {
        let (registry, graph, _) = build();
        for asn in registry.member_asns() {
            let joined = registry.info(*asn).unwrap().member.unwrap().joined;
            if joined.0 == 0 {
                assert_eq!(graph.distance(&registry, *asn), Some(0));
            }
            // By the last week every member counts as A(L).
            assert_eq!(
                graph.locality_at(&registry, *asn, Week::LAST),
                Some(Locality::Member)
            );
        }
    }

    #[test]
    fn every_as_is_reachable() {
        let (registry, graph, _) = build();
        for info in registry.iter() {
            let d = graph.distance(&registry, info.asn).unwrap();
            assert!(d < 10, "{} unreachable (distance {d})", info.asn);
        }
    }

    #[test]
    fn locality_classes_are_all_populated() {
        let (registry, graph, _) = build();
        let mut counts = [0usize; 3];
        for info in registry.iter() {
            match graph.locality(&registry, info.asn).unwrap() {
                Locality::Member => counts[0] += 1,
                Locality::NearMember => counts[1] += 1,
                Locality::Global => counts[2] += 1,
            }
        }
        assert!(counts.iter().all(|c| *c > 0), "counts = {counts:?}");
        // Members are a small minority, as at the real IXP.
        assert!(counts[0] * 4 < counts[1] + counts[2]);
    }

    #[test]
    fn gateway_is_consistent_with_distance() {
        let (registry, graph, _) = build();
        for info in registry.iter() {
            let gw = graph.gateway(&registry, info.asn, Week::LAST).unwrap();
            // The gateway must be a valid member id.
            assert!((gw.0 as usize) < registry.member_asns().len());
            if let Some(member) = info.member {
                assert_eq!(gw, member.id);
            }
        }
    }

    #[test]
    fn late_members_use_provider_gateway_before_joining() {
        let (registry, graph, _) = build();
        let late: Vec<_> = registry
            .iter()
            .filter(|i| i.member.map(|m| m.joined.0 >= 36).unwrap_or(false))
            .collect();
        assert!(!late.is_empty());
        for info in late {
            let m = info.member.unwrap();
            let before = graph.gateway(&registry, info.asn, Week(m.joined.0 - 1)).unwrap();
            let after = graph.gateway(&registry, info.asn, m.joined).unwrap();
            assert_eq!(after, m.id);
            // Before joining, traffic came in via some other member's port.
            assert_ne!(before, m.id);
        }
    }

    #[test]
    fn cones_partition_the_as_space() {
        let (registry, graph, _) = build();
        let total: usize = (0..registry.member_asns().len() as u32)
            .map(|m| graph.cone_of(&registry, MemberId(m)).len())
            .sum();
        assert_eq!(total, registry.len());
    }

    #[test]
    fn deterministic() {
        let countries = CountryTable::build();
        let scale = ScaleConfig::tiny();
        let registry = AsRegistry::generate(&scale, &countries, 5);
        let g1 = AsGraph::build(&registry, &countries, 5);
        let g2 = AsGraph::build(&registry, &countries, 5);
        assert_eq!(g1.distance, g2.distance);
        let gw1: Vec<u32> = g1.gateway.iter().map(|m| m.0).collect();
        let gw2: Vec<u32> = g2.gateway.iter().map(|m| m.0).collect();
        assert_eq!(gw1, gw2);
    }

    #[test]
    fn near_member_share_is_roughly_calibrated() {
        // At paper scale the A(M) share should land in the broad vicinity of
        // the paper's 49 %. Use the small preset to keep the test fast.
        let countries = CountryTable::build();
        let scale = ScaleConfig::small();
        let registry = AsRegistry::generate(&scale, &countries, 3);
        let graph = AsGraph::build(&registry, &countries, 3);
        let near = registry
            .iter()
            .filter(|i| graph.locality(&registry, i.asn) == Some(Locality::NearMember))
            .count();
        let share = near as f64 / registry.len() as f64;
        assert!((0.30..0.70).contains(&share), "A(M) share = {share:.2}");
    }
}
