//! The client-IP universe.
//!
//! Client IPs are not materialized as records — a quarter billion rows would
//! defeat the point of scaling — but defined *functionally*: a global client
//! index `0..universe` maps deterministically to an address inside the
//! client zone of some AS's prefix, with per-AS populations proportional to
//! role- and archetype-weighted sizes. The traffic generator draws indices
//! from a skewed popularity distribution; unique-IP statistics then emerge
//! from which indices actually get drawn, exactly as at the real vantage
//! point.
//!
//! The generator asks twice per sampled frame, so every question is
//! answered by dense AS index and none by ASN: [`ClientPool::base_of`] and
//! [`ClientPool::population`] are two loads, [`ClientPool::as_of`] searches
//! only the boundaries inside the index's slot (a first-level index over
//! the high bits of the client index, as [`RoutingSnapshot::lookup`] has
//! over addresses), and [`ClientPool::locate`] — or
//! [`ClientPool::locate_in`] for a caller that already knows the AS — turns
//! an index into its address without a hash probe.

use std::net::Ipv4Addr;

use crate::prefixes::RoutingSnapshot;
use crate::registry::{well_known, AsRegistry, AsRole};
use crate::scale::ScaleConfig;

/// The functional client universe.
#[derive(Debug, Clone)]
pub struct ClientPool {
    /// Cumulative client population per dense AS index (len = #ASes),
    /// summing to `universe`.
    cumulative: Vec<u64>,
    universe: u64,
    /// First-level index over `client >> shift`: `slots[s]` is the number
    /// of boundaries `<= s << shift`, so the owner of a client in slot `s`
    /// lies in `slots[s]..=slots[s + 1]`.
    slots: Vec<u32>,
    /// Slot width as a power of two, chosen so that there are at most two
    /// slots per AS.
    shift: u32,
}

impl ClientPool {
    /// Build the per-AS populations.
    pub fn build(scale: &ScaleConfig, registry: &AsRegistry) -> ClientPool {
        let weights: Vec<f64> = registry
            .iter()
            .map(|info| {
                let role_w = match info.role {
                    AsRole::EyeballLarge => 60.0,
                    AsRole::EyeballSmall => 8.0,
                    AsRole::Enterprise => 0.7,
                    AsRole::University => 3.0,
                    AsRole::Transit => 1.5,
                    AsRole::Tier1 => 2.0,
                    AsRole::Hoster | AsRole::Cloud => 0.4,
                    AsRole::Cdn | AsRole::Content => 0.2,
                    AsRole::Reseller => 0.2,
                };
                role_w * well_known::eyeball_population_boost(info.asn)
            })
            .collect();
        let total_w: f64 = weights.iter().sum();
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc_f = 0.0f64;
        for w in &weights {
            acc_f += w;
            cumulative.push(((acc_f / total_w) * scale.client_universe as f64) as u64);
        }
        // Force the last boundary to exactly the universe size.
        if let Some(last) = cumulative.last_mut() {
            *last = scale.client_universe;
        }
        let (slots, shift) = first_level(&cumulative, scale.client_universe);
        ClientPool { cumulative, universe: scale.client_universe, slots, shift }
    }

    /// Size of the universe.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// Global index of the first client of an AS (dense index).
    pub fn base_of(&self, as_idx: u32) -> u64 {
        match as_idx.checked_sub(1) {
            Some(before) => self.cumulative[before as usize],
            None => 0,
        }
    }

    /// Number of clients inside an AS (dense index).
    pub fn population(&self, as_idx: u32) -> u64 {
        self.cumulative[as_idx as usize] - self.base_of(as_idx)
    }

    /// Map a global client index to its AS (dense index).
    pub fn as_of(&self, client: u64) -> u32 {
        debug_assert!(client < self.universe);
        // `cumulative[i]` is the exclusive end boundary of AS i's range, so
        // the owner is the first AS whose boundary exceeds the index. This
        // also skips zero-population ASes correctly. Every boundary below
        // the index's slot is `<=` the index and every boundary above it is
        // not, so the search runs inside the slot only.
        let slot = (client >> self.shift) as usize;
        let (lo, hi) = match (self.slots.get(slot), self.slots.get(slot + 1)) {
            (Some(&lo), Some(&hi)) => (lo as usize, hi as usize),
            // An index beyond the universe: the whole table.
            _ => (0, self.cumulative.len()),
        };
        let idx = lo + self.cumulative[lo..hi].partition_point(|&end| end <= client);
        idx.min(self.cumulative.len() - 1) as u32
    }

    /// Deterministic address of a client index, and its AS (dense index).
    pub fn locate(&self, routing: &RoutingSnapshot, client: u64) -> Option<(Ipv4Addr, u32)> {
        let as_idx = self.as_of(client);
        let addr = self.locate_in(routing, as_idx, client - self.base_of(as_idx))?;
        Some((addr, as_idx))
    }

    /// Deterministic address of the `local`-th client of an AS:
    /// [`ClientPool::locate`] for a caller that already knows the AS.
    ///
    /// Clients live in the *upper three quarters* of each prefix, disjoint
    /// from the server allocator's zone, so an IP is never accidentally
    /// both.
    pub fn locate_in(&self, routing: &RoutingSnapshot, as_idx: u32, local: u64) -> Option<Ipv4Addr> {
        debug_assert!(local < self.population(as_idx));
        let prefixes = routing.prefixes_at(as_idx);
        if prefixes.is_empty() {
            return None;
        }
        // Spread clients round-robin over the AS's prefixes, then into the
        // client zone of the chosen prefix. The multiplicative hash spreads
        // consecutive indices to unrelated offsets.
        let p = prefixes[(local % prefixes.len() as u64) as usize];
        let entry = routing.entry(p);
        let size = entry.prefix.size();
        let zone = (size - size / 4).max(1);
        let scrambled = local
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17);
        let offset = size / 4 + scrambled % zone;
        Some(entry.prefix.addr_at(offset))
    }
}

/// The first-level index of [`ClientPool::as_of`] over the cumulative
/// boundaries, and its slot width as a shift.
fn first_level(cumulative: &[u64], universe: u64) -> (Vec<u32>, u32) {
    let mut shift = 0;
    while universe >> shift > 2 * cumulative.len().max(1) as u64 {
        shift += 1;
    }
    // One slot per `1 << shift` clients, and the end of the last one.
    let slots = (universe >> shift) + 2;
    let mut below = 0usize;
    let slots = (0..slots)
        .map(|s| {
            while cumulative.get(below).is_some_and(|&end| end <= s << shift) {
                below += 1;
            }
            below as u32
        })
        .collect();
    (slots, shift)
}

/// The accessors the dense ones replaced, kept as the references the tests
/// below compare them against.
#[cfg(test)]
impl ClientPool {
    /// Number of clients inside an AS, by ASN.
    fn population_of(&self, registry: &AsRegistry, asn: crate::types::Asn) -> u64 {
        let idx = match registry.index_of(asn) {
            Some(i) => i as usize,
            None => return 0,
        };
        let hi = self.cumulative[idx];
        let lo = if idx == 0 { 0 } else { self.cumulative[idx - 1] };
        hi - lo
    }

    /// [`ClientPool::as_of`] as a search of the whole boundary table.
    fn as_of_reference(&self, client: u64) -> u32 {
        let idx = self.cumulative.partition_point(|&end| end <= client);
        idx.min(self.cumulative.len() - 1) as u32
    }

    /// Deterministic address of a client index, through the ASN-keyed
    /// per-AS prefix list.
    fn address_of(
        &self,
        registry: &AsRegistry,
        routing: &RoutingSnapshot,
        client: u64,
    ) -> Option<Ipv4Addr> {
        let as_idx = self.as_of_reference(client);
        let lo = if as_idx == 0 { 0 } else { self.cumulative[as_idx as usize - 1] };
        let local = client - lo;
        let asn = registry.by_index(as_idx).asn;
        let prefixes = routing.prefixes_of(registry, asn);
        if prefixes.is_empty() {
            return None;
        }
        let p = prefixes[(local % prefixes.len() as u64) as usize];
        let entry = routing.entry(p);
        let size = entry.prefix.size();
        let zone = (size - size / 4).max(1);
        let scrambled = local
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(17);
        let offset = size / 4 + scrambled % zone;
        Some(entry.prefix.addr_at(offset))
    }

    /// The global index of the `local`-th client of an AS as the traffic
    /// generator's member-biased draw recovered it: a bisection of the
    /// universe for the first client of the AS, one `as_of` per halving.
    fn global_client_index(&self, registry: &AsRegistry, as_idx: u32, local: u64) -> u64 {
        let asn = registry.by_index(as_idx).asn;
        let pop = self.population_of(registry, asn);
        let local = if pop == 0 { 0 } else { local % pop };
        let universe = self.universe();
        let (mut lo, mut hi) = (0u64, universe - 1);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.as_of_reference(mid) < as_idx {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo + local).min(universe - 1)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::country::CountryTable;

    fn generated(
        scale: ScaleConfig,
        seed: u64,
    ) -> (ClientPool, AsRegistry, RoutingSnapshot, ScaleConfig) {
        let countries = CountryTable::build();
        let registry = AsRegistry::generate(&scale, &countries, seed);
        let routing = RoutingSnapshot::generate(&scale, &registry, seed);
        let pool = ClientPool::build(&scale, &registry);
        (pool, registry, routing, scale)
    }

    fn build() -> (ClientPool, AsRegistry, RoutingSnapshot, ScaleConfig) {
        generated(ScaleConfig::tiny(), 17)
    }

    /// A pool over hand-picked boundaries.
    fn pool_of(cumulative: &[u64]) -> ClientPool {
        let universe = *cumulative.last().expect("at least one AS");
        let (slots, shift) = first_level(cumulative, universe);
        ClientPool { cumulative: cumulative.to_vec(), universe, slots, shift }
    }

    #[test]
    fn populations_sum_to_universe() {
        let (pool, registry, _, scale) = build();
        let total: u64 = (0..registry.len() as u32).map(|i| pool.population(i)).sum();
        assert_eq!(total, scale.client_universe);
        assert_eq!(pool.universe(), scale.client_universe);
    }

    #[test]
    fn as_of_respects_boundaries() {
        let (pool, _, _, _) = build();
        // Every client maps to an AS whose population actually covers it.
        for client in (0..pool.universe()).step_by(97) {
            let as_idx = pool.as_of(client);
            assert!(pool.population(as_idx) > 0);
            assert!((pool.base_of(as_idx)..pool.base_of(as_idx + 1)).contains(&client));
        }
    }

    #[test]
    fn addresses_resolve_back_to_their_as() {
        let (pool, registry, routing, _) = build();
        for client in (0..pool.universe()).step_by(131) {
            let (addr, as_idx) = pool.locate(&routing, client).unwrap();
            let entry = routing.resolve(addr).unwrap();
            assert_eq!(as_idx, pool.as_of(client));
            assert_eq!(entry.origin, registry.by_index(as_idx).asn);
        }
    }

    #[test]
    fn addresses_avoid_server_zone() {
        let (pool, _, routing, _) = build();
        for client in (0..pool.universe()).step_by(61) {
            let (addr, _) = pool.locate(&routing, client).unwrap();
            let entry = routing.resolve(addr).unwrap();
            let offset = u64::from(u32::from(addr) - entry.prefix.base);
            assert!(
                offset >= entry.prefix.size() / 4,
                "client {addr} landed in server zone of {}",
                entry.prefix
            );
        }
    }

    #[test]
    fn eyeball_archetypes_have_big_populations() {
        let (pool, registry, _, _) = build();
        let chinanet = pool.population(registry.index_of(well_known::CHINANET_LIKE).unwrap());
        // The median eyeball population should be much smaller.
        let median = {
            let mut pops: Vec<u64> = (0..registry.len() as u32)
                .filter(|&i| registry.by_index(i).role == AsRole::EyeballSmall)
                .map(|i| pool.population(i))
                .collect();
            pops.sort_unstable();
            pops[pops.len() / 2]
        };
        assert!(chinanet > median * 3, "chinanet {chinanet} vs median {median}");
    }

    #[test]
    fn mapping_is_deterministic() {
        let (pool, _, routing, _) = build();
        let a = pool.locate(&routing, 1234).unwrap();
        let b = pool.locate(&routing, 1234).unwrap();
        assert_eq!(a, b);
    }

    /// Client indices at which a slot-local search could part from the
    /// whole-table one: around every boundary, at both ends of the slots
    /// those fall in, and at the ends of the universe.
    fn boundary_probes(pool: &ClientPool) -> Vec<u64> {
        let width = 1u64 << pool.shift;
        let mut probes = vec![0, pool.universe - 1];
        for &end in &pool.cumulative {
            probes.extend([end.wrapping_sub(1), end, end + 1]);
            probes.extend([end & !(width - 1), end | (width - 1)]);
        }
        probes.retain(|&client| client < pool.universe);
        probes
    }

    fn assert_as_of_matches_reference(pool: &ClientPool) {
        for client in boundary_probes(pool) {
            assert_eq!(pool.as_of(client), pool.as_of_reference(client), "at client {client}");
        }
    }

    #[test]
    fn slot_indexed_as_of_matches_whole_table_search_at_every_boundary() {
        let (tiny, ..) = build();
        let (small, ..) = generated(ScaleConfig::small(), 2012);
        assert!(small.shift > 0 && small.slots.len() > tiny.slots.len());
        assert_as_of_matches_reference(&tiny);
        assert_as_of_matches_reference(&small);
        // Empty ASes first, last and in runs; an AS wider than a slot; a
        // universe that ends on a slot edge and one that does not.
        for cumulative in [
            &[0, 0, 5, 5, 5, 9, 9][..],
            &[1, 2, 3, 4, 5, 6, 7, 8],
            &[64],
            &[0, 1, 1, 200, 200, 201, 256],
            &[3, 1_000_003],
        ] {
            let pool = pool_of(cumulative);
            assert_as_of_matches_reference(&pool);
            for client in 0..pool.universe.min(300) {
                assert_eq!(pool.as_of(client), pool.as_of_reference(client));
            }
        }
        // Release builds answer an index beyond the universe as the plain
        // search does (debug builds assert).
        if !cfg!(debug_assertions) {
            assert_eq!(tiny.as_of(tiny.universe + 5), tiny.as_of_reference(tiny.universe + 5));
            assert_eq!(tiny.as_of(u64::MAX), tiny.as_of_reference(u64::MAX));
        }
    }

    proptest! {
        #[test]
        fn slot_indexed_as_of_matches_whole_table_search_on_arbitrary_indices(
            raw in any::<u64>(),
        ) {
            let (tiny, ..) = build();
            let (small, ..) = generated(ScaleConfig::small(), 2012);
            for pool in [&tiny, &small] {
                let client = raw % pool.universe;
                prop_assert_eq!(pool.as_of(client), pool.as_of_reference(client));
            }
        }
    }

    /// Every AS of the model: its base against the bisection, and the
    /// addresses of its first and last client (and one in between) against
    /// the ASN-keyed path the generator took.
    fn assert_dense_forms_match_references(
        pool: &ClientPool,
        registry: &AsRegistry,
        routing: &RoutingSnapshot,
    ) -> usize {
        let last_client = pool.universe() - 1;
        let mut empty = 0;
        for as_idx in 0..registry.len() as u32 {
            let asn = registry.by_index(as_idx).asn;
            let pop = pool.population(as_idx);
            assert_eq!(pop, pool.population_of(registry, asn), "population of AS #{as_idx}");
            let base = pool.base_of(as_idx);
            if pop == 0 {
                // The bisection lands on the next client there is; so does
                // the base, which then belongs to a later AS.
                empty += 1;
                let client = pool.global_client_index(registry, as_idx, 7);
                assert_eq!(client, base.min(last_client), "base of empty AS #{as_idx}");
                assert_eq!(
                    pool.locate(routing, client),
                    pool.address_of(registry, routing, client)
                        .map(|addr| (addr, pool.as_of_reference(client))),
                );
                continue;
            }
            for local in [0, pop / 2, pop - 1] {
                let client = pool.global_client_index(registry, as_idx, local);
                assert_eq!(client, base + local, "client {local} of AS #{as_idx}");
                assert_eq!(pool.as_of_reference(client), as_idx);
                let reference = pool.address_of(registry, routing, client);
                assert_eq!(pool.locate_in(routing, as_idx, local), reference);
                assert_eq!(pool.locate(routing, client), reference.map(|addr| (addr, as_idx)));
            }
            // A local index past the population wraps, as it did.
            assert_eq!(pool.global_client_index(registry, as_idx, pop + 3), base + 3 % pop);
        }
        empty
    }

    #[test]
    fn dense_lookups_match_the_bisection_and_the_asn_keyed_path_for_every_as() {
        let mut empty = 0;
        for (pool, registry, routing, _) in
            [build(), generated(ScaleConfig::tiny(), 2012), generated(ScaleConfig::small(), 2012)]
        {
            empty += assert_dense_forms_match_references(&pool, &registry, &routing);

            // ASes without prefixes have no client addresses on either path:
            // the first AS, the last, and the most populous one.
            let last = registry.len() as u32 - 1;
            let biggest = (0..=last).max_by_key(|&i| pool.population(i)).unwrap();
            for as_idx in [0, last, biggest] {
                let routing = routing.clone().without_prefixes_of(as_idx);
                assert_dense_forms_match_references(&pool, &registry, &routing);
                if pool.population(as_idx) > 0 {
                    assert_eq!(pool.locate_in(&routing, as_idx, 0), None);
                    assert_eq!(pool.locate(&routing, pool.base_of(as_idx)), None);
                }
            }
            assert!(pool.population(biggest) > 0);
        }
        assert!(empty > 0, "no generated model had an AS without clients");
    }

    #[test]
    fn bases_and_populations_of_hand_picked_boundaries() {
        // Empty ASes first, in runs and last; the base of a trailing empty
        // AS is the universe, one past the last client.
        let pool = pool_of(&[0, 0, 5, 5, 5, 9, 9]);
        let bases: Vec<u64> = (0..7).map(|i| pool.base_of(i)).collect();
        assert_eq!(bases, [0, 0, 0, 5, 5, 5, 9]);
        let populations: Vec<u64> = (0..7).map(|i| pool.population(i)).collect();
        assert_eq!(populations, [0, 0, 5, 0, 0, 4, 0]);
    }
}
