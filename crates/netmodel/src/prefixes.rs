//! Prefix allocation and the routing snapshot.
//!
//! Every AS gets a role-dependent number of prefixes carved out of the
//! public IPv4 space. The resulting [`RoutingSnapshot`] plays the role that
//! RouteViews/RIPE-RIS tables and a GeoLite-style database play in the
//! paper: it is the *only* way the analysis pipeline can map an observed IP
//! to a prefix, origin AS, and country — ground truth about which server
//! belongs to whom never crosses that boundary.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;

use crate::country::CountryId;
use crate::registry::{AsRegistry, AsRole};
use crate::scale::ScaleConfig;
use crate::types::{Asn, Prefix};

/// One routed prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// The prefix.
    pub prefix: Prefix,
    /// Origin AS.
    pub origin: Asn,
    /// Country of registration (inherited from the origin AS).
    pub country: CountryId,
}

/// The routing table plus geolocation, sorted by prefix base address.
#[derive(Debug, Clone)]
pub struct RoutingSnapshot {
    entries: Vec<RouteEntry>,
    /// Per entry: dense AS index of its origin.
    origins: Vec<u32>,
    /// First-level index over the top 16 address bits: `slots[h]` is the
    /// number of entries with `base >> 16 < h` (65 537 counts).
    slots: Vec<u32>,
    /// Per dense-AS-index: indices into `entries` owned by that AS.
    by_as: Vec<Vec<u32>>,
}

impl RoutingSnapshot {
    /// Allocate prefixes for every AS in the registry.
    pub fn generate(scale: &ScaleConfig, registry: &AsRegistry, seed: u64) -> RoutingSnapshot {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5_0003);
        let n = registry.len();

        // 1. Decide per-AS prefix counts, scaled to the configured total.
        let raw: Vec<f64> = registry
            .iter()
            .map(|info| mean_prefix_count(info.role) * (0.5 + rng.gen::<f64>()))
            .collect();
        let raw_total: f64 = raw.iter().sum();
        let factor = f64::from(scale.prefix_count) / raw_total;
        let mut counts: Vec<u32> =
            raw.iter().map(|r| ((r * factor).round() as u32).max(1)).collect();

        // 2. Allocation order: deterministic shuffle so that prefix sizes do
        //    not correlate with address ranges.
        let mut order: Vec<(u32, u32)> = Vec::new(); // (as index, k-th prefix)
        for (i, c) in counts.iter().enumerate() {
            for k in 0..*c {
                order.push((i as u32, k));
            }
        }
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }

        // 3. Carve the address space.
        let mut cursor: u64 = u32::from(Ipv4Addr::new(1, 0, 0, 0)) as u64;
        let mut entries: Vec<RouteEntry> = Vec::with_capacity(order.len());
        let mut by_as: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (as_idx, k) in &order {
            let info = registry.by_index(*as_idx);
            let len = prefix_len(info.role, *k, &mut rng);
            let size = 1u64 << (32 - len);
            // Align and skip reserved ranges.
            cursor = (cursor + size - 1) & !(size - 1);
            cursor = skip_reserved(cursor, size);
            if cursor + size > u32::from(Ipv4Addr::new(223, 255, 255, 255)) as u64 {
                // Space exhausted (cannot happen at supported scales, but
                // degrade gracefully by reusing high addresses).
                counts[*as_idx as usize] = counts[*as_idx as usize].saturating_sub(1);
                continue;
            }
            let prefix = Prefix { base: cursor as u32, len };
            by_as[*as_idx as usize].push(entries.len() as u32);
            entries.push(RouteEntry { prefix, origin: info.asn, country: info.country });
            cursor += size;
        }

        // 4. Sort by base for binary-search lookup; remap the per-AS index.
        let mut perm: Vec<u32> = (0..entries.len() as u32).collect();
        perm.sort_by_key(|&i| entries[i as usize].prefix.base);
        let mut inverse = vec![0u32; entries.len()];
        for (new, &old) in perm.iter().enumerate() {
            inverse[old as usize] = new as u32;
        }
        let mut sorted = Vec::with_capacity(entries.len());
        for &i in &perm {
            sorted.push(entries[i as usize]);
        }
        let mut origins = vec![0u32; sorted.len()];
        for (as_idx, list) in by_as.iter_mut().enumerate() {
            for idx in list.iter_mut() {
                *idx = inverse[*idx as usize];
                origins[*idx as usize] = as_idx as u32;
            }
        }
        let slots = first_level(&sorted);
        RoutingSnapshot { entries: sorted, origins, slots, by_as }
    }

    /// Number of routed prefixes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries in address order.
    pub fn iter(&self) -> impl Iterator<Item = &RouteEntry> {
        self.entries.iter()
    }

    /// Entry at a dense prefix index.
    pub fn entry(&self, index: u32) -> &RouteEntry {
        &self.entries[index as usize]
    }

    /// Dense AS index of the origin of the entry at a dense prefix index:
    /// `registry.index_of(entry(index).origin)` without the hash probe.
    pub fn origin_index(&self, index: u32) -> u32 {
        self.origins[index as usize]
    }

    /// Longest... well, *only* — allocation is non-overlapping — match for
    /// an address. Returns the dense prefix index.
    ///
    /// The candidate is the last entry with `base <= addr`. Every entry
    /// below the address's /16 slot has such a base and every entry above
    /// it has not, so the search runs inside the slot only; a prefix
    /// shorter than /16 that starts in an earlier slot is the entry just
    /// before it.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<u32> {
        let raw = u32::from(addr);
        let h = (raw >> 16) as usize;
        let lo = *self.slots.get(h)? as usize;
        let hi = *self.slots.get(h + 1)? as usize;
        let within = self.entries.get(lo..hi)?.partition_point(|e| e.prefix.base <= raw);
        let idx = (lo + within).checked_sub(1)?;
        self.entries.get(idx)?.prefix.contains(addr).then_some(idx as u32)
    }

    /// The whole-table binary search [`RoutingSnapshot::lookup`] replaced.
    #[cfg(test)]
    fn lookup_reference(&self, addr: Ipv4Addr) -> Option<u32> {
        let raw = u32::from(addr);
        let idx = match self.entries.binary_search_by(|e| e.prefix.base.cmp(&raw)) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let entry = &self.entries[idx];
        entry.prefix.contains(addr).then_some(idx as u32)
    }

    /// Full resolution: prefix entry for an address.
    pub fn resolve(&self, addr: Ipv4Addr) -> Option<&RouteEntry> {
        self.lookup(addr).map(|i| self.entry(i))
    }

    /// Dense prefix indices originated by an AS.
    pub fn prefixes_of(&self, registry: &AsRegistry, asn: Asn) -> &[u32] {
        registry.index_of(asn).map_or(&[], |i| self.prefixes_at(i))
    }

    /// Dense prefix indices originated by the AS at a dense index:
    /// [`RoutingSnapshot::prefixes_of`] without the hash probe.
    pub fn prefixes_at(&self, as_idx: u32) -> &[u32] {
        &self.by_as[as_idx as usize]
    }

    /// This table with one AS's row of the per-AS index emptied, which no
    /// generated table has: an AS without prefixes for the client tests.
    #[cfg(test)]
    pub(crate) fn without_prefixes_of(mut self, as_idx: u32) -> RoutingSnapshot {
        self.by_as[as_idx as usize].clear();
        self
    }

    /// Number of distinct origin ASes that actually got prefixes.
    pub fn routed_as_count(&self) -> usize {
        self.by_as.iter().filter(|l| !l.is_empty()).count()
    }
}

/// The first-level index of [`RoutingSnapshot::lookup`] over entries sorted
/// by base address.
fn first_level(entries: &[RouteEntry]) -> Vec<u32> {
    let mut slots = vec![0u32; (1 << 16) + 1];
    for e in entries {
        slots[(e.prefix.base >> 16) as usize + 1] += 1;
    }
    for h in 1..slots.len() {
        slots[h] += slots[h - 1];
    }
    slots
}

fn mean_prefix_count(role: AsRole) -> f64 {
    match role {
        AsRole::Tier1 => 80.0,
        AsRole::Transit => 40.0,
        AsRole::EyeballLarge => 120.0,
        AsRole::EyeballSmall => 12.0,
        AsRole::Hoster => 30.0,
        AsRole::Cdn => 18.0,
        AsRole::Cloud => 25.0,
        AsRole::Content => 10.0,
        AsRole::Enterprise => 2.0,
        AsRole::University => 5.0,
        AsRole::Reseller => 2.0,
    }
}

fn prefix_len(role: AsRole, _k: u32, rng: &mut SmallRng) -> u8 {
    let (lo, hi) = match role {
        AsRole::Tier1 | AsRole::Transit => (20, 23),
        AsRole::EyeballLarge => (18, 21),
        AsRole::EyeballSmall => (21, 24),
        AsRole::Hoster => (21, 24),
        AsRole::Cdn => (22, 24),
        AsRole::Cloud => (19, 22),
        AsRole::Content => (22, 24),
        AsRole::Enterprise => (24, 24),
        AsRole::University => (22, 24),
        AsRole::Reseller => (22, 24),
    };
    rng.gen_range(lo..=hi)
}

/// Reserved ranges the allocator must not hand out, as `[from, until)`.
const RESERVED: &[(u32, u32)] = &[
    (0x0A00_0000, 0x0B00_0000), // 10.0.0.0/8
    (0x7F00_0000, 0x8000_0000), // 127.0.0.0/8
    (0xA9FE_0000, 0xA9FF_0000), // 169.254.0.0/16
    (0xAC10_0000, 0xAC20_0000), // 172.16.0.0/12
    (0xC0A8_0000, 0xC0A9_0000), // 192.168.0.0/16
    (0xC000_0200, 0xC000_0300), // 192.0.2.0/24 (TEST-NET-1)
];

/// Returns a cursor at or after `cursor` whose `[cursor, cursor+size)`
/// window avoids every [`RESERVED`] range.
fn skip_reserved(mut cursor: u64, size: u64) -> u64 {
    loop {
        let mut moved = false;
        for &(lo, hi) in RESERVED {
            let (lo, hi) = (lo as u64, hi as u64);
            if cursor < hi && cursor + size > lo {
                cursor = (hi + size - 1) & !(size - 1);
                moved = true;
            }
        }
        if !moved {
            return cursor;
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::country::CountryTable;

    fn generated(scale: ScaleConfig, seed: u64) -> (AsRegistry, RoutingSnapshot) {
        let registry = AsRegistry::generate(&scale, &CountryTable::build(), seed);
        let routing = RoutingSnapshot::generate(&scale, &registry, seed);
        (registry, routing)
    }

    fn build() -> (AsRegistry, RoutingSnapshot, ScaleConfig) {
        let (registry, routing) = generated(ScaleConfig::tiny(), 9);
        (registry, routing, ScaleConfig::tiny())
    }

    #[test]
    fn prefix_count_close_to_target() {
        let (_, routing, scale) = build();
        let target = scale.prefix_count as f64;
        let got = routing.len() as f64;
        assert!(
            (got - target).abs() / target < 0.20,
            "got {got} prefixes, target {target}"
        );
    }

    #[test]
    fn prefixes_are_disjoint_and_sorted() {
        let (_, routing, _) = build();
        let mut last_end: u64 = 0;
        for entry in routing.iter() {
            let base = entry.prefix.base as u64;
            assert!(base >= last_end, "overlap at {}", entry.prefix);
            last_end = base + entry.prefix.size();
        }
    }

    #[test]
    fn no_prefix_in_reserved_space() {
        let (_, routing, _) = build();
        for entry in routing.iter() {
            for probe in [
                Ipv4Addr::new(10, 1, 1, 1),
                Ipv4Addr::new(127, 0, 0, 1),
                Ipv4Addr::new(172, 20, 0, 1),
                Ipv4Addr::new(192, 168, 1, 1),
            ] {
                assert!(!entry.prefix.contains(probe), "{} contains {probe}", entry.prefix);
            }
        }
    }

    #[test]
    fn lookup_finds_every_allocated_address() {
        let (_, routing, _) = build();
        for (i, entry) in routing.iter().enumerate() {
            let mid = entry.prefix.addr_at(entry.prefix.size() / 2);
            assert_eq!(routing.lookup(mid), Some(i as u32));
            let resolved = routing.resolve(mid).unwrap();
            assert_eq!(resolved.origin, entry.origin);
        }
    }

    #[test]
    fn lookup_misses_unallocated_addresses() {
        let (_, routing, _) = build();
        assert_eq!(routing.lookup(Ipv4Addr::new(0, 0, 0, 1)), None);
        assert_eq!(routing.lookup(Ipv4Addr::new(10, 0, 0, 1)), None);
        assert_eq!(routing.lookup(Ipv4Addr::new(223, 255, 255, 254)), None);
    }

    /// A table over hand-picked prefixes (sorted by base, disjoint).
    fn table_of(prefixes: &[(u32, u8)]) -> RoutingSnapshot {
        let entries: Vec<RouteEntry> = prefixes
            .iter()
            .map(|&(base, len)| RouteEntry {
                prefix: Prefix { base, len },
                origin: Asn(64_500),
                country: CountryId(0),
            })
            .collect();
        RoutingSnapshot {
            slots: first_level(&entries),
            origins: vec![0; entries.len()],
            entries,
            by_as: vec![Vec::new()],
        }
    }

    /// Addresses at which a slot-local search could part from the
    /// whole-table one: around each entry's first and last address and at
    /// both ends of the /16 slots those fall in, plus the ends of the
    /// address space and of the reserved gaps.
    fn boundary_probes(routing: &RoutingSnapshot) -> Vec<u32> {
        let mut probes = vec![0, 1, u32::MAX - 1, u32::MAX];
        for &(from, until) in RESERVED {
            probes.extend([from - 1, from, until - 1, until]);
        }
        for e in routing.iter() {
            let first = e.prefix.base;
            let last = first + (e.prefix.size() - 1) as u32;
            for edge in [first, last] {
                probes.extend([edge.wrapping_sub(1), edge, edge.wrapping_add(1)]);
                probes.extend([edge & 0xFFFF_0000, edge | 0xFFFF]);
            }
        }
        probes
    }

    fn assert_lookup_matches_reference(routing: &RoutingSnapshot) {
        for raw in boundary_probes(routing) {
            let addr = Ipv4Addr::from(raw);
            assert_eq!(routing.lookup(addr), routing.lookup_reference(addr), "at {addr}");
        }
    }

    #[test]
    fn two_level_lookup_matches_whole_table_search_at_every_boundary() {
        let (_, tiny, _) = build();
        let (_, small) = generated(ScaleConfig::small(), 2012);
        assert!(small.len() > tiny.len());
        assert_lookup_matches_reference(&tiny);
        assert_lookup_matches_reference(&small);
    }

    #[test]
    fn prefixes_shorter_than_a_slot_are_found_from_later_slots() {
        // A /8 spans 256 slots and a /14 four; the /24s sit in slots of
        // their own right after them, and 223.255.255.0/24 in the last
        // slot any allocation reaches.
        let routing = table_of(&[
            (0x0100_0000, 8),
            (0x0200_0000, 24),
            (0x0204_0000, 14),
            (0x0208_0000, 24),
            (0xDFFF_FF00, 24),
        ]);
        assert_lookup_matches_reference(&routing);
        assert_eq!(routing.lookup(Ipv4Addr::new(1, 200, 3, 4)), Some(0));
        assert_eq!(routing.lookup(Ipv4Addr::new(2, 0, 0, 255)), Some(1));
        assert_eq!(routing.lookup(Ipv4Addr::new(2, 0, 1, 0)), None);
        assert_eq!(routing.lookup(Ipv4Addr::new(2, 7, 255, 255)), Some(2));
        assert_eq!(routing.lookup(Ipv4Addr::new(2, 8, 0, 0)), Some(3));
        assert_eq!(routing.lookup(Ipv4Addr::new(223, 255, 255, 7)), Some(4));
        assert_eq!(routing.lookup(Ipv4Addr::new(255, 255, 255, 255)), None);
    }

    #[test]
    fn empty_table_resolves_nothing() {
        let routing = table_of(&[]);
        assert!(routing.is_empty());
        for raw in [0, 1, 0x0100_0000, 0x7FFF_FFFF, u32::MAX] {
            assert_eq!(routing.lookup(Ipv4Addr::from(raw)), None);
        }
        assert_lookup_matches_reference(&routing);
    }

    proptest! {
        #[test]
        fn two_level_lookup_matches_whole_table_search_on_arbitrary_addresses(
            raw in any::<u32>(),
        ) {
            let (_, routing, _) = build();
            // Most of the address space lies beyond the last allocation of
            // a tiny model; fold every draw into the allocated span too.
            let span = routing.iter().last().map_or(1, |e| e.prefix.base + 0x0002_0000);
            for raw in [raw, raw % span] {
                let addr = Ipv4Addr::from(raw);
                prop_assert_eq!(routing.lookup(addr), routing.lookup_reference(addr));
            }
        }
    }

    #[test]
    fn origin_index_is_the_registry_index_of_the_origin() {
        for (registry, routing) in
            [generated(ScaleConfig::tiny(), 9), generated(ScaleConfig::small(), 2012)]
        {
            for i in 0..routing.len() as u32 {
                let origin = routing.entry(i).origin;
                assert_eq!(Some(routing.origin_index(i)), registry.index_of(origin));
            }
        }
    }

    #[test]
    fn every_as_has_at_least_one_prefix() {
        let (registry, routing, _) = build();
        assert_eq!(routing.routed_as_count(), registry.len());
        for info in registry.iter() {
            assert!(
                !routing.prefixes_of(&registry, info.asn).is_empty(),
                "{} has no prefixes",
                info.asn
            );
        }
    }

    #[test]
    fn per_as_index_is_consistent() {
        let (registry, routing, _) = build();
        for info in registry.iter() {
            for &idx in routing.prefixes_of(&registry, info.asn) {
                assert_eq!(routing.entry(idx).origin, info.asn);
            }
        }
    }

    #[test]
    fn deterministic() {
        let countries = CountryTable::build();
        let scale = ScaleConfig::tiny();
        let registry = AsRegistry::generate(&scale, &countries, 4);
        let a = RoutingSnapshot::generate(&scale, &registry, 4);
        let b = RoutingSnapshot::generate(&scale, &registry, 4);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
    }
}
