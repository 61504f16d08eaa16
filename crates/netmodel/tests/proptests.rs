//! Property tests over the synthetic Internet's structural invariants.

use proptest::prelude::*;

use ixp_netmodel::{InternetModel, Locality, MemberId, ScaleConfig, ServerFlags, Week};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Model-wide invariants hold for any seed.
    #[test]
    fn model_invariants_for_any_seed(seed in 0u64..1_000_000) {
        let model = InternetModel::generate(ScaleConfig::tiny(), seed);

        // Prefixes are disjoint and sorted.
        let mut last_end = 0u64;
        for e in model.routing.iter() {
            prop_assert!(e.prefix.base as u64 >= last_end);
            last_end = e.prefix.base as u64 + e.prefix.size();
        }

        // Server IPs are unique and resolve to their hosting AS.
        let mut ips: Vec<u32> = model.servers.servers().iter().map(|s| u32::from(s.ip)).collect();
        let n = ips.len();
        ips.sort_unstable();
        ips.dedup();
        prop_assert_eq!(ips.len(), n);

        // Locality classes partition the AS set.
        let mut class_counts = [0usize; 3];
        for info in model.registry.iter() {
            match model.graph.locality(&model.registry, info.asn).unwrap() {
                Locality::Member => class_counts[0] += 1,
                Locality::NearMember => class_counts[1] += 1,
                Locality::Global => class_counts[2] += 1,
            }
        }
        prop_assert_eq!(class_counts.iter().sum::<usize>(), model.registry.len());

        // Stable ⇒ active in every week.
        for s in model.servers.servers() {
            if s.flags.has(ServerFlags::STABLE) {
                for w in Week::all() {
                    prop_assert!(s.exists_in(w));
                }
            }
        }

        // Membership counts grow monotonically.
        let mut last = 0;
        for w in Week::all() {
            let m = model.member_count(w);
            prop_assert!(m >= last);
            last = m;
        }
    }

    /// Client address mapping is total and AS-consistent for any seed.
    #[test]
    fn client_mapping_total(seed in 0u64..100_000, probe in 0u64..6_000) {
        let model = InternetModel::generate(ScaleConfig::tiny(), seed);
        let client = probe % model.clients.universe();
        let located = model.clients.locate(&model.routing, client);
        prop_assert!(located.is_some());
        let (addr, as_idx) = located.unwrap();
        let entry = model.routing.resolve(addr);
        prop_assert!(entry.is_some());
        prop_assert_eq!(as_idx, model.clients.as_of(client));
        prop_assert_eq!(entry.unwrap().origin, model.registry.by_index(as_idx).asn);
    }

    /// Peering matrices stay symmetric at any size/density.
    #[test]
    fn peering_symmetry(n in 2usize..60, density in 0.0f64..1.0, seed in any::<u64>()) {
        let m = ixp_netmodel::PeeringMatrix::generate(n, density, seed);
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                prop_assert_eq!(m.peers(MemberId(a), MemberId(b)), m.peers(MemberId(b), MemberId(a)));
            }
        }
    }
}
