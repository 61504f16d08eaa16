//! The assembled synthetic Internet.
//!
//! [`InternetModel::generate`] runs every sub-generator in dependency order
//! from a single seed. The struct deliberately exposes two kinds of API:
//!
//! * **public-data facades** — routing snapshot, member list, peering
//!   matrix, popularity list, published ranges — the stand-ins for
//!   RouteViews/RIPE, the IXP's member directory, Alexa, and vendor range
//!   lists that the *analysis* is allowed to use; and
//! * **ground truth** — the org and server catalogs — which only the
//!   traffic generator and the validation harness may touch. The analysis
//!   pipeline never looks at these to produce its results, mirroring the
//!   real study's epistemic position.

use crate::clients::ClientPool;
use crate::country::CountryTable;
use crate::graph::AsGraph;
use crate::orgs::OrgCatalog;
use crate::peering::PeeringMatrix;
use crate::popularity::PopularityList;
use crate::prefixes::RoutingSnapshot;
use crate::registry::AsRegistry;
use crate::scale::ScaleConfig;
use crate::servers::ServerCatalog;
use crate::types::Week;

/// The fully generated model.
#[derive(Debug, Clone)]
pub struct InternetModel {
    /// The scale this model was generated at.
    pub scale: ScaleConfig,
    /// The master seed.
    pub seed: u64,
    /// Country table (public data).
    pub countries: CountryTable,
    /// AS registry incl. IXP membership (public data).
    pub registry: AsRegistry,
    /// AS-level topology and distances (derived from public BGP data).
    pub graph: AsGraph,
    /// Routing snapshot + geolocation (public data).
    pub routing: RoutingSnapshot,
    /// Public peering matrix (IXP-operator knowledge).
    pub peering: PeeringMatrix,
    /// Organization catalog (GROUND TRUTH — generator/validation only).
    pub orgs: OrgCatalog,
    /// Server catalog (GROUND TRUTH — generator/validation only).
    pub servers: ServerCatalog,
    /// Client universe (GROUND TRUTH — generator only).
    pub clients: ClientPool,
    /// Alexa-style popularity list (public data).
    pub popularity: PopularityList,
}

impl InternetModel {
    /// Generate everything from one seed.
    pub fn generate(scale: ScaleConfig, seed: u64) -> InternetModel {
        let countries = CountryTable::build();
        let registry = AsRegistry::generate(&scale, &countries, seed);
        let graph = AsGraph::build(&registry, &countries, seed);
        let routing = RoutingSnapshot::generate(&scale, &registry, seed);
        let peering =
            PeeringMatrix::generate(scale.members_end as usize, 0.91, seed);
        let orgs = OrgCatalog::generate(&scale, &registry, seed);
        let servers = ServerCatalog::generate(
            &scale, &registry, &routing, &orgs, &graph, &countries, seed,
        );
        let clients = ClientPool::build(&scale, &registry);
        let popularity = PopularityList::build(&orgs, seed);
        InternetModel {
            scale,
            seed,
            countries,
            registry,
            graph,
            routing,
            peering,
            orgs,
            servers,
            clients,
            popularity,
        }
    }

    /// Convenience: a tiny model for tests.
    pub fn tiny(seed: u64) -> InternetModel {
        InternetModel::generate(ScaleConfig::tiny(), seed)
    }

    /// Convenience: the small preset.
    pub fn small(seed: u64) -> InternetModel {
        InternetModel::generate(ScaleConfig::small(), seed)
    }

    /// Number of members active at a week.
    pub fn member_count(&self, week: Week) -> usize {
        self.registry.members_at(week).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::servers::ServerFlags;

    #[test]
    fn model_generates_coherently() {
        let model = InternetModel::tiny(99);
        assert_eq!(model.registry.len(), model.scale.as_count as usize);
        assert!(!model.routing.is_empty());
        assert!(!model.orgs.is_empty());
        assert!(!model.servers.servers().is_empty());
        assert!(!model.popularity.is_empty());
        assert!(model.member_count(Week::FIRST) < model.member_count(Week::LAST));
    }

    #[test]
    fn every_visible_server_ip_resolves_in_routing() {
        let model = InternetModel::tiny(99);
        for s in model.servers.servers() {
            if s.flags.has(ServerFlags::HIDDEN) {
                continue;
            }
            let entry = model
                .routing
                .resolve(s.ip)
                .unwrap_or_else(|| panic!("server {} unrouted", s.ip));
            assert_eq!(entry.origin, s.asn, "server {} in wrong AS", s.ip);
        }
    }

    #[test]
    fn every_server_as_has_a_gateway() {
        let model = InternetModel::tiny(99);
        for s in model.servers.servers() {
            let gw = model
                .graph
                .gateway(&model.registry, s.asn, Week::REFERENCE)
                .expect("gateway");
            assert!((gw.0 as usize) < model.scale.members_end as usize);
        }
    }

    #[test]
    fn model_is_deterministic() {
        let a = InternetModel::tiny(4);
        let b = InternetModel::tiny(4);
        assert_eq!(a.servers.servers().len(), b.servers.servers().len());
        assert_eq!(a.routing.len(), b.routing.len());
        assert_eq!(a.popularity.len(), b.popularity.len());
    }
}
