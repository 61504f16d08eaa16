//! Server materialization: turning each organization's deployment plan into
//! concrete server IPs with per-week activity, traffic propensity, service
//! roles, and meta-data availability.
//!
//! This is where *network heterogenization* — the paper's second headline
//! finding — is planted into the model: organizations place servers into
//! third-party ASes (CDN caches in eyeball members, customers in hosters,
//! content on clouds), so that the analysis pipeline can later *re-discover*
//! the spread from traffic and meta-data alone (§5.1/§5.2) and measure its
//! impact on link usage (§5.3).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::Ipv4Addr;

use crate::country::{CountryId, CountryTable};
use crate::graph::AsGraph;
use crate::orgs::{Archetype, OrgCatalog, OrgKind, Organization};
use crate::prefixes::RoutingSnapshot;
use crate::registry::{well_known, AsRegistry, AsRole};
use crate::scale::ScaleConfig;
use crate::types::{Asn, OrgId, Prefix, Week};

/// Per-server boolean properties, packed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerFlags(pub u16);

impl ServerFlags {
    /// Speaks HTTPS on 443 with a certificate.
    pub const HTTPS: u16 = 1 << 0;
    /// Also serves RTMP on 1935 (multi-purpose, Akamai-style).
    pub const RTMP: u16 = 1 << 1;
    /// Serves HTTP on 8080 instead of / in addition to 80.
    pub const PORT_8080: u16 = 1 << 2;
    /// Also initiates connections (machine-to-machine / proxy behaviour).
    pub const CLIENT_TOO: u16 = 1 << 3;
    /// Has a PTR record under its organization's naming schema.
    pub const HAS_PTR: u16 = 1 << 4;
    /// Front-end heavy hitter (data-center gateway / anycast, Fig. 2 head).
    pub const FRONT_END: u16 = 1 << 5;
    /// Ground-truth-only server ("private cluster", §3.3): never exchanges
    /// traffic across the IXP's public fabric.
    pub const HIDDEN: u16 = 1 << 6;
    /// Member of the stable pool (active every week, §4.1).
    pub const STABLE: u16 = 1 << 7;

    /// Check a flag bit.
    pub fn has(&self, bit: u16) -> bool {
        self.0 & bit != 0
    }

    /// Set a flag bit.
    pub(crate) fn set(&mut self, bit: u16) {
        self.0 |= bit;
    }
}

/// Cloud service attribution of a server (for the §4.2 experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceTag {
    /// Ordinary server.
    None,
    /// Amazon-like CloudFront edge (CDN part).
    CloudFront,
    /// Amazon-like EC2 instance in the data center with the given index.
    Ec2(u8),
    /// StormCloud-like data-center server.
    StormCloud(u8),
}

/// One server IP.
#[derive(Debug, Clone)]
pub struct Server {
    /// The public IPv4 address.
    pub ip: Ipv4Addr,
    /// Owning organization.
    pub org: OrgId,
    /// AS hosting this server.
    pub asn: Asn,
    /// Country (via the hosting AS's prefixes).
    pub country: CountryId,
    /// Packed boolean properties.
    pub flags: ServerFlags,
    /// Relative traffic propensity (arbitrary units).
    pub weight: f32,
    /// 17-bit activity mask: bit `i` set = active in week 35 + i.
    pub activity: u32,
    /// Cloud service attribution.
    pub service: ServiceTag,
    /// First week this server speaks HTTPS (sites enable TLS over time —
    /// the mechanism behind §4.2's steady HTTPS increase). Meaningless
    /// unless the HTTPS flag is set.
    pub https_from: u8,
}

impl Server {
    /// True if the server serves HTTPS in the given week.
    pub fn https_in(&self, week: Week) -> bool {
        self.flags.has(ServerFlags::HTTPS) && week.0 >= self.https_from
    }

    /// True if the server exchanges traffic in the given week.
    pub fn active_in(&self, week: Week) -> bool {
        !self.flags.has(ServerFlags::HIDDEN) && self.activity & (1 << week.index()) != 0
    }

    /// True if the server is part of ground truth at all in that week
    /// (including hidden private-cluster servers).
    pub fn exists_in(&self, week: Week) -> bool {
        self.activity & (1 << week.index()) != 0
    }
}

/// A published IP range (EC2-style public range lists, §4.2).
#[derive(Debug, Clone)]
pub struct PublishedRange {
    /// Publishing organization.
    pub org: OrgId,
    /// Data-center label, e.g. `eu-ireland`.
    pub label: String,
    /// Advertised data-center country code.
    pub country: &'static str,
    /// The range.
    pub prefix: Prefix,
}

/// Tunable churn-model parameters (kept in one place for calibration).
#[derive(Debug, Clone)]
pub(crate) struct ChurnParams {
    /// Probability that an archetype server is in the stable pool.
    pub archetype_stable: f64,
    /// Region-dependent stable probability for generic servers
    /// (DE, US, RU, CN, RoW).
    pub region_stable: [f64; 5],
    /// Over-generation factor for windowed (non-stable) servers relative to
    /// the weekly cross-section they should sustain.
    pub windowed_expansion: f64,
    /// Mean window length in weeks.
    pub window_mean: f64,
    /// Presence probability within an open window.
    pub presence: f64,
    /// Traffic-weight boost of the stable pool (it carries > 60 % of server
    /// traffic, §4.1).
    pub stable_weight_boost: f64,
    /// Extra probability that a windowed server skips week 44 (the global
    /// Hurricane-Sandy dip of Fig. 4a).
    pub sandy_dip: f64,
}

impl Default for ChurnParams {
    fn default() -> Self {
        ChurnParams {
            archetype_stable: 0.80,
            region_stable: [0.26, 0.07, 0.11, 0.004, 0.028],
            windowed_expansion: 2.4,
            window_mean: 7.0,
            presence: 0.88,
            stable_weight_boost: 3.4,
            sandy_dip: 0.05,
        }
    }
}

/// The materialized server population.
#[derive(Debug, Clone)]
pub struct ServerCatalog {
    servers: Vec<Server>,
    by_ip: HashMap<u32, u32>,
    published: Vec<PublishedRange>,
}

impl ServerCatalog {
    /// Generate all servers.
    pub(crate) fn generate(
        scale: &ScaleConfig,
        registry: &AsRegistry,
        routing: &RoutingSnapshot,
        orgs: &OrgCatalog,
        graph: &AsGraph,
        countries: &CountryTable,
        seed: u64,
    ) -> ServerCatalog {
        let params = ChurnParams::default();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5_0005);
        let _ = scale; // all population sizes already live in the org catalog
        let mut gen = Generator {
            registry,
            routing,
            orgs,
            countries,
            params,
            alloc: HashMap::new(),
            servers: Vec::new(),
            published: Vec::new(),
            deploy_pools: DeployPools::build(registry, graph),
        };
        for org in orgs.iter() {
            gen.place_org(org, &mut rng);
        }
        gen.apply_reseller_growth(&mut rng);
        gen.apply_dc_outages();
        let by_ip =
            gen.servers.iter().enumerate().map(|(i, s)| (u32::from(s.ip), i as u32)).collect();
        ServerCatalog { servers: gen.servers, by_ip, published: gen.published }
    }

    /// All server records (including hidden and non-reference-week ones).
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// Ground-truth lookup by IP.
    pub fn by_ip(&self, ip: Ipv4Addr) -> Option<&Server> {
        self.by_ip.get(&u32::from(ip)).map(|i| &self.servers[*i as usize])
    }

    /// Servers that exchange IXP traffic in the given week.
    #[cfg(test)]
    pub(crate) fn active_in(&self, week: Week) -> impl Iterator<Item = &Server> {
        self.servers.iter().filter(move |s| s.active_in(week))
    }

    /// Published IP ranges (EC2-style lists).
    pub fn published_ranges(&self) -> &[PublishedRange] {
        &self.published
    }

    /// Ground-truth footprint of an organization in a week: (visible
    /// servers, hidden servers, distinct ASes overall).
    #[cfg(test)]
    pub(crate) fn footprint(&self, org: OrgId, week: Week) -> (usize, usize, usize) {
        let mut visible = 0;
        let mut hidden = 0;
        let mut ases = std::collections::HashSet::new();
        for s in &self.servers {
            if s.org == org && s.exists_in(week) {
                if s.flags.has(ServerFlags::HIDDEN) {
                    hidden += 1;
                } else {
                    visible += 1;
                }
                ases.insert(s.asn);
            }
        }
        (visible, hidden, ases.len())
    }
}

/// Pre-computed deployment target pools.
struct DeployPools {
    /// Eyeball-ish ASes, members first (CDNs deploy into access networks).
    eyeballs: Vec<Asn>,
    /// How many of the leading `eyeballs` entries are IXP members.
    member_eyeballs: usize,
    /// Hosting-capable ASes (hosters, clouds).
    hosting: Vec<Asn>,
    /// ASes whose IXP gateway is Reseller-A (its customer cone).
    reseller_a_cone: Vec<Asn>,
}

impl DeployPools {
    fn build(registry: &AsRegistry, graph: &AsGraph) -> DeployPools {
        let mut eyeballs = Vec::new();
        let mut hosting = Vec::new();
        for info in registry.iter() {
            match info.role {
                AsRole::EyeballLarge => eyeballs.push(info.asn),
                AsRole::EyeballSmall | AsRole::University if eyeballs.len() < 4096 => {
                    eyeballs.push(info.asn);
                }
                AsRole::Hoster | AsRole::Cloud => hosting.push(info.asn),
                _ => {}
            }
        }
        hosting.sort_by_key(|asn| registry.info(*asn).unwrap().member.is_none());
        // Members first so that CDN deployments favour member eyeballs —
        // this is what makes the Fig. 7 link-heterogeneity scatter non-trivial.
        eyeballs.sort_by_key(|asn| registry.info(*asn).unwrap().member.is_none());
        let member_eyeballs = eyeballs
            .iter()
            .take_while(|asn| registry.info(**asn).unwrap().member.is_some())
            .count();
        let reseller_a_cone = registry
            .info(well_known::RESELLER_A)
            .and_then(|i| i.member)
            .map(|m| graph.cone_of(registry, m.id))
            .unwrap_or_default();
        DeployPools { eyeballs, member_eyeballs, hosting, reseller_a_cone }
    }
}

struct Generator<'a> {
    registry: &'a AsRegistry,
    routing: &'a RoutingSnapshot,
    orgs: &'a OrgCatalog,
    countries: &'a CountryTable,
    params: ChurnParams,
    /// Per prefix index: next free server slot.
    alloc: HashMap<u32, u32>,
    servers: Vec<Server>,
    published: Vec<PublishedRange>,
    deploy_pools: DeployPools,
}

impl<'a> Generator<'a> {
    fn place_org(&mut self, org: &Organization, rng: &mut SmallRng) {
        // 1. Build the hosting-AS plan: (asn, visible share).
        let plan = self.deployment_plan(org, rng);

        // 2. Special handling: Amazon-like gets data centers; Netflix-like
        //    rides inside Amazon's Ireland ranges; StormCloud gets DCs.
        match org.archetype {
            Some(Archetype::Amazon) => self.place_cloud_with_dcs(
                org,
                &[("eu-ireland", "IE", 0.45), ("us-east-1", "US", 0.35), ("us-west-1", "US", 0.20)],
                rng,
            ),
            Some(Archetype::StormCloud) => self.place_cloud_with_dcs(
                org,
                &[
                    ("sc-us-east-1", "US", 0.40),
                    ("sc-us-east-2", "US", 0.20),
                    ("sc-eu-west-1", "DE", 0.25),
                    ("sc-ap-south-1", "SG", 0.15),
                ],
                rng,
            ),
            Some(Archetype::Netflix) => self.place_netflix(org, rng),
            _ => {
                // 3. Ordinary placement.
                let windowed_factor = self.params.windowed_expansion;
                for (i, (asn, share)) in plan.iter().enumerate() {
                    let mut visible = (f64::from(org.target_servers) * share).round() as u32;
                    if i == 0 {
                        // The first deployment (the home AS, or the largest
                        // third-party site) always materialises.
                        visible = visible.max(1);
                    }
                    if visible == 0 {
                        continue; // tiny scaled orgs do not reach every AS
                    }
                    // Over-generate to sustain the weekly cross-section under
                    // windowed churn (see ChurnParams).
                    self.place_servers(
                        org,
                        *asn,
                        visible,
                        windowed_factor,
                        false,
                        ServiceTag::None,
                        rng,
                    );
                }
                // 4. Hidden footprint (private clusters, §3.3).
                if org.hidden_footprint > 0.0 {
                    let hidden_total =
                        (f64::from(org.target_servers) * org.hidden_footprint) as u32;
                    let hidden_spread =
                        (org.spread_ases * 5 / 2).clamp(1, (self.registry.len() / 2) as u32);
                    let pool = self.deploy_pools.eyeballs.clone();
                    if !pool.is_empty() {
                        let per_as = (hidden_total / hidden_spread).max(1);
                        let mut placed = 0u32;
                        for k in 0..hidden_spread {
                            if placed >= hidden_total {
                                break;
                            }
                            let asn = pool[(k as usize * 131 + 7) % pool.len()];
                            let n = per_as.min(hidden_total - placed);
                            self.place_servers(org, asn, n, 1.0, true, ServiceTag::None, rng);
                            placed += n;
                        }
                    }
                }
            }
        }
    }

    /// Hosting-AS plan: home AS gets `home_share`, the rest is spread
    /// across `spread_ases - 1` third-party ASes with a Zipf profile.
    fn deployment_plan(&self, org: &Organization, rng: &mut SmallRng) -> Vec<(Asn, f64)> {
        let mut plan = Vec::new();
        let mut remaining = 1.0;
        if let Some(home) = org.home_asn {
            if org.home_share > 0.0 {
                plan.push((home, org.home_share));
                remaining -= org.home_share;
            }
        }
        let third_party = org
            .spread_ases
            .saturating_sub(plan.len() as u32)
            .max(if remaining > 0.0 { 1 } else { 0 });
        if third_party == 0 || remaining <= 0.0 {
            return plan;
        }
        // Pool choice by kind: CDNs go into eyeballs, everyone else into
        // hosting ASes; small chance of landing in a reseller-cone AS.
        let use_eyeballs = matches!(org.kind, OrgKind::Cdn);
        let mut picked: Vec<Asn> = Vec::with_capacity(third_party as usize);
        let mut guard = 0;
        while picked.len() < third_party as usize && guard < third_party as usize * 20 {
            guard += 1;
            let pool: &[Asn] = if !self.deploy_pools.reseller_a_cone.is_empty()
                && !org.publishes_ranges
                && org.archetype.is_none()
                && rng.gen::<f64>() < 0.12
            {
                &self.deploy_pools.reseller_a_cone
            } else if use_eyeballs && !self.deploy_pools.eyeballs.is_empty() {
                // Favour the member eyeballs: CDNs deploy where the big
                // access networks peer. This also concentrates several
                // CDNs' caches in the *same* member ASes (Fig. 6c).
                let head = self
                    .deploy_pools
                    .member_eyeballs
                    .max(self.deploy_pools.eyeballs.len() / 8)
                    .max(1)
                    .min(self.deploy_pools.eyeballs.len());
                if rng.gen::<f64>() < 0.7 {
                    &self.deploy_pools.eyeballs[..head]
                } else {
                    &self.deploy_pools.eyeballs
                }
            } else if !self.deploy_pools.hosting.is_empty() {
                // Serious hosting businesses peer at the IXP; most customer
                // deployments land there.
                let head = (self.deploy_pools.hosting.len() / 6).max(1);
                if rng.gen::<f64>() < 0.7 {
                    &self.deploy_pools.hosting[..head]
                } else {
                    &self.deploy_pools.hosting
                }
            } else {
                &self.deploy_pools.eyeballs
            };
            if pool.is_empty() {
                break;
            }
            let asn = pool[rng.gen_range(0..pool.len())];
            if Some(asn) != org.home_asn && !picked.contains(&asn) {
                picked.push(asn);
            }
        }
        // Zipf shares over the third-party ASes.
        let norm: f64 = (1..=picked.len()).map(|k| 1.0 / k as f64).sum();
        for (k, asn) in picked.into_iter().enumerate() {
            plan.push((asn, remaining * (1.0 / (k + 1) as f64) / norm));
        }
        plan
    }

    /// Place `count` visible servers (plus windowed over-generation) of an
    /// org inside an AS.
    #[allow(clippy::too_many_arguments)]
    fn place_servers(
        &mut self,
        org: &Organization,
        asn: Asn,
        count: u32,
        windowed_factor: f64,
        hidden: bool,
        service: ServiceTag,
        rng: &mut SmallRng,
    ) {
        let stable_p = self.stable_probability(org, asn);
        // Split the weekly cross-section into a stable part and a windowed
        // part, over-generating the windowed records.
        let mut stable_n = (f64::from(count) * stable_p).round() as u32;
        // Every non-trivial deployment site keeps an anchor machine running
        // the whole study: real sites do not evaporate wholesale, and this
        // is what keeps the AS-level churn far below the IP-level churn
        // (paper Fig. 4c: ~70 % of server-hosting ASes are stable).
        if stable_n == 0 && count >= 3 {
            stable_n = 1;
        }
        let windowed_n =
            ((f64::from(count) - f64::from(stable_n)) * windowed_factor).round() as u32;
        for i in 0..stable_n + windowed_n {
            let stable = i < stable_n;
            if let Some(server) = self.materialize(org, asn, stable, hidden, service, rng) {
                self.servers.push(server);
            }
        }
    }

    fn stable_probability(&self, org: &Organization, asn: Asn) -> f64 {
        if org.archetype.is_some() {
            return self.params.archetype_stable;
        }
        let country = self.registry.info(asn).map(|i| i.country).unwrap_or(CountryId(0));
        let region = self.countries.region(country);
        let idx = match region {
            crate::types::Region::De => 0,
            crate::types::Region::Us => 1,
            crate::types::Region::Ru => 2,
            crate::types::Region::Cn => 3,
            crate::types::Region::RoW => 4,
        };
        self.params.region_stable[idx]
    }

    /// Create one server record inside the AS's address space.
    fn materialize(
        &mut self,
        org: &Organization,
        asn: Asn,
        stable: bool,
        hidden: bool,
        service: ServiceTag,
        rng: &mut SmallRng,
    ) -> Option<Server> {
        let (ip, country) = self.allocate_ip(asn, rng)?;
        let mut flags = ServerFlags::default();
        let mut start_week = Week::FIRST;
        let mut activity: u32;
        const ALL: u32 = (1 << Week::COUNT) - 1;
        if stable {
            flags.set(ServerFlags::STABLE);
            activity = ALL;
        } else {
            // Windowed activity: uniform start (possibly pre-study), random
            // window length, thinned by the presence probability.
            let lead = self.params.window_mean as i32;
            let start = rng.gen_range(-(lead) + 35..=51);
            let len =
                2 + rng.gen_range(0.0..1.0f64).mul_add(2.0 * self.params.window_mean, 0.0) as i32;
            activity = 0;
            for w in 35..=51i32 {
                if w >= start && w < start + len && rng.gen::<f64>() < self.params.presence {
                    activity |= 1u32 << (w - 35);
                }
            }
            if activity == 0 {
                // Guarantee at least one active week inside the study.
                let w = rng.gen_range(35..=51);
                activity |= 1u32 << (w - 35);
            }
            // The global week-44 mini-dip.
            if rng.gen::<f64>() < self.params.sandy_dip {
                activity &= !(1u32 << (44 - 35));
            }
            start_week = Week((35 + activity.trailing_zeros() as i32).min(51) as u8);
        }
        if hidden {
            flags.set(ServerFlags::HIDDEN);
        }
        // Role flags. HTTPS drifts upward for servers that appear later
        // (§4.2's steady HTTPS increase).
        let drift = 1.0 + 0.05 * f64::from(start_week.0.saturating_sub(35));
        let mut https_from = 35u8;
        if rng.gen::<f64>() < (org.https_share * drift).min(0.95) {
            flags.set(ServerFlags::HTTPS);
            // A third of HTTPS servers switch TLS on *during* the study.
            if rng.gen::<f64>() < 0.35 {
                https_from = rng.gen_range(36..=51);
            }
        }
        if rng.gen::<f64>() < org.multi_port_share {
            if matches!(org.kind, OrgKind::Cdn | OrgKind::Streamer | OrgKind::DataCenterCdn) {
                flags.set(ServerFlags::RTMP);
            } else {
                flags.set(ServerFlags::PORT_8080);
            }
        }
        if rng.gen::<f64>() < org.client_share {
            flags.set(ServerFlags::CLIENT_TOO);
        }
        if rng.gen::<f64>() < org.ptr_share {
            flags.set(ServerFlags::HAS_PTR);
        }
        // Traffic weight: Pareto body, org multiplier, stable boost.
        let pareto = (1.0 - rng.gen::<f64>()).powf(-1.0 / 1.35);
        let mut weight = pareto * org.traffic_multiplier;
        if stable {
            weight *= self.params.stable_weight_boost;
        }
        Some(Server {
            ip,
            org: org.id,
            asn,
            country,
            flags,
            weight: weight as f32,
            activity,
            service,
            https_from,
        })
    }

    /// Allocate a fresh IP in the server zone (first quarter) of one of the
    /// AS's prefixes.
    fn allocate_ip(&mut self, asn: Asn, rng: &mut SmallRng) -> Option<(Ipv4Addr, CountryId)> {
        let prefixes = self.routing.prefixes_of(self.registry, asn);
        if prefixes.is_empty() {
            return None;
        }
        let start = rng.gen_range(0..prefixes.len());
        for k in 0..prefixes.len() {
            let pidx = prefixes[(start + k) % prefixes.len()];
            let entry = *self.routing.entry(pidx);
            let zone = (entry.prefix.size() / 4).max(2) as u32;
            let next = self.alloc.entry(pidx).or_insert(1);
            if *next < zone {
                let ip = entry.prefix.addr_at(u64::from(*next));
                *next += 1;
                return Some((ip, entry.country));
            }
        }
        None
    }

    /// Clouds with published per-DC ranges: dedicate whole prefixes of the
    /// home AS to data centers and publish them.
    fn place_cloud_with_dcs(
        &mut self,
        org: &Organization,
        dcs: &[(&'static str, &'static str, f64)],
        rng: &mut SmallRng,
    ) {
        let home = org.home_asn.expect("cloud archetypes have a home AS");
        let prefixes: Vec<u32> = self.routing.prefixes_of(self.registry, home).to_vec();
        // Spread the home prefixes across the DCs round-robin and publish.
        let mut dc_prefixes: Vec<Vec<u32>> = vec![Vec::new(); dcs.len()];
        for (i, pidx) in prefixes.iter().enumerate() {
            dc_prefixes[i % dcs.len()].push(*pidx);
        }
        for (d, (label, cc, share)) in dcs.iter().enumerate() {
            for pidx in &dc_prefixes[d] {
                self.published.push(PublishedRange {
                    org: org.id,
                    label: label.to_string(),
                    country: cc,
                    prefix: self.routing.entry(*pidx).prefix,
                });
            }
            let count = (f64::from(org.target_servers) * share).round() as u32;
            let service = match org.archetype {
                Some(Archetype::Amazon) => {
                    // First DC tranche is CloudFront, the rest EC2: the
                    // paper contrasts the two services' link usage (§5.3).
                    ServiceTag::Ec2(d as u8)
                }
                Some(Archetype::StormCloud) => ServiceTag::StormCloud(d as u8),
                _ => ServiceTag::None,
            };
            self.place_dc_servers(org, home, &dc_prefixes[d], count, service, rng);
        }
        // CloudFront edges: a slice of extra servers marked as the CDN part,
        // placed in the home AS as well (Amazon only).
        if org.archetype == Some(Archetype::Amazon) {
            let edges = (org.target_servers / 4).max(2);
            self.place_servers(org, home, edges, 1.0, false, ServiceTag::CloudFront, rng);
        }
    }

    fn place_dc_servers(
        &mut self,
        org: &Organization,
        home: Asn,
        dc_prefixes: &[u32],
        count: u32,
        service: ServiceTag,
        rng: &mut SmallRng,
    ) {
        for _ in 0..count {
            // Allocate inside the DC's own prefixes.
            let mut placed = false;
            for pidx in dc_prefixes {
                let entry = *self.routing.entry(*pidx);
                let zone = (entry.prefix.size() / 4).max(2) as u32;
                let next = self.alloc.entry(*pidx).or_insert(1);
                if *next < zone {
                    let ip = entry.prefix.addr_at(u64::from(*next));
                    *next += 1;
                    let stable = rng.gen::<f64>() < self.params.archetype_stable;
                    if let Some(mut server) =
                        self.materialize_at(org, home, (ip, entry.country), stable, service, rng)
                    {
                        // StormCloud US-East (DC 0 and 1) drops out in wk 44
                        // — which by definition evicts those servers from
                        // the every-week stable pool.
                        if matches!(service, ServiceTag::StormCloud(d) if d < 2) {
                            server.activity &= !(1u32 << (44 - 35));
                            server.flags.0 &= !ServerFlags::STABLE;
                        }
                        // EC2 Ireland (the first DC) ramps up in weeks 49-51
                        // (§4.2): one third of its servers only appear then.
                        if matches!(service, ServiceTag::Ec2(0)) && rng.gen::<f64>() < 0.45 {
                            let start = rng.gen_range(49..=51u8);
                            let mut mask = 0u32;
                            for w in start..=51 {
                                mask |= 1 << (w - 35);
                            }
                            server.activity = mask;
                            server.flags.0 &= !ServerFlags::STABLE;
                        }
                        self.servers.push(server);
                    }
                    placed = true;
                    break;
                }
            }
            if !placed {
                break;
            }
        }
    }

    /// Netflix-like: all servers inside Amazon's Ireland ranges, appearing
    /// in weeks 49–51.
    fn place_netflix(&mut self, org: &Organization, rng: &mut SmallRng) {
        let ireland: Vec<Prefix> =
            self.published.iter().filter(|r| r.label == "eu-ireland").map(|r| r.prefix).collect();
        if ireland.is_empty() {
            return; // Amazon must be placed first (catalog order guarantees it)
        }
        let amazon_asn = self
            .orgs
            .iter()
            .find(|o| o.archetype == Some(Archetype::Amazon))
            .and_then(|o| o.home_asn)
            .expect("amazon home");
        for _ in 0..org.target_servers {
            let p = ireland[rng.gen_range(0..ireland.len())];
            let pidx = match self.routing.lookup(p.base_addr()) {
                Some(i) => i,
                None => continue,
            };
            let entry = *self.routing.entry(pidx);
            let zone = (entry.prefix.size() / 4).max(2) as u32;
            let next = self.alloc.entry(pidx).or_insert(1);
            if *next >= zone {
                continue;
            }
            let ip = entry.prefix.addr_at(u64::from(*next));
            *next += 1;
            if let Some(mut server) = self.materialize_at(
                org,
                amazon_asn,
                (ip, entry.country),
                false,
                ServiceTag::Ec2(0),
                rng,
            ) {
                let start = 49 + rng.gen_range(0..3u8).min(2);
                let mut mask = 0u32;
                for w in start..=51 {
                    mask |= 1 << (w - 35);
                }
                server.activity = mask;
                self.servers.push(server);
            }
        }
    }

    /// Like `materialize`, but for a pre-allocated IP (and its country, as
    /// `allocate_ip` pairs them).
    fn materialize_at(
        &mut self,
        org: &Organization,
        asn: Asn,
        (ip, country): (Ipv4Addr, CountryId),
        stable: bool,
        service: ServiceTag,
        rng: &mut SmallRng,
    ) -> Option<Server> {
        let mut flags = ServerFlags::default();
        const ALL: u32 = (1 << Week::COUNT) - 1;
        if stable {
            flags.set(ServerFlags::STABLE);
        }
        let mut https_from = 35u8;
        if rng.gen::<f64>() < org.https_share {
            flags.set(ServerFlags::HTTPS);
            if rng.gen::<f64>() < 0.35 {
                https_from = rng.gen_range(36..=51);
            }
        }
        if rng.gen::<f64>() < org.ptr_share {
            flags.set(ServerFlags::HAS_PTR);
        }
        if rng.gen::<f64>() < org.client_share {
            flags.set(ServerFlags::CLIENT_TOO);
        }
        let pareto = (1.0 - rng.gen::<f64>()).powf(-1.0 / 1.35);
        let mut weight = pareto * org.traffic_multiplier;
        if stable {
            weight *= self.params.stable_weight_boost;
        }
        Some(Server {
            ip,
            org: org.id,
            asn,
            country,
            flags,
            weight: weight as f32,
            activity: ALL,
            service,
            https_from,
        })
    }

    /// Hurricane Sandy takes out whole data centers, tenants included: any
    /// server whose IP falls inside a `us-east` published range of the
    /// StormCloud archetype goes dark in week 44 (§4.2).
    fn apply_dc_outages(&mut self) {
        let storm_org =
            self.orgs.iter().find(|o| o.archetype == Some(Archetype::StormCloud)).map(|o| o.id);
        let Some(storm_org) = storm_org else { return };
        let outage_ranges: Vec<Prefix> = self
            .published
            .iter()
            .filter(|r| r.org == storm_org && r.label.starts_with("sc-us-east"))
            .map(|r| r.prefix)
            .collect();
        if outage_ranges.is_empty() {
            return;
        }
        for server in self.servers.iter_mut() {
            if outage_ranges.iter().any(|p| p.contains(server.ip)) {
                server.activity &= !(1u32 << (44 - 35));
                server.flags.0 &= !ServerFlags::STABLE;
            }
        }
    }

    /// Reseller-A's customer base doubles over the study (§4.2): stagger
    /// half of the cone's server activity starts across weeks 36–51.
    fn apply_reseller_growth(&mut self, rng: &mut SmallRng) {
        let cone: std::collections::HashSet<Asn> =
            self.deploy_pools.reseller_a_cone.iter().copied().collect();
        if cone.is_empty() {
            return;
        }
        for server in self.servers.iter_mut() {
            if cone.contains(&server.asn) && rng.gen::<bool>() {
                let start = rng.gen_range(36..=51u8);
                let mut mask = 0u32;
                for w in start..=51 {
                    mask |= 1 << (w - 35);
                }
                server.activity &= mask;
                if server.activity == 0 {
                    server.activity = mask;
                }
                server.flags.0 &= !ServerFlags::STABLE;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build() -> (ServerCatalog, OrgCatalog, AsRegistry, ScaleConfig) {
        let countries = CountryTable::build();
        let scale = ScaleConfig::tiny();
        let registry = AsRegistry::generate(&scale, &countries, 33);
        let routing = RoutingSnapshot::generate(&scale, &registry, 33);
        let graph = AsGraph::build(&registry, &countries, 33);
        let orgs = OrgCatalog::generate(&scale, &registry, 33);
        let servers =
            ServerCatalog::generate(&scale, &registry, &routing, &orgs, &graph, &countries, 33);
        (servers, orgs, registry, scale)
    }

    #[test]
    fn weekly_pool_is_near_target() {
        let (servers, _, _, scale) = build();
        let active = servers.active_in(Week::REFERENCE).count();
        let target = scale.server_count as f64;
        let ratio = active as f64 / target;
        assert!((0.6..1.6).contains(&ratio), "active {active}, target {target}");
    }

    #[test]
    fn server_ips_are_unique() {
        let (servers, ..) = build();
        let mut ips: Vec<u32> = servers.servers().iter().map(|s| u32::from(s.ip)).collect();
        let n = ips.len();
        ips.sort_unstable();
        ips.dedup();
        assert_eq!(ips.len(), n);
    }

    #[test]
    fn stable_pool_fraction_is_plausible() {
        let (servers, ..) = build();
        let active: Vec<&Server> = servers.active_in(Week::LAST).collect();
        let stable = active.iter().filter(|s| s.flags.has(ServerFlags::STABLE)).count();
        let share = stable as f64 / active.len() as f64;
        // Target ≈ 0.30 (paper §4.1); tolerate model noise at tiny scale.
        assert!((0.15..0.60).contains(&share), "stable share = {share:.2}");
    }

    #[test]
    fn stable_servers_active_every_week() {
        let (servers, ..) = build();
        for s in servers.servers() {
            if s.flags.has(ServerFlags::STABLE) {
                for week in Week::all() {
                    assert!(s.exists_in(week));
                }
            }
        }
    }

    #[test]
    fn hidden_servers_never_active_but_exist() {
        let (servers, ..) = build();
        let hidden: Vec<&Server> =
            servers.servers().iter().filter(|s| s.flags.has(ServerFlags::HIDDEN)).collect();
        assert!(!hidden.is_empty(), "no hidden footprint generated");
        for s in hidden {
            for week in Week::all() {
                assert!(!s.active_in(week));
            }
        }
    }

    #[test]
    fn akamai_like_spreads_over_many_ases() {
        let (servers, orgs, ..) = build();
        let akamai = orgs.archetype(Archetype::Akamai);
        let (visible, hidden, ases) = servers.footprint(akamai.id, Week::REFERENCE);
        assert!(visible > 0);
        assert!(hidden > visible, "hidden {hidden} should exceed visible {visible}");
        assert!(ases > 5, "akamai only in {ases} ASes");
    }

    #[test]
    fn hosters_concentrate_at_home() {
        let (servers, orgs, ..) = build();
        let hoster = orgs.archetype(Archetype::BigHoster);
        let home = hoster.home_asn.unwrap();
        let total = servers.servers().iter().filter(|s| s.org == hoster.id).count();
        let at_home =
            servers.servers().iter().filter(|s| s.org == hoster.id && s.asn == home).count();
        assert!(at_home as f64 / total as f64 > 0.8);
    }

    #[test]
    fn ec2_ireland_ramps_in_final_weeks() {
        let (servers, orgs, ..) = build();
        let amazon = orgs.archetype(Archetype::Amazon);
        let count_in = |week: Week| {
            servers
                .active_in(week)
                .filter(|s| s.org == amazon.id && matches!(s.service, ServiceTag::Ec2(0)))
                .count()
        };
        let before = count_in(Week(45));
        let after = count_in(Week(51));
        assert!(after > before, "EC2-Ireland {before} -> {after}");
    }

    #[test]
    fn stormcloud_us_east_dips_week_44() {
        let (servers, orgs, ..) = build();
        let storm = orgs.archetype(Archetype::StormCloud);
        let us_east = |week: Week| {
            servers
                .active_in(week)
                .filter(|s| {
                    s.org == storm.id && matches!(s.service, ServiceTag::StormCloud(d) if d < 2)
                })
                .count()
        };
        let w43 = us_east(Week(43));
        let w44 = us_east(Week(44));
        let w45 = us_east(Week(45));
        assert_eq!(w44, 0, "US-East should be dark in week 44");
        assert!(w43 > 0 && w45 > 0);
    }

    #[test]
    fn netflix_rides_amazon_ireland() {
        let (servers, orgs, ..) = build();
        let netflix = orgs.archetype(Archetype::Netflix);
        let amazon_home = orgs.archetype(Archetype::Amazon).home_asn.unwrap();
        let own: Vec<&Server> = servers.servers().iter().filter(|s| s.org == netflix.id).collect();
        assert!(!own.is_empty());
        for s in &own {
            assert_eq!(s.asn, amazon_home);
            assert!(!s.active_in(Week(45)), "netflix server active too early");
        }
        assert!(own.iter().any(|s| s.active_in(Week(51))));
    }

    #[test]
    fn published_ranges_cover_their_servers() {
        let (servers, orgs, ..) = build();
        let amazon = orgs.archetype(Archetype::Amazon);
        let ranges = servers.published_ranges();
        assert!(ranges.iter().any(|r| r.org == amazon.id && r.label == "eu-ireland"));
        for s in servers.servers().iter().filter(|s| matches!(s.service, ServiceTag::Ec2(_))) {
            assert!(
                ranges.iter().any(|r| r.prefix.contains(s.ip)),
                "EC2 server {} outside published ranges",
                s.ip
            );
        }
    }

    #[test]
    fn by_ip_lookup_round_trips() {
        let (servers, ..) = build();
        for s in servers.servers().iter().take(50) {
            let found = servers.by_ip(s.ip).unwrap();
            assert_eq!(found.org, s.org);
        }
    }

    #[test]
    fn deterministic() {
        let countries = CountryTable::build();
        let scale = ScaleConfig::tiny();
        let registry = AsRegistry::generate(&scale, &countries, 55);
        let routing = RoutingSnapshot::generate(&scale, &registry, 55);
        let graph = AsGraph::build(&registry, &countries, 55);
        let orgs = OrgCatalog::generate(&scale, &registry, 55);
        let a = ServerCatalog::generate(&scale, &registry, &routing, &orgs, &graph, &countries, 55);
        let b = ServerCatalog::generate(&scale, &registry, &routing, &orgs, &graph, &countries, 55);
        assert_eq!(a.servers().len(), b.servers().len());
        for (x, y) in a.servers().iter().zip(b.servers().iter()) {
            assert_eq!(x.ip, y.ip);
            assert_eq!(x.activity, y.activity);
            assert_eq!(x.flags, y.flags);
        }
    }
}
