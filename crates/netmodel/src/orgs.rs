//! The organization catalog.
//!
//! §5 of the paper clusters server IPs by the *organization* that
//! administers them and finds ≈ 21K organizations, among them a handful of
//! very large, very recognizable players. This module generates that
//! population: a fixed set of **named archetypes** — calibrated against the
//! players the paper names (Akamai, Google, the big hosters, CloudFlare,
//! Amazon, the streamers, CDN77, one-click hosters) — plus a power-law tail
//! of generic organizations.
//!
//! Every behavioural knob the downstream crates need lives on the
//! [`Organization`] record: how many servers, spread across how many ASes,
//! which naming/DNS regime (drives the §5.1 clustering), HTTPS/multi-port
//! shares (drives §2.2.2 identification), traffic multipliers (drives the
//! Fig. 2 head) and whether the org publishes its IP ranges (drives the
//! §4.2 cloud-tracking experiments).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::registry::{well_known, AsRegistry};
use crate::scale::ScaleConfig;
use crate::types::{Asn, OrgId};

/// Behavioural class of an organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrgKind {
    /// Content-delivery network deploying into third-party ASes.
    Cdn,
    /// CDN operating its own data centers only.
    DataCenterCdn,
    /// Content provider (search, video, social).
    Content,
    /// Hosting company (dedicated/virtual servers for customers).
    Hoster,
    /// Meta-hoster: fronts several hosters' infrastructure (paper §5.1).
    MetaHoster,
    /// Cloud-infrastructure provider.
    Cloud,
    /// Streaming provider (typically no URIs, only DNS meta-data, §2.4).
    Streamer,
    /// One-click hosting service (paper §5.1's Rapidshare example).
    OneClickHoster,
    /// Anything else running more than a token server fleet.
    Generic,
}

/// Named archetypes with paper-calibrated parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Archetype {
    /// Akamai-like global CDN: ≈ 1.9 % of all server IPs, spread over
    /// hundreds of ASes; HTTP + RTMP multi-purpose servers; a large
    /// additional ground-truth footprint invisible at the IXP (§3.3).
    Akamai,
    /// Google-like content provider (≈ 11.5K server IPs at full scale).
    Google,
    /// The Fig. 6c mega-hoster (AS36351-like, ≈ 90K server IPs).
    BigHoster,
    /// Second large hoster (≈ 50K server IPs).
    HosterB,
    /// Third large hoster (≈ 50K server IPs).
    HosterC,
    /// CloudFlare-like data-center CDN (Fig. 7c).
    CloudFlare,
    /// Amazon-like cloud: CloudFront CDN part + EC2 cloud part with
    /// published per-data-center IP ranges (§4.2).
    Amazon,
    /// Netflix-like content provider renting EC2 capacity (§4.2): its
    /// servers live inside Amazon's Ireland ranges from week 49 on.
    Netflix,
    /// The cloud provider whose US-East data centers drown in week 44.
    StormCloud,
    /// VKontakte-like social network (big traffic source, Table 2).
    VKontakte,
    /// Hetzner-like hoster (top-3 by server traffic, Table 2).
    Hetzner,
    /// OVH-like hoster.
    Ovh,
    /// Leaseweb-like hoster.
    Leaseweb,
    /// Limelight-like CDN with heavy machine-to-machine traffic (§2.2.2).
    Limelight,
    /// EdgeCast-like CDN, also serverclient heavy.
    EdgeCast,
    /// CDN77-like newcomer: no ASN of its own, publishes all server IPs.
    Cdn77,
    /// Rapidshare-like one-click hoster without an ASN.
    Rapidshare,
    /// Link11-like DDoS-protection/CDN.
    Link11,
    /// Kartina-like IPTV streamer.
    Kartina,
    /// Eweka-like usenet operator (servers that also act as clients).
    Eweka,
}

/// An organization and all its behavioural parameters.
#[derive(Debug, Clone)]
pub struct Organization {
    /// Dense id.
    pub id: OrgId,
    /// Display name.
    pub name: String,
    /// Behavioural class.
    pub kind: OrgKind,
    /// Named archetype, if any.
    pub archetype: Option<Archetype>,
    /// Home AS (None for players without an ASN — invisible to the
    /// traditional AS-level view, §5.1).
    pub home_asn: Option<Asn>,
    /// The apex domain whose SOA identifies this organization.
    pub soa_domain: String,
    /// If set, DNS is outsourced: SOA queries for the org's zones return
    /// the shared provider's SOA instead (drives clustering step 2).
    pub dns_provider: Option<u16>,
    /// True if the org publishes its server IP ranges (EC2, CDN77, the
    /// Sandy-struck cloud) — consumed by the §4.2 tracking experiments.
    pub publishes_ranges: bool,
    /// Server-IP count this org should reach in the reference week.
    pub target_servers: u32,
    /// Number of distinct ASes to spread those servers over.
    pub spread_ases: u32,
    /// Fraction of servers placed in the home AS (if any).
    pub home_share: f64,
    /// Per-server traffic multiplier relative to the global mean.
    pub traffic_multiplier: f64,
    /// Fraction of servers speaking HTTPS (with valid certificates).
    pub https_share: f64,
    /// Fraction of servers active on multiple service ports.
    pub multi_port_share: f64,
    /// Fraction of servers that also initiate connections (m2m traffic).
    pub client_share: f64,
    /// Fraction of servers with PTR records under the org's naming schema.
    pub ptr_share: f64,
    /// Fraction of traffic samples from these servers that carry a
    /// recoverable URI (Host header / request line).
    pub uri_share: f64,
    /// Number of front-end heavy hitters (data-center/anycast gateways
    /// responsible for outsized traffic shares, Fig. 2).
    pub front_ends: u32,
    /// Content domains served by this organization.
    pub domains: Vec<String>,
    /// Extra ground-truth servers (count) deployed in "private clusters"
    /// that never exchange traffic across the IXP (§3.3 blind spots), as a
    /// multiple of `target_servers`.
    pub hidden_footprint: f64,
}

/// The generated organization population.
#[derive(Debug, Clone)]
pub struct OrgCatalog {
    orgs: Vec<Organization>,
}

impl OrgCatalog {
    /// Generate the catalog: archetypes first, then the generic tail.
    pub(crate) fn generate(scale: &ScaleConfig, registry: &AsRegistry, seed: u64) -> OrgCatalog {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5_0004);
        let n_servers = scale.server_count as f64;
        let max_spread = (scale.as_count / 3).max(4);

        let mut orgs: Vec<Organization> = Vec::with_capacity(scale.org_count as usize);
        for spec in archetype_specs() {
            let id = OrgId(orgs.len() as u32);
            orgs.push(spec.instantiate(id, n_servers, max_spread, &mut rng));
        }

        // The archetypes consume a fixed slice of the server pool; the
        // generic tail shares the rest via a bounded power law.
        let archetype_servers: u32 = orgs.iter().map(|o| o.target_servers).sum();
        let remaining = scale.server_count.saturating_sub(archetype_servers).max(1);
        let generic_count = (scale.org_count as usize).saturating_sub(orgs.len()).max(1);
        let sizes = power_law_sizes(remaining, generic_count, &mut rng);

        // Hosting homes for generic orgs: content-ish roles. Member ASes
        // are repeated so that serious hosting businesses — which peer at
        // the IXP in reality — attract most organizations; this is what
        // concentrates server traffic on A(L) (paper Table 3: 82.6 %).
        let mut host_candidates: Vec<Asn> = Vec::new();
        for i in registry.iter() {
            if !i.role.hosts_servers() {
                continue;
            }
            let copies = if i.member.is_some() { 40 } else { 1 };
            for _ in 0..copies {
                host_candidates.push(i.asn);
            }
        }

        for size in sizes {
            let id = OrgId(orgs.len() as u32);
            let kind = draw_generic_kind(&mut rng);
            let has_asn = !matches!(kind, OrgKind::MetaHoster | OrgKind::OneClickHoster)
                || rng.gen::<f64>() < 0.3;
            let home_asn = if has_asn && !host_candidates.is_empty() {
                Some(host_candidates[rng.gen_range(0..host_candidates.len())])
            } else {
                None
            };
            let spread = generic_spread(size, kind, max_spread, &mut rng);
            let name = format!("{}-{}", kind_slug(kind), id.0);
            let soa_domain = format!("{}.example", name.to_lowercase());
            let dns_provider = if rng.gen::<f64>() < dns_outsourcing_prob(kind) {
                Some(rng.gen_range(0..8u16))
            } else {
                None
            };
            let n_domains = domain_count(kind, size, &mut rng);
            let domains = (0..n_domains).map(|k| format!("www{k}.{soa_domain}")).collect();
            orgs.push(Organization {
                id,
                name,
                kind,
                archetype: None,
                home_asn,
                soa_domain,
                dns_provider,
                publishes_ranges: false,
                target_servers: size,
                spread_ases: spread,
                home_share: match kind {
                    OrgKind::Hoster | OrgKind::Cloud => 0.95,
                    OrgKind::Content | OrgKind::Streamer => 0.7,
                    OrgKind::Cdn | OrgKind::DataCenterCdn => 0.35,
                    _ => 0.6,
                },
                traffic_multiplier: 0.4 + rng.gen::<f64>() * 1.2,
                https_share: (0.10 + rng.gen::<f64>() * 0.32).min(1.0),
                multi_port_share: 0.05 + rng.gen::<f64>() * 0.08,
                client_share: 0.05 + rng.gen::<f64>() * 0.1,
                ptr_share: 0.55 + rng.gen::<f64>() * 0.35,
                uri_share: match kind {
                    OrgKind::Streamer => 0.05,
                    _ => 0.5 + rng.gen::<f64>() * 0.4,
                },
                front_ends: 0,
                domains,
                hidden_footprint: 0.0,
            });
        }

        OrgCatalog { orgs }
    }

    /// Number of organizations.
    pub fn len(&self) -> usize {
        self.orgs.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.orgs.is_empty()
    }

    /// All organizations.
    pub fn iter(&self) -> impl Iterator<Item = &Organization> {
        self.orgs.iter()
    }

    /// Organization by id.
    pub fn get(&self, id: OrgId) -> &Organization {
        &self.orgs[id.0 as usize]
    }

    /// Find the archetype instance.
    pub fn archetype(&self, which: Archetype) -> &Organization {
        self.orgs
            .iter()
            .find(|o| o.archetype == Some(which))
            .expect("archetype missing from catalog")
    }
}

/// Parameter block for one archetype.
struct ArchetypeSpec {
    archetype: Archetype,
    name: &'static str,
    kind: OrgKind,
    home_asn: Option<Asn>,
    /// Servers as a fraction of the global pool (paper-calibrated).
    server_share: f64,
    /// Spread as a fraction of `max_spread`, or an absolute cap.
    spread: SpreadSpec,
    home_share: f64,
    traffic_multiplier: f64,
    https_share: f64,
    multi_port_share: f64,
    client_share: f64,
    ptr_share: f64,
    uri_share: f64,
    front_ends: u32,
    publishes_ranges: bool,
    dns_provider: Option<u16>,
    domains: u32,
    hidden_footprint: f64,
}

enum SpreadSpec {
    /// Paper-reported AS counts (clamped to the model's AS budget).
    Absolute(u32),
}

fn archetype_specs() -> Vec<ArchetypeSpec> {
    use Archetype::*;
    use OrgKind::*;
    let spec =
        |archetype, name, kind, home_asn, server_share, spread, home_share, traffic_multiplier| {
            ArchetypeSpec {
                archetype,
                name,
                kind,
                home_asn,
                server_share,
                spread: SpreadSpec::Absolute(spread),
                home_share,
                traffic_multiplier,
                https_share: 0.22,
                multi_port_share: 0.2,
                client_share: 0.08,
                ptr_share: 0.95,
                uri_share: 0.8,
                front_ends: 2,
                publishes_ranges: false,
                dns_provider: None,
                domains: 40,
                hidden_footprint: 0.0,
            }
        };

    let mut specs = vec![
        // Akamai-like: 28K of 1.49M server IPs (1.88 %) in 278 ASes; the
        // ground truth is ≈ 100K servers in ≈ 1K ASes, i.e. a hidden
        // footprint of ≈ 2.6× the visible one (§3.3).
        ArchetypeSpec {
            multi_port_share: 0.9, // HTTP + RTMP on the same IPs
            client_share: 0.12,
            front_ends: 6,
            hidden_footprint: 2.6,
            domains: 400, // serves many customer domains
            ..spec(
                Akamai,
                "Akamai-like",
                Cdn,
                Some(well_known::AKAMAI_LIKE),
                0.0188,
                278,
                0.28,
                14.0,
            )
        },
        // Google-like: 11.5K server IPs (0.77 %), mostly own ASes plus
        // cache deployments in eyeballs.
        ArchetypeSpec {
            https_share: 0.6,
            front_ends: 5,
            hidden_footprint: 0.8,
            ..spec(
                Google,
                "Google-like",
                Content,
                Some(well_known::GOOGLE_LIKE),
                0.0077,
                120,
                0.55,
                16.0,
            )
        },
        ArchetypeSpec {
            // Fig. 6c: ≈ 40K+ server IPs hosting content of 350+ orgs.
            dns_provider: Some(0),
            domains: 1200,
            ..spec(
                BigHoster,
                "BigWebHoster-like",
                Hoster,
                Some(well_known::BIG_HOSTER),
                0.060,
                3,
                0.97,
                1.1,
            )
        },
        ArchetypeSpec {
            domains: 700,
            ..spec(
                HosterB,
                "MassHosterB-like",
                Hoster,
                Some(well_known::HETZNER_LIKE),
                0.034,
                2,
                0.97,
                3.2,
            )
        },
        ArchetypeSpec {
            domains: 700,
            ..spec(
                HosterC,
                "MassHosterC-like",
                Hoster,
                Some(well_known::OVH_LIKE),
                0.034,
                3,
                0.96,
                1.6,
            )
        },
        ArchetypeSpec {
            https_share: 0.7,
            front_ends: 8,
            domains: 500,
            ..spec(
                CloudFlare,
                "CloudFlare-like",
                DataCenterCdn,
                Some(well_known::CLOUDFLARE_LIKE),
                0.010,
                2,
                0.98,
                6.0,
            )
        },
        ArchetypeSpec {
            publishes_ranges: true,
            https_share: 0.45,
            front_ends: 4,
            domains: 300,
            ..spec(Amazon, "Amazon-like", Cloud, Some(well_known::AMAZON_LIKE), 0.022, 4, 0.95, 3.0)
        },
        ArchetypeSpec {
            // Netflix-like rides on Amazon's ranges; own servers appear
            // only through EC2, so home share is 0 and spread is EC2.
            https_share: 0.3,
            ..spec(Netflix, "Netflix-like", Content, None, 0.004, 1, 0.0, 5.0)
        },
        ArchetypeSpec {
            publishes_ranges: true,
            https_share: 0.5,
            front_ends: 3,
            ..spec(
                StormCloud,
                "StormCloud-like",
                Cloud,
                Some(well_known::STORMCLOUD),
                0.0094,
                2,
                0.97,
                2.2,
            )
        },
        ArchetypeSpec {
            front_ends: 4,
            uri_share: 0.7,
            ..spec(
                VKontakte,
                "VKontakte-like",
                Content,
                Some(well_known::VKONTAKTE_LIKE),
                0.005,
                2,
                0.9,
                11.0,
            )
        },
        ArchetypeSpec {
            domains: 500,
            ..spec(
                Leaseweb,
                "Leaseweb-like",
                Hoster,
                Some(well_known::LEASEWEB_LIKE),
                0.020,
                3,
                0.95,
                2.6,
            )
        },
        ArchetypeSpec {
            client_share: 0.5, // heavy machine-to-machine CDN traffic
            front_ends: 3,
            ..spec(
                Limelight,
                "Limelight-like",
                Cdn,
                Some(well_known::LIMELIGHT_LIKE),
                0.006,
                40,
                0.5,
                5.5,
            )
        },
        ArchetypeSpec {
            client_share: 0.5,
            front_ends: 3,
            ..spec(
                EdgeCast,
                "EdgeCast-like",
                Cdn,
                Some(well_known::EDGECAST_LIKE),
                0.005,
                30,
                0.5,
                5.0,
            )
        },
        ArchetypeSpec {
            // CDN77-like: no ASN; every server IP is published (§5.1).
            publishes_ranges: true,
            ..spec(Cdn77, "CDN77-like", Cdn, None, 0.0015, 25, 0.0, 2.0)
        },
        ArchetypeSpec {
            uri_share: 0.9,
            ..spec(Rapidshare, "Rapidshare-like", OneClickHoster, None, 0.0012, 6, 0.0, 3.5)
        },
        ArchetypeSpec {
            front_ends: 2,
            ..spec(Link11, "Link11-like", DataCenterCdn, None, 0.002, 4, 0.0, 3.0)
        },
        ArchetypeSpec {
            uri_share: 0.05, // streamer: DNS meta-data only (§2.4)
            ptr_share: 0.9,
            front_ends: 2,
            ..spec(Kartina, "Kartina-like", Streamer, None, 0.0018, 3, 0.0, 3.0)
        },
        ArchetypeSpec {
            client_share: 0.7,
            ..spec(Eweka, "Eweka-like", Generic, None, 0.0015, 2, 0.0, 2.5)
        },
    ];
    // Keep ordering stable: the enum order above is the catalog order.
    specs.shrink_to_fit();
    specs
}

impl ArchetypeSpec {
    fn instantiate(
        &self,
        id: OrgId,
        n_servers: f64,
        max_spread: u32,
        _rng: &mut SmallRng,
    ) -> Organization {
        let SpreadSpec::Absolute(spread) = self.spread;
        let soa_domain =
            format!("{}.example", self.name.to_lowercase().replace("-like", "").replace(' ', ""));
        let domains =
            (0..self.domains)
                .map(|k| {
                    if k == 0 {
                        format!("www.{soa_domain}")
                    } else {
                        format!("cust{k}.{soa_domain}")
                    }
                })
                .collect();
        Organization {
            id,
            name: self.name.to_string(),
            kind: self.kind,
            archetype: Some(self.archetype),
            home_asn: self.home_asn,
            soa_domain,
            dns_provider: self.dns_provider,
            publishes_ranges: self.publishes_ranges,
            target_servers: ((n_servers * self.server_share).round() as u32).max(4),
            spread_ases: spread.min(max_spread).max(1),
            home_share: self.home_share,
            traffic_multiplier: self.traffic_multiplier,
            https_share: self.https_share,
            multi_port_share: self.multi_port_share,
            client_share: self.client_share,
            ptr_share: self.ptr_share,
            uri_share: self.uri_share,
            front_ends: self.front_ends,
            domains,
            hidden_footprint: self.hidden_footprint,
        }
    }
}

/// Bounded discrete power law summing to `total` over `count` draws.
fn power_law_sizes(total: u32, count: usize, rng: &mut SmallRng) -> Vec<u32> {
    // Draw pareto-ish raw sizes, normalize to the total.
    let alpha = 1.15;
    let raw: Vec<f64> = (0..count)
        .map(|_| {
            let u: f64 = rng.gen::<f64>().max(1e-9);
            u.powf(-1.0 / alpha)
        })
        .collect();
    let raw_sum: f64 = raw.iter().sum();
    let mut sizes: Vec<u32> =
        raw.iter().map(|r| ((r / raw_sum) * f64::from(total)).round() as u32).collect();
    // Everybody runs at least one server; rebalance the delta on the head.
    for s in sizes.iter_mut() {
        if *s == 0 {
            *s = 1;
        }
    }
    let current: i64 = sizes.iter().map(|s| i64::from(*s)).sum();
    let mut delta = i64::from(total) - current;
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(sizes[i]));
    let mut k = 0;
    while delta != 0 && !order.is_empty() {
        let i = order[k % order.len()];
        if delta > 0 {
            sizes[i] += 1;
            delta -= 1;
        } else if sizes[i] > 1 {
            sizes[i] -= 1;
            delta += 1;
        }
        k += 1;
        if k > sizes.len() * 10 {
            break; // cannot rebalance further (all at minimum)
        }
    }
    sizes
}

fn draw_generic_kind(rng: &mut SmallRng) -> OrgKind {
    match rng.gen::<f64>() {
        x if x < 0.02 => OrgKind::Cdn,
        x if x < 0.04 => OrgKind::DataCenterCdn,
        x if x < 0.16 => OrgKind::Content,
        x if x < 0.50 => OrgKind::Hoster,
        x if x < 0.53 => OrgKind::MetaHoster,
        x if x < 0.58 => OrgKind::Cloud,
        x if x < 0.62 => OrgKind::Streamer,
        x if x < 0.64 => OrgKind::OneClickHoster,
        _ => OrgKind::Generic,
    }
}

fn generic_spread(size: u32, kind: OrgKind, max_spread: u32, rng: &mut SmallRng) -> u32 {
    let base = (f64::from(size).powf(0.62)).max(1.0);
    let kind_factor = match kind {
        OrgKind::Cdn => 2.5,
        OrgKind::DataCenterCdn => 0.4,
        OrgKind::Content => 0.8,
        OrgKind::Hoster | OrgKind::Cloud => 0.15,
        OrgKind::MetaHoster => 1.5,
        OrgKind::Streamer => 0.5,
        OrgKind::OneClickHoster => 0.8,
        OrgKind::Generic => 0.4,
    };
    let jitter = 0.5 + rng.gen::<f64>() * 1.5;
    ((base * kind_factor * jitter).round() as u32).clamp(1, max_spread.max(1))
}

fn dns_outsourcing_prob(kind: OrgKind) -> f64 {
    match kind {
        OrgKind::Hoster => 0.12,
        OrgKind::MetaHoster => 0.70,
        OrgKind::Generic => 0.15,
        OrgKind::OneClickHoster => 0.22,
        _ => 0.06,
    }
}

fn domain_count(kind: OrgKind, size: u32, rng: &mut SmallRng) -> u32 {
    let per_server = match kind {
        OrgKind::Hoster | OrgKind::MetaHoster => 1.6,
        OrgKind::OneClickHoster => 0.2,
        OrgKind::Streamer => 0.1,
        _ => 0.5,
    };
    ((f64::from(size) * per_server * (0.5 + rng.gen::<f64>())).round() as u32).clamp(1, 4000)
}

fn kind_slug(kind: OrgKind) -> &'static str {
    match kind {
        OrgKind::Cdn => "cdn",
        OrgKind::DataCenterCdn => "dccdn",
        OrgKind::Content => "content",
        OrgKind::Hoster => "hoster",
        OrgKind::MetaHoster => "metahoster",
        OrgKind::Cloud => "cloud",
        OrgKind::Streamer => "streamer",
        OrgKind::OneClickHoster => "oneclick",
        OrgKind::Generic => "org",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::country::CountryTable;

    fn build() -> (OrgCatalog, ScaleConfig) {
        let countries = CountryTable::build();
        let scale = ScaleConfig::tiny();
        let registry = AsRegistry::generate(&scale, &countries, 21);
        let catalog = OrgCatalog::generate(&scale, &registry, 21);
        (catalog, scale)
    }

    #[test]
    fn catalog_has_requested_org_count() {
        let (catalog, scale) = build();
        assert_eq!(catalog.len(), scale.org_count as usize);
    }

    #[test]
    fn all_archetypes_present() {
        let (catalog, _) = build();
        use Archetype::*;
        for a in [
            Akamai, Google, BigHoster, HosterB, HosterC, CloudFlare, Amazon, Netflix, StormCloud,
            VKontakte, Leaseweb, Limelight, EdgeCast, Cdn77, Rapidshare, Link11, Kartina, Eweka,
        ] {
            let org = catalog.archetype(a);
            assert!(org.target_servers > 0, "{a:?} has no servers");
        }
    }

    #[test]
    fn server_totals_match_scale() {
        let (catalog, scale) = build();
        let total: u32 = catalog.iter().map(|o| o.target_servers).sum();
        let target = scale.server_count;
        let ratio = f64::from(total) / f64::from(target);
        assert!((0.9..1.35).contains(&ratio), "total {total} vs target {target}");
    }

    #[test]
    fn asnless_orgs_exist() {
        let (catalog, _) = build();
        let asnless = catalog.iter().filter(|o| o.home_asn.is_none()).count();
        assert!(asnless > 0);
        assert!(catalog.archetype(Archetype::Cdn77).home_asn.is_none());
        assert!(catalog.archetype(Archetype::Rapidshare).home_asn.is_none());
    }

    #[test]
    fn akamai_like_is_calibrated() {
        let (catalog, scale) = build();
        let akamai = catalog.archetype(Archetype::Akamai);
        let share = f64::from(akamai.target_servers) / f64::from(scale.server_count);
        assert!((0.01..0.05).contains(&share), "share = {share}");
        assert!(akamai.multi_port_share > 0.8);
        assert!(akamai.hidden_footprint > 1.0);
        assert!(akamai.spread_ases > 10);
    }

    #[test]
    fn hosters_stay_home_cdns_spread() {
        let (catalog, _) = build();
        let hoster = catalog.archetype(Archetype::BigHoster);
        assert!(hoster.home_share > 0.9);
        assert!(hoster.spread_ases <= 4);
        let akamai = catalog.archetype(Archetype::Akamai);
        assert!(akamai.home_share < 0.5);
    }

    #[test]
    fn power_law_sizes_sum_and_skew() {
        let mut rng = SmallRng::seed_from_u64(3);
        let sizes = power_law_sizes(10_000, 500, &mut rng);
        let total: u32 = sizes.iter().sum();
        assert_eq!(total, 10_000);
        let max = *sizes.iter().max().unwrap();
        let median = {
            let mut s = sizes.clone();
            s.sort_unstable();
            s[s.len() / 2]
        };
        assert!(max > median * 10, "not skewed: max {max}, median {median}");
        assert!(sizes.iter().all(|s| *s >= 1));
    }

    #[test]
    fn deterministic() {
        let countries = CountryTable::build();
        let scale = ScaleConfig::tiny();
        let registry = AsRegistry::generate(&scale, &countries, 8);
        let a = OrgCatalog::generate(&scale, &registry, 8);
        let b = OrgCatalog::generate(&scale, &registry, 8);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.target_servers, y.target_servers);
            assert_eq!(x.spread_ases, y.spread_ases);
        }
    }

    #[test]
    fn domains_are_nonempty_and_rooted_in_soa() {
        let (catalog, _) = build();
        for org in catalog.iter() {
            assert!(!org.domains.is_empty(), "{} has no domains", org.name);
            for d in &org.domains {
                assert!(d.ends_with(&org.soa_domain), "{d} not under {}", org.soa_domain);
            }
        }
    }
}
