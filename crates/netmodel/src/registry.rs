//! The AS registry: every routed autonomous system with its role, country,
//! and (for IXP members) membership information.
//!
//! Roles drive everything downstream: how many prefixes and client IPs an
//! AS gets, whether organizations deploy servers into it, whether it joins
//! the IXP, and how much traffic it originates. The role mix is calibrated
//! to the coarse composition of the 2012 Internet (a few dozen Tier-1s and
//! large transits, a few hundred hosters and CDNs, thousands of eyeballs,
//! and a long tail of enterprises and stubs).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

use crate::country::{CountryId, CountryTable};
use crate::scale::ScaleConfig;
use crate::types::{Asn, MemberId, Week};

/// Coarse behavioural role of an AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsRole {
    /// Global transit backbone.
    Tier1,
    /// Regional/national transit provider.
    Transit,
    /// Large residential access network (millions of subscribers).
    EyeballLarge,
    /// Small regional access network.
    EyeballSmall,
    /// Hosting/colocation provider.
    Hoster,
    /// Content-delivery network.
    Cdn,
    /// Cloud-infrastructure provider.
    Cloud,
    /// Content provider (portals, video, social).
    Content,
    /// Enterprise network.
    Enterprise,
    /// University/research network.
    University,
    /// IXP reseller: provides remote access to the IXP fabric (paper §4.2).
    Reseller,
}

impl AsRole {
    /// True for roles that run server infrastructure of their own.
    pub(crate) fn hosts_servers(&self) -> bool {
        matches!(
            self,
            AsRole::Hoster | AsRole::Cdn | AsRole::Cloud | AsRole::Content | AsRole::University
        ) || matches!(self, AsRole::EyeballLarge)
    }
}

/// One autonomous system.
#[derive(Debug, Clone)]
pub struct AsInfo {
    /// The AS number.
    pub asn: Asn,
    /// Behavioural role.
    pub role: AsRole,
    /// Registered country.
    pub country: CountryId,
    /// Human-readable name.
    pub name: String,
    /// IXP membership, if any.
    pub member: Option<Membership>,
}

/// IXP membership details of a member AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Membership {
    /// Dense member index (also determines the port MAC).
    pub id: MemberId,
    /// Week the AS joined. Members that predate the study carry `Week(0)`.
    pub joined: Week,
    /// True if this member is an IXP reseller.
    pub reseller: bool,
}

/// Well-known ASNs reserved for the named archetype networks. The numbers
/// follow the real-world networks each archetype is modelled on, which
/// makes the reproduced tables directly comparable with the paper's.
pub(crate) mod well_known {
    use crate::types::Asn;

    /// Akamai-like global CDN (paper: AS20940).
    pub(crate) const AKAMAI_LIKE: Asn = Asn(20940);
    /// Google-like content provider (paper: AS15169).
    pub(crate) const GOOGLE_LIKE: Asn = Asn(15169);
    /// VKontakte-like social network (paper: AS47541).
    pub(crate) const VKONTAKTE_LIKE: Asn = Asn(47541);
    /// Large web-hosting company of Fig. 6c (paper: AS36351).
    pub(crate) const BIG_HOSTER: Asn = Asn(36351);
    /// Amazon-like cloud (EC2 + CloudFront).
    pub(crate) const AMAZON_LIKE: Asn = Asn(16509);
    /// CloudFlare-like data-center CDN.
    pub(crate) const CLOUDFLARE_LIKE: Asn = Asn(13335);
    /// Hetzner-like hoster.
    pub(crate) const HETZNER_LIKE: Asn = Asn(24940);
    /// OVH-like hoster.
    pub(crate) const OVH_LIKE: Asn = Asn(16276);
    /// Leaseweb-like hoster.
    pub(crate) const LEASEWEB_LIKE: Asn = Asn(60781);
    /// Limelight-like CDN.
    pub(crate) const LIMELIGHT_LIKE: Asn = Asn(22822);
    /// EdgeCast-like CDN.
    pub(crate) const EDGECAST_LIKE: Asn = Asn(15133);
    /// The second cloud provider whose US-East data centers fail during
    /// Hurricane Sandy (week 44).
    pub(crate) const STORMCLOUD: Asn = Asn(8075);
    /// The reseller whose customer base doubles during the study.
    pub(crate) const RESELLER_A: Asn = Asn(61955);
    /// A second, static reseller.
    pub(crate) const RESELLER_B: Asn = Asn(51088);
    /// Chinanet-like giant eyeball (top of Table 2 by IPs).
    pub(crate) const CHINANET_LIKE: Asn = Asn(4134);
    /// Vodafone/DE-like eyeball.
    pub(crate) const VODAFONE_DE_LIKE: Asn = Asn(3209);
    /// Free-SAS-like eyeball (FR).
    pub(crate) const FREE_LIKE: Asn = Asn(12322);
    /// Turk-Telekom-like eyeball (TR).
    pub(crate) const TURKTELEKOM_LIKE: Asn = Asn(9121);
    /// Telecom-Italia-like eyeball (IT).
    pub(crate) const TELECOMITALIA_LIKE: Asn = Asn(3269);
    /// Liberty-Global-like cable eyeball.
    pub(crate) const LIBERTYGLOBAL_LIKE: Asn = Asn(6830);
    /// Vodafone/IT-like eyeball.
    pub(crate) const VODAFONE_IT_LIKE: Asn = Asn(30722);
    /// Virgin-Media-like eyeball (GB).
    pub(crate) const VIRGINMEDIA_LIKE: Asn = Asn(5089);
    /// Telefonica/DE-like eyeball.
    pub(crate) const TELEFONICA_DE_LIKE: Asn = Asn(6805);
    /// Kabel-Deutschland-like eyeball (big traffic sink, Table 2).
    pub(crate) const KABEL_DE_LIKE: Asn = Asn(31334);
    /// Unitymedia-like eyeball (DE).
    pub(crate) const UNITYMEDIA_LIKE: Asn = Asn(20825);
    /// Kyivstar-like eyeball (UA).
    pub(crate) const KYIVSTAR_LIKE: Asn = Asn(15895);
    /// Comnet-like eyeball (TR).
    pub(crate) const COMNET_LIKE: Asn = Asn(34984);

    /// All reserved ASNs with their role labels, countries, and names.
    pub(crate) fn table() -> Vec<(Asn, super::AsRole, &'static str, &'static str)> {
        use super::AsRole::*;
        vec![
            (AKAMAI_LIKE, Cdn, "US", "Akamai-like"),
            (GOOGLE_LIKE, Content, "US", "Google-like"),
            (VKONTAKTE_LIKE, Content, "RU", "VKontakte-like"),
            (BIG_HOSTER, Hoster, "US", "BigWebHoster-like"),
            (AMAZON_LIKE, Cloud, "IE", "Amazon-like"),
            (CLOUDFLARE_LIKE, Cdn, "US", "CloudFlare-like"),
            (HETZNER_LIKE, Hoster, "DE", "MassHosterB-like"),
            (OVH_LIKE, Hoster, "FR", "MassHosterC-like"),
            (LEASEWEB_LIKE, Hoster, "NL", "Leaseweb-like"),
            (LIMELIGHT_LIKE, Cdn, "US", "Limelight-like"),
            (EDGECAST_LIKE, Cdn, "US", "EdgeCast-like"),
            (STORMCLOUD, Cloud, "US", "StormCloud-like"),
            (RESELLER_A, Reseller, "DE", "Reseller-A"),
            (RESELLER_B, Reseller, "DE", "Reseller-B"),
            (CHINANET_LIKE, EyeballLarge, "CN", "Chinanet-like"),
            (VODAFONE_DE_LIKE, EyeballLarge, "DE", "VodafoneDE-like"),
            (FREE_LIKE, EyeballLarge, "FR", "FreeSAS-like"),
            (TURKTELEKOM_LIKE, EyeballLarge, "TR", "TurkTelekom-like"),
            (TELECOMITALIA_LIKE, EyeballLarge, "IT", "TelecomItalia-like"),
            (LIBERTYGLOBAL_LIKE, EyeballLarge, "NL", "LibertyGlobal-like"),
            (VODAFONE_IT_LIKE, EyeballLarge, "IT", "VodafoneIT-like"),
            (VIRGINMEDIA_LIKE, EyeballLarge, "GB", "VirginMedia-like"),
            (TELEFONICA_DE_LIKE, EyeballLarge, "DE", "TelefonicaDE-like"),
            (KABEL_DE_LIKE, EyeballLarge, "DE", "KabelDeutschland-like"),
            (UNITYMEDIA_LIKE, EyeballLarge, "DE", "Unitymedia-like"),
            (KYIVSTAR_LIKE, EyeballLarge, "UA", "Kyivstar-like"),
            (COMNET_LIKE, EyeballLarge, "TR", "Comnet-like"),
        ]
    }

    /// Client-population multiplier for the named eyeballs (relative to a
    /// generic large eyeball), ordered so that Table 2's all-IPs network
    /// ranking emerges.
    pub(crate) fn eyeball_population_boost(asn: Asn) -> f64 {
        match asn {
            CHINANET_LIKE => 22.0,
            VODAFONE_DE_LIKE => 19.0,
            FREE_LIKE => 17.0,
            TURKTELEKOM_LIKE => 15.0,
            TELECOMITALIA_LIKE => 13.5,
            LIBERTYGLOBAL_LIKE => 12.0,
            VODAFONE_IT_LIKE => 11.0,
            COMNET_LIKE => 10.0,
            VIRGINMEDIA_LIKE => 9.0,
            TELEFONICA_DE_LIKE => 8.5,
            KABEL_DE_LIKE => 8.0,
            UNITYMEDIA_LIKE => 7.5,
            KYIVSTAR_LIKE => 7.0,
            _ => 1.0,
        }
    }
}

/// The registry of all routed ASes.
#[derive(Debug, Clone)]
pub struct AsRegistry {
    infos: Vec<AsInfo>,
    by_asn: HashMap<Asn, u32>,
    members: Vec<Asn>,
}

impl AsRegistry {
    /// Generate the registry: reserved archetype ASes first, then the
    /// general population, then membership assignment.
    pub(crate) fn generate(scale: &ScaleConfig, countries: &CountryTable, seed: u64) -> AsRegistry {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5_0001);
        let mut infos: Vec<AsInfo> = Vec::with_capacity(scale.as_count as usize);

        // 1. Reserved archetypes.
        for (asn, role, cc, name) in well_known::table() {
            let country = countries.id_of(cc).expect("archetype country");
            infos.push(AsInfo { asn, role, country, name: name.to_string(), member: None });
        }

        // 2. General population.
        let reserved: Vec<Asn> = infos.iter().map(|i| i.asn).collect();
        let client_cdf = countries.client_cdf();
        let server_cdf = countries.server_cdf();
        let mut next_asn = 1u32;
        while infos.len() < scale.as_count as usize {
            while reserved.contains(&Asn(next_asn)) {
                next_asn += 1;
            }
            let role = draw_role(&mut rng);
            let cdf = if role.hosts_servers() { &server_cdf } else { &client_cdf };
            let country = CountryId(cdf.sample(rng.gen::<f64>()) as u16);
            let name = format!("{role:?}-{next_asn}");
            infos.push(AsInfo { asn: Asn(next_asn), role, country, name, member: None });
            next_asn += 1;
        }

        let mut registry = AsRegistry { infos, by_asn: HashMap::new(), members: Vec::new() };
        registry.rebuild_index();
        registry.assign_members(scale, countries, &mut rng);
        registry
    }

    fn rebuild_index(&mut self) {
        self.by_asn = self.infos.iter().enumerate().map(|(i, a)| (a.asn, i as u32)).collect();
    }

    /// Pick the member ASes: every archetype, plus role/geography-biased
    /// picks from the population. The 14 members that join *during* the
    /// study are small non-central-European networks (paper §4.1).
    fn assign_members(
        &mut self,
        scale: &ScaleConfig,
        countries: &CountryTable,
        rng: &mut SmallRng,
    ) {
        let total = scale.members_end as usize;
        let joining_during_study = (scale.members_end - scale.members_start) as usize;

        let mut member_slots: Vec<u32> = Vec::with_capacity(total);
        // Archetypes are all long-standing members.
        for (i, info) in self.infos.iter().enumerate() {
            if well_known::table().iter().any(|(asn, ..)| *asn == info.asn) {
                member_slots.push(i as u32);
            }
        }
        // Fill with population picks: favour hosters/CDNs/content/eyeballs
        // in or near DE (the IXP's home market) for the established seats.
        let de = countries.id_of("DE").unwrap();
        let established_target = total - joining_during_study;
        let mut candidates: Vec<u32> =
            (0..self.infos.len() as u32).filter(|i| !member_slots.contains(i)).collect();
        // Deterministic shuffle.
        for i in (1..candidates.len()).rev() {
            let j = rng.gen_range(0..=i);
            candidates.swap(i, j);
        }
        let score = |info: &AsInfo| -> f64 {
            let role_w = match info.role {
                AsRole::Tier1 => 8.0,
                AsRole::Transit => 5.0,
                AsRole::EyeballLarge => 6.0,
                AsRole::Hoster => 5.0,
                AsRole::Cdn | AsRole::Cloud | AsRole::Content => 6.0,
                AsRole::EyeballSmall => 1.2,
                AsRole::University => 0.6,
                AsRole::Reseller => 4.0,
                AsRole::Enterprise => 0.1,
            };
            let geo_w = if info.country == de {
                4.0
            } else if countries.region(info.country) == crate::types::Region::RoW {
                1.0
            } else {
                0.6
            };
            role_w * geo_w
        };
        let mut scored: Vec<(f64, u32)> = candidates
            .iter()
            .map(|&i| (score(&self.infos[i as usize]) * rng.gen::<f64>(), i))
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());

        for (_, idx) in scored.iter() {
            if member_slots.len() >= established_target {
                break;
            }
            member_slots.push(*idx);
        }

        // Established members (joined before the study).
        for (rank, idx) in member_slots.iter().enumerate() {
            let info = &mut self.infos[*idx as usize];
            info.member = Some(Membership {
                id: MemberId(rank as u32),
                joined: Week(0),
                reseller: info.role == AsRole::Reseller,
            });
        }

        // Late joiners: small, geographically distant networks.
        let mut late: Vec<u32> = scored
            .iter()
            .map(|(_, i)| *i)
            .filter(|i| {
                let info = &self.infos[*i as usize];
                info.member.is_none()
                    && matches!(info.role, AsRole::EyeballSmall | AsRole::Enterprise)
                    && countries.region(info.country) == crate::types::Region::RoW
            })
            .collect();
        late.truncate(joining_during_study);
        for (next_id, (k, idx)) in (member_slots.len() as u32..).zip(late.iter().enumerate()) {
            // Spread join weeks roughly evenly across weeks 36..=51.
            let week = Week(36 + (k * (Week::COUNT - 1) / joining_during_study.max(1)) as u8);
            let info = &mut self.infos[*idx as usize];
            info.member = Some(Membership { id: MemberId(next_id), joined: week, reseller: false });
        }

        let mut members: Vec<(u32, Asn)> =
            self.infos.iter().filter_map(|i| i.member.map(|m| (m.id.0, i.asn))).collect();
        members.sort_unstable_by_key(|(id, _)| *id);
        self.members = members.into_iter().map(|(_, asn)| asn).collect();
    }

    /// Number of ASes.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// All ASes.
    pub fn iter(&self) -> impl Iterator<Item = &AsInfo> {
        self.infos.iter()
    }

    /// Look up by ASN.
    pub fn info(&self, asn: Asn) -> Option<&AsInfo> {
        self.by_asn.get(&asn).map(|i| &self.infos[*i as usize])
    }

    /// Dense index of an ASN (stable across the model's lifetime).
    pub fn index_of(&self, asn: Asn) -> Option<u32> {
        self.by_asn.get(&asn).copied()
    }

    /// AS at a dense index.
    pub fn by_index(&self, index: u32) -> &AsInfo {
        &self.infos[index as usize]
    }

    /// Member ASNs ordered by member id.
    pub fn member_asns(&self) -> &[Asn] {
        &self.members
    }

    /// Member ASNs that are active (have joined) by the given week.
    pub fn members_at(&self, week: Week) -> Vec<Asn> {
        self.members
            .iter()
            .copied()
            .filter(|asn| self.info(*asn).unwrap().member.unwrap().joined.0 <= week.0)
            .collect()
    }
}

fn draw_role(rng: &mut SmallRng) -> AsRole {
    let x: f64 = rng.gen();
    // Cumulative role mix (fractions of the AS population).
    if x < 0.0004 {
        AsRole::Tier1
    } else if x < 0.018 {
        AsRole::Transit
    } else if x < 0.045 {
        AsRole::EyeballLarge
    } else if x < 0.27 {
        AsRole::EyeballSmall
    } else if x < 0.295 {
        AsRole::Hoster
    } else if x < 0.2975 {
        AsRole::Cdn
    } else if x < 0.30 {
        AsRole::Cloud
    } else if x < 0.315 {
        AsRole::Content
    } else if x < 0.83 {
        AsRole::Enterprise
    } else if x < 0.9995 {
        AsRole::University
    } else {
        AsRole::Reseller
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_registry() -> (AsRegistry, CountryTable, ScaleConfig) {
        let countries = CountryTable::build();
        let scale = ScaleConfig::tiny();
        let registry = AsRegistry::generate(&scale, &countries, 42);
        (registry, countries, scale)
    }

    #[test]
    fn generates_requested_count() {
        let (registry, _, scale) = test_registry();
        assert_eq!(registry.len(), scale.as_count as usize);
    }

    #[test]
    fn archetypes_are_present_and_members() {
        let (registry, _, _) = test_registry();
        for (asn, role, _, name) in well_known::table() {
            let info = registry.info(asn).unwrap_or_else(|| panic!("{asn} missing"));
            assert_eq!(info.role, role);
            assert_eq!(info.name, name);
            assert!(info.member.is_some(), "{asn} should be a member");
        }
    }

    #[test]
    fn member_count_matches_scale_and_grows() {
        let (registry, _, scale) = test_registry();
        assert_eq!(registry.member_asns().len(), scale.members_end as usize);
        let w35 = registry.members_at(Week::FIRST).len();
        let w51 = registry.members_at(Week::LAST).len();
        assert_eq!(w35, scale.members_start as usize);
        assert_eq!(w51, scale.members_end as usize);
    }

    #[test]
    fn member_ids_are_dense_and_unique() {
        let (registry, _, scale) = test_registry();
        let mut ids: Vec<u32> = registry
            .member_asns()
            .iter()
            .map(|asn| registry.info(*asn).unwrap().member.unwrap().id.0)
            .collect();
        ids.sort_unstable();
        let expected: Vec<u32> = (0..scale.members_end).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn deterministic_generation() {
        let countries = CountryTable::build();
        let scale = ScaleConfig::tiny();
        let a = AsRegistry::generate(&scale, &countries, 7);
        let b = AsRegistry::generate(&scale, &countries, 7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.asn, y.asn);
            assert_eq!(x.role, y.role);
            assert_eq!(x.country, y.country);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let countries = CountryTable::build();
        let scale = ScaleConfig::tiny();
        let a = AsRegistry::generate(&scale, &countries, 1);
        let b = AsRegistry::generate(&scale, &countries, 2);
        let differing = a
            .iter()
            .zip(b.iter())
            .filter(|(x, y)| x.role != y.role || x.country != y.country)
            .count();
        assert!(differing > 0);
    }

    #[test]
    fn asns_are_unique() {
        let (registry, _, _) = test_registry();
        let mut asns: Vec<u32> = registry.iter().map(|a| a.asn.0).collect();
        asns.sort_unstable();
        asns.dedup();
        assert_eq!(asns.len(), registry.len());
    }

    #[test]
    fn late_joiners_are_small_and_distant() {
        let (registry, countries, _) = test_registry();
        for info in registry.iter() {
            if let Some(m) = info.member {
                if m.joined.0 >= 35 {
                    assert!(matches!(info.role, AsRole::EyeballSmall | AsRole::Enterprise));
                    assert_eq!(countries.region(info.country), crate::types::Region::RoW);
                }
            }
        }
    }
}
