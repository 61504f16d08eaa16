//! The PTR/SOA database derived from the model's ground truth.
//!
//! The analysis pipeline is only ever handed query interfaces — "what is
//! the hostname of this IP?", "what SOA does this name lead to?" — with the
//! same partiality as live DNS: no PTR for ~28 % of server IPs, outsourced
//! SOAs for many hosters, and SOA timeouts for CDN servers buried deep in
//! third-party access networks (the paper's step-3 population).

use std::collections::HashMap;
use std::net::Ipv4Addr;

use ixp_netmodel::{InternetModel, OrgId, OrgKind, ServerFlags};

use crate::names;

/// The administrative identity an SOA chain leads to.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SoaIdentity {
    /// The apex zone the chain terminated in.
    pub zone: String,
    /// The third-party DNS provider operating the zone, if the SOA's
    /// MNAME/RNAME point away from the zone owner (outsourced DNS).
    pub provider: Option<String>,
}

impl SoaIdentity {
    /// True when the SOA points at a third-party DNS provider.
    pub fn outsourced(&self) -> bool {
        self.provider.is_some()
    }
}

/// The SOA lookup for an IP timed out ([`DnsDb::soa_of_ip`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoaTimeout;

impl std::fmt::Display for SoaTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SOA lookup timed out")
    }
}

impl std::error::Error for SoaTimeout {}

/// The queryable DNS database.
#[derive(Debug)]
pub struct DnsDb {
    /// server ip -> hostname (only for servers with a PTR record).
    ptr: HashMap<u32, String>,
    /// apex zone -> owning organization.
    zones: HashMap<String, OrgId>,
    /// per-org SOA identity (pre-computed).
    org_identity: Vec<SoaIdentity>,
    /// server ip -> the SOA lookup for its hostname times out (step-3
    /// partial-information population).
    soa_timeout: HashMap<u32, ()>,
}

impl DnsDb {
    /// Derive the database from a generated model.
    pub fn build(model: &InternetModel) -> DnsDb {
        let mut ptr = HashMap::new();
        let mut zones = HashMap::new();
        let mut org_identity = Vec::with_capacity(model.orgs.len());
        let mut soa_timeout = HashMap::new();

        for org in model.orgs.iter() {
            zones.insert(org.soa_domain.clone(), org.id);
            org_identity.push(SoaIdentity {
                zone: org.soa_domain.clone(),
                provider: org.dns_provider.map(|k| format!("dnsprov{k}.example")),
            });
        }

        for server in model.servers.servers() {
            let org = model.orgs.get(server.org);
            if server.flags.has(ServerFlags::HAS_PTR) {
                ptr.insert(u32::from(server.ip), names::hostname_for(org, server.ip));
            }
            // Deep third-party CDN deployments often lack a resolvable SOA
            // chain for their names (paper §5.1 step 3 ≈ 3.9 % of IPs).
            let deep = Some(server.asn) != org.home_asn
                && matches!(org.kind, OrgKind::Cdn | OrgKind::Content);
            if deep && deterministic_coin(server.ip, 0.22) {
                soa_timeout.insert(u32::from(server.ip), ());
            }
        }

        DnsDb { ptr, zones, org_identity, soa_timeout }
    }

    /// Reverse lookup.
    pub fn ptr_lookup(&self, ip: Ipv4Addr) -> Option<&str> {
        self.ptr.get(&u32::from(ip)).map(String::as_str)
    }

    /// Iteratively resolve the SOA behind a name (hostname or URI
    /// authority). Returns `None` for names outside the model's zones.
    pub fn soa_lookup(&self, name: &str) -> Option<SoaIdentity> {
        let apex = names::apex_of(name)?;
        let org = *self.zones.get(apex)?;
        Some(self.org_identity[org.0 as usize].clone())
    }

    /// SOA of the hostname of an IP, with the step-3 timeout behaviour:
    /// [`SoaTimeout`] when the lookup times out (partial information).
    pub fn soa_of_ip(&self, ip: Ipv4Addr) -> Result<Option<SoaIdentity>, SoaTimeout> {
        if self.soa_timeout.contains_key(&u32::from(ip)) {
            return Err(SoaTimeout);
        }
        match self.ptr_lookup(ip) {
            Some(name) => Ok(self.soa_lookup(name)),
            None => Ok(None),
        }
    }

    /// Ground-truth helper for tests: which org owns a zone.
    pub fn zone_owner(&self, apex: &str) -> Option<OrgId> {
        self.zones.get(apex).copied()
    }

    /// Number of PTR records.
    pub fn ptr_count(&self) -> usize {
        self.ptr.len()
    }
}

/// A deterministic pseudo-coin keyed on the IP (so the database is a pure
/// function of the model).
fn deterministic_coin(ip: Ipv4Addr, p: f64) -> bool {
    let x = u32::from(ip).wrapping_mul(0x9E37_79B9);
    (x as f64 / u32::MAX as f64) < p
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixp_netmodel::Archetype;

    fn build() -> (InternetModel, DnsDb) {
        let model = InternetModel::tiny(13);
        let db = DnsDb::build(&model);
        (model, db)
    }

    #[test]
    fn ptr_coverage_tracks_flags() {
        let (model, db) = build();
        let with_flag = model
            .servers
            .servers()
            .iter()
            .filter(|s| s.flags.has(ServerFlags::HAS_PTR))
            .count();
        assert_eq!(db.ptr_count(), with_flag);
    }

    #[test]
    fn ptr_resolves_to_owning_org_zone() {
        let (model, db) = build();
        for s in model.servers.servers().iter().take(200) {
            if let Some(name) = db.ptr_lookup(s.ip) {
                let apex = crate::names::apex_of(name).unwrap();
                assert_eq!(db.zone_owner(apex), Some(s.org), "{name}");
            }
        }
    }

    #[test]
    fn soa_identity_reflects_outsourcing() {
        let (model, db) = build();
        for org in model.orgs.iter() {
            let ident = db.soa_lookup(&format!("www.{}", org.soa_domain)).unwrap();
            match org.dns_provider {
                Some(_) => {
                    assert!(ident.outsourced());
                    assert!(ident.provider.as_deref().unwrap().starts_with("dnsprov"));
                    assert_eq!(ident.zone, org.soa_domain);
                }
                None => {
                    assert!(!ident.outsourced());
                    assert_eq!(ident.zone, org.soa_domain);
                }
            }
        }
    }

    #[test]
    fn unknown_names_yield_none() {
        let (_, db) = build();
        assert!(db.soa_lookup("www.google.com").is_none());
        assert!(db.ptr_lookup(Ipv4Addr::new(255, 255, 255, 254)).is_none());
    }

    #[test]
    fn step1_path_works_for_self_hosted_archetype() {
        let (model, db) = build();
        // Pick an Akamai-like server with a PTR at its home AS: the SOA of
        // its hostname and of its URIs must coincide (clustering step 1).
        let akamai = model.orgs.archetype(Archetype::Akamai);
        let server = model
            .servers
            .servers()
            .iter()
            .find(|s| {
                s.org == akamai.id
                    && s.flags.has(ServerFlags::HAS_PTR)
                    && Some(s.asn) == akamai.home_asn
            })
            .expect("akamai home server with PTR");
        let host_soa = db.soa_of_ip(server.ip).unwrap().unwrap();
        let uri_soa = db.soa_lookup(&akamai.domains[0]).unwrap();
        assert_eq!(host_soa, uri_soa);
    }

    #[test]
    fn some_deep_cdn_servers_time_out() {
        let (model, db) = build();
        let timeouts = model
            .servers
            .servers()
            .iter()
            .filter(|s| db.soa_of_ip(s.ip).is_err())
            .count();
        assert!(timeouts > 0, "no step-3 population generated");
    }

    #[test]
    fn deterministic_coin_is_deterministic() {
        let ip = Ipv4Addr::new(4, 5, 6, 7);
        assert_eq!(deterministic_coin(ip, 0.5), deterministic_coin(ip, 0.5));
    }
}
