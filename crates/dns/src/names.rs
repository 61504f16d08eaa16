//! Per-organization naming schemata.
//!
//! Large organizations name their servers under industrial conventions
//! (paper §2.4 cites Google's `1e100.net` as the canonical example). The
//! schema matters because the §5.1 clustering recovers the organization
//! from the hostname's SOA — so the names must be deterministic, unique per
//! IP, and rooted in the organization's zone.

use std::net::Ipv4Addr;

use ixp_netmodel::{OrgKind, Organization};

/// The canonical hostname of a server IP under its organization's schema.
pub(crate) fn hostname_for(org: &Organization, ip: Ipv4Addr) -> String {
    let o = ip.octets();
    let tag = format!("{}-{}-{}-{}", o[0], o[1], o[2], o[3]);
    match org.kind {
        // CDN edge naming, e.g. a96-7-49-10.deploy.akamaitechnologies-ish.
        OrgKind::Cdn => format!("a{tag}.deploy.{}", org.soa_domain),
        OrgKind::DataCenterCdn => format!("edge-{tag}.{}", org.soa_domain),
        // Content caches carry a location-ish prefix.
        OrgKind::Content => format!("cache-{tag}.{}", org.soa_domain),
        // Hosters name by server number within their space.
        OrgKind::Hoster | OrgKind::MetaHoster => format!("srv{tag}.{}", org.soa_domain),
        OrgKind::Cloud => format!("vm-{tag}.compute.{}", org.soa_domain),
        OrgKind::Streamer => format!("stream-{tag}.{}", org.soa_domain),
        OrgKind::OneClickHoster => format!("dl-{tag}.{}", org.soa_domain),
        OrgKind::Generic => format!("host-{tag}.{}", org.soa_domain),
    }
}

/// The zone (apex) a hostname belongs to, if it looks like one of ours.
/// This is the "resolve the SOA iteratively" shortcut: strip labels until
/// the `<something>.example` apex remains.
pub(crate) fn apex_of(name: &str) -> Option<&str> {
    let name = name.trim_end_matches('.');
    let (rest, tld) = name.rsplit_once('.')?;
    if tld != "example" {
        return None;
    }
    let org_label = rest.rsplit('.').next()?;
    let apex_len = org_label.len() + 1 + tld.len();
    Some(&name[name.len() - apex_len..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apex_extraction() {
        assert_eq!(apex_of("a1-2-3-4.deploy.akamai.example"), Some("akamai.example"));
        assert_eq!(apex_of("www.hoster-12.example"), Some("hoster-12.example"));
        assert_eq!(apex_of("hoster-12.example"), Some("hoster-12.example"));
        assert_eq!(apex_of("foo.com"), None);
        assert_eq!(apex_of("cache-1-2-3-4.google.example."), Some("google.example"));
    }

    #[test]
    fn hostnames_embed_ip_and_zone() {
        use ixp_netmodel::{InternetModel, OrgId};
        let model = InternetModel::tiny(5);
        let org = model.orgs.get(OrgId(0));
        let ip = Ipv4Addr::new(9, 8, 7, 6);
        let name = hostname_for(org, ip);
        assert!(name.contains("9-8-7-6"), "{name}");
        assert!(name.ends_with(&org.soa_domain), "{name}");
        assert_eq!(apex_of(&name), Some(org.soa_domain.as_str()));
    }

    #[test]
    fn hostnames_are_unique_per_ip() {
        use ixp_netmodel::{InternetModel, OrgId};
        let model = InternetModel::tiny(5);
        let org = model.orgs.get(OrgId(3));
        let a = hostname_for(org, Ipv4Addr::new(1, 2, 3, 4));
        let b = hostname_for(org, Ipv4Addr::new(1, 2, 3, 5));
        assert_ne!(a, b);
    }
}
