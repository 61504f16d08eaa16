//! Cross-crate behaviour of the active-measurement instruments (DNS,
//! crawler, resolver pool) against the same model the traffic comes from.

use std::sync::OnceLock;

use ixp_vantage::cert::{validate_fetches, CrawlSim, RootStore};
use ixp_vantage::dns::{DnsDb, ResolverPool};
use ixp_vantage::netmodel::{InternetModel, ScaleConfig, ServerFlags, Week};

fn model() -> &'static InternetModel {
    static M: OnceLock<InternetModel> = OnceLock::new();
    M.get_or_init(|| InternetModel::generate(ScaleConfig::tiny(), 555))
}

#[test]
fn dns_and_crawler_agree_on_identity() {
    let model = model();
    let dns = DnsDb::build(model);
    let crawl = CrawlSim::build(model, model.seed);
    let store = RootStore::default_store();

    let mut agreements = 0usize;
    let mut fetches = Vec::new();
    for server in model.servers.servers() {
        if !server.flags.has(ServerFlags::HTTPS)
            || !server.flags.has(ServerFlags::HAS_PTR)
            || !server.active_in(Week::REFERENCE)
        {
            continue;
        }
        crawl.fetch_repeatedly(model, server.ip, Week::REFERENCE, 3, &mut fetches);
        let Ok(info) = validate_fetches(&fetches, &store) else { continue };
        // The certificate's names and the hostname's SOA must lead to the
        // same administrative zone (this is what powers clustering step 1).
        let host_soa = dns.soa_of_ip(server.ip).ok().flatten();
        let cert_soa = info.names.iter().find_map(|n| dns.soa_lookup(n));
        if let (Some(a), Some(b)) = (host_soa, cert_soa) {
            assert_eq!(a.zone, b.zone, "identity mismatch for {}", server.ip);
            agreements += 1;
        }
    }
    assert!(agreements > 3, "only {agreements} DNS/cert agreements checked");
}

#[test]
fn https_from_gates_both_traffic_and_crawl() {
    let model = model();
    let crawl = CrawlSim::build(model, model.seed);
    let late = model
        .servers
        .servers()
        .iter()
        .find(|s| {
            s.flags.has(ServerFlags::HTTPS) && s.https_from > 40 && s.activity & 0b1 != 0
            // active at week 35
        })
        .expect("a late TLS adopter exists");
    // Before the switch-on: no TLS.
    let before = crawl.fetch(model, late.ip, Week(36), 0);
    assert!(!matches!(before, ixp_vantage::cert::CrawlResult::Tls(_)));
    // After: TLS (if the server is still around).
    if late.exists_in(Week(late.https_from.max(45))) {
        let after = crawl.fetch(model, late.ip, Week(late.https_from.max(45)), 0);
        assert!(matches!(after, ixp_vantage::cert::CrawlResult::Tls(_)));
    }
}

#[test]
fn resolver_answers_respect_weekly_existence() {
    let model = model();
    let pool = ResolverPool::build(model, model.seed);
    let org = model.orgs.iter().max_by_key(|o| o.target_servers).unwrap();
    for week in [Week::FIRST, Week::REFERENCE, Week::LAST] {
        for k in 0..10 {
            for ip in pool.resolve(model, &org.domains[0], k, week) {
                let s = model.servers.by_ip(ip).unwrap();
                assert!(s.exists_in(week), "{ip} answered but does not exist in {week}");
            }
        }
    }
}

#[test]
fn hidden_servers_never_cross_the_fabric_but_exist_to_instruments() {
    let model = model();
    let hidden: Vec<_> =
        model.servers.servers().iter().filter(|s| s.flags.has(ServerFlags::HIDDEN)).collect();
    assert!(!hidden.is_empty());
    for s in &hidden {
        for w in Week::all() {
            assert!(!s.active_in(w), "hidden server active at the IXP");
        }
    }
    // At least one hidden server is resolvable via DNS instruments (it has
    // a PTR under its org's schema).
    let dns = DnsDb::build(model);
    assert!(
        hidden.iter().any(|s| dns.ptr_lookup(s.ip).is_some()),
        "no hidden server has DNS presence"
    );
}
