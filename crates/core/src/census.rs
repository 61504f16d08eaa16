//! Server identification and meta-data assembly (paper §2.2.2 + §2.4).
//!
//! * **HTTP servers** come straight from the scan's string-matching
//!   evidence.
//! * **HTTPS servers** start as the port-443/TLS candidate set, get crawled
//!   repeatedly ([`ixp_cert::CrawlSim`]), and survive the six-check
//!   validation pipeline.
//! * Every identified server IP is then decorated with the §2.4 meta-data:
//!   hostname (PTR), SOA identity, observed URIs, and X.509 names — each of
//!   which may be missing, exactly as in the wild.

#![deny(clippy::cast_possible_truncation)]

use std::collections::HashMap;
use std::net::Ipv4Addr;

use ixp_cert::{validate_fetches, CrawlSim, RootStore};
use ixp_dns::{DnsDb, SoaIdentity, SoaTimeout};
use ixp_netmodel::{InternetModel, MemberId};

use crate::scan::{Evidence, WeekScan};

/// Outcome of the iterative SOA lookup for a server's hostname.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SoaOutcome {
    /// Resolved to an identity.
    Identity(SoaIdentity),
    /// No hostname / no SOA found.
    None,
    /// The lookup timed out (partial-information population, §5.1 step 3).
    Timeout,
}

/// One identified Web server IP with its meta-data.
#[derive(Debug, Clone)]
pub struct ServerRecord {
    /// The server IP.
    pub ip: Ipv4Addr,
    /// Estimated bytes it was an endpoint of this week.
    pub bytes: u64,
    /// Samples it appeared in.
    pub samples: u32,
    /// Identified as an HTTP server (string matching).
    pub http: bool,
    /// Confirmed as an HTTPS server (active crawl + validation).
    pub https: bool,
    /// Active on more than one well-known service port (multi-purpose).
    pub multi_port: bool,
    /// Also seen acting as a client.
    pub also_client: bool,
    /// Member port on the server's side of the fabric.
    pub member: MemberId,
    /// Observed URI authorities (Host headers), post-cleaning.
    pub uris: Vec<String>,
    /// Names from the validated X.509 certificate.
    pub cert_names: Vec<String>,
    /// PTR hostname, if any.
    pub hostname: Option<String>,
    /// SOA identity of the hostname.
    pub host_soa: SoaOutcome,
}

impl ServerRecord {
    /// Does this record carry any §2.4 meta-data at all?
    pub(crate) fn has_metadata(&self) -> bool {
        self.hostname.is_some() || !self.uris.is_empty() || !self.cert_names.is_empty()
    }
}

/// Meta-data coverage statistics (paper §2.4: 71.7 % / 23.8 % / 17.7 % /
/// 81.9 %).
#[derive(Debug, Clone, Copy, Default)]
pub struct MetadataCoverage {
    /// Servers with DNS information (hostname).
    pub dns: usize,
    /// Servers with at least one URI.
    pub uri: usize,
    /// Servers with X.509 information.
    pub x509: usize,
    /// Servers with at least one of the three.
    pub any: usize,
    /// All identified servers.
    pub total: usize,
    /// Servers dropped by the cleaning step (< 3 % in the paper).
    pub cleaned: usize,
}

impl MetadataCoverage {
    /// Percentage helpers.
    pub fn pct(&self, n: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * n as f64 / self.total as f64
        }
    }
}

/// The weekly server census.
#[derive(Debug)]
pub struct ServerCensus {
    /// All identified server IPs.
    pub records: Vec<ServerRecord>,
    /// Index by IP.
    pub by_ip: HashMap<u32, usize>,
    /// HTTPS funnel: candidates → responders → confirmed (paper: ≈ 1.5M →
    /// 500K → 250K).
    pub https_candidates: usize,
    /// Candidates that completed at least one TLS handshake.
    pub https_responders: usize,
    /// Candidates surviving the validation pipeline.
    pub https_confirmed: usize,
    /// Meta-data coverage.
    pub coverage: MetadataCoverage,
}

impl ServerCensus {
    /// Identify servers from a finished scan and run the active-measurement
    /// instruments.
    pub fn identify(
        scan: &WeekScan,
        model: &InternetModel,
        dns: &DnsDb,
        crawl: &CrawlSim,
    ) -> ServerCensus {
        let store = RootStore::default_store();
        let week = scan.week;

        let mut records: Vec<ServerRecord> = Vec::new();
        let mut https_candidates = 0usize;
        let mut https_responders = 0usize;
        let mut https_confirmed = 0usize;
        // Reused across candidates: the crawl's answers, borrowed from the
        // crawler, and the URIs that survive cleaning, borrowed from the
        // scan. What a record keeps is copied once, from these.
        let mut fetches = Vec::with_capacity(3);
        let mut clean_uris: Vec<&str> = Vec::new();

        for (raw_ip, stats) in &scan.ips {
            let ip = Ipv4Addr::from(*raw_ip);
            let http = stats.evidence.has(Evidence::HTTP_SERVER);
            let mut https = false;
            let mut cert_names: Vec<String> = Vec::new();

            if stats.evidence.has(Evidence::TLS443) {
                https_candidates += 1;
                crawl.fetch_repeatedly(model, ip, week, 3, &mut fetches);
                if !fetches.is_empty() {
                    https_responders += 1;
                    if let Ok(info) = validate_fetches(&fetches, &store) {
                        https = true;
                        https_confirmed += 1;
                        cert_names = info.names;
                    }
                }
            }
            if !http && !https {
                continue;
            }

            // §2.4 meta-data.
            let (hostname, soa) = dns.lookup_server(ip);
            let host_soa = match soa {
                Ok(Some(ident)) => SoaOutcome::Identity(ident.clone()),
                Ok(None) => SoaOutcome::None,
                Err(SoaTimeout) => SoaOutcome::Timeout,
            };
            // URI cleaning: drop syntactically invalid authorities.
            clean_uris.clear();
            clean_uris.extend(
                scan.uris(ip)
                    .iter()
                    .map(|id| scan.domains.name(*id))
                    .filter(|d| ixp_cert::x509::domain_is_valid(d)),
            );

            records.push(ServerRecord {
                ip,
                bytes: stats.bytes,
                samples: stats.samples,
                http,
                https,
                multi_port: stats.evidence.service_port_count() >= 2,
                also_client: stats.evidence.has(Evidence::CLIENT),
                member: stats.member(),
                uris: clean_uris.iter().map(|d| d.to_string()).collect(),
                cert_names,
                hostname: hostname.map(str::to_string),
                host_soa,
            });
        }

        // Cleaning: the paper's meta-data cleaning shrinks the pool by
        // < 3 % (RIR SOAs, invalid URIs). Records whose *only* evidence was
        // cleaned away are dropped here. Every record above was pushed with
        // `http || https`, so this drops none and `cleaned` is always 0: a
        // model miss, ROADMAP item 5(c).
        let before = records.len();
        records.retain(|r| r.http || r.https || r.has_metadata());
        let cleaned = before - records.len();

        records.sort_by_key(|r| u32::from(r.ip));
        let by_ip = records.iter().enumerate().map(|(i, r)| (u32::from(r.ip), i)).collect();

        let coverage = MetadataCoverage {
            dns: records.iter().filter(|r| r.hostname.is_some()).count(),
            uri: records.iter().filter(|r| !r.uris.is_empty()).count(),
            x509: records.iter().filter(|r| !r.cert_names.is_empty()).count(),
            any: records.iter().filter(|r| r.has_metadata()).count(),
            total: records.len(),
            cleaned,
        };

        ServerCensus {
            records,
            by_ip,
            https_candidates,
            https_responders,
            https_confirmed,
            coverage,
        }
    }

    /// Number of identified server IPs.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was identified.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Look up a record by IP.
    pub fn get(&self, ip: Ipv4Addr) -> Option<&ServerRecord> {
        self.by_ip.get(&u32::from(ip)).and_then(|i| self.records.get(*i))
    }

    /// Total estimated bytes of all identified servers.
    pub fn total_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.bytes).sum()
    }

    /// Servers that also act as clients, and their byte total.
    pub(crate) fn dual_role(&self) -> (usize, u64) {
        let mut n = 0;
        let mut b = 0;
        for r in &self.records {
            if r.also_client {
                n += 1;
                b += r.bytes;
            }
        }
        (n, b)
    }

    /// Multi-purpose servers (≥ 2 well-known service ports).
    pub(crate) fn multi_port_count(&self) -> usize {
        self.records.iter().filter(|r| r.multi_port).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use crate::Analyzer;
    use ixp_cert::{validate_chain, Chain, ValidationError};
    use ixp_netmodel::ServerFlags;
    use ixp_obs::Obs;

    /// `validate_fetches` as it was over owned chains, frozen: each chain
    /// validated on its own, and each result compared with the first.
    fn reference_validate(
        fetches: &[(Chain, u8)],
        store: &RootStore,
    ) -> Result<ixp_cert::validate::ValidatedInfo, ValidationError> {
        let mut first = None;
        for (chain, week) in fetches {
            let info = validate_chain(chain, store, *week)?;
            match &first {
                None => first = Some(info),
                Some(prev) if prev != &info => return Err(ValidationError::Unstable),
                Some(_) => {}
            }
        }
        first.ok_or(ValidationError::Empty)
    }

    /// `identify` as it was before the crawl was borrowed, frozen: every
    /// fetch spelt out as an owned chain, validated one by one, two DNS
    /// probes a server, every URI copied before cleaning.
    fn reference_identify(
        scan: &WeekScan,
        model: &InternetModel,
        dns: &DnsDb,
        crawl: &CrawlSim,
    ) -> ServerCensus {
        let store = RootStore::default_store();
        let week = scan.week;
        let mut records: Vec<ServerRecord> = Vec::new();
        let (mut https_candidates, mut https_responders, mut https_confirmed) = (0, 0, 0);
        for (raw_ip, stats) in &scan.ips {
            let ip = Ipv4Addr::from(*raw_ip);
            let http = stats.evidence.has(Evidence::HTTP_SERVER);
            let mut https = false;
            let mut cert_names: Vec<String> = Vec::new();
            if stats.evidence.has(Evidence::TLS443) {
                https_candidates += 1;
                let mut presented = Vec::new();
                crawl.fetch_repeatedly(model, ip, week, 3, &mut presented);
                let fetches: Vec<(Chain, u8)> =
                    presented.iter().map(|(p, w)| (p.to_chain(), *w)).collect();
                if !fetches.is_empty() {
                    https_responders += 1;
                    if let Ok(info) = reference_validate(&fetches, &store) {
                        https = true;
                        https_confirmed += 1;
                        cert_names = info.names;
                    }
                }
            }
            if !http && !https {
                continue;
            }
            let hostname = dns.ptr_lookup(ip).map(str::to_string);
            let host_soa = match dns.soa_of_ip(ip) {
                Ok(Some(ident)) => SoaOutcome::Identity(ident),
                Ok(None) => SoaOutcome::None,
                Err(SoaTimeout) => SoaOutcome::Timeout,
            };
            let uris: Vec<String> = scan
                .uris(ip)
                .iter()
                .map(|id| scan.domains.name(*id).to_string())
                .filter(|d| ixp_cert::x509::domain_is_valid(d))
                .collect();
            records.push(ServerRecord {
                ip,
                bytes: stats.bytes,
                samples: stats.samples,
                http,
                https,
                multi_port: stats.evidence.service_port_count() >= 2,
                also_client: stats.evidence.has(Evidence::CLIENT),
                member: stats.member(),
                uris,
                cert_names,
                hostname,
                host_soa,
            });
        }
        let before = records.len();
        records.retain(|r| r.http || r.https || r.has_metadata());
        let cleaned = before - records.len();
        records.sort_by_key(|r| u32::from(r.ip));
        let by_ip = records.iter().enumerate().map(|(i, r)| (u32::from(r.ip), i)).collect();
        let coverage = MetadataCoverage {
            dns: records.iter().filter(|r| r.hostname.is_some()).count(),
            uri: records.iter().filter(|r| !r.uris.is_empty()).count(),
            x509: records.iter().filter(|r| !r.cert_names.is_empty()).count(),
            any: records.iter().filter(|r| r.has_metadata()).count(),
            total: records.len(),
            cleaned,
        };
        ServerCensus {
            records,
            by_ip,
            https_candidates,
            https_responders,
            https_confirmed,
            coverage,
        }
    }

    /// A crawler of its own for one census, its `cert_*` counters in a
    /// registry of their own.
    fn fresh_crawler(model: &InternetModel) -> CrawlSim {
        let mut crawl = CrawlSim::build(model, model.seed);
        crawl.bind_obs(&Obs::deterministic());
        crawl
    }

    #[test]
    fn identify_matches_the_frozen_reference_on_clean_and_faulty_weeks_at_two_seeds() {
        let other = InternetModel::tiny(7);
        let other = Analyzer::new(&other);
        for analyzer in [testutil::analyzer(), &other] {
            let model = analyzer.model;
            for scan in testutil::clean_and_hostile(analyzer) {
                let (new_crawl, old_crawl) = (fresh_crawler(model), fresh_crawler(model));
                let new = ServerCensus::identify(&scan, model, &analyzer.dns, &new_crawl);
                let old = reference_identify(&scan, model, &analyzer.dns, &old_crawl);
                assert!(new.https_confirmed > 0 && new.https_confirmed < new.https_responders);
                testutil::assert_same_debug(&new.records, &old.records);
                assert_eq!(new.by_ip, old.by_ip);
                assert_eq!(
                    (new.https_candidates, new.https_responders, new.https_confirmed),
                    (old.https_candidates, old.https_responders, old.https_confirmed)
                );
                testutil::assert_same_debug(&new.coverage, &old.coverage);
                let counters = |crawl: &CrawlSim| {
                    let m = crawl.metrics();
                    [&m.fetches, &m.attempts, &m.exhausted, &m.campaigns, &m.abandoned]
                        .map(|c| c.get())
                };
                assert_eq!(counters(&new_crawl), counters(&old_crawl));
                assert!(counters(&new_crawl)[0] > 0);
                assert_eq!(new_crawl.quarantined_hosts(), old_crawl.quarantined_hosts());
            }
        }
    }

    #[test]
    fn census_only_contains_ips_with_server_evidence() {
        let report = testutil::reference();
        for r in &report.census.records {
            assert!(r.http || r.https, "{} has no server evidence", r.ip);
        }
    }

    #[test]
    fn census_identifications_are_truthful() {
        // Every identified server IP is a real server in ground truth: the
        // string-matching method has no false positives by construction of
        // the payload model (only servers emit HTTP header frames).
        let model = testutil::model();
        let report = testutil::reference();
        for r in &report.census.records {
            let truth = model.servers.by_ip(r.ip);
            assert!(truth.is_some(), "{} identified but not a server", r.ip);
            assert!(truth.unwrap().active_in(report.snapshot.week));
        }
    }

    #[test]
    fn https_confirmations_match_ground_truth_https() {
        let model = testutil::model();
        let report = testutil::reference();
        for r in report.census.records.iter().filter(|r| r.https) {
            let truth = model.servers.by_ip(r.ip).unwrap();
            assert!(
                truth.flags.has(ServerFlags::HTTPS),
                "{} confirmed HTTPS but ground truth disagrees",
                r.ip
            );
        }
    }

    #[test]
    fn coverage_counts_are_consistent() {
        let report = testutil::reference();
        let cov = report.census.coverage;
        assert_eq!(cov.total, report.census.len());
        assert!(cov.any <= cov.total);
        assert!(cov.dns <= cov.any);
        assert!(cov.uri <= cov.any);
        assert!(cov.x509 <= cov.any);
        // `any` is at most the sum of the three sources.
        assert!(cov.any <= cov.dns + cov.uri + cov.x509);
    }

    #[test]
    fn by_ip_index_is_exact() {
        let report = testutil::reference();
        for (i, r) in report.census.records.iter().enumerate() {
            assert_eq!(report.census.by_ip[&u32::from(r.ip)], i);
            assert_eq!(report.census.get(r.ip).unwrap().ip, r.ip);
        }
        assert!(report.census.get(std::net::Ipv4Addr::new(0, 0, 0, 1)).is_none());
    }

    #[test]
    fn cert_names_only_on_https_servers() {
        let report = testutil::reference();
        for r in &report.census.records {
            if !r.cert_names.is_empty() {
                assert!(r.https, "{} has cert names but is not HTTPS-confirmed", r.ip);
            }
        }
    }

    #[test]
    fn uris_are_cleaned() {
        let report = testutil::reference();
        for r in &report.census.records {
            for u in &r.uris {
                assert!(ixp_cert::x509::domain_is_valid(u), "dirty URI {u} survived cleaning");
            }
        }
    }
}
