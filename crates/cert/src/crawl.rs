//! The active HTTPS crawl simulation.
//!
//! Feed it the candidate IPs that showed traffic on TCP 443 and it behaves
//! like the live Internet did for the authors: most candidates never
//! complete a TLS handshake (SSH/VPN tunnels riding 443 through firewalls,
//! clients, dead hosts), real HTTPS servers present their chains — a
//! calibrated share of which is broken in one of the classic ways — and
//! role-flipping cloud IPs answer differently on every visit.
//!
//! ## Failure handling
//!
//! A real crawl campaign also sees *transient* failures — flapping hosts,
//! congested paths — on top of the definitive outcomes above. Each fetch
//! therefore runs under [`ixp_faults::retry_with_backoff`]: a deterministic
//! per-`(ip, week, attempt, round)` coin models the transient timeout, and
//! capped exponential backoff under a simulated deadline budget retries it.
//! Hosts that answer nothing across a whole repeated-fetch campaign stop
//! consuming the remaining attempt budget (persistent-failure cutoff) and
//! are recorded in a shared [`Quarantine`] table. The table is
//! observability only — it never gates results, so the parallel study
//! weeks stay bit-for-bit deterministic regardless of scheduling order.
//!
//! ## What a fetch costs
//!
//! A fetch copies nothing. The answer borrows the server's chain from the
//! crawler's profiles ([`Presented`]); a role-flipping cloud IP's
//! `tenant-<n>.` subject is a number beside the borrowed chain, and
//! validation reads it in place. [`CrawlSim::fetch_repeatedly`] fills a
//! vector its caller owns, so a census reuses one across its candidates.
//! [`Presented::to_chain`] spells a presentation out when a caller wants
//! it owned.
//!
//! The order in which a caller crawls its candidates does not matter
//! either. Every `cert_*` metric is a sum, and the quarantine streak is
//! kept per address, which one census visits once; the census walks its
//! scan's table in hash order, which changes with every restore.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::collections::HashMap;
use std::io::Write;
use std::net::Ipv4Addr;

use ixp_faults::{retry_with_backoff, AttemptLog, Quarantine, RetryPolicy};
use ixp_netmodel::{InternetModel, OrgKind, ServerFlags, Week};
use ixp_obs::{Counter, Obs};

use crate::x509::{Certificate, Chain, KeyUsage, RootStore};

/// Probability that one fetch round times out transiently (retryable).
const TRANSIENT_DOWN_RATE: f64 = 0.12;

/// Consecutive completely-unanswered attempts within one repeated-fetch
/// campaign before the remaining attempts are skipped.
const PERSISTENT_FAILURE_CUTOFF: u32 = 2;

/// Result of one crawl attempt against an IP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrawlResult<'c> {
    /// No TCP answer / handshake timeout.
    NoAnswer,
    /// Something answered on 443, but it does not speak TLS (SSH, VPN,
    /// proxies — the firewall-circumvention traffic the paper filters out).
    NotTls,
    /// A TLS handshake delivered this certificate chain.
    Tls(Presented<'c>),
}

/// A certificate chain as one TLS handshake presented it: the server's
/// chain, borrowed from the crawler, and for a role-flipping cloud IP the
/// tenant whose label heads the leaf subject on this visit
/// (`tenant-<n>.<subject>`). Two presentations are equal when they present
/// equal chains under the same tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Presented<'c> {
    /// The chain as the crawler holds it.
    pub(crate) chain: &'c Chain,
    /// The tenant label the leaf subject carries on this visit, if any.
    pub(crate) tenant: Option<u32>,
}

/// Room for the longest tenant prefix: `tenant-`, the ten digits of
/// `u32::MAX` and the dot.
pub(crate) const TENANT_PREFIX_MAX: usize = 18;

impl<'c> Presented<'c> {
    /// The leaf certificate as the crawler holds it: its subject lacks
    /// the tenant label.
    pub(crate) fn leaf(&self) -> Option<&'c Certificate> {
        self.chain.leaf()
    }

    /// The same chain under the same tenant, by address: what an earlier
    /// check of one holds for the other.
    pub(crate) fn same_as(&self, other: &Presented<'_>) -> bool {
        std::ptr::eq(self.chain, other.chain) && self.tenant == other.tenant
    }

    /// The `tenant-<n>.` label the leaf subject starts with, written into
    /// `buf`; empty without a tenant or a leaf.
    pub(crate) fn subject_prefix<'b>(&self, buf: &'b mut [u8; TENANT_PREFIX_MAX]) -> &'b str {
        let (Some(tenant), Some(_)) = (self.tenant, self.leaf()) else { return "" };
        let len = {
            let mut rest = &mut buf[..];
            // Cannot run out: the buffer holds the longest prefix.
            let _ = write!(rest, "tenant-{tenant}.");
            TENANT_PREFIX_MAX - rest.len()
        };
        std::str::from_utf8(&buf[..len]).unwrap_or("")
    }

    /// The leaf subject as presented: borrowed from the chain, or spelt
    /// out under a tenant. Empty for an empty chain.
    pub(crate) fn subject(&self) -> Cow<'c, str> {
        let subject = self.leaf().map_or("", |leaf| &leaf.subject);
        let mut buf = [0; TENANT_PREFIX_MAX];
        match self.subject_prefix(&mut buf) {
            "" => Cow::Borrowed(subject),
            prefix => Cow::Owned(format!("{prefix}{subject}")),
        }
    }

    /// Does the presented leaf subject read `head` then `tail`? Compared
    /// in place, byte for byte, the tenant label included.
    pub(crate) fn subject_reads(&self, head: &str, tail: &str) -> bool {
        let mut buf = [0; TENANT_PREFIX_MAX];
        let prefix = self.subject_prefix(&mut buf);
        let subject = self.leaf().map_or("", |leaf| &leaf.subject);
        prefix.len() + subject.len() == head.len() + tail.len()
            && prefix.bytes().chain(subject.bytes()).eq(head.bytes().chain(tail.bytes()))
    }

    /// The presented chain, owned: a copy of the crawler's chain with the
    /// presented subject written into its leaf.
    pub fn to_chain(self) -> Chain {
        let mut chain = self.chain.clone();
        let subject = self.subject().into_owned();
        if let Some(leaf) = chain.certs.first_mut() {
            leaf.subject = subject;
        }
        chain
    }
}

/// How a server's certificate is broken, if it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Defect {
    None,
    Expired,
    SelfSigned,
    BadSubject,
    WrongKeyUsage,
    ShuffledChain,
    BadCcsld,
    /// Role-flipping cloud IP: presents a different identity per attempt.
    Flaky,
}

#[derive(Debug, Clone)]
struct CertProfile {
    chain: Chain,
    defect: Defect,
}

/// Live crawl metrics (`cert_*` counter families). Counters only: counts
/// sum the same whatever order the parallel study weeks crawl in, so the
/// metrics snapshot stays deterministic. The quarantine table's size is
/// interleaving-dependent and is therefore *not* exported as a metric —
/// use [`CrawlSim::quarantined_hosts`] for the operational reading.
#[derive(Debug, Clone, Default)]
pub struct CrawlMetrics {
    /// Fetches issued through [`CrawlSim::fetch_with_retry`].
    pub fetches: Counter,
    /// Individual attempt rounds across all fetches.
    pub attempts: Counter,
    /// Fetches whose simulated deadline ran out.
    pub exhausted: Counter,
    /// Repeated-fetch campaigns run ([`CrawlSim::fetch_repeatedly`]).
    pub campaigns: Counter,
    /// Campaigns cut short by the persistent-failure cutoff.
    pub abandoned: Counter,
}

impl CrawlMetrics {
    fn register(obs: &Obs) -> CrawlMetrics {
        let r = &obs.registry;
        CrawlMetrics {
            fetches: r.counter("cert_fetches_total"),
            attempts: r.counter("cert_attempts_total"),
            exhausted: r.counter("cert_exhausted_deadline_total"),
            campaigns: r.counter("cert_campaigns_total"),
            abandoned: r.counter("cert_campaigns_abandoned_total"),
        }
    }
}

/// The crawl simulator.
#[derive(Debug)]
pub struct CrawlSim {
    profiles: HashMap<u32, CertProfile>,
    seed: u64,
    /// Retry budget applied to every fetch.
    policy: RetryPolicy,
    /// Hosts that persistently answered nothing (reporting only — never
    /// consulted to gate results, so parallel weeks stay deterministic).
    quarantine: Quarantine<u32>,
    /// Live crawl metrics (detached until [`CrawlSim::bind_obs`]).
    metrics: CrawlMetrics,
}

impl CrawlSim {
    /// Build certificate profiles for every HTTPS-capable server.
    pub fn build(model: &InternetModel, seed: u64) -> CrawlSim {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5_0009);
        let store = RootStore::default_store();
        let mut profiles = HashMap::new();
        for server in model.servers.servers() {
            if !server.flags.has(ServerFlags::HTTPS) {
                continue;
            }
            let org = model.orgs.get(server.org);
            let defect = match rng.gen::<f64>() {
                x if x < 0.52 => Defect::None,
                x if x < 0.60 => Defect::Expired,
                x if x < 0.68 => Defect::SelfSigned,
                x if x < 0.74 => Defect::BadSubject,
                x if x < 0.79 => Defect::WrongKeyUsage,
                x if x < 0.84 => Defect::ShuffledChain,
                x if x < 0.88 => Defect::BadCcsld,
                _ => Defect::Flaky,
            };
            // Cloud/hoster IPs are the flaky ones in practice; bias there.
            let defect = if defect == Defect::Flaky
                && !matches!(org.kind, OrgKind::Cloud | OrgKind::Hoster | OrgKind::MetaHoster)
            {
                Defect::None
            } else {
                defect
            };

            let subject = match defect {
                Defect::BadSubject => "localhost".to_string(),
                Defect::BadCcsld => format!("www.{}.invalid-ccsld", org.name.to_lowercase()),
                _ => org
                    .domains
                    .first()
                    .cloned()
                    .unwrap_or_else(|| format!("www.{}", org.soa_domain)),
            };
            // SANs: hosting companies pack many customer names onto one
            // certificate (§2.4 — used to find additional URIs).
            let san_count = match org.kind {
                OrgKind::Hoster | OrgKind::MetaHoster => 6.min(org.domains.len()),
                _ => 2.min(org.domains.len()),
            };
            let offset = rng.gen_range(0..org.domains.len().max(1));
            let alt_names: Vec<String> = (0..san_count)
                .map(|k| org.domains[(offset + k) % org.domains.len()].clone())
                .collect();

            let ca = rng.gen_range(1..=4u8);
            let root = ["Root CA Alpha", "Root CA Beta", "Root CA Gamma", "Root CA Delta"]
                [(ca - 1) as usize];
            debug_assert!(store.trusts(root));
            let (not_before, not_after) = match defect {
                Defect::Expired => (10u8, 40u8), // dies mid-study
                _ => (10, 120),
            };
            let leaf = Certificate {
                subject,
                alt_names,
                issuer: format!("Intermediate CA {ca}"),
                key_usage: if defect == Defect::WrongKeyUsage {
                    KeyUsage::ClientAuth
                } else {
                    KeyUsage::ServerAuth
                },
                not_before,
                not_after,
            };
            let intermediate = Certificate {
                subject: format!("Intermediate CA {ca}"),
                alt_names: vec![],
                issuer: root.to_string(),
                key_usage: KeyUsage::CertSign,
                not_before: 0,
                not_after: 255,
            };
            let mut certs = match defect {
                Defect::SelfSigned => {
                    let mut c = leaf.clone();
                    c.issuer = c.subject.clone();
                    vec![c]
                }
                _ => vec![leaf, intermediate],
            };
            if defect == Defect::ShuffledChain {
                certs.reverse();
            }
            profiles.insert(u32::from(server.ip), CertProfile { chain: Chain { certs }, defect });
        }
        CrawlSim {
            profiles,
            seed,
            policy: RetryPolicy::default(),
            quarantine: Quarantine::new(PERSISTENT_FAILURE_CUTOFF),
            metrics: CrawlMetrics::default(),
        }
    }

    /// Publish this crawler's metrics into an observability bundle's
    /// registry (`cert_*` counter families).
    pub fn bind_obs(&mut self, obs: &Obs) {
        self.metrics = CrawlMetrics::register(obs);
    }

    /// The live crawl metrics (detached unless [`CrawlSim::bind_obs`] was
    /// called).
    pub fn metrics(&self) -> &CrawlMetrics {
        &self.metrics
    }

    /// Crawl an IP in a given week (attempt counter distinguishes repeated
    /// fetches for the stability check).
    pub fn fetch(
        &self,
        model: &InternetModel,
        ip: Ipv4Addr,
        week: Week,
        attempt: u32,
    ) -> CrawlResult<'_> {
        match model.servers.by_ip(ip) {
            None => {
                // Not a server: VPN/SSH endpoints answer without TLS; the
                // rest never respond. Deterministic per IP.
                if self.coin(ip, 0x51, 0.10) {
                    CrawlResult::NotTls
                } else {
                    CrawlResult::NoAnswer
                }
            }
            Some(server) => {
                if !server.exists_in(week) {
                    return CrawlResult::NoAnswer;
                }
                if server.flags.has(ServerFlags::HTTPS) && !server.https_in(week) {
                    // TLS not enabled yet on this IP.
                    return CrawlResult::NoAnswer;
                }
                match self.profiles.get(&u32::from(ip)) {
                    None => {
                        // A server, but not an HTTPS one: a sliver runs
                        // non-TLS services on 443.
                        if self.coin(ip, 0x52, 0.08) {
                            CrawlResult::NotTls
                        } else {
                            CrawlResult::NoAnswer
                        }
                    }
                    Some(profile) => CrawlResult::Tls(Presented {
                        chain: &profile.chain,
                        // Present a different tenant identity per visit.
                        tenant: (profile.defect == Defect::Flaky)
                            .then(|| (u32::from(ip) ^ attempt).wrapping_mul(2654435761) % 100_000),
                    }),
                }
            }
        }
    }

    /// One fetch under the retry budget: transient timeouts (a
    /// deterministic per-round coin) are retried with capped exponential
    /// backoff until the policy's attempt cap or simulated deadline runs
    /// out. A definitive `NoAnswer` is *not* retried — the host answered
    /// the probe with silence, which is an answer.
    pub(crate) fn fetch_with_retry(
        &self,
        model: &InternetModel,
        ip: Ipv4Addr,
        week: Week,
        attempt: u32,
    ) -> (CrawlResult<'_>, AttemptLog) {
        let (result, log) = retry_with_backoff(self.policy, |round| {
            if self.transient_down(ip, week, attempt, round) {
                None
            } else {
                Some(self.fetch(model, ip, week, attempt))
            }
        });
        self.metrics.fetches.inc();
        self.metrics.attempts.add(u64::from(log.attempts));
        if log.exhausted_deadline {
            self.metrics.exhausted.inc();
        }
        (result.unwrap_or(CrawlResult::NoAnswer), log)
    }

    /// Crawl an IP several times across two weeks, as the paper does, and
    /// hand back the fetches for validation: `out` is cleared, then holds
    /// each TLS answer with its fetch week.
    ///
    /// Each fetch runs under the retry budget. An IP that answers nothing
    /// on [`PERSISTENT_FAILURE_CUTOFF`] consecutive attempts is treated as
    /// persistently down for this campaign: the remaining attempts are
    /// skipped (they could only burn deadline budget on a dead host) and
    /// the IP is recorded in the shared quarantine table.
    pub fn fetch_repeatedly<'c>(
        &'c self,
        model: &InternetModel,
        ip: Ipv4Addr,
        week: Week,
        attempts: u32,
        out: &mut Vec<(Presented<'c>, u8)>,
    ) {
        self.metrics.campaigns.inc();
        out.clear();
        let mut dead_streak = 0u32;
        let mut answered = false;
        for a in 0..attempts {
            if dead_streak >= PERSISTENT_FAILURE_CUTOFF {
                self.metrics.abandoned.inc();
                break;
            }
            // Alternate between this week and the previous one (clamped to
            // the start of the study).
            let w = Week(week.0.saturating_sub((a % 2) as u8).max(Week::FIRST.0));
            match self.fetch_with_retry(model, ip, w, a) {
                (CrawlResult::Tls(presented), _) => {
                    answered = true;
                    dead_streak = 0;
                    out.push((presented, w.0));
                }
                (CrawlResult::NotTls, _) => {
                    answered = true;
                    dead_streak = 0;
                }
                (CrawlResult::NoAnswer, _) => dead_streak += 1,
            }
        }
        let key = u32::from(ip);
        if answered {
            self.quarantine.record_success(&key);
        } else {
            self.quarantine.record_failure(key);
        }
    }

    /// Hosts currently flagged as persistently unresponsive by past
    /// campaigns (an operational gauge, not a result filter).
    pub fn quarantined_hosts(&self) -> usize {
        self.quarantine.quarantined_count()
    }

    /// The retry budget fetches run under.
    #[cfg(test)]
    pub(crate) fn retry_policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Deterministic transient-timeout coin for one fetch round.
    fn transient_down(&self, ip: Ipv4Addr, week: Week, attempt: u32, round: u32) -> bool {
        let mut x = u32::from(ip) ^ 0x7A11_5EED;
        x = x.wrapping_mul(0x9E37_79B9).wrapping_add(u32::from(week.0));
        x = x.wrapping_mul(0x85EB_CA6B).wrapping_add(attempt.wrapping_mul(1009));
        x = x.wrapping_mul(0xC2B2_AE35).wrapping_add(round.wrapping_mul(9176));
        x = x.wrapping_add(self.seed as u32);
        x ^= x >> 16;
        x = x.wrapping_mul(0x045D_9F3B);
        x ^= x >> 16;
        f64::from(x) / f64::from(u32::MAX) < TRANSIENT_DOWN_RATE
    }

    fn coin(&self, ip: Ipv4Addr, salt: u32, p: f64) -> bool {
        let x = (u32::from(ip) ^ salt.wrapping_mul(0x85EB_CA6B))
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(self.seed as u32);
        (x as f64 / u32::MAX as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::tests::reference_validate_fetches;
    use crate::validate::{validate_fetches, ValidationError};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn build() -> (InternetModel, CrawlSim) {
        let model = InternetModel::tiny(41);
        let sim = CrawlSim::build(&model, 41);
        (model, sim)
    }

    const DEFECTS: [Defect; 8] = [
        Defect::None,
        Defect::Expired,
        Defect::SelfSigned,
        Defect::BadSubject,
        Defect::WrongKeyUsage,
        Defect::ShuffledChain,
        Defect::BadCcsld,
        Defect::Flaky,
    ];

    /// The tiny model, its crawler, and the first three servers (by
    /// address) of every defect.
    fn by_defect() -> &'static (InternetModel, CrawlSim, Vec<Ipv4Addr>) {
        static FIXTURE: OnceLock<(InternetModel, CrawlSim, Vec<Ipv4Addr>)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let (model, sim) = build();
            let mut profiles: Vec<(u32, Defect)> =
                sim.profiles.iter().map(|(ip, p)| (*ip, p.defect)).collect();
            profiles.sort_unstable_by_key(|(ip, _)| *ip);
            let mut servers = Vec::new();
            for defect in DEFECTS {
                let before = servers.len();
                let of_defect = profiles.iter().filter(|(_, d)| *d == defect);
                servers.extend(of_defect.take(3).map(|(ip, _)| Ipv4Addr::from(*ip)));
                assert!(servers.len() > before, "no {defect:?} server in the tiny model");
            }
            (model, sim, servers)
        })
    }

    fn materialised(fetches: &[(Presented<'_>, u8)]) -> Vec<(Chain, u8)> {
        fetches.iter().map(|(p, week)| (p.to_chain(), *week)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]

        /// What the crawler hands back for a server of any defect, one to
        /// four attempts, any study week: the same verdict and the same
        /// names as the frozen copy over the chains spelt out.
        #[test]
        fn validating_crawled_fetches_matches_the_frozen_copy(
            server in 0usize..24,
            attempts in 1u32..=4,
            week in 35u8..=51,
        ) {
            let (model, sim, servers) = by_defect();
            let store = RootStore::default_store();
            let mut fetches = Vec::new();
            let ip = servers[server % servers.len()];
            sim.fetch_repeatedly(model, ip, Week(week), attempts, &mut fetches);
            prop_assert_eq!(
                validate_fetches(&fetches, &store),
                reference_validate_fetches(&materialised(&fetches), &store)
            );
        }

        /// Presentations no single server would give: chains of different
        /// servers and defects in one list, under chosen tenants and
        /// weeks, so that the skipped re-checks and the in-place
        /// comparison meet every order of failures.
        #[test]
        fn validating_mixed_presentations_matches_the_frozen_copy(
            picks in collection::vec((0usize..24, 0u8..3, 0u32..3, 35u8..=51), 1..=4),
        ) {
            let (_, sim, servers) = by_defect();
            let store = RootStore::default_store();
            let first = picks[0].0;
            let fetches: Vec<(Presented<'_>, u8)> = picks
                .iter()
                .map(|&(server, again, tenant, week)| {
                    // Two in three fetches go back to the first server.
                    let server = if again > 0 { first } else { server };
                    let ip = u32::from(servers[server % servers.len()]);
                    let chain = &sim.profiles[&ip].chain;
                    (Presented { chain, tenant: (tenant > 0).then_some(tenant) }, week)
                })
                .collect();
            prop_assert_eq!(
                validate_fetches(&fetches, &store),
                reference_validate_fetches(&materialised(&fetches), &store)
            );
        }
    }

    #[test]
    fn https_servers_answer_tls() {
        let (model, sim) = build();
        let server = model
            .servers
            .servers()
            .iter()
            .find(|s| s.flags.has(ServerFlags::HTTPS) && s.active_in(Week::REFERENCE))
            .unwrap();
        match sim.fetch(&model, server.ip, Week::REFERENCE, 0) {
            CrawlResult::Tls(presented) => assert!(!presented.chain.certs.is_empty()),
            other => panic!("expected TLS, got {other:?}"),
        }
    }

    #[test]
    fn non_https_servers_mostly_silent() {
        let (model, sim) = build();
        let mut answers = 0;
        let mut total = 0;
        for s in model.servers.servers().iter().filter(|s| !s.flags.has(ServerFlags::HTTPS)) {
            total += 1;
            if sim.fetch(&model, s.ip, Week::REFERENCE, 0) != CrawlResult::NoAnswer
                && s.active_in(Week::REFERENCE)
            {
                answers += 1;
            }
        }
        assert!(total > 0);
        assert!((answers as f64) < total as f64 * 0.3, "{answers}/{total} answered");
    }

    #[test]
    fn inactive_weeks_do_not_answer() {
        let (model, sim) = build();
        if let Some(s) = model.servers.servers().iter().find(|s| {
            s.flags.has(ServerFlags::HTTPS) && !s.exists_in(Week::FIRST) && s.exists_in(Week::LAST)
        }) {
            assert_eq!(sim.fetch(&model, s.ip, Week::FIRST, 0), CrawlResult::NoAnswer);
            assert!(matches!(sim.fetch(&model, s.ip, Week::LAST, 0), CrawlResult::Tls(_)));
        }
    }

    #[test]
    fn validation_funnel_accepts_some_rejects_some() {
        let (model, sim) = build();
        let store = RootStore::default_store();
        let mut valid = 0;
        let mut invalid = 0;
        let mut fetches = Vec::new();
        for s in model.servers.servers() {
            if !s.flags.has(ServerFlags::HTTPS) || !s.active_in(Week::REFERENCE) {
                continue;
            }
            sim.fetch_repeatedly(&model, s.ip, Week::REFERENCE, 3, &mut fetches);
            match validate_fetches(&fetches, &store) {
                Ok(_) => valid += 1,
                Err(_) => invalid += 1,
            }
        }
        assert!(valid > 0, "nothing validated");
        assert!(invalid > 0, "nothing rejected — defects not firing");
        let rate = valid as f64 / (valid + invalid) as f64;
        // The paper validates ≈ 50 % of responders.
        assert!((0.3..0.8).contains(&rate), "valid rate {rate:.2}");
    }

    #[test]
    fn flaky_ips_fail_the_stability_check() {
        let (model, sim) = build();
        let store = RootStore::default_store();
        let mut saw_unstable = false;
        let mut fetches = Vec::new();
        for s in model.servers.servers() {
            if !s.flags.has(ServerFlags::HTTPS) || !s.active_in(Week::REFERENCE) {
                continue;
            }
            sim.fetch_repeatedly(&model, s.ip, Week::REFERENCE, 4, &mut fetches);
            if validate_fetches(&fetches, &store) == Err(ValidationError::Unstable) {
                saw_unstable = true;
                break;
            }
        }
        assert!(saw_unstable, "no role-flipping cloud IPs in the population");
    }

    #[test]
    fn non_servers_never_deliver_tls() {
        let (model, sim) = build();
        for probe in [Ipv4Addr::new(2, 3, 4, 5), Ipv4Addr::new(200, 1, 2, 3)] {
            if model.servers.by_ip(probe).is_none() {
                assert!(!matches!(
                    sim.fetch(&model, probe, Week::REFERENCE, 0),
                    CrawlResult::Tls(_)
                ));
            }
        }
    }

    #[test]
    fn deterministic() {
        let (model, sim) = build();
        let sim2 = CrawlSim::build(&model, 41);
        for s in model.servers.servers().iter().take(100) {
            assert_eq!(
                sim.fetch(&model, s.ip, Week::REFERENCE, 1),
                sim2.fetch(&model, s.ip, Week::REFERENCE, 1)
            );
        }
    }

    #[test]
    fn retry_rides_through_transient_timeouts() {
        let (model, sim) = build();
        let mut retried = 0u32;
        let mut flipped = 0u32;
        let mut total = 0u32;
        for s in model.servers.servers() {
            if !s.flags.has(ServerFlags::HTTPS) || !s.active_in(Week::REFERENCE) {
                continue;
            }
            total += 1;
            let plain = sim.fetch(&model, s.ip, Week::REFERENCE, 0);
            let (with_retry, log) = sim.fetch_with_retry(&model, s.ip, Week::REFERENCE, 0);
            assert!(log.attempts >= 1);
            assert!(log.attempts <= sim.retry_policy().max_attempts);
            if log.attempts > 1 {
                retried += 1;
            }
            if with_retry != plain {
                flipped += 1;
            }
        }
        assert!(total > 0);
        // The transient coin fires at ≈ 12 % per round, so a visible share
        // of fetches needs at least one retry …
        assert!(retried > 0, "no fetch ever needed a retry");
        // … but the budget absorbs nearly all of them: losing all rounds is
        // a ≈ 0.12⁴ event.
        assert!(
            f64::from(flipped) < f64::from(total) * 0.01,
            "{flipped}/{total} fetches changed outcome under retry"
        );
    }

    #[test]
    fn retry_is_deterministic() {
        let (model, sim) = build();
        let sim2 = CrawlSim::build(&model, 41);
        for s in model.servers.servers().iter().take(100) {
            let (a, log_a) = sim.fetch_with_retry(&model, s.ip, Week::REFERENCE, 2);
            let (b, log_b) = sim2.fetch_with_retry(&model, s.ip, Week::REFERENCE, 2);
            assert_eq!(a, b);
            assert_eq!(log_a.attempts, log_b.attempts);
            assert_eq!(log_a.elapsed_ms, log_b.elapsed_ms);
        }
    }

    #[test]
    fn dead_hosts_are_cut_off_and_quarantined() {
        let (model, sim) = build();
        // A non-server IP that is silent (not the NotTls 10 %): every
        // campaign against it exhausts the dead-streak cutoff.
        let dead = (1..255)
            .map(|o| Ipv4Addr::new(203, 0, 113, o))
            .find(|ip| {
                model.servers.by_ip(*ip).is_none()
                    && sim.fetch(&model, *ip, Week::REFERENCE, 0) == CrawlResult::NoAnswer
                    && sim.fetch(&model, *ip, Week::REFERENCE, 1) == CrawlResult::NoAnswer
            })
            .expect("no silent non-server IP found");
        assert_eq!(sim.quarantined_hosts(), 0);
        let mut fetches = Vec::new();
        sim.fetch_repeatedly(&model, dead, Week::REFERENCE, 8, &mut fetches);
        assert!(fetches.is_empty());
        // One failed campaign starts the streak; the second crosses the
        // cutoff and quarantines the host.
        assert_eq!(sim.quarantined_hosts(), 0);
        sim.fetch_repeatedly(&model, dead, Week::REFERENCE, 8, &mut fetches);
        assert_eq!(sim.quarantined_hosts(), 1);
        // An answering host releases itself on its next campaign.
        let alive = model
            .servers
            .servers()
            .iter()
            .find(|s| s.flags.has(ServerFlags::HTTPS) && s.active_in(Week::REFERENCE))
            .unwrap();
        sim.fetch_repeatedly(&model, alive.ip, Week::REFERENCE, 3, &mut fetches);
        assert!(!fetches.is_empty());
        assert_eq!(sim.quarantined_hosts(), 1, "answering host must not be quarantined");
    }

    #[test]
    fn quarantine_never_gates_results() {
        let (model, sim) = build();
        let alive = model
            .servers
            .servers()
            .iter()
            .find(|s| s.flags.has(ServerFlags::HTTPS) && s.active_in(Week::REFERENCE))
            .unwrap();
        let (mut first, mut second) = (Vec::new(), Vec::new());
        sim.fetch_repeatedly(&model, alive.ip, Week::REFERENCE, 3, &mut first);
        // Poison the shared table for this key, then refetch: identical.
        for _ in 0..10 {
            sim.quarantine.record_failure(u32::from(alive.ip));
        }
        sim.fetch_repeatedly(&model, alive.ip, Week::REFERENCE, 3, &mut second);
        assert_eq!(first, second);
    }
}
