//! The open-resolver population and region-aware resolution.
//!
//! §2.3: the authors start from the top 280K recursive resolvers seen by a
//! large CDN, eliminate those that are closed, delegate, or lie, and keep
//! ≈ 25K usable resolvers across ≈ 12K ASes. §3.3 then uses them to resolve
//! the Alexa domains the IXP's URIs did *not* cover, discovering ≈ 600K
//! server IPs — among them servers the IXP can never see (private clusters,
//! far-away regions).
//!
//! The pool reproduces both the vetting pipeline and the *region-aware*
//! answer behaviour of CDNs: a resolver inside an AS that hosts an
//! organization's (possibly private) cluster is answered with that cluster;
//! everyone else gets servers from the org's general footprint.
//!
//! ## Failure handling
//!
//! Open resolvers flap. [`ResolverPool::resolve_with_retry`] wraps the pure
//! [`ResolverPool::resolve`] in a retry-with-backoff budget (a deterministic
//! per-`(slot, domain, week, round)` coin models the timeout) and fails
//! over to the next usable slot when one exhausts its budget. The caller
//! supplies a *campaign-scoped* [`Quarantine`] so dead slots stop burning
//! deadline budget within that campaign; because the campaign owns the
//! table and runs sequentially, gating on it stays deterministic.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::Ipv4Addr;

use ixp_faults::{retry_with_backoff, AttemptLog, Quarantine, RetryPolicy};
use ixp_netmodel::{Asn, InternetModel, OrgId, Week};
use ixp_obs::{Counter, Obs};

/// Probability that one query round times out transiently (retryable).
const RESOLVER_TIMEOUT_RATE: f64 = 0.10;

/// How many alternative resolver slots a query may fail over to.
const MAX_FAILOVERS: usize = 3;

/// One recursive resolver candidate.
#[derive(Debug, Clone)]
pub struct Resolver {
    /// The resolver's address.
    pub ip: Ipv4Addr,
    /// Hosting AS.
    pub asn: Asn,
    /// Answers queries from outside its network.
    pub open: bool,
    /// Forwards to another recursive (answers not its own view).
    pub delegates: bool,
    /// Returns wrong answers (captive portals, NXDOMAIN-hijackers).
    pub lies: bool,
}

impl Resolver {
    /// Usable for active measurements (the §2.3 vetting criteria).
    pub(crate) fn usable(&self) -> bool {
        self.open && !self.delegates && !self.lies
    }
}

/// The result of one query campaign step under the retry/failover budget.
#[derive(Debug, Clone, Default)]
pub struct ResolveOutcome {
    /// The A records handed out (empty when nothing answered, or the
    /// domain is unknown — an *answer*, not a failure).
    pub answers: Vec<Ipv4Addr>,
    /// The usable-pool slot that actually answered, if any. Callers must
    /// attribute answers to this resolver, not the slot they asked for —
    /// failover may have moved the query.
    pub resolver: Option<usize>,
    /// Aggregate attempt accounting across all slots tried.
    pub log: AttemptLog,
    /// Slots skipped (quarantined) or abandoned (budget exhausted).
    pub failovers: u32,
}

/// Live query metrics for the retry/failover path (`dns_*` families).
/// Detached (counting into thin air) until [`ResolverPool::bind_obs`]
/// attaches the pool to a registry.
#[derive(Debug, Clone, Default)]
pub(crate) struct ResolverMetrics {
    /// Queries issued through [`ResolverPool::resolve_with_retry`].
    pub queries: Counter,
    /// Individual attempt rounds across all slots tried.
    pub attempts: Counter,
    /// Slots skipped (quarantined) or abandoned (budget exhausted).
    pub failovers: Counter,
    /// Failovers that were quarantine skips specifically.
    pub quarantine_skips: Counter,
    /// Queries whose simulated deadline ran out on some slot.
    pub exhausted: Counter,
    /// Queries no slot ever answered.
    pub unanswered: Counter,
}

impl ResolverMetrics {
    /// Register the bundle's counters in the bundle's registry.
    fn register(obs: &Obs) -> ResolverMetrics {
        let r = &obs.registry;
        ResolverMetrics {
            queries: r.counter("dns_queries_total"),
            attempts: r.counter("dns_attempts_total"),
            failovers: r.counter("dns_failovers_total"),
            quarantine_skips: r.counter("dns_quarantine_skips_total"),
            exhausted: r.counter("dns_exhausted_deadline_total"),
            unanswered: r.counter("dns_unanswered_total"),
        }
    }
}

/// The vetted resolver pool plus the org/AS server indexes needed to answer
/// region-aware queries.
#[derive(Debug)]
pub struct ResolverPool {
    candidates: Vec<Resolver>,
    usable: Vec<u32>,
    /// org -> indices of its servers in the model's catalog.
    org_servers: HashMap<OrgId, Vec<u32>>,
    /// (org, asn) -> indices of that org's servers in that AS.
    org_as_servers: HashMap<(OrgId, Asn), Vec<u32>>,
    /// domain -> owning org.
    domain_owner: HashMap<String, OrgId>,
    /// Retry budget applied to every query.
    policy: RetryPolicy,
    /// Seed for the deterministic transient-timeout coin.
    seed: u64,
    /// Live query metrics (detached until [`ResolverPool::bind_obs`]).
    metrics: ResolverMetrics,
}

impl ResolverPool {
    /// Build the candidate population and vet it.
    pub fn build(model: &InternetModel, seed: u64) -> ResolverPool {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5_0008);
        // Candidates: ≈ 6.5 per AS (280K over 43K ASes); usable ≈ 9 %.
        let n_ases = model.registry.len();
        let candidates_per_as = 6.5f64;
        let mut candidates = Vec::with_capacity((n_ases as f64 * candidates_per_as) as usize);
        for info in model.registry.iter() {
            let n = if rng.gen::<f64>() < candidates_per_as.fract() {
                candidates_per_as.ceil() as usize
            } else {
                candidates_per_as.floor() as usize
            };
            let prefixes = model.routing.prefixes_of(&model.registry, info.asn);
            if prefixes.is_empty() {
                continue;
            }
            for k in 0..n {
                let entry = model.routing.entry(prefixes[k % prefixes.len()]);
                // Resolvers live in the client zone, near its top.
                let size = entry.prefix.size();
                let ip = entry.prefix.addr_at(size - 2 - k as u64 % (size / 8).max(1));
                candidates.push(Resolver {
                    ip,
                    asn: info.asn,
                    open: rng.gen::<f64>() < 0.25,
                    delegates: rng.gen::<f64>() < 0.45,
                    lies: rng.gen::<f64>() < 0.25,
                });
            }
        }
        let usable: Vec<u32> = candidates
            .iter()
            .enumerate()
            .filter(|(_, r)| r.usable())
            .map(|(i, _)| i as u32)
            .collect();

        // Server indexes for region-aware answers.
        let mut org_servers: HashMap<OrgId, Vec<u32>> = HashMap::new();
        let mut org_as_servers: HashMap<(OrgId, Asn), Vec<u32>> = HashMap::new();
        for (i, s) in model.servers.servers().iter().enumerate() {
            org_servers.entry(s.org).or_default().push(i as u32);
            org_as_servers.entry((s.org, s.asn)).or_default().push(i as u32);
        }
        let mut domain_owner = HashMap::new();
        for org in model.orgs.iter() {
            for d in &org.domains {
                domain_owner.insert(d.clone(), org.id);
            }
        }
        ResolverPool {
            candidates,
            usable,
            org_servers,
            org_as_servers,
            domain_owner,
            policy: RetryPolicy::default(),
            seed,
            metrics: ResolverMetrics::default(),
        }
    }

    /// Publish this pool's query metrics into an observability bundle's
    /// registry (`dns_*` counter families).
    pub fn bind_obs(&mut self, obs: &Obs) {
        self.metrics = ResolverMetrics::register(obs);
    }

    /// All candidates (pre-vetting).
    #[cfg(test)]
    pub(crate) fn candidates(&self) -> &[Resolver] {
        &self.candidates
    }

    /// The usable resolvers.
    pub fn usable(&self) -> impl Iterator<Item = &Resolver> {
        self.usable.iter().map(|i| &self.candidates[*i as usize])
    }

    /// Number of usable resolvers.
    #[cfg(test)]
    pub(crate) fn usable_count(&self) -> usize {
        self.usable.len()
    }

    /// Number of distinct ASes with a usable resolver.
    #[cfg(test)]
    pub(crate) fn usable_as_count(&self) -> usize {
        let mut ases: Vec<Asn> = self.usable().map(|r| r.asn).collect();
        ases.sort_unstable();
        ases.dedup();
        ases.len()
    }

    /// Resolve a domain through the `k`-th usable resolver in week `week`:
    /// returns the A records a region-aware authority would hand out.
    ///
    /// Answer policy (mirroring CDN behaviour the paper describes):
    /// 1. if the owning org has servers (even *private-cluster* ones) in
    ///    the resolver's AS, answer with those — this is exactly why
    ///    private clusters are discoverable by in-AS resolvers yet
    ///    invisible at the IXP;
    /// 2. otherwise answer with servers from the org's general footprint,
    ///    deterministically spread by resolver so different vantage points
    ///    harvest different subsets.
    pub fn resolve(
        &self,
        model: &InternetModel,
        domain: &str,
        k: usize,
        week: Week,
    ) -> Vec<Ipv4Addr> {
        if self.usable.is_empty() {
            return Vec::new();
        }
        let resolver = &self.candidates[self.usable[k % self.usable.len()] as usize];
        let org = match self.domain_owner.get(domain) {
            Some(o) => *o,
            None => return Vec::new(),
        };
        let servers = model.servers.servers();
        let answer_from = |pool: &[u32], salt: usize| -> Vec<Ipv4Addr> {
            let live: Vec<u32> =
                pool.iter().copied().filter(|i| servers[*i as usize].exists_in(week)).collect();
            if live.is_empty() {
                return Vec::new();
            }
            (0..3usize)
                .map(|j| live[(salt.wrapping_mul(31) + j * 7919) % live.len()])
                .map(|i| servers[i as usize].ip)
                .collect()
        };
        if let Some(local) = self.org_as_servers.get(&(org, resolver.asn)) {
            let local_answer = answer_from(local, k);
            if !local_answer.is_empty() {
                return local_answer;
            }
        }
        self.org_servers.get(&org).map(|pool| answer_from(pool, k)).unwrap_or_default()
    }

    /// Resolve under the retry/failover budget.
    ///
    /// The query starts at usable slot `k`. Transient timeouts (the
    /// deterministic coin) retry with capped backoff under the policy's
    /// simulated deadline; a slot that exhausts its budget records a
    /// failure in `quarantine` and the query fails over to the next slot
    /// (up to `MAX_FAILOVERS`). Slots the campaign has already
    /// quarantined are skipped without burning any budget. `quarantine`
    /// must be owned by the campaign: resolution *is* gated on it, which
    /// is only deterministic because the campaign queries sequentially.
    pub fn resolve_with_retry(
        &self,
        model: &InternetModel,
        domain: &str,
        k: usize,
        week: Week,
        quarantine: &Quarantine<usize>,
    ) -> ResolveOutcome {
        let outcome = self.resolve_with_retry_inner(model, domain, k, week, quarantine);
        self.metrics.queries.inc();
        self.metrics.attempts.add(u64::from(outcome.log.attempts));
        self.metrics.failovers.add(u64::from(outcome.failovers));
        if outcome.log.exhausted_deadline {
            self.metrics.exhausted.inc();
        }
        if outcome.resolver.is_none() {
            self.metrics.unanswered.inc();
        }
        outcome
    }

    fn resolve_with_retry_inner(
        &self,
        model: &InternetModel,
        domain: &str,
        k: usize,
        week: Week,
        quarantine: &Quarantine<usize>,
    ) -> ResolveOutcome {
        let mut outcome = ResolveOutcome::default();
        if self.usable.is_empty() {
            return outcome;
        }
        let n = self.usable.len();
        for f in 0..=MAX_FAILOVERS {
            let slot = (k + f) % n;
            if quarantine.is_quarantined(&slot) {
                outcome.failovers += 1;
                self.metrics.quarantine_skips.inc();
                continue;
            }
            let (result, log) = retry_with_backoff(self.policy, |round| {
                if self.resolver_timeout(slot, domain, week, round) {
                    None
                } else {
                    Some(self.resolve(model, domain, slot, week))
                }
            });
            outcome.log.attempts += log.attempts;
            outcome.log.elapsed_ms += log.elapsed_ms;
            outcome.log.exhausted_deadline |= log.exhausted_deadline;
            match result {
                Some(answers) => {
                    quarantine.record_success(&slot);
                    outcome.answers = answers;
                    outcome.resolver = Some(slot);
                    return outcome;
                }
                None => {
                    quarantine.record_failure(slot);
                    outcome.failovers += 1;
                }
            }
        }
        outcome
    }

    /// Deterministic transient-timeout coin for one query round.
    fn resolver_timeout(&self, slot: usize, domain: &str, week: Week, round: u32) -> bool {
        let mut x = 0xCBF2_9CE4u32 ^ (slot as u32).wrapping_mul(0x9E37_79B9);
        for b in domain.bytes() {
            x = (x ^ u32::from(b)).wrapping_mul(0x0100_0193);
        }
        x = x.wrapping_mul(0x85EB_CA6B).wrapping_add(u32::from(week.0));
        x = x.wrapping_mul(0xC2B2_AE35).wrapping_add(round.wrapping_mul(9176));
        x = x.wrapping_add(self.seed as u32);
        x ^= x >> 16;
        x = x.wrapping_mul(0x045D_9F3B);
        x ^= x >> 16;
        f64::from(x) / f64::from(u32::MAX) < RESOLVER_TIMEOUT_RATE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ixp_netmodel::ServerFlags;

    fn build() -> (InternetModel, ResolverPool) {
        let model = InternetModel::tiny(29);
        let pool = ResolverPool::build(&model, 29);
        (model, pool)
    }

    #[test]
    fn vetting_keeps_a_small_usable_fraction() {
        let (_, pool) = build();
        let total = pool.candidates().len();
        let usable = pool.usable_count();
        assert!(usable > 0);
        let frac = usable as f64 / total as f64;
        // The paper keeps 25K of 280K ≈ 9 %.
        assert!((0.03..0.25).contains(&frac), "usable fraction {frac:.3}");
    }

    #[test]
    fn usable_resolvers_span_many_ases() {
        let (_, pool) = build();
        assert!(pool.usable_as_count() > 10);
        assert!(pool.usable_as_count() <= pool.usable_count());
    }

    #[test]
    fn resolution_returns_servers_of_the_owner() {
        let (model, pool) = build();
        let org = model.orgs.iter().find(|o| !o.domains.is_empty()).unwrap();
        let answers = pool.resolve(&model, &org.domains[0], 3, Week::REFERENCE);
        assert!(!answers.is_empty());
        for ip in answers {
            let s = model.servers.by_ip(ip).expect("answer must be a real server");
            assert_eq!(s.org, org.id);
        }
    }

    #[test]
    fn unknown_domains_get_no_answer() {
        let (model, pool) = build();
        assert!(pool.resolve(&model, "no-such-domain.example", 0, Week::REFERENCE).is_empty());
    }

    #[test]
    fn different_resolvers_harvest_different_subsets() {
        let (model, pool) = build();
        // Use a big org so the answer pool is large.
        let org = model.orgs.iter().max_by_key(|o| o.target_servers).unwrap();
        let mut all: Vec<Ipv4Addr> = Vec::new();
        for k in 0..40 {
            all.extend(pool.resolve(&model, &org.domains[0], k, Week::REFERENCE));
        }
        all.sort_unstable();
        all.dedup();
        assert!(all.len() > 3, "resolver diversity failed: {} uniques", all.len());
    }

    #[test]
    fn private_clusters_are_found_by_in_as_resolvers() {
        let (model, pool) = build();
        // Find a hidden server whose AS hosts a usable resolver.
        let mut found_hidden = false;
        for org in model.orgs.iter() {
            if org.domains.is_empty() {
                continue;
            }
            for (k, _) in pool.usable().enumerate() {
                let answers = pool.resolve(&model, &org.domains[0], k, Week::REFERENCE);
                if answers.iter().any(|ip| {
                    model
                        .servers
                        .by_ip(*ip)
                        .map(|s| s.flags.has(ServerFlags::HIDDEN))
                        .unwrap_or(false)
                }) {
                    found_hidden = true;
                    break;
                }
                if k > 200 {
                    break;
                }
            }
            if found_hidden {
                break;
            }
        }
        assert!(found_hidden, "no private-cluster server ever surfaced via resolvers");
    }

    #[test]
    fn deterministic() {
        let (model, _) = build();
        let a = ResolverPool::build(&model, 29);
        let b = ResolverPool::build(&model, 29);
        assert_eq!(a.usable_count(), b.usable_count());
        let ra = a.resolve(&model, "www.akamai.example", 5, Week::REFERENCE);
        let rb = b.resolve(&model, "www.akamai.example", 5, Week::REFERENCE);
        assert_eq!(ra, rb);
    }

    #[test]
    fn retry_answers_match_some_pure_slot() {
        let (model, pool) = build();
        let org = model.orgs.iter().find(|o| !o.domains.is_empty()).unwrap();
        let domain = &org.domains[0];
        let q = Quarantine::new(2);
        let mut answered = 0;
        for k in 0..50 {
            let out = pool.resolve_with_retry(&model, domain, k, Week::REFERENCE, &q);
            let slot = match out.resolver {
                Some(slot) => slot,
                None => continue,
            };
            answered += 1;
            // Failover moves at most MAX_FAILOVERS slots forward.
            let n = pool.usable_count();
            let dist = (slot + n - k % n) % n;
            assert!(dist <= 3, "slot {slot} is {dist} past requested {k}");
            // The answer is exactly what the pure resolver at that slot says.
            assert_eq!(out.answers, pool.resolve(&model, domain, slot, Week::REFERENCE));
            assert!(out.log.attempts >= 1);
        }
        assert!(answered > 45, "only {answered}/50 queries answered");
    }

    #[test]
    fn retry_campaign_is_deterministic() {
        let (model, pool) = build();
        let org = model.orgs.iter().find(|o| !o.domains.is_empty()).unwrap();
        let domain = &org.domains[0];
        let run = || {
            let q = Quarantine::new(2);
            (0..40)
                .map(|k| {
                    let out = pool.resolve_with_retry(&model, domain, k, Week::REFERENCE, &q);
                    (out.answers, out.resolver, out.failovers, out.log.attempts)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn quarantined_slots_are_skipped_without_budget() {
        let (model, pool) = build();
        let org = model.orgs.iter().find(|o| !o.domains.is_empty()).unwrap();
        let domain = &org.domains[0];
        let q = Quarantine::new(1);
        let n = pool.usable_count();
        // Quarantine the requested slot up front: the query must fail over
        // past it and still answer, spending zero attempts on it.
        q.record_failure(7 % n);
        let out = pool.resolve_with_retry(&model, domain, 7, Week::REFERENCE, &q);
        assert!(out.failovers >= 1);
        if let Some(slot) = out.resolver {
            assert_ne!(slot, 7 % n);
        }
    }

    #[test]
    fn unknown_domain_is_an_answer_not_a_failure() {
        let (model, pool) = build();
        let q = Quarantine::new(2);
        let out = pool.resolve_with_retry(&model, "no-such-domain.example", 0, Week::REFERENCE, &q);
        // The resolver responded (with an empty answer) — no failover spiral.
        assert!(out.answers.is_empty());
        assert!(out.resolver.is_some());
    }
}
