//! Bounded per-(peer, observation-domain) template cache for NetFlow v9
//! and IPFIX.
//!
//! Templates arrive on the same lossy UDP stream as the data records that
//! need them, so the cache is where transport robustness is won or lost:
//!
//! * **bounded** — at most [`TemplateCacheConfig::max_domains`] domains
//!   and [`TemplateCacheConfig::max_templates_per_domain`] templates per
//!   domain; over budget, the least-recently-used entry is evicted (a
//!   deterministic logical-tick LRU, no wall clock);
//! * **versioned** — each template carries a revision, bumped on
//!   *refresh-on-conflict*: a re-announcement with a different field
//!   layout replaces the old definition immediately (RFC 7011 §8 — the
//!   newest definition wins) and the bump is visible to metrics;
//! * **accounted** — installs, refreshes, and evictions are counted, and
//!   eviction of a still-needed template shows up downstream as
//!   `template_missing_dropped`, never as a silent decode of stale
//!   layouts.

#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
use std::collections::BTreeMap;

/// A domain is one exporter's template namespace: `(peer, odid)` where
/// `odid` is the v9 source id or the IPFIX observation domain id.
pub(crate) type DomainKey = (u64, u32);

/// One cached template definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Template {
    /// `(information element id, field length)` pairs, in wire order.
    pub fields: Vec<(u16, u16)>,
    /// Sum of the field lengths: the fixed data-record size.
    pub record_len: u32,
    /// Definition revision, bumped on refresh-on-conflict.
    pub revision: u32,
    /// Logical LRU tick of the last install or lookup.
    pub(crate) last_used: u64,
}

/// Per-domain template table.
#[derive(Debug, Default)]
pub(crate) struct Domain {
    /// Logical LRU tick of the domain's last touch.
    pub(crate) last_used: u64,
    /// template id → definition.
    pub(crate) templates: BTreeMap<u16, Template>,
}

/// Size bounds of the cache.
#[derive(Debug, Clone, Copy)]
pub struct TemplateCacheConfig {
    /// Most domains tracked at once.
    pub max_domains: usize,
    /// Most templates kept per domain.
    pub max_templates_per_domain: usize,
}

impl Default for TemplateCacheConfig {
    fn default() -> TemplateCacheConfig {
        TemplateCacheConfig { max_domains: 64, max_templates_per_domain: 64 }
    }
}

/// The bounded LRU template store.
#[derive(Debug, Default)]
pub struct TemplateCache {
    pub(crate) config: TemplateCacheConfig,
    pub(crate) domains: BTreeMap<DomainKey, Domain>,
    /// Monotonic logical clock driving the LRU order.
    pub(crate) tick: u64,
    /// Templates installed (first sightings).
    pub(crate) installed: u64,
    /// Refresh-on-conflict replacements.
    pub(crate) refreshed: u64,
    /// Definitions evicted by either bound.
    pub(crate) evicted: u64,
}

impl TemplateCache {
    /// An empty cache with the given bounds.
    pub fn new(config: TemplateCacheConfig) -> TemplateCache {
        TemplateCache { config, ..TemplateCache::default() }
    }

    /// Total templates currently cached, across domains.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.domains.values().map(|d| d.templates.len()).sum()
    }

    /// (installed, refreshed, evicted) lifetime counts.
    pub fn counts(&self) -> (u64, u64, u64) {
        (self.installed, self.refreshed, self.evicted)
    }

    /// Install a definition for `(key, id)`. The same layout again is a
    /// routine periodic re-announcement; a different one replaces the old
    /// definition and bumps its revision (refresh-on-conflict).
    pub(crate) fn install(&mut self, key: DomainKey, id: u16, fields: Vec<(u16, u16)>) {
        self.tick = self.tick.saturating_add(1);
        let tick = self.tick;
        let record_len =
            fields.iter().fold(0u32, |acc, (_, len)| acc.saturating_add(u32::from(*len)));

        // Bound the domain count before admitting a new one.
        if !self.domains.contains_key(&key) && self.domains.len() >= self.config.max_domains {
            if let Some(oldest) = self.oldest_domain() {
                if let Some(gone) = self.domains.remove(&oldest) {
                    self.evicted = self.evicted.saturating_add(gone.templates.len() as u64);
                }
            }
        }
        let domain = self.domains.entry(key).or_default();
        domain.last_used = tick;

        match domain.templates.get_mut(&id) {
            Some(existing) if existing.fields == fields => existing.last_used = tick,
            Some(existing) => {
                existing.revision = existing.revision.saturating_add(1);
                existing.fields = fields;
                existing.record_len = record_len;
                existing.last_used = tick;
                self.refreshed = self.refreshed.saturating_add(1);
            }
            None => {
                domain
                    .templates
                    .insert(id, Template { fields, record_len, revision: 1, last_used: tick });
                self.installed = self.installed.saturating_add(1);
                // Bound the per-domain table; evict its LRU template.
                if domain.templates.len() > self.config.max_templates_per_domain {
                    let victim = domain
                        .templates
                        .iter()
                        .min_by_key(|(tid, t)| (t.last_used, **tid))
                        .map(|(tid, _)| *tid);
                    if let Some(tid) = victim {
                        domain.templates.remove(&tid);
                        self.evicted = self.evicted.saturating_add(1);
                    }
                }
            }
        }
    }

    /// Look up a definition, touching the LRU order.
    pub(crate) fn get(&mut self, key: DomainKey, id: u16) -> Option<&Template> {
        self.tick = self.tick.saturating_add(1);
        let tick = self.tick;
        let domain = self.domains.get_mut(&key)?;
        domain.last_used = tick;
        let t = domain.templates.get_mut(&id)?;
        t.last_used = tick;
        Some(&*t)
    }

    /// Whether `(key, id)` is cached, without touching the LRU order.
    #[cfg(test)]
    pub(crate) fn contains(&self, key: DomainKey, id: u16) -> bool {
        self.domains.get(&key).is_some_and(|d| d.templates.contains_key(&id))
    }

    /// The least-recently-used domain key.
    fn oldest_domain(&self) -> Option<DomainKey> {
        self.domains.iter().min_by_key(|(k, d)| (d.last_used, **k)).map(|(k, _)| *k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields(n: u16) -> Vec<(u16, u16)> {
        (0..n).map(|i| (i + 1, 4)).collect()
    }

    #[test]
    fn install_refresh_unchanged_lifecycle() {
        let mut c = TemplateCache::new(TemplateCacheConfig::default());
        c.install((1, 0), 256, fields(2));
        assert_eq!(c.counts(), (1, 0, 0));
        c.install((1, 0), 256, fields(2));
        assert_eq!((c.counts(), c.get((1, 0), 256).unwrap().revision), ((1, 0, 0), 1));
        c.install((1, 0), 256, fields(3));
        let t = c.get((1, 0), 256).unwrap();
        assert_eq!(t.revision, 2);
        assert_eq!(t.record_len, 12);
        assert_eq!(c.counts(), (1, 1, 0));
    }

    #[test]
    fn per_domain_bound_evicts_lru_template() {
        let cfg = TemplateCacheConfig { max_domains: 4, max_templates_per_domain: 2 };
        let mut c = TemplateCache::new(cfg);
        c.install((1, 0), 256, fields(1));
        c.install((1, 0), 257, fields(1));
        // Touch 256 so 257 is the LRU victim.
        assert!(c.get((1, 0), 256).is_some());
        c.install((1, 0), 258, fields(1));
        assert!(c.contains((1, 0), 256));
        assert!(!c.contains((1, 0), 257), "LRU template survived the bound");
        assert!(c.contains((1, 0), 258));
        assert_eq!(c.counts(), (3, 0, 1));
    }

    #[test]
    fn domain_bound_evicts_lru_domain_with_accounting() {
        let cfg = TemplateCacheConfig { max_domains: 2, max_templates_per_domain: 8 };
        let mut c = TemplateCache::new(cfg);
        c.install((1, 0), 256, fields(1));
        c.install((1, 0), 257, fields(1));
        c.install((2, 0), 256, fields(1));
        // Touch domain 1 so domain 2 is the victim.
        assert!(c.get((1, 0), 256).is_some());
        c.install((3, 0), 256, fields(1));
        assert!(c.contains((1, 0), 256));
        assert!(!c.contains((2, 0), 256), "LRU domain survived the bound");
        let (installed, _, evicted) = c.counts();
        assert_eq!(installed, 4);
        assert_eq!(evicted, 1);
        assert_eq!(c.len(), 3);
    }
}
