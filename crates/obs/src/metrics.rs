//! The atomic metrics registry: counters, gauges, fixed-bucket histograms.
//!
//! Handles returned by the [`Registry`] are cheap `Arc` clones around
//! atomics: recording is a single `fetch_add` and no lock. The registry
//! itself is only locked when a metric is (re)registered or a snapshot is
//! taken. The per-datagram ingest path does not record at all — it counts
//! in plain integers that [`crate::publish`] brings into the registry at
//! sync points.
//!
//! Everything here is panic-free by construction (no indexing, no unwrap,
//! saturating arithmetic): instrumented code inside the stream-facing
//! crates sits under the L5 panic-reachability lint, and a metrics layer
//! that can crash the collector would defeat its purpose.
//!
//! Naming scheme (DESIGN.md §10): `<crate>_<noun>_<unit>` with `_total`
//! for monotonic counters, e.g. `sflow_datagrams_total` or
//! `core_stage_duration_ns{stage="census"}`. An optional single
//! `{key="value"}` label block distinguishes series within a family.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The one atomic read in the workspace (`Atomic*::load` is disallowed in
/// `clippy.toml`). Acquire, so a reading includes every write published
/// before it; the writers (`fetch_add`, `fetch_max`, `store`) stay Relaxed.
#[allow(clippy::disallowed_methods, reason = "the sanctioned site: every reading is Acquire")]
pub(crate) fn read(cell: &AtomicU64) -> u64 {
    cell.load(Ordering::Acquire)
}

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        read(&self.cell)
    }
}

/// A gauge: a value that can move both ways.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Set the gauge to an absolute value.
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if it is below (a high-water mark). When
    /// several pipeline instances share one gauge — e.g. the per-week
    /// collectors of a parallel study — a plain `set` would leave the
    /// last writer's value, which depends on scheduling; the running
    /// maximum is the same whatever the interleaving, keeping snapshots
    /// deterministic.
    pub fn set_max(&self, v: u64) {
        self.cell.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        read(&self.cell)
    }
}

/// Default duration bucket bounds, in nanoseconds: powers of four from
/// 256 ns to ~17 s. Fourteen buckets cover everything from a single
/// datagram dissection to a full paper-scale stage.
pub const DURATION_BOUNDS_NS: &[u64] = &[
    1 << 8,
    1 << 10,
    1 << 12,
    1 << 14,
    1 << 16,
    1 << 18,
    1 << 20,
    1 << 22,
    1 << 24,
    1 << 26,
    1 << 28,
    1 << 30,
    1 << 32,
    1 << 34,
];

struct HistogramInner {
    /// Sorted, deduplicated upper bounds (inclusive).
    bounds: Vec<u64>,
    /// One cell per bound plus a final overflow cell.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl std::fmt::Debug for HistogramInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramInner")
            .field("bounds", &self.bounds)
            .field("count", &read(&self.count))
            .finish()
    }
}

/// A fixed-bucket histogram with integer quantile extraction.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::with_bounds(DURATION_BOUNDS_NS)
    }
}

impl Histogram {
    /// A histogram not registered anywhere, with the default duration
    /// buckets.
    pub fn detached() -> Histogram {
        Histogram::default()
    }

    /// Build a histogram over the given inclusive upper bounds. The bounds
    /// are sorted and deduplicated; an overflow bucket is always appended.
    pub fn with_bounds(bounds: &[u64]) -> Histogram {
        let mut bounds: Vec<u64> = bounds.to_vec();
        bounds.sort_unstable();
        bounds.dedup();
        let mut buckets = Vec::with_capacity(bounds.len() + 1);
        for _ in 0..=bounds.len() {
            buckets.push(AtomicU64::new(0));
        }
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds,
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Record one observation.
    pub fn observe(&self, value: u64) {
        let inner = &self.inner;
        let idx = inner
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(inner.bounds.len());
        if let Some(cell) = inner.buckets.get(idx) {
            cell.fetch_add(1, Ordering::Relaxed);
        }
        inner.count.fetch_add(1, Ordering::Relaxed);
        // The sum saturates instead of wrapping: a pathological duration
        // must not corrupt every earlier observation.
        let _ = inner
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_add(value))
            });
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        read(&self.inner.count)
    }

    /// Saturating sum of observations.
    pub fn sum(&self) -> u64 {
        read(&self.inner.sum)
    }

    /// An immutable, internally consistent view of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &self.inner;
        let counts: Vec<u64> = inner.buckets.iter().map(read).collect();
        let count = counts.iter().fold(0u64, |a, c| a.saturating_add(*c));
        let snap = HistogramSnapshot {
            bounds: inner.bounds.clone(),
            counts,
            count,
            sum: read(&inner.sum),
            p50: 0,
            p90: 0,
            p99: 0,
        };
        let p50 = snap.quantile_permille(500);
        let p90 = snap.quantile_permille(900);
        let p99 = snap.quantile_permille(990);
        HistogramSnapshot { p50, p90, p99, ..snap }
    }

    /// Convenience quantile over a fresh snapshot (permille: p50 = 500).
    pub fn quantile_permille(&self, permille: u64) -> u64 {
        self.snapshot().quantile_permille(permille)
    }
}

/// A point-in-time view of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds; `counts` has one extra overflow entry.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Total observations (sum of `counts`).
    pub count: u64,
    /// Saturating sum of observed values.
    pub sum: u64,
    /// Upper bound of the bucket holding the median observation.
    pub p50: u64,
    /// 90th-percentile bucket upper bound.
    pub p90: u64,
    /// 99th-percentile bucket upper bound.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// The upper bound of the bucket containing the `permille`-quantile
    /// observation (p50 = 500). Returns 0 for an empty histogram and
    /// `u64::MAX` when the quantile falls in the overflow bucket — the
    /// observation exceeded every configured bound. Monotone in
    /// `permille` by construction (the rank only grows).
    pub fn quantile_permille(&self, permille: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let permille = permille.min(1000);
        // ceil(count * permille / 1000), at least rank 1.
        let rank = self
            .count
            .saturating_mul(permille)
            .saturating_add(999)
            .checked_div(1000)
            .unwrap_or(0)
            .max(1);
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum = cum.saturating_add(*c);
            if cum >= rank {
                return self.bounds.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The value of one metric in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(u64),
    /// Full histogram state.
    Histogram(HistogramSnapshot),
}

/// A deterministic (name-sorted, integer-only) point-in-time view of every
/// registered metric. This is what both exporters serialize.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// `(name, value)` pairs in ascending name order.
    pub entries: Vec<(String, MetricValue)>,
}

impl Snapshot {
    /// Look up a metric by full name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Counter value by name, if the metric exists and is a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }
}

/// The shared metric registry. Cloning is cheap (`Arc`); all clones view
/// the same metrics.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<BTreeMap<String, Slot>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Slot>> {
        // A poisoned registry still holds valid atomics; recover the data
        // rather than propagating the panic into the collector.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Get or create the counter `name`. If `name` is already registered
    /// as a different kind, an unregistered handle is returned so the caller
    /// keeps working (the collision is a naming bug, not a crash).
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Slot::Counter(Counter::default()))
        {
            Slot::Counter(c) => c.clone(),
            _ => Counter::default(),
        }
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Slot::Gauge(Gauge::default()))
        {
            Slot::Gauge(g) => g.clone(),
            _ => Gauge::default(),
        }
    }

    /// Get or create the histogram `name`. The bounds only apply on first
    /// registration; later callers share the existing buckets.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Slot::Histogram(Histogram::with_bounds(bounds)))
        {
            Slot::Histogram(h) => h.clone(),
            _ => Histogram::detached(),
        }
    }

    /// Get or create a duration histogram with the default bounds.
    pub fn duration_histogram(&self, name: &str) -> Histogram {
        self.histogram(name, DURATION_BOUNDS_NS)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// A deterministic snapshot of every metric, sorted by name (the
    /// `BTreeMap` order). Values are integers only, so serializing a
    /// snapshot is byte-stable across runs when the underlying readings
    /// are equal.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.lock();
        let entries = map
            .iter()
            .map(|(name, slot)| {
                let value = match slot {
                    Slot::Counter(c) => MetricValue::Counter(c.get()),
                    Slot::Gauge(g) => MetricValue::Gauge(g.get()),
                    Slot::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect();
        Snapshot { entries }
    }
}

/// Split a metric name into its family and optional label block:
/// `core_stage_duration_ns{stage="census"}` → `("core_stage_duration_ns",
/// Some("stage=\"census\""))`.
pub fn split_name(name: &str) -> (&str, Option<&str>) {
    match name.split_once('{') {
        Some((family, rest)) => (family, Some(rest.trim_end_matches('}'))),
        None => (name, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("x_total");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("x_total").get(), 5);
        let g = r.gauge("g");
        g.set(9);
        g.set(3);
        assert_eq!(r.gauge("g").get(), 3);
    }

    #[test]
    fn kind_collision_returns_detached_not_panic() {
        let r = Registry::new();
        let c = r.counter("name");
        let g = r.gauge("name");
        g.set(77);
        assert_eq!(c.get(), 0);
        assert_eq!(r.snapshot().counter("name"), Some(0));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::with_bounds(&[10, 100, 1000]);
        for v in [1, 5, 10, 11, 99, 100, 500, 5000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.counts, vec![3, 3, 1, 1]);
        assert_eq!(s.count, 8);
        assert_eq!(s.sum, 1 + 5 + 10 + 11 + 99 + 100 + 500 + 5000);
        assert_eq!(s.quantile_permille(500), 100); // rank 4 → second bucket
        assert_eq!(s.p50, 100);
        assert_eq!(s.quantile_permille(1000), u64::MAX); // overflow bucket
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::with_bounds(&[10]);
        assert_eq!(h.snapshot().quantile_permille(990), 0);
    }

    #[test]
    fn histogram_sum_saturates() {
        let h = Histogram::with_bounds(&[10]);
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn unsorted_bounds_are_normalized() {
        let h = Histogram::with_bounds(&[100, 10, 100, 1]);
        assert_eq!(h.snapshot().bounds, vec![1, 10, 100]);
    }

    #[test]
    fn snapshot_is_name_sorted_and_stable() {
        let r = Registry::new();
        r.counter("b_total").inc();
        r.counter("a_total").add(2);
        r.duration_histogram("c_ns").observe(300);
        let s1 = r.snapshot();
        let s2 = r.snapshot();
        assert_eq!(s1, s2);
        let names: Vec<&str> = s1.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a_total", "b_total", "c_ns"]);
    }

    #[test]
    fn split_name_handles_labels() {
        assert_eq!(split_name("plain"), ("plain", None));
        assert_eq!(
            split_name("fam{stage=\"census\"}"),
            ("fam", Some("stage=\"census\""))
        );
    }
}
