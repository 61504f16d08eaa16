//! The registry as a *published view* of a component's own counters.
//!
//! The ingest-path components (collector, week scan, supervisor, transport
//! intake) count in plain integer fields: those are what a checkpoint
//! carries and a report prints, so they are the ledger. Each component
//! states its metric families once, as a static table of [`Series`] rows
//! over itself, and calls [`Published::publish`] at its sync points; nothing
//! on the per-datagram path touches a registry cell.
//!
//! A counter row adds `value − last published` and remembers the new
//! watermark inside the [`Published`], so a freshly bound instance (zero
//! watermarks) replays the component's whole history — binding after a
//! restore — and several instances bound to one registry sum — the parallel
//! study. An unbound instance (the default) holds no rows and publishes
//! nowhere.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::metrics::{family_total, Counter, Gauge, Registry};

/// How a [`Series`] value lands in its registry cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Monotonic counter: each publish adds the growth since the last one.
    Counter,
    /// High-water gauge (`Gauge::set_max`): never falls, and reads the
    /// same whatever order the instances sharing it publish in.
    HighWater,
    /// Level gauge ([`Gauge::set`]): follows the value both ways.
    Level,
}

/// One row of a component's series table: a metric name (family plus at
/// most one label block), its kind, and how to read its value off `T`.
pub struct Series<T> {
    /// Full registry name, e.g. `sflow_decode_errors_total{kind="truncated"}`.
    pub name: &'static str,
    /// How the value is published.
    pub kind: SeriesKind,
    /// The value, read off the component's plain state.
    pub read: fn(&T) -> u64,
}

impl<T> Series<T> {
    /// A [`SeriesKind::Counter`] row.
    pub const fn counter(name: &'static str, read: fn(&T) -> u64) -> Series<T> {
        Series { name, kind: SeriesKind::Counter, read }
    }

    /// A [`SeriesKind::HighWater`] row.
    pub const fn high_water(name: &'static str, read: fn(&T) -> u64) -> Series<T> {
        Series { name, kind: SeriesKind::HighWater, read }
    }

    /// A [`SeriesKind::Level`] row.
    pub const fn level(name: &'static str, read: fn(&T) -> u64) -> Series<T> {
        Series { name, kind: SeriesKind::Level, read }
    }
}

/// `table`'s rows of `family` read off `source` and added up as the auditor
/// adds a snapshot's: a component's reader for a [`LEDGER`](crate::LEDGER)
/// row. `None` when the table has no such row or the sum overflows `u64`.
pub fn family_sum<T>(table: &[Series<T>], source: &T, family: &str) -> Option<u64> {
    family_total(family, table.iter().map(|s| (s.name, (s.read)(source))))
}

enum Cell {
    Counter { cell: Counter, published: AtomicU64 },
    HighWater(Gauge),
    Level(Gauge),
}

struct Row<T> {
    read: fn(&T) -> u64,
    cell: Cell,
}

/// A series table bound to a registry. See the module docs.
pub struct Published<T> {
    rows: Vec<Row<T>>,
}

impl<T> std::fmt::Debug for Published<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Published").field("rows", &self.rows.len()).finish()
    }
}

impl<T> Default for Published<T> {
    /// Unbound: [`Published::publish`] does nothing.
    fn default() -> Published<T> {
        Published { rows: Vec::new() }
    }
}

impl<T> Published<T> {
    /// Register every row of `table` in `registry`, with zero watermarks:
    /// the first publish carries the source's whole history.
    pub fn bind(registry: &Registry, table: &[Series<T>]) -> Published<T> {
        let rows = table
            .iter()
            .map(|s| {
                let cell = match s.kind {
                    SeriesKind::Counter => Cell::Counter {
                        cell: registry.counter(s.name),
                        published: AtomicU64::new(0),
                    },
                    SeriesKind::HighWater => Cell::HighWater(registry.gauge(s.name)),
                    SeriesKind::Level => Cell::Level(registry.gauge(s.name)),
                };
                Row { read: s.read, cell }
            })
            .collect();
        Published { rows }
    }

    /// Bring the registry up to `source`. Works through `&self` so that
    /// sealing a checkpoint (`&self` everywhere) can be a sync point; the
    /// watermark is a statistic that publishes no other data, hence
    /// `Relaxed`.
    pub fn publish(&self, source: &T) {
        for row in &self.rows {
            let value = (row.read)(source);
            match &row.cell {
                Cell::Counter { cell, published } => {
                    let before = published.fetch_max(value, Ordering::Relaxed);
                    // Most series stand still between two sync points; leave
                    // their (possibly shared) cells alone.
                    if value > before {
                        cell.add(value - before);
                    }
                }
                Cell::HighWater(gauge) => gauge.set_max(value),
                Cell::Level(gauge) => gauge.set(value),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricValue;

    #[derive(Default)]
    struct Ledger {
        seen: u64,
        peak: u64,
        queued: u64,
    }

    const TABLE: &[Series<Ledger>] = &[
        Series::counter("t_seen_total", |l| l.seen),
        Series::high_water("t_peak", |l| l.peak),
        Series::level("t_queued", |l| l.queued),
    ];

    fn read(registry: &Registry) -> (u64, u64, u64) {
        let snap = registry.snapshot();
        let gauge = |name: &str| match snap.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            other => panic!("{name}: {other:?}"),
        };
        (snap.counter("t_seen_total").unwrap(), gauge("t_peak"), gauge("t_queued"))
    }

    #[test]
    fn instances_sharing_a_registry_sum_in_either_order() {
        let a = Ledger { seen: 5, peak: 9, queued: 0 };
        let b = Ledger { seen: 7, peak: 4, queued: 0 };
        let totals = |first: &Ledger, second: &Ledger| {
            let registry = Registry::new();
            let (p, q) = (Published::bind(&registry, TABLE), Published::bind(&registry, TABLE));
            p.publish(first);
            q.publish(second);
            read(&registry)
        };
        assert_eq!(totals(&a, &b), (12, 9, 0));
        assert_eq!(totals(&b, &a), (12, 9, 0));
    }

    #[test]
    fn republishing_unchanged_input_moves_nothing_and_growth_adds_the_difference() {
        let registry = Registry::new();
        let p = Published::bind(&registry, TABLE);
        let mut l = Ledger { seen: 3, peak: 2, queued: 1 };
        p.publish(&l);
        p.publish(&l);
        assert_eq!(read(&registry), (3, 2, 1));
        l.seen = 10;
        p.publish(&l);
        assert_eq!(read(&registry), (10, 2, 1));
    }

    #[test]
    fn a_fresh_binding_replays_the_whole_history() {
        let l = Ledger { seen: 41, peak: 6, queued: 2 };
        let live = Registry::new();
        let p = Published::bind(&live, TABLE);
        p.publish(&Ledger { seen: 20, peak: 6, queued: 5 });
        p.publish(&l);
        // The same ledger, bound late (after a restore) to a new registry.
        let late = Registry::new();
        Published::bind(&late, TABLE).publish(&l);
        assert_eq!(read(&live), read(&late));
        assert_eq!(read(&late), (41, 6, 2));
    }

    #[test]
    fn high_water_never_falls_and_level_follows() {
        let registry = Registry::new();
        let p = Published::bind(&registry, TABLE);
        p.publish(&Ledger { seen: 1, peak: 8, queued: 8 });
        p.publish(&Ledger { seen: 1, peak: 3, queued: 3 });
        assert_eq!(read(&registry), (1, 8, 3));
    }

    #[test]
    fn unbound_touches_no_registry() {
        let registry = Registry::new();
        Published::default().publish(&Ledger { seen: 9, peak: 9, queued: 9 });
        assert!(registry.is_empty());
        // Binding alone registers the families at zero.
        let _bound = Published::bind(&registry, TABLE);
        assert_eq!(read(&registry), (0, 0, 0));
    }
}
