//! Timing primitives: a monotonic nanosecond clock, per-operation sample
//! tables, and the fastest-by-segment estimator.
//!
//! On a shared two-core machine slow phases last 5–15 s and inflate medians
//! by 15 % or more while minima move by about 5 % (NOISE.md). Deterministic
//! work has a noise-free floor, so a metric's value is the sum over fixed
//! segments of each segment's fastest round: a slow phase must cover every
//! round of a segment to move it.

use std::collections::BTreeMap;
use std::time::Instant;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Run `f` and return its result with the nanoseconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t0 = now_ns();
    let out = f();
    (out, now_ns() - t0)
}

/// What a [`calibration_unit`] takes on this machine when it is quiet.
pub const CALIBRATION_NOMINAL_NS: u64 = 25_000_000;

/// One unit of fixed work — hash-table updates, small allocations, byte
/// scans: the pipeline's mix — timed. It never changes, so its fastest time
/// over a run says how fast the machine was during that run.
///
/// This machine's speed shifts by 10–25 % for minutes at a time (NOISE.md):
/// not only medians but the floor that fastest-by-segment finds moves with
/// it, for the pipeline and for this unit alike. Interleaving units with the
/// timed samples and reporting times at the speed where this unit's floor is
/// [`CALIBRATION_NOMINAL_NS`] takes most of that shift out of the comparison
/// of two runs. On a quiet machine the scale factor is about 1. The unit is
/// as long as a timed segment, so bursts of interference inflate both floors
/// alike.
pub fn calibration_unit() -> u64 {
    timed(|| {
        let mut table: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut seen = 0usize;
        for i in 0..900_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *table.entry(x % 65_536).or_default() += x & 0xFF;
            if i % 8 == 0 {
                let header = vec![(x & 0xFF) as u8; 128];
                seen += header.iter().filter(|b| **b == b'H').count();
                std::hint::black_box(&header);
            }
        }
        std::hint::black_box((table.len(), seen));
    })
    .1
}

/// Timed samples of named operations: `op → segment → one sample per round`.
/// An operation that is not cut into segments uses segment 0.
#[derive(Debug, Default, Clone)]
pub struct Timings {
    ops: BTreeMap<String, Vec<Vec<u64>>>,
}

/// Median, a high percentile and the sample count of one operation's
/// whole-operation times (segments of a round summed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Median of the per-round totals, ns.
    pub median_ns: f64,
    /// The highest percentile with at least ten samples beyond it (the
    /// maximum when there are fewer than twenty samples), ns.
    pub high_ns: f64,
    /// Which percentile `high_ns` is (100 = the maximum).
    pub high_pct: u32,
    /// Rounds sampled.
    pub n: usize,
}

impl Timings {
    /// Record one sample of `op`'s segment `seg`.
    pub fn record(&mut self, op: &str, seg: usize, ns: u64) {
        let segs = self.ops.entry(op.to_string()).or_default();
        if segs.len() <= seg {
            segs.resize_with(seg + 1, Vec::new);
        }
        segs[seg].push(ns);
    }

    /// Fastest-by-segment time of `op` in ns (0 if never recorded).
    pub fn fastest(&self, op: &str) -> u64 {
        self.ops.get(op).map_or(0, |segs| fastest_by_segment(segs))
    }

    /// The shortest single timed sample of `op` in ns.
    pub fn shortest_sample(&self, op: &str) -> u64 {
        self.ops
            .get(op)
            .and_then(|segs| segs.iter().flatten().copied().min())
            .unwrap_or(0)
    }

    /// Median / high percentile / count of `op`'s per-round totals.
    pub fn spread(&self, op: &str) -> Option<Spread> {
        let segs = self.ops.get(op)?;
        let rounds = segs.iter().map(Vec::len).min()?;
        let mut totals: Vec<u64> = (0..rounds)
            .map(|r| segs.iter().map(|s| s[r]).sum())
            .collect();
        if totals.is_empty() {
            return None;
        }
        totals.sort_unstable();
        let n = totals.len();
        // The highest percentile that still has ten samples beyond it.
        let (high_idx, high_pct) = if n >= 20 {
            let idx = n - 11;
            (idx, (100 * idx / n) as u32)
        } else {
            (n - 1, 100)
        };
        Some(Spread {
            median_ns: median(&totals.iter().map(|t| *t as f64).collect::<Vec<_>>()),
            high_ns: totals[high_idx] as f64,
            high_pct,
            n,
        })
    }

    /// Operation names, sorted.
    pub fn ops(&self) -> impl Iterator<Item = &str> {
        self.ops.keys().map(String::as_str)
    }

    /// Share of all samples that took more than 1.25× the fastest sample of
    /// their own (operation, segment): how noisy the machine was.
    pub fn slow_share(&self) -> f64 {
        let (mut slow, mut all) = (0u64, 0u64);
        for samples in self.ops.values().flatten() {
            let Some(&min) = samples.iter().min() else {
                continue;
            };
            all += samples.len() as u64;
            slow += samples
                .iter()
                .filter(|&&s| s as f64 > 1.25 * min as f64)
                .count() as u64;
        }
        if all == 0 {
            0.0
        } else {
            slow as f64 / all as f64
        }
    }
}

/// Sum over segments of each segment's fastest sample.
pub fn fastest_by_segment(segments: &[Vec<u64>]) -> u64 {
    segments
        .iter()
        .map(|s| s.iter().copied().min().unwrap_or(0))
        .sum()
}

/// Median of `values` (mean of the middle pair when their count is even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Distance between the first and third quartile as a share of the median,
/// with quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the rule the driver accepts a benchmark by). `None` under two values.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / median(&v))
}

/// On-CPU and run-queue-wait nanoseconds of the calling thread so far, from
/// `/proc/thread-self/schedstat`; `None` where the file is unavailable.
pub fn schedstat() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = text.split_whitespace().map(str::parse::<u64>);
    Some((fields.next()?.ok()?, fields.next()?.ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three segments of 10/20/30 units over eight rounds, with whole rounds
    /// slowed by 40 % (a slow phase of the machine) and jitter elsewhere.
    fn synthetic(slow_rounds: &[usize]) -> Timings {
        let mut t = Timings::default();
        for round in 0..8usize {
            for (seg, base) in [10_000u64, 20_000, 30_000].into_iter().enumerate() {
                let slow = if slow_rounds.contains(&round) {
                    base * 2 / 5
                } else {
                    0
                };
                // Jitter is never negative: nothing runs faster than its floor.
                let jitter = ((round * 7 + seg * 3) % 5) as u64 * 100;
                let floor_round = round == 3 + seg; // each segment's quiet round differs
                t.record(
                    "pass",
                    seg,
                    base + slow + if floor_round { 0 } else { jitter + 50 },
                );
            }
        }
        t
    }

    #[test]
    fn fastest_by_segment_ignores_injected_slow_rounds() {
        let quiet = synthetic(&[]);
        assert_eq!(quiet.fastest("pass"), 60_000);
        // Slow phases covering most rounds — but not each segment's quiet
        // round — leave the estimate where it was; the median moves.
        let noisy = synthetic(&[0, 1, 2, 6, 7]);
        assert_eq!(noisy.fastest("pass"), 60_000);
        let (q, n) = (quiet.spread("pass").unwrap(), noisy.spread("pass").unwrap());
        assert!(
            n.median_ns > q.median_ns * 1.2,
            "{} vs {}",
            n.median_ns,
            q.median_ns
        );
        assert!(noisy.slow_share() > 0.5 && quiet.slow_share() == 0.0);
    }

    #[test]
    fn fastest_by_segment_beats_the_fastest_whole_round() {
        // No single round is quiet in every segment, yet the floor is found.
        let t = synthetic(&[]);
        let best_round = (0..8)
            .map(|r| (0..3).map(|s| t.ops["pass"][s][r]).sum::<u64>())
            .min()
            .unwrap();
        assert!(t.fastest("pass") < best_round);
    }

    #[test]
    fn spread_reports_the_percentile_with_ten_samples_beyond() {
        let mut t = Timings::default();
        for i in 1..=100u64 {
            t.record("op", 0, i);
        }
        let s = t.spread("op").unwrap();
        assert_eq!((s.n, s.high_pct, s.high_ns), (100, 89, 90.0));
        assert_eq!(s.median_ns, 50.5);
        let mut few = Timings::default();
        for i in 1..=5u64 {
            few.record("op", 0, i);
        }
        let s = few.spread("op").unwrap();
        assert_eq!((s.high_pct, s.high_ns, s.median_ns), (100, 5.0, 3.0));
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert!((quartile_spread(&[3.0, 1.0, 2.0]).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert!((quartile_spread(&[10.0, 20.0]).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), None);
    }

    #[test]
    fn unknown_operations_read_zero() {
        let t = Timings::default();
        assert_eq!(t.fastest("nope"), 0);
        assert!(t.spread("nope").is_none());
    }
}
