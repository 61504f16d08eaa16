//! Longitudinal churn analysis over the 17 weekly snapshots (paper §4.1,
//! Figs. 4 and 5).
//!
//! Terminology (paper Fig. 4): in week *n*, a server IP is
//!
//! * **stable** if it was seen in *every* week 35..n (bottom/white),
//! * **recurrent** if it was seen in ≥ 1 but not all previous weeks (grey),
//! * **fresh** if week *n* is its first appearance (top/black).

use std::collections::HashMap;

use ixp_netmodel::{Region, Week};

use crate::analyzer::StudyReport;

/// One week's churn bar.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnBar {
    /// Total entities seen this week.
    pub total: usize,
    /// Seen in every week so far.
    pub stable: usize,
    /// Seen before, but not in every week.
    pub recurrent: usize,
    /// First appearance.
    pub fresh: usize,
}

impl ChurnBar {
    fn add(&mut self, class: ChurnClass) {
        self.total += 1;
        match class {
            ChurnClass::Stable => self.stable += 1,
            ChurnClass::Recurrent => self.recurrent += 1,
            ChurnClass::Fresh => self.fresh += 1,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChurnClass {
    Stable,
    Recurrent,
    Fresh,
}

/// Incremental churn tracker over an arbitrary entity key.
#[derive(Debug, Default)]
struct ChurnTracker {
    /// key -> number of weeks seen so far (before the current week).
    seen: HashMap<u64, u32>,
}

impl ChurnTracker {
    /// Classify the keys of week index `w` (0-based) and update state.
    fn week<I: Iterator<Item = u64>>(&mut self, w: u32, keys: I) -> ChurnBar {
        let mut bar = ChurnBar::default();
        let mut this_week: Vec<u64> = keys.collect();
        this_week.sort_unstable();
        this_week.dedup();
        for key in &this_week {
            let class = match self.seen.get(key) {
                None => ChurnClass::Fresh,
                Some(count) if *count == w => ChurnClass::Stable,
                Some(_) => ChurnClass::Recurrent,
            };
            bar.add(class);
        }
        for key in this_week {
            *self.seen.entry(key).or_insert(0) += 1;
        }
        bar
    }
}

/// Fig. 4a: weekly churn of server IPs.
#[derive(Debug, Clone)]
pub struct Fig4a {
    /// One bar per week 35–51.
    pub bars: Vec<ChurnBar>,
}

/// Fig. 4b: weekly churn of server IPs per region (DE, US, RU, CN, RoW).
#[derive(Debug, Clone)]
pub struct Fig4b {
    /// `bars[week][region]`.
    pub bars: Vec<[ChurnBar; 5]>,
}

/// Fig. 4c: weekly churn of ASes hosting servers.
#[derive(Debug, Clone)]
pub struct Fig4c {
    /// One bar per week.
    pub bars: Vec<ChurnBar>,
}

/// Fig. 5: weekly server-traffic make-up by region × pool.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Per week: share (percent of that week's server traffic) per region
    /// for the full pool, the recurrent pool, and the stable pool.
    pub weeks: Vec<Fig5Week>,
}

/// One week's three bars of Fig. 5.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fig5Week {
    /// All server traffic by region (sums to ≈ 100).
    pub all: [f64; 5],
    /// Recurrent-pool traffic by region (sums to the recurrent share).
    pub recurrent: [f64; 5],
    /// Stable-pool traffic by region (sums to the stable share).
    pub stable: [f64; 5],
}

fn region_slot(r: Region) -> usize {
    match r {
        Region::De => 0,
        Region::Us => 1,
        Region::Ru => 2,
        Region::Cn => 3,
        Region::RoW => 4,
    }
}

/// Compute Figs. 4a/4b/4c and Fig. 5 in one sweep over the study.
pub fn churn(study: &StudyReport) -> (Fig4a, Fig4b, Fig4c, Fig5) {
    let mut ip_tracker = ChurnTracker::default();
    let mut region_trackers: [ChurnTracker; 5] = Default::default();
    let mut as_tracker = ChurnTracker::default();

    let mut fig4a = Vec::new();
    let mut fig4b = Vec::new();
    let mut fig4c = Vec::new();
    let mut fig5 = Vec::new();

    // For Fig. 5 we need, per server IP, whether it is stable/recurrent in
    // the *current* week; re-derive from the same state the tracker holds.
    let mut ip_seen: HashMap<u64, u32> = HashMap::new();

    for (w, report) in study.weeks.iter().enumerate() {
        let w = w as u32;
        let census = &report.census;
        let geo = &report.snapshot.server_geo;

        // Fig. 4a.
        fig4a.push(ip_tracker.week(w, census.records.iter().map(|r| u64::from(u32::from(r.ip)))));

        // Fig. 4b (per region).
        let mut region_bars: [ChurnBar; 5] = Default::default();
        for (slot, tracker) in region_trackers.iter_mut().enumerate() {
            let keys = census.records.iter().zip(geo.iter()).filter_map(|(r, g)| {
                let g = (*g)?;
                (region_slot(g.region) == slot).then_some(u64::from(u32::from(r.ip)))
            });
            region_bars[slot] = tracker.week(w, keys);
        }
        fig4b.push(region_bars);

        // Fig. 4c (ASes with servers).
        fig4c.push(as_tracker.week(
            w,
            report
                .snapshot
                .as_server
                .iter()
                .enumerate()
                .filter(|(_, (ips, _))| *ips > 0)
                .map(|(i, _)| i as u64),
        ));

        // Fig. 5 traffic splits.
        let total_bytes: u64 = census.records.iter().map(|r| r.bytes).sum();
        let mut week5 = Fig5Week::default();
        for (r, g) in census.records.iter().zip(geo.iter()) {
            let g = match g {
                Some(g) => *g,
                None => continue,
            };
            let key = u64::from(u32::from(r.ip));
            let share = if total_bytes == 0 {
                0.0
            } else {
                100.0 * r.bytes as f64 / total_bytes as f64
            };
            let slot = region_slot(g.region);
            week5.all[slot] += share;
            match ip_seen.get(&key) {
                Some(count) if *count == w => week5.stable[slot] += share,
                Some(_) => week5.recurrent[slot] += share,
                None => {}
            }
        }
        fig5.push(week5);

        // Update the Fig. 5 state *after* classification.
        for r in &census.records {
            *ip_seen.entry(u64::from(u32::from(r.ip))).or_insert(0) += 1;
        }
    }

    (Fig4a { bars: fig4a }, Fig4b { bars: fig4b }, Fig4c { bars: fig4c }, Fig5 { weeks: fig5 })
}

/// Summary numbers the paper quotes for §4.1.
#[derive(Debug, Clone, Copy)]
pub struct ChurnSummary {
    /// Week-51 stable share of server IPs (paper ≈ 30 %).
    pub stable_ip_share: f64,
    /// Week-51 recurrent share (paper ≈ 60 %).
    pub recurrent_ip_share: f64,
    /// Week-51 fresh share (paper ≈ 10 %).
    pub fresh_ip_share: f64,
    /// Week-51 stable share of ASes (paper ≈ 70 %).
    pub stable_as_share: f64,
    /// Minimum over weeks of the stable pool's server-traffic share
    /// (paper: consistently > 60 %).
    pub min_stable_traffic_share: f64,
}

/// Derive the summary.
pub fn summary(fig4a: &Fig4a, fig4c: &Fig4c, fig5: &Fig5) -> ChurnSummary {
    // A study with no weeks summarises to zero shares (`pct` guards the
    // zero total).
    let last_ip = fig4a.bars.last().copied().unwrap_or_default();
    let last_as = fig4c.bars.last().copied().unwrap_or_default();
    let pct = |part: usize, total: usize| {
        if total == 0 {
            0.0
        } else {
            100.0 * part as f64 / total as f64
        }
    };
    // Skip week 35 (everything is fresh) when scanning traffic shares.
    let min_stable_traffic_share = fig5
        .weeks
        .iter()
        .skip(4)
        .map(|w| w.stable.iter().sum::<f64>())
        .fold(f64::INFINITY, f64::min);
    ChurnSummary {
        stable_ip_share: pct(last_ip.stable, last_ip.total),
        recurrent_ip_share: pct(last_ip.recurrent, last_ip.total),
        fresh_ip_share: pct(last_ip.fresh, last_ip.total),
        stable_as_share: pct(last_as.stable, last_as.total),
        min_stable_traffic_share,
    }
}

/// The weeks covered, for rendering.
pub fn week_labels() -> Vec<u8> {
    Week::all().map(|w| w.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    fn study() -> &'static StudyReport {
        testutil::study()
    }

    #[test]
    fn churn_bars_are_internally_consistent() {
        let study = study();
        let (a, b, c, five) = churn(study);
        assert_eq!(a.bars.len(), 17);
        assert_eq!(b.bars.len(), 17);
        assert_eq!(c.bars.len(), 17);
        assert_eq!(five.weeks.len(), 17);
        for bar in &a.bars {
            assert_eq!(bar.total, bar.stable + bar.recurrent + bar.fresh);
        }
        // Week 35: everything is fresh by definition.
        assert_eq!(a.bars[0].fresh, a.bars[0].total);
        assert_eq!(a.bars[0].stable, 0);
        // Later weeks have a stable pool.
        assert!(a.bars[16].stable > 0, "no stable pool by week 51");
        // Fresh share decreases over time (coarsely).
        let early_fresh = a.bars[1].fresh as f64 / a.bars[1].total.max(1) as f64;
        let late_fresh = a.bars[16].fresh as f64 / a.bars[16].total.max(1) as f64;
        assert!(late_fresh < early_fresh, "{late_fresh} !< {early_fresh}");
    }

    #[test]
    fn region_bars_sum_to_total() {
        let study = study();
        let (a, b, _, _) = churn(study);
        for (bar, regions) in a.bars.iter().zip(b.bars.iter()) {
            let region_total: usize = regions.iter().map(|r| r.total).sum();
            // Regions only cover geo-resolvable servers; allow tiny gaps.
            assert!(region_total <= bar.total);
            assert!(region_total * 10 >= bar.total * 9, "region gap too big");
            let region_stable: usize = regions.iter().map(|r| r.stable).sum();
            assert!(region_stable <= bar.stable);
        }
    }

    #[test]
    fn fig5_shares_are_shares() {
        let study = study();
        let (_, _, _, five) = churn(study);
        for week in &five.weeks {
            let all: f64 = week.all.iter().sum();
            assert!(all <= 100.0 + 1e-6);
            let stable: f64 = week.stable.iter().sum();
            let recurrent: f64 = week.recurrent.iter().sum();
            assert!(stable + recurrent <= all + 1e-6);
        }
        // By late weeks the stable pool carries the majority of traffic.
        let late = &five.weeks[16];
        let stable: f64 = late.stable.iter().sum();
        assert!(stable > 30.0, "stable pool traffic share {stable:.1}%");
    }

    #[test]
    fn as_churn_is_stabler_than_ip_churn() {
        let study = study();
        let (a, _, c, _) = churn(study);
        let ip_stable = a.bars[16].stable as f64 / a.bars[16].total.max(1) as f64;
        let as_stable = c.bars[16].stable as f64 / c.bars[16].total.max(1) as f64;
        assert!(
            as_stable > ip_stable,
            "AS stability {as_stable:.2} should exceed IP stability {ip_stable:.2}"
        );
    }

    #[test]
    fn summary_reports_consistent_shares() {
        let study = study();
        let (a, _, c, five) = churn(study);
        let s = summary(&a, &c, &five);
        let total = s.stable_ip_share + s.recurrent_ip_share + s.fresh_ip_share;
        assert!((total - 100.0).abs() < 1e-6);
        assert!(s.stable_as_share >= s.stable_ip_share);
    }

    #[test]
    fn summary_of_a_study_with_no_weeks_is_zero_shares() {
        let s = summary(&Fig4a { bars: vec![] }, &Fig4c { bars: vec![] }, &Fig5 { weeks: vec![] });
        assert!(s.stable_ip_share + s.recurrent_ip_share + s.fresh_ip_share + s.stable_as_share < 1e-9);
    }
}
