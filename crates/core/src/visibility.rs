//! Visibility analyses: Table 1 / Table 2 / Table 3, Fig. 2 (per-server
//! rank plot), and Fig. 3 (per-country IP shares) — all computed from a
//! weekly snapshot.

use ixp_netmodel::InternetModel;

use crate::analyzer::WeeklyReport;
use crate::snapshot::WeeklySnapshot;

/// Table 1: the summary statistics block.
#[derive(Debug, Clone, Copy)]
pub struct Table1 {
    /// Peering view (IPs, prefixes, ASes, countries).
    pub peering: crate::snapshot::ViewStats,
    /// Server view.
    pub server: crate::snapshot::ViewStats,
}

/// Produce Table 1 from a snapshot.
pub fn table1(s: &WeeklySnapshot) -> Table1 {
    Table1 { peering: s.peering, server: s.server }
}

/// One ranked entry of Table 2.
#[derive(Debug, Clone)]
pub struct RankedEntry {
    /// Country code or network name.
    pub label: String,
    /// The metric value (IP count or bytes).
    pub value: u64,
    /// Share of the view's total, in percent.
    pub share: f64,
}

/// Table 2: four top-10 country columns + four top-10 network columns.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Countries by unique IPs (peering).
    pub countries_by_ips: Vec<RankedEntry>,
    /// Countries by unique server IPs.
    pub countries_by_server_ips: Vec<RankedEntry>,
    /// Countries by peering bytes.
    pub countries_by_traffic: Vec<RankedEntry>,
    /// Countries by server bytes.
    pub countries_by_server_traffic: Vec<RankedEntry>,
    /// Networks by unique IPs.
    pub networks_by_ips: Vec<RankedEntry>,
    /// Networks by unique server IPs.
    pub networks_by_server_ips: Vec<RankedEntry>,
    /// Networks by peering bytes.
    pub networks_by_traffic: Vec<RankedEntry>,
    /// Networks by server bytes.
    pub networks_by_server_traffic: Vec<RankedEntry>,
}

/// The `n` largest non-zero `values`, ranked by value descending and label
/// ascending among equals; `label(i)` names the `i`-th value and is asked
/// for non-zero rows only. Shares are of the sum of all values.
fn top_n<'a>(
    values: impl Iterator<Item = u64>,
    label: impl Fn(usize) -> &'a str,
    n: usize,
) -> Vec<RankedEntry> {
    let mut rows: Vec<(&str, u64)> =
        values.enumerate().filter(|(_, v)| *v > 0).map(|(i, v)| (label(i), v)).collect();
    let total: u64 = rows.iter().map(|(_, v)| v).sum();
    let by_rank = |a: &(&str, u64), b: &(&str, u64)| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0));
    if rows.len() > n {
        rows.select_nth_unstable_by(n, by_rank);
        rows.truncate(n);
    }
    rows.sort_unstable_by(by_rank);
    rows.into_iter()
        .map(|(label, value)| RankedEntry {
            label: label.to_string(),
            value,
            share: if total == 0 { 0.0 } else { 100.0 * value as f64 / total as f64 },
        })
        .collect()
}

/// Produce Table 2 (top-10s) from a snapshot plus the public directories.
pub fn table2(s: &WeeklySnapshot, model: &InternetModel, n: usize) -> Table2 {
    let country = |view: &[(u64, u64)], pick_bytes: bool| {
        top_n(
            view.iter().map(|(ips, bytes)| if pick_bytes { *bytes } else { *ips }),
            |i| model.countries.code(ixp_netmodel::CountryId(i as u16)),
            n,
        )
    };
    let network = |view: &[(u32, u64)], pick_bytes: bool| {
        top_n(
            view.iter().map(|(ips, bytes)| if pick_bytes { *bytes } else { u64::from(*ips) }),
            |i| model.registry.by_index(i as u32).name.as_str(),
            n,
        )
    };
    Table2 {
        countries_by_ips: country(&s.country_peering, false),
        countries_by_server_ips: country(&s.country_server, false),
        countries_by_traffic: country(&s.country_peering, true),
        countries_by_server_traffic: country(&s.country_server, true),
        networks_by_ips: network(&s.as_peering, false),
        networks_by_server_ips: network(&s.as_server, false),
        networks_by_traffic: network(&s.as_peering, true),
        networks_by_server_traffic: network(&s.as_server, true),
    }
}

/// Table 3: percentage splits over A(L)/A(M)/A(G) for both views.
#[derive(Debug, Clone, Copy)]
pub struct Table3 {
    /// Peering view rows: IPs, prefixes, ASes, traffic (percent).
    pub peering: [[f64; 3]; 4],
    /// Server view rows.
    pub server: [[f64; 3]; 4],
}

/// Produce Table 3.
pub fn table3(s: &WeeklySnapshot) -> Table3 {
    let rows = |l: &crate::snapshot::LocalitySplit| {
        [l.shares(|x| x.ips), l.shares(|x| x.prefixes), l.shares(|x| x.ases), l.shares(|x| x.bytes)]
    };
    Table3 { peering: rows(&s.peering_locality), server: rows(&s.server_locality) }
}

/// Fig. 2: per-server traffic shares, rank-ordered (descending).
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// Share of server traffic per server IP, sorted descending (percent).
    pub shares: Vec<f64>,
    /// Combined share of the top 34 server IPs (paper: > 6 %).
    pub top34_share: f64,
    /// Number of server IPs individually above 0.5 %.
    pub above_half_percent: usize,
}

/// Produce the Fig. 2 series from a weekly report.
pub fn fig2(report: &WeeklyReport) -> Fig2 {
    let total: u64 = report.census.records.iter().map(|r| r.bytes).sum();
    let mut shares: Vec<f64> = report
        .census
        .records
        .iter()
        .map(|r| if total == 0 { 0.0 } else { 100.0 * r.bytes as f64 / total as f64 })
        .collect();
    shares.sort_by(|a, b| b.total_cmp(a));
    let top34_share = shares.iter().take(34).sum();
    let above_half_percent = shares.iter().take_while(|s| **s > 0.5).count();
    Fig2 { shares, top34_share, above_half_percent }
}

/// Fig. 3: the choropleth data — share of seen IPs per country, bucketed
/// like the paper's legend.
#[derive(Debug, Clone)]
pub(crate) struct Fig3 {
    /// (country code, percent of peering IPs), descending, non-zero only.
    pub shares: Vec<(String, f64)>,
    /// Countries never seen.
    pub unseen: Vec<String>,
}

/// The paper's legend buckets for Fig. 3.
pub(crate) fn fig3_bucket(share: f64) -> &'static str {
    match share {
        s if s > 5.0 => "more than 5",
        s if s > 2.0 => "2 to 5",
        s if s > 1.0 => "1 to 2",
        s if s > 0.1 => "0.1 to 1",
        s if s > 0.0 => "> 0 to 0.1",
        _ => "unseen",
    }
}

/// Produce Fig. 3 data.
pub(crate) fn fig3(s: &WeeklySnapshot, model: &InternetModel) -> Fig3 {
    let total: u64 = s.country_peering.iter().map(|(ips, _)| ips).sum();
    let mut shares = Vec::new();
    let mut unseen = Vec::new();
    for (i, (ips, _)) in s.country_peering.iter().enumerate() {
        let code = model.countries.code(ixp_netmodel::CountryId(i as u16)).to_string();
        if *ips == 0 {
            unseen.push(code);
        } else {
            shares.push((code, 100.0 * *ips as f64 / total as f64));
        }
    }
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    Fig3 { shares, unseen }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    fn report() -> (&'static InternetModel, &'static WeeklyReport) {
        (testutil::model(), testutil::reference())
    }

    /// `top_n` as it stood when it cloned every label and sorted all rows.
    /// Frozen; compared column by column.
    fn top_n_reference(values: impl Iterator<Item = (String, u64)>, n: usize) -> Vec<RankedEntry> {
        let mut all: Vec<(String, u64)> = values.filter(|(_, v)| *v > 0).collect();
        let total: u64 = all.iter().map(|(_, v)| v).sum();
        all.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        all.truncate(n);
        all.into_iter()
            .map(|(label, value)| RankedEntry {
                label,
                value,
                share: if total == 0 { 0.0 } else { 100.0 * value as f64 / total as f64 },
            })
            .collect()
    }

    /// `table2` over [`top_n_reference`].
    fn table2_reference(s: &WeeklySnapshot, model: &InternetModel, n: usize) -> Table2 {
        let country = |view: &Vec<(u64, u64)>, pick_bytes: bool| {
            top_n_reference(
                view.iter().enumerate().map(|(i, (ips, bytes))| {
                    (
                        model.countries.code(ixp_netmodel::CountryId(i as u16)).to_string(),
                        if pick_bytes { *bytes } else { *ips },
                    )
                }),
                n,
            )
        };
        let network = |view: &Vec<(u32, u64)>, pick_bytes: bool| {
            top_n_reference(
                view.iter().enumerate().map(|(i, (ips, bytes))| {
                    (
                        model.registry.by_index(i as u32).name.clone(),
                        if pick_bytes { *bytes } else { u64::from(*ips) },
                    )
                }),
                n,
            )
        };
        Table2 {
            countries_by_ips: country(&s.country_peering, false),
            countries_by_server_ips: country(&s.country_server, false),
            countries_by_traffic: country(&s.country_peering, true),
            countries_by_server_traffic: country(&s.country_server, true),
            networks_by_ips: network(&s.as_peering, false),
            networks_by_server_ips: network(&s.as_server, false),
            networks_by_traffic: network(&s.as_peering, true),
            networks_by_server_traffic: network(&s.as_server, true),
        }
    }

    #[test]
    fn table2_matches_the_frozen_reference_on_clean_and_faulty_weeks() {
        let model = testutil::model();
        for (scan, census) in testutil::scanned_weeks() {
            let snapshot = WeeklySnapshot::build(scan, census, model);
            // 10 is the paper's cut; 1 and 1000 put it at the top and past the end.
            for n in [0, 1, 10, 1000] {
                let new = table2(&snapshot, model, n);
                assert!(n == 0 || !new.networks_by_server_traffic.is_empty());
                testutil::assert_same_debug(&new, &table2_reference(&snapshot, model, n));
            }
        }
    }

    #[test]
    fn ties_across_the_cut_are_broken_by_label() {
        // Four rows tie on 7 around a cut at three; two zero rows must be
        // neither ranked nor named.
        let rows = [
            ("delta", 7),
            ("", 0),
            ("alpha", 9),
            ("charlie", 7),
            ("echo", 7),
            ("", 0),
            ("bravo", 7),
            ("foxtrot", 1),
        ];
        let label = |i: usize| {
            assert!(rows[i].1 > 0, "asked for the label of zero row {i}");
            rows[i].0
        };
        let ranked = top_n(rows.iter().map(|r| r.1), label, 3);
        let got: Vec<(&str, u64)> = ranked.iter().map(|e| (e.label.as_str(), e.value)).collect();
        assert_eq!(got, [("alpha", 9), ("bravo", 7), ("charlie", 7)]);

        // Shares are of all 38, not of the kept rows; every cut agrees
        // with the reference, shares included.
        assert!((ranked[0].share - 100.0 * 9.0 / 38.0).abs() < 1e-12);
        let pairs = rows.iter().map(|r| (r.0.to_string(), r.1));
        for n in 0..=rows.len() {
            let new = top_n(rows.iter().map(|r| r.1), label, n);
            testutil::assert_same_debug(&new, &top_n_reference(pairs.clone(), n));
        }
    }

    #[test]
    fn table1_views_are_consistent() {
        let (_, report) = report();
        let t1 = table1(&report.snapshot);
        assert!(t1.peering.ips >= t1.server.ips);
        assert!(t1.peering.prefixes >= t1.server.prefixes);
        assert!(t1.peering.ases >= t1.server.ases);
        assert!(t1.peering.countries >= t1.server.countries);
        assert!(t1.server.ips > 0);
    }

    #[test]
    fn table2_is_sorted_and_bounded() {
        let (model, report) = report();
        let t2 = table2(&report.snapshot, model, 10);
        for col in [
            &t2.countries_by_ips,
            &t2.countries_by_traffic,
            &t2.networks_by_ips,
            &t2.networks_by_server_traffic,
        ] {
            assert!(col.len() <= 10);
            assert!(!col.is_empty());
            for pair in col.windows(2) {
                assert!(pair[0].value >= pair[1].value);
            }
            let total_share: f64 = col.iter().map(|e| e.share).sum();
            assert!(total_share <= 100.0 + 1e-9);
        }
    }

    #[test]
    fn table3_rows_sum_to_100() {
        let (_, report) = report();
        let t3 = table3(&report.snapshot);
        for row in t3.peering.iter().chain(t3.server.iter()) {
            let sum: f64 = row.iter().sum();
            assert!((sum - 100.0).abs() < 1e-6, "row sums to {sum}");
        }
    }

    #[test]
    fn fig2_is_a_descending_distribution() {
        let (_, report) = report();
        let f = fig2(report);
        assert!(!f.shares.is_empty());
        for pair in f.shares.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
        let sum: f64 = f.shares.iter().sum();
        assert!((sum - 100.0).abs() < 1e-6);
        assert!(f.top34_share > 0.0);
    }

    #[test]
    fn fig3_covers_many_countries() {
        let (model, report) = report();
        let f = fig3(&report.snapshot, model);
        assert!(f.shares.len() > 20, "only {} countries seen", f.shares.len());
        let total: f64 = f.shares.iter().map(|(_, s)| s).sum();
        assert!((total - 100.0).abs() < 1e-6);
        assert_eq!(fig3_bucket(7.0), "more than 5");
        assert_eq!(fig3_bucket(0.05), "> 0 to 0.1");
    }
}
