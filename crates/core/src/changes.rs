//! Change detection across weekly snapshots (paper §4.2): the HTTPS drift,
//! the Amazon-EC2/Netflix expansion, the Hurricane-Sandy outage, and
//! reseller growth.

use ixp_netmodel::{MemberId, Week};

use crate::analyzer::StudyReport;

/// One week's HTTPS adoption data point.
#[derive(Debug, Clone, Copy)]
pub struct HttpsPoint {
    /// The week.
    pub week: Week,
    /// HTTPS servers as a share of all identified servers (percent).
    pub server_share: f64,
    /// HTTPS-server traffic as a share of peering traffic (percent).
    pub traffic_share: f64,
}

/// §4.2 HTTPS drift: both shares per week plus a trend verdict.
#[derive(Debug, Clone)]
pub struct HttpsTrend {
    /// Weekly points.
    pub points: Vec<HttpsPoint>,
    /// Least-squares slope of the server share (percentage points/week).
    pub server_slope: f64,
    /// Least-squares slope of the traffic share.
    pub traffic_slope: f64,
}

/// Compute the HTTPS trend.
pub fn https_trend(study: &StudyReport) -> HttpsTrend {
    let points: Vec<HttpsPoint> = study
        .weeks
        .iter()
        .map(|r| {
            let total = r.census.len().max(1);
            let peering = r.snapshot.filter.peering().bytes.max(1);
            HttpsPoint {
                week: r.snapshot.week,
                server_share: 100.0 * r.snapshot.https.confirmed as f64 / total as f64,
                traffic_share: (100.0 * r.snapshot.https.bytes as f64 / peering as f64).min(100.0),
            }
        })
        .collect();
    let slope = |ys: Vec<f64>| -> f64 {
        let n = ys.len() as f64;
        let mean_x = (n - 1.0) / 2.0;
        let mean_y: f64 = ys.iter().sum::<f64>() / n;
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, y) in ys.iter().enumerate() {
            let dx = i as f64 - mean_x;
            num += dx * (y - mean_y);
            den += dx * dx;
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    };
    HttpsTrend {
        server_slope: slope(points.iter().map(|p| p.server_share).collect()),
        traffic_slope: slope(points.iter().map(|p| p.traffic_share).collect()),
        points,
    }
}

/// Weekly counts of identified servers inside one published range label.
#[derive(Debug, Clone)]
pub struct RangeSeries {
    /// The published range label (e.g. `eu-ireland`).
    pub label: String,
    /// (week, identified servers, bytes) per week.
    pub points: Vec<(Week, usize, u64)>,
}

/// Track a published range label across the study (EC2/StormCloud).
pub fn range_series(study: &StudyReport, label: &str) -> RangeSeries {
    let points = study
        .weeks
        .iter()
        .map(|r| {
            let (count, bytes) = r.snapshot.range_tracking.get(label).copied().unwrap_or((0, 0));
            (r.snapshot.week, count, bytes)
        })
        .collect();
    RangeSeries { label: label.to_string(), points }
}

/// The §4.2 EC2 verdict: did the Ireland location ramp up at the end of the
/// study?
#[derive(Debug, Clone, Copy)]
pub struct Ec2Verdict {
    /// Mean servers in weeks 45–48.
    pub before: f64,
    /// Mean servers in weeks 49–51.
    pub after: f64,
    /// Growth factor.
    pub growth: f64,
}

/// Evaluate the EC2-Ireland ramp.
pub fn ec2_verdict(series: &RangeSeries) -> Ec2Verdict {
    let count_at = |week: u8| -> f64 {
        series.points.iter().find(|(w, ..)| w.0 == week).map(|(_, c, _)| *c as f64).unwrap_or(0.0)
    };
    let before = (45..=48).map(count_at).sum::<f64>() / 4.0;
    let after = (49..=51).map(count_at).sum::<f64>() / 3.0;
    Ec2Verdict { before, after, growth: if before == 0.0 { f64::INFINITY } else { after / before } }
}

/// The §4.2 Hurricane-Sandy verdict on a US-East range label.
#[derive(Debug, Clone, Copy)]
pub struct OutageVerdict {
    /// Servers in week 43.
    pub week43: usize,
    /// Servers in week 44 (the hurricane week).
    pub week44: usize,
    /// Servers in week 45.
    pub week45: usize,
    /// Bytes in week 44.
    pub week44_bytes: u64,
}

/// Evaluate the outage signature.
pub fn outage_verdict(series: &RangeSeries) -> OutageVerdict {
    let get = |week: u8| {
        series.points.iter().find(|(w, ..)| w.0 == week).map(|(_, c, b)| (*c, *b)).unwrap_or((0, 0))
    };
    let (week43, _) = get(43);
    let (week44, week44_bytes) = get(44);
    let (week45, _) = get(45);
    OutageVerdict { week43, week44, week45, week44_bytes }
}

/// Weekly identified-server counts behind each reseller member.
#[derive(Debug, Clone)]
pub struct ResellerSeries {
    /// The reseller's member id.
    pub member: MemberId,
    /// Count per week.
    pub counts: Vec<usize>,
    /// Growth factor from the first to the last third of the study.
    pub growth: f64,
}

/// Track all resellers.
pub fn reseller_series(study: &StudyReport) -> Vec<ResellerSeries> {
    let Some(first) = study.weeks.first() else {
        return Vec::new();
    };
    first
        .snapshot
        .reseller_servers
        .iter()
        .map(|(member, _)| {
            let counts: Vec<usize> = study
                .weeks
                .iter()
                .map(|r| {
                    r.snapshot
                        .reseller_servers
                        .iter()
                        .find(|(m, _)| m == member)
                        .map(|(_, c)| *c)
                        .unwrap_or(0)
                })
                .collect();
            // Five weeks a side, or all of a shorter study.
            let k = counts.len().min(5);
            let head = counts.iter().take(k).sum::<usize>() as f64 / k as f64;
            let tail = counts.iter().rev().take(k).sum::<usize>() as f64 / k as f64;
            ResellerSeries {
                member: *member,
                growth: if head == 0.0 {
                    if tail == 0.0 {
                        1.0 // never any customers: no growth either way
                    } else {
                        f64::INFINITY // appeared from nothing
                    }
                } else {
                    tail / head
                },
                counts,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    fn study() -> &'static StudyReport {
        testutil::study()
    }

    #[test]
    fn https_share_drifts_upward() {
        let study = study();
        let trend = https_trend(study);
        assert_eq!(trend.points.len(), 17);
        assert!(trend.traffic_slope > 0.0, "traffic slope {:.4} not positive", trend.traffic_slope);
        for p in &trend.points {
            assert!(p.server_share >= 0.0 && p.server_share <= 100.0);
        }
    }

    #[test]
    fn ec2_ireland_ramps() {
        let study = study();
        let series = range_series(study, "eu-ireland");
        assert!(series.points.iter().any(|(_, c, _)| *c > 0), "eu-ireland never seen");
        let verdict = ec2_verdict(&series);
        assert!(
            verdict.after > verdict.before,
            "no ramp: before {:.1}, after {:.1}",
            verdict.before,
            verdict.after
        );
    }

    #[test]
    fn sandy_outage_is_visible() {
        let study = study();
        let series = range_series(study, "sc-us-east-1");
        let verdict = outage_verdict(&series);
        assert!(verdict.week43 > 0, "us-east-1 empty before the storm");
        assert_eq!(verdict.week44, 0, "US-East did not go dark in week 44");
        assert!(verdict.week45 > 0, "no recovery after the storm");
        assert_eq!(verdict.week44_bytes, 0);
    }

    #[test]
    fn a_reseller_grows() {
        let study = study();
        let series = reseller_series(study);
        assert!(!series.is_empty(), "no resellers tracked");
        let max_growth = series.iter().map(|s| s.growth).fold(0.0f64, f64::max);
        assert!(max_growth > 1.2, "no reseller growth detected: {max_growth:.2}");
    }

    /// A study is a public list of weeks, so it can be shorter than the
    /// five weeks a side that a reseller's growth compares, and miss the
    /// weeks a caller asks for.
    #[test]
    fn a_three_week_study_has_reseller_series_and_no_reference_week() {
        let a = testutil::analyzer();
        let weeks = Week::all().take(3).map(|w| a.report_from_scan(a.scan_week(w))).collect();
        let study = StudyReport { weeks };
        let series = reseller_series(&study);
        assert!(!series.is_empty(), "no resellers tracked");
        for s in &series {
            // Head and tail are the same three weeks.
            assert_eq!(s.counts.len(), 3);
            assert!((s.growth - 1.0).abs() < 1e-12, "growth {} over one window", s.growth);
        }
        let last = Week::all().nth(2).unwrap();
        assert_eq!(study.week(last).map(|r| r.snapshot.week), Some(last));
        assert!(study.week(Week::REFERENCE).is_none() && study.reference().is_none());
    }
}
