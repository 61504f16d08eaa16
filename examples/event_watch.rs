//! Stable yet changing (paper §4): run all 17 weeks, chart the churn of
//! the server pool, and detect the §4.2 events — the HTTPS drift, the
//! EC2/Netflix ramp in Ireland, the Hurricane-Sandy outage, and reseller
//! growth.
//!
//! ```text
//! cargo run --release --example event_watch [seed]
//! ```

use ixp_vantage::core::analyzer::Analyzer;
use ixp_vantage::core::{changes, longitudinal};
use ixp_vantage::netmodel::{InternetModel, ScaleConfig};

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(2012);
    let model = InternetModel::generate(ScaleConfig::tiny(), seed);
    let analyzer = Analyzer::new(&model);
    eprintln!("running all 17 weeks ...");
    let study = analyzer.run_study(8);

    // Fig. 4a — server-IP churn.
    let (f4a, _f4b, f4c, f5) = longitudinal::churn(&study);
    println!("Fig. 4a — weekly server-IP churn (stable / recurrent / fresh):");
    for (w, bar) in longitudinal::week_labels().iter().zip(f4a.bars.iter()) {
        println!(
            "  week {w}: {:>6} total = {:>6} stable + {:>6} recurrent + {:>6} fresh",
            bar.total, bar.stable, bar.recurrent, bar.fresh
        );
    }
    let s = longitudinal::summary(&f4a, &f4c, &f5);
    println!(
        "  week-51 shares: stable {:.1} %, recurrent {:.1} %, fresh {:.1} %  (paper ≈ 30/60/10)",
        s.stable_ip_share, s.recurrent_ip_share, s.fresh_ip_share
    );
    println!(
        "  AS stable share {:.1} % (paper ≈ 70); stable pool carries ≥ {:.1} % of server traffic (paper > 60)",
        s.stable_as_share, s.min_stable_traffic_share
    );

    // §4.2 HTTPS drift.
    let trend = changes::https_trend(&study);
    println!(
        "\nHTTPS drift: server-share slope {:+.3} pp/week, traffic-share slope {:+.3} pp/week",
        trend.server_slope, trend.traffic_slope
    );

    // §4.2 EC2/Netflix ramp.
    let ec2 = changes::range_series(&study, "eu-ireland");
    let verdict = changes::ec2_verdict(&ec2);
    println!("\nAmazon-EC2 eu-ireland servers per week:");
    for (w, c, _) in &ec2.points {
        println!("  week {}: {}", w.0, c);
    }
    println!("  ramp: {:.1} -> {:.1} servers ({}x)", verdict.before, verdict.after, verdict.growth);

    // §4.2 Hurricane Sandy.
    let sandy = changes::range_series(&study, "sc-us-east-1");
    let outage = changes::outage_verdict(&sandy);
    println!(
        "\nHurricane Sandy (StormCloud us-east-1): week 43 = {}, week 44 = {}, week 45 = {} servers",
        outage.week43, outage.week44, outage.week45
    );

    // §4.2 reseller growth.
    println!("\nreseller-customer server counts:");
    for series in changes::reseller_series(&study) {
        println!(
            "  member {:>3}: {:?} (growth {:.2}x)",
            series.member.0, series.counts, series.growth
        );
    }
}
