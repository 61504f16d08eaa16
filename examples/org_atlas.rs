//! Beyond the AS-level view (paper §5): cluster server IPs by
//! organization, chart the heterogeneity scatters, and attribute one CDN's
//! traffic to direct vs. third-party member links.
//!
//! ```text
//! cargo run --release --example org_atlas [seed]
//! ```

use ixp_vantage::core::analyzer::Analyzer;
use ixp_vantage::core::{baseline, cluster, hetero};
use ixp_vantage::netmodel::{InternetModel, ScaleConfig, Week};

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(2012);
    let model = InternetModel::generate(ScaleConfig::tiny(), seed);
    let analyzer = Analyzer::new(&model);
    let weekly = analyzer.run_week(Week::REFERENCE);

    // §5.1 three-step clustering.
    let clusters = cluster::cluster(&weekly, &analyzer.dns);
    let shares = clusters.step_shares();
    println!(
        "clustering: {} organizations recovered from {} server IPs",
        clusters.clusters.len(),
        weekly.census.len()
    );
    println!(
        "  step shares: {:.1} % / {:.1} % / {:.1} %   (paper: 78.7 / 17.4 / 3.9)",
        shares[0], shares[1], shares[2]
    );
    let v = cluster::validate_clusters(&clusters, &weekly, &model);
    println!(
        "  validated false-positive rate: {:.2} %  (paper: < 3 %)",
        100.0 * v.false_positive_rate
    );

    // Fig. 6b — organizations spread across ASes.
    let f6b = hetero::fig6b(&clusters, 2, 50);
    println!("\nFig. 6b — top organizations by footprint:");
    let mut points = f6b.points.clone();
    points.sort_by_key(|(_, ips, _)| std::cmp::Reverse(*ips));
    for (key, ips, ases) in points.iter().take(12) {
        println!("  {key:<28} {ips:>6} server IPs in {ases:>3} ASes");
    }

    // Fig. 6c — ASes hosting many organizations.
    let f6c = hetero::fig6c(&weekly, &clusters, 1);
    println!("\nFig. 6c — heterogeneous ASes:");
    println!("  {} ASes host > 5 organizations, {} host > 10", f6c.over_5_orgs, f6c.over_10_orgs);
    let mut by_orgs = f6c.points.clone();
    by_orgs.sort_by_key(|(_, _, orgs)| std::cmp::Reverse(*orgs));
    for (as_idx, ips, orgs) in by_orgs.iter().take(6) {
        let info = model.registry.by_index(*as_idx);
        println!("  {:<28} {ips:>6} server IPs of {orgs:>3} organizations", info.name);
    }

    // Fig. 7 — link heterogeneity for the two CDN archetypes.
    for key in ["akamai.example", "cloudflare.example"] {
        if let Some(f7) = hetero::link_usage(&analyzer, &weekly, &clusters, key) {
            println!("\nFig. 7 — {key}:");
            println!("  {:.1} % of its traffic crosses non-direct member links", f7.offlink_share);
            println!(
                "  {} of {} of its servers seen only via other members' links",
                f7.servers_via_other_links, f7.servers_total
            );
        }
    }

    // §6 baselines.
    let pb = baseline::port_baseline(&analyzer, &weekly);
    println!("\nport-based classification baseline:");
    println!(
        "  port view: {} servers ({} not confirmed by payload/crawl, {} payload-servers missed)",
        pb.port_servers, pb.false_servers, pb.missed_servers
    );
    if let Some(ab) = baseline::as_org_baseline(&weekly, &clusters, "akamai.example") {
        println!(
            "  AS-to-org view of akamai.example: misses {:.1} % of the footprint ({} of {} servers in third-party ASes)",
            ab.missed_share, ab.in_third_party, ab.servers
        );
    }
}
