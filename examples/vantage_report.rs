//! The "local yet global" visibility report (paper §3): Tables 1–3 and
//! Figs. 2–3 for the reference week.
//!
//! ```text
//! cargo run --release --example vantage_report [seed] [tiny|small]
//! ```

use ixp_vantage::core::analyzer::Analyzer;
use ixp_vantage::core::{report, visibility};
use ixp_vantage::netmodel::{InternetModel, ScaleConfig, Week};
use ixp_vantage::obs::{MetricValue, Obs};

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(2012);
    let scale = match std::env::args().nth(2).as_deref() {
        Some("small") => ScaleConfig::small(),
        _ => ScaleConfig::tiny(),
    };
    let model = InternetModel::generate(scale, seed);
    let obs = Obs::deterministic();
    let analyzer = Analyzer::with_obs(&model, obs.clone());
    let weekly = analyzer.run_week(Week::REFERENCE);

    print!("{}", report::render_table1(&weekly));
    println!();
    let t2 = visibility::table2(&weekly.snapshot, &model, 10);
    print!("{}", report::render_table2(&t2));
    println!();
    let t3 = visibility::table3(&weekly.snapshot);
    print!("{}", report::render_table3(&t3));
    println!();
    print!("{}", report::render_fig2(&weekly));
    println!();
    print!("{}", report::render_fig3(&weekly, &model));

    // The §3.1 cross-check against the independent ISP dataset.
    let isp = ixp_vantage::traffic::IspTrace::generate(&model, Week::REFERENCE, seed);
    let confirmed = weekly.census.records.iter().filter(|r| isp.confirms(r.ip)).count();
    let isp_only = isp.server_ips.iter().filter(|ip| weekly.census.get(**ip).is_none()).count();
    println!();
    println!("ISP cross-check (§3.1):");
    println!("  ISP sees {} server IPs", isp.server_ips.len());
    println!("  {confirmed} of the IXP's {} servers confirmed by the ISP", weekly.census.len());
    println!("  {isp_only} ISP server IPs not seen at the IXP");

    // What the pipeline observed about itself while producing the report:
    // ingest accounting, crawler/resolver retries, stage timings. With the
    // deterministic bundle the durations are zero by construction; run the
    // repro harness with `--clock real` for wall-clock stage timings.
    println!();
    println!("observability snapshot (ixp-obs, {} metrics):", obs.snapshot().entries.len());
    for (name, value) in &obs.snapshot().entries {
        match value {
            MetricValue::Counter(v) => println!("  {name} = {v}"),
            MetricValue::Gauge(v) => println!("  {name} = {v} (gauge)"),
            MetricValue::Histogram(h) => {
                println!("  {name}: count {}, sum {} ns, p99 <= {} ns", h.count, h.sum, h.p99);
            }
        }
    }
}
