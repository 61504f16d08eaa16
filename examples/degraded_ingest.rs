//! Degraded ingest: replay one week of the study through a seeded
//! `FaultPlan` — 5 % datagram loss, duplicates, reordering, a mid-week
//! agent restart — and show how the collector accounts for every fault
//! while the headline statistics barely move. Then kill the same degraded
//! run mid-week, checkpoint it, restore, finish — and show the recovered
//! run is byte-identical to never having crashed at all.
//!
//! ```text
//! cargo run --release --example degraded_ingest
//! ```

use ixp_bench::pipeline::{Pipeline, SFLOW_PEER};
use ixp_vantage::core::analyzer::Analyzer;
use ixp_vantage::core::{report, WeekScan};
use ixp_vantage::faults::{FaultConfig, FaultPlan};
use ixp_vantage::netmodel::{InternetModel, ScaleConfig, Week};
use ixp_vantage::obs::{prometheus, Obs};
use ixp_vantage::supervisor::{Supervisor, SupervisorConfig};

fn main() {
    let model = InternetModel::generate(ScaleConfig::tiny(), 2012);
    // A deterministic obs bundle: the collector publishes its accounting
    // as live metrics while it ingests, and the frozen test clock keeps
    // the snapshot identical across runs.
    let obs = Obs::deterministic();
    let analyzer = Analyzer::with_obs(&model, obs.clone());
    let week = Week::REFERENCE;

    // The clean baseline: the pristine feed straight off the generator.
    let clean = analyzer.run_week(week);

    // The same week through a hostile network path. The plan is seeded, so
    // this exact perturbation replays bit-for-bit on every run.
    let cfg = FaultConfig {
        seed: 2012,
        drop: 0.05,
        duplicate: 0.01,
        reorder: 0.01,
        restarts: vec![(0, 500)],
        ..FaultConfig::default()
    };
    let mut plan = FaultPlan::new(analyzer.feed(week), cfg.clone());
    let scan = analyzer.scan_week_from(week, plan.by_ref());
    let injected = plan.stats();
    let degraded = analyzer.report_from_scan(scan);

    println!("injected faults:");
    println!(
        "  {} of {} datagrams lost ({:.2} %), {} duplicated, {} reordered, {} restarts",
        injected.dropped,
        injected.input,
        100.0 * injected.injected_loss_rate(),
        injected.duplicated,
        injected.reordered,
        injected.restarts_injected,
    );

    println!();
    print!("{}", report::render_ingest_health(&degraded));

    // The same accounting, as the live metrics the collector published
    // while ingesting (Prometheus text exposition, sflow_* families).
    // Both weeks ran through this registry, so the counters cover the
    // clean baseline plus the degraded replay.
    println!();
    println!("collector metrics (prometheus exposition, sflow_* families):");
    let exposition = prometheus::render(&obs.snapshot()).expect("uniform metric kinds");
    for line in exposition.lines().filter(|l| l.contains("sflow_")) {
        println!("  {line}");
    }

    println!();
    println!("headline statistics, clean vs degraded:");
    let drift = |a: u64, b: u64| 100.0 * (a as f64 - b as f64) / b.max(1) as f64;
    for (label, d, c) in [
        ("peering IPs", degraded.snapshot.peering.ips, clean.snapshot.peering.ips),
        ("peering prefixes", degraded.snapshot.peering.prefixes, clean.snapshot.peering.prefixes),
        ("peering ASes", degraded.snapshot.peering.ases, clean.snapshot.peering.ases),
        ("server IPs", degraded.snapshot.server.ips, clean.snapshot.server.ips),
    ] {
        println!("  {label:<18} {d:>8} vs {c:>8}  ({:+.2} %)", drift(d, c));
    }

    // Traffic estimates can be rescaled by the measured loss so volumes
    // stay comparable across weeks with different stream health.
    let total = degraded.snapshot.filter.total();
    let compensated = degraded.health.compensated(&total);
    println!();
    println!(
        "total bytes: raw {} -> loss-compensated {} (factor x{:.4})",
        report::thousands(total.bytes),
        report::thousands(compensated.bytes),
        degraded.health.compensation_factor(),
    );

    // ---- kill and resume -------------------------------------------------
    // The same degraded week, this time under the supervisor: kill the
    // process at a datagram boundary mid-week, checkpoint, restore from
    // the checkpoint, replay the rest of the regenerated feed. The
    // recovered run's report — and its final checkpoint, byte for byte —
    // must match a run that was never interrupted.
    println!();
    println!("kill-and-resume recovery (supervised, checkpoint at datagram 500):");
    let members = model.registry.members_at(week).len() as u32;
    let sup_cfg = SupervisorConfig::default();
    let faulted = || FaultPlan::new(analyzer.feed(week), cfg.clone()).map(|d| (SFLOW_PEER, d));
    let fresh = || Pipeline::new(Supervisor::new(WeekScan::new(week, members), sup_cfg), None);

    let mut uninterrupted = fresh();
    uninterrupted.drive(faulted(), None, |_| {});
    let reference_ckpt = uninterrupted.supervisor().checkpoint();
    let uninterrupted_report = analyzer.report_from_scan(uninterrupted.into_scan());

    let mut crashed = fresh();
    let done = crashed.drive(faulted(), Some(500), |_| {});
    assert!(!done, "the kill offset is mid-week");
    let checkpoint = crashed.supervisor().checkpoint();
    println!(
        "  killed at offered datagram {} -> sealed checkpoint of {} bytes",
        crashed.cursor(),
        checkpoint.len()
    );
    drop(crashed); // the "process" is gone; only the checkpoint survives

    let restored = Supervisor::restore(&checkpoint, sup_cfg).expect("restore checkpoint");
    let mut resumed = Pipeline::new(restored, None);
    println!("  restored; resuming the feed from datagram {}", resumed.cursor());
    resumed.drive(faulted(), None, |_| {});
    let identical = resumed.supervisor().checkpoint() == reference_ckpt;
    let resumed_report = analyzer.report_from_scan(resumed.into_scan());

    println!(
        "  final checkpoint byte-identical to the uninterrupted run: {}",
        if identical { "yes" } else { "NO" }
    );
    for (label, r, u) in [
        (
            "peering IPs",
            resumed_report.snapshot.peering.ips,
            uninterrupted_report.snapshot.peering.ips,
        ),
        (
            "peering prefixes",
            resumed_report.snapshot.peering.prefixes,
            uninterrupted_report.snapshot.peering.prefixes,
        ),
        (
            "peering ASes",
            resumed_report.snapshot.peering.ases,
            uninterrupted_report.snapshot.peering.ases,
        ),
        (
            "accepted datagrams",
            resumed_report.health.collector.accepted,
            uninterrupted_report.health.collector.accepted,
        ),
    ] {
        let mark = if r == u { "==" } else { "!=" };
        println!("  {label:<18} resumed {r:>8} {mark} uninterrupted {u:>8}");
    }
}
