//! Plain-text rendering of the reproduced tables and figure series, in the
//! row/column layout of the paper, for the `repro` harness and
//! EXPERIMENTS.md.

#![deny(clippy::disallowed_types)]
#![allow(
    clippy::let_underscore_must_use,
    reason = "every renderer here does `writeln!` into a `String`, whose `fmt::Write` never returns `Err`"
)]

use std::fmt::Write as _;

use ixp_netmodel::InternetModel;

use crate::analyzer::WeeklyReport;
use crate::visibility::{self, Table2, Table3};

/// Render Fig. 1's cascade shares.
pub fn render_fig1(report: &WeeklyReport) -> String {
    use crate::scan::Category::*;
    let f = &report.snapshot.filter;
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 1 — traffic filtering cascade (byte shares of total)");
    for (label, cat) in [
        ("non-IPv4 (native IPv6)", Ipv6),
        ("non-IPv4 (other)", OtherL3),
        ("non-member / local", NonMemberOrLocal),
        ("member-to-member ICMP", Icmp),
        ("member-to-member other transport", OtherTransport),
        ("peering TCP", PeeringTcp),
        ("peering UDP", PeeringUdp),
    ] {
        let _ = writeln!(out, "  {label:<34} {:>7.3} %", f.share(cat));
    }
    let peering = f.peering();
    let _ = writeln!(out, "  {:<34} {:>7.3} %", "peering total", peering.share_of(&f.total()));
    let tcp = f.get(PeeringTcp).share_of(&peering);
    let udp = f.get(PeeringUdp).share_of(&peering);
    let _ = writeln!(out, "  TCP:UDP within peering             {tcp:.1} : {udp:.1}");
    out
}

/// Render Table 1.
pub fn render_table1(report: &WeeklyReport) -> String {
    let t = visibility::table1(&report.snapshot);
    let mut out = String::new();
    let _ = writeln!(out, "Table 1 — IXP summary statistics, {}", report.snapshot.week);
    let _ = writeln!(out, "  {:<18} {:>14} {:>14}", "", "peering", "server");
    let _ = writeln!(out, "  {:<18} {:>14} {:>14}", "IPs", t.peering.ips, t.server.ips);
    let _ =
        writeln!(out, "  {:<18} {:>14} {:>14}", "prefixes", t.peering.prefixes, t.server.prefixes);
    let _ = writeln!(out, "  {:<18} {:>14} {:>14}", "ASes", t.peering.ases, t.server.ases);
    let _ = writeln!(
        out,
        "  {:<18} {:>14} {:>14}",
        "countries", t.peering.countries, t.server.countries
    );
    out
}

/// Render Table 2.
pub fn render_table2(t2: &Table2) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 2 — top contributors");
    let col = |name: &str, entries: &[visibility::RankedEntry], out: &mut String| {
        let _ = writeln!(out, "  {name}");
        for (i, e) in entries.iter().enumerate() {
            let _ = writeln!(out, "    {:>2}. {:<24} {:>6.2} %", i + 1, e.label, e.share);
        }
    };
    col("countries by IPs (all)", &t2.countries_by_ips, &mut out);
    col("countries by IPs (server)", &t2.countries_by_server_ips, &mut out);
    col("countries by traffic (all)", &t2.countries_by_traffic, &mut out);
    col("countries by traffic (server)", &t2.countries_by_server_traffic, &mut out);
    col("networks by IPs (all)", &t2.networks_by_ips, &mut out);
    col("networks by IPs (server)", &t2.networks_by_server_ips, &mut out);
    col("networks by traffic (all)", &t2.networks_by_traffic, &mut out);
    col("networks by traffic (server)", &t2.networks_by_server_traffic, &mut out);
    out
}

/// Render Table 3.
pub fn render_table3(t3: &Table3) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 3 — IXP as local yet global player (percent)");
    let _ = writeln!(out, "  {:<22} {:>8} {:>8} {:>8}", "", "A(L)", "A(M)", "A(G)");
    let rows = ["IPs", "prefixes", "ASes", "traffic"];
    for (name, row) in rows.iter().zip(t3.peering.iter()) {
        let _ = writeln!(
            out,
            "  peering {:<14} {:>7.1}% {:>7.1}% {:>7.1}%",
            name, row[0], row[1], row[2]
        );
    }
    for (name, row) in rows.iter().zip(t3.server.iter()) {
        let _ = writeln!(
            out,
            "  server  {:<14} {:>7.1}% {:>7.1}% {:>7.1}%",
            name, row[0], row[1], row[2]
        );
    }
    out
}

/// Render the Fig. 2 head.
pub fn render_fig2(report: &WeeklyReport) -> String {
    let f = visibility::fig2(report);
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 2 — per-server traffic concentration");
    let _ = writeln!(out, "  server IPs ranked: {}", f.shares.len());
    let _ = writeln!(out, "  top-34 share: {:.2} %", f.top34_share);
    let _ = writeln!(out, "  IPs above 0.5 % each: {}", f.above_half_percent);
    for (i, s) in f.shares.iter().take(10).enumerate() {
        let _ = writeln!(out, "    rank {:>2}: {:.4} %", i + 1, s);
    }
    out
}

/// Render the Fig. 3 bucket histogram.
pub fn render_fig3(report: &WeeklyReport, model: &InternetModel) -> String {
    let f = visibility::fig3(&report.snapshot, model);
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 3 — share of observed IPs per country");
    let mut buckets: std::collections::BTreeMap<&str, usize> = Default::default();
    for (_, share) in &f.shares {
        *buckets.entry(visibility::fig3_bucket(*share)).or_default() += 1;
    }
    for (bucket, n) in buckets {
        let _ = writeln!(out, "  {bucket:<14} {n} countries");
    }
    let _ = writeln!(out, "  unseen: {:?}", f.unseen);
    let _ = writeln!(out, "  top-5: ");
    for (code, share) in f.shares.iter().take(5) {
        let _ = writeln!(out, "    {code}  {share:.2} %");
    }
    out
}

/// Render the ingest-health section: what the collector saw of the stream
/// (loss, duplicates, restarts, quarantined sources, per-kind decode
/// errors) and whether the no-silent-discard invariant held.
pub fn render_ingest_health(report: &WeeklyReport) -> String {
    let h = &report.health;
    let c = &h.collector;
    let mut out = String::new();
    let _ = writeln!(out, "Ingest health — collector accounting, {}", report.snapshot.week);
    let _ = writeln!(out, "  {:<28} {:>12}", "datagrams ingested", thousands(c.datagrams));
    let _ = writeln!(out, "  {:<28} {:>12}", "accepted", thousands(c.accepted));
    let _ = writeln!(out, "  {:<28} {:>12}", "duplicates suppressed", thousands(c.duplicates));
    let _ = writeln!(
        out,
        "  {:<28} {:>12}   ({:.2} % of expected stream)",
        "estimated lost",
        thousands(c.lost),
        h.loss_pct()
    );
    let _ = writeln!(out, "  {:<28} {:>12}", "agent restarts detected", thousands(c.restarts));
    let _ = writeln!(
        out,
        "  {:<28} {:>12}   ({} quarantined)",
        "sources seen", c.sources, c.quarantined_sources
    );
    for (kind, n) in c.decode_errors.iter() {
        if n > 0 {
            let _ = writeln!(out, "  decode errors: {:<13} {:>12}", kind, thousands(n));
        }
    }
    if c.decode_errors.total() == 0 {
        let _ = writeln!(out, "  {:<28} {:>12}", "decode errors", 0);
    }
    if c.unattributed_errors > 0 {
        let _ = writeln!(
            out,
            "  {:<28} {:>12}",
            "unattributed errors",
            thousands(c.unattributed_errors)
        );
    }
    let _ = writeln!(
        out,
        "  {:<28} {:>12}",
        "undissectable samples",
        thousands(h.undissectable_samples)
    );
    if h.shed > 0 {
        let _ = writeln!(
            out,
            "  {:<28} {:>12}   (bounded intake queue overload)",
            "shed by intake queue",
            thousands(h.shed)
        );
    }
    let _ = writeln!(out, "  {:<28} {:>12.4}", "loss compensation factor", h.compensation_factor());
    let _ = writeln!(
        out,
        "  accounting invariant (ingested = accepted + duplicates + errors + shed): {}",
        if h.fully_accounted() { "holds" } else { "VIOLATED" }
    );
    out
}

/// Simple integer formatting with thousands separators for the harness.
pub fn thousands(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn renderers_produce_nonempty_text() {
        let model = testutil::model();
        let report = testutil::reference();
        assert!(render_fig1(report).contains("peering TCP"));
        assert!(render_table1(report).contains("prefixes"));
        let t2 = visibility::table2(&report.snapshot, model, 10);
        assert!(render_table2(&t2).contains("networks by traffic"));
        let t3 = visibility::table3(&report.snapshot);
        assert!(render_table3(&t3).contains("A(M)"));
        assert!(render_fig2(report).contains("top-34"));
        assert!(render_fig3(report, model).contains("unseen"));
        let health = render_ingest_health(report);
        assert!(health.contains("estimated lost"));
        assert!(health.contains("accounting invariant"));
        assert!(health.contains("holds"));
    }

    #[test]
    fn thousands_formatting() {
        assert_eq!(thousands(0), "0");
        assert_eq!(thousands(999), "999");
        assert_eq!(thousands(1_000), "1,000");
        assert_eq!(thousands(1_234_567), "1,234,567");
    }
}
