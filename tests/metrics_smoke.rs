//! Metrics smoke test (run by `scripts/ci.sh` after the repro harness has
//! written `target/metrics-a.json`):
//!
//! * the exported snapshot parses against the `ixp-obs/1` JSON schema,
//! * the required metric families are present,
//! * an in-process deterministic pipeline run snapshots byte-identically
//!   across two executions (the cross-process equivalent — two `repro`
//!   invocations — is byte-compared by `cmp` in ci.sh itself), and the
//!   17-week study across one worker and four,
//! * the four ingest-path series tables keep to the naming scheme.

use std::collections::BTreeSet;

use ixp_vantage::core::analyzer::Analyzer;
use ixp_vantage::netmodel::{InternetModel, ScaleConfig, Week};
use ixp_vantage::obs::{json, split_name, Obs, Series, SeriesKind};

/// Families every instrumented run must publish. `dns_*` counters exist
/// from registration even when a run never exercises the resolver pool.
const REQUIRED_FAMILIES: &[&str] = &[
    "wire_frames_total",
    "sflow_datagrams_total",
    "sflow_accepted_total",
    "sflow_ingest_duration_ns",
    "core_stage_duration_ns",
    "cert_fetches_total",
    "dns_queries_total",
];

fn reference_snapshot_json() -> String {
    let model = InternetModel::generate(ScaleConfig::tiny(), 2012);
    let obs = Obs::deterministic();
    let analyzer = Analyzer::with_obs(&model, obs.clone());
    let _ = analyzer.run_week(Week::REFERENCE);
    json::render(&obs.snapshot())
}

fn assert_families(doc: &str, source: &str) {
    for family in REQUIRED_FAMILIES {
        assert!(doc.contains(family), "family {family} missing from {source}");
    }
}

#[test]
fn snapshot_parses_and_contains_required_families() {
    // Prefer the file a real repro run wrote (ci.sh); fall back to an
    // in-process run so `cargo test` alone also exercises the check.
    let (doc, source) = match std::fs::read_to_string("target/metrics-a.json") {
        Ok(s) => (s, "target/metrics-a.json (repro run)"),
        Err(_) => (reference_snapshot_json(), "in-process reference run"),
    };
    let parsed = json::parse(&doc).unwrap_or_else(|| panic!("{source}: snapshot does not parse"));
    assert_eq!(
        parsed.get("schema").and_then(|v| v.as_str()),
        Some("ixp-obs/1"),
        "{source}: wrong schema tag"
    );
    let metrics = parsed
        .get("metrics")
        .and_then(|v| v.as_arr())
        .unwrap_or_else(|| panic!("{source}: metrics array missing"));
    assert!(!metrics.is_empty(), "{source}: metrics array empty");
    for m in metrics {
        assert!(m.get("name").and_then(|v| v.as_str()).is_some(), "{source}: unnamed metric");
        assert!(m.get("kind").and_then(|v| v.as_str()).is_some(), "{source}: kindless metric");
    }
    assert_families(&doc, source);
}

#[test]
fn same_seed_runs_snapshot_byte_identically() {
    let a = reference_snapshot_json();
    let b = reference_snapshot_json();
    assert_eq!(a, b, "deterministic runs must export identical snapshots");
    assert_families(&a, "in-process reference run");
}

/// DESIGN.md §10 promises byte identity "including under the parallel
/// 17-week study": seventeen scans publishing into shared series, in
/// whatever order four workers finish them, must add up to what one worker
/// leaves behind.
#[test]
fn parallel_study_snapshots_byte_identically_to_the_sequential_one() {
    // A fifth of `tiny`'s samples: the test is about the sums, and two
    // whole studies in a debug build are its entire cost.
    let scale = ScaleConfig { samples_per_week: 12_000, ..ScaleConfig::tiny() };
    let model = InternetModel::generate(scale, 2012);
    let study = |parallelism: usize| {
        let obs = Obs::deterministic();
        let _ = Analyzer::with_obs(&model, obs.clone()).run_study(parallelism);
        (json::render(&obs.snapshot()), obs.snapshot().counter("wire_frames_total"))
    };
    let (sequential, frames) = study(1);
    assert!(frames.is_some_and(|n| n > 0), "the study published no frames");
    assert_eq!(study(4).0, sequential, "worker count changed the exported snapshot");
}

fn names_and_kinds<T>(table: &[Series<T>]) -> Vec<(&'static str, SeriesKind)> {
    table.iter().map(|s| (s.name, s.kind)).collect()
}

/// The naming scheme of DESIGN.md §10 over every series the ingest path
/// states: one statement per name, `_total` exactly on counters, at most
/// one `{key="value"}` label block.
#[test]
fn series_tables_follow_the_naming_scheme() {
    let tables = [
        ("sflow_", names_and_kinds(ixp_vantage::sflow::collector::SERIES)),
        ("wire_", names_and_kinds(ixp_vantage::core::scan::SERIES)),
        ("supervisor_", names_and_kinds(ixp_vantage::supervisor::supervisor::SERIES)),
        ("transport_", names_and_kinds(ixp_vantage::transport::intake::SERIES)),
    ];
    assert_eq!(tables.each_ref().map(|(_, rows)| rows.len()), [13, 11, 13, 19]);
    let mut seen = BTreeSet::new();
    for (prefix, rows) in tables {
        for (name, kind) in rows {
            assert!(seen.insert(name), "{name} is stated twice");
            let (family, labels) = split_name(name);
            assert!(family.starts_with(prefix), "{name} is not in the {prefix}* families");
            assert_eq!(family.ends_with("_total"), kind == SeriesKind::Counter, "{name}");
            match labels {
                None => assert!(!name.contains(['{', '}', '"']), "{name}"),
                Some(block) => {
                    assert_eq!(name, format!("{family}{{{block}}}"), "{name}");
                    let (key, value) = block.split_once("=\"").expect(name);
                    let value = value.strip_suffix('"').expect(name);
                    let word = |w: &str| {
                        !w.is_empty() && w.chars().all(|c| c.is_ascii_lowercase() || c == '_' || c.is_ascii_digit())
                    };
                    assert!(word(key) && word(value), "{name}: more than one label block");
                }
            }
        }
    }
}
