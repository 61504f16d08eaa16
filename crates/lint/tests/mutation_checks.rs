//! Acceptance mutations for the L10 analysis: patch a copy of the
//! *live* sources in memory and prove the lint catches the regression.
//! The checked-out tree is never modified — each test lints a patched
//! string through `scan_sources`, so these are real end-to-end runs over
//! the real collector code, minus one invariant.

use std::fs;
use std::path::PathBuf;

const COLLECTOR: &str = "crates/sflow/src/collector.rs";

fn live(path: &str) -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .to_path_buf();
    fs::read_to_string(root.join(path)).expect("live source")
}

/// Scan the given (path, source) set and keep only the L10 rules.
fn scan(files: Vec<(&str, String)>) -> Vec<(String, u32, String)> {
    const CODEC_RULES: [&str; 2] = ["codec-asymmetry", "schema-drift"];
    ixp_lint::scan_sources(files.into_iter().map(|(p, s)| (p.to_string(), s)))
        .into_iter()
        .filter(|f| CODEC_RULES.contains(&f.rule))
        .map(|f| (f.rule.to_string(), f.line, f.message))
        .collect()
}

#[test]
fn unmutated_live_sources_are_clean() {
    let hits = scan(vec![(COLLECTOR, live(COLLECTOR))]);
    assert!(hits.is_empty(), "control must be clean: {hits:?}");
}

#[test]
fn reordering_checkpoint_fields_without_version_bump_fails_drift() {
    let orig = live(COLLECTOR);
    let src = orig.replacen(
        "checkpoint::put_u64(&mut out, self.seq_opened);\n        checkpoint::put_u64(&mut out, self.seq_recovered);",
        "checkpoint::put_u64(&mut out, self.seq_recovered);\n        checkpoint::put_u64(&mut out, self.seq_opened);",
        1,
    );
    assert_ne!(src, orig, "patch must apply");
    let hits = scan(vec![(COLLECTOR, src)]);
    assert!(
        hits.iter().any(|h| h.0 == "schema-drift"),
        "a field reorder must fail the digest ratchet: {hits:?}"
    );
    // The width sequence is unchanged, so symmetry itself still holds.
    assert!(
        !hits.iter().any(|h| h.0 == "codec-asymmetry"),
        "reorder of same-width fields is drift, not asymmetry: {hits:?}"
    );
}

#[test]
fn dropping_a_checkpoint_field_fails_symmetry() {
    let orig = live(COLLECTOR);
    let src = orig.replacen(
        "        checkpoint::put_u64(&mut out, self.latency_samples);\n",
        "",
        1,
    );
    assert_ne!(src, orig, "patch must apply");
    let hits = scan(vec![(COLLECTOR, src)]);
    assert!(
        hits.iter().any(|h| h.0 == "codec-asymmetry"),
        "a dropped writer field must desynchronize the reader walk: {hits:?}"
    );
}
