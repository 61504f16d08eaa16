//! Library-level tests over the committed fixture trees: exact
//! file/line/rule assertions for one violation of every rule, plus the
//! suppression and `#[cfg(test)]`-exemption cases. (The rules that moved
//! to clippy have their own fixture, `fixtures/contract`, run by
//! `scripts/ci.sh`.)

use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

#[test]
fn violations_tree_reports_every_rule_exactly() {
    let findings = ixp_lint::scan_workspace(&fixture("violations")).unwrap();
    let got: Vec<(String, u32, &str)> =
        findings.iter().map(|f| (f.file.clone(), f.line, f.rule)).collect();
    let expected: Vec<(String, u32, &str)> = [
        ("crates/badcrate/src/lib.rs", 1, "error-impl"),
        ("crates/core/src/codec_noreg.rs", 5, "schema-drift"),
        ("crates/core/src/codec_noreg.rs", 10, "schema-drift"),
        ("crates/sflow/src/taint.rs", 5, "tainted-capacity"),
        ("crates/sflow/src/taint.rs", 6, "tainted-arith"),
        ("crates/sflow/src/taint.rs", 8, "tainted-slice-len"),
        ("crates/supervisor/src/codec_pair.rs", 16, "codec-asymmetry"),
        ("crates/transport/src/l5.rs", 6, "panic-path"),
        ("crates/transport/src/taint.rs", 5, "tainted-capacity"),
        ("crates/wire/src/bad_directive.rs", 1, "bad-directive"),
        ("crates/wire/src/l5.rs", 6, "panic-path"),
    ]
    .into_iter()
    .map(|(f, l, r)| (f.to_string(), l, r))
    .collect();
    assert_eq!(got, expected);
}

#[test]
fn l5_trace_names_the_cross_crate_chain() {
    let findings = ixp_lint::scan_workspace(&fixture("violations")).unwrap();
    let trace = findings
        .iter()
        .find(|f| f.rule == "panic-path")
        .map(|f| f.message.clone())
        .unwrap();
    assert!(trace.contains("first_byte"), "{trace}");
    assert!(trace.contains("pick"), "{trace}");
    assert!(trace.contains("crates/core/src/util.rs"), "{trace}");
}

#[test]
fn suppressed_and_test_exempt_files_are_silent() {
    let findings = ixp_lint::scan_workspace(&fixture("violations")).unwrap();
    assert!(
        !findings.iter().any(|f| f.file.contains("allowed.rs")),
        "inline allow directives must suppress, and L5 must leave a \
         stream-facing index site to clippy: {findings:?}"
    );
    assert!(
        !findings.iter().any(|f| f.file.contains("test_exempt.rs")),
        "cfg(test) code must be exempt: {findings:?}"
    );
}

#[test]
fn clean_tree_is_clean() {
    let findings = ixp_lint::scan_workspace(&fixture("clean")).unwrap();
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn committed_workspace_is_clean() {
    // crates/lint -> crates -> workspace root
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
    let findings = ixp_lint::scan_workspace(root).expect("workspace scan");
    assert!(
        findings.is_empty(),
        "the tree must lint clean:\n{}",
        findings.iter().map(|f| f.render()).collect::<Vec<_>>().join("\n"),
    );
}

#[test]
fn render_matches_cli_format() {
    let findings = ixp_lint::scan_workspace(&fixture("violations")).unwrap();
    let line = findings
        .iter()
        .find(|f| f.rule == "error-impl")
        .map(|f| f.render())
        .unwrap();
    assert!(line.starts_with("crates/badcrate/src/lib.rs:1: error-impl: "), "{line}");
}
