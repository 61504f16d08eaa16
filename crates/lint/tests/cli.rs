//! Exit-code and output tests for the `ixp-lint` binary, run against the
//! committed fixture trees.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn run_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ixp-lint"))
        .args(args)
        .output()
        .expect("spawn ixp-lint")
}

fn run_on(root: &Path) -> Output {
    run_lint(&["--root", root.to_str().unwrap()])
}

#[test]
fn violations_tree_exits_one_with_findings_on_stdout() {
    let out = run_on(&fixture("violations"));
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("crates/badcrate/src/lib.rs:1: error-impl: "),
        "stdout was: {stdout}"
    );
    // One violation per new semantic rule family as well.
    assert!(stdout.contains("crates/wire/src/l5.rs:6: panic-path: "));
    assert!(stdout.contains("crates/sflow/src/taint.rs:5: tainted-capacity: "));
    let stderr = String::from_utf8(out.stderr).unwrap();
    // And the L10 invariant family.
    assert!(stdout.contains("crates/supervisor/src/codec_pair.rs:16: codec-asymmetry: "));
    assert!(stdout.contains("crates/core/src/codec_noreg.rs:5: schema-drift: "));
    // The transport crate carries the same invariant families.
    assert!(stdout.contains("crates/transport/src/l5.rs:6: panic-path: "));
    assert!(stdout.contains("crates/transport/src/taint.rs:5: tainted-capacity: "));
    assert!(stderr.contains("11 violation(s)"), "stderr was: {stderr}");
}

#[test]
fn explain_prints_rule_rationale() {
    let out = run_lint(&["--explain", "panic-path"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("panic-path [L5]"), "{stdout}");
    assert!(stdout.contains("call graph"), "{stdout}");

    let out = run_lint(&["--explain", "no-such-rule"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn clean_tree_exits_zero_silently() {
    let out = run_on(&fixture("clean"));
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stdout.is_empty());
}

#[test]
fn unknown_flag_and_missing_root_exit_two() {
    let out = run_lint(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));

    let out = run_on(Path::new("/nonexistent/ixp-lint-root"));
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn help_exits_zero() {
    let out = run_lint(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8(out.stdout).unwrap().contains("usage:"));
}

#[test]
fn removed_flags_are_unknown_arguments() {
    for flag in ["--format", "--only", "--changed", "--no-cache", "--update-baseline"] {
        let out = run_lint(&[flag]);
        assert_eq!(out.status.code(), Some(2), "{flag} must be rejected");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(&format!("unknown argument `{flag}`")), "{stderr}");
    }
}
