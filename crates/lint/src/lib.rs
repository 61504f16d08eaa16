//! ixp-lint — the workspace invariant linter.
//!
//! A static analysis pass over every `.rs` file in the workspace (`std`
//! plus the leaf `ixp-codec`, nothing else), enforcing the project
//! invariants no compiler lint can state: seven rules in four families
//! plus the directive checker (see [`rules`] for the table). What the
//! compiler *can* state — unwrap/expect/panic/index in the decoders,
//! narrowing casts, float equality, hash-ordered containers, ambient
//! time, discarded `Result`s, atomic reads, channel merges (clippy) and
//! one ledger bucket per consumed datagram (a `#[must_use]` return type
//! and an exhaustive `match`) — is not this crate's (DESIGN.md §8). Run
//! it as `cargo run -p ixp-lint`; it exits 0 on a clean tree, 1 with
//! `file:line: rule: message` output on any violation, and 2 on usage or
//! I/O errors.
//!
//! False positives are suppressed inline:
//!
//! ```text
//! assert!(rate > 0); // ixp-lint: allow(panic-path) operator configuration, not wire input
//! ```
//!
//! placed on the offending line, or on its own line directly above. A whole
//! file can opt out of one rule with a mandatory justification:
//!
//! ```text
//! // ixp-lint: allow-file(schema-drift, "wire codec fixed by the protocol spec")
//! ```
//!
//! Family aliases (`l4`, `l5`, `l6`, `l10`) expand to their rule groups.
//!
//! The linter lexes every file ([`lexer`]), collects the L4 `error-impl`
//! facts per crate ([`rules`]), parses a lightweight item tree
//! ([`parser`]), builds a workspace symbol table ([`symbols`]), and runs
//! three semantic passes: panic-reachability over the call graph
//! ([`callgraph`], L5), wire-taint overflow analysis ([`taint`], L6) and
//! checkpoint-codec symmetry ([`codec_sym`], L10). Every run reads the
//! tree and runs every pass once, on one thread.

pub mod callgraph;
pub mod codec_sym;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod symbols;
pub mod taint;

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lexer::Lexed;

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column of the offending token; 0 when unknown.
    pub col: u32,
    /// Rule id (the `id` of a [`rules::RULES`] entry).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// Construct a finding without column information.
    pub fn new(file: &str, line: u32, rule: &'static str, message: &str) -> Self {
        Finding { file: file.to_string(), line, col: 0, rule, message: message.to_string() }
    }

    /// Construct a finding with a column.
    pub fn at(file: &str, line: u32, col: u32, rule: &'static str, message: &str) -> Self {
        Finding { file: file.to_string(), line, col, rule, message: message.to_string() }
    }

    /// The canonical `file:line: rule: message` rendering.
    pub fn render(&self) -> String {
        format!("{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// Allow directives collected from one file's comments.
#[derive(Debug, Default)]
pub(crate) struct FileAllows {
    /// Line number → rules allowed on that line.
    lines: HashMap<u32, Vec<&'static str>>,
    /// Rules allowed for the whole file.
    file_wide: Vec<&'static str>,
}

impl FileAllows {
    pub(crate) fn suppresses(&self, rule: &str, line: u32) -> bool {
        self.file_wide.contains(&rule) || self.lines.get(&line).is_some_and(|rs| rs.contains(&rule))
    }
}

const DIRECTIVE_MARKER: &str = "ixp-lint:";

/// Parse lint directives (the `ixp-lint` comment marker) out of a file's
/// comments. Malformed directives become `bad-directive` findings.
pub(crate) fn parse_directives(
    path: &str,
    lexed: &Lexed,
    findings: &mut Vec<Finding>,
) -> FileAllows {
    let mut allows = FileAllows::default();
    for c in &lexed.comments {
        let Some(pos) = c.text.find(DIRECTIVE_MARKER) else { continue };
        let rest = c.text[pos + DIRECTIVE_MARKER.len()..].trim();
        if let Some(args) = rest.strip_prefix("allow-file") {
            let Some(inner) = paren_args(args) else {
                findings.push(Finding::new(
                    path,
                    c.line,
                    "bad-directive",
                    "allow-file expects `allow-file(rule, \"reason\")`",
                ));
                continue;
            };
            let Some((rule_name, reason)) = inner.split_once(',') else {
                findings.push(Finding::new(
                    path,
                    c.line,
                    "bad-directive",
                    "allow-file requires a quoted reason after the rule",
                ));
                continue;
            };
            let reason = reason.trim();
            let quoted = reason.len() >= 2
                && reason.starts_with('"')
                && reason.ends_with('"')
                && reason.len() > 2;
            if !quoted {
                findings.push(Finding::new(
                    path,
                    c.line,
                    "bad-directive",
                    "allow-file reason must be a non-empty quoted string",
                ));
                continue;
            }
            match rules::resolve_rule(rule_name.trim()) {
                Some(resolved) => allows.file_wide.extend(resolved.iter().map(|r| r.id)),
                None => findings.push(Finding::new(
                    path,
                    c.line,
                    "bad-directive",
                    &format!("unknown rule `{}` in allow-file", rule_name.trim()),
                )),
            }
        } else if let Some(args) = rest.strip_prefix("allow") {
            let Some(inner) = paren_args(args) else {
                findings.push(Finding::new(
                    path,
                    c.line,
                    "bad-directive",
                    "allow expects `allow(rule[, rule...])`",
                ));
                continue;
            };
            // The directive covers its own line; a comment alone on a line
            // also covers the next line of code.
            let mut targets = vec![c.line];
            if c.own_line {
                if let Some(next) =
                    lexed.tokens.iter().map(|t| t.line).filter(|l| *l > c.line).min()
                {
                    targets.push(next);
                }
            }
            for rule_name in inner.split(',') {
                match rules::resolve_rule(rule_name.trim()) {
                    Some(resolved) => {
                        for &line in &targets {
                            allows
                                .lines
                                .entry(line)
                                .or_default()
                                .extend(resolved.iter().map(|r| r.id));
                        }
                    }
                    None => findings.push(Finding::new(
                        path,
                        c.line,
                        "bad-directive",
                        &format!("unknown rule `{}` in allow", rule_name.trim()),
                    )),
                }
            }
        } else {
            findings.push(Finding::new(
                path,
                c.line,
                "bad-directive",
                &format!("unknown directive `{}`", rest.split_whitespace().next().unwrap_or("")),
            ));
        }
    }
    allows
}

/// Extract `inner` from a `(inner)` argument list; trailing free text after
/// the closing paren is treated as justification and ignored.
fn paren_args(args: &str) -> Option<&str> {
    let args = args.trim_start();
    let rest = args.strip_prefix('(')?;
    let close = rest.find(')')?;
    Some(&rest[..close])
}

/// Lint a set of in-memory sources. `files` yields workspace-relative
/// paths (forward slashes) and their contents. Findings come back sorted
/// by file, line, rule.
pub fn scan_sources<I>(files: I) -> Vec<Finding>
where
    I: IntoIterator<Item = (String, String)>,
{
    let mut findings = Vec::new();
    let mut l4_map: BTreeMap<String, rules::CrateErrorInfo> = BTreeMap::new();
    let mut allows: HashMap<String, FileAllows> = HashMap::new();
    let mut lexed_files = Vec::new();
    let mut parsed_files = Vec::new();

    for (path, src) in files {
        let lexed = lexer::lex(&src);
        let file_allows = parse_directives(&path, &lexed, &mut findings);
        rules::collect_error_info(&path, &lexed, &mut l4_map);
        parsed_files.push(parser::parse(&path, &lexed));
        lexed_files.push(lexed);
        allows.insert(path, file_allows);
    }
    rules::finalize_error_impl(&l4_map, &mut findings);

    let table = symbols::SymbolTable::build(&parsed_files);
    callgraph::check(&parsed_files, &table, &allows, &mut findings);
    taint::check(&parsed_files, &lexed_files, &table, &mut findings);
    codec_sym::check(&parsed_files, &lexed_files, &mut findings);

    findings.retain(|f| {
        f.rule == "bad-directive"
            || !allows.get(&f.file).is_some_and(|fa| fa.suppresses(f.rule, f.line))
    });
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
    findings
}

/// Directory names the walker never descends into: build output, the
/// offline dependency stand-ins, VCS metadata, lint test fixtures (which
/// contain violations on purpose), and anything hidden.
fn skip_dir(name: &str) -> bool {
    name == "target" || name == "vendor" || name == "fixtures" || name.starts_with('.')
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !skip_dir(&name) {
                collect_rs(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Collect every lintable `.rs` file under `root`, as sorted
/// workspace-relative (path, content) pairs.
fn collect_workspace_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut paths = Vec::new();
    collect_rs(root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push((rel, fs::read_to_string(&p)?));
    }
    Ok(files)
}

/// Lint every `.rs` file under `root` (a workspace checkout).
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(scan_sources(collect_workspace_files(root)?))
}

/// Walk up from `start` looking for a `Cargo.toml` declaring `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_one(path: &str, src: &str) -> Vec<Finding> {
        scan_sources([(path.to_string(), src.to_string())])
    }

    #[test]
    fn same_line_allow_suppresses() {
        let src = "pub fn f(n: usize) { assert!(n > 0); } // ixp-lint: allow(panic-path) operator config\n";
        assert!(scan_one("crates/wire/src/x.rs", src).is_empty());
    }

    #[test]
    fn own_line_allow_covers_next_code_line() {
        let src = "\
pub fn f(n: usize) {
    // ixp-lint: allow(panic-path) caller guarantees a positive rate
    assert!(n > 0);
}
";
        assert!(scan_one("crates/wire/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_on_wrong_line_does_not_leak() {
        let src = "\
pub fn f(n: usize) {
    // ixp-lint: allow(panic-path) only covers the next line
    let _ = n;
    assert!(n > 0);
}
";
        let got = scan_one("crates/wire/src/x.rs", src);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rule, "panic-path");
        assert!(got[0].message.contains("`assert!` at line 4"), "{}", got[0].message);
    }

    #[test]
    fn family_alias_expands() {
        let body = "pub fn f(r: &mut Reader) -> Result<(), E> { let n = r.u32()? as usize; let v = Vec::with_capacity(n); let t = n + 16; Ok(()) }";
        let rules: Vec<&str> =
            scan_one("crates/sflow/src/x.rs", body).iter().map(|f| f.rule).collect();
        assert_eq!(rules, ["tainted-arith", "tainted-capacity"]);
        let allowed = format!("{body} // ixp-lint: allow(l6)\n");
        assert!(scan_one("crates/sflow/src/x.rs", &allowed).is_empty());
    }

    #[test]
    fn allow_file_needs_reason() {
        let fns = "pub fn f(n: usize) { assert!(n > 0); }\npub fn g(n: usize) { assert!(n > 1); }\n";
        let with = format!("// ixp-lint: allow-file(panic-path, \"operator configuration\")\n{fns}");
        assert!(scan_one("crates/wire/src/x.rs", &with).is_empty());

        let without = format!("// ixp-lint: allow-file(panic-path)\n{fns}");
        let got = scan_one("crates/wire/src/x.rs", &without);
        assert_eq!(got.len(), 3, "{got:?}");
        assert_eq!(got.iter().filter(|f| f.rule == "bad-directive").count(), 1);
        assert_eq!(got.iter().filter(|f| f.rule == "panic-path").count(), 2);
    }

    #[test]
    fn unknown_rule_is_bad_directive() {
        // `no-index` moved to clippy and `unaccounted-drop` to a return
        // type: a leftover vouch for either is as unknown as a typo, which
        // is how the migration is checked.
        for name in ["no-such-rule", "no-index", "unaccounted-drop"] {
            let src = format!("fn f() {{}} // ixp-lint: allow({name})\n");
            let got = scan_one("crates/wire/src/x.rs", &src);
            assert_eq!(got.len(), 1, "{name}: {got:?}");
            assert_eq!(got[0].rule, "bad-directive");
            assert!(got[0].message.contains(name));
        }
    }

    #[test]
    fn directives_in_strings_are_ignored() {
        let src = "fn f() -> &'static str { \"// ixp-lint: allow(nope)\" }\n";
        assert!(scan_one("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn render_format() {
        let f = Finding::new("a.rs", 7, "panic-path", "msg");
        assert_eq!(f.render(), "a.rs:7: panic-path: msg");
    }

    #[test]
    fn findings_are_sorted() {
        let files = [
            ("crates/wire/src/b.rs".to_string(), "pub fn f(n: u8) { assert!(n > 0); }".to_string()),
            ("crates/wire/src/a.rs".to_string(), "pub fn g(n: u8) { assert_eq!(n, 1); }".to_string()),
        ];
        let got = scan_sources(files);
        assert_eq!(got[0].file, "crates/wire/src/a.rs");
        assert_eq!(got[1].file, "crates/wire/src/b.rs");
    }

    #[test]
    fn l4_spans_files_within_a_crate() {
        let files = [
            (
                "crates/x/src/err.rs".to_string(),
                "pub enum XError { A }".to_string(),
            ),
            (
                "crates/x/src/fmt.rs".to_string(),
                "impl fmt::Display for XError {}\nimpl std::error::Error for XError {}".to_string(),
            ),
        ];
        assert!(scan_sources(files).is_empty());
    }
}
