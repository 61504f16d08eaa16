//! ixp-lint — the workspace invariant linter.
//!
//! A static analysis pass over every `.rs` file in the workspace (`std`
//! plus the leaf `ixp-codec`, nothing else), enforcing the project's
//! no-panic decoder contract and a few numeric-hygiene rules (see
//! [`rules`] for the table). Run it as
//! `cargo run -p ixp-lint`; it exits 0 on a clean tree, 1 with
//! `file:line: rule: message` output when violations exceed the committed
//! ratchet baseline (`lint-baseline.toml`), and 2 on usage or I/O errors.
//!
//! False positives are suppressed inline:
//!
//! ```text
//! let b = frame[0]; // ixp-lint: allow(no-index) length checked above
//! ```
//!
//! placed on the offending line, or on its own line directly above. A whole
//! file can opt out of one rule with a mandatory justification:
//!
//! ```text
//! // ixp-lint: allow-file(no-float-eq, "bit-exact golden values")
//! ```
//!
//! Family aliases `l1`..`l8` expand to their rule groups.
//!
//! Beyond the token-level rules, the linter parses every file into a
//! lightweight item tree ([`parser`]), builds a workspace symbol table
//! ([`symbols`]), and runs four semantic passes: panic-reachability over
//! the call graph ([`callgraph`], L5), wire-taint overflow analysis
//! ([`taint`], L6), determinism checks ([`determinism`], L7), and
//! concurrency-safety analysis ([`concurrency`], L8). The per-file
//! lex/parse stage fans out over scoped threads; the semantic passes stay
//! sequential, so output is byte-identical to a single-threaded run.

pub mod baseline;
pub mod cache;
pub mod callgraph;
pub mod codec_sym;
pub mod concurrency;
pub mod conservation;
pub mod determinism;
pub mod errorflow;
pub mod json;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod symbols;
pub mod taint;

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

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
    /// Rule id (one of [`rules::ALL_RULES`]).
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
        self.file_wide.iter().any(|r| *r == rule)
            || self.lines.get(&line).is_some_and(|rs| rs.iter().any(|r| *r == rule))
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
                Some(resolved) => allows.file_wide.extend(resolved),
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
                            allows.lines.entry(line).or_default().extend(resolved.iter());
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

/// The outcome of the per-file stage (lex, directives, token rules, L4
/// facts, determinism, parse) for one source file. Everything later
/// passes need, computed independently of every other file — which is
/// what lets the stage fan out across threads.
struct PerFile {
    path: String,
    findings: Vec<Finding>,
    /// Findings of the pure per-file rules (token rules + determinism):
    /// the slice of the result the incremental cache may reuse. Empty
    /// when the cache supplied them (`token_rules: false`).
    token_findings: Vec<Finding>,
    allows: FileAllows,
    l4: BTreeMap<String, rules::CrateErrorInfo>,
    lexed: Lexed,
    parsed: parser::ParsedFile,
}

/// Run every per-file pass over one source. `token_rules: false` skips
/// the cacheable token/determinism rules (a per-file cache hit); the
/// directive, L4-fact, and parse stages always run — later passes and
/// the suppression step need their output regardless.
fn analyze_file(path: String, src: &str, token_rules: bool) -> PerFile {
    let mut findings = Vec::new();
    let mut token_findings = Vec::new();
    let mut l4 = BTreeMap::new();
    let lexed = lexer::lex(src);
    let allows = parse_directives(&path, &lexed, &mut findings);
    if token_rules {
        rules::check_tokens(&path, &lexed, &mut token_findings);
        determinism::check(&path, &lexed, &mut token_findings);
    }
    rules::collect_error_info(&path, &lexed, &mut l4);
    let parsed = parser::parse(&path, &lexed);
    PerFile { path, findings, token_findings, allows, l4, lexed, parsed }
}

/// Below this many files the thread fan-out costs more than it saves.
const PARALLEL_THRESHOLD: usize = 4;

/// Fan the per-file stage out over a scoped worker pool. Results are
/// put back in index order, so the returned order — and therefore every
/// downstream pass — is identical to the sequential path.
fn analyze_parallel(files: Vec<(String, String, bool)>) -> Vec<PerFile> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
        .min(files.len());
    if workers <= 1 || files.len() < PARALLEL_THRESHOLD {
        return files.into_iter().map(|(p, s, t)| analyze_file(p, &s, t)).collect();
    }
    // The work list is complete before the pool starts, so a shared index
    // is all the queue it needs. Workers hand results back through their
    // join handles; a worker panic is re-raised here.
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, PerFile)> = std::thread::scope(|scope| {
        let pool: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((path, src, token_rules)) = files.get(i) else { break mine };
                        mine.push((i, analyze_file(path.clone(), src, *token_rules)));
                    }
                })
            })
            .collect();
        pool.into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, pf)| pf).collect()
}

/// Lint a set of in-memory sources. `files` yields workspace-relative
/// paths (forward slashes) and their contents. Findings come back sorted
/// by file, line, rule.
pub fn scan_sources<I>(files: I) -> Vec<Finding>
where
    I: IntoIterator<Item = (String, String)>,
{
    let files: Vec<(String, String)> = files.into_iter().collect();
    let n = files.len();
    scan_sources_inner(files, vec![None; n]).0
}

/// The full pipeline behind [`scan_sources`] and the cached scan.
/// `cached_tokens[i]` supplies file `i`'s per-file findings from the
/// cache (skipping its token/determinism rules); `None` computes them.
/// Returns the final findings plus, for each file that was computed,
/// `(index, per-file findings)` for the caller to store.
fn scan_sources_inner(
    files: Vec<(String, String)>,
    cached_tokens: Vec<Option<Vec<Finding>>>,
) -> (Vec<Finding>, Vec<(usize, Vec<Finding>)>) {
    let mut findings = Vec::new();
    let mut computed_tokens = Vec::new();
    let mut l4_map: BTreeMap<String, rules::CrateErrorInfo> = BTreeMap::new();
    let mut allows: HashMap<String, FileAllows> = HashMap::new();
    let mut lexed_files = Vec::new();
    let mut parsed_files = Vec::new();

    let work: Vec<(String, String, bool)> = files
        .into_iter()
        .zip(&cached_tokens)
        .map(|((p, s), cached)| (p, s, cached.is_none()))
        .collect();
    for (i, pf) in analyze_parallel(work).into_iter().enumerate() {
        findings.extend(pf.findings);
        match &cached_tokens[i] {
            Some(cached) => findings.extend(cached.iter().cloned()),
            None => {
                computed_tokens.push((i, pf.token_findings.clone()));
                findings.extend(pf.token_findings);
            }
        }
        for (group, info) in pf.l4 {
            let entry = l4_map.entry(group).or_default();
            entry.error_enums.extend(info.error_enums);
            entry.display_impls.extend(info.display_impls);
            entry.error_impls.extend(info.error_impls);
        }
        parsed_files.push(pf.parsed);
        lexed_files.push(pf.lexed);
        allows.insert(pf.path, pf.allows);
    }
    rules::finalize_error_impl(&l4_map, &mut findings);

    let table = symbols::SymbolTable::build(&parsed_files);
    callgraph::check(&parsed_files, &table, &allows, &mut findings);
    taint::check(&parsed_files, &lexed_files, &table, &mut findings);
    concurrency::check(&parsed_files, &lexed_files, &table, &mut findings);
    conservation::check(&parsed_files, &lexed_files, &mut findings);
    codec_sym::check(&parsed_files, &lexed_files, &mut findings);
    errorflow::check(&parsed_files, &lexed_files, &table, &mut findings);

    findings.retain(|f| {
        f.rule == "bad-directive"
            || !allows.get(&f.file).is_some_and(|fa| fa.suppresses(f.rule, f.line))
    });
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
    (findings, computed_tokens)
}

/// [`scan_sources`] through the incremental cache at `dir` (see
/// [`cache`]): a whole-workspace fixpoint hit skips all analysis; per
/// changed file only its token rules recompute, everything cross-file
/// always recomputes. Results are identical to an uncached scan.
pub fn scan_sources_cached(
    files: Vec<(String, String)>,
    dir: &Path,
) -> (Vec<Finding>, cache::CacheStats) {
    let registry = cache::registry_digest();
    let digests: Vec<u64> =
        files.iter().map(|(_, src)| ixp_codec::fnv64(src.as_bytes())).collect();
    let workspace = cache::workspace_digest(&files, &digests);
    let mut stats = cache::CacheStats::default();
    if let Some(findings) = cache::load_fixpoint(dir, registry, workspace) {
        stats.fixpoint_hit = true;
        stats.file_hits = files.len();
        return (findings, stats);
    }
    let cached_tokens: Vec<Option<Vec<Finding>>> = files
        .iter()
        .zip(&digests)
        .map(|((path, _), digest)| cache::load_per_file(dir, path, *digest, registry))
        .collect();
    stats.file_hits = cached_tokens.iter().filter(|c| c.is_some()).count();
    stats.file_misses = files.len() - stats.file_hits;
    let keys: Vec<(String, u64)> =
        files.iter().zip(&digests).map(|((p, _), d)| (p.clone(), *d)).collect();
    let (findings, computed) = scan_sources_inner(files, cached_tokens);
    for (i, token_findings) in &computed {
        let (path, digest) = &keys[*i];
        cache::store_per_file(dir, path, *digest, registry, token_findings);
    }
    cache::store_fixpoint(dir, registry, workspace, &findings);
    (findings, stats)
}

/// Directory names the walker never descends into: build output, the
/// offline dependency stand-ins, VCS metadata, lint test fixtures (which
/// contain violations on purpose), and anything hidden.
fn skip_dir(name: &str) -> bool {
    name == "target" || name == "vendor" || name == "fixtures" || name.starts_with('.')
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !skip_dir(&name) {
                collect_rs(root, &path, out)?;
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
    collect_rs(root, root, &mut paths)?;
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

/// [`scan_workspace`] through the incremental cache at `cache_dir`.
pub fn scan_workspace_cached(
    root: &Path,
    cache_dir: &Path,
) -> io::Result<(Vec<Finding>, cache::CacheStats)> {
    Ok(scan_sources_cached(collect_workspace_files(root)?, cache_dir))
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
        let src = "fn f(b: &[u8]) -> u8 { b[0] } // ixp-lint: allow(no-index) bounds checked\n";
        assert!(scan_one("crates/wire/src/x.rs", src).is_empty());
    }

    #[test]
    fn own_line_allow_covers_next_code_line() {
        let src = "\
fn f(b: &[u8]) -> u8 {
    // ixp-lint: allow(no-index) caller guarantees length
    b[0]
}
";
        assert!(scan_one("crates/wire/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_on_wrong_line_does_not_leak() {
        let src = "\
fn f(b: &[u8]) -> u8 {
    // ixp-lint: allow(no-index) only covers the next line
    let _ = b.len();
    b[0]
}
";
        let got = scan_one("crates/wire/src/x.rs", src);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rule, "no-index");
        assert_eq!(got[0].line, 4);
    }

    #[test]
    fn family_alias_expands() {
        let src = "fn f(o: Option<u8>, b: &[u8]) { o.unwrap(); b[0]; } // ixp-lint: allow(l1)\n";
        assert!(scan_one("crates/sflow/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_file_needs_reason() {
        let with = "// ixp-lint: allow-file(no-index, \"fixed-size header\")\nfn f(b: &[u8]) -> u8 { b[0] }\nfn g(b: &[u8]) -> u8 { b[1] }\n";
        assert!(scan_one("crates/wire/src/x.rs", with).is_empty());

        let without = "// ixp-lint: allow-file(no-index)\nfn f(b: &[u8]) -> u8 { b[0] }\n";
        let got = scan_one("crates/wire/src/x.rs", without);
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got.iter().any(|f| f.rule == "bad-directive"));
        assert!(got.iter().any(|f| f.rule == "no-index"));
    }

    #[test]
    fn unknown_rule_is_bad_directive() {
        let src = "fn f() {} // ixp-lint: allow(no-such-rule)\n";
        let got = scan_one("crates/core/src/x.rs", src);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rule, "bad-directive");
        assert!(got[0].message.contains("no-such-rule"));
    }

    #[test]
    fn directives_in_strings_are_ignored() {
        let src = "fn f() -> &'static str { \"// ixp-lint: allow(nope)\" }\n";
        assert!(scan_one("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn render_format() {
        let f = Finding::new("a.rs", 7, "no-unwrap", "msg");
        assert_eq!(f.render(), "a.rs:7: no-unwrap: msg");
    }

    #[test]
    fn findings_are_sorted() {
        let files = [
            ("crates/wire/src/b.rs".to_string(), "fn f(b:&[u8]){ b[0]; }".to_string()),
            ("crates/wire/src/a.rs".to_string(), "fn f(o:Option<u8>){ o.unwrap(); }".to_string()),
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
