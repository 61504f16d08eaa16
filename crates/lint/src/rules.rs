//! The rule registry, the scope predicates, and the L4 `error-impl` rule.
//!
//! Rules are scoped by workspace-relative path. All checks are lexical
//! approximations of the real invariants — exact enough for this codebase,
//! with the inline allow directive as the escape hatch for false positives.
//! What a compiler lint can say is not here: unwrap/expect/panic/index,
//! narrowing casts, float equality, hash-ordered containers, ambient time,
//! discarded `Result`s, atomic reads and channel merges are clippy's, and
//! drop accounting is a return type (DESIGN.md §8 has the table).
//!
//! | rule            | family | scope                                         |
//! |-----------------|--------|-----------------------------------------------|
//! | `error-impl`    | L4     | every crate `src/` tree                       |
//! | `panic-path`    | L5     | `pub fn`s of stream-facing crates (whole-workspace call graph) |
//! | `tainted-capacity`, `tainted-arith`, `tainted-slice-len` | L6 | stream-facing crates |
//! | `codec-asymmetry` | L10 | registered checkpoint save/restore pairs |
//! | `schema-drift` | L10 | registered pairs (digest ratchet) + unregistered checkpoint-shaped codecs |
//! | `bad-directive` | meta | every scanned file                           |
//!
//! Test code (`#[cfg(test)]` items) is exempt from every family except L4.

use std::collections::{BTreeMap, HashSet};

use crate::lexer::{Kind, Lexed};
use crate::Finding;

/// Metadata for one rule: where it sits in the family taxonomy and the
/// `--explain` text.
#[derive(Debug)]
pub struct RuleInfo {
    /// Rule id as it appears in findings and directives.
    pub id: &'static str,
    /// Family tag: `L4`, `L5`, `L6` or `L10` (the others are the
    /// compiler's), or `meta` for the directive checker.
    pub family: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Longer `--explain` text.
    pub explain: &'static str,
}

/// The full rule registry.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "error-impl",
        family: "L4",
        summary: "public error enums implement Display + std::error::Error",
        explain: "Every `pub enum *Error*` must implement Display and \
                  std::error::Error somewhere in its crate, so callers can \
                  propagate and print failures uniformly.",
    },
    RuleInfo {
        id: "panic-path",
        family: "L5",
        summary: "pub fns of stream-facing crates are transitively panic-free",
        explain: "L5 builds the workspace call graph and computes the transitive \
                  can-panic set. A `pub fn` in a stream-facing crate (ixp-wire, \
                  ixp-sflow, ixp-faults, ixp-supervisor, ixp-transport, ixp-obsd) \
                  that can reach a panic through any workspace call chain — \
                  including helpers in other crates — is reported with the \
                  offending chain. Inside those crates an unwrap, expect, \
                  panic!, unreachable! or index site is clippy's (denied, or \
                  vouched by a reasoned #[allow]) and does not seed the graph; \
                  the assert! family, which no clippy lint covers, does.",
    },
    RuleInfo {
        id: "tainted-capacity",
        family: "L6",
        summary: "wire-tainted values must not size allocations",
        explain: "A length decoded from the wire can be up to 2^32; passing it \
                  to Vec::with_capacity lets one datagram demand gigabytes. Cap \
                  the value against the remaining input (e.g. `.min(buf.len())`) \
                  before sizing the allocation.",
    },
    RuleInfo {
        id: "tainted-arith",
        family: "L6",
        summary: "wire-tainted operands require checked arithmetic",
        explain: "Unchecked `+`/`*`/`<<` on a wire-derived value overflows: a \
                  panic in debug builds, a silent wrap in release — either way a \
                  corrupted traffic estimate (the sampling-rate scaling of §3.1 \
                  multiplies two wire values). Route the value through \
                  checked_*/saturating_* arithmetic or validate its bound first.",
    },
    RuleInfo {
        id: "tainted-slice-len",
        family: "L6",
        summary: "wire-tainted values must not bound index/slice expressions",
        explain: "Using a decoded length inside `[..]` panics when the datagram \
                  lies about its own size. Validate against the buffer length \
                  and use `.get()`.",
    },
    RuleInfo {
        id: "codec-asymmetry",
        family: "L10",
        summary: "checkpoint encode/decode pairs must walk the same ordered field list",
        explain: "Crash recovery restores state by replaying the writer's field \
                  list in order (DESIGN.md §11); if `save` and `restore` \
                  disagree about one width, loop, or nested-codec call, every \
                  checkpoint on disk is misread from that field on. Each pair \
                  in the codec registry (crates/lint/src/codec_sym.rs) is \
                  abstracted to a width/loop/nested symbol sequence and the \
                  reader must mirror the writer exactly; versioned pairs must \
                  frame a `u32` version const first, sealed pairs must ride in \
                  the `seal`/`open` envelope, and the envelope itself must \
                  write and verify the magic/version/length/trailer frame.",
    },
    RuleInfo {
        id: "schema-drift",
        family: "L10",
        summary: "checkpoint schemas may only change together with a version bump",
        explain: "Every registered codec writer has an FNV-1a-64 digest of its \
                  field schema (widths, loops, nested codecs, and the written \
                  expressions) pinned in crates/lint/src/codec_sym.rs. \
                  Renaming, reordering, adding, or dropping a field changes \
                  the digest, and the lint fails until the format version is \
                  bumped and the pinned digest updated in the same change — \
                  old checkpoints then fail closed with `BadVersion` instead \
                  of being misdecoded. Codec-shaped fns (two or more field \
                  writes/reads) outside the registry are also flagged: new \
                  codecs must enter the ratchet.",
    },
    RuleInfo {
        id: "bad-directive",
        family: "meta",
        summary: "malformed or unknown ixp-lint directives",
        explain: "An `// ixp-lint:` comment that names an unknown rule or omits \
                  the allow-file reason is itself a finding, so suppressions \
                  cannot silently rot.",
    },
];

/// Expand a rule id or family alias (`l4`, `l5`, `l6`, `l10`; any case)
/// into its registry entries. Returns `None` for unknown names.
pub fn resolve_rule(name: &str) -> Option<Vec<&'static RuleInfo>> {
    let hits: Vec<&RuleInfo> = RULES
        .iter()
        .filter(|r| r.id == name || r.family.eq_ignore_ascii_case(name))
        .collect();
    (!hits.is_empty()).then_some(hits)
}

/// The stream-facing scope of L5 and L6: source trees of the crates that
/// face raw input — the two packet parsers, the fault injector (which
/// rewrites encoded datagrams and must survive anything it is fed,
/// including its own output), the supervisor (which decodes checkpoint
/// images that may be truncated or corrupted by the very crash they are
/// recovering from), the wire transport (UDP front door plus the NetFlow
/// v5/v9/IPFIX decoders, which parse attacker-grade bytes straight off the
/// socket), and the exposition server (which parses HTTP request bytes
/// from any client that can reach the socket). These are the crates whose
/// `lib.rs` opens with the clippy contract line; `scripts/ci.sh` reads
/// this list and checks that exactly these six carry it.
pub(crate) fn stream_facing(path: &str) -> bool {
    path.starts_with("crates/wire/src/")
        || path.starts_with("crates/sflow/src/")
        || path.starts_with("crates/faults/src/")
        || path.starts_with("crates/supervisor/src/")
        || path.starts_with("crates/transport/src/")
        || path.starts_with("crates/obsd/src/")
}

/// L4 scope: any `src/` tree (root package or a workspace crate). Excludes
/// tests, examples, benches and fixture trees.
pub(crate) fn l4_applies(path: &str) -> bool {
    let mut parts = path.split('/');
    match parts.next() {
        Some("src") => true,
        Some("crates") => {
            let _crate_name = parts.next();
            parts.next() == Some("src")
        }
        _ => false,
    }
}

/// Identifiers that may legally precede `[` without it being an index
/// expression (mostly keywords introducing array patterns/types).
pub(crate) const NON_INDEXABLE_KEYWORDS: &[&str] = &[
    "let", "in", "mut", "ref", "return", "as", "if", "else", "match", "move",
    "static", "const", "dyn", "impl", "for", "where", "use", "pub", "enum",
    "struct", "fn", "type", "break", "continue", "loop", "while", "unsafe",
    "mod", "trait", "box", "yield", "async", "await", "become",
];

/// Per-crate facts feeding the L4 rule.
#[derive(Debug, Default)]
pub struct CrateErrorInfo {
    /// `pub enum <name>` where the name contains `Error`, outside tests:
    /// (enum name, file, line).
    pub error_enums: Vec<(String, String, u32)>,
    /// Type names with an `impl ... Display for <name>` anywhere in the crate.
    pub display_impls: HashSet<String>,
    /// Type names with an `impl ... Error for <name>` anywhere in the crate.
    pub error_impls: HashSet<String>,
}

/// Group key for a file: the crate it belongs to (`crates/<name>` or the
/// root package).
fn crate_group(path: &str) -> String {
    if let Some(rest) = path.strip_prefix("crates/") {
        if let Some(name) = rest.split('/').next() {
            return format!("crates/{name}");
        }
    }
    "(root)".to_string()
}

/// Collect L4 facts from one lexed file into the per-crate map.
pub fn collect_error_info(
    path: &str,
    lexed: &Lexed,
    map: &mut BTreeMap<String, CrateErrorInfo>,
) {
    if !l4_applies(path) {
        return;
    }
    let info = map.entry(crate_group(path)).or_default();
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        match &toks[i].kind {
            // `pub enum FooError` / `pub(crate) enum FooError`
            Kind::Ident(kw) if kw == "enum" && !toks[i].in_test => {
                let is_pub = match i.checked_sub(1).map(|j| &toks[j].kind) {
                    Some(Kind::Ident(p)) => p == "pub",
                    Some(Kind::Punct(')')) => {
                        // pub(crate) / pub(super): scan back past the parens.
                        let mut j = i - 1;
                        while j > 0 && toks[j].kind != Kind::Punct('(') {
                            j -= 1;
                        }
                        j > 0 && matches!(&toks[j - 1].kind, Kind::Ident(p) if p == "pub")
                    }
                    _ => false,
                };
                if !is_pub {
                    continue;
                }
                if let Some(Kind::Ident(name)) = toks.get(i + 1).map(|t| &t.kind) {
                    if name.contains("Error") {
                        info.error_enums.push((
                            name.clone(),
                            path.to_string(),
                            toks[i + 1].line,
                        ));
                    }
                }
            }
            // `impl [<...>] [path::]Trait for Type`
            Kind::Ident(kw) if kw == "for" => {
                // Walk back: the trait name is the last ident before `for`;
                // only count it if an `impl` appears first (not a loop).
                let mut trait_name: Option<&str> = None;
                let mut j = i;
                let mut is_impl = false;
                while j > 0 {
                    j -= 1;
                    match &toks[j].kind {
                        Kind::Ident(id) if id == "impl" => {
                            is_impl = true;
                            break;
                        }
                        Kind::Ident(id) if trait_name.is_none() => trait_name = Some(id),
                        Kind::Punct('{' | '}' | ';') => break,
                        _ => {}
                    }
                }
                if !is_impl {
                    continue;
                }
                if let Some(Kind::Ident(type_name)) = toks.get(i + 1).map(|t| &t.kind) {
                    match trait_name {
                        Some("Display") => {
                            info.display_impls.insert(type_name.clone());
                        }
                        Some("Error") => {
                            info.error_impls.insert(type_name.clone());
                        }
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }
}

/// Emit an `error-impl` finding for every public error enum missing a
/// `Display` or `std::error::Error` impl within its crate.
pub fn finalize_error_impl(
    map: &BTreeMap<String, CrateErrorInfo>,
    out: &mut Vec<Finding>,
) {
    for info in map.values() {
        for (name, file, line) in &info.error_enums {
            let mut missing = Vec::new();
            if !info.display_impls.contains(name) {
                missing.push("Display");
            }
            if !info.error_impls.contains(name) {
                missing.push("std::error::Error");
            }
            if !missing.is_empty() {
                out.push(Finding::new(
                    file,
                    *line,
                    "error-impl",
                    &format!("`pub enum {name}` does not implement {}", missing.join(" + ")),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn l4_flags_missing_impls_and_accepts_complete_ones() {
        let good = "
pub enum ParseError { Bad }
impl fmt::Display for ParseError { }
impl std::error::Error for ParseError { }
";
        let bad = "pub enum DecodeError { Short }\nimpl fmt::Display for DecodeError {}\n";
        let mut map = BTreeMap::new();
        collect_error_info("crates/a/src/lib.rs", &lex(good), &mut map);
        collect_error_info("crates/b/src/lib.rs", &lex(bad), &mut map);
        let mut out = Vec::new();
        finalize_error_impl(&map, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "error-impl");
        assert!(out[0].message.contains("std::error::Error"));
        assert!(!out[0].message.contains("Display +"));
    }

    #[test]
    fn l4_cross_file_impls_count() {
        let decl = "pub enum FetchError { Nope }";
        let impls = "impl core::fmt::Display for FetchError {}\nimpl std::error::Error for FetchError {}";
        let mut map = BTreeMap::new();
        collect_error_info("crates/a/src/err.rs", &lex(decl), &mut map);
        collect_error_info("crates/a/src/fmt.rs", &lex(impls), &mut map);
        let mut out = Vec::new();
        finalize_error_impl(&map, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn l4_ignores_for_loops_and_test_enums() {
        let src = "
fn f() { for x in 0..3 { let _ = x; } }
#[cfg(test)]
mod tests { pub enum TestError { X } }
";
        let mut map = BTreeMap::new();
        collect_error_info("crates/a/src/lib.rs", &lex(src), &mut map);
        let mut out = Vec::new();
        finalize_error_impl(&map, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    fn ids(name: &str) -> Vec<&'static str> {
        resolve_rule(name).unwrap_or_default().iter().map(|r| r.id).collect()
    }

    #[test]
    fn aliases_resolve() {
        assert_eq!(ids("L6").len(), 3);
        assert_eq!(ids("l10"), ["codec-asymmetry", "schema-drift"]);
        assert_eq!(ids("panic-path"), ["panic-path"]);
        assert!(resolve_rule("nope").is_none());
        assert!(resolve_rule("lock-order-cycle").is_none());
    }

    #[test]
    fn rules_that_moved_to_the_compiler_no_longer_resolve() {
        assert_eq!(RULES.len(), 8);
        for gone in [
            "l1", "l2", "l3", "l7", "l8", "l9", "l11", "no-index", "no-unwrap", "error-sink",
            "atomic-ordering", "order-dependent-merge", "unaccounted-drop",
        ] {
            assert!(resolve_rule(gone).is_none(), "{gone} still resolves");
        }
    }

    #[test]
    fn every_remaining_family_resolves_and_ids_are_unique() {
        for family in ["l4", "l5", "l6", "l10", "meta"] {
            assert!(resolve_rule(family).is_some(), "family {family} is empty");
        }
        for r in RULES {
            assert_eq!(ids(r.id), [r.id], "{} must resolve to itself alone", r.id);
            assert!(!r.summary.is_empty() && !r.explain.is_empty());
        }
    }
}
