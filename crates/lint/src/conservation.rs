//! L9: accounting-conservation analysis (`unaccounted-drop`).
//!
//! The pipeline's headline invariant is that no datagram vanishes:
//! `ingested = accepted + duplicates + errors + shed`, every term a
//! counter someone incremented on purpose. The dynamic gates (chaos
//! soak, metrics smoke) catch a broken balance after the fact; this pass
//! catches the *cause* at review time — a code path that consumes a
//! datagram and exits without putting it in any bucket.
//!
//! The model is deliberately syntactic and local. A **consuming
//! function** is a non-test `fn` named `offer` or `ingest*` that takes a
//! payload parameter (beyond `self`) and whose body contains at least
//! one *accounting event*. Accessor look-alikes (`ingest_health()`,
//! `ingested()`) fail one of those gates and are never analyzed. Within
//! a consuming function, the body is split into **segments** at each
//! `return`: every segment that ends in an exit — an explicit `return`
//! or falling off the end of the function — must contain at least one
//! accounting event, which is any of:
//!
//! * a counter bump: `<known counter field> += ...`;
//! * a counting call: `.count(..)`, `.record*(..)` — never a metric bump:
//!   the plain counters are the ledger and the registry is published from
//!   them (DESIGN.md §10), so no consuming function calls a metric;
//! * a transfer: handing the datagram to another consuming function
//!   (`.offer(..)`, `.ingest*(..)`, `.push_back(..)`, `.push(..)`),
//!   which is then accountable for it.
//!
//! A `return` reached with no event since the previous segment boundary
//! is an `unaccounted-drop` finding at the `return` token. The tail
//! segment is checked the same way when it contains any significant
//! tokens. Deleting the `self.shed += 1` line in the intake ring, or
//! adding an early `return` above `self.datagrams += 1` in the
//! collector, trips this pass (see `tests/mutation_checks.rs`).

use crate::lexer::{Kind, Lexed, Token};
use crate::parser::ParsedFile;
use crate::Finding;

/// Counter fields whose `+=` counts as an accounting event. These are
/// the IngestHealth/Collector/Supervisor conservation buckets and their
/// totals (see DESIGN.md §8, L9).
const COUNTER_FIELDS: &[&str] = &[
    "accepted",
    "bytes",
    "datagrams",
    "deadline_misses",
    "decode_errors",
    "duplicates",
    "latency_samples",
    "lost",
    "offered",
    "pending",
    "quarantined",
    "received",
    "restarts",
    "samples",
    "seq_opened",
    "seq_recovered",
    "shed",
    "template_missing_dropped",
    "ticks",
    "unattributed_errors",
    "undissectable",
    "undissectable_samples",
];

/// Method names that record into a ledger counter when called.
const COUNT_CALLS: &[&str] = &["count", "record", "record_shed"];

/// Method/function names that hand the datagram to another consuming
/// function, transferring the accounting obligation.
const TRANSFER_CALLS: &[&str] = &[
    "ingest",
    "ingest_inner",
    "ingest_sample",
    "ingest_view",
    "evaluate_sample",
    "offer",
    "push",
    "push_back",
];

/// Crates whose `src/` trees carry the conservation obligation.
fn in_scope(path: &str) -> bool {
    path.starts_with("crates/sflow/src/")
        || path.starts_with("crates/supervisor/src/")
        || path.starts_with("crates/core/src/")
        || path.starts_with("crates/transport/src/")
}

/// True when `fi.name` marks a datagram-consuming entry point.
fn consuming_name(name: &str) -> bool {
    name == "offer" || name.starts_with("ingest")
}

/// True when `toks[i]` is an accounting event site (see module docs).
fn is_event(toks: &[Token], i: usize) -> bool {
    let Kind::Ident(name) = &toks[i].kind else { return false };
    // Counter bump: `<field> += ...` (`+=` lexes as two puncts).
    if COUNTER_FIELDS.contains(&name.as_str())
        && matches!(toks.get(i + 1).map(|t| &t.kind), Some(Kind::Punct('+')))
        && matches!(toks.get(i + 2).map(|t| &t.kind), Some(Kind::Punct('=')))
    {
        return true;
    }
    let called = matches!(toks.get(i + 1).map(|t| &t.kind), Some(Kind::Punct('(')));
    if !called {
        return false;
    }
    let after_dot =
        i > 0 && matches!(toks[i - 1].kind, Kind::Punct('.'));
    let after_path =
        i > 0 && matches!(toks[i - 1].kind, Kind::Punct('.') | Kind::PathSep);
    (after_dot && COUNT_CALLS.contains(&name.as_str()))
        || (after_path && TRANSFER_CALLS.contains(&name.as_str()))
}

/// Run the pass over the workspace.
pub fn check(files: &[ParsedFile], lexed: &[Lexed], out: &mut Vec<Finding>) {
    for (fi, file) in files.iter().enumerate() {
        if !in_scope(&file.path) {
            continue;
        }
        let toks = &lexed[fi].tokens;
        for f in &file.fns {
            if f.in_test || !consuming_name(&f.name) {
                continue;
            }
            // A consuming function takes the datagram as a parameter;
            // accessors whose only parameter is `self` are exempt.
            if !f.params.iter().any(|p| p != "self") {
                continue;
            }
            let Some((b0, b1)) = f.body else { continue };
            let body = b0 + 1..b1.min(toks.len());
            // Gate: at least one accounting event anywhere in the body,
            // otherwise this fn does not participate in the conservation
            // system at all (e.g. a pure router or a test helper).
            if !body.clone().any(|i| is_event(toks, i)) {
                continue;
            }

            let mut counted = false;
            let mut tail_significant = false;
            for i in body {
                if is_event(toks, i) {
                    counted = true;
                    tail_significant = true;
                    continue;
                }
                match &toks[i].kind {
                    Kind::Ident(name) if name == "return" => {
                        if !counted {
                            out.push(Finding::at(
                                &file.path,
                                toks[i].line,
                                toks[i].col,
                                "unaccounted-drop",
                                &format!(
                                    "fn `{}` returns without recording the datagram in any \
                                     accounting bucket; every consumed datagram must increment \
                                     exactly one counter (or be transferred to a consuming fn) \
                                     before this exit",
                                    f.name
                                ),
                            ));
                        }
                        // The segment ends here; the next one starts clean.
                        counted = false;
                        tail_significant = false;
                    }
                    Kind::Ident(_)
                    | Kind::Int
                    | Kind::Float
                    | Kind::Str
                    | Kind::Char => tail_significant = true,
                    _ => {}
                }
            }
            // Falling off the end of the fn is an exit too: if the tail
            // segment does real work, it must have counted.
            if tail_significant && !counted {
                out.push(Finding::at(
                    &file.path,
                    f.line,
                    f.col,
                    "unaccounted-drop",
                    &format!(
                        "fn `{}` falls off its end without recording the datagram in any \
                         accounting bucket; the tail path must increment exactly one counter \
                         (or transfer to a consuming fn)",
                        f.name
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::scan_sources;

    fn scan(path: &str, src: &str) -> Vec<(u32, String)> {
        scan_sources(vec![(path.to_string(), src.to_string())])
            .into_iter()
            .filter(|f| f.rule == "unaccounted-drop")
            .map(|f| (f.line, f.message))
            .collect()
    }

    #[test]
    fn uncounted_early_return_is_flagged() {
        let src = "pub struct R { shed: u64, accepted: u64 }\n\
                   impl R {\n\
                   pub fn offer(&mut self, dg: Vec<u8>) -> bool {\n\
                   if dg.is_empty() {\n\
                   return false;\n\
                   }\n\
                   self.accepted += 1;\n\
                   true\n\
                   }\n\
                   }\n";
        let hits = scan("crates/supervisor/src/r.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, 5);
    }

    #[test]
    fn counted_paths_and_transfers_are_clean() {
        let src = "pub struct R { shed: u64, accepted: u64 }\n\
                   impl R {\n\
                   pub fn offer(&mut self, dg: Vec<u8>) -> bool {\n\
                   if dg.is_empty() {\n\
                   self.shed += 1;\n\
                   return false;\n\
                   }\n\
                   self.inner.offer(dg);\n\
                   true\n\
                   }\n\
                   }\n";
        assert!(scan("crates/supervisor/src/r.rs", src).is_empty());
    }

    #[test]
    fn a_metric_bump_alone_does_not_account_for_a_drop() {
        let src = "pub struct R { shed: u64 }\n\
                   impl R {\n\
                   pub fn offer(&mut self, dg: Vec<u8>) -> bool {\n\
                   if dg.is_empty() {\n\
                   self.metrics.shed.inc();\n\
                   return false;\n\
                   }\n\
                   self.shed += 1;\n\
                   false\n\
                   }\n\
                   }\n";
        let hits = scan("crates/supervisor/src/r.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, 6);
    }

    #[test]
    fn uncounted_tail_is_flagged() {
        let src = "pub struct R { shed: u64 }\n\
                   impl R {\n\
                   pub fn ingest(&mut self, dg: &[u8]) {\n\
                   if dg.is_empty() {\n\
                   self.shed += 1;\n\
                   return;\n\
                   }\n\
                   let _n = dg.len();\n\
                   }\n\
                   }\n";
        let hits = scan("crates/sflow/src/r.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
    }

    #[test]
    fn accessors_and_out_of_scope_files_are_exempt() {
        // No non-self param: accessor, exempt even with a bare return.
        let src = "impl H { pub fn ingested(&self) -> u64 {\n\
                   return self.a;\n\
                   } }\n";
        assert!(scan("crates/core/src/h.rs", src).is_empty());
        // Same consuming shape, but outside the conservation scope.
        let src2 = "pub struct R { shed: u64 }\n\
                    impl R { pub fn offer(&mut self, d: u8) -> bool {\n\
                    if d == 0 { return false; }\n\
                    self.shed += 1;\n\
                    true\n\
                    } }\n";
        assert!(scan("crates/dns/src/r.rs", src2).is_empty());
    }

    #[test]
    fn event_free_consuming_fns_are_not_analyzed() {
        // Gate: no accounting event at all => not part of the system.
        let src = "pub fn ingest_name(s: &str) -> bool {\n\
                   if s.is_empty() { return false; }\n\
                   true\n\
                   }\n";
        assert!(scan("crates/core/src/n.rs", src).is_empty());
    }

    #[test]
    fn allow_directive_vouches_a_site() {
        let src = "pub struct R { shed: u64 }\n\
                   impl R {\n\
                   pub fn offer(&mut self, dg: Vec<u8>) -> bool {\n\
                   if dg.is_empty() {\n\
                   / ixp-lint: allow(unaccounted-drop) probe datagram, not stream data\n\
                   return false;\n\
                   }\n\
                   self.shed += 1;\n\
                   false\n\
                   }\n\
                   }\n";
        let src = src.replace("/ ixp-lint", "// ixp-lint");
        assert!(scan("crates/supervisor/src/r.rs", &src).is_empty());
    }
}
