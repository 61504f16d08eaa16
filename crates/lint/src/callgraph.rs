//! L5 — panic reachability over the workspace call graph.
//!
//! Builds the intra-workspace call graph from the parsed files and
//! computes the transitive can-panic set by fixpoint. Every unrestricted
//! `pub fn` in the stream-facing crates ([`crate::rules::stream_facing`]:
//! `ixp-wire`, `ixp-sflow`, `ixp-faults`, `ixp-supervisor`,
//! `ixp-transport`, `ixp-obsd`) must be transitively panic-free: a panic
//! *anywhere* in its workspace call chain — including helpers in other
//! crates — is a `panic-path` finding, reported at the `pub fn` with the
//! offending chain spelled out.
//!
//! Division of labour with the compiler: inside the stream-facing crates
//! an `.unwrap()`, `.expect()`, `panic!`-family macro or `[..]` site is
//! clippy's (the contract line that opens each `lib.rs`, DESIGN.md §8) —
//! either a build error or carrying a reasoned `#[allow]`, by which the
//! author vouches that it cannot fire. L5 therefore seeds the graph there
//! from the assert family only, which no clippy lint covers, and from
//! every panic site everywhere else.

use std::collections::HashMap;

use crate::parser::ParsedFile;
use crate::symbols::{FnRef, SymbolTable};
use crate::{FileAllows, Finding};

/// Why a function can panic: an unvouched local site, or a call into a
/// function that can.
#[derive(Debug, Clone, Copy)]
enum Witness {
    /// Index into the function's own panic-site list.
    Local(usize),
    /// The panicking callee and the call's source line.
    Call(FnRef, u32),
}

/// Maximum chain length spelled out in a finding message.
const TRACE_CAP: usize = 6;

/// Run the pass: push `panic-path` findings for in-scope public functions
/// that are not transitively panic-free.
pub(crate) fn check(
    files: &[ParsedFile],
    table: &SymbolTable,
    allows: &HashMap<String, FileAllows>,
    out: &mut Vec<Finding>,
) {
    // The first unvouched local panic site and the resolved call edges, per
    // function.
    let mut edges: HashMap<FnRef, Vec<(FnRef, u32)>> = HashMap::new();
    let mut witness: HashMap<FnRef, Witness> = HashMap::new();

    for (fi, file) in files.iter().enumerate() {
        let fa = allows.get(&file.path);
        let asserts_only = crate::rules::stream_facing(&file.path);
        for (xi, f) in file.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            let id: FnRef = (fi, xi);
            let seed = f.panics.iter().position(|site| {
                (site.is_assert || !asserts_only)
                    && !fa.is_some_and(|fa| fa.suppresses("panic-path", site.line))
            });
            if let Some(si) = seed {
                witness.insert(id, Witness::Local(si));
            }
            let mut callees = Vec::new();
            for call in &f.calls {
                for tgt in table.resolve(call, file, f) {
                    // Calls into test-only code cannot happen at runtime.
                    let callee_is_test = files
                        .get(tgt.0)
                        .and_then(|fl| fl.fns.get(tgt.1))
                        .is_some_and(|g| g.in_test);
                    if tgt != id && !callee_is_test {
                        callees.push((tgt, call.line));
                    }
                }
            }
            edges.insert(id, callees);
        }
    }

    // Fixpoint: a caller of a can-panic function can panic.
    loop {
        let mut changed = false;
        for (&id, callees) in &edges {
            if witness.contains_key(&id) {
                continue;
            }
            if let Some(&(tgt, line)) = callees.iter().find(|(t, _)| witness.contains_key(t)) {
                witness.insert(id, Witness::Call(tgt, line));
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    for (fi, file) in files.iter().enumerate() {
        if !crate::rules::stream_facing(&file.path) {
            continue;
        }
        for (xi, f) in file.fns.iter().enumerate() {
            if !f.is_pub || f.in_test {
                continue;
            }
            let id: FnRef = (fi, xi);
            let Some(&w) = witness.get(&id) else { continue };
            // Prefer a call chain in the message: it is the part no
            // per-crate lint can see. Fall back to the local assert site.
            let start = edges
                .get(&id)
                .and_then(|cs| cs.iter().find(|(t, _)| witness.contains_key(t)))
                .map_or(w, |&(t, line)| Witness::Call(t, line));
            let trace = render_trace(files, &witness, id, start);
            out.push(Finding::at(
                &file.path,
                f.line,
                f.col,
                "panic-path",
                &format!("pub fn `{}` is not transitively panic-free: {trace}", f.name),
            ));
        }
    }
}

/// Spell out the panic chain starting from `start` inside function `id`.
fn render_trace(
    files: &[ParsedFile],
    witness: &HashMap<FnRef, Witness>,
    id: FnRef,
    start: Witness,
) -> String {
    let mut msg = String::new();
    let mut cur_fn = id;
    let mut cur = start;
    let mut visited: Vec<FnRef> = vec![id];
    for hop in 0..TRACE_CAP {
        match cur {
            Witness::Local(si) => {
                let site = files
                    .get(cur_fn.0)
                    .and_then(|f| f.fns.get(cur_fn.1))
                    .and_then(|f| f.panics.get(si));
                let (what, line) = site.map(|s| (s.what, s.line)).unwrap_or(("a panic", 0));
                let file = files.get(cur_fn.0).map(|f| f.path.as_str()).unwrap_or("?");
                if hop == 0 {
                    msg.push_str(&format!("{what} at line {line}"));
                } else {
                    msg.push_str(&format!(", which does {what} ({file}:{line})"));
                }
                return msg;
            }
            Witness::Call(tgt, line) => {
                let callee =
                    files.get(tgt.0).and_then(|f| f.fns.get(tgt.1)).map(|f| f.name.as_str());
                let file = files.get(cur_fn.0).map(|f| f.path.as_str()).unwrap_or("?");
                let verb = if hop == 0 { "calls" } else { ", which calls" };
                msg.push_str(&format!("{verb} `{}` ({file}:{line})", callee.unwrap_or("?")));
                if visited.contains(&tgt) {
                    msg.push_str(" (recursive)");
                    return msg;
                }
                visited.push(tgt);
                cur_fn = tgt;
                match witness.get(&tgt) {
                    Some(&w) => cur = w,
                    None => return msg,
                }
            }
        }
    }
    msg.push_str(", ...");
    msg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let parsed: Vec<ParsedFile> = files.iter().map(|(p, s)| parse(p, &lex(s))).collect();
        let table = SymbolTable::build(&parsed);
        let mut allows = HashMap::new();
        let mut dir_findings = Vec::new();
        for (p, s) in files {
            let lexed = lex(s);
            allows.insert(
                p.to_string(),
                crate::parse_directives(p, &lexed, &mut dir_findings),
            );
        }
        let mut out = Vec::new();
        check(&parsed, &table, &allows, &mut out);
        out
    }

    #[test]
    fn transitive_panic_through_another_crate_is_reported() {
        let got = run(&[
            ("crates/core/src/util.rs", "pub fn pick(b: &[u8]) -> u8 { b[7] }"),
            (
                "crates/wire/src/lib.rs",
                "use ixp_core::util::pick;\npub fn first(b: &[u8]) -> u8 { pick(b) }",
            ),
        ]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rule, "panic-path");
        assert_eq!(got[0].file, "crates/wire/src/lib.rs");
        assert!(got[0].message.contains("calls `pick`"), "{}", got[0].message);
        assert!(got[0].message.contains("indexing"), "{}", got[0].message);
    }

    #[test]
    fn clippy_owned_sites_in_stream_facing_crates_are_not_rereported() {
        let got = run(&[(
            "crates/wire/src/lib.rs",
            "pub fn bad(o: Option<u8>, b: &[u8]) -> u8 { o.unwrap() + b[0] + via(b) }\nfn via(b: &[u8]) -> u8 { b[1] }",
        )]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn local_assert_family_is_reported() {
        let got = run(&[(
            "crates/sflow/src/lib.rs",
            "pub fn f(n: usize) { assert!(n > 0); }",
        )]);
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("`assert!`"), "{}", got[0].message);
    }

    #[test]
    fn vouched_sites_do_not_propagate() {
        let got = run(&[
            (
                "crates/core/src/acc.rs",
                "pub fn field(b: &[u8]) -> u8 {\n    b[0] // ixp-lint: allow(panic-path) caller validated length\n}",
            ),
            ("crates/wire/src/lib.rs", "use ixp_core::acc::field;\npub fn go(b: &[u8]) -> u8 { field(b) }"),
        ]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn private_and_out_of_scope_fns_are_not_reported() {
        let got = run(&[
            ("crates/core/src/lib.rs", "pub fn risky(b: &[u8]) -> u8 { b[0] }"),
            ("crates/wire/src/lib.rs", "fn private(b: &[u8]) -> u8 { helper(b) }\nfn helper(b: &[u8]) -> u8 { b[1] }"),
        ]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn recursion_terminates_and_reports() {
        let got = run(&[(
            "crates/wire/src/lib.rs",
            "pub fn a(n: usize) { if n > 0 { b(n) } }\nfn b(n: usize) { assert!(n < 10); a(n - 1); }",
        )]);
        assert_eq!(got.len(), 1);
        assert!(got[0].message.contains("calls `b`"), "{}", got[0].message);
    }
}
