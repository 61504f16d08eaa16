//! L8 — merge determinism on the concurrent paths the workspace has.
//!
//! Two analyses over the parsed item tree and the workspace call graph
//! (DESIGN.md §8):
//!
//! * `atomic-ordering`: `Relaxed` loads reachable from snapshot/report
//!   entry points.
//! * `order-dependent-merge`: channel-drain loops folding with float `+=`
//!   or unsorted `push`.
//!
//! Scope: every crate `src/` tree (the L4 scope). Test items are exempt.

use std::collections::{BTreeSet, HashMap, VecDeque};

use crate::lexer::{Kind, Lexed, Token};
use crate::parser::{FnItem, ParsedFile};
use crate::rules;
use crate::symbols::{FnRef, SymbolTable};
use crate::Finding;

/// The `.`-separated identifier chain ending just before the method name
/// at token `tok` (`a.b.push(v)` at `push` → `["a", "b"]`). Empty when the
/// receiver is not a plain ident chain (call results, indexing, ...).
fn receiver_chain(toks: &[Token], tok: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut j = tok;
    // Walk back over `Ident .` pairs.
    while j >= 2
        && matches!(toks.get(j - 1).map(|t| &t.kind), Some(Kind::Punct('.')))
    {
        match toks.get(j - 2).map(|t| &t.kind) {
            Some(Kind::Ident(id)) => {
                chain.insert(0, id.clone());
                j -= 2;
            }
            _ => return Vec::new(),
        }
    }
    chain
}

/// Index just past the statement containing token `from`: the first `;` at
/// non-nested depth, or the index where depth goes negative (end of the
/// enclosing block/paren), capped at `limit`.
fn statement_end(toks: &[Token], from: usize, limit: usize) -> usize {
    let mut depth = 0i32;
    let mut j = from;
    while j < limit {
        match toks.get(j).map(|t| &t.kind) {
            Some(Kind::Punct('(' | '[' | '{')) => depth += 1,
            Some(Kind::Punct(')' | ']' | '}')) => {
                depth -= 1;
                if depth < 0 {
                    return j;
                }
            }
            Some(Kind::Punct(';')) if depth <= 0 => return j,
            _ => {}
        }
        j += 1;
    }
    limit
}

/// Index of the `}` closing the block that token `from` sits in, capped at
/// `limit`.
fn block_end(toks: &[Token], from: usize, limit: usize) -> usize {
    let mut depth = 0i32;
    let mut j = from;
    while j < limit {
        match toks.get(j).map(|t| &t.kind) {
            Some(Kind::Punct('{')) => depth += 1,
            Some(Kind::Punct('}')) => {
                if depth == 0 {
                    return j;
                }
                depth -= 1;
            }
            _ => {}
        }
        j += 1;
    }
    limit
}

/// Run every L8 analysis. `files`, `lexed` are parallel (same indices);
/// findings are appended unsorted (the caller sorts globally).
pub fn check(
    files: &[ParsedFile],
    lexed: &[Lexed],
    table: &SymbolTable,
    out: &mut Vec<Finding>,
) {
    for (fi, file) in files.iter().enumerate() {
        if !rules::l4_applies(&file.path) {
            continue;
        }
        for f in file.fns.iter().filter(|f| !f.in_test) {
            order_dependent_merge(&lexed[fi], file, f, out);
        }
    }
    atomic_ordering(files, lexed, table, out);
}

/// Report `Ordering::Relaxed` loads in functions reachable from
/// snapshot/report/export entry points.
fn atomic_ordering(
    files: &[ParsedFile],
    lexed: &[Lexed],
    table: &SymbolTable,
    out: &mut Vec<Finding>,
) {
    let is_seed = |f: &FnItem| {
        let n = f.name.as_str();
        n == "snapshot"
            || n == "render"
            || n.starts_with("snapshot_")
            || n.starts_with("render_")
            || n.starts_with("export")
            || n.starts_with("report")
            || n.starts_with("emit")
    };
    // BFS from every seed, remembering one parent per function for traces.
    let mut parent: HashMap<FnRef, Option<FnRef>> = HashMap::new();
    let mut queue: VecDeque<FnRef> = VecDeque::new();
    for (fi, file) in files.iter().enumerate() {
        if !rules::l4_applies(&file.path) {
            continue;
        }
        for (xi, f) in file.fns.iter().enumerate() {
            if !f.in_test && is_seed(f) {
                parent.entry((fi, xi)).or_insert(None);
                queue.push_back((fi, xi));
            }
        }
    }
    while let Some((fi, xi)) = queue.pop_front() {
        let f = &files[fi].fns[xi];
        for c in &f.calls {
            for r in table.resolve_unfiltered(c, &files[fi], f) {
                if files[r.0].fns[r.1].in_test || parent.contains_key(&r) {
                    continue;
                }
                parent.insert(r, Some((fi, xi)));
                queue.push_back(r);
            }
        }
    }
    let mut reachable: Vec<FnRef> = parent.keys().copied().collect();
    reachable.sort_unstable();
    for (fi, xi) in reachable {
        let file = &files[fi];
        if !rules::l4_applies(&file.path) {
            continue;
        }
        let f = &file.fns[xi];
        let toks = &lexed[fi].tokens;
        for c in &f.calls {
            if !matches!(c.path.last().map(String::as_str), Some("load" | "fetch_update")) {
                continue;
            }
            for &(s, e) in &c.args {
                for (ti, t) in toks[s.min(toks.len())..e.min(toks.len())].iter().enumerate() {
                    let _ = ti;
                    if !matches!(&t.kind, Kind::Ident(id) if id == "Relaxed") {
                        continue;
                    }
                    // Walk parents back to the seed for the trace.
                    let mut chain = vec![f.name.clone()];
                    let mut cur = (fi, xi);
                    while let Some(Some(p)) = parent.get(&cur) {
                        chain.push(files[p.0].fns[p.1].name.clone());
                        cur = *p;
                        if chain.len() >= 6 {
                            break;
                        }
                    }
                    chain.reverse();
                    out.push(Finding::at(
                        &file.path,
                        t.line,
                        t.col,
                        "atomic-ordering",
                        &format!(
                            "`Ordering::Relaxed` load on a snapshot/report path \
                             (reached via {}); use at least `Ordering::Acquire`",
                            chain.join(" → ")
                        ),
                    ));
                }
            }
        }
    }
}

/// Report order-dependent folds inside channel-drain loops.
fn order_dependent_merge(
    lexed: &Lexed,
    file: &ParsedFile,
    f: &FnItem,
    out: &mut Vec<Finding>,
) {
    let toks = &lexed.tokens;
    let Some((body_open, body_close)) = f.body else { return };
    let body_limit = body_close.saturating_sub(1);

    // Float-typed locals: a `let` whose statement mentions a float literal
    // or an f32/f64 annotation.
    let mut float_locals: BTreeSet<String> = BTreeSet::new();
    let mut i = body_open + 1;
    while i < body_limit {
        if matches!(&toks[i].kind, Kind::Ident(id) if id == "let") {
            let mut j = i + 1;
            if matches!(toks.get(j).map(|t| &t.kind), Some(Kind::Ident(id)) if id == "mut") {
                j += 1;
            }
            if let Some(Kind::Ident(name)) = toks.get(j).map(|t| &t.kind) {
                let end = statement_end(toks, j, body_limit);
                let floaty = toks[j..end].iter().any(|t| {
                    matches!(t.kind, Kind::Float)
                        || matches!(&t.kind, Kind::Ident(id) if id == "f64" || id == "f32")
                });
                if floaty {
                    float_locals.insert(name.clone());
                }
                i = end.max(i + 1);
                continue;
            }
        }
        i += 1;
    }

    // Drain regions: `while`/`loop` whose extent contains `.recv(` or
    // `.try_recv(`.
    let mut i = body_open + 1;
    while i < body_limit {
        let is_loop_kw =
            matches!(&toks[i].kind, Kind::Ident(id) if id == "while" || id == "loop");
        if !is_loop_kw {
            i += 1;
            continue;
        }
        // The region runs from the keyword (so the `while let ... = rx
        // .recv()` condition counts) to the end of the loop body.
        let open = (i..body_limit)
            .find(|&j| matches!(toks[j].kind, Kind::Punct('{')))
            .unwrap_or(body_limit);
        let close = if open < body_limit {
            block_end(toks, open + 1, body_limit)
        } else {
            body_limit
        };
        let region = &toks[i..close.min(toks.len())];
        let drains = region.windows(3).any(|w| {
            matches!(&w[0].kind, Kind::Punct('.'))
                && matches!(&w[1].kind, Kind::Ident(id) if id == "recv" || id == "try_recv")
                && matches!(&w[2].kind, Kind::Punct('('))
        });
        if !drains {
            i = close.max(i + 1);
            continue;
        }
        for (off, t) in region.iter().enumerate() {
            let j = i + off;
            match &t.kind {
                // `sum += v;` / `prod *= v;` on a float local.
                Kind::Ident(id) if float_locals.contains(id) => {
                    let op = toks.get(j + 1).map(|t| &t.kind);
                    let eq = toks.get(j + 2).map(|t| &t.kind);
                    if matches!(op, Some(Kind::Punct('+' | '*')))
                        && matches!(eq, Some(Kind::Punct('=')))
                    {
                        out.push(Finding::at(
                            &file.path,
                            t.line,
                            t.col,
                            "order-dependent-merge",
                            &format!(
                                "float accumulation `{id} {}=` inside a channel-drain loop \
                                 depends on arrival order; use an integer accumulator or \
                                 merge per-shard partials in a fixed order",
                                match op {
                                    Some(Kind::Punct(c)) => *c,
                                    _ => '+',
                                }
                            ),
                        ));
                    }
                }
                // `out.push(v)` / `out.extend(vs)` with no later sort.
                Kind::Ident(id)
                    if matches!(id.as_str(), "push" | "push_str" | "extend")
                        && matches!(
                            j.checked_sub(1).and_then(|p| toks.get(p)).map(|t| &t.kind),
                            Some(Kind::Punct('.'))
                        )
                        && matches!(toks.get(j + 1).map(|t| &t.kind), Some(Kind::Punct('('))) =>
                {
                    let chain = receiver_chain(toks, j);
                    let Some(recv) = chain.iter().rev().find(|s| *s != "self") else {
                        continue;
                    };
                    let sorted_later = (j..body_limit.saturating_sub(3)).any(|k| {
                        matches!(&toks[k].kind, Kind::Ident(id) if id == recv)
                            && matches!(&toks[k + 1].kind, Kind::Punct('.'))
                            && matches!(&toks[k + 2].kind, Kind::Ident(m) if m.starts_with("sort"))
                    });
                    if !sorted_later {
                        out.push(Finding::at(
                            &file.path,
                            t.line,
                            t.col,
                            "order-dependent-merge",
                            &format!(
                                "`{recv}.{id}(..)` inside a channel-drain loop leaks arrival \
                                 order into the result; sort `{recv}` afterwards or use \
                                 index-keyed slots"
                            ),
                        ));
                    }
                }
                _ => {}
            }
        }
        i = close.max(i + 1);
    }
}

#[cfg(test)]
mod tests {
    use crate::scan_sources;
    use crate::Finding;

    /// Scan sources and keep only L8 findings.
    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        scan_sources(files.iter().map(|(p, s)| (p.to_string(), s.to_string())))
            .into_iter()
            .filter(|f| matches!(f.rule, "atomic-ordering" | "order-dependent-merge"))
            .collect()
    }

    #[test]
    fn relaxed_load_on_snapshot_path_direct_and_via_helper() {
        let got = run(&[(
            "crates/a/src/lib.rs",
            "pub fn snapshot(c: &AtomicU64) -> u64 {\n    c.load(Ordering::Relaxed)\n}\npub fn snapshot_all(c: &AtomicU64) -> u64 {\n    peek(c)\n}\nfn peek(c: &AtomicU64) -> u64 {\n    c.load(Ordering::Relaxed)\n}\n",
        )]);
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got.iter().all(|f| f.rule == "atomic-ordering"));
        let via = got.iter().find(|f| f.message.contains("peek")).unwrap();
        assert!(via.message.contains("snapshot_all → peek"), "{}", via.message);
    }

    #[test]
    fn relaxed_writers_and_unreachable_fns_are_clean() {
        let got = run(&[(
            "crates/a/src/lib.rs",
            "pub fn snapshot(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\npub fn unrelated(c: &AtomicU64) -> u64 {\n    c.load(Ordering::Relaxed)\n}\npub fn acquire_ok(c: &AtomicU64) -> u64 {\n    c.load(Ordering::Acquire)\n}\n",
        )]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn float_accumulation_and_unsorted_push_in_drain_loop() {
        let got = run(&[(
            "crates/a/src/lib.rs",
            "pub fn merge(rx: &Receiver<f64>) -> (f64, Vec<u64>) {\n    let mut sum = 0.0;\n    let mut tags = Vec::new();\n    while let Ok(v) = rx.recv() {\n        sum += v;\n        tags.push(1u64);\n    }\n    (sum, tags)\n}\n",
        )]);
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got.iter().all(|f| f.rule == "order-dependent-merge"));
        assert!(got.iter().any(|f| f.message.contains("sum")));
        assert!(got.iter().any(|f| f.message.contains("tags.push")));
    }

    #[test]
    fn sorted_push_and_index_keyed_merge_are_clean() {
        let got = run(&[(
            "crates/a/src/lib.rs",
            "pub fn merge(rx: &Receiver<u64>, slots: &mut [u64]) -> Vec<u64> {\n    let mut out = Vec::new();\n    let mut i = 0;\n    while let Ok(v) = rx.recv() {\n        out.push(v);\n        slots[i] = v;\n        i += 1;\n    }\n    out.sort_unstable();\n    out\n}\n",
        )]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn test_code_and_out_of_scope_files_are_exempt() {
        let src = "pub fn snapshot(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\n";
        let got = run(&[("crates/a/examples/demo.rs", src)]);
        assert!(got.is_empty(), "{got:?}");
        let test_src = "#[cfg(test)]\nmod tests {\n    pub fn snapshot(c: &AtomicU64) -> u64 { c.load(Ordering::Relaxed) }\n}\n";
        let got = run(&[("crates/a/src/lib.rs", test_src)]);
        assert!(got.is_empty(), "{got:?}");
    }
}
