//! L6 — wire-taint overflow analysis.
//!
//! Values decoded from the wire are attacker-controlled: a length or
//! counter read by the XDR/wire decoders can be anything a datagram can
//! carry. This pass marks such values *tainted* and flags the places
//! where a tainted value reaches arithmetic that can overflow-panic (in
//! debug) or silently wrap (in release), or sizes an allocation or slice
//! operation:
//!
//! * `tainted-capacity` — a tainted value as the `with_capacity` argument;
//! * `tainted-arith`    — a tainted operand of unchecked `+`, `+=`, `*`,
//!   `*=`, or a tainted shift amount of `<<`;
//! * `tainted-slice-len` — a tainted value inside an index/slice bracket.
//!
//! Taint sources are decoder reads (`.u32()`, `.opaque()`,
//! `from_be_bytes`, ...) and the decoded-header field names of the sFlow
//! structs. Flowing a value through `checked_*`/`saturating_*`/
//! `wrapping_*`, `min`/`clamp`, or `try_from`/`try_into` sanitizes it.
//! Taint crosses function boundaries: a call argument that is tainted at
//! any call site taints the callee's parameter (computed by fixpoint over
//! the call graph), which is how scaling helpers like
//! `accounting::add_raw` inherit taint from decoded samples.
//!
//! Scope: the stream-facing crates ([`crate::rules::stream_facing`]).

use std::collections::{HashMap, HashSet};

use crate::lexer::{Kind, Lexed, Token};
use crate::parser::{FnItem, ParsedFile};
use crate::symbols::{FnRef, SymbolTable};
use crate::Finding;

/// Decoder methods whose return value is wire-controlled.
const SEED_METHODS: &[&str] = &["u8", "u16", "u32", "u64", "i32", "i64", "opaque"];

/// Free/associated functions whose result is wire-controlled.
const SEED_FNS: &[&str] = &["from_be_bytes", "from_le_bytes", "from_ne_bytes"];

/// Decoded-struct field names treated as wire-controlled wherever they
/// are read via `.field`.
const WIRE_FIELDS: &[&str] = &[
    "sampling_rate",
    "frame_length",
    "stripped",
    "sequence",
    "source_id",
    "sample_pool",
    "drops",
    "input_if",
    "output_if",
    "uptime_ms",
    "sub_agent_id",
    "if_index",
    "if_speed",
    "if_in_octets",
    "if_in_ucast",
    "if_out_octets",
    "if_out_ucast",
    "header",
    "protocol",
];

/// Exact sanitizer names (prefix families are matched separately).
const SANITIZER_EXACT: &[&str] = &["min", "clamp", "try_from", "try_into", "rem_euclid"];

/// Collection-lookup methods that *launder* taint: the value they return
/// belongs to the collection, not to the (possibly wire-controlled) key
/// used to find it. Without this, `map.entry(tainted_key)` would taint the
/// looked-up entry handle and every counter bumped through it.
const LAUNDER_METHODS: &[&str] = &["entry", "or_insert", "or_insert_with", "or_default", "get_mut"];

fn is_sanitizer(name: &str) -> bool {
    name.starts_with("checked_")
        || name.starts_with("saturating_")
        || name.starts_with("wrapping_")
        || name.starts_with("overflowing_")
        || SANITIZER_EXACT.contains(&name)
        || LAUNDER_METHODS.contains(&name)
}

/// Does the token range contain a taint source or a tainted identifier?
fn range_tainted(toks: &[Token], range: (usize, usize), tainted: &HashSet<String>) -> bool {
    let (start, end) = range;
    let mut i = start;
    while i < end {
        let Some(t) = toks.get(i) else { break };
        if let Kind::Ident(name) = &t.kind {
            let after_dot =
                i.checked_sub(1).and_then(|j| toks.get(j)).map(|p| &p.kind) == Some(&Kind::Punct('.'));
            let before_paren = toks.get(i + 1).map(|n| &n.kind) == Some(&Kind::Punct('('));
            if after_dot && before_paren && SEED_METHODS.contains(&name.as_str()) {
                return true;
            }
            if before_paren && SEED_FNS.contains(&name.as_str()) {
                return true;
            }
            if after_dot && !before_paren && WIRE_FIELDS.contains(&name.as_str()) {
                return true;
            }
            if !after_dot && tainted.contains(name.as_str()) {
                return true;
            }
        }
        i += 1;
    }
    false
}

/// Does the token range pass through a sanitizer?
fn range_sanitized(toks: &[Token], range: (usize, usize)) -> bool {
    let (start, end) = range;
    (start..end).any(|i| {
        matches!(toks.get(i).map(|t| &t.kind), Some(Kind::Ident(n)) if is_sanitizer(n))
    })
}

/// Skip forward past a balanced bracket pair opening at `i`.
fn skip_fwd(toks: &[Token], mut i: usize, open: char, close: char) -> usize {
    let mut depth = 0i32;
    while let Some(t) = toks.get(i) {
        match &t.kind {
            Kind::Punct(c) if *c == open => depth += 1,
            Kind::Punct(c) if *c == close => {
                depth -= 1;
                if depth <= 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Extract the primary expression to the *right* of the operator at `op`
/// (exclusive), bounded by `end`. Returns a token range.
fn operand_right(toks: &[Token], op: usize, end: usize) -> (usize, usize) {
    let mut i = op + 1;
    // Unary prefixes.
    while matches!(toks.get(i).map(|t| &t.kind), Some(Kind::Punct('&' | '*' | '-' | '!'))) {
        i += 1;
    }
    let start = i;
    while i < end {
        match toks.get(i).map(|t| &t.kind) {
            Some(Kind::Punct('(')) => i = skip_fwd(toks, i, '(', ')'),
            Some(Kind::Punct('[')) => i = skip_fwd(toks, i, '[', ']'),
            Some(Kind::Ident(id)) if id == "as" => i += 1,
            Some(Kind::Ident(_)) | Some(Kind::Int) | Some(Kind::Float) => i += 1,
            Some(Kind::Punct('.' | '?')) | Some(Kind::PathSep) => i += 1,
            _ => break,
        }
    }
    (start, i.max(start))
}

/// Extract the primary expression to the *left* of the operator at `op`
/// (exclusive), bounded below by `start`. Returns a token range.
fn operand_left(toks: &[Token], op: usize, start: usize) -> (usize, usize) {
    let i = op; // exclusive upper bound
    let mut j = op;
    while j > start {
        let prev = j - 1;
        match toks.get(prev).map(|t| &t.kind) {
            Some(Kind::Punct(')')) => j = rskip(toks, prev, '(', ')', start),
            Some(Kind::Punct(']')) => j = rskip(toks, prev, '[', ']', start),
            Some(Kind::Ident(id)) if id == "as" => j = prev,
            Some(Kind::Ident(id))
                if crate::rules::NON_INDEXABLE_KEYWORDS.contains(&id.as_str()) =>
            {
                break;
            }
            Some(Kind::Ident(_)) | Some(Kind::Int) | Some(Kind::Float) => j = prev,
            Some(Kind::Punct('.' | '?')) | Some(Kind::PathSep) => j = prev,
            _ => break,
        }
    }
    if j > i {
        j = i;
    }
    (j, i)
}

/// Skip backward past a balanced bracket pair closing at `close_idx`.
/// Returns the index of the opener.
fn rskip(toks: &[Token], close_idx: usize, open: char, close: char, floor: usize) -> usize {
    let mut depth = 0i32;
    let mut j = close_idx;
    loop {
        match toks.get(j).map(|t| &t.kind) {
            Some(Kind::Punct(c)) if *c == close => depth += 1,
            Some(Kind::Punct(c)) if *c == open => {
                depth -= 1;
                if depth <= 0 {
                    return j;
                }
            }
            _ => {}
        }
        if j <= floor {
            return j;
        }
        j -= 1;
    }
}

/// Compute the set of tainted local names inside one function body.
/// `param_taint` carries the interprocedural parameter verdicts.
fn tainted_locals(toks: &[Token], f: &FnItem, param_taint: &[bool]) -> HashSet<String> {
    let mut tainted: HashSet<String> = HashSet::new();
    for (name, &is_tainted) in f.params.iter().zip(param_taint) {
        if is_tainted && name != "self" {
            tainted.insert(name.clone());
        }
    }
    let Some((body_start, body_end)) = f.body else { return tainted };
    // Two passes so taint flowing backward through a loop settles.
    for _ in 0..2 {
        let mut i = body_start;
        while i < body_end {
            if !matches!(toks.get(i).map(|t| &t.kind), Some(Kind::Ident(id)) if id == "let") {
                i += 1;
                continue;
            }
            // Binders: idents up to `:` or `=` at depth 0.
            let mut binders: Vec<String> = Vec::new();
            let mut j = i + 1;
            let mut depth = 0i32;
            while j < body_end {
                match toks.get(j).map(|t| &t.kind) {
                    Some(Kind::Punct('(' | '[' | '<')) => depth += 1,
                    Some(Kind::Punct(')' | ']' | '>')) => depth -= 1,
                    Some(Kind::Punct(':' | '=' | ';')) if depth <= 0 => break,
                    Some(Kind::Ident(id))
                        if !matches!(id.as_str(), "mut" | "ref" | "box") =>
                    {
                        binders.push(id.clone());
                    }
                    _ => {}
                }
                j += 1;
            }
            // Skip a type ascription to reach `=`.
            while j < body_end
                && !matches!(toks.get(j).map(|t| &t.kind), Some(Kind::Punct('=' | ';')))
            {
                j += 1;
            }
            if matches!(toks.get(j).map(|t| &t.kind), Some(Kind::Punct(';'))) || j >= body_end {
                i = j + 1;
                continue;
            }
            // RHS: from after `=` to the statement's `;` at depth 0.
            let rhs_start = j + 1;
            let mut k = rhs_start;
            let mut depth = 0i32;
            while k < body_end {
                match toks.get(k).map(|t| &t.kind) {
                    Some(Kind::Punct('(' | '[' | '{')) => depth += 1,
                    Some(Kind::Punct(')' | ']' | '}')) => depth -= 1,
                    Some(Kind::Punct(';')) if depth <= 0 => break,
                    _ => {}
                }
                k += 1;
            }
            let rhs = (rhs_start, k);
            if range_sanitized(toks, rhs) {
                for b in &binders {
                    tainted.remove(b);
                }
            } else if range_tainted(toks, rhs, &tainted) {
                for b in &binders {
                    tainted.insert(b.clone());
                }
            } else {
                // Rebinding to a clean value shadows earlier taint.
                for b in &binders {
                    tainted.remove(b);
                }
            }
            i = k + 1;
        }
    }
    tainted
}

/// Operator sinks inside one function; pushes findings.
fn check_sinks(
    path: &str,
    toks: &[Token],
    f: &FnItem,
    tainted: &HashSet<String>,
    out: &mut Vec<Finding>,
) {
    let Some((body_start, body_end)) = f.body else { return };
    let dirty = |range: (usize, usize)| {
        range_tainted(toks, range, tainted) && !range_sanitized(toks, range)
    };
    let mut i = body_start;
    while i < body_end {
        let Some(t) = toks.get(i) else { break };
        if t.in_test {
            i += 1;
            continue;
        }
        let prev = i.checked_sub(1).and_then(|j| toks.get(j)).map(|p| &p.kind);
        let next = toks.get(i + 1).map(|n| &n.kind);
        let binary_left = matches!(
            prev,
            Some(Kind::Punct(')' | ']' | '?')) | Some(Kind::Int) | Some(Kind::Float)
        ) || matches!(prev, Some(Kind::Ident(id))
            if !crate::rules::NON_INDEXABLE_KEYWORDS.contains(&id.as_str()));
        match &t.kind {
            Kind::Ident(name) if name == "with_capacity" => {
                if matches!(next, Some(Kind::Punct('('))) {
                    let close = skip_fwd(toks, i + 1, '(', ')');
                    let inner = (i + 2, close.saturating_sub(1));
                    if dirty(inner) {
                        out.push(Finding::at(
                            path,
                            t.line,
                            t.col,
                            "tainted-capacity",
                            "wire-tainted value sizes `with_capacity`; \
                             cap it against the remaining input first",
                        ));
                    }
                }
            }
            Kind::Punct(op @ ('+' | '*')) => {
                let compound = matches!(next, Some(Kind::Punct('=')));
                if *op == '*' && !binary_left {
                    // Dereference, not multiplication.
                    i += 1;
                    continue;
                }
                if !binary_left && !compound {
                    i += 1;
                    continue;
                }
                let left = operand_left(toks, i, body_start);
                let right_from = if compound { i + 1 } else { i };
                let right = operand_right(toks, right_from, body_end);
                if dirty(left) || dirty(right) {
                    let shown = if compound { format!("{op}=") } else { op.to_string() };
                    out.push(Finding::at(
                        path,
                        t.line,
                        t.col,
                        "tainted-arith",
                        &format!(
                            "wire-tainted operand of unchecked `{shown}`; \
                             use `checked_/saturating_` arithmetic or validate the bound"
                        ),
                    ));
                }
                if compound {
                    i += 2;
                    continue;
                }
            }
            Kind::Punct('<')
                if matches!(next, Some(Kind::Punct('<')))
                    && toks.get(i + 1).is_some_and(|n| n.line == t.line && n.col == t.col + 1) =>
            {
                let right = operand_right(toks, i + 1, body_end);
                if dirty(right) {
                    out.push(Finding::at(
                        path,
                        t.line,
                        t.col,
                        "tainted-arith",
                        "wire-tainted shift amount of `<<`; \
                         a shift by >= bit-width panics in debug and wraps in release",
                    ));
                }
                i += 2;
                continue;
            }
            Kind::Punct('[') => {
                let indexable = match prev {
                    Some(Kind::Ident(id)) => {
                        !crate::rules::NON_INDEXABLE_KEYWORDS.contains(&id.as_str())
                    }
                    Some(Kind::Punct(']' | ')' | '?')) | Some(Kind::Int) => true,
                    _ => false,
                };
                if indexable {
                    let close = skip_fwd(toks, i, '[', ']');
                    let inner = (i + 1, close.saturating_sub(1));
                    if dirty(inner) {
                        out.push(Finding::at(
                            path,
                            t.line,
                            t.col,
                            "tainted-slice-len",
                            "wire-tainted value in an index/slice bound; \
                             validate it against the buffer length first",
                        ));
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Run the pass over the workspace.
pub fn check(
    files: &[ParsedFile],
    lexed: &[Lexed],
    table: &SymbolTable,
    out: &mut Vec<Finding>,
) {
    let in_scope: Vec<bool> =
        files.iter().map(|f| crate::rules::stream_facing(&f.path)).collect();

    // Interprocedural parameter taint, by fixpoint over call sites.
    let mut param_taint: HashMap<FnRef, Vec<bool>> = HashMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (xi, f) in file.fns.iter().enumerate() {
            param_taint.insert((fi, xi), vec![false; f.params.len()]);
        }
    }
    for _round in 0..10 {
        let mut changed = false;
        for (fi, file) in files.iter().enumerate() {
            if !in_scope[fi] {
                continue;
            }
            let Some(lx) = lexed.get(fi) else { continue };
            for (xi, f) in file.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                let pt = param_taint.get(&(fi, xi)).cloned().unwrap_or_default();
                let tainted = tainted_locals(&lx.tokens, f, &pt);
                for call in &f.calls {
                    for tgt in table.resolve(call, file, f) {
                        if !in_scope.get(tgt.0).copied().unwrap_or(false) {
                            continue;
                        }
                        let callee_takes_self = files
                            .get(tgt.0)
                            .and_then(|fl| fl.fns.get(tgt.1))
                            .and_then(|g| g.params.first())
                            .is_some_and(|p| p == "self");
                        let offset = usize::from(call.is_method && callee_takes_self);
                        for (pos, &arg) in call.args.iter().enumerate() {
                            if range_tainted(&lx.tokens, arg, &tainted)
                                && !range_sanitized(&lx.tokens, arg)
                            {
                                if let Some(slots) = param_taint.get_mut(&tgt) {
                                    if let Some(slot) = slots.get_mut(pos + offset) {
                                        if !*slot {
                                            *slot = true;
                                            changed = true;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    for (fi, file) in files.iter().enumerate() {
        if !in_scope[fi] {
            continue;
        }
        let Some(lx) = lexed.get(fi) else { continue };
        for (xi, f) in file.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            let pt = param_taint.get(&(fi, xi)).cloned().unwrap_or_default();
            let tainted = tainted_locals(&lx.tokens, f, &pt);
            check_sinks(&file.path, &lx.tokens, f, &tainted, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn run(files: &[(&str, &str)]) -> Vec<(String, u32, &'static str)> {
        let lexeds: Vec<Lexed> = files.iter().map(|(_, s)| lex(s)).collect();
        let parsed: Vec<ParsedFile> =
            files.iter().zip(&lexeds).map(|((p, _), lx)| parse(p, lx)).collect();
        let table = SymbolTable::build(&parsed);
        let mut out = Vec::new();
        check(&parsed, &lexeds, &table, &mut out);
        out.into_iter().map(|f| (f.file, f.line, f.rule)).collect()
    }

    #[test]
    fn decoded_length_reaching_with_capacity_is_flagged() {
        let got = run(&[(
            "crates/sflow/src/x.rs",
            "fn f(r: &mut R) -> Vec<u8> {\n    let n = r.u32() as usize;\n    Vec::with_capacity(n)\n}",
        )]);
        assert_eq!(got, vec![("crates/sflow/src/x.rs".to_string(), 3, "tainted-capacity")]);
    }

    #[test]
    fn sanitized_length_is_clean() {
        let got = run(&[(
            "crates/sflow/src/x.rs",
            "fn f(r: &mut R, cap: usize) -> Vec<u8> {\n    let n = (r.u32() as usize).min(cap);\n    Vec::with_capacity(n)\n}",
        )]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn tainted_addition_and_multiplication_are_flagged() {
        let got = run(&[(
            "crates/sflow/src/x.rs",
            "fn f(r: &mut R, mut acc: u64) {\n    let n = r.u32() as u64;\n    acc += n;\n    let _ = n * 8;\n    let _ = acc.saturating_add(n);\n}",
        )]);
        let rules: Vec<&str> = got.iter().map(|(_, _, r)| *r).collect();
        assert_eq!(rules, vec!["tainted-arith", "tainted-arith"], "{got:?}");
    }

    #[test]
    fn tainted_shift_amount_but_not_shifted_value() {
        let got = run(&[(
            "crates/sflow/src/x.rs",
            "fn f(r: &mut R) {\n    let n = r.u32();\n    let _hi = (n as u64) << 32;\n    let _bad = 1u64 << n;\n}",
        )]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].1, 4);
    }

    #[test]
    fn tainted_slice_bound_is_flagged() {
        let got = run(&[(
            "crates/wire/src/x.rs",
            "fn f(r: &mut R, buf: &[u8]) -> u8 {\n    let n = r.u32() as usize;\n    buf[n]\n}",
        )]);
        assert!(got.iter().any(|(_, _, r)| *r == "tainted-slice-len"), "{got:?}");
    }

    #[test]
    fn field_seeds_and_interprocedural_params() {
        let got = run(&[(
            "crates/sflow/src/x.rs",
            "pub fn outer(s: &Sample, e: &mut E) { inner(e, s.sampling_rate); }\nfn inner(e: &mut E, rate: u32) { e.frames += u64::from(rate); }",
        )]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].2, "tainted-arith");
        assert_eq!(got[0].1, 2);
    }

    #[test]
    fn map_lookup_by_tainted_key_launders_the_handle() {
        let got = run(&[(
            "crates/sflow/src/x.rs",
            "fn f(&mut self, r: &mut R) {\n    let key = r.u32();\n    let src = self.sources.entry(key).or_insert_with(State::new);\n    src.received += 1;\n}",
        )]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn untainted_arithmetic_is_silent() {
        let got = run(&[(
            "crates/sflow/src/x.rs",
            "fn f(a: usize, b: usize) -> usize { let c = a + b; c * 2 }",
        )]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn out_of_scope_crates_are_ignored() {
        let got = run(&[(
            "crates/core/src/x.rs",
            "fn f(r: &mut R) -> Vec<u8> { let n = r.u32() as usize; Vec::with_capacity(n) }",
        )]);
        assert!(got.is_empty(), "{got:?}");
    }
}
