//! L8 — concurrency-safety analysis ahead of the sharded parallel ingest.
//!
//! Four analyses over the parsed item tree and the workspace call graph
//! (DESIGN.md §8):
//!
//! * **lock-order** (`lock-order-cycle`): per function, record which lock
//!   identities are held (guard live) when another lock is acquired —
//!   directly or via any workspace call — accumulate the pairs into a
//!   lock-order graph, and report every cycle with one witness site per
//!   edge.
//! * **guard scopes** (`guard-across-blocking`): a guard held across
//!   `.send()`/`.recv()`/`join`/`wait`/`sleep` stalls other threads;
//!   passing the guard *into* a condvar `wait` releases it atomically and
//!   is exempt.
//! * **escape analysis** (`shared-state-escape`): non-`Arc` interior
//!   mutability (`RefCell`/`Cell`/`UnsafeCell` locals) and `static mut`
//!   reached from `spawn` closures.
//! * **merge determinism** (`atomic-ordering`, `order-dependent-merge`):
//!   `Relaxed` loads reachable from snapshot/report entry points, and
//!   channel-drain loops folding with float `+=` or unsorted `push`.
//!
//! Lock identity is lexical: the last non-`self` identifier of the
//! receiver chain before `.lock()`/`.read()`/`.write()` (`self.inner
//! .lock()` → `inner`). A wrapper method whose receiver chain is exactly
//! `self` (e.g. `Registry::lock` calling `self.inner.lock()`) contributes
//! its callee's lock set instead. Guard lifetime runs from the acquisition
//! to an explicit `drop(guard)`, the end of the enclosing statement for
//! unnamed temporaries, or the end of the surrounding block — a sound
//! over-approximation of NLL for the straight-line code this workspace
//! writes.
//!
//! Scope: every crate `src/` tree (the L4 scope). Test items are exempt.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use crate::lexer::{Kind, Lexed, Token};
use crate::parser::{FnItem, ParsedFile};
use crate::rules;
use crate::symbols::{FnRef, SymbolTable};
use crate::Finding;

/// Method/path tails treated as blocking for `guard-across-blocking`.
const BLOCKING: &[&str] = &["send", "recv", "wait", "wait_timeout", "join", "park", "sleep"];

/// Interior-mutability constructors whose un-`Arc`ed values must not cross
/// a spawn boundary.
const INTERIOR_MUT: &[&str] = &["RefCell", "Cell", "UnsafeCell"];

/// The `.`-separated identifier chain ending just before the method name
/// at token `tok` (`a.b.lock()` at `lock` → `["a", "b"]`). Empty when the
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

/// First `drop(<name>)` after `from`, if any.
fn drop_site(toks: &[Token], from: usize, limit: usize, name: &str) -> Option<usize> {
    let mut j = from;
    while j + 3 < limit {
        if matches!(toks.get(j).map(|t| &t.kind), Some(Kind::Ident(id)) if id == "drop")
            && matches!(toks.get(j + 1).map(|t| &t.kind), Some(Kind::Punct('(')))
            && matches!(toks.get(j + 2).map(|t| &t.kind), Some(Kind::Ident(id)) if id == name)
            && matches!(toks.get(j + 3).map(|t| &t.kind), Some(Kind::Punct(')')))
        {
            return Some(j);
        }
        j += 1;
    }
    None
}

/// One lock acquisition inside a function body.
#[derive(Debug)]
struct Site {
    /// Token index of the `lock`/`read`/`write` (or wrapper) call.
    tok: usize,
    /// Lock identities acquired here (one for a direct call; a wrapper
    /// inherits its callee's whole set).
    locks: Vec<String>,
    /// Guard binding name, when `let g = ...lock();` names one.
    guard: Option<String>,
    /// Token index the guard is live until (exclusive).
    until: usize,
    line: u32,
}

/// How a call site relates to the lock analysis.
enum Classified {
    /// `recv.lock()` — acquires the named lock directly.
    Direct(String),
    /// `self.lock()` — a wrapper; inherits the callees' lock sets.
    Wrapper(Vec<FnRef>),
    /// Any other call; resolved workspace callees (possibly empty).
    Plain(Vec<FnRef>),
}

/// Classify every call of `f` (file `fi`) for the lock analyses.
fn classify(
    files: &[ParsedFile],
    lexed: &[Lexed],
    table: &SymbolTable,
    fi: usize,
    f: &FnItem,
) -> Vec<(usize, Classified)> {
    let toks = &lexed[fi].tokens;
    let mut out = Vec::new();
    for (ci, c) in f.calls.iter().enumerate() {
        let name = c.path.last().map(String::as_str).unwrap_or("");
        let is_lock_call =
            c.is_method && matches!(name, "lock" | "read" | "write") && c.args.is_empty();
        if is_lock_call {
            let chain = receiver_chain(toks, c.tok);
            if chain.iter().all(|s| s == "self") && !chain.is_empty() {
                // `self.lock()`: a wrapper around the real acquisition.
                let refs: Vec<FnRef> = table
                    .resolve_unfiltered(c, &files[fi], f)
                    .into_iter()
                    .filter(|&(cfi, cxi)| !files[cfi].fns[cxi].in_test)
                    .collect();
                out.push((ci, Classified::Wrapper(refs)));
            } else if let Some(id) = chain.iter().rev().find(|s| *s != "self") {
                out.push((ci, Classified::Direct(id.clone())));
            }
            // Computed receivers (`make().lock()`) are skipped: no stable
            // identity to order against.
            continue;
        }
        let refs: Vec<FnRef> = table
            .resolve_unfiltered(c, &files[fi], f)
            .into_iter()
            .filter(|&(cfi, cxi)| !files[cfi].fns[cxi].in_test)
            .collect();
        out.push((ci, Classified::Plain(refs)));
    }
    out
}

/// Build the acquisition [`Site`]s of one function from its classified
/// calls, resolving each guard's live range.
fn sites_of(
    lexed: &Lexed,
    f: &FnItem,
    classified: &[(usize, Classified)],
    acquires: &HashMap<FnRef, BTreeSet<String>>,
) -> Vec<Site> {
    let toks = &lexed.tokens;
    let Some((_, body_close)) = f.body else { return Vec::new() };
    let body_limit = body_close.saturating_sub(1);
    let mut sites = Vec::new();
    for (ci, class) in classified {
        let c = &f.calls[*ci];
        let locks: Vec<String> = match class {
            Classified::Direct(id) => vec![id.clone()],
            Classified::Wrapper(refs) => {
                let mut set = BTreeSet::new();
                for r in refs {
                    if let Some(s) = acquires.get(r) {
                        set.extend(s.iter().cloned());
                    }
                }
                set.into_iter().collect()
            }
            Classified::Plain(_) => continue,
        };
        if locks.is_empty() {
            continue;
        }
        // `let g = recv.chain.lock()` — the binding sits just before the
        // receiver chain (2 tokens per chain segment).
        let chain_len = receiver_chain(toks, c.tok).len();
        let cs = c.tok.saturating_sub(2 * chain_len);
        let guard = match (
            cs.checked_sub(1).and_then(|j| toks.get(j)).map(|t| &t.kind),
            cs.checked_sub(2).and_then(|j| toks.get(j)).map(|t| &t.kind),
        ) {
            (Some(Kind::Punct('=')), Some(Kind::Ident(name)))
                if name != "let" && name != "mut" =>
            {
                Some(name.clone())
            }
            _ => None,
        };
        let until = match &guard {
            Some(name) => {
                let dropped = drop_site(toks, c.tok, body_limit, name);
                let scope = block_end(toks, c.tok, body_limit);
                dropped.map_or(scope, |d| d.min(scope))
            }
            // An unnamed temporary guard dies at the end of its statement.
            None => statement_end(toks, c.tok, body_limit),
        };
        sites.push(Site { tok: c.tok, locks, guard, until, line: c.line });
    }
    sites
}

/// Lock identities held at token `t` (strictly after an acquisition,
/// strictly before its release).
fn held_at(sites: &[Site], t: usize) -> Vec<&Site> {
    sites.iter().filter(|s| s.tok < t && t < s.until).collect()
}

/// A witness for one lock-order edge: where `to` was acquired while `from`
/// was held.
#[derive(Debug, Clone)]
struct Edge {
    file: String,
    line: u32,
    func: String,
    /// Callee name when the acquisition happened inside a callee.
    via: Option<String>,
}

/// Run every L8 analysis. `files`, `lexed` are parallel (same indices);
/// findings are appended unsorted (the caller sorts globally).
pub fn check(
    files: &[ParsedFile],
    lexed: &[Lexed],
    table: &SymbolTable,
    out: &mut Vec<Finding>,
) {
    let static_muts = collect_static_muts(files, lexed);
    let classified: Vec<Vec<Vec<(usize, Classified)>>> = files
        .iter()
        .enumerate()
        .map(|(fi, file)| {
            file.fns
                .iter()
                .map(|f| classify(files, lexed, table, fi, f))
                .collect()
        })
        .collect();
    let acquires = acquired_sets(files, lexed, &classified);

    let mut edges: BTreeMap<(String, String), Edge> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        if !rules::l4_applies(&file.path) {
            continue;
        }
        for (xi, f) in file.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            let class = &classified[fi][xi];
            let sites = sites_of(&lexed[fi], f, class, &acquires);
            lock_order_edges(file, f, class, &sites, &acquires, &mut edges);
            guard_across_blocking(file, &lexed[fi], f, class, &sites, out);
            shared_state_escape(&lexed[fi], file, f, &static_muts, out);
            order_dependent_merge(&lexed[fi], file, f, out);
        }
    }
    report_cycles(&edges, out);
    atomic_ordering(files, lexed, table, out);
}

/// Fixpoint: the set of lock identities each function may acquire,
/// directly or through any workspace call.
fn acquired_sets(
    files: &[ParsedFile],
    lexed: &[Lexed],
    classified: &[Vec<Vec<(usize, Classified)>>],
) -> HashMap<FnRef, BTreeSet<String>> {
    let mut acquires: HashMap<FnRef, BTreeSet<String>> = HashMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (xi, _) in file.fns.iter().enumerate() {
            let direct: BTreeSet<String> = classified[fi][xi]
                .iter()
                .filter_map(|(_, c)| match c {
                    Classified::Direct(id) => Some(id.clone()),
                    _ => None,
                })
                .collect();
            acquires.insert((fi, xi), direct);
        }
    }
    let _ = lexed;
    loop {
        let mut changed = false;
        for (fi, file) in files.iter().enumerate() {
            for (xi, _) in file.fns.iter().enumerate() {
                let mut merged = acquires[&(fi, xi)].clone();
                for (_, class) in &classified[fi][xi] {
                    let refs = match class {
                        Classified::Wrapper(refs) | Classified::Plain(refs) => refs,
                        Classified::Direct(_) => continue,
                    };
                    for r in refs {
                        if let Some(s) = acquires.get(r) {
                            merged.extend(s.iter().cloned());
                        }
                    }
                }
                if merged.len() != acquires[&(fi, xi)].len() {
                    acquires.insert((fi, xi), merged);
                    changed = true;
                }
            }
        }
        if !changed {
            return acquires;
        }
    }
}

/// Record held→acquired edges from one function's sites and calls.
fn lock_order_edges(
    file: &ParsedFile,
    f: &FnItem,
    classified: &[(usize, Classified)],
    sites: &[Site],
    acquires: &HashMap<FnRef, BTreeSet<String>>,
    edges: &mut BTreeMap<(String, String), Edge>,
) {
    let mut push = |from: &str, to: &str, line: u32, via: Option<String>| {
        // A self-edge (re-locking the same identity through a wrapper) is
        // re-entrancy, not an ordering fact; skip it.
        if from == to {
            return;
        }
        edges
            .entry((from.to_string(), to.to_string()))
            .or_insert_with(|| Edge { file: file.path.clone(), line, func: f.name.clone(), via });
    };
    for s in sites {
        for h in held_at(sites, s.tok) {
            for from in &h.locks {
                for to in &s.locks {
                    push(from, to, s.line, None);
                }
            }
        }
    }
    for (ci, class) in classified {
        let refs = match class {
            Classified::Plain(refs) if !refs.is_empty() => refs,
            _ => continue,
        };
        let c = &f.calls[*ci];
        let mut callee_locks = BTreeSet::new();
        let mut callee_name = String::new();
        for r in refs {
            if let Some(s) = acquires.get(r) {
                callee_locks.extend(s.iter().cloned());
            }
        }
        if callee_locks.is_empty() {
            continue;
        }
        if let Some(n) = c.path.last() {
            callee_name = n.clone();
        }
        for h in held_at(sites, c.tok) {
            for from in &h.locks {
                for to in &callee_locks {
                    push(from, to, c.line, Some(callee_name.clone()));
                }
            }
        }
    }
}

/// Find and report cycles in the lock-order graph.
fn report_cycles(edges: &BTreeMap<(String, String), Edge>, out: &mut Vec<Finding>) {
    let mut adjacency: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adjacency.entry(a.as_str()).or_default().push(b.as_str());
    }
    let mut reported: HashSet<BTreeSet<String>> = HashSet::new();
    for (a, b) in edges.keys() {
        // A cycle through edge a→b exists iff b reaches a.
        let Some(path) = shortest_path(&adjacency, b, a) else { continue };
        let mut cycle: Vec<&str> = vec![a.as_str()];
        cycle.extend(path.iter().copied());
        let key: BTreeSet<String> = cycle.iter().map(|s| s.to_string()).collect();
        if !reported.insert(key) {
            continue;
        }
        let mut parts = Vec::new();
        let mut anchor: Option<(&Edge, u32)> = None;
        for w in cycle.windows(2) {
            let Some(e) = edges.get(&(w[0].to_string(), w[1].to_string())) else { continue };
            parts.push(match &e.via {
                Some(via) => format!(
                    "`{}` acquired (inside `{}`) while holding `{}` in `{}` ({}:{})",
                    w[1], via, w[0], e.func, e.file, e.line
                ),
                None => format!(
                    "`{}` acquired while holding `{}` in `{}` ({}:{})",
                    w[1], w[0], e.func, e.file, e.line
                ),
            });
            let better = anchor
                .map(|(a, _)| (e.file.as_str(), e.line) < (a.file.as_str(), a.line))
                .unwrap_or(true);
            if better {
                anchor = Some((e, e.line));
            }
        }
        let Some((anchor_edge, line)) = anchor else { continue };
        let order = cycle.iter().map(|l| format!("`{l}`")).collect::<Vec<_>>().join(" → ");
        out.push(Finding::new(
            &anchor_edge.file,
            line,
            "lock-order-cycle",
            &format!("potential deadlock: lock-order cycle {order}: {}", parts.join("; ")),
        ));
    }
}

/// BFS shortest path from `from` to `to` over the adjacency lists.
/// Returns the node sequence starting at `from` and ending at `to`.
fn shortest_path<'a>(
    adjacency: &BTreeMap<&'a str, Vec<&'a str>>,
    from: &'a str,
    to: &str,
) -> Option<Vec<&'a str>> {
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = VecDeque::from([from]);
    let mut seen: BTreeSet<&str> = BTreeSet::from([from]);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![n];
            let mut cur = n;
            while let Some(&p) = prev.get(cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &next in adjacency.get(n).into_iter().flatten() {
            if seen.insert(next) {
                prev.insert(next, n);
                queue.push_back(next);
            }
        }
    }
    None
}

/// Report blocking calls made while a guard is live, unless the guard is
/// passed into the call (condvar `wait(guard)` releases it atomically).
fn guard_across_blocking(
    file: &ParsedFile,
    lexed: &Lexed,
    f: &FnItem,
    classified: &[(usize, Classified)],
    sites: &[Site],
    out: &mut Vec<Finding>,
) {
    let toks = &lexed.tokens;
    for (ci, class) in classified {
        if !matches!(class, Classified::Plain(_)) {
            continue;
        }
        let c = &f.calls[*ci];
        let name = c.path.last().map(String::as_str).unwrap_or("");
        if !BLOCKING.contains(&name) {
            continue;
        }
        for site in held_at(sites, c.tok) {
            let exempted = site.guard.as_deref().is_some_and(|g| {
                c.args.iter().any(|&(s, e)| {
                    toks[s.min(toks.len())..e.min(toks.len())]
                        .iter()
                        .any(|t| matches!(&t.kind, Kind::Ident(id) if id == g))
                })
            });
            if exempted {
                continue;
            }
            let held = site.locks.iter().map(|l| format!("`{l}`")).collect::<Vec<_>>().join(", ");
            out.push(Finding::at(
                &file.path,
                c.line,
                c.col,
                "guard-across-blocking",
                &format!(
                    "`.{name}()` can block while the guard of {held} (acquired at line {}) \
                     is still held; drop the guard first",
                    site.line
                ),
            ));
        }
    }
}

/// `static mut` names declared outside tests, across every L8-scope file.
fn collect_static_muts(files: &[ParsedFile], lexed: &[Lexed]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (fi, file) in files.iter().enumerate() {
        if !rules::l4_applies(&file.path) {
            continue;
        }
        let toks = &lexed[fi].tokens;
        for w in toks.windows(3) {
            if w[0].in_test {
                continue;
            }
            if let (Kind::Ident(a), Kind::Ident(b), Kind::Ident(name)) =
                (&w[0].kind, &w[1].kind, &w[2].kind)
            {
                if a == "static" && b == "mut" {
                    names.insert(name.clone());
                }
            }
        }
    }
    names
}

/// Report unsynchronised state reached from spawn closures: `static mut`
/// names and non-`Arc` interior-mutability locals.
fn shared_state_escape(
    lexed: &Lexed,
    file: &ParsedFile,
    f: &FnItem,
    static_muts: &BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    let toks = &lexed.tokens;
    let Some((body_open, body_close)) = f.body else { return };
    // Locals bound to a bare interior-mutability constructor: scan each
    // `let [mut] name = init;` in the body.
    let mut unsync: Vec<(String, usize)> = Vec::new();
    let mut i = body_open + 1;
    let body_limit = body_close.saturating_sub(1);
    while i < body_limit {
        let is_let = matches!(&toks[i].kind, Kind::Ident(id) if id == "let");
        if !is_let {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if matches!(toks.get(j).map(|t| &t.kind), Some(Kind::Ident(id)) if id == "mut") {
            j += 1;
        }
        let Some(Kind::Ident(name)) = toks.get(j).map(|t| &t.kind) else {
            i += 1;
            continue;
        };
        let name = name.clone();
        let end = statement_end(toks, j, body_limit);
        let init = &toks[j..end];
        let has_cell = init
            .iter()
            .any(|t| matches!(&t.kind, Kind::Ident(id) if INTERIOR_MUT.contains(&id.as_str())));
        let has_arc = init.iter().any(|t| matches!(&t.kind, Kind::Ident(id) if id == "Arc"));
        if has_cell && !has_arc {
            unsync.push((name, i));
        }
        i = end.max(i + 1);
    }
    for c in &f.calls {
        if c.path.last().map(String::as_str) != Some("spawn") {
            continue;
        }
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for &(s, e) in &c.args {
            for t in &toks[s.min(toks.len())..e.min(toks.len())] {
                let Kind::Ident(id) = &t.kind else { continue };
                let local = unsync.iter().find(|(n, decl)| n == id && *decl < c.tok);
                let is_static = static_muts.contains(id);
                if (local.is_some() || is_static) && seen.insert(id.as_str()) {
                    let what = if is_static {
                        format!("`static mut {id}`")
                    } else {
                        format!("non-Arc interior-mutability local `{id}`")
                    };
                    out.push(Finding::at(
                        &file.path,
                        t.line,
                        t.col,
                        "shared-state-escape",
                        &format!(
                            "{what} is reached from a `spawn` closure; wrap it in \
                             `Arc<Mutex<_>>`/an atomic or move per-thread state by value"
                        ),
                    ));
                }
            }
        }
    }
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
    use crate::rules::L8_RULES;
    use crate::scan_sources;
    use crate::Finding;

    /// Scan sources and keep only L8 findings.
    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        scan_sources(files.iter().map(|(p, s)| (p.to_string(), s.to_string())))
            .into_iter()
            .filter(|f| L8_RULES.contains(&f.rule))
            .collect()
    }

    #[test]
    fn direct_lock_inversion_is_a_cycle() {
        let got = run(&[(
            "crates/a/src/lib.rs",
            "pub fn one(a: &Mutex<u8>, b: &Mutex<u8>) {\n    let g = a.lock();\n    let h = b.lock();\n    drop(h);\n    drop(g);\n}\npub fn two(a: &Mutex<u8>, b: &Mutex<u8>) {\n    let h = b.lock();\n    let g = a.lock();\n    drop(g);\n    drop(h);\n}\n",
        )]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].rule, "lock-order-cycle");
        assert!(got[0].message.contains("`a`"), "{}", got[0].message);
        assert!(got[0].message.contains("`b`"), "{}", got[0].message);
        assert!(got[0].message.contains("crates/a/src/lib.rs:"), "{}", got[0].message);
    }

    #[test]
    fn consistent_order_is_clean() {
        let got = run(&[(
            "crates/a/src/lib.rs",
            "pub fn one(a: &Mutex<u8>, b: &Mutex<u8>) {\n    let g = a.lock();\n    let h = b.lock();\n    drop(h);\n    drop(g);\n}\npub fn two(a: &Mutex<u8>, b: &Mutex<u8>) {\n    let g = a.lock();\n    let h = b.lock();\n    drop(h);\n    drop(g);\n}\n",
        )]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn drop_releases_the_guard() {
        // `one` drops `g` before taking `b`; `two` nests the other way.
        // Without the drop this would be a cycle; with it there is no
        // a→b edge, so the tree is clean.
        let got = run(&[(
            "crates/a/src/lib.rs",
            "pub fn one(a: &Mutex<u8>, b: &Mutex<u8>) {\n    let g = a.lock();\n    drop(g);\n    let h = b.lock();\n    drop(h);\n}\npub fn two(a: &Mutex<u8>, b: &Mutex<u8>) {\n    let h = b.lock();\n    let g = a.lock();\n    drop(g);\n    drop(h);\n}\n",
        )]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn cross_crate_cycle_reports_the_via_callee() {
        let got = run(&[
            (
                "crates/a/src/lib.rs",
                "pub fn ingest(stats: &Mutex<u8>, table: &Mutex<u8>) {\n    let s = stats.lock();\n    ixp_b::account(table);\n    drop(s);\n}\n",
            ),
            (
                "crates/b/src/lib.rs",
                "pub fn account(table: &Mutex<u8>) {\n    *table.lock() += 1;\n}\npub fn flush(table: &Mutex<u8>, stats: &Mutex<u8>) {\n    let t = table.lock();\n    let s = stats.lock();\n    drop(s);\n    drop(t);\n}\n",
            ),
        ]);
        assert_eq!(got.len(), 1, "{got:?}");
        let m = &got[0].message;
        assert!(m.contains("inside `account`"), "{m}");
        assert!(m.contains("crates/b/src/lib.rs:"), "{m}");
        assert!(m.contains("`stats`") && m.contains("`table`"), "{m}");
    }

    #[test]
    fn wrapper_self_lock_inherits_the_inner_identity() {
        // Registry-style wrapper: `self.lock()` resolves to a method that
        // locks `self.inner`, so `snapshot` + `other` order inner vs. aux.
        let got = run(&[(
            "crates/a/src/lib.rs",
            "impl Registry {\n    fn lock(&self) -> Guard { self.inner.lock() }\n    pub fn snapshot(&self, aux: &Mutex<u8>) {\n        let g = self.lock();\n        let h = aux.lock();\n        drop(h);\n        drop(g);\n    }\n    pub fn other(&self, aux: &Mutex<u8>) {\n        let h = aux.lock();\n        let g = self.lock();\n        drop(g);\n        drop(h);\n    }\n}\n",
        )]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("`inner`"), "{}", got[0].message);
        assert!(got[0].message.contains("`aux`"), "{}", got[0].message);
    }

    #[test]
    fn reentrant_wrapper_is_not_a_self_cycle() {
        // snapshot() locks via the wrapper and also calls helper() which
        // locks the same identity — a re-entrancy question, not an
        // ordering cycle; L8 stays quiet.
        let got = run(&[(
            "crates/a/src/lib.rs",
            "impl Registry {\n    fn lock(&self) -> Guard { self.inner.lock() }\n    fn helper(&self) { let g = self.lock(); drop(g); }\n    pub fn snapshot(&self) {\n        let g = self.lock();\n        drop(g);\n        self.helper();\n    }\n}\n",
        )]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn guard_across_recv_is_reported_and_condvar_wait_is_exempt() {
        let got = run(&[(
            "crates/a/src/lib.rs",
            "pub fn drain(m: &Mutex<u8>, rx: &Receiver<u8>) {\n    let g = m.lock();\n    let v = rx.recv();\n    let _ = (g, v);\n}\npub fn wait_ok(m: &Mutex<u8>, cv: &Condvar) {\n    let mut state = m.lock();\n    state = cv.wait(state);\n    let _ = state;\n}\n",
        )]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].rule, "guard-across-blocking");
        assert_eq!(got[0].line, 3);
        assert!(got[0].message.contains("recv"), "{}", got[0].message);
    }

    #[test]
    fn dropped_guard_before_recv_is_clean() {
        let got = run(&[(
            "crates/a/src/lib.rs",
            "pub fn drain(m: &Mutex<u8>, rx: &Receiver<u8>) {\n    let g = m.lock();\n    drop(g);\n    let v = rx.recv();\n    let _ = v;\n}\n",
        )]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn refcell_and_static_mut_escaping_into_spawn() {
        let got = run(&[(
            "crates/a/src/lib.rs",
            "static mut DROPPED: u64 = 0;\npub fn shard() {\n    let cache = RefCell::new(0u64);\n    std::thread::spawn(move || {\n        *cache.borrow_mut() += 1;\n        unsafe { DROPPED += 1 };\n    });\n}\n",
        )]);
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got.iter().all(|f| f.rule == "shared-state-escape"));
        assert!(got.iter().any(|f| f.message.contains("`cache`")));
        assert!(got.iter().any(|f| f.message.contains("static mut DROPPED")));
    }

    #[test]
    fn arc_wrapped_cell_does_not_escape() {
        let got = run(&[(
            "crates/a/src/lib.rs",
            "pub fn shard() {\n    let cache = Arc::new(RefCell::new(0u64));\n    std::thread::spawn(move || {\n        let _ = cache;\n    });\n}\n",
        )]);
        assert!(got.is_empty(), "{got:?}");
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
            "pub fn merge(rx: &Receiver<u64>, slots: &mut [u64]) -> Vec<u64> {\n    let mut out = Vec::new();\n    let mut i = 0;\n    while let Ok(v) = rx.recv() {\n        out.push(v);\n        slots[i] = v; // ixp-lint: allow(no-index) fixture\n        i += 1;\n    }\n    out.sort_unstable();\n    out\n}\n",
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
