//! The workspace symbol table: function lookup across parsed files.
//!
//! Resolution is deliberately conservative in what it *claims to know*:
//! a call that cannot be pinned to a workspace function resolves to
//! nothing, which downstream passes treat as "outside the workspace,
//! assumed safe". Within the workspace, lookups are crate-scoped — two
//! crates can define `fn decode` without interfering — and ambiguous
//! method names resolve to every same-crate candidate (union semantics:
//! if any candidate can panic, callers inherit it).

use std::collections::HashMap;

use crate::parser::{CallSite, FnItem, ParsedFile};

/// Index of one function: `(file index, fn index)` into the parsed set.
pub type FnRef = (usize, usize);

/// Crate-scoped lookup tables over every parsed file.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// `(crate, name)` → free functions (no impl owner).
    free: HashMap<(String, String), Vec<FnRef>>,
    /// `(crate, owner, name)` → inherent/trait methods.
    methods: HashMap<(String, String, String), Vec<FnRef>>,
    /// `(crate, name)` → every owned method with that name (receiver-call
    /// fallback when the receiver type is unknown).
    by_name: HashMap<(String, String), Vec<FnRef>>,
    /// Crate names present in the workspace (`wire`, `sflow`, ...).
    crates: Vec<String>,
}

/// Method names so common on std types that resolving a `.name(...)`
/// receiver call to a same-named workspace method would be noise, not
/// signal. Path calls (`Type::name`) are unaffected.
const STD_METHOD_NAMES: &[&str] = &[
    "clone", "fmt", "eq", "ne", "cmp", "partial_cmp", "hash", "default",
    "from", "into", "try_from", "try_into", "next", "len", "is_empty",
    "get", "get_mut", "iter", "iter_mut", "into_iter", "push", "pop",
    "insert", "remove", "contains", "contains_key", "entry", "extend",
    "to_string", "to_vec", "as_ref", "as_mut", "as_str", "as_slice",
    "as_bytes", "write_str", "clear", "sort", "sort_by", "sort_by_key",
    "first", "last", "split", "join", "take", "drain", "count", "min",
    "max", "sum", "map", "and_then", "unwrap_or", "unwrap_or_else",
    "unwrap_or_default", "ok_or", "ok_or_else", "filter", "collect",
    "source", "description",
];

impl SymbolTable {
    /// Build the table from every parsed file.
    pub fn build(files: &[ParsedFile]) -> SymbolTable {
        let mut table = SymbolTable::default();
        for (fi, file) in files.iter().enumerate() {
            if !table.crates.contains(&file.crate_name) {
                table.crates.push(file.crate_name.clone());
            }
            for (xi, f) in file.fns.iter().enumerate() {
                let key_crate = file.crate_name.clone();
                match &f.owner {
                    Some(owner) => {
                        table
                            .methods
                            .entry((key_crate.clone(), owner.clone(), f.name.clone()))
                            .or_default()
                            .push((fi, xi));
                        table
                            .by_name
                            .entry((key_crate, f.name.clone()))
                            .or_default()
                            .push((fi, xi));
                    }
                    None => {
                        table.free.entry((key_crate, f.name.clone())).or_default().push((fi, xi));
                    }
                }
            }
        }
        table
    }

    /// Resolve a call made inside `caller` (in `file`) to workspace
    /// functions. Empty when the callee lives outside the workspace.
    /// Method names on the std blocklist resolve to nothing.
    pub fn resolve(&self, call: &CallSite, file: &ParsedFile, caller: &FnItem) -> Vec<FnRef> {
        if call.is_method {
            let Some(name) = call.path.first() else { return Vec::new() };
            if STD_METHOD_NAMES.contains(&name.as_str()) {
                return Vec::new();
            }
            return self
                .by_name
                .get(&(file.crate_name.clone(), name.clone()))
                .cloned()
                .unwrap_or_default();
        }

        // Expand a leading `use` alias into its full path.
        let mut segs: Vec<String> = call.path.clone();
        if let Some(first) = segs.first().cloned() {
            if let Some(import) = file.uses.iter().find(|u| u.alias == first) {
                let mut full = import.path.clone();
                full.extend(segs.drain(1..));
                segs = full;
            }
        }

        // Strip crate-qualifying prefixes and pick the target crate.
        let mut target_crate = file.crate_name.clone();
        while let Some(first) = segs.first().cloned() {
            match first.as_str() {
                "crate" | "self" | "super" => {
                    segs.remove(0);
                }
                "std" | "core" | "alloc" => return Vec::new(),
                _ => {
                    if let Some(c) = first.strip_prefix("ixp_") {
                        if self.crates.iter().any(|k| k == c) {
                            target_crate = c.to_string();
                            segs.remove(0);
                        }
                    }
                    break;
                }
            }
        }
        let Some(name) = segs.last().cloned() else { return Vec::new() };

        // `Type::assoc` / `Self::assoc`: try a method lookup first.
        if segs.len() >= 2 {
            if let Some(qual) = segs.get(segs.len() - 2) {
                let owner = if qual == "Self" {
                    caller.owner.clone()
                } else if qual.chars().next().is_some_and(char::is_uppercase) {
                    Some(qual.clone())
                } else {
                    None
                };
                if let Some(owner) = owner {
                    if let Some(found) =
                        self.methods.get(&(target_crate.clone(), owner, name.clone()))
                    {
                        return found.clone();
                    }
                    // An unknown type's associated fn (e.g. `Vec::new`)
                    // is outside the workspace.
                    return Vec::new();
                }
            }
        }

        // Module-path or bare free-function call.
        self.free.get(&(target_crate, name)).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn ws(files: &[(&str, &str)]) -> Vec<ParsedFile> {
        files.iter().map(|(p, s)| parse(p, &lex(s))).collect()
    }

    fn resolve_names(
        files: &[ParsedFile],
        table: &SymbolTable,
        file_idx: usize,
        fn_name: &str,
    ) -> Vec<String> {
        let file = &files[file_idx];
        let caller = file.fns.iter().find(|f| f.name == fn_name).unwrap();
        caller
            .calls
            .iter()
            .flat_map(|c| table.resolve(c, file, caller))
            .map(|(fi, xi)| files[fi].fns[xi].name.clone())
            .collect()
    }

    #[test]
    fn bare_calls_resolve_within_the_crate() {
        let files = ws(&[(
            "crates/a/src/lib.rs",
            "fn helper() {}\npub fn go() { helper(); std::mem::drop(1); }",
        )]);
        let table = SymbolTable::build(&files);
        assert_eq!(resolve_names(&files, &table, 0, "go"), vec!["helper"]);
    }

    #[test]
    fn cross_crate_via_ixp_prefix_and_use() {
        let files = ws(&[
            ("crates/core/src/util.rs", "pub fn pick(b: &[u8]) -> u8 { b[7] }"),
            (
                "crates/wire/src/lib.rs",
                "use ixp_core::util::pick;\npub fn a(b: &[u8]) -> u8 { pick(b) }\npub fn c(b: &[u8]) -> u8 { ixp_core::util::pick(b) }",
            ),
        ]);
        let table = SymbolTable::build(&files);
        assert_eq!(resolve_names(&files, &table, 1, "a"), vec!["pick"]);
        assert_eq!(resolve_names(&files, &table, 1, "c"), vec!["pick"]);
    }

    #[test]
    fn self_and_type_methods_resolve() {
        let files = ws(&[(
            "crates/a/src/lib.rs",
            "struct R;\nimpl R {\n  fn helper(&self) {}\n  pub fn go(&self) { Self::helper(self); R::helper(self); self.helper(); }\n}",
        )]);
        let table = SymbolTable::build(&files);
        assert_eq!(resolve_names(&files, &table, 0, "go"), vec!["helper"; 3]);
    }

    #[test]
    fn std_and_unknown_calls_resolve_to_nothing() {
        let files = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn go(v: &mut Vec<u8>) { v.push(1); Vec::with_capacity(4); std::mem::take(v); }",
        )]);
        let table = SymbolTable::build(&files);
        assert!(resolve_names(&files, &table, 0, "go").is_empty());
    }

    #[test]
    fn method_calls_stay_crate_scoped() {
        let files = ws(&[
            ("crates/a/src/lib.rs", "struct R;\nimpl R { pub fn decode(&self) {} }"),
            ("crates/b/src/lib.rs", "pub fn go(r: &X) { r.decode(); }"),
        ]);
        let table = SymbolTable::build(&files);
        // `decode` lives in crate a; the receiver call is in crate b.
        assert!(resolve_names(&files, &table, 1, "go").is_empty());
    }
}
