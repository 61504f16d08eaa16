//! Property tests for the lint front end: the full pipeline — lexer,
//! parser, symbol table, and every pass behind `scan_sources` — must never
//! panic on arbitrary input, and every span it reports must land inside
//! the file it came from.

use proptest::prelude::*;
use proptest::{collection, sample};

use ixp_lint::lexer::lex;
use ixp_lint::parser::parse;

/// Source fragments chosen to hit the parser's interesting paths: items,
/// impl blocks, use trees, calls, panic sites, strings that look like
/// comments or directives, test regions, and unbalanced nesting.
const FRAGMENTS: &[&str] = &[
    "fn f(b: &[u8]) -> u8 { b[0] }\n",
    "pub fn g(r: &mut R) -> u32 { r.u32() }\n",
    "pub(crate) fn h() {}\n",
    "impl Foo { fn m(&self) {} }\n",
    "impl<T: Ord> Display for Foo<T> where T: Copy { }\n",
    "trait T: Clone { fn d(&self); }\n",
    "use a::b::{c, d as e, self};\n",
    "use ixp_core::util::pick;\n",
    "let x = r.u32()? as usize;\n",
    "let v = Vec::with_capacity(n);\n",
    "x.unwrap();\n",
    "y.expect(\"msg\");\n",
    "panic!(\"boom\");\n",
    "assert_eq!(a, b);\n",
    "s[i..j]\n",
    "a + b * c << d\n",
    "acc += n;\n",
    "// ixp-lint: allow(panic-path) reason\n",
    "// ixp-lint: allow-file(l6, \"why\")\n",
    "// ixp-lint: allow(no-index) a rule that moved to clippy\n",
    "\"fn not_a_fn() { /* also not a comment */ }\"\n",
    "r#\"raw \" string\"#\n",
    "b\"bytes\"\n",
    "'c'",
    "'lifetime ",
    "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\n",
    "fn broken( {\n",
    "}}}\n",
    "((([[[\n",
    "let callback: fn(u32) -> u32 = f;\n",
    "::std::mem::swap(&mut a, &mut b);\n",
    "0x1f 1_000 2.5e-3\n",
    "match x { Some(_) => {} None => unreachable!() }\n",
    "/* outer /* nested */ still a comment */\n",
];

/// Paths that route the assembled source into every scope predicate.
const PATHS: &[&str] = &[
    "crates/wire/src/x.rs",
    "crates/sflow/src/collector.rs",
    "crates/core/src/scan.rs",
    "crates/faults/src/plan.rs",
    "crates/lint/src/x.rs",
    "crates/obs/src/metrics.rs",
    "crates/codec/src/lib.rs",
];

fn assemble(picks: &[sample::Index]) -> String {
    picks.iter().map(|ix| FRAGMENTS[ix.index(FRAGMENTS.len())]).collect()
}

proptest! {
    #[test]
    fn full_pipeline_never_panics_on_fragment_soup(
        picks in collection::vec(any::<sample::Index>(), 0..24),
        path_ix in any::<sample::Index>(),
    ) {
        let src = assemble(&picks);
        let path = PATHS[path_ix.index(PATHS.len())];
        // scan_sources drives lexer, parser, symbols and every pass in one
        // go; the property is simply that none of them panic and all spans
        // are in range.
        let line_count = src.lines().count() as u32;
        for f in ixp_lint::scan_sources([(path.to_string(), src.clone())]) {
            prop_assert!(f.line >= 1 && f.line <= line_count.max(1), "{f:?}");
        }
    }

    #[test]
    fn parser_spans_stay_in_bounds(
        picks in collection::vec(any::<sample::Index>(), 0..24),
    ) {
        let src = assemble(&picks);
        let lexed = lex(&src);
        let line_count = (src.lines().count() as u32).max(1);
        for t in &lexed.tokens {
            prop_assert!(t.line >= 1 && t.line <= line_count, "token {t:?}");
            prop_assert!(t.col >= 1, "token {t:?}");
        }
        let parsed = parse("crates/wire/src/x.rs", &lexed);
        for f in &parsed.fns {
            prop_assert!(f.line >= 1 && f.line <= line_count, "fn {f:?}");
            if let Some((s, e)) = f.body {
                prop_assert!(s <= e && e <= lexed.tokens.len(), "body of {}", f.name);
            }
            for c in &f.calls {
                prop_assert!(c.line >= 1 && c.line <= line_count, "call {c:?}");
                for &(a, b) in &c.args {
                    prop_assert!(a <= b && b <= lexed.tokens.len(), "args of {c:?}");
                }
            }
            for p in &f.panics {
                prop_assert!(p.line >= 1 && p.line <= line_count, "panic site {p:?}");
            }
        }
    }

    #[test]
    fn pipeline_never_panics_on_printable_junk(src in "[ -~\n]{0,120}") {
        let _ = ixp_lint::scan_sources([("crates/wire/src/x.rs".to_string(), src)]);
    }
}
