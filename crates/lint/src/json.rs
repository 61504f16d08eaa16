//! Machine-readable diagnostics: the `--format json` report.
//!
//! The emitter is hand-rolled; `ixp-codec`'s reader is re-exported beside
//! it so tests — and the CI smoke check — can validate that emitted
//! reports round-trip.
//!
//! # Schema (version 3)
//!
//! ```json
//! {
//!   "version": 3,
//!   "tool": "ixp-lint",
//!   "rules": [
//!     { "id": "no-unwrap", "family": "L1", "severity": "error", "summary": "..." }
//!   ],
//!   "findings": [
//!     {
//!       "file": "crates/sflow/src/xdr.rs",
//!       "line": 42,
//!       "column": 9,
//!       "rule": "tainted-arith",
//!       "family": "L6",
//!       "severity": "error",
//!       "message": "..."
//!     }
//!   ],
//!   "notes": ["stale baseline: ..."],
//!   "summary": { "total": 1, "by_rule": { "tainted-arith": 1 } }
//! }
//! ```
//!
//! `rules` lists the full registry (every rule the linter ran, not just
//! those that fired), so consumers can discover families and ids without
//! parsing `--explain` output — the CI smoke check greps it for the L8
//! ids. `findings` is sorted (file, line, rule); `column` is 1-based and
//! 0 when unknown; `family` is `L1`..`L11` or `meta`; `severity` is
//! currently always `error` (the field exists so future advisory rules
//! do not need a schema bump).
//!
//! Version 2 added the `rules` array. Version 3 extends the family set
//! with `L9` (accounting conservation), `L10` (checkpoint-codec
//! symmetry), and `L11` (error-flow completeness); the report shape is
//! unchanged, but consumers keying on the family enumeration must
//! re-sync, so the version is bumped.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub use ixp_codec::json::{escape, parse, Value};

use crate::rules;
use crate::Finding;

/// Render the full diagnostics report.
pub fn report(findings: &[Finding], notes: &[String]) -> String {
    let mut out = String::from("{\n  \"version\": 3,\n  \"tool\": \"ixp-lint\",\n  \"rules\": [");
    for (i, r) in rules::RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"id\": \"{}\", \"family\": \"{}\", \"severity\": \"{}\", \
             \"summary\": \"{}\"}}",
            escape(r.id),
            r.family,
            r.severity,
            escape(r.summary),
        );
    }
    out.push_str("\n  ],\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        let info = rules::rule_info(f.rule);
        let (family, severity) =
            info.map(|r| (r.family, r.severity)).unwrap_or(("meta", "error"));
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"file\": \"{}\", \"line\": {}, \"column\": {}, \"rule\": \"{}\", \
             \"family\": \"{}\", \"severity\": \"{}\", \"message\": \"{}\"}}",
            escape(&f.file),
            f.line,
            f.col,
            escape(f.rule),
            family,
            severity,
            escape(&f.message),
        );
    }
    if findings.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }
    out.push_str("  \"notes\": [");
    for (i, n) in notes.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\"", escape(n));
    }
    out.push_str("],\n");
    let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
    for f in findings {
        *by_rule.entry(f.rule).or_insert(0) += 1;
    }
    let _ = write!(out, "  \"summary\": {{\"total\": {}, \"by_rule\": {{", findings.len());
    for (i, (rule, count)) in by_rule.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {}", escape(rule), count);
    }
    out.push_str("}}\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_the_parser() {
        let findings = vec![
            Finding::at("crates/a/src/x.rs", 3, 5, "no-unwrap", "msg with \"quotes\""),
            Finding::at("crates/a/src/x.rs", 9, 1, "no-unwrap", "second"),
        ];
        let notes = vec!["a note".to_string()];
        let text = report(&findings, &notes);
        let v = parse(&text).unwrap();
        assert_eq!(v.get("version").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("tool").and_then(Value::as_str), Some("ixp-lint"));
        let rules_arr = v.get("rules").and_then(Value::as_arr).unwrap();
        assert_eq!(rules_arr.len(), crate::rules::RULES.len());
        assert!(rules_arr.iter().any(|r| {
            r.get("id").and_then(Value::as_str) == Some("lock-order-cycle")
                && r.get("family").and_then(Value::as_str) == Some("L8")
        }));
        let fs = v.get("findings").and_then(Value::as_arr).unwrap();
        assert_eq!(fs.len(), 2);
        assert_eq!(fs[0].get("line").and_then(Value::as_u64), Some(3));
        assert_eq!(fs[0].get("column").and_then(Value::as_u64), Some(5));
        assert_eq!(fs[0].get("family").and_then(Value::as_str), Some("L1"));
        assert_eq!(fs[0].get("severity").and_then(Value::as_str), Some("error"));
        assert_eq!(
            fs[0].get("message").and_then(Value::as_str),
            Some("msg with \"quotes\"")
        );
        let summary = v.get("summary").unwrap();
        assert_eq!(summary.get("total").and_then(Value::as_u64), Some(2));
        assert_eq!(
            summary.get("by_rule").and_then(|m| m.get("no-unwrap")).and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(v.get("notes").and_then(Value::as_arr).map(<[Value]>::len), Some(1));
    }

    #[test]
    fn empty_report_is_valid() {
        let v = parse(&report(&[], &[])).unwrap();
        assert_eq!(v.get("summary").and_then(|s| s.get("total")).and_then(Value::as_u64), Some(0));
        assert_eq!(v.get("findings").and_then(Value::as_arr).map(<[Value]>::len), Some(0));
    }
}
