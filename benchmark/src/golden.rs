//! `golden.json`: per workload, at the default seed, the digest of the
//! rendered report, Table 1, the datagram/sample/IP counts and every ledger
//! bucket. A default-seed run that disagrees with it fails; `--write-golden`
//! is the only way the file changes.

use std::path::PathBuf;

use crate::e2e::{Facts, Outcome};
use crate::json::{self, Value};

pub fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden.json")
}

/// Compare a run's facts with the pinned ones; each difference is a failed
/// check. A workload absent from the file fails too: nothing is unpinned.
pub fn check(workload: &str, out: &mut Outcome) {
    let pinned = std::fs::read_to_string(path())
        .ok()
        .and_then(|t| json::parse(&t));
    let Some(pinned) = pinned.as_ref().and_then(|doc| doc.get(workload)) else {
        out.fail(1, format!("golden.json pins nothing for {workload}"));
        return;
    };
    let pinned: Facts = pinned
        .members()
        .map(|(k, v)| (k.to_string(), v.as_str().unwrap_or("?").to_string()))
        .collect();
    if pinned == out.facts {
        return;
    }
    let names: std::collections::BTreeSet<&String> =
        pinned.keys().chain(out.facts.keys()).collect();
    let show = |v: Option<&String>| v.map_or("absent", String::as_str).to_string();
    let mismatches: Vec<String> = names
        .into_iter()
        .filter(|name| pinned.get(*name) != out.facts.get(*name))
        .map(|name| {
            format!(
                "golden mismatch: {name} is {}, pinned {}",
                show(out.facts.get(name)),
                show(pinned.get(name))
            )
        })
        .collect();
    for mismatch in mismatches {
        out.fail(1, mismatch);
    }
}

/// Replace `workload`'s entry with this run's facts.
pub fn write(workload: &str, facts: &Facts) -> std::io::Result<()> {
    let mut doc = std::fs::read_to_string(path())
        .ok()
        .and_then(|t| json::parse(&t))
        .unwrap_or_else(Value::obj);
    let mut entry = Value::obj();
    for (name, value) in facts {
        entry.set(name, Value::Str(value.clone()));
    }
    doc.set(workload, entry);
    std::fs::write(path(), doc.pretty())
}
