//! Whole-benchmark tests: the names printed, those in BENCHMARK.json and
//! those in README.md are the same sets, and a smoke run of every workload
//! in both modes passes its own checks.

use std::collections::BTreeSet;
use std::path::Path;

use crate::e2e::{self, RunConfig};
use crate::json::{self, Value};
use crate::layers;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workload::{MODEL_SEED, WORKLOADS};

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn benchmark_json() -> Value {
    let text =
        std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json")).expect("BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_lists_exactly_the_catalogue() {
    let doc = benchmark_json();
    let field = |v: &Value, key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string()
    };

    let listed: Vec<(String, String, String, f64)> = doc
        .get("end_to_end")
        .unwrap()
        .as_arr()
        .iter()
        .map(|m| {
            (
                field(m, "name"),
                field(m, "unit"),
                field(m, "better"),
                m.get("bound").and_then(Value::as_f64).unwrap(),
            )
        })
        .collect();
    let ours: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|(n, u, b, bound)| (n.to_string(), u.to_string(), b.as_str().to_string(), *bound))
        .collect();
    assert_eq!(listed, ours);
    assert!(listed.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
    let setup_bound = listed
        .iter()
        .find(|m| m.0 == "setup_s")
        .expect("setup_s is required")
        .3;
    assert!(
        listed.iter().all(|m| m.3 <= setup_bound),
        "setup_s carries the largest bound"
    );

    let listed: Vec<(String, String, String)> = doc
        .get("per_layer")
        .unwrap()
        .as_arr()
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect();
    let ours: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|(n, u, b)| (n.to_string(), u.to_string(), b.as_str().to_string()))
        .collect();
    assert_eq!(listed, ours);

    let listed: Vec<(String, String)> = doc
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(listed, ours);
    assert!(ours
        .iter()
        .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_f64),
        Some(crate::DEFAULT_SECONDS)
    );
    assert_eq!(
        doc.get("paths").unwrap().as_arr(),
        [Value::Str("benchmark".into())]
    );
}

#[test]
fn every_name_is_well_formed_and_used_once() {
    let names: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.0)
        .chain(PER_LAYER.iter().map(|m| m.0))
        .chain(WORKLOADS.iter().map(|w| w.name))
        .collect();
    for name in &names {
        assert!(well_formed(name), "{name}");
    }
    assert_eq!(
        names.iter().collect::<BTreeSet<_>>().len(),
        names.len(),
        "a name is used twice"
    );
}

/// README.md documents each metric and workload in a table row that starts
/// with the name in backticks.
#[test]
fn readme_documents_exactly_the_catalogue() {
    let readme = std::fs::read_to_string(manifest_dir().join("README.md")).expect("README.md");
    let documented: BTreeSet<&str> = readme
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|rest| rest.split_once('`').map(|(name, _)| name))
        .collect();
    let catalogue: BTreeSet<&str> = END_TO_END
        .iter()
        .map(|m| m.0)
        .chain(PER_LAYER.iter().map(|m| m.0))
        .chain(WORKLOADS.iter().map(|w| w.name))
        .collect();
    let undocumented: Vec<_> = catalogue.difference(&documented).collect();
    let unknown: Vec<_> = documented.difference(&catalogue).collect();
    assert!(
        undocumented.is_empty() && unknown.is_empty(),
        "undocumented {undocumented:?}, unknown {unknown:?}"
    );
}

/// What a run prints is the catalogue, in order, and passes its own checks.
#[test]
fn smoke_runs_print_exactly_the_catalogue_and_pass() {
    let cfg = RunConfig {
        seed: MODEL_SEED + 1,
        seconds: 0.3,
        smoke: true,
    };
    for w in &WORKLOADS {
        let out = e2e::run(w, cfg);
        assert_eq!(out.failures, Vec::<String>::new(), "{}", w.name);
        assert!(out.attempted > 0 && out.failed == 0);
        let printed: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
        let ours: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.0, m.1)).collect();
        assert_eq!(printed, ours, "{}", w.name);
        assert!(
            out.metrics.iter().all(|m| m.value > 0.0),
            "end-to-end metrics are never 0"
        );

        let (out, tracer) = layers::run(w, cfg);
        assert_eq!(out.failures, Vec::<String>::new(), "{} traced", w.name);
        let printed: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
        let ours: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
        assert_eq!(printed, ours, "{} traced", w.name);
        assert!(out.metrics.iter().all(|m| m.value.is_finite()));
        assert!(!tracer.spans().is_empty() && !out.layer_table.is_empty());
        // A layer the workload does not use reads 0; one it uses does not.
        let value = |name: &str| out.metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(
            value("transport.offer_ns_per_packet") > 0.0,
            w.live,
            "{}",
            w.name
        );
        assert!(value("sflow.collector_ns_per_datagram") > 0.0);
    }
}
