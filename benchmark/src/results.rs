//! What a run leaves behind: the lines it prints, `out/results.json`, the
//! span files, and the layer table `--render` makes of them.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::e2e::{Outcome, RunConfig};
use crate::json::{self, Value};
use crate::metrics::END_TO_END;
use crate::trace::Tracer;

pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The result object the driver reads: last line of a workload's output.
pub fn result_line(out: &Outcome) -> Value {
    let mut metrics = Value::obj();
    for m in &out.metrics {
        let entry = metrics.entry(m.name);
        entry.set("value", Value::Num(m.value));
        entry.set("unit", Value::Str(m.unit.into()));
    }
    let mut doc = Value::obj();
    doc.set("correct", Value::Bool(out.failed == 0));
    doc.set("attempted", Value::Num(out.attempted as f64));
    doc.set("failed", Value::Num(out.failed as f64));
    doc.set("metrics", metrics);
    doc
}

/// Print a workload's outcome: `<workload> <metric> <value> <unit>` lines,
/// `#` comment lines, and the result object last.
pub fn print(workload: &str, out: &Outcome, smoke: bool) {
    for m in &out.metrics {
        println!("{workload} {} {} {}", m.name, m.value, m.unit);
    }
    if smoke {
        println!("# {workload} smoke run at tiny scale: timings are not comparable with anything");
    }
    for note in &out.notes {
        println!("# {workload} {note}");
    }
    println!(
        "# {workload} attempted {} operations, {} failed",
        out.attempted, out.failed
    );
    for failure in &out.failures {
        println!("# {workload} FAILED: {failure}");
    }
    println!("{}", result_line(out).compact());
}

/// Merge this run into the results document at `path`, keeping what other
/// runs (other workloads, the other `--trace` mode) put there.
pub fn merge(
    path: &Path,
    workload: &str,
    traced: bool,
    cfg: RunConfig,
    out: &Outcome,
) -> std::io::Result<()> {
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|t| json::parse(&t))
        .filter(|d| d.get("schema").and_then(Value::as_str) == Some(SCHEMA))
        .unwrap_or_else(Value::obj);
    doc.set("schema", Value::Str(SCHEMA.into()));
    let mut run = result_line(out);
    run.set("seed", Value::Num(cfg.seed as f64));
    run.set("seconds", Value::Num(cfg.seconds));
    run.set("smoke", Value::Bool(cfg.smoke));
    run.set(
        "notes",
        Value::Arr(out.notes.iter().cloned().map(Value::Str).collect()),
    );
    run.set(
        "failures",
        Value::Arr(out.failures.iter().cloned().map(Value::Str).collect()),
    );
    if traced {
        let rows = out
            .layer_table
            .iter()
            .map(|r| {
                let mut row = Value::obj();
                row.set("layer", Value::Str(r.layer.into()));
                row.set("ns_per_datagram", Value::Num(r.ns_per_datagram));
                row.set("share_pct", Value::Num(r.share_pct));
                row.set("allocs_per_datagram", Value::Num(r.allocs_per_datagram));
                row.set("feeds", Value::Str(r.feeds.into()));
                row
            })
            .collect();
        run.set("layer_table", Value::Arr(rows));
    }
    doc.entry("workloads")
        .entry(workload)
        .set(if traced { "per_layer" } else { "end_to_end" }, run);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.pretty())
}

const SCHEMA: &str = "ixp-benchmark/results/1";

/// Write the traced run's spans to `out/trace-<workload>.json`.
pub fn write_trace(workload: &str, tracer: &Tracer) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, tracer.to_json(workload).compact())?;
    Ok(path)
}

/// `--render`: the results document as Markdown — per workload the
/// end-to-end values and the layer table. Measures nothing.
pub fn render(path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).ok_or_else(|| format!("{}: not JSON", path.display()))?;
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("{}: not a {SCHEMA} document", path.display()));
    }
    let mut md = String::new();
    for (workload, runs) in doc.get("workloads").into_iter().flat_map(Value::members) {
        let _ = writeln!(md, "## {workload}\n");
        if let Some(run) = runs.get("end_to_end") {
            let _ = writeln!(md, "{}\n", provenance(run));
            let _ = writeln!(
                md,
                "| end-to-end metric | value | unit | better | bound |\n|---|---:|---|---|---:|"
            );
            for (name, unit, better, bound) in END_TO_END {
                let value = run
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"));
                let value = value
                    .and_then(Value::as_f64)
                    .map_or("-".into(), |v| format!("{v:.4}"));
                let _ = writeln!(
                    md,
                    "| `{name}` | {value} | {unit} | {} | {:.0} % |",
                    better.as_str(),
                    bound * 100.0
                );
            }
            md.push('\n');
        }
        if let Some(run) = runs.get("per_layer") {
            let _ = writeln!(md, "{}\n", provenance(run));
            let _ = writeln!(md, "| layer | ns/datagram | share of the whole pass | allocations/datagram | feeds |\n|---|---:|---:|---:|---|");
            for row in run
                .get("layer_table")
                .map(Value::as_arr)
                .unwrap_or_default()
            {
                let num = |key: &str| row.get(key).and_then(Value::as_f64).unwrap_or(0.0);
                let text = |key: &str| row.get(key).and_then(Value::as_str).unwrap_or("-");
                let _ = writeln!(
                    md,
                    "| {} | {:.1} | {:.1} % | {:.3} | {} |",
                    text("layer"),
                    num("ns_per_datagram"),
                    num("share_pct"),
                    num("allocs_per_datagram"),
                    text("feeds"),
                );
            }
            md.push('\n');
        }
    }
    Ok(md)
}

/// One line saying which run a table came from.
fn provenance(run: &Value) -> String {
    let num = |key: &str| run.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let flag = |key: &str| run.get(key).and_then(Value::as_bool).unwrap_or(false);
    format!(
        "seed {}, {} s timed phase{}, {} of {} operations failed{}",
        num("seed"),
        num("seconds"),
        if flag("smoke") {
            ", SMOKE (tiny scale, timings not comparable)"
        } else {
            ""
        },
        num("failed"),
        num("attempted"),
        if flag("correct") {
            ""
        } else {
            " — NOT CORRECT"
        },
    )
}
