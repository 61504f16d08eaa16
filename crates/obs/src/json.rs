//! Schema-versioned JSON snapshot exporter.
//!
//! The exporter is hand-rolled (no serde; `ixp-codec` reads it back).
//! Every value is an integer or a short string — no floats — so two equal
//! snapshots serialize to byte-identical documents. The schema is
//! versioned under the `"schema"` key; consumers must check it before
//! relying on field layout.
//!
//! The reader ([`parse`], [`Value`]) and [`escape`] are `ixp-codec`'s,
//! re-exported so smoke tests and tooling can read snapshots back from
//! where they are written.

pub use ixp_codec::json::{escape, parse, Value};

use crate::metrics::{MetricValue, Snapshot};

/// Schema identifier written into every snapshot document.
pub(crate) const SCHEMA: &str = "ixp-obs/1";

/// Serialize a snapshot to the versioned JSON document.
pub fn render(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{}\",\n", escape(SCHEMA)));
    out.push_str("  \"metrics\": [");
    let mut first = true;
    for (name, value) in &snapshot.entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    ");
        match value {
            MetricValue::Counter(v) => out.push_str(&format!(
                "{{\"name\": \"{}\", \"kind\": \"counter\", \"value\": {v}}}",
                escape(name)
            )),
            MetricValue::Gauge(v) => out.push_str(&format!(
                "{{\"name\": \"{}\", \"kind\": \"gauge\", \"value\": {v}}}",
                escape(name)
            )),
            MetricValue::Histogram(h) => {
                out.push_str(&format!(
                    "{{\"name\": \"{}\", \"kind\": \"histogram\", \"count\": {}, \
                     \"sum\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
                    escape(name),
                    h.count,
                    h.sum,
                    h.p50,
                    h.p90,
                    h.p99
                ));
                for (i, c) in h.counts.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    match h.bounds.get(i) {
                        Some(le) => out.push_str(&format!("{{\"le\": {le}, \"count\": {c}}}")),
                        None => out.push_str(&format!("{{\"le\": \"+Inf\", \"count\": {c}}}")),
                    }
                }
                out.push_str("]}");
            }
        }
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    /// Find a metric object by name inside a parsed snapshot document.
    fn find_metric<'v>(doc: &'v Value, name: &str) -> Option<&'v Value> {
        doc.get("metrics")?
            .as_arr()?
            .iter()
            .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
    }

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter("sflow_datagrams_total").add(12);
        r.gauge("sflow_sources").set(3);
        let h = r.histogram("core_stage_duration_ns{stage=\"scan\"}", &[100, 1000]);
        h.observe(50);
        h.observe(5000);
        r.snapshot()
    }

    #[test]
    fn render_parse_roundtrip() {
        let doc = render(&sample());
        let v = parse(&doc).expect("exporter output must parse");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(SCHEMA));
        let dg = find_metric(&v, "sflow_datagrams_total").expect("metric present");
        assert_eq!(dg.get("kind").and_then(Value::as_str), Some("counter"));
        assert_eq!(dg.get("value").and_then(Value::as_u64), Some(12));
        let h = find_metric(&v, "core_stage_duration_ns{stage=\"scan\"}").expect("histogram");
        assert_eq!(h.get("count").and_then(Value::as_u64), Some(2));
        let buckets = h.get("buckets").and_then(Value::as_arr).expect("buckets");
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets.last().and_then(|b| b.get("le")).and_then(Value::as_str), Some("+Inf"));
    }

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(render(&sample()), render(&sample()));
    }
}
