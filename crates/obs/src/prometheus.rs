//! Prometheus text exposition of a metrics [`Snapshot`].
//!
//! Emits the version 0.0.4 text format: one `# TYPE` line per family,
//! then one sample line per series. Histograms expand into cumulative
//! `_bucket{le="..."}` series plus `_sum` and `_count`, with any series
//! labels merged ahead of `le`. Values are integers (durations are
//! exported in nanoseconds, as the `_ns` suffix advertises), so the
//! exposition is byte-stable for equal snapshots.
//!
//! Spec discipline (text format 0.0.4):
//!
//! * label *values* are escaped — backslash, double quote, and newline
//!   become `\\`, `\"` and `\n` — so a hostile or merely unusual label
//!   value cannot corrupt the line protocol;
//! * a family whose series disagree on metric kind (say a counter
//!   `fam{a="1"}` next to a gauge `fam{a="2"}`) is rejected with a typed
//!   [`RenderError`] instead of emitting a `# TYPE` line that is wrong
//!   for half the series — scrapers trust the type line, so a misleading
//!   one is worse than no exposition at all.

use std::collections::BTreeMap;

use crate::metrics::{split_name, MetricValue, Snapshot};

/// Why a snapshot could not be rendered as a text exposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RenderError {
    /// Two series of one family carry different metric kinds, so no
    /// single `# TYPE` line is truthful.
    MixedKindFamily {
        /// The family with conflicting kinds.
        family: String,
        /// Kind of the first series encountered.
        first: &'static str,
        /// The conflicting kind.
        second: &'static str,
    },
}

impl std::fmt::Display for RenderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RenderError::MixedKindFamily { family, first, second } => write!(
                f,
                "metric family {family} mixes kinds {first} and {second}; \
                 no single # TYPE line would be truthful"
            ),
        }
    }
}

impl std::error::Error for RenderError {}

fn kind_name(value: &MetricValue) -> &'static str {
    match value {
        MetricValue::Counter(_) => "counter",
        MetricValue::Gauge(_) => "gauge",
        MetricValue::Histogram(_) => "histogram",
    }
}

/// Escape a label value per the text format: backslash, double quote and
/// newline must be escaped; everything else passes through.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Re-emit a stored label block (`key="raw value"`) with the value
/// escaped. The registry naming scheme uses a single `key="value"` pair;
/// a block that does not match that shape is quoted wholesale under its
/// key so the exposition line stays well-formed.
fn format_label_block(block: &str) -> String {
    match block.split_once('=') {
        Some((key, rest)) => {
            let raw = rest.strip_prefix('"').and_then(|r| r.strip_suffix('"')).unwrap_or(rest);
            format!("{key}=\"{}\"", escape_label_value(raw))
        }
        None => block.to_string(),
    }
}

fn sample_line(out: &mut String, family: &str, suffix: &str, labels: &[String], value: u64) {
    out.push_str(family);
    out.push_str(suffix);
    if !labels.is_empty() {
        out.push('{');
        out.push_str(&labels.join(","));
        out.push('}');
    }
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

/// Render the snapshot in Prometheus text exposition format. Fails with
/// a typed error when a family mixes metric kinds (see [`RenderError`]).
pub fn render(snapshot: &Snapshot) -> Result<String, RenderError> {
    // First pass: every family must agree on one kind before a single
    // byte is emitted.
    let mut family_kinds: BTreeMap<&str, &'static str> = BTreeMap::new();
    for (name, value) in &snapshot.entries {
        let (family, _) = split_name(name);
        let kind = kind_name(value);
        match family_kinds.get(family) {
            None => {
                family_kinds.insert(family, kind);
            }
            Some(first) if *first != kind => {
                return Err(RenderError::MixedKindFamily {
                    family: family.to_string(),
                    first,
                    second: kind,
                });
            }
            Some(_) => {}
        }
    }

    let mut out = String::new();
    let mut typed: BTreeMap<String, ()> = BTreeMap::new();
    for (name, value) in &snapshot.entries {
        let (family, label_block) = split_name(name);
        let base_labels: Vec<String> = match label_block {
            Some(block) if !block.is_empty() => vec![format_label_block(block)],
            _ => Vec::new(),
        };
        if typed.insert(family.to_string(), ()).is_none() {
            out.push_str(&format!("# TYPE {family} {}\n", kind_name(value)));
        }
        match value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                sample_line(&mut out, family, "", &base_labels, *v);
            }
            MetricValue::Histogram(h) => {
                let mut cum = 0u64;
                for (i, c) in h.counts.iter().enumerate() {
                    cum = cum.saturating_add(*c);
                    let le = match h.bounds.get(i) {
                        Some(b) => format!("le=\"{b}\""),
                        None => "le=\"+Inf\"".to_string(),
                    };
                    let mut labels = base_labels.clone();
                    labels.push(le);
                    sample_line(&mut out, family, "_bucket", &labels, cum);
                }
                sample_line(&mut out, family, "_sum", &base_labels, h.sum);
                sample_line(&mut out, family, "_count", &base_labels, h.count);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn scalar_exposition() {
        let r = Registry::new();
        r.counter("wire_frames_total").add(7);
        r.gauge("sflow_sources").set(2);
        let text = render(&r.snapshot()).expect("uniform kinds render");
        assert!(text.contains("# TYPE wire_frames_total counter\n"));
        assert!(text.contains("wire_frames_total 7\n"));
        assert!(text.contains("# TYPE sflow_sources gauge\n"));
        assert!(text.contains("sflow_sources 2\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_merged_labels() {
        let r = Registry::new();
        let h = r.histogram("core_stage_duration_ns{stage=\"scan\"}", &[10, 100]);
        h.observe(5);
        h.observe(7);
        h.observe(50);
        h.observe(5000);
        let text = render(&r.snapshot()).expect("renders");
        assert!(text.contains("# TYPE core_stage_duration_ns histogram\n"));
        assert!(text.contains("core_stage_duration_ns_bucket{stage=\"scan\",le=\"10\"} 2\n"));
        assert!(text.contains("core_stage_duration_ns_bucket{stage=\"scan\",le=\"100\"} 3\n"));
        assert!(text.contains("core_stage_duration_ns_bucket{stage=\"scan\",le=\"+Inf\"} 4\n"));
        assert!(text.contains("core_stage_duration_ns_sum{stage=\"scan\"} 5062\n"));
        assert!(text.contains("core_stage_duration_ns_count{stage=\"scan\"} 4\n"));
    }

    #[test]
    fn type_line_emitted_once_per_family() {
        let r = Registry::new();
        r.duration_histogram("stage_ns{stage=\"a\"}").observe(1);
        r.duration_histogram("stage_ns{stage=\"b\"}").observe(1);
        let text = render(&r.snapshot()).expect("renders");
        assert_eq!(text.matches("# TYPE stage_ns histogram").count(), 1);
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter("odd_total{path=\"a\\b\"}").inc();
        r.counter("odder_total{msg=\"say \"hi\"\"}").add(2);
        r.counter("oddest_total{s=\"line1\nline2\"}").add(3);
        let text = render(&r.snapshot()).expect("renders");
        assert!(text.contains("odd_total{path=\"a\\\\b\"} 1\n"));
        assert!(text.contains("odder_total{msg=\"say \\\"hi\\\"\"} 2\n"));
        assert!(text.contains("oddest_total{s=\"line1\\nline2\"} 3\n"));
        // No raw newline may survive inside a sample line.
        for line in text.lines() {
            assert!(!line.is_empty());
        }
        assert_eq!(text.lines().count(), 6); // 3 TYPE + 3 samples
    }

    #[test]
    fn mixed_kind_family_is_rejected_typed() {
        let r = Registry::new();
        r.counter("fam_total{shard=\"0\"}").inc();
        r.gauge("fam_total{shard=\"1\"}").set(5);
        let err = render(&r.snapshot()).expect_err("mixed kinds rejected");
        match &err {
            RenderError::MixedKindFamily { family, first, second } => {
                assert_eq!(family, "fam_total");
                assert_eq!(*first, "counter");
                assert_eq!(*second, "gauge");
            }
        }
        assert!(err.to_string().contains("fam_total"));
    }

    #[test]
    fn exposition_is_deterministic() {
        let build = || {
            let r = Registry::new();
            r.counter("z_total").inc();
            r.counter("a_total").add(3);
            render(&r.snapshot()).expect("renders")
        };
        assert_eq!(build(), build());
    }
}
