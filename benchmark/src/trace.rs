//! The span recorder of the traced run (`--trace 1`).
//!
//! Spans are opened from the benchmark's own files around each call into a
//! layer — one span per segment per layer, never per datagram — kept in
//! memory, and written out when the run ends. A span's self time is its
//! duration minus the part of it its children cover. The end-to-end run
//! records no spans.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::timing::{now_ns, Timings};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer operation, e.g. `sflow.collector`.
    pub name: &'static str,
    /// Segment of the pass the span covers (0 for unsegmented operations).
    pub seg: usize,
    /// The round that caused it: spans of one round share this id.
    pub round: usize,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    round: usize,
}

impl Tracer {
    /// Spans opened from now on belong to `round`.
    pub fn set_round(&mut self, round: usize) {
        self.round = round;
    }

    /// Open a span now.
    pub fn open(&mut self, name: &'static str, seg: usize, parent: Option<SpanId>) -> SpanId {
        let start_ns = now_ns();
        self.spans.push(Span {
            name,
            seg,
            round: self.round,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Close span `id` now.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = now_ns();
    }

    /// Close span `id` as having lasted `ns`: for a call that stops its own
    /// timer around work that is not the layer's (the live pass putting
    /// packets on the wire).
    pub fn close_timed(&mut self, id: SpanId, ns: u64) {
        let span = &mut self.spans[id];
        span.end_ns = span.start_ns + ns;
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        seg: usize,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, seg, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Time per layer as `name → segment → one sample per round`: a layer
    /// that opens several spans in one segment of one round (offer and drain
    /// alternate) is charged their sum. Rounds before `first_round` (the
    /// warm-up) are skipped.
    pub fn timings(&self, first_round: usize) -> Timings {
        let mut sums: BTreeMap<(&str, usize, usize), u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.round >= first_round) {
            *sums.entry((s.name, s.seg, s.round)).or_default() += s.end_ns - s.start_ns;
        }
        let mut t = Timings::default();
        for ((name, seg, _round), ns) in sums {
            t.record(name, seg, ns);
        }
        t
    }

    /// Self time of every span: duration minus the union of its children's
    /// intervals (children are clipped to the parent and may overlap).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (start, end) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if start < end {
                    children[p].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (start, end) in kids {
                    let from = start.max(reach);
                    if end > from {
                        covered += end - from;
                        reach = end;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// The trace document written to `out/trace-<workload>.json`.
    pub fn to_json(&self, workload: &str) -> Value {
        let self_times = self.self_times();
        let spans = self
            .spans
            .iter()
            .zip(self_times)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                let mut v = Value::obj();
                v.set("id", Value::Num(id as f64));
                v.set("name", Value::Str(s.name.to_string()));
                v.set("segment", Value::Num(s.seg as f64));
                v.set("round", Value::Num(s.round as f64));
                v.set(
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                );
                v.set("start_ns", Value::Num(s.start_ns as f64));
                v.set("end_ns", Value::Num(s.end_ns as f64));
                v.set("self_ns", Value::Num(self_ns as f64));
                v
            })
            .collect();
        let mut doc = Value::obj();
        doc.set("schema", Value::Str("ixp-benchmark/trace/1".into()));
        doc.set("workload", Value::Str(workload.to_string()));
        doc.set("spans", Value::Arr(spans));
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            seg: 0,
            round: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let t = Tracer {
            spans: vec![
                span("root", None, 0, 100),
                span("a", Some(0), 10, 30),     // 20 covered
                span("b", Some(0), 25, 50),     // overlaps a: 20 more
                span("c", Some(0), 90, 120),    // clipped to the parent: 10
                span("leaf", Some(1), 12, 18),  // grandchild: a's business only
                span("empty", Some(0), 60, 60), // zero length
            ],
            round: 0,
        };
        assert_eq!(t.self_times(), vec![100 - 50, 20 - 6, 25, 30, 6, 0]);
    }

    #[test]
    fn timings_group_by_name_and_segment_and_skip_the_warm_up() {
        let mut t = Tracer::default();
        for round in 0..3 {
            t.set_round(round);
            for seg in 0..2 {
                t.span("layer", seg, None, || std::hint::black_box(seg));
            }
        }
        assert_eq!(t.spans().len(), 6);
        let timings = t.timings(1);
        assert_eq!(timings.spread("layer").unwrap().n, 2);
        let doc = t.to_json("w");
        assert_eq!(doc.get("spans").unwrap().as_arr().len(), 6);
    }
}
