//! In-memory spans recorded around calls into the workspace's crates.
//!
//! A span is named `<layer>.<what>` (`core.reorder.dbg`,
//! `graph.permute`, `bench.pass`); the layer is the crate the timed
//! call enters, and `bench` marks the benchmark's own harness. Spans
//! stay in memory while a pass runs and are written out as JSON lines
//! when it ends. A span's self time is its duration minus the part of
//! that interval its child spans cover, so overlapping children are
//! not subtracted twice.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: String,
    /// Nanoseconds since the trace began.
    pub start: u64,
    /// Nanoseconds since the trace began (`start` while still open).
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The job (or request) the span belongs to.
    pub job: u64,
}

impl Span {
    /// The crate the span's call entered.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// A recorder of spans sharing one time origin.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its index, to pass to [`Trace::close`]
    /// and as the parent of nested spans.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>, job: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name: name.into(),
            start,
            end: start,
            parent,
            job,
        });
        self.spans.len() - 1
    }

    /// Closes the span `id`.
    pub fn close(&mut self, id: usize) {
        let end = self.now();
        if let Some(span) = self.spans.get_mut(id) {
            span.end = end;
        }
    }

    /// Records a span that ran from `start` to `end`, for work timed
    /// before it was known whether to trace it.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        job: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name: name.into(),
            start: at(start),
            end: at(end),
            parent,
            job,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        job: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, job);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Builds a trace from recorded spans.
    #[cfg(test)]
    pub fn from_spans(spans: Vec<Span>) -> Self {
        Trace {
            origin: Instant::now(),
            spans,
        }
    }

    /// Duration of span `id` in nanoseconds.
    pub fn duration(&self, id: usize) -> u64 {
        self.spans
            .get(id)
            .map_or(0, |s| s.end.saturating_sub(s.start))
    }

    /// Self time of every span, indexed like [`Trace::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent.and_then(|p| children.get_mut(p)) {
                p.push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                // Length of the union of the children, clipped to the
                // parent's own interval.
                let mut covered = 0;
                let mut reach = span.start;
                for (start, end) in kids {
                    let start = start.max(reach);
                    let end = end.min(span.end);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (span.end.saturating_sub(span.start)).saturating_sub(covered)
            })
            .collect()
    }

    /// Total self time (ns) and span count per span name.
    pub fn self_by_name(&self) -> BTreeMap<String, (u64, u64)> {
        let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            let entry = out.entry(span.name.clone()).or_default();
            entry.0 += own;
            entry.1 += 1;
        }
        out
    }

    /// Total self time (ns) per layer.
    pub fn self_by_layer(&self) -> BTreeMap<String, u64> {
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(span.layer().to_owned()).or_default() += own;
        }
        out
    }

    /// Total self time in milliseconds of spans named `name`.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_by_name()
            .get(name)
            .map_or(0.0, |&(ns, _)| ns as f64 / 1e6)
    }

    /// Mean self time in microseconds of spans named `name`.
    pub fn mean_self_us(&self, name: &str) -> f64 {
        self.self_by_name()
            .get(name)
            .map_or(0.0, |&(ns, n)| ns as f64 / 1e3 / n.max(1) as f64)
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (span, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{},\"self_ns\":{own}}}",
                span.name, span.start, span.end, span.job
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start,
            end,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once_when_they_overlap() {
        let trace = Trace::from_spans(vec![
            span("bench.pass", 0, 100, None),
            // Two children overlapping on [20, 30): 40 ns covered.
            span("serve.parse", 10, 30, Some(0)),
            span("engine.report", 20, 50, Some(0)),
            // A child nested inside that child.
            span("engine.to_json", 25, 35, Some(2)),
            // A child straddling the parent's end is clipped to it.
            span("serve.wire", 90, 120, Some(0)),
        ]);
        let own = trace.self_times();
        assert_eq!(own, vec![100 - 40 - 10, 20, 30 - 10, 10, 30]);
        let layers = trace.self_by_layer();
        assert_eq!(layers["bench"], 50);
        assert_eq!(layers["engine"], 30);
    }

    #[test]
    fn identical_and_contained_children_cover_their_union() {
        let trace = Trace::from_spans(vec![
            span("bench.pass", 0, 100, None),
            span("a.x", 10, 60, Some(0)),
            span("a.x", 10, 60, Some(0)),
            span("a.y", 20, 30, Some(0)),
            span("a.z", 70, 80, Some(0)),
        ]);
        assert_eq!(trace.self_times()[0], 100 - 50 - 10);
        let by_name = trace.self_by_name();
        assert_eq!(by_name["a.x"], (100, 2));
    }

    #[test]
    fn recorded_spans_nest_and_account_for_the_parent() {
        let mut trace = Trace::default();
        let root = trace.open("bench.pass", None, 0);
        let v = trace.span("graph.work", Some(root), 1, || (0..1000u64).sum::<u64>());
        assert_eq!(v, 499_500);
        trace.close(root);
        let own: u64 = trace.self_times().iter().sum();
        assert_eq!(own, trace.duration(root));
        assert_eq!(trace.spans()[1].job, 1);
        assert_eq!(trace.spans()[1].layer(), "graph");
    }
}
