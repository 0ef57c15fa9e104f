//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is (name, start, end, parent, op). Spans stay in memory and are
//! written out when the workload ends. A layer's *self time* is its
//! span's duration minus the part of that interval its child spans cover,
//! so the self times of an op's spans add up to the op's wall time and
//! nothing is counted twice. With tracing off, no clock is read.

use std::collections::BTreeMap;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the trace's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `chain.recode`.
    pub name: &'static str,
    /// Operation the span belongs to.
    pub op: u64,
    /// Index (within the same op's spans) of the span that caused this
    /// one, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// The in-memory span recorder. The spans of the running operation are
/// kept apart from those of finished ones, so that recording never has
/// to grow (and copy) the whole run's list inside a timed operation.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
    finished: Vec<Span>,
}

impl Trace {
    /// A recorder; with `enabled` false every call is a no-op.
    #[must_use]
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
            finished: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off between operations.
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Names the operation the following spans belong to.
    pub fn start_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(NO_PARENT);
        }
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, op: self.op, parent, start_ns, end_ns: start_ns });
        self.open.push(index);
        SpanId(index)
    }

    /// Closes a span opened by [`Trace::begin`].
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0 as usize].end_ns = end_ns;
    }

    /// Runs `call` inside a span.
    pub fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let result = call();
        self.end(id);
        result
    }

    /// Ends the running operation: returns its spans (parents index
    /// into this slice) and keeps them for [`Trace::finished`].
    pub fn finish_op(&mut self) -> &[Span] {
        debug_assert!(self.open.is_empty(), "finished inside an open span");
        let first = self.finished.len();
        self.finished.append(&mut self.spans);
        &self.finished[first..]
    }

    /// Every span of every finished operation, in recording order.
    #[must_use]
    pub fn finished(&self) -> &[Span] {
        &self.finished
    }
}

/// Self time of every span of one op: duration minus the union of its
/// children's intervals, each clipped to the parent's own interval.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            let parent = &spans[span.parent as usize];
            let start = span.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = span.end_ns.clamp(parent.start_ns, parent.end_ns);
            children[span.parent as usize].push((start, end));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// Self time and call count per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTotal {
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Spans of that name.
    pub calls: u64,
}

/// Folds one op's spans into per-name totals.
#[must_use]
pub fn stage_totals(spans: &[Span]) -> BTreeMap<&'static str, StageTotal> {
    let mut totals: BTreeMap<&'static str, StageTotal> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let total = totals.entry(span.name).or_default();
        total.self_ns += self_ns;
        total.calls += 1;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "s", op: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans = [span(NO_PARENT, 0, 100), span(0, 10, 60), span(1, 20, 30)];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_unioned_not_double_counted() {
        // children 10..50 and 30..70 cover 10..70 = 60, not 80; a third,
        // contained child 35..40 adds nothing.
        let spans = [span(NO_PARENT, 0, 100), span(0, 10, 50), span(0, 30, 70), span(0, 35, 40)];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn a_child_outliving_its_parent_is_clipped() {
        let spans = [span(NO_PARENT, 0, 100), span(0, 90, 130)];
        assert_eq!(self_times(&spans), vec![90, 40]);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut trace = Trace::new(false);
        let id = trace.begin("a");
        trace.end(id);
        assert_eq!(trace.time("b", || 7), 7);
        assert!(trace.finish_op().is_empty());
    }

    #[test]
    fn recorded_spans_nest_under_the_open_span_and_carry_the_op() {
        let mut trace = Trace::new(true);
        trace.start_op(9);
        let root = trace.begin("op");
        trace.time("stage", || ());
        trace.end(root);
        let spans = trace.finish_op().to_vec();
        assert_eq!(trace.finished(), spans);
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (NO_PARENT, 0));
        assert!(spans.iter().all(|s| s.op == 9 && s.end_ns >= s.start_ns));
        let totals = stage_totals(&spans);
        assert_eq!(totals["stage"].calls, 1);
        assert_eq!(
            totals["op"].self_ns + totals["stage"].self_ns,
            spans[0].end_ns - spans[0].start_ns
        );
    }
}
