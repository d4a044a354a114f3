//! In-memory spans recorded around calls into the library's layers.
//!
//! A span has a name, a start, an end, the span that caused it and the id of the
//! operation it belongs to. Spans nest through [`Trace::span`]'s closure, stay in
//! memory while the run measures, and are written out once it ends. A span's self
//! time is its duration minus the part of its interval that its children cover;
//! children that overlap each other (parallel work) are counted once.

use std::fmt::Write as _;
// clb-audit: allow(wall-clock) -- spans record wall time around layer calls
use std::time::Instant;

/// One recorded span. Times are seconds since the trace began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call the span covers, e.g. `engine.step`.
    pub name: &'static str,
    /// Start, in seconds since the trace began.
    pub start: f64,
    /// End, in seconds since the trace began.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation the span belongs to.
    pub op: u32,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A span recorder for one benchmark run.
pub struct Trace {
    enabled: bool,
    // clb-audit: allow(wall-clock) -- span times are offsets from this instant
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Self {
            enabled: true,
            // clb-audit: allow(wall-clock) -- the trace's clock starts here
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// A trace that records nothing: [`Trace::span`] only calls its closure.
    pub fn off() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    /// Tags every span recorded from now on with operation `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`; spans `f` records become its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end = self.epoch.elapsed().as_secs_f64();
        result
    }

    /// The spans recorded so far, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Summed self time per span name, in order of first appearance.
    pub fn self_totals(&self) -> Vec<(&'static str, f64)> {
        let mut totals: Vec<(&'static str, f64)> = Vec::new();
        for (span, self_time) in self.spans.iter().zip(self_times(&self.spans)) {
            match totals.iter_mut().find(|(n, _)| *n == span.name) {
                Some((_, total)) => *total += self_time,
                None => totals.push((span.name, self_time)),
            }
        }
        totals
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let self_times = self_times(&self.spans);
        let mut out = String::new();
        for (index, (span, self_time)) in self.spans.iter().zip(self_times).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {index}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_s\": {}, \"end_s\": {}, \"self_s\": {self_time}}}",
                span.name, span.op, span.start, span.end
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// Self time of every span: its duration minus the measure of the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, intervals)| span.duration() - covered(span.start, span.end, intervals))
        .collect()
}

/// Length of the union of `intervals` inside `[lo, hi]`.
fn covered(lo: f64, hi: f64, mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("span times are never NaN"));
    let mut total = 0.0;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_only_once() {
        let spans = [
            span("op", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("a.inner", 2.0, 3.0, Some(1)),
            span("b", 5.0, 6.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![6.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two parallel children covering [1, 5] and [3, 7], plus one inside both.
        let spans = [
            span("op", 0.0, 10.0, None),
            span("x", 1.0, 5.0, Some(0)),
            span("y", 3.0, 7.0, Some(0)),
            span("z", 4.0, 4.5, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 4.0);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = [
            span("op", 2.0, 6.0, None),
            span("early", 0.0, 3.0, Some(0)),
            span("late", 5.0, 9.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 2.0);
    }

    #[test]
    fn recorded_spans_nest_and_carry_their_operation() {
        let mut trace = Trace::new();
        trace.set_op(3);
        let value = trace.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner", |_| 7)
        });
        assert_eq!(value, 7);
        let spans = trace.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans.iter().all(|s| s.op == 3 && s.end >= s.start));
        let outer = spans[0].duration();
        let own = trace.self_totals()[0].1;
        assert!((own - (outer - trace.total("inner"))).abs() < 1e-12);
        assert_eq!(trace.to_json_lines().lines().count(), 3);
    }

    #[test]
    fn a_trace_that_is_off_records_nothing() {
        let mut trace = Trace::off();
        assert_eq!(trace.span("outer", |t| t.span("inner", |_| 5)), 5);
        assert!(trace.spans().is_empty());
    }
}
