//! Spans recorded from the benchmark's own files, around the calls into
//! each layer: name, start, end, the span that caused it, and the op
//! they all belong to. Kept in memory; written at exit as Chrome
//! trace-event JSON.

use crate::alloc::AllocCount;
use crate::json::Value;
use std::time::Instant;

/// One completed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, `None` for a root.
    pub parent: Option<usize>,
    /// The op this span belongs to; every span of one op shares it.
    pub op: u64,
    /// Heap allocations made while the span was open.
    pub allocs: AllocCount,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder: `enter`/`exit` nest, `leaf` times
/// one call.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, AllocCount)>,
    op: u64,
}

impl Recorder {
    /// Room for `capacity` spans up front, so recording itself does not
    /// reallocate inside a span that is counting allocations.
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            op: 0,
        }
    }

    /// Spans opened from now on belong to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let idx = self.spans.len();
        let parent = self.open.last().map(|(i, _)| *i);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
            allocs: AllocCount::default(),
        });
        self.open.push((idx, AllocCount::now()));
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let allocs_now = AllocCount::now();
        let end_ns = self.now_ns();
        let (idx, allocs_before) = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = end_ns;
        self.spans[idx].allocs = allocs_now.since(allocs_before);
    }

    /// Time one call as a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. The recorder is single-threaded, so siblings never
/// overlap and the subtraction is exact.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// ("X") event per span, microsecond timestamps, with the op id and the
/// parent link in `args`.
pub fn chrome_trace(spans: &[Span]) -> Value {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut args = Value::obj();
            args.push("op", s.op).push("id", i);
            match s.parent {
                Some(p) => args.push("parent", p),
                None => args.push("parent", Value::Null),
            };
            let mut e = Value::obj();
            e.push("name", s.name)
                .push("ph", "X")
                .push("ts", s.start_ns as f64 / 1e3)
                .push("dur", s.dur_ns() as f64 / 1e3)
                .push("pid", 1u64)
                .push("tid", 1u64)
                .push("args", args);
            e
        })
        .collect::<Vec<_>>();
    let mut doc = Value::obj();
    doc.push("traceEvents", events)
        .push("displayTimeUnit", "ns");
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 7,
            allocs: AllocCount::default(),
        }
    }

    #[test]
    fn children_covering_a_parent_leave_the_remainder() {
        let spans = vec![
            span("op", 0, 100, None),
            span("plan", 10, 30, Some(0)),
            span("rpc", 30, 90, Some(0)),
            span("encode", 35, 50, Some(2)),
            span("handle", 50, 85, Some(2)),
        ];
        // op: 100 - 20 - 60; rpc: 60 - 15 - 35; leaves keep their own.
        assert_eq!(self_times_ns(&spans), vec![20, 20, 10, 15, 35]);
        // Self times add back up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_and_tags_the_op() {
        let mut rec = Recorder::with_capacity(16);
        rec.set_op(3);
        rec.enter("op");
        let v = rec.leaf("stage", || vec![0u8; 4096]);
        rec.exit();
        std::hint::black_box(v);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert!(spans.iter().all(|s| s.op == 3));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(spans[1].allocs.allocs >= 1 && spans[1].allocs.bytes >= 4096);
    }

    #[test]
    fn chrome_trace_links_parents_and_ops() {
        let spans = vec![
            span("op", 0, 2_000, None),
            span("plan", 500, 1_500, Some(0)),
        ];
        let doc = chrome_trace(&spans);
        let Some(Value::Arr(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents");
        };
        assert_eq!(events.len(), 2);
        let child = &events[1];
        assert_eq!(child.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(child.get("ts").and_then(Value::as_f64), Some(0.5));
        assert_eq!(child.get("dur").and_then(Value::as_f64), Some(1.0));
        let args = child.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(args.get("op").and_then(Value::as_f64), Some(7.0));
        assert_eq!(
            events[0].get("args").unwrap().get("parent"),
            Some(&Value::Null)
        );
    }
}
