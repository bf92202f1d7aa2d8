//! End-to-end request tracing: ids, spans, flight recorders, and the
//! waterfall assembler.
//!
//! A *trace* is one client operation (`round()`, `call()`, a collective
//! phase group) and every piece of work it caused anywhere in the
//! cluster. Each participant records *spans* — `(parent, node, op,
//! start, duration, notes)` — into its own fixed-capacity
//! [`FlightRecorder`]; the trace context (trace id + parent span id)
//! rides the wire frame so server-side spans link causally under the
//! client's RPC-attempt spans. A client-side assembler
//! ([`TraceTree::assemble`]) later stitches the per-node span sets into
//! one waterfall.
//!
//! Ids are plain counters ([`SpanId::next`], [`TraceId::next`]):
//! deterministic under seeded runs, unique process-wide (every daemon
//! in this reproduction shares the process), and free of any wall-clock
//! requirement — timestamps are readings of the program's one clock
//! ([`crate::clock::now_ns`]), so client and server spans share a
//! timeline, and a span shares its readings with the histogram sample
//! taken at the same boundaries.
//!
//! # Retention
//!
//! `PVFS_TRACE=off|slow:<ms>|sample:<1/n>|all` decides which traces the
//! *client* keeps (`slow:` is the slow-request log: only traces whose
//! root span meets the threshold are retained; `sample:1/n` keeps every
//! n-th). Daemons are simpler: they record whenever a frame carries
//! trace context, and their ring buffer ([`DEFAULT_TRACE_CAP`] spans)
//! forgets the oldest spans first.
//! Memory is therefore bounded by construction on every node.
//!
//! # Observer effect
//!
//! Scraping a recorder (the `GetTrace` RPC) never perturbs counters or
//! traces: scrape frames carry no trace context, transports exclude
//! them from wire/queue/service accounting exactly like `GetStats`,
//! and reading a ring clones it without consuming anything.

use crate::error::{PvfsError, PvfsResult};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The capacity, in spans, of every [`FlightRecorder`] a live node keeps
/// (client, daemon, manager): what bounds tracing memory.
pub const DEFAULT_TRACE_CAP: usize = 4096;

/// Identifies one causally-linked tree of spans. `TraceId(0)` is
/// reserved for "no trace".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The reserved "not traced" id.
    pub const NONE: TraceId = TraceId(0);

    /// A fresh process-unique trace id (a counter: deterministic under
    /// seeded runs, never colliding across clients in one process).
    pub fn next() -> TraceId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        TraceId(NEXT.fetch_add(1, Ordering::Relaxed))
    }

    /// Parse the rendering produced by `Display` (hex, no prefix).
    pub fn parse(s: &str) -> PvfsResult<TraceId> {
        u64::from_str_radix(s.trim(), 16)
            .map(TraceId)
            .map_err(|_| PvfsError::invalid(format!("'{s}' is not a trace id")))
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:08x}", self.0)
    }
}

/// Identifies one span within the process. `SpanId(0)` means "no
/// parent" — the root of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The reserved "no parent" id carried by root spans.
    pub const NONE: SpanId = SpanId(0);

    /// A fresh process-unique span id.
    pub fn next() -> SpanId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        SpanId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:x}", self.0)
    }
}

/// The causal context propagated in the wire frame: which trace this
/// request belongs to and which client span fathered it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace every resulting span joins.
    pub trace: TraceId,
    /// The parent for spans the receiving daemon records.
    pub parent: SpanId,
}

/// One timed segment of work inside a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub id: SpanId,
    /// The causal parent ([`SpanId::NONE`] for the trace root).
    pub parent: SpanId,
    /// Which node recorded it: `"client3"`, `"iod0"`, `"mgr"`.
    pub node: String,
    /// Phase tag: `"round"`, `"rpc:ReadList"`, `"queue"`, `"service"`,
    /// `"storage:read"`, `"journal:fsync"`, `"phase_exchange"`, ...
    pub op: String,
    /// Start, a [`crate::clock::now_ns`] reading.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for point events like `failover`).
    pub dur_ns: u64,
    /// Annotations: `"retry#2"`, `"failover"`, `"error"`,
    /// `"quorum_ack:3/3"`, the RPC's target server, ...
    pub notes: Vec<String>,
}

impl Span {
    /// Span `id` of `ctx.trace` under `ctx.parent`, recorded by `node`:
    /// `op`, from the clock reading `start_ns` to `end_ns`, no notes.
    pub fn new(
        ctx: TraceContext,
        id: SpanId,
        node: impl Into<String>,
        op: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            trace: ctx.trace,
            id,
            parent: ctx.parent,
            node: node.into(),
            op: op.into(),
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            notes: Vec::new(),
        }
    }
}

struct Ring {
    spans: VecDeque<Span>,
    dropped: u64,
}

/// A fixed-capacity ring buffer of completed spans. Lock-light: one
/// short-held mutex per recorder, no allocation beyond the spans
/// themselves, oldest spans evicted first. Every daemon, the manager,
/// and the client own exactly one.
pub struct FlightRecorder {
    cap: usize,
    inner: Mutex<Ring>,
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ring = self.inner.lock().unwrap();
        f.debug_struct("FlightRecorder")
            .field("cap", &self.cap)
            .field("len", &ring.spans.len())
            .field("dropped", &ring.dropped)
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder retaining at most `cap` spans (`cap` is clamped to at
    /// least 1 — a zero-capacity recorder would silently drop every
    /// span). Live nodes keep the [`Default`] one, of [`DEFAULT_TRACE_CAP`].
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            cap: cap.max(1),
            inner: Mutex::new(Ring {
                spans: VecDeque::new(),
                dropped: 0,
            }),
        }
    }

    /// The configured capacity in spans.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Spans currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().spans.len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted so far to honor the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Record one completed span, evicting the oldest beyond capacity.
    pub fn push(&self, span: Span) {
        self.extend([span]);
    }

    /// Record a batch of completed spans.
    pub fn extend(&self, spans: impl IntoIterator<Item = Span>) {
        let mut ring = self.inner.lock().unwrap();
        for span in spans {
            if ring.spans.len() == self.cap {
                ring.spans.pop_front();
                ring.dropped += 1;
            }
            ring.spans.push_back(span);
        }
    }

    /// Every retained span of one trace, oldest first. A pure read:
    /// repeated scrapes return identical results on a quiescent ring.
    pub fn for_trace(&self, trace: TraceId) -> Vec<Span> {
        self.inner
            .lock()
            .unwrap()
            .spans
            .iter()
            .filter(|s| s.trace == trace)
            .cloned()
            .collect()
    }

    /// Every retained span, oldest first.
    pub fn snapshot(&self) -> Vec<Span> {
        self.inner.lock().unwrap().spans.iter().cloned().collect()
    }

    /// Forget everything (test isolation; `ResetStats` leaves traces
    /// alone — they are diagnostics, not counters).
    pub fn clear(&self) {
        let mut ring = self.inner.lock().unwrap();
        ring.spans.clear();
        ring.dropped = 0;
    }
}

/// A live node's recorder: [`DEFAULT_TRACE_CAP`] spans.
impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(DEFAULT_TRACE_CAP)
    }
}

/// Client-side trace retention policy (`PVFS_TRACE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// No tracing at all: no context on the wire, byte-identical frames
    /// to an untraced build. The default.
    #[default]
    Off,
    /// Trace every operation but retain only those whose root span
    /// lasted at least this long — the slow-request log.
    Slow(Duration),
    /// Head sampling: trace (and retain) every n-th operation.
    Sample(u64),
    /// Trace and retain everything (bounded by the recorder capacity).
    All,
}

impl TraceMode {
    /// Parse a `PVFS_TRACE` spec: `off`, `slow:<ms>`, `sample:<1/n>`
    /// (the `1/` is optional: `sample:16` ≡ `sample:1/16`), or `all`.
    pub fn parse(spec: &str) -> PvfsResult<TraceMode> {
        let spec = spec.trim();
        match spec {
            "off" | "" => return Ok(TraceMode::Off),
            "all" => return Ok(TraceMode::All),
            _ => {}
        }
        if let Some(ms) = spec.strip_prefix("slow:") {
            let ms: u64 = ms.parse().map_err(|_| {
                PvfsError::Config(format!(
                    "PVFS_TRACE slow threshold '{ms}' is not a number of milliseconds"
                ))
            })?;
            return Ok(TraceMode::Slow(Duration::from_millis(ms)));
        }
        if let Some(rate) = spec.strip_prefix("sample:") {
            let n = rate.strip_prefix("1/").unwrap_or(rate);
            let n: u64 = n.parse().map_err(|_| {
                PvfsError::Config(format!("PVFS_TRACE sample rate '{rate}' is not 1/<n>"))
            })?;
            if n == 0 {
                return Err(PvfsError::Config(
                    "PVFS_TRACE sample rate must be at least 1/1".into(),
                ));
            }
            return Ok(TraceMode::Sample(n));
        }
        Err(PvfsError::Config(format!(
            "PVFS_TRACE '{spec}' is not off|slow:<ms>|sample:<1/n>|all"
        )))
    }

    /// The mode selected by `PVFS_TRACE` (unset ⇒ [`TraceMode::Off`]).
    /// Panics on a malformed spec, like every other `PVFS_*` variable.
    pub fn from_env() -> TraceMode {
        let parse = |spec: &str| TraceMode::parse(spec).map_err(|e| e.to_string());
        crate::env::parsed("PVFS_TRACE", parse, TraceMode::Off)
    }

    /// Does this mode ever record anything?
    pub fn enabled(&self) -> bool {
        !matches!(self, TraceMode::Off)
    }
}

// ---------------------------------------------------------------------
// Thread-local span sink: lets deep storage code (shard-locked file
// ops, the disk crate's fsync path) contribute spans to the serving
// daemon's recorder without threading a context through every call.

struct SinkScope {
    ctx: TraceContext,
    node: String,
    /// Aggregated per-op timing: first start + summed duration. A list
    /// request touching 64 regions yields ONE `storage:read` span, not
    /// 64.
    acc: Vec<(String, u64, u64)>,
}

thread_local! {
    static SINK: RefCell<Option<SinkScope>> = const { RefCell::new(None) };
}

/// Runs `f` with a thread-local span sink installed: any
/// [`sink_add`] call underneath lands in `out` as spans parented to
/// `ctx.parent`, aggregated per op tag. `journal:*` contributions nest
/// under the scope's `storage:write` span when one exists (an fsync
/// inside a journaled write) and under `ctx.parent` otherwise (an
/// explicit sync barrier).
pub fn with_span_sink<R>(
    ctx: TraceContext,
    node: &str,
    out: &FlightRecorder,
    f: impl FnOnce() -> R,
) -> R {
    let prev = SINK.with(|s| {
        s.replace(Some(SinkScope {
            ctx,
            node: node.to_string(),
            acc: Vec::new(),
        }))
    });
    let result = f();
    let scope = SINK.with(|s| s.replace(prev));
    if let Some(SinkScope { ctx, node, acc }) = scope {
        let ids: Vec<SpanId> = acc.iter().map(|_| SpanId::next()).collect();
        let write = acc.iter().position(|(op, _, _)| op == "storage:write");
        out.extend(acc.iter().zip(&ids).map(|((op, start_ns, dur_ns), id)| {
            let parent = match write {
                Some(w) if op.starts_with("journal:") => ids[w],
                _ => ctx.parent,
            };
            let ctx = TraceContext { parent, ..ctx };
            Span::new(ctx, *id, &node, op, *start_ns, start_ns + dur_ns)
        }));
    }
    result
}

/// Contribute the work tagged `op` that ran from the reading `start_ns`
/// to `end_ns` to the active span sink, if any. Nearly free when no sink
/// is installed (one thread-local read), so the storage hot path can
/// call it unconditionally.
pub fn sink_add(op: &str, start_ns: u64, end_ns: u64) {
    SINK.with(|s| {
        if let Some(scope) = s.borrow_mut().as_mut() {
            let dur_ns = end_ns.saturating_sub(start_ns);
            match scope.acc.iter_mut().find(|(o, _, _)| o == op) {
                Some((_, _, total)) => *total += dur_ns,
                None => scope.acc.push((op.to_string(), start_ns, dur_ns)),
            }
        }
    });
}

// ---------------------------------------------------------------------
// Assembly: stitch per-node span sets into one waterfall.

/// A causally-ordered view over every span of one trace, assembled
/// client-side from the local recorder plus `GetTrace` scrapes.
#[derive(Debug)]
pub struct TraceTree {
    trace: TraceId,
    /// Deduplicated spans, roots first, then by start time.
    spans: Vec<Span>,
    /// Indices of spans whose parent is [`SpanId::NONE`].
    roots: Vec<usize>,
    /// index of span -> indices of children, start-ordered.
    children: HashMap<SpanId, Vec<usize>>,
    /// Spans whose parent id is unknown to the tree (evicted from a
    /// ring, or a bug in context propagation).
    orphans: Vec<usize>,
}

impl TraceTree {
    /// Build the tree for `trace` from any collection of spans
    /// (duplicates — the same span scraped twice — are dropped by id;
    /// spans of other traces are ignored).
    pub fn assemble(trace: TraceId, spans: Vec<Span>) -> TraceTree {
        let mut seen: HashMap<SpanId, ()> = HashMap::new();
        let mut spans: Vec<Span> = spans
            .into_iter()
            .filter(|s| s.trace == trace && seen.insert(s.id, ()).is_none())
            .collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let ids: HashMap<SpanId, ()> = spans.iter().map(|s| (s.id, ())).collect();
        let mut roots = Vec::new();
        let mut orphans = Vec::new();
        let mut children: HashMap<SpanId, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            if s.parent == SpanId::NONE {
                roots.push(i);
            } else if ids.contains_key(&s.parent) {
                children.entry(s.parent).or_default().push(i);
            } else {
                orphans.push(i);
            }
        }
        TraceTree {
            trace,
            spans,
            roots,
            children,
            orphans,
        }
    }

    /// The trace this tree describes.
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// Every span in the tree, start-ordered.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The root spans (one for a well-formed trace).
    pub fn roots(&self) -> Vec<&Span> {
        self.roots.iter().map(|&i| &self.spans[i]).collect()
    }

    /// Spans whose parent is missing from the tree. Empty for a
    /// well-formed trace; non-empty means a ring evicted an ancestor or
    /// context propagation broke.
    pub fn orphans(&self) -> Vec<&Span> {
        self.orphans.iter().map(|&i| &self.spans[i]).collect()
    }

    /// Total duration: the widest root span.
    pub fn duration_ns(&self) -> u64 {
        self.roots().iter().map(|s| s.dur_ns).max().unwrap_or(0)
    }

    /// Render the indented waterfall:
    ///
    /// ```text
    /// trace 00000001 · round · 1.234 ms · 5 spans
    ///   [client0] round            @0.000ms  +1.234ms
    ///     [client0] rpc:ReadList   @0.010ms  +1.100ms  iod0 retry#2
    ///       [iod0] queue           @0.050ms  +0.020ms
    ///       [iod0] service         @0.070ms  +0.900ms
    ///         [iod0] storage:read  @0.080ms  +0.700ms
    /// ```
    ///
    /// Offsets are relative to the earliest span; durations per hop.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let label = self
            .roots
            .first()
            .map(|&i| self.spans[i].op.clone())
            .unwrap_or_else(|| "?".into());
        let _ = writeln!(
            out,
            "trace {} · {label} · {:.3} ms · {} spans",
            self.trace,
            self.duration_ns() as f64 / 1e6,
            self.spans.len()
        );
        let t0 = self.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let roots = self.roots.clone();
        for i in roots {
            self.render_span(&mut out, i, 1, t0);
        }
        for &i in &self.orphans {
            let _ = writeln!(out, "  (orphan) {}", describe(&self.spans[i], t0));
        }
        if out.ends_with('\n') {
            out.pop();
        }
        out
    }

    fn render_span(&self, out: &mut String, i: usize, depth: usize, t0: u64) {
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "{}{}",
            "  ".repeat(depth),
            describe(&self.spans[i], t0)
        );
        if let Some(kids) = self.children.get(&self.spans[i].id) {
            for &k in kids.clone().iter() {
                self.render_span(out, k, depth + 1, t0);
            }
        }
    }
}

fn describe(s: &Span, t0: u64) -> String {
    let mut line = format!(
        "[{}] {:<18} @{:>9.3}ms  +{:>9.3}ms",
        s.node,
        s.op,
        s.start_ns.saturating_sub(t0) as f64 / 1e6,
        s.dur_ns as f64 / 1e6,
    );
    if !s.notes.is_empty() {
        line.push_str("  ");
        line.push_str(&s.notes.join(" "));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, parent: u64, op: &str, start: u64, dur: u64) -> Span {
        Span {
            trace: TraceId(trace),
            id: SpanId(id),
            parent: SpanId(parent),
            node: "test".into(),
            op: op.into(),
            start_ns: start,
            dur_ns: dur,
            notes: Vec::new(),
        }
    }

    #[test]
    fn ids_are_unique_and_monotonic() {
        let a = SpanId::next();
        let b = SpanId::next();
        assert!(b.0 > a.0);
        let t1 = TraceId::next();
        let t2 = TraceId::next();
        assert!(t2.0 > t1.0);
        assert_ne!(t1, TraceId::NONE);
    }

    #[test]
    fn trace_id_roundtrips_through_display() {
        let t = TraceId(0xdead_beef);
        assert_eq!(TraceId::parse(&t.to_string()).unwrap(), t);
        assert!(TraceId::parse("not-hex").is_err());
    }

    #[test]
    fn recorder_honors_its_capacity() {
        let rec = FlightRecorder::new(3);
        for i in 0..5 {
            rec.push(span(1, i + 1, 0, "op", i * 10, 1));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.cap(), 3);
        assert_eq!(rec.dropped(), 2);
        // The oldest two were evicted.
        let kept: Vec<u64> = rec.snapshot().iter().map(|s| s.id.0).collect();
        assert_eq!(kept, vec![3, 4, 5]);
    }

    #[test]
    fn recorder_scrape_is_a_pure_read() {
        let rec = FlightRecorder::new(8);
        rec.push(span(7, 1, 0, "round", 0, 100));
        rec.push(span(8, 2, 0, "round", 0, 100));
        let first = rec.for_trace(TraceId(7));
        let second = rec.for_trace(TraceId(7));
        assert_eq!(first, second, "scraping consumed or reordered spans");
        assert_eq!(first.len(), 1);
        assert_eq!(rec.len(), 2);
    }

    #[test]
    fn trace_mode_parses_every_documented_form() {
        assert_eq!(TraceMode::parse("off").unwrap(), TraceMode::Off);
        assert_eq!(TraceMode::parse("all").unwrap(), TraceMode::All);
        assert_eq!(
            TraceMode::parse("slow:25").unwrap(),
            TraceMode::Slow(Duration::from_millis(25))
        );
        assert_eq!(
            TraceMode::parse("sample:1/16").unwrap(),
            TraceMode::Sample(16)
        );
        assert_eq!(
            TraceMode::parse("sample:16").unwrap(),
            TraceMode::Sample(16)
        );
        assert!(!TraceMode::Off.enabled());
        assert!(TraceMode::All.enabled());
    }

    #[test]
    fn malformed_trace_specs_are_typed_config_errors() {
        for bad in [
            "sometimes",
            "slow:",
            "slow:soon",
            "slow:-5",
            "sample:0",
            "sample:1/0",
            "sample:often",
            "all:really",
        ] {
            match TraceMode::parse(bad) {
                Err(PvfsError::Config(msg)) => {
                    assert!(msg.contains("PVFS_TRACE"), "unhelpful error: {msg}")
                }
                other => panic!("'{bad}' produced {other:?}, want Config error"),
            }
        }
    }

    #[test]
    fn assembly_builds_one_tree_and_flags_orphans() {
        let spans = vec![
            span(9, 10, 0, "round", 0, 1000),
            span(9, 11, 10, "rpc:Read", 100, 800),
            span(9, 12, 11, "queue", 200, 50),
            span(9, 13, 11, "service", 250, 600),
            span(9, 14, 99, "storage:read", 300, 400), // parent 99 missing
            span(9, 11, 10, "rpc:Read", 100, 800),     // duplicate scrape
            span(8, 50, 0, "other-trace", 0, 5),       // filtered out
        ];
        let tree = TraceTree::assemble(TraceId(9), spans);
        assert_eq!(tree.spans().len(), 5);
        assert_eq!(tree.roots().len(), 1);
        assert_eq!(tree.roots()[0].op, "round");
        assert_eq!(tree.orphans().len(), 1);
        assert_eq!(tree.orphans()[0].op, "storage:read");
        assert_eq!(tree.duration_ns(), 1000);
    }

    #[test]
    fn waterfall_renders_indentation_and_notes() {
        let mut rpc = span(3, 2, 1, "rpc:ReadList", 10, 80);
        rpc.notes.push("iod0".into());
        rpc.notes.push("retry#2".into());
        let spans = vec![
            span(3, 1, 0, "round", 0, 100),
            rpc,
            span(3, 4, 2, "queue", 20, 5),
        ];
        let out = TraceTree::assemble(TraceId(3), spans).render();
        assert!(out.starts_with("trace 00000003 · round"), "{out}");
        assert!(out.contains("\n  [test] round"), "{out}");
        assert!(out.contains("\n    [test] rpc:ReadList"), "{out}");
        assert!(out.contains("\n      [test] queue"), "{out}");
        assert!(out.contains("iod0 retry#2"), "{out}");
        assert!(out.contains("3 spans"), "{out}");
    }

    #[test]
    fn span_sink_aggregates_per_op_and_nests_journal_under_write() {
        let rec = FlightRecorder::new(16);
        let ctx = TraceContext {
            trace: TraceId(40),
            parent: SpanId(7),
        };
        with_span_sink(ctx, "iod1", &rec, || {
            for i in 0..64 {
                sink_add("storage:write", 1_000 * i, 1_000 * i + 100);
            }
            sink_add("journal:fsync", 70_000, 70_500);
        });
        let spans = rec.for_trace(TraceId(40));
        assert_eq!(spans.len(), 2, "64 region writes must aggregate: {spans:?}");
        let write = spans.iter().find(|s| s.op == "storage:write").unwrap();
        assert_eq!((write.start_ns, write.dur_ns), (0, 6400));
        assert_eq!(write.parent, SpanId(7));
        assert_eq!(write.node, "iod1");
        let fsync = spans.iter().find(|s| s.op == "journal:fsync").unwrap();
        assert_eq!(fsync.parent, write.id, "journal nests under the write");
        assert_eq!((fsync.start_ns, fsync.dur_ns), (70_000, 500));
    }

    #[test]
    fn span_sink_is_inert_when_absent() {
        // No scope installed: must not record or panic.
        sink_add("storage:read", 0, 5);
        let rec = FlightRecorder::new(4);
        assert!(rec.is_empty());
    }
}
