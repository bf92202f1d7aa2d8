//! Client-side request tracing: sampling, span buffering, and the
//! retained-trace index behind the shell's `trace` command.
//!
//! The server half of tracing lives in [`pvfs_types::trace`] (flight
//! recorders, span records, the thread-local storage sink). This module
//! is the *origin* of a trace: [`Tracer::begin`] decides — per
//! operation, under the `PVFS_TRACE` mode — whether to mint a
//! [`TraceId`] at all. An untraced operation encodes version-1 frames,
//! byte-identical to a build without tracing, which is what pins the
//! `PVFS_TRACE=off` zero-overhead guarantee.
//!
//! A traced operation carries an [`ActiveTrace`], committed to the
//! client's [`FlightRecorder`] at [`Tracer::finish`] — which is where
//! `slow:<ms>` retention happens.
//! A fast request under `slow` discards its client spans and is never
//! indexed, so the recorder holds only the interesting traces; its
//! server-side spans die by ring-buffer attrition. `sample:1/n` and
//! `all` retain everything they trace.

use pvfs_types::clock::{self, now_ns};
use pvfs_types::{FlightRecorder, TraceId, TraceMode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub use pvfs_types::trace::ActiveTrace;

/// How many retained trace ids the `trace last` index remembers.
const RECENT_TRACES: usize = 64;

/// One client endpoint's trace origin: the sampling decision, the
/// local flight recorder, and the retained-trace index. Shared by every
/// clone of a [`ClusterClient`](crate::ClusterClient).
pub struct Tracer {
    mode: TraceMode,
    node: String,
    recorder: Arc<FlightRecorder>,
    /// Operations seen since the endpoint was built (drives `sample`).
    seen: AtomicU64,
    /// Most recent retained trace ids, oldest first.
    recent: Mutex<Vec<TraceId>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("mode", &self.mode)
            .field("node", &self.node)
            .field("recorded", &self.recorder.len())
            .finish()
    }
}

impl Tracer {
    /// A tracer for `node` (e.g. `client0`) under an explicit mode.
    pub fn new(mode: TraceMode, node: impl Into<String>) -> Tracer {
        Tracer {
            mode,
            node: node.into(),
            recorder: Arc::default(),
            seen: AtomicU64::new(0),
            recent: Mutex::new(Vec::new()),
        }
    }

    /// A tracer configured by `PVFS_TRACE`.
    pub fn from_env(node: impl Into<String>) -> Tracer {
        Tracer::new(TraceMode::from_env(), node)
    }

    /// The mode in force.
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// Does this tracer ever trace?
    pub fn enabled(&self) -> bool {
        self.mode.enabled()
    }

    /// The client-side flight recorder (retained spans only).
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Start tracing one client operation, or `None` when the mode (or
    /// the sampling counter) says to run it untraced. The root span is
    /// written at [`Tracer::finish`].
    pub fn begin(&self, root_op: &str) -> Option<ActiveTrace> {
        match self.mode {
            TraceMode::Off => return None,
            TraceMode::Sample(n) => {
                if !self.seen.fetch_add(1, Ordering::Relaxed).is_multiple_of(n) {
                    return None;
                }
            }
            TraceMode::Slow(_) | TraceMode::All => {}
        }
        Some(ActiveTrace::new(root_op, &self.node, now_ns()))
    }

    /// Close one traced operation: decide retention, and if retained,
    /// commit the root span plus every buffered client span to the
    /// recorder and index the trace id for `trace last`.
    pub fn finish(&self, active: ActiveTrace) -> TraceId {
        let (trace, end_ns) = (active.trace(), now_ns());
        let retain = match self.mode {
            TraceMode::Off => false,
            TraceMode::Slow(threshold) => end_ns - active.start_ns() >= clock::nanos(threshold),
            TraceMode::Sample(_) | TraceMode::All => true,
        };
        if !retain {
            return trace;
        }
        self.recorder.extend(active.into_spans(end_ns));
        let mut recent = self.recent.lock().unwrap();
        if recent.len() >= RECENT_TRACES {
            recent.remove(0);
        }
        recent.push(trace);
        trace
    }

    /// The most recently retained trace id, if any.
    pub fn last(&self) -> Option<TraceId> {
        self.recent.lock().unwrap().last().copied()
    }

    /// Every retained trace id still indexed, oldest first.
    pub fn recent(&self) -> Vec<TraceId> {
        self.recent.lock().unwrap().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvfs_types::SpanId;
    use std::time::Duration;

    #[test]
    fn off_mode_never_begins() {
        let t = Tracer::new(TraceMode::Off, "client0");
        assert!(t.begin("round").is_none());
        assert!(!t.enabled());
    }

    #[test]
    fn all_mode_retains_root_and_buffered_spans() {
        let t = Tracer::new(TraceMode::All, "client0");
        let active = t.begin("round").expect("all mode traces");
        let trace = active.trace();
        let (root, now) = (active.root(), now_ns());
        let rpc = active.span_at(root, "rpc:read", now, now, vec!["retry#2".into()]);
        active.span_at(rpc, "send", now, now, Vec::new());
        let id = t.finish(active);
        assert_eq!(id, trace);
        assert_eq!(t.last(), Some(trace));
        let spans = t.recorder().for_trace(trace);
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.op == "round").unwrap();
        assert_eq!(root.parent, SpanId::NONE);
        assert_eq!(root.node, "client0");
        let send = spans.iter().find(|s| s.op == "send").unwrap();
        assert_eq!(send.parent, rpc);
    }

    #[test]
    fn sample_mode_traces_every_nth_operation() {
        let t = Tracer::new(TraceMode::Sample(3), "client0");
        let hits: Vec<bool> = (0..9).map(|_| t.begin("round").is_some()).collect();
        assert_eq!(
            hits,
            vec![true, false, false, true, false, false, true, false, false]
        );
    }

    #[test]
    fn slow_mode_discards_fast_requests() {
        let t = Tracer::new(TraceMode::Slow(Duration::from_secs(3600)), "client0");
        let active = t.begin("round").expect("slow mode always traces");
        let trace = active.trace();
        active.span_at(active.root(), "rpc:read", now_ns(), now_ns(), Vec::new());
        t.finish(active);
        // Far faster than an hour: dropped, not indexed.
        assert!(t.recorder().for_trace(trace).is_empty());
        assert_eq!(t.last(), None);
        // A zero threshold retains everything.
        let t = Tracer::new(TraceMode::Slow(Duration::ZERO), "client0");
        let active = t.begin("round").unwrap();
        let trace = active.trace();
        t.finish(active);
        assert_eq!(t.last(), Some(trace));
        assert_eq!(t.recorder().for_trace(trace).len(), 1);
    }

    #[test]
    fn recent_index_is_bounded() {
        let t = Tracer::new(TraceMode::All, "client0");
        let mut last = None;
        for _ in 0..(RECENT_TRACES + 10) {
            let a = t.begin("round").unwrap();
            last = Some(t.finish(a));
        }
        let recent = t.recent();
        assert_eq!(recent.len(), RECENT_TRACES);
        assert_eq!(recent.last().copied(), last);
    }
}
