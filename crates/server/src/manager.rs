//! The manager daemon: metadata only.
//!
//! "PVFS also has a manager daemon that handles only metadata operations
//! … The manager does not participate in read/write operations" (§2).
//! The manager here owns the namespace (path → handle + striping) and
//! allocates handles; it never touches file data, and the client library
//! computes file sizes by querying the I/O daemons directly, keeping the
//! manager off the data path exactly as PVFS does.

use pvfs_proto::{Request, Response};
use pvfs_types::trace::{self, FlightRecorder, Span, SpanId, TraceContext};
use pvfs_types::{FileHandle, PvfsError, SharedHistogram, StatsSnapshot, StripeLayout};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone)]
struct MetaEntry {
    handle: FileHandle,
    layout: StripeLayout,
    open_count: u64,
}

/// Manager-side counters. Atomics so the transport layer can account
/// wire traffic through `&Manager` while the dispatch loop holds the
/// namespace mutably.
#[derive(Debug, Default)]
struct ManagerStats {
    requests: AtomicU64,
    errors: AtomicU64,
    bytes_rx: AtomicU64,
    bytes_tx: AtomicU64,
    frames_rx: AtomicU64,
}

/// The PVFS manager daemon.
#[derive(Debug)]
pub struct Manager {
    next_handle: u64,
    by_path: HashMap<String, MetaEntry>,
    by_handle: HashMap<FileHandle, String>,
    stats: ManagerStats,
    service_time: SharedHistogram,
    /// Trace ring buffer for metadata requests that carry trace
    /// context, scraped by `GetTrace`.
    recorder: Arc<FlightRecorder>,
}

impl Default for Manager {
    fn default() -> Manager {
        Manager::new()
    }
}

impl Manager {
    /// An empty namespace.
    pub fn new() -> Manager {
        Manager {
            next_handle: 1,
            by_path: HashMap::new(),
            by_handle: HashMap::new(),
            stats: ManagerStats::default(),
            service_time: SharedHistogram::new(),
            recorder: Arc::new(FlightRecorder::from_env()),
        }
    }

    /// The manager's flight recorder (span ring buffer).
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Number of files in the namespace.
    pub fn file_count(&self) -> usize {
        self.by_path.len()
    }

    /// The striping layout of an open handle, if known.
    pub fn layout_of(&self, handle: FileHandle) -> Option<StripeLayout> {
        let path = self.by_handle.get(&handle)?;
        self.by_path.get(path).map(|e| e.layout)
    }

    /// Account one request frame arriving on the manager's transport.
    pub fn record_wire_rx(&self, wire_bytes: u64) {
        self.stats.frames_rx.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_rx.fetch_add(wire_bytes, Ordering::Relaxed);
    }

    /// Account one response frame leaving on the manager's transport.
    pub fn record_wire_tx(&self, wire_bytes: u64) {
        self.stats.bytes_tx.fetch_add(wire_bytes, Ordering::Relaxed);
    }

    /// Take back a [`record_wire_tx`](Manager::record_wire_tx) whose
    /// frame never left (accounted before a write that then failed).
    pub fn retract_wire_tx(&self, wire_bytes: u64) {
        let _ = self
            .stats
            .bytes_tx
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(wire_bytes))
            });
    }

    /// Record how long one metadata request took to serve (wall clock,
    /// recorded by the transport loop around [`Manager::handle`]).
    pub fn record_service(&self, took: Duration) {
        self.service_time.record_duration(took);
    }

    /// Everything the `GetStats` control RPC reports for the manager.
    /// Data-path counters stay zero — the manager never touches file
    /// data — and its single dispatch loop reports one worker.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.stats.requests.load(Ordering::Relaxed),
            errors: self.stats.errors.load(Ordering::Relaxed),
            bytes_rx: self.stats.bytes_rx.load(Ordering::Relaxed),
            bytes_tx: self.stats.bytes_tx.load(Ordering::Relaxed),
            frames_rx: self.stats.frames_rx.load(Ordering::Relaxed),
            workers: 1,
            service_time: self.service_time.snapshot(),
            ..StatsSnapshot::default()
        }
    }

    /// Zero the manager's counters and service-time distribution.
    pub fn reset_stats(&self) {
        for c in [
            &self.stats.requests,
            &self.stats.errors,
            &self.stats.bytes_rx,
            &self.stats.bytes_tx,
            &self.stats.frames_rx,
        ] {
            c.store(0, Ordering::Relaxed);
        }
        self.service_time.reset();
    }

    /// Serve one metadata request.
    pub fn handle(&mut self, request: &Request) -> Response {
        // Stats scrapes answer before any counter moves, so a scraped
        // snapshot equals the in-process one byte for byte.
        match request {
            Request::GetStats => return Response::Stats(Box::new(self.stats_snapshot())),
            Request::ResetStats => {
                let snap = self.stats_snapshot();
                self.reset_stats();
                return Response::Stats(Box::new(snap));
            }
            Request::GetTrace { trace } => {
                // Joins GetStats under the observer-effect guarantee:
                // unaccounted, and reading the ring is a pure clone.
                return Response::Spans(self.recorder.for_trace(*trace));
            }
            _ => {}
        }
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        match self.dispatch(request) {
            Ok(resp) => resp,
            Err(e) => {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
                Response::Error(e)
            }
        }
    }

    /// Serve one metadata request, recording a `service` span (node
    /// `mgr`) when the frame carried trace context. Control scrapes are
    /// never traced. `waited` is the time the request sat queued before
    /// the dispatch loop picked it up.
    pub fn handle_traced(
        &mut self,
        request: &Request,
        ctx: Option<TraceContext>,
        waited: Duration,
    ) -> Response {
        let Some(ctx) = ctx else {
            return self.handle(request);
        };
        if request.is_control_scrape() {
            return self.handle(request);
        }
        let svc_start = trace::now_ns();
        let queue_ns = waited.as_nanos() as u64;
        if queue_ns > 0 {
            self.recorder.push(Span {
                trace: ctx.trace,
                id: SpanId::next(),
                parent: ctx.parent,
                node: "mgr".into(),
                op: "queue".into(),
                start_ns: svc_start.saturating_sub(queue_ns),
                dur_ns: queue_ns,
                notes: Vec::new(),
            });
        }
        let resp = self.handle(request);
        self.recorder.push(Span {
            trace: ctx.trace,
            id: SpanId::next(),
            parent: ctx.parent,
            node: "mgr".into(),
            op: "service".into(),
            start_ns: svc_start,
            dur_ns: trace::now_ns().saturating_sub(svc_start),
            notes: vec![request.op_name().into()],
        });
        resp
    }

    fn dispatch(&mut self, request: &Request) -> Result<Response, PvfsError> {
        match request {
            Request::Create { path, layout } => {
                layout.validate()?;
                if path.is_empty() {
                    return Err(PvfsError::invalid("empty path"));
                }
                if self.by_path.contains_key(path) {
                    return Err(PvfsError::AlreadyExists(path.clone()));
                }
                let handle = FileHandle(self.next_handle);
                self.next_handle += 1;
                self.by_path.insert(
                    path.clone(),
                    MetaEntry {
                        handle,
                        layout: *layout,
                        open_count: 1,
                    },
                );
                self.by_handle.insert(handle, path.clone());
                Ok(Response::Created { handle })
            }
            Request::Open { path } => {
                let entry = self
                    .by_path
                    .get_mut(path)
                    .ok_or_else(|| PvfsError::NoSuchFile(path.clone()))?;
                entry.open_count += 1;
                Ok(Response::Opened {
                    handle: entry.handle,
                    layout: entry.layout,
                })
            }
            Request::Close { handle } => {
                let path = self
                    .by_handle
                    .get(handle)
                    .ok_or(PvfsError::BadHandle(handle.0))?;
                let entry = self.by_path.get_mut(path).expect("index consistency");
                // An unbalanced close used to saturating_sub to zero
                // silently, hiding client refcount bugs. Refuse it: the
                // reference count must mirror the open/close pairing.
                if entry.open_count == 0 {
                    let path = path.clone();
                    return Err(PvfsError::invalid(format!(
                        "close of {path} (handle {}) without a matching open",
                        handle.0
                    )));
                }
                entry.open_count -= 1;
                Ok(Response::Closed)
            }
            Request::ListDir => {
                let mut paths: Vec<String> = self.by_path.keys().cloned().collect();
                paths.sort();
                Ok(Response::Listing { paths })
            }
            Request::Remove { path } => {
                let entry = self
                    .by_path
                    .remove(path)
                    .ok_or_else(|| PvfsError::NoSuchFile(path.clone()))?;
                self.by_handle.remove(&entry.handle);
                Ok(Response::Removed)
            }
            // Liveness probe: an accounted request (its latency is the
            // health signal). The manager has no request queue gauge —
            // its dispatch loop is single-threaded — so depth is 0.
            Request::Ping => Ok(Response::Pong { queue_depth: 0 }),
            other => Err(PvfsError::protocol(format!(
                "manager cannot serve data operation {}",
                other.op_name()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvfs_types::Region;

    fn layout() -> StripeLayout {
        StripeLayout::paper_default(8)
    }

    fn create(m: &mut Manager, path: &str) -> FileHandle {
        match m.handle(&Request::Create {
            path: path.into(),
            layout: layout(),
        }) {
            Response::Created { handle } => handle,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn create_then_open_returns_same_handle_and_layout() {
        let mut m = Manager::new();
        let h = create(&mut m, "/pvfs/a");
        match m.handle(&Request::Open {
            path: "/pvfs/a".into(),
        }) {
            Response::Opened { handle, layout: l } => {
                assert_eq!(handle, h);
                assert_eq!(l, layout());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn create_duplicate_fails() {
        let mut m = Manager::new();
        create(&mut m, "/pvfs/a");
        let resp = m.handle(&Request::Create {
            path: "/pvfs/a".into(),
            layout: layout(),
        });
        assert!(matches!(resp, Response::Error(PvfsError::AlreadyExists(_))));
    }

    #[test]
    fn create_empty_path_fails() {
        let mut m = Manager::new();
        let resp = m.handle(&Request::Create {
            path: String::new(),
            layout: layout(),
        });
        assert!(matches!(
            resp,
            Response::Error(PvfsError::InvalidArgument(_))
        ));
    }

    #[test]
    fn create_invalid_layout_fails() {
        let mut m = Manager::new();
        let resp = m.handle(&Request::Create {
            path: "/x".into(),
            layout: StripeLayout {
                base: 0,
                pcount: 0,
                ssize: 16,
            },
        });
        assert!(matches!(
            resp,
            Response::Error(PvfsError::InvalidArgument(_))
        ));
    }

    #[test]
    fn open_missing_file_fails() {
        let mut m = Manager::new();
        let resp = m.handle(&Request::Open {
            path: "/nope".into(),
        });
        assert!(matches!(resp, Response::Error(PvfsError::NoSuchFile(_))));
    }

    #[test]
    fn handles_are_unique() {
        let mut m = Manager::new();
        let h1 = create(&mut m, "/a");
        let h2 = create(&mut m, "/b");
        assert_ne!(h1, h2);
    }

    #[test]
    fn close_validates_handle() {
        let mut m = Manager::new();
        let h = create(&mut m, "/a");
        assert_eq!(m.handle(&Request::Close { handle: h }), Response::Closed);
        let resp = m.handle(&Request::Close {
            handle: FileHandle(999),
        });
        assert!(matches!(resp, Response::Error(PvfsError::BadHandle(_))));
    }

    #[test]
    fn unbalanced_close_is_a_typed_error() {
        let mut m = Manager::new();
        let h = create(&mut m, "/a");
        assert_eq!(m.handle(&Request::Close { handle: h }), Response::Closed);
        // The create's open is now balanced; a second close has no
        // matching open and must be refused, not silently absorbed.
        let resp = m.handle(&Request::Close { handle: h });
        assert!(matches!(
            resp,
            Response::Error(PvfsError::InvalidArgument(_))
        ));
        // The refusal is visible in the stats the Stats RPC reports.
        assert_eq!(m.stats_snapshot().errors, 1);
        // Open/close still balances afterwards.
        assert!(matches!(
            m.handle(&Request::Open { path: "/a".into() }),
            Response::Opened { .. }
        ));
        assert_eq!(m.handle(&Request::Close { handle: h }), Response::Closed);
    }

    #[test]
    fn manager_serves_the_stats_rpc_without_counting_it() {
        let mut m = Manager::new();
        create(&mut m, "/a");
        m.handle(&Request::Open { path: "/a".into() });
        let snap = match m.handle(&Request::GetStats) {
            Response::Stats(s) => s,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(snap.requests, 2, "the scrape itself must not count");
        assert_eq!(snap.errors, 0);
        assert_eq!(snap.workers, 1);
        assert_eq!(snap.bytes_read, 0, "manager never touches data");
        // ResetStats returns the pre-reset view, then zeroes.
        let pre = match m.handle(&Request::ResetStats) {
            Response::Stats(s) => s,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(pre.requests, 2);
        assert_eq!(m.stats_snapshot().requests, 0);
    }

    #[test]
    fn traced_metadata_request_records_a_service_span() {
        let mut m = Manager::new();
        let ctx = TraceContext {
            trace: pvfs_types::TraceId::next(),
            parent: SpanId::next(),
        };
        let resp = m.handle_traced(
            &Request::Create {
                path: "/a".into(),
                layout: layout(),
            },
            Some(ctx),
            Duration::from_micros(25),
        );
        assert!(matches!(resp, Response::Created { .. }));
        let spans = m.recorder().for_trace(ctx.trace);
        let queue = spans.iter().find(|s| s.op == "queue").expect("queue span");
        assert_eq!(queue.dur_ns, 25_000);
        assert_eq!(queue.parent, ctx.parent);
        let svc = spans
            .iter()
            .find(|s| s.op == "service")
            .expect("service span");
        assert_eq!(svc.node, "mgr");
        assert_eq!(svc.parent, ctx.parent);
        assert_eq!(svc.notes, vec!["create".to_string()]);
    }

    #[test]
    fn untraced_and_scrape_requests_leave_the_manager_recorder_empty() {
        let mut m = Manager::new();
        let ctx = TraceContext {
            trace: pvfs_types::TraceId::next(),
            parent: SpanId::next(),
        };
        // No context: nothing recorded.
        m.handle_traced(&Request::ListDir, None, Duration::ZERO);
        // Scrape with context: still nothing — traces must never trace
        // their own collection.
        let before = m.stats_snapshot();
        let resp = m.handle_traced(
            &Request::GetTrace { trace: ctx.trace },
            Some(ctx),
            Duration::ZERO,
        );
        assert_eq!(resp, Response::Spans(Vec::new()));
        assert_eq!(m.stats_snapshot().requests, before.requests);
        assert!(m.recorder().is_empty());
    }

    #[test]
    fn remove_deletes_namespace_entry() {
        let mut m = Manager::new();
        let h = create(&mut m, "/a");
        assert_eq!(
            m.handle(&Request::Remove { path: "/a".into() }),
            Response::Removed
        );
        assert_eq!(m.file_count(), 0);
        assert!(m.layout_of(h).is_none());
        let resp = m.handle(&Request::Open { path: "/a".into() });
        assert!(matches!(resp, Response::Error(PvfsError::NoSuchFile(_))));
        // Removing again fails.
        let resp = m.handle(&Request::Remove { path: "/a".into() });
        assert!(matches!(resp, Response::Error(PvfsError::NoSuchFile(_))));
    }

    #[test]
    fn list_dir_returns_sorted_paths() {
        let mut m = Manager::new();
        create(&mut m, "/b");
        create(&mut m, "/a");
        create(&mut m, "/c");
        match m.handle(&Request::ListDir) {
            Response::Listing { paths } => {
                assert_eq!(paths, vec!["/a", "/b", "/c"]);
            }
            other => panic!("unexpected {other:?}"),
        }
        m.handle(&Request::Remove { path: "/b".into() });
        match m.handle(&Request::ListDir) {
            Response::Listing { paths } => assert_eq!(paths, vec!["/a", "/c"]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn list_dir_empty_namespace() {
        let mut m = Manager::new();
        match m.handle(&Request::ListDir) {
            Response::Listing { paths } => assert!(paths.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ping_answers_pong_and_counts() {
        let mut m = Manager::new();
        assert_eq!(m.handle(&Request::Ping), Response::Pong { queue_depth: 0 });
        assert_eq!(
            m.stats_snapshot().requests,
            1,
            "pings are accounted requests, not invisible scrapes"
        );
    }

    #[test]
    fn data_ops_are_rejected_at_the_manager() {
        let mut m = Manager::new();
        let resp = m.handle(&Request::Read {
            handle: FileHandle(1),
            layout: layout(),
            region: Region::new(0, 10),
        });
        assert!(matches!(resp, Response::Error(PvfsError::Protocol(_))));
    }

    #[test]
    fn layout_of_open_handle() {
        let mut m = Manager::new();
        let h = create(&mut m, "/a");
        assert_eq!(m.layout_of(h), Some(layout()));
        assert_eq!(m.layout_of(FileHandle(42)), None);
    }

    #[test]
    fn reopen_after_close_works() {
        let mut m = Manager::new();
        let h = create(&mut m, "/a");
        m.handle(&Request::Close { handle: h });
        match m.handle(&Request::Open { path: "/a".into() }) {
            Response::Opened { handle, .. } => assert_eq!(handle, h),
            other => panic!("unexpected {other:?}"),
        }
    }
}
