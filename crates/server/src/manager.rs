//! The manager daemon: metadata only.
//!
//! "PVFS also has a manager daemon that handles only metadata operations
//! … The manager does not participate in read/write operations" (§2).
//! The manager here owns the namespace (path → handle + striping) and
//! allocates handles; it never touches file data, and the client library
//! computes file sizes by querying the I/O daemons directly, keeping the
//! manager off the data path exactly as PVFS does.
//!
//! One serve entry, [`Manager::handle`], `&self` like the I/O daemon's:
//! the namespace sits behind the manager's own mutex (metadata operations
//! are rare, order-sensitive and not idempotent — one at a time), and
//! beside that lock the same [`Ledger`] an I/O daemon keeps, so the
//! transport in front books a frame without taking it.

use pvfs_proto::{Request, Response};
use pvfs_types::FlightRecorder;
use pvfs_types::{FileHandle, Ledger, PvfsError, StripeLayout};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

#[derive(Debug, Clone)]
struct MetaEntry {
    handle: FileHandle,
    layout: StripeLayout,
    open_count: u64,
}

#[derive(Debug)]
struct Namespace {
    next_handle: u64,
    by_path: HashMap<String, MetaEntry>,
    by_handle: HashMap<FileHandle, String>,
}

/// The PVFS manager daemon. Thread-safe, as an I/O daemon is:
/// [`Manager::handle`] takes `&self`.
#[derive(Debug)]
pub struct Manager {
    /// Metadata operations are rare, order-sensitive and not idempotent:
    /// one lock serializes them.
    namespace: Mutex<Namespace>,
    /// The manager's books: the same ledger an I/O daemon keeps, with
    /// one worker (its single dispatch loop) and the data-path metrics
    /// left at zero. Beside the lock, not behind it: the transport in
    /// front accounts a frame without taking it.
    ledger: Ledger,
    /// Trace ring buffer, scraped by `GetTrace`: the door in front of the
    /// manager records the spans of the traced requests it serves here.
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
            namespace: Mutex::new(Namespace {
                next_handle: 1,
                by_path: HashMap::new(),
                by_handle: HashMap::new(),
            }),
            ledger: Ledger::with_workers(1),
            recorder: Arc::default(),
        }
    }

    /// The manager's flight recorder (span ring buffer).
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// The manager's books (see [`Ledger`]); a `GetStats` scrape is their
    /// `snapshot()`.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    fn namespace(&self) -> std::sync::MutexGuard<'_, Namespace> {
        self.namespace.lock().expect("a manager request panicked")
    }

    /// Number of files in the namespace.
    pub fn file_count(&self) -> usize {
        self.namespace().by_path.len()
    }

    /// The striping layout of an open handle, if known.
    pub fn layout_of(&self, handle: FileHandle) -> Option<StripeLayout> {
        let namespace = self.namespace();
        let path = namespace.by_handle.get(&handle)?;
        namespace.by_path.get(path).map(|e| e.layout)
    }

    /// Serve one metadata request.
    pub fn handle(&self, request: &Request) -> Response {
        // Stats scrapes answer before any counter moves, so a scraped
        // snapshot equals the in-process one byte for byte.
        match request {
            Request::GetStats => return Response::Stats(Box::new(self.ledger.snapshot())),
            Request::ResetStats => {
                let snap = self.ledger.snapshot();
                self.ledger.reset();
                return Response::Stats(Box::new(snap));
            }
            Request::GetTrace { trace } => {
                // Joins GetStats under the observer-effect guarantee:
                // unaccounted, and reading the ring is a pure clone.
                return Response::Spans(self.recorder.for_trace(*trace));
            }
            _ => {}
        }
        self.ledger.requests.fetch_add(1, Ordering::Relaxed);
        match self.namespace().dispatch(request) {
            Ok(resp) => resp,
            Err(e) => {
                self.ledger.errors.fetch_add(1, Ordering::Relaxed);
                Response::Error(e)
            }
        }
    }
}

impl Namespace {
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

    fn create(m: &Manager, path: &str) -> FileHandle {
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
        let m = Manager::new();
        let h = create(&m, "/pvfs/a");
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
        let m = Manager::new();
        create(&m, "/pvfs/a");
        let resp = m.handle(&Request::Create {
            path: "/pvfs/a".into(),
            layout: layout(),
        });
        assert!(matches!(resp, Response::Error(PvfsError::AlreadyExists(_))));
    }

    #[test]
    fn create_empty_path_fails() {
        let m = Manager::new();
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
        let m = Manager::new();
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
        let m = Manager::new();
        let resp = m.handle(&Request::Open {
            path: "/nope".into(),
        });
        assert!(matches!(resp, Response::Error(PvfsError::NoSuchFile(_))));
    }

    #[test]
    fn handles_are_unique() {
        let m = Manager::new();
        let h1 = create(&m, "/a");
        let h2 = create(&m, "/b");
        assert_ne!(h1, h2);
    }

    #[test]
    fn close_validates_handle() {
        let m = Manager::new();
        let h = create(&m, "/a");
        assert_eq!(m.handle(&Request::Close { handle: h }), Response::Closed);
        let resp = m.handle(&Request::Close {
            handle: FileHandle(999),
        });
        assert!(matches!(resp, Response::Error(PvfsError::BadHandle(_))));
    }

    #[test]
    fn unbalanced_close_is_a_typed_error() {
        let m = Manager::new();
        let h = create(&m, "/a");
        assert_eq!(m.handle(&Request::Close { handle: h }), Response::Closed);
        // The create's open is now balanced; a second close has no
        // matching open and must be refused, not silently absorbed.
        let resp = m.handle(&Request::Close { handle: h });
        assert!(matches!(
            resp,
            Response::Error(PvfsError::InvalidArgument(_))
        ));
        // The refusal is visible in the stats the Stats RPC reports.
        assert_eq!(m.ledger().snapshot().errors, 1);
        // Open/close still balances afterwards.
        assert!(matches!(
            m.handle(&Request::Open { path: "/a".into() }),
            Response::Opened { .. }
        ));
        assert_eq!(m.handle(&Request::Close { handle: h }), Response::Closed);
    }

    #[test]
    fn manager_serves_the_stats_rpc_without_counting_it() {
        let m = Manager::new();
        create(&m, "/a");
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
        assert_eq!(m.ledger().snapshot().requests, 0);
    }

    #[test]
    fn untraced_and_scrape_requests_leave_the_manager_recorder_empty() {
        let m = Manager::new();
        m.handle(&Request::ListDir);
        // A scrape is served, not counted, and records nothing.
        let before = m.ledger().snapshot();
        let resp = m.handle(&Request::GetTrace {
            trace: pvfs_types::TraceId::next(),
        });
        assert_eq!(resp, Response::Spans(Vec::new()));
        assert_eq!(m.ledger().snapshot().requests, before.requests);
        assert!(
            m.recorder().is_empty(),
            "the door records spans, not the manager"
        );
    }

    #[test]
    fn remove_deletes_namespace_entry() {
        let m = Manager::new();
        let h = create(&m, "/a");
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
        let m = Manager::new();
        create(&m, "/b");
        create(&m, "/a");
        create(&m, "/c");
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
        let m = Manager::new();
        match m.handle(&Request::ListDir) {
            Response::Listing { paths } => assert!(paths.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ping_answers_pong_and_counts() {
        let m = Manager::new();
        assert_eq!(m.handle(&Request::Ping), Response::Pong { queue_depth: 0 });
        assert_eq!(
            m.ledger().snapshot().requests,
            1,
            "pings are accounted requests, not invisible scrapes"
        );
    }

    #[test]
    fn data_ops_are_rejected_at_the_manager() {
        let m = Manager::new();
        let resp = m.handle(&Request::Read {
            handle: FileHandle(1),
            layout: layout(),
            region: Region::new(0, 10),
        });
        assert!(matches!(resp, Response::Error(PvfsError::Protocol(_))));
    }

    #[test]
    fn layout_of_open_handle() {
        let m = Manager::new();
        let h = create(&m, "/a");
        assert_eq!(m.layout_of(h), Some(layout()));
        assert_eq!(m.layout_of(FileHandle(42)), None);
    }

    #[test]
    fn reopen_after_close_works() {
        let m = Manager::new();
        let h = create(&m, "/a");
        m.handle(&Request::Close { handle: h });
        match m.handle(&Request::Open { path: "/a".into() }) {
            Response::Opened { handle, .. } => assert_eq!(handle, h),
            other => panic!("unexpected {other:?}"),
        }
    }
}
