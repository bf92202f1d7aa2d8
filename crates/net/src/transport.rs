//! The pluggable client↔daemon RPC transport.
//!
//! [`Transport`] abstracts how an encoded `pvfs-proto` frame reaches a
//! daemon and how the encoded response comes back, so
//! [`ClusterClient`](crate::ClusterClient) — and everything above it
//! (`PvfsFile`, the plan executor, the benches) — runs unchanged over
//! the in-process channel transport ([`ChanTransport`]) or real TCP
//! sockets ([`TcpTransport`](crate::tcp::TcpTransport)).
//!
//! An RPC is two phases: [`Transport::start`] ships the request frame
//! (blocking only on backpressure — a full daemon queue, a full socket
//! buffer) and returns a [`PendingReply`]; [`PendingReply::wait`]
//! blocks for the response under a deadline that bounds the *total*
//! elapsed time, however many partial reads the transport needs. The
//! split is what lets [`ClusterClient::round`](crate::ClusterClient::round)
//! fan a whole plan round out before waiting on any reply.

use bytes::Bytes;
use pvfs_proto::{
    decode_frame, decode_frame_id, frame_is_stats_scrape, Frame, Message, Request, Response,
};
use pvfs_types::{PvfsError, PvfsResult, RequestId, ServerId, TraceContext};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::chan::{bounded, Receiver, RecvTimeoutError, SendTimeoutError, Sender, TrySendError};

/// Where an RPC is addressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcTarget {
    /// The manager daemon (metadata).
    Manager,
    /// An I/O daemon (data).
    Server(ServerId),
}

/// Which transport a cluster speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process bounded channels (the default).
    #[default]
    Chan,
    /// Length-prefixed frames over loopback/LAN TCP sockets.
    Tcp,
}

impl TransportKind {
    /// Parse a CLI/env spelling (`"chan"` / `"tcp"`).
    pub fn parse(s: &str) -> Option<TransportKind> {
        match s {
            "chan" | "channel" => Some(TransportKind::Chan),
            "tcp" => Some(TransportKind::Tcp),
            _ => None,
        }
    }

    /// The transport selected by the `PVFS_TRANSPORT` environment
    /// variable (default [`TransportKind::Chan`]). This is how the
    /// whole test suite runs over TCP without forking a single test:
    /// `PVFS_TRANSPORT=tcp cargo test`.
    pub fn from_env() -> TransportKind {
        match std::env::var("PVFS_TRANSPORT") {
            Ok(v) => TransportKind::parse(&v)
                .unwrap_or_else(|| panic!("PVFS_TRANSPORT={v:?} is not a transport (chan|tcp)")),
            Err(_) => TransportKind::Chan,
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportKind::Chan => write!(f, "chan"),
            TransportKind::Tcp => write!(f, "tcp"),
        }
    }
}

/// Why a [`PendingReply::wait`] produced no response frame. The caller
/// owns the context (which server, which request id, what deadline), so
/// the error itself stays minimal.
#[derive(Debug)]
pub enum WaitError {
    /// No response within the deadline.
    Timeout,
    /// The transport failed (peer gone, frame violation, I/O error).
    Failed(PvfsError),
}

/// One in-flight RPC: the request frame has been shipped, the response
/// frame has not yet been consumed.
pub trait PendingReply: Send {
    /// Block until the raw response frame arrives, at most `timeout`
    /// total — a transport that reassembles the response from many
    /// partial reads must charge them all against one deadline.
    fn wait(self: Box<Self>, timeout: Duration) -> Result<Bytes, WaitError>;
}

/// A client-side RPC transport to one cluster.
pub trait Transport: Send + Sync {
    /// Number of I/O servers reachable.
    fn n_servers(&self) -> u32;

    /// Ship one encoded request frame toward `target`; the returned
    /// handle yields the encoded response. Blocks only on backpressure.
    /// The frame arrives in two parts (`head ‖ payload`, see [`Frame`])
    /// and a transport sends it that way — a write's payload is never
    /// joined to its head in a staging buffer.
    fn start(&self, target: RpcTarget, frame: Frame) -> PvfsResult<Box<dyn PendingReply>>;

    /// Which kind of transport this is (diagnostics / benchmarks).
    fn kind(&self) -> TransportKind;

    /// Faults injected by this transport so far. Real transports never
    /// inject; only the chaos wrapper
    /// ([`FaultyTransport`](crate::FaultyTransport)) overrides this.
    fn faults_injected(&self) -> u64 {
        0
    }
}

/// Decode a frame, serve it, and return the id + response — the
/// transport-independent server half of one RPC. When the body fails to
/// decode but the fixed header is readable, the error response carries
/// the *real* request id so the client can attribute it; only a frame
/// with an unreadable header falls back to the reserved id 0.
///
/// The serve closure receives the trace context a version-2 frame
/// carried (None for untraced version-1 frames), so daemons can record
/// spans parented to the client's RPC span.
pub(crate) fn serve_frame(
    frame: Frame,
    serve: impl FnOnce(&Request, Option<TraceContext>) -> Response,
) -> (RequestId, Response) {
    let header_id = decode_frame_id(&frame.head);
    match decode_frame(frame) {
        Ok((Message { id, request, .. }, ctx)) => (id, serve(&request, ctx)),
        Err(e) => (header_id.unwrap_or(RequestId(0)), Response::Error(e)),
    }
}

/// A message to a channel-backed daemon: the encoded request frame
/// (both parts, exactly as the client built them), the channel for the
/// encoded reply, and when the frame was enqueued (the worker derives
/// queue wait from it).
#[derive(Debug)]
pub(crate) enum NodeMsg {
    Rpc(Frame, Sender<Bytes>, Instant),
    Shutdown,
}

/// The in-process transport: every daemon is a bounded channel feeding
/// its worker pool, every reply comes back on a per-request channel.
/// A full daemon queue **sheds** instead of blocking: the enqueue
/// fast-fails with [`PvfsError::Overloaded`] (retryable, provably
/// unexecuted), mirroring what the TCP acceptor does on the socket
/// path. Manager enqueues are bounded by [`DEFAULT_RPC_TIMEOUT`]
/// instead — metadata ops are rare and non-idempotent, so waiting
/// briefly beats shedding them, but a wedged manager must still yield
/// [`PvfsError::Timeout`] rather than hang the sender forever.
///
/// [`DEFAULT_RPC_TIMEOUT`]: crate::DEFAULT_RPC_TIMEOUT
pub struct ChanTransport {
    server_txs: Vec<Sender<NodeMsg>>,
    mgr_tx: Sender<NodeMsg>,
    /// Per-server queue-depth marks, called as a frame enters a daemon
    /// queue ([`IoDaemon::note_queued`](pvfs_server::IoDaemon::note_queued)
    /// behind a closure). Empty for bare transports built in tests.
    queue_marks: Vec<Arc<dyn Fn() + Send + Sync>>,
    /// Per-server shed marks, called when a full queue fast-fails an
    /// enqueue ([`IoDaemon::note_shed`](pvfs_server::IoDaemon::note_shed)):
    /// undoes the queued gauge and counts the shed.
    shed_marks: Vec<Arc<dyn Fn() + Send + Sync>>,
}

impl ChanTransport {
    pub(crate) fn new(server_txs: Vec<Sender<NodeMsg>>, mgr_tx: Sender<NodeMsg>) -> ChanTransport {
        ChanTransport {
            server_txs,
            mgr_tx,
            queue_marks: Vec::new(),
            shed_marks: Vec::new(),
        }
    }

    /// Attach per-server queue-depth marks (index = server id).
    pub(crate) fn with_queue_marks(
        mut self,
        marks: Vec<Arc<dyn Fn() + Send + Sync>>,
    ) -> ChanTransport {
        self.queue_marks = marks;
        self
    }

    /// Attach per-server shed marks (index = server id).
    pub(crate) fn with_shed_marks(
        mut self,
        marks: Vec<Arc<dyn Fn() + Send + Sync>>,
    ) -> ChanTransport {
        self.shed_marks = marks;
        self
    }

    fn tx_for(&self, target: RpcTarget) -> PvfsResult<&Sender<NodeMsg>> {
        match target {
            RpcTarget::Manager => Ok(&self.mgr_tx),
            RpcTarget::Server(s) => self
                .server_txs
                .get(s.index())
                .ok_or(PvfsError::NoSuchServer(s.0)),
        }
    }
}

impl Transport for ChanTransport {
    fn n_servers(&self) -> u32 {
        self.server_txs.len() as u32
    }

    fn start(&self, target: RpcTarget, frame: Frame) -> PvfsResult<Box<dyn PendingReply>> {
        let (reply_tx, reply_rx) = bounded(1);
        let tx = self.tx_for(target)?;
        match target {
            RpcTarget::Server(s) => {
                // Stats scrapes are observers: they skip the queue-depth
                // gauge (and all daemon-side accounting) so the snapshot
                // they fetch equals the in-process one — and they wait
                // out a full queue instead of shedding, so observation
                // never perturbs the shed counter either.
                if frame_is_stats_scrape(&frame.head) {
                    tx.send(NodeMsg::Rpc(frame, reply_tx, Instant::now()))
                        .map_err(|_| PvfsError::Transport("server thread gone".into()))?;
                    return Ok(Box::new(ChanPending { reply_rx }));
                }
                if let Some(mark) = self.queue_marks.get(s.index()) {
                    mark();
                }
                match tx.try_send(NodeMsg::Rpc(frame, reply_tx, Instant::now())) {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) => {
                        // Undo the queued gauge and count the shed on the
                        // daemon, then fast-fail the sender.
                        if let Some(shed) = self.shed_marks.get(s.index()) {
                            shed();
                        }
                        return Err(PvfsError::Overloaded {
                            server: s.0,
                            queue_depth: tx.capacity() as u64,
                        });
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        return Err(PvfsError::Transport("server thread gone".into()));
                    }
                }
            }
            RpcTarget::Manager => {
                // Bounded wait instead of shed: manager ops are rare and
                // non-idempotent, but a wedged manager must not hang the
                // sending thread forever.
                match tx.send_timeout(
                    NodeMsg::Rpc(frame, reply_tx, Instant::now()),
                    crate::DEFAULT_RPC_TIMEOUT,
                ) {
                    Ok(()) => {}
                    Err(SendTimeoutError::Timeout(_)) => {
                        return Err(PvfsError::timeout(format!(
                            "manager queue stayed full for {:?}",
                            crate::DEFAULT_RPC_TIMEOUT
                        )))
                    }
                    Err(SendTimeoutError::Disconnected(_)) => {
                        return Err(PvfsError::Transport("server thread gone".into()))
                    }
                }
            }
        }
        Ok(Box::new(ChanPending { reply_rx }))
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Chan
    }
}

struct ChanPending {
    reply_rx: Receiver<Bytes>,
}

impl PendingReply for ChanPending {
    fn wait(self: Box<Self>, timeout: Duration) -> Result<Bytes, WaitError> {
        self.reply_rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => WaitError::Timeout,
            RecvTimeoutError::Disconnected => {
                WaitError::Failed(PvfsError::Transport("server dropped reply".into()))
            }
        })
    }
}
