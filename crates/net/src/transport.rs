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
use pvfs_proto::{frame_is_stats_scrape, Frame};
use pvfs_types::{PvfsError, PvfsResult, ServerId};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::chan::{bounded, Receiver, RecvTimeoutError, SendTimeoutError, Sender, TrySendError};
use crate::serve::Service;

/// Where an RPC is addressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcTarget {
    /// The manager daemon (metadata).
    Manager,
    /// An I/O daemon (data).
    Server(ServerId),
}

impl From<ServerId> for RpcTarget {
    fn from(server: ServerId) -> RpcTarget {
        RpcTarget::Server(server)
    }
}

/// `manager` / `iod3` — how diagnostics name the peer.
impl std::fmt::Display for RpcTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcTarget::Manager => write!(f, "manager"),
            RpcTarget::Server(s) => write!(f, "{s}"),
        }
    }
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

    /// Whether the response has begun to arrive, waiting up to `within`
    /// for its first byte. Where the sender waits on the receiver — a
    /// socket: a response larger than its buffers holds a daemon's
    /// worker until it is read — the answer must be true to the wire,
    /// so that the pipeline can read a newer flight's response ahead of
    /// an older one's that is still queued behind it. Where responses
    /// are handed over whole nobody waits on the reader, and the
    /// default — "wait on me" — is always right.
    fn arriving(&self, _within: Duration) -> bool {
        true
    }
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

/// A message to a channel-backed daemon: the encoded request frame
/// (both parts, exactly as the client built them), the channel for the
/// encoded reply, and when the frame was enqueued (the worker derives
/// queue wait from it).
#[derive(Debug)]
pub(crate) enum NodeMsg {
    Rpc(Frame, Sender<Bytes>, Instant),
    Shutdown,
}

/// One channel-fronted daemon as the sending side sees it: its bounded
/// queue and the [`Service`] behind it, which the transport tells about
/// every frame it enqueues. Bare queues (protocol tests that play the
/// server themselves) have no service and account nothing.
pub(crate) struct ChanNode {
    pub(crate) tx: Sender<NodeMsg>,
    pub(crate) service: Option<Arc<dyn Service>>,
}

/// The in-process transport: every daemon is a bounded channel feeding
/// its worker pool, every reply comes back on a per-request channel.
/// `start` is to a daemon's queue what a TCP connection's reader is:
/// it accounts the arriving frame, and when the queue is full the
/// daemon's [`Service::shed`] decides — an I/O daemon **sheds** (the
/// enqueue fast-fails with [`PvfsError::Overloaded`], retryable and
/// provably unexecuted), the manager does not, and the sender waits for
/// room at most [`DEFAULT_RPC_TIMEOUT`]: metadata ops are rare and
/// non-idempotent, so waiting briefly beats shedding them, but a wedged
/// manager must still yield [`PvfsError::Timeout`] rather than hang the
/// sender forever.
///
/// [`DEFAULT_RPC_TIMEOUT`]: crate::DEFAULT_RPC_TIMEOUT
pub struct ChanTransport {
    servers: Vec<ChanNode>,
    mgr: ChanNode,
}

impl ChanTransport {
    pub(crate) fn new(servers: Vec<ChanNode>, mgr: ChanNode) -> ChanTransport {
        ChanTransport { servers, mgr }
    }
}

impl Transport for ChanTransport {
    fn n_servers(&self) -> u32 {
        self.servers.len() as u32
    }

    fn start(&self, target: RpcTarget, frame: Frame) -> PvfsResult<Box<dyn PendingReply>> {
        let node = match target {
            RpcTarget::Manager => &self.mgr,
            RpcTarget::Server(s) => self
                .servers
                .get(s.index())
                .ok_or(PvfsError::NoSuchServer(s.0))?,
        };
        // Stats scrapes are observers: they skip all daemon-side
        // accounting so the snapshot they fetch equals the in-process
        // one — and they wait out a full queue instead of shedding, so
        // observation never perturbs the shed counter either.
        let service = node
            .service
            .as_ref()
            .filter(|_| !frame_is_stats_scrape(&frame.head));
        if let Some(service) = service {
            // The channel transport has no length prefix; its wire size
            // is the frame itself, head and payload.
            service.wire_rx(frame.len() as u64);
            service.queued();
        }
        let (reply_tx, reply_rx) = bounded(1);
        let msg = NodeMsg::Rpc(frame, reply_tx, Instant::now());
        let gone = || PvfsError::Transport("server thread gone".into());
        let msg = match node.tx.try_send(msg) {
            Ok(()) => return Ok(Box::new(ChanPending { reply_rx })),
            Err(TrySendError::Disconnected(_)) => return Err(gone()),
            Err(TrySendError::Full(msg)) => msg,
        };
        if let Some(refusal) = service.and_then(|s| s.shed()) {
            return Err(refusal);
        }
        match node.tx.send_timeout(msg, crate::DEFAULT_RPC_TIMEOUT) {
            Ok(()) => Ok(Box::new(ChanPending { reply_rx })),
            Err(SendTimeoutError::Timeout(_)) => Err(PvfsError::timeout(format!(
                "{target}'s queue stayed full for {:?}",
                crate::DEFAULT_RPC_TIMEOUT
            ))),
            Err(SendTimeoutError::Disconnected(_)) => Err(gone()),
        }
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
