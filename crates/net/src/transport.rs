//! The pluggable client↔daemon RPC transport.
//!
//! [`Transport`] abstracts how an encoded `pvfs-proto` frame reaches a
//! daemon and how the encoded response comes back, so
//! [`ClusterClient`](crate::ClusterClient) — and everything above it
//! (`PvfsFile`, the plan executor, the benches) — runs unchanged over
//! the in-process channel transport ([`ChanTransport`]) or real TCP
//! sockets ([`TcpTransport`](crate::tcp::TcpTransport)).
//!
//! RPCs to a daemon travel on a [`Lane`]: [`Transport::lane`] checks
//! out the way to one daemon — a pooled connection, a reply channel —
//! and everything sent on it shares it. [`Lane::send`] queues a request
//! frame (blocking only on backpressure — a full daemon queue),
//! [`Lane::flush`] pushes what is queued out together, and
//! [`Lane::recv`] yields the *next* reply from that daemon, whichever
//! of the lane's frames it answers: replies carry their request's id,
//! and matching them up is the caller's business
//! ([`ClusterClient`](crate::ClusterClient)'s request pipeline holds one
//! lane per daemon for as long as a stream of ops runs). Dropping a lane
//! gives it back; a lane with frames still unanswered is not reused.

use pvfs_proto::{decode_frame_id, frame_is_stats_scrape, Frame};
use pvfs_types::{PvfsError, PvfsResult, RequestId, ServerId};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::chan::{bounded, Receiver, RecvTimeoutError, SendTimeoutError, Sender, TrySendError};
use crate::serve::Service;
use crate::WINDOW;

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
        let parse = |v: &str| TransportKind::parse(v).ok_or("not a transport (chan|tcp)".into());
        pvfs_types::env::parsed("PVFS_TRANSPORT", parse, TransportKind::Chan)
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

/// Why a [`Lane::recv`] produced no response frame. The caller owns
/// the context (which server, what deadline), so the error itself stays
/// minimal.
#[derive(Debug)]
pub enum WaitError {
    /// No response within the timeout. The lane is as good as before.
    Timeout,
    /// The reply to one frame — the request with this id — is lost; the
    /// lane, and everything else on it, is sound.
    Lost(RequestId, PvfsError),
    /// The lane failed (peer gone, frame violation, I/O error): every
    /// frame sent on it and not yet answered is lost with it.
    Failed(PvfsError),
}

/// The way to one daemon, checked out of a [`Transport`]: request frames
/// go out on it, that daemon's replies come back on it.
pub trait Lane: Send {
    /// Queue one encoded request frame. Blocks only on backpressure. The
    /// frame arrives in two parts (`head ‖ payload`, see [`Frame`]) and a
    /// lane sends it that way — a write's payload is never joined to its
    /// head in a staging buffer. An error is this frame's alone: it did
    /// not go, and the lane is as good as before. (A lane may flush by
    /// itself once a lot is queued; should it fail at that, the frames
    /// sent before this one hear of it at the next `flush` or `recv`.)
    fn send(&mut self, frame: Frame) -> PvfsResult<()>;

    /// Push every frame queued since the last flush out — over a socket
    /// in one vectored write. Whoever is about to wait for a reply
    /// flushes first. An error is the lane's, as [`WaitError::Failed`]
    /// is.
    fn flush(&mut self) -> PvfsResult<()>;

    /// Block until the daemon's next raw response frame arrives, at most
    /// `timeout` in total — a lane that reassembles the response from
    /// many partial reads charges them all against it. A reply that is
    /// already here is yielded even with no time left; a `recv` with no
    /// time at all never blocks. Replies arrive in
    /// the order the daemon finished them, not the order their requests
    /// left; a `Data` reply may come in two parts.
    fn recv(&mut self, timeout: Duration) -> Result<Frame, WaitError>;
}

/// A client-side RPC transport to one cluster.
pub trait Transport: Send + Sync {
    /// Number of I/O servers reachable.
    fn n_servers(&self) -> u32;

    /// Check out a lane to `target`.
    fn lane(&self, target: RpcTarget) -> PvfsResult<Box<dyn Lane>>;

    /// One frame on a lane of its own, sent and flushed: what is left
    /// to do with the lane is [`Lane::recv`] the reply.
    fn dispatch(&self, target: RpcTarget, frame: Frame) -> PvfsResult<Box<dyn Lane>> {
        let mut lane = self.lane(target)?;
        lane.send(frame)?;
        lane.flush()?;
        Ok(lane)
    }

    /// Which kind of transport this is (diagnostics / benchmarks).
    fn kind(&self) -> TransportKind;

    /// Faults injected by this transport so far. Real transports never
    /// inject; only the chaos wrapper
    /// ([`FaultyTransport`](crate::FaultyTransport)) overrides this.
    fn faults_injected(&self) -> u64 {
        0
    }
}

/// What comes back on a channel lane: a reply frame, or the id of a
/// request whose frame the daemon dropped unanswered.
type ChanReply = Result<Frame, RequestId>;

/// Where a channel-backed daemon's worker answers one request: the
/// reply channel of the lane the request came on. Dropped unanswered
/// (the worker died, the queue was torn down), it tells the lane so,
/// and the caller fails that one request at once instead of waiting out
/// its deadline.
#[derive(Debug)]
pub(crate) struct ReplyTo {
    lane: Sender<ChanReply>,
    id: RequestId,
    answered: bool,
}

impl ReplyTo {
    /// Hand `reply` to the lane (whoever holds it may be gone; then
    /// nobody is waiting either).
    pub(crate) fn send(mut self, reply: impl Into<Frame>) {
        self.answered = true;
        let _ = self.lane.send(Ok(reply.into()));
    }
}

impl Drop for ReplyTo {
    fn drop(&mut self) {
        if !self.answered {
            // Never block in a drop: with no room for the notice, the
            // request times out instead.
            let _ = self.lane.try_send(Err(self.id));
        }
    }
}

/// A message to a channel-backed daemon: the encoded request frame
/// (both parts, exactly as the client built them), where the encoded
/// reply goes, and when the frame was enqueued (the worker derives
/// queue wait from it).
#[derive(Debug)]
pub(crate) enum NodeMsg {
    Rpc(Frame, ReplyTo, Instant),
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
/// its worker pool, and a lane is one bounded reply channel that every
/// frame sent on it carries a sender of.
/// [`Lane::send`] is to a daemon's queue what a TCP connection's reader
/// is: it accounts the arriving frame, and when the queue is full the
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

    fn lane(&self, target: RpcTarget) -> PvfsResult<Box<dyn Lane>> {
        let node = match target {
            RpcTarget::Manager => &self.mgr,
            RpcTarget::Server(s) => self
                .servers
                .get(s.index())
                .ok_or(PvfsError::NoSuchServer(s.0))?,
        };
        // Room for a reply to every frame of a full window, so a worker
        // never waits on the client to hand its answer over.
        let (reply_tx, reply_rx) = bounded(WINDOW);
        Ok(Box::new(ChanLane {
            tx: node.tx.clone(),
            service: node.service.clone(),
            reply_tx,
            reply_rx,
        }))
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Chan
    }
}

struct ChanLane {
    tx: Sender<NodeMsg>,
    service: Option<Arc<dyn Service>>,
    reply_tx: Sender<ChanReply>,
    reply_rx: Receiver<ChanReply>,
}

impl Lane for ChanLane {
    fn send(&mut self, frame: Frame) -> PvfsResult<()> {
        // Stats scrapes are observers: they skip all daemon-side
        // accounting so the snapshot they fetch equals the in-process
        // one — and they wait out a full queue instead of shedding, so
        // observation never perturbs the shed counter either.
        let service = self
            .service
            .as_ref()
            .filter(|_| !frame_is_stats_scrape(&frame.head));
        if let Some(service) = service {
            // The channel transport has no length prefix; its wire size
            // is the frame itself, head and payload.
            let ledger = service.ledger();
            ledger.wire_rx(frame.len() as u64);
            ledger.queued();
        }
        let reply = ReplyTo {
            lane: self.reply_tx.clone(),
            id: decode_frame_id(&frame.head).unwrap_or(RequestId(0)),
            answered: false,
        };
        let msg = NodeMsg::Rpc(frame, reply, Instant::now());
        let msg = match self.tx.try_send(msg) {
            Ok(()) => return Ok(()),
            Err(TrySendError::Disconnected(msg)) => return Err(gone(msg)),
            Err(TrySendError::Full(msg)) => msg,
        };
        if let Some(refusal) = service.and_then(|s| s.shed()) {
            retract(msg);
            return Err(refusal);
        }
        match self.tx.send_timeout(msg, crate::DEFAULT_RPC_TIMEOUT) {
            Ok(()) => Ok(()),
            Err(SendTimeoutError::Timeout(msg)) => {
                retract(msg);
                Err(PvfsError::timeout(format!(
                    "the daemon's queue stayed full for {:?}",
                    crate::DEFAULT_RPC_TIMEOUT
                )))
            }
            Err(SendTimeoutError::Disconnected(msg)) => Err(gone(msg)),
        }
    }

    /// Nothing is ever queued on this side: `send` hands the frame over.
    fn flush(&mut self) -> PvfsResult<()> {
        Ok(())
    }

    fn recv(&mut self, timeout: Duration) -> Result<Frame, WaitError> {
        let dropped = || PvfsError::Transport("server dropped reply".into());
        match self.reply_rx.recv_timeout(timeout) {
            Ok(Ok(reply)) => Ok(reply),
            Ok(Err(id)) => Err(WaitError::Lost(id, dropped())),
            Err(RecvTimeoutError::Timeout) => Err(WaitError::Timeout),
            // Unreachable while the lane holds a sender of its own.
            Err(RecvTimeoutError::Disconnected) => Err(WaitError::Failed(dropped())),
        }
    }
}

/// A frame that never made it into the daemon's queue is refused to the
/// sender's face: nothing must come back on the lane for it.
fn retract(msg: NodeMsg) {
    if let NodeMsg::Rpc(_, mut reply, _) = msg {
        reply.answered = true;
    }
}

fn gone(msg: NodeMsg) -> PvfsError {
    retract(msg);
    PvfsError::Transport("server thread gone".into())
}
