//! The pluggable client↔daemon RPC transport.
//!
//! [`Transport`] abstracts how an encoded `pvfs-proto` frame reaches a
//! daemon and how the encoded response comes back, so
//! [`ClusterClient`](crate::ClusterClient) — and everything above it
//! (`PvfsFile`, the plan executor, the benches) — runs unchanged over
//! the in-process channel transport ([`ChanTransport`]) or real TCP
//! sockets ([`TcpTransport`](crate::tcp::TcpTransport)).
//!
//! RPCs to a daemon travel on a [`Lane`], checked out of
//! [`Transport::lane`]: the way to one daemon — a pooled connection, a
//! reply channel — shared by everything sent on it, its replies matched
//! to their requests by id by the caller. A lane is parked box and all,
//! so a checkout allocates nothing once a daemon has a parked lane, and
//! what is parked — a connection with its receive buffers, a reply
//! channel with the buffers replies are built in — is where the next
//! stream's replies arrive, as the last one's did.

use bytes::BytesMut;
use pvfs_proto::{decode_frame_id, Frame};
use pvfs_types::{clock, PvfsError, PvfsResult, RequestId};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, Weak};
use std::thread::Thread;
use std::time::Duration;

use crate::serve::{Driver, ReplyPath};
use crate::WINDOW;
use pvfs_decide::spares::{Lent, Spares};

pub use pvfs_decide::{Fill, Memory, Placed, Put, RpcTarget, WaitError};

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
    /// A frame that lent its payload ([`Frame::lent`]) leaves with it out
    /// of `memory`, whenever a stream lane writes it.
    fn send(&mut self, frame: Frame, memory: &dyn Memory) -> PvfsResult<()>;

    /// Push every frame queued since the last flush out — over a socket
    /// in one vectored write, lent payloads out of `memory`. Whoever is
    /// about to wait for a reply flushes first. An error is the lane's,
    /// as [`WaitError::Failed`] is.
    fn flush(&mut self, memory: &dyn Memory) -> PvfsResult<()>;

    /// Block until the daemon's next raw response frame arrives, at most
    /// `timeout` in total — a lane that reassembles the response from
    /// many partial reads charges them all against it. A reply that is
    /// already here is yielded even with no time left; a `recv` with no
    /// time at all never blocks. Replies arrive in
    /// the order the daemon finished them, not the order their requests
    /// left; a `Data` reply may come in two parts, or with its body
    /// already where `memory` placed it ([`Frame::lent`]: over a stream).
    fn recv(&mut self, timeout: Duration, memory: &mut dyn Memory) -> Result<Frame, WaitError>;

    /// Give the lane back, box and all, to where its transport keeps
    /// lanes, for the next checkout to the same daemon — if every frame
    /// sent on it has been answered, so that nothing can still arrive on
    /// it; any other lane is let go. So is a lane that is dropped instead
    /// and, by default, the lane of a transport that keeps none.
    fn park(self: Box<Self>) {}
}

/// A client-side RPC transport to one cluster.
pub trait Transport: Send + Sync {
    /// Number of I/O servers reachable.
    fn n_servers(&self) -> u32;

    /// Check out a lane to `target`: a parked one if there is one, box and
    /// all.
    fn lane(&self, target: RpcTarget) -> PvfsResult<Box<dyn Lane>>;

    /// One frame on a lane of its own, sent and flushed: what is left
    /// to do with the lane is [`Lane::recv`] the reply (and
    /// [`Lane::park`] it, for the next frame to take). A lane dropped
    /// instead is let go: over TCP, its connection is closed, and the
    /// next dispatch to that daemon dials a fresh one.
    fn dispatch(&self, target: RpcTarget, frame: Frame) -> PvfsResult<Box<dyn Lane>> {
        let mut lane = self.lane(target)?;
        lane.send(frame, &())?;
        lane.flush(&())?;
        Ok(lane)
    }

    /// Which kind of transport this is (diagnostics / benchmarks).
    fn kind(&self) -> TransportKind;

    /// Faults injected by this transport so far. Real transports never
    /// inject; only the chaos wrapper
    /// ([`FaultyTransport`](crate::fault::FaultyTransport)) overrides this.
    fn faults_injected(&self) -> u64 {
        0
    }
}

/// What comes back on a channel lane: a reply frame — and beside it the
/// read buffer that went out with the request, if the reply is not
/// built in it (the empty buffer otherwise) — or the id of a request
/// whose frame the daemon dropped unanswered.
pub(crate) type ChanReply = Result<(Frame, BytesMut), RequestId>;

/// Where a channel-backed daemon's worker answers one request: the
/// reply channel of the lane the request came on. Dropped unanswered
/// (the worker died, the queue was torn down), it tells the lane so,
/// and the caller fails that one request at once instead of waiting out
/// its deadline.
#[derive(Debug)]
pub(crate) struct ReplyTo {
    lane: SyncSender<ChanReply>,
    /// The thread that waits on the lane: unparked once this is sent.
    waiter: Thread,
    id: RequestId,
    answered: bool,
    /// One of the lane's read buffers (the empty buffer: it had none to
    /// spare), for the worker to gather a read into. Whatever is here
    /// when the reply is sent goes back beside it.
    pub(crate) spare: BytesMut,
}

impl ReplyTo {
    /// Hand `reply` to the lane (whoever holds it may be gone; then
    /// nobody is waiting either). The channel holds a window of replies,
    /// and is full only once the lane owes more — flights that timed out
    /// still being answered. Then a worker waits for the lane to take
    /// one, but the lane's own thread, serving its frame inline, never
    /// blocks on itself: its reply is lost, and that flight times out
    /// too. Unparking that thread leaves it a token, and its next park
    /// returns at once: one harmless spurious wake.
    pub(crate) fn send(mut self, reply: impl Into<Frame>) {
        self.answered = true;
        let spare = std::mem::take(&mut self.spare);
        let sent = self.lane.try_send(Ok((reply.into(), spare)));
        if let Err(TrySendError::Full(reply)) = sent {
            if self.waiter.id() != std::thread::current().id() {
                let _ = self.lane.send(reply);
            }
        }
        self.waiter.unpark();
    }
}

impl Drop for ReplyTo {
    fn drop(&mut self) {
        if !self.answered {
            // Never block in a drop: with no room for the notice, the
            // request times out instead.
            let _ = self.lane.try_send(Err(self.id));
            self.waiter.unpark();
        }
    }
}

/// The in-process transport: a lane is one bounded reply channel (std's
/// `sync_channel`), a sender of which goes with every frame sent on it,
/// and [`Lane::send`] is to a daemon's door (`Driver`) what a TCP connection's
/// reader is — it offers the frame (`Driver::offer` has the admission
/// rule) and tells a refusal to the sender's face. Where the manager's
/// full queue makes a connection's reader wait for ever, a lane waits at
/// most [`DEFAULT_RPC_TIMEOUT`]: a wedged manager must yield
/// [`PvfsError::Timeout`] rather than hang the sender.
///
/// Lanes are pooled the way TCP connections are: a lane parked with
/// every frame answered goes, box, reply channel and reply buffers, onto
/// its daemon's idle stack for the next checkout there to take; one
/// parked with a frame unanswered (a flight that timed out) is let go
/// whole, and its reply, should it still come, finds nobody listening.
///
/// [`DEFAULT_RPC_TIMEOUT`]: crate::DEFAULT_RPC_TIMEOUT
pub struct ChanTransport {
    /// One door per I/O server, the manager's last.
    doors: Vec<Arc<Driver>>,
    /// The lanes parked at each door.
    idle: Vec<Arc<Parked>>,
}

/// One daemon's parked lanes. LIFO: the lane used last — its connection,
/// its buffers — is used next. A lane holds its stack weakly, for a
/// parked lane must not keep alive the transport that keeps it.
pub(crate) type Parked = Mutex<Vec<Box<dyn Lane>>>;

/// The lanes on `stack` (valid at every step, whoever panicked holding it).
pub(crate) fn parked(stack: &Parked) -> std::sync::MutexGuard<'_, Vec<Box<dyn Lane>>> {
    stack.lock().unwrap_or_else(|e| e.into_inner())
}

impl ChanTransport {
    /// A transport to the daemons behind `doors`: one per I/O server
    /// in id order, then the manager's.
    pub(crate) fn new(doors: Vec<Arc<Driver>>) -> ChanTransport {
        let idle = doors.iter().map(|_| Arc::default()).collect();
        ChanTransport { doors, idle }
    }
}

impl Transport for ChanTransport {
    fn n_servers(&self) -> u32 {
        self.doors.len() as u32 - 1
    }

    fn lane(&self, target: RpcTarget) -> PvfsResult<Box<dyn Lane>> {
        let mgr = self.doors.len() - 1;
        let slot = match target {
            RpcTarget::Manager => mgr,
            RpcTarget::Server(s) if s.index() < mgr => s.index(),
            RpcTarget::Server(s) => return Err(PvfsError::NoSuchServer(s.0)),
        };
        let parked = parked(&self.idle[slot]).pop();
        Ok(parked.unwrap_or_else(|| {
            // Room for a reply to every frame of a full window, so
            // whoever answers never waits on the client to take one.
            let (tx, rx) = sync_channel(WINDOW);
            Box::new(ChanLane {
                door: self.doors[slot].clone(),
                home: Arc::downgrade(&self.idle[slot]),
                tx,
                rx,
                spares: Spares::default(),
                lent: Lent::default(),
                owed: 0,
            })
        }))
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Chan
    }
}

/// A channel lane: the way to one daemon's door, and the client's end of
/// its replies — the reply channel, and the buffers `Data` replies are
/// built in, which the lane owns (the rule of [`pvfs_decide::spares`]). One
/// goes out with each request; the daemon's worker gathers a read into
/// it (making it, the lane's first [`WINDOW`] times, and letting one too
/// short go for one that fits) and it comes back as the reply's payload,
/// or unused beside a reply that has none. As a connection's
/// `FrameReader` does, the lane keeps a handle on each spare-sized
/// payload it has handed out and takes back, when it next sends, every
/// buffer it is by then the last handle on. One
/// always is, whichever worker was faster: whoever drives a lane has
/// scattered and dropped a reply before sending that lane's next frame.
/// A reply the caller still holds is never written again: the daemon
/// makes another buffer.
struct ChanLane {
    door: Arc<Driver>,
    /// Where the lane is parked.
    home: Weak<Parked>,
    /// What each frame's `ReplyTo` is cloned from; held, it keeps the
    /// channel connected whoever else holds a sender.
    tx: SyncSender<ChanReply>,
    rx: Receiver<ChanReply>,
    spares: Spares<BytesMut>,
    lent: Lent,
    /// Frames in the daemon's hands and not yet answered.
    owed: usize,
}

impl ChanLane {
    /// Keep a read buffer that came back — unless it is the empty one
    /// that stands for none.
    fn keep(&mut self, buffer: BytesMut) {
        if buffer.capacity() > 0 {
            self.spares.give(buffer);
        }
    }

    /// A frame that never made it into the daemon's queue is refused to
    /// the sender's face: nothing must come back on the lane for it, and
    /// the buffer that was to go with it stays.
    fn retract(&mut self, reply: ReplyPath) {
        if let ReplyPath::Lane(mut reply) = reply {
            reply.answered = true;
            self.owed -= 1;
            self.keep(std::mem::take(&mut reply.spare));
        }
    }
}

impl Lane for ChanLane {
    /// A frame crosses threads here and must own its bytes: one that
    /// lent its payload arrives without it, and its daemon refuses it.
    fn send(&mut self, frame: Frame, _: &dyn Memory) -> PvfsResult<()> {
        // Whoever sends the next frame is done with the replies so far.
        self.spares.sweep(&mut self.lent);
        let reply = ReplyPath::Lane(ReplyTo {
            lane: self.tx.clone(),
            waiter: std::thread::current(),
            id: decode_frame_id(&frame.head).unwrap_or(RequestId(0)),
            answered: false,
            spare: self.spares.take().unwrap_or_default(),
        });
        self.owed += 1;
        // The channel transport has no length prefix; its wire size is
        // the frame itself, head and payload.
        let wire_len = frame.len() as u64;
        let patience = Some(crate::DEFAULT_RPC_TIMEOUT);
        let offered = self.door.offer(frame, wire_len, reply, patience);
        offered.map_err(|(_, reply, error)| {
            self.retract(reply);
            error
        })
    }

    /// Nothing is ever queued on this side: `send` hands the frame over.
    fn flush(&mut self, _: &dyn Memory) -> PvfsResult<()> {
        Ok(())
    }

    /// A reply comes whole: it was built in a buffer on the daemon's side.
    fn recv(&mut self, timeout: Duration, _: &mut dyn Memory) -> Result<Frame, WaitError> {
        // The thread parks itself, and the reply's `ReplyTo` unparks it:
        // the channel's own `recv_timeout` makes its list of parked
        // receivers the first time one parks, and whether an op's wait
        // parks is timing — what an op allocates must not be.
        let mut end = None;
        let answer = loop {
            // Never cut off: the lane holds a sender of its own.
            if let Ok(answer) = self.rx.try_recv() {
                break answer;
            }
            let end = *end.get_or_insert_with(|| clock::deadline(timeout));
            match clock::until(end) {
                Duration::ZERO => return Err(WaitError::Timeout),
                left => std::thread::park_timeout(left),
            }
        };
        self.owed -= 1;
        let lost = |id| WaitError::Lost(id, PvfsError::Transport("server dropped reply".into()));
        let (reply, unused) = answer.map_err(lost)?;
        self.keep(unused);
        // Kept a handle on unless the buffer is the reply's own.
        self.lent.keep(reply.payload.clone());
        Ok(reply)
    }

    fn park(self: Box<Self>) {
        if let Some(stack) = self.home.upgrade().filter(|_| self.owed == 0) {
            parked(&stack).push(self);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvfs_proto::{
        decode_response_id, encode_frame, encode_response, Message, Request, Response,
    };
    use pvfs_types::{ClientId, ServerId};

    impl ReplyTo {
        /// The way back to `lane` for request `id`, with no buffer.
        pub(crate) fn new(lane: &SyncSender<ChanReply>, id: RequestId) -> ReplyTo {
            ReplyTo {
                lane: lane.clone(),
                waiter: std::thread::current(),
                id,
                answered: false,
                spare: BytesMut::new(),
            }
        }
    }

    fn ping(id: u64) -> Frame {
        let message = Message {
            client: ClientId(1),
            id: RequestId(id),
            request: Request::Ping,
        };
        encode_frame(&message, None).unwrap()
    }

    /// A lane goes to the next checkout only if nothing can still arrive
    /// on it: a reply that comes after its lane gave up reaches nobody,
    /// least of all whoever talks to that daemon next.
    #[test]
    fn a_quiet_lane_is_parked_and_one_still_owed_a_reply_is_not() {
        let (door, daemon) = Driver::bare(8);
        let transport = ChanTransport::new(vec![door, Driver::bare(1).0]);
        let target = RpcTarget::Server(ServerId(0));
        let parked = || parked(&transport.idle[0]).len();
        let received = || {
            let (frame, reply) = daemon().expect("a request");
            (decode_frame_id(&frame.head).unwrap(), reply)
        };
        let pong = |id| encode_response(id, &Response::Pong { queue_depth: 0 });

        // The daemon sits on request 1 past the lane's patience.
        let mut first = transport.dispatch(target, ping(1)).unwrap();
        let (id, late) = received();
        assert!(matches!(
            first.recv(Duration::from_millis(1), &mut ()),
            Err(WaitError::Timeout)
        ));
        first.park();
        assert_eq!(parked(), 0, "a reply may still come for it");

        // The next lane hears its own reply and nothing else, whenever
        // the late one is sent.
        let mut second = transport.dispatch(target, ping(2)).unwrap();
        late.send(pong(id));
        let (id, reply) = received();
        reply.send(pong(id));
        let answer = second.recv(Duration::from_secs(5), &mut ()).unwrap();
        assert_eq!(decode_response_id(&answer.head), Some(RequestId(2)));
        assert!(matches!(
            second.recv(Duration::ZERO, &mut ()),
            Err(WaitError::Timeout)
        ));
        let at = |lane: &dyn Lane| lane as *const dyn Lane as *const u8;
        let second_at = at(&*second);
        second.park();
        assert_eq!(parked(), 1, "every frame was answered");

        // And it is the next lane, box and all; one dropped is let go.
        let third = transport.lane(target).unwrap();
        assert_eq!((parked(), at(&*third)), (0, second_at));
        third.park();
        assert_eq!(parked(), 1);
        drop(transport.lane(target).unwrap());
        assert_eq!(parked(), 0);
    }

    /// A daemon that never blocks answers on the sending thread itself,
    /// into the lane's own reply channel: a full window of frames sent
    /// before the first `recv` never finds it full, and every reply is
    /// there at once, in order.
    #[test]
    fn a_window_sent_to_an_inline_door_is_answered_before_the_first_recv() {
        let iod = Arc::new(pvfs_server::IoDaemon::with_defaults(ServerId(0)));
        let doors = crate::serve::open_doors(&[iod], pvfs_server::IodConfig::default());
        let transport = ChanTransport::new(doors);
        let mut lane = transport.lane(RpcTarget::Server(ServerId(0))).unwrap();
        for id in 1..=WINDOW as u64 {
            lane.send(ping(id), &()).unwrap();
        }
        for id in 1..=WINDOW as u64 {
            let reply = lane.recv(Duration::ZERO, &mut ()).unwrap();
            assert_eq!(decode_response_id(&reply.head), Some(RequestId(id)));
        }
        assert!(matches!(
            lane.recv(Duration::ZERO, &mut ()),
            Err(WaitError::Timeout)
        ));
    }
}
