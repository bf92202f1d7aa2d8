//! Client side of the TCP transport: a connection pool speaking
//! length-prefixed frames to the cluster's listeners.
//!
//! Connections are created lazily, `TCP_NODELAY` on — list I/O is built
//! from small header+trailing frames, exactly the traffic Nagle's
//! algorithm would hold back waiting for a full segment — and parked,
//! with the lane that holds them, box and all, in a per-daemon idle
//! stack when the lane is parked ([`Lane::park`]), so steady-state
//! traffic reuses persistent connections instead of paying a handshake
//! per request, and checks one out without an allocation. A [`Lane`]
//! *is* one connection, and every frame sent on
//! the lane shares it: the client's window of [`WINDOW`]
//! requests per daemon leaves in one vectored write
//! ([`Lane::flush`]; frames that add up to a staging buffer's worth of
//! bytes do not wait for it) and the daemon's replies come back on the same
//! socket in whatever order its workers finish them, several to a
//! `read` when they arrive together. One operation therefore holds one
//! connection per daemon, whatever its window; only concurrent
//! operations dial more.
//!
//! # Deadlines
//!
//! The socket's read timeout is set once, when the connection is
//! dialed, to a short slice ([`READ_SLICE`]); [`Lane::recv`] computes
//! one deadline up front and checks it whenever a slice runs out. The
//! deadline is *never* reset just because bytes arrived — a peer
//! trickling a response one byte at a time cannot stretch an RPC past
//! its budget — and a timeout costs nothing: what has arrived of a frame
//! is kept and the next `recv` carries on. A `recv` whose budget is
//! already spent (the client charges an RPC's deadline from ship time)
//! still collects a response that has arrived; it only never waits for
//! one (the socket is switched to non-blocking for that one look).
//!
//! A lane that is parked with replies still owed to it (a request
//! timed out, the stream ended on an error) closes its connection
//! instead: the response may still arrive later, and a parked
//! connection with a stale response queued would corrupt the next RPC
//! on it. So does any I/O failure, and so does dropping the lane.
//!
//! # Self-healing (the stale-keepalive race)
//!
//! A parked connection can go stale while idle — the server restarts,
//! times it out, or closes it between RPCs. The lane heals both ways
//! this surfaces, transparently and at most once:
//!
//! * the **write** fails — the stale connection is evicted and the
//!   frames go out on a freshly dialed one ([`Lane::flush`]);
//! * the write "succeeds" (into the local socket buffer) but the read
//!   side reports the peer gone **before any response byte** arrives —
//!   [`Lane::recv`] re-dials, re-sends every frame the lane has sent
//!   (none has been answered), and waits out the *remaining* deadline on
//!   the new connection.
//!
//! The replay is safe for the same reason client-level retries are:
//! every data-path request is idempotent (reads are side-effect free,
//! writes idempotent per region). Once a single response byte has
//! arrived, no replay happens — the failure surfaces as a transport
//! error and the client-level [`RetryPolicy`](crate::RetryPolicy)
//! decides.

use bytes::Bytes;
use pvfs_proto::{Frame, MAX_WIRE_FRAME};
use pvfs_types::clock::{self, now_ns};
use pvfs_types::{PvfsError, PvfsResult};
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Weak};
use std::time::Duration;

use super::frame::{write_frames, FrameError, FrameReader, STAGING};
use crate::transport::{parked, Lane, Parked, RpcTarget, Transport, TransportKind, WaitError};
use crate::WINDOW;

/// The read timeout every pooled socket carries: how long a blocked
/// [`Lane::recv`] goes between two looks at its deadline.
pub const READ_SLICE: Duration = Duration::from_millis(10);

/// A pooled TCP [`Transport`] to one cluster.
pub struct TcpTransport {
    server_addrs: Vec<SocketAddr>,
    mgr_addr: SocketAddr,
    /// The lanes parked with their connections, per server and then the
    /// manager's.
    idle: Vec<Arc<Parked>>,
}

/// Both directions of one connection's framing over any byte stream
/// whose reads give out (`WouldBlock`/`TimedOut`) every so often: frames
/// queued to leave together, and the receiving end — a staging buffer
/// under a [`FrameReader`].
struct Wire<S: Read + Write> {
    stream: BufReader<S>,
    frames: FrameReader,
    queued: Vec<Frame>,
    /// Frames flushed and not yet answered.
    owed: usize,
}

impl<S: Read + Write> Wire<S> {
    fn new(stream: S) -> Wire<S> {
        Wire {
            stream: BufReader::with_capacity(STAGING, stream),
            frames: FrameReader::new(),
            queued: Vec::with_capacity(WINDOW),
            owed: 0,
        }
    }

    /// Everything queued, in one vectored write: a write's payload goes
    /// from the buffer it was gathered into straight to the socket.
    fn flush(&mut self) -> io::Result<()> {
        write_frames(self.stream.get_mut(), &self.queued)?;
        self.owed += self.queued.len();
        self.queued.clear();
        Ok(())
    }

    /// The next frame, if it is complete by the clock reading `deadline`
    /// (one look at the stream even when that has passed).
    fn recv(&mut self, deadline: u64) -> Result<Bytes, FrameError> {
        loop {
            match self.frames.read_frame(&mut self.stream) {
                Err(e) if e.is_timeout() && now_ns() < deadline => {}
                Ok(frame) => {
                    self.owed = self.owed.saturating_sub(1);
                    return Ok(frame);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Whether part of a response is here and unread.
    fn mid_reply(&self) -> bool {
        self.frames.mid_frame() || !self.stream.buffer().is_empty()
    }

    /// Nothing owed, nothing half-read: the next user finds the
    /// connection as a fresh one.
    fn is_quiet(&self) -> bool {
        self.owed == 0 && !self.mid_reply()
    }
}

impl TcpTransport {
    /// A transport dialing the given daemon listeners. No connection is
    /// made until the first RPC.
    pub fn new(server_addrs: Vec<SocketAddr>, mgr_addr: SocketAddr) -> TcpTransport {
        let idle = (0..=server_addrs.len()).map(|_| Arc::default()).collect();
        TcpTransport {
            server_addrs,
            mgr_addr,
            idle,
        }
    }

    /// Idle (parked) connections across all daemons — diagnostics.
    pub fn idle_connections(&self) -> usize {
        self.idle.iter().map(|stack| parked(stack).len()).sum()
    }

    fn slot(&self, target: RpcTarget) -> PvfsResult<usize> {
        match target {
            RpcTarget::Manager => Ok(self.server_addrs.len()),
            RpcTarget::Server(s) if s.index() < self.server_addrs.len() => Ok(s.index()),
            RpcTarget::Server(s) => Err(PvfsError::NoSuchServer(s.0)),
        }
    }

    fn addr(&self, slot: usize) -> SocketAddr {
        if slot == self.server_addrs.len() {
            self.mgr_addr
        } else {
            self.server_addrs[slot]
        }
    }
}

/// Dial a fresh connection to `addr`.
fn dial(addr: SocketAddr) -> PvfsResult<Wire<TcpStream>> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| PvfsError::Transport(format!("connect {addr}: {e}")))?;
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(READ_SLICE)))
        .map_err(|e| PvfsError::Transport(format!("set up the socket to {addr}: {e}")))?;
    Ok(Wire::new(stream))
}

impl Transport for TcpTransport {
    fn n_servers(&self) -> u32 {
        self.server_addrs.len() as u32
    }

    fn lane(&self, target: RpcTarget) -> PvfsResult<Box<dyn Lane>> {
        let slot = self.slot(target)?;
        // Prefer a parked connection; whether it is still good shows
        // when it is first used.
        if let Some(lane) = parked(&self.idle[slot]).pop() {
            return Ok(lane);
        }
        let addr = self.addr(slot);
        Ok(Box::new(TcpLane {
            home: Arc::downgrade(&self.idle[slot]),
            addr,
            wire: Some(dial(addr)?),
            // Sized with the lane, as the wire's queue is: a window of
            // frames never allocates on its way out.
            replay: Vec::with_capacity(WINDOW),
            unproven: false,
        }))
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Tcp
    }
}

/// One checked-out connection, exclusively this lane's until it is
/// parked or dropped.
struct TcpLane {
    /// Where the lane is parked.
    home: Weak<Parked>,
    /// The daemon's listener.
    addr: SocketAddr,
    /// The connection, parked whole with the lane, so the next reply on
    /// it arrives through the staging buffer, and in the frame buffers,
    /// the last ones used. `None` once it has failed: the lane is dead.
    wire: Option<Wire<TcpStream>>,
    /// While the connection is `unproven`: every frame flushed on it, for
    /// [`TcpLane::heal`] to send again.
    replay: Vec<Frame>,
    /// The connection came from the idle pool and no response byte has
    /// arrived on it since: the peer may have closed it while it was
    /// parked, and only then may a failure be healed by re-dialing.
    unproven: bool,
}

/// What a lane whose connection has failed says to being used again.
fn spent() -> PvfsError {
    PvfsError::Transport("the connection has already failed".into())
}

impl TcpLane {
    /// Replace the stale connection with a freshly dialed one carrying a
    /// re-send of every frame flushed so far (two O(1) handles each; a
    /// frame still queued goes with the next flush). The fresh
    /// connection gets no second replay.
    fn heal(&mut self) -> PvfsResult<()> {
        self.unproven = false;
        let stale = self.wire.take().expect("a failed connection to replace");
        let mut wire = dial(self.addr)?;
        wire.queued = std::mem::take(&mut self.replay);
        wire.flush().map_err(|e| {
            PvfsError::Transport(format!(
                "resend to {} after stale connection: {e}",
                self.addr
            ))
        })?;
        self.replay = std::mem::replace(&mut wire.queued, stale.queued);
        self.wire = Some(wire);
        Ok(())
    }
}

impl Lane for TcpLane {
    fn send(&mut self, frame: Frame) -> PvfsResult<()> {
        if frame.len() > MAX_WIRE_FRAME {
            // This frame's own fault; checked here so that it cannot
            // fail the flush of its lane-mates.
            return Err(PvfsError::FrameTooLarge {
                len: frame.len() as u64,
                max: MAX_WIRE_FRAME as u64,
            });
        }
        let wire = self.wire.as_mut().ok_or_else(spent)?;
        wire.queued.push(frame);
        // Queueing is for small frames, which share a write; a staging
        // buffer's worth of bytes is worth a write of its own, now —
        // the daemon can be receiving one large payload while the
        // client gathers the next.
        if wire.queued.iter().map(Frame::len).sum::<usize>() >= STAGING {
            return self.flush();
        }
        Ok(())
    }

    fn flush(&mut self) -> PvfsResult<()> {
        let unproven = self.unproven;
        let wire = self.wire.as_mut().ok_or_else(spent)?;
        if wire.queued.is_empty() {
            return Ok(());
        }
        if unproven {
            self.replay.extend_from_slice(&wire.queued);
        }
        let Err(e) = wire.flush() else {
            return Ok(());
        };
        if unproven {
            // The connection went stale while idle: evict it and send
            // on a fresh one. Only a fresh connection's failure is fatal.
            wire.queued.clear();
            return self.heal();
        }
        self.wire = None;
        Err(PvfsError::Transport(format!("send to {}: {e}", self.addr)))
    }

    fn recv(&mut self, timeout: Duration) -> Result<Frame, WaitError> {
        let deadline = clock::deadline(timeout);
        loop {
            let unproven = self.unproven;
            let wire = self
                .wire
                .as_mut()
                .ok_or_else(|| WaitError::Failed(spent()))?;
            // With no time left this is a look at what is already here,
            // and must not wait out a slice for more: whoever is past
            // their deadline would otherwise never learn it while other
            // replies keep trickling in. The one case that pays a system
            // call for its timeout.
            let received = if timeout.is_zero() {
                let socket = wire.stream.get_ref();
                let _ = socket.set_nonblocking(true);
                let received = wire.recv(deadline);
                let _ = wire.stream.get_ref().set_nonblocking(false);
                received
            } else {
                wire.recv(deadline)
            };
            let error = match received {
                Ok(frame) => {
                    self.unproven = false;
                    self.replay.clear();
                    return Ok(frame.into());
                }
                Err(e) if e.is_timeout() => return Err(WaitError::Timeout),
                Err(e) => e,
            };
            // Stale-keepalive race: a pooled connection whose peer went
            // away before ANY response byte arrived. The server closed
            // it while it sat idle — replay once on a fresh connection,
            // under the same deadline.
            if unproven && !wire.mid_reply() && peer_went_away(&error) {
                match self.heal() {
                    Ok(()) => continue,
                    Err(e) => return Err(WaitError::Failed(e)),
                }
            }
            // On any error the connection is dropped, never parked: it
            // may still deliver a stale response, which must never
            // reach a future RPC.
            self.wire = None;
            return Err(WaitError::Failed(
                error.into_pvfs(&format!("server {}", self.addr)),
            ));
        }
    }

    fn park(mut self: Box<Self>) {
        let Some(wire) = self.wire.as_mut().filter(|w| w.is_quiet()) else {
            return;
        };
        // What was queued and never flushed simply did not go.
        wire.queued.clear();
        self.replay.clear();
        self.unproven = true;
        if let Some(stack) = self.home.upgrade() {
            parked(&stack).push(self);
        }
    }
}

/// Whether a frame-read failure means the peer is gone (as opposed to a
/// protocol violation like an oversized announcement). Clean EOF on the
/// frame boundary and connection-level resets both qualify — which one
/// the stale-keepalive race produces depends on whether our send raced
/// the peer's FIN or its RST.
fn peer_went_away(e: &FrameError) -> bool {
    match e {
        FrameError::Closed => true,
        FrameError::Io(io) => matches!(
            io.kind(),
            io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::BrokenPipe
                | io::ErrorKind::UnexpectedEof
        ),
        FrameError::TooLarge(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::frame::write_frame;
    use std::collections::VecDeque;
    use std::io::IoSlice;

    /// A stream that counts the calls it gets. Reads hand out one
    /// scripted segment each — as a socket hands out what has arrived —
    /// and give out (`WouldBlock`) once the script is spent.
    #[derive(Default)]
    struct Counting {
        segments: VecDeque<Vec<u8>>,
        reads: usize,
        written: Vec<u8>,
        vectored_writes: usize,
        plain_writes: usize,
    }

    impl Read for Counting {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let Some(segment) = self.segments.front_mut() else {
                return Err(io::ErrorKind::WouldBlock.into());
            };
            let n = segment.len().min(buf.len());
            buf[..n].copy_from_slice(&segment[..n]);
            segment.drain(..n);
            if segment.is_empty() {
                self.segments.pop_front();
            }
            Ok(n)
        }
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.plain_writes += 1;
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.vectored_writes += 1;
            bufs.iter().for_each(|b| self.written.extend_from_slice(b));
            Ok(bufs.iter().map(|b| b.len()).sum())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn framed(frames: &[Vec<u8>]) -> Vec<u8> {
        let mut wire = Vec::new();
        for frame in frames {
            write_frame(&mut wire, frame).unwrap();
        }
        wire
    }

    /// The syscalls a window costs a connection, by count: its frames
    /// leave in one vectored write, and replies that arrived together
    /// are one `read`. The wire sees its stream as `Read + Write` and
    /// nothing more, so it cannot set a socket option per reply either:
    /// the read timeout is the pool's to set, once, when it dials.
    #[test]
    fn a_window_of_frames_is_one_write_and_its_replies_one_read() {
        let mut wire = Wire::new(Counting::default());
        let requests: Vec<Frame> = (0..WINDOW as u8)
            .map(|i| Frame {
                head: Bytes::from(vec![i; 1100]),
                payload: Bytes::from(vec![!i; 2048]),
            })
            .collect();
        wire.queued.extend(requests.iter().cloned());
        wire.flush().unwrap();
        let stream = wire.stream.get_ref();
        assert_eq!((stream.vectored_writes, stream.plain_writes), (1, 0));
        let joined = |f: &Frame| [&f.head[..], &f.payload[..]].concat();
        let whole: Vec<Vec<u8>> = requests.iter().map(joined).collect();
        assert_eq!(
            stream.written,
            framed(&whole),
            "the wire format is unchanged"
        );
        assert_eq!(wire.owed, WINDOW);

        // The window's replies, delivered in one segment.
        let replies: Vec<Vec<u8>> = (0..WINDOW as u8)
            .map(|i| vec![i; 20 + i as usize])
            .collect();
        wire.stream.get_mut().segments.push_back(framed(&replies));
        let soon = clock::deadline(Duration::from_secs(5));
        for reply in &replies {
            assert_eq!(wire.recv(soon).unwrap().as_ref(), &reply[..]);
        }
        assert_eq!(wire.stream.get_ref().reads, 1, "one read for the segment");
        assert!(wire.is_quiet());

        // Nothing more has come: the deadline, not the stream, ends the
        // wait, and nothing is lost by it.
        let timed_out = wire.recv(now_ns()).unwrap_err();
        assert!(timed_out.is_timeout());
        assert!(wire.is_quiet());
    }

    /// A reply longer than the staging buffer is read straight into its
    /// own frame buffer, and one that arrives in pieces across several
    /// timeouts is put together from them.
    #[test]
    fn a_long_reply_bypasses_the_staging_buffer_and_survives_timeouts() {
        let mut wire = Wire::new(Counting::default());
        let long: Vec<u8> = (0..3 * STAGING).map(|i| i as u8).collect();
        let mut bytes = framed(&[long.clone(), b"short".to_vec()]);
        // The prefix and a little of the body; then (after a timeout)
        // most of the body; then the rest and the next frame.
        let rest = bytes.split_off(STAGING + 100);
        let (first, second) = (bytes.split_off(10), bytes);
        wire.stream.get_mut().segments.push_back(second);
        assert!(wire.recv(now_ns()).unwrap_err().is_timeout());
        assert!(wire.mid_reply() && !wire.is_quiet());
        wire.stream.get_mut().segments.push_back(first);
        assert!(wire.recv(now_ns()).unwrap_err().is_timeout());
        wire.stream.get_mut().segments.push_back(rest);
        let soon = clock::deadline(Duration::from_secs(5));
        assert_eq!(wire.recv(soon).unwrap().as_ref(), &long[..]);
        assert_eq!(wire.recv(soon).unwrap().as_ref(), b"short");
        // 3 segments, 2 timeouts, and one read that found the stream
        // dry after the last frame's bytes were in: the body took one
        // read per segment, however many staging buffers long it is.
        assert!(wire.stream.get_ref().reads <= 7);
    }
}
