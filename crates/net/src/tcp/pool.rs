//! Client side of the TCP transport: a connection pool speaking
//! length-prefixed frames to the cluster's listeners.
//!
//! Connections are created lazily, `TCP_NODELAY` on — list I/O is built
//! from small header+trailing frames, exactly the traffic Nagle's
//! algorithm would hold back waiting for a full segment — and parked in
//! a per-daemon idle stack after each successful RPC, so steady-state
//! traffic reuses persistent connections instead of paying a handshake
//! per request. Each in-flight RPC *owns* its connection: the client's
//! window of [`WINDOW`](crate::WINDOW) requests per daemon simply checks
//! out (or dials) that many connections, which is what lets the
//! daemon's worker pool serve them in parallel — and bounds the pool at
//! `WINDOW` connections per daemon per concurrent operation.
//!
//! # Deadlines
//!
//! [`PendingReply::wait`] computes one deadline up front and charges
//! every partial read against it ([`DeadlineStream`]). The read timeout
//! is *never* reset just because bytes arrived — a peer trickling a
//! response one byte at a time cannot stretch an RPC past its budget.
//! A wait whose budget is already spent (the client charges an RPC's
//! deadline from ship time, and this flight waited its turn) still
//! collects a response that has arrived; it only never blocks for one.
//! A connection whose RPC failed or timed out is dropped, not parked:
//! the response may still arrive later, and a parked connection with a
//! stale response queued would corrupt the next RPC on it.
//!
//! # Self-healing (the stale-keepalive race)
//!
//! A parked connection can go stale while idle — the server restarts,
//! times it out, or closes it between RPCs. The pool heals both ways
//! this surfaces, transparently and at most once per RPC:
//!
//! * the **send** fails — the stale connection is evicted and the
//!   frame goes out on a freshly dialed one ([`Transport::start`]);
//! * the send "succeeds" (into the local socket buffer) but the read
//!   side reports the peer gone **before any response byte** arrives —
//!   [`TcpPending::wait`] re-dials, re-sends the kept request frame,
//!   and waits out the *remaining* deadline on the new connection.
//!
//! The replay is safe for the same reason client-level retries are:
//! every data-path request is idempotent (reads are side-effect free,
//! writes idempotent per region). Once a single response byte has
//! arrived, no replay happens — the failure surfaces as a transport
//! error and the client-level [`RetryPolicy`](crate::RetryPolicy)
//! decides.

use bytes::Bytes;
use pvfs_proto::Frame;
use pvfs_types::{PvfsError, PvfsResult};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use super::frame::{write_frame_parts, FrameError, FrameReader};
use crate::transport::{PendingReply, RpcTarget, Transport, TransportKind, WaitError};

/// A pooled TCP [`Transport`] to one cluster.
pub struct TcpTransport {
    inner: Arc<PoolInner>,
}

struct PoolInner {
    server_addrs: Vec<SocketAddr>,
    mgr_addr: SocketAddr,
    /// One idle-connection stack per server, plus one for the manager
    /// (last slot). LIFO: the hottest connection is reused first.
    idle: Vec<Mutex<Vec<Conn>>>,
}

/// One connection: the socket and its receiving end, parked together so
/// the next reply on it arrives in the buffer the last one used.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
}

impl Conn {
    /// Send `head ‖ payload` behind its length prefix in one vectored
    /// write: a write's payload goes from the buffer it was gathered
    /// into straight to the socket.
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        write_frame_parts(&mut self.stream, &frame.head, &frame.payload)
    }
}

impl TcpTransport {
    /// A transport dialing the given daemon listeners. No connection is
    /// made until the first RPC.
    pub fn new(server_addrs: Vec<SocketAddr>, mgr_addr: SocketAddr) -> TcpTransport {
        let idle = (0..server_addrs.len() + 1)
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        TcpTransport {
            inner: Arc::new(PoolInner {
                server_addrs,
                mgr_addr,
                idle,
            }),
        }
    }

    /// Idle (parked) connections across all daemons — diagnostics.
    pub fn idle_connections(&self) -> usize {
        self.inner
            .idle
            .iter()
            .map(|s| s.lock().unwrap().len())
            .sum()
    }
}

impl PoolInner {
    fn slot(&self, target: RpcTarget) -> PvfsResult<usize> {
        match target {
            RpcTarget::Manager => Ok(self.server_addrs.len()),
            RpcTarget::Server(s) => {
                if s.index() < self.server_addrs.len() {
                    Ok(s.index())
                } else {
                    Err(PvfsError::NoSuchServer(s.0))
                }
            }
        }
    }

    fn addr(&self, slot: usize) -> SocketAddr {
        if slot == self.server_addrs.len() {
            self.mgr_addr
        } else {
            self.server_addrs[slot]
        }
    }

    /// Pop an idle (possibly stale) connection, if any is parked.
    fn checkout_idle(&self, slot: usize) -> Option<Conn> {
        self.idle[slot].lock().unwrap().pop()
    }

    /// Dial a fresh connection.
    fn dial(&self, slot: usize) -> PvfsResult<Conn> {
        let addr = self.addr(slot);
        let stream = TcpStream::connect(addr)
            .map_err(|e| PvfsError::Transport(format!("connect {addr}: {e}")))?;
        stream
            .set_nodelay(true)
            .map_err(|e| PvfsError::Transport(format!("set TCP_NODELAY on {addr}: {e}")))?;
        Ok(Conn {
            stream,
            reader: FrameReader::new(),
        })
    }

    fn park(&self, slot: usize, conn: Conn) {
        self.idle[slot].lock().unwrap().push(conn);
    }
}

impl Transport for TcpTransport {
    fn n_servers(&self) -> u32 {
        self.inner.server_addrs.len() as u32
    }

    fn start(&self, target: RpcTarget, frame: Frame) -> PvfsResult<Box<dyn PendingReply>> {
        let slot = self.inner.slot(target)?;
        // Prefer a parked connection; if the send fails on it, the
        // connection went stale while idle — evict it (drop) and heal
        // by re-dialing. Only a fresh connection's failure is fatal.
        let (conn, reused) = match self.inner.checkout_idle(slot) {
            Some(mut conn) => match conn.send(&frame) {
                Ok(()) => (Some(conn), true),
                Err(_) => (None, false),
            },
            None => (None, false),
        };
        let conn = match conn {
            Some(conn) => conn,
            None => {
                let mut conn = self.inner.dial(slot)?;
                conn.send(&frame).map_err(|e| {
                    PvfsError::Transport(format!("send to {}: {e}", self.inner.addr(slot)))
                })?;
                conn
            }
        };
        Ok(Box::new(TcpPending {
            inner: self.inner.clone(),
            slot,
            conn,
            frame,
            reused,
        }))
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Tcp
    }
}

/// One in-flight TCP RPC, exclusively owning its connection until the
/// response frame is read (or the RPC fails). Keeps the request frame
/// (two O(1) handles on its parts) so the stale-keepalive race can be
/// replayed once on a fresh connection.
struct TcpPending {
    inner: Arc<PoolInner>,
    slot: usize,
    conn: Conn,
    frame: Frame,
    /// Whether `conn` came from the idle pool (only then may the
    /// peer-gone-before-any-byte race be healed by replaying).
    reused: bool,
}

impl PendingReply for TcpPending {
    fn wait(mut self: Box<Self>, timeout: Duration) -> Result<Bytes, WaitError> {
        let deadline = Instant::now() + timeout;
        loop {
            let mut stream = DeadlineStream {
                conn: &self.conn.stream,
                deadline,
                timed_out: false,
                got_bytes: false,
            };
            let error = match self.conn.reader.read_frame(&mut stream) {
                Ok(frame) => {
                    // Healthy connection, response fully consumed: park
                    // it for reuse (blocking mode restored first).
                    if self.conn.stream.set_read_timeout(None).is_ok() {
                        self.inner.park(self.slot, self.conn);
                    }
                    return Ok(frame);
                }
                Err(e) => e,
            };
            // On any error the connection is dropped, never parked: it
            // may still deliver a stale response, which must never
            // reach a future RPC.
            if stream.timed_out {
                return Err(WaitError::Timeout);
            }
            // Stale-keepalive race: a pooled connection whose peer went
            // away before ANY response byte arrived. The server closed
            // it while it sat idle — replay once on a fresh connection,
            // under the same deadline.
            if self.reused && !stream.got_bytes && peer_went_away(&error) {
                match self.redial_and_resend() {
                    Ok(()) => continue,
                    Err(e) => return Err(WaitError::Failed(e)),
                }
            }
            let peer = self.inner.addr(self.slot);
            return Err(WaitError::Failed(
                error.into_pvfs(&format!("server {peer}")),
            ));
        }
    }

    /// A peek at the socket. Anything but "nothing yet" — bytes, EOF,
    /// an error — is for [`wait`](PendingReply::wait) to make sense of.
    fn arriving(&self, within: Duration) -> bool {
        let stream = &self.conn.stream;
        let peeked = if within.is_zero() {
            let _ = stream.set_nonblocking(true);
            let peeked = stream.peek(&mut [0]);
            let _ = stream.set_nonblocking(false);
            peeked
        } else {
            let _ = stream.set_read_timeout(Some(within));
            stream.peek(&mut [0])
        };
        !matches!(peeked, Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut))
    }
}

impl TcpPending {
    /// Replace the stale connection with a freshly dialed one carrying
    /// a re-send of the kept request frame.
    fn redial_and_resend(&mut self) -> PvfsResult<()> {
        let mut conn = self.inner.dial(self.slot)?;
        conn.send(&self.frame).map_err(|e| {
            PvfsError::Transport(format!(
                "resend to {} after stale connection: {e}",
                self.inner.addr(self.slot)
            ))
        })?;
        self.conn = conn;
        // The fresh connection gets no second replay.
        self.reused = false;
        Ok(())
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

/// A [`Read`] adapter charging every read against one fixed deadline:
/// before each read the socket timeout is set to the *remaining* budget,
/// so partial progress never extends the total allowance.
struct DeadlineStream<'a> {
    conn: &'a TcpStream,
    deadline: Instant,
    timed_out: bool,
    /// Whether any response byte has arrived (a partially received
    /// response rules out the stale-connection replay).
    got_bytes: bool,
}

impl Read for DeadlineStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        // Past the deadline the read still polls (the shortest timeout
        // a socket takes): a response that arrived in time but is
        // collected late — its RPC waited its turn behind others of its
        // window — is a response, not a timeout.
        let remaining = self
            .deadline
            .saturating_duration_since(Instant::now())
            .max(Duration::from_micros(1));
        self.conn.set_read_timeout(Some(remaining))?;
        match self.conn.read(buf) {
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                self.timed_out = true;
                Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "rpc deadline elapsed",
                ))
            }
            Ok(n) => {
                if n > 0 {
                    self.got_bytes = true;
                }
                Ok(n)
            }
            other => other,
        }
    }
}
