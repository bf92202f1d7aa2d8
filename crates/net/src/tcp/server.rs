//! Server side of the TCP transport: per-daemon listeners in front of
//! the same [`Door`]s the channel transport offers its frames to.
//!
//! One daemon = one `TcpListener` on loopback + one acceptor thread +
//! one reader thread per accepted connection + the daemon's door. A
//! client keeps one connection per daemon and pipelines its window of
//! requests on it, so a reader does nothing but reassemble
//! length-prefixed frames — every complete frame a `read` delivered,
//! through a staging buffer, before it blocks again — and offer them to
//! the door ([`Door::offer`] has the admission rule). A frame the door
//! refuses — shed off an I/O daemon's full queue — the reader answers
//! itself, at once, with the error. Where nothing is shed (the manager,
//! stats scrapes) the reader waits in `offer`, stops draining its
//! socket, and TCP flow control pushes back.
//!
//! Responses go back over the connection the request arrived on
//! ([`ReplyPath::Conn`]), in the order the workers finish. The write
//! half is wrapped in a mutex so workers finishing out of order (the
//! requests pipelined on one connection) interleave whole frames, never
//! partial ones; request ids let the peer attribute them.
//! A `Data` reply leaves as `prefix ‖ head ‖ payload` in one vectored
//! write ([`ConnOut::reply`]): the payload the daemon gathered is the
//! buffer the socket reads from, never staged behind its head in a
//! second one.
//!
//! A connection costs the daemon one reader thread and one entry in its
//! connection table (a duplicate of the socket, kept so shutdown can
//! stop the reader). Both are the reader's to give back: when the peer
//! hangs up the reader removes its own entry — closing the duplicate, so
//! the socket really closes — and the acceptor joins finished readers
//! before it registers the next one.
//!
//! # Shutdown
//!
//! [`TcpServer::shutdown`] stops the front, then the door: stop
//! accepting (flag + self-connect to unblock `accept`), shut down the
//! read half of every connection so readers finish offering the frames
//! they have read, join the readers, then [`Door::close`] — every
//! accepted request is served and its response written first.

use pvfs_proto::{data_response_head, decode_frame_id, encode_response, Response};
use pvfs_server::{IoDaemon, IodConfig, Scratch};
use pvfs_types::{Ledger, RequestId};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use super::frame::{wire_len, write_frame_parts, FrameError, FrameReader, STAGING};
use crate::serve::{open_doors, Door, ReplyPath};
use crate::spares::Spares;

/// The answering side of one connection, shared by the workers serving
/// its frames: the write half, and the scratch its requests are served
/// out of.
///
/// A worker gives its scratch back while it still holds the stream lock
/// it wrote its reply under, so a scratch that is out is out for no
/// longer than a reply takes to write — and whoever serves the frame the
/// peer sent on seeing that reply can wait for it ([`ConnOut::scratch`])
/// rather than make another: the connection's `WINDOW` always go round
/// (see [`Spares`]), whichever worker runs when.
pub(crate) struct ConnOut {
    stream: Mutex<TcpStream>,
    spares: Mutex<Spares<Scratch>>,
}

impl ConnOut {
    pub(crate) fn new(write_half: TcpStream) -> Arc<ConnOut> {
        Arc::new(ConnOut {
            stream: Mutex::new(write_half),
            spares: Mutex::default(),
        })
    }

    /// The scratch to serve the connection's next frame out of. Taking
    /// one never waits for a reply to be written — a worker serves while
    /// another writes — unless every one is out: then the one that is due
    /// is being given back by a worker inside the stream lock.
    pub(crate) fn scratch(&self) -> Scratch {
        let mut spares = self.spares.lock().unwrap();
        if spares.all_out() {
            drop(spares);
            drop(self.stream.lock().unwrap());
            spares = self.spares.lock().unwrap();
        }
        spares.take().unwrap_or_default()
    }

    /// Write one response frame, whole, under the connection's stream
    /// lock (pipelined responses interleave per frame, never within one),
    /// and — still under it — give back the `scratch` the response was
    /// served out of, its read buffer reclaimed now that the reply has
    /// left. Nothing on the way allocates: a `Data` reply is
    /// `head ‖ payload` written in place, the head a stack array; a
    /// fixed-size reply (`Written`, `Pong`, `Synced`, …) is encoded inside
    /// its `Bytes`, on the stack as well; only the rare variable-size ones
    /// are encoded into a buffer. `account` is `None` for stats scrapes,
    /// which must leave no trace in the counters they read. A failed write
    /// needs no handling beyond the accounting: the peer is gone and its
    /// reader sees the same.
    pub(crate) fn reply(
        &self,
        id: RequestId,
        response: Response,
        scratch: Option<Scratch>,
        account: Option<&Ledger>,
    ) {
        let (head, encoded);
        let (front, payload): (&[u8], &[u8]) = match &response {
            Response::Data { data } => {
                head = data_response_head(id, data.len() as u64);
                (&head, data)
            }
            other => {
                encoded = encode_response(id, other);
                (&encoded, &[])
            }
        };
        let wire = wire_len(front.len() + payload.len());
        let mut stream = self.stream.lock().unwrap();
        if let Some(ledger) = account {
            ledger.wire_tx(wire);
        }
        let sent = write_frame_parts(&mut *stream, front, payload).and_then(|()| stream.flush());
        if let (Err(_), Some(ledger)) = (sent, account) {
            ledger.retract_wire_tx(wire);
        }
        // The reply's view of the read buffer goes before the buffer is
        // reclaimed through its last handle.
        drop(response);
        if let Some(mut scratch) = scratch {
            scratch.reclaim_read();
            self.spares.lock().unwrap().give(scratch);
        }
    }
}

/// One TCP-fronted daemon: listener, acceptor, per-connection readers,
/// door.
pub(crate) struct TcpServer {
    addr: SocketAddr,
    shutting_down: Arc<AtomicBool>,
    /// `None` once [`shutdown`](TcpServer::shutdown) has run.
    accept_thread: Option<JoinHandle<()>>,
    door: Arc<Door>,
    conns: Conns,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// The open connections of one daemon (those whose reader is still
/// running), by accept index: a duplicate of each socket, through which
/// shutdown stops the connection's reader.
type Conns = Arc<Mutex<HashMap<usize, TcpStream>>>;

impl TcpServer {
    fn spawn(door: Arc<Door>) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutting_down = Arc::new(AtomicBool::new(false));
        let conns: Conns = Arc::new(Mutex::new(HashMap::new()));
        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_flag = shutting_down.clone();
        let accept_conns = conns.clone();
        let accept_readers = readers.clone();
        let accept_door = door.clone();
        let accept_thread = std::thread::Builder::new()
            .name(format!("{}-accept", door.name))
            .spawn(move || {
                for (i, stream) in listener.incoming().enumerate() {
                    if accept_flag.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let _ = stream.set_nodelay(true);
                    let Ok(read_half) = stream.try_clone() else {
                        continue;
                    };
                    accept_conns.lock().unwrap().insert(i, read_half);
                    let reader = spawn_reader(stream, accept_door.clone(), i, accept_conns.clone());
                    // Reap the readers whose peers have hung up since
                    // the last accept, so the handle list follows the
                    // live connections instead of every one ever made.
                    let mut readers = accept_readers.lock().unwrap();
                    let done: Vec<_> = readers.extract_if(.., |r| r.is_finished()).collect();
                    readers.push(reader);
                    drop(readers);
                    for r in done {
                        let _ = r.join();
                    }
                }
            })
            .expect("spawn tcp acceptor");

        Ok(TcpServer {
            addr,
            shutting_down,
            accept_thread: Some(accept_thread),
            door,
            conns,
            readers,
        })
    }

    /// Graceful teardown: close the listener, drain in-flight requests,
    /// join every thread. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        let Some(acceptor) = self.accept_thread.take() else {
            return;
        };
        self.shutting_down.store(true, Ordering::SeqCst);
        // `accept` has no deadline; a throwaway connection unblocks it
        // so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = acceptor.join();
        // Stop the readers at their next read; frames already read keep
        // flowing through the door (a reader waiting on a full queue
        // finishes its offer first — workers are still draining).
        for conn in self.conns.lock().unwrap().values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        let readers: Vec<_> = self.readers.lock().unwrap().drain(..).collect();
        for r in readers {
            let _ = r.join();
        }
        // Every accepted request is now queued: the door drains them.
        self.door.close();
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Read frames off one connection and offer them to `door` until the
/// peer hangs up, dies mid-frame, or violates the frame cap; then take
/// the connection's entry (`key` in `conns`) back out, so the daemon's
/// duplicate of the socket closes with the connection.
fn spawn_reader(stream: TcpStream, door: Arc<Door>, key: usize, conns: Conns) -> JoinHandle<()> {
    /// Removes the entry however the reader exits.
    struct Deregister(usize, Conns);
    impl Drop for Deregister {
        fn drop(&mut self) {
            if let Ok(mut conns) = self.1.lock() {
                conns.remove(&self.0);
            }
        }
    }
    std::thread::Builder::new()
        .name(format!("{}-conn{key}", door.name))
        .spawn(move || {
            let _deregister = Deregister(key, conns);
            let Ok(write_half) = stream.try_clone() else {
                return;
            };
            let writer = ConnOut::new(write_half);
            // The peer keeps at most a window of requests unanswered on
            // a connection, so each arrives in the buffer of the one a
            // window before it.
            let mut frames = FrameReader::new();
            let mut stream = BufReader::with_capacity(STAGING, stream);
            loop {
                match frames.read_frame(&mut stream) {
                    Ok(frame) => {
                        let wire = wire_len(frame.len());
                        let reply = ReplyPath::Conn(writer.clone());
                        // No patience: a full queue that does not shed
                        // blocks the reader — TCP flow control is the
                        // backpressure.
                        let offered = door.offer(frame.into(), wire, reply, None);
                        if let Err((frame, _, refusal)) = offered {
                            // Load shed: answer from the reader itself
                            // instead of parking the frame behind a full
                            // queue. The request provably never executed,
                            // so the client may replay it — even a write.
                            // The connection stays healthy; only this
                            // request is refused.
                            let id = decode_frame_id(&frame.head).unwrap_or(RequestId(0));
                            let refusal = Response::Error(refusal);
                            writer.reply(id, refusal, None, Some(door.ledger()));
                        }
                    }
                    Err(FrameError::TooLarge(e)) => {
                        // The stream cannot be resynchronized after an
                        // oversized announcement, but the peer deserves
                        // to know why it is being dropped. Id 0: the
                        // header was never read.
                        let refusal = Response::Error(e);
                        writer.reply(RequestId(0), refusal, None, Some(door.ledger()));
                        let _ = stream.get_ref().shutdown(Shutdown::Both);
                        break;
                    }
                    Err(_) => break, // peer hung up or died mid-frame
                }
            }
        })
        .expect("spawn tcp reader")
}

/// The TCP server side of a whole cluster: one [`TcpServer`] per I/O
/// daemon plus one for the manager.
pub struct TcpCluster {
    servers: Vec<TcpServer>,
    mgr: TcpServer,
}

impl TcpCluster {
    /// Put TCP listeners in front of `daemons` and a fresh manager.
    pub fn spawn(daemons: &[Arc<IoDaemon>], config: IodConfig) -> TcpCluster {
        let listen = |door| TcpServer::spawn(door).expect("bind tcp daemon");
        let mut servers: Vec<_> = open_doors(daemons, config)
            .into_iter()
            .map(listen)
            .collect();
        let mgr = servers.pop().expect("the manager's door is last");
        TcpCluster { servers, mgr }
    }

    /// Loopback addresses of the I/O daemons, in server-id order.
    pub fn server_addrs(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(|s| s.addr).collect()
    }

    /// Loopback address of the manager.
    pub fn mgr_addr(&self) -> SocketAddr {
        self.mgr.addr
    }

    /// Connections currently open across the I/O daemons and the
    /// manager — each costs its daemon a reader thread and a descriptor
    /// until the peer hangs up (diagnostics; a connection a client has
    /// closed leaves this count as soon as its reader sees the EOF).
    pub fn open_connections(&self) -> usize {
        self.servers
            .iter()
            .chain([&self.mgr])
            .map(|s| s.conns.lock().unwrap().len())
            .sum()
    }

    /// Drain and stop every listener, reader and worker.
    pub fn shutdown(&mut self) {
        for s in &mut self.servers {
            s.shutdown();
        }
        self.mgr.shutdown();
    }
}
