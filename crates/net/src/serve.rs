//! The daemon side of one RPC, the same on every transport: the door.
//!
//! A transport's job ends at moving frames. Every daemon — an
//! [`IoDaemon`] sharded by handle, the [`Manager`] with its namespace
//! behind one mutex — stands behind one [`Door`], which owns its bounded
//! queue, its worker threads and its [`Service`] (only what differs
//! between the two daemons: how a decoded request is served, what a frame
//! that meets a full queue is told, and where the books are). A frame
//! goes through the door in four steps, each written once:
//!
//! * **admitted** by [`Door::offer`], the only admission rule: book the
//!   arrival, try the queue, and when it is full let [`Service::shed`]
//!   decide between refusing the frame on the spot and waiting for room.
//!   Whoever received the frame calls it — a channel lane's `send`, a TCP
//!   connection's reader — and delivers a refusal its own way (an `Err`
//!   to the sender's face; an error reply written by the reader);
//! * **served** by the one worker loop through [`serve_rpc`], the only
//!   place the `begin → decode → serve → end` sequence exists, and the
//!   only place a daemon's `queue` and `service` spans are recorded;
//! * **answered** down the [`ReplyPath`] it came with — the daemon-side
//!   twin of the client's `Lane`, and all that differs between the
//!   transports: where the [`Scratch`] the frame is served out of comes
//!   from, and how the reply's bytes go back;
//! * **drained** by [`Door::close`]: the door shuts — every frame
//!   offered from then on is refused at once — and its workers serve
//!   what was admitted before they leave; close returns when they have.
//!
//! The bookkeeping — wire bytes, queue depth, queue wait, service time,
//! the workers running — is the [`Ledger`]'s, and the door does it through
//! [`Service::ledger`] without entering the daemon: accounting a manager
//! frame takes no manager lock.
//!
//! # One lock, and nobody woken who was not asleep
//!
//! The queue is the door's own: the admitted frames, whether the door
//! is shut, and the threads parked on it — workers waiting for a frame,
//! offerers for room — under one mutex, with a condvar for each. A
//! notify is a system call whether or not anyone is parked, and on the
//! RPC path nearly nobody is, so an offer or a take notifies only when
//! the other side's parked count is non-zero. No wake-up is lost by it:
//! a thread counts itself *before* it releases the mutex to park (the
//! condvar does both at once) and uncounts itself only with the mutex
//! held again, however the wait ended — so whoever changes the queue
//! after a thread decided to park sees it counted. The count may run
//! ahead of who is asleep, which costs a notify nobody needed, never
//! one somebody did. Shutting the door wakes everyone.
//!
//! # Timing
//!
//! A frame's time at the door is three clock readings: when it was
//! queued, when a worker took it, when the worker was done with it.
//! Queue wait and service time are the differences, and for a frame that
//! carries trace context the same readings are its `queue` and `service`
//! spans — which therefore *are* the histogram samples, to the
//! nanosecond. A traced request always gets both spans, a zero-length
//! `queue` one if it never waited, on every daemon alike; whatever the
//! daemon's storage adds to the span sink nests under `service`.
//!
//! # Buffers
//!
//! What serving a request needs beyond the frame it arrived in — the
//! list its regions are decoded into, the daemon's read buffer and run
//! list — is a [`Scratch`] the reply path takes from the spares of the
//! connection (tcp) or of the door's queue (chan), never from the worker
//! thread that happens to serve the frame, and gives back around the
//! reply; [`serve_rpc`] states the order that makes every buffer of a
//! frame its owner's again by the time the reply is read.
//!
//! # The observer-effect guarantee
//!
//! Stats scrape frames (`GetStats`/`ResetStats`/`GetTrace`,
//! [`pvfs_proto::frame_is_stats_scrape`]) reach [`Service::serve`] and
//! nothing else: no wire accounting, no queue gauge, no queue-wait or
//! service-time sample, never shed. A scraped snapshot therefore equals
//! the in-process one byte for byte, and scraping twice shows the same
//! counters.

use bytes::Bytes;
use pvfs_proto::{
    data_response_head, decode_frame_id, decode_frame_reusing, encode_response,
    frame_is_stats_scrape, Frame, Message, Request, Response,
};
use pvfs_server::{IoDaemon, IodConfig, Manager, Scratch};
use pvfs_types::clock::{self, now_ns};
use pvfs_types::trace::with_span_sink;
use pvfs_types::{FlightRecorder, Ledger, PvfsError, RequestId, Span, SpanId, TraceContext};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::spares::Spares;
use crate::tcp::server::ConnOut;
use crate::transport::ReplyTo;

/// One daemon as its door sees it.
pub(crate) trait Service: Send + Sync {
    /// Serve one decoded request out of the buffers `scratch` holds.
    fn serve(&self, request: &Request, scratch: &mut Scratch) -> Response;
    /// The daemon's books, in which the door accounts every frame that
    /// is not a stats scrape.
    fn ledger(&self) -> &Ledger;
    /// The daemon's span ring, into which the door records the spans of
    /// every traced frame (and which its `GetTrace` scrapes).
    fn recorder(&self) -> &FlightRecorder;
    /// A request met a full queue. `Some(refusal)`: the shed is
    /// accounted ([`Ledger::shed`]) and the frame is refused — typed,
    /// retryable, provably unexecuted — instead of queued. `None`: this
    /// service never sheds — whoever offered the frame waits for room,
    /// and the wait is the backpressure.
    fn shed(&self) -> Option<PvfsError> {
        None
    }
}

/// Serve one request frame that entered the queue at the clock reading
/// `queued_at`, for the daemon named `node`: book the dequeue, decode,
/// serve, book the completion — and for a traced frame record its
/// `queue` and `service` spans from the same readings (module docs).
/// `scrape` frames (see the module docs) skip both bookings and are never
/// traced.
///
/// When the body fails to decode but the fixed header is readable, the
/// error response carries the *real* request id so the client can
/// attribute it; only a frame with an unreadable header falls back to
/// the reserved id 0.
///
/// # Who holds what when this returns
///
/// The request is gone, and with it every view this side had of the
/// frame it arrived in: whoever owns that frame's buffers — the
/// connection's [`FrameReader`](crate::tcp::frame::FrameReader), or over
/// the channel transport the client that encoded and gathered it — is
/// their last holder once the reply they are waiting for arrives, and
/// takes them back then. The reply is therefore sent *after* this
/// returns, never from inside [`Service::serve`]. What outlives the
/// request is in `scratch`, which the worker took from the reply path's
/// [`Spares`](crate::spares::Spares) and gives back: the request's
/// region list (the next list request is decoded into it), the daemon's
/// run list, and the buffer a read was gathered into — behind the `Data`
/// reply returned here, or unused. Whose that is differs: a connection's
/// scratch keeps it, and is the last handle on it again once the reply
/// is written and dropped ([`Scratch::reclaim_read`]); over the channel
/// transport it is the lane's, adopted from the request
/// ([`Scratch::adopt_read`]) and let go before the reply is handed over
/// ([`Scratch::release_read`]) — as the reply's payload, or beside the
/// reply if that has none.
pub(crate) fn serve_rpc(
    service: &dyn Service,
    node: &str,
    frame: Frame,
    queued_at: u64,
    scrape: bool,
    scratch: &mut Scratch,
) -> (RequestId, Response) {
    let taken = now_ns();
    let ledger = service.ledger();
    if !scrape {
        ledger.begin(queued_at, taken);
    }
    let header_id = decode_frame_id(&frame.head);
    let mut traced = None;
    let served = match decode_frame_reusing(frame, &mut scratch.regions) {
        Ok((Message { id, request, .. }, ctx)) => {
            let response = match ctx.filter(|_| !scrape) {
                Some(ctx) => {
                    let span = SpanId::next();
                    traced = Some((ctx, span, request.op_name()));
                    let under = TraceContext {
                        parent: span,
                        ..ctx
                    };
                    with_span_sink(under, node, service.recorder(), || {
                        service.serve(&request, scratch)
                    })
                }
                None => service.serve(&request, scratch),
            };
            // The request ends here, before any reply can leave; of what
            // it held only the region list stays, back in the scratch.
            if let Some(regions) = request.into_regions() {
                scratch.regions = regions;
            }
            (id, response)
        }
        Err(e) => (header_id.unwrap_or(RequestId(0)), Response::Error(e)),
    };
    let done = now_ns();
    if !scrape {
        ledger.end(taken, done);
    }
    if let Some((ctx, id, op)) = traced {
        let queue = Span::new(ctx, SpanId::next(), node, "queue", queued_at, taken);
        let mut served = Span::new(ctx, id, node, "service", taken, done);
        served.notes.push(op.into());
        service.recorder().extend([queue, served]);
    }
    served
}

/// How the reply to one frame goes back — all a worker needs to know of
/// the transport the frame came by.
pub(crate) enum ReplyPath {
    /// Over the channel transport: to the lane the request was sent on.
    Lane(ReplyTo),
    /// Over TCP: down the connection the request arrived on.
    Conn(Arc<ConnOut>),
}

impl ReplyPath {
    /// The scratch to serve the frame out of: the connection's, or one of
    /// the door's `queue` — which then gathers a read into the buffer the
    /// request brought (the lane's, which gets it back as the `Data`
    /// reply's payload, or beside a reply that has none).
    fn scratch(&mut self, queue: &Mutex<Spares<Scratch>>) -> Scratch {
        match self {
            ReplyPath::Lane(reply) => {
                let mut scratch = queue.lock().unwrap().take().unwrap_or_default();
                scratch.adopt_read(std::mem::take(&mut reply.spare));
                scratch
            }
            ReplyPath::Conn(conn) => conn.scratch(),
        }
    }

    /// Send `response`, and give `scratch` back to where it came from;
    /// `account`s the reply's wire bytes unless it answers a scrape.
    fn answer(
        self,
        id: RequestId,
        response: Response,
        mut scratch: Scratch,
        queue: &Mutex<Spares<Scratch>>,
        account: Option<&Ledger>,
    ) {
        match self {
            ReplyPath::Lane(mut reply) => {
                reply.spare = scratch.release_read();
                // The scratch goes back *before* the reply is handed over:
                // the frame the client sends on seeing it must find it back.
                queue.lock().unwrap().give(scratch);
                // A `Data` reply goes back as `head ‖ payload`, the payload
                // being the buffer the daemon gathered: never staged behind
                // its head in a second one. The head, like every fixed-size
                // reply, is short enough to travel inside its `Bytes`.
                let encoded = match response {
                    Response::Data { data } => Frame {
                        head: Bytes::copy_from_slice(&data_response_head(id, data.len() as u64)),
                        payload: data,
                    },
                    other => encode_response(id, &other).into(),
                };
                if let Some(ledger) = account {
                    ledger.wire_tx(encoded.len() as u64);
                }
                reply.send(encoded);
            }
            ReplyPath::Conn(conn) => conn.reply(id, response, Some(scratch), account),
        }
    }
}

/// What waits in a door's queue: a request frame (both parts, exactly as
/// they arrived), the way its reply goes back, and the clock reading it
/// was offered at (queue wait is measured from it).
type Job = (Frame, ReplyPath, u64);

/// A frame [`Door::offer`] did not admit, handed back with the way its
/// reply would have gone for the transport to tell its sender why.
pub(crate) type Refused = (Frame, ReplyPath, PvfsError);

/// What a door's workers share with it: the queue and who waits on it,
/// behind one lock (module docs).
struct Queue {
    state: Mutex<State>,
    /// The most frames admitted and not yet taken.
    depth: usize,
    /// A frame was queued, for a parked worker; room was made, for a
    /// parked offerer.
    work: Condvar,
    room: Condvar,
    /// Scratch for frames that bring none along (chan).
    spares: Mutex<Spares<Scratch>>,
    /// How often one thread was notified (shutting the door notifies
    /// all, and is not counted).
    #[cfg(test)]
    wakes: std::sync::atomic::AtomicUsize,
}

#[derive(Default)]
struct State {
    jobs: VecDeque<Job>,
    /// Set when the door shuts: nothing is admitted any more, and a
    /// worker that finds the queue empty leaves.
    shut: bool,
    /// Workers parked on `work`, offerers parked on `room`: a side with
    /// nobody counted here is not notified.
    idle_workers: usize,
    waiting_offers: usize,
}

impl Queue {
    fn new(depth: usize) -> Queue {
        let depth = depth.max(1);
        let jobs = VecDeque::with_capacity(depth);
        Queue {
            state: Mutex::new(State {
                jobs,
                ..State::default()
            }),
            depth,
            work: Condvar::new(),
            room: Condvar::new(),
            spares: Mutex::default(),
            #[cfg(test)]
            wakes: Default::default(),
        }
    }

    /// The next admitted frame, waiting for one; `None` once the door is
    /// shut and every frame it admitted has been taken.
    fn take(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                let offerer = state.waiting_offers > 0;
                drop(state);
                if offerer {
                    self.wake(&self.room);
                }
                return Some(job);
            }
            if state.shut {
                return None;
            }
            state = park(&self.work, state, |s| &mut s.idle_workers, None);
        }
    }

    /// Admit nothing more, and wake everyone parked: workers to drain the
    /// queue and leave, offerers to be refused.
    fn shut(&self) {
        self.state.lock().unwrap().shut = true;
        self.work.notify_all();
        self.room.notify_all();
    }

    /// Wake one of the threads counted as parked on `condvar`.
    fn wake(&self, condvar: &Condvar) {
        #[cfg(test)]
        self.wakes.fetch_add(1, Ordering::Relaxed);
        condvar.notify_one();
    }
}

/// Park on `condvar` until notified, or until the clock reading
/// `deadline` if there is one — counted in `parked` from before the
/// lock is released until it is held again, however the wait ends.
fn park<'a>(
    condvar: &Condvar,
    mut state: MutexGuard<'a, State>,
    parked: fn(&mut State) -> &mut usize,
    deadline: Option<u64>,
) -> MutexGuard<'a, State> {
    *parked(&mut state) += 1;
    let mut state = match deadline {
        None => condvar.wait(state).unwrap(),
        Some(end) => condvar.wait_timeout(state, clock::until(end)).unwrap().0,
    };
    *parked(&mut state) -= 1;
    state
}

/// The one way into a daemon: its bounded queue, the workers draining it
/// through [`serve_rpc`], and the [`Service`] they serve (module docs).
pub(crate) struct Door {
    /// `iod3` / `mgr`: the daemon's node in its spans, and what its
    /// threads are named after.
    pub(crate) name: String,
    queue: Arc<Queue>,
    service: Arc<dyn Service>,
    /// Emptied by [`close`](Door::close).
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Door {
    /// Start `workers` threads (at least one) named `name-w<i>` serving
    /// `service`, the daemon `name`, off a queue of `depth` frames (at
    /// least one), and book them in the service's `workers` gauge: it
    /// reports the threads that run, whatever was configured.
    pub(crate) fn spawn(
        name: &str,
        workers: usize,
        depth: usize,
        service: Arc<dyn Service>,
    ) -> Arc<Door> {
        let queue = Arc::new(Queue::new(depth));
        let threads: Vec<_> = (0..workers.max(1))
            .map(|i| {
                let (queue, service) = (queue.clone(), service.clone());
                let node = name.to_string();
                std::thread::Builder::new()
                    .name(format!("{name}-w{i}"))
                    .spawn(move || work(&queue, &*service, &node))
                    .expect("spawn door worker")
            })
            .collect();
        let gauge = &service.ledger().workers;
        gauge.store(threads.len() as u64, Ordering::Relaxed);
        Arc::new(Door {
            name: name.to_string(),
            queue,
            service,
            threads: Mutex::new(threads),
        })
    }

    /// The books of the daemon behind the door.
    pub(crate) fn ledger(&self) -> &Ledger {
        self.service.ledger()
    }

    /// Admit one request frame of `wire_len` bytes on the wire, to be
    /// answered down `reply`. A full queue is the service's call
    /// ([`Service::shed`]): refuse the frame at once, or have the caller
    /// wait for room at most `patience` — for ever without one: a
    /// connection's reader stops draining its socket and TCP flow control
    /// pushes back. A shut door refuses every frame, a waiting one too.
    /// A refused frame leaves `queue_depth` as it found it.
    ///
    /// Stats scrapes are observers: they skip the accounting, and wait
    /// out a full queue instead of shedding, so observation never
    /// perturbs the shed counter either.
    #[allow(clippy::result_large_err)] // handed back by value: nothing is boxed per frame
    pub(crate) fn offer(
        &self,
        frame: Frame,
        wire_len: u64,
        reply: ReplyPath,
        patience: Option<Duration>,
    ) -> Result<(), Refused> {
        let ledger = (!frame_is_stats_scrape(&frame.head)).then(|| self.service.ledger());
        if let Some(ledger) = ledger {
            ledger.wire_rx(wire_len);
            ledger.queued();
        }
        let (queue, queued_at) = (&*self.queue, now_ns());
        let mut state = queue.state.lock().unwrap();
        if !state.shut && state.jobs.len() >= queue.depth {
            // `shed` has taken a refused frame off the queue's books.
            if let Some(refusal) = ledger.and_then(|_| self.service.shed()) {
                return Err((frame, reply, refusal));
            }
        }
        let deadline = patience.map(|p| queued_at.saturating_add(clock::nanos(p)));
        let error = loop {
            if state.shut {
                break PvfsError::Transport("server thread gone".into());
            }
            if state.jobs.len() < queue.depth {
                state.jobs.push_back((frame, reply, queued_at));
                let worker = state.idle_workers > 0;
                drop(state);
                if worker {
                    queue.wake(&queue.work);
                }
                return Ok(());
            }
            if deadline.is_some_and(|deadline| deadline <= now_ns()) {
                let waited = patience.unwrap_or_default();
                let full = format!("the daemon's queue stayed full for {waited:?}");
                break PvfsError::timeout(full);
            }
            state = park(&queue.room, state, |s| &mut s.waiting_offers, deadline);
        };
        drop(state);
        // The frame never entered the queue it was booked into.
        if let Some(ledger) = ledger {
            ledger.unqueued();
        }
        Err((frame, reply, error))
    }

    /// Shut the door and drain it: every frame offered from now on is
    /// refused, and every frame admitted so far is served and answered
    /// before this returns. Idempotent.
    pub(crate) fn close(&self) {
        self.queue.shut();
        for thread in std::mem::take(&mut *self.threads.lock().unwrap()) {
            let _ = thread.join();
        }
    }
}

/// A door nobody holds any more lets its workers go, once they have
/// served what it admitted.
impl Drop for Door {
    fn drop(&mut self) {
        self.queue.shut();
    }
}

/// One worker of the daemon `node`: `scratch → serve_rpc → reply` for
/// every frame, until the door is shut and its queue empty.
fn work(queue: &Queue, service: &dyn Service, node: &str) {
    while let Some((frame, mut reply, queued_at)) = queue.take() {
        let scrape = frame_is_stats_scrape(&frame.head);
        let mut scratch = reply.scratch(&queue.spares);
        let (id, response) = serve_rpc(service, node, frame, queued_at, scrape, &mut scratch);
        let account = (!scrape).then(|| service.ledger());
        reply.answer(id, response, scratch, &queue.spares, account);
    }
}

/// A door for each of `daemons`, in server-id order, and last the door
/// of a fresh manager — which gets one worker, so that metadata
/// operations stay serialized in arrival order.
pub(crate) fn open_doors(daemons: &[Arc<IoDaemon>], config: IodConfig) -> Vec<Arc<Door>> {
    let iods = daemons.iter().map(|daemon| {
        let name = format!("iod{}", daemon.id().0);
        Door::spawn(&name, config.workers, config.queue_depth, daemon.clone())
    });
    let mgr = Door::spawn("mgr", 1, config.queue_depth, Arc::new(Manager::new()));
    iods.chain([mgr]).collect()
}

impl Service for IoDaemon {
    fn serve(&self, request: &Request, scratch: &mut Scratch) -> Response {
        let response = self.handle_with(request, scratch);
        // Emulated service time occupies the worker, the way a blocking
        // disk access would; the reply leaves only after the stall.
        if let Some(stall) = self.config().emulated_latency {
            std::thread::sleep(stall);
        }
        response
    }

    fn ledger(&self) -> &Ledger {
        IoDaemon::ledger(self)
    }

    fn recorder(&self) -> &FlightRecorder {
        IoDaemon::recorder(self)
    }

    fn shed(&self) -> Option<PvfsError> {
        IoDaemon::ledger(self).shed();
        Some(PvfsError::Overloaded {
            server: self.id().0,
            queue_depth: self.config().queue_depth.max(1) as u64,
        })
    }
}

/// Metadata operations are rare, order-sensitive and not idempotent:
/// the manager serializes them itself, and a full queue waits instead of
/// shedding.
impl Service for Manager {
    fn serve(&self, request: &Request, _: &mut Scratch) -> Response {
        self.handle(request)
    }

    fn ledger(&self) -> &Ledger {
        Manager::ledger(self)
    }

    fn recorder(&self) -> &FlightRecorder {
        Manager::recorder(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{ChanTransport, RpcTarget, Transport, WaitError};
    use pvfs_proto::{decode_response_id, encode_frame, encode_message};
    use pvfs_types::{
        ClientId, FileHandle, Region, ServerId, StatsSnapshot, StripeLayout, TraceId,
    };
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc::{self, sync_channel, SyncSender};

    impl Door {
        /// A door nobody works at: what is admitted waits in the queue
        /// for the test, which plays the workers itself at the far end.
        fn unmanned(depth: usize, service: Arc<dyn Service>) -> (Arc<Door>, Far) {
            let queue = Arc::new(Queue::new(depth));
            let door = Door {
                name: "bare".into(),
                queue: queue.clone(),
                service,
                threads: Mutex::default(),
            };
            (Arc::new(door), Far(queue))
        }

        /// The bare queue of protocol tests that play a channel-backed
        /// daemon themselves: an unmanned door that never sheds, and the
        /// far end of its queue — each call waits for the next frame sent
        /// through the door and where to answer it, `None` once the door
        /// is dropped and its queue empty. Dropping it is the daemon
        /// dying: the door refuses every frame from then on.
        pub(crate) fn bare(
            depth: usize,
        ) -> (Arc<Door>, impl Fn() -> Option<(Frame, ReplyTo)> + Send) {
            let (door, far) = Door::unmanned(depth, Arc::new(Recording::default()));
            let next = move || match far.take() {
                Some((frame, ReplyPath::Lane(reply), _)) => Some((frame, reply)),
                _ => None,
            };
            (door, next)
        }
    }

    /// The far end of an unmanned door's queue: whoever holds it is the
    /// door's workers, and dropping it is their death.
    struct Far(Arc<Queue>);

    impl std::ops::Deref for Far {
        type Target = Queue;
        fn deref(&self) -> &Queue {
            &self.0
        }
    }

    impl Drop for Far {
        fn drop(&mut self) {
            self.0.shut();
        }
    }

    impl Queue {
        /// The id of the next frame taken, `None` once the door is shut
        /// and drained.
        fn next_id(&self) -> Option<u64> {
            let (frame, ..) = self.take()?;
            Some(decode_frame_id(&frame.head).unwrap().0)
        }

        /// Threads counted as parked: (workers, offerers).
        fn parked(&self) -> (usize, usize) {
            let state = self.state.lock().unwrap();
            (state.idle_workers, state.waiting_offers)
        }

        /// Spin until exactly `parked` threads are counted.
        fn await_parked(&self, parked: (usize, usize)) {
            while self.parked() != parked {
                std::thread::yield_now();
            }
        }

        fn wakes(&self) -> usize {
            self.wakes.load(Ordering::Relaxed)
        }
    }

    /// A service with books of its own that counts what else it is
    /// asked.
    #[derive(Default)]
    struct Recording {
        ledger: Ledger,
        recorder: FlightRecorder,
        served: AtomicU64,
        shed_asked: AtomicU64,
        refusal: Option<PvfsError>,
    }

    impl Service for Recording {
        fn serve(&self, request: &Request, _: &mut Scratch) -> Response {
            self.served.fetch_add(1, Ordering::Relaxed);
            Response::Error(PvfsError::invalid(request.op_name()))
        }
        fn ledger(&self) -> &Ledger {
            &self.ledger
        }
        fn recorder(&self) -> &FlightRecorder {
            &self.recorder
        }
        fn shed(&self) -> Option<PvfsError> {
            self.shed_asked.fetch_add(1, Ordering::Relaxed);
            self.refusal.clone().inspect(|_| self.ledger.shed())
        }
    }

    fn frame(id: u64, request: Request) -> Frame {
        traced_frame(id, request, None)
    }

    fn traced_frame(id: u64, request: Request, ctx: Option<TraceContext>) -> Frame {
        let message = Message {
            client: ClientId(1),
            id: RequestId(id),
            request,
        };
        encode_frame(&message, ctx).unwrap()
    }

    fn context() -> TraceContext {
        TraceContext {
            trace: TraceId::next(),
            parent: SpanId::next(),
        }
    }

    #[test]
    fn a_scrape_frame_reaches_serve_and_nothing_else() {
        let service = Recording::default();
        let scratch = &mut Scratch::default();
        let scrape = frame(5, Request::GetStats);
        let (id, _) = serve_rpc(&service, "t", scrape, now_ns(), true, scratch);
        assert_eq!(id, RequestId(5));
        assert_eq!(service.served.load(Ordering::Relaxed), 1);
        assert_eq!(service.ledger.snapshot(), StatsSnapshot::default());
        // Any other frame is booked on both sides of the serve.
        service.ledger.queued();
        serve_rpc(
            &service,
            "t",
            frame(6, Request::Ping),
            now_ns(),
            false,
            scratch,
        );
        assert_eq!(service.served.load(Ordering::Relaxed), 2);
        let books = service.ledger.snapshot();
        assert_eq!(
            (books.queue_wait.count(), books.service_time.count()),
            (1, 1)
        );
        assert_eq!((books.queue_depth, books.busy_workers), (0, 0));
    }

    #[test]
    fn an_undecodable_body_echoes_the_headers_id_and_is_still_booked() {
        let service = Recording::default();
        let handle = FileHandle(1);
        let whole = encode_message(&Message {
            client: ClientId(1),
            id: RequestId(9),
            request: Request::GetLocalSize { handle },
        })
        .unwrap();
        // Header intact, body cut short.
        let cut = Frame::from(whole.slice(0..whole.len() - 3));
        let scratch = &mut Scratch::default();
        service.ledger.queued();
        let (id, response) = serve_rpc(&service, "t", cut, now_ns(), false, scratch);
        assert_eq!(id, RequestId(9), "the header's id, not the reserved 0");
        assert!(matches!(response, Response::Error(PvfsError::Protocol(_))));
        assert_eq!(service.served.load(Ordering::Relaxed), 0);
        assert_eq!(
            service.ledger.service_time.count(),
            1,
            "a worker was busy with it"
        );
        // No readable header: the reserved id.
        service.ledger.queued();
        let headless = Frame::from(whole.slice(0..7));
        let (id, _) = serve_rpc(&service, "t", headless, now_ns(), false, scratch);
        assert_eq!(id, RequestId(0));
    }

    /// A traced request's `queue` and `service` spans are the readings
    /// its queue-wait and service-time samples are made of, and what the
    /// daemon's storage adds to the span sink nests under `service`.
    #[test]
    fn traced_write_records_queue_service_and_storage_spans() {
        let d = IoDaemon::with_defaults(ServerId(0));
        let ctx = context();
        let write = Request::Write {
            handle: FileHandle(1),
            layout: StripeLayout::new(0, 4, 10).unwrap(),
            region: Region::new(0, 5),
            data: vec![1u8; 5].into(),
        };
        d.ledger().queued();
        let queued_at = now_ns();
        let frame = traced_frame(1, write, Some(ctx));
        let scratch = &mut Scratch::default();
        let (_, response) = serve_rpc(&d, "iod0", frame, queued_at, false, scratch);
        assert_eq!(response, Response::Written { bytes: 5 });

        let spans = d.recorder().for_trace(ctx.trace);
        assert_eq!(spans.len(), 3, "{spans:?}");
        let span = |op| spans.iter().find(|s| s.op == op).expect(op);
        let (queue, service, storage) = (span("queue"), span("service"), span("storage:write"));
        for s in [queue, service] {
            assert_eq!((s.parent, s.node.as_str()), (ctx.parent, "iod0"));
        }
        assert_eq!(service.notes, ["write"]);
        assert_eq!(storage.parent, service.id, "storage nests under service");
        let end = |s: &Span| s.start_ns + s.dur_ns;
        assert!(storage.start_ns >= service.start_ns && end(storage) <= end(service));
        // One reading at each boundary: queued, taken, done.
        assert_eq!(queue.start_ns, queued_at);
        assert_eq!(end(queue), service.start_ns);
        let books = d.ledger().snapshot();
        assert_eq!(books.queue_wait.sum_ns(), u128::from(queue.dur_ns));
        assert_eq!(books.service_time.sum_ns(), u128::from(service.dur_ns));
    }

    /// The manager's door records its spans as an I/O daemon's does: a
    /// `service` span on node `mgr`, noted with the metadata op, beside
    /// a `queue` span that is its queue-wait sample.
    #[test]
    fn traced_metadata_request_records_a_service_span() {
        let m = Manager::new();
        let ctx = context();
        let create = Request::Create {
            path: "/a".into(),
            layout: StripeLayout::new(0, 1, 10).unwrap(),
        };
        m.ledger().queued();
        let queued_at = now_ns();
        let frame = traced_frame(1, create, Some(ctx));
        let scratch = &mut Scratch::default();
        let (_, response) = serve_rpc(&m, "mgr", frame, queued_at, false, scratch);
        assert!(matches!(response, Response::Created { .. }));

        let spans = m.recorder().for_trace(ctx.trace);
        let span = |op| spans.iter().find(|s| s.op == op).expect(op);
        let (queue, service) = (span("queue"), span("service"));
        assert_eq!(queue.parent, ctx.parent);
        assert_eq!(queue.start_ns, queued_at);
        assert_eq!(
            m.ledger().snapshot().queue_wait.sum_ns(),
            u128::from(queue.dur_ns)
        );
        assert_eq!((service.node.as_str(), service.parent), ("mgr", ctx.parent));
        assert_eq!(service.notes, ["create"]);
    }

    /// Both daemons follow one rule: a traced request gets a `queue` span
    /// — however short its wait — and a `service` span noted with its
    /// op, on the node its door is named after.
    #[test]
    fn a_traced_request_always_records_a_queue_span_on_either_daemon() {
        let iod = Arc::new(IoDaemon::with_defaults(ServerId(0)));
        let doors = open_doors(&[iod], IodConfig::default());
        let (tx, _rx) = sync_channel(4);
        let create = Request::Create {
            path: "/a".into(),
            layout: StripeLayout::new(0, 1, 10).unwrap(),
        };
        let cases = [(Request::Ping, "iod0", "ping"), (create, "mgr", "create")];
        for (door, (request, node, op)) in doors.iter().zip(cases) {
            let ctx = context();
            let reply = ReplyPath::Lane(ReplyTo::new(&tx, RequestId(1)));
            let frame = traced_frame(1, request, Some(ctx));
            assert!(door.offer(frame, 16, reply, None).is_ok());
            door.close();
            let spans = door.service.recorder().for_trace(ctx.trace);
            let ops: Vec<&str> = spans.iter().map(|s| s.op.as_str()).collect();
            assert_eq!(ops, ["queue", "service"], "{node}");
            assert!(spans
                .iter()
                .all(|s| s.node == node && s.parent == ctx.parent));
            assert_eq!(spans[0].start_ns + spans[0].dur_ns, spans[1].start_ns);
            assert_eq!(spans[1].notes, [op]);
        }
    }

    /// Only a traced frame that is not a scrape leaves spans: traces
    /// never trace their own collection.
    #[test]
    fn untraced_and_scrape_frames_record_no_spans() {
        let d = IoDaemon::with_defaults(ServerId(0));
        let m = Manager::new();
        let scratch = &mut Scratch::default();
        for (service, node) in [(&d as &dyn Service, "iod0"), (&m, "mgr")] {
            service.ledger().queued();
            let ping = frame(1, Request::Ping);
            serve_rpc(service, node, ping, now_ns(), false, scratch);
            let ctx = Some(context());
            let scrape = traced_frame(2, Request::GetTrace { trace: TraceId(1) }, ctx);
            serve_rpc(service, node, scrape, now_ns(), true, scratch);
            assert!(service.recorder().is_empty(), "{node}");
        }
    }

    /// The two ways a reply goes back, for a test to offer frames
    /// with: a lane's reply channel, or a connection over loopback.
    enum Way {
        Lane(SyncSender<crate::transport::ChanReply>),
        Conn(Arc<ConnOut>, #[allow(dead_code)] TcpStream),
    }

    impl Way {
        fn both() -> [Way; 2] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (far, _) = listener.accept().unwrap();
            [
                Way::Lane(sync_channel(8).0),
                Way::Conn(ConnOut::new(far), near),
            ]
        }

        fn reply(&self, id: u64) -> ReplyPath {
            match self {
                Way::Lane(tx) => ReplyPath::Lane(ReplyTo::new(tx, RequestId(id))),
                Way::Conn(conn, _) => ReplyPath::Conn(conn.clone()),
            }
        }
    }

    /// What a full queue does is the service's call: `Some(refusal)`
    /// refuses the frame on the spot, `None` makes the sender wait for
    /// room — the same over both reply paths, on the same books.
    #[test]
    fn a_full_queue_refuses_or_blocks_as_shed_says() {
        let door_over = |refusal| {
            let service = Arc::new(Recording {
                refusal,
                ..Recording::default()
            });
            let (door, far) = Door::unmanned(1, service.clone());
            (service, far, door)
        };
        let overloaded = PvfsError::Overloaded {
            server: 0,
            queue_depth: 1,
        };
        let books = |service: &Recording| {
            let books = service.ledger.snapshot();
            (books.frames_rx, books.queue_depth, books.requests_shed)
        };
        let ping = |id| frame(id, Request::Ping);
        let patience = Some(Duration::from_secs(30));

        for way in Way::both() {
            let (service, _far, door) = door_over(Some(overloaded.clone()));
            assert!(door.offer(ping(1), 16, way.reply(1), patience).is_ok());
            assert_eq!(books(&service), (1, 1, 0));
            let refused = door.offer(ping(2), 16, way.reply(2), patience);
            let (refused, _, error) = refused.expect_err("the queue is full");
            assert_eq!(error, overloaded);
            assert_eq!(decode_frame_id(&refused.head), Some(RequestId(2)));
            assert_eq!(
                books(&service),
                (2, 1, 1),
                "the refused frame left the queue"
            );
            // A scrape is never shed: it waits for room, and moves no
            // counter whether it gets in or not.
            let scrape = frame(3, Request::GetStats);
            let waited = door.offer(scrape, 16, way.reply(3), Some(Duration::from_millis(5)));
            assert!(matches!(waited, Err((_, _, PvfsError::Timeout(_)))));
            assert_eq!(books(&service), (2, 1, 1));
            assert_eq!(service.shed_asked.load(Ordering::Relaxed), 1);

            let (service, far, door) = door_over(None);
            assert!(door.offer(ping(1), 16, way.reply(1), patience).is_ok());
            std::thread::scope(|scope| {
                let (door, second, reply) = (&door, ping(2), way.reply(2));
                let sender = scope.spawn(move || door.offer(second, 16, reply, None).is_ok());
                // Once `shed` has declined, the sender is waiting on a
                // queue only this thread can make room in.
                while service.shed_asked.load(Ordering::Relaxed) == 0 {
                    std::thread::yield_now();
                }
                for _ in 0..2 {
                    assert!(far.take().is_some());
                }
                assert!(sender.join().unwrap(), "the blocked offer went through");
            });
            assert_eq!(books(&service), (2, 2, 0), "both frames are queued");

            // A frame that never got into the queue — here the door's
            // workers are gone — is not left on the queue's books, whether
            // the service sheds or waits.
            for refusal in [Some(overloaded.clone()), None] {
                let (service, far, door) = door_over(refusal);
                drop(far);
                let gone = door.offer(ping(1), 16, way.reply(1), patience);
                assert!(matches!(gone, Err((_, _, PvfsError::Transport(_)))));
                assert_eq!(books(&service), (1, 0, 0), "nothing is queued");
            }
        }
    }

    /// Every frame a worker picks up is served once, whichever worker,
    /// and the gauge says how many there are — at least one.
    #[test]
    fn a_door_serves_every_frame_across_its_workers() {
        let service = Arc::new(Recording::default());
        let door = Door::spawn("t", 4, 8, service.clone());
        assert_eq!(service.ledger.snapshot().workers, 4);
        let (tx, rx) = sync_channel(100);
        for id in 1..=100 {
            let reply = ReplyPath::Lane(ReplyTo::new(&tx, RequestId(id)));
            assert!(door
                .offer(frame(id, Request::Ping), 16, reply, None)
                .is_ok());
        }
        door.close();
        assert_eq!(service.served.load(Ordering::Relaxed), 100);
        let mut ids: Vec<_> = (0..100)
            .map(|_| {
                decode_response_id(&rx.recv().unwrap().unwrap().0.head)
                    .unwrap()
                    .0
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=100).collect::<Vec<_>>());

        let none = Door::spawn("t", 0, 0, service.clone());
        assert_eq!(service.ledger.snapshot().workers, 1);
        none.close();
    }

    /// Closing stops every worker, each once: the threads are joined
    /// with nothing left queued and no worker still counted as parked, a
    /// second close does nothing, and the door stays shut.
    #[test]
    fn closing_stops_every_worker_and_leaves_the_door_shut() {
        let service = Arc::new(Recording::default());
        let door = Door::spawn("t", 2, 4, service.clone());
        let (tx, _rx) = sync_channel(4);
        let reply = |id| ReplyPath::Lane(ReplyTo::new(&tx, RequestId(id)));
        assert!(door
            .offer(frame(1, Request::Ping), 16, reply(1), None)
            .is_ok());
        door.close();
        door.close();
        assert!(door.threads.lock().unwrap().is_empty());
        let state = door.queue.state.lock().unwrap();
        assert_eq!((state.jobs.len(), state.idle_workers), (0, 0));
        assert!(state.shut);
        drop(state);
        assert_eq!(service.served.load(Ordering::Relaxed), 1);
        let late = door.offer(frame(2, Request::Ping), 16, reply(2), None);
        assert!(matches!(late, Err((_, _, PvfsError::Transport(_)))));
    }

    /// What the door admitted it answers, even when it is closed with
    /// frames still queued and every worker busy.
    #[test]
    fn every_admitted_frame_is_answered_before_close_returns() {
        #[derive(Default)]
        struct Slow(Ledger, FlightRecorder);
        impl Service for Slow {
            fn serve(&self, _: &Request, _: &mut Scratch) -> Response {
                std::thread::sleep(Duration::from_millis(2));
                Response::Pong { queue_depth: 0 }
            }
            fn ledger(&self) -> &Ledger {
                &self.0
            }
            fn recorder(&self) -> &FlightRecorder {
                &self.1
            }
        }
        let door = Door::spawn("t", 2, 8, Arc::new(Slow::default()));
        let transport = ChanTransport::new(vec![door.clone(), Door::bare(1).0]);
        let mut lane = transport.lane(RpcTarget::Server(ServerId(0))).unwrap();
        for id in 1..=crate::WINDOW as u64 {
            lane.send(frame(id, Request::Ping)).unwrap();
        }
        door.close();
        // Nothing is waited for: the replies are already there.
        for _ in 0..crate::WINDOW {
            assert!(lane.recv(Duration::ZERO).is_ok());
        }
        assert!(matches!(lane.recv(Duration::ZERO), Err(WaitError::Timeout)));
        let served = door.ledger().snapshot().service_time.count();
        assert_eq!(served, crate::WINDOW as u64);
        assert!(
            lane.send(frame(9, Request::Ping)).is_err(),
            "the door is shut"
        );
    }

    /// Once a door has begun to close it admits nothing: a frame offered
    /// then is refused at once — not queued behind the drain, where no
    /// worker would ever take it and its sender would hear nothing until
    /// its deadline — and the frame admitted before is answered before
    /// `close` returns.
    #[test]
    fn a_frame_offered_while_the_door_closes_is_refused_at_once() {
        /// Serves a frame only once the test lets it go.
        struct Held(Recording, Mutex<mpsc::Receiver<()>>);
        impl Service for Held {
            fn serve(&self, request: &Request, scratch: &mut Scratch) -> Response {
                let response = self.0.serve(request, scratch);
                let _ = self.1.lock().unwrap().recv();
                response
            }
            fn ledger(&self) -> &Ledger {
                &self.0.ledger
            }
            fn recorder(&self) -> &FlightRecorder {
                &self.0.recorder
            }
        }
        let (release, held) = mpsc::channel();
        let service = Arc::new(Held(Recording::default(), Mutex::new(held)));
        let door = Door::spawn("t", 1, 4, service.clone());
        let transport = ChanTransport::new(vec![door.clone(), Door::bare(1).0]);
        let mut lane = transport.lane(RpcTarget::Server(ServerId(0))).unwrap();
        lane.send(frame(1, Request::Ping)).unwrap();
        while service.0.served.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        let late = std::thread::scope(|scope| {
            let closing = scope.spawn(|| door.close());
            while !door.queue.state.lock().unwrap().shut {
                std::thread::yield_now();
            }
            let late = lane.send(frame(2, Request::Ping));
            release.send(()).unwrap();
            closing.join().unwrap();
            late
        });
        assert!(
            matches!(late, Err(PvfsError::Transport(_))),
            "the closing door admitted {late:?}"
        );
        let answer = lane
            .recv(Duration::ZERO)
            .expect("answered before close returned");
        assert_eq!(decode_response_id(&answer.head), Some(RequestId(1)));
        assert!(matches!(lane.recv(Duration::ZERO), Err(WaitError::Timeout)));
        assert_eq!(service.0.served.load(Ordering::Relaxed), 1);
    }

    /// Offer ping `id` to `door`, its reply to go down `tx` (where nobody
    /// listens): why it was refused, if it was.
    fn offer_ping(
        door: &Door,
        tx: &SyncSender<crate::transport::ChanReply>,
        id: u64,
        patience: Option<Duration>,
    ) -> Result<(), PvfsError> {
        let reply = ReplyPath::Lane(ReplyTo::new(tx, RequestId(id)));
        let offered = door.offer(frame(id, Request::Ping), 16, reply, patience);
        offered.map_err(|(_, _, error)| error)
    }

    #[test]
    fn fifo_within_single_consumer() {
        let (door, far) = Door::unmanned(8, Arc::new(Recording::default()));
        let (tx, _) = sync_channel(1);
        for id in 0..5 {
            assert!(offer_ping(&door, &tx, id, None).is_ok());
        }
        for id in 0..5 {
            assert_eq!(far.next_id(), Some(id));
        }
    }

    /// A frame that meets a full queue waits for room at most its
    /// patience, and one taken off the queue lets a waiting frame in.
    #[test]
    fn patience_bounds_the_wait_then_succeeds_after_drain() {
        let (door, far) = Door::unmanned(1, Arc::new(Recording::default()));
        let (tx, _) = sync_channel(1);
        let offer = |id, patience| offer_ping(&door, &tx, id, patience);
        assert!(offer(1, None).is_ok());
        let started = now_ns();
        let waited = offer(2, Some(Duration::from_millis(20)));
        assert!(matches!(waited, Err(PvfsError::Timeout(_))));
        assert!(clock::since(started) >= Duration::from_millis(20));
        // A concurrent take lets a parked offer in.
        std::thread::scope(|scope| {
            let parked = scope.spawn(|| offer(2, Some(Duration::from_secs(5))));
            std::thread::sleep(Duration::from_millis(10));
            assert_eq!(far.next_id(), Some(1));
            assert_eq!(parked.join().unwrap(), Ok(()));
        });
        assert_eq!(far.next_id(), Some(2));
    }

    #[test]
    fn only_a_parked_thread_is_notified() {
        let (door, far) = Door::unmanned(2, Arc::new(Recording::default()));
        let (tx, _) = sync_channel(1);
        let offer = |id, patience| offer_ping(&door, &tx, id, patience);
        let now = Some(Duration::ZERO);
        // Nobody is parked on either side: no notify at all.
        for id in 0..100 {
            assert_eq!((offer(id, None), offer(id, now)), (Ok(()), Ok(())));
            assert!(matches!(offer(id, now), Err(PvfsError::Timeout(_))));
            assert_eq!((far.next_id(), far.next_id()), (Some(id), Some(id)));
        }
        assert_eq!(far.wakes(), 0);
        far.await_parked((0, 0));
        std::thread::scope(|scope| {
            // One worker parked: the offer that feeds it notifies, once;
            // the next one, with nobody waiting any more, does not.
            let parked = scope.spawn(|| far.next_id());
            far.await_parked((1, 0));
            assert_eq!(offer(7, None), Ok(()));
            assert_eq!(parked.join().unwrap(), Some(7));
            assert_eq!(far.wakes(), 1);
            assert_eq!((offer(8, None), offer(9, None)), (Ok(()), Ok(())));
            assert_eq!(far.wakes(), 1);
            // One offer parked on the full queue: the take that makes
            // room notifies it, once.
            let parked = scope.spawn(|| offer(10, None));
            far.await_parked((0, 1));
            assert_eq!(far.next_id(), Some(8));
            assert_eq!(parked.join().unwrap(), Ok(()));
            assert_eq!(far.wakes(), 2);
        });
        assert_eq!((far.next_id(), far.next_id()), (Some(9), Some(10)));
        assert_eq!(far.wakes(), 2);
        // A wait for room that timed out took itself off the count.
        assert_eq!((offer(11, None), offer(12, None)), (Ok(()), Ok(())));
        let waited = offer(13, Some(Duration::from_millis(1)));
        assert!(matches!(waited, Err(PvfsError::Timeout(_))));
        assert_eq!((far.parked(), far.wakes()), ((0, 0), 2));
    }

    /// Capacity 1 keeps both sides parking all the time, every offer on
    /// a patience that often runs out (and must take itself off the
    /// count): a wake-up lost anywhere hangs this test, a frame lost or
    /// doubled fails it. Closing the door wakes the workers for good.
    #[test]
    fn no_wakeup_is_lost_at_capacity_one() {
        const EACH: u64 = 10_000;
        let (door, far) = Door::unmanned(1, Arc::new(Recording::default()));
        let (tx, _) = sync_channel(1);
        let patience = Some(Duration::from_micros(50));
        let mut all: Vec<u64> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| std::iter::from_fn(|| far.next_id()).collect::<Vec<_>>()))
                .collect();
            let offerers: Vec<_> = (0..4u64)
                .map(|p| {
                    let (door, tx) = (&door, &tx);
                    scope.spawn(move || {
                        for id in p * EACH..(p + 1) * EACH {
                            while let Err(error) = offer_ping(door, tx, id, patience) {
                                assert!(matches!(error, PvfsError::Timeout(_)), "{error:?}");
                            }
                        }
                    })
                })
                .collect();
            offerers.into_iter().for_each(|o| o.join().unwrap());
            door.close();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        all.sort_unstable();
        assert!(all.into_iter().eq(0..4 * EACH));
    }
}
