//! The daemon side of one RPC: the one threaded driver of a daemon's
//! [`Door`] (which decides; this does), for chan and tcp alike.
//!
//! A [`Driver`] holds the door under one mutex, parks threads on it, takes
//! every clock reading, and starts the door's `workers` threads
//! ([`Driver::start`], the only spawn) when a frame first queues. Whoever
//! receives a frame — a chan lane's `send`, a TCP connection's reader —
//! [`offer`](Driver::offer)s it, serves it if the door hands it back, and
//! tells a refusal its own way. Served by that thread or a worker, a
//! frame takes one step, [`serve_job`]: scratch → [`serve_rpc`] → end →
//! answer down its [`ReplyPath`], all that differs between transports.
//! [`Driver::close`] is the only drain.
//!
//! A notify is a system call whether or not anyone is parked, so the
//! driver notifies only a side the door counts as parked. No wake-up is
//! lost: a thread counts itself *before* the condvar releases the mutex
//! and uncounts itself with it held again, however the wait ended, so
//! whoever changes the door after a thread decided to park sees it
//! counted. The count may run ahead of who is asleep — a notify nobody
//! needed, never one somebody did. Shutting wakes everyone.

use bytes::Bytes;
use pvfs_decide::door::{serve_rpc, Door, Job, Offer, Refused, Service};
use pvfs_proto::{data_response_head, encode_response, Frame, Response};
use pvfs_server::{IoDaemon, IodConfig, Manager, Scratch};
use pvfs_types::clock::{self, now_ns};
use pvfs_types::{Ledger, PvfsError, RequestId};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::tcp::server::ConnOut;
use crate::transport::ReplyTo;
use pvfs_decide::spares::Spares;

#[allow(clippy::disallowed_types)] // the driver parks its door's workers, closers and offerers
type Condvar = std::sync::Condvar;

/// How the reply to one frame goes back: all of its transport a server needs.
pub(crate) enum ReplyPath {
    /// To the chan lane the request was sent on.
    Lane(ReplyTo),
    /// Down the TCP connection the request arrived on.
    Conn(Arc<ConnOut>),
}

impl ReplyPath {
    /// The scratch to serve the frame out of: the connection's, or one of
    /// `spares` that gathers a read into the buffer the request brought
    /// (the lane's, back as the `Data` payload or beside another reply).
    fn scratch(&mut self, spares: &Mutex<Spares<Scratch>>) -> Scratch {
        match self {
            ReplyPath::Lane(reply) => {
                let mut scratch = spares.lock().unwrap().take().unwrap_or_default();
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
        spares: &Mutex<Spares<Scratch>>,
        account: Option<&Ledger>,
    ) {
        match self {
            ReplyPath::Lane(mut reply) => {
                reply.spare = scratch.release_read();
                // The scratch goes back *before* the reply is handed over:
                // the frame the client sends on seeing it must find it back.
                spares.lock().unwrap().give(scratch);
                // A `Data` reply is `head ‖ payload`, the gathered buffer
                // never staged behind its head in a second one.
                let encoded = match response {
                    Response::Data { data } => Frame {
                        head: Bytes::copy_from_slice(&data_response_head(id, data.len() as u64)),
                        payload: data,
                        lent: 0,
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

/// What a driver's workers share with it: the door and who waits on it.
struct Queue {
    door: Mutex<Door<ReplyPath>>,
    /// For parked workers and closers; for parked offerers.
    work: Condvar,
    room: Condvar,
    /// Scratch for frames that bring none along (chan).
    spares: Mutex<Spares<Scratch>>,
}

impl Queue {
    /// The next frame the door lets a worker take, waiting for one;
    /// `None` once the door is drained.
    fn take(&self) -> Option<Job<ReplyPath>> {
        let mut now = now_ns();
        let mut door = self.door.lock().unwrap();
        loop {
            if let Some((job, room)) = door.take(now) {
                drop(door);
                if room {
                    self.room.notify_one();
                }
                return Some(job);
            }
            if door.drained() {
                return None;
            }
            door = park(&self.work, door, |d| &mut d.idle_workers, None);
            now = now_ns();
        }
    }

    /// Admit nothing more, and wake everyone parked.
    fn shut(&self) {
        self.door.lock().unwrap().shut();
        self.work.notify_all();
        self.room.notify_all();
    }
}

/// Park on `condvar` until notified or the reading `deadline`, counted in
/// `parked` from before the lock is released until it is held again.
fn park<'a>(
    condvar: &Condvar,
    mut door: MutexGuard<'a, Door<ReplyPath>>,
    parked: fn(&mut Door<ReplyPath>) -> &mut usize,
    deadline: Option<u64>,
) -> MutexGuard<'a, Door<ReplyPath>> {
    *parked(&mut door) += 1;
    let mut door = match deadline {
        None => condvar.wait(door).unwrap(),
        Some(end) => condvar.wait_timeout(door, clock::until(end)).unwrap().0,
    };
    *parked(&mut door) -= 1;
    door
}

/// The one way into a daemon: its door, its workers, its [`Service`].
pub(crate) struct Driver {
    /// `iod3` / `mgr`: the node of its spans, the name of its threads.
    pub(crate) name: String,
    queue: Arc<Queue>,
    service: Arc<dyn Service>,
    /// Filled by [`start`](Driver::start), emptied by [`close`](Driver::close).
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Driver {
    /// A driver of the daemon `name` ([`Door::new`]); its `workers`
    /// threads start when a frame first queues, and its `workers` gauge
    /// books the frames served at once from now.
    pub(crate) fn spawn(
        name: &str,
        workers: usize,
        depth: usize,
        service: Arc<dyn Service>,
    ) -> Arc<Driver> {
        let workers = workers.max(1);
        let gauge = &service.ledger().workers;
        gauge.store(workers as u64, Ordering::Relaxed);
        let queue = Queue {
            door: Mutex::new(Door::new(service.clone(), workers, depth)),
            work: Condvar::new(),
            room: Condvar::new(),
            spares: Mutex::default(),
        };
        Arc::new(Driver {
            name: name.to_string(),
            queue: Arc::new(queue),
            service,
            threads: Mutex::default(),
        })
    }

    /// Start the workers, under the door's lock: the only spawn.
    #[allow(clippy::disallowed_methods)] // a daemon's threads start here and only here
    fn start(&self, workers: usize) {
        let mut threads = self.threads.lock().unwrap();
        threads.extend((0..workers).map(|i| {
            let (queue, service) = (self.queue.clone(), self.service.clone());
            let node = self.name.clone();
            std::thread::Builder::new()
                .name(format!("{node}-w{i}"))
                .spawn(move || work(&queue, &*service, &node))
                .expect("spawn door worker")
        }));
    }

    /// The books of the daemon behind the door.
    pub(crate) fn ledger(&self) -> &Ledger {
        self.service.ledger()
    }

    /// Offer a frame ([`Door::offer`]); serve it if the door says so. A
    /// full queue that does not shed has the caller wait at most
    /// `patience` — for ever without: TCP flow control pushes back.
    #[allow(clippy::result_large_err)] // handed back by value: nothing is boxed per frame
    pub(crate) fn offer(
        &self,
        frame: Frame,
        wire_len: u64,
        reply: ReplyPath,
        patience: Option<Duration>,
    ) -> Result<(), Refused<ReplyPath>> {
        let (queue, now) = (&*self.queue, now_ns());
        let deadline = patience.map(|p| now.saturating_add(clock::nanos(p)));
        let mut door = queue.door.lock().unwrap();
        let mut offer = door.offer(frame, wire_len, reply, now);
        loop {
            offer = match offer {
                Offer::Serve(job) => {
                    drop(door);
                    serve_job(queue, &*self.service, &self.name, job);
                    return Ok(());
                }
                Offer::Queued { start, wake } => {
                    if start > 0 {
                        self.start(start);
                    }
                    drop(door);
                    if wake {
                        queue.work.notify_one();
                    }
                    return Ok(());
                }
                Offer::Refused(refused) => return Err(refused),
                Offer::Full(job) if deadline.is_some_and(|end| end <= now_ns()) => {
                    let waited = patience.unwrap_or_default();
                    let full = format!("the daemon's queue stayed full for {waited:?}");
                    return Err(door.refuse(job, PvfsError::timeout(full)));
                }
                Offer::Full(job) => {
                    door = park(&queue.room, door, |d| &mut d.waiting_offers, deadline);
                    door.retry(job)
                }
            };
        }
    }

    /// Shut the door and drain it: every frame admitted so far — queued,
    /// or served where it was offered — is answered first. Idempotent.
    pub(crate) fn close(&self) {
        self.queue.shut();
        for thread in std::mem::take(&mut *self.threads.lock().unwrap()) {
            let _ = thread.join();
        }
        let mut door = self.queue.door.lock().unwrap();
        while !door.drained() {
            door = park(&self.queue.work, door, |d| &mut d.idle_workers, None);
        }
    }
}

/// A driver nobody holds lets its workers go once they drained its door.
impl Drop for Driver {
    fn drop(&mut self) {
        self.queue.shut();
    }
}

/// One worker of the daemon `node`, until the door is drained.
fn work(queue: &Queue, service: &dyn Service, node: &str) {
    while let Some(job) = queue.take() {
        serve_job(queue, service, node, job);
    }
}

/// The one serve step, a worker's or the offering thread's: scratch →
/// `serve_rpc` → end (a reading) → answer; then out of service.
#[allow(clippy::disallowed_methods)] // `serve_rpc`'s one caller
fn serve_job(queue: &Queue, service: &dyn Service, node: &str, mut job: Job<ReplyPath>) {
    let _slot = Slot(queue);
    let mut scratch = job.reply_mut().scratch(&queue.spares);
    let account = job.books(service);
    let (served, reply) = serve_rpc(service, node, job, &mut scratch);
    let (id, response) = served.end(service, node, now_ns());
    reply.answer(id, response, scratch, &queue.spares, account);
}

/// A frame's place in service, given back however its service ends: a
/// daemon that panics must not hang [`Driver::close`].
struct Slot<'a>(&'a Queue);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        if self.0.door.lock().unwrap().finish() {
            self.0.work.notify_all();
        }
    }
}

/// A door for each of `daemons`, in server-id order, then a fresh
/// manager's, which serves one frame at a time, in arrival order.
pub(crate) fn open_doors(daemons: &[Arc<IoDaemon>], config: IodConfig) -> Vec<Arc<Driver>> {
    let iods = daemons.iter().map(|daemon| {
        let name = format!("iod{}", daemon.id().0);
        Driver::spawn(&name, config.workers, config.queue_depth, daemon.clone())
    });
    let mgr = Driver::spawn("mgr", 1, config.queue_depth, Arc::new(Manager::new()));
    iods.chain([mgr]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{ChanTransport, RpcTarget, Transport, WaitError};
    use pvfs_proto::{
        decode_frame_id, decode_response_id, encode_frame, encode_message, Message, Request,
    };
    use pvfs_types::{
        ClientId, FileHandle, FlightRecorder, Region, ServerId, Span, SpanId, StatsSnapshot,
        StripeLayout, TraceContext, TraceId,
    };
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::mpsc::{self, sync_channel, SyncSender};
    use std::sync::{OnceLock, Weak};

    /// A service with books of its own that counts what else it is
    /// asked.
    #[derive(Default)]
    struct Recording {
        ledger: Ledger,
        recorder: FlightRecorder,
        served: AtomicU64,
        shed_asked: AtomicU64,
        refusal: Option<PvfsError>,
        never_blocks: bool,
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
        fn never_blocks(&self) -> bool {
            self.never_blocks
        }
    }

    fn traced_frame(id: u64, request: Request, ctx: Option<TraceContext>) -> Frame {
        let message = Message {
            client: ClientId(1),
            id: RequestId(id),
            request,
        };
        encode_frame(&message, ctx).unwrap()
    }

    impl Driver {
        /// A driver nobody works at: what is admitted waits in the queue
        /// for the test, which plays the workers itself at the far end.
        /// It serves nothing inline and starts no thread of its own.
        fn unmanned(depth: usize, service: Arc<dyn Service>) -> (Arc<Driver>, Far) {
            let queue = Arc::new(Queue {
                door: Mutex::new(Door::unmanned(service.clone(), depth)),
                work: Condvar::new(),
                room: Condvar::new(),
                spares: Mutex::default(),
            });
            let driver = Driver {
                name: "bare".into(),
                queue: queue.clone(),
                service,
                threads: Mutex::default(),
            };
            (Arc::new(driver), Far(queue))
        }

        /// The bare queue of protocol tests that play a channel-backed
        /// daemon themselves: an unmanned door that never sheds, and the
        /// far end of its queue — each call waits for the next frame sent
        /// through the door and where to answer it, `None` once the door
        /// is dropped and its queue empty. Dropping it is the daemon
        /// dying: the door refuses every frame from then on.
        pub(crate) fn bare(
            depth: usize,
        ) -> (Arc<Driver>, impl Fn() -> Option<(Frame, ReplyTo)> + Send) {
            let (door, far) = Driver::unmanned(depth, Arc::new(Recording::default()));
            let next = move || match far.take()?.into_parts() {
                (frame, ReplyPath::Lane(reply)) => Some((frame, reply)),
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

    impl Far {
        /// The next frame, out of service as soon as it is taken: the
        /// far end is as many workers as it has threads.
        fn take(&self) -> Option<Job<ReplyPath>> {
            let job = self.0.take()?;
            drop(Slot(&self.0));
            Some(job)
        }

        /// The id of the next frame taken, `None` once the door is shut
        /// and drained.
        fn next_id(&self) -> Option<u64> {
            let job = self.take()?;
            Some(decode_frame_id(&job.into_parts().0.head).unwrap().0)
        }
    }

    impl Drop for Far {
        fn drop(&mut self) {
            self.0.shut();
        }
    }

    impl Queue {
        /// Threads counted as parked: (workers and closers, offerers).
        fn parked(&self) -> (usize, usize) {
            let door = self.door.lock().unwrap();
            (door.idle_workers, door.waiting_offers)
        }

        /// Spin until exactly `parked` threads are counted.
        fn await_parked(&self, parked: (usize, usize)) {
            while self.parked() != parked {
                std::thread::yield_now();
            }
        }

        fn is_shut(&self) -> bool {
            self.door.lock().unwrap().is_shut()
        }
    }

    fn frame(id: u64, request: Request) -> Frame {
        traced_frame(id, request, None)
    }

    /// Serve `frame` on `service` through a door with no thread: offered,
    /// taken and done at the next three of `readings`.
    fn serve_at(
        service: &Arc<dyn Service>,
        node: &str,
        frame: Frame,
        mut readings: impl FnMut() -> u64,
    ) -> (RequestId, Response) {
        let mut door = Door::unmanned(service.clone(), 1);
        assert!(matches!(
            door.offer(frame, 16, (), readings()),
            Offer::Queued { .. }
        ));
        let (job, _) = door.take(readings()).unwrap();
        let scratch = &mut Scratch::default();
        #[allow(clippy::disallowed_methods)] // a door with no thread, served by hand
        let (served, ()) = serve_rpc(&**service, node, job, scratch);
        let answer = served.end(&**service, node, readings());
        door.finish();
        answer
    }

    /// The clock, each reading kept in `seen`.
    fn seen_at(seen: &mut Vec<u64>) -> impl FnMut() -> u64 + '_ {
        || {
            seen.push(now_ns());
            *seen.last().unwrap()
        }
    }

    fn context() -> TraceContext {
        TraceContext {
            trace: TraceId::next(),
            parent: SpanId::next(),
        }
    }

    #[test]
    fn a_scrape_frame_reaches_serve_and_nothing_else() {
        let recording = Arc::new(Recording::default());
        let service: Arc<dyn Service> = recording.clone();
        let scrape = frame(5, Request::GetStats);
        let (id, _) = serve_at(&service, "t", scrape, now_ns);
        assert_eq!(id, RequestId(5));
        assert_eq!(recording.served.load(Ordering::Relaxed), 1);
        assert_eq!(recording.ledger.snapshot(), StatsSnapshot::default());
        // Any other frame is booked on both sides of the serve.
        serve_at(&service, "t", frame(6, Request::Ping), now_ns);
        assert_eq!(recording.served.load(Ordering::Relaxed), 2);
        let books = recording.ledger.snapshot();
        assert_eq!(
            (books.queue_wait.count(), books.service_time.count()),
            (1, 1)
        );
        assert_eq!((books.queue_depth, books.busy_workers), (0, 0));
    }

    #[test]
    fn an_undecodable_body_echoes_the_headers_id_and_is_still_booked() {
        let recording = Arc::new(Recording::default());
        let service: Arc<dyn Service> = recording.clone();
        let handle = FileHandle(1);
        let whole = encode_message(&Message {
            client: ClientId(1),
            id: RequestId(9),
            request: Request::GetLocalSize { handle },
        })
        .unwrap();
        // Header intact, body cut short.
        let cut = Frame::from(whole.slice(0..whole.len() - 3));
        let (id, response) = serve_at(&service, "t", cut, now_ns);
        assert_eq!(id, RequestId(9), "the header's id, not the reserved 0");
        assert!(matches!(response, Response::Error(PvfsError::Protocol(_))));
        assert_eq!(recording.served.load(Ordering::Relaxed), 0);
        assert_eq!(
            recording.ledger.service_time.count(),
            1,
            "a worker was busy with it"
        );
        // No readable header: the reserved id.
        let headless = Frame::from(whole.slice(0..7));
        let (id, _) = serve_at(&service, "t", headless, now_ns);
        assert_eq!(id, RequestId(0));
    }

    /// A traced request's `queue` and `service` spans are the readings
    /// its queue-wait and service-time samples are made of, and what the
    /// daemon's storage adds to the span sink nests under `service`.
    #[test]
    fn traced_write_records_queue_service_and_storage_spans() {
        let d: Arc<dyn Service> = Arc::new(IoDaemon::with_defaults(ServerId(0)));
        let ctx = context();
        let write = Request::Write {
            handle: FileHandle(1),
            layout: StripeLayout::new(0, 4, 10).unwrap(),
            region: Region::new(0, 5),
            data: vec![1u8; 5].into(),
        };
        let frame = traced_frame(1, write, Some(ctx));
        let mut seen = Vec::new();
        let (_, response) = serve_at(&d, "iod0", frame, seen_at(&mut seen));
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
        assert_eq!(
            [queue.start_ns, end(queue), end(service)],
            [seen[0], seen[1], seen[2]]
        );
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
        let m: Arc<dyn Service> = Arc::new(Manager::new());
        let ctx = context();
        let create = Request::Create {
            path: "/a".into(),
            layout: StripeLayout::new(0, 1, 10).unwrap(),
        };
        let frame = traced_frame(1, create, Some(ctx));
        let mut seen = Vec::new();
        let (_, response) = serve_at(&m, "mgr", frame, seen_at(&mut seen));
        assert!(matches!(response, Response::Created { .. }));

        let spans = m.recorder().for_trace(ctx.trace);
        let span = |op| spans.iter().find(|s| s.op == op).expect(op);
        let (queue, service) = (span("queue"), span("service"));
        assert_eq!(queue.parent, ctx.parent);
        assert_eq!(queue.start_ns, seen[0]);
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
        let d: Arc<dyn Service> = Arc::new(IoDaemon::with_defaults(ServerId(0)));
        let m: Arc<dyn Service> = Arc::new(Manager::new());
        for (service, node) in [(&d, "iod0"), (&m, "mgr")] {
            serve_at(service, node, frame(1, Request::Ping), now_ns);
            let ctx = Some(context());
            let scrape = traced_frame(2, Request::GetTrace { trace: TraceId(1) }, ctx);
            serve_at(service, node, scrape, now_ns);
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
            let (door, far) = Driver::unmanned(1, service.clone());
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
            // Both frames were admitted, and the far end took them: the
            // door books a frame's queue wait when it is taken.
            assert_eq!(books(&service), (2, 0, 0), "both frames were admitted");
            assert_eq!(service.ledger.snapshot().queue_wait.count(), 2);

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
        let door = Driver::spawn("t", 4, 8, service.clone());
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

        let none = Driver::spawn("t", 0, 0, service.clone());
        assert_eq!(service.ledger.snapshot().workers, 1);
        none.close();
    }

    /// Closing stops every worker, each once: the threads are joined
    /// with nothing left queued and no worker still counted as parked, a
    /// second close does nothing, and the door stays shut.
    #[test]
    fn closing_stops_every_worker_and_leaves_the_door_shut() {
        let service = Arc::new(Recording::default());
        let door = Driver::spawn("t", 2, 4, service.clone());
        let (tx, _rx) = sync_channel(4);
        let reply = |id| ReplyPath::Lane(ReplyTo::new(&tx, RequestId(id)));
        assert!(door
            .offer(frame(1, Request::Ping), 16, reply(1), None)
            .is_ok());
        door.close();
        door.close();
        assert!(door.threads.lock().unwrap().is_empty());
        let state = door.queue.door.lock().unwrap();
        assert_eq!((state.queued(), state.idle_workers), (0, 0));
        assert!(state.is_shut());
        drop(state);
        assert_eq!(service.served.load(Ordering::Relaxed), 1);
        let late = door.offer(frame(2, Request::Ping), 16, reply(2), None);
        assert!(matches!(late, Err((_, _, PvfsError::Transport(_)))));
    }

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
        fn never_blocks(&self) -> bool {
            self.0.never_blocks
        }
    }

    /// A [`Held`] service, and the sender that lets its frames go.
    fn held(never_blocks: bool) -> (Arc<Held>, mpsc::Sender<()>) {
        let (release, held) = mpsc::channel();
        let recording = Recording {
            never_blocks,
            ..Recording::default()
        };
        (Arc::new(Held(recording, Mutex::new(held))), release)
    }

    /// What the door admitted it answers, even when it is closed with
    /// frames still queued and every worker busy.
    #[test]
    fn every_admitted_frame_is_answered_before_close_returns() {
        let (service, release) = held(false);
        let door = Driver::spawn("t", 2, 8, service.clone());
        let transport = ChanTransport::new(vec![door.clone(), Driver::bare(1).0]);
        let mut lane = transport.lane(RpcTarget::Server(ServerId(0))).unwrap();
        for id in 1..=crate::WINDOW as u64 {
            lane.send(frame(id, Request::Ping), &()).unwrap();
        }
        // Both workers hold a frame, and the rest wait in the queue.
        while service.0.served.load(Ordering::Relaxed) < 2 {
            std::thread::yield_now();
        }
        assert_eq!(door.queue.door.lock().unwrap().queued(), crate::WINDOW - 2);
        std::thread::scope(|scope| {
            let closing = scope.spawn(|| door.close());
            while !door.queue.is_shut() {
                std::thread::yield_now();
            }
            (0..crate::WINDOW).for_each(|_| release.send(()).unwrap());
            closing.join().unwrap();
        });
        // Nothing is waited for: the replies are already there.
        for _ in 0..crate::WINDOW {
            assert!(lane.recv(Duration::ZERO, &mut ()).is_ok());
        }
        assert!(matches!(
            lane.recv(Duration::ZERO, &mut ()),
            Err(WaitError::Timeout)
        ));
        let served = door.ledger().snapshot().service_time.count();
        assert_eq!(served, crate::WINDOW as u64);
        assert!(
            lane.send(frame(9, Request::Ping), &()).is_err(),
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
        let (service, release) = held(false);
        let door = Driver::spawn("t", 1, 4, service.clone());
        let transport = ChanTransport::new(vec![door.clone(), Driver::bare(1).0]);
        let mut lane = transport.lane(RpcTarget::Server(ServerId(0))).unwrap();
        lane.send(frame(1, Request::Ping), &()).unwrap();
        while service.0.served.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        let late = std::thread::scope(|scope| {
            let closing = scope.spawn(|| door.close());
            while !door.queue.is_shut() {
                std::thread::yield_now();
            }
            let late = lane.send(frame(2, Request::Ping), &());
            release.send(()).unwrap();
            closing.join().unwrap();
            late
        });
        assert!(
            matches!(late, Err(PvfsError::Transport(_))),
            "the closing door admitted {late:?}"
        );
        let answer = lane
            .recv(Duration::ZERO, &mut ())
            .expect("answered before close returned");
        assert_eq!(decode_response_id(&answer.head), Some(RequestId(1)));
        assert!(matches!(
            lane.recv(Duration::ZERO, &mut ()),
            Err(WaitError::Timeout)
        ));
        assert_eq!(service.0.served.load(Ordering::Relaxed), 1);
    }

    /// Offer ping `id` to `door`, its reply to go down `tx` (where nobody
    /// listens): why it was refused, if it was.
    fn offer_ping(
        door: &Driver,
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
        let (door, far) = Driver::unmanned(8, Arc::new(Recording::default()));
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
        let (door, far) = Driver::unmanned(1, Arc::new(Recording::default()));
        let (tx, _) = sync_channel(1);
        let offer = |id, patience| offer_ping(&door, &tx, id, patience);
        assert!(offer(1, None).is_ok());
        let started = now_ns();
        let waited = offer(2, Some(Duration::from_millis(2)));
        assert!(matches!(waited, Err(PvfsError::Timeout(_))));
        assert!(clock::since(started) >= Duration::from_millis(2));
        assert_eq!(far.parked(), (0, 0), "a wait that timed out is uncounted");
        // A take lets a parked offer in.
        std::thread::scope(|scope| {
            let parked = scope.spawn(|| offer(2, Some(Duration::from_secs(30))));
            far.await_parked((0, 1));
            assert_eq!(far.next_id(), Some(1));
            assert_eq!(parked.join().unwrap(), Ok(()));
        });
        assert_eq!(far.next_id(), Some(2));
    }

    /// The door tells its driver to notify a side only when a thread
    /// of it is counted as parked: an offer that queues wakes a parked
    /// worker, a take that makes room a parked offerer, the end of a
    /// service the workers parked for a slot or for the drain.
    #[test]
    fn only_a_parked_thread_is_notified() {
        let mut door = Door::unmanned(Arc::new(Recording::default()), 2);
        let ping = || frame(1, Request::Ping);
        let queued = |offer| match offer {
            Offer::Queued { wake, .. } => wake,
            _ => panic!("not queued"),
        };
        // Nobody is parked on either side: no notify at all.
        assert!(!queued(door.offer(ping(), 16, 1, 0)));
        assert!(!queued(door.offer(ping(), 16, 2, 0)));
        let Offer::Full(job) = door.offer(ping(), 16, 3, 0) else {
            panic!("the queue holds two")
        };
        door.refuse(job, PvfsError::timeout("no patience"));
        assert!(!door.take(0).unwrap().1);
        assert!(!door.finish());
        // A worker parked: the offer that feeds it wakes it.
        door.idle_workers = 1;
        assert!(queued(door.offer(ping(), 16, 4, 0)));
        // An offerer parked on the full queue: the take that makes room.
        door.waiting_offers = 1;
        assert!(door.take(0).unwrap().1);
        // A frame left service: the parked workers are woken while there
        // is work for them, and once the door is shut, to leave.
        assert!(door.finish());
        door.take(0).unwrap();
        assert!(!door.finish(), "nothing left to take");
        assert!(queued(door.offer(ping(), 16, 5, 0)));
        door.take(0).unwrap();
        door.shut();
        assert!(door.finish(), "shut: wake them to leave");
        assert!(door.drained());
    }

    /// Capacity 1 keeps both sides parking all the time, every offer on
    /// a patience that often runs out (and must take itself off the
    /// count): a wake-up lost anywhere hangs this test, a frame lost or
    /// doubled fails it. Closing the door wakes the workers for good.
    #[test]
    fn no_wakeup_is_lost_at_capacity_one() {
        const EACH: u64 = 10_000;
        let (door, far) = Driver::unmanned(1, Arc::new(Recording::default()));
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

    fn threads(door: &Driver) -> usize {
        door.threads.lock().unwrap().len()
    }

    /// A daemon that never blocks — in memory, no emulated latency — and
    /// the manager are served by whoever offers the frame: the reply is
    /// there before `offer` returns, no thread is started, and a traced
    /// frame's `queue` span is empty.
    #[test]
    fn a_service_that_never_blocks_is_served_where_it_is_offered() {
        let iod = Arc::new(IoDaemon::with_defaults(ServerId(0)));
        for door in open_doors(&[iod], IodConfig::default()) {
            let (tx, rx) = sync_channel(1);
            let ctx = context();
            let reply = ReplyPath::Lane(ReplyTo::new(&tx, RequestId(1)));
            let frame = traced_frame(1, Request::Ping, Some(ctx));
            assert!(door.offer(frame, 16, reply, None).is_ok());
            let (answer, _) = rx.try_recv().expect("answered inline").unwrap();
            assert_eq!(decode_response_id(&answer.head), Some(RequestId(1)));
            assert_eq!(threads(&door), 0, "{}", door.name);
            let spans = door.service.recorder().for_trace(ctx.trace);
            assert_eq!((spans[0].op.as_str(), spans[0].dur_ns), ("queue", 0));
            let books = door.ledger().snapshot();
            assert_eq!((books.queue_wait.sum_ns(), books.queue_depth), (0, 0));
            door.close();
        }
    }

    /// A daemon that can block queues every frame, and its door starts
    /// exactly `workers` threads when the first one comes — none before.
    /// The `workers` gauge reads the configured count all along.
    #[test]
    fn a_service_that_can_block_starts_its_workers_on_its_first_frame() {
        let config = IodConfig {
            workers: 3,
            emulated_latency: Some(Duration::from_millis(1)),
            ..IodConfig::default()
        };
        let iod = Arc::new(IoDaemon::new(ServerId(0), config));
        let door = open_doors(std::slice::from_ref(&iod), config).remove(0);
        assert_eq!((threads(&door), iod.ledger().snapshot().workers), (0, 3));
        let (tx, rx) = sync_channel(4);
        for id in 1..=2 {
            assert!(offer_ping(&door, &tx, id, None).is_ok());
            assert_eq!(threads(&door), 3);
        }
        door.close();
        assert_eq!(rx.try_iter().count(), 2);
        // A cluster's gauge, before any frame: the configured count.
        let cluster = crate::LiveCluster::spawn_with(2, config);
        assert_eq!(cluster.workers_per_server(), 3);
    }

    /// Served inline or by a worker, never more than `workers` frames of
    /// a door are in service at once: 2 of an I/O daemon's, 1 of the
    /// manager's. Four threads offer at once; the frames that find every
    /// slot taken queue, start the workers and are served by them.
    #[test]
    fn no_more_than_workers_frames_are_ever_in_service() {
        #[derive(Default)]
        struct Peak(
            Recording,
            AtomicU64,
            AtomicU64,
            AtomicU64,
            AtomicBool,
            OnceLock<Weak<Queue>>,
        );
        impl Service for Peak {
            fn serve(&self, request: &Request, scratch: &mut Scratch) -> Response {
                let now = self.1.fetch_add(1, Ordering::SeqCst) + 1;
                self.2.fetch_max(now, Ordering::SeqCst);
                let name = std::thread::current().name().map(|n| n.starts_with("t-w"));
                if name == Some(true) {
                    self.3.fetch_add(1, Ordering::Relaxed);
                } else {
                    // Served where it was offered: held, once, until a
                    // frame has found every slot taken and sits in the
                    // door's queue, which only a worker takes from — not
                    // on the `queue_depth` gauge, which also counts a
                    // frame on its way to being served inline.
                    let queue = self.5.get().and_then(Weak::upgrade).unwrap();
                    while !self.4.load(Ordering::SeqCst) {
                        if queue.door.lock().unwrap().queued() > 0 {
                            self.4.store(true, Ordering::SeqCst);
                        }
                        std::thread::yield_now();
                    }
                }
                self.1.fetch_sub(1, Ordering::SeqCst);
                self.0.serve(request, scratch)
            }
            fn ledger(&self) -> &Ledger {
                &self.0.ledger
            }
            fn recorder(&self) -> &FlightRecorder {
                &self.0.recorder
            }
            fn never_blocks(&self) -> bool {
                true
            }
        }
        const EACH: u64 = 200;
        for workers in [2, 1] {
            let service = Arc::new(Peak::default());
            let door = Driver::spawn("t", workers, 64, service.clone());
            let _ = service.5.set(Arc::downgrade(&door.queue));
            std::thread::scope(|scope| {
                for t in 0..4 {
                    let door = &door;
                    scope.spawn(move || {
                        let (tx, _rx) = sync_channel(EACH as usize);
                        for id in t * EACH..(t + 1) * EACH {
                            assert!(offer_ping(door, &tx, id, None).is_ok());
                        }
                    });
                }
            });
            door.close();
            let peak = service.2.load(Ordering::SeqCst);
            assert!(
                peak <= workers as u64,
                "{peak} in service, {workers} allowed"
            );
            assert_eq!(service.0.served.load(Ordering::Relaxed), 4 * EACH);
            let by_workers = service.3.load(Ordering::Relaxed);
            assert!(
                (1..4 * EACH).contains(&by_workers),
                "{by_workers} by workers"
            );
        }
    }

    /// `close` returns only once a frame in service on the thread that
    /// offered it is answered.
    #[test]
    fn close_waits_for_a_frame_served_inline() {
        let (service, release) = held(true);
        let door = Driver::spawn("t", 1, 4, service.clone());
        let (tx, rx) = sync_channel(1);
        std::thread::scope(|scope| {
            let offering = scope.spawn(|| offer_ping(&door, &tx, 1, None));
            while service.0.served.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            let closing = scope.spawn(|| door.close());
            // The closer parks for the frame in service, and only its
            // end can wake it for good.
            door.queue.await_parked((1, 0));
            let early = closing.is_finished();
            release.send(()).unwrap();
            closing.join().unwrap();
            assert!(!early, "close left a frame in service");
            assert!(rx.try_recv().is_ok(), "answered before close returned");
            assert_eq!(offering.join().unwrap(), Ok(()));
        });
        assert_eq!(threads(&door), 0);
    }

    /// The unmanned door of protocol tests serves nothing and starts no
    /// thread, whatever its service: every frame waits at the far end.
    #[test]
    fn an_unmanned_door_never_serves_inline_nor_starts_a_worker() {
        let service = Arc::new(Recording {
            never_blocks: true,
            ..Recording::default()
        });
        let (door, far) = Driver::unmanned(2, service.clone());
        let (tx, _rx) = sync_channel(2);
        for id in 1..=2 {
            assert!(offer_ping(&door, &tx, id, None).is_ok());
        }
        assert_eq!(
            (service.served.load(Ordering::Relaxed), threads(&door)),
            (0, 0)
        );
        assert_eq!((far.next_id(), far.next_id()), (Some(1), Some(2)));
    }

    /// A frame whose service panics still leaves service: the worker
    /// that served it is gone, and `close` returns all the same.
    #[test]
    fn a_serve_that_panics_does_not_hang_close() {
        #[derive(Default)]
        struct Panics(Ledger, FlightRecorder);
        impl Service for Panics {
            fn serve(&self, _: &Request, _: &mut Scratch) -> Response {
                panic!("a daemon bug");
            }
            fn ledger(&self) -> &Ledger {
                &self.0
            }
            fn recorder(&self) -> &FlightRecorder {
                &self.1
            }
        }
        let door = Driver::spawn("t", 1, 4, Arc::new(Panics::default()));
        let (tx, rx) = sync_channel(1);
        assert!(offer_ping(&door, &tx, 1, None).is_ok());
        door.close();
        assert!(door.queue.door.lock().unwrap().drained());
        assert!(
            matches!(rx.try_recv(), Ok(Err(RequestId(1)))),
            "the frame is lost"
        );
    }
}
