//! The rules of a daemon's door, and nothing else.
//!
//! Every daemon stands behind one [`Door`], whichever transport brings
//! its frames: a value — the frames queued, how many are in service,
//! whether it is shut, who its driver (`pvfs-net`'s `serve.rs`) counts
//! as parked — with no lock, clock, thread or socket; each method takes
//! the driver's reading and says what to do. A frame is **offered**
//! ([`Door::offer`], the one admission rule) — booked; refused if shut;
//! served on the spot (*run to completion*) if the service never
//! blocks, nothing is queued and fewer than `workers` are in service;
//! else queued, shed, or left to wait for room — **taken**
//! ([`Door::take`]) in arrival order while fewer than `workers` are in
//! service (the manager's one keeps it serial), **served**
//! ([`serve_rpc`]), booked ([`Served::end`]) before any reply leaves,
//! and **finished** ([`Door::finish`]) once answered.
//!
//! A frame's readings — offered, taken (the same, served on the spot),
//! done — are its queue-wait and service-time samples and, traced, its
//! `queue` and `service` spans, to the nanosecond; storage spans nest
//! under `service`. Stats scrapes ([`pvfs_proto::frame_is_stats_scrape`])
//! reach [`Service::serve`] and nothing else — no accounting, sample or
//! span, never shed; [`Job::books`] is the one guard — so a scraped
//! snapshot equals the in-process one (the observer-effect guarantee).

use pvfs_proto::{
    decode_frame_id, decode_frame_reusing, frame_is_stats_scrape, Frame, Message, Request, Response,
};
use pvfs_server::{IoDaemon, Manager, Scratch};
use pvfs_types::trace::with_span_sink;
use pvfs_types::{FlightRecorder, Ledger, PvfsError, RequestId, Span, SpanId, TraceContext};
use std::collections::VecDeque;
use std::sync::Arc;

/// One daemon as its door sees it.
pub trait Service: Send + Sync {
    /// Serve one decoded request out of the buffers `scratch` holds.
    fn serve(&self, request: &Request, scratch: &mut Scratch) -> Response;
    /// The daemon's books, for every frame but a stats scrape.
    fn ledger(&self) -> &Ledger;
    /// The daemon's span ring (what its `GetTrace` scrapes).
    fn recorder(&self) -> &FlightRecorder;
    /// A request met a full queue. `Some(refusal)`: booked as shed and
    /// refused — typed, retryable, provably unexecuted. `None`: whoever
    /// offered it waits for room, and the wait is the backpressure.
    fn shed(&self) -> Option<PvfsError> {
        None
    }
    /// Whether serving never waits (on a disk, a stall, a sync), so the
    /// thread offering a frame may serve it.
    fn never_blocks(&self) -> bool {
        false
    }
}

/// A frame's readings at the door, and whether it is a stats scrape.
struct Stamp {
    queued_at: u64,
    taken: u64,
    scrape: bool,
}

impl Stamp {
    fn books<'s>(&self, service: &'s dyn Service) -> Option<&'s Ledger> {
        (!self.scrape).then(|| service.ledger())
    }
}

/// A request frame as it arrived, what rides with it (the way its reply
/// goes back), and its readings. Only a door makes one, and nothing
/// swaps its frame, so [`serve_rpc`] serves only frames a door admitted.
pub struct Job<R> {
    frame: Frame,
    reply: R,
    stamp: Stamp,
}

impl<R> Job<R> {
    pub fn reply_mut(&mut self) -> &mut R {
        &mut self.reply
    }

    /// The books the frame is accounted in: none for a scrape.
    pub fn books<'s>(&self, service: &'s dyn Service) -> Option<&'s Ledger> {
        self.stamp.books(service)
    }

    /// The frame and its reply path, unserved.
    pub fn into_parts(self) -> (Frame, R) {
        (self.frame, self.reply)
    }
}

/// A frame not admitted, handed back for its sender to be told why.
pub type Refused<R> = (Frame, R, PvfsError);

/// What the driver is to do with a frame it offered.
pub enum Offer<R> {
    /// In service already: serve it, here and now.
    Serve(Job<R>),
    /// Queued: `start` workers (all of them, for the first frame to
    /// queue), and whether to `wake` one counted as parked.
    Queued { start: usize, wake: bool },
    /// Full, and the service waits: [`retry`](Door::retry) the job,
    /// still booked, once room is made, or [`refuse`](Door::refuse) it.
    Full(Job<R>),
    /// Shed, or the door is shut: off the books.
    Refused(Refused<R>),
}

/// The rules of one daemon's door (module docs).
pub struct Door<R> {
    service: Arc<dyn Service>,
    jobs: VecDeque<Job<R>>,
    depth: usize,
    workers: usize,
    inline: bool,
    /// Frames taken and not yet finished.
    serving: usize,
    /// Workers not started yet: the first frame to queue starts them.
    unstarted: usize,
    shut: bool,
    /// Threads parked for work (workers, closers) and for room
    /// (offerers), as the driver counts them.
    pub idle_workers: usize,
    pub waiting_offers: usize,
}

impl<R> Door<R> {
    /// At most `workers` frames in service, `depth` queued (each ≥ 1).
    pub fn new(service: Arc<dyn Service>, workers: usize, depth: usize) -> Door<R> {
        let depth = depth.max(1);
        Door {
            inline: service.never_blocks(),
            service,
            jobs: VecDeque::with_capacity(depth),
            depth,
            workers: workers.max(1),
            serving: 0,
            unstarted: workers.max(1),
            shut: false,
            idle_workers: 0,
            waiting_offers: 0,
        }
    }

    /// A door nobody works at: it serves nothing on the spot, lets any
    /// number of frames be taken, and never asks for a worker.
    pub fn unmanned(service: Arc<dyn Service>, depth: usize) -> Door<R> {
        Door {
            inline: false,
            unstarted: 0,
            workers: usize::MAX,
            ..Door::new(service, 1, depth)
        }
    }

    /// How many frames are queued.
    pub fn queued(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the door admits nothing more.
    pub fn is_shut(&self) -> bool {
        self.shut
    }

    /// Offer a frame of `wire_len` bytes on the wire, arrived at the
    /// reading `now` (module docs). A scrape waits out a full queue.
    pub fn offer(&mut self, frame: Frame, wire_len: u64, reply: R, now: u64) -> Offer<R> {
        let scrape = frame_is_stats_scrape(&frame.head);
        let stamp = Stamp {
            queued_at: now,
            taken: now,
            scrape,
        };
        let books = stamp.books(&*self.service);
        if let Some(ledger) = books {
            ledger.wire_rx(wire_len);
            ledger.queued();
        }
        let job = Job {
            frame,
            reply,
            stamp,
        };
        if self.inline && !self.shut && self.jobs.is_empty() && self.serving < self.workers {
            return Offer::Serve(self.begin(job));
        }
        if !self.shut && self.jobs.len() >= self.depth {
            // `shed` has taken a refused frame off the queue's books.
            if let Some(refusal) = books.and_then(|_| self.service.shed()) {
                return Offer::Refused((job.frame, job.reply, refusal));
            }
        }
        self.retry(job)
    }

    /// Offer again a job the queue was [`Full`](Offer::Full) for.
    pub fn retry(&mut self, job: Job<R>) -> Offer<R> {
        if self.shut {
            let gone = PvfsError::Transport("server thread gone".into());
            return Offer::Refused(self.refuse(job, gone));
        }
        if self.jobs.len() >= self.depth {
            return Offer::Full(job);
        }
        self.jobs.push_back(job);
        let start = std::mem::take(&mut self.unstarted);
        let wake = self.idle_workers > 0;
        Offer::Queued { start, wake }
    }

    /// Give up on a job that never entered the queue: off the books.
    pub fn refuse(&mut self, job: Job<R>, error: PvfsError) -> Refused<R> {
        if let Some(ledger) = job.stamp.books(&*self.service) {
            ledger.unqueued();
        }
        (job.frame, job.reply, error)
    }

    /// The next frame, in service from the reading `now` (none while
    /// `workers` are), and whether to wake an offerer parked for room.
    pub fn take(&mut self, now: u64) -> Option<(Job<R>, bool)> {
        if self.serving >= self.workers {
            return None;
        }
        let mut job = self.jobs.pop_front()?;
        job.stamp.taken = now;
        Some((self.begin(job), self.waiting_offers > 0))
    }

    fn begin(&mut self, job: Job<R>) -> Job<R> {
        self.serving += 1;
        if let Some(ledger) = job.stamp.books(&*self.service) {
            ledger.begin(job.stamp.queued_at, job.stamp.taken);
        }
        job
    }

    /// A frame left service, answered: whether to wake every parked
    /// worker — for its slot, or, shut, to drain.
    pub fn finish(&mut self) -> bool {
        self.serving -= 1;
        self.idle_workers > 0 && (self.shut || !self.jobs.is_empty())
    }

    /// Admit nothing more; what is queued is still taken.
    pub fn shut(&mut self) {
        self.shut = true;
    }

    /// Shut, nothing in service; once its workers leave (only with
    /// nothing to take), every frame admitted was answered.
    pub fn drained(&self) -> bool {
        self.shut && self.serving == 0
    }
}

/// A served frame's answer, and what its end books.
pub struct Served {
    id: RequestId,
    response: Response,
    stamp: Stamp,
    /// Context, `service` span and op of a traced frame.
    traced: Option<(TraceContext, SpanId, &'static str)>,
}

/// Decode a job's frame and serve it on `service`, the daemon `node` — a
/// traced one under its span sink — reading no clock. An undecodable
/// body is answered with its header's id, or the reserved 0.
///
/// The request is gone when this returns, and with it every view of the
/// frame it came in, whose owner (the connection's `FrameReader`, the
/// chan client) is its last holder once the reply arrives: the reply
/// leaves after this.
/// What outlives it is in `scratch`, the reply path's: the region and
/// run lists, and a read's buffer — a connection's own
/// ([`Scratch::reclaim_read`]), or the chan lane's, adopted from the
/// request ([`Scratch::adopt_read`]) and let go before the reply is
/// handed over ([`Scratch::release_read`]).
pub fn serve_rpc<R>(
    service: &dyn Service,
    node: &str,
    job: Job<R>,
    scratch: &mut Scratch,
) -> (Served, R) {
    let header_id = decode_frame_id(&job.frame.head);
    let mut traced = None;
    let (id, response) = match decode_frame_reusing(job.frame, &mut scratch.regions) {
        Ok((Message { id, request, .. }, ctx)) => {
            let response = match ctx.filter(|_| !job.stamp.scrape) {
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
            // The request ends here; its region list stays in the scratch.
            if let Some(regions) = request.into_regions() {
                scratch.regions = regions;
            }
            (id, response)
        }
        Err(e) => (header_id.unwrap_or(RequestId(0)), Response::Error(e)),
    };
    let served = Served {
        id,
        response,
        stamp: job.stamp,
        traced,
    };
    (served, job.reply)
}

impl Served {
    /// Service ended at the reading `done`: book it and a traced frame's
    /// spans, and hand back the answer to send.
    pub fn end(self, service: &dyn Service, node: &str, done: u64) -> (RequestId, Response) {
        let (queued_at, taken) = (self.stamp.queued_at, self.stamp.taken);
        if let Some(ledger) = self.stamp.books(service) {
            ledger.end(taken, done);
        }
        if let Some((ctx, id, op)) = self.traced {
            let queue = Span::new(ctx, SpanId::next(), node, "queue", queued_at, taken);
            let mut served = Span::new(ctx, id, node, "service", taken, done);
            served.notes.push(op.into());
            service.recorder().extend([queue, served]);
        }
        (self.id, self.response)
    }
}

impl Service for IoDaemon {
    fn serve(&self, request: &Request, scratch: &mut Scratch) -> Response {
        IoDaemon::serve(self, request, scratch)
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
    fn never_blocks(&self) -> bool {
        IoDaemon::never_blocks(self)
    }
}

/// Metadata operations are rare, order-sensitive and not idempotent: a
/// full queue waits instead of shedding; serving waits on nothing else.
impl Service for Manager {
    fn serve(&self, request: &Request, _: &mut Scratch) -> Response {
        self.handle(request)
    }
    fn never_blocks(&self) -> bool {
        true
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
    use pvfs_proto::encode_frame;
    use pvfs_types::{ClientId, FileHandle, Region, ServerId, StripeLayout, TraceId};
    use std::sync::atomic::{AtomicU64, Ordering};

    impl<R> Door<R> {
        fn in_service(&self) -> usize {
            self.serving
        }
    }

    impl<R: Clone> Clone for Job<R> {
        fn clone(&self) -> Self {
            let (frame, reply) = (self.frame.clone(), self.reply.clone());
            Job {
                frame,
                reply,
                stamp: Stamp { ..self.stamp },
            }
        }
    }

    impl<R: Clone> Clone for Door<R> {
        fn clone(&self) -> Self {
            Door {
                service: self.service.clone(),
                jobs: self.jobs.clone(),
                ..*self
            }
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

    /// What the exhaustive walk knows a door must hold: the ids queued
    /// (with the reading each was offered at), in service, and waiting
    /// for room, in order.
    #[derive(Clone, Default)]
    struct Model {
        next: u64,
        queued: VecDeque<(u64, u64)>,
        serving: Vec<u64>,
        waiting: Vec<Job<u64>>,
        started: bool,
        shut: bool,
    }

    #[derive(Clone, Copy, Debug)]
    enum Step {
        Offer,
        Take,
        Finish,
        Shut,
    }

    struct Rules {
        depth: usize,
        workers: usize,
        inline: bool,
        shed: bool,
        ledger_of: Arc<Recording>,
        ping: Frame,
    }

    impl Rules {
        /// Apply `step` at the reading `now` to both, checking the door's
        /// answer against the rules.
        fn step(&self, door: &mut Door<u64>, model: &mut Model, step: Step, now: u64) {
            let at = |what| format!("{what} at {now} ({step:?})");
            match step {
                Step::Offer => {
                    let id = model.next;
                    model.next += 1;
                    let room = model.queued.len() < self.depth;
                    let idle = model.queued.is_empty() && model.serving.len() < self.workers;
                    match door.offer(self.ping.clone(), 16, id, now) {
                        Offer::Serve(job) => {
                            assert!(!model.shut && self.inline && idle, "{}", at("served"));
                            assert_eq!(
                                (job.reply, job.stamp.queued_at, job.stamp.taken),
                                (id, now, now)
                            );
                            model.serving.push(id);
                        }
                        Offer::Queued { start, .. } => {
                            assert!(
                                !model.shut && room && !(self.inline && idle),
                                "{}",
                                at("queued")
                            );
                            let first = !std::mem::replace(&mut model.started, true);
                            assert_eq!(start, if first { self.workers } else { 0 });
                            model.queued.push_back((id, now));
                        }
                        Offer::Full(job) => {
                            assert!(!model.shut && !room && !self.shed, "{}", at("full"));
                            model.waiting.push(job);
                        }
                        Offer::Refused((_, refused, error)) => {
                            assert_eq!(refused, id);
                            match error {
                                PvfsError::Overloaded { .. } => {
                                    assert!(!model.shut && !room && self.shed, "{}", at("shed"))
                                }
                                _ => assert!(model.shut, "{}", at("refused")),
                            }
                        }
                    }
                }
                Step::Take => {
                    let next = (model.serving.len() < self.workers)
                        .then(|| model.queued.pop_front())
                        .flatten();
                    let taken = door.take(now).map(|(job, _)| job);
                    match (taken, next) {
                        (Some(job), Some((id, offered))) => {
                            assert_eq!(
                                (job.reply, job.stamp.queued_at, job.stamp.taken),
                                (id, offered, now)
                            );
                            model.serving.push(id);
                        }
                        (None, None) => {}
                        (taken, next) => {
                            panic!(
                                "{}: took {:?}, expected {next:?}",
                                at("take"),
                                taken.map(|j| j.reply)
                            )
                        }
                    }
                }
                Step::Finish => {
                    if model.serving.pop().is_some() {
                        door.finish();
                    }
                }
                Step::Shut => {
                    door.shut();
                    model.shut = true;
                }
            }
            if !matches!(step, Step::Offer) {
                // The offerers waiting for room are woken, and try again.
                for job in std::mem::take(&mut model.waiting) {
                    let (id, offered) = (job.reply, job.stamp.queued_at);
                    match door.retry(job) {
                        Offer::Queued { start, .. } => {
                            assert_eq!(start, 0, "a full queue has queued before");
                            model.queued.push_back((id, offered))
                        }
                        Offer::Full(job) => model.waiting.push(job),
                        Offer::Refused((_, refused, _)) => assert!(model.shut && refused == id),
                        Offer::Serve(_) => panic!("{}", at("a retry served")),
                    }
                }
            }
        }

        /// Every sequence of `left` more steps from here.
        fn walk(&self, door: &Door<u64>, model: &Model, trail: &mut Vec<Step>, left: usize) {
            if left == 0 {
                return;
            }
            for step in [Step::Offer, Step::Take, Step::Finish, Step::Shut] {
                let (mut door, mut model) = (door.clone(), model.clone());
                let gauge = || self.ledger_of.ledger.queue_depth.load(Ordering::Relaxed);
                let books = |m: &Model| (m.queued.len() + m.waiting.len()) as u64;
                let (before, booked) = (gauge(), books(&model));
                trail.push(step);
                let now = trail.len() as u64 * 10;
                let key = |m: &Model| {
                    (
                        m.next,
                        m.queued.len(),
                        m.serving.len(),
                        m.waiting.len(),
                        m.shut,
                    )
                };
                let was = key(&model);
                self.step(&mut door, &mut model, step, now);
                // The door's state is the model's, within its bounds.
                let state = (door.queued(), door.in_service(), door.is_shut());
                let expected = (model.queued.len(), model.serving.len(), model.shut);
                assert_eq!(state, expected, "{trail:?}");
                assert!(
                    state.0 <= self.depth && state.1 <= self.workers,
                    "{trail:?}"
                );
                let ids = door.jobs.iter().map(|job| job.reply);
                assert!(
                    ids.eq(model.queued.iter().map(|&(id, _)| id)),
                    "FIFO: {trail:?}"
                );
                // The gauge moves with what is queued or waiting, and a
                // refusal leaves it where it was.
                let moved = gauge().wrapping_sub(before);
                assert_eq!(
                    moved,
                    books(&model).wrapping_sub(booked),
                    "gauge: {trail:?}"
                );
                assert_eq!(
                    door.drained(),
                    model.shut && model.serving.is_empty(),
                    "{trail:?}"
                );
                // A step that changed nothing has nothing new below it.
                if key(&model) != was {
                    self.walk(&door, &model, trail, left - 1);
                }
                trail.pop();
            }
        }
    }

    /// The door's rules, checked on every sequence of up to ten offers,
    /// takes, finishes and shuts, for every queue depth, `workers`
    /// bound, inline rule and shed rule that tell them apart: nothing is
    /// admitted once shut, a frame is served on the spot exactly when the
    /// rule says, queued frames are taken once each in FIFO order with
    /// their readings, never more than `workers` are in service nor more
    /// than `depth` queued, a refusal leaves the `queue_depth` gauge as it
    /// found it and the gauge is what is queued or waiting, and a shut
    /// door with nothing in service is drained.
    #[test]
    fn every_sequence_of_steps_keeps_the_doors_rules() {
        for (depth, workers, inline, shed) in
            (0..16).map(|i| (1 + (i & 1), 1 + (i >> 1 & 1), i & 4 != 0, i & 8 != 0))
        {
            let service = Arc::new(Recording {
                refusal: shed.then_some(PvfsError::Overloaded {
                    server: 0,
                    queue_depth: depth as u64,
                }),
                never_blocks: inline,
                ..Recording::default()
            });
            let rules = Rules {
                depth,
                workers,
                inline,
                shed,
                ledger_of: service.clone(),
                ping: traced_frame(1, Request::Ping, None),
            };
            let door = Door::new(service, workers, depth);
            rules.walk(&door, &Model::default(), &mut Vec::new(), 10);
        }
    }

    /// A door with no thread at all serves a real I/O daemon — a write,
    /// then the read that sees it — and a real manager on the readings
    /// it is given: the queue-wait and service-time samples, and the
    /// `queue` and `service` spans of the traced frames, are those
    /// readings to the nanosecond.
    #[test]
    fn a_door_with_no_thread_serves_real_daemons_on_given_readings() {
        let iod: Arc<dyn Service> = Arc::new(IoDaemon::with_defaults(ServerId(0)));
        let mgr: Arc<dyn Service> = Arc::new(Manager::new());
        let layout = StripeLayout::new(0, 1, 10).unwrap();
        let (handle, region) = (FileHandle(1), Region::new(0, 5));
        let write = Request::Write {
            handle,
            layout,
            region,
            data: vec![7u8; 5].into(),
        };
        let read = Request::Read {
            handle,
            layout,
            region,
        };
        let create = Request::Create {
            path: "/a".into(),
            layout,
        };
        let ctx = TraceContext {
            trace: TraceId::next(),
            parent: SpanId::next(),
        };
        let scratch = &mut Scratch::default();
        for (service, node, requests) in [
            (&iod, "iod0", vec![write, read]),
            (&mgr, "mgr", vec![create]),
        ] {
            // One frame at a time: the first is served on the spot, the
            // next queues behind it and is taken once it is done.
            let mut door = Door::new(service.clone(), 1, 4);
            let mut answers = Vec::new();
            let mut offers = Vec::new();
            for (i, request) in requests.into_iter().enumerate() {
                let at = 1_000 * (i as u64 + 1);
                offers.push(door.offer(traced_frame(i as u64 + 1, request, Some(ctx)), 64, i, at));
            }
            let mut now = 10_000;
            let mut first = match offers.remove(0) {
                Offer::Serve(job) => Some(job),
                _ => panic!("{node}: the first frame is served on the spot"),
            };
            while let Some(job) = first.take().or_else(|| door.take(now).map(|(job, _)| job)) {
                #[allow(clippy::disallowed_methods)] // the door's own walk through a serve step
                let (served, _) = serve_rpc(&**service, node, job, scratch);
                let (id, response) = served.end(&**service, node, now + 500);
                answers.push((id, response));
                door.finish();
                now += 10_000;
            }
            assert!(offers.iter().all(|o| matches!(o, Offer::Queued { .. })));
            let books = service.ledger().snapshot();
            let spans = service.recorder().for_trace(ctx.trace);
            let at = |op, n: usize| {
                spans
                    .iter()
                    .filter(|s| s.op == op)
                    .nth(n)
                    .expect(op)
                    .clone()
            };
            // The first: offered at 1 000, served at once, done at 10 500;
            // the second: offered at 2 000, taken at 20 000, done at 20 500.
            let readings = [(1_000, 1_000, 10_500), (2_000, 20_000, 20_500)];
            for (n, (offered, taken, done)) in readings.into_iter().take(answers.len()).enumerate()
            {
                let (queue, service) = (at("queue", n), at("service", n));
                assert_eq!(
                    (queue.start_ns, queue.dur_ns),
                    (offered, taken - offered),
                    "{node}"
                );
                assert_eq!(
                    (service.start_ns, service.dur_ns),
                    (taken, done - taken),
                    "{node}"
                );
            }
            let waits: u64 = readings.iter().take(answers.len()).map(|r| r.1 - r.0).sum();
            let serves: u64 = readings.iter().take(answers.len()).map(|r| r.2 - r.1).sum();
            assert_eq!(books.queue_wait.sum_ns(), u128::from(waits), "{node}");
            assert_eq!(books.service_time.sum_ns(), u128::from(serves), "{node}");
            assert_eq!(books.service_time.count(), answers.len() as u64, "{node}");
            assert_eq!((books.queue_depth, books.busy_workers), (0, 0), "{node}");
            match node {
                "iod0" => {
                    assert_eq!(answers[0], (RequestId(1), Response::Written { bytes: 5 }));
                    let Response::Data { data } = &answers[1].1 else {
                        panic!("{:?}", answers[1])
                    };
                    assert_eq!(&data[..], &[7u8; 5]);
                }
                _ => assert!(
                    matches!(answers[0].1, Response::Created { .. }),
                    "{:?}",
                    answers[0]
                ),
            }
        }
    }
}
