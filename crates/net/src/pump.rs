//! The request pipeline's decisions, with none of its I/O.
//!
//! A [`Pump`] answers [`Pump::next`] with the one [`Action`] to take at
//! a clock reading — ship a frame, wait on a daemon for so long, wait
//! until a backoff ends, or stop — and is told what came of it, each
//! event with the reading it happened at. It sends and receives nothing,
//! reads no clock, never sleeps and sizes nothing: its [`Window`] is
//! handed in by `ClusterClient`'s `drive`, which does the rest and keeps
//! the window from stream to stream. What the pump does is the CPU work
//! of deciding: pull ops from the stream, encode attempts into the
//! endpoint's spares, record spans, keep the client's books and feed its
//! failure detector. So its rules are tested below as tables of events
//! on a clock of their own, with no thread, no socket and no sleep.

use bytes::Bytes;
use pvfs_proto::{decode_response_frame, decode_response_id, Frame, OpClass, Request, Response};
use pvfs_types::{PvfsError, PvfsResult, RequestId, ServerId, SpanId, StripeLayout};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::time::Duration;

use crate::cluster::{ClusterClient, OpStream, WINDOW};
use crate::health::BreakerState;
use crate::retry::Backoff;
use crate::trace::ActiveTrace;
use crate::transport::{RpcTarget, WaitError};

/// What the driver is to do next.
pub(crate) enum Action {
    /// Queue `frame` on the lane to `target` (checked out first if
    /// there is none), then report with [`Pump::shipped`].
    Ship { target: RpcTarget, frame: Frame },
    /// Flush every lane with frames queued (reporting a lane that fails
    /// at it with [`Pump::lane_failed`], and deciding again), then wait
    /// at most `wait` for `target`'s next reply and report what came
    /// with [`Pump::landed`].
    Land { target: RpcTarget, wait: Duration },
    /// Nothing is in the air and nothing may go before this clock
    /// reading: flush, and sleep until then.
    WaitUntil(u64),
    /// The stream is over, with this outcome.
    Done(PvfsResult<()>),
}

/// One run of the request pipeline: the **window** over an
/// [`OpStream`].
///
/// Every op pulled from the stream expands into sub-ops (one; under
/// replication one per write copy, or one read owning its failover
/// chain) that sit in `subs` until resolved, each *due out* or *flying*.
/// [`next`](Self::next) is the one rule: a due sub-op ships as soon as
/// its daemon's window has room — landing one of that daemon's flights
/// makes the room; with nothing ready to go and fewer than `room`
/// sub-ops in the window the next op is pulled; otherwise a flight of
/// the daemon with the oldest one lands. No wait outlasts the earliest
/// backoff. A landing is the daemon's *next* reply, whichever flight it
/// answers, matched by request id.
///
/// A failed attempt is settled at once: a read whose copy is
/// unreachable *fails over* to its next mirror (no attempt, no backoff:
/// losing a daemon costs one timeout or one fast breaker rejection), a
/// transient failure backs off — a not-before reading on that sub-op
/// alone, the client's one retry loop — while its attempts and the
/// stream's budget last, and anything else fails the sub-op for good. A
/// flight past its deadline is given up on by itself (`given_up` drops
/// its reply, should it still come); only a failed lane fails every
/// flight on it. A shed is the daemon narrowing this endpoint's window
/// on it ([`HealthTracker::record_shed`](crate::HealthTracker::record_shed))
/// and costs no attempt: the frame goes again once the stream's other
/// flights there have landed or, with none to wait for, after a
/// backoff.
///
/// An op the stream's [`failed`](OpStream::failed) says ends the stream
/// makes the pump *over*: due sub-ops never go, and what is in the air
/// lands for the books alone (latency, health, spans, each lane answered
/// in full so that its connection can go back in its pool) before
/// [`Action::Done`] carries that op's error.
pub(crate) struct Pump<'a, S: OpStream> {
    client: &'a ClusterClient,
    stream: &'a mut S,
    /// A lone RPC addressed literally (see `ClusterClient::drive`).
    sole: bool,
    trace: Option<&'a ActiveTrace>,
    /// The window: first the sub-ops in the air, in ship order — so
    /// "oldest" is "first" — then those due out.
    subs: &'a mut VecDeque<Sub>,
    /// How many of `subs` are in the air.
    flying: usize,
    /// The ops `subs` serve, a slab indexed by [`Sub::op`].
    ops: &'a mut Vec<Option<Op<S::Ticket>>>,
    /// The requests last given up on with their lane still sound, whose
    /// replies may yet arrive on it (0, never a request's id, where
    /// there is none): a ring, overwritten oldest first.
    given_up: [RequestId; 4 * WINDOW],
    next_given_up: usize,
    /// The most sub-ops the window holds before it stops pulling.
    room: usize,
    /// The stream has not said it is empty.
    more: bool,
    /// The retry budget runs from this clock reading, across the whole
    /// stream.
    started: u64,
    backoff: Option<Backoff>,
    /// When the wait the last [`Action::Land`] asked for began: where
    /// the `recv` span of what it lands starts.
    waited_from: u64,
    /// The error that ended the stream, once one has.
    over: Option<PvfsError>,
}

/// A pump's window, its sub-ops and the slab of their ops: grown once to
/// the most a stream of its kind holds, not sized per stream.
pub(crate) type Window<K> = (VecDeque<Sub>, Vec<Option<Op<K>>>);

/// One op in the window, from pull to the sink.
pub(crate) struct Op<K> {
    ticket: K,
    /// The request as the stream gave it.
    request: Request,
    /// Under replication, the per-copy rewritten requests its sub-ops
    /// address ([`Sub::copies`] index it); empty otherwise.
    copies: Vec<(ServerId, Request)>,
    /// A replicated write: its sub-ops are copies, judged together
    /// against the quorum rather than each on its own.
    quorum: bool,
    /// Sub-ops not yet resolved.
    pending: usize,
    acks: u32,
    /// Copies of a write apply identical local runs, so any
    /// acknowledged copy's reply stands for the op.
    response: Option<Response>,
    /// Why a copy of a quorum write failed, should the quorum fail.
    error: Option<PvfsError>,
}

impl<K> Op<K> {
    /// The request `sub` sends right now.
    fn request(&self, sub: &Sub) -> &Request {
        if sub.copies.is_empty() {
            &self.request
        } else {
            &self.copies[sub.copies.start].1
        }
    }
}

/// One sub-op: an op as addressed to one copy.
pub(crate) struct Sub {
    /// Slab index of the op this sub-op serves.
    op: usize,
    /// Where it goes right now.
    target: RpcTarget,
    /// The copies it may still address: the first is the one addressed
    /// now, the rest (a read's mirrors) its failover chain. Empty: the
    /// op exactly as the stream gave it.
    copies: Range<usize>,
    /// Re-aimed at a mirror: its next attempt's span is noted
    /// `failover`, so the waterfall shows the abandonment.
    failed_over: bool,
    /// Which attempt is out (or due out), from 1.
    attempt: u32,
    /// Its last backoff, which the next one is drawn from.
    backoff: Duration,
    /// Backed off: due out, but not before this clock reading.
    not_before: Option<u64>,
    /// `None` while due out.
    flight: Option<Flight>,
}

/// One shipped attempt awaiting its reply. Kept small — the window
/// holds one per flying sub-op: where it went and what it asked is read
/// back off the sub-op when it lands.
struct Flight {
    id: RequestId,
    /// The clock reading it was shipped at: where its latency sample, its
    /// deadline and its `rpc:<op>` span start.
    shipped: u64,
    /// The id of the attempt's `rpc:<op>` span (minted before encode: the
    /// frame carries it).
    span: Option<SpanId>,
    /// A handle on the frame's encoded head, to take its buffer back by
    /// when the flight lands.
    head: Bytes,
}

impl<'a, S: OpStream> Pump<'a, S> {
    /// A pump over `stream` for `client`, started at the clock reading
    /// `now`, in an empty `window`. A `sole` op has a window of one.
    pub(crate) fn new(
        client: &'a ClusterClient,
        stream: &'a mut S,
        sole: bool,
        trace: Option<&'a ActiveTrace>,
        now: u64,
        window: &'a mut Window<S::Ticket>,
    ) -> Pump<'a, S> {
        let room = if sole {
            1
        } else {
            WINDOW * client.n_servers().max(1) as usize
        };
        Pump {
            client,
            stream,
            sole,
            trace,
            subs: &mut window.0,
            flying: 0,
            ops: &mut window.1,
            given_up: [RequestId(0); 4 * WINDOW],
            next_given_up: 0,
            room,
            more: true,
            started: now,
            backoff: None,
            waited_from: now,
            over: None,
        }
    }

    /// What to do at the clock reading `now`.
    pub(crate) fn next(&mut self, now: u64) -> Action {
        loop {
            if self.over.is_none() {
                let ready = |s: &Sub| s.not_before.is_none_or(|at| at <= now);
                let due = (self.flying..self.subs.len()).find(|&at| ready(&self.subs[at]));
                if let Some(due) = due {
                    let target = self.subs[due].target;
                    if self.flying_at(target) >= self.window(target) {
                        return self.land_at(target, now);
                    }
                    match self.ship(due, now) {
                        Some(ship) => return ship,
                        None => continue,
                    }
                }
                if self.more && self.subs.len() < self.room {
                    match self.stream.next_op() {
                        Some(op) => self.admit(op, now),
                        None => self.more = false,
                    }
                    continue;
                }
            }
            if self.flying > 0 {
                return self.land_at(self.subs[0].target, now);
            }
            // Nothing in the air and nothing to send yet: only now does a
            // backoff cost the stream any time.
            if let Some(wake) = self.wake(now) {
                return Action::WaitUntil(wake);
            }
            return Action::Done(self.over.take().map_or(Ok(()), Err));
        }
    }

    /// The frame of the last [`Action::Ship`] went (`Ok`) or did not, as
    /// the clock read `now`. One that did not lands at once, failed.
    pub(crate) fn shipped(&mut self, sent: PvfsResult<()>, now: u64) {
        let newest = self.flying - 1;
        let sub = &self.subs[newest];
        let flight = sub.flight.as_ref().expect("in the air");
        match sent {
            Ok(()) => {
                if let Some((a, sid)) = self.trace.zip(flight.span) {
                    a.span_at(sid, "send", flight.shipped, now, Vec::new());
                }
            }
            Err(e) => {
                let e = blame(self.sole, sub.target, flight.id, e);
                self.land(newest, now, Err(e), now);
            }
        }
    }

    /// What the wait of the last [`Action::Land`] brought from `target`,
    /// the clock reading `now` when it ended: the next reply, or why there
    /// is none. A wait cut short by a backoff's end gives up nothing.
    pub(crate) fn landed(&mut self, target: RpcTarget, got: Result<Frame, WaitError>, now: u64) {
        let (sole, since) = (self.sole, self.waited_from);
        let oldest = self
            .oldest_at(target)
            .expect("a daemon waited on has a flight");
        let flight = self.subs[oldest].flight.as_ref().expect("in the air");
        let (oldest_id, shipped) = (flight.id, flight.shipped);
        let reply = match got {
            Ok(reply) => reply,
            // The deadline runs from ship time: a flight that waited its
            // turn behind others of its window has that much less left.
            Err(WaitError::Timeout) => {
                if Duration::from_nanos(now.saturating_sub(shipped)) < self.client.rpc_timeout() {
                    return;
                }
                self.given_up[self.next_given_up] = oldest_id;
                self.next_given_up = (self.next_given_up + 1) % self.given_up.len();
                let timeout = PvfsError::timeout(format!(
                    "no reply to request {oldest_id} from {target} within {:?}",
                    self.client.rpc_timeout()
                ));
                return self.land(oldest, since, Err(timeout), now);
            }
            Err(WaitError::Lost(id, e)) => {
                if let Some(at) = self.flight_with(target, id) {
                    self.land(at, since, Err(blame(sole, target, id, e)), now);
                }
                return;
            }
            Err(WaitError::Failed(e)) => return self.lane_failed(target, e, now),
        };
        let rid = decode_response_id(&reply.head);
        let decoded = decode_response_frame(reply);
        if let Some(id) = rid.filter(|rid| *rid != RequestId(0)) {
            if let Some(at) = self.flight_with(target, id) {
                let outcome = decoded
                    .map(|(_, response)| response)
                    .map_err(|e| blame(sole, target, id, e));
                return self.land(at, since, outcome, now);
            }
            if self.given_up.contains(&id) {
                // A late reply, to a flight already given up on.
                return;
            }
        }
        // Unattributable (id 0), an id never shipped, no readable id at
        // all: the protocol error it is, charged to the daemon's oldest
        // flight — unless that is a lone RPC and this the error its
        // frame provoked.
        let outcome = decoded
            .map_err(|e| blame(sole, target, oldest_id, e))
            .and_then(|(rid, response)| attribute(target, oldest_id, rid, response, sole));
        self.land(oldest, since, outcome, now)
    }

    /// `target`'s lane has failed with `e`, as the clock read `now`: so
    /// has every flight on it. Should one of them end the stream, the
    /// rest still land, for the books.
    pub(crate) fn lane_failed(&mut self, target: RpcTarget, e: PvfsError, now: u64) {
        while let Some(at) = self.oldest_at(target) {
            let id = self.subs[at].flight.as_ref().expect("in the air").id;
            let lost = Err(blame(self.sole, target, id, e.clone()));
            self.land(at, now, lost, now);
        }
    }

    /// This stream's flights in the air at `target`.
    fn flying_at(&self, target: RpcTarget) -> usize {
        let flights = self.subs.iter().take(self.flying);
        flights.filter(|s| s.target == target).count()
    }

    /// Where the oldest flight in the air at `target` is.
    fn oldest_at(&self, target: RpcTarget) -> Option<usize> {
        (0..self.flying).find(|&at| self.subs[at].target == target)
    }

    /// The flight in the air at `target` that went out as request `id`.
    fn flight_with(&self, target: RpcTarget, id: RequestId) -> Option<usize> {
        (0..self.flying).find(|&at| {
            let sub = &self.subs[at];
            sub.target == target && sub.flight.as_ref().is_some_and(|f| f.id == id)
        })
    }

    /// The earliest reading after `now` at which a due sub-op's backoff
    /// ends.
    fn wake(&self, now: u64) -> Option<u64> {
        let due = self.subs.iter().skip(self.flying);
        due.filter_map(|s| s.not_before)
            .filter(|&at| at > now)
            .min()
    }

    /// Wait on `target` for what is left of its oldest flight's deadline
    /// — a reply already there is taken even with nothing left — but no
    /// longer than until the earliest backoff ends.
    fn land_at(&mut self, target: RpcTarget, now: u64) -> Action {
        let oldest = self
            .oldest_at(target)
            .expect("a daemon waited on has a flight");
        let shipped = self.subs[oldest]
            .flight
            .as_ref()
            .expect("in the air")
            .shipped;
        let waited = Duration::from_nanos(now.saturating_sub(shipped));
        let mut wait = self.client.rpc_timeout().saturating_sub(waited);
        if let Some(wake) = self.wake(now) {
            wait = wait.min(Duration::from_nanos(wake - now));
        }
        self.waited_from = now;
        Action::Land { target, wait }
    }

    /// How many flights one stream may have in the air at `target` right
    /// now: [`WINDOW`], less what that daemon's sheds have closed of it.
    fn window(&self, target: RpcTarget) -> usize {
        match target {
            RpcTarget::Server(server) => self.client.health().window(server),
            RpcTarget::Manager => WINDOW,
        }
    }

    /// Take one op into the window: its sub-ops, due out. Without
    /// replication (or for a `sole` op, or a placement-free one —
    /// pings, barriers, scrapes) an op is its own single sub-op. Under
    /// replication a write becomes one sub-op per copy (the quorum
    /// decides when the last resolves), a read one sub-op aimed at the
    /// first copy whose breaker admits it, the others its failover chain.
    fn admit(&mut self, (target, request, ticket): (RpcTarget, Request, S::Ticket), now: u64) {
        let client = self.client;
        let map = client.replica_map();
        let op = match self.ops.iter().position(Option::is_none) {
            Some(free) => free,
            None => {
                self.ops.push(None);
                self.ops.len() - 1
            }
        };
        let sub = move |target: RpcTarget, copies| Sub {
            op,
            target,
            copies,
            failed_over: false,
            attempt: 1,
            backoff: client.retry_policy().base_backoff,
            not_before: None,
            flight: None,
        };
        let mut copies = Vec::new();
        let mut quorum = false;
        match (target, request_layout(&request)) {
            (RpcTarget::Server(server), Some(layout)) if !self.sole && map.policy().enabled() => {
                let slot = layout.slot_of_server(server).expect("target in layout");
                let mut targets = map.copies(layout, slot);
                quorum = request.op_class() == OpClass::Write;
                if !quorum {
                    // Copies whose breaker refuses (a probe out included)
                    // last; the sort is stable, so copy order — the primary
                    // first — decides the rest.
                    let health = client.health();
                    targets.sort_by_key(|t| health.state(t.server, now) == BreakerState::Open);
                }
                copies.extend(
                    targets
                        .iter()
                        .map(|t| (t.server, map.rewrite_request(&request, slot, t.copy))),
                );
                let aimed = |c: usize| RpcTarget::Server(copies[c].0);
                if quorum {
                    self.subs
                        .extend((0..copies.len()).map(|c| sub(aimed(c), c..c + 1)));
                } else {
                    self.subs.push_back(sub(aimed(0), 0..copies.len()));
                }
            }
            _ => self.subs.push_back(sub(target, 0..0)),
        }
        self.ops[op] = Some(Op {
            ticket,
            request,
            pending: if quorum { copies.len() } else { 1 },
            copies,
            quorum,
            acks: 0,
            response: None,
            error: None,
        });
    }

    /// Ship the due sub-op at `at`, at the clock reading `now`: breaker
    /// admission, the attempt's `rpc:<op>` span (its id minted before
    /// encode, its context stamped into the frame so server-side spans
    /// parent under the attempt), encode under a fresh request id; it
    /// joins the flights, the newest, and its frame goes to the driver.
    /// `None`: it could not go (an open breaker, a request that will not
    /// encode), and is settled.
    fn ship(&mut self, at: usize, now: u64) -> Option<Action> {
        let client = self.client;
        let mut sub = self.subs.remove(at).expect("a due sub-op");
        let request = op_of(self.ops, &sub).request(&sub);
        // Control scrapes stay off the books on this side of the wire
        // too (the daemons already exclude them): scraping `stats` or a
        // trace must not advance the very counters being read.
        if !request.is_control_scrape() {
            client.stats.attempts.fetch_add(1, Ordering::Relaxed);
        }
        if let RpcTarget::Server(server) = sub.target {
            // An open breaker fails this op fast, before any work is
            // spent on it and without touching the wire; the manager is
            // never gated (metadata is rare and precious).
            if let Err(e) = client.health().admit(server, now) {
                client
                    .stats
                    .breaker_rejections
                    .fetch_add(1, Ordering::Relaxed);
                self.settle(sub, e, now);
                return None;
            }
        }
        let span = self.trace.map(|_| SpanId::next());
        let ctx = self.trace.zip(span).map(|(a, sid)| a.ctx(sid));
        let (id, frame) = match client.encode(request, ctx) {
            Ok(encoded) => encoded,
            Err(e) => {
                self.settle(sub, e, now);
                return None;
            }
        };
        // Latency and the deadline run from each op's own ship time: the
        // client-perceived completion latency under fan-out concurrency.
        sub.flight = Some(Flight {
            id,
            shipped: now,
            span,
            head: frame.head.clone(),
        });
        let target = sub.target;
        self.subs.insert(self.flying, sub);
        self.flying += 1;
        Some(Action::Ship { target, frame })
    }

    /// Land the flight at `at`, waited for since the reading `since`,
    /// with its `outcome` as the clock read `now`: out of the window,
    /// then resolved or settled.
    ///
    /// One reading lands the attempt: it ends the `recv` and `rpc:<op>`
    /// spans, and — for any decoded, attributed response, server errors
    /// included, which proves the daemon alive and timely — the
    /// `rpc_latency` sample (control scrapes excepted: reading the books
    /// must not move them) and a reply for the breaker, which clears the
    /// failure streak and closes a half-open breaker. A shed is the
    /// exception: the daemon is alive but served nothing, and how fast it
    /// said so is no latency sample. Only transport-class failures
    /// (connection loss, timeout) count toward tripping a breaker.
    fn land(&mut self, at: usize, since: u64, outcome: PvfsResult<Response>, now: u64) {
        let client = self.client;
        let mut sub = self.subs.remove(at).expect("a sub-op in the window");
        let Flight {
            id,
            shipped,
            span,
            head,
        } = sub.flight.take().expect("only flights land");
        self.flying -= 1;
        // Landed, however: the frame's head is this endpoint's again if
        // nothing else still holds it (the lane has sent it, the daemon
        // — over chan — answered it).
        client.frame_spares().heads.take_back(head);
        let request = op_of(self.ops, &sub).request(&sub);
        if let Some((a, sid)) = self.trace.zip(span) {
            a.span_at(sid, "recv", since, now, Vec::new());
            let mut notes = Vec::new();
            if sub.attempt > 1 {
                notes.push(format!("retry#{}", sub.attempt));
            }
            if sub.failed_over {
                notes.push("failover".into());
            }
            if outcome.is_err() {
                notes.push("error".into());
            }
            let op = format!("rpc:{}", request.op_name());
            a.span_with_id(sid, a.root(), op, shipped, now, notes);
        }
        let target = sub.target;
        let outcome = match outcome {
            Ok(response) => {
                let served = response.into_result();
                match &served {
                    Err(e @ PvfsError::Overloaded { .. }) => self.observe_failure(target, e, now),
                    _ => {
                        let took = now.saturating_sub(shipped);
                        if !request.is_control_scrape() {
                            client.stats.rpc_latency.record(took);
                        }
                        if let RpcTarget::Server(server) = target {
                            client.health().record_success(server);
                        }
                    }
                }
                served.map_err(|e| blame(self.sole, target, id, e))
            }
            Err(e) => {
                self.observe_failure(target, &e, now);
                Err(e)
            }
        };
        match outcome {
            _ if self.over.is_some() => {}
            Ok(response) => self.resolve(sub, Ok(response)),
            Err(e) => self.settle(sub, e, now),
        }
    }

    /// Feed one failed RPC to the failure detector. Only transport-class
    /// failures (connection loss, timeout) of an I/O daemon count toward
    /// tripping a breaker. A shed ([`PvfsError::Overloaded`]) is counted,
    /// and taken as the daemon's word on how much of its queue this
    /// endpoint may fill: it proves the daemon alive. Logical errors are
    /// neutral.
    fn observe_failure(&self, target: RpcTarget, e: &PvfsError, now: u64) {
        let health = self.client.health();
        match (e, target) {
            (PvfsError::Transport(_) | PvfsError::Timeout(_), RpcTarget::Server(s)) => {
                health.record_failure(s, now)
            }
            (PvfsError::Overloaded { .. }, _) => {
                self.client.stats.sheds_seen.fetch_add(1, Ordering::Relaxed);
                if let RpcTarget::Server(s) = target {
                    health.record_shed(s);
                }
            }
            _ => {}
        }
    }

    /// Decide what becomes of a sub-op whose attempt failed with `e` at
    /// the clock reading `now`: back into the window (re-aimed, shed, or
    /// backed off), or failed for good.
    fn settle(&mut self, mut sub: Sub, e: PvfsError, now: u64) {
        let client = self.client;
        let retry = client.retry_policy();
        let left = retry
            .budget
            .saturating_sub(Duration::from_nanos(now.saturating_sub(self.started)));
        let op = op_of(self.ops, &sub);
        let request = op.request(&sub);
        if sub.copies.len() > 1 && failover_worthy(&e) {
            // This replica is unreachable, gated, or shedding: abandon
            // it and re-aim the sub-op at the next mirror. The op
            // itself has not failed.
            sub.copies.start += 1;
            sub.target = RpcTarget::Server(op.copies[sub.copies.start].0);
            sub.failed_over = true;
            client
                .stats
                .replica_failovers
                .fetch_add(1, Ordering::Relaxed);
        } else if e.is_retryable()
            && (request.is_idempotent() || e.is_definitely_not_executed())
            && sub.attempt < retry.max_attempts
            && !left.is_zero()
        {
            // A shed frame never ran: it spends the budget, never an
            // attempt. With more of this stream at that daemon the
            // (now narrower) window is all the wait it needs.
            let shed = matches!(e, PvfsError::Overloaded { .. });
            let booked = !request.is_control_scrape();
            let delay = if shed && self.flying_at(sub.target) > 0 {
                Duration::ZERO
            } else {
                let backoff = self.backoff.get_or_insert_with(|| {
                    let seed = client.next_request.load(Ordering::Relaxed);
                    Backoff::new(retry, RequestId(seed))
                });
                let delay = backoff.next_delay(sub.backoff).min(left);
                let delay_ns = u64::try_from(delay.as_nanos()).unwrap_or(u64::MAX);
                sub.not_before = Some(now.saturating_add(delay_ns));
                sub.backoff = delay;
                delay
            };
            if booked {
                client.stats.retries.fetch_add(1, Ordering::Relaxed);
                client
                    .stats
                    .backoff_ms
                    .fetch_add(delay.as_millis() as u64, Ordering::Relaxed);
            }
            sub.attempt += u32::from(!shed);
        } else {
            return self.resolve(sub, Err(e));
        }
        self.subs.push_back(sub);
    }

    /// Book a sub-op's final outcome with its op, and hand the op to
    /// the stream once its last sub-op is in. The stream saying this
    /// is the end makes the pump over.
    fn resolve(&mut self, sub: Sub, outcome: PvfsResult<Response>) {
        let op = self.ops[sub.op]
            .as_mut()
            .expect("a sub-op's op is in the window");
        op.pending -= 1;
        match outcome {
            Ok(response) => {
                op.acks += 1;
                op.response.get_or_insert(response);
            }
            Err(e) => {
                op.error.get_or_insert(e);
            }
        }
        if op.pending > 0 {
            return;
        }
        let Op {
            ticket,
            request,
            copies,
            quorum,
            acks,
            response,
            error,
            ..
        } = self.ops[sub.op].take().expect("just booked");
        // The op is over: a write's payload is this endpoint's again, if
        // no copy of the request and no frame still on its way holds it.
        drop(copies);
        if let Some(payload) = request.into_bulk() {
            self.client.frame_spares().payloads.take_back(payload);
        }
        // An op with one sub-op needs it acknowledged; a replicated
        // write needs `required()` of its copies — a failed copy dooms
        // nothing while its siblings make quorum.
        let map = self.client.replica_map();
        let required = if quorum { map.policy().required() } else { 1 };
        let sunk = if acks < required {
            let e = error.expect("an op short of its acks lost a sub-op");
            self.stream.failed(ticket, e)
        } else {
            if quorum {
                if acks < map.replicas() {
                    // Quorum met but a copy missed the write: divergence
                    // for a later scrub to repair.
                    (self.client.stats)
                        .quorum_shortfalls
                        .fetch_add(1, Ordering::Relaxed);
                }
                if let Some(a) = self.trace {
                    a.annotate(format!("quorum_ack:{acks}/{}", map.replicas()));
                }
            }
            let response = response.expect("an acknowledged op has a response");
            self.stream.landed(ticket, response)
        };
        if let Err(e) = sunk {
            // The stream is over: what is due out never goes.
            self.over = Some(e);
            self.subs.truncate(self.flying);
        }
    }
}

/// The op a sub-op in the window serves.
fn op_of<'o, K>(ops: &'o [Option<Op<K>>], sub: &Sub) -> &'o Op<K> {
    ops[sub.op]
        .as_ref()
        .expect("a sub-op's op is in the window")
}

/// Is this error a reason to abandon one replica and try a mirror?
/// Covers the copy being unreachable (transport/timeout), breaker-gated,
/// or shedding load — conditions where a sibling copy can still serve
/// the read. Data errors (bad offsets, protocol faults) would repeat on
/// every copy and are not worth failing over.
fn failover_worthy(e: &PvfsError) -> bool {
    matches!(
        e,
        PvfsError::Transport(_)
            | PvfsError::Timeout(_)
            | PvfsError::Unavailable { .. }
            | PvfsError::Overloaded { .. }
    )
}

/// The stripe layout a data request routes by, if it carries one.
/// Placement-free requests (metadata, stats, sync) return None and are
/// not expanded across replicas.
fn request_layout(request: &Request) -> Option<&StripeLayout> {
    match request {
        Request::Read { layout, .. }
        | Request::Write { layout, .. }
        | Request::ReadList { layout, .. }
        | Request::WriteList { layout, .. }
        | Request::ReadVectors { layout, .. }
        | Request::WriteVectors { layout, .. } => Some(layout),
        _ => None,
    }
}

/// Attach which-server / which-request context to an error from a
/// fan-out round, preserving the variant (callers match on it). A
/// `sole` RPC's caller already knows both, and gets the error as is.
fn blame(sole: bool, target: RpcTarget, id: RequestId, e: PvfsError) -> PvfsError {
    if sole {
        return e;
    }
    let ctx = format!(" [server {target}, request {id}]");
    match e {
        PvfsError::InvalidArgument(m) => PvfsError::InvalidArgument(m + &ctx),
        PvfsError::Protocol(m) => PvfsError::Protocol(m + &ctx),
        PvfsError::Storage(m) => PvfsError::Storage(m + &ctx),
        PvfsError::Transport(m) => PvfsError::Transport(m + &ctx),
        PvfsError::Timeout(m) => PvfsError::Timeout(m + &ctx),
        // Variants carrying structured payloads stay untouched.
        other => other,
    }
}

/// Match a decoded reply (carrying id `rid`) to request `id`, the one
/// that awaited it. The reserved id 0 marks a reply the server could
/// not attribute: a `lone` RPC — the only request that can have caused
/// it — takes an id-0 *error* as its own; with several requests in
/// flight it could belong to any of them, so it is a hard protocol
/// error. Any other mismatch always is.
pub(crate) fn attribute(
    target: RpcTarget,
    id: RequestId,
    rid: RequestId,
    response: Response,
    lone: bool,
) -> PvfsResult<Response> {
    if rid == id {
        return Ok(response);
    }
    if rid != RequestId(0) {
        return Err(PvfsError::protocol(format!(
            "{target} answered request {id} with mismatched response id {rid}"
        )));
    }
    let what = match response {
        Response::Error(_) if lone => return Ok(response),
        Response::Error(e) => format!("server error: {e}"),
        other => format!("response {other:?}"),
    };
    Err(PvfsError::protocol(format!(
        "{target} answered request {id} with the unattributable id 0 ({what})"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Batch;
    use crate::gate::SerialGate;
    use crate::health::BreakerPolicy;
    use crate::retry::RetryPolicy;
    use crate::transport::{Lane, Transport, TransportKind};
    use pvfs_proto::{decode_frame_id, encode_response};
    use pvfs_replica::{ReplicaPolicy, WriteQuorum};
    use pvfs_types::{ClientId, FileHandle, Region};
    use std::sync::Arc;

    const MS: u64 = 1_000_000;
    /// How long a daemon of the tables takes to answer a frame it serves.
    const SERVICE: u64 = 100_000;
    const SIZE: Response = Response::LocalSize { size: 7 };

    /// What a daemon of the tables makes of one frame.
    enum Answer {
        /// This reply under the frame's own id, `after` it was shipped.
        Reply { after: u64, response: Response },
        /// This reply frame, at once, whatever id it carries.
        Raw(Bytes),
        /// None: the frame is dropped unanswered, and the lane hears so
        /// at once.
        Dropped,
        /// None, ever.
        Silent,
    }

    fn served(response: Response) -> Answer {
        let after = SERVICE;
        Answer::Reply { after, response }
    }

    /// A refusal off a full queue, at once.
    fn shed(server: usize, queue_depth: u64) -> Answer {
        let server = server as u32;
        let response = Response::Error(PvfsError::Overloaded {
            server,
            queue_depth,
        });
        Answer::Reply { after: 0, response }
    }

    /// What the pump asked of the daemons: per daemon, the frames in
    /// the air now (`queued`: those of them not shed), the most there
    /// ever were and when the last one left; overall, frames started,
    /// replies collected, and how many had been collected when the last
    /// frame started.
    #[derive(Default)]
    struct Book {
        flying: Vec<usize>,
        queued: Vec<usize>,
        peak: Vec<usize>,
        last_started: Vec<u64>,
        started: usize,
        collected: usize,
        collected_at_last_start: usize,
    }

    /// The daemons, the lanes and the clock of a table: a pump's driver
    /// that owes each frame what `answer` makes of it, given the book as
    /// the frame finds it (`started` is its index, counted over all
    /// daemons from 0), the daemon it goes to and its id. A lane gives
    /// its replies back in the order its frames left; shipping takes no
    /// time, and a wait takes until the reply it lands is there or, with
    /// none by then, all of itself.
    struct Wire {
        now: u64,
        answer: Rule,
        book: Book,
        /// Per daemon, what its lane owes.
        owed: Vec<VecDeque<Owed>>,
    }

    type Rule = Box<dyn FnMut(&Book, usize, RequestId) -> Answer>;

    /// A reply a lane owes: when it is there, the reply (`Err`: the id of
    /// a frame dropped unanswered), and whether its frame was queued.
    struct Owed {
        at: u64,
        reply: Result<Bytes, RequestId>,
        queued: bool,
    }

    /// The transport of a client whose pumps only tables drive.
    struct Nowhere(u32);

    impl Transport for Nowhere {
        fn n_servers(&self) -> u32 {
            self.0
        }

        fn lane(&self, _: RpcTarget) -> PvfsResult<Box<dyn Lane>> {
            unreachable!("a table drives the pump itself")
        }

        fn kind(&self) -> TransportKind {
            TransportKind::Chan
        }
    }

    impl Wire {
        fn new(
            daemons: usize,
            answer: impl FnMut(&Book, usize, RequestId) -> Answer + 'static,
        ) -> Wire {
            let book = Book {
                flying: vec![0; daemons],
                queued: vec![0; daemons],
                peak: vec![0; daemons],
                last_started: vec![0; daemons],
                ..Book::default()
            };
            let owed = (0..daemons).map(|_| VecDeque::new()).collect();
            Wire {
                now: 0,
                answer: Box::new(answer),
                book,
                owed,
            }
        }

        /// A client of these daemons.
        fn client(&self) -> ClusterClient {
            let transport = Arc::new(Nowhere(self.owed.len() as u32));
            ClusterClient::with_transport(ClientId(9), transport, Arc::new(SerialGate::new()))
        }

        /// `c`'s pipeline over `stream`, as `ClusterClient`'s `drive`
        /// runs it.
        fn run<S: OpStream>(
            &mut self,
            c: &ClusterClient,
            stream: &mut S,
            sole: bool,
        ) -> PvfsResult<()> {
            let mut window = Window::default();
            let mut pump = Pump::new(c, stream, sole, None, self.now, &mut window);
            loop {
                match pump.next(self.now) {
                    Action::Ship { target, frame } => {
                        self.ship(target, frame);
                        pump.shipped(Ok(()), self.now);
                    }
                    Action::Land { target, wait } => {
                        let got = self.recv(target, wait);
                        pump.landed(target, got, self.now);
                    }
                    Action::WaitUntil(wake) => self.now = self.now.max(wake),
                    Action::Done(result) => return result,
                }
            }
        }

        /// `ClusterClient::call`.
        fn call(
            &mut self,
            c: &ClusterClient,
            server: u32,
            request: Request,
        ) -> PvfsResult<Response> {
            let mut lone = Batch::new(std::iter::once((ServerId(server), request)));
            self.run(c, &mut lone, true)?;
            Ok(lone.finish()?.pop().expect("one op, one response"))
        }

        /// `ClusterClient::round`.
        fn round(
            &mut self,
            c: &ClusterClient,
            ops: Vec<(ServerId, Request)>,
        ) -> PvfsResult<Vec<Response>> {
            let mut round = Batch::new(ops.into_iter());
            self.run(c, &mut round, false)?;
            round.finish()
        }

        fn ship(&mut self, target: RpcTarget, frame: Frame) {
            let RpcTarget::Server(server) = target else {
                panic!("only daemons are addressed here");
            };
            let (server, id) = (server.index(), decode_frame_id(&frame.head).unwrap());
            let answer = (self.answer)(&self.book, server, id);
            let (at, reply, queued) = match answer {
                Answer::Reply { after, response } => {
                    let shed = matches!(response, Response::Error(PvfsError::Overloaded { .. }));
                    (self.now + after, Ok(encode_response(id, &response)), !shed)
                }
                Answer::Raw(reply) => (self.now, Ok(reply), true),
                Answer::Dropped => (self.now, Err(id), true),
                Answer::Silent => (u64::MAX, Err(id), true),
            };
            let book = &mut self.book;
            book.collected_at_last_start = book.collected;
            book.started += 1;
            book.last_started[server] = self.now;
            book.flying[server] += 1;
            book.queued[server] += usize::from(queued);
            book.peak[server] = book.peak[server].max(book.flying[server]);
            let at = self.owed[server].back().map_or(at, |last| at.max(last.at));
            self.owed[server].push_back(Owed { at, reply, queued });
        }

        fn recv(&mut self, target: RpcTarget, wait: Duration) -> Result<Frame, WaitError> {
            let RpcTarget::Server(server) = target else {
                panic!("only daemons are addressed here");
            };
            let server = server.index();
            let until = self.now.saturating_add(wait.as_nanos() as u64);
            let owed = &mut self.owed[server];
            let Some(Owed { at, reply, queued }) = owed.pop_front_if(|o| o.at <= until) else {
                self.now = until;
                return Err(WaitError::Timeout);
            };
            self.now = self.now.max(at);
            let book = &mut self.book;
            book.flying[server] -= 1;
            book.queued[server] -= usize::from(queued);
            book.collected += 1;
            let dropped = || PvfsError::Transport("server dropped reply".into());
            reply
                .map(Frame::from)
                .map_err(|id| WaitError::Lost(id, dropped()))
        }
    }

    /// `left` ops dealt round-robin over `daemons`, counting how far
    /// the pipeline pulls ahead of the replies it has handed back.
    struct Dealt {
        daemons: u32,
        left: usize,
        pulled: usize,
        landed: usize,
        most_ahead: usize,
        pulled_at_failure: Option<usize>,
    }

    impl Dealt {
        fn new(daemons: u32, ops: usize) -> Dealt {
            Dealt {
                daemons,
                left: ops,
                pulled: 0,
                landed: 0,
                most_ahead: 0,
                pulled_at_failure: None,
            }
        }
    }

    impl OpStream for Dealt {
        type Ticket = ();

        fn next_op(&mut self) -> Option<(RpcTarget, Request, ())> {
            self.left = self.left.checked_sub(1)?;
            let server = ServerId(self.pulled as u32 % self.daemons);
            self.pulled += 1;
            self.most_ahead = self.most_ahead.max(self.pulled - self.landed);
            let handle = FileHandle(1);
            Some((server.into(), Request::GetLocalSize { handle }, ()))
        }

        fn landed(&mut self, (): (), response: Response) -> PvfsResult<()> {
            assert_eq!(response, SIZE);
            self.landed += 1;
            Ok(())
        }

        fn failed(&mut self, (): (), error: PvfsError) -> PvfsResult<()> {
            self.pulled_at_failure = Some(self.pulled);
            Err(error)
        }
    }

    fn size(server: u32) -> (ServerId, Request) {
        let handle = FileHandle(1);
        (ServerId(server), Request::GetLocalSize { handle })
    }

    /// The shape of the window, by count: never more than [`WINDOW`]
    /// flights per daemon, and that many reached; never more than
    /// `WINDOW` × daemons ops pulled and unanswered — whether the
    /// stream is the 64 frames of a 16-round list plan or a hundred
    /// thousand one-op rounds, which is what keeps a million-round plan
    /// in O(window) memory.
    #[test]
    fn the_window_is_w_flights_per_daemon_however_long_the_stream() {
        for ops in [64, 100_000] {
            let mut wire = Wire::new(4, |_, _, _| served(SIZE));
            let c = wire.client();
            let mut dealt = Dealt::new(4, ops);
            wire.run(&c, &mut dealt, false).unwrap();
            assert_eq!((dealt.pulled, dealt.landed), (ops, ops));
            assert_eq!(dealt.most_ahead, WINDOW * 4, "{ops} ops");
            assert_eq!(wire.book.peak, [WINDOW; 4], "{ops} ops");
            assert_eq!((wire.book.started, wire.book.collected), (ops, ops));
            assert_eq!(c.stats().retries, 0);
        }
    }

    /// An op that fails for good mid-stream ends the stream with *its*
    /// error; from then on nothing is pulled and nothing is shipped,
    /// and what was in the air is collected, not left hanging.
    #[test]
    fn a_doomed_op_ends_the_stream_with_its_error_and_nothing_more_is_pulled() {
        let mut wire = Wire::new(4, |book, _, _| match book.started {
            21 => served(Response::Error(PvfsError::invalid("no such region"))),
            _ => served(SIZE),
        });
        let c = wire.client();
        let mut dealt = Dealt::new(4, 64);
        let err = wire.run(&c, &mut dealt, false).unwrap_err();
        assert!(
            matches!(&err, PvfsError::InvalidArgument(m) if m.contains("iod1")),
            "frame 21 went to iod1 and was refused, got {err:?}"
        );
        assert_eq!(dealt.pulled_at_failure, Some(dealt.pulled));
        assert!(dealt.pulled < 64 && dealt.landed < dealt.pulled);
        let book = &wire.book;
        assert_eq!(
            book.started, dealt.pulled,
            "every pulled op was shipped once"
        );
        assert_eq!(book.collected, book.started, "and its reply collected");
        assert_eq!(book.flying, [0; 4]);
    }

    /// Daemons that shed whatever finds two frames already in their
    /// queue: each shed halves the window on that daemon and sends the
    /// frame again once the stream's flights there have landed — no
    /// attempt spent (there are more sheds here than the policy has
    /// attempts), no backoff slept — and the endpoint remembers: its
    /// next stream starts as narrow as this one ended, and is shed
    /// nothing.
    #[test]
    fn a_shed_narrows_the_window_and_costs_no_attempt() {
        let mut wire = Wire::new(4, |book, server, _| match book.queued[server] {
            0 | 1 => served(SIZE),
            _ => shed(server, 2),
        });
        let c = wire.client().with_retry_policy(RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        });
        let mut dealt = Dealt::new(4, 64);
        wire.run(&c, &mut dealt, false).unwrap();
        assert_eq!(dealt.landed, 64);
        // Per daemon: the third and fourth frame of the first window.
        let stats = c.stats();
        assert_eq!((stats.sheds_seen, stats.retries), (8, 8));
        assert_eq!((stats.attempts, stats.backoff_ms), (72, 0));
        assert_eq!(wire.book.started, 72);
        for s in 0..4 {
            assert_eq!(c.health().window(ServerId(s)), 1, "4 → 2 → 1 on iod{s}");
        }

        wire.book.peak = vec![0; 4];
        let mut dealt = Dealt::new(4, 64);
        wire.run(&c, &mut dealt, false).unwrap();
        assert_eq!(dealt.landed, 64);
        assert_eq!(c.stats().sheds_seen, 8, "the narrowed window fits");
        assert_eq!(wire.book.peak, [1; 4]);

        // A refusal served nothing, and how fast it came says nothing of
        // the daemon: the 8 sheds above left no latency sample, nor does
        // one more, alone (other clients fill iod0's queue).
        assert_eq!(c.stats().rpc_latency.count(), 128, "the served replies");
        wire.book.queued[0] = 2;
        let once = c.clone().with_retry_policy(RetryPolicy::none());
        let shed = wire.round(&once, vec![size(0)]);
        assert!(
            matches!(shed, Err(PvfsError::Overloaded { .. })),
            "{shed:?}"
        );
        assert_eq!(c.stats().sheds_seen, 9);
        assert_eq!(c.stats().rpc_latency.count(), 128);
    }

    /// A shed with nothing of the stream at that daemon to wait for is
    /// the one that backs off — and still spends no attempt: five in a
    /// row are absorbed by a policy of four attempts. With retries off
    /// a shed surfaces like any other error.
    #[test]
    fn a_lone_shed_backs_off_without_spending_an_attempt() {
        let mut wire = Wire::new(1, |book, server, _| match book.started {
            0..5 => shed(server, 64),
            _ => served(SIZE),
        });
        let c = wire.client();
        assert_eq!(c.retry_policy().max_attempts, 4);
        assert_eq!(wire.call(&c, 0, size(0).1).unwrap(), SIZE);
        let stats = c.stats();
        assert_eq!((stats.attempts, stats.retries), (6, 5));
        assert!(stats.backoff_ms >= 5, "five backoffs of 1 ms at least");

        wire.book.started = 0;
        let c = c.with_retry_policy(RetryPolicy::none());
        let err = wire.call(&c, 0, size(0).1).unwrap_err();
        assert!(matches!(err, PvfsError::Overloaded { .. }), "got {err:?}");
    }

    /// A backed-off sub-op stalls nobody: while the one failed frame of
    /// a stream waits out its 50 ms, every other op ships and lands, so
    /// when it goes out again it is the only one left.
    #[test]
    fn the_window_flies_on_while_a_failed_frame_backs_off() {
        let mut wire = Wire::new(4, |book, _, _| match book.started {
            5 => served(Response::Error(PvfsError::Transport(
                "connection reset".into(),
            ))),
            _ => served(SIZE),
        });
        let backoff = Duration::from_millis(50);
        let c = wire.client().with_retry_policy(RetryPolicy {
            base_backoff: backoff,
            max_backoff: backoff,
            ..RetryPolicy::default()
        });
        let mut dealt = Dealt::new(4, 64);
        wire.run(&c, &mut dealt, false).unwrap();
        assert!(wire.now >= 50 * MS);
        assert_eq!((dealt.landed, c.stats().retries), (64, 1));
        let book = &wire.book;
        assert_eq!(book.started, 65);
        assert_eq!(
            book.collected_at_last_start, 64,
            "the re-sent frame left last, after the other 63 had landed"
        );
    }

    /// No wait outlasts a backoff: the first frame to iod1 is dropped
    /// unanswered, and its retry leaves as its 1–3 ms backoff ends —
    /// not when iod0, 300 ms later, answers the round's other op.
    #[test]
    fn a_backed_off_retry_does_not_wait_for_an_unrelated_flight() {
        let mut wire = Wire::new(2, |book, server, _| match (server, book.started) {
            (1, 0) => Answer::Dropped,
            (1, _) => served(SIZE),
            _ => Answer::Reply {
                after: 300 * MS,
                response: SIZE,
            },
        });
        let c = wire.client();
        assert_eq!(wire.round(&c, vec![size(1), size(0)]).unwrap(), [SIZE; 2]);
        assert_eq!(wire.book.started, 3);
        let retried = wire.book.last_started[1];
        assert!((MS..=3 * MS).contains(&retried), "retried at {retried} ns");
        assert_eq!(wire.now, 300 * MS);
    }

    /// A server that never replies must yield PvfsError::Timeout, not a
    /// hang.
    #[test]
    fn wedged_server_rpc_times_out() {
        // Breaker off: this test pins the *timeout* path; with the
        // default breaker the retries' timeouts would open the circuit
        // and the second call would surface `Unavailable` instead.
        let mut wire = Wire::new(1, |_, _, _| Answer::Silent);
        let c = wire
            .client()
            .with_rpc_timeout(Duration::from_millis(50))
            .with_breaker_policy(BreakerPolicy::off());
        let err = wire.call(&c, 0, size(0).1).unwrap_err();
        assert!(matches!(err, PvfsError::Timeout(_)), "got {err:?}");
        // Same on the fan-out path.
        let err = wire.round(&c, vec![size(0)]).unwrap_err();
        assert!(matches!(err, PvfsError::Timeout(_)), "got {err:?}");
    }

    /// The deadline of an RPC runs from when its frame left, not from
    /// when the client got round to waiting for it: a round to four
    /// wedged daemons fails in one timeout — each later wait finds its
    /// budget already spent — where a fresh budget per wait made it
    /// four.
    #[test]
    fn the_rpc_deadline_runs_from_ship_time() {
        let timeout = Duration::from_millis(100);
        let mut wire = Wire::new(4, |_, _, _| Answer::Silent);
        let c = wire
            .client()
            .with_rpc_timeout(timeout)
            .with_retry_policy(RetryPolicy::none())
            .with_breaker_policy(BreakerPolicy::off());
        let err = wire.round(&c, (0..4).map(size).collect()).unwrap_err();
        assert!(
            matches!(&err, PvfsError::Timeout(m) if m.contains("iod0")),
            "the first op to time out is the round's error, got {err:?}"
        );
        assert_eq!(wire.now, 100 * MS, "four wedged daemons, one deadline");
    }

    /// round() must treat an id-0 response as a hard protocol error:
    /// with several requests in flight it cannot be attributed.
    #[test]
    fn round_rejects_unattributable_responses() {
        let scrambled = Response::Error(PvfsError::protocol("scrambled"));
        let mut wire = Wire::new(1, move |_, _, _| {
            Answer::Raw(encode_response(RequestId(0), &scrambled))
        });
        let c = wire.client();
        match wire.round(&c, vec![size(0)]).unwrap_err() {
            PvfsError::Protocol(m) => {
                assert!(m.contains("id 0"), "diagnostic should name id 0: {m}");
                assert!(m.contains("iod0"), "diagnostic should name the server: {m}");
            }
            other => panic!("expected protocol error, got {other:?}"),
        }
    }

    /// round() must reject a response whose id belongs to a *different*
    /// request (the misattribution the old wildcard allowed).
    #[test]
    fn round_rejects_mismatched_response_id() {
        let mut wire = Wire::new(1, |_, _, id| {
            let wrong = RequestId(id.0 + 1000);
            Answer::Raw(encode_response(wrong, &Response::LocalSize { size: 0 }))
        });
        let c = wire.client();
        let err = wire.round(&c, vec![size(0)]).unwrap_err();
        assert!(
            matches!(&err, PvfsError::Protocol(m) if m.contains("mismatched")),
            "got {err:?}"
        );
    }

    /// A daemon that answers — even with an error — is alive: on the
    /// round path, as on `call`, its reply clears the failure streak.
    /// Two lost replies, one `InvalidArgument` reply, one more lost
    /// reply is a streak of 2 + 1, never the 3 that trip the breaker.
    #[test]
    fn round_counts_an_error_reply_as_a_sign_of_life() {
        let mut wire = Wire::new(1, |book, _, _| match book.started {
            2 => served(Response::Error(PvfsError::invalid("no such region"))),
            _ => Answer::Dropped,
        });
        let c = wire
            .client()
            .with_retry_policy(RetryPolicy::none())
            .with_breaker_policy(BreakerPolicy {
                threshold: 3,
                open_for: Duration::from_secs(60),
            });
        let errors: Vec<PvfsError> = (0..4)
            .map(|_| wire.round(&c, vec![size(0)]).unwrap_err())
            .collect();
        assert!(
            matches!(
                &errors[..],
                [
                    PvfsError::Transport(_),
                    PvfsError::Transport(_),
                    PvfsError::InvalidArgument(_),
                    PvfsError::Transport(_)
                ]
            ),
            "got {errors:?}"
        );
        assert_eq!(
            c.health().state(ServerId(0), wire.now),
            BreakerState::Closed,
            "the error reply broke the streak: no trip, which would read open for 60 s"
        );
    }

    /// Which copy a replicated read ships to first, at r = 2 on two
    /// daemons: a copy whose breaker is open goes last, so a read of a
    /// slot whose primary has tripped ships to the mirror alone — no
    /// failover, no deadline — and otherwise the primary goes first,
    /// however much faster the mirror has been answering.
    #[test]
    fn a_replicated_read_skips_an_open_breaker_and_otherwise_prefers_the_primary() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let read = |slot: u32| {
            let request = Request::Read {
                handle: FileHandle(1),
                layout: StripeLayout::new(0, 2, 16).unwrap(),
                region: Region::new(u64::from(slot) * 16, 16),
            };
            (ServerId(slot), request)
        };
        let data = || Response::Data {
            data: Bytes::from(vec![7; 16]),
        };
        let r2 = ReplicaPolicy::new(2, WriteQuorum::All, 2).unwrap();

        // The primary of slot 0 drops its first two replies, tripping its
        // breaker, and is silent from then on.
        let sent = Rc::new(RefCell::new([0; 2]));
        let book = sent.clone();
        let mut wire = Wire::new(2, move |_, server, _| {
            book.borrow_mut()[server] += 1;
            match (server, book.borrow()[0]) {
                (0, 1 | 2) => Answer::Dropped,
                (0, _) => Answer::Silent,
                _ => served(data()),
            }
        });
        let c = wire
            .client()
            .with_replica_policy(r2)
            .with_breaker_policy(BreakerPolicy {
                threshold: 2,
                open_for: Duration::from_secs(60),
            });
        for _ in 0..2 {
            assert_eq!(wire.round(&c, vec![read(0)]).unwrap(), [data()]);
        }
        assert_eq!(*sent.borrow(), [2, 2]);
        assert_eq!(c.stats().replica_failovers, 2);
        assert_eq!(c.health().state(ServerId(0), wire.now), BreakerState::Open);
        let before = wire.now;
        assert_eq!(wire.round(&c, vec![read(0)]).unwrap(), [data()]);
        assert_eq!(*sent.borrow(), [2, 3], "no frame to the open primary");
        assert_eq!(c.stats().replica_failovers, 2);
        assert_eq!(wire.now - before, SERVICE, "no deadline waited");

        // Both breakers closed: iod1 answers ten times faster than iod0,
        // and slot 0's reads still go to iod0, its primary.
        let sent = Rc::new(RefCell::new([0; 2]));
        let book = sent.clone();
        let mut wire = Wire::new(2, move |_, server, _| {
            book.borrow_mut()[server] += 1;
            let after = if server == 0 { 10 * SERVICE } else { SERVICE };
            let response = data();
            Answer::Reply { after, response }
        });
        let c = wire.client().with_replica_policy(r2);
        for _ in 0..3 {
            let both = wire.round(&c, vec![read(0), read(1)]).unwrap();
            assert_eq!(both, [data(), data()]);
        }
        assert_eq!(*sent.borrow(), [3, 3], "each slot's reads to its primary");
        assert_eq!(c.stats().replica_failovers, 0);
    }

    /// A round in which one daemon is silent and another refuses
    /// outright fails with the refusal — the error that decided it —
    /// whatever else is pending: a retry of the silent op (r = 1) or
    /// its failover to a mirror (r = 2), which has no error of its own
    /// to report.
    #[test]
    fn round_surfaces_the_refusal_over_a_pending_retry_or_failover() {
        for replicas in [1, 2] {
            let mut wire = Wire::new(2, |_, server, _| match server {
                0 => Answer::Dropped,
                _ => served(Response::Error(PvfsError::invalid("no such region"))),
            });
            let policy = ReplicaPolicy::new(replicas, WriteQuorum::All, 2).unwrap();
            let c = wire
                .client()
                .with_retry_policy(RetryPolicy::default())
                .with_breaker_policy(BreakerPolicy::off())
                .with_replica_policy(policy);
            let read = |server| {
                let request = Request::Read {
                    handle: FileHandle(1),
                    layout: StripeLayout::new(0, 2, 16).unwrap(),
                    region: Region::new(0, 32),
                };
                (ServerId(server), request)
            };
            let err = wire.round(&c, vec![read(0), read(1)]).unwrap_err();
            assert!(
                matches!(&err, PvfsError::InvalidArgument(m) if m.contains("iod1")),
                "r = {replicas}: got {err:?}"
            );
            assert_eq!(c.stats().replica_failovers, u64::from(replicas - 1));
        }
    }
}
