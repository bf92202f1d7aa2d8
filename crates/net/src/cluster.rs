//! The RPC client of a live cluster, and its one request pipeline.
//!
//! A [`ClusterClient`] is an endpoint over any [`Transport`] — the
//! in-process channels or TCP sockets of a [`LiveCluster`](crate::LiveCluster),
//! a remote cluster's listeners, a test double — and is identical over
//! all of them: same codec, same request ids, same deadlines, same
//! diagnostics.
//!
//! # The request pipeline
//!
//! Every RPC — a lone [`ClusterClient::call`], the fan-out of a
//! [`ClusterClient::round`], a whole stretch of a plan through
//! [`ClusterClient::stream_in`]; unreplicated or mirrored, traced or
//! not — runs through one private driver, `drive`, and its one `Pump`:
//! ops are pulled lazily from an [`OpStream`] and expanded into
//! sub-ops (one per op; one per copy under replication), each daemon
//! has at most [`WINDOW`] of them in flight, all on one [`Lane`] — the
//! pump checks out one per daemon for as long as the stream runs —
//! whichever of a daemon's flights its next reply answers is landed
//! when its window is full, and every op's outcome goes back to the
//! stream as it resolves (a replicated write under its quorum).
//! There is no barrier and no wave: a failed attempt is settled where
//! it lands — a read fails over to a mirror, a transient failure backs
//! off and goes out again, that sub-op alone — while the rest of the
//! window flies on; a frame a daemon *sheds* off its full queue is that
//! daemon narrowing the window (many clients' windows share one
//! queue), not a failed attempt. One way to send and one way to wait:
//! one `ship` (breaker admission, span, encode, [`Lane::send`]) and one
//! `land` (feed latency and health from one clock reading, close the
//! span) serve every attempt, with the pump in between: flush every
//! lane with frames queued, wait on one for what is left of its oldest
//! flight's deadline, decode what comes, match it to its flight by
//! request id. The pump is single-threaded code over [`Lane`]: it
//! starts no thread and owns no channel. What distinguishes a `call`
//! from any other op is one parameter, `sole` (see `drive`).
//!
//! # Whose buffers a frame is built in
//!
//! No attempt allocates its frame. The head is encoded — from the
//! request as the pump holds it, borrowed, never cloned — into a buffer
//! out of this endpoint's [`Spares`], and a write's payload was gathered
//! into another ([`ClusterClient::payload_buffer`], by the plan
//! executor) when the op was pulled. The pump hands both back: the head
//! when its flight lands, the payload when the op resolves. Each comes
//! back only as the last handle on it ([`bytes::Bytes::try_into_mut`]) —
//! which it is once the daemon has answered, because a daemon drops its
//! views of a frame before its reply leaves — so a flight that timed
//! out or a frame a fault wedged on its way simply does not come back,
//! and the next frame allocates.
//! The bound is the pipeline's own: [`WINDOW`] per daemon of each kind.
//!
//! # RPC discipline
//!
//! Request ids start at 1; **id 0 is reserved** for responses that
//! cannot be attributed to a request (the frame's header itself was
//! unreadable). Servers echo the real request id on error responses
//! whenever the fixed header is parsable ([`pvfs_proto::decode_frame_id`]),
//! even if the body is corrupt. Clients match every response to the
//! request in flight at that daemon that carries its id; a response
//! whose id none of them carries is dropped if it answers a request the
//! client has given up waiting for (a late reply), and is otherwise a
//! hard protocol error charged to the daemon's oldest flight — as is,
//! on the multi-request [`ClusterClient::round`] path, an id-0 response
//! (it could belong to *any* in-flight request). Every receive
//! carries a deadline ([`ClusterClient::with_rpc_timeout`], default
//! [`DEFAULT_RPC_TIMEOUT`]) that bounds the **total** elapsed time of
//! the RPC from the moment its frame left — a TCP response dribbling in
//! over many partial reads is charged against one deadline, not one per
//! read, and so is the time a flight spends waiting its turn in the
//! window — so a wedged server yields [`PvfsError::Timeout`] instead of
//! hanging the client, and several wedged servers cost one timeout.

use bytes::{Bytes, BytesMut};
use pvfs_proto::{
    decode_response_frame, decode_response_id, encode_frame_into, request_head_len, Frame, OpClass,
    Request, Response,
};
use pvfs_replica::{ReplicaMap, ReplicaPolicy, ReplicaTarget};
use pvfs_types::clock::{self, now_ns};
use pvfs_types::{
    ClientId, ClientLedger, ClientStats, PvfsError, PvfsResult, RequestId, ServerId, SpanId,
    StripeLayout, TraceContext, TraceId, TraceMode, TraceTree,
};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::gate::SerialGate;
use crate::health::{BreakerPolicy, BreakerState, HealthTracker};
use crate::retry::{Backoff, RetryPolicy};
use crate::spares::Spares;
use crate::trace::{ActiveTrace, Tracer};
use crate::transport::{Lane, RpcTarget, Transport, WaitError};

/// Default deadline for one RPC before the client reports
/// [`PvfsError::Timeout`]. Generous: the in-process servers answer in
/// microseconds unless wedged.
pub const DEFAULT_RPC_TIMEOUT: Duration = Duration::from_secs(10);

/// A client endpoint of a [`LiveCluster`](crate::LiveCluster) (or any
/// [`Transport`]).
#[derive(Clone)]
pub struct ClusterClient {
    id: ClientId,
    transport: Arc<dyn Transport>,
    next_request: Arc<AtomicU64>,
    gate: Arc<SerialGate>,
    rpc_timeout: Duration,
    retry: RetryPolicy,
    stats: Arc<ClientLedger>,
    /// Per-daemon failure detector + circuit breakers, shared by every
    /// clone: all of an endpoint's traffic contributes health signal.
    health: Arc<HealthTracker>,
    /// Stripe replication placement (`PVFS_REPLICAS`); one copy per
    /// slot (today's behavior) unless mirroring is configured.
    replica: Arc<ReplicaMap>,
    /// Trace origin (`PVFS_TRACE`): sampling decisions, the client-side
    /// flight recorder, and the retained-trace index. Shared by clones.
    tracer: Arc<Tracer>,
    /// The buffers request frames are built in. Shared by clones.
    spares: Arc<Mutex<FrameSpares>>,
}

/// The request side of a client's frames: the buffers their heads are
/// encoded into and the buffers write payloads are gathered into, each
/// kind its own [`Spares`], bounded by the pipeline's window over the
/// whole cluster ([`WINDOW`] per daemon) — the most requests one stream
/// has built and not seen resolved. A head comes back when its flight
/// lands, a payload when its op resolves: by then the daemon has
/// answered, and it drops its views of a frame before it answers (see
/// `serve_rpc`), so the client's handle is the last — unless the
/// flight timed out or was wedged or dropped on the way, in which case
/// the handle is not the last, nothing comes back, and the next frame
/// allocates.
struct FrameSpares {
    heads: Spares<BytesMut>,
    payloads: Spares<BytesMut>,
}

impl ClusterClient {
    /// A client endpoint over an explicit transport.
    /// [`LiveCluster::client`](crate::LiveCluster::client)
    /// is the usual way in; this is the seam for pointing a client at a
    /// remote cluster's listeners (or a test double).
    pub fn with_transport(
        id: ClientId,
        transport: Arc<dyn Transport>,
        gate: Arc<SerialGate>,
    ) -> ClusterClient {
        let health = Arc::new(HealthTracker::new(
            transport.n_servers(),
            BreakerPolicy::from_env(),
        ));
        // Malformed replication env panics like the other PVFS_*
        // variables: a typo'd run must not silently change placement.
        let policy = ReplicaPolicy::from_env(transport.n_servers())
            .unwrap_or_else(|e| panic!("replica configuration rejected: {e}"));
        let replica = Arc::new(ReplicaMap::new(transport.n_servers(), policy));
        let window = WINDOW * transport.n_servers().max(1) as usize;
        ClusterClient {
            id,
            transport,
            // Id 0 is reserved for unattributable responses.
            next_request: Arc::new(AtomicU64::new(1)),
            gate,
            rpc_timeout: DEFAULT_RPC_TIMEOUT,
            retry: RetryPolicy::from_env(),
            stats: Arc::new(ClientLedger::default()),
            health,
            replica,
            tracer: Arc::new(Tracer::from_env(format!("client{}", id.0))),
            spares: Arc::new(Mutex::new(FrameSpares {
                heads: Spares::new(window),
                payloads: Spares::new(window),
            })),
        }
    }

    /// This endpoint's client id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Number of I/O servers reachable.
    pub fn n_servers(&self) -> u32 {
        self.transport.n_servers()
    }

    /// The cluster's serialization gate.
    pub fn gate(&self) -> &SerialGate {
        &self.gate
    }

    /// This endpoint with a different per-RPC deadline.
    pub fn with_rpc_timeout(mut self, timeout: Duration) -> ClusterClient {
        self.rpc_timeout = timeout;
        self
    }

    /// The per-RPC deadline currently in force.
    pub fn rpc_timeout(&self) -> Duration {
        self.rpc_timeout
    }

    /// This endpoint with a different retry policy
    /// ([`RetryPolicy::none`] turns retries off).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> ClusterClient {
        self.retry = retry;
        self
    }

    /// The retry policy currently in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// This endpoint with a fresh [`HealthTracker`] under a different
    /// breaker policy ([`BreakerPolicy::off`] disables breakers).
    /// Existing clones keep the tracker they were built with; clones
    /// taken *after* this call share the new one.
    pub fn with_breaker_policy(mut self, policy: BreakerPolicy) -> ClusterClient {
        self.health = Arc::new(HealthTracker::new(self.transport.n_servers(), policy));
        self
    }

    /// This endpoint with an explicit replication policy (tests and
    /// tools; the usual way in is `PVFS_REPLICAS`).
    pub fn with_replica_policy(mut self, policy: ReplicaPolicy) -> ClusterClient {
        self.replica = Arc::new(ReplicaMap::new(self.transport.n_servers(), policy));
        self
    }

    /// The stripe replication placement map in force.
    pub fn replica_map(&self) -> &ReplicaMap {
        &self.replica
    }

    /// The replication policy in force.
    pub fn replica_policy(&self) -> ReplicaPolicy {
        self.replica.policy()
    }

    /// This endpoint with an explicit trace mode (the usual way in is
    /// `PVFS_TRACE`). Existing clones keep the tracer they were built
    /// with; clones taken after this call share the new one.
    pub fn with_trace_mode(mut self, mode: TraceMode) -> ClusterClient {
        self.tracer = Arc::new(Tracer::new(mode, format!("client{}", self.id.0)));
        self
    }

    /// This endpoint's trace origin: sampling mode, client flight
    /// recorder, and the retained-trace index behind `trace last`.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Assemble the full cross-node tree of one trace: this endpoint's
    /// retained client spans plus a best-effort `GetTrace` scrape of
    /// every I/O daemon and the manager. Scrapes are control operations
    /// under the observer-effect guarantee — they perturb no counters
    /// and record no spans — so assembling a waterfall never changes
    /// what the next waterfall shows. A daemon that cannot answer
    /// (down, breaker-open) simply contributes nothing; its spans
    /// surface as orphans if its children made it back.
    pub fn fetch_trace(&self, trace: TraceId) -> TraceTree {
        let mut spans = self.tracer.recorder().for_trace(trace);
        for s in 0..self.transport.n_servers() {
            if let Ok(Response::Spans(v)) =
                self.call(RpcTarget::Server(ServerId(s)), Request::GetTrace { trace })
            {
                spans.extend(v);
            }
        }
        if let Ok(Response::Spans(v)) = self.call(RpcTarget::Manager, Request::GetTrace { trace }) {
            spans.extend(v);
        }
        TraceTree::assemble(trace, spans)
    }

    /// The per-daemon failure detector (breaker states, EWMA latency)
    /// of this endpoint and all its clones.
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// Probe one daemon's liveness with the cheap [`Request::Ping`] RPC
    /// and return its current queue depth. The probe rides the ordinary
    /// call path on purpose: its round-trip feeds the same
    /// [`HealthTracker`] EWMA and breaker as real traffic, so a
    /// background pinger doubles as a failure detector. A ping to an
    /// open-circuit daemon fails fast with `Unavailable` — use
    /// [`ClusterClient::health`] to watch for the half-open window if
    /// you are probing for recovery.
    pub fn ping(&self, server: ServerId) -> PvfsResult<u64> {
        match self.call(RpcTarget::Server(server), Request::Ping)? {
            Response::Pong { queue_depth } => Ok(queue_depth),
            other => Err(PvfsError::Protocol(format!(
                "ping to server {} answered {other:?}",
                server.0
            ))),
        }
    }

    /// The books of this endpoint and all its clones: attempts, retries,
    /// backoff slept, faults the transport injected, and the latency of
    /// every RPC a daemon served.
    pub fn stats(&self) -> ClientStats {
        ClientStats {
            faults_injected: self.transport.faults_injected(),
            ..self.stats.snapshot()
        }
    }

    /// A buffer to gather a write's `room`-byte payload into
    /// (`pvfs_core::exec::gather_payload_into`): one of this endpoint's
    /// spares when one is back, which it is once the op it last carried
    /// has resolved. The buffer comes as that op left it; the gather
    /// clears it.
    pub fn payload_buffer(&self, room: usize) -> BytesMut {
        self.frame_spares().payloads.buffer(room)
    }

    fn frame_spares(&self) -> std::sync::MutexGuard<'_, FrameSpares> {
        // Spares are valid at every step: a panic elsewhere while the
        // lock was held leaves nothing half-done.
        self.spares.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Encode one request, borrowed, under a fresh request id, its head
    /// into one of this endpoint's spares; `ctx` is stamped into a
    /// version-2 frame when the operation is traced. Untraced requests
    /// (`ctx == None`) encode byte-identical version-1 frames —
    /// `PVFS_TRACE=off` sends exactly the bytes an untraced build sends.
    fn encode(
        &self,
        request: &Request,
        ctx: Option<TraceContext>,
    ) -> PvfsResult<(RequestId, Frame)> {
        let id = RequestId(self.next_request.fetch_add(1, Ordering::Relaxed));
        let room = request_head_len(request, ctx);
        let head = self.frame_spares().heads.buffer(room);
        let frame = encode_frame_into(self.id, id, request, ctx, head)?;
        Ok((id, frame))
    }

    /// One synchronous RPC, addressed literally: `request` goes to
    /// `target` as given, whatever the replication policy (`scrub`
    /// addresses specific copies this way). Errors returned by the
    /// server come back as `Err`; no reply within the deadline is
    /// [`PvfsError::Timeout`].
    ///
    /// Transient failures ([`PvfsError::is_retryable`]) are retried
    /// under this endpoint's [`RetryPolicy`], each attempt on a fresh
    /// request id — when the request is idempotent
    /// ([`Request::is_idempotent`]), or when the failure proves the
    /// request never executed ([`PvfsError::is_definitely_not_executed`],
    /// e.g. a server-side shed): replaying an op that never ran cannot
    /// duplicate its effect. Backoff sleeps are clamped to the
    /// remaining per-op budget, so the error surfaces at the budget
    /// boundary instead of after one last full-length sleep. A shed
    /// ([`PvfsError::Overloaded`]) backs off like any transient failure
    /// but spends only the budget, never one of the policy's attempts:
    /// the daemon is alive and working its queue off, and the request
    /// provably did not run.
    pub fn call(&self, target: RpcTarget, request: Request) -> PvfsResult<Response> {
        // Control scrapes are never traced: tracing the collection of
        // traces would perturb the very rings being observed.
        let active = if request.is_control_scrape() {
            None
        } else {
            self.tracer.begin("call")
        };
        let mut lone = Batch::new(std::iter::once((target, request)));
        let result = self.drive(&mut lone, true, active.as_ref());
        if let Some(a) = active {
            self.tracer.finish(a);
        }
        let mut responses = result.and_then(|()| lone.finish())?;
        Ok(responses.pop().expect("one op, one response"))
    }

    /// Issue several requests in parallel (the fan-out of one plan
    /// round) and collect responses in request order.
    ///
    /// Failure diagnostics name the server and request id at fault. A
    /// response carrying the reserved id 0 is a hard protocol error on
    /// this path: with several requests in flight it could belong to
    /// any of them, so it must never be matched to one.
    ///
    /// # Partial-round recovery
    ///
    /// When some ops of a round fail transiently, only the *failed* ops
    /// are re-sent (fresh request ids), only to the servers that failed
    /// — responses already collected are kept and the healthy servers
    /// see no duplicate traffic. This is safe because every data-path
    /// request is idempotent ([`Request::is_idempotent`]): replaying
    /// the failed subset cannot corrupt regions whose writes already
    /// applied. A deterministic error (or an exhausted
    /// [`RetryPolicy`]) fails the round with that error — the first
    /// such, ahead of any sibling's transient one — once the other ops
    /// have run their course.
    ///
    /// # Brown-out behavior
    ///
    /// A daemon whose circuit breaker is open fails its ops *at ship
    /// time* with [`PvfsError::Unavailable`] — no queueing, no
    /// timeout wait — while every other daemon's ops in the same
    /// round ship, execute, and land as usual. The round then surfaces
    /// the `Unavailable` (it is deliberately non-retryable: spinning
    /// against an open breaker would defeat it), so a round touching
    /// one dead daemon costs microseconds, not an RPC timeout per
    /// attempt.
    ///
    /// # Replication
    ///
    /// With `PVFS_REPLICAS` > 1 every data op expands transparently:
    /// writes fan out to all `r` copies of their stripe slot and
    /// succeed once the configured quorum acknowledges; reads go to the
    /// healthiest copy (breaker state, then latency EWMA) and *fail
    /// over* to the next mirror on breaker-open/timeout instead of
    /// erroring the round. At `r = 1` (the default) every op goes out
    /// as given — the same pipeline, with nothing to expand.
    pub fn round(&self, requests: Vec<(ServerId, Request)>) -> PvfsResult<Vec<Response>> {
        let active = self.tracer.begin("round");
        let mut round = Batch::new(requests.into_iter());
        let result = self.drive(&mut round, false, active.as_ref());
        if let Some(a) = active {
            self.tracer.finish(a);
        }
        result.and_then(|()| round.finish())
    }

    /// Run a whole [`OpStream`] through the request pipeline: ops are
    /// pulled from the stream only as the window has room for them —
    /// up to [`WINDOW`] in flight per daemon (fewer at a daemon that
    /// has been shedding), never more than `WINDOW` × daemons pulled and
    /// unanswered — and each reply is handed back as it lands: as a
    /// rule a daemon's oldest flight first, in no order across daemons.
    /// This is the plan executor's entry point: a stretch of independent
    /// rounds goes through with no barrier between them (and a
    /// million-round plan in O(window) memory). Everything
    /// [`ClusterClient::round`] says about recovery, brown-outs and
    /// replication holds per op; the retry budget spans the stream.
    /// An op that fails for good goes to [`OpStream::failed`], and by
    /// default that ends the stream with the op's own error: nothing
    /// more is pulled or shipped, and flights still in the air are
    /// collected and dropped (a failed list write may have applied any
    /// subset of its frames).
    pub fn stream_in(
        &self,
        stream: &mut impl OpStream,
        trace: Option<&ActiveTrace>,
    ) -> PvfsResult<()> {
        self.drive(stream, false, trace)
    }

    /// The request pipeline — every RPC this endpoint makes runs here,
    /// through one [`Pump`].
    ///
    /// `sole` is the one distinction between [`call`](Self::call) and
    /// everything else, a parameter rather than a path: a sole op is a
    /// *lone RPC addressed literally*, any other *one of several,
    /// routed by placement*. So only a sole op (1) may take an id-0
    /// error reply as its own, (2) is never expanded across replicas,
    /// and (3) reports errors without the ` [server …, request …]`
    /// suffix.
    fn drive<S: OpStream>(
        &self,
        stream: &mut S,
        sole: bool,
        trace: Option<&ActiveTrace>,
    ) -> PvfsResult<()> {
        let room = if sole {
            1
        } else {
            WINDOW * self.transport.n_servers().max(1) as usize
        };
        let mut pump = Pump {
            client: self,
            stream,
            sole,
            trace,
            subs: VecDeque::with_capacity(room),
            flying: 0,
            ops: Vec::with_capacity(room),
            lanes: Vec::with_capacity(room.div_ceil(WINDOW)),
            given_up: [RequestId(0); 4 * WINDOW],
            next_given_up: 0,
            room,
            started: now_ns(),
            backoff: None,
            over: false,
        };
        let result = pump.run();
        if result.is_err() {
            pump.wind_down();
        }
        result
    }

    /// Read-preference sort key for one copy: closed breakers first,
    /// then fastest observed latency EWMA (untried copies count as
    /// fast — worth probing), primary first on ties.
    fn read_copy_key(&self, t: ReplicaTarget) -> (bool, u128, u32) {
        let open = self.health.state(t.server) == BreakerState::Open;
        let ewma = self
            .health
            .ewma(t.server)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        (open, ewma, t.copy)
    }

    /// Ship one attempt of one request on the pump's lane to that daemon
    /// (checked out now if this is its first frame): breaker admission,
    /// the attempt's `rpc:<op>` span (its id minted before encode, its
    /// context stamped into the frame so server-side spans parent under
    /// the attempt; `send` child once the frame is on its lane), encode
    /// under a fresh request id, [`Lane::send`]. One clock reading, as
    /// the frame is handed to its lane, starts both the span and the
    /// attempt's latency sample. A failure to get the frame away closes
    /// the span with `notes` and is fed to the failure detector.
    fn ship(
        &self,
        target: RpcTarget,
        request: &Request,
        sole: bool,
        lane: &mut Option<Box<dyn Lane>>,
        trace: Option<&ActiveTrace>,
        mut notes: Vec<String>,
    ) -> PvfsResult<Flight> {
        if let RpcTarget::Server(server) = target {
            // An open breaker fails this op fast, before any work is
            // spent on it and without touching the wire; the manager is
            // never gated (metadata is rare and precious).
            if let Err(e) = self.health.admit(server) {
                self.stats
                    .breaker_rejections
                    .fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        }
        let span = trace.map(|a| (a, SpanId::next()));
        let ctx = span.map(|(a, sid)| a.ctx(sid));
        let (id, frame) = self.encode(request, ctx)?;
        let head = frame.head.clone();
        // Latency runs from each op's own ship time: the
        // client-perceived completion latency under fan-out concurrency.
        let shipped = now_ns();
        let lane = match lane {
            Some(lane) => Ok(lane),
            None => self.transport.lane(target).map(|l| lane.insert(l)),
        };
        if let Err(e) = lane.and_then(|lane| lane.send(frame)) {
            if let Some((a, sid)) = span {
                notes.push("error".into());
                let op = format!("rpc:{}", request.op_name());
                a.span_with_id(sid, a.root(), op, shipped, now_ns(), notes);
            }
            let e = blame(sole, target, id, e);
            self.observe_failure(target, &e);
            return Err(e);
        }
        let span = span.map(|(a, sid)| {
            a.span_at(sid, "send", shipped, now_ns(), Vec::new());
            sid
        });
        Ok(Flight {
            id,
            shipped,
            span,
            head,
        })
    }

    fn timed_out(&self, id: RequestId, target: RpcTarget) -> PvfsError {
        PvfsError::timeout(format!(
            "no reply to request {id} from {target} within {:?}",
            self.rpc_timeout
        ))
    }

    /// Land one attempt, waited for since `recv_ns`, with its `outcome`:
    /// feed latency and health, close the attempt's span (`recv` child;
    /// `notes`, plus `error` on failure), and turn a server-side error
    /// into `Err`.
    ///
    /// One clock reading lands the attempt: it ends the `recv` and
    /// `rpc:<op>` spans, and — for any decoded, attributed response,
    /// server errors included, which proves the daemon alive and timely —
    /// the `rpc_latency` sample (control scrapes excepted: reading the
    /// books must not move them) and the failure detector's, which also
    /// clears the failure streak and closes a half-open breaker. A shed
    /// is the exception: the daemon is alive but served nothing, and how
    /// fast it said so is no sample of either. Only transport-class
    /// failures (connection loss, timeout) count toward tripping a
    /// breaker.
    #[allow(clippy::too_many_arguments)]
    fn land(
        &self,
        flight: Flight,
        recv_ns: u64,
        outcome: PvfsResult<Response>,
        target: RpcTarget,
        request: &Request,
        sole: bool,
        trace: Option<&ActiveTrace>,
        mut notes: Vec<String>,
    ) -> PvfsResult<Response> {
        let landed = now_ns();
        let Flight {
            id,
            shipped,
            span,
            head,
        } = flight;
        // Landed, however: the frame's head is this endpoint's again if
        // nothing else still holds it (the lane has sent it, the daemon
        // — over chan — answered it).
        self.frame_spares().heads.take_back(head);
        if let Some((a, sid)) = trace.zip(span) {
            a.span_at(sid, "recv", recv_ns, landed, Vec::new());
            if outcome.is_err() {
                notes.push("error".into());
            }
            let op = format!("rpc:{}", request.op_name());
            a.span_with_id(sid, a.root(), op, shipped, landed, notes);
        }
        match outcome {
            Ok(response) => {
                let served = response.into_result();
                match &served {
                    Err(e @ PvfsError::Overloaded { .. }) => self.note_shed(target, e),
                    _ => {
                        let took = landed.saturating_sub(shipped);
                        if !request.is_control_scrape() {
                            self.stats.rpc_latency.record(took);
                        }
                        if let RpcTarget::Server(server) = target {
                            self.health
                                .record_success(server, Duration::from_nanos(took));
                        }
                    }
                }
                served.map_err(|e| blame(sole, target, id, e))
            }
            Err(e) => {
                self.observe_failure(target, &e);
                Err(e)
            }
        }
    }

    /// Feed one failed RPC to the failure detector. Only transport-class
    /// failures (connection loss, timeout) of an I/O daemon count
    /// toward tripping a breaker; a shed ([`PvfsError::Overloaded`])
    /// proves the daemon's acceptor is alive, so it only closes this
    /// endpoint's window on it a little, and logical errors are neutral.
    fn observe_failure(&self, target: RpcTarget, e: &PvfsError) {
        match (target, e) {
            (RpcTarget::Server(server), PvfsError::Transport(_) | PvfsError::Timeout(_)) => {
                self.health.record_failure(server)
            }
            _ => self.note_shed(target, e),
        }
    }

    /// Count a witnessed server-side shed, and take it as that daemon's
    /// word on how much of its queue this endpoint may fill.
    fn note_shed(&self, target: RpcTarget, e: &PvfsError) {
        if matches!(e, PvfsError::Overloaded { .. }) {
            self.stats.sheds_seen.fetch_add(1, Ordering::Relaxed);
            if let RpcTarget::Server(server) = target {
                self.health.record_shed(server);
            }
        }
    }

    /// How many flights one stream may have in the air at `target` right
    /// now: [`WINDOW`], less what that daemon's sheds have closed of it.
    fn window(&self, target: RpcTarget) -> usize {
        match target {
            RpcTarget::Server(server) => self.health.window(server),
            RpcTarget::Manager => WINDOW,
        }
    }

    /// A fresh per-operation backoff sequence, seeded from the request
    /// counter so serial runs are reproducible.
    fn new_backoff(&self) -> Backoff {
        Backoff::new(
            self.retry,
            RequestId(self.next_request.load(Ordering::Relaxed)),
        )
    }
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
fn attribute(
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

/// How many requests the pipeline keeps in flight per daemon: enough to
/// cover a daemon's worker pool (two by default) with as many queued
/// behind it, so a worker never waits for the client's next frame; more
/// would only deepen the daemon's queue.
pub const WINDOW: usize = 4;

/// What the request pipeline runs: a lazy source of ops and the sink
/// their replies land in — one object, because the two halves of a real
/// stream share state (the plan executor gathers a write's payload out
/// of the buffers a read's reply is scattered into).
pub trait OpStream {
    /// What the sink needs back with an op's reply.
    type Ticket;

    /// The next op to send, built now: the pipeline asks only when the
    /// window has room for it. `None` ends the stream; it is not asked
    /// again.
    fn next_op(&mut self) -> Option<(RpcTarget, Request, Self::Ticket)>;

    /// One op's reply has landed. An error ends the stream.
    fn landed(&mut self, ticket: Self::Ticket, response: Response) -> PvfsResult<()>;

    /// One op has failed for good (a deterministic error, retries
    /// exhausted, a write short of its quorum). What that means for the
    /// rest is the stream's call: returning an error — the default,
    /// this op's own — ends the stream; `Ok` lets the others run on.
    fn failed(&mut self, _ticket: Self::Ticket, error: PvfsError) -> PvfsResult<()> {
        Err(error)
    }
}

/// A fixed batch of ops as a stream — a `call`, a `round`: every op is
/// sent whatever becomes of the others (a round touching one dead
/// daemon still does its work on the healthy ones), and the batch
/// yields all their responses, in op order, or the first failure.
struct Batch<I> {
    ops: std::iter::Enumerate<I>,
    responses: Vec<Option<Response>>,
    error: Option<PvfsError>,
}

impl<I: ExactSizeIterator> Batch<I> {
    fn new(ops: I) -> Batch<I> {
        Batch {
            responses: (0..ops.len()).map(|_| None).collect(),
            ops: ops.enumerate(),
            error: None,
        }
    }

    fn finish(self) -> PvfsResult<Vec<Response>> {
        if let Some(e) = self.error {
            return Err(e);
        }
        // In place: `Option<Response>` and `Response` share a layout,
        // so this reuses the vector's allocation.
        Ok(self
            .responses
            .into_iter()
            .map(|r| r.expect("every op resolved"))
            .collect())
    }
}

impl<T: Into<RpcTarget>, I: Iterator<Item = (T, Request)>> OpStream for Batch<I> {
    type Ticket = usize;

    fn next_op(&mut self) -> Option<(RpcTarget, Request, usize)> {
        let (index, (target, request)) = self.ops.next()?;
        Some((target.into(), request, index))
    }

    fn landed(&mut self, index: usize, response: Response) -> PvfsResult<()> {
        self.responses[index] = Some(response);
        Ok(())
    }

    fn failed(&mut self, _index: usize, error: PvfsError) -> PvfsResult<()> {
        self.error.get_or_insert(error);
        Ok(())
    }
}

/// One run of the request pipeline: the **window** over an
/// [`OpStream`].
///
/// Every op pulled from the stream expands into sub-ops (one; under
/// replication one per write copy, or one read owning its failover
/// chain) that sit in `subs` until resolved. A sub-op is either *due
/// out* (just pulled, failed over, shed, or backed off after a
/// transient failure) or *flying*. [`run`](Self::run) is the one loop:
/// a due sub-op ships as soon as its daemon's window has room — landing
/// one of that daemon's flights makes the room; with nothing ready to go
/// and fewer than `room` sub-ops in the window the next op is pulled;
/// otherwise a flight of the daemon with the oldest one lands.
///
/// All of a daemon's flights share one [`Lane`], checked out when the
/// first ships and held until the pump is done: shipping queues a frame
/// on it, and before the pump blocks — to land, to sleep — it flushes
/// every lane with frames queued, so the frames shipped since the last
/// wait leave together, one write per daemon. Landing takes the lane's
/// *next* reply, whichever flight it answers (a daemon with several
/// workers answers in no particular order), and matches it to its
/// flight by request id.
///
/// A landed reply resolves its sub-op; a failed attempt is settled at
/// once — a read whose copy is unreachable *fails over* to its next
/// mirror (abandoning a dead copy is progress, not a retry: it consumes
/// no attempt and no backoff, so losing a daemon costs one timeout or
/// one fast breaker rejection, never a retry storm), a transient
/// failure is given a not-before instant and goes out again, that
/// sub-op alone, while its attempts and the stream's budget last — this
/// is the client's one retry loop, and nothing else waits for it — and
/// anything else fails the sub-op for good. A flight whose deadline
/// passes is given up on by itself: its id is remembered (`given_up`) so
/// that its reply, should it still come, is dropped, and the lane and
/// its other flights carry on. Only a failure of the lane itself (the
/// connection) fails every flight on it; the next frame for that daemon
/// checks out a fresh one.
///
/// A daemon's window is [`WINDOW`] until that daemon sheds: many
/// clients' windows share one bounded queue, and `Overloaded` is the
/// daemon saying this endpoint's share was too wide. Each shed halves
/// the window ([`HealthTracker::record_shed`]; it reopens with calm
/// traffic) and costs no attempt — the frame never ran, so it
/// goes again, after the stream's other flights at that daemon have
/// landed or, with none there to wait for, after a backoff.
struct Pump<'a, S: OpStream> {
    client: &'a ClusterClient,
    stream: &'a mut S,
    sole: bool,
    trace: Option<&'a ActiveTrace>,
    /// The window: first the sub-ops in the air, in ship order — so
    /// "oldest" is "first" — then those due out.
    subs: VecDeque<Sub>,
    /// How many of `subs` are in the air.
    flying: usize,
    /// The ops `subs` serve, a slab indexed by [`Sub::op`].
    ops: Vec<Option<Op<S::Ticket>>>,
    /// The daemons this stream has shipped to, each with its lane.
    lanes: Vec<PumpLane>,
    /// The requests last given up on with their lane still sound, whose
    /// replies may yet arrive on it (0, never a request's id, where
    /// there is none): a ring, overwritten oldest first.
    given_up: [RequestId; 4 * WINDOW],
    next_given_up: usize,
    /// The most sub-ops the window holds before it stops pulling.
    room: usize,
    /// The retry budget runs from this clock reading, across the whole
    /// stream.
    started: u64,
    backoff: Option<Backoff>,
    /// The stream has ended on an error: what is still in the air lands
    /// for the books alone.
    over: bool,
}

/// One daemon as the pump reaches it.
struct PumpLane {
    target: RpcTarget,
    /// Checked out by the first frame shipped; `None` again once it has
    /// failed.
    lane: Option<Box<dyn Lane>>,
}

/// One op in the window, from pull to the sink.
struct Op<K> {
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
struct Sub {
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

impl Sub {
    /// Span notes for this sub-op's attempt (none when the operation
    /// is untraced: nobody would read them).
    fn notes(&self, trace: Option<&ActiveTrace>) -> Vec<String> {
        let mut notes = Vec::new();
        if trace.is_none() {
            return notes;
        }
        if self.attempt > 1 {
            notes.push(format!("retry#{}", self.attempt));
        }
        if self.failed_over {
            notes.push("failover".into());
        }
        notes
    }
}

impl<S: OpStream> Pump<'_, S> {
    fn run(&mut self) -> PvfsResult<()> {
        let mut more = true;
        loop {
            let ready = |s: &Sub| s.not_before.is_none_or(|at| at <= now_ns());
            let due = (self.flying..self.subs.len()).find(|&at| ready(&self.subs[at]));
            if let Some(due) = due {
                let target = self.subs[due].target;
                if self.flying_at(target) < self.client.window(target) {
                    self.ship(due)?;
                } else {
                    self.land_at(target)?;
                }
            } else if more && self.subs.len() < self.room {
                match self.stream.next_op() {
                    Some(op) => self.admit(op),
                    None => more = false,
                }
            } else if self.flying > 0 {
                self.land_at(self.subs[0].target)?;
            } else if let Some(wake) = self.subs.iter().filter_map(|s| s.not_before).min() {
                // Nothing in the air and nothing to send yet: only now
                // does a backoff cost the stream any time.
                std::thread::sleep(clock::until(wake));
            } else {
                return Ok(());
            }
        }
    }

    /// This stream's flights in the air at `target`.
    fn flying_at(&self, target: RpcTarget) -> usize {
        let flights = self.subs.iter().take(self.flying);
        flights.filter(|s| s.target == target).count()
    }

    /// Take one op into the window: its sub-ops, due out. Without
    /// replication (or for a `sole` op, or a placement-free one —
    /// pings, barriers, scrapes) an op is its own single sub-op. Under
    /// replication a write becomes one sub-op per copy (the quorum
    /// decides when the last resolves), a read one sub-op aimed at the
    /// healthiest copy with the others as its failover chain.
    fn admit(&mut self, (target, request, ticket): (RpcTarget, Request, S::Ticket)) {
        let client = self.client;
        let map = &client.replica;
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
            backoff: client.retry.base_backoff,
            not_before: None,
            flight: None,
        };
        let mut copies = Vec::new();
        let mut quorum = false;
        match (target, request_layout(&request)) {
            (RpcTarget::Server(server), Some(layout)) if !self.sole && map.policy().enabled() => {
                let slot = pvfs_replica::slot_of_server(layout, server);
                debug_assert!(slot < layout.pcount, "op target is not in the layout");
                let mut targets = map.copies(layout, slot);
                quorum = request.op_class() == OpClass::Write;
                if !quorum {
                    targets.sort_by_key(|t| client.read_copy_key(*t));
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

    /// Where `target`'s lane is kept (from the first frame shipped there
    /// on).
    fn lane_at(&self, target: RpcTarget) -> Option<usize> {
        self.lanes.iter().position(|l| l.target == target)
    }

    /// Ship the due sub-op at `at`: queued on its daemon's lane, it
    /// joins the flights, the newest.
    fn ship(&mut self, at: usize) -> PvfsResult<()> {
        let client = self.client;
        let mut sub = self.subs.remove(at).expect("a due sub-op");
        let request = op_of(&self.ops, &sub).request(&sub);
        // Control scrapes stay off the books on this side of the wire
        // too (the daemons already exclude them): scraping `stats` or a
        // trace must not advance the very counters being read.
        if !request.is_control_scrape() {
            client.stats.attempts.fetch_add(1, Ordering::Relaxed);
        }
        let notes = sub.notes(self.trace);
        let at = self.lane_at(sub.target).unwrap_or_else(|| {
            self.lanes.push(PumpLane {
                target: sub.target,
                lane: None,
            });
            self.lanes.len() - 1
        });
        let lane = &mut self.lanes[at].lane;
        match client.ship(sub.target, request, self.sole, lane, self.trace, notes) {
            Ok(flight) => {
                sub.flight = Some(flight);
                self.subs.insert(self.flying, sub);
                self.flying += 1;
                Ok(())
            }
            Err(e) => self.settle(sub, e),
        }
    }

    /// Land one of `target`'s flights: whichever its lane's next reply
    /// answers, or the oldest if none comes before that one's deadline.
    /// First every lane with frames queued is flushed — the pump is
    /// about to block. (A reply to a flight already given up on lands
    /// nothing, and is dropped.)
    fn land_at(&mut self, target: RpcTarget) -> PvfsResult<()> {
        self.flush()?;
        let mut theirs = (0..self.flying).filter(|&at| self.subs[at].target == target);
        let Some(oldest) = theirs.next() else {
            // The flush failed the lane, and its flights with it.
            return Ok(());
        };
        let flight = self.subs[oldest].flight.as_ref().expect("in the air");
        let (oldest_id, shipped) = (flight.id, flight.shipped);
        let (sole, recv_ns) = (self.sole, now_ns());
        // The deadline runs from ship time: a flight that waited its
        // turn behind others of its window has that much less left (a
        // reply already here is taken even with nothing left).
        let waited = Duration::from_nanos(recv_ns.saturating_sub(shipped));
        let left = (self.client.rpc_timeout).saturating_sub(waited);
        // A lane that fails takes its flights with it (`fail_lane`), so
        // a flight in the air has its lane.
        let lane = self
            .lane_at(target)
            .and_then(|at| self.lanes[at].lane.as_mut());
        let reply = match lane.expect("a flight's lane").recv(left) {
            Ok(reply) => reply,
            Err(WaitError::Timeout) => {
                self.given_up[self.next_given_up] = oldest_id;
                self.next_given_up = (self.next_given_up + 1) % self.given_up.len();
                let timeout = self.client.timed_out(oldest_id, target);
                return self.land(oldest, recv_ns, Err(timeout));
            }
            Err(WaitError::Lost(id, e)) => {
                return match self.flight_with(target, id) {
                    Some(at) => self.land(at, recv_ns, Err(blame(sole, target, id, e))),
                    None => Ok(()),
                };
            }
            Err(WaitError::Failed(e)) => return self.fail_lane(target, e),
        };
        let rid = decode_response_id(&reply.head);
        let decoded = decode_response_frame(reply);
        if let Some(id) = rid.filter(|rid| *rid != RequestId(0)) {
            if let Some(at) = self.flight_with(target, id) {
                let outcome = decoded
                    .map(|(_, response)| response)
                    .map_err(|e| blame(sole, target, id, e));
                return self.land(at, recv_ns, outcome);
            }
            if self.given_up.contains(&id) {
                return Ok(());
            }
        }
        // Unattributable (id 0), an id never shipped, no readable id at
        // all: the protocol error it is, charged to the daemon's oldest
        // flight — unless that is a lone RPC and this the error its
        // frame provoked.
        let outcome = decoded
            .map_err(|e| blame(sole, target, oldest_id, e))
            .and_then(|(rid, response)| attribute(target, oldest_id, rid, response, sole));
        self.land(oldest, recv_ns, outcome)
    }

    /// The flight in the air at `target` that went out as request `id`.
    fn flight_with(&self, target: RpcTarget, id: RequestId) -> Option<usize> {
        (0..self.flying).find(|&at| {
            let sub = &self.subs[at];
            sub.target == target && sub.flight.as_ref().is_some_and(|f| f.id == id)
        })
    }

    /// Push out every frame queued on a lane since its last flush (a
    /// lane with none has nothing to do). A lane that fails at it fails
    /// with all its flights.
    fn flush(&mut self) -> PvfsResult<()> {
        for at in 0..self.lanes.len() {
            let PumpLane { target, lane } = &mut self.lanes[at];
            if let Some(Err(e)) = lane.as_mut().map(|lane| lane.flush()) {
                let target = *target;
                self.fail_lane(target, e)?;
            }
        }
        Ok(())
    }

    /// `target`'s lane has failed with `e`: so has every flight on it.
    /// Should one of them end the stream, the rest still land, for the
    /// books.
    fn fail_lane(&mut self, target: RpcTarget, e: PvfsError) -> PvfsResult<()> {
        if let Some(at) = self.lane_at(target) {
            self.lanes[at].lane = None;
        }
        let mut result = Ok(());
        while let Some(at) = (0..self.flying).find(|&at| self.subs[at].target == target) {
            let id = self.subs[at].flight.as_ref().expect("in the air").id;
            let lost = Err(blame(self.sole, target, id, e.clone()));
            if let Err(ended) = self.land(at, now_ns(), lost) {
                self.over = true;
                result = result.and(Err(ended));
            }
        }
        result
    }

    /// Land the flight at `at`, waited for since `recv_ns`, with its
    /// `outcome`: out of the window, resolved or settled.
    fn land(&mut self, at: usize, recv_ns: u64, outcome: PvfsResult<Response>) -> PvfsResult<()> {
        let mut sub = self.subs.remove(at).expect("a sub-op in the window");
        let flight = sub.flight.take().expect("only flights land");
        self.flying -= 1;
        let request = op_of(&self.ops, &sub).request(&sub);
        let notes = sub.notes(self.trace);
        let (sole, trace) = (self.sole, self.trace);
        let landed = (self.client).land(
            flight, recv_ns, outcome, sub.target, request, sole, trace, notes,
        );
        match landed {
            _ if self.over => Ok(()),
            Ok(response) => self.resolve(sub, Ok(response)),
            Err(e) => self.settle(sub, e),
        }
    }

    /// Decide what becomes of a sub-op whose attempt failed with `e`:
    /// back into the window (re-aimed, shed, or backed off), or failed
    /// for good.
    fn settle(&mut self, mut sub: Sub, e: PvfsError) -> PvfsResult<()> {
        let client = self.client;
        let retry = client.retry;
        let now = now_ns();
        let left = retry
            .budget
            .saturating_sub(Duration::from_nanos(now - self.started));
        let op = op_of(&self.ops, &sub);
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
                let delay = self
                    .backoff
                    .get_or_insert_with(|| client.new_backoff())
                    .next_delay(sub.backoff)
                    .min(left);
                sub.not_before = Some(now.saturating_add(clock::nanos(delay)));
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
        Ok(())
    }

    /// Book a sub-op's final outcome with its op, and hand the op to
    /// the stream once its last sub-op is in.
    fn resolve(&mut self, sub: Sub, outcome: PvfsResult<Response>) -> PvfsResult<()> {
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
            return Ok(());
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
        let map = &self.client.replica;
        let required = if quorum { map.policy().required() } else { 1 };
        if acks < required {
            let e = error.expect("an op short of its acks lost a sub-op");
            return self.stream.failed(ticket, e);
        }
        if quorum {
            if acks < map.replicas() {
                // Quorum met but a copy missed the write: divergence
                // for a later scrub to repair.
                self.client
                    .stats
                    .quorum_shortfalls
                    .fetch_add(1, Ordering::Relaxed);
            }
            if let Some(a) = self.trace {
                a.annotate(format!("quorum_ack:{acks}/{}", map.replicas()));
            }
        }
        let response = response.expect("an acknowledged op has a response");
        self.stream.landed(ticket, response)
    }

    /// The stream ended on an error with sub-ops still in the window:
    /// those due out never go, and what is in the air is landed for the
    /// books alone (latency, health, spans, each lane answered in full
    /// so that its connection can go back in its pool) — the stream
    /// hears no more of it.
    fn wind_down(&mut self) {
        self.over = true;
        self.subs.truncate(self.flying);
        while self.flying > 0 {
            let _ = self.land_at(self.subs[0].target);
        }
    }
}

/// The op a sub-op in the window serves.
fn op_of<'o, K>(ops: &'o [Option<Op<K>>], sub: &Sub) -> &'o Op<K> {
    ops[sub.op]
        .as_ref()
        .expect("a sub-op's op is in the window")
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::Door;
    use crate::transport::ChanTransport;
    use crate::LiveCluster;
    use pvfs_proto::{decode_frame, decode_frame_id, encode_response};
    use pvfs_replica::WriteQuorum;
    use pvfs_server::IodConfig;
    use pvfs_types::{FileHandle, Region, RegionList, StripeLayout};

    fn layout(n: u32) -> StripeLayout {
        StripeLayout::new(0, n, 16).unwrap()
    }

    /// A client whose single "server 0" is the given bare door (the
    /// manager slot is a dead end); for protocol-violation tests.
    fn client_over(fake_tx: Arc<Door>) -> ClusterClient {
        client_over_all(vec![fake_tx])
    }

    /// Likewise, with one bare door per server.
    fn client_over_all(mut doors: Vec<Arc<Door>>) -> ClusterClient {
        // Its far end drops: these tests never address the manager.
        doors.push(Door::bare(1).0);
        ClusterClient::with_transport(
            ClientId(9),
            Arc::new(ChanTransport::new(doors)),
            Arc::new(SerialGate::new()),
        )
    }

    #[test]
    fn create_open_close_through_manager() {
        let cluster = LiveCluster::spawn(2);
        let c = cluster.client();
        let resp = c
            .call(
                RpcTarget::Manager,
                Request::Create {
                    path: "/pvfs/x".into(),
                    layout: layout(2),
                },
            )
            .unwrap();
        let handle = match resp {
            Response::Created { handle } => handle,
            other => panic!("unexpected {other:?}"),
        };
        match c
            .call(
                RpcTarget::Manager,
                Request::Open {
                    path: "/pvfs/x".into(),
                },
            )
            .unwrap()
        {
            Response::Opened { handle: h, .. } => assert_eq!(h, handle),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            c.call(RpcTarget::Manager, Request::Close { handle })
                .unwrap(),
            Response::Closed
        );
    }

    #[test]
    fn server_errors_surface_as_err() {
        let cluster = LiveCluster::spawn(1);
        let c = cluster.client();
        let err = c
            .call(
                RpcTarget::Manager,
                Request::Open {
                    path: "/missing".into(),
                },
            )
            .unwrap_err();
        assert!(matches!(err, PvfsError::NoSuchFile(_)));
    }

    #[test]
    fn data_write_read_through_threads() {
        let cluster = LiveCluster::spawn(4);
        let c = cluster.client();
        let l = layout(4);
        let fh = FileHandle(9);
        // Write 16 bytes entirely on server 0 (first stripe).
        let resp = c
            .call(
                RpcTarget::Server(ServerId(0)),
                Request::Write {
                    handle: fh,
                    layout: l,
                    region: Region::new(0, 16),
                    data: Bytes::from(vec![5u8; 16]),
                },
            )
            .unwrap();
        assert_eq!(resp, Response::Written { bytes: 16 });
        match c
            .call(
                RpcTarget::Server(ServerId(0)),
                Request::Read {
                    handle: fh,
                    layout: l,
                    region: Region::new(0, 16),
                },
            )
            .unwrap()
        {
            Response::Data { data } => assert_eq!(data.as_ref(), &[5u8; 16][..]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn round_fans_out_to_all_servers() {
        let cluster = LiveCluster::spawn(4);
        let c = cluster.client();
        let l = layout(4);
        let fh = FileHandle(3);
        let requests: Vec<(ServerId, Request)> = (0..4)
            .map(|i| {
                (
                    ServerId(i),
                    Request::Read {
                        handle: fh,
                        layout: l,
                        region: Region::new(0, 64),
                    },
                )
            })
            .collect();
        let responses = c.round(requests).unwrap();
        assert_eq!(responses.len(), 4);
        for r in responses {
            match r {
                Response::Data { data } => assert_eq!(data.len(), 16),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_server_is_an_error() {
        let cluster = LiveCluster::spawn(2);
        let c = cluster.client();
        let err = c
            .call(
                RpcTarget::Server(ServerId(7)),
                Request::GetLocalSize {
                    handle: FileHandle(1),
                },
            )
            .unwrap_err();
        assert!(matches!(err, PvfsError::NoSuchServer(7)));
    }

    #[test]
    fn clients_have_unique_ids() {
        let cluster = LiveCluster::spawn(1);
        let a = cluster.client();
        let b = cluster.client();
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn concurrent_clients_do_not_interfere() {
        let cluster = LiveCluster::spawn(4);
        let l = layout(4);
        let mut handles = Vec::new();
        for k in 0..8u64 {
            let c = cluster.client();
            handles.push(std::thread::spawn(move || {
                let fh = FileHandle(100 + k);
                let payload = vec![k as u8; 16];
                c.call(
                    RpcTarget::Server(ServerId(0)),
                    Request::Write {
                        handle: fh,
                        layout: l,
                        region: Region::new(0, 16),
                        data: Bytes::from(payload.clone()),
                    },
                )
                .unwrap();
                match c
                    .call(
                        RpcTarget::Server(ServerId(0)),
                        Request::Read {
                            handle: fh,
                            layout: l,
                            region: Region::new(0, 16),
                        },
                    )
                    .unwrap()
                {
                    Response::Data { data } => assert_eq!(data.as_ref(), &payload[..]),
                    other => panic!("unexpected {other:?}"),
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    /// A live daemon moves bytes and prices nothing: the buffer-cache and
    /// disk models are the simulator's.
    #[test]
    fn a_live_daemon_runs_no_cost_model() {
        let cluster = LiveCluster::spawn(1);
        let c = cluster.client();
        let l = StripeLayout::new(0, 1, 4096).unwrap();
        let (handle, region) = (FileHandle(1), Region::new(0, 8192));
        let data = Bytes::from(vec![3u8; 8192]);
        let target = RpcTarget::Server(ServerId(0));
        let write = Request::Write {
            handle,
            layout: l,
            region,
            data,
        };
        c.call(target, write).unwrap();
        let read = Request::Read {
            handle,
            layout: l,
            region,
        };
        c.call(target, read).unwrap();
        let daemon = cluster.daemon(ServerId(0)).unwrap();
        daemon.flush_handle(handle);
        let cache = daemon.with_local_file(handle, |f| f.cache_stats());
        assert_eq!(cache, Some(pvfs_disk::cache::CacheStats::default()));
        let meter = daemon.with_local_file(handle, pvfs_disk::LocalFile::meter);
        assert_eq!(meter, Some(pvfs_disk::CostReport::default()));
    }

    #[test]
    fn stats_are_observable() {
        let cluster = LiveCluster::spawn(1);
        let c = cluster.client();
        c.call(
            RpcTarget::Server(ServerId(0)),
            Request::GetLocalSize {
                handle: FileHandle(1),
            },
        )
        .unwrap();
        let stats = cluster.stats_snapshot(ServerId(0)).unwrap();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.frames_rx, 1, "one RPC is one wire frame");
        assert!(stats.bytes_rx > 0);
        assert!(stats.bytes_tx > 0);
        assert!(cluster.stats_snapshot(ServerId(5)).is_none());
    }

    /// A frame whose header parses but whose body is garbage must come
    /// back as an error response carrying the *real* request id — never
    /// the wildcard 0 that earlier versions let match any request.
    #[test]
    fn corrupted_body_reply_echoes_real_request_id() {
        let cluster = LiveCluster::spawn(1);
        let c = cluster.client();
        let (id, frame) = c
            .encode(
                &Request::Read {
                    handle: FileHandle(1),
                    layout: layout(1),
                    region: Region::new(0, 16),
                },
                None,
            )
            .unwrap();
        assert_ne!(id, RequestId(0), "request ids must never be 0");
        // Truncate the body (keep the 16-byte header + a few bytes) so
        // decode_message fails but decode_frame_id succeeds.
        let corrupted = Frame::from(frame.head.slice(0..20));
        let raw = cluster
            .transport()
            .dispatch(RpcTarget::Server(ServerId(0)), corrupted)
            .unwrap()
            .recv(Duration::from_secs(5))
            .unwrap();
        let (rid, response) = decode_response_frame(raw).unwrap();
        assert_eq!(rid, id, "server must echo the request id from the header");
        assert!(matches!(response, Response::Error(PvfsError::Protocol(_))));
    }

    /// A frame too short to even carry a header gets the reserved id 0.
    #[test]
    fn headerless_garbage_reply_uses_reserved_id() {
        let cluster = LiveCluster::spawn(1);
        let raw = cluster
            .transport()
            .dispatch(
                RpcTarget::Server(ServerId(0)),
                Bytes::from(vec![0xffu8; 7]).into(),
            )
            .unwrap()
            .recv(Duration::from_secs(5))
            .unwrap();
        let (rid, response) = decode_response_frame(raw).unwrap();
        assert_eq!(rid, RequestId(0));
        assert!(matches!(response, Response::Error(_)));
    }

    /// round() must treat an id-0 response as a hard protocol error:
    /// with several requests in flight it cannot be attributed.
    #[test]
    fn round_rejects_unattributable_responses() {
        // A fake server that answers everything with id 0.
        let (fake_tx, fake_rx) = Door::bare(8);
        let fake = std::thread::spawn(move || {
            while let Some((_, reply)) = fake_rx() {
                reply.send(encode_response(
                    RequestId(0),
                    &Response::Error(PvfsError::protocol("scrambled")),
                ));
            }
        });
        let c = client_over(fake_tx);
        let err = c
            .round(vec![(
                ServerId(0),
                Request::GetLocalSize {
                    handle: FileHandle(1),
                },
            )])
            .unwrap_err();
        match err {
            PvfsError::Protocol(m) => {
                assert!(m.contains("id 0"), "diagnostic should name id 0: {m}");
                assert!(m.contains("iod0"), "diagnostic should name the server: {m}");
            }
            other => panic!("expected protocol error, got {other:?}"),
        }
        drop(c);
        fake.join().unwrap();
    }

    /// The client takes a frame's buffers back when the flight has
    /// landed and the op resolved — but only as the last holder. A daemon
    /// that sits on a frame past the client's deadline still holds its
    /// head and its payload when the client gives up on it: neither may
    /// ever be written again, however many requests follow.
    #[test]
    fn a_frame_the_daemon_still_holds_is_never_handed_out_again() {
        const LEN: usize = 256;
        let (fake_tx, fake_rx) = Door::bare(8);
        // Every third request is held, frame and all, unanswered (and its
        // reply handle kept, so the client hears nothing: a timeout).
        let fake = std::thread::spawn(move || {
            let mut held = Vec::new();
            while let Some((frame, reply)) = fake_rx() {
                let id = decode_frame_id(&frame.head).unwrap();
                if frame.payload[0] % 3 == 0 {
                    held.push((frame, reply));
                } else {
                    let bytes = frame.payload.len() as u64;
                    drop(frame);
                    reply.send(encode_response(id, &Response::Written { bytes }));
                }
            }
            held
        });
        let c = client_over(fake_tx)
            .with_rpc_timeout(Duration::from_millis(20))
            .with_retry_policy(RetryPolicy::none());
        let write = |i: u8, data: Bytes| Request::Write {
            handle: FileHandle(1),
            layout: layout(1),
            region: Region::new(i as u64 * LEN as u64, LEN as u64),
            data,
        };
        // (Ten times the client's window: every spare it keeps goes
        // round several times — `tests/alloc_budget.rs` counts that.)
        for i in 0..40u8 {
            let mut payload = c.payload_buffer(LEN);
            payload.clear();
            payload.extend_from_slice(&[i; LEN]);
            let outcome = c.call(ServerId(0).into(), write(i, payload.freeze()));
            match i % 3 {
                0 => assert!(matches!(outcome, Err(PvfsError::Timeout(_))), "{outcome:?}"),
                _ => assert_eq!(outcome, Ok(Response::Written { bytes: LEN as u64 })),
            }
        }
        drop(c);
        // What the daemon held is, to the byte, what was sent.
        let held = fake.join().unwrap();
        assert_eq!(held.len(), 14);
        for (n, (frame, _)) in held.into_iter().enumerate() {
            let i = 3 * n as u8;
            let (message, _) = decode_frame(frame).unwrap();
            assert_eq!(message.client, ClientId(9));
            assert_eq!(message.request, write(i, Bytes::from(vec![i; LEN])));
        }
    }

    /// round() must reject a response whose id belongs to a *different*
    /// request (the misattribution the old wildcard allowed).
    #[test]
    fn round_rejects_mismatched_response_id() {
        let (fake_tx, fake_rx) = Door::bare(8);
        let fake = std::thread::spawn(move || {
            while let Some((frame, reply)) = fake_rx() {
                // Echo a *wrong* (but nonzero) id.
                let id = decode_frame_id(&frame.head).unwrap();
                reply.send(encode_response(
                    RequestId(id.0 + 1000),
                    &Response::LocalSize { size: 0 },
                ));
            }
        });
        let c = client_over(fake_tx);
        let err = c
            .round(vec![(
                ServerId(0),
                Request::GetLocalSize {
                    handle: FileHandle(1),
                },
            )])
            .unwrap_err();
        assert!(
            matches!(&err, PvfsError::Protocol(m) if m.contains("mismatched")),
            "got {err:?}"
        );
        drop(c);
        fake.join().unwrap();
    }

    /// A daemon that answers — even with an error — is alive: on the
    /// round path, as on `call`, its reply clears the failure streak.
    /// Two lost replies, one `InvalidArgument` reply, one more lost
    /// reply is a streak of 2 + 1, never the 3 that trip the breaker.
    #[test]
    fn round_counts_an_error_reply_as_a_sign_of_life() {
        let (fake_tx, fake_rx) = Door::bare(8);
        let fake = std::thread::spawn(move || {
            let mut seen = 0;
            while let Some((frame, reply)) = fake_rx() {
                seen += 1;
                if seen == 3 {
                    let id = decode_frame_id(&frame.head).unwrap();
                    let refusal = Response::Error(PvfsError::invalid("no such region"));
                    reply.send(encode_response(id, &refusal));
                }
                // Otherwise the reply channel drops unanswered.
            }
        });
        let c = client_over(fake_tx)
            .with_retry_policy(RetryPolicy::none())
            .with_breaker_policy(BreakerPolicy {
                threshold: 3,
                open_for: Duration::from_secs(60),
            });
        let errors: Vec<PvfsError> = (0..4)
            .map(|_| {
                let handle = FileHandle(1);
                c.round(vec![(ServerId(0), Request::GetLocalSize { handle })])
                    .unwrap_err()
            })
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
            c.health().total_trips(),
            0,
            "the error reply broke the streak"
        );
        assert_eq!(c.health().state(ServerId(0)), BreakerState::Closed);
        drop(c);
        fake.join().unwrap();
    }

    /// A round in which one daemon is silent and another refuses
    /// outright fails with the refusal — the error that decided it —
    /// whatever else is pending: a retry of the silent op (r = 1) or
    /// its failover to a mirror (r = 2), which has no error of its own
    /// to report.
    #[test]
    fn round_surfaces_the_refusal_over_a_pending_retry_or_failover() {
        for replicas in [1, 2] {
            let (silent_tx, silent_rx) = Door::bare(8);
            let (refusing_tx, refusing_rx) = Door::bare(8);
            let silent = std::thread::spawn(move || {
                // Every reply channel drops unanswered.
                while silent_rx().is_some() {}
            });
            let refusing = std::thread::spawn(move || {
                while let Some((frame, reply)) = refusing_rx() {
                    let id = decode_frame_id(&frame.head).unwrap();
                    let refusal = Response::Error(PvfsError::invalid("no such region"));
                    reply.send(encode_response(id, &refusal));
                }
            });
            let policy = ReplicaPolicy::new(replicas, WriteQuorum::All, 2).unwrap();
            let c = client_over_all(vec![silent_tx, refusing_tx])
                .with_retry_policy(RetryPolicy::default())
                .with_breaker_policy(BreakerPolicy::off())
                .with_replica_policy(policy);
            let read = |server| {
                let request = Request::Read {
                    handle: FileHandle(1),
                    layout: layout(2),
                    region: Region::new(0, 32),
                };
                (ServerId(server), request)
            };
            let err = c.round(vec![read(0), read(1)]).unwrap_err();
            assert!(
                matches!(&err, PvfsError::InvalidArgument(m) if m.contains("iod1")),
                "r = {replicas}: got {err:?}"
            );
            assert_eq!(c.stats().replica_failovers, u64::from(replicas - 1));
            drop(c);
            silent.join().unwrap();
            refusing.join().unwrap();
        }
    }

    /// `attribute` is where `sole` meets the reserved id: a lone RPC
    /// takes an id-0 *error* as its own (and nothing else under id 0);
    /// one of several in flight takes nothing it cannot prove is its.
    #[test]
    fn only_a_lone_rpc_takes_an_unattributable_error_as_its_own() {
        let target = RpcTarget::Server(ServerId(0));
        let (id, zero) = (RequestId(7), RequestId(0));
        let error = || Response::Error(PvfsError::protocol("scrambled"));
        let size = Response::LocalSize { size: 0 };
        assert_eq!(
            attribute(target, id, id, size.clone(), false),
            Ok(size.clone())
        );
        assert_eq!(attribute(target, id, zero, error(), true), Ok(error()));
        for (rid, response, lone, names) in [
            (zero, error(), false, "id 0 (server error"),
            (zero, size.clone(), true, "id 0 (response"),
            (
                RequestId(8),
                size.clone(),
                true,
                "mismatched response id req8",
            ),
        ] {
            match attribute(target, id, rid, response, lone) {
                Err(PvfsError::Protocol(m)) => {
                    assert!(
                        m.contains(names) && m.contains("iod0 answered request req7"),
                        "{m}"
                    )
                }
                other => panic!("expected a protocol error, got {other:?}"),
            }
        }
    }

    /// A server that never replies must yield PvfsError::Timeout, not a
    /// hang.
    #[test]
    fn wedged_server_rpc_times_out() {
        // A "server" that accepts requests and never answers. Breaker
        // off: this test pins the *timeout* path; with the default
        // breaker the retries' timeouts would open the circuit and the
        // second call would surface `Unavailable` instead.
        let (wedged_tx, wedged_rx) = Door::bare(8);
        let c = client_over(wedged_tx)
            .with_rpc_timeout(Duration::from_millis(50))
            .with_breaker_policy(BreakerPolicy::off());
        let err = c
            .call(
                RpcTarget::Server(ServerId(0)),
                Request::GetLocalSize {
                    handle: FileHandle(1),
                },
            )
            .unwrap_err();
        assert!(matches!(err, PvfsError::Timeout(_)), "got {err:?}");
        // Same on the fan-out path.
        let err = c
            .round(vec![(
                ServerId(0),
                Request::GetLocalSize {
                    handle: FileHandle(1),
                },
            )])
            .unwrap_err();
        assert!(matches!(err, PvfsError::Timeout(_)), "got {err:?}");
        drop(wedged_rx);
    }

    /// The deadline of an RPC runs from when its frame left, not from
    /// when the client got round to waiting for it: a round to four
    /// wedged daemons fails in one timeout — each later wait finds its
    /// budget already spent — where a fresh budget per wait made it
    /// four.
    #[test]
    fn the_rpc_deadline_runs_from_ship_time() {
        let timeout = Duration::from_millis(100);
        let (txs, _wedged): (Vec<_>, Vec<_>) = (0..4).map(|_| Door::bare(8)).unzip();
        let c = client_over_all(txs)
            .with_rpc_timeout(timeout)
            .with_retry_policy(RetryPolicy::none())
            .with_breaker_policy(BreakerPolicy::off());
        let size = |s| {
            let handle = FileHandle(1);
            (ServerId(s), Request::GetLocalSize { handle })
        };
        let started = now_ns();
        let err = c.round((0..4).map(size).collect()).unwrap_err();
        let elapsed = clock::since(started);
        assert!(
            matches!(&err, PvfsError::Timeout(m) if m.contains("iod0")),
            "the first op to time out is the round's error, got {err:?}"
        );
        assert!(
            timeout <= elapsed && elapsed < timeout * 5 / 2,
            "four wedged daemons cost one {timeout:?} deadline, not four (took {elapsed:?})"
        );
    }

    /// What a [`Recorder`] saw: per daemon, the flights in the air now
    /// (`queued`: those of them not shed) and the most there ever were;
    /// overall, frames started, replies collected, and how many had
    /// been collected when the last frame started.
    #[derive(Default)]
    struct Book {
        flying: Vec<usize>,
        queued: Vec<usize>,
        peak: Vec<usize>,
        started: usize,
        collected: usize,
        collected_at_last_start: usize,
    }

    /// A transport with no daemons behind it: every frame is answered
    /// on the spot, with what `answer` makes of the book as the frame
    /// finds it (`started` is its index, counted over all daemons from
    /// 0) and the daemon it goes to.
    struct Recorder {
        book: Arc<std::sync::Mutex<Book>>,
        answer: fn(&Book, usize) -> Response,
    }

    const SIZE: Response = Response::LocalSize { size: 7 };

    /// A [`Recorder`]'s lane to one daemon: the answers to the frames
    /// sent on it and not yet collected, each with whether its frame
    /// was queued (not shed).
    struct Recorded {
        book: Arc<std::sync::Mutex<Book>>,
        answer: fn(&Book, usize) -> Response,
        server: usize,
        replies: VecDeque<(usize, Bytes)>,
    }

    impl Recorder {
        fn over(daemons: usize, answer: fn(&Book, usize) -> Response) -> Recorder {
            let book = Book {
                flying: vec![0; daemons],
                queued: vec![0; daemons],
                peak: vec![0; daemons],
                ..Book::default()
            };
            Recorder {
                book: Arc::new(std::sync::Mutex::new(book)),
                answer,
            }
        }
    }

    impl Transport for Recorder {
        fn n_servers(&self) -> u32 {
            self.book.lock().unwrap().flying.len() as u32
        }

        fn lane(&self, target: RpcTarget) -> PvfsResult<Box<dyn Lane>> {
            let RpcTarget::Server(server) = target else {
                panic!("only daemons are addressed here");
            };
            Ok(Box::new(Recorded {
                book: self.book.clone(),
                answer: self.answer,
                server: server.index(),
                replies: VecDeque::new(),
            }))
        }

        fn kind(&self) -> crate::TransportKind {
            crate::TransportKind::Chan
        }
    }

    impl Lane for Recorded {
        fn send(&mut self, frame: Frame) -> PvfsResult<()> {
            let server = self.server;
            let mut book = self.book.lock().unwrap();
            let response = (self.answer)(&book, server);
            book.collected_at_last_start = book.collected;
            let shed = matches!(response, Response::Error(PvfsError::Overloaded { .. }));
            let queued = usize::from(!shed);
            book.started += 1;
            book.flying[server] += 1;
            book.queued[server] += queued;
            book.peak[server] = book.peak[server].max(book.flying[server]);
            let reply = encode_response(decode_frame_id(&frame.head).unwrap(), &response);
            self.replies.push_back((queued, reply));
            Ok(())
        }

        fn flush(&mut self) -> PvfsResult<()> {
            Ok(())
        }

        fn recv(&mut self, _: Duration) -> Result<Frame, WaitError> {
            let (queued, reply) = self.replies.pop_front().ok_or(WaitError::Timeout)?;
            let mut book = self.book.lock().unwrap();
            book.flying[self.server] -= 1;
            book.queued[self.server] -= queued;
            book.collected += 1;
            Ok(reply.into())
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

    fn client_recorded(recorder: Recorder) -> (ClusterClient, Arc<std::sync::Mutex<Book>>) {
        let book = recorder.book.clone();
        let gate = Arc::new(SerialGate::new());
        let c = ClusterClient::with_transport(ClientId(9), Arc::new(recorder), gate);
        (c, book)
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
            let (c, book) = client_recorded(Recorder::over(4, |_, _| SIZE));
            let mut dealt = Dealt::new(4, ops);
            c.stream_in(&mut dealt, None).unwrap();
            assert_eq!((dealt.pulled, dealt.landed), (ops, ops));
            assert_eq!(dealt.most_ahead, WINDOW * 4, "{ops} ops");
            let book = book.lock().unwrap();
            assert_eq!(book.peak, [WINDOW; 4], "{ops} ops");
            assert_eq!((book.started, book.collected), (ops, ops));
            assert_eq!(c.stats().retries, 0);
        }
    }

    /// An op that fails for good mid-stream ends the stream with *its*
    /// error; from then on nothing is pulled and nothing is shipped,
    /// and what was in the air is collected, not left hanging.
    #[test]
    fn a_doomed_op_ends_the_stream_with_its_error_and_nothing_more_is_pulled() {
        let (c, book) = client_recorded(Recorder::over(4, |book, _| match book.started {
            21 => Response::Error(PvfsError::invalid("no such region")),
            _ => SIZE,
        }));
        let mut dealt = Dealt::new(4, 64);
        let err = c.stream_in(&mut dealt, None).unwrap_err();
        assert!(
            matches!(&err, PvfsError::InvalidArgument(m) if m.contains("iod1")),
            "frame 21 went to iod1 and was refused, got {err:?}"
        );
        assert_eq!(dealt.pulled_at_failure, Some(dealt.pulled));
        assert!(dealt.pulled < 64 && dealt.landed < dealt.pulled);
        let book = book.lock().unwrap();
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
        fn shed_beyond_two(book: &Book, server: usize) -> Response {
            if book.queued[server] < 2 {
                return SIZE;
            }
            Response::Error(PvfsError::Overloaded {
                server: server as u32,
                queue_depth: 2,
            })
        }
        let (c, book) = client_recorded(Recorder::over(4, shed_beyond_two));
        let c = c.with_retry_policy(RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        });
        let mut dealt = Dealt::new(4, 64);
        c.stream_in(&mut dealt, None).unwrap();
        assert_eq!(dealt.landed, 64);
        // Per daemon: the third and fourth frame of the first window.
        let stats = c.stats();
        assert_eq!((stats.sheds_seen, stats.retries), (8, 8));
        assert_eq!((stats.attempts, stats.backoff_ms), (72, 0));
        assert_eq!(book.lock().unwrap().started, 72);
        for s in 0..4 {
            assert_eq!(c.health().window(ServerId(s)), 1, "4 → 2 → 1 on iod{s}");
        }

        book.lock().unwrap().peak = vec![0; 4];
        let mut dealt = Dealt::new(4, 64);
        c.stream_in(&mut dealt, None).unwrap();
        assert_eq!(dealt.landed, 64);
        assert_eq!(c.stats().sheds_seen, 8, "the narrowed window fits");
        assert_eq!(book.lock().unwrap().peak, [1; 4]);

        // A refusal served nothing, and how fast it came says nothing of
        // the daemon: the 8 sheds above left no latency sample, nor does
        // one more, alone (other clients fill iod0's queue), which
        // leaves the daemon looking no faster than before it.
        assert_eq!(c.stats().rpc_latency.count(), 128, "the served replies");
        book.lock().unwrap().queued[0] = 2;
        let ewma = c.health().ewma(ServerId(0));
        let handle = FileHandle(1);
        let shed = (c.clone().with_retry_policy(RetryPolicy::none()))
            .round(vec![(ServerId(0), Request::GetLocalSize { handle })]);
        assert!(
            matches!(shed, Err(PvfsError::Overloaded { .. })),
            "{shed:?}"
        );
        assert_eq!(c.stats().sheds_seen, 9);
        assert_eq!(c.stats().rpc_latency.count(), 128);
        assert_eq!(c.health().ewma(ServerId(0)), ewma);
    }

    /// A shed with nothing of the stream at that daemon to wait for is
    /// the one that backs off — and still spends no attempt: five in a
    /// row are absorbed by a policy of four attempts. With retries off
    /// a shed surfaces like any other error.
    #[test]
    fn a_lone_shed_backs_off_without_spending_an_attempt() {
        fn shed_the_first_five(book: &Book, server: usize) -> Response {
            if book.started >= 5 {
                return SIZE;
            }
            Response::Error(PvfsError::Overloaded {
                server: server as u32,
                queue_depth: 64,
            })
        }
        let size = Request::GetLocalSize {
            handle: FileHandle(1),
        };
        let (c, book) = client_recorded(Recorder::over(1, shed_the_first_five));
        assert_eq!(c.retry_policy().max_attempts, 4);
        assert_eq!(c.call(ServerId(0).into(), size.clone()).unwrap(), SIZE);
        let stats = c.stats();
        assert_eq!((stats.attempts, stats.retries), (6, 5));
        assert!(stats.backoff_ms >= 5, "five backoffs of 1 ms at least");

        book.lock().unwrap().started = 0;
        let c = c.with_retry_policy(RetryPolicy::none());
        let err = c.call(ServerId(0).into(), size).unwrap_err();
        assert!(matches!(err, PvfsError::Overloaded { .. }), "got {err:?}");
    }

    /// A backed-off sub-op stalls nobody: while the one failed frame of
    /// a stream waits out its 50 ms, every other op ships and lands, so
    /// when it goes out again it is the only one left.
    #[test]
    fn the_window_flies_on_while_a_failed_frame_backs_off() {
        let (c, book) = client_recorded(Recorder::over(4, |book, _| match book.started {
            5 => Response::Error(PvfsError::Transport("connection reset".into())),
            _ => SIZE,
        }));
        let backoff = Duration::from_millis(50);
        let c = c.with_retry_policy(RetryPolicy {
            base_backoff: backoff,
            max_backoff: backoff,
            ..RetryPolicy::default()
        });
        let mut dealt = Dealt::new(4, 64);
        let started = now_ns();
        c.stream_in(&mut dealt, None).unwrap();
        assert!(clock::since(started) >= backoff);
        assert_eq!((dealt.landed, c.stats().retries), (64, 1));
        let book = book.lock().unwrap();
        assert_eq!(book.started, 65);
        assert_eq!(
            book.collected_at_last_start, 64,
            "the re-sent frame left last, after the other 63 had landed"
        );
    }

    /// Stress: many clients hammer shared handles with contiguous and
    /// list I/O across every server; per-server stats must account for
    /// every request exactly (nothing lost, duplicated, or
    /// misattributed by the worker pools).
    #[test]
    fn pooled_servers_account_for_every_request_exactly() {
        const CLIENTS: u64 = 8;
        const ROUNDS: u64 = 10;
        let config = IodConfig {
            workers: 4,
            queue_depth: 16,
            ..IodConfig::default()
        };
        let cluster = LiveCluster::spawn_with(4, config);
        let l = layout(4);
        let mut handles = Vec::new();
        for k in 0..CLIENTS {
            let c = cluster.client();
            handles.push(std::thread::spawn(move || {
                // Half the clients share a handle; the rest get their own.
                let fh = FileHandle(if k % 2 == 0 { 7 } else { 700 + k });
                for r in 0..ROUNDS {
                    // One contiguous write on each server's first stripe.
                    for s in 0..4u32 {
                        let off = s as u64 * 16;
                        c.call(
                            RpcTarget::Server(ServerId(s)),
                            Request::Write {
                                handle: fh,
                                layout: l,
                                region: Region::new(off, 16),
                                data: Bytes::from(vec![(k + r) as u8; 16]),
                            },
                        )
                        .unwrap();
                    }
                    // One fan-out list read over all four servers.
                    let regions = RegionList::from_pairs([(0u64, 64u64)]).unwrap();
                    let reqs = (0..4u32)
                        .map(|s| {
                            (
                                ServerId(s),
                                Request::ReadList {
                                    handle: fh,
                                    layout: l,
                                    regions: regions.clone(),
                                },
                            )
                        })
                        .collect();
                    let responses = c.round(reqs).unwrap();
                    for resp in responses {
                        match resp {
                            Response::Data { data } => assert_eq!(data.len(), 16),
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for s in 0..4u32 {
            let stats = cluster.stats_snapshot(ServerId(s)).unwrap();
            assert_eq!(stats.requests, CLIENTS * ROUNDS * 2);
            assert_eq!(stats.contiguous_requests, CLIENTS * ROUNDS);
            assert_eq!(stats.list_requests, CLIENTS * ROUNDS);
            assert_eq!(stats.errors, 0);
            assert_eq!(stats.bytes_written, CLIENTS * ROUNDS * 16);
            assert_eq!(stats.bytes_read, CLIENTS * ROUNDS * 16);
            // Wire accounting: one frame per request, no matter the
            // transport; every frame carries at least its header.
            assert_eq!(stats.frames_rx, CLIENTS * ROUNDS * 2);
            assert!(stats.bytes_rx >= stats.frames_rx * 16);
            assert!(stats.bytes_tx > 0);
        }
    }

    /// With pooled (concurrent) servers, the SerialGate must still make
    /// client read-modify-write sections mutually exclusive: N clients
    /// each increment a shared counter byte M times under the gate, and
    /// no increment may be lost.
    #[test]
    fn serial_gate_excludes_rmw_sections_with_pooled_servers() {
        const CLIENTS: u64 = 6;
        const INCREMENTS: u64 = 20;
        let config = IodConfig {
            workers: 4,
            ..IodConfig::default()
        };
        let cluster = LiveCluster::spawn_with(1, config);
        let l = layout(1);
        let fh = FileHandle(1);
        let mut handles = Vec::new();
        for _ in 0..CLIENTS {
            let c = cluster.client();
            handles.push(std::thread::spawn(move || {
                for _ in 0..INCREMENTS {
                    c.gate().acquire();
                    let current = match c
                        .call(
                            RpcTarget::Server(ServerId(0)),
                            Request::Read {
                                handle: fh,
                                layout: l,
                                region: Region::new(0, 1),
                            },
                        )
                        .unwrap()
                    {
                        Response::Data { data } => data[0],
                        other => panic!("unexpected {other:?}"),
                    };
                    c.call(
                        RpcTarget::Server(ServerId(0)),
                        Request::Write {
                            handle: fh,
                            layout: l,
                            region: Region::new(0, 1),
                            data: Bytes::from(vec![current.wrapping_add(1)]),
                        },
                    )
                    .unwrap();
                    c.gate().release();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let final_value = match cluster
            .client()
            .call(
                RpcTarget::Server(ServerId(0)),
                Request::Read {
                    handle: fh,
                    layout: l,
                    region: Region::new(0, 1),
                },
            )
            .unwrap()
        {
            Response::Data { data } => data[0],
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(final_value as u64, CLIENTS * INCREMENTS);
    }
}
