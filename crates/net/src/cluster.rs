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
//! [`ClusterClient::stream_in`] — runs through one driver, `drive`, of
//! one [`Pump`] over the client's [`Endpoint`] (`pvfs_decide::pump` has
//! the window's rules). `drive` is the only client code that sends,
//! receives, reads the clock on the request path or sleeps. It keeps one
//! [`Lane`] per daemon it ships to while the stream runs, and flushes
//! every lane with frames queued before any wait, so the frames shipped
//! since the last wait leave together, one write per daemon. It starts
//! no thread and owns no channel.
//!
//! # RPC discipline
//!
//! Request ids start at 1; **id 0 is reserved** for responses that
//! cannot be attributed to a request (the frame's header itself was
//! unreadable). Servers echo the real request id on error responses
//! whenever the fixed header is parsable ([`pvfs_proto::decode_frame_id`]),
//! even if the body is corrupt. The pump matches each reply to its
//! flight by id ([`Pump::landed`]): a late reply is dropped, and an
//! id-0 reply to one of several flights is a hard protocol error. Every
//! RPC's deadline ([`Endpoint::with_rpc_timeout`], default
//! [`DEFAULT_RPC_TIMEOUT`]) bounds the **total** elapsed time from the
//! moment its frame left, however many partial reads its reply takes,
//! so a wedged server yields [`PvfsError::Timeout`] instead of hanging
//! the client, and several wedged servers cost one timeout.

use pvfs_decide::pump::{Action, Batch, Pump, Window};
use pvfs_decide::Endpoint;
use pvfs_proto::{Request, Response};
use pvfs_types::clock::now_ns;
use pvfs_types::{
    ClientId, ClientStats, PvfsError, PvfsResult, ServerId, TraceId, TraceMode, TraceTree,
};
use std::any::Any;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::gate::SerialGate;
use crate::trace::{ActiveTrace, Tracer};
use crate::transport::{Lane, RpcTarget, Transport, TransportKind, WaitError};

pub use pvfs_decide::{OpStream, DEFAULT_RPC_TIMEOUT, WINDOW};

/// A client endpoint of a [`LiveCluster`](crate::LiveCluster) (or any
/// [`Transport`]).
#[derive(Clone)]
pub struct ClusterClient {
    /// What the pumps read and book, shared by clones.
    endpoint: Endpoint,
    transport: Arc<dyn Transport>,
    gate: Arc<SerialGate>,
    /// Trace origin (`PVFS_TRACE`): sampling decisions, the client-side
    /// flight recorder, and the retained-trace index. Shared by clones.
    tracer: Arc<Tracer>,
    /// What streams run in, kept between them: at most one
    /// [`StreamState`] per ticket type, boxed as `Any`. Shared by clones.
    streams: Arc<Mutex<Vec<Box<dyn Any + Send>>>>,
}

/// What one stream runs in, its pump's window and its driver's lanes, is
/// not made per stream: a stream that is over leaves it to the next of
/// its kind (ticket type) — a `call`'s or `round`'s batch, the plan
/// executor's stretch — unless one of that kind is kept already, and a
/// stream makes its own only when none is kept, as one on a clone,
/// running beside another, does. So an endpoint keeps at most one per
/// kind of stream it runs.
type StreamState<K> = (Window<K>, Vec<(RpcTarget, Box<dyn Lane>)>);

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
        ClusterClient {
            endpoint: Endpoint::new(id, transport.n_servers()),
            transport,
            gate,
            tracer: Arc::new(Tracer::from_env(format!("client{}", id.0))),
            streams: Arc::default(),
        }
    }

    /// What this client decides by: its id, its deadline, retry,
    /// breaker and replication policies, and the per-daemon health and
    /// books it shares with its clones.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// This client with its endpoint re-tuned, say
    /// `client.with_endpoint(|e| e.with_rpc_timeout(t))`: each policy is
    /// set where it is kept, by [`Endpoint`]'s `with_*`.
    pub fn with_endpoint(mut self, f: impl FnOnce(Endpoint) -> Endpoint) -> ClusterClient {
        self.endpoint = f(self.endpoint);
        self
    }

    /// Number of I/O servers reachable.
    pub fn n_servers(&self) -> u32 {
        self.transport.n_servers()
    }

    /// Which transport this client speaks.
    pub fn transport_kind(&self) -> TransportKind {
        self.transport.kind()
    }

    /// The cluster's serialization gate.
    pub fn gate(&self) -> &SerialGate {
        &self.gate
    }

    /// This endpoint with an explicit trace mode (the usual way in is
    /// `PVFS_TRACE`). Existing clones keep the tracer they were built
    /// with; clones taken after this call share the new one.
    pub fn with_trace_mode(mut self, mode: TraceMode) -> ClusterClient {
        self.tracer = Arc::new(Tracer::new(mode, format!("client{}", self.endpoint.id().0)));
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

    /// Probe one daemon's liveness with the cheap [`Request::Ping`] RPC
    /// and return its current queue depth. The probe rides the ordinary
    /// call path on purpose: its outcome feeds the same breaker, and its
    /// round trip the same `rpc_latency`, as real traffic, so a
    /// background pinger doubles as a failure detector. A ping to an
    /// open-circuit daemon fails fast with `Unavailable` — use
    /// [`Endpoint::health`] to watch for the half-open window if
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
            ..self.endpoint.stats()
        }
    }

    /// One synchronous RPC, addressed literally: `request` goes to
    /// `target` as given, whatever the replication policy (`scrub`
    /// addresses specific copies this way). Errors returned by the
    /// server come back as `Err`; no reply within the deadline is
    /// [`PvfsError::Timeout`].
    /// Transient failures are retried under this endpoint's retry
    /// policy ([`Endpoint::with_retry_policy`]), each attempt on a fresh
    /// request id, as the [`Pump`] settles them.
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
    /// Failure diagnostics name the server and request id at fault. Only
    /// the *failed* ops are re-sent, and only to the servers that failed;
    /// a daemon whose breaker is open fails its ops at ship time with
    /// [`PvfsError::Unavailable`] while the others' ops run as usual; and
    /// with `PVFS_REPLICAS` > 1 a write fans out to every copy of its
    /// slot and a read fails over to the next mirror ([`Pump`] has the
    /// rules). The first deterministic error, ahead of any sibling's
    /// transient one, fails the round once the other ops have run their
    /// course.
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
    /// pulled only as the [`Pump`]'s window has room for them, and each
    /// reply is handed back as it lands. This is the plan executor's
    /// entry point: a stretch of independent rounds goes through with no
    /// barrier between them (and a million-round plan in O(window)
    /// memory). Everything [`ClusterClient::round`] says holds per op;
    /// the retry budget spans the stream. An op that fails for good goes
    /// to [`OpStream::failed`], which by default ends the stream with
    /// the op's own error.
    pub fn stream_in(
        &self,
        stream: &mut impl OpStream,
        trace: Option<&ActiveTrace>,
    ) -> PvfsResult<()> {
        self.drive(stream, false, trace)
    }

    /// The request pipeline — every RPC this endpoint makes runs here:
    /// the driver of one [`Pump`], which decides what this loop does.
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
        // A kept state is empty: valid whoever panicked holding the lock.
        let kept = || self.streams.lock().unwrap_or_else(|e| e.into_inner());
        let mine = |state: &Box<dyn Any + Send>| state.is::<StreamState<S::Ticket>>();
        let mut state: Box<StreamState<S::Ticket>> = {
            let mut kept = kept();
            let at = kept.iter().position(mine);
            at.and_then(|at| kept.swap_remove(at).downcast().ok())
                .unwrap_or_default()
        };
        // The daemons shipped to, each with its lane: checked out by the
        // first frame there, dropped when it fails, parked when the
        // stream is over.
        let (window, lanes) = &mut *state;
        let mut now = now_ns();
        let mut pump = Pump::new(&self.endpoint, stream, sole, trace, now, window);
        let result = loop {
            let action = pump.next(now);
            if let Action::Land { .. } | Action::WaitUntil(_) = action {
                // About to wait: what was shipped since the last wait
                // leaves now, one write per daemon, lent payloads out of
                // the pump's ops. A lane that fails at it is dropped, its
                // flights with it, and the pump decides again.
                let before = lanes.len();
                let mut at = 0;
                while at < lanes.len() {
                    match lanes[at].1.flush(&pump) {
                        Ok(()) => at += 1,
                        Err(e) => pump.lane_failed(lanes.swap_remove(at).0, e, now),
                    }
                }
                if lanes.len() < before {
                    continue;
                }
            }
            match action {
                Action::Ship { target, frame } => {
                    let sent = match lanes.iter_mut().find(|(t, _)| *t == target) {
                        Some((_, lane)) => lane.send(frame, &pump),
                        None => self.transport.lane(target).and_then(|mut lane| {
                            let sent = lane.send(frame, &pump);
                            lanes.push((target, lane));
                            sent
                        }),
                    };
                    now = now_ns();
                    pump.shipped(sent, now);
                }
                Action::Land { target, wait } => {
                    let at = lanes.iter().position(|(t, _)| *t == target);
                    let at = at.expect("a flight in the air has its lane");
                    let got = lanes[at].1.recv(wait, &mut pump);
                    if let Err(WaitError::Failed(_)) = got {
                        lanes.swap_remove(at);
                    }
                    now = now_ns();
                    pump.landed(target, got, now);
                }
                Action::WaitUntil(wake) => {
                    std::thread::sleep(Duration::from_nanos(wake.saturating_sub(now)));
                    now = now_ns();
                }
                Action::Done(result) => break result,
            }
        };
        // Kept empty: what an op left in a stream that failed is let go.
        window.0.clear();
        window.1.clear();
        lanes.drain(..).for_each(|(_, lane)| lane.park());
        let mut kept = kept();
        if !kept.iter().any(mine) {
            kept.push(state);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::Driver;
    use crate::transport::ChanTransport;
    use crate::LiveCluster;
    use bytes::Bytes;
    use pvfs_decide::pump::attribute;
    use pvfs_decide::{BreakerPolicy, RetryPolicy};
    use pvfs_proto::{
        decode_frame, decode_frame_id, decode_response_frame, encode_response, Frame,
    };
    use pvfs_server::IodConfig;
    use pvfs_types::{FileHandle, Region, RegionList, RequestId, StripeLayout};

    fn layout(n: u32) -> StripeLayout {
        StripeLayout::new(0, n, 16).unwrap()
    }

    /// A client whose single "server 0" is the given bare door (the
    /// manager slot is a dead end); for protocol-violation tests.
    fn client_over(fake_tx: Arc<Driver>) -> ClusterClient {
        client_over_all(vec![fake_tx])
    }

    /// Likewise, with one bare door per server.
    fn client_over_all(mut doors: Vec<Arc<Driver>>) -> ClusterClient {
        // Its far end drops: these tests never address the manager.
        doors.push(Driver::bare(1).0);
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
        assert_ne!(a.endpoint().id(), b.endpoint().id());
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
            .endpoint
            .encode(
                &Request::Read {
                    handle: FileHandle(1),
                    layout: layout(1),
                    region: Region::new(0, 16),
                },
                None,
                0,
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
            .recv(Duration::from_secs(5), &mut ())
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
            .recv(Duration::from_secs(5), &mut ())
            .unwrap();
        let (rid, response) = decode_response_frame(raw).unwrap();
        assert_eq!(rid, RequestId(0));
        assert!(matches!(response, Response::Error(_)));
    }

    /// The client takes a frame's buffers back when the flight has
    /// landed and the op resolved — but only as the last holder. A daemon
    /// that sits on a frame past the client's deadline still holds its
    /// head and its payload when the client gives up on it: neither may
    /// ever be written again, however many requests follow.
    #[test]
    fn a_frame_the_daemon_still_holds_is_never_handed_out_again() {
        const LEN: usize = 256;
        let (fake_tx, fake_rx) = Driver::bare(8);
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
        let c = client_over(fake_tx).with_endpoint(|e| {
            e.with_rpc_timeout(Duration::from_millis(20))
                .with_retry_policy(RetryPolicy::none())
        });
        // The answered writes go through a clone that waits them out: on
        // a loaded machine an answer can take longer than 20 ms. Clones
        // share the spares, which are what this test watches.
        let patient = c
            .clone()
            .with_endpoint(|e| e.with_rpc_timeout(Duration::from_secs(10)));
        let write = |i: u8, data: Bytes| Request::Write {
            handle: FileHandle(1),
            layout: layout(1),
            region: Region::new(i as u64 * LEN as u64, LEN as u64),
            data,
        };
        // (Ten times the client's window: every spare it keeps goes
        // round several times — `tests/alloc_budget.rs` counts that.)
        for i in 0..40u8 {
            let mut payload = c.endpoint().payload_buffer(LEN);
            payload.clear();
            payload.extend_from_slice(&[i; LEN]);
            let caller = if i % 3 == 0 { &c } else { &patient };
            let outcome = caller.call(ServerId(0).into(), write(i, payload.freeze()));
            match i % 3 {
                0 => assert!(matches!(outcome, Err(PvfsError::Timeout(_))), "{outcome:?}"),
                _ => assert_eq!(outcome, Ok(Response::Written { bytes: LEN as u64 })),
            }
        }
        drop((c, patient));
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

    /// A sub-op backing off waits out its own backoff, not another
    /// daemon's flight. iod1 drops the first frame unanswered, and its
    /// retry must reach iod1 while iod0 still holds its reply — which
    /// iod0 releases as soon as it hears of the retry, or after two
    /// seconds without.
    #[test]
    fn a_backed_off_retry_does_not_wait_for_an_unrelated_flight() {
        let (holding_tx, holding_rx) = Driver::bare(8);
        let (lossy_tx, lossy_rx) = Driver::bare(8);
        let (retried, heard) = std::sync::mpsc::channel();
        let lossy = std::thread::spawn(move || {
            let mut first = true;
            while let Some((frame, reply)) = lossy_rx() {
                if std::mem::take(&mut first) {
                    continue;
                }
                let _ = retried.send(());
                let id = decode_frame_id(&frame.head).unwrap();
                reply.send(encode_response(id, &Response::LocalSize { size: 1 }));
            }
        });
        let holding = std::thread::spawn(move || {
            let mut heard_first = Vec::new();
            while let Some((frame, reply)) = holding_rx() {
                heard_first.push(heard.recv_timeout(Duration::from_secs(2)).is_ok());
                let id = decode_frame_id(&frame.head).unwrap();
                reply.send(encode_response(id, &Response::LocalSize { size: 0 }));
            }
            heard_first
        });
        let c = client_over_all(vec![holding_tx, lossy_tx]).with_endpoint(|e| {
            e.with_retry_policy(RetryPolicy::default())
                .with_breaker_policy(BreakerPolicy::off())
        });
        let size = |s| {
            let handle = FileHandle(1);
            (ServerId(s), Request::GetLocalSize { handle })
        };
        let sizes = c.round(vec![size(1), size(0)]).unwrap();
        let size = |size| Response::LocalSize { size };
        assert_eq!(sizes, [size(1), size(0)]);
        assert_eq!(c.stats().retries, 1);
        drop(c);
        lossy.join().unwrap();
        assert_eq!(
            holding.join().unwrap(),
            [true],
            "the retry reached iod1 before iod0 released its reply"
        );
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
