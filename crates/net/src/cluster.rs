//! Threaded cluster and its RPC client.
//!
//! # Concurrency model
//!
//! Each I/O daemon is served by a **pool** of [`IodConfig::workers`]
//! threads (default [`pvfs_server::default_workers`]) sharing one
//! request queue bounded at [`IodConfig::queue_depth`] messages. The
//! daemon itself is thread-safe ([`IoDaemon::handle`] takes `&self`
//! over a handle-sharded file table), so requests for different file
//! handles execute genuinely in parallel; the bounded queue gives
//! backpressure instead of unbounded memory growth when clients outrun
//! a server. The manager stays single-threaded — metadata operations
//! are rare and order-sensitive.
//!
//! # Transports
//!
//! The cluster speaks one of two [`Transport`]s, chosen by
//! [`TransportKind::from_env`] (`PVFS_TRANSPORT=chan|tcp`, default
//! `chan`) or explicitly via [`LiveCluster::spawn_transport`]:
//!
//! * **chan** — every daemon queue is an in-process bounded channel;
//! * **tcp** — every daemon gets a loopback `TcpListener`
//!   ([`crate::tcp`]), and clients speak length-prefixed frames over a
//!   pooled socket per in-flight request.
//!
//! [`ClusterClient`] is identical over both: same codec, same request
//! ids, same deadlines, same diagnostics.
//!
//! # RPC discipline
//!
//! Request ids start at 1; **id 0 is reserved** for responses that
//! cannot be attributed to a request (the frame's header itself was
//! unreadable). Servers echo the real request id on error responses
//! whenever the fixed header is parsable ([`pvfs_proto::decode_frame_id`]),
//! even if the body is corrupt. Clients verify that every response id
//! matches the request that awaited it; on the multi-request
//! [`ClusterClient::round`] path an id-0 response is a hard protocol
//! error (it could belong to *any* in-flight request). Every receive
//! carries a deadline ([`ClusterClient::with_rpc_timeout`], default
//! [`DEFAULT_RPC_TIMEOUT`]) that bounds the **total** elapsed time of
//! the RPC — a TCP response dribbling in over many partial reads is
//! charged against one deadline, not one per read — so a wedged server
//! yields [`PvfsError::Timeout`] instead of hanging the client.

use bytes::Bytes;
use pvfs_disk::StorageConfig;
use pvfs_proto::{
    decode_response, encode_frame, encode_response, frame_is_stats_scrape, Frame, Message, OpClass,
    Request, Response,
};
use pvfs_replica::{ReplicaMap, ReplicaPolicy, ReplicaTarget};
use pvfs_server::{IoDaemon, IodConfig, Manager, ServerStats};
use pvfs_types::trace::now_ns;
use pvfs_types::{
    ClientId, Histogram, PvfsError, PvfsResult, RequestId, ServerId, SpanId, StatsSnapshot,
    StripeLayout, TraceContext, TraceId, TraceMode, TraceTree,
};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::chan::{bounded, RecvTimeoutError, Sender};
use crate::fault::{FaultPlan, FaultyTransport};
use crate::gate::SerialGate;
use crate::health::{BreakerPolicy, BreakerState, HealthTracker, HedgePolicy};
use crate::latency::RpcLatency;
use crate::pool::WorkerPool;
use crate::retry::{AtomicClientStats, Backoff, ClientStats, RetryPolicy};
use crate::tcp::{TcpCluster, TcpTransport};
use crate::trace::{ActiveTrace, Tracer};
use crate::transport::{
    serve_frame, ChanTransport, NodeMsg, RpcTarget, Transport, TransportKind, WaitError,
};

/// Default deadline for one RPC before the client reports
/// [`PvfsError::Timeout`]. Generous: the in-process servers answer in
/// microseconds unless wedged.
pub const DEFAULT_RPC_TIMEOUT: Duration = Duration::from_secs(10);

/// The daemon-side machinery behind a [`LiveCluster`], per transport.
enum Backend {
    Chan {
        server_txs: Vec<Sender<NodeMsg>>,
        mgr_tx: Sender<NodeMsg>,
        pools: Vec<WorkerPool>,
        mgr_thread: Option<JoinHandle<()>>,
    },
    Tcp(TcpCluster),
}

/// A live PVFS cluster: a worker pool per I/O daemon plus a manager,
/// fronted by a channel or TCP transport. Dropping the cluster shuts
/// every thread (and listener) down.
pub struct LiveCluster {
    daemons: Vec<Arc<IoDaemon>>,
    transport: Arc<dyn Transport>,
    backend: Backend,
    next_client: AtomicU32,
    gate: Arc<SerialGate>,
    /// Data directory this cluster created for itself from
    /// `PVFS_STORAGE` (deleted when the guard drops — last field, so
    /// removal happens after both transport backends have joined their
    /// threads). Clusters given an explicit [`StorageConfig`] own
    /// nothing: their directories outlive them, which is what lets
    /// restart tests recover a predecessor's data.
    _scratch_storage: Option<StorageScratch>,
}

/// Removes an env-derived storage directory on drop.
struct StorageScratch(PathBuf);

impl Drop for StorageScratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Distinguishes the data directories of concurrently-spawned clusters
/// within one process (env-derived storage only).
static NEXT_STORAGE_RUN: AtomicU64 = AtomicU64::new(0);

impl LiveCluster {
    /// Spawn a cluster with `n_servers` I/O daemons (ids `0..n`) using
    /// paper-default disk and cache models and the default worker pool.
    pub fn spawn(n_servers: u32) -> LiveCluster {
        LiveCluster::spawn_with(n_servers, IodConfig::default())
    }

    /// Spawn with explicit daemon configuration (including
    /// [`IodConfig::workers`] and [`IodConfig::queue_depth`]). The
    /// transport comes from `PVFS_TRANSPORT` (default: channels).
    pub fn spawn_with(n_servers: u32, config: IodConfig) -> LiveCluster {
        LiveCluster::spawn_transport(n_servers, config, TransportKind::from_env())
    }

    /// Spawn with an explicit transport. The storage backend comes from
    /// `PVFS_STORAGE`/`PVFS_SYNC` (default: memory); a `file:<dir>`
    /// selection gets a per-cluster unique subdirectory of `<dir>` that
    /// is deleted when the cluster drops, so concurrent test clusters
    /// never collide on handle numbers and leave nothing behind.
    pub fn spawn_transport(n_servers: u32, config: IodConfig, kind: TransportKind) -> LiveCluster {
        let storage = StorageConfig::from_env().expect("PVFS_STORAGE/PVFS_SYNC");
        let (storage, scratch) = match storage {
            StorageConfig::File { dir, sync } => {
                let unique = dir.join(format!(
                    "run-{}-{}",
                    std::process::id(),
                    NEXT_STORAGE_RUN.fetch_add(1, Ordering::Relaxed)
                ));
                (
                    StorageConfig::File {
                        dir: unique.clone(),
                        sync,
                    },
                    Some(StorageScratch(unique)),
                )
            }
            mem => (mem, None),
        };
        LiveCluster::spawn_inner(n_servers, config, kind, storage, scratch)
    }

    /// Spawn with an explicit transport *and* storage backend. The file
    /// backend's directory is used exactly as given and is NOT deleted
    /// at Drop — spawn a second cluster over the same directory to
    /// exercise crash recovery.
    pub fn spawn_storage(
        n_servers: u32,
        config: IodConfig,
        kind: TransportKind,
        storage: StorageConfig,
    ) -> LiveCluster {
        LiveCluster::spawn_inner(n_servers, config, kind, storage, None)
    }

    fn spawn_inner(
        n_servers: u32,
        config: IodConfig,
        kind: TransportKind,
        storage: StorageConfig,
        scratch_storage: Option<StorageScratch>,
    ) -> LiveCluster {
        assert!(n_servers > 0, "need at least one I/O server");
        let daemons: Vec<Arc<IoDaemon>> = (0..n_servers)
            .map(|i| {
                Arc::new(IoDaemon::with_storage(
                    ServerId(i),
                    config,
                    storage.for_daemon(i),
                ))
            })
            .collect();
        let (transport, backend): (Arc<dyn Transport>, Backend) = match kind {
            TransportKind::Chan => {
                let (server_txs, pools): (Vec<_>, Vec<_>) = daemons
                    .iter()
                    .map(|daemon| spawn_chan_server(daemon.clone(), config))
                    .unzip();
                let (mgr_tx, mgr_rx) = bounded::<NodeMsg>(config.queue_depth.max(1));
                let mgr_thread = std::thread::Builder::new()
                    .name("pvfs-mgr".into())
                    .spawn(move || {
                        let mut manager = Manager::new();
                        while let Ok(msg) = mgr_rx.recv() {
                            match msg {
                                NodeMsg::Rpc(frame, reply, queued_at) => {
                                    // Stats scrapes observe without
                                    // perturbing: no wire or timing
                                    // accounting for their own frames.
                                    let scrape = frame_is_stats_scrape(&frame.head);
                                    if !scrape {
                                        manager.record_wire_rx(frame.len() as u64);
                                    }
                                    let waited = queued_at.elapsed();
                                    let served_at = Instant::now();
                                    let (id, response) = serve_frame(frame, |req, ctx| {
                                        manager.handle_traced(req, ctx, waited)
                                    });
                                    let encoded = encode_response(id, &response);
                                    if !scrape {
                                        manager.record_service(served_at.elapsed());
                                        manager.record_wire_tx(encoded.len() as u64);
                                    }
                                    let _ = reply.send(encoded);
                                }
                                NodeMsg::Shutdown => break,
                            }
                        }
                    })
                    .expect("spawn manager thread");
                let queue_marks: Vec<Arc<dyn Fn() + Send + Sync>> = daemons
                    .iter()
                    .map(|d| {
                        let d = d.clone();
                        Arc::new(move || d.note_queued()) as Arc<dyn Fn() + Send + Sync>
                    })
                    .collect();
                let shed_marks: Vec<Arc<dyn Fn() + Send + Sync>> = daemons
                    .iter()
                    .map(|d| {
                        let d = d.clone();
                        Arc::new(move || d.note_shed()) as Arc<dyn Fn() + Send + Sync>
                    })
                    .collect();
                (
                    Arc::new(
                        ChanTransport::new(server_txs.clone(), mgr_tx.clone())
                            .with_queue_marks(queue_marks)
                            .with_shed_marks(shed_marks),
                    ),
                    Backend::Chan {
                        server_txs,
                        mgr_tx,
                        pools,
                        mgr_thread: Some(mgr_thread),
                    },
                )
            }
            TransportKind::Tcp => {
                let tcp = TcpCluster::spawn(&daemons, config);
                (
                    Arc::new(TcpTransport::new(tcp.server_addrs(), tcp.mgr_addr())),
                    Backend::Tcp(tcp),
                )
            }
        };
        // One env var turns any suite into a chaos suite: wrap the real
        // transport in the seeded fault injector.
        let transport = match FaultPlan::from_env() {
            Some(plan) if plan.is_active() => {
                Arc::new(FaultyTransport::new(transport, plan)) as Arc<dyn Transport>
            }
            _ => transport,
        };
        LiveCluster {
            daemons,
            transport,
            backend,
            next_client: AtomicU32::new(0),
            gate: Arc::new(SerialGate::new()),
            _scratch_storage: scratch_storage,
        }
    }

    /// Wrap this cluster's transport in a chaos layer injecting `plan`
    /// (the programmatic equivalent of `PVFS_FAULTS`; layers stack).
    /// Call before creating clients — existing [`ClusterClient`]s keep
    /// the transport they were built with.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.transport = Arc::new(FaultyTransport::new(self.transport.clone(), plan));
    }

    /// Number of I/O servers.
    pub fn n_servers(&self) -> u32 {
        self.daemons.len() as u32
    }

    /// Which transport the cluster speaks.
    pub fn transport_kind(&self) -> TransportKind {
        self.transport.kind()
    }

    /// The client-side transport — the same handle every
    /// [`ClusterClient`] of this cluster uses.
    pub fn transport(&self) -> Arc<dyn Transport> {
        self.transport.clone()
    }

    /// Worker threads serving each I/O daemon.
    pub fn workers_per_server(&self) -> usize {
        match &self.backend {
            Backend::Chan { pools, .. } => pools.first().map(|p| p.workers()).unwrap_or(0),
            Backend::Tcp(tcp) => tcp.workers_per_server(),
        }
    }

    /// A new client endpoint (unique client id; cheap to create, cheap
    /// to clone).
    pub fn client(&self) -> ClusterClient {
        ClusterClient::with_transport(
            ClientId(self.next_client.fetch_add(1, Ordering::Relaxed)),
            self.transport.clone(),
            self.gate.clone(),
        )
    }

    /// Statistics snapshot of one I/O daemon.
    pub fn server_stats(&self, server: ServerId) -> Option<ServerStats> {
        self.daemons.get(server.index()).map(|d| d.stats())
    }

    /// Direct handle on one I/O daemon (verification oracles and storage
    /// crash injection in tests).
    pub fn daemon(&self, server: ServerId) -> Option<Arc<IoDaemon>> {
        self.daemons.get(server.index()).cloned()
    }

    /// Full in-process statistics snapshot of one I/O daemon — the same
    /// [`StatsSnapshot`] the `GetStats` RPC returns, counters and
    /// histograms included.
    pub fn stats_snapshot(&self, server: ServerId) -> Option<StatsSnapshot> {
        self.daemons.get(server.index()).map(|d| d.stats_snapshot())
    }

    /// The cluster-wide serialization gate (data sieving writes).
    pub fn gate(&self) -> Arc<SerialGate> {
        self.gate.clone()
    }
}

/// One channel-backed I/O daemon: its bounded queue and worker pool.
fn spawn_chan_server(daemon: Arc<IoDaemon>, config: IodConfig) -> (Sender<NodeMsg>, WorkerPool) {
    let name = format!("iod{}", daemon.id().0);
    WorkerPool::spawn(
        &name,
        config.workers.max(1),
        config.queue_depth.max(1),
        move |msg: NodeMsg| match msg {
            NodeMsg::Rpc(frame, reply, queued_at) => {
                // Stats scrapes are pure observers: no wire accounting,
                // no queue/service samples, so the snapshot they carry
                // back equals the in-process one byte for byte.
                let scrape = frame_is_stats_scrape(&frame.head);
                let waited = queued_at.elapsed();
                if !scrape {
                    // The channel transport has no length prefix; its
                    // wire size is the frame itself, head and payload.
                    daemon.record_wire_rx(frame.len() as u64);
                    daemon.begin_service(waited);
                }
                let served_at = Instant::now();
                let (id, response) =
                    serve_frame(frame, |req, ctx| daemon.handle_traced(req, ctx, waited).0);
                // Emulated service time occupies the worker, the way a
                // blocking disk access would; replies only after the
                // stall.
                if let Some(stall) = config.emulated_latency {
                    std::thread::sleep(stall);
                }
                let encoded = encode_response(id, &response);
                if !scrape {
                    daemon.end_service(served_at.elapsed());
                    daemon.record_wire_tx(encoded.len() as u64);
                }
                let _ = reply.send(encoded);
                std::ops::ControlFlow::Continue(())
            }
            NodeMsg::Shutdown => std::ops::ControlFlow::Break(()),
        },
    )
}

impl Drop for LiveCluster {
    fn drop(&mut self) {
        // PVFS_STATS=dump: one JSON line per daemon to stderr at
        // teardown, so any run (bench, shell, test) can be scraped
        // post-hoc without instrumenting the caller.
        if std::env::var("PVFS_STATS").as_deref() == Ok("dump") {
            for daemon in &self.daemons {
                eprintln!(
                    "{{\"daemon\":\"iod{}\",\"stats\":{}}}",
                    daemon.id().0,
                    daemon.stats_snapshot().to_json()
                );
            }
        }
        // The TCP backend tears itself down (TcpCluster/TcpServer Drop);
        // the channel backend drains here.
        if let Backend::Chan {
            server_txs,
            mgr_tx,
            pools,
            mgr_thread,
        } = &mut self.backend
        {
            for (tx, pool) in server_txs.iter().zip(pools.iter()) {
                // One Shutdown per worker: each worker consumes exactly
                // one and exits.
                for _ in 0..pool.workers() {
                    let _ = tx.send(NodeMsg::Shutdown);
                }
            }
            let _ = mgr_tx.send(NodeMsg::Shutdown);
            for pool in pools.drain(..) {
                pool.join();
            }
            if let Some(t) = mgr_thread.take() {
                let _ = t.join();
            }
        }
    }
}

/// A client endpoint of a [`LiveCluster`] (or any [`Transport`]).
#[derive(Clone)]
pub struct ClusterClient {
    id: ClientId,
    transport: Arc<dyn Transport>,
    next_request: Arc<AtomicU64>,
    gate: Arc<SerialGate>,
    rpc_timeout: Duration,
    retry: RetryPolicy,
    stats: Arc<AtomicClientStats>,
    latency: Arc<RpcLatency>,
    /// Per-daemon failure detector + circuit breakers, shared by every
    /// clone: all of an endpoint's traffic contributes health signal.
    health: Arc<HealthTracker>,
    hedge: HedgePolicy,
    /// Stripe replication placement (`PVFS_REPLICAS`); one copy per
    /// slot (today's behavior) unless mirroring is configured.
    replica: Arc<ReplicaMap>,
    /// Trace origin (`PVFS_TRACE`): sampling decisions, the client-side
    /// flight recorder, and the retained-trace index. Shared by clones.
    tracer: Arc<Tracer>,
}

impl ClusterClient {
    /// A client endpoint over an explicit transport. [`LiveCluster::client`]
    /// is the usual way in; this is the seam for pointing a client at a
    /// remote cluster's listeners (or a test double).
    pub fn with_transport(
        id: ClientId,
        transport: Arc<dyn Transport>,
        gate: Arc<SerialGate>,
    ) -> ClusterClient {
        let latency = Arc::new(RpcLatency::new(transport.n_servers()));
        let health = Arc::new(HealthTracker::new(
            transport.n_servers(),
            BreakerPolicy::from_env(),
        ));
        // Malformed replication env panics like the other PVFS_*
        // variables: a typo'd run must not silently change placement.
        let policy = ReplicaPolicy::from_env(transport.n_servers())
            .unwrap_or_else(|e| panic!("replica configuration rejected: {e}"));
        let replica = Arc::new(ReplicaMap::new(transport.n_servers(), policy));
        ClusterClient {
            id,
            transport,
            // Id 0 is reserved for unattributable responses.
            next_request: Arc::new(AtomicU64::new(1)),
            gate,
            rpc_timeout: DEFAULT_RPC_TIMEOUT,
            retry: RetryPolicy::from_env(),
            stats: Arc::new(AtomicClientStats::default()),
            latency,
            health,
            hedge: HedgePolicy::from_env(),
            replica,
            tracer: Arc::new(Tracer::from_env(format!("client{}", id.0))),
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

    /// This endpoint with a different hedging policy
    /// ([`HedgePolicy::on`] enables hedged reads).
    pub fn with_hedge_policy(mut self, hedge: HedgePolicy) -> ClusterClient {
        self.hedge = hedge;
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

    /// The hedging policy currently in force.
    pub fn hedge_policy(&self) -> HedgePolicy {
        self.hedge
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

    /// Reliability counters of this endpoint and all its clones:
    /// attempts, retries, backoff slept, faults the transport injected.
    pub fn stats(&self) -> ClientStats {
        self.stats.snapshot(self.transport.faults_injected())
    }

    /// Per-server, per-op-class RPC latency histograms of this endpoint
    /// and all its clones (successful RPCs only; each attempt's latency
    /// stands alone — backoff sleeps are counted separately in
    /// [`ClusterClient::stats`]).
    pub fn latency(&self) -> &RpcLatency {
        &self.latency
    }

    /// This endpoint's whole RPC latency distribution, merged across
    /// servers and classes.
    pub fn latency_snapshot(&self) -> Histogram {
        self.latency.snapshot_all()
    }

    /// Encode one request, stamping `ctx` into a version-2 frame when
    /// the operation is traced. Untraced requests (`ctx == None`)
    /// encode byte-identical version-1 frames — `PVFS_TRACE=off` sends
    /// exactly the bytes an untraced build sends.
    fn encode(
        &self,
        request: Request,
        ctx: Option<TraceContext>,
    ) -> PvfsResult<(RequestId, Frame)> {
        let id = RequestId(self.next_request.fetch_add(1, Ordering::Relaxed));
        let frame = encode_frame(
            &Message {
                client: self.id,
                id,
                request,
            },
            ctx,
        )?;
        Ok((id, frame))
    }

    /// One synchronous RPC. Errors returned by the server come back as
    /// `Err`; no reply within the deadline is [`PvfsError::Timeout`].
    ///
    /// Transient failures ([`PvfsError::is_retryable`]) are retried
    /// under this endpoint's [`RetryPolicy`], each attempt on a fresh
    /// request id — when the request is idempotent
    /// ([`Request::is_idempotent`]), or when the failure proves the
    /// request never executed ([`PvfsError::is_definitely_not_executed`],
    /// e.g. a server-side shed): replaying an op that never ran cannot
    /// duplicate its effect. Backoff sleeps are clamped to the
    /// remaining per-op budget, so the error surfaces at the budget
    /// boundary instead of after one last full-length sleep.
    pub fn call(&self, target: RpcTarget, request: Request) -> PvfsResult<Response> {
        // Control scrapes are never traced: tracing the collection of
        // traces would perturb the very rings being observed.
        let active = if request.is_control_scrape() {
            None
        } else {
            self.tracer.begin("call")
        };
        let result = self.call_traced(target, request, active.as_ref());
        if let Some(a) = active {
            self.tracer.finish(a);
        }
        result
    }

    fn call_traced(
        &self,
        target: RpcTarget,
        request: Request,
        trace: Option<&ActiveTrace>,
    ) -> PvfsResult<Response> {
        let started = Instant::now();
        let mut backoff: Option<Backoff> = None;
        let mut attempt = 1u32;
        // Control scrapes stay off the books on this side of the wire
        // too (the daemons already exclude them): scraping `stats` or a
        // trace must not advance the very counters being read.
        let scrape = request.is_control_scrape();
        loop {
            if !scrape {
                self.stats.record_attempts(1);
            }
            let err = match self.call_once(target, request.clone(), trace.map(|a| (a, attempt))) {
                Ok(response) => return Ok(response),
                Err(e) => e,
            };
            let replayable = request.is_idempotent() || err.is_definitely_not_executed();
            if !err.is_retryable()
                || !replayable
                || attempt >= self.retry.max_attempts
                || started.elapsed() >= self.retry.budget
            {
                return Err(err);
            }
            let delay = backoff
                .get_or_insert_with(|| self.new_backoff())
                .next_delay()
                .min(self.retry.budget.saturating_sub(started.elapsed()));
            if !scrape {
                self.stats.record_retries(1, delay);
            }
            std::thread::sleep(delay);
            attempt += 1;
        }
    }

    /// One attempt of one RPC: breaker admission, ship, wait, decode,
    /// attribute, and feed the outcome back to the failure detector.
    /// With a trace attached, the attempt records an `rpc:<op>` span
    /// (noted `retry#n` past the first attempt) with `send`/`recv`
    /// children, and stamps its context into the frame so server-side
    /// spans parent under the attempt.
    fn call_once(
        &self,
        target: RpcTarget,
        request: Request,
        trace: Option<(&ActiveTrace, u32)>,
    ) -> PvfsResult<Response> {
        if let RpcTarget::Server(server) = target {
            // An open breaker fails fast before touching the wire; the
            // manager is never gated (metadata is rare and precious).
            if let Err(e) = self.health.admit(server) {
                self.stats.record_breaker_rejection();
                return Err(e);
            }
            if self.hedge.enabled && request.op_class() == OpClass::Read {
                return self.call_hedged(server, request, trace);
            }
        }
        let class = request.op_class();
        let op = request.op_name();
        let shipped_at = Instant::now();
        let rpc_span = trace.map(|(a, attempt)| (a, SpanId::next(), now_ns(), attempt));
        let ctx = rpc_span.as_ref().map(|(a, sid, _, _)| a.ctx(*sid));
        let (id, frame) = self.encode(request, ctx)?;
        let outcome = self.transport.start(target, frame).and_then(|pending| {
            if let Some((a, sid, sent_ns, _)) = &rpc_span {
                a.span(*sid, "send", *sent_ns, Vec::new());
            }
            let recv_ns = now_ns();
            let reply = self.await_reply(target, id, pending);
            if let Some((a, sid, _, _)) = &rpc_span {
                a.span(*sid, "recv", recv_ns, Vec::new());
            }
            reply
        });
        if let Some((a, sid, start_ns, attempt)) = rpc_span {
            let notes = if attempt > 1 {
                vec![format!("retry#{attempt}")]
            } else {
                Vec::new()
            };
            let dur = now_ns().saturating_sub(start_ns);
            a.span_with_id(sid, a.root(), format!("rpc:{op}"), start_ns, dur, notes);
        }
        match outcome {
            Ok(response) => {
                self.latency.record(target, class, shipped_at.elapsed());
                if let RpcTarget::Server(server) = target {
                    // Any decoded response — server errors included —
                    // proves the daemon is alive and timely.
                    self.health.record_success(server, shipped_at.elapsed());
                }
                let result = response.into_result();
                if let Err(e) = &result {
                    self.note_shed(e);
                }
                result
            }
            Err(e) => {
                if let RpcTarget::Server(server) = target {
                    self.observe_failure(server, &e);
                }
                Err(e)
            }
        }
    }

    /// Wait for, decode, and attribute the reply to one single RPC
    /// (`id` is the only request awaiting this handle).
    fn await_reply(
        &self,
        target: RpcTarget,
        id: RequestId,
        pending: Box<dyn crate::transport::PendingReply>,
    ) -> PvfsResult<Response> {
        let raw = pending.wait(self.rpc_timeout).map_err(|e| match e {
            WaitError::Timeout => PvfsError::timeout(format!(
                "no reply to request {id} from {target:?} within {:?}",
                self.rpc_timeout
            )),
            WaitError::Failed(e) => e,
        })?;
        let (rid, response) = decode_response(raw)?;
        if rid == id {
            return Ok(response);
        }
        if rid == RequestId(0) {
            // Unattributable error response: only this request awaited
            // this reply, so surfacing the server's error is safe — but
            // only an *error* is acceptable under id 0.
            if let Response::Error(e) = response {
                return Err(e);
            }
            return Err(PvfsError::protocol(format!(
                "non-error response with reserved id 0 (request id {id})"
            )));
        }
        Err(PvfsError::protocol(format!(
            "response id {rid} does not match request id {id}"
        )))
    }

    /// One *hedged* read attempt: ship the RPC, and if no reply lands
    /// within a percentile of this daemon's observed read latency
    /// ([`HedgePolicy`]), ship an identical duplicate on a second
    /// connection and take whichever response arrives first. The loser
    /// drains in a background thread (bounded by the RPC deadline) so
    /// a late reply never crosses wires with a later request. Only
    /// read-class RPCs come through here — they are idempotent, so the
    /// duplicate is harmless by construction.
    fn call_hedged(
        &self,
        server: ServerId,
        request: Request,
        trace: Option<(&ActiveTrace, u32)>,
    ) -> PvfsResult<Response> {
        let target = RpcTarget::Server(server);
        let class = request.op_class();
        let op = request.op_name();
        let observed = {
            let snap = self.latency.snapshot(target, class);
            (snap.count() > 0)
                .then(|| Duration::from_nanos(snap.percentile_ns(self.hedge.percentile)))
        };
        let hedge_after = self.hedge.delay(observed).min(self.rpc_timeout);
        let shipped_at = Instant::now();
        let deadline = shipped_at + self.rpc_timeout;
        // The primary and its hedge are sibling attempt spans; server
        // spans parent under whichever frame carried their context.
        let primary_span = trace.map(|(a, attempt)| (a, SpanId::next(), now_ns(), attempt));
        let primary_ctx = primary_span.as_ref().map(|(a, sid, _, _)| a.ctx(*sid));
        let (id, frame) = self.encode(request.clone(), primary_ctx)?;
        // Both replies race into one channel, tagged by origin; each
        // waiter ships and owns its own pending handle and dies with
        // the deadline. Shipping on the waiter thread matters: a
        // stalled connect/send (an injected delay fault, a jammed
        // socket buffer) must not hold the hedge clock hostage.
        let (tx, rx) = bounded::<(bool, Result<Bytes, WaitError>)>(2);
        let timeout = self.rpc_timeout;
        {
            let tx = tx.clone();
            let transport = self.transport.clone();
            std::thread::spawn(move || {
                let outcome = match transport.start(target, frame) {
                    Ok(pending) => pending.wait(timeout),
                    Err(e) => Err(WaitError::Failed(e)),
                };
                let _ = tx.send((false, outcome));
            });
        }
        let mut outcomes: Vec<(bool, Result<Bytes, WaitError>)> = Vec::new();
        let mut hedge_id: Option<RequestId> = None;
        let mut hedge_span: Option<(SpanId, u64)> = None;
        match rx.recv_timeout(hedge_after) {
            Ok(first) => outcomes.push(first),
            Err(RecvTimeoutError::Disconnected) => {}
            Err(RecvTimeoutError::Timeout) => {
                // The primary is slower than the hedge trigger: fire
                // the duplicate. A failure to even ship it (full
                // queue, dead transport) falls back to the primary
                // alone rather than failing the op.
                let hctx = primary_span.as_ref().map(|(a, _, _, _)| {
                    let sid = SpanId::next();
                    hedge_span = Some((sid, now_ns()));
                    a.ctx(sid)
                });
                let (hid, hframe) = self.encode(request, hctx)?;
                if let Ok(hedge_pending) = self.transport.start(target, hframe) {
                    hedge_id = Some(hid);
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        let _ = tx.send((true, hedge_pending.wait(timeout)));
                    });
                } else {
                    hedge_span = None;
                }
            }
        }
        let expected = 1 + usize::from(hedge_id.is_some());
        let winner = loop {
            if let Some(pos) = outcomes.iter().position(|(_, r)| r.is_ok()) {
                break Some(outcomes.swap_remove(pos));
            }
            if outcomes.len() >= expected {
                break None;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break None;
            }
            match rx.recv_timeout(remaining) {
                Ok(m) => outcomes.push(m),
                Err(_) => break None,
            }
        };
        if hedge_id.is_some() {
            self.stats.record_hedge(matches!(&winner, Some((true, _))));
        }
        if let Some((a, sid, start_ns, attempt)) = primary_span {
            let hedge_won = matches!(&winner, Some((true, _)));
            let end = now_ns();
            let mut notes = if attempt > 1 {
                vec![format!("retry#{attempt}")]
            } else {
                Vec::new()
            };
            if !hedge_won && hedge_span.is_some() {
                notes.push("win".into());
            }
            a.span_with_id(
                sid,
                a.root(),
                format!("rpc:{op}"),
                start_ns,
                end.saturating_sub(start_ns),
                notes,
            );
            if let Some((hsid, hstart)) = hedge_span {
                let mut hnotes = vec!["hedge".to_string()];
                if hedge_won {
                    hnotes.push("win".into());
                }
                a.span_with_id(
                    hsid,
                    a.root(),
                    format!("rpc:{op}"),
                    hstart,
                    end.saturating_sub(hstart),
                    hnotes,
                );
            }
        }
        match winner {
            Some((from_hedge, Ok(raw))) => {
                let expect = if from_hedge { hedge_id.unwrap() } else { id };
                let (rid, response) = decode_response(raw)?;
                if rid != expect {
                    // With two requests in flight even an id-0 error is
                    // ambiguous; reject anything misattributed.
                    return Err(PvfsError::protocol(format!(
                        "hedged response id {rid} does not match request id {expect}"
                    )));
                }
                self.latency.record(target, class, shipped_at.elapsed());
                self.health.record_success(server, shipped_at.elapsed());
                let result = response.into_result();
                if let Err(e) = &result {
                    self.note_shed(e);
                }
                result
            }
            _ => {
                let err = outcomes
                    .into_iter()
                    .find_map(|(_, r)| match r {
                        Err(WaitError::Failed(e)) => Some(e),
                        _ => None,
                    })
                    .unwrap_or_else(|| {
                        PvfsError::timeout(format!(
                            "no reply to hedged request {id} from server {server} within {:?}",
                            self.rpc_timeout
                        ))
                    });
                self.observe_failure(server, &err);
                Err(err)
            }
        }
    }

    /// Feed one failed server RPC to the failure detector. Only
    /// transport-class failures (connection loss, timeout) count
    /// toward tripping a breaker; a shed ([`PvfsError::Overloaded`])
    /// proves the daemon's acceptor is alive, so it only bumps the
    /// client's shed counter, and logical server errors are neutral.
    fn observe_failure(&self, server: ServerId, e: &PvfsError) {
        match e {
            PvfsError::Transport(_) | PvfsError::Timeout(_) => self.health.record_failure(server),
            _ => self.note_shed(e),
        }
    }

    /// Count a witnessed server-side shed.
    fn note_shed(&self, e: &PvfsError) {
        if matches!(e, PvfsError::Overloaded { .. }) {
            self.stats.record_shed_seen();
        }
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
    /// [`RetryPolicy`]) aborts the round with that error.
    ///
    /// # Brown-out behavior
    ///
    /// A daemon whose circuit breaker is open fails its ops *at ship
    /// time* with [`PvfsError::Unavailable`] — no queueing, no
    /// timeout wait — while every other daemon's ops in the same
    /// round ship, execute, and land in `results` as usual. The round
    /// then surfaces the `Unavailable` (it is deliberately
    /// non-retryable: spinning against an open breaker would defeat
    /// it), so a round touching one dead daemon costs microseconds,
    /// not an RPC timeout per attempt.
    /// # Replication
    ///
    /// With `PVFS_REPLICAS` > 1 every data op expands transparently:
    /// writes fan out to all `r` copies of their stripe slot and
    /// succeed once the configured quorum acknowledges; reads go to the
    /// healthiest copy (breaker state, then latency EWMA) and *fail
    /// over* to the next mirror on breaker-open/timeout instead of
    /// erroring the round. `r = 1` (the default) takes the unreplicated
    /// fast path below, byte-for-byte today's behavior.
    pub fn round(&self, requests: Vec<(ServerId, Request)>) -> PvfsResult<Vec<Response>> {
        let active = self.tracer.begin("round");
        let result = self.round_in(requests, active.as_ref());
        if let Some(a) = active {
            self.tracer.finish(a);
        }
        result
    }

    /// [`ClusterClient::round`] under a caller-owned trace — the seam
    /// for higher layers (the plan executor, the collective engines)
    /// that open their own root span and want the round's RPC attempts
    /// recorded inside it. `None` runs the round untraced.
    pub fn round_in(
        &self,
        requests: Vec<(ServerId, Request)>,
        trace: Option<&ActiveTrace>,
    ) -> PvfsResult<Vec<Response>> {
        if self.replica.policy().enabled() {
            self.round_replicated(requests, trace)
        } else {
            self.round_single(requests, trace)
        }
    }

    fn round_single(
        &self,
        requests: Vec<(ServerId, Request)>,
        trace: Option<&ActiveTrace>,
    ) -> PvfsResult<Vec<Response>> {
        let mut results: Vec<Option<Response>> = (0..requests.len()).map(|_| None).collect();
        let mut pending: Vec<usize> = (0..requests.len()).collect();
        let started = Instant::now();
        let mut backoff: Option<Backoff> = None;
        let mut attempt = 1u32;
        loop {
            self.stats.record_attempts(pending.len() as u64);
            let notes: Vec<String> = if attempt > 1 {
                vec![format!("retry#{attempt}")]
            } else {
                Vec::new()
            };
            let mut failures =
                self.round_attempt(&requests, &pending, &mut results, trace, &|_| notes.clone());
            if failures.is_empty() {
                return Ok(results
                    .into_iter()
                    .map(|r| r.expect("every op resolved"))
                    .collect());
            }
            if let Some((_, e)) = failures.iter().find(|(i, e)| {
                !e.is_retryable()
                    || !(requests[*i].1.is_idempotent() || e.is_definitely_not_executed())
            }) {
                return Err(e.clone());
            }
            if attempt >= self.retry.max_attempts || started.elapsed() >= self.retry.budget {
                return Err(failures.swap_remove(0).1);
            }
            let delay = backoff
                .get_or_insert_with(|| self.new_backoff())
                .next_delay()
                .min(self.retry.budget.saturating_sub(started.elapsed()));
            self.stats.record_retries(failures.len() as u64, delay);
            std::thread::sleep(delay);
            pending = failures.into_iter().map(|(i, _)| i).collect();
            pending.sort_unstable();
            attempt += 1;
        }
    }

    /// The replicated fan-out: expand each data op into per-copy
    /// sub-ops, ship them in waves over the ordinary round-attempt
    /// machinery, fail reads over along their mirror chain, and
    /// assemble per-op results under the write quorum.
    ///
    /// Failover waves re-ship immediately and consume no retry
    /// attempts — abandoning a dead copy is progress, not a retry —
    /// so a round that loses one daemon costs one timeout (or one
    /// fast breaker rejection), never a retry storm.
    fn round_replicated(
        &self,
        requests: Vec<(ServerId, Request)>,
        trace: Option<&ActiveTrace>,
    ) -> PvfsResult<Vec<Response>> {
        struct SubMeta {
            /// Remaining read mirrors, next-preferred first.
            fallbacks: VecDeque<(ServerId, Request)>,
            /// One copy of a replicated write (quorum-assembled).
            write_copy: bool,
        }
        let map = Arc::clone(&self.replica);
        let mut sub_reqs: Vec<(ServerId, Request)> = Vec::new();
        let mut sub_meta: Vec<SubMeta> = Vec::new();
        let mut orig_subs: Vec<Vec<usize>> = vec![Vec::new(); requests.len()];
        for (oi, (server, request)) in requests.iter().enumerate() {
            let Some(layout) = request_layout(request) else {
                // Placement-free ops (pings, barriers, scrapes) pass
                // through to their original target untouched.
                orig_subs[oi].push(sub_reqs.len());
                sub_meta.push(SubMeta {
                    fallbacks: VecDeque::new(),
                    write_copy: false,
                });
                sub_reqs.push((*server, request.clone()));
                continue;
            };
            let slot = pvfs_replica::slot_of_server(layout, *server);
            debug_assert!(slot < layout.pcount, "round target is not in the layout");
            if request.op_class() == OpClass::Write {
                // Writes fan out to every copy; the quorum decides
                // success at assembly below.
                for target in map.copies(layout, slot) {
                    orig_subs[oi].push(sub_reqs.len());
                    sub_meta.push(SubMeta {
                        fallbacks: VecDeque::new(),
                        write_copy: true,
                    });
                    sub_reqs.push((
                        target.server,
                        map.rewrite_request(request, slot, target.copy),
                    ));
                }
            } else {
                // Reads go to the healthiest copy; the others queue up
                // as an ordered failover chain.
                let mut targets = map.copies(layout, slot);
                targets.sort_by_key(|t| self.read_copy_key(*t));
                let mut chain: VecDeque<(ServerId, Request)> = targets
                    .iter()
                    .map(|t| (t.server, map.rewrite_request(request, slot, t.copy)))
                    .collect();
                let first = chain.pop_front().expect("at least one copy");
                orig_subs[oi].push(sub_reqs.len());
                sub_meta.push(SubMeta {
                    fallbacks: chain,
                    write_copy: false,
                });
                sub_reqs.push(first);
            }
        }

        let mut results: Vec<Option<Response>> = (0..sub_reqs.len()).map(|_| None).collect();
        let mut errors: Vec<Option<PvfsError>> = (0..sub_reqs.len()).map(|_| None).collect();
        let mut pending: Vec<usize> = (0..sub_reqs.len()).collect();
        // Sub-ops re-aimed at a mirror carry a `failover` note on their
        // next attempt's span, so the waterfall shows the abandonment.
        let mut failed_over: Vec<bool> = vec![false; sub_reqs.len()];
        let started = Instant::now();
        let mut backoff: Option<Backoff> = None;
        let mut attempt = 1u32;
        loop {
            self.stats.record_attempts(pending.len() as u64);
            let failures = {
                let wave = attempt;
                let failed_over = &failed_over;
                let notes_for = move |si: usize| {
                    let mut notes = Vec::new();
                    if wave > 1 {
                        notes.push(format!("retry#{wave}"));
                    }
                    if failed_over[si] {
                        notes.push("failover".into());
                    }
                    notes
                };
                self.round_attempt(&sub_reqs, &pending, &mut results, trace, &notes_for)
            };
            let mut immediate: Vec<usize> = Vec::new();
            let mut retriable: Vec<(usize, PvfsError)> = Vec::new();
            for (si, e) in failures {
                let meta = &mut sub_meta[si];
                if !meta.fallbacks.is_empty() && failover_worthy(&e) {
                    // This replica is unreachable, gated, or shedding:
                    // abandon it and re-aim the sub-op at the next
                    // mirror. The op itself has not failed.
                    sub_reqs[si] = meta.fallbacks.pop_front().expect("nonempty chain");
                    self.stats.record_replica_failover();
                    failed_over[si] = true;
                    immediate.push(si);
                    continue;
                }
                let replayable = sub_reqs[si].1.is_idempotent() || e.is_definitely_not_executed();
                if e.is_retryable() && replayable {
                    retriable.push((si, e));
                } else {
                    // Terminal for this sub-op. A failed write *copy*
                    // does not abort the round — its siblings may still
                    // make quorum — so park the error for assembly.
                    errors[si] = Some(e);
                }
            }
            if immediate.is_empty() && retriable.is_empty() {
                break;
            }
            if immediate.is_empty() {
                if attempt >= self.retry.max_attempts || started.elapsed() >= self.retry.budget {
                    for (si, e) in retriable {
                        errors[si] = Some(e);
                    }
                    break;
                }
                let delay = backoff
                    .get_or_insert_with(|| self.new_backoff())
                    .next_delay()
                    .min(self.retry.budget.saturating_sub(started.elapsed()));
                self.stats.record_retries(retriable.len() as u64, delay);
                std::thread::sleep(delay);
                attempt += 1;
            }
            pending = immediate
                .into_iter()
                .chain(retriable.iter().map(|(si, _)| *si))
                .collect();
            pending.sort_unstable();
        }

        // Assemble per original op, in order. Reads and passthroughs
        // resolved to one sub-op; writes need `required()` of their
        // copies to have acknowledged.
        let required = map.policy().required();
        let expected = map.replicas();
        let mut out = Vec::with_capacity(requests.len());
        for subs in &orig_subs {
            if !sub_meta[subs[0]].write_copy {
                let si = subs[0];
                match results[si].take() {
                    Some(r) => out.push(r),
                    None => return Err(errors[si].take().expect("unresolved sub-op has an error")),
                }
                continue;
            }
            let oks = subs.iter().filter(|&&si| results[si].is_some()).count() as u32;
            if oks < required {
                let e = subs
                    .iter()
                    .find_map(|&si| errors[si].clone())
                    .expect("failed quorum has a copy error");
                return Err(e);
            }
            if oks < expected {
                // Quorum met but a copy missed the write: divergence
                // for a later scrub to repair.
                self.stats.record_quorum_shortfall();
            }
            if let Some(a) = trace {
                a.annotate(format!("quorum_ack:{oks}/{expected}"));
            }
            // Copies apply identical local runs, so any acknowledged
            // copy's reply stands for the op; take the first in copy
            // order for determinism.
            let si = *subs
                .iter()
                .find(|&&si| results[si].is_some())
                .expect("quorum met");
            out.push(results[si].take().expect("just checked"));
        }
        Ok(out)
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

    /// One fan-out attempt over the `pending` subset of `requests`:
    /// ship every op first, then wait on every reply, filling `results`
    /// and returning the `(index, error)` of each op that failed.
    ///
    /// With a trace attached, every shipped op records an `rpc:<op>`
    /// span (annotated by `notes_for`, e.g. `retry#2` / `failover`)
    /// with `send`/`recv` children, and its frame carries the span's
    /// context so daemon-side spans land under the right attempt.
    fn round_attempt(
        &self,
        requests: &[(ServerId, Request)],
        pending: &[usize],
        results: &mut [Option<Response>],
        trace: Option<&ActiveTrace>,
        notes_for: &dyn Fn(usize) -> Vec<String>,
    ) -> Vec<(usize, PvfsError)> {
        let mut failures = Vec::new();
        let mut inflight = Vec::with_capacity(pending.len());
        for &i in pending {
            let (server, request) = &requests[i];
            let class = request.op_class();
            // Breaker admission before spending any work on the op: an
            // open breaker fails this op fast without blocking the
            // round's other ops.
            if let Err(e) = self.health.admit(*server) {
                self.stats.record_breaker_rejection();
                failures.push((i, e));
                continue;
            }
            let rpc_span = trace.map(|_| (SpanId::next(), now_ns()));
            let ctx = trace.zip(rpc_span).map(|(a, (sid, _))| a.ctx(sid));
            match self.encode(request.clone(), ctx) {
                Err(e) => failures.push((i, e)),
                Ok((id, frame)) => {
                    let shipped_at = Instant::now();
                    let op = request.op_name();
                    match self.transport.start(RpcTarget::Server(*server), frame) {
                        Err(e) => {
                            if let (Some(a), Some((sid, t0))) = (trace, rpc_span) {
                                let mut notes = notes_for(i);
                                notes.push("error".into());
                                a.span_with_id(
                                    sid,
                                    a.root(),
                                    format!("rpc:{op}"),
                                    t0,
                                    now_ns().saturating_sub(t0),
                                    notes,
                                );
                            }
                            self.observe_failure(*server, &e);
                            failures.push((i, annotate_round_error(*server, id, e)));
                        }
                        Ok(handle) => {
                            if let (Some(a), Some((sid, t0))) = (trace, rpc_span) {
                                a.span(sid, "send", t0, Vec::new());
                            }
                            inflight
                                .push((i, *server, id, class, shipped_at, handle, rpc_span, op));
                        }
                    }
                }
            }
        }
        for (i, server, id, class, shipped_at, handle, rpc_span, op) in inflight {
            let recv_ns = now_ns();
            let outcome = self.collect_reply(server, id, handle);
            if let (Some(a), Some((sid, t0))) = (trace, rpc_span) {
                a.span(sid, "recv", recv_ns, Vec::new());
                let mut notes = notes_for(i);
                if outcome.is_err() {
                    notes.push("error".into());
                }
                a.span_with_id(
                    sid,
                    a.root(),
                    format!("rpc:{op}"),
                    t0,
                    now_ns().saturating_sub(t0),
                    notes,
                );
            }
            match outcome {
                Ok(response) => {
                    // Latency is measured from each op's own ship time:
                    // the client-perceived completion latency under
                    // fan-out concurrency.
                    self.latency
                        .record(RpcTarget::Server(server), class, shipped_at.elapsed());
                    self.health.record_success(server, shipped_at.elapsed());
                    results[i] = Some(response);
                }
                Err(e) => {
                    self.observe_failure(server, &e);
                    failures.push((i, e));
                }
            }
        }
        failures
    }

    /// Wait for and validate one fan-out reply.
    fn collect_reply(
        &self,
        server: ServerId,
        id: RequestId,
        handle: Box<dyn crate::transport::PendingReply>,
    ) -> PvfsResult<Response> {
        let raw = handle.wait(self.rpc_timeout).map_err(|e| match e {
            WaitError::Timeout => PvfsError::timeout(format!(
                "no reply to request {id} from server {server} within {:?}",
                self.rpc_timeout
            )),
            WaitError::Failed(e) => annotate_round_error(server, id, e),
        })?;
        let (rid, response) =
            decode_response(raw).map_err(|e| annotate_round_error(server, id, e))?;
        if rid == RequestId(0) {
            return Err(PvfsError::protocol(format!(
                "server {server} answered request {id} with the unattributable id 0 \
                 ({})",
                match response {
                    Response::Error(e) => format!("server error: {e}"),
                    other => format!("response {other:?}"),
                }
            )));
        }
        if rid != id {
            return Err(PvfsError::protocol(format!(
                "server {server} answered request {id} with mismatched response id {rid}"
            )));
        }
        response
            .into_result()
            .map_err(|e| annotate_round_error(server, id, e))
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

/// Attach which-server / which-request context to a server-side error
/// from a fan-out round, preserving the variant (callers match on it).
fn annotate_round_error(server: ServerId, id: RequestId, e: PvfsError) -> PvfsError {
    let ctx = format!(" [server {server}, request {id}]");
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

#[cfg(test)]
mod tests {
    use super::*;
    use pvfs_proto::decode_frame_id;
    use pvfs_types::{FileHandle, Region, RegionList, StripeLayout};

    fn layout(n: u32) -> StripeLayout {
        StripeLayout::new(0, n, 16).unwrap()
    }

    /// A client whose single "server 0" is the given raw channel (the
    /// manager slot is a dead end); for protocol-violation tests.
    fn client_over(fake_tx: Sender<NodeMsg>) -> ClusterClient {
        let (mgr_tx, _mgr_rx) = bounded::<NodeMsg>(1);
        // _mgr_rx may drop: these tests never address the manager.
        ClusterClient::with_transport(
            ClientId(9),
            Arc::new(ChanTransport::new(vec![fake_tx], mgr_tx)),
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
        let stats = cluster.server_stats(ServerId(0)).unwrap();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.frames_rx, 1, "one RPC is one wire frame");
        assert!(stats.bytes_rx > 0);
        assert!(stats.bytes_tx > 0);
        assert!(cluster.server_stats(ServerId(5)).is_none());
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
                Request::Read {
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
            .start(RpcTarget::Server(ServerId(0)), corrupted)
            .unwrap()
            .wait(Duration::from_secs(5))
            .unwrap();
        let (rid, response) = decode_response(raw).unwrap();
        assert_eq!(rid, id, "server must echo the request id from the header");
        assert!(matches!(response, Response::Error(PvfsError::Protocol(_))));
    }

    /// A frame too short to even carry a header gets the reserved id 0.
    #[test]
    fn headerless_garbage_reply_uses_reserved_id() {
        let cluster = LiveCluster::spawn(1);
        let raw = cluster
            .transport()
            .start(
                RpcTarget::Server(ServerId(0)),
                Bytes::from(vec![0xffu8; 7]).into(),
            )
            .unwrap()
            .wait(Duration::from_secs(5))
            .unwrap();
        let (rid, response) = decode_response(raw).unwrap();
        assert_eq!(rid, RequestId(0));
        assert!(matches!(response, Response::Error(_)));
    }

    /// round() must treat an id-0 response as a hard protocol error:
    /// with several requests in flight it cannot be attributed.
    #[test]
    fn round_rejects_unattributable_responses() {
        // A fake server that answers everything with id 0.
        let (fake_tx, fake_rx) = bounded::<NodeMsg>(8);
        let fake = std::thread::spawn(move || {
            while let Ok(NodeMsg::Rpc(_, reply, _)) = fake_rx.recv() {
                let _ = reply.send(encode_response(
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

    /// round() must reject a response whose id belongs to a *different*
    /// request (the misattribution the old wildcard allowed).
    #[test]
    fn round_rejects_mismatched_response_id() {
        let (fake_tx, fake_rx) = bounded::<NodeMsg>(8);
        let fake = std::thread::spawn(move || {
            while let Ok(NodeMsg::Rpc(frame, reply, _)) = fake_rx.recv() {
                // Echo a *wrong* (but nonzero) id.
                let id = decode_frame_id(&frame.head).unwrap();
                let _ = reply.send(encode_response(
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

    /// A server that never replies must yield PvfsError::Timeout, not a
    /// hang.
    #[test]
    fn wedged_server_rpc_times_out() {
        // A "server" that accepts requests and never answers. Breaker
        // off: this test pins the *timeout* path; with the default
        // breaker the retries' timeouts would open the circuit and the
        // second call would surface `Unavailable` instead.
        let (wedged_tx, wedged_rx) = bounded::<NodeMsg>(8);
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
            let stats = cluster.server_stats(ServerId(s)).unwrap();
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
