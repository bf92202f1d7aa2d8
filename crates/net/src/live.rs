//! The live cluster harness: daemons, their worker pools, and the
//! transport in front of them, in one process.
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
//! a server. The manager is a pool of one over a mutex — metadata
//! operations are rare and order-sensitive.
//!
//! # Transports
//!
//! The cluster speaks one of two [`Transport`]s, chosen by
//! [`TransportKind::from_env`] (`PVFS_TRANSPORT=chan|tcp`, default
//! `chan`) or explicitly via [`LiveCluster::spawn_transport`]:
//!
//! * **chan** — every daemon queue is an in-process bounded channel;
//! * **tcp** — every daemon gets a loopback `TcpListener`
//!   ([`crate::tcp`]), and clients speak length-prefixed frames over
//!   one pooled socket per daemon, their window of requests pipelined
//!   on it.
//!
//! Both drive every daemon through the same [`Service`] and the same
//! [`serve_rpc`] ([`crate::serve`]); [`ClusterClient`] is identical
//! over both: same codec, same request ids, same deadlines, same
//! diagnostics.

use bytes::Bytes;
use pvfs_disk::StorageConfig;
use pvfs_proto::{data_response_head, encode_response, frame_is_stats_scrape, Frame, Response};
use pvfs_server::{IoDaemon, IodConfig, Manager, Scratch};
use pvfs_types::{ClientId, ServerId, StatsSnapshot};
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::chan::Sender;
use crate::cluster::ClusterClient;
use crate::fault::{FaultPlan, FaultyTransport};
use crate::gate::SerialGate;
use crate::pool::WorkerPool;
use crate::serve::{serve_rpc, Service};
use crate::spares::Spares;
use crate::tcp::{TcpCluster, TcpTransport};
use crate::transport::{ChanNode, ChanTransport, NodeMsg, Transport, TransportKind};

/// The daemon-side machinery behind a [`LiveCluster`], per transport.
enum Backend {
    /// One queue and worker pool per I/O daemon, the manager's last.
    Chan {
        txs: Vec<Sender<NodeMsg>>,
        pools: Vec<WorkerPool>,
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
    /// `PVFS_STATS=dump`: print the daemons' books at teardown.
    dump_stats: bool,
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
                let depth = config.queue_depth.max(1);
                // One worker keeps metadata operations serialized in
                // arrival order.
                let manager = Arc::new(Manager::new());
                let (mut nodes, pools): (Vec<_>, Vec<_>) = daemons
                    .iter()
                    .map(|d| {
                        let name = format!("iod{}", d.id().0);
                        spawn_chan_server(&name, config.workers.max(1), depth, d.clone())
                    })
                    .chain([spawn_chan_server("pvfs-mgr", 1, depth, manager)])
                    .unzip();
                let txs = nodes.iter().map(|n| n.tx.clone()).collect();
                let mgr = nodes.pop().expect("the manager's node is last");
                (
                    Arc::new(ChanTransport::new(nodes, mgr)),
                    Backend::Chan { txs, pools },
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
            dump_stats: pvfs_types::env::parsed("PVFS_STATS", parse_stats, false),
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

    /// Direct handle on one I/O daemon (verification oracles and storage
    /// crash injection in tests).
    pub fn daemon(&self, server: ServerId) -> Option<Arc<IoDaemon>> {
        self.daemons.get(server.index()).cloned()
    }

    /// Full in-process statistics snapshot of one I/O daemon — the same
    /// [`StatsSnapshot`] the `GetStats` RPC returns, counters and
    /// histograms included.
    pub fn stats_snapshot(&self, server: ServerId) -> Option<StatsSnapshot> {
        self.daemons
            .get(server.index())
            .map(|d| d.ledger().snapshot())
    }

    /// The cluster-wide serialization gate (data sieving writes).
    pub fn gate(&self) -> Arc<SerialGate> {
        self.gate.clone()
    }
}

/// Parse `PVFS_STATS`: `dump` — one JSON line per daemon on stderr when
/// a [`LiveCluster`] tears down — is all it can say.
pub fn parse_stats(spec: &str) -> Result<bool, String> {
    match spec {
        "dump" => Ok(true),
        other => Err(format!("expected `dump`, got {other:?}")),
    }
}

/// One channel-backed daemon: its bounded queue (as the transport's
/// [`ChanNode`]) and the worker pool draining it through [`serve_rpc`],
/// out of scratch the queue owns (a [`Spares`] shared by the workers).
fn spawn_chan_server(
    name: &str,
    workers: usize,
    queue_depth: usize,
    service: Arc<dyn Service>,
) -> (ChanNode, WorkerPool) {
    let worker_service = service.clone();
    let spares = Mutex::new(Spares::<Scratch>::default());
    let (tx, pool) = WorkerPool::spawn(name, workers, queue_depth, move |msg| match msg {
        NodeMsg::Rpc(frame, mut reply, queued_at) => {
            let scrape = frame_is_stats_scrape(&frame.head);
            let mut scratch = spares.lock().unwrap().take().unwrap_or_default();
            // A read is gathered into the buffer the request brought — the
            // lane's, which gets it back as the `Data` reply's payload, or
            // beside a reply that has none.
            scratch.adopt_read(std::mem::take(&mut reply.spare));
            let (id, response) =
                serve_rpc(&*worker_service, frame, queued_at, scrape, &mut scratch);
            reply.spare = scratch.release_read();
            // The scratch goes back *before* the reply is handed over:
            // the frame the client sends on seeing it must find it back.
            spares.lock().unwrap().give(scratch);
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
            if !scrape {
                worker_service.ledger().wire_tx(encoded.len() as u64);
            }
            reply.send(encoded);
            ControlFlow::Continue(())
        }
        NodeMsg::Shutdown => ControlFlow::Break(()),
    });
    let service = Some(service);
    (ChanNode { tx, service }, pool)
}

impl Drop for LiveCluster {
    fn drop(&mut self) {
        // PVFS_STATS=dump: one JSON line per daemon to stderr at
        // teardown, so any run (bench, shell, test) can be scraped
        // post-hoc without instrumenting the caller.
        if self.dump_stats {
            for daemon in &self.daemons {
                eprintln!(
                    "{{\"daemon\":\"iod{}\",\"stats\":{}}}",
                    daemon.id().0,
                    daemon.ledger().snapshot().to_json()
                );
            }
        }
        // The TCP backend tears itself down (TcpCluster/TcpServer Drop);
        // the channel backend drains here.
        if let Backend::Chan { txs, pools } = &mut self.backend {
            for (tx, pool) in txs.iter().zip(pools.iter()) {
                // One Shutdown per worker: each worker consumes exactly
                // one and exits.
                for _ in 0..pool.workers() {
                    let _ = tx.send(NodeMsg::Shutdown);
                }
            }
            for pool in pools.drain(..) {
                pool.join();
            }
        }
    }
}
