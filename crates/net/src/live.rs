//! The live cluster harness: daemons, their doors, and the transport
//! in front of them, in one process.
//!
//! # Concurrency model
//!
//! Each daemon stands behind one door (`pvfs_decide::door` decides on
//! the readings it is given, one threaded driver, `serve.rs`, does): at
//! most [`IodConfig::workers`] frames in service at once (default
//! [`pvfs_server::default_workers`]; the manager's one) and a queue of
//! [`IodConfig::queue_depth`] frames, the backpressure. The daemon itself
//! is thread-safe ([`IoDaemon::handle`] takes `&self` over a
//! handle-sharded file table), so requests for different handles run in
//! parallel. Teardown closes every door, answering what was admitted,
//! then dumps.
//!
//! # Transports
//!
//! [`TransportKind::from_env`] (`PVFS_TRANSPORT=chan|tcp`) or
//! [`LiveCluster::spawn_transport`] chooses the [`Transport`]: over chan a
//! client's lane offers its frames to the door itself; over tcp
//! ([`crate::tcp`]) every door has a loopback listener, and the reader of
//! a client's one pooled connection offers them. Past the door nothing
//! differs, and [`ClusterClient`] is identical over both.

use pvfs_disk::StorageConfig;
use pvfs_server::{IoDaemon, IodConfig};
use pvfs_types::{ClientId, ServerId, StatsSnapshot};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crate::cluster::ClusterClient;
use crate::fault::{FaultPlan, FaultyTransport};
use crate::gate::SerialGate;
use crate::serve::{open_doors, Driver};
use crate::tcp::{TcpCluster, TcpTransport};
use crate::transport::{ChanTransport, Transport, TransportKind};

/// The daemon-side machinery behind a [`LiveCluster`], per transport.
enum Backend {
    /// One door per I/O daemon, the manager's last.
    Chan(Vec<Arc<Driver>>),
    Tcp(TcpCluster),
}

/// A live PVFS cluster: a door per I/O daemon plus a manager's, fronted
/// by a channel or TCP transport. Dropping the cluster shuts every
/// thread (and listener) down.
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
                let doors = open_doors(&daemons, config);
                let chan = Arc::new(ChanTransport::new(doors.clone()));
                (chan, Backend::Chan(doors))
            }
            TransportKind::Tcp => {
                let tcp = TcpCluster::spawn(&daemons, config);
                let dial = Arc::new(TcpTransport::new(tcp.server_addrs(), tcp.mgr_addr()));
                (dial, Backend::Tcp(tcp))
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

    /// Frames each I/O daemon's door serves at once, inline and by its
    /// worker threads alike — whether or not those have started: the
    /// daemon's `workers` gauge.
    pub fn workers_per_server(&self) -> usize {
        self.daemons[0].ledger().workers.load(Ordering::Relaxed) as usize
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

impl Drop for LiveCluster {
    fn drop(&mut self) {
        // Every door drains before it shuts. The channel backend's are
        // closed here — clients may still hold them, and find them shut.
        match &mut self.backend {
            Backend::Chan(doors) => doors.iter().for_each(|door| door.close()),
            Backend::Tcp(tcp) => tcp.shutdown(),
        }
        // PVFS_STATS=dump: one JSON line per daemon to stderr once the
        // doors have drained — every frame they admitted is in it — so
        // any run (bench, shell, test) can be scraped post-hoc.
        if self.dump_stats {
            for daemon in &self.daemons {
                eprintln!(
                    "{{\"daemon\":\"iod{}\",\"stats\":{}}}",
                    daemon.id().0,
                    daemon.ledger().snapshot().to_json()
                );
            }
        }
    }
}
