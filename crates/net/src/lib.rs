//! The live PVFS cluster and its pluggable RPC transports.
//!
//! [`LiveCluster::spawn`] starts one I/O daemon per server plus a
//! manager, mirroring the PVFS deployment of §2 (daemons on I/O nodes,
//! one manager, clients talking to both directly). The client↔daemon
//! path is abstracted by the [`Transport`] trait with two
//! implementations, selected by `PVFS_TRANSPORT=chan|tcp`:
//!
//! * **chan** (default) — in-process: a client's lane offers each
//!   encoded frame to the daemon's door itself and hears back on a std
//!   `sync_channel`; requests and responses still pass through the real
//!   `pvfs-proto` codec, so the MTU and trailing-data limits are
//!   enforced exactly as on a socket;
//! * **tcp** ([`tcp`]) — real loopback/LAN sockets: length-prefixed
//!   frames with a hard size cap, a `TcpListener` per daemon, and a
//!   client-side pool of persistent `TCP_NODELAY` connections.
//!
//! One path on each side of the wire:
//!
//! * every client RPC — [`ClusterClient::call`], [`ClusterClient::round`],
//!   at any replication factor, traced or not — runs through one
//!   request pipeline ([`cluster`]: expand → a window of ship/land per
//!   daemon → failover, backoff → assemble), decided by a pump that
//!   does no I/O and driven by one loop that does all of it;
//! * every daemon stands behind one door (`door.rs` decides, `serve.rs`
//!   drives): a queue of `IodConfig::queue_depth` (default 64, the
//!   backpressure), at most `IodConfig::workers` frames in service
//!   (default `min(4, cores)`; the manager's one). A frame is admitted,
//!   served, answered and drained by the same code whichever transport
//!   brought it; [`live`] has the concurrency model.
//!
//! Every client RPC carries a deadline (default
//! [`cluster::DEFAULT_RPC_TIMEOUT`]) bounding the **total** elapsed time
//! of the RPC; a wedged (or trickling) server produces
//! `PvfsError::Timeout`, never a hang. Request ids start at 1 —
//! responses with the reserved id 0 are unattributable and rejected on
//! multi-request paths.
//!
//! The cluster also hosts the [`SerialGate`] clients use to serialize
//! data-sieving writes (PVFS has no file locking; the paper used an
//! `MPI_Barrier` loop).
//!
//! # Surviving a hostile cluster
//!
//! Transient faults are normal operating conditions, not exceptions:
//!
//! * [`fault`] — `PVFS_FAULTS="drop:0.02,disconnect:0.02,corrupt:0.01"`
//!   wraps any transport in a seeded, deterministic fault injector
//!   ([`FaultyTransport`]), turning every suite into a chaos suite;
//! * [`retry`] — every [`ClusterClient`] retries transient failures
//!   ([`pvfs_types::PvfsError::is_retryable`]) of idempotent requests
//!   under a [`RetryPolicy`] (bounded attempts, decorrelated-jitter
//!   backoff, per-op budget; `PVFS_RETRY=off` disables). A failed
//!   fan-out round re-sends **only the failed ops** — healthy servers
//!   see no duplicate traffic;
//! * the TCP connection pool self-heals: a stale parked connection
//!   (server closed it while idle) is evicted and transparently
//!   re-dialed, replaying the in-flight idempotent request once.
//!
//! # Brown-out resilience
//!
//! A list-I/O round is only as fast as the slowest daemon it touches,
//! so one sick daemon browns out the whole cluster. Three layers keep a
//! brown-out local ([`health`] has the model):
//!
//! * **failure detection** — every RPC outcome (plus the cheap `Ping`
//!   probe) feeds a per-daemon [`HealthTracker`]'s failure streak;
//! * **circuit breakers** — a daemon past its failure threshold
//!   ([`BreakerPolicy`]) fails fast with `PvfsError::Unavailable`
//!   (closed → open → one half-open probe → closed), so retries stop
//!   hammering a corpse and rounds touching it cost microseconds, not
//!   timeouts;
//! * **load shedding** — a daemon whose bounded queue is full answers
//!   `PvfsError::Overloaded` (retryable, provably unexecuted)
//!   immediately instead of stalling the client into its timeout; the
//!   client narrows its window on that daemon and books no latency
//!   sample for the refusal.

pub mod cluster;
mod door;
mod envspec;
pub mod fault;
pub mod gate;
pub mod health;
pub mod live;
mod pump;
pub mod retry;
mod serve;
pub mod spares;
pub mod tcp;
pub mod trace;
pub mod transport;

pub use cluster::{ClusterClient, OpStream, DEFAULT_RPC_TIMEOUT, WINDOW};
pub use fault::{FaultCounts, FaultKind, FaultPlan, FaultyTransport};
pub use gate::SerialGate;
pub use health::{BreakerPolicy, BreakerState, HealthTracker};
pub use live::LiveCluster;
pub use pvfs_replica::{ReplicaMap, ReplicaPolicy, ReplicaTarget, WriteQuorum};
pub use pvfs_types::ClientStats;
pub use retry::RetryPolicy;
pub use tcp::TcpTransport;
pub use trace::{ActiveTrace, Tracer};
pub use transport::{Lane, RpcTarget, Transport, TransportKind, WaitError};
