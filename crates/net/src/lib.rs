//! The live PVFS cluster: what `pvfs-decide` decides, done with real
//! threads, clocks and sockets.
//!
//! * `pvfs-decide` decides, on clock readings it is given: the request
//!   pipeline's pump over a client's [`Endpoint`](pvfs_decide::Endpoint),
//!   a daemon's door, the per-daemon window and breaker, retries and who
//!   owns a frame's buffers (`pvfs_decide::{health, retry, spares}`).
//! * This crate drives: [`ClusterClient`] and its one loop, `drive`
//!   ([`cluster`]); each daemon's door and its workers (`serve.rs`); the
//!   [`Transport`]s, in-process channels ([`transport`]) or TCP
//!   ([`tcp`]), chosen by `PVFS_TRANSPORT`; seeded fault injection
//!   ([`fault`], `PVFS_FAULTS`); the [`SerialGate`] of sieving writes;
//!   the client's [`Tracer`](trace::Tracer); and [`LiveCluster`], one process of daemons
//!   and their doors ([`live`] has the concurrency model).

pub mod cluster;
pub mod fault;
pub mod gate;
pub mod live;
mod serve;
pub mod tcp;
pub mod trace;
pub mod transport;

pub use cluster::{ClusterClient, OpStream, DEFAULT_RPC_TIMEOUT, WINDOW};
pub use fault::FaultPlan;
pub use gate::SerialGate;
pub use live::LiveCluster;
pub use pvfs_decide::health::{BreakerPolicy, BreakerState};
pub use pvfs_decide::retry::RetryPolicy;
pub use pvfs_replica::{ReplicaPolicy, WriteQuorum};
pub use pvfs_types::ClientStats;
pub use tcp::TcpTransport;
pub use trace::ActiveTrace;
pub use transport::{
    Fill, Lane, Memory, Placed, Put, RpcTarget, Transport, TransportKind, WaitError,
};
