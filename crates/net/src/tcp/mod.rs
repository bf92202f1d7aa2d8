//! Real sockets: the TCP transport subsystem.
//!
//! The channel transport proves the protocol; this module proves it on
//! a byte stream. Three layers:
//!
//! * [`frame`] — length-prefixed framing of `pvfs-proto` frames with a
//!   hard size cap ([`pvfs_proto::MAX_WIRE_FRAME`]) checked before any
//!   allocation, and `read_exact`-style reassembly that survives
//!   arbitrary short reads and coalesced segments;
//! * [`server`] — per-daemon `TcpListener` acceptors whose connection
//!   readers offer frames to the same doors the channel transport's
//!   lanes do, with graceful drain-then-join shutdown;
//! * [`pool`] — the client-side connection pool (persistent,
//!   `TCP_NODELAY` connections; one fixed deadline per RPC however many
//!   partial reads the response takes).
//!
//! Everything above the [`Transport`](crate::Transport) trait is
//! byte-for-byte identical across transports: same codec, same request
//! ids, same timeouts, same error taxonomy. Set `PVFS_TRANSPORT=tcp`
//! and the full client test suite runs over loopback sockets.

pub mod frame;
pub mod pool;
pub mod server;

pub use pool::TcpTransport;
pub use server::TcpCluster;
