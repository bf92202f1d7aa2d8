//! Collective two-phase I/O over PVFS — the fourth execution engine.
//!
//! The paper's three access methods (multiple, data sieving, list I/O)
//! treat every client as an island; §4 even serializes data-sieving
//! writes with an `MPI_Barrier` loop because PVFS has no locks. The
//! canonical next step in the noncontiguous-I/O literature is
//! *collective* two-phase I/O (Thakur, Gropp & Lusk, "Optimizing
//! Noncontiguous Accesses in MPI-IO"): clients that collectively touch
//! an interleaved file range elect **aggregators**, partition the file
//! into disjoint **file domains**, exchange data among themselves, and
//! hit the file system with few large well-formed requests.
//!
//! Three pieces implement that here:
//!
//! * [`Communicator`] — an in-process fabric shared (via `Arc`
//!   internals) by the client threads one collective job spawns, with
//!   `barrier`, `allgather`, and point-to-point `exchange` primitives,
//!   instrumented with [`CommStats`] counters.
//! * [`DomainMap`] — the file-domain partitioner. Domains are
//!   *stripe-aligned by construction*: stripe slot `s` belongs to
//!   aggregator `s % aggregators`, so each aggregator only ever talks
//!   to "its" I/O daemons and no two aggregators can touch the same
//!   byte. Disjointness is what makes merged (sieving-style) writes
//!   safe **without** the global `SerialGate`.
//! * [`CollectiveFile`] — the two-phase read/write engines surfacing
//!   as `read_all` / `write_all`, the only way into collective I/O
//!   (`pvfs_core::plan` compiles one rank's request, never a
//!   collective's). Writes ship pieces rank→aggregator,
//!   aggregators merge and write once per domain window; reads run the
//!   phases in reverse.
//!
//! Aggregator-side I/O goes through the *existing* planner
//! (`Method::List` over `pvfs-client`'s executor), so wire accounting,
//! retries, and fault injection all apply unchanged — an aggregator
//! retrying a `WriteList` under faults is safe because data requests
//! are idempotent (`pvfs_proto::Request::is_idempotent`).
//!
//! Knobs: `PVFS_AGGREGATORS` caps the aggregator count (default: one
//! per I/O daemon) and [`CollectiveConfig::cb_buffer`] bounds each
//! aggregator's staging buffer (16 MiB), mirroring ROMIO's `cb_nodes` /
//! `cb_buffer_size` hints.

pub mod comm;
pub mod config;
pub mod domain;
pub mod file;

pub use comm::{CommStats, Communicator, Envelope};
pub use config::{CollectiveConfig, DEFAULT_CB_BUFFER};
pub use domain::{windows, DomainMap};
pub use file::CollectiveFile;
