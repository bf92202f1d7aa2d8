//! Collective two-phase I/O over PVFS, as one more plan.
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
//! The planning lives in `pvfs-core` ([`pvfs_core::DomainMap`], the
//! stripe-aligned partitioner, and [`pvfs_core::plan_collective`]), and
//! the one plan runner moves the bytes. This crate holds the rest: the
//! in-process [`Communicator`] (`allgather`, point-to-point `exchange`,
//! counted in [`CommStats`]), the knobs ([`CollectiveConfig`], ROMIO's
//! `cb_nodes` / `cb_buffer_size`), and the call itself,
//! [`CollectiveFile`]'s `read_all` / `write_all`: allgather the file
//! lists, plan, and run the plan through `pvfs-client`'s executor,
//! moving its exchange through the communicator. Aggregators issue list
//! I/O, so wire accounting, retries and fault injection apply unchanged —
//! a retried `WriteList` is safe because data requests are idempotent.

pub mod comm;
pub mod config;
pub mod file;

pub use comm::{CommStats, Communicator, Envelope};
pub use config::{CollectiveConfig, DEFAULT_CB_BUFFER};
pub use file::CollectiveFile;
