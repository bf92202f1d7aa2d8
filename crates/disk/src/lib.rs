//! Simulated local storage under each PVFS I/O daemon.
//!
//! PVFS is "built on the local file system, which allows the Linux buffer
//! cache to reduce the cost of individual local disk operations on the
//! I/O servers" (§2). Each I/O daemon in this reproduction therefore owns
//! one [`LocalFile`] per open handle, which combines:
//!
//! * [`SparseStore`] — the functional byte content (chunked, sparse,
//!   zero-filled holes), playing the role of platter + page contents;
//! * [`BufferCache`] — an LRU block cache *residency model*: it tracks
//!   which blocks would be memory-resident and which accesses would go
//!   to disk, without duplicating the data;
//! * [`DiskModel`] — a seek + rotational + transfer cost model for the
//!   accesses that miss the cache (calibrated to the paper's 9 GB
//!   Quantum Atlas IV SCSI disks).
//!
//! The cache and disk models run only in a file built with them (the
//! simulator's): such a file adds what each access costs to its meter, a
//! running [`CostReport`] the discrete-event simulator converts to
//! virtual time. A live daemon's files run neither model.
//!
//! The byte content itself sits behind the [`StorageBackend`] seam:
//! [`SparseStore`] is the volatile in-memory backend, and [`FileStore`]
//! is the durable one — a real local file per handle plus a write-ahead
//! intent journal ([`journal`]) that makes noncontiguous list writes
//! all-or-nothing across a crash (`PVFS_STORAGE=file:<dir>`,
//! `PVFS_SYNC=never|interval:<ms>|always`).

pub mod backend;
pub mod cache;
mod checksum;
pub mod filestore;
pub mod journal;
pub mod localfile;
pub mod model;
pub mod scratch;
pub mod store;

pub use backend::{CrashPoint, StorageBackend, StorageConfig, StorageMetrics, SyncPolicy};
pub use cache::{BufferCache, CacheConfig, CacheOutcome, CachePolicy};
pub use filestore::FileStore;
pub use journal::{Journal, JournalRecord};
pub use localfile::{CostReport, LocalFile};
pub use model::DiskModel;
pub use scratch::ScratchDir;
pub use store::SparseStore;
