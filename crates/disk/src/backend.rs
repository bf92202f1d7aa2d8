//! The storage-engine seam: one trait, two backends.
//!
//! Every I/O daemon stores the bytes of each local file behind a
//! [`StorageBackend`]: the in-memory [`SparseStore`](crate::SparseStore)
//! (fast, volatile — the simulator's backend) or the durable
//! [`FileStore`](crate::FileStore) (a real local file plus a write-ahead
//! intent journal). The daemon picks a backend per
//! [`StorageConfig`], normally parsed from `PVFS_STORAGE`:
//!
//! ```text
//! PVFS_STORAGE=mem            # default: in-memory SparseStore
//! PVFS_STORAGE=file:<dir>     # FileStore under <dir>/iod<N>/
//! PVFS_SYNC=never|interval:<ms>|always   # journal fsync policy
//! ```
//!
//! The trait is deliberately small: positional reads, *batched*
//! all-or-nothing writes (one noncontiguous list write = one batch = one
//! journal record), truncate, and an explicit durability barrier
//! ([`StorageBackend::sync`]). Accounting methods expose what each
//! backend can promise: resident bytes (memory) and durable bytes
//! (recoverable after a crash). What the durable engine *counts* —
//! journal appends, fsyncs and their latency, the checkpoint backlog —
//! it counts straight into the ledger of the daemon that opened it
//! ([`StorageMetrics`]).

use pvfs_types::{PvfsError, PvfsResult};
use std::path::PathBuf;
use std::time::Duration;

/// How eagerly the [`FileStore`](crate::FileStore) journal reaches
/// stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Never fsync on the write path; durability only at explicit
    /// [`StorageBackend::sync`] barriers (and checkpoints).
    Never,
    /// Group commit: fsync the journal at most once per interval; a
    /// batch may be lost to a crash within the window.
    Interval(Duration),
    /// Fsync the journal before every write acknowledges — a committed
    /// batch is durable when the RPC reply leaves the daemon.
    Always,
}

impl SyncPolicy {
    /// Parse the `PVFS_SYNC` spelling: `never`, `interval:<ms>`,
    /// `always`.
    pub fn parse(s: &str) -> PvfsResult<SyncPolicy> {
        match s {
            "never" => Ok(SyncPolicy::Never),
            "always" => Ok(SyncPolicy::Always),
            other => match other.strip_prefix("interval:") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(|ms| SyncPolicy::Interval(Duration::from_millis(ms)))
                    .map_err(|_| {
                        PvfsError::config(format!("PVFS_SYNC interval {ms:?} is not milliseconds"))
                    }),
                None => Err(PvfsError::config(format!(
                    "PVFS_SYNC={other:?} is not a sync policy (never|interval:<ms>|always)"
                ))),
            },
        }
    }

    /// The policy selected by `PVFS_SYNC` (default: `interval:100`, a
    /// group-commit window wide enough to batch bursts without letting
    /// more than 100 ms of writes ride on a crash).
    pub fn from_env() -> PvfsResult<SyncPolicy> {
        match pvfs_types::env::lookup("PVFS_SYNC") {
            Some(v) => SyncPolicy::parse(&v),
            None => Ok(SyncPolicy::Interval(Duration::from_millis(100))),
        }
    }
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncPolicy::Never => write!(f, "never"),
            SyncPolicy::Interval(d) => write!(f, "interval:{}", d.as_millis()),
            SyncPolicy::Always => write!(f, "always"),
        }
    }
}

/// Which storage backend a daemon gives each of its local files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageConfig {
    /// In-memory [`SparseStore`](crate::SparseStore) (the default).
    Mem,
    /// Durable [`FileStore`](crate::FileStore): one data file + journal
    /// per handle under `dir`.
    File {
        /// The daemon's data directory.
        dir: PathBuf,
        /// Journal fsync policy.
        sync: SyncPolicy,
    },
}

impl StorageConfig {
    /// Parse the `PVFS_STORAGE` spelling: `mem`, or `file:<dir>` — the
    /// durable backend, its journal fsynced as `sync` says.
    pub fn parse(spec: &str, sync: SyncPolicy) -> PvfsResult<StorageConfig> {
        match spec.strip_prefix("file:") {
            None if spec == "mem" => Ok(StorageConfig::Mem),
            Some(dir) if !dir.is_empty() => Ok(StorageConfig::File {
                dir: PathBuf::from(dir),
                sync,
            }),
            _ => Err(PvfsError::config(format!(
                "PVFS_STORAGE={spec:?} is not a backend (mem|file:<dir>)"
            ))),
        }
    }

    /// The backend selected by `PVFS_STORAGE` (+ `PVFS_SYNC` for the
    /// file backend). Default: [`StorageConfig::Mem`].
    pub fn from_env() -> PvfsResult<StorageConfig> {
        let sync = SyncPolicy::from_env()?;
        match pvfs_types::env::lookup("PVFS_STORAGE") {
            None => Ok(StorageConfig::Mem),
            Some(spec) => StorageConfig::parse(&spec, sync),
        }
    }

    /// This configuration scoped to one daemon: the file backend gets a
    /// per-daemon subdirectory (`<dir>/iod<N>`) so daemons sharing a
    /// base directory never collide on handle numbers.
    pub fn for_daemon(&self, daemon: u32) -> StorageConfig {
        match self {
            StorageConfig::Mem => StorageConfig::Mem,
            StorageConfig::File { dir, sync } => StorageConfig::File {
                dir: dir.join(format!("iod{daemon}")),
                sync: *sync,
            },
        }
    }
}

impl std::fmt::Display for StorageConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageConfig::Mem => write!(f, "mem"),
            StorageConfig::File { dir, sync } => {
                write!(f, "file:{} (sync={sync})", dir.display())
            }
        }
    }
}

/// Where a [`FileStore`](crate::FileStore) keeps its books: the ledger
/// of the daemon that opened it (`journal_*`, `flushes`, `fsyncs`, the
/// `journal_depth` gauge, `fsync_time`), shared by `Arc` so that what
/// the storage engine counts is in the daemon's `GetStats` snapshot with
/// no copy in between. The memory backend touches none of it.
pub type StorageMetrics = pvfs_types::Ledger;

/// Crash injection for the durable backend: where a
/// [`FileStore`](crate::FileStore) "loses power" mid-write. After the
/// injected crash the store is wedged (every subsequent operation fails
/// with [`PvfsError::Storage`]) and its on-disk state is exactly what a
/// SIGKILL at that instant would leave — the recovery tests reopen the
/// data directory and assert all-or-nothing semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Power loss mid-journal-append: only a prefix of the intent
    /// record reaches the journal. The batch was never committed, so
    /// recovery must discard the torn record — none of the batch's
    /// regions may be visible after restart.
    TornJournal,
    /// Power loss after the intent record committed (appended and
    /// synced) but after only `applied` of the batch's runs reached the
    /// data file. Recovery must replay the journal and complete the
    /// batch — all of its regions must be visible after restart.
    AfterCommit {
        /// Data-file runs applied before the lights went out.
        applied: usize,
    },
}

/// What one I/O daemon's per-handle store must provide.
///
/// Implementations: [`SparseStore`](crate::SparseStore) (memory) and
/// [`FileStore`](crate::FileStore) (durable). The write path is batch
/// oriented: the daemon collects every local run of a request and
/// commits them as one batch, so a ⌈n/64⌉-region list write is
/// all-or-nothing across a crash on the durable backend.
pub trait StorageBackend: std::fmt::Debug + Send {
    /// One past the highest byte written (the local file size).
    fn size(&self) -> u64;

    /// Read `buf.len()` bytes at `offset`; holes and bytes past EOF
    /// read as zeros.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> PvfsResult<()>;

    /// Apply a batch of `(offset, data)` runs atomically with respect
    /// to crashes: after recovery either every run is visible or none
    /// is. In-memory backends apply in order and cannot fail.
    fn write_batch(&mut self, runs: &[(u64, &[u8])]) -> PvfsResult<()>;

    /// Truncate to `size` bytes (journaled on durable backends — replay
    /// must not resurrect truncated bytes).
    fn truncate(&mut self, size: u64) -> PvfsResult<()>;

    /// Durability barrier: make everything written so far crash-proof.
    /// Returns the bytes now durable (0 for memory backends).
    fn sync(&mut self) -> PvfsResult<u64>;

    /// Bytes of buffered state held in memory.
    fn resident_bytes(&self) -> u64;

    /// Bytes guaranteed to survive a crash right now (0 for memory
    /// backends; the data-file size covered by the last barrier or
    /// synced journal for durable ones).
    fn durable_bytes(&self) -> u64;

    /// Journal records committed but not yet checkpointed (0 when there
    /// is no journal).
    fn journal_depth(&self) -> u64 {
        0
    }

    /// Arm a crash at the given point (test fault injection; no-op for
    /// backends with no crash surface).
    fn inject_crash(&mut self, _point: CrashPoint) {}

    /// Convenience: read `len` bytes at `offset` into a fresh vector.
    fn read_vec(&self, offset: u64, len: usize) -> PvfsResult<Vec<u8>> {
        let mut buf = vec![0u8; len];
        self.read_at(offset, &mut buf)?;
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn sync_policy_parses_all_spellings() {
        assert_eq!(SyncPolicy::parse("never").unwrap(), SyncPolicy::Never);
        assert_eq!(SyncPolicy::parse("always").unwrap(), SyncPolicy::Always);
        assert_eq!(
            SyncPolicy::parse("interval:250").unwrap(),
            SyncPolicy::Interval(Duration::from_millis(250))
        );
        assert!(SyncPolicy::parse("sometimes").is_err());
        assert!(SyncPolicy::parse("interval:fast").is_err());
    }

    #[test]
    fn sync_policy_displays_roundtrip() {
        for s in ["never", "always", "interval:42"] {
            assert_eq!(SyncPolicy::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn storage_config_scopes_per_daemon() {
        let base = StorageConfig::File {
            dir: PathBuf::from("/data/pvfs"),
            sync: SyncPolicy::Always,
        };
        match base.for_daemon(3) {
            StorageConfig::File { dir, sync } => {
                assert_eq!(dir, PathBuf::from("/data/pvfs/iod3"));
                assert_eq!(sync, SyncPolicy::Always);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(StorageConfig::Mem.for_daemon(3), StorageConfig::Mem);
    }

    #[test]
    fn metrics_reset_keeps_the_depth_gauge() {
        let m = StorageMetrics::default();
        m.journal_appends.store(5, Ordering::Relaxed);
        m.journal_depth.store(3, Ordering::Relaxed);
        m.record_fsync(pvfs_types::clock::now_ns());
        m.reset();
        assert_eq!(m.journal_appends.load(Ordering::Relaxed), 0);
        assert_eq!(m.fsyncs.load(Ordering::Relaxed), 0);
        assert_eq!(m.fsync_time.count(), 0);
        assert_eq!(m.journal_depth.load(Ordering::Relaxed), 3);
    }
}
