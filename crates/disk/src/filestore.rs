//! Durable per-handle storage: a real local file plus a write-ahead
//! intent journal.
//!
//! This is the backend PVFS itself had: each I/O daemon keeps the
//! stripe of every file handle in a plain local Unix file (`h<N>.data`
//! under the daemon's data directory), leaning on the kernel page cache
//! exactly as §2 of the paper describes. What the original lacked —
//! and what makes the chaos suite honest — is crash atomicity for
//! noncontiguous list writes: a ⌈n/64⌉-region request must never be
//! half-visible after a restart. [`FileStore`] gets that from a
//! write-ahead journal (`h<N>.journal`, see [`crate::journal`]): the
//! whole batch is committed as one checksummed intent record before any
//! byte touches the data file, recovery replays committed records and
//! discards torn ones, and a periodic *checkpoint* (fsync data, zero
//! journal) bounds replay work.
//!
//! Durability is tunable per [`SyncPolicy`]: `always` fsyncs the
//! journal before a write acknowledges (collective `write_all` results
//! are durable at return), `interval:<ms>` fsyncs it on a write that
//! finds the last fsync older than the interval, `never` leaves fsync to
//! explicit [`FileStore::sync`] barriers. No batch is torn by a process
//! kill; against a power cut that holds at `always` only, since at
//! `never` and `interval` a batch's data writes can reach the disk
//! ahead of its record.

use crate::backend::{StorageBackend, StorageMetrics, SyncPolicy};
use crate::journal::{Journal, JournalRecord, StoreFile};
use pvfs_types::clock::{self, now_ns};
use pvfs_types::{PvfsError, PvfsResult};
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Checkpoint after this many committed records…
pub const JOURNAL_CHECKPOINT_RECORDS: u64 = 128;
/// …or after this many journal bytes, whichever comes first.
pub const JOURNAL_CHECKPOINT_BYTES: u64 = 4 << 20;

/// One handle's durable store: data file + intent journal, both behind
/// the [`StoreFile`] seam (`File`s, but for the tests).
#[derive(Debug)]
pub struct FileStore<F = File> {
    data: F,
    data_path: PathBuf,
    /// One past the highest byte written (== data file length).
    size: u64,
    /// Bytes guaranteed recoverable after a crash right now.
    durable: u64,
    journal: Journal<F>,
    sync: SyncPolicy,
    /// The clock reading the journal was last made durable at.
    last_sync: u64,
    metrics: Arc<StorageMetrics>,
    /// Set once a failed journal append cannot be cut back off, or an
    /// operation fails behind its committed record (the live store is
    /// then short of what replay makes of it): the store is dead until
    /// the daemon restarts and replays.
    wedged: bool,
}

fn storage_err(ctx: &str, path: &Path, e: io::Error) -> PvfsError {
    PvfsError::Storage(format!("{ctx} {}: {e}", path.display()))
}

/// Run `sync` — an fsync, or a journal checkpoint, which ends in one —
/// and book it in `metrics` ([`StorageMetrics::record_fsync`]). Returns
/// the clock reading it ended at; a failure is a storage error, `ctx`
/// of `path`.
fn fsync(
    metrics: &StorageMetrics,
    ctx: &str,
    path: &Path,
    sync: impl FnOnce() -> io::Result<()>,
) -> PvfsResult<u64> {
    let started = now_ns();
    sync().map_err(|e| storage_err(ctx, path, e))?;
    Ok(metrics.record_fsync(started))
}

impl FileStore {
    /// Open (creating if absent) the store for `handle` under `dir`,
    /// replaying any committed journal records left by a crash. After
    /// open the journal is empty and the data file authoritative.
    pub fn open(
        dir: &Path,
        handle: u64,
        sync: SyncPolicy,
        metrics: Arc<StorageMetrics>,
    ) -> PvfsResult<FileStore> {
        std::fs::create_dir_all(dir).map_err(|e| storage_err("create data dir", dir, e))?;
        let data_path = dir.join(format!("h{handle}.data"));
        let journal_path = dir.join(format!("h{handle}.journal"));
        let fresh = !data_path.exists() || !journal_path.exists();
        // The journal is appended to: every record lands at its end.
        let open = |path: &Path, append: bool| {
            OpenOptions::new()
                .read(true)
                .write(true)
                .append(append)
                .create(true)
                .truncate(false)
                .open(path)
                .map_err(|e| storage_err("open", path, e))
        };
        let (data, journal) = (open(&data_path, false)?, open(&journal_path, true)?);
        if fresh {
            // Durability gap: creating h<N>.{data,journal} only stages
            // directory entries in the parent's page cache. A power cut
            // before the kernel writes them back would orphan the very
            // journal a post-crash replay needs, so make the entries
            // durable before acknowledging any write against this store.
            fsync(&metrics, "fsync data dir", dir, || {
                File::open(dir).and_then(|d| d.sync_all())
            })?;
        }
        FileStore::recover(data, journal, data_path, sync, metrics)
    }
}

impl<F: StoreFile> FileStore<F> {
    /// The store over `data` and `journal` (`data_path` names it in
    /// errors), replaying every committed journal record a crash left
    /// and checkpointing after: the journal is then empty and the data
    /// file authoritative.
    pub fn recover(
        mut data: F,
        journal: F,
        data_path: PathBuf,
        sync: SyncPolicy,
        metrics: Arc<StorageMetrics>,
    ) -> PvfsResult<FileStore<F>> {
        let mut raw = Vec::new();
        let (mut journal, replay) = Journal::open(journal, &mut raw)
            .map_err(|e| storage_err("open journal", &data_path, e))?;
        let mut size = data
            .size()
            .map_err(|e| storage_err("stat data file", &data_path, e))?;
        if !replay.is_empty() {
            // Recovery: apply every committed intent in order, then
            // checkpoint so the journal never replays twice.
            for record in &replay {
                match record {
                    JournalRecord::WriteBatch { runs, .. } => {
                        for (offset, payload) in runs {
                            data.write_at(payload, *offset)
                                .map_err(|e| storage_err("replay write", &data_path, e))?;
                            size = size.max(offset + payload.len() as u64);
                        }
                    }
                    JournalRecord::Truncate { size: to, .. } => {
                        if *to < size {
                            data.set_len(*to)
                                .map_err(|e| storage_err("replay truncate", &data_path, e))?;
                            size = *to;
                        }
                    }
                }
            }
            metrics
                .journal_replays
                .fetch_add(replay.len() as u64, Ordering::Relaxed);
            fsync(&metrics, "fsync data file", &data_path, || data.sync_data())?;
            let checkpoint = || journal.checkpoint();
            fsync(&metrics, "checkpoint journal", &data_path, checkpoint)?;
            metrics.flushes.fetch_add(1, Ordering::Relaxed);
        }
        Ok(FileStore {
            data,
            data_path,
            size,
            durable: size,
            journal,
            sync,
            last_sync: now_ns(),
            metrics,
            wedged: false,
        })
    }

    fn check_live(&self) -> PvfsResult<()> {
        if self.wedged {
            return Err(PvfsError::Storage(format!(
                "store {} is wedged by a journal it cannot append to or a write \
                 that failed behind its record (restart the daemon to recover)",
                self.data_path.display()
            )));
        }
        Ok(())
    }

    /// Count the record a journal append committed, or fail the
    /// operation it was for. A failed append was cut back off the
    /// journal; where it could not be, nothing can commit behind it and
    /// the store is dead until the daemon restarts.
    fn committed(&mut self, appended: io::Result<u64>) -> PvfsResult<()> {
        let len = appended.map_err(|e| {
            self.wedged |= self.journal.is_torn();
            storage_err("append journal", &self.data_path, e)
        })?;
        self.metrics.journal_appends.fetch_add(1, Ordering::Relaxed);
        self.metrics.journal_bytes.fetch_add(len, Ordering::Relaxed);
        self.metrics.journal_depth.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Finish an operation whose record has committed. The record
    /// replays at restart whatever happens now, so a failure here leaves
    /// the live store short of what replay makes of it: fence it.
    fn behind_record<T>(&mut self, rest: impl FnOnce(&mut Self) -> PvfsResult<T>) -> PvfsResult<T> {
        let done = rest(self);
        self.wedged |= done.is_err();
        done
    }

    /// Fsync the journal if the policy says this write must commit to
    /// stable storage now.
    fn sync_journal_per_policy(&mut self) -> PvfsResult<bool> {
        let due = match self.sync {
            SyncPolicy::Always => true,
            SyncPolicy::Interval(window) => clock::since(self.last_sync) >= window,
            SyncPolicy::Never => false,
        };
        if due {
            let sync = || self.journal.sync();
            self.last_sync = fsync(&self.metrics, "fsync journal", &self.data_path, sync)?;
        }
        Ok(due)
    }

    /// Fsync the data file and zero the journal: everything written so
    /// far becomes the data file's problem (and is durable).
    fn checkpoint(&mut self) -> PvfsResult<()> {
        let (metrics, path) = (&self.metrics, &self.data_path);
        fsync(metrics, "fsync data file", path, || self.data.sync_data())?;
        let depth = self.journal.depth();
        let checkpoint = || self.journal.checkpoint();
        self.last_sync = fsync(metrics, "checkpoint journal", path, checkpoint)?;
        sub_gauge(metrics, depth);
        metrics.flushes.fetch_add(1, Ordering::Relaxed);
        self.durable = self.size;
        Ok(())
    }
}

/// Decrement the shared journal-depth gauge by `n` without underflow
/// (stores of one daemon share the gauge).
fn sub_gauge(metrics: &StorageMetrics, n: u64) {
    if n > 0 {
        let _ = metrics
            .journal_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(n))
            });
    }
}

impl<F> Drop for FileStore<F> {
    fn drop(&mut self) {
        // The journal stays on disk (it will replay at reopen); only
        // the gauge must stop counting this store's records.
        sub_gauge(&self.metrics, self.journal.depth());
    }
}

impl<F: StoreFile + Send + std::fmt::Debug> StorageBackend for FileStore<F> {
    fn size(&self) -> u64 {
        self.size
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> PvfsResult<()> {
        self.check_live()?;
        // Clamp like SparseStore: bytes past u64::MAX are permanent
        // holes, and `offset + pos` must never wrap.
        let addressable = u64::MAX - offset;
        let buf = if (buf.len() as u64) > addressable {
            let (head, tail) = buf.split_at_mut(addressable as usize);
            tail.fill(0);
            head
        } else {
            buf
        };
        // Bytes at/past the logical size are holes; don't ask the OS
        // (pread rejects offsets past i64::MAX outright).
        if offset >= self.size {
            buf.fill(0);
            return Ok(());
        }
        let readable = (self.size - offset).min(buf.len() as u64) as usize;
        let (buf, hole) = buf.split_at_mut(readable);
        hole.fill(0);
        self.data
            .read_at(buf, offset)
            .map_err(|e| storage_err("read data file", &self.data_path, e))
    }

    fn write_batch(&mut self, runs: &[(u64, &[u8])]) -> PvfsResult<()> {
        self.check_live()?;
        // Clamp each run at the edge of the address space (mirrors
        // SparseStore: dropped, never wrapped) and drop empties — as the
        // runs are walked, every time they are: nothing is collected.
        let runs = runs.iter().filter_map(|&(offset, data)| {
            let addressable = u64::MAX - offset;
            let keep = (data.len() as u64).min(addressable) as usize;
            (keep > 0).then(|| (offset, &data[..keep]))
        });
        if runs.clone().next().is_none() {
            return Ok(());
        }
        // Journaling copies nothing: the record's payloads go to the
        // journal file from the caller's runs.
        let appended = self.journal.append_write_batch(runs.clone());
        self.committed(appended)?;
        let synced = self.behind_record(|s| {
            let synced = s.sync_journal_per_policy()?;
            for (offset, data) in runs {
                s.data
                    .write_at(data, offset)
                    .map_err(|e| storage_err("write data file", &s.data_path, e))?;
                s.size = s.size.max(offset + data.len() as u64);
            }
            Ok(synced)
        })?;
        if synced {
            // The journal covers everything up to here.
            self.durable = self.size;
        }
        if self.journal.depth() >= JOURNAL_CHECKPOINT_RECORDS
            || self.journal.bytes() >= JOURNAL_CHECKPOINT_BYTES
        {
            self.checkpoint()?;
        }
        Ok(())
    }

    fn truncate(&mut self, size: u64) -> PvfsResult<()> {
        self.check_live()?;
        if size >= self.size {
            return Ok(());
        }
        // Journaled: without this, replaying an older write record
        // would resurrect bytes past the new tail.
        let appended = self.journal.append_truncate(size);
        self.committed(appended)?;
        self.behind_record(|s| {
            s.sync_journal_per_policy()?;
            s.data
                .set_len(size)
                .map_err(|e| storage_err("truncate data file", &s.data_path, e))
        })?;
        self.size = size;
        self.durable = self.durable.min(size);
        Ok(())
    }

    fn sync(&mut self) -> PvfsResult<u64> {
        self.check_live()?;
        self.checkpoint()?;
        Ok(self.durable)
    }

    fn resident_bytes(&self) -> u64 {
        // All content lives in the kernel page cache / on disk; the
        // store itself buffers nothing.
        0
    }

    fn durable_bytes(&self) -> u64 {
        self.durable
    }

    fn journal_depth(&self) -> u64 {
        self.journal.depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::flaky::Flaky;
    use crate::scratch::ScratchDir;

    fn open(dir: &Path, sync: SyncPolicy) -> (FileStore, Arc<StorageMetrics>) {
        let metrics = Arc::new(StorageMetrics::default());
        let store = FileStore::open(dir, 1, sync, metrics.clone()).unwrap();
        (store, metrics)
    }

    #[test]
    fn write_read_roundtrip_and_persistence() {
        let dir = ScratchDir::new("fs-roundtrip");
        let (mut s, _) = open(dir.path(), SyncPolicy::Always);
        s.write_batch(&[(10, b"hello"), (100, b"world")]).unwrap();
        assert_eq!(s.read_vec(10, 5).unwrap(), b"hello");
        assert_eq!(s.read_vec(100, 5).unwrap(), b"world");
        assert_eq!(s.size(), 105);
        // Holes read as zero.
        assert_eq!(s.read_vec(50, 4).unwrap(), vec![0u8; 4]);
        drop(s);
        let (s2, _) = open(dir.path(), SyncPolicy::Always);
        assert_eq!(s2.size(), 105);
        assert_eq!(s2.read_vec(10, 5).unwrap(), b"hello");
    }

    #[test]
    fn reads_past_eof_zero_fill() {
        let dir = ScratchDir::new("fs-eof");
        let (mut s, _) = open(dir.path(), SyncPolicy::Never);
        s.write_batch(&[(0, b"edge")]).unwrap();
        assert_eq!(s.read_vec(2, 8).unwrap(), b"ge\0\0\0\0\0\0");
        assert_eq!(s.read_vec(1 << 30, 4).unwrap(), vec![0u8; 4]);
    }

    #[test]
    fn read_at_the_edge_of_the_address_space_does_not_wrap() {
        // Mirrors the SparseStore clamp test: offsets near u64::MAX are
        // permanent holes, never a wraparound to offset 0.
        let dir = ScratchDir::new("fs-clamp");
        let (mut s, _) = open(dir.path(), SyncPolicy::Never);
        s.write_batch(&[(0, b"low")]).unwrap();
        assert_eq!(s.read_vec(u64::MAX - 2, 8).unwrap(), vec![0u8; 8]);
        assert_eq!(s.read_vec(u64::MAX, 4).unwrap(), vec![0u8; 4]);
    }

    #[test]
    fn journaled_truncate_survives_replay_without_stale_tail_bytes() {
        // The satellite hazard: the journal holds write records past
        // the truncated tail. Replay must apply them in order and end
        // at the truncated size — reads past it return zeros, not the
        // journal's stale bytes.
        let dir = ScratchDir::new("fs-trunc-replay");
        let (mut s, _) = open(dir.path(), SyncPolicy::Never);
        s.write_batch(&[(0, &[7u8; 10])]).unwrap();
        s.write_batch(&[(100, &[9u8; 50])]).unwrap();
        s.truncate(10).unwrap();
        // Drop without checkpoint: the journal still holds all three
        // records and will replay at reopen.
        drop(s);
        let (s2, m) = open(dir.path(), SyncPolicy::Never);
        assert_eq!(m.journal_replays.load(Ordering::Relaxed), 3);
        assert_eq!(s2.size(), 10);
        assert_eq!(s2.read_vec(0, 10).unwrap(), vec![7u8; 10]);
        assert_eq!(s2.read_vec(100, 50).unwrap(), vec![0u8; 50]);
        assert_eq!(s2.read_vec(10, 10).unwrap(), vec![0u8; 10]);
    }

    #[test]
    fn a_v1_journal_is_applied_and_checkpointed_and_the_next_append_is_v2() {
        // A daemon of the previous record format crashed with three
        // committed records in its journal; this build restarts on it.
        use crate::journal::{fixtures, RECORD_MAGIC};
        let dir = ScratchDir::new("fs-v1-journal");
        let journal = dir.path().join("h1.journal");
        std::fs::write(&journal, fixtures::bytes(fixtures::V1)).unwrap();
        let (mut s, m) = open(dir.path(), SyncPolicy::Always);
        assert_eq!(m.journal_replays.load(Ordering::Relaxed), 3);
        assert_eq!(s.size(), 4098);
        assert_eq!(s.read_vec(0, 9).unwrap(), b"list\0\0\0xy");
        assert_eq!(s.read_vec(4096, 6).unwrap(), b"wr\0\0\0\0");
        assert_eq!(s.journal_depth(), 0);
        assert_eq!(std::fs::metadata(&journal).unwrap().len(), 0);
        s.write_batch(&[(4, b"-io")]).unwrap();
        assert_eq!(std::fs::read(&journal).unwrap()[..4], RECORD_MAGIC);
        drop(s);
        let (s2, m) = open(dir.path(), SyncPolicy::Always);
        assert_eq!(m.journal_replays.load(Ordering::Relaxed), 1);
        assert_eq!(s2.read_vec(0, 9).unwrap(), b"list-ioxy");
    }

    /// Lay down on disk what a crash in the middle of `runs` leaves.
    /// The store takes the batch whole and is dropped; then its data
    /// file goes back to what it held before, with only the first
    /// `applied` runs on it, and, if `torn`, the journal loses the back
    /// half of the batch's record.
    fn crash_in(dir: &Path, mut s: FileStore, runs: &[(u64, &[u8])], applied: usize, torn: bool) {
        let (data, journal) = (dir.join("h1.data"), dir.join("h1.journal"));
        let before = std::fs::read(&data).unwrap();
        let committed = std::fs::metadata(&journal).unwrap().len();
        s.write_batch(runs).unwrap();
        drop(s);
        std::fs::write(&data, before).unwrap();
        let mut file = OpenOptions::new().write(true).open(&data).unwrap();
        for &(offset, bytes) in &runs[..applied] {
            StoreFile::write_at(&mut file, bytes, offset).unwrap();
        }
        if torn {
            let record = std::fs::metadata(&journal).unwrap().len() - committed;
            let file = OpenOptions::new().write(true).open(&journal).unwrap();
            file.set_len(committed + record / 2).unwrap();
        }
    }

    #[test]
    fn torn_journal_append_loses_the_whole_batch() {
        let dir = ScratchDir::new("fs-torn");
        let (mut s, _) = open(dir.path(), SyncPolicy::Always);
        s.write_batch(&[(0, &[1u8; 64])]).unwrap();
        crash_in(dir.path(), s, &[(0, &[2u8; 32]), (64, &[2u8; 32])], 0, true);
        let (s2, _) = open(dir.path(), SyncPolicy::Always);
        // None of the torn batch is visible; the committed one is.
        assert_eq!(s2.read_vec(0, 64).unwrap(), vec![1u8; 64]);
        assert_eq!(s2.size(), 64);
    }

    #[test]
    fn crash_after_commit_replays_the_whole_batch() {
        let dir = ScratchDir::new("fs-aftercommit");
        let (mut s, _) = open(dir.path(), SyncPolicy::Always);
        s.write_batch(&[(0, &[1u8; 64])]).unwrap();
        let runs: [(u64, &[u8]); 3] = [(0, &[2u8; 16]), (32, &[3u8; 16]), (64, &[4u8; 16])];
        crash_in(dir.path(), s, &runs, 1, false);
        let (s2, m) = open(dir.path(), SyncPolicy::Always);
        assert!(m.journal_replays.load(Ordering::Relaxed) >= 1);
        // The whole batch is visible — never a prefix.
        assert_eq!(s2.read_vec(0, 16).unwrap(), vec![2u8; 16]);
        assert_eq!(s2.read_vec(32, 16).unwrap(), vec![3u8; 16]);
        assert_eq!(s2.read_vec(64, 16).unwrap(), vec![4u8; 16]);
        assert_eq!(s2.size(), 80);
    }

    #[test]
    fn a_data_write_that_fails_behind_its_record_fences_the_store() {
        // The record committed, the first run landed, the second failed:
        // the live store must not serve a half-applied batch that replay
        // will complete at restart.
        let dir = ScratchDir::new("fs-fence");
        let (s, _) = open(dir.path(), SyncPolicy::Always);
        drop(s);
        let file = |name: &str, append| {
            let path = dir.path().join(name);
            let mut options = OpenOptions::new();
            let file = options.read(true).write(true).append(append).open(path);
            Flaky::new(file.unwrap())
        };
        let data = Flaky {
            writes_at: 1,
            ..file("h1.data", false)
        };
        let metrics = Arc::new(StorageMetrics::default());
        let path = dir.path().join("h1.data");
        let mut s = FileStore::recover(
            data,
            file("h1.journal", true),
            path,
            SyncPolicy::Always,
            metrics,
        )
        .unwrap();
        let err = s
            .write_batch(&[(0, &[5u8; 8]), (100, &[6u8; 8])])
            .unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        let refused = s.read_vec(0, 8).unwrap_err();
        assert!(refused.to_string().contains("wedged"), "{refused}");
        drop(s);
        let (s2, _) = open(dir.path(), SyncPolicy::Always);
        assert_eq!(s2.read_vec(0, 8).unwrap(), vec![5u8; 8]);
        assert_eq!(s2.read_vec(100, 8).unwrap(), vec![6u8; 8]);
    }

    #[test]
    fn sync_barrier_checkpoints_and_reports_durable_bytes() {
        let dir = ScratchDir::new("fs-sync");
        let (mut s, m) = open(dir.path(), SyncPolicy::Never);
        s.write_batch(&[(0, &[5u8; 100])]).unwrap();
        assert_eq!(s.journal_depth(), 1);
        assert_eq!(m.journal_depth.load(Ordering::Relaxed), 1);
        let durable = s.sync().unwrap();
        assert_eq!(durable, 100);
        assert_eq!(s.durable_bytes(), 100);
        assert_eq!(s.journal_depth(), 0);
        assert_eq!(m.journal_depth.load(Ordering::Relaxed), 0);
        assert_eq!(m.flushes.load(Ordering::Relaxed), 1);
        assert!(m.fsyncs.load(Ordering::Relaxed) >= 2);
        assert!(m.fsync_time.count() >= 2);
    }

    #[test]
    fn always_policy_makes_every_batch_durable_at_return() {
        let dir = ScratchDir::new("fs-always");
        let (mut s, m) = open(dir.path(), SyncPolicy::Always);
        s.write_batch(&[(0, &[1u8; 10])]).unwrap();
        assert_eq!(s.durable_bytes(), 10);
        s.write_batch(&[(10, &[2u8; 10])]).unwrap();
        assert_eq!(s.durable_bytes(), 20);
        assert!(m.fsyncs.load(Ordering::Relaxed) >= 2);
    }

    #[test]
    fn zero_interval_group_commit_syncs_every_batch() {
        let dir = ScratchDir::new("fs-interval");
        let (mut s, m) = open(dir.path(), SyncPolicy::Interval(std::time::Duration::ZERO));
        s.write_batch(&[(0, &[1u8; 10])]).unwrap();
        assert_eq!(s.durable_bytes(), 10);
        assert!(m.fsyncs.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn checkpoint_threshold_bounds_journal_depth() {
        let dir = ScratchDir::new("fs-threshold");
        let (mut s, m) = open(dir.path(), SyncPolicy::Never);
        for i in 0..(JOURNAL_CHECKPOINT_RECORDS + 10) {
            s.write_batch(&[(i * 8, &[i as u8; 8])]).unwrap();
        }
        assert!(s.journal_depth() < JOURNAL_CHECKPOINT_RECORDS);
        assert!(m.flushes.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn fresh_create_fsyncs_parent_dir_and_reopen_does_not() {
        let dir = ScratchDir::new("fs-dirsync");
        let (s, m) = open(dir.path(), SyncPolicy::Never);
        assert_eq!(
            m.fsyncs.load(Ordering::Relaxed),
            1,
            "a fresh create must fsync the parent directory"
        );
        drop(s);
        let metrics2 = Arc::new(StorageMetrics::default());
        let s2 = FileStore::open(dir.path(), 1, SyncPolicy::Never, metrics2.clone()).unwrap();
        assert_eq!(
            metrics2.fsyncs.load(Ordering::Relaxed),
            0,
            "reopening existing files pays no directory fsync"
        );
        drop(s2);
    }

    #[test]
    fn crash_on_the_first_ever_write_still_replays_after_reopen() {
        // The very first write against a brand-new store commits to the
        // journal, and the crash comes before any run reached the data
        // file: replay alone brings the batch back.
        let dir = ScratchDir::new("fs-dirsync-crash");
        let (s, _) = open(dir.path(), SyncPolicy::Always);
        crash_in(dir.path(), s, &[(5, &[3u8; 20])], 0, false);
        let (s2, m2) = open(dir.path(), SyncPolicy::Always);
        assert!(m2.journal_replays.load(Ordering::Relaxed) >= 1);
        assert_eq!(s2.read_vec(5, 20).unwrap(), vec![3u8; 20]);
        assert_eq!(s2.size(), 25);
    }

    #[test]
    fn empty_batches_are_noops() {
        let dir = ScratchDir::new("fs-empty");
        let (mut s, m) = open(dir.path(), SyncPolicy::Always);
        s.write_batch(&[]).unwrap();
        s.write_batch(&[(100, b"")]).unwrap();
        assert_eq!(s.size(), 0);
        assert_eq!(m.journal_appends.load(Ordering::Relaxed), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::scratch::ScratchDir;
    use crate::SparseStore;
    use proptest::prelude::*;

    proptest! {
        /// Backend equivalence (store level): random write batches and
        /// truncates applied to both backends produce identical reads,
        /// sizes, and sane resident/durable accounting.
        #[test]
        fn file_store_matches_sparse_store(
            batches in proptest::collection::vec(
                proptest::collection::vec(
                    (0u64..200_000, proptest::collection::vec(any::<u8>(), 1..256)),
                    1..6,
                ),
                1..12,
            ),
            // Values past 150_000 mean "no truncate" — the shimmed
            // proptest has no Option strategy.
            cut_raw in 0u64..300_000,
        ) {
            let cut = (cut_raw < 150_000).then_some(cut_raw);
            let dir = ScratchDir::new("fs-equiv");
            let metrics = Arc::new(StorageMetrics::default());
            let mut file =
                FileStore::open(dir.path(), 1, SyncPolicy::Never, metrics).unwrap();
            let mut mem = SparseStore::new();
            for batch in &batches {
                let runs: Vec<(u64, &[u8])> =
                    batch.iter().map(|(o, d)| (*o, d.as_slice())).collect();
                StorageBackend::write_batch(&mut file, &runs).unwrap();
                StorageBackend::write_batch(&mut mem, &runs).unwrap();
            }
            if let Some(cut) = cut {
                StorageBackend::truncate(&mut file, cut).unwrap();
                StorageBackend::truncate(&mut mem, cut).unwrap();
            }
            prop_assert_eq!(StorageBackend::size(&file), mem.size());
            for probe in [0u64, 777, 65_535, 131_072, 199_990] {
                prop_assert_eq!(
                    StorageBackend::read_vec(&file, probe, 400).unwrap(),
                    mem.read_vec(probe, 400)
                );
            }
            // Accounting: memory is resident and never durable; the
            // file backend buffers nothing and is fully durable after a
            // sync barrier.
            prop_assert_eq!(StorageBackend::durable_bytes(&mem), 0);
            prop_assert_eq!(StorageBackend::resident_bytes(&file), 0);
            let durable = StorageBackend::sync(&mut file).unwrap();
            prop_assert_eq!(durable, mem.size());
            prop_assert_eq!(StorageBackend::durable_bytes(&file), mem.size());
            prop_assert_eq!(StorageBackend::journal_depth(&file), 0);
        }

        /// Persistence: whatever the batches built, a reopen (journal
        /// replay included) serves the same bytes.
        #[test]
        fn reopen_preserves_content(
            batches in proptest::collection::vec(
                proptest::collection::vec(
                    (0u64..50_000, proptest::collection::vec(any::<u8>(), 1..128)),
                    1..4,
                ),
                1..8,
            ),
        ) {
            let dir = ScratchDir::new("fs-reopen");
            let metrics = Arc::new(StorageMetrics::default());
            let mut file =
                FileStore::open(dir.path(), 1, SyncPolicy::Never, metrics.clone()).unwrap();
            let mut mem = SparseStore::new();
            for batch in &batches {
                let runs: Vec<(u64, &[u8])> =
                    batch.iter().map(|(o, d)| (*o, d.as_slice())).collect();
                StorageBackend::write_batch(&mut file, &runs).unwrap();
                StorageBackend::write_batch(&mut mem, &runs).unwrap();
            }
            drop(file);
            let file = FileStore::open(dir.path(), 1, SyncPolicy::Never, metrics).unwrap();
            prop_assert_eq!(StorageBackend::size(&file), mem.size());
            for probe in [0u64, 4_096, 49_990] {
                prop_assert_eq!(
                    StorageBackend::read_vec(&file, probe, 256).unwrap(),
                    mem.read_vec(probe, 256)
                );
            }
        }
    }
}
