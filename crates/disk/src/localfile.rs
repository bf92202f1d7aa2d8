//! One I/O daemon's local file: the bytes, and — for the simulator —
//! what reading and writing them would have cost.
//!
//! The bytes are a [`StorageBackend`]'s. The cost is a model: the LRU,
//! write-allocate, write-back buffer-cache residency model of
//! [`crate::cache`] and a disk timing model with head tracking. A file
//! built *with* the model ([`LocalFile::new`],
//! [`LocalFile::with_backend`] — what a simulated daemon's files are)
//! prices every access and adds the charge to its meter
//! ([`LocalFile::meter`]): the disk time its misses and write-backs took
//! and the number of accesses it made — the two numbers the
//! discrete-event simulator turns into virtual time. A live daemon's
//! files ([`LocalFile::unmodelled`]) move the bytes and meter nothing.

use crate::backend::StorageBackend;
use crate::cache::{BufferCache, CacheConfig};
use crate::checksum::checksum;
use crate::model::{DiskModel, HeadTracker};
use crate::store::SparseStore;
use pvfs_types::PvfsResult;

/// What a priced file has charged: a running total, read off
/// [`LocalFile::meter`], of which the simulator turns `disk_ns` into
/// virtual time and `accesses` into per-access server time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostReport {
    /// Virtual nanoseconds spent on the disk (misses + write-backs).
    pub disk_ns: u64,
    /// Local accesses: one per read, one per run of a write batch.
    pub accesses: u64,
}

impl CostReport {
    /// What was charged between `earlier`, a reading of the same meter,
    /// and this reading.
    pub fn since(self, earlier: CostReport) -> CostReport {
        CostReport {
            disk_ns: self.disk_ns - earlier.disk_ns,
            accesses: self.accesses - earlier.accesses,
        }
    }
}

/// A local file under one I/O daemon: a [`StorageBackend`] for the
/// bytes (memory or durable file+journal) and, if it was built with one,
/// the cost model that prices every access to them.
#[derive(Debug)]
pub struct LocalFile {
    store: Box<dyn StorageBackend>,
    model: Option<CostModel>,
    /// Mutating ops applied this daemon incarnation. Deliberately not
    /// persisted: a freshly restarted daemon answers 0, so anti-entropy
    /// scrub never mistakes it for the freshest copy.
    write_version: u64,
}

/// What the simulator charges disk time by: which blocks are resident,
/// where the head is, what the disk costs — and what it has charged.
#[derive(Debug)]
struct CostModel {
    cache: BufferCache,
    disk: DiskModel,
    head: HeadTracker,
    meter: CostReport,
}

impl LocalFile {
    /// New empty memory-backed file, its accesses priced with the given
    /// cache and disk parameters.
    pub fn new(cache_config: CacheConfig, model: DiskModel) -> LocalFile {
        LocalFile::with_backend(cache_config, model, Box::new(SparseStore::new()))
    }

    /// A priced file over an explicit backend (the durable
    /// [`FileStore`](crate::FileStore), a test double, ...).
    pub fn with_backend(
        cache_config: CacheConfig,
        model: DiskModel,
        store: Box<dyn StorageBackend>,
    ) -> LocalFile {
        LocalFile {
            model: Some(CostModel {
                cache: BufferCache::new(cache_config),
                disk: model,
                head: HeadTracker::new(),
                meter: CostReport::default(),
            }),
            ..LocalFile::unmodelled(store)
        }
    }

    /// A file over `store` that prices nothing — a live daemon's: its
    /// meter stays at [`CostReport::default`].
    pub fn unmodelled(store: Box<dyn StorageBackend>) -> LocalFile {
        LocalFile {
            store,
            model: None,
            write_version: 0,
        }
    }

    /// Everything this file has charged since it was opened (nothing,
    /// unmodelled).
    pub fn meter(&self) -> CostReport {
        self.model
            .as_ref()
            .map_or_else(CostReport::default, |m| m.meter)
    }

    /// Local file size (one past the highest byte written).
    pub fn size(&self) -> u64 {
        self.store.size()
    }

    /// The storage backend (accounting, crash injection, oracles).
    pub fn backend(&self) -> &dyn StorageBackend {
        self.store.as_ref()
    }

    /// Read `len` bytes at `offset` without touching the cache model or
    /// cost accounting — the verification-oracle path.
    pub fn peek_vec(&self, offset: u64, len: usize) -> Vec<u8> {
        self.store
            .read_vec(offset, len)
            .expect("oracle read failed")
    }

    /// Read into a caller-provided buffer (zero-filled past EOF): one
    /// access.
    pub fn read_into(&mut self, offset: u64, buf: &mut [u8]) -> PvfsResult<()> {
        self.store.read_at(offset, buf)?;
        self.charge_read(offset, buf.len());
        Ok(())
    }

    /// Append the `len` bytes at `offset` to `out` (zeros past EOF),
    /// never zero-filling first what the store can copy in: one access.
    pub fn read_append(&mut self, offset: u64, len: usize, out: &mut Vec<u8>) -> PvfsResult<()> {
        self.store.read_append(offset, len, out)?;
        self.charge_read(offset, len);
        Ok(())
    }

    fn charge_read(&mut self, offset: u64, len: usize) {
        if let Some(model) = &mut self.model {
            let disk_ns = model.price_read(offset, len as u64);
            model.charge(disk_ns);
        }
    }

    /// Apply a whole request's runs as one batch — all-or-nothing
    /// across a crash on durable backends (one journal record), plain
    /// in-order writes on memory. Each run is one access.
    pub fn write_batch(&mut self, runs: &[(u64, &[u8])]) -> PvfsResult<()> {
        let mut prev_size = self.store.size();
        self.store.write_batch(runs)?;
        self.write_version += 1;
        if let Some(model) = &mut self.model {
            for (offset, data) in runs {
                let len = data.len() as u64;
                let disk_ns = model.price_write(*offset, len, prev_size);
                model.charge(disk_ns);
                prev_size = prev_size.max(offset.saturating_add(len));
            }
        }
        Ok(())
    }

    /// Flush all dirty blocks of the cache model to disk, charging the
    /// write-back.
    pub fn flush(&mut self) {
        if let Some(model) = &mut self.model {
            let blocks = model.cache.flush();
            let block_size = model.cache.config().block_size;
            model.meter.disk_ns += model.disk.writeback_ns(blocks, block_size);
        }
    }

    /// Durability barrier: flush the cache model and fsync the backend.
    /// Returns the bytes now durable.
    pub fn sync(&mut self) -> PvfsResult<u64> {
        self.flush();
        self.store.sync()
    }

    /// Truncate the file.
    pub fn truncate(&mut self, size: u64) -> PvfsResult<()> {
        self.store.truncate(size)?;
        self.write_version += 1;
        Ok(())
    }

    /// Mutating ops applied since this `LocalFile` was opened.
    pub fn write_version(&self) -> u64 {
        self.write_version
    }

    /// Anti-entropy digests: the journal's checksum over each
    /// `chunk`-byte piece of the local bytes
    /// `[i*chunk, min((i+1)*chunk, size))`, plus the in-memory write
    /// version (a wire value, recomputed at every scrub, never stored). Reads go straight to the store (the
    /// authoritative bytes — the buffer cache is only a cost model), so
    /// digests never disturb cache residency or cost accounting; every
    /// chunk is read into the same buffer.
    pub fn digest_chunks(&self, chunk: u64) -> PvfsResult<(u64, Vec<u64>)> {
        debug_assert!(chunk > 0, "digest chunk must be nonzero");
        let size = self.store.size();
        let n = size.div_ceil(chunk);
        let mut chunks = Vec::with_capacity(n as usize);
        let mut data = vec![0u8; chunk.min(size) as usize];
        for i in 0..n {
            let offset = i * chunk;
            let piece = &mut data[..chunk.min(size - offset) as usize];
            self.store.read_at(offset, piece)?;
            chunks.push(checksum(piece));
        }
        Ok((self.write_version, chunks))
    }
}

impl CostModel {
    /// Add one access, priced at `disk_ns`, to the meter.
    fn charge(&mut self, disk_ns: u64) {
        self.meter.disk_ns += disk_ns;
        self.meter.accesses += 1;
    }

    fn price_write(&mut self, offset: u64, len: u64, prev_size: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let cache = self.cache.access(offset, len, true);
        let mut disk_ns = 0;
        // Write-allocate absorbs the data into cache; an unaligned
        // write into a block that already held data requires a
        // read-fill of that block. Fresh files (writes at/past the old
        // EOF block) never read-fill — pages are allocated zeroed.
        let bs = self.cache.config().block_size;
        let unaligned =
            !offset.is_multiple_of(bs) || !offset.saturating_add(len).is_multiple_of(bs);
        let block_start = (offset / bs) * bs;
        if unaligned && cache.miss_blocks > 0 && block_start < prev_size {
            let sequential = self.head.observe(offset, len);
            disk_ns += self.disk.access_ns(bs.min(len), sequential);
        }
        if cache.writeback_blocks > 0 {
            disk_ns += self
                .disk
                .writeback_ns(cache.writeback_blocks, self.cache.config().block_size);
        }
        disk_ns
    }

    fn price_read(&mut self, offset: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let cache = self.cache.access(offset, len, false);
        let mut disk_ns = 0;
        if cache.miss_blocks > 0 {
            // Foreground read of the missed bytes. Misses within one
            // access are contiguous enough to count as one positioned
            // run.
            let sequential = self.head.observe(offset, len);
            disk_ns += self.disk.access_ns(
                cache.miss_blocks * self.cache.config().block_size,
                sequential,
            );
        }
        if cache.writeback_blocks > 0 {
            disk_ns += self
                .disk
                .writeback_ns(cache.writeback_blocks, self.cache.config().block_size);
        }
        disk_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_file() -> LocalFile {
        LocalFile::new(CacheConfig::tiny(8), DiskModel::paper_default())
    }

    fn default_file() -> LocalFile {
        LocalFile::new(CacheConfig::paper_default(), DiskModel::paper_default())
    }

    /// What `f`'s meter moved by while `op` ran.
    fn charged(f: &mut LocalFile, op: impl FnOnce(&mut LocalFile)) -> CostReport {
        let before = f.meter();
        op(f);
        f.meter().since(before)
    }

    fn write(f: &mut LocalFile, offset: u64, data: &[u8]) -> CostReport {
        charged(f, |f| f.write_batch(&[(offset, data)]).unwrap())
    }

    fn read(f: &mut LocalFile, offset: u64, len: usize) -> CostReport {
        charged(f, |f| f.read_into(offset, &mut vec![0; len]).unwrap())
    }

    fn read_vec(f: &mut LocalFile, offset: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0; len];
        f.read_into(offset, &mut out).unwrap();
        out
    }

    #[test]
    fn read_write_roundtrip() {
        let mut f = default_file();
        write(&mut f, 100, b"parallel virtual file system");
        assert_eq!(&read_vec(&mut f, 100, 28), b"parallel virtual file system");
        assert_eq!(read_vec(&mut f, 110, 6), f.peek_vec(110, 6));
        assert_eq!(f.size(), 128);
    }

    #[test]
    fn cold_read_costs_disk_time_warm_read_does_not() {
        let mut f = small_file();
        write(&mut f, 0, &[1u8; 64]);
        let warm = read(&mut f, 0, 64); // resident from write-allocate
        assert_eq!(warm.disk_ns, 0);
        // A never-touched range costs positioning + transfer of its four
        // missed blocks.
        let cold = read(&mut f, 1024, 64);
        assert_eq!(
            cold.disk_ns,
            DiskModel::paper_default().access_ns(64, false)
        );
    }

    #[test]
    fn aligned_write_is_absorbed_by_cache() {
        let mut f = small_file(); // 16-byte blocks
        let r = write(&mut f, 0, &[7u8; 32]); // aligned, 2 blocks
        assert_eq!(r.disk_ns, 0);
        assert_eq!(r.accesses, 1);
    }

    #[test]
    fn unaligned_write_to_fresh_file_is_free() {
        // Writes past the old EOF allocate zeroed pages — no read-fill,
        // regardless of alignment. This matters: the paper's write
        // benchmarks write fresh files, and their cost is modeled by
        // the server-side write path, not phantom disk reads.
        let mut f = small_file();
        assert_eq!(write(&mut f, 3, &[7u8; 10]).disk_ns, 0);
    }

    #[test]
    fn unaligned_overwrite_of_cold_existing_data_pays_read_fill() {
        let mut f = small_file();
        write(&mut f, 0, &[1u8; 128]); // materialize data
                                       // Evict everything by touching other blocks beyond capacity.
        for i in 0..16u64 {
            read(&mut f, 1024 + i * 16, 16);
        }
        let r = write(&mut f, 3, &[7u8; 6]); // unaligned, block holds data
        assert!(r.disk_ns > 0);
    }

    #[test]
    fn eviction_of_dirty_blocks_charges_writeback() {
        let mut f = LocalFile::new(CacheConfig::tiny(2), DiskModel::paper_default());
        write(&mut f, 0, &[1u8; 16]);
        write(&mut f, 16, &[1u8; 16]);
        let r = write(&mut f, 32, &[1u8; 16]); // evicts a dirty block
        assert_eq!(r.disk_ns, DiskModel::paper_default().writeback_ns(1, 16));
    }

    #[test]
    fn flush_costs_proportional_to_dirty_blocks() {
        let mut f = small_file();
        write(&mut f, 0, &[1u8; 64]); // 4 dirty blocks
        let r1 = charged(&mut f, LocalFile::flush);
        assert!(r1.disk_ns > 0);
        assert_eq!(r1.accesses, 0, "a write-back is no access");
        let r2 = charged(&mut f, LocalFile::flush);
        assert_eq!(r2.disk_ns, 0);
    }

    #[test]
    fn zero_length_ops_are_free() {
        let mut f = small_file();
        let access = CostReport {
            accesses: 1,
            ..CostReport::default()
        };
        assert_eq!(write(&mut f, 0, b""), access);
        assert_eq!(read(&mut f, 0, 0), access);
    }

    #[test]
    fn sequential_reads_cost_less_than_scattered() {
        // Same bytes, same cold cache: sequential walk vs random walk.
        let cold = || LocalFile::new(CacheConfig::tiny(4), DiskModel::paper_default());
        let mut seq = cold();
        let mut scattered = cold();
        for i in 0..16u64 {
            read(&mut seq, i * 16, 16);
            // Jump around with a stride that defeats head tracking.
            read(&mut scattered, ((i * 7) % 16) * 1024, 16);
        }
        let (seq_ns, rnd_ns) = (seq.meter().disk_ns, scattered.meter().disk_ns);
        assert!(seq_ns < rnd_ns, "seq {seq_ns} vs random {rnd_ns}");
    }

    #[test]
    fn truncate_zeroes_tail() {
        let mut f = default_file();
        write(&mut f, 0, &[5u8; 100]);
        f.truncate(50).unwrap();
        assert_eq!(f.size(), 50);
        let d = read_vec(&mut f, 40, 20);
        assert_eq!(&d[..10], &[5u8; 10]);
        assert_eq!(&d[10..], &[0u8; 10]);
    }

    #[test]
    fn write_batch_merges_per_run_costs() {
        let mut f = small_file();
        let r = charged(&mut f, |f| {
            f.write_batch(&[(0, &[1u8; 16]), (64, &[2u8; 32])]).unwrap()
        });
        assert_eq!(
            r,
            CostReport {
                disk_ns: 0,
                accesses: 2
            }
        );
        assert_eq!(f.size(), 96);
        assert_eq!(f.peek_vec(0, 16), vec![1u8; 16]);
        assert_eq!(f.peek_vec(64, 32), vec![2u8; 32]);
    }

    #[test]
    fn digest_chunks_cover_the_tail_and_track_writes() {
        let mut f = default_file();
        assert_eq!(f.write_version(), 0);
        assert_eq!(f.digest_chunks(16).unwrap(), (0, vec![]));
        write(&mut f, 0, &[1u8; 40]);
        let (v, d) = f.digest_chunks(16).unwrap();
        assert_eq!(v, 1);
        assert_eq!(d.len(), 3); // 16 + 16 + 8-byte tail
                                // Same bytes, different chunking boundaries -> same per-chunk
                                // hashes as a hand computation.
        assert_eq!(d[0], checksum(&[1u8; 16]));
        assert_eq!(d[2], checksum(&[1u8; 8]));
        // A write anywhere bumps the version; an identical overwrite
        // leaves the digests equal.
        write(&mut f, 0, &[1u8; 40]);
        let (v2, d2) = f.digest_chunks(16).unwrap();
        assert_eq!(v2, 2);
        assert_eq!(d2, d);
        // A divergent byte flips exactly its chunk.
        write(&mut f, 17, &[9u8]);
        let (_, d3) = f.digest_chunks(16).unwrap();
        assert_eq!(d3[0], d[0]);
        assert_ne!(d3[1], d[1]);
        assert_eq!(d3[2], d[2]);
        // Truncate counts as a mutation too.
        f.truncate(10).unwrap();
        let (v4, d4) = f.digest_chunks(16).unwrap();
        assert_eq!(v4, 4);
        assert_eq!(d4.len(), 1);
    }

    #[test]
    fn an_unmodelled_file_moves_the_bytes_and_prices_nothing() {
        let mut f = LocalFile::unmodelled(Box::new(SparseStore::new()));
        f.write_batch(&[(3, &[7u8; 10]), (4096, &[8u8; 6])])
            .unwrap();
        assert_eq!(read_vec(&mut f, 3, 10), [7u8; 10]);
        f.flush();
        assert_eq!(f.sync().unwrap(), 0);
        assert_eq!(f.meter(), CostReport::default());
        assert_eq!(f.write_version(), 1);
    }

    #[test]
    fn memory_backend_sync_reports_nothing_durable() {
        let mut f = small_file();
        write(&mut f, 0, &[1u8; 64]);
        let mut durable = None;
        let report = charged(&mut f, |f| durable = Some(f.sync().unwrap()));
        assert_eq!(durable, Some(0));
        assert!(report.disk_ns > 0, "sync flushes dirty cache blocks");
        assert_eq!(f.backend().durable_bytes(), 0);
        assert!(f.backend().resident_bytes() > 0);
    }
}
