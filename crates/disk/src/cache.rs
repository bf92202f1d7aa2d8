//! Buffer-cache residency model.
//!
//! Models the Linux buffer cache on a 2002-era I/O node: a fixed number
//! of fixed-size blocks, LRU replacement, write-allocate (a write miss
//! takes a block like a read miss does) and write-back (a written block
//! stays dirty until it is evicted or flushed). The cache does **not**
//! hold data — content lives in the [`crate::SparseStore`] — it only
//! answers the costing question *"which blocks of this access would have
//! hit memory, and which would have gone to disk?"*, and counts the dirty
//! write-back traffic that evictions generate.

use std::collections::HashMap;

/// Cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Cache block size in bytes (Linux page-cache granularity).
    pub block_size: u64,
    /// Number of resident blocks. `capacity_blocks * block_size` is the
    /// cache size in bytes.
    pub capacity_blocks: usize,
}

impl CacheConfig {
    /// 2002-era I/O node defaults: 4 KiB blocks, 128 MiB of cache
    /// (the paper's nodes had 512 MB RAM; a quarter for the buffer cache
    /// is a reasonable steady state).
    pub fn paper_default() -> CacheConfig {
        CacheConfig {
            block_size: 4096,
            capacity_blocks: (128 * 1024 * 1024) / 4096,
        }
    }

    /// A tiny cache for tests that want to force evictions.
    pub fn tiny(capacity_blocks: usize) -> CacheConfig {
        CacheConfig {
            block_size: 16,
            capacity_blocks,
        }
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::paper_default()
    }
}

/// Outcome of pushing one access through the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Blocks already resident.
    pub hit_blocks: u64,
    /// Blocks that had to come from disk (read misses) or be allocated
    /// (write misses).
    pub miss_blocks: u64,
    /// Dirty blocks evicted by this access — write-back disk traffic.
    pub writeback_blocks: u64,
}

impl CacheOutcome {
    /// Fold another outcome into this one.
    pub fn merge(&mut self, other: CacheOutcome) {
        self.hit_blocks += other.hit_blocks;
        self.miss_blocks += other.miss_blocks;
        self.writeback_blocks += other.writeback_blocks;
    }
}

/// LRU block cache with write-back dirty tracking.
///
/// LRU is implemented with a monotone access clock per block and a
/// min-scan eviction over a `HashMap`; eviction is rare relative to
/// access in the simulated workloads, and an O(n) scan on eviction keeps
/// the structure simple.
#[derive(Debug, Clone)]
pub struct BufferCache {
    config: CacheConfig,
    /// block index -> entry
    resident: HashMap<u64, Entry>,
    clock: u64,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Last access tick.
    tick: u64,
    dirty: bool,
}

impl BufferCache {
    /// A cache with the given configuration.
    pub fn new(config: CacheConfig) -> BufferCache {
        assert!(config.block_size > 0, "block size must be nonzero");
        assert!(config.capacity_blocks > 0, "capacity must be nonzero");
        BufferCache {
            config,
            resident: HashMap::new(),
            clock: 0,
        }
    }

    /// The configuration this cache runs with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Number of blocks currently resident.
    pub fn resident_blocks(&self) -> usize {
        self.resident.len()
    }

    /// Push an access of `len` bytes at `offset` through the cache and
    /// report hits/misses/writebacks.
    pub fn access(&mut self, offset: u64, len: u64, is_write: bool) -> CacheOutcome {
        let mut out = CacheOutcome::default();
        if len == 0 {
            return out;
        }
        let bs = self.config.block_size;
        let first = offset / bs;
        let last = (offset + len - 1) / bs;
        for block in first..=last {
            out.merge(self.touch(block, is_write));
        }
        out
    }

    /// Touch a single block.
    fn touch(&mut self, block: u64, is_write: bool) -> CacheOutcome {
        self.clock += 1;
        let tick = self.clock;
        let mut out = CacheOutcome::default();
        match self.resident.get_mut(&block) {
            Some(entry) => {
                entry.tick = tick;
                entry.dirty |= is_write;
                out.hit_blocks += 1;
            }
            None => {
                out.miss_blocks += 1;
                out.writeback_blocks += self.insert(block, is_write);
            }
        }
        out
    }

    /// Insert a block, evicting if full; returns write-backs.
    fn insert(&mut self, block: u64, dirty: bool) -> u64 {
        let mut writebacks = 0;
        if self.resident.len() >= self.config.capacity_blocks {
            writebacks = self.evict_lru();
        }
        self.resident.insert(
            block,
            Entry {
                tick: self.clock,
                dirty,
            },
        );
        writebacks
    }

    /// Evict the least-recently-used block; returns 1 if it was dirty
    /// (a write-back), else 0.
    fn evict_lru(&mut self) -> u64 {
        let victim = self
            .resident
            .iter()
            .min_by_key(|(_, e)| e.tick)
            .map(|(b, _)| *b);
        if let Some(b) = victim {
            let entry = self.resident.remove(&b).expect("victim resident");
            if entry.dirty {
                return 1;
            }
        }
        0
    }

    /// Write every dirty block back; returns the number written.
    pub fn flush(&mut self) -> u64 {
        let mut written = 0;
        for entry in self.resident.values_mut() {
            if entry.dirty {
                entry.dirty = false;
                written += 1;
            }
        }
        written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(blocks: usize) -> BufferCache {
        BufferCache::new(CacheConfig::tiny(blocks)) // 16-byte blocks
    }

    #[test]
    fn cold_read_misses_then_hits() {
        let mut c = cache(8);
        let first = c.access(0, 64, false); // 4 blocks
        assert_eq!(first.miss_blocks, 4);
        assert_eq!(first.hit_blocks, 0);
        let second = c.access(0, 64, false);
        assert_eq!(second.hit_blocks, 4);
        assert_eq!(second.miss_blocks, 0);
    }

    #[test]
    fn partial_block_access_touches_whole_block() {
        let mut c = cache(8);
        let out = c.access(17, 1, false); // inside block 1
        assert_eq!(out.miss_blocks, 1);
        let again = c.access(16, 16, false); // same block
        assert_eq!(again.hit_blocks, 1);
    }

    #[test]
    fn straddling_access_counts_both_blocks() {
        let mut c = cache(8);
        let out = c.access(15, 2, false); // blocks 0 and 1
        assert_eq!(out.miss_blocks, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = cache(2);
        c.access(0, 16, false); // block 0
        c.access(16, 16, false); // block 1
        c.access(0, 16, false); // touch block 0 again -> 1 is LRU
        c.access(32, 16, false); // block 2 evicts block 1
        assert_eq!(c.access(0, 16, false).hit_blocks, 1); // 0 still resident
        assert_eq!(c.access(16, 16, false).miss_blocks, 1); // 1 was evicted
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = cache(1);
        c.access(0, 16, true); // dirty block 0
        let out = c.access(16, 16, false); // evicts dirty block 0
        assert_eq!(out.writeback_blocks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = cache(1);
        c.access(0, 16, false);
        let out = c.access(16, 16, false);
        assert_eq!(out.writeback_blocks, 0);
    }

    #[test]
    fn write_marks_dirty_even_on_hit() {
        let mut c = cache(1);
        c.access(0, 16, false); // clean resident
        c.access(0, 16, true); // dirtied by hit
        let out = c.access(16, 16, false);
        assert_eq!(out.writeback_blocks, 1);
    }

    #[test]
    fn flush_writes_all_dirty_blocks_once() {
        let mut c = cache(8);
        c.access(0, 64, true); // 4 dirty blocks
        assert_eq!(c.flush(), 4);
        assert_eq!(c.flush(), 0); // now clean
    }

    #[test]
    fn zero_length_access_is_free() {
        let mut c = cache(4);
        assert_eq!(c.access(100, 0, true), CacheOutcome::default());
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = cache(4);
        c.access(0, 16 * 100, false); // 100 blocks through a 4-block cache
        assert_eq!(c.resident_blocks(), 4);
    }

    #[test]
    fn outcome_merge() {
        let mut a = CacheOutcome {
            hit_blocks: 1,
            miss_blocks: 2,
            writeback_blocks: 3,
        };
        a.merge(CacheOutcome {
            hit_blocks: 10,
            miss_blocks: 20,
            writeback_blocks: 30,
        });
        assert_eq!(a.hit_blocks, 11);
        assert_eq!(a.miss_blocks, 22);
        assert_eq!(a.writeback_blocks, 33);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn residency_never_exceeds_capacity(
            capacity in 1usize..32,
            ops in proptest::collection::vec((0u64..4096, 1u64..128, any::<bool>()), 1..200),
        ) {
            let mut c = BufferCache::new(CacheConfig::tiny(capacity));
            for (off, len, w) in ops {
                c.access(off, len, w);
                prop_assert!(c.resident_blocks() <= capacity);
            }
        }

        #[test]
        fn hits_plus_misses_equals_blocks_touched(
            ops in proptest::collection::vec((0u64..4096, 1u64..128, any::<bool>()), 1..100),
        ) {
            let mut c = BufferCache::new(CacheConfig::tiny(16));
            for (off, len, w) in ops {
                let bs = 16u64;
                let blocks = (off + len - 1) / bs - off / bs + 1;
                let out = c.access(off, len, w);
                prop_assert_eq!(out.hit_blocks + out.miss_blocks, blocks);
            }
        }

        #[test]
        fn infinite_cache_never_writes_back(
            ops in proptest::collection::vec((0u64..4096, 1u64..128, any::<bool>()), 1..100),
        ) {
            let mut c = BufferCache::new(CacheConfig::tiny(100_000));
            for (off, len, w) in ops {
                let out = c.access(off, len, w);
                prop_assert_eq!(out.writeback_blocks, 0);
            }
        }

        #[test]
        fn second_pass_over_small_set_always_hits(
            offsets in proptest::collection::vec(0u64..64, 1..20),
        ) {
            // Working set of <= 4 distinct 16-byte blocks, cache of 8.
            let mut c = BufferCache::new(CacheConfig::tiny(8));
            for &o in &offsets {
                c.access(o, 1, false);
            }
            for &o in &offsets {
                let out = c.access(o, 1, false);
                prop_assert_eq!(out.hit_blocks, 1);
            }
        }
    }
}
