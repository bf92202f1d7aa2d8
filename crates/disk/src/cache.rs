//! Buffer-cache residency model.
//!
//! Models the Linux buffer cache on a 2002-era I/O node: a fixed number
//! of fixed-size blocks managed with LRU replacement and write-back
//! dirty handling. The cache does **not** hold data — content lives in
//! the [`crate::SparseStore`] — it only answers the costing question
//! *"which blocks of this access would have hit memory, and which would
//! have gone to disk?"*, and tracks the dirty write-back traffic that
//! evictions generate.

use std::collections::HashMap;

/// Replacement policy for the buffer cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Evict the least-recently-used block (exact LRU by access tick).
    #[default]
    Lru,
    /// CLOCK second-chance: a hand sweeps the resident ring, clearing
    /// reference bits and evicting the first unreferenced block — what
    /// the 2.4 kernel actually approximated.
    Clock,
}

/// Cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Cache block size in bytes (Linux page-cache granularity).
    pub block_size: u64,
    /// Number of resident blocks. `capacity_blocks * block_size` is the
    /// cache size in bytes.
    pub capacity_blocks: usize,
    /// If true, writes allocate cache blocks (write-allocate); if false,
    /// writes go straight to disk.
    pub write_allocate: bool,
    /// Replacement policy.
    pub policy: CachePolicy,
    /// Blocks to read ahead after a sequential read miss (0 disables).
    /// The 2.4 kernel read ahead up to 128 KiB; the paper's experiments
    /// run warm, so the calibrated default keeps this off; a `LocalFile`
    /// unit test pins its effect on cold sequential reads.
    pub readahead_blocks: u64,
}

impl CacheConfig {
    /// 2002-era I/O node defaults: 4 KiB blocks, 128 MiB of cache
    /// (the paper's nodes had 512 MB RAM; a quarter for the buffer cache
    /// is a reasonable steady state).
    pub fn paper_default() -> CacheConfig {
        CacheConfig {
            block_size: 4096,
            capacity_blocks: (128 * 1024 * 1024) / 4096,
            write_allocate: true,
            policy: CachePolicy::Lru,
            readahead_blocks: 0,
        }
    }

    /// A tiny cache for tests that want to force evictions.
    pub fn tiny(capacity_blocks: usize) -> CacheConfig {
        CacheConfig {
            block_size: 16,
            capacity_blocks,
            write_allocate: true,
            policy: CachePolicy::Lru,
            readahead_blocks: 0,
        }
    }

    /// The tiny test cache with CLOCK replacement.
    pub fn tiny_clock(capacity_blocks: usize) -> CacheConfig {
        CacheConfig {
            policy: CachePolicy::Clock,
            ..CacheConfig::tiny(capacity_blocks)
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
    /// Blocks touched in total.
    pub fn total_blocks(&self) -> u64 {
        self.hit_blocks + self.miss_blocks
    }

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
/// the structure simple. For the figure-scale workloads the cache is
/// large (32 Ki blocks), so a heap-based variant is provided through the
/// same interface if profiles ever show this hot.
#[derive(Debug, Clone)]
pub struct BufferCache {
    config: CacheConfig,
    /// block index -> entry
    resident: HashMap<u64, Entry>,
    clock: u64,
    /// CLOCK policy: ring of resident block ids and the sweep hand.
    ring: Vec<u64>,
    hand: usize,
    /// Cumulative statistics.
    stats: CacheStats,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Last access tick (LRU) — also doubles as the CLOCK reference
    /// indicator through `referenced`.
    tick: u64,
    dirty: bool,
    referenced: bool,
    /// Position in `ring` (CLOCK only).
    ring_idx: usize,
}

/// Lifetime statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total block hits.
    pub hits: u64,
    /// Total block misses.
    pub misses: u64,
    /// Total dirty blocks written back on eviction or flush.
    pub writebacks: u64,
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
            ring: Vec::new(),
            hand: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache runs with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
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
                entry.referenced = true;
                entry.dirty |= is_write;
                out.hit_blocks += 1;
                self.stats.hits += 1;
            }
            None => {
                out.miss_blocks += 1;
                self.stats.misses += 1;
                if !is_write || self.config.write_allocate {
                    out.writeback_blocks += self.insert(block, is_write);
                }
            }
        }
        out
    }

    /// Mark a block resident and clean without counting a hit or miss —
    /// the read-ahead path. Returns write-backs caused by eviction.
    pub fn prefetch(&mut self, block: u64) -> u64 {
        if self.resident.contains_key(&block) {
            return 0;
        }
        self.insert(block, false)
    }

    /// Insert a block, evicting if full; returns write-backs.
    fn insert(&mut self, block: u64, dirty: bool) -> u64 {
        let mut writebacks = 0;
        if self.resident.len() >= self.config.capacity_blocks {
            writebacks = match self.config.policy {
                CachePolicy::Lru => self.evict_lru(),
                CachePolicy::Clock => self.evict_clock(),
            };
        }
        let ring_idx = match self.config.policy {
            CachePolicy::Clock => {
                self.ring.push(block);
                self.ring.len() - 1
            }
            CachePolicy::Lru => 0,
        };
        self.resident.insert(
            block,
            Entry {
                tick: self.clock,
                dirty,
                referenced: true,
                ring_idx,
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
                self.stats.writebacks += 1;
                return 1;
            }
        }
        0
    }

    /// CLOCK second-chance eviction.
    fn evict_clock(&mut self) -> u64 {
        debug_assert!(!self.ring.is_empty());
        loop {
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            let block = self.ring[self.hand];
            let entry = self.resident.get_mut(&block).expect("ring consistency");
            if entry.referenced {
                entry.referenced = false;
                self.hand += 1;
                continue;
            }
            // Evict: swap-remove from the ring, fix the moved entry.
            let dirty = entry.dirty;
            self.resident.remove(&block);
            self.ring.swap_remove(self.hand);
            if self.hand < self.ring.len() {
                let moved = self.ring[self.hand];
                self.resident
                    .get_mut(&moved)
                    .expect("ring consistency")
                    .ring_idx = self.hand;
            }
            if dirty {
                self.stats.writebacks += 1;
                return 1;
            }
            return 0;
        }
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
        self.stats.writebacks += written;
        written
    }

    /// Drop everything (e.g. on file removal).
    pub fn clear(&mut self) {
        self.resident.clear();
        self.ring.clear();
        self.hand = 0;
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
        assert_eq!(out.total_blocks(), 1);
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
        assert_eq!(c.stats().writebacks, 1);
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
    fn no_write_allocate_bypasses_cache() {
        let mut c = BufferCache::new(CacheConfig {
            block_size: 16,
            capacity_blocks: 8,
            write_allocate: false,
            policy: CachePolicy::Lru,
            readahead_blocks: 0,
        });
        let out = c.access(0, 64, true);
        assert_eq!(out.miss_blocks, 4);
        assert_eq!(c.resident_blocks(), 0);
        // A later read still misses.
        assert_eq!(c.access(0, 64, false).miss_blocks, 4);
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
    fn stats_accumulate() {
        let mut c = cache(8);
        c.access(0, 64, false);
        c.access(0, 64, false);
        let s = c.stats();
        assert_eq!(s.misses, 4);
        assert_eq!(s.hits, 4);
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = cache(8);
        c.access(0, 64, true);
        c.clear();
        assert_eq!(c.resident_blocks(), 0);
        assert_eq!(c.access(0, 16, false).miss_blocks, 1);
    }

    #[test]
    fn clock_gives_second_chances() {
        let mut c = BufferCache::new(CacheConfig::tiny_clock(2));
        c.access(0, 16, false); // block 0
        c.access(16, 16, false); // block 1
        c.access(0, 16, false); // re-reference block 0
                                // Insert block 2: hand clears ref bits; block 1 was referenced
                                // on insert too, so the sweep clears 0 then 1, wraps, and
                                // evicts block 0 (now unreferenced)... unless 0's recent touch
                                // saved it. Either way, exactly one of {0, 1} is gone and the
                                // cache holds 2 blocks.
        c.access(32, 16, false);
        assert_eq!(c.resident_blocks(), 2);
        let hits_before = c.stats().hits;
        c.access(32, 16, false); // newest block must be resident
        assert_eq!(c.stats().hits, hits_before + 1);
    }

    #[test]
    fn clock_eviction_prefers_unreferenced() {
        let mut c = BufferCache::new(CacheConfig::tiny_clock(3));
        c.access(0, 16, false); // block 0
        c.access(16, 16, false); // block 1
        c.access(32, 16, false); // block 2
                                 // Sweep once to clear all reference bits.
        c.access(48, 16, false); // insert 3 evicts one of them
                                 // Keep re-touching block 3 and inserting: repeatedly touched
                                 // blocks survive.
        for i in 4..20u64 {
            c.access(48, 16, false); // keep block 3 referenced
            c.access(i * 16, 16, false);
        }
        let out = c.access(48, 16, false);
        assert_eq!(out.hit_blocks, 1, "hot block was evicted by CLOCK");
    }

    #[test]
    fn clock_capacity_respected_and_dirty_writebacks_counted() {
        let mut c = BufferCache::new(CacheConfig::tiny_clock(4));
        for i in 0..64u64 {
            c.access(i * 16, 16, true);
            assert!(c.resident_blocks() <= 4);
        }
        assert!(c.stats().writebacks > 0);
        c.clear();
        assert_eq!(c.resident_blocks(), 0);
        // Reusable after clear.
        c.access(0, 16, false);
        assert_eq!(c.resident_blocks(), 1);
    }

    #[test]
    fn prefetch_marks_resident_without_hit_miss_accounting() {
        let mut c = cache(8);
        let before = c.stats();
        assert_eq!(c.prefetch(5), 0);
        assert_eq!(c.stats().hits, before.hits);
        assert_eq!(c.stats().misses, before.misses);
        // The prefetched block now hits.
        let out = c.access(5 * 16, 16, false);
        assert_eq!(out.hit_blocks, 1);
        // Prefetching a resident block is a no-op.
        assert_eq!(c.prefetch(5), 0);
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
                prop_assert_eq!(out.total_blocks(), blocks);
            }
        }

        #[test]
        fn clock_residency_never_exceeds_capacity(
            capacity in 1usize..32,
            ops in proptest::collection::vec((0u64..4096, 1u64..128, any::<bool>()), 1..200),
        ) {
            let mut c = BufferCache::new(CacheConfig::tiny_clock(capacity));
            for (off, len, w) in ops {
                c.access(off, len, w);
                prop_assert!(c.resident_blocks() <= capacity);
            }
        }

        #[test]
        fn clock_second_pass_over_small_set_always_hits(
            offsets in proptest::collection::vec(0u64..64, 1..20),
        ) {
            let mut c = BufferCache::new(CacheConfig::tiny_clock(8));
            for &o in &offsets {
                c.access(o, 1, false);
            }
            for &o in &offsets {
                let out = c.access(o, 1, false);
                prop_assert_eq!(out.hit_blocks, 1);
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
