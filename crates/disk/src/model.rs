//! Disk timing model.
//!
//! Calibrated to the paper's I/O nodes: one 9 GB Quantum Atlas IV SCSI
//! disk per server (7200 RPM class, ~25 MB/s media rate, ~7 ms average
//! seek). The model distinguishes sequential from random access by
//! remembering where the head last finished: an access that starts where
//! the previous one ended pays no positioning cost.
//!
//! All times are virtual nanoseconds; the model is pure arithmetic and
//! deterministic.

/// Timing parameters for one disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Average seek time for a random access (ns).
    pub avg_seek_ns: u64,
    /// Average rotational latency (ns) — half a revolution.
    pub avg_rotation_ns: u64,
    /// Media transfer rate (bytes/second).
    pub transfer_bps: u64,
    /// Fixed per-operation overhead (controller, SCSI command) in ns.
    pub per_op_ns: u64,
    /// Fraction of full positioning cost charged to each background
    /// write-back block (the elevator batches them), in percent.
    pub writeback_positioning_pct: u64,
}

impl DiskModel {
    /// Quantum Atlas IV-class parameters.
    pub fn paper_default() -> DiskModel {
        DiskModel {
            avg_seek_ns: 7_000_000,     // 7 ms
            avg_rotation_ns: 4_000_000, // ~half a 7200 RPM revolution
            transfer_bps: 25_000_000,   // 25 MB/s media rate
            per_op_ns: 100_000,         // 0.1 ms controller overhead
            writeback_positioning_pct: 10,
        }
    }

    /// Pure transfer time for `bytes` at the media rate.
    pub fn transfer_ns(&self, bytes: u64) -> u64 {
        // bytes / (bytes per ns) = bytes * 1e9 / bps, computed without
        // overflow for realistic sizes via u128.
        ((bytes as u128 * 1_000_000_000) / self.transfer_bps as u128) as u64
    }

    /// Cost of one foreground access of `bytes` bytes that misses the
    /// cache. `sequential` means the head is already positioned.
    pub fn access_ns(&self, bytes: u64, sequential: bool) -> u64 {
        let position = if sequential {
            0
        } else {
            self.avg_seek_ns + self.avg_rotation_ns
        };
        self.per_op_ns + position + self.transfer_ns(bytes)
    }

    /// Cost of writing back `blocks` dirty blocks of `block_size` bytes
    /// each (batched by the elevator, so positioning is discounted).
    pub fn writeback_ns(&self, blocks: u64, block_size: u64) -> u64 {
        if blocks == 0 {
            return 0;
        }
        let positioning =
            (self.avg_seek_ns + self.avg_rotation_ns) * self.writeback_positioning_pct / 100;
        blocks * (positioning + self.transfer_ns(block_size))
    }
}

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel::paper_default()
    }
}

/// Tracks head position to classify accesses as sequential or random.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeadTracker {
    last_end: Option<u64>,
}

impl HeadTracker {
    /// New tracker with unknown head position (first access is random).
    pub fn new() -> HeadTracker {
        HeadTracker::default()
    }

    /// Record an access and report whether it was sequential with the
    /// previous one.
    pub fn observe(&mut self, offset: u64, len: u64) -> bool {
        let sequential = self.last_end == Some(offset);
        self.last_end = Some(offset + len);
        sequential
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_linearly() {
        let m = DiskModel::paper_default();
        assert_eq!(m.transfer_ns(25_000_000), 1_000_000_000); // 25 MB in 1 s
        assert_eq!(m.transfer_ns(0), 0);
        assert_eq!(m.transfer_ns(2 * 25_000_000), 2 * m.transfer_ns(25_000_000));
    }

    #[test]
    fn random_access_pays_positioning() {
        let m = DiskModel::paper_default();
        let random = m.access_ns(4096, false);
        let seq = m.access_ns(4096, true);
        assert_eq!(random - seq, m.avg_seek_ns + m.avg_rotation_ns);
        assert!(seq >= m.per_op_ns);
    }

    #[test]
    fn writeback_discounts_positioning() {
        let m = DiskModel::paper_default();
        let per_block = m.writeback_ns(1, 4096);
        let foreground = m.access_ns(4096, false);
        assert!(per_block < foreground);
        assert_eq!(m.writeback_ns(10, 4096), 10 * per_block);
        assert_eq!(m.writeback_ns(0, 4096), 0);
    }

    #[test]
    fn head_tracker_detects_sequential_runs() {
        let mut h = HeadTracker::new();
        assert!(!h.observe(0, 100)); // first access: random
        assert!(h.observe(100, 50)); // continues
        assert!(h.observe(150, 50));
        assert!(!h.observe(500, 10)); // jump
        assert!(h.observe(510, 10));
        assert!(!h.observe(0, 10)); // jump back
    }

    #[test]
    fn large_transfers_do_not_overflow() {
        let m = DiskModel::paper_default();
        let t = m.transfer_ns(1 << 40); // 1 TiB
        assert!(t > 0);
    }
}
