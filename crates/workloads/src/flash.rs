//! The FLASH I/O checkpoint write (§4.3, Figs. 13 & 14).
//!
//! FLASH is an adaptive-mesh hydrodynamics code; its checkpoint dumps
//! the element data of every mesh block on every processor. The
//! benchmark reproduces the I/O pattern without the solver:
//!
//! * **Memory** (Fig. 13): each processor holds 80 blocks; a block is an
//!   8×8×8 cube of *elements* surrounded by guard cells, and each
//!   element carries 24 double-precision variables stored contiguously.
//!   The checkpoint writes variable-by-variable, so each contiguous
//!   memory fragment is a *single 8-byte double* — the 24-variable
//!   interleaving splits everything else.
//! * **File** (Fig. 14): variable-major. All of variable 0, then
//!   variable 1, …; within a variable, 80 block slots; within a block
//!   slot, one 8×8×8×8-byte = 4096-byte chunk *per processor*.
//!
//! Paper-quoted derived quantities (asserted in tests):
//!
//! * contiguous memory regions: 80·8·8·8·24 = **983 040** per proc;
//! * contiguous file regions: 80·24 = **1920** of 4096 B per proc;
//! * multiple I/O: **983 040** requests/proc (one per aligned piece);
//! * list I/O: 1920/64 = **30** requests/proc;
//! * data per proc: **7 864 320 bytes** (7.5 MB), file grows 7.5 MB per
//!   added client.
//!
//! **Substitution note:** real FLASH uses 4 guard cells per side
//! (16³ blocks in memory); we default to 1 (10³) to keep simulated
//! client buffers small. Guard thickness only changes the *gaps*
//! between memory fragments — fragment count, file layout and all the
//! quantities above are unaffected (a test pins this).

use pvfs_core::ListRequest;
use pvfs_types::{PvfsError, PvfsResult, Region, RegionList};

/// Elements per block edge (the 8×8×8 inner cube).
pub const NXB: u64 = 8;
/// Blocks per processor.
pub const BLOCKS: u64 = 80;
/// Variables per element.
pub const NVAR: u64 = 24;
/// Bytes per variable (double).
pub const VAR_BYTES: u64 = 8;

/// Parameters of a FLASH I/O run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashIo {
    /// Number of processors (the paper varies 2–32).
    pub nprocs: u64,
    /// Guard-cell thickness on each side of a block in memory
    /// (real FLASH: 4; default here: 1 — see module docs).
    pub nguard: u64,
    /// Mesh blocks per processor (paper: 80; reducible for scaled-down
    /// benchmark runs — every derived quantity scales linearly).
    pub blocks: u64,
}

impl FlashIo {
    /// The benchmark with the memory-lean guard default.
    pub fn new(nprocs: u64) -> FlashIo {
        FlashIo {
            nprocs,
            nguard: 1,
            blocks: BLOCKS,
        }
    }

    /// Full-fidelity FLASH guards (16³ memory blocks).
    pub fn with_real_guards(nprocs: u64) -> FlashIo {
        FlashIo {
            nprocs,
            nguard: 4,
            blocks: BLOCKS,
        }
    }

    /// A scaled-down run with fewer mesh blocks per processor.
    pub fn scaled(nprocs: u64, blocks: u64) -> FlashIo {
        FlashIo {
            nprocs,
            nguard: 1,
            blocks,
        }
    }

    /// Block edge including guards.
    fn gdim(&self) -> u64 {
        NXB + 2 * self.nguard
    }

    /// Bytes of one block in memory (all elements including guards,
    /// each with its 24 variables).
    pub fn block_mem_bytes(&self) -> u64 {
        let g = self.gdim();
        g * g * g * NVAR * VAR_BYTES
    }

    /// Size of one processor's memory buffer.
    pub fn mem_bytes(&self) -> u64 {
        self.blocks * self.block_mem_bytes()
    }

    /// Checkpoint bytes one processor contributes: §4.3.1's
    /// 7 864 320 bytes.
    pub fn data_bytes_per_proc(&self) -> u64 {
        self.blocks * NXB * NXB * NXB * NVAR * VAR_BYTES
    }

    /// Total checkpoint file size.
    pub fn file_size(&self) -> u64 {
        self.nprocs * self.data_bytes_per_proc()
    }

    /// Contiguous memory fragments per proc (983 040 in the paper).
    pub fn mem_region_count(&self) -> u64 {
        self.blocks * NXB * NXB * NXB * NVAR
    }

    /// Contiguous file regions per proc (1920 × 4096 B).
    pub fn file_region_count(&self) -> u64 {
        self.blocks * NVAR
    }

    /// Memory offset of variable `v` of element `(x, y, z)` of block
    /// `b` (guard cells offset the element coordinates).
    fn mem_offset(&self, b: u64, z: u64, y: u64, x: u64, v: u64) -> u64 {
        let g = self.gdim();
        let ex = x + self.nguard;
        let ey = y + self.nguard;
        let ez = z + self.nguard;
        let elem = (ez * g + ey) * g + ex;
        b * self.block_mem_bytes() + elem * NVAR * VAR_BYTES + v * VAR_BYTES
    }

    /// File offset of the 4096-byte chunk `(variable v, block b)` of
    /// processor `p` (Fig. 14's var → block → proc nesting).
    pub fn file_chunk_offset(&self, v: u64, b: u64, p: u64) -> u64 {
        let chunk = NXB * NXB * NXB * VAR_BYTES; // 4096
        ((v * self.blocks + b) * self.nprocs + p) * chunk
    }

    /// The checkpoint-write request of processor `rank`: noncontiguous
    /// in memory *and* file. Memory regions are emitted in file-stream
    /// order so the two lists pair positionally.
    pub fn request_for(&self, rank: u64) -> PvfsResult<ListRequest> {
        if rank >= self.nprocs {
            return Err(PvfsError::invalid(format!(
                "rank {rank} out of range for {} procs",
                self.nprocs
            )));
        }
        // Plain vectors, frozen into lists once: a rank names ~10^5
        // memory regions, and a push must cost no more than `Vec::push`.
        let mut file = Vec::with_capacity(self.file_region_count() as usize);
        let mut mem = Vec::with_capacity(self.mem_region_count() as usize);
        let chunk = NXB * NXB * NXB * VAR_BYTES;
        for v in 0..NVAR {
            for b in 0..self.blocks {
                file.push(Region::new(self.file_chunk_offset(v, b, rank), chunk));
                // The chunk's bytes come from the block's elements in
                // z, y, x order — one 8-byte double each.
                for z in 0..NXB {
                    for y in 0..NXB {
                        for x in 0..NXB {
                            mem.push(Region::new(self.mem_offset(b, z, y, x, v), VAR_BYTES));
                        }
                    }
                }
            }
        }
        ListRequest::new(
            RegionList::from_regions(mem)?,
            RegionList::from_regions(file)?,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_quoted_quantities() {
        let f = FlashIo::new(4);
        assert_eq!(f.mem_region_count(), 983_040);
        assert_eq!(f.file_region_count(), 1920);
        assert_eq!(f.data_bytes_per_proc(), 7_864_320);
        // "Every additional compute node adds an additional 7.5 MBytes".
        assert_eq!(
            FlashIo::new(5).file_size() - FlashIo::new(4).file_size() * 5 / 4,
            0
        );
        assert_eq!(f.file_size(), 4 * 7_864_320);
    }

    #[test]
    fn request_shape_matches_formulas() {
        let f = FlashIo::new(2);
        let r = f.request_for(0).unwrap();
        assert_eq!(r.file.count() as u64, f.file_region_count());
        assert_eq!(r.mem.count() as u64, f.mem_region_count());
        assert_eq!(r.total_len(), f.data_bytes_per_proc());
        assert!(r.file.is_sorted_disjoint());
        // Every file region is one 4096-byte chunk.
        assert!(r.file.iter().all(|reg| reg.len == 4096));
        // Every memory region is one 8-byte double.
        assert!(r.mem.iter().all(|reg| reg.len == 8));
    }

    #[test]
    fn file_layout_is_var_major_with_proc_interleave() {
        let f = FlashIo::new(2);
        // Proc 0 block 0 var 0 at offset 0; proc 1's same chunk right
        // after; then block 1.
        assert_eq!(f.file_chunk_offset(0, 0, 0), 0);
        assert_eq!(f.file_chunk_offset(0, 0, 1), 4096);
        assert_eq!(f.file_chunk_offset(0, 1, 0), 8192);
        // Variable 1 starts after all 80 blocks × 2 procs of var 0.
        assert_eq!(f.file_chunk_offset(1, 0, 0), 80 * 2 * 4096);
    }

    #[test]
    fn procs_partition_the_checkpoint() {
        let f = FlashIo::new(3);
        let mut seen = std::collections::HashSet::new();
        for p in 0..3 {
            for reg in f.request_for(p).unwrap().file.iter() {
                assert!(seen.insert(reg.offset), "chunk {reg} claimed twice");
                assert_eq!(reg.offset % 4096, 0);
            }
        }
        assert_eq!(seen.len() as u64, 3 * f.file_region_count());
        assert_eq!(seen.iter().max().copied().unwrap() + 4096, f.file_size());
    }

    #[test]
    fn memory_fragments_are_24_vars_apart() {
        let f = FlashIo::new(1);
        let r = f.request_for(0).unwrap();
        // Within one chunk, consecutive fragments (x neighbours) are
        // spaced by the 24-variable element size: 192 bytes.
        let m0 = r.mem.regions()[0];
        let m1 = r.mem.regions()[1];
        assert_eq!(m1.offset - m0.offset, NVAR * VAR_BYTES);
    }

    #[test]
    fn guard_thickness_does_not_change_the_shape() {
        let lean = FlashIo::new(2);
        let real = FlashIo::with_real_guards(2);
        let rl = lean.request_for(1).unwrap();
        let rr = real.request_for(1).unwrap();
        // Identical file lists.
        assert_eq!(rl.file, rr.file);
        // Same fragment count and sizes in memory; only gaps differ.
        assert_eq!(rl.mem.count(), rr.mem.count());
        assert_eq!(rl.mem.total_len(), rr.mem.total_len());
        // Memory buffers differ in size (16³ vs 10³ blocks).
        assert!(real.mem_bytes() > lean.mem_bytes());
        assert_eq!(real.block_mem_bytes(), 16 * 16 * 16 * 192);
        assert_eq!(lean.block_mem_bytes(), 10 * 10 * 10 * 192);
    }

    #[test]
    fn guard_cells_are_never_written() {
        let f = FlashIo::new(1);
        let r = f.request_for(0).unwrap();
        let g = f.gdim();
        for reg in r.mem.iter().take(2000) {
            let within_block = reg.offset % f.block_mem_bytes();
            let elem = within_block / (NVAR * VAR_BYTES);
            let x = elem % g;
            let y = (elem / g) % g;
            let z = elem / (g * g);
            for c in [x, y, z] {
                assert!(
                    c >= f.nguard && c < f.nguard + NXB,
                    "guard element {elem} written"
                );
            }
        }
    }

    #[test]
    fn out_of_range_rank_rejected() {
        assert!(FlashIo::new(2).request_for(2).is_err());
    }
}
