//! Sparse in-memory byte store.
//!
//! Holds the functional content of one I/O daemon's local file. Storage
//! is chunked so that a 1 GiB logical file striped across 8 servers
//! costs only the chunks actually written; unwritten holes read back as
//! zeros, like a sparse Unix file.

use crate::backend::StorageBackend;
use pvfs_types::PvfsResult;
use std::collections::btree_map::{BTreeMap, Entry};

/// Chunk granularity. 64 KiB balances per-chunk overhead against
/// allocation waste for scattered small writes.
pub const CHUNK_SIZE: usize = 64 * 1024;

/// What a chunk never written holds.
static HOLE: [u8; CHUNK_SIZE] = [0; CHUNK_SIZE];

/// A sparse, growable byte store addressed by `u64` offsets.
#[derive(Debug, Default, Clone)]
pub struct SparseStore {
    chunks: BTreeMap<u64, Box<[u8; CHUNK_SIZE]>>,
    /// One past the highest byte ever written.
    size: u64,
}

impl SparseStore {
    /// An empty store.
    pub fn new() -> SparseStore {
        SparseStore::default()
    }

    /// One past the highest byte ever written (the local file size).
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Number of chunks currently materialized (for memory accounting).
    pub fn resident_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Resident memory in bytes.
    pub fn resident_bytes(&self) -> u64 {
        (self.chunks.len() * CHUNK_SIZE) as u64
    }

    /// The `len` bytes from `offset` on, in order, a chunk's worth at
    /// most at a time. Holes and bytes past the end read as zero —
    /// including bytes past `u64::MAX`, which are unaddressable and
    /// therefore permanent holes.
    fn pieces(&self, offset: u64, len: usize) -> impl Iterator<Item = &[u8]> {
        // Clamp before the chunk math: `offset + pos` must not wrap, or
        // a read near u64::MAX would alias chunk 0.
        let addressable = (u64::MAX - offset).min(len as u64) as usize;
        let mut pos = 0usize;
        std::iter::from_fn(move || {
            let piece = if pos < addressable {
                let abs = offset + pos as u64;
                let within = (abs % CHUNK_SIZE as u64) as usize;
                let n = (CHUNK_SIZE - within).min(addressable - pos);
                let chunk = self.chunks.get(&(abs / CHUNK_SIZE as u64));
                chunk.map_or(&HOLE[..n], |chunk| &chunk[within..within + n])
            } else {
                &HOLE[..(len - pos).min(CHUNK_SIZE)]
            };
            pos += piece.len();
            (!piece.is_empty()).then_some(piece)
        })
    }

    /// Read `buf.len()` bytes starting at `offset` (holes as zeros).
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) {
        let mut pos = 0;
        for piece in self.pieces(offset, buf.len()) {
            buf[pos..pos + piece.len()].copy_from_slice(piece);
            pos += piece.len();
        }
    }

    /// Append the `len` bytes at `offset` to `out`: copied straight
    /// into its capacity, never zero-filled first.
    pub fn read_append(&self, offset: u64, len: usize, out: &mut Vec<u8>) {
        out.reserve(len);
        self.pieces(offset, len)
            .for_each(|piece| out.extend_from_slice(piece));
    }

    /// Convenience: read `len` bytes at `offset` into a fresh vector.
    pub fn read_vec(&self, offset: u64, len: usize) -> Vec<u8> {
        let mut buf = Vec::with_capacity(len);
        self.read_append(offset, len, &mut buf);
        buf
    }

    /// Write `data` at `offset`, materializing chunks as needed (one the
    /// write covers whole is made from its bytes, not zeroed first) and
    /// growing the file size. The store's address space ends at
    /// `u64::MAX - 1` (`size` is one past the highest byte, and must
    /// itself fit in a `u64`); bytes that would land past it are
    /// dropped rather than wrapped around to offset 0.
    pub fn write_at(&mut self, offset: u64, data: &[u8]) {
        let addressable = u64::MAX - offset;
        let data = if (data.len() as u64) > addressable {
            &data[..addressable as usize]
        } else {
            data
        };
        if data.is_empty() {
            return;
        }
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let chunk_idx = abs / CHUNK_SIZE as u64;
            let within = (abs % CHUNK_SIZE as u64) as usize;
            let n = (CHUNK_SIZE - within).min(data.len() - pos);
            let piece = &data[pos..pos + n];
            match self.chunks.entry(chunk_idx) {
                Entry::Vacant(new) if n == CHUNK_SIZE => {
                    new.insert(Box::<[u8]>::from(piece).try_into().expect("one chunk"));
                }
                chunk => chunk.or_insert_with(|| Box::new([0; CHUNK_SIZE]))[within..within + n]
                    .copy_from_slice(piece),
            }
            pos += n;
        }
        self.size = self.size.max(offset + data.len() as u64);
    }

    /// Truncate to `size` bytes, dropping whole chunks past the end and
    /// zeroing the partial tail chunk.
    pub fn truncate(&mut self, size: u64) {
        if size >= self.size {
            return;
        }
        let keep_full = size / CHUNK_SIZE as u64;
        let within = (size % CHUNK_SIZE as u64) as usize;
        let cut_from = if within == 0 {
            keep_full
        } else {
            keep_full + 1
        };
        self.chunks.retain(|&idx, _| idx < cut_from);
        if within != 0 {
            if let Some(chunk) = self.chunks.get_mut(&keep_full) {
                chunk[within..].fill(0);
            }
        }
        self.size = size;
    }
}

/// The memory side of the storage-engine seam: applies batches in
/// order, cannot fail, and promises nothing across a crash.
impl StorageBackend for SparseStore {
    fn size(&self) -> u64 {
        SparseStore::size(self)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> PvfsResult<()> {
        SparseStore::read_at(self, offset, buf);
        Ok(())
    }

    fn read_append(&self, offset: u64, len: usize, out: &mut Vec<u8>) -> PvfsResult<()> {
        SparseStore::read_append(self, offset, len, out);
        Ok(())
    }

    fn write_batch(&mut self, runs: &[(u64, &[u8])]) -> PvfsResult<()> {
        for (offset, data) in runs {
            self.write_at(*offset, data);
        }
        Ok(())
    }

    fn truncate(&mut self, size: u64) -> PvfsResult<()> {
        SparseStore::truncate(self, size);
        Ok(())
    }

    fn sync(&mut self) -> PvfsResult<u64> {
        // Nothing survives a crash: a barrier on memory is a no-op.
        Ok(0)
    }

    fn resident_bytes(&self) -> u64 {
        SparseStore::resident_bytes(self)
    }

    fn durable_bytes(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_store_reads_zero() {
        let s = SparseStore::new();
        assert_eq!(s.size(), 0);
        assert_eq!(s.read_vec(0, 8), vec![0u8; 8]);
        assert_eq!(s.read_vec(1 << 40, 4), vec![0u8; 4]);
    }

    #[test]
    fn write_then_read_back() {
        let mut s = SparseStore::new();
        s.write_at(10, b"hello");
        assert_eq!(s.read_vec(10, 5), b"hello");
        assert_eq!(s.size(), 15);
        // Surrounding bytes are zero.
        assert_eq!(s.read_vec(8, 9), b"\0\0hello\0\0");
    }

    #[test]
    fn write_spanning_chunk_boundary() {
        let mut s = SparseStore::new();
        let off = CHUNK_SIZE as u64 - 3;
        s.write_at(off, b"abcdef");
        assert_eq!(s.read_vec(off, 6), b"abcdef");
        assert_eq!(s.resident_chunks(), 2);
    }

    #[test]
    fn sparse_writes_only_materialize_touched_chunks() {
        let mut s = SparseStore::new();
        s.write_at(0, b"x");
        s.write_at(100 * CHUNK_SIZE as u64, b"y");
        assert_eq!(s.resident_chunks(), 2);
        assert_eq!(s.size(), 100 * CHUNK_SIZE as u64 + 1);
        // The hole between reads as zero.
        assert_eq!(s.read_vec(50 * CHUNK_SIZE as u64, 4), vec![0u8; 4]);
    }

    #[test]
    fn overwrite_replaces_bytes() {
        let mut s = SparseStore::new();
        s.write_at(0, b"aaaaaa");
        s.write_at(2, b"bb");
        assert_eq!(s.read_vec(0, 6), b"aabbaa");
        assert_eq!(s.size(), 6);
    }

    #[test]
    fn empty_write_is_noop() {
        let mut s = SparseStore::new();
        s.write_at(100, b"");
        assert_eq!(s.size(), 0);
        assert_eq!(s.resident_chunks(), 0);
    }

    #[test]
    fn truncate_drops_tail() {
        let mut s = SparseStore::new();
        s.write_at(0, &vec![7u8; 3 * CHUNK_SIZE]);
        s.truncate(CHUNK_SIZE as u64 + 10);
        assert_eq!(s.size(), CHUNK_SIZE as u64 + 10);
        assert_eq!(s.resident_chunks(), 2);
        // Tail of the partial chunk was zeroed.
        assert_eq!(s.read_vec(CHUNK_SIZE as u64 + 10, 4), vec![0u8; 4]);
        assert_eq!(s.read_vec(CHUNK_SIZE as u64 + 8, 2), vec![7u8; 2]);
        // Growing truncate is a no-op.
        s.truncate(1 << 30);
        assert_eq!(s.size(), CHUNK_SIZE as u64 + 10);
    }

    #[test]
    fn truncate_to_zero() {
        let mut s = SparseStore::new();
        s.write_at(0, b"data");
        s.truncate(0);
        assert_eq!(s.size(), 0);
        assert_eq!(s.resident_chunks(), 0);
        assert_eq!(s.read_vec(0, 4), vec![0u8; 4]);
    }

    #[test]
    fn resident_bytes_accounting() {
        let mut s = SparseStore::new();
        s.write_at(0, b"x");
        assert_eq!(s.resident_bytes(), CHUNK_SIZE as u64);
    }

    #[test]
    fn whole_chunks_are_made_from_the_written_bytes_and_reads_append() {
        let mut s = SparseStore::new();
        let data: Vec<u8> = (0..3 * CHUNK_SIZE).map(|i| (i % 251) as u8).collect();
        // Chunks 0 and 3 partly, 1 and 2 whole; then chunk 1 again, whole.
        let at = CHUNK_SIZE as u64 - 5;
        s.write_at(at, &data);
        s.write_at(CHUNK_SIZE as u64, &data[..CHUNK_SIZE]);
        assert_eq!(s.resident_chunks(), 4);
        let mut out = b"kept".to_vec();
        s.read_append(at - 3, data.len() + 10, &mut out);
        assert_eq!(&out[..7], b"kept\0\0\0");
        assert_eq!(&out[7..12], &data[..5]);
        assert_eq!(&out[12..12 + CHUNK_SIZE], &data[..CHUNK_SIZE]);
        assert_eq!(
            &out[12 + CHUNK_SIZE..out.len() - 7],
            &data[5 + CHUNK_SIZE..]
        );
        assert_eq!(&out[out.len() - 7..], &[0; 7]);
        // Past the end of the address space, a hole appended last.
        let mut out = vec![9];
        s.read_append(u64::MAX - 2, 5, &mut out);
        assert_eq!(out, [9, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn read_at_the_edge_of_the_address_space_does_not_wrap() {
        let s = SparseStore::new();
        // Previously `offset + pos` overflowed here: panic in debug,
        // wraparound to chunk 0 in release.
        assert_eq!(s.read_vec(u64::MAX - 2, 8), vec![0u8; 8]);
        assert_eq!(s.read_vec(u64::MAX, 4), vec![0u8; 4]);
    }

    #[test]
    fn write_at_the_edge_of_the_address_space_clamps_not_wraps() {
        let mut s = SparseStore::new();
        s.write_at(0, b"low");
        // Only the 4 addressable bytes land; the tail is dropped, not
        // wrapped around onto offset 0.
        s.write_at(u64::MAX - 4, b"ABCDEFGH");
        assert_eq!(s.size(), u64::MAX);
        assert_eq!(s.read_vec(u64::MAX - 4, 4), b"ABCD");
        assert_eq!(s.read_vec(0, 3), b"low");
        // A write starting past the last writable offset is a no-op.
        s.write_at(u64::MAX, b"Z");
        assert_eq!(s.size(), u64::MAX);
    }

    #[test]
    fn reads_past_the_tail_return_zeros_not_stale_bytes() {
        // Same guarantee the durable backend makes after journal
        // replay: the bytes past the logical size are holes, even when
        // the chunk that used to hold them is still resident.
        let mut s = SparseStore::new();
        s.write_at(0, &[3u8; 100]);
        s.truncate(40);
        assert_eq!(s.size(), 40);
        assert_eq!(s.read_vec(40, 60), vec![0u8; 60]);
        assert_eq!(s.read_vec(30, 20), [vec![3u8; 10], vec![0u8; 10]].concat());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The store behaves exactly like a flat zero-initialized array.
        #[test]
        fn matches_flat_array_oracle(
            ops in proptest::collection::vec(
                (0u64..200_000, proptest::collection::vec(any::<u8>(), 1..512)),
                1..40,
            )
        ) {
            let mut store = SparseStore::new();
            let mut oracle = vec![0u8; 300_000];
            let mut size = 0u64;
            for (off, data) in &ops {
                store.write_at(*off, data);
                oracle[*off as usize..*off as usize + data.len()].copy_from_slice(data);
                size = size.max(off + data.len() as u64);
            }
            prop_assert_eq!(store.size(), size);
            // Probe a few windows.
            for probe in [0u64, 1000, 65_535, 131_072, 199_999] {
                let got = store.read_vec(probe, 600);
                let mut want = vec![0u8; 600];
                let upto = (probe as usize + 600).min(oracle.len());
                if (probe as usize) < oracle.len() {
                    want[..upto - probe as usize]
                        .copy_from_slice(&oracle[probe as usize..upto]);
                }
                // A dirty buffer read into reads the same.
                let mut dirty = vec![0xa5; 600];
                store.read_at(probe, &mut dirty);
                prop_assert_eq!(&dirty, &want);
                prop_assert_eq!(got, want);
            }
        }

        #[test]
        fn truncate_matches_oracle(
            len in 1usize..100_000,
            cut in 0u64..120_000,
        ) {
            let mut store = SparseStore::new();
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            store.write_at(0, &data);
            store.truncate(cut);
            let expect_size = cut.min(len as u64);
            prop_assert_eq!(store.size(), expect_size);
            let got = store.read_vec(0, len + 16);
            for (i, b) in got.iter().enumerate() {
                let want = if (i as u64) < expect_size { (i % 251) as u8 } else { 0 };
                prop_assert_eq!(*b, want, "byte {}", i);
            }
        }
    }
}
