//! The noncontiguous request descriptor.

use pvfs_types::{PieceMap, PvfsError, PvfsResult, RegionList};

/// A noncontiguous I/O request: the arguments of the paper's
/// `pvfs_read_list` / `pvfs_write_list` interface (§3.3).
///
/// `mem` regions are byte offsets *within the user buffer*; `file`
/// regions are logical file offsets. The k-th byte of the memory byte
/// stream pairs with the k-th byte of the file byte stream, so the two
/// lists must cover the same total length. Planners additionally require
/// file regions to be sorted and disjoint — overlapping file regions in
/// one operation would make a write racy against itself and a read
/// ambiguous to scatter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListRequest {
    /// Contiguous memory regions (offsets into the user buffer).
    pub mem: RegionList,
    /// Contiguous file regions (logical file offsets).
    pub file: RegionList,
}

impl ListRequest {
    /// Build and validate a request.
    pub fn new(mem: RegionList, file: RegionList) -> PvfsResult<ListRequest> {
        let r = ListRequest { mem, file };
        r.validate()?;
        Ok(r)
    }

    /// Fully contiguous request: one memory region onto one file region.
    pub fn contiguous(buf_offset: u64, file_offset: u64, len: u64) -> ListRequest {
        ListRequest {
            mem: RegionList::contiguous(buf_offset, len),
            file: RegionList::contiguous(file_offset, len),
        }
    }

    /// Contiguous memory onto a noncontiguous file pattern — the common
    /// shape for the artificial benchmark and the tiled visualization
    /// code (memory contiguous, file noncontiguous).
    pub fn gather(file: RegionList) -> ListRequest {
        ListRequest {
            mem: RegionList::contiguous(0, file.total_len()),
            file,
        }
    }

    /// Total bytes transferred.
    pub fn total_len(&self) -> u64 {
        self.file.total_len()
    }

    /// Number of contiguous file regions — the quantity the paper's
    /// x-axes ("number of accesses") vary.
    pub fn file_region_count(&self) -> usize {
        self.file.count()
    }

    /// Check the invariants the planners rely on
    /// ([`piece_map`](ListRequest::piece_map)).
    pub fn validate(&self) -> PvfsResult<()> {
        self.piece_map().map(drop)
    }

    /// The request's scatter/gather map, once the invariants the
    /// planners rely on hold: a file list that is not empty, sorted and
    /// disjoint, and covers as many bytes as the memory list. The memory
    /// list is otherwise free — it may be unsorted, and a write may name
    /// a byte twice; only a read into overlapping memory regions is
    /// ill-defined (the executor scatters replies in landing order).
    pub fn piece_map(&self) -> PvfsResult<PieceMap> {
        if self.file.is_empty() {
            return Err(PvfsError::invalid("empty file region list"));
        }
        PieceMap::new(&self.mem, &self.file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvfs_types::{align_lists, Region};

    fn rl(pairs: &[(u64, u64)]) -> RegionList {
        RegionList::from_pairs(pairs.iter().copied()).unwrap()
    }

    #[test]
    fn contiguous_constructor() {
        let r = ListRequest::contiguous(8, 1024, 100);
        assert_eq!(r.total_len(), 100);
        assert_eq!(r.file_region_count(), 1);
        r.validate().unwrap();
    }

    #[test]
    fn gather_allocates_contiguous_memory() {
        let r = ListRequest::gather(rl(&[(0, 10), (100, 10)]));
        assert_eq!(r.mem.regions(), &[Region::new(0, 20)]);
        r.validate().unwrap();
    }

    #[test]
    fn mismatched_totals_rejected() {
        let r = ListRequest {
            mem: rl(&[(0, 10)]),
            file: rl(&[(0, 20)]),
        };
        assert!(matches!(r.validate(), Err(PvfsError::InvalidArgument(_))));
    }

    #[test]
    fn unsorted_file_regions_rejected() {
        let r = ListRequest {
            mem: rl(&[(0, 20)]),
            file: rl(&[(100, 10), (0, 10)]),
        };
        assert!(r.validate().is_err());
    }

    #[test]
    fn overlapping_file_regions_rejected() {
        let r = ListRequest {
            mem: rl(&[(0, 20)]),
            file: rl(&[(0, 15), (10, 5)]),
        };
        assert!(r.validate().is_err());
    }

    #[test]
    fn empty_file_list_rejected() {
        let r = ListRequest {
            mem: RegionList::new(),
            file: RegionList::new(),
        };
        assert!(r.validate().is_err());
    }

    #[test]
    fn noncontiguous_memory_is_allowed_unsorted() {
        // Memory order defines the byte stream; it need not be sorted.
        let r = ListRequest::new(rl(&[(100, 5), (0, 5)]), rl(&[(0, 10)])).unwrap();
        assert_eq!(align_lists(&r.mem, &r.file).unwrap().len(), 2);
    }

    #[test]
    fn pieces_cover_total() {
        let r = ListRequest::new(rl(&[(0, 6), (50, 6)]), rl(&[(0, 4), (10, 4), (20, 4)])).unwrap();
        let pieces = align_lists(&r.mem, &r.file).unwrap();
        let total: u64 = pieces.iter().map(|(m, _)| m.len).sum();
        assert_eq!(total, 12);
    }
}
