//! Contiguous byte regions and ordered lists of them.
//!
//! A noncontiguous I/O request in the paper is described by two parallel
//! lists — contiguous *memory* regions and contiguous *file* regions —
//! whose total lengths match (`pvfs_read_list` / `pvfs_write_list`). This
//! module provides that vocabulary plus the geometric operations every
//! access method needs: intersection, coalescing, chunking to the
//! 64-region trailing-data limit, and aligning a memory list with a file
//! list into equal-length transfer pieces.

use crate::error::{PvfsError, PvfsResult};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A contiguous run of bytes: `[offset, offset + len)`.
///
/// Used both for file regions (offset within the file) and memory regions
/// (offset within a user buffer). Zero-length regions are permitted as
/// values but most list constructors reject them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Region {
    /// First byte covered.
    pub offset: u64,
    /// Number of bytes covered.
    pub len: u64,
}

impl Region {
    /// Create a region covering `[offset, offset + len)`.
    ///
    /// Panics if `offset + len` overflows `u64` — such a region has no
    /// well-defined [`Region::end`], and the geometric operations
    /// (`contains`, `overlaps`, `try_merge`, ...) would silently compute
    /// with a wrapped end. Untrusted inputs (the wire codec) go through
    /// [`Region::try_new`] instead.
    #[inline]
    pub const fn new(offset: u64, len: u64) -> Region {
        assert!(
            offset.checked_add(len).is_some(),
            "region end overflows u64"
        );
        Region { offset, len }
    }

    /// Create a region, rejecting pairs whose end would overflow `u64`.
    /// This is the constructor for untrusted (wire) input.
    #[inline]
    pub const fn try_new(offset: u64, len: u64) -> Option<Region> {
        if offset.checked_add(len).is_some() {
            Some(Region { offset, len })
        } else {
            None
        }
    }

    /// One-past-the-last byte covered. Cannot overflow: construction
    /// rejects `offset + len > u64::MAX`.
    #[inline]
    pub const fn end(self) -> u64 {
        self.offset + self.len
    }

    /// True iff the region covers no bytes.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.len == 0
    }

    /// True iff `other` is fully inside `self`.
    #[inline]
    pub const fn contains(self, other: Region) -> bool {
        other.offset >= self.offset && other.end() <= self.end()
    }

    /// True iff the two regions share at least one byte.
    #[inline]
    pub const fn overlaps(self, other: Region) -> bool {
        self.offset < other.end() && other.offset < self.end() && self.len > 0 && other.len > 0
    }

    /// The shared bytes of two regions, if any.
    #[inline]
    pub fn intersect(self, other: Region) -> Option<Region> {
        let start = self.offset.max(other.offset);
        let end = self.end().min(other.end());
        if start < end {
            Some(Region::new(start, end - start))
        } else {
            None
        }
    }

    /// True iff the regions touch without overlapping (`self` ends where
    /// `other` starts or vice versa).
    #[inline]
    pub const fn is_adjacent(self, other: Region) -> bool {
        self.end() == other.offset || other.end() == self.offset
    }

    /// Merge two overlapping or adjacent regions into their union.
    /// Returns `None` when the union would not be contiguous.
    pub fn try_merge(self, other: Region) -> Option<Region> {
        if self.overlaps(other) || self.is_adjacent(other) {
            let start = self.offset.min(other.offset);
            let end = self.end().max(other.end());
            Some(Region::new(start, end - start))
        } else {
            None
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.offset, self.end())
    }
}

/// An ordered list of contiguous regions.
///
/// The order is meaningful: bytes are transferred list-order first, so a
/// memory list and a file list pair element bytes positionally. Lists used
/// as *file* descriptions by the planners are usually sorted and disjoint
/// (checked by [`RegionList::is_sorted_disjoint`]) but the type itself
/// allows arbitrary order, as the paper's interface does.
///
/// The regions sit behind one shared allocation (as `bytes::Bytes` keeps
/// its buffer): [`clone`](Clone::clone), [`slice`](RegionList::slice) and
/// [`chunks`](RegionList::chunks) are O(1) and alias it, so a request's
/// list travels from the caller through the planner to the wire encoder
/// without being copied. [`push`](RegionList::push) writes in place while
/// the list is the only handle on its storage and copies it out first
/// otherwise, so a clone never observes a later push.
///
/// The storage indexes itself once: the first query of a list longer
/// than `BLOCK` (64) regions records, for every block of 64 regions of
/// the storage, where it starts in the byte stream, where its regions
/// lie and whether they are sorted and disjoint. Every clone and
/// sub-list then answers [`total_len`](RegionList::total_len),
/// [`extent`](RegionList::extent),
/// [`is_sorted_disjoint`](RegionList::is_sorted_disjoint) and a
/// [`PieceMap`]'s lookups from those blocks and a scan of fewer than 64
/// regions at each of its ends. A shorter list is scanned and builds no
/// index.
#[derive(Clone, Default)]
pub struct RegionList {
    /// `None` for a list that never held a region (allocates nothing).
    shared: Option<Arc<Storage>>,
    /// This list is `shared.regions[start..end]`.
    start: usize,
    end: usize,
}

/// Regions per block of a list's index.
const BLOCK: usize = 64;

/// A list's shared storage: the regions and, once asked, their index —
/// built over all of `regions`, immutable while shared, dropped by the
/// only mutators.
struct Storage {
    regions: Vec<Region>,
    index: OnceLock<Index>,
}

impl Storage {
    fn new(regions: Vec<Region>) -> Arc<Storage> {
        let index = OnceLock::new();
        Arc::new(Storage { regions, index })
    }

    /// The regions, to change through a sole handle: what the index said
    /// of them no longer holds.
    fn regions_mut(&mut self) -> &mut Vec<Region> {
        self.index.take();
        &mut self.regions
    }
}

/// What a storage knows of itself, block by block of `BLOCK` regions.
struct Index {
    /// Per block: where its first region starts in the byte stream (its
    /// *mark*), and where its regions lie.
    blocks: Vec<(u64, Span)>,
    /// The stream's length: the mark after the last block.
    total: u64,
}

impl Index {
    fn of(regions: &[Region]) -> Index {
        let mut total = 0;
        let blocks = regions
            .chunks(BLOCK)
            .map(|block| {
                let mark = total;
                total += block.iter().map(|r| r.len).sum::<u64>();
                (mark, Span::of(block).expect("a block holds a region"))
            })
            .collect();
        Index { blocks, total }
    }

    /// Where storage region `at` (or the end, `at == regions.len()`)
    /// starts in the byte stream: its block's mark plus fewer than
    /// `BLOCK` regions.
    fn stream_at(&self, regions: &[Region], at: usize) -> u64 {
        let block = at / BLOCK;
        let mark = self.blocks.get(block).map_or(self.total, |&(mark, _)| mark);
        mark + regions[block * BLOCK..at]
            .iter()
            .map(|r| r.len)
            .sum::<u64>()
    }
}

/// Where a run of regions lies: its lowest offset, its highest end, and
/// whether it is sorted and disjoint.
#[derive(Clone, Copy)]
struct Span {
    lo: u64,
    hi: u64,
    sorted: bool,
}

impl Span {
    fn of(regions: &[Region]) -> Option<Span> {
        let one = |r: &Region| Span {
            lo: r.offset,
            hi: r.end(),
            sorted: true,
        };
        regions.iter().map(one).reduce(Span::then)
    }

    /// This run followed by `next`: two sorted runs join sorted when the
    /// first's highest end is at most the second's lowest offset.
    fn then(self, next: Span) -> Span {
        Span {
            lo: self.lo.min(next.lo),
            hi: self.hi.max(next.hi),
            sorted: self.sorted && next.sorted && self.hi <= next.lo,
        }
    }
}

impl RegionList {
    /// Empty list.
    pub const fn new() -> RegionList {
        RegionList {
            shared: None,
            start: 0,
            end: 0,
        }
    }

    /// Empty list with reserved capacity.
    pub fn with_capacity(n: usize) -> RegionList {
        RegionList {
            shared: (n > 0).then(|| Storage::new(Vec::with_capacity(n))),
            start: 0,
            end: 0,
        }
    }

    /// Build from regions, rejecting empty regions. Takes over the
    /// vector's allocation — the cheapest way to build a long list is to
    /// fill a `Vec<Region>` and freeze it here.
    pub fn from_regions(regions: Vec<Region>) -> PvfsResult<RegionList> {
        if regions.iter().any(|r| r.is_empty()) {
            return Err(PvfsError::invalid("region list contains an empty region"));
        }
        Ok(RegionList::from_regions_unchecked(regions))
    }

    /// Build from `(offset, len)` pairs — the shape of the paper's
    /// `pvfs_read_list` arguments.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (u64, u64)>) -> PvfsResult<RegionList> {
        Self::from_regions(pairs.into_iter().map(|(o, l)| Region::new(o, l)).collect())
    }

    /// Build without checking (used internally where emptiness is already
    /// impossible).
    pub(crate) fn from_regions_unchecked(regions: Vec<Region>) -> RegionList {
        let end = regions.len();
        RegionList {
            shared: (end > 0).then(|| Storage::new(regions)),
            start: 0,
            end,
        }
    }

    /// Copy a slice of already-validated regions into a list of its own.
    pub fn from_regions_slice(regions: &[Region]) -> RegionList {
        debug_assert!(regions.iter().all(|r| !r.is_empty()));
        RegionList::from_regions_unchecked(regions.to_vec())
    }

    /// A single contiguous region as a list.
    pub fn contiguous(offset: u64, len: u64) -> RegionList {
        if len == 0 {
            RegionList::new()
        } else {
            RegionList::from_regions_unchecked(vec![Region::new(offset, len)])
        }
    }

    /// Append a region; empty regions are silently skipped so that
    /// generators can emit degenerate pieces without special-casing.
    pub fn push(&mut self, region: Region) {
        if region.is_empty() {
            return;
        }
        match self.shared.as_mut().and_then(Arc::get_mut) {
            // Sole handle: grow in place (dropping whatever a wider,
            // since-dropped list left behind this one's end).
            Some(storage) => {
                let regions = storage.regions_mut();
                regions.truncate(self.end);
                regions.push(region);
                self.end += 1;
            }
            // Clones or sub-lists alias the storage: leave it to them.
            None => {
                let mut regions = Vec::with_capacity((self.count() + 1).max(4));
                regions.extend_from_slice(self.regions());
                regions.push(region);
                *self = RegionList::from_regions_unchecked(regions);
            }
        }
    }

    /// Empty the list. The storage stays with it — so that refilling it
    /// allocates nothing — when the list is the only handle on it;
    /// clones and sub-lists that alias the storage keep it instead, and
    /// never observe the refill.
    pub fn clear(&mut self) {
        match self.shared.as_mut().and_then(Arc::get_mut) {
            Some(storage) => {
                storage.regions_mut().clear();
                (self.start, self.end) = (0, 0);
            }
            None => *self = RegionList::new(),
        }
    }

    /// Regions the list's storage has room for (this list's own and
    /// whatever else of the storage a wider list once filled).
    pub fn capacity(&self) -> usize {
        self.shared
            .as_ref()
            .map_or(0, |storage| storage.regions.capacity())
    }

    /// Number of regions.
    #[inline]
    pub fn count(&self) -> usize {
        self.end - self.start
    }

    /// True iff there are no regions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The regions as a slice.
    #[inline]
    pub fn regions(&self) -> &[Region] {
        match &self.shared {
            Some(storage) => &storage.regions[self.start..self.end],
            None => &[],
        }
    }

    /// The sub-list of regions `range` (indices into this list). O(1):
    /// shares this list's storage.
    pub fn slice(&self, range: std::ops::Range<usize>) -> RegionList {
        assert!(
            range.start <= range.end && range.end <= self.count(),
            "sub-list {range:?} out of bounds of {} regions",
            self.count()
        );
        RegionList {
            shared: self.shared.clone(),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Iterate over the regions.
    pub fn iter(&self) -> std::slice::Iter<'_, Region> {
        self.regions().iter()
    }

    /// Total bytes covered (counting duplicates if regions overlap).
    pub fn total_len(&self) -> u64 {
        self.stream_offset(self.count())
    }

    /// The smallest contiguous region covering every listed region, or
    /// `None` for an empty list. This is the window data sieving reads.
    pub fn extent(&self) -> Option<Region> {
        self.span().map(|s| Region::new(s.lo, s.hi - s.lo))
    }

    /// True iff regions appear in strictly increasing offset order without
    /// overlap — the usual shape of file lists produced by access-pattern
    /// generators.
    pub fn is_sorted_disjoint(&self) -> bool {
        self.span().is_none_or(|s| s.sorted)
    }

    /// The storage's regions and index, for a list longer than one
    /// block; a shorter one is scanned instead, and builds none.
    fn indexed(&self) -> Option<(&[Region], &Index)> {
        let storage = self.shared.as_ref().filter(|_| self.count() > BLOCK)?;
        let index = storage.index.get_or_init(|| Index::of(&storage.regions));
        Some((&storage.regions[..], index))
    }

    /// Where region `i` of the list (or its end, `i == count()`) starts
    /// in the list's byte stream.
    fn stream_offset(&self, i: usize) -> u64 {
        match self.indexed() {
            Some((regions, index)) => {
                index.stream_at(regions, self.start + i) - index.stream_at(regions, self.start)
            }
            None => self.regions()[..i].iter().map(|r| r.len).sum(),
        }
    }

    /// The region holding byte `pos` of the list's byte stream (`pos`
    /// below its total), and where that region starts in the stream.
    fn locate(&self, pos: u64) -> (usize, u64) {
        let (mut i, mut at) = match self.indexed() {
            Some((regions, index)) => {
                // The last block starting at or before the byte (the
                // first starts at 0), entered no earlier than the list.
                let base = index.stream_at(regions, self.start);
                let block = index
                    .blocks
                    .partition_point(|&(mark, _)| mark <= base + pos)
                    - 1;
                let from = (block * BLOCK).max(self.start);
                (from - self.start, index.stream_at(regions, from) - base)
            }
            None => (0, 0),
        };
        let regions = self.regions();
        while at + regions[i].len <= pos {
            at += regions[i].len;
            i += 1;
        }
        (i, at)
    }

    /// Where the list's regions lie: the blocks wholly inside it from the
    /// index, the part blocks at its ends scanned.
    fn span(&self) -> Option<Span> {
        let Some((regions, index)) = self.indexed() else {
            return Span::of(self.regions());
        };
        let (first, last) = (self.start.div_ceil(BLOCK), self.end / BLOCK);
        let head = Span::of(&regions[self.start..first * BLOCK]);
        let blocks = index.blocks[first..last].iter().map(|&(_, span)| span);
        let tail = Span::of(&regions[last * BLOCK..self.end]);
        head.into_iter()
            .chain(blocks)
            .chain(tail)
            .reduce(Span::then)
    }

    /// A copy with adjacent/overlapping regions merged. The input is
    /// sorted by offset first, so the result is always sorted and
    /// disjoint. Coalescing is what turns "1024 single-byte accesses of a
    /// contiguous run" into one wire region.
    pub fn coalesced(&self) -> RegionList {
        if self.count() <= 1 {
            return self.clone();
        }
        let mut sorted = self.regions().to_vec();
        sorted.sort_unstable_by_key(|r| r.offset);
        let mut out: Vec<Region> = Vec::with_capacity(sorted.len());
        for r in sorted {
            match out.last_mut() {
                Some(last) if last.overlaps(r) || last.is_adjacent(r) => {
                    *last = last.try_merge(r).expect("checked mergeable");
                }
                _ => out.push(r),
            }
        }
        RegionList::from_regions_unchecked(out)
    }

    /// Split the list into consecutive chunks of at most `max_regions`
    /// regions each — exactly how list I/O breaks a long request into
    /// several ≤64-region wire requests. Each chunk is an O(1)
    /// [`slice`](RegionList::slice) of this list.
    pub fn chunks(&self, max_regions: usize) -> Chunks {
        assert!(max_regions > 0, "chunk size must be positive");
        Chunks {
            rest: self.clone(),
            max: max_regions,
        }
    }
}

/// A list's chunks ([`RegionList::chunks`]).
#[derive(Debug, Clone)]
pub struct Chunks {
    /// What no chunk has taken yet.
    rest: RegionList,
    max: usize,
}

impl Iterator for Chunks {
    type Item = RegionList;

    fn next(&mut self) -> Option<RegionList> {
        let (n, count) = (self.max.min(self.rest.count()), self.rest.count());
        let chunk = (n > 0).then(|| self.rest.slice(0..n))?;
        self.rest = self.rest.slice(n..count);
        Some(chunk)
    }
}

/// Lists are equal when they name the same regions in the same order,
/// whatever storage they share.
impl PartialEq for RegionList {
    fn eq(&self, other: &RegionList) -> bool {
        self.regions() == other.regions()
    }
}

impl Eq for RegionList {}

impl fmt::Debug for RegionList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegionList")
            .field("regions", &self.regions())
            .finish()
    }
}

impl IntoIterator for RegionList {
    type Item = Region;
    type IntoIter = std::vec::IntoIter<Region>;
    fn into_iter(self) -> Self::IntoIter {
        self.regions().to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a RegionList {
    type Item = &'a Region;
    type IntoIter = std::slice::Iter<'a, Region>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<Region> for RegionList {
    fn from_iter<T: IntoIterator<Item = Region>>(iter: T) -> Self {
        RegionList::from_regions_unchecked(iter.into_iter().filter(|r| !r.is_empty()).collect())
    }
}

impl fmt::Display for RegionList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

/// One piece of a memory⇄file transfer: `piece.0` bytes in memory pair
/// positionally with `piece.1` bytes in file; both have the same length.
pub type TransferPiece = (Region, Region);

/// The precondition `pvfs_read_list` imposes on its arguments: the two
/// lists cover the same number of bytes.
fn same_totals(mem_total: u64, file_total: u64) -> PvfsResult<()> {
    if mem_total != file_total {
        return Err(PvfsError::invalid(format!(
            "memory list covers {mem_total} bytes but file list covers {file_total}"
        )));
    }
    Ok(())
}

/// The scatter/gather map of one request: how its memory list pairs
/// with its file list, byte for byte.
///
/// The byte streams of the two lists are zipped — the k-th byte of the
/// memory stream corresponds to the k-th byte of the file stream — and
/// cut into *pieces*, each the longest run contiguous in both spaces,
/// so scatter/gather is plain `copy_from_slice` piece by piece. This is
/// the one walk that pairs the two lists; [`align_lists`] is its
/// reference, materialised.
///
/// The map is *implicit*: it is the two region lists — O(1) clones
/// sharing the caller's storage — and nothing else, where the pieces
/// themselves would take 32 bytes each (3 MiB for one 768 KiB FLASH
/// checkpoint op, whose memory side is 98 304 eight-byte fragments). A
/// lookup is one binary search over the sorted file list, one over the
/// block marks of the memory list's index (built once per list, see
/// [`RegionList`]), a walk of fewer than 64 regions on each side, and
/// then the in-step walk from there. A plan clones it into every wire op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PieceMap {
    mem: RegionList,
    /// Sorted and disjoint.
    file: RegionList,
}

impl PieceMap {
    /// Map a memory list onto a file list. Errors unless the two cover
    /// the same number of bytes and the file list is sorted and disjoint
    /// (what a request must be).
    pub fn new(mem: &RegionList, file: &RegionList) -> PvfsResult<PieceMap> {
        same_totals(mem.total_len(), file.total_len())?;
        if !file.is_sorted_disjoint() {
            return Err(PvfsError::invalid(
                "file regions must be sorted and disjoint",
            ));
        }
        Ok(PieceMap {
            mem: mem.clone(),
            file: file.clone(),
        })
    }

    /// The file list, sorted and disjoint.
    pub fn file(&self) -> &RegionList {
        &self.file
    }

    /// Every piece in stream order, lazily: the walk owns O(1) clones of
    /// the two lists and a cursor, nothing proportional to the piece
    /// count.
    pub fn pieces(&self) -> Pieces {
        let (mem, file) = (self.mem.regions(), self.file.regions());
        Pieces {
            map: self.clone(),
            at: AlignCursor::at(mem, 0, 0, file, 0, 0),
        }
    }

    /// Where the walk over both lists stands at file offset `offset`,
    /// or `None` when no file region holds that byte.
    fn seek(&self, offset: u64) -> Option<AlignCursor> {
        let file = self.file.regions();
        let file_index = file.partition_point(|r| r.end() <= offset);
        let file_used = offset.checked_sub(file.get(file_index)?.offset)?;
        // The stream position of `offset`, and the memory region holding
        // that byte of the stream.
        let pos = self.file.stream_offset(file_index) + file_used;
        let (mem_index, at) = self.mem.locate(pos);
        Some(AlignCursor::at(
            self.mem.regions(),
            mem_index,
            pos - at,
            file,
            file_index,
            file_used,
        ))
    }

    /// Call `f` with each memory region backing file region `file`, in
    /// file order: one per piece the region touches, cut where either
    /// list's region ends. `file` must be fully covered by mapped file
    /// regions (callers only ask about regions they derived from the
    /// same lists); it may span adjacent ones.
    pub fn for_each_slice(&self, file: Region, mut f: impl FnMut(Region)) {
        if file.is_empty() {
            return;
        }
        let (mem_list, file_list) = (self.mem.regions(), self.file.regions());
        let mut covered = 0;
        if let Some(mut at) = self.seek(file.offset) {
            while let Some((mem, piece)) = at.step(mem_list, file_list) {
                if piece.offset != file.offset + covered {
                    break; // a gap in the file list inside `file`
                }
                let len = mem.len.min(file.len - covered);
                f(Region::new(mem.offset, len));
                covered += len;
                if covered == file.len {
                    break;
                }
            }
        }
        debug_assert_eq!(covered, file.len, "file region {file} not fully mapped");
    }
}

/// A [`PieceMap`]'s pieces in stream order ([`PieceMap::pieces`]).
#[derive(Debug, Clone)]
pub struct Pieces {
    map: PieceMap,
    at: AlignCursor,
}

impl Iterator for Pieces {
    type Item = TransferPiece;

    fn next(&mut self) -> Option<TransferPiece> {
        self.at
            .step(self.map.mem.regions(), self.map.file.regions())
    }
}

/// Where the walk over a memory and a file region slice stands. The
/// cursor borrows nothing: each [`step`](AlignCursor::step) is handed
/// the two slices it was made for, so the [`PieceMap`] that owns the
/// lists can keep a cursor beside them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AlignCursor {
    /// Index of the current region of each list…
    mem_index: usize,
    file_index: usize,
    /// …and the part of it no earlier piece took (whatever, once the
    /// index is past the end).
    mem_rest: Region,
    file_rest: Region,
}

impl AlignCursor {
    /// A cursor standing `mem_used` bytes into region `mem_index` of
    /// `mem` and `file_used` bytes into region `file_index` of `file`
    /// (each `used` less than its region's length, or the index one
    /// past the end). The caller vouches that the two positions are the
    /// same byte of the two streams.
    fn at(
        mem: &[Region],
        mem_index: usize,
        mem_used: u64,
        file: &[Region],
        file_index: usize,
        file_used: u64,
    ) -> AlignCursor {
        let rest = |list: &[Region], index: usize, used: u64| match list.get(index) {
            Some(r) => Region::new(r.offset + used, r.len - used),
            None => Region::new(0, 0),
        };
        AlignCursor {
            mem_index,
            file_index,
            mem_rest: rest(mem, mem_index, mem_used),
            file_rest: rest(file, file_index, file_used),
        }
    }

    /// The piece at the cursor — the longest run contiguous in both
    /// lists — moving the cursor past it; `None` once either list is
    /// exhausted.
    #[inline]
    fn step(&mut self, mem: &[Region], file: &[Region]) -> Option<TransferPiece> {
        if self.mem_index >= mem.len() || self.file_index >= file.len() {
            return None;
        }
        let n = self.mem_rest.len.min(self.file_rest.len);
        Some((
            take_front(&mut self.mem_rest, &mut self.mem_index, mem, n),
            take_front(&mut self.file_rest, &mut self.file_index, file, n),
        ))
    }
}

/// Take `n` bytes off the front of `rest`, the unconsumed part of
/// `list[index]`, moving on to the next region once it is used up.
#[inline]
fn take_front(rest: &mut Region, index: &mut usize, list: &[Region], n: u64) -> Region {
    // `n <= rest.len`, so neither part's end passes `rest.end()`.
    let taken = Region {
        offset: rest.offset,
        len: n,
    };
    *rest = Region {
        offset: rest.offset + n,
        len: rest.len - n,
    };
    if rest.is_empty() {
        *index += 1;
        if let Some(next) = list.get(*index) {
            *rest = *next;
        }
    }
    taken
}

/// The walk of [`PieceMap`], materialised: one `Vec` entry per piece,
/// and no demand on the order of the file list. The reference the tests'
/// oracles (and the benchmark's inputs) are built from; the program
/// itself pairs the lists through a [`PieceMap`].
pub fn align_lists(mem: &RegionList, file: &RegionList) -> PvfsResult<Vec<TransferPiece>> {
    same_totals(mem.total_len(), file.total_len())?;
    let (mem, file) = (mem.regions(), file.regions());
    let mut at = AlignCursor::at(mem, 0, 0, file, 0, 0);
    let mut pieces = Vec::with_capacity(mem.len().max(file.len()));
    while let Some(piece) = at.step(mem, file) {
        pieces.push(piece);
    }
    Ok(pieces)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rl(pairs: &[(u64, u64)]) -> RegionList {
        RegionList::from_pairs(pairs.iter().copied()).unwrap()
    }

    #[test]
    #[should_panic(expected = "region end overflows u64")]
    fn new_rejects_overflowing_end() {
        let _ = Region::new(u64::MAX - 3, 5);
    }

    #[test]
    fn try_new_filters_overflow() {
        assert_eq!(
            Region::try_new(u64::MAX - 3, 3),
            Some(Region::new(u64::MAX - 3, 3))
        );
        assert_eq!(Region::try_new(u64::MAX - 3, 4), None);
        assert_eq!(Region::try_new(u64::MAX, 0), Some(Region::new(u64::MAX, 0)));
    }

    #[test]
    fn region_basic_geometry() {
        let r = Region::new(10, 5);
        assert_eq!(r.end(), 15);
        assert!(!r.is_empty());
    }

    #[test]
    fn region_containment() {
        let outer = Region::new(0, 100);
        assert!(outer.contains(Region::new(0, 100)));
        assert!(outer.contains(Region::new(10, 20)));
        assert!(!outer.contains(Region::new(90, 20)));
    }

    #[test]
    fn region_overlap_and_intersection() {
        let a = Region::new(0, 10);
        let b = Region::new(5, 10);
        let c = Region::new(10, 5);
        assert!(a.overlaps(b));
        assert!(!a.overlaps(c)); // adjacency is not overlap
        assert_eq!(a.intersect(b), Some(Region::new(5, 5)));
        assert_eq!(a.intersect(c), None);
    }

    #[test]
    fn empty_regions_never_overlap() {
        let e = Region::new(5, 0);
        assert!(!e.overlaps(Region::new(0, 10)));
        assert!(!Region::new(0, 10).overlaps(e));
    }

    #[test]
    fn region_merge() {
        let a = Region::new(0, 10);
        assert_eq!(a.try_merge(Region::new(10, 5)), Some(Region::new(0, 15)));
        assert_eq!(a.try_merge(Region::new(5, 20)), Some(Region::new(0, 25)));
        assert_eq!(a.try_merge(Region::new(11, 5)), None);
    }

    #[test]
    fn list_rejects_empty_regions() {
        assert!(RegionList::from_pairs([(0, 10), (20, 0)]).is_err());
        assert!(RegionList::from_pairs([(0, 10), (20, 1)]).is_ok());
    }

    #[test]
    fn list_push_skips_empty() {
        let mut l = RegionList::new();
        l.push(Region::new(0, 0));
        l.push(Region::new(5, 5));
        assert_eq!(l.count(), 1);
    }

    #[test]
    fn list_totals_and_extent() {
        let l = rl(&[(0, 4), (10, 4), (100, 8)]);
        assert_eq!(l.total_len(), 16);
        assert_eq!(l.extent(), Some(Region::new(0, 108)));
        assert!(RegionList::new().extent().is_none());
    }

    #[test]
    fn list_sorted_disjoint_detection() {
        assert!(rl(&[(0, 4), (4, 4), (100, 8)]).is_sorted_disjoint());
        assert!(!rl(&[(0, 8), (4, 4)]).is_sorted_disjoint());
        assert!(!rl(&[(10, 4), (0, 4)]).is_sorted_disjoint());
        assert!(RegionList::new().is_sorted_disjoint());
    }

    /// The index is built by the first query of a list longer than a
    /// block, over the whole storage, and every clone and sub-list reads
    /// that one; a shorter list is scanned, and a push drops it.
    #[test]
    fn only_a_list_longer_than_a_block_builds_the_shared_index() {
        let long: RegionList = (0..65).map(|k| Region::new(2 * k, 1)).collect();
        let built = |l: &RegionList| l.shared.as_ref().is_some_and(|s| s.index.get().is_some());
        let short = long.slice(1..65);
        assert_eq!((short.total_len(), short.is_sorted_disjoint()), (64, true));
        assert!(!built(&long));
        assert_eq!(long.extent(), Some(Region::new(0, 129)));
        assert!(built(&short) && built(&long.clone()));
        let mut sole = RegionList::from_regions_slice(long.regions());
        assert_eq!(sole.total_len(), 65);
        sole.push(Region::new(200, 7));
        assert!(!built(&sole));
        assert_eq!((sole.total_len(), sole.count()), (72, 66));
    }

    #[test]
    fn coalesce_merges_adjacent_and_overlapping() {
        let l = rl(&[(8, 4), (0, 4), (4, 4), (20, 4), (22, 10)]);
        let c = l.coalesced();
        assert_eq!(c.regions(), &[Region::new(0, 12), Region::new(20, 12)]);
        assert!(c.is_sorted_disjoint());
    }

    #[test]
    fn coalesce_noop_on_disjoint() {
        let l = rl(&[(0, 4), (8, 4)]);
        assert_eq!(l.coalesced(), l);
    }

    #[test]
    fn chunks_respect_limit() {
        let l = rl(&[(0, 1), (2, 1), (4, 1), (6, 1), (8, 1)]);
        let chunks: Vec<_> = l.chunks(2).collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].count(), 2);
        assert_eq!(chunks[2].count(), 1);
        let total: u64 = chunks.iter().map(|c| c.total_len()).sum();
        assert_eq!(total, l.total_len());
    }

    #[test]
    fn clones_and_sub_lists_alias_the_parents_storage() {
        let l = rl(&[(0, 1), (2, 1), (4, 1), (6, 1), (8, 1)]);
        let base = l.regions().as_ptr();
        assert_eq!(l.clone().regions().as_ptr(), base);
        let sub = l.slice(1..4);
        assert_eq!(sub.regions().as_ptr(), base.wrapping_add(1));
        assert_eq!(sub, rl(&[(2, 1), (4, 1), (6, 1)]));
        assert_eq!(sub.slice(1..3).regions().as_ptr(), base.wrapping_add(2));
        for (i, chunk) in l.chunks(2).enumerate() {
            assert_eq!(chunk.regions().as_ptr(), base.wrapping_add(2 * i));
        }
        assert!(l.slice(2..2).is_empty());
        // A sub-list outlives the list it was cut from.
        drop(l);
        assert_eq!(sub.total_len(), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn sub_list_past_the_end_panics() {
        let _ = rl(&[(0, 1), (2, 1)]).slice(1..3);
    }

    #[test]
    fn push_after_clone_does_not_disturb_the_clone() {
        let mut l = rl(&[(0, 4), (8, 4)]);
        let snapshot = l.clone();
        let head = l.slice(0..1);
        l.push(Region::new(16, 4));
        assert_eq!(l, rl(&[(0, 4), (8, 4), (16, 4)]));
        assert_eq!(snapshot, rl(&[(0, 4), (8, 4)]));
        assert_eq!(head, rl(&[(0, 4)]));
        // Pushing onto a sub-list neither touches the parent nor
        // resurrects the regions behind the sub-list's end.
        let mut head = head;
        head.push(Region::new(100, 1));
        assert_eq!(head, rl(&[(0, 4), (100, 1)]));
        assert_eq!(snapshot, rl(&[(0, 4), (8, 4)]));
        drop((l, snapshot));
    }

    #[test]
    fn a_sole_handle_pushes_in_place() {
        let mut l = RegionList::with_capacity(3);
        l.push(Region::new(0, 1));
        let at = l.regions().as_ptr();
        l.push(Region::new(2, 1));
        l.push(Region::new(4, 1));
        assert_eq!(l.regions().as_ptr(), at, "within capacity: no regrowth");
        assert_eq!(l, rl(&[(0, 1), (2, 1), (4, 1)]));
    }

    #[test]
    fn a_cleared_sole_handle_is_refilled_where_it_lies() {
        let mut l = rl(&[(0, 1), (2, 1), (4, 1)]);
        let (at, room) = (l.regions().as_ptr(), l.capacity());
        // A sub-list that is the last handle keeps the whole storage.
        l = l.slice(1..3);
        l.clear();
        assert!(l.is_empty() && l.capacity() == room);
        l.push(Region::new(9, 1));
        assert_eq!((l.regions().as_ptr(), &l), (at, &rl(&[(9, 1)])));
        // A clone keeps what it had; the cleared handle lets go instead.
        let kept = l.clone();
        l.clear();
        l.push(Region::new(7, 7));
        assert_eq!((kept, l.capacity() > 0), (rl(&[(9, 1)]), true));
        assert_ne!(l.regions().as_ptr(), at);
        assert_eq!(RegionList::new().capacity(), 0);
    }

    #[test]
    fn a_sole_sub_list_drops_the_tail_it_never_covered() {
        let l = rl(&[(0, 1), (2, 1), (4, 1)]);
        let mut mid = l.slice(1..2);
        drop(l);
        mid.push(Region::new(9, 1));
        assert_eq!(mid, rl(&[(2, 1), (9, 1)]));
    }

    #[test]
    fn equality_and_debug_ignore_how_storage_is_shared() {
        let whole = rl(&[(0, 4), (8, 4), (16, 4)]);
        let own = rl(&[(8, 4)]);
        let cut = whole.slice(1..2);
        assert_eq!(cut, own);
        assert_ne!(cut, whole);
        assert_eq!(format!("{cut:?}"), format!("{own:?}"));
        assert_eq!(
            format!("{own:?}"),
            "RegionList { regions: [Region { offset: 8, len: 4 }] }"
        );
        assert_eq!(
            format!("{:?}", RegionList::new()),
            "RegionList { regions: [] }"
        );
        assert_eq!(RegionList::new(), RegionList::with_capacity(8));
        assert_eq!(cut.coalesced(), own);
        assert_eq!(
            whole.slice(0..2).into_iter().collect::<Vec<_>>(),
            vec![Region::new(0, 4), Region::new(8, 4)]
        );
    }

    #[test]
    fn align_matching_lists() {
        // memory: two regions of 6 and 2; file: three regions 3/3/2
        let mem = rl(&[(0, 6), (100, 2)]);
        let file = rl(&[(10, 3), (20, 3), (30, 2)]);
        let pieces = align_lists(&mem, &file).unwrap();
        assert_eq!(
            pieces,
            vec![
                (Region::new(0, 3), Region::new(10, 3)),
                (Region::new(3, 3), Region::new(20, 3)),
                (Region::new(100, 2), Region::new(30, 2)),
            ]
        );
    }

    #[test]
    fn lazy_walk_and_a_cursor_set_down_mid_stream_give_the_same_pieces() {
        let mem = rl(&[(0, 6), (100, 2), (50, 4)]);
        let file = rl(&[(10, 3), (20, 3), (30, 2), (40, 4)]);
        let pieces = align_lists(&mem, &file).unwrap();
        let map = PieceMap::new(&mem, &file).unwrap();
        assert_eq!(map.pieces().collect::<Vec<_>>(), pieces);
        assert!(PieceMap::new(&mem, &rl(&[(0, 11)])).is_err());
        // Stream byte 7: one byte into memory region 1 and into file
        // region 2; the walk from there is the tail of the full walk,
        // its first piece cut short.
        let (m, f) = (mem.regions(), file.regions());
        let mut at = AlignCursor::at(m, 1, 1, f, 2, 1);
        let mut tail = Vec::new();
        while let Some(piece) = at.step(m, f) {
            tail.push(piece);
        }
        assert_eq!(tail[0], (Region::new(101, 1), Region::new(31, 1)));
        assert_eq!(tail[1..], pieces[3..]);
        assert_eq!(at.step(m, f), None);
    }

    #[test]
    fn align_rejects_mismatched_totals() {
        let mem = rl(&[(0, 5)]);
        let file = rl(&[(0, 6)]);
        assert!(align_lists(&mem, &file).is_err());
    }

    #[test]
    fn align_preserves_byte_correspondence() {
        let mem = rl(&[(5, 1), (0, 1), (9, 3)]);
        let file = rl(&[(40, 2), (80, 3)]);
        let pieces = align_lists(&mem, &file).unwrap();
        let total: u64 = pieces.iter().map(|(m, _)| m.len).sum();
        assert_eq!(total, 5);
        for (m, f) in &pieces {
            assert_eq!(m.len, f.len);
        }
    }

    #[test]
    fn display_formatting() {
        assert_eq!(Region::new(2, 3).to_string(), "[2, 5)");
        assert_eq!(rl(&[(0, 1), (4, 2)]).to_string(), "{[0, 1), [4, 6)}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_region() -> impl Strategy<Value = Region> {
        (0u64..10_000, 1u64..1_000).prop_map(|(o, l)| Region::new(o, l))
    }

    fn arb_list(max: usize) -> impl Strategy<Value = RegionList> {
        proptest::collection::vec(arb_region(), 1..max).prop_map(RegionList::from_regions_unchecked)
    }

    /// A sorted, disjoint list of 1–300 regions (some adjacent), so that
    /// it straddles index blocks, its order then broken at up to
    /// `breaks` places: two neighbours swapped, or one region moved past
    /// all the others (its end the list's furthest, in any block).
    fn arb_long_list(breaks: usize) -> impl Strategy<Value = RegionList> {
        let regions = proptest::collection::vec((0u64..50, 1u64..40), 1..300);
        let breaks = proptest::collection::vec((any::<usize>(), any::<bool>()), 0..=breaks);
        (regions, breaks).prop_map(|(gaps, breaks)| {
            let mut at = 0;
            let mut regions: Vec<Region> = gaps
                .into_iter()
                .map(|(gap, len)| {
                    let r = Region::new(at + gap, len);
                    at = r.end();
                    r
                })
                .collect();
            for (i, swap) in breaks {
                let (i, next) = (i % regions.len(), (i + 1) % regions.len());
                if swap {
                    regions.swap(i, next);
                } else {
                    regions[i].offset += at;
                }
            }
            RegionList::from_regions(regions).unwrap()
        })
    }

    /// `regions` as a sub-list of a longer list, between `before` and
    /// `after` unrelated regions: it starts and ends mid-block.
    fn cut_from_longer(regions: &[Region], before: usize, after: usize) -> RegionList {
        let junk = |k: usize| Region::new(3 * k as u64, 2);
        let longer: RegionList = (0..before)
            .map(junk)
            .chain(regions.iter().copied())
            .chain((0..after).map(junk))
            .collect();
        longer.slice(before..before + regions.len())
    }

    /// What the index answers…
    fn indexed(l: &RegionList) -> (u64, Option<Region>, bool) {
        (l.total_len(), l.extent(), l.is_sorted_disjoint())
    }

    /// …and what a plain scan of the regions says.
    fn scanned(l: &RegionList) -> (u64, Option<Region>, bool) {
        let r = l.regions();
        let lo = r.iter().map(|r| r.offset).min();
        let hi = r.iter().map(|r| r.end()).max();
        let extent = lo.zip(hi).map(|(lo, hi)| Region::new(lo, hi - lo));
        let sorted = r.windows(2).all(|w| w[0].end() <= w[1].offset);
        (r.iter().map(|r| r.len).sum(), extent, sorted)
    }

    proptest! {
        #[test]
        fn intersect_is_commutative(a in arb_region(), b in arb_region()) {
            prop_assert_eq!(a.intersect(b), b.intersect(a));
        }

        /// Construction at the top of the address space: `try_new`
        /// accepts exactly the pairs whose end fits in u64, and the
        /// geometric operations on accepted boundary regions never see
        /// a wrapped end.
        #[test]
        fn boundary_construction_is_overflow_safe(
            slack in 0u64..2_000,
            len in 0u64..2_000,
        ) {
            let offset = u64::MAX - slack;
            match Region::try_new(offset, len) {
                Some(r) => {
                    prop_assert!(len <= slack);
                    prop_assert_eq!(r.end(), offset + len);
                    prop_assert!(r.end() >= r.offset);
                    // A wrapped end would make the region "contain"
                    // low offsets; it must not.
                    if !r.is_empty() {
                        prop_assert!(!r.overlaps(Region::new(0, 1)));
                    }
                }
                None => prop_assert!(len > slack),
            }
        }

        #[test]
        fn intersect_is_contained(a in arb_region(), b in arb_region()) {
            if let Some(i) = a.intersect(b) {
                prop_assert!(a.contains(i));
                prop_assert!(b.contains(i));
            }
        }

        #[test]
        fn merge_covers_both(a in arb_region(), b in arb_region()) {
            if let Some(m) = a.try_merge(b) {
                prop_assert!(m.contains(a));
                prop_assert!(m.contains(b));
                prop_assert_eq!(m.len, a.end().max(b.end()) - a.offset.min(b.offset));
            }
        }

        #[test]
        fn coalesce_preserves_coverage(l in arb_list(32)) {
            let c = l.coalesced();
            prop_assert!(c.is_sorted_disjoint());
            // Every original byte is covered by the coalesced list.
            for r in l.iter() {
                for probe in [r.offset, r.offset + r.len / 2, r.end() - 1] {
                    prop_assert!(c.iter().any(|cr| cr.contains(Region::new(probe, 1))));
                }
            }
            // Coalesced total never exceeds the original (overlap removal).
            prop_assert!(c.total_len() <= l.total_len());
            prop_assert_eq!(c.extent(), l.extent());
        }

        #[test]
        fn coalesce_is_idempotent(l in arb_list(32)) {
            let c = l.coalesced();
            prop_assert_eq!(c.coalesced(), c);
        }

        #[test]
        fn chunks_partition_the_list(l in arb_list(64), k in 1usize..16) {
            let chunks: Vec<_> = l.chunks(k).collect();
            let rejoined: Vec<Region> =
                chunks.iter().flat_map(|c| c.regions().to_vec()).collect();
            prop_assert_eq!(rejoined, l.regions().to_vec());
            prop_assert!(chunks.iter().all(|c| c.count() <= k));
        }

        /// The indexed answers of a list, of a sub-list cut anywhere and
        /// of every chunk are a plain scan's.
        #[test]
        fn the_index_answers_as_a_scan_does(
            l in arb_long_list(2),
            cut in (any::<usize>(), any::<usize>()),
            k in 1usize..200,
        ) {
            prop_assert_eq!(indexed(&l), scanned(&l));
            let (a, b) = (cut.0 % (l.count() + 1), cut.1 % (l.count() + 1));
            let sub = l.slice(a.min(b)..a.max(b));
            prop_assert_eq!(indexed(&sub), scanned(&sub));
            for chunk in l.chunks(k) {
                prop_assert_eq!(indexed(&chunk), scanned(&chunk));
            }
        }

        /// A sole handle changed after it was indexed — pushed onto,
        /// cut to a sub-list that is then the last handle and pushed
        /// onto, cleared and refilled — answers for what it holds now.
        #[test]
        fn a_changed_sole_handle_is_indexed_afresh(
            l in arb_long_list(2),
            more in proptest::collection::vec(arb_region(), 1..100),
            cut in any::<usize>(),
        ) {
            let mut l = RegionList::from_regions_slice(l.regions());
            prop_assert_eq!(indexed(&l), scanned(&l));
            for r in &more {
                l.push(*r);
            }
            prop_assert_eq!(indexed(&l), scanned(&l));
            let mut tail = l.slice(cut % l.count()..l.count());
            drop(l);
            prop_assert_eq!(indexed(&tail), scanned(&tail));
            for r in &more {
                tail.push(*r);
            }
            prop_assert_eq!(indexed(&tail), scanned(&tail));
            tail.clear();
            prop_assert_eq!(indexed(&tail), scanned(&tail));
            for r in more.iter().cycle().take(200) {
                tail.push(*r);
            }
            prop_assert_eq!(indexed(&tail), scanned(&tail));
        }

        /// A map of two sub-lists, each cut mid-block from a longer list,
        /// walks as `align_lists` does and hands out its pieces' slices,
        /// for every file region and for its back half.
        #[test]
        fn a_map_of_sub_lists_slices_as_align_lists_does(
            file in arb_long_list(0),
            mem_len in 1u64..30,
            pad in (0usize..100, 0usize..100, 0usize..100, 0usize..100),
        ) {
            // The same bytes in memory, `mem_len` at a time, backwards.
            let total = file.total_len();
            let mem: Vec<Region> = (0..total.div_ceil(mem_len))
                .rev()
                .map(|k| Region::new(2 * k * mem_len, mem_len.min(total - k * mem_len)))
                .collect();
            let mem = cut_from_longer(&mem, pad.0, pad.1);
            let file = cut_from_longer(file.regions(), pad.2, pad.3);
            let map = PieceMap::new(&mem, &file).unwrap();
            let pieces = align_lists(&mem, &file).unwrap();
            prop_assert_eq!(&map.pieces().collect::<Vec<_>>(), &pieces);
            for r in file.iter() {
                for q in [*r, Region::new(r.offset + r.len / 2, r.len - r.len / 2)] {
                    let mut slices = Vec::new();
                    map.for_each_slice(q, |s| slices.push(s));
                    let first = pieces.partition_point(|(_, f)| f.end() <= q.offset);
                    let expected: Vec<Region> = pieces[first..]
                        .iter()
                        .map_while(|(m, f)| {
                            let o = f.intersect(q)?;
                            Some(Region::new(m.offset + (o.offset - f.offset), o.len))
                        })
                        .collect();
                    prop_assert_eq!(slices, expected);
                }
            }
        }

        #[test]
        fn align_pieces_tile_both_lists(
            mem_lens in proptest::collection::vec(1u64..64, 1..10),
        ) {
            // Build a memory list and a file list over the same byte total
            // but with different fragmentations.
            let total: u64 = mem_lens.iter().sum();
            let mut mem = RegionList::new();
            let mut off = 0;
            for l in &mem_lens {
                mem.push(Region::new(off, *l));
                off += l + 7; // arbitrary gap
            }
            // File list: split the same total into 5-byte pieces.
            let mut file = RegionList::new();
            let mut rem = total;
            let mut foff = 1000;
            while rem > 0 {
                let l = rem.min(5);
                file.push(Region::new(foff, l));
                foff += l + 3;
                rem -= l;
            }
            let pieces = align_lists(&mem, &file).unwrap();
            let piece_total: u64 = pieces.iter().map(|(m, _)| m.len).sum();
            prop_assert_eq!(piece_total, total);
            for (m, f) in &pieces {
                prop_assert_eq!(m.len, f.len);
                prop_assert!(mem.iter().any(|r| r.contains(*m)));
                prop_assert!(file.iter().any(|r| r.contains(*f)));
            }
        }
    }
}
