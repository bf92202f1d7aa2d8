//! Small helpers shared by the planners.

use pvfs_proto::MAX_BULK_BYTES;
use pvfs_types::{Region, RegionList, ServerId, StripeLayout};

/// The distinct servers a set of regions touches: one mark per stripe
/// slot, iterated in slot order. Layouts of up to 64 servers — every one
/// the planners meet in practice — keep their marks inline (a clone
/// allocates nothing); only wider ones spill to the heap.
#[derive(Debug, Clone, PartialEq)]
pub struct Servers {
    layout: StripeLayout,
    /// Marks of slots `at..at + 64`.
    first: u64,
    /// Marks of the slots after those, 64 to a word; empty for narrower
    /// layouts.
    rest: Vec<u64>,
    /// The slot of `first`'s lowest bit: 0 until iteration moves on.
    at: u32,
}

impl Servers {
    pub(crate) fn none(layout: &StripeLayout) -> Servers {
        Servers {
            layout: *layout,
            first: 0,
            rest: vec![0; (layout.pcount as usize).saturating_sub(1) / 64],
            at: 0,
        }
    }

    fn word(&mut self, slot: usize) -> &mut u64 {
        match slot / 64 {
            0 => &mut self.first,
            w => &mut self.rest[w - 1],
        }
    }

    /// Mark `slot`; whether it was unmarked before.
    pub(crate) fn mark(&mut self, slot: usize) -> bool {
        let bit = 1u64 << (slot % 64);
        let word = self.word(slot);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    pub(crate) fn all(layout: &StripeLayout) -> Servers {
        let mut servers = Servers::none(layout);
        for slot in 0..layout.pcount as usize {
            servers.mark(slot);
        }
        servers
    }

    /// How many servers are touched (still to come, once iterating).
    pub fn len(&self) -> usize {
        let ones = |w: &u64| w.count_ones() as usize;
        ones(&self.first) + self.rest.iter().map(ones).sum::<usize>()
    }

    /// True iff no server is touched.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The touched servers by value, in slot order.
impl Iterator for Servers {
    type Item = ServerId;

    fn next(&mut self) -> Option<ServerId> {
        while self.first == 0 && !self.rest.is_empty() {
            self.first = self.rest.remove(0);
            self.at += 64;
        }
        let bit = (self.first != 0).then(|| self.first.trailing_zeros())?;
        self.first &= self.first - 1;
        Some(self.layout.server_at_slot(self.at + bit))
    }
}

/// The distinct servers touched by a set of regions ([`Servers`]). One
/// mark per slot, so cost is O(regions + pcount) regardless of how many
/// stripes each region spans.
pub fn servers_for<I: IntoIterator<Item = Region>>(layout: &StripeLayout, regions: I) -> Servers {
    let pcount = layout.pcount as usize;
    let mut servers = Servers::none(layout);
    let mut found = 0usize;
    for r in regions {
        if r.is_empty() {
            continue;
        }
        let first = layout.stripe_index(r.offset);
        let last = layout.stripe_index(r.end() - 1);
        let stripes = last - first + 1;
        if stripes >= pcount as u64 {
            // Touches everything.
            return Servers::all(layout);
        }
        for g in first..=last {
            if servers.mark((g % layout.pcount as u64) as usize) {
                found += 1;
                if found == pcount {
                    return servers;
                }
            }
        }
    }
    servers
}

/// The most bytes of `region` any one server holds. Any `pcount × ssize`
/// bytes in a row put `ssize` on each server; of the fewer left over,
/// one server holds the head up to its stripe's end and the next the
/// rest (or a whole stripe, when the rest is longer) — with one server,
/// that one holds them all.
fn largest_share(layout: &StripeLayout, region: Region) -> u64 {
    let ssize = layout.ssize;
    let period = u64::from(layout.pcount) * ssize;
    let left = region.len % period;
    let head = left.min(ssize - region.offset % ssize);
    let most = match layout.pcount {
        1 => left,
        _ => head.max((left - head).min(ssize)),
    };
    region.len / period * ssize + most
}

/// `region` in the fewest near-equal pieces (a byte apart at most) that
/// each carry at most `cap` bytes to any one server — whole when it does.
/// Any `pcount × ssize` bytes in a row put `ssize` on each server and
/// fewer at most `ssize` on one, so `cap / ssize` such periods and
/// `cap % ssize` bytes more keep to the cap wherever they start.
pub fn bulk_pieces(layout: &StripeLayout, region: Region, cap: usize) -> Cuts {
    let (cap, ssize) = (cap as u64, layout.ssize);
    let longest = cap / ssize * u64::from(layout.pcount) * ssize + cap % ssize;
    let count = match largest_share(layout, region) <= cap {
        true => 1,
        false => region.len.div_ceil(longest),
    };
    let mut cuts = Cuts::new(region, region.len / count);
    cuts.longer = region.len % count;
    cuts
}

/// A list's chunks of at most `max` regions that each put at most one
/// frame's bulk ([`MAX_BULK_BYTES`]) on any one server: a chunk closes
/// before a region that would put more, and a region that does so alone
/// goes by itself, in its [`bulk_pieces`] at that cap. A chunk under the
/// cap in all sums no server's share.
#[derive(Debug, Clone)]
pub struct CappedChunks {
    /// What no chunk has taken yet.
    rest: RegionList,
    max: usize,
    layout: StripeLayout,
    /// The pieces of a region too large for one frame, still to go.
    pieces: Cuts,
}

impl CappedChunks {
    /// `list`'s chunks of at most `max` regions, over `layout`.
    pub fn new(list: &RegionList, max: usize, layout: StripeLayout) -> CappedChunks {
        CappedChunks {
            rest: list.clone(),
            max,
            layout,
            pieces: Cuts::new(Region::new(0, 0), 1),
        }
    }
}

impl Iterator for CappedChunks {
    type Item = RegionList;

    fn next(&mut self) -> Option<RegionList> {
        const CAP: usize = MAX_BULK_BYTES;
        if let Some(piece) = self.pieces.next() {
            return Some(RegionList::contiguous(piece.offset, piece.len));
        }
        let (count, layout) = (self.rest.count(), &self.layout);
        let chunk = self.rest.slice(0..self.max.min(count));
        let over = chunk.total_len() > CAP as u64;
        let mut sums = vec![0; if over { layout.pcount as usize } else { 0 }];
        let fits = |r: &&Region| {
            for (sum, slot) in sums.iter_mut().zip(0..) {
                *sum += layout.bytes_on_slot(**r, slot);
            }
            sums.iter().all(|&sum| sum <= CAP as u64)
        };
        let fit = chunk.iter().take_while(fits).count();
        if fit == 0 && count > 0 {
            self.pieces = bulk_pieces(layout, chunk.regions()[0], CAP);
            self.rest = self.rest.slice(1..count);
            return self.next();
        }
        self.rest = self.rest.slice(fit..count);
        (fit > 0).then(|| chunk.slice(0..fit))
    }
}

/// A region cut front to back into pieces: of `len` bytes, the first
/// `longer` of them a byte longer, the last one shorter — a piece's bulk
/// pieces, or data sieving's windows over an extent.
#[derive(Debug, Clone)]
pub struct Cuts {
    /// What no piece has taken yet.
    rest: Region,
    len: u64,
    longer: u64,
}

impl Cuts {
    /// `region` in pieces of `len` bytes.
    pub(crate) fn new(region: Region, len: u64) -> Cuts {
        Cuts {
            rest: region,
            len,
            longer: 0,
        }
    }
}

impl Iterator for Cuts {
    type Item = Region;

    fn next(&mut self) -> Option<Region> {
        let len = (self.len + u64::from(self.longer > 0)).min(self.rest.len);
        let piece = (len > 0).then(|| Region::new(self.rest.offset, len))?;
        self.longer = self.longer.saturating_sub(1);
        self.rest = Region::new(piece.end(), self.rest.len - len);
        Some(piece)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvfs_proto::BULK_PIECE;

    fn layout() -> StripeLayout {
        StripeLayout::new(0, 4, 10).unwrap()
    }

    /// A region touches exactly the slots that hold a byte of it: none
    /// for an empty one, all of them once it spans `pcount` stripes, and
    /// a set that wraps past the last slot in slot order.
    #[test]
    fn servers_for_is_the_slots_holding_bytes() {
        let l = layout();
        for (off, len) in [(0u64, 5u64), (5, 10), (0, 40), (0, 0), (30, 20), (95, 3)] {
            let r = Region::new(off, len);
            let holding = (0..l.pcount).filter(|&slot| l.bytes_on_slot(r, slot) > 0);
            assert_eq!(
                servers_for(&l, [r]).collect::<Vec<_>>(),
                holding
                    .map(|slot| l.server_at_slot(slot))
                    .collect::<Vec<_>>(),
                "region {r}"
            );
        }
        let wrapping = servers_for(&l, [Region::new(30, 20)]);
        assert_eq!(wrapping.collect::<Vec<_>>(), [ServerId(0), ServerId(3)]);
    }

    #[test]
    fn servers_for_unions_regions() {
        let l = layout();
        let regions = [Region::new(0, 5), Region::new(30, 5)]; // slots 0 and 3
        assert_eq!(
            servers_for(&l, regions).collect::<Vec<_>>(),
            [ServerId(0), ServerId(3)]
        );
    }

    #[test]
    fn servers_for_big_region_short_circuits() {
        let l = layout();
        assert_eq!(servers_for(&l, [Region::new(0, 1000)]).len(), 4);
    }

    fn share(l: &StripeLayout, r: Region, s: ServerId) -> u64 {
        l.segments(r)
            .filter(|g| g.server == s)
            .map(|g| g.logical.len)
            .sum()
    }

    /// The largest share is exact, not a bound: every start and length
    /// over a few periods, on one, two and four servers.
    #[test]
    fn largest_share_is_the_largest_servers_share() {
        for pcount in [1, 2, 4] {
            let l = StripeLayout::new(0, pcount, 10).unwrap();
            for offset in 0..45 {
                for len in 0..90 {
                    let r = Region::new(offset, len);
                    let most = (0..pcount).map(|s| share(&l, r, ServerId(s))).max();
                    assert_eq!(Some(largest_share(&l, r)), most, "{pcount} × 10: {r}");
                }
            }
        }
    }

    /// A region carrying more than a piece's bulk to a server is cut into
    /// the fewest near-equal pieces that do not, and none that does not
    /// is cut at all.
    #[test]
    fn bulk_pieces_hold_every_server_to_the_cap() {
        let cap = BULK_PIECE as u64;
        let layouts = [
            (1, 64 << 10),
            (4, 64 << 10),
            (4, 16 << 10),
            (3, 100 << 10),
            (2, 3 << 20),
            (3, 100 << 20),
        ];
        for (pcount, ssize) in layouts {
            let l = StripeLayout::new(0, pcount, ssize).unwrap();
            let period = u64::from(pcount) * ssize;
            for (offset, len) in [
                (0, cap),
                (0, cap + 4096),
                (0, u64::from(pcount) * cap),
                (0, u64::from(pcount) * cap + 1),
                (12345, 5 * cap + 7),
                (ssize - 1, 3 * cap),
                (ssize / 2, 2 * period + cap),
                // Across a boundary, the cap on each side: whole where a
                // stripe holds the cap.
                (2 * ssize.max(cap) - cap, 2 * cap),
                (7, 64 << 20),
            ] {
                let region = Region::new(offset, len);
                let pieces: Vec<_> = bulk_pieces(&l, region, BULK_PIECE).collect();
                assert_eq!(pieces.iter().map(|p| p.len).sum::<u64>(), len);
                assert_eq!(
                    (pieces[0].offset, pieces.last().unwrap().end()),
                    (offset, offset + len)
                );
                for (p, q) in pieces.iter().zip(&pieces[1..]) {
                    assert_eq!(p.end(), q.offset);
                }
                let most = (0..pcount).map(|s| share(&l, region, ServerId(s))).max();
                let (most, n) = (most.unwrap(), pieces.len() as u64);
                assert_eq!(n == 1, most <= cap, "{pcount} × {ssize}: {region}");
                for p in &pieces {
                    assert!(
                        (0..pcount).all(|s| share(&l, *p, ServerId(s)) <= cap),
                        "{p}"
                    );
                }
                // The fewest: where the stripe divides the cap (or one
                // server holds it all), n − 1 pieces could not hold the
                // busiest server's share.
                if cap.is_multiple_of(ssize) || pcount == 1 {
                    assert!(most > (n - 1) * cap, "{pcount} × {ssize}: {region}");
                }
                // Near-equal: a byte apart at most.
                let lens = pieces.iter().map(|p| p.len);
                let spread = lens.clone().max().unwrap() - lens.min().unwrap();
                assert!(spread <= 1, "{pcount} × {ssize}: {region}");
            }
        }
    }

    /// A list's chunks each put at most one frame's bulk on a server: one
    /// closes early before a region that would put more, and a region
    /// that puts more on its own goes alone, in its bulk pieces at that
    /// cap. Under the cap they are the list's plain chunks: sub-lists of
    /// `max` regions in a row, the last one fewer, together the whole list.
    #[test]
    fn capped_chunks_hold_every_server_to_one_frame() {
        const MIB: u64 = 1 << 20;
        let l = StripeLayout::new(0, 2, MIB).unwrap();
        let list = RegionList::from_pairs([
            (0, 80 * MIB),          // 40 MiB on each server,
            (80 * MIB, 40 * MIB),   // 60 MiB,
            (120 * MIB, 10 * MIB),  // 65 MiB: a chunk of its own,
            (200 * MIB, 200 * MIB), // 100 MiB alone: two pieces.
            (400 * MIB, MIB),
            (402 * MIB, MIB),
            (404 * MIB, MIB),
        ])
        .unwrap();
        let chunks: Vec<_> = CappedChunks::new(&list, 64, l).collect();
        let piece = |offset| RegionList::contiguous(offset * MIB, 100 * MIB);
        assert_eq!(
            chunks,
            [
                list.slice(0..2),
                list.slice(2..3),
                piece(200),
                piece(300),
                list.slice(4..7)
            ]
        );
        for chunk in &chunks {
            for s in 0..2 {
                let on = chunk.iter().map(|r| share(&l, *r, ServerId(s)));
                assert!(on.sum::<u64>() <= MAX_BULK_BYTES as u64, "{chunk:?}");
            }
        }
        let small: RegionList = (0..20).map(|i| Region::new(3 * i, 2)).collect();
        for max in 1..=21 {
            let chunks: Vec<_> = CappedChunks::new(&small, max, l).collect();
            assert_eq!(chunks.len(), 20usize.div_ceil(max));
            for (chunk, at) in chunks.iter().zip((0..20).step_by(max)) {
                // A sub-list of the list's own storage, not a copy.
                assert_eq!(chunk.regions(), &small.regions()[at..(at + max).min(20)]);
                assert!(std::ptr::eq(chunk.regions().as_ptr(), &small.regions()[at]));
            }
        }
    }

    /// Beyond 64 slots the marks spill past the inline word; the set
    /// still reads in slot order.
    #[test]
    fn servers_for_a_layout_wider_than_one_word() {
        let l = StripeLayout::new(3, 130, 10).unwrap();
        // Stripes 129, 64, 0 and 65: slots in no particular order.
        let regions = [1290u64, 640, 0, 650].map(|off| Region::new(off, 5));
        let servers = servers_for(&l, regions);
        assert_eq!(servers.len(), 4);
        let slots = [0u32, 64, 65, 129];
        assert_eq!(
            servers.collect::<Vec<_>>(),
            slots.map(|s| l.server_at_slot(s))
        );
        assert_eq!(servers_for(&l, [Region::new(0, 1300)]).len(), 130);
        assert!(servers_for(&l, [Region::new(7, 0)]).is_empty());
    }
}
