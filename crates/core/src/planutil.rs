//! Small helpers shared by the planners.

use pvfs_proto::MAX_BULK_BYTES;
use pvfs_types::{Region, ServerId, StripeLayout};

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

/// `region` in pieces that each carry at most [`MAX_BULK_BYTES`] to any
/// one server — whole when it does. Any `pcount × ssize` bytes in a row
/// put `ssize` on each server and fewer at most `ssize` on one, so pieces
/// of `cap / ssize` such periods (or of the cap, when a stripe is wider)
/// keep to the cap wherever they start.
pub fn bulk_pieces(layout: &StripeLayout, region: Region) -> Cuts {
    let (cap, ssize) = (MAX_BULK_BYTES as u64, layout.ssize);
    let period = u64::from(layout.pcount) * ssize;
    let len = match (largest_share(layout, region) <= cap, ssize <= cap) {
        (true, _) => region.len,
        (false, true) => cap / ssize * period,
        (false, false) => cap,
    };
    Cuts::new(region, len)
}

/// A region cut front to back into pieces of `len` bytes, the last one
/// shorter: a piece's bulk pieces, or data sieving's windows over an
/// extent.
#[derive(Debug, Clone)]
pub struct Cuts {
    /// What no piece has taken yet.
    rest: Region,
    len: u64,
}

impl Cuts {
    /// `region` in pieces of `len` bytes.
    pub(crate) fn new(region: Region, len: u64) -> Cuts {
        Cuts { rest: region, len }
    }
}

impl Iterator for Cuts {
    type Item = Region;

    fn next(&mut self) -> Option<Region> {
        let len = self.len.min(self.rest.len);
        let piece = (len > 0).then(|| Region::new(self.rest.offset, len))?;
        self.rest = Region::new(piece.end(), self.rest.len - len);
        Some(piece)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> StripeLayout {
        StripeLayout::new(0, 4, 10).unwrap()
    }

    #[test]
    fn servers_for_matches_servers_touched() {
        let l = layout();
        for (off, len) in [(0u64, 5u64), (5, 10), (0, 40), (30, 20), (95, 3)] {
            let r = Region::new(off, len);
            assert_eq!(
                servers_for(&l, [r]).collect::<Vec<_>>(),
                l.servers_touched(r),
                "region {r}"
            );
        }
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

    /// A region carrying more than one frame's bulk to a server is cut
    /// into pieces that do not, and none that does not is cut at all.
    #[test]
    fn bulk_pieces_hold_every_server_to_the_cap() {
        let cap = MAX_BULK_BYTES as u64;
        let layouts = [
            (1, 64 << 10),
            (4, 64 << 10),
            (3, 100 << 20),
            (2, 3 << 20),
            (2, 5 << 20),
        ];
        for (pcount, ssize) in layouts {
            let l = StripeLayout::new(0, pcount, ssize).unwrap();
            for (offset, len) in [
                (0, cap),
                (0, cap + 4096),
                (12345, 5 * cap + 7),
                (ssize - 1, 3 * cap),
                // Mid-stripe, the bytes past whole periods split across
                // two servers: on 2 × 5 MiB the largest share is
                // 62.5 MiB, under the cap.
                (5 << 19, 125 << 20),
                (ssize / 2, 2 * cap),
            ] {
                let region = Region::new(offset, len);
                let pieces: Vec<_> = bulk_pieces(&l, region).collect();
                assert_eq!(pieces.iter().map(|p| p.len).sum::<u64>(), len);
                assert_eq!(
                    (pieces[0].offset, pieces.last().unwrap().end()),
                    (offset, offset + len)
                );
                for (p, q) in pieces.iter().zip(&pieces[1..]) {
                    assert_eq!(p.end(), q.offset);
                }
                let fits = (0..pcount).all(|s| share(&l, region, ServerId(s)) <= cap);
                assert_eq!(pieces.len() == 1, fits, "{pcount} × {ssize}: {region}");
                for p in &pieces {
                    assert!(
                        (0..pcount).all(|s| share(&l, *p, ServerId(s)) <= cap),
                        "{p}"
                    );
                }
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
