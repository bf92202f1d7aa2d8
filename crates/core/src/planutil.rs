//! Small helpers shared by the planners.

use pvfs_types::{Region, ServerId, StripeLayout};

/// The distinct servers a set of regions touches: one mark per stripe
/// slot, iterated in slot order. Layouts of up to 64 servers — every one
/// the planners meet in practice — keep their marks inline; only wider
/// ones spill to the heap.
#[derive(Debug, Clone)]
pub struct Servers {
    layout: StripeLayout,
    /// Marks of slots 0..64.
    first: u64,
    /// Marks of slots 64.., 64 to a word; empty for narrower layouts.
    rest: Vec<u64>,
}

impl Servers {
    fn none(layout: &StripeLayout) -> Servers {
        Servers {
            layout: *layout,
            first: 0,
            rest: vec![0; (layout.pcount as usize).saturating_sub(1) / 64],
        }
    }

    fn word(&mut self, slot: usize) -> &mut u64 {
        match slot / 64 {
            0 => &mut self.first,
            w => &mut self.rest[w - 1],
        }
    }

    /// Mark `slot`; whether it was unmarked before.
    fn mark(&mut self, slot: usize) -> bool {
        let bit = 1u64 << (slot % 64);
        let word = self.word(slot);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    fn all(layout: &StripeLayout) -> Servers {
        let mut servers = Servers::none(layout);
        for slot in 0..layout.pcount as usize {
            servers.mark(slot);
        }
        servers
    }

    /// How many servers are touched.
    pub fn len(&self) -> usize {
        let ones = |w: &u64| w.count_ones() as usize;
        ones(&self.first) + self.rest.iter().map(ones).sum::<usize>()
    }

    /// True iff no server is touched.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The touched servers, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = ServerId> + '_ {
        let words = std::iter::once(self.first).chain(self.rest.iter().copied());
        words.enumerate().flat_map(move |(w, mut marks)| {
            std::iter::from_fn(move || {
                let bit = (marks != 0).then(|| marks.trailing_zeros())?;
                marks &= marks - 1;
                Some(self.layout.server_at_slot(w as u32 * 64 + bit))
            })
        })
    }
}

impl PartialEq<Vec<ServerId>> for Servers {
    fn eq(&self, other: &Vec<ServerId>) -> bool {
        self.iter().eq(other.iter().copied())
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
            assert_eq!(servers_for(&l, [r]), l.servers_touched(r), "region {r}");
        }
    }

    #[test]
    fn servers_for_unions_regions() {
        let l = layout();
        let regions = [Region::new(0, 5), Region::new(30, 5)]; // slots 0 and 3
        assert_eq!(servers_for(&l, regions), vec![ServerId(0), ServerId(3)]);
    }

    #[test]
    fn servers_for_big_region_short_circuits() {
        let l = layout();
        assert_eq!(servers_for(&l, [Region::new(0, 1000)]).len(), 4);
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
        assert_eq!(servers, slots.map(|s| l.server_at_slot(s)).to_vec());
        assert_eq!(servers_for(&l, [Region::new(0, 1300)]).len(), 130);
        assert!(servers_for(&l, [Region::new(7, 0)]).is_empty());
    }
}
