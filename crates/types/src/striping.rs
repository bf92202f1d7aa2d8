//! PVFS user-controlled file striping.
//!
//! PVFS stripes each file round-robin across a user-chosen set of I/O
//! servers (Fig. 2 of the paper): the user picks the *base* I/O node, the
//! number of I/O nodes (*pcount*) and the *stripe size* (*ssize*,
//! default 16 384 bytes in the paper's experiments). This module is the
//! single source of truth for the logical-offset ⇄ (server, local offset)
//! mapping used by both the client library (to route requests) and the
//! I/O daemons (to locate bytes inside their local files).
//!
//! Each I/O daemon stores the stripes it owns *contiguously* in its local
//! file, in stripe order — the same trick the real PVFS iod uses so that
//! a large contiguous logical access becomes a large contiguous local
//! access.

use crate::error::{PvfsError, PvfsResult};
use crate::ids::ServerId;
use crate::region::Region;

/// The paper's default stripe size: 16 KiB.
pub const DEFAULT_STRIPE_SIZE: u64 = 16 * 1024;

/// Striping parameters for one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StripeLayout {
    /// First I/O server holding stripe 0.
    pub base: u32,
    /// Number of I/O servers the file is striped across.
    pub pcount: u32,
    /// Bytes per stripe unit.
    pub ssize: u64,
}

impl StripeLayout {
    /// Create a layout, validating the parameters.
    pub fn new(base: u32, pcount: u32, ssize: u64) -> PvfsResult<StripeLayout> {
        let l = StripeLayout {
            base,
            pcount,
            ssize,
        };
        l.validate()?;
        Ok(l)
    }

    /// The paper's configuration: 8 I/O servers starting at node 0,
    /// 16 KiB stripes.
    pub fn paper_default(pcount: u32) -> StripeLayout {
        StripeLayout {
            base: 0,
            pcount,
            ssize: DEFAULT_STRIPE_SIZE,
        }
    }

    /// Check structural validity (nonzero pcount and stripe size).
    pub fn validate(&self) -> PvfsResult<()> {
        if self.pcount == 0 {
            return Err(PvfsError::invalid("stripe pcount must be nonzero"));
        }
        if self.ssize == 0 {
            return Err(PvfsError::invalid("stripe size must be nonzero"));
        }
        Ok(())
    }

    /// Index of the stripe unit containing `offset`.
    #[inline]
    pub fn stripe_index(&self, offset: u64) -> u64 {
        offset / self.ssize
    }

    /// Which *slot* (0..pcount) owns the stripe containing `offset`.
    #[inline]
    pub fn slot_of(&self, offset: u64) -> u32 {
        (self.stripe_index(offset) % self.pcount as u64) as u32
    }

    /// Which server owns the byte at `offset`.
    ///
    /// Wrapping: replica-rewritten layouts (see `pvfs-replica`) encode a
    /// mirror's placement as `base = mirror_server - slot` in wrapping
    /// u32 arithmetic, so `base + slot` must wrap back rather than
    /// overflow. Slot arithmetic and local offsets are unaffected.
    #[inline]
    pub fn server_of(&self, offset: u64) -> ServerId {
        ServerId(self.base.wrapping_add(self.slot_of(offset)))
    }

    /// The server occupying `slot` (wrapping; see [`server_of`](Self::server_of)).
    #[inline]
    pub fn server_at_slot(&self, slot: u32) -> ServerId {
        debug_assert!(slot < self.pcount);
        ServerId(self.base.wrapping_add(slot))
    }

    /// The slot `server` occupies, if it occupies one — the inverse of
    /// [`server_at_slot`](Self::server_at_slot), wrapping like it.
    #[inline]
    pub fn slot_of_server(&self, server: ServerId) -> Option<u32> {
        let slot = server.0.wrapping_sub(self.base);
        (slot < self.pcount).then_some(slot)
    }

    /// Map a logical offset to `(server, local offset)`.
    ///
    /// Stripes owned by a slot are packed contiguously in local-file
    /// order: local stripe `k` of a slot is global stripe
    /// `k * pcount + slot`.
    pub fn to_local(&self, offset: u64) -> (ServerId, u64) {
        let g = self.stripe_index(offset);
        let slot = (g % self.pcount as u64) as u32;
        let local_stripe = g / self.pcount as u64;
        let within = offset % self.ssize;
        (
            self.server_at_slot(slot),
            local_stripe * self.ssize + within,
        )
    }

    /// Inverse of [`to_local`](Self::to_local): map `(slot, local
    /// offset)` back to the logical file offset.
    pub fn to_logical(&self, slot: u32, local_offset: u64) -> u64 {
        let local_stripe = local_offset / self.ssize;
        let within = local_offset % self.ssize;
        let g = local_stripe * self.pcount as u64 + slot as u64;
        g * self.ssize + within
    }

    /// Decompose a logical region into stripe-aligned segments, each
    /// entirely owned by one server. Segments come out in logical-offset
    /// order.
    pub fn segments(&self, region: Region) -> SegmentIter {
        SegmentIter {
            layout: *self,
            cursor: region.offset,
            end: region.end(),
            step: 1,
        }
    }

    /// The [`segments`](Self::segments) of `region` that `slot` owns, in
    /// logical order: the walk steps from one of the slot's stripes
    /// straight to its next, so it costs the stripes the slot holds, not
    /// every stripe the region spans. A slot outside the layout holds
    /// nothing.
    pub fn segments_on(&self, region: Region, slot: u32) -> SegmentIter {
        let (p, first) = (u64::from(self.pcount), self.stripe_index(region.offset));
        // The slot's first stripe at or after the region's first one.
        let g = first.checked_add((u64::from(slot) + p - first % p) % p);
        let start = g.and_then(|g| g.checked_mul(self.ssize));
        let cursor = start.filter(|_| slot < self.pcount);
        SegmentIter {
            layout: *self,
            cursor: cursor.map_or(region.end(), |at| at.max(region.offset)),
            end: region.end(),
            step: p,
        }
    }

    /// Bytes of `region` stored on `slot`, in O(1) whatever the region's
    /// stripe count: every `pcount × ssize` bytes from offset 0 put
    /// `ssize` on each slot, so the bytes below an offset `x` that `slot`
    /// holds are `ssize` per whole period plus what of `slot`'s stripe the
    /// rest reaches; the region's share is that at its end less that at
    /// its start.
    pub fn bytes_on_slot(&self, region: Region, slot: u32) -> u64 {
        if slot >= self.pcount {
            return 0;
        }
        let (ssize, start) = (
            u128::from(self.ssize),
            u128::from(slot) * u128::from(self.ssize),
        );
        let period = u128::from(self.pcount) * ssize;
        let below = |x: u64| {
            let x = u128::from(x);
            x / period * ssize + (x % period).saturating_sub(start).min(ssize)
        };
        (below(region.end()) - below(region.offset)) as u64
    }
}

impl Default for StripeLayout {
    fn default() -> Self {
        StripeLayout::paper_default(8)
    }
}

/// One stripe-aligned piece of a logical region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeSegment {
    /// Slot (0..pcount) owning this piece.
    pub slot: u32,
    /// Server owning this piece.
    pub server: ServerId,
    /// The logical bytes covered.
    pub logical: Region,
    /// Offset of those bytes inside the server's local file.
    pub local_offset: u64,
}

/// Iterator over [`StripeSegment`]s of a region. See
/// [`StripeLayout::segments`] and [`StripeLayout::segments_on`].
pub struct SegmentIter {
    layout: StripeLayout,
    cursor: u64,
    end: u64,
    /// Stripes from one segment's to the next's: 1, or `pcount` for one
    /// slot's.
    step: u64,
}

impl Iterator for SegmentIter {
    type Item = StripeSegment;

    fn next(&mut self) -> Option<StripeSegment> {
        if self.cursor >= self.end {
            return None;
        }
        let l = &self.layout;
        let g = l.stripe_index(self.cursor);
        // The last stripe of the offset space ends past `u64::MAX`.
        let stripe_end = (g + 1).checked_mul(l.ssize);
        let seg_end = stripe_end.map_or(self.end, |end| end.min(self.end));
        let logical = Region::new(self.cursor, seg_end - self.cursor);
        let (server, local_offset) = l.to_local(self.cursor);
        let slot = l.slot_of(self.cursor);
        let next = g
            .checked_add(self.step)
            .and_then(|n| n.checked_mul(l.ssize));
        self.cursor = next.unwrap_or(self.end);
        Some(StripeSegment {
            slot,
            server,
            logical,
            local_offset,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(pcount: u32, ssize: u64) -> StripeLayout {
        StripeLayout::new(0, pcount, ssize).unwrap()
    }

    #[test]
    fn validation_rejects_degenerate_layouts() {
        assert!(StripeLayout::new(0, 0, 16).is_err());
        assert!(StripeLayout::new(0, 4, 0).is_err());
        assert!(StripeLayout::new(3, 4, 16).is_ok());
    }

    #[test]
    fn paper_default_matches_section_4_1() {
        let l = StripeLayout::paper_default(8);
        assert_eq!(l.pcount, 8);
        assert_eq!(l.ssize, 16 * 1024);
        assert_eq!(l.base, 0);
    }

    #[test]
    fn round_robin_server_assignment() {
        let l = layout(4, 10);
        assert_eq!(l.server_of(0), ServerId(0));
        assert_eq!(l.server_of(9), ServerId(0));
        assert_eq!(l.server_of(10), ServerId(1));
        assert_eq!(l.server_of(39), ServerId(3));
        assert_eq!(l.server_of(40), ServerId(0)); // wraps
    }

    #[test]
    fn base_offsets_server_ids() {
        let l = StripeLayout::new(2, 3, 8).unwrap();
        assert_eq!(l.server_of(0), ServerId(2));
        assert_eq!(l.server_of(8), ServerId(3));
        assert_eq!(l.server_of(16), ServerId(4));
        assert_eq!(l.server_of(24), ServerId(2));
    }

    #[test]
    fn local_offsets_pack_stripes_contiguously() {
        let l = layout(4, 10);
        // Global stripe 0 -> slot 0 local stripe 0.
        assert_eq!(l.to_local(0), (ServerId(0), 0));
        assert_eq!(l.to_local(5), (ServerId(0), 5));
        // Global stripe 4 -> slot 0 local stripe 1 => local offset 10.
        assert_eq!(l.to_local(40), (ServerId(0), 10));
        assert_eq!(l.to_local(47), (ServerId(0), 17));
        // Global stripe 5 -> slot 1 local stripe 1.
        assert_eq!(l.to_local(50), (ServerId(1), 10));
    }

    #[test]
    fn to_logical_inverts_to_local() {
        let l = layout(8, 16384);
        for off in [
            0u64,
            1,
            16383,
            16384,
            131071,
            131072,
            1_000_000,
            123_456_789,
        ] {
            let (server, local) = l.to_local(off);
            let slot = server.0 - l.base;
            assert_eq!(l.to_logical(slot, local), off, "offset {off}");
        }
    }

    #[test]
    fn segments_tile_a_region() {
        let l = layout(3, 10);
        let segs: Vec<_> = l.segments(Region::new(5, 30)).collect();
        assert_eq!(segs.len(), 4); // [5,10) [10,20) [20,30) [30,35)
        assert_eq!(segs[0].logical, Region::new(5, 5));
        assert_eq!(segs[0].server, ServerId(0));
        assert_eq!(segs[1].logical, Region::new(10, 10));
        assert_eq!(segs[1].server, ServerId(1));
        assert_eq!(segs[3].logical, Region::new(30, 5));
        assert_eq!(segs[3].server, ServerId(0));
        let total: u64 = segs.iter().map(|s| s.logical.len).sum();
        assert_eq!(total, 30);
    }

    #[test]
    fn segments_of_empty_region() {
        let l = layout(3, 10);
        assert_eq!(l.segments(Region::new(5, 0)).count(), 0);
    }

    #[test]
    fn bytes_on_slot_sums_to_region_len() {
        let l = layout(4, 10);
        let r = Region::new(3, 97);
        let total: u64 = (0..4).map(|s| l.bytes_on_slot(r, s)).sum();
        assert_eq!(total, 97);
        assert_eq!(l.bytes_on_slot(Region::new(0, 10), 0), 10);
        assert_eq!(l.bytes_on_slot(Region::new(0, 10), 1), 0);
        // Closed form: a region of 2^60 stripes, and one ending at the
        // top of the offset space, cost no more than a short one.
        let l = layout(4, 1 << 20);
        assert_eq!(l.bytes_on_slot(Region::new(5, 1 << 62), 1), 1 << 60);
        let top = Region::new(u64::MAX - (4 << 20), 4 << 20);
        let total: u64 = (0..4).map(|s| l.bytes_on_slot(top, s)).sum();
        assert_eq!(total, 4 << 20);
        assert_eq!(l.bytes_on_slot(top, 3), 1 << 20);
    }

    /// A region in the stripe that ends past `u64::MAX` is cut like any
    /// other: the segments end at the region's end, not at a wrapped
    /// stripe end.
    #[test]
    fn segments_reach_the_top_of_the_offset_space() {
        for l in [layout(4, 16384), layout(3, 7)] {
            let r = Region::new(u64::MAX - 100, 100);
            let segs: Vec<_> = l.segments(r).collect();
            assert_eq!(segs.last().unwrap().logical.end(), u64::MAX);
            assert_eq!(segs.iter().map(|s| s.logical.len).sum::<u64>(), 100);
            for s in &segs {
                assert_eq!(l.bytes_on_slot(s.logical, s.slot), s.logical.len);
            }
        }
    }

    #[test]
    fn wrapped_base_keeps_slot_math_intact() {
        // A replica-rewritten layout addressing mirror server 2 for
        // slot 3 carries base = 2 - 3 (wrapping). Server arithmetic
        // wraps back and slot/local math is untouched.
        let mirrored = StripeLayout {
            base: 2u32.wrapping_sub(3),
            pcount: 4,
            ssize: 10,
        };
        assert_eq!(mirrored.server_at_slot(3), ServerId(2));
        let plain = StripeLayout::new(0, 4, 10).unwrap();
        for off in [0u64, 9, 10, 35, 79, 123] {
            assert_eq!(mirrored.slot_of(off), plain.slot_of(off));
            assert_eq!(mirrored.to_local(off).1, plain.to_local(off).1);
            let slot = plain.slot_of(off);
            assert_eq!(mirrored.to_logical(slot, plain.to_local(off).1), off);
        }
        // Nor does a wrapped base overflow the share's arithmetic in
        // debug builds.
        assert_eq!(mirrored.bytes_on_slot(Region::new(0, 40), 3), 10);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_layout() -> impl Strategy<Value = StripeLayout> {
        (0u32..4, 1u32..16, 1u64..100_000).prop_map(|(base, pcount, ssize)| StripeLayout {
            base,
            pcount,
            ssize,
        })
    }

    proptest! {
        #[test]
        fn local_logical_roundtrip(l in arb_layout(), off in 0u64..1_000_000_000) {
            let (server, local) = l.to_local(off);
            let slot = server.0 - l.base;
            prop_assert!(slot < l.pcount);
            prop_assert_eq!(l.to_logical(slot, local), off);
        }

        #[test]
        fn segments_partition_region(
            l in arb_layout(),
            off in 0u64..1_000_000,
            len in 1u64..1_000_000,
        ) {
            let r = Region::new(off, len);
            let segs: Vec<_> = l.segments(r).collect();
            // Segments tile the region exactly, in order.
            let mut cursor = r.offset;
            for s in &segs {
                prop_assert_eq!(s.logical.offset, cursor);
                prop_assert!(s.logical.len <= l.ssize);
                prop_assert_eq!(l.server_of(s.logical.offset), s.server);
                // A segment never crosses a stripe boundary.
                prop_assert_eq!(
                    l.stripe_index(s.logical.offset),
                    l.stripe_index(s.logical.end() - 1)
                );
                cursor = s.logical.end();
            }
            prop_assert_eq!(cursor, r.end());
        }

        /// The closed form is the segment walk it replaced, for any
        /// slot: one outside the layout holds nothing.
        #[test]
        fn bytes_on_slot_is_the_segment_walk(
            l in arb_layout(),
            off in 0u64..1_000_000,
            len in 0u64..300_000,
            slot in 0u32..17,
        ) {
            let r = Region::new(off, len);
            let walked: u64 = l
                .segments(r)
                .filter(|s| s.slot == slot)
                .map(|s| s.logical.len)
                .sum();
            prop_assert_eq!(l.bytes_on_slot(r, slot), walked);
        }

        /// One slot's walk is the whole walk filtered to that slot, for
        /// any slot (one outside the layout holds nothing), at the
        /// bottom of the offset space and at its top.
        #[test]
        fn segments_on_is_the_filtered_walk(
            l in arb_layout(),
            off in 0u64..1_000_000,
            len in 0u64..300_000,
            slot in 0u32..17,
            top in any::<bool>(),
        ) {
            // At the top, the region ends in the last `ssize` bytes.
            let at = if top { u64::MAX - len - off % l.ssize } else { off };
            let r = Region::new(at, len);
            let filtered: Vec<_> = l.segments(r).filter(|s| s.slot == slot).collect();
            prop_assert_eq!(l.segments_on(r, slot).collect::<Vec<_>>(), filtered);
        }

        #[test]
        fn local_offsets_disjoint_within_server(
            l in arb_layout(),
            off in 0u64..100_000,
            len in 1u64..50_000,
        ) {
            // Distinct logical offsets on the same server map to distinct
            // local offsets (injectivity over a sampled region).
            let r = Region::new(off, len);
            let step = (len / 64).max(1);
            let mut seen = std::collections::HashMap::new();
            let mut pos = r.offset;
            while pos < r.end() {
                let key = l.to_local(pos);
                if let Some(prev) = seen.insert(key, pos) {
                    prop_assert_eq!(prev, pos);
                }
                pos += step;
            }
        }
    }
}
