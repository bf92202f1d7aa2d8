//! File-domain partitioning for two-phase I/O.
//!
//! Two-phase I/O divides the bytes a collective operation touches into
//! per-aggregator **file domains**. ROMIO partitions the collective
//! extent into equal contiguous slabs; here domains are instead aligned
//! to the PVFS [`StripeLayout`]: stripe slot `s` belongs to aggregator
//! `s % aggregators` ("slot round-robin"). Two properties fall out *by
//! construction*:
//!
//! 1. **Disjointness** — a byte lives in exactly one stripe slot, so no
//!    two aggregators can ever write the same byte. Merged
//!    read-modify-write on a domain therefore needs no global
//!    `SerialGate`, unlike independent data-sieving writes (§4 of the
//!    paper serializes those with an `MPI_Barrier` loop).
//! 2. **Daemon affinity** — every slot maps to one I/O daemon, so an
//!    aggregator only ever talks to *its* `pcount / aggregators`-ish
//!    daemons. With one aggregator per daemon (the default), each
//!    daemon hears from exactly one client during the I/O phase.
//!
//! [`DomainMap::predicted_data_requests`] computes, from the
//! partitioning alone, exactly how many wire requests the aggregate
//! phase will issue — the collective suite holds the daemons' count to
//! it.

use pvfs_types::{PvfsError, PvfsResult, Region, RegionList, ServerId, StripeLayout};

/// The file-domain partitioner: which aggregator owns which stripe
/// slots of one file's layout.
#[derive(Debug, Clone, Copy)]
pub struct DomainMap {
    layout: StripeLayout,
    aggregators: usize,
}

impl DomainMap {
    /// Partition `layout`'s slots among `aggregators` ranks, 1 ..=
    /// `pcount` of them.
    pub fn new(layout: StripeLayout, aggregators: usize) -> PvfsResult<DomainMap> {
        layout.validate()?;
        if aggregators == 0 || aggregators > layout.pcount as usize {
            return Err(PvfsError::invalid(format!(
                "{aggregators} aggregators for {} stripe slots",
                layout.pcount
            )));
        }
        Ok(DomainMap {
            layout,
            aggregators,
        })
    }

    /// Number of aggregators (1 ..= pcount, and ≤ ranks).
    pub fn aggregators(&self) -> usize {
        self.aggregators
    }

    /// The stripe layout domains are aligned to.
    pub fn layout(&self) -> &StripeLayout {
        &self.layout
    }

    /// The aggregator owning stripe slot `slot`.
    #[inline]
    pub fn aggregator_of_slot(&self, slot: u32) -> usize {
        slot as usize % self.aggregators
    }

    /// The stripe slots owned by aggregator `agg`, ascending.
    pub fn slots_of(&self, agg: usize) -> impl Iterator<Item = u32> + '_ {
        debug_assert!(agg < self.aggregators);
        (agg as u32..self.layout.pcount).step_by(self.aggregators)
    }

    /// The I/O daemons aggregator `agg` talks to — the servers behind
    /// its slots, and nobody else's.
    pub fn servers_of(&self, agg: usize) -> Vec<ServerId> {
        self.slots_of(agg)
            .map(|s| self.layout.server_at_slot(s))
            .collect()
    }

    /// Split a sorted-disjoint file list into one sorted-disjoint list
    /// per aggregator: each region is cut at stripe-slot boundaries and
    /// every piece lands in its owner's domain list. The outputs
    /// partition the input's bytes — disjoint across aggregators,
    /// jointly covering every requested byte.
    pub fn split(&self, file: &RegionList) -> Vec<RegionList> {
        let mut out: Vec<Vec<Region>> = vec![Vec::new(); self.aggregators];
        for region in file.iter() {
            for seg in self.layout.segments(*region) {
                out[self.aggregator_of_slot(seg.slot)].push(seg.logical);
            }
        }
        // Consecutive segments can hit the same aggregator
        // (pcount-periodic): contiguous runs merge.
        let merged = |v: &Vec<Region>| RegionList::from_regions_slice(v).coalesced();
        out.iter().map(merged).collect()
    }

    /// Aggregator `agg`'s workload for one collective operation: the
    /// union of every rank's requested regions that fall in `agg`'s
    /// domain, bucketed per stripe slot, each bucket coalesced into a
    /// sorted-disjoint list. Slots come out in `slots_of` order with
    /// empty slots omitted.
    ///
    /// Per-slot bucketing is what keeps the aggregate phase one-daemon-
    /// per-request: a list request over a single slot's regions touches
    /// exactly one server.
    pub fn slot_lists(&self, agg: usize, all_ranks: &[RegionList]) -> Vec<(u32, RegionList)> {
        let mut buckets: Vec<(u32, Vec<Region>)> =
            self.slots_of(agg).map(|s| (s, Vec::new())).collect();
        for rank_list in all_ranks {
            for region in rank_list.iter() {
                for seg in self.layout.segments(*region) {
                    // Slot `agg + k·aggregators` is bucket k.
                    if self.aggregator_of_slot(seg.slot) == agg {
                        buckets[seg.slot as usize / self.aggregators]
                            .1
                            .push(seg.logical);
                    }
                }
            }
        }
        buckets
            .into_iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(slot, v)| (slot, RegionList::from_regions_slice(&v).coalesced()))
            .collect()
    }

    /// Exactly how many wire data requests the aggregate phase will
    /// issue for this operation: for every aggregator, every non-empty
    /// slot, and every `cb_buffer` window over that slot's coalesced
    /// regions, one list request per `max_list_regions` regions.
    /// [`crate::plan_collective`] plans the same windows, so the measured
    /// daemon frame count must equal this number.
    pub fn predicted_data_requests(
        &self,
        all_ranks: &[RegionList],
        cb_buffer: u64,
        max_list_regions: usize,
    ) -> u64 {
        let mut total = 0u64;
        for agg in 0..self.aggregators {
            for (_, list) in self.slot_lists(agg, all_ranks) {
                for window in windows(&list, cb_buffer) {
                    total += window.count().div_ceil(max_list_regions) as u64;
                }
            }
        }
        total
    }
}

/// Split a sorted-disjoint list into consecutive windows of at most
/// `cb_buffer` payload bytes each (whole regions only; a single region
/// larger than `cb_buffer` gets a window to itself): an aggregator's
/// temps, each read or written by list requests of its own.
pub fn windows(list: &RegionList, cb_buffer: u64) -> Vec<RegionList> {
    let mut out = Vec::new();
    let mut cur: Vec<Region> = Vec::new();
    let mut cur_bytes = 0u64;
    for r in list.iter() {
        if cur_bytes > 0 && cur_bytes + r.len > cb_buffer {
            out.push(RegionList::from_regions_slice(&std::mem::take(&mut cur)));
            cur_bytes = 0;
        }
        cur.push(*r);
        cur_bytes += r.len;
    }
    if !cur.is_empty() {
        out.push(RegionList::from_regions_slice(&cur));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(pcount: u32, ssize: u64, aggregators: usize) -> DomainMap {
        DomainMap::new(StripeLayout::new(0, pcount, ssize).unwrap(), aggregators).unwrap()
    }

    #[test]
    fn slots_round_robin_to_aggregators() {
        let m = map(8, 1024, 3);
        assert_eq!(m.aggregators(), 3);
        assert_eq!(m.slots_of(0).collect::<Vec<_>>(), vec![0, 3, 6]);
        assert_eq!(m.slots_of(1).collect::<Vec<_>>(), vec![1, 4, 7]);
        assert_eq!(m.slots_of(2).collect::<Vec<_>>(), vec![2, 5]);
        for slot in 0..8 {
            assert_eq!(m.aggregator_of_slot(slot), slot as usize % 3);
        }
    }

    #[test]
    fn servers_of_are_disjoint_across_aggregators() {
        let m = map(8, 1024, 3);
        let mut seen = std::collections::HashSet::new();
        for agg in 0..3 {
            for s in m.servers_of(agg) {
                assert!(seen.insert(s), "server {s:?} owned by two aggregators");
            }
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn split_cuts_at_slot_boundaries() {
        // 4 slots of 10 bytes; one region spanning all of [0, 80).
        let m = map(4, 10, 2);
        let parts = m.split(&RegionList::contiguous(0, 80));
        // agg 0 owns slots 0,2 → stripes [0,10) [20,30) [40,50) [60,70)
        assert_eq!(
            parts[0].regions(),
            &[
                Region::new(0, 10),
                Region::new(20, 10),
                Region::new(40, 10),
                Region::new(60, 10),
            ]
        );
        assert_eq!(
            parts[1].regions(),
            &[
                Region::new(10, 10),
                Region::new(30, 10),
                Region::new(50, 10),
                Region::new(70, 10),
            ]
        );
    }

    #[test]
    fn split_merges_contiguous_same_aggregator_runs() {
        // One aggregator owns everything: the whole region must come
        // back as a single merged run, not per-stripe confetti.
        let m = map(4, 10, 1);
        let parts = m.split(&RegionList::contiguous(5, 70));
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].regions(), &[Region::new(5, 70)]);
    }

    #[test]
    fn slot_lists_union_ranks_and_coalesce() {
        let m = map(2, 10, 2);
        // Rank 0 takes even 5-byte pieces, rank 1 the odd ones: slot 0
        // ([0,10) ∪ [20,30)) sees both ranks and must coalesce.
        let r0 = RegionList::from_pairs([(0, 5), (20, 5)]).unwrap();
        let r1 = RegionList::from_pairs([(5, 5), (25, 5)]).unwrap();
        let lists = m.slot_lists(0, &[r0, r1]);
        assert_eq!(lists.len(), 1);
        assert_eq!(lists[0].0, 0);
        assert_eq!(
            lists[0].1.regions(),
            &[Region::new(0, 10), Region::new(20, 10)]
        );
    }

    #[test]
    fn windows_respect_the_byte_bound() {
        let list = RegionList::from_pairs([(0, 6), (10, 6), (20, 6), (30, 20)]).unwrap();
        let w = windows(&list, 12);
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].regions(), &[Region::new(0, 6), Region::new(10, 6)]);
        assert_eq!(w[1].regions(), &[Region::new(20, 6)]);
        // An oversized region still travels whole, in its own window.
        assert_eq!(w[2].regions(), &[Region::new(30, 20)]);
    }

    #[test]
    fn windows_of_empty_list_is_empty() {
        assert!(windows(&RegionList::new(), 1024).is_empty());
    }

    #[test]
    fn predicted_requests_count_windows_and_chunks() {
        // 1 aggregator, 1 slot, 130 one-byte regions in one window:
        // ⌈130/64⌉ = 3 list requests.
        let m = map(1, 1 << 20, 1);
        let ranks = vec![RegionList::from_pairs((0..130u64).map(|i| (i * 2, 1))).unwrap()];
        assert_eq!(m.predicted_data_requests(&ranks, u64::MAX, 64), 3);
        // A 10-byte cb_buffer over 130 single-byte regions → 13 windows
        // of 10 regions each → 13 requests.
        assert_eq!(m.predicted_data_requests(&ranks, 10, 64), 13);
    }
}
