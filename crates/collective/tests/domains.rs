//! File-domain partitioner invariants.
//!
//! The safety argument for lock-free collective writes rests on three
//! properties of [`DomainMap`]: domains are **disjoint**, they
//! **cover** the collective extent (every requested byte belongs to
//! exactly one aggregator), and they are **stripe-aligned** (every
//! piece of aggregator `a`'s domain lives on one of `a`'s slots). These
//! tests pin each property on handpicked shapes and then sweep random
//! layouts and request patterns with proptest.

use proptest::prelude::*;
use pvfs_collective::CollectiveConfig;
use pvfs_core::{windows, DomainMap};
use pvfs_types::{Region, RegionList, StripeLayout};

fn dmap(pcount: u32, ssize: u64, ranks: usize, aggregators: Option<usize>) -> DomainMap {
    let cfg = CollectiveConfig {
        aggregators,
        ..CollectiveConfig::default()
    };
    let aggregators = cfg.effective_aggregators(ranks, pcount);
    DomainMap::new(StripeLayout::new(0, pcount, ssize).unwrap(), aggregators).unwrap()
}

/// Every byte of `list` appears in exactly one of `parts`.
fn assert_partition(list: &RegionList, parts: &[RegionList]) {
    let coalesced = list.coalesced();
    let mut rejoined: Vec<Region> = parts.iter().flat_map(|p| p.regions().to_vec()).collect();
    rejoined.sort_unstable_by_key(|r| r.offset);
    // Disjoint across (and within) domains.
    for w in rejoined.windows(2) {
        assert!(
            w[0].end() <= w[1].offset,
            "domain pieces overlap: {} and {}",
            w[0],
            w[1]
        );
    }
    // Jointly cover exactly the requested bytes.
    let rejoined = RegionList::from_regions_slice(&rejoined).coalesced();
    assert_eq!(rejoined, coalesced, "domains lost or invented bytes");
}

/// Every piece of aggregator `a`'s domain lies on a slot owned by `a`.
fn assert_stripe_aligned(m: &DomainMap, parts: &[RegionList]) {
    for (agg, part) in parts.iter().enumerate() {
        for r in part.iter() {
            for seg in m.layout().segments(*r) {
                assert_eq!(
                    m.aggregator_of_slot(seg.slot),
                    agg,
                    "piece {} of aggregator {agg} sits on slot {} owned by aggregator {}",
                    seg.logical,
                    seg.slot,
                    m.aggregator_of_slot(seg.slot)
                );
            }
        }
    }
}

#[test]
fn split_partitions_a_dense_extent() {
    let m = dmap(8, 16, 16, None);
    let list = RegionList::contiguous(3, 1000);
    let parts = m.split(&list);
    assert_eq!(parts.len(), 8);
    assert_partition(&list, &parts);
    assert_stripe_aligned(&m, &parts);
}

#[test]
fn split_partitions_a_sparse_pattern() {
    let m = dmap(4, 10, 8, Some(3));
    let list = RegionList::from_pairs([(0, 5), (15, 20), (95, 7), (200, 1)]).unwrap();
    let parts = m.split(&list);
    assert_partition(&list, &parts);
    assert_stripe_aligned(&m, &parts);
}

#[test]
fn single_rank_job_gets_one_aggregator_owning_everything() {
    let m = dmap(8, 16, 1, None);
    assert_eq!(m.aggregators(), 1);
    let list = RegionList::from_pairs([(0, 100), (500, 100)]).unwrap();
    let parts = m.split(&list);
    assert_eq!(parts.len(), 1);
    assert_partition(&list, &parts);
    // One aggregator owns every slot, so its "domain" is the request.
    assert_eq!(parts[0], list);
}

#[test]
fn empty_request_splits_into_empty_domains() {
    let m = dmap(8, 16, 4, None);
    // 8 daemons but only 4 ranks: the aggregator count clamps to 4.
    let parts = m.split(&RegionList::new());
    assert_eq!(parts.len(), 4);
    assert!(parts.iter().all(|p| p.is_empty()));
    assert_eq!(
        m.slot_lists(0, &[RegionList::new(), RegionList::new()]),
        vec![]
    );
    assert_eq!(
        m.predicted_data_requests(&[RegionList::new()], 1 << 20, 64),
        0
    );
}

#[test]
fn slot_lists_cover_every_rank_request_exactly_once() {
    let m = dmap(4, 16, 8, None);
    let ranks = vec![
        RegionList::from_pairs([(0, 40), (100, 12)]).unwrap(),
        RegionList::from_pairs([(40, 60), (200, 30)]).unwrap(),
    ];
    let union: RegionList = ranks
        .iter()
        .flat_map(|l| l.regions().to_vec())
        .collect::<RegionList>()
        .coalesced();
    let mut all: Vec<Region> = Vec::new();
    for agg in 0..m.aggregators() {
        for (slot, list) in m.slot_lists(agg, &ranks) {
            assert!(list.is_sorted_disjoint());
            for r in list.iter() {
                for seg in m.layout().segments(*r) {
                    assert_eq!(seg.slot, slot, "slot list {slot} holds foreign bytes");
                }
            }
            all.extend(list.regions());
        }
    }
    all.sort_unstable_by_key(|r| r.offset);
    assert_eq!(RegionList::from_regions_slice(&all).coalesced(), union);
}

proptest! {
    /// Random layouts × random sorted-disjoint requests: split always
    /// partitions, always stripe-aligned.
    #[test]
    fn split_is_a_stripe_aligned_partition(
        pcount in 1u32..=8,
        ssize in 1u64..=64,
        aggs in 1usize..=8,
        ranks in 1usize..=16,
        segs in proptest::collection::vec((1u64..=96, 0u64..=64), 1..24),
    ) {
        let m = dmap(pcount, ssize, ranks, Some(aggs));
        let mut cursor = 0u64;
        let mut list = RegionList::new();
        for (len, gap) in segs {
            cursor += gap;
            list.push(Region::new(cursor, len));
            cursor += len;
        }
        let parts = m.split(&list);
        prop_assert_eq!(parts.len(), m.aggregators());
        assert_partition(&list, &parts);
        assert_stripe_aligned(&m, &parts);
    }

    /// The union of every aggregator's slot lists equals the union of
    /// every rank's request — nothing dropped, nothing duplicated —
    /// and the prediction formula counts ⌈regions/max⌉ per window.
    #[test]
    fn slot_lists_partition_the_union(
        pcount in 1u32..=6,
        ssize in 1u64..=48,
        nranks in 1usize..=5,
        segs in proptest::collection::vec((1u64..=64, 0u64..=48), 1..24),
        cb in 1u64..=512,
    ) {
        let m = dmap(pcount, ssize, nranks, None);
        // Deal the global pattern round-robin to ranks.
        let mut cursor = 0u64;
        let mut ranks = vec![RegionList::new(); nranks];
        let mut union = RegionList::new();
        for (i, (len, gap)) in segs.iter().enumerate() {
            cursor += gap;
            let r = Region::new(cursor, *len);
            ranks[i % nranks].push(r);
            union.push(r);
            cursor += len;
        }
        let union = union.coalesced();
        let mut all: Vec<Region> = Vec::new();
        let mut predicted_by_hand = 0u64;
        for agg in 0..m.aggregators() {
            for (slot, list) in m.slot_lists(agg, &ranks) {
                prop_assert!(list.is_sorted_disjoint());
                for r in list.iter() {
                    for seg in m.layout().segments(*r) {
                        prop_assert_eq!(seg.slot, slot);
                    }
                }
                for w in windows(&list, cb) {
                    prop_assert!(w.count() > 0);
                    predicted_by_hand += w.count().div_ceil(64) as u64;
                }
                all.extend(list.regions());
            }
        }
        all.sort_unstable_by_key(|r| r.offset);
        prop_assert_eq!(RegionList::from_regions_slice(&all).coalesced(), union);
        prop_assert_eq!(m.predicted_data_requests(&ranks, cb, 64), predicted_by_hand);
    }

    /// Windows partition their input list in order and never exceed the
    /// byte bound unless a single region alone does.
    #[test]
    fn windows_partition_in_order(
        segs in proptest::collection::vec((1u64..=128, 1u64..=32), 1..32),
        cb in 1u64..=256,
    ) {
        let mut cursor = 0u64;
        let mut list = RegionList::new();
        for (len, gap) in segs {
            cursor += gap;
            list.push(Region::new(cursor, len));
            cursor += len;
        }
        let ws = windows(&list, cb);
        let rejoined: Vec<Region> =
            ws.iter().flat_map(|w| w.regions().to_vec()).collect();
        prop_assert_eq!(rejoined, list.regions().to_vec());
        for w in &ws {
            prop_assert!(
                w.total_len() <= cb || w.count() == 1,
                "window of {} bytes exceeds cb_buffer {} with {} regions",
                w.total_len(), cb, w.count()
            );
        }
    }
}
