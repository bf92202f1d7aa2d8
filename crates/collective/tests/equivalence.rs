//! Collective ⇄ independent equivalence.
//!
//! The correctness contract of two-phase I/O: a `write_all` must leave
//! exactly the bytes on disk that the same per-rank patterns written
//! through independent list I/O would, and a `read_all` must return
//! exactly what independent list reads return — while the global
//! [`SerialGate`] is **never** taken (`gate().acquisitions() == 0`,
//! `serial_sections == 0` on every report), because stripe-aligned
//! domains are disjoint by construction.
//!
//! Random interleaved patterns run over the in-process channel
//! transport (proptest); handpicked dense and sparse cases repeat over
//! real TCP loopback.

use proptest::prelude::*;
use pvfs_client::PvfsFile;
use pvfs_collective::{CollectiveFile, Communicator};
use pvfs_core::Method;
use pvfs_net::{LiveCluster, TransportKind};
use pvfs_server::IodConfig;
use pvfs_types::{Region, RegionList, StripeLayout};
use std::thread;

/// Deterministic per-rank payload.
fn fill(rank: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (rank * 37 + i * 11 + 5) as u8).collect()
}

/// Deal a global sorted-disjoint pattern round-robin to `ranks` ranks;
/// each rank's list stays sorted and disjoint, and ranks interleave in
/// the file.
fn deal(segs: &[(u64, u64)], ranks: usize) -> Vec<RegionList> {
    let mut lists = vec![RegionList::new(); ranks];
    let mut cursor = 0u64;
    for (i, (len, gap)) in segs.iter().enumerate() {
        cursor += gap;
        lists[i % ranks].push(Region::new(cursor, *len));
        cursor += len;
    }
    lists
}

/// Write the per-rank patterns collectively to one file and
/// independently (list I/O) to another on the same cluster, then
/// assert the two files carry identical bytes and that collective
/// writes and reads never touched the serial gate.
fn roundtrip_case(kind: TransportKind, pcount: u32, ssize: u64, patterns: Vec<RegionList>) {
    let ranks = patterns.len();
    let cluster = LiveCluster::spawn_transport(pcount, IodConfig::default(), kind);
    let layout = StripeLayout::new(0, pcount, ssize).unwrap();

    // Phase 1: collective write, one thread per rank.
    let handles: Vec<_> = Communicator::group(ranks)
        .into_iter()
        .zip(patterns.clone())
        .map(|(comm, pattern)| {
            let client = cluster.client();
            thread::spawn(move || {
                let rank = comm.rank();
                let mut cf =
                    CollectiveFile::create(&client, "/pvfs/twophase", layout, comm).unwrap();
                let data = fill(rank, pattern.total_len() as usize);
                let mem = RegionList::contiguous(0, data.len() as u64);
                let report = cf.write_all(&mem, &pattern, &data).unwrap();
                assert_eq!(report.serial_sections, 0, "collective write took the gate");

                // Phase 2: collective read-back of this rank's own
                // pattern must return exactly what it wrote.
                let mut back = vec![0u8; data.len()];
                let report = cf.read_all(&mem, &pattern, &mut back).unwrap();
                assert_eq!(report.serial_sections, 0, "collective read took the gate");
                assert_eq!(back, data, "rank {rank} read_all mismatch");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Phase 3: the independent list-I/O oracle — same patterns, same
    // data, a second file, no collectives involved.
    let client = cluster.client();
    let mut oracle = PvfsFile::create(&client, "/pvfs/oracle", layout).unwrap();
    for (rank, pattern) in patterns.iter().enumerate() {
        if pattern.is_empty() {
            continue;
        }
        let data = fill(rank, pattern.total_len() as usize);
        let mem = RegionList::contiguous(0, data.len() as u64);
        oracle
            .write_list(&mem, pattern, &data, Method::List)
            .unwrap();
    }

    // Phase 4: independent list reads of the union pattern from both
    // files must agree byte for byte.
    let union: RegionList = patterns
        .iter()
        .flat_map(|p| p.regions().to_vec())
        .collect::<RegionList>()
        .coalesced();
    if !union.is_empty() {
        let total = union.total_len();
        let mem = RegionList::contiguous(0, total);
        let mut collective_bytes = vec![0u8; total as usize];
        let mut oracle_bytes = vec![0xAAu8; total as usize];
        let mut cf = PvfsFile::open(&client, "/pvfs/twophase").unwrap();
        cf.read_list(&mem, &union, &mut collective_bytes, Method::List)
            .unwrap();
        oracle
            .read_list(&mem, &union, &mut oracle_bytes, Method::List)
            .unwrap();
        assert_eq!(
            collective_bytes, oracle_bytes,
            "two-phase write left different bytes than independent list I/O"
        );
    }

    // The pinned lock-freedom claim: nothing in this run — collective
    // writes included — ever acquired the cluster-wide serial gate.
    assert_eq!(
        cluster.gate().acquisitions(),
        0,
        "collective I/O must not serialize through the gate"
    );
}

#[test]
fn dense_interleave_over_chan() {
    // 4 ranks × 16-byte records cyclically through 3 stripes of 4
    // daemons: every aggregator sees every rank.
    let segs: Vec<(u64, u64)> = (0..48).map(|_| (16, 0)).collect();
    roundtrip_case(TransportKind::Chan, 4, 64, deal(&segs, 4));
}

#[test]
fn sparse_pattern_over_chan() {
    let segs: Vec<(u64, u64)> = (0..30).map(|i| (7, 13 + (i % 5) * 9)).collect();
    roundtrip_case(TransportKind::Chan, 4, 32, deal(&segs, 3));
}

#[test]
fn single_rank_collective_over_chan() {
    let segs: Vec<(u64, u64)> = (0..20).map(|_| (10, 6)).collect();
    roundtrip_case(TransportKind::Chan, 4, 16, deal(&segs, 1));
}

#[test]
fn rank_with_empty_request_participates() {
    // Rank 1 contributes nothing but must still pass through every
    // collective without hanging or corrupting anyone.
    let mut patterns = deal(&[(32, 0), (32, 0), (32, 0)], 1);
    patterns.push(RegionList::new());
    roundtrip_case(TransportKind::Chan, 2, 16, patterns);
}

#[test]
fn dense_interleave_over_tcp() {
    let segs: Vec<(u64, u64)> = (0..32).map(|_| (16, 0)).collect();
    roundtrip_case(TransportKind::Tcp, 4, 64, deal(&segs, 3));
}

#[test]
fn sparse_pattern_over_tcp() {
    let segs: Vec<(u64, u64)> = (0..24).map(|i| (5, 11 + (i % 3) * 17)).collect();
    roundtrip_case(TransportKind::Tcp, 4, 32, deal(&segs, 4));
}

proptest! {
    /// Random rank counts, layouts, and interleaved disjoint patterns
    /// over the channel transport: collective and independent I/O are
    /// byte-identical, gate untouched.
    #[test]
    fn collective_equals_independent(
        ranks in 1usize..=5,
        pcount in 1u32..=4,
        ssize in proptest::prop_oneof![Just(16u64), Just(32u64), Just(64u64)],
        segs in proptest::collection::vec((1u64..=48, 0u64..=32), 1..24),
    ) {
        roundtrip_case(TransportKind::Chan, pcount, ssize, deal(&segs, ranks));
    }
}

/// Where collective writes overlap, the highest rank's bytes are left:
/// 3 ranks write `[1000 r, 1000 r + 3000)` filled with `r + 1` on 2
/// daemons of 1 KiB stripes, and each byte reads back as the highest
/// rank covering it wrote it.
#[test]
fn overlapping_writes_leave_the_highest_rank() {
    for kind in [TransportKind::Chan, TransportKind::Tcp] {
        let cluster = LiveCluster::spawn_transport(2, IodConfig::default(), kind);
        let layout = StripeLayout::new(0, 2, 1024).unwrap();
        let handles: Vec<_> = Communicator::group(3)
            .into_iter()
            .map(|comm| {
                let client = cluster.client();
                thread::spawn(move || {
                    let rank = comm.rank();
                    let mut cf =
                        CollectiveFile::create(&client, "/pvfs/overlap", layout, comm).unwrap();
                    let file = RegionList::contiguous(rank as u64 * 1000, 3000);
                    let mem = RegionList::contiguous(0, 3000);
                    cf.write_all(&mem, &file, &[rank as u8 + 1; 3000]).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut back = vec![0u8; 5000];
        let mut file = PvfsFile::open(&cluster.client(), "/pvfs/overlap").unwrap();
        file.read_at(0, &mut back).unwrap();
        for (at, byte) in back.iter().enumerate() {
            let highest = (at / 1000).min(2) as u8;
            assert_eq!(*byte, highest + 1, "{kind:?}: byte {at}");
        }
    }
}
