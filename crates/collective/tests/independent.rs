//! Independent I/O between collective calls, as MPI-IO mixes them: a
//! rank writes through its `CollectiveFile`'s own handle
//! (`file_mut().write_at`) after a `write_all`, and the next `read_all`
//! returns those bytes exactly — to the rank whose part of the pattern
//! they overwrote.

use pvfs_collective::{CollectiveFile, Communicator};
use pvfs_net::LiveCluster;
use pvfs_types::{Region, RegionList, StripeLayout};
use std::thread;

fn fill(rank: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (rank * 37 + i * 11 + 5) as u8).collect()
}

#[test]
fn an_independent_write_between_collectives_reads_back() {
    let (pcount, ranks, block) = (4, 4usize, 64u64);
    let cluster = LiveCluster::spawn(pcount);
    let layout = StripeLayout::new(0, pcount, block).unwrap();
    // Rank r owns every 4th 64-byte block, starting at block r.
    let pattern = move |r: usize| -> RegionList {
        (0..8u64)
            .map(|k| Region::new((k * ranks as u64 + r as u64) * block, block))
            .collect()
    };
    // Rank r patches bytes [16, 48) of the first block rank r + 1 owns.
    let patch = move |r: usize| vec![0xE0 + r as u8; 32];
    let patched_at = move |r: usize| ((r + 1) % ranks) as u64 * block + 16;
    let handles: Vec<_> = Communicator::group(ranks)
        .into_iter()
        .map(|comm| {
            let client = cluster.client();
            thread::spawn(move || {
                let rank = comm.rank();
                let mut cf = CollectiveFile::create(&client, "/pvfs/mixed", layout, comm).unwrap();
                let file = pattern(rank);
                let data = fill(rank, file.total_len() as usize);
                let mem = RegionList::contiguous(0, data.len() as u64);
                cf.write_all(&mem, &file, &data).unwrap();
                cf.file_mut()
                    .write_at(patched_at(rank), &patch(rank))
                    .unwrap();
                let mut got = vec![0u8; data.len()];
                cf.read_all(&mem, &file, &mut got).unwrap();
                let mut expect = data;
                expect[16..48].copy_from_slice(&patch((rank + ranks - 1) % ranks));
                assert_eq!(got, expect, "rank {rank}");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}
