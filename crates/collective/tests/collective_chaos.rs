//! Collective I/O under injected transport faults.
//!
//! The aggregate phase issues only data requests (list reads/writes),
//! which are idempotent — so an aggregator whose RPC is disconnected
//! after the daemon executed it can retry without double-applying the
//! write. These tests run two-phase I/O over real TCP loopback with a
//! seeded ~5% fault mix (drops, disconnects, corruptions) and assert
//! the surviving bytes are exactly right.

use pvfs_client::PvfsFile;
use pvfs_collective::{CollectiveFile, Communicator};
use pvfs_core::Method;
use pvfs_net::{FaultPlan, LiveCluster, RetryPolicy, TransportKind};
use pvfs_server::IodConfig;
use pvfs_types::{Region, RegionList, StripeLayout};
use std::thread;
use std::time::Duration;

fn fill(rank: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (rank * 41 + i * 7 + 3) as u8).collect()
}

fn retry_hard() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(20),
        budget: Duration::from_secs(60),
    }
}

/// Two-phase write + read over TCP with a 5% fault mix: every rank's
/// read-back must match what it wrote, byte for byte — retried
/// aggregator writes must not double-apply, and no data may be lost.
#[test]
fn two_phase_survives_faulty_tcp() {
    let ranks = 4usize;
    let pcount = 4u32;
    let mut cluster =
        LiveCluster::spawn_transport(pcount, IodConfig::default(), TransportKind::Tcp);
    cluster.inject_faults(FaultPlan {
        drop: 0.02,
        disconnect: 0.02,
        corrupt: 0.01,
        seed: 7,
        ..FaultPlan::default()
    });
    let layout = StripeLayout::new(0, pcount, 64).unwrap();

    // Interleaved 16-byte records with 16-byte holes between them, 64
    // per rank: the holes keep slot lists from coalescing into one big
    // region, and a small cb_buffer (set below) splits each slot into
    // many staged windows — enough wire frames for a 5% fault mix to
    // actually bite.
    let patterns: Vec<RegionList> = (0..ranks)
        .map(|r| {
            (0..64)
                .map(|i| Region::new(((i * ranks + r) * 32) as u64, 16))
                .collect()
        })
        .collect();

    let handles: Vec<_> = Communicator::group(ranks)
        .into_iter()
        .zip(patterns.clone())
        .map(|(comm, pattern)| {
            let client = cluster.client();
            thread::spawn(move || {
                let rank = comm.rank();
                let mut cf = CollectiveFile::create(&client, "/pvfs/chaos", layout, comm).unwrap();
                cf.file_mut().set_retry_policy(retry_hard());
                let mut ccfg = cf.collective_config();
                ccfg.cb_buffer = 64;
                cf.set_collective_config(ccfg);
                let data = fill(rank, pattern.total_len() as usize);
                let mem = RegionList::contiguous(0, data.len() as u64);
                let wrote = cf.write_all(&mem, &pattern, &data).unwrap();
                assert_eq!(wrote.serial_sections, 0);

                let mut back = vec![0u8; data.len()];
                let read = cf.read_all(&mem, &pattern, &mut back).unwrap();
                assert_eq!(read.serial_sections, 0);
                assert_eq!(
                    back, data,
                    "rank {rank} lost or corrupted bytes under faults"
                );
                (wrote, read)
            })
        })
        .collect();
    let reports: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // The chaos run should actually have exercised the retry path on
    // some rank; a fault mix that injected nothing proves nothing.
    let faults: u64 = reports
        .iter()
        .map(|(w, r)| w.client.faults_injected + r.client.faults_injected)
        .sum();
    let retries: u64 = reports
        .iter()
        .map(|(w, r)| w.client.retries + r.client.retries)
        .sum();
    assert!(faults > 0, "fault plan injected nothing — test is vacuous");
    assert!(retries > 0, "faults were injected but nothing retried");

    // Double-application check from the outside: an independent list
    // read of every written record must see each rank's bytes exactly
    // once, in place.
    let extent = ranks * 64 * 32;
    let client = cluster.client();
    let mut file = PvfsFile::open(&client, "/pvfs/chaos").unwrap();
    file.set_retry_policy(retry_hard());
    let mut all = vec![0u8; extent];
    for (rank, pattern) in patterns.iter().enumerate() {
        let mem: RegionList = pattern.iter().copied().collect(); // land in place
        file.read_list(&mem, pattern, &mut all, Method::List)
            .unwrap();
        let data = fill(rank, pattern.total_len() as usize);
        let mut cursor = 0usize;
        for r in pattern.iter() {
            let (o, l) = (r.offset as usize, r.len as usize);
            assert_eq!(
                &all[o..o + l],
                &data[cursor..cursor + l],
                "rank {rank} region {r} corrupted"
            );
            cursor += l;
        }
    }

    // Lock-freedom holds under faults too.
    assert_eq!(cluster.gate().acquisitions(), 0);
}

/// The same fault plan with retries disabled must surface an error on
/// every rank (collective outcome agreement), not hang or return
/// partial success — the completion allgather is what keeps a failed
/// aggregator from stranding the healthy ranks.
#[test]
fn faults_without_retries_fail_on_every_rank() {
    let ranks = 3usize;
    let pcount = 2u32;
    let mut cluster =
        LiveCluster::spawn_transport(pcount, IodConfig::default(), TransportKind::Tcp);
    cluster.inject_faults(FaultPlan {
        drop: 0.25,
        disconnect: 0.25,
        seed: 11,
        ..FaultPlan::default()
    });
    let layout = StripeLayout::new(0, pcount, 32).unwrap();
    let patterns: Vec<RegionList> = (0..ranks)
        .map(|r| {
            (0..64)
                .map(|i| Region::new(((i * ranks + r) * 8) as u64, 8))
                .collect()
        })
        .collect();

    let handles: Vec<_> = Communicator::group(ranks)
        .into_iter()
        .zip(patterns)
        .map(|(comm, pattern)| {
            let client = cluster.client();
            thread::spawn(move || {
                let mut cf = CollectiveFile::create(&client, "/pvfs/flaky", layout, comm).unwrap();
                cf.file_mut().set_retry_policy(RetryPolicy::none());
                let data = fill(cf.comm().rank(), pattern.total_len() as usize);
                let mem = RegionList::contiguous(0, data.len() as u64);
                cf.write_all(&mem, &pattern, &data).is_err()
            })
        })
        .collect();
    let failed: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // With a 50% per-frame fault rate and no retries, some aggregator
    // certainly failed — and then *every* rank must observe the
    // failure, aggregator or not.
    assert!(
        failed.iter().all(|f| *f),
        "collective outcome disagreement: {failed:?}"
    );
}
