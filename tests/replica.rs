//! Replicated stripes end to end: r-way mirroring, failover reads,
//! quorum writes, and anti-entropy repair (`scrub`).
//!
//! The acceptance contract of the replication subsystem: at
//! `PVFS_REPLICAS=2`, killing any single I/O daemon leaves every read
//! byte-exact (served by the surviving mirror, with no retry storms),
//! and a subsequent restart + scrub drives every `StripeDigest`
//! comparison back to equality — over both the channel and TCP
//! transports, and indistinguishably between the memory and file
//! storage backends.
//!
//! "Kill" here is a total frame drop aimed at one daemon (the
//! programmatic `PVFS_FAULTS` plan): every request to it vanishes and
//! times out, exactly what a dead node looks like from the client.
//! "Restart" talks to the same daemon through a fault-free client —
//! transports are wrapped per-client, so a pre-kill client doubles as
//! the post-restart one.

use proptest::prelude::*;
use pvfs::client::{replicas_converged, scrub_file_with_chunk, PvfsFile};
use pvfs::collective::{CollectiveFile, Communicator};
use pvfs::core::Method;
use pvfs::disk::{ScratchDir, StorageConfig, SyncPolicy};
use pvfs::net::{ClusterClient, FaultPlan, LiveCluster, ReplicaPolicy, TransportKind, WriteQuorum};
use pvfs::server::IodConfig;
use pvfs::types::{Region, RegionList, ServerId, StripeLayout};
use std::time::Duration;

/// Digest granularity small enough that the tiny test files span
/// several chunks per slot.
const CHUNK: u64 = 64;

fn rclient(cluster: &LiveCluster, replicas: u32, quorum: WriteQuorum) -> ClusterClient {
    let policy = ReplicaPolicy::new(replicas, quorum, cluster.n_servers()).unwrap();
    cluster
        .client()
        .with_replica_policy(policy)
        .with_rpc_timeout(Duration::from_millis(250))
}

fn strided(offset: u64, count: u64, len: u64, stride: u64) -> RegionList {
    RegionList::from_pairs((0..count).map(|i| (offset + i * stride, len))).unwrap()
}

/// r=2 write/read roundtrip on a healthy cluster: every method stays
/// byte-exact, the mirrors converge without repair, and a scrub finds
/// nothing to do.
fn roundtrip_clean(kind: TransportKind) {
    let cluster = LiveCluster::spawn_transport(4, IodConfig::default(), kind);
    let client = rclient(&cluster, 2, WriteQuorum::All);
    let layout = StripeLayout::new(0, 4, 64).unwrap();
    let mut f = PvfsFile::create(&client, "/pvfs/r2", layout).unwrap();

    let data: Vec<u8> = (0..1600u32).map(|i| (i % 251) as u8).collect();
    f.write_at(0, &data).unwrap();
    let pattern = strided(32, 12, 16, 96);
    let mem = RegionList::contiguous(0, pattern.total_len());
    let fill = vec![0xd7u8; pattern.total_len() as usize];
    let report = f.write_list(&mem, &pattern, &fill, Method::List).unwrap();
    assert_eq!(
        report.client.quorum_shortfalls, 0,
        "healthy writes reach all copies"
    );

    let mut expect = data.clone();
    for r in pattern.iter() {
        expect[r.offset as usize..r.end() as usize].fill(0xd7);
    }
    let mut got = vec![0u8; expect.len()];
    f.read_at(0, &mut got).unwrap();
    assert_eq!(got, expect, "replicated roundtrip diverged");
    assert_eq!(f.size().unwrap(), expect.len() as u64);

    assert!(replicas_converged(&client, f.handle(), &layout, CHUNK).unwrap());
    let scrub = scrub_file_with_chunk(&client, f.handle(), &layout, CHUNK).unwrap();
    assert!(scrub.clean(), "healthy mirrors need no repair: {scrub:?}");
    assert_eq!(scrub.slots_scanned, 4);
    assert!(scrub.digests_compared > 0, "digests were fetched");
}

#[test]
fn replicated_roundtrip_is_clean_over_chan() {
    roundtrip_clean(TransportKind::Chan);
}

#[test]
fn replicated_roundtrip_is_clean_over_tcp() {
    roundtrip_clean(TransportKind::Tcp);
}

/// The failover acceptance bar: kill each daemon in turn (fresh r=2
/// cluster each time); every read stays byte-exact off the surviving
/// mirrors, with zero retries and every logical sub-request landing on
/// a live daemon exactly once (frame counters pinned — no storms).
fn kill_one_daemon_reads_survive(kind: TransportKind) {
    for dead in 0..3u32 {
        let mut cluster = LiveCluster::spawn_transport(3, IodConfig::default(), kind);
        let layout = StripeLayout::new(0, 3, 64).unwrap();
        let data: Vec<u8> = (0..1200u32).map(|i| (i as u8) ^ 0x5a).collect();
        {
            let healthy = rclient(&cluster, 2, WriteQuorum::All);
            let mut f = PvfsFile::create(&healthy, "/pvfs/kill", layout).unwrap();
            f.write_at(0, &data).unwrap();
        }

        cluster.inject_faults(FaultPlan {
            drop: 1.0,
            target: Some(dead),
            ..FaultPlan::default()
        });
        let degraded = rclient(&cluster, 2, WriteQuorum::All);
        let survivors: Vec<u32> = (0..3).filter(|s| *s != dead).collect();
        let frames_before: u64 = survivors
            .iter()
            .map(|s| cluster.stats_snapshot(ServerId(*s)).unwrap().frames_rx)
            .sum();

        let mut f = PvfsFile::open(&degraded, "/pvfs/kill").unwrap();
        let mut got = vec![0u8; data.len()];
        let report = f.read_at(0, &mut got).unwrap();
        assert_eq!(got, data, "kill {dead} ({kind:?}): read diverged");

        let stats = degraded.stats();
        assert!(
            stats.replica_failovers > 0,
            "kill {dead}: reads aimed at the dead daemon must fail over"
        );
        assert_eq!(stats.retries, 0, "failover must not consume retries");
        // Dropped frames never arrive anywhere; failover re-aims land
        // once. So the survivors together see exactly one frame per
        // logical read sub-request — a retry storm would break this.
        let frames_after: u64 = survivors
            .iter()
            .map(|s| cluster.stats_snapshot(ServerId(*s)).unwrap().frames_rx)
            .sum();
        assert_eq!(
            frames_after - frames_before,
            report.requests,
            "kill {dead} ({kind:?}): surviving daemons saw extra frames"
        );
    }
}

#[test]
fn killing_any_single_daemon_keeps_reads_byte_exact_over_chan() {
    kill_one_daemon_reads_survive(TransportKind::Chan);
}

#[test]
fn killing_any_single_daemon_keeps_reads_byte_exact_over_tcp() {
    kill_one_daemon_reads_survive(TransportKind::Tcp);
}

/// Write availability under failure: at r=3 a majority quorum (2 of 3)
/// keeps writes succeeding with one daemon dead — each recorded as a
/// quorum shortfall — and after the "restart", scrub re-syncs the
/// divergent copy and every digest comparison returns to equality.
fn majority_writes_survive_then_scrub_heals(kind: TransportKind) {
    let mut cluster = LiveCluster::spawn_transport(3, IodConfig::default(), kind);
    let layout = StripeLayout::new(0, 3, 64).unwrap();
    // Built before the fault layer: this client always reaches every
    // daemon, standing in for the cluster after the node comes back.
    let healthy = rclient(&cluster, 3, WriteQuorum::Majority);
    let mut f = PvfsFile::create(&healthy, "/pvfs/maj", layout).unwrap();
    let phase1: Vec<u8> = vec![0x11; 900];
    f.write_at(0, &phase1).unwrap();
    assert!(replicas_converged(&healthy, f.handle(), &layout, CHUNK).unwrap());

    let dead = 1u32;
    cluster.inject_faults(FaultPlan {
        drop: 1.0,
        target: Some(dead),
        ..FaultPlan::default()
    });
    let degraded = rclient(&cluster, 3, WriteQuorum::Majority);
    let mut fd = PvfsFile::open(&degraded, "/pvfs/maj").unwrap();
    let pattern = strided(0, 10, 24, 88);
    let mem = RegionList::contiguous(0, pattern.total_len());
    let fill = vec![0xeeu8; pattern.total_len() as usize];
    fd.write_list(&mem, &pattern, &fill, Method::List).unwrap();
    let stats = degraded.stats();
    assert!(
        stats.quorum_shortfalls > 0,
        "writes that missed the dead copy must be recorded"
    );

    // The daemon "comes back": through the fault-free client its copies
    // are stale — scrub must find and repair the divergence.
    assert!(!replicas_converged(&healthy, f.handle(), &layout, CHUNK).unwrap());
    let report = scrub_file_with_chunk(&healthy, f.handle(), &layout, CHUNK).unwrap();
    assert!(
        report.copies_divergent > 0,
        "stale copies found: {report:?}"
    );
    assert!(report.repair_bytes > 0, "stale spans rewritten: {report:?}");
    assert!(
        replicas_converged(&healthy, f.handle(), &layout, CHUNK).unwrap(),
        "scrub must drive every digest comparison to equality"
    );
    // And a second pass has nothing left to do.
    let again = scrub_file_with_chunk(&healthy, f.handle(), &layout, CHUNK).unwrap();
    assert!(again.clean(), "{again:?}");

    let mut expect = phase1.clone();
    for r in pattern.iter() {
        let end = r.end() as usize;
        if end > expect.len() {
            expect.resize(end, 0);
        }
        expect[r.offset as usize..end].fill(0xee);
    }
    let mut got = vec![0u8; expect.len()];
    f.read_at(0, &mut got).unwrap();
    assert_eq!(got, expect, "post-repair read diverged");
}

#[test]
fn majority_quorum_survives_kill_and_scrub_heals_over_chan() {
    majority_writes_survive_then_scrub_heals(TransportKind::Chan);
}

#[test]
fn majority_quorum_survives_kill_and_scrub_heals_over_tcp() {
    majority_writes_survive_then_scrub_heals(TransportKind::Tcp);
}

/// Disk loss + restart on the durable backend: wipe one daemon's data
/// directory between cluster incarnations. On restart that daemon
/// answers digests with version 0 and no bytes — never chosen as a
/// repair source — and scrub rebuilds its copies from the surviving
/// mirrors, byte for byte.
fn disk_loss_restart_scrub(kind: TransportKind) {
    let dir = ScratchDir::new("replica-repair");
    let layout = StripeLayout::new(0, 3, 64).unwrap();
    let storage = || StorageConfig::File {
        dir: dir.path().to_path_buf(),
        sync: SyncPolicy::Interval(Duration::ZERO),
    };
    let data: Vec<u8> = (0..1500u32).map(|i| (i % 241) as u8).collect();
    {
        let cluster = LiveCluster::spawn_storage(3, IodConfig::default(), kind, storage());
        let client = rclient(&cluster, 2, WriteQuorum::All);
        let mut f = PvfsFile::create(&client, "/pvfs/loss", layout).unwrap();
        f.write_at(0, &data).unwrap();
        f.sync().unwrap();
        assert!(replicas_converged(&client, f.handle(), &layout, CHUNK).unwrap());
    }

    // The "disk" of daemon 2 dies with the cluster.
    let lost = dir.path().join("iod2");
    std::fs::remove_dir_all(&lost).expect("wipe iod2 storage");

    let cluster = LiveCluster::spawn_storage(3, IodConfig::default(), kind, storage());
    let client = rclient(&cluster, 2, WriteQuorum::All);
    // Fresh manager: recreate the namespace entry; the first handle is
    // deterministic, so it addresses the surviving on-disk stripes.
    let f = PvfsFile::create(&client, "/pvfs/loss", layout).unwrap();
    assert!(
        !replicas_converged(&client, f.handle(), &layout, CHUNK).unwrap(),
        "the wiped daemon must diverge"
    );
    let report = scrub_file_with_chunk(&client, f.handle(), &layout, CHUNK).unwrap();
    assert!(report.copies_divergent > 0, "{report:?}");
    assert!(report.repair_bytes > 0, "{report:?}");
    assert!(
        replicas_converged(&client, f.handle(), &layout, CHUNK).unwrap(),
        "scrub must rebuild the lost copies"
    );
    let mut f = f;
    let mut got = vec![0u8; data.len()];
    f.read_at(0, &mut got).unwrap();
    assert_eq!(got, data, "repaired file diverged from the original");
}

#[test]
fn disk_loss_restart_scrub_restores_equality_over_chan() {
    disk_loss_restart_scrub(TransportKind::Chan);
}

#[test]
fn disk_loss_restart_scrub_restores_equality_over_tcp() {
    disk_loss_restart_scrub(TransportKind::Tcp);
}

/// Collective two-phase I/O writes through the replica map: aggregator
/// wire traffic fans out to the mirrors like any other write, so a
/// collective write at r=2 leaves converged replicas and survives a
/// read with one daemon down.
#[test]
fn collective_two_phase_writes_through_the_replica_map() {
    let ranks = 4usize;
    let mut cluster = LiveCluster::spawn_with(4, IodConfig::default());
    let layout = StripeLayout::new(0, 4, 64).unwrap();
    let handles: Vec<_> = Communicator::group(ranks)
        .into_iter()
        .map(|comm| {
            let client = rclient(&cluster, 2, WriteQuorum::All);
            std::thread::spawn(move || {
                let rank = comm.rank();
                let mut cf = CollectiveFile::create(&client, "/pvfs/coll", layout, comm).unwrap();
                // 1-D cyclic: rank's records every `ranks` slots.
                let pattern = strided((rank as u64) * 32, 16, 32, (ranks as u64) * 32);
                let data = vec![0x40 + rank as u8; pattern.total_len() as usize];
                let mem = RegionList::contiguous(0, data.len() as u64);
                cf.write_all(&mem, &pattern, &data).unwrap();
                let mut back = vec![0u8; data.len()];
                cf.read_all(&mem, &pattern, &mut back).unwrap();
                assert_eq!(back, data, "rank {rank} collective roundtrip");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let client = rclient(&cluster, 2, WriteQuorum::All);
    let f = PvfsFile::open(&client, "/pvfs/coll").unwrap();
    assert!(
        replicas_converged(&client, f.handle(), &layout, CHUNK).unwrap(),
        "collective writes must reach the mirrors"
    );

    // One daemon dies; the collectively-written bytes stay readable.
    cluster.inject_faults(FaultPlan {
        drop: 1.0,
        target: Some(2),
        ..FaultPlan::default()
    });
    let degraded = rclient(&cluster, 2, WriteQuorum::All);
    let mut f = PvfsFile::open(&degraded, "/pvfs/coll").unwrap();
    let total = f.size().unwrap() as usize;
    let mut got = vec![0u8; total];
    f.read_at(0, &mut got).unwrap();
    for rank in 0..ranks {
        let pattern = strided((rank as u64) * 32, 16, 32, (ranks as u64) * 32);
        for r in pattern.iter() {
            assert!(
                got[r.offset as usize..r.end() as usize]
                    .iter()
                    .all(|b| *b == 0x40 + rank as u8),
                "rank {rank} bytes lost at {}",
                r.offset
            );
        }
    }
}

/// Turn proptest's raw (gap, len) pairs into sorted, disjoint regions.
fn disjoint(pairs: &[(u64, u64)]) -> Vec<Region> {
    let mut cursor = 0u64;
    let mut out = Vec::with_capacity(pairs.len());
    for &(gap, len) in pairs {
        let offset = cursor + gap;
        out.push(Region::new(offset, len));
        cursor = offset + len;
    }
    out
}

/// One backend's view of the scenario: write the ops at r=2 while
/// healthy, kill one daemon, read everything back through failover.
fn degraded_view(ops: &[(Vec<Region>, u8)], storage: StorageConfig, dead: u32) -> (u64, Vec<u8>) {
    let mut cluster =
        LiveCluster::spawn_storage(3, IodConfig::default(), TransportKind::Chan, storage);
    let layout = StripeLayout::new(0, 3, 128).unwrap();
    {
        let healthy = rclient(&cluster, 2, WriteQuorum::All);
        let mut f = PvfsFile::create(&healthy, "/pvfs/eq", layout).unwrap();
        for (regions, fill) in ops {
            let file = RegionList::from_regions(regions.clone()).unwrap();
            let mem = RegionList::contiguous(0, file.total_len());
            let buf = vec![*fill; file.total_len() as usize];
            f.write_list(&mem, &file, &buf, Method::List).unwrap();
        }
    }
    cluster.inject_faults(FaultPlan {
        drop: 1.0,
        target: Some(dead),
        ..FaultPlan::default()
    });
    let degraded = rclient(&cluster, 2, WriteQuorum::All);
    let mut f = PvfsFile::open(&degraded, "/pvfs/eq").unwrap();
    let size = f.size().unwrap();
    let mut got = vec![0u8; size as usize + 64];
    f.read_at(0, &mut got).unwrap();
    (size, got)
}

proptest! {
    /// Acceptance: the mem-vs-file backend equivalence holds with one
    /// daemon down at r=2 — same sizes, same bytes, same hole fills,
    /// whichever daemon died.
    #[test]
    fn backends_agree_with_one_daemon_down_at_r2(
        ops in proptest::collection::vec(
            (proptest::collection::vec((0u64..300, 1u64..200), 1..6), 1u8..255),
            1..3,
        ),
        dead in 0u32..3,
    ) {
        let ops: Vec<(Vec<Region>, u8)> = ops
            .iter()
            .map(|(pairs, fill)| (disjoint(pairs), *fill))
            .collect();
        let dir = ScratchDir::new("replica-equiv");
        let file_storage = StorageConfig::File {
            dir: dir.path().to_path_buf(),
            sync: SyncPolicy::Interval(Duration::ZERO),
        };
        let (size_m, got_m) = degraded_view(&ops, StorageConfig::Mem, dead);
        let (size_f, got_f) = degraded_view(&ops, file_storage, dead);
        prop_assert_eq!(size_m, size_f, "sizes diverge between backends");
        prop_assert_eq!(got_m, got_f, "degraded reads diverge between backends");
    }
}
