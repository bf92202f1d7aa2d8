//! End-to-end durability: the file-backed storage engine must survive a
//! daemon crash mid-list-write with all-or-nothing semantics, and must
//! be byte-for-byte indistinguishable from the memory backend for every
//! read a client can issue.
//!
//! The crash tests use [`CrashPoint`] injection to freeze a daemon's
//! store exactly as SIGKILL would — either with a torn journal record
//! (batch never committed) or after the intent record committed but
//! before the data-file runs finished (batch must complete on replay) —
//! then respawn a cluster over the same data directory and check what a
//! client observes.

use proptest::prelude::*;
use pvfs::client::PvfsFile;
use pvfs::core::Method;
use pvfs::disk::{CrashPoint, ScratchDir, StorageConfig, SyncPolicy};
use pvfs::net::{LiveCluster, TransportKind};
use pvfs::server::IodConfig;
use pvfs::types::{Region, RegionList, ServerId, StripeLayout};
use pvfs::workloads::verify;

/// Spawn a file-backed cluster over `dir` that leaves its data behind
/// when dropped, so a second spawn can recover from it.
fn spawn_file(n: u32, dir: &std::path::Path, sync: SyncPolicy, kind: TransportKind) -> LiveCluster {
    LiveCluster::spawn_storage(
        n,
        IodConfig::default(),
        kind,
        StorageConfig::File {
            dir: dir.to_path_buf(),
            sync,
        },
    )
}

fn spawn_mem(n: u32, kind: TransportKind) -> LiveCluster {
    LiveCluster::spawn_storage(n, IodConfig::default(), kind, StorageConfig::Mem)
}

/// A noncontiguous write: `regions` filled from one contiguous user
/// buffer of matching total length.
fn list_write(f: &mut PvfsFile, regions: &[Region], fill: u8) -> pvfs::types::PvfsResult<()> {
    let total: u64 = regions.iter().map(|r| r.len).sum();
    let file = RegionList::from_regions(regions.to_vec()).unwrap();
    let mem = RegionList::contiguous(0, total);
    let buf = vec![fill; total as usize];
    f.write_list(&mem, &file, &buf, Method::List).map(|_| ())
}

/// What `baseline` should look like after `regions` are overwritten
/// with `fill`.
fn overlay(baseline: &[u8], regions: &[Region], fill: u8) -> Vec<u8> {
    let mut out = baseline.to_vec();
    for r in regions {
        let end = (r.offset + r.len) as usize;
        if end > out.len() {
            out.resize(end, 0);
        }
        out[r.offset as usize..end].fill(fill);
    }
    out
}

/// 33 regions, 32 bytes each, stride 64 — one wire request under the
/// list method (≤64 regions), so the daemon journals it as a single
/// intent record and the whole batch is all-or-nothing.
fn crash_batch() -> Vec<Region> {
    (0..33).map(|i| Region::new(i * 64, 32)).collect()
}

#[test]
fn torn_list_write_is_invisible_after_restart() {
    let dir = ScratchDir::new("dur-torn");
    let layout = StripeLayout::new(0, 1, 1 << 16).unwrap();
    let baseline = verify::content(0, 4096);
    {
        let cluster = spawn_file(1, dir.path(), SyncPolicy::Always, TransportKind::Chan);
        let client = cluster.client();
        let mut f = PvfsFile::create(&client, "/pvfs/crash", layout).unwrap();
        f.write_at(0, &baseline).unwrap();
        assert_eq!(f.sync().unwrap(), 4096);

        // Power fails mid-journal-append: the intent record tears and
        // the batch must never have happened.
        let daemon = cluster.daemon(ServerId(0)).unwrap();
        daemon.inject_storage_crash(f.handle(), CrashPoint::TornJournal);
        list_write(&mut f, &crash_batch(), 0xEE).unwrap_err();
    }

    // Recover from the data directory alone.
    let cluster = spawn_file(1, dir.path(), SyncPolicy::Always, TransportKind::Chan);
    let client = cluster.client();
    let mut f = PvfsFile::create(&client, "/pvfs/crash", layout).unwrap();
    assert_eq!(
        f.size().unwrap(),
        4096,
        "torn batch must not extend the file"
    );
    let mut got = vec![0u8; 4096];
    f.read_at(0, &mut got).unwrap();
    assert_eq!(got, baseline, "no region of the torn batch may be visible");
}

#[test]
fn committed_list_write_completes_after_restart() {
    let dir = ScratchDir::new("dur-commit");
    let layout = StripeLayout::new(0, 1, 1 << 16).unwrap();
    let baseline = verify::content(0, 4096);
    let batch = crash_batch();
    {
        let cluster = spawn_file(1, dir.path(), SyncPolicy::Always, TransportKind::Chan);
        let client = cluster.client();
        let mut f = PvfsFile::create(&client, "/pvfs/crash", layout).unwrap();
        f.write_at(0, &baseline).unwrap();

        // Power fails after the intent record committed but before any
        // data-file run landed: replay must complete the whole batch.
        let daemon = cluster.daemon(ServerId(0)).unwrap();
        daemon.inject_storage_crash(f.handle(), CrashPoint::AfterCommit { applied: 0 });
        list_write(&mut f, &batch, 0xEE).unwrap_err();
    }

    let cluster = spawn_file(1, dir.path(), SyncPolicy::Always, TransportKind::Chan);
    let client = cluster.client();
    let mut f = PvfsFile::create(&client, "/pvfs/crash", layout).unwrap();
    let expect = overlay(&baseline, &batch, 0xEE);
    let mut got = vec![0u8; expect.len()];
    f.read_at(0, &mut got).unwrap();
    assert_eq!(
        got, expect,
        "every region of the committed batch must be visible"
    );
    let snap = cluster.daemon(ServerId(0)).unwrap().ledger().snapshot();
    assert!(
        snap.journal_replays > 0,
        "recovery must have replayed the journal"
    );
}

#[test]
fn batch_committed_after_a_checkpoint_completes_after_restart() {
    // The same crash, but with a checkpoint behind the store: the sync
    // barrier truncates the journal, and the intent record committed
    // next must sit at the front of the file, where recovery reads — a
    // record stranded past the truncated bytes would never replay.
    let dir = ScratchDir::new("dur-commit-after-checkpoint");
    let layout = StripeLayout::new(0, 1, 1 << 16).unwrap();
    let baseline = verify::content(0, 4096);
    let batch = crash_batch();
    {
        let cluster = spawn_file(1, dir.path(), SyncPolicy::Always, TransportKind::Chan);
        let client = cluster.client();
        let mut f = PvfsFile::create(&client, "/pvfs/crash", layout).unwrap();
        f.write_at(0, &baseline).unwrap();
        assert_eq!(f.sync().unwrap(), 4096);

        let daemon = cluster.daemon(ServerId(0)).unwrap();
        daemon.inject_storage_crash(f.handle(), CrashPoint::AfterCommit { applied: 0 });
        list_write(&mut f, &batch, 0xEE).unwrap_err();
    }

    let cluster = spawn_file(1, dir.path(), SyncPolicy::Always, TransportKind::Chan);
    let client = cluster.client();
    let mut f = PvfsFile::create(&client, "/pvfs/crash", layout).unwrap();
    let expect = overlay(&baseline, &batch, 0xEE);
    let mut got = vec![0u8; expect.len()];
    f.read_at(0, &mut got).unwrap();
    assert_eq!(
        got, expect,
        "a batch committed after a checkpoint must replay in full"
    );
    let snap = cluster.daemon(ServerId(0)).unwrap().ledger().snapshot();
    assert_eq!(snap.journal_replays, 1, "exactly the one record replays");
}

#[test]
fn partially_applied_batch_is_completed_not_double_applied() {
    let dir = ScratchDir::new("dur-partial");
    let layout = StripeLayout::new(0, 1, 1 << 16).unwrap();
    let batch = crash_batch();
    {
        let cluster = spawn_file(1, dir.path(), SyncPolicy::Always, TransportKind::Chan);
        let client = cluster.client();
        let mut f = PvfsFile::create(&client, "/pvfs/crash", layout).unwrap();
        // Touch the handle so the daemon has a store to wedge.
        f.write_at(0, &[0u8; 16]).unwrap();
        // Crash with some of the batch's runs already in the data file:
        // replay must be idempotent over the applied prefix.
        let daemon = cluster.daemon(ServerId(0)).unwrap();
        daemon.inject_storage_crash(f.handle(), CrashPoint::AfterCommit { applied: 5 });
        list_write(&mut f, &batch, 0xEE).unwrap_err();
    }

    let cluster = spawn_file(1, dir.path(), SyncPolicy::Always, TransportKind::Chan);
    let client = cluster.client();
    let mut f = PvfsFile::create(&client, "/pvfs/crash", layout).unwrap();
    let expect = overlay(&[], &batch, 0xEE);
    let mut got = vec![0u8; expect.len()];
    f.read_at(0, &mut got).unwrap();
    assert_eq!(got, expect);
}

#[test]
fn recovered_tail_reads_as_holes_not_journal_bytes() {
    let dir = ScratchDir::new("dur-holes");
    let layout = StripeLayout::new(0, 1, 1 << 16).unwrap();
    {
        let cluster = spawn_file(1, dir.path(), SyncPolicy::Always, TransportKind::Chan);
        let client = cluster.client();
        let mut f = PvfsFile::create(&client, "/pvfs/sparse", layout).unwrap();
        // One region floating in a sea of holes.
        list_write(&mut f, &[Region::new(100, 10)], 0x77).unwrap();
        assert!(f.sync().unwrap() >= 110);
    }

    let cluster = spawn_file(1, dir.path(), SyncPolicy::Always, TransportKind::Chan);
    let client = cluster.client();
    let mut f = PvfsFile::create(&client, "/pvfs/sparse", layout).unwrap();
    assert_eq!(f.size().unwrap(), 110);
    // The journal file still sits next to the data file, but nothing of
    // it may leak into reads: holes and the tail past the recovered
    // size are zeros.
    let mut got = vec![0xFFu8; 200];
    f.read_at(0, &mut got).unwrap();
    let mut expect = vec![0u8; 200];
    expect[100..110].fill(0x77);
    assert_eq!(got, expect);
}

#[test]
fn sync_sums_durable_bytes_across_servers() {
    let dir = ScratchDir::new("dur-sync");
    let layout = StripeLayout::new(0, 4, 256).unwrap();
    let cluster = spawn_file(4, dir.path(), SyncPolicy::Never, TransportKind::Chan);
    let client = cluster.client();
    let mut f = PvfsFile::create(&client, "/pvfs/fan", layout).unwrap();
    f.write_at(0, &verify::content(0, 4096)).unwrap();
    // Under `never` nothing is durable until the explicit barrier.
    assert_eq!(f.sync().unwrap(), 4096);
    // Idempotent: a second barrier still reports the durable total.
    assert_eq!(f.sync().unwrap(), 4096);
}

#[test]
fn memory_backend_reports_nothing_durable() {
    let cluster = spawn_mem(4, TransportKind::Chan);
    let client = cluster.client();
    let layout = StripeLayout::new(0, 4, 256).unwrap();
    let mut f = PvfsFile::create(&client, "/pvfs/mem", layout).unwrap();
    f.write_at(0, &verify::content(0, 4096)).unwrap();
    assert_eq!(f.sync().unwrap(), 0);
}

/// Run the same noncontiguous write program against a memory-backed and
/// a file-backed cluster and demand identical observable state.
fn assert_backends_agree(ops: &[(Vec<Region>, u8)], kind: TransportKind) {
    let dir = ScratchDir::new("dur-equiv");
    let layout = StripeLayout::new(0, 2, 512).unwrap();
    let mem = spawn_mem(2, kind);
    let file = spawn_file(
        2,
        dir.path(),
        SyncPolicy::Interval(std::time::Duration::ZERO),
        kind,
    );
    let mut fm = PvfsFile::create(&mem.client(), "/pvfs/e", layout).unwrap();
    let mut ff = PvfsFile::create(&file.client(), "/pvfs/e", layout).unwrap();
    for (regions, fill) in ops {
        list_write(&mut fm, regions, *fill).unwrap();
        list_write(&mut ff, regions, *fill).unwrap();
    }
    let size_m = fm.size().unwrap();
    let size_f = ff.size().unwrap();
    assert_eq!(size_m, size_f, "sizes diverge between backends");
    let mut got_m = vec![0u8; size_m as usize + 64];
    let mut got_f = vec![0u8; size_m as usize + 64];
    fm.read_at(0, &mut got_m).unwrap();
    ff.read_at(0, &mut got_f).unwrap();
    assert_eq!(got_m, got_f, "read-back diverges between backends");
    // A barrier on the file backend must not change what reads see.
    ff.sync().unwrap();
    let mut again = vec![0u8; size_m as usize + 64];
    ff.read_at(0, &mut again).unwrap();
    assert_eq!(again, got_m);
}

/// Turn proptest's raw (gap, len) pairs into a sorted, disjoint region
/// list — the shape `RegionList::from_regions` demands.
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

proptest! {
    /// Satellite: random region-list programs observe identical bytes,
    /// sizes, and hole fills on both backends, over both transports.
    #[test]
    fn backends_are_equivalent_for_random_list_writes(
        ops in proptest::collection::vec(
            (proptest::collection::vec((0u64..300, 1u64..200), 1..8), 1u8..255),
            1..4,
        ),
    ) {
        let ops: Vec<(Vec<Region>, u8)> = ops
            .iter()
            .map(|(pairs, fill)| (disjoint(pairs), *fill))
            .collect();
        assert_backends_agree(&ops, TransportKind::Chan);
        assert_backends_agree(&ops, TransportKind::Tcp);
    }
}
