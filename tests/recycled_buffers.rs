//! What recycling the frame path's buffers must never do: show one
//! request's bytes to another.
//!
//! A daemon's read buffer, a client's payload and head buffers and both
//! ends' receive buffers all come round again dirty (`pvfs::net::spares`).
//! Two properties keep that invisible, and each gets a test against live
//! clusters here: a read writes *every* byte of the share it answers
//! with — holes, the tail past EOF and never-written handles are zeros,
//! whatever the buffer held — and a buffer something still views (a
//! frame that timed out, was wedged or dropped) is never handed out
//! again.

use bytes::Bytes;
use pvfs::client::PvfsFile;
use pvfs::core::Method;
use pvfs::disk::{ScratchDir, StorageConfig, SyncPolicy};
use pvfs::net::{
    BreakerPolicy, ClusterClient, FaultPlan, LiveCluster, RetryPolicy, RpcTarget, TransportKind,
    WINDOW,
};
use pvfs::proto::{Request, Response};
use pvfs::server::IodConfig;
use pvfs::types::{FileHandle, PvfsError, Region, RegionList, ServerId, StripeLayout};
use pvfs::workloads::{verify, Cyclic};
use std::time::Duration;

const IOD: RpcTarget = RpcTarget::Server(ServerId(0));

fn read(client: &ClusterClient, handle: FileHandle, offset: u64, len: u64) -> Bytes {
    let layout = StripeLayout::new(0, 1, 4096).unwrap();
    let region = Region::new(offset, len);
    let request = Request::Read {
        handle,
        layout,
        region,
    };
    match client.call(IOD, request).unwrap() {
        Response::Data { data } => data,
        other => panic!("read of {region} answered {other:?}"),
    }
}

/// One daemon, one client — so one connection, one set of scratch —
/// first made to hold `0xAB` in every read buffer it has, then asked for
/// bytes that were never written, in replies longer and shorter than the
/// dirty one.
fn reads_of_unwritten_bytes_are_zeros(kind: TransportKind, storage: StorageConfig) {
    const DIRTY: u64 = 8192;
    /// The file: `0xAB` in `[0, DIRTY)` and in `[FAR, EOF)`, a hole
    /// between.
    const FAR: u64 = 64 * 1024;
    const EOF: u64 = FAR + 4096;
    let what = format!("{kind}, {storage:?}");
    let cluster = LiveCluster::spawn_storage(1, IodConfig::default(), kind, storage);
    let client = cluster.client();
    let layout = StripeLayout::new(0, 1, 4096).unwrap();
    let (written, untouched) = (FileHandle(7), FileHandle(8));
    for region in [Region::new(0, DIRTY), Region::new(FAR, EOF - FAR)] {
        let data = Bytes::from(vec![0xAB; region.len as usize]);
        let request = Request::Write {
            handle: written,
            layout,
            region,
            data,
        };
        let bytes = region.len;
        assert_eq!(
            client.call(IOD, request).unwrap(),
            Response::Written { bytes }
        );
    }
    // Twice round the window: whichever buffer serves the next read has
    // held the dirty reply. And over chan, where a reply's payload *is*
    // the buffer the daemon gathered it into, see that one does: once the
    // lane has made its window's worth, a reply lies where an earlier one
    // lay (were each in a buffer of its own, none of this would test
    // anything).
    let seen = std::cell::RefCell::new(Vec::new());
    let dirty = || {
        for _ in 0..2 * WINDOW {
            let data = read(&client, written, 0, DIRTY);
            assert!(data.len() as u64 == DIRTY && data.iter().all(|b| *b == 0xAB));
            let mut seen = seen.borrow_mut();
            assert!(
                kind != TransportKind::Chan || seen.len() < WINDOW || seen.contains(&data.as_ptr()),
                "{what}: read {} has a buffer of its own",
                seen.len()
            );
            seen.push(data.as_ptr());
        }
    };
    for len in [1000, 20_000] {
        // (handle, offset, how many leading bytes are data)
        let cases = [
            ("a hole inside the file", written, 16 * 1024, 0),
            ("a range straddling EOF", written, EOF - 500, 500),
            ("a range wholly past EOF", written, 1 << 20, 0),
            ("a never-written handle", untouched, 0, 0),
        ];
        for (case, handle, offset, data_bytes) in cases {
            dirty();
            let got = read(&client, handle, offset, len);
            seen.borrow_mut().push(got.as_ptr());
            assert_eq!(got.len() as u64, len, "{what}: {case}, {len} bytes");
            let (data, zeros) = got.split_at(data_bytes);
            assert!(
                data.iter().all(|b| *b == 0xAB) && zeros.iter().all(|b| *b == 0),
                "{what}: {case}, {len} bytes: a stale byte at {:?}",
                zeros.iter().position(|b| *b != 0)
            );
        }
        // A list read mixing all of them into one reply.
        dirty();
        let regions = RegionList::from_pairs([(100, 50), (20_000, len), (EOF - 10, 30)]).unwrap();
        let request = Request::ReadList {
            handle: written,
            layout,
            regions,
        };
        let Response::Data { data } = client.call(IOD, request).unwrap() else {
            panic!("{what}: list read refused");
        };
        let mut expect = vec![0u8; 50 + len as usize + 30];
        expect[..50].fill(0xAB);
        expect[50 + len as usize..][..10].fill(0xAB);
        seen.borrow_mut().push(data.as_ptr());
        assert!(data == expect, "{what}: list read over a hole and EOF");
        // A read that fails sends an error, and no part of the buffer.
        dirty();
        let misrouted = Request::Read {
            handle: written,
            layout: StripeLayout::new(5, 2, 4096).unwrap(),
            region: Region::new(0, len),
        };
        let refused = client.call(IOD, misrouted).unwrap_err();
        assert!(matches!(refused, PvfsError::Protocol(_)), "{what}");
    }
}

#[test]
fn a_recycled_read_buffer_never_shows_an_earlier_reply() {
    for kind in [TransportKind::Chan, TransportKind::Tcp] {
        reads_of_unwritten_bytes_are_zeros(kind, StorageConfig::Mem);
        let dir = ScratchDir::new("recycled-read-buffer");
        let storage = StorageConfig::File {
            dir: dir.path().to_path_buf(),
            sync: SyncPolicy::Never,
        };
        reads_of_unwritten_bytes_are_zeros(kind, storage);
    }
}

/// A reply the caller of [`ClusterClient::call`] still holds is the
/// caller's: the lane (chan) or connection (tcp) it came by takes a
/// buffer back only as its last holder, so nothing that follows on the
/// same lane — three windows of reads of other bytes — is written over it
/// or arrives where it lies.
#[test]
fn a_reply_the_caller_still_holds_is_never_written_again() {
    for kind in [TransportKind::Chan, TransportKind::Tcp] {
        let cluster = LiveCluster::spawn_transport(1, IodConfig::default(), kind);
        let client = cluster.client();
        let layout = StripeLayout::new(0, 1, 4096).unwrap();
        let handle = FileHandle(5);
        let content = verify::content(33, 64 * 1024);
        let request = Request::Write {
            handle,
            layout,
            region: Region::new(0, content.len() as u64),
            data: Bytes::from(content.clone()),
        };
        client.call(IOD, request).unwrap();
        const LEN: usize = 2000;
        let kept = read(&client, handle, 0, LEN as u64);
        for i in 1..=3 * WINDOW {
            let later = read(&client, handle, (i * LEN) as u64, LEN as u64);
            assert!(later == content[i * LEN..][..LEN], "{kind}: read {i}");
            let (lo, hi) = (kept.as_ptr() as usize, kept.as_ptr() as usize + LEN);
            let at = later.as_ptr() as usize;
            assert!(
                at + LEN <= lo || hi <= at,
                "{kind}: read {i} lies in the buffer of a reply still held"
            );
        }
        assert!(kept == content[..LEN], "{kind}: the kept reply changed");
    }
}

/// Frames that are dropped, cut off, mangled or never answered — their
/// buffers possibly still held somewhere when the op gives up on them or
/// sends them again — while every op writes different bytes through the
/// same spares: whatever was handed out again too early would show in
/// the read-back.
#[test]
fn faults_never_put_a_buffer_still_in_use_back_in_circulation() {
    for kind in [TransportKind::Chan, TransportKind::Tcp] {
        let mut cluster = LiveCluster::spawn_transport(4, IodConfig::default(), kind);
        cluster.inject_faults(FaultPlan {
            drop: 0.04,
            disconnect: 0.04,
            corrupt: 0.03,
            wedge: 0.005,
            seed: 18,
            ..FaultPlan::default()
        });
        // A wedged frame is given up on after 100 ms — with the daemon
        // long done with it or not. (No breaker: at this fault rate
        // three failures in a row at one daemon are a matter of time,
        // and an open breaker fails the op rather than the frame.)
        let client = cluster
            .client()
            .with_rpc_timeout(Duration::from_millis(100))
            .with_breaker_policy(BreakerPolicy::off())
            .with_retry_policy(RetryPolicy {
                max_attempts: 8,
                ..RetryPolicy::default()
            });
        let pattern = Cyclic {
            clients: 8,
            accesses_per_client: 1024,
            aggregate_bytes: 8 * 1024 * 128,
        };
        let request = pattern.request_for(5).unwrap();
        let layout = StripeLayout::new(0, 4, 16 * 1024).unwrap();
        let mut file = PvfsFile::create(&client, "/pvfs/recycled", layout).unwrap();
        let mut back = vec![0u8; request.total_len() as usize];
        for round in 0..12 {
            let content = verify::content(round, back.len());
            file.write_list(&request.mem, &request.file, &content, Method::List)
                .unwrap();
            file.read_list(&request.mem, &request.file, &mut back, Method::List)
                .unwrap();
            assert!(back == content, "{kind}: round {round} read back wrong");
        }
        let stats = client.stats();
        assert!(
            stats.faults_injected > 20 && stats.retries > 20,
            "{kind}: the faults must have bitten ({stats:?})"
        );
    }
}
