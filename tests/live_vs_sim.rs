//! Cross-crate contract: the live threaded cluster and the virtual-time
//! simulator must move byte-identical data for the same plans, because
//! the paper comparison is only meaningful if the timed code path *is*
//! the verified code path.

use pvfs::client::PvfsFile;
use pvfs::core::{plan, IoKind, Method, MethodConfig};
use pvfs::net::LiveCluster;
use pvfs::server::IodConfig;
use pvfs::sim::{ClientJob, CostConfig, SimCluster};
use pvfs::types::{FileHandle, StripeLayout};
use pvfs::workloads::{verify, BlockBlock, Cyclic, FlashIo, TiledViz};

const FH: FileHandle = FileHandle(11);

/// Read `request` through the simulator from a file seeded with the
/// canonical content.
fn sim_read(
    request: &pvfs::core::ListRequest,
    method: Method,
    layout: StripeLayout,
    file_size: u64,
) -> Vec<u8> {
    let mut sim = SimCluster::new(8, IodConfig::default(), CostConfig::paper_default());
    sim.seed_file(FH, &layout, &verify::content(0, file_size as usize));
    let cfg = MethodConfig::paper_default();
    let p = plan(method, IoKind::Read, request, FH, layout, &cfg).unwrap();
    let user = vec![0u8; request.mem.extent().map(|e| e.end()).unwrap_or(0) as usize];
    let (_, mut users) = sim.run(vec![ClientJob { plan: p, user }]).unwrap();
    users.pop().unwrap()
}

/// Read `request` through the live threaded cluster from a file seeded
/// with the canonical content.
fn live_read(
    request: &pvfs::core::ListRequest,
    method: Method,
    layout: StripeLayout,
    file_size: u64,
) -> Vec<u8> {
    let cluster = LiveCluster::spawn(8);
    let client = cluster.client();
    let mut f = PvfsFile::create(&client, "/pvfs/x", layout).unwrap();
    f.write_at(0, &verify::content(0, file_size as usize))
        .unwrap();
    let mut buf = vec![0u8; request.mem.extent().map(|e| e.end()).unwrap_or(0) as usize];
    f.read_list(&request.mem, &request.file, &mut buf, method)
        .unwrap();
    buf
}

#[test]
fn cyclic_reads_agree_between_live_and_sim() {
    let layout = StripeLayout::new(0, 8, 1024).unwrap();
    let pattern = Cyclic {
        clients: 4,
        accesses_per_client: 64,
        aggregate_bytes: 1 << 20,
    };
    let request = pattern.request_for(2).unwrap();
    for method in Method::ALL {
        let sim = sim_read(&request, method, layout, pattern.file_size());
        let live = live_read(&request, method, layout, pattern.file_size());
        assert_eq!(sim, live, "live/sim divergence for {method}");
        // And both match the oracle.
        let mut expected = Vec::new();
        for r in request.file.iter() {
            expected.extend_from_slice(&verify::content(r.offset, r.len as usize));
        }
        assert_eq!(sim, expected, "oracle mismatch for {method}");
    }
}

#[test]
fn blockblock_reads_agree_between_live_and_sim() {
    let layout = StripeLayout::new(0, 8, 512).unwrap();
    let pattern = BlockBlock {
        clients: 4,
        accesses_per_client: 32,
        aggregate_bytes: 1 << 18,
    };
    let request = pattern.request_for(3).unwrap();
    for method in [Method::Multiple, Method::DataSieving, Method::List] {
        let sim = sim_read(&request, method, layout, pattern.file_size());
        let live = live_read(&request, method, layout, pattern.file_size());
        assert_eq!(sim, live, "live/sim divergence for {method}");
    }
}

#[test]
fn tiled_reads_agree_between_live_and_sim() {
    // A shrunken wall (the paper geometry at 1/8 resolution) keeps the
    // live pass fast while preserving overlap structure.
    let wall = TiledViz {
        tiles_x: 3,
        tiles_y: 2,
        display_w: 128,
        display_h: 96,
        overlap_x: 33,
        overlap_y: 16,
        bytes_per_pixel: 3,
    };
    let layout = StripeLayout::new(0, 8, 2048).unwrap();
    let request = wall.request_for(4).unwrap();
    for method in [Method::List, Method::Hybrid] {
        let sim = sim_read(&request, method, layout, wall.file_size());
        let live = live_read(&request, method, layout, wall.file_size());
        assert_eq!(sim, live, "live/sim divergence for {method}");
    }
}

#[test]
fn flash_checkpoints_agree_between_live_and_sim() {
    // Write path: both executors must leave identical files.
    let flash = FlashIo::scaled(2, 3);
    let layout = StripeLayout::new(0, 8, 1024).unwrap();
    let file_size = flash.file_size() as usize;

    // Simulated: both procs write, then dump every daemon's bytes.
    let mut sim = SimCluster::new(8, IodConfig::default(), CostConfig::paper_default());
    let cfg = MethodConfig::paper_default();
    let jobs: Vec<ClientJob> = (0..2)
        .map(|p| {
            let req = flash.request_for(p).unwrap();
            ClientJob {
                plan: plan(Method::List, IoKind::Write, &req, FH, layout, &cfg).unwrap(),
                user: verify::content(p * 1_000_000, flash.mem_bytes() as usize),
            }
        })
        .collect();
    sim.run(jobs).unwrap();
    let mut sim_file = vec![0u8; file_size];
    for seg in layout.segments(pvfs::types::Region::new(0, file_size as u64)) {
        let daemon = sim.daemon(seg.server);
        if let Some(piece) = daemon.with_local_file(FH, |f| {
            f.peek_vec(seg.local_offset, seg.logical.len as usize)
        }) {
            sim_file[seg.logical.offset as usize..seg.logical.end() as usize]
                .copy_from_slice(&piece);
        }
    }

    // Live: same writes through threads, then a contiguous read-back.
    let cluster = LiveCluster::spawn(8);
    let setup = cluster.client();
    PvfsFile::create(&setup, "/pvfs/flash", layout)
        .unwrap()
        .close()
        .unwrap();
    let mut writers = Vec::new();
    for p in 0..2u64 {
        let client = cluster.client();
        writers.push(std::thread::spawn(move || {
            let flash = FlashIo::scaled(2, 3);
            let mut f = PvfsFile::open(&client, "/pvfs/flash").unwrap();
            let req = flash.request_for(p).unwrap();
            let mem = verify::content(p * 1_000_000, flash.mem_bytes() as usize);
            f.write_list(&req.mem, &req.file, &mem, Method::List)
                .unwrap();
        }));
    }
    for w in writers {
        w.join().unwrap();
    }
    let mut live_file = vec![0u8; file_size];
    let mut reader = PvfsFile::open(&cluster.client(), "/pvfs/flash").unwrap();
    reader.read_at(0, &mut live_file).unwrap();

    assert_eq!(sim_file, live_file, "sim and live checkpoint files differ");
}
