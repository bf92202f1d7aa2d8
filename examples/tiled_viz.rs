//! Tiled visualization read (§4.4 of the paper): six display clients
//! each read their overlapping tile of a 10.2 MiB frame — live for
//! correctness, simulated for the Fig. 17 open/read/close breakdown.
//!
//! ```text
//! cargo run --release --example tiled_viz
//! ```

use pvfs::client::PvfsFile;
use pvfs::core::{IoKind, Method, MethodConfig};
use pvfs::net::LiveCluster;
use pvfs::server::IodConfig;
use pvfs::sim::{metadata_rtt_ns, ClientJob, CostConfig, SimCluster};
use pvfs::types::{FileHandle, StripeLayout};
use pvfs::workloads::{verify, TiledViz};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let wall = TiledViz::paper();
    println!(
        "tiled wall: {}x{} displays of {}x{} @ {}bpp, frame {}x{} = {:.1} MiB, {} rows/tile",
        wall.tiles_x,
        wall.tiles_y,
        wall.display_w,
        wall.display_h,
        wall.bytes_per_pixel * 8,
        wall.frame_w(),
        wall.frame_h(),
        wall.file_size() as f64 / (1 << 20) as f64,
        wall.regions_per_client()
    );

    // ---- live pass: seed the frame, read every tile with list I/O,
    // verify pixels against the oracle.
    let cluster = LiveCluster::spawn(8);
    let layout = StripeLayout::paper_default(8);
    let client = cluster.client();
    let mut frame = PvfsFile::create(&client, "/pvfs/frame.rgb", layout)?;
    let content = verify::content(0, wall.file_size() as usize);
    frame.write_at(0, &content)?;
    println!("seeded the frame file ({} bytes)", content.len());

    let mut tiles = Vec::new();
    for rank in 0..wall.clients() {
        let c = cluster.client();
        tiles.push(std::thread::spawn(move || {
            let wall = TiledViz::paper();
            let mut f = PvfsFile::open(&c, "/pvfs/frame.rgb").expect("open");
            let req = wall.request_for(rank).expect("tile request");
            let mut tile = vec![0u8; req.total_len() as usize];
            let report = f
                .read_list(&req.mem, &req.file, &mut tile, Method::List)
                .expect("tile read");
            // Verify each row against the oracle.
            let row_bytes = (wall.display_w * wall.bytes_per_pixel) as usize;
            for (i, region) in req.file.iter().enumerate() {
                let got = &tile[i * row_bytes..(i + 1) * row_bytes];
                let want = verify::content(region.offset, row_bytes);
                assert_eq!(got, want, "tile {rank} row {i} corrupt");
            }
            report.requests
        }));
    }
    for (rank, t) in tiles.into_iter().enumerate() {
        let requests = t.join().unwrap();
        println!("tile {rank}: verified 768 rows in {requests} list requests");
    }

    // ---- simulated Fig. 17: open / read / close per method.
    println!("\nsimulated 6-client tile read (Fig. 17):");
    println!(
        "{:<20} {:>10} {:>10} {:>10} {:>10}",
        "method", "open s", "read s", "close s", "requests"
    );
    let cost = CostConfig::paper_default();
    let meta = metadata_rtt_ns(&cost) as f64 / 1e9;
    for method in [Method::Multiple, Method::DataSieving, Method::List] {
        let mut sim = SimCluster::new(8, IodConfig::default(), cost);
        sim.seed_warm(FileHandle(7), &layout, wall.file_size());
        let cfg = MethodConfig::paper_default();
        let jobs: Vec<ClientJob> = (0..wall.clients())
            .map(|rank| {
                let req = wall.request_for(rank).expect("tile request");
                let plan =
                    pvfs::core::plan(method, IoKind::Read, &req, FileHandle(7), layout, &cfg)
                        .expect("plan");
                let len = req.total_len() as usize;
                ClientJob {
                    plan,
                    user: vec![0u8; len],
                }
            })
            .collect();
        let (report, _) = sim.run(jobs).expect("simulate");
        println!(
            "{:<20} {:>10.4} {:>10.4} {:>10.4} {:>10}",
            method.name(),
            meta,
            report.seconds(),
            meta,
            report.total_requests()
        );
    }
    Ok(())
}
