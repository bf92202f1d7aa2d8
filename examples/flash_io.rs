//! FLASH I/O checkpoint write (§4.3 of the paper) under each
//! noncontiguous access method — live mini-cluster for correctness,
//! simulated Chiba City cluster for Fig. 15-style timing.
//!
//! ```text
//! cargo run --release --example flash_io [nprocs] [blocks]
//! ```

use pvfs::client::PvfsFile;
use pvfs::core::{IoKind, Method, MethodConfig};
use pvfs::net::LiveCluster;
use pvfs::sim::{ClientJob, SimCluster};
use pvfs::types::{FileHandle, StripeLayout};
use pvfs::workloads::FlashIo;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let nprocs: u64 = args.next().map(|s| s.parse()).transpose()?.unwrap_or(4);
    let blocks: u64 = args.next().map(|s| s.parse()).transpose()?.unwrap_or(8);
    let flash = FlashIo::scaled(nprocs, blocks);
    println!(
        "FLASH I/O: {nprocs} procs × {blocks} blocks; {} bytes/proc, {} mem fragments/proc, {} file regions/proc",
        flash.data_bytes_per_proc(),
        flash.mem_region_count(),
        flash.file_region_count()
    );

    // ---- live correctness pass: every proc checkpoints with list I/O
    // and the file is verified afterwards.
    let cluster = LiveCluster::spawn(8);
    let layout = StripeLayout::paper_default(8);
    let setup = cluster.client();
    PvfsFile::create(&setup, "/pvfs/flash.chk", layout)?.close()?;
    let mut writers = Vec::new();
    for p in 0..nprocs {
        let client = cluster.client();
        writers.push(std::thread::spawn(move || {
            let mut f = PvfsFile::open(&client, "/pvfs/flash.chk").expect("open");
            let req = FlashIo::scaled(nprocs, blocks)
                .request_for(p)
                .expect("request");
            // Fill this proc's mesh with a recognizable value.
            let mut mem = vec![0u8; FlashIo::scaled(nprocs, blocks).mem_bytes() as usize];
            mem.fill(p as u8 + 1);
            f.write_list(&req.mem, &req.file, &mem, Method::List)
                .expect("checkpoint");
        }));
    }
    for w in writers {
        w.join().unwrap();
    }
    // Verify: every proc's chunks carry its value.
    let mut reader = PvfsFile::open(&cluster.client(), "/pvfs/flash.chk")?;
    let mut chunk = vec![0u8; 4096];
    for p in 0..nprocs {
        let off = flash.file_chunk_offset(3, blocks / 2, p);
        reader.read_at(off, &mut chunk)?;
        assert!(
            chunk.iter().all(|b| *b == p as u8 + 1),
            "proc {p} chunk corrupt"
        );
    }
    println!("live checkpoint verified across {nprocs} writer threads");

    // ---- simulated timing pass (Fig. 15): all three paper methods.
    println!("\nsimulated Chiba City checkpoint times:");
    println!("{:<20} {:>12} {:>12}", "method", "seconds", "requests");
    for method in [Method::Multiple, Method::DataSieving, Method::List] {
        let mut sim = SimCluster::new(8);
        let cfg = MethodConfig::paper_default();
        let jobs: Vec<ClientJob> = (0..nprocs)
            .map(|p| {
                let req = flash.request_for(p).expect("request");
                let plan =
                    pvfs::core::plan(method, IoKind::Write, &req, FileHandle(7), layout, &cfg)
                        .expect("plan");
                ClientJob {
                    plan,
                    user: vec![p as u8 + 1; flash.mem_bytes() as usize],
                }
            })
            .collect();
        let (report, _) = sim.run(jobs).expect("simulate");
        println!(
            "{:<20} {:>12.2} {:>12}",
            method.name(),
            report.seconds(),
            report.total_requests()
        );
    }
    Ok(())
}
