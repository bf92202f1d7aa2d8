//! Plan inspector: compile every paper workload under every access
//! method and print what would go over the wire — request counts, wire
//! traffic, waste, copies — by tallying the plan's steps, without
//! running anything. This is §3.4's "analysis of different approaches"
//! as an executable table.
//!
//! ```text
//! cargo run --release --example access_patterns
//! ```

use pvfs::core::{plan, IoKind, ListRequest, Method, MethodConfig};
use pvfs::types::{FileHandle, RegionList, StripeLayout};
use pvfs::workloads::{BlockBlock, Cyclic, FlashIo, TiledViz};

fn inspect(name: &str, request: &ListRequest, kind: IoKind) {
    let layout = StripeLayout::paper_default(8);
    let cfg = MethodConfig::paper_default();
    println!(
        "\n== {name} ({:?}): {} file regions, {} memory fragments, {} KiB useful ==",
        kind,
        request.file.count(),
        request.mem.count(),
        request.total_len() >> 10
    );
    println!(
        "{:<20} {:>10} {:>8} {:>14} {:>14} {:>12}",
        "method", "requests", "rounds", "wire KiB", "waste KiB", "copies KiB"
    );
    for method in Method::ALL {
        if kind == IoKind::Write && method == Method::DataSieving {
            // RMW + serialization: shown too, the paper avoided it for
            // the artificial benchmark but used it for FLASH.
        }
        match plan(method, kind, request, FileHandle(1), layout, &cfg) {
            Ok(p) => {
                let t = p.tally();
                println!(
                    "{:<20} {:>10} {:>8} {:>14} {:>14} {:>12}",
                    method.name(),
                    t.requests,
                    t.rounds,
                    t.wire_bytes >> 10,
                    (t.wire_bytes - request.total_len()) >> 10,
                    t.copy_bytes >> 10
                )
            }
            Err(e) => println!("{:<20} failed: {e}", method.name()),
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1-D cyclic: 8 clients, 64 Ki accesses over 256 MiB => 512 B/access.
    let cyclic = Cyclic {
        clients: 8,
        accesses_per_client: 65_536,
        aggregate_bytes: 256 << 20,
    };
    inspect(
        "1-D cyclic, client 0",
        &cyclic.request_for(0)?,
        IoKind::Read,
    );
    inspect(
        "1-D cyclic, client 0",
        &cyclic.request_for(0)?,
        IoKind::Write,
    );

    // Block-block: 16 clients.
    let bb = BlockBlock {
        clients: 16,
        accesses_per_client: 65_536,
        aggregate_bytes: 256 << 20,
    };
    inspect("block-block, client 5", &bb.request_for(5)?, IoKind::Read);

    // FLASH I/O (scaled to 8 blocks to keep the table instant).
    let flash = FlashIo::scaled(4, 8);
    inspect(
        "FLASH checkpoint, proc 0",
        &flash.request_for(0)?,
        IoKind::Write,
    );

    // Tiled visualization.
    let wall = TiledViz::paper();
    inspect("tiled viz, tile 0", &wall.request_for(0)?, IoKind::Read);

    // CHARISMA-style nested-strided sweep (the paper's ref [7] shapes):
    // 64 planes of 32 rows, 128 bytes per row position.
    let nested = RegionList::from_pairs(
        (0..64u64)
            .flat_map(|plane| (0..32u64).map(move |row| (plane * (1 << 20) + row * 8192, 128))),
    )?;
    inspect(
        "nested-strided sweep",
        &ListRequest::gather(nested),
        IoKind::Read,
    );

    println!(
        "\nKey quantities the paper quotes: tiled viz multiple={} list={} requests;",
        wall.regions_per_client(),
        wall.regions_per_client().div_ceil(64)
    );
    println!(
        "FLASH (full 80 blocks) multiple={} list={} requests/proc.",
        FlashIo::new(4).mem_region_count(),
        FlashIo::new(4).file_region_count().div_ceil(64)
    );
    Ok(())
}
