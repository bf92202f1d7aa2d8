//! A tour of PVFS user-controlled striping (Fig. 2): how logical file
//! bytes map onto I/O servers, and how the choice of stripe parameters
//! changes which servers a noncontiguous access touches.
//!
//! ```text
//! cargo run --example striping
//! ```

use pvfs::client::PvfsFile;
use pvfs::core::planutil::servers_for;
use pvfs::net::LiveCluster;
use pvfs::types::{Region, StripeLayout};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = LiveCluster::spawn(8);
    let client = cluster.client();

    println!("stripe mapping for three layouts over an 8-server cluster:\n");
    for (name, layout) in [
        (
            "paper default (8-way, 16 KiB)",
            StripeLayout::paper_default(8),
        ),
        (
            "narrow (4-way from node 2, 4 KiB)",
            StripeLayout::new(2, 4, 4096)?,
        ),
        (
            "wide-striped small (8-way, 1 KiB)",
            StripeLayout::new(0, 8, 1024)?,
        ),
    ] {
        println!("-- {name} --");
        for offset in [0u64, 10_000, 100_000, 1 << 20] {
            let (server, local) = layout.to_local(offset);
            println!("  logical {offset:>9} -> {server} local offset {local}");
        }
        // Which servers does a 150-byte strided pattern hit?
        let small = Region::new(5_000, 150);
        let big = Region::new(0, 512 * 1024);
        println!(
            "  150 B access touches {:?}; 512 KiB access touches {} servers",
            servers_for(&layout, [small])
                .map(|s| s.0)
                .collect::<Vec<_>>(),
            servers_for(&layout, [big]).len()
        );
        println!();
    }

    // Write through one layout, confirm the data lands where the map
    // says by reading through an independently opened handle.
    let layout = StripeLayout::new(2, 4, 4096)?;
    let mut f = PvfsFile::create(&client, "/pvfs/striping-demo", layout)?;
    let data: Vec<u8> = (0..40_000u32).map(|i| (i % 256) as u8).collect();
    f.write_at(0, &data)?;
    f.close()?;

    let mut g = PvfsFile::open(&cluster.client(), "/pvfs/striping-demo")?;
    assert_eq!(g.layout(), layout);
    let mut back = vec![0u8; data.len()];
    g.read_at(0, &mut back)?;
    assert_eq!(back, data);
    println!(
        "wrote and re-read {} bytes through layout base={} pcount={} ssize={}",
        data.len(),
        layout.base,
        layout.pcount,
        layout.ssize
    );
    println!("file size per the I/O daemons: {}", g.size()?);
    Ok(())
}
