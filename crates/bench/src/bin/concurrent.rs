//! Concurrent-clients scaling benchmark for the live cluster.
//!
//! Eight client threads issue the paper's 1-D cyclic list-I/O pattern
//! (Fig. 7 geometry) against a 4-server live cluster, once with a
//! single worker thread per I/O daemon (the old one-thread-per-daemon
//! design) and once with a 4-worker pool. Each request carries an
//! emulated service latency ([`pvfs_server::IodConfig::emulated_latency`])
//! standing in for the disk + network time of a real daemon; the worker
//! pool's job is to overlap that latency across concurrent clients.
//!
//! Prints aggregate read throughput for both configurations and the
//! pool-over-serial speedup. Run with `cargo run --release -p
//! pvfs-bench --bin concurrent [-- --transport chan|tcp]`; the flag
//! selects in-process channels (default) or real TCP loopback sockets,
//! so the same run doubles as a chan-vs-tcp transport comparison.

use pvfs_client::PvfsFile;
use pvfs_core::Method;
use pvfs_net::{LiveCluster, TransportKind};
use pvfs_server::IodConfig;
use pvfs_types::StripeLayout;
use pvfs_workloads::Cyclic;
use std::time::{Duration, Instant};

const SERVERS: u32 = 4;
const CLIENTS: u64 = 8;
const ACCESSES_PER_CLIENT: u64 = 64;
const AGGREGATE_BYTES: u64 = 4 << 20; // 4 MiB per pass across all clients
const PASSES: u64 = 8;
// 2 KiB stripes make each 8 KiB cyclic access span all four servers, so
// every client keeps every server loaded — the contended regime a
// worker pool exists for. (With accesses aligned to the server period,
// each client would talk to one server and per-server concurrency would
// cap at clients/servers.)
const STRIPE: u64 = 2 * 1024;
const SERVICE_LATENCY: Duration = Duration::from_millis(2);

/// One full run: spawn a cluster with `workers` threads per daemon,
/// populate the file, then let 8 client threads read their cyclic
/// shares for `PASSES` passes. Returns aggregate MiB/s.
fn run(workers: usize, transport: TransportKind) -> f64 {
    let config = IodConfig {
        workers,
        emulated_latency: Some(SERVICE_LATENCY),
        ..IodConfig::default()
    };
    let cluster = LiveCluster::spawn_transport(SERVERS, config, transport);
    let layout = StripeLayout::new(0, SERVERS, STRIPE).unwrap();
    let pattern = Cyclic {
        clients: CLIENTS,
        accesses_per_client: ACCESSES_PER_CLIENT,
        aggregate_bytes: AGGREGATE_BYTES,
    };

    // Populate the whole file once so every read hits real data.
    let setup = cluster.client();
    let mut f = PvfsFile::create(&setup, "/pvfs/concurrent", layout).unwrap();
    let data = vec![0xabu8; pattern.file_size() as usize];
    f.write_at(0, &data).unwrap();
    f.close().unwrap();

    let start = Instant::now();
    let mut threads = Vec::new();
    for rank in 0..CLIENTS {
        let client = cluster.client();
        threads.push(std::thread::spawn(move || {
            let mut f = PvfsFile::open(&client, "/pvfs/concurrent").unwrap();
            let request = pattern.request_for(rank).unwrap();
            let mut buf = vec![0u8; request.total_len() as usize];
            for _ in 0..PASSES {
                f.read_list(&request.mem, &request.file, &mut buf, Method::List)
                    .unwrap();
            }
            assert!(buf.iter().all(|b| *b == 0xab), "rank {rank} read bad data");
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let requests: u64 = (0..SERVERS)
        .map(|s| {
            cluster
                .stats_snapshot(pvfs_types::ServerId(s))
                .map(|st| st.requests)
                .unwrap_or(0)
        })
        .sum();
    eprintln!("  [workers={workers}] {requests} requests served in {elapsed:.3}s");
    let total_bytes = (AGGREGATE_BYTES * PASSES) as f64;
    total_bytes / elapsed / (1024.0 * 1024.0)
}

fn main() {
    let mut transport = TransportKind::from_env();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--transport" => {
                let v = args.next().unwrap_or_default();
                transport = TransportKind::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown transport '{v}' (chan|tcp)");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!("usage: concurrent [--transport chan|tcp]");
                return;
            }
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    println!(
        "concurrent-clients benchmark: {CLIENTS} clients x {ACCESSES_PER_CLIENT} accesses, \
         {SERVERS} servers, {PASSES} passes of {} MiB aggregate, {:?} emulated service latency, \
         {transport} transport",
        AGGREGATE_BYTES >> 20,
        SERVICE_LATENCY
    );
    let serial = run(1, transport);
    println!("workers=1   {serial:>10.1} MiB/s  (one-thread-per-daemon baseline)");
    let pooled = run(4, transport);
    println!("workers=4   {pooled:>10.1} MiB/s  (per-daemon worker pool)");
    let speedup = pooled / serial;
    println!("speedup     {speedup:>10.2}x");
    if speedup < 2.0 {
        println!("WARNING: pooled speedup below the 2x target");
        std::process::exit(1);
    }
}
