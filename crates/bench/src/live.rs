//! Live-cluster wire accounting: the paper's request-count argument
//! measured on a real transport instead of the simulator.
//!
//! [`wire`] runs one noncontiguous write per (region count, method)
//! cell against a live 4-server cluster — over in-process channels or
//! real TCP loopback sockets ([`TransportKind`]) — and reports what the
//! daemons actually saw: wall seconds, request frames received
//! (`frames_rx` in each daemon's ledger), and wire bytes in both directions.
//! List I/O rides ⌈n/64⌉ frames per server where multiple I/O pays one
//! frame per region, which is the whole §3.3 story; here the ratio is
//! counted on the wire rather than derived.

use pvfs_client::PvfsFile;
use pvfs_core::Method;
use pvfs_disk::{ScratchDir, StorageConfig, SyncPolicy};
use pvfs_net::{FaultPlan, LiveCluster, ReplicaPolicy, RetryPolicy, TransportKind, WriteQuorum};
use pvfs_server::IodConfig;
use pvfs_types::{RegionList, ServerId, StripeLayout};
use std::time::{Duration, Instant};

use crate::report::Row;
use crate::Scale;

const SERVERS: u32 = 4;
const STRIPE: u64 = 16 * 1024;
const REGION_BYTES: u64 = 128;
const STRIDE: u64 = 256;

/// Total (frames_rx, bytes_rx + bytes_tx) across every I/O daemon.
pub(crate) fn wire_totals(cluster: &LiveCluster) -> (u64, u64) {
    (0..cluster.n_servers())
        .filter_map(|s| cluster.stats_snapshot(ServerId(s)))
        .fold((0, 0), |(f, b), st| {
            (f + st.frames_rx, b + st.bytes_rx + st.bytes_tx)
        })
}

/// The `wire` figure: request frames and bytes for a strided
/// noncontiguous write of `x` regions, list vs multiple I/O, on the
/// given live transport.
pub fn wire(scale: Scale, kind: TransportKind) -> Vec<Row> {
    let region_counts: &[u64] = match scale {
        Scale::Quick => &[64],
        Scale::Mid => &[64, 256],
        Scale::Paper => &[64, 256, 1024],
    };
    let mut rows = Vec::new();
    for &n in region_counts {
        for (series, method) in [("list", Method::List), ("multiple", Method::Multiple)] {
            let cluster = LiveCluster::spawn_transport(SERVERS, IodConfig::default(), kind);
            let client = cluster.client();
            let layout = StripeLayout::new(0, SERVERS, STRIPE).unwrap();
            let mut f = PvfsFile::create(&client, "/pvfs/wire", layout).unwrap();
            let file: RegionList =
                RegionList::from_pairs((0..n).map(|i| (i * STRIDE, REGION_BYTES))).unwrap();
            let mem = RegionList::contiguous(0, n * REGION_BYTES);
            let buf = vec![0x77u8; (n * REGION_BYTES) as usize];
            let (frames_before, bytes_before) = wire_totals(&cluster);
            let started = Instant::now();
            let report = f.write_list(&mem, &file, &buf, method).unwrap();
            let seconds = started.elapsed().as_secs_f64();
            let (frames_after, bytes_after) = wire_totals(&cluster);
            rows.push(
                Row {
                    figure: "wire",
                    panel: format!("{kind} transport"),
                    series: series.into(),
                    x: n,
                    seconds,
                    requests: frames_after - frames_before,
                    wire_bytes: bytes_after - bytes_before,
                    ..Row::default()
                }
                .with_latency(&report.rpc_latency),
            );
        }
    }
    rows
}

/// The `durability` figure: what durable storage costs on the data
/// path.
///
/// Two noncontiguous write workloads — the 1-D cyclic strided pattern
/// and a FLASH checkpoint (every rank's 80-variable list write) — each
/// followed by a [`PvfsFile::sync`] barrier, against the in-memory
/// backend and the file backend at each sync policy. `requests` counts
/// the daemons' fsync calls, so the series separate exactly where the
/// storage engine pays: `mem` and `file (never)` fsync only at the
/// barrier, `file (always)` once per journaled batch.
pub fn durability(scale: Scale, kind: TransportKind) -> Vec<Row> {
    let backends: &[(&str, Option<SyncPolicy>)] = &[
        ("mem", None),
        ("file (never)", Some(SyncPolicy::Never)),
        (
            "file (interval)",
            Some(SyncPolicy::Interval(Duration::from_millis(100))),
        ),
        ("file (always)", Some(SyncPolicy::Always)),
    ];
    // (panel, x, the per-client list writes of one checkpoint:
    // memory list, file list, user buffer)
    type ListWrite = (RegionList, RegionList, Vec<u8>);
    let mut workloads: Vec<(String, u64, Vec<ListWrite>)> = Vec::new();
    let region_counts: &[u64] = match scale {
        Scale::Quick => &[64],
        Scale::Mid => &[64, 256],
        Scale::Paper => &[64, 256, 1024],
    };
    for &n in region_counts {
        let file: RegionList =
            RegionList::from_pairs((0..n).map(|i| (i * STRIDE, REGION_BYTES))).unwrap();
        let mem = RegionList::contiguous(0, n * REGION_BYTES);
        let buf = vec![0x5au8; (n * REGION_BYTES) as usize];
        workloads.push((format!("cyclic ({kind})"), n, vec![(mem, file, buf)]));
    }
    let nprocs: u64 = match scale {
        Scale::Quick => 2,
        Scale::Mid => 4,
        Scale::Paper => 8,
    };
    let flash = pvfs_workloads::FlashIo::scaled(nprocs, scale.flash_blocks());
    let ranks = (0..nprocs)
        .map(|p| {
            let req = flash.request_for(p).unwrap();
            let data = vec![(p as u8) | 0x40; flash.mem_bytes() as usize];
            (req.mem, req.file, data)
        })
        .collect();
    workloads.push((format!("flash ({kind})"), nprocs, ranks));

    let mut rows = Vec::new();
    for (panel, x, writes) in &workloads {
        for (series, policy) in backends {
            let scratch = ScratchDir::new("bench-dur");
            let storage = match policy {
                None => StorageConfig::Mem,
                Some(sync) => StorageConfig::File {
                    dir: scratch.path().to_path_buf(),
                    sync: *sync,
                },
            };
            let cluster = LiveCluster::spawn_storage(SERVERS, IodConfig::default(), kind, storage);
            let client = cluster.client();
            let layout = StripeLayout::new(0, SERVERS, STRIPE).unwrap();
            let mut f = PvfsFile::create(&client, "/pvfs/durability", layout).unwrap();
            let (_, bytes_before) = wire_totals(&cluster);
            let mut latency = pvfs_types::Histogram::new();
            let started = Instant::now();
            for (mem, file, buf) in writes {
                let report = f.write_list(mem, file, buf, Method::List).unwrap();
                latency.merge(&report.rpc_latency);
            }
            f.sync().unwrap();
            let seconds = started.elapsed().as_secs_f64();
            let (_, bytes_after) = wire_totals(&cluster);
            let fsyncs: u64 = (0..SERVERS)
                .filter_map(|s| cluster.daemon(ServerId(s)))
                .map(|d| d.ledger().snapshot().fsyncs)
                .sum();
            rows.push(
                Row {
                    figure: "durability",
                    panel: panel.clone(),
                    series: (*series).into(),
                    x: *x,
                    seconds,
                    requests: fsyncs,
                    wire_bytes: bytes_after - bytes_before,
                    ..Row::default()
                }
                .with_latency(&latency),
            );
        }
    }
    rows
}

/// The `chaos` figure: list-I/O goodput against a hostile cluster.
///
/// Runs strided list write+read iterations (64 regions × 128 B each
/// way, byte-verified) at injected fault rates of 0–20% — split
/// 2:2:1 over drop/disconnect/corrupt — with retries on (default
/// policy, 6 attempts) vs off (fail-fast). `wire_bytes` counts only
/// *verified* bytes, so the retry-off series loses goodput exactly
/// where ops die; the retry-on series must keep it byte-for-byte and
/// pay for it in `requests` (RPC attempts, retries included).
pub fn chaos(scale: Scale, kind: TransportKind) -> Vec<Row> {
    let iterations: u64 = match scale {
        Scale::Quick => 4,
        Scale::Mid => 16,
        Scale::Paper => 64,
    };
    let rates_pct: &[u64] = &[0, 5, 10, 20];
    let n: u64 = 64;
    let mut rows = Vec::new();
    for &pct in rates_pct {
        let rate = pct as f64 / 100.0;
        let retry_on = RetryPolicy {
            max_attempts: 6,
            ..RetryPolicy::default()
        };
        for (series, policy) in [("retry-on", retry_on), ("retry-off", RetryPolicy::none())] {
            let mut cluster = LiveCluster::spawn_transport(SERVERS, IodConfig::default(), kind);
            cluster.inject_faults(FaultPlan {
                drop: rate * 0.4,
                disconnect: rate * 0.4,
                corrupt: rate * 0.2,
                seed: 1000 + pct,
                ..FaultPlan::default()
            });
            // Short deadline so retry-off failures cost milliseconds,
            // not the default 10 s, at the highest rates.
            let client = cluster
                .client()
                .with_retry_policy(policy)
                .with_rpc_timeout(Duration::from_secs(2));
            let layout = StripeLayout::new(0, SERVERS, STRIPE).unwrap();
            let mut f = PvfsFile::create(&client, "/pvfs/chaos", layout).unwrap();
            let file: RegionList =
                RegionList::from_pairs((0..n).map(|i| (i * STRIDE, REGION_BYTES))).unwrap();
            let mem = RegionList::contiguous(0, n * REGION_BYTES);
            let attempts_before = client.stats().attempts;
            let latency_before = client.latency_snapshot();
            let mut verified_bytes = 0u64;
            let started = Instant::now();
            for it in 0..iterations {
                let buf =
                    vec![(it as u8).wrapping_mul(29).wrapping_add(3); (n * REGION_BYTES) as usize];
                if f.write_list(&mem, &file, &buf, Method::List).is_err() {
                    continue; // retry-off casualty: no goodput this round
                }
                let mut back = vec![0u8; buf.len()];
                if f.read_list(&mem, &file, &mut back, Method::List).is_err() {
                    continue;
                }
                if back == buf {
                    verified_bytes += 2 * buf.len() as u64;
                } else {
                    assert!(
                        series == "retry-off",
                        "retry-on must never pass corrupted data through"
                    );
                }
            }
            let seconds = started.elapsed().as_secs_f64();
            if series == "retry-on" {
                assert_eq!(
                    verified_bytes,
                    iterations * 2 * n * REGION_BYTES,
                    "retry-on must survive {pct}% faults with full goodput"
                );
            }
            rows.push(
                Row {
                    figure: "chaos",
                    panel: format!("{kind} transport"),
                    series: series.into(),
                    x: pct,
                    seconds,
                    requests: client.stats().attempts - attempts_before,
                    wire_bytes: verified_bytes,
                    ..Row::default()
                }
                .with_latency(&client.latency_snapshot().since(&latency_before)),
            );
        }
    }
    rows
}

/// The `replica` figure: what r-way mirroring costs and what it buys.
///
/// Two panels on a live cluster. The *write* panel runs the strided
/// list write at `PVFS_REPLICAS` r = 1, 2, 3 (quorum `all`):
/// `wire_bytes` scales ~r× — replication's bandwidth bill, paid by the
/// client fan-out — while `seconds` grows less than r× because the
/// copies ship in the same round-trip wave. The *read* panel runs
/// byte-verified strided list reads at r = 2, healthy vs with one
/// daemon dead (total frame drop): the degraded series must keep full
/// goodput by failing over to the mirrors, with `requests` counting the
/// RPC attempts the rescue cost.
pub fn replica(scale: Scale, kind: TransportKind) -> Vec<Row> {
    let region_counts: &[u64] = match scale {
        Scale::Quick => &[64],
        Scale::Mid => &[64, 256],
        Scale::Paper => &[64, 256, 1024],
    };
    let mut rows = Vec::new();
    // Write panel: replication overhead, r = 1..3.
    for &n in region_counts {
        for r in [1u32, 2, 3] {
            let cluster = LiveCluster::spawn_transport(SERVERS, IodConfig::default(), kind);
            let policy = ReplicaPolicy::new(r, WriteQuorum::All, SERVERS).unwrap();
            let client = cluster.client().with_replica_policy(policy);
            let layout = StripeLayout::new(0, SERVERS, STRIPE).unwrap();
            let mut f = PvfsFile::create(&client, "/pvfs/replica", layout).unwrap();
            let file: RegionList =
                RegionList::from_pairs((0..n).map(|i| (i * STRIDE, REGION_BYTES))).unwrap();
            let mem = RegionList::contiguous(0, n * REGION_BYTES);
            let buf = vec![0x2eu8; (n * REGION_BYTES) as usize];
            let (frames_before, bytes_before) = wire_totals(&cluster);
            let started = Instant::now();
            let report = f.write_list(&mem, &file, &buf, Method::List).unwrap();
            let seconds = started.elapsed().as_secs_f64();
            let (frames_after, bytes_after) = wire_totals(&cluster);
            rows.push(
                Row {
                    figure: "replica",
                    panel: format!("write fan-out ({kind})"),
                    series: format!("r={r}"),
                    x: n,
                    seconds,
                    requests: frames_after - frames_before,
                    wire_bytes: bytes_after - bytes_before,
                    ..Row::default()
                }
                .with_latency(&report.rpc_latency),
            );
        }
    }
    // Read panel: failover goodput at r = 2 with one daemon killed.
    for &n in region_counts {
        for (series, kill) in [("healthy", false), ("one daemon dead", true)] {
            let mut cluster = LiveCluster::spawn_transport(SERVERS, IodConfig::default(), kind);
            let policy = ReplicaPolicy::new(2, WriteQuorum::All, SERVERS).unwrap();
            let layout = StripeLayout::new(0, SERVERS, STRIPE).unwrap();
            let file: RegionList =
                RegionList::from_pairs((0..n).map(|i| (i * STRIDE, REGION_BYTES))).unwrap();
            let mem = RegionList::contiguous(0, n * REGION_BYTES);
            let buf = vec![0x51u8; (n * REGION_BYTES) as usize];
            {
                let writer = cluster.client().with_replica_policy(policy);
                let mut f = PvfsFile::create(&writer, "/pvfs/replica", layout).unwrap();
                f.write_list(&mem, &file, &buf, Method::List).unwrap();
            }
            if kill {
                cluster.inject_faults(FaultPlan {
                    drop: 1.0,
                    target: Some(0),
                    seed: 4200 + n,
                    ..FaultPlan::default()
                });
            }
            let client = cluster
                .client()
                .with_replica_policy(policy)
                .with_rpc_timeout(Duration::from_millis(500));
            let mut f = PvfsFile::open(&client, "/pvfs/replica").unwrap();
            let attempts_before = client.stats().attempts;
            let latency_before = client.latency_snapshot();
            let mut back = vec![0u8; buf.len()];
            let started = Instant::now();
            f.read_list(&mem, &file, &mut back, Method::List).unwrap();
            let seconds = started.elapsed().as_secs_f64();
            assert_eq!(back, buf, "replica figure: degraded read diverged");
            if kill {
                assert!(
                    client.stats().replica_failovers > 0,
                    "reads with a dead daemon must fail over"
                );
            }
            rows.push(
                Row {
                    figure: "replica",
                    panel: format!("failover reads, r=2 ({kind})"),
                    series: series.into(),
                    x: n,
                    seconds,
                    requests: client.stats().attempts - attempts_before,
                    wire_bytes: buf.len() as u64,
                    ..Row::default()
                }
                .with_latency(&client.latency_snapshot().since(&latency_before)),
            );
        }
    }
    rows
}

/// The `trace` figure: where a cyclic list-I/O request actually spends
/// its time, hop by hop. Runs a traced (TraceMode::All) strided
/// write+read workload, assembles every retained waterfall, and buckets
/// span durations by hop — client attempt (`rpc`), transport
/// `send`/`recv`, daemon `queue`/`service`, and the storage layer under
/// it — reporting each hop's p50/p95/p99 as one series. `requests`
/// counts the spans behind the percentiles.
pub fn trace(scale: Scale, kind: TransportKind) -> Vec<Row> {
    use pvfs_types::{Histogram, TraceMode};
    use std::collections::BTreeMap;

    let region_counts: &[u64] = match scale {
        Scale::Quick => &[64],
        Scale::Mid => &[64, 256],
        Scale::Paper => &[64, 256, 1024],
    };
    let mut rows = Vec::new();
    for &n in region_counts {
        let cluster = LiveCluster::spawn_transport(SERVERS, IodConfig::default(), kind);
        let client = cluster.client().with_trace_mode(TraceMode::All);
        let layout = StripeLayout::new(0, SERVERS, STRIPE).unwrap();
        let mut f = PvfsFile::create(&client, "/pvfs/trace", layout).unwrap();
        let file: RegionList =
            RegionList::from_pairs((0..n).map(|i| (i * STRIDE, REGION_BYTES))).unwrap();
        let mem = RegionList::contiguous(0, n * REGION_BYTES);
        let buf = vec![0x5au8; (n * REGION_BYTES) as usize];
        let mut back = vec![0u8; buf.len()];
        let started = Instant::now();
        // Few enough iterations that every trace stays in the recent
        // index (bounded at 64) — nothing sampled away, nothing lost.
        for _ in 0..8 {
            f.write_list(&mem, &file, &buf, Method::List).unwrap();
            f.read_list(&mem, &file, &mut back, Method::List).unwrap();
        }
        let seconds = started.elapsed().as_secs_f64();
        assert_eq!(back, buf, "traced readback must stay byte-exact");

        let mut hops: BTreeMap<&'static str, (Histogram, u64)> = BTreeMap::new();
        for t in client.tracer().recent() {
            for s in client.fetch_trace(t).spans() {
                let hop: &'static str = if s.op.starts_with("rpc:") {
                    "rpc"
                } else {
                    match s.op.as_str() {
                        "send" => "send",
                        "recv" => "recv",
                        "queue" => "queue",
                        "service" => "service",
                        "storage:read" => "storage:read",
                        "storage:write" => "storage:write",
                        _ => continue, // roots and phase markers
                    }
                };
                let e = hops.entry(hop).or_default();
                e.0.record(s.dur_ns);
                e.1 += 1;
            }
        }
        for (hop, (hist, count)) in hops {
            rows.push(
                Row {
                    figure: "trace",
                    panel: format!("{kind} transport"),
                    series: hop.into(),
                    x: n,
                    seconds,
                    requests: count,
                    ..Row::default()
                }
                .with_latency(&hist),
            );
        }
    }
    rows
}
