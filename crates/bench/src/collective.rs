//! The `collective` figure: two-phase I/O vs independent list I/O vs
//! data sieving on the paper's shared-pattern workloads, measured on
//! the live cluster.
//!
//! Each cell writes one collective pattern — 1-D cyclic (§4.2.1) or
//! FLASH I/O checkpoint (§4.3.1) — at 2–16 clients over 8 I/O daemons
//! with an emulated 200 µs per-request service latency, and reports
//! wall seconds plus what the daemons actually saw (frames, wire
//! bytes). Alongside the numbers, the run *asserts* the collective
//! claims that are deterministic:
//!
//! * the two-phase aggregate phase issues **exactly** the request count
//!   the partitioner predicts ([`DomainMap::predicted_data_requests`]);
//! * with one aggregator per daemon (clients ≥ daemons) that count is
//!   bounded by `aggregators × ⌈domain regions / 64⌉`, while
//!   independent list I/O pays at least `Σ_rank ⌈regions/64⌉`;
//! * every daemon hears from **at most one** aggregator — the fan-in
//!   argument, checked through `ExecReport::requests_by_server`.

use pvfs_client::{ExecReport, PvfsFile};
use pvfs_collective::{CollectiveConfig, CollectiveFile, Communicator, DomainMap};
use pvfs_core::{ListRequest, Method};
use pvfs_net::{LiveCluster, TransportKind};
use pvfs_server::IodConfig;
use pvfs_types::{RegionList, ServerId, StripeLayout};
use pvfs_workloads::{Cyclic, FlashIo};
use std::thread;
use std::time::{Duration, Instant};

use crate::live::wire_totals;
use crate::report::Row;
use crate::Scale;

/// The paper's I/O cluster size.
const SERVERS: u32 = 8;
/// The paper's default stripe.
const STRIPE: u64 = 16 * 1024;
/// Emulated per-request daemon service latency: makes request *count*
/// matter in wall time, as real round trips and disk ops do on the
/// paper's cluster (same figure the `concurrent` bench uses).
const LATENCY: Duration = Duration::from_millis(2);

fn iod_config() -> IodConfig {
    IodConfig {
        emulated_latency: Some(LATENCY),
        ..IodConfig::default()
    }
}

/// Per-daemon frame counts, for the requests-per-daemon table.
fn per_daemon(cluster: &LiveCluster) -> Vec<u64> {
    (0..SERVERS)
        .map(|s| {
            cluster
                .stats_snapshot(ServerId(s))
                .map_or(0, |st| st.frames_rx)
        })
        .collect()
}

#[derive(Clone, Copy)]
enum Workload {
    Cyclic,
    Flash,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Cyclic => "cyclic",
            Workload::Flash => "flash",
        }
    }

    /// Per-rank write requests at the given client count and scale.
    fn requests(self, clients: usize, scale: Scale) -> Vec<ListRequest> {
        match self {
            Workload::Cyclic => {
                let accesses: u64 = match scale {
                    Scale::Quick => 64,
                    Scale::Mid => 128,
                    Scale::Paper => 256,
                };
                let w = Cyclic {
                    clients: clients as u64,
                    accesses_per_client: accesses,
                    aggregate_bytes: clients as u64 * accesses * 1024,
                };
                (0..clients as u64)
                    .map(|r| w.request_for(r).unwrap())
                    .collect()
            }
            Workload::Flash => {
                let blocks: u64 = match scale {
                    Scale::Quick => 1,
                    Scale::Mid => 2,
                    Scale::Paper => 8,
                };
                let w = FlashIo::scaled(clients as u64, blocks);
                (0..clients as u64)
                    .map(|r| w.request_for(r).unwrap())
                    .collect()
            }
        }
    }
}

fn payload(req: &ListRequest) -> Vec<u8> {
    let len = req.mem.extent().map_or(0, |e| e.end()) as usize;
    (0..len).map(|i| (i * 13 + 7) as u8).collect()
}

/// One two-phase run: collective create, then a measured `write_all`.
/// Returns (seconds, frames, bytes, per-daemon frames, rank reports).
fn run_two_phase(
    kind: TransportKind,
    layout: StripeLayout,
    reqs: &[ListRequest],
) -> (f64, u64, u64, Vec<u64>, Vec<ExecReport>) {
    let cluster = LiveCluster::spawn_transport(SERVERS, iod_config(), kind);
    // Collective open first, so the measured window holds only the
    // aggregate phase.
    let files: Vec<CollectiveFile> = Communicator::group(reqs.len())
        .into_iter()
        .map(|comm| {
            let client = cluster.client();
            thread::spawn(move || {
                CollectiveFile::create(&client, "/pvfs/collective", layout, comm).unwrap()
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();
    let (f0, b0) = wire_totals(&cluster);
    let d0 = per_daemon(&cluster);
    let started = Instant::now();
    let reports: Vec<ExecReport> = files
        .into_iter()
        .zip(reqs.to_vec())
        .map(|(mut cf, req)| {
            thread::spawn(move || {
                let buf = payload(&req);
                cf.write_all(&req.mem, &req.file, &buf).unwrap()
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();
    let seconds = started.elapsed().as_secs_f64();
    let (f1, b1) = wire_totals(&cluster);
    let d1 = per_daemon(&cluster);
    let daemons = d0.iter().zip(&d1).map(|(a, b)| b - a).collect();
    (seconds, f1 - f0, b1 - b0, daemons, reports)
}

/// One independent run: every rank writes its own request concurrently
/// under `method` (list I/O or serialized data sieving). Returns the
/// per-rank reports so callers can merge latency distributions.
fn run_independent(
    kind: TransportKind,
    layout: StripeLayout,
    reqs: &[ListRequest],
    method: Method,
) -> (f64, u64, u64, Vec<u64>, Vec<ExecReport>) {
    let cluster = LiveCluster::spawn_transport(SERVERS, iod_config(), kind);
    let client = cluster.client();
    PvfsFile::create(&client, "/pvfs/independent", layout)
        .unwrap()
        .close()
        .unwrap();
    let (f0, b0) = wire_totals(&cluster);
    let d0 = per_daemon(&cluster);
    let started = Instant::now();
    let handles: Vec<_> = reqs
        .iter()
        .cloned()
        .map(|req| {
            let client = cluster.client();
            thread::spawn(move || {
                let mut f = PvfsFile::open(&client, "/pvfs/independent").unwrap();
                let buf = payload(&req);
                f.write_list(&req.mem, &req.file, &buf, method).unwrap()
            })
        })
        .collect();
    let reports: Vec<ExecReport> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let seconds = started.elapsed().as_secs_f64();
    let (f1, b1) = wire_totals(&cluster);
    let d1 = per_daemon(&cluster);
    let daemons = d0.iter().zip(&d1).map(|(a, b)| b - a).collect();
    (seconds, f1 - f0, b1 - b0, daemons, reports)
}

/// All ranks' RPC latency samples merged into one distribution.
fn merged_latency(reports: &[ExecReport]) -> pvfs_types::Histogram {
    let mut out = pvfs_types::Histogram::new();
    for r in reports {
        out.merge(&r.rpc_latency);
    }
    out
}

/// The `collective` figure. See the module docs for what is asserted.
pub fn collective(scale: Scale, kind: TransportKind) -> Vec<Row> {
    let client_counts: &[usize] = match scale {
        Scale::Quick => &[2, 8],
        Scale::Mid | Scale::Paper => &[2, 4, 8, 16],
    };
    let layout = StripeLayout::new(0, SERVERS, STRIPE).unwrap();
    let mut rows = Vec::new();
    for workload in [Workload::Cyclic, Workload::Flash] {
        for &clients in client_counts {
            let reqs = workload.requests(clients, scale);
            let all_files: Vec<RegionList> = reqs.iter().map(|r| r.file.clone()).collect();
            let config = CollectiveConfig::default();
            let dmap = DomainMap::new(layout, clients, &config).unwrap();
            let predicted = dmap.predicted_data_requests(&all_files, config.cb_buffer, 64);

            let (tp_secs, tp_frames, tp_bytes, tp_daemons, reports) =
                run_two_phase(kind, layout, &reqs);
            assert_eq!(
                tp_frames,
                predicted,
                "{}: two-phase issued {tp_frames} wire requests, partitioner predicted {predicted}",
                workload.name()
            );
            // Fan-in: each daemon hears from at most one rank.
            let mut owners = vec![0u32; SERVERS as usize];
            for rep in &reports {
                for (d, &c) in rep.requests_by_server.iter().enumerate() {
                    if c > 0 {
                        owners[d] += 1;
                    }
                }
            }
            assert!(
                owners.iter().all(|&o| o <= 1),
                "{}: a daemon heard from more than one aggregator: {owners:?}",
                workload.name()
            );
            assert!(reports.iter().all(|r| r.serial_sections == 0));
            let exchange: u64 = reports.iter().map(|r| r.exchange_bytes).sum();

            let (li_secs, li_frames, li_bytes, li_daemons, li_reports) =
                run_independent(kind, layout, &reqs, Method::List);
            let independent_floor: u64 = reqs
                .iter()
                .map(|r| (r.file.count() as u64).div_ceil(64))
                .sum();
            assert!(
                li_frames >= independent_floor,
                "independent list I/O issued {li_frames} < Σ⌈n/64⌉ = {independent_floor}"
            );
            if clients >= SERVERS as usize {
                // One aggregator per daemon: the ISSUE bound is exact.
                let bound: u64 = (0..dmap.aggregators())
                    .map(|a| {
                        let regions: usize = dmap
                            .slot_lists(a, &all_files)
                            .iter()
                            .map(|(_, l)| l.count())
                            .sum();
                        (regions as u64).div_ceil(64).max(1)
                    })
                    .sum();
                assert!(
                    tp_frames <= bound,
                    "{}: two-phase {tp_frames} requests exceed aggregators×⌈domain/64⌉ = {bound}",
                    workload.name()
                );
                assert!(
                    tp_frames <= li_frames,
                    "{}: two-phase issued more wire requests ({tp_frames}) than independent \
                     list I/O ({li_frames}) at {clients} clients",
                    workload.name()
                );
            }

            let (ds_secs, ds_frames, ds_bytes, _, ds_reports) =
                run_independent(kind, layout, &reqs, Method::DataSieving);

            // Two-phase phase breakdown, summed across ranks: where the
            // collective's wall time actually goes.
            let (plan_ns, xchg_ns, wire_ns, merge_ns) =
                reports
                    .iter()
                    .fold((0u64, 0u64, 0u64, 0u64), |(p, e, w, m), r| {
                        (
                            p + r.phase_plan_ns,
                            e + r.phase_exchange_ns,
                            w + r.phase_wire_ns,
                            m + r.phase_merge_ns,
                        )
                    });
            eprintln!(
                "collective/{} x{clients}: requests/daemon two-phase={tp_daemons:?} \
                 list={li_daemons:?}  exchange={exchange}B  phases(ms): \
                 plan={:.2} exchange={:.2} wire={:.2} merge={:.2}",
                workload.name(),
                plan_ns as f64 / 1e6,
                xchg_ns as f64 / 1e6,
                wire_ns as f64 / 1e6,
                merge_ns as f64 / 1e6,
            );
            let panel = format!("{} · {kind}", workload.name());
            for (series, secs, frames, bytes, lat) in [
                (
                    "two-phase",
                    tp_secs,
                    tp_frames,
                    tp_bytes,
                    merged_latency(&reports),
                ),
                (
                    "list",
                    li_secs,
                    li_frames,
                    li_bytes,
                    merged_latency(&li_reports),
                ),
                (
                    "sieve",
                    ds_secs,
                    ds_frames,
                    ds_bytes,
                    merged_latency(&ds_reports),
                ),
            ] {
                rows.push(
                    Row {
                        figure: "collective",
                        panel: panel.clone(),
                        series: series.into(),
                        x: clients as u64,
                        seconds: secs,
                        requests: frames,
                        wire_bytes: bytes,
                        ..Row::default()
                    }
                    .with_latency(&lat),
                );
            }
        }
    }
    rows
}
