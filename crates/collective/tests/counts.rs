//! The two-phase claims that are counts, not times.
//!
//! The paper's shared patterns — 1-D cyclic (§4.2.1) and the FLASH I/O
//! checkpoint (§4.3.1) — written collectively at 2 and 8 ranks over 8
//! daemons on chan, with no emulated latency, so every number is exact:
//!
//! * the daemons receive **exactly** the data requests the partitioner
//!   predicts ([`DomainMap::predicted_data_requests`]);
//! * every daemon hears from **at most one** aggregator
//!   (`ExecReport::requests_by_server`), and no rank takes the gate;
//! * with one aggregator per daemon (ranks ≥ daemons) two-phase sends
//!   at most `aggregators × ⌈domain regions / 64⌉` frames and no more
//!   than independent list I/O, which pays at least `Σ_rank ⌈n / 64⌉`.
//!
//! A traced call carries its two-phase split as `phase_*` spans under
//! its root; the last test pins which ones, and that they tile the call
//! with no gap between them.

use pvfs_client::{ExecReport, PvfsFile};
use pvfs_collective::{CollectiveConfig, CollectiveFile, Communicator, DomainMap};
use pvfs_core::{ListRequest, Method};
use pvfs_net::{FaultPlan, LiveCluster, TransportKind};
use pvfs_server::IodConfig;
use pvfs_types::{RegionList, ServerId, Span, SpanId, StripeLayout, TraceMode};
use pvfs_workloads::{Cyclic, FlashIo};
use std::collections::BTreeSet;
use std::thread;

const DAEMONS: u32 = 8;
const STRIPE: u64 = 16 * 1024;
/// Regions per list request (`pvfs_proto::MAX_LIST_REGIONS`).
const LIST_REGIONS: usize = 64;

fn layout() -> StripeLayout {
    StripeLayout::new(0, DAEMONS, STRIPE).unwrap()
}

fn cyclic(ranks: u64) -> Vec<ListRequest> {
    let w = Cyclic {
        clients: ranks,
        accesses_per_client: 64,
        aggregate_bytes: ranks * 64 * 1024,
    };
    (0..ranks).map(|r| w.request_for(r).unwrap()).collect()
}

fn flash(ranks: u64) -> Vec<ListRequest> {
    let w = FlashIo::scaled(ranks, 1);
    (0..ranks).map(|r| w.request_for(r).unwrap()).collect()
}

fn payload(req: &ListRequest) -> Vec<u8> {
    let len = req.mem.extent().map_or(0, |e| e.end()) as usize;
    (0..len).map(|i| (i * 13 + 7) as u8).collect()
}

/// Request frames received across every daemon.
fn frames_rx(cluster: &LiveCluster) -> u64 {
    (0..DAEMONS)
        .filter_map(|s| cluster.stats_snapshot(ServerId(s)))
        .map(|st| st.frames_rx)
        .sum()
}

/// Run `op` on every item at once, one thread each; results in item
/// order.
fn concurrently<T: Send, R: Send>(
    items: impl IntoIterator<Item = T>,
    op: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let op = &op;
    thread::scope(|s| {
        let handles: Vec<_> = items
            .into_iter()
            .map(|item| s.spawn(move || op(item)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

fn chan_cluster() -> LiveCluster {
    LiveCluster::spawn_transport(DAEMONS, IodConfig::default(), TransportKind::Chan)
}

/// Collective create, then one `write_all` per rank. Returns the frames
/// the write cost, every rank's report and the config in force.
fn two_phase(reqs: &[ListRequest]) -> (u64, Vec<ExecReport>, CollectiveConfig) {
    let cluster = chan_cluster();
    let files = concurrently(Communicator::group(reqs.len()), |comm| {
        CollectiveFile::create(&cluster.client(), "/pvfs/two-phase", layout(), comm).unwrap()
    });
    let config = files[0].collective_config();
    let before = frames_rx(&cluster);
    let reports = concurrently(files.into_iter().zip(reqs), |(mut cf, req)| {
        cf.write_all(&req.mem, &req.file, &payload(req)).unwrap()
    });
    (frames_rx(&cluster) - before, reports, config)
}

/// Every rank writes its own request at once through independent list
/// I/O. Returns the frames the writes cost.
fn independent_list(reqs: &[ListRequest]) -> u64 {
    let cluster = chan_cluster();
    PvfsFile::create(&cluster.client(), "/pvfs/independent", layout()).unwrap();
    let files: Vec<PvfsFile> = reqs
        .iter()
        .map(|_| PvfsFile::open(&cluster.client(), "/pvfs/independent").unwrap())
        .collect();
    let before = frames_rx(&cluster);
    concurrently(files.into_iter().zip(reqs), |(mut f, req)| {
        f.write_list(&req.mem, &req.file, &payload(req), Method::List)
            .unwrap()
    });
    frames_rx(&cluster) - before
}

fn assert_counts(name: &str, reqs: &[ListRequest]) {
    let all_files: Vec<RegionList> = reqs.iter().map(|r| r.file.clone()).collect();
    let (frames, reports, config) = two_phase(reqs);
    let dmap = DomainMap::new(layout(), reqs.len(), &config).unwrap();
    let predicted = dmap.predicted_data_requests(&all_files, config.cb_buffer, LIST_REGIONS);
    assert_eq!(frames, predicted, "{name}: frames vs the partitioner");

    let mut heard_from = [0u32; DAEMONS as usize];
    for report in &reports {
        assert_eq!(report.serial_sections, 0, "{name}: two-phase took the gate");
        for (d, &n) in report.requests_by_server.iter().enumerate() {
            heard_from[d] += u32::from(n > 0);
        }
    }
    assert!(
        heard_from.iter().all(|&a| a <= 1),
        "{name}: a daemon heard from more than one aggregator: {heard_from:?}"
    );

    let list = independent_list(reqs);
    let floor: u64 = reqs
        .iter()
        .map(|r| r.file.count().div_ceil(LIST_REGIONS) as u64)
        .sum();
    assert!(
        list >= floor,
        "{name}: list I/O sent {list} < Σ⌈n/64⌉ = {floor}"
    );
    if reqs.len() >= DAEMONS as usize {
        let bound: u64 = (0..dmap.aggregators())
            .map(|a| {
                let regions: usize = dmap
                    .slot_lists(a, &all_files)
                    .iter()
                    .map(|(_, l)| l.count())
                    .sum();
                regions.div_ceil(LIST_REGIONS).max(1) as u64
            })
            .sum();
        assert!(
            frames <= bound,
            "{name}: two-phase sent {frames} > aggregators × ⌈domain/64⌉ = {bound}"
        );
        assert!(
            frames <= list,
            "{name}: two-phase sent {frames} > list I/O's {list}"
        );
    }
}

/// The counts hold on a clean wire: under `PVFS_FAULTS` (CI's collective
/// job) a retried frame is counted twice.
fn faults_from_env() -> bool {
    FaultPlan::from_env().is_some_and(|p| p.is_active())
}

#[test]
fn cyclic_two_phase_frames_are_the_partitioners_over_chan() {
    if faults_from_env() {
        return;
    }
    for ranks in [2, 8] {
        assert_counts(&format!("cyclic x{ranks}"), &cyclic(ranks));
    }
}

#[test]
fn flash_two_phase_frames_are_the_partitioners_over_chan() {
    if faults_from_env() {
        return;
    }
    for ranks in [2, 8] {
        assert_counts(&format!("flash x{ranks}"), &flash(ranks));
    }
}

/// The spans directly under the root of this client's one retained
/// `root_op` trace, in start order.
fn phases(cf: &CollectiveFile, root_op: &str) -> Vec<Span> {
    let spans = cf.file().client().tracer().recorder().snapshot();
    let roots: Vec<_> = spans
        .iter()
        .filter(|s| s.op == root_op && s.parent == SpanId::NONE)
        .collect();
    assert_eq!(roots.len(), 1, "one {root_op} trace");
    let mut phases: Vec<Span> = spans
        .iter()
        .filter(|s| s.trace == roots[0].trace && s.parent == roots[0].id)
        .cloned()
        .collect();
    phases.sort_by_key(|s| s.start_ns);
    phases
}

#[test]
fn a_traced_two_phase_call_records_its_phases_under_its_root() {
    let cluster = chan_cluster();
    let ranks = concurrently(
        Communicator::group(2).into_iter().zip(cyclic(2)),
        |(comm, req)| {
            let client = cluster.client().with_trace_mode(TraceMode::All);
            let mut cf = CollectiveFile::create(&client, "/pvfs/traced", layout(), comm).unwrap();
            // Rank 0 aggregates, rank 1 only exchanges.
            cf.set_collective_config(CollectiveConfig {
                aggregators: Some(1),
                ..CollectiveConfig::default()
            });
            let data = payload(&req);
            cf.write_all(&req.mem, &req.file, &data).unwrap();
            let mut back = vec![0u8; data.len()];
            cf.read_all(&req.mem, &req.file, &mut back).unwrap();
            assert_eq!(back, data);
            (phases(&cf, "write_all"), phases(&cf, "read_all"))
        },
    );
    let ops =
        |phases: &[Span]| -> BTreeSet<String> { phases.iter().map(|s| s.op.clone()).collect() };
    for (rank, (write, read)) in ranks.into_iter().enumerate() {
        let mut expect: BTreeSet<String> =
            ["phase_plan", "phase_exchange"].map(String::from).into();
        if rank == 0 {
            expect.insert("phase_wire".into());
        }
        assert_eq!(ops(&write), expect, "rank {rank} write_all");
        expect.insert("phase_merge".into());
        assert_eq!(ops(&read), expect, "rank {rank} read_all");
        // One reading closes a phase and opens the next.
        for (call, phases) in [("write_all", &write), ("read_all", &read)] {
            for pair in phases.windows(2) {
                assert_eq!(
                    pair[1].start_ns,
                    pair[0].start_ns + pair[0].dur_ns,
                    "rank {rank} {call}: {} does not start where {} ended",
                    pair[1].op,
                    pair[0].op
                );
            }
        }
    }
}
