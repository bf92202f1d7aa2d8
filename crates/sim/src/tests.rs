//! Engine tests: data correctness under virtual time, timing shape
//! sanity, and determinism.

use super::*;
use pvfs_core::{plan, IoKind, ListRequest, Method, MethodConfig};
use pvfs_types::{FileHandle, RegionList, StripeLayout};

const FH: FileHandle = FileHandle(1);

fn layout(pcount: u32, ssize: u64) -> StripeLayout {
    StripeLayout::new(0, pcount, ssize).unwrap()
}

fn cluster(pcount: u32) -> SimCluster {
    SimCluster::new(pcount)
}

fn strided_request(n: u64, len: u64, stride: u64) -> ListRequest {
    ListRequest::gather(RegionList::from_pairs((0..n).map(|i| (i * stride, len))).unwrap())
}

fn job(
    method: Method,
    kind: IoKind,
    request: &ListRequest,
    l: StripeLayout,
    user: Vec<u8>,
) -> ClientJob {
    let cfg = MethodConfig {
        sieve_buffer: 4096,
        ..MethodConfig::paper_default()
    };
    ClientJob {
        plan: plan(method, kind, request, FH, l, &cfg).unwrap(),
        user,
    }
}

#[test]
fn simulated_read_returns_correct_bytes() {
    let l = layout(4, 16);
    let mut sim = cluster(4);
    let content: Vec<u8> = (0..2000).map(|i| (i % 251) as u8).collect();
    sim.seed_file(FH, &l, &content);
    let request = strided_request(30, 7, 61);
    for method in Method::ALL {
        let mut sim = cluster(4);
        sim.seed_file(FH, &l, &content);
        let user = vec![0u8; request.total_len() as usize];
        let (report, users) = sim
            .run(vec![job(method, IoKind::Read, &request, l, user)])
            .unwrap();
        assert!(report.makespan > SimTime::ZERO);
        // Oracle.
        let mut expected = Vec::new();
        for r in request.file.iter() {
            expected.extend_from_slice(&content[r.offset as usize..r.end() as usize]);
        }
        assert_eq!(users[0], expected, "read bytes wrong for {method}");
    }
}

#[test]
fn simulated_write_lands_correct_bytes() {
    let l = layout(4, 16);
    let request = strided_request(30, 7, 61);
    let src: Vec<u8> = (0..request.total_len())
        .map(|i| (i % 13) as u8 + 1)
        .collect();
    for method in Method::ALL {
        let mut sim = cluster(4);
        let (_, _) = sim
            .run(vec![job(method, IoKind::Write, &request, l, src.clone())])
            .unwrap();
        // Verify via the daemons directly.
        let mut cursor = 0usize;
        for r in request.file.iter() {
            for seg in l.segments(*r) {
                let d = sim.daemon(seg.server);
                let got = d
                    .with_local_file(FH, |f| {
                        f.peek_vec(seg.local_offset, seg.logical.len as usize)
                    })
                    .expect("file exists");
                assert_eq!(
                    got,
                    src[cursor..cursor + seg.logical.len as usize].to_vec(),
                    "write bytes wrong for {method}"
                );
                cursor += seg.logical.len as usize;
            }
        }
    }
}

#[test]
fn simulation_is_deterministic() {
    let l = layout(8, 64);
    let request = strided_request(200, 16, 100);
    let run = || {
        let mut sim = cluster(8);
        let jobs: Vec<ClientJob> = (0..4)
            .map(|_| {
                job(
                    Method::List,
                    IoKind::Write,
                    &request,
                    l,
                    vec![7u8; request.total_len() as usize],
                )
            })
            .collect();
        sim.run(jobs).unwrap().0.makespan
    };
    assert_eq!(run(), run());
}

#[test]
fn multiple_io_costs_scale_with_region_count() {
    // The paper's core claim: request-processing overhead makes
    // multiple I/O linear in the number of accesses.
    let l = layout(4, 16384);
    let time_for = |n: u64| {
        let request = strided_request(n, 16, 256);
        let mut sim = cluster(4);
        sim.seed_extent(FH, &l, n * 256 + 16);
        let user = vec![0u8; request.total_len() as usize];
        let (report, _) = sim
            .run(vec![job(Method::Multiple, IoKind::Read, &request, l, user)])
            .unwrap();
        report.seconds()
    };
    let t100 = time_for(100);
    let t800 = time_for(800);
    let ratio = t800 / t100;
    assert!(
        (4.0..16.0).contains(&ratio),
        "expected ~8x scaling, got {ratio} ({t100} vs {t800})"
    );
}

/// What one request costs its server, pinned: a 3-region list read of a
/// warm file is the request, three regions and three local accesses,
/// and no disk time.
#[test]
fn a_warm_list_read_costs_one_request_three_regions_and_three_accesses() {
    let l = layout(1, 64);
    let request = strided_request(3, 8, 100);
    let mut sim = cluster(1);
    sim.seed_warm(FH, &l, 300);
    let (report, _) = sim
        .run(vec![job(
            Method::List,
            IoKind::Read,
            &request,
            l,
            vec![0; 24],
        )])
        .unwrap();
    assert_eq!(report.total_requests(), 1);
    // per_request 300 µs + 3 × per_region 2 µs + 3 × per_access 250 µs.
    assert_eq!(report.server_busy_ns, [1_056_000]);
}

#[test]
fn list_io_beats_multiple_io_on_fragmented_reads() {
    let l = layout(4, 16384);
    let request = strided_request(640, 16, 256);
    let mut times = Vec::new();
    for method in [Method::Multiple, Method::List] {
        let mut sim = cluster(4);
        sim.seed_extent(FH, &l, 640 * 256 + 16);
        let user = vec![0u8; request.total_len() as usize];
        let (report, _) = sim
            .run(vec![job(method, IoKind::Read, &request, l, user)])
            .unwrap();
        times.push(report.seconds());
    }
    // Read-path gap is modest (per-fragment receive costs dominate
    // both); the dramatic gap is on writes (see below) — Fig. 9 vs 10.
    assert!(
        times[0] > 1.3 * times[1],
        "multiple {} should be slower than list {}",
        times[0],
        times[1]
    );
}

#[test]
fn write_gap_is_orders_of_magnitude() {
    // Fig. 10's shape: multiple vs list writes separated by ~the
    // trailing-data factor.
    let l = layout(4, 16384);
    let request = strided_request(640, 16, 256);
    let src = vec![3u8; request.total_len() as usize];
    let mut times = Vec::new();
    for method in [Method::Multiple, Method::List] {
        let mut sim = cluster(4);
        let (report, _) = sim
            .run(vec![job(method, IoKind::Write, &request, l, src.clone())])
            .unwrap();
        times.push(report.seconds());
    }
    let ratio = times[0] / times[1];
    assert!(
        ratio > 20.0,
        "multiple/list write ratio {ratio} ({} vs {})",
        times[0],
        times[1]
    );
}

#[test]
fn sieving_read_time_is_flat_in_access_count() {
    let l = layout(4, 16384);
    let time_for = |n: u64, len: u64| {
        // Same extent (~160 KiB), different fragmentation.
        let stride = 160_000 / n;
        let request = strided_request(n, len.min(stride), stride);
        let mut sim = cluster(4);
        sim.seed_extent(FH, &l, 165_000);
        let user = vec![0u8; request.total_len() as usize];
        let (report, _) = sim
            .run(vec![job(
                Method::DataSieving,
                IoKind::Read,
                &request,
                l,
                user,
            )])
            .unwrap();
        report.seconds()
    };
    let coarse = time_for(100, 64);
    let fine = time_for(1600, 4);
    assert!(
        fine < 1.5 * coarse,
        "sieving should be ~flat: coarse {coarse} vs fine {fine}"
    );
}

#[test]
fn serialized_sieving_writes_stack_up() {
    // N sieving writers serialize; makespan should grow ~linearly with
    // N while list writers overlap.
    let l = layout(4, 16384);
    let request = strided_request(64, 32, 1024);
    let sieving_time = |n_clients: usize| {
        let mut sim = cluster(4);
        let jobs: Vec<ClientJob> = (0..n_clients)
            .map(|_| {
                job(
                    Method::DataSieving,
                    IoKind::Write,
                    &request,
                    l,
                    vec![9u8; request.total_len() as usize],
                )
            })
            .collect();
        sim.run(jobs).unwrap().0.seconds()
    };
    let one = sieving_time(1);
    let four = sieving_time(4);
    assert!(
        four > 3.0 * one,
        "serialization should stack: 1 client {one}, 4 clients {four}"
    );
}

#[test]
fn concurrent_clients_share_server_capacity() {
    // Doubling clients on the same servers should not double the
    // makespan of a server-bound workload... but it must grow.
    let l = layout(2, 16384);
    let request = strided_request(400, 16, 64);
    let time_for = |n: usize| {
        let mut sim = cluster(2);
        sim.seed_extent(FH, &l, 400 * 64 + 16);
        let jobs: Vec<ClientJob> = (0..n)
            .map(|_| {
                job(
                    Method::Multiple,
                    IoKind::Read,
                    &request,
                    l,
                    vec![0u8; request.total_len() as usize],
                )
            })
            .collect();
        sim.run(jobs).unwrap().0.seconds()
    };
    let one = time_for(1);
    let eight = time_for(8);
    assert!(eight > one, "contention must cost something");
    assert!(
        eight < 10.0 * one,
        "but rounds overlap across clients: {one} vs {eight}"
    );
}

/// The simulator runs exactly what a plan's steps say: for every
/// method and both kinds, a client's counts are the plan's tally, and
/// the payload bytes it sent and received are the tally's wire bytes.
#[test]
fn report_counts_match_plan_stats() {
    let l = layout(4, 64);
    // 60 of every 80 bytes: dense enough for hybrid to sieve, and
    // regions straddle the 64-byte stripes.
    let request = strided_request(100, 60, 80);
    for method in Method::ALL {
        for kind in [IoKind::Read, IoKind::Write] {
            let tally = job(method, kind, &request, l, vec![]).plan.tally();
            let mut sim = cluster(4);
            sim.seed_extent(FH, &l, 100 * 80);
            let user = vec![1u8; request.total_len() as usize];
            let (report, _) = sim.run(vec![job(method, kind, &request, l, user)]).unwrap();
            let c = report.clients[0];
            let at = format!("{method}, {kind:?}");
            assert_eq!(
                (c.rounds, c.requests),
                (tally.rounds, tally.requests),
                "{at}"
            );
            assert_eq!(report.total_requests(), tally.requests, "{at}");
            assert_eq!(c.copy_bytes, tally.copy_bytes, "{at}");
            assert_eq!(c.serial_sections, tally.serial_sections, "{at}");
            assert_eq!(c.bytes_sent + c.bytes_received, tally.wire_bytes, "{at}");
            let sieves =
                method == Method::DataSieving || (method == Method::Hybrid && kind == IoKind::Read);
            assert_eq!(tally.copy_bytes > 0, sieves, "{at}");
        }
    }
}

#[test]
fn misrouted_plan_surfaces_server_error() {
    // A plan whose layout names servers the cluster doesn't have must
    // fail loudly, not hang.
    let wide = layout(8, 64);
    let request = strided_request(4, 8, 100);
    let mut sim = cluster(2); // only 2 servers
    let err = sim
        .run(vec![job(
            Method::Multiple,
            IoKind::Read,
            &request,
            wide,
            vec![0u8; request.total_len() as usize],
        )])
        .unwrap_err();
    assert!(matches!(err, pvfs_types::PvfsError::NoSuchServer(_)));
}

#[test]
fn unbalanced_serial_section_is_a_deadlock_error() {
    // A hand-built plan that acquires the serial token and never
    // releases it while a second client waits: the engine must detect
    // the deadlock instead of spinning.
    use pvfs_core::{AccessPlan, Step};
    let l = layout(2, 64);
    let hog = AccessPlan::new(FH, l, IoKind::Write, vec![], vec![Step::SerialBegin]);
    let waiter = AccessPlan::new(
        FH,
        l,
        IoKind::Write,
        vec![],
        vec![Step::SerialBegin, Step::SerialEnd],
    );
    let mut sim = cluster(2);
    let err = sim
        .run(vec![
            ClientJob {
                plan: hog,
                user: vec![],
            },
            ClientJob {
                plan: waiter,
                user: vec![],
            },
        ])
        .unwrap_err();
    assert!(err.to_string().contains("deadlock"), "got: {err}");
}

#[test]
fn rtt_histogram_counts_every_request() {
    let l = layout(4, 64);
    let request = strided_request(100, 8, 100);
    let mut sim = cluster(4);
    sim.seed_warm(FH, &l, 100 * 100 + 8);
    let (report, _) = sim
        .run(vec![job(
            Method::Multiple,
            IoKind::Read,
            &request,
            l,
            vec![0u8; request.total_len() as usize],
        )])
        .unwrap();
    assert_eq!(report.rtt.count(), report.clients[0].requests);
    // Every RTT includes at least the two-way wire latency.
    assert!(report.rtt.min_ns() >= 2 * COST.net.latency_ns);
    assert!(report.rtt.percentile_ns(0.5) <= report.rtt.max_ns());
}

#[test]
fn write_rtts_carry_the_ack_stall() {
    let l = layout(4, 64);
    let request = strided_request(50, 8, 100);
    let mut sim = cluster(4);
    let (report, _) = sim
        .run(vec![job(
            Method::Multiple,
            IoKind::Write,
            &request,
            l,
            vec![1u8; request.total_len() as usize],
        )])
        .unwrap();
    let stall = COST.net.write_ack_stall_ns;
    assert!(
        report.rtt.min_ns() >= stall,
        "{} < {stall}",
        report.rtt.min_ns()
    );
}

#[test]
fn serialized_writers_trace_exclusive_sections() {
    // Three sieving writers each hold the serial token for one
    // read-modify-write: they finish one after another, each at least a
    // barrier hand-off after the one before it.
    let l = layout(4, 64);
    let request = strided_request(16, 8, 200);
    let mut sim = cluster(4);
    let jobs: Vec<ClientJob> = (0..3)
        .map(|_| {
            job(
                Method::DataSieving,
                IoKind::Write,
                &request,
                l,
                vec![1u8; request.total_len() as usize],
            )
        })
        .collect();
    let (report, _) = sim.run(jobs).unwrap();
    assert!(report.clients.iter().all(|c| c.serial_sections == 1));
    let mut finishes: Vec<SimTime> = report.clients.iter().map(|c| c.finish).collect();
    finishes.sort_unstable();
    let handoff = COST.serial_handoff_ns;
    assert!(
        finishes.windows(2).all(|w| w[1] - w[0] >= handoff),
        "sections overlapped: {finishes:?}"
    );
}

#[test]
fn empty_job_list_completes_instantly() {
    let mut sim = cluster(2);
    let (report, users) = sim.run(vec![]).unwrap();
    assert_eq!(report.makespan, SimTime::ZERO);
    assert!(users.is_empty());
}

#[test]
fn hybrid_and_datatype_also_run_under_simulation() {
    let l = layout(4, 64);
    let request = strided_request(100, 8, 40);
    for method in [Method::Hybrid, Method::Datatype] {
        let mut sim = cluster(4);
        sim.seed_warm(FH, &l, 100 * 40 + 8);
        let (report, _) = sim
            .run(vec![job(
                method,
                IoKind::Read,
                &request,
                l,
                vec![0u8; request.total_len() as usize],
            )])
            .unwrap();
        assert!(report.makespan > SimTime::ZERO, "{method}");
    }
}

#[test]
fn metadata_rtt_is_small_but_nonzero() {
    let rtt = metadata_rtt_ns();
    assert!(rtt > 2 * COST.net.latency_ns);
    assert!(rtt < 10_000_000); // well under 10 ms
}

#[test]
fn datatype_requests_do_not_scale_with_regions() {
    // §5 extension: a regular pattern costs the same number of
    // requests at any fragmentation.
    let l = layout(4, 16384);
    let time_for = |n: u64| {
        let request = strided_request(n, 16, 256);
        let mut sim = cluster(4);
        sim.seed_extent(FH, &l, n * 256 + 16);
        let user = vec![0u8; request.total_len() as usize];
        let (report, _) = sim
            .run(vec![job(Method::Datatype, IoKind::Read, &request, l, user)])
            .unwrap();
        (report.total_requests(), report.seconds())
    };
    let (req_small, _) = time_for(200);
    let (req_big, _) = time_for(3200);
    assert_eq!(req_small, req_big, "regular pattern: constant requests");
}
