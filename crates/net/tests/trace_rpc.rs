//! End-to-end distributed tracing: a traced round assembles into one
//! causally-linked tree spanning client, transport, and daemons; the
//! `GetTrace` scrape is an invisible observer (like `GetStats`); and an
//! untraced client is byte-identical on the wire to the pre-tracing
//! protocol — `PVFS_TRACE=off` costs exactly nothing.

use bytes::Bytes;
use pvfs_net::{FaultPlan, LiveCluster, RpcTarget, TransportKind};
use pvfs_proto::{Request, Response};
use pvfs_server::IodConfig;
use pvfs_types::{FileHandle, Region, ServerId, StripeLayout, TraceMode};

fn layout(n: u32) -> StripeLayout {
    StripeLayout::new(0, n, 16).unwrap()
}

fn write(s: u32, fh: FileHandle, l: StripeLayout) -> Request {
    Request::Write {
        handle: fh,
        layout: l,
        region: Region::new(u64::from(s) * 16, 16),
        data: Bytes::from(vec![s as u8; 16]),
    }
}

/// The acceptance tree, on both transports: one traced fan-out round
/// yields a single tree rooted at the client containing every hop —
/// per-attempt `rpc:` spans with `send`/`recv` children, the daemons'
/// `queue`/`service` segments, and the storage spans under them — with
/// no orphans and every hop nested inside the root's time window. And
/// the spans are the histogram samples: each was made from the same two
/// clock readings as a sample of the books.
fn traced_round_assembles_the_full_waterfall(kind: TransportKind) {
    let cluster = LiveCluster::spawn_transport(2, IodConfig::default(), kind);
    let c = cluster.client().with_trace_mode(TraceMode::All);
    let l = layout(2);
    let fh = FileHandle(61);
    let daemon_sums = || {
        (0..2u32).fold((0, 0), |(queue, service), s| {
            let snap = cluster.stats_snapshot(ServerId(s)).unwrap();
            (
                queue + snap.queue_wait.sum_ns(),
                service + snap.service_time.sum_ns(),
            )
        })
    };
    let (client_before, daemons_before) = (c.stats(), daemon_sums());

    let responses = c
        .round((0..2u32).map(|s| (ServerId(s), write(s, fh, l))).collect())
        .unwrap();
    let (client_after, daemons_after) = (c.stats(), daemon_sums());
    assert!(responses
        .iter()
        .all(|r| *r == Response::Written { bytes: 16 }));

    let trace = c.tracer().last().expect("TraceMode::All retains the round");
    let tree = c.fetch_trace(trace);
    assert!(
        tree.orphans().is_empty(),
        "[{kind}] every span must reach the root: {}",
        tree.render()
    );
    let roots = tree.roots();
    assert_eq!(roots.len(), 1, "[{kind}] one round, one root");
    let root = roots[0];
    assert_eq!(root.op, "round");
    for op in [
        "rpc:write",
        "send",
        "recv",
        "queue",
        "service",
        "storage:write",
    ] {
        assert!(
            tree.spans().iter().any(|s| s.op == op),
            "[{kind}] missing a {op} span:\n{}",
            tree.render()
        );
    }
    // Two ops fanned out: a send/recv/queue/service per daemon.
    for op in ["rpc:write", "send", "recv", "queue", "service"] {
        assert_eq!(
            tree.spans().iter().filter(|s| s.op == op).count(),
            2,
            "[{kind}] one {op} span per fanned-out op:\n{}",
            tree.render()
        );
    }
    // Both sides of the wire share one monotonic epoch, so causality is
    // checkable on raw timestamps: every hop nests inside the root.
    let root_end = root.start_ns + root.dur_ns;
    for s in tree.spans() {
        assert!(
            s.start_ns >= root.start_ns && s.start_ns + s.dur_ns <= root_end,
            "[{kind}] span {} [{};{}] escapes the root window [{};{root_end}]",
            s.op,
            s.start_ns,
            s.start_ns + s.dur_ns,
            root.start_ns,
        );
    }
    // Server-side service time is bounded by the client-perceived RPC.
    let rpc_max = tree
        .spans()
        .iter()
        .filter(|s| s.op == "rpc:write")
        .map(|s| s.dur_ns)
        .max()
        .unwrap();
    for s in tree.spans().iter().filter(|s| s.op == "service") {
        assert!(
            s.dur_ns <= rpc_max,
            "[{kind}] service {} ns exceeds the slowest RPC {rpc_max} ns",
            s.dur_ns
        );
    }
    // One reading per boundary feeds both the span and the sample.
    let span_sum = |op: &str| -> u128 {
        let spans = tree.spans().iter().filter(|s| s.op == op);
        spans.map(|s| u128::from(s.dur_ns)).sum()
    };
    let rpc_latency = client_after.rpc_latency.since(&client_before.rpc_latency);
    assert_eq!(
        span_sum("rpc:write"),
        rpc_latency.sum_ns(),
        "[{kind}] rpc:write spans vs rpc_latency"
    );
    assert_eq!(
        span_sum("queue"),
        daemons_after.0 - daemons_before.0,
        "[{kind}] queue spans vs the daemons' queue_wait"
    );
    assert_eq!(
        span_sum("service"),
        daemons_after.1 - daemons_before.1,
        "[{kind}] service spans vs the daemons' service_time"
    );
    // The render is the shell's waterfall: header plus indented hops.
    let render = tree.render();
    assert!(render.starts_with(&format!("trace {trace}")), "{render}");
    assert!(render.contains("[iod0]"), "{render}");
    assert!(render.contains("[iod1]"), "{render}");
}

#[test]
fn traced_round_assembles_the_full_waterfall_over_chan() {
    traced_round_assembles_the_full_waterfall(TransportKind::Chan);
}

#[test]
fn traced_round_assembles_the_full_waterfall_over_tcp() {
    traced_round_assembles_the_full_waterfall(TransportKind::Tcp);
}

/// The observer-effect guarantee extends to `GetTrace`: assembling a
/// waterfall perturbs no daemon counters, adds no spans to any ring,
/// advances no client counters, and the same trace renders identically
/// however many times it is fetched.
fn get_trace_scrape_is_invisible(kind: TransportKind) {
    let cluster = LiveCluster::spawn_transport(2, IodConfig::default(), kind);
    let c = cluster.client().with_trace_mode(TraceMode::All);
    let l = layout(2);
    c.round(
        (0..2u32)
            .map(|s| (ServerId(s), write(s, FileHandle(62), l)))
            .collect(),
    )
    .unwrap();

    let trace = c.tracer().last().unwrap();
    let stats_before: Vec<_> = (0..2u32)
        .map(|s| cluster.stats_snapshot(ServerId(s)).unwrap())
        .collect();
    let rings_before: Vec<usize> = (0..2u32)
        .map(|s| {
            cluster
                .daemon(ServerId(s))
                .unwrap()
                .recorder()
                .snapshot()
                .len()
        })
        .collect();
    let client_before = c.stats();

    let first = c.fetch_trace(trace).render();
    let second = c.fetch_trace(trace).render();
    assert_eq!(first, second, "[{kind}] fetching a trace changed the trace");

    for s in 0..2u32 {
        assert_eq!(
            cluster.stats_snapshot(ServerId(s)).unwrap(),
            stats_before[s as usize],
            "[{kind}] GetTrace perturbed daemon {s}'s counters"
        );
        assert_eq!(
            cluster
                .daemon(ServerId(s))
                .unwrap()
                .recorder()
                .snapshot()
                .len(),
            rings_before[s as usize],
            "[{kind}] GetTrace added spans to daemon {s}'s ring"
        );
    }
    assert_eq!(
        c.stats(),
        client_before,
        "[{kind}] GetTrace advanced the client's own counters"
    );
}

#[test]
fn get_trace_scrape_is_invisible_over_chan() {
    get_trace_scrape_is_invisible(TransportKind::Chan);
}

#[test]
fn get_trace_scrape_is_invisible_over_tcp() {
    get_trace_scrape_is_invisible(TransportKind::Tcp);
}

/// The `PVFS_TRACE=off` cost pin: an untraced client emits version-1
/// frames — byte-for-byte the pre-tracing protocol — so daemons see
/// identical wire sizes, while a fully-traced client pays exactly the
/// 16-byte context per request frame. File bytes come back identical
/// either way, and an untraced run leaves every ring empty.
fn run_workload(cluster: &LiveCluster, mode: TraceMode) -> (Vec<u8>, u64, u64) {
    let c = cluster.client().with_trace_mode(mode);
    let l = layout(2);
    let fh = FileHandle(63);
    for s in 0..2u32 {
        c.call(RpcTarget::Server(ServerId(s)), write(s, fh, l))
            .unwrap();
    }
    let mut data = Vec::new();
    for s in 0..2u32 {
        match c
            .call(
                RpcTarget::Server(ServerId(s)),
                Request::Read {
                    handle: fh,
                    layout: l,
                    region: Region::new(u64::from(s) * 16, 16),
                },
            )
            .unwrap()
        {
            Response::Data { data: d } => data.extend_from_slice(&d),
            other => panic!("unexpected {other:?}"),
        }
    }
    let (mut bytes_rx, mut frames_rx) = (0, 0);
    for s in 0..2u32 {
        let snap = cluster.stats_snapshot(ServerId(s)).unwrap();
        bytes_rx += snap.bytes_rx;
        frames_rx += snap.frames_rx;
    }
    (data, bytes_rx, frames_rx)
}

fn untraced_runs_cost_zero_wire_bytes(kind: TransportKind) {
    let off_cluster = LiveCluster::spawn_transport(2, IodConfig::default(), kind);
    let (off_data, off_bytes, off_frames) = run_workload(&off_cluster, TraceMode::Off);

    let all_cluster = LiveCluster::spawn_transport(2, IodConfig::default(), kind);
    let (all_data, all_bytes, all_frames) = run_workload(&all_cluster, TraceMode::All);

    assert_eq!(
        off_data, all_data,
        "[{kind}] tracing changed the bytes a file returns"
    );
    assert_eq!(
        all_frames, off_frames,
        "[{kind}] same workload, same frames"
    );
    assert_eq!(
        all_bytes,
        off_bytes + 16 * off_frames,
        "[{kind}] trace context must cost exactly 16 bytes per frame, and \
         PVFS_TRACE=off must cost zero"
    );
    // Untraced requests leave no server-side spans behind.
    for s in 0..2u32 {
        assert!(
            off_cluster
                .daemon(ServerId(s))
                .unwrap()
                .recorder()
                .snapshot()
                .is_empty(),
            "[{kind}] an untraced run left spans in daemon {s}'s ring"
        );
    }
}

#[test]
fn untraced_runs_cost_zero_wire_bytes_over_chan() {
    untraced_runs_cost_zero_wire_bytes(TransportKind::Chan);
}

#[test]
fn untraced_runs_cost_zero_wire_bytes_over_tcp() {
    untraced_runs_cost_zero_wire_bytes(TransportKind::Tcp);
}

/// Chaos tracing: a round through a seeded disconnect retries, and the
/// retry shows up in the SAME tree as a sibling `rpc:` span noted
/// `retry#2` — not a second tree, not an orphan.
#[test]
fn retried_round_traces_sibling_attempts_in_one_tree() {
    let mut cluster = LiveCluster::spawn_with(2, IodConfig::default());
    cluster.inject_faults(FaultPlan {
        disconnect: 1.0,
        target: Some(1),
        limit: Some(1),
        ..FaultPlan::default()
    });
    let c = cluster.client().with_trace_mode(TraceMode::All);
    let l = layout(2);

    c.round(
        (0..2u32)
            .map(|s| (ServerId(s), write(s, FileHandle(64), l)))
            .collect(),
    )
    .unwrap();
    assert_eq!(c.stats().retries, 1, "the seeded disconnect must bite");

    let tree = c.fetch_trace(c.tracer().last().unwrap());
    assert!(tree.orphans().is_empty(), "{}", tree.render());
    assert_eq!(tree.roots().len(), 1, "one round, one tree");
    let root_id = tree.roots()[0].id;
    let rpc_spans: Vec<_> = tree
        .spans()
        .iter()
        .filter(|s| s.op.starts_with("rpc:"))
        .collect();
    assert_eq!(
        rpc_spans.len(),
        3,
        "two first attempts + one retry:\n{}",
        tree.render()
    );
    assert!(
        rpc_spans.iter().all(|s| s.parent == root_id),
        "attempts are siblings under the round root:\n{}",
        tree.render()
    );
    let retried: Vec<_> = rpc_spans
        .iter()
        .filter(|s| s.notes.iter().any(|n| n == "retry#2"))
        .collect();
    assert_eq!(retried.len(), 1, "{}", tree.render());
}
