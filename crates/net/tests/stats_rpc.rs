//! The `GetStats` control RPC must be a faithful, invisible observer on
//! every transport: the snapshot a client scrapes over the wire equals
//! the in-process snapshot of the daemon's ledger on every metric,
//! scraping repeatedly changes nothing, and `ResetStats` hands back the
//! counters it zeroes.

use bytes::Bytes;
use pvfs_disk::{ScratchDir, StorageConfig, SyncPolicy};
use pvfs_net::{ClusterClient, LiveCluster, RpcTarget, TransportKind};
use pvfs_proto::{decode_response_frame, encode_frame, Frame, Message, Request, Response};
use pvfs_server::IodConfig;
use pvfs_types::{
    ClientId, FileHandle, PvfsError, Region, RequestId, ServerId, StatsSnapshot, StripeLayout,
};
use std::time::Duration;

fn layout(n: u32) -> StripeLayout {
    StripeLayout::new(0, n, 16).unwrap()
}

fn scrape(client: &ClusterClient, target: RpcTarget) -> StatsSnapshot {
    match client.call(target, Request::GetStats).unwrap() {
        Response::Stats(s) => *s,
        other => panic!("unexpected {other:?}"),
    }
}

/// The durable backend, fsynced per batch, so that the storage engine's
/// share of the ledger moves too.
fn durable(dir: &ScratchDir) -> StorageConfig {
    StorageConfig::File {
        dir: dir.path().to_path_buf(),
        sync: SyncPolicy::Always,
    }
}

/// Drive a little traffic, then compare the scraped snapshot against
/// the in-process view, metric for metric.
fn assert_scrape_matches_in_process(kind: TransportKind) {
    let dir = ScratchDir::new("stats-rpc-scrape");
    let cluster = LiveCluster::spawn_storage(2, IodConfig::default(), kind, durable(&dir));
    let client = cluster.client();
    let l = layout(2);
    let fh = FileHandle(1);
    client
        .call(
            RpcTarget::Server(ServerId(0)),
            Request::Write {
                handle: fh,
                layout: l,
                region: Region::new(0, 16),
                data: Bytes::from(vec![7u8; 16]),
            },
        )
        .unwrap();
    client
        .call(
            RpcTarget::Server(ServerId(0)),
            Request::Read {
                handle: fh,
                layout: l,
                region: Region::new(0, 16),
            },
        )
        .unwrap();
    client
        .call(RpcTarget::Server(ServerId(0)), Request::Sync { handle: fh })
        .unwrap();

    let scraped = scrape(&client, RpcTarget::Server(ServerId(0)));
    let direct = cluster.stats_snapshot(ServerId(0)).unwrap();
    assert_eq!(scraped, direct, "[{kind}] scraped != in-process");
    // Not vacuously: every part of the ledger has moved — the daemon's,
    // the transport's and the storage engine's.
    for (name, value) in scraped.counters() {
        let idle = [
            "list_requests",
            "errors",
            "journal_replays",
            "requests_shed",
        ];
        assert_eq!(
            value == 0,
            idle.contains(&name),
            "[{kind}] {name} = {value}"
        );
    }
    assert_eq!(scraped.fsync_time.count(), scraped.fsyncs);
    assert_eq!(scraped.requests, 3);
    assert_eq!(scraped.contiguous_requests, 2);
    assert_eq!(scraped.bytes_written, 16);
    assert_eq!(scraped.bytes_read, 16);
    assert!(scraped.frames_rx >= 3);
    // The served requests left queue-wait and service-time samples; the
    // scrape itself must not have added any.
    assert_eq!(scraped.queue_wait.count(), 3, "[{kind}] queue_wait samples");
    assert_eq!(
        scraped.service_time.count(),
        3,
        "[{kind}] service_time samples"
    );
    assert!(scraped.workers >= 1);

    // Scraping is idempotent and invisible: a second scrape sees the
    // identical snapshot (gauges included — the cluster is quiescent).
    let again = scrape(&client, RpcTarget::Server(ServerId(0)));
    assert_eq!(again, scraped, "[{kind}] scrape perturbed the counters");

    // The other daemon saw no data traffic at all.
    let idle = scrape(&client, RpcTarget::Server(ServerId(1)));
    assert_eq!(idle.requests, 0);
    assert_eq!(idle.frames_rx, 0);
}

#[test]
fn scraped_stats_match_in_process_over_chan() {
    assert_scrape_matches_in_process(TransportKind::Chan);
}

#[test]
fn scraped_stats_match_in_process_over_tcp() {
    assert_scrape_matches_in_process(TransportKind::Tcp);
}

/// One daemon's books after the same mixed traffic over `kind`: a write
/// and a read, one frame whose body is corrupt, and three pings at a
/// one-worker, one-slot daemon of which exactly one is shed.
fn books_after_mixed_traffic(kind: TransportKind) -> StatsSnapshot {
    let config = IodConfig {
        workers: 1,
        queue_depth: 1,
        emulated_latency: Some(Duration::from_millis(100)),
        ..IodConfig::default()
    };
    let dir = ScratchDir::new("stats-rpc-books");
    let cluster = LiveCluster::spawn_storage(1, config, kind, durable(&dir));
    let client = cluster.client();
    let target = RpcTarget::Server(ServerId(0));
    let (fh, l) = (FileHandle(1), layout(1));
    let region = Region::new(0, 16);
    let data = Bytes::from(vec![7u8; 16]);
    for request in [
        Request::Write {
            handle: fh,
            layout: l,
            region,
            data,
        },
        Request::Read {
            handle: fh,
            layout: l,
            region,
        },
    ] {
        client.call(target, request).unwrap();
    }

    let transport = cluster.transport();
    let frame = |id, request| {
        let message = Message {
            client: ClientId(77),
            id: RequestId(id),
            request,
        };
        encode_frame(&message, None).unwrap()
    };
    let reply = |mut lane: Box<dyn pvfs_net::Lane>| {
        let raw = lane.recv(Duration::from_secs(10), &mut ()).unwrap();
        decode_response_frame(raw).unwrap()
    };
    // Header intact, body cut short: answered under the header's id,
    // and a worker was busy with it even though no request was served.
    let whole = frame(100, Request::GetLocalSize { handle: fh }).head;
    let cut = Frame::from(whole.slice(0..whole.len() - 3));
    let (id, response) = reply(transport.dispatch(target, cut).unwrap());
    assert_eq!(id, RequestId(100), "[{kind}]");
    assert!(matches!(response, Response::Error(PvfsError::Protocol(_))));

    // One ping occupies the worker, the next fills the queue's one
    // slot, the third meets a full queue. (Over tcp the last two race
    // for the slot on separate connections; either way one gets it.)
    let busy = transport
        .dispatch(target, frame(101, Request::Ping))
        .unwrap();
    while cluster.stats_snapshot(ServerId(0)).unwrap().busy_workers == 0 {
        std::thread::yield_now();
    }
    let rest = [102, 103].map(|id| transport.dispatch(target, frame(id, Request::Ping)));
    let mut answers = vec![reply(busy).1];
    for pending in rest {
        answers.push(match pending {
            // chan refuses at the queue's door, tcp with a reply frame.
            Err(refusal) => Response::Error(refusal),
            Ok(pending) => reply(pending).1,
        });
    }
    let shed = |r: &&Response| matches!(r, Response::Error(PvfsError::Overloaded { .. }));
    assert_eq!(
        answers.iter().filter(shed).count(),
        1,
        "[{kind}] {answers:?}"
    );
    let pong = |r: &&Response| matches!(r, Response::Pong { .. });
    assert_eq!(
        answers.iter().filter(pong).count(),
        2,
        "[{kind}] {answers:?}"
    );
    scrape(&client, target)
}

/// Both transports drive the daemon through the same `Service` and the
/// same `serve_rpc`, so the same traffic — a corrupt frame and a shed
/// included — leaves the same books. Only the byte counters differ, by
/// the framing: tcp prefixes every frame with its length, and answers a
/// shed with a frame where chan refuses the enqueue.
#[test]
fn chan_and_tcp_keep_the_same_books() {
    let chan = books_after_mixed_traffic(TransportKind::Chan);
    let tcp = books_after_mixed_traffic(TransportKind::Tcp);
    for ((name, over_chan), (_, over_tcp)) in chan.counters().into_iter().zip(tcp.counters()) {
        if name != "bytes_rx" && name != "bytes_tx" {
            assert_eq!(
                over_chan, over_tcp,
                "{name}: chan {over_chan} != tcp {over_tcp}"
            );
        }
    }
    assert_eq!(chan.gauges(), tcp.gauges());
    assert!(chan.journal_appends > 0 && chan.fsyncs > 0, "{chan:?}");
    assert_eq!((chan.requests, chan.errors), (4, 0));
    assert_eq!(
        chan.frames_rx, 6,
        "the corrupt and the shed frame arrived too"
    );
    assert_eq!(chan.requests_shed, 1);
    assert_eq!(tcp.bytes_rx, chan.bytes_rx + 4 * chan.frames_rx);
    assert!(tcp.bytes_tx > chan.bytes_tx);
    for books in [&chan, &tcp] {
        // Five frames reached a worker: the shed one never did.
        assert_eq!(books.queue_wait.count(), 5);
        assert_eq!(books.service_time.count(), 5);
        assert_eq!((books.queue_depth, books.busy_workers), (0, 0));
    }
}

fn assert_manager_scrape_works(kind: TransportKind) {
    let cluster = LiveCluster::spawn_transport(1, IodConfig::default(), kind);
    let client = cluster.client();
    client
        .call(
            RpcTarget::Manager,
            Request::Create {
                path: "/pvfs/s".into(),
                layout: layout(1),
            },
        )
        .unwrap();
    client
        .call(
            RpcTarget::Manager,
            Request::Open {
                path: "/pvfs/s".into(),
            },
        )
        .unwrap();
    let snap = scrape(&client, RpcTarget::Manager);
    assert_eq!(snap.requests, 2, "[{kind}] create + open, scrape excluded");
    assert_eq!(snap.errors, 0);
    assert_eq!(snap.workers, 1);
    assert_eq!(snap.bytes_read, 0, "manager never serves data");
    assert!(snap.frames_rx >= 2, "[{kind}] manager wire accounting");
    assert!(snap.bytes_rx > 0);
    assert!(snap.bytes_tx > 0);
    assert_eq!(snap.service_time.count(), 2);
    // A second scrape is identical: the probe is invisible.
    assert_eq!(scrape(&client, RpcTarget::Manager), snap);
}

#[test]
fn manager_scrape_over_chan() {
    assert_manager_scrape_works(TransportKind::Chan);
}

#[test]
fn manager_scrape_over_tcp() {
    assert_manager_scrape_works(TransportKind::Tcp);
}

/// The `workers` gauge counts the frames a daemon serves at once, not
/// the number configured, and not the threads its door has started
/// (none, for a memory daemon serving one client): a daemon asked for
/// none still serves one.
#[test]
fn the_workers_gauge_counts_the_frames_served_at_once() {
    for kind in [TransportKind::Chan, TransportKind::Tcp] {
        let config = IodConfig {
            workers: 0,
            ..IodConfig::default()
        };
        let cluster = LiveCluster::spawn_transport(1, config, kind);
        let server = RpcTarget::Server(ServerId(0));
        let scraped = scrape(&cluster.client(), server);
        assert_eq!(scraped.workers, 1, "[{kind}] one worker serves");
        assert_eq!(cluster.workers_per_server(), 1);
    }
}

fn assert_reset_returns_pre_reset(kind: TransportKind) {
    let cluster = LiveCluster::spawn_transport(1, IodConfig::default(), kind);
    let client = cluster.client();
    let l = layout(1);
    client
        .call(
            RpcTarget::Server(ServerId(0)),
            Request::Write {
                handle: FileHandle(1),
                layout: l,
                region: Region::new(0, 8),
                data: Bytes::from(vec![1u8; 8]),
            },
        )
        .unwrap();
    let pre = match client
        .call(RpcTarget::Server(ServerId(0)), Request::ResetStats)
        .unwrap()
    {
        Response::Stats(s) => *s,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(pre.requests, 1, "[{kind}] pre-reset snapshot");
    assert_eq!(pre.bytes_written, 8);
    let post = scrape(&client, RpcTarget::Server(ServerId(0)));
    assert_eq!(post.requests, 0, "[{kind}] counters zeroed");
    assert_eq!(post.bytes_written, 0);
    assert_eq!(post.queue_wait.count(), 0);
    assert_eq!(post.service_time.count(), 0);
}

#[test]
fn reset_stats_over_chan() {
    assert_reset_returns_pre_reset(TransportKind::Chan);
}

#[test]
fn reset_stats_over_tcp() {
    assert_reset_returns_pre_reset(TransportKind::Tcp);
}

/// Client-side latency: every RPC a daemon serves lands one sample in
/// the endpoint's one `rpc_latency` histogram — a line of its ledger, so
/// a since-diff of `ClientStats` carries it — on both transports.
fn assert_client_latency_attribution(kind: TransportKind) {
    let cluster = LiveCluster::spawn_transport(2, IodConfig::default(), kind);
    let client = cluster.client();
    let l = layout(2);
    let fh = FileHandle(4);
    client
        .call(
            RpcTarget::Server(ServerId(0)),
            Request::Write {
                handle: fh,
                layout: l,
                region: Region::new(0, 16),
                data: Bytes::from(vec![3u8; 16]),
            },
        )
        .unwrap();
    let after_write = client.stats();
    assert_eq!(after_write.rpc_latency.count(), 1, "[{kind}] the write");
    // A fan-out round of reads over both servers.
    let reqs = (0..2)
        .map(|s| {
            (
                ServerId(s),
                Request::Read {
                    handle: fh,
                    layout: l,
                    region: Region::new(0, 32),
                },
            )
        })
        .collect();
    client.round(reqs).unwrap();
    client
        .call(
            RpcTarget::Manager,
            Request::Create {
                path: "/lat".into(),
                layout: l,
            },
        )
        .unwrap();

    let stats = client.stats();
    assert_eq!(
        stats.rpc_latency.count(),
        4,
        "[{kind}] write + two reads + create"
    );
    assert!(
        stats.rpc_latency.max_ns() > 0,
        "latencies are real durations"
    );
    let since_write = stats.since(&after_write);
    assert_eq!(
        (since_write.attempts, since_write.rpc_latency.count()),
        (3, 3)
    );
}

#[test]
fn client_latency_attribution_over_chan() {
    assert_client_latency_attribution(TransportKind::Chan);
}

#[test]
fn client_latency_attribution_over_tcp() {
    assert_client_latency_attribution(TransportKind::Tcp);
}

/// `PVFS_STATS=dump` prints each daemon's books once its door has
/// drained, so a frame still in service when the cluster is dropped is
/// in its daemon's line. The test runs itself again as a child process
/// with the variable set, and reads the child's stderr.
#[test]
#[allow(clippy::disallowed_methods)] // the child-process marker is the harness's, not a PVFS_* one
fn the_teardown_dump_counts_a_frame_served_during_teardown() {
    const NAME: &str = "the_teardown_dump_counts_a_frame_served_during_teardown";
    if std::env::var_os("STATS_RPC_CHILD").is_some() {
        // The child: a ping to a daemon that serves for 50 ms, its
        // arrival booked, then the cluster dropped under it.
        let config = IodConfig {
            emulated_latency: Some(Duration::from_millis(50)),
            ..IodConfig::default()
        };
        let cluster = LiveCluster::spawn_with(1, config);
        let transport = cluster.transport();
        let ping = std::thread::spawn(move || {
            let message = Message {
                client: ClientId(1),
                id: RequestId(1),
                request: Request::Ping,
            };
            let frame = encode_frame(&message, None).unwrap();
            let mut lane = transport.dispatch(RpcTarget::Server(ServerId(0)), frame);
            lane.as_mut()
                .unwrap()
                .recv(Duration::from_secs(10), &mut ())
                .is_ok()
        });
        while cluster.stats_snapshot(ServerId(0)).unwrap().frames_rx == 0 {
            std::thread::yield_now();
        }
        drop(cluster);
        assert!(ping.join().unwrap(), "the ping was answered");
        return;
    }
    let child = std::process::Command::new(std::env::current_exe().unwrap())
        .args([NAME, "--exact", "--nocapture", "--test-threads=1"])
        .env("STATS_RPC_CHILD", "1")
        .env("PVFS_STATS", "dump")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&child.stderr);
    assert!(child.status.success(), "{stderr}");
    let iod0 = stderr
        .lines()
        .find(|line| line.starts_with("{\"daemon\":\"iod0\""))
        .unwrap_or_else(|| panic!("no dump line for iod0: {stderr}"));
    assert!(
        iod0.contains("\"frames_rx\":1,") && iod0.contains("\"service_time\":{\"count\":1,"),
        "{iod0}"
    );
}
