//! The windowed request pipeline under the plan executor, watched from
//! the transport seam of a live cluster.
//!
//! `pvfs-net`'s unit tests pin the window's shape against a fake
//! transport; here the real executor drives real daemons and a
//! [`Watched`] transport in between counts what crosses: how many
//! flights each daemon has in the air, what each frame asks, and
//! whether the serial gate was held when it left. The last two tests
//! are about what one client's window does to everybody else's: 48
//! clients on four daemons' shared queues, and replies too big for a
//! socket's buffers.

use pvfs::client::PvfsFile;
use pvfs::core::{Method, MethodConfig};
use pvfs::net::tcp::{TcpCluster, TcpTransport};
use pvfs::net::{
    BreakerPolicy, ClusterClient, FaultPlan, Lane, LiveCluster, RetryPolicy, RpcTarget, SerialGate,
    Transport, TransportKind, WaitError, WINDOW,
};
use pvfs::proto::{decode_frame, decode_response_id, Frame, Request};
use pvfs::server::{IoDaemon, IodConfig};
use pvfs::types::{
    ClientId, FileHandle, PvfsError, PvfsResult, Region, RegionList, RequestId, ServerId,
    StripeLayout,
};
use pvfs::workloads::{verify, Cyclic};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One frame to a daemon, as it left: what it asked, how many flights
/// that daemon then had in the air (this one included), how many
/// flights of a *different* op were in the air anywhere, and how often
/// the serial gate had been taken by then.
struct Departure {
    op: &'static str,
    flying_there: usize,
    others_flying: usize,
    gate_acquisitions: u64,
}

struct Watch {
    /// Per daemon: the flights in the air, by request id, and their ops.
    flying: Vec<Vec<(RequestId, &'static str)>>,
    departures: Vec<Departure>,
}

/// A live cluster's transport with a [`Watch`] on the daemons' lanes.
struct Watched {
    inner: Arc<dyn Transport>,
    gate: Arc<SerialGate>,
    watch: Arc<Mutex<Watch>>,
}

struct WatchedLane {
    inner: Box<dyn Lane>,
    gate: Arc<SerialGate>,
    watch: Arc<Mutex<Watch>>,
    server: usize,
}

impl Transport for Watched {
    fn n_servers(&self) -> u32 {
        self.inner.n_servers()
    }

    fn lane(&self, target: RpcTarget) -> PvfsResult<Box<dyn Lane>> {
        let inner = self.inner.lane(target)?;
        let RpcTarget::Server(server) = target else {
            return Ok(inner);
        };
        Ok(Box::new(WatchedLane {
            inner,
            gate: self.gate.clone(),
            watch: self.watch.clone(),
            server: server.index(),
        }))
    }

    fn kind(&self) -> TransportKind {
        self.inner.kind()
    }
}

impl Lane for WatchedLane {
    fn send(&mut self, frame: Frame) -> PvfsResult<()> {
        let (message, _) = decode_frame(frame.clone())?;
        let op = message.request.op_name();
        self.inner.send(frame)?;
        let mut watch = self.watch.lock().unwrap();
        watch.flying[self.server].push((message.id, op));
        let flying = watch.flying.iter().flatten();
        let departure = Departure {
            op,
            flying_there: watch.flying[self.server].len(),
            others_flying: flying.filter(|(_, o)| *o != op).count(),
            gate_acquisitions: self.gate.acquisitions(),
        };
        watch.departures.push(departure);
        Ok(())
    }

    fn flush(&mut self) -> PvfsResult<()> {
        self.inner.flush()
    }

    fn recv(&mut self, timeout: Duration) -> Result<Frame, WaitError> {
        let reply = self.inner.recv(timeout);
        let landed = match &reply {
            Ok(frame) => decode_response_id(&frame.head),
            Err(WaitError::Lost(id, _)) => Some(*id),
            Err(_) => None,
        };
        let mut watch = self.watch.lock().unwrap();
        watch.flying[self.server].retain(|(id, _)| Some(*id) != landed);
        reply
    }

    fn park(self: Box<Self>) {
        self.inner.park()
    }
}

/// A client of `cluster` whose frames to the daemons are watched.
fn watched_client(cluster: &LiveCluster) -> (ClusterClient, Arc<Mutex<Watch>>) {
    let watch = Arc::new(Mutex::new(Watch {
        flying: vec![Vec::new(); cluster.n_servers() as usize],
        departures: Vec::new(),
    }));
    let transport = Watched {
        inner: cluster.transport(),
        gate: cluster.gate(),
        watch: watch.clone(),
    };
    let client = ClusterClient::with_transport(ClientId(77), Arc::new(transport), cluster.gate());
    (client, watch)
}

/// Rank 3 of the benchmark's cyclic pattern: 1024 regions of 128 B,
/// 16 rounds of 4 list frames over four daemons.
fn cyclic_1024() -> (RegionList, RegionList, Vec<u8>) {
    let pattern = Cyclic {
        clients: 8,
        accesses_per_client: 1024,
        aggregate_bytes: 8 * 1024 * 128,
    };
    let request = pattern.request_for(3).unwrap();
    let content = verify::content(5, request.total_len() as usize);
    (request.mem, request.file, content)
}

fn layout() -> StripeLayout {
    StripeLayout::new(0, 4, 16 * 1024).unwrap()
}

fn frames_rx(cluster: &LiveCluster) -> Vec<u64> {
    (0..cluster.n_servers())
        .map(|s| cluster.stats_snapshot(ServerId(s)).unwrap().frames_rx)
        .collect()
}

/// A 16-round list plan fills the window — `WINDOW` flights on every
/// daemon, never one more — and on a healthy cluster that costs no
/// retry, no shed and not one extra frame.
#[test]
fn a_list_plan_keeps_w_flights_on_every_daemon_and_sends_nothing_twice() {
    let cluster = LiveCluster::spawn_with(4, IodConfig::default());
    let (client, watch) = watched_client(&cluster);
    let (mem, file_regions, content) = cyclic_1024();
    let mut file = PvfsFile::create(&client, "/pvfs/window", layout()).unwrap();

    let written = file
        .write_list(&mem, &file_regions, &content, Method::List)
        .unwrap();
    let mut back = vec![0u8; content.len()];
    let read = file
        .read_list(&mem, &file_regions, &mut back, Method::List)
        .unwrap();
    assert_eq!(back, content);

    for report in [&written, &read] {
        assert_eq!((report.rounds, report.requests), (16, 64));
        assert_eq!((report.client.attempts, report.client.retries), (64, 0));
        assert_eq!(report.client.sheds_seen, 0);
        assert_eq!(report.requests_by_server, [16; 4]);
    }
    assert_eq!(frames_rx(&cluster), [32; 4], "one frame per request");
    let watch = watch.lock().unwrap();
    let peak = |op| {
        let lanes = watch.departures.iter().filter(|d| d.op == op);
        lanes.map(|d| d.flying_there).max().unwrap()
    };
    assert_eq!((peak("write_list"), peak("read_list")), (WINDOW, WINDOW));
}

/// A sieving write is read → modify → write under the serial gate, and
/// stays so: its rounds go through a temp, so each is a barrier — no
/// write leaves while a read is in the air (nor the reverse), every
/// frame leaves with the gate taken, and the bytes come out right,
/// which they only do when the copy ran between the two.
#[test]
fn a_sieving_write_still_runs_read_copy_write_strictly_in_order() {
    let cluster = LiveCluster::spawn_with(4, IodConfig::default());
    let (client, watch) = watched_client(&cluster);
    let layout = StripeLayout::new(0, 4, 64).unwrap();
    let mut file = PvfsFile::create(&client, "/pvfs/sieve", layout).unwrap();
    // Four windows: the write of one is followed at once by the read of
    // the next, through the same buffer.
    file.set_method_config(MethodConfig {
        sieve_buffer: 1024,
        ..MethodConfig::paper_default()
    });
    let base = verify::content(9, 4096);
    file.write_at(0, &base).unwrap();
    watch.lock().unwrap().departures.clear();

    let holes = RegionList::from_pairs((0..40u64).map(|i| (16 + i * 100, 24))).unwrap();
    let mem = RegionList::contiguous(0, holes.total_len());
    let fill = vec![0xe1u8; holes.total_len() as usize];
    let report = file
        .write_list(&mem, &holes, &fill, Method::DataSieving)
        .unwrap();
    assert!(report.serial_sections == 1 && report.copy_bytes > 0);
    let sieve = std::mem::take(&mut watch.lock().unwrap().departures);

    let mut expect = base.clone();
    for r in holes.iter() {
        expect[r.offset as usize..r.end() as usize].fill(0xe1);
    }
    let mut back = vec![0u8; expect.len()];
    file.read_at(0, &mut back).unwrap();
    assert_eq!(back, expect, "the merge ran between the read and the write");

    // Window by window: the reads, then the writes.
    let ops: Vec<_> = sieve.iter().map(|d| d.op).collect();
    let runs: Vec<_> = ops.chunk_by(|a, b| a == b).map(|run| run[0]).collect();
    assert_eq!(runs, ["read", "write"].repeat(4), "{ops:?}");
    for d in &sieve {
        assert_eq!(d.others_flying, 0, "a {} left across a barrier", d.op);
        assert_eq!(d.gate_acquisitions, 1, "a {} left before the gate", d.op);
    }
}

/// A transient failure in the middle of a streamed plan re-ships the
/// failed frame alone: the healthy daemons see exactly their 16 frames.
#[test]
fn a_transient_failure_mid_stream_reships_only_the_failed_frame() {
    let mut cluster = LiveCluster::spawn_with(4, IodConfig::default());
    cluster.inject_faults(FaultPlan {
        disconnect: 1.0,
        target: Some(2),
        limit: Some(1),
        ..FaultPlan::default()
    });
    let client = cluster.client();
    let (mem, file_regions, content) = cyclic_1024();
    let mut file = PvfsFile::create(&client, "/pvfs/replay", layout()).unwrap();
    let report = file
        .write_list(&mem, &file_regions, &content, Method::List)
        .unwrap();
    assert_eq!(
        (
            report.requests,
            report.client.attempts,
            report.client.retries
        ),
        (64, 65, 1)
    );
    assert_eq!(frames_rx(&cluster), [16, 16, 17, 16]);
    let mut back = vec![0u8; content.len()];
    file.read_list(&mem, &file_regions, &mut back, Method::List)
        .unwrap();
    assert_eq!(back, content);
}

/// The one coarse clock check: with every request taking 20 ms at its
/// daemon, the 16 rounds of a 1024-region list read cost 16 × 20 ms
/// behind a barrier each; through the window a daemon's two workers
/// work off its 16 frames in 8 × 20 ms.
#[test]
fn a_list_read_overlaps_its_rounds_on_the_daemons() {
    let latency = Duration::from_millis(20);
    let config = IodConfig {
        workers: 2,
        emulated_latency: Some(latency),
        ..IodConfig::default()
    };
    let cluster = LiveCluster::spawn_with(4, config);
    let client = cluster.client();
    let (mem, file_regions, _) = cyclic_1024();
    let mut file = PvfsFile::create(&client, "/pvfs/overlap", layout()).unwrap();
    let mut back = vec![0u8; mem.total_len() as usize];
    let started = Instant::now();
    let report = file
        .read_list(&mem, &file_regions, &mut back, Method::List)
        .unwrap();
    let elapsed = started.elapsed();
    assert_eq!(report.rounds, 16);
    assert!(
        latency * 8 <= elapsed && elapsed < latency * 14,
        "16 rounds took {elapsed:?}: lock-step is {:?}, two workers' ceiling {:?}",
        latency * 16,
        latency * 8
    );
}

/// A client holds one connection per daemon, whatever its window: after
/// set-up (a contiguous write and read) both ends hold one per daemon
/// and the manager's, and fifty windowed list writes and reads later —
/// `WINDOW` frames in the air on each — still exactly those.
#[test]
fn the_tcp_pool_stays_bounded_by_the_window() {
    let config = IodConfig::default();
    let daemons: Vec<_> = (0..4)
        .map(|s| Arc::new(IoDaemon::new(ServerId(s), config)))
        .collect();
    let tcp = TcpCluster::spawn(&daemons, config);
    let transport = Arc::new(TcpTransport::new(tcp.server_addrs(), tcp.mgr_addr()));
    let gate = Arc::new(SerialGate::new());
    let client = ClusterClient::with_transport(ClientId(1), transport.clone(), gate);

    let (mem, file_regions, content) = cyclic_1024();
    let mut file = PvfsFile::create(&client, "/pvfs/pool", layout()).unwrap();
    file.write_at(0, &content).unwrap();
    let mut back = vec![0u8; content.len()];
    file.read_at(0, &mut back).unwrap();
    assert_eq!(back, content);
    let connections = || (tcp.open_connections(), transport.idle_connections());
    assert_eq!(connections(), (5, 5), "one per daemon, one for the manager");

    for _ in 0..50 {
        let written = file
            .write_list(&mem, &file_regions, &content, Method::List)
            .unwrap();
        let read = file
            .read_list(&mem, &file_regions, &mut back, Method::List)
            .unwrap();
        assert_eq!((written.requests, read.requests), (64, 64));
        assert_eq!(connections(), (5, 5), "a window is not a connection each");
    }
    assert_eq!(back, content);
}

/// The window is per client, the daemons' queues are not: 48 clients ×
/// `WINDOW` frames overrun the default `queue_depth` of 64 three times
/// over. A shed frame is the daemon pushing back on this client's
/// window, not a failed attempt: every op completes, as it did when a
/// client had one frame per daemon in the air.
#[test]
fn many_clients_overrunning_the_daemons_queues_lose_no_op() {
    const CLIENTS: u64 = 48;
    let config = IodConfig {
        workers: 2,
        emulated_latency: Some(Duration::from_millis(1)),
        ..IodConfig::default()
    };
    let cluster = LiveCluster::spawn_with(4, config);
    let pattern = Cyclic {
        clients: CLIENTS,
        accesses_per_client: 1024,
        aggregate_bytes: CLIENTS * 1024 * 128,
    };
    let setup = cluster.client();
    PvfsFile::create(&setup, "/pvfs/crowd", layout()).unwrap();
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let ranks: Vec<_> = (0..CLIENTS)
            .map(|rank| {
                let (client, request) = (cluster.client(), pattern.request_for(rank).unwrap());
                scope.spawn(move || {
                    let mut file = PvfsFile::open(&client, "/pvfs/crowd").unwrap();
                    let content = verify::content(rank, request.total_len() as usize);
                    let written =
                        file.write_list(&request.mem, &request.file, &content, Method::List);
                    let mut back = vec![0u8; content.len()];
                    let read = file.read_list(&request.mem, &request.file, &mut back, Method::List);
                    (written.and(read).map(|_| back == content), client.stats())
                })
            })
            .collect();
        ranks.into_iter().map(|r| r.join().unwrap()).collect()
    });
    let failed: Vec<_> = outcomes.iter().filter(|(o, _)| *o != Ok(true)).collect();
    let sheds: u64 = outcomes.iter().map(|(_, s)| s.sheds_seen).sum();
    let retries: u64 = outcomes.iter().map(|(_, s)| s.retries).sum();
    assert!(
        failed.is_empty(),
        "{} of {CLIENTS} clients failed ({sheds} sheds, {retries} retries), e.g. {:?}",
        failed.len(),
        failed[0].0
    );
}

/// Replies too big for the socket buffers: a worker serving one blocks
/// in its send until the client reads. The daemon queues a client's
/// frames in the order their connections' reader threads get to run,
/// not the order they left, so both workers can be stuck sending the
/// replies to newer flights while the oldest is still in the queue —
/// the pump must not sit on that one until the deadline (which, with
/// retries off, would fail the read).
#[test]
fn replies_larger_than_the_socket_buffers_do_not_stall_the_window() {
    const REGION: u64 = 12 << 20;
    let config = IodConfig::default();
    let daemons = [Arc::new(IoDaemon::new(ServerId(0), config))];
    let tcp = TcpCluster::spawn(&daemons, config);
    let transport = Arc::new(TcpTransport::new(tcp.server_addrs(), tcp.mgr_addr()));
    let gate = Arc::new(SerialGate::new());
    let client = ClusterClient::with_transport(ClientId(1), transport, gate)
        .with_rpc_timeout(Duration::from_secs(5))
        .with_retry_policy(RetryPolicy::none());
    let layout = StripeLayout::new(0, 1, 1 << 20).unwrap();
    let mut file = PvfsFile::create(&client, "/pvfs/big", layout).unwrap();

    // One round per region under `Multiple`, all to the one daemon.
    let regions = RegionList::from_pairs((0..2 * WINDOW as u64).map(|i| (i * 2 * REGION, REGION)));
    let regions = regions.unwrap();
    let mem = RegionList::contiguous(0, regions.total_len());
    let content = verify::content(3, regions.total_len() as usize);
    file.write_list(&mem, &regions, &content, Method::Multiple)
        .unwrap();
    let mut back = vec![0u8; content.len()];
    let report = file
        .read_list(&mem, &regions, &mut back, Method::Multiple)
        .unwrap();
    assert_eq!(report.rounds, 2 * WINDOW as u64);
    assert!(back == content);
}

/// A flight that times out gives its place in the window up while its
/// reply is still to come, so a chan lane can owe a slow daemon more
/// than `WINDOW` replies — more than its reply channel holds. That is
/// no invariant to assert: the stream still ends, in time, with the
/// timeout, and every late reply is dropped by its id.
#[test]
fn a_chan_lane_may_owe_more_than_a_window_after_timeouts() {
    let config = IodConfig {
        workers: 1,
        emulated_latency: Some(Duration::from_millis(20)),
        ..IodConfig::default()
    };
    let cluster = LiveCluster::spawn_transport(1, config, TransportKind::Chan);
    let retry = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        budget: Duration::from_secs(5),
    };
    let never_open = BreakerPolicy {
        threshold: 1000,
        open_for: Duration::from_millis(1),
    };
    let client = cluster
        .client()
        .with_rpc_timeout(Duration::from_millis(5))
        .with_retry_policy(retry)
        .with_breaker_policy(never_open);
    let read = |i: u64| Request::Read {
        handle: FileHandle(1),
        layout: StripeLayout::new(0, 1, 16).unwrap(),
        region: Region::new(i * 10, 10),
    };
    let started = Instant::now();
    let reads = (0..2 * WINDOW as u64).map(|i| (ServerId(0), read(i)));
    let outcome = client.round(reads.collect());
    assert!(matches!(outcome, Err(PvfsError::Timeout(_))), "{outcome:?}");
    assert!(started.elapsed() < Duration::from_secs(5));
}
