//! Chaos tests: the retry machinery against injected transport faults.
//!
//! These are the tentpole tests of the hostile-cluster PR. Fault
//! injection is seeded and (for the surgical tests) bounded with
//! `limit=N`, so every run sees the same faults — a failure here
//! reproduces exactly.

use bytes::Bytes;
use pvfs_net::{
    BreakerPolicy, BreakerState, FaultPlan, LiveCluster, RetryPolicy, RpcTarget, TransportKind,
};
use pvfs_proto::{Request, Response};
use pvfs_server::IodConfig;
use pvfs_types::clock::now_ns;
use pvfs_types::{FileHandle, PvfsError, Region, ServerId, StripeLayout};
use std::time::{Duration, Instant};

fn layout(n: u32) -> StripeLayout {
    StripeLayout::new(0, n, 16).unwrap()
}

fn frames_rx(cluster: &LiveCluster, server: u32) -> u64 {
    cluster.stats_snapshot(ServerId(server)).unwrap().frames_rx
}

/// The partial-round recovery contract, pinned exactly: when one op of
/// a 4-way fan-out fails, the retry re-sends ONLY that op — the three
/// healthy daemons must not see a second frame. `disconnect` forwards
/// the request before killing the reply, so the faulted daemon executes
/// twice (which is why per-region write idempotency is load-bearing).
#[test]
fn partial_round_retry_resends_only_failed_ops() {
    let mut cluster = LiveCluster::spawn_with(4, IodConfig::default());
    cluster.inject_faults(FaultPlan {
        disconnect: 1.0,
        target: Some(2),
        limit: Some(1),
        ..FaultPlan::default()
    });
    let c = cluster.client();
    let l = layout(4);
    let fh = FileHandle(11);

    let requests: Vec<(ServerId, Request)> = (0..4u32)
        .map(|s| {
            (
                ServerId(s),
                Request::Write {
                    handle: fh,
                    layout: l,
                    region: Region::new(s as u64 * 16, 16),
                    data: Bytes::from(vec![s as u8; 16]),
                },
            )
        })
        .collect();
    let responses = c.round(requests).unwrap();
    assert!(responses
        .iter()
        .all(|r| *r == Response::Written { bytes: 16 }));

    // Healthy daemons: exactly one frame each. Faulted daemon: two —
    // the disconnected attempt executed, then the retry did again.
    for healthy in [0u32, 1, 3] {
        assert_eq!(
            frames_rx(&cluster, healthy),
            1,
            "daemon {healthy} was healthy and must not be retried"
        );
    }
    assert_eq!(frames_rx(&cluster, 2), 2, "faulted daemon sees the replay");

    // And the data survived, byte-exact, across the partial retry.
    for s in 0..4u32 {
        let resp = c
            .call(
                RpcTarget::Server(ServerId(s)),
                Request::Read {
                    handle: fh,
                    layout: l,
                    region: Region::new(0, 64),
                },
            )
            .unwrap();
        match resp {
            Response::Data { data } => assert_eq!(data.as_ref(), &[s as u8; 16][..]),
            other => panic!("unexpected {other:?}"),
        }
    }

    let stats = c.stats();
    // 4 ops + 1 re-sent + 4 verification reads = 9 attempts.
    assert_eq!(stats.attempts, 9);
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.faults_injected, 1);
}

/// Byte-exact strided write/read traffic through ~5% mixed faults, on
/// both transports. The retry policy must absorb every injected fault
/// transparently — same data back, bounded attempts, retries observed.
fn chaos_roundtrip(kind: TransportKind) {
    let mut cluster = LiveCluster::spawn_transport(4, IodConfig::default(), kind);
    cluster.inject_faults(FaultPlan {
        drop: 0.02,
        disconnect: 0.02,
        corrupt: 0.01,
        seed: 77,
        ..FaultPlan::default()
    });
    let c = cluster.client();
    let l = layout(4);
    let fh = FileHandle(23);

    // 64 strided writes of 16 bytes, one stripe unit each, round-robin
    // across the daemons; then read each back and verify.
    for i in 0..64u64 {
        let fill = (i as u8) ^ 0xa5;
        let resp = c
            .call(
                RpcTarget::Server(ServerId((i % 4) as u32)),
                Request::Write {
                    handle: fh,
                    layout: l,
                    region: Region::new(i * 16, 16),
                    data: Bytes::from(vec![fill; 16]),
                },
            )
            .unwrap();
        assert_eq!(resp, Response::Written { bytes: 16 });
    }
    for i in 0..64u64 {
        let fill = (i as u8) ^ 0xa5;
        let resp = c
            .call(
                RpcTarget::Server(ServerId((i % 4) as u32)),
                Request::Read {
                    handle: fh,
                    layout: l,
                    region: Region::new(i * 16, 16),
                },
            )
            .unwrap();
        match resp {
            Response::Data { data } => {
                assert_eq!(data.as_ref(), &[fill; 16][..], "op {i} data corrupted")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    let stats = c.stats();
    assert!(
        stats.faults_injected > 0,
        "5% over 128+ RPCs must inject something (seeded: deterministic)"
    );
    assert_eq!(
        stats.retries,
        stats.attempts - 128,
        "every attempt beyond the 128 ops is a retry"
    );
    assert!(
        stats.retries >= stats.faults_injected - stats.retries,
        "most faults must surface as retries"
    );
    assert!(
        stats.attempts <= 128 + 128 * (u64::from(RetryPolicy::default().max_attempts) - 1),
        "attempts stay bounded by the policy"
    );
}

#[test]
fn chaos_roundtrip_over_chan() {
    chaos_roundtrip(TransportKind::Chan);
}

#[test]
fn chaos_roundtrip_over_tcp() {
    chaos_roundtrip(TransportKind::Tcp);
}

/// `PVFS_RETRY=off` semantics: with retries disabled the injected fault
/// surfaces to the caller as its typed error, and nothing was retried.
#[test]
fn retry_off_surfaces_the_injected_fault() {
    let mut cluster = LiveCluster::spawn_with(2, IodConfig::default());
    cluster.inject_faults(FaultPlan {
        drop: 1.0,
        limit: Some(1),
        ..FaultPlan::default()
    });
    let c = cluster.client().with_retry_policy(RetryPolicy::none());
    let l = layout(2);

    let err = c
        .call(
            RpcTarget::Server(ServerId(0)),
            Request::Write {
                handle: FileHandle(5),
                layout: l,
                region: Region::new(0, 8),
                data: Bytes::from(vec![1u8; 8]),
            },
        )
        .unwrap_err();
    assert!(matches!(err, PvfsError::Transport(_)), "got {err:?}");
    assert!(err.is_retryable(), "a drop is transient...");
    assert!(
        !err.is_definitely_not_executed(),
        "...and ambiguous from the variant alone"
    );
    let stats = c.stats();
    assert_eq!(stats.attempts, 1, "fail-fast: one attempt only");
    assert_eq!(stats.retries, 0);

    // The limit is spent; the same call now sails through.
    let resp = c
        .call(
            RpcTarget::Server(ServerId(0)),
            Request::Write {
                handle: FileHandle(5),
                layout: l,
                region: Region::new(0, 8),
                data: Bytes::from(vec![1u8; 8]),
            },
        )
        .unwrap();
    assert_eq!(resp, Response::Written { bytes: 8 });
}

/// A wedged response burns the whole (shortened) deadline, surfaces as
/// `Timeout`, and the retry then succeeds — with backoff actually slept
/// and recorded between the attempts.
#[test]
fn wedge_times_out_then_retry_succeeds_with_backoff() {
    let mut cluster = LiveCluster::spawn_with(1, IodConfig::default());
    cluster.inject_faults(FaultPlan {
        wedge: 1.0,
        limit: Some(1),
        ..FaultPlan::default()
    });
    let timeout = Duration::from_millis(60);
    let c = cluster
        .client()
        .with_rpc_timeout(timeout)
        .with_retry_policy(RetryPolicy {
            base_backoff: Duration::from_millis(5),
            ..RetryPolicy::default()
        });
    let started = Instant::now();
    let resp = c
        .call(
            RpcTarget::Server(ServerId(0)),
            Request::GetLocalSize {
                handle: FileHandle(1),
            },
        )
        .unwrap();
    let elapsed = started.elapsed();
    assert_eq!(resp, Response::LocalSize { size: 0 });
    assert!(
        elapsed >= timeout,
        "the wedged attempt must burn its deadline (took {elapsed:?})"
    );
    let stats = c.stats();
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.attempts, 2);
    assert!(
        stats.backoff_ms >= 5,
        "backoff must be slept and recorded (got {} ms)",
        stats.backoff_ms
    );
    assert_eq!(stats.faults_injected, 1);
}

/// The retry budget is a hard wall: a permanently dead target stops
/// costing attempts once the budget is spent, even with attempts left —
/// and the backoff sleeps themselves are **clamped to the remaining
/// budget**, so one jittered sleep cannot blow past the wall. Breaker
/// off: with the default policy the endless drops would open the
/// circuit and end the loop early with `Unavailable` instead of letting
/// the budget do the cutting.
#[test]
fn retry_budget_bounds_total_time() {
    let mut cluster = LiveCluster::spawn_with(1, IodConfig::default());
    cluster.inject_faults(FaultPlan {
        drop: 1.0,
        ..FaultPlan::default()
    });
    let budget = Duration::from_millis(100);
    // base_backoff far beyond the budget: the decorrelated-jitter delay
    // after the first failure is at least 400 ms, so only the clamp can
    // keep the total anywhere near 100 ms.
    let c = cluster
        .client()
        .with_breaker_policy(BreakerPolicy::off())
        .with_retry_policy(RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff: Duration::from_millis(400),
            max_backoff: Duration::from_secs(5),
            budget,
        });
    let started = Instant::now();
    let err = c
        .call(
            RpcTarget::Server(ServerId(0)),
            Request::GetLocalSize {
                handle: FileHandle(1),
            },
        )
        .unwrap_err();
    let elapsed = started.elapsed();
    assert!(err.is_retryable());
    assert!(
        elapsed < budget + Duration::from_millis(150),
        "sleeps must be clamped to the remaining budget (took {elapsed:?})"
    );
    let stats = c.stats();
    assert!(stats.attempts >= 2, "the budget allows a few attempts");
    assert!(
        stats.attempts < 100,
        "but nowhere near unbounded ({} attempts)",
        stats.attempts
    );
}

/// Durability under chaos: ~5% mixed transport faults over TCP against
/// a file-backed cluster, a durability barrier, then a full daemon
/// restart from the data directories. Every byte the client got an ack
/// for must survive the restart, exactly once — retries that re-execute
/// a write (see `partial_round_retry_resends_only_failed_ops`) must not
/// double-apply, and the barrier must leave no journal entries behind.
#[test]
fn file_backend_survives_chaos_then_restart() {
    use pvfs_disk::{ScratchDir, StorageConfig, SyncPolicy};

    let dir = ScratchDir::new("chaos-durable");
    let storage = StorageConfig::File {
        dir: dir.path().to_path_buf(),
        sync: SyncPolicy::Interval(Duration::from_millis(5)),
    };
    let l = layout(4);
    let fh = FileHandle(1);

    {
        let mut cluster = LiveCluster::spawn_storage(
            4,
            IodConfig::default(),
            TransportKind::Tcp,
            storage.clone(),
        );
        cluster.inject_faults(FaultPlan {
            drop: 0.02,
            disconnect: 0.02,
            corrupt: 0.01,
            seed: 1902,
            ..FaultPlan::default()
        });
        let c = cluster.client();

        // Strided contiguous writes, round-robin across the daemons.
        for i in 0..64u64 {
            let fill = (i as u8) ^ 0x3c;
            let resp = c
                .call(
                    RpcTarget::Server(ServerId((i % 4) as u32)),
                    Request::Write {
                        handle: fh,
                        layout: l,
                        region: Region::new(i * 16, 16),
                        data: Bytes::from(vec![fill; 16]),
                    },
                )
                .unwrap();
            assert_eq!(resp, Response::Written { bytes: 16 });
        }
        // One journaled list batch per daemon: three of its stripes
        // overwritten in a single all-or-nothing intent record.
        for s in 0..4u32 {
            let regions: Vec<Region> = (0..3u64)
                .map(|k| Region::new(u64::from(s) * 16 + k * 64, 16))
                .collect();
            let resp = c
                .call(
                    RpcTarget::Server(ServerId(s)),
                    Request::WriteList {
                        handle: fh,
                        layout: l,
                        regions: pvfs_types::RegionList::from_regions(regions).unwrap(),
                        data: Bytes::from(vec![0xB0 | s as u8; 48]),
                    },
                )
                .unwrap();
            assert_eq!(resp, Response::Written { bytes: 48 });
        }
        // Barrier every daemon, still under fault injection.
        for s in 0..4u32 {
            let resp = c
                .call(RpcTarget::Server(ServerId(s)), Request::Sync { handle: fh })
                .unwrap();
            assert!(matches!(resp, Response::Synced { durable } if durable > 0));
        }
        let stats = c.stats();
        assert!(stats.faults_injected > 0, "seeded chaos must fire");
        // The barrier checkpointed every journal.
        for s in 0..4u32 {
            let snap = cluster.daemon(ServerId(s)).unwrap().ledger().snapshot();
            assert_eq!(snap.journal_depth, 0, "daemon {s} left journal entries");
        }
    }

    // Cold restart over the same directories, no faults this time.
    let cluster = LiveCluster::spawn_storage(4, IodConfig::default(), TransportKind::Tcp, storage);
    let c = cluster.client();
    for i in 0..64u64 {
        let s = (i % 4) as u32;
        let stripe = i / 4;
        let expect = if stripe < 3 {
            0xB0 | s as u8 // list batch overwrote the first 3 stripes
        } else {
            (i as u8) ^ 0x3c
        };
        let resp = c
            .call(
                RpcTarget::Server(ServerId(s)),
                Request::Read {
                    handle: fh,
                    layout: l,
                    region: Region::new(i * 16, 16),
                },
            )
            .unwrap();
        match resp {
            Response::Data { data } => {
                assert_eq!(data.as_ref(), &[expect; 16][..], "op {i} lost or doubled")
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

/// The brown-out tentpole, end to end: one daemon of four wedges solid.
/// The client's failure detector trips that daemon's breaker, after
/// which a full fan-out round fails FAST on the wedged server (an open
/// breaker costs microseconds, not a burned deadline) while the three
/// healthy daemons keep executing their ops byte-exactly. Once the
/// wedge clears and the open window elapses, the half-open probe closes
/// the circuit and the daemon serves real I/O again.
fn brownout_survives_a_wedged_daemon(kind: TransportKind) {
    let mut cluster = LiveCluster::spawn_transport(4, IodConfig::default(), kind);
    // Server 2 swallows exactly two responses, then heals.
    cluster.inject_faults(FaultPlan {
        wedge: 1.0,
        target: Some(2),
        limit: Some(2),
        ..FaultPlan::default()
    });
    let c = cluster
        .client()
        .with_rpc_timeout(Duration::from_millis(40))
        .with_retry_policy(RetryPolicy::none())
        .with_breaker_policy(BreakerPolicy {
            threshold: 2,
            open_for: Duration::from_millis(150),
        });
    let l = layout(4);
    let fh = FileHandle(31);
    let write = |s: u32| Request::Write {
        handle: fh,
        layout: l,
        region: Region::new(u64::from(s) * 16, 16),
        data: Bytes::from(vec![s as u8; 16]),
    };

    // Two burned deadlines trip the breaker on server 2.
    for _ in 0..2 {
        let err = c
            .call(RpcTarget::Server(ServerId(2)), write(2))
            .unwrap_err();
        assert!(matches!(err, PvfsError::Timeout(_)), "got {err:?}");
    }
    assert_eq!(c.health().state(ServerId(2), now_ns()), BreakerState::Open);

    // A fan-out round across all four: the wedged server is rejected at
    // admission — in microseconds — while the healthy daemons execute.
    let rx_before: Vec<u64> = [0u32, 1, 3]
        .iter()
        .map(|&s| frames_rx(&cluster, s))
        .collect();
    let started = Instant::now();
    let err = c
        .round((0..4u32).map(|s| (ServerId(s), write(s))).collect())
        .unwrap_err();
    let elapsed = started.elapsed();
    assert!(
        matches!(err, PvfsError::Unavailable { server: 2, .. }),
        "got {err:?}"
    );
    assert!(
        elapsed < Duration::from_millis(30),
        "an open breaker must fail fast, not burn the 40 ms deadline (took {elapsed:?})"
    );
    for (k, &s) in [0u32, 1, 3].iter().enumerate() {
        assert_eq!(
            frames_rx(&cluster, s),
            rx_before[k] + 1,
            "healthy daemon {s} must still have served its op"
        );
    }
    assert!(c.stats().breaker_rejections >= 1);

    // The healthy daemons' bytes of that degraded round are intact.
    for s in [0u32, 1, 3] {
        let resp = c
            .call(
                RpcTarget::Server(ServerId(s)),
                Request::Read {
                    handle: fh,
                    layout: l,
                    region: Region::new(u64::from(s) * 16, 16),
                },
            )
            .unwrap();
        match resp {
            Response::Data { data } => assert_eq!(data.as_ref(), &[s as u8; 16][..]),
            other => panic!("unexpected {other:?}"),
        }
    }

    // The wedge burned its fault limit; once the open window elapses,
    // the half-open probe sails through and the circuit closes.
    std::thread::sleep(Duration::from_millis(160));
    assert_eq!(
        c.health().state(ServerId(2), now_ns()),
        BreakerState::HalfOpen
    );
    c.ping(ServerId(2)).unwrap();
    assert_eq!(
        c.health().state(ServerId(2), now_ns()),
        BreakerState::Closed
    );
    let resp = c.call(RpcTarget::Server(ServerId(2)), write(2)).unwrap();
    assert_eq!(resp, Response::Written { bytes: 16 });
}

#[test]
fn brownout_survives_a_wedged_daemon_over_chan() {
    brownout_survives_a_wedged_daemon(TransportKind::Chan);
}

#[test]
fn brownout_survives_a_wedged_daemon_over_tcp() {
    brownout_survives_a_wedged_daemon(TransportKind::Tcp);
}

/// Breaker state transitions under seeded disconnect faults, pinned on
/// both transports: closed → (threshold failures) → open (fast-fail
/// `Unavailable`) → half-open after the window → closed on a good
/// probe. The other daemon's circuit never moves.
fn breaker_trips_and_recovers_on_disconnects(kind: TransportKind) {
    let mut cluster = LiveCluster::spawn_transport(2, IodConfig::default(), kind);
    cluster.inject_faults(FaultPlan {
        disconnect: 1.0,
        target: Some(0),
        limit: Some(3),
        ..FaultPlan::default()
    });
    let c = cluster
        .client()
        .with_retry_policy(RetryPolicy::none())
        .with_breaker_policy(BreakerPolicy {
            threshold: 3,
            open_for: Duration::from_millis(120),
        });

    // Three consecutive disconnects: closed all the way to the trip.
    for i in 0..3 {
        assert_eq!(
            c.health().state(ServerId(0), now_ns()),
            BreakerState::Closed
        );
        let err = c.ping(ServerId(0)).unwrap_err();
        assert!(matches!(err, PvfsError::Transport(_)), "probe {i}: {err:?}");
    }
    assert_eq!(c.health().state(ServerId(0), now_ns()), BreakerState::Open);

    // Open: rejected at admission, typed and attributed.
    let started = Instant::now();
    let err = c.ping(ServerId(0)).unwrap_err();
    assert!(
        matches!(err, PvfsError::Unavailable { server: 0, .. }),
        "got {err:?}"
    );
    assert!(started.elapsed() < Duration::from_millis(20));
    assert_eq!(c.stats().breaker_rejections, 1);

    // The sibling daemon is untouched throughout.
    assert_eq!(
        c.health().state(ServerId(1), now_ns()),
        BreakerState::Closed
    );
    c.ping(ServerId(1)).unwrap();

    // Recovery: window elapses, the half-open probe (faults are spent)
    // closes the circuit.
    std::thread::sleep(Duration::from_millis(130));
    assert_eq!(
        c.health().state(ServerId(0), now_ns()),
        BreakerState::HalfOpen
    );
    c.ping(ServerId(0)).unwrap();
    assert_eq!(
        c.health().state(ServerId(0), now_ns()),
        BreakerState::Closed
    );
    assert_eq!(
        c.health().state(ServerId(1), now_ns()),
        BreakerState::Closed
    );
}

#[test]
fn breaker_trips_and_recovers_on_disconnects_over_chan() {
    breaker_trips_and_recovers_on_disconnects(TransportKind::Chan);
}

#[test]
fn breaker_trips_and_recovers_on_disconnects_over_tcp() {
    breaker_trips_and_recovers_on_disconnects(TransportKind::Tcp);
}

/// Server-side load shedding, on both transports: a daemon with one
/// slow worker and a queue of one answers overflow with a typed
/// `Overloaded` refusal instead of stalling clients into their
/// deadline. The refusal is retryable *and* provably unexecuted, so
/// retrying clients all complete byte-exactly — and both sides count
/// the sheds.
fn full_queue_sheds_and_retries_absorb(kind: TransportKind) {
    let config = IodConfig {
        workers: 1,
        queue_depth: 1,
        emulated_latency: Some(Duration::from_millis(20)),
        ..IodConfig::default()
    };
    let cluster = LiveCluster::spawn_transport(1, config, kind);
    let l = layout(1);
    let fh = FileHandle(51);
    let n = 8u64;

    let sheds_seen: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let c = cluster.client().with_retry_policy(RetryPolicy {
                    max_attempts: 1000,
                    base_backoff: Duration::from_millis(2),
                    max_backoff: Duration::from_millis(50),
                    budget: Duration::from_secs(10),
                });
                scope.spawn(move || {
                    let resp = c
                        .call(
                            RpcTarget::Server(ServerId(0)),
                            Request::Write {
                                handle: fh,
                                layout: l,
                                region: Region::new(i * 16, 16),
                                data: Bytes::from(vec![i as u8; 16]),
                            },
                        )
                        .unwrap();
                    assert_eq!(resp, Response::Written { bytes: 16 });
                    c.stats().sheds_seen
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    let snap = cluster.stats_snapshot(ServerId(0)).unwrap();
    assert!(
        snap.requests_shed > 0,
        "8 writers against a queue of 1 must shed (shed {})",
        snap.requests_shed
    );
    assert_eq!(
        sheds_seen, snap.requests_shed,
        "every server-side shed surfaces as a client-side Overloaded"
    );

    // Every write landed exactly once despite the refusals.
    let c = cluster.client();
    for i in 0..n {
        let resp = c
            .call(
                RpcTarget::Server(ServerId(0)),
                Request::Read {
                    handle: fh,
                    layout: l,
                    region: Region::new(i * 16, 16),
                },
            )
            .unwrap();
        match resp {
            Response::Data { data } => assert_eq!(data.as_ref(), &[i as u8; 16][..]),
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn full_queue_sheds_and_retries_absorb_over_chan() {
    full_queue_sheds_and_retries_absorb(TransportKind::Chan);
}

#[test]
fn full_queue_sheds_and_retries_absorb_over_tcp() {
    full_queue_sheds_and_retries_absorb(TransportKind::Tcp);
}
