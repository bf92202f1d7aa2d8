//! End-to-end tests of the TCP transport over loopback sockets: the
//! paper's wire-frame arithmetic on real sockets, deadline behavior
//! against pathological peers, framing violations, pooling, shutdown.

use bytes::Bytes;
use pvfs_net::tcp::frame::{read_frame, write_frame, write_frame_parts};
use pvfs_net::tcp::{TcpCluster, TcpTransport};
use pvfs_net::{
    ClusterClient, LiveCluster, RpcTarget, SerialGate, Transport, TransportKind, WaitError,
};
use pvfs_proto::{
    decode_response, decode_response_frame, encode_frame, encode_message, Message, Request,
    Response,
};
use pvfs_server::{IoDaemon, IodConfig};
use pvfs_types::{
    ClientId, FileHandle, PvfsError, Region, RegionList, RequestId, ServerId, StripeLayout,
};
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn layout(n: u32) -> StripeLayout {
    StripeLayout::new(0, n, 16).unwrap()
}

fn frames_rx(cluster: &LiveCluster, server: u32) -> u64 {
    cluster.stats_snapshot(ServerId(server)).unwrap().frames_rx
}

/// The paper's §3.3 claim, measured on real sockets: a noncontiguous
/// write of 64 regions is ONE list-I/O request frame on the wire, where
/// multiple I/O (one contiguous request per region) takes 64.
#[test]
fn list_write_of_64_regions_is_one_wire_frame_vs_64() {
    let cluster = LiveCluster::spawn_transport(1, IodConfig::default(), TransportKind::Tcp);
    assert_eq!(cluster.transport_kind(), TransportKind::Tcp);
    let c = cluster.client();
    let l = layout(1);
    let fh = FileHandle(42);

    // 64 regions of 4 bytes, stride 8 — the worst case multiple I/O
    // turns into 64 round trips.
    let pairs: Vec<(u64, u64)> = (0..64u64).map(|i| (i * 8, 4)).collect();
    let regions = RegionList::from_pairs(pairs.clone()).unwrap();
    let data = Bytes::from(vec![0x5au8; 64 * 4]);

    let before = frames_rx(&cluster, 0);
    let resp = c
        .call(
            RpcTarget::Server(ServerId(0)),
            Request::WriteList {
                handle: fh,
                layout: l,
                regions,
                data,
            },
        )
        .unwrap();
    assert_eq!(resp, Response::Written { bytes: 256 });
    assert_eq!(
        frames_rx(&cluster, 0) - before,
        1,
        "a 64-region list write must be exactly one request frame"
    );

    // The same access as multiple I/O: one contiguous write per region.
    let before = frames_rx(&cluster, 0);
    for (off, len) in pairs {
        c.call(
            RpcTarget::Server(ServerId(0)),
            Request::Write {
                handle: fh,
                layout: l,
                region: Region::new(off, len),
                data: Bytes::from(vec![0x5au8; len as usize]),
            },
        )
        .unwrap();
    }
    assert_eq!(
        frames_rx(&cluster, 0) - before,
        64,
        "multiple I/O pays one request frame per region"
    );
}

/// Wire byte accounting is exact: the daemon sees prefix + frame for
/// each request.
#[test]
fn wire_bytes_count_the_length_prefix() {
    let daemons = vec![Arc::new(IoDaemon::new(ServerId(0), IodConfig::default()))];
    let tcp = TcpCluster::spawn(&daemons, IodConfig::default());
    let transport = TcpTransport::new(tcp.server_addrs(), tcp.mgr_addr());

    let frame = encode_message(&Message {
        client: ClientId(1),
        id: RequestId(1),
        request: Request::GetLocalSize {
            handle: FileHandle(1),
        },
    })
    .unwrap();
    let wire = 4 + frame.len() as u64;
    transport
        .dispatch(RpcTarget::Server(ServerId(0)), frame.into())
        .unwrap()
        .recv(Duration::from_secs(5))
        .unwrap();
    let stats = daemons[0].ledger().snapshot();
    assert_eq!(stats.frames_rx, 1);
    assert_eq!(stats.bytes_rx, wire);
    // LocalSize reply: 12-byte envelope + tag, 8-byte size, 4-byte prefix.
    assert_eq!(stats.bytes_tx, 4 + 20);
}

/// A reply is accounted before it is handed to the socket (under the
/// connection's write lock), so a client that holds reply `k` can never
/// read counters that miss reply `k`'s frame — prefix included, `Data`
/// replies (written head-and-payload, vectored) no different.
#[test]
fn bytes_tx_includes_every_reply_the_client_already_holds() {
    let daemons = vec![Arc::new(IoDaemon::new(ServerId(0), IodConfig::default()))];
    let tcp = TcpCluster::spawn(&daemons, IodConfig::default());
    let transport = TcpTransport::new(tcp.server_addrs(), tcp.mgr_addr());
    let l = layout(1);
    let mut expected_tx = 0u64;
    for k in 1..=200u64 {
        let request = if k % 2 == 0 {
            Request::GetLocalSize {
                handle: FileHandle(1),
            }
        } else {
            Request::Read {
                handle: FileHandle(1),
                layout: l,
                region: Region::new(0, 3 * k),
            }
        };
        let frame = encode_message(&Message {
            client: ClientId(1),
            id: RequestId(k),
            request,
        })
        .unwrap();
        let reply = transport
            .dispatch(RpcTarget::Server(ServerId(0)), frame.into())
            .unwrap()
            .recv(Duration::from_secs(5))
            .unwrap();
        expected_tx += 4 + reply.len() as u64;
        assert_eq!(
            daemons[0].ledger().snapshot().bytes_tx,
            expected_tx,
            "reply {k} is in hand but not in the counters"
        );
    }
}

/// The satellite bugfix regression: a server trickling a response one
/// byte at a time must NOT reset the deadline on each partial read. The
/// RPC budget bounds total elapsed time, so the client gives up near
/// the deadline even though bytes keep arriving.
#[test]
fn trickled_response_cannot_stretch_the_rpc_deadline() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        // Consume the request frame so the client is purely waiting.
        let _ = read_frame(&mut conn).unwrap();
        // A perfectly valid response... at one byte per 30 ms. Each
        // byte lands well inside a naive per-read timeout; only a
        // total-elapsed deadline rejects it.
        let resp = pvfs_proto::encode_response(RequestId(1), &Response::Closed);
        let mut wire = (resp.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&resp);
        for b in wire {
            if conn.write_all(&[b]).and_then(|()| conn.flush()).is_err() {
                return; // client hung up, as it should
            }
            std::thread::sleep(Duration::from_millis(30));
        }
    });

    let transport = TcpTransport::new(vec![addr], addr);
    let frame = encode_message(&Message {
        client: ClientId(1),
        id: RequestId(1),
        request: Request::GetLocalSize {
            handle: FileHandle(1),
        },
    })
    .unwrap();
    let mut lane = transport
        .dispatch(RpcTarget::Server(ServerId(0)), frame.into())
        .unwrap();
    let start = Instant::now();
    let err = lane.recv(Duration::from_millis(150)).unwrap_err();
    let elapsed = start.elapsed();
    assert!(matches!(err, WaitError::Timeout), "got {err:?}");
    assert!(
        elapsed < Duration::from_millis(600),
        "deadline must bound total time, not per-read time (took {elapsed:?})"
    );
    server.join().unwrap();
}

/// A peer announcing an oversized frame to a daemon gets a typed
/// id-0 error response and a closed connection — never an allocation.
#[test]
fn server_rejects_oversized_announcement_with_typed_error() {
    let daemons = vec![Arc::new(IoDaemon::new(ServerId(0), IodConfig::default()))];
    let tcp = TcpCluster::spawn(&daemons, IodConfig::default());
    let mut conn = TcpStream::connect(tcp.server_addrs()[0]).unwrap();
    // A hostile ~4 GiB announcement.
    conn.write_all(&u32::MAX.to_le_bytes()).unwrap();
    conn.flush().unwrap();
    let reply = read_frame(&mut conn).expect("server should explain before hanging up");
    let (rid, response) = decode_response(reply).unwrap();
    assert_eq!(rid, RequestId(0), "no header was read: reserved id");
    match response {
        Response::Error(PvfsError::FrameTooLarge { len, max }) => {
            assert_eq!(len, u32::MAX as u64);
            assert!(max < len);
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    // And the connection is gone.
    let mut rest = Vec::new();
    assert_eq!(conn.read_to_end(&mut rest).unwrap(), 0);
}

/// A *server* announcing an oversized response frame surfaces to the
/// client as the typed error, not an OOM or a hang.
#[test]
fn client_rejects_oversized_response_announcement() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let _ = read_frame(&mut conn).unwrap();
        conn.write_all(&u32::MAX.to_le_bytes()).unwrap();
    });
    let transport = TcpTransport::new(vec![addr], addr);
    let frame = encode_message(&Message {
        client: ClientId(1),
        id: RequestId(1),
        request: Request::GetLocalSize {
            handle: FileHandle(1),
        },
    })
    .unwrap();
    let err = transport
        .dispatch(RpcTarget::Server(ServerId(0)), frame.into())
        .unwrap()
        .recv(Duration::from_secs(5))
        .unwrap_err();
    match err {
        WaitError::Failed(PvfsError::FrameTooLarge { len, .. }) => {
            assert_eq!(len, u32::MAX as u64)
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    server.join().unwrap();
}

/// Sequential RPCs reuse one persistent connection instead of dialing
/// per request.
#[test]
fn sequential_rpcs_reuse_a_pooled_connection() {
    let daemons = vec![Arc::new(IoDaemon::new(ServerId(0), IodConfig::default()))];
    let tcp = TcpCluster::spawn(&daemons, IodConfig::default());
    let transport = Arc::new(TcpTransport::new(tcp.server_addrs(), tcp.mgr_addr()));
    let client =
        ClusterClient::with_transport(ClientId(1), transport.clone(), Arc::new(SerialGate::new()));
    for _ in 0..5 {
        client
            .call(
                RpcTarget::Server(ServerId(0)),
                Request::GetLocalSize {
                    handle: FileHandle(1),
                },
            )
            .unwrap();
    }
    assert_eq!(
        transport.idle_connections(),
        1,
        "five sequential RPCs should ride one persistent connection"
    );
}

/// A parked connection the server closed while it sat idle must not
/// fail the next RPC. The fake server here serves exactly ONE frame per
/// connection and then hangs up, and each lane is parked once its reply
/// is in, so every RPC after the first is sent on a pooled connection
/// the peer has closed — the stale-keepalive race: either the send
/// fails outright (evict + fresh dial) or the send lands in the local
/// socket buffer and the read sees the peer gone before any response
/// byte (re-dial + replay). Both heal transparently — and the request is
/// a write, so what is re-sent is a two-part frame: the server checks
/// that head *and* payload arrive intact on every connection it serves.
#[test]
fn second_rpc_after_server_side_disconnect_succeeds() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let message = |i: u64| Message {
        client: ClientId(1),
        id: RequestId(i),
        request: Request::WriteList {
            handle: FileHandle(1),
            layout: layout(1),
            regions: RegionList::from_pairs([(0, 300), (1000, 300)]).unwrap(),
            data: Bytes::from(
                (0..600u32)
                    .map(|b| (b * i as u32) as u8)
                    .collect::<Vec<_>>(),
            ),
        },
    };
    let server = std::thread::spawn(move || {
        // Serve 3 one-shot connections: first RPC, then up to two heals.
        let mut served = 0u32;
        while served < 3 {
            let Ok((mut conn, _)) = listener.accept() else {
                return served;
            };
            let frame = match read_frame(&mut conn) {
                Ok(f) => f,
                Err(_) => continue, // client probed a dead conn race
            };
            let msg = pvfs_proto::decode_message(frame).unwrap();
            assert_eq!(msg, message(msg.id.0), "a re-sent frame lost a part");
            let resp = pvfs_proto::encode_response(msg.id, &Response::Written { bytes: 600 });
            let mut wire = (resp.len() as u32).to_le_bytes().to_vec();
            wire.extend_from_slice(&resp);
            conn.write_all(&wire).unwrap();
            conn.flush().unwrap();
            served += 1;
            // Hang up: the client will park this now-dead connection.
            drop(conn);
        }
        served
    });

    let transport = TcpTransport::new(vec![addr], addr);
    for i in 1..=3u64 {
        let frame = encode_frame(&message(i), None).unwrap();
        assert_eq!(frame.payload.len(), 600, "the request is a two-part frame");
        let parked = transport.idle_connections();
        assert_eq!(
            parked,
            usize::from(i > 1),
            "rpc {i}: the last lane is parked"
        );
        let mut lane = transport
            .dispatch(RpcTarget::Server(ServerId(0)), frame)
            .unwrap();
        assert_eq!(
            transport.idle_connections(),
            0,
            "rpc {i} went out on the parked connection, not a fresh one"
        );
        let reply = lane
            .recv(Duration::from_secs(5))
            .unwrap_or_else(|e| panic!("rpc {i} after server-side disconnect failed: {e:?}"));
        let (rid, resp) = decode_response_frame(reply).unwrap();
        assert_eq!(rid, RequestId(i));
        assert_eq!(resp, Response::Written { bytes: 600 });
        lane.park();
    }
    // One connection per RPC: the 2nd and 3rd came over re-dialled ones,
    // each healing the closed connection it was sent on.
    assert_eq!(server.join().unwrap(), 3);
    assert_eq!(transport.idle_connections(), 1, "a healed lane parks");
}

/// A writer that records what each call handed it.
#[derive(Default)]
struct CountingWriter {
    out: Vec<u8>,
    vectored_calls: usize,
    plain_calls: usize,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.plain_calls += 1;
        self.out.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        self.vectored_calls += 1;
        Ok(bufs
            .iter()
            .map(|b| {
                self.out.extend_from_slice(b);
                b.len()
            })
            .sum())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A write request leaves the client the way a `Data` reply leaves the
/// daemon: `prefix ‖ head ‖ payload` in ONE vectored write, the payload
/// read straight out of the buffer it was gathered into — and the bytes
/// on the wire are exactly the contiguous encoding's. The second half
/// drives the real pool against a byte-checking server.
#[test]
fn a_write_request_is_one_vectored_write_of_unchanged_bytes() {
    let message = Message {
        client: ClientId(9),
        id: RequestId(4),
        request: Request::WriteList {
            handle: FileHandle(1),
            layout: layout(1),
            regions: RegionList::from_pairs((0..64u64).map(|i| (i * 64, 32))).unwrap(),
            data: Bytes::from((0..2048u32).map(|b| b as u8).collect::<Vec<_>>()),
        },
    };
    let contiguous = encode_message(&message).unwrap();
    let mut expected = Vec::new();
    write_frame(&mut expected, &contiguous).unwrap();

    let frame = encode_frame(&message, None).unwrap();
    let mut w = CountingWriter::default();
    write_frame_parts(&mut w, &frame.head, &frame.payload).unwrap();
    assert_eq!((w.vectored_calls, w.plain_calls), (1, 0));
    assert_eq!(w.out, expected);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let got = read_frame(&mut conn).unwrap();
        let resp = pvfs_proto::encode_response(RequestId(4), &Response::Written { bytes: 2048 });
        write_frame(&mut conn, &resp).unwrap();
        got
    });
    TcpTransport::new(vec![addr], addr)
        .dispatch(RpcTarget::Server(ServerId(0)), frame)
        .unwrap()
        .recv(Duration::from_secs(5))
        .unwrap();
    assert_eq!(server.join().unwrap(), contiguous);
}

/// The bugfix regression: a daemon must give a connection's resources
/// back when the peer hangs up, not at shutdown. It used to keep a
/// duplicate of every accepted socket (and the reader's `JoinHandle`)
/// until `shutdown()`, so the socket never really closed: 200
/// connect/close cycles took a daemon process from 10 to 210 open
/// descriptors, one per stale-keepalive redial or short-lived client.
#[test]
fn closed_connections_are_released_not_hoarded_until_shutdown() {
    fn open_fds() -> Option<usize> {
        std::fs::read_dir("/proc/self/fd").ok().map(|d| d.count())
    }
    let daemons = vec![Arc::new(IoDaemon::new(ServerId(0), IodConfig::default()))];
    let tcp = TcpCluster::spawn(&daemons, IodConfig::default());
    let addr = tcp.server_addrs()[0];
    let frame = encode_message(&Message {
        client: ClientId(1),
        id: RequestId(1),
        request: Request::GetLocalSize {
            handle: FileHandle(1),
        },
    })
    .unwrap();
    let fds_before = open_fds();
    for _ in 0..200 {
        // A whole short-lived client: connect, one RPC, hang up.
        let mut conn = TcpStream::connect(addr).unwrap();
        write_frame(&mut conn, &frame).unwrap();
        read_frame(&mut conn).unwrap();
    }
    // The readers see the EOFs asynchronously; give them a moment.
    let deadline = Instant::now() + Duration::from_secs(10);
    while tcp.open_connections() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        tcp.open_connections(),
        0,
        "every client hung up, yet the daemon still holds connections"
    );
    // Descriptors, where the platform lets us count them: other tests
    // of this binary open a few dozen concurrently, a leak opens 200.
    if let (Some(before), Some(after)) = (fds_before, open_fds()) {
        assert!(
            after < before + 100,
            "open descriptors grew from {before} to {after} over 200 closed connections"
        );
    }
    // A live connection is still counted, and still served.
    let mut conn = TcpStream::connect(addr).unwrap();
    write_frame(&mut conn, &frame).unwrap();
    read_frame(&mut conn).unwrap();
    assert_eq!(tcp.open_connections(), 1);
}

/// Graceful shutdown still drains: a request a reader has already
/// queued is served, and its reply written, before the daemon's threads
/// are joined — releasing connections early did not loosen that.
#[test]
fn shutdown_still_serves_what_was_already_accepted() {
    let config = IodConfig {
        emulated_latency: Some(Duration::from_millis(150)),
        ..IodConfig::default()
    };
    let daemons = vec![Arc::new(IoDaemon::new(ServerId(0), config))];
    let mut tcp = TcpCluster::spawn(&daemons, config);
    let mut conn = TcpStream::connect(tcp.server_addrs()[0]).unwrap();
    let frame = encode_message(&Message {
        client: ClientId(1),
        id: RequestId(7),
        request: Request::GetLocalSize {
            handle: FileHandle(1),
        },
    })
    .unwrap();
    write_frame(&mut conn, &frame).unwrap();
    // Shut down only once the connection's reader has the frame (it
    // counts the frame, then queues it; shutdown joins the reader, so
    // the hand-off to the pool completes either way).
    let deadline = Instant::now() + Duration::from_secs(10);
    while daemons[0].ledger().snapshot().frames_rx == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    tcp.shutdown();
    let (rid, response) = decode_response(read_frame(&mut conn).unwrap()).unwrap();
    assert_eq!(rid, RequestId(7));
    assert_eq!(response, Response::LocalSize { size: 0 });
    assert_eq!(tcp.open_connections(), 0);
}

/// Full client/daemon data path over real sockets, including a fan-out
/// round, then a clean (non-hanging) teardown with the in-flight work
/// drained.
#[test]
fn data_roundtrip_and_graceful_shutdown_over_tcp() {
    let cluster = LiveCluster::spawn_transport(4, IodConfig::default(), TransportKind::Tcp);
    let c = cluster.client();
    let l = layout(4);
    let fh = FileHandle(7);
    for s in 0..4u32 {
        let resp = c
            .call(
                RpcTarget::Server(ServerId(s)),
                Request::Write {
                    handle: fh,
                    layout: l,
                    region: Region::new(s as u64 * 16, 16),
                    data: Bytes::from(vec![s as u8; 16]),
                },
            )
            .unwrap();
        assert_eq!(resp, Response::Written { bytes: 16 });
    }
    let reqs = (0..4u32)
        .map(|s| {
            (
                ServerId(s),
                Request::Read {
                    handle: fh,
                    layout: l,
                    region: Region::new(0, 64),
                },
            )
        })
        .collect();
    for (s, resp) in c.round(reqs).unwrap().into_iter().enumerate() {
        match resp {
            Response::Data { data } => assert_eq!(data.as_ref(), &[s as u8; 16][..]),
            other => panic!("unexpected {other:?}"),
        }
    }
    // Drop with the transport still holding live pooled connections;
    // the listeners, readers and pools must all drain and join.
    drop(cluster);
}

/// Metadata path (manager) over TCP, end to end.
#[test]
fn manager_rpcs_work_over_tcp() {
    let cluster = LiveCluster::spawn_transport(2, IodConfig::default(), TransportKind::Tcp);
    let c = cluster.client();
    let resp = c
        .call(
            RpcTarget::Manager,
            Request::Create {
                path: "/pvfs/tcp".into(),
                layout: layout(2),
            },
        )
        .unwrap();
    let handle = match resp {
        Response::Created { handle } => handle,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(
        c.call(RpcTarget::Manager, Request::Close { handle })
            .unwrap(),
        Response::Closed
    );
    let err = c
        .call(
            RpcTarget::Manager,
            Request::Open {
                path: "/nope".into(),
            },
        )
        .unwrap_err();
    assert!(matches!(err, PvfsError::NoSuchFile(_)));
}

/// The coalesced-segment case, end to end: a client that pipelines its
/// window hands a daemon several request frames in one write. Each is
/// served and answered under its own id, in whatever order the workers
/// finish — none lost behind the first, none answered twice.
#[test]
fn four_request_frames_in_one_write_get_four_replies_with_their_own_ids() {
    let config = IodConfig {
        workers: 2,
        ..IodConfig::default()
    };
    let daemons = vec![Arc::new(IoDaemon::new(ServerId(0), config))];
    let tcp = TcpCluster::spawn(&daemons, config);
    let mut conn = TcpStream::connect(tcp.server_addrs()[0]).unwrap();
    let l = layout(1);
    let mut segment = Vec::new();
    for id in 1..=4u64 {
        let frame = encode_message(&Message {
            client: ClientId(1),
            id: RequestId(id),
            request: Request::Write {
                handle: FileHandle(1),
                layout: l,
                region: Region::new(id * 100, id),
                data: Bytes::from(vec![id as u8; id as usize]),
            },
        })
        .unwrap();
        write_frame(&mut segment, &frame).unwrap();
    }
    conn.write_all(&segment).unwrap();
    let mut answered: Vec<(u64, Response)> = (0..4)
        .map(|_| {
            let (rid, response) = decode_response(read_frame(&mut conn).unwrap()).unwrap();
            (rid.0, response)
        })
        .collect();
    answered.sort_by_key(|(rid, _)| *rid);
    let expected: Vec<_> = (1..=4u64)
        .map(|id| (id, Response::Written { bytes: id }))
        .collect();
    assert_eq!(answered, expected);
    assert_eq!(daemons[0].ledger().snapshot().frames_rx, 4);
    // Nothing further comes: four frames, four replies.
    conn.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    assert!(conn.read(&mut [0u8; 1]).is_err());
}

/// A timeout settles one flight, not its connection. The daemon here
/// sits on its first request for three deadlines and answers every
/// other at once: the client gives up on that flight alone, sends it
/// again, and carries on down the stream on the same connection — and
/// when the stale reply finally turns up it is dropped by its id, not
/// handed to whoever is waiting. Every read returns its own bytes, and
/// the connection goes back to the pool for the next RPC.
#[test]
fn a_reply_that_arrives_after_its_flight_timed_out_is_dropped_by_id() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let timeout = Duration::from_millis(100);
    // What the byte at `offset` of the file reads as.
    let byte_at = |offset: u64| (offset * 7 + 3) as u8;
    let server = std::thread::spawn(move || {
        let (conn, _) = listener.accept().unwrap();
        let mut requests = std::io::BufReader::new(conn.try_clone().unwrap());
        let reply_to = |msg: &Message| {
            let Request::Read { region, .. } = &msg.request else {
                panic!("unexpected {msg:?}");
            };
            let data = (region.offset..region.end())
                .map(byte_at)
                .collect::<Vec<u8>>();
            let data = Bytes::from(data);
            pvfs_proto::encode_response(msg.id, &Response::Data { data })
        };
        let mut late = None;
        let mut served = 0;
        while let Ok(frame) = read_frame(&mut requests) {
            let msg = pvfs_proto::decode_message(frame).unwrap();
            served += 1;
            if served == 1 {
                // Answered three deadlines from now, from the side.
                let (reply, mut conn) = (reply_to(&msg), conn.try_clone().unwrap());
                late = Some(std::thread::spawn(move || {
                    std::thread::sleep(timeout * 3);
                    write_frame(&mut conn, &reply).unwrap();
                }));
                continue;
            }
            // Slow enough that the stream is still running by then,
            // fast enough that a window of these is well inside the
            // deadline.
            std::thread::sleep(timeout / 10);
            write_frame(&mut &conn, &reply_to(&msg)).unwrap();
        }
        late.unwrap().join().unwrap();
        served
    });

    let transport = Arc::new(TcpTransport::new(vec![addr], addr));
    let client =
        ClusterClient::with_transport(ClientId(1), transport.clone(), Arc::new(SerialGate::new()))
            .with_rpc_timeout(timeout);
    let read = |i: u64| Request::Read {
        handle: FileHandle(1),
        layout: layout(1),
        region: Region::new(i * 10, 10 + i),
    };
    let reads = 48u64;
    let responses = client
        .round((0..reads).map(|i| (ServerId(0), read(i))).collect())
        .unwrap();
    for (i, response) in (0..reads).zip(responses) {
        let expected: Vec<u8> = (i * 10..i * 10 + 10 + i).map(byte_at).collect();
        assert_eq!(
            response,
            Response::Data {
                data: expected.into()
            },
            "read {i}"
        );
    }
    let stats = client.stats();
    assert_eq!((stats.attempts, stats.retries), (reads + 1, 1));
    // The stale reply came and went while the stream ran, so nothing is
    // owed on the connection: it was parked, and serves the next RPC.
    assert_eq!(transport.idle_connections(), 1);
    let again = client.call(ServerId(0).into(), read(3)).unwrap();
    let expected: Vec<u8> = (30..43).map(byte_at).collect();
    assert_eq!(
        again,
        Response::Data {
            data: expected.into()
        }
    );
    assert_eq!(transport.idle_connections(), 1);
    drop((client, transport));
    assert_eq!(server.join().unwrap(), reads + 2);
}

/// Queueing is for small frames: they wait for the flush and leave
/// together, while a frame worth a write of its own goes at once.
#[test]
fn small_frames_wait_for_the_flush_and_a_large_one_does_not() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let transport = TcpTransport::new(vec![addr], addr);
    let mut lane = transport.lane(RpcTarget::Server(ServerId(0))).unwrap();
    let (mut conn, _) = listener.accept().unwrap();
    conn.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let write = |id: u64, len: usize| {
        let message = Message {
            client: ClientId(1),
            id: RequestId(id),
            request: Request::Write {
                handle: FileHandle(1),
                layout: layout(1),
                region: Region::new(0, len as u64),
                data: Bytes::from(vec![id as u8; len]),
            },
        };
        encode_frame(&message, None).unwrap()
    };
    let arrived = |conn: &mut TcpStream| read_frame(conn).map(pvfs_proto::decode_message);

    lane.send(write(1, 100)).unwrap();
    lane.send(write(2, 100)).unwrap();
    assert!(arrived(&mut conn).is_err(), "a queued frame left unflushed");
    lane.flush().unwrap();
    for id in [1, 2] {
        assert_eq!(arrived(&mut conn).unwrap().unwrap().id, RequestId(id));
    }
    lane.send(write(3, 64 << 10)).unwrap();
    assert_eq!(arrived(&mut conn).unwrap().unwrap().id, RequestId(3));
}
