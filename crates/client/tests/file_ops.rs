//! End-to-end client-library tests against a live threaded cluster.

use pvfs_client::PvfsFile;
use pvfs_core::{IoKind, ListRequest, Method, MethodConfig};
use pvfs_net::{FaultPlan, LiveCluster, RetryPolicy, RpcTarget, DEFAULT_RPC_TIMEOUT};
use pvfs_proto::Request;
use pvfs_types::clock::{now_ns, since};
use pvfs_types::{PvfsError, Region, RegionList, StripeLayout};
use std::time::Duration;

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(17).wrapping_add(salt))
        .collect()
}

#[test]
fn create_write_read_close() {
    let cluster = LiveCluster::spawn(4);
    let client = cluster.client();
    let layout = StripeLayout::new(0, 4, 64).unwrap();
    let mut f = PvfsFile::create(&client, "/pvfs/a", layout).unwrap();
    let data = pattern(1000, 3);
    f.write_at(128, &data).unwrap();
    let mut back = vec![0u8; 1000];
    f.read_at(128, &mut back).unwrap();
    assert_eq!(back, data);
    assert_eq!(f.size().unwrap(), 1128);
    f.close().unwrap();
}

#[test]
fn open_sees_created_data_and_layout() {
    let cluster = LiveCluster::spawn(3);
    let client = cluster.client();
    let layout = StripeLayout::new(0, 3, 32).unwrap();
    let mut f = PvfsFile::create(&client, "/pvfs/b", layout).unwrap();
    f.write_at(0, b"persistent across opens").unwrap();
    f.close().unwrap();

    let mut g = PvfsFile::open(&client, "/pvfs/b").unwrap();
    assert_eq!(g.layout(), layout);
    let mut buf = vec![0u8; 23];
    g.read_at(0, &mut buf).unwrap();
    assert_eq!(&buf, b"persistent across opens");
}

#[test]
fn create_duplicate_and_open_missing_fail() {
    let cluster = LiveCluster::spawn(2);
    let client = cluster.client();
    let layout = StripeLayout::new(0, 2, 32).unwrap();
    PvfsFile::create(&client, "/pvfs/c", layout).unwrap();
    assert!(matches!(
        PvfsFile::create(&client, "/pvfs/c", layout),
        Err(PvfsError::AlreadyExists(_))
    ));
    assert!(matches!(
        PvfsFile::open(&client, "/pvfs/missing"),
        Err(PvfsError::NoSuchFile(_))
    ));
}

#[test]
fn layout_must_fit_cluster() {
    let cluster = LiveCluster::spawn(2);
    let client = cluster.client();
    let too_wide = StripeLayout::new(0, 4, 32).unwrap();
    assert!(PvfsFile::create(&client, "/pvfs/d", too_wide).is_err());
}

/// A layout whose last server lies past `u32::MAX` is out of range too,
/// whether `create` is handed it or `open` hears it from the manager:
/// `base + pcount` must not wrap into the cluster.
#[test]
fn a_layout_past_the_last_server_id_does_not_wrap_into_range() {
    let cluster = LiveCluster::spawn(2);
    let client = cluster.client();
    let wrapping = StripeLayout::new(u32::MAX, 2, 32).unwrap();
    assert!(matches!(
        PvfsFile::create(&client, "/pvfs/wrap", wrapping),
        Err(PvfsError::InvalidArgument(_))
    ));
    let create = Request::Create {
        path: "/pvfs/wrap".into(),
        layout: wrapping,
    };
    client.call(RpcTarget::Manager, create).unwrap();
    assert!(matches!(
        PvfsFile::open(&client, "/pvfs/wrap"),
        Err(PvfsError::InvalidArgument(_))
    ));
}

#[test]
fn read_list_and_write_list_roundtrip_every_method() {
    let cluster = LiveCluster::spawn(4);
    let client = cluster.client();
    let layout = StripeLayout::new(0, 4, 16).unwrap();

    for (i, method) in Method::ALL.into_iter().enumerate() {
        let path = format!("/pvfs/rt{i}");
        let mut f = PvfsFile::create(&client, &path, layout).unwrap();
        // Sieve small to exercise windowing on this tiny file.
        f.set_method_config(MethodConfig {
            sieve_buffer: 128,
            ..MethodConfig::paper_default()
        });
        // Noncontiguous in file: 20 regions of 7 bytes every 31 bytes.
        let file = RegionList::from_pairs((0..20u64).map(|k| (k * 31, 7))).unwrap();
        let mem = RegionList::contiguous(0, file.total_len());
        let src = pattern(file.total_len() as usize, i as u8);
        f.write_list(&mem, &file, &src, method).unwrap();

        let mut back = vec![0u8; src.len()];
        f.read_list(&mem, &file, &mut back, method).unwrap();
        assert_eq!(back, src, "roundtrip failed for {method}");

        // Cross-check with a different method reading the same bytes.
        let mut cross = vec![0u8; src.len()];
        f.read_list(&mem, &file, &mut cross, Method::Multiple)
            .unwrap();
        assert_eq!(cross, src, "cross-method read failed for {method}");
    }
}

/// Fragments of KiB: over tcp each daemon's share moves straight
/// between the caller's buffer and the socket — a write sent from its
/// slices, a read's replies landing in them — and nothing is written
/// between them. 48 file regions of 3 KiB, 5 KiB apart, from and into
/// memory fragments of 3 KiB, 4 KiB apart; a read into memory slices out
/// of order goes through a reply buffer instead.
#[test]
fn kib_fragments_move_between_the_callers_buffer_and_the_wire() {
    let cluster = LiveCluster::spawn(4);
    let client = cluster.client();
    let layout = StripeLayout::new(0, 4, 16 << 10).unwrap();
    let file = RegionList::from_pairs((0..48u64).map(|k| (k * 5120, 3072))).unwrap();
    let mem = RegionList::from_pairs((0..48u64).map(|k| (k * 4096, 3072))).unwrap();
    let total = file.total_len();
    for (i, method) in [Method::List, Method::Multiple].into_iter().enumerate() {
        let mut f = PvfsFile::create(&client, &format!("/pvfs/kib{i}"), layout).unwrap();
        let src = pattern(48 * 4096, i as u8);
        let w = f.write_list(&mem, &file, &src, method).unwrap();
        assert_eq!(w.bytes_sent, total, "{method}");

        let mut back = vec![0xeeu8; src.len()];
        let r = f.read_list(&mem, &file, &mut back, method).unwrap();
        assert_eq!(r.bytes_received, total, "{method}");
        for (k, chunk) in back.chunks(4096).enumerate() {
            let at = k * 4096;
            assert_eq!(chunk[..3072], src[at..at + 3072], "{method}: fragment {k}");
            assert!(
                chunk[3072..].iter().all(|&b| b == 0xee),
                "{method}: gap {k}"
            );
        }

        // The same file regions read into the memory fragments reversed.
        let reversed = RegionList::from_pairs((0..48u64).rev().map(|k| (k * 4096, 3072))).unwrap();
        let mut back = vec![0u8; src.len()];
        f.read_list(&reversed, &file, &mut back, method).unwrap();
        for k in 0..48 {
            let (to, from) = ((47 - k) * 4096, k * 4096);
            assert_eq!(
                back[to..to + 3072],
                src[from..from + 3072],
                "{method}: reversed {k}"
            );
        }
    }
}

/// The live executor runs exactly what a plan's steps say: for every
/// method and both kinds, its report counts the plan's tally, and the
/// payload bytes it sent and received are the tally's wire bytes.
#[test]
fn exec_reports_count_the_plans_tally() {
    let cluster = LiveCluster::spawn(4);
    let client = cluster.client();
    let layout = StripeLayout::new(0, 4, 16).unwrap();
    let config = MethodConfig {
        sieve_buffer: 128,
        ..MethodConfig::paper_default()
    };
    // 12 of every 16 bytes, across the stripes: dense enough for hybrid
    // to sieve, long enough for several windows and list chunks.
    let file = RegionList::from_pairs((0..80u64).map(|k| (k * 16 + 3, 12))).unwrap();
    let mem = RegionList::contiguous(0, file.total_len());
    let request = ListRequest::new(mem.clone(), file.clone()).unwrap();
    for (i, method) in Method::ALL.into_iter().enumerate() {
        let mut f = PvfsFile::create(&client, &format!("/pvfs/tally{i}"), layout).unwrap();
        f.set_method_config(config.clone());
        let mut buf = pattern(file.total_len() as usize, i as u8);
        for kind in [IoKind::Write, IoKind::Read] {
            let planned = pvfs_core::plan(method, kind, &request, f.handle(), layout, &config);
            let tally = planned.unwrap().tally();
            let report = match kind {
                IoKind::Write => f.write_list(&mem, &file, &buf, method),
                IoKind::Read => f.read_list(&mem, &file, &mut buf, method),
            }
            .unwrap();
            let at = format!("{method}, {kind:?}");
            assert_eq!(
                (report.rounds, report.requests),
                (tally.rounds, tally.requests),
                "{at}"
            );
            assert_eq!(report.copy_bytes, tally.copy_bytes, "{at}");
            assert_eq!(report.serial_sections, tally.serial_sections, "{at}");
            let moved = report.bytes_sent + report.bytes_received;
            assert_eq!(moved, tally.wire_bytes, "{at}");
        }
    }
}

#[test]
fn noncontiguous_memory_list() {
    let cluster = LiveCluster::spawn(2);
    let client = cluster.client();
    let layout = StripeLayout::new(0, 2, 16).unwrap();
    let mut f = PvfsFile::create(&client, "/pvfs/mem", layout).unwrap();
    // Memory fragments of 4 bytes every 8; file contiguous.
    let mem = RegionList::from_pairs((0..8u64).map(|k| (k * 8, 4))).unwrap();
    let file = RegionList::contiguous(100, 32);
    let mut buf = vec![0xEEu8; 64];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = i as u8;
    }
    f.write_list(&mem, &file, &buf, Method::List).unwrap();

    // Read back contiguously: expect the gathered fragments.
    let mut flat = vec![0u8; 32];
    f.read_at(100, &mut flat).unwrap();
    let expected: Vec<u8> = (0..8u64)
        .flat_map(|k| (0..4u64).map(move |j| (k * 8 + j) as u8))
        .collect();
    assert_eq!(flat, expected);

    // And scatter it back into a fresh fragmented buffer.
    let mut scattered = vec![0u8; 64];
    f.read_list(&mem, &file, &mut scattered, Method::DataSieving)
        .unwrap();
    for k in 0..8u64 {
        for j in 0..4u64 {
            assert_eq!(scattered[(k * 8 + j) as usize], (k * 8 + j) as u8);
        }
    }
}

#[test]
fn mismatched_lists_are_rejected() {
    let cluster = LiveCluster::spawn(2);
    let client = cluster.client();
    let layout = StripeLayout::new(0, 2, 16).unwrap();
    let mut f = PvfsFile::create(&client, "/pvfs/bad", layout).unwrap();
    let mem = RegionList::contiguous(0, 10);
    let file = RegionList::contiguous(0, 20);
    let mut buf = vec![0u8; 32];
    assert!(f.read_list(&mem, &file, &mut buf, Method::List).is_err());
}

#[test]
fn buffer_too_small_is_rejected() {
    let cluster = LiveCluster::spawn(2);
    let client = cluster.client();
    let layout = StripeLayout::new(0, 2, 16).unwrap();
    let mut f = PvfsFile::create(&client, "/pvfs/small", layout).unwrap();
    let mem = RegionList::contiguous(100, 32);
    let file = RegionList::contiguous(0, 32);
    let mut buf = vec![0u8; 64]; // memory list reaches 132
    assert!(matches!(
        f.read_list(&mem, &file, &mut buf, Method::List),
        Err(PvfsError::InvalidArgument(_))
    ));
    // An unsorted memory list of 256 regions, four blocks of its index,
    // that fits the buffer but for one region in a middle block.
    let mut regions: Vec<Region> = (0..256).rev().map(|k| Region::new(4 * k, 2)).collect();
    let file = RegionList::contiguous(0, 512);
    let mut buf = vec![0u8; 1024];
    let fits = RegionList::from_regions(regions.clone()).unwrap();
    f.write_list(&fits, &file, &buf, Method::List).unwrap();
    regions[100] = Region::new(1024, 2);
    let past = RegionList::from_regions(regions).unwrap();
    assert!(matches!(
        f.write_list(&past, &file, &buf, Method::List),
        Err(PvfsError::InvalidArgument(_))
    ));
    assert!(matches!(
        f.read_list(&past, &file, &mut buf, Method::List),
        Err(PvfsError::InvalidArgument(_))
    ));
}

#[test]
fn typed_requests_roundtrip() {
    let cluster = LiveCluster::spawn(4);
    let client = cluster.client();
    let layout = StripeLayout::new(0, 4, 32).unwrap();
    let mut f = PvfsFile::create(&client, "/pvfs/typed", layout).unwrap();

    // File side: 16 blocks of 8 bytes every 24 bytes from offset 100,
    // which `Method::Datatype` ships as vector runs.
    let file = RegionList::from_pairs((0..16u64).map(|k| (100 + k * 24, 8))).unwrap();
    // Memory side: contiguous.
    let mem = RegionList::contiguous(0, file.total_len());
    let src = pattern(file.total_len() as usize, 77);
    f.write_list(&mem, &file, &src, Method::Datatype).unwrap();

    let mut back = vec![0u8; src.len()];
    f.read_list(&mem, &file, &mut back, Method::List).unwrap();
    assert_eq!(back, src);

    // The strided holes were not written.
    let mut raw = [0u8; 24];
    f.read_at(100 + 8, &mut raw[..16]).unwrap();
    assert_eq!(&raw[..16], &[0u8; 16]);
}

#[test]
fn size_reflects_sparse_writes() {
    let cluster = LiveCluster::spawn(4);
    let client = cluster.client();
    let layout = StripeLayout::new(0, 4, 16).unwrap();
    let mut f = PvfsFile::create(&client, "/pvfs/sparse", layout).unwrap();
    assert_eq!(f.size().unwrap(), 0);
    f.write_at(1000, b"x").unwrap();
    assert_eq!(f.size().unwrap(), 1001);
    f.write_at(10, b"y").unwrap();
    assert_eq!(f.size().unwrap(), 1001);
}

#[test]
fn concurrent_sieving_writers_serialize_safely() {
    // Several clients RMW-write disjoint interleaved regions of the
    // same file with data sieving; the serial gate must prevent lost
    // updates.
    let cluster = LiveCluster::spawn(4);
    let setup = cluster.client();
    let layout = StripeLayout::new(0, 4, 16).unwrap();
    let f = PvfsFile::create(&setup, "/pvfs/conc", layout).unwrap();
    f.close().unwrap();

    let n_clients = 6u64;
    let region_len = 8u64;
    let stride = n_clients * region_len;
    let regions_per_client = 24u64;
    let mut handles = Vec::new();
    for c in 0..n_clients {
        let client = cluster.client();
        handles.push(std::thread::spawn(move || {
            let mut f = PvfsFile::open(&client, "/pvfs/conc").unwrap();
            f.set_method_config(MethodConfig {
                sieve_buffer: 64, // force multiple RMW windows
                ..MethodConfig::paper_default()
            });
            let file = RegionList::from_pairs(
                (0..regions_per_client).map(|k| (k * stride + c * region_len, region_len)),
            )
            .unwrap();
            let mem = RegionList::contiguous(0, file.total_len());
            let src = vec![c as u8 + 1; file.total_len() as usize];
            f.write_list(&mem, &file, &src, Method::DataSieving)
                .unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // Every client's bytes must have survived.
    let mut f = PvfsFile::open(&cluster.client(), "/pvfs/conc").unwrap();
    let total = regions_per_client * stride;
    let mut all = vec![0u8; total as usize];
    f.read_at(0, &mut all).unwrap();
    for k in 0..regions_per_client {
        for c in 0..n_clients {
            let base = (k * stride + c * region_len) as usize;
            for b in &all[base..base + region_len as usize] {
                assert_eq!(*b, c as u8 + 1, "lost update at client {c} region {k}");
            }
        }
    }
}

/// The acceptance test of the hostile-cluster PR at the file API level:
/// every noncontiguous method roundtrips byte-exact through ~5% mixed
/// injected faults, and the `ExecReport` shows the retries that
/// absorbed them — bounded by the policy, invisible to the data.
#[test]
fn list_io_survives_five_percent_faults_with_retries_reported() {
    let mut cluster = LiveCluster::spawn(4);
    cluster.inject_faults(pvfs_net::FaultPlan {
        drop: 0.02,
        disconnect: 0.02,
        corrupt: 0.01,
        seed: 31,
        ..pvfs_net::FaultPlan::default()
    });
    let client = cluster.client();
    let layout = StripeLayout::new(0, 4, 16).unwrap();

    let mut total_retries = 0u64;
    let mut total_attempts = 0u64;
    let mut total_requests = 0u64;
    for (i, method) in Method::ALL.into_iter().enumerate() {
        let path = format!("/pvfs/chaos{i}");
        let mut f = PvfsFile::create(&client, &path, layout).unwrap();
        f.set_method_config(MethodConfig {
            sieve_buffer: 128,
            ..MethodConfig::paper_default()
        });
        // 40 regions of 7 bytes every 31 — crosses every server many
        // times, so faults land on the fan-out rounds.
        let file = RegionList::from_pairs((0..40u64).map(|k| (k * 31, 7))).unwrap();
        let mem = RegionList::contiguous(0, file.total_len());
        let src = pattern(file.total_len() as usize, i as u8);
        let w = f.write_list(&mem, &file, &src, method).unwrap();

        let mut back = vec![0u8; src.len()];
        let r = f.read_list(&mem, &file, &mut back, method).unwrap();
        assert_eq!(back, src, "chaos roundtrip corrupted data for {method}");

        for report in [&w, &r] {
            total_retries += report.client.retries;
            total_attempts += report.client.attempts;
            total_requests += report.requests;
            assert!(
                report.client.attempts >= report.requests,
                "every wire request is at least one attempt"
            );
            if client.endpoint().replica_map().policy().enabled() {
                // Under PVFS_REPLICAS>1 write fan-out ships one attempt
                // per copy and read failovers re-aim without retrying,
                // so attempts exceed requests by more than the retries.
                assert!(
                    report.client.attempts - report.requests >= report.client.retries,
                    "mirror copies and failovers only ever add attempts"
                );
            } else {
                assert_eq!(
                    report.client.attempts - report.requests,
                    report.client.retries,
                    "attempts beyond the requests are exactly the retries"
                );
            }
        }
    }
    assert!(
        total_retries > 0,
        "seeded 5% faults over {total_requests} requests must force retries"
    );
    let max = u64::from(RetryPolicy::default().max_attempts)
        * u64::from(client.endpoint().replica_map().policy().replicas);
    assert!(
        total_attempts <= total_requests * max,
        "attempts bounded: {total_attempts} > {total_requests} * {max}"
    );
}

/// A file runs under the retry policy of the client it was opened with:
/// a fresh client's (and so its file's) policy is `PVFS_RETRY`'s, and a
/// file opened through a clone with retries off has none, while the
/// client the clone was taken from keeps its own.
#[test]
fn retry_policy_is_inherited_and_tunable_per_file() {
    let cluster = LiveCluster::spawn(2);
    let client = cluster.client();
    let layout = StripeLayout::new(0, 2, 16).unwrap();
    let f = PvfsFile::create(&client, "/pvfs/retry", layout).unwrap();
    let inherited = RetryPolicy::from_env();
    assert_eq!(f.client().endpoint().retry_policy(), inherited);
    let tuned = client
        .clone()
        .with_endpoint(|e| e.with_retry_policy(RetryPolicy::none()));
    let mut f = PvfsFile::open(&tuned, "/pvfs/retry").unwrap();
    assert_eq!(f.client().endpoint().retry_policy().max_attempts, 1);
    assert_eq!(client.endpoint().retry_policy(), inherited);
    // Still works with retries off (no faults to absorb).
    f.write_at(0, b"fail-fast").unwrap();
    let mut buf = vec![0u8; 9];
    f.read_at(0, &mut buf).unwrap();
    assert_eq!(&buf, b"fail-fast");
}

/// A file runs under the deadline of the client it was opened with.
/// Opened through a clone tuned to a 100 ms deadline and no retries, a
/// read of wedged daemons fails with `Timeout` long before the default
/// deadline, and the client the clone was taken from keeps its own.
#[test]
fn rpc_timeout_is_inherited_and_tunable_per_file() {
    let mut cluster = LiveCluster::spawn(2);
    // Every daemon wedged: under `PVFS_REPLICAS=2` a read fails over to
    // the other copy.
    cluster.inject_faults(FaultPlan {
        wedge: 1.0,
        ..FaultPlan::default()
    });
    let client = cluster.client();
    let layout = StripeLayout::new(0, 2, 16).unwrap();
    let f = PvfsFile::create(&client, "/pvfs/deadline", layout).unwrap();
    assert_eq!(f.client().endpoint().rpc_timeout(), DEFAULT_RPC_TIMEOUT);
    let deadline = Duration::from_millis(100);
    let tuned = client.clone().with_endpoint(|e| {
        e.with_rpc_timeout(deadline)
            .with_retry_policy(RetryPolicy::none())
    });
    let mut f = PvfsFile::open(&tuned, "/pvfs/deadline").unwrap();
    let started = now_ns();
    let outcome = f.read_at(0, &mut [0u8; 8]);
    let took = since(started);
    assert!(matches!(outcome, Err(PvfsError::Timeout(_))), "{outcome:?}");
    assert!(took < DEFAULT_RPC_TIMEOUT / 5, "took {took:?}");
    assert_eq!(f.client().endpoint().rpc_timeout(), deadline);
    assert_eq!(client.endpoint().rpc_timeout(), DEFAULT_RPC_TIMEOUT);
}

/// Tracing must never touch the data path: the same strided list
/// workload through a fully-traced client and an untraced one leaves
/// byte-identical file contents and reads back byte-identical buffers —
/// while only the traced run retains a waterfall.
#[test]
fn traced_and_untraced_runs_are_byte_identical() {
    use pvfs_types::TraceMode;

    let run = |mode: TraceMode| -> (Vec<u8>, Option<String>) {
        let cluster = LiveCluster::spawn(4);
        let client = cluster.client().with_trace_mode(mode);
        let layout = StripeLayout::new(0, 4, 64).unwrap();
        let mut f = PvfsFile::create(&client, "/pvfs/traced", layout).unwrap();
        // Strided noncontiguous write + full readback, list method.
        let file_list = RegionList::from_pairs((0..32u64).map(|i| (i * 96, 48))).unwrap();
        let mem = RegionList::contiguous(0, file_list.total_len());
        let data = pattern(file_list.total_len() as usize, 11);
        f.write_list(&mem, &file_list, &data, Method::List).unwrap();
        let mut strided = vec![0u8; file_list.total_len() as usize];
        f.read_list(&mem, &file_list, &mut strided, Method::List)
            .unwrap();
        assert_eq!(strided, data, "list readback");
        // Full contiguous image of the file, gaps included.
        let size = f.size().unwrap();
        let mut image = vec![0u8; size as usize];
        f.read_at(0, &mut image).unwrap();
        let waterfall = client
            .tracer()
            .last()
            .map(|t| client.fetch_trace(t).render());
        (image, waterfall)
    };

    let (traced_image, waterfall) = run(TraceMode::All);
    let (plain_image, no_waterfall) = run(TraceMode::Off);
    assert_eq!(
        traced_image, plain_image,
        "tracing changed the bytes on disk"
    );
    let waterfall = waterfall.expect("TraceMode::All retains every execution");
    assert!(waterfall.contains("execute"), "{waterfall}");
    assert!(waterfall.contains("rpc:"), "{waterfall}");
    assert!(
        no_waterfall.is_none(),
        "TraceMode::Off must retain nothing: {no_waterfall:?}"
    );
}
