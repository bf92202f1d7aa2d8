//! Cross-method correctness: every access method must move exactly the
//! same bytes.
//!
//! These tests run compiled [`AccessPlan`]s through the plan [`Runner`]
//! directly against real [`IoDaemon`] state machines (no threads, no
//! simulator) and compare the outcome with a flat-array oracle, and the
//! runner's counts with the plan's tally. If multiple I/O, data sieving,
//! list I/O, hybrid and datatype I/O ever disagree on a single byte, the
//! timing figures comparing them would be meaningless — this is the
//! contract that makes the reproduction trustworthy. A collective call's
//! plans ([`plan_collective`]) run here too, one runner per rank, this
//! driver delivering each exchange itself.

use bytes::BytesMut;
use pvfs_core::{plan, AccessPlan, ExecReport, IoKind, ListRequest, Method, MethodConfig};
use pvfs_core::{plan_collective, CollectiveCall, DomainMap, Exchange, Runner, Step, UserBuf};
use pvfs_proto::{Request, Response};
use pvfs_server::IoDaemon;
use pvfs_types::{align_lists, FileHandle, Region, RegionList, ServerId, StripeLayout};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FH: FileHandle = FileHandle(7);

fn daemons(layout: &StripeLayout) -> Vec<IoDaemon> {
    (0..layout.base + layout.pcount)
        .map(|i| IoDaemon::with_defaults(ServerId(i)))
        .collect()
}

/// Run a plan against daemons until it ends or hands back an exchange
/// (single client, so serial markers are no-ops): the runner's in-process
/// driver, beside the live client and the simulator, sending each
/// request straight to its daemon in plan order.
fn run(runner: &mut Runner, daemons: &mut [IoDaemon]) -> Option<Exchange> {
    while let Some(step) = runner.step() {
        let round = match step {
            Step::Round(round) => round,
            Step::Exchange(exchange) => return Some(exchange),
            _ => continue,
        };
        for wire in runner.count(round) {
            let (request, _) = runner.request(&wire, 0, BytesMut::with_capacity);
            let (response, _) = daemons[wire.server.index()].handle(&request);
            if let Response::Error(e) = response {
                panic!("server error: {e}");
            }
            runner.landed(&wire, response, 0).expect("landed");
        }
    }
    None
}

/// Run an independent plan to completion against daemons.
fn execute(plan: AccessPlan, user: UserBuf, daemons: &mut [IoDaemon]) -> ExecReport {
    let mut runner = Runner::new(plan, user).unwrap();
    assert!(run(&mut runner, daemons).is_none(), "an exchange");
    runner.into_report()
}

/// The runner counted exactly what the plan's tally says.
fn assert_counts_tally(report: &ExecReport, plan: AccessPlan, at: &str) {
    let tally = plan.tally();
    let counted = (report.rounds, report.requests);
    assert_eq!(counted, (tally.rounds, tally.requests), "{at}");
    assert_eq!(report.copy_bytes, tally.copy_bytes, "{at}");
    assert_eq!(report.serial_sections, tally.serial_sections, "{at}");
    let wire = report.bytes_sent + report.bytes_received;
    assert_eq!(wire, tally.wire_bytes, "{at}");
}

/// Seed the distributed file with `content` via contiguous writes.
fn seed_file(content: &[u8], layout: &StripeLayout, daemons: &mut [IoDaemon]) {
    let region = Region::new(0, content.len() as u64);
    for d in daemons.iter_mut() {
        if d.id().0 < layout.base || d.id().0 >= layout.base + layout.pcount {
            continue;
        }
        let slot = d.id().0 - layout.base;
        let share: Vec<u8> = layout
            .segments(region)
            .filter(|s| s.slot == slot)
            .flat_map(|s| content[s.logical.offset as usize..s.logical.end() as usize].to_vec())
            .collect();
        if share.is_empty() {
            continue;
        }
        let (resp, _) = d.handle(&Request::Write {
            handle: FH,
            layout: *layout,
            region,
            data: bytes::Bytes::from(share),
        });
        assert!(matches!(resp, Response::Written { .. }));
    }
}

/// Read the whole distributed file back contiguously.
fn dump_file(len: usize, layout: &StripeLayout, daemons: &mut [IoDaemon]) -> Vec<u8> {
    let region = Region::new(0, len as u64);
    let mut out = vec![0u8; len];
    for d in daemons.iter_mut() {
        if d.id().0 < layout.base || d.id().0 >= layout.base + layout.pcount {
            continue;
        }
        let slot = d.id().0 - layout.base;
        let (resp, _) = d.handle(&Request::Read {
            handle: FH,
            layout: *layout,
            region,
        });
        let data = match resp {
            Response::Data { data } => data,
            other => panic!("unexpected {other:?}"),
        };
        let mut consumed = 0usize;
        for seg in layout.segments(region) {
            if seg.slot != slot {
                continue;
            }
            let n = seg.logical.len as usize;
            out[seg.logical.offset as usize..seg.logical.end() as usize]
                .copy_from_slice(&data[consumed..consumed + n]);
            consumed += n;
        }
    }
    out
}

fn pattern_bytes(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

/// Expected user buffer after reading `request` from `file_content`.
fn oracle_read(request: &ListRequest, file_content: &[u8], buf_len: usize) -> Vec<u8> {
    let mut user = vec![0u8; buf_len];
    for (mem, file) in align_lists(&request.mem, &request.file).unwrap() {
        user[mem.offset as usize..mem.end() as usize]
            .copy_from_slice(&file_content[file.offset as usize..file.end() as usize]);
    }
    user
}

/// Expected file after writing `request` from `user`.
fn oracle_write(request: &ListRequest, user: &[u8], file_before: &[u8]) -> Vec<u8> {
    let mut file = file_before.to_vec();
    for (mem, f) in align_lists(&request.mem, &request.file).unwrap() {
        file[f.offset as usize..f.end() as usize]
            .copy_from_slice(&user[mem.offset as usize..mem.end() as usize]);
    }
    file
}

fn check_all_methods(request: &ListRequest, layout: StripeLayout, file_len: usize) {
    let cfg = MethodConfig {
        sieve_buffer: 256, // small buffer to exercise windowing
        hybrid_gap: 32,
        hybrid_min_density: 0.3,
        ..MethodConfig::default()
    };
    let buf_len = request.mem.extent().map(|e| e.end() as usize).unwrap_or(0);
    let initial = pattern_bytes(file_len, 101);

    // Reads: every method sees the same bytes.
    let expected_read = oracle_read(request, &initial, buf_len);
    for method in Method::ALL {
        let mut ds = daemons(&layout);
        seed_file(&initial, &layout, &mut ds);
        let p = || plan(method, IoKind::Read, request, FH, layout, &cfg).unwrap();
        let mut user = vec![0u8; buf_len];
        let report = execute(p(), UserBuf::Read(&mut user), &mut ds);
        assert_eq!(user, expected_read, "read mismatch for {method}");
        assert_counts_tally(&report, p(), &format!("read, {method}"));
    }

    // Writes: every method leaves the same file.
    let user_src = pattern_bytes(buf_len, 59);
    let expected_file = oracle_write(request, &user_src, &initial);
    for method in Method::ALL {
        let mut ds = daemons(&layout);
        seed_file(&initial, &layout, &mut ds);
        let p = || plan(method, IoKind::Write, request, FH, layout, &cfg).unwrap();
        let user = user_src.clone();
        let report = execute(p(), UserBuf::Write(&user), &mut ds);
        assert_counts_tally(&report, p(), &format!("write, {method}"));
        let file_after = dump_file(file_len, &layout, &mut ds);
        assert_eq!(file_after, expected_file, "write mismatch for {method}");
        assert_eq!(user, user_src, "user buffer mutated by write for {method}");
    }
}

#[test]
fn contiguous_request_all_methods() {
    let layout = StripeLayout::new(0, 4, 16).unwrap();
    let request = ListRequest::contiguous(0, 37, 211);
    check_all_methods(&request, layout, 512);
}

#[test]
fn strided_request_all_methods() {
    let layout = StripeLayout::new(0, 4, 16).unwrap();
    let file = RegionList::from_pairs((0..20u64).map(|i| (i * 24 + 3, 7))).unwrap();
    let request = ListRequest::gather(file);
    check_all_methods(&request, layout, 600);
}

#[test]
fn noncontiguous_in_memory_and_file() {
    // FLASH-like: memory has guard-cell holes, file is var-major.
    let layout = StripeLayout::new(0, 4, 16).unwrap();
    let mem = RegionList::from_pairs((0..12u64).map(|i| (i * 16 + 4, 8))).unwrap();
    let file = RegionList::from_pairs((0..8u64).map(|i| (i * 40 + 1, 12))).unwrap();
    let request = ListRequest::new(mem, file).unwrap();
    check_all_methods(&request, layout, 640);
}

#[test]
fn single_tiny_region() {
    let layout = StripeLayout::new(0, 8, 16).unwrap();
    let request = ListRequest::gather(RegionList::from_pairs([(129, 1)]).unwrap());
    check_all_methods(&request, layout, 256);
}

#[test]
fn regions_straddling_every_stripe_boundary() {
    let layout = StripeLayout::new(0, 3, 10).unwrap();
    let file = RegionList::from_pairs((0..15u64).map(|i| (i * 20 + 8, 4))).unwrap();
    let request = ListRequest::gather(file);
    check_all_methods(&request, layout, 512);
}

#[test]
fn more_than_64_regions_forces_chunking() {
    let layout = StripeLayout::new(0, 4, 16).unwrap();
    let file = RegionList::from_pairs((0..150u64).map(|i| (i * 10, 4))).unwrap();
    let request = ListRequest::gather(file);
    check_all_methods(&request, layout, 1600);
}

#[test]
fn nonzero_base_layout() {
    let layout = StripeLayout::new(2, 3, 16).unwrap();
    let file = RegionList::from_pairs((0..30u64).map(|i| (i * 21, 9))).unwrap();
    let request = ListRequest::gather(file);
    check_all_methods(&request, layout, 800);
}

#[test]
fn randomized_requests_fuzz_all_methods() {
    let mut rng = StdRng::seed_from_u64(0xC1057E52002);
    for round in 0..25 {
        let pcount = rng.gen_range(1..=8);
        let ssize = rng.gen_range(4..=64);
        let layout = StripeLayout::new(0, pcount, ssize).unwrap();
        let nregions = rng.gen_range(1..=120);
        let mut pairs = Vec::new();
        let mut off = rng.gen_range(0..32u64);
        for _ in 0..nregions {
            let len = rng.gen_range(1..=40u64);
            pairs.push((off, len));
            off += len + rng.gen_range(0..64u64);
        }
        let file_len = (off + 64) as usize;
        let file = RegionList::from_pairs(pairs).unwrap();
        // Randomly fragment memory too.
        let total = file.total_len();
        let mut mem = RegionList::new();
        let mut mem_off = 0u64;
        let mut rem = total;
        while rem > 0 {
            let len = rng.gen_range(1..=rem.min(37));
            mem.push(Region::new(mem_off, len));
            mem_off += len + rng.gen_range(0..8u64);
            rem -= len;
        }
        let request = ListRequest::new(mem, file).expect("valid random request");
        check_all_methods(&request, layout, file_len);
        let _ = round;
    }
}

/// One collective `kind` call of `requests`, rank `r` over `users[r]`:
/// one runner per rank, no threads. Each runs to its exchange, which
/// this driver delivers in rank order (every message packed, then every
/// rank unpacking in sender order), and then to its end. Each runner
/// counts its plan's tally; what all ranks send, all ranks receive.
fn collective(
    kind: IoKind,
    requests: &[ListRequest],
    users: &mut [Vec<u8>],
    call: &CollectiveCall,
    config: &MethodConfig,
    daemons: &mut [IoDaemon],
) {
    let plan = |rank| plan_collective(kind, rank, &requests[rank], call, FH, config).unwrap();
    let mut runners: Vec<Runner> = (0..)
        .zip(users.iter_mut())
        .map(|(rank, user)| {
            let user = match kind {
                IoKind::Read => UserBuf::Read(user),
                IoKind::Write => UserBuf::Write(user),
            };
            Runner::new(plan(rank), user).unwrap()
        })
        .collect();
    let exchanges: Vec<Exchange> = runners
        .iter_mut()
        .map(|runner| run(runner, daemons).expect("a collective plan holds an exchange"))
        .collect();
    let sent: Vec<Vec<Vec<u8>>> = runners
        .iter()
        .zip(&exchanges)
        .map(|(runner, exchange)| exchange.send.iter().map(|to| runner.pack(to)).collect())
        .collect();
    let mut received = 0;
    for (to, (runner, exchange)) in runners.iter_mut().zip(&exchanges).enumerate() {
        for (from, slices) in exchange.recv.iter().enumerate() {
            runner.unpack(slices, &sent[from][to]).unwrap();
            received += sent[from][to].len() as u64;
        }
    }
    let mut exchanged = 0;
    for (rank, mut runner) in runners.into_iter().enumerate() {
        assert!(run(&mut runner, daemons).is_none(), "a second exchange");
        let report = runner.into_report();
        assert_counts_tally(&report, plan(rank), &format!("{kind:?}, rank {rank}"));
        assert_eq!(report.serial_sections, 0);
        exchanged += report.exchange_bytes;
    }
    assert_eq!(exchanged, received, "{kind:?}: sent vs received");
}

/// `ranks` random requests over a file of `file_len` bytes, each sorted
/// and disjoint, across ranks overlapping anywhere, each memory list cut
/// up and gapped; an empty one now and then (a rank contributing
/// nothing).
fn random_requests(rng: &mut StdRng, ranks: usize, file_len: u64) -> Vec<ListRequest> {
    (0..ranks)
        .map(|_| {
            let (mut file, mut at) = (RegionList::new(), rng.gen_range(0..32u64));
            for _ in 0..rng.gen_range(0..=24) {
                let len = rng.gen_range(1..=24u64);
                if at + len > file_len {
                    break;
                }
                file.push(Region::new(at, len));
                at += len + rng.gen_range(0..40u64);
            }
            let (mut mem, mut mem_off, mut left) = (RegionList::new(), 0, file.total_len());
            while left > 0 {
                let len = rng.gen_range(1..=left.min(19));
                mem.push(Region::new(mem_off, len));
                (mem_off, left) = (mem_off + len + rng.gen_range(0..5u64), left - len);
            }
            ListRequest { mem, file }
        })
        .collect()
}

/// Collective plans against the flat model, for every aggregator count
/// and windows of a few bytes: a write leaves the bytes of every rank's
/// write applied in rank order (where writes overlap, the highest rank's),
/// which independent list reads read back; a read fills each rank's
/// buffer as the model does.
#[test]
fn collective_plans_move_the_flat_models_bytes() {
    let mut rng = StdRng::seed_from_u64(0x2F4A5E);
    for round in 0..40 {
        let pcount = rng.gen_range(1..=4u32);
        let layout = StripeLayout::new(0, pcount, rng.gen_range(4..=32)).unwrap();
        let ranks = rng.gen_range(pcount as usize..=5);
        let file_len = 640;
        let requests = random_requests(&mut rng, ranks, file_len as u64);
        let files: Vec<RegionList> = requests.iter().map(|r| r.file.clone()).collect();
        let buf_len = |r: &ListRequest| r.mem.extent().map_or(0, |e| e.end() as usize);
        let config = MethodConfig {
            max_list_regions: rng.gen_range(2..=64),
            ..MethodConfig::default()
        };
        let initial = pattern_bytes(file_len, 101);
        for aggregators in 1..=pcount as usize {
            let call = CollectiveCall {
                files: &files,
                domains: DomainMap::new(layout, aggregators).unwrap(),
                cb_buffer: rng.gen_range(1..=64),
            };
            let at = format!("round {round}: {ranks} ranks, {aggregators} aggregators");

            let mut ds = daemons(&layout);
            seed_file(&initial, &layout, &mut ds);
            let mut users: Vec<Vec<u8>> = (0..ranks)
                .map(|rank| pattern_bytes(buf_len(&requests[rank]), 59 + rank as u8))
                .collect();
            let expected = (0..ranks).fold(initial.clone(), |file, rank| {
                oracle_write(&requests[rank], &users[rank], &file)
            });
            collective(
                IoKind::Write,
                &requests,
                &mut users,
                &call,
                &config,
                &mut ds,
            );
            assert_eq!(
                dump_file(file_len, &layout, &mut ds),
                expected,
                "{at}: write"
            );
            for request in requests.iter().filter(|r| !r.file.is_empty()) {
                let p = plan(Method::List, IoKind::Read, request, FH, layout, &config).unwrap();
                let mut back = vec![0u8; buf_len(request)];
                execute(p, UserBuf::Read(&mut back), &mut ds);
                assert_eq!(
                    back,
                    oracle_read(request, &expected, back.len()),
                    "{at}: read-back"
                );
            }

            let mut ds = daemons(&layout);
            seed_file(&initial, &layout, &mut ds);
            let mut users: Vec<Vec<u8>> = requests.iter().map(|r| vec![0; buf_len(r)]).collect();
            collective(IoKind::Read, &requests, &mut users, &call, &config, &mut ds);
            for (rank, (request, user)) in requests.iter().zip(&users).enumerate() {
                let want = oracle_read(request, &initial, user.len());
                assert_eq!(user, &want, "{at}: rank {rank}'s read");
            }
        }
    }
}
