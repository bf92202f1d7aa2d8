//! Cross-method correctness: every access method must move exactly the
//! same bytes.
//!
//! These tests run compiled [`AccessPlan`]s through the plan [`Runner`]
//! directly against real [`IoDaemon`] state machines (no threads, no
//! simulator) and compare the outcome with a flat-array oracle, and the
//! runner's counts with the plan's tally. If multiple I/O, data sieving,
//! list I/O, hybrid and datatype I/O ever disagree on a single byte, the
//! timing figures comparing them would be meaningless — this is the
//! contract that makes the reproduction trustworthy.

use bytes::BytesMut;
use pvfs_core::{plan, AccessPlan, ExecReport, IoKind, ListRequest, Method, MethodConfig};
use pvfs_core::{Runner, Step, UserBuf};
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

/// Run a plan to completion against daemons (single client, so serial
/// markers are no-ops): the runner's third driver, beside the live
/// client and the simulator, sending each request straight to its
/// daemon in plan order.
fn execute(plan: AccessPlan, user: UserBuf, daemons: &mut [IoDaemon]) -> ExecReport {
    let mut runner = Runner::new(plan, user).unwrap();
    while let Some(step) = runner.step() {
        let Step::Round(round) = step else { continue };
        for wire in runner.count(round) {
            let (request, _) = runner.request(&wire, 0, BytesMut::with_capacity);
            let (response, _) = daemons[wire.server.index()].handle(&request);
            if let Response::Error(e) = response {
                panic!("server error: {e}");
            }
            runner.landed(&wire, response, 0).expect("landed");
        }
    }
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
