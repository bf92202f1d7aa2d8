//! The allocation budget of one list-I/O op, pinned where the
//! live-cluster benchmark (`perf/`, outside tier 1) is not run.
//!
//! A counting global allocator sees every heap allocation in the
//! process — client and the four daemons alike. One `Cyclic{8, 1024}` ×
//! 128 B `write_list` (128 KiB in 64 request frames of 2 KiB payload +
//! 1 KiB region list) used to ask the allocator for ≈ 9 bytes per
//! payload byte and its read-back for ≈ 6.4: the write was copied whole
//! before planning, its region list copied per request, its payload
//! gathered into one buffer and staged into another, and both ends of
//! every connection allocated a fresh receive buffer per frame. With one
//! buffer per hop, and every one of them handed back to an owner that
//! hands it out again, the same ops stay under the budgets below — and
//! the count is exact, so it must repeat from one op to the next, and
//! must not grow with the number of frames an op needs (nor, holds
//! `alloc_scaling.rs`, with the number of daemons).
//!
//! The same pattern read with `Method::Multiple` is 1024 single-region
//! RPCs, which pins the other end of the scale: the fixed cost of one
//! RPC, where `perf`'s `cyclic_multiple_read` is not run.
//!
//! A FLASH checkpoint op (`perf`'s `flash_list_write_durable`) is where
//! the *memory* side is shredded — 98 304 eight-byte fragments feeding
//! 192 × 4 KiB file regions — and the store journals every batch. It
//! used to cost 6.56 bytes per payload byte: 4.0 for the aligned
//! (memory, file) pieces held as one vector, 1.0 for the journal record
//! assembled in memory, 0.5 for a scratch slice vector regrown in every
//! gather. The piece map is implicit now and the record goes to the
//! journal file from where the runs lie, so the payload itself is the
//! only payload-sized allocation left.
//!
//! The counter also keeps the bytes live at any moment and their peak,
//! which is what pins the planners' memory: a data-sieving or hybrid read
//! of that FLASH op held its 98 304 aligned pieces — 3 MiB — in one
//! vector for the life of its plan, and now walks the piece map instead.

mod counting;

use counting::{allocated_by, hermetic, peak_above_start};
use pvfs::client::PvfsFile;
use pvfs::core::{IoKind, ListRequest, Method, MethodConfig};
use pvfs::disk::{LocalFile, ScratchDir, SparseStore, StorageConfig, SyncPolicy};
use pvfs::net::{LiveCluster, TransportKind};
use pvfs::server::IodConfig;
use pvfs::types::{FileHandle, StripeLayout};
use pvfs::workloads::{verify, Cyclic, FlashIo};

/// What every op costs, whatever its method, its frames or its
/// cluster: one allocation — the report's `requests_by_server`, the
/// caller's result. Over tcp the cyclic write and its read-back are
/// that one, 32 bytes, 0.00024 bytes per payload byte. They were two,
/// 152 bytes, while the plan boxed its step iterator, and
/// five, 360 bytes, while every op built its piece map's two
/// mark vectors and the `Arc` it was shared through; the lists index
/// themselves once now. The op made 23 more while each of its 16 rounds of four ops built a
/// vector of them, and each stream sized its pump's sub-op deque and op
/// slab and its lane table `WINDOW` × daemons and boxed a lane per
/// daemon (28 and 0.10 in all); 2.44 bytes a payload byte in 732
/// allocations and 2.21 in 540 while each frame's head, payload, region
/// list, run list, read buffer and reply were allocated where they were
/// needed and freed where they ended up, eleven allocations a frame.
const WRITE_BUDGET: f64 = 0.0003;
const READ_BUDGET: f64 = 0.0003;
const WRITE_ALLOCS: u64 = 1;
const READ_ALLOCS: u64 = 1;
/// What one more frame may cost an op over tcp: allocations per frame
/// when the same pattern is twice as long (128 frames against 64). Every
/// per-frame buffer has an owner that takes it back (`pvfs::net::spares`),
/// so this is 0 today; a write is allowed a run list per frame (should
/// the in-place reuse of it ever stop working), a read one reply.
const WRITE_ALLOCS_PER_FRAME: f64 = 2.0;
const READ_ALLOCS_PER_FRAME: f64 = 1.0;
/// One durable FLASH checkpoint op over chan: the same one, 0.00004
/// bytes per payload byte. It was two and 0.00019 while the plan boxed
/// its steps, five and 0.016 while its piece map
/// marked every 64th of its 98 304 memory regions afresh for every op,
/// and 15 and 0.03 while its three rounds' vectors and the
/// stream's state were made per op (23 while every stream made itself
/// a reply channel per daemon; 1.08 in 167 while the payload was gathered
/// into a fresh buffer and every journaled batch built its head, its
/// slice list and a clamped copy of its runs on the heap).
const FLASH_BUDGET: f64 = 0.0001;
const FLASH_ALLOCS: u64 = 1;
/// What one single-region RPC over chan may ask the allocator for, all
/// told (frame, hand-off, daemon dispatch, reply): nothing. The 1024-RPC
/// op costs the same one allocation, which makes 0.001 an RPC (0.002
/// with the boxed steps, 0.005 with the piece map's three too): a round
/// is its op and a server set, and a `Data`
/// reply is gathered into a buffer of the lane's that went out with the
/// request and is swept back, control block and all, when the lane next
/// sends (`pvfs::net::spares`). It was 0.012 and 8.2 while each stream
/// sized its window and lane table for every daemon and boxed its lanes;
/// 3.0 and 433 while the step was a vector and the reply's buffer and
/// reference count were made per reply and freed on the client's thread;
/// 7.0 and 588 while the request was cloned into a `Message`, its head
/// encoded into a fresh buffer and the reply's 20-byte head sent in a
/// buffer of its own (12.0 and 662 while every RPC had a reply channel
/// and a boxed handle of its own, too).
const RPC_ALLOCS: f64 = 0.003;
const RPC_BYTES: f64 = 0.15;

#[test]
fn a_list_op_allocates_a_fixed_small_multiple_of_its_payload() {
    hermetic();
    sieved_reads_hold_no_piece_vector();
    planning_again_reads_the_lists_indexes();
    a_plan_is_a_value();
    cyclic_list_ops();
    durable_flash_checkpoint();
    scrub_digests();
}

fn cyclic_list_ops() {
    let pattern = Cyclic {
        clients: 8,
        accesses_per_client: 1024,
        aggregate_bytes: 8 * 1024 * 128,
    };
    let request = pattern.request_for(3).unwrap();
    let payload = request.total_len() as usize;
    assert_eq!((request.file.count(), payload), (1024, 128 * 1024));
    let content = verify::content(7, payload);

    for kind in [TransportKind::Chan, TransportKind::Tcp] {
        let config = IodConfig {
            workers: 2,
            queue_depth: 64,
            ..IodConfig::default()
        };
        let cluster = LiveCluster::spawn_storage(4, config, kind, StorageConfig::Mem);
        let client = cluster.client();
        let layout = StripeLayout::new(0, 4, 16 * 1024).unwrap();
        let mut file = PvfsFile::create(&client, "/pvfs/budget", layout).unwrap();
        let mut back = vec![0u8; payload];

        let write = |file: &mut PvfsFile| {
            allocated_by(|| {
                file.write_list(&request.mem, &request.file, &content, Method::List)
                    .unwrap();
            })
        };
        // Warm up: connections dialed, reader threads spawned, receive
        // buffers in place, the daemons' stores grown to size.
        write(&mut file);
        let writes = [write(&mut file), write(&mut file)];

        let mut read = |file: &mut PvfsFile| {
            allocated_by(|| {
                file.read_list(&request.mem, &request.file, &mut back, Method::List)
                    .unwrap();
            })
        };
        read(&mut file);
        let reads = [read(&mut file), read(&mut file)];
        assert_eq!(back, content, "{kind}: read-back differs");
        assert_eq!(writes[0], writes[1], "{kind}: write count is not exact");
        assert_eq!(reads[0], reads[1], "{kind}: read count is not exact");
        if kind == TransportKind::Chan {
            // Multiple I/O is one single-region RPC per region, each its
            // own one-op round: 1024 × 128 B with no sockets and next to
            // no payload, so what is counted is the round's fixed cost.
            let mut read = |file: &mut PvfsFile| {
                allocated_by(|| {
                    file.read_list(&request.mem, &request.file, &mut back, Method::Multiple)
                        .unwrap();
                })
            };
            read(&mut file);
            let rpcs = [read(&mut file), read(&mut file)];
            assert_eq!(back, content, "{kind}: multiple read-back differs");
            assert_eq!(rpcs[0], rpcs[1], "{kind}: multiple-read count is not exact");
            let per_rpc = |n: u64| n as f64 / request.file.count() as f64;
            let (allocs, bytes) = (per_rpc(rpcs[0].0), per_rpc(rpcs[0].1));
            assert!(
                allocs <= RPC_ALLOCS && bytes <= RPC_BYTES,
                "one 128 B RPC costs {allocs:.3} allocations and {bytes:.1} bytes (budget \
                 {RPC_ALLOCS} and {RPC_BYTES})"
            );
        }
        if kind == TransportKind::Tcp {
            // The same pattern twice as long, in a file of its own: 128
            // frames, and not an allocation more for them.
            let longer = Cyclic {
                accesses_per_client: 2048,
                aggregate_bytes: 8 * 2048 * 128,
                ..pattern
            };
            let longer = longer.request_for(3).unwrap();
            assert_eq!(longer.file.count(), 2048);
            let content = verify::content(8, longer.total_len() as usize);
            let mut back = vec![0u8; content.len()];
            let mut file = PvfsFile::create(&client, "/pvfs/budget-longer", layout).unwrap();
            let mut write_then_read = || {
                let (write, _) = allocated_by(|| {
                    file.write_list(&longer.mem, &longer.file, &content, Method::List)
                        .unwrap();
                });
                let (read, _) = allocated_by(|| {
                    file.read_list(&longer.mem, &longer.file, &mut back, Method::List)
                        .unwrap();
                });
                (write, read)
            };
            // Warm up: the new file's stores grown to size.
            write_then_read();
            let (longer_write, longer_read) = write_then_read();
            assert_eq!(back, content, "{kind}: longer read-back differs");
            let per_frame = |longer: u64, shorter: u64| (longer as f64 - shorter as f64) / 64.0;
            let (w, r) = (
                per_frame(longer_write, writes[0].0),
                per_frame(longer_read, reads[0].0),
            );
            assert!(
                w <= WRITE_ALLOCS_PER_FRAME && r <= READ_ALLOCS_PER_FRAME,
                "64 more frames cost a write {w:.2} and a read {r:.2} allocations each \
                 ({longer_write} / {longer_read} against {} / {})",
                writes[0].0,
                reads[0].0
            );

            let per_byte = |(_, bytes): (u64, u64)| bytes as f64 / payload as f64;
            let (w, r) = (per_byte(writes[0]), per_byte(reads[0]));
            assert!(
                w <= WRITE_BUDGET && writes[0].0 <= WRITE_ALLOCS,
                "write_list allocates {w:.5} bytes per payload byte in {} allocations (budget \
                 {WRITE_BUDGET} in {WRITE_ALLOCS})",
                writes[0].0
            );
            assert!(
                r <= READ_BUDGET && reads[0].0 <= READ_ALLOCS,
                "read_list allocates {r:.5} bytes per payload byte in {} allocations (budget \
                 {READ_BUDGET} in {READ_ALLOCS})",
                reads[0].0
            );
        }
    }
}

/// What a scrub asks of each daemon: the digests of a file, chunk by
/// chunk. The vector of digests and one buffer every chunk is read into
/// — it was a fresh buffer per chunk.
fn scrub_digests() {
    let mut file = LocalFile::unmodelled(Box::new(SparseStore::new()));
    file.write_batch(&[(0, &verify::content(5, 64 * 1024 + 100))])
        .unwrap();
    let (allocs, _) = allocated_by(|| {
        let (_, digests) = file.digest_chunks(4096).unwrap();
        assert_eq!(digests.len(), 17);
    });
    assert_eq!(allocs, 2, "digests of a 17-chunk file");
}

/// Planning and tallying a data-sieving and a hybrid read of one FLASH
/// checkpoint op: the plan's piece map and one 16 KiB window's copy list
/// at a time — well under 1 MiB — where the 98 304 pieces held as one
/// vector were 3 MiB on their own.
fn sieved_reads_hold_no_piece_vector() {
    let request = FlashIo::scaled(2, 8).request_for(0).unwrap();
    assert_eq!(request.mem.count(), 98_304);
    let layout = StripeLayout::new(0, 4, 16 * 1024).unwrap();
    let config = MethodConfig {
        sieve_buffer: 16 * 1024,
        ..MethodConfig::default()
    };
    for method in [Method::DataSieving, Method::Hybrid] {
        let mut copy_bytes = 0;
        let peak = peak_above_start(|| {
            let plan = pvfs::core::plan(
                method,
                IoKind::Read,
                &request,
                FileHandle(1),
                layout,
                &config,
            )
            .unwrap();
            copy_bytes = plan.tally().copy_bytes;
        });
        assert!(copy_bytes > 0, "{method} sieved nothing");
        assert!(
            peak < 1 << 20,
            "a {method} read of a FLASH op peaks {peak} bytes above its start while planned"
        );
    }
}

/// Planning reads what the request's lists know of themselves, found
/// the first time either was asked: the FLASH request planned again,
/// from clones of its lists, allocates nothing — no pass over its
/// 98 304 memory regions is made, or kept, per op.
fn planning_again_reads_the_lists_indexes() {
    let request = FlashIo::scaled(2, 8).request_for(0).unwrap();
    let layout = StripeLayout::new(0, 4, 16 * 1024).unwrap();
    let config = MethodConfig::default();
    let plan = |request: &ListRequest| {
        pvfs::core::plan(
            Method::List,
            IoKind::Write,
            request,
            FileHandle(1),
            layout,
            &config,
        )
        .unwrap()
    };
    drop(plan(&request));
    let again = ListRequest {
        mem: request.mem.clone(),
        file: request.file.clone(),
    };
    let (allocs, _) = allocated_by(|| drop(plan(&again)));
    assert_eq!(
        allocs, 0,
        "planning a FLASH op again, from clones of its lists"
    );
}

/// A plan is a value: its steps are walked from state it holds, not
/// from a boxed closure. A cyclic list write and a multiple read,
/// planned from lists already indexed, allocate nothing, and neither
/// does walking every step of them.
fn a_plan_is_a_value() {
    let pattern = Cyclic {
        clients: 8,
        accesses_per_client: 1024,
        aggregate_bytes: 8 * 1024 * 128,
    };
    let request = pattern.request_for(3).unwrap();
    let layout = StripeLayout::new(0, 4, 16 * 1024).unwrap();
    let config = MethodConfig::default();
    for (method, kind) in [
        (Method::List, IoKind::Write),
        (Method::Multiple, IoKind::Read),
    ] {
        let tally = || {
            let plan = pvfs::core::plan(method, kind, &request, FileHandle(1), layout, &config);
            plan.unwrap().tally()
        };
        let first = tally();
        let (allocs, _) = allocated_by(|| assert_eq!(tally(), first));
        assert_eq!(allocs, 0, "planning and walking a {method} {kind:?}");
    }
}

fn durable_flash_checkpoint() {
    let request = FlashIo::scaled(2, 8).request_for(0).unwrap();
    let payload = request.total_len() as usize;
    assert_eq!(
        (request.mem.count(), request.file.count(), payload),
        (98_304, 192, 768 * 1024)
    );
    let content = verify::content(11, request.mem.extent().unwrap().end() as usize);

    let dir = ScratchDir::new("alloc-budget-flash");
    let config = IodConfig {
        workers: 2,
        queue_depth: 64,
        ..IodConfig::default()
    };
    let storage = StorageConfig::File {
        dir: dir.path().to_path_buf(),
        sync: SyncPolicy::Always,
    };
    let cluster = LiveCluster::spawn_storage(4, config, TransportKind::Chan, storage);
    let client = cluster.client();
    let layout = StripeLayout::new(0, 4, 16 * 1024).unwrap();
    let mut file = PvfsFile::create(&client, "/pvfs/budget-flash", layout).unwrap();

    let write = |file: &mut PvfsFile| {
        allocated_by(|| {
            file.write_list(&request.mem, &request.file, &content, Method::List)
                .unwrap();
        })
    };
    // Warm up: the stores opened, their data files grown to size — and,
    // twelve frames an op, twice: every owner of spares makes its first
    // window's worth (four a daemon, sixteen the client) before it
    // reuses one.
    write(&mut file);
    write(&mut file);
    let writes = [write(&mut file), write(&mut file)];
    assert_eq!(writes[0], writes[1], "durable write count is not exact");
    let per_byte = writes[0].1 as f64 / payload as f64;
    assert!(
        per_byte <= FLASH_BUDGET && writes[0].0 <= FLASH_ALLOCS,
        "a durable FLASH write_list allocates {per_byte:.5} bytes per payload byte in {} \
         allocations (budget {FLASH_BUDGET} in {FLASH_ALLOCS})",
        writes[0].0
    );

    let mut back = vec![0u8; content.len()];
    file.read_list(&request.mem, &request.file, &mut back, Method::List)
        .unwrap();
    for m in request.mem.iter() {
        let at = m.offset as usize..m.end() as usize;
        assert_eq!(back[at.clone()], content[at], "read-back differs at {m}");
    }
}
