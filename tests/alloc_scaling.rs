//! What one op costs the allocator does not depend on how many daemons
//! the client could reach.
//!
//! An op's fixed cost — its plan, its report, the state its stream runs
//! in — used to grow with the cluster: the pump's window and the
//! driver's lane table were sized `WINDOW` × daemons for every stream,
//! and every daemon an op reached cost it a boxed lane and, with every
//! round of several ops, a vector. A 4 KiB `read_at` asked the allocator
//! for 7 208 bytes on four daemons and 26 696 on sixteen (15 allocations
//! each); a cyclic list write made 28 allocations on four and 42 on
//! sixteen. Now the window and the lane table go from stream to stream,
//! the lanes are parked box and all, and a round is its op and a set of
//! servers: an op on a file costs the same on any cluster (the read
//! seven allocations, four of them its two one-region lists; the write
//! one, its report), and an op on a file striped wider only its
//! per-daemon report more (`ExecReport::requests_by_server`, 8 bytes a
//! daemon of the layout). Both cost one allocation more while a plan
//! boxed its steps.

mod counting;

use counting::{allocated_by, hermetic};
use pvfs::client::PvfsFile;
use pvfs::core::Method;
use pvfs::disk::StorageConfig;
use pvfs::net::{LiveCluster, TransportKind};
use pvfs::server::IodConfig;
use pvfs::types::StripeLayout;
use pvfs::workloads::{verify, Cyclic};

/// `(allocations, bytes)` of a 4 KiB `read_at` of a file striped over
/// four daemons and of a cyclic 1024 × 128 B `write_list` to one striped
/// over all of them, on a cluster of `daemons`: each counted twice, after
/// four warm-up ops, and the two counts held equal.
fn op_costs(daemons: u32) -> [(u64, u64); 2] {
    let config = IodConfig {
        workers: 2,
        queue_depth: 64,
        ..IodConfig::default()
    };
    let cluster =
        LiveCluster::spawn_storage(daemons, config, TransportKind::Chan, StorageConfig::Mem);
    let client = cluster.client();
    let striped = |pcount, path| {
        let layout = StripeLayout::new(0, pcount, 16 * 1024).unwrap();
        PvfsFile::create(&client, path, layout).unwrap()
    };
    let (mut four, mut all) = (striped(4, "/pvfs/four"), striped(daemons, "/pvfs/all"));
    let pattern = Cyclic {
        clients: 8,
        accesses_per_client: 1024,
        aggregate_bytes: 8 * 1024 * 128,
    };
    let request = pattern.request_for(3).unwrap();
    let content = verify::content(7, request.total_len() as usize);
    let mut small = vec![0u8; 4096];

    let mut read_at = || {
        allocated_by(|| {
            four.read_at(0, &mut small).unwrap();
        })
    };
    let read_at = [(); 6].map(|()| read_at());
    let mut write = || {
        allocated_by(|| {
            all.write_list(&request.mem, &request.file, &content, Method::List)
                .unwrap();
        })
    };
    let write = [(); 6].map(|()| write());
    assert_eq!(
        read_at[4], read_at[5],
        "{daemons} daemons: read_at count is not exact"
    );
    assert_eq!(
        write[4], write[5],
        "{daemons} daemons: write count is not exact"
    );
    [read_at[5], write[5]]
}

#[test]
fn an_ops_fixed_cost_does_not_grow_with_the_cluster() {
    hermetic();
    let [(read4, read4_bytes), (write4, write4_bytes)] = op_costs(4);
    let [(read16, read16_bytes), (write16, write16_bytes)] = op_costs(16);
    assert_eq!(
        (read16, read16_bytes),
        (read4, read4_bytes),
        "a 4 KiB read_at on 16 daemons against 4 (allocations, bytes)"
    );
    assert_eq!(
        (read4, write4),
        (7, 1),
        "a 4 KiB read_at and a cyclic write_list on 4 daemons (allocations)"
    );
    assert_eq!(
        write16, write4,
        "a cyclic write_list on 16 daemons makes {write16} allocations, on 4 {write4}"
    );
    assert_eq!(
        write16_bytes - write4_bytes,
        8 * 12,
        "a cyclic write_list on 16 daemons asks for {write16_bytes} bytes, on 4 \
         {write4_bytes}: more than 8 bytes a daemon"
    );
}
