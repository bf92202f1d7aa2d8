//! The paper's quantitative claims, asserted end-to-end through the
//! public API: request-count formulas, frame limits, and the analytic
//! relationships §3.4 and §4 derive. These are the invariants that make
//! the reproduced figures comparable to the originals.

use pvfs::core::{plan, IoKind, Method, MethodConfig};
use pvfs::proto::{encode_message, Message, Request, ETHERNET_MTU, MAX_LIST_REGIONS};
use pvfs::types::{ClientId, FileHandle, RegionList, RequestId, StripeLayout};
use pvfs::workloads::{Cyclic, FlashIo, TiledViz};

fn paper_layout() -> StripeLayout {
    // §4.1: 8 I/O nodes, default 16 384-byte stripes.
    let l = StripeLayout::paper_default(8);
    assert_eq!(l.ssize, 16_384);
    l
}

#[test]
fn list_requests_fit_one_ethernet_packet() {
    // §3.3: 64 regions of trailing data chosen so request + trailing
    // data travel in a single 1500-byte Ethernet packet.
    let regions =
        RegionList::from_pairs((0..MAX_LIST_REGIONS as u64).map(|i| (i * 4096, 128))).unwrap();
    let frame = encode_message(&Message {
        client: ClientId(0),
        id: RequestId(0),
        request: Request::ReadList {
            handle: FileHandle(1),
            layout: paper_layout(),
            regions,
        },
    })
    .unwrap();
    assert!(frame.len() <= ETHERNET_MTU, "frame {} bytes", frame.len());
}

#[test]
fn flash_request_count_formulas() {
    // §4.3.1's arithmetic, through the real planners.
    let flash = FlashIo::new(4);
    let request = flash.request_for(1).unwrap();
    let cfg = MethodConfig::paper_default();
    let layout = paper_layout();

    // Multiple I/O: (80 blocks)(8x)(8y)(8z)(24 vars) = 983 040
    // requests/processor (every access is an 8-byte double).
    let multiple = plan(
        Method::Multiple,
        IoKind::Write,
        &request,
        FileHandle(1),
        layout,
        &cfg,
    )
    .unwrap();
    // One tally: the plan is 983 040 rounds long.
    assert_eq!(multiple.tally().rounds, 983_040);

    // List I/O: (80 blocks)(24 vars)/64 = 30 requests/processor.
    let list = plan(
        Method::List,
        IoKind::Write,
        &request,
        FileHandle(1),
        layout,
        &cfg,
    )
    .unwrap();
    assert_eq!(list.tally().rounds, 30);

    // Data sieving: data size 7 864 320 bytes/processor < the 32 MB
    // buffer — but the *extent* spans the shared file, so windows scale
    // with the number of clients (the growth the paper measured).
    let sieve = plan(
        Method::DataSieving,
        IoKind::Write,
        &request,
        FileHandle(1),
        layout,
        &cfg,
    )
    .unwrap();
    assert_eq!(request.total_len(), 7_864_320);
    assert!(sieve.tally().serial_sections == 1);
}

#[test]
fn tiled_viz_request_count_formulas() {
    // §4.4.1: multiple I/O needs 768 requests, list I/O 768/64 = 12.
    let wall = TiledViz::paper();
    let request = wall.request_for(2).unwrap();
    let cfg = MethodConfig::paper_default();
    let layout = paper_layout();
    let multiple = plan(
        Method::Multiple,
        IoKind::Read,
        &request,
        FileHandle(1),
        layout,
        &cfg,
    )
    .unwrap();
    assert_eq!(multiple.tally().rounds, 768);
    let list = plan(
        Method::List,
        IoKind::Read,
        &request,
        FileHandle(1),
        layout,
        &cfg,
    )
    .unwrap();
    assert_eq!(list.tally().rounds, 12);
}

#[test]
fn cyclic_request_counts_scale_linearly_with_accesses() {
    // §4.2.2: "the number of contiguous I/O calls increases linearly
    // with the number of contiguous regions."
    let cfg = MethodConfig::paper_default();
    let layout = paper_layout();
    let count_for = |accesses: u64| {
        let pattern = Cyclic {
            clients: 8,
            accesses_per_client: accesses,
            aggregate_bytes: 1 << 26,
        };
        let request = pattern.request_for(0).unwrap();
        let p = plan(
            Method::Multiple,
            IoKind::Read,
            &request,
            FileHandle(1),
            layout,
            &cfg,
        )
        .unwrap();
        p.tally().requests
    };
    assert_eq!(count_for(4096) / count_for(1024), 4);
    assert_eq!(count_for(8192) / count_for(1024), 8);
}

#[test]
fn list_io_reduces_requests_by_the_trailing_factor() {
    // The 64× request reduction that produces the write figures' two
    // orders of magnitude.
    let cfg = MethodConfig::paper_default();
    let layout = paper_layout();
    let pattern = Cyclic {
        clients: 8,
        accesses_per_client: 65_536,
        aggregate_bytes: 1 << 29,
    };
    let request = pattern.request_for(0).unwrap();
    let multiple = plan(
        Method::Multiple,
        IoKind::Write,
        &request,
        FileHandle(1),
        layout,
        &cfg,
    )
    .unwrap();
    let list = plan(
        Method::List,
        IoKind::Write,
        &request,
        FileHandle(1),
        layout,
        &cfg,
    )
    .unwrap();
    assert_eq!(multiple.tally().rounds / list.tally().rounds, 64);
}

#[test]
fn sieving_wire_traffic_is_extent_not_useful_bytes() {
    // §3.2/§3.4: data sieving moves the access extent; the useless
    // share grows with the client count (each client's relevant share
    // of the same window halves when clients double).
    let cfg = MethodConfig::paper_default();
    let layout = paper_layout();
    let waste_for = |clients: u64| {
        let pattern = Cyclic {
            clients,
            accesses_per_client: 4096,
            aggregate_bytes: 1 << 26,
        };
        let request = pattern.request_for(0).unwrap();
        let p = plan(
            Method::DataSieving,
            IoKind::Read,
            &request,
            FileHandle(1),
            layout,
            &cfg,
        )
        .unwrap();
        let useful = request.total_len();
        (p.tally().wire_bytes - useful, useful)
    };
    let (waste8, useful8) = waste_for(8);
    let (waste16, useful16) = waste_for(16);
    assert_eq!(useful8, 2 * useful16); // same file split among more clients
                                       // Waste fraction roughly doubles: 7/8 -> 15/16 of the extent.
    let frac8 = waste8 as f64 / (waste8 + useful8) as f64;
    let frac16 = waste16 as f64 / (waste16 + useful16) as f64;
    assert!((frac8 - 0.875).abs() < 0.01, "frac8 {frac8}");
    assert!((frac16 - 0.9375).abs() < 0.01, "frac16 {frac16}");
}

#[test]
fn sieving_writes_double_the_traffic_via_rmw() {
    let cfg = MethodConfig::paper_default();
    let layout = paper_layout();
    let pattern = Cyclic {
        clients: 8,
        accesses_per_client: 1024,
        aggregate_bytes: 1 << 24,
    };
    let request = pattern.request_for(0).unwrap();
    let read = plan(
        Method::DataSieving,
        IoKind::Read,
        &request,
        FileHandle(1),
        layout,
        &cfg,
    )
    .unwrap();
    let write = plan(
        Method::DataSieving,
        IoKind::Write,
        &request,
        FileHandle(1),
        layout,
        &cfg,
    )
    .unwrap();
    let (write, read) = (write.tally(), read.tally());
    assert_eq!(write.wire_bytes, 2 * read.wire_bytes);
    assert_eq!(write.serial_sections, 1);
    assert_eq!(read.serial_sections, 0);
}

#[test]
fn datatype_io_removes_the_linear_relationship() {
    // §5: "This would eliminate the linear relationship between the
    // number of contiguous regions and the number of I/O requests."
    let cfg = MethodConfig::paper_default();
    let layout = paper_layout();
    let requests_for = |accesses: u64| {
        let pattern = Cyclic {
            clients: 8,
            accesses_per_client: accesses,
            aggregate_bytes: 1 << 26,
        };
        let request = pattern.request_for(0).unwrap();
        plan(
            Method::Datatype,
            IoKind::Read,
            &request,
            FileHandle(1),
            layout,
            &cfg,
        )
        .unwrap()
        .tally()
        .requests
    };
    // The request count is bounded by the number of I/O servers (one
    // vector request per touched server), never by the region count —
    // compare with multiple I/O's 65 536.
    assert_eq!(requests_for(16_384), requests_for(65_536));
    assert!(requests_for(65_536) <= 8);
    assert!(requests_for(1024) <= 8);
}
