//! One frame carries at most `MAX_BULK_BYTES` of payload, on either
//! transport, and a request larger than that is cut to fit, whatever
//! its method.
//!
//! A 64 MiB + 4 KiB `write_at`/`read_at` on one daemon used to be one
//! request: the read was refused by the daemon ("more than the 67108864
//! bytes one reply frame may carry") on both transports, and the write
//! by the tcp frame cap — while over chan it went through, one rule for
//! one transport and another for the other. Multiple I/O then learned to
//! cut a piece (today into `BULK_PIECE`s), but list, datatype and hybrid
//! I/O still sent the region as one request, refused the same ways. Now
//! a list or datatype chunk closes before a region that would put more
//! than one frame's bulk on a daemon, a region that does so on its own
//! goes in pieces at that cap, and encoding refuses a bulk above the
//! cap whichever transport the frame is for.

use pvfs::client::PvfsFile;
use pvfs::core::Method;
use pvfs::disk::StorageConfig;
use pvfs::net::{LiveCluster, TransportKind};
use pvfs::proto::MAX_BULK_BYTES;
use pvfs::server::IodConfig;
use pvfs::types::{RegionList, StripeLayout};
use pvfs::workloads::verify;

#[test]
fn a_contiguous_op_larger_than_one_frame_goes_in_frames_that_fit() {
    let len = MAX_BULK_BYTES + 4096;
    let mem = RegionList::contiguous(0, len as u64);
    let region = RegionList::contiguous(4096, len as u64);
    let mut back = vec![0u8; len];
    // Requests written and read: multiple I/O in 257 near-equal pieces
    // of at most 256 KiB; data sieving in 32 MiB windows (32 + 32 MiB +
    // 8 KiB: a write reads each one first); list, datatype and hybrid
    // I/O in the two halves that keep to the 64 MiB cap.
    let methods = [
        (Method::Multiple, 257, 257),
        (Method::DataSieving, 6, 3),
        (Method::List, 2, 2),
        (Method::Datatype, 2, 2),
        (Method::Hybrid, 2, 2),
    ];
    for kind in [TransportKind::Chan, TransportKind::Tcp] {
        let cluster = LiveCluster::spawn_storage(1, IodConfig::default(), kind, StorageConfig::Mem);
        let client = cluster.client();
        let layout = StripeLayout::new(0, 1, 64 * 1024).unwrap();
        let mut file = PvfsFile::create(&client, "/pvfs/big", layout).unwrap();
        for (seed, (method, writes, reads)) in (3..).zip(methods) {
            let content = verify::content(seed, len);
            let written = file.write_list(&mem, &region, &content, method);
            let written = written.unwrap_or_else(|e| panic!("{kind} {method:?} write: {e}"));
            back.fill(0);
            let read = file.read_list(&mem, &region, &mut back, method);
            let read = read.unwrap_or_else(|e| panic!("{kind} {method:?} read: {e}"));
            assert!(back == content, "{kind} {method:?}: the read-back differs");
            let requests = (written.requests, read.requests);
            assert_eq!(requests, (writes, reads), "{kind} {method:?}");
        }
    }
}
