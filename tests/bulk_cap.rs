//! One frame carries at most `MAX_BULK_BYTES` of payload, on either
//! transport, and a contiguous op larger than that is cut to fit.
//!
//! A 64 MiB + 4 KiB `write_at`/`read_at` on one daemon used to be one
//! request: the read was refused by the daemon ("more than the 67108864
//! bytes one reply frame may carry") on both transports, and the write
//! by the tcp frame cap — while over chan it went through, one rule for
//! one transport and another for the other. Now multiple I/O cuts a
//! piece so that no request carries more than one frame's bulk to a
//! daemon, and encoding refuses a bulk above the cap whichever
//! transport the frame is for.

use pvfs::client::PvfsFile;
use pvfs::disk::StorageConfig;
use pvfs::net::{LiveCluster, TransportKind};
use pvfs::proto::MAX_BULK_BYTES;
use pvfs::server::IodConfig;
use pvfs::types::StripeLayout;
use pvfs::workloads::verify;

#[test]
fn a_contiguous_op_larger_than_one_frame_goes_in_frames_that_fit() {
    let len = MAX_BULK_BYTES + 4096;
    let content = verify::content(3, len);
    let mut back = vec![0u8; len];
    for kind in [TransportKind::Chan, TransportKind::Tcp] {
        let cluster = LiveCluster::spawn_storage(1, IodConfig::default(), kind, StorageConfig::Mem);
        let client = cluster.client();
        let layout = StripeLayout::new(0, 1, 64 * 1024).unwrap();
        let mut file = PvfsFile::create(&client, "/pvfs/big", layout).unwrap();
        let written = file.write_at(4096, &content).unwrap();
        back.fill(0);
        let read = file.read_at(4096, &mut back).unwrap();
        assert!(back == content, "{kind}: the read-back differs");
        assert_eq!((written.requests, read.requests), (2, 2), "{kind}");
    }
}
