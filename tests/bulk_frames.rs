//! A bulk frame's buffer is its own: made when the frame needs it,
//! filled by appending, freed with its last view, never kept.
//!
//! One 1 MiB `write_at` and its `read_at` over four memory daemons are
//! four 256 KiB frames each way. While every owner on the frame path
//! kept spares of up to 1 MiB, they left ≈ 5 MiB pinned over tcp for the
//! life of the cluster — the client's gathered payloads and receive
//! buffers, each daemon's receive buffer and read scratch — and each of
//! those buffers was asked for zeroed and then overwritten. Now the
//! transfer leaves the store's 1 MiB and next to nothing else, and asks
//! for next to nothing zeroed.

mod counting;

use counting::{hermetic, left_and_zeroed_by};
use pvfs::client::PvfsFile;
use pvfs::disk::StorageConfig;
use pvfs::net::{LiveCluster, TransportKind};
use pvfs::server::IodConfig;
use pvfs::types::StripeLayout;
use pvfs::workloads::verify;

const MIB: usize = 1 << 20;
/// What the transfer may leave live besides the store's 1 MiB of
/// chunks, and ask for zeroed: a small frame's spares, the store's
/// index.
const SLACK: usize = 64 << 10;

#[test]
fn a_bulk_transfer_leaves_nothing_pinned_and_zeroes_nothing() {
    hermetic();
    let content = verify::content(11, MIB);
    let mut back = vec![0u8; MIB];
    for kind in [TransportKind::Chan, TransportKind::Tcp] {
        let cluster = LiveCluster::spawn_storage(4, IodConfig::default(), kind, StorageConfig::Mem);
        let client = cluster.client();
        let layout = StripeLayout::new(0, 4, 16 * 1024).unwrap();
        let mut file = PvfsFile::create(&client, "/pvfs/bulk", layout).unwrap();
        // Warm up on small frames: connections dialed, lanes and
        // readers in place, each owner's spares made.
        for _ in 0..2 {
            file.read_at(0, &mut back[..64 * 1024]).unwrap();
        }
        let (left, zeroed) = left_and_zeroed_by(|| {
            file.write_at(0, &content).unwrap();
            back.fill(0);
            file.read_at(0, &mut back).unwrap();
        });
        assert!(back == content, "{kind}: the read-back differs");
        a_bulk_transfer_leaves_nothing_pinned(kind, left);
        bulk_buffers_are_not_zero_filled(kind, zeroed);
    }
}

/// With the cluster still up, what the transfer left live is the store.
fn a_bulk_transfer_leaves_nothing_pinned(kind: TransportKind, left: i64) {
    assert!(
        left <= (MIB + SLACK) as i64,
        "{kind}: a 1 MiB transfer left {} KiB live (the store's 1024 KiB and at most {} more)",
        left >> 10,
        SLACK >> 10
    );
}

/// Every bulk buffer — payload, receive buffer, read share, store chunk
/// — is filled by appending to it, not zeroed and then overwritten.
fn bulk_buffers_are_not_zero_filled(kind: TransportKind, zeroed: u64) {
    assert!(
        zeroed <= SLACK as u64,
        "{kind}: a 1 MiB transfer asked for {} KiB zeroed (at most {})",
        zeroed >> 10,
        SLACK >> 10
    );
}
