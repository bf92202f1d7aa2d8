//! A bulk frame's buffer is its own: made when the frame needs it,
//! filled by appending, freed with its last view, never kept — and a
//! contiguous transfer stages a window of pieces, not its size.
//!
//! One 1 MiB `write_at` and its `read_at` over four memory daemons are
//! four 256 KiB frames each way. While every owner on the frame path
//! kept spares of up to 1 MiB, they left ≈ 5 MiB pinned over tcp for the
//! life of the cluster — the client's gathered payloads and receive
//! buffers, each daemon's receive buffer and read scratch — and each of
//! those buffers was asked for zeroed and then overwritten. Now the
//! transfer leaves the store's 1 MiB and next to nothing else, and asks
//! for next to nothing zeroed.
//!
//! While multiple I/O sent each daemon its whole share in one frame, a
//! 16 MiB transfer held 16–20 MiB above the store at its peak: the
//! client's gathered shares and the daemons' received frames, each the
//! size of a share. Now it moves in pieces of at most `BULK_PIECE` per
//! daemon, `WINDOW` of them in flight per daemon, and holds no more at
//! its peak than a 4 MiB transfer, which already fills the window.

mod counting;

use counting::{hermetic, left_and_zeroed_by, peak_above_start};
use pvfs::client::PvfsFile;
use pvfs::disk::StorageConfig;
use pvfs::net::{ClusterClient, LiveCluster, TransportKind, WINDOW};
use pvfs::proto::BULK_PIECE;
use pvfs::server::IodConfig;
use pvfs::types::StripeLayout;
use pvfs::workloads::{verify, TiledViz};

const MIB: usize = 1 << 20;
/// What the transfer may leave live besides the store's 1 MiB of
/// chunks, and ask for zeroed: a small frame's spares, the store's
/// index.
const SLACK: usize = 64 << 10;
/// What a transfer's peak may hold above the window's pieces, on both
/// sides of the wire: the headers, queues and region lists around them.
const PEAK_SLACK: u64 = 256 << 10;
/// What a 16 MiB transfer's peak may hold above a 4 MiB one's: a piece
/// per daemon. The 4 MiB transfer is one window of pieces and ends
/// there; the longer one refills the window as replies land, and over
/// tcp a piece gathered or received for a new flight has been seen to
/// overlap the one it replaces (up to ≈ 620 KiB above, on 2 CPUs).
const REFILL_SLACK: u64 = (4 * BULK_PIECE) as u64;
/// What a tcp write's peak may hold above the daemons' received pieces:
/// their headers and queues, and the store's index.
const DAEMON_SLACK: u64 = 64 << 10;

#[test]
fn a_bulk_transfer_leaves_nothing_pinned_and_zeroes_nothing() {
    hermetic();
    let content = verify::content(11, 16 * MIB);
    let mut back = vec![0u8; 16 * MIB];
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
            file.write_at(0, &content[..MIB]).unwrap();
            back.fill(0);
            file.read_at(0, &mut back[..MIB]).unwrap();
        });
        assert!(
            back[..MIB] == content[..MIB],
            "{kind}: the read-back differs"
        );
        a_bulk_transfer_leaves_nothing_pinned(kind, left);
        bulk_buffers_are_not_zero_filled(kind, zeroed);

        // The store in place first: what the peaks see is staging.
        file.write_at(0, &content).unwrap();
        let peaks = [4 * MIB, 16 * MIB].map(|len| {
            let wrote = peak_above_start(|| {
                file.write_at(0, &content[..len]).unwrap();
            });
            back.fill(0);
            let read = peak_above_start(|| {
                file.read_at(0, &mut back[..len]).unwrap();
            });
            assert!(
                back[..len] == content[..len],
                "{kind}: the read-back differs"
            );
            [wrote, read]
        });
        a_transfer_stages_a_window_of_pieces(kind, peaks);
        if kind == TransportKind::Tcp {
            a_tcp_write_stages_the_daemons_pieces_alone(&client, layout);
        }
    }
}

/// Over tcp a write leaves from the caller's buffer: the client gathers
/// none of it, and what a transfer holds at its peak is the daemons'
/// side alone — at most a window of received pieces each. Measured on
/// the 10.2 MiB fill of a tiled frame (`perf`'s `tiled_list_read`
/// set-up) behind the transfers above, fresh (less the store it makes)
/// and rewritten, on 2 CPUs: 3 252 KiB and 4 289 KiB while the client
/// gathered each piece before it went, 295 KiB and 240 KiB since.
fn a_tcp_write_stages_the_daemons_pieces_alone(client: &ClusterClient, layout: StripeLayout) {
    let content = verify::content(13, TiledViz::paper().file_size() as usize);
    let mut file = PvfsFile::create(client, "/pvfs/bulk-fill", layout).unwrap();
    let daemons_side = (WINDOW * 4 * BULK_PIECE) as u64 + DAEMON_SLACK;
    for (way, store) in [("fresh", content.len() as u64), ("rewritten", 0)] {
        let peak = peak_above_start(|| drop(file.write_at(0, &content).unwrap()));
        let staged = peak.saturating_sub(store);
        assert!(
            staged <= daemons_side,
            "a {way} 10.2 MiB tcp write_at staged {} KiB (the daemons' side is at most {} KiB)",
            staged >> 10,
            daemons_side >> 10
        );
    }
}

/// Each peak, written and read, of a 4 MiB and a 16 MiB transfer over
/// four daemons stays within `WINDOW` pieces per daemon on each side of
/// the wire, and the 16 MiB one within a piece per daemon of the 4 MiB
/// one's.
fn a_transfer_stages_a_window_of_pieces(kind: TransportKind, peaks: [[u64; 2]; 2]) {
    let window = (2 * WINDOW * 4 * BULK_PIECE) as u64;
    for (i, way) in ["write", "read"].into_iter().enumerate() {
        let (small, large) = (peaks[0][i], peaks[1][i]);
        for (peak, len) in [(small, 4), (large, 16)] {
            assert!(
                peak <= window + PEAK_SLACK,
                "{kind}: a {len} MiB {way} peaked {} KiB above its start (at most {} KiB)",
                peak >> 10,
                (window + PEAK_SLACK) >> 10
            );
        }
        assert!(
            large <= small + REFILL_SLACK,
            "{kind}: a 16 MiB {way} peaked at {} KiB, a 4 MiB one at {} KiB",
            large >> 10,
            small >> 10
        );
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
