//! Shared execution semantics for access plans.
//!
//! The plan runner ([`crate::Runner`]) moves every byte of both of its
//! drivers — the live threaded cluster and the discrete-event simulator
//! — through these functions: a server's share of an op is consumed
//! from (writes) or delivered to (reads) the op's [`Target`] in the
//! order [`ShapeRef::on_slot`](pvfs_proto::ShapeRef::on_slot) walks it,
//! the order the I/O daemon reads and writes it in.
//!
//! The planners guarantee a wire op is only addressed to servers that
//! own at least one byte of it; these helpers tolerate zero-share ops
//! anyway (they produce empty payloads).
//!
//! A write's payload is the one payload-sized buffer the client side of
//! an op needs, and it need not be a new one: [`gather_payload_into`]
//! gathers into whatever buffer its caller hands out — the live
//! executor's come from, and go back to, its client's spares; the
//! simulator hands out fresh ones and keeps the fragment count for its
//! cost model. [`wire_request`] gathers into a buffer of its own, for
//! the benchmark's per-layer timings.
//!
//! Over a stream, a share of fragments of at least [`DIRECT_FRAGMENT`]
//! bytes on average needs no buffer at all ([`direct_share`]): a write
//! lends the caller's slices to the socket ([`lend_share`]) and a read's
//! reply is read into them ([`place_share`]).

use crate::plan::{CopyPair, IoKind, MemSlice, OpKind, Space, Target, WireOp};
use crate::runner::UserBuf;
use bytes::{Bytes, BytesMut};
use pvfs_types::iov::IOV_BATCH;
use pvfs_types::{FileHandle, PieceMap, PvfsError, PvfsResult, Region, ServerId, StripeLayout};
use std::io::{self, IoSliceMut};

/// The average fragment, in bytes, from which a daemon's share of an op
/// moves straight between the caller's memory and a socket, one slice a
/// fragment, rather than through a buffer of its own: FLASH's 8 B and
/// cyclic's 128 B fragments stay on the copy loops, tiled's ≈ 3 KiB and
/// a contiguous transfer's stripe pieces go direct.
pub const DIRECT_FRAGMENT: u64 = 1024;

/// The client-side buffers a plan operates on: the caller's buffer and
/// the plan's temporary buffers (allocated from
/// [`crate::AccessPlan::temp_sizes`]).
pub struct Buffers<'a> {
    /// The user buffer (read destination / write source).
    pub user: &'a mut [u8],
    /// Plan-owned temporaries, e.g. the data sieving buffer.
    pub temps: &'a mut [Vec<u8>],
}

/// What a write payload is gathered from: the same buffers, read-only.
/// A write plan never needs more of the caller's buffer than this, so
/// the runner builds one straight from the `&[u8]` it was handed;
/// `&Buffers` converts for everyone holding the mutable form.
#[derive(Clone, Copy)]
pub struct Sources<'a> {
    /// The user buffer.
    pub user: &'a [u8],
    /// Plan-owned temporaries.
    pub temps: &'a [Vec<u8>],
}

impl<'a> From<&'a Buffers<'_>> for Sources<'a> {
    fn from(bufs: &'a Buffers<'_>) -> Sources<'a> {
        Sources {
            user: bufs.user,
            temps: bufs.temps,
        }
    }
}

impl<'a> Sources<'a> {
    pub(crate) fn slice(self, s: MemSlice) -> &'a [u8] {
        let (off, len) = (s.offset as usize, s.len as usize);
        match s.space {
            Space::User => &self.user[off..off + len],
            Space::Temp(i) => &self.temps[i][off..off + len],
        }
    }
}

impl Buffers<'_> {
    pub(crate) fn slice_mut(&mut self, s: MemSlice) -> &mut [u8] {
        let (off, len) = (s.offset as usize, s.len as usize);
        match s.space {
            Space::User => &mut self.user[off..off + len],
            Space::Temp(i) => &mut self.temps[i][off..off + len],
        }
    }
}

/// Allocate the temp buffers a plan asks for.
pub(crate) fn alloc_temps(sizes: &[u64]) -> Vec<Vec<u8>> {
    sizes.iter().map(|&n| vec![0u8; n as usize]).collect()
}

/// Call `f` with each memory slice backing file subregion `file` under
/// `target`, in file order.
fn for_each_slice(target: &Target, file: Region, mut f: impl FnMut(MemSlice)) {
    match target {
        Target::Window { temp, base } => f(MemSlice {
            space: Space::Temp(*temp),
            offset: file.offset - base,
            len: file.len,
        }),
        Target::Pieces(map) => pieces(Space::User, map, file, f),
        Target::TempPieces { temp, map } => pieces(Space::Temp(*temp), map, file, f),
    }
}

/// Call `f` with each slice of `space` that `map` backs file subregion
/// `file` with, in file order.
pub(crate) fn pieces(space: Space, map: &PieceMap, file: Region, mut f: impl FnMut(MemSlice)) {
    map.for_each_slice(file, |mem| {
        f(MemSlice {
            space,
            offset: mem.offset,
            len: mem.len,
        })
    })
}

/// Call `f` with each slice of client memory that stripe slot `slot`'s
/// share of `op` streams through, in wire order; returns how many
/// contiguous memory fragments that is — the unit the client cost model
/// charges per-fragment processing for. A pieces target pays per slice,
/// a window streams contiguously: one fragment per op.
fn for_each_share_slice(
    op: &OpKind,
    layout: &StripeLayout,
    slot: u32,
    mut f: impl FnMut(MemSlice),
) -> u64 {
    let target = &op.target;
    let mut slices = 0u64;
    for seg in op.shape.view().on_slot(layout, slot) {
        for_each_slice(target, seg.logical, |s| {
            slices += 1;
            f(s)
        });
    }
    match target {
        Target::Pieces(_) | Target::TempPieces { .. } => slices,
        Target::Window { .. } => slices.min(1),
    }
}

/// Bytes of this op stored on `server`.
pub fn server_share(op: &OpKind, layout: &StripeLayout, server: ServerId) -> u64 {
    let Some(slot) = layout.slot_of_server(server) else {
        return 0;
    };
    let share = op.shape.view().share(layout, slot, u64::MAX);
    share.map_or(u64::MAX, |(bytes, _)| bytes)
}

/// `server`'s share of `op`, in bytes, if it can move straight between
/// the caller's buffer and a socket: its slices are that buffer's (a
/// pieces target), each begins where the last ended or further on, and
/// they average at least [`DIRECT_FRAGMENT`] bytes. 0 otherwise.
pub fn direct_share(op: &OpKind, layout: &StripeLayout, server: ServerId) -> u64 {
    let (Target::Pieces(map), Some(slot)) = (&op.target, layout.slot_of_server(server)) else {
        return 0;
    };
    // No fragment is longer than its file region: short ones settle it.
    if op.shape.view().regions().all(|r| r.len < DIRECT_FRAGMENT) {
        return 0;
    }
    let (mut share, mut fragments, mut ascending) = (0, 0, true);
    for seg in op.shape.view().on_slot(layout, slot) {
        (share, fragments) = (share + seg.logical.len, fragments + 1);
    }
    // A fragment a segment, each further on, unless the memory list cuts
    // one: only then are the fragments walked.
    if map.mem().count() > 1 && share >= fragments * DIRECT_FRAGMENT {
        let mut end = 0;
        fragments = for_each_share_slice(op, layout, slot, |s| {
            ascending &= s.offset >= end;
            end = s.offset + s.len;
        });
    }
    let direct = ascending && fragments > 0 && share >= fragments * DIRECT_FRAGMENT;
    if direct {
        share
    } else {
        0
    }
}

/// Hand `put` the slices of `user` that `server`'s share of `op` is, in
/// wire order: a write's payload, lent where it lies ([`direct_share`]
/// says when). Stops at `put`'s first error.
pub fn lend_share<'u>(
    op: &OpKind,
    layout: &StripeLayout,
    server: ServerId,
    user: &'u [u8],
    put: &mut dyn FnMut(&'u [u8]) -> io::Result<()>,
) -> io::Result<()> {
    let Some(slot) = layout.slot_of_server(server) else {
        return Ok(());
    };
    let mut result = Ok(());
    let sources = Sources { user, temps: &[] };
    for_each_share_slice(op, layout, slot, |s| {
        if result.is_ok() {
            result = put(sources.slice(s));
        }
    });
    result
}

/// Carve `user` into the slices `server`'s share of a read `op` lands
/// in, in wire order and less their first `skip` bytes, and hand them to
/// `fill` a batch of up to [`IOV_BATCH`] at a time; the share must be a
/// [`direct_share`]. Stops at `fill`'s first error.
pub fn place_share(
    op: &OpKind,
    layout: &StripeLayout,
    server: ServerId,
    user: &mut [u8],
    mut skip: usize,
    fill: &mut dyn FnMut(&mut [IoSliceMut<'_>]) -> io::Result<()>,
) -> io::Result<()> {
    let Some(slot) = layout.slot_of_server(server) else {
        return Ok(());
    };
    let mut batch: [IoSliceMut; IOV_BATCH] = std::array::from_fn(|_| IoSliceMut::new(&mut []));
    let (mut rest, mut at, mut lined_up, mut result) = (user, 0, 0, Ok(()));
    for_each_share_slice(op, layout, slot, |s| {
        // Ascending: each slice is cut off the front of what is left.
        let (_, tail) = std::mem::take(&mut rest).split_at_mut((s.offset - at) as usize);
        let (slice, tail) = tail.split_at_mut(s.len as usize);
        (rest, at) = (tail, s.offset + s.len);
        let skipped = skip.min(slice.len());
        skip -= skipped;
        if result.is_ok() && skipped < slice.len() {
            batch[lined_up] = IoSliceMut::new(&mut slice[skipped..]);
            lined_up += 1;
            if lined_up == IOV_BATCH {
                result = fill(&mut batch);
                lined_up = 0;
            }
        }
    });
    result?;
    match lined_up {
        0 => Ok(()),
        n => fill(&mut batch[..n]),
    }
}

/// Build the wire request for a wire op (gathering the write payload
/// from `bufs`, into a buffer of its own, when the op is a write).
pub fn wire_request<'a>(
    wire: &WireOp,
    handle: FileHandle,
    layout: &StripeLayout,
    bufs: impl Into<Sources<'a>>,
) -> pvfs_proto::Request {
    let data = match wire.op.kind {
        IoKind::Write => {
            gather_payload_into(&wire.op, layout, wire.server, bufs, BytesMut::with_capacity).0
        }
        IoKind::Read => Bytes::new(),
    };
    let (kind, shape) = (wire.op.kind, wire.op.shape.clone());
    pvfs_proto::Request::data(kind, handle, *layout, shape, data)
}

/// Gather the write payload for `server` — its share of every region in
/// request order, pulled from the op's source target — into the buffer
/// `spare` hands out when told how many bytes the payload is (whatever
/// the buffer holds is dropped first), also reporting how many
/// contiguous memory fragments were touched: the unit the client cost
/// model charges per-fragment processing for. The payload is that
/// buffer, frozen: a caller that
/// takes it back once the request is over ([`Bytes::try_into_mut`]) and
/// hands it out again gathers without allocating — the live executor
/// does, out of its client's spares. `spare` is not asked when `server`
/// holds nothing of the op.
pub fn gather_payload_into<'a>(
    op: &OpKind,
    layout: &StripeLayout,
    server: ServerId,
    bufs: impl Into<Sources<'a>>,
    spare: impl FnOnce(usize) -> BytesMut,
) -> (Bytes, u64) {
    debug_assert_eq!(op.kind, IoKind::Write);
    let bufs = bufs.into();
    let Some(slot) = layout.slot_of_server(server) else {
        return (Bytes::new(), 0);
    };
    let mut payload = spare(server_share(op, layout, server) as usize);
    payload.clear();
    let fragments = for_each_share_slice(op, layout, slot, |s| {
        payload.extend_from_slice(bufs.slice(s))
    });
    (payload.freeze(), fragments)
}

/// Scatter a read response from `server` into the op's destination
/// target, returning the number of contiguous memory fragments touched
/// (the client cost model's per-fragment unit). Errors if the server
/// returned the wrong number of bytes.
pub fn scatter_response(
    op: &OpKind,
    layout: &StripeLayout,
    server: ServerId,
    data: &[u8],
    bufs: &mut Buffers<'_>,
) -> PvfsResult<u64> {
    debug_assert_eq!(op.kind, IoKind::Read);
    let expected = server_share(op, layout, server);
    if data.len() as u64 != expected {
        return Err(PvfsError::protocol(format!(
            "server {server} returned {} bytes, expected {expected}",
            data.len()
        )));
    }
    let Some(slot) = layout.slot_of_server(server) else {
        return Ok(0); // no share, and the reply was checked to be empty
    };
    let mut consumed = 0usize;
    let fragments = for_each_share_slice(op, layout, slot, |s| {
        let n = s.len as usize;
        bufs.slice_mut(s)
            .copy_from_slice(&data[consumed..consumed + n]);
        consumed += n;
    });
    debug_assert_eq!(consumed, data.len());
    Ok(fragments)
}

/// `(source start, destination start, length)` of one copy pair.
fn copy_span(p: &CopyPair) -> (usize, usize, usize) {
    debug_assert_eq!(p.src.len, p.dst.len);
    (
        p.src.offset as usize,
        p.dst.offset as usize,
        p.src.len as usize,
    )
}

/// Copy `n` bytes from temp `s` at `src` to temp `d` at `dst`: a split
/// borrow between two temps, `copy_within` (memmove: the source is read
/// as it was before the copy, overlap or not) inside one.
fn copy_between_temps(temps: &mut [Vec<u8>], s: usize, src: usize, d: usize, dst: usize, n: usize) {
    if s == d {
        temps[s].copy_within(src..src + n, dst);
        return;
    }
    let (lo, hi) = temps.split_at_mut(s.max(d));
    let (from, to) = if s < d {
        (&lo[s], &mut hi[0])
    } else {
        (&hi[0], &mut lo[d])
    };
    to[dst..dst + n].copy_from_slice(&from[src..src + n]);
}

/// Apply a copy step (`src` → `dst` for each pair, in order; a pair
/// whose two slices overlap in one buffer copies as `memmove` does). A
/// write plan holds the caller's buffer read-only, so every pair of its
/// stages into a temp (data sieving's user → sieve-buffer merge): a pair
/// aimed at the caller's buffer is a planner bug and panics.
pub(crate) fn apply_copies(pairs: &[CopyPair], user: &mut UserBuf<'_>, temps: &mut [Vec<u8>]) {
    for p in pairs {
        let (src, dst, n) = copy_span(p);
        match (p.src.space, p.dst.space, &mut *user) {
            (Space::User, Space::User, UserBuf::Read(user)) => user.copy_within(src..src + n, dst),
            (Space::Temp(t), Space::User, UserBuf::Read(user)) => {
                user[dst..dst + n].copy_from_slice(&temps[t][src..src + n])
            }
            (_, Space::User, UserBuf::Write(_)) => {
                panic!("a write plan copies into the caller's buffer: {p:?}")
            }
            (Space::User, Space::Temp(t), user) => {
                temps[t][dst..dst + n].copy_from_slice(&user.source()[src..src + n])
            }
            (Space::Temp(s), Space::Temp(d), _) => copy_between_temps(temps, s, src, d, dst, n),
        }
    }
}

/// Total bytes a copy step moves (for measured stats).
pub fn copy_bytes(pairs: &[CopyPair]) -> u64 {
    pairs.iter().map(|p| p.src.len).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvfs_proto::Shape;
    use pvfs_types::{PieceMap, RegionList};

    fn layout() -> StripeLayout {
        StripeLayout::new(0, 4, 10).unwrap()
    }

    /// [`gather_payload_into`] a fresh buffer.
    fn gather(op: &OpKind, l: &StripeLayout, server: ServerId, bufs: &Buffers) -> (Bytes, u64) {
        gather_payload_into(op, l, server, bufs, BytesMut::with_capacity)
    }

    /// A pieces target mapping the `(offset, len)` memory regions onto
    /// the file regions.
    fn pieces_target(mem: &[(u64, u64)], file: &[(u64, u64)]) -> Target {
        let list = |pairs: &[(u64, u64)]| RegionList::from_pairs(pairs.iter().copied()).unwrap();
        Target::Pieces(PieceMap::new(&list(mem), &list(file)).unwrap())
    }

    /// A share goes direct when its fragments average a KiB or more and
    /// ascend in memory; its slices are then lent and placed in wire
    /// order, placing leaving the gaps between them alone.
    #[test]
    fn direct_shares_are_lent_and_placed_in_wire_order() {
        // Stripes of 4 KiB over 4 slots: daemon 1 holds [4K, 8K) and
        // [20K, 24K) of these two 2 KiB-aligned file regions.
        let l = StripeLayout::new(0, 4, 4096).unwrap();
        let file = [(4096 + 1024, 2048), (20480, 3072)];
        let read = |mem: &[(u64, u64)]| OpKind {
            kind: IoKind::Read,
            shape: Shape::Contiguous(Region::new(0, 0)),
            target: pieces_target(mem, &file),
        };
        let list = |mem: &[(u64, u64)]| OpKind {
            kind: IoKind::Read,
            shape: Shape::List(RegionList::from_pairs(file).unwrap()),
            target: pieces_target(mem, &file),
        };
        let gapped = [(0, 2048), (3000, 3072)];
        assert_eq!(direct_share(&list(&[(0, 5120)]), &l, ServerId(1)), 5120);
        assert_eq!(direct_share(&list(&gapped), &l, ServerId(1)), 5120);
        let (descending, small) = (
            [(3000, 2048), (0, 3072)],
            [(0, 1024), (1024, 512), (1536, 3584)],
        );
        assert_eq!(direct_share(&list(&descending), &l, ServerId(1)), 0);
        assert_eq!(direct_share(&list(&small), &l, ServerId(1)), 5120);
        let shredded: Vec<(u64, u64)> = (0..40).map(|k| (k * 200, 128)).collect();
        assert_eq!(direct_share(&list(&shredded), &l, ServerId(1)), 0);
        assert_eq!(direct_share(&list(&gapped), &l, ServerId(0)), 0, "no share");
        assert_eq!(
            direct_share(&read(&gapped), &l, ServerId(1)),
            0,
            "no region"
        );

        let user: Vec<u8> = (0..6100u32).map(|i| i as u8).collect();
        let mut lent = Vec::new();
        lend_share(&list(&gapped), &l, ServerId(1), &user, &mut |s| {
            lent.extend_from_slice(s);
            Ok(())
        })
        .unwrap();
        assert_eq!(lent, [&user[..2048], &user[3000..6072]].concat());
        for skip in [0, 100, 2048, 5000] {
            let mut dest = vec![0u8; 6100];
            let mut next = 0u8;
            place_share(
                &list(&gapped),
                &l,
                ServerId(1),
                &mut dest,
                skip,
                &mut |bufs| {
                    for buf in bufs.iter_mut() {
                        buf.iter_mut()
                            .for_each(|b| (*b, next) = (next, next.wrapping_add(1)));
                    }
                    Ok(())
                },
            )
            .unwrap();
            let placed = [&dest[..2048], &dest[3000..6072]].concat();
            let want: Vec<u8> = (0..5120 - skip).map(|i| i as u8).collect();
            assert_eq!(placed[skip..], want[..], "skip {skip}");
            assert!(placed[..skip]
                .iter()
                .chain(&dest[2048..3000])
                .all(|&b| b == 0));
        }
    }

    #[test]
    fn alloc_temps_sizes() {
        let temps = alloc_temps(&[4, 0, 8]);
        assert_eq!(temps.len(), 3);
        assert_eq!(temps[0].len(), 4);
        assert_eq!(temps[1].len(), 0);
        assert_eq!(temps[2].len(), 8);
    }

    #[test]
    fn server_share_matches_proto_convention() {
        let l = layout();
        let op = OpKind {
            kind: IoKind::Read,
            shape: Shape::Contiguous(Region::new(5, 20)),
            target: pieces_target(&[(0, 20)], &[(5, 20)]),
        };
        assert_eq!(server_share(&op, &l, ServerId(0)), 5);
        assert_eq!(server_share(&op, &l, ServerId(1)), 10);
        assert_eq!(server_share(&op, &l, ServerId(2)), 5);
        assert_eq!(server_share(&op, &l, ServerId(3)), 0);
        assert_eq!(server_share(&op, &l, ServerId(99)), 0);
    }

    #[test]
    fn ops_addressed_outside_the_layout_have_an_empty_share() {
        // Servers 2..6 hold the file; 0 is below `base`, 6 past the end.
        // `server.0 - base` used to be computed before any range check:
        // an overflow panic in debug builds, a wrapped slot in release.
        let l = StripeLayout::new(2, 4, 10).unwrap();
        let mut user: Vec<u8> = (0..20u8).collect();
        let mut temps = vec![];
        let mut bufs = Buffers {
            user: &mut user,
            temps: &mut temps,
        };
        let target = pieces_target(&[(0, 20)], &[(5, 20)]);
        let write = OpKind {
            kind: IoKind::Write,
            shape: Shape::Contiguous(Region::new(5, 20)),
            target: target.clone(),
        };
        let read = OpKind {
            kind: IoKind::Read,
            shape: Shape::Contiguous(Region::new(5, 20)),
            target,
        };
        for outsider in [ServerId(0), ServerId(1), ServerId(6)] {
            assert_eq!(server_share(&write, &l, outsider), 0);
            let (payload, fragments) = gather(&write, &l, outsider, &bufs);
            assert_eq!((payload.len(), fragments), (0, 0));
            assert_eq!(
                scatter_response(&read, &l, outsider, &[], &mut bufs).unwrap(),
                0
            );
            assert!(scatter_response(&read, &l, outsider, &[1], &mut bufs).is_err());
        }
        // The in-range neighbours are unaffected: slot 0 is server 2.
        assert_eq!(gather(&write, &l, ServerId(2), &bufs).0.len(), 5);
        assert_eq!(user, (0..20u8).collect::<Vec<_>>());
    }

    /// A replica-rewritten layout addresses mirror copy 1 of a file based
    /// at server 0 as `base = 0 - 1`, wrapping to `u32::MAX`: server 0
    /// then holds slot 1, and its share is that slot's bytes.
    #[test]
    fn a_wrapped_base_still_finds_each_servers_slot() {
        let l = StripeLayout::new(u32::MAX, 4, 10).unwrap();
        let region = Region::new(5, 40);
        let op = OpKind {
            kind: IoKind::Read,
            shape: Shape::Contiguous(region),
            target: pieces_target(&[(0, 40)], &[(5, 40)]),
        };
        let mut total = 0;
        for slot in 0..l.pcount {
            let server = l.server_at_slot(slot);
            let share = server_share(&op, &l, server);
            assert_eq!(share, l.bytes_on_slot(region, slot), "{server}");
            total += share;
        }
        assert_eq!(server_share(&op, &l, ServerId(0)), 10);
        assert_eq!(total, 40);
    }

    #[test]
    fn gather_pulls_user_bytes_in_daemon_order() {
        let l = layout();
        // Write [5, 25): server 1 owns [10, 20). Memory maps 1:1 with
        // offset −5.
        let mut user: Vec<u8> = (0..30u8).collect();
        let mut temps = vec![];
        let bufs = Buffers {
            user: &mut user,
            temps: &mut temps,
        };
        let op = OpKind {
            kind: IoKind::Write,
            shape: Shape::Contiguous(Region::new(5, 20)),
            target: pieces_target(&[(0, 20)], &[(5, 20)]),
        };
        let (payload, _) = gather(&op, &l, ServerId(1), &bufs);
        // Server 1's bytes are file [10,20) => mem [5,15) => values 5..15.
        assert_eq!(payload.as_ref(), &(5..15u8).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn scatter_places_server_bytes() {
        let l = layout();
        let mut user = vec![0u8; 20];
        let mut temps = vec![];
        let mut bufs = Buffers {
            user: &mut user,
            temps: &mut temps,
        };
        let op = OpKind {
            kind: IoKind::Read,
            shape: Shape::Contiguous(Region::new(5, 20)),
            target: pieces_target(&[(0, 20)], &[(5, 20)]),
        };
        // Server 1 returns its 10 bytes (file [10, 20)).
        scatter_response(&op, &l, ServerId(1), &[9u8; 10], &mut bufs).unwrap();
        assert_eq!(&user[0..5], &[0u8; 5]); // file [5,10) untouched
        assert_eq!(&user[5..15], &[9u8; 10]);
        assert_eq!(&user[15..20], &[0u8; 5]);
    }

    #[test]
    fn scatter_rejects_wrong_length() {
        let l = layout();
        let mut user = vec![0u8; 20];
        let mut temps = vec![];
        let mut bufs = Buffers {
            user: &mut user,
            temps: &mut temps,
        };
        let op = OpKind {
            kind: IoKind::Read,
            shape: Shape::Contiguous(Region::new(5, 20)),
            target: pieces_target(&[(0, 20)], &[(5, 20)]),
        };
        assert!(scatter_response(&op, &l, ServerId(1), &[9u8; 3], &mut bufs).is_err());
    }

    #[test]
    fn window_target_maps_into_temp() {
        let l = layout();
        let mut user = vec![];
        let mut temps = vec![vec![0u8; 40]];
        let mut bufs = Buffers {
            user: &mut user,
            temps: &mut temps,
        };
        let op = OpKind::window(IoKind::Read, Region::new(100, 40));
        // Server 0 owns stripes 10 ([100,110)) — wait, stripe index of
        // 100 with ssize 10 is 10, slot 10 % 4 = 2. Use server 2.
        let share = server_share(&op, &l, ServerId(2));
        scatter_response(&op, &l, ServerId(2), &vec![7u8; share as usize], &mut bufs).unwrap();
        // Its bytes land at temp offsets matching logical − 100.
        assert_eq!(&temps[0][0..10], &[7u8; 10]);
    }

    #[test]
    fn copies_move_between_spaces() {
        let mut user = vec![1u8, 2, 3, 4];
        let mut temps = vec![vec![0u8; 4]];
        let pairs = vec![CopyPair {
            dst: MemSlice {
                space: Space::Temp(0),
                offset: 1,
                len: 3,
            },
            src: MemSlice {
                space: Space::User,
                offset: 0,
                len: 3,
            },
        }];
        apply_copies(&pairs, &mut UserBuf::Read(&mut user), &mut temps);
        assert_eq!(temps[0], vec![0, 1, 2, 3]);
        assert_eq!(copy_bytes(&pairs), 3);
    }

    fn pair(dst: (Space, u64), src: (Space, u64), len: u64) -> CopyPair {
        let slice = |(space, offset)| MemSlice { space, offset, len };
        CopyPair {
            dst: slice(dst),
            src: slice(src),
        }
    }

    /// What `apply_copies` did before it stopped staging every pair
    /// through a scratch vector: read the whole source, then write.
    fn copy_through_scratch(pairs: &[CopyPair], user: &mut [u8], temps: &mut [Vec<u8>]) {
        for p in pairs {
            let (src, dst, n) = copy_span(p);
            let scratch = match p.src.space {
                Space::User => user[src..src + n].to_vec(),
                Space::Temp(t) => temps[t][src..src + n].to_vec(),
            };
            match p.dst.space {
                Space::User => user[dst..dst + n].copy_from_slice(&scratch),
                Space::Temp(t) => temps[t][dst..dst + n].copy_from_slice(&scratch),
            }
        }
    }

    #[test]
    fn copies_match_the_scratch_copy_semantics_overlap_included() {
        use Space::{Temp, User};
        let pairs = [
            // Same buffer, overlapping, forwards and backwards.
            pair((User, 2), (User, 0), 6),
            pair((User, 1), (User, 3), 5),
            pair((Temp(0), 4), (Temp(0), 2), 5),
            pair((Temp(1), 0), (Temp(1), 3), 4),
            // Distinct buffers, every direction.
            pair((Temp(0), 0), (User, 4), 4),
            pair((User, 0), (Temp(1), 2), 3),
            pair((Temp(1), 1), (Temp(0), 3), 5),
            pair((Temp(0), 6), (Temp(1), 0), 2),
            pair((User, 7), (User, 7), 1),
        ];
        let fresh = || {
            (
                (0..10u8).collect::<Vec<_>>(),
                vec![(100..110u8).collect::<Vec<_>>(), (200..208u8).collect()],
            )
        };
        let (mut want_user, mut want_temps) = fresh();
        copy_through_scratch(&pairs, &mut want_user, &mut want_temps);
        let (mut user, mut temps) = fresh();
        apply_copies(&pairs, &mut UserBuf::Read(&mut user), &mut temps);
        assert_eq!((user, temps), (want_user, want_temps));
    }

    #[test]
    fn staging_copies_read_the_user_buffer_without_owning_it() {
        use Space::{Temp, User};
        let pairs = [
            pair((Temp(0), 1), (User, 0), 3),
            pair((Temp(1), 0), (Temp(0), 0), 4),
            pair((Temp(1), 1), (Temp(1), 0), 3),
        ];
        let user: Vec<u8> = (1..=4).collect();
        let fresh = || vec![vec![0u8; 4], vec![9u8; 4]];
        let mut want = fresh();
        copy_through_scratch(&pairs, &mut user.clone(), &mut want);
        let mut temps = fresh();
        apply_copies(&pairs, &mut UserBuf::Write(&user), &mut temps);
        assert_eq!(temps, want);
        assert_eq!(temps[1], vec![0, 0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "copies into the caller's buffer")]
    fn staging_refuses_to_write_the_user_buffer() {
        let pairs = [pair((Space::User, 0), (Space::Temp(0), 0), 1)];
        apply_copies(&pairs, &mut UserBuf::Write(&[0u8; 4]), &mut [vec![0u8; 4]]);
    }

    #[test]
    fn list_op_roundtrip_through_gather_scatter() {
        // Write then read a two-region list against a single daemon's
        // convention (both regions on server 0).
        let l = layout();
        let regions = RegionList::from_pairs([(0, 5), (40, 5)]).unwrap();
        let map = pieces_target(&[(0, 10)], &[(0, 5), (40, 5)]);
        let mut user: Vec<u8> = (10..20u8).collect();
        let mut temps = vec![];
        let bufs = Buffers {
            user: &mut user,
            temps: &mut temps,
        };
        let wop = OpKind {
            kind: IoKind::Write,
            shape: Shape::List(regions.clone()),
            target: map.clone(),
        };
        let (payload, _) = gather(&wop, &l, ServerId(0), &bufs);
        assert_eq!(payload.as_ref(), &(10..20u8).collect::<Vec<_>>()[..]);

        let mut user2 = vec![0u8; 10];
        let mut temps2 = vec![];
        let mut bufs2 = Buffers {
            user: &mut user2,
            temps: &mut temps2,
        };
        let rop = OpKind {
            kind: IoKind::Read,
            shape: Shape::List(regions),
            target: map,
        };
        scatter_response(&rop, &l, ServerId(0), &payload, &mut bufs2).unwrap();
        assert_eq!(user2, (10..20u8).collect::<Vec<_>>());
    }

    #[test]
    fn vector_op_share_and_gather() {
        let l = layout();
        let runs = vec![pvfs_proto::VectorRun {
            base: 0,
            blocklen: 2,
            stride: 10,
            count: 4,
        }];
        // Regions [0,2) [10,12) [20,22) [30,32): one per server.
        let map = pieces_target(&[(0, 8)], &[(0, 2), (10, 2), (20, 2), (30, 2)]);
        let op = OpKind {
            kind: IoKind::Write,
            shape: Shape::Vectors(runs),
            target: map,
        };
        for s in 0..4 {
            assert_eq!(server_share(&op, &l, ServerId(s)), 2);
        }
        let mut user: Vec<u8> = (0..8u8).collect();
        let mut temps = vec![];
        let bufs = Buffers {
            user: &mut user,
            temps: &mut temps,
        };
        assert_eq!(gather(&op, &l, ServerId(2), &bufs).0.as_ref(), &[4u8, 5]);
    }
}
