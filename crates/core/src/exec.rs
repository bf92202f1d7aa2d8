//! Shared execution semantics for access plans.
//!
//! Both executors — the live threaded cluster and the discrete-event
//! simulator — move bytes through these functions, so the data-movement
//! convention is defined in exactly one place and matches the I/O
//! daemon's: *for each file region in request order, for each stripe
//! segment owned by the addressed server in logical order*, bytes are
//! consumed from (writes) or delivered to (reads) the op's
//! [`Target`].
//!
//! The planners guarantee a wire op is only addressed to servers that
//! own at least one byte of it; these helpers tolerate zero-share ops
//! anyway (they produce empty payloads).
//!
//! A write's payload is the one payload-sized buffer the client side of
//! an op needs, and it need not be a new one: [`gather_payload_into`]
//! (under [`wire_request_into`]) gathers into whatever buffer its caller
//! hands out — the live executor's come from, and go back to, its
//! client's spares; the simulator hands out fresh ones and keeps the
//! fragment count for its cost model. [`wire_request`] is the same code
//! with a buffer of its own, which the benchmark's per-layer timings
//! call.

use crate::plan::{CopyPair, MemSlice, OpKind, Space, Target, WireOp};
use bytes::{Bytes, BytesMut};
use pvfs_types::{FileHandle, PvfsError, PvfsResult, Region, ServerId, StripeLayout};

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
/// the live executor builds one straight from the `&[u8]` it was handed;
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
    fn slice(self, s: MemSlice) -> &'a [u8] {
        let (off, len) = (s.offset as usize, s.len as usize);
        match s.space {
            Space::User => &self.user[off..off + len],
            Space::Temp(i) => &self.temps[i][off..off + len],
        }
    }
}

impl Buffers<'_> {
    fn slice_mut(&mut self, s: MemSlice) -> &mut [u8] {
        let (off, len) = (s.offset as usize, s.len as usize);
        match s.space {
            Space::User => &mut self.user[off..off + len],
            Space::Temp(i) => &mut self.temps[i][off..off + len],
        }
    }
}

/// Allocate the temp buffers a plan asks for.
pub fn alloc_temps(sizes: &[u64]) -> Vec<Vec<u8>> {
    sizes.iter().map(|&n| vec![0u8; n as usize]).collect()
}

/// Call `f` with each file region a wire op names, in request order.
fn for_each_region(op: &OpKind, mut f: impl FnMut(Region)) {
    match op {
        OpKind::Read { region, .. } | OpKind::Write { region, .. } => f(*region),
        OpKind::ReadList { regions, .. } | OpKind::WriteList { regions, .. } => {
            regions.iter().copied().for_each(f)
        }
        OpKind::ReadVectors { runs, .. } | OpKind::WriteVectors { runs, .. } => {
            runs.iter().flat_map(|r| r.regions()).for_each(f)
        }
    }
}

/// Call `f` with each memory slice backing file subregion `file` under
/// `target`, in file order.
fn for_each_slice(target: &Target, file: Region, mut f: impl FnMut(MemSlice)) {
    match target {
        Target::Pieces(map) => map.for_each_slice(file, |mem| {
            f(MemSlice {
                space: Space::User,
                offset: mem.offset,
                len: mem.len,
            })
        }),
        Target::Window { temp, base } => f(MemSlice {
            space: Space::Temp(*temp),
            offset: file.offset - base,
            len: file.len,
        }),
    }
}

/// Call `f` with each slice of client memory that stripe slot `slot`'s
/// share of `op` streams through, in wire order (each region in request
/// order, each of the slot's segments of it in logical order — the
/// daemon's convention); returns how many contiguous
/// memory fragments that is — the unit the client cost model charges
/// per-fragment processing for. A pieces target pays per slice, a
/// window streams contiguously: one fragment per op.
fn for_each_share_slice(
    op: &OpKind,
    layout: &StripeLayout,
    slot: u32,
    mut f: impl FnMut(MemSlice),
) -> u64 {
    let target = op.target();
    let mut slices = 0u64;
    for_each_region(op, |region| {
        for seg in layout.segments(region) {
            if seg.slot == slot {
                for_each_slice(target, seg.logical, |s| {
                    slices += 1;
                    f(s)
                });
            }
        }
    });
    match target {
        Target::Pieces(_) => slices,
        Target::Window { .. } => slices.min(1),
    }
}

/// Bytes of this op stored on `server`.
pub fn server_share(op: &OpKind, layout: &StripeLayout, server: ServerId) -> u64 {
    let Some(slot) = layout.slot_of_server(server) else {
        return 0;
    };
    let mut share = 0;
    for_each_region(op, |r| share += layout.bytes_on_slot(r, slot));
    share
}

/// Build the wire request for a wire op (gathering the write payload
/// from `bufs`, into a buffer of its own, when the op is a write).
pub fn wire_request<'a>(
    wire: &WireOp,
    handle: FileHandle,
    layout: &StripeLayout,
    bufs: impl Into<Sources<'a>>,
) -> pvfs_proto::Request {
    wire_request_into(wire, handle, layout, bufs, BytesMut::with_capacity).0
}

/// [`wire_request`], a write's payload gathered into the buffer `spare`
/// hands out for it (see [`gather_payload_into`]); a read asks for none.
/// Also returns the write's gathered memory fragment count — the client
/// cost model's per-fragment unit; 0 for a read, whose fragments are
/// counted when its reply is scattered.
pub fn wire_request_into<'a>(
    wire: &WireOp,
    handle: FileHandle,
    layout: &StripeLayout,
    bufs: impl Into<Sources<'a>>,
    spare: impl FnOnce(usize) -> BytesMut,
) -> (pvfs_proto::Request, u64) {
    use pvfs_proto::Request;
    let (data, fragments) = if wire.op.is_write() {
        gather_payload_into(&wire.op, layout, wire.server, bufs, spare)
    } else {
        (Bytes::new(), 0)
    };
    let request = match &wire.op {
        OpKind::Read { region, .. } => Request::Read {
            handle,
            layout: *layout,
            region: *region,
        },
        OpKind::ReadList { regions, .. } => Request::ReadList {
            handle,
            layout: *layout,
            regions: regions.clone(),
        },
        OpKind::ReadVectors { runs, .. } => Request::ReadVectors {
            handle,
            layout: *layout,
            runs: runs.clone(),
        },
        OpKind::Write { region, .. } => Request::Write {
            handle,
            layout: *layout,
            region: *region,
            data,
        },
        OpKind::WriteList { regions, .. } => Request::WriteList {
            handle,
            layout: *layout,
            regions: regions.clone(),
            data,
        },
        OpKind::WriteVectors { runs, .. } => Request::WriteVectors {
            handle,
            layout: *layout,
            runs: runs.clone(),
            data,
        },
    };
    (request, fragments)
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
    debug_assert!(op.is_write());
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
    debug_assert!(!op.is_write());
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

/// One pair whose destination is a temp — all a write plan stages, and
/// what a read plan's pairs share with it. The user buffer is only read.
fn copy_into_temp(p: &CopyPair, user: &[u8], temps: &mut [Vec<u8>]) {
    let (src, dst, n) = copy_span(p);
    match (p.src.space, p.dst.space) {
        (Space::User, Space::Temp(t)) => {
            temps[t][dst..dst + n].copy_from_slice(&user[src..src + n])
        }
        (Space::Temp(s), Space::Temp(d)) => copy_between_temps(temps, s, src, d, dst, n),
        (_, Space::User) => panic!("a write plan copies into the caller's buffer: {p:?}"),
    }
}

/// Apply a copy step (`src` → `dst` for each pair, in order; a pair
/// whose two slices overlap in one buffer copies as `memmove` does).
pub fn apply_copies(pairs: &[CopyPair], bufs: &mut Buffers<'_>) {
    for p in pairs {
        let (src, dst, n) = copy_span(p);
        match (p.src.space, p.dst.space) {
            (Space::User, Space::User) => bufs.user.copy_within(src..src + n, dst),
            (Space::Temp(t), Space::User) => {
                bufs.user[dst..dst + n].copy_from_slice(&bufs.temps[t][src..src + n])
            }
            (_, Space::Temp(_)) => copy_into_temp(p, bufs.user, bufs.temps),
        }
    }
}

/// [`apply_copies`] for a write plan, which holds the caller's buffer
/// read-only: every pair stages into a temp (data sieving's
/// user → sieve-buffer merge). A pair aimed at the caller's buffer is a
/// planner bug and panics.
pub fn stage_copies(pairs: &[CopyPair], user: &[u8], temps: &mut [Vec<u8>]) {
    for p in pairs {
        copy_into_temp(p, user, temps);
    }
}

/// Total bytes a copy step moves (for measured stats).
pub fn copy_bytes(pairs: &[CopyPair]) -> u64 {
    pairs.iter().map(|p| p.src.len).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let op = OpKind::Read {
            region: Region::new(5, 20),
            dest: pieces_target(&[(0, 20)], &[(5, 20)]),
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
        let write = OpKind::Write {
            region: Region::new(5, 20),
            src: target.clone(),
        };
        let read = OpKind::Read {
            region: Region::new(5, 20),
            dest: target,
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
        let op = OpKind::Read {
            region,
            dest: pieces_target(&[(0, 40)], &[(5, 40)]),
        };
        let mut total = 0;
        for (slot, server) in l.servers().enumerate() {
            let share = server_share(&op, &l, server);
            assert_eq!(share, l.bytes_on_slot(region, slot as u32), "{server}");
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
        let op = OpKind::Write {
            region: Region::new(5, 20),
            src: pieces_target(&[(0, 20)], &[(5, 20)]),
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
        let op = OpKind::Read {
            region: Region::new(5, 20),
            dest: pieces_target(&[(0, 20)], &[(5, 20)]),
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
        let op = OpKind::Read {
            region: Region::new(5, 20),
            dest: pieces_target(&[(0, 20)], &[(5, 20)]),
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
        let op = OpKind::Read {
            region: Region::new(100, 40),
            dest: Target::Window { temp: 0, base: 100 },
        };
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
        let mut bufs = Buffers {
            user: &mut user,
            temps: &mut temps,
        };
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
        apply_copies(&pairs, &mut bufs);
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
        apply_copies(
            &pairs,
            &mut Buffers {
                user: &mut user,
                temps: &mut temps,
            },
        );
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
        stage_copies(&pairs, &user, &mut temps);
        assert_eq!(temps, want);
        assert_eq!(temps[1], vec![0, 0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "copies into the caller's buffer")]
    fn staging_refuses_to_write_the_user_buffer() {
        let pairs = [pair((Space::User, 0), (Space::Temp(0), 0), 1)];
        stage_copies(&pairs, &[0u8; 4], &mut [vec![0u8; 4]]);
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
        let wop = OpKind::WriteList {
            regions: regions.clone(),
            src: map.clone(),
        };
        let (payload, _) = gather(&wop, &l, ServerId(0), &bufs);
        assert_eq!(payload.as_ref(), &(10..20u8).collect::<Vec<_>>()[..]);

        let mut user2 = vec![0u8; 10];
        let mut temps2 = vec![];
        let mut bufs2 = Buffers {
            user: &mut user2,
            temps: &mut temps2,
        };
        let rop = OpKind::ReadList { regions, dest: map };
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
        let op = OpKind::WriteVectors { runs, src: map };
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
