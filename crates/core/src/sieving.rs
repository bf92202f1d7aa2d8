//! Data sieving I/O (§3.2).
//!
//! Instead of touching each small region individually, the client moves
//! a large contiguous *window* — up to the sieve buffer size, 32 MB in
//! the paper — between file and a temporary buffer, and filters the
//! requested pieces in memory:
//!
//! * **reads**: read window → copy requested pieces from the buffer to
//!   user memory. One round of contiguous per-server reads per window.
//! * **writes**: *read-modify-write* — read window, patch the requested
//!   pieces from user memory, write the whole window back. Because PVFS
//!   has no file locking, concurrent RMW windows from different clients
//!   would race; the paper serializes writers with an `MPI_Barrier`
//!   loop, which plans encode as a [`Step::SerialBegin`]/[`Step::SerialEnd`]
//!   exclusive section spanning the whole write.
//!
//! The cost profile the figures show falls out directly: wire traffic is
//! the *extent* of the request, not its useful bytes, so sieving is
//! nearly constant in the number of accesses but pays for sparsity —
//! and write traffic is doubled by the RMW.
//!
//! One window is one mechanism, whoever sieves: [`window_copies`] walks
//! the request's [`PieceMap`] across it and [`window_steps`] lays out its
//! read, copy and write-back. Hybrid I/O's dense clusters are the same
//! `Item::Sieve` windows, walked by the same walk.

use crate::method::MethodConfig;
use crate::plan::{AccessPlan, CopyPair, IoKind, Item, ItemSteps, MemSlice, OpKind, Round};
use crate::plan::{Space, Step, Steps, Walk};
use crate::planutil::{servers_for, Cuts};
use crate::request::ListRequest;
use pvfs_types::{FileHandle, PieceMap, PvfsResult, Region, StripeLayout};
use std::iter::Map;

/// A sieving plan's items: buffer-sized windows across the extent.
pub(crate) type Windows = Map<Cuts, fn(Region) -> Item>;

/// Compile a data-sieving plan.
pub(crate) fn plan(
    kind: IoKind,
    request: &ListRequest,
    map: PieceMap,
    handle: FileHandle,
    layout: StripeLayout,
    config: &MethodConfig,
) -> PvfsResult<AccessPlan> {
    let extent = request
        .file
        .extent()
        .expect("validated request has at least one region");
    let buffer = config.sieve_buffer;
    // Buffer-sized windows across the extent; those holding no requested
    // byte are skipped. The first starts on the first region, so it is
    // never skipped, and no later one is longer.
    let windows: Windows = Cuts::new(extent, buffer).map(Item::Sieve);
    let serial = kind == IoKind::Write;
    let steps = Steps::Sieving(Walk::new(windows, kind, layout, map, serial));
    let temp = buffer.min(extent.len);
    Ok(AccessPlan::walk(handle, layout, kind, vec![temp], steps))
}

/// The copies between sieve window `window`, in temp buffer 0, and the
/// user buffer: every file region of `map` the window overlaps, clipped
/// to it, one pair per user-memory slice behind the clip — buffer → user
/// for a read, user → buffer for a write.
pub(crate) fn window_copies(map: &PieceMap, window: Region, kind: IoKind) -> Vec<CopyPair> {
    let file = map.file().regions();
    let first = file.partition_point(|r| r.end() <= window.offset);
    let mut copies = Vec::new();
    for clip in file[first..].iter().map_while(|r| r.intersect(window)) {
        let mut at = clip.offset - window.offset;
        map.for_each_slice(clip, |mem| {
            let user = MemSlice {
                space: Space::User,
                offset: mem.offset,
                len: mem.len,
            };
            let buf = MemSlice {
                space: Space::Temp(0),
                offset: at,
                len: mem.len,
            };
            at += mem.len;
            copies.push(match kind {
                IoKind::Read => CopyPair {
                    dst: user,
                    src: buf,
                },
                IoKind::Write => CopyPair {
                    dst: buf,
                    src: user,
                },
            });
        });
    }
    copies
}

/// The steps of one sieve window: read it into temp buffer 0, apply
/// `copies`, and — a write being read → modify → write — write the
/// window back.
pub(crate) fn window_steps(
    layout: &StripeLayout,
    kind: IoKind,
    window: Region,
    copies: Vec<CopyPair>,
) -> ItemSteps {
    let servers = servers_for(layout, [window]);
    let op = |kind| OpKind::window(kind, window);
    let round = |kind| Step::Round(Round::fan_out(servers.clone(), op(kind)));
    let back = (kind == IoKind::Write).then(|| round(IoKind::Write));
    let steps = [Some(round(IoKind::Read)), Some(Step::Copy(copies)), back];
    steps.into_iter().flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Method;
    use pvfs_types::RegionList;

    fn layout() -> StripeLayout {
        StripeLayout::new(0, 4, 10).unwrap()
    }

    fn cfg(buffer: u64) -> MethodConfig {
        MethodConfig {
            sieve_buffer: buffer,
            ..MethodConfig::default()
        }
    }

    fn req(pairs: &[(u64, u64)]) -> ListRequest {
        ListRequest::gather(RegionList::from_pairs(pairs.iter().copied()).unwrap())
    }

    fn compile(kind: IoKind, r: &ListRequest, buffer: u64) -> AccessPlan {
        crate::plan(
            Method::DataSieving,
            kind,
            r,
            FileHandle(1),
            layout(),
            &cfg(buffer),
        )
        .unwrap()
    }

    #[test]
    fn read_is_one_window_when_extent_fits() {
        let r = req(&[(0, 4), (50, 4), (96, 4)]); // extent [0, 100)
        let p = compile(IoKind::Read, &r, 1024);
        assert_eq!(p.temp_sizes, vec![100]);
        let t = p.tally();
        assert_eq!(t.rounds, 1);
        assert_eq!(t.requests, 4); // window spans all 4 servers
        assert_eq!(t.wire_bytes, 100); // 12 useful, 88 impertinent
        assert_eq!(t.copy_bytes, 12);
        let steps = compile(IoKind::Read, &r, 1024).collect_steps();
        assert_eq!(steps.len(), 2);
        assert!(matches!(steps[0], Step::Round(_)));
        match &steps[1] {
            Step::Copy(pairs) => {
                assert_eq!(pairs.len(), 3);
                // buffer → user on reads
                assert_eq!(pairs[0].dst.space, Space::User);
                assert_eq!(pairs[0].src.space, Space::Temp(0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn extent_splits_into_buffer_sized_windows() {
        let r = req(&[(0, 4), (30, 4), (60, 4), (90, 4)]); // extent [0, 94)
        let p = compile(IoKind::Read, &r, 40);
        assert_eq!(p.temp_sizes, vec![40]);
        // Windows [0,40) [40,80) [80,94): all contain data.
        assert_eq!(p.tally().rounds, 3);
    }

    #[test]
    fn empty_windows_are_skipped() {
        let r = req(&[(0, 4), (1000, 4)]);
        // Extent [0, 1004) = 11 windows of 100, only 2 hold data.
        assert_eq!(compile(IoKind::Read, &r, 100).tally().rounds, 2);
    }

    /// Each piece is clipped to the window, in order, and a read copies
    /// out of the buffer where a write copies into it.
    #[test]
    fn window_copies_clip_the_pieces_to_the_window() {
        let map = PieceMap::new(
            &RegionList::from_pairs([(100, 10), (0, 20)]).unwrap(),
            &RegionList::from_pairs([(0, 10), (20, 10), (40, 10)]).unwrap(),
        )
        .unwrap();
        let slice = |space, offset, len| MemSlice { space, offset, len };
        let read = window_copies(&map, Region::new(5, 20), IoKind::Read);
        assert_eq!(
            read,
            vec![
                CopyPair {
                    dst: slice(Space::User, 105, 5),
                    src: slice(Space::Temp(0), 0, 5),
                },
                CopyPair {
                    dst: slice(Space::User, 0, 5),
                    src: slice(Space::Temp(0), 15, 5),
                },
            ]
        );
        let write = window_copies(&map, Region::new(5, 20), IoKind::Write);
        let flipped: Vec<CopyPair> = read
            .iter()
            .map(|c| CopyPair {
                dst: c.src,
                src: c.dst,
            })
            .collect();
        assert_eq!(write, flipped);
        assert!(window_copies(&map, Region::new(30, 10), IoKind::Read).is_empty());
        assert_eq!(
            window_copies(&map, Region::new(0, 50), IoKind::Read).len(),
            3
        );
    }

    #[test]
    fn piece_straddling_window_boundary_is_split() {
        let r = req(&[(95, 10)]); // extent [95, 105)
        let steps = compile(IoKind::Read, &r, 8).collect_steps();
        // Windows [95,103) and [103,105): the piece splits into 8 + 2.
        let copies: Vec<&CopyPair> = steps
            .iter()
            .filter_map(|s| match s {
                Step::Copy(pairs) => Some(pairs.iter()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(copies.len(), 2);
        assert_eq!(copies[0].src.len + copies[1].src.len, 10);
    }

    #[test]
    fn write_is_rmw_inside_one_serial_section() {
        let r = req(&[(0, 4), (50, 4)]);
        let t = compile(IoKind::Write, &r, 1024).tally();
        assert_eq!(t.serial_sections, 1);
        assert_eq!(t.rounds, 2); // read round + write round
        let steps = compile(IoKind::Write, &r, 1024).collect_steps();
        assert_eq!(steps[0], Step::SerialBegin);
        assert!(matches!(steps[1], Step::Round(_))); // read window
        match &steps[2] {
            Step::Copy(pairs) => {
                // user → buffer on writes
                assert_eq!(pairs[0].dst.space, Space::Temp(0));
                assert_eq!(pairs[0].src.space, Space::User);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(steps[3], Step::Round(_))); // write window back
        assert_eq!(*steps.last().unwrap(), Step::SerialEnd);
    }

    #[test]
    fn write_round_ops_are_writes() {
        let r = req(&[(0, 4), (50, 4)]);
        let steps = compile(IoKind::Write, &r, 1024).collect_steps();
        match (&steps[1], &steps[3]) {
            (Step::Round(read_ops), Step::Round(write_ops)) => {
                assert!(read_ops.iter().all(|o| !o.op.is_write()));
                assert!(write_ops.iter().all(|o| o.op.is_write()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn write_wire_traffic_is_doubled() {
        let r = req(&[(0, 4), (50, 4)]); // extent 54 bytes, useful 8
        let t = compile(IoKind::Write, &r, 1024).tally();
        assert_eq!(t.wire_bytes, 2 * 54);
        assert_eq!(t.wire_bytes - r.total_len(), 2 * 54 - 8);
    }

    #[test]
    fn read_time_independent_of_access_count() {
        // The paper: sieving reads are ~constant in the number of
        // accesses because the same extent moves regardless.
        // Same extent [0, 990), different fragmentation.
        let dense = req(&(0..50).map(|i| (i * 20, 10u64)).collect::<Vec<_>>());
        let sparse = req(&[(0, 30), (200, 30), (400, 30), (600, 30), (960, 30)]);
        let pd = compile(IoKind::Read, &dense, 1 << 20).tally();
        let ps = compile(IoKind::Read, &sparse, 1 << 20).tally();
        assert_eq!(pd.wire_bytes, ps.wire_bytes);
        assert_eq!(pd.requests, ps.requests);
    }

    #[test]
    fn zero_buffer_rejected() {
        let r = req(&[(0, 4)]);
        let planned = crate::plan(
            Method::DataSieving,
            IoKind::Read,
            &r,
            FileHandle(1),
            layout(),
            &cfg(0),
        );
        assert!(planned.is_err());
    }

    #[test]
    fn copies_cover_exactly_the_useful_bytes() {
        let r = req(&[(5, 7), (40, 9), (77, 3)]);
        let total: u64 = compile(IoKind::Read, &r, 16)
            .collect_steps()
            .iter()
            .filter_map(|s| match s {
                Step::Copy(pairs) => Some(pairs.iter().map(|p| p.src.len).sum::<u64>()),
                _ => None,
            })
            .sum();
        assert_eq!(total, 19);
    }
}
