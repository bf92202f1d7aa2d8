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

use crate::method::MethodConfig;
use crate::plan::{AccessPlan, CopyPair, IoKind, MemSlice, OpKind, PlanStats, Round, Space, Step};
use crate::planutil::servers_for;
use crate::request::ListRequest;
use pvfs_types::{FileHandle, PvfsResult, Region, StripeLayout};

/// One sieve window and the user⇄buffer copies it implies.
struct Window {
    region: Region,
    copies: Vec<CopyPair>,
    useful: u64,
}

/// Compile a data-sieving plan.
pub fn plan(
    kind: IoKind,
    request: &ListRequest,
    handle: FileHandle,
    layout: StripeLayout,
    config: &MethodConfig,
) -> PvfsResult<AccessPlan> {
    if config.sieve_buffer == 0 {
        return Err(pvfs_types::PvfsError::invalid(
            "sieve buffer must be nonzero",
        ));
    }
    let mut pieces = request.pieces()?;
    pieces.sort_unstable_by_key(|(_, f)| f.offset);
    let extent = request
        .file
        .extent()
        .expect("validated request has at least one region");

    let windows = build_windows(&pieces, extent, config.sieve_buffer, kind);

    let mut stats = PlanStats {
        useful_bytes: request.total_len(),
        copy_bytes: request.total_len(),
        ..PlanStats::default()
    };
    let mut max_window = 0u64;
    let mut wire = 0u64;
    for w in &windows {
        max_window = max_window.max(w.region.len);
        let touched = servers_for(&layout, [w.region]).len() as u64;
        match kind {
            IoKind::Read => {
                stats.rounds += 1;
                stats.requests += touched;
                wire += w.region.len;
            }
            IoKind::Write => {
                stats.rounds += 2; // RMW: read round + write round
                stats.requests += 2 * touched;
                wire += 2 * w.region.len;
            }
        }
    }
    stats.contig_requests = stats.requests;
    // Waste is everything beyond the bytes the user asked to move once;
    // for RMW writes that includes the second pass over the useful
    // bytes themselves.
    stats.waste_bytes = wire.saturating_sub(stats.useful_bytes);
    if kind == IoKind::Write {
        stats.serial_sections = 1;
    }

    let steps = WindowSteps {
        windows: windows.into_iter(),
        kind,
        layout,
        pending: Vec::new(),
        opened: false,
        closed: false,
    };

    Ok(AccessPlan::new(
        handle,
        layout,
        kind,
        vec![max_window],
        stats,
        steps,
    ))
}

/// Split the request extent into buffer-sized windows, clipping the
/// aligned pieces into per-window copy lists. Windows containing no
/// requested data are skipped.
fn build_windows(
    pieces: &[(Region, Region)],
    extent: Region,
    buffer: u64,
    kind: IoKind,
) -> Vec<Window> {
    let mut windows = Vec::new();
    let mut pi = 0usize;
    let mut wstart = extent.offset;
    while wstart < extent.end() {
        let wlen = buffer.min(extent.end() - wstart);
        let window = Region::new(wstart, wlen);
        let mut copies = Vec::new();
        let mut useful = 0u64;
        // Pieces are sorted by file offset; advance through those
        // overlapping this window.
        let mut i = pi;
        while i < pieces.len() {
            let (mem, file) = pieces[i];
            if file.offset >= window.end() {
                break;
            }
            if let Some(clip) = file.intersect(window) {
                let delta = clip.offset - file.offset;
                let user = MemSlice {
                    space: Space::User,
                    offset: mem.offset + delta,
                    len: clip.len,
                };
                let buf = MemSlice {
                    space: Space::Temp(0),
                    offset: clip.offset - wstart,
                    len: clip.len,
                };
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
                useful += clip.len;
            }
            if file.end() <= window.end() {
                i += 1;
            } else {
                break; // piece continues into the next window
            }
        }
        pi = i;
        if !copies.is_empty() {
            windows.push(Window {
                region: window,
                copies,
                useful,
            });
        }
        wstart += wlen;
    }
    debug_assert_eq!(
        windows.iter().map(|w| w.useful).sum::<u64>(),
        pieces.iter().map(|(m, _)| m.len).sum::<u64>()
    );
    windows
}

/// Lazy step generator for sieving plans.
struct WindowSteps<I: Iterator<Item = Window>> {
    windows: I,
    kind: IoKind,
    layout: StripeLayout,
    pending: Vec<Step>,
    opened: bool,
    closed: bool,
}

impl<I: Iterator<Item = Window>> Iterator for WindowSteps<I> {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        if !self.opened {
            self.opened = true;
            if self.kind == IoKind::Write {
                return Some(Step::SerialBegin);
            }
        }
        if let Some(step) = self.pop_pending() {
            return Some(step);
        }
        match self.windows.next() {
            Some(w) => {
                let servers = servers_for(&self.layout, [w.region]);
                let round = |kind| Round::fan_out(servers.iter(), OpKind::window(kind, w.region));
                // Read the window first, then copy buffer → user; a
                // write copies user → buffer and writes the window back
                // (read → modify → write, queued in order).
                self.pending.push(Step::Copy(w.copies));
                if self.kind == IoKind::Write {
                    self.pending.push(Step::Round(round(IoKind::Write)));
                }
                Some(Step::Round(round(IoKind::Read)))
            }
            None => {
                if self.kind == IoKind::Write && !self.closed {
                    self.closed = true;
                    return Some(Step::SerialEnd);
                }
                None
            }
        }
    }
}

impl<I: Iterator<Item = Window>> WindowSteps<I> {
    fn pop_pending(&mut self) -> Option<Step> {
        if self.pending.is_empty() {
            None
        } else {
            Some(self.pending.remove(0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn read_is_one_window_when_extent_fits() {
        let r = req(&[(0, 4), (50, 4), (96, 4)]); // extent [0, 100)
        let p = plan(IoKind::Read, &r, FileHandle(1), layout(), &cfg(1024)).unwrap();
        assert_eq!(p.stats.rounds, 1);
        assert_eq!(p.stats.requests, 4); // window spans all 4 servers
        assert_eq!(p.stats.useful_bytes, 12);
        assert_eq!(p.stats.waste_bytes, 100 - 12);
        assert_eq!(p.temp_sizes, vec![100]);
        let steps = p.collect_steps();
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
        let p = plan(IoKind::Read, &r, FileHandle(1), layout(), &cfg(40)).unwrap();
        // Windows [0,40) [40,80) [80,94): all contain data.
        assert_eq!(p.stats.rounds, 3);
        assert_eq!(p.temp_sizes, vec![40]);
    }

    #[test]
    fn empty_windows_are_skipped() {
        let r = req(&[(0, 4), (1000, 4)]);
        let p = plan(IoKind::Read, &r, FileHandle(1), layout(), &cfg(100)).unwrap();
        // Extent [0, 1004) = 11 windows of 100, only 2 hold data.
        assert_eq!(p.stats.rounds, 2);
    }

    #[test]
    fn piece_straddling_window_boundary_is_split() {
        let r = req(&[(95, 10)]); // extent [95, 105)
        let p = plan(IoKind::Read, &r, FileHandle(1), layout(), &cfg(8)).unwrap();
        let steps = p.collect_steps();
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
        let p = plan(IoKind::Write, &r, FileHandle(1), layout(), &cfg(1024)).unwrap();
        assert_eq!(p.stats.serial_sections, 1);
        assert_eq!(p.stats.rounds, 2); // read round + write round
        let steps = p.collect_steps();
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
        let p = plan(IoKind::Write, &r, FileHandle(1), layout(), &cfg(1024)).unwrap();
        let steps = p.collect_steps();
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
        let p = plan(IoKind::Write, &r, FileHandle(1), layout(), &cfg(1024)).unwrap();
        assert_eq!(p.stats.wire_bytes(), 2 * 54);
        assert_eq!(p.stats.waste_bytes, 2 * 54 - 8);
    }

    #[test]
    fn read_time_independent_of_access_count() {
        // The paper: sieving reads are ~constant in the number of
        // accesses because the same extent moves regardless.
        // Same extent [0, 990), different fragmentation.
        let dense = req(&(0..50).map(|i| (i * 20, 10u64)).collect::<Vec<_>>());
        let sparse = req(&[(0, 30), (200, 30), (400, 30), (600, 30), (960, 30)]);
        let c = cfg(1 << 20);
        let pd = plan(IoKind::Read, &dense, FileHandle(1), layout(), &c).unwrap();
        let ps = plan(IoKind::Read, &sparse, FileHandle(1), layout(), &c).unwrap();
        assert_eq!(pd.stats.wire_bytes(), ps.stats.wire_bytes());
        assert_eq!(pd.stats.requests, ps.stats.requests);
    }

    #[test]
    fn zero_buffer_rejected() {
        let r = req(&[(0, 4)]);
        assert!(plan(IoKind::Read, &r, FileHandle(1), layout(), &cfg(0)).is_err());
    }

    #[test]
    fn copies_cover_exactly_the_useful_bytes() {
        let r = req(&[(5, 7), (40, 9), (77, 3)]);
        let p = plan(IoKind::Read, &r, FileHandle(1), layout(), &cfg(16)).unwrap();
        let total: u64 = p
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
