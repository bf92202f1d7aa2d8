//! A collective call as a plan: two-phase I/O (Thakur, Gropp & Lusk,
//! "Optimizing Noncontiguous Accesses in MPI-IO") compiled, rank by
//! rank, into an ordinary [`AccessPlan`].
//!
//! Every rank plans its own share from the same allgathered file lists
//! ([`CollectiveCall`]). An aggregator's share is the list rounds of its
//! file domain, one temp per `cb_buffer` window of each of its stripe
//! slots; every rank's share holds one [`Step::Exchange`] — a write's
//! first step, a read's last. Both ends of a message derive its slices
//! from the shared lists, so a message is its bytes alone, and one
//! [`crate::Runner`] counts and moves all of it.

use crate::domain::{windows, DomainMap};
use crate::exec::pieces;
use crate::method::{Method, MethodConfig};
use crate::plan::{AccessPlan, Exchange, IoKind, MemSlice, Round, Space, Step, Target};
use crate::request::ListRequest;
use pvfs_types::{FileHandle, PieceMap, PvfsError, PvfsResult, Region, RegionList};

/// What every rank of a collective call knows once the file lists are
/// allgathered.
#[derive(Debug, Clone, Copy)]
pub struct CollectiveCall<'a> {
    /// Every rank's file list, in rank order.
    pub files: &'a [RegionList],
    /// Which aggregator owns which stripe slot.
    pub domains: DomainMap,
    /// An aggregator's window bound in payload bytes (ROMIO's
    /// `cb_buffer_size`): where its domain is cut into temps.
    pub cb_buffer: u64,
}

/// One window of an aggregator's slot: its extent, and its temp with the
/// map placing the window's regions in it end to end.
type Window = (Region, usize, PieceMap);

/// Compile rank `rank`'s share of a collective `kind` call of `request`.
///
/// A rank that aggregates reads or writes each window of its domain with
/// the rounds [`Method::List`] plans for it, re-pointed at the window's
/// temp: the chunking, and so the frames, are list I/O's. On a write a
/// rank sends each aggregator its stripe segments on that aggregator's
/// slots, in file order; on a read the aggregator sends them back. The
/// request may be empty: a rank that contributes nothing still
/// exchanges.
pub fn plan_collective(
    kind: IoKind,
    rank: usize,
    request: &ListRequest,
    call: &CollectiveCall<'_>,
    handle: FileHandle,
    config: &MethodConfig,
) -> PvfsResult<AccessPlan> {
    let map = PieceMap::new(&request.mem, &request.file)?;
    let (domains, ranks) = (&call.domains, call.files.len());
    if rank >= ranks || domains.aggregators() > ranks {
        return Err(PvfsError::invalid(format!(
            "rank {rank} of {ranks} with {} aggregators",
            domains.aggregators()
        )));
    }
    let (temp_sizes, mut steps, theirs) = if rank < domains.aggregators() {
        aggregate(kind, rank, call, handle, config)?
    } else {
        (Vec::new(), Vec::new(), vec![Vec::new(); ranks])
    };
    // This rank's bytes, per aggregator: its segments on that
    // aggregator's slots, through its piece map.
    let (layout, mut mine) = (*domains.layout(), vec![Vec::new(); ranks]);
    for region in request.file.iter() {
        for seg in layout.segments(*region) {
            let to = &mut mine[domains.aggregator_of_slot(seg.slot)];
            pieces(Space::User, &map, seg.logical, |s| push(to, s));
        }
    }
    let exchange = |send, recv| Step::Exchange(Exchange { send, recv });
    match kind {
        IoKind::Write => steps.insert(0, exchange(mine, theirs)),
        IoKind::Read => steps.push(exchange(theirs, mine)),
    }
    Ok(AccessPlan::new(handle, layout, kind, temp_sizes, steps))
}

/// Aggregator `rank`'s part of a collective plan: a temp for each window
/// of each of its slots, in slot order, and the list rounds through it;
/// and, per rank, the temp slices that rank's segments on its slots are.
type Aggregated = (Vec<u64>, Vec<Step>, Vec<Vec<MemSlice>>);

fn aggregate(
    kind: IoKind,
    rank: usize,
    call: &CollectiveCall<'_>,
    handle: FileHandle,
    config: &MethodConfig,
) -> PvfsResult<Aggregated> {
    let (domains, layout) = (&call.domains, *call.domains.layout());
    let (mut temp_sizes, mut steps) = (Vec::new(), Vec::new());
    let mut slots: Vec<(u32, Vec<Window>)> = Vec::new();
    for (slot, list) in domains.slot_lists(rank, call.files) {
        let mut slot_windows = Vec::new();
        for window in windows(&list, call.cb_buffer) {
            let temp = temp_sizes.len();
            let staged = ListRequest::gather(window);
            temp_sizes.push(staged.total_len());
            let plan = crate::plan(Method::List, kind, &staged, handle, layout, config)?;
            steps.extend(plan.collect_steps().into_iter().map(|s| in_temp(s, temp)));
            let extent = staged.file.extent().expect("a window holds a region");
            slot_windows.push((extent, temp, staged.piece_map()?));
        }
        slots.push((slot, slot_windows));
    }
    // Each segment finds its window by its slot and its offset, and its
    // temp bytes through that window's map.
    let mut theirs = vec![Vec::new(); call.files.len()];
    for (to, file) in theirs.iter_mut().zip(call.files) {
        for region in file.iter() {
            for seg in layout.segments(*region) {
                let Ok(at) = slots.binary_search_by_key(&seg.slot, |(slot, _)| *slot) else {
                    continue; // another aggregator's slot
                };
                let slot_windows = &slots[at].1;
                let w =
                    slot_windows.partition_point(|(extent, ..)| extent.end() <= seg.logical.offset);
                let (_, temp, window) = &slot_windows[w];
                pieces(Space::Temp(*temp), window, seg.logical, |s| push(to, s));
            }
        }
    }
    Ok((temp_sizes, steps, theirs))
}

/// A list plan's round, its piece target re-pointed at temp `temp`.
fn in_temp(step: Step, temp: usize) -> Step {
    let Step::Round(round) = step else {
        return step;
    };
    let mut op = round.op().clone();
    if let Target::Pieces(map) = op.target {
        op.target = Target::TempPieces { temp, map };
    }
    Step::Round(Round::fan_out(round.servers(), op))
}

/// Append `slice`, merged into the last slice when it continues it.
fn push(slices: &mut Vec<MemSlice>, slice: MemSlice) {
    match slices.last_mut() {
        Some(last) if last.space == slice.space && last.offset + last.len == slice.offset => {
            last.len += slice.len
        }
        _ => slices.push(slice),
    }
}
