//! The access-plan intermediate representation.
//!
//! Every access method compiles a [`crate::ListRequest`] into an
//! [`AccessPlan`]: a lazy sequence of [`Step`]s that one [`crate::Runner`]
//! interprets for two drivers — the live threaded cluster in wall-clock
//! time, the discrete-event simulator in virtual time. Keeping strategy
//! logic in *one* place (the planners) and execution semantics in *one*
//! place (the runner and [`crate::exec`]) is what makes the timed figures
//! trustworthy: the bytes they move are the bytes the tests verify.
//!
//! Plans are lazy (steps are generated on demand) because a 1M-access
//! multiple-I/O plan would otherwise materialize a million rounds up
//! front; the planners instead stream steps from compact state — a walk
//! of their items held in the plan by value, not behind a box — and a
//! round is one op beside the servers it fans out to ([`Round`]).
//!
//! The steps are the only statement of what a plan costs: its rounds,
//! requests, wire bytes, copies and serial sections are a
//! [`PlanStats`] tally of them ([`AccessPlan::tally`]), counted in this
//! one place rather than predicted by each planner.

use crate::exec::{copy_bytes, server_share};
use crate::listio::ListItems;
use crate::multiple::PieceCuts;
use crate::pattern::chunk_servers;
use crate::planutil::{servers_for, Servers};
use crate::sieving::{window_copies, window_steps, Windows};
pub use pvfs_proto::IoKind;
use pvfs_proto::{Shape, VectorRun};
use pvfs_types::{FileHandle, PieceMap, Region, RegionList, ServerId, StripeLayout};
use std::fmt;
use std::iter::{Flatten, Map, RepeatN, Zip};
use std::sync::OnceLock;
use std::vec;

/// Which buffer a memory slice lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// The caller's buffer.
    User,
    /// Plan-owned temporary buffer `n` (e.g. the data sieving buffer).
    Temp(usize),
}

/// A contiguous slice of client memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSlice {
    /// Which buffer.
    pub space: Space,
    /// Byte offset within that buffer.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// One client-side copy: `src` → `dst` (equal lengths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyPair {
    /// Destination slice.
    pub dst: MemSlice,
    /// Source slice.
    pub src: MemSlice,
}

/// Where the byte stream of a wire op comes from / goes to on the
/// client.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// Scatter/gather through the request's [`PieceMap`] (user buffer),
    /// the one map [`crate::plan`](fn@crate::plan) builds per request — two list
    /// handles, cloned into each op.
    Pieces(PieceMap),
    /// A contiguous window in temp buffer `temp`: file offset `x` maps
    /// to temp offset `x - base`. Used by data sieving.
    Window { temp: usize, base: u64 },
}

/// One wire operation addressed to one I/O daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct WireOp {
    /// Destination server.
    pub server: ServerId,
    /// The operation.
    pub op: OpKind,
}

/// What a wire op does: which way its bytes go, the file regions it
/// names in the shape its request carries them, and where its byte
/// stream comes from (a write) or goes to (a read) on the client.
#[derive(Debug, Clone, PartialEq)]
pub struct OpKind {
    /// Read or write.
    pub kind: IoKind,
    /// Its file regions.
    pub shape: Shape,
    /// Its bytes on the client.
    pub target: Target,
}

impl OpKind {
    /// The contiguous op of `kind` on `region` through temp buffer 0, a
    /// window based at the region's start (data sieving).
    pub fn window(kind: IoKind, region: Region) -> OpKind {
        let target = Target::Window {
            temp: 0,
            base: region.offset,
        };
        let shape = Shape::Contiguous(region);
        OpKind {
            kind,
            shape,
            target,
        }
    }
}

/// The wire ops of one round: one [`OpKind`], held once, fanned out over
/// the [`Servers`] it touches ([`Round::fan_out`]). Taken op by op, in
/// slot order, each op is a clone but the last, which takes it. It reads
/// as a `[WireOp]` too, built at the first such read: no executor reads.
#[derive(Debug, Clone)]
pub struct Round {
    op: OpKind,
    servers: Servers,
    ops: OnceLock<Vec<WireOp>>,
}

/// A round's wire ops, taken one by one.
pub type RoundOps = Map<Zip<Servers, RepeatN<OpKind>>, fn((ServerId, OpKind)) -> WireOp>;

impl Round {
    /// `op`, once for each of `servers`.
    pub fn fan_out(servers: Servers, op: OpKind) -> Round {
        let ops = OnceLock::new();
        Round { op, servers, ops }
    }

    /// The op every server is sent.
    pub fn op(&self) -> &OpKind {
        &self.op
    }

    /// The servers it goes to, in the order it goes.
    pub fn servers(&self) -> Servers {
        self.servers.clone()
    }

    /// How many wire ops the round is.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True for a round of no op at all.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }
}

impl PartialEq for Round {
    fn eq(&self, other: &Round) -> bool {
        (&self.op, &self.servers) == (&other.op, &other.servers)
    }
}

impl std::ops::Deref for Round {
    type Target = [WireOp];

    fn deref(&self) -> &[WireOp] {
        self.ops.get_or_init(|| self.clone().into_iter().collect())
    }
}

impl IntoIterator for Round {
    type Item = WireOp;
    type IntoIter = RoundOps;

    fn into_iter(self) -> RoundOps {
        let wire: fn((ServerId, OpKind)) -> WireOp = |(server, op)| WireOp { server, op };
        let ops = std::iter::repeat_n(self.op, self.servers.len());
        self.servers.zip(ops).map(wire)
    }
}

/// One step of a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Issue all ops in parallel (fan-out to distinct servers) and wait
    /// for every response before the next step. The [`Round`] is
    /// consumed op by op (`for wire in round`).
    Round(Round),
    /// Client-side memory copies (sieve buffer ⇄ user buffer).
    Copy(Vec<CopyPair>),
    /// Begin a section that must execute exclusively, in client-rank
    /// order — the plan-level encoding of the paper's
    /// `MPI_Barrier`-serialized data sieving writes.
    SerialBegin,
    /// End the exclusive section.
    SerialEnd,
}

impl Step {
    /// Short label for traces.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Step::Round(_) => "round",
            Step::Copy(_) => "copy",
            Step::SerialBegin => "serial_begin",
            Step::SerialEnd => "serial_end",
        }
    }
}

/// What a plan's steps add up to — the paper's counts (§3.4): counted
/// by [`AccessPlan::tally`], which walks the steps, and by nothing else.
/// A plan makes no prediction of its own; the runner's drivers are
/// checked against this tally. Useful bytes are the request's
/// [`total_len`](crate::ListRequest::total_len), and data sieving's
/// "impertinent data" is `wire_bytes` minus them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Round steps (sequential request waves).
    pub rounds: u64,
    /// Total wire requests across all rounds.
    pub requests: u64,
    /// Of which list/vector requests.
    pub list_requests: u64,
    /// Of which contiguous requests.
    pub contig_requests: u64,
    /// Bytes crossing the network: each wire op's share on its server
    /// ([`crate::exec::server_share`]), summed over every round.
    pub wire_bytes: u64,
    /// Client-side copy traffic (sieve buffer ⇄ user buffer).
    pub copy_bytes: u64,
    /// Serialized (exclusive) sections, ≥1 iff the method needs
    /// cross-client write serialization.
    pub serial_sections: u64,
}

/// One unit of a planner's work, walked into steps by a [`Walk`].
pub(crate) enum Item {
    /// A list-I/O chunk: one round of a list op.
    Chunk(RegionList),
    /// A contiguous piece: one round of a contiguous op.
    Piece(Region),
    /// A chunk of vector runs: one round of a datatype op.
    Runs(Vec<VectorRun>),
    /// A sieve window: read it, copy, and write a write back — no step
    /// at all when it holds no requested byte.
    Sieve(Region),
}

/// The steps of one item still to come.
pub(crate) type ItemSteps = Flatten<std::array::IntoIter<Option<Step>, 3>>;

/// A planner's items, walked into steps as the plan is pulled. A
/// `serial` walk is one exclusive section.
pub(crate) struct Walk<I> {
    items: I,
    left: ItemSteps,
    /// The step after the last item's.
    end: Option<Step>,
    kind: IoKind,
    layout: StripeLayout,
    map: PieceMap,
}

impl<I> Walk<I> {
    pub(crate) fn new(
        items: I,
        kind: IoKind,
        layout: StripeLayout,
        map: PieceMap,
        serial: bool,
    ) -> Walk<I> {
        let begin = [serial.then_some(Step::SerialBegin), None, None];
        Walk {
            items,
            left: begin.into_iter().flatten(),
            end: serial.then_some(Step::SerialEnd),
            kind,
            layout,
            map,
        }
    }
}

impl<I: Iterator<Item = Item>> Iterator for Walk<I> {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        let (kind, layout) = (self.kind, &self.layout);
        loop {
            if let Some(step) = self.left.next() {
                return Some(step);
            }
            let Some(item) = self.items.next() else {
                return self.end.take();
            };
            let (servers, shape) = match item {
                Item::Chunk(chunk) => (
                    servers_for(layout, chunk.iter().copied()),
                    Shape::List(chunk),
                ),
                Item::Piece(region) => (servers_for(layout, [region]), Shape::Contiguous(region)),
                Item::Runs(runs) => (chunk_servers(&runs, layout), Shape::Vectors(runs)),
                Item::Sieve(window) => {
                    let copies = window_copies(&self.map, window, kind);
                    if !copies.is_empty() {
                        self.left = window_steps(layout, kind, window, copies);
                    }
                    continue;
                }
            };
            let target = Target::Pieces(self.map.clone());
            let op = OpKind {
                kind,
                shape,
                target,
            };
            return Some(Step::Round(Round::fan_out(servers, op)));
        }
    }
}

/// A plan's steps, by the walk that yields them: one variant per
/// planner, each a value holding its walk's state — no closure, no box —
/// and one for steps given up front ([`AccessPlan::new`]).
pub(crate) enum Steps {
    Given(vec::IntoIter<Step>),
    List(Walk<ListItems>),
    Multiple(Walk<PieceCuts>),
    Sieving(Walk<Windows>),
    Hybrid(Walk<vec::IntoIter<Item>>),
    Datatype(Walk<vec::IntoIter<Item>>),
}

impl Iterator for Steps {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        match self {
            Steps::Given(steps) => steps.next(),
            Steps::List(steps) => steps.next(),
            Steps::Multiple(steps) => steps.next(),
            Steps::Sieving(steps) => steps.next(),
            Steps::Hybrid(steps) | Steps::Datatype(steps) => steps.next(),
        }
    }
}

/// A compiled access plan: lazy steps plus everything an executor needs
/// to run them. It is a value: planning allocates nothing beyond what
/// its method keeps (a temp buffer's size, hybrid's items, datatype's
/// runs, a sieve window's copy list), and a list or multiple plan nothing.
pub struct AccessPlan {
    /// The file being accessed.
    pub handle: FileHandle,
    /// Its striping.
    pub layout: StripeLayout,
    /// Read or write.
    pub kind: IoKind,
    /// Sizes of the temp buffers the executor must allocate (index =
    /// [`Space::Temp`] id).
    pub temp_sizes: Vec<u64>,
    steps: Steps,
}

impl AccessPlan {
    /// A plan of the steps given.
    pub fn new(
        handle: FileHandle,
        layout: StripeLayout,
        kind: IoKind,
        temp_sizes: Vec<u64>,
        steps: Vec<Step>,
    ) -> AccessPlan {
        let steps = Steps::Given(steps.into_iter());
        AccessPlan::walk(handle, layout, kind, temp_sizes, steps)
    }

    /// A plan of the steps a planner's walk yields.
    pub(crate) fn walk(
        handle: FileHandle,
        layout: StripeLayout,
        kind: IoKind,
        temp_sizes: Vec<u64>,
        steps: Steps,
    ) -> AccessPlan {
        AccessPlan {
            handle,
            layout,
            kind,
            temp_sizes,
            steps,
        }
    }

    /// Walk the plan's steps and count them, without running any.
    pub fn tally(mut self) -> PlanStats {
        let mut stats = PlanStats::default();
        while let Some(step) = self.next_step() {
            match step {
                Step::Round(round) => {
                    stats.rounds += 1;
                    let requests = round.len() as u64;
                    match round.op().shape {
                        Shape::Contiguous(_) => stats.contig_requests += requests,
                        _ => stats.list_requests += requests,
                    }
                    for server in round.servers() {
                        stats.wire_bytes += server_share(round.op(), &self.layout, server);
                    }
                }
                Step::Copy(pairs) => stats.copy_bytes += copy_bytes(&pairs),
                Step::SerialBegin => stats.serial_sections += 1,
                Step::SerialEnd => {}
            }
        }
        stats.requests = stats.list_requests + stats.contig_requests;
        stats
    }

    /// Pull the next step; `None` when the plan is complete.
    pub fn next_step(&mut self) -> Option<Step> {
        self.steps.next()
    }

    /// Drain all steps into a vector (tests and small plans only).
    pub fn collect_steps(mut self) -> Vec<Step> {
        let mut v = Vec::new();
        while let Some(s) = self.next_step() {
            v.push(s);
        }
        v
    }
}

impl fmt::Debug for AccessPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AccessPlan")
            .field("handle", &self.handle)
            .field("kind", &self.kind)
            .field("temp_sizes", &self.temp_sizes)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planutil::servers_for;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rl(pairs: &[(u64, u64)]) -> RegionList {
        RegionList::from_pairs(pairs.iter().copied()).unwrap()
    }

    fn user(offset: u64, len: u64) -> MemSlice {
        MemSlice {
            space: Space::User,
            offset,
            len,
        }
    }

    // `PieceMap` lives in `pvfs_types::region`; its tests stay here,
    // beside the plans that use it, because the equivalence test below
    // also holds data sieving's copy lists to the materialised pieces.

    fn slices(map: &PieceMap, file: Region) -> Vec<Region> {
        let mut out = Vec::new();
        map.for_each_slice(file, |s| out.push(s));
        out
    }

    #[test]
    fn piecemap_lookup_exact_piece() {
        let map = PieceMap::new(&rl(&[(0, 20)]), &rl(&[(100, 10), (200, 10)])).unwrap();
        assert_eq!(
            slices(&map, Region::new(200, 10)),
            vec![Region::new(10, 10)]
        );
    }

    #[test]
    fn piecemap_lookup_partial_and_spanning() {
        // One slice per aligned piece, also where only the file list
        // has a boundary (the fragment counts of the cost model).
        let map = PieceMap::new(&rl(&[(0, 20)]), &rl(&[(100, 10), (110, 10)])).unwrap();
        assert_eq!(
            slices(&map, Region::new(105, 10)),
            vec![Region::new(5, 5), Region::new(10, 5)]
        );
        // …and where only the memory list has one, unsorted at that.
        let map = PieceMap::new(&rl(&[(50, 4), (0, 16)]), &rl(&[(100, 20)])).unwrap();
        assert_eq!(
            slices(&map, Region::new(102, 6)),
            vec![Region::new(52, 2), Region::new(0, 4)]
        );
        // The slice that ends the stream leaves the walk one past the
        // last region of both lists.
        assert_eq!(slices(&map, Region::new(119, 1)), vec![Region::new(15, 1)]);
    }

    #[test]
    fn piecemap_rejects_what_a_request_may_not_be() {
        let err = PieceMap::new(&rl(&[(0, 20)]), &rl(&[(200, 10), (100, 10)])).unwrap_err();
        assert!(err.to_string().contains("sorted and disjoint"), "{err}");
        let err = PieceMap::new(&rl(&[(0, 19)]), &rl(&[(100, 20)])).unwrap_err();
        assert!(err.to_string().contains("19 bytes"), "{err}");
    }

    #[test]
    fn piecemap_empty_region_lookup() {
        let map = PieceMap::new(&rl(&[(0, 10)]), &rl(&[(100, 10)])).unwrap();
        assert!(slices(&map, Region::new(100, 0)).is_empty());
    }

    /// The slices the materialised pieces give for `file` — what
    /// `PieceMap` computed when it held one entry per aligned piece.
    fn slices_from_pieces(pieces: &[(Region, Region)], file: Region) -> Vec<Region> {
        pieces
            .iter()
            .filter_map(|(mem, f)| {
                let overlap = f.intersect(file)?;
                Some(Region::new(
                    mem.offset + (overlap.offset - f.offset),
                    overlap.len,
                ))
            })
            .collect()
    }

    /// The copies of sieve window `window` cut from the materialised
    /// pieces — how data sieving and hybrid reads built them while they
    /// held one entry per piece: each piece clipped to the window.
    fn copies_from_pieces(
        pieces: &[(Region, Region)],
        window: Region,
        kind: IoKind,
    ) -> Vec<CopyPair> {
        let first = pieces.partition_point(|(_, f)| f.end() <= window.offset);
        pieces[first..]
            .iter()
            .map_while(|(mem, f)| {
                let clip = f.intersect(window)?;
                let user = user(mem.offset + (clip.offset - f.offset), clip.len);
                let buf = MemSlice {
                    space: Space::Temp(0),
                    offset: clip.offset - window.offset,
                    len: clip.len,
                };
                Some(match kind {
                    IoKind::Read => CopyPair {
                        dst: user,
                        src: buf,
                    },
                    IoKind::Write => CopyPair {
                        dst: buf,
                        src: user,
                    },
                })
            })
            .collect()
    }

    /// A sorted, disjoint file list of `n` regions (some adjacent) and
    /// a memory list shredding the same total into regions of
    /// `mem_len` bytes (the last one shorter), out of order: scattered
    /// over a 256-byte grid, or — `overlap` — all inside its first 64
    /// bytes, naming bytes more than once.
    fn random_lists(
        rng: &mut StdRng,
        n: usize,
        mem_len: std::ops::RangeInclusive<u64>,
        overlap: bool,
    ) -> (RegionList, RegionList) {
        let mut file = Vec::with_capacity(n);
        let mut at = rng.gen_range(0..100u64);
        for _ in 0..n {
            if rng.gen_bool(0.6) {
                at += rng.gen_range(1..50u64);
            }
            let len = rng.gen_range(1..40u64);
            file.push(Region::new(at, len));
            at += len;
        }
        let mut left: u64 = file.iter().map(|r| r.len).sum();
        let mut mem = Vec::new();
        while left > 0 {
            let len = rng.gen_range(mem_len.clone()).min(left);
            let offset = if overlap {
                rng.gen_range(0..=64 - len)
            } else {
                // Slot k of a 256-byte grid, slots visited out of order.
                let slot = mem.len() as u64 ^ 5;
                slot * 256 + rng.gen_range(0..16u64)
            };
            mem.push(Region::new(offset, len));
            left -= len;
        }
        (
            RegionList::from_regions(mem).unwrap(),
            RegionList::from_regions(file).unwrap(),
        )
    }

    #[test]
    fn implicit_map_yields_the_slices_of_the_materialised_pieces() {
        let mut rng = StdRng::seed_from_u64(0x91EC_35A9);
        // Region counts straddling the mark stride, then anything.
        let counts = [1, 2, 63, 64, 65, 127, 128, 129, 300];
        for round in 0..300 {
            let n = match counts.get(round) {
                Some(&n) => n,
                None => rng.gen_range(1..=300usize),
            };
            let (mem_len, overlap) = match round % 3 {
                0 => (1..=3, false),
                1 => (200..=200, false),
                _ => (1..=40, true),
            };
            let (mut mem, mut file) = random_lists(&mut rng, n, mem_len, overlap);
            // Every other round, both lists are sub-lists cut mid-block
            // from longer ones, between unrelated regions.
            if round % 2 == 1 {
                let junk = |k: usize| Region::new(3 * k as u64, 2);
                let mut cut = |list: &RegionList| {
                    let (before, after) = (rng.gen_range(1..100), rng.gen_range(1..100));
                    let longer: RegionList = (0..before)
                        .map(junk)
                        .chain(list.iter().copied())
                        .chain((0..after).map(junk))
                        .collect();
                    longer.slice(before..before + list.count())
                };
                (mem, file) = (cut(&mem), cut(&file));
            }
            let map = PieceMap::new(&mem, &file).unwrap();
            let pieces = pvfs_types::align_lists(&mem, &file).unwrap();
            let check = |query: Region| {
                assert_eq!(
                    slices(&map, query),
                    slices_from_pieces(&pieces, query),
                    "round {round}: {n} file regions, query {query}"
                );
            };
            for (i, r) in file.iter().enumerate() {
                check(*r);
                // Cut inside the region.
                let lo = rng.gen_range(0..r.len);
                let hi = rng.gen_range(lo + 1..=r.len);
                check(Region::new(r.offset + lo, hi - lo));
                // Across every region adjacent to this one, ends cut.
                let mut end = r.end();
                for next in &file.regions()[i + 1..] {
                    if next.offset != end {
                        break;
                    }
                    end = next.end();
                    check(Region::new(r.offset + lo, end - (r.offset + lo)));
                    check(Region::new(r.offset, end - 1 - r.offset));
                }
            }
            // The copy lists of sieve windows: data sieving's, buffer
            // after buffer across the extent (a few bytes, or any size),
            // and hybrid's, a run of regions from the first one's start
            // to the last one's end.
            let extent = file.extent().unwrap();
            let mut windows = Vec::new();
            for size in [7, rng.gen_range(1..=extent.len)] {
                windows.extend(
                    (extent.offset..extent.end())
                        .step_by(size as usize)
                        .map(|start| Region::new(start, size.min(extent.end() - start))),
                );
            }
            let regions = file.regions();
            windows.extend(regions.iter().enumerate().map(|(i, first)| {
                let last = regions[(i + 2).min(regions.len() - 1)];
                Region::new(first.offset, last.end() - first.offset)
            }));
            for window in windows {
                for kind in [IoKind::Read, IoKind::Write] {
                    assert_eq!(
                        crate::sieving::window_copies(&map, window, kind),
                        copies_from_pieces(&pieces, window, kind),
                        "round {round}: {n} file regions, {kind:?} window {window}"
                    );
                }
            }
        }
    }

    /// A round keeps its single op inline, whatever its fan-out, beside
    /// its servers: taken op by op it clones the op for all but the last
    /// server, which takes it; read as a slice it builds the ops once.
    #[test]
    fn a_round_fans_one_op_out_and_keeps_a_single_one_inline() {
        let layout = StripeLayout::new(0, 4, 10).unwrap();
        let op = OpKind::window(IoKind::Read, Region::new(8, 4));
        let wire = |server| WireOp {
            server: ServerId(server),
            op: op.clone(),
        };
        let servers = |regions: &[Region]| servers_for(&layout, regions.iter().copied());
        let one = Round::fan_out(servers(&[Region::new(8, 1)]), op.clone());
        let three = Round::fan_out(servers(&[Region::new(8, 20)]), op.clone());
        assert_eq!((one.len(), three.len()), (1, 3));
        assert_eq!(three.op(), &op);
        let to = |round: &Round| round.servers().map(|s| s.0).collect::<Vec<_>>();
        assert_eq!((to(&one), to(&three)), (vec![0], vec![0, 1, 2]));
        assert!(one != three && three == three.clone());
        assert_eq!(
            three.clone().into_iter().collect::<Vec<_>>(),
            [0, 1, 2].map(wire)
        );
        assert_eq!(&three[..], &[0, 1, 2].map(wire)[..]);
        assert!(std::ptr::eq(three.as_ptr(), three.as_ptr()), "built once");
        let none = Round::fan_out(servers(&[]), op);
        assert!(none.is_empty() && none.into_iter().next().is_none());
    }

    #[test]
    fn plan_streams_steps() {
        let steps = vec![Step::SerialBegin, Step::SerialEnd];
        let mut plan = AccessPlan::new(
            FileHandle(1),
            StripeLayout::paper_default(4),
            IoKind::Write,
            vec![],
            steps,
        );
        assert_eq!(plan.next_step(), Some(Step::SerialBegin));
        assert_eq!(plan.next_step(), Some(Step::SerialEnd));
        assert_eq!(plan.next_step(), None);
        assert_eq!(plan.next_step(), None);
    }

    /// The tally counts each op's share on the server it is addressed
    /// to — a window read fanned out over three servers moves its
    /// length once — and every other step by kind.
    #[test]
    fn stats_wire_bytes() {
        let layout = StripeLayout::new(0, 4, 10).unwrap();
        let window = Region::new(5, 20); // servers 0, 1, 2
        let read = OpKind::window(IoKind::Read, window);
        let list = OpKind {
            kind: IoKind::Read,
            shape: Shape::List(rl(&[(0, 4), (40, 4)])),
            target: Target::Window { temp: 0, base: 0 },
        };
        let copy = CopyPair {
            dst: user(0, 6),
            src: MemSlice {
                space: Space::Temp(0),
                offset: 0,
                len: 6,
            },
        };
        let steps = vec![
            Step::SerialBegin,
            Step::Round(Round::fan_out(servers_for(&layout, [window]), read)),
            Step::Copy(vec![copy, copy]),
            Step::Round(Round::fan_out(
                servers_for(&layout, [Region::new(0, 4)]),
                list,
            )),
            Step::SerialEnd,
        ];
        let plan = AccessPlan::new(FileHandle(1), layout, IoKind::Read, vec![20], steps);
        let tally = plan.tally();
        assert_eq!(
            tally,
            PlanStats {
                rounds: 2,
                requests: 4,
                list_requests: 1,
                contig_requests: 3,
                wire_bytes: 20 + 8,
                copy_bytes: 12,
                serial_sections: 1,
            }
        );
    }

    #[test]
    fn step_kind_names() {
        let layout = StripeLayout::new(0, 4, 10).unwrap();
        let op = OpKind::window(IoKind::Read, Region::new(0, 4));
        let round = Round::fan_out(servers_for(&layout, []), op);
        assert_eq!(Step::Round(round).kind_name(), "round");
        assert_eq!(Step::Copy(vec![]).kind_name(), "copy");
        assert_eq!(Step::SerialBegin.kind_name(), "serial_begin");
    }
}
