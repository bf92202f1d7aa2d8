//! Datatype I/O — the paper's §5 future work, implemented.
//!
//! *"Support for I/O requests that use an approach similar to MPI
//! datatypes … would describe these patterns with vector datatypes …
//! eliminat\[ing\] the linear relationship between the number of
//! contiguous regions and the number of I/O requests."*
//!
//! The planner compresses the explicit file-region list into
//! [`VectorRun`]s — maximal `(base, blocklen, stride, count)` arithmetic
//! progressions — and ships them in `ReadVectors`/`WriteVectors`
//! requests of at most [`MAX_VECTOR_RUNS`] runs (45, one
//! Ethernet frame, mirroring list I/O's 64-region discipline). A fully
//! regular million-region pattern compresses to a *single* run and
//! therefore a single request per touched server, regardless of the
//! region count.

use crate::method::MethodConfig;
use crate::plan::{AccessPlan, IoKind, Item, Steps, Walk};
use crate::planutil::{servers_for, CappedChunks, Servers};
use crate::request::ListRequest;
use pvfs_proto::{VectorRun, MAX_VECTOR_RUNS};
use pvfs_types::{FileHandle, PieceMap, PvfsResult, Region, StripeLayout};

/// Greedily compress a sorted, disjoint region list into maximal vector
/// runs. Every region keeps its identity (run expansion reproduces the
/// input exactly, in order).
pub fn compress_runs(regions: &[Region]) -> Vec<VectorRun> {
    let mut runs: Vec<VectorRun> = Vec::new();
    for &r in regions {
        if let Some(last) = runs.last_mut() {
            if last.blocklen == r.len {
                if last.count == 1 {
                    let stride = r.offset - last.base;
                    if stride >= last.blocklen {
                        last.stride = stride;
                        last.count = 2;
                        continue;
                    }
                } else if r.offset == last.base + last.count * last.stride {
                    last.count += 1;
                    continue;
                }
            }
        }
        runs.push(VectorRun::contiguous(r));
    }
    runs
}

/// Servers touched by a chunk of runs, in slot order: [`servers_for`]
/// over each run's blocks — only the first `pcount` of them when the
/// stride is whole stripes, because block i + pcount then lands on block
/// i's slots.
pub(crate) fn chunk_servers(runs: &[VectorRun], layout: &StripeLayout) -> Servers {
    let pcount = u64::from(layout.pcount);
    let blocks = runs.iter().flat_map(|run| {
        let periodic = run.stride.is_multiple_of(layout.ssize);
        let count = run.count.min(if periodic { pcount } else { u64::MAX });
        (0..count).map(|i| run.region(i))
    });
    servers_for(layout, blocks)
}

/// Compile a datatype-I/O plan.
pub(crate) fn plan(
    kind: IoKind,
    request: &ListRequest,
    map: PieceMap,
    handle: FileHandle,
    layout: StripeLayout,
    _config: &MethodConfig,
) -> PvfsResult<AccessPlan> {
    let mut items = Vec::new();
    for regions in CappedChunks::new(&request.file, usize::MAX, layout) {
        let runs = compress_runs(regions.regions());
        let chunks = runs.chunks(MAX_VECTOR_RUNS);
        items.extend(chunks.map(|c| Item::Runs(c.to_vec())));
    }
    let steps = Steps::Datatype(Walk::new(items.into_iter(), kind, layout, map, false));
    Ok(AccessPlan::walk(handle, layout, kind, vec![], steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Method;
    use pvfs_types::RegionList;

    fn layout() -> StripeLayout {
        StripeLayout::new(0, 4, 10).unwrap()
    }

    fn compile(kind: IoKind, r: &ListRequest, c: &MethodConfig) -> AccessPlan {
        crate::plan(Method::Datatype, kind, r, FileHandle(1), layout(), c).unwrap()
    }

    fn regions(pairs: &[(u64, u64)]) -> Vec<Region> {
        pairs.iter().map(|&(o, l)| Region::new(o, l)).collect()
    }

    #[test]
    fn uniform_stride_compresses_to_one_run() {
        let rs = regions(&(0..1000).map(|i| (i * 64, 8u64)).collect::<Vec<_>>());
        let runs = compress_runs(&rs);
        assert_eq!(runs.len(), 1);
        assert_eq!(
            runs[0],
            VectorRun {
                base: 0,
                blocklen: 8,
                stride: 64,
                count: 1000
            }
        );
    }

    #[test]
    fn run_expansion_reproduces_input() {
        let rs = regions(&[(0, 8), (64, 8), (128, 8), (200, 4), (300, 4), (400, 4)]);
        let runs = compress_runs(&rs);
        let expanded: Vec<Region> = runs.iter().flat_map(|r| r.regions()).collect();
        assert_eq!(expanded, rs);
    }

    #[test]
    fn stride_change_starts_new_run() {
        let rs = regions(&[(0, 8), (16, 8), (32, 8), (100, 8), (116, 8)]);
        let runs = compress_runs(&rs);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].count, 3);
        assert_eq!(runs[1].count, 2);
        assert_eq!(runs[1].stride, 16);
    }

    #[test]
    fn blocklen_change_starts_new_run() {
        let rs = regions(&[(0, 8), (16, 8), (32, 4)]);
        let runs = compress_runs(&rs);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].blocklen, 4);
    }

    #[test]
    fn adjacent_equal_regions_form_contiguous_run() {
        let rs = regions(&[(0, 8), (8, 8), (16, 8)]);
        let runs = compress_runs(&rs);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].stride, 8);
        let total: u64 = runs.iter().map(|r| r.total_len()).sum();
        assert_eq!(total, 24);
    }

    #[test]
    fn regular_pattern_needs_constant_requests() {
        // The extension's whole point: requests don't grow with regions.
        let small =
            ListRequest::gather(RegionList::from_pairs((0..100u64).map(|i| (i * 40, 4))).unwrap());
        let big = ListRequest::gather(
            RegionList::from_pairs((0..100_000u64).map(|i| (i * 40, 4))).unwrap(),
        );
        let cfg = MethodConfig::default();
        let ps = compile(IoKind::Read, &small, &cfg);
        let pb = compile(IoKind::Read, &big, &cfg);
        let (ts, tb) = (ps.tally(), pb.tally());
        assert_eq!(ts.requests, tb.requests);
        assert_eq!(tb.list_requests, tb.requests);
        assert_eq!(tb.rounds, 1);
    }

    /// The slots `run` touches, one flag each.
    fn marked(run: &VectorRun, l: &StripeLayout) -> Vec<bool> {
        let touched: Vec<_> = chunk_servers(&[*run], l).collect();
        (0..l.pcount)
            .map(|slot| touched.contains(&l.server_at_slot(slot)))
            .collect()
    }

    /// The slots holding a byte of one of `run`'s blocks, one flag each.
    fn holding(run: &VectorRun, l: &StripeLayout) -> Vec<bool> {
        (0..l.pcount)
            .map(|slot| run.regions().any(|r| l.bytes_on_slot(r, slot) > 0))
            .collect()
    }

    #[test]
    fn stripe_aligned_single_server_run_is_detected() {
        // stride 40 = pcount × ssize: every block on server 0.
        let run = VectorRun {
            base: 0,
            blocklen: 4,
            stride: 40,
            count: 1_000_000,
        };
        let l = layout();
        let marked = marked(&run, &l);
        assert_eq!(marked, vec![true, false, false, false]);
    }

    #[test]
    fn rotating_run_touches_all_servers() {
        let run = VectorRun {
            base: 0,
            blocklen: 4,
            stride: 10,
            count: 8,
        };
        let l = layout();
        let marked = marked(&run, &l);
        assert!(marked.iter().all(|m| *m));
    }

    #[test]
    fn irregular_stride_falls_back_to_walking() {
        let run = VectorRun {
            base: 3,
            blocklen: 4,
            stride: 17,
            count: 5,
        };
        let l = layout();
        assert_eq!(marked(&run, &l), holding(&run, &l));
    }

    #[test]
    fn chunk_servers_matches_oracle_for_many_runs() {
        let l = StripeLayout::new(0, 8, 16).unwrap();
        for (base, blocklen, stride, count) in [
            (0u64, 4u64, 16u64, 10u64),
            (5, 3, 32, 7),
            (0, 20, 48, 4),
            (7, 1, 128, 100),
            (0, 4, 23, 50),
            (100, 16, 16, 12),
        ] {
            let run = VectorRun {
                base,
                blocklen,
                stride,
                count,
            };
            assert_eq!(marked(&run, &l), holding(&run, &l), "run {run:?}");
        }
    }

    #[test]
    fn irregular_list_chunks_runs() {
        // Fully irregular regions: every region its own run, chunked at
        // MAX_VECTOR_RUNS.
        let mut pairs = Vec::new();
        let mut off = 0u64;
        for i in 0..100u64 {
            pairs.push((off, 3 + (i % 5)));
            off += 100 + i * 7;
        }
        let r = ListRequest::gather(RegionList::from_pairs(pairs).unwrap());
        let cfg = MethodConfig::default();
        let p = compile(IoKind::Read, &r, &cfg);
        assert!(p.tally().rounds >= 2); // 100 runs / 45 per request
    }
}
