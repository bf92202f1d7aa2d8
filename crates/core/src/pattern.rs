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
//! requests of at most [`MethodConfig::max_vector_runs`] runs (45, one
//! Ethernet frame, mirroring list I/O's 64-region discipline). A fully
//! regular million-region pattern compresses to a *single* run and
//! therefore a single request per touched server, regardless of the
//! region count.

use crate::method::MethodConfig;
use crate::plan::{AccessPlan, IoKind, Item, Steps, Walk};
use crate::planutil::Servers;
use crate::request::ListRequest;
use pvfs_proto::VectorRun;
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

/// Mark the slots (servers) a run touches. Uses a closed form when the
/// stride is stripe-aligned (the slot sequence is then periodic), and
/// falls back to walking the regions with early exit otherwise.
fn mark_run_servers(run: &VectorRun, layout: &StripeLayout, servers: &mut Servers) {
    let p = layout.pcount as u64;
    let ssize = layout.ssize;
    // Stripes spanned by one block (constant when stride % ssize == 0).
    if run.stride.is_multiple_of(ssize) {
        let first_stripe = run.base / ssize;
        let last_stripe = (run.base + run.blocklen - 1) / ssize;
        let block_stripes = last_stripe - first_stripe + 1;
        if block_stripes >= p {
            *servers = Servers::all(layout);
            return;
        }
        let k = run.stride / ssize; // slot advance per block
                                    // The slot sequence (first_stripe + i*k) mod p repeats with
                                    // period p / gcd(p, k) ≤ p: visiting p blocks covers every slot
                                    // the run will ever touch.
        let distinct = run.count.min(p);
        for i in 0..distinct {
            let s0 = (first_stripe + i * k) % p;
            for b in 0..block_stripes {
                servers.mark(((s0 + b) % p) as usize);
            }
        }
        return;
    }
    // Irregular stride: walk regions, early-exit once all slots marked.
    for region in run.regions() {
        let first = layout.stripe_index(region.offset);
        let last = layout.stripe_index(region.end() - 1);
        if last - first + 1 >= p {
            *servers = Servers::all(layout);
            return;
        }
        for g in first..=last {
            if servers.mark((g % p) as usize) && servers.len() == layout.pcount as usize {
                return;
            }
        }
    }
}

/// Servers touched by a chunk of runs, in slot order.
pub(crate) fn chunk_servers(runs: &[VectorRun], layout: &StripeLayout) -> Servers {
    let mut servers = Servers::none(layout);
    for run in runs {
        mark_run_servers(run, layout, &mut servers);
        if servers.len() == layout.pcount as usize {
            break;
        }
    }
    servers
}

/// Compile a datatype-I/O plan.
pub(crate) fn plan(
    kind: IoKind,
    request: &ListRequest,
    map: PieceMap,
    handle: FileHandle,
    layout: StripeLayout,
    config: &MethodConfig,
) -> PvfsResult<AccessPlan> {
    let runs = compress_runs(request.file.regions());
    let chunks = runs.chunks(config.max_vector_runs);
    let items: Vec<Item> = chunks.map(|c| Item::Runs(c.to_vec())).collect();
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

    /// The slots `run` marks, one flag each.
    fn marked(run: &VectorRun, l: &StripeLayout) -> Vec<bool> {
        let mut servers = Servers::none(l);
        mark_run_servers(run, l, &mut servers);
        let touched: Vec<_> = servers.collect();
        (0..l.pcount)
            .map(|slot| touched.contains(&l.server_at_slot(slot)))
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
        let marked = marked(&run, &l);
        // Oracle via explicit expansion.
        let mut oracle = vec![false; 4];
        for r in run.regions() {
            for s in l.servers_touched(r) {
                oracle[s.index()] = true;
            }
        }
        assert_eq!(marked, oracle);
    }

    #[test]
    fn mark_run_servers_matches_oracle_for_many_runs() {
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
            let marked = marked(&run, &l);
            let mut oracle = vec![false; 8];
            for r in run.regions() {
                for s in l.servers_touched(r) {
                    oracle[s.index()] = true;
                }
            }
            assert_eq!(marked, oracle, "run {run:?}");
        }
    }

    #[test]
    fn irregular_list_chunks_runs() {
        // Fully irregular regions: every region its own run, chunked at
        // max_vector_runs.
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

    #[test]
    fn invalid_run_limit_rejected() {
        let r = ListRequest::gather(RegionList::from_pairs([(0u64, 4u64)]).unwrap());
        for bad in [0, 1000] {
            let cfg = MethodConfig {
                max_vector_runs: bad,
                ..MethodConfig::default()
            };
            let planned = crate::plan(
                crate::Method::Datatype,
                IoKind::Read,
                &r,
                FileHandle(1),
                layout(),
                &cfg,
            );
            assert!(planned.is_err());
        }
    }
}
