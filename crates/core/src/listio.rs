//! List I/O (§3.3): the paper's contribution.
//!
//! File regions are packed into requests of at most
//! [`MethodConfig::max_list_regions`] (default 64) offset/length pairs of
//! trailing data, each sized to fit one Ethernet frame. One *round* of a
//! list plan sends the chunk's trailing data to every I/O server that
//! owns any byte of it — each server extracts its own pieces — and waits
//! for all responses, then moves to the next chunk. Request count is
//! therefore ⌈regions / 64⌉ × (servers touched per chunk) instead of
//! `regions`, the 64× reduction behind the paper's two-orders-of-
//! magnitude write gap.

use crate::method::MethodConfig;
use crate::plan::{AccessPlan, IoKind, Item, Steps, Walk};
use crate::request::ListRequest;
use pvfs_types::{Chunks, FileHandle, PieceMap, PvfsResult, RegionList, StripeLayout};
use std::iter::Map;

/// A list plan's items: the request's file list in chunks.
pub(crate) type ListItems = Map<Chunks, fn(RegionList) -> Item>;

/// Compile a list-I/O plan.
pub(crate) fn plan(
    kind: IoKind,
    request: &ListRequest,
    map: PieceMap,
    handle: FileHandle,
    layout: StripeLayout,
    config: &MethodConfig,
) -> PvfsResult<AccessPlan> {
    // Chunk lazily over the request's own (shared) region list: every
    // chunk is an O(1) sub-list of it, so a million-region plan never
    // duplicates its regions — not per chunk, not per server, not once.
    let chunks = request.file.chunks(config.max_list_regions);
    let items: ListItems = chunks.map(Item::Chunk);
    let steps = Steps::List(Walk::new(items, kind, layout, map, false));
    Ok(AccessPlan::walk(handle, layout, kind, vec![], steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Method, OpKind, Step};
    use pvfs_types::RegionList;

    fn layout() -> StripeLayout {
        StripeLayout::new(0, 4, 10).unwrap()
    }

    fn req(n: u64, region_len: u64, stride: u64) -> ListRequest {
        ListRequest::gather(
            RegionList::from_pairs((0..n).map(|i| (i * stride, region_len))).unwrap(),
        )
    }

    fn compile_with(method: Method, kind: IoKind, r: &ListRequest, c: &MethodConfig) -> AccessPlan {
        crate::plan(method, kind, r, FileHandle(1), layout(), c).unwrap()
    }

    fn compile(kind: IoKind, r: &ListRequest) -> AccessPlan {
        compile_with(Method::List, kind, r, &MethodConfig::default())
    }

    #[test]
    fn regions_are_chunked_at_64() {
        let r = req(130, 4, 100);
        assert_eq!(compile(IoKind::Read, &r).tally().rounds, 3); // 64 + 64 + 2
        let steps = compile(IoKind::Read, &r).collect_steps();
        assert_eq!(steps.len(), 3);
        let sizes: Vec<usize> = steps
            .iter()
            .map(|s| match s {
                Step::Round(ops) => match &ops[0].op {
                    OpKind::ReadList { regions, .. } => regions.count(),
                    other => panic!("unexpected op {other:?}"),
                },
                other => panic!("unexpected step {other:?}"),
            })
            .collect();
        assert_eq!(sizes, vec![64, 64, 2]);
    }

    #[test]
    fn each_chunk_goes_to_touched_servers_only() {
        // Two regions, both on server 0 (stripes 0 and 4).
        let r = ListRequest::gather(RegionList::from_pairs([(0, 4), (40, 4)]).unwrap());
        assert_eq!(compile(IoKind::Read, &r).tally().requests, 1);
        let steps = compile(IoKind::Read, &r).collect_steps();
        match &steps[0] {
            Step::Round(ops) => {
                assert_eq!(ops.len(), 1);
                assert_eq!(ops[0].server.0, 0);
            }
            other => panic!("unexpected step {other:?}"),
        }
    }

    #[test]
    fn request_count_is_sixty_fourth_of_multiple() {
        // Tiny regions spread across all servers: one list request per
        // chunk per touched server vs one contiguous request per region.
        let r = req(640, 4, 10); // touches all 4 servers cyclically
        let cfg = MethodConfig::default();
        let lp = compile(IoKind::Read, &r).tally();
        let mp = compile_with(Method::Multiple, IoKind::Read, &r, &cfg).tally();
        assert_eq!(mp.requests, 640);
        // 10 chunks × 4 servers = 40 requests.
        assert_eq!(lp.requests, 40);
        assert_eq!(lp.list_requests, 40);
        assert_eq!(mp.requests / lp.requests, 16);
    }

    #[test]
    fn smaller_trailing_limit_increases_requests() {
        let r = req(128, 4, 100);
        let cfg = MethodConfig {
            max_list_regions: 16,
            ..MethodConfig::default()
        };
        let p = compile_with(Method::List, IoKind::Read, &r, &cfg);
        assert_eq!(p.tally().rounds, 8);
    }

    #[test]
    fn invalid_limit_rejected() {
        let r = req(4, 4, 100);
        for bad in [0, 65] {
            let cfg = MethodConfig {
                max_list_regions: bad,
                ..MethodConfig::default()
            };
            let planned = crate::plan(
                Method::List,
                IoKind::Read,
                &r,
                FileHandle(1),
                layout(),
                &cfg,
            );
            assert!(planned.is_err());
        }
    }

    #[test]
    fn write_plan_has_no_serialization() {
        let r = req(100, 4, 100);
        let p = compile(IoKind::Write, &r);
        assert!(p.temp_sizes.is_empty());
        let t = p.tally();
        assert_eq!(t.serial_sections, 0);
        assert_eq!(t.wire_bytes, r.total_len()); // no waste
    }

    #[test]
    fn flash_request_count_matches_paper_formula() {
        // §4.3.1: (80 blocks × 24 variables) / 64 = 30 list requests per
        // processor when each block-variable is one contiguous region —
        // here with every region on one server so requests == rounds.
        let regions = RegionList::from_pairs(
            (0..80u64 * 24).map(|i| (i * 40, 4u64)), // all on server 0: stride 40 = pcount*ssize
        )
        .unwrap();
        let t = compile(IoKind::Write, &ListRequest::gather(regions)).tally();
        assert_eq!(t.rounds, 30);
        assert_eq!(t.requests, 30);
    }
}
