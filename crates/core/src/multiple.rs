//! Multiple I/O (§3.1): one contiguous request per contiguous piece.
//!
//! This is the baseline every parallel file system supports: a
//! traditional `read`/`write` takes *one* buffer pointer and *one* file
//! range, so each access must be contiguous in **both** memory and
//! file. The planner therefore walks the request's aligned
//! (memory, file) pieces — for FLASH I/O that is 983 040 accesses per
//! processor even though the file has only 1920 contiguous regions,
//! exactly the count §4.3.1 quotes. Each piece becomes one round: a
//! single request usually, a small fan-out when the piece straddles
//! stripe boundaries. Request count grows linearly with the number of
//! pieces, which is the overhead the paper's figures show dominating.

use crate::method::MethodConfig;
use crate::plan::{AccessPlan, IoKind, Item, Steps, Walk};
use crate::planutil::{bulk_pieces, Cuts};
use crate::request::ListRequest;
use pvfs_types::{FileHandle, PieceMap, Pieces, PvfsResult, Region, StripeLayout, TransferPiece};
use std::iter::{FlatMap, Map, Repeat, Zip};

/// A multiple-I/O plan's items: the map's pieces, each in its bulk
/// pieces.
pub(crate) type PieceCuts = Map<
    FlatMap<Zip<Pieces, Repeat<StripeLayout>>, Cuts, fn((TransferPiece, StripeLayout)) -> Cuts>,
    fn(Region) -> Item,
>;

/// Compile a multiple-I/O plan: one round per aligned piece, streamed
/// from the map's lazy walk of them rather than held for the life of the
/// plan — a piece that would carry more than one frame's bulk to a
/// server ([`bulk_pieces`]) is as many rounds as it takes.
pub(crate) fn plan(
    kind: IoKind,
    _request: &ListRequest,
    map: PieceMap,
    handle: FileHandle,
    layout: StripeLayout,
    _config: &MethodConfig,
) -> PvfsResult<AccessPlan> {
    let cut = |((_, piece), layout): (TransferPiece, StripeLayout)| bulk_pieces(&layout, piece);
    let pieces = map.pieces().zip(std::iter::repeat(layout));
    let items: PieceCuts = pieces.flat_map(cut as fn(_) -> _).map(Item::Piece);
    let steps = Steps::Multiple(Walk::new(items, kind, layout, map, false));
    Ok(AccessPlan::walk(handle, layout, kind, vec![], steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Method, Step};
    use pvfs_types::RegionList;

    fn layout() -> StripeLayout {
        StripeLayout::new(0, 4, 10).unwrap()
    }

    fn req(pairs: &[(u64, u64)]) -> ListRequest {
        ListRequest::gather(RegionList::from_pairs(pairs.iter().copied()).unwrap())
    }

    fn compile(kind: IoKind, r: &ListRequest) -> AccessPlan {
        let config = MethodConfig::default();
        crate::plan(Method::Multiple, kind, r, FileHandle(1), layout(), &config).unwrap()
    }

    #[test]
    fn one_round_per_piece_with_contiguous_memory() {
        // Contiguous memory: pieces == file regions.
        let r = req(&[(0, 4), (20, 4), (40, 4)]);
        let t = compile(IoKind::Read, &r).tally();
        assert_eq!(t.rounds, 3);
        assert_eq!(t.requests, 3); // each region on one server
        assert_eq!(t.contig_requests, 3);
        assert_eq!(t.list_requests, 0);
        assert_eq!(t.wire_bytes, r.total_len()); // no waste
        assert_eq!(t.wire_bytes, 12);
        let steps = compile(IoKind::Read, &r).collect_steps();
        assert_eq!(steps.len(), 3);
        for s in &steps {
            match s {
                Step::Round(ops) => assert_eq!(ops.len(), 1),
                other => panic!("unexpected step {other:?}"),
            }
        }
    }

    #[test]
    fn fragmented_memory_multiplies_accesses() {
        // FLASH-like: one 32-byte file region fed from four 8-byte
        // memory fragments => four accesses, not one.
        let mem = RegionList::from_pairs((0..4u64).map(|i| (i * 192, 8))).unwrap();
        let file = RegionList::from_pairs([(1000, 32)]).unwrap();
        let r = ListRequest::new(mem, file).unwrap();
        let t = compile(IoKind::Write, &r).tally();
        assert_eq!(t.rounds, 4);
        // Pieces straddling the 10-byte stripes fan out further.
        assert!(t.requests >= 4);
    }

    #[test]
    fn straddling_region_fans_out() {
        let r = req(&[(5, 20)]); // servers 0, 1, 2
        assert_eq!(compile(IoKind::Read, &r).tally().requests, 3);
        let steps = compile(IoKind::Read, &r).collect_steps();
        match &steps[0] {
            Step::Round(ops) => {
                assert_eq!(ops.len(), 3);
                let servers: Vec<u32> = ops.iter().map(|o| o.server.0).collect();
                assert_eq!(servers, vec![0, 1, 2]);
            }
            other => panic!("unexpected step {other:?}"),
        }
    }

    #[test]
    fn write_plans_use_write_ops() {
        let steps = compile(IoKind::Write, &req(&[(0, 4)])).collect_steps();
        match &steps[0] {
            Step::Round(ops) => assert!(ops[0].op.is_write()),
            other => panic!("unexpected step {other:?}"),
        }
    }

    #[test]
    fn no_temps_no_serialization() {
        let plan = compile(IoKind::Write, &req(&[(0, 4), (100, 4)]));
        assert!(plan.temp_sizes.is_empty());
        let t = plan.tally();
        assert_eq!(t.serial_sections, 0);
        assert_eq!(t.copy_bytes, 0);
    }

    #[test]
    fn request_count_scales_with_regions() {
        // The paper's core observation: multiple I/O cost is linear in
        // the number of accesses.
        let small = req(&(0..10).map(|i| (i * 100, 4u64)).collect::<Vec<_>>());
        let big = req(&(0..1000).map(|i| (i * 100, 4u64)).collect::<Vec<_>>());
        let requests = |r: &ListRequest| compile(IoKind::Read, r).tally().requests;
        assert_eq!(requests(&big), 100 * requests(&small));
    }

    #[test]
    fn flash_piece_count_matches_paper_formula() {
        // 2 file chunks of 32 bytes, memory fragmented into 8-byte
        // doubles at 192-byte spacing: accesses = mem fragments.
        let mem = RegionList::from_pairs((0..8u64).map(|i| (i * 192, 8))).unwrap();
        let file = RegionList::from_pairs([(0, 32), (4096, 32)]).unwrap();
        let r = ListRequest::new(mem, file).unwrap();
        assert_eq!(compile(IoKind::Write, &r).tally().rounds, 8);
    }
}
