//! Hybrid list + sieving I/O — the paper's §5 future work.
//!
//! *"If two noncontiguous regions are close to each other, a data
//! sieving operation may take place for just those particular regions."*
//!
//! The planner walks the sorted file regions and groups consecutive
//! regions whose gaps are at most [`MethodConfig::hybrid_gap`] into
//! *clusters* (bounded by the sieve buffer size). A cluster of two or
//! more regions whose useful-byte density meets
//! [`MethodConfig::hybrid_min_density`] is accessed as one contiguous
//! sieved window — data sieving's own window, through
//! [`crate::sieving`]'s copies and steps; everything else flows through
//! ordinary list I/O chunks. Writes never use RMW windows — only
//! *gapless* clusters (which coalesce into plain contiguous writes) are
//! merged — so hybrid writes stay lock-free, unlike data sieving writes.

use crate::method::MethodConfig;
use crate::plan::{AccessPlan, IoKind, Item, Steps, Walk};
use crate::planutil::CappedChunks;
use crate::request::ListRequest;
use pvfs_types::{FileHandle, PieceMap, PvfsResult, Region, RegionList, StripeLayout};

/// Compile a hybrid plan.
pub(crate) fn plan(
    kind: IoKind,
    request: &ListRequest,
    map: PieceMap,
    handle: FileHandle,
    layout: StripeLayout,
    config: &MethodConfig,
) -> PvfsResult<AccessPlan> {
    let items = match kind {
        IoKind::Read => build_read_items(request, layout, config),
        // Writes: coalesce gapless neighbours, then plain list chunks.
        IoKind::Write => {
            let coalesced = request.file.coalesced();
            let chunks = CappedChunks::new(&coalesced, config.max_list_regions, layout);
            chunks.map(Item::Chunk).collect()
        }
    };
    let windows = items.iter().filter_map(|item| match item {
        Item::Sieve(window) => Some(window.len),
        _ => None,
    });
    let temp_sizes = windows.max().into_iter().collect();
    let steps = Steps::Hybrid(Walk::new(items.into_iter(), kind, layout, map, false));
    Ok(AccessPlan::walk(handle, layout, kind, temp_sizes, steps))
}

/// The auto-tuned gap threshold: the largest gap a cluster can absorb
/// while a typical (mean-length) region pair still meets the density
/// floor — `mean_len × (1/min_density − 1)`.
pub fn auto_gap(request: &ListRequest, min_density: f64) -> u64 {
    let n = request.file.count().max(1) as u64;
    let mean_len = request.total_len() / n;
    if min_density <= 0.0 {
        return u64::MAX / 4;
    }
    let slack = (1.0 / min_density - 1.0).max(0.0);
    (mean_len as f64 * slack) as u64
}

/// Cluster the regions of a read request into sieved windows and list
/// leftovers.
fn build_read_items(
    request: &ListRequest,
    layout: StripeLayout,
    config: &MethodConfig,
) -> Vec<Item> {
    let gap_threshold = if config.hybrid_auto {
        auto_gap(request, config.hybrid_min_density)
    } else {
        config.hybrid_gap
    };
    let mut items = Vec::new();
    let mut leftovers = RegionList::new();
    let regions = request.file.regions();
    let mut i = 0usize;
    while i < regions.len() {
        // Grow a cluster [i, j).
        let mut j = i + 1;
        let mut extent = regions[i];
        let mut useful = regions[i].len;
        while j < regions.len() {
            let next = regions[j];
            let gap = next.offset - extent.end();
            let grown = Region::new(extent.offset, next.end() - extent.offset);
            if gap > gap_threshold || grown.len > config.sieve_buffer {
                break;
            }
            extent = grown;
            useful += next.len;
            j += 1;
        }
        let density = useful as f64 / extent.len as f64;
        if j - i >= 2 && density >= config.hybrid_min_density {
            items.push(Item::Sieve(extent));
        } else {
            for r in &regions[i..j] {
                leftovers.push(*r);
                if leftovers.count() == config.max_list_regions {
                    let chunks =
                        CappedChunks::new(&std::mem::take(&mut leftovers), usize::MAX, layout);
                    items.extend(chunks.map(Item::Chunk));
                }
            }
        }
        i = j;
    }
    items.extend(CappedChunks::new(&leftovers, usize::MAX, layout).map(Item::Chunk));
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Method, OpKind, Step};
    use pvfs_proto::Shape;
    use pvfs_types::PvfsError;

    fn layout() -> StripeLayout {
        StripeLayout::new(0, 4, 10).unwrap()
    }

    fn req(pairs: &[(u64, u64)]) -> ListRequest {
        ListRequest::gather(RegionList::from_pairs(pairs.iter().copied()).unwrap())
    }

    fn cfg(gap: u64, density: f64) -> MethodConfig {
        MethodConfig {
            hybrid_gap: gap,
            hybrid_min_density: density,
            ..MethodConfig::default()
        }
    }

    fn compile(kind: IoKind, r: &ListRequest, c: &MethodConfig) -> AccessPlan {
        crate::plan(Method::Hybrid, kind, r, FileHandle(1), layout(), c).unwrap()
    }

    /// Bytes moved over the wire that the caller never asked for.
    fn waste(r: &ListRequest, c: &MethodConfig) -> u64 {
        compile(IoKind::Read, r, c).tally().wire_bytes - r.total_len()
    }

    #[test]
    fn dense_cluster_is_sieved() {
        // Four regions with 2-byte gaps: density 16/22 ≈ 0.73.
        let r = req(&[(0, 4), (6, 4), (12, 4), (18, 4)]);
        let t = compile(IoKind::Read, &r, &cfg(4, 0.5)).tally();
        assert_eq!(t.wire_bytes - r.total_len(), 22 - 16);
        assert_eq!(t.copy_bytes, 16);
        let steps = compile(IoKind::Read, &r, &cfg(4, 0.5)).collect_steps();
        assert!(matches!(steps[0], Step::Round(_)));
        assert!(matches!(steps[1], Step::Copy(_)));
        assert_eq!(steps.len(), 2);
    }

    #[test]
    fn sparse_regions_fall_back_to_list() {
        let r = req(&[(0, 4), (1000, 4), (2000, 4)]);
        let t = compile(IoKind::Read, &r, &cfg(4, 0.5)).tally();
        assert_eq!(t.wire_bytes, r.total_len());
        assert_eq!(t.list_requests, t.requests);
        assert_eq!(t.rounds, 1); // one list chunk round
        assert_eq!(
            compile(IoKind::Read, &r, &cfg(4, 0.5))
                .collect_steps()
                .len(),
            1
        );
    }

    #[test]
    fn mixed_pattern_produces_both() {
        // Dense pair, then a far single.
        let r = req(&[(0, 8), (10, 8), (100_000, 8)]);
        let steps = compile(IoKind::Read, &r, &cfg(4, 0.5)).collect_steps();
        let rounds = steps.iter().filter(|s| matches!(s, Step::Round(_))).count();
        let copies = steps.iter().filter(|s| matches!(s, Step::Copy(_))).count();
        assert_eq!(rounds, 2); // sieve window + list chunk
        assert_eq!(copies, 1);
    }

    #[test]
    fn low_density_cluster_is_not_sieved() {
        // Two regions 4 bytes each, gap 92: density 8/100 < 0.5.
        let r = req(&[(0, 4), (96, 4)]);
        assert_eq!(waste(&r, &cfg(100, 0.5)), 0);
        assert!(compile(IoKind::Read, &r, &cfg(100, 0.5))
            .temp_sizes
            .is_empty());
    }

    #[test]
    fn write_never_sieves_but_coalesces() {
        // Adjacent regions coalesce into one contiguous write; the far
        // region stays separate — and no serialization is needed.
        let r = req(&[(0, 4), (4, 4), (8, 4), (1000, 4)]);
        let p = compile(IoKind::Write, &r, &cfg(100, 0.0));
        assert!(p.temp_sizes.is_empty());
        assert_eq!(p.tally().serial_sections, 0);
        let steps = compile(IoKind::Write, &r, &cfg(100, 0.0)).collect_steps();
        assert_eq!(steps.len(), 1);
        match &steps[0] {
            Step::Round(ops) => match &ops[0].op {
                OpKind {
                    kind: IoKind::Write,
                    shape: Shape::List(regions),
                    ..
                } => {
                    assert_eq!(regions.count(), 2); // [0,12) and [1000,1004)
                    assert_eq!(regions.regions()[0], Region::new(0, 12));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn auto_gap_scales_with_region_size() {
        let small = req(&(0..16).map(|i| (i * 100, 8u64)).collect::<Vec<_>>());
        let big = req(&(0..16).map(|i| (i * 10_000, 1024u64)).collect::<Vec<_>>());
        let gs = auto_gap(&small, 0.5);
        let gb = auto_gap(&big, 0.5);
        assert_eq!(gs, 8); // mean 8 × (1/0.5 − 1) = 8
        assert_eq!(gb, 1024);
        // Lower density floor tolerates bigger gaps.
        assert!(auto_gap(&big, 0.25) > gb);
    }

    #[test]
    fn auto_mode_sieves_dense_without_manual_threshold() {
        // Regions of 512 B with 128 B gaps: dense. Manual gap of 0
        // would list them; auto derives 512 × 1 = 512 ≥ 128 and sieves.
        let r = req(&(0..8).map(|i| (i * 640, 512u64)).collect::<Vec<_>>());
        let manual = MethodConfig {
            hybrid_gap: 0,
            hybrid_min_density: 0.5,
            ..MethodConfig::default()
        };
        let auto = MethodConfig {
            hybrid_auto: true,
            ..manual.clone()
        };
        assert_eq!(waste(&r, &manual), 0, "manual gap 0 must list");
        assert!(waste(&r, &auto) > 0, "auto must sieve the dense cluster");
        assert!(compile(IoKind::Read, &r, &auto).tally().copy_bytes > 0);
    }

    #[test]
    fn auto_mode_still_lists_sparse_patterns() {
        let r = req(&(0..8).map(|i| (i * 100_000, 64u64)).collect::<Vec<_>>());
        let auto = MethodConfig {
            hybrid_auto: true,
            hybrid_min_density: 0.5,
            ..MethodConfig::default()
        };
        assert_eq!(waste(&r, &auto), 0);
        assert!(compile(IoKind::Read, &r, &auto).temp_sizes.is_empty());
    }

    #[test]
    fn cluster_respects_sieve_buffer_bound() {
        // Regions 1 KiB apart; buffer of 2 KiB forces many small
        // clusters instead of one huge window.
        let r = req(&(0..16).map(|i| (i * 1024, 512u64)).collect::<Vec<_>>());
        let mut c = cfg(1024, 0.1);
        c.sieve_buffer = 2048;
        assert!(compile(IoKind::Read, &r, &c).temp_sizes[0] <= 2048);
    }

    #[test]
    fn useful_bytes_conserved_across_items() {
        let r = req(&[(0, 4), (6, 4), (500, 4), (5000, 4), (5010, 4)]);
        // copies (sieved) + list regions (unsieved) = all 20 bytes.
        let steps = compile(IoKind::Read, &r, &cfg(16, 0.3)).collect_steps();
        let copied: u64 = steps
            .iter()
            .filter_map(|s| match s {
                Step::Copy(pairs) => Some(pairs.iter().map(|c| c.src.len).sum::<u64>()),
                _ => None,
            })
            .sum();
        let listed: u64 = steps
            .iter()
            .filter_map(|s| match s {
                Step::Round(ops) => match &ops[0].op {
                    OpKind {
                        kind: IoKind::Read,
                        shape: Shape::List(regions),
                        ..
                    } => Some(regions.total_len()),
                    _ => None,
                },
                _ => None,
            })
            .sum();
        assert_eq!(copied + listed, 20);
    }

    /// `plan` refuses a list limit hybrid cannot honour, for both kinds:
    /// a zero limit would chunk a write by nothing, a limit past the
    /// frame's 64 regions would build lists no daemon accepts.
    #[test]
    fn hybrid_refuses_a_list_limit_out_of_range() {
        let r = req(&(0..100).map(|i| (i * 1000, 8u64)).collect::<Vec<_>>());
        for (kind, bad) in [(IoKind::Write, 0), (IoKind::Read, 0), (IoKind::Read, 65)] {
            let c = MethodConfig {
                max_list_regions: bad,
                ..MethodConfig::default()
            };
            let planned = crate::plan(Method::Hybrid, kind, &r, FileHandle(1), layout(), &c);
            assert!(
                matches!(planned, Err(PvfsError::InvalidArgument(_))),
                "{kind:?} with {bad} regions a list"
            );
        }
    }
}
