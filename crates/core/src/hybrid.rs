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
//! sieved window; everything else flows through ordinary list I/O
//! chunks. Writes never use RMW windows — only *gapless* clusters (which
//! coalesce into plain contiguous writes) are merged — so hybrid writes
//! stay lock-free, unlike data sieving writes.

use crate::method::MethodConfig;
use crate::plan::{
    AccessPlan, CopyPair, IoKind, MemSlice, OpKind, PieceMap, PlanStats, Round, Space, Step, Target,
};
use crate::planutil::servers_for;
use crate::request::ListRequest;
use pvfs_types::{FileHandle, PvfsResult, Region, RegionList, StripeLayout};
use std::sync::Arc;

/// One unit of hybrid work.
enum Item {
    /// Sieve this window; copy the clipped pieces afterwards (read-only).
    Sieve {
        window: Region,
        copies: Vec<CopyPair>,
    },
    /// List-I/O chunk.
    Chunk(RegionList),
}

/// Compile a hybrid plan.
pub fn plan(
    kind: IoKind,
    request: &ListRequest,
    handle: FileHandle,
    layout: StripeLayout,
    config: &MethodConfig,
) -> PvfsResult<AccessPlan> {
    let piece_map = Arc::new(PieceMap::new(&request.mem, &request.file)?);

    let items = match kind {
        // Only the sieved windows need the pieces themselves (their copy
        // lists are cut from them), so only reads materialise them.
        IoKind::Read => {
            let mut pieces = request.pieces()?;
            pieces.sort_unstable_by_key(|(_, f)| f.offset);
            build_read_items(&pieces, request, config)
        }
        // Writes: coalesce gapless neighbours, then plain list chunks.
        IoKind::Write => request
            .file
            .coalesced()
            .chunks(config.max_list_regions)
            .map(Item::Chunk)
            .collect(),
    };

    let mut stats = PlanStats {
        useful_bytes: request.total_len(),
        ..PlanStats::default()
    };
    let mut max_window = 0u64;
    for item in &items {
        match item {
            Item::Sieve { window, copies } => {
                stats.rounds += 1;
                stats.requests += servers_for(&layout, [*window]).len() as u64;
                stats.contig_requests = stats.requests - stats.list_requests;
                let useful: u64 = copies.iter().map(|c| c.src.len).sum();
                stats.waste_bytes += window.len - useful;
                stats.copy_bytes += useful;
                max_window = max_window.max(window.len);
            }
            Item::Chunk(chunk) => {
                stats.rounds += 1;
                let n = servers_for(&layout, chunk.iter().copied()).len() as u64;
                stats.requests += n;
                stats.list_requests += n;
            }
        }
    }
    stats.contig_requests = stats.requests - stats.list_requests;

    let temp_sizes = if max_window > 0 {
        vec![max_window]
    } else {
        vec![]
    };
    let steps = items.into_iter().flat_map(move |item| match item {
        Item::Sieve { window, copies } => {
            let read = OpKind::window(IoKind::Read, window);
            let ops = Round::fan_out(servers_for(&layout, [window]).iter(), read);
            vec![Step::Round(ops), Step::Copy(copies)]
        }
        Item::Chunk(chunk) => {
            let servers = servers_for(&layout, chunk.iter().copied());
            let op = OpKind::list(kind, chunk, Target::Pieces(piece_map.clone()));
            vec![Step::Round(Round::fan_out(servers.iter(), op))]
        }
    });

    Ok(AccessPlan::new(
        handle, layout, kind, temp_sizes, stats, steps,
    ))
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
    pieces: &[(Region, Region)],
    request: &ListRequest,
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
            items.push(Item::Sieve {
                window: extent,
                copies: copies_for_window(pieces, extent),
            });
        } else {
            for r in &regions[i..j] {
                leftovers.push(*r);
                if leftovers.count() == config.max_list_regions {
                    items.push(Item::Chunk(std::mem::take(&mut leftovers)));
                }
            }
        }
        i = j;
    }
    if !leftovers.is_empty() {
        items.push(Item::Chunk(leftovers));
    }
    items
}

/// Buffer→user copies for the pieces inside `window` (read direction).
fn copies_for_window(pieces: &[(Region, Region)], window: Region) -> Vec<CopyPair> {
    let start = pieces.partition_point(|(_, f)| f.end() <= window.offset);
    let mut copies = Vec::new();
    for (mem, file) in &pieces[start..] {
        if file.offset >= window.end() {
            break;
        }
        if let Some(clip) = file.intersect(window) {
            let delta = clip.offset - file.offset;
            copies.push(CopyPair {
                dst: MemSlice {
                    space: Space::User,
                    offset: mem.offset + delta,
                    len: clip.len,
                },
                src: MemSlice {
                    space: Space::Temp(0),
                    offset: clip.offset - window.offset,
                    len: clip.len,
                },
            });
        }
    }
    copies
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn dense_cluster_is_sieved() {
        // Four regions with 2-byte gaps: density 16/22 ≈ 0.73.
        let r = req(&[(0, 4), (6, 4), (12, 4), (18, 4)]);
        let p = plan(IoKind::Read, &r, FileHandle(1), layout(), &cfg(4, 0.5)).unwrap();
        assert_eq!(p.stats.waste_bytes, 22 - 16);
        assert_eq!(p.stats.copy_bytes, 16);
        let steps = p.collect_steps();
        assert!(matches!(steps[0], Step::Round(_)));
        assert!(matches!(steps[1], Step::Copy(_)));
        assert_eq!(steps.len(), 2);
    }

    #[test]
    fn sparse_regions_fall_back_to_list() {
        let r = req(&[(0, 4), (1000, 4), (2000, 4)]);
        let p = plan(IoKind::Read, &r, FileHandle(1), layout(), &cfg(4, 0.5)).unwrap();
        assert_eq!(p.stats.waste_bytes, 0);
        assert_eq!(p.stats.list_requests, p.stats.requests);
        let steps = p.collect_steps();
        assert_eq!(steps.len(), 1); // one list chunk round
    }

    #[test]
    fn mixed_pattern_produces_both() {
        // Dense pair, then a far single.
        let r = req(&[(0, 8), (10, 8), (100_000, 8)]);
        let p = plan(IoKind::Read, &r, FileHandle(1), layout(), &cfg(4, 0.5)).unwrap();
        let steps = p.collect_steps();
        let rounds = steps.iter().filter(|s| matches!(s, Step::Round(_))).count();
        let copies = steps.iter().filter(|s| matches!(s, Step::Copy(_))).count();
        assert_eq!(rounds, 2); // sieve window + list chunk
        assert_eq!(copies, 1);
    }

    #[test]
    fn low_density_cluster_is_not_sieved() {
        // Two regions 4 bytes each, gap 92: density 8/100 < 0.5.
        let r = req(&[(0, 4), (96, 4)]);
        let p = plan(IoKind::Read, &r, FileHandle(1), layout(), &cfg(100, 0.5)).unwrap();
        assert_eq!(p.stats.waste_bytes, 0);
        assert!(p.temp_sizes.is_empty());
    }

    #[test]
    fn write_never_sieves_but_coalesces() {
        // Adjacent regions coalesce into one contiguous write; the far
        // region stays separate — and no serialization is needed.
        let r = req(&[(0, 4), (4, 4), (8, 4), (1000, 4)]);
        let p = plan(IoKind::Write, &r, FileHandle(1), layout(), &cfg(100, 0.0)).unwrap();
        assert_eq!(p.stats.serial_sections, 0);
        assert!(p.temp_sizes.is_empty());
        let steps = p.collect_steps();
        assert_eq!(steps.len(), 1);
        match &steps[0] {
            Step::Round(ops) => match &ops[0].op {
                OpKind::WriteList { regions, .. } => {
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
            hybrid_gap: 0,
            hybrid_min_density: 0.5,
            ..MethodConfig::default()
        };
        let pm = plan(IoKind::Read, &r, FileHandle(1), layout(), &manual).unwrap();
        let pa = plan(IoKind::Read, &r, FileHandle(1), layout(), &auto).unwrap();
        assert_eq!(pm.stats.waste_bytes, 0, "manual gap 0 must list");
        assert!(
            pa.stats.waste_bytes > 0,
            "auto must sieve the dense cluster"
        );
        assert!(pa.stats.copy_bytes > 0);
    }

    #[test]
    fn auto_mode_still_lists_sparse_patterns() {
        let r = req(&(0..8).map(|i| (i * 100_000, 64u64)).collect::<Vec<_>>());
        let auto = MethodConfig {
            hybrid_auto: true,
            hybrid_min_density: 0.5,
            ..MethodConfig::default()
        };
        let p = plan(IoKind::Read, &r, FileHandle(1), layout(), &auto).unwrap();
        assert_eq!(p.stats.waste_bytes, 0);
        assert!(p.temp_sizes.is_empty());
    }

    #[test]
    fn cluster_respects_sieve_buffer_bound() {
        // Regions 1 KiB apart; buffer of 2 KiB forces many small
        // clusters instead of one huge window.
        let r = req(&(0..16).map(|i| (i * 1024, 512u64)).collect::<Vec<_>>());
        let mut c = cfg(1024, 0.1);
        c.sieve_buffer = 2048;
        let p = plan(IoKind::Read, &r, FileHandle(1), layout(), &c).unwrap();
        assert!(p.temp_sizes[0] <= 2048);
    }

    #[test]
    fn useful_bytes_conserved_across_items() {
        let r = req(&[(0, 4), (6, 4), (500, 4), (5000, 4), (5010, 4)]);
        let p = plan(IoKind::Read, &r, FileHandle(1), layout(), &cfg(16, 0.3)).unwrap();
        // copies (sieved) + list regions (unsieved) = all 20 bytes.
        let steps = p.collect_steps();
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
                    OpKind::ReadList { regions, .. } => Some(regions.total_len()),
                    _ => None,
                },
                _ => None,
            })
            .sum();
        assert_eq!(copied + listed, 20);
    }
}
