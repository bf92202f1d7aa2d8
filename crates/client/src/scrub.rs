//! Client-driven anti-entropy repair.
//!
//! With `PVFS_REPLICAS` ≥ 2 a write that meets its quorum can still
//! leave copies behind — a daemon was down, shed the request, or lost
//! its memory-backed state to a restart. Nothing on the data path
//! blocks on healing those copies (the paper's lock-free, manager-off-
//! the-data-path design is preserved); instead a *scrub* pass compares
//! [`StripeDigest`] checksums across the copies of every stripe slot
//! and rewrites only the divergent spans from the freshest reachable
//! copy. Repair traffic is ordinary list I/O addressed at specific
//! copies, so it reuses the wire protocol, accounting, and fault
//! machinery end to end.
//!
//! [`StripeDigest`]: pvfs_proto::Request::StripeDigest

use bytes::Bytes;
use pvfs_net::{ClusterClient, RpcTarget};
use pvfs_proto::{IoKind, Request, Response, Shape, MAX_LIST_REGIONS};
use pvfs_replica::{divergent_spans, local_span_logical_regions, pick_repair_source, DigestReply};
use pvfs_types::{
    FileHandle, PvfsError, PvfsResult, Region, RegionList, ScrubReport, StripeLayout,
};

/// Default digest chunk size: small enough that one flipped byte
/// re-ships at most 64 KiB, large enough that digesting a local file
/// costs few checksums.
pub const SCRUB_CHUNK: u64 = 64 * 1024;

/// Scrub one file with the default [`SCRUB_CHUNK`] granularity.
pub fn scrub_file(
    client: &ClusterClient,
    handle: FileHandle,
    layout: &StripeLayout,
) -> PvfsResult<ScrubReport> {
    scrub_file_with_chunk(client, handle, layout, SCRUB_CHUNK)
}

/// Scrub one file, comparing and repairing at `chunk`-byte granularity.
///
/// For every stripe slot: fetch a digest vector from each copy, pick
/// the freshest reachable copy as the repair source (highest mutation
/// version, then size — a restarted daemon answers version 0 and is
/// never chosen over a live peer), then for each stale copy truncate
/// any overlong tail and rewrite the divergent spans via batched list
/// I/O. Unreachable copies are skipped and counted; a later scrub
/// picks them up. A no-op reporting all-clean when replication is off.
pub fn scrub_file_with_chunk(
    client: &ClusterClient,
    handle: FileHandle,
    layout: &StripeLayout,
    chunk: u64,
) -> PvfsResult<ScrubReport> {
    if chunk == 0 {
        return Err(PvfsError::invalid("scrub chunk must be nonzero"));
    }
    let map = client.endpoint().replica_map().clone();
    let mut report = ScrubReport::default();
    if !map.policy().enabled() {
        return Ok(report);
    }
    for slot in 0..layout.pcount {
        report.slots_scanned += 1;
        let targets = map.copies(layout, slot);
        let mut replies: Vec<Option<DigestReply>> = Vec::with_capacity(targets.len());
        for target in &targets {
            let digest = Request::StripeDigest { handle, chunk };
            let request = map.rewrite_request(&digest, slot, target.copy);
            match client.call(RpcTarget::Server(target.server), request) {
                Ok(Response::Digests {
                    version,
                    size,
                    chunks,
                }) => replies.push(Some(DigestReply {
                    version,
                    size,
                    chunks,
                })),
                Ok(other) => return Err(PvfsError::protocol(format!("unexpected {other:?}"))),
                Err(_) => {
                    report.copies_unreachable += 1;
                    replies.push(None);
                }
            }
        }
        report.digests_compared += replies
            .iter()
            .flatten()
            .map(|r| r.chunks.len() as u64)
            .sum::<u64>();
        let Some(src_idx) = pick_repair_source(&replies) else {
            continue;
        };
        let source = replies[src_idx].clone().expect("source is reachable");
        let src = targets[src_idx];
        for (i, reply) in replies.iter().enumerate() {
            if i == src_idx {
                continue;
            }
            let Some(stale) = reply else { continue };
            let (spans, overlong) = divergent_spans(&source, stale, chunk);
            if spans.is_empty() && !overlong {
                continue;
            }
            report.copies_divergent += 1;
            let stale_t = targets[i];
            if overlong {
                // Cut the tail first so the rewrites below leave the
                // copy byte-identical to the source, size included.
                let size = source.size;
                let truncate =
                    map.rewrite_request(&Request::Truncate { handle, size }, slot, stale_t.copy);
                match client.call(RpcTarget::Server(stale_t.server), truncate)? {
                    Response::LocalSize { .. } => report.copies_truncated += 1,
                    other => return Err(PvfsError::protocol(format!("unexpected {other:?}"))),
                }
            }
            // Divergent *local* spans decompose into the logical
            // regions they hold; list I/O then moves exactly those
            // bytes, batched under the frame's region limit.
            let regions: Vec<Region> = spans
                .iter()
                .flat_map(|span| local_span_logical_regions(layout, slot, *span))
                .collect();
            for batch in regions.chunks(MAX_LIST_REGIONS) {
                let list = Shape::List(RegionList::from_regions_slice(batch));
                let read = Request::data(IoKind::Read, handle, *layout, list.clone(), Bytes::new());
                let read = map.rewrite_request(&read, slot, src.copy);
                let data = match client.call(RpcTarget::Server(src.server), read)? {
                    Response::Data { data } => data,
                    other => return Err(PvfsError::protocol(format!("unexpected {other:?}"))),
                };
                report.repair_bytes += data.len() as u64;
                let write = Request::data(IoKind::Write, handle, *layout, list, data);
                let write = map.rewrite_request(&write, slot, stale_t.copy);
                match client.call(RpcTarget::Server(stale_t.server), write)? {
                    Response::Written { .. } => {}
                    other => return Err(PvfsError::protocol(format!("unexpected {other:?}"))),
                }
            }
        }
    }
    Ok(report)
}

/// Do all copies of every slot currently agree? Fetches digests like
/// [`scrub_file_with_chunk`] but repairs nothing — the verification
/// half of the acceptance loop (scrub, then assert convergence).
pub fn replicas_converged(
    client: &ClusterClient,
    handle: FileHandle,
    layout: &StripeLayout,
    chunk: u64,
) -> PvfsResult<bool> {
    let map = client.endpoint().replica_map().clone();
    if !map.policy().enabled() {
        return Ok(true);
    }
    for slot in 0..layout.pcount {
        let mut reference: Option<(u64, Vec<u64>)> = None;
        for target in map.copies(layout, slot) {
            let digest = Request::StripeDigest { handle, chunk };
            let request = map.rewrite_request(&digest, slot, target.copy);
            let (size, chunks) = match client.call(RpcTarget::Server(target.server), request)? {
                Response::Digests { size, chunks, .. } => (size, chunks),
                other => return Err(PvfsError::protocol(format!("unexpected {other:?}"))),
            };
            match &reference {
                None => reference = Some((size, chunks)),
                Some((s, c)) if *s != size || *c != chunks => return Ok(false),
                Some(_) => {}
            }
        }
    }
    Ok(true)
}
