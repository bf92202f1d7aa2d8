//! r-way stripe mirroring for PVFS.
//!
//! The paper's PVFS deliberately has a single owner per stripe: the
//! manager stays out of the data path, there are no locks, and when an
//! I/O daemon dies its stripes are simply gone until it returns. This
//! crate adds the placement layer that relaxes that: every stripe slot
//! of a file maps to an ordered list of `r` daemons — the primary
//! (today's owner) followed by `r-1` mirrors rotated across the
//! cluster — so the client can fan writes out to all copies, read from
//! the primary (or, while its circuit breaker is open, the next copy in
//! order), and repair divergence by comparing
//! checksummed [`StripeDigest`](pvfs_proto::Request::StripeDigest)
//! replies.
//!
//! Three ideas keep the rest of the system unchanged:
//!
//! * **Placement is pure arithmetic.** Copy `j` of slot `s` lives on
//!   daemon `(base + s + j) mod n` — no placement state, no manager
//!   involvement, and `r = 1` degenerates to exactly today's layout.
//! * **Mirrors are addressed with rewritten layouts.** A daemon locates
//!   bytes via its *slot* in the request's layout, and slot packing is
//!   base-independent: rewriting the base to `mirror - s` (wrapping)
//!   makes the mirror compute the same slot, the same local offsets,
//!   and therefore store byte-identical local files — which is what
//!   makes digests comparable across copies.
//! * **Copies get derived handles.** One daemon can be the primary for
//!   slot `s` and a mirror for slot `s'` of the same file; tagging copy
//!   `j` with `handle | j << 56` keeps the two local files apart.
//!
//! `PVFS_REPLICAS=r` turns replication on (default 1); every copy must
//! acknowledge a write before it succeeds, unless a caller's
//! [`ReplicaPolicy`] asks for a [`WriteQuorum::Majority`].

use pvfs_proto::Request;
use pvfs_types::{FileHandle, PvfsError, PvfsResult, Region, ServerId, StripeLayout};

/// Bit position of the copy index inside a derived replica handle.
/// Manager-issued handles are sequential and small; the top byte is
/// free to carry the copy number.
pub const REPLICA_HANDLE_SHIFT: u32 = 56;

/// Highest copy index a derived handle can carry (and thus the hard
/// ceiling on `PVFS_REPLICAS`).
pub const MAX_REPLICAS: u32 = 255;

/// The handle copy `j` of a file stores its bytes under. Copy 0 is the
/// primary and keeps the manager-issued handle unchanged.
pub fn replica_handle(handle: FileHandle, copy: u32) -> FileHandle {
    debug_assert!(copy <= MAX_REPLICAS);
    debug_assert!(
        handle.0 >> REPLICA_HANDLE_SHIFT == 0,
        "handle already tagged"
    );
    FileHandle(handle.0 | (copy as u64) << REPLICA_HANDLE_SHIFT)
}

/// Strip the copy tag off a derived handle.
pub fn primary_handle(handle: FileHandle) -> FileHandle {
    FileHandle(handle.0 & ((1u64 << REPLICA_HANDLE_SHIFT) - 1))
}

/// Which copy a (possibly derived) handle addresses.
pub fn handle_copy(handle: FileHandle) -> u32 {
    (handle.0 >> REPLICA_HANDLE_SHIFT) as u32
}

/// How many of the `r` copies must acknowledge a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteQuorum {
    /// Every copy (default): a successful write is readable from any
    /// replica with no repair needed.
    All,
    /// `r/2 + 1` copies: writes survive minority daemon loss at r >= 3;
    /// stragglers are healed by scrub.
    Majority,
}

/// Replication parameters: copy count and write quorum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaPolicy {
    /// Copies per stripe slot, primary included. 1 = no replication.
    pub replicas: u32,
    /// Write acknowledgement rule.
    pub quorum: WriteQuorum,
}

impl ReplicaPolicy {
    /// Validated constructor: `1 <= replicas <= n_servers`.
    pub fn new(replicas: u32, quorum: WriteQuorum, n_servers: u32) -> PvfsResult<ReplicaPolicy> {
        check_replicas(replicas, n_servers, &replicas.to_string())?;
        Ok(ReplicaPolicy { replicas, quorum })
    }

    /// Read `PVFS_REPLICAS`, validated against the cluster size, with
    /// every copy acknowledging a write. Unset means "unreplicated".
    pub fn from_env(n_servers: u32) -> PvfsResult<ReplicaPolicy> {
        let replicas = match pvfs_types::env::lookup("PVFS_REPLICAS") {
            Some(v) => parse_replicas(&v, n_servers)?,
            None => 1,
        };
        let quorum = WriteQuorum::All;
        Ok(ReplicaPolicy { replicas, quorum })
    }

    /// Whether any mirroring is configured.
    pub fn enabled(&self) -> bool {
        self.replicas > 1
    }

    /// Copies that must acknowledge a write for it to succeed.
    pub fn required(&self) -> u32 {
        match self.quorum {
            WriteQuorum::All => self.replicas,
            WriteQuorum::Majority => self.replicas / 2 + 1,
        }
    }
}

/// Parse `PVFS_REPLICAS`: an integer in `1..=min(n_servers, 255)`.
pub fn parse_replicas(s: &str, n_servers: u32) -> PvfsResult<u32> {
    let r: u32 = s
        .trim()
        .parse()
        .map_err(|_| PvfsError::config(format!("PVFS_REPLICAS: expected an integer, got {s:?}")))?;
    check_replicas(r, n_servers, s)?;
    Ok(r)
}

fn check_replicas(r: u32, n_servers: u32, s: &str) -> PvfsResult<()> {
    if r == 0 {
        return Err(PvfsError::config(format!(
            "PVFS_REPLICAS must be at least 1, got {s:?}"
        )));
    }
    if r > MAX_REPLICAS {
        return Err(PvfsError::config(format!(
            "PVFS_REPLICAS cannot exceed {MAX_REPLICAS}, got {s:?}"
        )));
    }
    if r > n_servers {
        return Err(PvfsError::config(format!(
            "PVFS_REPLICAS={r} exceeds the {n_servers} I/O daemon(s) available"
        )));
    }
    Ok(())
}

/// One copy of one stripe slot: where it lives and how to address it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaTarget {
    /// Copy index, 0 = primary.
    pub copy: u32,
    /// Daemon holding this copy.
    pub server: ServerId,
}

/// The placement map: `(layout, slot) -> ordered copies`, plus the
/// request rewriting that addresses a specific copy.
#[derive(Debug, Clone)]
pub struct ReplicaMap {
    n_servers: u32,
    policy: ReplicaPolicy,
}

impl ReplicaMap {
    /// A map over `n_servers` daemons.
    pub fn new(n_servers: u32, policy: ReplicaPolicy) -> ReplicaMap {
        debug_assert!(policy.replicas >= 1 && policy.replicas <= n_servers.max(1));
        ReplicaMap { n_servers, policy }
    }

    /// The active policy.
    pub fn policy(&self) -> ReplicaPolicy {
        self.policy
    }

    /// Copies per slot.
    pub fn replicas(&self) -> u32 {
        self.policy.replicas
    }

    /// Daemon count this map rotates over.
    pub fn n_servers(&self) -> u32 {
        self.n_servers
    }

    /// The daemon holding copy `copy` of `slot`: rotate right from the
    /// primary, wrapping around the cluster.
    pub fn copy_server(&self, layout: &StripeLayout, slot: u32, copy: u32) -> ServerId {
        debug_assert!(slot < layout.pcount);
        debug_assert!(copy < self.policy.replicas);
        let n = self.n_servers.max(1) as u64;
        ServerId(((layout.base as u64 + slot as u64 + copy as u64) % n) as u32)
    }

    /// All copies of `slot`, primary first.
    pub fn copies(&self, layout: &StripeLayout, slot: u32) -> Vec<ReplicaTarget> {
        (0..self.policy.replicas)
            .map(|copy| ReplicaTarget {
                copy,
                server: self.copy_server(layout, slot, copy),
            })
            .collect()
    }

    /// The layout that addresses copy `copy` of `slot`: same geometry,
    /// base rewritten (wrapping) so the copy's daemon recovers the same
    /// slot — and therefore the same local offsets — as the primary.
    /// Copy 0 rewrites to the original layout.
    pub fn rewrite_layout(&self, layout: &StripeLayout, slot: u32, copy: u32) -> StripeLayout {
        let server = self.copy_server(layout, slot, copy);
        StripeLayout {
            base: server.0.wrapping_sub(slot),
            pcount: layout.pcount,
            ssize: layout.ssize,
        }
    }

    /// Rewrite a request so it addresses copy `copy` of `slot`: the
    /// layout's base is shifted to the copy's daemon and the handle is
    /// tagged with the copy index. Requests without placement state
    /// (ping, stats, ...) pass through unchanged.
    pub fn rewrite_request(&self, request: &Request, slot: u32, copy: u32) -> Request {
        let mut r = request.clone();
        if let Some((handle, layout)) = r.file_mut() {
            *handle = replica_handle(*handle, copy);
            if let Some(layout) = layout {
                *layout = self.rewrite_layout(layout, slot, copy);
            }
        }
        r
    }
}

/// Map a span of a copy's *local* file back to the logical regions it
/// holds. Local bytes within one stripe piece are logically contiguous,
/// so the span decomposes stripe piece by stripe piece. This is the
/// repair path: a divergent digest chunk names a local span, and the
/// regions returned here are what scrub reads from the fresh copy and
/// rewrites to the stale one.
pub fn local_span_logical_regions(layout: &StripeLayout, slot: u32, local: Region) -> Vec<Region> {
    let mut out = Vec::new();
    let mut cursor = local.offset;
    let end = local.end();
    while cursor < end {
        let piece_end = (cursor / layout.ssize + 1) * layout.ssize;
        let seg_end = piece_end.min(end);
        out.push(Region::new(
            layout.to_logical(slot, cursor),
            seg_end - cursor,
        ));
        cursor = seg_end;
    }
    out
}

/// Compare one slot's digest replies and pick the repair source:
/// the copy with the highest `(version, size)` — a freshly restarted
/// daemon answers version 0 and is never chosen over a live peer with
/// the same bytes count. Returns `None` when every reachable copy
/// already agrees.
pub fn pick_repair_source(replies: &[Option<DigestReply>]) -> Option<usize> {
    let mut best: Option<usize> = None;
    let mut divergent = false;
    let mut reference: Option<&DigestReply> = None;
    for (i, reply) in replies.iter().enumerate() {
        let Some(reply) = reply else { continue };
        match reference {
            None => reference = Some(reply),
            Some(r) if r.size != reply.size || r.chunks != reply.chunks => divergent = true,
            Some(_) => {}
        }
        let better = match best {
            None => true,
            Some(b) => {
                let cur = replies[b].as_ref().expect("best is a reachable reply");
                (reply.version, reply.size) > (cur.version, cur.size)
            }
        };
        if better {
            best = Some(i);
        }
    }
    if divergent {
        best
    } else {
        None
    }
}

/// One copy's answer to a `StripeDigest` probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestReply {
    /// Mutations applied by that daemon since it (re)started.
    pub version: u64,
    /// The copy's local file size.
    pub size: u64,
    /// The daemon's checksum of each `chunk`-byte local piece
    /// (comparable between daemons of one build, never stored).
    pub chunks: Vec<u64>,
}

/// The local spans where `stale` disagrees with `source`, given the
/// digest chunk size. Shorter copies count every missing trailing chunk
/// as divergent; a stale copy *longer* than the source is reported as
/// needing a truncate via the boolean.
pub fn divergent_spans(
    source: &DigestReply,
    stale: &DigestReply,
    chunk: u64,
) -> (Vec<Region>, bool) {
    let mut spans = Vec::new();
    for (i, digest) in source.chunks.iter().enumerate() {
        if stale.chunks.get(i) != Some(digest) {
            let offset = i as u64 * chunk;
            let len = chunk.min(source.size - offset);
            spans.push(Region::new(offset, len));
        }
    }
    (spans, stale.size > source.size)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config_err(e: PvfsError) -> String {
        match e {
            PvfsError::Config(msg) => msg,
            other => panic!("expected PvfsError::Config, got {other:?}"),
        }
    }

    fn map(n: u32, r: u32) -> ReplicaMap {
        ReplicaMap::new(n, ReplicaPolicy::new(r, WriteQuorum::All, n).unwrap())
    }

    #[test]
    fn rotated_placement_primary_first() {
        let m = map(4, 2);
        let l = StripeLayout::new(0, 4, 16).unwrap();
        assert_eq!(
            m.copies(&l, 0),
            vec![
                ReplicaTarget {
                    copy: 0,
                    server: ServerId(0)
                },
                ReplicaTarget {
                    copy: 1,
                    server: ServerId(1)
                },
            ]
        );
        // The last slot's mirror wraps around the cluster.
        assert_eq!(m.copies(&l, 3)[1].server, ServerId(0));
        // r=1 degenerates to the existing single-owner placement.
        let single = map(4, 1);
        for slot in 0..4 {
            assert_eq!(single.copies(&l, slot).len(), 1);
            assert_eq!(single.copies(&l, slot)[0].server, l.server_at_slot(slot));
        }
    }

    #[test]
    fn copies_of_one_slot_are_distinct_daemons() {
        for n in 1..=6u32 {
            for r in 1..=n {
                let m = map(n, r);
                let l = StripeLayout::new(0, n, 16).unwrap();
                for slot in 0..n {
                    let servers: Vec<_> = m.copies(&l, slot).iter().map(|t| t.server).collect();
                    let mut dedup = servers.clone();
                    dedup.sort();
                    dedup.dedup();
                    assert_eq!(dedup.len(), servers.len(), "n={n} r={r} slot={slot}");
                }
            }
        }
    }

    #[test]
    fn rewritten_layout_recovers_the_same_slot_and_local_offsets() {
        let m = map(4, 3);
        let l = StripeLayout::new(0, 4, 10).unwrap();
        for slot in 0..4 {
            for copy in 0..3 {
                let rl = m.rewrite_layout(&l, slot, copy);
                let server = m.copy_server(&l, slot, copy);
                // The copy's daemon recovers the same slot...
                assert_eq!(server.0.wrapping_sub(rl.base), slot);
                assert_eq!(rl.server_at_slot(slot), server);
                // ...and the same local offsets for every logical byte
                // the slot owns.
                for off in [0u64, 5, 45, 77, 123] {
                    if l.slot_of(off) == slot {
                        assert_eq!(rl.to_local(off).1, l.to_local(off).1);
                    }
                }
            }
        }
        // Copy 0 is the identity rewrite.
        assert_eq!(m.rewrite_layout(&l, 2, 0), l);
    }

    #[test]
    fn rewrite_request_tags_handle_and_shifts_layout() {
        let m = map(4, 2);
        let l = StripeLayout::new(0, 4, 16).unwrap();
        let h = FileHandle(7);
        let req = Request::ReadList {
            handle: h,
            layout: l,
            regions: pvfs_types::RegionList::from_regions(vec![Region::new(0, 8)]).unwrap(),
        };
        let rewritten = m.rewrite_request(&req, 1, 1);
        match rewritten {
            Request::ReadList { handle, layout, .. } => {
                assert_eq!(handle, replica_handle(h, 1));
                assert_eq!(primary_handle(handle), h);
                assert_eq!(handle_copy(handle), 1);
                assert_eq!(layout.server_at_slot(1), ServerId(2));
            }
            other => panic!("variant changed: {other:?}"),
        }
        // Copy 0 is untouched; placement-free requests pass through.
        assert_eq!(m.rewrite_request(&req, 1, 0), req);
        assert_eq!(m.rewrite_request(&Request::Ping, 1, 1), Request::Ping);
    }

    #[test]
    fn quorum_required_counts() {
        let p = |r, q| ReplicaPolicy::new(r, q, 8).unwrap().required();
        assert_eq!(p(1, WriteQuorum::All), 1);
        assert_eq!(p(2, WriteQuorum::All), 2);
        assert_eq!(p(2, WriteQuorum::Majority), 2); // majority of 2 is 2
        assert_eq!(p(3, WriteQuorum::Majority), 2);
        assert_eq!(p(5, WriteQuorum::Majority), 3);
    }

    #[test]
    fn parse_rejects_zero_empty_junk_and_oversubscription() {
        // A typed PvfsError::Config for every malformed setting.
        for bad in ["0", "", " ", "two", "-1", "1.5"] {
            let msg = config_err(parse_replicas(bad, 4).unwrap_err());
            assert!(msg.contains("PVFS_REPLICAS"), "{msg}");
        }
        let msg = config_err(parse_replicas("5", 4).unwrap_err());
        assert!(msg.contains("exceeds the 4"), "{msg}");
        let msg = config_err(parse_replicas("9999", 4).unwrap_err());
        assert!(msg.contains("PVFS_REPLICAS"), "{msg}");
        // The happy path parses.
        assert_eq!(parse_replicas(" 3 ", 4).unwrap(), 3);
        assert!(ReplicaPolicy::new(0, WriteQuorum::All, 4).is_err());
        assert!(ReplicaPolicy::new(5, WriteQuorum::All, 4).is_err());
    }

    #[test]
    fn local_spans_map_back_to_logical_regions() {
        let l = StripeLayout::new(0, 4, 10).unwrap();
        // Slot 1's local bytes [0,10) are logical [10,20); local
        // [10,20) are logical [50,60).
        assert_eq!(
            local_span_logical_regions(&l, 1, Region::new(0, 10)),
            vec![Region::new(10, 10)]
        );
        // A span crossing a local stripe boundary splits into one
        // region per stripe piece.
        assert_eq!(
            local_span_logical_regions(&l, 1, Region::new(5, 10)),
            vec![Region::new(15, 5), Region::new(50, 5)]
        );
        // Every byte maps back through to_local consistently.
        for r in local_span_logical_regions(&l, 2, Region::new(3, 24)) {
            for off in r.offset..r.end() {
                assert_eq!(l.slot_of(off), 2);
            }
        }
    }

    #[test]
    fn repair_source_prefers_version_then_size_and_skips_agreement() {
        let d = |version, size, chunks: Vec<u64>| {
            Some(DigestReply {
                version,
                size,
                chunks,
            })
        };
        // Agreement (including with unreachable copies): no repair.
        assert_eq!(
            pick_repair_source(&[d(5, 10, vec![1]), d(0, 10, vec![1])]),
            None
        );
        assert_eq!(pick_repair_source(&[None, d(1, 10, vec![1])]), None);
        assert_eq!(pick_repair_source(&[None, None]), None);
        // Divergence: the higher write version wins even with equal
        // sizes; a restarted daemon (version 0) is never the source.
        assert_eq!(
            pick_repair_source(&[d(0, 10, vec![1]), d(3, 10, vec![2])]),
            Some(1)
        );
        // Equal versions: the longer copy wins (the shorter one missed
        // a tail write).
        assert_eq!(
            pick_repair_source(&[d(2, 30, vec![1, 2]), d(2, 10, vec![1])]),
            Some(0)
        );
    }

    #[test]
    fn divergent_spans_cover_mismatches_and_missing_tails() {
        let src = DigestReply {
            version: 4,
            size: 25,
            chunks: vec![10, 20, 30],
        };
        // Chunk 1 differs; chunk 2 is missing entirely on the stale
        // copy (and is the short 5-byte tail).
        let stale = DigestReply {
            version: 0,
            size: 20,
            chunks: vec![10, 99],
        };
        let (spans, truncate) = divergent_spans(&src, &stale, 10);
        assert_eq!(spans, vec![Region::new(10, 10), Region::new(20, 5)]);
        assert!(!truncate);
        // A stale copy longer than the source needs a truncate.
        let long = DigestReply {
            version: 0,
            size: 40,
            chunks: vec![10, 20, 30, 40],
        };
        let (spans, truncate) = divergent_spans(&src, &long, 10);
        assert_eq!(spans, vec![]);
        assert!(truncate);
    }
}
