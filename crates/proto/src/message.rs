//! Request and response messages: the protocol's one `wire!` table.
//!
//! Metadata operations (`Create`/`Open`/`Close`/`Remove`) are addressed
//! to the **manager daemon**; data operations (`Read`/`Write`/
//! `ReadList`/`WriteList`/`GetLocalSize`) go directly to **I/O daemons**
//! — the manager never participates in data transfers, mirroring PVFS's
//! design for keeping the metadata server off the data path.
//!
//! Data requests carry the file's [`StripeLayout`] (PVFS I/O requests
//! carry striping metadata, §3.3) so an I/O daemon can map logical file
//! offsets onto its local file without consulting the manager.
//!
//! For writes the client sends each I/O daemon *only the bytes that
//! daemon owns*, concatenated in logical/list order; for reads each
//! daemon replies with its own bytes in the same order
//! (`pvfs_core::exec::server_share` is that convention).
//!
//! Each row of the table is one message: its variant, its fields in wire
//! order (a field's type is its wire type), and its opcode or tag — a
//! request's also its `op_name`, and `scrape` for the control scrapes.
//! The codec (`crate::codec`) is derived from it.

use crate::codec::{wire, Tagged, REQUEST_ENVELOPE_LEN};
use bytes::Bytes;
use pvfs_types::{
    FileHandle, PvfsError, Region, RegionList, RequestId, Span, StatsSnapshot, StripeLayout,
    TraceId,
};

/// A strided run of file regions: `count` blocks of `blocklen` bytes
/// starting `stride` bytes apart, the first at `base`.
///
/// This is the wire form of the paper's §5 proposal to describe regular
/// access patterns "with vector datatypes", eliminating the linear
/// relationship between region count and request count: a million-region
/// 1-D cyclic pattern is *one* 32-byte run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VectorRun {
    /// Offset of the first block.
    pub base: u64,
    /// Bytes per block.
    pub blocklen: u64,
    /// Distance between consecutive block starts. Must be at least
    /// `blocklen` when `count > 1` (no overlapping blocks).
    pub stride: u64,
    /// Number of blocks.
    pub count: u64,
}

impl VectorRun {
    /// A run describing a single contiguous region.
    pub fn contiguous(region: Region) -> VectorRun {
        VectorRun {
            base: region.offset,
            blocklen: region.len,
            stride: region.len.max(1),
            count: 1,
        }
    }

    /// Total data bytes the run selects.
    pub fn total_len(&self) -> u64 {
        self.blocklen * self.count
    }

    /// The `i`-th block as a region.
    pub fn region(&self, i: u64) -> Region {
        debug_assert!(i < self.count);
        Region::new(self.base + i * self.stride, self.blocklen)
    }

    /// Iterate the run's regions without materializing them.
    pub fn regions(&self) -> impl Iterator<Item = Region> + '_ {
        (0..self.count).map(|i| self.region(i))
    }

    /// Structural validity: nonzero block length and count, and
    /// non-overlapping blocks.
    pub fn validate(&self) -> Result<(), PvfsError> {
        if self.blocklen == 0 || self.count == 0 {
            return Err(PvfsError::invalid("vector run with zero blocklen or count"));
        }
        if self.count > 1 && self.stride < self.blocklen {
            return Err(PvfsError::invalid(format!(
                "vector run stride {} overlaps blocklen {}",
                self.stride, self.blocklen
            )));
        }
        Ok(())
    }
}

/// A request envelope: who is asking, which request this is, and the
/// operation itself.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Issuing client.
    pub client: pvfs_types::ClientId,
    /// Per-client monotonically increasing id, echoed in the response.
    pub id: RequestId,
    /// The operation.
    pub request: Request,
}

wire! {
    /// Every operation in the protocol.
    #[derive(Debug, Clone, PartialEq)]
    requests Request {
        // ---- manager operations ----
        /// Create a file with the given striping. Fails if it exists.
        Create { path: String, layout: StripeLayout } = 1 "create",
        /// Open an existing file.
        Open { path: String } = 2 "open",
        /// Close a handle.
        Close { handle: FileHandle } = 3 "close",
        /// Remove a file from the namespace (data is dropped by servers on
        /// their next request for the stale handle).
        Remove { path: String } = 4 "remove",
        /// List every path in the namespace (the manager owns the
        /// clusterwide consistent name space, §2).
        ListDir = 12 "list_dir",

        // ---- I/O daemon operations ----
        /// Size of this server's local file for `handle` (used by the client
        /// library to compute the logical file size, keeping the manager out
        /// of the data path).
        GetLocalSize { handle: FileHandle } = 5 "get_local_size",
        /// Contiguous read of a logical region; the server returns only the
        /// bytes it owns.
        Read { handle: FileHandle, layout: StripeLayout, region: Region } = 6 "read",
        /// Contiguous write of a logical region; `data` holds only the bytes
        /// this server owns, in logical order.
        Write { handle: FileHandle, layout: StripeLayout, region: Region, data: Bytes } = 7 "write",
        /// List I/O read: up to [`crate::MAX_LIST_REGIONS`] logical file
        /// regions as trailing data. The server returns its bytes of each
        /// region, region-by-region in list order.
        ReadList { handle: FileHandle, layout: StripeLayout, regions: RegionList } = 8 "read_list",
        /// List I/O write: the trailing data plus this server's bytes of
        /// each region concatenated in list order.
        WriteList {
            handle: FileHandle, layout: StripeLayout, regions: RegionList, data: Bytes
        } = 9 "write_list",
        /// Datatype I/O read (§5 future work): the file regions are the
        /// expansion of `runs`, in run order then block order. The server
        /// returns its bytes of each region exactly as for `ReadList`, but
        /// the description is O(runs), not O(regions).
        ReadVectors {
            handle: FileHandle, layout: StripeLayout, runs: Vec<VectorRun>
        } = 10 "read_vectors",
        /// Datatype I/O write; `data` is this server's share in expansion
        /// order.
        WriteVectors {
            handle: FileHandle, layout: StripeLayout, runs: Vec<VectorRun>, data: Bytes
        } = 11 "write_vectors",

        /// Durability barrier for one handle on this I/O daemon: flush the
        /// storage engine (fsync data, checkpoint the journal) and answer
        /// [`Response::Synced`] with the bytes now crash-proof. A no-op
        /// answer (`durable: 0`) when the daemon has no state for the
        /// handle or runs the memory backend.
        Sync { handle: FileHandle } = 15 "sync",
        /// Durability barrier for *every* handle on this I/O daemon;
        /// answered with [`Response::Flushed`].
        Flush = 16 "flush",

        // ---- control operations (any daemon, manager included) ----
        /// Scrape the daemon's counters, gauges and latency histograms.
        /// Answered with [`Response::Stats`]; the snapshot excludes the
        /// scrape itself so it matches an in-process snapshot taken at the
        /// same moment.
        GetStats = 13 "get_stats" scrape,
        /// Zero the daemon's counters and histograms, returning the
        /// snapshot taken just before the reset (so no sample is ever
        /// unobservable).
        ResetStats = 14 "reset_stats" scrape,
        /// Liveness probe: the cheapest possible round trip, answered with
        /// [`Response::Pong`]. Unlike stats scrapes it *is* accounted as a
        /// normal request — its measured latency is the health signal the
        /// client's failure detector feeds on, so it must travel the same
        /// queue and worker path as data traffic.
        Ping = 17 "ping",
        /// Anti-entropy digest scrape for one handle: the daemon answers
        /// [`Response::Digests`] with a 64-bit checksum (`pvfs-disk`'s, the
        /// one its journal uses) of each `chunk`-sized run of its local file. Replicas holding identical
        /// local files answer identically, so a client can find divergence
        /// between mirrors by comparing digest vectors instead of moving
        /// data. Accounted as a normal request (it reads the whole local
        /// file), unlike stats scrapes.
        StripeDigest { handle: FileHandle, chunk: u64 } = 18 "stripe_digest",
        /// Set one handle's local file on this daemon to exactly `size`
        /// bytes, discarding any tail beyond it — anti-entropy repair's
        /// tool for a stale replica that is *longer* than its repair
        /// source (it missed a truncate). Idempotent: the target size is
        /// absolute. Answered with [`Response::LocalSize`] reporting the
        /// post-truncate size.
        Truncate { handle: FileHandle, size: u64 } = 19 "truncate",
        /// Scrape every span of one trace from the daemon's flight
        /// recorder, answered with [`Response::Spans`]. Joins `GetStats`
        /// under the observer-effect guarantee: the scrape itself is never
        /// counted, traced, or allowed to perturb the recorder (reading a
        /// ring clones it).
        GetTrace { trace: TraceId } = 20 "get_trace" scrape,
    }

    /// Every reply in the protocol. Responses echo the request id in their
    /// envelope (handled by the transports).
    #[derive(Debug, Clone, PartialEq)]
    responses Response {
        /// File created.
        Created { handle: FileHandle } = 1,
        /// File opened; the client learns the striping here.
        Opened { handle: FileHandle, layout: StripeLayout } = 2,
        /// Handle closed.
        Closed = 3,
        /// File removed.
        Removed = 4,
        /// Namespace listing (sorted paths).
        Listing { paths: Vec<String> } = 9,
        /// This server's local file size.
        LocalSize { size: u64 } = 5,
        /// Read data: this server's share, concatenated in list order.
        Data { data: Bytes } = 6,
        /// Write acknowledged; `bytes` is the number of payload bytes
        /// applied.
        Written { bytes: u64 } = 7,
        /// Sync barrier done; `durable` is the handle's crash-proof byte
        /// count on this server (0 on the memory backend).
        Synced { durable: u64 } = 11,
        /// Daemon-wide flush done; `files` local files were synced.
        Flushed { files: u64 } = 12,
        /// Liveness probe answered: the daemon is alive and draining its
        /// queue; `queue_depth` is its inflight gauge at answer time (a
        /// free overload signal riding on every probe).
        Pong { queue_depth: u64 } = 13,
        /// Counters, gauges and latency histograms scraped by
        /// [`Request::GetStats`] / [`Request::ResetStats`].
        Stats(snapshot: Box<StatsSnapshot>) = 10,
        /// The spans of one trace retained by this daemon's flight
        /// recorder ([`Request::GetTrace`]), oldest first. Empty when the
        /// trace is unknown or already evicted.
        Spans(spans: Vec<Span>) = 15,
        /// Per-chunk checksums of this server's local file for one handle
        /// ([`Request::StripeDigest`]). `version` counts the write
        /// operations this daemon has applied to the handle since *it*
        /// started — a freshly restarted daemon answers 0 and is therefore
        /// never mistaken for the freshest replica by a scrub. `size` is
        /// the local file size; `chunks[i]` is the checksum of local bytes
        /// `[i * chunk, min((i + 1) * chunk, size))` — computed afresh for
        /// every scrape and only ever compared with another daemon's, so
        /// the function is not part of the wire format.
        Digests { version: u64, size: u64, chunks: Vec<u64> } = 14,
        /// The operation failed server-side.
        Error(error: PvfsError) = 8,
    }

    errors PvfsError {
        InvalidArgument(message: String) = 1,
        NoSuchFile(path: String) = 2,
        AlreadyExists(path: String) = 3,
        BadHandle(handle: u64) = 4,
        Protocol(message: String) = 5,
        Storage(message: String) = 6,
        Transport(message: String) = 7,
        NoSuchServer(server: u32) = 8,
        Timeout(message: String) = 9,
        FrameTooLarge { len: u64, max: u64 } = 10,
        Config(message: String) = 11,
        Unavailable { server: u32, retry_after_ms: u64 } = 12,
        Overloaded { server: u32, queue_depth: u64 } = 13,
    }
}

impl Request {
    /// True for operations handled by the manager daemon.
    pub fn is_metadata(&self) -> bool {
        matches!(
            self,
            Request::Create { .. }
                | Request::Open { .. }
                | Request::Close { .. }
                | Request::Remove { .. }
                | Request::ListDir
        )
    }

    /// True when replaying this request is harmless even if an earlier
    /// attempt already executed server-side: reads and size queries
    /// have no side effects, and data writes are idempotent per region
    /// (re-applying the same bytes to the same regions is a no-op).
    /// Only the namespace mutations — `Create`, `Remove`, `Close` —
    /// change their answer on replay, so the retry machinery
    /// (`pvfs-net`) refuses to resend exactly those.
    pub fn is_idempotent(&self) -> bool {
        !matches!(
            self,
            Request::Create { .. } | Request::Remove { .. } | Request::Close { .. }
        )
    }

    /// True for write-path operations (used by cost accounting).
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Request::Write { .. } | Request::WriteList { .. } | Request::WriteVectors { .. }
        )
    }

    /// Number of file regions this request describes (1 for contiguous,
    /// the full expansion for vector requests).
    pub fn region_count(&self) -> usize {
        match self {
            Request::Read { .. } | Request::Write { .. } => 1,
            Request::ReadList { regions, .. } | Request::WriteList { regions, .. } => {
                regions.count()
            }
            Request::ReadVectors { runs, .. } | Request::WriteVectors { runs, .. } => {
                runs.iter().map(|r| r.count as usize).sum()
            }
            _ => 0,
        }
    }

    /// Bulk payload bytes travelling *with* the request (write data).
    pub fn bulk_len(&self) -> u64 {
        match self {
            Request::Write { data, .. }
            | Request::WriteList { data, .. }
            | Request::WriteVectors { data, .. } => data.len() as u64,
            _ => 0,
        }
    }

    /// The bulk payload itself, the request consumed: what a client
    /// takes back, once the op is over, to gather its next payload into.
    pub fn into_bulk(self) -> Option<Bytes> {
        match self {
            Request::Write { data, .. }
            | Request::WriteList { data, .. }
            | Request::WriteVectors { data, .. } => Some(data),
            _ => None,
        }
    }

    /// A list request's region list, the request consumed: what a daemon
    /// takes back, once the request is served, to decode its next list
    /// into.
    pub fn into_regions(self) -> Option<RegionList> {
        match self {
            Request::ReadList { regions, .. } | Request::WriteList { regions, .. } => Some(regions),
            _ => None,
        }
    }

    /// Size in bytes of the encoded *control* part of this request —
    /// everything except the bulk payload: the envelope and each field's
    /// wire length, so cost models do not have to encode million-request
    /// workloads; a codec test pins it to `encode_message`'s actual output.
    pub fn control_wire_size(&self) -> u64 {
        REQUEST_ENVELOPE_LEN + self.fields_len()
    }

    /// True for the control scrapes excluded from *all* observability
    /// accounting (wire counters, queue/service histograms, traces): the
    /// rows marked `scrape` — `GetStats`, `ResetStats`, and `GetTrace`.
    /// The observer must not perturb the observed — a monitoring loop
    /// polling every daemon must leave the numbers it reads unchanged.
    /// `Ping` is deliberately *not* a scrape: its measured latency is the
    /// health signal, so it travels the accounted path.
    pub fn is_control_scrape(&self) -> bool {
        Request::is_scrape_op(self.tag())
    }

    /// The class of this request: metadata control traffic, reads, or
    /// writes. Stats scrapes ride with metadata — they are small
    /// control frames with the same cost shape.
    pub fn op_class(&self) -> OpClass {
        if self.is_write() {
            OpClass::Write
        } else if matches!(
            self,
            Request::Read { .. } | Request::ReadList { .. } | Request::ReadVectors { .. }
        ) {
            OpClass::Read
        } else {
            OpClass::Meta
        }
    }
}

/// Coarse request classes: the paper's methodology distinguishes
/// exactly control traffic from data reads and writes, and the request
/// pipeline routes by the same split (a replicated write fans out to a
/// quorum, a read picks one copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Namespace + control operations (manager ops, size and stats
    /// queries).
    Meta,
    /// Data reads (`Read`/`ReadList`/`ReadVectors`).
    Read,
    /// Data writes (`Write`/`WriteList`/`WriteVectors`).
    Write,
}

impl Response {
    /// Bulk payload bytes travelling with the response (read data).
    pub fn bulk_len(&self) -> u64 {
        match self {
            Response::Data { data } => data.len() as u64,
            _ => 0,
        }
    }

    /// Convert an error response into `Err`, anything else into `Ok`.
    pub fn into_result(self) -> Result<Response, PvfsError> {
        match self {
            Response::Error(e) => Err(e),
            other => Ok(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvfs_types::ClientId;

    fn layout() -> StripeLayout {
        StripeLayout::new(0, 4, 10).unwrap()
    }

    #[test]
    fn metadata_classification() {
        assert!(Request::Open { path: "/a".into() }.is_metadata());
        assert!(Request::Close {
            handle: FileHandle(1)
        }
        .is_metadata());
        assert!(!Request::GetLocalSize {
            handle: FileHandle(1)
        }
        .is_metadata());
        assert!(!Request::Read {
            handle: FileHandle(1),
            layout: layout(),
            region: Region::new(0, 10)
        }
        .is_metadata());
    }

    #[test]
    fn write_classification_and_bulk() {
        let w = Request::Write {
            handle: FileHandle(1),
            layout: layout(),
            region: Region::new(0, 4),
            data: Bytes::from(vec![0u8; 4]),
        };
        assert!(w.is_write());
        assert_eq!(w.bulk_len(), 4);
        let r = Request::Read {
            handle: FileHandle(1),
            layout: layout(),
            region: Region::new(0, 4),
        };
        assert!(!r.is_write());
        assert_eq!(r.bulk_len(), 0);
    }

    #[test]
    fn region_counts() {
        let regions = RegionList::from_pairs([(0, 4), (20, 4), (40, 4)]).unwrap();
        let rl = Request::ReadList {
            handle: FileHandle(1),
            layout: layout(),
            regions,
        };
        assert_eq!(rl.region_count(), 3);
        assert_eq!(
            Request::Read {
                handle: FileHandle(1),
                layout: layout(),
                region: Region::new(0, 1)
            }
            .region_count(),
            1
        );
        assert_eq!(Request::Open { path: "/x".into() }.region_count(), 0);
    }

    #[test]
    fn response_result_conversion() {
        assert!(Response::Closed.into_result().is_ok());
        let e = Response::Error(PvfsError::BadHandle(3)).into_result();
        assert_eq!(e, Err(PvfsError::BadHandle(3)));
    }

    #[test]
    fn response_bulk_len() {
        assert_eq!(
            Response::Data {
                data: Bytes::from(vec![1, 2, 3])
            }
            .bulk_len(),
            3
        );
        assert_eq!(Response::Written { bytes: 10 }.bulk_len(), 0);
    }

    #[test]
    fn op_names_are_stable() {
        assert_eq!(Request::Open { path: "/x".into() }.op_name(), "open");
        assert_eq!(
            Request::WriteList {
                handle: FileHandle(0),
                layout: layout(),
                regions: RegionList::contiguous(0, 1),
                data: Bytes::new()
            }
            .op_name(),
            "write_list"
        );
    }

    #[test]
    fn stats_ops_are_classified_as_control() {
        for r in [Request::GetStats, Request::ResetStats] {
            assert!(!r.is_metadata(), "{:?} is servable by I/O daemons", r);
            assert!(r.is_idempotent(), "{:?} is safe to replay", r);
            assert!(!r.is_write());
            assert_eq!(r.region_count(), 0);
            assert_eq!(r.bulk_len(), 0);
            assert_eq!(r.op_class(), OpClass::Meta);
        }
        assert_eq!(Request::GetStats.op_name(), "get_stats");
        assert_eq!(Request::ResetStats.op_name(), "reset_stats");
    }

    #[test]
    fn trace_scrape_is_an_unaccounted_control_op() {
        let t = Request::GetTrace { trace: TraceId(5) };
        assert!(!t.is_metadata(), "any daemon serves trace scrapes");
        assert!(t.is_idempotent(), "scrapes are safe to replay");
        assert!(!t.is_write());
        assert_eq!(t.region_count(), 0);
        assert_eq!(t.bulk_len(), 0);
        assert_eq!(t.op_class(), OpClass::Meta);
        assert_eq!(t.op_name(), "get_trace");
        assert_eq!(Response::Spans(Vec::new()).bulk_len(), 0);
    }

    #[test]
    fn control_scrape_set_is_exactly_the_unaccounted_ops() {
        assert!(Request::GetStats.is_control_scrape());
        assert!(Request::ResetStats.is_control_scrape());
        assert!(Request::GetTrace { trace: TraceId(1) }.is_control_scrape());
        // Ping is accounted on purpose: its latency is the health signal.
        assert!(!Request::Ping.is_control_scrape());
        assert!(!Request::Flush.is_control_scrape());
        assert!(!Request::ListDir.is_control_scrape());
    }

    #[test]
    fn ping_is_an_idempotent_daemon_control_op() {
        let p = Request::Ping;
        assert!(!p.is_metadata(), "pings are servable by I/O daemons");
        assert!(p.is_idempotent(), "probes are safe to replay");
        assert!(!p.is_write());
        assert_eq!(p.region_count(), 0);
        assert_eq!(p.bulk_len(), 0);
        assert_eq!(p.op_class(), OpClass::Meta);
        assert_eq!(p.op_name(), "ping");
        assert_eq!(Response::Pong { queue_depth: 3 }.bulk_len(), 0);
    }

    #[test]
    fn stripe_digest_is_an_idempotent_daemon_control_op() {
        let d = Request::StripeDigest {
            handle: FileHandle(7),
            chunk: 16 * 1024,
        };
        assert!(!d.is_metadata(), "digests are served by I/O daemons");
        assert!(d.is_idempotent(), "digest scrapes are safe to replay");
        assert!(!d.is_write());
        assert_eq!(d.region_count(), 0);
        assert_eq!(d.bulk_len(), 0);
        assert_eq!(d.op_class(), OpClass::Meta);
        assert_eq!(d.op_name(), "stripe_digest");
        assert_eq!(
            Response::Digests {
                version: 3,
                size: 64,
                chunks: vec![1, 2, 3, 4]
            }
            .bulk_len(),
            0
        );
    }

    #[test]
    fn durability_ops_are_idempotent_daemon_control() {
        let sync = Request::Sync {
            handle: FileHandle(9),
        };
        for r in [sync, Request::Flush] {
            assert!(!r.is_metadata(), "{:?} is servable by I/O daemons", r);
            assert!(r.is_idempotent(), "{:?} is safe to replay", r);
            assert!(!r.is_write());
            assert_eq!(r.region_count(), 0);
            assert_eq!(r.bulk_len(), 0);
            assert_eq!(r.op_class(), OpClass::Meta);
        }
        assert_eq!(
            Request::Sync {
                handle: FileHandle(9)
            }
            .op_name(),
            "sync"
        );
        assert_eq!(Request::Flush.op_name(), "flush");
    }

    #[test]
    fn op_class_partitions_the_protocol() {
        let h = FileHandle(1);
        assert_eq!(
            Request::Open { path: "/x".into() }.op_class(),
            OpClass::Meta
        );
        assert_eq!(
            Request::GetLocalSize { handle: h }.op_class(),
            OpClass::Meta
        );
        assert_eq!(
            Request::Read {
                handle: h,
                layout: layout(),
                region: Region::new(0, 4)
            }
            .op_class(),
            OpClass::Read
        );
        assert_eq!(
            Request::WriteList {
                handle: h,
                layout: layout(),
                regions: RegionList::contiguous(0, 1),
                data: Bytes::new()
            }
            .op_class(),
            OpClass::Write
        );
    }

    #[test]
    fn message_envelope_carries_ids() {
        let m = Message {
            client: ClientId(3),
            id: RequestId(9),
            request: Request::Open { path: "/f".into() },
        };
        assert_eq!(m.client, ClientId(3));
        assert_eq!(m.id, RequestId(9));
    }
}
