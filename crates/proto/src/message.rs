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
//! daemon owns*, concatenated in wire order; for reads each daemon
//! replies with its own bytes in the same order ([`ShapeRef::on_slot`]
//! is that convention).
//!
//! Each row of the table is one message: its variant, its fields in wire
//! order (a field's type is its wire type), and its opcode or tag — a
//! request's also its `op_name`, and `scrape` for the control scrapes.
//! The codec (`crate::codec`) is derived from it.

use crate::codec::{wire, Tagged, REQUEST_ENVELOPE_LEN};
use bytes::Bytes;
use pvfs_types::{
    FileHandle, PvfsError, Region, RegionList, RequestId, Span, StatsSnapshot, StripeLayout,
    StripeSegment, TraceId,
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

    /// Structural validity: nonzero block length and count,
    /// non-overlapping blocks, and a last block that ends inside `u64`.
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
        let last = (self.count - 1).checked_mul(self.stride);
        let end = last.and_then(|at| at.checked_add(self.base)?.checked_add(self.blocklen));
        if end.is_none() {
            return Err(PvfsError::invalid(format!(
                "vector run of {} blocks from {} ends past u64::MAX",
                self.count, self.base
            )));
        }
        Ok(())
    }
}

/// Which way a data request's bytes go.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// File → memory.
    Read,
    /// Memory → file.
    Write,
}

/// The file regions of a data request, in the shape it carries them:
/// one contiguous region, the paper's trailing (offset, length) list, or
/// Datatype I/O's vector runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Shape {
    /// `Read` / `Write`.
    Contiguous(Region),
    /// `ReadList` / `WriteList`.
    List(RegionList),
    /// `ReadVectors` / `WriteVectors`.
    Vectors(Vec<VectorRun>),
}

impl Shape {
    /// The shape, borrowed.
    pub fn view(&self) -> ShapeRef<'_> {
        match self {
            Shape::Contiguous(region) => ShapeRef::Contiguous(*region),
            Shape::List(regions) => ShapeRef::List(regions),
            Shape::Vectors(runs) => ShapeRef::Vectors(runs),
        }
    }
}

/// A [`Shape`] borrowed from whoever holds it: a request or a plan's op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShapeRef<'a> {
    /// One contiguous region.
    Contiguous(Region),
    /// A region list.
    List(&'a RegionList),
    /// Vector runs.
    Vectors(&'a [VectorRun]),
}

impl<'a> ShapeRef<'a> {
    /// The file regions in wire order — a list's in list order, runs'
    /// run by run, block by block — without materializing them.
    pub fn regions(self) -> impl Iterator<Item = Region> + 'a {
        let (one, list, runs): (_, &'a [Region], &'a [VectorRun]) = match self {
            ShapeRef::Contiguous(region) => (Some(region), &[], &[]),
            ShapeRef::List(regions) => (None, regions.regions(), &[]),
            ShapeRef::Vectors(runs) => (None, &[], runs),
        };
        let blocks = runs.iter().flat_map(VectorRun::regions);
        one.into_iter().chain(list.iter().copied()).chain(blocks)
    }

    /// How many file regions the shape names (saturating).
    pub fn count(self) -> u64 {
        match self {
            ShapeRef::Contiguous(_) => 1,
            ShapeRef::List(regions) => regions.count() as u64,
            ShapeRef::Vectors(runs) => runs.iter().fold(0, |n, run| n.saturating_add(run.count)),
        }
    }

    /// The limits a daemon holds a shape that came to it to: a list's
    /// ([`check_list`](crate::check_list)), each run's
    /// ([`VectorRun::validate`]).
    pub fn check(self) -> Result<(), PvfsError> {
        match self {
            ShapeRef::Contiguous(_) => Ok(()),
            ShapeRef::List(regions) => crate::check_list(regions),
            ShapeRef::Vectors(runs) => runs.iter().try_for_each(VectorRun::validate),
        }
    }

    /// What stripe slot `slot` of `layout` holds of the regions: `(bytes,
    /// regions it holds any byte of)`, or `None` once the bytes pass
    /// `cap`. A region costs O(1) ([`StripeLayout::bytes_on_slot`]); the
    /// blocks of a vector run are summed one by one.
    pub fn share(self, layout: &StripeLayout, slot: u32, cap: u64) -> Option<(u64, usize)> {
        self.regions().try_fold((0u64, 0), |(bytes, held), region| {
            let on_slot = layout.bytes_on_slot(region, slot);
            let bytes = bytes.checked_add(on_slot).filter(|&bytes| bytes <= cap)?;
            Some((bytes, held + usize::from(on_slot > 0)))
        })
    }

    /// The stripe segments slot `slot` of `layout` holds of the regions,
    /// in wire order: region by region, each region's segments on the
    /// slot in logical order ([`StripeLayout::segments_on`]). This is the
    /// share convention of list I/O (§3.3): the client sends the whole
    /// list to each server it touches and each extracts its own pieces,
    /// so a write's payload to the slot's server is these segments'
    /// bytes back to back, and so is a read's reply.
    pub fn on_slot(
        self,
        layout: &StripeLayout,
        slot: u32,
    ) -> impl Iterator<Item = StripeSegment> + 'a {
        let layout = *layout;
        self.regions()
            .flat_map(move |region| layout.segments_on(region, slot))
    }

    /// [`on_slot`](Self::on_slot) as `(local offset, length)` runs of the
    /// slot's local file. A slot packs its stripes back to back, so what
    /// it holds of one region is one run — one lseek and one read or
    /// write, as the PVFS iod does. Two regions' runs are never merged:
    /// the simulator's `LocalFile` charges one access a run.
    pub fn local_runs(
        self,
        layout: &StripeLayout,
        slot: u32,
    ) -> impl Iterator<Item = (u64, usize)> + 'a {
        let layout = *layout;
        self.regions().filter_map(move |region| {
            let first = layout.segments_on(region, slot).next()?;
            Some((
                first.local_offset,
                layout.bytes_on_slot(region, slot) as usize,
            ))
        })
    }
}

/// A data request, borrowed: one view of the six I/O variants, which
/// allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct Io<'a> {
    /// Read or write.
    pub kind: IoKind,
    /// The file.
    pub handle: FileHandle,
    /// Its striping.
    pub layout: &'a StripeLayout,
    /// Its file regions.
    pub shape: ShapeRef<'a>,
    /// A write's payload: this server's share in wire order. Empty for a
    /// read.
    pub payload: &'a [u8],
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

    /// The data request of `kind` on `shape`'s regions of the file
    /// `handle`, striped by `layout`; a write carries `payload`, a read
    /// drops it.
    pub fn data(
        kind: IoKind,
        handle: FileHandle,
        layout: StripeLayout,
        shape: Shape,
        payload: Bytes,
    ) -> Request {
        use {IoKind::*, Shape::*};
        match (kind, shape) {
            (Read, Contiguous(region)) => Request::Read {
                handle,
                layout,
                region,
            },
            (Read, List(regions)) => Request::ReadList {
                handle,
                layout,
                regions,
            },
            (Read, Vectors(runs)) => Request::ReadVectors {
                handle,
                layout,
                runs,
            },
            (Write, Contiguous(region)) => Request::Write {
                handle,
                layout,
                region,
                data: payload,
            },
            (Write, List(regions)) => Request::WriteList {
                handle,
                layout,
                regions,
                data: payload,
            },
            (Write, Vectors(runs)) => Request::WriteVectors {
                handle,
                layout,
                runs,
                data: payload,
            },
        }
    }

    /// The request as a data request, if it is one.
    pub fn io(&self) -> Option<Io<'_>> {
        let (handle, layout) = match self {
            Request::Read { handle, layout, .. }
            | Request::Write { handle, layout, .. }
            | Request::ReadList { handle, layout, .. }
            | Request::WriteList { handle, layout, .. }
            | Request::ReadVectors { handle, layout, .. }
            | Request::WriteVectors { handle, layout, .. } => (*handle, layout),
            _ => return None,
        };
        use {IoKind::*, ShapeRef::*};
        let (kind, shape, payload): (_, _, &[u8]) = match self {
            Request::Read { region, .. } => (Read, Contiguous(*region), &[]),
            Request::ReadList { regions, .. } => (Read, List(regions), &[]),
            Request::ReadVectors { runs, .. } => (Read, Vectors(runs), &[]),
            Request::Write { region, data, .. } => (Write, Contiguous(*region), data),
            Request::WriteList { regions, data, .. } => (Write, List(regions), data),
            Request::WriteVectors { runs, data, .. } => (Write, Vectors(runs), data),
            _ => unreachable!("{} is a data request", self.op_name()),
        };
        let io = Io {
            kind,
            handle,
            layout,
            shape,
            payload,
        };
        Some(io)
    }

    /// The file a request names — its handle and, for a data request, the
    /// layout it is striped by — to be rewritten in place (a replica's
    /// copy of the request).
    pub fn file_mut(&mut self) -> Option<(&mut FileHandle, Option<&mut StripeLayout>)> {
        match self {
            Request::Read { handle, layout, .. }
            | Request::Write { handle, layout, .. }
            | Request::ReadList { handle, layout, .. }
            | Request::WriteList { handle, layout, .. }
            | Request::ReadVectors { handle, layout, .. }
            | Request::WriteVectors { handle, layout, .. } => Some((handle, Some(layout))),
            Request::GetLocalSize { handle }
            | Request::Sync { handle }
            | Request::StripeDigest { handle, .. }
            | Request::Truncate { handle, .. } => Some((handle, None)),
            _ => None,
        }
    }

    /// True for write-path operations (used by cost accounting).
    pub fn is_write(&self) -> bool {
        self.op_class() == OpClass::Write
    }

    /// Number of file regions this request describes (1 for contiguous,
    /// the full expansion for vector requests).
    pub fn region_count(&self) -> usize {
        self.io().map_or(0, |io| io.shape.count() as usize)
    }

    /// Bulk payload bytes travelling *with* the request (write data).
    pub fn bulk_len(&self) -> u64 {
        self.io().map_or(0, |io| io.payload.len() as u64)
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
        match self.io().map(|io| io.kind) {
            Some(IoKind::Read) => OpClass::Read,
            Some(IoKind::Write) => OpClass::Write,
            None => OpClass::Meta,
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

    fn shapes() -> [Shape; 3] {
        let run = |base| VectorRun {
            base,
            blocklen: 2,
            stride: 10,
            count: 3,
        };
        [
            Shape::Contiguous(Region::new(5, 20)),
            Shape::List(RegionList::from_pairs([(12, 4), (2, 4)]).unwrap()),
            Shape::Vectors(vec![run(40), run(0)]),
        ]
    }

    /// `Request::data` builds each of the six I/O variants and
    /// `Request::io` reads each back as it was built; nothing else has a
    /// view.
    #[test]
    fn the_view_reads_back_what_the_constructor_builds() {
        let mut names = Vec::new();
        for kind in [IoKind::Read, IoKind::Write] {
            for shape in shapes() {
                let payload = Bytes::from(vec![7u8; 6]);
                let request = Request::data(kind, FileHandle(3), layout(), shape.clone(), payload);
                let io = request.io().unwrap();
                let carried = if kind == IoKind::Write { 6 } else { 0 };
                assert_eq!(
                    (io.kind, io.handle, *io.layout, io.shape, io.payload.len()),
                    (kind, FileHandle(3), layout(), shape.view(), carried)
                );
                assert_eq!(request.bulk_len(), carried as u64);
                assert_eq!(request.region_count() as u64, shape.view().count());
                assert_eq!(request.is_write(), kind == IoKind::Write);
                let payload = Bytes::copy_from_slice(io.payload);
                let again = Request::data(io.kind, io.handle, *io.layout, shape, payload);
                assert_eq!(again, request);
                names.push(request.op_name());
            }
        }
        let six = [
            "read",
            "read_list",
            "read_vectors",
            "write",
            "write_list",
            "write_vectors",
        ];
        assert_eq!(names, six);
        for other in [
            Request::Sync {
                handle: FileHandle(3),
            },
            Request::Ping,
        ] {
            assert!(other.io().is_none(), "{other:?}");
        }
    }

    /// A shape's regions come in wire order — a list's as listed, runs'
    /// run by run — and a slot's share of them stops at its cap.
    #[test]
    fn a_shape_names_its_regions_in_wire_order_and_shares_them_by_slot() {
        let [one, list, runs] = shapes();
        let regions = |shape: &Shape| shape.view().regions().collect::<Vec<_>>();
        assert_eq!(regions(&one), [Region::new(5, 20)]);
        assert_eq!(regions(&list), [Region::new(12, 4), Region::new(2, 4)]);
        let blocks = [40, 50, 60, 0, 10, 20].map(|at| Region::new(at, 2));
        assert_eq!(regions(&runs), blocks);
        assert_eq!(shapes().map(|s| s.view().count()), [1, 2, 6]);
        // Stripes of 10 over four slots: slot 1 holds [10, 20) and
        // [50, 60), and so both of the runs' blocks there.
        let l = layout();
        assert_eq!(one.view().share(&l, 1, u64::MAX), Some((10, 1)));
        assert_eq!(one.view().share(&l, 1, 9), None);
        assert_eq!(list.view().share(&l, 1, 4), Some((4, 1)));
        assert_eq!(runs.view().share(&l, 1, u64::MAX), Some((4, 2)));
        assert_eq!(runs.view().share(&l, 3, u64::MAX), Some((0, 0)));
        let endless = VectorRun {
            base: 0,
            blocklen: 1,
            stride: 1,
            count: u64::MAX,
        };
        assert_eq!(ShapeRef::Vectors(&[endless; 2]).count(), u64::MAX);
        let overlapping = VectorRun {
            stride: 0,
            ..endless
        };
        assert!(ShapeRef::Vectors(&[overlapping]).check().is_err());
        assert!(ShapeRef::List(&RegionList::new()).check().is_err());
    }

    /// What a slot holds of one region is one local run, however many of
    /// its stripes the region spans; two regions' runs stay two, even
    /// when they abut.
    #[test]
    fn a_slot_holds_one_run_a_region_and_never_merges_two() {
        let l = StripeLayout::new(0, 2, 10).unwrap();
        let runs = |shape: Shape| shape.view().local_runs(&l, 0).collect::<Vec<_>>();
        let abutting = RegionList::from_pairs([(0, 5), (5, 5)]).unwrap();
        assert_eq!(runs(Shape::List(abutting)), [(0, 5), (5, 5)]);
        // [5, 25) is stripes 0, 1 and 2; slot 0 holds 0 and 2, packed.
        assert_eq!(runs(Shape::Contiguous(Region::new(5, 20))), [(5, 10)]);
    }

    /// The file a request names is rewritten in place: a data request's
    /// handle and layout, another request's handle, no file for the rest.
    #[test]
    fn the_named_file_is_rewritten_in_place() {
        let [_, list, _] = shapes();
        let mut read = Request::data(IoKind::Read, FileHandle(3), layout(), list, Bytes::new());
        let (handle, layout) = read.file_mut().unwrap();
        (*handle, layout.unwrap().base) = (FileHandle(9), 2);
        let io = read.io().unwrap();
        assert_eq!((io.handle, io.layout.base), (FileHandle(9), 2));
        let mut size = Request::GetLocalSize {
            handle: FileHandle(3),
        };
        assert!(matches!(size.file_mut(), Some((FileHandle(3), None))));
        assert!(Request::ListDir.file_mut().is_none());
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

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A list's or runs' share on a slot is the whole segment walk of
        /// each region filtered to the slot, region by region, and its
        /// local runs move exactly the bytes `share` counts.
        #[test]
        fn on_slot_is_the_filtered_walk_and_local_runs_cover_the_share(
            pcount in 1u32..6,
            ssize in 1u64..40,
            pairs in proptest::collection::vec((0u64..500, 1u64..120), 1..12),
            blocklen in 1u64..30,
            gap in 0u64..50,
            count in 1u64..20,
            slot in 0u32..7,
        ) {
            let l = StripeLayout::new(0, pcount, ssize).unwrap();
            let run = |base| VectorRun { base, blocklen, stride: blocklen + gap, count };
            let runs = [run(pairs[0].0), run(pairs[0].1)];
            let list = RegionList::from_pairs(pairs).unwrap();
            for shape in [ShapeRef::List(&list), ShapeRef::Vectors(&runs)] {
                let walked: Vec<_> = shape
                    .regions()
                    .flat_map(|r| l.segments(r).filter(|s| s.slot == slot))
                    .collect();
                prop_assert_eq!(shape.on_slot(&l, slot).collect::<Vec<_>>(), walked);
                let (bytes, _) = shape.share(&l, slot, u64::MAX).unwrap();
                let moved: usize = shape.local_runs(&l, slot).map(|(_, len)| len).sum();
                prop_assert_eq!(moved as u64, bytes);
            }
        }
    }
}
