//! The I/O daemon: serves striped file data.
//!
//! An I/O daemon owns one [`LocalFile`] per file handle, holding exactly
//! the stripes the file's [`StripeLayout`] assigns to this server. Data
//! requests name *logical* file regions; the daemon maps them onto its
//! local file with the layout carried in the request (PVFS I/O requests
//! carry striping metadata, §3.3) and never sees other servers' bytes.
//!
//! The daemon is a pure state machine with one serve entry,
//! [`IoDaemon::handle_with`]: it consumes a request, mutates local state,
//! and returns the response. It prices nothing. A daemon built for the
//! simulator ([`IoDaemon::with_cost_model`]) gives each local file the
//! cache and disk models, and the file meters what its accesses cost;
//! [`IoDaemon::handle`], the allocating, untraced entry the simulator
//! calls, returns that charge beside the response.
//!
//! Everything the daemon counts goes into one [`Ledger`], which it
//! shares with the stores it opens and the transport in front of it; a
//! `GetStats` scrape is a snapshot of that ledger and nothing else.

use bytes::{Bytes, BytesMut};
use pvfs_disk::{
    CacheConfig, CostReport, DiskModel, FileStore, LocalFile, SparseStore, StorageBackend,
    StorageConfig,
};
use pvfs_proto::{Io, IoKind, Request, Response, ShapeRef, MAX_BULK_BYTES};
use pvfs_types::clock::now_ns;
use pvfs_types::trace::{self, FlightRecorder};
use pvfs_types::{
    FileHandle, Ledger, PvfsError, PvfsResult, Region, RegionList, ServerId, StripeLayout,
};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

/// Static configuration for one I/O daemon.
#[derive(Debug, Clone, Copy)]
pub struct IodConfig {
    /// Buffer-cache model parameters for each local file of a daemon
    /// built [`IoDaemon::with_cost_model`] (the simulator's); a live
    /// daemon runs no such model.
    pub cache: CacheConfig,
    /// Disk timing model, likewise the simulator's.
    pub disk: DiskModel,
    /// Worker threads serving this daemon's request queue on the live
    /// path ([`IoDaemon::handle_with`] takes `&self`, so workers serve
    /// concurrently; requests for different handles never contend).
    pub workers: usize,
    /// Bound of the daemon's request queue on the live path. Senders
    /// block once `queue_depth` requests are waiting (backpressure).
    pub queue_depth: usize,
    /// Emulated per-request service latency on the live path: when set,
    /// the worker serving a request stalls this long before replying,
    /// standing in for the disk + network service time of a real I/O
    /// daemon (the latency a worker pool overlaps). `None` — the
    /// default — serves at memory speed. The simulator ignores this; it
    /// keeps virtual time instead.
    pub emulated_latency: Option<std::time::Duration>,
}

/// Default worker threads per daemon: 4, or fewer on small machines.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(1)
}

impl Default for IodConfig {
    fn default() -> Self {
        IodConfig {
            cache: CacheConfig::paper_default(),
            disk: DiskModel::paper_default(),
            workers: default_workers(),
            queue_depth: 64,
            emulated_latency: None,
        }
    }
}

/// Handle-space shards of the local file table. Contention on the live
/// path is per-shard, so requests for different handles (the common
/// case — each client file maps to one handle) almost never serialize
/// against each other.
const FILE_SHARDS: usize = 16;

/// What serving one request needs and the next can use again: the
/// buffers of the daemon's side of a frame. Whoever drives the daemon
/// keeps a few of these (a connection, a daemon's queue — never a worker
/// thread), hands one to [`IoDaemon::handle_with`] with each request and
/// takes it back when the reply has left; a [`Scratch::default`] owns no
/// memory and serves any request, allocating as [`IoDaemon::handle`]
/// always has.
///
/// Nothing in it outlives its request as *data*: the read buffer is
/// cleared and the share appended to it, every byte — holes, the range
/// past EOF and never-written handles included (the storage backends
/// append zeros for them, and a read's local runs leave no gap between
/// them) — and a failed read answers with an error and no part of the
/// buffer.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Where the transport decodes a list request's regions
    /// (`pvfs_proto::decode_frame_reusing`), and where it puts them back
    /// once the request is served.
    pub regions: RegionList,
    /// The buffer a read appends its share to. One too short for a
    /// share is let go for one that fits and is at least twice as long
    /// (outgrown once, not by every slightly longer share), never
    /// zeroed: the store fills it. Whether a scratch whose buffer grew
    /// for a bulk share is kept is its owner's rule (`pvfs_decide::spares`).
    read: BytesMut,
    /// The handle on all of `read` while a `Data` reply views it.
    lent: Option<Bytes>,
    /// A write's local runs. Empty between requests — so that it can hold
    /// any request's borrows — but for its capacity.
    runs: Vec<(u64, &'static [u8])>,
}

impl Scratch {
    /// The `Data` reply served from this scratch has left and been
    /// dropped: the read buffer, now the last handle on it, is this
    /// scratch's to fill again. If a view is still alive somewhere the
    /// buffer is let go instead, and the next read allocates.
    pub fn reclaim_read(&mut self) {
        if let Some(Ok(read)) = self.lent.take().map(Bytes::try_into_mut) {
            self.read = read;
        }
    }

    /// Serve the next read into `buffer` — whatever it holds, however
    /// short (one too short is let go; the empty buffer owns no memory
    /// and is as good as none). For a driver whose read buffers belong to
    /// whoever sent the request, and travel with it.
    pub fn adopt_read(&mut self, buffer: BytesMut) {
        (self.read, self.lent) = (buffer, None);
    }

    /// The other half of [`adopt_read`](Self::adopt_read), when the reply
    /// goes to another thread: a `Data` reply takes the read buffer with
    /// it (this scratch lets go of its handle: the reply's is the only
    /// one), any other leaves it — returned here, empty if there is none,
    /// for the driver to send back beside the reply.
    pub fn release_read(&mut self) -> BytesMut {
        self.lent = None;
        std::mem::take(&mut self.read)
    }

    /// Bytes of memory this scratch pins while it is kept.
    pub fn capacity(&self) -> usize {
        self.read.capacity()
            + self.regions.capacity() * std::mem::size_of::<Region>()
            + self.runs.capacity() * std::mem::size_of::<(u64, &[u8])>()
    }

    /// The run list, with room for `room` runs of any request's payload
    /// (an empty vector's element lifetime shortens freely).
    fn take_runs<'d>(&mut self, room: usize) -> Vec<(u64, &'d [u8])> {
        let mut runs: Vec<(u64, &'d [u8])> = std::mem::take(&mut self.runs);
        runs.reserve(room);
        runs
    }

    /// Take the run list back, emptied. Lengthening the element lifetime
    /// again takes a collect — of nothing, in place: the allocation is
    /// the same one.
    fn put_runs(&mut self, mut runs: Vec<(u64, &[u8])>) {
        runs.clear();
        let nothing: &'static [u8] = &[];
        self.runs = runs.into_iter().map(|(at, _)| (at, nothing)).collect();
    }
}

/// One PVFS I/O daemon.
///
/// Thread-safe: [`IoDaemon::handle_with`] takes `&self`, and the file table
/// is sharded by handle so concurrent requests only contend when they
/// touch handles in the same shard. Statistics are relaxed atomics.
/// A daemon is a pure state machine either way — single-threaded
/// callers (the simulator) use it exactly as before.
#[derive(Debug)]
pub struct IoDaemon {
    id: ServerId,
    config: IodConfig,
    /// Which storage backend each local file gets ([`StorageConfig::Mem`]
    /// unless built with [`IoDaemon::with_storage`]).
    storage: StorageConfig,
    /// Whether local files price their accesses with the cache and disk
    /// models of `config` (only [`IoDaemon::with_cost_model`]'s do).
    cost_model: bool,
    shards: Vec<Mutex<HashMap<FileHandle, LocalFile>>>,
    /// This daemon's books, shared with every [`FileStore`] it opens and
    /// kept, for wire and queue, by the transport in front of it (a daemon
    /// driven in-process, the simulator's, has neither).
    ledger: Arc<Ledger>,
    /// This daemon's trace ring buffer, scraped by `GetTrace`: the door in
    /// front of the daemon records the spans of the traced requests it
    /// serves here. Bounded by [`pvfs_types::DEFAULT_TRACE_CAP`]; costs
    /// nothing while no request carries trace context.
    recorder: Arc<FlightRecorder>,
}

impl IoDaemon {
    /// A daemon with the given id and configuration, storing file bytes
    /// in memory.
    pub fn new(id: ServerId, config: IodConfig) -> IoDaemon {
        IoDaemon::with_storage(id, config, StorageConfig::Mem)
    }

    /// A daemon whose local files live on the given storage backend.
    /// `storage` should already be scoped to this daemon
    /// ([`StorageConfig::for_daemon`]) when several daemons share a base
    /// directory.
    pub fn with_storage(id: ServerId, config: IodConfig, storage: StorageConfig) -> IoDaemon {
        IoDaemon {
            id,
            config,
            storage,
            cost_model: false,
            shards: (0..FILE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            ledger: Arc::new(Ledger::with_workers(config.workers as u64)),
            recorder: Arc::default(),
        }
    }

    /// A memory-backed daemon for the simulator: its local files run the
    /// buffer-cache and disk models of `config` on every access and meter
    /// the charges, so [`IoDaemon::handle`] reports the accesses and the
    /// virtual disk time the simulator advances its clock by. A daemon
    /// built any other way serves the same bytes and prices nothing.
    pub fn with_cost_model(id: ServerId, config: IodConfig) -> IoDaemon {
        IoDaemon {
            cost_model: true,
            ..IoDaemon::new(id, config)
        }
    }

    /// A daemon with the default configuration.
    pub fn with_defaults(id: ServerId) -> IoDaemon {
        IoDaemon::new(id, IodConfig::default())
    }

    /// This daemon's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// This daemon's configuration.
    pub fn config(&self) -> IodConfig {
        self.config
    }

    /// Whether serving a request never waits on a device or a stall: in
    /// memory, with no emulated latency.
    pub fn never_blocks(&self) -> bool {
        matches!(self.storage, StorageConfig::Mem) && self.config.emulated_latency.is_none()
    }

    /// This daemon's books: the transport in front of it accounts wire
    /// traffic and queueing through this, with no call into the daemon,
    /// and a `GetStats` scrape is its `snapshot()`.
    pub fn ledger(&self) -> &Arc<Ledger> {
        &self.ledger
    }

    /// This daemon's flight recorder (span ring buffer).
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    fn shard(&self, handle: FileHandle) -> &Mutex<HashMap<FileHandle, LocalFile>> {
        // Handles are sequential small integers; mix the bits so
        // consecutive handles spread across shards.
        let mut h = handle.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 32;
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Run `f` against a handle's local file, if present (verification
    /// oracles). Holds the handle's shard lock for the duration of `f`.
    pub fn with_local_file<R>(
        &self,
        handle: FileHandle,
        f: impl FnOnce(&LocalFile) -> R,
    ) -> Option<R> {
        let shard = self.shard(handle).lock().unwrap();
        shard.get(&handle).map(f)
    }

    /// Flush a handle's dirty cache blocks (maintenance entry point for
    /// simulator setup): the write-back is charged to the file's meter,
    /// and nothing moves on a daemon without the cost model.
    pub fn flush_handle(&self, handle: FileHandle) {
        if let Some(file) = self.shard(handle).lock().unwrap().get_mut(&handle) {
            file.flush();
        }
    }

    /// Serve one request out of buffers of its own, untraced — the
    /// allocating entry of the simulator, the tests and `perf`. Beside the
    /// response: what the named handle's file charged for it (nothing,
    /// unless the daemon was built [`IoDaemon::with_cost_model`], or the
    /// request names no handle).
    pub fn handle(&self, request: &Request) -> (Response, CostReport) {
        let named = match request {
            Request::Sync { handle } => Some(*handle),
            other => other.io().map(|io| io.handle),
        };
        let meter = || {
            named
                .and_then(|handle| self.with_local_file(handle, LocalFile::meter))
                .unwrap_or_default()
        };
        let before = meter();
        let response = self.handle_with(request, &mut Scratch::default());
        (response, meter().since(before))
    }

    /// [`handle_with`](Self::handle_with), then the `emulated_latency`
    /// stall on the calling thread, as a blocking disk access would take.
    pub fn serve(&self, request: &Request, scratch: &mut Scratch) -> Response {
        let response = self.handle_with(request, scratch);
        if let Some(stall) = self.config.emulated_latency {
            std::thread::sleep(stall);
        }
        response
    }

    /// Serve one request, its buffers taken from (and, but for a `Data`
    /// reply's, left in) `scratch`. After a `Data` reply the caller owes
    /// the scratch one of [`Scratch::reclaim_read`] or
    /// [`Scratch::release_read`].
    ///
    /// Storage work tells the thread's span sink, if one is installed
    /// (`pvfs_types::trace::with_span_sink`), what it did: `storage:read`,
    /// `storage:write`, and through the ledger `journal:fsync`.
    pub fn handle_with(&self, request: &Request, scratch: &mut Scratch) -> Response {
        crate::answer(request, &self.ledger, &self.recorder, || {
            self.dispatch(request, scratch)
        })
    }

    fn dispatch(&self, request: &Request, scratch: &mut Scratch) -> Result<Response, PvfsError> {
        if let Some(io) = request.io() {
            let counter = match io.shape {
                ShapeRef::Contiguous(_) => &self.ledger.contiguous_requests,
                ShapeRef::List(_) | ShapeRef::Vectors(_) => &self.ledger.list_requests,
            };
            counter.fetch_add(1, Ordering::Relaxed);
            io.shape.check()?;
            let slot = self.slot_in(io.layout)?;
            return match io.kind {
                IoKind::Read => self.gather(io, slot, scratch),
                IoKind::Write => self.scatter(io, slot, scratch),
            };
        }
        match request {
            Request::GetLocalSize { handle } => {
                let mut shard = self.shard(*handle).lock().unwrap();
                let size = self
                    .known_file(&mut shard, *handle)?
                    .map_or(0, |f| f.size());
                Ok(Response::LocalSize { size })
            }
            Request::Sync { handle } => {
                // A durability barrier on a handle this daemon has never
                // touched has nothing to persist: answer durable=0
                // without creating local state for the handle.
                let mut shard = self.shard(*handle).lock().unwrap();
                let durable = match self.known_file(&mut shard, *handle)? {
                    Some(file) => file.sync()?,
                    None => 0,
                };
                drop(shard);
                Ok(Response::Synced { durable })
            }
            Request::Flush => {
                let mut files = 0u64;
                for shard in &self.shards {
                    let mut shard = shard.lock().unwrap();
                    for file in shard.values_mut() {
                        file.sync()?;
                        files += 1;
                    }
                }
                Ok(Response::Flushed { files })
            }
            Request::StripeDigest { handle, chunk } => {
                // Anti-entropy: checksum this daemon's local bytes for
                // the handle so a scrubbing client can compare replicas.
                // Version 0 means "nothing applied this incarnation" —
                // a freshly restarted daemon is never mistaken for the
                // freshest copy.
                if *chunk == 0 {
                    return Err(PvfsError::protocol("stripe digest chunk must be nonzero"));
                }
                let mut shard = self.shard(*handle).lock().unwrap();
                let (version, size, chunks) = match self.known_file(&mut shard, *handle)? {
                    // The chunk size comes off the wire: digests that one
                    // reply frame could not carry are refused from the
                    // arithmetic, before any is allocated or computed.
                    Some(f) if f.size().div_ceil(*chunk) > (MAX_BULK_BYTES / 8) as u64 => {
                        return Err(PvfsError::protocol(format!(
                            "digests of a {}-byte local file in {chunk}-byte chunks take \
                             more than the {MAX_BULK_BYTES} bytes one reply frame may carry",
                            f.size()
                        )));
                    }
                    Some(f) => {
                        let (version, chunks) = f.digest_chunks(*chunk)?;
                        (version, f.size(), chunks)
                    }
                    // Never-touched handle: an authoritative empty
                    // answer, without creating local state.
                    None => (0, 0, Vec::new()),
                };
                drop(shard);
                Ok(Response::Digests {
                    version,
                    size,
                    chunks,
                })
            }
            Request::Truncate { handle, size } => {
                // Repair shrink: cut a stale replica back to its source's
                // length. A handle this daemon has never touched is
                // already "truncated" to any size ≥ 0 — answer without
                // creating local state.
                let mut shard = self.shard(*handle).lock().unwrap();
                let local = match self.known_file(&mut shard, *handle)? {
                    Some(file) => {
                        file.truncate(*size)?;
                        file.size()
                    }
                    None => 0,
                };
                drop(shard);
                Ok(Response::LocalSize { size: local })
            }
            // The cheapest possible round trip, and deliberately an
            // *accounted* request (unlike GetStats): its latency and
            // success are the health signal the client's failure detector
            // feeds on. The reply carries the live queue-depth gauge so a
            // prober sees congestion build.
            Request::Ping => Ok(Response::Pong {
                queue_depth: self.ledger.queue_depth.load(Ordering::Relaxed),
            }),
            other if other.is_metadata() => Err(PvfsError::protocol(format!(
                "metadata operation {} sent to an I/O daemon",
                other.op_name()
            ))),
            other => Err(PvfsError::protocol(format!(
                "I/O daemon cannot serve {}",
                other.op_name()
            ))),
        }
    }

    /// Serve a read: gather this server's share of the request's regions
    /// — in the order [`ShapeRef::on_slot`] walks it, a run at a time
    /// ([`ShapeRef::local_runs`]) — from the handle's local file into the
    /// scratch's read buffer, the front of which becomes the `Data` reply
    /// as is: every run read straight into its place.
    ///
    /// The buffer is cleared and the share appended to it (see
    /// [`Scratch`]); on an error it stays in the scratch, no part of it
    /// in the reply.
    ///
    /// Region lengths come off the wire, so the share is checked against
    /// what one reply frame may carry *before* anything is allocated: a
    /// frame naming a 2^40-byte region gets a typed error, not an
    /// allocation failure that takes the daemon down.
    fn gather(&self, io: Io, slot: u32, scratch: &mut Scratch) -> Result<Response, PvfsError> {
        let Some((share, _)) = io.shape.share(io.layout, slot, MAX_BULK_BYTES as u64) else {
            return Err(PvfsError::protocol(format!(
                "read asks this server for more than the {MAX_BULK_BYTES} bytes \
                 one reply frame may carry"
            )));
        };
        let share = share as usize;
        if scratch.read.capacity() < share {
            scratch.read = BytesMut::with_capacity(share.max(2 * scratch.read.capacity()));
        }
        let out = scratch.read.as_mut_vec();
        out.clear();
        let mut shard = self.shard(io.handle).lock().unwrap();
        let file = self.file_entry(&mut shard, io.handle)?;
        // One storage:read span per traced request; a no-op when no sink
        // is active on this thread.
        let started = now_ns();
        for (at, len) in io.shape.local_runs(io.layout, slot) {
            file.read_append(at, len, out)?;
        }
        drop(shard);
        trace::sink_add("storage:read", started, now_ns());
        let filled = out.len();
        if filled != share {
            // Runs that do not tile the share: answer with none of it.
            return Err(PvfsError::Storage(format!(
                "read filled {filled} of the {share} bytes this server owns"
            )));
        }
        let regions = io.shape.count();
        self.ledger.regions.fetch_add(regions, Ordering::Relaxed);
        self.ledger
            .bytes_read
            .fetch_add(share as u64, Ordering::Relaxed);
        let data = std::mem::take(&mut scratch.read).freeze();
        scratch.lent = Some(data.clone());
        Ok(Response::Data { data })
    }

    /// Serve a write: the payload is this server's share of the
    /// request's regions, in the same order as a read's. Every region's
    /// local runs are planned first and committed as ONE batch: on the
    /// durable backend a whole ⌈n/64⌉-region list write is a single
    /// journal record, all-or-nothing across a crash. The share is
    /// measured against the payload before any region is walked stripe by
    /// stripe.
    fn scatter(&self, io: Io, slot: u32, scratch: &mut Scratch) -> Result<Response, PvfsError> {
        let (data, payload) = (io.payload, io.payload.len() as u64);
        let owned = match io.shape.share(io.layout, slot, payload) {
            Some((bytes, owned)) if bytes == payload => owned,
            other => {
                let owns = other.map_or(format!("more than {payload}"), |(b, _)| b.to_string());
                return Err(PvfsError::protocol(format!(
                    "write payload is {payload} bytes but this server owns {owns}"
                )));
            }
        };
        let mut consumed = 0usize;
        let mut runs = scratch.take_runs(owned);
        for (at, len) in io.shape.local_runs(io.layout, slot) {
            runs.push((at, &data[consumed..consumed + len]));
            consumed += len;
        }
        let applied = self.apply(io.handle, &runs);
        scratch.put_runs(runs);
        applied?;
        let regions = io.shape.count();
        self.ledger.regions.fetch_add(regions, Ordering::Relaxed);
        self.ledger
            .bytes_written
            .fetch_add(payload, Ordering::Relaxed);
        Ok(Response::Written { bytes: payload })
    }

    /// Commit a write's planned runs to the handle's local file as one
    /// all-or-nothing batch.
    fn apply(&self, handle: FileHandle, runs: &[(u64, &[u8])]) -> PvfsResult<()> {
        let mut shard = self.shard(handle).lock().unwrap();
        let file = self.file_entry(&mut shard, handle)?;
        if runs.is_empty() {
            return Ok(());
        }
        let started = now_ns();
        file.write_batch(runs)?;
        trace::sink_add("storage:write", started, now_ns());
        Ok(())
    }

    /// Which slot this server occupies in `layout`, or an error if the
    /// request was misrouted.
    fn slot_in(&self, layout: &StripeLayout) -> Result<u32, PvfsError> {
        layout.validate()?;
        layout.slot_of_server(self.id).ok_or_else(|| {
            PvfsError::protocol(format!(
                "server {} is not part of stripe layout base={} pcount={}",
                self.id, layout.base, layout.pcount
            ))
        })
    }

    /// Whether a durable store for `handle` survives in this daemon's
    /// data directory (from a previous incarnation). Always false for
    /// the memory backend — its state dies with the process, like a
    /// real daemon's RAM.
    fn handle_on_disk(&self, handle: FileHandle) -> bool {
        match &self.storage {
            StorageConfig::Mem => false,
            StorageConfig::File { dir, .. } => {
                dir.join(format!("h{}.data", handle.0)).exists()
                    || dir.join(format!("h{}.journal", handle.0)).exists()
            }
        }
    }

    /// The handle's local file if this daemon has one — in memory, or on
    /// disk from a previous incarnation (a restarted file-backed daemon
    /// has no in-memory entry yet: the store is recovered now, rather
    /// than an empty file reported). `None`: a handle this daemon has
    /// never touched, for which no local state is created.
    fn known_file<'a>(
        &self,
        shard: &'a mut HashMap<FileHandle, LocalFile>,
        handle: FileHandle,
    ) -> PvfsResult<Option<&'a mut LocalFile>> {
        if shard.contains_key(&handle) || self.handle_on_disk(handle) {
            self.file_entry(shard, handle).map(Some)
        } else {
            Ok(None)
        }
    }

    /// The handle's local file in an already-locked shard, created on
    /// first touch on this daemon's storage backend. Fallible: opening a
    /// durable store touches the filesystem.
    fn file_entry<'a>(
        &self,
        shard: &'a mut HashMap<FileHandle, LocalFile>,
        handle: FileHandle,
    ) -> PvfsResult<&'a mut LocalFile> {
        use std::collections::hash_map::Entry;
        match shard.entry(handle) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(v) => {
                let store: Box<dyn StorageBackend> = match &self.storage {
                    StorageConfig::Mem => Box::new(SparseStore::new()),
                    StorageConfig::File { dir, sync } => Box::new(FileStore::open(
                        dir,
                        handle.0,
                        *sync,
                        Arc::clone(&self.ledger),
                    )?),
                };
                Ok(v.insert(if self.cost_model {
                    LocalFile::with_backend(self.config.cache, self.config.disk, store)
                } else {
                    LocalFile::unmodelled(store)
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvfs_types::{RegionList, SpanId};

    fn layout() -> StripeLayout {
        StripeLayout::new(0, 4, 10).unwrap()
    }

    fn fh() -> FileHandle {
        FileHandle(1)
    }

    /// Write a whole logical byte range across a set of daemons, using
    /// one contiguous Write per involved server (the client library's
    /// job, inlined here for tests).
    pub(super) fn write_all(daemons: &mut [IoDaemon], l: &StripeLayout, offset: u64, data: &[u8]) {
        let region = Region::new(offset, data.len() as u64);
        for d in daemons.iter_mut() {
            let slot = d.id().0 - l.base;
            let share: Vec<u8> = l
                .segments(region)
                .filter(|s| s.slot == slot)
                .flat_map(|s| {
                    let start = (s.logical.offset - offset) as usize;
                    data[start..start + s.logical.len as usize].to_vec()
                })
                .collect();
            if share.is_empty() {
                continue;
            }
            let (resp, _) = d.handle(&Request::Write {
                handle: fh(),
                layout: *l,
                region,
                data: Bytes::from(share.clone()),
            });
            assert_eq!(
                resp,
                Response::Written {
                    bytes: share.len() as u64
                }
            );
        }
    }

    /// Read a whole logical byte range back by merging per-server reads.
    pub(super) fn read_all(daemons: &mut [IoDaemon], l: &StripeLayout, region: Region) -> Vec<u8> {
        let mut out = vec![0u8; region.len as usize];
        for d in daemons.iter_mut() {
            let slot = d.id().0 - l.base;
            let (resp, _) = d.handle(&Request::Read {
                handle: fh(),
                layout: *l,
                region,
            });
            let data = match resp {
                Response::Data { data } => data,
                other => panic!("unexpected {other:?}"),
            };
            let mut consumed = 0usize;
            for seg in l.segments(region) {
                if seg.slot != slot {
                    continue;
                }
                let start = (seg.logical.offset - region.offset) as usize;
                let n = seg.logical.len as usize;
                out[start..start + n].copy_from_slice(&data[consumed..consumed + n]);
                consumed += n;
            }
        }
        out
    }

    fn cluster() -> Vec<IoDaemon> {
        (0..4)
            .map(|i| IoDaemon::with_defaults(ServerId(i)))
            .collect()
    }

    #[test]
    fn striped_write_read_roundtrip() {
        let l = layout();
        let mut daemons = cluster();
        let data: Vec<u8> = (0..95u8).collect();
        write_all(&mut daemons, &l, 3, &data);
        let back = read_all(&mut daemons, &l, Region::new(3, 95));
        assert_eq!(back, data);
    }

    #[test]
    fn read_of_unwritten_range_returns_zeros() {
        let l = layout();
        let d = IoDaemon::with_defaults(ServerId(0));
        let (resp, _) = d.handle(&Request::Read {
            handle: fh(),
            layout: l,
            region: Region::new(0, 10),
        });
        assert_eq!(
            resp,
            Response::Data {
                data: Bytes::from(vec![0u8; 10])
            }
        );
    }

    #[test]
    fn server_only_returns_its_share() {
        let l = layout();
        let d = IoDaemon::with_defaults(ServerId(1));
        // Region [0, 40) spans all four servers; server 1 owns [10, 20).
        let (resp, _) = d.handle(&Request::Read {
            handle: fh(),
            layout: l,
            region: Region::new(0, 40),
        });
        match resp {
            Response::Data { data } => assert_eq!(data.len(), 10),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn write_with_wrong_payload_size_is_rejected() {
        let l = layout();
        let d = IoDaemon::with_defaults(ServerId(0));
        let (resp, _) = d.handle(&Request::Write {
            handle: fh(),
            layout: l,
            region: Region::new(0, 10),
            data: Bytes::from(vec![0u8; 3]),
        });
        assert!(matches!(resp, Response::Error(PvfsError::Protocol(_))));
        assert_eq!(d.ledger().snapshot().errors, 1);
    }

    #[test]
    fn misrouted_request_is_rejected() {
        let l = StripeLayout::new(0, 2, 10).unwrap();
        let d = IoDaemon::with_defaults(ServerId(5)); // not in layout
        let (resp, _) = d.handle(&Request::Read {
            handle: fh(),
            layout: l,
            region: Region::new(0, 10),
        });
        assert!(matches!(resp, Response::Error(PvfsError::Protocol(_))));
    }

    #[test]
    fn metadata_op_at_iod_is_rejected() {
        let d = IoDaemon::with_defaults(ServerId(0));
        let (resp, _) = d.handle(&Request::Open { path: "/x".into() });
        assert!(matches!(resp, Response::Error(PvfsError::Protocol(_))));
    }

    #[test]
    fn list_read_concatenates_in_list_order() {
        let l = layout();
        let mut daemons = cluster();
        let data: Vec<u8> = (0..40u8).collect();
        write_all(&mut daemons, &l, 0, &data);
        // Regions [12,16) and [2,6): server 0 owns [2,6); server 1 owns [12,16).
        let regions = RegionList::from_pairs([(12, 4), (2, 4)]).unwrap();
        let before = daemons[0].ledger().snapshot().regions;
        let (resp, _) = daemons[0].handle(&Request::ReadList {
            handle: fh(),
            layout: l,
            regions: regions.clone(),
        });
        assert_eq!(
            resp,
            Response::Data {
                data: Bytes::from(vec![2, 3, 4, 5])
            }
        );
        assert_eq!(daemons[0].ledger().snapshot().regions - before, 2);
        let (resp, _) = daemons[1].handle(&Request::ReadList {
            handle: fh(),
            layout: l,
            regions,
        });
        assert_eq!(
            resp,
            Response::Data {
                data: Bytes::from(vec![12, 13, 14, 15])
            }
        );
    }

    #[test]
    fn list_write_scatters_payload() {
        let l = layout();
        let d = IoDaemon::with_defaults(ServerId(0));
        // Both regions live entirely on server 0 (first stripe is [0,10)
        // and stripe 4 is [40,50)).
        let regions = RegionList::from_pairs([(40, 5), (0, 5)]).unwrap();
        let (resp, _) = d.handle(&Request::WriteList {
            handle: fh(),
            layout: l,
            regions,
            data: Bytes::from(vec![1, 1, 1, 1, 1, 2, 2, 2, 2, 2]),
        });
        assert_eq!(resp, Response::Written { bytes: 10 });
        assert_eq!(d.ledger().snapshot().regions, 2);
        // Verify list-order consumption: [40,45) got 1s, [0,5) got 2s.
        let (resp, _) = d.handle(&Request::Read {
            handle: fh(),
            layout: l,
            region: Region::new(40, 5),
        });
        assert_eq!(
            resp,
            Response::Data {
                data: Bytes::from(vec![1u8; 5])
            }
        );
        let (resp, _) = d.handle(&Request::Read {
            handle: fh(),
            layout: l,
            region: Region::new(0, 5),
        });
        assert_eq!(
            resp,
            Response::Data {
                data: Bytes::from(vec![2u8; 5])
            }
        );
    }

    #[test]
    fn oversized_list_is_rejected() {
        let l = layout();
        let d = IoDaemon::with_defaults(ServerId(0));
        let regions = RegionList::from_pairs((0..65).map(|i| (i * 100, 1u64))).unwrap();
        let (resp, _) = d.handle(&Request::ReadList {
            handle: fh(),
            layout: l,
            regions,
        });
        assert!(matches!(resp, Response::Error(PvfsError::Protocol(_))));
    }

    #[test]
    fn oversized_read_share_is_a_typed_error_before_any_allocation() {
        // Region lengths are wire input. Each of these asks this daemon
        // for 2^38 bytes — far over what one reply frame may carry — and
        // must be refused from the arithmetic alone: sizing the reply
        // buffer first would abort the process on allocation failure.
        let l = StripeLayout::new(0, 4, 1 << 20).unwrap();
        let huge = Region::new(0, 1 << 40);
        let d = IoDaemon::with_defaults(ServerId(2));
        let requests = [
            Request::Read {
                handle: fh(),
                layout: l,
                region: huge,
            },
            Request::ReadList {
                handle: fh(),
                layout: l,
                regions: RegionList::from_regions(vec![
                    Region::new(0, 8),
                    Region::new(64, 1 << 40),
                ])
                .unwrap(),
            },
            Request::ReadVectors {
                handle: fh(),
                layout: l,
                runs: vec![pvfs_proto::VectorRun {
                    base: 0,
                    blocklen: 1 << 30,
                    stride: 1 << 30,
                    count: 1 << 10,
                }],
            },
        ];
        for request in &requests {
            match d.handle(request).0 {
                Response::Error(PvfsError::Protocol(why)) => {
                    assert!(why.contains("one reply frame"), "{why}")
                }
                other => panic!(
                    "{}: expected a protocol error, got {other:?}",
                    request.op_name()
                ),
            }
        }
        assert_eq!(d.ledger().snapshot().errors, 3);
        assert_eq!(d.ledger().snapshot().bytes_read, 0);
        // Exactly the cap is served, and the daemon is as alive as ever.
        let at_cap = Request::Read {
            handle: fh(),
            layout: StripeLayout::new(2, 1, 1 << 20).unwrap(),
            region: Region::new(0, MAX_BULK_BYTES as u64),
        };
        match d.handle(&at_cap).0 {
            Response::Data { data } => assert_eq!(data.len(), MAX_BULK_BYTES),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_digest_of_more_chunks_than_one_reply_carries_is_a_typed_error() {
        // A 25-byte request for one checksum per byte of a sparse 9 MiB
        // local file asks for 72 MiB of digests: refused before any is
        // allocated or computed.
        let l = StripeLayout::new(0, 1, 1 << 20).unwrap();
        let d = IoDaemon::with_defaults(ServerId(0));
        d.handle(&Request::Write {
            handle: fh(),
            layout: l,
            region: Region::new(9 << 20, 1),
            data: Bytes::from(vec![1u8]),
        });
        match d
            .handle(&Request::StripeDigest {
                handle: fh(),
                chunk: 1,
            })
            .0
        {
            Response::Error(PvfsError::Protocol(why)) => {
                assert!(why.contains("one reply frame"), "{why}")
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
        assert_eq!(d.ledger().snapshot().errors, 1);
        // Chunks a reply can carry are served as ever.
        match d
            .handle(&Request::StripeDigest {
                handle: fh(),
                chunk: 1 << 20,
            })
            .0
        {
            Response::Digests { size, chunks, .. } => {
                assert_eq!((size, chunks.len()), ((9 << 20) + 1, 10))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn get_local_size_tracks_writes() {
        let l = layout();
        let d = IoDaemon::with_defaults(ServerId(0));
        let (resp, _) = d.handle(&Request::GetLocalSize { handle: fh() });
        assert_eq!(resp, Response::LocalSize { size: 0 });
        d.handle(&Request::Write {
            handle: fh(),
            layout: l,
            region: Region::new(0, 7),
            data: Bytes::from(vec![0u8; 7]),
        });
        let (resp, _) = d.handle(&Request::GetLocalSize { handle: fh() });
        assert_eq!(resp, Response::LocalSize { size: 7 });
    }

    /// Who builds the daemon decides whether its I/O is priced: the
    /// simulator's constructor runs the cache and disk models, whose files
    /// meter each access; every other serves the same bytes and meters
    /// nothing.
    #[test]
    fn only_a_daemon_built_with_the_cost_model_prices_its_io() {
        let l = StripeLayout::new(0, 1, 4096).unwrap();
        let live = IoDaemon::with_defaults(ServerId(0));
        let simulated = IoDaemon::with_cost_model(ServerId(0), IodConfig::default());
        for (d, priced) in [(&live, false), (&simulated, true)] {
            let (written, wrote) = d.handle(&Request::Write {
                handle: fh(),
                layout: l,
                region: Region::new(0, 100),
                data: Bytes::from(vec![9u8; 100]),
            });
            assert_eq!(written, Response::Written { bytes: 100 });
            // A range no access has touched: a miss, were anyone counting.
            let (read, cost) = d.handle(&Request::Read {
                handle: fh(),
                layout: l,
                region: Region::new(1 << 20, 100),
            });
            assert!(matches!(read, Response::Data { .. }));
            let accesses = u64::from(priced);
            assert_eq!((wrote.accesses, cost.accesses), (accesses, accesses));
            assert_eq!(cost.disk_ns > 0, priced);
            let both = CostReport {
                disk_ns: wrote.disk_ns + cost.disk_ns,
                accesses: 2 * accesses,
            };
            assert_eq!(d.with_local_file(fh(), LocalFile::meter), Some(both));
        }
    }

    #[test]
    fn stats_count_requests_and_regions() {
        let l = layout();
        let d = IoDaemon::with_defaults(ServerId(0));
        d.handle(&Request::Read {
            handle: fh(),
            layout: l,
            region: Region::new(0, 5),
        });
        let regions = RegionList::from_pairs([(0, 2), (40, 2), (80, 2)]).unwrap();
        d.handle(&Request::ReadList {
            handle: fh(),
            layout: l,
            regions,
        });
        let s = d.ledger().snapshot();
        assert_eq!(s.requests, 2);
        assert_eq!(s.contiguous_requests, 1);
        assert_eq!(s.list_requests, 1);
        assert_eq!(s.regions, 4);
    }

    #[test]
    fn get_stats_reports_counters_without_counting_itself() {
        let l = layout();
        let d = IoDaemon::with_defaults(ServerId(0));
        d.handle(&Request::Read {
            handle: fh(),
            layout: l,
            region: Region::new(0, 5),
        });
        let (resp, _) = d.handle(&Request::GetStats);
        let snap = match resp {
            Response::Stats(s) => s,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(snap.requests, 1, "the scrape itself must not count");
        assert_eq!(snap.contiguous_requests, 1);
        assert_eq!(snap.bytes_read, 5);
        assert_eq!(snap.workers, d.config().workers as u64);
        // Scraping again changes nothing: the probe is invisible.
        let (resp, _) = d.handle(&Request::GetStats);
        match resp {
            Response::Stats(s) => assert_eq!(*s, *snap),
            other => panic!("unexpected {other:?}"),
        }
        // And is the in-process view, metric for metric.
        assert_eq!(*snap, d.ledger().snapshot());
    }

    #[test]
    fn untraced_requests_leave_the_recorder_empty() {
        let l = layout();
        let d = IoDaemon::with_defaults(ServerId(0));
        let resp = d.handle_with(
            &Request::Read {
                handle: fh(),
                layout: l,
                region: Region::new(0, 5),
            },
            &mut Scratch::default(),
        );
        assert!(matches!(resp, Response::Data { .. }));
        assert!(
            d.recorder().is_empty(),
            "the door records spans, not the daemon"
        );
    }

    #[test]
    fn get_trace_scrape_is_unaccounted_and_pure() {
        use pvfs_types::{Span, TraceId};
        let d = IoDaemon::with_defaults(ServerId(0));
        let trace = TraceId::next();
        d.recorder().push(Span {
            trace,
            id: SpanId::next(),
            parent: SpanId(7),
            node: "iod0".into(),
            op: "service".into(),
            start_ns: 0,
            dur_ns: 1,
            notes: Vec::new(),
        });
        let before = d.ledger().snapshot();
        let (resp, _) = d.handle(&Request::GetTrace { trace });
        let spans = match resp {
            Response::Spans(s) => s,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(spans.len(), 1);
        // The scrape moved no counters and perturbed no traces: a second
        // scrape sees the identical span set.
        assert_eq!(d.ledger().snapshot(), before, "GetTrace must not count");
        let (resp2, _) = d.handle(&Request::GetTrace { trace });
        assert_eq!(resp2, Response::Spans(spans), "scrape perturbed the trace");
        // Unknown traces answer empty, not an error.
        let (resp3, _) = d.handle(&Request::GetTrace {
            trace: TraceId(u64::MAX),
        });
        assert_eq!(resp3, Response::Spans(vec![]));
    }

    #[test]
    fn ping_answers_pong_and_counts_as_a_request() {
        let d = IoDaemon::with_defaults(ServerId(0));
        d.ledger().queued();
        let (resp, _) = d.handle(&Request::Ping);
        assert_eq!(resp, Response::Pong { queue_depth: 1 });
        // Unlike a stats scrape, a ping is an accounted request: its
        // latency is the health signal, so it must be visible.
        assert_eq!(d.ledger().snapshot().requests, 1);
        assert_eq!(d.ledger().snapshot().errors, 0);
    }

    #[test]
    fn shed_requests_undo_the_queue_gauge_and_count() {
        let d = IoDaemon::with_defaults(ServerId(0));
        d.ledger().queued();
        d.ledger().queued();
        d.ledger().shed();
        let snap = d.ledger().snapshot();
        assert_eq!(snap.queue_depth, 1, "shed undoes the queued bump");
        assert_eq!(snap.requests_shed, 1);
        assert_eq!(d.ledger().snapshot().requests_shed, 1);
        // ResetStats zeroes the shed counter with the rest.
        d.handle(&Request::ResetStats);
        assert_eq!(d.ledger().snapshot().requests_shed, 0);
    }

    #[test]
    fn reset_stats_returns_the_pre_reset_snapshot() {
        let l = layout();
        let d = IoDaemon::with_defaults(ServerId(0));
        d.handle(&Request::Write {
            handle: fh(),
            layout: l,
            region: Region::new(0, 5),
            data: Bytes::from(vec![1u8; 5]),
        });
        d.ledger().begin(0, 10_000);
        d.ledger().end(10_000, 60_000);
        let (resp, _) = d.handle(&Request::ResetStats);
        let snap = match resp {
            Response::Stats(s) => s,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.bytes_written, 5);
        assert_eq!(snap.queue_wait.count(), 1);
        assert_eq!(snap.service_time.count(), 1);
        let after = d.ledger().snapshot();
        assert_eq!(after.requests, 0);
        assert_eq!(after.bytes_written, 0);
        assert_eq!(d.ledger().snapshot().queue_wait.count(), 0);
    }

    #[test]
    fn service_lifecycle_moves_the_gauges() {
        let d = IoDaemon::with_defaults(ServerId(0));
        d.ledger().queued();
        d.ledger().queued();
        let snap = d.ledger().snapshot();
        assert_eq!(snap.queue_depth, 2);
        assert_eq!(snap.busy_workers, 0);
        d.ledger().begin(0, 3_000);
        let snap = d.ledger().snapshot();
        assert_eq!(snap.queue_depth, 1);
        assert_eq!(snap.busy_workers, 1);
        assert_eq!(snap.queue_wait.count(), 1);
        d.ledger().end(3_000, 12_000);
        let snap = d.ledger().snapshot();
        assert_eq!(snap.busy_workers, 0);
        assert_eq!(snap.service_time.count(), 1);
    }

    #[test]
    fn handles_are_isolated() {
        let l = layout();
        let d = IoDaemon::with_defaults(ServerId(0));
        d.handle(&Request::Write {
            handle: FileHandle(1),
            layout: l,
            region: Region::new(0, 5),
            data: Bytes::from(vec![9u8; 5]),
        });
        let (resp, _) = d.handle(&Request::Read {
            handle: FileHandle(2),
            layout: l,
            region: Region::new(0, 5),
        });
        assert_eq!(
            resp,
            Response::Data {
                data: Bytes::from(vec![0u8; 5])
            }
        );
    }

    #[test]
    fn vector_read_expands_runs_in_order() {
        let l = layout();
        let d = IoDaemon::with_defaults(ServerId(0));
        // Stripe 0 is [0,10), stripe 4 is [40,50): both on server 0.
        d.handle(&Request::Write {
            handle: fh(),
            layout: l,
            region: Region::new(0, 10),
            data: Bytes::from((0..10u8).collect::<Vec<_>>()),
        });
        d.handle(&Request::Write {
            handle: fh(),
            layout: l,
            region: Region::new(40, 10),
            data: Bytes::from((40..50u8).collect::<Vec<_>>()),
        });
        // Run: blocks of 3 bytes at 0 and 40 (stride 40, count 2).
        let runs = vec![pvfs_proto::VectorRun {
            base: 0,
            blocklen: 3,
            stride: 40,
            count: 2,
        }];
        let (resp, _) = d.handle(&Request::ReadVectors {
            handle: fh(),
            layout: l,
            runs,
        });
        assert_eq!(
            resp,
            Response::Data {
                data: Bytes::from(vec![0, 1, 2, 40, 41, 42])
            }
        );
        assert_eq!(d.ledger().snapshot().regions, 2 + 2);
    }

    #[test]
    fn vector_write_scatters_expansion() {
        let l = layout();
        let d = IoDaemon::with_defaults(ServerId(0));
        let runs = vec![pvfs_proto::VectorRun {
            base: 0,
            blocklen: 2,
            stride: 40,
            count: 3,
        }];
        let (resp, _) = d.handle(&Request::WriteVectors {
            handle: fh(),
            layout: l,
            runs,
            data: Bytes::from(vec![1, 1, 2, 2, 3, 3]),
        });
        assert_eq!(resp, Response::Written { bytes: 6 });
        for (i, base) in [(1u8, 0u64), (2, 40), (3, 80)] {
            let (resp, _) = d.handle(&Request::Read {
                handle: fh(),
                layout: l,
                region: Region::new(base, 2),
            });
            assert_eq!(
                resp,
                Response::Data {
                    data: Bytes::from(vec![i, i])
                }
            );
        }
    }

    #[test]
    fn vector_write_wrong_payload_rejected() {
        let l = layout();
        let d = IoDaemon::with_defaults(ServerId(0));
        let runs = vec![pvfs_proto::VectorRun {
            base: 0,
            blocklen: 2,
            stride: 40,
            count: 3,
        }];
        let (resp, _) = d.handle(&Request::WriteVectors {
            handle: fh(),
            layout: l,
            runs,
            data: Bytes::from(vec![0u8; 5]),
        });
        assert!(matches!(resp, Response::Error(PvfsError::Protocol(_))));
    }

    #[test]
    fn invalid_vector_run_rejected_at_server() {
        let l = layout();
        let d = IoDaemon::with_defaults(ServerId(0));
        let runs = vec![pvfs_proto::VectorRun {
            base: 0,
            blocklen: 10,
            stride: 5, // overlapping blocks
            count: 2,
        }];
        let (resp, _) = d.handle(&Request::ReadVectors {
            handle: fh(),
            layout: l,
            runs,
        });
        assert!(matches!(
            resp,
            Response::Error(PvfsError::InvalidArgument(_))
        ));
    }

    /// A run whose block ends past `u64::MAX`, in a request built the way
    /// the simulator builds its requests (`Request::data`, under
    /// `pvfs_core::exec`), gets an error reply, read or write; the daemon
    /// does not panic on it, and serves on.
    #[test]
    fn a_vector_run_ending_past_u64_max_is_refused_not_a_panic() {
        let l = layout();
        let d = IoDaemon::with_defaults(ServerId(0));
        let run = pvfs_proto::VectorRun {
            base: u64::MAX - 10,
            blocklen: 100,
            stride: 100,
            count: 1,
        };
        for kind in [IoKind::Read, IoKind::Write] {
            let shape = pvfs_proto::Shape::Vectors(vec![run]);
            let request = Request::data(kind, fh(), l, shape, Bytes::from(vec![0u8; 10]));
            match d.handle(&request).0 {
                Response::Error(PvfsError::InvalidArgument(why)) => {
                    assert!(why.contains("past u64::MAX"), "{why}")
                }
                other => panic!("{kind:?}: expected an error reply, got {other:?}"),
            }
        }
        assert_eq!(d.ledger().snapshot().errors, 2);
        let read = Request::Read {
            handle: fh(),
            layout: l,
            region: Region::new(0, 4),
        };
        assert!(matches!(d.handle(&read).0, Response::Data { .. }));
    }

    /// A read in the stripe that ends past `u64::MAX` is served — zeros:
    /// nothing was written there — where cutting it into segments used
    /// to panic the serving thread.
    #[test]
    fn a_read_at_the_top_of_the_offset_space_is_served() {
        let l = StripeLayout::new(0, 4, 16384).unwrap();
        let d = IoDaemon::with_defaults(l.server_of(u64::MAX));
        let (resp, _) = d.handle(&Request::Read {
            handle: fh(),
            layout: l,
            region: Region::new(u64::MAX - 100, 50),
        });
        let zeros = Bytes::from(vec![0u8; 50]);
        assert_eq!(resp, Response::Data { data: zeros });
    }

    /// A write's share is measured in closed form: a `Write` naming a
    /// 2^62-byte region — 2^46 stripes — with a payload that cannot be its
    /// share is refused at once, where walking its stripes would hold the
    /// serving thread for weeks.
    #[test]
    fn a_write_naming_a_huge_region_is_refused_in_closed_form() {
        let l = StripeLayout::new(0, 4, 64 << 10).unwrap();
        let d = IoDaemon::with_defaults(ServerId(1));
        let started = now_ns();
        let (resp, _) = d.handle(&Request::Write {
            handle: fh(),
            layout: l,
            region: Region::new(0, 1 << 62),
            data: Bytes::new(),
        });
        let took_ms = (now_ns() - started) / 1_000_000;
        match resp {
            Response::Error(PvfsError::Protocol(why)) => {
                assert!(why.contains("write payload is 0 bytes"), "{why}")
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
        assert!(took_ms < 1_000, "refused after {took_ms} ms");
    }

    #[test]
    fn sync_on_untouched_handle_reports_nothing_durable() {
        let d = IoDaemon::with_defaults(ServerId(0));
        let (resp, _) = d.handle(&Request::Sync { handle: fh() });
        assert_eq!(resp, Response::Synced { durable: 0 });
        // And no local state sprang into existence for the handle.
        let (resp, _) = d.handle(&Request::Flush);
        assert_eq!(resp, Response::Flushed { files: 0 });
    }

    #[test]
    fn flush_visits_every_open_file() {
        let l = layout();
        let d = IoDaemon::with_defaults(ServerId(0));
        for h in [1u64, 2, 3] {
            d.handle(&Request::Write {
                handle: FileHandle(h),
                layout: l,
                region: Region::new(0, 5),
                data: Bytes::from(vec![7u8; 5]),
            });
        }
        let (resp, _) = d.handle(&Request::Flush);
        assert_eq!(resp, Response::Flushed { files: 3 });
    }

    #[test]
    fn file_backend_daemon_serves_and_syncs_durably() {
        let scratch = pvfs_disk::ScratchDir::new("iod-file");
        let storage = StorageConfig::File {
            dir: scratch.path().to_path_buf(),
            sync: pvfs_disk::SyncPolicy::Never,
        };
        let l = layout();
        let d = IoDaemon::with_storage(ServerId(0), IodConfig::default(), storage);
        d.handle(&Request::Write {
            handle: fh(),
            layout: l,
            region: Region::new(0, 10),
            data: Bytes::from((0..10u8).collect::<Vec<_>>()),
        });
        // Nothing synced yet under SyncPolicy::Never...
        let (resp, _) = d.handle(&Request::Sync { handle: fh() });
        assert_eq!(resp, Response::Synced { durable: 10 });
        // ...and the journal counters surfaced through both stats views.
        let s = d.ledger().snapshot();
        assert_eq!(s.journal_appends, 1);
        assert!(s.fsyncs > 0);
        let snap = d.ledger().snapshot();
        assert_eq!(snap.journal_appends, 1);
        assert_eq!(snap.journal_depth, 0, "sync checkpoints the journal");
        assert_eq!(snap.fsync_time.count(), snap.fsyncs);
        let (resp, _) = d.handle(&Request::Read {
            handle: fh(),
            layout: l,
            region: Region::new(0, 10),
        });
        assert_eq!(
            resp,
            Response::Data {
                data: Bytes::from((0..10u8).collect::<Vec<_>>())
            }
        );
    }

    #[test]
    fn a_batch_a_crash_left_unapplied_replays_at_restart() {
        let scratch = pvfs_disk::ScratchDir::new("iod-crash");
        let storage = StorageConfig::File {
            dir: scratch.path().to_path_buf(),
            sync: pvfs_disk::SyncPolicy::Always,
        };
        let l = layout();
        let d = IoDaemon::with_storage(ServerId(0), IodConfig::default(), storage.clone());
        d.handle(&Request::Write {
            handle: fh(),
            layout: l,
            region: Region::new(0, 10),
            data: Bytes::from(vec![1u8; 10]),
        });
        // The crash comes once the next write's record has committed and
        // before any of its bytes reached the data file: the data file
        // goes back to what it holds now.
        let data = scratch.path().join(format!("h{}.data", fh().0));
        let before = std::fs::read(&data).unwrap();
        // Stripe 4 ([40,50)) also belongs to server 0.
        let (resp, _) = d.handle(&Request::Write {
            handle: fh(),
            layout: l,
            region: Region::new(40, 10),
            data: Bytes::from(vec![2u8; 10]),
        });
        assert!(matches!(resp, Response::Written { .. }));
        drop(d);
        std::fs::write(&data, before).unwrap();
        // A fresh daemon over the same directory replays the journal and
        // recovers the committed-but-unapplied batch.
        let d2 = IoDaemon::with_storage(ServerId(0), IodConfig::default(), storage);
        // Server 0's share of [0,50) is [0,10) ++ [40,50): 20 bytes.
        let (resp, _) = d2.handle(&Request::Read {
            handle: fh(),
            layout: l,
            region: Region::new(0, 50),
        });
        let mut expect = vec![1u8; 10];
        expect.extend_from_slice(&[2u8; 10]);
        assert_eq!(
            resp,
            Response::Data {
                data: Bytes::from(expect)
            }
        );
        assert!(d2.ledger().snapshot().journal_replays > 0);
    }

    #[test]
    fn storage_crash_wedges_the_handle_until_restart() {
        let scratch = pvfs_disk::ScratchDir::new("iod-wedge");
        let storage = StorageConfig::File {
            dir: scratch.path().to_path_buf(),
            sync: pvfs_disk::SyncPolicy::Always,
        };
        let l = layout();
        let write = |d: &IoDaemon, offset, byte| {
            d.handle(&Request::Write {
                handle: fh(),
                layout: l,
                region: Region::new(offset, 10),
                data: Bytes::from(vec![byte; 10]),
            })
            .0
        };
        let read = |d: &IoDaemon, len| {
            d.handle(&Request::Read {
                handle: fh(),
                layout: l,
                region: Region::new(0, len),
            })
            .0
        };
        let d = IoDaemon::with_storage(ServerId(0), IodConfig::default(), storage.clone());
        assert_eq!(write(&d, 0, 1), Response::Written { bytes: 10 });
        // Checkpointed: the journal is empty, the data file holds it all.
        assert!(matches!(
            d.handle(&Request::Sync { handle: fh() }).0,
            Response::Synced { .. }
        ));
        drop(d);
        // The disk fills up under the data file: a write's record commits
        // to the journal and its bytes fail behind it.
        let data = scratch.path().join(format!("h{}.data", fh().0));
        let kept = scratch.path().join("kept.data");
        std::fs::rename(&data, &kept).unwrap();
        std::os::unix::fs::symlink("/dev/full", &data).unwrap();
        let d = IoDaemon::with_storage(ServerId(0), IodConfig::default(), storage.clone());
        // Stripe 4 ([40,50)) also belongs to server 0.
        let resp = write(&d, 40, 2);
        assert!(matches!(resp, Response::Error(PvfsError::Storage(_))));
        assert_eq!(d.ledger().snapshot().errors, 1);
        // Wedged: not even a read is served until the daemon restarts.
        assert!(matches!(
            read(&d, 10),
            Response::Error(PvfsError::Storage(_))
        ));
        drop(d);
        std::fs::rename(&kept, &data).unwrap();
        // A fresh daemon over the same directory replays the journal and
        // recovers the committed-but-unapplied batch.
        let d2 = IoDaemon::with_storage(ServerId(0), IodConfig::default(), storage);
        // Server 0's share of [0,50) is [0,10) ++ [40,50): 20 bytes.
        let mut expect = vec![1u8; 10];
        expect.extend_from_slice(&[2u8; 10]);
        assert_eq!(
            read(&d2, 50),
            Response::Data {
                data: Bytes::from(expect)
            }
        );
        assert!(d2.ledger().snapshot().journal_replays > 0);
    }

    /// One scratch serves every request, as a connection's would: the
    /// read buffer is the same memory each time, dirty from the reply
    /// before — and no reply shows it.
    #[test]
    fn one_scratch_serves_reads_from_a_dirty_buffer_and_writes_from_one_run_list() {
        let dir = pvfs_disk::ScratchDir::new("iod-scratch");
        let on_disk = StorageConfig::File {
            dir: dir.path().to_path_buf(),
            sync: pvfs_disk::SyncPolicy::Always,
        };
        // One server holds everything: local offsets are file offsets.
        let l = StripeLayout::new(0, 1, 64).unwrap();
        for storage in [StorageConfig::Mem, on_disk] {
            let d = IoDaemon::with_storage(ServerId(0), IodConfig::default(), storage);
            let scratch = &mut Scratch::default();
            let mut serve = |request: Request| {
                let response = d.handle_with(&request, scratch);
                // The reply leaves (a copy of it stays, for the test to
                // look at); the buffer is the scratch's again.
                let (copy, at) = match response {
                    Response::Data { data } => {
                        let copy = Bytes::from(data.to_vec());
                        (Response::Data { data: copy }, data.as_ptr())
                    }
                    other => (other, std::ptr::null()),
                };
                scratch.reclaim_read();
                (copy, at, scratch.capacity())
            };
            let read = |handle, offset, len| Request::Read {
                handle,
                layout: l,
                region: Region::new(offset, len),
            };
            let regions = RegionList::from_pairs([(0, 300), (1000, 300)]).unwrap();
            let (written, _, room) = serve(Request::WriteList {
                handle: fh(),
                layout: l,
                regions: regions.clone(),
                data: Bytes::from(vec![0xAB; 600]),
            });
            assert_eq!(written, Response::Written { bytes: 600 });
            // The run list stays with the scratch: the same write again
            // needs no more room.
            let again = Request::WriteList {
                handle: fh(),
                layout: l,
                regions,
                data: Bytes::from(vec![0xAB; 600]),
            };
            assert_eq!((serve(again).2, room > 0), (room, true));

            let (dirty, buffer, _) = serve(read(fh(), 0, 300));
            assert_eq!(
                dirty,
                Response::Data {
                    data: vec![0xAB; 300].into()
                }
            );
            // Shorter and longer than the dirty reply; a hole, the tail
            // across EOF, all past EOF, a handle never written.
            for len in [100u64, 300, 290] {
                for (handle, offset, data) in [
                    (fh(), 400, 0),
                    (fh(), 1300 - 50, 50),
                    (fh(), 1 << 30, 0),
                    (FileHandle(77), 0, 0),
                ] {
                    serve(read(fh(), 0, 300));
                    let (reply, at, _) = serve(read(handle, offset, len));
                    let mut expect = vec![0u8; len as usize];
                    expect[..data].fill(0xAB);
                    assert_eq!(
                        reply,
                        Response::Data {
                            data: expect.into()
                        }
                    );
                    assert_eq!(at, buffer, "a buffer of its own is no test");
                }
            }
            // A longer reply is built in a longer buffer, as clean.
            let (reply, _, _) = serve(read(fh(), 250, 2000));
            let mut expect = vec![0u8; 2000];
            expect[..50].fill(0xAB);
            expect[750..1050].fill(0xAB);
            assert_eq!(
                reply,
                Response::Data {
                    data: expect.into()
                }
            );
        }
    }

    #[test]
    fn a_failed_read_keeps_the_buffer_and_sends_none_of_it() {
        let dir = pvfs_disk::ScratchDir::new("iod-failed-read");
        let storage = StorageConfig::File {
            dir: dir.path().to_path_buf(),
            sync: pvfs_disk::SyncPolicy::Always,
        };
        let l = StripeLayout::new(0, 1, 64).unwrap();
        let d = IoDaemon::with_storage(ServerId(0), IodConfig::default(), storage);
        let scratch = &mut Scratch::default();
        let write = |handle, offset, scratch: &mut Scratch| {
            let request = Request::Write {
                handle,
                layout: l,
                region: Region::new(offset, 100),
                data: Bytes::from(vec![0xAB; 100]),
            };
            d.handle_with(&request, scratch)
        };
        let read = |handle| Request::Read {
            handle,
            layout: l,
            region: Region::new(0, 100),
        };
        assert_eq!(write(fh(), 0, scratch), Response::Written { bytes: 100 });
        let dirty = d.handle_with(&read(fh()), scratch);
        assert!(matches!(dirty, Response::Data { .. }));
        drop(dirty);
        scratch.reclaim_read();
        let room = scratch.capacity();
        // A second handle's store cannot open: a directory squats on its
        // data file's name, so every access to it fails.
        let squatted = FileHandle(fh().0 + 1);
        std::fs::create_dir(dir.path().join(format!("h{}.data", squatted.0))).unwrap();
        assert!(matches!(write(squatted, 200, scratch), Response::Error(_)));
        let refused = d.handle_with(&read(squatted), scratch);
        assert!(matches!(refused, Response::Error(PvfsError::Storage(_))));
        scratch.reclaim_read();
        assert_eq!(
            scratch.capacity(),
            room,
            "the buffers stay with the scratch"
        );
    }

    /// A driver whose read buffers travel with the requests: whatever
    /// buffer a request brings — none, one too short, a dirty one — the
    /// reply is right, is built in that buffer when it fits and in a
    /// longer one when not, and a reply that has no use for the buffer
    /// leaves it to be sent back.
    #[test]
    fn a_scratch_serves_reads_into_the_buffer_it_adopts() {
        let l = StripeLayout::new(0, 1, 64).unwrap();
        let d = IoDaemon::with_defaults(ServerId(0));
        let scratch = &mut Scratch::default();
        let content: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let write = Request::Write {
            handle: fh(),
            layout: l,
            region: Region::new(0, 1000),
            data: Bytes::from(content.clone()),
        };
        let read = |offset, len| Request::Read {
            handle: fh(),
            layout: l,
            region: Region::new(offset, len),
        };
        // The reply's bytes, where they lie, and the buffer once the
        // reply is dropped and its last handle made writable again.
        let mut serve = |request: Request, buffer: BytesMut| {
            scratch.adopt_read(buffer);
            let response = d.handle_with(&request, scratch);
            let unused = scratch.release_read();
            match response {
                Response::Data { data } => {
                    assert_eq!(unused.capacity(), 0, "the buffer went with the reply");
                    let (bytes, at) = (data.to_vec(), data.as_ptr());
                    (bytes, at, data.try_into_mut().expect("the only handle"))
                }
                Response::Written { .. } => (Vec::new(), std::ptr::null(), unused),
                other => panic!("refused: {other:?}"),
            }
        };
        // A write has no use for the buffer it was brought.
        let mut dirty = BytesMut::zeroed(64);
        dirty.fill(0xAB);
        let at = dirty.as_ptr();
        let (_, _, unused) = serve(write, dirty);
        assert_eq!((unused.as_ptr(), unused.capacity()), (at, 64));
        // Long enough: the read is gathered into it, over what it held.
        let (bytes, served_at, home) = serve(read(10, 50), unused);
        assert_eq!((bytes, served_at), (content[10..60].to_vec(), at));
        assert_eq!(home.capacity(), 64, "the reply's buffer is the one lent");
        // Too short: let go for one that fits, which comes home — clean
        // where the file has a hole behind its end.
        let (bytes, _, home) = serve(read(900, 300), home);
        assert_eq!(bytes[..100], content[900..]);
        assert!(bytes[100..].iter().all(|b| *b == 0));
        assert_eq!(home.capacity(), 300);
        let at = home.as_ptr();
        let (bytes, served_at, _) = serve(read(0, 300), home);
        assert_eq!((bytes, served_at), (content[..300].to_vec(), at));
        // None: the empty buffer is as good as none, and one is made.
        let (bytes, _, home) = serve(read(500, 100), BytesMut::new());
        assert_eq!((bytes, home.capacity()), (content[500..600].to_vec(), 100));
    }

    #[test]
    fn list_read_cost_reports_per_region_accesses() {
        let l = layout();
        let d = IoDaemon::with_cost_model(ServerId(0), IodConfig::default());
        // Three regions on this server, each within one stripe, and a
        // fourth whose two stripes here are one local run.
        let regions = RegionList::from_pairs([(0, 4), (40, 4), (80, 4), (5, 40)]).unwrap();
        let (_, cost) = d.handle(&Request::ReadList {
            handle: fh(),
            layout: l,
            regions,
        });
        assert_eq!(cost.accesses, 4);
        let snap = d.ledger().snapshot();
        assert_eq!((snap.bytes_read, snap.regions), (12 + 10, 4));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use pvfs_types::RegionList;

    /// This daemon's share of `regions` read off the flat model: the
    /// bytes of its stripe segments, concatenated in request order;
    /// anything the model never saw reads as zeros.
    fn model_share(flat: &[u8], l: &StripeLayout, slot: u32, regions: &[Region]) -> Vec<u8> {
        regions
            .iter()
            .flat_map(|r| l.segments(*r))
            .filter(|s| s.slot == slot)
            .flat_map(|s| s.logical.offset..s.logical.end())
            .map(|at| flat.get(at as usize).copied().unwrap_or(0))
            .collect()
    }

    proptest! {
        /// Writing any byte range through per-server contiguous requests
        /// and reading it back — whole through per-server `Read`s, and
        /// strided through `ReadList` and `ReadVectors` (every read shape
        /// shares one gather) — reproduces a flat in-memory model of
        /// the file, for arbitrary layouts, on both storage backends.
        #[test]
        fn scatter_gather_roundtrip(
            pcount in 1u32..8,
            ssize in 1u64..64,
            offset in 0u64..500,
            len in 1usize..700,
            first in 0u64..600,
            blocklen in 1u64..150,
            gap in 0u64..90,
            count in 1u64..12,
        ) {
            let l = StripeLayout::new(0, pcount, ssize).unwrap();
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut flat = vec![0u8; offset as usize];
            flat.extend_from_slice(&data);
            let run = pvfs_proto::VectorRun {
                base: first,
                blocklen,
                stride: blocklen + gap,
                count,
            };
            let strided: Vec<Region> = run.regions().collect();

            let scratch = pvfs_disk::ScratchDir::new("iod-gather");
            let on_disk = StorageConfig::File {
                dir: scratch.path().to_path_buf(),
                sync: pvfs_disk::SyncPolicy::Never,
            };
            for storage in [StorageConfig::Mem, on_disk] {
                let mut daemons: Vec<IoDaemon> = (0..pcount)
                    .map(|i| {
                        IoDaemon::with_storage(
                            ServerId(i),
                            IodConfig::default(),
                            storage.for_daemon(i),
                        )
                    })
                    .collect();
                super::tests::write_all(&mut daemons, &l, offset, &data);
                let back = super::tests::read_all(
                    &mut daemons,
                    &l,
                    Region::new(offset, len as u64),
                );
                prop_assert_eq!(&back, &data);

                for (slot, d) in daemons.iter().enumerate() {
                    let want = Bytes::from(model_share(&flat, &l, slot as u32, &strided));
                    let (listed, _) = d.handle(&Request::ReadList {
                        handle: FileHandle(1),
                        layout: l,
                        regions: RegionList::from_regions(strided.clone()).unwrap(),
                    });
                    prop_assert_eq!(listed, Response::Data { data: want.clone() });
                    let (vectored, _) = d.handle(&Request::ReadVectors {
                        handle: FileHandle(1),
                        layout: l,
                        runs: vec![run],
                    });
                    prop_assert_eq!(vectored, Response::Data { data: want });
                }
            }
        }
    }
}
