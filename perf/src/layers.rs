//! The one file that calls into the repository's crates.
//!
//! Every other file of the harness speaks in its own types
//! ([`crate::workload`]) and plain numbers; each layer of the program
//! is reached through a thin function here, from outside, through its
//! public items. When a later change folds `encode_message` and
//! `encode_message_traced`, or `handle` and `handle_traced`, this file
//! is re-pointed and nothing else in the directory changes.

use crate::workload::{Backend, Kind, Method, Pattern, Transport, CYCLIC_ACCESS_BYTES};
use pvfs_client::PvfsFile;
use pvfs_core::exec::{scatter_response, wire_request as core_wire_request, Buffers};
use pvfs_core::{AccessPlan, IoKind, MethodConfig};
use pvfs_disk::{FileStore, LocalFile, SparseStore, StorageConfig, StorageMetrics, SyncPolicy};
use pvfs_net::tcp::frame::{read_frame, write_frame};
use pvfs_net::{ClusterClient, LiveCluster, TransportKind};
use pvfs_proto::Message;
use pvfs_server::{IoDaemon, IodConfig};
use pvfs_types::{
    align_lists, ClientId, FileHandle, Histogram, PvfsError, Region, RegionList, RequestId,
    ServerId, StripeLayout,
};
use pvfs_workloads::{verify, Cyclic, FlashIo, TiledViz};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

// Values the traced walk carries from one stage to the next; the
// harness never looks inside them.
pub use bytes::Bytes;
pub use pvfs_core::{ListRequest, Step, WireOp};
pub use pvfs_proto::{Request, Response};

/// The cluster every workload runs against.
pub const SERVERS: u32 = 4;
pub const STRIPE_BYTES: u64 = 16 * 1024;
/// Passed explicitly: `default_workers()` follows
/// `available_parallelism()`, which drops to 1 once the process is
/// pinned.
pub const WORKERS: usize = 2;
pub const QUEUE_DEPTH: usize = 64;
pub const FILE_PATH: &str = "/pvfs/perf";
/// The file backend's journal policy: every write batch is flushed
/// before it is acknowledged.
const JOURNAL_SYNC: SyncPolicy = SyncPolicy::Always;

/// Every knob of the program is an environment variable with this
/// prefix, read in nine files; the harness removes them all at start
/// and passes storage, transport and daemon configuration explicitly.
pub const ENV_PREFIX: &str = "PVFS_";

pub type Res<T> = Result<T, String>;

fn text(e: PvfsError) -> String {
    e.to_string()
}

fn layout() -> StripeLayout {
    StripeLayout::new(0, SERVERS, STRIPE_BYTES).expect("4 servers x 16 KiB is a valid layout")
}

fn io_kind(kind: Kind) -> IoKind {
    match kind {
        Kind::Read => IoKind::Read,
        Kind::Write => IoKind::Write,
    }
}

fn core_method(method: Method) -> pvfs_core::Method {
    match method {
        Method::List => pvfs_core::Method::List,
        Method::Multiple => pvfs_core::Method::Multiple,
    }
}

// ---------------------------------------------------------------- workloads

/// One rank's noncontiguous request: memory regions (offsets into the
/// rank's buffer) paired positionally with file regions.
pub struct Lists {
    mem: RegionList,
    file: RegionList,
}

impl Lists {
    /// One contiguous region, memory offset 0 onto file offset 0 — the
    /// shape of the initial fill.
    pub fn contiguous(len: u64) -> Lists {
        Lists {
            mem: RegionList::contiguous(0, len),
            file: RegionList::contiguous(0, len),
        }
    }

    pub fn payload_bytes(&self) -> u64 {
        self.file.total_len()
    }

    pub fn file_regions(&self) -> usize {
        self.file.count()
    }

    /// `(offset, len)` of every memory region, in list order.
    pub fn mem_regions(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.mem.iter().map(|r| (r.offset as usize, r.len as usize))
    }

    /// `(memory offset, file offset, len)` of every piece contiguous in
    /// both spaces (`types::align_lists`).
    pub fn pieces(&self) -> Res<Vec<(usize, u64, usize)>> {
        let pieces = align_lists(&self.mem, &self.file).map_err(text)?;
        Ok(pieces
            .into_iter()
            .map(|(m, f)| (m.offset as usize, f.offset, m.len as usize))
            .collect())
    }
}

fn cyclic(clients: u64, accesses: u64) -> Cyclic {
    Cyclic {
        clients,
        accesses_per_client: accesses,
        aggregate_bytes: clients * accesses * CYCLIC_ACCESS_BYTES,
    }
}

pub fn ranks(pattern: Pattern) -> u64 {
    match pattern {
        Pattern::Cyclic { clients, .. } => clients,
        Pattern::Tiled => TiledViz::paper().clients(),
        Pattern::Flash { nprocs, .. } => nprocs,
    }
}

pub fn file_size(pattern: Pattern) -> u64 {
    match pattern {
        Pattern::Cyclic { clients, accesses } => cyclic(clients, accesses).file_size(),
        Pattern::Tiled => TiledViz::paper().file_size(),
        Pattern::Flash { nprocs, blocks } => FlashIo::scaled(nprocs, blocks).file_size(),
    }
}

/// Size of one rank's memory buffer.
pub fn buffer_len(pattern: Pattern) -> usize {
    let bytes = match pattern {
        Pattern::Cyclic { accesses, .. } => accesses * CYCLIC_ACCESS_BYTES,
        Pattern::Tiled => {
            let t = TiledViz::paper();
            t.display_h * t.display_w * t.bytes_per_pixel
        }
        Pattern::Flash { nprocs, blocks } => FlashIo::scaled(nprocs, blocks).mem_bytes(),
    };
    bytes as usize
}

/// Run the pattern's generator for one rank.
pub fn generate(pattern: Pattern, rank: u64) -> Res<Lists> {
    let request = match pattern {
        Pattern::Cyclic { clients, accesses } => cyclic(clients, accesses).request_for(rank),
        Pattern::Tiled => TiledViz::paper().request_for(rank),
        Pattern::Flash { nprocs, blocks } => FlashIo::scaled(nprocs, blocks).request_for(rank),
    }
    .map_err(text)?;
    Ok(Lists {
        mem: request.mem,
        file: request.file,
    })
}

/// The canonical content byte at a file offset (`workloads::verify`).
pub fn content_byte(offset: u64) -> u8 {
    verify::byte_at(offset)
}

// ------------------------------------------------------------- live cluster

/// What distinguishes one workload's cluster from another's.
#[derive(Debug, Clone)]
pub struct ClusterCfg {
    pub transport: Transport,
    pub backend: Backend,
    /// Data directory of the file backend (unused on memory).
    pub storage_dir: PathBuf,
    pub emulated_latency: Option<Duration>,
}

impl ClusterCfg {
    fn iod(&self) -> IodConfig {
        IodConfig {
            workers: WORKERS,
            queue_depth: QUEUE_DEPTH,
            emulated_latency: self.emulated_latency,
            ..IodConfig::default()
        }
    }

    fn storage(&self) -> StorageConfig {
        match self.backend {
            Backend::Mem => StorageConfig::Mem,
            Backend::FileJournaled => StorageConfig::File {
                dir: self.storage_dir.clone(),
                sync: JOURNAL_SYNC,
            },
        }
    }

    fn kind(&self) -> TransportKind {
        match self.transport {
            Transport::Chan => TransportKind::Chan,
            Transport::Tcp => TransportKind::Tcp,
        }
    }

    /// Sync policy as the program spells it, for the `config` block.
    pub fn sync_policy(&self) -> String {
        match self.storage() {
            StorageConfig::Mem => "n/a".into(),
            StorageConfig::File { sync, .. } => sync.to_string(),
        }
    }
}

/// A log-bucketed latency distribution of the program's own
/// (`types::Histogram`, √2 bucket resolution).
#[derive(Debug, Clone, Default)]
pub struct Latency(Histogram);

impl Latency {
    pub fn merge(&mut self, other: &Latency) {
        self.0.merge(&other.0);
    }

    pub fn since(&self, earlier: &Latency) -> Latency {
        Latency(self.0.since(&earlier.0))
    }

    pub fn p50_us(&self) -> f64 {
        self.0.percentile_ns(0.5) as f64 / 1e3
    }
}

/// What one `read_list`/`write_list` call reports (`client::ExecReport`).
pub struct OpReport {
    pub rounds: u64,
    pub requests: u64,
    pub copy_bytes: u64,
    pub rpc: Latency,
}

/// Daemon counters summed over the four daemons (`stats_snapshot()`)
/// plus the client's reliability counters (`ClientStats`).
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub frames_rx: u64,
    pub wire_bytes: u64,
    pub requests: u64,
    pub regions: u64,
    pub errors: u64,
    pub shed: u64,
    pub fsyncs: u64,
    pub journal_bytes: u64,
    pub attempts: u64,
    pub retries: u64,
    pub sheds_seen: u64,
    pub breaker_rejections: u64,
    pub queue_wait: Latency,
    pub service: Latency,
    pub fsync: Latency,
}

impl Counters {
    pub fn since(&self, e: &Counters) -> Counters {
        Counters {
            frames_rx: self.frames_rx - e.frames_rx,
            wire_bytes: self.wire_bytes - e.wire_bytes,
            requests: self.requests - e.requests,
            regions: self.regions - e.regions,
            errors: self.errors - e.errors,
            shed: self.shed - e.shed,
            fsyncs: self.fsyncs - e.fsyncs,
            journal_bytes: self.journal_bytes - e.journal_bytes,
            attempts: self.attempts - e.attempts,
            retries: self.retries - e.retries,
            sheds_seen: self.sheds_seen - e.sheds_seen,
            breaker_rejections: self.breaker_rejections - e.breaker_rejections,
            queue_wait: self.queue_wait.since(&e.queue_wait),
            service: self.service.since(&e.service),
            fsync: self.fsync.since(&e.fsync),
        }
    }
}

/// A live cluster with one client and one open file. Field order is
/// drop order: the file and client go before the daemons they talk to.
pub struct Live {
    file: PvfsFile,
    client: ClusterClient,
    cluster: LiveCluster,
}

impl Live {
    /// `LiveCluster::spawn_storage` + one client + `PvfsFile::create`.
    pub fn spawn(cfg: &ClusterCfg) -> Res<Live> {
        let cluster = LiveCluster::spawn_storage(SERVERS, cfg.iod(), cfg.kind(), cfg.storage());
        let client = cluster.client();
        let file = PvfsFile::create(&client, FILE_PATH, layout()).map_err(text)?;
        Ok(Live {
            file,
            client,
            cluster,
        })
    }

    pub fn handle(&self) -> u64 {
        self.file.handle().0
    }

    /// Contiguous write (`PvfsFile::write_at`), for the initial fill.
    pub fn write_at(&mut self, offset: u64, data: &[u8]) -> Res<()> {
        self.file.write_at(offset, data).map(drop).map_err(text)
    }

    /// Contiguous read (`PvfsFile::read_at`), for the fill check.
    pub fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Res<()> {
        self.file.read_at(offset, buf).map(drop).map_err(text)
    }

    /// One measured op: `PvfsFile::read_list` or `write_list`.
    pub fn run_op(
        &mut self,
        kind: Kind,
        method: Method,
        lists: &Lists,
        buf: &mut [u8],
    ) -> Res<OpReport> {
        let method = core_method(method);
        let report = match kind {
            Kind::Read => self.file.read_list(&lists.mem, &lists.file, buf, method),
            Kind::Write => self.file.write_list(&lists.mem, &lists.file, buf, method),
        }
        .map_err(text)?;
        Ok(OpReport {
            rounds: report.rounds,
            requests: report.requests,
            copy_bytes: report.copy_bytes,
            rpc: Latency(report.rpc_latency),
        })
    }

    /// `PvfsFile::sync`: every daemon fsyncs its stripe file and
    /// checkpoints its journal. Returns the bytes now durable, summed
    /// over the daemons (0 on the memory backend).
    pub fn sync(&self) -> Res<u64> {
        self.file.sync().map_err(text)
    }

    /// `ClusterClient::ping` to one daemon.
    pub fn ping(&self, server: u32) -> Res<()> {
        self.client.ping(ServerId(server)).map(drop).map_err(text)
    }

    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for s in 0..SERVERS {
            let snap = self
                .cluster
                .stats_snapshot(ServerId(s))
                .expect("daemon ids are 0..SERVERS");
            c.frames_rx += snap.frames_rx;
            c.wire_bytes += snap.bytes_rx + snap.bytes_tx;
            c.requests += snap.requests;
            c.regions += snap.regions;
            c.errors += snap.errors;
            c.shed += snap.requests_shed;
            c.fsyncs += snap.fsyncs;
            c.journal_bytes += snap.journal_bytes;
            c.queue_wait.0.merge(&snap.queue_wait);
            c.service.0.merge(&snap.service_time);
            c.fsync.0.merge(&snap.fsync_time);
        }
        let stats = self.client.stats();
        c.attempts = stats.attempts;
        c.retries = stats.retries;
        c.sheds_seen = stats.sheds_seen;
        c.breaker_rejections = stats.breaker_rejections;
        c
    }
}

// ------------------------------------------------- the op, layer by layer

/// The handle the private daemons of the traced walk store under.
const WALK_HANDLE: FileHandle = FileHandle(1);

/// What `PvfsFile::{read,write}_list` does before planning: clone both
/// lists into a validated request.
pub fn list_request(lists: &Lists) -> Res<ListRequest> {
    ListRequest::new(lists.mem.clone(), lists.file.clone()).map_err(text)
}

/// `types::align_lists` on its own; `core::plan` runs it inside.
pub fn align(lists: &Lists) -> Res<usize> {
    align_lists(&lists.mem, &lists.file)
        .map(|p| p.len())
        .map_err(text)
}

/// `core::plan` under the paper-default method configuration.
pub fn plan(method: Method, kind: Kind, request: &ListRequest) -> Res<AccessPlan> {
    pvfs_core::plan(
        core_method(method),
        io_kind(kind),
        request,
        WALK_HANDLE,
        layout(),
        &MethodConfig::paper_default(),
    )
    .map_err(text)
}

/// Drain a plan's lazy steps. The workloads use list and multiple I/O
/// only, whose plans need no temp buffers and no serial sections.
pub fn collect_steps(plan: AccessPlan) -> Res<Vec<Step>> {
    if !plan.temp_sizes.is_empty() {
        return Err("the walk handles plans without temp buffers only".into());
    }
    Ok(plan.collect_steps())
}

/// The wire ops of a round step (`None` for any other step).
pub fn round_ops(step: &Step) -> Option<&[WireOp]> {
    match step {
        Step::Round(ops) => Some(ops),
        _ => None,
    }
}

pub fn wire_server(op: &WireOp) -> u32 {
    op.server.0
}

/// `core::exec::wire_request`: build the request, gathering the write
/// payload out of the user buffer.
pub fn wire_request(op: &WireOp, user: &mut [u8]) -> Request {
    let bufs = Buffers {
        user,
        temps: &mut [],
    };
    core_wire_request(op, WALK_HANDLE, &layout(), &bufs)
}

/// (file regions named, payload bytes carried) of a request.
pub fn request_shape(request: &Request) -> (usize, u64) {
    (request.region_count(), request.bulk_len())
}

/// The payload a write request carries (empty for reads).
pub fn request_payload(request: &Request) -> &[u8] {
    match request {
        Request::Write { data, .. } | Request::WriteList { data, .. } => data,
        _ => &[],
    }
}

/// `proto::encode_message`, as the client does for an untraced request.
pub fn encode_request(id: u64, request: Request) -> Res<Bytes> {
    pvfs_proto::encode_message(&Message {
        client: ClientId(0),
        id: RequestId(id),
        request,
    })
    .map_err(text)
}

/// `proto::decode_message`, as a daemon worker does.
pub fn decode_request(frame: Bytes) -> Res<Request> {
    pvfs_proto::decode_message(frame)
        .map(|m| m.request)
        .map_err(text)
}

/// `net::tcp::frame::write_frame` then `read_frame` through an
/// in-memory pipe: the framing's own copies and allocation, without
/// the kernel's.
pub fn frame_roundtrip(pipe: &mut Vec<u8>, frame: &[u8]) -> Res<Bytes> {
    pipe.clear();
    write_frame(pipe, frame).map_err(|e| e.to_string())?;
    read_frame(&mut pipe.as_slice()).map_err(|e| text(e.into_pvfs("pipe")))
}

pub fn encode_response(id: u64, response: &Response) -> Bytes {
    pvfs_proto::encode_response(RequestId(id), response)
}

pub fn decode_response(frame: Bytes) -> Res<Response> {
    pvfs_proto::decode_response(frame)
        .map(|(_, r)| r)
        .map_err(text)
}

/// What the client does with a reply: `core::exec::scatter_response`
/// for data, nothing for a write acknowledgement.
pub fn scatter(op: &WireOp, response: &Response, user: &mut [u8]) -> Res<()> {
    match response {
        Response::Data { data } => {
            let mut bufs = Buffers {
                user,
                temps: &mut [],
            };
            scatter_response(&op.op, &layout(), op.server, data, &mut bufs)
                .map(drop)
                .map_err(text)
        }
        Response::Written { .. } => Ok(()),
        other => Err(format!("unexpected response {other:?}")),
    }
}

/// Four private daemons on the workload's backend, served inline on the
/// calling thread (`IoDaemon::handle`) — no queue, no worker, no
/// transport.
pub struct Daemons(Vec<IoDaemon>);

impl Daemons {
    pub fn new(cfg: &ClusterCfg) -> Daemons {
        let storage = cfg.storage();
        Daemons(
            (0..SERVERS)
                .map(|s| IoDaemon::with_storage(ServerId(s), cfg.iod(), storage.for_daemon(s)))
                .collect(),
        )
    }

    pub fn serve(&self, server: u32, request: &Request) -> Response {
        self.0[server as usize].handle(request).0
    }
}

// --------------------------------------------------------------------- disk

/// The local runs `(offset, len)` one request touches on `server`,
/// consecutive stripes merged as the daemon merges them.
pub fn local_runs(request: &Request, server: u32) -> Vec<(u64, usize)> {
    let one;
    let (layout, regions): (&StripeLayout, &[Region]) = match request {
        Request::Read { layout, region, .. } | Request::Write { layout, region, .. } => {
            one = [*region];
            (layout, &one)
        }
        Request::ReadList {
            layout, regions, ..
        }
        | Request::WriteList {
            layout, regions, ..
        } => (layout, regions.regions()),
        _ => return Vec::new(),
    };
    let slot = server - layout.base;
    let mut runs: Vec<(u64, usize)> = Vec::new();
    for region in regions {
        for seg in layout.segments(*region).filter(|s| s.slot == slot) {
            let len = seg.logical.len as usize;
            match runs.last_mut() {
                Some((start, run)) if *start + *run as u64 == seg.local_offset => *run += len,
                _ => runs.push((seg.local_offset, len)),
            }
        }
    }
    runs
}

/// One daemon-local file, three ways: the bare in-memory store, the
/// `LocalFile` the live path wraps around it (buffer-cache and disk
/// cost models included), and `LocalFile` over the durable `FileStore`.
pub enum Store {
    Bare(SparseStore),
    Local(LocalFile),
}

impl Store {
    pub fn bare() -> Store {
        Store::Bare(SparseStore::new())
    }

    pub fn local_mem() -> Store {
        let cfg = IodConfig::default();
        Store::Local(LocalFile::new(cfg.cache, cfg.disk))
    }

    /// `LocalFile::with_backend(FileStore)` under `dir`, journaled as
    /// the live daemons' stores are.
    pub fn local_durable(dir: &Path) -> Res<Store> {
        let cfg = IodConfig::default();
        let store = FileStore::open(
            dir,
            WALK_HANDLE.0,
            JOURNAL_SYNC,
            Arc::new(StorageMetrics::default()),
        )
        .map_err(text)?;
        Ok(Store::Local(LocalFile::with_backend(
            cfg.cache,
            cfg.disk,
            Box::new(store),
        )))
    }

    /// `LocalFile::write_batch` / `SparseStore::write_at` per run.
    pub fn store_write(&mut self, runs: &[(u64, &[u8])]) -> Res<()> {
        match self {
            Store::Bare(s) => {
                for (offset, data) in runs {
                    s.write_at(*offset, data);
                }
                Ok(())
            }
            Store::Local(f) => f.write_batch(runs).map(drop).map_err(text),
        }
    }

    /// `LocalFile::read_into` / `SparseStore::read_at`.
    pub fn store_read(&mut self, offset: u64, buf: &mut [u8]) -> Res<()> {
        match self {
            Store::Bare(s) => {
                s.read_at(offset, buf);
                Ok(())
            }
            Store::Local(f) => f.read_into(offset, buf).map(drop).map_err(text),
        }
    }
}
