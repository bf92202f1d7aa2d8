//! The traced run: the harness walks each op through the layers
//! itself, single-threaded, on the real functions, with a span around
//! every call — and sets the result against the live run and the
//! machine's ceilings.
//!
//! One op, as `PvfsFile::{read,write}_list` and the daemons execute it:
//! request → `core::plan` → per wire op: gather → encode → frame →
//! decode → `IoDaemon::handle` → encode → frame → decode → scatter.
//! What no stage owns — threads, queues, syscalls, wake-ups — is the
//! residual: the live run's op time minus the inline stages.

use crate::alloc::AllocCount;
use crate::ceilings::{self, Effort};
use crate::json::Value;
use crate::layers::{self, ClusterCfg, Daemons, Lists, Live, Request, Res, Store};
use crate::live::{self, LiveResult, Rank, StoreDir};
use crate::span::{self, Recorder, Span};
use crate::stats;
use crate::workload::{Backend, Kind, Method, Spec, Transport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How much the traced run does; the smoke run shrinks it.
#[derive(Debug, Clone, Copy)]
pub struct TraceOpts {
    /// Ops walked through the layers with spans.
    pub ops: usize,
    /// Ops replayed against the bare stores.
    pub disk_ops: usize,
    /// Pings per transport on an idle cluster.
    pub pings: usize,
    pub effort: Effort,
}

impl TraceOpts {
    pub fn full() -> TraceOpts {
        TraceOpts {
            ops: 200,
            disk_ops: 60,
            pings: 2000,
            effort: Effort::full(),
        }
    }

    pub fn smoke() -> TraceOpts {
        TraceOpts {
            ops: 20,
            disk_ops: 6,
            pings: 100,
            effort: Effort::smoke(),
        }
    }
}

/// Ops whose spans go into the trace file; the metrics use every op.
/// `cyclic_multiple_read` records 2 564 spans per op, so a file of all
/// 200 ops would run to ~80 MB.
const TRACE_FILE_OPS: u64 = 8;

/// The stages whose self times make up the inline cost of one op.
const STAGES: [&str; 11] = [
    "client.request",
    "core.plan",
    "client.gather",
    "proto.encode_req",
    "net.frame_io",
    "proto.decode_req",
    "server.handle",
    "proto.encode_resp",
    "proto.decode_resp",
    "client.scatter",
    GLUE,
];

/// Self time of the `op` / `round` / `rpc` spans: the walk's own loop
/// and the frees of what the stages allocated.
const GLUE: &str = "client.walk_glue";

/// What the walk counted besides time.
#[derive(Default)]
struct Shape {
    rpcs: u64,
    regions: u64,
    request_header_bytes: u64,
    payload_bytes: u64,
}

struct Walker<'a> {
    spec: &'a Spec,
    daemons: Daemons,
    pipe: Vec<u8>,
    next_id: u64,
}

/// Plan `lists` and hand every wire request to `each`, untimed —
/// the fill, the read-backs and the disk replays.
fn for_each_request(
    kind: Kind,
    method: Method,
    lists: &Lists,
    user: &mut [u8],
    mut each: impl FnMut(&layers::WireOp, Request, &mut [u8]) -> Res<()>,
) -> Res<()> {
    let request = layers::list_request(lists)?;
    let steps = layers::collect_steps(layers::plan(method, kind, &request)?)?;
    for step in &steps {
        let ops = layers::round_ops(step).ok_or("the walk handles round steps only")?;
        for wire in ops {
            let req = layers::wire_request(wire, user);
            each(wire, req, user)?;
        }
    }
    Ok(())
}

impl Walker<'_> {
    /// Serve `lists` on the private daemons without tracing.
    fn serve_untraced(&self, kind: Kind, lists: &Lists, user: &mut [u8]) -> Res<()> {
        for_each_request(kind, Method::List, lists, user, |wire, req, user| {
            let resp = self.daemons.serve(layers::wire_server(wire), &req);
            layers::scatter(wire, &resp, user)
        })
    }

    /// One op through every layer, a span around each call.
    fn walk_op(
        &mut self,
        rec: &mut Recorder,
        lists: &Lists,
        buf: &mut [u8],
        shape: &mut Shape,
    ) -> Res<()> {
        let (kind, method) = (self.spec.kind, self.spec.method);
        let tcp = self.spec.transport == Transport::Tcp;
        rec.enter("op");
        let request = rec.leaf("client.request", || layers::list_request(lists))?;
        // `write_list` runs the plan on a copy of the caller's buffer.
        let mut staged = match kind {
            Kind::Write => Some(rec.leaf("client.request", || buf.to_vec())),
            Kind::Read => None,
        };
        let user: &mut [u8] = staged.as_deref_mut().unwrap_or(buf);
        let plan = rec.leaf("core.plan", || layers::plan(method, kind, &request))?;
        // Steps are generated lazily: draining them is planning too.
        let steps = rec.leaf("core.plan", || layers::collect_steps(plan))?;
        for step in &steps {
            let ops = layers::round_ops(step).ok_or("the walk handles round steps only")?;
            rec.enter("round");
            for wire in ops {
                rec.enter("rpc");
                let id = self.next_id;
                self.next_id += 1;
                let server = layers::wire_server(wire);
                let req = rec.leaf("client.gather", || layers::wire_request(wire, user));
                let (regions, bulk) = layers::request_shape(&req);
                let frame = rec.leaf("proto.encode_req", || layers::encode_request(id, req))?;
                shape.rpcs += 1;
                shape.regions += regions as u64;
                shape.request_header_bytes += frame.len() as u64 - bulk;
                let frame = match tcp {
                    true => rec.leaf("net.frame_io", || {
                        layers::frame_roundtrip(&mut self.pipe, &frame)
                    })?,
                    false => frame,
                };
                let req = rec.leaf("proto.decode_req", || layers::decode_request(frame))?;
                let resp = rec.leaf("server.handle", || self.daemons.serve(server, &req));
                let frame = rec.leaf("proto.encode_resp", || layers::encode_response(id, &resp));
                let frame = match tcp {
                    true => rec.leaf("net.frame_io", || {
                        layers::frame_roundtrip(&mut self.pipe, &frame)
                    })?,
                    false => frame,
                };
                let resp = rec.leaf("proto.decode_resp", || layers::decode_response(frame))?;
                rec.leaf("client.scatter", || layers::scatter(wire, &resp, user))?;
                rec.exit();
            }
            rec.exit();
        }
        drop(steps);
        drop(staged);
        rec.exit();
        shape.payload_bytes += lists.payload_bytes();
        Ok(())
    }
}

/// Per-op totals of one stage, over every traced op.
struct StageTotals {
    /// Microseconds of self time per op.
    us: Vec<f64>,
    allocs: AllocCount,
}

/// Fold the spans into per-op, per-stage self times.
fn stage_totals(spans: &[Span], ops: usize) -> BTreeMap<&'static str, StageTotals> {
    let own = span::self_times_ns(spans);
    let mut totals: BTreeMap<&'static str, StageTotals> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let (name, leaf) = match s.name {
            "op" | "round" | "rpc" => (GLUE, false),
            name => (name, true),
        };
        let t = totals.entry(name).or_insert_with(|| StageTotals {
            us: vec![0.0; ops],
            allocs: AllocCount::default(),
        });
        t.us[s.op as usize] += own_ns as f64 / 1e3;
        if leaf {
            t.allocs.allocs += s.allocs.allocs;
            t.allocs.bytes += s.allocs.bytes;
        }
    }
    totals
}

fn median_us(samples: Vec<f64>) -> f64 {
    stats::median(&stats::sorted(samples))
}

/// Replay what the ops do to the daemons' local files, on the stores
/// themselves: `LocalFile` as the live path uses it, the bare
/// `SparseStore` under it, and (durable workload) `LocalFile` over
/// `FileStore`. Median microseconds per op of each.
struct DiskReplay {
    local_us: f64,
    bare_us: f64,
    durable_us: f64,
}

fn disk_replay(
    spec: &Spec,
    ranks: &mut [Rank],
    content: &[u8],
    ops: usize,
    dir: &Path,
) -> Res<DiskReplay> {
    let per_server = |make: &dyn Fn(u32) -> Res<Store>| -> Res<Vec<Store>> {
        (0..layers::SERVERS).map(make).collect()
    };
    let local = per_server(&|_| Ok(Store::local_mem()))?;
    let bare = per_server(&|_| Ok(Store::bare()))?;
    let durable_us = match spec.backend {
        Backend::Mem => 0.0,
        Backend::FileJournaled => {
            let stores = per_server(&|s| Store::local_durable(&dir.join(format!("replay{s}"))))?;
            replay_on(stores, spec, ranks, content, ops)?
        }
    };
    Ok(DiskReplay {
        local_us: replay_on(local, spec, ranks, content, ops)?,
        bare_us: replay_on(bare, spec, ranks, content, ops)?,
        durable_us,
    })
}

fn replay_on(
    mut stores: Vec<Store>,
    spec: &Spec,
    ranks: &mut [Rank],
    content: &[u8],
    ops: usize,
) -> Res<f64> {
    let mut scratch = Vec::new();
    // The same bytes under every store, so reads copy real data.
    let mut fill = content.to_vec();
    for_each_request(
        Kind::Write,
        Method::Multiple,
        &Lists::contiguous(content.len() as u64),
        &mut fill,
        |wire, req, _| {
            let server = layers::wire_server(wire);
            replay_request(&mut stores[server as usize], server, &req, &mut scratch)
        },
    )?;
    let mut per_op = Vec::with_capacity(ops);
    for k in 0..ops {
        let rank = &mut ranks[k % ranks.len()];
        // Build the requests first; time only the store calls.
        let mut requests = Vec::new();
        for_each_request(
            spec.kind,
            spec.method,
            &rank.lists,
            &mut rank.data,
            |wire, req, _| {
                requests.push((layers::wire_server(wire), req));
                Ok(())
            },
        )?;
        let mut spent = 0.0;
        for (server, req) in &requests {
            let t = Instant::now();
            replay_request(&mut stores[*server as usize], *server, req, &mut scratch)?;
            spent += t.elapsed().as_secs_f64() * 1e6;
        }
        per_op.push(spent);
    }
    Ok(median_us(per_op))
}

/// Apply one request's local runs on `server` to its store: writes as
/// one batch, reads run by run into a reused buffer.
fn replay_request(store: &mut Store, server: u32, req: &Request, scratch: &mut Vec<u8>) -> Res<()> {
    let payload = layers::request_payload(req);
    let runs = layers::local_runs(req, server);
    if payload.is_empty() {
        for (offset, len) in runs {
            if scratch.len() < len {
                scratch.resize(len, 0);
            }
            store.store_read(offset, &mut scratch[..len])?;
        }
        Ok(())
    } else {
        let mut at = 0;
        let batch: Vec<(u64, &[u8])> = runs
            .iter()
            .map(|(offset, len)| {
                let slice = &payload[at..at + len];
                at += len;
                (*offset, slice)
            })
            .collect();
        store.store_write(&batch)
    }
}

/// p50 of `n` pings on an idle cluster of the given transport.
fn ping_p50_us(transport: Transport, n: usize, dir: &Path) -> Res<f64> {
    let live = Live::spawn(&ClusterCfg {
        transport,
        backend: Backend::Mem,
        storage_dir: dir.to_path_buf(),
        emulated_latency: None,
    })?;
    for s in 0..layers::SERVERS {
        live.ping(s)?; // open the connections
    }
    let mut times = Vec::with_capacity(n);
    for k in 0..n.max(1) {
        let t = Instant::now();
        live.ping(k as u32 % layers::SERVERS)?;
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median_us(times))
}

/// Everything the traced run produced.
pub struct Traced {
    /// Per-layer metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    pub trace_file: PathBuf,
    /// Stage table for the detail line: median µs per op and share of
    /// the live op time.
    pub budget: Value,
    pub violations: Vec<String>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Walk `opts.ops` ops through the layers, replay the disk, ping, take
/// the ceilings, and set it all against `live`, the short untraced run
/// made just before in this process.
pub fn run(
    spec: &Spec,
    seed: u64,
    opts: TraceOpts,
    live: &LiveResult,
    out_dir: &Path,
) -> Res<Traced> {
    let dir = StoreDir::new(out_dir)?;
    let cfg = live::cluster_cfg(spec, &dir.path().join("walk"));
    let content = live::file_content(seed, layers::file_size(spec.pattern));
    let mut ranks = live::build_ranks(spec, &content)?;
    let mut violations = Vec::new();

    let mut walker = Walker {
        spec,
        daemons: Daemons::new(&cfg),
        pipe: Vec::with_capacity(4 << 20),
        next_id: 1,
    };
    // Fill the private daemons the way set-up fills the live ones.
    let mut fill_buf = content.clone();
    for_each_request(
        Kind::Write,
        Method::Multiple,
        &Lists::contiguous(content.len() as u64),
        &mut fill_buf,
        |wire, req, user| {
            let resp = walker.daemons.serve(layers::wire_server(wire), &req);
            layers::scatter(wire, &resp, user)
        },
    )?;
    drop(fill_buf);

    // One untraced-length walk to size the recorder, then the real one.
    let mut shape = Shape::default();
    let mut sizing = Recorder::with_capacity(1 << 16);
    let n_ranks = ranks.len();
    let (lists, buf) = ranks[0].op_args(spec.kind);
    walker.walk_op(&mut sizing, lists, buf, &mut shape)?;
    let spans_per_op = sizing.spans().len();
    drop(sizing);

    let mut shape = Shape::default();
    let mut rec = Recorder::with_capacity(spans_per_op * opts.ops + 16);
    let mut gen_us = Vec::with_capacity(opts.ops);
    let mut align_us = Vec::with_capacity(opts.ops);
    let mut regions_per_op = 0usize;
    let start_rank = (seed % n_ranks as u64) as usize;
    for k in 0..opts.ops {
        let r = (start_rank + k) % n_ranks;
        // The generator and the list alignment, timed on their own:
        // the live op receives generated lists, and `core::plan` runs
        // the alignment inside.
        let t = Instant::now();
        let fresh = layers::generate(spec.pattern, r as u64)?;
        gen_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        std::hint::black_box(layers::align(&fresh)?);
        align_us.push(t.elapsed().as_secs_f64() * 1e6);
        regions_per_op = fresh.file_regions();
        drop(fresh);

        let rank = &mut ranks[r];
        rec.set_op(k as u64);
        rank.prepare(spec.kind);
        let (lists, buf) = rank.op_args(spec.kind);
        walker.walk_op(&mut rec, lists, buf, &mut shape)?;
        if !rank.check(spec.kind) {
            violations.push(format!("traced op {k}: rank {r} read wrong bytes"));
        }
    }
    if spec.kind == Kind::Write {
        for (r, rank) in ranks.iter().enumerate() {
            let mut got = vec![0u8; rank.data.len()];
            walker.serve_untraced(Kind::Read, &rank.lists, &mut got)?;
            if !rank.holds(&got) {
                violations.push(format!(
                    "traced walk: rank {r} does not hold what was written"
                ));
            }
        }
    }
    drop(walker);

    let ops = opts.ops as f64;
    let totals = stage_totals(rec.spans(), opts.ops);
    let stage_us = |name: &str| totals.get(name).map_or(0.0, |t| median_us(t.us.clone()));
    let stage_allocs = |name: &str| totals.get(name).map_or(AllocCount::default(), |t| t.allocs);
    let rpcs_per_op = shape.rpcs as f64 / ops;
    let payload_per_op = shape.payload_bytes as f64 / ops;

    // The trace file: the first few ops, parents re-indexed.
    let kept: Vec<Span> = rec
        .spans()
        .iter()
        .take_while(|s| s.op < TRACE_FILE_OPS)
        .cloned()
        .collect();
    let trace_file = out_dir.join(format!("trace_{}.json", spec.name));
    std::fs::write(&trace_file, span::chrome_trace(&kept).render())
        .map_err(|e| format!("write {}: {e}", trace_file.display()))?;
    drop(kept);
    drop(rec);

    let disk = disk_replay(spec, &mut ranks, &content, opts.disk_ops, dir.path())?;
    let ping_chan = ping_p50_us(Transport::Chan, opts.pings, dir.path())?;
    let ping_tcp = ping_p50_us(Transport::Tcp, opts.pings, dir.path())?;
    let io = |e: std::io::Error| e.to_string();
    let e = opts.effort;
    let memcpy_gibs = ceilings::memcpy_gibs(e.memcpy_reps);
    let loopback_rtt = ceilings::loopback_rtt_us(e.echo_rounds).map_err(io)?;
    let loopback_gibs = ceilings::loopback_gibs(e.stream_mib).map_err(io)?;
    let handoff = ceilings::thread_handoff_us(e.handoff_rounds);
    let append_fsync = ceilings::append_fsync_us(dir.path(), e.fsync_reps).map_err(io)?;

    // The budget: inline stages + residual = the live op, by
    // construction.
    let live_op_us = live.op_p50_ms() * 1e3;
    let inline_us: f64 = STAGES.iter().map(|s| stage_us(s)).sum();
    let residual_us = live_op_us - inline_us;
    let mut budget = Value::obj();
    for s in STAGES {
        let mut row = Value::obj();
        row.push("us_per_op", stage_us(s))
            .push("share", ratio(stage_us(s), live_op_us));
        budget.push(s, row);
    }
    let mut row = Value::obj();
    row.push("us_per_op", residual_us)
        .push("share", ratio(residual_us, live_op_us));
    budget.push("net.residual", row);
    budget.push("live_op_p50_us", live_op_us);

    let proto_us = stage_us("proto.encode_req")
        + stage_us("proto.decode_req")
        + stage_us("proto.encode_resp")
        + stage_us("proto.decode_resp");
    let mut proto_allocs = AllocCount::default();
    for s in [
        "proto.encode_req",
        "proto.decode_req",
        "proto.encode_resp",
        "proto.decode_resp",
    ] {
        proto_allocs.allocs += stage_allocs(s).allocs;
        proto_allocs.bytes += stage_allocs(s).bytes;
    }
    let gibs = |bytes: f64, us: f64| ratio(bytes / (1u64 << 30) as f64, us / 1e6);
    let codec_gibs = gibs(payload_per_op, proto_us);
    let disk_mem_us = disk.local_us;
    let live_ops = live.ops_ok().max(1) as f64;
    let live_payload = live.payload_bytes.max(1) as f64;
    let c = &live.counters;
    let ticks = live.cpu_ticks;
    // Busy time of the pinned CPU that this process did not use: some
    // other process shared the CPU during the timed window.
    let foreign_s = (ticks.busy as f64 / 100.0 - live.cpu_total_ns as f64 / 1e9).max(0.0);
    let frames = 2.0 * shape.rpcs as f64; // one request + one response each

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("workloads.gen_us_per_op", median_us(gen_us));
    m.insert("workloads.regions_per_op", regions_per_op as f64);
    m.insert("workloads.payload_bytes_per_op", payload_per_op);
    let align = median_us(align_us);
    m.insert("types.align_us_per_op", align);
    // `core::plan` runs the alignment inside; what is left is its own.
    m.insert(
        "core.plan_us_per_op",
        (stage_us("core.plan") - align).max(0.0),
    );
    m.insert(
        "core.plan_allocs_per_op",
        stage_allocs("core.plan").allocs as f64 / ops,
    );
    m.insert("core.rounds_per_op", live.rounds as f64 / live_ops);
    m.insert("core.wire_requests_per_op", live.requests as f64 / live_ops);
    m.insert("proto.encode_req_us_per_op", stage_us("proto.encode_req"));
    m.insert("proto.decode_req_us_per_op", stage_us("proto.decode_req"));
    m.insert("proto.encode_resp_us_per_op", stage_us("proto.encode_resp"));
    m.insert("proto.decode_resp_us_per_op", stage_us("proto.decode_resp"));
    m.insert("proto.codec_gibs", codec_gibs);
    m.insert("proto.codec_memcpy_frac", ratio(codec_gibs, memcpy_gibs));
    m.insert(
        "proto.allocs_per_frame",
        ratio(proto_allocs.allocs as f64, frames),
    );
    m.insert(
        "proto.alloc_bytes_per_payload_byte",
        ratio(proto_allocs.bytes as f64, shape.payload_bytes as f64),
    );
    m.insert(
        "proto.header_bytes_per_region",
        ratio(shape.request_header_bytes as f64, shape.regions as f64),
    );
    m.insert("net.frame_io_us_per_op", stage_us("net.frame_io"));
    m.insert(
        "net.frame_allocs_per_frame",
        ratio(stage_allocs("net.frame_io").allocs as f64, frames),
    );
    m.insert("net.ping_chan_us_p50", ping_chan);
    m.insert("net.ping_tcp_us_p50", ping_tcp);
    m.insert("net.ping_chan_over_handoff", ratio(ping_chan, handoff));
    m.insert("net.ping_tcp_over_loopback", ratio(ping_tcp, loopback_rtt));
    m.insert("net.residual_ms_per_op", residual_us / 1e3);
    m.insert("net.residual_frac", ratio(residual_us, live_op_us));
    m.insert("net.attempts_per_op", c.attempts as f64 / live_ops);
    m.insert("net.retries_per_op", c.retries as f64 / live_ops);
    m.insert("net.sheds_seen", c.sheds_seen as f64);
    m.insert("net.breaker_rejections", c.breaker_rejections as f64);
    m.insert("server.handle_us_per_op", stage_us("server.handle"));
    m.insert(
        "server.handle_allocs_per_request",
        ratio(
            stage_allocs("server.handle").allocs as f64,
            shape.rpcs as f64,
        ),
    );
    m.insert("server.queue_wait_us_p50", c.queue_wait.p50_us());
    m.insert("server.service_us_p50", c.service.p50_us());
    m.insert("server.requests_per_op", c.requests as f64 / live_ops);
    m.insert(
        "server.regions_per_request",
        ratio(c.regions as f64, c.requests as f64),
    );
    m.insert("server.shed_per_op", c.shed as f64 / live_ops);
    let (mem_write, mem_read) = match spec.kind {
        Kind::Write => (disk_mem_us, 0.0),
        Kind::Read => (0.0, disk_mem_us),
    };
    m.insert("disk.mem_write_us_per_op", mem_write);
    m.insert("disk.mem_read_us_per_op", mem_read);
    m.insert(
        "disk.store_memcpy_frac",
        ratio(gibs(payload_per_op, disk_mem_us), memcpy_gibs),
    );
    m.insert(
        "disk.localfile_over_store",
        ratio(disk.local_us, disk.bare_us),
    );
    m.insert("disk.file_write_us_per_op", disk.durable_us);
    m.insert("disk.file_over_mem", ratio(disk.durable_us, disk_mem_us));
    m.insert("disk.fsyncs_per_op", c.fsyncs as f64 / live_ops);
    m.insert(
        "disk.journal_bytes_per_payload_byte",
        c.journal_bytes as f64 / live_payload,
    );
    m.insert("disk.fsync_us_p50", c.fsync.p50_us());
    m.insert("client.request_us_per_op", stage_us("client.request"));
    m.insert("client.gather_us_per_op", stage_us("client.gather"));
    m.insert("client.scatter_us_per_op", stage_us("client.scatter"));
    m.insert("client.walk_glue_us_per_op", stage_us(GLUE));
    m.insert(
        "client.copy_bytes_per_payload_byte",
        live.copy_bytes as f64 / live_payload,
    );
    m.insert("client.rpc_us_p50", live.rpc.p50_us());
    m.insert("client.goodput_mibs", live.goodput_mibs());
    m.insert("client.cpu_s_per_gib", live.cpu_s_per_gib());
    m.insert("client.op_p50_ms", live.op_p50_ms());
    m.insert("client.op_p90_ms", stats::percentile(&live.op_ms, 0.90));
    m.insert("client.op_p99_ms", stats::percentile(&live.op_ms, 0.99));
    m.insert(
        "client.op_max_ms",
        live.op_ms.last().copied().unwrap_or(0.0),
    );
    m.insert("ceiling.memcpy_gibs", memcpy_gibs);
    m.insert("ceiling.loopback_rtt_us", loopback_rtt);
    m.insert("ceiling.loopback_gibs", loopback_gibs);
    m.insert("ceiling.thread_handoff_us", handoff);
    m.insert("ceiling.append_fsync_us", append_fsync);
    m.insert(
        "machine.steal_frac",
        ratio(ticks.steal as f64, ticks.total as f64),
    );
    m.insert(
        "machine.foreign_cpu_frac",
        ratio(foreign_s, ticks.total as f64 / 100.0),
    );
    m.insert(
        "machine.slice_spread",
        stats::spread(&stats::sorted(live.slice_mibs.clone())),
    );
    m.insert("machine.traced_ops", ops);

    if rpcs_per_op != spec.frames_per_op as f64 {
        violations.push(format!(
            "the walk issued {rpcs_per_op} RPCs per op; the workload pins {}",
            spec.frames_per_op
        ));
    }
    Ok(Traced {
        metrics: m,
        trace_file,
        budget,
        violations,
    })
}
