//! The discrete-event plan executor.

use crate::{EventQueue, FifoResource, SimTime, COST};
use bytes::BytesMut;
use pvfs_core::exec::copy_bytes;
use pvfs_core::{AccessPlan, ExecReport, Runner, Step, UserBuf, WireOp};
use pvfs_proto::{IoKind, Request, Response, Shape};
use pvfs_server::{IoDaemon, IodConfig};
use pvfs_types::{FileHandle, Histogram, PvfsError, PvfsResult, Region, ServerId, StripeLayout};
use std::collections::VecDeque;

/// One simulated compute node's work: a compiled plan and the user
/// buffer it reads from / writes into.
pub struct ClientJob {
    /// The access plan to execute.
    pub plan: AccessPlan,
    /// The user buffer (read destination / write source).
    pub user: Vec<u8>,
}

/// Whole-run outcome.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Completion time of the slowest client — the paper's reported
    /// per-test time.
    pub makespan: SimTime,
    /// What each client's runner counted, its virtual round trips
    /// (issue → response fully processed) in `rpc_latency`.
    pub clients: Vec<ExecReport>,
    /// Virtual time at which each client's plan completed.
    pub finish: Vec<SimTime>,
    /// Total requests served per I/O daemon.
    pub server_requests: Vec<u64>,
    /// Per-server CPU busy time (ns) — queueing evidence for the
    /// block-block analysis.
    pub server_busy_ns: Vec<u64>,
}

impl SimReport {
    /// Makespan in seconds (figure y-axes).
    pub fn seconds(&self) -> f64 {
        self.makespan.as_secs_f64()
    }

    /// Total requests across all servers.
    pub fn total_requests(&self) -> u64 {
        self.server_requests.iter().sum()
    }
}

/// One metadata round trip (open/close at the manager), for the Fig. 17
/// harness's open/close bars; the manager is deliberately outside the
/// simulated data path, as in PVFS.
pub fn metadata_rtt_ns() -> u64 {
    COST.client.per_request_ns
        + 2 * COST.net.latency_ns
        + COST.net.transfer_ns(64) * 2
        + COST.server.per_request_ns
}

/// The simulated cluster: real daemons + virtual-time resources.
pub struct SimCluster {
    daemons: Vec<IoDaemon>,
    server_cpu: Vec<FifoResource>,
    server_tx: Vec<FifoResource>,
    server_rx: Vec<FifoResource>,
}

impl SimCluster {
    /// A cluster of `n_servers` I/O daemons, each with the default
    /// disk and cache models, priced by [`COST`].
    pub fn new(n_servers: u32) -> SimCluster {
        assert!(n_servers > 0);
        let iod = IodConfig::default();
        SimCluster {
            daemons: (0..n_servers)
                .map(|i| IoDaemon::with_cost_model(ServerId(i), iod))
                .collect(),
            server_cpu: vec![FifoResource::new(); n_servers as usize],
            server_tx: vec![FifoResource::new(); n_servers as usize],
            server_rx: vec![FifoResource::new(); n_servers as usize],
        }
    }

    /// Paper-default cluster: 8 I/O servers, default disk and cache.
    pub fn paper_default() -> SimCluster {
        SimCluster::new(8)
    }

    /// Direct daemon access (verification).
    pub fn daemon(&self, id: ServerId) -> &IoDaemon {
        &self.daemons[id.index()]
    }

    /// Pre-load file content outside simulated time (test/bench setup
    /// for read experiments).
    pub fn seed_file(&mut self, handle: FileHandle, layout: &StripeLayout, content: &[u8]) {
        let whole = Region::new(0, content.len() as u64);
        self.seed(handle, layout, whole, content);
    }

    /// Warm-seed a file: write zeros across `[0, len)` and flush, so
    /// the whole file is resident and clean in every server's buffer
    /// cache. Read experiments start warm (the paper averaged repeated
    /// runs) and write experiments measure the write path, not phantom
    /// cold-read disk costs. Runs outside simulated time.
    pub fn seed_warm(&mut self, handle: FileHandle, layout: &StripeLayout, len: u64) {
        const CHUNK: u64 = 1 << 20;
        let zeros = vec![0u8; CHUNK as usize];
        for off in (0..len).step_by(CHUNK as usize) {
            let region = Region::new(off, CHUNK.min(len - off));
            self.seed(handle, layout, region, &zeros);
        }
        for d in &mut self.daemons {
            d.flush_handle(handle);
        }
    }

    /// Pre-extend a file with zeros up to `len` bytes outside simulated
    /// time — cheap setup for paper-scale read workloads where content
    /// is irrelevant to timing: one byte, the last of `[0, len)` each
    /// slot holds.
    pub fn seed_extent(&mut self, handle: FileHandle, layout: &StripeLayout, len: u64) {
        for slot in 0..layout.pcount {
            let last = layout.segments_on(Region::new(0, len), slot).last();
            if let Some(seg) = last {
                self.seed(handle, layout, Region::new(seg.logical.end() - 1, 1), &[0]);
            }
        }
    }

    /// The one share walk seeding writes through, outside simulated
    /// time: to each slot holding part of `region`, in slot order, one
    /// `Write` of `region` carrying that part of `content` (which holds
    /// `region`'s bytes from its start).
    fn seed(&mut self, handle: FileHandle, layout: &StripeLayout, region: Region, content: &[u8]) {
        for slot in 0..layout.pcount {
            let share: Vec<u8> = layout
                .segments_on(region, slot)
                .flat_map(|s| {
                    let at = (s.logical.offset - region.offset) as usize;
                    &content[at..at + s.logical.len as usize]
                })
                .copied()
                .collect();
            if share.is_empty() {
                continue;
            }
            let daemon = &self.daemons[layout.server_at_slot(slot).index()];
            let shape = Shape::Contiguous(region);
            let write = Request::data(IoKind::Write, handle, *layout, shape, share.into());
            let (resp, _) = daemon.handle(&write);
            assert!(matches!(resp, Response::Written { .. }), "seeding failed");
        }
    }

    /// Execute all jobs to completion in virtual time; returns the
    /// report and the final user buffers (read results), in job order.
    /// Server request counts and busy times in the report cover this run
    /// only (seeding is excluded).
    pub fn run(&mut self, jobs: Vec<ClientJob>) -> PvfsResult<(SimReport, Vec<Vec<u8>>)> {
        let (base_requests, base_busy) = self.server_counts();
        let (plans, mut users): (Vec<_>, Vec<_>) =
            jobs.into_iter().map(|j| (j.plan, j.user)).unzip();
        let mut report = Engine::new(self, plans, &mut users)?.run()?;
        let (requests, busy) = self.server_counts();
        let since =
            |now: Vec<u64>, base: Vec<u64>| now.iter().zip(base).map(|(n, b)| n - b).collect();
        report.server_requests = since(requests, base_requests);
        report.server_busy_ns = since(busy, base_busy);
        Ok((report, users))
    }

    /// Requests served and CPU time busy so far, per daemon.
    fn server_counts(&self) -> (Vec<u64>, Vec<u64>) {
        let requests = self.daemons.iter().map(|d| d.ledger().snapshot().requests);
        let busy = self.server_cpu.iter().map(FifoResource::busy_ns);
        (requests.collect(), busy.collect())
    }
}

// ---------------------------------------------------------------------
// engine internals
// ---------------------------------------------------------------------

enum Ev {
    /// The client is ready to process its next plan step.
    Step(usize),
    /// A request frame has fully left the client NIC and propagated.
    Arrive(usize),
    /// A response frame has fully left the server NIC and propagated.
    Complete(usize),
}

struct InFlight {
    client: usize,
    issued_at: SimTime,
    wire: WireOp,
    request: Option<Request>,
    req_control: u64,
    req_bulk: u64,
    response: Option<Response>,
    resp_control: u64,
    resp_bulk: u64,
}

struct ClientState<'u> {
    runner: Runner<'u>,
    cpu: FifoResource,
    tx: FifoResource,
    rx: FifoResource,
    pending: usize,
    round_finish: SimTime,
    rtt: Histogram,
    finish: Option<SimTime>,
}

struct Engine<'a, 'u> {
    cluster: &'a mut SimCluster,
    clients: Vec<ClientState<'u>>,
    queue: EventQueue<Ev>,
    inflight: Vec<Option<InFlight>>,
    free_slots: Vec<usize>,
    serial_held: bool,
    serial_waiting: VecDeque<usize>,
    now: SimTime,
}

impl<'a, 'u> Engine<'a, 'u> {
    fn new(
        cluster: &'a mut SimCluster,
        plans: Vec<AccessPlan>,
        users: &'u mut [Vec<u8>],
    ) -> PvfsResult<Engine<'a, 'u>> {
        let mut queue = EventQueue::new();
        let mut clients = Vec::with_capacity(plans.len());
        for (plan, user) in plans.into_iter().zip(users) {
            let user = match plan.kind {
                IoKind::Read => UserBuf::Read(user),
                IoKind::Write => UserBuf::Write(user),
            };
            queue.push(SimTime::ZERO, Ev::Step(clients.len()));
            clients.push(ClientState {
                runner: Runner::new(plan, user)?,
                cpu: FifoResource::new(),
                tx: FifoResource::new(),
                rx: FifoResource::new(),
                pending: 0,
                round_finish: SimTime::ZERO,
                rtt: Histogram::new(),
                finish: None,
            });
        }
        Ok(Engine {
            cluster,
            clients,
            queue,
            inflight: Vec::new(),
            free_slots: Vec::new(),
            serial_held: false,
            serial_waiting: VecDeque::new(),
            now: SimTime::ZERO,
        })
    }

    /// Run every client's plan to completion.
    fn run(mut self) -> PvfsResult<SimReport> {
        while let Some((t, ev)) = self.queue.pop() {
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            match ev {
                Ev::Step(c) => self.on_step(c, t)?,
                Ev::Arrive(slot) => self.on_arrive(slot, t)?,
                Ev::Complete(slot) => self.on_complete(slot, t)?,
            }
        }
        let mut report = SimReport::default();
        for (c, client) in self.clients.into_iter().enumerate() {
            let Some(finish) = client.finish else {
                return Err(PvfsError::protocol(format!(
                    "simulation deadlock: client {c} never finished (serial section misuse?)"
                )));
            };
            report.makespan = report.makespan.max(finish);
            report.finish.push(finish);
            let mut counted = client.runner.into_report();
            counted.rpc_latency = client.rtt;
            report.clients.push(counted);
        }
        Ok(report)
    }

    fn on_step(&mut self, c: usize, t: SimTime) -> PvfsResult<()> {
        let state = &mut self.clients[c];
        match state.runner.step() {
            None => {
                state.finish = Some(t);
                Ok(())
            }
            Some(Step::Round(round)) => {
                state.pending = round.len();
                state.round_finish = t;
                let mut cur = t;
                for wire in state.runner.count(round) {
                    // Build the request, gathering real payload bytes
                    // (a read's fragments are counted at scatter time).
                    let (request, fragments) =
                        state.runner.request(&wire, 0, BytesMut::with_capacity);
                    let req_control = request.control_wire_size();
                    let req_bulk = request.bulk_len();
                    // Client CPU: issue + per-fragment gather work +
                    // payload copy.
                    let send_cpu = COST.client.per_request_ns
                        + fragments * COST.client.per_fragment_ns
                        + COST.client.memcpy_ns(req_bulk);
                    let (_, cpu_end) = state.cpu.acquire(cur, send_cpu);
                    cur = cpu_end;
                    // Client NIC tx, then the wire.
                    let wire_ns = COST.net.transfer_ns(req_control + req_bulk);
                    let (_, tx_end) = state.tx.acquire(cpu_end, wire_ns);
                    let arrive_at = tx_end + COST.net.latency_ns;
                    let flight = InFlight {
                        client: c,
                        issued_at: t,
                        wire,
                        request: Some(request),
                        req_control,
                        req_bulk,
                        response: None,
                        resp_control: 0,
                        resp_bulk: 0,
                    };
                    // Inline slot allocation: `state` still borrows
                    // self.clients, but free_slots/inflight/queue are
                    // disjoint fields.
                    let slot = if let Some(s) = self.free_slots.pop() {
                        self.inflight[s] = Some(flight);
                        s
                    } else {
                        self.inflight.push(Some(flight));
                        self.inflight.len() - 1
                    };
                    self.queue.push(arrive_at, Ev::Arrive(slot));
                }
                Ok(())
            }
            Some(Step::Copy(pairs)) => {
                let copied = COST.client.memcpy_ns(copy_bytes(&pairs));
                let (_, end) = state.cpu.acquire(t, copied);
                self.queue.push(end, Ev::Step(c));
                Ok(())
            }
            Some(Step::SerialBegin) => {
                if self.serial_held {
                    self.serial_waiting.push_back(c);
                } else {
                    self.serial_held = true;
                    self.queue.push(t, Ev::Step(c));
                }
                Ok(())
            }
            Some(Step::SerialEnd) => {
                debug_assert!(self.serial_held, "SerialEnd without SerialBegin");
                self.serial_held = false;
                let release = t + COST.serial_handoff_ns;
                if let Some(next) = self.serial_waiting.pop_front() {
                    self.serial_held = true;
                    self.queue.push(release, Ev::Step(next));
                }
                self.queue.push(t, Ev::Step(c));
                Ok(())
            }
            // No cost model prices a collective's exchange yet.
            Some(Step::Exchange(_)) => Err(PvfsError::invalid(format!(
                "client {c}'s plan holds an exchange, which the simulator does not price"
            ))),
        }
    }

    fn on_arrive(&mut self, slot: usize, t: SimTime) -> PvfsResult<()> {
        let flight = self.inflight[slot].as_mut().expect("live flight");
        let server = flight.wire.server;
        let sidx = server.index();
        if sidx >= self.cluster.daemons.len() {
            return Err(PvfsError::NoSuchServer(server.0));
        }
        // Receiving NIC drains the frame.
        let wire_ns = COST.net.transfer_ns(flight.req_control + flight.req_bulk);
        let (_, rx_end) = self.cluster.server_rx[sidx].acquire(t, wire_ns);
        // Serve (real data movement) and charge the CPU + disk: per
        // request, per region it names, per local access its file made.
        let request = flight.request.take().expect("request present");
        let (response, charged) = self.cluster.daemons[sidx].handle(&request);
        if let Response::Error(e) = response {
            return Err(e);
        }
        let service = COST.server.per_request_ns
            + request.region_count() as u64 * COST.server.per_region_ns
            + charged.accesses * COST.server.per_access_ns
            + charged.disk_ns;
        let (_, cpu_end) = self.cluster.server_cpu[sidx].acquire(rx_end, service);
        // The write-ACK stall delays the response without occupying any
        // resource: parallel writes in one round overlap their stalls.
        let ack_stall = if request.is_write() {
            COST.net.write_ack_stall_ns
        } else {
            0
        };
        // Response back through the server NIC.
        flight.resp_bulk = response.bulk_len();
        flight.resp_control = 32;
        flight.response = Some(response);
        let resp_wire = COST.net.transfer_ns(flight.resp_control + flight.resp_bulk);
        let (_, stx_end) = self.cluster.server_tx[sidx].acquire(cpu_end, resp_wire);
        self.queue.push(
            stx_end + COST.net.latency_ns + ack_stall,
            Ev::Complete(slot),
        );
        Ok(())
    }

    fn on_complete(&mut self, slot: usize, t: SimTime) -> PvfsResult<()> {
        let flight = self.inflight[slot].take().expect("live flight");
        self.free_slots.push(slot);
        let state = &mut self.clients[flight.client];
        // Client NIC rx.
        let wire_ns = COST.net.transfer_ns(flight.resp_control + flight.resp_bulk);
        let (_, rx_end) = state.rx.acquire(t, wire_ns);
        // Receive processing: scatter (real bytes) + per-fragment cost.
        let response = flight.response.expect("response present");
        let fragments = state.runner.landed(&flight.wire, response, 0)?;
        let recv_cpu =
            fragments * COST.client.per_fragment_ns + COST.client.memcpy_ns(flight.resp_bulk);
        let (_, done) = state.cpu.acquire(rx_end, recv_cpu);
        state.rtt.record(done - flight.issued_at);
        state.round_finish = state.round_finish.max(done);
        state.pending -= 1;
        if state.pending == 0 {
            self.queue.push(state.round_finish, Ev::Step(flight.client));
        }
        Ok(())
    }
}
