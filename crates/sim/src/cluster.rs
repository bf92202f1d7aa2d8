//! The discrete-event plan executor.

use crate::{CostConfig, EventQueue, FifoResource, SimTime};
use bytes::{Bytes, BytesMut};
use pvfs_core::exec::{
    alloc_temps, apply_copies, copy_bytes, scatter_response, wire_request_into, Buffers,
};
use pvfs_core::{AccessPlan, Step, WireOp};
use pvfs_proto::{Request, Response};
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

/// Per-client outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientReport {
    /// Virtual time at which this client's plan completed.
    pub finish: SimTime,
    /// Wire requests issued.
    pub requests: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Bytes sent (request bulk payloads).
    pub bytes_sent: u64,
    /// Bytes received (response bulk payloads).
    pub bytes_received: u64,
    /// Client-side copy traffic.
    pub copy_bytes: u64,
    /// Serial sections entered.
    pub serial_sections: u64,
}

/// Whole-run outcome.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Completion time of the slowest client — the paper's reported
    /// per-test time.
    pub makespan: SimTime,
    /// Per-client details.
    pub clients: Vec<ClientReport>,
    /// Total requests served per I/O daemon.
    pub server_requests: Vec<u64>,
    /// Per-server CPU busy time (ns) — queueing evidence for the
    /// block-block analysis.
    pub server_busy_ns: Vec<u64>,
    /// Request round-trip latency distribution across all clients
    /// (issue → response fully processed).
    pub rtt: Histogram,
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

/// One metadata round trip (open/close at the manager) under `cost` —
/// used by the Fig. 17 harness for its open/close bars; the manager is
/// deliberately outside the simulated data path, as in PVFS.
pub fn metadata_rtt_ns(cost: &CostConfig) -> u64 {
    cost.client.per_request_ns
        + 2 * cost.net.latency_ns
        + cost.net.transfer_ns(64) * 2
        + cost.server.per_request_ns
}

/// The simulated cluster: real daemons + virtual-time resources.
pub struct SimCluster {
    cost: CostConfig,
    daemons: Vec<IoDaemon>,
    server_cpu: Vec<FifoResource>,
    server_tx: Vec<FifoResource>,
    server_rx: Vec<FifoResource>,
}

impl SimCluster {
    /// A cluster of `n_servers` I/O daemons with the given disk/cache
    /// configuration and cost calibration.
    pub fn new(n_servers: u32, iod: IodConfig, cost: CostConfig) -> SimCluster {
        assert!(n_servers > 0);
        SimCluster {
            cost,
            daemons: (0..n_servers)
                .map(|i| IoDaemon::with_cost_model(ServerId(i), iod))
                .collect(),
            server_cpu: vec![FifoResource::new(); n_servers as usize],
            server_tx: vec![FifoResource::new(); n_servers as usize],
            server_rx: vec![FifoResource::new(); n_servers as usize],
        }
    }

    /// Paper-default cluster: 8 I/O servers, default disk/cache/cost.
    pub fn paper_default() -> SimCluster {
        SimCluster::new(8, IodConfig::default(), CostConfig::paper_default())
    }

    /// The cost calibration in use.
    pub fn cost(&self) -> &CostConfig {
        &self.cost
    }

    /// Direct daemon access (verification).
    pub fn daemon(&self, id: ServerId) -> &IoDaemon {
        &self.daemons[id.index()]
    }

    /// Pre-load file content outside simulated time (test/bench setup
    /// for read experiments).
    pub fn seed_file(&mut self, handle: FileHandle, layout: &StripeLayout, content: &[u8]) {
        let region = Region::new(0, content.len() as u64);
        for slot in 0..layout.pcount {
            let server = layout.server_at_slot(slot);
            let share: Vec<u8> = layout
                .segments(region)
                .filter(|s| s.slot == slot)
                .flat_map(|s| content[s.logical.offset as usize..s.logical.end() as usize].to_vec())
                .collect();
            if share.is_empty() {
                continue;
            }
            let (resp, _) = self.daemons[server.index()].handle(&Request::Write {
                handle,
                layout: *layout,
                region,
                data: Bytes::from(share),
            });
            assert!(matches!(resp, Response::Written { .. }), "seed failed");
        }
    }

    /// Warm-seed a file: write zeros across `[0, len)` and flush, so
    /// the whole file is resident and clean in every server's buffer
    /// cache. Read experiments start warm (the paper averaged repeated
    /// runs) and write experiments measure the write path, not phantom
    /// cold-read disk costs. Runs outside simulated time.
    pub fn seed_warm(&mut self, handle: FileHandle, layout: &StripeLayout, len: u64) {
        const CHUNK: u64 = 1 << 20;
        let zeros = vec![0u8; CHUNK as usize];
        let mut off = 0;
        while off < len {
            let n = CHUNK.min(len - off);
            let region = Region::new(off, n);
            for server in layout.servers_touched(region) {
                let slot = layout.slot_of_server(server).expect("in layout");
                let share = layout.bytes_on_slot(region, slot);
                if share == 0 {
                    continue;
                }
                let (resp, _) = self.daemons[server.index()].handle(&Request::Write {
                    handle,
                    layout: *layout,
                    region,
                    data: Bytes::from(zeros[..share as usize].to_vec()),
                });
                assert!(matches!(resp, Response::Written { .. }), "seed_warm failed");
            }
            off += n;
        }
        for d in &mut self.daemons {
            d.flush_handle(handle);
        }
    }

    /// Pre-extend a file with zeros up to `len` bytes outside simulated
    /// time — cheap setup for paper-scale read workloads where content
    /// is irrelevant to timing.
    pub fn seed_extent(&mut self, handle: FileHandle, layout: &StripeLayout, len: u64) {
        if len == 0 {
            return;
        }
        for slot in 0..layout.pcount {
            let server = layout.server_at_slot(slot);
            // Write a single byte at each server's last local offset.
            let mut last: Option<u64> = None;
            // The last stripe this slot owns below `len`.
            let last_stripe = (len - 1) / layout.ssize;
            for g in (0..=last_stripe).rev() {
                if (g % layout.pcount as u64) as u32 == slot {
                    let start = g * layout.ssize;
                    let end = (start + layout.ssize).min(len);
                    let (_, local) = layout.to_local(end - 1);
                    last = Some(local);
                    break;
                }
            }
            if let Some(local_last) = last {
                let logical = layout.to_logical(slot, local_last);
                let (resp, _) = self.daemons[server.index()].handle(&Request::Write {
                    handle,
                    layout: *layout,
                    region: Region::new(logical, 1),
                    data: Bytes::from(vec![0u8]),
                });
                assert!(matches!(resp, Response::Written { .. }));
            }
        }
    }

    /// Execute all jobs to completion in virtual time; returns the
    /// report and the final user buffers (read results), in job order.
    /// Server request counts in the report cover this run only (seeding
    /// is excluded).
    pub fn run(&mut self, jobs: Vec<ClientJob>) -> PvfsResult<(SimReport, Vec<Vec<u8>>)> {
        let base_requests: Vec<u64> = self
            .daemons
            .iter()
            .map(|d| d.ledger().snapshot().requests)
            .collect();
        let base_busy: Vec<u64> = self.server_cpu.iter().map(|r| r.busy_ns()).collect();
        let mut engine = Engine::new(self, jobs);
        engine.run()?;
        let (mut report, users) = engine.into_report();
        for (r, base) in report.server_requests.iter_mut().zip(base_requests) {
            *r -= base;
        }
        for (b, base) in report.server_busy_ns.iter_mut().zip(base_busy) {
            *b -= base;
        }
        Ok((report, users))
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
    server: ServerId,
    issued_at: SimTime,
    wire: WireOp,
    request: Option<Request>,
    req_control: u64,
    req_bulk: u64,
    response: Option<Response>,
    resp_control: u64,
    resp_bulk: u64,
}

struct ClientState {
    plan: AccessPlan,
    user: Vec<u8>,
    temps: Vec<Vec<u8>>,
    cpu: FifoResource,
    tx: FifoResource,
    rx: FifoResource,
    pending: usize,
    round_finish: SimTime,
    report: ClientReport,
    rtt: Histogram,
    done: bool,
}

struct Engine<'a> {
    cluster: &'a mut SimCluster,
    clients: Vec<ClientState>,
    queue: EventQueue<Ev>,
    inflight: Vec<Option<InFlight>>,
    free_slots: Vec<usize>,
    serial_held: bool,
    serial_waiting: VecDeque<usize>,
    now: SimTime,
}

impl<'a> Engine<'a> {
    fn new(cluster: &'a mut SimCluster, jobs: Vec<ClientJob>) -> Engine<'a> {
        let mut queue = EventQueue::new();
        let clients: Vec<ClientState> = jobs
            .into_iter()
            .map(|job| {
                let temps = alloc_temps(&job.plan.temp_sizes);
                ClientState {
                    plan: job.plan,
                    user: job.user,
                    temps,
                    cpu: FifoResource::new(),
                    tx: FifoResource::new(),
                    rx: FifoResource::new(),
                    pending: 0,
                    round_finish: SimTime::ZERO,
                    report: ClientReport::default(),
                    rtt: Histogram::new(),
                    done: false,
                }
            })
            .collect();
        for i in 0..clients.len() {
            queue.push(SimTime::ZERO, Ev::Step(i));
        }
        Engine {
            cluster,
            clients,
            queue,
            inflight: Vec::new(),
            free_slots: Vec::new(),
            serial_held: false,
            serial_waiting: VecDeque::new(),
            now: SimTime::ZERO,
        }
    }

    fn run(&mut self) -> PvfsResult<()> {
        while let Some((t, ev)) = self.queue.pop() {
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            match ev {
                Ev::Step(c) => self.on_step(c, t)?,
                Ev::Arrive(slot) => self.on_arrive(slot, t)?,
                Ev::Complete(slot) => self.on_complete(slot, t)?,
            }
        }
        if let Some(c) = self.clients.iter().position(|c| !c.done) {
            return Err(PvfsError::protocol(format!(
                "simulation deadlock: client {c} never finished (serial section misuse?)"
            )));
        }
        Ok(())
    }

    fn on_step(&mut self, c: usize, t: SimTime) -> PvfsResult<()> {
        let cost = self.cluster.cost;
        let state = &mut self.clients[c];
        match state.plan.next_step() {
            None => {
                state.done = true;
                state.report.finish = t;
                Ok(())
            }
            Some(Step::Round(ops)) => {
                state.pending = ops.len();
                state.round_finish = t;
                state.report.rounds += 1;
                state.report.requests += ops.len() as u64;
                let handle = state.plan.handle;
                let layout = state.plan.layout;
                let mut cur = t;
                for wire in ops {
                    // Build the request, gathering real payload bytes
                    // (a read's fragments are counted at scatter time).
                    let (request, fragments) = {
                        let bufs = Buffers {
                            user: &mut state.user,
                            temps: &mut state.temps,
                        };
                        wire_request_into(&wire, handle, &layout, &bufs, BytesMut::with_capacity)
                    };
                    let req_control = request.control_wire_size();
                    let req_bulk = request.bulk_len();
                    state.report.bytes_sent += req_bulk;
                    // Client CPU: issue + per-fragment gather work +
                    // payload copy.
                    let send_cpu = cost.client.per_request_ns
                        + fragments * cost.client.per_fragment_ns
                        + cost.client.memcpy_ns(req_bulk);
                    let (_, cpu_end) = state.cpu.acquire(cur, send_cpu);
                    cur = cpu_end;
                    // Client NIC tx, then the wire.
                    let wire_ns = cost.net.transfer_ns(req_control + req_bulk);
                    let (_, tx_end) = state.tx.acquire(cpu_end, wire_ns);
                    let arrive_at = tx_end + cost.net.latency_ns;
                    let flight = InFlight {
                        client: c,
                        server: wire.server,
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
                let bytes = copy_bytes(&pairs);
                state.report.copy_bytes += bytes;
                {
                    let mut bufs = Buffers {
                        user: &mut state.user,
                        temps: &mut state.temps,
                    };
                    apply_copies(&pairs, &mut bufs);
                }
                let (_, end) = state.cpu.acquire(t, cost.client.memcpy_ns(bytes));
                self.queue.push(end, Ev::Step(c));
                Ok(())
            }
            Some(Step::SerialBegin) => {
                state.report.serial_sections += 1;
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
                let release = t + cost.serial_handoff_ns;
                if let Some(next) = self.serial_waiting.pop_front() {
                    self.serial_held = true;
                    self.queue.push(release, Ev::Step(next));
                }
                self.queue.push(t, Ev::Step(c));
                Ok(())
            }
        }
    }

    fn on_arrive(&mut self, slot: usize, t: SimTime) -> PvfsResult<()> {
        let cost = self.cluster.cost;
        let flight = self.inflight[slot].as_mut().expect("live flight");
        let sidx = flight.server.index();
        if sidx >= self.cluster.daemons.len() {
            return Err(PvfsError::NoSuchServer(flight.server.0));
        }
        // Receiving NIC drains the frame.
        let wire_ns = cost.net.transfer_ns(flight.req_control + flight.req_bulk);
        let (_, rx_end) = self.cluster.server_rx[sidx].acquire(t, wire_ns);
        // Serve (real data movement) and charge the CPU + disk: per
        // request, per region it names, per local access its file made.
        let request = flight.request.take().expect("request present");
        let (response, charged) = self.cluster.daemons[sidx].handle(&request);
        if let Response::Error(e) = response {
            return Err(e);
        }
        let service = cost.server.per_request_ns
            + request.region_count() as u64 * cost.server.per_region_ns
            + charged.accesses * cost.server.per_access_ns
            + charged.disk_ns;
        let (_, cpu_end) = self.cluster.server_cpu[sidx].acquire(rx_end, service);
        // The write-ACK stall delays the response without occupying any
        // resource: parallel writes in one round overlap their stalls.
        let ack_stall = if request.is_write() {
            cost.net.write_ack_stall_ns
        } else {
            0
        };
        // Response back through the server NIC.
        flight.resp_bulk = response.bulk_len();
        flight.resp_control = 32;
        flight.response = Some(response);
        let resp_wire = cost.net.transfer_ns(flight.resp_control + flight.resp_bulk);
        let (_, stx_end) = self.cluster.server_tx[sidx].acquire(cpu_end, resp_wire);
        self.queue.push(
            stx_end + cost.net.latency_ns + ack_stall,
            Ev::Complete(slot),
        );
        Ok(())
    }

    fn on_complete(&mut self, slot: usize, t: SimTime) -> PvfsResult<()> {
        let cost = self.cluster.cost;
        let flight = self.inflight[slot].take().expect("live flight");
        self.free_slots.push(slot);
        let state = &mut self.clients[flight.client];
        // Client NIC rx.
        let wire_ns = cost.net.transfer_ns(flight.resp_control + flight.resp_bulk);
        let (_, rx_end) = state.rx.acquire(t, wire_ns);
        // Receive processing: scatter (real bytes) + per-fragment cost.
        let response = flight.response.expect("response present");
        let recv_cpu = match response {
            Response::Data { ref data } => {
                state.report.bytes_received += data.len() as u64;
                let layout = state.plan.layout;
                let mut bufs = Buffers {
                    user: &mut state.user,
                    temps: &mut state.temps,
                };
                let fragments =
                    scatter_response(&flight.wire.op, &layout, flight.server, data, &mut bufs)?;
                fragments * cost.client.per_fragment_ns + cost.client.memcpy_ns(data.len() as u64)
            }
            Response::Written { .. } => 0,
            other => {
                return Err(PvfsError::protocol(format!(
                    "unexpected simulated response {other:?}"
                )))
            }
        };
        let (_, done) = state.cpu.acquire(rx_end, recv_cpu);
        state.rtt.record(done - flight.issued_at);
        state.round_finish = state.round_finish.max(done);
        state.pending -= 1;
        if state.pending == 0 {
            self.queue.push(state.round_finish, Ev::Step(flight.client));
        }
        Ok(())
    }

    fn into_report(self) -> (SimReport, Vec<Vec<u8>>) {
        let mut report = SimReport {
            makespan: SimTime::ZERO,
            clients: Vec::with_capacity(self.clients.len()),
            server_requests: self
                .cluster
                .daemons
                .iter()
                .map(|d| d.ledger().snapshot().requests)
                .collect(),
            server_busy_ns: self
                .cluster
                .server_cpu
                .iter()
                .map(|r| r.busy_ns())
                .collect(),
            rtt: Histogram::new(),
        };
        let mut users = Vec::with_capacity(self.clients.len());
        for c in self.clients {
            report.makespan = report.makespan.max(c.report.finish);
            report.rtt.merge(&c.rtt);
            report.clients.push(c.report);
            users.push(c.user);
        }
        (report, users)
    }
}
