//! The live plan executor.
//!
//! Pulls steps from an [`AccessPlan`] and runs them against a
//! [`ClusterClient`]: rounds stream through the client's windowed
//! request pipeline — every maximal run of independent rounds as one
//! stream, no barrier between them (`Stretch`) — copies run at memcpy
//! speed, and serial sections take the cluster-wide
//! [`SerialGate`](pvfs_net::SerialGate) (data sieving writes). The
//! scatter/gather semantics live in `pvfs_core::exec`, shared with the
//! simulator — which keeps executing rounds lock-step, as the paper's
//! client did.

use bytes::Bytes;
use pvfs_core::exec::{
    alloc_temps, apply_copies, copy_bytes, direct_share, lend_share, place_share, scatter_response,
    stage_copies, wire_request_into, Buffers, Sources,
};
use pvfs_core::{AccessPlan, IoKind, Round, RoundOps, Step, Target, WireOp};
use pvfs_net::{ClusterClient, Fill, OpStream, Placed, Put, RpcTarget, TransportKind};
use pvfs_proto::{Request, Response};
use pvfs_types::clock::now_ns;
use pvfs_types::{Histogram, PvfsError, PvfsResult};
use std::io;

/// What actually happened while executing a plan. Its rounds, requests,
/// copy bytes and serial sections are the plan's
/// [`tally`](pvfs_core::AccessPlan::tally), counted again as the steps
/// run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// Rounds executed.
    pub rounds: u64,
    /// Wire requests issued.
    pub requests: u64,
    /// Bytes sent with write requests.
    pub bytes_sent: u64,
    /// Bytes received in read responses.
    pub bytes_received: u64,
    /// Client-side copy traffic.
    pub copy_bytes: u64,
    /// Serial sections entered.
    pub serial_sections: u64,
    /// What this plan's RPCs cost in reliability currency — attempts,
    /// retries and backoff, faults injected, breaker rejections, sheds
    /// seen, replica failovers, quorum shortfalls: the endpoint's
    /// [`pvfs_net::ClientStats`] over this execution. All counters zero
    /// beyond `attempts` on a healthy cluster.
    pub client: pvfs_net::ClientStats,
    /// Wire requests this client issued, broken down per I/O daemon
    /// (indexed by `ServerId`, one entry for each daemon up to the last
    /// of the file's layout). The per-daemon fan-in is the collective-I/O claim:
    /// under two-phase each daemon hears from exactly one aggregator,
    /// where independent list I/O has every rank knocking on every
    /// daemon.
    pub requests_by_server: Vec<u64>,
    /// Bytes this rank shipped through the client-side exchange fabric
    /// (collective two-phase only; zero for independent methods).
    /// Exchange traffic is memory-to-memory between ranks — comparing
    /// it against `bytes_sent`/`bytes_received` shows how much wire
    /// traffic the aggregation phase replaced.
    pub exchange_bytes: u64,
    /// Exchange messages this rank sent (collective two-phase only).
    pub exchange_msgs: u64,
    /// Client-perceived latency of every RPC of this execution that a
    /// daemon served (ship → reply decoded): `client.rpc_latency`, under
    /// the name reports read it by.
    pub rpc_latency: Histogram,
}

impl ExecReport {
    /// Accumulate another report into this one, counter by counter —
    /// used by multi-plan operations (a collective op runs one plan per
    /// aggregator window) to report a single total.
    ///
    /// The destructuring is deliberately exhaustive: a field added to
    /// [`ExecReport`] without a merge rule here is a compile error, not
    /// a counter that silently vanishes from aggregated reports (the
    /// fate the resilience counters narrowly escaped when they were
    /// bolted on after this method was first written).
    pub fn absorb(&mut self, other: &ExecReport) {
        let ExecReport {
            rounds,
            requests,
            bytes_sent,
            bytes_received,
            copy_bytes,
            serial_sections,
            client,
            requests_by_server,
            exchange_bytes,
            exchange_msgs,
            rpc_latency,
        } = other;
        self.rounds += rounds;
        self.requests += requests;
        self.bytes_sent += bytes_sent;
        self.bytes_received += bytes_received;
        self.copy_bytes += copy_bytes;
        self.serial_sections += serial_sections;
        self.client.absorb(client);
        self.exchange_bytes += exchange_bytes;
        self.exchange_msgs += exchange_msgs;
        self.rpc_latency.merge(rpc_latency);
        if self.requests_by_server.len() < requests_by_server.len() {
            self.requests_by_server.resize(requests_by_server.len(), 0);
        }
        for (mine, theirs) in self.requests_by_server.iter_mut().zip(requests_by_server) {
            *mine += theirs;
        }
    }

    /// Count one round of the plan in, and hand its ops out.
    fn count_round(&mut self, round: Round) -> RoundOps {
        self.rounds += 1;
        self.requests += round.len() as u64;
        for server in round.servers() {
            self.requests_by_server[server.index()] += 1;
        }
        round.into_iter()
    }
}

/// The caller's buffer as a plan uses it: a read plan fills it, a write
/// plan only reads it — so a write runs straight out of the borrowed
/// `&[u8]`, never out of a copy.
pub enum UserBuf<'a> {
    /// Destination of a read plan.
    Read(&'a mut [u8]),
    /// Source of a write plan.
    Write(&'a [u8]),
}

impl UserBuf<'_> {
    fn source(&self) -> &[u8] {
        match self {
            UserBuf::Read(buf) => buf,
            UserBuf::Write(buf) => buf,
        }
    }

    /// The buffer as a scatter destination. A write plan scatters only
    /// into its temps (data sieving's read-modify-write window), so its
    /// side is empty: a planner bug indexes out of bounds instead of
    /// writing the caller's memory.
    fn dest(&mut self) -> &mut [u8] {
        match self {
            UserBuf::Read(buf) => buf,
            UserBuf::Write(_) => &mut [],
        }
    }
}

/// One barrier-free stretch of a plan, as the request pipeline pulls
/// it: the round that opened it and — if that round scatters and
/// gathers through [`Target::Pieces`] only — every following round that
/// does too, up to the first step that is not such a round. A request's
/// file list is sorted and disjoint, so those ops touch disjoint bytes
/// of the file and — each file byte having its own memory byte — of the
/// caller's buffer, and may be built, sent and landed in any order.
/// (The memory list is the caller's: nothing checks that it is
/// disjoint, and a write may well gather one byte twice. A *read* into
/// overlapping memory regions leaves in the overlap whichever reply
/// landed last — see [`PvfsFile::read_list`](crate::PvfsFile::read_list).)
/// A round through a [`Target::Window`] temp
/// (sieving's read → modify → write) is a stretch of its own: it
/// depends on the steps around it.
///
/// Over tcp, an op whose share of a daemon is a
/// [`direct_share`] moves straight between the caller's buffer and the
/// socket: a write lends its slices, a read's reply is placed in them.
/// The buffer is borrowed for the whole stream, so a retry sends from,
/// or lands in, the same slices.
struct Stretch<'a, 'u> {
    /// Whose spares write payloads are gathered into (and go back to,
    /// when the pipeline has seen the op resolve).
    client: &'a ClusterClient,
    /// The client speaks tcp: a direct share need not be copied.
    direct: bool,
    plan: &'a mut AccessPlan,
    user: &'a mut UserBuf<'u>,
    temps: &'a mut [Vec<u8>],
    report: &'a mut ExecReport,
    /// What is left of the round being sent.
    round: RoundOps,
    /// Whether the plan's next round may join this stretch.
    open: bool,
    /// The step that ended the stretch: pulled off the plan, not run.
    ended_by: Option<Step>,
}

fn through_pieces(round: &Round) -> bool {
    matches!(round.op().target, Target::Pieces(_))
}

/// An op, and how many bytes of its share go straight between the
/// caller's buffer and the socket: all of them or (0) none.
type Ticket = (WireOp, usize);

impl OpStream for Stretch<'_, '_> {
    type Ticket = Ticket;

    fn next_op(&mut self) -> Option<(RpcTarget, Request, Ticket)> {
        let wire = loop {
            if let Some(wire) = self.round.next() {
                break wire;
            }
            if !self.open {
                return None;
            }
            match self.plan.next_step() {
                Some(Step::Round(round)) if through_pieces(&round) => {
                    self.round = self.report.count_round(round)
                }
                step => {
                    self.open = false;
                    self.ended_by = step;
                    return None;
                }
            }
        };
        let sources = Sources {
            user: self.user.source(),
            temps: self.temps,
        };
        let (handle, layout) = (self.plan.handle, &self.plan.layout);
        let direct = self
            .direct
            .then(|| direct_share(&wire.op, layout, wire.server));
        let direct = direct.unwrap_or(0) as usize;
        let request = if direct > 0 && wire.op.kind == IoKind::Write {
            self.report.bytes_sent += direct as u64;
            let (kind, shape) = (wire.op.kind, wire.op.shape.clone());
            Request::data(kind, handle, *layout, shape, Bytes::new())
        } else {
            let spare = |room| self.client.payload_buffer(room);
            wire_request_into(&wire, handle, layout, sources, spare).0
        };
        self.report.bytes_sent += request.bulk_len();
        Some((wire.server.into(), request, (wire, direct)))
    }

    fn lent(&self, (wire, direct): &Ticket) -> usize {
        direct * usize::from(wire.op.kind == IoKind::Write)
    }

    fn lend<'m>(&'m self, (wire, _): &Ticket, put: &mut Put<'m, '_>) -> io::Result<()> {
        let (layout, user) = (&self.plan.layout, self.user.source());
        lend_share(&wire.op, layout, wire.server, user, put)
    }

    fn place(
        &mut self,
        (wire, direct): &Ticket,
        len: usize,
        skip: usize,
        fill: &mut Fill,
    ) -> Placed {
        if wire.op.kind == IoKind::Write || *direct == 0 || len != *direct {
            return None;
        }
        let (layout, user) = (&self.plan.layout, self.user.dest());
        Some(place_share(&wire.op, layout, wire.server, user, skip, fill))
    }

    fn landed(
        &mut self,
        (wire, direct): Ticket,
        response: Response,
        placed: usize,
    ) -> PvfsResult<()> {
        match response {
            // Placed whole; anything else is scattered, and refused there.
            Response::Data { data } if placed == direct && placed > 0 && data.is_empty() => {
                self.report.bytes_received += placed as u64;
                Ok(())
            }
            Response::Data { data } => {
                self.report.bytes_received += data.len() as u64;
                let mut bufs = Buffers {
                    user: self.user.dest(),
                    temps: self.temps,
                };
                scatter_response(&wire.op, &self.plan.layout, wire.server, &data, &mut bufs)?;
                Ok(())
            }
            Response::Written { .. } => Ok(()),
            other => Err(PvfsError::protocol(format!(
                "unexpected response to {:?}: {other:?}",
                wire.op
            ))),
        }
    }
}

/// Execute a plan to completion against the live cluster.
///
/// `user` is the caller's buffer (destination for reads, source for
/// writes). Returns the measured execution report.
///
/// Rounds are not barriers unless the plan needs them to be: each
/// `Stretch` of independent rounds goes through
/// [`ClusterClient::stream_in`] as one stream — requests built as the
/// pipeline's window opens, replies scattered as they land — so a list
/// op's ⌈n/64⌉ rounds overlap on the daemons. `Copy`, `SerialBegin` and
/// `SerialEnd` steps, and any round through a temp, run strictly in
/// plan order. [`ExecReport::rounds`] counts plan rounds either way.
pub fn execute_plan(
    mut plan: AccessPlan,
    mut user: UserBuf<'_>,
    client: &ClusterClient,
) -> PvfsResult<ExecReport> {
    if plan.kind == IoKind::Read && matches!(user, UserBuf::Write(_)) {
        return Err(PvfsError::invalid(
            "a read plan needs a destination buffer, not a write source",
        ));
    }
    let mut temps = alloc_temps(&plan.temp_sizes);
    let last = plan.layout.base as usize + plan.layout.pcount as usize;
    let mut report = ExecReport {
        requests_by_server: vec![0; last],
        ..ExecReport::default()
    };
    let stats_before = client.stats();
    // One trace per plan execution: every stretch's RPC attempts and
    // every merge/copy phase land in a single tree under this root.
    let active = client.tracer().begin("execute");
    let mut holding_gate = false;
    let result = (|| -> PvfsResult<()> {
        let mut held = None;
        while let Some(step) = held.take().or_else(|| plan.next_step()) {
            match step {
                Step::Round(round) => {
                    let mut stretch = Stretch {
                        client,
                        direct: client.transport_kind() == TransportKind::Tcp,
                        open: through_pieces(&round),
                        round: report.count_round(round),
                        plan: &mut plan,
                        user: &mut user,
                        temps: &mut temps,
                        report: &mut report,
                        ended_by: None,
                    };
                    client.stream_in(&mut stretch, active.as_ref())?;
                    held = stretch.ended_by;
                }
                Step::Copy(pairs) => {
                    report.copy_bytes += copy_bytes(&pairs);
                    let copy_ns = now_ns();
                    match &mut user {
                        UserBuf::Read(user) => apply_copies(
                            &pairs,
                            &mut Buffers {
                                user,
                                temps: &mut temps,
                            },
                        ),
                        UserBuf::Write(user) => stage_copies(&pairs, user, &mut temps),
                    }
                    if let Some(a) = &active {
                        a.span_at(a.root(), "phase_merge", copy_ns, now_ns(), Vec::new());
                    }
                }
                Step::SerialBegin => {
                    client.gate().acquire();
                    holding_gate = true;
                    report.serial_sections += 1;
                }
                Step::SerialEnd => {
                    client.gate().release();
                    holding_gate = false;
                }
            }
        }
        Ok(())
    })();
    if holding_gate {
        client.gate().release();
    }
    if let Some(a) = active {
        client.tracer().finish(a);
    }
    // The endpoint's ledger is shared across clones and plans; the delta
    // isolates exactly the RPCs this execution issued.
    report.client = client.stats().since(&stats_before);
    report.rpc_latency = report.client.rpc_latency.clone();
    result.map(|()| report)
}
