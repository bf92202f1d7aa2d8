//! The live plan executor: a driver of the [`Runner`].
//!
//! Runs a plan's steps against a [`ClusterClient`]: rounds stream
//! through the client's windowed request pipeline — every maximal run
//! of independent rounds as one stream, no barrier between them
//! (`Stretch`, pulled through [`Runner::join`]) — copies run at memcpy
//! speed, and serial sections take the cluster-wide
//! [`SerialGate`](pvfs_net::SerialGate) (data sieving writes). What each
//! step counts and how its bytes move is the runner's, shared with the
//! simulator — which keeps executing rounds lock-step, as the paper's
//! client did.

use pvfs_core::exec::{direct_share, lend_share, place_share};
use pvfs_core::{AccessPlan, Exchange, IoKind, RoundOps, Runner, Step, WireOp};
pub use pvfs_core::{ExecReport, UserBuf};
use pvfs_net::{ActiveTrace, ClusterClient, Fill, OpStream, Placed, Put, RpcTarget, TransportKind};
use pvfs_proto::{Request, Response};
use pvfs_types::clock::now_ns;
use pvfs_types::{ClientStats, PvfsError, PvfsResult, StripeLayout};
use std::io;

/// One barrier-free stretch of a plan, as the request pipeline pulls
/// it: the round that opened it and every round [`Runner::join`] adds.
/// A request's file list is sorted and disjoint, so those ops touch
/// disjoint bytes of the file and — each file byte having its own
/// memory byte — of the caller's buffer, and may be built, sent and
/// landed in any order. (The memory list is the caller's: nothing
/// checks that it is disjoint, and a write may well gather one byte
/// twice. A *read* into overlapping memory regions leaves in the overlap
/// whichever reply landed last — see
/// [`PvfsFile::read_list`](crate::PvfsFile::read_list).)
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
    layout: StripeLayout,
    runner: &'a mut Runner<'u>,
    /// What is left of the round being sent.
    round: RoundOps,
}

/// An op, and how many bytes of its share go straight between the
/// caller's buffer and the socket: all of them or (0) none.
type Ticket = (WireOp, usize);

impl OpStream for Stretch<'_, '_> {
    type Ticket = Ticket;

    fn next_op(&mut self) -> Option<(RpcTarget, Request, Ticket)> {
        let wire = loop {
            match self.round.next() {
                Some(wire) => break wire,
                None => self.round = self.runner.join()?,
            }
        };
        let direct = self
            .direct
            .then(|| direct_share(&wire.op, &self.layout, wire.server));
        let ticket = (wire, direct.unwrap_or(0) as usize);
        let (lent, client) = (self.lent(&ticket), self.client);
        let spare = |room| client.endpoint().payload_buffer(room);
        let (request, _) = self.runner.request(&ticket.0, lent, spare);
        Some((ticket.0.server.into(), request, ticket))
    }

    fn lent(&self, (wire, direct): &Ticket) -> usize {
        direct * usize::from(wire.op.kind == IoKind::Write)
    }

    fn lend<'m>(&'m self, (wire, _): &Ticket, put: &mut Put<'m, '_>) -> io::Result<()> {
        let user = self.runner.user.source();
        lend_share(&wire.op, &self.layout, wire.server, user, put)
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
        let (layout, user) = (&self.layout, self.runner.user.dest());
        Some(place_share(&wire.op, layout, wire.server, user, skip, fill))
    }

    fn landed(
        &mut self,
        (wire, direct): Ticket,
        response: Response,
        placed: usize,
    ) -> PvfsResult<()> {
        // Placed whole or not at all: anything else is scattered, and
        // refused there.
        let placed = if placed == direct { placed } else { 0 };
        self.runner.landed(&wire, response, placed).map(drop)
    }
}

/// A plan being run against the live cluster: its [`Runner`] and what
/// the loop keeps between [`run`](Self::run)s — the trace its RPCs land
/// in, the gate it may hold, the endpoint counters it started from.
///
/// Rounds are not barriers unless the plan needs them to be: each
/// `Stretch` of independent rounds goes through
/// [`ClusterClient::stream_in`] as one stream — requests built as the
/// pipeline's window opens, replies scattered as they land — so a list
/// op's ⌈n/64⌉ rounds overlap on the daemons. `Copy`, `SerialBegin` and
/// `SerialEnd` steps, and any round through a window temp, run strictly
/// in plan order. [`ExecReport::rounds`] counts plan rounds either way.
pub struct Execution<'c, 'u> {
    /// The plan's runner: an exchange's bytes are packed and unpacked
    /// through it.
    pub runner: Runner<'u>,
    client: &'c ClusterClient,
    layout: StripeLayout,
    direct: bool,
    stats_before: ClientStats,
    /// One trace per plan execution: every stretch's RPC attempts and
    /// every merge/copy phase land in a single tree under this root.
    active: Option<ActiveTrace>,
    holding_gate: bool,
}

impl<'c, 'u> Execution<'c, 'u> {
    /// Start running `plan` over `user`, the caller's buffer
    /// (destination for reads, source for writes).
    pub fn new(
        plan: AccessPlan,
        user: UserBuf<'u>,
        client: &'c ClusterClient,
    ) -> PvfsResult<Execution<'c, 'u>> {
        Ok(Execution {
            layout: plan.layout,
            runner: Runner::new(plan, user)?,
            client,
            direct: client.transport_kind() == TransportKind::Tcp,
            stats_before: client.stats(),
            active: client.tracer().begin("execute"),
            holding_gate: false,
        })
    }

    /// Run rounds, copies and serial sections until the plan ends
    /// (`None`) or hands back an exchange, which its caller moves
    /// through [`runner`](Self::runner) before running on.
    pub fn run(&mut self) -> PvfsResult<Option<Exchange>> {
        let (client, layout) = (self.client, self.layout);
        loop {
            // Pulling a copy is popping it: the span times the copy.
            let copy_ns = now_ns();
            let Some(step) = self.runner.step() else {
                return Ok(None);
            };
            match step {
                Step::Round(round) => {
                    let round = self.runner.count(round);
                    let mut stretch = Stretch {
                        client,
                        direct: self.direct,
                        layout,
                        runner: &mut self.runner,
                        round,
                    };
                    client.stream_in(&mut stretch, self.active.as_ref())?;
                }
                Step::Copy(_) => {
                    if let Some(a) = &self.active {
                        a.span_at(a.root(), "phase_merge", copy_ns, now_ns(), Vec::new());
                    }
                }
                Step::SerialBegin => {
                    client.gate().acquire();
                    self.holding_gate = true;
                }
                Step::SerialEnd => {
                    client.gate().release();
                    self.holding_gate = false;
                }
                Step::Exchange(exchange) => return Ok(Some(exchange)),
            }
        }
    }

    /// What the run counted, the endpoint's RPC counters over it
    /// included; releases the gate if a failed run left it held.
    pub fn finish(self) -> ExecReport {
        if self.holding_gate {
            self.client.gate().release();
        }
        if let Some(a) = self.active {
            self.client.tracer().finish(a);
        }
        // The endpoint's ledger is shared across clones and plans; the
        // delta isolates exactly the RPCs this execution issued.
        let mut report = self.runner.into_report();
        report.client = self.client.stats().since(&self.stats_before);
        report.rpc_latency = report.client.rpc_latency.clone();
        report
    }
}

/// Execute a plan to completion against the live cluster: one
/// [`Execution`], run to its end. An independent plan holds no exchange.
pub fn execute_plan(
    plan: AccessPlan,
    user: UserBuf<'_>,
    client: &ClusterClient,
) -> PvfsResult<ExecReport> {
    let mut execution = Execution::new(plan, user, client)?;
    let result = match execution.run() {
        Ok(Some(_)) => Err(PvfsError::invalid("an exchange needs a collective call")),
        done => done.map(drop),
    };
    let report = execution.finish();
    result.map(|()| report)
}
