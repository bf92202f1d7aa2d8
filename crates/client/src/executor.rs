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
use pvfs_core::{AccessPlan, IoKind, RoundOps, Runner, Step, WireOp};
pub use pvfs_core::{ExecReport, UserBuf};
use pvfs_net::{ClusterClient, Fill, OpStream, Placed, Put, RpcTarget, TransportKind};
use pvfs_proto::{Request, Response};
use pvfs_types::clock::now_ns;
use pvfs_types::{PvfsResult, StripeLayout};
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
        let spare = |room| client.payload_buffer(room);
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
    plan: AccessPlan,
    user: UserBuf<'_>,
    client: &ClusterClient,
) -> PvfsResult<ExecReport> {
    let layout = plan.layout;
    let mut runner = Runner::new(plan, user)?;
    let direct = client.transport_kind() == TransportKind::Tcp;
    let stats_before = client.stats();
    // One trace per plan execution: every stretch's RPC attempts and
    // every merge/copy phase land in a single tree under this root.
    let active = client.tracer().begin("execute");
    let mut holding_gate = false;
    let result = (|| -> PvfsResult<()> {
        loop {
            // Pulling a copy is popping it: the span times the copy.
            let copy_ns = now_ns();
            let Some(step) = runner.step() else {
                return Ok(());
            };
            match step {
                Step::Round(round) => {
                    let round = runner.count(round);
                    let runner = &mut runner;
                    let mut stretch = Stretch {
                        client,
                        direct,
                        layout,
                        runner,
                        round,
                    };
                    client.stream_in(&mut stretch, active.as_ref())?;
                }
                Step::Copy(_) => {
                    if let Some(a) = &active {
                        a.span_at(a.root(), "phase_merge", copy_ns, now_ns(), Vec::new());
                    }
                }
                Step::SerialBegin => {
                    client.gate().acquire();
                    holding_gate = true;
                }
                Step::SerialEnd => {
                    client.gate().release();
                    holding_gate = false;
                }
            }
        }
    })();
    if holding_gate {
        client.gate().release();
    }
    if let Some(a) = active {
        client.tracer().finish(a);
    }
    // The endpoint's ledger is shared across clones and plans; the delta
    // isolates exactly the RPCs this execution issued.
    let mut report = runner.into_report();
    report.client = client.stats().since(&stats_before);
    report.rpc_latency = report.client.rpc_latency.clone();
    result.map(|()| report)
}
