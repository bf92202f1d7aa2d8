//! The plan runner: the one interpreter of an [`AccessPlan`]'s steps.
//!
//! Sans I/O, like the request pump and the daemon's door: it counts every
//! step into one [`ExecReport`] and moves every byte through
//! [`crate::exec`], but sends nothing and keeps no time. Its two drivers,
//! the live executor (`pvfs-client`, a stream a stretch: [`Runner::join`])
//! and the simulator (`pvfs-sim`, rounds lock-step in virtual time), are
//! both checked against the plan's [`tally`](AccessPlan::tally).

use crate::exec::{alloc_temps, apply_copies, copy_bytes, gather_payload_into, scatter_response};
use crate::exec::{Buffers, Sources};
use crate::plan::{AccessPlan, IoKind, Round, RoundOps, Step, Target, WireOp};
use bytes::{Bytes, BytesMut};
use pvfs_proto::{Request, Response};
use pvfs_types::{ClientStats, Histogram, PvfsError, PvfsResult};

/// What actually happened while executing a plan. Its rounds, requests,
/// copy bytes and serial sections are the plan's
/// [`tally`](AccessPlan::tally), counted again as the steps run.
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
    /// seen, replica failovers, quorum shortfalls: the live endpoint's
    /// [`ClientStats`] over this execution. All counters zero beyond
    /// `attempts` on a healthy cluster, and all of them in the simulator.
    pub client: ClientStats,
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
    /// the name reports read it by — in the simulator, each request's
    /// virtual round trip (issue → response fully processed).
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
    /// The buffer, read-only: a write's payload.
    pub fn source(&self) -> &[u8] {
        match self {
            UserBuf::Read(buf) => buf,
            UserBuf::Write(buf) => buf,
        }
    }

    /// The buffer as a scatter destination. A write plan scatters only
    /// into its temps (data sieving's read-modify-write window), so its
    /// side is empty: a planner bug indexes out of bounds instead of
    /// writing the caller's memory.
    pub fn dest(&mut self) -> &mut [u8] {
        match self {
            UserBuf::Read(buf) => buf,
            UserBuf::Write(_) => &mut [],
        }
    }
}

/// One plan being run: its cursor, the caller's buffer, its temps and
/// its report. A driver pulls steps ([`step`](Self::step)), takes each
/// round's ops ([`count`](Self::count)), builds their requests
/// ([`request`](Self::request)) and hands back their replies
/// ([`landed`](Self::landed)); whatever it sends them through, and
/// whenever, the report counts exactly the plan's steps.
pub struct Runner<'u> {
    plan: AccessPlan,
    /// The caller's buffer, which a driver may also lend from or place
    /// into itself (a direct share: [`crate::exec::lend_share`]).
    pub user: UserBuf<'u>,
    temps: Vec<Vec<u8>>,
    report: ExecReport,
    /// Whether the next round may join the last one counted.
    joinable: bool,
    /// The step that ended a stretch: pulled off the plan, not yet run.
    held: Option<Step>,
}

impl<'u> Runner<'u> {
    /// Run `plan` over `user`, its destination (a read) or source (a
    /// write).
    pub fn new(plan: AccessPlan, user: UserBuf<'u>) -> PvfsResult<Runner<'u>> {
        if plan.kind == IoKind::Read && matches!(user, UserBuf::Write(_)) {
            return Err(PvfsError::invalid(
                "a read plan needs a destination buffer, not a write source",
            ));
        }
        let last = plan.layout.base as usize + plan.layout.pcount as usize;
        Ok(Runner {
            temps: alloc_temps(&plan.temp_sizes),
            report: ExecReport {
                requests_by_server: vec![0; last],
                ..ExecReport::default()
            },
            plan,
            user,
            joinable: false,
            held: None,
        })
    }

    /// The plan's next step — the one that ended a stretch first — or
    /// `None` when the plan is done. A copy has run and a serial section
    /// is counted by the time it is returned; a round is counted when
    /// its ops are taken ([`count`](Self::count)).
    pub fn step(&mut self) -> Option<Step> {
        let step = self.held.take().or_else(|| self.plan.next_step())?;
        match &step {
            Step::Copy(pairs) => {
                self.report.copy_bytes += copy_bytes(pairs);
                apply_copies(pairs, &mut self.user, &mut self.temps);
            }
            Step::SerialBegin => self.report.serial_sections += 1,
            Step::Round(_) | Step::SerialEnd => {}
        }
        Some(step)
    }

    /// Book `round` and hand out its ops.
    pub fn count(&mut self, round: Round) -> RoundOps {
        self.joinable = matches!(round.op().target, Target::Pieces(_));
        self.report.rounds += 1;
        self.report.requests += round.len() as u64;
        for server in round.servers() {
            self.report.requests_by_server[server.index()] += 1;
        }
        round.into_iter()
    }

    /// The ops of the next round, booked, if it joins the stretch the
    /// last booked round belongs to: a stretch is a run of rounds that
    /// scatter and gather through [`Target::Pieces`]. Such ops touch
    /// disjoint bytes of the file and of the caller's buffer, and may
    /// be sent and landed in any order. A round through a
    /// [`Target::Window`] temp (sieving's read → modify → write) is a
    /// stretch of its own. Any other step ends the stretch and is held
    /// for the next [`step`](Self::step).
    pub fn join(&mut self) -> Option<RoundOps> {
        if !self.joinable {
            return None;
        }
        match self.plan.next_step() {
            Some(Step::Round(round)) if matches!(round.op().target, Target::Pieces(_)) => {
                Some(self.count(round))
            }
            step => {
                (self.joinable, self.held) = (false, step);
                None
            }
        }
    }

    /// `wire`'s request, its bytes booked as sent: a write's payload is
    /// gathered into the buffer `spare` hands out, or — when the driver
    /// sends its `lent` bytes straight from the caller's buffer (an
    /// [`exec::direct_share`](crate::exec::direct_share)) — left out.
    /// Also returns the memory fragments gathered, the simulator's
    /// per-fragment unit.
    pub fn request(
        &mut self,
        wire: &WireOp,
        lent: usize,
        spare: impl FnOnce(usize) -> BytesMut,
    ) -> (Request, u64) {
        let (op, layout) = (&wire.op, &self.plan.layout);
        let (data, fragments) = match op.kind {
            IoKind::Write if lent == 0 => {
                let (user, temps) = (self.user.source(), &self.temps[..]);
                gather_payload_into(op, layout, wire.server, Sources { user, temps }, spare)
            }
            _ => (Bytes::new(), 0),
        };
        self.report.bytes_sent += lent as u64 + data.len() as u64;
        let (kind, shape) = (op.kind, op.shape.clone());
        let request = Request::data(kind, self.plan.handle, *layout, shape, data);
        (request, fragments)
    }

    /// `wire`'s reply, landed and its bytes booked as received: a read's
    /// body is scattered into the op's target — unless the driver
    /// `placed` all of it in the caller's buffer already — and a write's
    /// acknowledgement taken. Returns the memory fragments scattered;
    /// refuses a body of the wrong size and a reply of the wrong kind.
    pub fn landed(&mut self, wire: &WireOp, response: Response, placed: usize) -> PvfsResult<u64> {
        match response {
            Response::Data { data } if placed > 0 && data.is_empty() => {
                self.report.bytes_received += placed as u64;
                Ok(0)
            }
            Response::Data { data } => {
                self.report.bytes_received += data.len() as u64;
                let (user, temps) = (self.user.dest(), &mut self.temps[..]);
                let mut bufs = Buffers { user, temps };
                scatter_response(&wire.op, &self.plan.layout, wire.server, &data, &mut bufs)
            }
            Response::Written { .. } => Ok(0),
            other => Err(PvfsError::protocol(format!(
                "unexpected response to {:?}: {other:?}",
                wire.op
            ))),
        }
    }

    /// What running the plan counted.
    pub fn into_report(self) -> ExecReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CopyPair, MemSlice, OpKind, Space};
    use crate::planutil::servers_for;
    use pvfs_proto::Shape;
    use pvfs_types::{FileHandle, PieceMap, Region, RegionList, StripeLayout};

    /// Pieces rounds, a window round, pieces again, a copy and a serial
    /// section: every kind of step that can end a stretch.
    fn steps(layout: &StripeLayout) -> Vec<Step> {
        let list = |pairs: &[(u64, u64)]| RegionList::from_pairs(pairs.iter().copied()).unwrap();
        let map = PieceMap::new(&list(&[(0, 400)]), &list(&[(0, 400)])).unwrap();
        let round = |op: OpKind| {
            let region = op.shape.view().regions().next().unwrap();
            Step::Round(Round::fan_out(servers_for(layout, [region]), op))
        };
        let pieces = |k: u64| {
            round(OpKind {
                kind: IoKind::Read,
                shape: Shape::Contiguous(Region::new(k * 50, 50)),
                target: Target::Pieces(map.clone()),
            })
        };
        let slice = |space, offset| MemSlice {
            space,
            offset,
            len: 8,
        };
        let copy = Step::Copy(vec![CopyPair {
            dst: slice(Space::User, 350),
            src: slice(Space::Temp(0), 0),
        }]);
        let window = round(OpKind::window(IoKind::Read, Region::new(0, 64)));
        vec![
            pieces(0),
            pieces(1),
            window,
            pieces(2),
            pieces(3),
            copy,
            pieces(4),
            Step::SerialBegin,
            pieces(5),
            Step::SerialEnd,
            pieces(6),
        ]
    }

    /// `join`'s rule, pinned: pieces rounds join one stretch; a window
    /// round, a copy and each serial marker end it, and the step that
    /// ended it comes back from the next `step` exactly once.
    #[test]
    fn join_runs_pieces_rounds_together_and_hands_back_what_ends_them() {
        let layout = StripeLayout::new(0, 4, 16).unwrap();
        let plan = |steps| AccessPlan::new(FileHandle(1), layout, IoKind::Read, vec![64], steps);
        let mut user = vec![0u8; 400];
        let mut runner = Runner::new(plan(steps(&layout)), UserBuf::Read(&mut user)).unwrap();
        let mut seen = Vec::new();
        while let Some(step) = runner.step() {
            seen.push(step.kind_name());
            if let Step::Round(round) = step {
                runner.count(round).for_each(drop);
                while let Some(ops) = runner.join() {
                    seen.push("join");
                    ops.for_each(drop);
                }
                assert!(runner.join().is_none(), "an ended stretch stays ended");
            }
        }
        assert_eq!(
            seen,
            [
                "round",
                "join",
                "round",
                "round",
                "join",
                "copy",
                "round",
                "serial_begin",
                "round",
                "serial_end",
                "round"
            ]
        );
        let (report, tally) = (runner.into_report(), plan(steps(&layout)).tally());
        assert_eq!(
            (report.rounds, report.requests),
            (tally.rounds, tally.requests)
        );
        assert_eq!(report.copy_bytes, tally.copy_bytes);
        assert_eq!(report.serial_sections, tally.serial_sections);
    }
}
