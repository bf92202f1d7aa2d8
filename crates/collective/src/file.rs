//! `CollectiveFile`: the collective call, a driver of one plan.
//!
//! A `CollectiveFile` is one rank's handle on a collectively-accessed
//! file: a plain [`PvfsFile`] plus this rank's [`Communicator`]
//! endpoint. `read_all` / `write_all` are **collective** — every rank
//! of the communicator must call them in the same order (a rank that
//! skips one hangs the group, the MPI contract).
//!
//! # Allgather → plan → run
//!
//! Every rank allgathers its file list, so all ranks see the whole
//! collective pattern; a [`DomainMap`] deals the stripe slots out to the
//! aggregators (ranks `0..aggregators`). Each rank then compiles its own
//! share with [`plan_collective`] and runs it through the live executor
//! ([`Execution`]): an aggregator's list rounds over its domain, one
//! temp per `cb_buffer` window, and one exchange, whose bytes this
//! driver moves through the communicator.
//!
//! **Write** (`write_all`): the exchange comes first — each rank sends
//! its stripe segments to the aggregators owning their slots, and an
//! aggregator lands what it receives in sender-rank order, so
//! overlapping writes resolve deterministically (highest rank wins) —
//! then each aggregator writes its windows with single-daemon list
//! requests. Because domains are disjoint stripe slots, merged writes
//! need no [`pvfs_net::SerialGate`]: the equivalence suite pins
//! `serial_sections == 0` and `gate().acquisitions() == 0`.
//!
//! **Read** (`read_all`) runs the phases in reverse: aggregators read
//! their windows with large list requests, and the exchange sends each
//! rank its bytes, which land in its buffer through the request's
//! [`PieceMap`].
//!
//! # Failure
//!
//! Collective calls agree on the outcome: success flags are allgathered
//! (after the I/O phase on writes — doubling as the completion barrier
//! — and *before* the exchange on reads), so either every rank returns
//! `Ok` or every rank returns an error, and no rank is left blocked in a
//! collective the others abandoned. Aggregator retries under fault
//! injection are safe: a collective plan issues only data requests,
//! which are idempotent (`Request::is_idempotent`).

use crate::comm::{Communicator, Envelope};
use crate::config::CollectiveConfig;
use pvfs_client::{ExecReport, Execution, PvfsFile, UserBuf};
use pvfs_core::request::check_buffer;
use pvfs_core::{plan_collective, CollectiveCall, DomainMap, IoKind, ListRequest, PieceMap};
use pvfs_net::{ActiveTrace, ClusterClient};
use pvfs_types::clock::now_ns;
use pvfs_types::{PvfsError, PvfsResult, RegionList, StripeLayout};

/// One rank's handle on a collectively-accessed PVFS file.
pub struct CollectiveFile {
    file: PvfsFile,
    comm: Communicator,
    config: CollectiveConfig,
}

impl CollectiveFile {
    /// Collectively create `path`: rank 0 creates with `layout`, every
    /// other rank opens once creation is known to have succeeded. All
    /// ranks of `comm` must call.
    pub fn create(
        client: &ClusterClient,
        path: &str,
        layout: StripeLayout,
        comm: Communicator,
    ) -> PvfsResult<CollectiveFile> {
        let created = match comm.rank() {
            0 => PvfsFile::create(client, path, layout).map(Some),
            _ => Ok(None),
        };
        let file = match agree(&comm, created, &format!("collective create of {path:?}"))? {
            Some(file) => file,
            None => PvfsFile::open(client, path)?,
        };
        Ok(CollectiveFile::new(file, comm))
    }

    /// Open an existing file collectively. All ranks of `comm` must
    /// call.
    pub fn open(
        client: &ClusterClient,
        path: &str,
        comm: Communicator,
    ) -> PvfsResult<CollectiveFile> {
        PvfsFile::open(client, path).map(|file| CollectiveFile::new(file, comm))
    }

    /// `file`, for `comm`'s ranks, under the default knobs.
    fn new(file: PvfsFile, comm: Communicator) -> CollectiveFile {
        let config = CollectiveConfig::default();
        CollectiveFile { file, comm, config }
    }

    /// The underlying independent file handle.
    pub fn file(&self) -> &PvfsFile {
        &self.file
    }

    /// Mutable access to the underlying handle (method config,
    /// independent I/O between collective calls).
    pub fn file_mut(&mut self) -> &mut PvfsFile {
        &mut self.file
    }

    /// This rank's communicator endpoint.
    pub fn comm(&self) -> &Communicator {
        &self.comm
    }

    /// Give the independent handle back.
    pub fn into_inner(self) -> PvfsFile {
        self.file
    }

    /// Override the collective knobs (aggregator count, window bound).
    /// Must be set identically on every rank.
    pub fn set_collective_config(&mut self, config: CollectiveConfig) {
        self.config = config;
    }

    /// The collective knobs in force.
    pub fn collective_config(&self) -> CollectiveConfig {
        self.config
    }

    /// Collective noncontiguous write. `mem` regions index into `buf`,
    /// `file` regions are logical offsets; both may be empty on ranks
    /// contributing nothing. Returns this rank's report: aggregator
    /// ranks carry the wire traffic of their domain, every rank carries
    /// its exchange traffic.
    pub fn write_all(
        &mut self,
        mem: &RegionList,
        file: &RegionList,
        buf: &[u8],
    ) -> PvfsResult<ExecReport> {
        self.two_phase(mem, file, UserBuf::Write(buf))
    }

    /// Collective noncontiguous read into `buf`. The mirror image of
    /// [`CollectiveFile::write_all`]: aggregators read their domains
    /// large, then send each rank its bytes.
    pub fn read_all(
        &mut self,
        mem: &RegionList,
        file: &RegionList,
        buf: &mut [u8],
    ) -> PvfsResult<ExecReport> {
        self.two_phase(mem, file, UserBuf::Read(buf))
    }

    /// The collective call over `user`: argument checks and the
    /// allgather that aborts every rank, this rank's plan, and its run.
    fn two_phase(
        &self,
        mem: &RegionList,
        file: &RegionList,
        user: UserBuf<'_>,
    ) -> PvfsResult<ExecReport> {
        let (kind, verb, buf_len) = match &user {
            UserBuf::Write(buf) => (IoKind::Write, "write", buf.len()),
            UserBuf::Read(buf) => (IoKind::Read, "read", buf.len()),
        };
        let (client, config) = (self.file.client(), self.file.method_config());
        // One trace per collective call: its phases land as phase_*
        // spans under this root, beside the "execute" tree its plan's
        // rounds open.
        let mut phases = Phases::begin(client, &format!("{verb}_all"));
        let local = validate_local(mem, file, buf_len).and_then(|_| config.validate());
        phases.close("phase_plan");
        // First collective: share every rank's file list (and argument
        // validity, so a bad rank aborts the group instead of hanging
        // it).
        let shared: Vec<(RegionList, bool)> = self.comm.allgather((file.clone(), local.is_ok()));
        phases.close("phase_exchange");
        if shared.iter().any(|(_, ok)| !ok) {
            local?;
            return Err(PvfsError::invalid(format!(
                "collective {verb} aborted: invalid arguments on another rank"
            )));
        }
        // What every rank now plans from alike: a failure here is every
        // rank's.
        let files: Vec<RegionList> = shared.into_iter().map(|(f, _)| f).collect();
        let (rank, layout) = (self.comm.rank(), self.file.layout());
        let aggregators = self
            .config
            .effective_aggregators(files.len(), layout.pcount);
        let call = CollectiveCall {
            files: &files,
            domains: DomainMap::new(layout, aggregators)?,
            cb_buffer: self.config.cb_buffer,
        };
        let request = ListRequest {
            mem: mem.clone(),
            file: file.clone(),
        };
        let plan = plan_collective(kind, rank, &request, &call, self.file.handle(), config)?;
        let mut execution = Execution::new(plan, user, client)?;
        phases.close("phase_plan");
        let done = drive(&self.comm, &mut execution, &mut phases, rank < aggregators);
        let report = execution.finish();
        done?;
        phases.finish(client);
        Ok(report)
    }
}

/// Run a collective plan and its call's collectives in order. A read
/// runs its aggregator's rounds, agrees on them — so no rank scatters
/// partial data — and exchanges; a write exchanges, runs its
/// aggregator's rounds, and agrees on them.
fn drive(
    comm: &Communicator,
    execution: &mut Execution<'_, '_>,
    phases: &mut Phases,
    aggregator: bool,
) -> PvfsResult<()> {
    let read = matches!(execution.runner.user, UserBuf::Read(_));
    let mut next = execution.run();
    if read {
        if aggregator {
            phases.close("phase_wire");
        }
        next = agree(comm, next, "collective read");
        phases.close("phase_exchange");
    }
    let exchange = next?.expect("a collective plan holds an exchange");
    let runner = &mut execution.runner;
    let outbox = (0..)
        .zip(&exchange.send)
        .filter(|(_, to)| !to.is_empty())
        .map(|(peer, to)| {
            let msg = runner.pack(to);
            let bytes = msg.len() as u64;
            Envelope { peer, bytes, msg }
        })
        .collect();
    let mut inbox = comm.exchange::<Vec<u8>>(outbox).into_iter().peekable();
    phases.close("phase_exchange");
    // In sender-rank order: where writes overlap, the highest rank's
    // bytes land last.
    let mut landed = Ok(());
    for (peer, from) in exchange.recv.iter().enumerate() {
        let msg = inbox.next_if(|env| env.peer == peer).map(|env| env.msg);
        landed = landed.and_then(|()| runner.unpack(from, &msg.unwrap_or_default()));
    }
    if read {
        phases.close("phase_merge");
        return landed;
    }
    let done = landed.and_then(|()| execution.run());
    if aggregator {
        phases.close("phase_wire");
    }
    let verdict = agree(comm, done, "collective write");
    phases.close("phase_exchange");
    verdict.map(drop)
}

/// A collective step's verdict, allgathered: either every rank of
/// `comm` returns `Ok` or every rank returns an error (its own, or that
/// `what` failed on another rank), and no rank is left blocked in a
/// collective the others abandoned.
fn agree<T>(comm: &Communicator, result: PvfsResult<T>, what: &str) -> PvfsResult<T> {
    let flags = comm.allgather(result.is_ok());
    let value = result?;
    if !flags.iter().all(|ok| *ok) {
        return Err(PvfsError::protocol(format!(
            "{what} failed on another rank"
        )));
    }
    Ok(value)
}

/// The two-phase segments of one collective call, as `phase_*` spans
/// under its root: one clock reading closes a phase and opens the next,
/// so from the root's start the phases tile the call with no gap between
/// them. Reads no clock when the call is untraced.
struct Phases {
    active: Option<ActiveTrace>,
    /// The reading the open phase began at.
    at: u64,
}

impl Phases {
    fn begin(client: &ClusterClient, root_op: &str) -> Phases {
        let active = client.tracer().begin(root_op);
        let at = active.as_ref().map_or(0, ActiveTrace::start_ns);
        Phases { active, at }
    }

    /// The phase open since the last boundary was `op`; the next opens
    /// now.
    fn close(&mut self, op: &str) {
        if let Some(a) = &self.active {
            let now = now_ns();
            a.span_at(a.root(), op, self.at, now, Vec::new());
            self.at = now;
        }
    }

    fn finish(self, client: &ClusterClient) {
        if let Some(a) = self.active {
            client.tracer().finish(a);
        }
    }
}

/// Per-rank argument checks, permitting the fully-empty request a
/// non-contributing rank passes. Returns the rank's piece map (which
/// demands equal totals and a sorted, disjoint file list).
fn validate_local(mem: &RegionList, file: &RegionList, buf_len: usize) -> PvfsResult<PieceMap> {
    check_buffer(mem, buf_len)?;
    PieceMap::new(mem, file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvfs_types::Region;

    /// The bounds check reads the memory list's index: an unsorted list
    /// of 256 regions, four blocks, whose one region past the buffer
    /// sits in a middle block is refused as a scan of it would be.
    #[test]
    fn a_memory_list_past_the_buffer_is_refused_wherever_its_furthest_end_lies() {
        let mut regions: Vec<Region> = (0..256).rev().map(|k| Region::new(4 * k, 2)).collect();
        let file = RegionList::contiguous(0, 512);
        let fits = RegionList::from_regions(regions.clone()).unwrap();
        assert!(validate_local(&fits, &file, 1024).is_ok());
        regions[100] = Region::new(1024, 2);
        let past = RegionList::from_regions(regions).unwrap();
        assert!(matches!(
            validate_local(&past, &file, 1024),
            Err(PvfsError::InvalidArgument(_))
        ));
    }
}
