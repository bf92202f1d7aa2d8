//! `CollectiveFile`: the two-phase read/write engines.
//!
//! A `CollectiveFile` is one rank's handle on a collectively-accessed
//! file: a plain [`PvfsFile`] plus this rank's [`Communicator`]
//! endpoint. `read_all` / `write_all` are **collective** — every rank
//! of the communicator must call them in the same order (a rank that
//! skips one hangs the group, the MPI contract).
//!
//! # The two phases
//!
//! **Write** (`write_all`): every rank allgathers its file list so all
//! ranks see the full collective pattern; a [`DomainMap`] assigns each
//! stripe slot to an aggregator (ranks `0..aggregators` play that
//! role). Each rank cuts its data into stripe segments and ships them
//! to the owning aggregators through one `exchange`. An aggregator
//! merges everything it received — in sender-rank order, so overlapping
//! writes resolve deterministically (highest rank wins) — into a
//! staging buffer per `cb_buffer` window and writes each window with a
//! single-daemon list request. Because domains are disjoint stripe
//! slots, merged writes need no [`pvfs_net::SerialGate`]: the
//! equivalence suite pins `serial_sections == 0` and
//! `gate().acquisitions() == 0`.
//!
//! **Read** (`read_all`) runs the phases in reverse: aggregators read
//! their domains with large list requests, slice the staging buffers
//! into per-rank pieces, and one `exchange` scatters them; each rank
//! lands its pieces in its buffer through the request's
//! [`PieceMap`].
//!
//! # Failure
//!
//! Collective calls agree on the outcome: success flags are allgathered
//! (after the I/O phase on writes — doubling as the completion barrier
//! — and *before* the scatter exchange on reads), so either every rank
//! returns `Ok` or every rank returns an error, and no rank is left
//! blocked in a collective the others abandoned. Aggregator retries
//! under fault injection are safe: the aggregate phase issues only data
//! requests, which are idempotent (`Request::is_idempotent`).

use crate::comm::{Communicator, Envelope};
use crate::config::CollectiveConfig;
use crate::domain::{windows, DomainMap};
use pvfs_client::{ExecReport, PvfsFile};
use pvfs_core::{Method, PieceMap};
use pvfs_net::{ActiveTrace, ClusterClient};
use pvfs_types::clock::now_ns;
use pvfs_types::{PvfsError, PvfsResult, Region, RegionList, StripeLayout};
use std::collections::BTreeMap;

/// One hop of exchanged data: file regions and their bytes,
/// concatenated in region-list order.
#[derive(Debug, Default)]
struct PieceBatch {
    regions: Vec<Region>,
    data: Vec<u8>,
}

impl PieceBatch {
    /// Accounted exchange size: payload plus 16 bytes of (offset, len)
    /// framing per region.
    fn wire_bytes(&self) -> u64 {
        self.data.len() as u64 + 16 * self.regions.len() as u64
    }

    /// Append a region and its bytes, merging with the previous region
    /// when file-contiguous — a FLASH-style pattern of thousands of
    /// 8-byte memory pieces assembling one 4 KiB file chunk collapses
    /// to a single region this way.
    fn push(&mut self, region: Region, bytes: &[u8]) {
        debug_assert_eq!(region.len as usize, bytes.len());
        match self.regions.last_mut() {
            Some(last) if last.end() == region.offset => {
                *last = Region::new(last.offset, last.len + region.len);
            }
            _ => self.regions.push(region),
        }
        self.data.extend_from_slice(bytes);
    }

    /// Append the file `region`, its bytes read from `from` where `map`
    /// places them.
    fn gather(&mut self, map: &PieceMap, region: Region, from: &[u8]) {
        let mut at = region.offset;
        map.for_each_slice(region, |m| {
            let bytes = &from[m.offset as usize..m.end() as usize];
            self.push(Region::new(at, m.len), bytes);
            at += m.len;
        });
    }
}

/// Copy the file `region`'s bytes, which `from` opens with, to where
/// `map` places them in `to`.
fn place(map: &PieceMap, region: Region, mut from: &[u8], to: &mut [u8]) {
    map.for_each_slice(region, |m| {
        let (bytes, rest) = from.split_at(m.len as usize);
        to[m.offset as usize..m.end() as usize].copy_from_slice(bytes);
        from = rest;
    });
}

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
        Ok(CollectiveFile {
            file,
            comm,
            config: CollectiveConfig::from_env()?,
        })
    }

    /// Open an existing file collectively. All ranks of `comm` must
    /// call.
    pub fn open(
        client: &ClusterClient,
        path: &str,
        comm: Communicator,
    ) -> PvfsResult<CollectiveFile> {
        let file = PvfsFile::open(client, path)?;
        Ok(CollectiveFile {
            file,
            comm,
            config: CollectiveConfig::from_env()?,
        })
    }

    /// The underlying independent file handle.
    pub fn file(&self) -> &PvfsFile {
        &self.file
    }

    /// Mutable access to the underlying handle (retry policy, method
    /// config, independent I/O between collective calls).
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

    /// Override the collective knobs (aggregator count, staging-buffer
    /// bound). Must be set identically on every rank.
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
        self.two_phase(mem, file, Order::Write(buf))
    }

    /// Collective noncontiguous read into `buf`. The mirror image of
    /// [`CollectiveFile::write_all`]: aggregators read their domains
    /// large, then scatter pieces back to the requesting ranks.
    pub fn read_all(
        &mut self,
        mem: &RegionList,
        file: &RegionList,
        buf: &mut [u8],
    ) -> PvfsResult<ExecReport> {
        self.two_phase(mem, file, Order::Read(buf))
    }

    /// The collective call in either `order`: argument checks and the
    /// allgather that aborts every rank, the domain map, the I/O phase,
    /// the verdict, the exchange and the report's exchange counts.
    fn two_phase(
        &mut self,
        mem: &RegionList,
        file: &RegionList,
        order: Order,
    ) -> PvfsResult<ExecReport> {
        let comm_before = self.comm.stats();
        let (verb, buf_len) = match &order {
            Order::Write(buf) => ("write", buf.len()),
            Order::Read(buf) => ("read", buf.len()),
        };
        // One trace per collective call: the two-phase segments land as
        // phase_* spans under this root, alongside the separate
        // "execute" trees the inner list plans open for their rounds.
        let mut phases = Phases::begin(self.file.client(), &format!("{verb}_all"));
        let local = validate_local(mem, file, buf_len);
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
        let map = local.expect("checked above");
        let all_files: Vec<RegionList> = shared.into_iter().map(|(f, _)| f).collect();
        let dmap = DomainMap::new(self.file.layout(), self.comm.size(), &self.config)?;

        // A write's exchange comes first: cut this rank's file regions
        // at stripe boundaries and ship each segment's bytes, gathered
        // through the piece map, to the aggregator owning its slot.
        let inbox = match &order {
            Order::Write(buf) => {
                let (layout, mut outbound) = (self.file.layout(), batches(dmap.aggregators()));
                for seg in file.iter().flat_map(|f| layout.segments(*f)) {
                    outbound[dmap.aggregator_of_slot(seg.slot)].gather(&map, seg.logical, buf);
                }
                phases.close("phase_plan");
                let inbox = self.exchange(outbound);
                phases.close("phase_exchange");
                Some(inbox)
            }
            Order::Read(_) => {
                phases.close("phase_plan");
                None
            }
        };

        // I/O phase (aggregator ranks only), one cb_buffer window at a
        // time: a write merges what it received into each window and
        // writes it, a read reads each window into per-rank batches.
        let mut report = ExecReport::default();
        let scatter = if self.comm.rank() < dmap.aggregators() {
            let done = match &inbox {
                Some(inbox) => self
                    .aggregate_write(&dmap, &all_files, inbox, &mut report)
                    .map(|()| Vec::new()),
                None => self.aggregate_read(&dmap, &all_files, &mut report),
            };
            phases.close("phase_wire");
            done
        } else {
            Ok(Vec::new())
        };

        // The verdict: every rank learns whether every domain landed (and
        // no rank outruns the writes); a read decides before its
        // scatter, so no rank scatters partial data.
        let verdict = agree(&self.comm, scatter, &format!("collective {verb}"));
        phases.close("phase_exchange");
        let scatter = verdict?;

        // A read's exchange comes last: aggregators scatter, every rank
        // lands its pieces through the request's piece map.
        if let Order::Read(buf) = order {
            let inbox = self.exchange(scatter);
            phases.close("phase_exchange");
            for batch in inbox.iter().map(|env| &env.msg) {
                let mut doff = 0usize;
                for r in &batch.regions {
                    place(&map, *r, &batch.data[doff..], buf);
                    doff += r.len as usize;
                }
            }
            phases.close("phase_merge");
        }
        let comm_delta = self.comm.stats().since(&comm_before);
        report.exchange_bytes = comm_delta.bytes_sent;
        report.exchange_msgs = comm_delta.msgs_sent;
        phases.finish(self.file.client());
        Ok(report)
    }

    /// Send each non-empty batch to the rank at its index, in one
    /// `exchange`.
    fn exchange(&self, outbound: Vec<PieceBatch>) -> Vec<Envelope<PieceBatch>> {
        let outbox = outbound
            .into_iter()
            .enumerate()
            .filter(|(_, b)| !b.regions.is_empty())
            .map(|(peer, b)| Envelope {
                peer,
                bytes: b.wire_bytes(),
                msg: b,
            })
            .collect();
        self.comm.exchange::<PieceBatch>(outbox)
    }

    /// Aggregator write half: bucket received segments per stripe slot
    /// (preserving sender-rank order for deterministic overwrite), then
    /// for each slot window stage + write once.
    fn aggregate_write(
        &mut self,
        dmap: &DomainMap,
        all_files: &[RegionList],
        inbox: &[Envelope<PieceBatch>],
        report: &mut ExecReport,
    ) -> PvfsResult<()> {
        let agg = self.comm.rank();
        let layout = self.file.layout();
        // (region, batch index, offset into that batch's data), in
        // sender-rank order per slot. Received regions can span slots
        // (rank-side merging), so re-segment here.
        let mut slot_pieces: BTreeMap<u32, Vec<(Region, usize, usize)>> = BTreeMap::new();
        for (bi, env) in inbox.iter().enumerate() {
            let mut doff = 0usize;
            for r in &env.msg.regions {
                for seg in layout.segments(*r) {
                    debug_assert_eq!(dmap.aggregator_of_slot(seg.slot), agg);
                    slot_pieces.entry(seg.slot).or_default().push((
                        seg.logical,
                        bi,
                        doff + (seg.logical.offset - r.offset) as usize,
                    ));
                }
                doff += r.len as usize;
            }
        }
        for (slot, wlist) in dmap.slot_lists(agg, all_files) {
            let pieces = slot_pieces.get(&slot).map(Vec::as_slice).unwrap_or(&[]);
            for window in windows(&wlist, self.config.cb_buffer) {
                let (staged, map, extent, mut staging) = staging(&window)?;
                for (pr, bi, doff) in pieces {
                    if !extent.contains(*pr) {
                        continue; // belongs to another window of this slot
                    }
                    place(&map, *pr, &inbox[*bi].msg.data[*doff..], &mut staging);
                }
                let w = self
                    .file
                    .write_list(&staged, &window, &staging, Method::List)?;
                report.absorb(&w);
            }
        }
        Ok(())
    }

    /// Aggregator read half: read each domain window with one list
    /// plan, then carve the staging buffer into per-rank batches.
    fn aggregate_read(
        &mut self,
        dmap: &DomainMap,
        all_files: &[RegionList],
        report: &mut ExecReport,
    ) -> PvfsResult<Vec<PieceBatch>> {
        let agg = self.comm.rank();
        let mut outbound = batches(all_files.len());
        let layout = self.file.layout();
        // Which segments of my domain each rank asked for, per slot.
        let mut rank_segs: Vec<Vec<(u32, Region)>> = vec![Vec::new(); all_files.len()];
        for (rank, flist) in all_files.iter().enumerate() {
            for region in flist.iter() {
                for seg in layout.segments(*region) {
                    if dmap.aggregator_of_slot(seg.slot) == agg {
                        rank_segs[rank].push((seg.slot, seg.logical));
                    }
                }
            }
        }
        for (slot, wlist) in dmap.slot_lists(agg, all_files) {
            for window in windows(&wlist, self.config.cb_buffer) {
                let (staged, map, extent, mut staging) = staging(&window)?;
                let r = self
                    .file
                    .read_list(&staged, &window, &mut staging, Method::List)?;
                report.absorb(&r);
                for (rank, segs) in rank_segs.iter().enumerate() {
                    for (s, reg) in segs {
                        if *s != slot || !extent.contains(*reg) {
                            continue;
                        }
                        outbound[rank].gather(&map, *reg, &staging);
                    }
                }
            }
        }
        Ok(outbound)
    }
}

/// Which way a collective call moves data, and so the order of its
/// phases: a write exchanges, then writes at the aggregators; a read
/// reads at the aggregators, then exchanges.
enum Order<'a> {
    Write(&'a [u8]),
    Read(&'a mut [u8]),
}

/// `n` empty batches, one per peer.
fn batches(n: usize) -> Vec<PieceBatch> {
    (0..n).map(|_| PieceBatch::default()).collect()
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
    let map = PieceMap::new(mem, file)?;
    if let Some(extent) = mem.extent() {
        if extent.end() > buf_len as u64 {
            return Err(PvfsError::invalid(format!(
                "memory list reaches offset {} but the buffer is {buf_len} bytes",
                extent.end()
            )));
        }
    }
    Ok(map)
}

/// An aggregator's staging for one window: the buffer's one contiguous
/// region, the map placing the window's regions in it end to end, the
/// window's extent — a piece belongs to the window whose extent holds
/// it — and the zeroed buffer.
fn staging(window: &RegionList) -> PvfsResult<(RegionList, PieceMap, Region, Vec<u8>)> {
    let staged = RegionList::contiguous(0, window.total_len());
    let place = PieceMap::new(&staged, window)?;
    let extent = window.extent().expect("a window holds at least one region");
    Ok((
        staged,
        place,
        extent,
        vec![0u8; window.total_len() as usize],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

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
