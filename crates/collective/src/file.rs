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
        let file = if comm.rank() == 0 {
            let res = PvfsFile::create(client, path, layout);
            comm.allgather(res.is_ok());
            res?
        } else {
            let flags = comm.allgather(true);
            if !flags[0] {
                return Err(PvfsError::protocol(format!(
                    "collective create of {path:?} failed on rank 0"
                )));
            }
            PvfsFile::open(client, path)?
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
        let comm_before = self.comm.stats();
        // One trace per collective call: the two-phase segments land as
        // phase_* spans under this root, alongside the separate
        // "execute" trees the inner list plans open for their rounds.
        let mut phases = Phases::begin(self.file.client(), "write_all");
        let local = validate_local(mem, file, buf.len());
        phases.close("phase_plan");
        // First collective: share every rank's file list (and argument
        // validity, so a bad rank aborts the group instead of hanging
        // it).
        let shared: Vec<(RegionList, bool)> = self.comm.allgather((file.clone(), local.is_ok()));
        phases.close("phase_exchange");
        if shared.iter().any(|(_, ok)| !ok) {
            local?;
            return Err(PvfsError::invalid(
                "collective write aborted: invalid arguments on another rank",
            ));
        }
        let map = local.expect("checked above");
        let all_files: Vec<RegionList> = shared.into_iter().map(|(f, _)| f).collect();
        let dmap = DomainMap::new(self.file.layout(), self.comm.size(), &self.config)?;

        // Exchange phase: cut this rank's file regions at stripe
        // boundaries and ship each segment's bytes, gathered through the
        // piece map, to the aggregator owning its slot.
        let mut outbound: Vec<PieceBatch> = (0..dmap.aggregators())
            .map(|_| PieceBatch::default())
            .collect();
        let layout = self.file.layout();
        for f in file.iter() {
            for seg in layout.segments(*f) {
                let batch = &mut outbound[dmap.aggregator_of_slot(seg.slot)];
                let mut at = seg.logical.offset;
                map.for_each_slice(seg.logical, |m| {
                    let src = m.offset as usize..m.end() as usize;
                    batch.push(Region::new(at, m.len), &buf[src]);
                    at += m.len;
                });
            }
        }
        let outbox = outbound
            .into_iter()
            .enumerate()
            .filter(|(_, b)| !b.regions.is_empty())
            .map(|(agg, b)| Envelope {
                peer: agg,
                bytes: b.wire_bytes(),
                msg: b,
            })
            .collect();
        phases.close("phase_plan");
        let inbox = self.comm.exchange::<PieceBatch>(outbox);
        phases.close("phase_exchange");

        // I/O phase (aggregator ranks only): merge received pieces per
        // stripe slot, stage one cb_buffer window at a time, write each
        // window with one single-daemon list plan.
        let mut report = ExecReport::default();
        let result = if self.comm.rank() < dmap.aggregators() {
            let written = self.aggregate_write(&dmap, &all_files, &inbox, &mut report);
            phases.close("phase_wire");
            written
        } else {
            Ok(())
        };

        // Completion collective: every rank learns whether every domain
        // landed (and no rank outruns the writes).
        let flags = self.comm.allgather(result.is_ok());
        phases.close("phase_exchange");
        result?;
        if !flags.iter().all(|ok| *ok) {
            return Err(PvfsError::protocol(
                "collective write failed on another rank",
            ));
        }
        let comm_delta = self.comm.stats().since(&comm_before);
        report.exchange_bytes = comm_delta.bytes_sent;
        report.exchange_msgs = comm_delta.msgs_sent;
        phases.finish(self.file.client());
        Ok(report)
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
        let comm_before = self.comm.stats();
        let mut phases = Phases::begin(self.file.client(), "read_all");
        let local = validate_local(mem, file, buf.len());
        phases.close("phase_plan");
        let shared: Vec<(RegionList, bool)> = self.comm.allgather((file.clone(), local.is_ok()));
        phases.close("phase_exchange");
        if shared.iter().any(|(_, ok)| !ok) {
            local?;
            return Err(PvfsError::invalid(
                "collective read aborted: invalid arguments on another rank",
            ));
        }
        let map = local.expect("checked above");
        let all_files: Vec<RegionList> = shared.into_iter().map(|(f, _)| f).collect();
        let dmap = DomainMap::new(self.file.layout(), self.comm.size(), &self.config)?;
        phases.close("phase_plan");

        // I/O phase (aggregators): read each domain window once, carve
        // the staging buffer into per-rank batches.
        let mut report = ExecReport::default();
        let mut outbound: Vec<PieceBatch> = (0..self.comm.size())
            .map(|_| PieceBatch::default())
            .collect();
        let result = if self.comm.rank() < dmap.aggregators() {
            let read = self.aggregate_read(&dmap, &all_files, &mut outbound, &mut report);
            phases.close("phase_wire");
            read
        } else {
            Ok(())
        };

        // Outcome collective *before* the scatter: if any domain read
        // failed no rank enters the exchange, and every rank returns an
        // error instead of scattering partial data.
        let flags = self.comm.allgather(result.is_ok());
        phases.close("phase_exchange");
        result?;
        if !flags.iter().all(|ok| *ok) {
            return Err(PvfsError::protocol(
                "collective read failed on another rank",
            ));
        }

        // Exchange phase: aggregators scatter, every rank lands its
        // pieces through the request's piece map.
        let outbox = outbound
            .into_iter()
            .enumerate()
            .filter(|(_, b)| !b.regions.is_empty())
            .map(|(rank, b)| Envelope {
                peer: rank,
                bytes: b.wire_bytes(),
                msg: b,
            })
            .collect();
        let inbox = self.comm.exchange::<PieceBatch>(outbox);
        phases.close("phase_exchange");
        for env in inbox {
            let batch: PieceBatch = env.msg;
            let mut doff = 0usize;
            for r in &batch.regions {
                map.for_each_slice(*r, |s| {
                    let (o, l) = (s.offset as usize, s.len as usize);
                    buf[o..o + l].copy_from_slice(&batch.data[doff..doff + l]);
                    doff += l;
                });
            }
        }
        phases.close("phase_merge");
        let comm_delta = self.comm.stats().since(&comm_before);
        report.exchange_bytes = comm_delta.bytes_sent;
        report.exchange_msgs = comm_delta.msgs_sent;
        phases.finish(self.file.client());
        Ok(report)
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
                let (staged, place, extent) = staging(&window)?;
                let mut staging = vec![0u8; staged.total_len() as usize];
                for (pr, bi, doff) in pieces {
                    if !extent.contains(*pr) {
                        continue; // belongs to another window of this slot
                    }
                    let mut src = *doff;
                    place.for_each_slice(*pr, |s| {
                        let n = s.len as usize;
                        staging[s.offset as usize..s.end() as usize]
                            .copy_from_slice(&inbox[*bi].msg.data[src..src + n]);
                        src += n;
                    });
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
        outbound: &mut [PieceBatch],
        report: &mut ExecReport,
    ) -> PvfsResult<()> {
        let agg = self.comm.rank();
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
                let (staged, place, extent) = staging(&window)?;
                let mut staging = vec![0u8; staged.total_len() as usize];
                let r = self
                    .file
                    .read_list(&staged, &window, &mut staging, Method::List)?;
                report.absorb(&r);
                for (rank, segs) in rank_segs.iter().enumerate() {
                    for (s, reg) in segs {
                        if *s != slot || !extent.contains(*reg) {
                            continue;
                        }
                        let mut at = reg.offset;
                        place.for_each_slice(*reg, |held| {
                            let src = held.offset as usize..held.end() as usize;
                            outbound[rank].push(Region::new(at, held.len), &staging[src]);
                            at += held.len;
                        });
                    }
                }
            }
        }
        Ok(())
    }
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
/// region, the map placing the window's regions in it end to end, and
/// the window's extent — a piece belongs to the window whose extent
/// holds it.
fn staging(window: &RegionList) -> PvfsResult<(RegionList, PieceMap, Region)> {
    let staged = RegionList::contiguous(0, window.total_len());
    let place = PieceMap::new(&staged, window)?;
    let extent = window.extent().expect("a window holds at least one region");
    Ok((staged, place, extent))
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
