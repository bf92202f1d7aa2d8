//! Noncontiguous I/O access methods over PVFS — the paper's contribution.
//!
//! A noncontiguous access is described by a [`ListRequest`]: a list of
//! contiguous *memory* regions paired with a list of contiguous *file*
//! regions of equal total length (the shape of the paper's
//! `pvfs_read_list` interface, §3.3). This crate compiles such a request
//! into an [`AccessPlan`] under one of the paper's three access methods —
//! plus the two extensions its conclusion proposes:
//!
//! * [`Method::Multiple`] — one contiguous file-system request per
//!   contiguous file region (§3.1). Baseline; request count grows
//!   linearly with the number of regions.
//! * [`Method::DataSieving`] — read a large window (default 32 MB)
//!   covering many regions and filter in client memory (§3.2); writes
//!   become read-modify-write and are serialized across clients because
//!   PVFS has no locks.
//! * [`Method::List`] — the contribution: one request carries up to 64
//!   file regions as trailing data, sized to fit one 1500-byte Ethernet
//!   frame (§3.3).
//! * [`Method::Hybrid`] — §5 future work: sieve dense clusters of
//!   regions, list the sparse remainder.
//! * [`Method::Datatype`] — §5 future work: compress regular stretches
//!   of the file list into vector runs on the wire, so the request count
//!   no longer grows with the region count.
//!
//! An [`AccessPlan`] is a lazy sequence of [`Step`]s — parallel rounds of
//! per-server wire operations, client-side copies, and serialization
//! markers. Two executors run plans: the live threaded cluster
//! (`pvfs-client` over `pvfs-net`) and the discrete-event simulator
//! (`pvfs-sim`). Both use the scatter/gather helpers in [`exec`],
//! so the bytes the correctness tests verify are produced by exactly the
//! code the timed figures measure.

pub mod exec;
pub mod hybrid;
pub mod listio;
pub mod method;
pub mod multiple;
pub mod pattern;
pub mod plan;
pub mod planutil;
pub mod request;
pub mod sieving;

pub use exec::Buffers;
pub use method::{Method, MethodConfig};
pub use plan::{
    AccessPlan, CopyPair, IoKind, MemSlice, OpKind, PlanStats, Round, RoundOps, Space, Step,
    Target, WireOp,
};
pub use pvfs_types::PieceMap;
pub use request::ListRequest;

use pvfs_types::{FileHandle, PvfsResult, StripeLayout};

/// Compile a noncontiguous request into an access plan under `method`.
///
/// This is the crate's front door; the per-method planners live in
/// [`multiple`], [`sieving`], [`listio`], [`hybrid`] and [`pattern`].
/// Each is handed the request's one [`PieceMap`], built here by the
/// request's one check ([`ListRequest::piece_map`]).
pub fn plan(
    method: Method,
    kind: IoKind,
    request: &ListRequest,
    handle: FileHandle,
    layout: StripeLayout,
    config: &MethodConfig,
) -> PvfsResult<AccessPlan> {
    let map = request.piece_map()?;
    layout.validate()?;
    config.validate()?;
    let planner = match method {
        Method::Multiple => multiple::plan,
        Method::DataSieving => sieving::plan,
        Method::List => listio::plan,
        Method::Hybrid => hybrid::plan,
        Method::Datatype => pattern::plan,
    };
    planner(kind, request, map, handle, layout, config)
}
