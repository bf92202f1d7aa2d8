//! Shared vocabulary for the PVFS list-I/O reproduction.
//!
//! This crate defines the types every other crate in the workspace speaks:
//!
//! * [`Region`] / [`RegionList`] — contiguous byte ranges and ordered lists
//!   of them, the currency of noncontiguous I/O. A noncontiguous request in
//!   the paper is exactly a pair of region lists (one for memory, one for
//!   file) with equal total lengths; a [`PieceMap`] pairs the two byte
//!   for byte.
//! * [`StripeLayout`] — PVFS user-controlled striping (base node, pcount,
//!   stripe size) and the logical-offset ⇄ (server, local offset) mapping
//!   both the client library and the I/O daemons rely on.
//! * [`Histogram`] / [`SharedHistogram`] — the latency-metrics vocabulary
//!   shared by the simulator and the live transports — and the
//!   [`Ledger`]: the one table every daemon and client metric is declared
//!   in, from which [`StatsSnapshot`], [`ClientStats`] and what the
//!   `GetStats` control RPC ships are derived.
//! * [`clock`] — the program's one clock: every timing, span and
//!   deadline is a reading of [`clock::now_ns`].
//! * [`trace`] — distributed request tracing: `TraceId`/`SpanId`,
//!   compact [`Span`] records, the per-daemon [`FlightRecorder`] ring
//!   buffer, and the [`TraceTree`] waterfall assembler.
//! * [`mod@env`] — the table of every `PVFS_*` environment variable and the
//!   only code that reads one.
//! * [`iov`] — the one vectored writer, for a journal record and a
//!   socket's frames alike.
//! * ids and error types used across the wire protocol, servers and
//!   clients.
//!
//! Nothing here performs I/O of its own ([`iov`] writes to whatever
//! writer it is handed); these are pure data structures with heavily
//! tested invariants.

pub mod clock;
pub mod env;
pub mod error;
pub mod ids;
pub mod iov;
pub mod metrics;
pub mod region;
pub mod striping;
pub mod trace;

pub use error::{PvfsError, PvfsResult};
pub use ids::{ClientId, FileHandle, RequestId, ServerId};
pub use metrics::{
    ClientLedger, ClientStats, Histogram, Ledger, ScrubReport, SharedHistogram, StatsSnapshot,
};
pub use region::{PieceMap, Pieces, Region, RegionList, TransferPiece};
// The reference walk, for the tests' oracles and the benchmark's inputs.
pub use region::align_lists;
pub use striping::{StripeLayout, StripeSegment};
pub use trace::{
    FlightRecorder, Span, SpanId, TraceContext, TraceId, TraceMode, TraceTree, DEFAULT_TRACE_CAP,
};
