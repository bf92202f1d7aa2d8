//! Deterministic discrete-event simulation: the paper's testbed,
//! simulated.
//!
//! The paper timed PVFS on the Chiba City cluster — 2002 hardware we
//! cannot rent. This crate is the substitute: a virtual-time engine
//! whose cost models are calibrated to that testbed (100 Mb/s
//! full-duplex fast Ethernet, dual-PIII I/O servers, Quantum Atlas IV
//! SCSI disks). [`SimCluster::run`] takes one [`ClientJob`] (an
//! [`AccessPlan`](pvfs_core::AccessPlan) plus a user buffer) per
//! simulated compute node and replays them against *real*
//! [`IoDaemon`](pvfs_server::IoDaemon) state machines — the same daemon
//! and planner code the live cluster runs, every request really moving
//! its bytes — while the event loop advances a [`SimTime`] clock instead
//! of the wall clock through the contended resources of the testbed:
//!
//! * each client's CPU and full-duplex NIC (tx/rx),
//! * each server's request-processing CPU, NIC directions, and disk —
//!   priced per request, per region the request names, and per local
//!   access and disk time its daemon's metered files charged
//!   ([`IoDaemon::handle`](pvfs_server::IoDaemon::handle)),
//! * the cross-client serialization token for data sieving writes.
//!
//! Paper-scale experiments (32 clients, a million accesses) replay
//! deterministically in seconds. The returned [`SimReport`] carries
//! per-client completion times — the quantities plotted in the paper's
//! Figures 9–12, 15 and 17.
//!
//! Pieces:
//!
//! * [`SimTime`] — nanosecond virtual time.
//! * [`EventQueue`] — the classic time-ordered event heap with stable
//!   FIFO tie-breaking.
//! * [`FifoResource`] — serializes users of a contended resource (a
//!   server's CPU, one direction of a NIC) in arrival order.
//! * [`COST`] — every calibration constant in one documented place,
//!   with the derivations EXPERIMENTS.md relies on.
//! * [`SimCluster`] — the plan executor over all of the above.

mod cluster;
pub mod cost;
pub mod queue;
pub mod resource;
#[cfg(test)]
mod tests;
pub mod time;

pub use cluster::{metadata_rtt_ns, ClientJob, ClientReport, SimCluster, SimReport};
pub use cost::{ClientCost, CostConfig, NetCost, ServerCost, COST};
pub use queue::EventQueue;
pub use resource::FifoResource;
pub use time::SimTime;
