//! PVFS daemons as pure state machines.
//!
//! PVFS is a client–server system with two kinds of daemons (§2):
//!
//! * the **manager daemon** ([`Manager`]) handles only metadata — the
//!   namespace, permissions, striping parameters — and is *never* on the
//!   data path;
//! * the **I/O daemons** ([`IoDaemon`]) each store the stripes of every
//!   file they participate in and serve read/write requests directly to
//!   clients.
//!
//! Both daemons expose a single `handle(request) -> (response, cost)`
//! entry point with no knowledge of threads, channels or virtual time.
//! The live threaded cluster (`pvfs-net`) calls them from server
//! threads; the discrete-event simulator (`pvfs-sim`) calls them
//! from its event loop and converts the returned [`ServeCost`] into
//! virtual time. One implementation, two executions — the strategy
//! comparison in the paper's figures exercises exactly the code the
//! correctness tests exercise.

pub mod iod;
pub mod manager;

pub use iod::{default_workers, IoDaemon, IodConfig, Scratch, ServeCost};
pub use manager::Manager;
