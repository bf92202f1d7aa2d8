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
//! Both daemons serve a request into a response with no knowledge of
//! threads, channels, virtual time, cost or tracing (beyond keeping the
//! span ring a `GetTrace` scrapes). The live threaded cluster
//! (`pvfs-net`) calls them from server threads, and records a traced
//! request's spans around the call; the discrete-event
//! simulator (`pvfs-sim`) calls [`IoDaemon::handle`] from its event loop
//! and prices what the request and the daemon's metered local files say
//! it cost. One implementation, two executions — the strategy comparison
//! in the paper's figures exercises exactly the code the correctness
//! tests exercise.

pub mod iod;
pub mod manager;

pub use iod::{default_workers, IoDaemon, IodConfig, Scratch};
pub use manager::Manager;
