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

use pvfs_proto::{Request, Response};
use pvfs_types::{FlightRecorder, Ledger, PvfsError};
use std::sync::atomic::Ordering;

/// Answer `request` for a daemon keeping `ledger` and `recorder`: a
/// scrape from them before any counter moves — a poll observes the
/// daemon without perturbing it, `ResetStats` hands back what it zeroes,
/// and reading the ring clones spans — anything else from `dispatch`,
/// counted. Allocates only a scrape's reply: it is on the data path.
fn answer(
    request: &Request,
    ledger: &Ledger,
    recorder: &FlightRecorder,
    dispatch: impl FnOnce() -> Result<Response, PvfsError>,
) -> Response {
    let snapshot = || Response::Stats(Box::new(ledger.snapshot()));
    match request {
        Request::GetStats => snapshot(),
        Request::ResetStats => {
            let snap = snapshot();
            ledger.reset();
            snap
        }
        Request::GetTrace { trace } => Response::Spans(recorder.for_trace(*trace)),
        _ => {
            ledger.requests.fetch_add(1, Ordering::Relaxed);
            dispatch().unwrap_or_else(|e| {
                ledger.errors.fetch_add(1, Ordering::Relaxed);
                Response::Error(e)
            })
        }
    }
}
