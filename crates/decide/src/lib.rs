//! What the live cluster decides, with none of its I/O: the request
//! pipeline's [`Pump`] over a client's [`Endpoint`], a daemon's
//! [`door::Door`], each daemon's window and breaker ([`health`]), the
//! retry policy ([`retry`]) and who owns a frame's buffers ([`spares`]).
//! Each is a value that is told the clock readings its driver took.
//!
//! This crate reads no clock, starts, parks or puts to sleep no thread,
//! and holds no lock, channel, socket or file; `pvfs-net` drives it and
//! does all of that. Cargo keeps the drivers out of reach, since
//! `pvfs-net` depends on this crate; this crate's `clippy.toml` forbids
//! the rest. Two locks stay, each under an `#[allow]` that says why.

pub mod door;
mod endpoint;
pub mod health;
pub mod pump;
pub mod retry;
pub mod spares;

pub use endpoint::{Endpoint, RpcTarget, DEFAULT_RPC_TIMEOUT};
pub use health::{BreakerPolicy, BreakerState, HealthTracker};
pub use pump::{Fill, Memory, OpStream, Placed, Pump, Put, WaitError, WINDOW};
pub use retry::RetryPolicy;
