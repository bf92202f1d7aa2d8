//! Per-daemon health: what the request pump reads of a daemon before it
//! ships there — how many flights one stream may keep in the air at it
//! (the *window*) and whether its circuit *breaker* lets the frame go.
//!
//! One wedged daemon would brown out every round that touches it, so
//! [`BreakerPolicy::threshold`] transport-class failures (connection
//! loss, timeout) in a row open its breaker: RPCs there fail fast with
//! [`PvfsError::Unavailable`]. After [`BreakerPolicy::open_for`] one
//! probe goes and the rest are refused until it lands: a reply closes
//! the breaker, a failure re-opens it, a lost probe lets another go one
//! `open_for` later.
//!
//! ```text
//!            threshold consecutive failures
//!   Closed ────────────────────────────────▶ Open
//!     ▲                                       │ open_for elapses:
//!     │  probe succeeds                       ▼ one probe admitted
//!     └───────────────────────────────── HalfOpen
//!                probe fails: back to Open
//! ```
//!
//! A shed ([`PvfsError::Overloaded`]) is a sign of life, and the
//! daemon's word that its queue, which every client shares, is full:
//! the window is [`WINDOW`] until the daemon sheds, halved by each shed,
//! reopened by one after 64 replies in a row without one. Latency is
//! not kept here: `ClientStats::rpc_latency` is the one record of it.

use pvfs_types::{clock, PvfsError, ServerId};
use std::sync::Mutex;
use std::time::Duration;

use crate::cluster::WINDOW;

/// When a per-daemon circuit breaker opens and for how long.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive transport-class failures that open the breaker.
    pub threshold: u32,
    /// How long an open breaker refuses before a probe (or another) goes.
    pub open_for: Duration,
}

impl Default for BreakerPolicy {
    fn default() -> BreakerPolicy {
        BreakerPolicy {
            threshold: 3,
            open_for: Duration::from_millis(250),
        }
    }
}

impl BreakerPolicy {
    /// A breaker that never opens: every RPC goes to the wire.
    pub fn off() -> BreakerPolicy {
        BreakerPolicy {
            threshold: u32::MAX,
            ..BreakerPolicy::default()
        }
    }
}

/// A breaker's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Healthy: RPCs flow.
    #[default]
    Closed,
    /// Tripped, or probing with the probe still out: RPCs fail fast.
    Open,
    /// The open window has elapsed: the next RPC goes as the probe.
    HalfOpen,
}

/// Replies in a row without a shed that reopen a daemon's window by one
/// flight: a default queue's worth (16, 64, 256 and 1024 measured alike).
const REOPEN_AFTER: u32 = 64;

#[derive(Debug, Clone, Copy, Default)]
struct ServerHealth {
    /// Transport-class failures since the last reply.
    failures: u32,
    /// `Open` once tripped, `HalfOpen` once a probe has been admitted.
    breaker: BreakerState,
    /// While not closed: the clock reading from which a probe may go.
    probe_at: u64,
    /// Flights one stream may keep in the air here.
    window: usize,
    /// Replies since the last shed, or since the window last reopened.
    calm: u32,
}

/// The per-daemon window and breaker, fed from every RPC outcome of a
/// [`ClusterClient`](crate::ClusterClient) and all its clones.
#[derive(Debug)]
pub struct HealthTracker {
    servers: Vec<Mutex<ServerHealth>>,
    policy: BreakerPolicy,
}

impl HealthTracker {
    /// A tracker for `n_servers` daemons under `policy`.
    pub fn new(n_servers: u32, policy: BreakerPolicy) -> HealthTracker {
        let fresh = ServerHealth {
            window: WINDOW,
            ..ServerHealth::default()
        };
        let servers = (0..n_servers).map(|_| Mutex::new(fresh)).collect();
        HealthTracker { servers, policy }
    }

    /// `f` of `server`'s record; `None` (inert) for an unknown daemon.
    fn with<R>(&self, server: ServerId, f: impl FnOnce(&mut ServerHealth) -> R) -> Option<R> {
        let lock = self.servers.get(server.index())?;
        Some(f(&mut lock.lock().unwrap()))
    }

    /// Gate an RPC to `server` at the clock reading `now`: `Ok` admits it
    /// (once the open window has elapsed, as the probe, and the window
    /// starts again), `Err` is the fail-fast [`PvfsError::Unavailable`].
    pub fn admit(&self, server: ServerId, now: u64) -> Result<(), PvfsError> {
        let open_for = clock::nanos(self.policy.open_for);
        self.with(server, |h| match h.breaker {
            BreakerState::Closed => Ok(()),
            _ if now >= h.probe_at => {
                h.breaker = BreakerState::HalfOpen;
                h.probe_at = now.saturating_add(open_for);
                Ok(())
            }
            _ => Err(PvfsError::Unavailable {
                server: server.0,
                retry_after_ms: ((h.probe_at - now) / 1_000_000).max(1),
            }),
        })
        .unwrap_or(Ok(()))
    }

    /// `server` answered (a probe succeeding is exactly this path):
    /// clears the failure streak, closes the breaker, and counts toward
    /// reopening a narrowed window.
    pub fn record_success(&self, server: ServerId) {
        self.with(server, |h| {
            h.failures = 0;
            h.breaker = BreakerState::Closed;
            h.calm += u32::from(h.window < WINDOW);
            if h.calm == REOPEN_AFTER {
                h.window += 1;
                h.calm = 0;
            }
        });
    }

    /// `server` shed a request off its full queue: alive, as by any reply,
    /// but this endpoint's share of its queue was too wide. Halves the
    /// window on it, never below one flight.
    pub fn record_shed(&self, server: ServerId) {
        self.with(server, |h| {
            h.failures = 0;
            h.breaker = BreakerState::Closed;
            h.window = (h.window / 2).max(1);
            h.calm = 0;
        });
    }

    /// How many flights one stream may keep in the air at `server`.
    pub fn window(&self, server: ServerId) -> usize {
        self.with(server, |h| h.window).unwrap_or(WINDOW)
    }

    /// Feed a transport-class failure (connection loss, timeout; never a
    /// shed) of `server` at the clock reading `now`: opens the breaker
    /// when the streak reaches the threshold, or at once on a failed probe.
    pub fn record_failure(&self, server: ServerId, now: u64) {
        let policy = self.policy;
        self.with(server, |h| {
            h.failures = h.failures.saturating_add(1);
            let trip = match h.breaker {
                BreakerState::Closed => h.failures >= policy.threshold,
                BreakerState::HalfOpen => true,
                BreakerState::Open => false,
            };
            if trip {
                h.breaker = BreakerState::Open;
                h.probe_at = now.saturating_add(clock::nanos(policy.open_for));
            }
        });
    }

    /// The breaker state of `server` at the clock reading `now`, as an
    /// [`admit`](HealthTracker::admit) would find it: `Open` while it
    /// refuses (a probe out included), `HalfOpen` once a probe would go.
    pub fn state(&self, server: ServerId, now: u64) -> BreakerState {
        let state = |h: &mut ServerHealth| match h.breaker {
            BreakerState::Closed => BreakerState::Closed,
            _ if now < h.probe_at => BreakerState::Open,
            _ => BreakerState::HalfOpen,
        };
        self.with(server, state).unwrap_or(BreakerState::Closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S0: ServerId = ServerId(0);
    const MS: u64 = 1_000_000;

    fn fast_policy() -> BreakerPolicy {
        BreakerPolicy {
            threshold: 3,
            open_for: Duration::from_millis(30),
        }
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let t = HealthTracker::new(1, fast_policy());
        assert_eq!(t.state(S0, 0), BreakerState::Closed);

        // Two failures: still closed (threshold is 3).
        t.record_failure(S0, 0);
        t.record_failure(S0, MS);
        assert_eq!(t.state(S0, MS), BreakerState::Closed);
        assert!(t.admit(S0, MS).is_ok());

        // Third failure trips it: admissions fail fast with a typed
        // Unavailable carrying a retry hint.
        t.record_failure(S0, 2 * MS);
        assert_eq!(t.state(S0, 2 * MS), BreakerState::Open);
        match t.admit(S0, 3 * MS) {
            Err(PvfsError::Unavailable {
                server,
                retry_after_ms,
            }) => {
                assert_eq!(server, 0);
                assert_eq!(retry_after_ms, 29, "open until 2 ms + 30 ms");
            }
            other => panic!("open breaker must reject with Unavailable, got {other:?}"),
        }
        assert_eq!(t.state(S0, 32 * MS - 1), BreakerState::Open);

        // After the open window, the next admit is the half-open probe.
        assert_eq!(t.state(S0, 32 * MS), BreakerState::HalfOpen);
        assert!(t.admit(S0, 32 * MS).is_ok());

        // Probe succeeds: closed again, and the streak starts over — two
        // more failures do not trip a threshold of 3.
        t.record_success(S0);
        assert_eq!(t.state(S0, 32 * MS), BreakerState::Closed);
        t.record_failure(S0, 33 * MS);
        t.record_failure(S0, 33 * MS);
        assert_eq!(t.state(S0, 33 * MS), BreakerState::Closed);
    }

    #[test]
    fn failed_halfopen_probe_reopens_immediately() {
        let t = HealthTracker::new(1, fast_policy());
        for _ in 0..3 {
            t.record_failure(S0, 0);
        }
        assert!(
            t.admit(S0, 35 * MS).is_ok(),
            "window elapsed: probe admitted"
        );
        // One failure — not a fresh threshold-long streak — re-opens.
        t.record_failure(S0, 35 * MS);
        assert_eq!(t.state(S0, 35 * MS), BreakerState::Open);
        assert!(t.admit(S0, 64 * MS).is_err());
        assert!(t.admit(S0, 65 * MS).is_ok(), "the next probe");
    }

    /// Half-open admits one probe, not the herd: every other caller is
    /// refused while it is out, and the copy reads as open meanwhile. A
    /// probe that never lands lets another go one window later.
    #[test]
    fn half_open_admits_one_probe_not_the_herd() {
        let t = HealthTracker::new(1, fast_policy());
        for _ in 0..3 {
            t.record_failure(S0, 0);
        }
        assert_eq!(t.state(S0, 30 * MS), BreakerState::HalfOpen);
        assert!(t.admit(S0, 30 * MS).is_ok(), "the probe");
        assert!(t.admit(S0, 30 * MS).is_err(), "the herd behind it");
        assert_eq!(t.state(S0, 30 * MS), BreakerState::Open);
        assert!(t.admit(S0, 60 * MS - 1).is_err());
        assert_eq!(t.state(S0, 60 * MS), BreakerState::HalfOpen);
        assert!(t.admit(S0, 60 * MS).is_ok(), "the first probe was lost");
        assert!(t.admit(S0, 60 * MS).is_err());
        t.record_success(S0);
        assert!(t.admit(S0, 60 * MS).is_ok(), "closed: everyone flows");
        assert!(t.admit(S0, 60 * MS).is_ok());
    }

    #[test]
    fn successes_interrupt_the_failure_streak() {
        let t = HealthTracker::new(1, fast_policy());
        t.record_failure(S0, 0);
        t.record_failure(S0, 0);
        t.record_success(S0);
        t.record_failure(S0, 0);
        t.record_failure(S0, 0);
        assert_eq!(
            t.state(S0, 0),
            BreakerState::Closed,
            "streak reset by success: 2+2 failures must not trip a threshold of 3"
        );
    }

    #[test]
    fn sheds_halve_the_window_and_calm_replies_reopen_it() {
        let t = HealthTracker::new(2, BreakerPolicy::default());
        let reply = || t.record_success(S0);
        assert_eq!(t.window(S0), WINDOW);
        t.record_shed(S0);
        assert_eq!(t.window(S0), WINDOW / 2);
        for _ in 0..4 {
            t.record_shed(S0);
        }
        assert_eq!(t.window(S0), 1, "never below one flight");
        assert_eq!(t.state(S0, 0), BreakerState::Closed, "a shed is no failure");
        assert_eq!(t.window(ServerId(1)), WINDOW, "per daemon");

        (0..REOPEN_AFTER - 1).for_each(|_| reply());
        assert_eq!(t.window(S0), 1);
        t.record_shed(S0);
        (0..REOPEN_AFTER - 1).for_each(|_| reply());
        assert_eq!(t.window(S0), 1, "a shed starts the count over");
        reply();
        assert_eq!(t.window(S0), 2);
        (0..10 * REOPEN_AFTER).for_each(|_| reply());
        assert_eq!(t.window(S0), WINDOW, "and never above WINDOW");
    }

    #[test]
    fn off_policy_never_opens() {
        let t = HealthTracker::new(1, BreakerPolicy::off());
        for _ in 0..1000 {
            t.record_failure(S0, 0);
        }
        assert_eq!(t.state(S0, 0), BreakerState::Closed);
        assert!(t.admit(S0, 0).is_ok());
    }

    #[test]
    fn unknown_servers_are_inert() {
        let t = HealthTracker::new(1, fast_policy());
        let ghost = ServerId(7);
        t.record_failure(ghost, 0);
        t.record_success(ghost);
        t.record_shed(ghost);
        assert!(t.admit(ghost, 0).is_ok());
        assert_eq!(t.state(ghost, 0), BreakerState::Closed);
        assert_eq!(t.window(ghost), WINDOW);
    }
}
