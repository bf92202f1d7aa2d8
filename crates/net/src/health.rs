//! Per-daemon health tracking and circuit breaking: the client-side
//! failure detector behind brown-out resilience.
//!
//! A PVFS list-I/O round is only as fast as the slowest daemon it
//! touches, so one wedged or dying daemon browns out the whole
//! cluster: every client blocks its full RPC timeout, retries, and
//! blocks again. The [`HealthTracker`] breaks that loop. Every RPC
//! outcome — not just dedicated `Ping` probes — feeds a per-daemon
//! record of EWMA latency and consecutive failures; once failures
//! cross [`BreakerPolicy::threshold`], the daemon's circuit breaker
//! opens and further RPCs to it fail fast with
//! [`PvfsError::Unavailable`] instead of queueing behind a timeout.
//! After [`BreakerPolicy::open_for`], the breaker admits a half-open
//! probe: one success re-closes it, one failure re-opens it.
//!
//! The state machine is the classic three-state breaker:
//!
//! ```text
//!            threshold consecutive failures
//!   Closed ────────────────────────────────▶ Open
//!     ▲                                       │ open_for elapses
//!     │  probe succeeds                       ▼
//!     └───────────────────────────────── HalfOpen
//!                probe fails: back to Open
//! ```
//!
//! Only *transport-class* failures (connection loss, timeout) trip
//! the breaker. A shed ([`PvfsError::Overloaded`]) is explicitly a
//! sign of life — the daemon answered quickly, just with "not now" —
//! so it counts as neither success nor failure: it clears the failure
//! streak and closes a half-open breaker, and how fast the refusal came
//! is no latency sample (a daemon that serves nothing must not look
//! like the fastest copy). What it does say is that the daemon's
//! queue, which every client shares, is full: the
//! tracker keeps, beside each breaker, how many flights one request
//! stream may have in the air at that daemon
//! ([`HealthTracker::window`]) — [`WINDOW`] until the daemon sheds,
//! halved by each shed, reopened by one after 64 replies in a row
//! without one — so that many clients' windows settle into one queue.

use pvfs_types::clock;
use pvfs_types::{PvfsError, ServerId};
use std::sync::Mutex;
use std::time::Duration;

use crate::cluster::WINDOW;
use crate::envspec::{self, parse_duration};

/// When a per-daemon circuit breaker opens and for how long.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive transport-class failures that open the breaker.
    pub threshold: u32,
    /// How long an open breaker rejects before admitting a half-open
    /// probe.
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

    /// Whether this policy can ever open a breaker.
    pub fn enabled(&self) -> bool {
        self.threshold != u32::MAX
    }

    /// The policy selected by the `PVFS_BREAKER` environment variable.
    ///
    /// * unset — [`BreakerPolicy::default`] (breakers on);
    /// * `off` — breakers never open;
    /// * `threshold=5,open=500ms` — explicit knobs, each optional.
    ///
    /// Panics on a malformed spec, like the other `PVFS_*` variables.
    pub fn from_env() -> BreakerPolicy {
        pvfs_types::env::parsed(
            "PVFS_BREAKER",
            BreakerPolicy::parse,
            BreakerPolicy::default(),
        )
    }

    /// Parse a `PVFS_BREAKER` spec (see [`BreakerPolicy::from_env`]).
    pub fn parse(spec: &str) -> Result<BreakerPolicy, String> {
        let spec = spec.trim();
        if spec == "off" || spec == "0" {
            return Ok(BreakerPolicy::off());
        }
        let mut policy = BreakerPolicy::default();
        for option in envspec::options(spec) {
            let (key, value) = option?;
            match key {
                "threshold" => {
                    policy.threshold = value
                        .parse()
                        .map_err(|_| format!("threshold {value:?} is not a count"))?;
                    if policy.threshold == 0 {
                        return Err("threshold must be at least 1".into());
                    }
                }
                "open" => policy.open_for = parse_duration(value)?,
                other => return Err(format!("unknown breaker option {other:?}")),
            }
        }
        Ok(policy)
    }
}

/// A breaker's observable state (diagnostics and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: RPCs flow.
    Closed,
    /// Tripped: RPCs fail fast until the open window elapses.
    Open,
    /// Probing: one window has elapsed; RPCs flow, but the first
    /// failure re-opens immediately.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

/// EWMA smoothing factor for per-daemon latency: each sample moves
/// the estimate 20% of the way toward itself — smooth enough to ride
/// out one outlier, fast enough to notice a daemon going slow within
/// a handful of RPCs.
const EWMA_ALPHA: f64 = 0.2;

#[derive(Debug)]
enum Circuit {
    Closed,
    Open { until: u64 },
    HalfOpen,
}

impl Circuit {
    /// The state at the clock reading `now`, as an `admit` then sees it:
    /// an open circuit whose window has elapsed reads as half-open.
    fn state(&self, now: u64) -> BreakerState {
        match *self {
            Circuit::Closed => BreakerState::Closed,
            Circuit::Open { until } if now < until => BreakerState::Open,
            Circuit::Open { .. } | Circuit::HalfOpen => BreakerState::HalfOpen,
        }
    }
}

/// Replies in a row without a shed that reopen a daemon's window by one
/// flight: a default queue's worth. (Measured with 32 and 64 clients on
/// four daemons: 16, 64, 256 and 1024 shed and finish alike — nearly
/// all sheds fall in the first op, when every client opens at
/// [`WINDOW`].)
const REOPEN_AFTER: u32 = 64;

#[derive(Debug)]
struct ServerHealth {
    /// Smoothed RPC latency in nanoseconds; 0.0 until the first sample.
    ewma_ns: f64,
    samples: u64,
    consecutive_failures: u32,
    circuit: Circuit,
    /// Lifetime count of closed→open transitions (diagnostics).
    trips: u64,
    /// Flights one stream may keep in the air here: [`WINDOW`] until
    /// the daemon sheds.
    window: usize,
    /// Replies since the last shed, or since the window last reopened.
    calm: u32,
}

impl ServerHealth {
    fn new() -> ServerHealth {
        ServerHealth {
            ewma_ns: 0.0,
            samples: 0,
            consecutive_failures: 0,
            circuit: Circuit::Closed,
            trips: 0,
            window: WINDOW,
            calm: 0,
        }
    }
}

/// One health snapshot row (a daemon as the tracker sees it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerHealthSnapshot {
    /// Breaker state at snapshot time.
    pub state: BreakerState,
    /// Smoothed RPC latency, `None` before the first success.
    pub ewma: Option<Duration>,
    /// Failures since the last success.
    pub consecutive_failures: u32,
    /// Lifetime closed→open transitions.
    pub trips: u64,
}

/// The per-daemon failure detector: one breaker + EWMA latency per
/// I/O daemon, fed from every RPC outcome. Shared (behind an `Arc`)
/// by every clone of a [`ClusterClient`](crate::ClusterClient), so
/// all of an endpoint's traffic contributes signal.
#[derive(Debug)]
pub struct HealthTracker {
    servers: Vec<Mutex<ServerHealth>>,
    policy: BreakerPolicy,
}

impl HealthTracker {
    /// A tracker for `n_servers` daemons under `policy`.
    pub fn new(n_servers: u32, policy: BreakerPolicy) -> HealthTracker {
        HealthTracker {
            servers: (0..n_servers)
                .map(|_| Mutex::new(ServerHealth::new()))
                .collect(),
            policy,
        }
    }

    /// The policy this tracker enforces.
    pub fn policy(&self) -> BreakerPolicy {
        self.policy
    }

    /// Gate an RPC to `server` at the clock reading `now`: `Ok` admits
    /// it to the wire, `Err` is the fail-fast [`PvfsError::Unavailable`]
    /// carrying how long until the breaker will admit a probe. An open
    /// breaker whose window has elapsed flips to half-open *here* and
    /// admits the caller as the probe.
    pub fn admit(&self, server: ServerId, now: u64) -> Result<(), PvfsError> {
        let Some(lock) = self.servers.get(server.index()) else {
            return Ok(());
        };
        let mut h = lock.lock().unwrap();
        match h.circuit {
            Circuit::Closed | Circuit::HalfOpen => Ok(()),
            Circuit::Open { until } => {
                if now >= until {
                    h.circuit = Circuit::HalfOpen;
                    Ok(())
                } else {
                    Err(PvfsError::Unavailable {
                        server: server.0,
                        retry_after_ms: ((until - now) / 1_000_000).max(1),
                    })
                }
            }
        }
    }

    /// Feed a successful RPC to `server` that took `latency`: updates
    /// the EWMA, clears the failure streak, and closes the breaker
    /// (a half-open probe succeeding is exactly this path).
    pub fn record_success(&self, server: ServerId, latency: Duration) {
        let Some(lock) = self.servers.get(server.index()) else {
            return;
        };
        let mut h = lock.lock().unwrap();
        let sample = latency.as_nanos() as f64;
        h.ewma_ns = if h.samples == 0 {
            sample
        } else {
            EWMA_ALPHA * sample + (1.0 - EWMA_ALPHA) * h.ewma_ns
        };
        h.samples += 1;
        h.consecutive_failures = 0;
        h.circuit = Circuit::Closed;
        if h.window < WINDOW {
            h.calm += 1;
            if h.calm == REOPEN_AFTER {
                h.window += 1;
                h.calm = 0;
            }
        }
    }

    /// `server` shed a request off its full queue: it is alive — the
    /// failure streak is cleared and the breaker closed, as by any reply,
    /// with no latency sample, for nothing was served — but its queue is
    /// shared, and this endpoint's share was too wide. Halves the window
    /// on it, never below one flight; 64 replies in a row without a shed
    /// reopen it by one.
    pub fn record_shed(&self, server: ServerId) {
        if let Some(lock) = self.servers.get(server.index()) {
            let mut h = lock.lock().unwrap();
            h.consecutive_failures = 0;
            h.circuit = Circuit::Closed;
            h.window = (h.window / 2).max(1);
            h.calm = 0;
        }
    }

    /// How many flights one stream may keep in the air at `server`.
    pub fn window(&self, server: ServerId) -> usize {
        let health = self.servers.get(server.index());
        health.map_or(WINDOW, |lock| lock.lock().unwrap().window)
    }

    /// Feed a transport-class failure (connection loss, timeout) of
    /// `server` at the clock reading `now`. Opens the breaker when the
    /// streak reaches the threshold, and re-opens immediately on a
    /// failed half-open probe. Sheds ([`PvfsError::Overloaded`]) must
    /// **not** be fed here — a shed proves the daemon is alive
    /// ([`record_shed`](HealthTracker::record_shed)).
    pub fn record_failure(&self, server: ServerId, now: u64) {
        let Some(lock) = self.servers.get(server.index()) else {
            return;
        };
        let mut h = lock.lock().unwrap();
        h.consecutive_failures = h.consecutive_failures.saturating_add(1);
        let trip = match h.circuit {
            // A failed probe re-opens without waiting for a new streak.
            Circuit::HalfOpen => true,
            Circuit::Closed => h.consecutive_failures >= self.policy.threshold,
            Circuit::Open { .. } => false,
        };
        if trip {
            h.circuit = Circuit::Open {
                until: now.saturating_add(clock::nanos(self.policy.open_for)),
            };
            h.trips += 1;
        }
    }

    /// The breaker state of `server` at the clock reading `now`: an open
    /// breaker whose window has elapsed reads as [`BreakerState::HalfOpen`]
    /// — what an [`admit`](HealthTracker::admit) at `now` would see.
    pub fn state(&self, server: ServerId, now: u64) -> BreakerState {
        let health = self.servers.get(server.index());
        health.map_or(BreakerState::Closed, |lock| {
            lock.lock().unwrap().circuit.state(now)
        })
    }

    /// Smoothed latency of `server`, `None` before the first success.
    pub fn ewma(&self, server: ServerId) -> Option<Duration> {
        let lock = self.servers.get(server.index())?;
        let h = lock.lock().unwrap();
        (h.samples > 0).then(|| Duration::from_nanos(h.ewma_ns as u64))
    }

    /// Every daemon's health at the clock reading `now` (diagnostics).
    pub fn snapshot(&self, now: u64) -> Vec<ServerHealthSnapshot> {
        self.servers
            .iter()
            .map(|lock| {
                let h = lock.lock().unwrap();
                ServerHealthSnapshot {
                    state: h.circuit.state(now),
                    ewma: (h.samples > 0).then(|| Duration::from_nanos(h.ewma_ns as u64)),
                    consecutive_failures: h.consecutive_failures,
                    trips: h.trips,
                }
            })
            .collect()
    }

    /// Lifetime closed→open transitions summed over all daemons.
    pub fn total_trips(&self) -> u64 {
        self.servers
            .iter()
            .map(|lock| lock.lock().unwrap().trips)
            .sum()
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
        assert_eq!(t.total_trips(), 1);
        assert_eq!(t.state(S0, 32 * MS - 1), BreakerState::Open);

        // After the open window, the next admit is the half-open probe.
        assert_eq!(t.state(S0, 32 * MS), BreakerState::HalfOpen);
        assert!(t.admit(S0, 32 * MS).is_ok());

        // Probe succeeds: closed again, streak cleared.
        t.record_success(S0, Duration::from_micros(100));
        assert_eq!(t.state(S0, 32 * MS), BreakerState::Closed);
        assert_eq!(t.snapshot(32 * MS)[0].consecutive_failures, 0);
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
        assert_eq!(t.total_trips(), 2);
    }

    #[test]
    fn successes_interrupt_the_failure_streak() {
        let t = HealthTracker::new(1, fast_policy());
        t.record_failure(S0, 0);
        t.record_failure(S0, 0);
        t.record_success(S0, Duration::from_micros(50));
        t.record_failure(S0, 0);
        t.record_failure(S0, 0);
        assert_eq!(
            t.state(S0, 0),
            BreakerState::Closed,
            "streak reset by success: 2+2 failures must not trip a threshold of 3"
        );
    }

    #[test]
    fn ewma_tracks_latency_and_smooths() {
        let t = HealthTracker::new(1, BreakerPolicy::default());
        assert_eq!(t.ewma(S0), None, "no samples yet");
        t.record_success(S0, Duration::from_micros(100));
        assert_eq!(t.ewma(S0), Some(Duration::from_micros(100)));
        // One 10x outlier moves the estimate only alpha of the way.
        t.record_success(S0, Duration::from_micros(1000));
        let e = t.ewma(S0).unwrap();
        assert!(e > Duration::from_micros(150) && e < Duration::from_micros(400));
    }

    #[test]
    fn sheds_halve_the_window_and_calm_replies_reopen_it() {
        let t = HealthTracker::new(2, BreakerPolicy::default());
        let reply = || t.record_success(S0, Duration::from_micros(50));
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
        t.record_success(ghost, Duration::from_micros(1));
        assert!(t.admit(ghost, 0).is_ok());
        assert_eq!(t.state(ghost, 0), BreakerState::Closed);
        assert_eq!(t.ewma(ghost), None);
    }

    #[test]
    fn breaker_policy_parses_and_rejects() {
        assert_eq!(BreakerPolicy::parse("off").unwrap(), BreakerPolicy::off());
        assert!(!BreakerPolicy::off().enabled());
        let p = BreakerPolicy::parse("threshold=5,open=500ms").unwrap();
        assert_eq!(p.threshold, 5);
        assert_eq!(p.open_for, Duration::from_millis(500));
        assert!(p.enabled());
        assert!(BreakerPolicy::parse("threshold=0").is_err());
        assert!(BreakerPolicy::parse("threshold=soon").is_err());
        assert!(BreakerPolicy::parse("open=never").is_err());
        assert!(BreakerPolicy::parse("banana=1").is_err());
        assert!(BreakerPolicy::parse("threshold").is_err());
    }
}
