//! Deterministic fault injection at the transport seam.
//!
//! [`FaultyTransport`] wraps any [`Transport`] and injects seeded,
//! reproducible faults according to a [`FaultPlan`] — which is how the
//! whole tree becomes a chaos suite without forking a single test:
//! `PVFS_FAULTS="drop:0.02,disconnect:0.02,corrupt:0.01" cargo test`
//! wraps every [`LiveCluster`](crate::LiveCluster) transport, channel
//! or TCP alike, and the retry machinery in
//! [`ClusterClient`](crate::ClusterClient) has to absorb the abuse with
//! byte-exact data intact.
//!
//! # Fault taxonomy
//!
//! | fault        | where it bites                 | client-visible error      |
//! |--------------|--------------------------------|---------------------------|
//! | `drop`       | request frame lost on send     | `Transport` at `send`     |
//! | `delay`      | request stalled in flight      | none (latency only)       |
//! | `disconnect` | connection cut before response | `Transport` at `recv`     |
//! | `corrupt`    | response frame mangled in flight | `Protocol` at decode    |
//! | `wedge`      | response never arrives         | `Timeout` after deadline  |
//!
//! `disconnect`, `corrupt` and `wedge` all forward the request to the
//! real transport first, so the server *does* execute it — exactly the
//! ambiguous may-have-executed case
//! ([`PvfsError::is_definitely_not_executed`]) that makes per-region
//! write idempotency load-bearing for retries. `drop` never forwards:
//! the server provably saw nothing.
//!
//! Injection is per frame, at the [`Lane`] seam: one draw as each frame
//! is sent, and a fault that bites the response is remembered against
//! that frame's request id and bites when *its* reply comes back — the
//! other frames sharing the lane (the connection) never notice.
//!
//! # Scope and determinism
//!
//! Faults hit only the data path ([`RpcTarget::Server`]); manager RPCs
//! pass through untouched, because metadata mutations (`Create`,
//! `Remove`, `Close`) are not idempotent and are therefore never
//! retried (see [`pvfs_proto::Request::is_idempotent`]).
//!
//! Sampling uses one seeded [`StdRng`] stream, so a serial caller — a
//! single client issuing rounds — sees an identical fault sequence on
//! every run with the same plan. Concurrent clients interleave their
//! draws nondeterministically, but the *number* of injected faults per
//! rate stays statistically pinned and [`FaultPlan::limit`] can bound
//! it exactly.

use pvfs_proto::{decode_frame_id, decode_response_id, Frame, RESPONSE_ENVELOPE_LEN};
use pvfs_types::clock;
use pvfs_types::{PvfsError, PvfsResult, RequestId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::envspec;
use crate::transport::{Lane, RpcTarget, Transport, TransportKind, WaitError};

/// Which fault an injection point chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The request frame is lost before reaching the server.
    Drop,
    /// The request is stalled for [`FaultPlan::delay_for`], then sent.
    Delay,
    /// The request is delivered, the connection dies before the
    /// response comes back.
    Disconnect,
    /// The response frame is truncated mid-body in flight.
    Corrupt,
    /// The response never arrives; the client's deadline fires.
    Wedge,
}

/// A seeded, rate-based plan of transport faults.
///
/// Parsed from the `PVFS_FAULTS` environment variable (or built
/// directly by tests/benches). The spec is a comma-separated list of
/// `kind:rate` entries plus optional `key=value` knobs:
///
/// ```text
/// PVFS_FAULTS="drop:0.02,disconnect:0.02,corrupt:0.01,seed=7"
/// PVFS_FAULTS="wedge:1.0,target=2,limit=1"       # exactly one wedge, server 2 only
/// PVFS_FAULTS="delay:0.1:5ms"                    # 10% of requests stalled 5 ms
/// ```
///
/// Rates are probabilities in `[0, 1]` per request; their sum must not
/// exceed 1.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Probability a request frame is dropped.
    pub drop: f64,
    /// Probability a request is delayed by [`FaultPlan::delay_for`].
    pub delay: f64,
    /// How long a `delay` fault stalls the request.
    pub delay_for: Duration,
    /// Probability the connection dies after delivery, before the
    /// response.
    pub disconnect: f64,
    /// Probability the response frame is corrupted in flight.
    pub corrupt: f64,
    /// Probability the response never arrives (deadline path).
    pub wedge: f64,
    /// RNG seed: same plan + same seed + serial caller = same faults.
    pub seed: u64,
    /// Restrict injection to this server id (`target=N`). `None` hits
    /// every I/O server. The manager is never hit either way.
    pub target: Option<u32>,
    /// Inject at most this many faults in total (`limit=N`), then pass
    /// everything through clean. `delay` counts against the limit too.
    pub limit: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            drop: 0.0,
            delay: 0.0,
            delay_for: Duration::from_millis(2),
            disconnect: 0.0,
            corrupt: 0.0,
            wedge: 0.0,
            seed: 0x9c_0ffee,
            target: None,
            limit: None,
        }
    }
}

impl FaultPlan {
    /// Parse a `PVFS_FAULTS` spec. `Err` carries a human-readable
    /// reason naming the offending token.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for (token, option) in envspec::tokens(spec) {
            if let Some((key, value)) = option {
                match key {
                    "seed" => {
                        plan.seed = value
                            .parse()
                            .map_err(|_| format!("seed {value:?} is not a u64"))?;
                    }
                    "target" => {
                        plan.target = Some(
                            value
                                .parse()
                                .map_err(|_| format!("target {value:?} is not a server id"))?,
                        );
                    }
                    "limit" => {
                        plan.limit = Some(
                            value
                                .parse()
                                .map_err(|_| format!("limit {value:?} is not a count"))?,
                        );
                    }
                    other => return Err(format!("unknown fault option {other:?}")),
                }
                continue;
            }
            let mut parts = token.split(':');
            let kind = parts.next().unwrap_or_default();
            let rate: f64 = parts
                .next()
                .ok_or_else(|| format!("fault {token:?} is missing its rate"))?
                .parse()
                .map_err(|_| format!("fault {token:?} has a malformed rate"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault {token:?} rate must be within [0, 1]"));
            }
            match kind {
                "drop" => plan.drop = rate,
                "delay" => {
                    plan.delay = rate;
                    if let Some(ms) = parts.next() {
                        let ms = ms.trim_end_matches("ms");
                        plan.delay_for = Duration::from_millis(
                            ms.parse()
                                .map_err(|_| format!("delay duration {token:?} is malformed"))?,
                        );
                    }
                }
                "disconnect" => plan.disconnect = rate,
                "corrupt" => plan.corrupt = rate,
                "wedge" => plan.wedge = rate,
                other => {
                    return Err(format!(
                        "unknown fault kind {other:?} (drop|delay|disconnect|corrupt|wedge)"
                    ))
                }
            }
            if parts.next().is_some() && kind != "delay" {
                return Err(format!("fault {token:?} has trailing fields"));
            }
        }
        if plan.total_rate() > 1.0 {
            return Err(format!("fault rates sum to {} (> 1.0)", plan.total_rate()));
        }
        Ok(plan)
    }

    /// The plan selected by the `PVFS_FAULTS` environment variable, or
    /// `None` when unset/empty. Panics on a malformed spec — a typo'd
    /// chaos run must not silently test nothing.
    pub fn from_env() -> Option<FaultPlan> {
        let parse = |v: &str| match v.trim() {
            "" => Ok(None),
            v => FaultPlan::parse(v).map(Some),
        };
        pvfs_types::env::parsed("PVFS_FAULTS", parse, None)
    }

    /// Sum of all fault probabilities.
    pub fn total_rate(&self) -> f64 {
        self.drop + self.delay + self.disconnect + self.corrupt + self.wedge
    }

    /// Whether this plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.total_rate() > 0.0 && self.limit != Some(0)
    }

    /// Map one uniform draw in `[0, 1)` to a fault (or none): the
    /// rates partition the unit interval.
    fn pick(&self, u: f64) -> Option<FaultKind> {
        let mut edge = self.drop;
        if u < edge {
            return Some(FaultKind::Drop);
        }
        edge += self.delay;
        if u < edge {
            return Some(FaultKind::Delay);
        }
        edge += self.disconnect;
        if u < edge {
            return Some(FaultKind::Disconnect);
        }
        edge += self.corrupt;
        if u < edge {
            return Some(FaultKind::Corrupt);
        }
        edge += self.wedge;
        if u < edge {
            return Some(FaultKind::Wedge);
        }
        None
    }
}

pvfs_types::ledger! {
    /// Lifetime injection counters of one [`FaultyTransport`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    snapshot FaultCounts;
    /// The books of one [`FaultyTransport`], shared with its lanes.
    ledger FaultLedger;
    counters {
        /// Faults injected, total.
        injected,
        /// Request frames dropped.
        drops,
        /// Requests delayed.
        delays,
        /// Connections cut before the response.
        disconnects,
        /// Response frames corrupted.
        corrupts,
        /// Responses wedged into the timeout path.
        wedges,
    }
    gauges {}
    histograms {}
}

/// A [`Transport`] wrapper injecting [`FaultPlan`] faults into the data
/// path. See the module docs for the taxonomy.
pub struct FaultyTransport {
    inner: Arc<dyn Transport>,
    dice: Arc<Dice>,
}

/// What the transport and the lanes it hands out share: the plan, its
/// one RNG stream, the counters.
struct Dice {
    plan: FaultPlan,
    rng: Mutex<StdRng>,
    counts: FaultLedger,
}

impl FaultyTransport {
    /// Wrap `inner`, injecting faults per `plan`.
    pub fn new(inner: Arc<dyn Transport>, plan: FaultPlan) -> FaultyTransport {
        let rng = Mutex::new(StdRng::seed_from_u64(plan.seed));
        let counts = FaultLedger::default();
        let dice = Arc::new(Dice { plan, rng, counts });
        FaultyTransport { inner, dice }
    }

    /// Injection counters so far.
    pub fn counts(&self) -> FaultCounts {
        self.dice.counts.snapshot()
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.dice.plan
    }

    #[cfg(test)]
    fn roll(&self, target: RpcTarget) -> Option<FaultKind> {
        self.dice.roll(target)
    }
}

impl Dice {
    /// Decide whether this RPC gets a fault, honoring target filtering
    /// and the global limit. Claiming against the limit is atomic, so
    /// `limit=1` injects exactly one fault even under concurrency.
    fn roll(&self, target: RpcTarget) -> Option<FaultKind> {
        let server = match target {
            RpcTarget::Manager => return None,
            RpcTarget::Server(s) => s,
        };
        if self.plan.target.is_some_and(|t| t != server.0) {
            return None;
        }
        let u = {
            let mut rng = self.rng.lock().unwrap();
            rng.gen::<f64>()
        };
        let kind = self.plan.pick(u)?;
        if let Some(limit) = self.plan.limit {
            let mut cur = self.counts.injected.load(Ordering::Relaxed);
            loop {
                if cur >= limit {
                    return None;
                }
                match self.counts.injected.compare_exchange(
                    cur,
                    cur + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
        } else {
            self.counts.injected.fetch_add(1, Ordering::Relaxed);
        }
        let counter = match kind {
            FaultKind::Drop => &self.counts.drops,
            FaultKind::Delay => &self.counts.delays,
            FaultKind::Disconnect => &self.counts.disconnects,
            FaultKind::Corrupt => &self.counts.corrupts,
            FaultKind::Wedge => &self.counts.wedges,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Some(kind)
    }
}

impl Transport for FaultyTransport {
    fn n_servers(&self) -> u32 {
        self.inner.n_servers()
    }

    fn lane(&self, target: RpcTarget) -> PvfsResult<Box<dyn Lane>> {
        Ok(Box::new(FaultyLane {
            inner: self.inner.lane(target)?,
            dice: self.dice.clone(),
            target,
            doomed: Vec::new(),
        }))
    }

    fn kind(&self) -> TransportKind {
        self.inner.kind()
    }

    fn faults_injected(&self) -> u64 {
        self.dice.counts.injected.load(Ordering::Relaxed)
    }
}

/// A lane whose frames draw faults, one draw each.
struct FaultyLane {
    inner: Box<dyn Lane>,
    dice: Arc<Dice>,
    target: RpcTarget,
    /// The requests delivered with a fault waiting for their reply.
    doomed: Vec<(RequestId, FaultKind)>,
}

impl Lane for FaultyLane {
    fn send(&mut self, frame: Frame) -> PvfsResult<()> {
        let target = self.target;
        match self.dice.roll(target) {
            None => self.inner.send(frame),
            Some(FaultKind::Drop) => Err(PvfsError::Transport(format!(
                "injected fault: request frame to {target:?} dropped"
            ))),
            Some(FaultKind::Delay) => {
                std::thread::sleep(self.dice.plan.delay_for);
                self.inner.send(frame)
            }
            // The remaining faults deliver the request — the server
            // executes it — and sabotage only the response path.
            Some(kind) => {
                let id = decode_frame_id(&frame.head);
                self.inner.send(frame)?;
                self.doomed.extend(id.map(|id| (id, kind)));
                Ok(())
            }
        }
    }

    fn flush(&mut self) -> PvfsResult<()> {
        self.inner.flush()
    }

    fn recv(&mut self, timeout: Duration) -> Result<Frame, WaitError> {
        let deadline = clock::deadline(timeout);
        loop {
            let left = clock::until(deadline);
            let reply = self.inner.recv(left)?;
            let fault = decode_response_id(&reply.head).and_then(|id| {
                let at = self.doomed.iter().position(|(doomed, _)| *doomed == id)?;
                Some(self.doomed.swap_remove(at))
            });
            match fault {
                None => return Ok(reply),
                // The connection "dies" before the response: the real
                // reply was awaited (so server-side effects and
                // accounting happened) and is discarded.
                Some((id, FaultKind::Disconnect)) => {
                    let lost = format!(
                        "injected fault: connection to {:?} lost before the response",
                        self.target
                    );
                    return Err(WaitError::Lost(id, PvfsError::Transport(lost)));
                }
                // The response never arrives: the request was delivered
                // (and executed), its reply is swallowed, and the
                // client's deadline for it fires as for a wedged server.
                Some((_, FaultKind::Wedge)) => {}
                Some(_) => return Ok(truncated(reply)),
            }
        }
    }

    /// The lane underneath goes back by its transport's rule.
    fn park(self: Box<Self>) {
        self.inner.park()
    }
}

/// The response frame truncated mid-body, the way a flaky link or a
/// buggy NIC would mangle it — behind its envelope, so that the reply
/// still says whose it is. Truncation (rather than a random bit flip)
/// guarantees the codec *detects* the damage — a flip in bulk data would
/// decode cleanly and silently corrupt user bytes, which no transport
/// can catch without checksums.
fn truncated(reply: Frame) -> Frame {
    let Frame { head, payload } = reply;
    Frame {
        head: head.slice(0..(head.len() / 2).max(RESPONSE_ENVELOPE_LEN)),
        payload: payload.slice(0..payload.len() / 2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rates_and_options() {
        let p = FaultPlan::parse("drop:0.02,disconnect:0.02,corrupt:0.01,seed=7").unwrap();
        assert_eq!(p.drop, 0.02);
        assert_eq!(p.disconnect, 0.02);
        assert_eq!(p.corrupt, 0.01);
        assert_eq!(p.seed, 7);
        assert_eq!(p.target, None);
        assert_eq!(p.limit, None);
        assert!(p.is_active());

        let p = FaultPlan::parse("wedge:1.0,target=2,limit=1").unwrap();
        assert_eq!(p.wedge, 1.0);
        assert_eq!(p.target, Some(2));
        assert_eq!(p.limit, Some(1));

        let p = FaultPlan::parse("delay:0.5:25ms").unwrap();
        assert_eq!(p.delay, 0.5);
        assert_eq!(p.delay_for, Duration::from_millis(25));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("drop").is_err());
        assert!(FaultPlan::parse("drop:1.5").is_err());
        assert!(FaultPlan::parse("explode:0.1").is_err());
        assert!(FaultPlan::parse("seed=banana").is_err());
        assert!(
            FaultPlan::parse("drop:0.9,corrupt:0.9").is_err(),
            "rates over 1.0"
        );
        assert!(FaultPlan::parse("drop:0.1:5ms").is_err(), "trailing field");
    }

    #[test]
    fn empty_spec_is_inert() {
        let p = FaultPlan::parse("").unwrap();
        assert!(!p.is_active());
        assert_eq!(p.total_rate(), 0.0);
    }

    #[test]
    fn pick_partitions_the_unit_interval() {
        let p = FaultPlan {
            drop: 0.1,
            delay: 0.1,
            disconnect: 0.1,
            corrupt: 0.1,
            wedge: 0.1,
            ..FaultPlan::default()
        };
        assert_eq!(p.pick(0.05), Some(FaultKind::Drop));
        assert_eq!(p.pick(0.15), Some(FaultKind::Delay));
        assert_eq!(p.pick(0.25), Some(FaultKind::Disconnect));
        assert_eq!(p.pick(0.35), Some(FaultKind::Corrupt));
        assert_eq!(p.pick(0.45), Some(FaultKind::Wedge));
        assert_eq!(p.pick(0.55), None);
        assert_eq!(p.pick(0.999), None);
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        // Two transports with identical plans must make identical
        // decisions for an identical serial call sequence.
        let plan = FaultPlan {
            drop: 0.5,
            seed: 42,
            ..FaultPlan::default()
        };
        let a = FaultyTransport::new(Arc::new(NullTransport), plan.clone());
        let b = FaultyTransport::new(Arc::new(NullTransport), plan);
        let decisions = |t: &FaultyTransport| -> Vec<bool> {
            (0..64)
                .map(|_| t.roll(RpcTarget::Server(pvfs_types::ServerId(0))).is_some())
                .collect()
        };
        let da = decisions(&a);
        assert_eq!(da, decisions(&b));
        assert!(da.iter().any(|&f| f), "50% over 64 draws must fire");
        assert!(!da.iter().all(|&f| f), "...but not every time");
    }

    #[test]
    fn manager_and_foreign_targets_are_spared() {
        let plan = FaultPlan {
            drop: 1.0,
            target: Some(3),
            ..FaultPlan::default()
        };
        let t = FaultyTransport::new(Arc::new(NullTransport), plan);
        assert_eq!(t.roll(RpcTarget::Manager), None);
        assert_eq!(t.roll(RpcTarget::Server(pvfs_types::ServerId(1))), None);
        assert_eq!(
            t.roll(RpcTarget::Server(pvfs_types::ServerId(3))),
            Some(FaultKind::Drop)
        );
    }

    #[test]
    fn limit_caps_total_injections() {
        let plan = FaultPlan {
            drop: 1.0,
            limit: Some(2),
            ..FaultPlan::default()
        };
        let t = FaultyTransport::new(Arc::new(NullTransport), plan);
        let fired: usize = (0..10)
            .filter(|_| t.roll(RpcTarget::Server(pvfs_types::ServerId(0))).is_some())
            .count();
        assert_eq!(fired, 2);
        assert_eq!(t.counts().injected, 2);
        assert_eq!(t.faults_injected(), 2);
    }

    /// A transport that must never be reached by these unit tests.
    struct NullTransport;

    impl Transport for NullTransport {
        fn n_servers(&self) -> u32 {
            4
        }
        fn lane(&self, _: RpcTarget) -> PvfsResult<Box<dyn Lane>> {
            panic!("NullTransport::lane must not be called")
        }
        fn kind(&self) -> TransportKind {
            TransportKind::Chan
        }
    }
}
