//! Client-side retry policy: bounded attempts, exponential backoff with
//! decorrelated jitter, and a per-operation deadline budget.
//!
//! The policy only ever replays RPCs that are safe to replay: the error must be
//! transient ([`pvfs_types::PvfsError::is_retryable`]) *and* the request idempotent
//! ([`pvfs_proto::Request::is_idempotent`]) — reads have no side effects and writes
//! are idempotent per region, so a request that "may have executed"
//! ([`pvfs_types::PvfsError::is_definitely_not_executed`] = `false`) is still
//! safe to send again. Metadata mutations (`Create`, `Remove`, `Close`) are
//! never replayed.
//!
//! Backoff follows the decorrelated-jitter scheme: each sleep is a
//! uniform draw from `[base, 3 * previous]`, clamped to
//! [`RetryPolicy::max_backoff`]. Compared with plain exponential
//! doubling this spreads concurrent clients' retries apart instead of
//! letting them re-collide in synchronized waves.

use pvfs_types::env::{self, parse_duration};
use pvfs_types::RequestId;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::time::Duration;

/// When and how a client endpoint retries failed RPCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation, the first one included. `1`
    /// disables retries.
    pub max_attempts: u32,
    /// Lower bound (and first-retry scale) of the backoff sleep.
    pub base_backoff: Duration,
    /// Upper clamp of any single backoff sleep.
    pub max_backoff: Duration,
    /// Wall-clock budget per operation across all attempts and sleeps;
    /// once exceeded, the last error surfaces instead of a new attempt.
    pub budget: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
            budget: Duration::from_secs(30),
        }
    }
}

impl RetryPolicy {
    /// No retries: every error surfaces on the first attempt.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The policy selected by the `PVFS_RETRY` environment variable.
    ///
    /// * unset — [`RetryPolicy::default`] (retries on);
    /// * `off` / `0` — [`RetryPolicy::none`];
    /// * `attempts=6,base=2ms,cap=200ms,budget=60s` — explicit knobs,
    ///   each optional, over the defaults.
    ///
    /// Panics on a malformed spec, like the other `PVFS_*` variables: a
    /// typo'd chaos run must not silently change the policy under test.
    pub fn from_env() -> RetryPolicy {
        pvfs_types::env::parsed("PVFS_RETRY", RetryPolicy::parse, RetryPolicy::default())
    }

    /// Parse a `PVFS_RETRY` spec (see [`RetryPolicy::from_env`]).
    pub fn parse(spec: &str) -> Result<RetryPolicy, String> {
        let spec = spec.trim();
        if spec == "off" || spec == "0" {
            return Ok(RetryPolicy::none());
        }
        let mut policy = RetryPolicy::default();
        for option in env::options(spec) {
            let (key, value) = option?;
            match key {
                "attempts" => {
                    policy.max_attempts = value
                        .parse()
                        .map_err(|_| format!("attempts {value:?} is not a count"))?;
                    if policy.max_attempts == 0 {
                        return Err("attempts must be at least 1".into());
                    }
                }
                "base" => policy.base_backoff = parse_duration(value)?,
                "cap" => policy.max_backoff = parse_duration(value)?,
                "budget" => policy.budget = parse_duration(value)?,
                other => return Err(format!("unknown retry option {other:?}")),
            }
        }
        Ok(policy)
    }

    /// Whether this policy ever retries.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 1
    }
}

/// The decorrelated-jitter backoff draws for one operation's
/// retries. Seeded per operation so a serial test run is reproducible.
pub(crate) struct Backoff {
    policy: RetryPolicy,
    rng: StdRng,
}

impl Backoff {
    pub(crate) fn new(policy: RetryPolicy, seed: RequestId) -> Backoff {
        Backoff {
            policy,
            rng: StdRng::seed_from_u64(seed.0 ^ 0xb0ff_0ff5),
        }
    }

    /// The sleep after `prev` (an RPC's previous sleep;
    /// [`RetryPolicy::base_backoff`] before its first): uniform in
    /// `[base, 3 * prev]`, clamped to the cap. One operation's RPCs
    /// share the jitter stream, but each escalates on its own failures
    /// only.
    pub(crate) fn next_delay(&mut self, prev: Duration) -> Duration {
        let base = self.policy.base_backoff.as_micros() as u64;
        let hi = (prev.as_micros() as u64).saturating_mul(3).max(base + 1);
        let cap = self.policy.max_backoff.as_micros() as u64;
        let drawn = base + self.rng.next_u64() % (hi - base);
        Duration::from_micros(drawn.min(cap.max(base)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvfs_types::{ClientLedger, ClientStats};

    #[test]
    fn default_retries_are_on_and_bounded() {
        let p = RetryPolicy::default();
        assert!(p.enabled());
        assert!(p.max_attempts >= 2);
        assert!(p.base_backoff <= p.max_backoff);
    }

    #[test]
    fn parse_off_and_knobs() {
        assert_eq!(RetryPolicy::parse("off").unwrap(), RetryPolicy::none());
        assert_eq!(RetryPolicy::parse("0").unwrap(), RetryPolicy::none());
        let p = RetryPolicy::parse("attempts=6,base=2ms,cap=200ms,budget=60s").unwrap();
        assert_eq!(p.max_attempts, 6);
        assert_eq!(p.base_backoff, Duration::from_millis(2));
        assert_eq!(p.max_backoff, Duration::from_millis(200));
        assert_eq!(p.budget, Duration::from_secs(60));
        assert!(RetryPolicy::parse("attempts=0").is_err());
        assert!(RetryPolicy::parse("banana=1").is_err());
        assert!(RetryPolicy::parse("base=soon").is_err());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        // Zero attempts would mean "never even try".
        assert!(RetryPolicy::parse("attempts=0").is_err());
        assert!(RetryPolicy::parse("attempts=-1").is_err());
        assert!(RetryPolicy::parse("attempts=four").is_err());
        // Junk durations in every duration knob.
        assert!(RetryPolicy::parse("base=soon").is_err());
        assert!(RetryPolicy::parse("cap=1h").is_err());
        assert!(RetryPolicy::parse("budget=").is_err());
        assert!(RetryPolicy::parse("base=2ms2ms").is_err());
        // Unknown keys and shapeless tokens must not be skipped: a
        // typo'd chaos run must fail loudly, not silently use defaults.
        assert!(RetryPolicy::parse("atempts=3").is_err());
        assert!(RetryPolicy::parse("attempts").is_err());
        assert!(RetryPolicy::parse("=3").is_err());
        assert!(RetryPolicy::parse("attempts=3,junk=1").is_err());
        // And the valid spellings nearby still parse.
        assert_eq!(
            RetryPolicy::parse("attempts=1").unwrap().max_attempts,
            1,
            "attempts=1 is retries-off, not an error"
        );
        assert_eq!(
            RetryPolicy::parse(" attempts = 3 , base = 5ms ")
                .unwrap()
                .base_backoff,
            Duration::from_millis(5),
            "whitespace around keys and values is tolerated"
        );
    }

    #[test]
    fn backoff_is_jittered_bounded_and_reproducible() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            ..RetryPolicy::default()
        };
        let draws = |seed: u64| -> Vec<Duration> {
            let mut b = Backoff::new(policy, RequestId(seed));
            let mut prev = policy.base_backoff;
            (0..32)
                .map(|_| {
                    prev = b.next_delay(prev);
                    prev
                })
                .collect()
        };
        let a = draws(7);
        assert_eq!(a, draws(7), "same seed, same sequence");
        assert_ne!(a, draws(8), "different seeds diverge");
        for d in &a {
            assert!(*d >= policy.base_backoff, "below base: {d:?}");
            assert!(*d <= policy.max_backoff, "above cap: {d:?}");
        }
        assert!(
            a.iter().collect::<std::collections::HashSet<_>>().len() > 8,
            "jitter must actually vary the draws"
        );
    }

    #[test]
    fn stats_since_subtracts_counterwise() {
        let early = ClientStats {
            attempts: 10,
            retries: 2,
            backoff_ms: 5,
            faults_injected: 1,
            breaker_rejections: 2,
            sheds_seen: 1,
            replica_failovers: 1,
            quorum_shortfalls: 0,
            ..ClientStats::default()
        };
        let late = ClientStats {
            attempts: 25,
            retries: 6,
            backoff_ms: 30,
            faults_injected: 4,
            breaker_rejections: 7,
            sheds_seen: 5,
            replica_failovers: 4,
            quorum_shortfalls: 2,
            ..ClientStats::default()
        };
        assert_eq!(
            late.since(&early),
            ClientStats {
                attempts: 15,
                retries: 4,
                backoff_ms: 25,
                faults_injected: 3,
                breaker_rejections: 5,
                sheds_seen: 4,
                replica_failovers: 3,
                quorum_shortfalls: 2,
                ..ClientStats::default()
            }
        );
    }

    #[test]
    fn resilience_counters_accumulate_atomically() {
        use std::sync::atomic::Ordering::Relaxed;
        let stats = ClientLedger::default();
        stats.breaker_rejections.fetch_add(1, Relaxed);
        stats.sheds_seen.fetch_add(2, Relaxed);
        let snap = stats.snapshot();
        assert_eq!(snap.breaker_rejections, 1);
        assert_eq!(snap.sheds_seen, 2);
    }
}
