//! The program's one clock.
//!
//! Every time the program takes is a reading of [`now_ns`]: nanoseconds
//! since one process-global monotonic epoch, so a reading taken on a
//! daemon's worker and one taken on a client compare directly (the whole
//! cluster shares the process). A boundary — a frame queued, a worker
//! taking it, a reply landing, an fsync ending — is read once, and that
//! one reading feeds everything that needs it: the histogram sample, the
//! span, the deadline, the breaker. A deadline is a reading too, `d` past
//! the one it was set at; APIs that take a timeout still take a
//! [`Duration`].
//!
//! This module is the only code that reads the machine's clock, and so
//! the one seam a virtual clock would replace.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Nanoseconds since the process-global monotonic epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// `d` in nanoseconds, saturating (at 584 years).
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The reading `d` from now: a deadline.
pub fn deadline(d: Duration) -> u64 {
    now_ns().saturating_add(nanos(d))
}

/// The time since the reading `start`.
pub fn since(start: u64) -> Duration {
    Duration::from_nanos(now_ns().saturating_sub(start))
}

/// The time left until the reading `deadline`; zero once it has passed.
pub fn until(deadline: u64) -> Duration {
    Duration::from_nanos(deadline.saturating_sub(now_ns()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_monotonic_and_deadlines_count_down() {
        let a = now_ns();
        let at = deadline(Duration::from_secs(60));
        assert!(now_ns() >= a);
        assert!(until(at) <= Duration::from_secs(60));
        assert!(until(at) > Duration::from_secs(59));
        assert_eq!(
            until(a),
            Duration::ZERO,
            "a passed deadline has nothing left"
        );
        assert!(since(a) < Duration::from_secs(60));
        assert_eq!(nanos(Duration::MAX), u64::MAX);
        assert_eq!(deadline(Duration::MAX), u64::MAX);
    }
}
