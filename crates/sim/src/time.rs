//! Virtual time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in nanoseconds since simulation start.
///
/// `SimTime` is ordered and supports adding nanosecond durations (plain
/// `u64`s); subtraction of two times yields a duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Seconds since start as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, ns: u64) -> SimTime {
        SimTime(self.0 + ns)
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, ns: u64) {
        self.0 += ns;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;
    fn sub(self, earlier: SimTime) -> u64 {
        self.0 - earlier.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime(1_000_000_000) + 500;
        assert_eq!(t, SimTime(1_000_000_500));
        assert_eq!(t - SimTime(1_000_000_000), 500);
        let mut u = SimTime::ZERO;
        u += 42;
        assert_eq!(u, SimTime(42));
    }

    #[test]
    fn ordering_and_max() {
        assert!(SimTime(1) < SimTime(2));
        assert_eq!(SimTime(1).max(SimTime(2)), SimTime(2));
        assert_eq!(SimTime(5).max(SimTime(2)), SimTime(5));
    }

    #[test]
    fn display_in_seconds() {
        assert_eq!(SimTime(1_500_000_000).to_string(), "1.500000s");
    }

    #[test]
    fn as_secs_f64_precision() {
        assert!((SimTime(1_234_567_890).as_secs_f64() - 1.23456789).abs() < 1e-12);
    }
}
