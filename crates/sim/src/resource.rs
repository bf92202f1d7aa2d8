//! Contended-resource serialization.

use crate::time::SimTime;

/// A resource that serves one user at a time, in arrival order: a
/// server's request-processing CPU, one direction of a NIC, a disk.
///
/// `acquire(now, duration)` answers "if I show up at `now` needing the
/// resource for `duration`, when do I start and finish?" and commits the
/// reservation. Busy time accumulates for reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoResource {
    free_at: SimTime,
    busy_ns: u64,
}

impl FifoResource {
    /// A resource that is free immediately.
    pub fn new() -> FifoResource {
        FifoResource::default()
    }

    /// Reserve the resource for `duration` ns starting no earlier than
    /// `now`; returns `(start, end)`.
    pub fn acquire(&mut self, now: SimTime, duration: u64) -> (SimTime, SimTime) {
        let start = now.max(self.free_at);
        let end = start + duration;
        self.free_at = end;
        self.busy_ns += duration;
        (start, end)
    }

    /// Total busy time committed so far.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = FifoResource::new();
        let (s, e) = r.acquire(SimTime(100), 50);
        assert_eq!(s, SimTime(100));
        assert_eq!(e, SimTime(150));
    }

    #[test]
    fn busy_resource_queues() {
        let mut r = FifoResource::new();
        r.acquire(SimTime(0), 100);
        let (s, e) = r.acquire(SimTime(10), 20);
        assert_eq!(s, SimTime(100));
        assert_eq!(e, SimTime(120));
        // Arriving after it frees starts immediately.
        let (s, _) = r.acquire(SimTime(500), 5);
        assert_eq!(s, SimTime(500));
    }

    #[test]
    fn fifo_order_of_arrivals() {
        let mut r = FifoResource::new();
        let (_, e1) = r.acquire(SimTime(0), 10);
        let (s2, e2) = r.acquire(SimTime(0), 10);
        let (s3, _) = r.acquire(SimTime(0), 10);
        assert_eq!(s2, e1);
        assert_eq!(s3, e2);
    }

    #[test]
    fn stats_accumulate() {
        let mut r = FifoResource::new();
        r.acquire(SimTime(0), 30);
        r.acquire(SimTime(500), 70);
        assert_eq!(r.busy_ns(), 100);
    }

    #[test]
    fn zero_duration_acquire() {
        let mut r = FifoResource::new();
        let (s, e) = r.acquire(SimTime(42), 0);
        assert_eq!((s, e), (SimTime(42), SimTime(42)));
        // Holding it for no time leaves it free at once.
        assert_eq!(r.acquire(SimTime(42), 5), (SimTime(42), SimTime(47)));
    }
}
