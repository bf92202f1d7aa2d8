//! Cross-client write serialization.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

#[allow(clippy::disallowed_types)] // a holder parks until the gate is released
type Condvar = std::sync::Condvar;

/// A gate that admits one holder at a time, used to serialize data
/// sieving read-modify-write sections across clients (the role the
/// paper's `MPI_Barrier` for-loop plays). Fairness follows wake-up
/// order; the invariant that matters for correctness is mutual
/// exclusion of the RMW windows.
///
/// The gate counts its [`acquisitions`](SerialGate::acquisitions) so
/// tests can pin down *absence* of serialization: collective two-phase
/// writes promise disjoint file domains, and the equivalence suite
/// asserts the gate was never taken while they ran.
#[derive(Debug, Default)]
pub struct SerialGate {
    locked: Mutex<bool>,
    cv: Condvar,
    acquisitions: AtomicU64,
}

impl SerialGate {
    /// A new, open gate.
    pub fn new() -> SerialGate {
        SerialGate::default()
    }

    /// Block until the gate is free, then hold it.
    pub fn acquire(&self) {
        let mut locked = self.locked.lock().unwrap();
        while *locked {
            locked = self.cv.wait(locked).unwrap();
        }
        *locked = true;
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
    }

    /// How many times the gate has been taken since creation.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions.load(Ordering::Relaxed)
    }

    /// Release the gate, waking one waiter.
    pub fn release(&self) {
        let mut locked = self.locked.lock().unwrap();
        debug_assert!(*locked, "release without acquire");
        *locked = false;
        drop(locked);
        self.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn acquire_release_single_thread() {
        let g = SerialGate::new();
        assert_eq!(g.acquisitions(), 0);
        g.acquire();
        g.release();
        g.acquire();
        g.release();
        assert_eq!(g.acquisitions(), 2);
    }

    #[test]
    fn contended_acquisitions_are_all_counted() {
        let gate = Arc::new(SerialGate::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let gate = gate.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    gate.acquire();
                    std::thread::yield_now();
                    gate.release();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every successful acquire is counted exactly once, even under
        // heavy contention — the counter is what lets tests assert a
        // gate was (or was never) taken.
        assert_eq!(gate.acquisitions(), 8 * 50);
    }

    #[test]
    fn gate_provides_mutual_exclusion() {
        let gate = Arc::new(SerialGate::new());
        let inside = Arc::new(AtomicU32::new(0));
        let max_seen = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let gate = gate.clone();
            let inside = inside.clone();
            let max_seen = max_seen.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    gate.acquire();
                    let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                    max_seen.fetch_max(now, Ordering::SeqCst);
                    std::thread::yield_now();
                    inside.fetch_sub(1, Ordering::SeqCst);
                    gate.release();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(max_seen.load(Ordering::SeqCst), 1);
    }
}
