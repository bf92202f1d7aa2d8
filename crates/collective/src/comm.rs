//! The in-process communicator: `allgather` and point-to-point
//! `exchange` across the client threads of one collective job.
//!
//! The benches and tests in this workspace drive "N clients" as N
//! threads over `ClusterClient` clones; a [`Communicator`] gives those
//! threads the MPI-shaped collective primitives two-phase I/O needs.
//! [`Communicator::group`] returns one handle per rank; the handles
//! share state through an `Arc`'d core, and every collective call must
//! be made by **all** ranks in the same order (the usual MPI contract —
//! a rank that skips a collective hangs the group).
//!
//! Like `pvfs_net::ClientStats` for RPCs, every handle counts what it
//! does ([`CommStats`]): allgathers, exchanges, and exchange
//! message/byte volume — the memory-to-memory traffic that replaced
//! wire traffic.

use std::any::Any;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier, Mutex};

type BoxedMsg = Box<dyn Any + Send>;

pvfs_types::ledger! {
    /// What one rank's communicator handle has done — the measured side
    /// of the exchange fabric.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    snapshot CommStats;
    /// One rank's [`CommStats`] as they are kept.
    ledger CommLedger;
    counters {
        /// `allgather` calls.
        allgathers,
        /// `exchange` calls.
        exchanges,
        /// Messages this rank sent through `exchange`.
        msgs_sent,
        /// Payload bytes this rank sent through `exchange` (as declared by
        /// each [`Envelope::bytes`]).
        bytes_sent,
    }
    gauges {}
    histograms {}
}

/// One point-to-point message: who it goes to (or, on receive, who it
/// came from), its accounted payload size, and the message itself.
#[derive(Debug)]
pub struct Envelope<T> {
    /// Destination rank on send; source rank on receive.
    pub peer: usize,
    /// Accounted payload bytes (the sender declares them; [`CommStats`]
    /// and `ExecReport::exchange_bytes` sum this field).
    pub bytes: u64,
    /// The payload.
    pub msg: T,
}

struct MailState {
    // One inbox per rank: (source rank, bytes, message), in deposit
    // order.
    boxes: Vec<Vec<(usize, u64, BoxedMsg)>>,
}

struct Core {
    size: usize,
    barrier: Barrier,
    /// One `allgather` slot per rank.
    gather: Mutex<Vec<Option<BoxedMsg>>>,
    mail: Mutex<MailState>,
}

/// One rank's endpoint of the collective fabric. Obtained from
/// [`Communicator::group`]; not cloneable — each rank (thread) owns
/// exactly one handle.
pub struct Communicator {
    core: Arc<Core>,
    rank: usize,
    counters: CommLedger,
}

impl std::fmt::Debug for Communicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Communicator")
            .field("rank", &self.rank)
            .field("size", &self.core.size)
            .finish()
    }
}

impl Communicator {
    /// A fresh group of `size` ranks: one handle per rank, in rank
    /// order. `size` must be at least 1; a single-rank group is valid
    /// and every collective degenerates to a no-op on it.
    pub fn group(size: usize) -> Vec<Communicator> {
        assert!(size >= 1, "a communicator needs at least one rank");
        let core = Arc::new(Core {
            size,
            barrier: Barrier::new(size),
            gather: Mutex::new((0..size).map(|_| None).collect()),
            mail: Mutex::new(MailState {
                boxes: (0..size).map(|_| Vec::new()).collect(),
            }),
        });
        (0..size)
            .map(|rank| Communicator {
                core: core.clone(),
                rank,
                counters: CommLedger::default(),
            })
            .collect()
    }

    /// This handle's rank (0-based, stable).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the group.
    pub fn size(&self) -> usize {
        self.core.size
    }

    /// The barrier `exchange` and `allgather` use internally: every
    /// rank of the group has reached it.
    fn sync(&self) {
        self.core.barrier.wait();
    }

    /// Contribute `value` and receive every rank's contribution, in
    /// rank order. All ranks must call with the same `T`: each deposits
    /// in its slot, waits, reads every slot, and waits again, so no
    /// deposit of the next round lands before the last read of this one.
    pub fn allgather<T: Clone + Send + 'static>(&self, value: T) -> Vec<T> {
        self.counters.allgathers.fetch_add(1, Ordering::Relaxed);
        self.core.gather.lock().unwrap()[self.rank] = Some(Box::new(value));
        self.sync();
        let slots = self.core.gather.lock().unwrap();
        let out: Vec<T> = slots
            .iter()
            .map(|slot| {
                slot.as_ref()
                    .expect("all ranks deposited")
                    .downcast_ref::<T>()
                    .expect("allgather type mismatch across ranks")
                    .clone()
            })
            .collect();
        drop(slots);
        self.sync();
        out
    }

    /// All-to-all point-to-point exchange: deliver `outbox` (each
    /// envelope to its `peer`) and return every envelope addressed to
    /// this rank, sorted by source rank (messages from one source stay
    /// in send order). Self-sends are allowed. Collective: every rank
    /// must call, even with an empty outbox, and with the same `T`.
    pub fn exchange<T: Send + 'static>(&self, outbox: Vec<Envelope<T>>) -> Vec<Envelope<T>> {
        self.counters.exchanges.fetch_add(1, Ordering::Relaxed);
        {
            let mut mail = self.core.mail.lock().unwrap();
            for env in outbox {
                assert!(
                    env.peer < self.core.size,
                    "exchange peer {} out of range (group size {})",
                    env.peer,
                    self.core.size
                );
                self.counters.msgs_sent.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .bytes_sent
                    .fetch_add(env.bytes, Ordering::Relaxed);
                mail.boxes[env.peer].push((self.rank, env.bytes, Box::new(env.msg)));
            }
        }
        // Everyone deposited ...
        self.sync();
        let mut mine = {
            let mut mail = self.core.mail.lock().unwrap();
            std::mem::take(&mut mail.boxes[self.rank])
        };
        // ... and everyone drained, so the next exchange's deposits
        // cannot mix into this round's inboxes.
        self.sync();
        mine.sort_by_key(|(from, _, _)| *from);
        mine.into_iter()
            .map(|(from, bytes, msg)| Envelope {
                peer: from,
                bytes,
                msg: *msg
                    .downcast::<T>()
                    .expect("exchange type mismatch across ranks"),
            })
            .collect()
    }

    /// Snapshot of this rank's counters.
    pub fn stats(&self) -> CommStats {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn run_group<F, R>(size: usize, f: F) -> Vec<R>
    where
        F: Fn(Communicator) -> R + Send + Sync + 'static,
        R: Send + 'static,
    {
        let f = Arc::new(f);
        let handles: Vec<_> = Communicator::group(size)
            .into_iter()
            .map(|comm| {
                let f = f.clone();
                thread::spawn(move || f(comm))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn group_hands_out_ranks_in_order() {
        let comms = Communicator::group(4);
        assert_eq!(comms.len(), 4);
        for (i, c) in comms.iter().enumerate() {
            assert_eq!(c.rank(), i);
            assert_eq!(c.size(), 4);
        }
    }

    #[test]
    fn single_rank_collectives_are_noops() {
        let mut comms = Communicator::group(1);
        let c = comms.pop().unwrap();
        assert_eq!(c.allgather(7u32), vec![7]);
        let got = c.exchange(vec![Envelope {
            peer: 0,
            bytes: 3,
            msg: vec![1u8, 2, 3],
        }]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].peer, 0);
        assert_eq!(got[0].msg, vec![1, 2, 3]);
        assert_eq!(c.stats().allgathers, 1);
        assert_eq!(c.stats().exchanges, 1);
        assert_eq!(c.stats().bytes_sent, 3);
    }

    #[test]
    fn allgather_returns_rank_ordered_contributions() {
        let results = run_group(6, |comm| {
            let got = comm.allgather(comm.rank() * 10);
            (comm.rank(), got)
        });
        for (_, got) in results {
            assert_eq!(got, vec![0, 10, 20, 30, 40, 50]);
        }
    }

    #[test]
    fn consecutive_allgathers_of_different_types() {
        run_group(3, |comm| {
            for round in 0..20u64 {
                let nums = comm.allgather(comm.rank() as u64 + round);
                assert_eq!(
                    nums,
                    vec![round, round + 1, round + 2],
                    "round {round} mixed generations"
                );
                let strs = comm.allgather(format!("r{}", comm.rank()));
                assert_eq!(strs, vec!["r0", "r1", "r2"]);
            }
            assert_eq!(comm.stats().allgathers, 40);
        });
    }

    #[test]
    fn exchange_routes_to_the_right_peer() {
        // Every rank sends its rank number to every peer (self
        // included); every rank must receive exactly one message from
        // each rank, sorted by source.
        run_group(5, |comm| {
            let outbox = (0..comm.size())
                .map(|peer| Envelope {
                    peer,
                    bytes: 8,
                    msg: comm.rank() as u64,
                })
                .collect();
            let inbox = comm.exchange::<u64>(outbox);
            let sources: Vec<usize> = inbox.iter().map(|e| e.peer).collect();
            assert_eq!(sources, vec![0, 1, 2, 3, 4]);
            for env in &inbox {
                assert_eq!(env.msg, env.peer as u64);
            }
            assert_eq!(comm.stats().msgs_sent, 5);
            assert_eq!(comm.stats().bytes_sent, 40);
        });
    }

    #[test]
    fn exchange_with_empty_outboxes_and_repeats() {
        run_group(4, |comm| {
            for round in 0..50u64 {
                // Only even ranks send, and only to rank 0.
                let outbox = if comm.rank() % 2 == 0 {
                    vec![Envelope {
                        peer: 0,
                        bytes: 1,
                        msg: (comm.rank() as u64, round),
                    }]
                } else {
                    Vec::new()
                };
                let inbox = comm.exchange::<(u64, u64)>(outbox);
                if comm.rank() == 0 {
                    let got: Vec<(u64, u64)> = inbox.iter().map(|e| e.msg).collect();
                    assert_eq!(got, vec![(0, round), (2, round)], "round {round}");
                } else {
                    assert!(inbox.is_empty());
                }
            }
        });
    }

    #[test]
    fn exchange_preserves_per_sender_order() {
        run_group(2, |comm| {
            let outbox = (0..10u64)
                .map(|i| Envelope {
                    peer: 1 - comm.rank(),
                    bytes: 0,
                    msg: i,
                })
                .collect();
            let inbox = comm.exchange::<u64>(outbox);
            let got: Vec<u64> = inbox.iter().map(|e| e.msg).collect();
            assert_eq!(got, (0..10).collect::<Vec<_>>());
        });
    }

    #[test]
    fn stats_since_subtracts() {
        let mut comms = Communicator::group(1);
        let c = comms.pop().unwrap();
        c.allgather(());
        let snap = c.stats();
        c.allgather(());
        c.allgather(());
        let d = c.stats().since(&snap);
        assert_eq!(d.allgathers, 2);
        assert_eq!(d.exchanges, 0);
    }
}
