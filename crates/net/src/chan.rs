//! A bounded multi-producer multi-consumer channel.
//!
//! This is the transport primitive under the live cluster: every I/O
//! daemon owns one bounded request queue that all clients send into and
//! all of the daemon's worker threads receive from. The bound is the
//! backpressure mechanism — a client that outruns a daemon blocks in
//! [`Sender::send`] instead of growing an unbounded queue.
//!
//! Implementation: `Mutex<VecDeque>` + two condvars (not lock-free),
//! which is plenty for an in-process RPC path whose per-message work is
//! a full request decode + disk-model execution. Disconnect semantics
//! match the usual channel contract: `send` fails once every receiver
//! is gone, `recv` fails once every sender is gone *and* the queue is
//! drained.
//!
//! # A wake-up only for a waiter
//!
//! `Condvar::notify_one` is a system call whether or not anyone is
//! parked, and on the RPC path nearly nobody is: a reply queue with room
//! for a whole window never has a parked sender, a daemon's queue that is
//! not full has none either. So the channel counts, under the mutex it
//! takes anyway, the threads parked on each condvar, and an enqueue or a
//! dequeue notifies only when the other side's count is non-zero. No
//! wake-up is lost by it: a thread adds itself to the count *before* it
//! releases the mutex to park (the condvar does both at once) and takes
//! itself off only with the mutex held again, after the wait — however
//! that ended, a timeout included — so whoever changes the queue after a
//! thread decided to park sees that thread counted. The count may run
//! ahead of who is really asleep (a thread woken and not yet running is
//! still on it); that costs a notify nobody needed, never one somebody
//! did. A disconnect wakes everyone, unconditionally.

use pvfs_types::clock;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Error returned by [`Sender::send`] when all receivers are gone;
/// carries the unsent message back.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Sender::try_send`]; carries the unsent message
/// back either way.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue is at capacity right now (load-shed candidate).
    Full(T),
    /// All receivers are gone.
    Disconnected(T),
}

/// Error returned by [`Sender::send_timeout`]; carries the unsent
/// message back either way.
#[derive(Debug, PartialEq, Eq)]
pub enum SendTimeoutError<T> {
    /// The queue stayed full for the whole timeout.
    Timeout(T),
    /// All receivers are gone.
    Disconnected(T),
}

/// Error returned by [`Receiver::recv`] when the channel is empty and
/// all senders are gone.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// Nothing arrived before the deadline; senders may still exist.
    Timeout,
    /// The channel is empty and all senders are gone.
    Disconnected,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// Threads parked on `not_empty` and on `not_full` (see the module
    /// docs): a side with nobody counted here is not notified.
    parked_receivers: usize,
    parked_senders: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
    /// How often one thread was notified (disconnects notify all, and
    /// are not counted).
    #[cfg(test)]
    wakes: std::sync::atomic::AtomicUsize,
}

impl<T> Shared<T> {
    /// Enqueue, waiting for room at most `patience` (for ever without
    /// one) from the moment the queue is found full; `Full` when that
    /// runs out.
    fn enqueue(&self, value: T, patience: Option<Duration>) -> Result<(), TrySendError<T>> {
        let mut deadline = None;
        let mut state = self.state.lock().unwrap();
        loop {
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if state.queue.len() < self.capacity {
                state.queue.push_back(value);
                let waiter = state.parked_receivers > 0;
                drop(state);
                if waiter {
                    self.wake(&self.not_empty);
                }
                return Ok(());
            }
            if expired(patience, &mut deadline) {
                return Err(TrySendError::Full(value));
            }
            state = park(&self.not_full, state, |s| &mut s.parked_senders, deadline);
        }
    }

    /// Dequeue, waiting for a message at most `patience` (for ever
    /// without one) from the moment the queue is found empty.
    fn dequeue(&self, patience: Option<Duration>) -> Result<T, RecvTimeoutError> {
        let mut deadline = None;
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(value) = state.queue.pop_front() {
                let waiter = state.parked_senders > 0;
                drop(state);
                if waiter {
                    self.wake(&self.not_full);
                }
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            if expired(patience, &mut deadline) {
                return Err(RecvTimeoutError::Timeout);
            }
            state = park(
                &self.not_empty,
                state,
                |s| &mut s.parked_receivers,
                deadline,
            );
        }
    }

    /// [`Sender::send`], for whoever has a way into the channel.
    fn send(&self, value: T) -> Result<(), SendError<T>> {
        self.enqueue(value, None).map_err(|e| match e {
            TrySendError::Disconnected(value) => SendError(value),
            TrySendError::Full(_) => unreachable!("a wait without a deadline does not run out"),
        })
    }

    /// Wake one of the threads counted as parked on `condvar`.
    fn wake(&self, condvar: &Condvar) {
        #[cfg(test)]
        self.wakes
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        condvar.notify_one();
    }
}

/// Whether a wait of at most `patience` has run out. Its deadline (a
/// clock reading) is fixed the first time this is asked — when the wait
/// begins — so a call that never has to wait never reads the clock.
fn expired(patience: Option<Duration>, deadline: &mut Option<u64>) -> bool {
    patience.is_some_and(|patience| {
        let now = clock::now_ns();
        *deadline.get_or_insert(now.saturating_add(clock::nanos(patience))) <= now
    })
}

/// Park on `condvar` until notified, or until the clock reading
/// `deadline` if there is one — counted in `parked` from before the
/// mutex is released until it is held again, however the wait ends.
fn park<'a, T>(
    condvar: &Condvar,
    mut state: MutexGuard<'a, State<T>>,
    parked: fn(&mut State<T>) -> &mut usize,
    deadline: Option<u64>,
) -> MutexGuard<'a, State<T>> {
    *parked(&mut state) += 1;
    let mut state = match deadline {
        None => condvar.wait(state).unwrap(),
        Some(deadline) => {
            let left = clock::until(deadline);
            condvar.wait_timeout(state, left).unwrap().0
        }
    };
    *parked(&mut state) -= 1;
    state
}

/// Create a bounded MPMC channel holding at most `capacity` messages.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "channel capacity must be positive");
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity),
            senders: 1,
            receivers: 1,
            parked_receivers: 0,
            parked_senders: 0,
        }),
        capacity,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        #[cfg(test)]
        wakes: Default::default(),
    });
    (
        Sender {
            shared: shared.clone(),
        },
        Receiver { shared },
    )
}

/// The sending half; cloneable.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender").finish_non_exhaustive()
    }
}

impl<T> Sender<T> {
    /// Enqueue a message, blocking while the channel is full. Fails
    /// (returning the message) once every receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        self.shared.send(value)
    }

    /// Enqueue without blocking: fail immediately when the queue is at
    /// capacity (the load-shedding primitive) or every receiver is
    /// gone.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        self.shared.enqueue(value, Some(Duration::ZERO))
    }

    /// Enqueue, blocking at most `timeout` while the channel is full —
    /// the bounded-wait middle ground between [`Sender::send`] (block
    /// forever, as this does given `None`) and [`Sender::try_send`]
    /// (never block). A wedged consumer yields `Timeout` instead of
    /// hanging the sender.
    pub fn send_timeout(
        &self,
        value: T,
        timeout: impl Into<Option<Duration>>,
    ) -> Result<(), SendTimeoutError<T>> {
        let sent = self.shared.enqueue(value, timeout.into());
        sent.map_err(|e| match e {
            TrySendError::Full(value) => SendTimeoutError::Timeout(value),
            TrySendError::Disconnected(value) => SendTimeoutError::Disconnected(value),
        })
    }

    /// Messages queued right now (racy by nature; a shed decision
    /// reading this is advisory).
    pub fn len(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// True when no message is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The channel's fixed capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// A way into this channel that is not one of its senders: made and
    /// dropped without touching the channel's state, and no receiver
    /// waits on its account. For a message that carries its own reply
    /// address — whoever listens there holds a `Sender` for as long as
    /// they do, so counting every address handed out would only guard a
    /// disconnect that cannot happen.
    pub fn address(&self) -> Address<T> {
        Address {
            shared: self.shared.clone(),
        }
    }
}

/// Where to send into a channel without being one of its senders (see
/// [`Sender::address`]).
pub struct Address<T> {
    shared: Arc<Shared<T>>,
}

impl<T> std::fmt::Debug for Address<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Address").finish_non_exhaustive()
    }
}

impl<T> Address<T> {
    /// As [`Sender::send`].
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        self.shared.send(value)
    }

    /// As [`Sender::try_send`].
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        self.shared.enqueue(value, Some(Duration::ZERO))
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        self.shared.state.lock().unwrap().senders += 1;
        Sender {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let last = {
            let mut state = self.shared.state.lock().unwrap();
            state.senders -= 1;
            state.senders == 0
        };
        if last {
            // Wake receivers parked in recv so they can observe the
            // disconnect.
            self.shared.not_empty.notify_all();
        }
    }
}

/// The receiving half; cloneable (each clone is another consumer of the
/// same queue, i.e. a worker).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Dequeue a message, blocking while the channel is empty. Fails
    /// once the channel is drained and every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.shared.dequeue(None).map_err(|_| RecvError)
    }

    /// [`Receiver::recv`] with a deadline.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.shared.dequeue(Some(timeout))
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Receiver<T> {
        self.shared.state.lock().unwrap().receivers += 1;
        Receiver {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let last = {
            let mut state = self.shared.state.lock().unwrap();
            state.receivers -= 1;
            state.receivers == 0
        };
        if last {
            // Wake senders parked in send so they can fail fast.
            self.shared.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fifo_within_single_consumer() {
        let (tx, rx) = bounded(8);
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn send_fails_after_all_receivers_drop() {
        let (tx, rx) = bounded::<u32>(2);
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }

    #[test]
    fn recv_fails_after_senders_drop_and_queue_drains() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn recv_timeout_times_out_then_succeeds() {
        let (tx, rx) = bounded(1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(42).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(42));
    }

    #[test]
    fn bounded_capacity_blocks_until_drained() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        // Third send must block until the consumer drains one slot.
        let t = std::thread::spawn(move || {
            tx.send(3).unwrap();
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!t.is_finished(), "send should block at capacity");
        assert_eq!(rx.recv(), Ok(1));
        t.join().unwrap();
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn try_send_fails_fast_on_full_or_disconnected() {
        let (tx, rx) = bounded(2);
        assert_eq!(tx.capacity(), 2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.len(), 2);
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(3).unwrap();
        drop(rx);
        assert_eq!(tx.try_send(4), Err(TrySendError::Disconnected(4)));
    }

    #[test]
    fn send_timeout_bounds_the_wait_then_succeeds_after_drain() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let started = clock::now_ns();
        assert_eq!(
            tx.send_timeout(2, Duration::from_millis(20)),
            Err(SendTimeoutError::Timeout(2))
        );
        assert!(clock::since(started) >= Duration::from_millis(20));
        // A concurrent drain unblocks a parked send_timeout.
        let t = std::thread::spawn(move || tx.send_timeout(2, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(t.join().unwrap(), Ok(()));
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn send_timeout_observes_disconnect() {
        let (tx, rx) = bounded::<u32>(1);
        drop(rx);
        assert_eq!(
            tx.send_timeout(7, Duration::from_millis(5)),
            Err(SendTimeoutError::Disconnected(7))
        );
    }

    #[test]
    fn mpmc_delivers_every_message_exactly_once() {
        let (tx, rx) = bounded(4);
        let mut producers = Vec::new();
        for p in 0..4u64 {
            let tx = tx.clone();
            producers.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    tx.send(p * 1000 + i).unwrap();
                }
            }));
        }
        drop(tx);
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let rx = rx.clone();
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx.recv() {
                    got.push(v);
                }
                got
            }));
        }
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<u64> = (0..4u64)
            .flat_map(|p| (0..100u64).map(move |i| p * 1000 + i))
            .collect();
        assert_eq!(all, expected);
    }

    fn wakes<T>(tx: &Sender<T>) -> usize {
        tx.shared.wakes.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Spin until `parked` threads are counted on one side of `tx`'s
    /// channel (`.0` receivers, `.1` senders).
    fn await_parked<T>(tx: &Sender<T>, parked: (usize, usize)) {
        loop {
            let state = tx.shared.state.lock().unwrap();
            if (state.parked_receivers, state.parked_senders) == parked {
                return;
            }
            drop(state);
            std::thread::yield_now();
        }
    }

    #[test]
    fn only_a_parked_thread_is_notified() {
        let (tx, rx) = bounded(2);
        // Nobody is parked on either side: no notify at all.
        for i in 0..100 {
            tx.send(i).unwrap();
            tx.try_send(i).unwrap();
            assert_eq!(tx.try_send(i), Err(TrySendError::Full(i)));
            assert_eq!(rx.recv(), Ok(i));
            assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(i));
        }
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Timeout)
        );
        assert_eq!(wakes(&tx), 0);
        await_parked(&tx, (0, 0));
        // One receiver parked: the send that feeds it notifies, once;
        // the next one, with nobody waiting any more, does not.
        let parked = {
            let rx = rx.clone();
            std::thread::spawn(move || rx.recv())
        };
        await_parked(&tx, (1, 0));
        tx.send(7).unwrap();
        assert_eq!(parked.join().unwrap(), Ok(7));
        assert_eq!(wakes(&tx), 1);
        tx.send(8).unwrap();
        tx.send(9).unwrap();
        assert_eq!(wakes(&tx), 1);
        // One sender parked on the full queue: the dequeue that makes
        // room notifies it, once.
        let parked = {
            let tx = tx.clone();
            std::thread::spawn(move || tx.send(10))
        };
        await_parked(&tx, (0, 1));
        assert_eq!(rx.recv(), Ok(8));
        assert_eq!(parked.join().unwrap(), Ok(()));
        assert_eq!(wakes(&tx), 2);
        assert_eq!((rx.recv(), rx.recv()), (Ok(9), Ok(10)));
        assert_eq!(wakes(&tx), 2);
        // A wait that timed out took itself off the count.
        await_parked(&tx, (0, 0));
    }

    #[test]
    fn a_disconnect_wakes_everyone_parked() {
        let (tx, rx) = bounded::<u32>(1);
        let receivers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || rx.recv())
            })
            .collect();
        await_parked(&tx, (3, 0));
        drop(tx);
        for parked in receivers {
            assert_eq!(parked.join().unwrap(), Err(RecvError));
        }
        let (tx, rx) = bounded::<u32>(1);
        tx.send(0).unwrap();
        let senders: Vec<_> = (1..4)
            .map(|i| {
                let tx = tx.clone();
                std::thread::spawn(move || tx.send(i))
            })
            .collect();
        await_parked(&tx, (0, 3));
        drop(rx);
        for (i, parked) in senders.into_iter().enumerate() {
            assert_eq!(parked.join().unwrap(), Err(SendError(1 + i as u32)));
        }
    }

    #[test]
    fn an_address_delivers_without_being_a_sender() {
        let (tx, rx) = bounded(1);
        let address = tx.address();
        drop(tx);
        // The receiver does not wait on the address's account...
        assert_eq!(rx.recv(), Err(RecvError));
        // ...but what is sent there arrives.
        address.send(1).unwrap();
        assert_eq!(address.try_send(2), Err(TrySendError::Full(2)));
        assert_eq!(rx.recv(), Ok(1));
        drop(rx);
        assert_eq!(address.send(3), Err(SendError(3)));
        assert_eq!(address.try_send(4), Err(TrySendError::Disconnected(4)));
    }

    /// Capacity 1 keeps both sides parking all the time, half the
    /// consumers on waits that time out (and must take themselves off
    /// the count): a wake-up lost anywhere hangs this test, a message
    /// lost or doubled fails it.
    #[test]
    fn no_wakeup_is_lost_at_capacity_one() {
        const EACH: u64 = 10_000;
        let (tx, rx) = bounded::<u64>(1);
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..EACH {
                        let mut value = p * EACH + i;
                        while let Err(back) = tx.send_timeout(value, Duration::from_micros(50)) {
                            let SendTimeoutError::Timeout(unsent) = back else {
                                panic!("the receivers are alive");
                            };
                            value = unsent;
                        }
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..4)
            .map(|c| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        let next = match c % 2 {
                            0 => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                            _ => rx.recv_timeout(Duration::from_micros(50)),
                        };
                        match next {
                            Ok(value) => got.push(value),
                            Err(RecvTimeoutError::Timeout) => {}
                            Err(RecvTimeoutError::Disconnected) => return got,
                        }
                    }
                })
            })
            .collect();
        drop(rx);
        producers.into_iter().for_each(|p| p.join().unwrap());
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert!(all.iter().copied().eq(0..4 * EACH));
    }
}
