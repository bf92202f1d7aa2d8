//! Who owns the buffers of the frame path, and how they come back.
//!
//! Every buffer a frame needs in steady state — the buffer it is
//! received into, the head it is encoded into, the payload a write
//! gathers, the daemon's scratch (read buffer, decoded region list, run
//! list), the buffer a read's reply is gathered into — has an **owner**
//! that hands it out and takes it back, instead of a call site that
//! allocates it and a drop that frees it, often on another thread. The
//! owner is always the thing frames queue up at — one end of a
//! connection, a daemon's queue, a client's request pipeline, the
//! client's end of a channel lane — never a worker thread, so what a
//! frame costs does not depend on which worker serves it. [`Spares`] is
//! the one rule all of them keep:
//!
//! * **Bound.** An owner keeps at most [`WINDOW`] spares — the most
//!   frames one stream has unanswered at one daemon (a client, whose
//!   window spans its daemons, `WINDOW` per daemon) — and none that pins
//!   more than [`MAX_SPARE_CAPACITY`] bytes.
//! * **The first `WINDOW` are made, the rest reused.** An owner's first
//!   `WINDOW` [`take`](Spares::take)s come back empty-handed however many
//!   spares are already back: how soon a buffer is free again is
//!   scheduling (a daemon's workers finish out of order), and scheduling
//!   must not show in what a frame allocates. From then on `WINDOW` are
//!   in circulation, and wherever at most `WINDOW` frames are
//!   outstanding — and a frame's buffers are given back before its
//!   answer leaves, or under the lock the answer is written under — one
//!   is back whenever the next frame needs it.
//! * **Newest first, for buffers.** The byte buffer that came back last
//!   goes out first: it is the one most likely still in cache (rotating
//!   through an owner's buffers instead measured 6 % slower on 48 KiB
//!   read replies). A buffer has its size from the moment it is made,
//!   so nothing is lost by one sitting at the bottom until that many
//!   frames are out at once.
//! * **Oldest first, for what grows in use.** A daemon's scratch gets
//!   its buffers from the frames it serves — a read buffer with its
//!   first read, a region list with its first list — so each of an
//!   owner's `WINDOW` has to serve early, while the owner is young:
//!   left at the bottom, one would make them whenever two workers first
//!   happen to overlap, and that is scheduling again. They rotate
//!   ([`Spare::ROTATE`]).
//! * **Only the last handle comes back.** A byte buffer is taken back
//!   through [`Bytes::try_into_mut`], control block and all, which
//!   refuses while any view of it is alive — a timed-out request's frame
//!   still in a daemon's queue — and then the buffer is simply let go:
//!   the fallback is always a fresh allocation,
//!   never a wait and never a shared write. An owner whose buffers nobody
//!   gives back — they leave as frames, as replies — keeps a handle on
//!   each ([`Lent`]) and [sweeps](Spares::sweep) when it next needs one.
//!
//! A buffer that crosses threads has its owner where it comes to rest: a
//! `Data` reply over the channel transport, gathered on a daemon's worker
//! and dropped on the client's thread, is the *lane's* — sent along with
//! each request, back with each reply (`transport.rs`, `ChanLane`) —
//! because the client is done with a lane's reply before it sends that
//! lane's next frame, whatever the workers do.

use bytes::{Bytes, BytesMut};
use pvfs_server::Scratch;
use std::collections::VecDeque;

use crate::WINDOW;

/// A spare that pins more memory than this is dropped, not kept: one
/// 32 MiB sieving reply must not pin that much memory for the life of a
/// connection.
pub const MAX_SPARE_CAPACITY: usize = 1 << 20;

/// Something worth keeping for the next frame.
pub trait Spare {
    /// Whether an owner hands its spares of this kind out oldest first,
    /// so that each is used as often as the others, rather than the one
    /// that came back last (see the module docs).
    const ROTATE: bool;

    /// Bytes of memory this pins while it is kept.
    fn capacity(&self) -> usize;
}

impl Spare for BytesMut {
    const ROTATE: bool = false;

    fn capacity(&self) -> usize {
        BytesMut::capacity(self)
    }
}

impl Spare for Scratch {
    const ROTATE: bool = true;

    fn capacity(&self) -> usize {
        Scratch::capacity(self)
    }
}

/// The spares of one owner (see the module docs for the rule).
#[derive(Debug)]
pub struct Spares<T> {
    /// In the order they came back.
    kept: VecDeque<T>,
    /// The most this owner keeps, and has made before it reuses.
    bound: usize,
    /// How many of its first `bound` takes the owner has had.
    made: usize,
}

/// An owner of [`WINDOW`] spares: one end of a connection, a daemon's
/// queue.
impl<T: Spare> Default for Spares<T> {
    fn default() -> Spares<T> {
        Spares::new(WINDOW)
    }
}

impl<T: Spare> Spares<T> {
    /// An owner of up to `bound` spares, none kept yet (and nothing
    /// allocated for keeping them).
    pub fn new(bound: usize) -> Spares<T> {
        Spares {
            kept: VecDeque::new(),
            bound,
            made: 0,
        }
    }

    /// The spare that came back last (first, of a kind that rotates);
    /// `None` — the caller makes a fresh one — for the owner's first
    /// `bound` takes and whenever every spare is out.
    pub fn take(&mut self) -> Option<T> {
        if self.made < self.bound {
            self.made += 1;
            return None;
        }
        if T::ROTATE {
            self.kept.pop_front()
        } else {
            self.kept.pop_back()
        }
    }

    /// Whether every spare this owner has made is out: a
    /// [`take`](Self::take) now would come back empty-handed, and not
    /// because the owner is still making its first `bound`.
    pub fn all_out(&self) -> bool {
        self.made == self.bound && self.kept.is_empty()
    }

    /// Take `spare` back, unless that would keep more than the bound or
    /// pin more than [`MAX_SPARE_CAPACITY`].
    pub fn give(&mut self, spare: T) {
        if self.kept.len() < self.bound && spare.capacity() <= MAX_SPARE_CAPACITY {
            self.kept.push_back(spare);
        }
    }
}

impl Spares<BytesMut> {
    /// A buffer with room for `room` bytes: a spare if one is due and
    /// long enough, a fresh (zeroed) one otherwise. A spare too short is
    /// let go for one twice its size, at least: an owner's frames are
    /// rarely all one length, and a buffer outgrown by a slightly longer
    /// frame must not be outgrown again by the next — each buffer grows
    /// to its owner's traffic once, early, whichever frames it happens
    /// to meet. A spare comes as its last user left it, contents and
    /// length (a fresh one is as long as its capacity): the caller
    /// overwrites what it uses, or clears it. More than
    /// [`MAX_SPARE_CAPACITY`] is a buffer of its own, no concern of the
    /// owner's.
    pub fn buffer(&mut self, room: usize) -> BytesMut {
        if room > MAX_SPARE_CAPACITY {
            return BytesMut::zeroed(room);
        }
        match self.take() {
            Some(spare) if spare.capacity() >= room => spare,
            Some(short) => BytesMut::zeroed(room.max(2 * short.capacity()).min(MAX_SPARE_CAPACITY)),
            None => BytesMut::zeroed(room),
        }
    }

    /// Take a buffer back if `handle` is the last one on it; let it go
    /// otherwise.
    pub fn take_back(&mut self, handle: Bytes) {
        if let Ok(buffer) = handle.try_into_mut() {
            self.give(buffer);
        }
    }

    /// Take back every buffer of `lent` this owner is by now the last
    /// handle on; the others stay lent.
    pub fn sweep(&mut self, lent: &mut Lent) {
        for lent in &mut lent.0 {
            match lent.take().map(Bytes::try_into_mut) {
                Some(Ok(free)) => self.give(free),
                Some(Err(in_use)) => *lent = Some(in_use),
                None => {}
            }
        }
    }
}

/// An owner's handles on the buffers it has handed out and nobody gives
/// back — the frames a connection's reader returned, the replies a lane
/// did: up to [`WINDOW`], each to be [swept](Spares::sweep) back once
/// every other view of its buffer is gone.
#[derive(Debug, Default)]
pub struct Lent([Option<Bytes>; WINDOW]);

impl Lent {
    /// Keep `handle` if there is a free place for it; a buffer with no
    /// handle kept is simply freed by whoever drops it last.
    pub fn keep(&mut self, handle: Bytes) {
        if let Some(free) = self.0.iter_mut().find(|lent| lent.is_none()) {
            *free = Some(handle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_first_window_is_made_and_the_rest_reused_newest_first() {
        let mut spares = Spares::default();
        // Given back at once, and still the first WINDOW takes make new
        // ones: the count must not hang on how soon a spare is back.
        let mut made = Vec::new();
        for i in 0..WINDOW {
            let buf = spares.buffer(100 + i);
            assert_eq!((buf.len(), buf.capacity()), (100 + i, 100 + i));
            made.push(buf.as_ptr());
            spares.give(buf);
        }
        made.dedup();
        assert_eq!(made.len(), WINDOW);
        // From then on the one that came back last goes out again...
        for _ in 0..3 {
            let buf = spares.buffer(100);
            assert_eq!(buf.as_ptr(), made[WINDOW - 1]);
            spares.give(buf);
        }
        // ...and the ones below it when that many are out at once.
        assert!(!spares.all_out());
        let out: Vec<_> = (0..WINDOW).map(|_| spares.take().unwrap()).collect();
        let order: Vec<_> = out.iter().map(|b| b.as_ptr()).rev().collect();
        assert_eq!(order, made);
        // All out: a fresh one, which is kept in a place that is free.
        assert!(spares.all_out() && spares.take().is_none());
        let extra = spares.buffer(8);
        assert!(!made.contains(&extra.as_ptr()));
        spares.give(extra);
        assert!(spares.take().is_some() && spares.take().is_none());
        drop(out);
    }

    #[test]
    fn what_grows_in_use_goes_round_oldest_first() {
        let mut spares = Spares::<Scratch>::default();
        (0..WINDOW).for_each(|_| assert!(spares.take().is_none()));
        // Tell them apart by the room of their region lists.
        for regions in 1..=WINDOW {
            let mut scratch = Scratch::default();
            scratch.regions = pvfs_types::RegionList::with_capacity(regions);
            spares.give(scratch);
        }
        for round in 0..3 * WINDOW {
            let scratch = spares.take().unwrap();
            assert_eq!(scratch.regions.capacity(), 1 + round % WINDOW);
            spares.give(scratch);
        }
    }

    #[test]
    fn a_spare_too_short_is_replaced_and_one_too_large_not_kept() {
        let mut spares = Spares::default();
        for _ in 0..WINDOW {
            let buf = spares.buffer(16);
            spares.give(buf);
        }
        // Each short buffer is let go when it meets a longer frame, for
        // one with room for frames longer still.
        let longer: Vec<_> = (0..WINDOW).map(|_| spares.buffer(20)).collect();
        assert!(longer.iter().all(|b| b.capacity() == 32 && b.len() == 32));
        longer.into_iter().for_each(|b| spares.give(b));
        let long: Vec<_> = (0..WINDOW).map(|_| spares.buffer(4096)).collect();
        assert!(long.iter().all(|b| b.capacity() == 4096));
        long.into_iter().for_each(|b| spares.give(b));
        let again = spares.buffer(16);
        assert!(again.capacity() == 4096 && again.len() == 4096);
        spares.give(again);
        // More than the bound never counts as one of the owner's.
        let big = spares.buffer(MAX_SPARE_CAPACITY + 1);
        spares.give(big);
        for _ in 0..WINDOW {
            assert!(spares
                .take()
                .is_some_and(|b| b.capacity() < MAX_SPARE_CAPACITY));
        }
        assert!(spares.take().is_none());
        // And never more than a window is kept.
        (0..2 * WINDOW).for_each(|_| spares.give(BytesMut::zeroed(8)));
        assert_eq!(
            (0..2 * WINDOW).filter_map(|_| spares.take()).count(),
            WINDOW
        );
    }

    #[test]
    fn only_the_last_handle_comes_back() {
        let mut spares = Spares::default();
        (0..WINDOW).for_each(|_| drop(spares.take()));
        let frozen = BytesMut::zeroed(64).freeze();
        let (at, view) = (frozen.as_ptr(), frozen.slice(8..16));
        spares.take_back(frozen);
        assert!(spares.take().is_none(), "a live view pins its buffer");
        spares.take_back(view);
        let back = spares.take().unwrap();
        assert_eq!((back.as_ptr(), back.capacity()), (at, 64));
    }
}
