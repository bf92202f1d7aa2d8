//! Length-prefixed framing of `pvfs-proto` frames for TCP.
//!
//! The channel transport moves one encoded frame per message, so frame
//! boundaries are free; a TCP byte stream has none. Each frame is
//! prefixed with its length as a little-endian u32:
//!
//! ```text
//! len (4B LE) | frame (len bytes: pvfs-proto header + trailing + bulk)
//! ```
//!
//! A frame goes out as one vectored write of `len ‖ head ‖ tail`
//! ([`write_frame_parts`]): the prefix never costs a syscall (or, under
//! `TCP_NODELAY`, a segment) of its own, and a frame whose bulk payload
//! already sits in its own buffer is never staged behind its head in a
//! second one. Several frames queued for one connection leave the same
//! way, together ([`write_frames`]).
//!
//! Two hard rules keep a malformed peer from hurting the process:
//!
//! * the announced length is checked against
//!   [`MAX_WIRE_FRAME`](pvfs_proto::MAX_WIRE_FRAME) **before** any
//!   allocation — a hostile prefix yields a typed
//!   [`PvfsError::FrameTooLarge`], never an OOM;
//! * reassembly uses `read_exact`-style loops, so a frame split across
//!   arbitrarily many 1-byte segments, or several frames concatenated
//!   into one TCP segment, decode identically.
//!
//! A connection's receive buffers belong to its [`FrameReader`], which
//! takes each back once the frame it handed out, and every view cut from
//! it, is gone — one owner of [`Spares`](crate::spares::Spares) among
//! several; the rule they share is in [`crate::spares`]. [`read_frame`]
//! is a reader used once: the same code, a buffer of its own.
//!
//! [`FrameReader`] asks its stream for exactly the bytes of the frame it
//! is assembling, so it never reads past a frame's end. A connection puts
//! a `BufReader` of [`STAGING`] bytes under it: several small frames that
//! arrived together then cost one `read`, while a body larger than the
//! staging buffer is still read straight into its own frame buffer
//! (`BufReader` steps aside for a read at least its own size).

use bytes::{Bytes, BytesMut};
use pvfs_proto::{Frame, MAX_WIRE_FRAME};
use pvfs_types::PvfsError;
use std::io::{self, IoSlice, Read, Write};

pub use crate::spares::MAX_SPARE_CAPACITY;
use crate::spares::{Lent, Spares};
use crate::WINDOW;

/// Bytes of framing overhead per frame (the length prefix).
pub const LEN_PREFIX: usize = 4;

/// The staging buffer a connection reads through: room for a window of
/// list-I/O request frames (64 regions ≈ 1 KiB of trailing data, plus a
/// small payload) or of small replies.
pub const STAGING: usize = WINDOW * 4096;

/// Why reading a frame off a stream failed.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended cleanly on a frame boundary (peer hung up).
    Closed,
    /// The peer announced a frame over the cap; nothing was allocated.
    TooLarge(PvfsError),
    /// The stream failed mid-frame (reset, mid-frame EOF, ...).
    Io(io::Error),
}

impl FrameError {
    /// Collapse into the workspace error type for client-facing paths.
    pub fn into_pvfs(self, peer: &str) -> PvfsError {
        match self {
            FrameError::Closed => PvfsError::Transport(format!("{peer} closed the connection")),
            FrameError::TooLarge(e) => e,
            FrameError::Io(e) => PvfsError::Transport(format!("{peer}: {e}")),
        }
    }

    /// The stream's read timeout elapsed with the frame still on its
    /// way: the reader has kept what it got, and reading again resumes.
    pub fn is_timeout(&self) -> bool {
        matches!(self, FrameError::Io(e) if matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ))
    }
}

/// Write one length-prefixed frame. Rejects frames over the cap so a
/// local bug cannot emit a frame no peer would accept.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    write_frame_parts(w, frame, &[])
}

/// Write the frame `head ‖ tail` behind its length prefix without
/// joining the parts: one `write_vectored` when the writer takes it
/// all, resumed from wherever a short write stopped otherwise. Rejects
/// an oversized `head + tail` before anything reaches the wire.
pub fn write_frame_parts(w: &mut impl Write, head: &[u8], tail: &[u8]) -> io::Result<()> {
    let prefix = prefix_of(head.len() + tail.len())?;
    write_all_vectored(w, [&prefix, head, tail])
}

/// Write `frames`, each `prefix ‖ head ‖ payload`, in one
/// `write_vectored` per [`WINDOW`] of them (resumed after a short write,
/// as [`write_frame_parts`] is). An oversized frame is rejected before
/// anything of its batch reaches the wire.
pub fn write_frames(w: &mut impl Write, frames: &[Frame]) -> io::Result<()> {
    for batch in frames.chunks(WINDOW) {
        let mut prefixes = [[0u8; LEN_PREFIX]; WINDOW];
        for (prefix, frame) in prefixes.iter_mut().zip(batch) {
            *prefix = prefix_of(frame.len())?;
        }
        let mut parts: [&[u8]; 3 * WINDOW] = [&[]; 3 * WINDOW];
        for (i, (prefix, frame)) in prefixes.iter().zip(batch).enumerate() {
            parts[3 * i..3 * i + 3].copy_from_slice(&[prefix, &frame.head, &frame.payload]);
        }
        write_all_vectored(w, parts)?;
    }
    Ok(())
}

/// The length prefix of a frame of `len` bytes, if a peer would take it.
fn prefix_of(len: usize) -> io::Result<[u8; LEN_PREFIX]> {
    if len > MAX_WIRE_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("refusing to send a {len}-byte frame (cap {MAX_WIRE_FRAME})"),
        ));
    }
    Ok((len as u32).to_le_bytes())
}

/// Write every byte of `parts`, in order: one `write_vectored` when the
/// writer takes them all, resumed from wherever a short write stopped
/// otherwise.
fn write_all_vectored<const N: usize>(w: &mut impl Write, parts: [&[u8]; N]) -> io::Result<()> {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    let mut sent = 0;
    while sent < total {
        // The unsent remainder: drop whole parts already written, cut
        // into the one a short write stopped in.
        let mut skip = sent;
        let mut bufs = [IoSlice::new(&[]); N];
        let mut n = 0;
        for part in parts {
            if skip < part.len() {
                bufs[n] = IoSlice::new(&part[skip..]);
                n += 1;
            }
            skip = skip.saturating_sub(part.len());
        }
        match w.write_vectored(&bufs[..n]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(k) => sent += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The receiving end of one connection: reads length-prefixed frames,
/// each into a buffer an earlier one arrived in whenever one is free
/// again.
///
/// The reader owns the connection's receive buffers — a [`Spares`], so:
/// the first [`WINDOW`] frames allocate, the rest reuse, the buffer
/// freed last first; a buffer too short for the frame at hand is let go for one that
/// fits; a frame over [`MAX_SPARE_CAPACITY`] gets a buffer of its own
/// that is not kept. Nobody gives a frame's buffer back: the reader keeps
/// a handle on the (up to `WINDOW`) frames it has handed out and, when
/// the next frame's prefix has arrived, takes back every buffer it is by
/// then the last handle on ([`Bytes::try_into_mut`], control block and
/// all) — which it is exactly when every view of that frame (the frame
/// itself, a decoded payload slice, the daemon's write runs) has been
/// dropped. On a connection with at most `WINDOW` unanswered frames one
/// of `WINDOW` always is free by then — the peer sent this frame only
/// after it had our answer to one of those, and the answer leaves after
/// the request's views are gone — though not a particular one: a daemon's
/// workers finish out of order. If every buffer is still in use the
/// reader simply allocates, as a one-shot [`read_frame`] does; a buffer a
/// live `Bytes` points into is never written.
///
/// A buffer keeps the length of the longest frame it has held — the
/// frame handed out is a view of its front — so a reused buffer is not
/// zeroed again before it is overwritten.
///
/// A read that gives out with [`FrameError::is_timeout`] loses nothing:
/// the prefix bytes and the part of the body that arrived are kept, and
/// the next [`read_frame`](FrameReader::read_frame) carries on from
/// there. Any other failure resets the reader.
#[derive(Debug, Default)]
pub struct FrameReader {
    spares: Spares<BytesMut>,
    /// The buffers of frames handed out, whole, to be taken back.
    lent: Lent,
    prefix: [u8; LEN_PREFIX],
    prefix_got: usize,
    /// The frame being assembled, once its prefix is in.
    body: Option<Body>,
}

#[derive(Debug)]
struct Body {
    /// At least `len` bytes long; the frame is its first `len`.
    buf: BytesMut,
    /// The frame's announced length.
    len: usize,
    /// How much of the frame has arrived.
    got: usize,
}

impl FrameReader {
    /// A reader with no spare buffer yet.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Whether part of a frame has arrived and the rest has not.
    pub fn mid_frame(&self) -> bool {
        self.prefix_got > 0 || self.body.is_some()
    }

    /// Read one length-prefixed frame, surviving arbitrary short reads.
    /// Blocking: the caller controls deadlines via socket read timeouts
    /// (client pool) or by shutting the socket down (server teardown).
    pub fn read_frame(&mut self, r: &mut impl Read) -> Result<Bytes, FrameError> {
        self.assemble(r).inspect_err(|e| {
            if !e.is_timeout() {
                (self.prefix_got, self.body) = (0, None);
            }
        })
    }

    fn assemble(&mut self, r: &mut impl Read) -> Result<Bytes, FrameError> {
        if self.body.is_none() {
            while self.prefix_got < LEN_PREFIX {
                match r.read(&mut self.prefix[self.prefix_got..]) {
                    // A clean EOF before the first byte: the peer hung
                    // up between frames.
                    Ok(0) if self.prefix_got == 0 => return Err(FrameError::Closed),
                    Ok(0) => return Err(died_mid_frame()),
                    Ok(n) => self.prefix_got += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(FrameError::Io(e)),
                }
            }
            let len = u32::from_le_bytes(self.prefix) as usize;
            if len > MAX_WIRE_FRAME {
                return Err(FrameError::TooLarge(PvfsError::FrameTooLarge {
                    len: len as u64,
                    max: MAX_WIRE_FRAME as u64,
                }));
            }
            self.prefix_got = 0;
            let buf = self.buffer_for(len);
            self.body = Some(Body { buf, len, got: 0 });
        }
        let Body { buf, len, got } = self.body.as_mut().expect("the prefix is in");
        // What arrived before an error stays where it is.
        while got < len {
            match r.read(&mut buf[*got..*len]) {
                Ok(0) => return Err(died_mid_frame()),
                Ok(n) => *got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        let Body { buf, len, .. } = self.body.take().expect("just filled");
        // An oversized buffer is the frame's alone: no handle kept, it is
        // freed when the frame is dropped.
        let keep = buf.capacity() <= MAX_SPARE_CAPACITY;
        let whole = buf.freeze();
        let frame = whole.slice(..len);
        if keep {
            self.lent.keep(whole);
        }
        Ok(frame)
    }

    /// The buffer a frame of `len` bytes is read into: at least that
    /// long.
    fn buffer_for(&mut self, len: usize) -> BytesMut {
        self.spares.sweep(&mut self.lent);
        let mut buf = self.spares.buffer(len);
        if buf.len() < len {
            buf.resize(len, 0);
        }
        buf
    }
}

/// Read one length-prefixed frame: a [`FrameReader`] used once.
pub fn read_frame(r: &mut impl Read) -> Result<Bytes, FrameError> {
    FrameReader::new().read_frame(r)
}

/// An EOF inside a frame (as opposed to [`FrameError::Closed`], between
/// two).
fn died_mid_frame() -> FrameError {
    FrameError::Io(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "peer died mid-frame",
    ))
}

/// Total wire bytes a frame of `frame_len` bytes occupies (prefix +
/// body).
pub fn wire_len(frame_len: usize) -> u64 {
    (LEN_PREFIX + frame_len) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that hands out its bytes at most `chunk` at a time —
    /// the short-read behavior of a congested socket.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn roundtrip_one_frame() {
        let wire = framed(b"hello frames");
        let got = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(got.as_ref(), b"hello frames");
    }

    #[test]
    fn frame_split_across_one_byte_reads_reassembles() {
        // The regression the paper's framing needs: a frame arriving
        // one byte per read() must decode identically.
        let payload: Vec<u8> = (0..=255u8).collect();
        let mut r = Trickle {
            data: framed(&payload),
            pos: 0,
            chunk: 1,
        };
        let got = read_frame(&mut r).unwrap();
        assert_eq!(got.as_ref(), &payload[..]);
    }

    #[test]
    fn two_frames_in_one_segment_decode_separately() {
        // The inverse coalescing case: two frames delivered in one
        // contiguous byte run must not bleed into each other.
        let mut wire = framed(b"first");
        wire.extend_from_slice(&framed(b"second, longer"));
        let mut r = wire.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().as_ref(), b"first");
        assert_eq!(read_frame(&mut r).unwrap().as_ref(), b"second, longer");
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn split_and_coalesced_at_every_chunk_size() {
        let a: Vec<u8> = (0..200u8).collect();
        let b: Vec<u8> = (0..90u8).rev().collect();
        let mut wire = framed(&a);
        wire.extend_from_slice(&framed(&b));
        for chunk in [1, 2, 3, 5, 7, 64, 4096] {
            let mut r = Trickle {
                data: wire.clone(),
                pos: 0,
                chunk,
            };
            assert_eq!(read_frame(&mut r).unwrap().as_ref(), &a[..]);
            assert_eq!(read_frame(&mut r).unwrap().as_ref(), &b[..]);
            assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
        }
    }

    #[test]
    fn oversized_prefix_is_typed_error_not_alloc() {
        // A hostile 4 GiB-ish announcement: rejected from the prefix
        // alone, before the body would be allocated or read.
        let mut wire = (u32::MAX - 7).to_le_bytes().to_vec();
        wire.extend_from_slice(&[0xab; 16]);
        match read_frame(&mut wire.as_slice()) {
            Err(FrameError::TooLarge(PvfsError::FrameTooLarge { len, max })) => {
                assert_eq!(len, (u32::MAX - 7) as u64);
                assert_eq!(max, MAX_WIRE_FRAME as u64);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn oversized_frame_is_refused_at_write() {
        let huge = vec![0u8; MAX_WIRE_FRAME + 1];
        let mut out = Vec::new();
        assert!(write_frame(&mut out, &huge).is_err());
        assert!(out.is_empty(), "nothing may hit the wire");
    }

    /// A writer that takes at most `chunk` bytes per call, spread over
    /// however many of the offered slices that covers — the short
    /// vectored write of a full socket buffer.
    struct Dribble {
        out: Vec<u8>,
        chunk: usize,
        calls: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut room = self.chunk;
            for buf in bufs {
                let n = room.min(buf.len());
                self.out.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(self.chunk - room)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// What the two-`write_all` writer this module used to have put on
    /// the wire.
    fn prefixed(frame: &[u8]) -> Vec<u8> {
        let mut wire = (frame.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(frame);
        wire
    }

    #[test]
    fn vectored_writer_survives_short_writes_byte_identically() {
        let head: Vec<u8> = (0..20u8).collect();
        let tail: Vec<u8> = (0..=255u8).rev().cycle().take(700).collect();
        let whole = [&head[..], &tail[..]].concat();
        for chunk in [1, 2, 3, 5, 7] {
            for (h, t) in [
                (&head[..], &tail[..]),
                (&whole[..], &[][..]),
                (&[][..], &whole[..]),
            ] {
                let mut w = Dribble {
                    out: Vec::new(),
                    chunk,
                    calls: 0,
                };
                write_frame_parts(&mut w, h, t).unwrap();
                assert_eq!(w.out, prefixed(&whole), "chunk {chunk}");
                assert_eq!(w.calls, (LEN_PREFIX + whole.len()).div_ceil(chunk));
                assert_eq!(
                    read_frame(&mut w.out.as_slice()).unwrap().as_ref(),
                    &whole[..]
                );
            }
        }
        // `write_frame` is the same routine with an empty tail, and an
        // empty frame is still a frame.
        assert_eq!(framed(&whole), prefixed(&whole));
        assert_eq!(framed(b""), prefixed(b""));
    }

    #[test]
    fn a_writer_that_takes_everything_sees_one_vectored_write() {
        let mut w = Dribble {
            out: Vec::new(),
            chunk: usize::MAX,
            calls: 0,
        };
        write_frame_parts(&mut w, b"head", b"and a tail").unwrap();
        assert_eq!(w.calls, 1, "prefix, head and tail leave in one call");
        assert_eq!(w.out, prefixed(b"headand a tail"));
    }

    #[test]
    fn oversized_parts_are_refused_with_nothing_on_the_wire() {
        let head = [0u8; 20];
        let tail = vec![0u8; MAX_WIRE_FRAME - head.len() + 1];
        let mut out = Vec::new();
        let err = write_frame_parts(&mut out, &head, &tail).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty(), "nothing may hit the wire");
        // One byte less is exactly the cap, and goes out.
        write_frame_parts(&mut out, &head, &tail[1..]).unwrap();
        assert_eq!(out.len(), LEN_PREFIX + MAX_WIRE_FRAME);
    }

    #[test]
    fn a_writer_that_stops_taking_bytes_is_an_error_not_a_spin() {
        let mut w = Dribble {
            out: Vec::new(),
            chunk: 0,
            calls: 0,
        };
        let err = write_frame_parts(&mut w, b"x", b"y").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn a_connection_receives_into_the_buffer_it_already_has() {
        // Two windows and a bit, no frame longer than those of the first.
        let lens: Vec<usize> = (0..2 * WINDOW + 2)
            .map(|i| if i < WINDOW { 300 } else { 300 - 20 * (i % 3) })
            .collect();
        let mut wire = Vec::new();
        for (i, len) in lens.iter().enumerate() {
            wire.extend_from_slice(&framed(&vec![i as u8; *len]));
        }
        let mut r = wire.as_slice();
        let mut frames = FrameReader::new();
        let mut buffers = Vec::new();
        for (i, len) in lens.iter().enumerate() {
            let frame = frames.read_frame(&mut r).unwrap();
            assert_eq!(frame.as_ref(), &vec![i as u8; *len][..]);
            // The first window allocates the buffers — however soon the
            // earlier ones are free again, so that the count does not
            // hang on timing; from then on a frame lands in one of them.
            if i < WINDOW {
                assert!(!buffers.contains(&frame.as_ptr()), "frame {i} reused one");
                buffers.push(frame.as_ptr());
            } else {
                assert!(buffers.contains(&frame.as_ptr()), "frame {i} allocated");
            }
            // Every view gone (the frame, and a slice cut from it, as a
            // decoded payload would be) before the next frame arrives.
            let view = frame.slice(100..);
            drop(frame);
            drop(view);
        }
        assert!(matches!(frames.read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn a_live_view_keeps_its_buffer_and_the_reader_allocates() {
        let mut wire = Vec::new();
        for i in 0..3 * WINDOW {
            wire.extend_from_slice(&framed(&[i as u8 + 1; 64]));
        }
        let mut r = wire.as_slice();
        let mut frames = FrameReader::new();

        let first = frames.read_frame(&mut r).unwrap();
        // Only a slice of the first frame survives — a write run the
        // daemon has not applied yet, say.
        let held = first.slice(8..24);
        drop(first);
        let mut others = Vec::new();
        for _ in 1..WINDOW {
            others.push(frames.read_frame(&mut r).unwrap().as_ptr());
        }
        // Every later frame lands in one of the other buffers, in
        // whatever order the daemon finishes with them.
        for i in WINDOW..2 * WINDOW {
            let frame = frames.read_frame(&mut r).unwrap();
            assert!(others.contains(&frame.as_ptr()));
            assert_eq!(frame.as_ref(), &[i as u8 + 1; 64][..]);
            assert_eq!(held.as_ref(), &[1u8; 16][..], "a live view was overwritten");
        }
        // With all of them in use the reader allocates — and keeps no
        // handle on that frame: the set stays `WINDOW` buffers.
        let mut live: Vec<_> = (2 * WINDOW..3 * WINDOW)
            .map(|_| frames.read_frame(&mut r).unwrap())
            .collect();
        let extra = live.pop().unwrap();
        assert!(!others.contains(&extra.as_ptr()));
        assert_ne!(extra.as_ptr(), held.as_ptr().wrapping_sub(8));
        assert_eq!(extra.try_into_mut().map(|b| b.len()), Ok(64));
        assert_eq!(held.as_ref(), &[1u8; 16][..]);
    }

    #[test]
    fn a_frame_longer_than_the_spare_gets_a_buffer_of_its_own() {
        let mut wire = Vec::new();
        for _ in 0..WINDOW {
            wire.extend_from_slice(&framed(&[1u8; 16]));
        }
        for _ in 0..WINDOW + 1 {
            wire.extend_from_slice(&framed(&[2u8; 4096]));
        }
        wire.extend_from_slice(&framed(&[3u8; 16]));
        let mut r = wire.as_slice();
        let mut frames = FrameReader::new();
        let mut short = Vec::new();
        for _ in 0..WINDOW {
            short.push(frames.read_frame(&mut r).unwrap().as_ptr());
        }
        // A window of longer frames in the air at once meets every one
        // of the short buffers: a window of allocations again, then reuse
        // — by short frames too.
        let window: Vec<_> = (0..WINDOW)
            .map(|_| frames.read_frame(&mut r).unwrap())
            .collect();
        let mut long: Vec<_> = window.iter().map(|frame| frame.as_ptr()).collect();
        assert!(window.iter().all(|frame| frame.as_ref() == [2u8; 4096]));
        long.dedup();
        assert!(long.len() == WINDOW && long.iter().all(|at| !short.contains(at)));
        drop(window);
        assert!(long.contains(&frames.read_frame(&mut r).unwrap().as_ptr()));
        let last = frames.read_frame(&mut r).unwrap();
        assert!(long.contains(&last.as_ptr()));
        assert_eq!(last.as_ref(), &[3u8; 16][..]);
    }

    #[test]
    fn an_oversized_spare_is_dropped_not_pinned() {
        let big = vec![7u8; MAX_SPARE_CAPACITY + 1];
        let mut wire = framed(&big);
        wire.extend_from_slice(&framed(&big[1..]));
        for _ in 0..WINDOW {
            wire.extend_from_slice(&framed(&[2u8; 8]));
        }
        let mut r = wire.as_slice();
        let mut frames = FrameReader::new();

        let first = frames.read_frame(&mut r).unwrap();
        assert_eq!(first.len(), big.len());
        // The reader kept no handle: the caller's is the only one, so
        // dropping the frame frees the 1 MiB right away.
        assert_eq!(first.try_into_mut().map(|b| b.len()), Ok(big.len()));
        // One byte less is exactly the cap, and is kept: once the set is
        // complete, a frame lands in it again (the one on top of the
        // others, newest first; with that one still in use, the next).
        let at_cap = frames.read_frame(&mut r).unwrap();
        let buffer = at_cap.as_ptr();
        drop(at_cap);
        let mut small = Vec::new();
        for _ in 1..WINDOW {
            small.push(frames.read_frame(&mut r).unwrap().as_ptr());
            assert!(!small.contains(&buffer));
        }
        let top = frames.read_frame(&mut r).unwrap();
        assert_eq!(Some(&top.as_ptr()), small.last());
        let wire = framed(&[3u8; 8]).repeat(WINDOW - 1);
        let mut r = wire.as_slice();
        let rest: Vec<_> = (1..WINDOW)
            .map(|_| frames.read_frame(&mut r).unwrap())
            .collect();
        assert_eq!(rest.last().map(|frame| frame.as_ptr()), Some(buffer));
    }

    /// A stream whose read timeout fires wherever the script says: each
    /// entry is a run of bytes delivered, then one `WouldBlock`.
    struct Stalling {
        data: Vec<u8>,
        pos: usize,
        runs: Vec<usize>,
        left_in_run: usize,
    }

    impl Read for Stalling {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.left_in_run == 0 {
                if self.runs.is_empty() {
                    self.left_in_run = usize::MAX;
                } else {
                    self.left_in_run = self.runs.remove(0);
                    return Err(io::ErrorKind::WouldBlock.into());
                }
            }
            let n = buf
                .len()
                .min(self.left_in_run)
                .min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            self.left_in_run -= n;
            Ok(n)
        }
    }

    #[test]
    fn a_read_timeout_anywhere_in_a_frame_loses_nothing() {
        let a: Vec<u8> = (0..200u8).collect();
        let b: Vec<u8> = (0..90u8).rev().collect();
        let mut wire = framed(&a);
        wire.extend_from_slice(&framed(&b));
        // Stall before the first byte, inside the prefix, on the
        // prefix/body boundary, inside the body, between the frames,
        // and inside the second frame's prefix and body.
        for runs in [
            vec![0, 2, 2, 50, 150, 1, 3, 40],
            vec![1; 40],
            vec![3, 201, 4, 90],
        ] {
            let mut r = Stalling {
                data: wire.clone(),
                pos: 0,
                runs,
                left_in_run: 0,
            };
            let mut frames = FrameReader::new();
            let mut got = Vec::new();
            let mut stalls = 0;
            while got.len() < 2 {
                match frames.read_frame(&mut r) {
                    Ok(frame) => got.push(frame),
                    Err(e) if e.is_timeout() => stalls += 1,
                    Err(e) => panic!("{e:?}"),
                }
            }
            assert_eq!((got[0].as_ref(), got[1].as_ref()), (&a[..], &b[..]));
            assert!(stalls >= 3 && !frames.mid_frame());
            assert!(matches!(frames.read_frame(&mut r), Err(FrameError::Closed)));
        }
    }

    #[test]
    fn queued_frames_leave_in_one_vectored_write_of_unchanged_bytes() {
        let frame = |i: u8, payload: usize| Frame {
            head: Bytes::from(vec![i; 20 + i as usize]),
            payload: Bytes::from(vec![!i; payload]),
        };
        let frames: Vec<Frame> = (0..2 * WINDOW as u8 + 1)
            .map(|i| frame(i, 64 * i as usize))
            .collect();
        let expected: Vec<u8> = frames
            .iter()
            .flat_map(|f| prefixed(&[&f.head[..], &f.payload[..]].concat()))
            .collect();
        let mut w = Dribble {
            out: Vec::new(),
            chunk: usize::MAX,
            calls: 0,
        };
        write_frames(&mut w, &frames[..WINDOW]).unwrap();
        assert_eq!(w.calls, 1, "a window of frames is one call");
        write_frames(&mut w, &frames[WINDOW..]).unwrap();
        assert_eq!(w.calls, 1 + 2, "and more than a window one call per window");
        assert_eq!(w.out, expected);
        // Short writes resume wherever they stopped, across frames.
        for chunk in [1, 7, 100] {
            let mut w = Dribble {
                out: Vec::new(),
                chunk,
                calls: 0,
            };
            write_frames(&mut w, &frames).unwrap();
            assert_eq!(w.out, expected, "chunk {chunk}");
        }
        // An oversized frame stops its batch before any of it is out.
        let huge = Frame {
            head: Bytes::from(vec![0u8; 20]),
            payload: Bytes::from(vec![0u8; MAX_WIRE_FRAME]),
        };
        let mut out = Vec::new();
        let err = write_frames(&mut out, &[frame(1, 8), huge]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty(), "nothing may hit the wire");
    }

    #[test]
    fn reused_buffer_survives_trickled_and_truncated_frames() {
        let a: Vec<u8> = (0..200u8).collect();
        let b: Vec<u8> = (0..90u8).rev().collect();
        let mut wire = framed(&a);
        wire.extend_from_slice(&framed(&b));
        let cut = wire.len() - 3;
        let mut frames = FrameReader::new();
        for chunk in [1, 3, 64] {
            let mut r = Trickle {
                data: wire[..cut].to_vec(),
                pos: 0,
                chunk,
            };
            assert_eq!(frames.read_frame(&mut r).unwrap().as_ref(), &a[..]);
            // The second frame dies three bytes short — into the reused
            // buffer — and the reader recovers on the next stream.
            assert!(matches!(frames.read_frame(&mut r), Err(FrameError::Io(_))));
        }
        assert_eq!(
            frames.read_frame(&mut wire.as_slice()).unwrap().as_ref(),
            &a[..]
        );
    }

    #[test]
    fn mid_frame_eof_is_io_error_not_closed() {
        let wire = framed(b"truncated in flight");
        let cut = &wire[..wire.len() - 3];
        assert!(matches!(read_frame(&mut &cut[..]), Err(FrameError::Io(_))));
    }
}
