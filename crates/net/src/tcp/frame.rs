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
//! `TCP_NODELAY`, a segment) of its own, and a reply whose bulk payload
//! already sits in its own buffer is never staged behind its head in a
//! second one.
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

use bytes::Bytes;
use pvfs_proto::MAX_WIRE_FRAME;
use pvfs_types::PvfsError;
use std::io::{self, IoSlice, Read, Write};

/// Bytes of framing overhead per frame (the length prefix).
pub const LEN_PREFIX: usize = 4;

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
    let len = head.len() + tail.len();
    if len > MAX_WIRE_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("refusing to send a {len}-byte frame (cap {MAX_WIRE_FRAME})"),
        ));
    }
    let prefix = (len as u32).to_le_bytes();
    let parts = [&prefix[..], head, tail];
    let total = LEN_PREFIX + len;
    let mut sent = 0;
    while sent < total {
        // The unsent remainder: drop whole parts already written, cut
        // into the one a short write stopped in.
        let mut skip = sent;
        let mut bufs = [IoSlice::new(&[]); 3];
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

/// A spare receive buffer with more capacity than this is dropped, not
/// kept: one 32 MiB sieving reply must not pin that much memory for the
/// life of a connection.
pub const MAX_SPARE_CAPACITY: usize = 1 << 20;

/// The receiving end of one connection: reads length-prefixed frames,
/// each into the buffer the previous one arrived in whenever that buffer
/// is free again.
///
/// The reader keeps a handle on the last frame it handed out and, when
/// the *next* frame's prefix has arrived, takes the buffer back
/// ([`Bytes::try_reclaim`]) — which succeeds exactly when every view of
/// the old frame (the frame itself, a decoded payload slice, the
/// daemon's write runs) has been dropped. On a request/reply connection
/// that is always the case by then: the peer only sends again after it
/// has our answer to the last frame. If something does still hold a
/// view, the reader simply allocates, as a one-shot [`read_frame`]
/// does; a buffer a live `Bytes` points into is never written.
#[derive(Debug, Default)]
pub struct FrameReader {
    last: Option<Bytes>,
}

impl FrameReader {
    /// A reader with no spare buffer yet.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Read one length-prefixed frame, surviving arbitrary short reads.
    /// Blocking: the caller controls deadlines via socket read timeouts
    /// (client pool) or by shutting the socket down (server teardown).
    pub fn read_frame(&mut self, r: &mut impl Read) -> Result<Bytes, FrameError> {
        let mut prefix = [0u8; LEN_PREFIX];
        read_exact_or_closed(r, &mut prefix)?;
        let len = u32::from_le_bytes(prefix) as usize;
        if len > MAX_WIRE_FRAME {
            return Err(FrameError::TooLarge(PvfsError::FrameTooLarge {
                len: len as u64,
                max: MAX_WIRE_FRAME as u64,
            }));
        }
        let mut body = match self.last.take().map(Bytes::try_reclaim) {
            Some(Ok(mut spare)) if spare.capacity() >= len => {
                spare.clear();
                spare
            }
            _ => Vec::with_capacity(len),
        };
        // Appending through `take` fills the vector's spare capacity as
        // is: a reused buffer is not zeroed again before it is
        // overwritten.
        let got = r
            .by_ref()
            .take(len as u64)
            .read_to_end(&mut body)
            .map_err(FrameError::Io)?;
        if got < len {
            return Err(FrameError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer died mid-frame",
            )));
        }
        let keep = body.capacity() <= MAX_SPARE_CAPACITY;
        let frame = Bytes::from(body);
        if keep {
            self.last = Some(frame.clone());
        }
        Ok(frame)
    }
}

/// Read one length-prefixed frame: a [`FrameReader`] used once.
pub fn read_frame(r: &mut impl Read) -> Result<Bytes, FrameError> {
    FrameReader::new().read_frame(r)
}

/// `read_exact`, but a clean EOF before the first byte is
/// [`FrameError::Closed`] (the peer hung up between frames) while an
/// EOF mid-buffer is an I/O error (the peer died mid-frame).
fn read_exact_or_closed(r: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer died mid-frame",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
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
        let mut wire = framed(&[1u8; 300]);
        wire.extend_from_slice(&framed(&[2u8; 200]));
        wire.extend_from_slice(&framed(&[3u8; 300]));
        let mut r = wire.as_slice();
        let mut frames = FrameReader::new();

        let first = frames.read_frame(&mut r).unwrap();
        let buffer = first.as_ptr();
        assert_eq!(first.as_ref(), &[1u8; 300][..]);
        // Every view gone (the frame, and a slice cut from it, as a
        // decoded payload would be) before the next frame arrives.
        let view = first.slice(100..);
        drop(first);
        drop(view);

        // Shorter and equal-length frames land in the same allocation.
        let second = frames.read_frame(&mut r).unwrap();
        assert_eq!(second.as_ptr(), buffer, "spare buffer not reused");
        assert_eq!(second.as_ref(), &[2u8; 200][..]);
        drop(second);
        let third = frames.read_frame(&mut r).unwrap();
        assert_eq!(third.as_ptr(), buffer);
        assert_eq!(third.as_ref(), &[3u8; 300][..]);
        assert!(matches!(frames.read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn a_live_view_keeps_its_buffer_and_the_reader_allocates() {
        let mut wire = framed(&[1u8; 64]);
        wire.extend_from_slice(&framed(&[2u8; 64]));
        wire.extend_from_slice(&framed(&[3u8; 64]));
        let mut r = wire.as_slice();
        let mut frames = FrameReader::new();

        let first = frames.read_frame(&mut r).unwrap();
        // Only a slice of the first frame survives — a write run the
        // daemon has not applied yet, say.
        let held = first.slice(8..24);
        drop(first);
        let second = frames.read_frame(&mut r).unwrap();
        assert_ne!(second.as_ptr(), held.as_ptr().wrapping_sub(8));
        assert_eq!(held.as_ref(), &[1u8; 16][..], "a live view was overwritten");
        assert_eq!(second.as_ref(), &[2u8; 64][..]);

        // The reader follows the newest frame: once *it* is free, the
        // third lands in the second's buffer; the held slice is still
        // untouched.
        let buffer = second.as_ptr();
        drop(second);
        let third = frames.read_frame(&mut r).unwrap();
        assert_eq!(third.as_ptr(), buffer);
        assert_eq!(held.as_ref(), &[1u8; 16][..]);
    }

    #[test]
    fn a_frame_longer_than_the_spare_gets_a_buffer_of_its_own() {
        let mut wire = framed(&[1u8; 16]);
        wire.extend_from_slice(&framed(&[2u8; 4096]));
        let mut r = wire.as_slice();
        let mut frames = FrameReader::new();
        drop(frames.read_frame(&mut r).unwrap());
        assert_eq!(
            frames.read_frame(&mut r).unwrap().as_ref(),
            &[2u8; 4096][..]
        );
    }

    #[test]
    fn an_oversized_spare_is_dropped_not_pinned() {
        let big = vec![7u8; MAX_SPARE_CAPACITY + 1];
        let mut wire = framed(&big);
        wire.extend_from_slice(&framed(&big[1..]));
        wire.extend_from_slice(&framed(&[2u8; 8]));
        let mut r = wire.as_slice();
        let mut frames = FrameReader::new();

        let first = frames.read_frame(&mut r).unwrap();
        assert_eq!(first.len(), big.len());
        // The reader kept no handle: the caller's is the only one, so
        // dropping the frame frees the 1 MiB right away.
        assert_eq!(first.try_reclaim().map(|v| v.len()), Ok(big.len()));
        // One byte less is exactly the cap, and is kept.
        let at_cap = frames.read_frame(&mut r).unwrap();
        let buffer = at_cap.as_ptr();
        drop(at_cap);
        assert_eq!(frames.read_frame(&mut r).unwrap().as_ptr(), buffer);
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
