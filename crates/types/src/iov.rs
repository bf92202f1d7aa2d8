//! The workspace's one vectored writer: slices laid end to end, written
//! from where they lie — a journal record's head, runs and checksum; a
//! frame's length prefix, head and payload; a write's share of the
//! caller's buffer.

use std::io::{self, IoSlice, Write};

/// How many slices one vectored write is handed: the head, the runs of a
/// full list request and the checksum of a journal record fit, and so
/// does a window of frames, so each is still one `writev`; more takes
/// several.
pub const IOV_BATCH: usize = 72;

/// Writes the slices pushed into it, in order, lined up in a fixed array
/// on the stack and written a batch at a time: one `write_vectored` a
/// batch when the writer takes it all, resumed from wherever a short
/// write stopped otherwise.
pub struct Writev<'p, W: Write> {
    out: W,
    batch: [IoSlice<'p>; IOV_BATCH],
    lined_up: usize,
}

impl<'p, W: Write> Writev<'p, W> {
    pub fn new(out: W) -> Writev<'p, W> {
        Writev {
            out,
            batch: [IoSlice::new(&[]); IOV_BATCH],
            lined_up: 0,
        }
    }

    /// Line `part` up behind the slices before it (a full batch is
    /// written first).
    pub fn push(&mut self, part: &'p [u8]) -> io::Result<()> {
        if part.is_empty() {
            return Ok(());
        }
        if self.lined_up == IOV_BATCH {
            self.write_batch()?;
        }
        self.batch[self.lined_up] = IoSlice::new(part);
        self.lined_up += 1;
        Ok(())
    }

    /// Write what is lined up.
    pub fn finish(mut self) -> io::Result<()> {
        self.write_batch()
    }

    fn write_batch(&mut self) -> io::Result<()> {
        let mut parts = &mut self.batch[..self.lined_up];
        self.lined_up = 0;
        while !parts.is_empty() {
            match self.out.write_vectored(parts) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut parts, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Write every byte of `parts`, in order, through a [`Writev`].
pub fn write_parts<'p>(
    out: impl Write,
    parts: impl IntoIterator<Item = &'p [u8]>,
) -> io::Result<()> {
    let mut out = Writev::new(out);
    parts.into_iter().try_for_each(|part| out.push(part))?;
    out.finish()
}
