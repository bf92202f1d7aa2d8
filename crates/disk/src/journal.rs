//! Write-ahead intent journal for the durable file backend.
//!
//! Before a [`FileStore`](crate::FileStore) touches its data file, the
//! whole write batch (every local run of one noncontiguous list write)
//! is appended to the journal as a single intent record whose trailing
//! checksum doubles as the commit marker. Recovery reads the journal
//! front to back, replays every record whose checksum verifies, and
//! discards the torn tail: a record the crash cut short was never
//! committed, so its batch simply never happened — all-or-nothing
//! without undo logging.
//!
//! # Record format (little-endian)
//!
//! ```text
//! magic (4) | kind (1) | seq (8) | body | checksum (8)
//!
//! kind 1 = write batch:  count (4) | count × (offset 8, len 8) | payloads
//! kind 2 = truncate:     size (8)
//!
//! magic "PVJ2" = v2: the word-at-a-time checksum of `crate::checksum`
//! magic "PVJR" = v1: FNV-1a 64, one byte per multiply
//! ```
//!
//! The checksum covers everything before it (magic included). The magic
//! — four bytes a v1 record has too — says which function closes the
//! record, so the version is read per record and the two formats are
//! the same length. The writer emits v2 only. The reader still verifies
//! v1: a journal is whatever the daemon that crashed left behind, and
//! that may have been an older build. Its records replay, in order,
//! ahead of any v2 records appended behind them, and its torn tail is
//! discarded the same way; `fnv1a64` survives for that check and
//! nothing else.
//!
//! Truncates are journaled too: replay applies records in
//! order, so a truncate followed by new writes recovers exactly —
//! without it, replaying an older write record could resurrect
//! truncated bytes past the logical tail.
//!
//! After replay (or whenever the journal grows past its checkpoint
//! thresholds) the store *checkpoints*: fsync the data file, then
//! truncate the journal to zero. The journal is the durability
//! authority between checkpoints; the data file is authoritative after.
//!
//! The store opens the file for appending and [`Journal::open`] cuts a
//! torn tail off, so every record lands directly behind the last committed
//! one — at offset 0 after a checkpoint. Recovery stops at the first
//! byte that is not a record; a record written anywhere else (past a
//! hole a checkpoint left, behind a torn tail) would never replay.
//!
//! A record is never assembled in memory: one routine builds its head
//! (everything up to the payloads) in a buffer the journal keeps,
//! streams the checksum over the head and then the caller's runs where
//! they lie, and appends `head ‖ runs ‖ checksum` with vectored writes
//! whose slices are lined up on the stack — an append allocates nothing. An append that fails
//! part-way is cut back off the file before the error is returned, for
//! the same reason `open` cuts a torn tail; if even that fails the
//! journal refuses every later append ([`Journal::is_torn`]).

use crate::checksum::{checksum, Checksum};
use pvfs_types::iov::write_parts;
use std::fs::File;
use std::io::{self, Write};
use std::os::unix::fs::FileExt;

/// Leading magic of every record the writer emits (format v2).
pub const RECORD_MAGIC: [u8; 4] = *b"PVJ2";

/// Leading magic of a v1 record: FNV-1a where v2 has [`checksum`].
const RECORD_MAGIC_V1: [u8; 4] = *b"PVJR";

const KIND_WRITE_BATCH: u8 = 1;
const KIND_TRUNCATE: u8 = 2;

/// Bytes of a record around its body: magic, kind, seq, checksum.
const RECORD_OVERHEAD: usize = 4 + 1 + 8 + 8;

/// One committed intent, its payloads borrowed from the bytes
/// [`Journal::open`] read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord<'r> {
    /// Apply every `(offset, payload)` run to the data file.
    WriteBatch {
        /// Monotonic record sequence number.
        seq: u64,
        /// The batch's runs, in application order.
        runs: Vec<(u64, &'r [u8])>,
    },
    /// Truncate the data file to `size` bytes.
    Truncate {
        /// Monotonic record sequence number.
        seq: u64,
        /// New file size.
        size: u64,
    },
}

impl JournalRecord<'_> {
    /// The record's sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            JournalRecord::WriteBatch { seq, .. } => *seq,
            JournalRecord::Truncate { seq, .. } => *seq,
        }
    }
}

/// FNV-1a 64, the checksum of a v1 record: kept to verify the records
/// an older daemon left behind, and for nothing else.
fn fnv1a64(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The little-endian `u64` at `bytes[at..at + 8]`, if `bytes` is that long.
fn u64_at(bytes: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(*bytes.get(at..)?.first_chunk()?))
}

/// Parse one record, of either version, from `buf[pos..]`. `None` means
/// the tail is torn or corrupt (recovery stops there); `Some(...)`
/// yields the record and the position just past it.
fn parse_record(buf: &[u8], pos: usize) -> Option<(JournalRecord<'_>, usize)> {
    let rest = &buf[pos..];
    let sum_of: fn(&[u8]) -> u64 = match *rest.first_chunk()? {
        RECORD_MAGIC => checksum,
        RECORD_MAGIC_V1 => fnv1a64,
        _ => return None,
    };
    let kind = *rest.get(4)?;
    let seq = u64_at(rest, 5)?;
    let (record, body_end) = match kind {
        KIND_WRITE_BATCH => {
            let count = u32::from_le_bytes(*rest.get(13..)?.first_chunk()?) as usize;
            // Bound the header against what's actually on disk before
            // allocating anything.
            let mut at = 17usize.checked_add(count.checked_mul(16)?)?;
            let table = rest.get(17..at)?;
            let mut runs = Vec::with_capacity(count);
            for entry in table.chunks_exact(16) {
                let len = usize::try_from(u64_at(entry, 8)?).ok()?;
                let end = at.checked_add(len)?;
                runs.push((u64_at(entry, 0)?, rest.get(at..end)?));
                at = end;
            }
            (JournalRecord::WriteBatch { seq, runs }, at)
        }
        KIND_TRUNCATE => {
            let size = u64_at(rest, 13)?;
            (JournalRecord::Truncate { seq, size }, 21)
        }
        _ => return None,
    };
    if sum_of(rest.get(..body_end)?) != u64_at(rest, body_end)? {
        return None;
    }
    Some((record, pos + body_end + 8))
}

/// One of a [`FileStore`](crate::FileStore)'s two files, its data file
/// or its journal, as the store uses it: positional reads and writes,
/// appends (`Write`; the journal's file is opened for appending),
/// `set_len`, `sync_data` and `size`. A `File` in production; the tests
/// substitute one that fails part-way, and a model disk that loses what
/// no `sync_data` covered.
pub trait StoreFile: Write {
    /// Fill `buf` from `offset`; bytes past the end read as zeros.
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;
    /// Write all of `buf` at `offset`.
    fn write_at(&mut self, buf: &[u8], offset: u64) -> io::Result<()>;
    /// Cut or extend the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Make every byte written so far durable.
    fn sync_data(&mut self) -> io::Result<()>;
    /// The file's length in bytes.
    fn size(&self) -> io::Result<u64>;
}

impl StoreFile for File {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let mut pos = 0;
        while pos < buf.len() {
            match FileExt::read_at(self, &mut buf[pos..], offset + pos as u64) {
                Ok(0) => break,
                Ok(n) => pos += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        buf[pos..].fill(0);
        Ok(())
    }

    fn write_at(&mut self, buf: &[u8], offset: u64) -> io::Result<()> {
        FileExt::write_all_at(self, buf, offset)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        File::set_len(self, len)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        File::sync_data(self)
    }

    fn size(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }
}

/// The on-disk journal of one [`FileStore`](crate::FileStore).
#[derive(Debug)]
pub struct Journal<F = File> {
    file: F,
    /// Records committed since the last checkpoint.
    depth: u64,
    /// Bytes appended since the last checkpoint (== the file's length
    /// while the journal is not torn).
    bytes: u64,
    /// Next record sequence number.
    next_seq: u64,
    /// Bytes sit behind the last committed record, a failed append that
    /// could not be cut off: nothing appended now would replay.
    torn: bool,
    /// Where each record's head is put together: one buffer for the
    /// journal's life (it has one writer, behind the store's lock).
    head: Vec<u8>,
}

impl<F: StoreFile> Journal<F> {
    /// Take over the journal in `file`, returning it together with every
    /// committed record found — the valid prefix; a torn or corrupt tail
    /// is cut off. The file is read into `raw`, once, and the records
    /// borrow their payloads from it.
    pub fn open(
        mut file: F,
        raw: &mut Vec<u8>,
    ) -> io::Result<(Journal<F>, Vec<JournalRecord<'_>>)> {
        raw.clear();
        raw.resize(file.size()? as usize, 0);
        file.read_at(raw, 0)?;
        let raw = &raw[..];
        let mut records = Vec::new();
        let mut pos = 0usize;
        while let Some((record, next)) = parse_record(raw, pos) {
            records.push(record);
            pos = next;
        }
        if pos < raw.len() {
            // Cut the torn tail off now: a record appended behind it
            // would sit where no recovery ever reads.
            file.set_len(pos as u64)?;
        }
        let next_seq = records.last().map(|r| r.seq() + 1).unwrap_or(0);
        Ok((
            Journal {
                file,
                depth: records.len() as u64,
                bytes: pos as u64,
                next_seq,
                torn: false,
                head: Vec::new(),
            },
            records,
        ))
    }

    /// Fsync the journal file (the commit barrier).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Drop every record: called once the data file itself has been
    /// fsynced, making the journal's contents redundant. The next
    /// append starts the file over at offset 0.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.sync_data()?;
        self.depth = 0;
        self.bytes = 0;
        self.torn = false;
        Ok(())
    }

    /// Start the next record (consuming its sequence number) in the
    /// journal's head buffer, taken out of it for the caller to finish
    /// and hand to [`append`](Self::append): magic, kind, sequence
    /// number, and room for `more` bytes of head.
    fn begin(&mut self, kind: u8, more: usize) -> Vec<u8> {
        let mut head = std::mem::take(&mut self.head);
        head.clear();
        head.reserve(RECORD_OVERHEAD - 8 + more);
        head.extend_from_slice(&RECORD_MAGIC);
        head.push(kind);
        head.extend_from_slice(&self.next_seq.to_le_bytes());
        self.next_seq += 1;
        head
    }

    /// The one routine that writes a record: `head ‖ payloads ‖
    /// checksum`, the payloads going to the file from where the caller
    /// holds them. Returns the record's length; it is committed once
    /// this returns (and durable once [`Journal::sync`] has). The head
    /// buffer goes back to the journal.
    ///
    /// On an error the bytes that did land are cut back off, so the next
    /// append still sits directly behind the last committed record.
    fn append<'d>(
        &mut self,
        head: Vec<u8>,
        payloads: impl Iterator<Item = &'d [u8]> + Clone,
    ) -> io::Result<u64> {
        let appended = self.append_parts(&head, payloads);
        self.head = head;
        appended
    }

    fn append_parts<'d>(
        &mut self,
        head: &[u8],
        payloads: impl Iterator<Item = &'d [u8]> + Clone,
    ) -> io::Result<u64> {
        if self.torn {
            return Err(io::Error::other(
                "journal has a torn tail that could not be cut off",
            ));
        }
        let mut sum = Checksum::new();
        sum.update(head);
        let mut len = head.len() + 8;
        for data in payloads.clone() {
            sum.update(data);
            len += data.len();
        }
        let sum = sum.finish().to_le_bytes();
        // (The identity map shortens the payloads' lifetime to the
        // head's and the checksum's.)
        let payloads = payloads.map(|data| -> &[u8] { data });
        let parts = std::iter::once(head).chain(payloads).chain([&sum[..]]);
        if let Err(e) = write_parts(&mut self.file, parts) {
            self.torn = self.file.set_len(self.bytes).is_err();
            return Err(e);
        }
        self.depth += 1;
        self.bytes += len as u64;
        Ok(len as u64)
    }

    /// Commit one write batch — every `(offset, payload)` run of it, in
    /// application order — as a single record; returns its length.
    pub fn append_write_batch<'d>(
        &mut self,
        runs: impl Iterator<Item = (u64, &'d [u8])> + Clone,
    ) -> io::Result<u64> {
        let count = runs.clone().count();
        let mut head = self.begin(KIND_WRITE_BATCH, 4 + 16 * count);
        head.extend_from_slice(&(count as u32).to_le_bytes());
        for (offset, data) in runs.clone() {
            head.extend_from_slice(&offset.to_le_bytes());
            head.extend_from_slice(&(data.len() as u64).to_le_bytes());
        }
        self.append(head, runs.map(|(_, data)| data))
    }

    /// Commit a truncate of the data file to `size` bytes; returns the
    /// record's length.
    pub fn append_truncate(&mut self, size: u64) -> io::Result<u64> {
        let mut head = self.begin(KIND_TRUNCATE, 8);
        head.extend_from_slice(&size.to_le_bytes());
        self.append(head, std::iter::empty())
    }
}

impl<F> Journal<F> {
    /// True once a failed append could not be cut back off the file: the
    /// journal accepts nothing more until it is reopened, or
    /// checkpointed to empty.
    pub fn is_torn(&self) -> bool {
        self.torn
    }

    /// Records committed since the last checkpoint.
    pub fn depth(&self) -> u64 {
        self.depth
    }

    /// Bytes appended since the last checkpoint.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
/// Journals as they lie on disk, byte for byte: the same three records
/// — a three-run batch with an empty run, a truncate, a one-run batch —
/// from the last v1 writer (commit 28762a7) and from this one.
pub(crate) mod fixtures {
    pub(crate) const V1: &str = "\
        50564a5201000000000000000003000000000000000000000004000000000000\
        0040000000000000000000000000000000001000000000000006000000000000\
        006c697374777269746521e9a37cf21cb29359\
        50564a520201000000000000000210000000000000600542a49b7271d0\
        50564a5201020000000000000001000000070000000000000002000000000000\
        007879f363440d9a06b5b2";
    pub(crate) const V2: &str = "\
        50564a3201000000000000000003000000000000000000000004000000000000\
        0040000000000000000000000000000000001000000000000006000000000000\
        006c697374777269746521820c71ee381b2aad\
        50564a32020100000000000000021000000000000026a481918c8545b1\
        50564a3201020000000000000001000000070000000000000002000000000000\
        007879b256a8cae8efee2c";

    pub(crate) fn bytes(hex: &str) -> Vec<u8> {
        assert!(hex.len().is_multiple_of(2), "odd hex literal");
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }
}

#[cfg(test)]
/// A file that fails part-way: a test double for either of a store's
/// files.
pub(crate) mod flaky {
    use super::StoreFile;
    use std::fs::File;
    use std::io::{self, Write};

    /// A real file that takes `budget` more appended bytes and then fails
    /// every append (ENOSPC, as it were), takes `writes_at` more
    /// positional writes and then fails those, and optionally cannot be
    /// cut back.
    #[derive(Debug)]
    pub(crate) struct Flaky {
        pub(crate) file: File,
        pub(crate) budget: usize,
        pub(crate) writes_at: usize,
        pub(crate) cut_fails: bool,
    }

    impl Flaky {
        /// `file`, failing nothing yet.
        pub(crate) fn new(file: File) -> Flaky {
            Flaky {
                file,
                budget: usize::MAX,
                writes_at: usize::MAX,
                cut_fails: false,
            }
        }
    }

    impl Write for Flaky {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(io::Error::other("injected: no space left on device"));
            }
            // Short on purpose: at most 7 bytes a call, so an append
            // also has to resume mid-slice.
            let n = buf.len().min(self.budget).min(7);
            self.budget -= n;
            self.file.write(&buf[..n])
        }

        fn flush(&mut self) -> io::Result<()> {
            self.file.flush()
        }
    }

    impl StoreFile for Flaky {
        fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
            self.file.read_at(buf, offset)
        }

        fn write_at(&mut self, buf: &[u8], offset: u64) -> io::Result<()> {
            if self.writes_at == 0 {
                return Err(io::Error::other("injected: I/O error"));
            }
            self.writes_at -= 1;
            self.file.write_at(buf, offset)
        }

        fn set_len(&mut self, len: u64) -> io::Result<()> {
            if self.cut_fails {
                return Err(io::Error::other("injected: cannot truncate"));
            }
            StoreFile::set_len(&mut self.file, len)
        }

        fn sync_data(&mut self) -> io::Result<()> {
            StoreFile::sync_data(&mut self.file)
        }

        fn size(&self) -> io::Result<u64> {
            StoreFile::size(&self.file)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::flaky::Flaky;
    use super::*;
    use crate::scratch::ScratchDir;
    use std::path::Path;

    /// Length of the record that commits `runs` as one write batch.
    fn write_batch_record_len<'d>(runs: impl Iterator<Item = (u64, &'d [u8])>) -> usize {
        runs.fold(RECORD_OVERHEAD + 4, |len, (_, data)| len + 16 + data.len())
    }

    /// The contiguous encoding the journal used to build in memory
    /// before appending it in one write — the reference the vectored
    /// append's file bytes are held to — in the format `magic` names.
    fn reference_record(
        magic: [u8; 4],
        kind: u8,
        seq: u64,
        body: impl FnOnce(&mut Vec<u8>),
    ) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&magic);
        buf.push(kind);
        buf.extend_from_slice(&seq.to_le_bytes());
        body(&mut buf);
        let sum = match magic {
            RECORD_MAGIC => checksum(&buf),
            _ => fnv1a64(&buf),
        };
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }

    fn reference_write_batch(magic: [u8; 4], seq: u64, runs: &[(u64, &[u8])]) -> Vec<u8> {
        reference_record(magic, KIND_WRITE_BATCH, seq, |buf| {
            buf.extend_from_slice(&(runs.len() as u32).to_le_bytes());
            for (offset, data) in runs {
                buf.extend_from_slice(&offset.to_le_bytes());
                buf.extend_from_slice(&(data.len() as u64).to_le_bytes());
            }
            for (_, data) in runs {
                buf.extend_from_slice(data);
            }
        })
    }

    fn reference_truncate(magic: [u8; 4], seq: u64, size: u64) -> Vec<u8> {
        reference_record(magic, KIND_TRUNCATE, seq, |buf| {
            buf.extend_from_slice(&size.to_le_bytes())
        })
    }

    /// The journal file at `path`, as the store opens it: for appending.
    fn append_file(path: &Path) -> File {
        std::fs::OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)
            .unwrap()
    }

    /// Open the journal at `path`, reading it into `raw`.
    fn open<'r>(
        path: &Path,
        raw: &'r mut Vec<u8>,
    ) -> io::Result<(Journal, Vec<JournalRecord<'r>>)> {
        Journal::open(append_file(path), raw)
    }

    /// The journal at `path`, open for appending; what it replays is the
    /// caller's to check elsewhere.
    fn writer(path: &Path) -> Journal {
        open(path, &mut Vec::new()).unwrap().0
    }

    /// Commit a write batch; returns its encoding and the record replay
    /// must hand back for it.
    fn append_batch<'d, F: StoreFile>(
        j: &mut Journal<F>,
        runs: &[(u64, &'d [u8])],
    ) -> (Vec<u8>, JournalRecord<'d>) {
        let seq = j.next_seq;
        let encoded = reference_write_batch(RECORD_MAGIC, seq, runs);
        assert_eq!(
            j.append_write_batch(runs.iter().copied()).unwrap(),
            encoded.len() as u64
        );
        let runs = runs.to_vec();
        (encoded, JournalRecord::WriteBatch { seq, runs })
    }

    /// The three records both fixtures hold.
    fn fixture_records() -> Vec<JournalRecord<'static>> {
        vec![
            JournalRecord::WriteBatch {
                seq: 0,
                runs: vec![(0, b"list"), (64, b""), (4096, b"write!")],
            },
            JournalRecord::Truncate { seq: 1, size: 4098 },
            JournalRecord::WriteBatch {
                seq: 2,
                runs: vec![(7, b"xy")],
            },
        ]
    }

    #[test]
    fn roundtrip_records_through_a_file() {
        let dir = ScratchDir::new("journal-roundtrip");
        let path = dir.path().join("j");
        let mut raw = Vec::new();
        let (mut j, replay) = open(&path, &mut raw).unwrap();
        assert!(replay.is_empty());
        let (_, a) = append_batch(&mut j, &[(0, b"abc"), (100, b"defg")]);
        j.append_truncate(50).unwrap();
        let b = JournalRecord::Truncate { seq: 1, size: 50 };
        let (_, c) = append_batch(&mut j, &[(7, b"xy")]);
        assert_eq!(j.depth(), 3);
        j.sync().unwrap();
        drop(j);
        let (j2, replay) = open(&path, &mut raw).unwrap();
        assert_eq!(replay, vec![a, b, c]);
        assert_eq!(j2.depth(), 3);
    }

    #[test]
    fn the_writer_reproduces_the_v2_fixture_byte_for_byte() {
        let dir = ScratchDir::new("journal-v2-fixture");
        let path = dir.path().join("j");
        let mut j = writer(&path);
        for record in fixture_records() {
            match record {
                JournalRecord::WriteBatch { runs, .. } => {
                    j.append_write_batch(runs.into_iter()).unwrap()
                }
                JournalRecord::Truncate { size, .. } => j.append_truncate(size).unwrap(),
            };
        }
        drop(j);
        assert!(
            std::fs::read(&path).unwrap() == fixtures::bytes(fixtures::V2),
            "journal bytes differ"
        );
        let mut raw = Vec::new();
        let (_, replay) = open(&path, &mut raw).unwrap();
        assert_eq!(replay, fixture_records());
    }

    #[test]
    fn a_v1_journal_replays_and_v2_records_appended_behind_it_replay_after() {
        // What a daemon of the previous format left behind when it
        // crashed: every record of it replays, and a journal that holds
        // both formats (this writer appended before any checkpoint)
        // replays all of them in order.
        let dir = ScratchDir::new("journal-v1-fixture");
        let path = dir.path().join("j");
        let v1 = fixtures::bytes(fixtures::V1);
        std::fs::write(&path, &v1).unwrap();
        let mut raw = Vec::new();
        let (mut j, replay) = open(&path, &mut raw).unwrap();
        assert_eq!(replay, fixture_records());
        assert_eq!((j.depth(), j.bytes()), (3, v1.len() as u64));
        let (encoded, appended) = append_batch(&mut j, &[(9, b"second format")]);
        assert_eq!(appended.seq(), 3);
        assert_eq!(encoded[..4], RECORD_MAGIC);
        j.append_truncate(5).unwrap();
        drop(j);
        let mut mixed = v1;
        mixed.extend(encoded);
        mixed.extend(reference_truncate(RECORD_MAGIC, 4, 5));
        assert!(
            std::fs::read(&path).unwrap() == mixed,
            "journal bytes differ"
        );
        let mut raw = Vec::new();
        let (j, replay) = open(&path, &mut raw).unwrap();
        let mut want = fixture_records();
        want.extend([appended, JournalRecord::Truncate { seq: 4, size: 5 }]);
        assert_eq!(replay, want);
        assert_eq!(j.depth(), 5);
    }

    #[test]
    fn vectored_records_are_byte_identical_to_the_contiguous_encoding() {
        let dir = ScratchDir::new("journal-golden");
        let path = dir.path().join("j");
        let mut j = writer(&path);
        // More runs than one `writev` takes (IOV_MAX is 1024), an empty
        // run among them, and a batch of none.
        let payload: Vec<u8> = (0..5000u32).map(|i| (i * 7) as u8).collect();
        let many: Vec<(u64, &[u8])> = payload
            .chunks(3)
            .enumerate()
            .map(|(i, c)| (i as u64 * 10, c))
            .collect();
        assert!(many.len() > 1024);
        let batches: [&[(u64, &[u8])]; 4] = [
            &[(0, &[1u8; 100]), (4096, &[2u8; 28])],
            &many,
            &[(8, b""), (9, b"x")],
            &[],
        ];
        let mut want = Vec::new();
        for (seq, runs) in batches.into_iter().enumerate() {
            let len = j.append_write_batch(runs.iter().copied()).unwrap();
            assert_eq!(len as usize, write_batch_record_len(runs.iter().copied()));
            want.extend(reference_write_batch(RECORD_MAGIC, seq as u64, runs));
        }
        assert_eq!(j.append_truncate(9).unwrap() as usize, RECORD_OVERHEAD + 8);
        want.extend(reference_truncate(RECORD_MAGIC, 4, 9));
        assert_eq!(j.bytes(), want.len() as u64);
        assert_eq!(j.depth(), 5);
        drop(j);
        assert!(
            std::fs::read(&path).unwrap() == want,
            "journal bytes differ"
        );
        let mut raw = Vec::new();
        let (_, replay) = open(&path, &mut raw).unwrap();
        assert_eq!(replay.len(), 5);
    }

    #[test]
    fn every_proper_prefix_of_a_record_is_discarded_at_open() {
        // Every write boundary of an append: whatever prefix of the
        // record a crash leaves — cut inside the head, inside either
        // run, inside the checksum — commits nothing, and the record
        // before it still replays. In both formats, each tail laid down
        // as the bytes its writer made: the reference encoder's, which
        // this writer reproduces.
        let dir = ScratchDir::new("journal-prefixes");
        let runs: [(u64, &[u8]); 2] = [(64, &[0xAA; 19]), (4096, b"second run")];
        let len = write_batch_record_len(runs.iter().copied());
        let committed = JournalRecord::WriteBatch {
            seq: 0,
            runs: vec![(0, b"committed")],
        };
        let mut raw = Vec::new();
        for magic in [RECORD_MAGIC, RECORD_MAGIC_V1] {
            let first = reference_write_batch(magic, 0, &[(0, b"committed")]);
            let lost = reference_write_batch(magic, 1, &runs);
            assert_eq!(lost.len(), len);
            if magic == RECORD_MAGIC {
                let path = dir.path().join("whole");
                let mut j = writer(&path);
                assert_eq!(append_batch(&mut j, &[(0, b"committed")]).0, first);
                assert_eq!(append_batch(&mut j, &runs).0, lost);
            }
            for keep in 0..len {
                let path = dir.path().join(format!("j{keep}"));
                std::fs::write(&path, [&first[..], &lost[..keep]].concat()).unwrap();
                let (j, replay) = open(&path, &mut raw).unwrap();
                assert_eq!(
                    replay,
                    std::slice::from_ref(&committed),
                    "prefix of {keep} bytes"
                );
                assert_eq!(j.bytes(), first.len() as u64);
                assert_eq!(std::fs::metadata(&path).unwrap().len(), j.bytes());
                std::fs::remove_file(&path).unwrap();
            }
        }
    }

    #[test]
    fn a_record_whose_tail_reads_back_as_zeros_does_not_verify() {
        // The other shape a torn append takes: the file grew to the
        // record's full length but the blocks behind byte `keep` never
        // reached the disk and read back as zeros — an all-zero payload
        // tail and an all-zero checksum among the cases. Nothing of it
        // may replay, in either format.
        let dir = ScratchDir::new("journal-zero-tail");
        let path = dir.path().join("j");
        let zeros = [0u8; 48];
        let runs: [(u64, &[u8]); 2] = [(64, &[0xAA; 19]), (4096, &zeros)];
        let mut raw = Vec::new();
        for magic in [RECORD_MAGIC, RECORD_MAGIC_V1] {
            let first = reference_write_batch(magic, 0, &[(0, b"committed")]);
            let lost = reference_write_batch(magic, 1, &runs);
            for keep in 0..lost.len() {
                let mut holed = [&first[..], &lost[..]].concat();
                holed[first.len() + keep..].fill(0);
                if holed[first.len()..] == lost[..] {
                    continue;
                }
                std::fs::write(&path, &holed).unwrap();
                let (j, replay) = open(&path, &mut raw).unwrap();
                assert_eq!(replay.len(), 1, "{keep} bytes, then zeros, replayed");
                assert_eq!(j.bytes(), first.len() as u64);
            }
        }
    }

    fn flaky_journal(path: &Path, budget: usize, cut_fails: bool) -> Journal<Flaky> {
        let file = Flaky {
            budget,
            cut_fails,
            ..Flaky::new(append_file(path))
        };
        let mut raw = Vec::new();
        let (j, replay) = Journal::open(file, &mut raw).unwrap();
        assert!(replay.is_empty());
        j
    }

    #[test]
    fn failed_append_is_cut_off_so_the_next_commit_replays() {
        // The bug: a `write_all` that failed part-way left its bytes at
        // the tail, and the next (successful) record landed behind them
        // — acknowledged, and gone at restart.
        let dir = ScratchDir::new("journal-failed-append");
        let lost: [(u64, &[u8]); 2] = [(0, &[0x11; 40]), (100, &[0x22; 40])];
        let head = 13 + 4 + 2 * 16;
        let mut raw = Vec::new();
        // Fail inside the head, inside the first run, inside the
        // second, inside the checksum, and before a single byte.
        for accepted in [0, 5, head + 3, head + 40 + 7, head + 80 + 2] {
            let path = dir.path().join(format!("j{accepted}"));
            let mut j = flaky_journal(&path, usize::MAX, false);
            let (first, a) = append_batch(&mut j, &[(7, b"before")]);
            j.file.budget = accepted;
            let err = j.append_write_batch(lost.iter().copied()).unwrap_err();
            assert!(err.to_string().contains("no space left"), "{err}");
            assert_eq!((j.depth(), j.bytes()), (1, first.len() as u64));
            assert!(!j.is_torn());
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                first.len() as u64,
                "{accepted} bytes of the failed record were left behind"
            );
            j.file.budget = usize::MAX;
            let (_, b) = append_batch(&mut j, &[(9, b"after the failure")]);
            assert_eq!(j.depth(), 2);
            drop(j);
            let (_, replay) = open(&path, &mut raw).unwrap();
            assert_eq!(replay, vec![a, b], "failed after {accepted} bytes");
        }
    }

    #[test]
    fn a_tail_that_cannot_be_cut_off_refuses_later_appends() {
        let dir = ScratchDir::new("journal-stuck-tail");
        let path = dir.path().join("j");
        let mut j = flaky_journal(&path, usize::MAX, true);
        let (_, a) = append_batch(&mut j, &[(7, b"before")]);
        j.file.budget = 20;
        j.append_write_batch([(0, &[0x11; 40][..])].into_iter())
            .unwrap_err();
        assert!(j.is_torn());
        // Space is back, but a record written now would sit behind the
        // torn bytes: refuse rather than acknowledge what cannot replay.
        j.file.budget = usize::MAX;
        let err = j
            .append_write_batch([(9, &b"after"[..])].into_iter())
            .unwrap_err();
        assert!(err.to_string().contains("torn tail"), "{err}");
        assert!(j.append_truncate(3).is_err());
        assert_eq!(j.depth(), 1);
        drop(j);
        let mut raw = Vec::new();
        let (_, replay) = open(&path, &mut raw).unwrap();
        assert_eq!(replay, vec![a]);
    }

    #[test]
    fn torn_tail_is_discarded_not_replayed() {
        let dir = ScratchDir::new("journal-torn");
        let path = dir.path().join("j");
        let first = reference_write_batch(RECORD_MAGIC, 0, &[(0, b"committed")]);
        let torn = reference_write_batch(RECORD_MAGIC, 1, &[(64, &[0xAA; 128])]);
        std::fs::write(&path, [&first[..], &torn[..40]].concat()).unwrap();
        let mut raw = Vec::new();
        let (j, replay) = open(&path, &mut raw).unwrap();
        let committed = JournalRecord::WriteBatch {
            seq: 0,
            runs: vec![(0, b"committed")],
        };
        assert_eq!(replay, vec![committed]);
        // The reopened journal only counts the valid prefix.
        assert_eq!(j.depth(), 1);
    }

    #[test]
    fn record_appended_behind_a_torn_tail_still_replays() {
        // Reopen cuts the torn bytes off; were they left in place, the
        // next record would land behind them, where recovery (which
        // stops at the first byte that is not a record) never looks.
        let dir = ScratchDir::new("journal-torn-then-append");
        let path = dir.path().join("j");
        let torn = reference_write_batch(RECORD_MAGIC, 0, &[(0, &[0xAA; 64])]);
        std::fs::write(&path, &torn[..30]).unwrap();
        let mut raw = Vec::new();
        let (mut j, replay) = open(&path, &mut raw).unwrap();
        assert!(replay.is_empty());
        let (encoded, after) = append_batch(&mut j, &[(8, b"after the tear")]);
        drop(j);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            encoded.len() as u64
        );
        let (_, replay) = open(&path, &mut raw).unwrap();
        assert_eq!(replay, vec![after]);
    }

    #[test]
    fn corrupt_byte_invalidates_only_the_tail() {
        let dir = ScratchDir::new("journal-corrupt");
        let path = dir.path().join("j");
        let mut j = writer(&path);
        let (a_encoded, a) = append_batch(&mut j, &[(0, &[1; 32])]);
        append_batch(&mut j, &[(32, &[2; 32])]);
        drop(j);
        // Flip one payload byte inside record b.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[a_encoded.len() + 30] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let mut raw = Vec::new();
        let (_, replay) = open(&path, &mut raw).unwrap();
        assert_eq!(replay, vec![a]);
    }

    #[test]
    fn checkpoint_empties_the_journal() {
        let dir = ScratchDir::new("journal-checkpoint");
        let path = dir.path().join("j");
        let mut j = writer(&path);
        append_batch(&mut j, &[(0, &[9; 8])]);
        j.checkpoint().unwrap();
        assert_eq!(j.depth(), 0);
        assert_eq!(j.bytes(), 0);
        drop(j);
        let mut raw = Vec::new();
        let (_, replay) = open(&path, &mut raw).unwrap();
        assert!(replay.is_empty());
        // Sequence numbers keep rising across a checkpoint within one
        // session; after reopen they restart — both are fine because
        // the journal is empty at every checkpoint boundary.
    }

    #[test]
    fn record_appended_after_a_checkpoint_replays_from_offset_zero() {
        // The regression: checkpoint truncated the file but left the
        // write position where it was, so the next record landed past a
        // hole of zeros — the file grew to every byte ever appended and
        // the record never replayed (offset 0 holds no record).
        let dir = ScratchDir::new("journal-checkpoint-append");
        let path = dir.path().join("j");
        let mut j = writer(&path);
        append_batch(&mut j, &[(0, &[1; 500]), (4096, &[2; 500])]);
        j.checkpoint().unwrap();
        let (encoded, second) = append_batch(&mut j, &[(64, b"committed, not yet applied")]);
        assert_eq!(j.depth(), 1);
        assert_eq!(j.bytes(), encoded.len() as u64);
        j.sync().unwrap();
        drop(j);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            encoded.len() as u64,
            "the journal is exactly one record long"
        );
        let mut raw = Vec::new();
        let (_, replay) = open(&path, &mut raw).unwrap();
        assert_eq!(replay, vec![second]);
    }

    #[test]
    fn garbage_file_replays_nothing() {
        let dir = ScratchDir::new("journal-garbage");
        let path = dir.path().join("j");
        std::fs::write(&path, b"this is not a journal at all").unwrap();
        let mut raw = Vec::new();
        let (j, replay) = open(&path, &mut raw).unwrap();
        assert!(replay.is_empty());
        assert_eq!(j.depth(), 0);
    }

    #[test]
    fn absurd_counts_do_not_allocate_or_panic() {
        let dir = ScratchDir::new("journal-absurd");
        let path = dir.path().join("j");
        // A record header claiming u32::MAX runs with no body, and one
        // whose single run claims to be u64::MAX bytes long.
        for (count, run_len) in [(u32::MAX, None), (1, Some(u64::MAX))] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&RECORD_MAGIC);
            bytes.push(1u8);
            bytes.extend_from_slice(&0u64.to_le_bytes());
            bytes.extend_from_slice(&count.to_le_bytes());
            if let Some(len) = run_len {
                bytes.extend_from_slice(&0u64.to_le_bytes());
                bytes.extend_from_slice(&len.to_le_bytes());
            }
            std::fs::write(&path, &bytes).unwrap();
            let mut raw = Vec::new();
            let (_, replay) = open(&path, &mut raw).unwrap();
            assert!(replay.is_empty());
        }
    }

    /// Release builds only (an unoptimised build times the compiler's
    /// debug code, not the algorithm): the checksum against the bytewise
    /// FNV-1a it replaced, best of 20 passes over 1 MiB each, inside one
    /// process — a ratio, so a slow phase of the host cancels.
    #[cfg(not(debug_assertions))]
    #[test]
    fn the_checksum_is_at_least_five_times_the_bytewise_fnv() {
        use pvfs_types::clock;
        use std::hint::black_box;
        use std::time::Duration;
        let data: Vec<u8> = (0..1u32 << 20).map(|i| (i * 31 + 7) as u8).collect();
        let best_of_20 = |sum_of: fn(&[u8]) -> u64| -> Duration {
            (0..20)
                .map(|_| {
                    let t = clock::now_ns();
                    black_box(sum_of(black_box(&data)));
                    clock::since(t)
                })
                .min()
                .unwrap()
        };
        let (old, new) = (best_of_20(fnv1a64), best_of_20(checksum));
        assert!(
            new * 5 <= old,
            "checksum {new:?} per MiB against FNV-1a's {old:?}: less than 5x"
        );
    }
}
