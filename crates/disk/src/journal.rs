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
//! magic "PVJR" (4) | kind (1) | seq (8) | body | fnv1a64 (8)
//!
//! kind 1 = write batch:  count (4) | count × (offset 8, len 8) | payloads
//! kind 2 = truncate:     size (8)
//! ```
//!
//! The checksum is FNV-1a 64 over everything before it (magic
//! included). Truncates are journaled too: replay applies records in
//! order, so a truncate followed by new writes recovers exactly —
//! without it, replaying an older write record could resurrect
//! truncated bytes past the logical tail.
//!
//! After replay (or whenever the journal grows past the group-commit
//! thresholds) the store *checkpoints*: fsync the data file, then
//! truncate the journal to zero. The journal is the durability
//! authority between checkpoints; the data file is authoritative after.
//!
//! The file is opened in append mode and [`Journal::open`] cuts a torn
//! tail off, so every record lands directly behind the last committed
//! one — at offset 0 after a checkpoint. Recovery stops at the first
//! byte that is not a record; a record written anywhere else (past a
//! hole a checkpoint left, behind a torn tail) would never replay.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

/// Leading magic of every journal record.
pub const RECORD_MAGIC: [u8; 4] = *b"PVJR";

const KIND_WRITE_BATCH: u8 = 1;
const KIND_TRUNCATE: u8 = 2;

/// Bytes of a record around its body: magic, kind, seq, checksum.
const RECORD_OVERHEAD: usize = 4 + 1 + 8 + 8;

/// One committed intent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// Apply every `(offset, payload)` run to the data file.
    WriteBatch {
        /// Monotonic record sequence number.
        seq: u64,
        /// The batch's runs, in application order.
        runs: Vec<(u64, Vec<u8>)>,
    },
    /// Truncate the data file to `size` bytes.
    Truncate {
        /// Monotonic record sequence number.
        seq: u64,
        /// New file size.
        size: u64,
    },
}

impl JournalRecord {
    /// The record's sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            JournalRecord::WriteBatch { seq, .. } => *seq,
            JournalRecord::Truncate { seq, .. } => *seq,
        }
    }
}

/// Serialize one record — `body` writes the `body_len` bytes between
/// the sequence number and the trailing commit checksum — into a buffer
/// allocated once at the record's exact size.
fn encode_record(kind: u8, seq: u64, body_len: usize, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut buf = Vec::with_capacity(RECORD_OVERHEAD + body_len);
    buf.extend_from_slice(&RECORD_MAGIC);
    buf.push(kind);
    buf.extend_from_slice(&seq.to_le_bytes());
    body(&mut buf);
    let sum = fnv1a64(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    debug_assert_eq!(buf.len(), RECORD_OVERHEAD + body_len);
    buf
}

/// FNV-1a 64 — tiny, dependency-free, and plenty to distinguish a torn
/// record from a committed one.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Parse one record from `buf[pos..]`. `Ok(None)` means the tail is
/// torn or corrupt (recovery stops there); `Ok(Some(...))` yields the
/// record and the position just past it.
fn parse_record(buf: &[u8], pos: usize) -> Option<(JournalRecord, usize)> {
    let rest = &buf[pos..];
    // magic + kind + seq
    if rest.len() < 13 || rest[..4] != RECORD_MAGIC {
        return None;
    }
    let kind = rest[4];
    let seq = u64::from_le_bytes(rest[5..13].try_into().unwrap());
    let (record, body_end) = match kind {
        KIND_WRITE_BATCH => {
            if rest.len() < 17 {
                return None;
            }
            let count = u32::from_le_bytes(rest[13..17].try_into().unwrap()) as usize;
            // Bound the header against what's actually on disk before
            // allocating anything.
            let runs_hdr = count.checked_mul(16)?;
            let mut at = 17usize.checked_add(runs_hdr)?;
            if rest.len() < at {
                return None;
            }
            let mut runs = Vec::with_capacity(count);
            for i in 0..count {
                let h = 17 + i * 16;
                let offset = u64::from_le_bytes(rest[h..h + 8].try_into().unwrap());
                let len = u64::from_le_bytes(rest[h + 8..h + 16].try_into().unwrap());
                if len > rest.len() as u64 {
                    return None;
                }
                runs.push((offset, len as usize));
            }
            let mut out = Vec::with_capacity(count);
            for (offset, len) in runs {
                let end = at.checked_add(len)?;
                if rest.len() < end {
                    return None;
                }
                out.push((offset, rest[at..end].to_vec()));
                at = end;
            }
            (JournalRecord::WriteBatch { seq, runs: out }, at)
        }
        KIND_TRUNCATE => {
            if rest.len() < 21 {
                return None;
            }
            let size = u64::from_le_bytes(rest[13..21].try_into().unwrap());
            (JournalRecord::Truncate { seq, size }, 21)
        }
        _ => return None,
    };
    let sum_end = body_end.checked_add(8)?;
    if rest.len() < sum_end {
        return None;
    }
    let want = u64::from_le_bytes(rest[body_end..sum_end].try_into().unwrap());
    if fnv1a64(&rest[..body_end]) != want {
        return None;
    }
    Some((record, pos + sum_end))
}

/// The on-disk journal of one [`FileStore`](crate::FileStore).
#[derive(Debug)]
pub struct Journal {
    file: File,
    /// Records committed since the last checkpoint.
    depth: u64,
    /// Bytes appended since the last checkpoint.
    bytes: u64,
    /// Next record sequence number.
    next_seq: u64,
}

impl Journal {
    /// Open (or create) the journal at `path`, returning it together
    /// with every committed record found — the valid prefix; a torn or
    /// corrupt tail is dropped and will be overwritten by the
    /// post-replay checkpoint.
    pub fn open(path: &Path) -> io::Result<(Journal, Vec<JournalRecord>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        let mut records = Vec::new();
        let mut pos = 0usize;
        while let Some((record, next)) = parse_record(&raw, pos) {
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
            },
            records,
        ))
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Encode the next write-batch record (consuming the sequence
    /// number) straight from the caller's runs: the payload is copied
    /// once, into the buffer that goes to the file.
    pub fn encode_write_batch(&mut self, runs: &[(u64, &[u8])]) -> Vec<u8> {
        let payload: usize = runs.iter().map(|(_, data)| data.len()).sum();
        let body_len = 4 + 16 * runs.len() + payload;
        encode_record(KIND_WRITE_BATCH, self.take_seq(), body_len, |buf| {
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

    /// Encode the next truncate record.
    pub fn encode_truncate(&mut self, size: u64) -> Vec<u8> {
        encode_record(KIND_TRUNCATE, self.take_seq(), 8, |buf| {
            buf.extend_from_slice(&size.to_le_bytes())
        })
    }

    /// Append one encoded record: it is committed once this returns
    /// (and durable once [`Journal::sync`] has).
    pub fn append(&mut self, encoded: &[u8]) -> io::Result<()> {
        self.file.write_all(encoded)?;
        self.depth += 1;
        self.bytes += encoded.len() as u64;
        Ok(())
    }

    /// Crash injection: append only the first `keep` bytes of the
    /// record — the torn tail a power cut mid-append leaves behind.
    pub fn append_torn(&mut self, encoded: &[u8], keep: usize) -> io::Result<()> {
        let keep = keep.min(encoded.len().saturating_sub(1));
        self.file.write_all(&encoded[..keep])?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Fsync the journal file (the commit barrier).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Drop every record: called once the data file itself has been
    /// fsynced, making the journal's contents redundant. The next
    /// append starts the file over at offset 0 (append mode).
    pub fn checkpoint(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.sync_data()?;
        self.depth = 0;
        self.bytes = 0;
        Ok(())
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
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;

    /// Commit a write batch; returns its encoding and the record replay
    /// must hand back for it.
    fn append_batch(j: &mut Journal, runs: &[(u64, &[u8])]) -> (Vec<u8>, JournalRecord) {
        let seq = j.next_seq;
        let encoded = j.encode_write_batch(runs);
        j.append(&encoded).unwrap();
        let runs = runs.iter().map(|(o, d)| (*o, d.to_vec())).collect();
        (encoded, JournalRecord::WriteBatch { seq, runs })
    }

    #[test]
    fn roundtrip_records_through_a_file() {
        let dir = ScratchDir::new("journal-roundtrip");
        let path = dir.path().join("j");
        let (mut j, replay) = Journal::open(&path).unwrap();
        assert!(replay.is_empty());
        let (_, a) = append_batch(&mut j, &[(0, b"abc"), (100, b"defg")]);
        let truncate = j.encode_truncate(50);
        j.append(&truncate).unwrap();
        let b = JournalRecord::Truncate { seq: 1, size: 50 };
        let (_, c) = append_batch(&mut j, &[(7, b"xy")]);
        assert_eq!(j.depth(), 3);
        j.sync().unwrap();
        drop(j);
        let (j2, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay, vec![a, b, c]);
        assert_eq!(j2.depth(), 3);
    }

    #[test]
    fn records_are_encoded_into_exactly_sized_buffers() {
        let dir = ScratchDir::new("journal-exact");
        let (mut j, _) = Journal::open(&dir.path().join("j")).unwrap();
        let batch = j.encode_write_batch(&[(0, &[1u8; 100]), (4096, &[2u8; 28])]);
        assert_eq!(batch.len(), RECORD_OVERHEAD + 4 + 2 * 16 + 128);
        assert_eq!(batch.capacity(), batch.len(), "sized once, never regrown");
        let truncate = j.encode_truncate(9);
        assert_eq!(truncate.len(), RECORD_OVERHEAD + 8);
        assert_eq!(truncate.capacity(), truncate.len());
    }

    #[test]
    fn torn_tail_is_discarded_not_replayed() {
        let dir = ScratchDir::new("journal-torn");
        let path = dir.path().join("j");
        let (mut j, _) = Journal::open(&path).unwrap();
        let (_, committed) = append_batch(&mut j, &[(0, b"committed")]);
        let torn = j.encode_write_batch(&[(64, &[0xAA; 128])]);
        j.append_torn(&torn, 40).unwrap();
        drop(j);
        let (j2, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay, vec![committed]);
        // The reopened journal only counts the valid prefix.
        assert_eq!(j2.depth(), 1);
    }

    #[test]
    fn record_appended_behind_a_torn_tail_still_replays() {
        // Reopen cuts the torn bytes off; were they left in place, the
        // next record would land behind them, where recovery (which
        // stops at the first byte that is not a record) never looks.
        let dir = ScratchDir::new("journal-torn-then-append");
        let path = dir.path().join("j");
        let (mut j, _) = Journal::open(&path).unwrap();
        let torn = j.encode_write_batch(&[(0, &[0xAA; 64])]);
        j.append_torn(&torn, 30).unwrap();
        drop(j);
        let (mut j, replay) = Journal::open(&path).unwrap();
        assert!(replay.is_empty());
        let (encoded, after) = append_batch(&mut j, &[(8, b"after the tear")]);
        drop(j);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            encoded.len() as u64
        );
        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay, vec![after]);
    }

    #[test]
    fn corrupt_byte_invalidates_only_the_tail() {
        let dir = ScratchDir::new("journal-corrupt");
        let path = dir.path().join("j");
        let (mut j, _) = Journal::open(&path).unwrap();
        let (a_encoded, a) = append_batch(&mut j, &[(0, &[1; 32])]);
        append_batch(&mut j, &[(32, &[2; 32])]);
        drop(j);
        // Flip one payload byte inside record b.
        let mut raw = std::fs::read(&path).unwrap();
        raw[a_encoded.len() + 30] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay, vec![a]);
    }

    #[test]
    fn checkpoint_empties_the_journal() {
        let dir = ScratchDir::new("journal-checkpoint");
        let path = dir.path().join("j");
        let (mut j, _) = Journal::open(&path).unwrap();
        append_batch(&mut j, &[(0, &[9; 8])]);
        j.checkpoint().unwrap();
        assert_eq!(j.depth(), 0);
        assert_eq!(j.bytes(), 0);
        drop(j);
        let (_, replay) = Journal::open(&path).unwrap();
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
        let (mut j, _) = Journal::open(&path).unwrap();
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
        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay, vec![second]);
    }

    #[test]
    fn garbage_file_replays_nothing() {
        let dir = ScratchDir::new("journal-garbage");
        let path = dir.path().join("j");
        std::fs::write(&path, b"this is not a journal at all").unwrap();
        let (j, replay) = Journal::open(&path).unwrap();
        assert!(replay.is_empty());
        assert_eq!(j.depth(), 0);
    }

    #[test]
    fn absurd_counts_do_not_allocate_or_panic() {
        let dir = ScratchDir::new("journal-absurd");
        let path = dir.path().join("j");
        // A record header claiming u32::MAX runs with no body.
        let mut raw = Vec::new();
        raw.extend_from_slice(&RECORD_MAGIC);
        raw.push(1u8);
        raw.extend_from_slice(&0u64.to_le_bytes());
        raw.extend_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &raw).unwrap();
        let (_, replay) = Journal::open(&path).unwrap();
        assert!(replay.is_empty());
    }
}
