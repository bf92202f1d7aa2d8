//! The crash walk: the real `FileStore`, over a model disk, crashed after
//! every write, `set_len` and fsync of every short program of batches,
//! truncates and sync barriers, then recovered by the real
//! `FileStore::recover` and read against `SparseStore`.
//!
//! The model disk keeps, per file, what it held at power-on and every
//! operation since. It powers off after `k` operations: the one that
//! finds the power gone fails, and so does every operation after it, so
//! the store's own error paths run too (the failed append, the cut-back
//! that fails as well, the wedge). What survives is laid down two ways:
//!
//! * a *process kill* keeps every byte written, and the last write may be
//!   cut short at every 8-byte boundary (at every policy);
//! * a *power cut* keeps each file as of its last fsync, plus each subset
//!   of the writes and `set_len`s since — every subset while there are at
//!   most 6, otherwise all, none and all but one (at `always` only: the
//!   other policies promise nothing against it).
//!
//! Either way the recovered store must hold every step acknowledged
//! before the crash, and the step in flight whole or not at all.
//!
//! `cargo test -p pvfs-disk --test crash_walk` walks every program of up
//! to 4 steps; `cargo test --release -p pvfs-disk -- --ignored` walks
//! every program of up to 6.

use pvfs_disk::{FileStore, SparseStore, StorageBackend, StorageMetrics, StoreFile, SyncPolicy};
use std::collections::HashSet;
use std::io::{self, IoSlice, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// One mutation of a file, or an fsync of it.
#[derive(Debug, Clone)]
enum Op {
    Write(u64, Vec<u8>),
    SetLen(u64),
    Sync,
}

/// The bytes of the data file and of the journal.
type Image = [Vec<u8>; 2];

fn apply(file: &mut Vec<u8>, op: &Op) {
    match op {
        Op::Write(at, bytes) => {
            let (at, end) = (*at as usize, *at as usize + bytes.len());
            if file.len() < end {
                file.resize(end, 0);
            }
            file[at..end].copy_from_slice(bytes);
        }
        Op::SetLen(len) => file.resize(*len as usize, 0),
        Op::Sync => {}
    }
}

/// The disk under a store's two files (0 the data file, 1 the journal).
#[derive(Debug)]
struct Disk {
    /// What each file held at power-on, all of it durable.
    base: Image,
    /// What each file holds now, as the process sees it.
    live: Image,
    /// Every operation since power-on, with its file, in order.
    log: Vec<(usize, Op)>,
    /// Operations left before the power goes.
    power: usize,
    /// An operation found the power gone; reads fail too from then on.
    off: bool,
}

impl Disk {
    fn new(image: Image, power: usize) -> Arc<Mutex<Disk>> {
        Arc::new(Mutex::new(Disk {
            live: image.clone(),
            base: image,
            log: Vec::new(),
            power,
            off: false,
        }))
    }

    fn op(&mut self, file: usize, op: Op) -> io::Result<()> {
        if self.power == 0 {
            self.off = true;
            return Err(io::Error::other("model disk: the power is off"));
        }
        self.power -= 1;
        apply(&mut self.live[file], &op);
        self.log.push((file, op));
        Ok(())
    }

    /// What a process kill leaves: every byte written, and, when the last
    /// operation was a write, that write cut at every 8-byte boundary.
    fn killed(&self) -> Vec<Image> {
        let mut images = vec![self.live.clone()];
        if let Some(((file, Op::Write(at, bytes)), earlier)) = self.log.split_last() {
            let mut before = self.base.clone();
            for (f, op) in earlier {
                apply(&mut before[*f], op);
            }
            for cut in (8..bytes.len()).step_by(8) {
                let mut image = before.clone();
                apply(&mut image[*file], &Op::Write(*at, bytes[..cut].to_vec()));
                images.push(image);
            }
        }
        images
    }

    /// What a power cut leaves: each file as of its last fsync, plus a
    /// subset of the operations since, for every subset while there are
    /// at most 6 of them, otherwise all, none and all but one.
    fn cut(&self) -> Vec<Image> {
        let synced = |f: usize| {
            let last = self
                .log
                .iter()
                .rposition(|(g, op)| *g == f && matches!(op, Op::Sync));
            last.map_or(0, |i| i + 1)
        };
        let synced = [synced(0), synced(1)];
        let mut durable = self.base.clone();
        let mut pending = Vec::new();
        for (i, (f, op)) in self.log.iter().enumerate() {
            if i < synced[*f] {
                apply(&mut durable[*f], op);
            } else if !matches!(op, Op::Sync) {
                pending.push((*f, op));
            }
        }
        let n = pending.len();
        let all = (1u64 << n) - 1;
        let keeps: Vec<u64> = if n <= 6 {
            (0..=all).collect()
        } else {
            [all, 0]
                .into_iter()
                .chain((0..n).map(|i| all & !(1 << i)))
                .collect()
        };
        keeps
            .into_iter()
            .map(|keep| {
                let mut image = durable.clone();
                for (i, (f, op)) in pending.iter().enumerate() {
                    if keep >> i & 1 == 1 {
                        apply(&mut image[*f], op);
                    }
                }
                image
            })
            .collect()
    }
}

/// One of the store's files on the model disk.
#[derive(Debug)]
struct ModelFile {
    disk: Arc<Mutex<Disk>>,
    file: usize,
}

impl ModelFile {
    fn op(&self, op: Op) -> io::Result<()> {
        self.disk.lock().unwrap().op(self.file, op)
    }
}

impl Write for ModelFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    /// A `writev` to the end of the file: one operation.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let bytes: Vec<u8> = bufs.iter().flat_map(|b| b.iter().copied()).collect();
        let len = bytes.len();
        let mut disk = self.disk.lock().unwrap();
        let end = disk.live[self.file].len() as u64;
        disk.op(self.file, Op::Write(end, bytes))?;
        Ok(len)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl StoreFile for ModelFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let disk = self.disk.lock().unwrap();
        if disk.off {
            return Err(io::Error::other("model disk: the power is off"));
        }
        let file = &disk.live[self.file];
        let from = file.len().min(offset as usize);
        let n = (file.len() - from).min(buf.len());
        buf[..n].copy_from_slice(&file[from..from + n]);
        buf[n..].fill(0);
        Ok(())
    }

    fn write_at(&mut self, buf: &[u8], offset: u64) -> io::Result<()> {
        self.op(Op::Write(offset, buf.to_vec()))
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.op(Op::SetLen(len))
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.op(Op::Sync)
    }

    fn size(&self) -> io::Result<u64> {
        Ok(self.disk.lock().unwrap().live[self.file].len() as u64)
    }
}

/// The real store, recovered from what `disk` holds.
fn recover(
    disk: &Arc<Mutex<Disk>>,
    policy: SyncPolicy,
    metrics: &Arc<StorageMetrics>,
) -> FileStore<ModelFile> {
    let file = |file| ModelFile {
        disk: Arc::clone(disk),
        file,
    };
    let name = PathBuf::from("model/h1.data");
    FileStore::recover(file(0), file(1), name, policy, Arc::clone(metrics)).unwrap()
}

/// One step of a program.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A batch of `(offset, len)` runs.
    Batch(&'static [(u64, usize)]),
    Truncate(u64),
    Sync,
}

/// What a program is drawn from: batches of one to three runs, the last
/// with a run that overlaps the one before it, a truncate that cuts into
/// them, and a sync barrier.
const STEPS: [Step; 5] = [
    Step::Batch(&[(4, 12)]),
    Step::Batch(&[(0, 8), (24, 16)]),
    Step::Batch(&[(8, 16), (16, 8), (40, 8)]),
    Step::Truncate(20),
    Step::Sync,
];

/// Take step `i` (of at most 6) of a program: a batch's bytes say which
/// step wrote them.
fn take(store: &mut impl StorageBackend, i: usize, step: Step) -> bool {
    match step {
        Step::Batch(runs) => {
            let bytes: Vec<Vec<u8>> = (0..runs.len())
                .map(|r| {
                    (0..runs[r].1)
                        .map(|b| (i * 42 + r * 14 + b + 1) as u8)
                        .collect()
                })
                .collect();
            let runs: Vec<(u64, &[u8])> = runs
                .iter()
                .zip(&bytes)
                .map(|(&(at, _), b)| (at, &b[..]))
                .collect();
            store.write_batch(&runs).is_ok()
        }
        Step::Truncate(size) => store.truncate(size).is_ok(),
        Step::Sync => store.sync().is_ok(),
    }
}

/// What a reader finds: the size and every byte a program can write.
fn contents(store: &impl StorageBackend) -> (u64, Vec<u8>) {
    (store.size(), store.read_vec(0, 64).unwrap())
}

/// Crash `program` after every operation prefix at `policy`; returns the
/// crashes and the distinct crash images recovered.
fn walk(program: &[Step], policy: SyncPolicy, metrics: &Arc<StorageMetrics>) -> (usize, usize) {
    let mut reference = SparseStore::new();
    let mut states = vec![contents(&reference)];
    for (i, step) in program.iter().enumerate() {
        assert!(take(&mut reference, i, *step));
        states.push(contents(&reference));
    }
    let mut recovered = 0;
    for k in 0.. {
        let disk = Disk::new(Image::default(), k);
        let mut store = recover(&disk, policy, metrics);
        let acked = (0..program.len())
            .find(|&i| !take(&mut store, i, program[i]))
            .unwrap_or(program.len());
        // The rest of the program runs into the dead disk.
        for (i, step) in program.iter().enumerate().skip(acked + 1) {
            take(&mut store, i, *step);
        }
        drop(store);
        let disk = disk.lock().unwrap();
        let killed = disk.killed();
        let cut = if policy == SyncPolicy::Always {
            disk.cut()
        } else {
            Vec::new()
        };
        let allowed = &states[acked..states.len().min(acked + 2)];
        let mut seen = HashSet::new();
        let images = killed.iter().map(|i| ("process kill", i));
        for (n, (model, image)) in images
            .chain(cut.iter().map(|i| ("power cut", i)))
            .enumerate()
        {
            if !seen.insert(image) {
                continue;
            }
            let got = contents(&recover(
                &Disk::new(image.clone(), usize::MAX),
                policy,
                metrics,
            ));
            assert!(
                allowed.contains(&got),
                "{program:?} at {policy}, crashed after {k} operations ({model}, image {n} \
                 of {}: {image:?}): recovered {got:?}, acknowledged {acked} steps, so \
                 expected one of {allowed:?}",
                killed.len() + cut.len(),
            );
        }
        recovered += seen.len();
        if !disk.off {
            // The program ended before the power went: every prefix is walked.
            return (k + 1, recovered);
        }
    }
    unreachable!()
}

/// Walk every program of 1 to `longest` steps at `policy`; returns how
/// many programs were walked.
fn walk_all(longest: u32, policy: SyncPolicy) -> usize {
    let metrics = Arc::new(StorageMetrics::default());
    let (mut programs, mut crashes, mut images) = (0, 0, 0);
    for len in 1..=longest {
        for mut n in 0..STEPS.len().pow(len) {
            let program: Vec<Step> = (0..len)
                .map(|_| {
                    let step = STEPS[n % STEPS.len()];
                    n /= STEPS.len();
                    step
                })
                .collect();
            let (c, i) = walk(&program, policy, &metrics);
            (programs, crashes, images) = (programs + 1, crashes + c, images + i);
        }
    }
    eprintln!("crash walk at {policy}: {programs} programs, {crashes} crashes, {images} images");
    programs
}

#[test]
fn every_crash_of_every_four_step_program_recovers_at_always() {
    assert_eq!(walk_all(4, SyncPolicy::Always), 780);
}

#[test]
fn every_crash_of_every_four_step_program_recovers_at_never() {
    assert_eq!(walk_all(4, SyncPolicy::Never), 780);
}

#[test]
#[ignore = "≈ 25× the four-step walk: run in release, `-- --ignored`"]
fn every_crash_of_every_six_step_program_recovers() {
    assert_eq!(walk_all(6, SyncPolicy::Always), 19_530);
    assert_eq!(walk_all(6, SyncPolicy::Never), 19_530);
}

/// The power-cut model is not vacuous: at `never`, which promises nothing
/// against a power cut, one of its images loses an acknowledged batch.
#[test]
fn the_power_cut_oracle_catches_a_lost_acknowledged_batch() {
    let metrics = Arc::new(StorageMetrics::default());
    let disk = Disk::new(Image::default(), usize::MAX);
    let mut store = recover(&disk, SyncPolicy::Never, &metrics);
    assert!(take(&mut store, 0, STEPS[0]));
    drop(store);
    let images = disk.lock().unwrap().cut();
    let lost = images.iter().any(|image| {
        let store = recover(
            &Disk::new(image.clone(), usize::MAX),
            SyncPolicy::Never,
            &metrics,
        );
        contents(&store) == (0, vec![0; 64])
    });
    assert!(lost, "no power-cut image lost the unsynced batch");
}
