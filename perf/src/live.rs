//! The untraced run: a closed loop of one client against the live
//! cluster, every byte verified. End-to-end numbers come from here
//! only.
//!
//! Fresh set-ups → untimed warm-up → timed slices → read-backs → fresh
//! set-ups again. The client thread issues
//! the next op when the previous one returns; each op already fans out
//! to up to 4 daemons × 2 workers, so one client saturates the one CPU
//! the process is pinned to.

use crate::alloc::AllocCount;
use crate::layers::{self, ClusterCfg, Counters, Latency, Lists, Live, Res};
use crate::stats;
use crate::sys;
use crate::workload::{Backend, Kind, Method, Spec};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long and how often to measure.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub warmup: Duration,
    pub slice: Duration,
    pub slices: usize,
    /// Fresh set-ups to time before the window (the last one is kept
    /// and measured on) and again after it, at least.
    pub setups: usize,
    /// More of them, up to [`MAX_SETUPS`], while they generate no more
    /// than this many bytes of file content between them: the cheapest
    /// set-up takes a millisecond and varies most, so it is sampled
    /// most. A count fixed by the workload, not by the clock, so that
    /// the process's allocation history — and with it the peak RSS — is
    /// the same on every run.
    pub setup_bytes: u64,
}

/// Harness self-test switches.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sabotage {
    /// Flip one byte of rank 0's expected data, so verification must
    /// fail: shows that a wrong byte fails the run.
    pub corrupt_expected: bool,
}

/// Everything the untraced run measured.
pub struct LiveResult {
    /// Seconds of each fresh set-up, the ones before the window and then
    /// the ones after it: generate the content and every rank's lists
    /// and buffers from the seed, spawn the cluster, create the file,
    /// fill it and read the fill back.
    pub setup_s: Vec<f64>,
    /// The part of each set-up that is the program's alone: from
    /// spawning the cluster on.
    pub setup_cluster_s: Vec<f64>,
    /// Verified MiB/s of each timed slice.
    pub slice_mibs: Vec<f64>,
    /// Process CPU seconds per GiB of verified payload in each timed
    /// slice, minus the harness's own (generation and verification on
    /// the client thread).
    pub slice_cpu_s_per_gib: Vec<f64>,
    /// Wall milliseconds of every timed op, ascending.
    pub op_ms: Vec<f64>,
    /// Ops in the timed window, and how many of them returned an error
    /// or moved a wrong byte.
    pub attempted: u64,
    pub failed: u64,
    /// Untimed read-backs after the window (every rank of a write
    /// workload, again after reopening a durable one), and how many
    /// found a wrong byte.
    pub readbacks: u64,
    pub readbacks_failed: u64,
    /// Verified payload bytes in the timed window.
    pub payload_bytes: u64,
    pub allocs: AllocCount,
    pub counters: Counters,
    /// Sums over the ops' reports.
    pub rounds: u64,
    pub requests: u64,
    pub copy_bytes: u64,
    pub rpc: Latency,
    /// Process CPU in the timed window, harness included.
    pub cpu_total_ns: u64,
    /// Ticks of the pinned CPU over the timed window.
    pub cpu_ticks: sys::CpuTicks,
    /// Why the run is incorrect, if it is: failed ops, failed
    /// read-backs, broken invariants.
    pub violations: Vec<String>,
}

impl LiveResult {
    pub fn ops_ok(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn op_p50_ms(&self) -> f64 {
        stats::median(&self.op_ms)
    }

    /// Median of the slices' goodput.
    pub fn goodput_mibs(&self) -> f64 {
        stats::median(&stats::sorted(self.slice_mibs.clone()))
    }

    /// Median of the slices' CPU cost.
    pub fn cpu_s_per_gib(&self) -> f64 {
        stats::median(&stats::sorted(self.slice_cpu_s_per_gib.clone()))
    }

    /// The fastest of the fresh set-ups. What disturbs a run on this
    /// kind of box only ever slows it, for seconds or for minutes at a
    /// time, so the minimum of many samples — taken in two groups,
    /// before the timed window and after it — is the one statistic of
    /// them that holds still: over two back-to-back sets of ten runs it
    /// moved by at most 12 % between the sets where the first quartile
    /// moved by 24 % and the median by 27 % (README.md has the table, and
    /// what a slow phase of the host does even to the minimum).
    pub fn setup_s(&self) -> f64 {
        self.setup_s.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// One rank of the workload, ready to run: its lists and its buffers.
pub struct Rank {
    pub lists: Lists,
    /// Reads: what the bytes must be. Writes: what is written next (and
    /// so what the file must hold afterwards).
    pub data: Vec<u8>,
    /// Reads only: where the bytes land.
    pub recv: Vec<u8>,
    /// Writes only: generation stamped into `data`, 0 = the initial
    /// fill. Every write bumps it (skipping 0), so a write the daemons
    /// dropped leaves bytes the read-back can tell from the new ones.
    generation: u8,
}

impl Rank {
    /// Writes: stamp the next generation into the data about to be
    /// written. Reads: nothing to prepare.
    pub fn prepare(&mut self, kind: Kind) {
        if kind == Kind::Read {
            return;
        }
        let next = if self.generation == 255 {
            1
        } else {
            self.generation + 1
        };
        let flip = self.generation ^ next;
        // The whole buffer, gaps between memory regions included: one
        // vectorised pass, and the gaps are never transferred.
        for b in &mut self.data {
            *b ^= flip;
        }
        self.generation = next;
    }

    /// The lists and the buffer one op of `kind` runs on.
    pub fn op_args(&mut self, kind: Kind) -> (&Lists, &mut [u8]) {
        match kind {
            Kind::Read => (&self.lists, &mut self.recv),
            Kind::Write => (&self.lists, &mut self.data),
        }
    }

    /// Reads: did the bytes land right? Then spoil one of them, so a
    /// read that moves nothing cannot pass next time round. Writes are
    /// checked by [`Rank::holds`] at the end.
    pub fn check(&mut self, kind: Kind) -> bool {
        if kind == Kind::Write {
            return true;
        }
        let ok = self.recv == self.data;
        if let Some((off, _)) = self.lists.mem_regions().next() {
            self.recv[off] ^= 0xff;
        }
        ok
    }

    /// Does `got`, read back through this rank's lists, hold what was
    /// last written (or, for a rank never written, the fill)?
    pub fn holds(&self, got: &[u8]) -> bool {
        self.lists
            .mem_regions()
            .all(|(off, len)| got[off..off + len] == self.data[off..off + len])
    }
}

/// The seed's contribution to every content byte.
fn seed_byte(seed: u64) -> u8 {
    (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8 | 1
}

pub fn file_content(seed: u64, len: u64) -> Vec<u8> {
    let salt = seed_byte(seed);
    (0..len)
        .map(|off| layers::content_byte(off) ^ salt)
        .collect()
}

pub fn build_ranks(spec: &Spec, content: &[u8]) -> Res<Vec<Rank>> {
    (0..layers::ranks(spec.pattern))
        .map(|r| {
            let lists = layers::generate(spec.pattern, r)?;
            let mut data = vec![0u8; layers::buffer_len(spec.pattern)];
            for (mem, file, len) in lists.pieces()? {
                data[mem..mem + len].copy_from_slice(&content[file as usize..file as usize + len]);
            }
            let recv = match spec.kind {
                Kind::Read => vec![0u8; data.len()],
                Kind::Write => Vec::new(),
            };
            Ok(Rank {
                lists,
                data,
                recv,
                generation: 0,
            })
        })
        .collect()
}

pub const MAX_SETUPS: usize = 200;

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// A data directory for the file backend, inside the benchmark's own
/// output directory (the benchmark writes nowhere else), removed on
/// drop.
pub struct StoreDir(PathBuf);

impl StoreDir {
    pub fn new(out_dir: &Path) -> Res<StoreDir> {
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let path = out_dir.join(format!("store-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(StoreDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn cluster_cfg(spec: &Spec, dir: &Path) -> ClusterCfg {
    ClusterCfg {
        transport: spec.transport,
        backend: spec.backend,
        storage_dir: dir.to_path_buf(),
        emulated_latency: spec.emulated_latency_ms.map(Duration::from_millis),
    }
}

/// One fresh set-up: everything a run needs before its first op.
struct SetUp {
    live: Live,
    dir: StoreDir,
    content: Vec<u8>,
    ranks: Vec<Rank>,
    /// Seconds the whole of it took, and the part from spawning the
    /// cluster on.
    seconds: f64,
    cluster_seconds: f64,
}

/// Generate the inputs from the seed, spawn the cluster, create the
/// file, fill it and read the fill back — timed.
fn set_up(spec: &Spec, seed: u64, out_dir: &Path) -> Res<SetUp> {
    let started = Instant::now();
    let content = file_content(seed, layers::file_size(spec.pattern));
    let ranks = build_ranks(spec, &content)?;
    let dir = StoreDir::new(out_dir)?;
    let cluster_started = Instant::now();
    let mut live = Live::spawn(&cluster_cfg(spec, dir.path()))?;
    live.write_at(0, &content)?;
    let mut back = vec![0u8; content.len()];
    live.read_at(0, &mut back)?;
    let done = Instant::now();
    if back != content {
        return Err("the initial fill did not read back".into());
    }
    Ok(SetUp {
        live,
        dir,
        content,
        ranks,
        seconds: (done - started).as_secs_f64(),
        cluster_seconds: (done - cluster_started).as_secs_f64(),
    })
}

/// What the fresh set-ups of a run took, in order.
#[derive(Default)]
struct SetUpTimes {
    whole: Vec<f64>,
    cluster: Vec<f64>,
}

/// Fresh set-ups, one at a time, their times appended to `times`; the
/// last one is handed back.
fn set_up_repeatedly(
    spec: &Spec,
    seed: u64,
    window: Window,
    out_dir: &Path,
    times: &mut SetUpTimes,
) -> Res<SetUp> {
    let by_bytes = (window.setup_bytes / layers::file_size(spec.pattern)) as usize;
    let count = by_bytes.min(MAX_SETUPS).max(window.setups).max(1);
    let mut timed = || -> Res<SetUp> {
        let fresh = set_up(spec, seed, out_dir)?;
        times.whole.push(fresh.seconds);
        times.cluster.push(fresh.cluster_seconds);
        Ok(fresh)
    };
    let mut fresh = timed()?;
    for _ in 1..count {
        // One cluster at a time: the old one goes before the new one
        // comes.
        drop(fresh);
        fresh = timed()?;
    }
    Ok(fresh)
}

/// The measured loop's state: which op comes next and what happened.
struct Loop<'a> {
    spec: &'a Spec,
    live: Live,
    ranks: Vec<Rank>,
    next: u64,
}

struct OpOutcome {
    wall: Duration,
    /// Harness CPU around the op (generation before, verification after).
    harness_cpu_ns: u64,
    /// Payload bytes the op was asked to move.
    payload: u64,
    /// The op's report, or why it failed (an error, or a wrong byte).
    report: Res<layers::OpReport>,
}

impl Loop<'_> {
    fn step(&mut self) -> OpOutcome {
        let spec = self.spec;
        let idx = (self.next % self.ranks.len() as u64) as usize;
        self.next += 1;
        let rank = &mut self.ranks[idx];
        let cpu0 = sys::thread_cpu_ns();
        rank.prepare(spec.kind);
        let cpu1 = sys::thread_cpu_ns();
        let (lists, buf) = rank.op_args(spec.kind);
        let started = Instant::now();
        let report = self.live.run_op(spec.kind, spec.method, lists, buf);
        let wall = started.elapsed();
        let cpu2 = sys::thread_cpu_ns();
        let report = match rank.check(spec.kind) {
            true => report,
            false => report.and(Err("byte verification failed".into())),
        };
        let cpu3 = sys::thread_cpu_ns();
        OpOutcome {
            wall,
            harness_cpu_ns: (cpu1 - cpu0) + (cpu3 - cpu2),
            payload: rank.lists.payload_bytes(),
            report,
        }
    }

    /// Read every rank back with list I/O and compare with what was
    /// last written (or, for ranks never written, the fill). Returns
    /// how many ranks failed.
    fn read_back_all(&mut self, what: &str, violations: &mut Vec<String>) -> u64 {
        let before = violations.len();
        for (r, rank) in self.ranks.iter().enumerate() {
            let mut got = vec![0u8; rank.data.len()];
            match self
                .live
                .run_op(Kind::Read, Method::List, &rank.lists, &mut got)
            {
                Err(e) => violations.push(format!("{what}: reading rank {r} back failed: {e}")),
                Ok(_) if rank.holds(&got) => {}
                Ok(_) => {
                    violations.push(format!("{what}: rank {r} does not hold what was written"))
                }
            }
        }
        (violations.len() - before) as u64
    }
}

/// Run one workload untraced and measure it.
pub fn run(
    spec: &Spec,
    seed: u64,
    window: Window,
    sabotage: Sabotage,
    out_dir: &Path,
    pinned_cpu: Option<usize>,
) -> Res<LiveResult> {
    // Fresh set-ups; keep the last.
    let mut setup_times = SetUpTimes::default();
    let SetUp {
        live,
        dir,
        content,
        mut ranks,
        ..
    } = set_up_repeatedly(spec, seed, window, out_dir, &mut setup_times)?;
    let handle = live.handle();
    let file_len = content.len() as u64;
    drop(content);
    let (first_byte, _) = ranks[0]
        .lists
        .mem_regions()
        .next()
        .ok_or("rank 0 is empty")?;
    if sabotage.corrupt_expected && spec.kind == Kind::Read {
        ranks[0].data[first_byte] ^= 0x01;
    }

    let mut lp = Loop {
        spec,
        live,
        ranks,
        // The seed also picks the starting rank.
        next: seed % layers::ranks(spec.pattern),
    };

    // Warm-up: caches fill, connections open, lazy state settles.
    let warm = Instant::now();
    while warm.elapsed() < window.warmup {
        lp.step();
    }

    // Room for 2000 ops/s, three times the fastest workload, so that
    // recording a duration never allocates inside the counted window.
    let expected_ops = (window.slice.as_secs_f64() * window.slices as f64 * 2000.0) as usize;
    let mut op_ms: Vec<f64> = Vec::with_capacity(expected_ops.max(1024));
    let mut slice_mibs = Vec::with_capacity(window.slices);
    let mut slice_cpu_s_per_gib = Vec::with_capacity(window.slices);
    let mut rpc = Latency::default();
    let (mut attempted, mut failed, mut payload_bytes) = (0u64, 0u64, 0u64);
    let (mut rounds, mut requests, mut copy_bytes) = (0u64, 0u64, 0u64);
    let mut first_error: Option<String> = None;

    let counters_before = lp.live.counters();
    let ticks_before = sys::cpu_ticks(pinned_cpu);
    let cpu_before = sys::process_cpu_ns();
    let allocs_before = AllocCount::now();

    for _ in 0..window.slices {
        let slice_started = Instant::now();
        let slice_cpu_before = sys::process_cpu_ns();
        let (mut busy, mut bytes, mut harness_cpu_ns) = (Duration::ZERO, 0u64, 0u64);
        while slice_started.elapsed() < window.slice {
            let outcome = lp.step();
            attempted += 1;
            busy += outcome.wall;
            harness_cpu_ns += outcome.harness_cpu_ns;
            op_ms.push(outcome.wall.as_secs_f64() * 1e3);
            match outcome.report {
                Ok(report) => {
                    bytes += outcome.payload;
                    rounds += report.rounds;
                    requests += report.requests;
                    copy_bytes += report.copy_bytes;
                    rpc.merge(&report.rpc);
                }
                Err(e) => {
                    failed += 1;
                    first_error.get_or_insert(e);
                }
            }
        }
        let cpu_ns = (sys::process_cpu_ns() - slice_cpu_before).saturating_sub(harness_cpu_ns);
        payload_bytes += bytes;
        slice_mibs.push(bytes as f64 / (1 << 20) as f64 / busy.as_secs_f64());
        if bytes > 0 {
            slice_cpu_s_per_gib.push(cpu_ns as f64 / 1e9 / (bytes as f64 / (1u64 << 30) as f64));
        }
    }

    let allocs = AllocCount::now().since(allocs_before);
    let cpu_total_ns = sys::process_cpu_ns() - cpu_before;
    let cpu_ticks = sys::cpu_ticks(pinned_cpu).since(ticks_before);
    let counters = lp.live.counters().since(&counters_before);

    // After the clock stops: invariants and the final read-backs.
    let mut violations = Vec::new();
    if let Some(e) = first_error {
        violations.push(format!("{failed} of {attempted} ops failed; first: {e}"));
    }
    let ops_ok = attempted - failed;
    if failed == 0 && counters.frames_rx != spec.frames_per_op * ops_ok {
        violations.push(format!(
            "{} request frames for {ops_ok} ops; the workload pins {} per op",
            counters.frames_rx, spec.frames_per_op
        ));
    }
    if counters.retries != 0 || counters.errors != 0 || counters.shed != 0 {
        violations.push(format!(
            "a healthy cluster retried {} RPCs, answered {} errors, shed {}",
            counters.retries, counters.errors, counters.shed
        ));
    }
    let (mut readbacks, mut readbacks_failed) = (0u64, 0u64);
    if spec.kind == Kind::Write {
        if sabotage.corrupt_expected {
            lp.ranks[0].data[first_byte] ^= 0x01;
        }
        readbacks += lp.ranks.len() as u64;
        readbacks_failed += lp.read_back_all("final read-back", &mut violations);
    }
    if spec.backend == Backend::FileJournaled {
        // A durability barrier, then drop the cluster, reopen the same
        // directory and verify again: every acknowledged write must
        // have survived. The barrier also empties the journals; without
        // it each reopened store reads back a journal file as long as
        // every byte ever appended to it (see README.md, Findings).
        match lp.live.sync() {
            Ok(durable) if durable == file_len => {}
            Ok(durable) => violations.push(format!(
                "sync made {durable} bytes durable; the file holds {file_len}"
            )),
            Err(e) => violations.push(format!("sync failed: {e}")),
        }
        let Loop { live, ranks, .. } = lp;
        drop(live);
        match Live::spawn(&cluster_cfg(spec, dir.path())) {
            Err(e) => violations.push(format!("reopening the data directory failed: {e}")),
            Ok(reopened) => {
                if reopened.handle() != handle {
                    violations.push("the reopened file got a different handle".into());
                }
                let mut lp = Loop {
                    spec,
                    live: reopened,
                    ranks,
                    next: 0,
                };
                readbacks += lp.ranks.len() as u64;
                readbacks_failed += lp.read_back_all("after reopen", &mut violations);
            }
        }
    } else {
        drop(lp);
    }
    let dir_path = dir.path().to_path_buf();
    drop(dir);
    if dir_path.exists() {
        violations.push(format!(
            "scratch directory {} survived the run",
            dir_path.display()
        ));
    }

    // The second group of set-ups, now that the measured cluster is
    // gone: two clusters never share the process, so the peak RSS and
    // the allocation counts are one cluster's.
    drop(set_up_repeatedly(
        spec,
        seed,
        window,
        out_dir,
        &mut setup_times,
    )?);

    op_ms.sort_by(|a, b| a.partial_cmp(b).expect("durations are never NaN"));
    Ok(LiveResult {
        setup_s: setup_times.whole,
        setup_cluster_s: setup_times.cluster,
        slice_mibs,
        slice_cpu_s_per_gib,
        op_ms,
        attempted,
        failed,
        readbacks,
        readbacks_failed,
        payload_bytes,
        allocs,
        counters,
        rounds,
        requests,
        copy_bytes,
        rpc,
        cpu_total_ns,
        cpu_ticks,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    fn tiny() -> Window {
        Window {
            warmup: Duration::from_millis(20),
            slice: Duration::from_millis(40),
            slices: 2,
            setups: 1,
            setup_bytes: 0,
        }
    }

    fn out_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }

    #[test]
    fn a_clean_run_verifies_and_pins_its_frames() {
        let spec = workload::find("cyclic_list_read").unwrap();
        let r = run(spec, 1, tiny(), Sabotage::default(), &out_dir(), None).unwrap();
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(r.attempted >= 2 && r.failed == 0);
        assert_eq!(r.counters.frames_rx, 64 * r.attempted);
        assert_eq!(r.slice_mibs.len(), 2);
        assert!(r.payload_bytes == r.attempted * 128 * 1024);
    }

    #[test]
    fn one_corrupt_expected_byte_fails_the_run() {
        let spec = workload::find("cyclic_list_read").unwrap();
        let sabotage = Sabotage {
            corrupt_expected: true,
        };
        let r = run(spec, 1, tiny(), sabotage, &out_dir(), None).unwrap();
        assert!(!r.violations.is_empty());
        assert!(r.failed > 0, "rank 0's reads must fail verification");
        assert!(
            r.failed < r.attempted || r.attempted < 8,
            "other ranks still pass"
        );
    }

    #[test]
    fn a_durable_write_run_survives_reopening_and_cleans_up() {
        let spec = workload::find("flash_list_write_durable").unwrap();
        let r = run(spec, 3, tiny(), Sabotage::default(), &out_dir(), None).unwrap();
        // `violations` would name a failed read-back after the reopen
        // and a data directory that outlived the run.
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert!(r.counters.journal_bytes >= r.payload_bytes);
        assert_eq!((r.readbacks, r.readbacks_failed), (4, 0));

        let sabotage = Sabotage {
            corrupt_expected: true,
        };
        let r = run(spec, 3, tiny(), sabotage, &out_dir(), None).unwrap();
        assert!(!r.violations.is_empty());
        assert_eq!(r.readbacks_failed, 2, "rank 0, before and after the reopen");
    }

    #[test]
    fn seed_changes_data_and_starting_rank() {
        assert_ne!(file_content(1, 64), file_content(2, 64));
        assert_eq!(file_content(7, 64), file_content(7, 64));
        assert_ne!(seed_byte(0), 0);
    }
}
