//! What the harness asks of the operating system: CPU pinning, CPU
//! clocks, peak memory, steal time, and a few facts for the `config`
//! block. Linux only — it reads `/proc` and calls a few libc functions
//! the standard library does not expose.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perf pins with sched_setaffinity and reads /proc: 64-bit Linux only");

use std::path::Path;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Hold glibc malloc still: blocks up to 32 MiB come from the heap
/// rather than a fresh `mmap`, freed heap is kept rather than trimmed,
/// and every thread allocates from one arena. Returns whether all three
/// calls took.
///
/// Left adaptive, both thresholds follow the allocation history, so
/// whether a 192 KiB frame costs an `mmap`, ~50 page faults and a
/// `munmap` depends on what was freed before it — and what a page fault
/// costs follows the host's memory state. Ten interleaved pairs of
/// `tiled_list_read` runs on this box: set-up spread 15.9 % → 4.0 %,
/// goodput spread 4.7 % → 1.6 %, medians unmoved (793.8 vs 797.3 MiB/s).
///
/// Left to itself glibc also gives the twenty-odd threads of a cluster
/// up to sixteen arenas, chosen by who contends with whom at the moment
/// a thread first allocates; what the arenas hold in free lists is half
/// of the resident set and differs from run to run (`cyclic_list_write`:
/// 24.3–25.6 MiB over four runs; with one arena 11.1–11.3). The process
/// is pinned to one CPU, so one arena costs it no parallelism.
///
/// These are settings of the benchmark, the same on every commit it
/// measures.
pub fn hold_malloc_still() -> bool {
    #[cfg(target_env = "gnu")]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` only stores three integers in the
        // allocator's parameters; called before any other thread exists.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
                && mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1
                && mallopt(M_ARENA_MAX, 1) == 1
        }
    }
    #[cfg(not(target_env = "gnu"))]
    false
}

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the
    // duration of the call, and both clock ids exist on every Linux.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User + system CPU time of the whole process (every thread, client
/// and daemons), at nanosecond resolution. `/proc/self/stat` carries
/// the same quantity in 10 ms ticks, too coarse for the workload that
/// mostly sleeps.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread only.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Pin the process to the last CPU it is allowed to run on and return
/// that CPU; `None` when the kernel refuses (the run then says
/// `"pinned": false`). Call before spawning any thread: threads inherit
/// the mask.
///
/// Unpinned, the same workload flips between two modes depending on
/// which vCPU the scheduler wakes a daemon worker on (see README.md);
/// pinned, what is measured is the CPU path length of the program.
pub fn pin_to_last_cpu() -> Option<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| set[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// CPUs the process may use right now.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Clock ticks (1/100 s) of one CPU — or of the whole machine when
/// `cpu` is `None` — since boot, from `/proc/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks {
    /// Taken by the hypervisor for another guest.
    pub steal: u64,
    /// Running anything: user, nice, system, irq, softirq.
    pub busy: u64,
    pub total: u64,
}

impl CpuTicks {
    pub fn since(self, earlier: CpuTicks) -> CpuTicks {
        CpuTicks {
            steal: self.steal.saturating_sub(earlier.steal),
            busy: self.busy.saturating_sub(earlier.busy),
            total: self.total.saturating_sub(earlier.total),
        }
    }
}

pub fn cpu_ticks(cpu: Option<usize>) -> CpuTicks {
    let label = cpu.map_or("cpu".to_string(), |c| format!("cpu{c}"));
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    for line in stat.lines() {
        let mut fields = line.split_whitespace();
        if fields.next() != Some(label.as_str()) {
            continue;
        }
        // user nice system idle iowait irq softirq steal
        let t: Vec<u64> = fields.take(8).filter_map(|f| f.parse().ok()).collect();
        if t.len() == 8 {
            return CpuTicks {
                steal: t[7],
                busy: t[0] + t[1] + t[2] + t[5] + t[6],
                total: t.iter().sum(),
            };
        }
    }
    CpuTicks::default()
}

/// Filesystem type under `path`: the longest mount point in
/// `/proc/mounts` that prefixes it.
pub fn fs_type(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: (usize, &str) = (0, "unknown");
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        let (Some(_dev), Some(mount), Some(fstype)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fstype);
        }
    }
    best.1.to_string()
}

/// The commit the benchmark was built from, read from `.git` without
/// spawning a process; `"unknown"` in a checkout that is not a
/// repository (the driver's).
pub fn git_rev(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev.chars().take(12).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_ns(), thread_cpu_ns());
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > t0);
        assert!(process_cpu_ns() > p0);
    }

    #[test]
    fn proc_readers_find_their_fields() {
        assert!(peak_rss_kib() > 0);
        let t = cpu_ticks(None);
        assert!(t.total > 0 && t.steal + t.busy <= t.total);
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
        assert!(nproc() >= 1);
    }
}
