//! A counting global allocator for the allocation tests: it sees every
//! heap allocation in the process — client and daemons alike. A test
//! binary that uses it holds one test, so that no other test's thread
//! allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator with a call counter, a byte counter and a
/// live-byte gauge (with its high-water mark) in front.
struct Counting;

fn count(bytes: usize) {
    // Relaxed: the counters publish no other data.
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn release(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new block both count at the peak: a move holds both.
        count(new_size);
        release(layout.size());
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        release(layout.size());
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Make the process fit to count in: hermetic, as `perf` is — every
/// knob of the program is a `PVFS_*` variable (fault injection and
/// tracing among them), and the binary's one test may edit the
/// environment — and quiet. The harness's own thread, having spawned
/// the test, books it (its name, a timeout entry: four allocations)
/// whenever it is next scheduled, which on a busy box has been seen to
/// be after the first op counted: the counter is let come to rest first.
pub fn hermetic() {
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("PVFS_") {
            std::env::remove_var(name);
        }
    }
    let mut seen = ALLOCS.load(Ordering::Relaxed);
    loop {
        std::thread::sleep(std::time::Duration::from_millis(10));
        match ALLOCS.load(Ordering::Relaxed) {
            now if now == seen => break,
            now => seen = now,
        }
    }
}

/// `(allocations, bytes requested)` of running `op`, process-wide.
pub fn allocated_by(op: impl FnOnce()) -> (u64, u64) {
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    op();
    (
        ALLOCS.load(Ordering::Relaxed) - before.0,
        BYTES.load(Ordering::Relaxed) - before.1,
    )
}

/// The most that running `op` ever held live above what was live when it
/// began, process-wide.
#[allow(dead_code)] // one test binary of two peeks
pub fn peak_above_start(op: impl FnOnce()) -> u64 {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    op();
    PEAK.load(Ordering::Relaxed) - start
}
