//! A counting global allocator: every heap allocation in the process,
//! client and daemons alike, bumps two relaxed counters. The counts are
//! the deterministic proxies for staging copies that the timings are
//! too noisy to show.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with allocation and byte counters in front.
pub struct Counting;

fn count(bytes: usize) {
    // Relaxed: the counters publish no other data.
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
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
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations and bytes requested since the process started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub allocs: u64,
    pub bytes: u64,
}

impl AllocCount {
    pub fn now() -> AllocCount {
        AllocCount {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_vec_and_its_growth() {
        let before = AllocCount::now();
        let mut v: Vec<u8> = Vec::with_capacity(100);
        v.extend_from_slice(&[1u8; 100]);
        v.reserve(1000);
        std::hint::black_box(&v);
        let d = AllocCount::now().since(before);
        // Other test threads may allocate too, so these are floors.
        assert!(d.allocs >= 2, "alloc + realloc, saw {}", d.allocs);
        assert!(d.bytes >= 1200, "100 + >=1100 bytes, saw {}", d.bytes);
    }
}
