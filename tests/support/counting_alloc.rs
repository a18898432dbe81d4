//! A counting global allocator (std only), shared by the heap-bound test
//! files through `#[path]`. It tracks the live heap bytes of the whole
//! process and the highest value they reached since the last
//! [`reset_peak`].
//!
//! Each file that includes it holds a single test: the allocator counts
//! every thread of the process, and a second test running alongside would
//! pollute the count.

// Each including file reads only the counters it needs.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Live heap bytes of the whole process. A statistic that publishes no
/// other data, so `Relaxed` suffices.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// Highest value `LIVE` reached since the last [`reset_peak`].
static PEAK: AtomicIsize = AtomicIsize::new(0);

struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as isize, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter updates
// touch no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Live heap bytes of the whole process.
pub fn live_bytes() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// Highest live heap since the last [`reset_peak`], in bytes.
pub fn peak_bytes() -> isize {
    PEAK.load(Ordering::Relaxed)
}

/// Restarts peak tracking from the current live heap and returns it.
pub fn reset_peak() -> isize {
    let live = live_bytes();
    PEAK.store(live, Ordering::Relaxed);
    live
}
