//! Peak heap of one fleet-scale run.
//!
//! A counting global allocator (std only) tracks live and peak heap bytes.
//! The fast `scale-1000` cell — E-Ant draining 60 MSD jobs on 1 000
//! machines with no observer attached — must peak below a fixed bound.
//! What an engine keeps per run should follow the work done: one count per
//! machine that started a job's task in an interval, attempt state only
//! when speculation or fault injection reads it, block state only for the
//! jobs in flight, and E-Ant state per homogeneous machine group rather
//! than per machine. A per-interval row of `fleet` counts for every job, a
//! slot for every submitted task, the blocks of every submitted job, or a
//! pheromone row of `fleet` values per job pushes the peak over the bound.
//!
//! This file holds a single test: the allocator counts every thread of the
//! process, and a second test running alongside would pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use experiments::scenario::{library_dir, load_spec};

/// Live heap bytes of the whole process. A statistic that publishes no
/// other data, so `Relaxed` suffices.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// Highest value `LIVE` reached since the last [`reset_peak`].
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Peak heap the fast `scale-1000` cell may use, in bytes. An engine that
/// keeps a dense job × machine matrix per interval and a slot per task
/// peaks at 3.13 MB on this cell; the sparse form peaks at 2.56 MB while
/// it places every job's blocks at submission, and at 2.37 MB when it
/// places them at arrival and frees them at completion. With E-Ant's τ
/// and deposits stored per machine column, 16-byte feedback records and
/// 32-bit replica ids it peaks at 1.67 MB.
const PEAK_BOUND: isize = 1_750_000;

struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as isize, Ordering::Relaxed) + bytes as isize;
    PEAK.fetch_max(live, Ordering::Relaxed);
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
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub((layout.size() - new_size) as isize, Ordering::Relaxed);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Restarts peak tracking from the current live heap and returns it.
fn reset_peak() -> isize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

#[test]
fn scale_1000_fast_cell_peak_heap_is_bounded() {
    let spec = load_spec(&library_dir().join("scale-1000.json")).unwrap_or_else(|e| panic!("{e}"));
    let (kind, seed) = (&spec.schedulers[0], spec.seeds[0]);
    let before = reset_peak();
    let result = spec.execute(kind, seed, true);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(result.drained, "the fast scale-1000 cell must drain");
    assert_eq!(result.machines.len(), 1000);
    println!(
        "fast scale-1000 cell: {} tasks, peak heap {peak} B (bound {PEAK_BOUND} B)",
        result.total_tasks
    );
    assert!(
        peak < PEAK_BOUND,
        "the fast scale-1000 cell peaked at {peak} B of heap, over the {PEAK_BOUND} B bound"
    );
}
