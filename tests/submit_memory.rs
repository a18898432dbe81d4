//! Heap that job submission takes.
//!
//! A counting global allocator (std only) tracks live and peak heap bytes.
//! `Engine::submit_jobs` of the benchmark's scale-1000 job list — 2 000
//! MSD jobs with 398 376 map tasks on 1 000 machines — must grow the live
//! heap by less than a fixed bound. Submission registers each job; it places no block. The
//! blocks, the map queue and its per-machine locality counts appear at a
//! job's arrival and go at its completion. Placing every job's blocks at
//! submission grows the live heap by 21.7 MB here, far over the bound.
//!
//! This file holds a single test: the allocator counts every thread of the
//! process, and a second test running alongside would pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use experiments::scenario::{library_dir, load_spec, WorkloadSpec};
use hadoop_sim::Engine;
use simcore::SimDuration;

/// Live heap bytes of the whole process. A statistic that publishes no
/// other data, so `Relaxed` suffices.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// Highest value `LIVE` reached since the last [`reset_peak`].
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Jobs the benchmark's scale-1000 pass runs out of the scenario's 10 000.
const SCALE_JOBS: usize = 2000;

/// Live heap growth `submit_jobs` may cause on that job list, in bytes:
/// the 758 kB it takes, plus a 9 % margin.
const SUBMIT_BOUND: isize = 830_000;

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
fn scale_1000_submission_heap_is_bounded() {
    let mut spec =
        load_spec(&library_dir().join("scale-1000.json")).unwrap_or_else(|e| panic!("{e}"));
    // The benchmark's cut: fewer jobs in a proportionally shorter window,
    // so the arrival rate and the jobs in flight stay those of the file.
    let WorkloadSpec::Msd(cfg) = &mut spec.workload else {
        panic!("scale-1000.json no longer has an MSD workload");
    };
    let window = cfg.submission_window.as_secs_f64() * SCALE_JOBS as f64 / cfg.num_jobs as f64;
    cfg.submission_window = SimDuration::from_secs_f64(window);
    cfg.num_jobs = SCALE_JOBS;
    let seed = spec.seeds[0];
    let jobs = spec.jobs(seed, false);
    let maps: u64 = jobs.iter().map(|j| u64::from(j.num_maps())).sum();
    assert_eq!((jobs.len(), maps), (SCALE_JOBS, 398_376));
    let mut engine = Engine::new(spec.build_fleet(), spec.engine.clone(), seed);

    let before = reset_peak();
    engine.submit_jobs(jobs);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let live = LIVE.load(Ordering::Relaxed) - before;
    println!(
        "submit_jobs of {SCALE_JOBS} jobs ({maps} maps): live +{live} B, peak +{peak} B \
         (bound {SUBMIT_BOUND} B)"
    );
    assert!(
        live < SUBMIT_BOUND,
        "submit_jobs grew the live heap by {live} B, over the {SUBMIT_BOUND} B bound"
    );
    drop(engine);
}
