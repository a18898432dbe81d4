//! Peak heap of one fleet-scale run.
//!
//! The shared counting allocator tracks live and peak heap bytes. The fast `scale-1000` cell — E-Ant draining 60 MSD jobs on 1 000
//! machines with no observer attached — must peak below a fixed bound.
//! What an engine keeps per run should follow the work done: one count per
//! machine that started a job's task in an interval, attempt state only
//! when speculation or fault injection reads it, block state only for the
//! jobs in flight (and, with neither, block replicas only for jobs with a
//! map still pending), and E-Ant state per homogeneous machine group
//! rather than per machine. A per-interval row of `fleet` counts for every
//! job, a slot for every submitted task, the blocks of every submitted
//! job, or a pheromone row of `fleet` values per job pushes the peak over
//! the bound.
//!
//! This file holds a single test: the allocator counts every thread of the
//! process, and a second test running alongside would pollute the count.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{peak_bytes, reset_peak};
use experiments::scenario::{library_dir, load_spec};

/// Peak heap the fast `scale-1000` cell may use, in bytes. An engine that
/// keeps a dense job × machine matrix per interval and a slot per task
/// peaks at 3.13 MB on this cell; the sparse form peaks at 2.56 MB while
/// it places every job's blocks at submission, and at 2.37 MB when it
/// places them at arrival and frees them at completion. With E-Ant's τ
/// and deposits stored per machine column, 16-byte feedback records and
/// 32-bit replica ids it peaks at 1.67 MB. Freeing a job's replicas once
/// its last map starts, folding each interval row at its exact length and
/// logging a start in 8 bytes brings it to 1.35 MB, and packing each
/// interval's assignment matrix into 8-byte cells to 1.32 MB.
const PEAK_BOUND: isize = 1_340_000;

#[test]
fn scale_1000_fast_cell_peak_heap_is_bounded() {
    let spec = load_spec(&library_dir().join("scale-1000.json")).unwrap_or_else(|e| panic!("{e}"));
    let (kind, seed) = (&spec.schedulers[0], spec.seeds[0]);
    let before = reset_peak();
    let result = spec.execute(kind, seed, true);
    let peak = peak_bytes() - before;
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
