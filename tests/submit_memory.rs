//! Heap that job submission takes.
//!
//! The shared counting allocator tracks live and peak heap bytes.
//! `Engine::submit_jobs` of the benchmark's scale-1000 job list — 2 000
//! MSD jobs with 398 376 map tasks on 1 000 machines — must grow the live
//! heap by less than a fixed bound. Submission registers each job; it places no block. The
//! blocks, the map queue and its per-machine locality counts appear at a
//! job's arrival and go at its completion. Placing every job's blocks at
//! submission grows the live heap by 21.7 MB here, far over the bound.
//!
//! This file holds a single test: the allocator counts every thread of the
//! process, and a second test running alongside would pollute the count.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{live_bytes, peak_bytes, reset_peak};
use experiments::scenario::{library_dir, load_spec, WorkloadSpec};
use hadoop_sim::Engine;
use simcore::SimDuration;

/// Jobs the benchmark's scale-1000 pass runs out of the scenario's 10 000.
const SCALE_JOBS: usize = 2000;

/// Live heap growth `submit_jobs` may cause on that job list, in bytes:
/// the 758 kB it takes, plus a 9 % margin.
const SUBMIT_BOUND: isize = 830_000;

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
    let peak = peak_bytes() - before;
    let live = live_bytes() - before;
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
