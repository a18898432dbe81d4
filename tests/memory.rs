//! Memory a long open-stream run retains.
//!
//! The shared counting allocator tracks live heap bytes. E-Ant runs an
//! open job stream with no observer attached at a horizon `H` and at `4H`;
//! the bytes freed by dropping the scheduler afterwards are what it kept
//! across the run. Its policy state covers the jobs in flight, not
//! every interval it has seen, so that figure must not grow with the
//! horizon.
//!
//! This file holds a single test: the allocator counts every thread of the
//! process, and a second test running alongside would pollute the count.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use cluster::Fleet;
use counting_alloc::live_bytes;
use eant::{EAntConfig, EAntScheduler};
use hadoop_sim::{Engine, EngineConfig, StopCondition};
use simcore::{SimDuration, SimRng};
use workload::arrival::OpenArrival;
use workload::open::{OpenJobTemplate, OpenStream, OpenStreamSpec};
use workload::BenchmarkKind;

/// Runs E-Ant without observers on an open Poisson stream over the paper
/// fleet for `horizon` and returns the heap bytes the scheduler held at
/// the end.
fn scheduler_bytes_after(horizon: SimDuration) -> isize {
    let stream = OpenStreamSpec {
        label: "soak".to_owned(),
        arrival: OpenArrival::Poisson { rate_per_min: 4.0 },
        templates: vec![
            OpenJobTemplate {
                benchmark: BenchmarkKind::Wordcount,
                size_class: None,
                maps: 16,
                reduces: 2,
                weight: 2.0,
            },
            OpenJobTemplate {
                benchmark: BenchmarkKind::Grep,
                size_class: None,
                maps: 12,
                reduces: 1,
                weight: 1.0,
            },
        ],
    };
    let cfg = EngineConfig {
        stop: StopCondition::Horizon {
            warmup: SimDuration::from_mins(10),
            measure: horizon - SimDuration::from_mins(10),
        },
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(Fleet::paper_evaluation(), cfg, 5);
    let mut rng = SimRng::seed_from(5).fork("serve");
    engine.attach_open_stream(OpenStream::new(&stream, 1.0, &mut rng));
    let mut eant = EAntScheduler::new(EAntConfig::paper_default(), 5);
    let service = engine
        .run(&mut eant)
        .service
        .expect("a horizon run has service stats");
    assert!(service.completions > 0, "the stream must make progress");
    drop(engine);
    let before = live_bytes();
    drop(eant);
    before - live_bytes()
}

#[test]
fn eant_memory_does_not_grow_with_the_horizon() {
    let hour = SimDuration::from_mins(60);
    let short = scheduler_bytes_after(hour);
    let long = scheduler_bytes_after(hour * 4);
    println!("E-Ant retains {short} B after 1 h and {long} B after 4 h");
    assert!(short > 0, "dropping the scheduler freed nothing");
    assert!(
        long as f64 <= 1.5 * short as f64,
        "E-Ant's retained heap grows with the horizon: {short} B after 1 h, {long} B after 4 h"
    );
}
