//! Determinism and correctness of open-stream (service-mode) runs.
//!
//! Mirrors `determinism.rs` for the horizon-stopped engine: the same seed
//! must produce byte-identical serialized results for poisson, diurnal and
//! bursty open streams regardless of sweep thread count and across
//! consecutive runs. On top of that, the lazily-pulled stream must match
//! an eagerly materialized oracle over the finite horizon — the engine
//! never perturbs the stream's RNG, and no arrival inside the horizon is
//! lost or reordered. Likewise the blocks the engine places at each job's
//! arrival must be the ones an eager placement in job-id order draws.

use cluster::hdfs::{locality, Block, BlockId, BlockPlacer};
use cluster::{profiles, Fleet, MachineId, SlotKind};
use eant::EAntConfig;
use experiments::common::{parallel_runs_with_workers, SchedulerKind};
use experiments::scenario::{
    FleetSpec, ScenarioSpec, ServeSpec, ServeTolerance, Tolerance, WorkloadSpec,
};
use hadoop_sim::trace::{SharedObserver, VecRecorder};
use hadoop_sim::{Engine, EngineConfig, GreedyScheduler, RunResult, StopCondition, TaskReport};
use metrics::emit::{run_result_json, ToJson};
use simcore::{SimDuration, SimRng, SimTime};
use workload::arrival::{DiurnalPeak, DiurnalProfile, OpenArrival};
use workload::open::{OpenJobTemplate, OpenStream, OpenStreamSpec};
use workload::{Benchmark, BenchmarkKind, JobId, JobSpec, SizeClass};

const WARMUP_S: u64 = 180;
const MEASURE_S: u64 = 900;

/// The three open arrival laws, at rates the paper fleet sustains.
fn open_laws() -> Vec<(&'static str, OpenArrival)> {
    vec![
        ("poisson", OpenArrival::Poisson { rate_per_min: 4.0 }),
        (
            "diurnal",
            OpenArrival::Diurnal {
                profile: DiurnalProfile {
                    base_per_min: 2.0,
                    peaks: vec![DiurnalPeak {
                        center_s: 300.0,
                        width_s: 120.0,
                        extra_per_min: 5.0,
                    }],
                },
                period_s: 600.0,
            },
        ),
        (
            "bursty",
            OpenArrival::Bursty {
                bursts_per_min: 1.0,
                burst_min: 2,
                burst_max: 5,
            },
        ),
    ]
}

fn stream_spec(label: &str, arrival: OpenArrival) -> OpenStreamSpec {
    OpenStreamSpec {
        label: label.to_owned(),
        arrival,
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
                size_class: Some(SizeClass::Small),
                maps: 12,
                reduces: 1,
                weight: 1.0,
            },
        ],
    }
}

/// A small service-mode scenario around one open stream.
fn serve_scenario(label: &str, arrival: OpenArrival) -> ScenarioSpec {
    ScenarioSpec {
        name: format!("service-{label}"),
        description: String::new(),
        seeds: vec![11],
        schedulers: vec![SchedulerKind::Fair],
        workload: WorkloadSpec::Open(stream_spec(label, arrival)),
        fast_workload: None,
        serve: Some(ServeSpec {
            warmup: SimDuration::from_secs(WARMUP_S),
            measure: SimDuration::from_secs(MEASURE_S),
            fast_warmup: None,
            fast_measure: None,
            tolerance: ServeTolerance::default(),
        }),
        slo: None,
        fleet: FleetSpec::Paper,
        engine: EngineConfig::default(),
        tolerance: Tolerance::default(),
    }
}

/// Runs one serve cell with a streaming report recorder attached, so the
/// serialized bytes cover per-task reports as well as the result.
fn run_with_reports(spec: &ScenarioSpec, kind: &SchedulerKind) -> (RunResult, Vec<TaskReport>) {
    let recorder: SharedObserver<VecRecorder<TaskReport>> = SharedObserver::new(VecRecorder::new());
    let handle = recorder.clone();
    let result = spec.execute_scaled_observed(kind, spec.seeds[0], false, 1.0, move |engine, _| {
        engine.attach_report_observer(Box::new(handle));
    });
    let reports = recorder
        .try_into_inner()
        .unwrap_or_else(|_| panic!("engine dropped its observer handle"))
        .into_events()
        .into_iter()
        .map(|(_, report)| report)
        .collect();
    (result, reports)
}

fn run_bytes((result, reports): &(RunResult, Vec<TaskReport>)) -> String {
    let mut out = run_result_json(result);
    for report in reports {
        out.push('\n');
        out.push_str(&report.to_json().render());
    }
    out
}

/// The (arrival law × scheduler) sweep on `workers` threads.
fn sweep(workers: usize) -> Vec<String> {
    let kinds = [
        SchedulerKind::Fair,
        SchedulerKind::EAnt(EAntConfig::paper_default()),
    ];
    let tasks: Vec<_> = open_laws()
        .into_iter()
        .flat_map(|(label, arrival)| {
            kinds.iter().map(move |kind| {
                let kind = kind.clone();
                let spec = serve_scenario(label, arrival.clone());
                move || run_with_reports(&spec, &kind)
            })
        })
        .collect();
    parallel_runs_with_workers(workers, tasks)
        .iter()
        .map(run_bytes)
        .collect()
}

/// Open-stream runs are thread-count invariant: the worker pool decides
/// only when a cell runs, never what it computes.
#[test]
fn open_stream_sweep_is_thread_count_invariant() {
    let single = sweep(1);
    let multi = sweep(4);
    assert_eq!(single.len(), multi.len());
    for (i, (a, b)) in single.iter().zip(&multi).enumerate() {
        assert_eq!(a, b, "run {i} differs between 1-thread and 4-thread sweeps");
    }
}

/// Two consecutive sweeps in one process agree: no global mutable state
/// leaks between horizon runs.
#[test]
fn consecutive_open_stream_sweeps_agree() {
    let first = sweep(2);
    let second = sweep(2);
    assert_eq!(first, second);
}

/// Property: the engine's lazily-pulled stream equals an eagerly
/// materialized oracle over the horizon. For every arrival law and a
/// handful of seeds, registering jobs one arrival at a time (interleaved
/// with all engine activity) must yield exactly the jobs an up-front
/// materialization of the same stream produces with `submit_at` inside
/// the horizon — same ids, benchmarks, task counts and submit times.
#[test]
fn lazy_stream_matches_eager_oracle_over_horizon() {
    let deadline =
        SimTime::ZERO + SimDuration::from_secs(WARMUP_S) + SimDuration::from_secs(MEASURE_S);
    for (label, arrival) in open_laws() {
        for seed in [3u64, 11, 2015] {
            let mut spec = serve_scenario(label, arrival.clone());
            spec.seeds = vec![seed];
            let result = spec.execute(&SchedulerKind::Fair, seed, false);

            // The oracle replays the exact stream construction the
            // scenario layer performs: same fork label, same rate scale.
            let mut rng = SimRng::seed_from(seed).fork("serve");
            let mut oracle = OpenStream::new(&stream_spec(label, arrival.clone()), 1.0, &mut rng);
            let mut expected = Vec::new();
            loop {
                let job = oracle.next_job(JobId(expected.len() as u64));
                if job.submit_at() > deadline {
                    break;
                }
                expected.push(job);
            }

            assert_eq!(
                result.jobs.len(),
                expected.len(),
                "{label} seed {seed}: lazy run registered {} jobs, oracle materialized {}",
                result.jobs.len(),
                expected.len()
            );
            for (out, exp) in result.jobs.iter().zip(&expected) {
                assert_eq!(out.id, exp.id(), "{label} seed {seed}");
                assert_eq!(out.submitted_at, exp.submit_at(), "{label} seed {seed}");
                assert_eq!(
                    out.benchmark,
                    exp.benchmark().kind().to_string(),
                    "{label} seed {seed}"
                );
                assert_eq!(out.total_tasks, exp.num_tasks(), "{label} seed {seed}");
            }
        }
    }
}

/// One pre-registered job of a placement workload, with its explicit
/// blocks when it is submitted through `submit_job_with_blocks`.
type PlacementJob = (JobSpec, Option<Vec<Block>>);

/// A pre-registered job arriving at `submit_s`; `explicit` gives map `i`
/// the single replica `machine (3·id + i) mod 24`.
fn placement_job(id: u64, maps: u32, submit_s: u64, explicit: bool) -> PlacementJob {
    let spec = JobSpec::new(
        JobId(id),
        Benchmark::wordcount(),
        maps,
        1,
        SimTime::ZERO + SimDuration::from_secs(submit_s),
    );
    let blocks = explicit.then(|| {
        (0..maps as u64)
            .map(|i| Block {
                id: BlockId(i),
                replicas: vec![MachineId(((3 * id + i) % 24) as usize)],
            })
            .collect()
    });
    (spec, blocks)
}

/// Runs `jobs`, then the open `stream` if any, under the greedy scheduler
/// and checks every map report's locality against an eager oracle: blocks
/// placed up front in job-id order from the engine's placement stream.
/// Returns the run so the caller can check how it ended.
fn assert_placement_matches_eager_oracle(
    label: &str,
    seed: u64,
    jobs: Vec<PlacementJob>,
    stream: Option<OpenStreamSpec>,
    stop: StopCondition,
) -> RunResult {
    let fleet = Fleet::builder()
        .add(profiles::desktop(), 12)
        .add(profiles::xeon_e5(), 12)
        .rack_size(6)
        .build()
        .unwrap();
    let stream_rng = || SimRng::seed_from(seed).fork("serve");
    let config = EngineConfig {
        stop,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(fleet.clone(), config, seed);
    for (spec, blocks) in jobs.clone() {
        match blocks {
            Some(blocks) => engine.submit_job_with_blocks(spec, blocks),
            None => engine.submit_jobs(vec![spec]),
        }
    }
    if let Some(stream) = &stream {
        engine.attach_open_stream(OpenStream::new(stream, 1.0, &mut stream_rng()));
    }
    let recorder: SharedObserver<VecRecorder<TaskReport>> = SharedObserver::new(VecRecorder::new());
    engine.attach_report_observer(Box::new(recorder.clone()));
    let result = engine.run(&mut GreedyScheduler::new());
    drop(engine);
    let reports: Vec<TaskReport> = recorder
        .try_into_inner()
        .unwrap_or_else(|_| panic!("engine dropped its observer handle"))
        .into_events()
        .into_iter()
        .map(|(_, report)| report)
        .filter(|report| report.kind == SlotKind::Map)
        .collect();
    assert!(!reports.is_empty(), "{label} seed {seed}: no map ran");

    // The oracle: every job's blocks, placed eagerly in id order.
    let mut specs: Vec<PlacementJob> = jobs;
    if let Some(stream) = &stream {
        let mut twin = OpenStream::new(stream, 1.0, &mut stream_rng());
        let last = reports.iter().map(|r| r.task.job.index()).max().unwrap();
        while specs.len() <= last {
            specs.push((twin.next_job(JobId(specs.len() as u64)), None));
        }
    }
    let mut rng = SimRng::seed_from(seed).fork("placement");
    let mut placer = BlockPlacer::new(3);
    let oracle: Vec<Vec<Vec<MachineId>>> = specs
        .into_iter()
        .map(|(spec, blocks)| {
            blocks
                .unwrap_or_else(|| placer.place(&fleet, spec.num_maps() as usize, &mut rng))
                .into_iter()
                .map(|block| block.replicas)
                .collect()
        })
        .collect();
    for report in &reports {
        let replicas = &oracle[report.task.job.index()][report.task.task.index as usize];
        assert_eq!(
            report.locality,
            Some(locality(&fleet, replicas, report.machine)),
            "{label} seed {seed}: {:?} on {}",
            report.task,
            report.machine
        );
    }
    result
}

/// Property: placing each job's blocks at its arrival draws the same
/// layout as placing every job's blocks up front in job-id order —
/// whatever order the jobs arrive in, with explicitly placed jobs among
/// them, with an open stream behind pre-registered jobs, and when the
/// horizon cuts before the last arrivals.
#[test]
fn lazy_placement_matches_eager_oracle() {
    let horizon = StopCondition::Horizon {
        warmup: SimDuration::from_secs(60),
        measure: SimDuration::from_secs(600),
    };
    for seed in [1u64, 7, 2015] {
        // Arrival order is the reverse of id order.
        let reversed = (0..8)
            .map(|id| placement_job(id, 6 + id as u32, (8 - id) * 40, false))
            .collect();
        let run = assert_placement_matches_eager_oracle(
            "reversed",
            seed,
            reversed,
            None,
            StopCondition::Drain,
        );
        assert!(run.drained);

        // Explicitly placed jobs interleaved with placed ones, arriving
        // out of id order.
        let interleaved = (0..8)
            .map(|id| placement_job(id, 8, (id * 5 % 8) * 30, id % 2 == 1))
            .collect();
        let run = assert_placement_matches_eager_oracle(
            "interleaved",
            seed,
            interleaved,
            None,
            StopCondition::Drain,
        );
        assert!(run.drained);

        // Pre-registered jobs, some arriving after the stream's first
        // jobs, with an open stream continuing the ids.
        let mixed = [0, 400, 30, 500, 120]
            .iter()
            .enumerate()
            .map(|(id, &at)| placement_job(id as u64, 10, at, id == 2))
            .collect();
        let stream = stream_spec("poisson", OpenArrival::Poisson { rate_per_min: 3.0 });
        assert_placement_matches_eager_oracle("mixed", seed, mixed, Some(stream), horizon);

        // The horizon (660 s) cuts before jobs 2 and 6 arrive. Job 2 is
        // placed anyway, in id order, when job 3 arrives; job 6 never is.
        let cut = (0..7)
            .map(|id| {
                let at = if id == 2 || id == 6 { 5_000 } else { id * 60 };
                placement_job(id, 8, at, false)
            })
            .collect();
        let run = assert_placement_matches_eager_oracle("cut", seed, cut, None, horizon);
        assert!(!run.drained);
    }
}

/// Structural invariants of the emitted [`hadoop_sim::ServiceStats`]: the
/// percentile ladder is monotone, completions never exceed measured
/// arrivals plus the warm-up backlog, and energy attribution is positive.
#[test]
fn service_stats_are_coherent() {
    for (label, arrival) in open_laws() {
        let spec = serve_scenario(label, arrival);
        let result = spec.execute(&SchedulerKind::Fair, 11, false);
        let stats = result.service.as_ref().expect("serve run has stats");
        assert!(stats.arrivals > 0, "{label}: no arrivals in the window");
        assert!(stats.completions > 0, "{label}: nothing completed");
        let (p50, p95, p99) = (
            stats.percentile(50).expect("p50"),
            stats.percentile(95).expect("p95"),
            stats.percentile(99).expect("p99"),
        );
        assert!(
            p50 <= p95 && p95 <= p99,
            "{label}: percentiles not monotone"
        );
        assert!(
            stats.mean_sojourn <= p99,
            "{label}: mean sojourn exceeds p99"
        );
        assert!(stats.energy_joules > 0.0, "{label}: no window energy");
        assert!(stats.energy_per_job > 0.0, "{label}: no per-job energy");
        assert!(
            (stats.warmup_s - WARMUP_S as f64).abs() < 1e-9
                && (stats.measure_s - MEASURE_S as f64).abs() < 1e-9,
            "{label}: window bookkeeping off"
        );
    }
}

/// An offered load beyond cluster capacity never drains: the run ends at
/// the horizon with a growing backlog, and the result says so.
#[test]
fn overloaded_stream_never_drains() {
    let spec = serve_scenario(
        "overload",
        OpenArrival::Bursty {
            bursts_per_min: 3.0,
            burst_min: 5,
            burst_max: 8,
        },
    );
    let result = spec.execute(&SchedulerKind::Fair, 11, false);
    assert!(!result.drained, "overloaded run claims to have drained");
    let stats = result.service.expect("serve run has stats");
    assert!(
        stats.backlog > 10,
        "expected a deep backlog under overload, got {}",
        stats.backlog
    );
    assert!(
        stats.arrivals > stats.completions,
        "overload must outpace completions"
    );
}

/// Drain-mode runs are untouched by the service layer: no `service`
/// section, and the stop condition stays `Drain` through the spec path.
#[test]
fn drain_runs_carry_no_service_stats() {
    use workload::msd::MsdConfig;

    let spec = ScenarioSpec {
        name: "drain".into(),
        description: String::new(),
        seeds: vec![11],
        schedulers: vec![SchedulerKind::Fair],
        workload: WorkloadSpec::Msd(MsdConfig {
            num_jobs: 4,
            task_scale: 32,
            submission_window: SimDuration::from_mins(4),
        }),
        fast_workload: None,
        serve: None,
        slo: None,
        fleet: FleetSpec::Paper,
        engine: EngineConfig::default(),
        tolerance: Tolerance::default(),
    };
    let result = spec.execute(&SchedulerKind::Fair, 11, false);
    assert!(result.drained);
    assert!(result.service.is_none());
    assert!(!run_result_json(&result).contains("\"service\""));
}
