//! One (scheduler, seed) cell of a scenario, set up and run through the
//! public API in the same call sequence as
//! `ScenarioSpec::execute_scaled_observed` (and, with the registry
//! attached, as `scenario run`), with every step timed from outside.

use std::rc::Rc;
use std::time::{Duration, Instant};

use experiments::common::SchedulerKind;
use experiments::scenario::{RunRecord, ScenarioSpec, WorkloadSpec};
use hadoop_sim::trace::{Observer, SharedObserver};
use hadoop_sim::{Engine, RunResult, Scheduler, ServiceStats, SimEvent, StopCondition};
use metrics::emit::run_result_json;
use metrics::observers::StreamingRunStats;
use metrics::registry::RegistryObserver;
use simcore::{fnv1a_64, SimRng};
use workload::open::OpenStream;

use crate::probe::{CallTime, EventCounts, Probe, SchedTimes, TimingObserver, TimingScheduler};
use crate::proc_status;

/// Which observers ride along with the engine in one cell run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observers {
    /// None: the engine's emit fast path never builds an event.
    Bare,
    /// The sampling registry on engine and scheduler, plus the record and
    /// snapshot rendering `scenario run` does after each cell.
    Registry,
    /// [`StreamingRunStats`], checked against the result afterwards, and
    /// an [`EventCounts`] tally of the engine's events.
    Checking,
}

/// Host time of each set-up step.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// `ScenarioSpec::build_fleet`.
    pub fleet_build: Duration,
    /// `ScenarioSpec::jobs`.
    pub generate: Duration,
    /// `Engine::new`.
    pub engine_new: Duration,
    /// `Engine::submit_jobs` (HDFS block placement).
    pub submit: Duration,
    /// Open-stream attachment and scheduler construction.
    pub scheduler: Duration,
}

impl SetupTimes {
    /// Set-up time of the cell.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.fleet_build + self.generate + self.engine_new + self.submit + self.scheduler
    }
}

/// The parts of a [`RunResult`] the benchmark reports. The result itself
/// is dropped as soon as it is summarised and checked, so that the memory
/// a run retains is the simulator's, not the benchmark's.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Scheduler name.
    pub scheduler: String,
    /// Whether every job finished.
    pub drained: bool,
    /// Jobs the run knew of.
    pub jobs: u64,
    /// Completed tasks.
    pub tasks: u64,
    /// Finished task attempts: completed, wasted and failed.
    pub attempts: u64,
    /// Fleet energy, in joules.
    pub energy_j: f64,
    /// Simulated makespan, in seconds.
    pub makespan_s: f64,
    /// Service statistics of a horizon run.
    pub service: Option<ServiceStats>,
    /// Entries of the per-interval job × machine assignment matrices.
    pub interval_cells: u64,
    /// Every failed check; empty when the result is consistent.
    pub errors: Vec<String>,
}

impl Outcome {
    fn new(r: &RunResult, drains: bool) -> Outcome {
        Outcome {
            scheduler: r.scheduler.clone(),
            drained: r.drained,
            jobs: r.jobs.len() as u64,
            tasks: r.total_tasks,
            attempts: r.total_tasks + r.wasted_attempts + r.task_failures,
            energy_j: r.total_energy_joules(),
            makespan_s: r.makespan.as_secs_f64(),
            service: r.service.clone(),
            interval_cells: r
                .intervals
                .iter()
                .flat_map(|i| i.assignments.values())
                .map(|row| row.len() as u64)
                .sum(),
            errors: result_errors(r, drains),
        }
    }
}

/// Consistency checks on one result: drain runs drained with every job
/// finished, per-machine tasks and energy add up to the totals, and a
/// horizon run's service statistics are coherent.
fn result_errors(r: &RunResult, drains: bool) -> Vec<String> {
    let mut errors = Vec::new();
    if drains {
        if !r.drained {
            errors.push("did not drain".into());
        }
        let unfinished = r.jobs.iter().filter(|j| j.finished_at.is_none()).count();
        if unfinished > 0 {
            errors.push(format!("{unfinished} jobs without finished_at"));
        }
        if r.service.is_some() {
            errors.push("drain run carries service stats".into());
        }
    }
    let machine_tasks: u64 = r.machines.iter().map(|m| m.total_tasks()).sum();
    let bench_tasks: u64 = r
        .machines
        .iter()
        .flat_map(|m| m.tasks_by_benchmark.values())
        .sum();
    if machine_tasks != r.total_tasks || bench_tasks != r.total_tasks {
        errors.push(format!(
            "tasks: per machine {machine_tasks}, per benchmark {bench_tasks}, total {}",
            r.total_tasks
        ));
    }
    for m in &r.machines {
        let split = m.idle_joules + m.workload_joules;
        if (split - m.energy_joules).abs() > 1e-6 * m.energy_joules.max(1.0) {
            errors.push(format!(
                "machine {}: idle + workload {split} J != energy {} J",
                m.machine.index(),
                m.energy_joules
            ));
        }
    }
    let energy = r.total_energy_joules();
    let series_end = r.energy_series.last_value().unwrap_or(0.0);
    if energy <= 0.0 || (series_end - energy).abs() > 1e-9 * energy {
        errors.push(format!(
            "per-machine energy {energy} J != energy series end {series_end} J"
        ));
    }
    if !drains {
        match &r.service {
            None => errors.push("horizon run has no service stats".into()),
            Some(s) => {
                if s.completions > s.arrivals {
                    errors.push(format!(
                        "completions {} > arrivals {}",
                        s.completions, s.arrivals
                    ));
                }
                match (s.percentile(50), s.percentile(95), s.percentile(99)) {
                    (Some(p50), Some(p95), Some(p99)) if p50 <= p95 && p95 <= p99 => {}
                    other => errors.push(format!("sojourn percentiles out of order: {other:?}")),
                }
            }
        }
    }
    errors
}

/// What one cell run produced.
#[derive(Debug)]
pub struct CellRun {
    /// The cell's seed.
    pub seed: u64,
    /// The summarised, checked result.
    pub outcome: Outcome,
    /// FNV-1a of the canonical result JSON.
    pub digest: u64,
    /// Machines in the fleet.
    pub machines: u64,
    /// Jobs submitted up front.
    pub jobs: u64,
    /// HDFS blocks placed up front (one per map task).
    pub blocks: u64,
    /// Set-up step timings.
    pub setup: SetupTimes,
    /// VmRSS after set-up, in KiB.
    pub setup_rss_kb: u64,
    /// `Engine::run`.
    pub run: Duration,
    /// `RunRecord::new` and its rendering ([`Observers::Registry`] only).
    pub record: Duration,
    /// Registry and series snapshots and their rendering
    /// ([`Observers::Registry`] only).
    pub snapshot: Duration,
    /// Bytes of rendered record and snapshots.
    pub report_bytes: u64,
    /// Scheduler and observer timings, when the cell ran with wrappers.
    pub probe: Option<(SchedTimes, CallTime)>,
    /// Engine events by kind ([`Observers::Checking`] only).
    pub events: Option<EventCounts>,
}

impl CellRun {
    /// The measured part: the run, plus report synthesis when rendered.
    #[must_use]
    pub fn measured(&self) -> Duration {
        self.run + self.record + self.snapshot
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

fn take_shared<T>(handle: SharedObserver<T>) -> T {
    handle
        .try_into_inner()
        .unwrap_or_else(|_| panic!("an observer handle outlived the engine"))
}

/// A cell ready to run: the engine with its jobs submitted and the
/// scheduler built, plus what setting them up took.
pub struct Setup {
    engine: Engine,
    sched: Box<dyn Scheduler>,
    /// Set-up step timings.
    pub times: SetupTimes,
    /// Machines in the fleet.
    pub machines: u64,
    /// Jobs submitted up front.
    pub jobs: u64,
    /// HDFS blocks placed up front (one per map task).
    pub blocks: u64,
}

/// Builds the fleet, generates and submits the jobs and builds the
/// scheduler, timing each step.
#[must_use]
pub fn setup_cell(spec: &ScenarioSpec, kind: &SchedulerKind, seed: u64, fast: bool) -> Setup {
    let mut times = SetupTimes::default();
    let (fleet, t) = timed(|| spec.build_fleet());
    times.fleet_build = t;
    let machines = fleet.len() as u64;
    let (jobs, t) = timed(|| spec.jobs(seed, fast));
    times.generate = t;
    let num_jobs = jobs.len() as u64;
    let blocks = jobs.iter().map(|j| u64::from(j.num_maps())).sum();

    let mut config = spec.engine.clone();
    if let Some(serve) = &spec.serve {
        let (warmup, measure) = serve.horizon(fast);
        config.stop = StopCondition::Horizon { warmup, measure };
    }
    let (mut engine, t) = timed(|| Engine::new(fleet, config, seed));
    times.engine_new = t;
    let ((), t) = timed(|| engine.submit_jobs(jobs));
    times.submit = t;
    let (sched, t) = timed(|| {
        if let (Some(_), WorkloadSpec::Open(stream)) = (&spec.serve, spec.workload_for(fast)) {
            let mut rng = SimRng::seed_from(seed).fork("serve");
            engine.attach_open_stream(OpenStream::new(stream, 1.0, &mut rng));
        }
        kind.make(seed)
    });
    times.scheduler = t;
    Setup {
        engine,
        sched,
        times,
        machines,
        jobs: num_jobs,
        blocks,
    }
}

/// Sets up and runs one cell. With `timing`, the scheduler and every
/// attached observer are wrapped by the [`crate::probe`] wrappers.
///
/// # Panics
///
/// Panics where the simulator panics, and if an observer handle outlives
/// the engine.
#[must_use]
pub fn run_cell(
    spec: &ScenarioSpec,
    kind: &SchedulerKind,
    seed: u64,
    fast: bool,
    observers: Observers,
    timing: bool,
) -> CellRun {
    let Setup {
        mut engine,
        sched,
        times: setup,
        machines,
        jobs,
        blocks,
    } = setup_cell(spec, kind, seed, fast);

    let probe = timing.then(Probe::new);
    let wrap = |obs: Box<dyn Observer<SimEvent>>| -> Box<dyn Observer<SimEvent>> {
        match &probe {
            Some(p) => Box::new(TimingObserver::new(obs, Rc::clone(p))),
            None => obs,
        }
    };
    let mut sched: Box<dyn Scheduler> = match &probe {
        Some(p) => Box::new(TimingScheduler::new(sched, Rc::clone(p))),
        None => sched,
    };
    let mut registry = None;
    let mut streaming = None;
    let mut counting = None;
    match observers {
        Observers::Bare => {}
        Observers::Registry => {
            let reg = SharedObserver::new(RegistryObserver::with_sampling());
            engine.attach_observer(wrap(Box::new(reg.clone())));
            sched.attach_observer(wrap(Box::new(reg.clone())));
            registry = Some(reg);
        }
        Observers::Checking => {
            let stats = SharedObserver::new(StreamingRunStats::new(machines as usize));
            let counts = SharedObserver::new(EventCounts::default());
            engine.attach_observer(wrap(Box::new(stats.clone())));
            engine.attach_observer(wrap(Box::new(counts.clone())));
            streaming = Some(stats);
            counting = Some(counts);
        }
    }
    let setup_rss_kb = proc_status::kib("VmRSS");

    let (mut result, run) = timed(|| engine.run(sched.as_mut()));
    result.scheduler = sched.name().to_owned();
    drop(engine);
    drop(sched);

    let mut record = Duration::ZERO;
    let mut snapshot = Duration::ZERO;
    let mut report_bytes = 0;
    if let Some(reg) = registry {
        let (bytes, t) = timed(|| {
            let rec = RunRecord::new(spec, kind, seed, fast, &result);
            rec.to_json().render().len()
        });
        record = t;
        report_bytes += bytes;
        let (bytes, t) = timed(|| {
            let reg = take_shared(reg);
            let series = reg
                .series_snapshot()
                .expect("a sampling registry has a series snapshot");
            reg.registry().snapshot().render().len() + series.to_json().render().len()
        });
        snapshot = t;
        report_bytes += bytes;
    }

    let digest = fnv1a_64(run_result_json(&result).as_bytes());
    let mut outcome = Outcome::new(&result, spec.serve.is_none());
    if let Some(Err(e)) = streaming.map(|s| take_shared(s).matches(&result)) {
        outcome
            .errors
            .push(format!("streaming stats disagree: {e}"));
    }
    CellRun {
        outcome,
        events: counting.map(take_shared),
        probe: probe.map(|p| (p.sched(), p.observe())),
        digest,
        seed,
        machines,
        jobs,
        blocks,
        setup,
        setup_rss_kb,
        run,
        record,
        snapshot,
        report_bytes: report_bytes as u64,
    }
}
