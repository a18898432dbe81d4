//! End-to-end integration: MSD workload → Hadoop engine → E-Ant, checking
//! cross-crate invariants a unit test cannot see.

use cluster::Fleet;
use eant::{EAntConfig, EAntScheduler};
use hadoop_sim::trace::{SharedObserver, VecRecorder};
use hadoop_sim::{Engine, EngineConfig, NoiseConfig, RunResult, TaskReport};
use simcore::{SimDuration, SimRng};
use workload::msd::MsdConfig;

fn msd_run(seed: u64, noise: NoiseConfig) -> (RunResult, Vec<TaskReport>) {
    let jobs = MsdConfig {
        num_jobs: 20,
        task_scale: 96,
        submission_window: SimDuration::from_mins(10),
    }
    .generate(&mut SimRng::seed_from(seed).fork("msd"));
    let total_tasks: u32 = jobs.iter().map(|j| j.num_tasks()).sum();

    let cfg = EngineConfig {
        noise,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(Fleet::paper_evaluation(), cfg, seed);
    engine.submit_jobs(jobs);
    // Reports arrive through the streaming observer channel — the engine
    // buffers none of its own.
    let recorder: SharedObserver<VecRecorder<TaskReport>> = SharedObserver::new(VecRecorder::new());
    engine.attach_report_observer(Box::new(recorder.clone()));
    let mut eant = EAntScheduler::new(EAntConfig::paper_default(), seed);
    let result = engine.run(&mut eant);
    drop(engine); // releases the engine's clone of the recorder
    let reports: Vec<TaskReport> = recorder
        .try_into_inner()
        .unwrap_or_else(|_| panic!("engine dropped its observer handle"))
        .into_events()
        .into_iter()
        .map(|(_, report)| report)
        .collect();
    assert_eq!(result.total_tasks, u64::from(total_tasks));
    (result, reports)
}

#[test]
fn msd_workload_drains_under_eant() {
    let (r, _) = msd_run(1, NoiseConfig::paper_default());
    assert!(r.drained);
    assert!(r.jobs.iter().all(|j| j.finished_at.is_some()));
    assert!(r.makespan > SimDuration::ZERO);
}

#[test]
fn task_conservation_across_layers() {
    let (r, reports) = msd_run(2, NoiseConfig::none());
    // Engine counter == sum of per-machine counters == number of reports.
    let machine_total: u64 = r.machines.iter().map(|m| m.total_tasks()).sum();
    assert_eq!(machine_total, r.total_tasks);
    assert_eq!(reports.len() as u64, r.total_tasks);
    // Interval assignment counts also conserve tasks.
    let assigned: u64 = r
        .intervals
        .iter()
        .flat_map(|s| s.assignments.values())
        .flat_map(|row| row.iter().map(|cell| u64::from(cell.starts)))
        .sum();
    assert_eq!(assigned, r.total_tasks);
}

#[test]
fn energy_accounting_is_consistent() {
    let (r, _) = msd_run(3, NoiseConfig::none());
    for m in &r.machines {
        assert!(m.energy_joules > 0.0);
        assert!(
            (m.idle_joules + m.workload_joules - m.energy_joules).abs() < 1e-6,
            "idle + workload must equal total on {}",
            m.machine
        );
        // Nothing can draw less than idle power for the whole run.
        assert!(m.idle_joules > 0.0);
    }
    // The energy series ends at the fleet total.
    let last = r.energy_series.last_value().expect("series non-empty");
    assert!((last - r.total_energy_joules()).abs() < 1e-6);
}

#[test]
fn reports_are_well_formed() {
    let (_, reports) = msd_run(4, NoiseConfig::paper_default());
    for rep in &reports {
        assert!(rep.finished_at > rep.started_at, "{}", rep.task);
        assert!(!rep.samples.is_empty(), "{}", rep.task);
        let sampled: f64 = rep.samples.iter().map(|s| s.dt_secs).sum();
        let dur = rep.execution_time().as_secs_f64();
        assert!(
            (sampled - dur).abs() < 0.01 * dur.max(1.0),
            "samples must tile the execution time: {sampled} vs {dur}"
        );
        assert!(rep.true_energy_joules > 0.0);
        assert!(rep
            .samples
            .iter()
            .all(|s| (0.0..=1.0).contains(&s.utilization)));
    }
}

#[test]
fn identical_seeds_reproduce_identical_runs() {
    let (a, a_reports) = msd_run(5, NoiseConfig::paper_default());
    let (b, b_reports) = msd_run(5, NoiseConfig::paper_default());
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.total_energy_joules(), b.total_energy_joules());
    assert_eq!(a_reports.len(), b_reports.len());
}

#[test]
fn different_seeds_differ() {
    let (a, _) = msd_run(6, NoiseConfig::paper_default());
    let (b, _) = msd_run(7, NoiseConfig::paper_default());
    assert_ne!(a.makespan, b.makespan);
}

#[test]
fn pheromone_state_is_released_when_jobs_finish() {
    let jobs = MsdConfig {
        num_jobs: 8,
        task_scale: 128,
        submission_window: SimDuration::from_mins(5),
    }
    .generate(&mut SimRng::seed_from(9).fork("msd"));
    let mut engine = Engine::new(Fleet::paper_evaluation(), EngineConfig::default(), 9);
    engine.submit_jobs(jobs);
    let mut eant = EAntScheduler::new(EAntConfig::paper_default(), 9);
    let result = engine.run(&mut eant);
    assert!(result.drained);
    assert_eq!(
        eant.pheromone_table().expect("initialized").jobs(),
        0,
        "finished colonies must release their rows"
    );
}
