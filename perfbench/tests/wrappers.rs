//! The timing wrappers must not change what the simulator computes: for
//! each of the four schedulers, a run through `TimingScheduler` and
//! `TimingObserver` gives the same result digest as a plain run, and the
//! wrapper forwards the methods a scheduler overrides.

use eant::EAntConfig;
use experiments::common::SchedulerKind;
use experiments::scenario::{library_dir, load_spec, ScenarioSpec};
use hadoop_sim::trace::{Observer, SharedObserver};
use hadoop_sim::{Engine, RunResult, Scheduler, SimEvent};
use metrics::emit::run_result_json;
use perfbench::cell::{run_cell, Observers};
use perfbench::probe::{EventCounts, Probe, TimingObserver, TimingScheduler};
use simcore::{fnv1a_64, SimTime};

const SEED: u64 = 2015;

fn fast_spec() -> ScenarioSpec {
    load_spec(&library_dir().join("fig8-msd.json")).expect("committed scenario parses")
}

fn kinds() -> [SchedulerKind; 4] {
    [
        SchedulerKind::Fifo,
        SchedulerKind::Fair,
        SchedulerKind::Tarazu,
        SchedulerKind::EAnt(EAntConfig::default()),
    ]
}

fn digest(result: &RunResult) -> u64 {
    fnv1a_64(run_result_json(result).as_bytes())
}

/// Decision events seen, and how many carried E-Ant's Eq. 8 scores.
#[derive(Default)]
struct Decisions {
    total: u64,
    scored: u64,
}

impl Observer<SimEvent> for Decisions {
    fn on_event(&mut self, _at: SimTime, event: &SimEvent) {
        if let SimEvent::AssignmentDecision { candidates, .. } = event {
            self.total += 1;
            self.scored += u64::from(candidates.iter().any(|c| c.tau.is_some()));
        }
    }
}

/// A run with every wrapper in place: the scheduler wrapped, the
/// scheduler's own event stream and the engine's stream both observed
/// through timing observers.
fn wrapped_run(
    spec: &ScenarioSpec,
    kind: &SchedulerKind,
) -> (RunResult, EventCounts, Decisions, std::rc::Rc<Probe>) {
    let mut engine = Engine::new(spec.build_fleet(), spec.engine.clone(), SEED);
    engine.submit_jobs(spec.jobs(SEED, true));
    let probe = Probe::new();
    let mut sched = TimingScheduler::new(kind.make(SEED), probe.clone());
    let policy_events = SharedObserver::new(EventCounts::default());
    sched.attach_observer(Box::new(TimingObserver::new(
        Box::new(policy_events.clone()),
        probe.clone(),
    )));
    let decisions = SharedObserver::new(Decisions::default());
    engine.attach_observer(Box::new(TimingObserver::new(
        Box::new(decisions.clone()),
        probe.clone(),
    )));
    let mut result = engine.run(&mut sched);
    result.scheduler = sched.name().to_owned();
    drop(engine);
    drop(sched);
    (result, inner(policy_events), inner(decisions), probe)
}

fn inner<T>(handle: SharedObserver<T>) -> T {
    handle
        .try_into_inner()
        .unwrap_or_else(|_| panic!("engine retained an observer"))
}

#[test]
fn wrapped_runs_match_plain_runs() {
    let spec = fast_spec();
    for kind in kinds() {
        let plain = spec.execute(&kind, SEED, true);
        let (wrapped, policy_events, _, probe) = wrapped_run(&spec, &kind);
        assert_eq!(wrapped.scheduler, plain.scheduler);
        assert_eq!(
            digest(&wrapped),
            digest(&plain),
            "{} changed under the wrappers",
            kind.label()
        );
        let sched = probe.sched();
        assert!(sched.select.calls > 0 && sched.task_report.calls > 0);
        assert_eq!(sched.task_report.calls, plain.total_tasks);
        assert_eq!(sched.job_submit.calls, plain.jobs.len() as u64);
        assert_eq!(sched.job_complete.calls, plain.jobs.len() as u64);
        assert_eq!(sched.select_ns.len() as u64, sched.select.calls);
        // E-Ant publishes pheromone updates on its own stream; they reach
        // the observer only if `attach_observer` was forwarded.
        let eant = matches!(kind, SchedulerKind::EAnt(_));
        assert_eq!(policy_events.get("pheromone_updated") > 0, eant);

        // The benchmark's own cell runner, monitored and timed, agrees too.
        let cell = run_cell(&spec, &kind, SEED, true, Observers::Registry, true);
        assert_eq!(cell.digest, digest(&plain), "{} cell digest", kind.label());
        assert!(cell.outcome.errors.is_empty(), "{:?}", cell.outcome.errors);
        assert!(cell.report_bytes > 0);
    }
}

#[test]
fn wrapper_forwards_traced_selection() {
    let mut spec = fast_spec();
    spec.engine.trace_decisions = true;
    for kind in kinds() {
        let plain = spec.execute(&kind, SEED, true);
        let (wrapped, _, decisions, probe) = wrapped_run(&spec, &kind);
        assert_eq!(digest(&wrapped), digest(&plain), "{}", kind.label());
        assert!(decisions.total > 0);
        assert_eq!(decisions.total, probe.sched().select_assigned);
        // Only E-Ant's own `select_job_traced` scores candidates; the
        // trait default reports none.
        let eant = matches!(kind, SchedulerKind::EAnt(_));
        assert_eq!(
            decisions.scored == decisions.total,
            eant,
            "{}",
            kind.label()
        );
        assert_eq!(decisions.scored == 0, !eant, "{}", kind.label());
    }
}
