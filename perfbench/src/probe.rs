//! Timing and counting wrappers around the simulator's plug-in points.
//!
//! The engine is never instrumented: every number here comes from timing
//! the calls the engine makes *out* through the public [`Scheduler`] and
//! [`Observer`] traits. A [`TimingScheduler`] forwards every trait method
//! to the scheduler it wraps, a [`TimingObserver`] forwards every event to
//! the observer it wraps, and both add their elapsed time to one shared
//! [`Probe`]. Neither touches an RNG or changes a decision, so a wrapped
//! run is byte-identical to an unwrapped one (the `wrappers` test pins
//! that for all four schedulers).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use cluster::{MachineId, SlotKind};
use hadoop_sim::trace::Observer;
use hadoop_sim::{ClusterQuery, DecisionCandidate, Scheduler, SimEvent, TaskReport};
use simcore::SimTime;
use workload::{JobId, JobSpec};

/// Calls and time spent in one scheduler method.
#[derive(Debug, Default, Clone, Copy)]
pub struct CallTime {
    /// Number of calls.
    pub calls: u64,
    /// Total time inside the calls, minus observer time nested in them.
    pub time: Duration,
}

impl CallTime {
    fn add(&mut self, time: Duration) {
        self.calls += 1;
        self.time += time;
    }
}

/// Accumulated scheduler-layer timings.
#[derive(Debug, Default, Clone)]
pub struct SchedTimes {
    /// `select_job` and `select_job_traced`.
    pub select: CallTime,
    /// Selections that returned a job.
    pub select_assigned: u64,
    /// Duration of every selection call, in nanoseconds.
    pub select_ns: Vec<u64>,
    /// `on_task_completed` (E-Ant's Eq. 2 and task analyzer).
    pub task_report: CallTime,
    /// `on_control_interval` (E-Ant's pheromone update).
    pub control: CallTime,
    /// `on_job_submitted`.
    pub job_submit: CallTime,
    /// `on_job_completed`.
    pub job_complete: CallTime,
}

impl SchedTimes {
    /// Adds another run's timings.
    pub fn merge(&mut self, other: &SchedTimes) {
        for (acc, part) in [
            (&mut self.select, other.select),
            (&mut self.task_report, other.task_report),
            (&mut self.control, other.control),
            (&mut self.job_submit, other.job_submit),
            (&mut self.job_complete, other.job_complete),
        ] {
            acc.calls += part.calls;
            acc.time += part.time;
        }
        self.select_assigned += other.select_assigned;
        self.select_ns.extend_from_slice(&other.select_ns);
    }

    /// Time across every scheduler method.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.select.time
            + self.task_report.time
            + self.control.time
            + self.job_submit.time
            + self.job_complete.time
    }
}

/// Shared accumulator for one run's wrappers.
#[derive(Debug, Default)]
pub struct Probe {
    sched: RefCell<SchedTimes>,
    observe: RefCell<CallTime>,
}

impl Probe {
    /// A fresh accumulator behind the handle the wrappers share.
    #[must_use]
    pub fn new() -> Rc<Probe> {
        Rc::new(Probe::default())
    }

    /// Scheduler-layer timings so far.
    #[must_use]
    pub fn sched(&self) -> SchedTimes {
        self.sched.borrow().clone()
    }

    /// Observer calls so far: events delivered and time inside `on_event`.
    #[must_use]
    pub fn observe(&self) -> CallTime {
        *self.observe.borrow()
    }
}

/// A [`Scheduler`] that times every call into the scheduler it wraps.
pub struct TimingScheduler {
    inner: Box<dyn Scheduler>,
    probe: Rc<Probe>,
}

impl TimingScheduler {
    /// Wraps `inner`, accumulating into `probe`.
    #[must_use]
    pub fn new(inner: Box<dyn Scheduler>, probe: Rc<Probe>) -> Self {
        TimingScheduler { inner, probe }
    }

    /// Runs `f` on the inner scheduler and returns its result with the
    /// elapsed time, less any observer time spent inside the call (E-Ant
    /// emits its policy events from within `on_control_interval`), so the
    /// scheduler and observer layers never count the same nanosecond.
    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn Scheduler) -> R) -> (R, Duration) {
        let observed = self.probe.observe.borrow().time;
        let start = Instant::now();
        let out = f(self.inner.as_mut());
        let elapsed = start.elapsed();
        let nested = self.probe.observe.borrow().time - observed;
        (out, elapsed.saturating_sub(nested))
    }

    fn record_select(&self, chosen: Option<JobId>, time: Duration) {
        let mut sched = self.probe.sched.borrow_mut();
        sched.select.add(time);
        sched.select_assigned += u64::from(chosen.is_some());
        sched
            .select_ns
            .push(u64::try_from(time.as_nanos()).unwrap_or(u64::MAX));
    }
}

impl Scheduler for TimingScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn select_job(
        &mut self,
        query: &dyn ClusterQuery,
        machine: MachineId,
        kind: SlotKind,
    ) -> Option<JobId> {
        let (chosen, time) = self.timed(|s| s.select_job(query, machine, kind));
        self.record_select(chosen, time);
        chosen
    }

    fn select_job_traced(
        &mut self,
        query: &dyn ClusterQuery,
        machine: MachineId,
        kind: SlotKind,
    ) -> (Option<JobId>, Vec<DecisionCandidate>) {
        let (out, time) = self.timed(|s| s.select_job_traced(query, machine, kind));
        self.record_select(out.0, time);
        out
    }

    fn on_job_submitted(&mut self, query: &dyn ClusterQuery, job: &JobSpec) {
        let ((), time) = self.timed(|s| s.on_job_submitted(query, job));
        self.probe.sched.borrow_mut().job_submit.add(time);
    }

    fn on_job_completed(&mut self, query: &dyn ClusterQuery, job: JobId) {
        let ((), time) = self.timed(|s| s.on_job_completed(query, job));
        self.probe.sched.borrow_mut().job_complete.add(time);
    }

    fn on_task_completed(&mut self, query: &dyn ClusterQuery, report: &TaskReport) {
        let ((), time) = self.timed(|s| s.on_task_completed(query, report));
        self.probe.sched.borrow_mut().task_report.add(time);
    }

    fn on_control_interval(&mut self, query: &dyn ClusterQuery) {
        let ((), time) = self.timed(|s| s.on_control_interval(query));
        self.probe.sched.borrow_mut().control.add(time);
    }

    fn attach_observer(&mut self, observer: Box<dyn Observer<SimEvent>>) {
        self.inner.attach_observer(observer);
    }
}

/// An [`Observer`] that times every event delivered to the observer it
/// wraps.
pub struct TimingObserver {
    inner: Box<dyn Observer<SimEvent>>,
    probe: Rc<Probe>,
}

impl TimingObserver {
    /// Wraps `inner`, accumulating into `probe`.
    #[must_use]
    pub fn new(inner: Box<dyn Observer<SimEvent>>, probe: Rc<Probe>) -> Self {
        TimingObserver { inner, probe }
    }
}

impl Observer<SimEvent> for TimingObserver {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        let start = Instant::now();
        self.inner.on_event(at, event);
        let elapsed = start.elapsed();
        self.probe.observe.borrow_mut().add(elapsed);
    }
}

/// Events seen, by [`SimEvent::kind`].
#[derive(Debug, Default, Clone)]
pub struct EventCounts(pub BTreeMap<&'static str, u64>);

impl EventCounts {
    /// Events of one kind.
    #[must_use]
    pub fn get(&self, kind: &str) -> u64 {
        self.0.get(kind).copied().unwrap_or(0)
    }

    /// Events of every kind.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.0.values().sum()
    }

    /// Adds another run's counts.
    pub fn merge(&mut self, other: &EventCounts) {
        for (kind, n) in &other.0 {
            *self.0.entry(kind).or_default() += n;
        }
    }
}

impl Observer<SimEvent> for EventCounts {
    fn on_event(&mut self, _at: SimTime, event: &SimEvent) {
        *self.0.entry(event.kind()).or_default() += 1;
    }
}
