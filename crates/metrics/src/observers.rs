//! Streaming metric consumers: observers that reproduce the end-of-run
//! aggregates live from the typed event stream.
//!
//! [`StreamingRunStats`] subscribes to the engine's [`SimEvent`] stream and
//! reconstructs, event by event, the same quantities `RunResult` assembles
//! post hoc: the cumulative energy series, the per-interval assignment
//! snapshots that drive convergence analysis, per-job completion times,
//! makespan and total energy. The reconstruction is designed to be
//! **bit-for-bit** equal to the post-hoc numbers — [`StreamingRunStats::matches`]
//! asserts exactly that, and the property suite runs it for every scheduler
//! under noise and speculation.

use std::collections::BTreeMap;

use hadoop_sim::trace::Observer;
use hadoop_sim::{fold_starts, IntervalSnapshot, RunResult, SimEvent, StartLog};
use simcore::series::TimeSeries;
use simcore::{SimDuration, SimTime};
use workload::JobId;

use crate::fairness;

/// An [`Observer`] that folds the event stream into run-level statistics.
///
/// Create one per run sized to the fleet, attach it to the engine (directly
/// or through a `SharedObserver`), and read the aggregates after the
/// `RunFinished` event.
#[derive(Debug, Clone)]
pub struct StreamingRunStats {
    num_machines: usize,
    events_seen: u64,
    submitted_at: BTreeMap<JobId, SimTime>,
    completions: BTreeMap<JobId, f64>,
    /// Fresh task starts since the last control tick, folded by the
    /// engine's own [`fold_starts`].
    current_starts: StartLog,
    intervals: Vec<IntervalSnapshot>,
    energy_series: TimeSeries,
    makespan: Option<SimDuration>,
    total_energy_joules: f64,
    total_tasks: u64,
    drained: Option<bool>,
    speculative_launched: u64,
    task_failures: u64,
    machine_failures: u64,
    map_outputs_lost: u64,
    machines_blacklisted: u64,
    /// The first way the stream contradicted itself, if any.
    inconsistency: Option<String>,
}

impl StreamingRunStats {
    /// Creates a consumer for a fleet of `num_machines` machines; every
    /// task start it sees must name one of them.
    pub fn new(num_machines: usize) -> Self {
        StreamingRunStats {
            num_machines,
            events_seen: 0,
            submitted_at: BTreeMap::new(),
            completions: BTreeMap::new(),
            current_starts: StartLog::default(),
            intervals: Vec::new(),
            energy_series: TimeSeries::new("cumulative_energy_joules"),
            makespan: None,
            total_energy_joules: 0.0,
            total_tasks: 0,
            drained: None,
            speculative_launched: 0,
            task_failures: 0,
            machine_failures: 0,
            map_outputs_lost: 0,
            machines_blacklisted: 0,
            inconsistency: None,
        }
    }

    /// Total events observed (of any kind).
    pub fn event_count(&self) -> u64 {
        self.events_seen
    }

    /// Whether the `RunFinished` event has arrived.
    pub fn is_finished(&self) -> bool {
        self.drained.is_some()
    }

    /// Makespan: the `RunFinished` timestamp. `None` before the run ends.
    pub fn makespan(&self) -> Option<SimDuration> {
        self.makespan
    }

    /// Final fleet-wide metered energy in joules (0 before the run ends).
    pub fn total_energy_joules(&self) -> f64 {
        self.total_energy_joules
    }

    /// Total completed tasks (winning attempts only).
    pub fn total_tasks(&self) -> u64 {
        self.total_tasks
    }

    /// Speculative (backup) attempts observed.
    pub fn speculative_launched(&self) -> u64 {
        self.speculative_launched
    }

    /// Failed task attempts observed (crash-killed and random).
    pub fn task_failures(&self) -> u64 {
        self.task_failures
    }

    /// Machines declared dead by heartbeat expiry.
    pub fn machine_failures(&self) -> u64 {
        self.machine_failures
    }

    /// Completed map outputs lost to crashes and re-executed.
    pub fn map_outputs_lost(&self) -> u64 {
        self.map_outputs_lost
    }

    /// Machines blacklisted for repeated task failures.
    pub fn machines_blacklisted(&self) -> u64 {
        self.machines_blacklisted
    }

    /// The reconstructed cumulative energy series (sampled at control
    /// intervals plus the final instant, like `RunResult::energy_series`).
    pub fn energy_series(&self) -> &TimeSeries {
        &self.energy_series
    }

    /// The reconstructed control-interval snapshots, assignment bookkeeping
    /// included (like `RunResult::intervals`).
    pub fn intervals(&self) -> &[IntervalSnapshot] {
        &self.intervals
    }

    /// Per-job actual completion times in seconds, for jobs that finished
    /// (the input to the §VI-D slowdown/fairness metrics).
    pub fn actual_completions(&self) -> &BTreeMap<JobId, f64> {
        &self.completions
    }

    /// Submission time of each job observed so far.
    pub fn submitted_at(&self, job: JobId) -> Option<SimTime> {
        self.submitted_at.get(&job).copied()
    }

    /// The first way the stream contradicted itself, if any: a
    /// `map_output_lost` with no won `task_completed` to roll back, a
    /// `task_started` whose job id or machine index does not fit the
    /// 32-bit [`StartLog`], or a `run_finished` footer whose task count
    /// differs from the streamed one. The fold never panics on such a stream; it records the defect
    /// here and [`StreamingRunStats::matches`] reports it.
    pub fn inconsistency(&self) -> Option<&str> {
        self.inconsistency.as_deref()
    }

    /// Records `defect` unless an earlier one is already recorded.
    fn note_inconsistency(&mut self, at: SimTime, defect: String) {
        self.inconsistency
            .get_or_insert_with(|| format!("at {at}: {defect}"));
    }

    /// Checks every streamed aggregate against the post-hoc `RunResult` of
    /// the same run, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns the stream's [`inconsistency`](StreamingRunStats::inconsistency)
    /// if it has one, else a description of the first mismatching
    /// aggregate.
    pub fn matches(&self, run: &RunResult) -> Result<(), String> {
        if let Some(defect) = &self.inconsistency {
            return Err(format!("inconsistent stream: {defect}"));
        }
        if self.drained != Some(run.drained) {
            return Err(format!(
                "drained: streamed {:?}, post-hoc {}",
                self.drained, run.drained
            ));
        }
        if self.makespan != Some(run.makespan) {
            return Err(format!(
                "makespan: streamed {:?}, post-hoc {:?}",
                self.makespan, run.makespan
            ));
        }
        let posthoc_energy = run.total_energy_joules();
        if self.total_energy_joules.to_bits() != posthoc_energy.to_bits() {
            return Err(format!(
                "total energy: streamed {}, post-hoc {}",
                self.total_energy_joules, posthoc_energy
            ));
        }
        if self.total_tasks != run.total_tasks {
            return Err(format!(
                "total tasks: streamed {}, post-hoc {}",
                self.total_tasks, run.total_tasks
            ));
        }
        if self.speculative_launched != run.speculative_attempts {
            return Err(format!(
                "speculative attempts: streamed {}, post-hoc {}",
                self.speculative_launched, run.speculative_attempts
            ));
        }
        if self.task_failures != run.task_failures {
            return Err(format!(
                "task failures: streamed {}, post-hoc {}",
                self.task_failures, run.task_failures
            ));
        }
        if self.machine_failures != run.machine_failures {
            return Err(format!(
                "machine failures: streamed {}, post-hoc {}",
                self.machine_failures, run.machine_failures
            ));
        }
        if self.map_outputs_lost != run.map_outputs_lost {
            return Err(format!(
                "map outputs lost: streamed {}, post-hoc {}",
                self.map_outputs_lost, run.map_outputs_lost
            ));
        }
        if self.machines_blacklisted != run.machines_blacklisted {
            return Err(format!(
                "machines blacklisted: streamed {}, post-hoc {}",
                self.machines_blacklisted, run.machines_blacklisted
            ));
        }
        if self.energy_series != run.energy_series {
            return Err(format!(
                "energy series: streamed {} samples, post-hoc {}",
                self.energy_series.len(),
                run.energy_series.len()
            ));
        }
        if self.intervals != run.intervals {
            return Err(format!(
                "intervals: streamed {} snapshots, post-hoc {}",
                self.intervals.len(),
                run.intervals.len()
            ));
        }
        let posthoc = fairness::actual_completions(run);
        if self.completions != posthoc {
            return Err(format!(
                "completions: streamed {} jobs, post-hoc {}",
                self.completions.len(),
                posthoc.len()
            ));
        }
        Ok(())
    }

    /// Closes the open partial interval, mirroring the engine's end-of-run
    /// snapshot rule: push only when something was assigned since the last
    /// control tick, or no tick ever fired.
    fn close_partial_interval(&mut self, at: SimTime, cumulative_energy_joules: f64) {
        if !self.current_starts.is_empty() || self.intervals.is_empty() {
            self.intervals.push(IntervalSnapshot {
                at,
                cumulative_energy_joules,
                assignments: fold_starts(&mut self.current_starts),
            });
        }
    }
}

impl Observer<SimEvent> for StreamingRunStats {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        self.events_seen += 1;
        match event {
            SimEvent::JobSubmitted { job, .. } => {
                self.submitted_at.insert(*job, at);
            }
            SimEvent::JobCompleted { job } => {
                if let Some(&submitted) = self.submitted_at.get(job) {
                    self.completions
                        .insert(*job, (at - submitted).as_secs_f64());
                }
            }
            SimEvent::TaskStarted {
                task,
                machine,
                speculative: false,
            } => {
                // Fresh attempts feed the interval assignment bookkeeping;
                // speculative clones do not (the engine skips them too).
                assert!(
                    machine.index() < self.num_machines,
                    "{machine} is outside the {}-machine fleet",
                    self.num_machines
                );
                if let Err(defect) = self.current_starts.push(task.job, *machine) {
                    self.note_inconsistency(at, defect);
                }
            }
            SimEvent::TaskCompleted { won: true, .. } => {
                self.total_tasks += 1;
            }
            SimEvent::SpeculationLaunched { .. } => {
                self.speculative_launched += 1;
            }
            SimEvent::TaskFailed { .. } => {
                self.task_failures += 1;
            }
            SimEvent::MachineFailed { .. } => {
                self.machine_failures += 1;
            }
            SimEvent::MapOutputLost { .. } => {
                // The lost task's first win was already counted via its
                // `TaskCompleted { won: true }`; the re-execution will count
                // again. Mirror the engine's counter rollback so the net
                // stays one per task.
                self.map_outputs_lost += 1;
                match self.total_tasks.checked_sub(1) {
                    Some(rest) => self.total_tasks = rest,
                    None => self.note_inconsistency(
                        at,
                        "map_output_lost with no won task_completed to roll back".to_owned(),
                    ),
                }
            }
            SimEvent::MachineBlacklisted { .. } => {
                self.machines_blacklisted += 1;
            }
            SimEvent::ControlIntervalFired {
                cumulative_energy_joules,
                ..
            } => {
                self.energy_series.record(at, *cumulative_energy_joules);
                self.intervals.push(IntervalSnapshot {
                    at,
                    cumulative_energy_joules: *cumulative_energy_joules,
                    assignments: fold_starts(&mut self.current_starts),
                });
            }
            SimEvent::RunFinished {
                drained,
                total_energy_joules,
                total_tasks,
            } => {
                self.energy_series.record(at, *total_energy_joules);
                self.close_partial_interval(at, *total_energy_joules);
                self.makespan = Some(at - SimTime::ZERO);
                self.total_energy_joules = *total_energy_joules;
                self.drained = Some(*drained);
                // Keep the streamed count: `matches` checks it against the
                // post-hoc result, and a footer that disagrees is a defect.
                if self.total_tasks != *total_tasks {
                    let defect = format!(
                        "streamed task count {} disagrees with the run_finished footer {}",
                        self.total_tasks, total_tasks
                    );
                    self.note_inconsistency(at, defect);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{MachineId, SlotKind};
    use hadoop_sim::StartCell;
    use workload::{TaskId, TaskIndex};

    fn task(job: u64, index: u32) -> TaskId {
        TaskId {
            job: JobId(job),
            task: TaskIndex {
                kind: SlotKind::Map,
                index,
            },
        }
    }

    #[test]
    fn folds_a_minimal_run() {
        let mut s = StreamingRunStats::new(2);
        let t = SimTime::from_secs;
        s.on_event(
            t(0),
            &SimEvent::JobSubmitted {
                job: JobId(0),
                tasks: 2,
            },
        );
        s.on_event(
            t(1),
            &SimEvent::TaskStarted {
                task: task(0, 0),
                machine: MachineId(1),
                speculative: false,
            },
        );
        s.on_event(
            t(300),
            &SimEvent::ControlIntervalFired {
                index: 0,
                cumulative_energy_joules: 100.0,
            },
        );
        s.on_event(
            t(400),
            &SimEvent::TaskCompleted {
                task: task(0, 0),
                machine: MachineId(1),
                won: true,
                straggled: false,
                speculative: false,
            },
        );
        s.on_event(t(400), &SimEvent::JobCompleted { job: JobId(0) });
        s.on_event(
            t(400),
            &SimEvent::RunFinished {
                drained: true,
                total_energy_joules: 150.0,
                total_tasks: 1,
            },
        );

        assert!(s.is_finished());
        assert_eq!(s.makespan(), Some(SimDuration::from_secs(400)));
        assert_eq!(s.total_energy_joules(), 150.0);
        assert_eq!(s.total_tasks(), 1);
        assert_eq!(s.event_count(), 6);
        assert_eq!(s.actual_completions()[&JobId(0)], 400.0);
        assert_eq!(s.energy_series().len(), 2);
        // One full interval with the assignment, no partial (nothing
        // assigned after the control tick).
        assert_eq!(s.intervals().len(), 1);
        let cell = StartCell {
            machine: 1,
            starts: 1,
        };
        assert_eq!(
            s.intervals()[0].assignments.get(JobId(0)),
            Some(&[cell][..])
        );
    }

    #[test]
    fn speculative_starts_do_not_count_as_assignments() {
        let mut s = StreamingRunStats::new(1);
        s.on_event(
            SimTime::from_secs(1),
            &SimEvent::TaskStarted {
                task: task(0, 0),
                machine: MachineId(0),
                speculative: true,
            },
        );
        s.on_event(
            SimTime::from_secs(2),
            &SimEvent::SpeculationLaunched {
                task: task(0, 0),
                machine: MachineId(0),
            },
        );
        s.on_event(
            SimTime::from_secs(3),
            &SimEvent::RunFinished {
                drained: true,
                total_energy_joules: 0.0,
                total_tasks: 0,
            },
        );
        assert_eq!(s.speculative_launched(), 1);
        // The partial interval still closes (no tick fired) but is empty.
        assert_eq!(s.intervals().len(), 1);
        assert!(s.intervals()[0].assignments.is_empty());
    }

    #[test]
    fn fault_events_fold_into_failure_counters() {
        let mut s = StreamingRunStats::new(2);
        let t = SimTime::from_secs;
        // A map wins, then its machine dies: the output is lost and the
        // task re-executes elsewhere — net one completion.
        s.on_event(
            t(10),
            &SimEvent::TaskCompleted {
                task: task(0, 0),
                machine: MachineId(0),
                won: true,
                straggled: false,
                speculative: false,
            },
        );
        s.on_event(
            t(20),
            &SimEvent::TaskFailed {
                task: task(0, 1),
                machine: MachineId(0),
                crash: true,
            },
        );
        s.on_event(
            t(20),
            &SimEvent::MapOutputLost {
                task: task(0, 0),
                machine: MachineId(0),
            },
        );
        s.on_event(
            t(20),
            &SimEvent::MachineFailed {
                machine: MachineId(0),
                attempts_lost: 1,
            },
        );
        s.on_event(
            t(30),
            &SimEvent::MachineRecovered {
                machine: MachineId(0),
            },
        );
        s.on_event(
            t(40),
            &SimEvent::TaskCompleted {
                task: task(0, 0),
                machine: MachineId(1),
                won: true,
                straggled: false,
                speculative: false,
            },
        );
        s.on_event(
            t(50),
            &SimEvent::MachineBlacklisted {
                machine: MachineId(0),
                failures: 4,
            },
        );
        assert_eq!(s.task_failures(), 1);
        assert_eq!(s.machine_failures(), 1);
        assert_eq!(s.map_outputs_lost(), 1);
        assert_eq!(s.machines_blacklisted(), 1);
        assert_eq!(s.total_tasks(), 1);
    }

    #[test]
    fn inconsistent_streams_are_recorded_not_panicked_on() {
        let lost = SimEvent::MapOutputLost {
            task: task(0, 0),
            machine: MachineId(0),
        };
        let footer = |total_tasks| SimEvent::RunFinished {
            drained: true,
            total_energy_joules: 0.0,
            total_tasks,
        };
        let mut s = StreamingRunStats::new(1);
        s.on_event(SimTime::from_secs(1), &lost);
        s.on_event(SimTime::from_secs(2), &footer(0));
        assert_eq!(s.total_tasks(), 0);
        let defect = s.inconsistency().expect("a loss before any win");
        assert!(defect.contains("map_output_lost"), "{defect}");

        // A start beyond the 32-bit start log is recorded, not logged.
        let mut s = StreamingRunStats::new(1);
        let start = SimEvent::TaskStarted {
            task: task(1 << 32, 0),
            machine: MachineId(0),
            speculative: false,
        };
        s.on_event(SimTime::from_secs(1), &start);
        let defect = s.inconsistency().expect("a job id past u32");
        assert!(defect.contains("does not fit the start log"), "{defect}");

        // A real run folds consistently; a second footer that disagrees
        // with the streamed count makes `matches` fail.
        use hadoop_sim::trace::SharedObserver;
        use hadoop_sim::{Engine, EngineConfig, GreedyScheduler};
        use workload::{Benchmark, JobSpec};
        let fleet = cluster::Fleet::builder()
            .add(cluster::profiles::desktop(), 2)
            .build()
            .unwrap();
        let mut engine = Engine::new(fleet, EngineConfig::default(), 7);
        engine.submit_jobs(vec![JobSpec::new(
            JobId(0),
            Benchmark::wordcount(),
            4,
            1,
            SimTime::ZERO,
        )]);
        let stats = SharedObserver::new(StreamingRunStats::new(2));
        engine.attach_observer(Box::new(stats.clone()));
        let run = engine.run(&mut GreedyScheduler::new());
        let mut s = stats.with(|s| s.clone());
        assert_eq!(s.matches(&run), Ok(()));
        s.on_event(SimTime::ZERO + run.makespan, &footer(run.total_tasks + 1));
        let defect = s.inconsistency().expect("a footer that disagrees");
        assert!(
            defect.contains("disagrees with the run_finished footer"),
            "{defect}"
        );
        let err = s.matches(&run).unwrap_err();
        assert!(err.starts_with("inconsistent stream"), "{err}");
    }

    #[test]
    fn losing_attempts_do_not_count_toward_totals() {
        let mut s = StreamingRunStats::new(1);
        s.on_event(
            SimTime::from_secs(1),
            &SimEvent::TaskCompleted {
                task: task(0, 0),
                machine: MachineId(0),
                won: false,
                straggled: false,
                speculative: true,
            },
        );
        assert_eq!(s.total_tasks(), 0);
    }
}
