//! The heartbeat-driven JobTracker/TaskTracker engine.
//!
//! The engine is split along its event paths, all wired to the
//! incrementally maintained [`ClusterState`] scoreboard:
//!
//! * [`heartbeat`] — slot offers, task start/completion, the assignment
//!   hot path;
//! * [`speculation`] — backup-task (straggler mitigation) policies;
//! * [`power`] — power-down and DVFS management at heartbeat granularity;
//! * [`report`] — TaskTracker report synthesis, control-interval
//!   snapshots and end-of-run result assembly.
//!
//! This module owns the engine state, the event loop, and the
//! [`ClusterQuery`] implementation schedulers see. Every event that
//! changes a job's queue lengths, slot occupancy or lifecycle calls
//! [`Engine::refresh_job`] (or marks submission), so the scoreboard is
//! always current and querying it never rebuilds anything.

mod fault;
mod heartbeat;
mod power;
mod report;
mod speculation;

use std::collections::BTreeMap;

use simcore::series::TimeSeries;
use simcore::{EventQueue, SimDuration, SimRng, SimTime};

use cluster::hdfs::{BlockPlacer, Locality, DEFAULT_REPLICATION};
use cluster::network::{Network, GIGABIT_MBPS};
use cluster::{Fleet, MachineId, SlotKind};
use workload::open::OpenStream;
use workload::{BenchmarkKind, JobId, JobSpec, TaskId};

use crate::cluster_state::{ClusterState, JobEntry};
use crate::job_state::{JobState, PendingMaps};
use crate::report::TaskReport;
use crate::result::{IntervalSnapshot, RunResult, StartLog};
use crate::scheduler::{ClusterQuery, Scheduler};
use crate::task_arena::TaskArena;
use crate::trace::{Observer, ObserverSet, SimEvent};
use crate::{EngineConfig, StopCondition};

/// Panic message of an attempt-registry read in a run that keeps none.
const NO_ARENA: &str = "the attempt registry is kept only with speculation or fault injection";

/// Index of `kind` into per-job `[Map, Reduce]` stat arrays.
pub(super) fn kind_ix(kind: SlotKind) -> usize {
    match kind {
        SlotKind::Map => 0,
        SlotKind::Reduce => 1,
    }
}

/// Index of `kind` into per-machine benchmark counters: its position in
/// [`BenchmarkKind::ALL`], which lists the variants in declaration order.
pub(super) fn bench_ix(kind: BenchmarkKind) -> usize {
    kind as usize
}

/// A task attempt in flight; carried inside its completion event so no
/// side-table lookup is needed.
#[derive(Debug, Clone)]
struct RunningTask {
    task: TaskId,
    machine: MachineId,
    kind: SlotKind,
    started_at: SimTime,
    /// CPU-phase seconds on this machine (after speed scaling, before
    /// contention/straggle stretch).
    cpu_secs: f64,
    /// Non-CPU seconds (I/O + shuffle) on this machine.
    other_secs: f64,
    /// Total stretched duration in seconds.
    duration_secs: f64,
    /// Cores this attempt keeps busy on average.
    core_load: f64,
    locality: Option<Locality>,
    straggled: bool,
    /// Whether this attempt is a speculative (backup) copy.
    speculative: bool,
    /// Seconds spent fetching shuffle data (reduces only).
    shuffle_secs: f64,
    /// Whether a shuffle transfer was charged to the machine's NIC.
    shuffle_charged: bool,
    /// The machine's fault epoch at attempt start. A completion event whose
    /// epoch no longer matches belongs to an attempt that died with its
    /// machine (cleaned up at declaration time) and is dropped. Always 0
    /// when fault injection is disabled.
    epoch: u64,
    /// Fault injection decided at start time that this attempt fails
    /// partway: its completion event arrives early and releases the slot
    /// without producing output.
    will_fail: bool,
}

#[derive(Debug)]
enum Event {
    JobArrival(usize),
    Heartbeat(MachineId),
    TaskDone(Box<RunningTask>),
    ControlTick,
    /// An open-stream job materializing at its submit time. The spec is
    /// carried in the event (jobs are pulled lazily, one in flight at a
    /// time), so a horizon run never allocates the full job list.
    StreamArrival(Box<JobSpec>),
    /// The warm-up → measurement transition of a horizon run.
    WarmupCutoff,
}

/// The Hadoop engine: owns the fleet, the network, the job table and the
/// event loop; drives a pluggable [`Scheduler`].
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Engine {
    fleet: Fleet,
    network: Network,
    config: EngineConfig,
    jobs: Vec<JobState>,
    submitted: Vec<bool>,
    /// The scheduler-facing scoreboard, updated at every state-changing
    /// event and borrowed (never rebuilt) at decision time.
    state: ClusterState,
    now: SimTime,
    rng_demand: SimRng,
    rng_noise: SimRng,
    rng_place: SimRng,
    placer: BlockPlacer,
    /// Jobs below this id are placed, or were given explicit blocks. Blocks
    /// are placed in id order, so `rng_place` draws the same sequence
    /// whatever order the jobs arrive in.
    place_cursor: usize,
    // Per-machine counters.
    map_counts: Vec<u64>,
    reduce_counts: Vec<u64>,
    /// Winning completions per machine by benchmark kind, indexed by
    /// [`bench_ix`]. `None` until the first one, so a count that map-output
    /// loss rolls back to zero is still reported.
    bench_counts: Vec<[Option<u64>; BenchmarkKind::ALL.len()]>,
    /// The fresh task starts since the last control tick, folded into
    /// the interval's snapshot by [`fold_starts`](crate::fold_starts).
    interval_starts: StartLog,
    // Power-down bookkeeping: wake-up completion time per standby machine
    // and the time the cluster last had runnable work.
    waking_until: Vec<Option<SimTime>>,
    last_work_at: SimTime,
    // Speculation/fault bookkeeping: the attempt registry (in-flight
    // attempts and failure counts), completed-duration sums per job and
    // kind (`[Map, Reduce]`), and attempt counters. The registry exists
    // only when speculation or fault injection, its only readers, is
    // configured; read it through [`Engine::arena`].
    arena: Option<TaskArena>,
    duration_stats: Vec<[(f64, u64); 2]>,
    speculative_launched: u64,
    wasted_attempts: u64,
    // LATE speculation inputs, precomputed once: per-machine relative speed
    // (cores × per-core speed) and the fleet median, so slot offers don't
    // re-sort the fleet.
    machine_speeds: Vec<f64>,
    median_machine_speed: f64,
    // Fault-injection bookkeeping (see `fault.rs`). All side tables stay
    // empty and all counters stay 0 when `config.fault` is disabled.
    rng_fault: SimRng,
    /// Precomputed per-machine `(crash_at, recover_at)` schedule; front is
    /// the next crash. Empty when crashes are disabled.
    crash_schedule: Vec<std::collections::VecDeque<(SimTime, SimTime)>>,
    fault_health: Vec<fault::MachineHealth>,
    /// Bumped when a machine crashes; invalidates queued completion events
    /// of attempts that died with it.
    machine_epoch: Vec<u64>,
    /// In-flight attempts per machine, for declaration-time cleanup. The
    /// `(machine, task)` pair is unique: speculation never duplicates a
    /// task on its own machine.
    inflight: Vec<BTreeMap<TaskId, RunningTask>>,
    /// Completed map outputs held on each machine's local disk, lost (and
    /// re-executed) if the machine dies before the job finishes.
    map_outputs: Vec<BTreeMap<JobId, Vec<u32>>>,
    /// Random task failures per machine (drives blacklisting).
    machine_task_failures: Vec<u32>,
    blacklisted: Vec<bool>,
    task_failures: u64,
    machine_failures: u64,
    map_outputs_lost: u64,
    machines_blacklisted: u64,
    intervals: Vec<IntervalSnapshot>,
    energy_series: TimeSeries,
    /// Jobs whose last task has completed. Completion is monotone (the
    /// fault path never requeues work for a complete job), so this counter
    /// makes [`Engine::all_done`] O(1) instead of an all-jobs scan per
    /// event.
    finished_jobs: usize,
    total_tasks: u64,
    /// The typed event stream. Empty by default: every emission site
    /// checks [`ObserverSet::is_empty`] (directly or through the lazy
    /// [`ObserverSet::emit`]) before constructing an event, so an
    /// unobserved run pays one branch per seam and nothing else.
    trace: ObserverSet<SimEvent>,
    /// Streaming consumers of completed-task reports. The report is built
    /// for every winning attempt regardless (the scheduler callback needs
    /// it), so notifying this set is free when empty. This is the only
    /// report channel — the engine never buffers reports itself.
    report_trace: ObserverSet<TaskReport>,
    // Service-mode (horizon) bookkeeping. All of it stays `None`/zero for
    // drain runs, which schedule no service events and are byte-identical
    // to a build without the layer.
    /// The lazily-pulled open job stream, when one is attached.
    serve_stream: Option<OpenStream>,
    /// Time of the warm-up cutoff once it has fired; gates steady-state
    /// accounting.
    measure_from: Option<SimTime>,
    /// Fleet energy metered before the cutoff (subtracted from the final
    /// total to get window energy).
    warmup_energy: f64,
    /// Tasks completed before the cutoff.
    warmup_tasks: u64,
    /// Pending-task queue depth accumulators over post-cutoff
    /// control-interval samples: sum, sample count, max.
    queue_depth_sum: f64,
    queue_depth_samples: u64,
    queue_depth_max: u64,
}

impl Engine {
    /// Creates an engine over `fleet` with the given configuration and root
    /// RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`EngineConfig::validate`]).
    pub fn new(fleet: Fleet, config: EngineConfig, seed: u64) -> Self {
        config.validate();
        let root = SimRng::seed_from(seed);
        let n = fleet.len();
        let network = Network::new(n, GIGABIT_MBPS);
        // The fault stream is forked off the same root as the existing
        // streams (forking never mutates the parent), so enabling faults
        // perturbs no demand/noise/placement draw and disabling them is
        // byte-identical to a build without the layer.
        let rng_fault = root.fork("fault");
        let crash_schedule = fault::crash_schedules(&config, n, &rng_fault);
        let arena = config.revisits_started_tasks().then(TaskArena::default);
        let machine_speeds: Vec<f64> = fleet
            .iter()
            .map(|m| m.profile().cores() as f64 * m.profile().cpu_speed())
            .collect();
        let median_machine_speed = {
            let mut sorted = machine_speeds.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            sorted[sorted.len() / 2]
        };
        Engine {
            network,
            config,
            jobs: Vec::new(),
            submitted: Vec::new(),
            state: ClusterState::new(),
            now: SimTime::ZERO,
            rng_demand: root.fork("demand"),
            rng_noise: root.fork("noise"),
            rng_place: root.fork("placement"),
            placer: BlockPlacer::new(DEFAULT_REPLICATION),
            place_cursor: 0,
            map_counts: vec![0; n],
            reduce_counts: vec![0; n],
            bench_counts: vec![[None; BenchmarkKind::ALL.len()]; n],
            interval_starts: StartLog::default(),
            waking_until: vec![None; n],
            last_work_at: SimTime::ZERO,
            arena,
            duration_stats: Vec::new(),
            speculative_launched: 0,
            wasted_attempts: 0,
            machine_speeds,
            median_machine_speed,
            rng_fault,
            crash_schedule,
            fault_health: vec![fault::MachineHealth::Healthy; n],
            machine_epoch: vec![0; n],
            inflight: vec![BTreeMap::new(); n],
            map_outputs: vec![BTreeMap::new(); n],
            machine_task_failures: vec![0; n],
            blacklisted: vec![false; n],
            task_failures: 0,
            machine_failures: 0,
            map_outputs_lost: 0,
            machines_blacklisted: 0,
            intervals: Vec::new(),
            energy_series: TimeSeries::new("cumulative_energy_joules"),
            finished_jobs: 0,
            total_tasks: 0,
            trace: ObserverSet::new(),
            report_trace: ObserverSet::new(),
            serve_stream: None,
            measure_from: None,
            warmup_energy: 0.0,
            warmup_tasks: 0,
            queue_depth_sum: 0.0,
            queue_depth_samples: 0,
            queue_depth_max: 0,
            fleet,
        }
    }

    /// Attaches a trace observer to the engine's event stream; it will see
    /// every [`SimEvent`] the run emits, in emission order. Observers are
    /// passive — attaching any number of them never changes the run's
    /// results (the determinism suite locks this in).
    pub fn attach_observer(&mut self, observer: Box<dyn Observer<SimEvent>>) {
        self.trace.attach(observer);
    }

    /// Attaches a streaming consumer of completed-task [`TaskReport`]s; it
    /// sees each winning attempt's report at completion time, in
    /// completion order. The engine buffers nothing on the consumer's
    /// behalf — fold or record as the use case requires.
    pub fn attach_report_observer(&mut self, observer: Box<dyn Observer<TaskReport>>) {
        self.report_trace.attach(observer);
    }

    /// Registers jobs to be submitted at their `submit_at` times.
    ///
    /// Input blocks are placed (rack-aware, 3-way replicated) when a job
    /// arrives, not here, and freed when it completes, so the engine holds
    /// block state only for jobs in flight. Placement runs in job-id order:
    /// before a job is placed, every earlier job still unplaced is placed
    /// first. The layout is therefore a function of the seed and the job
    /// list alone, whatever order the jobs arrive in.
    ///
    /// # Panics
    ///
    /// Panics if a job's id does not match its position among all submitted
    /// jobs (ids must be dense, starting at 0).
    pub fn submit_jobs(&mut self, specs: Vec<JobSpec>) {
        self.jobs.reserve(specs.len());
        self.submitted.reserve(specs.len());
        self.duration_stats.reserve(specs.len());
        for spec in specs {
            self.register_job(JobState::new(spec), false);
        }
    }

    /// Adds one job to every per-job table.
    fn register_job(&mut self, job: JobState, submitted: bool) {
        assert_eq!(
            job.spec.id().index(),
            self.jobs.len(),
            "job ids must be dense and in submission order"
        );
        self.state.register(&job.spec);
        self.duration_stats.push([(0.0, 0); 2]);
        self.jobs.push(job);
        self.submitted.push(submitted);
    }

    /// Places the blocks of job `ji` and of every earlier job still
    /// unplaced, in id order.
    fn place_blocks_through(&mut self, ji: usize) {
        while self.place_cursor <= ji {
            let job = &mut self.jobs[self.place_cursor];
            if !job.is_placed() {
                job.place(PendingMaps::place(
                    &self.fleet,
                    job.spec.num_maps(),
                    &mut self.placer,
                    &mut self.rng_place,
                ));
            }
            self.place_cursor += 1;
        }
    }

    /// Registers one job with an explicit block placement instead of the
    /// default rack-aware placer. Used by experiments that control data
    /// locality directly (the paper's Fig. 6 varies the fraction of local
    /// data).
    ///
    /// # Panics
    ///
    /// Panics if the job id is not dense or the block count does not match
    /// the job's map count.
    pub fn submit_job_with_blocks(&mut self, spec: JobSpec, blocks: Vec<cluster::hdfs::Block>) {
        assert_eq!(
            blocks.len(),
            spec.num_maps() as usize,
            "one block per map task required"
        );
        let maps = PendingMaps::new(&self.fleet, &blocks);
        let mut job = JobState::new(spec);
        job.place(maps);
        self.register_job(job, false);
    }

    /// The engine's fleet.
    pub fn fleet_ref(&self) -> &Fleet {
        &self.fleet
    }

    /// Attaches an open job stream: the engine pulls jobs from it lazily
    /// during [`run`](Engine::run), one in flight at a time, each
    /// materializing at its submit time. Jobs already registered via
    /// [`submit_jobs`](Engine::submit_jobs) still run; stream ids continue
    /// the dense sequence after them.
    ///
    /// # Panics
    ///
    /// Panics unless the engine is configured with
    /// [`StopCondition::Horizon`] — an unbounded stream can never drain.
    pub fn attach_open_stream(&mut self, stream: OpenStream) {
        assert!(
            matches!(self.config.stop, StopCondition::Horizon { .. }),
            "an open stream requires a horizon stop condition"
        );
        self.serve_stream = Some(stream);
    }

    /// Registers a stream-pulled job at its arrival instant: same
    /// registration steps as [`submit_jobs`](Engine::submit_jobs), but the
    /// job is marked submitted immediately (its `StreamArrival` event *is*
    /// the submission) and its blocks are placed at once.
    fn register_stream_job(&mut self, spec: JobSpec) {
        let id = spec.id();
        self.register_job(JobState::new(spec), true);
        self.place_blocks_through(id.index());
        self.state.update(id, |e| e.submitted = true);
    }

    /// Runs the workload to completion (or the configured time limit) under
    /// `scheduler`, consuming per-run state and producing a [`RunResult`].
    pub fn run(&mut self, scheduler: &mut dyn Scheduler) -> RunResult {
        let mut queue: EventQueue<Event> = EventQueue::new();

        for (i, job) in self.jobs.iter().enumerate() {
            queue.schedule(job.spec.submit_at(), Event::JobArrival(i));
        }
        // Stagger heartbeats so trackers don't all report at the same tick.
        let n = self.fleet.len() as u64;
        for id in self.fleet.ids().collect::<Vec<_>>() {
            let offset =
                SimDuration::from_millis(self.config.heartbeat.as_millis() * id.index() as u64 / n);
            queue.schedule(SimTime::ZERO + offset, Event::Heartbeat(id));
        }
        queue.schedule(
            SimTime::ZERO + self.config.control_interval,
            Event::ControlTick,
        );
        if let StopCondition::Horizon { warmup, .. } = self.config.stop {
            queue.schedule(SimTime::ZERO + warmup, Event::WarmupCutoff);
        }
        // Pull the first open-stream job; each arrival pulls its successor,
        // so exactly one unmaterialized job is ever in flight.
        let first_id = JobId(self.jobs.len() as u64);
        if let Some(stream) = &mut self.serve_stream {
            let first = stream.next_job(first_id);
            queue.schedule(first.submit_at(), Event::StreamArrival(Box::new(first)));
        }

        let deadline = match self.config.stop {
            StopCondition::Drain => SimTime::ZERO + self.config.max_sim_time,
            StopCondition::Horizon { warmup, measure } => {
                (SimTime::ZERO + warmup + measure).min(SimTime::ZERO + self.config.max_sim_time)
            }
        };
        let mut drained = true;

        'run: while let Some((at, mut event)) = queue.pop() {
            if at > deadline {
                drained = !self.jobs.iter().any(|j| !j.is_complete());
                break;
            }
            self.now = at;
            // One simulated tick: process this event and then every other
            // event already queued at the same timestamp as a batch —
            // `peek_time` reads the wheel's current slot in O(1), so
            // same-tick heartbeats (aligned in bulk on large fleets by the
            // stagger formula) drain back-to-back without a queue descent
            // between them. Batch order is exactly global (time, seq)
            // order, and completion still breaks mid-batch, so the event
            // sequence is identical to one-at-a-time popping.
            loop {
                match event {
                    Event::JobArrival(i) => {
                        self.place_blocks_through(i);
                        self.submitted[i] = true;
                        self.state.update(JobId(i as u64), |e| e.submitted = true);
                        let spec = self.jobs[i].spec.clone();
                        self.trace.emit(at, || SimEvent::JobSubmitted {
                            job: spec.id(),
                            tasks: spec.num_tasks(),
                        });
                        scheduler.on_job_submitted(&*self, &spec);
                    }
                    Event::Heartbeat(machine) => {
                        self.heartbeat(machine, scheduler, &mut queue);
                        if !self.all_done() {
                            queue.schedule(at + self.config.heartbeat, Event::Heartbeat(machine));
                        }
                    }
                    Event::TaskDone(rt) => {
                        self.complete_task(*rt, scheduler);
                    }
                    Event::ControlTick => {
                        self.control_tick(scheduler);
                        if !self.all_done() {
                            queue.schedule(at + self.config.control_interval, Event::ControlTick);
                        }
                    }
                    Event::StreamArrival(spec) => {
                        let id = spec.id();
                        self.register_stream_job(*spec);
                        let spec = self.jobs[id.index()].spec.clone();
                        self.trace.emit(at, || SimEvent::JobSubmitted {
                            job: spec.id(),
                            tasks: spec.num_tasks(),
                        });
                        scheduler.on_job_submitted(&*self, &spec);
                        let next_id = JobId(self.jobs.len() as u64);
                        let stream = self
                            .serve_stream
                            .as_mut()
                            .expect("stream arrivals only fire with a stream attached");
                        let next = stream.next_job(next_id);
                        queue.schedule(next.submit_at(), Event::StreamArrival(Box::new(next)));
                    }
                    Event::WarmupCutoff => {
                        // Settle energy meters at the cutoff so the window
                        // energy is exact, then start steady-state
                        // accounting.
                        self.fleet.sync_all(at);
                        self.measure_from = Some(at);
                        self.warmup_energy = self.fleet.total_energy_joules();
                        self.warmup_tasks = self.total_tasks;
                    }
                }
                if self.all_done() {
                    // Drain remaining TaskDone events (there are none once
                    // all jobs are complete) and stop.
                    break 'run;
                }
                if queue.peek_time() != Some(at) {
                    break;
                }
                event = queue.pop().expect("peeked event at this tick").1;
            }
        }

        self.finish(scheduler.name().to_owned(), drained)
    }

    fn all_done(&self) -> bool {
        // An attached stream always has another job coming, so a
        // transiently complete job set never ends the run.
        self.serve_stream.is_none()
            && !self.jobs.is_empty()
            && self.finished_jobs == self.jobs.len()
    }

    /// Emits the post-change slot occupancy of `machine` for one slot
    /// pool. Only called from sites that already checked for observers.
    pub(super) fn emit_slot_occupancy(&mut self, machine: MachineId, kind: SlotKind) {
        let Ok(m) = self.fleet.machine(machine) else {
            return;
        };
        let slots = m.slots();
        let (occupied, capacity) = match kind {
            SlotKind::Map => (slots.used_map, m.profile().map_slots()),
            SlotKind::Reduce => (slots.used_reduce, m.profile().reduce_slots()),
        };
        self.trace.notify(
            self.now,
            &SimEvent::SlotOccupancyChanged {
                machine,
                kind,
                occupied: occupied as u32,
                capacity: capacity as u32,
            },
        );
    }

    /// The attempt registry, for the speculation and fault paths.
    ///
    /// # Panics
    ///
    /// Panics if neither speculation nor fault injection is configured:
    /// the registry is not kept then, and a reader must not be reached.
    fn arena(&self) -> &TaskArena {
        self.arena.as_ref().expect(NO_ARENA)
    }

    /// Mutable [`Engine::arena`], with the same panic.
    fn arena_mut(&mut self) -> &mut TaskArena {
        self.arena.as_mut().expect(NO_ARENA)
    }

    /// Re-derives a job's scoreboard row from its authoritative
    /// [`JobState`]. Called after every task start/completion that touches
    /// the job; cost is O(1) plus at most one active-index edit.
    fn refresh_job(&mut self, ji: usize) {
        let j = &self.jobs[ji];
        let pending_maps = j.pending_maps();
        let pending_reduces = j.pending_reduces(self.config.reduce_slowstart);
        let slots_occupied = j.running_tasks;
        let completed_tasks = j.completed_tasks();
        let finished = j.is_complete();
        self.state.update(JobId(ji as u64), |e| {
            e.pending_maps = pending_maps;
            e.pending_reduces = pending_reduces;
            e.slots_occupied = slots_occupied;
            e.completed_tasks = completed_tasks;
            e.finished = finished;
        });
    }
}

impl ClusterQuery for Engine {
    fn now(&self) -> SimTime {
        self.now
    }

    fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    fn state(&self) -> &ClusterState {
        &self.state
    }

    fn job_spec(&self, job: JobId) -> Option<&JobSpec> {
        self.jobs.get(job.index()).map(|j| &j.spec)
    }

    fn best_map_locality(&self, job: JobId, machine: MachineId) -> Option<Locality> {
        if !self.submitted.get(job.index()).copied().unwrap_or(false) {
            return None;
        }
        self.jobs[job.index()]
            .maps()
            .best_map_locality(&self.fleet, machine)
    }

    fn total_slots(&self) -> usize {
        self.fleet.total_slots()
    }

    fn network_congestion(&self) -> f64 {
        self.network.mean_congestion()
    }

    fn is_machine_dead(&self, machine: MachineId) -> bool {
        matches!(
            self.fault_health[machine.index()],
            fault::MachineHealth::Dead { .. }
        )
    }

    fn is_machine_blacklisted(&self, machine: MachineId) -> bool {
        self.blacklisted[machine.index()]
    }

    fn task_failures_on(&self, machine: MachineId) -> u32 {
        self.machine_task_failures[machine.index()]
    }

    /// Oracle for the property suite: rebuilds the scoreboard by full scan
    /// of the authoritative per-job task queues, sharing none of the
    /// incremental bookkeeping.
    fn rebuild_state(&self) -> ClusterState {
        let slowstart = self.config.reduce_slowstart;
        let labels: Vec<String> = self.jobs.iter().map(|j| j.spec.class_label()).collect();
        let entries = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, j)| JobEntry {
                id: j.spec.id(),
                group: self.state.job(j.spec.id()).group,
                pending_maps: j.pending_maps(),
                pending_reduces: j.pending_reduces(slowstart),
                slots_occupied: j.running_tasks,
                completed_tasks: j.completed_tasks(),
                total_tasks: j.spec.num_tasks(),
                submitted_at: j.spec.submit_at(),
                submitted: self.submitted[i],
                finished: j.is_complete(),
            })
            .collect();
        ClusterState::rebuild_from_scratch(entries, &labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::MachineOutcome;
    use crate::scheduler::GreedyScheduler;
    use crate::{NoiseConfig, SpeculationPolicy};
    use cluster::profiles;
    use workload::Benchmark;

    fn small_fleet() -> Fleet {
        Fleet::builder()
            .add(profiles::desktop(), 2)
            .add(profiles::xeon_e5(), 1)
            .build()
            .unwrap()
    }

    fn quiet_config() -> EngineConfig {
        EngineConfig {
            noise: NoiseConfig::none(),
            ..EngineConfig::default()
        }
    }

    /// Drives `engine` with a greedy scheduler while a streaming report
    /// recorder is attached, returning the result and the collected
    /// reports (results carry no report buffer of their own).
    fn run_greedy_with_reports(mut engine: Engine) -> (RunResult, Vec<crate::TaskReport>) {
        use crate::trace::{SharedObserver, VecRecorder};
        let recorder: SharedObserver<VecRecorder<crate::TaskReport>> =
            SharedObserver::new(VecRecorder::new());
        engine.attach_report_observer(Box::new(recorder.clone()));
        let result = engine.run(&mut GreedyScheduler::new());
        drop(engine); // releases the engine's clone of the recorder
        let reports = recorder
            .try_into_inner()
            .unwrap_or_else(|_| panic!("engine dropped its observer handle"))
            .into_events()
            .into_iter()
            .map(|(_, report)| report)
            .collect();
        (result, reports)
    }

    fn run_one(num_maps: u32, num_reduces: u32) -> (RunResult, Vec<crate::TaskReport>) {
        let mut engine = Engine::new(small_fleet(), quiet_config(), 7);
        engine.submit_jobs(vec![JobSpec::new(
            JobId(0),
            Benchmark::wordcount(),
            num_maps,
            num_reduces,
            SimTime::ZERO,
        )]);
        run_greedy_with_reports(engine)
    }

    #[test]
    fn single_job_drains() {
        let (r, _) = run_one(16, 2);
        assert!(r.drained);
        assert_eq!(r.total_tasks, 18);
        assert_eq!(r.jobs.len(), 1);
        assert!(r.jobs[0].finished_at.is_some());
        assert!(r.makespan > SimDuration::ZERO);
    }

    #[test]
    fn all_tasks_reported_once() {
        let (_, reports) = run_one(16, 2);
        assert_eq!(reports.len(), 18);
        let maps = reports.iter().filter(|t| t.kind == SlotKind::Map).count();
        assert_eq!(maps, 16);
        // Every map report carries a locality; reduces never do.
        for rep in &reports {
            match rep.kind {
                SlotKind::Map => assert!(rep.locality.is_some()),
                SlotKind::Reduce => assert!(rep.locality.is_none()),
            }
        }
    }

    #[test]
    fn machine_counters_sum_to_total() {
        let (r, _) = run_one(32, 4);
        let by_machine: u64 = r.machines.iter().map(MachineOutcome::total_tasks).sum();
        assert_eq!(by_machine, r.total_tasks);
        let by_bench: u64 = r
            .machines
            .iter()
            .flat_map(|m| m.tasks_by_benchmark.values())
            .sum();
        assert_eq!(by_bench, r.total_tasks);
    }

    #[test]
    fn energy_is_positive_and_split_consistent() {
        let (r, _) = run_one(16, 2);
        for m in &r.machines {
            assert!(m.energy_joules > 0.0, "machine must at least idle");
            assert!(
                (m.idle_joules + m.workload_joules - m.energy_joules).abs() < 1e-6,
                "idle + workload must equal total"
            );
        }
    }

    #[test]
    fn scoreboard_tracks_run_lifecycle() {
        let mut engine = Engine::new(small_fleet(), quiet_config(), 7);
        engine.submit_jobs(vec![JobSpec::new(
            JobId(0),
            Benchmark::wordcount(),
            16,
            2,
            SimTime::ZERO,
        )]);
        // Registered but not yet submitted: present, inactive.
        assert_eq!(engine.state().jobs().len(), 1);
        assert_eq!(engine.state().num_active(), 0);
        assert_eq!(
            engine
                .state()
                .groups()
                .name(engine.state().job(JobId(0)).group),
            "Wordcount"
        );
        engine.run(&mut GreedyScheduler::new());
        // Drained: no active jobs, nothing pending or running; the
        // incremental board agrees with a from-scratch rebuild.
        assert_eq!(engine.state().num_active(), 0);
        assert_eq!(engine.state().pending_total(SlotKind::Map), 0);
        assert_eq!(engine.state().running_total(), 0);
        assert_eq!(engine.state().job(JobId(0)).completed_tasks, 18);
        assert_eq!(*engine.state(), engine.rebuild_state());
    }

    #[test]
    fn reduces_start_after_slowstart() {
        let cfg = EngineConfig {
            reduce_slowstart: 0.8,
            ..quiet_config()
        };
        let mut engine = Engine::new(small_fleet(), cfg, 7);
        engine.submit_jobs(vec![JobSpec::new(
            JobId(0),
            Benchmark::wordcount(),
            20,
            4,
            SimTime::ZERO,
        )]);
        let (_, reports) = run_greedy_with_reports(engine);
        let first_reduce_start = reports
            .iter()
            .filter(|t| t.kind == SlotKind::Reduce)
            .map(|t| t.started_at)
            .min()
            .unwrap();
        let map_finishes: Vec<SimTime> = {
            let mut v: Vec<SimTime> = reports
                .iter()
                .filter(|t| t.kind == SlotKind::Map)
                .map(|t| t.finished_at)
                .collect();
            v.sort();
            v
        };
        // 80% slow-start of 20 maps → 16 maps must have finished first.
        assert!(first_reduce_start >= map_finishes[15]);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut engine = Engine::new(small_fleet(), quiet_config(), seed);
            engine.submit_jobs(vec![JobSpec::new(
                JobId(0),
                Benchmark::terasort(),
                24,
                4,
                SimTime::ZERO,
            )]);
            engine.run(&mut GreedyScheduler::new()).makespan
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn noise_injects_stragglers() {
        let cfg = EngineConfig {
            noise: NoiseConfig {
                straggler_prob: 0.5,
                straggler_slowdown: (2.0, 3.0),
                utilization_jitter: 0.2,
            },
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(small_fleet(), cfg, 11);
        engine.submit_jobs(vec![JobSpec::new(
            JobId(0),
            Benchmark::grep(),
            40,
            4,
            SimTime::ZERO,
        )]);
        let (_, reports) = run_greedy_with_reports(engine);
        let stragglers = reports.iter().filter(|t| t.straggled).count();
        assert!(stragglers > 5, "expected stragglers, got {stragglers}");
    }

    #[test]
    fn multi_job_run_completes_all() {
        let mut engine = Engine::new(small_fleet(), quiet_config(), 5);
        engine.submit_jobs(vec![
            JobSpec::new(JobId(0), Benchmark::wordcount(), 12, 2, SimTime::ZERO),
            JobSpec::new(JobId(1), Benchmark::grep(), 12, 2, SimTime::from_secs(30)),
            JobSpec::new(
                JobId(2),
                Benchmark::terasort(),
                12,
                2,
                SimTime::from_secs(60),
            ),
        ]);
        let r = engine.run(&mut GreedyScheduler::new());
        assert!(r.drained);
        assert!(r.jobs.iter().all(|j| j.finished_at.is_some()));
        assert_eq!(r.total_tasks, 42);
    }

    #[test]
    fn completed_jobs_hold_no_block_state() {
        // Speculative losers and crashes that lose map outputs are the
        // paths that still reach a job after its last task won.
        let cfg = EngineConfig {
            noise: NoiseConfig {
                straggler_prob: 0.2,
                straggler_slowdown: (3.0, 5.0),
                utilization_jitter: 0.0,
            },
            speculation: SpeculationPolicy::Hadoop,
            fault: crate::FaultConfig::moderate(),
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(small_fleet(), cfg, 9);
        engine.submit_jobs(
            (0..6)
                .map(|i| {
                    let at = SimTime::from_secs(40 * i);
                    JobSpec::new(JobId(i), Benchmark::wordcount(), 20, 2, at)
                })
                .collect(),
        );
        let r = engine.run(&mut GreedyScheduler::new());
        assert!(r.drained);
        assert!(r.speculative_attempts > 0 && r.task_failures > 0);
        for job in &engine.jobs {
            assert!(job.is_complete());
            assert_eq!(job.block_state_bytes(), 0, "{}", job.spec.id());
        }
    }

    /// An engine cut off 6 s into a run of two wordcount jobs on the
    /// small fleet: job 0's four maps all start at the first heartbeat and
    /// are still running at the cut, job 1's 200 maps are still queued.
    fn cut_with_drained_map_queue(cfg: EngineConfig) -> Engine {
        let cfg = EngineConfig {
            max_sim_time: SimDuration::from_secs(6),
            ..cfg
        };
        let mut engine = Engine::new(small_fleet(), cfg, 4);
        engine.submit_jobs(vec![
            JobSpec::new(JobId(0), Benchmark::wordcount(), 4, 2, SimTime::ZERO),
            JobSpec::new(JobId(1), Benchmark::wordcount(), 200, 2, SimTime::ZERO),
        ]);
        let r = engine.run(&mut GreedyScheduler::new());
        assert!(!r.drained);
        let drained = &engine.jobs[0];
        assert_eq!(drained.pending_maps(), 0);
        assert_eq!(drained.phase(), crate::JobPhase::Running);
        assert!(engine.jobs[1].pending_maps() > 0);
        assert!(engine.jobs[1].map_state_bytes() > 0);
        engine
    }

    #[test]
    fn drained_map_queues_hold_no_replicas_without_later_readers() {
        let engine = cut_with_drained_map_queue(quiet_config());
        assert_eq!(engine.jobs[0].map_state_bytes(), 0);
    }

    #[test]
    fn speculation_keeps_the_replicas_of_drained_map_queues() {
        let late = EngineConfig {
            speculation: SpeculationPolicy::Late,
            ..quiet_config()
        };
        let engine = cut_with_drained_map_queue(late.clone());
        assert!(engine.jobs[0].map_state_bytes() > 0);

        // Backup maps launch once every map queue has drained, and their
        // locality is still that of the task's placed block.
        let fleet = || {
            Fleet::builder()
                .add(profiles::desktop(), 6)
                .add(profiles::xeon_e5(), 2)
                .rack_size(4)
                .build()
                .unwrap()
        };
        let cfg = EngineConfig {
            noise: NoiseConfig {
                straggler_prob: 0.3,
                straggler_slowdown: (3.0, 5.0),
                utilization_jitter: 0.0,
            },
            ..late
        };
        let mut engine = Engine::new(fleet(), cfg, 13);
        let mut blocks = Vec::new();
        for j in 0..4 {
            let placed: Vec<cluster::hdfs::Block> = (0..12)
                .map(|k| cluster::hdfs::Block {
                    id: cluster::hdfs::BlockId((j * 12 + k) as u64),
                    replicas: vec![MachineId((k + j) % 8), MachineId((k * 3 + 1) % 8)],
                })
                .collect();
            let at = SimTime::from_secs(30 * j as u64);
            let spec = JobSpec::new(JobId(j as u64), Benchmark::wordcount(), 12, 1, at);
            engine.submit_job_with_blocks(spec, placed.clone());
            blocks.push(placed);
        }
        let fleet = fleet();
        let (r, reports) = run_greedy_with_reports(engine);
        assert!(r.drained);
        let backups: Vec<_> = reports
            .iter()
            .filter(|t| t.speculative && t.kind == SlotKind::Map)
            .collect();
        assert!(!backups.is_empty(), "no backup map won");
        for t in backups {
            let block = &blocks[t.job().index()][t.task.task.index as usize];
            let want = cluster::hdfs::locality(&fleet, block.replicas.iter().copied(), t.machine);
            assert_eq!(t.locality, Some(want), "{:?}", t.task);
        }
    }

    #[test]
    #[should_panic(expected = "job ids must be dense")]
    fn non_dense_job_ids_rejected() {
        let mut engine = Engine::new(small_fleet(), quiet_config(), 0);
        engine.submit_jobs(vec![JobSpec::new(
            JobId(5),
            Benchmark::grep(),
            1,
            0,
            SimTime::ZERO,
        )]);
    }

    #[test]
    fn time_limit_aborts_run() {
        let cfg = EngineConfig {
            max_sim_time: SimDuration::from_secs(5),
            noise: NoiseConfig::none(),
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(small_fleet(), cfg, 2);
        engine.submit_jobs(vec![JobSpec::new(
            JobId(0),
            Benchmark::terasort(),
            500,
            16,
            SimTime::ZERO,
        )]);
        let r = engine.run(&mut GreedyScheduler::new());
        assert!(!r.drained);
        assert!(r.jobs[0].finished_at.is_none());
    }

    #[test]
    fn speculation_launches_backups_and_conserves_tasks() {
        let cfg = EngineConfig {
            noise: NoiseConfig {
                straggler_prob: 0.2,
                straggler_slowdown: (3.0, 5.0),
                utilization_jitter: 0.0,
            },
            speculation: SpeculationPolicy::Hadoop,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(small_fleet(), cfg, 21);
        engine.submit_jobs(vec![JobSpec::new(
            JobId(0),
            Benchmark::wordcount(),
            60,
            4,
            SimTime::ZERO,
        )]);
        let (r, reports) = run_greedy_with_reports(engine);
        assert!(r.drained);
        // Every task counted exactly once despite backup copies.
        assert_eq!(r.total_tasks, 64);
        assert!(
            r.speculative_attempts > 0,
            "heavy stragglers must trigger backups"
        );
        assert_eq!(
            reports.len() as u64,
            r.total_tasks,
            "losers must not produce completion reports"
        );
        assert!(r.wasted_attempts <= r.speculative_attempts);
    }

    #[test]
    fn speculation_off_launches_nothing() {
        let cfg = EngineConfig {
            noise: NoiseConfig::paper_default(),
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(small_fleet(), cfg, 22);
        engine.submit_jobs(vec![JobSpec::new(
            JobId(0),
            Benchmark::grep(),
            60,
            4,
            SimTime::ZERO,
        )]);
        let r = engine.run(&mut GreedyScheduler::new());
        assert_eq!(r.speculative_attempts, 0);
        assert_eq!(r.wasted_attempts, 0);
    }

    #[test]
    fn speculation_cuts_straggler_tail() {
        // A fleet with one crawling machine and strong stragglers: backup
        // tasks should shorten the tail on average.
        let fleet = || {
            Fleet::builder()
                .add(cluster::profiles::desktop(), 2)
                .add(cluster::profiles::atom(), 1)
                .build()
                .unwrap()
        };
        let run = |policy: SpeculationPolicy, seed: u64| {
            let cfg = EngineConfig {
                noise: NoiseConfig {
                    straggler_prob: 0.15,
                    straggler_slowdown: (4.0, 8.0),
                    utilization_jitter: 0.0,
                },
                speculation: policy,
                ..EngineConfig::default()
            };
            let mut engine = Engine::new(fleet(), cfg, seed);
            engine.submit_jobs(vec![JobSpec::new(
                JobId(0),
                Benchmark::wordcount(),
                48,
                4,
                SimTime::ZERO,
            )]);
            engine
                .run(&mut GreedyScheduler::new())
                .makespan
                .as_secs_f64()
        };
        let mean =
            |policy: SpeculationPolicy| (1u64..=5).map(|s| run(policy, s)).sum::<f64>() / 5.0;
        let off = mean(SpeculationPolicy::Off);
        let late = mean(SpeculationPolicy::Late);
        assert!(
            late < off,
            "LATE should shorten the straggler tail: {late:.0}s vs {off:.0}s"
        );
    }

    #[test]
    fn dvfs_lowers_mean_power_with_bounded_slowdown() {
        use crate::DvfsConfig;
        // DVFS trades service speed for draw. Whether *total* energy drops
        // depends on how much static power the stretched makespan re-buys
        // (the race-to-idle effect — "slow down or sleep"); the invariants
        // are lower mean power and a slowdown bounded by the frequency
        // factor.
        let jobs = || {
            vec![JobSpec::new(
                JobId(0),
                Benchmark::wordcount(),
                24,
                2,
                SimTime::ZERO,
            )]
        };
        let base_cfg = EngineConfig {
            noise: NoiseConfig::none(),
            ..EngineConfig::default()
        };
        let mut plain = Engine::new(small_fleet(), base_cfg.clone(), 8);
        plain.submit_jobs(jobs());
        let nominal = plain.run(&mut GreedyScheduler::new());

        let dvfs_cfg = EngineConfig {
            dvfs: Some(DvfsConfig::conservative()),
            ..base_cfg
        };
        let mut eco = Engine::new(small_fleet(), dvfs_cfg, 8);
        eco.submit_jobs(jobs());
        let scaled = eco.run(&mut GreedyScheduler::new());

        assert!(scaled.drained && nominal.drained);
        let mean_w = |r: &RunResult| r.total_energy_joules() / r.makespan.as_secs_f64();
        assert!(
            mean_w(&scaled) < mean_w(&nominal),
            "eco mode must lower mean power: {:.1} vs {:.1} W",
            mean_w(&scaled),
            mean_w(&nominal)
        );
        // The slowdown is bounded by the frequency factor.
        assert!(
            scaled.makespan.as_secs_f64() < nominal.makespan.as_secs_f64() / 0.6,
            "eco slowdown out of bounds"
        );
    }

    #[test]
    fn power_down_saves_idle_energy_between_jobs() {
        use crate::PowerDownConfig;
        // Two jobs separated by a long work drought; with power-down the
        // gap is spent in standby.
        let jobs = || {
            vec![
                JobSpec::new(JobId(0), Benchmark::wordcount(), 8, 0, SimTime::ZERO),
                JobSpec::new(
                    JobId(1),
                    Benchmark::wordcount(),
                    8,
                    0,
                    SimTime::from_secs(900),
                ),
            ]
        };
        let base_cfg = EngineConfig {
            noise: NoiseConfig::none(),
            ..EngineConfig::default()
        };
        let mut plain = Engine::new(small_fleet(), base_cfg.clone(), 3);
        plain.submit_jobs(jobs());
        let without = plain.run(&mut GreedyScheduler::new());

        let pd_cfg = EngineConfig {
            power_down: Some(PowerDownConfig::suspend_to_ram()),
            ..base_cfg
        };
        let mut saver = Engine::new(small_fleet(), pd_cfg, 3);
        saver.submit_jobs(jobs());
        let with = saver.run(&mut GreedyScheduler::new());

        assert!(with.drained && without.drained);
        assert!(
            with.total_energy_joules() < 0.6 * without.total_energy_joules(),
            "power-down should cut the idle gap: {} vs {}",
            with.total_energy_joules(),
            without.total_energy_joules()
        );
        // Wake-up latency may delay the second job slightly, never hugely.
        let d_with = with.jobs[1].completion_time().unwrap().as_secs_f64();
        let d_without = without.jobs[1].completion_time().unwrap().as_secs_f64();
        assert!(d_with <= d_without + 30.0, "{d_with} vs {d_without}");
    }

    #[test]
    fn power_down_never_sleeps_through_pending_work() {
        use crate::PowerDownConfig;
        let cfg = EngineConfig {
            noise: NoiseConfig::none(),
            power_down: Some(PowerDownConfig::suspend_to_ram()),
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(small_fleet(), cfg, 5);
        engine.submit_jobs(vec![JobSpec::new(
            JobId(0),
            Benchmark::terasort(),
            120,
            8,
            SimTime::ZERO,
        )]);
        let r = engine.run(&mut GreedyScheduler::new());
        assert!(
            r.drained,
            "work must never be stranded by sleeping machines"
        );
        assert_eq!(r.total_tasks, 128);
    }

    #[test]
    fn interval_snapshots_record_assignments() {
        let cfg = EngineConfig {
            control_interval: SimDuration::from_secs(30),
            noise: NoiseConfig::none(),
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(small_fleet(), cfg, 9);
        engine.submit_jobs(vec![JobSpec::new(
            JobId(0),
            Benchmark::wordcount(),
            60,
            4,
            SimTime::ZERO,
        )]);
        let r = engine.run(&mut GreedyScheduler::new());
        assert!(!r.intervals.is_empty());
        let assigned: u64 = r
            .intervals
            .iter()
            .flat_map(|s| s.assignments.values())
            .flat_map(|row| row.iter().map(|cell| u64::from(cell.starts)))
            .sum();
        assert_eq!(assigned, r.total_tasks);
        // Energy series is nondecreasing.
        let mut last = 0.0;
        for (_, e) in r.energy_series.iter() {
            assert!(e >= last);
            last = e;
        }
    }
}
