//! The assignment hot path: slot offers, task start and task completion.

use simcore::{EventQueue, SimDuration};

use cluster::hdfs::Locality;
use cluster::{MachineId, SlotKind};
use workload::{JobId, TaskDemand, TaskId, TaskIndex};

use crate::scheduler::Scheduler;
use crate::trace::SimEvent;

use super::{Engine, Event, RunningTask};

impl Engine {
    /// Offers each free slot of `machine` to the scheduler.
    pub(super) fn heartbeat(
        &mut self,
        machine: MachineId,
        scheduler: &mut dyn Scheduler,
        queue: &mut EventQueue<Event>,
    ) {
        // Fault state machine first: a crashed machine stops heartbeating
        // (its events double as the JobTracker's expiry clock) and a
        // blacklisted one is skipped for offers and speculation alike.
        if !self.fault_heartbeat(machine) {
            return;
        }
        if !self.manage_power(machine) {
            return;
        }
        self.manage_dvfs(machine);
        for kind in [SlotKind::Map, SlotKind::Reduce] {
            loop {
                let has_slot = self
                    .fleet
                    .machine(machine)
                    .map(|m| m.has_free_slot(kind))
                    .unwrap_or(false);
                if !has_slot || !self.any_pending(kind) {
                    break;
                }
                // The traced path asks the scheduler to explain itself; the
                // plain path never constructs a decision payload. Both make
                // the identical choice (select_job_traced contract).
                let (job, candidates) = if self.config.trace_decisions {
                    let (job, candidates) = scheduler.select_job_traced(&*self, machine, kind);
                    (job, Some(candidates))
                } else {
                    (scheduler.select_job(&*self, machine, kind), None)
                };
                let Some(job) = job else {
                    break;
                };
                if let Some(candidates) = candidates {
                    self.trace.notify(
                        self.now,
                        &SimEvent::AssignmentDecision {
                            machine,
                            kind,
                            chosen: job,
                            candidates,
                        },
                    );
                }
                if !self.start_task(job, machine, kind, queue) {
                    // Scheduler picked a job with nothing to run; treat as a
                    // decline to avoid livelock.
                    break;
                }
            }
            // Backup tasks: with a still-free slot and no fresh work, clone
            // a straggling attempt from elsewhere.
            if self.config.speculation != crate::SpeculationPolicy::Off {
                self.try_speculate(machine, kind, queue);
            }
        }
        if !self.trace.is_empty() {
            let (free_map, free_reduce) = self
                .fleet
                .machine(machine)
                .map(|m| {
                    let s = m.slots();
                    (s.free_map as u32, s.free_reduce as u32)
                })
                .unwrap_or((0, 0));
            let pending_total = self.state.pending_total(SlotKind::Map)
                + self.state.pending_total(SlotKind::Reduce);
            self.trace.notify(
                self.now,
                &SimEvent::HeartbeatDrained {
                    machine,
                    free_map,
                    free_reduce,
                    pending_total,
                },
            );
        }
    }

    /// Whether any active job has a pending task of `kind`, cluster-wide.
    ///
    /// Deliberately machine-agnostic: data locality is a *preference*
    /// applied when choosing which task to run, never an eligibility
    /// constraint, so pending work on any machine is pending work here
    /// too. (An earlier signature took a `_machine` argument it ignored,
    /// wrongly implying locality filtering.) O(1) off the scoreboard's
    /// aggregate totals.
    pub(super) fn any_pending(&self, kind: SlotKind) -> bool {
        self.state.pending_total(kind) > 0
    }

    /// Starts the best pending task of `job` on `machine`. Returns false if
    /// the job had no eligible task of that kind.
    fn start_task(
        &mut self,
        job: JobId,
        machine: MachineId,
        kind: SlotKind,
        queue: &mut EventQueue<Event>,
    ) -> bool {
        let ji = job.index();
        if ji >= self.jobs.len() || !self.submitted[ji] {
            return false;
        }

        // Take a concrete task from the job.
        let (index, locality, demand) = {
            let slowstart = self.config.reduce_slowstart;
            let state = &mut self.jobs[ji];
            match kind {
                SlotKind::Map => {
                    let Some((idx, loc)) = state.maps_mut().take_map_for(&self.fleet, machine)
                    else {
                        return false;
                    };
                    let demand = state.spec.map_demand(&mut self.rng_demand);
                    (idx, Some(loc), demand)
                }
                SlotKind::Reduce => {
                    let Some(idx) = state.take_reduce(slowstart) else {
                        return false;
                    };
                    let demand = state.spec.reduce_demand(&mut self.rng_demand);
                    (idx, None, demand)
                }
            }
        };

        let rt = self.make_running_task(job, index, machine, kind, locality, demand, false);

        // Occupy the slot; on the (impossible) race of a full machine,
        // return the task to the queue.
        let occupy = self
            .fleet
            .machine_mut(machine)
            .and_then(|m| m.occupy(self.now, kind, rt.core_load));
        if occupy.is_err() {
            match kind {
                SlotKind::Map => self.jobs[ji].maps_mut().return_map(&self.fleet, index),
                SlotKind::Reduce => self.jobs[ji].return_reduce(index),
            }
            return false;
        }
        if rt.shuffle_charged {
            self.network.begin_transfer(machine);
        }
        self.jobs[ji].note_task_started(self.now);
        if kind == SlotKind::Map && !self.config.revisits_started_tasks() {
            // The slot is taken, so this map never returns to the queue,
            // and nothing else looks up a started map's block.
            self.jobs[ji].release_drained_maps();
        }
        self.refresh_job(ji);
        if let Some(arena) = &mut self.arena {
            arena.push_attempt(rt.task, machine, self.now);
        }
        self.interval_starts
            .push(job, machine)
            .expect("job ids and machine indices fit u32");

        if !self.trace.is_empty() {
            self.trace.notify(
                self.now,
                &SimEvent::TaskStarted {
                    task: rt.task,
                    machine,
                    speculative: false,
                },
            );
            self.emit_slot_occupancy(machine, kind);
        }

        if self.config.fault.is_enabled() {
            // Keep a copy for declaration-time cleanup if the machine dies
            // while the attempt is in flight.
            self.inflight[machine.index()].insert(rt.task, rt.clone());
        }
        let done_at = self.now + SimDuration::from_secs_f64(rt.duration_secs);
        queue.schedule(done_at, Event::TaskDone(Box::new(rt)));
        true
    }

    /// Computes service time, core load and noise for a new attempt.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn make_running_task(
        &mut self,
        job: JobId,
        index: u32,
        machine: MachineId,
        kind: SlotKind,
        locality: Option<Locality>,
        demand: TaskDemand,
        speculative: bool,
    ) -> RunningTask {
        let m = self.fleet.machine(machine).expect("machine exists");
        let prof = m.profile();

        // DVFS slows the CPU phase of work started while in eco mode.
        let cpu_secs = demand.cpu_secs / (prof.cpu_speed() * m.dvfs_factor());
        let (io_secs, shuffle_secs, shuffle_charged): (f64, f64, bool) = match kind {
            SlotKind::Map => {
                let mult = locality.map_or(1.0, Locality::read_cost_multiplier);
                (demand.io_secs * mult / prof.io_speed(), 0.0, false)
            }
            SlotKind::Reduce => {
                let shuffle = self.network.transfer_seconds(machine, demand.input_mb);
                (
                    demand.io_secs / prof.io_speed(),
                    shuffle,
                    demand.input_mb > 0.0,
                )
            }
        };
        let other_secs = io_secs + shuffle_secs;
        let base = (cpu_secs + other_secs).max(0.001);

        // Oversubscription: when average busy cores would exceed the core
        // count, everything on the machine slows proportionally. Applied to
        // this attempt only (an approximation that avoids rescheduling).
        let core_load = ((cpu_secs + 0.15 * other_secs) / base).clamp(0.0, 1.0);
        let busy_after = m.utilization() * prof.cores() as f64 + core_load;
        let contention = (busy_after / prof.cores() as f64).max(1.0);

        // Straggler injection (system noise, §IV-D).
        let noise = &self.config.noise;
        let straggled = noise.straggler_prob > 0.0 && self.rng_noise.chance(noise.straggler_prob);
        let straggle = if straggled {
            let (lo, hi) = noise.straggler_slowdown;
            if hi > lo {
                self.rng_noise.uniform_range(lo, hi)
            } else {
                lo
            }
        } else {
            1.0
        };

        // Fault injection: a failing attempt occupies its slot for a
        // random fraction of the full duration, then releases it without
        // producing output.
        let task = TaskId {
            job,
            task: TaskIndex { kind, index },
        };
        let (will_fail, fail_fraction) = self.draw_attempt_failure(task);
        let duration_secs = base * contention * straggle * fail_fraction;
        RunningTask {
            task,
            machine,
            kind,
            started_at: self.now,
            cpu_secs,
            other_secs,
            duration_secs,
            core_load,
            locality,
            straggled,
            speculative,
            shuffle_secs,
            shuffle_charged,
            epoch: self.machine_epoch[machine.index()],
            will_fail,
        }
    }

    pub(super) fn complete_task(&mut self, rt: RunningTask, scheduler: &mut dyn Scheduler) {
        // Fault layer: an attempt stamped with a stale machine epoch died
        // with its machine and was cleaned up at declaration time; its
        // queued completion event is dropped unprocessed. With faults off
        // every epoch is 0 and this never fires.
        if rt.epoch != self.machine_epoch[rt.machine.index()] {
            return;
        }
        if self.config.fault.is_enabled() {
            self.inflight[rt.machine.index()].remove(&rt.task);
            if rt.will_fail {
                self.fail_attempt(&rt);
                return;
            }
        }
        let ji = rt.task.job.index();

        if rt.shuffle_charged {
            self.network.end_transfer(rt.machine);
        }
        self.fleet
            .machine_mut(rt.machine)
            .expect("machine exists")
            .release(self.now, rt.kind, rt.core_load)
            .expect("slot was occupied");

        let won = self.jobs[ji].note_task_completed(self.now, rt.kind, rt.task.task.index);
        // Winner or speculative loser, the job's occupancy (and possibly
        // its completion counters and slow-start gate) changed.
        self.refresh_job(ji);
        if !self.trace.is_empty() {
            self.trace.notify(
                self.now,
                &SimEvent::TaskCompleted {
                    task: rt.task,
                    machine: rt.machine,
                    won,
                    straggled: rt.straggled,
                    speculative: rt.speculative,
                },
            );
            self.emit_slot_occupancy(rt.machine, rt.kind);
        }
        // Drop the attempt from the registry; any remaining attempt of a
        // winning task will arrive later as a loser.
        if let Some(arena) = &mut self.arena {
            arena.remove_attempt(rt.task, rt.machine);
        }
        if won {
            // Record the completed duration for speculation thresholds.
            let entry = &mut self.duration_stats[ji][super::kind_ix(rt.kind)];
            entry.0 += rt.duration_secs;
            entry.1 += 1;
            // Completed map outputs live on the winner's local disk; if
            // that machine dies before the job finishes, they are lost and
            // the map re-executes (see `fault.rs`).
            if self.config.fault.crash_enabled() && rt.kind == SlotKind::Map {
                self.map_outputs[rt.machine.index()]
                    .entry(rt.task.job)
                    .or_default()
                    .push(rt.task.task.index);
            }
        } else {
            // A speculative loser: its work is discarded.
            self.wasted_attempts += 1;
            return;
        }

        // Counters.
        match rt.kind {
            SlotKind::Map => self.map_counts[rt.machine.index()] += 1,
            SlotKind::Reduce => self.reduce_counts[rt.machine.index()] += 1,
        }
        let bench = super::bench_ix(self.jobs[ji].spec.benchmark().kind());
        *self.bench_counts[rt.machine.index()][bench].get_or_insert(0) += 1;
        self.total_tasks += 1;

        let report = self.build_report(&rt);
        scheduler.on_task_completed(&*self, &report);
        self.report_trace.notify(self.now, &report);
        if self.jobs[ji].is_complete() {
            // A job completes exactly once: this branch only fires on the
            // winning attempt of its final task.
            self.finished_jobs += 1;
            self.trace
                .emit(self.now, || SimEvent::JobCompleted { job: rt.task.job });
            scheduler.on_job_completed(&*self, rt.task.job);
        }
    }
}
