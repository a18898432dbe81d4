//! Backup-task (speculative execution) policies: Hadoop-style and LATE.

use simcore::{EventQueue, SimDuration};

use cluster::{MachineId, SlotKind};
use workload::TaskId;

use crate::trace::SimEvent;

use super::{Engine, Event};

impl Engine {
    /// Launches at most one speculative copy of a straggling task of `kind`
    /// on `machine`, per the configured policy.
    pub(super) fn try_speculate(
        &mut self,
        machine: MachineId,
        kind: SlotKind,
        queue: &mut EventQueue<Event>,
    ) {
        let has_slot = self
            .fleet
            .machine(machine)
            .map(|m| m.has_free_slot(kind))
            .unwrap_or(false);
        if !has_slot || self.any_pending(kind) {
            return;
        }
        // LATE only backs up onto fast machines (>= median fleet speed).
        // Speeds and their median are precomputed at engine construction.
        if self.config.speculation == crate::SpeculationPolicy::Late {
            let mine = self
                .machine_speeds
                .get(machine.index())
                .copied()
                .unwrap_or(0.0);
            if mine < self.median_machine_speed {
                return;
            }
        }

        // Find the longest-elapsed single-attempt straggler of this kind,
        // scanning only tasks with an in-flight attempt.
        let threshold = self.config.speculation_threshold;
        let mut best: Option<(TaskId, f64)> = None;
        for (task, attempts) in self.arena().inflight() {
            if task.task.kind != kind || attempts.len() != 1 {
                continue;
            }
            let (running_on, started) = attempts[0];
            if running_on == machine {
                continue;
            }
            let ji = task.job.index();
            if self.jobs[ji].is_task_finished(kind, task.task.index) {
                continue;
            }
            let (sum, n) = self.duration_stats[ji][super::kind_ix(kind)];
            if n == 0 {
                continue;
            }
            let mean = sum / n as f64;
            let elapsed = self.now.saturating_since(started).as_secs_f64();
            // Ties go to the smallest task id, so the choice does not
            // depend on the registry's iteration order.
            if elapsed > threshold * mean
                && best.is_none_or(|(t, e)| elapsed > e || (elapsed == e && task < t))
            {
                best = Some((task, elapsed));
            }
        }
        let Some((task, _)) = best else { return };

        // Clone the attempt onto this machine with a fresh demand sample.
        let ji = task.job.index();
        let (locality, demand) = match kind {
            SlotKind::Map => {
                let replicas = self.jobs[ji].maps().replicas(task.task.index);
                let loc = cluster::hdfs::locality(&self.fleet, replicas, machine);
                (
                    Some(loc),
                    self.jobs[ji].spec.map_demand(&mut self.rng_demand),
                )
            }
            SlotKind::Reduce => (None, self.jobs[ji].spec.reduce_demand(&mut self.rng_demand)),
        };
        let rt = self.make_running_task(
            task.job,
            task.task.index,
            machine,
            kind,
            locality,
            demand,
            true,
        );
        let occupy = self
            .fleet
            .machine_mut(machine)
            .and_then(|m| m.occupy(self.now, kind, rt.core_load));
        if occupy.is_err() {
            return;
        }
        if rt.shuffle_charged {
            self.network.begin_transfer(machine);
        }
        self.jobs[ji].note_task_started(self.now);
        self.refresh_job(ji);
        let now = self.now;
        self.arena_mut().push_attempt(task, machine, now);
        self.speculative_launched += 1;
        if !self.trace.is_empty() {
            self.trace
                .notify(self.now, &SimEvent::SpeculationLaunched { task, machine });
            self.trace.notify(
                self.now,
                &SimEvent::TaskStarted {
                    task,
                    machine,
                    speculative: true,
                },
            );
            self.emit_slot_occupancy(machine, kind);
        }
        if self.config.fault.is_enabled() {
            // Backup copies die with their machine too.
            self.inflight[machine.index()].insert(rt.task, rt.clone());
        }
        let done_at = self.now + SimDuration::from_secs_f64(rt.duration_secs);
        queue.schedule(done_at, Event::TaskDone(Box::new(rt)));
    }
}
