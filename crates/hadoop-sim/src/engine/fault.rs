//! Fault injection and failure recovery: seed-deterministic TaskTracker
//! crash schedules, heartbeat-expiry death detection, declaration-time
//! cleanup (attempt failure, map-output loss, re-queueing), per-attempt
//! random failures with a retry cap, and per-machine blacklisting.
//!
//! The model follows Hadoop 1.x semantics: a crash kills the TaskTracker
//! *process* (the machine keeps drawing idle power until the daemon
//! restarts); the JobTracker only notices the silence, declaring the
//! machine dead after [`FaultConfig::missed_heartbeats`] silent periods.
//! Declaration fails every running attempt, re-queues the work, and —
//! because map outputs live on the TaskTracker's local disk, not in HDFS —
//! re-executes every *completed* map of a still-unfinished job.
//!
//! Every code path below is gated on [`FaultConfig::is_enabled`]: with the
//! default (disabled) config no fault branch is taken, no fault randomness
//! is drawn and no fault event is emitted, so runs are byte-identical to a
//! build without this layer (the golden trace digest test locks this in).
//!
//! [`FaultConfig::missed_heartbeats`]: crate::FaultConfig
//! [`FaultConfig::is_enabled`]: crate::FaultConfig::is_enabled

use std::collections::VecDeque;

use simcore::{SimDuration, SimRng, SimTime};

use cluster::{MachineId, SlotKind};
use workload::{TaskId, TaskIndex};

use crate::trace::SimEvent;
use crate::EngineConfig;

use super::{Engine, RunningTask};

/// Upper bound on precomputed crashes per machine; a backstop against
/// pathological MTBF/horizon combinations, far above any real sweep.
const MAX_CRASHES_PER_MACHINE: usize = 4096;

/// JobTracker-side health of one machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum MachineHealth {
    /// Heartbeating normally.
    Healthy,
    /// The TaskTracker process died; the JobTracker hasn't noticed yet.
    /// Running attempts are doomed (their completion events are dropped by
    /// the epoch check) but nothing is cleaned up until declaration.
    Unresponsive {
        /// Silent heartbeat periods observed so far.
        missed: u32,
        /// When the restarted daemon will rejoin.
        recover_at: SimTime,
    },
    /// Declared dead: attempts failed, map outputs lost, work re-queued.
    Dead {
        /// When the restarted daemon will rejoin.
        recover_at: SimTime,
    },
}

/// Precomputes each machine's `(crash_at, recover_at)` schedule from the
/// dedicated fault RNG stream: exponential inter-crash gaps at the
/// configured MTBF, exponential downtimes floored so that declaration
/// always precedes recovery. Empty per-machine queues when crashes are
/// disabled.
pub(super) fn crash_schedules(
    config: &EngineConfig,
    n: usize,
    rng: &SimRng,
) -> Vec<VecDeque<(SimTime, SimTime)>> {
    let fault = &config.fault;
    if !fault.crash_enabled() {
        return vec![VecDeque::new(); n];
    }
    let mtbf = fault.crash_mtbf.as_secs_f64();
    let mean_down = fault.crash_downtime.as_secs_f64();
    // A crash is detected within one heartbeat of its scheduled instant
    // and declared `missed_heartbeats` periods later; any downtime of at
    // least (missed + 1) heartbeats keeps the ordering crash → declared
    // dead → recovered, so recovery can never leak un-reclaimed slots.
    let min_down = config.heartbeat.as_secs_f64() * f64::from(fault.missed_heartbeats + 1);
    let horizon = SimTime::ZERO + config.max_sim_time;
    (0..n)
        .map(|i| {
            let mut r = rng.fork_index("crash", i);
            let mut schedule = VecDeque::new();
            let mut t = SimTime::ZERO;
            while schedule.len() < MAX_CRASHES_PER_MACHINE {
                let gap = r.exponential(1.0 / mtbf);
                let crash_at = t + SimDuration::from_secs_f64(gap);
                if crash_at > horizon {
                    break;
                }
                let down = r.exponential(1.0 / mean_down).max(min_down);
                let recover_at = crash_at + SimDuration::from_secs_f64(down);
                schedule.push_back((crash_at, recover_at));
                t = recover_at;
            }
            schedule
        })
        .collect()
}

impl Engine {
    /// Per-heartbeat fault state machine for `machine`: crash onset,
    /// expiry counting, declaration and recovery. Returns whether the
    /// machine may manage power and accept slot offers this heartbeat.
    ///
    /// The engine keeps scheduling heartbeat events for silent machines;
    /// they double as the JobTracker's periodic expiry check, exactly like
    /// Hadoop's `expireTrackers` thread.
    pub(super) fn fault_heartbeat(&mut self, machine: MachineId) -> bool {
        if !self.config.fault.is_enabled() {
            return true;
        }
        let idx = machine.index();
        match self.fault_health[idx] {
            MachineHealth::Healthy => {
                if let Some(&(crash_at, recover_at)) = self.crash_schedule[idx].front() {
                    if self.now >= crash_at {
                        // The TaskTracker process dies. Its in-flight
                        // attempts are doomed from this instant (the epoch
                        // bump invalidates their queued completions), but
                        // the JobTracker only notices the silence.
                        self.machine_epoch[idx] += 1;
                        self.fault_health[idx] = MachineHealth::Unresponsive {
                            missed: 0,
                            recover_at,
                        };
                        return false;
                    }
                }
                !self.blacklisted[idx]
            }
            MachineHealth::Unresponsive { missed, recover_at } => {
                let missed = missed + 1;
                if missed >= self.config.fault.missed_heartbeats {
                    self.declare_dead(machine, recover_at);
                } else {
                    self.fault_health[idx] = MachineHealth::Unresponsive { missed, recover_at };
                }
                false
            }
            MachineHealth::Dead { recover_at } => {
                if self.now >= recover_at {
                    self.crash_schedule[idx].pop_front();
                    self.fault_health[idx] = MachineHealth::Healthy;
                    self.trace
                        .emit(self.now, || SimEvent::MachineRecovered { machine });
                    !self.blacklisted[idx]
                } else {
                    false
                }
            }
        }
    }

    /// Heartbeat expiry fired: fail every in-flight attempt on `machine`,
    /// lose its completed map outputs (re-queueing them for unfinished
    /// jobs), and mark it dead until `recover_at`.
    fn declare_dead(&mut self, machine: MachineId, recover_at: SimTime) {
        let idx = machine.index();
        let doomed: Vec<RunningTask> = std::mem::take(&mut self.inflight[idx])
            .into_values()
            .collect();
        let attempts_lost = doomed.len() as u32;
        let mut touched: Vec<usize> = Vec::new();
        for rt in &doomed {
            self.fail_running_attempt(rt, true);
            touched.push(rt.task.job.index());
        }

        // Map-output loss: completed maps held on the dead machine's local
        // disk are gone. Finished jobs already consumed them; every other
        // job reverts the task to pending and re-executes it.
        let outputs = std::mem::take(&mut self.map_outputs[idx]);
        for (job, indices) in outputs {
            let ji = job.index();
            if self.jobs[ji].is_complete() {
                continue;
            }
            for index in indices {
                if !self.jobs[ji].is_task_finished(SlotKind::Map, index) {
                    continue;
                }
                let task = TaskId {
                    job,
                    task: TaskIndex {
                        kind: SlotKind::Map,
                        index,
                    },
                };
                // Re-queue unless a still-running duplicate attempt will
                // re-complete the task on its own.
                let live = self.arena().has_live_attempt(task);
                self.jobs[ji].lose_map_output(&self.fleet, index, !live);
                // The first win was counted; the re-execution will count
                // again. Roll the counters back so the net total stays one
                // per task (the conservation property).
                self.total_tasks -= 1;
                self.map_counts[idx] -= 1;
                let bench = super::bench_ix(self.jobs[ji].spec.benchmark().kind());
                if let Some(c) = &mut self.bench_counts[idx][bench] {
                    *c -= 1;
                }
                self.map_outputs_lost += 1;
                self.trace
                    .emit(self.now, || SimEvent::MapOutputLost { task, machine });
                touched.push(ji);
            }
        }

        self.machine_failures += 1;
        self.fault_health[idx] = MachineHealth::Dead { recover_at };
        self.trace.emit(self.now, || SimEvent::MachineFailed {
            machine,
            attempts_lost,
        });
        touched.sort_unstable();
        touched.dedup();
        for ji in touched {
            self.refresh_job(ji);
        }
    }

    /// Shared failure path for crash-killed and randomly failed attempts:
    /// releases the slot and any charged transfer, updates the attempt
    /// registries and failure counters, re-queues the task when no other
    /// live attempt remains (locality is recomputed from scratch at the
    /// next offer — failure relaxes it), and emits [`SimEvent::TaskFailed`].
    ///
    /// Callers refresh the job's scoreboard row afterwards.
    fn fail_running_attempt(&mut self, rt: &RunningTask, crash: bool) {
        let ji = rt.task.job.index();
        if rt.shuffle_charged {
            self.network.end_transfer(rt.machine);
        }
        self.fleet
            .machine_mut(rt.machine)
            .expect("machine exists")
            .release(self.now, rt.kind, rt.core_load)
            .expect("slot was occupied");
        self.jobs[ji].note_task_failed();
        let arena = self.arena_mut();
        arena.remove_attempt(rt.task, rt.machine);
        arena.record_failure(rt.task);
        let live = arena.has_live_attempt(rt.task);
        self.task_failures += 1;

        let index = rt.task.task.index;
        let finished = self.jobs[ji].is_task_finished(rt.kind, index);
        if !finished && !live {
            match rt.kind {
                SlotKind::Map => self.jobs[ji].maps_mut().return_map(&self.fleet, index),
                SlotKind::Reduce => self.jobs[ji].return_reduce(index),
            }
        }
        let (task, machine) = (rt.task, rt.machine);
        self.trace.emit(self.now, || SimEvent::TaskFailed {
            task,
            machine,
            crash,
        });
        if !self.trace.is_empty() {
            self.emit_slot_occupancy(rt.machine, rt.kind);
        }
    }

    /// A randomly failed attempt's (early) completion event arrived:
    /// discard the partial work and count the failure toward the machine's
    /// blacklist threshold. The slot time the attempt burned was metered
    /// normally — that *is* the energy cost of the fault.
    pub(super) fn fail_attempt(&mut self, rt: &RunningTask) {
        let ji = rt.task.job.index();
        self.fail_running_attempt(rt, false);
        self.refresh_job(ji);

        // Blacklisting: repeated random failures take the machine out of
        // rotation for the rest of the run — but never the last operating
        // machine (termination guard).
        let idx = rt.machine.index();
        self.machine_task_failures[idx] += 1;
        let threshold = self.config.fault.blacklist_threshold;
        if threshold > 0
            && !self.blacklisted[idx]
            && self.machine_task_failures[idx] >= threshold
            && self.blacklisted.iter().filter(|&&b| !b).count() > 1
        {
            self.blacklisted[idx] = true;
            self.machines_blacklisted += 1;
            let failures = self.machine_task_failures[idx];
            let machine = rt.machine;
            self.trace.emit(self.now, || SimEvent::MachineBlacklisted {
                machine,
                failures,
            });
        }
    }

    /// Decides at attempt start whether fault injection fails it partway,
    /// returning `(will_fail, duration_fraction)`. Capped for liveness: a
    /// task that has already failed `max_task_retries` times (for any
    /// reason, crashes included) runs its further attempts to completion,
    /// so every task eventually succeeds.
    pub(super) fn draw_attempt_failure(&mut self, task: TaskId) -> (bool, f64) {
        let fault = &self.config.fault;
        if fault.task_failure_prob == 0.0 {
            return (false, 1.0);
        }
        let failures = self.arena().failures(task);
        if failures >= fault.max_task_retries {
            return (false, 1.0);
        }
        if self.rng_fault.chance(fault.task_failure_prob) {
            (true, self.rng_fault.uniform_range(0.05, 0.95))
        } else {
            (false, 1.0)
        }
    }
}
