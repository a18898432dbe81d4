//! TaskTracker report synthesis, control-interval snapshots and
//! end-of-run result assembly.

use simcore::series::TimeSeries;
use simcore::SimTime;

use cluster::SlotKind;
use workload::BenchmarkKind;

use crate::report::{TaskReport, UtilizationSample};
use crate::result::{
    fold_starts, IntervalSnapshot, JobOutcome, MachineOutcome, RunResult, ServiceStats,
};
use crate::scheduler::Scheduler;
use crate::trace::SimEvent;
use crate::StopCondition;

use super::{Engine, RunningTask};

impl Engine {
    /// Synthesizes the heartbeat-granularity utilization samples a
    /// TaskTracker would have reported for this attempt.
    pub(super) fn build_report(&mut self, rt: &RunningTask) -> TaskReport {
        let prof = self
            .fleet
            .machine(rt.machine)
            .expect("machine exists")
            .profile();
        let cores = prof.cores() as f64;
        let hb = self.config.heartbeat.as_secs_f64();
        let duration = rt.duration_secs;
        // True per-phase process utilization as a fraction of the machine.
        let u_cpu = 1.0 / cores;
        let u_io = 0.15 / cores;
        // The CPU phase occupies the front of the (stretched) attempt.
        let cpu_span = if rt.cpu_secs + rt.other_secs > 0.0 {
            duration * rt.cpu_secs / (rt.cpu_secs + rt.other_secs)
        } else {
            0.0
        };

        let jitter = self.config.noise.utilization_jitter;
        let mut samples = Vec::new();
        let mut t = 0.0;
        while t < duration {
            let dt = hb.min(duration - t);
            // Phase-weighted true utilization over [t, t+dt): samples that
            // straddle the CPU→I/O boundary blend the two levels.
            let cpu_part = (cpu_span - t).clamp(0.0, dt);
            let u_true = (cpu_part * u_cpu + (dt - cpu_part) * u_io) / dt;
            let factor = if jitter > 0.0 {
                self.rng_noise.normal_clamped(1.0, jitter, 0.3, 3.0)
            } else {
                1.0
            };
            samples.push(UtilizationSample {
                dt_secs: dt,
                utilization: (u_true * factor).clamp(0.0, 1.0),
            });
            t += dt;
        }

        // Ground-truth Eq. 2 attribution (noise-free).
        let u_mean_true = (cpu_span * u_cpu + (duration - cpu_span) * u_io) / duration.max(1e-9);
        let power = prof.power();
        let true_energy = (power.idle_share_per_slot(prof.total_slots())
            + power.alpha_watts() * u_mean_true)
            * duration;

        TaskReport {
            task: rt.task,
            machine: rt.machine,
            kind: rt.kind,
            group: self.state.job(rt.task.job).group,
            started_at: rt.started_at,
            finished_at: self.now,
            locality: rt.locality,
            samples,
            shuffle_secs: rt.shuffle_secs,
            true_energy_joules: true_energy,
            straggled: rt.straggled,
            speculative: rt.speculative,
        }
    }

    pub(super) fn control_tick(&mut self, scheduler: &mut dyn Scheduler) {
        self.fleet.sync_all(self.now);
        let energy = self.fleet.total_energy_joules();
        self.energy_series.record(self.now, energy);
        let index = self.intervals.len() as u64;
        self.intervals.push(IntervalSnapshot {
            at: self.now,
            cumulative_energy_joules: energy,
            assignments: fold_starts(&mut self.interval_starts),
        });
        // Fire before the scheduler callback so interval events precede
        // any policy events the scheduler emits at the same instant.
        self.trace
            .emit(self.now, || SimEvent::ControlIntervalFired {
                index,
                cumulative_energy_joules: energy,
            });
        // Steady-state queue-depth sample (horizon runs, post-cutoff only).
        if self.measure_from.is_some() {
            let depth = self.state.pending_total(SlotKind::Map)
                + self.state.pending_total(SlotKind::Reduce);
            self.queue_depth_sum += depth as f64;
            self.queue_depth_samples += 1;
            self.queue_depth_max = self.queue_depth_max.max(depth);
        }
        scheduler.on_control_interval(&*self);
    }

    pub(super) fn finish(&mut self, scheduler_name: String, drained: bool) -> RunResult {
        self.fleet.sync_all(self.now);
        // Final sample so the energy series always ends at the run total,
        // plus a partial-interval snapshot when anything was assigned since
        // the last control tick (or no tick ever fired).
        let energy = self.fleet.total_energy_joules();
        self.energy_series.record(self.now, energy);
        if !self.interval_starts.is_empty() || self.intervals.is_empty() {
            self.intervals.push(IntervalSnapshot {
                at: self.now,
                cumulative_energy_joules: energy,
                assignments: fold_starts(&mut self.interval_starts),
            });
        }
        let total_tasks = self.total_tasks;
        self.trace.emit(self.now, || SimEvent::RunFinished {
            drained,
            total_energy_joules: energy,
            total_tasks,
        });

        let jobs = self
            .jobs
            .iter()
            .map(|j| JobOutcome {
                id: j.spec.id(),
                label: j.spec.class_label(),
                benchmark: j.spec.benchmark().kind().to_string(),
                size_class: j.spec.size_class(),
                submitted_at: j.spec.submit_at(),
                phase: j.phase(),
                finished_at: j.finished_at,
                total_tasks: j.spec.num_tasks(),
                reference_work_secs: j.spec.reference_work_secs(),
            })
            .collect();

        let machines = self
            .fleet
            .iter()
            .map(|m| {
                let id = m.id();
                MachineOutcome {
                    machine: id,
                    profile: m.profile().name().to_owned(),
                    energy_joules: m.meter().total_joules(),
                    idle_joules: m.meter().idle_joules(),
                    workload_joules: m.meter().workload_joules(),
                    mean_utilization: m.mean_utilization(self.now),
                    map_tasks: self.map_counts[id.index()],
                    reduce_tasks: self.reduce_counts[id.index()],
                    tasks_by_benchmark: BenchmarkKind::ALL
                        .iter()
                        .zip(self.bench_counts[id.index()])
                        .filter_map(|(kind, n)| Some((kind.as_str().to_owned(), n?)))
                        .collect(),
                }
            })
            .collect();

        let service = self.service_stats(energy);

        RunResult {
            scheduler: scheduler_name,
            makespan: self.now - SimTime::ZERO,
            drained,
            groups: self.state.groups().names().to_vec(),
            jobs,
            machines,
            intervals: std::mem::take(&mut self.intervals),
            energy_series: std::mem::replace(
                &mut self.energy_series,
                TimeSeries::new("cumulative_energy_joules"),
            ),
            total_tasks: self.total_tasks,
            speculative_attempts: self.speculative_launched,
            wasted_attempts: self.wasted_attempts,
            task_failures: self.task_failures,
            machine_failures: self.machine_failures,
            map_outputs_lost: self.map_outputs_lost,
            machines_blacklisted: self.machines_blacklisted,
            service,
        }
    }

    /// Assembles steady-state service metrics for a horizon run; `None`
    /// for drain runs. `final_energy` is the already-synced fleet total at
    /// the end of the run.
    fn service_stats(&self, final_energy: f64) -> Option<ServiceStats> {
        let StopCondition::Horizon { warmup, .. } = self.config.stop else {
            return None;
        };
        let backlog = self
            .jobs
            .iter()
            .enumerate()
            .filter(|(i, j)| self.submitted[*i] && !j.is_complete())
            .count() as u64;
        let Some(from) = self.measure_from else {
            // The run ended before the cutoff fired (a finite workload that
            // hit `max_sim_time` or drained during warm-up): an empty
            // measurement window.
            return Some(ServiceStats {
                warmup_s: warmup.as_secs_f64(),
                measure_s: 0.0,
                arrivals: 0,
                completions: 0,
                backlog,
                throughput_per_min: 0.0,
                mean_sojourn: simcore::SimDuration::ZERO,
                latency_distribution: Vec::new(),
                energy_joules: 0.0,
                energy_per_job: 0.0,
                energy_rate_watts: 0.0,
                tasks_completed: 0,
                queue_mean: 0.0,
                queue_max: 0,
            });
        };

        let mut arrivals = 0u64;
        let mut sojourns: Vec<simcore::SimDuration> = Vec::new();
        for (i, j) in self.jobs.iter().enumerate() {
            if !self.submitted[i] || j.spec.submit_at() < from {
                continue;
            }
            arrivals += 1;
            if let Some(fin) = j.finished_at {
                sojourns.push(fin - j.spec.submit_at());
            }
        }
        // SimDuration is totally ordered, so the sort — and therefore every
        // nearest-rank percentile — is exact and deterministic.
        sojourns.sort();
        let completions = sojourns.len() as u64;
        let latency_distribution = if sojourns.is_empty() {
            Vec::new()
        } else {
            [50u8, 90, 95, 99]
                .iter()
                .map(|&p| {
                    let rank = (p as usize * sojourns.len()).div_ceil(100).max(1);
                    (p, sojourns[rank - 1])
                })
                .collect()
        };
        let mean_sojourn = if sojourns.is_empty() {
            simcore::SimDuration::ZERO
        } else {
            simcore::SimDuration::from_secs_f64(
                sojourns.iter().map(|d| d.as_secs_f64()).sum::<f64>() / sojourns.len() as f64,
            )
        };

        let measure_s = (self.now - from).as_secs_f64();
        let window_energy = final_energy - self.warmup_energy;
        Some(ServiceStats {
            warmup_s: warmup.as_secs_f64(),
            measure_s,
            arrivals,
            completions,
            backlog,
            throughput_per_min: if measure_s > 0.0 {
                completions as f64 * 60.0 / measure_s
            } else {
                0.0
            },
            mean_sojourn,
            latency_distribution,
            energy_joules: window_energy,
            energy_per_job: if completions > 0 {
                window_energy / completions as f64
            } else {
                0.0
            },
            energy_rate_watts: if measure_s > 0.0 {
                window_energy / measure_s
            } else {
                0.0
            },
            tasks_completed: self.total_tasks - self.warmup_tasks,
            queue_mean: if self.queue_depth_samples > 0 {
                self.queue_depth_sum / self.queue_depth_samples as f64
            } else {
                0.0
            },
            queue_max: self.queue_depth_max,
        })
    }
}
