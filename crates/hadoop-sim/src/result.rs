//! Run results: the raw material of every figure in the evaluation.

use std::collections::BTreeMap;
use std::fmt;

use simcore::series::TimeSeries;
use simcore::{SimDuration, SimTime};

use cluster::MachineId;
use workload::{JobId, SizeClass};

use crate::JobPhase;

/// Outcome of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job id.
    pub id: JobId,
    /// Fig. 8(c)-style class label, e.g. `"Terasort-M"`.
    pub label: String,
    /// Benchmark name without the size suffix.
    pub benchmark: String,
    /// MSD size class, when applicable.
    pub size_class: Option<SizeClass>,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Lifecycle phase at the end of the run (`Completed` unless the run
    /// hit its time limit).
    pub phase: JobPhase,
    /// Completion time (`None` when the run hit its time limit first).
    pub finished_at: Option<SimTime>,
    /// Total tasks in the job.
    pub total_tasks: u32,
    /// Serial reference work, for standalone-time estimation.
    pub reference_work_secs: f64,
}

impl JobOutcome {
    /// Wall-clock completion: finish − submit.
    pub fn completion_time(&self) -> Option<SimDuration> {
        self.finished_at.map(|f| f - self.submitted_at)
    }
}

/// Outcome of one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineOutcome {
    /// The machine id.
    pub machine: MachineId,
    /// Hardware profile name (homogeneous-group key).
    pub profile: String,
    /// Total metered energy over the run, in joules.
    pub energy_joules: f64,
    /// Idle-system component of the energy.
    pub idle_joules: f64,
    /// Above-idle ("workload used") component of the energy.
    pub workload_joules: f64,
    /// Time-averaged CPU utilization over the run, in `[0, 1]`.
    pub mean_utilization: f64,
    /// Completed map tasks.
    pub map_tasks: u64,
    /// Completed reduce tasks.
    pub reduce_tasks: u64,
    /// Completed tasks per benchmark name.
    pub tasks_by_benchmark: BTreeMap<String, u64>,
}

impl MachineOutcome {
    /// All completed tasks on this machine.
    pub fn total_tasks(&self) -> u64 {
        self.map_tasks + self.reduce_tasks
    }
}

/// Per-control-interval snapshot: the energy-over-time curves (Fig. 10)
/// and the tasks each job started on each machine.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSnapshot {
    /// End time of the interval.
    pub at: SimTime,
    /// Cumulative fleet energy at the end of the interval, in joules.
    pub cumulative_energy_joules: f64,
    /// Fresh (non-speculative) task starts during this interval, per job
    /// and machine (see [`fold_starts`]).
    pub assignments: Assignments,
}

/// One machine's fresh task starts in a row of [`Assignments`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartCell {
    /// Machine index.
    pub machine: u32,
    /// Fresh task starts on that machine.
    pub starts: u32,
}

/// One interval's fresh task starts as a packed job × machine matrix.
///
/// It holds a row per job that started a task, in ascending job order,
/// and in each row a [`StartCell`] per machine with a start, in ascending
/// machine order. The rows are `(job, end)` pairs over one flat cell
/// array, where a row's cells end at `end` and begin where the previous
/// row's end. A cell costs 8 bytes and a row 8 more, and both arrays are
/// boxed at their exact length.
///
/// # Examples
///
/// ```
/// use cluster::MachineId;
/// use hadoop_sim::{Assignments, StartCell};
/// use workload::JobId;
///
/// let matrix: Assignments = [
///     (JobId(7), vec![(MachineId(0), 2), (MachineId(5), 1)]),
///     (JobId(3), vec![(MachineId(4), 1)]),
/// ]
/// .into_iter()
/// .collect();
/// assert_eq!(matrix.len(), 2);
/// let cell = StartCell { machine: 4, starts: 1 };
/// assert_eq!(matrix.get(JobId(3)), Some(&[cell][..]));
/// assert_eq!(matrix.get(JobId(4)), None);
/// let jobs: Vec<JobId> = matrix.iter().map(|(job, _)| job).collect();
/// assert_eq!(jobs, [JobId(3), JobId(7)]);
/// let starts: u32 = matrix.values().flatten().map(|c| c.starts).sum();
/// assert_eq!(starts, 4);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Assignments {
    rows: Box<[(u32, u32)]>,
    cells: Box<[StartCell]>,
}

impl Assignments {
    /// Number of rows, one per job.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the matrix has no row.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows in ascending job order.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, &[StartCell])> + '_ {
        let mut start = 0;
        self.rows.iter().map(move |&(job, end)| {
            let row = &self.cells[start..end as usize];
            start = end as usize;
            (JobId(u64::from(job)), row)
        })
    }

    /// The rows' cells in ascending job order.
    pub fn values(&self) -> impl Iterator<Item = &[StartCell]> + '_ {
        self.iter().map(|(_, row)| row)
    }

    /// The row of `job`, if it started a task.
    pub fn get(&self, job: JobId) -> Option<&[StartCell]> {
        let job = u32::try_from(job.0).ok()?;
        let at = self.rows.binary_search_by_key(&job, |&(j, _)| j).ok()?;
        let start = at.checked_sub(1).map_or(0, |prev| self.rows[prev].1);
        Some(&self.cells[start as usize..self.rows[at].1 as usize])
    }
}

impl fmt::Debug for Assignments {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Builds a matrix from `(job, cells)` rows given in any job order, each
/// row's `(machine, starts)` cells in ascending machine order.
///
/// # Panics
///
/// Panics if a job appears twice, if a row's machines do not ascend, or
/// if a job id, machine index, count or the number of cells does not fit
/// in 32 bits.
impl<R: IntoIterator<Item = (MachineId, u64)>> FromIterator<(JobId, R)> for Assignments {
    fn from_iter<I: IntoIterator<Item = (JobId, R)>>(iter: I) -> Self {
        let fit = |n: u64, what: &str| {
            u32::try_from(n).unwrap_or_else(|_| panic!("{what} {n} does not fit in 32 bits"))
        };
        let mut rows: Vec<(u32, Vec<StartCell>)> = iter
            .into_iter()
            .map(|(job, row)| {
                let cells = row.into_iter().map(|(machine, starts)| StartCell {
                    machine: fit(machine.index() as u64, "machine"),
                    starts: fit(starts, "count"),
                });
                (fit(job.0, "job"), cells.collect())
            })
            .collect();
        rows.sort_by_key(|&(job, _)| job);
        assert!(
            rows.windows(2).all(|pair| pair[0].0 < pair[1].0),
            "a job appears twice"
        );
        let mut cells = Vec::new();
        let rows = rows
            .into_iter()
            .map(|(job, row)| {
                assert!(
                    row.windows(2).all(|pair| pair[0].machine < pair[1].machine),
                    "the machines of job {job}'s row do not ascend"
                );
                cells.extend(row);
                (job, fit(cells.len() as u64, "cell count"))
            })
            .collect();
        Assignments {
            rows,
            cells: cells.into(),
        }
    }
}

/// One interval's fresh task starts, in any order: a `(job, machine)` pair
/// of 32-bit indices per start, 8 bytes each.
///
/// # Examples
///
/// ```
/// use cluster::MachineId;
/// use hadoop_sim::StartLog;
/// use workload::JobId;
///
/// let mut log = StartLog::default();
/// log.push(JobId(3), MachineId(7)).unwrap();
/// assert_eq!(log.len(), 1);
/// assert!(log.push(JobId(1 << 32), MachineId(0)).is_err());
/// assert_eq!(log.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StartLog(Vec<(u32, u32)>);

impl StartLog {
    /// Appends one start.
    ///
    /// # Errors
    ///
    /// Returns why, and logs nothing, when the job id or the machine index
    /// does not fit in 32 bits.
    pub fn push(&mut self, job: JobId, machine: MachineId) -> Result<(), String> {
        let j = u32::try_from(job.0).map_err(|_| format!("{job} does not fit the start log"))?;
        let m = u32::try_from(machine.index())
            .map_err(|_| format!("{machine} does not fit the start log"))?;
        self.0.push((j, m));
        Ok(())
    }

    /// Number of starts logged.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no start is logged.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Folds one interval's [`StartLog`] into its [`Assignments`], counting
/// the rows and cells first so each array is allocated once at its exact
/// length, and empties the log (keeping its capacity for the next
/// interval).
///
/// # Panics
///
/// Panics if the log holds 2^32 starts or more.
///
/// # Examples
///
/// ```
/// use cluster::MachineId;
/// use hadoop_sim::{fold_starts, StartCell, StartLog};
/// use workload::JobId;
///
/// let mut log = StartLog::default();
/// for (job, machine) in [(1, 4), (0, 2), (1, 0), (1, 4)] {
///     log.push(JobId(job), MachineId(machine)).unwrap();
/// }
/// let rows = fold_starts(&mut log);
/// let cell = |machine, starts| StartCell { machine, starts };
/// assert_eq!(rows.get(JobId(0)), Some(&[cell(2, 1)][..]));
/// assert_eq!(rows.get(JobId(1)), Some(&[cell(0, 1), cell(4, 2)][..]));
/// assert!(log.is_empty());
/// ```
pub fn fold_starts(starts: &mut StartLog) -> Assignments {
    let log = &mut starts.0;
    log.sort_unstable();
    let fit = |n: usize| u32::try_from(n).expect("a start log holds fewer than 2^32 starts");
    let runs = || log.chunk_by(|a, b| a == b);
    let mut rows: Vec<(u32, u32)> = Vec::with_capacity(log.chunk_by(|a, b| a.0 == b.0).count());
    let mut cells = Vec::with_capacity(runs().count());
    for run in runs() {
        let (job, machine) = run[0];
        cells.push(StartCell {
            machine,
            starts: fit(run.len()),
        });
        let end = fit(cells.len());
        match rows.last_mut() {
            Some(row) if row.0 == job => row.1 = end,
            _ => rows.push((job, end)),
        }
    }
    log.clear();
    Assignments {
        rows: rows.into_boxed_slice(),
        cells: cells.into_boxed_slice(),
    }
}

/// Steady-state service metrics of a horizon-bounded run.
///
/// Populated only when the engine runs under
/// [`StopCondition::Horizon`](crate::StopCondition): all counters cover the
/// measurement window (after the warm-up cutoff). Sojourn is wall-clock
/// submit → finish per job; percentiles are *exact* (nearest-rank over the
/// full sorted sample, never interpolated or sketched), so they are
/// bit-reproducible across runs and thread counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Configured warm-up before measurement began, in seconds.
    pub warmup_s: f64,
    /// Actual measured-window length (end of run − warm-up cutoff), in
    /// seconds.
    pub measure_s: f64,
    /// Jobs submitted during the measurement window.
    pub arrivals: u64,
    /// Jobs that were both submitted and finished inside the window — the
    /// sojourn sample size.
    pub completions: u64,
    /// Jobs still unfinished at the end of the run (whole run, warm-up
    /// included): the queue the horizon cut off. Grows without bound in an
    /// overloaded regime.
    pub backlog: u64,
    /// Completed jobs per minute of measurement window.
    pub throughput_per_min: f64,
    /// Mean sojourn (submit → finish) over the window's completions.
    pub mean_sojourn: SimDuration,
    /// Exact nearest-rank sojourn percentiles, as `(percentile, value)`
    /// pairs in ascending percentile order (p50/p90/p95/p99). Empty when
    /// the window saw no completions.
    pub latency_distribution: Vec<(u8, SimDuration)>,
    /// Fleet energy metered over the measurement window, in joules.
    pub energy_joules: f64,
    /// Window energy divided by window completions (the headline service
    /// metric), or `0.0` when nothing completed.
    pub energy_per_job: f64,
    /// Mean fleet power over the window, in watts.
    pub energy_rate_watts: f64,
    /// Tasks completed during the measurement window.
    pub tasks_completed: u64,
    /// Mean pending-task queue depth over the window's control-interval
    /// samples.
    pub queue_mean: f64,
    /// Maximum sampled pending-task queue depth over the window.
    pub queue_max: u64,
}

impl ServiceStats {
    /// The recorded sojourn value at `p` (e.g. `99`), if that percentile
    /// was recorded and the window saw any completions.
    pub fn percentile(&self, p: u8) -> Option<SimDuration> {
        self.latency_distribution
            .iter()
            .find(|(q, _)| *q == p)
            .map(|(_, d)| *d)
    }
}

/// Everything measured over one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Scheduler name the run used.
    pub scheduler: String,
    /// Simulated time at which the last job finished (or the time limit).
    pub makespan: SimDuration,
    /// Whether the run drained all jobs before the time limit.
    pub drained: bool,
    /// Group labels interned over the run, in [`workload::GroupId`] order:
    /// `groups[g.index()]` resolves a [`TaskReport::group`](crate::TaskReport::group) symbol back to
    /// its label (e.g. `"Terasort-M"`).
    pub groups: Vec<String>,
    /// Per-job outcomes, in submission order.
    pub jobs: Vec<JobOutcome>,
    /// Per-machine outcomes, in machine order.
    pub machines: Vec<MachineOutcome>,
    /// Control-interval snapshots, in time order.
    pub intervals: Vec<IntervalSnapshot>,
    /// Cumulative fleet energy over time (sampled at control intervals).
    pub energy_series: TimeSeries,
    /// Total completed tasks.
    pub total_tasks: u64,
    /// Speculative (backup) attempts launched, when speculation is on.
    pub speculative_attempts: u64,
    /// Attempts whose work was discarded because another attempt of the
    /// same task finished first.
    pub wasted_attempts: u64,
    /// Attempts that failed (randomly or because their machine crashed)
    /// and were retried.
    pub task_failures: u64,
    /// Machines declared dead by heartbeat expiry over the run (a machine
    /// that crashes twice counts twice).
    pub machine_failures: u64,
    /// Completed map outputs lost to machine crashes and re-executed.
    pub map_outputs_lost: u64,
    /// Machines taken out of rotation after repeated task failures.
    pub machines_blacklisted: u64,
    /// Steady-state service metrics; `Some` only for horizon-bounded
    /// (service-mode) runs, `None` for every drain run.
    pub service: Option<ServiceStats>,
}

impl RunResult {
    /// Total metered fleet energy, in joules.
    pub fn total_energy_joules(&self) -> f64 {
        self.machines.iter().map(|m| m.energy_joules).sum()
    }

    /// Total energy per hardware profile, in profile-first-appearance
    /// order — the grouping of Fig. 8(a).
    pub fn energy_by_profile(&self) -> Vec<(String, f64)> {
        let mut order: Vec<String> = Vec::new();
        let mut map: BTreeMap<String, f64> = BTreeMap::new();
        for m in &self.machines {
            if !map.contains_key(&m.profile) {
                order.push(m.profile.clone());
            }
            *map.entry(m.profile.clone()).or_insert(0.0) += m.energy_joules;
        }
        order
            .into_iter()
            .map(|p| {
                let e = map[&p];
                (p, e)
            })
            .collect()
    }

    /// Mean CPU utilization per hardware profile — Fig. 8(b).
    pub fn utilization_by_profile(&self) -> Vec<(String, f64)> {
        let mut order: Vec<String> = Vec::new();
        let mut sums: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        for m in &self.machines {
            if !sums.contains_key(&m.profile) {
                order.push(m.profile.clone());
            }
            let entry = sums.entry(m.profile.clone()).or_insert((0.0, 0));
            entry.0 += m.mean_utilization;
            entry.1 += 1;
        }
        order
            .into_iter()
            .map(|p| {
                let (s, n) = sums[&p];
                (p, s / n as f64)
            })
            .collect()
    }

    /// Mean job completion time per class label — the rows of Fig. 8(c).
    /// Unfinished jobs are skipped.
    pub fn completion_by_label(&self) -> Vec<(String, f64)> {
        let mut order: Vec<String> = Vec::new();
        let mut sums: BTreeMap<String, (f64, usize)> = BTreeMap::new();
        for j in &self.jobs {
            let Some(ct) = j.completion_time() else {
                continue;
            };
            if !sums.contains_key(&j.label) {
                order.push(j.label.clone());
            }
            let entry = sums.entry(j.label.clone()).or_insert((0.0, 0));
            entry.0 += ct.as_secs_f64();
            entry.1 += 1;
        }
        order
            .into_iter()
            .map(|l| {
                let (s, n) = sums[&l];
                (l, s / n as f64)
            })
            .collect()
    }

    /// Completed-task counts per (profile, benchmark) — Fig. 9(a).
    pub fn tasks_by_profile_and_benchmark(&self) -> BTreeMap<(String, String), u64> {
        let mut out = BTreeMap::new();
        for m in &self.machines {
            for (bench, count) in &m.tasks_by_benchmark {
                *out.entry((m.profile.clone(), bench.clone())).or_insert(0) += count;
            }
        }
        out
    }

    /// Completed map/reduce counts per profile — Fig. 9(b).
    pub fn tasks_by_profile_and_kind(&self) -> BTreeMap<String, (u64, u64)> {
        let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for m in &self.machines {
            let e = out.entry(m.profile.clone()).or_insert((0, 0));
            e.0 += m.map_tasks;
            e.1 += m.reduce_tasks;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with(machines: Vec<MachineOutcome>, jobs: Vec<JobOutcome>) -> RunResult {
        RunResult {
            scheduler: "test".into(),
            makespan: SimDuration::from_secs(100),
            drained: true,
            groups: Vec::new(),
            jobs,
            machines,
            intervals: Vec::new(),
            energy_series: TimeSeries::new("energy"),
            total_tasks: 0,
            speculative_attempts: 0,
            wasted_attempts: 0,
            task_failures: 0,
            machine_failures: 0,
            map_outputs_lost: 0,
            machines_blacklisted: 0,
            service: None,
        }
    }

    fn machine_outcome(id: usize, profile: &str, energy: f64, util: f64) -> MachineOutcome {
        MachineOutcome {
            machine: MachineId(id),
            profile: profile.into(),
            energy_joules: energy,
            idle_joules: energy / 2.0,
            workload_joules: energy / 2.0,
            mean_utilization: util,
            map_tasks: 10,
            reduce_tasks: 5,
            tasks_by_benchmark: [("Grep".to_owned(), 15u64)].into_iter().collect(),
        }
    }

    #[test]
    fn energy_groups_by_profile_in_order() {
        let r = result_with(
            vec![
                machine_outcome(0, "Desktop", 100.0, 0.5),
                machine_outcome(1, "Atom", 10.0, 0.2),
                machine_outcome(2, "Desktop", 200.0, 0.3),
            ],
            vec![],
        );
        assert_eq!(
            r.energy_by_profile(),
            vec![("Desktop".to_owned(), 300.0), ("Atom".to_owned(), 10.0)]
        );
        assert_eq!(r.total_energy_joules(), 310.0);
        let util = r.utilization_by_profile();
        assert_eq!(util[0], ("Desktop".to_owned(), 0.4));
    }

    #[test]
    fn task_groupings() {
        let r = result_with(
            vec![
                machine_outcome(0, "Desktop", 1.0, 0.1),
                machine_outcome(1, "Desktop", 1.0, 0.1),
            ],
            vec![],
        );
        let by_bench = r.tasks_by_profile_and_benchmark();
        assert_eq!(by_bench[&("Desktop".to_owned(), "Grep".to_owned())], 30);
        let by_kind = r.tasks_by_profile_and_kind();
        assert_eq!(by_kind["Desktop"], (20, 10));
    }

    #[test]
    fn completion_by_label_averages_finished_jobs() {
        let job = |label: &str, fin: Option<u64>| JobOutcome {
            id: JobId(0),
            label: label.into(),
            benchmark: "Grep".into(),
            size_class: None,
            submitted_at: SimTime::ZERO,
            phase: if fin.is_some() {
                JobPhase::Completed
            } else {
                JobPhase::Running
            },
            finished_at: fin.map(SimTime::from_secs),
            total_tasks: 1,
            reference_work_secs: 1.0,
        };
        let r = result_with(
            vec![],
            vec![
                job("Grep-S", Some(100)),
                job("Grep-S", Some(300)),
                job("Grep-M", None),
            ],
        );
        assert_eq!(r.completion_by_label(), vec![("Grep-S".to_owned(), 200.0)]);
    }
}
