//! The task analyzer: per-interval aggregation of energy feedback.

use std::collections::BTreeMap;

use cluster::MachineId;
use workload::{GroupId, JobId};

use crate::ExchangeStrategy;

/// One completed task's energy estimate, as handed to
/// [`TaskAnalyzer::record`], which keeps 16 bytes of it.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskEnergyRecord {
    /// The owning job (colony).
    pub job: JobId,
    /// Interned homogeneous-job-group symbol of the job.
    pub group: GroupId,
    /// Executing machine.
    pub machine: MachineId,
    /// Eq. 2 energy estimate, in joules.
    pub energy_joules: f64,
}

/// The analyzer's per-interval output: summed pheromone deposits per
/// (job, τ column) path, ready for
/// [`PheromoneTable::apply_deposits`](crate::PheromoneTable::apply_deposits).
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalFeedback {
    /// `deposits[j][c] = Σ_n Δτ_n(j, m)` after exchange averaging, for
    /// every machine `m` of the pheromone table's column `c`.
    pub deposits: BTreeMap<JobId, Vec<f64>>,
    /// Number of task records analyzed.
    pub tasks_analyzed: usize,
    /// Mean estimated task energy per job over the interval, in joules.
    pub mean_energy_per_job: BTreeMap<JobId, f64>,
}

/// One job's buffered feedback: its group, stored once, and its
/// `(machine index, joules)` records in arrival order — 16 bytes each.
#[derive(Debug, Clone)]
struct JobRecords {
    group: GroupId,
    records: Vec<(u32, f64)>,
}

/// Collects per-task energy estimates during a control interval and turns
/// them into Eq. 5 pheromone deposits, applying the §IV-D exchange
/// strategies.
///
/// The Eq. 5 ratio for one task is
/// `Δτ_n(j, m) = mean-energy(all of j's tasks this interval) / E(T_n(m))`,
/// so tasks cheaper than their job's average deposit more than 1 and
/// expensive tasks less. Machine-level exchange replaces each path's deposit
/// with the average over its homogeneous machine group; job-level exchange
/// averages over the homogeneous job group.
///
/// Records are buffered per job: Eq. 5 reads only each job's records, in
/// the order they arrived.
///
/// # Examples
///
/// ```
/// use eant::{ExchangeStrategy, TaskAnalyzer, TaskEnergyRecord};
/// use cluster::MachineId;
/// use workload::JobId;
///
/// let mut analyzer = TaskAnalyzer::new(2);
/// // Machine 0 runs the job's tasks at 2 KJ, machine 1 at 3 KJ.
/// for (m, e) in [(0, 2000.0), (0, 2000.0), (1, 3000.0)] {
///     analyzer.record(TaskEnergyRecord {
///         job: JobId(0),
///         group: workload::GroupId(0),
///         machine: MachineId(m),
///         energy_joules: e,
///     });
/// }
/// // One τ column per machine.
/// let fb = analyzer.compute(&[0, 0], &[0, 1], ExchangeStrategy::None);
/// let d = &fb.deposits[&JobId(0)];
/// assert!(d[0] > d[1], "the cheaper machine earns more pheromone");
/// ```
#[derive(Debug, Clone, Default)]
pub struct TaskAnalyzer {
    machines: usize,
    jobs: BTreeMap<JobId, JobRecords>,
    /// Records buffered over all jobs.
    len: usize,
    /// Records currently buffered per machine, so the failure path's
    /// [`TaskAnalyzer::discard_machine`] can skip the O(records) retain for
    /// machines that completed nothing this interval — the common case when
    /// a crashed node is re-discarded on every subsequent control tick.
    counts_per_machine: Vec<u32>,
}

impl TaskAnalyzer {
    /// Creates an analyzer for a cluster of `machines` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `machines` is zero.
    pub fn new(machines: usize) -> Self {
        assert!(machines > 0, "analyzer needs at least one machine");
        TaskAnalyzer {
            machines,
            jobs: BTreeMap::new(),
            len: 0,
            counts_per_machine: vec![0; machines],
        }
    }

    /// Records one completed task's energy estimate. A job's group is
    /// taken from its first record of the interval.
    ///
    /// Records with non-positive or non-finite energy are dropped: they
    /// carry no usable efficiency signal and would poison the Eq. 5 ratios.
    ///
    /// # Panics
    ///
    /// Panics if `record.machine` is not a machine of the cluster.
    pub fn record(&mut self, record: TaskEnergyRecord) {
        if record.energy_joules.is_finite() && record.energy_joules > 0.0 {
            let machine = u32::try_from(record.machine.index())
                .ok()
                .filter(|&m| (m as usize) < self.machines)
                .expect("record from an unknown machine");
            self.counts_per_machine[machine as usize] += 1;
            self.jobs
                .entry(record.job)
                .or_insert_with(|| JobRecords {
                    group: record.group,
                    records: Vec::new(),
                })
                .records
                .push((machine, record.energy_joules));
            self.len += 1;
        }
    }

    /// Number of records accumulated this interval.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no records were accumulated.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops every record from `machine` — called when a machine is
    /// declared dead or blacklisted mid-interval, so its partial samples
    /// neither earn pheromone nor skew the energy-model refit.
    pub fn discard_machine(&mut self, machine: MachineId) {
        let Some(count) = self.counts_per_machine.get_mut(machine.index()) else {
            return;
        };
        if *count == 0 {
            // Retaining on a machine with no buffered records is the
            // identity; skip the full-buffer scan.
            return;
        }
        self.len -= *count as usize;
        *count = 0;
        let m = machine.index() as u32;
        self.jobs.retain(|_, job| {
            job.records.retain(|&(r, _)| r != m);
            !job.records.is_empty()
        });
    }

    /// Computes the interval's deposits, one value per τ column, and
    /// clears the record buffer.
    ///
    /// `machine_groups[m]` is the homogeneous-group index of machine `m`
    /// (see [`Fleet::group_index`](cluster::Fleet::group_index)), and
    /// `column_of[m]` its pheromone column (see
    /// [`PheromoneTable::column_of`](crate::PheromoneTable::column_of)).
    /// Under machine-level exchange every column must lie within one
    /// group; without it every machine must have a column of its own.
    ///
    /// Costs O(records · log records) to sum each job's records per
    /// machine, O(machines) to map columns to groups, and
    /// O(jobs × columns) to emit the rows.
    ///
    /// # Panics
    ///
    /// Panics if `machine_groups` or `column_of` does not cover every
    /// machine.
    pub fn compute(
        &mut self,
        machine_groups: &[usize],
        column_of: &[usize],
        exchange: ExchangeStrategy,
    ) -> IntervalFeedback {
        assert_eq!(
            machine_groups.len(),
            self.machines,
            "machine_groups must cover every machine"
        );
        assert_eq!(
            column_of.len(),
            self.machines,
            "column_of must cover every machine"
        );
        let jobs = std::mem::take(&mut self.jobs);
        let tasks_analyzed = std::mem::take(&mut self.len);
        self.counts_per_machine.fill(0);
        let columns = column_of.iter().max().map_or(0, |&c| c + 1);

        // Under machine-level exchange: each column's group and each
        // group's size.
        let num_groups = machine_groups.iter().max().map_or(0, |&g| g + 1);
        let mut column_group = vec![0; columns];
        let mut group_sizes = vec![0usize; num_groups];
        if exchange.machine_level() {
            for (&g, &c) in machine_groups.iter().zip(column_of) {
                column_group[c] = g;
                group_sizes[g] += 1;
            }
        } else {
            assert_eq!(
                columns, self.machines,
                "without machine-level exchange every machine has its own column"
            );
        }

        let mut mean_energy_per_job = BTreeMap::new();
        let mut deposits = BTreeMap::new();
        let mut job_group = BTreeMap::new();
        for (job, JobRecords { group, mut records }) in jobs {
            // Mean energy of the job's tasks (Eq. 5 numerator).
            let sum: f64 = records.iter().fold(0.0, |acc, &(_, e)| acc + e);
            let mean = sum / records.len() as f64;
            mean_energy_per_job.insert(job, mean);
            job_group.insert(job, group);

            // Raw per-path deposits Σ_n mean / E_n, each machine's summed
            // in record order (the sort is stable), on machines with a
            // record only: every other machine's raw deposit is zero.
            records.sort_by_key(|&(m, _)| m);
            let mut raw: Vec<(usize, f64)> = Vec::new();
            for (m, e) in records {
                let m = m as usize;
                match raw.last_mut() {
                    Some((last, acc)) if *last == m => *acc += mean / e,
                    _ => raw.push((m, mean / e)),
                }
            }

            let row = if exchange.machine_level() {
                // Machine-level exchange: every member path of a
                // homogeneous machine group receives the group's average
                // deposit. Group sums add the raw deposits in machine
                // order; the skipped zeros would not change them.
                let mut sums = vec![0.0; num_groups];
                for &(m, v) in &raw {
                    sums[machine_groups[m]] += v;
                }
                column_group
                    .iter()
                    .map(|&g| sums[g] / group_sizes[g] as f64)
                    .collect()
            } else {
                let mut row = vec![0.0; columns];
                for (m, v) in raw {
                    row[column_of[m]] = v;
                }
                row
            };
            deposits.insert(job, row);
        }

        // Job-level exchange: every member job blends its own deposits
        // with the group's column-wise average. Blending (rather than
        // replacing) keeps the noise-reduction benefit without
        // synchronizing all group members onto identical machine
        // preferences, which would herd them into convoys (DESIGN.md).
        if exchange.job_level() {
            let mut group_rows: BTreeMap<GroupId, (Vec<f64>, usize)> = BTreeMap::new();
            for (job, row) in &deposits {
                let entry = group_rows
                    .entry(job_group[job])
                    .or_insert_with(|| (vec![0.0; columns], 0));
                for (c, &v) in row.iter().enumerate() {
                    entry.0[c] += v;
                }
                entry.1 += 1;
            }
            let averaged: BTreeMap<GroupId, Vec<f64>> = group_rows
                .into_iter()
                .map(|(g, (sum, n))| (g, sum.into_iter().map(|v| v / n as f64).collect()))
                .collect();
            for (job, row) in &mut deposits {
                let avg = &averaged[&job_group[job]];
                for (c, v) in row.iter_mut().enumerate() {
                    *v = 0.5 * *v + 0.5 * avg[c];
                }
            }
        }

        IntervalFeedback {
            deposits,
            tasks_analyzed,
            mean_energy_per_job,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(job: u64, group: u32, machine: usize, energy: f64) -> TaskEnergyRecord {
        TaskEnergyRecord {
            job: JobId(job),
            group: GroupId(group),
            machine: MachineId(machine),
            energy_joules: energy,
        }
    }

    #[test]
    fn paper_example_deposits() {
        // §IV-C: two 2 KJ tasks on A, one 3 KJ on B; mean = 7/3.
        let mut a = TaskAnalyzer::new(2);
        a.record(rec(0, 0, 0, 2000.0));
        a.record(rec(0, 0, 0, 2000.0));
        a.record(rec(0, 0, 1, 3000.0));
        let fb = a.compute(&[0, 1], &[0, 1], ExchangeStrategy::None);
        let mean = 7000.0 / 3.0;
        let d = &fb.deposits[&JobId(0)];
        assert!((d[0] - 2.0 * mean / 2000.0).abs() < 1e-9);
        assert!((d[1] - mean / 3000.0).abs() < 1e-9);
        assert_eq!(fb.tasks_analyzed, 3);
        assert!((fb.mean_energy_per_job[&JobId(0)] - mean).abs() < 1e-9);
    }

    #[test]
    fn compute_clears_records() {
        let mut a = TaskAnalyzer::new(1);
        a.record(rec(0, 0, 0, 1.0));
        assert_eq!(a.len(), 1);
        let _ = a.compute(&[0], &[0], ExchangeStrategy::None);
        assert!(a.is_empty());
    }

    #[test]
    fn discard_machine_drops_only_its_records() {
        let mut a = TaskAnalyzer::new(2);
        a.record(rec(0, 0, 0, 1000.0));
        a.record(rec(0, 0, 1, 2000.0));
        a.record(rec(1, 0, 0, 3000.0));
        a.discard_machine(MachineId(0));
        assert_eq!(a.len(), 1);
        let fb = a.compute(&[0, 1], &[0, 1], ExchangeStrategy::None);
        assert_eq!(fb.deposits[&JobId(0)][0], 0.0);
        assert!(fb.deposits[&JobId(0)][1] > 0.0);
        assert!(!fb.deposits.contains_key(&JobId(1)));
    }

    #[test]
    fn discard_after_compute_is_clean() {
        // compute() drains the buffer; a later discard must neither scan
        // stale counts nor drop fresh records from other machines.
        let mut a = TaskAnalyzer::new(2);
        a.record(rec(0, 0, 0, 1000.0));
        let _ = a.compute(&[0, 1], &[0, 1], ExchangeStrategy::None);
        a.record(rec(0, 0, 1, 2000.0));
        a.discard_machine(MachineId(0));
        assert_eq!(a.len(), 1);
        a.discard_machine(MachineId(1));
        assert!(a.is_empty());
        // Out-of-range machines are a no-op.
        a.record(rec(0, 0, 0, 1000.0));
        a.discard_machine(MachineId(99));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn invalid_energy_dropped() {
        let mut a = TaskAnalyzer::new(1);
        a.record(rec(0, 0, 0, 0.0));
        a.record(rec(0, 0, 0, -5.0));
        a.record(rec(0, 0, 0, f64::NAN));
        assert!(a.is_empty());
    }

    #[test]
    fn machine_level_exchange_spreads_within_group() {
        // Machines 0 and 1 are homogeneous; only machine 0 completed tasks.
        let mut a = TaskAnalyzer::new(3);
        a.record(rec(0, 0, 0, 1000.0));
        a.record(rec(0, 0, 0, 1000.0));
        let fb = a.compute(&[0, 0, 1], &[0, 0, 1], ExchangeStrategy::MachineLevel);
        let d = &fb.deposits[&JobId(0)];
        // One value per column: the two group members' shared column holds
        // the group's average deposit, half of machine 0's raw two.
        assert_eq!(d, &[1.0, 0.0]);
        // A group split over two columns gives both the group's average.
        a.record(rec(0, 0, 0, 1000.0));
        let fb = a.compute(&[0, 0, 1], &[0, 2, 1], ExchangeStrategy::MachineLevel);
        assert_eq!(fb.deposits[&JobId(0)], [0.5, 0.0, 0.5]);
    }

    #[test]
    fn job_level_exchange_averages_group_rows() {
        let mut a = TaskAnalyzer::new(2);
        // Two homogeneous jobs; job 0 found machine 0 efficient, job 1 has
        // only machine 1 experience.
        a.record(rec(0, 0, 0, 1000.0));
        a.record(rec(1, 0, 1, 1000.0));
        let fb = a.compute(&[0, 1], &[0, 1], ExchangeStrategy::JobLevel);
        // After job-level blending each job keeps half its own signal and
        // gains half the group's: both rows now cover both machines.
        assert!(fb.deposits[&JobId(0)][0] > fb.deposits[&JobId(0)][1]);
        assert!(fb.deposits[&JobId(1)][1] > fb.deposits[&JobId(1)][0]);
        assert!(fb.deposits[&JobId(0)][1] > 0.0);
        assert!(fb.deposits[&JobId(1)][0] > 0.0);
    }

    #[test]
    fn job_level_exchange_respects_group_boundaries() {
        let mut a = TaskAnalyzer::new(1);
        a.record(rec(0, 0, 0, 1000.0));
        a.record(rec(1, 1, 0, 500.0));
        let fb = a.compute(&[0], &[0], ExchangeStrategy::JobLevel);
        // Different groups: rows must stay independent (each job's single
        // task has ratio mean/E = 1, and a singleton group's average is
        // itself).
        assert!((fb.deposits[&JobId(0)][0] - 1.0).abs() < 1e-9);
        assert!((fb.deposits[&JobId(1)][0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn both_exchange_composes() {
        let mut a = TaskAnalyzer::new(2);
        a.record(rec(0, 0, 0, 1000.0));
        a.record(rec(1, 0, 0, 2000.0));
        // The homogeneous machines sit in two columns, as after a split.
        let fb = a.compute(&[0, 0], &[0, 1], ExchangeStrategy::Both);
        let d0 = &fb.deposits[&JobId(0)];
        let d1 = &fb.deposits[&JobId(1)];
        // Machine exchange spread each row over both machines equally, so
        // blending preserves that flatness for both jobs.
        assert_eq!(d0[0], d0[1]);
        assert_eq!(d1[0], d1[1]);
    }

    #[test]
    fn empty_interval_produces_empty_feedback() {
        let mut a = TaskAnalyzer::new(2);
        let fb = a.compute(&[0, 0], &[0, 0], ExchangeStrategy::Both);
        assert!(fb.deposits.is_empty());
        assert_eq!(fb.tasks_analyzed, 0);
    }

    #[test]
    #[should_panic(expected = "machine_groups must cover every machine")]
    fn wrong_group_vector_rejected() {
        TaskAnalyzer::new(3).compute(&[0, 0], &[0, 1, 2], ExchangeStrategy::None);
    }

    #[test]
    #[should_panic(expected = "without machine-level exchange every machine has its own column")]
    fn shared_columns_need_machine_level_exchange() {
        let mut a = TaskAnalyzer::new(2);
        a.record(rec(0, 0, 0, 1000.0));
        a.compute(&[0, 0], &[0, 0], ExchangeStrategy::JobLevel);
    }

    #[test]
    #[should_panic(expected = "record from an unknown machine")]
    fn record_from_unknown_machine_rejected() {
        TaskAnalyzer::new(2).record(rec(0, 0, 2, 1000.0));
    }

    #[test]
    #[should_panic(expected = "analyzer needs at least one machine")]
    fn zero_machines_rejected() {
        TaskAnalyzer::new(0);
    }
}
