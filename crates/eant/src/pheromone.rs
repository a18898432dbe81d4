//! Pheromone state: the τ(j, m) matrix.

use std::collections::BTreeMap;

use cluster::MachineId;
use workload::JobId;

/// The pheromone matrix over (job colony × machine path).
///
/// Values evolve by the paper's Eq. 4 at every control interval:
/// `τ_{t+1} = (1-ρ)·τ_t + ρ·Σ_n Δτ_n`, where deposits Δτ are the
/// energy-efficiency ratios of Eq. 5, negated across competing jobs when
/// negative feedback (Eq. 6) is active. Values are clamped to
/// `[tau_min, tau_max]`.
///
/// τ is stored per *column*, not per machine: a column is a set of
/// machines whose τ is equal in every row. Under the §IV-D machine-level
/// exchange every deposit is averaged over a homogeneous machine group, so
/// the table starts with one column per group
/// ([`PheromoneTable::with_columns`]); otherwise each machine is its own
/// column ([`PheromoneTable::new`]). Deposit rows hold one value per
/// column. [`PheromoneTable::evaporate_machine`] moves a machine whose
/// column is shared into a column of its own first; columns never merge.
///
/// # Examples
///
/// Reproduce the paper's §IV-C worked example (machine A completes two
/// 2 KJ tasks, machine B one 3 KJ task, ρ = 0.5):
///
/// ```
/// use eant::PheromoneTable;
/// use cluster::MachineId;
/// use workload::JobId;
/// use std::collections::BTreeMap;
///
/// let mut table = PheromoneTable::new(2, 1.0, 0.05, 1.0e4);
/// table.ensure_job(JobId(0));
/// let mean = (2.0 + 2.0 + 3.0) / 3.0;
/// let mut deposits = BTreeMap::new();
/// deposits.insert(JobId(0), vec![2.0 * mean / 2.0, mean / 3.0]);
/// table.apply_deposits(&deposits, 0.5, true);
/// let tau_a = table.get(JobId(0), MachineId(0));
/// let tau_b = table.get(JobId(0), MachineId(1));
/// assert!((tau_a - 1.666).abs() < 0.01);
/// assert!((tau_b - 0.888).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PheromoneTable {
    /// The column of each machine.
    column_of: Vec<usize>,
    /// Number of machines in each column.
    column_sizes: Vec<usize>,
    tau_init: f64,
    tau_min: f64,
    tau_max: f64,
    rows: BTreeMap<JobId, Row>,
}

/// One job's pheromone row with its cached sum, so the Eq. 3 normalizer
/// `Σ_m' τ(j, m')` is not re-reduced on every per-candidate probability
/// lookup in the decision hot path.
///
/// Invariant: `sum` is always recomputed in full after any mutation of
/// `tau` (never adjusted incrementally), as the sum of every machine's τ
/// in machine order — the exact reduction of a row with one value per
/// machine — so cached and freshly-computed normalizers are bit-identical.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    /// τ per column.
    tau: Vec<f64>,
    sum: f64,
}

impl Row {
    fn new(tau: Vec<f64>, column_of: &[usize]) -> Self {
        let mut row = Row { tau, sum: 0.0 };
        row.rescore(column_of);
        row
    }

    /// Recomputes the cached sum after the caller mutated `tau`.
    fn rescore(&mut self, column_of: &[usize]) {
        self.sum = column_of.iter().map(|&c| self.tau[c]).sum();
    }
}

impl PheromoneTable {
    /// Creates an empty table for a cluster of `machines` nodes, one
    /// column per machine.
    ///
    /// # Panics
    ///
    /// Panics if `machines` is zero or the τ bounds are not ordered
    /// `0 < tau_min ≤ tau_init ≤ tau_max`.
    pub fn new(machines: usize, tau_init: f64, tau_min: f64, tau_max: f64) -> Self {
        Self::with_columns((0..machines).collect(), tau_init, tau_min, tau_max)
    }

    /// Creates an empty table whose machine `m` starts in column
    /// `column_of[m]` — for instance [`Fleet::group_index`](cluster::Fleet::group_index)
    /// under machine-level exchange.
    ///
    /// # Panics
    ///
    /// Panics if `column_of` is empty, its columns are not `0..k` with
    /// every column used, or the τ bounds are not ordered
    /// `0 < tau_min ≤ tau_init ≤ tau_max`.
    pub fn with_columns(column_of: Vec<usize>, tau_init: f64, tau_min: f64, tau_max: f64) -> Self {
        assert!(!column_of.is_empty(), "table needs at least one machine");
        assert!(
            tau_min > 0.0 && tau_min <= tau_init && tau_init <= tau_max,
            "tau bounds must satisfy 0 < tau_min <= tau_init <= tau_max"
        );
        let mut column_sizes = vec![0; column_of.iter().max().map_or(0, |&c| c + 1)];
        for &c in &column_of {
            column_sizes[c] += 1;
        }
        assert!(
            column_sizes.iter().all(|&n| n > 0),
            "every column needs a machine"
        );
        PheromoneTable {
            column_of,
            column_sizes,
            tau_init,
            tau_min,
            tau_max,
            rows: BTreeMap::new(),
        }
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.column_of.len()
    }

    /// Number of τ columns: the length of every row and deposit row.
    pub fn columns(&self) -> usize {
        self.column_sizes.len()
    }

    /// The column of each machine, by machine index.
    pub fn column_of(&self) -> &[usize] {
        &self.column_of
    }

    /// Number of job rows currently tracked.
    pub fn jobs(&self) -> usize {
        self.rows.len()
    }

    /// Ensures a row exists for `job`, initialized to `tau_init` (equal
    /// probability across machines — the paper's t = 1 state).
    pub fn ensure_job(&mut self, job: JobId) {
        self.rows.entry(job).or_insert_with(|| {
            Row::new(
                vec![self.tau_init; self.column_sizes.len()],
                &self.column_of,
            )
        });
    }

    /// Drops the row of a finished job (its colony has no more ants).
    pub fn remove_job(&mut self, job: JobId) {
        self.rows.remove(&job);
    }

    /// The pheromone on path (job → machine); `tau_init` for untracked
    /// jobs, `tau_min` for out-of-range machines.
    pub fn get(&self, job: JobId, machine: MachineId) -> f64 {
        match self.rows.get(&job) {
            Some(row) => self
                .column_of
                .get(machine.index())
                .map_or(self.tau_min, |&c| row.tau[c]),
            None => self.tau_init,
        }
    }

    /// Eq. 3: the probability distribution over machines for `job`
    /// (pheromone row normalized to sum 1). Untracked jobs are uniform.
    pub fn probabilities(&self, job: JobId) -> Vec<f64> {
        match self.rows.get(&job) {
            Some(row) => self
                .column_of
                .iter()
                .map(|&c| row.tau[c] / row.sum)
                .collect(),
            None => vec![1.0 / self.machines() as f64; self.machines()],
        }
    }

    /// Eq. 3 for a single (job, machine) path: `τ(j, m) / Σ_m' τ(j, m')`,
    /// O(1) against the row's cached sum instead of materializing the full
    /// [`PheromoneTable::probabilities`] vector. Untracked jobs are uniform,
    /// matching `probabilities`.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is out of range for a tracked job, exactly as
    /// indexing the `probabilities` vector would.
    pub fn probability(&self, job: JobId, machine: MachineId) -> f64 {
        match self.rows.get(&job) {
            Some(row) => row.tau[self.column_of[machine.index()]] / row.sum,
            None => 1.0 / self.machines() as f64,
        }
    }

    /// Applies one control interval's deposits (Eq. 4 + Eq. 6) in
    /// O(jobs × columns), plus the O(jobs × machines) normalizer refresh.
    ///
    /// `deposits[j][c]` must hold `Σ_n Δτ_n(j, m)` for every machine `m`
    /// of column `c` — the summed Eq. 5 ratios of job `j`'s tasks completed
    /// on `m` this interval, after exchange averaging (see
    /// [`TaskAnalyzer::compute`](crate::TaskAnalyzer::compute)).
    ///
    /// With `negative_feedback`, every *other* tracked job is penalized on
    /// the same machine (Eq. 6). The paper's per-task formulation would
    /// subtract the *sum* of all competitors' deposits, which grows with
    /// the number of concurrent jobs and pins every non-dominant path to
    /// `tau_min` (winner-take-all per machine, serializing the cluster);
    /// we bound the penalty to the *mean* competitor deposit instead, which
    /// keeps Eq. 6's sign and intent with job-count-independent magnitude
    /// (documented in DESIGN.md).
    ///
    /// Rows are created on demand for deposits of previously unseen jobs.
    ///
    /// # Panics
    ///
    /// Panics if ρ ∉ (0, 1] or a deposit row's length is not
    /// [`PheromoneTable::columns`].
    pub fn apply_deposits(
        &mut self,
        deposits: &BTreeMap<JobId, Vec<f64>>,
        rho: f64,
        negative_feedback: bool,
    ) {
        assert!(rho > 0.0 && rho <= 1.0, "rho must be in (0, 1]");
        let columns = self.columns();
        for (&job, d) in deposits {
            assert_eq!(d.len(), columns, "deposit vector length mismatch");
            self.ensure_job(job);
        }
        // Per-column total deposit and depositor count, for the mean
        // competitor penalty.
        let mut totals = vec![0.0; columns];
        let mut depositors = vec![0u32; columns];
        if negative_feedback {
            for d in deposits.values() {
                for (c, &v) in d.iter().enumerate() {
                    totals[c] += v;
                    if v > 0.0 {
                        depositors[c] += 1;
                    }
                }
            }
        }
        let zero = vec![0.0; columns];
        for (job, row) in &mut self.rows {
            let own = deposits.get(job).unwrap_or(&zero);
            for (c, tau) in row.tau.iter_mut().enumerate() {
                let foreign = if negative_feedback {
                    let others = depositors[c] - u32::from(own[c] > 0.0);
                    if others > 0 {
                        (totals[c] - own[c]) / others as f64
                    } else {
                        0.0
                    }
                } else {
                    0.0
                };
                let delta = own[c] - foreign;
                *tau = ((1.0 - rho) * *tau + rho * delta).clamp(self.tau_min, self.tau_max);
            }
            row.rescore(&self.column_of);
        }
    }

    /// Evaporates every tracked path without deposits — used when an
    /// interval elapses with no completions.
    pub fn evaporate(&mut self, rho: f64) {
        assert!(rho > 0.0 && rho <= 1.0, "rho must be in (0, 1]");
        for row in self.rows.values_mut() {
            for tau in row.tau.iter_mut() {
                *tau = ((1.0 - rho) * *tau).max(self.tau_min);
            }
            row.rescore(&self.column_of);
        }
    }

    /// Evaporates one machine's τ across every tracked job — the
    /// failure-aware decay applied to dead and blacklisted machines, so a
    /// crashing node's trail fades even while its past deposits would
    /// otherwise keep attracting ants. A machine that shares its column
    /// first moves to a column of its own. Out-of-range machines are a
    /// no-op.
    ///
    /// # Panics
    ///
    /// Panics if ρ ∉ (0, 1].
    pub fn evaporate_machine(&mut self, machine: MachineId, rho: f64) {
        assert!(rho > 0.0 && rho <= 1.0, "rho must be in (0, 1]");
        let Some(&shared) = self.column_of.get(machine.index()) else {
            return;
        };
        let c = if self.column_sizes[shared] > 1 {
            let own = self.columns();
            self.column_sizes[shared] -= 1;
            self.column_sizes.push(1);
            self.column_of[machine.index()] = own;
            for row in self.rows.values_mut() {
                row.tau.push(row.tau[shared]);
            }
            own
        } else {
            shared
        };
        for row in self.rows.values_mut() {
            row.tau[c] = ((1.0 - rho) * row.tau[c]).max(self.tau_min);
            row.rescore(&self.column_of);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> PheromoneTable {
        PheromoneTable::new(3, 1.0, 0.05, 100.0)
    }

    #[test]
    fn fresh_rows_are_uniform() {
        let mut t = table();
        t.ensure_job(JobId(0));
        for m in 0..3 {
            assert_eq!(t.get(JobId(0), MachineId(m)), 1.0);
        }
        let p = t.probabilities(JobId(0));
        assert!(p.iter().all(|&x| (x - 1.0 / 3.0).abs() < 1e-12));
        // Untracked jobs are uniform too.
        let p = t.probabilities(JobId(9));
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_worked_example() {
        // §IV-C: machine A: two tasks at 2 KJ; machine B: one task at 3 KJ.
        let mut t = PheromoneTable::new(2, 1.0, 0.05, 100.0);
        t.ensure_job(JobId(0));
        let mean = 7.0 / 3.0;
        let mut deposits = BTreeMap::new();
        deposits.insert(JobId(0), vec![2.0 * (mean / 2.0), mean / 3.0]);
        t.apply_deposits(&deposits, 0.5, true);
        assert!((t.get(JobId(0), MachineId(0)) - (0.5 + 0.5 * 2.0 * mean / 2.0)).abs() < 1e-9);
        assert!((t.get(JobId(0), MachineId(1)) - (0.5 + 0.5 * mean / 3.0)).abs() < 1e-9);
        // Probability of machine A rises above 60 % (paper: 64-ish %).
        let p = t.probabilities(JobId(0));
        assert!(p[0] > 0.6 && p[0] < 0.7, "p[0] = {}", p[0]);
    }

    #[test]
    fn negative_feedback_penalizes_competitors() {
        let mut t = table();
        t.ensure_job(JobId(0));
        t.ensure_job(JobId(1));
        let mut deposits = BTreeMap::new();
        deposits.insert(JobId(0), vec![4.0, 0.0, 0.0]);
        t.apply_deposits(&deposits, 0.5, true);
        // Job 0 gains on machine 0; job 1 is penalized by the mean
        // competitor deposit: 0.5·1 + 0.5·(−4) clamped at the 0.05 floor.
        assert!(t.get(JobId(0), MachineId(0)) > 1.0);
        assert_eq!(t.get(JobId(1), MachineId(0)), 0.05);
        // Machines without deposits only evaporate.
        assert_eq!(t.get(JobId(1), MachineId(1)), 0.5);
    }

    #[test]
    fn without_negative_feedback_competitors_only_evaporate() {
        let mut t = table();
        t.ensure_job(JobId(0));
        t.ensure_job(JobId(1));
        let mut deposits = BTreeMap::new();
        deposits.insert(JobId(0), vec![4.0, 0.0, 0.0]);
        t.apply_deposits(&deposits, 0.5, false);
        assert_eq!(t.get(JobId(1), MachineId(0)), 0.5);
    }

    #[test]
    fn clamping_bounds_hold() {
        let mut t = PheromoneTable::new(1, 1.0, 0.5, 2.0);
        t.ensure_job(JobId(0));
        let mut deposits = BTreeMap::new();
        deposits.insert(JobId(0), vec![1.0e9]);
        t.apply_deposits(&deposits, 1.0, false);
        assert_eq!(t.get(JobId(0), MachineId(0)), 2.0);
        let mut deposits = BTreeMap::new();
        deposits.insert(JobId(0), vec![-1.0e9]);
        t.apply_deposits(&deposits, 1.0, false);
        assert_eq!(t.get(JobId(0), MachineId(0)), 0.5);
    }

    #[test]
    fn evaporation_decays_to_floor() {
        let mut t = table();
        t.ensure_job(JobId(0));
        for _ in 0..20 {
            t.evaporate(0.5);
        }
        assert_eq!(t.get(JobId(0), MachineId(0)), 0.05);
    }

    #[test]
    fn machine_evaporation_decays_one_column_only() {
        let mut t = table();
        t.ensure_job(JobId(0));
        t.ensure_job(JobId(1));
        t.evaporate_machine(MachineId(1), 0.5);
        for job in [JobId(0), JobId(1)] {
            assert_eq!(t.get(job, MachineId(0)), 1.0);
            assert_eq!(t.get(job, MachineId(1)), 0.5);
            assert_eq!(t.get(job, MachineId(2)), 1.0);
        }
        // Repeated decay bottoms out at the floor; out-of-range is a no-op.
        for _ in 0..20 {
            t.evaporate_machine(MachineId(1), 0.5);
        }
        assert_eq!(t.get(JobId(0), MachineId(1)), 0.05);
        t.evaporate_machine(MachineId(99), 0.5);
    }

    #[test]
    fn remove_job_resets_to_init() {
        let mut t = table();
        t.ensure_job(JobId(0));
        t.evaporate(0.5);
        assert!(t.get(JobId(0), MachineId(0)) < 1.0);
        t.remove_job(JobId(0));
        assert_eq!(t.get(JobId(0), MachineId(0)), 1.0);
        assert_eq!(t.jobs(), 0);
    }

    #[test]
    fn deposits_create_rows_on_demand() {
        let mut t = table();
        let mut deposits = BTreeMap::new();
        deposits.insert(JobId(7), vec![1.0, 2.0, 3.0]);
        t.apply_deposits(&deposits, 0.5, true);
        assert_eq!(t.jobs(), 1);
        assert!(t.get(JobId(7), MachineId(2)) > t.get(JobId(7), MachineId(0)));
    }

    #[test]
    fn single_path_probability_matches_full_vector() {
        let mut t = table();
        t.ensure_job(JobId(0));
        t.ensure_job(JobId(1));
        let mut deposits = BTreeMap::new();
        deposits.insert(JobId(0), vec![4.0, 1.0, 0.5]);
        t.apply_deposits(&deposits, 0.5, true);
        t.evaporate_machine(MachineId(2), 0.3);
        for job in [JobId(0), JobId(1), JobId(9)] {
            let full = t.probabilities(job);
            for (m, &p) in full.iter().enumerate().take(3) {
                // Bit-identical, not merely close: the cached sum is
                // recomputed by the same full reduction `probabilities`
                // performs.
                assert_eq!(t.probability(job, MachineId(m)), p);
            }
        }
    }

    #[test]
    fn grouped_table_holds_one_tau_per_group_column() {
        use cluster::{profiles, Fleet};
        // The scale-1000 fleet: six homogeneous groups.
        let fleet = Fleet::builder()
            .add(profiles::desktop(), 500)
            .add(profiles::t110(), 188)
            .add(profiles::t420(), 125)
            .add(profiles::t320(), 62)
            .add(profiles::t620(), 63)
            .add(profiles::atom(), 62)
            .build()
            .unwrap();
        let mut t = PheromoneTable::with_columns(fleet.group_index(), 1.0, 0.05, 100.0);
        t.ensure_job(JobId(0));
        assert_eq!((t.machines(), t.columns()), (1000, 6));
        assert_eq!(t.rows[&JobId(0)].tau.len(), 6);
        // One failed machine moves to a column of its own, in every row;
        // decaying it again adds nothing.
        t.evaporate_machine(MachineId(3), 0.5);
        t.evaporate_machine(MachineId(3), 0.5);
        t.ensure_job(JobId(1));
        assert_eq!(t.columns(), 7);
        assert!(t.rows.values().all(|row| row.tau.len() == 7));
        assert_eq!(t.get(JobId(0), MachineId(3)), 0.25);
        assert_eq!(t.get(JobId(0), MachineId(4)), 1.0);
        assert_eq!(t.get(JobId(1), MachineId(3)), 1.0);
        // The normalizer still sums every machine: 999 at 1.0, one at 0.25.
        assert_eq!(t.probability(JobId(0), MachineId(4)), 1.0 / 999.25);
    }

    #[test]
    fn split_columns_take_their_own_deposits() {
        // Machines {0, 1} share column 0, machine 2 has column 1.
        let mut t = PheromoneTable::with_columns(vec![0, 0, 1], 1.0, 0.05, 100.0);
        t.ensure_job(JobId(0));
        t.evaporate_machine(MachineId(1), 0.5);
        assert_eq!(t.column_of(), &[0, 2, 1]);
        // Deposits are per column: machine 1's new column 2 gets 1.0.
        let mut deposits = BTreeMap::new();
        deposits.insert(JobId(0), vec![2.0, 4.0, 1.0]);
        t.apply_deposits(&deposits, 0.5, false);
        assert_eq!(t.get(JobId(0), MachineId(0)), 1.5);
        assert_eq!(t.get(JobId(0), MachineId(1)), 0.25 + 0.5);
        assert_eq!(t.get(JobId(0), MachineId(2)), 2.5);
    }

    #[test]
    #[should_panic(expected = "every column needs a machine")]
    fn unused_column_rejected() {
        PheromoneTable::with_columns(vec![0, 2], 1.0, 0.5, 2.0);
    }

    #[test]
    fn out_of_range_machine_returns_floor() {
        let mut t = table();
        t.ensure_job(JobId(0));
        assert_eq!(t.get(JobId(0), MachineId(99)), 0.05);
    }

    #[test]
    #[should_panic(expected = "deposit vector length mismatch")]
    fn wrong_deposit_length_rejected() {
        let mut t = table();
        let mut deposits = BTreeMap::new();
        deposits.insert(JobId(0), vec![1.0]);
        t.apply_deposits(&deposits, 0.5, true);
    }

    #[test]
    #[should_panic(expected = "rho must be in (0, 1]")]
    fn invalid_rho_rejected() {
        table().evaporate(1.5);
    }

    #[test]
    #[should_panic(expected = "table needs at least one machine")]
    fn zero_machines_rejected() {
        PheromoneTable::new(0, 1.0, 0.5, 2.0);
    }
}
