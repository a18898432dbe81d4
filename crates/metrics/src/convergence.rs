//! Convergence-time measurement (§VI-C, Fig. 11).
//!
//! The interval-window logic is shared between the post-hoc path (a
//! [`RunResult`]'s recorded intervals) and the streaming path (the
//! intervals a [`crate::observers::StreamingRunStats`] reconstructs live),
//! via the slice-based [`convergence_interval_in`].

use hadoop_sim::{IntervalSnapshot, RunResult};
use simcore::SimTime;
use workload::JobId;

/// The paper's stability threshold: a task assignment is *stable* when more
/// than 80 % of a job's tasks revisit the machines used in the previous
/// control interval.
pub const STABILITY_THRESHOLD: f64 = 0.8;

/// The index into `intervals` at which `job`'s assignment first became
/// stable (revisit fraction ≥ `threshold` against the previous interval),
/// or `None` if it never did. Works on any interval sequence: a
/// `RunResult`'s or a streaming reconstruction's.
pub fn convergence_interval_in(
    intervals: &[IntervalSnapshot],
    job: JobId,
    threshold: f64,
) -> Option<usize> {
    for (i, w) in intervals.windows(2).enumerate() {
        if let Some(frac) = w[1].revisit_fraction(&w[0], job) {
            if frac >= threshold {
                return Some(i + 1);
            }
        }
    }
    None
}

/// Time (minutes from `submitted` to the stable interval's end) until the
/// assignment of `job` first became stable over `intervals`, or `None` if
/// it never did.
pub fn convergence_minutes_in(
    intervals: &[IntervalSnapshot],
    submitted: SimTime,
    job: JobId,
) -> Option<f64> {
    let idx = convergence_interval_in(intervals, job, STABILITY_THRESHOLD)?;
    Some((intervals[idx].at - submitted).as_mins_f64())
}

/// Time (minutes from job submission) until `job`'s assignment first became
/// stable in `run`, or `None` if it never did.
///
/// # Examples
///
/// Convergence is measured per-job from control-interval snapshots; see the
/// Fig. 11 experiments for end-to-end use.
pub fn convergence_minutes(run: &RunResult, job: JobId) -> Option<f64> {
    let submitted = run.jobs.get(job.index())?.submitted_at;
    convergence_minutes_in(&run.intervals, submitted, job)
}

/// Mean convergence time over all jobs that converged, in minutes, plus
/// the count of jobs that never converged.
pub fn mean_convergence_minutes(run: &RunResult) -> (Option<f64>, usize) {
    let mut sum = 0.0;
    let mut n = 0usize;
    let mut missed = 0usize;
    for j in &run.jobs {
        match convergence_minutes(run, j.id) {
            Some(m) => {
                sum += m;
                n += 1;
            }
            None => missed += 1,
        }
    }
    if n == 0 {
        (None, missed)
    } else {
        (Some(sum / n as f64), missed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::MachineId;
    use hadoop_sim::{IntervalSnapshot, JobOutcome, JobPhase};
    use simcore::series::TimeSeries;
    use simcore::{SimDuration, SimTime};

    /// A run whose job 0 started `counts[m]` tasks on machine `m` in each
    /// interval.
    fn run_with_intervals(assignments: Vec<Vec<u64>>) -> RunResult {
        let intervals = assignments
            .into_iter()
            .enumerate()
            .map(|(i, counts)| {
                let cells = counts.iter().enumerate().filter(|&(_, &n)| n > 0);
                let row = cells.map(|(m, &n)| (MachineId(m), n)).collect();
                IntervalSnapshot {
                    at: SimTime::from_secs(300 * (i as u64 + 1)),
                    cumulative_energy_joules: 0.0,
                    assignments: [(JobId(0), row)].into_iter().collect(),
                }
            })
            .collect();
        RunResult {
            scheduler: "x".into(),
            makespan: SimDuration::from_secs(1),
            drained: true,
            groups: vec![],
            jobs: vec![JobOutcome {
                id: JobId(0),
                label: "Grep".into(),
                benchmark: "Grep".into(),
                size_class: None,
                submitted_at: SimTime::ZERO,
                phase: JobPhase::Completed,
                finished_at: Some(SimTime::from_secs(2000)),
                total_tasks: 10,
                reference_work_secs: 1.0,
            }],
            machines: vec![],
            intervals,
            energy_series: TimeSeries::new("e"),
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

    #[test]
    fn detects_convergence_time() {
        // Interval 1: machines {0}; interval 2: {0,1} (50% revisit);
        // interval 3: {0,1} again (100% revisit → stable at 15 min).
        let run = run_with_intervals(vec![vec![10, 0], vec![5, 5], vec![6, 4]]);
        assert_eq!(convergence_minutes(&run, JobId(0)), Some(15.0));
        let (mean, missed) = mean_convergence_minutes(&run);
        assert_eq!(mean, Some(15.0));
        assert_eq!(missed, 0);
    }

    #[test]
    fn never_stable_returns_none() {
        // Assignment flips machines every interval.
        let run = run_with_intervals(vec![vec![10, 0], vec![0, 10], vec![10, 0], vec![0, 10]]);
        assert_eq!(convergence_minutes(&run, JobId(0)), None);
        let (mean, missed) = mean_convergence_minutes(&run);
        assert_eq!(mean, None);
        assert_eq!(missed, 1);
    }

    #[test]
    fn unknown_job_returns_none() {
        let run = run_with_intervals(vec![vec![1, 0], vec![1, 0]]);
        assert_eq!(convergence_minutes(&run, JobId(42)), None);
    }
}
