//! The three benchmark workloads and the scenario cells each one runs.
//! `perfbench/README.md` records why each was chosen.

use experiments::common::SchedulerKind;
use experiments::scenario::{library_dir, load_spec, ScenarioSpec, WorkloadSpec};
use simcore::SimDuration;

/// Jobs `scale-1000` runs out of the full profile's 10 000, so one pass
/// fits several times into a run. The submission window shrinks by the
/// same factor, which keeps the full profile's arrival rate and therefore
/// the number of jobs in flight.
pub const SCALE_JOBS: usize = 2000;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// E-Ant draining MSD jobs on 1 000 machines, no observers.
    Scale1000,
    /// E-Ant serving an overloading open stream, no observers.
    ServeOverload,
    /// Fair, Tarazu and E-Ant on the paper's 16 nodes, monitored the way
    /// `scenario run` monitors them.
    PaperGrid,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::Scale1000,
        Workload::ServeOverload,
        Workload::PaperGrid,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Scale1000 => "scale-1000",
            Workload::ServeOverload => "serve-overload",
            Workload::PaperGrid => "paper-grid",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn scenario_file(self) -> &'static str {
        match self {
            Workload::Scale1000 => "scale-1000.json",
            Workload::ServeOverload => "serve-overload-burst.json",
            Workload::PaperGrid => "fig8-msd.json",
        }
    }

    /// Scenario seeds one pass runs when the benchmark is given a seed.
    /// One seed's host time depends on its job
    /// sizes and, on `serve-overload`, on whether E-Ant's backlog runs
    /// away, so a pass averages over many seeds to keep run-to-run spread
    /// across `--seed` values small.
    #[must_use]
    pub fn seeds_per_pass(self) -> u64 {
        match self {
            Workload::Scale1000 => 3,
            Workload::ServeOverload => 48,
            Workload::PaperGrid => 12,
        }
    }

    /// Whether the scenario runs at its fast profile: `serve-overload`
    /// uses the shorter committed horizon (600 s warm-up, 1800 s measured)
    /// so that a pass can average over [`Workload::seeds_per_pass`] seeds.
    #[must_use]
    pub fn fast(self) -> bool {
        self == Workload::ServeOverload
    }

    /// Whether every cell must drain its jobs.
    #[must_use]
    pub fn drains(self) -> bool {
        self != Workload::ServeOverload
    }

    /// Whether cells run monitored, with record and snapshot rendering.
    #[must_use]
    pub fn monitored(self) -> bool {
        self == Workload::PaperGrid
    }

    /// Loads the workload's scenario file and cuts it to the benchmark's
    /// shape.
    ///
    /// # Errors
    ///
    /// Returns the file or parse error.
    pub fn load(self) -> Result<ScenarioSpec, String> {
        let mut spec = load_spec(&library_dir().join(self.scenario_file()))?;
        match self {
            Workload::Scale1000 => {
                if let WorkloadSpec::Msd(cfg) = &mut spec.workload {
                    let window = cfg.submission_window.as_secs_f64() * SCALE_JOBS as f64
                        / cfg.num_jobs as f64;
                    cfg.submission_window = SimDuration::from_secs_f64(window);
                    cfg.num_jobs = SCALE_JOBS;
                } else {
                    return Err("scale-1000.json no longer has an MSD workload".into());
                }
            }
            Workload::ServeOverload => {
                spec.schedulers
                    .retain(|k| matches!(k, SchedulerKind::EAnt(_)));
            }
            Workload::PaperGrid => {}
        }
        if spec.schedulers.is_empty() {
            return Err(format!("{} has no scheduler to run", self.scenario_file()));
        }
        Ok(spec)
    }

    /// The (scheduler, seed) cells, scheduler-major. Without a seed the
    /// scenario's committed seeds are used. Benchmark seed `s` runs the
    /// [`Workload::seeds_per_pass`] scenario seeds `s * k .. s * k + k`,
    /// so different benchmark seeds share no scenario seed.
    #[must_use]
    pub fn cells(self, spec: &ScenarioSpec, seed: Option<u64>) -> Vec<(SchedulerKind, u64)> {
        let k = self.seeds_per_pass();
        let seeds: Vec<u64> = match seed {
            None => spec.seeds.clone(),
            Some(s) => (0..k).map(|i| s.wrapping_mul(k).wrapping_add(i)).collect(),
        };
        spec.schedulers
            .iter()
            .flat_map(|k| seeds.iter().map(move |&s| (k.clone(), s)))
            .collect()
    }
}
