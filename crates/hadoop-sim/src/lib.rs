//! Hadoop 1.x substrate simulator.
//!
//! The paper implements E-Ant by modifying Hadoop 1.2.1's `JobTracker`,
//! `TaskTracker` and `TaskReport` classes (§V-A). This crate is the
//! simulated equivalent of that substrate — the one component of the paper's
//! stack that cannot be reused directly in Rust. It reproduces exactly the
//! interfaces E-Ant interacts with:
//!
//! * a heartbeat-driven assignment loop: every [`EngineConfig::heartbeat`]
//!   (default 3 s, Hadoop's default) each TaskTracker reports in and free
//!   slots are offered to the pluggable [`Scheduler`];
//! * per-task completion reports ([`TaskReport`]) carrying the CPU
//!   utilization samples and execution times that feed the paper's Eq. 2
//!   energy model;
//! * map → shuffle → reduce lifecycle with wave execution, data locality
//!   (node/rack/remote) and a shared-bandwidth shuffle network;
//! * control-interval callbacks (default 5 min, §V-B) at which adaptive
//!   schedulers re-derive their policy;
//! * system-noise injection (stragglers and utilization jitter) modelling
//!   the data skew and network contention of §IV-D;
//! * optional fault injection ([`FaultConfig`]): TaskTracker crashes with
//!   heartbeat-expiry death detection, map-output loss and re-execution,
//!   per-attempt task failures with a retry cap, and per-machine
//!   blacklisting — real Hadoop failure semantics, off by default.
//!
//! Schedulers — E-Ant and the baselines alike — implement the [`Scheduler`]
//! trait: at each offered slot they pick *which job* the slot goes to
//! (matching the paper's `P(j, m)` formulation); the engine then picks the
//! concrete task within the job with Hadoop's usual locality preference.
//!
//! # Examples
//!
//! Run a tiny workload under the built-in FIFO-greedy reference scheduler:
//!
//! ```
//! use hadoop_sim::{Engine, EngineConfig, GreedyScheduler};
//! use cluster::Fleet;
//! use workload::{Benchmark, JobId, JobSpec};
//! use simcore::SimTime;
//!
//! let fleet = Fleet::paper_evaluation();
//! let jobs = vec![JobSpec::new(
//!     JobId(0), Benchmark::wordcount(), 32, 4, SimTime::ZERO,
//! )];
//! let mut engine = Engine::new(fleet, EngineConfig::default(), 42);
//! engine.submit_jobs(jobs);
//! let result = engine.run(&mut GreedyScheduler::new());
//! assert_eq!(result.jobs.len(), 1);
//! assert!(result.total_energy_joules() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cluster_state;
mod config;
mod engine;
mod job_state;
mod report;
mod result;
mod scheduler;
pub mod single_node;
mod task_arena;
pub mod trace;
pub mod watchdog;

pub use cluster_state::{ClusterState, JobEntry};
pub use config::{
    DvfsConfig, EngineConfig, FaultConfig, NoiseConfig, PowerDownConfig, SpeculationPolicy,
    StopCondition,
};
pub use engine::Engine;
pub use job_state::JobPhase;
pub use report::{TaskReport, UtilizationSample};
pub use result::{IntervalSnapshot, JobOutcome, MachineOutcome, RunResult, ServiceStats};
pub use scheduler::{generic_candidates, ClusterQuery, GreedyScheduler, Scheduler};
pub use task_arena::{TaskArena, TaskSlot, MAX_ATTEMPTS};
pub use trace::{DecisionCandidate, PowerState, SimEvent};
pub use watchdog::{SloBreach, SloConfig, SloStats, SloWatchdog};
