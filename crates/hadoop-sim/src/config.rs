//! Engine and noise configuration.

use simcore::SimDuration;

/// Injection parameters for the transient *system noise* of §IV-D: data
/// skew and network contention manifest as straggling tasks and fluctuating
/// CPU-utilization readings.
///
/// # Examples
///
/// ```
/// use hadoop_sim::NoiseConfig;
///
/// let quiet = NoiseConfig::none();
/// assert_eq!(quiet.straggler_prob, 0.0);
/// let noisy = NoiseConfig::default();
/// assert!(noisy.straggler_prob > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseConfig {
    /// Probability that a task straggles (runs slower than its expected
    /// speed on that machine type).
    pub straggler_prob: f64,
    /// Straggler slowdown factor range (uniform draw), e.g. `(1.5, 3.0)`.
    pub straggler_slowdown: (f64, f64),
    /// Standard deviation of the multiplicative jitter applied to each
    /// *reported* CPU-utilization sample. Jitter corrupts what the
    /// TaskTracker reports (and hence Eq. 2 estimates) without changing the
    /// machine's true power draw — exactly the estimation hazard Fig. 7
    /// illustrates.
    pub utilization_jitter: f64,
}

impl NoiseConfig {
    /// No noise at all: reported samples equal ground truth.
    pub fn none() -> Self {
        NoiseConfig {
            straggler_prob: 0.0,
            straggler_slowdown: (1.0, 1.0),
            utilization_jitter: 0.0,
        }
    }

    /// The paper-shaped default: occasional stragglers plus moderate
    /// reading jitter (enough to reproduce the Fig. 7 scatter).
    pub fn paper_default() -> Self {
        NoiseConfig {
            straggler_prob: 0.05,
            straggler_slowdown: (1.5, 3.0),
            utilization_jitter: 0.12,
        }
    }

    /// Whether any noise source is active.
    pub fn is_enabled(&self) -> bool {
        self.straggler_prob > 0.0 || self.utilization_jitter > 0.0
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics if probabilities are outside `[0, 1]`, the slowdown range is
    /// inverted or below 1, or the jitter is negative.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.straggler_prob),
            "straggler_prob must be in [0, 1]"
        );
        let (lo, hi) = self.straggler_slowdown;
        assert!(
            lo >= 1.0 && hi >= lo,
            "straggler_slowdown must satisfy 1 <= lo <= hi"
        );
        assert!(
            self.utilization_jitter >= 0.0,
            "utilization_jitter must be non-negative"
        );
    }
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig::paper_default()
    }
}

/// Fault-injection parameters: TaskTracker crashes with heartbeat-expiry
/// death detection, random per-attempt task failures with a retry cap, and
/// per-machine blacklisting — the failure semantics of the paper's real
/// 16-node testbed that the simulator otherwise idealizes away.
///
/// Faults model the *TaskTracker process* dying, not the power supply: a
/// crashed machine stops heartbeating (so the JobTracker declares it dead
/// after [`FaultConfig::missed_heartbeats`] silent periods and re-executes
/// its work, including completed map outputs), but keeps drawing idle power
/// until the daemon restarts. All randomness comes from a dedicated RNG
/// stream forked off the engine seed, so fault schedules are reproducible
/// and — when the config is disabled — provably absent: no draw, no event,
/// no bookkeeping.
///
/// # Examples
///
/// ```
/// use hadoop_sim::FaultConfig;
///
/// let quiet = FaultConfig::none();
/// assert!(!quiet.is_enabled());
/// let faulty = FaultConfig::moderate();
/// assert!(faulty.is_enabled() && faulty.crash_enabled());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Mean time between TaskTracker crashes per machine (exponential
    /// inter-crash gaps). `SimDuration::ZERO` disables crashes.
    pub crash_mtbf: SimDuration,
    /// Mean downtime of a crashed TaskTracker before it rejoins. Clamped at
    /// schedule-generation time to at least `(missed_heartbeats + 1)`
    /// heartbeat periods so a machine is always *declared* dead (and its
    /// work re-queued) before it recovers.
    pub crash_downtime: SimDuration,
    /// Probability that any single task attempt fails partway through.
    pub task_failure_prob: f64,
    /// Consecutive silent heartbeat periods after which the JobTracker
    /// declares an unresponsive machine dead (Hadoop's
    /// `mapred.tasktracker.expiry.interval` analogue).
    pub missed_heartbeats: u32,
    /// Once a task has failed this many times, its further attempts are
    /// exempt from random failure (Hadoop's `mapred.map.max.attempts`
    /// analogue, inverted into a liveness guarantee: every task eventually
    /// succeeds).
    pub max_task_retries: u32,
    /// Random task failures on one machine after which it stops receiving
    /// work for the rest of the run. `0` disables blacklisting; the engine
    /// never blacklists the last operating machine.
    pub blacklist_threshold: u32,
}

impl FaultConfig {
    /// No faults at all — the default. The engine takes no fault branch,
    /// draws no fault randomness and emits no fault event under this
    /// config, so runs are byte-identical to a build without the layer.
    pub fn none() -> Self {
        FaultConfig {
            crash_mtbf: SimDuration::ZERO,
            crash_downtime: SimDuration::ZERO,
            task_failure_prob: 0.0,
            missed_heartbeats: 3,
            max_task_retries: 4,
            blacklist_threshold: 0,
        }
    }

    /// A testbed-shaped mixed profile: roughly one crash per machine per
    /// simulated hour with two-minute restarts, a 2 % attempt failure
    /// rate, and Hadoop-default retry/blacklist knobs.
    pub fn moderate() -> Self {
        FaultConfig {
            crash_mtbf: SimDuration::from_mins(60),
            crash_downtime: SimDuration::from_mins(2),
            task_failure_prob: 0.02,
            missed_heartbeats: 3,
            max_task_retries: 4,
            blacklist_threshold: 12,
        }
    }

    /// Whether any fault source is active.
    pub fn is_enabled(&self) -> bool {
        self.crash_enabled() || self.task_failure_prob > 0.0
    }

    /// Whether machine crashes are active.
    pub fn crash_enabled(&self) -> bool {
        !self.crash_mtbf.is_zero()
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics if the failure probability is outside `[0, 1]`, crashes are
    /// enabled without a positive downtime or expiry threshold, or random
    /// failures are enabled without a retry cap (which would forfeit the
    /// liveness guarantee).
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.task_failure_prob),
            "task_failure_prob must be in [0, 1]"
        );
        if self.crash_enabled() {
            assert!(
                !self.crash_downtime.is_zero(),
                "crash_downtime must be positive when crashes are enabled"
            );
            assert!(
                self.missed_heartbeats >= 1,
                "missed_heartbeats must be >= 1 when crashes are enabled"
            );
        }
        if self.task_failure_prob > 0.0 {
            assert!(
                self.max_task_retries >= 1,
                "max_task_retries must be >= 1 when task failures are enabled"
            );
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// Idle power-down policy — the paper's *future work* extension ("we will
/// explore the integration of E-Ant with cluster resource provisioning and
/// server consolidation techniques", §VIII), implemented here as an
/// optional engine feature.
///
/// A machine with no running tasks while the whole cluster has no pending
/// work for longer than `idle_timeout` drops to `standby_watts`; it wakes
/// (paying `wake_latency`) when work appears. Note the paper's own caveat:
/// real consolidation conflicts with HDFS replica availability — this model
/// ignores storage availability, powering machines down only when the
/// cluster is drained of runnable work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerDownConfig {
    /// Cluster-wide work drought needed before machines drop to standby.
    pub idle_timeout: SimDuration,
    /// Standby draw in watts (ACPI S3-style suspend).
    pub standby_watts: f64,
    /// Delay before a woken machine can run its first task.
    pub wake_latency: SimDuration,
}

impl PowerDownConfig {
    /// A conventional policy: suspend after 30 s of cluster-wide idleness
    /// at 2.5 W, waking in 10 s.
    pub fn suspend_to_ram() -> Self {
        PowerDownConfig {
            idle_timeout: SimDuration::from_secs(30),
            standby_watts: 2.5,
            wake_latency: SimDuration::from_secs(10),
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics on negative/non-finite standby power.
    pub fn validate(&self) {
        assert!(
            self.standby_watts.is_finite() && self.standby_watts >= 0.0,
            "standby power must be non-negative"
        );
    }
}

/// DVFS policy — the second future-work lever the paper cites ("slow down
/// or sleep", Le Sueur & Heiser, HotPower'11 reference \[16\]): machines drop
/// to a lower frequency when lightly utilized and return to nominal under
/// load. Service speed scales with the factor; power scales statically with
/// `0.6 + 0.4·f` and dynamically with `f²`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsConfig {
    /// The eco-mode frequency factor in `(0, 1]`.
    pub eco_factor: f64,
    /// Below this machine utilization the machine shifts to eco mode.
    pub low_utilization: f64,
    /// Above this machine utilization the machine returns to nominal.
    pub high_utilization: f64,
}

impl DvfsConfig {
    /// A conventional policy: 70 % frequency below 20 % utilization, back
    /// to nominal above 50 %.
    pub fn conservative() -> Self {
        DvfsConfig {
            eco_factor: 0.7,
            low_utilization: 0.2,
            high_utilization: 0.5,
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < eco_factor <= 1` and
    /// `0 <= low_utilization < high_utilization <= 1`.
    pub fn validate(&self) {
        assert!(
            self.eco_factor > 0.0 && self.eco_factor <= 1.0,
            "eco_factor must be in (0, 1]"
        );
        assert!(
            0.0 <= self.low_utilization
                && self.low_utilization < self.high_utilization
                && self.high_utilization <= 1.0,
            "utilization thresholds must satisfy 0 <= low < high <= 1"
        );
    }
}

/// Speculative-execution policy (Hadoop's backup tasks; §VII cites LATE,
/// Zaharia et al. OSDI'08, as the heterogeneity-aware refinement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpeculationPolicy {
    /// No backup tasks (the configuration the paper evaluates E-Ant under).
    Off,
    /// Stock Hadoop speculation: when slots are free and no pending work
    /// remains, clone any running task whose elapsed time exceeds the
    /// straggler threshold, onto any machine.
    Hadoop,
    /// LATE: additionally restrict backup copies to fast machines (fleet
    /// speed at or above the median) and prefer the longest-running
    /// straggler — the heterogeneity-aware refinement.
    Late,
}

/// When a run ends.
///
/// The engine historically had exactly one termination model — run until
/// every submitted job completes ([`StopCondition::Drain`]) — which answers
/// batch questions (makespan, energy to drain) but not service questions
/// (energy per job at a p99 sojourn SLO under sustained load). Service-mode
/// runs instead use [`StopCondition::Horizon`]: simulate a warm-up period
/// whose jobs are excluded from steady-state accounting, then a measurement
/// window, and stop at `warmup + measure` regardless of backlog — which is
/// what makes an *overloaded* (never-draining) regime measurable at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCondition {
    /// Run until every submitted job completes (or `max_sim_time`); the
    /// historical batch semantics and the default.
    Drain,
    /// Run for a fixed horizon of simulated time: a warm-up prefix excluded
    /// from steady-state statistics, then a measurement window. The run
    /// stops at `warmup + measure` whether or not jobs remain — required
    /// for open-stream and overload regimes that never drain.
    Horizon {
        /// Warm-up period before measurement begins.
        warmup: SimDuration,
        /// Length of the measurement window.
        measure: SimDuration,
    },
}

/// Configuration of the Hadoop engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// TaskTracker heartbeat period. Hadoop's (and the paper's Δt in Eq. 2)
    /// default is 3 s.
    pub heartbeat: SimDuration,
    /// Control interval at which adaptive schedulers re-derive their
    /// policy. The paper uses 5 minutes (§V-B) and sweeps 2–8 minutes in
    /// Fig. 12(b).
    pub control_interval: SimDuration,
    /// Fraction of a job's map tasks that must complete before its reduce
    /// tasks become eligible (Hadoop's reduce slow-start,
    /// `mapred.reduce.slowstart.completed.maps`). Stock Hadoop defaults to
    /// 0.05; the engine defaults to 0.3 — enough overlap to hide the
    /// shuffle behind the map phase without the start-of-job reduce burst
    /// that the coarse one-shot transfer model would otherwise overcharge.
    pub reduce_slowstart: f64,
    /// System-noise injection parameters.
    pub noise: NoiseConfig,
    /// Fault-injection parameters (crashes, task failures, blacklisting).
    /// Defaults to [`FaultConfig::none`]: no failure semantics, like the
    /// idealized simulator before this layer existed.
    pub fault: FaultConfig,
    /// Optional idle power-down policy (future-work extension; `None`
    /// keeps every machine powered like the paper's testbed).
    pub power_down: Option<PowerDownConfig>,
    /// Speculative-execution policy.
    pub speculation: SpeculationPolicy,
    /// Optional DVFS policy (future-work extension; `None` runs every
    /// machine at nominal frequency like the paper's testbed).
    pub dvfs: Option<DvfsConfig>,
    /// A running attempt becomes a speculation candidate once its elapsed
    /// time exceeds this multiple of its job's mean completed task
    /// duration (per task kind).
    pub speculation_threshold: f64,
    /// Whether to emit a [`SimEvent::AssignmentDecision`](crate::SimEvent)
    /// at every task placement, carrying the scheduler's candidate set and
    /// (for schedulers that explain themselves, like E-Ant) the pheromone /
    /// heuristic / probability decomposition behind the choice. Off by
    /// default: the engine then calls the plain
    /// [`Scheduler::select_job`](crate::Scheduler::select_job) path and no
    /// decision payload is ever constructed, so traces and run results are
    /// byte-identical to a build without this feature.
    pub trace_decisions: bool,
    /// Hard wall on simulated time; the run aborts (with whatever has
    /// completed) if the workload has not drained by then.
    pub max_sim_time: SimDuration,
    /// Termination model: drain-to-completion (default) or a fixed
    /// warm-up + measurement horizon for service-mode runs.
    pub stop: StopCondition,
}

impl EngineConfig {
    /// Whether an event after a task's start can read that task again:
    /// speculation clones a running attempt onto another machine, and
    /// fault injection requeues failed attempts and lost map outputs.
    /// Without either, the engine keeps no attempt registry, and a job's
    /// block replicas are freed as soon as its last pending map starts.
    pub(crate) fn revisits_started_tasks(&self) -> bool {
        self.speculation != SpeculationPolicy::Off || self.fault.is_enabled()
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics on a zero heartbeat or control interval, a slow-start outside
    /// `(0, 1]`, or invalid noise parameters.
    pub fn validate(&self) {
        assert!(!self.heartbeat.is_zero(), "heartbeat must be positive");
        assert!(
            !self.control_interval.is_zero(),
            "control interval must be positive"
        );
        assert!(
            self.reduce_slowstart > 0.0 && self.reduce_slowstart <= 1.0,
            "reduce_slowstart must be in (0, 1]"
        );
        assert!(
            !self.max_sim_time.is_zero(),
            "max_sim_time must be positive"
        );
        self.noise.validate();
        self.fault.validate();
        if let Some(pd) = &self.power_down {
            pd.validate();
        }
        assert!(
            self.speculation_threshold >= 1.0,
            "speculation threshold must be >= 1"
        );
        if let Some(dvfs) = &self.dvfs {
            dvfs.validate();
        }
        if let StopCondition::Horizon { measure, .. } = self.stop {
            assert!(
                !measure.is_zero(),
                "horizon measurement window must be positive"
            );
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            heartbeat: SimDuration::from_secs(3),
            control_interval: SimDuration::from_mins(5),
            reduce_slowstart: 0.3,
            noise: NoiseConfig::paper_default(),
            fault: FaultConfig::none(),
            power_down: None,
            speculation: SpeculationPolicy::Off,
            dvfs: None,
            speculation_threshold: 1.5,
            trace_decisions: false,
            max_sim_time: SimDuration::from_mins(60 * 24 * 7),
            stop: StopCondition::Drain,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.heartbeat, SimDuration::from_secs(3));
        assert_eq!(cfg.control_interval, SimDuration::from_mins(5));
        cfg.validate();
    }

    #[test]
    fn none_noise_is_disabled() {
        assert!(!NoiseConfig::none().is_enabled());
        assert!(NoiseConfig::paper_default().is_enabled());
        NoiseConfig::none().validate();
    }

    #[test]
    #[should_panic(expected = "straggler_prob must be in [0, 1]")]
    fn invalid_straggler_prob() {
        NoiseConfig {
            straggler_prob: 1.5,
            ..NoiseConfig::none()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "straggler_slowdown must satisfy")]
    fn invalid_slowdown_range() {
        NoiseConfig {
            straggler_slowdown: (3.0, 1.5),
            straggler_prob: 0.1,
            utilization_jitter: 0.0,
        }
        .validate();
    }

    #[test]
    fn none_fault_is_disabled() {
        assert!(!FaultConfig::none().is_enabled());
        assert!(FaultConfig::moderate().is_enabled());
        FaultConfig::none().validate();
        FaultConfig::moderate().validate();
    }

    #[test]
    #[should_panic(expected = "task_failure_prob must be in [0, 1]")]
    fn invalid_failure_prob() {
        FaultConfig {
            task_failure_prob: 1.5,
            ..FaultConfig::none()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "crash_downtime must be positive")]
    fn crash_without_downtime_rejected() {
        FaultConfig {
            crash_mtbf: SimDuration::from_mins(30),
            crash_downtime: SimDuration::ZERO,
            ..FaultConfig::none()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "max_task_retries must be >= 1")]
    fn failures_without_retry_cap_rejected() {
        FaultConfig {
            task_failure_prob: 0.1,
            max_task_retries: 0,
            ..FaultConfig::none()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "heartbeat must be positive")]
    fn zero_heartbeat_rejected() {
        EngineConfig {
            heartbeat: SimDuration::ZERO,
            ..EngineConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "reduce_slowstart must be in (0, 1]")]
    fn invalid_slowstart() {
        EngineConfig {
            reduce_slowstart: 0.0,
            ..EngineConfig::default()
        }
        .validate();
    }
}
