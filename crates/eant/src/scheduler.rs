//! The adaptive task assigner: E-Ant as a pluggable Hadoop scheduler.

use std::collections::BTreeMap;

use simcore::SimRng;

use cluster::hdfs::Locality;
use cluster::{MachineId, SlotKind};
use hadoop_sim::trace::{Observer, ObserverSet};
use hadoop_sim::{ClusterQuery, DecisionCandidate, Scheduler, SimEvent, TaskReport};
use workload::{JobId, JobSpec};

use crate::heuristic::{weight_factor, weight_split};
use crate::{EAntConfig, EnergyModel, PheromoneTable, TaskAnalyzer, TaskEnergyRecord};

/// E-Ant's adaptive task assigner (§III–§IV).
///
/// On every slot offer it samples a job with probability proportional to
/// `τ(j, m) · η(j)^β` (Eq. 8) — pheromone learned from per-task energy
/// feedback times the locality/fairness heuristic. At every control
/// interval it recomputes pheromones from the interval's completed-task
/// energy estimates (Eq. 2, Eq. 4–6) with the configured exchange
/// strategies.
///
/// See the [crate-level documentation](crate) for a full example.
#[derive(Debug)]
pub struct EAntScheduler {
    config: EAntConfig,
    rng: SimRng,
    pheromones: Option<PheromoneTable>,
    analyzer: Option<TaskAnalyzer>,
    models: BTreeMap<String, EnergyModel>,
    machine_groups: Vec<usize>,
    machine_profiles: Vec<String>,
    decisions: u64,
    intervals: u64,
    /// The previous control interval's policy rows, kept only while an
    /// observer is attached: [`SimEvent::PheromoneUpdated`] reports each
    /// job's overlap against them.
    prev_policy: BTreeMap<JobId, Vec<f64>>,
    /// Policy-level event stream: [`SimEvent::PheromoneUpdated`] per job
    /// per control interval and [`SimEvent::EnergyModelRefit`] when a
    /// profile's Eq. 2 model is identified. Empty unless a trace observer
    /// is attached (see [`Scheduler::attach_observer`]).
    trace: ObserverSet<SimEvent>,
}

impl EAntScheduler {
    /// Creates the scheduler with the given configuration and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: EAntConfig, seed: u64) -> Self {
        config.validate();
        EAntScheduler {
            config,
            rng: SimRng::seed_from(seed).fork("eant"),
            pheromones: None,
            analyzer: None,
            models: BTreeMap::new(),
            machine_groups: Vec::new(),
            machine_profiles: Vec::new(),
            decisions: 0,
            intervals: 0,
            prev_policy: BTreeMap::new(),
            trace: ObserverSet::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &EAntConfig {
        &self.config
    }

    /// The pheromone table, once the scheduler has seen the cluster
    /// (`None` before the first callback).
    pub fn pheromone_table(&self) -> Option<&PheromoneTable> {
        self.pheromones.as_ref()
    }

    /// Number of assignment decisions made so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Lazily learns the cluster layout from the first callback — the
    /// hardware information a real JobTracker collects from TaskTracker
    /// heartbeats (§IV-D).
    fn ensure_initialized(&mut self, query: &dyn ClusterQuery) {
        if self.pheromones.is_some() {
            return;
        }
        let fleet = query.fleet();
        let n = fleet.len();
        self.machine_groups = fleet.group_index();
        // Machine-level exchange gives every member of a homogeneous group
        // the same deposit, so the group's machines share one τ column.
        let columns = if self.config.exchange.machine_level() {
            self.machine_groups.clone()
        } else {
            (0..n).collect()
        };
        self.pheromones = Some(PheromoneTable::with_columns(
            columns,
            self.config.tau_init,
            self.config.tau_min,
            self.config.tau_max,
        ));
        self.analyzer = Some(TaskAnalyzer::new(n));
        self.machine_profiles = fleet
            .iter()
            .map(|m| m.profile().name().to_owned())
            .collect();
        for m in fleet.iter() {
            let name = m.profile().name().to_owned();
            if self.models.contains_key(&name) {
                continue;
            }
            let model = EnergyModel::from_profile(m.profile());
            self.trace.emit(query.now(), || SimEvent::EnergyModelRefit {
                profile: name.clone(),
                idle_watts: model.idle_watts(),
                alpha_watts: model.alpha_watts(),
            });
            self.models.insert(name, model);
        }
    }
}

impl EAntScheduler {
    /// Emits one [`SimEvent::PheromoneUpdated`] per active job with its
    /// policy overlap (`Σ_m min(p_m, q_m)`) against the previous interval —
    /// the live view of the §VI-C stability criterion. Without an observer
    /// nothing is computed or kept.
    fn snapshot_policy(&mut self, query: &dyn ClusterQuery) {
        if self.trace.is_empty() {
            return;
        }
        let pheromones = self.pheromones.as_ref().expect("initialized");
        let snapshot: BTreeMap<JobId, Vec<f64>> = query
            .state()
            .active()
            .map(|j| (j.id, pheromones.probabilities(j.id)))
            .collect();
        for (job, row) in &snapshot {
            let overlap = self.prev_policy.get(job).map(|prev_row| {
                prev_row
                    .iter()
                    .zip(row)
                    .map(|(a, b)| a.min(*b))
                    .sum::<f64>()
            });
            self.trace.notify(
                query.now(),
                &SimEvent::PheromoneUpdated { job: *job, overlap },
            );
        }
        self.prev_policy = snapshot;
    }

    /// The Eq. 8 decision core shared by the plain and traced selection
    /// paths: both draw from the same RNG stream over the same weights, so
    /// turning decision tracing on cannot change a single placement.
    ///
    /// With `explain` set, returns each weighed candidate's decomposition —
    /// pheromone τ (the job's Eq. 3 policy entry for this machine), the η
    /// fairness/locality split (see [`crate::heuristic::weight_split`]) and
    /// the final normalized probability.
    fn decide(
        &mut self,
        query: &dyn ClusterQuery,
        machine: MachineId,
        kind: SlotKind,
        explain: bool,
    ) -> (Option<JobId>, Vec<DecisionCandidate>) {
        self.ensure_initialized(query);
        let state = query.state();
        let candidates: Vec<_> = state.candidates(kind).collect();
        if candidates.is_empty() {
            return (None, Vec::new());
        }
        let pheromones = self.pheromones.as_mut().expect("initialized");
        for c in &candidates {
            pheromones.ensure_job(c.id);
        }

        // Fair share: equal split of the pool among active jobs
        // (Σ_j S_min = S_pool, single-user system as in §IV-C.4).
        let pool = query.total_slots();
        let min_share = pool as f64 / state.num_active().max(1) as f64;

        // Eq. 1's fairness constraint, enforced as a hard share cap: a job
        // already holding its β-scaled multiple of the fair share steps
        // aside whenever a below-cap job also wants the slot. Without this
        // bound the probabilistic assignment can drift into heavy-tailed
        // job service and erratic makespans.
        let cap = (self.config.effective_share_cap() * min_share).ceil();
        let under_cap: Vec<_> = candidates
            .iter()
            .filter(|c| (c.slots_occupied as f64) < cap)
            .copied()
            .collect();
        let candidates = if under_cap.is_empty() {
            candidates
        } else {
            under_cap
        };

        // Eq. 3 normalizes pheromone over machines *within each job's
        // row*: P(j, m) = τ(j, m) / Σ_m' τ(j, m'). A slot offer therefore
        // weighs each candidate by how strongly the job itself prefers
        // this machine — never by the raw cross-job deposit magnitude,
        // which scales with completion counts and would let short jobs
        // starve long ones outright.
        let mut parts = Vec::with_capacity(if explain { candidates.len() } else { 0 });
        let weights: Vec<f64> = candidates
            .iter()
            .map(|c| {
                let p_row = pheromones.probability(c.id, machine);
                let local = kind == SlotKind::Map
                    && query.best_map_locality(c.id, machine) == Some(Locality::NodeLocal);
                let eta = weight_factor(
                    local,
                    min_share,
                    c.slots_occupied,
                    pool,
                    self.config.beta,
                    self.config.local_boost,
                );
                if explain {
                    parts.push((p_row, local, c.slots_occupied));
                }
                p_row * eta
            })
            .collect();

        let pick = self.rng.weighted_index(&weights);
        if pick.is_some() {
            self.decisions += 1;
        }
        let chosen = pick.map(|i| candidates[i].id);

        let explained = if explain {
            let total: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
            candidates
                .iter()
                .zip(weights.iter().zip(&parts))
                .map(|(c, (&w, &(tau, local, occupied)))| {
                    let (eta_fairness, eta_locality) = weight_split(
                        local,
                        min_share,
                        occupied,
                        pool,
                        self.config.beta,
                        self.config.local_boost,
                    );
                    let probability = if total > 0.0 && w.is_finite() && w > 0.0 {
                        w / total
                    } else {
                        0.0
                    };
                    DecisionCandidate {
                        job: c.id,
                        local,
                        tau: Some(tau),
                        eta_fairness: Some(eta_fairness),
                        eta_locality: Some(eta_locality),
                        probability,
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        (chosen, explained)
    }
}

impl Scheduler for EAntScheduler {
    fn name(&self) -> &str {
        "E-Ant"
    }

    fn attach_observer(&mut self, observer: Box<dyn Observer<SimEvent>>) {
        self.trace.attach(observer);
    }

    fn select_job(
        &mut self,
        query: &dyn ClusterQuery,
        machine: MachineId,
        kind: SlotKind,
    ) -> Option<JobId> {
        self.decide(query, machine, kind, false).0
    }

    fn select_job_traced(
        &mut self,
        query: &dyn ClusterQuery,
        machine: MachineId,
        kind: SlotKind,
    ) -> (Option<JobId>, Vec<DecisionCandidate>) {
        self.decide(query, machine, kind, true)
    }

    fn on_job_submitted(&mut self, query: &dyn ClusterQuery, job: &JobSpec) {
        self.ensure_initialized(query);
        self.pheromones
            .as_mut()
            .expect("initialized")
            .ensure_job(job.id());
    }

    fn on_job_completed(&mut self, query: &dyn ClusterQuery, job: JobId) {
        self.ensure_initialized(query);
        self.pheromones
            .as_mut()
            .expect("initialized")
            .remove_job(job);
    }

    fn on_task_completed(&mut self, query: &dyn ClusterQuery, report: &TaskReport) {
        self.ensure_initialized(query);
        let profile = &self.machine_profiles[report.machine.index()];
        let model = self.models[profile];
        let energy = model.estimate(report);
        self.analyzer
            .as_mut()
            .expect("initialized")
            .record(TaskEnergyRecord {
                job: report.job(),
                group: report.group,
                machine: report.machine,
                energy_joules: energy,
            });
    }

    fn on_control_interval(&mut self, query: &dyn ClusterQuery) {
        self.ensure_initialized(query);
        self.intervals += 1;
        let analyzer = self.analyzer.as_mut().expect("initialized");
        let pheromones = self.pheromones.as_mut().expect("initialized");
        // Failure awareness: dead and blacklisted machines contribute no
        // energy feedback (their partial samples would poison Eq. 5), and
        // their pheromone columns decay so the colony's ants stop routing
        // toward paths that cannot currently run tasks.
        let failed: Vec<MachineId> = query
            .fleet()
            .iter()
            .map(|m| m.id())
            .filter(|&m| query.is_machine_dead(m) || query.is_machine_blacklisted(m))
            .collect();
        for &m in &failed {
            analyzer.discard_machine(m);
        }
        if analyzer.is_empty() {
            pheromones.evaporate(self.config.rho);
            self.snapshot_policy(query);
            return;
        }
        let feedback = analyzer.compute(
            &self.machine_groups,
            pheromones.column_of(),
            self.config.exchange,
        );
        pheromones.apply_deposits(
            &feedback.deposits,
            self.config.rho,
            self.config.negative_feedback,
        );
        // A failed machine's column deposits nothing this interval, but its
        // trail from earlier intervals persists in τ; decay it explicitly
        // so the policy forgets crashing machines faster than it learned
        // them.
        for &m in &failed {
            pheromones.evaporate_machine(m, self.config.rho);
        }
        // Deposits can resurrect rows of jobs that completed mid-interval;
        // prune anything no longer active so finished colonies release
        // their state.
        let state = query.state();
        let stale: Vec<JobId> = feedback
            .deposits
            .keys()
            .filter(|j| !state.job(**j).is_active())
            .copied()
            .collect();
        for job in stale {
            pheromones.remove_job(job);
        }
        self.snapshot_policy(query);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::Fleet;
    use hadoop_sim::{ClusterQuery, ClusterState, Engine, EngineConfig, JobEntry, NoiseConfig};
    use simcore::{SimDuration, SimTime};
    use workload::Benchmark;

    /// A hand-rolled ClusterQuery for deterministic selection tests.
    struct MockQuery {
        fleet: Fleet,
        state: ClusterState,
        local: Vec<(JobId, MachineId)>,
        dead: Vec<MachineId>,
    }

    impl MockQuery {
        fn new(jobs: Vec<JobEntry>) -> Self {
            let mut state = ClusterState::new();
            for entry in jobs {
                state.intern_group(&format!("g{}", entry.id));
                state.insert(entry);
            }
            MockQuery {
                fleet: Fleet::paper_evaluation(),
                state,
                local: Vec::new(),
                dead: Vec::new(),
            }
        }

        fn entry(id: u64, pending_maps: u32, slots_occupied: u32) -> JobEntry {
            JobEntry {
                id: JobId(id),
                group: workload::GroupId(id as u32),
                pending_maps,
                pending_reduces: 0,
                slots_occupied,
                completed_tasks: 0,
                total_tasks: pending_maps + slots_occupied,
                submitted_at: SimTime::ZERO,
                submitted: true,
                finished: false,
            }
        }
    }

    impl ClusterQuery for MockQuery {
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn fleet(&self) -> &Fleet {
            &self.fleet
        }
        fn state(&self) -> &ClusterState {
            &self.state
        }
        fn job_spec(&self, _job: JobId) -> Option<&JobSpec> {
            None
        }
        fn best_map_locality(
            &self,
            job: JobId,
            machine: MachineId,
        ) -> Option<cluster::hdfs::Locality> {
            if self.local.contains(&(job, machine)) {
                Some(cluster::hdfs::Locality::NodeLocal)
            } else {
                Some(cluster::hdfs::Locality::Remote)
            }
        }
        fn total_slots(&self) -> usize {
            96
        }
        fn network_congestion(&self) -> f64 {
            0.0
        }
        fn is_machine_dead(&self, machine: MachineId) -> bool {
            self.dead.contains(&machine)
        }
    }

    #[test]
    fn select_returns_none_without_candidates() {
        let query = MockQuery::new(vec![MockQuery::entry(0, 0, 3)]);
        let mut s = EAntScheduler::new(EAntConfig::paper_default(), 1);
        assert_eq!(s.select_job(&query, MachineId(0), SlotKind::Map), None);
    }

    #[test]
    fn select_returns_the_only_candidate() {
        let query = MockQuery::new(vec![MockQuery::entry(0, 0, 3), MockQuery::entry(1, 5, 0)]);
        let mut s = EAntScheduler::new(EAntConfig::paper_default(), 1);
        for _ in 0..20 {
            assert_eq!(
                s.select_job(&query, MachineId(0), SlotKind::Map),
                Some(JobId(1))
            );
        }
    }

    #[test]
    fn local_data_dominates_selection() {
        let mut query = MockQuery::new(vec![MockQuery::entry(0, 5, 1), MockQuery::entry(1, 5, 1)]);
        query.local.push((JobId(1), MachineId(2)));
        let mut s = EAntScheduler::new(EAntConfig::paper_default(), 3);
        let mut picks_local = 0;
        for _ in 0..100 {
            if s.select_job(&query, MachineId(2), SlotKind::Map) == Some(JobId(1)) {
                picks_local += 1;
            }
        }
        // local_boost = 1000 → the node-local job wins essentially always.
        assert!(picks_local >= 98, "local picks: {picks_local}/100");
    }

    #[test]
    fn share_cap_excludes_hogs_when_others_wait() {
        // Twenty active jobs → fair share 4.8 slots, β-scaled cap ≈ 14.4.
        // Job 0 hogs 90 slots; only jobs 0 and 1 have pending maps.
        let mut jobs = vec![MockQuery::entry(0, 5, 90), MockQuery::entry(1, 5, 0)];
        for id in 2..20 {
            jobs.push(MockQuery::entry(id, 0, 0));
        }
        let query = MockQuery::new(jobs);
        let mut s = EAntScheduler::new(EAntConfig::paper_default(), 5);
        for _ in 0..50 {
            assert_eq!(
                s.select_job(&query, MachineId(0), SlotKind::Map),
                Some(JobId(1)),
                "the capped hog must step aside"
            );
        }
    }

    #[test]
    fn capped_job_still_runs_when_alone() {
        // Same hog, but no competitor has pending work: it still runs.
        let mut jobs = vec![MockQuery::entry(0, 5, 90)];
        for id in 1..20 {
            jobs.push(MockQuery::entry(id, 0, 0));
        }
        let query = MockQuery::new(jobs);
        let mut s = EAntScheduler::new(EAntConfig::paper_default(), 5);
        assert_eq!(
            s.select_job(&query, MachineId(0), SlotKind::Map),
            Some(JobId(0))
        );
    }

    #[test]
    fn dead_machine_feedback_is_discarded_and_its_trail_decays() {
        use hadoop_sim::UtilizationSample;
        use workload::{TaskId, TaskIndex};

        let mut query = MockQuery::new(vec![MockQuery::entry(0, 5, 1)]);
        let mut s = EAntScheduler::new(EAntConfig::paper_default(), 9);
        let report = |machine: usize, index: u32| TaskReport {
            task: TaskId {
                job: JobId(0),
                task: TaskIndex {
                    kind: SlotKind::Map,
                    index,
                },
            },
            machine: MachineId(machine),
            kind: SlotKind::Map,
            group: workload::GroupId(0),
            started_at: SimTime::ZERO,
            finished_at: SimTime::from_secs(10),
            locality: None,
            samples: vec![UtilizationSample {
                dt_secs: 10.0,
                utilization: 0.5,
            }],
            shuffle_secs: 0.0,
            true_energy_joules: 0.0,
            straggled: false,
            speculative: false,
        };
        // Identical feedback on machines 0 and 1, but machine 0 is dead at
        // the interval boundary: its records must be discarded and its
        // column must decay rather than earn pheromone.
        s.on_task_completed(&query, &report(0, 0));
        s.on_task_completed(&query, &report(1, 1));
        query.dead.push(MachineId(0));
        s.on_control_interval(&query);
        let table = s.pheromone_table().unwrap();
        let dead = table.get(JobId(0), MachineId(0));
        let alive = table.get(JobId(0), MachineId(1));
        assert!(
            dead < alive,
            "dead machine kept its trail: τ_dead = {dead}, τ_alive = {alive}"
        );
        assert!(dead < s.config().tau_init, "dead column must decay");
    }

    fn engine(seed: u64) -> Engine {
        let fleet = Fleet::paper_evaluation();
        let cfg = EngineConfig {
            noise: NoiseConfig::none(),
            control_interval: SimDuration::from_secs(60),
            ..EngineConfig::default()
        };
        Engine::new(fleet, cfg, seed)
    }

    fn jobs() -> Vec<JobSpec> {
        vec![
            JobSpec::new(JobId(0), Benchmark::wordcount(), 96, 8, SimTime::ZERO),
            JobSpec::new(JobId(1), Benchmark::terasort(), 96, 8, SimTime::ZERO),
        ]
    }

    #[test]
    fn runs_multi_job_workload_to_completion() {
        let mut e = engine(3);
        e.submit_jobs(jobs());
        let mut s = EAntScheduler::new(EAntConfig::paper_default(), 3);
        let r = e.run(&mut s);
        assert!(r.drained);
        assert_eq!(r.total_tasks, 208);
        assert!(s.decisions() > 0);
    }

    #[test]
    fn pheromone_rows_cleared_after_completion() {
        let mut e = engine(4);
        e.submit_jobs(jobs());
        let mut s = EAntScheduler::new(EAntConfig::paper_default(), 4);
        let _ = e.run(&mut s);
        assert_eq!(s.pheromone_table().unwrap().jobs(), 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut e = engine(7);
            e.submit_jobs(jobs());
            let mut s = EAntScheduler::new(EAntConfig::paper_default(), seed);
            e.run(&mut s).makespan
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn beta_zero_still_schedules() {
        let mut e = engine(5);
        e.submit_jobs(jobs());
        let cfg = EAntConfig {
            beta: 0.0,
            ..EAntConfig::paper_default()
        };
        let mut s = EAntScheduler::new(cfg, 5);
        let r = e.run(&mut s);
        assert!(r.drained);
    }

    #[test]
    fn adapts_workload_mix_to_machine_strengths() {
        // Fig. 9(a): under a CPU-bound + I/O-bound mix, the compute-
        // optimized T420 group should end up with a larger share of the
        // CPU-bound (Wordcount) tasks than the Desktop group does.
        let fleet = Fleet::paper_evaluation();
        let cfg = EngineConfig {
            noise: NoiseConfig::none(),
            control_interval: SimDuration::from_secs(60),
            ..EngineConfig::default()
        };
        let mut e = Engine::new(fleet, cfg, 11);
        e.submit_jobs(vec![
            JobSpec::new(JobId(0), Benchmark::wordcount(), 400, 16, SimTime::ZERO),
            JobSpec::new(JobId(1), Benchmark::grep(), 400, 16, SimTime::ZERO),
        ]);
        let mut s = EAntScheduler::new(EAntConfig::paper_default(), 11);
        let r = e.run(&mut s);
        assert!(r.drained);
        let by_pb = r.tasks_by_profile_and_benchmark();
        let share = |profile: &str| {
            let wc = *by_pb
                .get(&(profile.to_owned(), "Wordcount".to_owned()))
                .unwrap_or(&0) as f64;
            let grep = *by_pb
                .get(&(profile.to_owned(), "Grep".to_owned()))
                .unwrap_or(&0) as f64;
            wc / (wc + grep).max(1.0)
        };
        let t420 = share("T420");
        let desktop = share("Desktop");
        assert!(
            t420 > desktop,
            "expected Wordcount share on T420 ({t420:.2}) > Desktop ({desktop:.2})"
        );
    }
}
