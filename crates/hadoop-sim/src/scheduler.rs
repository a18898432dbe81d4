//! The scheduler plug-in interface.

use simcore::SimTime;

use cluster::hdfs::Locality;
use cluster::{Fleet, MachineId, SlotKind};
use workload::{JobId, JobSpec};

use crate::trace::DecisionCandidate;
use crate::{ClusterState, TaskReport};

/// Read-only view of cluster state offered to schedulers at every decision
/// point. Implemented by the engine.
///
/// This corresponds to the information a real Hadoop scheduler obtains from
/// the JobTracker's in-memory state plus TaskTracker heartbeats: job queues,
/// slot occupancy, hardware identity and block locations. Job queues and
/// occupancy arrive as a *borrowed* [`ClusterState`] scoreboard the engine
/// maintains incrementally — querying allocates nothing.
pub trait ClusterQuery {
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// The cluster fleet (profiles, slots, racks).
    fn fleet(&self) -> &Fleet;
    /// The job/group scoreboard: dense entries, id-sorted active index,
    /// aggregate totals.
    fn state(&self) -> &ClusterState;
    /// The spec of a job (active or finished).
    fn job_spec(&self, job: JobId) -> Option<&JobSpec>;
    /// Locality the *best* pending map task of `job` would have on
    /// `machine`, or `None` when the job has no pending maps or has not
    /// been submitted yet (its input blocks are placed at submission).
    fn best_map_locality(&self, job: JobId, machine: MachineId) -> Option<Locality>;
    /// Total slots in the cluster (`S_pool` in Eq. 7 for a single-user
    /// system).
    fn total_slots(&self) -> usize;
    /// Cluster-wide mean number of active shuffle transfers per machine — a
    /// congestion signal for communication-aware schedulers.
    fn network_congestion(&self) -> f64;
    /// Test-support oracle: reconstructs the scoreboard from authoritative
    /// ground truth by full scan. The engine derives it from its per-job
    /// task queues; the property suite asserts it equals [`state`] after
    /// every event. The default (for mock queries whose scoreboard *is* the
    /// ground truth) returns a copy of [`state`].
    ///
    /// [`state`]: ClusterQuery::state
    fn rebuild_state(&self) -> ClusterState {
        self.state().clone()
    }
    /// Whether the JobTracker currently considers `machine` dead (heartbeat
    /// expiry after a crash; see [`crate::FaultConfig`]). Always `false`
    /// with fault injection off — the default for mock queries.
    fn is_machine_dead(&self, _machine: MachineId) -> bool {
        false
    }
    /// Whether `machine` has been blacklisted for repeated task failures.
    /// Always `false` with fault injection off — the default for mock
    /// queries.
    fn is_machine_blacklisted(&self, _machine: MachineId) -> bool {
        false
    }
    /// Failed task attempts charged to `machine` so far (the blacklist
    /// counter). Zero with fault injection off — the default for mock
    /// queries.
    fn task_failures_on(&self, _machine: MachineId) -> u32 {
        0
    }
}

/// A task-assignment policy plugged into the engine.
///
/// On every heartbeat the engine offers each free slot by calling
/// [`Scheduler::select_job`]; the scheduler answers with the job whose task
/// should occupy that slot (the engine then picks the job's best pending
/// task, preferring locality for maps). Returning `None` leaves the slot
/// idle until the next heartbeat.
///
/// The callbacks mirror what the paper's implementation wires into Hadoop:
/// completed-task feedback (`taskAnalyzer` over `TaskReport`s) and periodic
/// policy refresh (the `Optimizer` run each control interval).
pub trait Scheduler {
    /// Human-readable name for reports ("Fair", "Tarazu", "E-Ant", ...).
    fn name(&self) -> &str;

    /// Chooses which job's task should fill the free `kind` slot on
    /// `machine`, or `None` to leave it idle.
    fn select_job(
        &mut self,
        query: &dyn ClusterQuery,
        machine: MachineId,
        kind: SlotKind,
    ) -> Option<JobId>;

    /// Like [`Scheduler::select_job`], but also reports the candidate set
    /// the decision weighed — called by the engine *instead of*
    /// `select_job` when [`crate::EngineConfig::trace_decisions`] is on, so
    /// implementations must make the same choice (and consume the same RNG
    /// draws) as `select_job` would.
    ///
    /// The default reconstructs the generic candidate set — active jobs
    /// with pending work of `kind`, with map locality flagged — around a
    /// plain `select_job` call, marking the chosen job with probability 1.
    /// Schedulers that score candidates (E-Ant) override this to expose
    /// their pheromone/heuristic/probability decomposition.
    fn select_job_traced(
        &mut self,
        query: &dyn ClusterQuery,
        machine: MachineId,
        kind: SlotKind,
    ) -> (Option<JobId>, Vec<DecisionCandidate>) {
        let chosen = self.select_job(query, machine, kind);
        (chosen, generic_candidates(query, machine, kind, chosen))
    }

    /// Called when a job is submitted.
    fn on_job_submitted(&mut self, _query: &dyn ClusterQuery, _job: &JobSpec) {}

    /// Called when a job's last task completes.
    fn on_job_completed(&mut self, _query: &dyn ClusterQuery, _job: JobId) {}

    /// Called for every completed task attempt, with the TaskTracker's
    /// report.
    fn on_task_completed(&mut self, _query: &dyn ClusterQuery, _report: &TaskReport) {}

    /// Called at every control-interval boundary (default 5 min).
    fn on_control_interval(&mut self, _query: &dyn ClusterQuery) {}

    /// Attaches a trace observer to the scheduler's *own* event stream
    /// (policy-level events such as [`crate::SimEvent::PheromoneUpdated`]).
    /// Schedulers without internal events — the default — drop the
    /// observer. To interleave scheduler events with the engine stream,
    /// attach clones of one [`crate::trace::SharedObserver`] to both.
    fn attach_observer(&mut self, _observer: Box<dyn crate::trace::Observer<crate::SimEvent>>) {}
}

/// The candidate set every scheduler shares: active jobs with pending work
/// of `kind`, in scoreboard (id) order, with node-local map data flagged.
/// The chosen job (if any) gets probability 1 and the rest 0 — the honest
/// description of a deterministic pick. Used by the default
/// [`Scheduler::select_job_traced`] and available to schedulers that
/// override it but keep the generic set.
pub fn generic_candidates(
    query: &dyn ClusterQuery,
    machine: MachineId,
    kind: SlotKind,
    chosen: Option<JobId>,
) -> Vec<DecisionCandidate> {
    query
        .state()
        .candidates(kind)
        .map(|j| DecisionCandidate {
            job: j.id,
            local: kind == SlotKind::Map
                && query.best_map_locality(j.id, machine) == Some(Locality::NodeLocal),
            tau: None,
            eta_fairness: None,
            eta_locality: None,
            probability: if chosen == Some(j.id) { 1.0 } else { 0.0 },
        })
        .collect()
}

/// A minimal reference scheduler: offers each slot to the first active job
/// (in id order) that has a pending task of the right kind, preferring jobs
/// with node-local data for map slots.
///
/// `GreedyScheduler` approximates Hadoop's default FIFO behaviour and is
/// what the engine's own tests run against. The richer baselines (Fair,
/// Tarazu) live in the `baselines` crate.
///
/// # Examples
///
/// ```
/// use hadoop_sim::{GreedyScheduler, Scheduler};
///
/// let s = GreedyScheduler::new();
/// assert_eq!(s.name(), "FIFO-greedy");
/// ```
#[derive(Debug, Clone, Default)]
pub struct GreedyScheduler {
    _private: (),
}

impl GreedyScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        GreedyScheduler { _private: () }
    }
}

impl Scheduler for GreedyScheduler {
    fn name(&self) -> &str {
        "FIFO-greedy"
    }

    fn select_job(
        &mut self,
        query: &dyn ClusterQuery,
        machine: MachineId,
        kind: SlotKind,
    ) -> Option<JobId> {
        let state = query.state();
        if kind == SlotKind::Map {
            // First pass: a job with node-local data here.
            for j in state.candidates(SlotKind::Map) {
                if query.best_map_locality(j.id, machine) == Some(Locality::NodeLocal) {
                    return Some(j.id);
                }
            }
        }
        state.candidates(kind).next().map(|j| j.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_scheduler_is_object_safe() {
        fn takes_dyn(_s: &dyn Scheduler) {}
        takes_dyn(&GreedyScheduler::new());
    }
}
