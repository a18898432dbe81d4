//! The incrementally maintained cluster scoreboard.
//!
//! Schedulers used to receive a by-value `Vec<JobSummary>` snapshot — with
//! freshly allocated `String` group keys — rebuilt on *every* slot offer,
//! i.e. several times per 3-second heartbeat. [`ClusterState`] replaces
//! that: a dense-by-[`JobId`] job table plus an id-sorted active index and
//! O(1) aggregate counters, updated by the engine at the events that change
//! them (job submit, task start, task complete) and merely *borrowed* at
//! decision time via [`ClusterQuery::state`].
//!
//! Group membership is interned: each job's homogeneous-group label
//! (benchmark + MSD size class, §IV-D of the paper) becomes a dense
//! [`GroupId`] at registration, so the scheduler decision path compares
//! `Copy` symbols instead of hashing strings.
//!
//! The incremental bookkeeping is kept honest by
//! [`ClusterState::rebuild_from_scratch`], an oracle constructor that
//! derives the active index, the group table and every aggregate by full
//! scan; the property suite asserts `incremental == oracle` after every
//! engine event in seeded runs.
//!
//! [`ClusterQuery::state`]: crate::ClusterQuery::state

use cluster::SlotKind;
use simcore::SimTime;
use workload::{GroupId, GroupTable, JobId, JobSpec};

/// Scoreboard row for one registered job.
///
/// Counters mirror the JobTracker's view: pending work, occupied slots
/// (`S_occ` in Eq. 7) and completion progress. `pending_reduces` counts
/// only *eligible* reduces — zero until the job clears reduce slow-start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobEntry {
    /// The job id (equals this entry's index in [`ClusterState::jobs`]).
    pub id: JobId,
    /// Interned homogeneous-group symbol (benchmark + size class).
    pub group: GroupId,
    /// Pending (unassigned) map tasks.
    pub pending_maps: u32,
    /// Pending *eligible* reduce tasks (gated by slow-start).
    pub pending_reduces: u32,
    /// Slots currently occupied by this job's running task attempts.
    pub slots_occupied: u32,
    /// Tasks completed so far.
    pub completed_tasks: u32,
    /// Total tasks in the job.
    pub total_tasks: u32,
    /// When the job enters the cluster.
    pub submitted_at: SimTime,
    /// Whether the job's arrival event has fired.
    pub submitted: bool,
    /// Whether every task of the job has completed. A finished job can
    /// still hold slots (speculative losers draining), so `slots_occupied`
    /// may be non-zero here.
    pub finished: bool,
}

impl JobEntry {
    /// Whether the job is submitted and not yet complete — the population
    /// schedulers pick from.
    pub fn is_active(&self) -> bool {
        self.submitted && !self.finished
    }

    /// Pending tasks of `kind`.
    pub fn pending(&self, kind: SlotKind) -> u32 {
        match kind {
            SlotKind::Map => self.pending_maps,
            SlotKind::Reduce => self.pending_reduces,
        }
    }
}

/// Dense job/group scoreboard with an id-sorted active index and O(1)
/// aggregate totals, updated by the engine at the events that change them
/// and borrowed by schedulers at decision time.
///
/// # Examples
///
/// ```
/// use hadoop_sim::{ClusterState, JobEntry};
/// use simcore::SimTime;
/// use workload::JobId;
///
/// let mut state = ClusterState::new();
/// let group = state.intern_group("Wordcount-S");
/// state.insert(JobEntry {
///     id: JobId(0),
///     group,
///     pending_maps: 4,
///     pending_reduces: 0,
///     slots_occupied: 0,
///     completed_tasks: 0,
///     total_tasks: 5,
///     submitted_at: SimTime::ZERO,
///     submitted: false,
///     finished: false,
/// });
/// assert!(state.active().next().is_none()); // not submitted yet
/// state.update(JobId(0), |e| e.submitted = true);
/// assert_eq!(state.active().count(), 1);
/// assert_eq!(state.pending_total(cluster::SlotKind::Map), 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterState {
    jobs: Vec<JobEntry>,
    /// Ids of active jobs, sorted ascending — scheduler candidate order.
    active: Vec<JobId>,
    /// Ids of active jobs with pending map work, sorted ascending — the
    /// map-slot candidate slice schedulers iterate without filtering.
    candidate_maps: Vec<JobId>,
    /// Ids of active jobs with pending *eligible* reduce work, sorted
    /// ascending — the reduce-slot candidate slice.
    candidate_reduces: Vec<JobId>,
    groups: GroupTable,
    /// Pending maps summed over *active* jobs.
    pending_map_total: u64,
    /// Pending eligible reduces summed over *active* jobs.
    pending_reduce_total: u64,
    /// Occupied slots summed over *all* jobs — finished jobs may still be
    /// draining speculative-loser attempts.
    running_total: u64,
}

impl ClusterState {
    /// Creates an empty scoreboard.
    pub fn new() -> Self {
        ClusterState::default()
    }

    /// Registers a job from its spec: interns the group label and inserts
    /// an idle, not-yet-submitted entry with all tasks pending.
    ///
    /// # Panics
    ///
    /// Panics if `spec.id()` is not the next dense id.
    pub fn register(&mut self, spec: &JobSpec) {
        let group = self.groups.intern(&spec.class_label());
        self.insert(JobEntry {
            id: spec.id(),
            group,
            pending_maps: spec.num_maps(),
            pending_reduces: 0,
            slots_occupied: 0,
            completed_tasks: 0,
            total_tasks: spec.num_tasks(),
            submitted_at: spec.submit_at(),
            submitted: false,
            finished: false,
        });
    }

    /// Inserts a fully-specified entry (low-level path; [`register`] is the
    /// engine-side convenience). Totals and the active index absorb the new
    /// entry immediately.
    ///
    /// # Panics
    ///
    /// Panics if `entry.id` is not the next dense id.
    ///
    /// [`register`]: ClusterState::register
    pub fn insert(&mut self, entry: JobEntry) {
        assert_eq!(
            entry.id.index(),
            self.jobs.len(),
            "job ids must be dense: got {} for slot {}",
            entry.id,
            self.jobs.len()
        );
        if entry.is_active() {
            self.pending_map_total += u64::from(entry.pending_maps);
            self.pending_reduce_total += u64::from(entry.pending_reduces);
            self.active.push(entry.id); // dense insert keeps the sort
        }
        for kind in [SlotKind::Map, SlotKind::Reduce] {
            if Self::is_candidate(&entry, kind) {
                self.candidate_index_mut(kind).push(entry.id);
            }
        }
        self.running_total += u64::from(entry.slots_occupied);
        self.jobs.push(entry);
    }

    /// Whether an entry belongs on the `kind` candidate slice: active with
    /// pending work of that kind.
    fn is_candidate(entry: &JobEntry, kind: SlotKind) -> bool {
        entry.is_active() && entry.pending(kind) > 0
    }

    fn candidate_index_mut(&mut self, kind: SlotKind) -> &mut Vec<JobId> {
        match kind {
            SlotKind::Map => &mut self.candidate_maps,
            SlotKind::Reduce => &mut self.candidate_reduces,
        }
    }

    /// Applies `mutate` to the job's entry, keeping the active index and
    /// aggregate totals consistent with the new counter values. This is the
    /// single mutation primitive: submission, task start, task completion
    /// and job completion are all expressed through it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unregistered or `mutate` changes the entry's id.
    pub fn update(&mut self, id: JobId, mutate: impl FnOnce(&mut JobEntry)) {
        let entry = &mut self.jobs[id.index()];
        let was_active = entry.is_active();
        let was_candidate = [
            Self::is_candidate(entry, SlotKind::Map),
            Self::is_candidate(entry, SlotKind::Reduce),
        ];
        if was_active {
            self.pending_map_total -= u64::from(entry.pending_maps);
            self.pending_reduce_total -= u64::from(entry.pending_reduces);
        }
        self.running_total -= u64::from(entry.slots_occupied);

        mutate(entry);
        debug_assert_eq!(entry.id, id, "update must not change the job id");

        let now_active = entry.is_active();
        let now_candidate = [
            Self::is_candidate(entry, SlotKind::Map),
            Self::is_candidate(entry, SlotKind::Reduce),
        ];
        if now_active {
            self.pending_map_total += u64::from(entry.pending_maps);
            self.pending_reduce_total += u64::from(entry.pending_reduces);
        }
        self.running_total += u64::from(entry.slots_occupied);

        match (was_active, now_active) {
            (false, true) => {
                let pos = self.active.partition_point(|&a| a < id);
                self.active.insert(pos, id);
            }
            (true, false) => {
                let pos = self
                    .active
                    .binary_search(&id)
                    .expect("active index out of sync");
                self.active.remove(pos);
            }
            _ => {}
        }
        for (i, kind) in [SlotKind::Map, SlotKind::Reduce].into_iter().enumerate() {
            let index = self.candidate_index_mut(kind);
            match (was_candidate[i], now_candidate[i]) {
                (false, true) => {
                    let pos = index.partition_point(|&a| a < id);
                    index.insert(pos, id);
                }
                (true, false) => {
                    let pos = index
                        .binary_search(&id)
                        .expect("candidate index out of sync");
                    index.remove(pos);
                }
                _ => {}
            }
        }
    }

    /// All registered jobs, dense by id (`jobs()[i].id == JobId(i)`).
    pub fn jobs(&self) -> &[JobEntry] {
        &self.jobs
    }

    /// The entry of a registered job.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unregistered.
    pub fn job(&self, id: JobId) -> &JobEntry {
        &self.jobs[id.index()]
    }

    /// Ids of active jobs (submitted, not complete), sorted ascending.
    pub fn active_ids(&self) -> &[JobId] {
        &self.active
    }

    /// Entries of active jobs in ascending id order — the candidate list
    /// schedulers iterate at every slot offer, borrow-only.
    pub fn active(&self) -> impl Iterator<Item = &JobEntry> + '_ {
        self.active.iter().map(move |&id| &self.jobs[id.index()])
    }

    /// Number of active jobs.
    pub fn num_active(&self) -> usize {
        self.active.len()
    }

    /// Ids of active jobs with pending work of `kind`, sorted ascending.
    /// Equivalent to filtering [`active_ids`](ClusterState::active_ids) on
    /// `pending(kind) > 0`, but maintained incrementally so decision paths
    /// never scan jobs that have nothing to offer a `kind` slot.
    pub fn candidate_ids(&self, kind: SlotKind) -> &[JobId] {
        match kind {
            SlotKind::Map => &self.candidate_maps,
            SlotKind::Reduce => &self.candidate_reduces,
        }
    }

    /// Entries of active jobs with pending work of `kind`, in ascending id
    /// order — the shared candidate slice every scheduler iterates at a
    /// `kind` slot offer, borrow-only. Identical membership and order to
    /// `active().filter(|j| j.pending(kind) > 0)`.
    pub fn candidates(&self, kind: SlotKind) -> impl Iterator<Item = &JobEntry> + '_ {
        self.candidate_ids(kind)
            .iter()
            .map(move |&id| &self.jobs[id.index()])
    }

    /// Pending tasks of `kind` summed over active jobs.
    pub fn pending_total(&self, kind: SlotKind) -> u64 {
        match kind {
            SlotKind::Map => self.pending_map_total,
            SlotKind::Reduce => self.pending_reduce_total,
        }
    }

    /// Occupied slots summed over all jobs (running task attempts,
    /// including speculative losers of already-finished jobs).
    pub fn running_total(&self) -> u64 {
        self.running_total
    }

    /// The group intern table.
    pub fn groups(&self) -> &GroupTable {
        &self.groups
    }

    /// Interns a group label (see [`GroupTable::intern`]).
    pub fn intern_group(&mut self, label: &str) -> GroupId {
        self.groups.intern(label)
    }

    /// Oracle constructor for the property suite: derives the active
    /// index, the group table and every aggregate total by full scan of
    /// per-job snapshots, sharing none of the incremental bookkeeping.
    ///
    /// `entries` must be dense by id; `labels` carries each job's group
    /// label in the same order (ids are re-interned in first-seen order,
    /// which matches the live table because [`register`] interns in the
    /// same job order).
    ///
    /// # Panics
    ///
    /// Panics if `entries` and `labels` disagree in length, if ids are not
    /// dense, or if a re-derived group id contradicts the entry's.
    ///
    /// [`register`]: ClusterState::register
    pub fn rebuild_from_scratch(entries: Vec<JobEntry>, labels: &[String]) -> ClusterState {
        assert_eq!(entries.len(), labels.len());
        let mut groups = GroupTable::new();
        for (i, (entry, label)) in entries.iter().zip(labels).enumerate() {
            assert_eq!(entry.id.index(), i, "job ids must be dense");
            let group = groups.intern(label);
            assert_eq!(
                group, entry.group,
                "group id of {} diverges from first-seen intern order",
                entry.id
            );
        }
        let active: Vec<JobId> = entries
            .iter()
            .filter(|e| e.is_active())
            .map(|e| e.id)
            .collect();
        debug_assert!(active.windows(2).all(|w| w[0] < w[1]));
        let candidate = |kind: SlotKind| -> Vec<JobId> {
            entries
                .iter()
                .filter(|e| Self::is_candidate(e, kind))
                .map(|e| e.id)
                .collect()
        };
        let candidate_maps = candidate(SlotKind::Map);
        let candidate_reduces = candidate(SlotKind::Reduce);
        let pending_map_total = entries
            .iter()
            .filter(|e| e.is_active())
            .map(|e| u64::from(e.pending_maps))
            .sum();
        let pending_reduce_total = entries
            .iter()
            .filter(|e| e.is_active())
            .map(|e| u64::from(e.pending_reduces))
            .sum();
        let running_total = entries.iter().map(|e| u64::from(e.slots_occupied)).sum();
        ClusterState {
            jobs: entries,
            active,
            candidate_maps,
            candidate_reduces,
            groups,
            pending_map_total,
            pending_reduce_total,
            running_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    fn entry(id: u64, group: GroupId) -> JobEntry {
        JobEntry {
            id: JobId(id),
            group,
            pending_maps: 3,
            pending_reduces: 0,
            slots_occupied: 0,
            completed_tasks: 0,
            total_tasks: 4,
            submitted_at: SimTime::ZERO + SimDuration::from_secs(id),
            submitted: false,
            finished: false,
        }
    }

    fn two_job_state() -> ClusterState {
        let mut s = ClusterState::new();
        let g = s.intern_group("Grep-S");
        s.insert(entry(0, g));
        s.insert(entry(1, g));
        s
    }

    #[test]
    fn submission_activates_and_counts() {
        let mut s = two_job_state();
        assert_eq!(s.num_active(), 0);
        assert_eq!(s.pending_total(SlotKind::Map), 0);
        s.update(JobId(1), |e| e.submitted = true);
        assert_eq!(s.active_ids(), &[JobId(1)]);
        assert_eq!(s.pending_total(SlotKind::Map), 3);
        // A lower id arriving later lands *before* in the active order.
        s.update(JobId(0), |e| e.submitted = true);
        assert_eq!(s.active_ids(), &[JobId(0), JobId(1)]);
        assert_eq!(s.pending_total(SlotKind::Map), 6);
    }

    #[test]
    fn start_and_complete_update_totals() {
        let mut s = two_job_state();
        s.update(JobId(0), |e| e.submitted = true);
        s.update(JobId(0), |e| {
            e.pending_maps -= 1;
            e.slots_occupied += 1;
        });
        assert_eq!(s.pending_total(SlotKind::Map), 2);
        assert_eq!(s.running_total(), 1);
        s.update(JobId(0), |e| {
            e.slots_occupied -= 1;
            e.completed_tasks += 1;
        });
        assert_eq!(s.running_total(), 0);
        assert_eq!(s.job(JobId(0)).completed_tasks, 1);
    }

    #[test]
    fn finished_job_leaves_active_but_keeps_running_slots() {
        let mut s = two_job_state();
        s.update(JobId(0), |e| e.submitted = true);
        // Completes with one speculative-loser attempt still running.
        s.update(JobId(0), |e| {
            e.pending_maps = 0;
            e.pending_reduces = 0;
            e.completed_tasks = 4;
            e.slots_occupied = 1;
            e.finished = true;
        });
        assert_eq!(s.num_active(), 0);
        assert_eq!(s.pending_total(SlotKind::Map), 0);
        assert_eq!(s.running_total(), 1);
        // The loser drains after completion: a post-finish update must not
        // disturb the (empty) active index.
        s.update(JobId(0), |e| e.slots_occupied = 0);
        assert_eq!(s.running_total(), 0);
    }

    #[test]
    fn candidate_slices_track_pending_work_per_kind() {
        let mut s = two_job_state();
        assert!(s.candidate_ids(SlotKind::Map).is_empty());
        s.update(JobId(1), |e| e.submitted = true);
        s.update(JobId(0), |e| e.submitted = true);
        // Both have pending maps, neither has eligible reduces.
        assert_eq!(s.candidate_ids(SlotKind::Map), &[JobId(0), JobId(1)]);
        assert!(s.candidate_ids(SlotKind::Reduce).is_empty());
        // Job 0 drains its maps and clears reduce slow-start.
        s.update(JobId(0), |e| {
            e.pending_maps = 0;
            e.pending_reduces = 1;
        });
        assert_eq!(s.candidate_ids(SlotKind::Map), &[JobId(1)]);
        assert_eq!(s.candidate_ids(SlotKind::Reduce), &[JobId(0)]);
        // The slices agree with the filtered active view.
        for kind in [SlotKind::Map, SlotKind::Reduce] {
            let filtered: Vec<JobId> = s
                .active()
                .filter(|j| j.pending(kind) > 0)
                .map(|j| j.id)
                .collect();
            let sliced: Vec<JobId> = s.candidates(kind).map(|j| j.id).collect();
            assert_eq!(sliced, filtered);
        }
        // Finishing removes the job from every index.
        s.update(JobId(0), |e| {
            e.pending_reduces = 0;
            e.finished = true;
        });
        assert!(s.candidate_ids(SlotKind::Reduce).is_empty());
    }

    #[test]
    fn active_iterates_entries_in_id_order() {
        let mut s = two_job_state();
        s.update(JobId(1), |e| e.submitted = true);
        s.update(JobId(0), |e| e.submitted = true);
        let ids: Vec<JobId> = s.active().map(|e| e.id).collect();
        assert_eq!(ids, vec![JobId(0), JobId(1)]);
    }

    #[test]
    fn register_interns_groups_and_seeds_pending() {
        use workload::{Benchmark, JobSpec, SizeClass};
        let mut s = ClusterState::new();
        let spec = JobSpec::new(JobId(0), Benchmark::grep(), 5, 2, SimTime::ZERO)
            .with_size_class(SizeClass::Medium);
        s.register(&spec);
        let e = s.job(JobId(0));
        assert_eq!(s.groups().name(e.group), "Grep-M");
        assert_eq!(e.pending_maps, 5);
        assert_eq!(e.pending_reduces, 0, "reduces gated until slow-start");
        assert_eq!(e.total_tasks, 7);
        assert!(!e.submitted);
    }

    #[test]
    #[should_panic(expected = "job ids must be dense")]
    fn non_dense_insert_rejected() {
        let mut s = ClusterState::new();
        let g = s.intern_group("Grep-S");
        s.insert(entry(1, g));
    }

    #[test]
    fn oracle_rebuild_matches_incremental() {
        let mut s = two_job_state();
        s.update(JobId(1), |e| e.submitted = true);
        s.update(JobId(1), |e| {
            e.pending_maps -= 1;
            e.slots_occupied += 1;
        });
        s.update(JobId(0), |e| e.submitted = true);
        let labels: Vec<String> = s
            .jobs()
            .iter()
            .map(|e| s.groups().name(e.group).to_owned())
            .collect();
        let oracle = ClusterState::rebuild_from_scratch(s.jobs().to_vec(), &labels);
        assert_eq!(s, oracle);
    }
}
