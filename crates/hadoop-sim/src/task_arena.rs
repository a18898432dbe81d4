//! Dense per-task attempt state.
//!
//! The engine used to keep attempt registries in `BTreeMap`s keyed by
//! [`TaskId`] — one tree node allocation plus an O(log tasks) descent per
//! start, completion and failure. At paper scale (87 jobs) that is noise; at
//! 10 000 jobs × 64 tasks it dominates the fault bookkeeping. The arena
//! replaces those maps with flat vectors indexed by a per-job base offset:
//! every lookup is two array reads, and one run allocates exactly one slot
//! per task up front.

use std::collections::BTreeSet;

use cluster::{MachineId, SlotKind};
use simcore::SimTime;
use workload::TaskId;

/// Maximum concurrent attempts per task: the original plus at most one
/// speculative copy (Hadoop 1.x launches a single backup; the engine's
/// speculation policies only clone tasks with exactly one running attempt).
pub const MAX_ATTEMPTS: usize = 2;

/// One task's attempt state: in-flight attempts in launch order plus the
/// failed-attempt count that caps fault injection retries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSlot {
    /// `(machine, started_at)` per in-flight attempt; index 0 is the oldest.
    attempts: [(MachineId, SimTime); MAX_ATTEMPTS],
    len: u8,
    failures: u32,
}

impl Default for TaskSlot {
    fn default() -> Self {
        TaskSlot {
            attempts: [(MachineId(0), SimTime::ZERO); MAX_ATTEMPTS],
            len: 0,
            failures: 0,
        }
    }
}

/// Flat per-task attempt registry for every submitted job.
///
/// Jobs register in id order ([`TaskArena::register_job`]); a task's slot
/// lives at `base[job] + index` for maps and `base[job] + num_maps + index`
/// for reduces. When in-flight tracking is enabled (speculation needs to
/// scan running attempts), the arena additionally maintains an id-ordered
/// set of tasks with at least one attempt — iteration order is identical to
/// the key order of the `BTreeMap<TaskId, _>` registry it replaces.
///
/// # Examples
///
/// ```
/// use hadoop_sim::TaskArena;
/// use cluster::{MachineId, SlotKind};
/// use simcore::SimTime;
/// use workload::{JobId, TaskId, TaskIndex};
///
/// let mut arena = TaskArena::new(true);
/// arena.register_job(4, 1);
/// let task = TaskId {
///     job: JobId(0),
///     task: TaskIndex { kind: SlotKind::Map, index: 2 },
/// };
/// arena.push_attempt(task, MachineId(3), SimTime::ZERO);
/// assert_eq!(arena.attempts(task), &[(MachineId(3), SimTime::ZERO)]);
/// assert!(arena.has_live_attempt(task));
/// assert_eq!(arena.inflight_tasks().collect::<Vec<_>>(), vec![task]);
/// arena.remove_attempt(task, MachineId(3));
/// assert!(!arena.has_live_attempt(task));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TaskArena {
    /// First slot index of each job's tasks.
    base: Vec<u32>,
    /// Map count per job (the reduce slots start after the maps).
    num_maps: Vec<u32>,
    slots: Vec<TaskSlot>,
    /// Tasks with at least one in-flight attempt, in `TaskId` order — the
    /// speculation scan's iteration set. `None` when no consumer iterates
    /// (speculation off), so the common path pays nothing for it.
    inflight: Option<BTreeSet<TaskId>>,
}

impl TaskArena {
    /// Creates an empty arena. With `track_inflight`, the arena maintains
    /// the id-ordered in-flight task set behind
    /// [`TaskArena::inflight_tasks`].
    pub fn new(track_inflight: bool) -> Self {
        TaskArena {
            base: Vec::new(),
            num_maps: Vec::new(),
            slots: Vec::new(),
            inflight: track_inflight.then(BTreeSet::new),
        }
    }

    /// Reserves room for `jobs` more jobs with `tasks` tasks between them.
    pub fn reserve(&mut self, jobs: usize, tasks: usize) {
        self.base.reserve(jobs);
        self.num_maps.reserve(jobs);
        self.slots.reserve(tasks);
    }

    /// Registers the next job's tasks. Jobs must register densely in id
    /// order, matching the engine's submission invariant.
    pub fn register_job(&mut self, num_maps: u32, num_reduces: u32) {
        self.base.push(self.slots.len() as u32);
        self.num_maps.push(num_maps);
        self.slots.extend(std::iter::repeat_n(
            TaskSlot::default(),
            (num_maps + num_reduces) as usize,
        ));
    }

    /// Number of registered jobs.
    pub fn jobs(&self) -> usize {
        self.base.len()
    }

    fn slot_index(&self, task: TaskId) -> usize {
        let ji = task.job.index();
        let offset = match task.task.kind {
            SlotKind::Map => task.task.index,
            SlotKind::Reduce => self.num_maps[ji] + task.task.index,
        };
        (self.base[ji] + offset) as usize
    }

    /// The in-flight attempts of `task`, oldest first.
    ///
    /// # Panics
    ///
    /// Panics if the task's job was never registered (all lookups do).
    pub fn attempts(&self, task: TaskId) -> &[(MachineId, SimTime)] {
        let slot = &self.slots[self.slot_index(task)];
        &slot.attempts[..slot.len as usize]
    }

    /// Whether `task` has at least one in-flight attempt.
    pub fn has_live_attempt(&self, task: TaskId) -> bool {
        self.slots[self.slot_index(task)].len > 0
    }

    /// Records a new in-flight attempt of `task` on `machine`.
    ///
    /// # Panics
    ///
    /// Debug-asserts the [`MAX_ATTEMPTS`] bound; in release an overflowing
    /// attempt is dropped from the registry (the engine never launches a
    /// third concurrent attempt).
    pub fn push_attempt(&mut self, task: TaskId, machine: MachineId, at: SimTime) {
        let ix = self.slot_index(task);
        let slot = &mut self.slots[ix];
        debug_assert!(
            (slot.len as usize) < MAX_ATTEMPTS,
            "more than {MAX_ATTEMPTS} concurrent attempts of {task}"
        );
        if (slot.len as usize) < MAX_ATTEMPTS {
            slot.attempts[slot.len as usize] = (machine, at);
            slot.len += 1;
        }
        if let Some(set) = &mut self.inflight {
            set.insert(task);
        }
    }

    /// Removes the in-flight attempt of `task` running on `machine`, if
    /// any, preserving the launch order of the rest.
    pub fn remove_attempt(&mut self, task: TaskId, machine: MachineId) {
        let ix = self.slot_index(task);
        let slot = &mut self.slots[ix];
        let len = slot.len as usize;
        let Some(pos) = slot.attempts[..len].iter().position(|&(m, _)| m == machine) else {
            return;
        };
        slot.attempts.copy_within(pos + 1..len, pos);
        slot.len -= 1;
        if slot.len == 0 {
            if let Some(set) = &mut self.inflight {
                set.remove(&task);
            }
        }
    }

    /// Failed-attempt count of `task` (crashes and injected failures).
    pub fn failures(&self, task: TaskId) -> u32 {
        self.slots[self.slot_index(task)].failures
    }

    /// Counts one failed attempt of `task`.
    pub fn record_failure(&mut self, task: TaskId) {
        let ix = self.slot_index(task);
        self.slots[ix].failures += 1;
    }

    /// Tasks with at least one in-flight attempt, in `TaskId` order.
    ///
    /// # Panics
    ///
    /// Panics if the arena was created without in-flight tracking.
    pub fn inflight_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.inflight
            .as_ref()
            .expect("arena was created without in-flight tracking")
            .iter()
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{JobId, TaskIndex};

    fn task(job: u64, kind: SlotKind, index: u32) -> TaskId {
        TaskId {
            job: JobId(job),
            task: TaskIndex { kind, index },
        }
    }

    #[test]
    fn map_and_reduce_slots_do_not_alias() {
        let mut a = TaskArena::new(false);
        a.register_job(2, 2);
        a.register_job(3, 1);
        let m = task(0, SlotKind::Map, 1);
        let r = task(0, SlotKind::Reduce, 1);
        let other = task(1, SlotKind::Map, 0);
        a.push_attempt(m, MachineId(5), SimTime::ZERO);
        assert!(a.has_live_attempt(m));
        assert!(!a.has_live_attempt(r));
        assert!(!a.has_live_attempt(other));
        a.record_failure(r);
        assert_eq!(a.failures(r), 1);
        assert_eq!(a.failures(m), 0);
    }

    #[test]
    fn removal_preserves_launch_order() {
        let mut a = TaskArena::new(true);
        a.register_job(1, 0);
        let t = task(0, SlotKind::Map, 0);
        a.push_attempt(t, MachineId(1), SimTime::ZERO);
        a.push_attempt(t, MachineId(2), SimTime::from_secs(5));
        assert_eq!(a.attempts(t).len(), 2);
        // Removing the oldest leaves the speculative copy as the new front.
        a.remove_attempt(t, MachineId(1));
        assert_eq!(a.attempts(t), &[(MachineId(2), SimTime::from_secs(5))]);
        // Removing a machine that runs nothing is a no-op.
        a.remove_attempt(t, MachineId(9));
        assert!(a.has_live_attempt(t));
        a.remove_attempt(t, MachineId(2));
        assert_eq!(a.inflight_tasks().count(), 0);
    }

    #[test]
    fn inflight_iterates_in_task_id_order() {
        let mut a = TaskArena::new(true);
        a.register_job(4, 2);
        a.register_job(4, 2);
        let tasks = [
            task(1, SlotKind::Reduce, 0),
            task(0, SlotKind::Map, 3),
            task(1, SlotKind::Map, 2),
            task(0, SlotKind::Reduce, 1),
        ];
        for (i, &t) in tasks.iter().enumerate() {
            a.push_attempt(t, MachineId(i), SimTime::ZERO);
        }
        let mut expected: Vec<TaskId> = tasks.to_vec();
        expected.sort();
        assert_eq!(a.inflight_tasks().collect::<Vec<_>>(), expected);
    }
}
