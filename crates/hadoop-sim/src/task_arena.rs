//! Per-task attempt state for the paths that read it.
//!
//! Speculation scans the tasks with a running attempt; fault injection asks
//! whether a task still has a live attempt and how often it has failed.
//! Nothing else reads attempt state, so the engine builds a [`TaskArena`]
//! only when speculation or fault injection is configured. The arena holds
//! an entry only for a task with something to record — an attempt in
//! flight or a failure behind it — so its size follows the work in flight,
//! not the number of submitted tasks.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use cluster::MachineId;
use simcore::SimTime;
use workload::TaskId;

/// Maximum concurrent attempts per task: the original plus at most one
/// speculative copy (Hadoop 1.x launches a single backup; the engine's
/// speculation policies only clone tasks with exactly one running attempt).
pub const MAX_ATTEMPTS: usize = 2;

/// Multiply-rotate hashing (the FxHash step) for task ids. On a
/// fault-heavy run (the `faults/moderate_msd12_fair` bench workload, about
/// 30 000 registry operations; best of 200 runs on a 2-core Xeon) an
/// id-ordered `BTreeMap` was about 24 % slower than a dense per-task array,
/// a `HashMap` with std's SipHash about 12 %, and one with this hasher about
/// 3 %.
#[derive(Debug, Default)]
struct TaskHasher(u64);

impl Hasher for TaskHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

type TaskMap<V> = HashMap<TaskId, V, BuildHasherDefault<TaskHasher>>;

/// One task's in-flight attempts in launch order.
#[derive(Debug, Clone, Copy)]
struct Attempts {
    /// `(machine, started_at)` per attempt; index 0 is the oldest.
    list: [(MachineId, SimTime); MAX_ATTEMPTS],
    len: u8,
}

impl Attempts {
    fn as_slice(&self) -> &[(MachineId, SimTime)] {
        &self.list[..self.len as usize]
    }
}

/// Attempt registry: in-flight attempts and failed-attempt counts per task.
///
/// Tasks with a running attempt live in one map, whose entry for a task
/// goes when its last attempt ends; failure counts live in a second map
/// with an entry for each task that has failed at least once.
/// [`TaskArena::inflight`] lists the running tasks in no particular order.
///
/// # Examples
///
/// ```
/// use hadoop_sim::TaskArena;
/// use cluster::{MachineId, SlotKind};
/// use simcore::SimTime;
/// use workload::{JobId, TaskId, TaskIndex};
///
/// let mut arena = TaskArena::default();
/// let task = TaskId {
///     job: JobId(0),
///     task: TaskIndex { kind: SlotKind::Map, index: 2 },
/// };
/// arena.push_attempt(task, MachineId(3), SimTime::ZERO);
/// assert_eq!(arena.attempts(task), &[(MachineId(3), SimTime::ZERO)]);
/// assert!(arena.has_live_attempt(task));
/// assert_eq!(arena.inflight().map(|(t, _)| t).collect::<Vec<_>>(), vec![task]);
/// arena.remove_attempt(task, MachineId(3));
/// assert!(!arena.has_live_attempt(task));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TaskArena {
    inflight: TaskMap<Attempts>,
    failures: TaskMap<u32>,
}

impl TaskArena {
    /// The in-flight attempts of `task`, oldest first.
    pub fn attempts(&self, task: TaskId) -> &[(MachineId, SimTime)] {
        self.inflight.get(&task).map_or(&[], Attempts::as_slice)
    }

    /// Whether `task` has at least one in-flight attempt.
    pub fn has_live_attempt(&self, task: TaskId) -> bool {
        self.inflight.contains_key(&task)
    }

    /// Records a new in-flight attempt of `task` on `machine`.
    ///
    /// # Panics
    ///
    /// Debug-asserts the [`MAX_ATTEMPTS`] bound; in release an overflowing
    /// attempt is dropped from the registry (the engine never launches a
    /// third concurrent attempt).
    pub fn push_attempt(&mut self, task: TaskId, machine: MachineId, at: SimTime) {
        let entry = self.inflight.entry(task).or_insert(Attempts {
            list: [(MachineId(0), SimTime::ZERO); MAX_ATTEMPTS],
            len: 0,
        });
        let len = entry.len as usize;
        debug_assert!(
            len < MAX_ATTEMPTS,
            "more than {MAX_ATTEMPTS} concurrent attempts of {task}"
        );
        if len < MAX_ATTEMPTS {
            entry.list[len] = (machine, at);
            entry.len += 1;
        }
    }

    /// Removes the in-flight attempt of `task` running on `machine`, if
    /// any, preserving the launch order of the rest.
    pub fn remove_attempt(&mut self, task: TaskId, machine: MachineId) {
        let Some(entry) = self.inflight.get_mut(&task) else {
            return;
        };
        let len = entry.len as usize;
        let Some(pos) = entry.list[..len].iter().position(|&(m, _)| m == machine) else {
            return;
        };
        if len == 1 {
            self.inflight.remove(&task);
        } else {
            entry.list.copy_within(pos + 1..len, pos);
            entry.len -= 1;
        }
    }

    /// Failed-attempt count of `task` (crashes and injected failures).
    pub fn failures(&self, task: TaskId) -> u32 {
        self.failures.get(&task).copied().unwrap_or(0)
    }

    /// Counts one failed attempt of `task`.
    pub fn record_failure(&mut self, task: TaskId) {
        *self.failures.entry(task).or_insert(0) += 1;
    }

    /// Tasks with at least one in-flight attempt and those attempts, in no
    /// particular order.
    pub fn inflight(&self) -> impl Iterator<Item = (TaskId, &[(MachineId, SimTime)])> + '_ {
        self.inflight.iter().map(|(&t, a)| (t, a.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::SlotKind;
    use workload::{JobId, TaskIndex};

    fn task(job: u64, kind: SlotKind, index: u32) -> TaskId {
        TaskId {
            job: JobId(job),
            task: TaskIndex { kind, index },
        }
    }

    #[test]
    fn map_and_reduce_slots_do_not_alias() {
        let mut a = TaskArena::default();
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
        let mut a = TaskArena::default();
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
        assert_eq!(a.inflight().count(), 0);
    }

    #[test]
    fn inflight_lists_every_running_task() {
        let mut a = TaskArena::default();
        let tasks = [
            task(1, SlotKind::Reduce, 0),
            task(0, SlotKind::Map, 3),
            task(1, SlotKind::Map, 2),
            task(0, SlotKind::Reduce, 1),
        ];
        for (i, &t) in tasks.iter().enumerate() {
            a.push_attempt(t, MachineId(i), SimTime::ZERO);
        }
        a.remove_attempt(tasks[1], MachineId(1));
        let mut listed: Vec<(TaskId, Vec<(MachineId, SimTime)>)> =
            a.inflight().map(|(t, list)| (t, list.to_vec())).collect();
        listed.sort();
        let mut expected: Vec<(TaskId, Vec<(MachineId, SimTime)>)> = [0, 2, 3]
            .into_iter()
            .map(|i| (tasks[i], vec![(MachineId(i), SimTime::ZERO)]))
            .collect();
        expected.sort();
        assert_eq!(listed, expected);
    }
}
