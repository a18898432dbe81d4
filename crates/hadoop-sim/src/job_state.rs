//! Internal per-job bookkeeping for the JobTracker.

use std::collections::{BTreeMap, VecDeque};

use simcore::{SimRng, SimTime};

use cluster::hdfs::{locality, Block, BlockPlacer, Locality};
use cluster::{Fleet, MachineId, SlotKind};
use workload::JobSpec;

use crate::engine::kind_ix;

/// Lifecycle phase of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Submitted; no task has started yet.
    Waiting,
    /// At least one task started; not all tasks finished.
    Running,
    /// All tasks finished.
    Completed,
}

/// The input-block replicas of every map task of one job, packed into one
/// allocation rather than one per block.
#[derive(Debug, Clone)]
pub(crate) struct BlockReplicas {
    machines: Vec<MachineId>,
    /// Map `i`'s replicas are `machines[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
}

impl BlockReplicas {
    fn with_capacity(maps: usize, replicas: usize) -> Self {
        let mut offsets = Vec::with_capacity(maps + 1);
        offsets.push(0);
        BlockReplicas {
            machines: Vec::with_capacity(replicas),
            offsets,
        }
    }

    /// Closes the block whose replicas were appended since the last one.
    fn end_block(&mut self) {
        let end = u32::try_from(self.machines.len()).expect("a job's replicas fit u32 offsets");
        self.offsets.push(end);
    }

    /// Places `maps` blocks with `placer`, one per map task.
    pub fn place(fleet: &Fleet, maps: u32, placer: &mut BlockPlacer, rng: &mut SimRng) -> Self {
        let maps = maps as usize;
        let mut packed = Self::with_capacity(maps, maps * placer.replication().min(fleet.len()));
        for _ in 0..maps {
            placer.place_into(fleet, rng, &mut packed.machines);
            packed.end_block();
        }
        packed
    }

    /// Packs explicitly placed blocks, one per map task.
    pub fn from_blocks(blocks: &[Block]) -> Self {
        let replicas = blocks.iter().map(|b| b.replicas.len()).sum();
        let mut packed = Self::with_capacity(blocks.len(), replicas);
        for block in blocks {
            packed.machines.extend_from_slice(&block.replicas);
            packed.end_block();
        }
        packed
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The machines holding map `index`'s input block.
    pub fn get(&self, index: u32) -> &[MachineId] {
        let i = index as usize;
        &self.machines[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// One bit per task index of one slot kind.
#[derive(Debug, Clone)]
struct TaskBits(Vec<u64>);

impl TaskBits {
    fn new(tasks: u32) -> Self {
        TaskBits(vec![0; (tasks as usize).div_ceil(64)])
    }

    fn contains(&self, index: u32) -> bool {
        self.0[index as usize / 64] & (1 << (index % 64)) != 0
    }

    /// Sets `index`'s bit; returns whether it was clear.
    fn insert(&mut self, index: u32) -> bool {
        let fresh = !self.contains(index);
        self.0[index as usize / 64] |= 1 << (index % 64);
        fresh
    }

    /// Clears `index`'s bit; returns whether it was set.
    fn remove(&mut self, index: u32) -> bool {
        let was = self.contains(index);
        self.0[index as usize / 64] &= !(1 << (index % 64));
        was
    }
}

/// JobTracker-side state of one submitted job.
#[derive(Debug, Clone)]
pub(crate) struct JobState {
    pub spec: JobSpec,
    /// Input block replicas of each map task (index-aligned).
    pub blocks: BlockReplicas,
    pending_maps: Vec<u32>,
    pending_reduces: VecDeque<u32>,
    /// Pending map blocks with a replica on each machine (machine index →
    /// block count, entries removed at zero). With its rack-level sibling
    /// this makes [`JobState::best_map_locality`] two map probes instead of
    /// a scan over every pending block — the dominant per-offer cost on
    /// large fleets.
    node_replicas: BTreeMap<usize, u32>,
    /// Pending map blocks with a replica in each rack (rack index → block
    /// count, racks deduplicated per block).
    rack_replicas: BTreeMap<usize, u32>,
    /// Tasks some attempt has completed: maps, then reduces.
    finished: [TaskBits; 2],
    pub running_tasks: u32,
    pub completed_maps: u32,
    pub completed_reduces: u32,
    pub first_task_at: Option<SimTime>,
    pub finished_at: Option<SimTime>,
}

impl JobState {
    pub fn new(fleet: &Fleet, spec: JobSpec, blocks: BlockReplicas) -> Self {
        debug_assert_eq!(blocks.len(), spec.num_maps() as usize);
        let pending_maps: Vec<u32> = (0..spec.num_maps()).collect();
        let pending_reduces = (0..spec.num_reduces()).collect();
        let finished = [
            TaskBits::new(spec.num_maps()),
            TaskBits::new(spec.num_reduces()),
        ];
        let mut state = JobState {
            spec,
            blocks,
            pending_maps,
            pending_reduces,
            node_replicas: BTreeMap::new(),
            rack_replicas: BTreeMap::new(),
            finished,
            running_tasks: 0,
            completed_maps: 0,
            completed_reduces: 0,
            first_task_at: None,
            finished_at: None,
        };
        for idx in 0..state.blocks.len() as u32 {
            state.track_block(fleet, idx, true);
        }
        state
    }

    /// Adds (`add`) or removes the replica counts of map `idx`'s block as
    /// it enters or leaves the pending queue. Machines and racks are
    /// deduplicated per block so a block counts each location once.
    fn track_block(&mut self, fleet: &Fleet, idx: u32, add: bool) {
        let replicas = self.blocks.get(idx);
        let bump = |map: &mut BTreeMap<usize, u32>, key: usize| {
            if add {
                *map.entry(key).or_insert(0) += 1;
            } else {
                let count = map.get_mut(&key).expect("tracked replica count");
                *count -= 1;
                if *count == 0 {
                    map.remove(&key);
                }
            }
        };
        for (i, &replica) in replicas.iter().enumerate() {
            let prior = &replicas[..i];
            if !prior.contains(&replica) {
                bump(&mut self.node_replicas, replica.index());
            }
            if let Ok(rack) = fleet.rack_of(replica) {
                if !prior
                    .iter()
                    .any(|&r| fleet.rack_of(r).is_ok_and(|x| x == rack))
                {
                    bump(&mut self.rack_replicas, rack.0);
                }
            }
        }
    }

    pub fn phase(&self) -> JobPhase {
        if self.is_complete() {
            JobPhase::Completed
        } else if self.first_task_at.is_some() {
            JobPhase::Running
        } else {
            JobPhase::Waiting
        }
    }

    pub fn is_complete(&self) -> bool {
        self.completed_maps == self.spec.num_maps()
            && self.completed_reduces == self.spec.num_reduces()
    }

    pub fn completed_tasks(&self) -> u32 {
        self.completed_maps + self.completed_reduces
    }

    pub fn pending_maps(&self) -> u32 {
        self.pending_maps.len() as u32
    }

    /// Reduce tasks become eligible once `slowstart` of the maps finished.
    pub fn reduces_eligible(&self, slowstart: f64) -> bool {
        if self.spec.num_reduces() == 0 {
            return false;
        }
        self.completed_maps as f64 >= slowstart * self.spec.num_maps() as f64
    }

    pub fn pending_reduces(&self, slowstart: f64) -> u32 {
        if self.reduces_eligible(slowstart) {
            self.pending_reduces.len() as u32
        } else {
            0
        }
    }

    /// The best locality any pending map task would have on `machine` —
    /// two replica-count probes instead of a pending-queue scan. The class
    /// is exactly the scan's fold: NodeLocal beats RackLocal beats Remote,
    /// and [`locality`] assigns NodeLocal iff a replica lives on `machine`
    /// and RackLocal iff one shares its rack.
    pub fn best_map_locality(&self, fleet: &Fleet, machine: MachineId) -> Option<Locality> {
        if self.pending_maps.is_empty() {
            return None;
        }
        Some(self.best_locality_class(fleet, machine))
    }

    /// The locality class the replica counts prove for `machine`, assuming
    /// pending maps exist.
    fn best_locality_class(&self, fleet: &Fleet, machine: MachineId) -> Locality {
        if self.node_replicas.contains_key(&machine.index()) {
            return Locality::NodeLocal;
        }
        if let Ok(rack) = fleet.rack_of(machine) {
            if self.rack_replicas.contains_key(&rack.0) {
                return Locality::RackLocal;
            }
        }
        Locality::Remote
    }

    /// Removes and returns the pending map task with the best locality on
    /// `machine`, together with its locality level.
    ///
    /// The replica counts name the best achievable class up front; the
    /// queue scan then only needs the *first* pending block of that class —
    /// the same block the strict-upgrade scan it replaces settled on — and
    /// Remote picks position 0 without scanning at all.
    pub fn take_map_for(&mut self, fleet: &Fleet, machine: MachineId) -> Option<(u32, Locality)> {
        if self.pending_maps.is_empty() {
            return None;
        }
        let best_loc = self.best_locality_class(fleet, machine);
        let best_pos = match best_loc {
            Locality::Remote => 0,
            class => self
                .pending_maps
                .iter()
                .position(|&idx| locality(fleet, self.blocks.get(idx), machine) == class)
                .expect("replica counts name a pending block"),
        };
        let idx = self.pending_maps.swap_remove(best_pos);
        self.track_block(fleet, idx, false);
        Some((idx, best_loc))
    }

    /// Removes and returns the next pending reduce task, if eligible.
    pub fn take_reduce(&mut self, slowstart: f64) -> Option<u32> {
        if !self.reduces_eligible(slowstart) {
            return None;
        }
        self.pending_reduces.pop_front()
    }

    /// Returns a map task to the pending queue (assignment failed).
    pub fn return_map(&mut self, fleet: &Fleet, index: u32) {
        self.pending_maps.push(index);
        self.track_block(fleet, index, true);
    }

    /// Returns a reduce task to the pending queue (assignment failed).
    pub fn return_reduce(&mut self, index: u32) {
        self.pending_reduces.push_front(index);
    }

    pub fn note_task_started(&mut self, now: SimTime) {
        self.running_tasks += 1;
        if self.first_task_at.is_none() {
            self.first_task_at = Some(now);
        }
    }

    /// Marks an attempt of `(kind, index)` finished. Returns `true` for
    /// the winning (first) attempt; later (speculative-loser) attempts
    /// return `false` and only release their running-slot count.
    pub fn note_task_completed(&mut self, now: SimTime, kind: SlotKind, index: u32) -> bool {
        debug_assert!(self.running_tasks > 0);
        self.running_tasks -= 1;
        if !self.finished[kind_ix(kind)].insert(index) {
            return false;
        }
        match kind {
            SlotKind::Map => self.completed_maps += 1,
            SlotKind::Reduce => self.completed_reduces += 1,
        }
        if self.is_complete() {
            self.finished_at = Some(now);
        }
        true
    }

    /// Whether `(kind, index)` has already been completed by some attempt.
    pub fn is_task_finished(&self, kind: SlotKind, index: u32) -> bool {
        self.finished[kind_ix(kind)].contains(index)
    }

    /// Releases the running-slot count of an attempt that failed without
    /// finishing its task (random failure or machine crash). The task
    /// itself is re-queued separately via [`JobState::return_map`] /
    /// [`JobState::return_reduce`] when no other attempt remains.
    pub fn note_task_failed(&mut self) {
        debug_assert!(self.running_tasks > 0);
        self.running_tasks -= 1;
    }

    /// Reverts a *completed* map task to pending after its output was lost
    /// with a dead machine (Hadoop re-executes such maps: their output
    /// lives on the TaskTracker's local disk, not in HDFS). When `requeue`
    /// is false the task is only un-finished — a still-running duplicate
    /// attempt will re-complete it.
    pub fn lose_map_output(&mut self, fleet: &Fleet, index: u32, requeue: bool) {
        let removed = self.finished[kind_ix(SlotKind::Map)].remove(index);
        debug_assert!(removed, "map output loss of an unfinished task");
        debug_assert!(self.completed_maps > 0);
        self.completed_maps -= 1;
        if requeue {
            self.pending_maps.push(index);
            self.track_block(fleet, index, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::hdfs::BlockId;
    use cluster::profiles;
    use workload::{Benchmark, JobId};

    fn fleet() -> Fleet {
        Fleet::builder()
            .add(profiles::desktop(), 8)
            .rack_size(4)
            .build()
            .unwrap()
    }

    fn job(num_maps: u32, num_reduces: u32) -> JobState {
        let spec = JobSpec::new(
            JobId(0),
            Benchmark::wordcount(),
            num_maps,
            num_reduces,
            SimTime::ZERO,
        );
        // Map i's block lives on machine i % 8.
        let blocks: Vec<Block> = (0..num_maps)
            .map(|i| Block {
                id: BlockId(i as u64),
                replicas: vec![MachineId(i as usize % 8)],
            })
            .collect();
        JobState::new(&fleet(), spec, BlockReplicas::from_blocks(&blocks))
    }

    #[test]
    fn phases_progress() {
        let mut j = job(2, 1);
        assert_eq!(j.phase(), JobPhase::Waiting);
        j.note_task_started(SimTime::ZERO);
        assert_eq!(j.phase(), JobPhase::Running);
        j.note_task_completed(SimTime::from_secs(1), SlotKind::Map, 0);
        j.note_task_started(SimTime::from_secs(1));
        j.note_task_completed(SimTime::from_secs(2), SlotKind::Map, 1);
        j.note_task_started(SimTime::from_secs(2));
        j.note_task_completed(SimTime::from_secs(3), SlotKind::Reduce, 0);
        assert_eq!(j.phase(), JobPhase::Completed);
        assert_eq!(j.finished_at, Some(SimTime::from_secs(3)));
    }

    #[test]
    fn slowstart_gates_reduces() {
        let mut j = job(10, 2);
        assert!(!j.reduces_eligible(0.8));
        assert_eq!(j.pending_reduces(0.8), 0);
        assert!(j.take_reduce(0.8).is_none());
        for i in 0..8 {
            j.note_task_started(SimTime::ZERO);
            j.note_task_completed(SimTime::from_secs(i), SlotKind::Map, i as u32);
        }
        assert!(j.reduces_eligible(0.8));
        assert_eq!(j.pending_reduces(0.8), 2);
        assert_eq!(j.take_reduce(0.8), Some(0));
    }

    #[test]
    fn map_only_job_has_no_eligible_reduces() {
        let j = job(4, 0);
        assert!(!j.reduces_eligible(0.1));
    }

    #[test]
    fn take_map_prefers_local() {
        let f = fleet();
        let mut j = job(8, 0);
        // Machine 3's block is map index 3.
        let (idx, loc) = j.take_map_for(&f, MachineId(3)).unwrap();
        assert_eq!(idx, 3);
        assert_eq!(loc, Locality::NodeLocal);
        assert_eq!(j.pending_maps(), 7);
        // Taking again for machine 3: block gone, next best is rack-local
        // (machines 0..3 are rack 0).
        let (_, loc) = j.take_map_for(&f, MachineId(3)).unwrap();
        assert_eq!(loc, Locality::RackLocal);
    }

    #[test]
    fn best_map_locality_matches_take() {
        let f = fleet();
        let j = job(8, 0);
        assert_eq!(
            j.best_map_locality(&f, MachineId(5)),
            Some(Locality::NodeLocal)
        );
        let empty = job(1, 0);
        // Machine 7 is in rack 1; block 0 lives on machine 0 (rack 0).
        assert_eq!(
            empty.best_map_locality(&f, MachineId(7)),
            Some(Locality::Remote)
        );
    }

    #[test]
    fn replica_counts_match_scan_under_churn() {
        // Multi-replica blocks spanning racks, with takes and returns in
        // between: the count-derived class must always equal the brute
        // scan over pending blocks the counts replaced.
        let f = fleet();
        let spec = JobSpec::new(JobId(0), Benchmark::wordcount(), 6, 0, SimTime::ZERO);
        let blocks: Vec<Block> = (0..6u64)
            .map(|i| Block {
                id: BlockId(i),
                replicas: vec![
                    MachineId(i as usize % 8),
                    MachineId((i as usize + 1) % 8),
                    MachineId((i as usize + 4) % 8),
                ],
            })
            .collect();
        let mut j = JobState::new(&f, spec, BlockReplicas::from_blocks(&blocks));
        let scan = |j: &JobState, machine: MachineId| {
            j.pending_maps
                .iter()
                .map(|&idx| locality(&f, j.blocks.get(idx), machine))
                .min_by_key(|l| match l {
                    Locality::NodeLocal => 0,
                    Locality::RackLocal => 1,
                    Locality::Remote => 2,
                })
        };
        let check_all = |j: &JobState| {
            for m in 0..8 {
                assert_eq!(j.best_map_locality(&f, MachineId(m)), scan(j, MachineId(m)));
            }
        };
        check_all(&j);
        let (taken, loc) = j.take_map_for(&f, MachineId(2)).unwrap();
        assert_eq!(loc, Locality::NodeLocal);
        check_all(&j);
        j.return_map(&f, taken);
        check_all(&j);
        while j.take_map_for(&f, MachineId(0)).is_some() {
            check_all(&j);
        }
        assert_eq!(j.best_map_locality(&f, MachineId(0)), None);
    }

    #[test]
    fn returned_tasks_are_reassignable() {
        let f = fleet();
        let mut j = job(2, 1);
        let (idx, _) = j.take_map_for(&f, MachineId(0)).unwrap();
        j.return_map(&f, idx);
        assert_eq!(j.pending_maps(), 2);
        for i in 0..2 {
            j.note_task_started(SimTime::ZERO);
            j.note_task_completed(SimTime::from_secs(i), SlotKind::Map, i as u32);
        }
        let r = j.take_reduce(1.0).unwrap();
        j.return_reduce(r);
        assert_eq!(j.pending_reduces(1.0), 1);
    }

    #[test]
    fn lost_map_outputs_revert_to_pending() {
        let f = fleet();
        let mut j = job(4, 2);
        let (idx, _) = j.take_map_for(&f, MachineId(0)).unwrap();
        j.note_task_started(SimTime::ZERO);
        j.note_task_completed(SimTime::from_secs(1), SlotKind::Map, idx);
        assert_eq!(j.completed_maps, 1);
        j.lose_map_output(&f, idx, true);
        assert_eq!(j.completed_maps, 0);
        assert_eq!(j.pending_maps(), 4);
        assert!(!j.is_task_finished(SlotKind::Map, idx));
        // Re-execution wins again.
        j.note_task_started(SimTime::from_secs(2));
        assert!(j.note_task_completed(SimTime::from_secs(3), SlotKind::Map, idx));
    }

    #[test]
    fn failed_attempts_release_the_running_count() {
        let f = fleet();
        let mut j = job(2, 0);
        let (idx, _) = j.take_map_for(&f, MachineId(0)).unwrap();
        j.note_task_started(SimTime::ZERO);
        assert_eq!(j.running_tasks, 1);
        j.note_task_failed();
        assert_eq!(j.running_tasks, 0);
        j.return_map(&f, idx);
        assert_eq!(j.pending_maps(), 2);
        assert_eq!(j.phase(), JobPhase::Running);
    }

    #[test]
    fn exhausted_maps_return_none() {
        let f = fleet();
        let mut j = job(1, 0);
        assert!(j.take_map_for(&f, MachineId(0)).is_some());
        assert!(j.take_map_for(&f, MachineId(0)).is_none());
        assert_eq!(j.best_map_locality(&f, MachineId(0)), None);
    }
}
