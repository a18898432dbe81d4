//! Internal per-job bookkeeping for the JobTracker.

use std::collections::VecDeque;

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
/// allocation rather than one per block, as 32-bit machine indices. The
/// default holds no block and no allocation: the state of a job whose
/// blocks were released.
#[derive(Debug, Clone, Default)]
struct BlockReplicas {
    machines: Vec<u32>,
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

    /// Appends one block's replicas.
    fn push_block(&mut self, replicas: &[MachineId]) {
        self.machines.extend(
            replicas
                .iter()
                .map(|m| u32::try_from(m.index()).expect("machine indices fit u32")),
        );
        let end = u32::try_from(self.machines.len()).expect("a job's replicas fit u32 offsets");
        self.offsets.push(end);
    }

    /// Places `maps` blocks with `placer`, one per map task.
    fn place(fleet: &Fleet, maps: u32, placer: &mut BlockPlacer, rng: &mut SimRng) -> Self {
        let maps = maps as usize;
        let replication = placer.replication().min(fleet.len());
        let mut packed = Self::with_capacity(maps, maps * replication);
        let mut block = Vec::with_capacity(replication);
        for _ in 0..maps {
            block.clear();
            placer.place_into(fleet, rng, &mut block);
            packed.push_block(&block);
        }
        packed
    }

    /// Packs explicitly placed blocks, one per map task.
    fn from_blocks(blocks: &[Block]) -> Self {
        let replicas = blocks.iter().map(|b| b.replicas.len()).sum();
        let mut packed = Self::with_capacity(blocks.len(), replicas);
        for block in blocks {
            packed.push_block(&block.replicas);
        }
        packed
    }

    /// Number of blocks.
    fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The machine indices holding map `index`'s input block.
    fn get(&self, index: u32) -> &[u32] {
        let i = index as usize;
        &self.machines[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// The machines of packed replica indices.
fn machine_ids(replicas: &[u32]) -> impl ExactSizeIterator<Item = MachineId> + Clone + '_ {
    replicas.iter().map(|&m| MachineId(m as usize))
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

/// The pending map tasks of one job and the locality index over their
/// input blocks.
///
/// For every machine and every rack the index counts the pending blocks
/// with a replica there, so [`PendingMaps::best_map_locality`] is two
/// array reads instead of a scan over every pending block — the dominant
/// per-offer cost on large fleets. The counts are freed while no map is
/// pending and rebuilt when one is returned.
///
/// # Examples
///
/// ```
/// use cluster::hdfs::{Block, BlockId, Locality};
/// use cluster::{Fleet, MachineId};
/// use hadoop_sim::PendingMaps;
///
/// let fleet = Fleet::builder()
///     .add(cluster::profiles::desktop(), 8)
///     .rack_size(4)
///     .build()
///     .unwrap();
/// let block = Block { id: BlockId(0), replicas: vec![MachineId(1)] };
/// let mut maps = PendingMaps::new(&fleet, &[block]);
/// assert_eq!(maps.best_map_locality(&fleet, MachineId(2)), Some(Locality::RackLocal));
/// assert_eq!(maps.take_map_for(&fleet, MachineId(5)), Some((0, Locality::Remote)));
/// assert_eq!(maps.best_map_locality(&fleet, MachineId(1)), None);
/// maps.return_map(&fleet, 0);
/// assert_eq!(maps.best_map_locality(&fleet, MachineId(1)), Some(Locality::NodeLocal));
/// ```
///
/// The default holds no block and allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct PendingMaps {
    /// Input block replicas of each map task (index-aligned).
    blocks: BlockReplicas,
    pending: Vec<u32>,
    /// Pending blocks with a replica on each machine, by machine index.
    node_replicas: Vec<u32>,
    /// Pending blocks with a replica in each rack, by rack index (racks
    /// deduplicated per block).
    rack_replicas: Vec<u32>,
}

impl PendingMaps {
    /// Indexes explicitly placed blocks, one per map task, all pending.
    pub fn new(fleet: &Fleet, blocks: &[Block]) -> Self {
        Self::with_blocks(fleet, BlockReplicas::from_blocks(blocks))
    }

    /// Places `maps` blocks with `placer`, one per map task, all pending.
    pub fn place(fleet: &Fleet, maps: u32, placer: &mut BlockPlacer, rng: &mut SimRng) -> Self {
        Self::with_blocks(fleet, BlockReplicas::place(fleet, maps, placer, rng))
    }

    fn with_blocks(fleet: &Fleet, blocks: BlockReplicas) -> Self {
        let mut maps = PendingMaps {
            pending: (0..blocks.len() as u32).collect(),
            blocks,
            node_replicas: Vec::new(),
            rack_replicas: Vec::new(),
        };
        for idx in 0..maps.blocks.len() as u32 {
            maps.track_block(fleet, idx, true);
        }
        maps
    }

    /// Adds (`add`) or removes the replica counts of map `idx`'s block as
    /// it enters or leaves the pending queue. Machines and racks are
    /// deduplicated per block so a block counts each location once. The
    /// first block added while the counts are freed reallocates them.
    fn track_block(&mut self, fleet: &Fleet, idx: u32, add: bool) {
        if add && self.node_replicas.is_empty() {
            self.node_replicas = vec![0; fleet.len()];
            self.rack_replicas = vec![0; fleet.num_racks()];
        }
        let bump = |count: &mut u32| {
            if add {
                *count += 1;
            } else {
                *count -= 1;
            }
        };
        let replicas = self.blocks.get(idx);
        for (i, &replica) in replicas.iter().enumerate() {
            let prior = &replicas[..i];
            if !prior.contains(&replica) {
                bump(&mut self.node_replicas[replica as usize]);
            }
            let replica = MachineId(replica as usize);
            if let Ok(rack) = fleet.rack_of(replica) {
                if locality(fleet, machine_ids(prior), replica) == Locality::Remote {
                    bump(&mut self.rack_replicas[rack.0]);
                }
            }
        }
    }

    /// Number of pending map tasks.
    pub fn len(&self) -> u32 {
        self.pending.len() as u32
    }

    /// Whether no map task is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The pending map task indices, in queue order.
    pub fn pending(&self) -> &[u32] {
        &self.pending
    }

    /// The machines holding map `index`'s input block.
    pub fn replicas(&self, index: u32) -> impl ExactSizeIterator<Item = MachineId> + Clone + '_ {
        machine_ids(self.blocks.get(index))
    }

    /// The best locality any pending map task would have on `machine`, or
    /// `None` when none is pending. The class is exactly the fold of
    /// [`locality`] over the pending blocks: NodeLocal beats RackLocal
    /// beats Remote, and [`locality`] assigns NodeLocal iff a replica lives
    /// on `machine` and RackLocal iff one shares its rack.
    pub fn best_map_locality(&self, fleet: &Fleet, machine: MachineId) -> Option<Locality> {
        if self.pending.is_empty() {
            return None;
        }
        Some(self.best_locality_class(fleet, machine))
    }

    /// The locality class the replica counts prove for `machine`, assuming
    /// pending maps exist.
    fn best_locality_class(&self, fleet: &Fleet, machine: MachineId) -> Locality {
        let held = |counts: &[u32], i: usize| counts.get(i).is_some_and(|&c| c > 0);
        if held(&self.node_replicas, machine.index()) {
            return Locality::NodeLocal;
        }
        if let Ok(rack) = fleet.rack_of(machine) {
            if held(&self.rack_replicas, rack.0) {
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
        if self.pending.is_empty() {
            return None;
        }
        let best_loc = self.best_locality_class(fleet, machine);
        let best_pos = match best_loc {
            Locality::Remote => 0,
            class => self
                .pending
                .iter()
                .position(|&idx| locality(fleet, self.replicas(idx), machine) == class)
                .expect("replica counts name a pending block"),
        };
        let idx = self.pending.swap_remove(best_pos);
        if self.pending.is_empty() {
            self.node_replicas = Vec::new();
            self.rack_replicas = Vec::new();
        } else {
            self.track_block(fleet, idx, false);
        }
        Some((idx, best_loc))
    }

    /// Returns map `index` to the pending queue (assignment failed, or its
    /// output was lost).
    pub fn return_map(&mut self, fleet: &Fleet, index: u32) {
        self.pending.push(index);
        self.track_block(fleet, index, true);
    }
}

/// Panic message of a block read on a job whose blocks are not placed.
const UNPLACED: &str = "a job's blocks are placed at its arrival";

/// JobTracker-side state of one submitted job.
///
/// The block state — the map queue with its input blocks and locality
/// counts, and the reduce queue — lives only while the job is in flight:
/// the engine places the blocks at the job's arrival, and the winning
/// completion of the job's last task frees them. In a run where nothing
/// reads a started map again, the map queue and blocks go earlier, when
/// the last pending map starts ([`JobState::release_drained_maps`]). What stays for a
/// complete job is its spec, counters and `finished` bits, which a
/// speculative loser arriving later still reads.
#[derive(Debug, Clone)]
pub(crate) struct JobState {
    pub spec: JobSpec,
    /// Pending map tasks and their input blocks' locality index; `None`
    /// until the job's blocks are placed.
    maps: Option<PendingMaps>,
    pending_reduces: VecDeque<u32>,
    /// Tasks some attempt has completed: maps, then reduces.
    finished: [TaskBits; 2],
    pub running_tasks: u32,
    pub completed_maps: u32,
    pub completed_reduces: u32,
    pub first_task_at: Option<SimTime>,
    pub finished_at: Option<SimTime>,
}

impl JobState {
    /// A job whose blocks are placed later, through [`JobState::place`].
    pub fn new(spec: JobSpec) -> Self {
        let pending_reduces = (0..spec.num_reduces()).collect();
        let finished = [
            TaskBits::new(spec.num_maps()),
            TaskBits::new(spec.num_reduces()),
        ];
        JobState {
            spec,
            maps: None,
            pending_reduces,
            finished,
            running_tasks: 0,
            completed_maps: 0,
            completed_reduces: 0,
            first_task_at: None,
            finished_at: None,
        }
    }

    /// Installs the job's placed input blocks, one per map task, all
    /// pending.
    pub fn place(&mut self, maps: PendingMaps) {
        debug_assert!(self.maps.is_none(), "a job's blocks are placed once");
        debug_assert_eq!(maps.len(), self.spec.num_maps());
        self.maps = Some(maps);
    }

    /// Whether the job's blocks are placed (or were, before completion
    /// released them).
    pub fn is_placed(&self) -> bool {
        self.maps.is_some()
    }

    /// The pending map tasks and their blocks.
    ///
    /// # Panics
    ///
    /// Panics if the job's blocks are not placed yet.
    pub fn maps(&self) -> &PendingMaps {
        self.maps.as_ref().expect(UNPLACED)
    }

    /// Mutable [`JobState::maps`], with the same panic.
    pub fn maps_mut(&mut self) -> &mut PendingMaps {
        self.maps.as_mut().expect(UNPLACED)
    }

    /// Frees the map queue and the input block replicas once no map is
    /// pending. Only for a run in which nothing reads a started map again
    /// ([`EngineConfig::revisits_started_tasks`](crate::EngineConfig::revisits_started_tasks)
    /// is false): a later [`PendingMaps::return_map`],
    /// [`JobState::lose_map_output`] or backup-locality read would find no
    /// block.
    pub fn release_drained_maps(&mut self) {
        if self.maps.as_ref().is_some_and(PendingMaps::is_empty) {
            self.maps = Some(PendingMaps::default());
        }
    }

    /// Pending map tasks. A job whose blocks are not placed yet has every
    /// map pending.
    pub fn pending_maps(&self) -> u32 {
        self.maps
            .as_ref()
            .map_or(self.spec.num_maps(), PendingMaps::len)
    }

    /// Heap bytes of the map state: block replicas and offsets, the map
    /// queue and its replica counts.
    #[cfg(test)]
    pub fn map_state_bytes(&self) -> usize {
        self.maps.as_ref().map_or(0, |m| {
            (m.blocks.machines.capacity()
                + m.blocks.offsets.capacity()
                + m.pending.capacity()
                + m.node_replicas.capacity()
                + m.rack_replicas.capacity())
                * std::mem::size_of::<u32>()
        })
    }

    /// Heap bytes of the block state: the map state and the reduce queue.
    #[cfg(test)]
    pub fn block_state_bytes(&self) -> usize {
        self.map_state_bytes() + self.pending_reduces.capacity() * std::mem::size_of::<u32>()
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

    /// Removes and returns the next pending reduce task, if eligible.
    pub fn take_reduce(&mut self, slowstart: f64) -> Option<u32> {
        if !self.reduces_eligible(slowstart) {
            return None;
        }
        self.pending_reduces.pop_front()
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
            // Completion is final: nothing takes, returns or locates a
            // task of a complete job again.
            self.maps = Some(PendingMaps::default());
            self.pending_reduces = VecDeque::new();
        }
        true
    }

    /// Whether `(kind, index)` has already been completed by some attempt.
    pub fn is_task_finished(&self, kind: SlotKind, index: u32) -> bool {
        self.finished[kind_ix(kind)].contains(index)
    }

    /// Releases the running-slot count of an attempt that failed without
    /// finishing its task (random failure or machine crash). The task
    /// itself is re-queued separately via [`PendingMaps::return_map`] /
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
            self.maps_mut().return_map(fleet, index);
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

    fn placed(spec: JobSpec, fleet: &Fleet, blocks: &[Block]) -> JobState {
        let mut j = JobState::new(spec);
        j.place(PendingMaps::new(fleet, blocks));
        j
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
        placed(spec, &fleet(), &blocks)
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
        let (idx, loc) = j.maps_mut().take_map_for(&f, MachineId(3)).unwrap();
        assert_eq!(idx, 3);
        assert_eq!(loc, Locality::NodeLocal);
        assert_eq!(j.maps().len(), 7);
        // Taking again for machine 3: block gone, next best is rack-local
        // (machines 0..3 are rack 0).
        let (_, loc) = j.maps_mut().take_map_for(&f, MachineId(3)).unwrap();
        assert_eq!(loc, Locality::RackLocal);
    }

    #[test]
    fn best_map_locality_matches_take() {
        let f = fleet();
        let j = job(8, 0);
        assert_eq!(
            j.maps().best_map_locality(&f, MachineId(5)),
            Some(Locality::NodeLocal)
        );
        let empty = job(1, 0);
        // Machine 7 is in rack 1; block 0 lives on machine 0 (rack 0).
        assert_eq!(
            empty.maps().best_map_locality(&f, MachineId(7)),
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
        let mut j = placed(spec, &f, &blocks);
        let scan = |j: &JobState, machine: MachineId| {
            j.maps()
                .pending()
                .iter()
                .map(|&idx| locality(&f, j.maps().replicas(idx), machine))
                .min_by_key(|l| match l {
                    Locality::NodeLocal => 0,
                    Locality::RackLocal => 1,
                    Locality::Remote => 2,
                })
        };
        let check_all = |j: &JobState| {
            for m in 0..8 {
                assert_eq!(
                    j.maps().best_map_locality(&f, MachineId(m)),
                    scan(j, MachineId(m))
                );
            }
        };
        check_all(&j);
        let (taken, loc) = j.maps_mut().take_map_for(&f, MachineId(2)).unwrap();
        assert_eq!(loc, Locality::NodeLocal);
        check_all(&j);
        j.maps_mut().return_map(&f, taken);
        check_all(&j);
        while j.maps_mut().take_map_for(&f, MachineId(0)).is_some() {
            check_all(&j);
        }
        assert_eq!(j.maps().best_map_locality(&f, MachineId(0)), None);
    }

    #[test]
    fn returned_tasks_are_reassignable() {
        let f = fleet();
        let mut j = job(2, 1);
        let (idx, _) = j.maps_mut().take_map_for(&f, MachineId(0)).unwrap();
        j.maps_mut().return_map(&f, idx);
        assert_eq!(j.maps().len(), 2);
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
        let (idx, _) = j.maps_mut().take_map_for(&f, MachineId(0)).unwrap();
        j.note_task_started(SimTime::ZERO);
        j.note_task_completed(SimTime::from_secs(1), SlotKind::Map, idx);
        assert_eq!(j.completed_maps, 1);
        j.lose_map_output(&f, idx, true);
        assert_eq!(j.completed_maps, 0);
        assert_eq!(j.maps().len(), 4);
        assert!(!j.is_task_finished(SlotKind::Map, idx));
        // Re-execution wins again.
        j.note_task_started(SimTime::from_secs(2));
        assert!(j.note_task_completed(SimTime::from_secs(3), SlotKind::Map, idx));
    }

    #[test]
    fn failed_attempts_release_the_running_count() {
        let f = fleet();
        let mut j = job(2, 0);
        let (idx, _) = j.maps_mut().take_map_for(&f, MachineId(0)).unwrap();
        j.note_task_started(SimTime::ZERO);
        assert_eq!(j.running_tasks, 1);
        j.note_task_failed();
        assert_eq!(j.running_tasks, 0);
        j.maps_mut().return_map(&f, idx);
        assert_eq!(j.maps().len(), 2);
        assert_eq!(j.phase(), JobPhase::Running);
    }

    #[test]
    fn completion_releases_the_block_state() {
        let f = fleet();
        let mut j = job(3, 2);
        while let Some((idx, _)) = j.maps_mut().take_map_for(&f, MachineId(0)) {
            j.note_task_started(SimTime::ZERO);
            j.note_task_completed(SimTime::from_secs(1), SlotKind::Map, idx);
        }
        while let Some(r) = j.take_reduce(1.0) {
            j.note_task_started(SimTime::ZERO);
            j.note_task_completed(SimTime::from_secs(2), SlotKind::Reduce, r);
        }
        assert!(j.is_complete());
        assert_eq!(j.block_state_bytes(), 0);
        assert_eq!(j.pending_maps(), 0);
        // A speculative loser of the last task only reads the bits.
        j.note_task_started(SimTime::from_secs(2));
        assert!(!j.note_task_completed(SimTime::from_secs(3), SlotKind::Map, 0));
        assert!(j.is_task_finished(SlotKind::Map, 0));
    }

    #[test]
    fn exhausted_maps_return_none() {
        let f = fleet();
        let mut j = job(1, 0);
        assert!(j.maps_mut().take_map_for(&f, MachineId(0)).is_some());
        assert!(j.maps_mut().take_map_for(&f, MachineId(0)).is_none());
        assert_eq!(j.maps().best_map_locality(&f, MachineId(0)), None);
    }
}
