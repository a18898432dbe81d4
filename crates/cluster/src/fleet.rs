//! The cluster fleet: machines, racks and homogeneous sub-clusters.

use std::collections::BTreeMap;
use std::fmt;

use simcore::SimTime;

use crate::{ClusterError, Machine, MachineId, MachineProfile};

/// Identifier of a rack in the cluster topology.
///
/// Racks matter only for data locality: a task reading a block from another
/// machine in the same rack is "rack-local", anything else is "remote"
/// (Hadoop's classic three-level locality).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RackId(pub usize);

impl fmt::Display for RackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rack{}", self.0)
    }
}

/// A maximal set of machines sharing one hardware profile.
///
/// E-Ant's machine-level exchange (§IV-D) averages pheromone updates across
/// exactly these groups; the JobTracker learns the grouping from hardware
/// information in TaskTracker heartbeats, which the fleet models directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HomogeneousGroup {
    /// The shared profile name.
    pub profile_name: String,
    /// Members of the group.
    pub members: Vec<MachineId>,
}

/// The set of machines making up the simulated cluster.
///
/// # Examples
///
/// Build the paper's 16-node evaluation fleet and inspect its groups:
///
/// ```
/// use cluster::Fleet;
///
/// let fleet = Fleet::paper_evaluation();
/// assert_eq!(fleet.len(), 16);
/// let groups = fleet.homogeneous_groups();
/// assert_eq!(groups.len(), 6);
/// let desktops = groups.iter().find(|g| g.profile_name == "Desktop").unwrap();
/// assert_eq!(desktops.members.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct Fleet {
    machines: Vec<Machine>,
    /// Machines per rack: machine `i` lives in rack `i / rack_size`.
    rack_size: usize,
    /// Slot capacities summed once at build time: profiles are fixed after
    /// construction, and schedulers read the pool size on every decision.
    map_slot_total: usize,
    reduce_slot_total: usize,
}

impl Fleet {
    /// Starts building a fleet.
    pub fn builder() -> FleetBuilder {
        FleetBuilder::new()
    }

    /// The paper's §V-B evaluation cluster: 8 Desktops, 3 T110, 2 T420,
    /// 1 T320, 1 T620 and 1 Atom (16 slave nodes, 4 map + 2 reduce slots
    /// each). The master node is not modeled — it does not execute tasks.
    pub fn paper_evaluation() -> Fleet {
        Fleet::builder()
            .add(crate::profiles::desktop(), 8)
            .add(crate::profiles::t110(), 3)
            .add(crate::profiles::t420(), 2)
            .add(crate::profiles::t320(), 1)
            .add(crate::profiles::t620(), 1)
            .add(crate::profiles::atom(), 1)
            .build()
            .expect("paper fleet is non-empty")
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Whether the fleet is empty (never true for a built fleet).
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// All machine ids, in dense order.
    pub fn ids(&self) -> impl Iterator<Item = MachineId> + '_ {
        (0..self.machines.len()).map(MachineId)
    }

    /// Borrows a machine.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownMachine`] for out-of-range ids.
    pub fn machine(&self, id: MachineId) -> Result<&Machine, ClusterError> {
        self.machines
            .get(id.index())
            .ok_or(ClusterError::UnknownMachine(id.index()))
    }

    /// Mutably borrows a machine.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownMachine`] for out-of-range ids.
    pub fn machine_mut(&mut self, id: MachineId) -> Result<&mut Machine, ClusterError> {
        self.machines
            .get_mut(id.index())
            .ok_or(ClusterError::UnknownMachine(id.index()))
    }

    /// Iterates over all machines.
    pub fn iter(&self) -> impl Iterator<Item = &Machine> {
        self.machines.iter()
    }

    /// Iterates mutably over all machines.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Machine> {
        self.machines.iter_mut()
    }

    /// The rack housing `id`.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownMachine`] for out-of-range ids.
    pub fn rack_of(&self, id: MachineId) -> Result<RackId, ClusterError> {
        if id.index() < self.len() {
            Ok(RackId(id.index() / self.rack_size))
        } else {
            Err(ClusterError::UnknownMachine(id.index()))
        }
    }

    /// The contiguous id range of the rack holding `id`: racks are dense
    /// blocks of `rack_size` ids, the last one cut short by the fleet's
    /// end. Out-of-range ids yield an empty range.
    pub fn rack_span(&self, id: MachineId) -> std::ops::Range<usize> {
        match self.rack_of(id) {
            Ok(RackId(r)) => r * self.rack_size..((r + 1) * self.rack_size).min(self.len()),
            Err(_) => 0..0,
        }
    }

    /// Number of racks; rack ids are dense in `0..num_racks()`.
    pub fn num_racks(&self) -> usize {
        self.len().div_ceil(self.rack_size)
    }

    /// Whether two machines share a rack.
    pub fn same_rack(&self, a: MachineId, b: MachineId) -> bool {
        match (self.rack_of(a), self.rack_of(b)) {
            (Ok(ra), Ok(rb)) => ra == rb,
            _ => false,
        }
    }

    /// Groups machines into homogeneous sub-clusters by profile name, in
    /// first-appearance order.
    pub fn homogeneous_groups(&self) -> Vec<HomogeneousGroup> {
        let mut order: Vec<String> = Vec::new();
        let mut groups: BTreeMap<String, Vec<MachineId>> = BTreeMap::new();
        for m in &self.machines {
            let name = m.profile().name().to_owned();
            if !groups.contains_key(&name) {
                order.push(name.clone());
            }
            groups.entry(name).or_default().push(m.id());
        }
        order
            .into_iter()
            .map(|name| HomogeneousGroup {
                members: groups.remove(&name).unwrap_or_default(),
                profile_name: name,
            })
            .collect()
    }

    /// The group index of each machine, aligned with
    /// [`Fleet::homogeneous_groups`]. Useful as a dense lookup table.
    pub fn group_index(&self) -> Vec<usize> {
        let groups = self.homogeneous_groups();
        let mut idx = vec![0usize; self.machines.len()];
        for (gi, g) in groups.iter().enumerate() {
            for &m in &g.members {
                idx[m.index()] = gi;
            }
        }
        idx
    }

    /// Total map slots across the fleet.
    pub fn total_map_slots(&self) -> usize {
        self.map_slot_total
    }

    /// Total reduce slots across the fleet.
    pub fn total_reduce_slots(&self) -> usize {
        self.reduce_slot_total
    }

    /// Total slots across the fleet (`S_pool` in the paper's Eq. 7 for a
    /// single-user system).
    pub fn total_slots(&self) -> usize {
        self.total_map_slots() + self.total_reduce_slots()
    }

    /// Advances every machine's energy meter to `now`. Call at measurement
    /// boundaries.
    pub fn sync_all(&mut self, now: SimTime) {
        for m in &mut self.machines {
            m.sync(now);
        }
    }

    /// Total ground-truth energy across the fleet, in joules.
    pub fn total_energy_joules(&self) -> f64 {
        self.machines.iter().map(|m| m.meter().total_joules()).sum()
    }
}

/// Incremental builder for a [`Fleet`].
///
/// Machines are assigned dense ids in insertion order and distributed over
/// racks round-robin in blocks of `rack_size` (default 8, a common
/// top-of-rack switch fan-in).
#[derive(Debug)]
pub struct FleetBuilder {
    entries: Vec<MachineProfile>,
    rack_size: usize,
}

impl FleetBuilder {
    fn new() -> Self {
        FleetBuilder {
            entries: Vec::new(),
            rack_size: 8,
        }
    }

    /// Adds `count` machines of the given profile.
    pub fn add(mut self, profile: MachineProfile, count: usize) -> Self {
        for _ in 0..count {
            self.entries.push(profile.clone());
        }
        self
    }

    /// Sets how many machines share a rack.
    ///
    /// # Panics
    ///
    /// Panics if `rack_size` is zero.
    pub fn rack_size(mut self, rack_size: usize) -> Self {
        assert!(rack_size > 0, "rack size must be positive");
        self.rack_size = rack_size;
        self
    }

    /// Finalizes the fleet.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::EmptyFleet`] if no machines were added.
    pub fn build(self) -> Result<Fleet, ClusterError> {
        if self.entries.is_empty() {
            return Err(ClusterError::EmptyFleet);
        }
        let rack_size = self.rack_size;
        let machines: Vec<Machine> = self
            .entries
            .into_iter()
            .enumerate()
            .map(|(i, p)| Machine::new(MachineId(i), p))
            .collect();
        let map_slot_total = machines.iter().map(|m| m.profile().map_slots()).sum();
        let reduce_slot_total = machines.iter().map(|m| m.profile().reduce_slots()).sum();
        Ok(Fleet {
            machines,
            rack_size,
            map_slot_total,
            reduce_slot_total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn builder_assigns_dense_ids() {
        let fleet = Fleet::builder()
            .add(profiles::desktop(), 3)
            .build()
            .unwrap();
        let ids: Vec<usize> = fleet.ids().map(MachineId::index).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(fleet.machine(MachineId(2)).unwrap().id(), MachineId(2));
    }

    #[test]
    fn empty_fleet_rejected() {
        assert_eq!(
            Fleet::builder().build().unwrap_err(),
            ClusterError::EmptyFleet
        );
    }

    #[test]
    fn unknown_machine_rejected() {
        let mut fleet = Fleet::builder().add(profiles::atom(), 1).build().unwrap();
        assert!(fleet.machine(MachineId(5)).is_err());
        assert!(fleet.machine_mut(MachineId(5)).is_err());
        assert!(fleet.rack_of(MachineId(5)).is_err());
    }

    #[test]
    fn paper_fleet_composition() {
        let fleet = Fleet::paper_evaluation();
        assert_eq!(fleet.len(), 16);
        assert_eq!(fleet.total_map_slots(), 64);
        assert_eq!(fleet.total_reduce_slots(), 32);
        assert_eq!(fleet.total_slots(), 96);
        let groups = fleet.homogeneous_groups();
        let sizes: Vec<(String, usize)> = groups
            .iter()
            .map(|g| (g.profile_name.clone(), g.members.len()))
            .collect();
        assert_eq!(
            sizes,
            vec![
                ("Desktop".to_owned(), 8),
                ("T110".to_owned(), 3),
                ("T420".to_owned(), 2),
                ("T320".to_owned(), 1),
                ("T620".to_owned(), 1),
                ("Atom".to_owned(), 1),
            ]
        );
    }

    #[test]
    fn group_index_aligns_with_groups() {
        let fleet = Fleet::paper_evaluation();
        let groups = fleet.homogeneous_groups();
        let idx = fleet.group_index();
        for (gi, g) in groups.iter().enumerate() {
            for &m in &g.members {
                assert_eq!(idx[m.index()], gi);
            }
        }
    }

    #[test]
    fn racks_partition_round_robin_blocks() {
        let fleet = Fleet::builder()
            .add(profiles::desktop(), 10)
            .rack_size(4)
            .build()
            .unwrap();
        assert_eq!(fleet.rack_of(MachineId(0)).unwrap(), RackId(0));
        assert_eq!(fleet.rack_of(MachineId(3)).unwrap(), RackId(0));
        assert_eq!(fleet.rack_of(MachineId(4)).unwrap(), RackId(1));
        assert_eq!(fleet.rack_of(MachineId(9)).unwrap(), RackId(2));
        assert!(fleet.same_rack(MachineId(0), MachineId(3)));
        assert!(!fleet.same_rack(MachineId(3), MachineId(4)));
        assert!(!fleet.same_rack(MachineId(0), MachineId(99)));
    }

    #[test]
    fn rack_arithmetic_with_a_short_last_rack() {
        // 10 machines in racks of 4: {0..3}, {4..7}, {8, 9}.
        let fleet = Fleet::builder()
            .add(profiles::desktop(), 10)
            .rack_size(4)
            .build()
            .unwrap();
        assert_eq!(fleet.num_racks(), 3);
        let spans = [0..4, 0..4, 0..4, 0..4, 4..8, 4..8, 4..8, 4..8, 8..10, 8..10];
        for (i, want) in spans.into_iter().enumerate() {
            assert_eq!(fleet.rack_span(MachineId(i)), want, "machine {i}");
            assert_eq!(fleet.rack_of(MachineId(i)).unwrap(), RackId(i / 4));
        }
        assert_eq!(fleet.rack_span(MachineId(10)), 0..0);
        assert!(fleet.rack_of(MachineId(10)).is_err());
        // Every machine's span holds exactly the machines of its rack.
        for m in fleet.ids() {
            let rack = fleet.rack_of(m).unwrap();
            let members: Vec<usize> = fleet
                .ids()
                .filter(|&o| fleet.rack_of(o).unwrap() == rack)
                .map(MachineId::index)
                .collect();
            assert_eq!(members, fleet.rack_span(m).collect::<Vec<_>>());
        }
        let one = Fleet::builder().add(profiles::atom(), 3).build().unwrap();
        assert_eq!(one.num_racks(), 1);
        assert_eq!(one.rack_span(MachineId(2)), 0..3);
    }

    #[test]
    fn energy_sums_over_machines() {
        use crate::SlotKind;
        let mut fleet = Fleet::builder()
            .add(profiles::desktop(), 2)
            .build()
            .unwrap();
        fleet
            .machine_mut(MachineId(0))
            .unwrap()
            .occupy(SimTime::ZERO, SlotKind::Map, 8.0)
            .unwrap();
        fleet.sync_all(SimTime::from_secs(10));
        // Machine 0 at 160 W, machine 1 idle at 40 W, for 10 s.
        assert!((fleet.total_energy_joules() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn rackid_display() {
        assert_eq!(RackId(2).to_string(), "rack2");
    }

    #[test]
    #[should_panic(expected = "rack size must be positive")]
    fn zero_rack_size_panics() {
        let _ = Fleet::builder().rack_size(0);
    }
}
