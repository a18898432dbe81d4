//! HDFS-style block placement and data locality.
//!
//! Hadoop job performance depends heavily on whether a map task reads its
//! input block from the local disk, from another node in the same rack, or
//! across racks. The paper exploits this through the heuristic function's
//! locality term (Eq. 7, Fig. 6). This module provides the placement policy
//! (rack-aware, 3-way replication like stock HDFS) and the locality query.

use std::borrow::Borrow;

use simcore::SimRng;

use crate::{Fleet, MachineId};

/// Default HDFS replication factor.
pub const DEFAULT_REPLICATION: usize = 3;

/// Default HDFS block size used by the paper's experiments (§V-B): 64 MB.
pub const BLOCK_SIZE_MB: u64 = 64;

/// Identifier of an input block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockId(pub u64);

/// A replicated input block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// This block's id.
    pub id: BlockId,
    /// Machines holding a replica. Non-empty, no duplicates.
    pub replicas: Vec<MachineId>,
}

/// The three locality levels of Hadoop task placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Locality {
    /// The block has a replica on the executing machine.
    NodeLocal,
    /// A replica lives in the executing machine's rack.
    RackLocal,
    /// All replicas are in other racks.
    Remote,
}

impl Locality {
    /// Multiplier applied to a task's input-read time for this locality
    /// level. Node-local reads come off the local disk (1×); rack-local
    /// reads traverse the top-of-rack switch (~2×); cross-rack reads contend
    /// for the aggregation layer (~4×). These ratios produce the Fig. 6
    /// completion-time spread.
    pub fn read_cost_multiplier(self) -> f64 {
        match self {
            Locality::NodeLocal => 1.0,
            Locality::RackLocal => 2.0,
            Locality::Remote => 4.0,
        }
    }

    /// Lowercase human-readable name.
    pub fn as_str(self) -> &'static str {
        match self {
            Locality::NodeLocal => "node-local",
            Locality::RackLocal => "rack-local",
            Locality::Remote => "remote",
        }
    }
}

impl std::fmt::Display for Locality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Rack-aware block placement over a fleet.
///
/// Follows stock HDFS policy: first replica on a uniformly random node,
/// second on a node in a different rack (when one exists), third in the same
/// rack as the second. Placement is deterministic given the RNG stream.
///
/// # Examples
///
/// ```
/// use cluster::Fleet;
/// use cluster::hdfs::{BlockPlacer, DEFAULT_REPLICATION};
/// use simcore::SimRng;
///
/// let fleet = Fleet::paper_evaluation();
/// let mut placer = BlockPlacer::new(DEFAULT_REPLICATION);
/// let blocks = placer.place(&fleet, 10, &mut SimRng::seed_from(1));
/// assert_eq!(blocks.len(), 10);
/// assert!(blocks.iter().all(|b| b.replicas.len() == 3));
/// ```
#[derive(Debug, Clone)]
pub struct BlockPlacer {
    replication: usize,
    next_id: u64,
}

impl BlockPlacer {
    /// Creates a placer with the given replication factor.
    ///
    /// # Panics
    ///
    /// Panics if `replication` is zero.
    pub fn new(replication: usize) -> Self {
        assert!(replication > 0, "replication factor must be positive");
        BlockPlacer {
            replication,
            next_id: 0,
        }
    }

    /// The replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Places `count` new blocks across the fleet, returning their
    /// placements. Block ids are globally unique per placer.
    pub fn place(&mut self, fleet: &Fleet, count: usize, rng: &mut SimRng) -> Vec<Block> {
        (0..count).map(|_| self.place_one(fleet, rng)).collect()
    }

    /// Places a single block.
    pub fn place_one(&mut self, fleet: &Fleet, rng: &mut SimRng) -> Block {
        let mut replicas = Vec::with_capacity(self.replication.min(fleet.len()));
        let id = self.place_into(fleet, rng, &mut replicas);
        Block { id, replicas }
    }

    /// Places a single block, appending its replicas to `out` (whatever
    /// `out` already holds is left alone), and returns the block's id.
    ///
    /// Candidate pools are never materialized: racks occupy contiguous id
    /// spans ([`Fleet::rack_span`]), so each pool's size and its k-th
    /// member (in ascending id order, matching a filter over
    /// [`Fleet::ids`]) are computed arithmetically. The RNG stream —
    /// draw count, bounds and index-to-machine mapping — is exactly that
    /// of the filter-and-collect formulation, so placements are
    /// byte-identical to it; at fleet scale this path runs once per block
    /// and the O(machines) vectors it replaced dominated job submission.
    pub fn place_into(
        &mut self,
        fleet: &Fleet,
        rng: &mut SimRng,
        out: &mut Vec<MachineId>,
    ) -> BlockId {
        let n = fleet.len();
        let replication = self.replication.min(n);
        let base = out.len();

        // First replica: uniformly random node.
        let first = MachineId(rng.uniform_u64(0, n as u64 - 1) as usize);
        out.push(first);

        // Second replica: prefer a different rack. The off-rack pool is
        // the ascending id sequence with `first`'s rack span cut out, so
        // the k-th member is k shifted past the span.
        if replication >= 2 {
            let span = fleet.rack_span(first);
            let off_rack = n - span.len();
            let pick = if off_rack > 0 {
                let k = rng.uniform_u64(0, off_rack as u64 - 1) as usize;
                if k < span.start {
                    k
                } else {
                    k + span.len()
                }
            } else {
                // Single-rack fleet: any node but `first` (n ≥ 2 here,
                // since replication was clamped to n).
                let k = rng.uniform_u64(0, n as u64 - 2) as usize;
                nth_free(0, k, &[first])
            };
            out.push(MachineId(pick));
        }

        // Remaining replicas: same rack as the second when possible,
        // otherwise any unused node. Each pool is an ascending id range
        // minus the (distinct) replicas inside it.
        while out.len() - base < replication {
            let replicas = &out[base..];
            let anchor = replicas[1.min(replicas.len() - 1)];
            let span = fleet.rack_span(anchor);
            let in_span = replicas.iter().filter(|m| span.contains(&m.index()));
            let same_rack = span.len() - in_span.count();
            let (lo, pool) = if same_rack > 0 {
                (span.start, same_rack)
            } else {
                // The anchor's whole rack is taken: any unused node.
                (0, n - replicas.len())
            };
            if pool == 0 {
                break;
            }
            let k = rng.uniform_u64(0, pool as u64 - 1) as usize;
            out.push(MachineId(nth_free(lo, k, replicas)));
        }

        let id = BlockId(self.next_id);
        self.next_id += 1;
        id
    }
}

/// The `k`-th (0-based) id at or above `lo` that is not in `taken`, whose
/// ids are distinct: `lo + k` shifted past every taken id at or below the
/// result. The shift is iterated to its least fixed point, so `taken` needs
/// no sorting.
fn nth_free(lo: usize, k: usize, taken: &[MachineId]) -> usize {
    let mut id = lo + k;
    loop {
        let below = taken
            .iter()
            .filter(|m| (lo..=id).contains(&m.index()))
            .count();
        if lo + k + below == id {
            return id;
        }
        id = lo + k + below;
    }
}

/// The locality level of running a task on `machine` for a block whose
/// replicas live on `replicas` (a slice of ids, or any iterator of them).
/// The rack scan reads `machine`'s rack once, not once per replica.
pub fn locality<R, I>(fleet: &Fleet, replicas: I, machine: MachineId) -> Locality
where
    R: Borrow<MachineId>,
    I: IntoIterator<Item = R>,
    I::IntoIter: Clone,
{
    let mut replicas = replicas.into_iter();
    if replicas.clone().any(|r| *r.borrow() == machine) {
        return Locality::NodeLocal;
    }
    let rack = fleet.rack_of(machine).ok();
    if rack.is_some() && replicas.any(|r| fleet.rack_of(*r.borrow()).ok() == rack) {
        return Locality::RackLocal;
    }
    Locality::Remote
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    fn two_rack_fleet() -> Fleet {
        Fleet::builder()
            .add(profiles::desktop(), 8)
            .rack_size(4)
            .build()
            .unwrap()
    }

    #[test]
    fn replicas_are_distinct() {
        let fleet = two_rack_fleet();
        let mut placer = BlockPlacer::new(3);
        let mut rng = SimRng::seed_from(7);
        for block in placer.place(&fleet, 200, &mut rng) {
            let mut seen = block.replicas.clone();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), block.replicas.len(), "duplicate replica");
            assert_eq!(block.replicas.len(), 3);
        }
    }

    #[test]
    fn second_replica_prefers_other_rack() {
        let fleet = two_rack_fleet();
        let mut placer = BlockPlacer::new(3);
        let mut rng = SimRng::seed_from(3);
        for block in placer.place(&fleet, 100, &mut rng) {
            assert!(
                !fleet.same_rack(block.replicas[0], block.replicas[1]),
                "second replica must land in a different rack when one exists"
            );
        }
    }

    #[test]
    fn third_replica_shares_rack_with_second() {
        let fleet = two_rack_fleet();
        let mut placer = BlockPlacer::new(3);
        let mut rng = SimRng::seed_from(5);
        for block in placer.place(&fleet, 100, &mut rng) {
            assert!(
                fleet.same_rack(block.replicas[1], block.replicas[2]),
                "third replica should share the second's rack in a 2-rack fleet"
            );
        }
    }

    #[test]
    fn replication_clamped_to_fleet_size() {
        let fleet = Fleet::builder().add(profiles::atom(), 2).build().unwrap();
        let mut placer = BlockPlacer::new(5);
        let mut rng = SimRng::seed_from(1);
        let b = placer.place_one(&fleet, &mut rng);
        assert_eq!(b.replicas.len(), 2);
    }

    #[test]
    fn single_node_fleet_places_one_replica() {
        let fleet = Fleet::builder().add(profiles::atom(), 1).build().unwrap();
        let mut placer = BlockPlacer::new(3);
        let mut rng = SimRng::seed_from(1);
        let b = placer.place_one(&fleet, &mut rng);
        assert_eq!(b.replicas, vec![MachineId(0)]);
    }

    /// The span-arithmetic pools must reproduce the filter-and-collect
    /// formulation draw for draw: same pool sizes, same ascending-id
    /// indexing, so the same RNG stream yields the same placements.
    #[test]
    fn arithmetic_pools_match_filter_oracle() {
        fn place_oracle(replication: usize, fleet: &Fleet, rng: &mut SimRng) -> Vec<MachineId> {
            let n = fleet.len();
            let replication = replication.min(n);
            let mut replicas: Vec<MachineId> = Vec::with_capacity(replication);
            let first = MachineId(rng.uniform_u64(0, n as u64 - 1) as usize);
            replicas.push(first);
            if replication >= 2 {
                let candidates: Vec<MachineId> = fleet
                    .ids()
                    .filter(|&m| m != first && !fleet.same_rack(m, first))
                    .collect();
                let fallback: Vec<MachineId> = fleet.ids().filter(|&m| m != first).collect();
                let pool = if candidates.is_empty() {
                    &fallback
                } else {
                    &candidates
                };
                if !pool.is_empty() {
                    replicas.push(pool[rng.uniform_u64(0, pool.len() as u64 - 1) as usize]);
                }
            }
            while replicas.len() < replication {
                let anchor = replicas[1.min(replicas.len() - 1)];
                let same_rack: Vec<MachineId> = fleet
                    .ids()
                    .filter(|&m| !replicas.contains(&m) && fleet.same_rack(m, anchor))
                    .collect();
                let any: Vec<MachineId> = fleet.ids().filter(|&m| !replicas.contains(&m)).collect();
                let pool = if same_rack.is_empty() {
                    &any
                } else {
                    &same_rack
                };
                if pool.is_empty() {
                    break;
                }
                replicas.push(pool[rng.uniform_u64(0, pool.len() as u64 - 1) as usize]);
            }
            replicas
        }

        // Rack sizes that divide the fleet, leave a remainder rack (also
        // one smaller than the replication factor), put everything in one
        // rack, exceed the replication factor in a tiny fleet, and the
        // scale-1000 shape.
        for (machines, rack_size, replication) in [
            (16, 4, 3),
            (13, 5, 3),
            (6, 6, 3),
            (3, 2, 5),
            (9, 1, 2),
            (1000, 40, 3),
            (50, 40, 5),
            (12, 4, 4),
        ] {
            let fleet = Fleet::builder()
                .add(profiles::desktop(), machines)
                .rack_size(rack_size)
                .build()
                .unwrap();
            let mut placer = BlockPlacer::new(replication);
            let mut rng = SimRng::seed_from(42);
            let mut oracle_rng = SimRng::seed_from(42);
            for i in 0..200 {
                let block = placer.place_one(&fleet, &mut rng);
                let want = place_oracle(replication, &fleet, &mut oracle_rng);
                assert_eq!(
                    block.replicas, want,
                    "block {i} diverges ({machines} machines, rack {rack_size}, r {replication})"
                );
            }
        }
    }

    #[test]
    fn block_ids_unique_and_increasing() {
        let fleet = two_rack_fleet();
        let mut placer = BlockPlacer::new(1);
        let mut rng = SimRng::seed_from(1);
        let blocks = placer.place(&fleet, 5, &mut rng);
        let ids: Vec<u64> = blocks.iter().map(|b| b.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn locality_levels() {
        let fleet = two_rack_fleet(); // racks: {0..3}, {4..7}
        let replicas = [MachineId(0), MachineId(4)];
        assert_eq!(
            locality(&fleet, replicas, MachineId(0)),
            Locality::NodeLocal
        );
        assert_eq!(
            locality(&fleet, replicas, MachineId(1)),
            Locality::RackLocal
        );
        assert_eq!(
            locality(&fleet, replicas, MachineId(5)),
            Locality::RackLocal
        );
        assert_eq!(
            locality(&fleet, [MachineId(0)], MachineId(5)),
            Locality::Remote
        );
    }

    #[test]
    fn read_cost_ordering() {
        assert!(
            Locality::NodeLocal.read_cost_multiplier() < Locality::RackLocal.read_cost_multiplier()
        );
        assert!(
            Locality::RackLocal.read_cost_multiplier() < Locality::Remote.read_cost_multiplier()
        );
    }

    #[test]
    fn placement_is_deterministic_per_seed() {
        let fleet = two_rack_fleet();
        let run = |seed| {
            let mut placer = BlockPlacer::new(3);
            let mut rng = SimRng::seed_from(seed);
            placer.place(&fleet, 20, &mut rng)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    #[should_panic(expected = "replication factor must be positive")]
    fn zero_replication_rejected() {
        BlockPlacer::new(0);
    }

    #[test]
    fn display_locality() {
        assert_eq!(Locality::NodeLocal.to_string(), "node-local");
        assert_eq!(Locality::RackLocal.to_string(), "rack-local");
        assert_eq!(Locality::Remote.to_string(), "remote");
    }
}
