//! ACO hot-path benchmarks: pheromone updates, probability computation and
//! per-offer job selection.
//!
//! Context: the paper reports its self-adaptive ACO algorithm takes about
//! 120 ms per control interval on a 16-node cluster (§VI-D "Overheads").

use std::collections::BTreeMap;

use bench::{black_box, Harness};
use cluster::MachineId;
use eant::{ExchangeStrategy, PheromoneTable, TaskAnalyzer, TaskEnergyRecord};
use simcore::SimRng;
use workload::{GroupId, JobId};

fn deposits(jobs: usize, machines: usize, seed: u64) -> BTreeMap<JobId, Vec<f64>> {
    let mut rng = SimRng::seed_from(seed);
    (0..jobs)
        .map(|j| {
            (
                JobId(j as u64),
                (0..machines)
                    .map(|_| rng.uniform_range(0.0, 50.0))
                    .collect(),
            )
        })
        .collect()
}

fn main() {
    let mut h = Harness::from_args();

    for &(jobs, machines) in &[(10usize, 16usize), (50, 16), (100, 100)] {
        let d = deposits(jobs, machines, 1);
        h.bench(
            &format!("pheromone_apply_deposits/{jobs}jobs_{machines}machines"),
            || {
                let mut table = PheromoneTable::new(machines, 1.0, 0.05, 1.0e4);
                table.apply_deposits(black_box(&d), 0.5, true);
                black_box(table.get(JobId(0), MachineId(0)))
            },
        );
    }

    let mut table = PheromoneTable::new(16, 1.0, 0.05, 1.0e4);
    table.apply_deposits(&deposits(20, 16, 2), 0.5, true);
    h.bench("pheromone_probabilities_16m", || {
        black_box(table.probabilities(black_box(JobId(7))))
    });

    for &records in &[100usize, 1000, 10_000] {
        let mut rng = SimRng::seed_from(3);
        let recs: Vec<TaskEnergyRecord> = (0..records)
            .map(|i| TaskEnergyRecord {
                job: JobId((i % 30) as u64),
                group: GroupId((i % 9) as u32),
                machine: MachineId(i % 16),
                energy_joules: rng.uniform_range(50.0, 500.0),
            })
            .collect();
        let groups: Vec<usize> = (0..16).map(|m| m / 3).collect();
        h.bench(&format!("analyzer_compute/{records}"), || {
            let mut analyzer = TaskAnalyzer::new(16);
            for r in &recs {
                analyzer.record(r.clone());
            }
            black_box(analyzer.compute(&groups, &groups, ExchangeStrategy::Both))
        });
    }

    h.finish();
}
