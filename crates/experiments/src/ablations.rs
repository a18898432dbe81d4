//! Ablation study of E-Ant's design choices (DESIGN.md §7).
//!
//! Each row disables or perturbs one mechanism and reports the multi-seed
//! mean energy saving against the Fair Scheduler on the moderate-concurrency
//! MSD workload, plus the mean makespan ratio. This quantifies how much each
//! piece of the design contributes.

use eant::{EAntConfig, ExchangeStrategy};
use metrics::report::Table;

use crate::common::SchedulerKind;
use crate::scenario::{msd_grid, run_grid};

const SEEDS: [u64; 8] = [2015, 7, 99, 42, 1234, 3, 17, 555];

/// Summed energy (J) and makespan (s) of one scheduler's runs, added in
/// seed order.
fn totals(runs: &[hadoop_sim::RunResult]) -> (f64, f64) {
    let mut energy = 0.0;
    let mut makespan = 0.0;
    for r in runs {
        energy += r.total_energy_joules();
        makespan += r.makespan.as_secs_f64();
    }
    (energy, makespan)
}

/// Runs the ablation table. `fast` halves the seed set; both scales use
/// the 30-job workload.
pub fn run(fast: bool) -> String {
    let default = EAntConfig::paper_default();
    let variants: Vec<(&str, EAntConfig)> = vec![
        ("full E-Ant (default)", default),
        (
            "no negative feedback (Eq. 6 off)",
            EAntConfig {
                negative_feedback: false,
                ..default
            },
        ),
        (
            "no exchange (§IV-D off)",
            EAntConfig {
                exchange: ExchangeStrategy::None,
                ..default
            },
        ),
        (
            "no heuristic (beta = 0: locality + fairness off)",
            EAntConfig {
                beta: 0.0,
                ..default
            },
        ),
        (
            "no share cap",
            EAntConfig {
                share_cap: 1.0e9,
                ..default
            },
        ),
        (
            "slow evaporation (rho = 0.1)",
            EAntConfig {
                rho: 0.1,
                ..default
            },
        ),
        (
            "full evaporation (rho = 1.0)",
            EAntConfig {
                rho: 1.0,
                ..default
            },
        ),
        (
            "tight tau bounds (ratio 50)",
            EAntConfig {
                tau_min: 0.2,
                tau_max: 10.0,
                ..default
            },
        ),
    ];

    let seeds = if fast {
        &SEEDS[..SEEDS.len() / 2]
    } else {
        &SEEDS[..]
    };
    // Fair once per seed, then every variant over the same seeds.
    let schedulers = std::iter::once(SchedulerKind::Fair)
        .chain(variants.iter().map(|&(_, cfg)| SchedulerKind::EAnt(cfg)))
        .collect();
    let runs = run_grid(&msd_grid(seeds, schedulers), true);
    let mut by_kind = runs.chunks(seeds.len());
    let (fair_e, fair_m) = totals(by_kind.next().expect("Fair runs"));

    let mut t = Table::new(
        format!(
            "Ablation — E-Ant design choices ({} seeds vs Fair)",
            seeds.len()
        ),
        &["variant", "energy saving (%)", "makespan / Fair"],
    );
    for ((name, _), eant) in variants.iter().zip(by_kind) {
        let (eant_e, eant_m) = totals(eant);
        t.row(&[
            (*name).to_owned(),
            format!("{:+.1}", (fair_e - eant_e) / fair_e * 100.0),
            format!("{:.2}", eant_m / fair_m),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_variants() {
        let s = run(true);
        for label in [
            "full E-Ant",
            "no negative feedback",
            "no exchange",
            "no heuristic",
            "no share cap",
            "slow evaporation",
            "full evaporation",
            "tight tau bounds",
        ] {
            assert!(s.contains(label), "missing {label}");
        }
        let digest = metrics::spec::fnv1a_64(s.as_bytes());
        assert_eq!(
            digest, 0xb49e13abe232af79,
            "ablations --fast output moved: {digest:#018x}"
        );
    }
}
