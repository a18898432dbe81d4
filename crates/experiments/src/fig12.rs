//! Fig. 12: sensitivity analysis of E-Ant's design parameters.
//!
//! (a) the weighting parameter β trades energy saving against job
//! fairness; (b) the control interval has a sweet spot (the paper's is
//! 5 min) — too short starves the optimizer of samples, too long makes
//! assignment stale.

use eant::EAntConfig;
use metrics::energy::kj;
use metrics::fairness::{actual_completions, inverse_slowdown_variance, slowdowns};
use metrics::report::Table;
use simcore::SimDuration;

use crate::common::{standalone_times, SchedulerKind};
use crate::scenario::{msd_grid, run_grid};

/// Fig. 12(a): β sweep — energy saving vs default Hadoop and fairness
/// (inverse variance of per-job slowdown, normalized per seed against the
/// Fair Scheduler's fairness on the same workload to cancel cross-seed
/// workload variance), averaged over seeds.
pub fn fig12a(fast: bool) -> String {
    // Sensitivity sweeps run at the moderate-concurrency scale with seed
    // repetition (see fig10 for rationale).
    let seeds: &[u64] = if fast {
        &[4242, 7]
    } else {
        &[4242, 7, 99, 2015, 42, 1234, 1010, 3, 17, 555, 808, 4096]
    };
    let mut t = Table::new(
        "Fig. 12(a) — weighting parameter (beta) sensitivity",
        &["beta", "energy saving (kJ)", "fairness (vs Fair Scheduler)"],
    );
    let betas = [0.0, 0.1, 0.2, 0.3, 0.4];
    // FIFO, Fair, then one E-Ant per β, each over every seed.
    let schedulers = [SchedulerKind::Fifo, SchedulerKind::Fair]
        .into_iter()
        .chain(betas.iter().map(|&beta| {
            SchedulerKind::EAnt(EAntConfig {
                beta,
                ..EAntConfig::paper_default()
            })
        }))
        .collect();
    let spec = msd_grid(seeds, schedulers);
    let runs = run_grid(&spec, true);
    let by_kind: Vec<&[hadoop_sim::RunResult]> = runs.chunks(seeds.len()).collect();
    let mut savings = vec![0.0; betas.len()];
    let mut fairnesses = vec![0.0; betas.len()];
    for (i, &seed) in seeds.iter().enumerate() {
        let (baseline, fair) = (&by_kind[0][i], &by_kind[1][i]);
        let standalone = standalone_times(&spec, seed, true);
        let fair_fairness =
            inverse_slowdown_variance(&slowdowns(&actual_completions(fair), &standalone))
                .unwrap_or(1.0)
                .max(1e-9);
        for (b, eant) in by_kind[2..].iter().enumerate() {
            let run = &eant[i];
            savings[b] +=
                kj(baseline.total_energy_joules() - run.total_energy_joules()) / seeds.len() as f64;
            let slow = slowdowns(&actual_completions(run), &standalone);
            let fairness = inverse_slowdown_variance(&slow).unwrap_or(0.0);
            fairnesses[b] += (fairness / fair_fairness) / seeds.len() as f64;
        }
    }
    for (i, &beta) in betas.iter().enumerate() {
        t.row(&[
            format!("{beta:.1}"),
            format!("{:.1}", savings[i]),
            format!("{:.3}", fairnesses[i]),
        ]);
    }
    t.render()
}

/// Fig. 12(b): control-interval sweep (2–8 min) — energy saving vs default
/// Hadoop, averaged over seeds.
pub fn fig12b(fast: bool) -> String {
    let seeds: &[u64] = if fast {
        &[777, 7]
    } else {
        &[777, 7, 99, 2015, 42, 1234, 1010, 3, 17, 555, 808, 4096]
    };
    let intervals = [2u64, 3, 4, 5, 6, 7, 8];
    let baselines = run_grid(&msd_grid(seeds, vec![SchedulerKind::Fifo]), true);
    let mut savings = vec![0.0; intervals.len()];
    for (i, &mins) in intervals.iter().enumerate() {
        let mut spec = msd_grid(
            seeds,
            vec![SchedulerKind::EAnt(EAntConfig::paper_default())],
        );
        spec.engine.control_interval = SimDuration::from_mins(mins);
        for (baseline, run) in baselines.iter().zip(run_grid(&spec, true)) {
            savings[i] +=
                kj(baseline.total_energy_joules() - run.total_energy_joules()) / seeds.len() as f64;
        }
    }
    let mut t = Table::new(
        "Fig. 12(b) — control interval sensitivity",
        &["control interval (min)", "energy saving (kJ)"],
    );
    for (i, &mins) in intervals.iter().enumerate() {
        t.num_row(&mins.to_string(), &[savings[i]], 1);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12a_renders_all_betas() {
        let s = fig12a(true);
        for beta in ["0.0", "0.1", "0.2", "0.3", "0.4"] {
            assert!(s.contains(beta), "missing beta {beta} in:\n{s}");
        }
        let digest = metrics::spec::fnv1a_64(s.as_bytes());
        assert_eq!(
            digest, 0xdf4a63ea764f9cfc,
            "fig12a --fast output moved: {digest:#018x}"
        );
    }

    #[test]
    fn fig12b_renders_interval_sweep() {
        let s = fig12b(true);
        assert!(s.lines().count() >= 10, "{s}");
        let digest = metrics::spec::fnv1a_64(s.as_bytes());
        assert_eq!(
            digest, 0xf2aa6c36febb025e,
            "fig12b --fast output moved: {digest:#018x}"
        );
    }
}
