//! Fig. 10: effectiveness of the information-exchange strategies.
//!
//! Energy savings of E-Ant over the default heterogeneity-agnostic Hadoop
//! (FIFO), measured at fixed wall-clock points as the jobs progress, for
//! the four exchange configurations, averaged over several seeds. The
//! paper reports machine-level +7 %, job-level +10 % and both +15 %
//! relative to no exchange.

use eant::{EAntConfig, ExchangeStrategy};
use metrics::report::render_series;
use simcore::SimTime;

use crate::common::SchedulerKind;
use crate::scenario::{msd_grid, run_grid};

const STRATEGIES: [ExchangeStrategy; 4] = [
    ExchangeStrategy::None,
    ExchangeStrategy::MachineLevel,
    ExchangeStrategy::JobLevel,
    ExchangeStrategy::Both,
];

/// Runs the exchange-strategy ablation.
pub fn run(fast: bool) -> String {
    // The exchange ablation uses the moderate-concurrency scenario at both
    // scales (tail variance at the 87-job scale would need dozens of seeds
    // to resolve the ±7-15 point differences the paper reports); full mode
    // adds seeds instead of jobs.
    let seeds: &[u64] = if fast {
        &[1010, 7, 99]
    } else {
        &[1010, 7, 99, 2015, 42, 1234, 3, 17, 555, 808, 4096, 31]
    };
    // Sample savings at fixed minutes so curves from different seeds align.
    let minutes: Vec<f64> = (1..=9).map(|i| i as f64 * 10.0).collect();

    // FIFO, then one E-Ant per strategy, each over every seed. The runs keep
    // the paper-default system noise (§IV-D): enough stragglers and reading
    // jitter to corrupt per-task energy evidence, which is the hazard the
    // exchange strategies exist to average away.
    let schedulers = std::iter::once(SchedulerKind::Fifo)
        .chain(STRATEGIES.iter().map(|&exchange| {
            SchedulerKind::EAnt(EAntConfig {
                exchange,
                ..EAntConfig::paper_default()
            })
        }))
        .collect();
    let runs = run_grid(&msd_grid(seeds, schedulers), true);
    let (baselines, eant) = runs.split_at(seeds.len());

    let mut curves: Vec<Vec<f64>> = vec![vec![0.0; minutes.len()]; STRATEGIES.len()];
    let mut finals = vec![0.0; STRATEGIES.len()];
    let mut fifo_total = 0.0;
    for (i, baseline) in baselines.iter().enumerate() {
        for (si, by_seed) in eant.chunks(seeds.len()).enumerate() {
            let run = &by_seed[i];
            for (mi, &minute) in minutes.iter().enumerate() {
                let at = SimTime::from_secs((minute * 60.0) as u64);
                let base = baseline.energy_series.value_at(at).unwrap_or(0.0);
                let cand = run.energy_series.value_at(at).unwrap_or(0.0);
                curves[si][mi] += (base - cand) / 1000.0 / seeds.len() as f64;
            }
            finals[si] += (baseline.total_energy_joules() - run.total_energy_joules())
                / 1000.0
                / seeds.len() as f64;
        }
        fifo_total += baseline.total_energy_joules() / 1000.0 / seeds.len() as f64;
    }

    let named: Vec<(&str, Vec<f64>)> = STRATEGIES
        .iter()
        .zip(&curves)
        .map(|(s, c)| (s.label(), c.clone()))
        .collect();
    let mut out = render_series(
        "Fig. 10 — energy saving over time by exchange strategy (kJ vs default Hadoop)",
        "time (min)",
        &minutes,
        &named,
        1,
    );
    out.push_str("final savings vs default Hadoop (kJ): ");
    out.push_str(
        &STRATEGIES
            .iter()
            .zip(&finals)
            .map(|(s, f)| format!("{}: {f:.0}", s.label()))
            .collect::<Vec<_>>()
            .join("  "),
    );
    out.push('\n');
    // Improvements reported in percentage points of the baseline total, so
    // a near-zero non-exchange saving cannot blow the denominator up.
    let base_pct = finals[0] / fifo_total * 100.0;
    for (s, f) in STRATEGIES.iter().zip(&finals).skip(1) {
        out.push_str(&format!(
            "{} saving: {:.1}% of baseline ({:+.1} points over Non-exchange's {:.1}%)\n",
            s.label(),
            f / fifo_total * 100.0,
            (f - finals[0]) / fifo_total * 100.0,
            base_pct,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_strategies() {
        let s = run(true);
        for label in ["Non-exchange", "+Machine-level", "+Job-level", "+Both"] {
            assert!(s.contains(label), "missing {label} in:\n{s}");
        }
        assert!(s.contains("final savings"));
        let digest = metrics::spec::fnv1a_64(s.as_bytes());
        assert_eq!(
            digest, 0xd9a83f0e798309ba,
            "fig10 --fast output moved: {digest:#018x}"
        );
    }
}
