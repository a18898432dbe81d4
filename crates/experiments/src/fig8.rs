//! Fig. 8: E-Ant vs Fair Scheduler vs Tarazu on the MSD workload.

use metrics::energy::{energy_by_profile_comparison, kj, percent_saving};
use metrics::report::Table;

use crate::common::msd_comparison;

/// Fig. 8(a): per-machine-type energy consumption plus the headline
/// total savings (paper: 17 % vs Fair, 12 % vs Tarazu).
pub fn fig8a(fast: bool) -> String {
    let runs = msd_comparison(fast);
    let refs: Vec<&hadoop_sim::RunResult> = runs.iter().collect();
    let mut t = Table::new(
        "Fig. 8(a) — energy consumption by machine type (kJ)",
        &["machine type", "Fair", "Tarazu", "E-Ant"],
    );
    for (profile, values) in energy_by_profile_comparison(&refs) {
        let cells: Vec<f64> = values.iter().map(|&v| kj(v)).collect();
        t.num_row(&profile, &cells, 1);
    }
    let totals: Vec<f64> = runs.iter().map(|r| r.total_energy_joules()).collect();
    t.num_row(
        "TOTAL",
        &totals.iter().map(|&v| kj(v)).collect::<Vec<_>>(),
        1,
    );
    let mut out = t.render();
    let vs_fair = percent_saving(totals[0], totals[2]).unwrap_or(f64::NAN);
    let vs_tarazu = percent_saving(totals[1], totals[2]).unwrap_or(f64::NAN);
    out.push_str(&format!(
        "E-Ant total energy saving: {vs_fair:.1}% vs Fair (paper: 17%), {vs_tarazu:.1}% vs Tarazu (paper: 12%)\n"
    ));
    out
}

/// Fig. 8(b): mean CPU utilization per machine type per scheduler.
pub fn fig8b(fast: bool) -> String {
    let runs = msd_comparison(fast);
    let mut t = Table::new(
        "Fig. 8(b) — CPU utilization by machine type (%)",
        &["machine type", "Fair", "Tarazu", "E-Ant"],
    );
    let per_run: Vec<Vec<(String, f64)>> =
        runs.iter().map(|r| r.utilization_by_profile()).collect();
    for (i, (profile, _)) in per_run[0].iter().enumerate() {
        let cells: Vec<f64> = per_run.iter().map(|r| r[i].1 * 100.0).collect();
        t.num_row(profile, &cells, 1);
    }
    t.render()
}

/// Fig. 8(c): job completion time per workload class, normalized to the
/// Fair Scheduler.
pub fn fig8c(fast: bool) -> String {
    let runs = msd_comparison(fast);
    let fair = runs[0].completion_by_label();
    let mut t = Table::new(
        "Fig. 8(c) — job completion time normalized to Fair",
        &["job class", "Fair", "Tarazu", "E-Ant"],
    );
    for (label, fair_secs) in &fair {
        let mut cells = vec![1.0];
        for run in runs.iter().skip(1) {
            let secs = run
                .completion_by_label()
                .into_iter()
                .find(|(l, _)| l == label)
                .map(|(_, s)| s)
                .unwrap_or(f64::NAN);
            cells.push(secs / fair_secs);
        }
        t.num_row(label, &cells, 2);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eant_saves_energy_vs_fair() {
        let runs = msd_comparison(true);
        let fair = runs[0].total_energy_joules();
        let eant = runs[2].total_energy_joules();
        assert!(
            eant < fair,
            "E-Ant ({eant:.0} J) should beat Fair ({fair:.0} J)"
        );
    }

    #[test]
    fn all_panels_render() {
        let (a, b, c) = (fig8a(true), fig8b(true), fig8c(true));
        assert!(a.contains("TOTAL"));
        assert!(b.contains("T420"));
        assert!(c.contains("Fair"));
        for (id, out, pinned) in [
            ("fig8a", &a, 0x546e1cfec36ef76f),
            ("fig8b", &b, 0xed30c9f6d84ad48d),
            ("fig8c", &c, 0x8fb172b0143a58b5),
        ] {
            let digest = metrics::spec::fnv1a_64(out.as_bytes());
            assert_eq!(digest, pinned, "{id} --fast output moved: {digest:#018x}");
        }
    }
}
