//! Fig. 9: E-Ant's task-assignment adaptiveness.

use metrics::report::Table;

use crate::common::msd_comparison;

/// The three representative machine types the paper plots.
const PROFILES: [&str; 3] = ["T420", "Desktop", "Atom"];

/// Fig. 9(a): completed tasks per machine type by workload (per machine of
/// the type, to normalize for group size).
pub fn fig9a(fast: bool) -> String {
    let runs = msd_comparison(fast);
    let eant = &runs[2];
    let group_size = |profile: &str| {
        eant.machines
            .iter()
            .filter(|m| m.profile == profile)
            .count()
            .max(1) as f64
    };
    let by_pb = eant.tasks_by_profile_and_benchmark();
    let mut t = Table::new(
        "Fig. 9(a) — E-Ant tasks per machine by workload type",
        &[
            "machine type",
            "Wordcount",
            "Grep",
            "Terasort",
            "Wordcount share",
        ],
    );
    for profile in PROFILES {
        let count = |bench: &str| {
            *by_pb
                .get(&(profile.to_owned(), bench.to_owned()))
                .unwrap_or(&0) as f64
                / group_size(profile)
        };
        let (wc, grep, ts) = (count("Wordcount"), count("Grep"), count("Terasort"));
        let share = wc / (wc + grep + ts).max(1.0);
        t.row(&[
            profile.to_owned(),
            format!("{wc:.0}"),
            format!("{grep:.0}"),
            format!("{ts:.0}"),
            format!("{share:.2}"),
        ]);
    }
    t.render()
}

/// Fig. 9(b): map vs reduce tasks per machine type (per machine).
pub fn fig9b(fast: bool) -> String {
    let runs = msd_comparison(fast);
    let eant = &runs[2];
    let by_kind = eant.tasks_by_profile_and_kind();
    let group_size = |profile: &str| {
        eant.machines
            .iter()
            .filter(|m| m.profile == profile)
            .count()
            .max(1) as f64
    };
    let mut t = Table::new(
        "Fig. 9(b) — E-Ant map and reduce tasks per machine",
        &["machine type", "map tasks", "reduce tasks", "map share"],
    );
    for profile in PROFILES {
        let (maps, reduces) = by_kind.get(profile).copied().unwrap_or((0, 0));
        let maps = maps as f64 / group_size(profile);
        let reduces = reduces as f64 / group_size(profile);
        t.row(&[
            profile.to_owned(),
            format!("{maps:.0}"),
            format!("{reduces:.0}"),
            format!("{:.2}", maps / (maps + reduces).max(1.0)),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panels_cover_representative_machines() {
        let a = fig9a(true);
        let b = fig9b(true);
        for p in PROFILES {
            assert!(a.contains(p), "fig9a missing {p}");
            assert!(b.contains(p), "fig9b missing {p}");
        }
        let digest = metrics::spec::fnv1a_64(a.as_bytes());
        assert_eq!(
            digest, 0xbf2cce0c95b9329d,
            "fig9a --fast output moved: {digest:#018x}"
        );
        let digest = metrics::spec::fnv1a_64(b.as_bytes());
        assert_eq!(
            digest, 0x0476605d3cdf4112,
            "fig9b --fast output moved: {digest:#018x}"
        );
    }
}
