//! Fault-injection sweep (repository robustness study, not a paper
//! figure): how much energy and makespan each scheduler gives back as the
//! cluster gets less reliable, and whether E-Ant's savings survive.
//!
//! The sweep runs all four schedulers across a fault-rate grid — from the
//! fault-free baseline through random task failures to crash-heavy
//! TaskTracker churn (see [`hadoop_sim::FaultConfig`]) — on the same
//! fixed-seed MSD workload, and reports per-scheduler degradation curves:
//! energy and makespan deltas against that scheduler's own fault-free run,
//! plus raw retry / machine-failure / blacklist counts. The per-run numbers
//! come back as a JSON document too, which the CLI writes to
//! `faults-sweep.json` for the CI artifact.

use eant::EAntConfig;
use hadoop_sim::{FaultConfig, RunResult};
use metrics::emit::{object, JsonValue};
use metrics::report::Table;
use simcore::SimDuration;

use crate::common::SchedulerKind;
use crate::scenario::{msd_grid, run_grid, ScenarioSpec};

/// The fault-rate grid, mildest to harshest.
fn grid() -> Vec<(&'static str, FaultConfig)> {
    vec![
        ("none", FaultConfig::none()),
        (
            "tasks 2%",
            FaultConfig {
                task_failure_prob: 0.02,
                ..FaultConfig::none()
            },
        ),
        (
            "tasks 10%",
            FaultConfig {
                task_failure_prob: 0.10,
                ..FaultConfig::none()
            },
        ),
        // FaultConfig::moderate(): hourly crashes, 2 min downtime, 2% task
        // failures, blacklisting at 12 failures.
        ("mixed", FaultConfig::moderate()),
        (
            "crash-heavy",
            FaultConfig {
                crash_mtbf: SimDuration::from_mins(15),
                crash_downtime: SimDuration::from_mins(3),
                task_failure_prob: 0.05,
                ..FaultConfig::none()
            },
        ),
    ]
}

fn schedulers() -> [SchedulerKind; 4] {
    [
        SchedulerKind::Fifo,
        SchedulerKind::Fair,
        SchedulerKind::Tarazu,
        SchedulerKind::EAnt(EAntConfig::paper_default()),
    ]
}

/// The seed-2015 MSD grid of `kinds` under `fault`.
fn faulted_spec(fault: FaultConfig, kinds: Vec<SchedulerKind>) -> ScenarioSpec {
    let mut spec = msd_grid(&[2015], kinds);
    spec.engine.fault = fault;
    spec
}

fn json_row(fault: &str, r: &RunResult) -> JsonValue {
    object([
        ("fault", JsonValue::Str(fault.to_owned())),
        ("scheduler", JsonValue::Str(r.scheduler.clone())),
        ("energy_joules", JsonValue::Num(r.total_energy_joules())),
        ("makespan_s", JsonValue::Num(r.makespan.as_secs_f64())),
        ("drained", JsonValue::Bool(r.drained)),
        ("total_tasks", JsonValue::UInt(r.total_tasks)),
        ("task_failures", JsonValue::UInt(r.task_failures)),
        ("machine_failures", JsonValue::UInt(r.machine_failures)),
        ("map_outputs_lost", JsonValue::UInt(r.map_outputs_lost)),
        (
            "machines_blacklisted",
            JsonValue::UInt(r.machines_blacklisted),
        ),
    ])
}

/// Runs the fault sweep, returning the rendered degradation table and the
/// per-run metrics document.
pub fn run(fast: bool) -> (String, JsonValue) {
    let grid = grid();
    let kinds = schedulers();

    // One seed per grid point, so each grid point's results come back in
    // scheduler order; transpose them to one curve per scheduler.
    let mut per_kind: Vec<Vec<RunResult>> = kinds.iter().map(|_| Vec::new()).collect();
    for (_, fault) in &grid {
        let runs = run_grid(&faulted_spec(*fault, kinds.to_vec()), fast);
        for (curve, r) in per_kind.iter_mut().zip(runs) {
            curve.push(r);
        }
    }

    let mut t = Table::new(
        "Fault sweep — degradation vs each scheduler's own fault-free run (seed 2015)",
        &[
            "scheduler",
            "faults",
            "energy (MJ)",
            "Δe %",
            "makespan (min)",
            "Δm %",
            "retries",
            "crashes",
            "lost maps",
            "blk",
        ],
    );
    let mut rows = Vec::new();
    for (kind, runs) in kinds.iter().zip(&per_kind) {
        let base = &runs[0];
        for ((label, _), r) in grid.iter().zip(runs) {
            assert!(
                r.drained,
                "{} under '{label}' faults failed to drain before the time limit",
                kind.label()
            );
            let e = r.total_energy_joules();
            let e0 = base.total_energy_joules();
            let m = r.makespan.as_secs_f64();
            let m0 = base.makespan.as_secs_f64();
            t.row(&[
                kind.label().to_owned(),
                (*label).to_owned(),
                format!("{:.3}", e / 1e6),
                format!("{:+.1}", (e / e0 - 1.0) * 100.0),
                format!("{:.1}", m / 60.0),
                format!("{:+.1}", (m / m0 - 1.0) * 100.0),
                r.task_failures.to_string(),
                r.machine_failures.to_string(),
                r.map_outputs_lost.to_string(),
                r.machines_blacklisted.to_string(),
            ]);
            rows.push(json_row(label, r));
        }
    }
    let mut out = t.render();

    // Does E-Ant's headline saving survive faults? Compare E-Ant vs Fair at
    // the harshest grid point.
    let fair = &per_kind[1];
    let eant = &per_kind[3];
    let last = grid.len() - 1;
    let saving_clean =
        (1.0 - eant[0].total_energy_joules() / fair[0].total_energy_joules()) * 100.0;
    let saving_harsh =
        (1.0 - eant[last].total_energy_joules() / fair[last].total_energy_joules()) * 100.0;
    out.push_str(&format!(
        "E-Ant energy saving vs Fair: {saving_clean:.1}% fault-free, \
         {saving_harsh:.1}% under '{}' faults\n",
        grid[last].0
    ));

    let doc = object([
        ("seed", JsonValue::UInt(2015)),
        ("fast", JsonValue::Bool(fast)),
        ("runs", JsonValue::Array(rows)),
    ]);
    (out, doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_starts_fault_free_and_validates() {
        let grid = grid();
        assert_eq!(grid[0].0, "none");
        assert!(!grid[0].1.is_enabled());
        for (label, fault) in &grid[1..] {
            assert!(fault.is_enabled(), "{label} must inject faults");
            fault.validate();
        }
    }

    #[test]
    fn sweep_report_and_document_are_pinned() {
        let (report, doc) = run(true);
        assert!(report.contains("E-Ant energy saving vs Fair"));
        let Some(JsonValue::Array(runs)) = doc.get("runs") else {
            panic!("sweep document lacks its runs array");
        };
        assert_eq!(runs.len(), grid().len() * schedulers().len());
        let digest = metrics::spec::fnv1a_64(report.as_bytes());
        assert_eq!(
            digest, 0x4e0318269e7e647b,
            "faults --fast output moved: {digest:#018x}"
        );
    }

    #[test]
    fn faulted_runs_still_drain_and_count_failures() {
        let fault = FaultConfig {
            task_failure_prob: 0.05,
            ..FaultConfig::none()
        };
        let spec = faulted_spec(fault, vec![SchedulerKind::Fair]);
        let r = spec.execute(&spec.schedulers[0], 2015, true);
        assert!(r.drained);
        assert!(r.task_failures > 0, "5% failure rate must produce retries");
        assert_eq!(r.machine_failures, 0);
    }
}
