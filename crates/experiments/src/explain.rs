//! `experiments explain`: a critical-path and attribution report from a
//! trace or a postmortem bundle.
//!
//! The report answers the question the service-mode collapse left open:
//! *which machines and which decisions own the tail?* It folds the typed
//! event stream into three views:
//!
//! 1. **Machine groups** — machines bucketed by their slot capacities (the
//!    only hardware signature a trace carries), with each group's busy-time
//!    share, its attributed slice of the run's total energy, and the queue
//!    wait its tasks absorbed before landing.
//! 2. **Per-job critical paths** — for the jobs in the sojourn tail, the
//!    queue-wait / map / reduce-lag / reduce decomposition of their
//!    lifetime, plus where their reduce tasks ran.
//! 3. **Tail blame** — the machine group that served the most tail-job
//!    reduce work, and (when decision events are present) the reinforced
//!    placements feeding it: per-machine reduce-placement concentration
//!    with the mean Eq. 8 pheromone of chosen vs rejected candidates.
//!
//! Input is either a `--trace`-style JSONL file or a postmortem bundle
//! directory (`breach.json` + `events.jsonl` + `series.json`, as written by
//! [`crate::slo::PostmortemBundle::write_to`]). A bundle's short evidence
//! window rarely contains complete job lifecycles, so the report leans on
//! the breach metadata, the telemetry series up to the breach, and the
//! decision evidence instead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use cluster::{MachineId, SlotKind};
use hadoop_sim::SimEvent;
use metrics::emit::JsonValue;
use metrics::registry::SeriesSnapshot;
use simcore::SimTime;
use workload::JobId;

use crate::timeline::decision_breakdown;
use crate::view::{load_trace, ClusterView, MachineRow, TraceLine};

/// Per-job critical-path timestamps folded from the event stream.
#[derive(Debug, Default, Clone)]
struct JobLife {
    /// Completion time and sojourn, when the submission is in the stream.
    completed: Option<(SimTime, f64)>,
    first_start: Option<SimTime>,
    /// Queue wait before the first start, when the submission is in the
    /// stream.
    first_wait_s: Option<f64>,
    last_map_done: Option<SimTime>,
    first_reduce_start: Option<SimTime>,
    /// Machines that started this job's reduce attempts.
    reduce_machines: Vec<usize>,
}

/// What `explain` folds out of one event stream beyond the shared
/// [`ClusterView`].
#[derive(Debug)]
struct Analysis {
    view: ClusterView,
    start: SimTime,
    end: SimTime,
    num_events: usize,
    /// Machine → tasks started / reduce tasks started.
    started: BTreeMap<usize, u64>,
    reduce_started: BTreeMap<usize, u64>,
    /// Machine → summed task queue wait (start − job submit), seconds.
    wait_s: BTreeMap<usize, f64>,
    jobs: BTreeMap<JobId, JobLife>,
    /// Total energy: the view's meter, else the bundle's telemetry.
    total_energy_j: Option<f64>,
    /// Reduce decisions: (machine, chosen τ, mean τ of the alternatives).
    reduce_decisions: Vec<(usize, Option<f64>, Option<f64>)>,
}

impl Analysis {
    fn fold(events: &[TraceLine]) -> Analysis {
        let start = events.first().map_or(SimTime::ZERO, |&(_, at, _)| at);
        let end = events.last().map_or(SimTime::ZERO, |&(_, at, _)| at);
        let mut a = Analysis {
            view: ClusterView::default(),
            start,
            end,
            num_events: events.len(),
            started: BTreeMap::new(),
            reduce_started: BTreeMap::new(),
            wait_s: BTreeMap::new(),
            jobs: BTreeMap::new(),
            total_energy_j: None,
            reduce_decisions: Vec::new(),
        };
        for &(_, at, ref event) in events {
            let sojourn = a.view.apply(at, event);
            match event {
                SimEvent::JobCompleted { job } => {
                    if let Some(sojourn) = sojourn {
                        a.jobs.entry(*job).or_default().completed = Some((at, sojourn));
                    }
                }
                SimEvent::TaskStarted { task, machine, .. } => {
                    let m = machine.index();
                    *a.started.entry(m).or_insert(0) += 1;
                    let submitted = a.view.submits.get(&task.job).copied();
                    let life = a.jobs.entry(task.job).or_default();
                    if life.first_start.is_none() {
                        life.first_start = Some(at);
                        life.first_wait_s = submitted.map(|sub| (at - sub).as_secs_f64());
                    }
                    if task.task.kind == SlotKind::Reduce {
                        *a.reduce_started.entry(m).or_insert(0) += 1;
                        life.first_reduce_start.get_or_insert(at);
                        life.reduce_machines.push(m);
                    }
                    if let Some(sub) = submitted {
                        *a.wait_s.entry(m).or_insert(0.0) += (at - sub).as_secs_f64();
                    }
                }
                SimEvent::TaskCompleted { task, won, .. }
                    if *won && task.task.kind == SlotKind::Map =>
                {
                    a.jobs.entry(task.job).or_default().last_map_done = Some(at);
                }
                SimEvent::AssignmentDecision {
                    machine,
                    kind: SlotKind::Reduce,
                    chosen,
                    candidates,
                } => {
                    let chosen_tau = candidates
                        .iter()
                        .find(|c| c.job == *chosen)
                        .and_then(|c| c.tau);
                    let others: Vec<f64> = candidates
                        .iter()
                        .filter(|c| c.job != *chosen)
                        .filter_map(|c| c.tau)
                        .collect();
                    let mean_other = if others.is_empty() {
                        None
                    } else {
                        Some(others.iter().sum::<f64>() / others.len() as f64)
                    };
                    a.reduce_decisions
                        .push((machine.index(), chosen_tau, mean_other));
                }
                _ => {}
            }
        }
        a.total_energy_j = a.view.metered_joules;
        a
    }

    /// A machine's view row, once an occupancy event has reported its
    /// slot capacities.
    fn reported(&self, machine: usize) -> Option<&MachineRow> {
        self.view
            .machines
            .get(&MachineId(machine))
            .filter(|row| row.slots_reported)
    }

    /// Group label of a machine: its slot signature, the only hardware
    /// identity an event stream carries.
    fn group_of(&self, machine: usize) -> String {
        match self.reported(machine) {
            Some(row) => format!("{}m/{}r", row.map.capacity, row.reduce.capacity),
            None => "?".to_owned(),
        }
    }

    /// Machines per group, keyed by group label.
    fn groups(&self) -> BTreeMap<String, Vec<usize>> {
        let mut machines: Vec<usize> = self
            .view
            .machines
            .iter()
            .filter(|(_, row)| row.slots_reported)
            .map(|(m, _)| m.index())
            .collect();
        for &m in self.started.keys() {
            if self.reported(m).is_none() {
                machines.push(m);
            }
        }
        let mut out: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for m in machines {
            out.entry(self.group_of(m)).or_default().push(m);
        }
        out
    }

    /// Completed jobs as `(job, sojourn_s)`, ascending by sojourn.
    fn sojourns(&self) -> Vec<(JobId, f64)> {
        let mut out: Vec<(JobId, f64)> = self
            .jobs
            .iter()
            .filter_map(|(&job, life)| Some((job, life.completed?.1)))
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }
}

fn sum_map<T: Copy + Default + std::iter::Sum>(m: &BTreeMap<usize, T>, machines: &[usize]) -> T {
    machines
        .iter()
        .map(|m2| m.get(m2).copied().unwrap_or_default())
        .sum()
}

/// The machine-group attribution table: busy share, attributed energy,
/// task counts and absorbed queue wait per slot-signature group.
fn group_table(a: &Analysis) -> String {
    let groups = a.groups();
    if groups.is_empty() {
        return "machine groups: no machine activity in the event window\n".to_owned();
    }
    let total_busy: f64 = a
        .view
        .machines
        .values()
        .filter(|row| row.slots_reported)
        .map(|row| row.busy_slot_seconds(a.end))
        .sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Machine-group attribution (groups = slot signatures; energy split \
         by busy-slot-time share):"
    );
    let _ = writeln!(
        out,
        "  {:<8} {:>8} {:>10} {:>11} {:>9} {:>9} {:>12}",
        "group", "machines", "busy sh %", "energy MJ", "tasks", "reduces", "wait sum h"
    );
    for (label, machines) in &groups {
        let busy: f64 = machines
            .iter()
            .map(|&m| {
                a.reported(m)
                    .map_or(0.0, |row| row.busy_slot_seconds(a.end))
            })
            .sum();
        let share = if total_busy > 0.0 {
            busy / total_busy
        } else {
            0.0
        };
        let energy = a.total_energy_j.map(|e| e * share);
        let _ = writeln!(
            out,
            "  {:<8} {:>8} {:>10.1} {:>11} {:>9} {:>9} {:>12.2}",
            label,
            machines.len(),
            share * 100.0,
            energy.map_or("-".to_owned(), |e| format!("{:.3}", e / 1e6)),
            sum_map(&a.started, machines),
            sum_map(&a.reduce_started, machines),
            sum_map(&a.wait_s, machines) / 3600.0,
        );
    }
    out
}

/// The per-job critical-path table for the sojourn tail (jobs at or above
/// the nearest-rank p99, at least three when available).
fn tail_table(a: &Analysis) -> (String, Vec<JobId>) {
    let sojourns = a.sojourns();
    if sojourns.is_empty() {
        return (
            "critical paths: no complete job lifecycle in the event window\n".to_owned(),
            Vec::new(),
        );
    }
    let p99 = {
        let rank = (99 * sojourns.len()).div_ceil(100).max(1);
        sojourns[rank - 1].1
    };
    let mut tail: Vec<(JobId, f64)> = sojourns
        .iter()
        .filter(|&&(_, s)| s >= p99)
        .copied()
        .collect();
    // A tail of one is not a pattern: widen to the slowest three.
    let want = 3.min(sojourns.len());
    if tail.len() < want {
        tail = sojourns[sojourns.len() - want..].to_vec();
    }
    tail.reverse(); // slowest first

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Critical paths of the sojourn tail ({} of {} completed jobs at or \
         above p99 = {:.1} s):",
        tail.len(),
        sojourns.len(),
        p99
    );
    let _ = writeln!(
        out,
        "  {:<8} {:>10} {:>8} {:>8} {:>9} {:>8}  reduce machines",
        "job", "sojourn s", "wait s", "map s", "rd-lag s", "reduce s"
    );
    for &(job, sojourn) in &tail {
        let life = &a.jobs[&job];
        let Some((done, _)) = life.completed else {
            continue;
        };
        let wait = life.first_wait_s;
        let map_span = match (life.first_start, life.last_map_done) {
            (Some(s), Some(e)) => Some((e - s).as_secs_f64()),
            _ => None,
        };
        let reduce_lag = match (life.last_map_done, life.first_reduce_start) {
            (Some(m), Some(r)) => Some((r - m).as_secs_f64()),
            _ => None,
        };
        let reduce_span = life.first_reduce_start.map(|r| (done - r).as_secs_f64());
        let fmt = |v: Option<f64>| v.map_or("-".to_owned(), |v| format!("{v:.1}"));
        let mut machines: Vec<String> = life
            .reduce_machines
            .iter()
            .map(|&m| format!("{m} ({})", a.group_of(m)))
            .collect();
        machines.dedup();
        let _ = writeln!(
            out,
            "  {:<8} {:>10.1} {:>8} {:>8} {:>9} {:>8}  {}",
            format!("{job}"),
            sojourn,
            fmt(wait),
            fmt(map_span),
            fmt(reduce_lag),
            fmt(reduce_span),
            if machines.is_empty() {
                "-".to_owned()
            } else {
                machines.join(", ")
            },
        );
    }
    (out, tail.into_iter().map(|(j, _)| j).collect())
}

/// The tail-blame conclusion: which group served the tail's reduce tasks,
/// from job lifecycles when available, else from placement concentration.
fn blame_lines(a: &Analysis, tail: &[JobId]) -> String {
    let mut per_group: BTreeMap<String, u64> = BTreeMap::new();
    let mut total = 0u64;
    let source;
    if tail.is_empty() {
        // Evidence-window fallback: blame the reduce placements themselves.
        source = "reduce placements in the evidence window";
        for &(m, _, _) in &a.reduce_decisions {
            *per_group.entry(a.group_of(m)).or_insert(0) += 1;
            total += 1;
        }
        if total == 0 {
            for (&m, &n) in &a.reduce_started {
                *per_group.entry(a.group_of(m)).or_insert(0) += n;
                total += n;
            }
        }
    } else {
        source = "tail-job reduce tasks";
        for job in tail {
            for &m in &a.jobs[job].reduce_machines {
                *per_group.entry(a.group_of(m)).or_insert(0) += 1;
                total += 1;
            }
        }
    }
    if total == 0 {
        return "tail blame: no reduce activity to attribute\n".to_owned();
    }
    let (group, count) = per_group
        .iter()
        .max_by_key(|&(g, &n)| (n, std::cmp::Reverse(g.clone())))
        .map(|(g, &n)| (g.clone(), n))
        .expect("non-empty by construction");
    format!(
        "tail blame: machine group {group} served {count} of {total} {source} \
         ({:.0}%)\n",
        count as f64 / total as f64 * 100.0
    )
}

/// The reinforced-placement evidence: per-machine reduce-decision
/// concentration with the mean chosen-vs-alternative pheromone ratio.
fn reinforcement_lines(a: &Analysis) -> String {
    if a.reduce_decisions.is_empty() {
        return String::new();
    }
    let mut per_machine: BTreeMap<usize, (u64, Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for &(m, chosen, other) in &a.reduce_decisions {
        let entry = per_machine.entry(m).or_default();
        entry.0 += 1;
        if let Some(t) = chosen {
            entry.1.push(t);
        }
        if let Some(t) = other {
            entry.2.push(t);
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<f64>() / v.len() as f64)
        }
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Reinforced placements — {} reduce decisions, by machine (chosen τ \
         vs mean alternative τ; ratios > 1 mean the trail, not the queue, \
         placed the task):",
        a.reduce_decisions.len()
    );
    let _ = writeln!(
        out,
        "  {:<10} {:>10} {:>10} {:>10} {:>8}",
        "machine", "placements", "chosen τ", "alt τ", "ratio"
    );
    let mut rows: Vec<_> = per_machine.iter().collect();
    rows.sort_by_key(|&(m, &(n, _, _))| (std::cmp::Reverse(n), *m));
    for (m, (n, chosen, other)) in rows {
        let c = mean(chosen);
        let o = mean(other);
        let ratio = match (c, o) {
            (Some(c), Some(o)) if o > 0.0 => format!("{:.2}", c / o),
            _ => "-".to_owned(),
        };
        let fmt = |v: Option<f64>| v.map_or("-".to_owned(), |v| format!("{v:.4}"));
        let _ = writeln!(
            out,
            "  {:<10} {:>10} {:>10} {:>10} {:>8}",
            format!("{m} ({})", a.group_of(*m)),
            n,
            fmt(c),
            fmt(o),
            ratio,
        );
    }
    out
}

/// Renders the breach header of a postmortem bundle.
fn breach_header(doc: &JsonValue) -> String {
    let str_of = |k: &str| {
        doc.get(k)
            .and_then(JsonValue::as_str)
            .unwrap_or("?")
            .to_owned()
    };
    let num = |k: &str| doc.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
    let uint = |k: &str| doc.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    format!(
        "SLO breach — scenario {} / {} seed {}{}\n\
           monitor {}: observed {:.1} > threshold {:.1} at t={:.1} s\n\
           window at breach: p99 sojourn {:.1} s over {} completions, queue \
         depth {}, backlog growth {:+.1} tasks/min\n",
        str_of("scenario"),
        str_of("scheduler"),
        uint("seed"),
        if doc.get("fast").and_then(JsonValue::as_bool) == Some(true) {
            " (fast)"
        } else {
            ""
        },
        str_of("monitor"),
        num("observed"),
        num("threshold"),
        uint("at_ms") as f64 / 1000.0,
        num("p99_sojourn_s"),
        uint("window_completions"),
        uint("queue_depth"),
        num("backlog_growth_per_min"),
    )
}

/// Telemetry context from a bundle's series slice: run-to-breach energy
/// and per-machine task totals (the ring alone only covers seconds).
fn series_context(a: &mut Analysis, series: &SeriesSnapshot) -> String {
    let mut out = String::new();
    if let Some(e) = series
        .get("cumulative_energy_joules")
        .and_then(|s| s.last_value())
    {
        if a.total_energy_j.is_none() {
            a.total_energy_j = Some(e);
        }
        let _ = writeln!(
            out,
            "telemetry to breach: {:.3} MJ consumed across the fleet",
            e / 1e6
        );
    }
    // Re-sum windowed deltas into run-to-breach per-machine task totals.
    let mut filled = false;
    for s in &series.series {
        let Some(m) = s
            .name()
            .strip_prefix("tasks_started_total{machine=")
            .and_then(|rest| rest.strip_suffix('}'))
            .and_then(|n| n.parse::<usize>().ok())
        else {
            continue;
        };
        let total: f64 = s.iter().map(|(_, v)| v).sum();
        let slot = a.started.entry(m).or_insert(0);
        *slot = (*slot).max(total as u64);
        filled = true;
    }
    if filled {
        let _ = writeln!(
            out,
            "telemetry to breach: per-machine task totals re-summed from \
             windowed counter deltas"
        );
    }
    out
}

/// Runs `explain` on a trace file or a postmortem bundle directory.
///
/// # Errors
///
/// Returns unreadable/malformed input errors with the offending path.
pub fn run(path: &Path) -> Result<String, String> {
    let bundle_events = path.join("events.jsonl");
    if path.is_dir() || bundle_events.is_file() {
        if !bundle_events.is_file() {
            return Err(format!(
                "{}: not a postmortem bundle (no events.jsonl)",
                path.display()
            ));
        }
        return explain_bundle(path);
    }
    let events = load_trace(path)?;
    Ok(render(Analysis::fold(&events), None, &events))
}

fn explain_bundle(dir: &Path) -> Result<String, String> {
    let events = load_trace(&dir.join("events.jsonl"))?;
    let breach_path = dir.join("breach.json");
    let breach = std::fs::read_to_string(&breach_path)
        .map_err(|e| format!("cannot read {}: {e}", breach_path.display()))
        .and_then(|text| {
            JsonValue::parse(&text).map_err(|e| format!("{}: {e}", breach_path.display()))
        })?;
    let series = match std::fs::read_to_string(dir.join("series.json")) {
        Ok(text) => Some(
            SeriesSnapshot::parse(&text)
                .map_err(|e| format!("{}: {e}", dir.join("series.json").display()))?,
        ),
        Err(_) => None,
    };
    let mut a = Analysis::fold(&events);
    let mut header = breach_header(&breach);
    if let Some(series) = &series {
        header.push_str(&series_context(&mut a, series));
    }
    Ok(render(a, Some(header), &events))
}

fn render(a: Analysis, header: Option<String>, events: &[TraceLine]) -> String {
    let mut out = String::new();
    if let Some(h) = &header {
        out.push_str(h);
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "explain: {} events spanning t={:.1} s … t={:.1} s\n",
        a.num_events,
        a.start.as_secs_f64(),
        a.end.as_secs_f64()
    );
    out.push_str(&group_table(&a));
    out.push('\n');
    let (tail_report, tail) = tail_table(&a);
    out.push_str(&tail_report);
    out.push('\n');
    let reinforcement = reinforcement_lines(&a);
    if !reinforcement.is_empty() {
        out.push_str(&reinforcement);
        out.push('\n');
    }
    let breakdown = decision_breakdown(
        events.iter().map(|(_, at, event)| (*at, event)),
        SlotKind::Reduce,
        3,
    );
    if !breakdown.is_empty() {
        out.push_str(&breakdown);
        out.push('\n');
    }
    out.push_str(&blame_lines(&a, &tail));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::run_monitored;

    fn overload_bundle() -> crate::slo::PostmortemBundle {
        let spec = crate::scenario::load_spec(
            &crate::scenario::library_dir().join("serve-overload-burst-slo.json"),
        )
        .expect("committed slo scenario parses");
        let eant = spec
            .schedulers
            .iter()
            .find(|k| k.label() == "E-Ant")
            .expect("slo scenario compares E-Ant")
            .clone();
        run_monitored(&spec, &eant, spec.seeds[0], true)
            .postmortem
            .expect("E-Ant must breach the overload SLO")
    }

    #[test]
    fn explains_a_trace_file() {
        let dir = std::env::temp_dir().join("eant-explain-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-{}.jsonl", std::process::id()));
        crate::timeline::write_trace(true, &path).unwrap();
        let report = run(&path).unwrap();
        assert!(report.contains("Machine-group attribution"), "{report}");
        assert!(
            report.contains("Critical paths of the sojourn tail"),
            "{report}"
        );
        assert!(report.contains("tail blame: machine group"), "{report}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(crate::timeline::registry_snapshot_path(&path)).ok();
        std::fs::remove_file(crate::timeline::telemetry_series_path(&path)).ok();
    }

    #[test]
    fn explains_a_postmortem_bundle() {
        let bundle = overload_bundle();
        let root = std::env::temp_dir().join(format!("eant-explain-pm-{}", std::process::id()));
        let dir = bundle.write_to(&root).unwrap();
        let report = run(&dir).unwrap();
        assert!(
            report.contains("SLO breach — scenario serve-overload-burst-slo"),
            "{report}"
        );
        assert!(report.contains("monitor p99_sojourn"), "{report}");
        assert!(report.contains("Reinforced placements"), "{report}");
        assert!(report.contains("tail blame: machine group"), "{report}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn rejects_garbage_inputs() {
        let dir = std::env::temp_dir().join(format!("eant-explain-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(run(&dir).unwrap_err().contains("not a postmortem bundle"));
        let path = dir.join("empty.jsonl");
        std::fs::write(&path, "").unwrap();
        assert!(run(&path).is_err());
        // A huge machine id is one machine, not a fleet to allocate.
        std::fs::write(
            &path,
            "{\"at\":0,\"type\":\"slot_occupancy_changed\",\"machine\":1000000000000,\
             \"kind\":\"map\",\"occupied\":1,\"capacity\":2}\n",
        )
        .unwrap();
        let report = run(&path).unwrap();
        assert!(report.contains("2m/0r"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
