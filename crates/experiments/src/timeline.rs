//! Slot-occupancy / queue-depth timeline (repository diagnostic, not a
//! paper figure), plus the `--trace` / `--replay` JSONL plumbing.
//!
//! The timeline folds the typed event stream into a bucketed table of
//! cluster load over time — busy map/reduce slots, pending tasks, active
//! jobs — for Fair vs E-Ant on the same workload. It exists to make
//! saturation *visible*: the paper-scale MSD mix submits 87 jobs in a
//! 35-minute window while the 16-node fleet drains them over hours, so the
//! pending-task queue grows roughly linearly through the submission window
//! and the cluster runs slot-saturated for most of the run (see
//! EXPERIMENTS.md).

use std::io::BufWriter;
use std::path::{Path, PathBuf};

use cluster::SlotKind;
use eant::EAntConfig;
use hadoop_sim::trace::{Observer, SharedObserver};
use hadoop_sim::{FaultConfig, RunResult, SimEvent};
use metrics::observers::StreamingRunStats;
use metrics::registry::RegistryObserver;
use metrics::report::Table;
use metrics::trace::JsonlTraceSink;
use simcore::SimTime;

use crate::common::SchedulerKind;
use crate::scenario::{msd_spec, WorkloadSpec};
use crate::view::{load_trace, ClusterView};

/// One load sample, taken at each `HeartbeatDrained` event.
#[derive(Debug, Clone, Copy)]
struct LoadSample {
    at: SimTime,
    busy_map: u64,
    busy_reduce: u64,
    pending: u64,
    active_jobs: u64,
    standby: u64,
}

/// An [`Observer`] that samples cluster-wide load at each heartbeat: busy
/// slots per kind, queue depth, active jobs and standby machines, all read
/// from the [`ClusterView`] it folds.
#[derive(Debug, Default)]
pub struct TimelineRecorder {
    view: ClusterView,
    samples: Vec<LoadSample>,
}

impl TimelineRecorder {
    /// Renders the recorded samples as a bucketed table: `buckets` rows
    /// covering `[0, makespan]`, each averaging the samples in its window.
    pub fn render(&self, title: &str, buckets: usize) -> String {
        assert!(buckets > 0, "need at least one bucket");
        let Some(last) = self.samples.last() else {
            return format!("{title}: no samples recorded\n");
        };
        let end = last.at.as_millis().max(1);
        // Accumulate (sum, count) per bucket per column.
        let mut acc = vec![[0u64; 5]; buckets];
        let mut counts = vec![0u64; buckets];
        for s in &self.samples {
            let b =
                ((s.at.as_millis().saturating_mul(buckets as u64) / end) as usize).min(buckets - 1);
            counts[b] += 1;
            acc[b][0] += s.busy_map;
            acc[b][1] += s.busy_reduce;
            acc[b][2] += s.pending;
            acc[b][3] += s.active_jobs;
            acc[b][4] += s.standby;
        }
        let mut table = Table::new(
            title,
            &[
                "t (min)", "busy map", "busy red", "pending", "jobs", "standby",
            ],
        );
        for (b, (sums, n)) in acc.iter().zip(&counts).enumerate() {
            if *n == 0 {
                continue;
            }
            let mid_ms = end as f64 * (b as f64 + 0.5) / buckets as f64;
            let mean = |v: u64| v as f64 / *n as f64;
            table.row(&[
                format!("{:.1}", mid_ms / 60_000.0),
                format!("{:.1}", mean(sums[0])),
                format!("{:.1}", mean(sums[1])),
                format!("{:.0}", mean(sums[2])),
                format!("{:.1}", mean(sums[3])),
                format!("{:.1}", mean(sums[4])),
            ]);
        }
        table.render()
    }

    /// Peak queue depth over the run and the minute it occurred.
    pub fn peak_pending(&self) -> Option<(f64, u64)> {
        self.samples
            .iter()
            .max_by_key(|s| s.pending)
            .map(|s| (s.at.as_mins_f64(), s.pending))
    }

    /// First minute at which the queue drained to zero after its peak, if
    /// it did.
    pub fn drained_at_min(&self) -> Option<f64> {
        let (peak_min, peak) = self.peak_pending()?;
        if peak == 0 {
            return Some(0.0);
        }
        self.samples
            .iter()
            .find(|s| s.at.as_mins_f64() > peak_min && s.pending == 0)
            .map(|s| s.at.as_mins_f64())
    }
}

impl Observer<SimEvent> for TimelineRecorder {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        self.view.on_event(at, event);
        if let SimEvent::HeartbeatDrained { .. } = event {
            self.samples.push(LoadSample {
                at,
                busy_map: self.view.busy_map,
                busy_reduce: self.view.busy_reduce,
                pending: self.view.queue_depth,
                active_jobs: self.view.active_jobs,
                standby: self.view.standby,
            });
        }
    }
}

/// Runs the seed-2015 MSD scenario under a scheduler with a timeline
/// recorder attached, returning the recorder and the run result.
fn record_timeline(
    fast: bool,
    kind: &SchedulerKind,
) -> (SharedObserver<TimelineRecorder>, RunResult) {
    let recorder = SharedObserver::new(TimelineRecorder::default());
    let handle = recorder.clone();
    let result = msd_spec().execute_scaled_observed(kind, 2015, fast, 1.0, move |engine, _| {
        engine.attach_observer(Box::new(handle));
    });
    (recorder, result)
}

/// The timeline experiment: cluster load over time under Fair vs E-Ant,
/// with the saturation summary the paper-scale Fig. 8(a) discussion relies
/// on.
pub fn run(fast: bool) -> String {
    let spec = msd_spec();
    let WorkloadSpec::Msd(msd) = spec.workload_for(fast) else {
        unreachable!("fig8-msd.json is an MSD workload");
    };
    let (map_cap, reduce_cap) =
        spec.build_fleet()
            .iter()
            .fold((0usize, 0usize), |(m, r), machine| {
                (
                    m + machine.profile().map_slots(),
                    r + machine.profile().reduce_slots(),
                )
            });
    let window_min = msd.submission_window.as_mins_f64();

    let mut out = format!(
        "Cluster load timeline — {} MSD jobs submitted over {:.0} min, \
         {} map / {} reduce slots fleet-wide\n\n",
        msd.num_jobs, window_min, map_cap, reduce_cap
    );
    for kind in [
        SchedulerKind::Fair,
        SchedulerKind::EAnt(EAntConfig::paper_default()),
    ] {
        let (recorder, result) = record_timeline(fast, &kind);
        recorder.with(|r| {
            out.push_str(&r.render(
                &format!(
                    "{} (makespan {:.0} s)",
                    kind.label(),
                    result.makespan.as_secs_f64()
                ),
                16,
            ));
            if let Some((peak_min, peak)) = r.peak_pending() {
                out.push_str(&format!(
                    "  peak queue: {peak} pending tasks at {peak_min:.1} min"
                ));
                match r.drained_at_min() {
                    Some(m) => out.push_str(&format!(", drained at {m:.1} min\n\n")),
                    None => out.push_str(", never drained during sampling\n\n"),
                }
            }
        });
    }
    out.push_str(
        "The queue peaks near the end of the submission window and the run\n\
         spends most of its span slot-saturated: makespan is capacity-bound,\n\
         which is why energy (not completion time) separates the schedulers\n\
         at this load (see EXPERIMENTS.md, paper-scale notes).\n",
    );
    out
}

/// Options for [`write_trace_with`]: which run to trace and how much to
/// record.
#[derive(Debug, Clone, Copy)]
pub struct TraceOptions {
    /// Fast (CI) vs paper-scale workload.
    pub fast: bool,
    /// Root seed for workload generation and the engine.
    pub seed: u64,
    /// Emit per-placement `assignment_decision` events (the Eq. 8
    /// breakdown) alongside the lifecycle stream.
    pub decisions: bool,
}

impl TraceOptions {
    /// The historical `--trace` configuration: seed 2015, decisions off.
    pub fn new(fast: bool) -> Self {
        TraceOptions {
            fast,
            seed: 2015,
            decisions: false,
        }
    }
}

/// Path of the registry snapshot written next to a trace: the trace path
/// with `.registry.json` appended.
pub fn registry_snapshot_path(trace_path: &Path) -> PathBuf {
    let mut name = trace_path.as_os_str().to_owned();
    name.push(".registry.json");
    PathBuf::from(name)
}

/// Path of the sampled telemetry time series written next to a trace: the
/// trace path with `.series.json` appended. `watch` reads this file (when
/// present) to plot real per-interval series instead of re-deriving them.
pub fn telemetry_series_path(trace_path: &Path) -> PathBuf {
    let mut name = trace_path.as_os_str().to_owned();
    name.push(".series.json");
    PathBuf::from(name)
}

/// Runs the E-Ant scenario with a JSONL trace sink attached to both the
/// engine and the scheduler streams, writing one canonical line per event
/// to `path`. The streamed aggregates are verified against the post-hoc
/// result before returning. Equivalent to [`write_trace_with`] at
/// [`TraceOptions::new`].
///
/// # Errors
///
/// Returns an error for I/O failures or a streaming/post-hoc mismatch.
pub fn write_trace(fast: bool, path: &Path) -> Result<String, String> {
    write_trace_with(TraceOptions::new(fast), path)
}

/// Runs the E-Ant scenario per `opts` with a JSONL trace sink attached to
/// both the engine and the scheduler streams, writing one canonical line
/// per event to `path`, and a [`metrics::registry`] snapshot (counters,
/// gauges, histograms folded from the same stream) next to it at
/// [`registry_snapshot_path`]. The streamed aggregates are verified against
/// the post-hoc result before returning.
///
/// The run injects [`FaultConfig::moderate`] faults so the trace exercises
/// the full event vocabulary — crashes, retries, lost map outputs — and
/// replay validates the failure-aware aggregate folds, not just the happy
/// path. With `opts.decisions` the trace additionally carries one
/// `assignment_decision` line per placement (candidate set, τ/η split,
/// Eq. 8 probability).
///
/// # Errors
///
/// Returns an error for I/O failures or a streaming/post-hoc mismatch.
pub fn write_trace_with(opts: TraceOptions, path: &Path) -> Result<String, String> {
    let mut spec = msd_spec().clone();
    spec.engine.fault = FaultConfig::moderate();
    spec.engine.trace_decisions = opts.decisions;
    let machines = spec.build_fleet().len();
    let file = std::fs::File::create(path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let sink = SharedObserver::new(JsonlTraceSink::new(BufWriter::new(file)));
    let stats = SharedObserver::new(StreamingRunStats::new(machines));
    let registry = SharedObserver::new(RegistryObserver::with_sampling());

    let kind = SchedulerKind::EAnt(EAntConfig::paper_default());
    let sink_handle = sink.clone();
    let stats_handle = stats.clone();
    let registry_handle = registry.clone();
    let result = spec.execute_scaled_observed(
        &kind,
        opts.seed,
        opts.fast,
        1.0,
        move |engine, scheduler| {
            engine.attach_observer(Box::new(sink_handle.clone()));
            engine.attach_observer(Box::new(stats_handle));
            engine.attach_observer(Box::new(registry_handle.clone()));
            scheduler.attach_observer(Box::new(sink_handle));
            scheduler.attach_observer(Box::new(registry_handle));
        },
    );

    stats
        .with(|s| s.matches(&result))
        .map_err(|e| format!("streaming aggregates diverged from RunResult: {e}"))?;
    let lines = sink.with(|s| s.lines());
    sink.try_into_inner()
        .map_err(|_| "trace sink still shared after run".to_owned())?
        .finish()
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let snapshot_path = registry_snapshot_path(path);
    let snapshot = registry.with(|r| r.registry().snapshot().render());
    std::fs::write(&snapshot_path, snapshot.as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", snapshot_path.display()))?;

    let series_path = telemetry_series_path(path);
    let series = registry
        .with(|r| r.series_snapshot())
        .expect("sampling registry always has a series snapshot");
    std::fs::write(&series_path, series.render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", series_path.display()))?;

    Ok(format!(
        "wrote {} trace events to {} (E-Ant, seed {}, moderate faults, \
         decision tracing {}, makespan {:.0} s, {:.3} MJ; streaming \
         aggregates verified against RunResult; registry snapshot at {}, \
         telemetry series at {})",
        lines,
        path.display(),
        opts.seed,
        if opts.decisions { "on" } else { "off" },
        result.makespan.as_secs_f64(),
        result.total_energy_joules() / 1e6,
        snapshot_path.display(),
        series_path.display(),
    ))
}

/// Replays a JSONL trace from `path` through the streaming consumers and
/// validates it: every line must parse, timestamps must be nondecreasing,
/// and the replayed aggregates must match the `run_finished` footer.
///
/// # Errors
///
/// Returns the first malformed line or aggregate mismatch.
pub fn replay(path: &Path) -> Result<String, String> {
    let events = load_trace(path)?;
    let mut num_machines = 0usize;
    for (n, _, event) in &events {
        if let Some(machine) = event.machine() {
            let bound = machine.index().checked_add(1).ok_or_else(|| {
                format!("{}: line {n}: {machine} is out of range", path.display())
            })?;
            num_machines = num_machines.max(bound);
        }
    }
    let mut stats = StreamingRunStats::new(num_machines);
    for (_, at, event) in &events {
        stats.on_event(*at, event);
    }
    let Some((
        _,
        at,
        SimEvent::RunFinished {
            drained,
            total_energy_joules,
            total_tasks,
        },
    )) = events.last()
    else {
        return Err("trace does not end with a run_finished footer".to_owned());
    };
    if stats.makespan() != Some(*at - SimTime::ZERO) {
        return Err("replayed makespan diverges from the footer".to_owned());
    }
    if stats.total_energy_joules().to_bits() != total_energy_joules.to_bits() {
        return Err("replayed energy diverges from the footer".to_owned());
    }
    if stats.total_tasks() != *total_tasks {
        return Err(format!(
            "replayed task count {} diverges from the footer {}",
            stats.total_tasks(),
            total_tasks
        ));
    }
    if stats.energy_series().last_value().map(f64::to_bits) != Some(total_energy_joules.to_bits()) {
        return Err("replayed energy series does not end at the footer total".to_owned());
    }
    if let Some(defect) = stats.inconsistency() {
        return Err(format!("inconsistent trace: {defect}"));
    }
    let mut out = format!(
        "replayed {} events from {}: {} machines, {} tasks, makespan {:.0} s, \
         {:.3} MJ, drained={} — aggregates match the run_finished footer",
        events.len(),
        path.display(),
        num_machines,
        total_tasks,
        at.as_secs_f64(),
        total_energy_joules / 1e6,
        drained,
    );
    let breakdown = decision_breakdown(
        events.iter().map(|(_, at, event)| (*at, event)),
        SlotKind::Reduce,
        3,
    );
    if !breakdown.is_empty() {
        out.push_str("\n\n");
        out.push_str(&breakdown);
    }
    Ok(out)
}

/// Renders the Eq. 8 probability decomposition of the last `last_n`
/// assignment decisions of the given slot `kind` — for reduce slots, the
/// reduce tail: the placements that decide where the final waves land and
/// therefore when the run ends. Empty when the trace carries no decision
/// events (decision tracing was off).
pub fn decision_breakdown<'a>(
    events: impl IntoIterator<Item = (SimTime, &'a SimEvent)>,
    kind: SlotKind,
    last_n: usize,
) -> String {
    let decisions: Vec<_> = events
        .into_iter()
        .filter_map(|(at, e)| match e {
            SimEvent::AssignmentDecision {
                machine,
                kind: k,
                chosen,
                candidates,
            } if *k == kind => Some((at, *machine, *chosen, candidates)),
            _ => None,
        })
        .collect();
    if decisions.is_empty() {
        return String::new();
    }
    let tag = match kind {
        SlotKind::Map => "map",
        SlotKind::Reduce => "reduce",
    };
    let shown = decisions.len().min(last_n);
    let mut out = format!(
        "Eq. 8 decision breakdown — last {shown} of {} {tag} placements \
         (tau x eta -> draw probability):\n",
        decisions.len()
    );
    let fmt_opt = |v: Option<f64>| match v {
        Some(v) => format!("{v:.4}"),
        None => "-".to_owned(),
    };
    for (at, machine, chosen, candidates) in decisions.iter().rev().take(last_n).rev() {
        out.push_str(&format!(
            "  t={:.1} s  machine {:>2} <- job {}\n",
            at.as_secs_f64(),
            machine.index(),
            chosen.index(),
        ));
        for c in candidates.iter() {
            out.push_str(&format!(
                "    job {:>3}{}  tau={}  eta_fair={}  eta_local={}  p={:.4}{}\n",
                c.job.index(),
                if c.local { " (local)" } else { "        " },
                fmt_opt(c.tau),
                fmt_opt(c.eta_fairness),
                fmt_opt(c.eta_locality),
                c.probability,
                if c.job == *chosen { "  <- chosen" } else { "" },
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_renders_for_fast_scenario() {
        let out = run(true);
        assert!(out.contains("Fair (makespan"));
        assert!(out.contains("E-Ant (makespan"));
        assert!(out.contains("peak queue:"));
        let digest = metrics::spec::fnv1a_64(out.as_bytes());
        assert_eq!(
            digest, 0xcf5512e57b7b04bf,
            "timeline --fast output moved: {digest:#018x}"
        );
    }

    #[test]
    fn trace_round_trips_through_replay() {
        let dir = std::env::temp_dir().join("eant-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-{}.jsonl", std::process::id()));
        let written = write_trace(true, &path).unwrap();
        assert!(written.contains("streaming aggregates verified"));
        let raw = std::fs::read_to_string(&path).unwrap();
        for kind in ["task_failed", "machine_failed", "map_output_lost"] {
            assert!(
                raw.contains(&format!("\"type\":\"{kind}\"")),
                "moderate-fault trace should contain {kind} events"
            );
        }
        let replayed = replay(&path).unwrap();
        assert!(
            replayed.contains("aggregates match the run_finished footer"),
            "{replayed}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_rejects_garbage() {
        let dir = std::env::temp_dir().join("eant-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("garbage-{}.jsonl", std::process::id()));
        for (text, expect) in [
            ("not json\n", "line 1: "),
            ("", "trace is empty"),
            (
                "{\"at\":5,\"type\":\"job_completed\",\"job\":1}\n\
                 {\"at\":4,\"type\":\"job_completed\",\"job\":2}\n",
                "line 2: timestamp moved backwards",
            ),
            // A huge machine id is one machine, not a fleet to allocate.
            (
                "{\"at\":0,\"type\":\"slot_occupancy_changed\",\"machine\":1000000000000,\
                 \"kind\":\"map\",\"occupied\":1,\"capacity\":2}\n",
                "run_finished footer",
            ),
            // The largest id has no fleet size that contains it.
            (
                "{\"at\":0,\"type\":\"task_started\",\"task\":{\"job\":0,\"kind\":\"map\",\
                 \"index\":0},\"machine\":18446744073709551615,\"speculative\":false}\n",
                "line 1: m18446744073709551615 is out of range",
            ),
        ] {
            std::fs::write(&path, text).unwrap();
            let err = replay(&path).unwrap_err();
            assert!(err.contains(expect), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_reports_inconsistent_streams_without_panicking() {
        let dir = std::env::temp_dir().join("eant-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("inconsistent-{}.jsonl", std::process::id()));
        let footer = |tasks: u64| {
            format!(
                "{{\"at\":20,\"type\":\"run_finished\",\"drained\":true,\
                 \"total_energy_joules\":5.5,\"total_tasks\":{tasks}}}\n"
            )
        };
        for (text, expect) in [
            // A map output lost before any task won.
            (
                "{\"at\":10,\"type\":\"map_output_lost\",\"task\":{\"job\":0,\"kind\":\"map\",\
                 \"index\":0},\"machine\":0}\n"
                    .to_owned()
                    + &footer(0),
                "map_output_lost with no won task_completed",
            ),
            // A footer that claims more tasks than the stream completed.
            (
                footer(3),
                "replayed task count 0 diverges from the footer 3",
            ),
        ] {
            std::fs::write(&path, text).unwrap();
            let err = replay(&path).unwrap_err();
            assert!(err.contains(expect), "{err}");
        }
        std::fs::remove_file(&path).ok();
    }
}
