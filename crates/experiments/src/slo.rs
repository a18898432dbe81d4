//! Monitored scenario execution: telemetry sampling, the SLO watchdog and
//! the postmortem flight-recorder bundle.
//!
//! [`run_monitored`] wraps one (scheduler, seed) cell of a scenario with
//! the observability stack: a sampling [`RegistryObserver`] records
//! windowed telemetry series at every control interval, and — when the
//! spec carries an `"slo"` section — an [`SloWatchdog`] watches rolling
//! sojourn/queue/backlog monitors with a bounded event ring. Observers are
//! passive (no RNG, no feedback into the engine), so a monitored run
//! produces byte-identical results to a plain [`ScenarioSpec::execute`];
//! the scenario gate's baselines therefore hold with the watchdog riding
//! along.
//!
//! On the first breach, the watchdog's evidence is frozen into a
//! [`PostmortemBundle`]: breach metadata, the last-N events as JSONL, the
//! telemetry series sliced to the breach instant, and the Eq. 8 breakdown
//! of the final reduce placements. [`PostmortemBundle::write_to`] lays the
//! bundle out as a directory that `experiments explain` consumes.

use std::path::{Path, PathBuf};

use cluster::SlotKind;
use hadoop_sim::trace::SharedObserver;
use hadoop_sim::{RunResult, SimEvent, SloBreach, SloStats, SloWatchdog};
use metrics::emit::JsonValue;
use metrics::registry::{RegistryObserver, SeriesSnapshot};
use metrics::spec::{Bool, Codec, Obj, Str, F64, MILLIS, U64};
use metrics::trace::trace_line;
use simcore::SimTime;

use crate::common::SchedulerKind;
use crate::scenario::ScenarioSpec;
use crate::timeline::decision_breakdown;

/// One monitored (scheduler, seed) cell: the plain run result plus the
/// telemetry and watchdog evidence gathered alongside it.
#[derive(Debug)]
pub struct MonitoredCell {
    /// Scheduler label (`FIFO`, `E-Ant`, …).
    pub scheduler: String,
    /// The cell's seed.
    pub seed: u64,
    /// The run result — byte-identical to an unmonitored run.
    pub result: RunResult,
    /// End-of-run registry snapshot (counters, gauges, histograms).
    pub registry: JsonValue,
    /// Telemetry time-series sampled at control intervals.
    pub series: SeriesSnapshot,
    /// End-of-run (or at-breach) rolling-window statistics; `None` when
    /// the spec has no `"slo"` section.
    pub slo_stats: Option<SloStats>,
    /// The postmortem evidence, present exactly when a monitor tripped.
    pub postmortem: Option<PostmortemBundle>,
}

/// Runs one cell of `spec` with the observability stack attached.
///
/// The registry always samples (telemetry is free to collect here — the
/// cell is already paying for event payloads). The watchdog and decision
/// tracing engage only when the spec has an `"slo"` section: decision
/// events are what the flight recorder is for, and flipping
/// `trace_decisions` adds events to the stream without changing engine
/// behavior (pinned by the decision-trace golden digest).
///
/// # Panics
///
/// Panics if the engine retains an observer handle past the run (a
/// harness bug, not a data error).
#[must_use]
pub fn run_monitored(
    spec: &ScenarioSpec,
    kind: &SchedulerKind,
    seed: u64,
    fast: bool,
) -> MonitoredCell {
    let slo = spec.slo.clone();
    let mut traced = spec.clone();
    traced.engine.trace_decisions = slo.is_some();

    let registry = SharedObserver::new(RegistryObserver::with_sampling());
    let watchdog = slo.map(|cfg| SharedObserver::new(SloWatchdog::new(cfg)));
    let reg_handle = registry.clone();
    let wd_handle = watchdog.clone();
    let result = traced.execute_scaled_observed(kind, seed, fast, 1.0, move |engine, scheduler| {
        engine.attach_observer(Box::new(reg_handle.clone()));
        scheduler.attach_observer(Box::new(reg_handle));
        if let Some(wd) = wd_handle {
            engine.attach_observer(Box::new(wd.clone()));
            scheduler.attach_observer(Box::new(wd));
        }
    });

    let registry = registry
        .try_into_inner()
        .unwrap_or_else(|_| panic!("engine retained the registry observer"));
    let series = registry
        .series_snapshot()
        .expect("a sampling observer always has a series snapshot");
    let registry_json = registry.registry().snapshot();

    let mut slo_stats = None;
    let mut postmortem = None;
    if let Some(wd) = watchdog {
        let wd = wd
            .try_into_inner()
            .unwrap_or_else(|_| panic!("engine retained the watchdog observer"));
        slo_stats = Some(wd.stats());
        let (breach, events) = wd.into_parts();
        postmortem = breach
            .map(|breach| PostmortemBundle::new(spec, kind, seed, fast, breach, events, &series));
    }

    MonitoredCell {
        scheduler: kind.label().to_owned(),
        seed,
        result,
        registry: registry_json,
        series,
        slo_stats,
        postmortem,
    }
}

/// A frozen postmortem: everything the flight recorder knew at the first
/// SLO breach, packaged for [`PostmortemBundle::write_to`] and the
/// `experiments explain` report.
#[derive(Debug, Clone)]
pub struct PostmortemBundle {
    /// Scenario name.
    pub scenario: String,
    /// Scheduler label.
    pub scheduler: String,
    /// The run's seed.
    pub seed: u64,
    /// Fast vs full scale.
    pub fast: bool,
    /// The breach that froze the recorder.
    pub breach: SloBreach,
    /// The ring's retained events, oldest first, ending at the breach.
    pub events: Vec<(SimTime, SimEvent)>,
    /// Telemetry series sliced to the breach instant.
    pub series: SeriesSnapshot,
    /// Eq. 8 breakdown of the last reduce placements in the evidence.
    pub decisions: String,
}

/// A postmortem bundle's breach metadata, as `breach.json` holds it: the
/// bundle's cell and its [`SloBreach`], with the monitor by name and the
/// window statistics inline.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct BreachRecord {
    pub scenario: String,
    pub scheduler: String,
    pub seed: u64,
    pub fast: bool,
    pub monitor: String,
    pub at: SimTime,
    pub observed: f64,
    pub threshold: f64,
    pub window_completions: u64,
    pub p95_sojourn_s: f64,
    pub p99_sojourn_s: f64,
    pub queue_depth: u64,
    pub backlog_growth_per_min: f64,
    pub events_recorded: u64,
}

pub(crate) const BREACH: Obj<BreachRecord> = Obj::new(BreachRecord::default, |b, v| {
    v.required("scenario", Str, &mut b.scenario);
    v.required("scheduler", Str, &mut b.scheduler);
    v.required("seed", U64, &mut b.seed);
    v.required("fast", Bool, &mut b.fast);
    v.required("monitor", Str, &mut b.monitor);
    v.required("at_ms", MILLIS, &mut b.at);
    v.required("observed", F64, &mut b.observed);
    v.required("threshold", F64, &mut b.threshold);
    v.required("window_completions", U64, &mut b.window_completions);
    v.required("p95_sojourn_s", F64, &mut b.p95_sojourn_s);
    v.required("p99_sojourn_s", F64, &mut b.p99_sojourn_s);
    v.required("queue_depth", U64, &mut b.queue_depth);
    v.required("backlog_growth_per_min", F64, &mut b.backlog_growth_per_min);
    v.required("events_recorded", U64, &mut b.events_recorded);
});

impl PostmortemBundle {
    fn new(
        spec: &ScenarioSpec,
        kind: &SchedulerKind,
        seed: u64,
        fast: bool,
        breach: SloBreach,
        events: Vec<(SimTime, SimEvent)>,
        series: &SeriesSnapshot,
    ) -> Self {
        let decisions =
            decision_breakdown(events.iter().map(|(at, e)| (*at, e)), SlotKind::Reduce, 5);
        PostmortemBundle {
            scenario: spec.name.clone(),
            scheduler: kind.label().to_owned(),
            seed,
            fast,
            series: series.sliced_until(breach.at),
            decisions,
            breach,
            events,
        }
    }

    /// Canonical breach metadata (`breach.json`).
    #[must_use]
    pub fn breach_json(&self) -> JsonValue {
        let stats = self.breach.stats;
        BREACH.write(&mut BreachRecord {
            scenario: self.scenario.clone(),
            scheduler: self.scheduler.clone(),
            seed: self.seed,
            fast: self.fast,
            monitor: self.breach.monitor.to_owned(),
            at: self.breach.at,
            observed: self.breach.observed,
            threshold: self.breach.threshold,
            window_completions: stats.window_completions,
            p95_sojourn_s: stats.p95_sojourn_s,
            p99_sojourn_s: stats.p99_sojourn_s,
            queue_depth: stats.queue_depth,
            backlog_growth_per_min: stats.backlog_growth_per_min,
            events_recorded: self.events.len() as u64,
        })
    }

    /// The flight-recorder evidence as trace JSONL (`events.jsonl`), one
    /// canonical line per event — the same format as `--trace`, so every
    /// trace consumer (replay, trace-diff, watch, explain) can read it.
    #[must_use]
    pub fn events_jsonl(&self) -> String {
        let mut out = String::new();
        for (at, event) in &self.events {
            out.push_str(&trace_line(*at, event));
            out.push('\n');
        }
        out
    }

    /// Directory name the bundle is written under: scenario, scheduler,
    /// seed and scale, so concurrent sweeps never collide.
    #[must_use]
    pub fn dir_name(&self) -> String {
        format!(
            "{}-{}-seed{}-{}",
            self.scenario,
            self.scheduler.to_lowercase(),
            self.seed,
            if self.fast { "fast" } else { "full" },
        )
    }

    /// Writes the bundle under `root` as `<root>/<dir_name>/{breach.json,
    /// events.jsonl, series.json, decisions.txt}`, returning the bundle
    /// directory. Deterministic: identical runs produce byte-identical
    /// bundles.
    ///
    /// # Errors
    ///
    /// Returns an error when the directory or any file cannot be written.
    pub fn write_to(&self, root: &Path) -> Result<PathBuf, String> {
        let dir = root.join(self.dir_name());
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let write = |name: &str, bytes: &str| {
            let path = dir.join(name);
            std::fs::write(&path, bytes.as_bytes())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))
        };
        write("breach.json", &self.breach_json().render())?;
        write("events.jsonl", &self.events_jsonl())?;
        write("series.json", &self.series.render())?;
        write("decisions.txt", &self.decisions)?;
        Ok(dir)
    }

    /// One-line breach summary for scenario reports.
    #[must_use]
    pub fn summary(&self) -> String {
        let b = &self.breach;
        format!(
            "SLO BREACH {} {} seed {}: {} {:.1} > {:.1} at t={:.0} s \
             (window p99 {:.1} s over {} jobs, queue {}, {} events recorded)",
            self.scenario,
            self.scheduler,
            self.seed,
            b.monitor,
            b.observed,
            b.threshold,
            b.at.as_secs_f64(),
            b.stats.p99_sojourn_s,
            b.stats.window_completions,
            b.stats.queue_depth,
            self.events.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::load_spec;

    fn overload_slo_spec() -> ScenarioSpec {
        load_spec(&crate::scenario::library_dir().join("serve-overload-burst-slo.json"))
            .expect("committed slo scenario parses")
    }

    #[test]
    fn monitored_run_matches_plain_run_bytes() {
        use metrics::emit::run_result_json;
        let mut spec = overload_slo_spec();
        // One scheduler is enough to pin byte-equality.
        spec.schedulers.truncate(1);
        let kind = spec.schedulers[0].clone();
        let monitored = run_monitored(&spec, &kind, spec.seeds[0], true);
        let plain = spec.execute(&kind, spec.seeds[0], true);
        assert_eq!(
            run_result_json(&monitored.result),
            run_result_json(&plain),
            "observers must not perturb the run"
        );
        assert!(!monitored.series.series.is_empty(), "telemetry sampled");
        assert!(monitored.slo_stats.is_some(), "watchdog attached");
    }

    #[test]
    fn spec_without_slo_runs_unmonitored_watchdog() {
        let mut spec = overload_slo_spec();
        spec.slo = None;
        spec.schedulers.truncate(1);
        let kind = spec.schedulers[0].clone();
        let cell = run_monitored(&spec, &kind, spec.seeds[0], true);
        assert!(cell.slo_stats.is_none());
        assert!(cell.postmortem.is_none());
        assert!(!cell.series.series.is_empty());
    }

    #[test]
    fn postmortem_bundle_round_trips_to_disk() {
        let spec = overload_slo_spec();
        let eant = spec
            .schedulers
            .iter()
            .find(|k| k.label() == "E-Ant")
            .expect("slo scenario compares E-Ant")
            .clone();
        let cell = run_monitored(&spec, &eant, spec.seeds[0], true);
        let bundle = cell.postmortem.expect("E-Ant must breach the overload SLO");
        assert!(bundle.summary().contains("SLO BREACH"));
        assert!(
            bundle.decisions.contains("reduce placements"),
            "ring must carry decision events:\n{}",
            bundle.decisions
        );

        let root = std::env::temp_dir().join(format!("eant-postmortem-{}", std::process::id()));
        let dir = bundle.write_to(&root).expect("bundle writes");
        for name in [
            "breach.json",
            "events.jsonl",
            "series.json",
            "decisions.txt",
        ] {
            assert!(dir.join(name).is_file(), "{name} missing from bundle");
        }
        let breach = std::fs::read_to_string(dir.join("breach.json")).unwrap();
        assert_eq!(breach, bundle.breach_json().render());
        std::fs::remove_dir_all(&root).ok();
    }
}
