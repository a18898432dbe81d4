//! A deterministic in-process metrics registry.
//!
//! [`Registry`] holds the fixed set of counters, gauges and fixed-bucket
//! histograms that [`RegistryObserver`] folds out of the typed event
//! stream: every metric name, label key and bucket layout is code, so the
//! store is a handful of typed fields and the hot path never builds or
//! hashes a string. Snapshots are canonical: metrics are emitted sorted by
//! name then label set through the [`crate::emit`] JSON emitter, so two
//! identical runs produce byte-identical snapshot files (the registry
//! equivalent of the golden trace digests).
//!
//! [`RegistryObserver`] is the bridge from the typed event stream: attach
//! one to an engine (and scheduler) and it folds every [`SimEvent`] into
//! event counters, per-machine task counters, queue-depth and task-duration
//! histograms, and the fleet energy gauge — including the per-decision
//! counters when [`hadoop_sim::EngineConfig::trace_decisions`] is on.
//!
//! # Sampling mode
//!
//! [`RegistryObserver::with_sampling`] additionally turns the registry into
//! a telemetry *time-series* source: every `control_interval_fired` event
//! (and the final `run_finished`) takes one sample of the whole registry —
//! the windowed **delta** of every counter, the instantaneous value of
//! every gauge, and bucket-estimated p50/p95/p99 points of every histogram
//! — into a bounded per-series [`TimeSeries`] store keyed by
//! `name{label=value,...}`. Counter deltas re-sum to the end-of-run
//! snapshot exactly (a property the test suite pins), so the series file is
//! a faithful windowed decomposition of the snapshot, not an approximation.
//! [`SeriesSnapshot`] is the canonical JSON codec for the store.
//!
//! # Examples
//!
//! ```
//! use hadoop_sim::{trace::Observer, SimEvent};
//! use metrics::registry::RegistryObserver;
//! use simcore::SimTime;
//! use workload::JobId;
//!
//! let mut obs = RegistryObserver::new();
//! obs.on_event(SimTime::from_secs(1), &SimEvent::JobCompleted { job: JobId(0) });
//! let snap = obs.registry().snapshot().render();
//! assert!(snap.contains(r#""labels":{"type":"job_completed"},"value":1"#));
//! ```

use std::collections::BTreeMap;

use cluster::{MachineId, SlotKind};
use hadoop_sim::trace::Observer;
use hadoop_sim::SimEvent;
use simcore::series::TimeSeries;
use simcore::SimTime;
use workload::TaskId;

use crate::emit::{object, JsonValue, SERIES};
use crate::spec::{Codec, List, Obj, U64};

/// Queue-depth histogram bounds (pending tasks at each heartbeat drain).
const QUEUE_DEPTH_BOUNDS: [f64; 8] = [0.0, 8.0, 32.0, 128.0, 512.0, 2048.0, 8192.0, 32768.0];
/// Task-duration histogram bounds, in seconds.
const DURATION_BOUNDS: [f64; 9] = [5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0];
/// Candidate-set-size histogram bounds (per assignment decision).
const CANDIDATES_BOUNDS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// `kind` label values, indexed by [`kind_index`].
const KIND_TAGS: [&str; 2] = ["map", "reduce"];
/// `outcome` label values of `tasks_completed_total`, indexed by `won`.
const OUTCOME_TAGS: [&str; 2] = ["lost", "won"];

fn kind_index(kind: SlotKind) -> usize {
    match kind {
        SlotKind::Map => 0,
        SlotKind::Reduce => 1,
    }
}

#[derive(Debug)]
struct Histogram {
    /// Inclusive upper bounds, ascending. One overflow bucket past the end.
    bounds: &'static [f64],
    /// `bounds.len() + 1` cumulative-free per-bucket counts.
    buckets: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    /// Records `value` into the histogram in `slot`, creating it over
    /// `bounds` on first use.
    fn observe(slot: &mut Option<Histogram>, bounds: &'static [f64], value: f64) {
        let h = slot.get_or_insert_with(|| Histogram {
            bounds,
            buckets: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        });
        let idx = bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(bounds.len());
        h.buckets[idx] += 1;
        h.sum += value;
        h.count += 1;
    }

    /// Nearest-rank percentile estimate: the inclusive upper bound of the
    /// bucket holding the rank-th observation, clamped to the last finite
    /// bound for the overflow bucket.
    fn percentile(&self, p: u64) -> f64 {
        let rank = (p * self.count).div_ceil(100).max(1);
        let mut cumulative = 0u64;
        let bucket = self
            .buckets
            .iter()
            .position(|&count| {
                cumulative += count;
                cumulative >= rank
            })
            .unwrap_or(self.buckets.len());
        self.bounds[bucket.min(self.bounds.len() - 1)]
    }
}

/// Per-machine counters; each one's metric exists once it is non-zero.
#[derive(Debug, Default)]
struct MachineCounts {
    tasks_started: u64,
    task_failures: u64,
    machine_failures: u64,
}

/// The metrics [`RegistryObserver`] emits, each absent until the first
/// event that updates it. Counters start at 1, so a counter is present
/// exactly when it is non-zero. See the [module documentation](self).
#[derive(Debug, Default)]
pub struct Registry {
    /// `events_total{type}`, keyed by [`SimEvent::kind`].
    events: BTreeMap<&'static str, u64>,
    /// `tasks_started_total`, `task_failures_total` and
    /// `machine_failures_total`, sparse by `{machine}`: a replayed trace
    /// may name any machine id.
    machines: BTreeMap<MachineId, MachineCounts>,
    /// `tasks_completed_total{kind, outcome}` as `[kind][won]`.
    completed: [[u64; 2]; 2],
    /// `assignment_decisions_total{kind}`.
    decisions: [u64; 2],
    /// `task_duration_seconds{kind}`.
    durations: [Option<Histogram>; 2],
    queue_depth: Option<Histogram>,
    decision_candidates: Option<Histogram>,
    cumulative_energy_joules: Option<f64>,
    total_tasks: Option<f64>,
}

#[derive(Clone, Copy)]
enum Value<'a> {
    Counter(u64),
    Gauge(f64),
    Histogram(&'a Histogram),
}

impl Value<'_> {
    /// Snapshot section: counters, then gauges, then histograms.
    fn family(&self) -> usize {
        match self {
            Value::Counter(_) => 0,
            Value::Gauge(_) => 1,
            Value::Histogram(_) => 2,
        }
    }
}

/// One present metric, as [`Registry::metrics`] lists it.
struct Metric<'a> {
    name: &'static str,
    /// Label pairs sorted by key.
    labels: Vec<(&'static str, String)>,
    value: Value<'a>,
}

impl Metric<'_> {
    /// Flat series key: `name` alone without labels, `name{k=v,...}`
    /// otherwise.
    fn series_name(&self) -> String {
        if self.labels.is_empty() {
            return self.name.to_owned();
        }
        let pairs: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("{}{{{}}}", self.name, pairs.join(","))
    }
}

impl Registry {
    fn machine(&mut self, machine: MachineId) -> &mut MachineCounts {
        self.machines.entry(machine).or_default()
    }

    /// Every present metric: counters, then gauges, then histograms, each
    /// sorted by `(name, labels)` with label values compared as strings
    /// (so machine `"10"` precedes `"2"`).
    fn metrics(&self) -> Vec<Metric<'_>> {
        let mut out = Vec::new();
        let mut push = |name, labels: &[(&'static str, &str)], value| {
            let labels = labels.iter().map(|&(k, v)| (k, v.to_owned())).collect();
            out.push(Metric {
                name,
                labels,
                value,
            });
        };
        for (&kind, &n) in &self.events {
            push("events_total", &[("type", kind)], Value::Counter(n));
        }
        for (machine, counts) in &self.machines {
            let m = machine.index().to_string();
            for (name, n) in [
                ("tasks_started_total", counts.tasks_started),
                ("task_failures_total", counts.task_failures),
                ("machine_failures_total", counts.machine_failures),
            ] {
                if n > 0 {
                    push(name, &[("machine", &m)], Value::Counter(n));
                }
            }
        }
        for (kind, tag) in KIND_TAGS.into_iter().enumerate() {
            for (outcome, n) in OUTCOME_TAGS.into_iter().zip(self.completed[kind]) {
                if n > 0 {
                    let labels = [("kind", tag), ("outcome", outcome)];
                    push("tasks_completed_total", &labels, Value::Counter(n));
                }
            }
            if self.decisions[kind] > 0 {
                let n = Value::Counter(self.decisions[kind]);
                push("assignment_decisions_total", &[("kind", tag)], n);
            }
            if let Some(h) = &self.durations[kind] {
                push(
                    "task_duration_seconds",
                    &[("kind", tag)],
                    Value::Histogram(h),
                );
            }
        }
        for (name, gauge) in [
            ("cumulative_energy_joules", self.cumulative_energy_joules),
            ("total_tasks", self.total_tasks),
        ] {
            if let Some(v) = gauge {
                push(name, &[], Value::Gauge(v));
            }
        }
        for (name, h) in [
            ("queue_depth", &self.queue_depth),
            ("decision_candidates", &self.decision_candidates),
        ] {
            if let Some(h) = h {
                push(name, &[], Value::Histogram(h));
            }
        }
        out.sort_by(|a, b| {
            (a.value.family(), a.name, &a.labels).cmp(&(b.value.family(), b.name, &b.labels))
        });
        out
    }

    /// Canonical snapshot of every present metric, sorted by name then
    /// label set: `{"counters":[...],"gauges":[...],"histograms":[...]}`.
    /// Deterministic — two identical runs render byte-identical snapshots.
    pub fn snapshot(&self) -> JsonValue {
        let mut families = [Vec::new(), Vec::new(), Vec::new()];
        for m in self.metrics() {
            let labels = m
                .labels
                .into_iter()
                .map(|(k, v)| (k.to_owned(), JsonValue::Str(v)))
                .collect();
            let mut fields = vec![
                ("name", JsonValue::Str(m.name.to_owned())),
                ("labels", JsonValue::Object(labels)),
            ];
            match m.value {
                Value::Counter(v) => fields.push(("value", JsonValue::UInt(v))),
                Value::Gauge(v) => fields.push(("value", JsonValue::Num(v))),
                Value::Histogram(h) => {
                    let les = h.bounds.iter().map(|&b| JsonValue::Num(b));
                    let buckets = les
                        .chain([JsonValue::Str("+Inf".to_owned())])
                        .zip(&h.buckets)
                        .map(|(le, &count)| object([("le", le), ("count", JsonValue::UInt(count))]))
                        .collect();
                    fields.extend([
                        ("buckets", JsonValue::Array(buckets)),
                        ("sum", JsonValue::Num(h.sum)),
                        ("count", JsonValue::UInt(h.count)),
                    ]);
                }
            }
            families[m.value.family()].push(object(fields));
        }
        let [counters, gauges, histograms] = families.map(JsonValue::Array);
        object([
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }
}

/// Per-series sample cap of the sampling mode: generous enough for any
/// committed scenario (one sample per control interval), bounded so a
/// runaway horizon cannot grow memory without limit.
pub const DEFAULT_SERIES_CAP: usize = 4096;

/// The windowed time-series store behind [`RegistryObserver::with_sampling`].
#[derive(Debug, Default)]
struct Sampler {
    series: BTreeMap<String, TimeSeries>,
    /// Counter value at the previous sample, keyed by series name, so each
    /// sample records the per-window delta.
    last_counters: BTreeMap<String, u64>,
    dropped: u64,
}

impl Sampler {
    fn push(&mut self, name: String, at: SimTime, value: f64) {
        let s = self
            .series
            .entry(name)
            .or_insert_with_key(|name| TimeSeries::new(name));
        if s.len() >= DEFAULT_SERIES_CAP {
            self.dropped += 1;
            return;
        }
        s.record(at, value);
    }

    /// Takes one sample of the whole registry at sim time `at`.
    fn sample(&mut self, at: SimTime, reg: &Registry) {
        for m in reg.metrics() {
            let name = m.series_name();
            match m.value {
                Value::Counter(v) => {
                    let last = self.last_counters.insert(name.clone(), v).unwrap_or(0);
                    self.push(name, at, (v - last) as f64);
                }
                Value::Gauge(v) => self.push(name, at, v),
                Value::Histogram(h) => {
                    for p in [50u64, 95, 99] {
                        self.push(format!("{name}:p{p}"), at, h.percentile(p));
                    }
                }
            }
        }
    }

    fn snapshot(&self) -> SeriesSnapshot {
        SeriesSnapshot {
            dropped: self.dropped,
            series: self.series.values().cloned().collect(),
        }
    }
}

/// The telemetry time-series of one sampled run: every registry series,
/// sorted by name, plus the count of samples dropped to the per-series
/// capacity bound. Canonical JSON via [`SeriesSnapshot::render`], inverse
/// [`SeriesSnapshot::parse`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesSnapshot {
    /// Samples discarded because a series hit the capacity bound.
    pub dropped: u64,
    /// One series per sampled metric (counters as windowed deltas, gauges
    /// as instantaneous values, histograms as `:p50`/`:p95`/`:p99` points),
    /// sorted by series name.
    pub series: Vec<TimeSeries>,
}

const SNAPSHOT: Obj<SeriesSnapshot> = Obj::new(SeriesSnapshot::default, |s, v| {
    v.required("dropped", U64, &mut s.dropped);
    v.required("series", List(SERIES), &mut s.series);
});

impl SeriesSnapshot {
    /// Canonical JSON: `{"dropped":N,"series":[{"name":...,"samples":[[ms,v],...]},...]}`.
    pub fn to_json(&self) -> JsonValue {
        SNAPSHOT.write(&mut self.clone())
    }

    /// Renders the canonical JSON document.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Parses a document produced by [`SeriesSnapshot::render`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the dotted path of the malformed field.
    pub fn parse(text: &str) -> Result<SeriesSnapshot, String> {
        let doc = JsonValue::parse(text)?;
        SNAPSHOT.read_root(&doc).map_err(|e| e.to_string())
    }

    /// Looks up a series by exact name.
    pub fn get(&self, name: &str) -> Option<&TimeSeries> {
        self.series.iter().find(|s| s.name() == name)
    }

    /// A copy with every series cut at `until` (samples after it removed):
    /// the postmortem slice of the telemetry up to a breach.
    pub fn sliced_until(&self, until: SimTime) -> SeriesSnapshot {
        SeriesSnapshot {
            dropped: self.dropped,
            series: self.series.iter().map(|s| s.sliced_until(until)).collect(),
        }
    }
}

/// An [`Observer`] folding the typed event stream into a [`Registry`].
///
/// Populates, per event kind, an `events_total{type=...}` counter; per
/// machine, `tasks_started_total` / `task_failures_total` /
/// `machine_failures_total`; `tasks_completed_total{kind, outcome}`;
/// cluster-wide task-duration and queue-depth histograms, the fleet energy
/// and task-count gauges, and — when decision tracing is on —
/// `assignment_decisions_total{kind=...}` plus a candidate-set-size
/// histogram.
#[derive(Debug)]
pub struct RegistryObserver {
    registry: Registry,
    /// Start time of each in-flight attempt, for duration observations.
    started: BTreeMap<(TaskId, MachineId), SimTime>,
    /// Telemetry sampling mode; `None` keeps the observer snapshot-only.
    sampler: Option<Sampler>,
}

impl Default for RegistryObserver {
    fn default() -> Self {
        RegistryObserver::new()
    }
}

impl RegistryObserver {
    /// Creates an observer over a fresh registry.
    pub fn new() -> Self {
        RegistryObserver {
            registry: Registry::default(),
            started: BTreeMap::new(),
            sampler: None,
        }
    }

    /// Creates an observer with telemetry sampling on (the
    /// [sampling mode](self#sampling-mode)), bounded at
    /// [`DEFAULT_SERIES_CAP`] samples per series.
    pub fn with_sampling() -> Self {
        RegistryObserver {
            sampler: Some(Sampler::default()),
            ..RegistryObserver::new()
        }
    }

    /// The populated registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The sampled telemetry time-series, or `None` when sampling is off.
    pub fn series_snapshot(&self) -> Option<SeriesSnapshot> {
        self.sampler.as_ref().map(Sampler::snapshot)
    }
}

impl Observer<SimEvent> for RegistryObserver {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        let reg = &mut self.registry;
        *reg.events.entry(event.kind()).or_insert(0) += 1;
        match event {
            SimEvent::TaskStarted { task, machine, .. } => {
                reg.machine(*machine).tasks_started += 1;
                self.started.insert((*task, *machine), at);
            }
            SimEvent::TaskCompleted {
                task, machine, won, ..
            } => {
                let kind = kind_index(task.task.kind);
                reg.completed[kind][usize::from(*won)] += 1;
                if let Some(started) = self.started.remove(&(*task, *machine)) {
                    let secs = (at - started).as_secs_f64();
                    Histogram::observe(&mut reg.durations[kind], &DURATION_BOUNDS, secs);
                }
            }
            SimEvent::TaskFailed { task, machine, .. } => {
                reg.machine(*machine).task_failures += 1;
                self.started.remove(&(*task, *machine));
            }
            SimEvent::HeartbeatDrained { pending_total, .. } => {
                let depth = *pending_total as f64;
                Histogram::observe(&mut reg.queue_depth, &QUEUE_DEPTH_BOUNDS, depth);
            }
            SimEvent::ControlIntervalFired {
                cumulative_energy_joules,
                ..
            } => {
                reg.cumulative_energy_joules = Some(*cumulative_energy_joules);
            }
            SimEvent::AssignmentDecision {
                kind, candidates, ..
            } => {
                reg.decisions[kind_index(*kind)] += 1;
                let n = candidates.len() as f64;
                Histogram::observe(&mut reg.decision_candidates, &CANDIDATES_BOUNDS, n);
            }
            SimEvent::MachineFailed { machine, .. } => {
                reg.machine(*machine).machine_failures += 1;
            }
            SimEvent::RunFinished {
                total_energy_joules,
                total_tasks,
                ..
            } => {
                reg.cumulative_energy_joules = Some(*total_energy_joules);
                reg.total_tasks = Some(*total_tasks as f64);
            }
            _ => {}
        }
        // Sample *after* folding, so the window closing at this control
        // tick (or at the run footer) includes the tick's own updates.
        if matches!(
            event,
            SimEvent::ControlIntervalFired { .. } | SimEvent::RunFinished { .. }
        ) {
            if let Some(sampler) = self.sampler.as_mut() {
                sampler.sample(at, &self.registry);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{JobId, TaskIndex};

    fn map_task(index: u32) -> TaskId {
        TaskId {
            job: JobId(0),
            task: TaskIndex {
                kind: SlotKind::Map,
                index,
            },
        }
    }

    fn started(task: TaskId, machine: usize) -> SimEvent {
        SimEvent::TaskStarted {
            task,
            machine: MachineId(machine),
            speculative: false,
        }
    }

    fn completed(task: TaskId, machine: usize) -> SimEvent {
        SimEvent::TaskCompleted {
            task,
            machine: MachineId(machine),
            won: true,
            straggled: false,
            speculative: false,
        }
    }

    #[test]
    fn histograms_bucket_inclusively_with_overflow() {
        let mut obs = RegistryObserver::new();
        // Durations 2 s and 5 s land in le=5 (5 s exactly on the bound),
        // 60 s exactly on le=60, 3601 s past the last bound in +Inf.
        for (i, secs) in (0..).zip([2u64, 5, 60, 3601]) {
            let task = map_task(i);
            obs.on_event(SimTime::from_secs(0), &started(task, 0));
            obs.on_event(SimTime::from_secs(secs), &completed(task, 0));
        }
        let snap = obs.registry().snapshot();
        let Some(JsonValue::Array(items)) = snap.get("histograms") else {
            panic!("histograms not an array")
        };
        let rendered = items[0].render();
        assert!(
            rendered.starts_with(r#"{"name":"task_duration_seconds","labels":{"kind":"map"}"#),
            "{rendered}"
        );
        assert!(rendered.contains(r#"{"le":5,"count":2}"#), "{rendered}");
        assert!(rendered.contains(r#"{"le":60,"count":1}"#), "{rendered}");
        assert!(rendered.contains(r#"{"le":3600,"count":0}"#), "{rendered}");
        assert!(
            rendered.contains(r#"{"le":"+Inf","count":1}"#),
            "{rendered}"
        );
        assert!(rendered.ends_with(r#""sum":3668,"count":4}"#), "{rendered}");
    }

    #[test]
    fn machine_labels_sort_as_strings() {
        let mut obs = RegistryObserver::new();
        obs.on_event(SimTime::from_secs(1), &started(map_task(0), 2));
        obs.on_event(SimTime::from_secs(2), &started(map_task(1), 10));
        let text = obs.registry().snapshot().render();
        let ten = text
            .find(r#""name":"tasks_started_total","labels":{"machine":"10"}"#)
            .expect("machine 10 counter");
        let two = text
            .find(r#""name":"tasks_started_total","labels":{"machine":"2"}"#)
            .expect("machine 2 counter");
        assert!(ten < two, "machine=10 must precede machine=2: {text}");
    }

    #[test]
    fn snapshot_round_trips_through_json_parse() {
        let mut obs = RegistryObserver::new();
        obs.on_event(SimTime::from_secs(1), &started(map_task(1), 2));
        obs.on_event(SimTime::from_secs(31), &completed(map_task(1), 2));
        obs.on_event(
            SimTime::from_secs(32),
            &SimEvent::HeartbeatDrained {
                machine: MachineId(2),
                free_map: 1,
                free_reduce: 1,
                pending_total: 40,
            },
        );
        let snap = obs.registry().snapshot();
        let text = snap.render();
        // Integral floats render as integers and reparse as `UInt`, so the
        // canonical round-trip property is byte-stable re-rendering, not
        // structural identity.
        let reparsed = JsonValue::parse(&text).expect("snapshot is valid JSON");
        assert_eq!(reparsed.render(), text, "re-render must be byte-identical");
        let counters = reparsed.get("counters").expect("counters section");
        let JsonValue::Array(items) = counters else {
            panic!("counters not an array")
        };
        assert_eq!(items.len(), 5, "{text}");
    }

    fn tick(index: u64, joules: f64) -> SimEvent {
        SimEvent::ControlIntervalFired {
            index,
            cumulative_energy_joules: joules,
        }
    }

    #[test]
    fn sampling_records_counter_deltas_and_gauge_values() {
        let mut obs = RegistryObserver::with_sampling();
        obs.on_event(
            SimTime::from_secs(1),
            &SimEvent::JobCompleted { job: JobId(0) },
        );
        obs.on_event(SimTime::from_secs(300), &tick(0, 100.0));
        obs.on_event(
            SimTime::from_secs(301),
            &SimEvent::JobCompleted { job: JobId(1) },
        );
        obs.on_event(
            SimTime::from_secs(302),
            &SimEvent::JobCompleted { job: JobId(2) },
        );
        obs.on_event(SimTime::from_secs(600), &tick(1, 250.0));

        let snap = obs.series_snapshot().expect("sampling is on");
        let completed = snap
            .get("events_total{type=job_completed}")
            .expect("job_completed series");
        let samples: Vec<_> = completed.iter().collect();
        assert_eq!(
            samples,
            vec![
                (SimTime::from_secs(300), 1.0),
                (SimTime::from_secs(600), 2.0)
            ],
            "counter samples must be per-window deltas"
        );
        let energy = snap
            .get("cumulative_energy_joules")
            .expect("energy gauge series");
        assert_eq!(energy.last_value(), Some(250.0));
        // The tick counter saw itself: first window 1 tick, second 1 tick.
        let ticks = snap
            .get("events_total{type=control_interval_fired}")
            .expect("tick series");
        let deltas: Vec<f64> = ticks.iter().map(|(_, v)| v).collect();
        assert_eq!(deltas, vec![1.0, 1.0]);
    }

    #[test]
    fn sampling_emits_histogram_percentile_points() {
        let mut obs = RegistryObserver::with_sampling();
        for depth in [1u64, 10, 200] {
            obs.on_event(
                SimTime::from_secs(depth),
                &SimEvent::HeartbeatDrained {
                    machine: MachineId(0),
                    free_map: 0,
                    free_reduce: 0,
                    pending_total: depth,
                },
            );
        }
        obs.on_event(SimTime::from_secs(300), &tick(0, 1.0));
        let snap = obs.series_snapshot().unwrap();
        // 3 observations in buckets le=8, le=32, le=512: p50 → 32, p99 → 512.
        assert_eq!(
            snap.get("queue_depth:p50").and_then(TimeSeries::last_value),
            Some(32.0)
        );
        assert_eq!(
            snap.get("queue_depth:p99").and_then(TimeSeries::last_value),
            Some(512.0)
        );
    }

    #[test]
    fn sampling_cap_drops_and_counts() {
        let mut obs = RegistryObserver::with_sampling();
        let ticks = DEFAULT_SERIES_CAP as u64 + 2;
        for i in 0..ticks {
            obs.on_event(SimTime::from_secs(i * 300), &tick(i, i as f64));
        }
        let snap = obs.series_snapshot().unwrap();
        // Two series (the tick counter and the energy gauge), each two
        // samples over the cap.
        assert_eq!(snap.series.len(), 2);
        assert_eq!(snap.dropped, 4, "cap must count dropped samples");
        for s in &snap.series {
            assert_eq!(s.len(), DEFAULT_SERIES_CAP, "series {}", s.name());
        }
    }

    #[test]
    fn series_snapshot_round_trips_and_slices() {
        let mut obs = RegistryObserver::with_sampling();
        obs.on_event(
            SimTime::from_secs(1),
            &SimEvent::JobCompleted { job: JobId(0) },
        );
        obs.on_event(SimTime::from_secs(300), &tick(0, 12.5));
        obs.on_event(SimTime::from_secs(600), &tick(1, 80.0));
        let snap = obs.series_snapshot().unwrap();
        let text = snap.render();
        let reparsed = SeriesSnapshot::parse(&text).expect("valid series JSON");
        assert_eq!(reparsed.render(), text, "byte-stable re-render");

        let cut = snap.sliced_until(SimTime::from_secs(300));
        for s in &cut.series {
            assert!(
                s.iter().all(|(t, _)| t <= SimTime::from_secs(300)),
                "series {} leaked past the slice",
                s.name()
            );
        }
        assert_eq!(
            cut.get("cumulative_energy_joules").unwrap().last_value(),
            Some(12.5)
        );
    }

    #[test]
    fn snapshot_only_observer_has_no_series() {
        let mut obs = RegistryObserver::new();
        obs.on_event(SimTime::from_secs(300), &tick(0, 1.0));
        assert!(obs.series_snapshot().is_none());
    }
}
