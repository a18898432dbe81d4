//! End-to-end observability pipeline tests: decision-traced runs flowing
//! through the JSONL codec into `trace-diff`, the replay breakdown, the
//! registry snapshot, the sampled time series and the SLO watchdog's
//! postmortem flight recorder.

use eant::EAntConfig;
use experiments::common::{parallel_runs_with_workers, Scenario, SchedulerKind};
use experiments::scenario::{library_dir, load_spec, ScenarioSpec};
use experiments::slo::{run_monitored, MonitoredCell, PostmortemBundle};
use experiments::timeline::{registry_snapshot_path, telemetry_series_path};
use hadoop_sim::trace::SharedObserver;
use hadoop_sim::FaultConfig;
use metrics::emit::JsonValue;
use metrics::registry::RegistryObserver;
use metrics::trace::JsonlTraceSink;
use simcore::SimDuration;
use std::path::PathBuf;
use workload::msd::MsdConfig;

/// A small fixed scenario shared by every test here.
fn small_scenario(seed: u64) -> Scenario {
    let mut s = Scenario::fast(seed);
    s.msd = MsdConfig {
        num_jobs: 6,
        task_scale: 32,
        submission_window: SimDuration::from_mins(4),
    };
    s
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("eant-observability-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.jsonl", std::process::id()))
}

/// Runs the scenario with a JSONL sink on the engine stream and writes the
/// trace to `path`.
fn write_scenario_trace(scenario: &Scenario, path: &PathBuf) {
    let kind = SchedulerKind::EAnt(EAntConfig::paper_default());
    let sink = SharedObserver::new(JsonlTraceSink::new(Vec::<u8>::new()));
    let handle = sink.clone();
    let _ = scenario.run_observed(&kind, move |engine, _| {
        engine.attach_observer(Box::new(handle));
    });
    let bytes = sink
        .try_into_inner()
        .expect("sink still shared")
        .finish()
        .expect("Vec<u8> writes cannot fail");
    std::fs::write(path, bytes).unwrap();
}

/// Diffing a faulted run against its clean same-seed twin pinpoints the
/// fault: scoped to `machine_failed`, the clean side is empty and the
/// report leads with the faulted trace's first machine death; unscoped,
/// the traces share a prefix and the first divergence is where fault
/// handling first changed the schedule.
#[test]
fn trace_diff_pinpoints_first_machine_failure() {
    let clean_path = tmp("clean");
    let faulted_path = tmp("faulted");
    let clean = small_scenario(11);
    let mut faulted = small_scenario(11);
    faulted.engine.fault = FaultConfig {
        crash_mtbf: SimDuration::from_mins(30),
        crash_downtime: SimDuration::from_mins(1),
        task_failure_prob: 0.05,
        blacklist_threshold: 10,
        ..FaultConfig::none()
    };
    write_scenario_trace(&clean, &clean_path);
    write_scenario_trace(&faulted, &faulted_path);

    let scoped =
        experiments::tracediff::run(&clean_path, &faulted_path, Some("machine_failed")).unwrap();
    assert!(
        scoped.contains("b has") && scoped.contains("extra trailing event(s)"),
        "clean trace must have zero machine_failed events:\n{scoped}"
    );
    assert!(
        scoped.contains("\"type\":\"machine_failed\""),
        "scoped diff must print the first machine_failed line:\n{scoped}"
    );

    let full = experiments::tracediff::run(&clean_path, &faulted_path, None).unwrap();
    assert!(
        full.contains("first divergence"),
        "faulted run must diverge from its clean twin:\n{full}"
    );
    assert!(full.contains("machine_failed"), "{full}");

    let identity = experiments::tracediff::run(&clean_path, &clean_path, None).unwrap();
    assert!(identity.contains("traces are identical"), "{identity}");

    for p in [clean_path, faulted_path] {
        std::fs::remove_file(p).ok();
    }
}

/// A decision-traced replay prints the Eq. 8 probability breakdown for the
/// reduce tail, and the registry snapshot written next to the trace is
/// valid canonical JSON carrying the decision counters.
#[test]
fn replay_prints_decision_breakdown_and_registry_snapshot() {
    use experiments::timeline::{write_trace_with, TraceOptions};

    let path = tmp("decisions");
    let report = write_trace_with(
        TraceOptions {
            fast: true,
            seed: 2015,
            decisions: true,
        },
        &path,
    )
    .unwrap();
    assert!(report.contains("decision tracing on"), "{report}");

    let replayed = experiments::timeline::replay(&path).unwrap();
    assert!(
        replayed.contains("Eq. 8 decision breakdown"),
        "replay must print the decision breakdown:\n{replayed}"
    );
    assert!(replayed.contains("tau="), "{replayed}");
    assert!(replayed.contains("<- chosen"), "{replayed}");

    let snapshot_path = registry_snapshot_path(&path);
    let text = std::fs::read_to_string(&snapshot_path).unwrap();
    let snap = JsonValue::parse(&text).expect("registry snapshot parses");
    assert_eq!(snap.render(), text, "snapshot must be canonical");
    assert!(
        text.contains("assignment_decisions_total"),
        "snapshot must carry the decision counters: {text}"
    );
    assert!(text.contains("task_duration_seconds"), "{text}");

    std::fs::remove_file(snapshot_path).ok();
    std::fs::remove_file(telemetry_series_path(&path)).ok();
    std::fs::remove_file(path).ok();
}

/// The registry observer attached to a live engine produces the same
/// snapshot as one replayed from the trace of that run: the registry is a
/// pure fold over the event stream.
#[test]
fn registry_snapshot_is_replay_invariant() {
    use metrics::trace::read_trace_lines;

    let mut scenario = small_scenario(7);
    scenario.engine.trace_decisions = true;
    let kind = SchedulerKind::EAnt(EAntConfig::paper_default());

    // The registry must see the same stream the sink serializes: both get
    // the engine and the scheduler events.
    let sink = SharedObserver::new(JsonlTraceSink::new(Vec::<u8>::new()));
    let live = SharedObserver::new(RegistryObserver::new());
    let sink_handle = sink.clone();
    let live_handle = live.clone();
    let _ = scenario.run_observed(&kind, move |engine, scheduler| {
        engine.attach_observer(Box::new(sink_handle.clone()));
        engine.attach_observer(Box::new(live_handle.clone()));
        scheduler.attach_observer(Box::new(sink_handle));
        scheduler.attach_observer(Box::new(live_handle));
    });
    let live_snapshot = live.with(|r| r.registry().snapshot().render());

    let bytes = sink
        .try_into_inner()
        .expect("sink still shared")
        .finish()
        .expect("Vec<u8> writes cannot fail");
    let mut replayed = RegistryObserver::new();
    for (_, at, event) in read_trace_lines(bytes.as_slice()).unwrap() {
        use hadoop_sim::trace::Observer;
        replayed.on_event(at, &event);
    }
    assert_eq!(
        replayed.registry().snapshot().render(),
        live_snapshot,
        "replayed registry snapshot diverges from the live one"
    );
}

fn slo_spec() -> ScenarioSpec {
    load_spec(&library_dir().join("serve-overload-burst-slo.json"))
        .expect("committed slo scenario parses")
}

/// Serializes everything a postmortem bundle writes to disk, so two
/// bundles can be compared byte for byte without touching the filesystem.
fn bundle_bytes(pm: &PostmortemBundle) -> String {
    format!(
        "{}\n{}\n{}\n{}",
        pm.breach_json().render(),
        pm.events_jsonl(),
        pm.series.render(),
        pm.decisions
    )
}

/// Runs every (scheduler × seed) cell of the slo scenario monitored, on
/// `workers` threads, and returns the cells in grid order.
fn run_cells(spec: &ScenarioSpec, workers: usize) -> Vec<MonitoredCell> {
    let cells: Vec<_> = spec
        .schedulers
        .iter()
        .flat_map(|kind| spec.seeds.iter().map(move |&seed| (kind, seed)))
        .collect();
    let tasks: Vec<_> = cells
        .iter()
        .map(|&(kind, seed)| move || run_monitored(spec, kind, seed, true))
        .collect();
    parallel_runs_with_workers(workers, tasks)
}

/// The flight recorder is deterministic two ways at once: the same breach
/// evidence comes out byte-identical on 1 vs 4 worker threads, and across
/// two consecutive single-threaded regenerations.
#[test]
fn postmortem_bundle_is_thread_count_invariant_and_rerun_stable() {
    let spec = slo_spec();
    let serial = run_cells(&spec, 1);
    let parallel = run_cells(&spec, 4);
    let again = run_cells(&spec, 1);
    assert_eq!(serial.len(), parallel.len());

    let mut breached = 0usize;
    for ((a, b), c) in serial.iter().zip(&parallel).zip(&again) {
        assert_eq!(a.scheduler, b.scheduler);
        assert_eq!(a.registry.render(), b.registry.render(), "{}", a.scheduler);
        assert_eq!(a.series.render(), b.series.render(), "{}", a.scheduler);
        match (&a.postmortem, &b.postmortem, &c.postmortem) {
            (Some(a), Some(b), Some(c)) => {
                let bytes = bundle_bytes(a);
                assert_eq!(
                    bytes,
                    bundle_bytes(b),
                    "bundle differs across thread counts"
                );
                assert_eq!(bytes, bundle_bytes(c), "bundle differs across reruns");
                breached += 1;
            }
            (None, None, None) => {}
            _ => panic!("breach occurrence differs across runs for {}", a.scheduler),
        }
    }
    // The scenario is built so E-Ant (and only E-Ant) trips the watchdog.
    assert_eq!(breached, 1, "expected exactly the E-Ant cell to breach");
    let eant = serial
        .iter()
        .find(|c| c.scheduler == "E-Ant")
        .expect("slo scenario includes E-Ant");
    let pm = eant.postmortem.as_ref().expect("E-Ant breaches");
    assert_eq!(pm.breach.monitor, "p99_sojourn");
}

/// Every sampled counter series is a sequence of windowed deltas; summing
/// the windows must reproduce the counter's end-of-run registry value
/// *exactly* — integer events, integer counts, no drift. Checked for every
/// counter of every cell of the slo scenario, watchdog armed and not.
#[test]
fn series_counter_deltas_resum_to_registry_snapshot() {
    let mut spec = slo_spec();
    for armed in [true, false] {
        if !armed {
            spec.slo = None;
        }
        for cell in run_cells(&spec, 2) {
            let counters = cell
                .registry
                .get("counters")
                .and_then(|v| match v {
                    JsonValue::Array(items) => Some(items.clone()),
                    _ => None,
                })
                .expect("registry snapshot has a counters array");
            assert!(!counters.is_empty(), "registry folded no counters");
            let mut checked = 0usize;
            for counter in &counters {
                let key = series_key(counter);
                let total = counter
                    .get("value")
                    .and_then(JsonValue::as_u64)
                    .expect("counter value is a u64");
                let series = cell
                    .series
                    .get(&key)
                    .unwrap_or_else(|| panic!("no sampled series for counter {key}"));
                let resummed: f64 = series.iter().map(|(_, v)| v).sum();
                assert!(
                    (resummed - total as f64).abs() == 0.0,
                    "{}/{key}: series re-sums to {resummed}, registry says {total}",
                    cell.scheduler
                );
                checked += 1;
            }
            assert!(
                checked >= 5,
                "{}: only {checked} counters checked",
                cell.scheduler
            );
        }
    }
}

/// Rebuilds a counter's sampled-series key (`name{k=v,...}`) from its
/// registry-snapshot JSON entry.
fn series_key(counter: &JsonValue) -> String {
    let name = counter
        .get("name")
        .and_then(JsonValue::as_str)
        .expect("counter has a name");
    let mut key = name.to_owned();
    if let Some(JsonValue::Object(pairs)) = counter.get("labels") {
        if !pairs.is_empty() {
            let rendered: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("{k}={}", v.as_str().expect("string label")))
                .collect();
            key.push('{');
            key.push_str(&rendered.join(","));
            key.push('}');
        }
    }
    key
}

/// Tool output pinned byte for byte: `--replay`, `watch` (default frames
/// and one frame a minute) and `explain` on a clean, a decision-traced, a
/// faulted (crashes, retries, blacklisting) and a power-down trace, plus
/// `explain` on a postmortem bundle and the `timeline` experiment. Temp
/// paths are replaced by a placeholder before hashing. A refactor of the
/// trace tools must leave every digest unchanged.
#[test]
fn trace_tool_outputs_are_pinned() {
    use experiments::{explain, timeline, watch};
    use hadoop_sim::PowerDownConfig;
    use simcore::fnv1a_64;

    const PINNED: &str = "
clean replay d184f6db3fa3b887
clean watch f705c32c1703df7e
clean watch-60 539bdafef9eacdf7
clean explain bef2de2d716da8af
decisions replay d4e70521400922b3
decisions watch 4cfb438505564db3
decisions watch-60 efd99935b231dcaa
decisions explain 98a889106bf56c93
faulted replay 7fd009b7bc5e11e7
faulted watch 32d5f853f2d7e2cc
faulted watch-60 171a72f9ee29da60
faulted explain 8db6d857df089f5b
power-down replay 5fc1d48610e919dc
power-down watch 76508d4b33cc8521
power-down watch-60 de7e5aaa044a9e3a
power-down explain 0d3103aff07c1ac2
bundle explain 4982a702d61bcf8d
fast timeline cf5512e57b7b04bf
";

    let mut decisions = small_scenario(11);
    decisions.engine.trace_decisions = true;
    let mut faulted = small_scenario(11);
    faulted.engine.fault = FaultConfig {
        crash_mtbf: SimDuration::from_mins(30),
        crash_downtime: SimDuration::from_mins(1),
        task_failure_prob: 0.05,
        blacklist_threshold: 3,
        ..FaultConfig::none()
    };
    let mut powered = small_scenario(11);
    powered.engine.power_down = Some(PowerDownConfig::suspend_to_ram());
    // Sparse arrivals leave the idle gaps the power-down policy needs.
    powered.msd.submission_window = SimDuration::from_mins(60);
    // Each trace must carry the events its case is there to exercise.
    let traces = [
        ("clean", Scenario::fast(2015), "\"run_finished\""),
        ("decisions", decisions, "\"assignment_decision\""),
        ("faulted", faulted, "\"machine_blacklisted\""),
        ("power-down", powered, "\"standby\""),
    ];

    let mut digests = Vec::new();
    let mut pin = |label: &str, out: String| {
        digests.push(format!("{label} {:016x}", fnv1a_64(out.as_bytes())));
    };
    for (name, scenario, needle) in traces {
        let path = tmp(&format!("pinned-{name}"));
        write_scenario_trace(&scenario, &path);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(needle), "{name} trace lacks {needle}");
        let shown = path.display().to_string();
        let scrub = |out: Result<String, String>| out.unwrap().replace(&shown, "<path>");
        pin(&format!("{name} replay"), scrub(timeline::replay(&path)));
        pin(&format!("{name} watch"), scrub(watch::run(&path, 0.0)));
        pin(&format!("{name} watch-60"), scrub(watch::run(&path, 60.0)));
        pin(&format!("{name} explain"), scrub(explain::run(&path)));
        std::fs::remove_file(path).ok();
    }

    let spec = slo_spec();
    let eant = spec
        .schedulers
        .iter()
        .find(|k| k.label() == "E-Ant")
        .expect("slo scenario compares E-Ant");
    let bundle = run_monitored(&spec, eant, spec.seeds[0], true)
        .postmortem
        .expect("E-Ant breaches the overload SLO");
    let root = std::env::temp_dir().join(format!("eant-pinned-bundle-{}", std::process::id()));
    let dir = bundle.write_to(&root).unwrap();
    let report = explain::run(&dir).unwrap();
    pin(
        "bundle explain",
        report.replace(&dir.display().to_string(), "<path>"),
    );
    std::fs::remove_dir_all(&root).ok();

    pin("fast timeline", timeline::run(true));

    assert_eq!(digests.join("\n"), PINNED.trim(), "tool output moved");
}
