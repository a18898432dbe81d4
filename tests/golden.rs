//! Golden-value regression tests: summary metrics of one fixed-seed fast
//! MSD run under Fair, Tarazu and E-Ant, pinned with explicit tolerances.
//!
//! The run is bit-deterministic on one toolchain (see
//! `tests/determinism.rs`), so these goldens catch *behavioral* drift — a
//! changed scheduler decision, energy-model constant, or RNG stream — while
//! the tolerances absorb benign float-reassociation differences across
//! compiler versions. If a deliberate change shifts the numbers, re-derive
//! them by running this test with `--nocapture` (each assertion failure
//! prints the observed value) and update the table.

use std::collections::BTreeSet;

use cluster::MachineId;
use eant::EAntConfig;
use experiments::common::SchedulerKind;
use experiments::scenario::{msd_spec, ScenarioSpec, WorkloadSpec};
use hadoop_sim::trace::SharedObserver;
use hadoop_sim::{
    Assignments, DvfsConfig, IntervalSnapshot, PowerDownConfig, RunResult, SpeculationPolicy,
    StartCell,
};
use metrics::emit::{object, run_result_json, JsonValue, ToJson};
use metrics::spec::fnv1a_64;
use metrics::trace::{parse_trace_line, JsonlTraceSink};
use simcore::SimDuration;
use workload::msd::MsdConfig;

/// Relative tolerance on pinned energy and makespan values.
const REL_TOL: f64 = 0.005;
/// Absolute tolerance, in percentage points, on pinned savings values.
const SAVINGS_TOL_PP: f64 = 1.0;

/// One golden row: scheduler, expected total energy (MJ), expected
/// makespan (s).
struct Golden {
    kind: SchedulerKind,
    energy_mj: f64,
    makespan_s: f64,
}

fn goldens() -> Vec<Golden> {
    vec![
        Golden {
            kind: SchedulerKind::Fair,
            energy_mj: 3.558079,
            makespan_s: 3858.492,
        },
        Golden {
            kind: SchedulerKind::Tarazu,
            energy_mj: 2.201803,
            makespan_s: 2308.866,
        },
        Golden {
            kind: SchedulerKind::EAnt(EAntConfig::paper_default()),
            energy_mj: 2.065391,
            makespan_s: 2148.477,
        },
    ]
}

fn run(kind: &SchedulerKind) -> RunResult {
    msd_spec().execute(kind, 2015, true)
}

/// Runs the small, feature-heavy E-Ant run behind the three trace goldens
/// (8 jobs, seed 2015, LATE speculation, suspend-to-RAM power-down and
/// conservative DVFS, then `tweak`) with a JSONL sink on both streams,
/// returning the result and the trace bytes.
fn golden_trace(tweak: impl FnOnce(&mut ScenarioSpec)) -> (RunResult, Vec<u8>) {
    let mut spec = ScenarioSpec {
        workload: WorkloadSpec::Msd(MsdConfig {
            num_jobs: 8,
            task_scale: 32,
            submission_window: SimDuration::from_mins(4),
        }),
        fast_workload: None,
        ..msd_spec().clone()
    };
    spec.engine.speculation = SpeculationPolicy::Late;
    spec.engine.power_down = Some(PowerDownConfig::suspend_to_ram());
    spec.engine.dvfs = Some(DvfsConfig::conservative());
    tweak(&mut spec);

    let sink = SharedObserver::new(JsonlTraceSink::new(Vec::<u8>::new()));
    let (engine_sink, scheduler_sink) = (sink.clone(), sink.clone());
    let kind = SchedulerKind::EAnt(EAntConfig::paper_default());
    let result = spec.execute_scaled_observed(&kind, 2015, true, 1.0, move |engine, scheduler| {
        engine.attach_observer(Box::new(engine_sink));
        scheduler.attach_observer(Box::new(scheduler_sink));
    });
    let bytes = sink
        .try_into_inner()
        .unwrap_or_else(|_| panic!("trace sink still shared after run"))
        .finish()
        .expect("Vec<u8> writes cannot fail");
    (result, bytes)
}

fn assert_close(what: &str, observed: f64, expected: f64, rel_tol: f64) {
    let rel = (observed - expected).abs() / expected.abs();
    assert!(
        rel <= rel_tol,
        "{what}: observed {observed:.6}, pinned {expected:.6} \
         (rel err {rel:.2e} > tol {rel_tol:.0e})"
    );
}

/// Total energy and makespan of each scheduler match the pinned values.
#[test]
fn summary_metrics_match_goldens() {
    for g in goldens() {
        let r = run(&g.kind);
        let label = g.kind.label();
        assert!(r.drained, "{label} failed to drain");
        assert_close(
            &format!("{label} total energy (MJ)"),
            r.total_energy_joules() / 1.0e6,
            g.energy_mj,
            REL_TOL,
        );
        assert_close(
            &format!("{label} makespan (s)"),
            r.makespan.as_secs_f64(),
            g.makespan_s,
            REL_TOL,
        );
    }
}

/// E-Ant's energy savings over each baseline match the pinned
/// percentages: 41.95% vs Fair and 6.20% vs Tarazu on this seed.
#[test]
fn eant_savings_match_goldens() {
    let eant = SchedulerKind::EAnt(EAntConfig::paper_default());
    let e_eant = run(&eant).total_energy_joules();
    let e_fair = run(&SchedulerKind::Fair).total_energy_joules();
    let e_tarazu = run(&SchedulerKind::Tarazu).total_energy_joules();

    let vs_fair = (1.0 - e_eant / e_fair) * 100.0;
    let vs_tarazu = (1.0 - e_eant / e_tarazu) * 100.0;
    assert!(
        (vs_fair - 41.95).abs() <= SAVINGS_TOL_PP,
        "savings vs Fair: observed {vs_fair:.2}%, pinned 41.95% ± {SAVINGS_TOL_PP}pp"
    );
    assert!(
        (vs_tarazu - 6.20).abs() <= SAVINGS_TOL_PP,
        "savings vs Tarazu: observed {vs_tarazu:.2}%, pinned 6.20% ± {SAVINGS_TOL_PP}pp"
    );
}

/// Pinned count and FNV-1a 64 digest of the canonical JSONL trace of one
/// small fixed-seed E-Ant run with every engine feature lit up (LATE
/// speculation, suspend-to-RAM power-down, conservative DVFS), so the
/// stream exercises the full event vocabulary. The digest covers the exact
/// serialized bytes, so it catches any drift in event ordering, payload
/// contents, or the canonical JSON encoding itself. Re-derive with
/// `--nocapture` after deliberate changes: the observed values print below.
///
/// This run leaves [`hadoop_sim::FaultConfig`] at its disabled default, so
/// together with the summary goldens above it also proves the fault layer
/// is zero-perturbation when off: adding fault injection must not shift a
/// single byte of this trace or any pinned metric.
const TRACE_GOLDEN_EVENTS: u64 = 8796;
const TRACE_GOLDEN_FNV1A: u64 = 0xe975ce6ddbe27729;

#[test]
fn golden_trace_digest() {
    let (result, bytes) = golden_trace(|_| {});
    assert!(result.drained, "golden trace run failed to drain");

    // Every line must parse back, and the stream must exercise the full
    // event vocabulary this configuration can produce.
    let mut kinds = BTreeSet::new();
    let mut events = 0u64;
    for line in std::str::from_utf8(&bytes).expect("trace is UTF-8").lines() {
        let (_, event) = parse_trace_line(line)
            .unwrap_or_else(|e| panic!("unparseable trace line: {e}\n{line}"));
        kinds.insert(event.kind());
        events += 1;
    }
    println!("observed kinds: {kinds:?}");
    for kind in [
        "job_submitted",
        "job_completed",
        "task_started",
        "task_completed",
        "heartbeat_drained",
        "slot_occupancy_changed",
        "power_state_changed",
        "speculation_launched",
        "control_interval_fired",
        "pheromone_updated",
        "energy_model_refit",
        "run_finished",
    ] {
        assert!(kinds.contains(kind), "trace is missing `{kind}` events");
    }

    let digest = fnv1a_64(&bytes);
    println!("observed events: {events}, digest: {digest:#018x}");
    assert_eq!(
        events, TRACE_GOLDEN_EVENTS,
        "trace event count drifted (observed {events})"
    );
    assert_eq!(
        digest, TRACE_GOLDEN_FNV1A,
        "trace digest drifted (observed {digest:#018x})"
    );
}

/// Pinned event count and digest of the same golden scenario with
/// [`hadoop_sim::FaultConfig::moderate`] faults injected: the faulted event
/// stream (crashes, heartbeat-expiry deaths, retries, lost map outputs,
/// recoveries) is bit-deterministic too. Re-derive with `--nocapture` as
/// above.
const FAULTED_TRACE_GOLDEN_EVENTS: u64 = 10436;
const FAULTED_TRACE_GOLDEN_FNV1A: u64 = 0x2ac2cde2b757182e;

#[test]
fn golden_faulted_trace_digest() {
    let (result, bytes) =
        golden_trace(|spec| spec.engine.fault = hadoop_sim::FaultConfig::moderate());
    assert!(result.drained, "faulted golden trace run failed to drain");
    assert!(result.task_failures > 0, "faults never fired");

    let mut kinds = BTreeSet::new();
    let mut events = 0u64;
    for line in std::str::from_utf8(&bytes).expect("trace is UTF-8").lines() {
        let (_, event) = parse_trace_line(line)
            .unwrap_or_else(|e| panic!("unparseable trace line: {e}\n{line}"));
        kinds.insert(event.kind());
        events += 1;
    }
    println!("observed kinds: {kinds:?}");
    for kind in [
        "task_failed",
        "machine_failed",
        "machine_recovered",
        "map_output_lost",
    ] {
        assert!(
            kinds.contains(kind),
            "faulted trace is missing `{kind}` events"
        );
    }

    let digest = fnv1a_64(&bytes);
    println!("observed events: {events}, digest: {digest:#018x}");
    assert_eq!(
        events, FAULTED_TRACE_GOLDEN_EVENTS,
        "faulted trace event count drifted (observed {events})"
    );
    assert_eq!(
        digest, FAULTED_TRACE_GOLDEN_FNV1A,
        "faulted trace digest drifted (observed {digest:#018x})"
    );
}

/// Pinned event count and digest of the golden scenario with
/// [`hadoop_sim::EngineConfig::trace_decisions`] on: every placement emits
/// an `assignment_decision` event carrying the scheduler's candidate set
/// and the Eq. 8 τ/η/probability decomposition. The decision payload rides
/// the same deterministic stream, so it digests just like the lifecycle
/// events. Crucially, the *clean* digest above is produced with decision
/// tracing off — together the two tests prove the flag is behaviorally
/// inert: turning it on only inserts `assignment_decision` lines, and
/// turning it off reproduces the original bytes exactly. Re-derive with
/// `--nocapture` as above.
const DECISION_TRACE_GOLDEN_EVENTS: u64 = 10331;
const DECISION_TRACE_GOLDEN_FNV1A: u64 = 0x6162eb7b45f71ac0;

#[test]
fn golden_decision_trace_digest() {
    let (result, bytes) = golden_trace(|spec| spec.engine.trace_decisions = true);
    assert!(result.drained, "decision-traced golden run failed to drain");

    let mut kinds = BTreeSet::new();
    let mut events = 0u64;
    let mut decisions = 0u64;
    for line in std::str::from_utf8(&bytes).expect("trace is UTF-8").lines() {
        let (_, event) = parse_trace_line(line)
            .unwrap_or_else(|e| panic!("unparseable trace line: {e}\n{line}"));
        if event.kind() == "assignment_decision" {
            decisions += 1;
        }
        kinds.insert(event.kind());
        events += 1;
    }
    assert!(
        kinds.contains("assignment_decision"),
        "decision tracing produced no assignment_decision events"
    );
    // The flag only *inserts* decision lines: stripped of them, the stream
    // has exactly as many events as the clean golden trace.
    assert_eq!(
        events - decisions,
        TRACE_GOLDEN_EVENTS,
        "decision tracing perturbed the underlying event stream"
    );

    let digest = fnv1a_64(&bytes);
    println!("observed events: {events}, digest: {digest:#018x}");
    assert_eq!(
        events, DECISION_TRACE_GOLDEN_EVENTS,
        "decision trace event count drifted (observed {events})"
    );
    assert_eq!(
        digest, DECISION_TRACE_GOLDEN_FNV1A,
        "decision trace digest drifted (observed {digest:#018x})"
    );
}

/// Fixed-seed paper-scale E-Ant makespan, pinned. The 87-job realization
/// saturates the fleet and E-Ant's energy-greedy placements stretch the
/// makespan well past Fair's (the ROADMAP re-tuning item); this golden pins
/// the *current* trajectory so scheduler or engine changes that shift the
/// paper-scale behavior — intentionally or not — are caught at review time
/// rather than showing up as silent EXPERIMENTS.md drift.
#[test]
fn paper_scale_eant_makespan_matches_golden() {
    let r = msd_spec().execute(
        &SchedulerKind::EAnt(EAntConfig::paper_default()),
        1234,
        false,
    );
    assert!(r.drained, "paper-scale E-Ant failed to drain");
    assert_close(
        "paper-scale E-Ant makespan (s)",
        r.makespan.as_secs_f64(),
        11470.165,
        REL_TOL,
    );
}

/// Pinned fast-profile goldens for every committed scenario file: the
/// first scheduler × first seed cell's total energy (MJ), makespan (s),
/// and exact FNV-1a 64 digest of the canonical serialized
/// [`hadoop_sim::RunResult`]. Energy and makespan carry the usual
/// [`REL_TOL`] slack for cross-toolchain float reassociation; the digest
/// pins this toolchain's exact bytes like the trace goldens above.
/// Re-derive with `--nocapture`: each row's observed tuple prints below.
/// Each row's streamed JSON must also equal [`oracle_json`] byte for byte.
#[test]
fn scenario_library_matches_goldens() {
    use experiments::scenario::{library_dir, load_spec};

    let table: &[(&str, f64, f64, u64)] = &[
        ("crash-heavy-churn", 5.623288, 6046.415, 0x949640a6cd82c1b3),
        ("deadline-batches", 0.771439, 856.220, 0xb7279a111805b513),
        ("diurnal-double-peak", 0.745891, 830.783, 0xd155439375f4a65d),
        ("fig8-msd", 3.558079, 3858.492, 0xefd50d75ad89bf0d),
        ("fleet-refresh", 1.666999, 1775.056, 0x1d7bd4048464f914),
        (
            "multi-tenant-min-shares",
            0.620810,
            679.467,
            0x5d8780bb2d1bd72b,
        ),
        ("rack-locality-skew", 0.552067, 1156.808, 0xa75889c27b8f0b31),
        ("scale-1000", 109.846479, 1990.655, 0x63339a02920fcc5e),
        ("serve-diurnal-wave", 4.961685, 4200.000, 0x1f9c4ec0ebe16938),
        (
            "serve-overload-burst",
            3.166742,
            2400.000,
            0xd088e9492e962f58,
        ),
        // Same workload/serve sections (and first cell: FIFO, seed 2015)
        // as serve-overload-burst — the `slo` section is harness-side
        // only, so the digest matches that scenario's exactly.
        (
            "serve-overload-burst-slo",
            3.166742,
            2400.000,
            0xd088e9492e962f58,
        ),
        (
            "serve-steady-poisson",
            4.015660,
            3000.000,
            0x4846080777d4864a,
        ),
    ];

    // The table must cover the whole library: a new scenario file needs a
    // golden row before it can ship.
    let mut files: Vec<String> = std::fs::read_dir(library_dir())
        .expect("scenarios/ exists")
        .filter_map(|e| {
            let name = e.expect("readable dir entry").file_name();
            let name = name.to_string_lossy();
            name.strip_suffix(".json").map(str::to_owned)
        })
        .collect();
    files.sort();
    let pinned: Vec<&str> = table.iter().map(|&(name, ..)| name).collect();
    assert_eq!(files, pinned, "scenario library and golden table disagree");

    // Two passes: run (and print) every row first so a drifted table can be
    // re-derived wholesale from one `--nocapture` run, then assert.
    let observed: Vec<(f64, f64, u64)> = table
        .iter()
        .map(|&(name, ..)| {
            let spec = load_spec(&library_dir().join(format!("{name}.json")))
                .unwrap_or_else(|e| panic!("{e}"));
            let kind = spec.schedulers[0].clone();
            let seed = spec.seeds[0];
            let r = spec.execute(&kind, seed, true);
            // Horizon-stopped (service-mode) scenarios end at the deadline
            // with work in flight; only drain-mode rows must drain.
            assert!(r.drained || spec.serve.is_some(), "{name} failed to drain");
            let json = run_result_json(&r);
            assert!(
                json == oracle_json(&r).render(),
                "{name}: streamed JSON differs from the tree oracle"
            );
            let digest = fnv1a_64(json.as_bytes());
            let energy = r.total_energy_joules() / 1.0e6;
            let makespan = r.makespan.as_secs_f64();
            println!("(\"{name}\", {energy:.6}, {makespan:.3}, {digest:#018x}),");
            (energy, makespan, digest)
        })
        .collect();
    for (&(name, energy_mj, makespan_s, digest), &(energy, makespan, observed)) in
        table.iter().zip(&observed)
    {
        assert_close(
            &format!("{name} total energy (MJ)"),
            energy,
            energy_mj,
            REL_TOL,
        );
        assert_close(
            &format!("{name} makespan (s)"),
            makespan,
            makespan_s,
            REL_TOL,
        );
        assert_eq!(
            observed, digest,
            "{name} result digest drifted (observed {observed:#018x})"
        );
    }
}

/// Reference serializer for [`run_result_json`]: it builds one
/// [`JsonValue`] node per value and renders the tree, expanding each
/// sparse assignment row into one count per machine. The streaming writer
/// must match it byte for byte.
fn oracle_json(run: &RunResult) -> JsonValue {
    let uint = JsonValue::UInt;
    let dense = |row: &[StartCell]| {
        let mut counts = vec![0; run.machines.len()];
        for cell in row {
            counts[cell.machine as usize] = u64::from(cell.starts);
        }
        JsonValue::Array(counts.into_iter().map(uint).collect())
    };
    let interval = |snap: &IntervalSnapshot| {
        object([
            ("at", snap.at.to_json()),
            (
                "cumulative_energy_joules",
                JsonValue::Num(snap.cumulative_energy_joules),
            ),
            (
                "assignments",
                JsonValue::Object(
                    snap.assignments
                        .iter()
                        .map(|(job, row)| (job.0.to_string(), dense(row)))
                        .collect(),
                ),
            ),
        ])
    };
    let mut fields = Vec::from([
        ("scheduler", JsonValue::Str(run.scheduler.clone())),
        ("makespan", run.makespan.to_json()),
        ("drained", JsonValue::Bool(run.drained)),
        (
            "groups",
            JsonValue::Array(run.groups.iter().cloned().map(JsonValue::Str).collect()),
        ),
        (
            "jobs",
            JsonValue::Array(run.jobs.iter().map(ToJson::to_json).collect()),
        ),
        (
            "machines",
            JsonValue::Array(run.machines.iter().map(ToJson::to_json).collect()),
        ),
        (
            "intervals",
            JsonValue::Array(run.intervals.iter().map(interval).collect()),
        ),
        ("energy_series", run.energy_series.to_json()),
        ("reports", JsonValue::Array(Vec::new())),
        ("total_tasks", uint(run.total_tasks)),
        ("speculative_attempts", uint(run.speculative_attempts)),
        ("wasted_attempts", uint(run.wasted_attempts)),
        ("task_failures", uint(run.task_failures)),
        ("machine_failures", uint(run.machine_failures)),
        ("map_outputs_lost", uint(run.map_outputs_lost)),
        ("machines_blacklisted", uint(run.machines_blacklisted)),
    ]);
    if let Some(service) = &run.service {
        fields.push(("service", service.to_json()));
    }
    object(fields)
}

/// Hand-built results cover what no library run produces: escaped strings,
/// non-finite floats, empty intervals, extreme job ids and counts, and both
/// shapes of `service`.
#[test]
fn streamed_run_json_matches_tree_oracle() {
    use std::collections::BTreeMap;

    use hadoop_sim::{JobOutcome, JobPhase, MachineOutcome, ServiceStats};
    use simcore::series::TimeSeries;
    use simcore::SimTime;
    use workload::{JobId, SizeClass};

    let awkward = "q\"b\\s\nn\r\tt\u{1}\u{1f}é\u{1f600}/";
    // The largest job id and start count an interval row packs.
    let top = JobId(u64::from(u32::MAX));
    let mut series = TimeSeries::new(awkward);
    series.record(SimTime::ZERO, 0.0);
    series.record(SimTime::from_millis(1500), f64::NAN);
    series.record(SimTime::from_secs(3), 1.0 / 3.0);
    let job = |id: u64, label: &str, finished: Option<SimTime>, work: f64| JobOutcome {
        id: JobId(id),
        label: label.to_owned(),
        benchmark: awkward.to_owned(),
        size_class: (id == 0).then_some(SizeClass::Large),
        submitted_at: SimTime::from_millis(id * 7),
        phase: if finished.is_some() {
            JobPhase::Completed
        } else {
            JobPhase::Running
        },
        finished_at: finished,
        total_tasks: 12,
        reference_work_secs: work,
    };
    let machine = |id: usize, energy: f64| MachineOutcome {
        machine: MachineId(id),
        profile: awkward.to_owned(),
        energy_joules: energy,
        idle_joules: f64::NEG_INFINITY,
        workload_joules: -0.0,
        mean_utilization: 1e-300,
        map_tasks: 3,
        reduce_tasks: u64::MAX,
        tasks_by_benchmark: BTreeMap::from([(awkward.to_owned(), 2), ("Grep".to_owned(), 0)]),
    };
    let base = RunResult {
        scheduler: awkward.to_owned(),
        makespan: SimDuration::from_millis(u64::MAX / 2),
        drained: false,
        groups: vec![awkward.to_owned(), String::new()],
        jobs: vec![
            job(0, awkward, Some(SimTime::from_secs(9)), f64::INFINITY),
            job(1, "", None, 1e300),
        ],
        machines: vec![machine(0, f64::NAN), machine(1, 2.5), machine(2, 0.0)],
        intervals: vec![
            IntervalSnapshot {
                at: SimTime::from_secs(60),
                cumulative_energy_joules: f64::NAN,
                assignments: Assignments::default(),
            },
            IntervalSnapshot {
                at: SimTime::from_secs(120),
                cumulative_energy_joules: 12.5,
                assignments: [
                    (JobId(3), vec![(MachineId(0), 1), (MachineId(2), 2)]),
                    (JobId(10), vec![]),
                    (JobId(11), vec![(MachineId(2), 7)]),
                    (top, vec![(MachineId(0), top.0)]),
                ]
                .into_iter()
                .collect(),
            },
        ],
        energy_series: series,
        total_tasks: 1,
        speculative_attempts: 2,
        wasted_attempts: 3,
        task_failures: 4,
        machine_failures: 5,
        map_outputs_lost: 6,
        machines_blacklisted: 7,
        service: None,
    };
    let service = ServiceStats {
        warmup_s: 600.0,
        measure_s: f64::INFINITY,
        arrivals: 9,
        completions: 0,
        backlog: 4,
        throughput_per_min: f64::NAN,
        mean_sojourn: SimDuration::from_millis(1234),
        latency_distribution: vec![(50, SimDuration::ZERO), (99, SimDuration::from_secs(7))],
        energy_joules: 0.1,
        energy_per_job: 0.0,
        energy_rate_watts: -2.0,
        tasks_completed: 11,
        queue_mean: 0.5,
        queue_max: 8,
    };
    let empty = RunResult {
        scheduler: String::new(),
        groups: vec![],
        jobs: vec![],
        machines: vec![],
        intervals: vec![],
        energy_series: TimeSeries::new("energy"),
        ..base.clone()
    };
    let cases = [
        ("escapes and non-finite floats", base.clone()),
        (
            "with service",
            RunResult {
                service: Some(service.clone()),
                ..base
            },
        ),
        ("empty", empty.clone()),
        (
            "empty with empty service",
            RunResult {
                service: Some(ServiceStats {
                    latency_distribution: vec![],
                    ..service
                }),
                ..empty
            },
        ),
    ];
    for (what, run) in &cases {
        assert_eq!(run_result_json(run), oracle_json(run).render(), "{what}");
    }
}

/// Exact FNV-1a 64 digests of the canonical result JSON of fast E-Ant
/// runs under every [`eant::ExchangeStrategy`], each with negative
/// feedback on and off, plus one faulted run whose crashes and
/// blacklisting decay individual machines' pheromone trails. The E-Ant
/// row of `summary_metrics_match_goldens` covers only the default
/// configuration; these pin the learning arithmetic of every variant to
/// the byte. Re-derive with `--nocapture`: each observed row prints.
#[test]
fn eant_variant_digests_are_pinned() {
    use eant::ExchangeStrategy;
    use hadoop_sim::FaultConfig;

    let table: &[(ExchangeStrategy, bool, u64)] = &[
        (ExchangeStrategy::None, true, 0xcdcf05c68bd926ac),
        (ExchangeStrategy::None, false, 0xf7c830f62e689156),
        (ExchangeStrategy::MachineLevel, true, 0xbe463a3b0d6deb98),
        (ExchangeStrategy::MachineLevel, false, 0xf84b4e655ee5e66d),
        (ExchangeStrategy::JobLevel, true, 0x829f9f52bf64b735),
        (ExchangeStrategy::JobLevel, false, 0x036887dea02b9810),
        (ExchangeStrategy::Both, true, 0x76bab4fdc3cc5421),
        (ExchangeStrategy::Both, false, 0xf84b4e655ee5e66d),
    ];
    let eant = |exchange, negative_feedback| {
        SchedulerKind::EAnt(EAntConfig {
            exchange,
            negative_feedback,
            ..EAntConfig::paper_default()
        })
    };
    let mut observed = Vec::new();
    for exchange in [
        ExchangeStrategy::None,
        ExchangeStrategy::MachineLevel,
        ExchangeStrategy::JobLevel,
        ExchangeStrategy::Both,
    ] {
        for negative_feedback in [true, false] {
            let r = run(&eant(exchange, negative_feedback));
            assert!(
                r.drained,
                "{exchange:?}/{negative_feedback} failed to drain"
            );
            let digest = fnv1a_64(run_result_json(&r).as_bytes());
            println!("(ExchangeStrategy::{exchange:?}, {negative_feedback}, {digest:#018x}),");
            observed.push((exchange, negative_feedback, digest));
        }
    }
    assert_eq!(observed, table, "E-Ant variant digests drifted");

    let mut faulted = msd_spec().clone();
    faulted.engine.fault = FaultConfig {
        task_failure_prob: 0.05,
        blacklist_threshold: 3,
        ..FaultConfig::moderate()
    };
    let r = faulted.execute(
        &SchedulerKind::EAnt(EAntConfig::paper_default()),
        2015,
        true,
    );
    assert!(r.drained, "faulted E-Ant run failed to drain");
    assert!(r.machine_failures > 0, "no machine crashed");
    assert!(r.machines_blacklisted > 0, "no machine was blacklisted");
    let digest = fnv1a_64(run_result_json(&r).as_bytes());
    println!("faulted: {digest:#018x}");
    assert_eq!(digest, 0x9c5f39eba069e887, "faulted E-Ant digest drifted");
}

/// Exact FNV-1a 64 digests of the registry snapshot and of the sampled
/// series file of monitored fast cells (seed 2015): an SLO scenario as
/// committed, a crash-heavy run with decision tracing on (16 machines,
/// crashes and task failures), a plain Fair cell, and an E-Ant cell
/// under LATE speculation, whose `outcome="lost"` rows cover speculative
/// losers. Re-derive with `--nocapture`: each observed pair prints.
#[test]
fn registry_and_series_digests_are_pinned() {
    use experiments::scenario::{library_dir, load_spec};
    use experiments::slo::run_monitored;
    use hadoop_sim::SloConfig;

    type Tweak = fn(&mut experiments::scenario::ScenarioSpec);
    let with_slo: Tweak = |spec| spec.slo = Some(SloConfig::default());
    let as_committed: Tweak = |_| {};
    let late_with_slo: Tweak = |spec| {
        spec.engine.speculation = SpeculationPolicy::Late;
        spec.slo = Some(SloConfig::default());
    };
    let table: &[(&str, &str, Tweak, u64, u64)] = &[
        (
            "serve-overload-burst-slo",
            "E-Ant",
            as_committed,
            0x79fcc26dcc90b623,
            0xfde8705a50e30210,
        ),
        (
            "crash-heavy-churn",
            "E-Ant",
            with_slo,
            0x37b8c3ff86d6cbb1,
            0x6990313170ab7ca9,
        ),
        (
            "fig8-msd",
            "Fair",
            as_committed,
            0x06cf588d5a0fea53,
            0x0a1276b2fb332b78,
        ),
        (
            "fig8-msd",
            "E-Ant",
            late_with_slo,
            0x9d3e25837f996613,
            0x6b7f90a67b061dc7,
        ),
    ];
    let observed: Vec<(u64, u64)> = table
        .iter()
        .map(|&(name, label, tweak, ..)| {
            let mut spec = load_spec(&library_dir().join(format!("{name}.json")))
                .unwrap_or_else(|e| panic!("{e}"));
            tweak(&mut spec);
            let kind = spec
                .schedulers
                .iter()
                .find(|k| k.label() == label)
                .unwrap_or_else(|| panic!("{name} compares no {label}"))
                .clone();
            let cell = run_monitored(&spec, &kind, 2015, true);
            let registry = fnv1a_64(cell.registry.render().as_bytes());
            let series = fnv1a_64(cell.series.render().as_bytes());
            println!("{name} {label}: {registry:#018x} / {series:#018x}");
            (registry, series)
        })
        .collect();
    for (&(name, label, _, registry, series), &observed) in table.iter().zip(&observed) {
        assert_eq!(
            observed,
            (registry, series),
            "{name} {label} registry/series digests drifted"
        );
    }
}

/// Exact FNV-1a 64 digest of the `breach.json` that the overload SLO
/// scenario's E-Ant cell writes into its postmortem bundle (seed 2015,
/// fast). Re-derive with `--nocapture`.
#[test]
fn overload_breach_record_digest_is_pinned() {
    use experiments::scenario::{library_dir, load_spec};
    use experiments::slo::run_monitored;

    let spec = load_spec(&library_dir().join("serve-overload-burst-slo.json"))
        .unwrap_or_else(|e| panic!("{e}"));
    let eant = spec
        .schedulers
        .iter()
        .find(|k| k.label() == "E-Ant")
        .expect("slo scenario compares E-Ant");
    let bundle = run_monitored(&spec, eant, 2015, true)
        .postmortem
        .expect("E-Ant breaches the overload SLO");
    let breach = bundle.breach_json().render();
    let digest = fnv1a_64(breach.as_bytes());
    println!("breach.json: {digest:#018x} {breach}");
    assert_eq!(digest, 0x9ff7320386ef067d, "overload breach.json drifted");
}
