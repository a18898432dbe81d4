//! The [`ScenarioSpec`] codec: canonical-JSON scenario files in, validated
//! runnable specs out, and back again byte-identically.
//!
//! # Normal form
//!
//! Each type of the spec tree lists its fields once (see
//! [`metrics::spec`]), and that list both writes and reads it.
//! [`ScenarioSpec::to_json`] emits every listed field in key order (only
//! `serve` and `slo` are left out when unset), so `emit ∘ parse ∘ emit` is
//! byte-identical (the property test's parser/emitter inverse pair).
//! Parsing is omission-friendly: any engine knob left out takes the
//! engine's own default, `fleet` defaults to the paper's 16-node testbed,
//! and `tolerance` to ±1 %.
//!
//! # Validation
//!
//! Every panic in the engine/workload constructors (`EngineConfig::validate`,
//! `MsdConfig::generate`, …) is mirrored here as a [`SpecError`] — a
//! field's range check in its codec, a cross-field rule after the read —
//! before the spec runs, so a malformed file reports
//! `line N: \`engine.fault.crash_mtbf_s\`: …; offending line: …` instead of
//! crashing mid-run.

use cluster::{profiles, Fleet};
use eant::{EAntConfig, ExchangeStrategy};
use hadoop_sim::{
    DvfsConfig, Engine, EngineConfig, FaultConfig, NoiseConfig, PowerDownConfig, RunResult,
    Scheduler, SloConfig, SpeculationPolicy, StopCondition,
};
use metrics::emit::{object, JsonValue, SIZE_CLASSES};
use metrics::spec::{
    ensure, fnv1a_64, syntax_context, with_context, Bool, Check, Codec, Int, List, Map, Names, Obj,
    OmitIf, Opt, Pair, SpecError, Str, Tags, Visitor, F64, U32, U64, USIZE,
};
use simcore::{SimDuration, SimRng, SimTime};
use workload::arrival::{DiurnalPeak, DiurnalProfile, OpenArrival};
use workload::mix::{self, BenchmarkChoice, StreamArrival, StreamSpec};
use workload::msd::MsdConfig;
use workload::open::{OpenJobTemplate, OpenStream, OpenStreamSpec};
use workload::{BenchmarkKind, JobSpec};

use crate::common::SchedulerKind;

/// Per-scenario regression tolerances for `scenario compare`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Maximum relative energy delta before the gate fails.
    pub energy_rel: f64,
    /// Maximum relative makespan delta before the gate fails.
    pub makespan_rel: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            energy_rel: 0.01,
            makespan_rel: 0.01,
        }
    }
}

/// What jobs a scenario submits.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// The Table III statistical mix ([`workload::msd`]).
    Msd(MsdConfig),
    /// A composed multi-stream workload ([`workload::mix`]).
    Streams(Vec<StreamSpec>),
    /// An unbounded open job stream ([`workload::open`]); requires the
    /// scenario's `serve` section (the horizon bounds the run, not the
    /// job count).
    Open(OpenStreamSpec),
}

/// Regression tolerances for open-stream (service-mode) records, compared
/// by `scenario compare` instead of the drain-run energy/makespan pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeTolerance {
    /// Maximum relative p99-sojourn delta before the gate fails.
    pub p99_rel: f64,
    /// Maximum relative energy-per-job delta before the gate fails.
    pub energy_per_job_rel: f64,
}

impl Default for ServeTolerance {
    fn default() -> Self {
        ServeTolerance {
            p99_rel: 0.02,
            energy_per_job_rel: 0.02,
        }
    }
}

/// The service-mode section of a scenario: horizon timing (with optional
/// `--fast` overrides) and service-metric tolerances.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeSpec {
    /// Warm-up period excluded from steady-state accounting.
    pub warmup: SimDuration,
    /// Measurement-window length.
    pub measure: SimDuration,
    /// Shorter warm-up for `--fast` runs (falls back to `warmup`).
    pub fast_warmup: Option<SimDuration>,
    /// Shorter window for `--fast` runs (falls back to `measure`).
    pub fast_measure: Option<SimDuration>,
    /// Service-metric regression tolerances.
    pub tolerance: ServeTolerance,
}

impl ServeSpec {
    /// The `(warmup, measure)` horizon at the given scale.
    pub fn horizon(&self, fast: bool) -> (SimDuration, SimDuration) {
        if fast {
            (
                self.fast_warmup.unwrap_or(self.warmup),
                self.fast_measure.unwrap_or(self.measure),
            )
        } else {
            (self.warmup, self.measure)
        }
    }
}

/// One homogeneous group of a custom fleet.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetGroup {
    /// Shipped profile name ([`cluster::profiles::by_name`]).
    pub profile: String,
    /// Number of machines of this type.
    pub count: usize,
    /// Optional (map, reduce) slot override.
    pub slots: Option<(usize, usize)>,
}

/// What machines a scenario runs on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetSpec {
    /// The paper's 16-node evaluation testbed (§V-B).
    Paper,
    /// An explicit composition of shipped profiles.
    Custom {
        /// Homogeneous machine groups, in fleet order.
        groups: Vec<FleetGroup>,
        /// Machines per rack (`None` keeps the builder default).
        rack_size: Option<usize>,
    },
}

/// A complete data-driven scenario: workload, fleet, engine knobs,
/// scheduler grid, seeds and regression tolerances — everything a run
/// needs, parsed from one JSON file.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Unique scenario name (the run-DB grouping key).
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// Seeds the scenario sweeps.
    pub seeds: Vec<u64>,
    /// Schedulers the scenario compares.
    pub schedulers: Vec<SchedulerKind>,
    /// The full-scale workload.
    pub workload: WorkloadSpec,
    /// Optional reduced workload for `--fast` runs (falls back to
    /// [`ScenarioSpec::workload`]).
    pub fast_workload: Option<WorkloadSpec>,
    /// Fleet composition.
    pub fleet: FleetSpec,
    /// Engine configuration (faults, noise, power policies, …).
    pub engine: EngineConfig,
    /// Regression-gate tolerances.
    pub tolerance: Tolerance,
    /// Service-mode horizon and tolerances; present exactly when the
    /// workload is [`WorkloadSpec::Open`].
    pub serve: Option<ServeSpec>,
    /// SLO watchdog thresholds and flight-recorder sizing. Plain
    /// `execute` runs ignore this section entirely (the watchdog is an
    /// observer the harness attaches, never an engine knob), so adding it
    /// to a scenario perturbs nothing but the manifest key.
    pub slo: Option<SloConfig>,
}

impl ScenarioSpec {
    /// Parses a scenario document, reporting syntax and validation errors
    /// with the offending line and snippet.
    ///
    /// # Errors
    ///
    /// Returns a `line N: …; offending line: …` message on malformed JSON
    /// or on any schema/range violation.
    pub fn parse(input: &str) -> Result<Self, String> {
        let doc = JsonValue::parse(input).map_err(|e| syntax_context(input, &e))?;
        SPEC.read_root(&doc).map_err(|e| with_context(input, &e))
    }

    /// Emits the full normal form (every field in a fixed key order; the
    /// `serve` and `slo` keys appear only when set, so scenario files
    /// without them — and therefore their manifest keys — are unchanged).
    pub fn to_json(&self) -> JsonValue {
        SPEC.write(&mut self.clone())
    }

    /// The compact canonical rendering of [`ScenarioSpec::to_json`].
    pub fn canonical(&self) -> String {
        self.to_json().render()
    }

    /// The workload used at the given scale.
    pub fn workload_for(&self, fast: bool) -> &WorkloadSpec {
        if fast {
            self.fast_workload.as_ref().unwrap_or(&self.workload)
        } else {
            &self.workload
        }
    }

    /// Generates the job mix for one run. MSD workloads draw from the
    /// seed's `fork("msd")` stream, stream mixes from its `fork("mix")`.
    pub fn jobs(&self, seed: u64, fast: bool) -> Vec<JobSpec> {
        match self.workload_for(fast) {
            WorkloadSpec::Msd(cfg) => cfg.generate(&mut SimRng::seed_from(seed).fork("msd")),
            WorkloadSpec::Streams(streams) => {
                mix::generate(streams, &mut SimRng::seed_from(seed).fork("mix"))
            }
            // Open workloads materialize nothing up front — the engine
            // pulls jobs from the stream during the run.
            WorkloadSpec::Open(_) => Vec::new(),
        }
    }

    /// Builds the scenario's fleet.
    ///
    /// # Panics
    ///
    /// Panics only on a hand-constructed spec that bypassed validation
    /// (unknown profile name, empty fleet); parsed specs never do.
    pub fn build_fleet(&self) -> Fleet {
        match &self.fleet {
            FleetSpec::Paper => Fleet::paper_evaluation(),
            FleetSpec::Custom { groups, rack_size } => {
                let mut builder = Fleet::builder();
                for g in groups {
                    let mut profile = profiles::by_name(&g.profile)
                        .unwrap_or_else(|| panic!("unknown machine profile {:?}", g.profile));
                    if let Some((maps, reduces)) = g.slots {
                        profile = profile.with_slots(maps, reduces);
                    }
                    builder = builder.add(profile, g.count);
                }
                if let Some(rack) = rack_size {
                    builder = builder.rack_size(*rack);
                }
                builder.build().expect("validated fleet composition")
            }
        }
    }

    /// Runs one (scheduler, seed) cell of the scenario.
    pub fn execute(&self, kind: &SchedulerKind, seed: u64, fast: bool) -> RunResult {
        self.execute_scaled_observed(kind, seed, fast, 1.0, |_, _| {})
    }

    /// Runs one cell with an observer hook: `configure` receives the
    /// engine and scheduler just before the run starts, which is where
    /// event-stream observers attach (see `hadoop_sim::trace`). A serve
    /// scenario's arrival intensity is multiplied by `rate_scale` — the
    /// utilization knob of the `experiments serve` sweep; batch workloads
    /// are fixed job lists and ignore it. [`ScenarioSpec::execute`] is this
    /// call at scale 1 with no observers, so observed and plain runs agree
    /// byte for byte.
    pub fn execute_scaled_observed(
        &self,
        kind: &SchedulerKind,
        seed: u64,
        fast: bool,
        rate_scale: f64,
        configure: impl FnOnce(&mut Engine, &mut dyn Scheduler),
    ) -> RunResult {
        let mut engine_cfg = self.engine.clone();
        if let Some(serve) = &self.serve {
            let (warmup, measure) = serve.horizon(fast);
            engine_cfg.stop = StopCondition::Horizon { warmup, measure };
        }
        let mut engine = Engine::new(self.build_fleet(), engine_cfg, seed);
        engine.submit_jobs(self.jobs(seed, fast));
        if self.serve.is_some() {
            if let WorkloadSpec::Open(stream) = self.workload_for(fast) {
                // The stream draws from its own fork of the scenario seed,
                // so serve runs share no randomness with batch paths.
                let mut rng = SimRng::seed_from(seed).fork("serve");
                engine.attach_open_stream(OpenStream::new(stream, rate_scale, &mut rng));
            }
        }
        let mut sched = kind.make(seed);
        configure(&mut engine, sched.as_mut());
        let mut result = engine.run(sched.as_mut());
        result.scheduler = sched.name().to_owned();
        result
    }

    /// The run manifest: everything that determines a run's bytes.
    pub fn manifest(&self, kind: &SchedulerKind, seed: u64, fast: bool) -> JsonValue {
        object([
            ("spec", self.to_json()),
            ("scheduler", SCHEDULER.write(&mut kind.clone())),
            ("seed", JsonValue::UInt(seed)),
            ("fast", JsonValue::Bool(fast)),
        ])
    }

    /// Content-hash key of one run: FNV-1a over the rendered manifest.
    /// Any change to the spec, scheduler config, seed or scale changes the
    /// key, which is what makes the run DB append-only safe.
    pub fn manifest_key(&self, kind: &SchedulerKind, seed: u64, fast: bool) -> String {
        format!(
            "{:016x}",
            fnv1a_64(self.manifest(kind, seed, fast).render().as_bytes())
        )
    }
}

// ---------------------------------------------------------------------------
// Field lists: each persisted type names its fields once, in key order, and
// the one list both writes the normal form and reads a document.

/// A duration in seconds: an integer when whole, fractional otherwise.
#[derive(Debug, Clone, Copy)]
struct Secs;

impl Codec for Secs {
    type Value = SimDuration;

    fn write(&self, value: &mut SimDuration) -> JsonValue {
        if value.as_millis().is_multiple_of(1000) {
            JsonValue::UInt(value.as_millis() / 1000)
        } else {
            JsonValue::Num(value.as_secs_f64())
        }
    }

    fn read(&self, json: &JsonValue, path: &dyn Fn() -> String) -> Result<SimDuration, SpecError> {
        let secs = F64.read(json, path)?;
        if secs.is_finite() && secs >= 0.0 {
            Ok(SimDuration::from_secs_f64(secs))
        } else {
            Err(SpecError::new(path(), "must be a non-negative number"))
        }
    }
}

const POSITIVE_SECS: Check<Secs> = Check::new(Secs, |d| !d.is_zero(), "must be positive");
const POSITIVE: Check<F64> = Check::new(F64, |x| x.is_finite() && *x > 0.0, "must be positive");
const NON_NEGATIVE: Check<F64> =
    Check::new(F64, |x| x.is_finite() && *x >= 0.0, "must be non-negative");
const PROBABILITY: Check<F64> = Check::new(F64, |x| (0.0..=1.0).contains(x), "must be in [0, 1]");
const FRACTION: Check<F64> = Check::new(F64, |x| *x > 0.0 && *x <= 1.0, "must be in (0, 1]");
const AT_LEAST_ONE: Check<F64> = Check::new(F64, |x| *x >= 1.0, "must be >= 1");
const COUNT: Check<Int<usize>> = Check::new(USIZE, |n| *n > 0, "must be positive");
const POSITIVE_U32: Check<Int<u32>> =
    Check::new(U32, |n| *n > 0, "must be a positive 32-bit integer");

const SPEC: Obj<ScenarioSpec> = Obj::new(
    || ScenarioSpec {
        name: String::new(),
        description: String::new(),
        seeds: Vec::new(),
        schedulers: Vec::new(),
        workload: WorkloadSpec::Streams(Vec::new()),
        fast_workload: None,
        fleet: FleetSpec::Paper,
        engine: EngineConfig::default(),
        tolerance: Tolerance::default(),
        serve: None,
        slo: None,
    },
    |s, v| {
        v.required(
            "name",
            Str.check(|n| !n.is_empty(), "must not be empty"),
            &mut s.name,
        );
        v.field("description", Str, &mut s.description);
        v.required(
            "seeds",
            List(U64).check(|s| !s.is_empty(), "must list at least one seed"),
            &mut s.seeds,
        );
        v.required(
            "schedulers",
            List(SCHEDULER).check(|s| !s.is_empty(), "must list at least one scheduler"),
            &mut s.schedulers,
        );
        v.required("workload", WORKLOAD, &mut s.workload);
        v.field("fast_workload", Opt(WORKLOAD), &mut s.fast_workload);
        v.field("fleet", FLEET, &mut s.fleet);
        v.field("engine", ENGINE, &mut s.engine);
        v.field("tolerance", TOLERANCE, &mut s.tolerance);
        v.field("serve", OmitIf(Opt(SERVE), Option::is_none), &mut s.serve);
        v.field("slo", OmitIf(Opt(SLO), Option::is_none), &mut s.slo);
    },
)
.validated(|s| {
    // Open workloads and the serve section come as a pair: the horizon is
    // what bounds an unbounded stream, and a drain workload has no
    // steady-state window to measure.
    let is_open = |w: &WorkloadSpec| matches!(w, WorkloadSpec::Open(_));
    if s.serve.is_some() {
        ensure(
            is_open(&s.workload),
            "workload",
            "a scenario with a `serve` section must use an open workload",
        )?;
        ensure(
            s.fast_workload.as_ref().is_none_or(is_open),
            "fast_workload",
            "the fast workload of a serve scenario must also be open",
        )
    } else {
        ensure(
            !is_open(&s.workload) && !s.fast_workload.as_ref().is_some_and(is_open),
            "workload",
            "an open workload requires a `serve` section",
        )
    }
});

/// Per-scenario regression tolerances; also the `tolerance` of a run record.
pub(super) const TOLERANCE: Obj<Tolerance> = Obj::new(Tolerance::default, |t, v| {
    v.field("energy_rel", POSITIVE, &mut t.energy_rel);
    v.field("makespan_rel", POSITIVE, &mut t.makespan_rel);
});

/// Service-metric tolerances; also the `serve_tolerance` of a run record.
pub(super) const SERVE_TOLERANCE: Obj<ServeTolerance> =
    Obj::new(ServeTolerance::default, |t, v| {
        v.field("p99_rel", POSITIVE, &mut t.p99_rel);
        v.field("energy_per_job_rel", POSITIVE, &mut t.energy_per_job_rel);
    });

// Schedulers

const SCHEDULERS: Tags<SchedulerKind> = Tags {
    key: "kind",
    what: "scheduler",
    variants: &[
        ("fifo", || SchedulerKind::Fifo),
        ("fair", || SchedulerKind::Fair),
        ("tarazu", || SchedulerKind::Tarazu),
        ("eant", || SchedulerKind::EAnt(EAntConfig::paper_default())),
    ],
};

const EXCHANGES: Names<ExchangeStrategy> = Names {
    what: "exchange strategy",
    table: &[
        ("none", ExchangeStrategy::None),
        ("machine", ExchangeStrategy::MachineLevel),
        ("job", ExchangeStrategy::JobLevel),
        ("both", ExchangeStrategy::Both),
    ],
};

/// A scheduler, in specs and run manifests.
const SCHEDULER: Obj<SchedulerKind> = Obj::tagged(&SCHEDULERS, |kind, v| {
    if let SchedulerKind::EAnt(cfg) = kind {
        eant_fields(cfg, v);
    }
})
.validated(|kind| match kind {
    SchedulerKind::EAnt(c) => ensure(
        0.0 < c.tau_min && c.tau_min <= c.tau_init && c.tau_init <= c.tau_max,
        "tau_init",
        "tau bounds must satisfy 0 < tau_min <= tau_init <= tau_max",
    ),
    _ => Ok(()),
});

fn eant_fields(c: &mut EAntConfig, v: &mut Visitor<'_>) {
    v.field("rho", FRACTION, &mut c.rho);
    v.field(
        "beta",
        F64.check(|b| *b >= 0.0, "must be >= 0"),
        &mut c.beta,
    );
    v.field("tau_init", F64, &mut c.tau_init);
    v.field("tau_min", F64, &mut c.tau_min);
    v.field("tau_max", F64, &mut c.tau_max);
    v.field("local_boost", AT_LEAST_ONE, &mut c.local_boost);
    v.field("share_cap", AT_LEAST_ONE, &mut c.share_cap);
    v.field("exchange", EXCHANGES, &mut c.exchange);
    v.field("negative_feedback", Bool, &mut c.negative_feedback);
}

// Workloads

const WORKLOADS: Tags<WorkloadSpec> = Tags {
    key: "kind",
    what: "workload kind",
    variants: &[
        ("msd", || WorkloadSpec::Msd(MsdConfig::paper_default())),
        ("streams", || WorkloadSpec::Streams(Vec::new())),
        ("open", || {
            WorkloadSpec::Open(OpenStreamSpec {
                label: String::new(),
                arrival: OpenArrival::Poisson { rate_per_min: 0.0 },
                templates: Vec::new(),
            })
        }),
    ],
};

const WORKLOAD: Obj<WorkloadSpec> = Obj::tagged(&WORKLOADS, |w, v| match w {
    WorkloadSpec::Msd(cfg) => {
        v.required("num_jobs", COUNT, &mut cfg.num_jobs);
        v.required("task_scale", POSITIVE_U32, &mut cfg.task_scale);
        v.required(
            "submission_window_s",
            POSITIVE_SECS,
            &mut cfg.submission_window,
        );
    }
    WorkloadSpec::Streams(streams) => v.required(
        "streams",
        List(STREAM).check(|s| !s.is_empty(), "must list at least one stream"),
        streams,
    ),
    WorkloadSpec::Open(spec) => {
        v.required("label", Str, &mut spec.label);
        v.required("arrival", OPEN_ARRIVAL, &mut spec.arrival);
        v.required(
            "templates",
            List(TEMPLATE).check(|t| !t.is_empty(), "must list at least one template"),
            &mut spec.templates,
        );
    }
});

const BENCHMARKS: Names<BenchmarkKind> = Names {
    what: "benchmark",
    table: &[
        ("wordcount", BenchmarkKind::Wordcount),
        ("grep", BenchmarkKind::Grep),
        ("terasort", BenchmarkKind::Terasort),
    ],
};

const BENCHMARK_CHOICES: Names<BenchmarkChoice> = Names {
    what: "benchmark",
    table: &[
        (
            "wordcount",
            BenchmarkChoice::Fixed(BenchmarkKind::Wordcount),
        ),
        ("grep", BenchmarkChoice::Fixed(BenchmarkKind::Grep)),
        ("terasort", BenchmarkChoice::Fixed(BenchmarkKind::Terasort)),
        ("rotate", BenchmarkChoice::Rotate),
    ],
};

const STREAM: Obj<StreamSpec> = Obj::new(
    || StreamSpec {
        label: String::new(),
        benchmark: BenchmarkChoice::Rotate,
        size_class: None,
        maps: 0,
        reduces: 0,
        count: 0,
        arrival: StreamArrival::Batches { at_s: Vec::new() },
    },
    |s, v| {
        v.required("label", Str, &mut s.label);
        v.field("benchmark", BENCHMARK_CHOICES, &mut s.benchmark);
        v.field("size_class", Opt(SIZE_CLASSES), &mut s.size_class);
        v.required("maps", POSITIVE_U32, &mut s.maps);
        v.field("reduces", U32, &mut s.reduces);
        v.required("count", COUNT, &mut s.count);
        v.required("arrival", ARRIVAL, &mut s.arrival);
    },
);

const TEMPLATE: Obj<OpenJobTemplate> = Obj::new(
    || OpenJobTemplate {
        benchmark: BenchmarkKind::Wordcount,
        size_class: None,
        maps: 0,
        reduces: 0,
        weight: 1.0,
    },
    |t, v| {
        v.required("benchmark", BENCHMARKS, &mut t.benchmark);
        v.field("size_class", Opt(SIZE_CLASSES), &mut t.size_class);
        v.required("maps", POSITIVE_U32, &mut t.maps);
        v.field("reduces", U32, &mut t.reduces);
        v.field("weight", POSITIVE, &mut t.weight);
    },
);

const ARRIVALS: Tags<StreamArrival> = Tags {
    key: "kind",
    what: "arrival kind",
    variants: &[
        ("poisson", || StreamArrival::Poisson {
            rate_per_min: 0.0,
            start_s: 0.0,
        }),
        ("uniform", || StreamArrival::Uniform {
            period_s: 0.0,
            start_s: 0.0,
        }),
        ("batches", || StreamArrival::Batches { at_s: Vec::new() }),
        ("diurnal", || StreamArrival::Diurnal {
            profile: NO_PROFILE,
            window_s: 0.0,
        }),
    ],
};

const ARRIVAL: Obj<StreamArrival> = Obj::tagged(&ARRIVALS, |a, v| match a {
    StreamArrival::Poisson {
        rate_per_min,
        start_s,
    } => {
        v.required("rate_per_min", POSITIVE, rate_per_min);
        v.field("start_s", NON_NEGATIVE, start_s);
    }
    StreamArrival::Uniform { period_s, start_s } => {
        v.required("period_s", POSITIVE, period_s);
        v.field("start_s", NON_NEGATIVE, start_s);
    }
    StreamArrival::Batches { at_s } => v.required(
        "at_s",
        List(NON_NEGATIVE).check(|t| !t.is_empty(), "must list at least one batch time"),
        at_s,
    ),
    StreamArrival::Diurnal { profile, window_s } => {
        diurnal_fields(profile, v);
        v.required("window_s", POSITIVE, window_s);
    }
})
.validated(|a| match a {
    StreamArrival::Diurnal { profile, .. } => check_diurnal(profile),
    _ => Ok(()),
});

const OPEN_ARRIVALS: Tags<OpenArrival> = Tags {
    key: "kind",
    what: "open arrival kind",
    variants: &[
        ("poisson", || OpenArrival::Poisson { rate_per_min: 0.0 }),
        ("diurnal", || OpenArrival::Diurnal {
            profile: NO_PROFILE,
            period_s: 0.0,
        }),
        ("bursty", || OpenArrival::Bursty {
            bursts_per_min: 0.0,
            burst_min: 1,
            burst_max: 0,
        }),
    ],
};

const OPEN_ARRIVAL: Obj<OpenArrival> = Obj::tagged(&OPEN_ARRIVALS, |a, v| match a {
    OpenArrival::Poisson { rate_per_min } => {
        v.required("rate_per_min", POSITIVE, rate_per_min);
    }
    OpenArrival::Diurnal { profile, period_s } => {
        diurnal_fields(profile, v);
        v.required("period_s", POSITIVE, period_s);
    }
    OpenArrival::Bursty {
        bursts_per_min,
        burst_min,
        burst_max,
    } => {
        v.required("bursts_per_min", POSITIVE, bursts_per_min);
        v.field("burst_min", U32, burst_min);
        v.required("burst_max", U32, burst_max);
    }
})
.validated(|a| match a {
    OpenArrival::Diurnal { profile, .. } => check_diurnal(profile),
    OpenArrival::Bursty {
        burst_min,
        burst_max,
        ..
    } => ensure(
        1 <= *burst_min && burst_min <= burst_max,
        "burst_min",
        "burst size range must satisfy 1 <= min <= max",
    ),
    OpenArrival::Poisson { .. } => Ok(()),
});

const NO_PROFILE: DiurnalProfile = DiurnalProfile {
    base_per_min: 0.0,
    peaks: Vec::new(),
};

const PEAK: Obj<DiurnalPeak> = Obj::new(
    || DiurnalPeak {
        center_s: 0.0,
        width_s: 0.0,
        extra_per_min: 0.0,
    },
    |p, v| {
        v.required(
            "center_s",
            F64.check(|x| x.is_finite(), "must be finite"),
            &mut p.center_s,
        );
        v.required("width_s", POSITIVE, &mut p.width_s);
        v.required("extra_per_min", NON_NEGATIVE, &mut p.extra_per_min);
    },
);

/// The diurnal profile's fields, shared by stream and open arrivals.
fn diurnal_fields(profile: &mut DiurnalProfile, v: &mut Visitor<'_>) {
    v.field("base_per_min", NON_NEGATIVE, &mut profile.base_per_min);
    v.required("peaks", List(PEAK), &mut profile.peaks);
}

fn check_diurnal(profile: &DiurnalProfile) -> Result<(), SpecError> {
    ensure(
        profile.max_per_min() > 0.0,
        "",
        "diurnal profile must have positive intensity (base or at least one peak)",
    )
}

const SERVE: Obj<ServeSpec> = Obj::new(ServeSpec::default, |s, v| {
    v.required("warmup_s", Secs, &mut s.warmup);
    v.required("measure_s", POSITIVE_SECS, &mut s.measure);
    v.field("fast_warmup_s", Opt(Secs), &mut s.fast_warmup);
    v.field("fast_measure_s", Opt(POSITIVE_SECS), &mut s.fast_measure);
    v.field("tolerance", SERVE_TOLERANCE, &mut s.tolerance);
});

const SLO: Obj<SloConfig> = Obj::new(SloConfig::default, |c, v| {
    v.field("window_s", POSITIVE_SECS, &mut c.window);
    v.field("ring_capacity", COUNT, &mut c.ring_capacity);
    v.field(
        "arm_after_s",
        Map::new(Secs, |d| SimTime::ZERO + d, |t| *t - SimTime::ZERO),
        &mut c.arm_after,
    );
    v.field("min_completions", USIZE, &mut c.min_completions);
    v.field("p95_sojourn_s", Opt(POSITIVE_SECS), &mut c.p95_sojourn);
    v.field("p99_sojourn_s", Opt(POSITIVE_SECS), &mut c.p99_sojourn);
    v.field("max_queue_depth", Opt(U64), &mut c.max_queue_depth);
    v.field(
        "max_backlog_growth_per_min",
        Opt(POSITIVE),
        &mut c.max_backlog_growth_per_min,
    );
})
.validated(|c| {
    ensure(
        c.has_thresholds(),
        "",
        "must set at least one threshold (p95_sojourn_s, p99_sojourn_s, \
         max_queue_depth or max_backlog_growth_per_min)",
    )
});

// Fleet

const FLEETS: Tags<FleetSpec> = Tags {
    key: "preset",
    what: "fleet preset",
    variants: &[
        ("paper", || FleetSpec::Paper),
        ("", || FleetSpec::Custom {
            groups: Vec::new(),
            rack_size: None,
        }),
    ],
};

/// `{"preset":"paper"}`, or a custom fleet's groups.
const FLEET: Obj<FleetSpec> = Obj::tagged(&FLEETS, |f, v| {
    if let FleetSpec::Custom { groups, rack_size } = f {
        v.required(
            "groups",
            List(GROUP).check(|g| !g.is_empty(), "must list at least one group"),
            groups,
        );
        v.field("rack_size", Opt(COUNT), rack_size);
    }
});

const GROUP: Obj<FleetGroup> = Obj::new(FleetGroup::default, |g, v| {
    v.required(
        "profile",
        Str.check(
            |p| profiles::by_name(p).is_some(),
            "unknown machine profile (Desktop|XeonE5|Atom|T110|T420|T320|T620)",
        ),
        &mut g.profile,
    );
    v.required("count", COUNT, &mut g.count);
    v.field(
        "slots",
        Opt(Pair(USIZE, USIZE).check(|&(m, _)| m > 0, "map slot count must be positive")),
        &mut g.slots,
    );
});

// Engine

const SPECULATION: Names<SpeculationPolicy> = Names {
    what: "speculation policy",
    table: &[
        ("off", SpeculationPolicy::Off),
        ("hadoop", SpeculationPolicy::Hadoop),
        ("late", SpeculationPolicy::Late),
    ],
};

const ENGINE: Obj<EngineConfig> = Obj::new(EngineConfig::default, |c, v| {
    v.field("heartbeat_s", POSITIVE_SECS, &mut c.heartbeat);
    v.field("control_interval_s", POSITIVE_SECS, &mut c.control_interval);
    v.field("reduce_slowstart", FRACTION, &mut c.reduce_slowstart);
    v.field("speculation", SPECULATION, &mut c.speculation);
    v.field(
        "speculation_threshold",
        F64.check(|x| x.is_finite() && *x >= 1.0, "must be >= 1"),
        &mut c.speculation_threshold,
    );
    v.field("noise", Noise, &mut c.noise);
    v.field(
        "fault",
        Map::new(
            Opt(FAULT),
            |f| f.unwrap_or_else(FaultConfig::none),
            |f| f.is_enabled().then_some(*f),
        ),
        &mut c.fault,
    );
    v.field("power_down", Opt(POWER_DOWN), &mut c.power_down);
    v.field("dvfs", Opt(DVFS), &mut c.dvfs);
    v.field("max_sim_time_s", POSITIVE_SECS, &mut c.max_sim_time);
});

const NOISE_PRESETS: Names<fn() -> NoiseConfig> = Names {
    what: "noise preset",
    table: &[
        ("none", NoiseConfig::none),
        ("paper", NoiseConfig::paper_default),
    ],
};

/// Noise settings: written as an object, read as one or as a preset name.
#[derive(Debug, Clone, Copy)]
struct Noise;

impl Codec for Noise {
    type Value = NoiseConfig;

    fn write(&self, value: &mut NoiseConfig) -> JsonValue {
        NOISE.write(value)
    }

    fn read(&self, json: &JsonValue, path: &dyn Fn() -> String) -> Result<NoiseConfig, SpecError> {
        match json {
            JsonValue::Str(_) => NOISE_PRESETS.read(json, path).map(|preset| preset()),
            _ => NOISE.read(json, path),
        }
    }
}

const NOISE: Obj<NoiseConfig> = Obj::new(NoiseConfig::paper_default, |n, v| {
    v.field("straggler_prob", PROBABILITY, &mut n.straggler_prob);
    v.field("slowdown_min", F64, &mut n.straggler_slowdown.0);
    v.field("slowdown_max", F64, &mut n.straggler_slowdown.1);
    v.field(
        "utilization_jitter",
        NON_NEGATIVE,
        &mut n.utilization_jitter,
    );
})
.validated(|n| {
    let (lo, hi) = n.straggler_slowdown;
    ensure(
        lo.is_finite() && hi.is_finite() && lo >= 1.0 && hi >= lo,
        "slowdown_min",
        "slowdown range must satisfy 1 <= min <= max",
    )
});

/// A positive duration, or `null` for zero. An explicit zero is rejected:
/// in a fault block it is almost always a mistaken attempt to disable
/// crashes.
const ZERO_AS_NULL: Map<Opt<Check<Secs>>, SimDuration> =
    Map::new(Opt(POSITIVE_SECS), Option::unwrap_or_default, |d| {
        (!d.is_zero()).then_some(*d)
    });

/// An enabled fault block; the engine writes a disabled one as `null`.
const FAULT: Obj<FaultConfig> = Obj::new(FaultConfig::none, |f, v| {
    v.field("crash_mtbf_s", ZERO_AS_NULL, &mut f.crash_mtbf);
    v.field("crash_downtime_s", ZERO_AS_NULL, &mut f.crash_downtime);
    v.field("task_failure_prob", PROBABILITY, &mut f.task_failure_prob);
    v.field("missed_heartbeats", U32, &mut f.missed_heartbeats);
    v.field("max_task_retries", U32, &mut f.max_task_retries);
    v.field("blacklist_threshold", U32, &mut f.blacklist_threshold);
})
.validated(|f| {
    if !f.crash_mtbf.is_zero() {
        ensure(
            !f.crash_downtime.is_zero(),
            "crash_downtime_s",
            "must be positive when crashes are enabled",
        )?;
        ensure(
            f.missed_heartbeats >= 1,
            "missed_heartbeats",
            "must be >= 1 when crashes are enabled",
        )?;
    }
    if f.task_failure_prob > 0.0 {
        ensure(
            f.max_task_retries >= 1,
            "max_task_retries",
            "must be >= 1 when task failures are enabled",
        )?;
    }
    ensure(
        f.is_enabled(),
        "",
        "fault block enables nothing; set crash_mtbf_s or task_failure_prob, or use null",
    )
});

const POWER_DOWN: Obj<PowerDownConfig> = Obj::new(PowerDownConfig::suspend_to_ram, |p, v| {
    v.field("idle_timeout_s", POSITIVE_SECS, &mut p.idle_timeout);
    v.field("standby_watts", NON_NEGATIVE, &mut p.standby_watts);
    v.field("wake_latency_s", Secs, &mut p.wake_latency);
});

const DVFS: Obj<DvfsConfig> = Obj::new(DvfsConfig::conservative, |d, v| {
    v.field("eco_factor", FRACTION, &mut d.eco_factor);
    v.field("low_utilization", F64, &mut d.low_utilization);
    v.field("high_utilization", F64, &mut d.high_utilization);
})
.validated(|d| {
    ensure(
        (0.0..=1.0).contains(&d.low_utilization)
            && d.low_utilization < d.high_utilization
            && d.high_utilization <= 1.0,
        "low_utilization",
        "utilization thresholds must satisfy 0 <= low < high <= 1",
    )
});

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> &'static str {
        r#"{
            "name": "mini",
            "seeds": [11],
            "schedulers": [{"kind": "fair"}, {"kind": "eant"}],
            "workload": {"kind": "msd", "num_jobs": 4, "task_scale": 64,
                         "submission_window_s": 120}
        }"#
    }

    #[test]
    fn minimal_spec_fills_defaults() {
        let spec = ScenarioSpec::parse(minimal()).expect("valid spec");
        assert_eq!(spec.name, "mini");
        assert_eq!(spec.fleet, FleetSpec::Paper);
        assert_eq!(spec.engine, EngineConfig::default());
        assert_eq!(spec.tolerance, Tolerance::default());
        assert_eq!(
            spec.schedulers[1],
            SchedulerKind::EAnt(EAntConfig::paper_default())
        );
    }

    #[test]
    fn emit_parse_emit_is_byte_stable() {
        let spec = ScenarioSpec::parse(minimal()).expect("valid spec");
        let once = spec.canonical();
        let reparsed = ScenarioSpec::parse(&once).expect("canonical form parses");
        assert_eq!(spec, reparsed);
        assert_eq!(once, reparsed.canonical());
    }

    #[test]
    fn slo_section_round_trips_and_fills_defaults() {
        let input = r#"{
            "name": "slo",
            "seeds": [11],
            "schedulers": [{"kind": "fair"}],
            "workload": {"kind": "msd", "num_jobs": 4, "task_scale": 64,
                         "submission_window_s": 120},
            "slo": {"p99_sojourn_s": 1800, "arm_after_s": 600}
        }"#;
        let spec = ScenarioSpec::parse(input).expect("valid spec");
        let slo = spec.slo.as_ref().expect("slo section parsed");
        let base = SloConfig::default();
        assert_eq!(slo.p99_sojourn, Some(SimDuration::from_secs(1800)));
        assert_eq!(slo.arm_after, SimTime::from_secs(600));
        assert_eq!(slo.window, base.window);
        assert_eq!(slo.ring_capacity, base.ring_capacity);
        assert_eq!(slo.min_completions, base.min_completions);
        let once = spec.canonical();
        let reparsed = ScenarioSpec::parse(&once).expect("canonical form parses");
        assert_eq!(spec, reparsed);
        assert_eq!(once, reparsed.canonical());
    }

    #[test]
    fn slo_without_thresholds_is_rejected() {
        let input = r#"{
            "name": "slo",
            "seeds": [11],
            "schedulers": [{"kind": "fair"}],
            "workload": {"kind": "msd", "num_jobs": 4, "task_scale": 64,
                         "submission_window_s": 120},
            "slo": {"window_s": 600}
        }"#;
        let err = ScenarioSpec::parse(input).unwrap_err();
        assert!(err.contains("at least one threshold"), "{err}");
    }

    #[test]
    fn manifest_key_tracks_every_input() {
        let spec = ScenarioSpec::parse(minimal()).expect("valid spec");
        let kind = SchedulerKind::Fair;
        let base = spec.manifest_key(&kind, 11, true);
        assert_eq!(base.len(), 16);
        assert_ne!(base, spec.manifest_key(&kind, 12, true));
        assert_ne!(base, spec.manifest_key(&kind, 11, false));
        assert_ne!(base, spec.manifest_key(&SchedulerKind::Tarazu, 11, true));
        let mut other = spec.clone();
        other.engine.reduce_slowstart = 0.5;
        assert_ne!(base, other.manifest_key(&kind, 11, true));
    }

    #[test]
    fn unknown_key_is_named_with_line() {
        let input = "{\n  \"name\": \"x\",\n  \"sheeds\": [1]\n}";
        let err = ScenarioSpec::parse(input).unwrap_err();
        assert!(err.contains("`sheeds`: unknown key"), "{err}");
        assert!(err.starts_with("line 3: "), "{err}");
    }

    #[test]
    fn zero_crash_mtbf_is_rejected_with_context() {
        let input =
            "{\n \"name\": \"f\",\n \"seeds\": [1],\n \"schedulers\": [{\"kind\": \"fair\"}],\n \
             \"workload\": {\"kind\": \"msd\", \"num_jobs\": 2, \"task_scale\": 64, \
             \"submission_window_s\": 60},\n \"engine\": {\"fault\": {\"crash_mtbf_s\": 0}}\n}";
        let err = ScenarioSpec::parse(input).unwrap_err();
        assert!(
            err.contains("`engine.fault.crash_mtbf_s`: must be positive"),
            "{err}"
        );
        assert!(err.contains("offending line:"), "{err}");
    }

    #[test]
    fn custom_fleet_builds() {
        let input = r#"{
            "name": "fleet",
            "seeds": [1],
            "schedulers": [{"kind": "fifo"}],
            "workload": {"kind": "streams", "streams": [
                {"label": "t", "maps": 4, "count": 2,
                 "arrival": {"kind": "uniform", "period_s": 30}}
            ]},
            "fleet": {"groups": [
                {"profile": "Desktop", "count": 2},
                {"profile": "Atom", "count": 1, "slots": [2, 1]}
            ], "rack_size": 2}
        }"#;
        let spec = ScenarioSpec::parse(input).expect("valid spec");
        let fleet = spec.build_fleet();
        assert_eq!(fleet.len(), 3);
        let jobs = spec.jobs(1, false);
        assert_eq!(jobs.len(), 2);
    }
}
