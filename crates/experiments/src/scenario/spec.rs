//! The [`ScenarioSpec`] codec: canonical-JSON scenario files in, validated
//! runnable specs out, and back again byte-identically.
//!
//! # Normal form
//!
//! [`ScenarioSpec::to_json`] always emits *every* field in a fixed key
//! order, so `emit ∘ parse ∘ emit` is byte-identical (the property test's
//! parser/emitter inverse pair). Parsing is omission-friendly: any engine
//! knob left out takes the engine's own default, `fleet` defaults to the
//! paper's 16-node testbed, and `tolerance` to ±1 %.
//!
//! # Validation
//!
//! Every panic in the engine/workload constructors (`EngineConfig::validate`,
//! `MsdConfig::generate`, …) is mirrored here as a [`SpecError`] *before*
//! any value is constructed, so a malformed file reports
//! `line N: \`engine.fault.crash_mtbf_s\`: …; offending line: …` instead of
//! crashing mid-run.

use cluster::{profiles, Fleet};
use eant::{EAntConfig, ExchangeStrategy};
use hadoop_sim::{
    DvfsConfig, Engine, EngineConfig, FaultConfig, NoiseConfig, PowerDownConfig, RunResult,
    Scheduler, SloConfig, SpeculationPolicy, StopCondition,
};
use metrics::emit::{object, JsonValue};
use metrics::spec::{
    ensure, fnv1a_64, kind_name, syntax_context, with_context, ObjectView, SpecError,
};
use simcore::{SimDuration, SimRng, SimTime};
use workload::arrival::{DiurnalPeak, DiurnalProfile, OpenArrival};
use workload::mix::{self, BenchmarkChoice, StreamArrival, StreamSpec};
use workload::msd::MsdConfig;
use workload::open::{OpenJobTemplate, OpenStream, OpenStreamSpec};
use workload::{BenchmarkKind, JobSpec, SizeClass};

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
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
        Self::from_json(&doc).map_err(|e| with_context(input, &e))
    }

    /// Decodes a parsed JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending dotted path.
    pub fn from_json(doc: &JsonValue) -> Result<Self, SpecError> {
        let root = ObjectView::root(doc)?;
        root.deny_unknown(&[
            "name",
            "description",
            "seeds",
            "schedulers",
            "workload",
            "fast_workload",
            "fleet",
            "engine",
            "tolerance",
            "serve",
            "slo",
        ])?;

        let name = root.string("name")?.to_owned();
        ensure(
            !name.is_empty(),
            &root.child_path("name"),
            "must not be empty",
        )?;
        let description = root.opt_string("description")?.unwrap_or("").to_owned();

        let seeds_path = root.child_path("seeds");
        let mut seeds = Vec::new();
        for (i, v) in root.array("seeds")?.iter().enumerate() {
            match v {
                JsonValue::UInt(n) => seeds.push(*n),
                other => {
                    return Err(SpecError::new(
                        format!("{seeds_path}[{i}]"),
                        format!("expected an unsigned integer, found {}", kind_name(other)),
                    ))
                }
            }
        }
        ensure(
            !seeds.is_empty(),
            &seeds_path,
            "must list at least one seed",
        )?;

        let sched_path = root.child_path("schedulers");
        let mut schedulers = Vec::new();
        for (i, v) in root.array("schedulers")?.iter().enumerate() {
            schedulers.push(scheduler_from_json(v, &format!("{sched_path}[{i}]"))?);
        }
        ensure(
            !schedulers.is_empty(),
            &sched_path,
            "must list at least one scheduler",
        )?;

        let workload = workload_from_json(&root.obj("workload")?)?;
        let fast_workload = root
            .opt_obj("fast_workload")?
            .map(|v| workload_from_json(&v))
            .transpose()?;
        let fleet = match root.opt_obj("fleet")? {
            Some(v) => fleet_from_json(&v)?,
            None => FleetSpec::Paper,
        };
        let engine = match root.opt_obj("engine")? {
            Some(v) => engine_from_json(&v)?,
            None => EngineConfig::default(),
        };
        let tolerance = match root.opt_obj("tolerance")? {
            Some(v) => tolerance_from_json(&v)?,
            None => Tolerance::default(),
        };
        let serve = root
            .opt_obj("serve")?
            .map(|v| serve_from_json(&v))
            .transpose()?;
        let slo = root
            .opt_obj("slo")?
            .map(|v| slo_from_json(&v))
            .transpose()?;

        // Open workloads and the serve section come as a pair: the horizon
        // is what bounds an unbounded stream, and a drain workload has no
        // steady-state window to measure.
        let is_open = |w: &WorkloadSpec| matches!(w, WorkloadSpec::Open(_));
        if serve.is_some() {
            ensure(
                is_open(&workload),
                &root.child_path("workload"),
                "a scenario with a `serve` section must use an open workload",
            )?;
            ensure(
                fast_workload.as_ref().is_none_or(is_open),
                &root.child_path("fast_workload"),
                "the fast workload of a serve scenario must also be open",
            )?;
        } else {
            ensure(
                !is_open(&workload) && !fast_workload.as_ref().is_some_and(is_open),
                &root.child_path("workload"),
                "an open workload requires a `serve` section",
            )?;
        }

        Ok(ScenarioSpec {
            name,
            description,
            seeds,
            schedulers,
            workload,
            fast_workload,
            fleet,
            engine,
            tolerance,
            serve,
            slo,
        })
    }

    /// Emits the full normal form (every field in a fixed key order; the
    /// `serve` key appears only on service scenarios, so pre-service-mode
    /// scenario files — and therefore their manifest keys — are unchanged).
    pub fn to_json(&self) -> JsonValue {
        let mut fields = Vec::from([
            ("name", JsonValue::Str(self.name.clone())),
            ("description", JsonValue::Str(self.description.clone())),
            (
                "seeds",
                JsonValue::Array(self.seeds.iter().map(|&s| JsonValue::UInt(s)).collect()),
            ),
            (
                "schedulers",
                JsonValue::Array(self.schedulers.iter().map(scheduler_to_json).collect()),
            ),
            ("workload", workload_to_json(&self.workload)),
            (
                "fast_workload",
                self.fast_workload
                    .as_ref()
                    .map_or(JsonValue::Null, workload_to_json),
            ),
            ("fleet", fleet_to_json(&self.fleet)),
            ("engine", engine_to_json(&self.engine)),
            (
                "tolerance",
                object([
                    ("energy_rel", JsonValue::Num(self.tolerance.energy_rel)),
                    ("makespan_rel", JsonValue::Num(self.tolerance.makespan_rel)),
                ]),
            ),
        ]);
        if let Some(serve) = &self.serve {
            fields.push(("serve", serve_to_json(serve)));
        }
        if let Some(slo) = &self.slo {
            fields.push(("slo", slo_to_json(slo)));
        }
        object(fields)
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

    /// Generates the job mix for one run. MSD workloads draw from the same
    /// `fork("msd")` stream as [`crate::common::Scenario::jobs`], so a spec
    /// re-expressing a hard-coded experiment reproduces its bytes.
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
        self.execute_observed(kind, seed, fast, |_, _| {})
    }

    /// Runs one cell with an observer hook — the same call sequence as
    /// [`crate::common::Scenario::run_observed_on`], so traced and plain
    /// runs agree byte for byte.
    pub fn execute_observed(
        &self,
        kind: &SchedulerKind,
        seed: u64,
        fast: bool,
        configure: impl FnOnce(&mut Engine, &mut dyn Scheduler),
    ) -> RunResult {
        self.execute_scaled_observed(kind, seed, fast, 1.0, configure)
    }

    /// Runs one cell of a serve scenario with its arrival intensity
    /// multiplied by `rate_scale` — the utilization knob of the
    /// `experiments serve` sweep. Non-serve scenarios ignore the scale
    /// (their workloads are fixed job lists).
    pub fn execute_scaled(
        &self,
        kind: &SchedulerKind,
        seed: u64,
        fast: bool,
        rate_scale: f64,
    ) -> RunResult {
        self.execute_scaled_observed(kind, seed, fast, rate_scale, |_, _| {})
    }

    /// Runs one cell with both the utilization knob and an observer hook —
    /// the most general execution path; every other `execute_*` variant
    /// delegates here, so observed and plain runs agree byte for byte.
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
            ("scheduler", scheduler_to_json(kind)),
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

/// Emits a duration as whole seconds when exact, fractional otherwise.
fn duration_to_json(d: SimDuration) -> JsonValue {
    if d.as_millis().is_multiple_of(1000) {
        JsonValue::UInt(d.as_millis() / 1000)
    } else {
        JsonValue::Num(d.as_secs_f64())
    }
}

/// Reads an optional `*_s` duration field; `require_positive` mirrors the
/// engine's zero-rejection panics as spec errors.
fn opt_duration(
    view: &ObjectView<'_>,
    key: &str,
    require_positive: bool,
) -> Result<Option<SimDuration>, SpecError> {
    match view.opt_f64(key)? {
        None => Ok(None),
        Some(secs) => {
            let path = view.child_path(key);
            ensure(
                secs.is_finite() && secs >= 0.0,
                &path,
                "must be a non-negative number",
            )?;
            let d = SimDuration::from_secs_f64(secs);
            if require_positive {
                ensure(!d.is_zero(), &path, "must be positive")?;
            }
            Ok(Some(d))
        }
    }
}

// ---------------------------------------------------------------------------
// Schedulers

/// Encodes a scheduler for specs and run manifests.
pub fn scheduler_to_json(kind: &SchedulerKind) -> JsonValue {
    match kind {
        SchedulerKind::Fifo => object([("kind", JsonValue::Str("fifo".into()))]),
        SchedulerKind::Fair => object([("kind", JsonValue::Str("fair".into()))]),
        SchedulerKind::Tarazu => object([("kind", JsonValue::Str("tarazu".into()))]),
        SchedulerKind::EAnt(cfg) => object([
            ("kind", JsonValue::Str("eant".into())),
            ("rho", JsonValue::Num(cfg.rho)),
            ("beta", JsonValue::Num(cfg.beta)),
            ("tau_init", JsonValue::Num(cfg.tau_init)),
            ("tau_min", JsonValue::Num(cfg.tau_min)),
            ("tau_max", JsonValue::Num(cfg.tau_max)),
            ("local_boost", JsonValue::Num(cfg.local_boost)),
            ("share_cap", JsonValue::Num(cfg.share_cap)),
            (
                "exchange",
                JsonValue::Str(
                    match cfg.exchange {
                        ExchangeStrategy::None => "none",
                        ExchangeStrategy::MachineLevel => "machine",
                        ExchangeStrategy::JobLevel => "job",
                        ExchangeStrategy::Both => "both",
                    }
                    .into(),
                ),
            ),
            ("negative_feedback", JsonValue::Bool(cfg.negative_feedback)),
        ]),
    }
}

fn scheduler_from_json(value: &JsonValue, path: &str) -> Result<SchedulerKind, SpecError> {
    let view = ObjectView::new(value, path)?;
    match view.string("kind")? {
        "fifo" => {
            view.deny_unknown(&["kind"])?;
            Ok(SchedulerKind::Fifo)
        }
        "fair" => {
            view.deny_unknown(&["kind"])?;
            Ok(SchedulerKind::Fair)
        }
        "tarazu" => {
            view.deny_unknown(&["kind"])?;
            Ok(SchedulerKind::Tarazu)
        }
        "eant" => {
            view.deny_unknown(&[
                "kind",
                "rho",
                "beta",
                "tau_init",
                "tau_min",
                "tau_max",
                "local_boost",
                "share_cap",
                "exchange",
                "negative_feedback",
            ])?;
            let base = EAntConfig::paper_default();
            let cfg = EAntConfig {
                rho: view.opt_f64("rho")?.unwrap_or(base.rho),
                beta: view.opt_f64("beta")?.unwrap_or(base.beta),
                tau_init: view.opt_f64("tau_init")?.unwrap_or(base.tau_init),
                tau_min: view.opt_f64("tau_min")?.unwrap_or(base.tau_min),
                tau_max: view.opt_f64("tau_max")?.unwrap_or(base.tau_max),
                local_boost: view.opt_f64("local_boost")?.unwrap_or(base.local_boost),
                share_cap: view.opt_f64("share_cap")?.unwrap_or(base.share_cap),
                exchange: match view.opt_string("exchange")? {
                    None => base.exchange,
                    Some("none") => ExchangeStrategy::None,
                    Some("machine") => ExchangeStrategy::MachineLevel,
                    Some("job") => ExchangeStrategy::JobLevel,
                    Some("both") => ExchangeStrategy::Both,
                    Some(other) => {
                        return Err(SpecError::new(
                            view.child_path("exchange"),
                            format!("unknown exchange strategy {other:?} (none|machine|job|both)"),
                        ))
                    }
                },
                negative_feedback: view
                    .opt_bool("negative_feedback")?
                    .unwrap_or(base.negative_feedback),
            };
            ensure(
                cfg.rho > 0.0 && cfg.rho <= 1.0,
                &view.child_path("rho"),
                "must be in (0, 1]",
            )?;
            ensure(cfg.beta >= 0.0, &view.child_path("beta"), "must be >= 0")?;
            ensure(
                0.0 < cfg.tau_min && cfg.tau_min <= cfg.tau_init && cfg.tau_init <= cfg.tau_max,
                &view.child_path("tau_init"),
                "tau bounds must satisfy 0 < tau_min <= tau_init <= tau_max",
            )?;
            ensure(
                cfg.local_boost >= 1.0,
                &view.child_path("local_boost"),
                "must be >= 1",
            )?;
            ensure(
                cfg.share_cap >= 1.0,
                &view.child_path("share_cap"),
                "must be >= 1",
            )?;
            Ok(SchedulerKind::EAnt(cfg))
        }
        other => Err(SpecError::new(
            view.child_path("kind"),
            format!("unknown scheduler {other:?} (fifo|fair|tarazu|eant)"),
        )),
    }
}

// ---------------------------------------------------------------------------
// Workload

fn workload_to_json(workload: &WorkloadSpec) -> JsonValue {
    match workload {
        WorkloadSpec::Msd(cfg) => object([
            ("kind", JsonValue::Str("msd".into())),
            ("num_jobs", JsonValue::UInt(cfg.num_jobs as u64)),
            ("task_scale", JsonValue::UInt(u64::from(cfg.task_scale))),
            (
                "submission_window_s",
                duration_to_json(cfg.submission_window),
            ),
        ]),
        WorkloadSpec::Streams(streams) => object([
            ("kind", JsonValue::Str("streams".into())),
            (
                "streams",
                JsonValue::Array(streams.iter().map(stream_to_json).collect()),
            ),
        ]),
        WorkloadSpec::Open(spec) => object([
            ("kind", JsonValue::Str("open".into())),
            ("label", JsonValue::Str(spec.label.clone())),
            ("arrival", open_arrival_to_json(&spec.arrival)),
            (
                "templates",
                JsonValue::Array(spec.templates.iter().map(template_to_json).collect()),
            ),
        ]),
    }
}

fn open_arrival_to_json(arrival: &OpenArrival) -> JsonValue {
    match arrival {
        OpenArrival::Poisson { rate_per_min } => object([
            ("kind", JsonValue::Str("poisson".into())),
            ("rate_per_min", JsonValue::Num(*rate_per_min)),
        ]),
        OpenArrival::Diurnal { profile, period_s } => object([
            ("kind", JsonValue::Str("diurnal".into())),
            ("base_per_min", JsonValue::Num(profile.base_per_min)),
            (
                "peaks",
                JsonValue::Array(
                    profile
                        .peaks
                        .iter()
                        .map(|p| {
                            object([
                                ("center_s", JsonValue::Num(p.center_s)),
                                ("width_s", JsonValue::Num(p.width_s)),
                                ("extra_per_min", JsonValue::Num(p.extra_per_min)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("period_s", JsonValue::Num(*period_s)),
        ]),
        OpenArrival::Bursty {
            bursts_per_min,
            burst_min,
            burst_max,
        } => object([
            ("kind", JsonValue::Str("bursty".into())),
            ("bursts_per_min", JsonValue::Num(*bursts_per_min)),
            ("burst_min", JsonValue::UInt(u64::from(*burst_min))),
            ("burst_max", JsonValue::UInt(u64::from(*burst_max))),
        ]),
    }
}

fn template_to_json(t: &OpenJobTemplate) -> JsonValue {
    object([
        (
            "benchmark",
            JsonValue::Str(
                match t.benchmark {
                    BenchmarkKind::Wordcount => "wordcount",
                    BenchmarkKind::Grep => "grep",
                    BenchmarkKind::Terasort => "terasort",
                }
                .into(),
            ),
        ),
        (
            "size_class",
            match t.size_class {
                None => JsonValue::Null,
                Some(SizeClass::Small) => JsonValue::Str("small".into()),
                Some(SizeClass::Medium) => JsonValue::Str("medium".into()),
                Some(SizeClass::Large) => JsonValue::Str("large".into()),
            },
        ),
        ("maps", JsonValue::UInt(u64::from(t.maps))),
        ("reduces", JsonValue::UInt(u64::from(t.reduces))),
        ("weight", JsonValue::Num(t.weight)),
    ])
}

fn serve_to_json(serve: &ServeSpec) -> JsonValue {
    object([
        ("warmup_s", duration_to_json(serve.warmup)),
        ("measure_s", duration_to_json(serve.measure)),
        (
            "fast_warmup_s",
            serve.fast_warmup.map_or(JsonValue::Null, duration_to_json),
        ),
        (
            "fast_measure_s",
            serve.fast_measure.map_or(JsonValue::Null, duration_to_json),
        ),
        (
            "tolerance",
            object([
                ("p99_rel", JsonValue::Num(serve.tolerance.p99_rel)),
                (
                    "energy_per_job_rel",
                    JsonValue::Num(serve.tolerance.energy_per_job_rel),
                ),
            ]),
        ),
    ])
}

fn slo_to_json(slo: &SloConfig) -> JsonValue {
    let opt_duration_s = |d: Option<SimDuration>| d.map_or(JsonValue::Null, duration_to_json);
    object([
        ("window_s", duration_to_json(slo.window)),
        ("ring_capacity", JsonValue::UInt(slo.ring_capacity as u64)),
        (
            "arm_after_s",
            duration_to_json(slo.arm_after - SimTime::ZERO),
        ),
        (
            "min_completions",
            JsonValue::UInt(slo.min_completions as u64),
        ),
        ("p95_sojourn_s", opt_duration_s(slo.p95_sojourn)),
        ("p99_sojourn_s", opt_duration_s(slo.p99_sojourn)),
        (
            "max_queue_depth",
            slo.max_queue_depth.map_or(JsonValue::Null, JsonValue::UInt),
        ),
        (
            "max_backlog_growth_per_min",
            slo.max_backlog_growth_per_min
                .map_or(JsonValue::Null, JsonValue::Num),
        ),
    ])
}

fn stream_to_json(stream: &StreamSpec) -> JsonValue {
    object([
        ("label", JsonValue::Str(stream.label.clone())),
        (
            "benchmark",
            JsonValue::Str(
                match stream.benchmark {
                    BenchmarkChoice::Fixed(BenchmarkKind::Wordcount) => "wordcount",
                    BenchmarkChoice::Fixed(BenchmarkKind::Grep) => "grep",
                    BenchmarkChoice::Fixed(BenchmarkKind::Terasort) => "terasort",
                    BenchmarkChoice::Rotate => "rotate",
                }
                .into(),
            ),
        ),
        (
            "size_class",
            match stream.size_class {
                None => JsonValue::Null,
                Some(SizeClass::Small) => JsonValue::Str("small".into()),
                Some(SizeClass::Medium) => JsonValue::Str("medium".into()),
                Some(SizeClass::Large) => JsonValue::Str("large".into()),
            },
        ),
        ("maps", JsonValue::UInt(u64::from(stream.maps))),
        ("reduces", JsonValue::UInt(u64::from(stream.reduces))),
        ("count", JsonValue::UInt(stream.count as u64)),
        ("arrival", arrival_to_json(&stream.arrival)),
    ])
}

fn arrival_to_json(arrival: &StreamArrival) -> JsonValue {
    match arrival {
        StreamArrival::Poisson {
            rate_per_min,
            start_s,
        } => object([
            ("kind", JsonValue::Str("poisson".into())),
            ("rate_per_min", JsonValue::Num(*rate_per_min)),
            ("start_s", JsonValue::Num(*start_s)),
        ]),
        StreamArrival::Uniform { period_s, start_s } => object([
            ("kind", JsonValue::Str("uniform".into())),
            ("period_s", JsonValue::Num(*period_s)),
            ("start_s", JsonValue::Num(*start_s)),
        ]),
        StreamArrival::Batches { at_s } => object([
            ("kind", JsonValue::Str("batches".into())),
            (
                "at_s",
                JsonValue::Array(at_s.iter().map(|&t| JsonValue::Num(t)).collect()),
            ),
        ]),
        StreamArrival::Diurnal { profile, window_s } => object([
            ("kind", JsonValue::Str("diurnal".into())),
            ("base_per_min", JsonValue::Num(profile.base_per_min)),
            (
                "peaks",
                JsonValue::Array(
                    profile
                        .peaks
                        .iter()
                        .map(|p| {
                            object([
                                ("center_s", JsonValue::Num(p.center_s)),
                                ("width_s", JsonValue::Num(p.width_s)),
                                ("extra_per_min", JsonValue::Num(p.extra_per_min)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("window_s", JsonValue::Num(*window_s)),
        ]),
    }
}

fn workload_from_json(view: &ObjectView<'_>) -> Result<WorkloadSpec, SpecError> {
    match view.string("kind")? {
        "msd" => {
            view.deny_unknown(&["kind", "num_jobs", "task_scale", "submission_window_s"])?;
            let num_jobs = view.u64("num_jobs")?;
            ensure(
                num_jobs > 0,
                &view.child_path("num_jobs"),
                "must be positive",
            )?;
            let task_scale = view.u64("task_scale")?;
            ensure(
                task_scale > 0 && task_scale <= u64::from(u32::MAX),
                &view.child_path("task_scale"),
                "must be a positive 32-bit integer",
            )?;
            let window = opt_duration(view, "submission_window_s", true)?.ok_or_else(|| {
                SpecError::new(
                    view.child_path("submission_window_s"),
                    "missing required key",
                )
            })?;
            Ok(WorkloadSpec::Msd(MsdConfig {
                num_jobs: num_jobs as usize,
                task_scale: task_scale as u32,
                submission_window: window,
            }))
        }
        "streams" => {
            view.deny_unknown(&["kind", "streams"])?;
            let streams_path = view.child_path("streams");
            let items = view.array("streams")?;
            ensure(
                !items.is_empty(),
                &streams_path,
                "must list at least one stream",
            )?;
            let mut streams = Vec::new();
            for (i, item) in items.iter().enumerate() {
                let sv = ObjectView::new(item, format!("{streams_path}[{i}]"))?;
                streams.push(stream_from_json(&sv)?);
            }
            Ok(WorkloadSpec::Streams(streams))
        }
        "open" => {
            view.deny_unknown(&["kind", "label", "arrival", "templates"])?;
            let label = view.string("label")?.to_owned();
            let arrival = open_arrival_from_json(&view.obj("arrival")?)?;
            let templates_path = view.child_path("templates");
            let items = view.array("templates")?;
            ensure(
                !items.is_empty(),
                &templates_path,
                "must list at least one template",
            )?;
            let mut templates = Vec::new();
            for (i, item) in items.iter().enumerate() {
                let tv = ObjectView::new(item, format!("{templates_path}[{i}]"))?;
                templates.push(template_from_json(&tv)?);
            }
            Ok(WorkloadSpec::Open(OpenStreamSpec {
                label,
                arrival,
                templates,
            }))
        }
        other => Err(SpecError::new(
            view.child_path("kind"),
            format!("unknown workload kind {other:?} (msd|streams|open)"),
        )),
    }
}

fn open_arrival_from_json(view: &ObjectView<'_>) -> Result<OpenArrival, SpecError> {
    match view.string("kind")? {
        "poisson" => {
            view.deny_unknown(&["kind", "rate_per_min"])?;
            let rate = view.f64("rate_per_min")?;
            ensure(
                rate.is_finite() && rate > 0.0,
                &view.child_path("rate_per_min"),
                "must be positive",
            )?;
            Ok(OpenArrival::Poisson { rate_per_min: rate })
        }
        "diurnal" => {
            view.deny_unknown(&["kind", "base_per_min", "peaks", "period_s"])?;
            let base = view.opt_f64("base_per_min")?.unwrap_or(0.0);
            ensure(
                base.is_finite() && base >= 0.0,
                &view.child_path("base_per_min"),
                "must be non-negative",
            )?;
            let peaks_path = view.child_path("peaks");
            let mut peaks = Vec::new();
            for (i, item) in view.array("peaks")?.iter().enumerate() {
                let pv = ObjectView::new(item, format!("{peaks_path}[{i}]"))?;
                pv.deny_unknown(&["center_s", "width_s", "extra_per_min"])?;
                let center = pv.f64("center_s")?;
                ensure(
                    center.is_finite(),
                    &pv.child_path("center_s"),
                    "must be finite",
                )?;
                let width = pv.f64("width_s")?;
                ensure(
                    width.is_finite() && width > 0.0,
                    &pv.child_path("width_s"),
                    "must be positive",
                )?;
                let extra = pv.f64("extra_per_min")?;
                ensure(
                    extra.is_finite() && extra >= 0.0,
                    &pv.child_path("extra_per_min"),
                    "must be non-negative",
                )?;
                peaks.push(DiurnalPeak {
                    center_s: center,
                    width_s: width,
                    extra_per_min: extra,
                });
            }
            let period = view.f64("period_s")?;
            ensure(
                period.is_finite() && period > 0.0,
                &view.child_path("period_s"),
                "must be positive",
            )?;
            let profile = DiurnalProfile {
                base_per_min: base,
                peaks,
            };
            ensure(
                profile.max_per_min() > 0.0,
                view.path(),
                "diurnal profile must have positive intensity (base or at least one peak)",
            )?;
            Ok(OpenArrival::Diurnal {
                profile,
                period_s: period,
            })
        }
        "bursty" => {
            view.deny_unknown(&["kind", "bursts_per_min", "burst_min", "burst_max"])?;
            let rate = view.f64("bursts_per_min")?;
            ensure(
                rate.is_finite() && rate > 0.0,
                &view.child_path("bursts_per_min"),
                "must be positive",
            )?;
            let burst_min = view.opt_u64("burst_min")?.unwrap_or(1);
            let burst_max = view.u64("burst_max")?;
            ensure(
                burst_min >= 1 && burst_min <= burst_max && burst_max <= u64::from(u32::MAX),
                &view.child_path("burst_min"),
                "burst size range must satisfy 1 <= min <= max",
            )?;
            Ok(OpenArrival::Bursty {
                bursts_per_min: rate,
                burst_min: burst_min as u32,
                burst_max: burst_max as u32,
            })
        }
        other => Err(SpecError::new(
            view.child_path("kind"),
            format!("unknown open arrival kind {other:?} (poisson|diurnal|bursty)"),
        )),
    }
}

fn template_from_json(view: &ObjectView<'_>) -> Result<OpenJobTemplate, SpecError> {
    view.deny_unknown(&["benchmark", "size_class", "maps", "reduces", "weight"])?;
    let benchmark = match view.string("benchmark")? {
        "wordcount" => BenchmarkKind::Wordcount,
        "grep" => BenchmarkKind::Grep,
        "terasort" => BenchmarkKind::Terasort,
        other => {
            return Err(SpecError::new(
                view.child_path("benchmark"),
                format!("unknown benchmark {other:?} (wordcount|grep|terasort)"),
            ))
        }
    };
    let size_class = match view.opt_string("size_class")? {
        None => None,
        Some("small") => Some(SizeClass::Small),
        Some("medium") => Some(SizeClass::Medium),
        Some("large") => Some(SizeClass::Large),
        Some(other) => {
            return Err(SpecError::new(
                view.child_path("size_class"),
                format!("unknown size class {other:?} (small|medium|large)"),
            ))
        }
    };
    let maps = view.u64("maps")?;
    ensure(
        maps > 0 && maps <= u64::from(u32::MAX),
        &view.child_path("maps"),
        "must be a positive 32-bit integer",
    )?;
    let reduces = view.opt_u64("reduces")?.unwrap_or(0);
    ensure(
        reduces <= u64::from(u32::MAX),
        &view.child_path("reduces"),
        "must fit in 32 bits",
    )?;
    let weight = view.opt_f64("weight")?.unwrap_or(1.0);
    ensure(
        weight.is_finite() && weight > 0.0,
        &view.child_path("weight"),
        "must be positive",
    )?;
    Ok(OpenJobTemplate {
        benchmark,
        size_class,
        maps: maps as u32,
        reduces: reduces as u32,
        weight,
    })
}

fn serve_from_json(view: &ObjectView<'_>) -> Result<ServeSpec, SpecError> {
    view.deny_unknown(&[
        "warmup_s",
        "measure_s",
        "fast_warmup_s",
        "fast_measure_s",
        "tolerance",
    ])?;
    let warmup = opt_duration(view, "warmup_s", false)?
        .ok_or_else(|| SpecError::new(view.child_path("warmup_s"), "missing required key"))?;
    let measure = opt_duration(view, "measure_s", true)?
        .ok_or_else(|| SpecError::new(view.child_path("measure_s"), "missing required key"))?;
    let fast_warmup = opt_duration(view, "fast_warmup_s", false)?;
    let fast_measure = opt_duration(view, "fast_measure_s", true)?;
    let tolerance = match view.opt_obj("tolerance")? {
        None => ServeTolerance::default(),
        Some(tv) => {
            tv.deny_unknown(&["p99_rel", "energy_per_job_rel"])?;
            let base = ServeTolerance::default();
            let p99_rel = tv.opt_f64("p99_rel")?.unwrap_or(base.p99_rel);
            ensure(
                p99_rel.is_finite() && p99_rel > 0.0,
                &tv.child_path("p99_rel"),
                "must be positive",
            )?;
            let energy_per_job_rel = tv
                .opt_f64("energy_per_job_rel")?
                .unwrap_or(base.energy_per_job_rel);
            ensure(
                energy_per_job_rel.is_finite() && energy_per_job_rel > 0.0,
                &tv.child_path("energy_per_job_rel"),
                "must be positive",
            )?;
            ServeTolerance {
                p99_rel,
                energy_per_job_rel,
            }
        }
    };
    Ok(ServeSpec {
        warmup,
        measure,
        fast_warmup,
        fast_measure,
        tolerance,
    })
}

fn slo_from_json(view: &ObjectView<'_>) -> Result<SloConfig, SpecError> {
    view.deny_unknown(&[
        "window_s",
        "ring_capacity",
        "arm_after_s",
        "min_completions",
        "p95_sojourn_s",
        "p99_sojourn_s",
        "max_queue_depth",
        "max_backlog_growth_per_min",
    ])?;
    let base = SloConfig::default();
    let window = opt_duration(view, "window_s", true)?.unwrap_or(base.window);
    let ring_capacity = match view.opt_u64("ring_capacity")? {
        None => base.ring_capacity,
        Some(n) => {
            ensure(n > 0, &view.child_path("ring_capacity"), "must be positive")?;
            n as usize
        }
    };
    let arm_after =
        opt_duration(view, "arm_after_s", false)?.map_or(base.arm_after, |d| SimTime::ZERO + d);
    let min_completions = view
        .opt_u64("min_completions")?
        .map_or(base.min_completions, |n| n as usize);
    let p95_sojourn = opt_duration(view, "p95_sojourn_s", true)?;
    let p99_sojourn = opt_duration(view, "p99_sojourn_s", true)?;
    let max_queue_depth = view.opt_u64("max_queue_depth")?;
    let max_backlog_growth_per_min = match view.opt_f64("max_backlog_growth_per_min")? {
        None => None,
        Some(g) => {
            ensure(
                g.is_finite() && g > 0.0,
                &view.child_path("max_backlog_growth_per_min"),
                "must be positive",
            )?;
            Some(g)
        }
    };
    let cfg = SloConfig {
        window,
        ring_capacity,
        arm_after,
        min_completions,
        p95_sojourn,
        p99_sojourn,
        max_queue_depth,
        max_backlog_growth_per_min,
    };
    ensure(
        cfg.has_thresholds(),
        view.path(),
        "must set at least one threshold (p95_sojourn_s, p99_sojourn_s, \
         max_queue_depth or max_backlog_growth_per_min)",
    )?;
    Ok(cfg)
}

fn stream_from_json(view: &ObjectView<'_>) -> Result<StreamSpec, SpecError> {
    view.deny_unknown(&[
        "label",
        "benchmark",
        "size_class",
        "maps",
        "reduces",
        "count",
        "arrival",
    ])?;
    let label = view.string("label")?.to_owned();
    let benchmark = match view.opt_string("benchmark")?.unwrap_or("rotate") {
        "wordcount" => BenchmarkChoice::Fixed(BenchmarkKind::Wordcount),
        "grep" => BenchmarkChoice::Fixed(BenchmarkKind::Grep),
        "terasort" => BenchmarkChoice::Fixed(BenchmarkKind::Terasort),
        "rotate" => BenchmarkChoice::Rotate,
        other => {
            return Err(SpecError::new(
                view.child_path("benchmark"),
                format!("unknown benchmark {other:?} (wordcount|grep|terasort|rotate)"),
            ))
        }
    };
    let size_class = match view.opt_string("size_class")? {
        None => None,
        Some("small") => Some(SizeClass::Small),
        Some("medium") => Some(SizeClass::Medium),
        Some("large") => Some(SizeClass::Large),
        Some(other) => {
            return Err(SpecError::new(
                view.child_path("size_class"),
                format!("unknown size class {other:?} (small|medium|large)"),
            ))
        }
    };
    let maps = view.u64("maps")?;
    ensure(
        maps > 0 && maps <= u64::from(u32::MAX),
        &view.child_path("maps"),
        "must be a positive 32-bit integer",
    )?;
    let reduces = view.opt_u64("reduces")?.unwrap_or(0);
    ensure(
        reduces <= u64::from(u32::MAX),
        &view.child_path("reduces"),
        "must fit in 32 bits",
    )?;
    let count = view.u64("count")?;
    ensure(count > 0, &view.child_path("count"), "must be positive")?;
    let arrival = arrival_from_json(&view.obj("arrival")?)?;
    Ok(StreamSpec {
        label,
        benchmark,
        size_class,
        maps: maps as u32,
        reduces: reduces as u32,
        count: count as usize,
        arrival,
    })
}

fn arrival_from_json(view: &ObjectView<'_>) -> Result<StreamArrival, SpecError> {
    match view.string("kind")? {
        "poisson" => {
            view.deny_unknown(&["kind", "rate_per_min", "start_s"])?;
            let rate = view.f64("rate_per_min")?;
            ensure(
                rate.is_finite() && rate > 0.0,
                &view.child_path("rate_per_min"),
                "must be positive",
            )?;
            let start = view.opt_f64("start_s")?.unwrap_or(0.0);
            ensure(
                start.is_finite() && start >= 0.0,
                &view.child_path("start_s"),
                "must be non-negative",
            )?;
            Ok(StreamArrival::Poisson {
                rate_per_min: rate,
                start_s: start,
            })
        }
        "uniform" => {
            view.deny_unknown(&["kind", "period_s", "start_s"])?;
            let period = view.f64("period_s")?;
            ensure(
                period.is_finite() && period > 0.0,
                &view.child_path("period_s"),
                "must be positive",
            )?;
            let start = view.opt_f64("start_s")?.unwrap_or(0.0);
            ensure(
                start.is_finite() && start >= 0.0,
                &view.child_path("start_s"),
                "must be non-negative",
            )?;
            Ok(StreamArrival::Uniform {
                period_s: period,
                start_s: start,
            })
        }
        "batches" => {
            view.deny_unknown(&["kind", "at_s"])?;
            let at_path = view.child_path("at_s");
            let items = view.array("at_s")?;
            ensure(
                !items.is_empty(),
                &at_path,
                "must list at least one batch time",
            )?;
            let mut at_s = Vec::new();
            for (i, item) in items.iter().enumerate() {
                let t = item.as_f64().ok_or_else(|| {
                    SpecError::new(
                        format!("{at_path}[{i}]"),
                        format!("expected a number, found {}", kind_name(item)),
                    )
                })?;
                ensure(
                    t.is_finite() && t >= 0.0,
                    &format!("{at_path}[{i}]"),
                    "must be non-negative",
                )?;
                at_s.push(t);
            }
            Ok(StreamArrival::Batches { at_s })
        }
        "diurnal" => {
            view.deny_unknown(&["kind", "base_per_min", "peaks", "window_s"])?;
            let base = view.opt_f64("base_per_min")?.unwrap_or(0.0);
            ensure(
                base.is_finite() && base >= 0.0,
                &view.child_path("base_per_min"),
                "must be non-negative",
            )?;
            let peaks_path = view.child_path("peaks");
            let mut peaks = Vec::new();
            for (i, item) in view.array("peaks")?.iter().enumerate() {
                let pv = ObjectView::new(item, format!("{peaks_path}[{i}]"))?;
                pv.deny_unknown(&["center_s", "width_s", "extra_per_min"])?;
                let center = pv.f64("center_s")?;
                ensure(
                    center.is_finite(),
                    &pv.child_path("center_s"),
                    "must be finite",
                )?;
                let width = pv.f64("width_s")?;
                ensure(
                    width.is_finite() && width > 0.0,
                    &pv.child_path("width_s"),
                    "must be positive",
                )?;
                let extra = pv.f64("extra_per_min")?;
                ensure(
                    extra.is_finite() && extra >= 0.0,
                    &pv.child_path("extra_per_min"),
                    "must be non-negative",
                )?;
                peaks.push(DiurnalPeak {
                    center_s: center,
                    width_s: width,
                    extra_per_min: extra,
                });
            }
            let window = view.f64("window_s")?;
            ensure(
                window.is_finite() && window > 0.0,
                &view.child_path("window_s"),
                "must be positive",
            )?;
            let profile = DiurnalProfile {
                base_per_min: base,
                peaks,
            };
            ensure(
                profile.max_per_min() > 0.0,
                view.path(),
                "diurnal profile must have positive intensity (base or at least one peak)",
            )?;
            Ok(StreamArrival::Diurnal {
                profile,
                window_s: window,
            })
        }
        other => Err(SpecError::new(
            view.child_path("kind"),
            format!("unknown arrival kind {other:?} (poisson|uniform|batches|diurnal)"),
        )),
    }
}

// ---------------------------------------------------------------------------
// Fleet

fn fleet_to_json(fleet: &FleetSpec) -> JsonValue {
    match fleet {
        FleetSpec::Paper => object([("preset", JsonValue::Str("paper".into()))]),
        FleetSpec::Custom { groups, rack_size } => object([
            (
                "groups",
                JsonValue::Array(
                    groups
                        .iter()
                        .map(|g| {
                            object([
                                ("profile", JsonValue::Str(g.profile.clone())),
                                ("count", JsonValue::UInt(g.count as u64)),
                                (
                                    "slots",
                                    match g.slots {
                                        None => JsonValue::Null,
                                        Some((m, r)) => JsonValue::Array(vec![
                                            JsonValue::UInt(m as u64),
                                            JsonValue::UInt(r as u64),
                                        ]),
                                    },
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "rack_size",
                rack_size.map_or(JsonValue::Null, |r| JsonValue::UInt(r as u64)),
            ),
        ]),
    }
}

fn fleet_from_json(view: &ObjectView<'_>) -> Result<FleetSpec, SpecError> {
    if view.get("preset").is_some() {
        view.deny_unknown(&["preset"])?;
        return match view.string("preset")? {
            "paper" => Ok(FleetSpec::Paper),
            other => Err(SpecError::new(
                view.child_path("preset"),
                format!("unknown fleet preset {other:?} (paper)"),
            )),
        };
    }
    view.deny_unknown(&["groups", "rack_size"])?;
    let groups_path = view.child_path("groups");
    let items = view.array("groups")?;
    ensure(
        !items.is_empty(),
        &groups_path,
        "must list at least one group",
    )?;
    let mut groups = Vec::new();
    for (i, item) in items.iter().enumerate() {
        let gv = ObjectView::new(item, format!("{groups_path}[{i}]"))?;
        gv.deny_unknown(&["profile", "count", "slots"])?;
        let profile = gv.string("profile")?.to_owned();
        ensure(
            profiles::by_name(&profile).is_some(),
            &gv.child_path("profile"),
            "unknown machine profile (Desktop|XeonE5|Atom|T110|T420|T320|T620)",
        )?;
        let count = gv.u64("count")?;
        ensure(count > 0, &gv.child_path("count"), "must be positive")?;
        let slots = match gv.get("slots") {
            None | Some(JsonValue::Null) => None,
            Some(JsonValue::Array(pair)) => {
                let path = gv.child_path("slots");
                ensure(
                    pair.len() == 2,
                    &path,
                    "must be a [map_slots, reduce_slots] pair",
                )?;
                let maps = match &pair[0] {
                    JsonValue::UInt(n) => *n,
                    _ => {
                        return Err(SpecError::new(
                            path,
                            "slot counts must be unsigned integers",
                        ))
                    }
                };
                let reduces = match &pair[1] {
                    JsonValue::UInt(n) => *n,
                    _ => {
                        return Err(SpecError::new(
                            path,
                            "slot counts must be unsigned integers",
                        ))
                    }
                };
                ensure(maps > 0, &path, "map slot count must be positive")?;
                Some((maps as usize, reduces as usize))
            }
            Some(other) => {
                return Err(SpecError::new(
                    gv.child_path("slots"),
                    format!(
                        "expected a [map_slots, reduce_slots] pair or null, found {}",
                        kind_name(other)
                    ),
                ))
            }
        };
        groups.push(FleetGroup {
            profile,
            count: count as usize,
            slots,
        });
    }
    let rack_size = match view.opt_u64("rack_size")? {
        None => None,
        Some(r) => {
            ensure(r > 0, &view.child_path("rack_size"), "must be positive")?;
            Some(r as usize)
        }
    };
    Ok(FleetSpec::Custom { groups, rack_size })
}

// ---------------------------------------------------------------------------
// Engine

fn engine_to_json(cfg: &EngineConfig) -> JsonValue {
    object([
        ("heartbeat_s", duration_to_json(cfg.heartbeat)),
        ("control_interval_s", duration_to_json(cfg.control_interval)),
        ("reduce_slowstart", JsonValue::Num(cfg.reduce_slowstart)),
        (
            "speculation",
            JsonValue::Str(
                match cfg.speculation {
                    SpeculationPolicy::Off => "off",
                    SpeculationPolicy::Hadoop => "hadoop",
                    SpeculationPolicy::Late => "late",
                }
                .into(),
            ),
        ),
        (
            "speculation_threshold",
            JsonValue::Num(cfg.speculation_threshold),
        ),
        (
            "noise",
            object([
                ("straggler_prob", JsonValue::Num(cfg.noise.straggler_prob)),
                (
                    "slowdown_min",
                    JsonValue::Num(cfg.noise.straggler_slowdown.0),
                ),
                (
                    "slowdown_max",
                    JsonValue::Num(cfg.noise.straggler_slowdown.1),
                ),
                (
                    "utilization_jitter",
                    JsonValue::Num(cfg.noise.utilization_jitter),
                ),
            ]),
        ),
        (
            "fault",
            if cfg.fault.is_enabled() {
                object([
                    (
                        "crash_mtbf_s",
                        if cfg.fault.crash_mtbf.is_zero() {
                            JsonValue::Null
                        } else {
                            duration_to_json(cfg.fault.crash_mtbf)
                        },
                    ),
                    (
                        "crash_downtime_s",
                        if cfg.fault.crash_downtime.is_zero() {
                            JsonValue::Null
                        } else {
                            duration_to_json(cfg.fault.crash_downtime)
                        },
                    ),
                    (
                        "task_failure_prob",
                        JsonValue::Num(cfg.fault.task_failure_prob),
                    ),
                    (
                        "missed_heartbeats",
                        JsonValue::UInt(u64::from(cfg.fault.missed_heartbeats)),
                    ),
                    (
                        "max_task_retries",
                        JsonValue::UInt(u64::from(cfg.fault.max_task_retries)),
                    ),
                    (
                        "blacklist_threshold",
                        JsonValue::UInt(u64::from(cfg.fault.blacklist_threshold)),
                    ),
                ])
            } else {
                JsonValue::Null
            },
        ),
        (
            "power_down",
            match &cfg.power_down {
                None => JsonValue::Null,
                Some(pd) => object([
                    ("idle_timeout_s", duration_to_json(pd.idle_timeout)),
                    ("standby_watts", JsonValue::Num(pd.standby_watts)),
                    ("wake_latency_s", duration_to_json(pd.wake_latency)),
                ]),
            },
        ),
        (
            "dvfs",
            match &cfg.dvfs {
                None => JsonValue::Null,
                Some(d) => object([
                    ("eco_factor", JsonValue::Num(d.eco_factor)),
                    ("low_utilization", JsonValue::Num(d.low_utilization)),
                    ("high_utilization", JsonValue::Num(d.high_utilization)),
                ]),
            },
        ),
        ("max_sim_time_s", duration_to_json(cfg.max_sim_time)),
    ])
}

fn engine_from_json(view: &ObjectView<'_>) -> Result<EngineConfig, SpecError> {
    view.deny_unknown(&[
        "heartbeat_s",
        "control_interval_s",
        "reduce_slowstart",
        "speculation",
        "speculation_threshold",
        "noise",
        "fault",
        "power_down",
        "dvfs",
        "max_sim_time_s",
    ])?;
    let base = EngineConfig::default();

    let heartbeat = opt_duration(view, "heartbeat_s", true)?.unwrap_or(base.heartbeat);
    let control_interval =
        opt_duration(view, "control_interval_s", true)?.unwrap_or(base.control_interval);
    let reduce_slowstart = view
        .opt_f64("reduce_slowstart")?
        .unwrap_or(base.reduce_slowstart);
    ensure(
        reduce_slowstart > 0.0 && reduce_slowstart <= 1.0,
        &view.child_path("reduce_slowstart"),
        "must be in (0, 1]",
    )?;
    let speculation = match view.opt_string("speculation")? {
        None => base.speculation,
        Some("off") => SpeculationPolicy::Off,
        Some("hadoop") => SpeculationPolicy::Hadoop,
        Some("late") => SpeculationPolicy::Late,
        Some(other) => {
            return Err(SpecError::new(
                view.child_path("speculation"),
                format!("unknown speculation policy {other:?} (off|hadoop|late)"),
            ))
        }
    };
    let speculation_threshold = view
        .opt_f64("speculation_threshold")?
        .unwrap_or(base.speculation_threshold);
    ensure(
        speculation_threshold.is_finite() && speculation_threshold >= 1.0,
        &view.child_path("speculation_threshold"),
        "must be >= 1",
    )?;

    let noise = match view.get("noise") {
        None | Some(JsonValue::Null) => base.noise,
        Some(JsonValue::Str(s)) => match s.as_str() {
            "none" => NoiseConfig::none(),
            "paper" => NoiseConfig::paper_default(),
            other => {
                return Err(SpecError::new(
                    view.child_path("noise"),
                    format!("unknown noise preset {other:?} (none|paper)"),
                ))
            }
        },
        Some(_) => noise_from_json(&view.obj("noise")?)?,
    };

    let fault = match view.opt_obj("fault")? {
        None => FaultConfig::none(),
        Some(fv) => fault_from_json(&fv)?,
    };

    let power_down = match view.opt_obj("power_down")? {
        None => None,
        Some(pv) => Some(power_down_from_json(&pv)?),
    };

    let dvfs = match view.opt_obj("dvfs")? {
        None => None,
        Some(dv) => Some(dvfs_from_json(&dv)?),
    };

    let max_sim_time = opt_duration(view, "max_sim_time_s", true)?.unwrap_or(base.max_sim_time);

    // `..Default::default()` keeps `trace_decisions` at its off default
    // without naming it.
    Ok(EngineConfig {
        heartbeat,
        control_interval,
        reduce_slowstart,
        noise,
        fault,
        power_down,
        speculation,
        dvfs,
        speculation_threshold,
        max_sim_time,
        ..EngineConfig::default()
    })
}

fn noise_from_json(view: &ObjectView<'_>) -> Result<NoiseConfig, SpecError> {
    view.deny_unknown(&[
        "straggler_prob",
        "slowdown_min",
        "slowdown_max",
        "utilization_jitter",
    ])?;
    let base = NoiseConfig::paper_default();
    let straggler_prob = view
        .opt_f64("straggler_prob")?
        .unwrap_or(base.straggler_prob);
    ensure(
        (0.0..=1.0).contains(&straggler_prob),
        &view.child_path("straggler_prob"),
        "must be in [0, 1]",
    )?;
    let lo = view
        .opt_f64("slowdown_min")?
        .unwrap_or(base.straggler_slowdown.0);
    let hi = view
        .opt_f64("slowdown_max")?
        .unwrap_or(base.straggler_slowdown.1);
    ensure(
        lo.is_finite() && hi.is_finite() && lo >= 1.0 && hi >= lo,
        &view.child_path("slowdown_min"),
        "slowdown range must satisfy 1 <= min <= max",
    )?;
    let utilization_jitter = view
        .opt_f64("utilization_jitter")?
        .unwrap_or(base.utilization_jitter);
    ensure(
        utilization_jitter.is_finite() && utilization_jitter >= 0.0,
        &view.child_path("utilization_jitter"),
        "must be non-negative",
    )?;
    Ok(NoiseConfig {
        straggler_prob,
        straggler_slowdown: (lo, hi),
        utilization_jitter,
    })
}

fn fault_from_json(view: &ObjectView<'_>) -> Result<FaultConfig, SpecError> {
    view.deny_unknown(&[
        "crash_mtbf_s",
        "crash_downtime_s",
        "task_failure_prob",
        "missed_heartbeats",
        "max_task_retries",
        "blacklist_threshold",
    ])?;
    let base = FaultConfig::none();
    // An explicit zero MTBF is almost always a mistaken attempt to disable
    // crashes inside an enabled fault block — reject it loudly.
    let crash_mtbf = opt_duration(view, "crash_mtbf_s", true)?.unwrap_or(SimDuration::ZERO);
    let crash_downtime = opt_duration(view, "crash_downtime_s", true)?.unwrap_or(SimDuration::ZERO);
    let task_failure_prob = view.opt_f64("task_failure_prob")?.unwrap_or(0.0);
    ensure(
        (0.0..=1.0).contains(&task_failure_prob),
        &view.child_path("task_failure_prob"),
        "must be in [0, 1]",
    )?;
    let missed_heartbeats = small_u32(view, "missed_heartbeats", base.missed_heartbeats)?;
    let max_task_retries = small_u32(view, "max_task_retries", base.max_task_retries)?;
    let blacklist_threshold = small_u32(view, "blacklist_threshold", base.blacklist_threshold)?;

    if !crash_mtbf.is_zero() {
        ensure(
            !crash_downtime.is_zero(),
            &view.child_path("crash_downtime_s"),
            "must be positive when crashes are enabled",
        )?;
        ensure(
            missed_heartbeats >= 1,
            &view.child_path("missed_heartbeats"),
            "must be >= 1 when crashes are enabled",
        )?;
    }
    if task_failure_prob > 0.0 {
        ensure(
            max_task_retries >= 1,
            &view.child_path("max_task_retries"),
            "must be >= 1 when task failures are enabled",
        )?;
    }
    let cfg = FaultConfig {
        crash_mtbf,
        crash_downtime,
        task_failure_prob,
        missed_heartbeats,
        max_task_retries,
        blacklist_threshold,
    };
    ensure(
        cfg.is_enabled(),
        view.path(),
        "fault block enables nothing; set crash_mtbf_s or task_failure_prob, or use null",
    )?;
    Ok(cfg)
}

fn small_u32(view: &ObjectView<'_>, key: &str, default: u32) -> Result<u32, SpecError> {
    match view.opt_u64(key)? {
        None => Ok(default),
        Some(n) => {
            ensure(
                n <= u64::from(u32::MAX),
                &view.child_path(key),
                "must fit in 32 bits",
            )?;
            Ok(n as u32)
        }
    }
}

fn power_down_from_json(view: &ObjectView<'_>) -> Result<PowerDownConfig, SpecError> {
    view.deny_unknown(&["idle_timeout_s", "standby_watts", "wake_latency_s"])?;
    let base = PowerDownConfig::suspend_to_ram();
    let idle_timeout = opt_duration(view, "idle_timeout_s", true)?.unwrap_or(base.idle_timeout);
    let standby_watts = view.opt_f64("standby_watts")?.unwrap_or(base.standby_watts);
    ensure(
        standby_watts.is_finite() && standby_watts >= 0.0,
        &view.child_path("standby_watts"),
        "must be non-negative",
    )?;
    let wake_latency = opt_duration(view, "wake_latency_s", false)?.unwrap_or(base.wake_latency);
    Ok(PowerDownConfig {
        idle_timeout,
        standby_watts,
        wake_latency,
    })
}

fn dvfs_from_json(view: &ObjectView<'_>) -> Result<DvfsConfig, SpecError> {
    view.deny_unknown(&["eco_factor", "low_utilization", "high_utilization"])?;
    let base = DvfsConfig::conservative();
    let eco_factor = view.opt_f64("eco_factor")?.unwrap_or(base.eco_factor);
    ensure(
        eco_factor > 0.0 && eco_factor <= 1.0,
        &view.child_path("eco_factor"),
        "must be in (0, 1]",
    )?;
    let low = view
        .opt_f64("low_utilization")?
        .unwrap_or(base.low_utilization);
    let high = view
        .opt_f64("high_utilization")?
        .unwrap_or(base.high_utilization);
    ensure(
        (0.0..=1.0).contains(&low) && low < high && high <= 1.0,
        &view.child_path("low_utilization"),
        "utilization thresholds must satisfy 0 <= low < high <= 1",
    )?;
    Ok(DvfsConfig {
        eco_factor,
        low_utilization: low,
        high_utilization: high,
    })
}

fn tolerance_from_json(view: &ObjectView<'_>) -> Result<Tolerance, SpecError> {
    view.deny_unknown(&["energy_rel", "makespan_rel"])?;
    let base = Tolerance::default();
    let energy_rel = view.opt_f64("energy_rel")?.unwrap_or(base.energy_rel);
    ensure(
        energy_rel.is_finite() && energy_rel > 0.0,
        &view.child_path("energy_rel"),
        "must be positive",
    )?;
    let makespan_rel = view.opt_f64("makespan_rel")?.unwrap_or(base.makespan_rel);
    ensure(
        makespan_rel.is_finite() && makespan_rel > 0.0,
        &view.child_path("makespan_rel"),
        "must be positive",
    )?;
    Ok(Tolerance {
        energy_rel,
        makespan_rel,
    })
}

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
    fn execute_matches_hardcoded_scenario_path() {
        // The spec path must reproduce common::Scenario byte-for-byte when
        // it re-expresses the same run (the fig8 equivalence contract).
        use crate::common::Scenario;
        use metrics::emit::run_result_json;

        let scenario = Scenario::fast(2015);
        let spec = ScenarioSpec {
            name: "fig8".into(),
            description: String::new(),
            seeds: vec![2015],
            schedulers: vec![SchedulerKind::Fair],
            workload: WorkloadSpec::Msd(scenario.msd.clone()),
            fast_workload: None,
            serve: None,
            slo: None,
            fleet: FleetSpec::Paper,
            engine: scenario.engine.clone(),
            tolerance: Tolerance::default(),
        };
        let via_spec = run_result_json(&spec.execute(&SchedulerKind::Fair, 2015, false));
        let via_module = run_result_json(&scenario.run(&SchedulerKind::Fair));
        assert_eq!(via_spec, via_module);
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
