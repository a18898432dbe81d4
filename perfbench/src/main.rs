//! `perfbench`: runs one benchmark workload (or all three, each in its own
//! process), checks the simulated results, and prints every metric with
//! its unit and direction. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//!
//! ```text
//! perfbench [--workload scale-1000|serve-overload|paper-grid|all]
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use hadoop_sim::ServiceStats;
use metrics::emit::JsonValue;
use perfbench::cell::{run_cell, CellRun, Observers};
use perfbench::probe::{EventCounts, SchedTimes};
use perfbench::proc_status;
use perfbench::workloads::Workload;

/// Fewest passes an untraced run measures, however long one pass takes.
const MIN_PASSES: usize = 3;

/// Fewest pairs of untraced and traced passes a traced run measures.
const MIN_TRACED_PAIRS: usize = 2;

/// Share of the budget spent on set-up-only repetitions after the passes.
/// Each pass gives one set-up sample; the repetitions add more, many where
/// set-up is cheap, so `setup_s` is a median over at least a few samples.
const SETUP_SHARE: f64 = 0.05;

/// The end-to-end metrics the final JSON line carries with `--trace 0`:
/// those whose spread across runs stays within a bound. On a shared
/// machine host speed can drift by a quarter between runs a few minutes
/// apart, so the run-time metrics (`run_s`, `tasks_per_s`) and the
/// seed-dependent modelled metrics are printed only.
const GATED: [&str; 2] = ["setup_s", "peak_rss_mb"];

#[derive(Debug, Clone, Copy)]
enum Target {
    One(Workload),
    All,
}

#[derive(Debug, Clone, Copy)]
struct Args {
    target: Target,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        target: Target::All,
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.target = if value == "all" {
                    Target::All
                } else {
                    Target::One(
                        Workload::from_name(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                };
            }
            "--seed" => {
                args.seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?);
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench [--workload scale-1000|serve-overload|paper-grid|all] \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.target {
        Target::One(w) => bench(w, args),
        Target::All => bench_all(args),
    };
    match result {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Passes

/// One pass over every cell of the workload.
struct Pass {
    /// Spec load and cut.
    load: Duration,
    cells: Vec<Result<CellRun, String>>,
}

impl Pass {
    fn ok(&self) -> impl Iterator<Item = &CellRun> {
        self.cells.iter().filter_map(|c| c.as_ref().ok())
    }

    fn setup_s(&self) -> f64 {
        (self.load + self.ok().map(|c| c.setup.total()).sum::<Duration>()).as_secs_f64()
    }

    fn measured_s(&self) -> f64 {
        self.ok()
            .map(CellRun::measured)
            .sum::<Duration>()
            .as_secs_f64()
    }
}

fn run_pass(
    w: Workload,
    seed: Option<u64>,
    observers: Observers,
    timing: bool,
) -> Result<Pass, String> {
    let start = Instant::now();
    let spec = w.load()?;
    let load = start.elapsed();
    let cells = w
        .cells(&spec, seed)
        .iter()
        .map(|(kind, s)| {
            catch_unwind(AssertUnwindSafe(|| {
                run_cell(&spec, kind, *s, w.fast(), observers, timing)
            }))
            .map_err(|panic| {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("panic");
                format!("{} seed {s} panicked: {msg}", kind.label())
            })
        })
        .collect();
    Ok(Pass { load, cells })
}

/// Set-up only, for extra `setup_s` samples: spec load plus every cell's
/// fleet, jobs, engine, submission and scheduler, then dropped unrun.
fn setup_only(w: Workload, seed: Option<u64>) -> Result<f64, String> {
    let start = Instant::now();
    let spec = w.load()?;
    for (kind, s) in w.cells(&spec, seed) {
        let setup = perfbench::cell::setup_cell(&spec, &kind, s, w.fast());
        std::hint::black_box(setup);
    }
    Ok(start.elapsed().as_secs_f64())
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Index of the pass whose measured time is the median.
fn median_pass(passes: &[Pass]) -> usize {
    let mut order: Vec<usize> = (0..passes.len()).collect();
    order.sort_by(|&a, &b| passes[a].measured_s().total_cmp(&passes[b].measured_s()));
    order[order.len() / 2]
}

// ---------------------------------------------------------------------------
// Checks

/// Checks every cell run of every pass: its own result, and that its
/// digest equals the first pass's digest for the same cell — traced or
/// not, observed or bare. Returns (attempted, failed, messages).
fn check(passes: &[&Pass]) -> (u64, u64, Vec<String>) {
    let reference: Vec<Option<u64>> = passes[0]
        .cells
        .iter()
        .map(|c| c.as_ref().ok().map(|c| c.digest))
        .collect();
    let mut attempted = 0;
    let mut failed = 0;
    let mut messages = Vec::new();
    for (p, pass) in passes.iter().enumerate() {
        for (i, cell) in pass.cells.iter().enumerate() {
            attempted += 1;
            let mut errors = match cell {
                Err(e) => vec![e.clone()],
                Ok(cell) => cell.outcome.errors.clone(),
            };
            if let Ok(cell) = cell {
                match reference.get(i).copied().flatten() {
                    Some(d) if d == cell.digest => {}
                    Some(d) => errors.push(format!(
                        "digest {:016x} != first pass {d:016x}",
                        cell.digest
                    )),
                    None => errors.push("no reference digest".into()),
                }
            }
            if !errors.is_empty() {
                failed += 1;
                messages.push(format!("pass {p} cell {i}: {}", errors.join("; ")));
            }
        }
    }
    (attempted, failed, messages)
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    better: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        better,
    }
}

/// Modelled end-to-end metrics of one pass; deterministic per seed.
fn modelled(w: Workload, pass: &Pass) -> Vec<Metric> {
    let cells: Vec<&CellRun> = pass.ok().collect();
    let energy: f64 = cells.iter().map(|c| c.outcome.energy_j).sum();
    let mut out = vec![metric("energy_mj", energy / 1e6, "MJ", "lower")];
    if w.drains() {
        let makespan: f64 =
            cells.iter().map(|c| c.outcome.makespan_s).sum::<f64>() / cells.len().max(1) as f64;
        out.push(metric("makespan_s", makespan, "s", "lower"));
    }
    if w == Workload::PaperGrid {
        let mean = |label: &str| {
            let e: Vec<f64> = cells
                .iter()
                .filter(|c| c.outcome.scheduler == label)
                .map(|c| c.outcome.energy_j)
                .collect();
            e.iter().sum::<f64>() / e.len().max(1) as f64
        };
        let saving = (1.0 - mean("E-Ant") / mean("Fair")) * 100.0;
        out.push(metric("eant_saving_vs_fair_pct", saving, "%", "higher"));
    }
    let services: Vec<&ServiceStats> = cells
        .iter()
        .filter_map(|c| c.outcome.service.as_ref())
        .collect();
    if !services.is_empty() {
        let mean = |f: &dyn Fn(&ServiceStats) -> f64| {
            services.iter().map(|s| f(s)).sum::<f64>() / services.len() as f64
        };
        let p = |q| move |s: &ServiceStats| s.percentile(q).map_or(0.0, |d| d.as_secs_f64());
        out.push(metric("sojourn_p50_s", mean(&p(50)), "s", "lower"));
        out.push(metric("sojourn_p95_s", mean(&p(95)), "s", "lower"));
        out.push(metric(
            "jobs_per_min",
            mean(&|s| s.throughput_per_min),
            "1/min",
            "higher",
        ));
        out.push(metric(
            "energy_per_job_kj",
            mean(&|s| s.energy_per_job / 1e3),
            "kJ",
            "lower",
        ));
        out.push(metric(
            "completions",
            services.iter().map(|s| s.completions as f64).sum(),
            "count",
            "higher",
        ));
    }
    out
}

fn attempts(pass: &Pass) -> u64 {
    pass.ok().map(|c| c.outcome.attempts).sum()
}

/// Per-layer metrics of the median traced pass. `bare` holds the same
/// cells run without observers (monitored workloads only), `checked` the
/// event-counting pass, `untraced_s` the median untraced measured time.
fn layers(
    traced: &Pass,
    bare: Option<&Pass>,
    checked: &Pass,
    untraced_s: f64,
    setup_rss_kb: u64,
) -> Vec<Metric> {
    let cells: Vec<&CellRun> = traced.ok().collect();
    let secs = |f: &dyn Fn(&CellRun) -> Duration| {
        cells.iter().map(|c| f(c)).sum::<Duration>().as_secs_f64()
    };
    let count = |f: &dyn Fn(&CellRun) -> u64| cells.iter().map(|c| f(c)).sum::<u64>() as f64;
    let sched_s = |c: &CellRun| c.probe.as_ref().map_or(Duration::ZERO, |p| p.0.total());
    let observe_s = |c: &CellRun| c.probe.as_ref().map_or(Duration::ZERO, |p| p.1.time);

    // Fan-out: the engine time an observed cell spends beyond its bare
    // twin outside scheduler and observer calls — building and delivering
    // events.
    let fanout_s: f64 = match bare {
        None => 0.0,
        Some(bare) => cells
            .iter()
            .zip(bare.ok())
            .map(|(o, b)| {
                let observed_self = o
                    .run
                    .saturating_sub(sched_s(o))
                    .saturating_sub(observe_s(o));
                let bare_self = b.run.saturating_sub(sched_s(b));
                observed_self.saturating_sub(bare_self).as_secs_f64()
            })
            .sum(),
    };

    let run_s = secs(&|c| c.run);
    let sched_total = secs(&sched_s);
    let on_event_s = secs(&observe_s);
    let self_s = (run_s - sched_total - on_event_s - fanout_s).max(0.0);
    let record_s = secs(&|c| c.record);
    let snapshot_s = secs(&|c| c.snapshot);
    let total = run_s + record_s + snapshot_s;
    let share = |x: f64| if total > 0.0 { x / total } else { 0.0 };

    let mut sched = SchedTimes::default();
    for (s, _) in cells.iter().filter_map(|c| c.probe.as_ref()) {
        sched.merge(s);
    }
    sched.select_ns.sort_unstable();

    let mut events = EventCounts::default();
    for c in checked.ok() {
        if let Some(e) = &c.events {
            events.merge(e);
        }
    }
    let total_events = events.total() as f64;

    vec![
        metric(
            "workload.generate_s",
            secs(&|c| c.setup.generate),
            "s",
            "lower",
        ),
        metric("workload.jobs", count(&|c| c.jobs), "count", "higher"),
        metric(
            "cluster.fleet_build_s",
            secs(&|c| c.setup.fleet_build),
            "s",
            "lower",
        ),
        metric(
            "cluster.machines",
            cells.iter().map(|c| c.machines).max().unwrap_or(0) as f64,
            "count",
            "higher",
        ),
        metric(
            "hadoop_sim.submit_s",
            secs(&|c| c.setup.submit),
            "s",
            "lower",
        ),
        metric("hadoop_sim.blocks", count(&|c| c.blocks), "count", "higher"),
        metric("hadoop_sim.run_s", run_s, "s", "lower"),
        metric("hadoop_sim.self_s", self_s, "s", "lower"),
        metric("hadoop_sim.self_share", share(self_s), "ratio", "lower"),
        metric("hadoop_sim.events", total_events, "count", "higher"),
        metric(
            "hadoop_sim.ns_per_event",
            if total_events > 0.0 {
                self_s * 1e9 / total_events
            } else {
                0.0
            },
            "ns",
            "lower",
        ),
        metric(
            "hadoop_sim.heartbeat_drains",
            events.get("heartbeat_drained") as f64,
            "count",
            "higher",
        ),
        metric(
            "hadoop_sim.task_started",
            events.get("task_started") as f64,
            "count",
            "higher",
        ),
        metric(
            "hadoop_sim.task_completed",
            events.get("task_completed") as f64,
            "count",
            "higher",
        ),
        metric(
            "hadoop_sim.slot_changes",
            events.get("slot_occupancy_changed") as f64,
            "count",
            "higher",
        ),
        metric(
            "hadoop_sim.control_intervals",
            events.get("control_interval_fired") as f64,
            "count",
            "higher",
        ),
        metric(
            "sched.select_calls",
            sched.select.calls as f64,
            "count",
            "higher",
        ),
        metric(
            "sched.select_s",
            sched.select.time.as_secs_f64(),
            "s",
            "lower",
        ),
        metric(
            "sched.select_ns_p50",
            percentile(&sched.select_ns, 50.0) as f64,
            "ns",
            "lower",
        ),
        metric(
            "sched.select_ns_p99",
            percentile(&sched.select_ns, 99.0) as f64,
            "ns",
            "lower",
        ),
        metric(
            "sched.assign_ratio",
            if sched.select.calls > 0 {
                sched.select_assigned as f64 / sched.select.calls as f64
            } else {
                0.0
            },
            "ratio",
            "higher",
        ),
        metric(
            "sched.task_report_calls",
            sched.task_report.calls as f64,
            "count",
            "higher",
        ),
        metric(
            "sched.task_report_s",
            sched.task_report.time.as_secs_f64(),
            "s",
            "lower",
        ),
        metric(
            "sched.control_calls",
            sched.control.calls as f64,
            "count",
            "higher",
        ),
        metric(
            "sched.control_s",
            sched.control.time.as_secs_f64(),
            "s",
            "lower",
        ),
        metric(
            "sched.control_ms_per_call",
            sched.control.time.as_secs_f64() * 1e3 / sched.control.calls.max(1) as f64,
            "ms",
            "lower",
        ),
        metric(
            "sched.job_submit_s",
            sched.job_submit.time.as_secs_f64(),
            "s",
            "lower",
        ),
        metric(
            "sched.job_complete_s",
            sched.job_complete.time.as_secs_f64(),
            "s",
            "lower",
        ),
        metric("sched.share", share(sched_total), "ratio", "lower"),
        metric("observe.on_event_s", on_event_s, "s", "lower"),
        metric(
            "observe.events",
            cells
                .iter()
                .map(|c| c.probe.as_ref().map_or(0, |p| p.1.calls))
                .sum::<u64>() as f64,
            "count",
            "higher",
        ),
        metric("observe.fanout_s", fanout_s, "s", "lower"),
        metric(
            "observe.share",
            share(on_event_s + fanout_s),
            "ratio",
            "lower",
        ),
        metric("report.record_s", record_s, "s", "lower"),
        metric("report.registry_snapshot_s", snapshot_s, "s", "lower"),
        metric("report.bytes", count(&|c| c.report_bytes), "B", "lower"),
        metric(
            "report.share",
            share(record_s + snapshot_s),
            "ratio",
            "lower",
        ),
        metric(
            "mem.setup_rss_mb",
            setup_rss_kb as f64 / 1024.0,
            "MB",
            "lower",
        ),
        metric(
            "mem.interval_cells",
            count(&|c| c.outcome.interval_cells),
            "count",
            "lower",
        ),
        metric("trace.overhead_s", total - untraced_s, "s", "lower"),
    ]
}

// ---------------------------------------------------------------------------
// Reporting

fn machine_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "machine: nproc {nproc} | cpu {cpu} | {} | commit {}",
        env!("PERFBENCH_RUSTC"),
        commit()
    )
}

/// The repository commit, when the benchmark runs inside a git checkout of
/// it.
fn commit() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git = |args: &[&str]| {
        Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_owned())
    };
    let top = git(&["rev-parse", "--show-toplevel"]).map(std::path::PathBuf::from);
    match (top, root.canonicalize().ok()) {
        (Some(top), Some(root)) if top == root => {
            git(&["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into())
        }
        _ => "unknown (not a git checkout)".into(),
    }
}

fn render_table(out: &mut String, title: &str, metrics: &[Metric]) {
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "  {:<28} {:>16} {:<6} better",
        "metric", "value", "unit"
    );
    for m in metrics {
        let _ = writeln!(
            out,
            "  {:<28} {:>16} {:<6} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.better
        );
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    JsonValue::Object(vec![
        ("correct".into(), JsonValue::Bool(correct)),
        ("attempted".into(), JsonValue::UInt(attempted)),
        ("failed".into(), JsonValue::UInt(failed)),
        (
            "metrics".into(),
            JsonValue::Object(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_owned(),
                            JsonValue::Object(vec![
                                ("value".into(), JsonValue::Num(m.value)),
                                ("unit".into(), JsonValue::Str(m.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}

// ---------------------------------------------------------------------------
// Entry points

/// Runs one workload in this process.
fn bench(w: Workload, args: Args) -> Result<String, String> {
    let budget = Duration::from_secs_f64(args.seconds);
    let measured = if w.monitored() {
        Observers::Registry
    } else {
        Observers::Bare
    };
    let start = Instant::now();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut traced_bare: Vec<Pass> = Vec::new();
    // Traced runs alternate untraced and traced passes, so drift on the
    // host lands on both sides of `trace.overhead_s` alike.
    let min_passes = if args.trace {
        MIN_TRACED_PAIRS
    } else {
        MIN_PASSES
    };
    while untraced.len() < min_passes || start.elapsed() < budget {
        untraced.push(run_pass(w, args.seed, measured, false)?);
        if args.trace {
            traced.push(run_pass(w, args.seed, measured, true)?);
            if w.monitored() {
                traced_bare.push(run_pass(w, args.seed, Observers::Bare, true)?);
            }
        }
    }
    let setup_rss_kb = untraced[0].ok().map(|c| c.setup_rss_kb).max().unwrap_or(0);

    let mut setups: Vec<f64> = untraced.iter().map(Pass::setup_s).collect();
    let setup_budget = budget.mul_f64(SETUP_SHARE);
    let setup_start = Instant::now();
    while setup_start.elapsed() < setup_budget {
        setups.push(setup_only(w, args.seed)?);
    }

    let peak_rss_kb = proc_status::kib("VmHWM");

    // Unmeasured check passes. The streaming consumer and the event tally
    // run on monitored workloads, and on every traced run for the event
    // counts; a monitored workload's digests are also compared with a bare
    // run, which traced runs already made.
    let checked = if args.trace || w.monitored() {
        Some(run_pass(w, args.seed, Observers::Checking, false)?)
    } else {
        None
    };
    let bare_check = if w.monitored() && !args.trace {
        Some(run_pass(w, args.seed, Observers::Bare, false)?)
    } else {
        None
    };

    let all: Vec<&Pass> = untraced
        .iter()
        .chain(&traced)
        .chain(&traced_bare)
        .chain(&checked)
        .chain(&bare_check)
        .collect();
    let (attempted, failed, messages) = check(&all);

    let mut out = String::new();
    let first = &untraced[0];
    let _ = writeln!(
        out,
        "perfbench {} | seed {} | {} cells | {} untraced + {} traced passes | {} set-up samples",
        w.name(),
        args.seed
            .map_or_else(|| "committed".into(), |s| s.to_string()),
        first.cells.len(),
        untraced.len(),
        traced.len(),
        setups.len()
    );
    let _ = writeln!(out, "{}", machine_line());
    let per_pass = |passes: &[Pass]| {
        passes
            .iter()
            .map(|p| format!("{:.4}", p.measured_s()))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let _ = writeln!(out, "untraced pass times (s): {}", per_pass(&untraced));
    if args.trace {
        let _ = writeln!(out, "traced pass times (s): {}", per_pass(&traced));
    }
    for cell in first.ok() {
        let r = &cell.outcome;
        let _ = writeln!(
            out,
            "cell {:<6} seed {:<6} digest {:016x} run {:.6} s drained {} jobs {} tasks {} \
             energy {:.6} MJ{}",
            r.scheduler,
            cell.seed,
            cell.digest,
            cell.run.as_secs_f64(),
            if r.drained { "yes" } else { "no" },
            r.jobs,
            r.tasks,
            r.energy_j / 1e6,
            r.service.as_ref().map_or_else(String::new, |s| format!(
                " | serve arrivals {} completions {} backlog {}",
                s.arrivals, s.completions, s.backlog
            ))
        );
    }
    for m in &messages {
        let _ = writeln!(out, "FAILED {m}");
    }

    let mut run_s: Vec<f64> = untraced.iter().map(Pass::measured_s).collect();
    let run_s = median(&mut run_s);
    let setup_s = median(&mut setups);
    let mut e2e = vec![
        metric("run_s", run_s, "s", "lower"),
        metric("setup_s", setup_s, "s", "lower"),
        metric(
            "tasks_per_s",
            if run_s > 0.0 {
                attempts(first) as f64 / run_s
            } else {
                0.0
            },
            "1/s",
            "higher",
        ),
        metric("peak_rss_mb", peak_rss_kb as f64 / 1024.0, "MB", "lower"),
        metric(
            "failed_ratio",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
            "lower",
        ),
    ];
    e2e.extend(modelled(w, first));
    render_table(&mut out, "end-to-end (untraced)", &e2e);

    let correct = failed == 0;
    let json = match (&checked, args.trace) {
        (Some(checked), true) => {
            let t = median_pass(&traced);
            let per_layer = layers(&traced[t], traced_bare.get(t), checked, run_s, setup_rss_kb);
            render_table(&mut out, "per-layer (traced, median pass)", &per_layer);
            result_json(
                correct,
                attempted,
                failed,
                &per_layer.iter().collect::<Vec<_>>(),
            )
        }
        _ => {
            let gated: Vec<&Metric> = GATED
                .iter()
                .filter_map(|name| e2e.iter().find(|m| m.name == *name))
                .collect();
            result_json(correct, attempted, failed, &gated)
        }
    };
    let _ = writeln!(out, "{json}");
    Ok(out)
}

/// Runs every workload, each in a process of its own so its peak memory
/// is its own, one after another.
fn bench_all(args: Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut out = String::new();
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(seed) = args.seed {
            cmd.args(["--seed", &seed.to_string()]);
        }
        let child = cmd
            .output()
            .map_err(|e| format!("cannot run {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        out.push_str(&stdout);
        out.push('\n');
        let correct = stdout
            .lines()
            .last()
            .and_then(|l| JsonValue::parse(l).ok())
            .and_then(|j| j.get("correct").and_then(JsonValue::as_bool))
            == Some(true);
        if !child.status.success() || !correct {
            ok = false;
            let _ = writeln!(
                out,
                "FAILED workload {} ({}): {}",
                w.name(),
                child.status,
                String::from_utf8_lossy(&child.stderr).trim()
            );
        }
    }
    if !ok {
        return Err(format!("{out}\nat least one workload failed"));
    }
    Ok(out)
}
