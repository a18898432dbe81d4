//! The manifest-keyed run database and the energy/perf regression gate.
//!
//! A run DB is a JSONL file under `runs/`: one [`RunRecord`] per line,
//! sorted by (scenario, scheduler, seed, fast) so re-generated databases
//! diff cleanly. Each record is keyed by
//! [`ScenarioSpec::manifest_key`](super::ScenarioSpec::manifest_key) — the
//! FNV-1a digest of the full spec + scheduler + seed + scale — so a record
//! can never silently describe a run produced by a different configuration:
//! change anything and the key changes with it.
//!
//! [`compare`] is the CI gate. It matches records between a committed
//! baseline DB and a freshly generated candidate and fails (non-zero
//! violation count) when a matched run's energy or makespan drifts past the
//! scenario's [`Tolerance`], when its manifest key changed without the
//! baseline being refreshed, when it stopped draining, or when a baseline
//! run disappeared entirely.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use hadoop_sim::RunResult;
use metrics::emit::{object, run_result_json, JsonValue};
use metrics::spec::{snippet, ObjectView, SpecError};

use super::spec::{ScenarioSpec, ServeTolerance, Tolerance};
use crate::common::SchedulerKind;

/// One executed (scenario, scheduler, seed, scale) cell with its result.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Manifest key: content hash of spec + scheduler + seed + scale.
    pub key: String,
    /// Scenario name (from the spec file).
    pub scenario: String,
    /// Scheduler label (`FIFO`, `Fair`, `Tarazu`, `E-Ant`).
    pub scheduler: String,
    /// Root seed of the run.
    pub seed: u64,
    /// Whether the reduced (`--fast`) workload was used.
    pub fast: bool,
    /// Regression tolerances carried over from the spec.
    pub tolerance: Tolerance,
    /// Total fleet energy, joules.
    pub energy_joules: f64,
    /// Makespan, seconds.
    pub makespan_s: f64,
    /// Whether the workload drained before the simulation wall.
    pub drained: bool,
    /// Whether this is an open-stream (service-mode) run. Open-stream runs
    /// never drain by design, so the gate compares their steady-state
    /// service metrics instead of the drain-run energy/makespan pair.
    pub open_stream: bool,
    /// Service-metric tolerances from the spec's `serve` section
    /// (meaningful only when `open_stream`).
    pub serve_tolerance: ServeTolerance,
    /// Steady-state p99 job sojourn, seconds (open-stream runs only).
    pub p99_sojourn_s: f64,
    /// Steady-state energy per completed job, joules (open-stream only).
    pub energy_per_job_j: f64,
    /// The full [`RunResult`] as canonical JSON
    /// ([`metrics::emit::run_result_json`]).
    pub result: String,
}

impl RunRecord {
    /// Builds the record for one executed cell.
    pub fn new(
        spec: &ScenarioSpec,
        kind: &SchedulerKind,
        seed: u64,
        fast: bool,
        result: &RunResult,
    ) -> Self {
        let (open_stream, p99_sojourn_s, energy_per_job_j) = match &result.service {
            Some(service) => (
                true,
                service.percentile(99).map_or(0.0, |d| d.as_secs_f64()),
                service.energy_per_job,
            ),
            None => (false, 0.0, 0.0),
        };
        RunRecord {
            key: spec.manifest_key(kind, seed, fast),
            scenario: spec.name.clone(),
            scheduler: kind.label().to_owned(),
            seed,
            fast,
            tolerance: spec.tolerance,
            energy_joules: result.total_energy_joules(),
            makespan_s: result.makespan.as_secs_f64(),
            drained: result.drained,
            open_stream,
            serve_tolerance: spec.serve.map(|s| s.tolerance).unwrap_or_default(),
            p99_sojourn_s,
            energy_per_job_j,
            result: run_result_json(result),
        }
    }

    /// The identity a record is matched by across databases.
    pub fn identity(&self) -> (String, String, u64, bool) {
        (
            self.scenario.clone(),
            self.scheduler.clone(),
            self.seed,
            self.fast,
        )
    }

    /// Canonical JSON for one JSONL line. The service-mode keys are
    /// emitted only for open-stream records, so every pre-existing
    /// drain-run line stays byte-identical.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = Vec::from([
            ("key", JsonValue::Str(self.key.clone())),
            ("scenario", JsonValue::Str(self.scenario.clone())),
            ("scheduler", JsonValue::Str(self.scheduler.clone())),
            ("seed", JsonValue::UInt(self.seed)),
            ("fast", JsonValue::Bool(self.fast)),
            (
                "tolerance",
                object([
                    ("energy_rel", JsonValue::Num(self.tolerance.energy_rel)),
                    ("makespan_rel", JsonValue::Num(self.tolerance.makespan_rel)),
                ]),
            ),
            ("energy_joules", JsonValue::Num(self.energy_joules)),
            ("makespan_s", JsonValue::Num(self.makespan_s)),
            ("drained", JsonValue::Bool(self.drained)),
        ]);
        if self.open_stream {
            fields.push(("open_stream", JsonValue::Bool(true)));
            fields.push((
                "serve_tolerance",
                object([
                    ("p99_rel", JsonValue::Num(self.serve_tolerance.p99_rel)),
                    (
                        "energy_per_job_rel",
                        JsonValue::Num(self.serve_tolerance.energy_per_job_rel),
                    ),
                ]),
            ));
            fields.push(("p99_sojourn_s", JsonValue::Num(self.p99_sojourn_s)));
            fields.push(("energy_per_job_j", JsonValue::Num(self.energy_per_job_j)));
        }
        fields.push(("result", JsonValue::Raw(self.result.clone())));
        object(fields)
    }

    fn from_json(doc: &JsonValue) -> Result<Self, SpecError> {
        let view = ObjectView::root(doc)?;
        view.deny_unknown(&[
            "key",
            "scenario",
            "scheduler",
            "seed",
            "fast",
            "tolerance",
            "energy_joules",
            "makespan_s",
            "drained",
            "open_stream",
            "serve_tolerance",
            "p99_sojourn_s",
            "energy_per_job_j",
            "result",
        ])?;
        let tol = view.obj("tolerance")?;
        let fast = match view.required("fast")? {
            JsonValue::Bool(b) => *b,
            _ => {
                return Err(SpecError::new(
                    view.child_path("fast"),
                    "expected a boolean",
                ))
            }
        };
        let drained = match view.required("drained")? {
            JsonValue::Bool(b) => *b,
            _ => {
                return Err(SpecError::new(
                    view.child_path("drained"),
                    "expected a boolean",
                ))
            }
        };
        let open_stream = match view.get("open_stream") {
            None => false,
            Some(JsonValue::Bool(b)) => *b,
            Some(_) => {
                return Err(SpecError::new(
                    view.child_path("open_stream"),
                    "expected a boolean",
                ))
            }
        };
        let serve_tolerance = match view.opt_obj("serve_tolerance")? {
            None => ServeTolerance::default(),
            Some(st) => {
                st.deny_unknown(&["p99_rel", "energy_per_job_rel"])?;
                ServeTolerance {
                    p99_rel: st.f64("p99_rel")?,
                    energy_per_job_rel: st.f64("energy_per_job_rel")?,
                }
            }
        };
        Ok(RunRecord {
            key: view.string("key")?.to_owned(),
            scenario: view.string("scenario")?.to_owned(),
            scheduler: view.string("scheduler")?.to_owned(),
            seed: view.u64("seed")?,
            fast,
            tolerance: Tolerance {
                energy_rel: tol.f64("energy_rel")?,
                makespan_rel: tol.f64("makespan_rel")?,
            },
            energy_joules: view.f64("energy_joules")?,
            makespan_s: view.f64("makespan_s")?,
            drained,
            open_stream,
            serve_tolerance,
            p99_sojourn_s: view.opt_f64("p99_sojourn_s")?.unwrap_or(0.0),
            energy_per_job_j: view.opt_f64("energy_per_job_j")?.unwrap_or(0.0),
            result: view.required("result")?.render(),
        })
    }
}

/// A collection of [`RunRecord`]s, stored as sorted JSONL.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunDb {
    /// The records, in file order.
    pub records: Vec<RunRecord>,
}

impl RunDb {
    /// An empty database.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses a JSONL database, naming the offending line on any error.
    ///
    /// # Errors
    ///
    /// Returns a `line N: …; offending line: …` message.
    pub fn parse(input: &str) -> Result<Self, String> {
        let mut records = Vec::new();
        for (idx, line) in input.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let at = |e: &dyn std::fmt::Display| {
                format!("line {}: {e}; offending line: {}", idx + 1, snippet(line))
            };
            let doc = JsonValue::parse(line).map_err(|e| at(&e))?;
            records.push(RunRecord::from_json(&doc).map_err(|e| at(&e))?);
        }
        Ok(RunDb { records })
    }

    /// Loads a database from disk.
    ///
    /// # Errors
    ///
    /// Returns an error for unreadable files or malformed lines.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Inserts `record`, replacing any existing record with the same
    /// identity (scenario, scheduler, seed, fast).
    pub fn upsert(&mut self, record: RunRecord) {
        let id = record.identity();
        match self.records.iter_mut().find(|r| r.identity() == id) {
            Some(slot) => *slot = record,
            None => self.records.push(record),
        }
    }

    /// Renders the database as JSONL, sorted by identity.
    #[must_use]
    pub fn render(&self) -> String {
        let mut sorted: Vec<&RunRecord> = self.records.iter().collect();
        sorted.sort_by_key(|r| r.identity());
        let mut out = String::new();
        for r in sorted {
            out.push_str(&r.to_json().render());
            out.push('\n');
        }
        out
    }

    /// Writes the database to disk, creating parent directories.
    ///
    /// # Errors
    ///
    /// Returns an error when the file cannot be written.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
            }
        }
        std::fs::write(path, self.render())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// One matched (baseline, candidate) pair in a comparison.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Scenario name.
    pub scenario: String,
    /// Scheduler label.
    pub scheduler: String,
    /// Seed of the run.
    pub seed: u64,
    /// Scale of the run.
    pub fast: bool,
    /// Baseline energy, joules.
    pub energy_base: f64,
    /// Candidate energy, joules.
    pub energy_cand: f64,
    /// Baseline makespan, seconds.
    pub makespan_base: f64,
    /// Candidate makespan, seconds.
    pub makespan_cand: f64,
    /// Whether both sides are open-stream (service-mode) records, gated on
    /// p99 sojourn and energy/job instead of energy and makespan.
    pub open_stream: bool,
    /// Baseline steady-state p99 sojourn, seconds (open-stream only).
    pub p99_base: f64,
    /// Candidate steady-state p99 sojourn, seconds (open-stream only).
    pub p99_cand: f64,
    /// Baseline energy per completed job, joules (open-stream only).
    pub energy_per_job_base: f64,
    /// Candidate energy per completed job, joules (open-stream only).
    pub energy_per_job_cand: f64,
    /// Whether the manifest key changed between the databases.
    pub key_changed: bool,
    /// Why this pair fails the gate, if it does.
    pub violation: Option<String>,
}

impl Delta {
    /// Relative energy delta (candidate vs baseline).
    pub fn energy_rel(&self) -> f64 {
        rel_delta(self.energy_base, self.energy_cand)
    }

    /// Relative makespan delta (candidate vs baseline).
    pub fn makespan_rel(&self) -> f64 {
        rel_delta(self.makespan_base, self.makespan_cand)
    }

    /// Relative p99 sojourn delta (open-stream records).
    pub fn p99_rel(&self) -> f64 {
        rel_delta(self.p99_base, self.p99_cand)
    }

    /// Relative energy-per-job delta (open-stream records).
    pub fn energy_per_job_rel(&self) -> f64 {
        rel_delta(self.energy_per_job_base, self.energy_per_job_cand)
    }
}

fn rel_delta(base: f64, cand: f64) -> f64 {
    if base == 0.0 {
        if cand == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (cand - base) / base
    }
}

/// The outcome of comparing a candidate database against a baseline.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Matched pairs, in baseline order.
    pub deltas: Vec<Delta>,
    /// Baseline identities with no candidate run (each is a violation).
    pub missing: Vec<String>,
    /// Candidate identities not in the baseline (informational).
    pub extra: Vec<String>,
}

impl CompareReport {
    /// Number of gate violations (tolerance breaches, key drift, lost
    /// runs, drain regressions). Zero means the gate passes.
    #[must_use]
    pub fn violations(&self) -> usize {
        self.deltas.iter().filter(|d| d.violation.is_some()).count() + self.missing.len()
    }

    /// Renders the per-scenario delta table plus E-Ant-vs-Fair savings
    /// shifts and the gate verdict.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>6} {:>10} {:>10} {:>9} {:>9}  verdict",
            "scenario", "sched", "seed", "E base MJ", "E cand MJ", "dE %", "dM %"
        );
        for d in &self.deltas {
            let verdict = match &d.violation {
                Some(v) => format!("FAIL: {v}"),
                None => "ok".to_owned(),
            };
            // Open-stream rows additionally carry the gated SLO pair —
            // the energy/makespan columns are informational for them.
            let serve = if d.open_stream {
                format!(
                    " [serve p99 {:+.3}% e/job {:+.3}%]",
                    d.p99_rel() * 100.0,
                    d.energy_per_job_rel() * 100.0
                )
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "{:<28} {:>8} {:>6} {:>10.3} {:>10.3} {:>+9.3} {:>+9.3} {serve} {verdict}",
                d.scenario,
                d.scheduler,
                d.seed,
                d.energy_base / 1e6,
                d.energy_cand / 1e6,
                d.energy_rel() * 100.0,
                d.makespan_rel() * 100.0,
            );
        }
        for savings in self.savings_shifts() {
            let _ = writeln!(out, "{savings}");
        }
        for m in &self.missing {
            let _ = writeln!(out, "missing from candidate: {m}  FAIL");
        }
        for e in &self.extra {
            let _ = writeln!(out, "only in candidate: {e}");
        }
        let _ = writeln!(
            out,
            "gate: {} ({} violation(s))",
            if self.violations() == 0 {
                "PASS"
            } else {
                "FAIL"
            },
            self.violations()
        );
        out
    }

    /// Per-scenario E-Ant-vs-Fair energy savings in both databases
    /// (informational: the headline metric of the paper, tracked per
    /// scenario so a savings regression is visible even inside tolerance).
    fn savings_shifts(&self) -> Vec<String> {
        let mut by_scenario: BTreeMap<&str, [(f64, f64, usize); 2]> = BTreeMap::new();
        for d in &self.deltas {
            let slot = match d.scheduler.as_str() {
                "Fair" => 0,
                "E-Ant" => 1,
                _ => continue,
            };
            let entry = by_scenario.entry(&d.scenario).or_insert([(0.0, 0.0, 0); 2]);
            entry[slot].0 += d.energy_base;
            entry[slot].1 += d.energy_cand;
            entry[slot].2 += 1;
        }
        let mut out = Vec::new();
        for (scenario, [fair, eant]) in by_scenario {
            if fair.2 == 0 || eant.2 == 0 {
                continue;
            }
            let base = (1.0 - eant.0 / fair.0) * 100.0;
            let cand = (1.0 - eant.1 / fair.1) * 100.0;
            out.push(format!(
                "savings {scenario}: E-Ant vs Fair {base:.2}% -> {cand:.2}% ({:+.2} pp)",
                cand - base
            ));
        }
        out
    }
}

/// Compares `candidate` against `baseline`, applying each baseline
/// record's tolerance. See the module docs for the violation rules.
#[must_use]
pub fn compare(baseline: &RunDb, candidate: &RunDb) -> CompareReport {
    let mut deltas = Vec::new();
    let mut missing = Vec::new();
    for b in &baseline.records {
        let Some(c) = candidate
            .records
            .iter()
            .find(|c| c.identity() == b.identity())
        else {
            missing.push(identity_label(b));
            continue;
        };
        let mut delta = Delta {
            scenario: b.scenario.clone(),
            scheduler: b.scheduler.clone(),
            seed: b.seed,
            fast: b.fast,
            energy_base: b.energy_joules,
            energy_cand: c.energy_joules,
            makespan_base: b.makespan_s,
            makespan_cand: c.makespan_s,
            open_stream: b.open_stream && c.open_stream,
            p99_base: b.p99_sojourn_s,
            p99_cand: c.p99_sojourn_s,
            energy_per_job_base: b.energy_per_job_j,
            energy_per_job_cand: c.energy_per_job_j,
            key_changed: b.key != c.key,
            violation: None,
        };
        delta.violation = if delta.key_changed {
            Some("manifest key changed; refresh the baseline".to_owned())
        } else if b.open_stream != c.open_stream {
            Some("open-stream flag changed; refresh the baseline".to_owned())
        } else if delta.open_stream {
            // Service-mode gate: an open-stream run never drains by
            // design, so drain/makespan checks would reject every record.
            // Its SLO pair is gated instead.
            let tol = b.serve_tolerance;
            if delta.p99_rel().abs() > tol.p99_rel {
                Some(format!(
                    "p99 sojourn drift {:+.3}% exceeds {:.3}%",
                    delta.p99_rel() * 100.0,
                    tol.p99_rel * 100.0
                ))
            } else if delta.energy_per_job_rel().abs() > tol.energy_per_job_rel {
                Some(format!(
                    "energy/job drift {:+.3}% exceeds {:.3}%",
                    delta.energy_per_job_rel() * 100.0,
                    tol.energy_per_job_rel * 100.0
                ))
            } else {
                None
            }
        } else if b.drained && !c.drained {
            Some("run no longer drains".to_owned())
        } else if delta.energy_rel().abs() > b.tolerance.energy_rel {
            Some(format!(
                "energy drift {:+.3}% exceeds {:.3}%",
                delta.energy_rel() * 100.0,
                b.tolerance.energy_rel * 100.0
            ))
        } else if delta.makespan_rel().abs() > b.tolerance.makespan_rel {
            Some(format!(
                "makespan drift {:+.3}% exceeds {:.3}%",
                delta.makespan_rel() * 100.0,
                b.tolerance.makespan_rel * 100.0
            ))
        } else {
            None
        };
        deltas.push(delta);
    }
    let extra = candidate
        .records
        .iter()
        .filter(|c| {
            !baseline
                .records
                .iter()
                .any(|b| b.identity() == c.identity())
        })
        .map(identity_label)
        .collect();
    CompareReport {
        deltas,
        missing,
        extra,
    }
}

fn identity_label(r: &RunRecord) -> String {
    format!(
        "{}/{} seed {}{}",
        r.scenario,
        r.scheduler,
        r.seed,
        if r.fast { " (fast)" } else { "" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(scenario: &str, scheduler: &str, seed: u64, energy: f64) -> RunRecord {
        RunRecord {
            key: format!("{scenario}-{scheduler}-{seed}"),
            scenario: scenario.to_owned(),
            scheduler: scheduler.to_owned(),
            seed,
            fast: true,
            tolerance: Tolerance::default(),
            energy_joules: energy,
            makespan_s: 1000.0,
            drained: true,
            open_stream: false,
            serve_tolerance: ServeTolerance::default(),
            p99_sojourn_s: 0.0,
            energy_per_job_j: 0.0,
            result: "null".to_owned(),
        }
    }

    fn serve_record(scenario: &str, scheduler: &str, seed: u64, p99: f64, epj: f64) -> RunRecord {
        RunRecord {
            drained: false,
            open_stream: true,
            p99_sojourn_s: p99,
            energy_per_job_j: epj,
            ..record(scenario, scheduler, seed, 5.0e6)
        }
    }

    fn db(records: Vec<RunRecord>) -> RunDb {
        RunDb { records }
    }

    #[test]
    fn identical_databases_pass_the_gate() {
        let a = db(vec![
            record("s", "Fair", 1, 2.0e6),
            record("s", "E-Ant", 1, 1.2e6),
        ]);
        let report = compare(&a, &a.clone());
        assert_eq!(report.violations(), 0);
        assert!(report.render().contains("gate: PASS"));
        assert!(
            report
                .render()
                .contains("savings s: E-Ant vs Fair 40.00% -> 40.00% (+0.00 pp)"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn injected_energy_perturbation_fails_the_gate() {
        // The CI regression gate must demonstrably catch drift: a 5 %
        // energy perturbation against a 1 % tolerance is a violation.
        let baseline = db(vec![record("s", "Fair", 1, 2.0e6)]);
        let mut perturbed = baseline.clone();
        perturbed.records[0].energy_joules *= 1.05;
        let report = compare(&baseline, &perturbed);
        assert_eq!(report.violations(), 1);
        let rendered = report.render();
        assert!(
            rendered.contains("FAIL: energy drift +5.000% exceeds 1.000%"),
            "{rendered}"
        );
        assert!(rendered.contains("gate: FAIL"), "{rendered}");
        // Within tolerance passes.
        let mut slight = baseline.clone();
        slight.records[0].energy_joules *= 1.005;
        assert_eq!(compare(&baseline, &slight).violations(), 0);
    }

    #[test]
    fn makespan_drift_and_drain_loss_fail() {
        let baseline = db(vec![record("s", "Fair", 1, 2.0e6)]);
        let mut slow = baseline.clone();
        slow.records[0].makespan_s *= 1.02;
        assert_eq!(compare(&baseline, &slow).violations(), 1);
        let mut stuck = baseline.clone();
        stuck.records[0].drained = false;
        let report = compare(&baseline, &stuck);
        assert_eq!(report.violations(), 1);
        assert!(report.render().contains("no longer drains"));
    }

    #[test]
    fn open_stream_records_gate_on_service_metrics_not_drain() {
        // An open-stream run never drains; identical databases must pass
        // without tripping the "no longer drains" rule.
        let baseline = db(vec![serve_record("serve", "E-Ant", 1, 420.0, 8.0e5)]);
        let report = compare(&baseline, &baseline.clone());
        assert_eq!(report.violations(), 0, "{}", report.render());
        assert!(report
            .render()
            .contains("[serve p99 +0.000% e/job +0.000%]"));

        // p99 sojourn drift beyond the serve tolerance fails...
        let mut slow = baseline.clone();
        slow.records[0].p99_sojourn_s *= 1.05;
        let report = compare(&baseline, &slow);
        assert_eq!(report.violations(), 1);
        assert!(
            report
                .render()
                .contains("FAIL: p99 sojourn drift +5.000% exceeds 2.000%"),
            "{}",
            report.render()
        );

        // ...as does energy-per-job drift; total energy/makespan drift on
        // its own does not (those columns are informational here).
        let mut hungry = baseline.clone();
        hungry.records[0].energy_per_job_j *= 0.9;
        assert_eq!(compare(&baseline, &hungry).violations(), 1);
        let mut total_only = baseline.clone();
        total_only.records[0].energy_joules *= 1.5;
        total_only.records[0].makespan_s *= 1.5;
        assert_eq!(compare(&baseline, &total_only).violations(), 0);
    }

    #[test]
    fn open_stream_flag_flip_fails_the_gate() {
        let baseline = db(vec![serve_record("serve", "Fair", 1, 400.0, 7.0e5)]);
        let mut cand = baseline.clone();
        cand.records[0].open_stream = false;
        cand.records[0].drained = true;
        let report = compare(&baseline, &cand);
        assert_eq!(report.violations(), 1);
        assert!(
            report.render().contains("open-stream flag changed"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn open_stream_records_round_trip_and_plain_lines_are_unchanged() {
        let a = db(vec![
            record("alpha", "Fair", 1, 2.0e6),
            serve_record("serve", "E-Ant", 1, 420.5, 8.25e5),
        ]);
        let text = a.render();
        // Drain-run lines must not grow any service-mode keys.
        let plain = text.lines().next().unwrap();
        assert!(plain.contains("alpha"), "{text}");
        assert!(!plain.contains("open_stream"), "{text}");
        let serve_line = text.lines().nth(1).unwrap();
        assert!(serve_line.contains("\"open_stream\":true"), "{text}");
        assert!(serve_line.contains("\"p99_sojourn_s\":420.5"), "{text}");
        let parsed = RunDb::parse(&text).expect("well-formed JSONL");
        assert_eq!(parsed.records, a.records);
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn key_drift_and_missing_runs_fail() {
        let baseline = db(vec![
            record("s", "Fair", 1, 2.0e6),
            record("s", "Tarazu", 1, 1.5e6),
        ]);
        let mut cand = baseline.clone();
        cand.records[0].key = "different".to_owned();
        cand.records.remove(1);
        let report = compare(&baseline, &cand);
        assert_eq!(report.violations(), 2);
        let rendered = report.render();
        assert!(rendered.contains("manifest key changed"), "{rendered}");
        assert!(
            rendered.contains("missing from candidate: s/Tarazu seed 1 (fast)"),
            "{rendered}"
        );
    }

    #[test]
    fn extra_candidate_runs_are_informational() {
        let baseline = db(vec![record("s", "Fair", 1, 2.0e6)]);
        let mut cand = baseline.clone();
        cand.records.push(record("s2", "Fair", 1, 3.0e6));
        let report = compare(&baseline, &cand);
        assert_eq!(report.violations(), 0);
        assert!(report
            .render()
            .contains("only in candidate: s2/Fair seed 1 (fast)"));
    }

    #[test]
    fn jsonl_round_trips_and_sorts() {
        let mut a = db(vec![
            record("zeta", "Fair", 2, 1.0e6),
            record("alpha", "E-Ant", 1, 2.0e6),
        ]);
        let text = a.render();
        assert!(text.lines().next().unwrap().contains("alpha"), "{text}");
        let parsed = RunDb::parse(&text).expect("well-formed JSONL");
        assert_eq!(parsed.records.len(), 2);
        assert_eq!(parsed.render(), text);
        // Upsert replaces by identity.
        a.upsert(record("zeta", "Fair", 2, 9.9e6));
        assert_eq!(a.records.len(), 2);
        let zeta = a
            .records
            .iter()
            .find(|r| r.scenario == "zeta")
            .expect("zeta present");
        assert!((zeta.energy_joules - 9.9e6).abs() < 1.0);
    }

    #[test]
    fn malformed_lines_name_the_line() {
        let err = RunDb::parse("{\"key\": \"x\"}\n").unwrap_err();
        assert!(err.starts_with("line 1: "), "{err}");
        assert!(err.contains("missing required key"), "{err}");
        let err = RunDb::parse("{\"key\": \"x\"\n").unwrap_err();
        assert!(err.contains("offending line:"), "{err}");
    }
}
