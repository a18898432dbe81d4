//! Integration tests for the scenario subsystem: the malformed-file error
//! matrix (every rejection names the offending line and snippet), the
//! committed scenario library's validity and determinism, and the run-DB
//! regression gate's behavior on perturbed candidates.

use experiments::scenario::{compare, library_dir, load_spec, RunDb, RunRecord, ScenarioSpec};
use metrics::emit::run_result_json;

/// A well-formed spec the malformed cases are derived from.
const VALID: &str = r#"{
  "name": "matrix",
  "seeds": [7],
  "schedulers": [{"kind": "fair"}],
  "workload": {"kind": "msd", "num_jobs": 2, "task_scale": 32,
               "submission_window_s": 60}
}"#;

#[test]
fn the_base_document_is_valid() {
    ScenarioSpec::parse(VALID).expect("matrix base document parses");
}

/// Every malformed document is rejected with an error that carries the
/// line number and the offending line's text — never a bare message, and
/// never a panic from a downstream constructor.
#[test]
fn malformed_specs_name_the_offending_line() {
    struct Case {
        what: &'static str,
        input: String,
        expect: &'static [&'static str],
    }
    let cases = [
        Case {
            what: "truncated document",
            input: VALID[..VALID.len() - 20].to_owned(),
            expect: &["line "],
        },
        Case {
            what: "bare garbage",
            input: "not json at all".to_owned(),
            expect: &["line 1: "],
        },
        Case {
            what: "unknown top-level key",
            input: VALID.replacen("\"seeds\"", "\"seedz\"", 1),
            expect: &["line 3: ", "`seedz`: unknown key"],
        },
        Case {
            what: "unknown nested engine key",
            input: VALID.replacen(
                "\"name\": \"matrix\",",
                "\"name\": \"matrix\",\n  \"engine\": {\"heartbeats\": 3},",
                1,
            ),
            expect: &["`engine.heartbeats`: unknown key", "offending line:"],
        },
        Case {
            what: "zero crash MTBF",
            input: VALID.replacen(
                "\"name\": \"matrix\",",
                "\"name\": \"matrix\",\n  \"engine\": {\"fault\": {\"crash_mtbf_s\": 0}},",
                1,
            ),
            expect: &[
                "`engine.fault.crash_mtbf_s`: must be positive",
                "offending line:",
            ],
        },
        Case {
            what: "fault block that enables nothing",
            input: VALID.replacen(
                "\"name\": \"matrix\",",
                "\"name\": \"matrix\",\n  \"engine\": {\"fault\": {\"missed_heartbeats\": 5}},",
                1,
            ),
            expect: &["`engine.fault`: fault block enables nothing"],
        },
        Case {
            what: "missing required name",
            input: VALID.replacen("\"name\": \"matrix\",", "", 1),
            expect: &["`name`: missing required key"],
        },
        Case {
            what: "missing required workload",
            input: VALID.replacen(
                "\"workload\": {\"kind\": \"msd\", \"num_jobs\": 2, \"task_scale\": 32,\n               \"submission_window_s\": 60}",
                "\"description\": \"no workload\"",
                1,
            ),
            expect: &["`workload`: missing required key"],
        },
        Case {
            what: "empty seeds",
            input: VALID.replacen("[7]", "[]", 1),
            expect: &["`seeds`: ", "offending line:"],
        },
        Case {
            what: "wrong seed type",
            input: VALID.replacen("[7]", "[-7]", 1),
            expect: &["`seeds[0]`: ", "offending line:"],
        },
        Case {
            what: "unknown scheduler kind",
            input: VALID.replacen("\"fair\"", "\"lifo\"", 1),
            expect: &["`schedulers[0].kind`: "],
        },
        Case {
            what: "unknown benchmark in a stream",
            input: VALID.replacen(
                "{\"kind\": \"msd\", \"num_jobs\": 2, \"task_scale\": 32,\n               \"submission_window_s\": 60}",
                "{\"kind\": \"streams\", \"streams\": [{\"label\": \"t\", \"benchmark\": \"sort\", \"maps\": 2, \"count\": 1, \"arrival\": {\"kind\": \"uniform\", \"period_s\": 30}}]}",
                1,
            ),
            expect: &["`workload.streams[0].benchmark`: "],
        },
        Case {
            what: "unknown fleet profile",
            input: VALID.replacen(
                "\"name\": \"matrix\",",
                "\"name\": \"matrix\",\n  \"fleet\": {\"groups\": [{\"profile\": \"Cray\", \"count\": 2}]},",
                1,
            ),
            expect: &["`fleet.groups[0].profile`: "],
        },
    ];
    for case in cases {
        let err = ScenarioSpec::parse(&case.input)
            .map(|_| ())
            .expect_err(case.what);
        for needle in case.expect {
            assert!(
                err.contains(needle),
                "{}: error should contain {needle:?}, got: {err}",
                case.what
            );
        }
    }
}

/// Every committed scenario file parses, survives the emit∘parse∘emit
/// round trip, and declares at least one seed and scheduler.
#[test]
fn committed_library_is_valid_and_canonical_round_trips() {
    let mut seen = 0;
    let mut entries: Vec<_> = std::fs::read_dir(library_dir())
        .expect("scenarios/ exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    entries.sort();
    for path in entries {
        let spec = load_spec(&path).unwrap_or_else(|e| panic!("{e}"));
        assert!(!spec.seeds.is_empty(), "{}: no seeds", spec.name);
        assert!(!spec.schedulers.is_empty(), "{}: no schedulers", spec.name);
        let canonical = spec.canonical();
        let reparsed = ScenarioSpec::parse(&canonical)
            .unwrap_or_else(|e| panic!("{}: canonical form failed to parse: {e}", spec.name));
        assert_eq!(
            reparsed, spec,
            "{}: canonical round trip drifted",
            spec.name
        );
        seen += 1;
    }
    assert!(seen >= 6, "scenario library shrank to {seen} files");
}

/// Executing a committed scenario twice produces byte-identical serialized
/// results — the determinism contract every file in `scenarios/` must hold
/// for the run DB's manifest keys to mean anything.
#[test]
fn library_runs_are_deterministic() {
    for name in ["diurnal-double-peak", "deadline-batches"] {
        let spec = load_spec(&library_dir().join(format!("{name}.json")))
            .unwrap_or_else(|e| panic!("{e}"));
        let kind = spec.schedulers[0].clone();
        let seed = spec.seeds[0];
        let first = run_result_json(&spec.execute(&kind, seed, true));
        let second = run_result_json(&spec.execute(&kind, seed, true));
        assert!(
            first == second,
            "{name}: consecutive runs of the same cell differ"
        );
    }
}

/// The regression gate end to end on real run records: a candidate DB
/// rebuilt from the same scenario passes against itself, and an injected
/// energy perturbation beyond the tolerance makes `compare` report a
/// violation — the property the CI gate relies on.
#[test]
fn gate_fails_on_injected_perturbation_of_real_runs() {
    let spec = load_spec(&library_dir().join("diurnal-double-peak.json"))
        .unwrap_or_else(|e| panic!("{e}"));
    let kind = spec.schedulers[0].clone();
    let seed = spec.seeds[0];
    let record = RunRecord::new(&spec, &kind, seed, true, &spec.execute(&kind, seed, true));

    let mut baseline = RunDb::default();
    baseline.upsert(record.clone());
    let mut candidate = RunDb::default();
    candidate.upsert(record.clone());
    let clean = compare(&baseline, &candidate);
    assert_eq!(
        clean.violations(),
        0,
        "identical DBs must pass:\n{}",
        clean.render()
    );

    let mut perturbed_record = record;
    perturbed_record.energy_joules *= 1.0 + 5.0 * spec.tolerance.energy_rel;
    let mut perturbed = RunDb::default();
    perturbed.upsert(perturbed_record);
    let report = compare(&baseline, &perturbed);
    assert_eq!(
        report.violations(),
        1,
        "perturbed energy must trip the gate:\n{}",
        report.render()
    );
    assert!(
        report.render().contains("energy drift"),
        "{}",
        report.render()
    );
}

/// The committed CI baseline stays in sync with the scenario library:
/// every (scenario, scheduler, seed) cell in `scenarios/` has a baseline
/// record whose manifest key still matches the current spec — so a spec
/// edit without a baseline refresh fails here, not in CI.
#[test]
fn committed_baseline_covers_the_library_with_current_keys() {
    let baseline_path = library_dir().join("../runs/baseline-fast.jsonl");
    let db = RunDb::load(&baseline_path).unwrap_or_else(|e| panic!("{e}"));
    let mut entries: Vec<_> = std::fs::read_dir(library_dir())
        .expect("scenarios/ exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    entries.sort();
    for path in entries {
        let spec = load_spec(&path).unwrap_or_else(|e| panic!("{e}"));
        for kind in &spec.schedulers {
            for &seed in &spec.seeds {
                let key = spec.manifest_key(kind, seed, true);
                assert!(
                    db.records.iter().any(|r| r.key == key),
                    "{}: no baseline record for {} seed {seed} (key {key}); \
                     regenerate runs/baseline-fast.jsonl",
                    spec.name,
                    kind.label()
                );
            }
        }
    }
}

/// The committed baseline DB re-renders byte for byte: every record,
/// drain-run and open-stream alike, parses back to a value whose canonical
/// line is the one on disk.
#[test]
fn committed_baseline_renders_byte_identically() {
    let path = library_dir().join("../runs/baseline-fast.jsonl");
    let text = std::fs::read_to_string(&path).expect("baseline DB reads");
    let db = RunDb::load(&path).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(db.records.len(), 54, "baseline DB record count");
    assert!(
        db.records.iter().any(|r| r.open_stream),
        "baseline DB has open-stream records"
    );
    assert!(
        db.render() == text,
        "baseline DB does not re-render byte-identically"
    );
}
