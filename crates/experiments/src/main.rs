//! Command-line entry point: regenerate any (or every) table/figure, write
//! a JSONL event trace, validate one by replay, diff two traces, or watch
//! one as a text dashboard.
//!
//! ```text
//! experiments <id>|all [--fast]
//! experiments --trace <path> [--fast] [--seed <n>] [--decisions]
//!                                          # traced E-Ant run → JSONL
//! experiments --replay <path>              # validate a JSONL trace
//! experiments trace-diff <a> <b> [--kind <type>]
//!                                          # first divergence + deltas
//! experiments watch <path> [--every <secs>]
//!                                          # text dashboard from a trace
//! experiments scenario run <file> [--fast] [--db <path>] [--postmortem <dir>]
//! experiments scenario sweep <dir> [--fast] [--db <path>]
//! experiments scenario compare <baseline.jsonl> <candidate.jsonl>
//!                                          # run DB regression gate
//! experiments serve <scenario.json> [--fast] [--levels <l1,l2,..>] [--out <json>]
//!                                          # service-mode utilization sweep
//! experiments explain <trace.jsonl | postmortem-dir>
//!                                          # critical-path + tail-blame report
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use experiments::timeline::TraceOptions;

fn usage() -> ExitCode {
    eprintln!(
        "usage: experiments <id>|all [--fast]\n\
         \x20      experiments --trace <path> [--fast] [--seed <n>] [--decisions]\n\
         \x20      experiments --replay <path>\n\
         \x20      experiments trace-diff <a.jsonl> <b.jsonl> [--kind <type>]\n\
         \x20      experiments watch <trace.jsonl> [--every <secs>]\n\
         \x20      experiments scenario run <file.json> [--fast] [--db <path>] [--postmortem <dir>]\n\
         \x20      experiments scenario sweep <dir> [--fast] [--db <path>]\n\
         \x20      experiments scenario compare <baseline.jsonl> <candidate.jsonl>\n\
         \x20      experiments serve <scenario.json> [--fast] [--levels <l1,l2,..>] [--out <json>]\n\
         \x20      experiments explain <trace.jsonl | postmortem-dir>"
    );
    eprintln!("experiments: {}", experiments::ALL_EXPERIMENTS.join(", "));
    ExitCode::FAILURE
}

fn fail(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    ExitCode::FAILURE
}

/// `experiments trace-diff <a> <b> [--kind <type>]`
fn cmd_trace_diff(args: &[String]) -> ExitCode {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut kind: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--kind" => {
                let Some(k) = iter.next() else {
                    return fail("--kind needs an event type");
                };
                kind = Some(k.clone());
            }
            other if other.starts_with("--") => {
                return fail(&format!("unknown trace-diff flag {other}"));
            }
            other => paths.push(PathBuf::from(other)),
        }
    }
    if paths.len() != 2 {
        return fail("trace-diff needs exactly two trace paths");
    }
    match experiments::tracediff::run(&paths[0], &paths[1], kind.as_deref()) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(err) => fail(&err),
    }
}

/// `experiments watch <trace> [--every <secs>]`
fn cmd_watch(args: &[String]) -> ExitCode {
    let mut path: Option<PathBuf> = None;
    let mut every = 0.0f64;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--every" => {
                let Some(v) = iter.next() else {
                    return fail("--every needs a number of seconds");
                };
                match v.parse::<f64>() {
                    Ok(secs) if secs > 0.0 => every = secs,
                    _ => return fail(&format!("--every: invalid seconds value '{v}'")),
                }
            }
            other if other.starts_with("--") => {
                return fail(&format!("unknown watch flag {other}"));
            }
            other if path.is_none() => path = Some(PathBuf::from(other)),
            _ => return fail("watch takes exactly one trace path"),
        }
    }
    let Some(path) = path else {
        return fail("watch needs a trace path");
    };
    match experiments::watch::run(&path, every) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(err) => fail(&err),
    }
}

/// `experiments scenario run|sweep|compare …`
fn cmd_scenario(args: &[String]) -> ExitCode {
    let Some(verb) = args.first().map(String::as_str) else {
        return fail("scenario needs a subcommand: run, sweep or compare");
    };
    let mut fast = false;
    let mut db: Option<PathBuf> = None;
    let mut postmortem: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut iter = args[1..].iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--fast" => fast = true,
            "--db" => {
                let Some(p) = iter.next() else {
                    return fail("--db needs a file path");
                };
                db = Some(PathBuf::from(p));
            }
            "--postmortem" => {
                let Some(p) = iter.next() else {
                    return fail("--postmortem needs a directory path");
                };
                postmortem = Some(PathBuf::from(p));
            }
            other if other.starts_with("--") => {
                return fail(&format!("unknown scenario flag {other}"));
            }
            other => paths.push(PathBuf::from(other)),
        }
    }
    if postmortem.is_some() && verb != "run" {
        return fail("--postmortem only applies to scenario run");
    }
    match verb {
        "run" | "sweep" => {
            if paths.len() != 1 {
                return fail(&format!("scenario {verb} needs exactly one path"));
            }
            let result = if verb == "run" {
                experiments::scenario::run_file_opts(
                    &paths[0],
                    fast,
                    db.as_deref(),
                    postmortem.as_deref(),
                )
            } else {
                experiments::scenario::sweep_dir(&paths[0], fast, db.as_deref())
            };
            match result {
                Ok(report) => {
                    println!("{report}");
                    ExitCode::SUCCESS
                }
                Err(err) => fail(&err),
            }
        }
        "compare" => {
            if fast || db.is_some() || paths.len() != 2 {
                return fail("scenario compare takes exactly two run-DB paths");
            }
            match experiments::scenario::compare_files(&paths[0], &paths[1]) {
                Ok((report, violations)) => {
                    println!("{report}");
                    if violations == 0 {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(err) => fail(&err),
            }
        }
        other => fail(&format!(
            "unknown scenario subcommand '{other}' (run, sweep, compare)"
        )),
    }
}

/// `experiments serve <scenario.json> [--fast] [--levels <l1,..>] [--out <json>]`
fn cmd_serve(args: &[String]) -> ExitCode {
    let mut fast = false;
    let mut levels: Vec<f64> = experiments::serve::DEFAULT_LEVELS.to_vec();
    let mut out: Option<PathBuf> = None;
    let mut path: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--fast" => fast = true,
            "--levels" => {
                let Some(v) = iter.next() else {
                    return fail("--levels needs a comma-separated list of multipliers");
                };
                let parsed: Result<Vec<f64>, _> =
                    v.split(',').map(|s| s.trim().parse::<f64>()).collect();
                match parsed {
                    Ok(ls) if !ls.is_empty() && ls.iter().all(|&l| l > 0.0 && l.is_finite()) => {
                        levels = ls;
                    }
                    _ => return fail(&format!("--levels: invalid multiplier list '{v}'")),
                }
            }
            "--out" => {
                let Some(p) = iter.next() else {
                    return fail("--out needs a file path");
                };
                out = Some(PathBuf::from(p));
            }
            other if other.starts_with("--") => {
                return fail(&format!("unknown serve flag {other}"));
            }
            other if path.is_none() => path = Some(PathBuf::from(other)),
            _ => return fail("serve takes exactly one scenario path"),
        }
    }
    let Some(path) = path else {
        return fail("serve needs a scenario path");
    };
    match experiments::serve::run(&path, fast, &levels, out.as_deref()) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(err) => fail(&err),
    }
}

/// `experiments explain <trace.jsonl | postmortem-dir>`
fn cmd_explain(args: &[String]) -> ExitCode {
    let [path] = args else {
        return fail("explain takes exactly one trace file or postmortem bundle directory");
    };
    if path.starts_with("--") {
        return fail(&format!("unknown explain flag {path}"));
    }
    match experiments::explain::run(Path::new(path)) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(err) => fail(&err),
    }
}

/// Runs the fault sweep and writes its per-run metrics to
/// `faults-sweep.json` in the working directory (the CI artifact); the
/// report says whether the write succeeded.
fn write_fault_sweep(fast: bool) -> String {
    let (report, doc) = experiments::faults::run(fast);
    let path = "faults-sweep.json";
    match std::fs::write(path, doc.render() + "\n") {
        Ok(()) => format!("{report}wrote per-run metrics to {path}\n"),
        Err(e) => format!("{report}could not write {path}: {e}\n"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("trace-diff") => return cmd_trace_diff(&args[1..]),
        Some("watch") => return cmd_watch(&args[1..]),
        Some("scenario") => return cmd_scenario(&args[1..]),
        Some("serve") => return cmd_serve(&args[1..]),
        Some("explain") => return cmd_explain(&args[1..]),
        _ => {}
    }

    let mut fast = false;
    let mut decisions = false;
    let mut seed = 2015u64;
    let mut trace: Option<PathBuf> = None;
    let mut replay: Option<PathBuf> = None;
    let mut ids: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--fast" => fast = true,
            "--decisions" => decisions = true,
            "--seed" => {
                let Some(v) = iter.next() else {
                    return fail("--seed needs a number");
                };
                match v.parse::<u64>() {
                    Ok(s) => seed = s,
                    Err(_) => return fail(&format!("--seed: invalid seed '{v}'")),
                }
            }
            "--trace" | "--replay" => {
                let Some(path) = iter.next() else {
                    return fail(&format!("{arg} needs a file path"));
                };
                if arg == "--trace" {
                    trace = Some(PathBuf::from(path));
                } else {
                    replay = Some(PathBuf::from(path));
                }
            }
            other if other.starts_with("--") => {
                return fail(&format!("unknown flag {other}"));
            }
            other => ids.push(other),
        }
    }

    if ids.is_empty() && trace.is_none() && replay.is_none() {
        return usage();
    }
    if (decisions || seed != 2015) && trace.is_none() {
        return fail("--seed/--decisions only apply to --trace");
    }

    if let Some(path) = replay {
        match experiments::timeline::replay(&path) {
            Ok(report) => println!("{report}"),
            Err(err) => return fail(&err),
        }
    }
    if let Some(path) = trace {
        let opts = TraceOptions {
            fast,
            seed,
            decisions,
        };
        match experiments::timeline::write_trace_with(opts, &path) {
            Ok(report) => println!("{report}"),
            Err(err) => return fail(&err),
        }
    }

    if ids.is_empty() {
        // A pure --trace/--replay invocation is complete at this point.
        return ExitCode::SUCCESS;
    }

    let selected: Vec<&str> = if ids == ["all"] {
        experiments::ALL_EXPERIMENTS.to_vec()
    } else {
        ids
    };

    for id in selected {
        if id == "faults" {
            println!("{}", write_fault_sweep(fast));
            continue;
        }
        match experiments::run_experiment(id, fast) {
            Ok(report) => println!("{report}"),
            Err(err) => return fail(&err),
        }
    }
    ExitCode::SUCCESS
}
