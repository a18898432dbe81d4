//! Canonical JSONL encoding of the simulation event stream.
//!
//! Each trace line is one compact JSON object: `{"at":<millis>,
//! "type":"<kind>", ...payload}` with the payload keys in a fixed order, so
//! byte-identical traces mean identical event streams (the golden trace
//! digest test relies on this). [`JsonlTraceSink`] is the [`Observer`] that
//! writes the stream; [`parse_trace_line`] is its inverse, used by the
//! `--replay` validation path to re-drive streaming consumers from a file.

use std::io;

use cluster::{MachineId, SlotKind};
use hadoop_sim::trace::Observer;
use hadoop_sim::{DecisionCandidate, PowerState, SimEvent};
use simcore::SimTime;
use workload::JobId;

use crate::emit::{JsonValue, NO_TASK, SLOT_KINDS, TASK};
use crate::spec::{
    snippet, Bool, Codec, List, Names, Obj, Opt, Str, Tags, Visitor, F64, MILLIS, U32, U64, USIZE,
};

const POWER_STATES: Names<PowerState> = Names {
    what: "power state",
    table: &[
        ("nominal", PowerState::Nominal),
        ("eco", PowerState::Eco),
        ("standby", PowerState::Standby),
        ("waking", PowerState::Waking),
    ],
};

/// Every event type under its `type` tag, with the base a reader fills in.
const EVENTS: Tags<SimEvent> = Tags {
    key: "type",
    what: "event type",
    variants: &[
        ("job_submitted", || SimEvent::JobSubmitted {
            job: JobId(0),
            tasks: 0,
        }),
        ("job_completed", || SimEvent::JobCompleted { job: JobId(0) }),
        ("task_started", || SimEvent::TaskStarted {
            task: NO_TASK,
            machine: MachineId(0),
            speculative: false,
        }),
        ("task_completed", || SimEvent::TaskCompleted {
            task: NO_TASK,
            machine: MachineId(0),
            won: false,
            straggled: false,
            speculative: false,
        }),
        ("heartbeat_drained", || SimEvent::HeartbeatDrained {
            machine: MachineId(0),
            free_map: 0,
            free_reduce: 0,
            pending_total: 0,
        }),
        ("slot_occupancy_changed", || {
            SimEvent::SlotOccupancyChanged {
                machine: MachineId(0),
                kind: SlotKind::Map,
                occupied: 0,
                capacity: 0,
            }
        }),
        ("power_state_changed", || SimEvent::PowerStateChanged {
            machine: MachineId(0),
            state: PowerState::Nominal,
        }),
        ("speculation_launched", || SimEvent::SpeculationLaunched {
            task: NO_TASK,
            machine: MachineId(0),
        }),
        ("control_interval_fired", || {
            SimEvent::ControlIntervalFired {
                index: 0,
                cumulative_energy_joules: 0.0,
            }
        }),
        ("pheromone_updated", || SimEvent::PheromoneUpdated {
            job: JobId(0),
            overlap: None,
        }),
        ("energy_model_refit", || SimEvent::EnergyModelRefit {
            profile: String::new(),
            idle_watts: 0.0,
            alpha_watts: 0.0,
        }),
        ("task_failed", || SimEvent::TaskFailed {
            task: NO_TASK,
            machine: MachineId(0),
            crash: false,
        }),
        ("machine_failed", || SimEvent::MachineFailed {
            machine: MachineId(0),
            attempts_lost: 0,
        }),
        ("map_output_lost", || SimEvent::MapOutputLost {
            task: NO_TASK,
            machine: MachineId(0),
        }),
        ("machine_recovered", || SimEvent::MachineRecovered {
            machine: MachineId(0),
        }),
        ("machine_blacklisted", || SimEvent::MachineBlacklisted {
            machine: MachineId(0),
            failures: 0,
        }),
        ("assignment_decision", || SimEvent::AssignmentDecision {
            machine: MachineId(0),
            kind: SlotKind::Map,
            chosen: JobId(0),
            candidates: Vec::new(),
        }),
        ("run_finished", || SimEvent::RunFinished {
            drained: false,
            total_energy_joules: 0.0,
            total_tasks: 0,
        }),
    ],
};

/// One trace line: `{"at":<millis>,"type":"<kind>",...payload}`.
const LINE: Obj<(SimTime, SimEvent)> = Obj::new(
    || (SimTime::ZERO, SimEvent::JobCompleted { job: JobId(0) }),
    |(at, event), v| {
        v.required("at", MILLIS, at);
        v.union(&EVENTS, event, event_fields);
    },
);

const CANDIDATE: Obj<DecisionCandidate> = Obj::new(
    || DecisionCandidate {
        job: JobId(0),
        local: false,
        tau: None,
        eta_fairness: None,
        eta_locality: None,
        probability: 0.0,
    },
    |c, v| {
        v.required("job", U64, &mut c.job.0);
        v.required("local", Bool, &mut c.local);
        v.field("tau", Opt(F64), &mut c.tau);
        v.field("eta_fairness", Opt(F64), &mut c.eta_fairness);
        v.field("eta_locality", Opt(F64), &mut c.eta_locality);
        v.required("probability", F64, &mut c.probability);
    },
);

fn event_fields(event: &mut SimEvent, v: &mut Visitor<'_>) {
    match event {
        SimEvent::JobSubmitted { job, tasks } => {
            v.required("job", U64, &mut job.0);
            v.required("tasks", U32, tasks);
        }
        SimEvent::JobCompleted { job } => v.required("job", U64, &mut job.0),
        SimEvent::TaskStarted {
            task,
            machine,
            speculative,
        } => {
            v.required("task", TASK, task);
            v.required("machine", USIZE, &mut machine.0);
            v.required("speculative", Bool, speculative);
        }
        SimEvent::TaskCompleted {
            task,
            machine,
            won,
            straggled,
            speculative,
        } => {
            v.required("task", TASK, task);
            v.required("machine", USIZE, &mut machine.0);
            v.required("won", Bool, won);
            v.required("straggled", Bool, straggled);
            v.required("speculative", Bool, speculative);
        }
        SimEvent::HeartbeatDrained {
            machine,
            free_map,
            free_reduce,
            pending_total,
        } => {
            v.required("machine", USIZE, &mut machine.0);
            v.required("free_map", U32, free_map);
            v.required("free_reduce", U32, free_reduce);
            v.required("pending_total", U64, pending_total);
        }
        SimEvent::SlotOccupancyChanged {
            machine,
            kind,
            occupied,
            capacity,
        } => {
            v.required("machine", USIZE, &mut machine.0);
            v.required("kind", SLOT_KINDS, kind);
            v.required("occupied", U32, occupied);
            v.required("capacity", U32, capacity);
        }
        SimEvent::PowerStateChanged { machine, state } => {
            v.required("machine", USIZE, &mut machine.0);
            v.required("state", POWER_STATES, state);
        }
        SimEvent::SpeculationLaunched { task, machine }
        | SimEvent::MapOutputLost { task, machine } => {
            v.required("task", TASK, task);
            v.required("machine", USIZE, &mut machine.0);
        }
        SimEvent::ControlIntervalFired {
            index,
            cumulative_energy_joules,
        } => {
            v.required("index", U64, index);
            v.required("cumulative_energy_joules", F64, cumulative_energy_joules);
        }
        SimEvent::PheromoneUpdated { job, overlap } => {
            v.required("job", U64, &mut job.0);
            v.field("overlap", Opt(F64), overlap);
        }
        SimEvent::EnergyModelRefit {
            profile,
            idle_watts,
            alpha_watts,
        } => {
            v.required("profile", Str, profile);
            v.required("idle_watts", F64, idle_watts);
            v.required("alpha_watts", F64, alpha_watts);
        }
        SimEvent::TaskFailed {
            task,
            machine,
            crash,
        } => {
            v.required("task", TASK, task);
            v.required("machine", USIZE, &mut machine.0);
            v.required("crash", Bool, crash);
        }
        SimEvent::MachineFailed {
            machine,
            attempts_lost,
        } => {
            v.required("machine", USIZE, &mut machine.0);
            v.required("attempts_lost", U32, attempts_lost);
        }
        SimEvent::MachineRecovered { machine } => v.required("machine", USIZE, &mut machine.0),
        SimEvent::MachineBlacklisted { machine, failures } => {
            v.required("machine", USIZE, &mut machine.0);
            v.required("failures", U32, failures);
        }
        SimEvent::AssignmentDecision {
            machine,
            kind,
            chosen,
            candidates,
        } => {
            v.required("machine", USIZE, &mut machine.0);
            v.required("kind", SLOT_KINDS, kind);
            v.required("chosen", U64, &mut chosen.0);
            v.required("candidates", List(CANDIDATE), candidates);
        }
        SimEvent::RunFinished {
            drained,
            total_energy_joules,
            total_tasks,
        } => {
            v.required("drained", Bool, drained);
            v.required("total_energy_joules", F64, total_energy_joules);
            v.required("total_tasks", U64, total_tasks);
        }
    }
}

/// Renders one canonical trace line (no trailing newline):
/// `{"at":<millis>,"type":"<kind>",...payload}`.
pub fn trace_line(at: SimTime, event: &SimEvent) -> String {
    LINE.write(&mut (at, event.clone())).render()
}

/// Parses one trace line back into its timestamp and event — the inverse of
/// [`trace_line`].
///
/// # Errors
///
/// Returns the JSON syntax error, or a message naming the dotted path of
/// the missing, mistyped or unknown field (`` `candidates[0].tau`: … ``).
pub fn parse_trace_line(line: &str) -> Result<(SimTime, SimEvent), String> {
    let doc = JsonValue::parse(line)?;
    LINE.read_root(&doc).map_err(|e| e.to_string())
}

/// An [`Observer`] that appends one canonical JSONL line per event to a
/// writer.
///
/// I/O errors are sticky: the first failure is retained, later events are
/// dropped, and [`JsonlTraceSink::finish`] surfaces the error. This keeps
/// `on_event` infallible (observers cannot abort the simulation).
pub struct JsonlTraceSink<W: io::Write> {
    writer: W,
    lines: u64,
    error: Option<io::Error>,
}

impl<W: io::Write> JsonlTraceSink<W> {
    /// Wraps a writer. Buffer it (`io::BufWriter`) for file targets — the
    /// sink writes one line per event.
    pub fn new(writer: W) -> Self {
        JsonlTraceSink {
            writer,
            lines: 0,
            error: None,
        }
    }

    /// Lines successfully written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flushes and returns the writer, or the first I/O error encountered.
    ///
    /// # Errors
    ///
    /// Returns the retained write error, or the flush error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: io::Write> std::fmt::Debug for JsonlTraceSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlTraceSink")
            .field("lines", &self.lines)
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl<W: io::Write> Observer<SimEvent> for JsonlTraceSink<W> {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        if self.error.is_some() {
            return;
        }
        let line = trace_line(at, event);
        match writeln!(self.writer, "{line}") {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

/// Parses a whole JSONL trace, keeping each event's 1-based line number.
/// Blank lines are skipped (a partially-flushed trace may end in one).
///
/// # Errors
///
/// Stops at the first bad line with a message carrying the line number and
/// the offending snippet — `line 7: missing "type"; offending line: {...}` —
/// so a malformed or truncated trace points straight at the damage instead
/// of failing opaquely.
pub fn read_trace_lines<R: io::BufRead>(
    reader: R,
) -> Result<Vec<(usize, SimTime, SimEvent)>, String> {
    let mut out = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let n = idx + 1;
        let line = line.map_err(|e| format!("line {n}: read error: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        let (at, event) = parse_trace_line(&line)
            .map_err(|e| format!("line {n}: {e}; offending line: {}", snippet(&line)))?;
        out.push((n, at, event));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{TaskId, TaskIndex};

    fn sample_events() -> Vec<SimEvent> {
        let task = TaskId {
            job: JobId(3),
            task: TaskIndex {
                kind: SlotKind::Reduce,
                index: 7,
            },
        };
        vec![
            SimEvent::JobSubmitted {
                job: JobId(3),
                tasks: 12,
            },
            SimEvent::TaskStarted {
                task,
                machine: MachineId(5),
                speculative: false,
            },
            SimEvent::HeartbeatDrained {
                machine: MachineId(5),
                free_map: 2,
                free_reduce: 0,
                pending_total: 40,
            },
            SimEvent::SlotOccupancyChanged {
                machine: MachineId(5),
                kind: SlotKind::Reduce,
                occupied: 2,
                capacity: 2,
            },
            SimEvent::PowerStateChanged {
                machine: MachineId(1),
                state: PowerState::Eco,
            },
            SimEvent::SpeculationLaunched {
                task,
                machine: MachineId(0),
            },
            SimEvent::TaskCompleted {
                task,
                machine: MachineId(5),
                won: true,
                straggled: true,
                speculative: false,
            },
            SimEvent::ControlIntervalFired {
                index: 4,
                cumulative_energy_joules: 123.456,
            },
            SimEvent::PheromoneUpdated {
                job: JobId(3),
                overlap: Some(0.875),
            },
            SimEvent::PheromoneUpdated {
                job: JobId(4),
                overlap: None,
            },
            SimEvent::EnergyModelRefit {
                profile: "Atom".into(),
                idle_watts: 25.0,
                alpha_watts: 11.5,
            },
            SimEvent::TaskFailed {
                task,
                machine: MachineId(5),
                crash: false,
            },
            SimEvent::MachineFailed {
                machine: MachineId(2),
                attempts_lost: 3,
            },
            SimEvent::MapOutputLost {
                task,
                machine: MachineId(2),
            },
            SimEvent::MachineRecovered {
                machine: MachineId(2),
            },
            SimEvent::MachineBlacklisted {
                machine: MachineId(5),
                failures: 12,
            },
            SimEvent::AssignmentDecision {
                machine: MachineId(5),
                kind: SlotKind::Reduce,
                chosen: JobId(3),
                candidates: vec![
                    DecisionCandidate {
                        job: JobId(3),
                        local: false,
                        tau: Some(0.25),
                        eta_fairness: Some(1.5),
                        eta_locality: Some(1.0),
                        probability: 0.75,
                    },
                    DecisionCandidate {
                        job: JobId(4),
                        local: true,
                        tau: None,
                        eta_fairness: None,
                        eta_locality: None,
                        probability: 0.25,
                    },
                ],
            },
            SimEvent::JobCompleted { job: JobId(3) },
            SimEvent::RunFinished {
                drained: true,
                total_energy_joules: 999.125,
                total_tasks: 12,
            },
        ]
    }

    #[test]
    fn every_event_round_trips() {
        for (i, event) in sample_events().into_iter().enumerate() {
            let at = SimTime::from_millis(1000 * i as u64 + 1);
            let line = trace_line(at, &event);
            let (at2, event2) = parse_trace_line(&line).unwrap_or_else(|e| {
                panic!("parse failed for {line}: {e}");
            });
            assert_eq!(at2, at, "timestamp of {line}");
            assert_eq!(event2, event, "payload of {line}");
        }
    }

    #[test]
    fn lines_have_the_canonical_envelope() {
        let line = trace_line(
            SimTime::from_millis(2500),
            &SimEvent::JobCompleted { job: JobId(9) },
        );
        assert_eq!(line, r#"{"at":2500,"type":"job_completed","job":9}"#);
    }

    #[test]
    fn sink_writes_one_line_per_event_and_flushes() {
        let mut sink = JsonlTraceSink::new(Vec::new());
        for (i, event) in sample_events().into_iter().enumerate() {
            sink.on_event(SimTime::from_secs(i as u64), &event);
        }
        assert_eq!(sink.lines(), 19);
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 19);
        for line in text.lines() {
            parse_trace_line(line).unwrap();
        }
    }

    #[test]
    fn sink_retains_the_first_io_error() {
        struct Failing;
        impl io::Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlTraceSink::new(Failing);
        sink.on_event(SimTime::ZERO, &SimEvent::JobCompleted { job: JobId(0) });
        sink.on_event(SimTime::ZERO, &SimEvent::JobCompleted { job: JobId(1) });
        assert_eq!(sink.lines(), 0);
        assert!(sink.finish().is_err());
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for line in [
            "",
            "{}",
            r#"{"at":1}"#,
            r#"{"at":1,"type":"no_such_event"}"#,
            r#"{"at":1,"type":"job_completed"}"#,
            r#"{"at":1,"type":"task_started","task":{"job":0,"kind":"walk","index":0},"machine":0,"speculative":false}"#,
            r#"{"at":1,"type":"assignment_decision","machine":0,"kind":"map","chosen":0,"candidates":7}"#,
            r#"{"at":1,"type":"assignment_decision","machine":0,"kind":"map","chosen":0,"candidates":[{"job":0}]}"#,
        ] {
            assert!(parse_trace_line(line).is_err(), "accepted {line:?}");
        }
    }

    #[test]
    fn field_errors_name_the_dotted_path() {
        for (line, expect) in [
            (
                r#"{"at":1,"type":"job_completed","job":0,"jbo":1}"#,
                "`jbo`: unknown key",
            ),
            (
                r#"{"at":1,"type":"task_failed","task":{"job":0,"kind":"map","index":0,"try":1},"machine":0,"crash":false}"#,
                "`task.try`: unknown key",
            ),
            (
                r#"{"at":1,"type":"assignment_decision","machine":0,"kind":"map","chosen":0,"candidates":[{"job":0,"local":true,"tau":"x","probability":1}]}"#,
                "`candidates[0].tau`: expected a number, found a string",
            ),
            (
                r#"{"at":1,"type":"task_started","task":{"job":0,"kind":"walk","index":0},"machine":0,"speculative":false}"#,
                "`task.kind`: unknown slot kind \"walk\" (map|reduce)",
            ),
            (
                r#"{"at":1,"type":"job_submitted","job":0,"tasks":4294967296}"#,
                "`tasks`: must fit in 32 bits",
            ),
        ] {
            let err = parse_trace_line(line).unwrap_err();
            assert_eq!(err, expect, "{line}");
        }
    }

    #[test]
    fn reader_pinpoints_malformed_and_truncated_lines() {
        let good = trace_line(
            SimTime::from_secs(1),
            &SimEvent::JobCompleted { job: JobId(0) },
        );

        // A field error mid-file: the message names the line and echoes it.
        let text = format!("{good}\n\n{{\"at\":2,\"type\":\"job_completed\"}}\n");
        let err = read_trace_lines(io::Cursor::new(text)).unwrap_err();
        assert!(err.starts_with("line 3:"), "wrong location: {err}");
        assert!(
            err.contains("`job`: missing required key") && err.contains("offending line:"),
            "unhelpful error: {err}"
        );

        // A trace truncated mid-line (killed writer): same treatment, and
        // an over-long snippet is bounded.
        let truncated = format!("{good}\n{}", &good[..good.len() - 4]);
        let err = read_trace_lines(io::Cursor::new(truncated)).unwrap_err();
        assert!(err.starts_with("line 2:"), "wrong location: {err}");

        let long = format!(
            r#"{{"at":1,"type":"energy_model_refit","profile":"{}""#,
            "x".repeat(500)
        );
        let err = read_trace_lines(io::Cursor::new(long)).unwrap_err();
        assert!(
            err.contains("[") && err.contains("bytes total]"),
            "snippet unbounded: {err}"
        );

        // Blank lines and a trailing newline are fine.
        let text = format!("\n{good}\n\n");
        let parsed = read_trace_lines(io::Cursor::new(text)).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0, 2, "line numbers must survive blank lines");
    }
}
