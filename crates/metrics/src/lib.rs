//! Run metrics and report rendering for the E-Ant evaluation.
//!
//! This crate turns [`hadoop_sim::RunResult`]s into the quantities the
//! paper reports:
//!
//! * [`energy`] — total/per-profile energy, percentage savings between
//!   schedulers (the Fig. 8(a) / Fig. 10 / Fig. 12 y axes).
//! * [`fairness`] — per-job slowdown against standalone execution and the
//!   paper's fairness metric, the inverse variance of slowdowns (§VI-D).
//! * [`report`] — fixed-width text tables and ASCII series used by the
//!   experiment binaries to print every figure/table.
//! * [`csv`] — CSV export of run results for external plotting.
//! * [`emit`] — dependency-free canonical JSON serialization (and parsing)
//!   of [`hadoop_sim::RunResult`] and trace documents, the comparison key
//!   of the determinism and golden-value regression tests.
//! * [`observers`] — streaming consumers of the typed event stream:
//!   [`observers::StreamingRunStats`] reproduces the post-hoc aggregates
//!   live, bit for bit.
//! * [`registry`] — deterministic counters/gauges/histograms with interned
//!   label sets; [`registry::RegistryObserver`] folds the event stream into
//!   a canonical, byte-stable JSON snapshot.
//! * [`spec`] — shared decoding machinery for canonical-JSON *spec*
//!   documents: [`spec::ObjectView`] typed accessors, [`spec::SpecError`]
//!   dotted-path errors and the line/snippet context helpers that give
//!   scenario files the same error ergonomics as trace replay.
//! * [`trace`] — the canonical JSONL trace codec:
//!   [`trace::JsonlTraceSink`] writes one line per event,
//!   [`trace::parse_trace_line`] inverts it for replay validation and
//!   [`trace::read_trace_lines`] reads whole files with line-precise
//!   errors.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod csv;
pub mod emit;
pub mod energy;
pub mod fairness;
pub mod observers;
pub mod registry;
pub mod report;
pub mod spec;
pub mod trace;
