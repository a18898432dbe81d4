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
//! * [`emit`] — dependency-free canonical JSON serialization (and parsing)
//!   of [`hadoop_sim::RunResult`] and trace documents, the comparison key
//!   of the determinism and golden-value regression tests.
//! * [`observers`] — streaming consumers of the typed event stream:
//!   [`observers::StreamingRunStats`] reproduces the post-hoc aggregates
//!   live, bit for bit.
//! * [`registry`] — the fixed set of counters, gauges and histograms that
//!   [`registry::RegistryObserver`] folds out of the event stream, with a
//!   canonical, byte-stable JSON snapshot and sampled time series.
//! * [`spec`] — one declaration per persisted field: a [`spec::Visitor`]
//!   walks a type's field list to write its canonical JSON or to read it
//!   back, with [`spec::Codec`]s for the leaves, [`spec::SpecError`]
//!   dotted-path errors and the line/snippet context helpers that give
//!   scenario files the same error ergonomics as trace replay.
//! * [`trace`] — the canonical JSONL trace codec:
//!   [`trace::JsonlTraceSink`] writes one line per event,
//!   [`trace::parse_trace_line`] inverts it for replay validation and
//!   [`trace::read_trace_lines`] reads whole files with line-precise
//!   errors.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod emit;
pub mod energy;
pub mod fairness;
pub mod observers;
pub mod registry;
pub mod report;
pub mod spec;
pub mod trace;
