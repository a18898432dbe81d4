//! Dependency-free JSON serialization of run results and event traces.
//!
//! The workspace builds hermetically (no external crates), so JSON
//! handling is hand-rolled here instead of derived through `serde`: a
//! [`JsonValue`] tree, a renderer, a recursive-descent parser
//! ([`JsonValue::parse`], used by the JSONL trace replay path in
//! [`crate::trace`]), [`ToJson`] implementations for the [`RunResult`]
//! type family, and [`run_result_json`], which streams a whole result into
//! one string without building a tree for it.
//!
//! The rendering is **canonical**: object keys are emitted in the fixed
//! order the implementations choose, floats use Rust's shortest
//! round-trip formatting (identical for identical bits on every platform),
//! and map-typed fields iterate `BTreeMap`s (sorted keys). Byte-identical
//! output therefore means semantically identical results, which is what
//! the determinism suite (`tests/determinism.rs`) and the golden-value
//! regression tests rely on.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cluster::hdfs::Locality;
use cluster::{MachineId, SlotKind};
use hadoop_sim::{
    IntervalSnapshot, JobOutcome, JobPhase, MachineOutcome, RunResult, ServiceStats, TaskReport,
    UtilizationSample,
};
use simcore::series::TimeSeries;
use simcore::{SimDuration, SimTime};
use workload::{JobId, SizeClass, TaskId};

/// A JSON document tree.
///
/// Objects preserve insertion order (they are association lists, not maps),
/// so emitters control key order and the output is reproducible.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, emitted without a decimal point.
    UInt(u64),
    /// A finite float, emitted with shortest round-trip formatting.
    /// Non-finite values render as `null` (JSON has no NaN/Inf).
    Num(f64),
    /// A string, escaped per RFC 8259.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as an ordered association list.
    Object(Vec<(String, JsonValue)>),
    /// An already rendered JSON document, emitted verbatim. The parser
    /// never produces it, and the accessors see no value in it.
    Raw(String),
}

impl JsonValue {
    /// Renders the tree as a compact JSON string (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Parses a JSON document, the inverse of [`JsonValue::render`].
    ///
    /// Numbers without a sign, fraction or exponent parse as
    /// [`JsonValue::UInt`]; everything else numeric parses as
    /// [`JsonValue::Num`]. Because [`JsonValue::render`] emits floats in
    /// shortest round-trip form and `str::parse::<f64>` recovers the exact
    /// bits, `parse(v.render())` reproduces `v` up to the UInt/Num split
    /// for integral floats (readers that accept either, like the trace
    /// replay in [`crate::trace`], see identical values).
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error.
    ///
    /// # Examples
    ///
    /// ```
    /// use metrics::emit::JsonValue;
    ///
    /// let v = JsonValue::parse(r#"{"a":[1,2.5,null]}"#).unwrap();
    /// assert_eq!(v.render(), r#"{"a":[1,2.5,null]}"#);
    /// ```
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Looks up a key in an object. `None` for missing keys and non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a float. Accepts both [`JsonValue::Num`] and
    /// [`JsonValue::UInt`] (the parser classifies integral floats as UInt).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            JsonValue::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            JsonValue::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => write_array(out, items, |out, item| item.write(out)),
            JsonValue::Object(fields) => {
                let mut obj = Fields::open(out);
                for (key, value) in fields {
                    value.write(obj.key(key));
                }
                obj.close();
            }
            JsonValue::Raw(doc) => out.push_str(doc),
        }
    }
}

/// Writes one JSON object's `"key":value` pairs straight into a string.
struct Fields<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Fields<'a> {
    fn open(out: &'a mut String) -> Self {
        out.push('{');
        Fields { out, empty: true }
    }

    /// Writes `"key":` and returns the string the value goes into.
    fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        write_escaped(self.out, key);
        self.out.push(':');
        self.out
    }

    fn close(self) {
        self.out.push('}');
    }
}

/// Writes `items` as a JSON array, each element by `write`.
fn write_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item);
    }
    out.push(']');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(format!("unterminated string at byte {}", self.pos)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("unterminated escape at byte {}", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let unit = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&unit) {
                                // High surrogate: require the paired low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                } else {
                                    return Err(format!("unpaired surrogate at byte {}", self.pos));
                                }
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(format!("unpaired surrogate at byte {}", self.pos));
                                }
                                let code = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                                char::from_u32(code).ok_or_else(|| {
                                    format!("invalid code point at byte {}", self.pos)
                                })?
                            } else {
                                char::from_u32(unit).ok_or_else(|| {
                                    format!("unpaired surrogate at byte {}", self.pos)
                                })?
                            };
                            out.push(c);
                        }
                        c => {
                            return Err(format!(
                                "invalid escape '\\{}' at byte {}",
                                c as char, self.pos
                            ));
                        }
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("unescaped control byte at {}", self.pos));
                }
                Some(_) => {
                    // Copy the full UTF-8 character (input is a &str, so
                    // char boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let s = std::str::from_utf8(chunk).map_err(|e| e.to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|e| e.to_string())?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        let mut integral = true;
        if self.peek() == Some(b'-') {
            integral = false;
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number chars");
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Conversion into a [`JsonValue`] tree.
pub trait ToJson {
    /// Builds the JSON representation of `self`.
    fn to_json(&self) -> JsonValue;
}

/// Builds an object from `(key, value)` pairs, preserving order.
pub fn object(fields: impl IntoIterator<Item = (&'static str, JsonValue)>) -> JsonValue {
    JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

impl ToJson for SimTime {
    fn to_json(&self) -> JsonValue {
        JsonValue::UInt(self.as_millis())
    }
}

impl ToJson for SimDuration {
    fn to_json(&self) -> JsonValue {
        JsonValue::UInt(self.as_millis())
    }
}

impl ToJson for JobId {
    fn to_json(&self) -> JsonValue {
        JsonValue::UInt(self.0)
    }
}

impl ToJson for MachineId {
    fn to_json(&self) -> JsonValue {
        JsonValue::UInt(self.0 as u64)
    }
}

impl ToJson for SlotKind {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(
            match self {
                SlotKind::Map => "map",
                SlotKind::Reduce => "reduce",
            }
            .to_owned(),
        )
    }
}

impl ToJson for Locality {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(
            match self {
                Locality::NodeLocal => "node_local",
                Locality::RackLocal => "rack_local",
                Locality::Remote => "remote",
            }
            .to_owned(),
        )
    }
}

impl ToJson for SizeClass {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(
            match self {
                SizeClass::Small => "small",
                SizeClass::Medium => "medium",
                SizeClass::Large => "large",
            }
            .to_owned(),
        )
    }
}

impl ToJson for JobPhase {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(
            match self {
                JobPhase::Waiting => "waiting",
                JobPhase::Running => "running",
                JobPhase::Completed => "completed",
            }
            .to_owned(),
        )
    }
}

impl ToJson for TaskId {
    fn to_json(&self) -> JsonValue {
        object([
            ("job", self.job.to_json()),
            ("kind", self.task.kind.to_json()),
            ("index", JsonValue::UInt(u64::from(self.task.index))),
        ])
    }
}

impl ToJson for TimeSeries {
    fn to_json(&self) -> JsonValue {
        object([
            ("name", JsonValue::Str(self.name().to_owned())),
            (
                "samples",
                JsonValue::Array(
                    self.iter()
                        .map(|(t, v)| JsonValue::Array(vec![t.to_json(), JsonValue::Num(v)]))
                        .collect(),
                ),
            ),
        ])
    }
}

impl ToJson for UtilizationSample {
    fn to_json(&self) -> JsonValue {
        object([
            ("dt_secs", JsonValue::Num(self.dt_secs)),
            ("utilization", JsonValue::Num(self.utilization)),
        ])
    }
}

impl ToJson for TaskReport {
    fn to_json(&self) -> JsonValue {
        object([
            ("task", self.task.to_json()),
            ("machine", self.machine.to_json()),
            ("kind", self.kind.to_json()),
            ("group", JsonValue::UInt(u64::from(self.group.0))),
            ("started_at", self.started_at.to_json()),
            ("finished_at", self.finished_at.to_json()),
            (
                "locality",
                self.locality.map_or(JsonValue::Null, |l| l.to_json()),
            ),
            (
                "samples",
                JsonValue::Array(self.samples.iter().map(ToJson::to_json).collect()),
            ),
            ("shuffle_secs", JsonValue::Num(self.shuffle_secs)),
            (
                "true_energy_joules",
                JsonValue::Num(self.true_energy_joules),
            ),
            ("straggled", JsonValue::Bool(self.straggled)),
            ("speculative", JsonValue::Bool(self.speculative)),
        ])
    }
}

impl ToJson for JobOutcome {
    fn to_json(&self) -> JsonValue {
        object([
            ("id", self.id.to_json()),
            ("label", JsonValue::Str(self.label.clone())),
            ("benchmark", JsonValue::Str(self.benchmark.clone())),
            (
                "size_class",
                self.size_class.map_or(JsonValue::Null, |c| c.to_json()),
            ),
            ("submitted_at", self.submitted_at.to_json()),
            ("phase", self.phase.to_json()),
            (
                "finished_at",
                self.finished_at.map_or(JsonValue::Null, |t| t.to_json()),
            ),
            ("total_tasks", JsonValue::UInt(u64::from(self.total_tasks))),
            (
                "reference_work_secs",
                JsonValue::Num(self.reference_work_secs),
            ),
        ])
    }
}

impl ToJson for MachineOutcome {
    fn to_json(&self) -> JsonValue {
        object([
            ("machine", self.machine.to_json()),
            ("profile", JsonValue::Str(self.profile.clone())),
            ("energy_joules", JsonValue::Num(self.energy_joules)),
            ("idle_joules", JsonValue::Num(self.idle_joules)),
            ("workload_joules", JsonValue::Num(self.workload_joules)),
            ("mean_utilization", JsonValue::Num(self.mean_utilization)),
            ("map_tasks", JsonValue::UInt(self.map_tasks)),
            ("reduce_tasks", JsonValue::UInt(self.reduce_tasks)),
            (
                "tasks_by_benchmark",
                string_map(&self.tasks_by_benchmark, |&n| JsonValue::UInt(n)),
            ),
        ])
    }
}

impl ToJson for ServiceStats {
    fn to_json(&self) -> JsonValue {
        object([
            ("warmup_s", JsonValue::Num(self.warmup_s)),
            ("measure_s", JsonValue::Num(self.measure_s)),
            ("arrivals", JsonValue::UInt(self.arrivals)),
            ("completions", JsonValue::UInt(self.completions)),
            ("backlog", JsonValue::UInt(self.backlog)),
            (
                "throughput_per_min",
                JsonValue::Num(self.throughput_per_min),
            ),
            (
                "mean_sojourn_s",
                JsonValue::Num(self.mean_sojourn.as_secs_f64()),
            ),
            (
                "latency_distribution",
                JsonValue::Array(
                    self.latency_distribution
                        .iter()
                        .map(|(p, d)| {
                            object([
                                ("p", JsonValue::UInt(u64::from(*p))),
                                ("sojourn_s", JsonValue::Num(d.as_secs_f64())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("energy_joules", JsonValue::Num(self.energy_joules)),
            ("energy_per_job", JsonValue::Num(self.energy_per_job)),
            ("energy_rate_watts", JsonValue::Num(self.energy_rate_watts)),
            ("tasks_completed", JsonValue::UInt(self.tasks_completed)),
            ("queue_mean", JsonValue::Num(self.queue_mean)),
            ("queue_max", JsonValue::UInt(self.queue_max)),
        ])
    }
}

fn string_map<V>(map: &BTreeMap<String, V>, value: impl Fn(&V) -> JsonValue) -> JsonValue {
    JsonValue::Object(map.iter().map(|(k, v)| (k.clone(), value(v))).collect())
}

/// Canonical JSON serialization of a full [`RunResult`].
///
/// Byte-identical strings ⇔ identical results; this is the comparison key
/// used by the determinism tests. The document is written straight into
/// the returned string: only small leaves (one job, one machine, the
/// energy series, the service statistics) pass through a [`JsonValue`],
/// so the per-interval assignment matrices — millions of cells at fleet
/// scale — never exist as a tree.
pub fn run_result_json(run: &RunResult) -> String {
    let mut out = String::new();
    let mut obj = Fields::open(&mut out);
    write_escaped(obj.key("scheduler"), &run.scheduler);
    run.makespan.to_json().write(obj.key("makespan"));
    JsonValue::Bool(run.drained).write(obj.key("drained"));
    write_array(
        obj.key("groups"),
        run.groups.iter().map(String::as_str),
        write_escaped,
    );
    write_array(obj.key("jobs"), &run.jobs, |out, j| j.to_json().write(out));
    write_array(obj.key("machines"), &run.machines, |out, m| {
        m.to_json().write(out);
    });
    write_array(obj.key("intervals"), &run.intervals, write_interval);
    run.energy_series.to_json().write(obj.key("energy_series"));
    // Schema stability: the buffered report path is gone from `RunResult`
    // (reports stream through observers instead), but every pinned golden
    // digest serializes an empty `reports` array, so the key stays.
    obj.key("reports").push_str("[]");
    for (key, n) in [
        ("total_tasks", run.total_tasks),
        ("speculative_attempts", run.speculative_attempts),
        ("wasted_attempts", run.wasted_attempts),
        ("task_failures", run.task_failures),
        ("machine_failures", run.machine_failures),
        ("map_outputs_lost", run.map_outputs_lost),
        ("machines_blacklisted", run.machines_blacklisted),
    ] {
        JsonValue::UInt(n).write(obj.key(key));
    }
    // Schema stability: the `service` key exists only on horizon-mode
    // results, so every pre-service-mode golden byte sequence — all of
    // which end at `machines_blacklisted` — is unchanged.
    if let Some(service) = &run.service {
        service.to_json().write(obj.key("service"));
    }
    obj.close();
    out
}

fn write_interval(out: &mut String, snap: &IntervalSnapshot) {
    let mut obj = Fields::open(out);
    snap.at.to_json().write(obj.key("at"));
    JsonValue::Num(snap.cumulative_energy_joules).write(obj.key("cumulative_energy_joules"));
    let mut rows = Fields::open(obj.key("assignments"));
    for (job, per_machine) in &snap.assignments {
        write_array(rows.key(&job.0.to_string()), per_machine, |out, &n| {
            JsonValue::UInt(n).write(out);
        });
    }
    rows.close();
    obj.close();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(JsonValue::Null.render(), "null");
        assert_eq!(JsonValue::Bool(true).render(), "true");
        assert_eq!(JsonValue::UInt(42).render(), "42");
        assert_eq!(JsonValue::Num(1.5).render(), "1.5");
        assert_eq!(JsonValue::Num(f64::NAN).render(), "null");
        assert_eq!(JsonValue::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn float_formatting_is_shortest_round_trip() {
        assert_eq!(JsonValue::Num(0.1).render(), "0.1");
        assert_eq!(JsonValue::Num(1.0).render(), "1");
        assert_eq!(JsonValue::Num(1.0 / 3.0).render(), "0.3333333333333333");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(
            JsonValue::Str("a\"b\\c\nd".into()).render(),
            r#""a\"b\\c\nd""#
        );
        assert_eq!(JsonValue::Str("\u{1}".into()).render(), "\"\\u0001\"");
    }

    #[test]
    fn arrays_and_objects_render_in_order() {
        let v = object([
            ("b", JsonValue::UInt(1)),
            (
                "a",
                JsonValue::Array(vec![JsonValue::Null, JsonValue::Bool(false)]),
            ),
        ]);
        assert_eq!(v.render(), r#"{"b":1,"a":[null,false]}"#);
    }

    #[test]
    fn enums_render_as_strings() {
        assert_eq!(SlotKind::Map.to_json().render(), r#""map""#);
        assert_eq!(Locality::RackLocal.to_json().render(), r#""rack_local""#);
        assert_eq!(SizeClass::Large.to_json().render(), r#""large""#);
        assert_eq!(JobPhase::Completed.to_json().render(), r#""completed""#);
    }

    #[test]
    fn time_series_round_trips_millis() {
        let mut ts = TimeSeries::new("e");
        ts.record(SimTime::from_millis(1500), 2.5);
        assert_eq!(
            ts.to_json().render(),
            r#"{"name":"e","samples":[[1500,2.5]]}"#
        );
    }

    #[test]
    fn run_result_serializes_every_field() {
        let mut series = TimeSeries::new("energy");
        series.record(SimTime::ZERO, 0.0);
        let run = RunResult {
            scheduler: "E-Ant".into(),
            makespan: SimDuration::from_secs(10),
            drained: true,
            groups: vec!["Wordcount-S".into()],
            jobs: vec![],
            machines: vec![],
            intervals: vec![IntervalSnapshot {
                at: SimTime::from_secs(5),
                cumulative_energy_joules: 12.5,
                assignments: [(JobId(3), vec![1, 0, 2])].into_iter().collect(),
            }],
            energy_series: series,
            total_tasks: 3,
            speculative_attempts: 0,
            wasted_attempts: 0,
            task_failures: 2,
            machine_failures: 1,
            map_outputs_lost: 0,
            machines_blacklisted: 0,
            service: None,
        };
        let json = run_result_json(&run);
        assert!(json.starts_with(r#"{"scheduler":"E-Ant","makespan":10000,"drained":true"#));
        assert!(json.contains(r#""groups":["Wordcount-S"]"#));
        assert!(json.contains(r#""assignments":{"3":[1,0,2]}"#));
        assert!(json.ends_with(
            r#""task_failures":2,"machine_failures":1,"map_outputs_lost":0,"machines_blacklisted":0}"#
        ));
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let docs = [
            "null",
            "true",
            "false",
            "42",
            "-1.5",
            "0.1",
            r#""a\"b\\c\nd""#,
            r#"[1,[2,"x"],{}]"#,
            r#"{"b":1,"a":[null,false],"c":{"d":0.3333333333333333}}"#,
        ];
        for doc in docs {
            let v = JsonValue::parse(doc).unwrap();
            assert_eq!(v.render(), doc, "round trip of {doc}");
        }
    }

    #[test]
    fn parse_classifies_numbers() {
        assert_eq!(JsonValue::parse("7").unwrap(), JsonValue::UInt(7));
        assert_eq!(JsonValue::parse("7.0").unwrap(), JsonValue::Num(7.0));
        assert_eq!(JsonValue::parse("-7").unwrap(), JsonValue::Num(-7.0));
        assert_eq!(JsonValue::parse("7e0").unwrap(), JsonValue::Num(7.0));
        assert_eq!(JsonValue::parse("1e300").unwrap(), JsonValue::Num(1e300));
        // u64 overflow falls back to float.
        assert!(matches!(
            JsonValue::parse("99999999999999999999").unwrap(),
            JsonValue::Num(_)
        ));
    }

    #[test]
    fn parse_handles_unicode_escapes() {
        assert_eq!(
            JsonValue::parse(r#""Aé""#).unwrap(),
            JsonValue::Str("Aé".into())
        );
        // Surrogate pair → U+1F600, escaped and raw.
        assert_eq!(
            JsonValue::parse("\"\\ud83d\\ude00\"").unwrap(),
            JsonValue::Str("\u{1f600}".into())
        );
        assert_eq!(
            JsonValue::parse("\"\u{1f600}\"").unwrap(),
            JsonValue::Str("\u{1f600}".into())
        );
        assert!(JsonValue::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn parse_tolerates_whitespace() {
        let v = JsonValue::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.render(), r#"{"a":[1,2]}"#);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"\u{1}\"",
            "nan",
        ] {
            assert!(JsonValue::parse(doc).is_err(), "accepted {doc:?}");
        }
    }

    #[test]
    fn accessors_extract_scalars() {
        let v = JsonValue::parse(r#"{"n":3,"x":1.5,"b":true,"s":"hi"}"#).unwrap();
        assert_eq!(v.get("n").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(v.get("n").and_then(JsonValue::as_f64), Some(3.0));
        assert_eq!(v.get("x").and_then(JsonValue::as_f64), Some(1.5));
        assert_eq!(v.get("b").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("hi"));
        assert!(v.get("missing").is_none());
        assert!(JsonValue::Null.get("n").is_none());
    }

    #[test]
    fn identical_results_serialize_identically() {
        let make = || RunResult {
            scheduler: "Fair".into(),
            makespan: SimDuration::from_secs(1),
            drained: true,
            groups: vec![],
            jobs: vec![],
            machines: vec![],
            intervals: vec![],
            energy_series: TimeSeries::new("energy"),
            total_tasks: 0,
            speculative_attempts: 0,
            wasted_attempts: 0,
            task_failures: 0,
            machine_failures: 0,
            map_outputs_lost: 0,
            machines_blacklisted: 0,
            service: None,
        };
        assert_eq!(run_result_json(&make()), run_result_json(&make()));
    }
}
