//! Shared machinery for decoding *specification documents* — canonical-JSON
//! files that describe what to run rather than what happened.
//!
//! The trace codec ([`crate::trace`]) established the error contract this
//! module generalizes: a bad input names the offending line and shows a
//! bounded snippet of it, so a typo in a 60-line scenario file points
//! straight at the damage. Decoders build on three pieces:
//!
//! * [`SpecError`] — a dotted-path + message pair (`` `engine.fault.crash_mtbf_s`:
//!   must be positive ``), produced while walking a parsed [`JsonValue`].
//! * [`ObjectView`] — a path-carrying cursor over a JSON object with typed
//!   accessors ([`ObjectView::u64`], [`ObjectView::f64`], …), required-key
//!   checks and [`ObjectView::deny_unknown`] for strict schemas.
//! * [`with_context`] / [`syntax_context`] — map a [`SpecError`] or a raw
//!   [`JsonValue::parse`] byte-offset error back onto the original text,
//!   yielding the `line N: …; offending line: …` format of
//!   [`crate::trace::read_trace_lines`].
//!
//! The module also hosts [`fnv1a_64`], the digest used to key run databases
//! by spec content, and [`snippet`], the UTF-8-safe line truncation shared
//! with the trace reader.

use crate::emit::JsonValue;

/// A semantic error at a dotted path inside a spec document, e.g.
/// `` `engine.reduce_slowstart`: must be in (0, 1] ``.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Dotted path of the offending value (`workload.streams[2].count`).
    pub path: String,
    /// What is wrong with it.
    pub message: String,
}

impl SpecError {
    /// Creates an error at `path` with `message`.
    pub fn new(path: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            path: path.into(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "`{}`: {}", self.path, self.message)
    }
}

/// Fails with a [`SpecError`] at `path` unless `cond` holds.
///
/// # Errors
///
/// Returns `SpecError::new(path, message)` when `cond` is false.
pub fn ensure(cond: bool, path: &str, message: &str) -> Result<(), SpecError> {
    if cond {
        Ok(())
    } else {
        Err(SpecError::new(path, message))
    }
}

/// A cursor over one JSON object that remembers its dotted path from the
/// document root, so every accessor failure names the exact value.
#[derive(Debug, Clone)]
pub struct ObjectView<'a> {
    fields: &'a [(String, JsonValue)],
    path: String,
}

impl<'a> ObjectView<'a> {
    /// Views the document root, which must be an object.
    ///
    /// # Errors
    ///
    /// Returns an error at `(root)` if `value` is not a JSON object.
    pub fn root(value: &'a JsonValue) -> Result<Self, SpecError> {
        Self::new(value, "(root)")
    }

    /// Views `value` (which must be an object) at `path`.
    ///
    /// # Errors
    ///
    /// Returns an error at `path` if `value` is not a JSON object.
    pub fn new(value: &'a JsonValue, path: impl Into<String>) -> Result<Self, SpecError> {
        let path = path.into();
        match value {
            JsonValue::Object(fields) => Ok(Self { fields, path }),
            other => Err(SpecError::new(
                path,
                format!("expected an object, found {}", kind_name(other)),
            )),
        }
    }

    /// The dotted path of this object from the document root.
    #[must_use]
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The dotted path of `key` inside this object.
    #[must_use]
    pub fn child_path(&self, key: &str) -> String {
        if self.path == "(root)" {
            key.to_owned()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// Rejects any key not in `allowed` — strict schemas catch typos
    /// (`"crash_mtbf"` for `"crash_mtbf_s"`) instead of silently ignoring
    /// them.
    ///
    /// # Errors
    ///
    /// Returns an error at the first unknown key's path.
    pub fn deny_unknown(&self, allowed: &[&str]) -> Result<(), SpecError> {
        for (key, _) in self.fields {
            if !allowed.contains(&key.as_str()) {
                return Err(SpecError::new(self.child_path(key), "unknown key"));
            }
        }
        Ok(())
    }

    /// Raw lookup; `null` counts as present here (use the `opt_*` accessors
    /// to treat it as absent).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&'a JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value at `key`, which must exist.
    ///
    /// # Errors
    ///
    /// Returns a `missing required key` error at the key's path.
    pub fn required(&self, key: &str) -> Result<&'a JsonValue, SpecError> {
        self.get(key)
            .ok_or_else(|| SpecError::new(self.child_path(key), "missing required key"))
    }

    fn non_null(&self, key: &str) -> Option<&'a JsonValue> {
        match self.get(key) {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(v),
        }
    }

    /// Required unsigned integer.
    ///
    /// # Errors
    ///
    /// Returns an error when the key is missing or not an unsigned integer.
    pub fn u64(&self, key: &str) -> Result<u64, SpecError> {
        self.coerce_u64(key, self.required(key)?)
    }

    /// Optional unsigned integer; `null` and absence both mean `None`.
    ///
    /// # Errors
    ///
    /// Returns an error when the key is present but not an unsigned integer.
    pub fn opt_u64(&self, key: &str) -> Result<Option<u64>, SpecError> {
        self.non_null(key)
            .map(|v| self.coerce_u64(key, v))
            .transpose()
    }

    fn coerce_u64(&self, key: &str, value: &JsonValue) -> Result<u64, SpecError> {
        match value {
            JsonValue::UInt(n) => Ok(*n),
            other => Err(SpecError::new(
                self.child_path(key),
                format!("expected an unsigned integer, found {}", kind_name(other)),
            )),
        }
    }

    /// Required finite number (integers coerce).
    ///
    /// # Errors
    ///
    /// Returns an error when the key is missing or not a number.
    pub fn f64(&self, key: &str) -> Result<f64, SpecError> {
        self.coerce_f64(key, self.required(key)?)
    }

    /// Optional number; `null` and absence both mean `None`.
    ///
    /// # Errors
    ///
    /// Returns an error when the key is present but not a number.
    pub fn opt_f64(&self, key: &str) -> Result<Option<f64>, SpecError> {
        self.non_null(key)
            .map(|v| self.coerce_f64(key, v))
            .transpose()
    }

    fn coerce_f64(&self, key: &str, value: &JsonValue) -> Result<f64, SpecError> {
        match value.as_f64() {
            Some(x) => Ok(x),
            None => Err(SpecError::new(
                self.child_path(key),
                format!("expected a number, found {}", kind_name(value)),
            )),
        }
    }

    /// Required string.
    ///
    /// # Errors
    ///
    /// Returns an error when the key is missing or not a string.
    pub fn string(&self, key: &str) -> Result<&'a str, SpecError> {
        match self.required(key)? {
            JsonValue::Str(s) => Ok(s),
            other => Err(SpecError::new(
                self.child_path(key),
                format!("expected a string, found {}", kind_name(other)),
            )),
        }
    }

    /// Optional string; `null` and absence both mean `None`.
    ///
    /// # Errors
    ///
    /// Returns an error when the key is present but not a string.
    pub fn opt_string(&self, key: &str) -> Result<Option<&'a str>, SpecError> {
        match self.non_null(key) {
            None => Ok(None),
            Some(JsonValue::Str(s)) => Ok(Some(s)),
            Some(other) => Err(SpecError::new(
                self.child_path(key),
                format!("expected a string, found {}", kind_name(other)),
            )),
        }
    }

    /// Optional boolean; `null` and absence both mean `None`.
    ///
    /// # Errors
    ///
    /// Returns an error when the key is present but not a boolean.
    pub fn opt_bool(&self, key: &str) -> Result<Option<bool>, SpecError> {
        match self.non_null(key) {
            None => Ok(None),
            Some(JsonValue::Bool(b)) => Ok(Some(*b)),
            Some(other) => Err(SpecError::new(
                self.child_path(key),
                format!("expected a boolean, found {}", kind_name(other)),
            )),
        }
    }

    /// Required array.
    ///
    /// # Errors
    ///
    /// Returns an error when the key is missing or not an array.
    pub fn array(&self, key: &str) -> Result<&'a [JsonValue], SpecError> {
        match self.required(key)? {
            JsonValue::Array(items) => Ok(items),
            other => Err(SpecError::new(
                self.child_path(key),
                format!("expected an array, found {}", kind_name(other)),
            )),
        }
    }

    /// Required child object, viewed at its own path.
    ///
    /// # Errors
    ///
    /// Returns an error when the key is missing or not an object.
    pub fn obj(&self, key: &str) -> Result<ObjectView<'a>, SpecError> {
        ObjectView::new(self.required(key)?, self.child_path(key))
    }

    /// Optional child object; `null` and absence both mean `None`.
    ///
    /// # Errors
    ///
    /// Returns an error when the key is present but not an object.
    pub fn opt_obj(&self, key: &str) -> Result<Option<ObjectView<'a>>, SpecError> {
        self.non_null(key)
            .map(|v| ObjectView::new(v, self.child_path(key)))
            .transpose()
    }
}

/// What `value` is, for error messages ("a string", "an object", ...).
pub fn kind_name(value: &JsonValue) -> &'static str {
    match value {
        JsonValue::Null => "null",
        JsonValue::Bool(_) => "a boolean",
        JsonValue::UInt(_) | JsonValue::Num(_) => "a number",
        JsonValue::Str(_) => "a string",
        JsonValue::Array(_) => "an array",
        JsonValue::Object(_) => "an object",
        JsonValue::Raw(_) => "a pre-rendered document",
    }
}

/// Locates a [`SpecError`] in the original document text and renders it in
/// the trace reader's format: `line N: `path`: message; offending line: …`.
///
/// The line is found by walking the error's dotted path front to back,
/// searching for each `"key"` at or after the previous segment's position —
/// so repeated key names (every stream has a `"kind"`) resolve to the right
/// occurrence. Missing-key errors land on the innermost *present* ancestor.
#[must_use]
pub fn with_context(input: &str, err: &SpecError) -> String {
    match locate_path(input, &err.path) {
        Some(pos) => {
            let (line_no, line) = line_at(input, pos);
            format!("line {line_no}: {err}; offending line: {}", snippet(line))
        }
        None => err.to_string(),
    }
}

/// Renders a raw [`JsonValue::parse`] error (which reports a byte offset)
/// against the original text, in the same `line N: …; offending line: …`
/// format as [`with_context`].
#[must_use]
pub fn syntax_context(input: &str, parse_err: &str) -> String {
    let byte = parse_err
        .rfind("byte ")
        .and_then(|i| parse_err[i + 5..].parse::<usize>().ok());
    match byte {
        Some(b) => {
            let pos = b.min(input.len().saturating_sub(1));
            let (line_no, line) = line_at(input, pos);
            format!(
                "line {line_no}: {parse_err}; offending line: {}",
                snippet(line)
            )
        }
        None => parse_err.to_owned(),
    }
}

/// Best-effort byte position of the value a dotted path names.
fn locate_path(input: &str, path: &str) -> Option<usize> {
    let mut found = None;
    let mut from = 0usize;
    for segment in path.split('.') {
        // `streams[2]` and `seeds[0]` search by the bare key name.
        let key = segment.split('[').next().unwrap_or(segment);
        if key.is_empty() || key == "(root)" {
            continue;
        }
        let needle = format!("\"{key}\"");
        match input[from..].find(&needle) {
            Some(off) => {
                let pos = from + off;
                found = Some(pos);
                from = pos + needle.len();
            }
            // Missing key: report the deepest ancestor that *is* present.
            None => break,
        }
    }
    found
}

/// The 1-based line number and full line containing byte `pos`.
fn line_at(input: &str, pos: usize) -> (usize, &str) {
    let pos = pos.min(input.len());
    let line_no = input[..pos].bytes().filter(|&b| b == b'\n').count() + 1;
    let start = input[..pos].rfind('\n').map_or(0, |i| i + 1);
    let end = input[start..].find('\n').map_or(input.len(), |i| start + i);
    (line_no, input[start..end].trim_end_matches('\r'))
}

/// Truncates a line for error messages, respecting UTF-8 boundaries.
#[must_use]
pub fn snippet(line: &str) -> String {
    const MAX: usize = 120;
    let line = line.trim();
    if line.len() <= MAX {
        return line.to_owned();
    }
    let mut end = MAX;
    while !line.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}... [{} bytes total]", &line[..end], line.len())
}

/// FNV-1a 64-bit digest — the content hash keying run-database manifests
/// and golden trace digests. Stable across platforms and releases by
/// construction. One shared implementation lives in [`simcore`] (the fork
/// labels of [`simcore::SimRng`] use the same hash); this re-export is the
/// canonical name the metrics/experiments layers use.
pub use simcore::fnv1a_64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_accessors_and_paths() {
        let doc = JsonValue::parse(r#"{"a":{"b":7,"s":"x","f":1.5,"n":null}}"#).unwrap();
        let root = ObjectView::root(&doc).unwrap();
        let a = root.obj("a").unwrap();
        assert_eq!(a.path(), "a");
        assert_eq!(a.u64("b").unwrap(), 7);
        assert_eq!(a.string("s").unwrap(), "x");
        assert!((a.f64("f").unwrap() - 1.5).abs() < 1e-12);
        assert_eq!(a.opt_u64("n").unwrap(), None);
        assert_eq!(a.opt_u64("missing").unwrap(), None);
        let err = a.u64("s").unwrap_err();
        assert_eq!(err.path, "a.s");
        let err = a.required("zzz").unwrap_err();
        assert_eq!(err.path, "a.zzz");
        assert_eq!(err.message, "missing required key");
    }

    #[test]
    fn deny_unknown_names_the_stray_key() {
        let doc = JsonValue::parse(r#"{"good":1,"tyop":2}"#).unwrap();
        let root = ObjectView::root(&doc).unwrap();
        let err = root.deny_unknown(&["good"]).unwrap_err();
        assert_eq!(err.path, "tyop");
        assert_eq!(err.message, "unknown key");
    }

    #[test]
    fn with_context_points_at_the_right_line() {
        let input =
            "{\n  \"engine\": {\n    \"fault\": {\n      \"crash_mtbf_s\": 0\n    }\n  }\n}";
        let err = SpecError::new("engine.fault.crash_mtbf_s", "must be positive");
        let msg = with_context(input, &err);
        assert!(msg.starts_with("line 4: "), "{msg}");
        assert!(msg.contains("`engine.fault.crash_mtbf_s`: must be positive"));
        assert!(msg.contains("offending line: \"crash_mtbf_s\": 0"), "{msg}");
    }

    #[test]
    fn with_context_resolves_repeated_keys_in_order() {
        let input = "{\n\"a\": {\"kind\": \"x\"},\n\"b\": {\"kind\": \"y\"}\n}";
        let msg = with_context(input, &SpecError::new("b.kind", "bad"));
        assert!(msg.starts_with("line 3: "), "{msg}");
    }

    #[test]
    fn missing_key_falls_back_to_parent_line() {
        let input = "{\n  \"engine\": {\n    \"heartbeat_s\": 3\n  }\n}";
        let err = SpecError::new("engine.nope", "missing required key");
        let msg = with_context(input, &err);
        assert!(msg.starts_with("line 2: "), "{msg}");
    }

    #[test]
    fn syntax_context_maps_byte_offsets_to_lines() {
        let input = "{\n  \"seeds\": [1,\n}";
        let err = JsonValue::parse(input).unwrap_err();
        let msg = syntax_context(input, &err);
        assert!(msg.starts_with("line 3: "), "{msg}");
        assert!(msg.contains("offending line: }"), "{msg}");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
