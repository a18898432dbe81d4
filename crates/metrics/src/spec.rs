//! One declaration per persisted field: the field lists every canonical-JSON
//! document of the workspace is written and read by, and the error
//! machinery that points a bad input at its line.
//!
//! A persisted type lists its fields once, in key order, as a plain
//! `fn(&mut T, &mut Visitor)`, naming each field's [`Codec`]; the shape is
//! serde's `serialize_field` per field, without serde. An [`Obj`] pairs that
//! list with the type's declared base value, and the one list drives both
//! directions: [`Codec::write`] emits every listed field in order (the
//! canonical bytes), and [`Codec::read`] starts from the base, overwrites
//! each present key, requires the keys with no base and rejects every key
//! the list does not name. Cross-field checks run after the read
//! ([`Obj::validated`]). The pieces:
//!
//! * [`Visitor`] — one walk of a field list, writing or reading.
//! * Leaf codecs — [`Str`], [`Bool`], [`F64`], the integer codecs [`U64`],
//!   [`U32`] and [`USIZE`], [`MILLIS`] and [`Raw`] — and the combinators
//!   [`Opt`] (`null` when absent), [`OmitIf`] (key left out), [`List`],
//!   [`Pair`], [`Map`] and [`Check`].
//! * [`Names`] — one name table per fieldless enum, and [`Tags`] — the tag
//!   table of a tagged union, each used by both directions.
//! * [`SpecError`] — a dotted-path + message pair (`` `engine.fault.crash_mtbf_s`:
//!   must be positive ``). Paths are built only when a read fails.
//! * [`with_context`] / [`syntax_context`] — map a [`SpecError`] or a raw
//!   [`JsonValue::parse`] byte-offset error back onto the original text,
//!   yielding the `line N: …; offending line: …` format of
//!   [`crate::trace::read_trace_lines`].
//!
//! The module also hosts [`fnv1a_64`], the digest used to key run databases
//! by spec content, and [`snippet`], the UTF-8-safe line truncation shared
//! with the trace reader.

use simcore::SimTime;

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

/// One JSON object being read: its keys, its dotted path from the document
/// root, which keys the field list has named, and the first bad value.
#[derive(Debug)]
struct Reader<'a> {
    fields: &'a [(String, JsonValue)],
    path: String,
    /// Bit `i` is set once the list named the document's `i`-th key.
    listed: u64,
    error: Option<SpecError>,
}

impl<'a> Reader<'a> {
    fn new(value: &'a JsonValue, path: String) -> Result<Self, SpecError> {
        match value {
            JsonValue::Object(fields) => Ok(Reader {
                fields,
                path,
                listed: 0,
                error: None,
            }),
            other => Err(expected("an object", other, &|| path.clone())),
        }
    }

    /// The dotted path of `key` inside this object.
    fn child_path(&self, key: &str) -> String {
        if self.path == "(root)" {
            key.to_owned()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// The value at `key`, which the field list now names.
    fn take(&mut self, key: &str) -> Option<&'a JsonValue> {
        let i = self.fields.iter().position(|(k, _)| k == key)?;
        if i < 64 {
            self.listed |= 1 << i;
        }
        Some(&self.fields[i].1)
    }

    /// The value to read for the listed `key`: none while an earlier value
    /// is bad, or for an absent or `null` key that keeps its base value.
    fn next(&mut self, key: &str, required: bool) -> Option<&'a JsonValue> {
        let json = self.take(key);
        if self.error.is_some() {
            return None;
        }
        match json {
            None if required => {
                self.error = Some(SpecError::new(self.child_path(key), "missing required key"));
                None
            }
            None | Some(JsonValue::Null) if !required => None,
            json => json,
        }
    }

    /// The first key the field list never named (a repeated key's second
    /// occurrence among them), else the first bad value, else the failure
    /// of the object's cross-field `check`, whose key is relative to it.
    fn finish(self, check: Result<(), SpecError>) -> Result<(), SpecError> {
        let stray =
            (self.fields.iter().enumerate()).find(|&(i, _)| i >= 64 || self.listed & (1 << i) == 0);
        if let Some((i, (key, _))) = stray {
            let repeated = self.fields[..i].iter().any(|(k, _)| k == key);
            let message = if repeated {
                "repeated key"
            } else {
                "unknown key"
            };
            return Err(SpecError::new(self.child_path(key), message));
        }
        if let Some(e) = self.error {
            return Err(e);
        }
        check.map_err(|e| match e.path.as_str() {
            "" => SpecError::new(self.path.clone(), e.message),
            key => SpecError::new(self.child_path(key), e.message),
        })
    }
}

/// What `value` is, for error messages ("a string", "an object", ...).
fn kind_name(value: &JsonValue) -> &'static str {
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

fn expected(what: &str, found: &JsonValue, path: &dyn Fn() -> String) -> SpecError {
    SpecError::new(
        path(),
        format!("expected {what}, found {}", kind_name(found)),
    )
}

/// One walk of a field list, writing or reading.
///
/// A field list is a plain `fn(&mut T, &mut Visitor)` that names each field
/// once, in key order, with the [`Codec`] of its value. Writing, the walk
/// emits every listed field in that order (the canonical bytes). Reading, it
/// overwrites the base value's field for each key that is present, where
/// `null` counts as absent. Keys the list never names are rejected as
/// `unknown key`, ahead of any bad value; otherwise the first bad value is
/// the error, and the walk goes on only to learn the remaining keys.
#[derive(Debug)]
pub struct Visitor<'a>(Walk<'a>);

#[derive(Debug)]
enum Walk<'a> {
    Write(Vec<(String, JsonValue)>),
    Read(Reader<'a>),
}

impl Visitor<'_> {
    /// A field whose absence keeps the base value.
    pub fn field<C: Codec>(&mut self, key: &'static str, codec: C, value: &mut C::Value) {
        self.visit(key, codec, value, false);
    }

    /// A field that must be present: its base value is a placeholder.
    pub fn required<C: Codec>(&mut self, key: &'static str, codec: C, value: &mut C::Value) {
        self.visit(key, codec, value, true);
    }

    /// A tagged union flattened into this object: the tag under
    /// `tags.key`, then the fields `fields` lists for the variant. A reader
    /// starts the variant from the base its tag names.
    pub fn union<T>(
        &mut self,
        tags: &Tags<T>,
        value: &mut T,
        fields: fn(&mut T, &mut Visitor<'_>),
    ) {
        match &mut self.0 {
            Walk::Write(out) => {
                let name = tags.name(value);
                if !name.is_empty() {
                    out.push((tags.key.to_owned(), JsonValue::Str(name.to_owned())));
                }
            }
            Walk::Read(r) => match tags.base(r) {
                Ok(base) => *value = base,
                // Without a variant the other keys cannot be judged.
                Err(e) => {
                    r.listed = u64::MAX;
                    r.error.get_or_insert(e);
                    return;
                }
            },
        }
        fields(value, self);
    }

    fn visit<C: Codec>(
        &mut self,
        key: &'static str,
        codec: C,
        value: &mut C::Value,
        required: bool,
    ) {
        match &mut self.0 {
            Walk::Write(fields) => {
                if !codec.omits(value) {
                    fields.push((key.to_owned(), codec.write(value)));
                }
            }
            Walk::Read(r) => {
                if let Some(json) = r.next(key, required) {
                    match codec.read(json, &|| r.child_path(key)) {
                        Ok(v) => *value = v,
                        Err(e) => r.error = Some(e),
                    }
                }
            }
        }
    }
}

/// A two-way encoding of one value type, the leaf of a field list.
pub trait Codec {
    /// The value the encoding describes.
    type Value;

    /// Encodes `value`. A writer walks a private copy of the document, so
    /// an encoding may move out of `value` rather than copy it.
    fn write(&self, value: &mut Self::Value) -> JsonValue;

    /// Decodes `json`. `path` renders the value's dotted path; it is called
    /// only to build an error.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] at `path()` for a value of the wrong shape.
    fn read(&self, json: &JsonValue, path: &dyn Fn() -> String) -> Result<Self::Value, SpecError>;

    /// Whether a writer leaves the key out for `value`.
    fn omits(&self, _value: &Self::Value) -> bool {
        false
    }

    /// This encoding, with a read failing with `message` unless `ok` holds.
    fn check(self, ok: fn(&Self::Value) -> bool, message: &'static str) -> Check<Self>
    where
        Self: Sized,
    {
        Check::new(self, ok, message)
    }
}

/// An object with a field list: a struct, or a tagged union.
#[derive(Debug)]
pub struct Obj<T: 'static> {
    base: fn() -> T,
    tags: Option<&'static Tags<T>>,
    fields: fn(&mut T, &mut Visitor<'_>),
    check: fn(&T) -> Result<(), SpecError>,
}

impl<T> Obj<T> {
    /// A struct read over the declared `base` value.
    pub const fn new(base: fn() -> T, fields: fn(&mut T, &mut Visitor<'_>)) -> Self {
        Obj {
            base,
            tags: None,
            fields,
            check: |_| Ok(()),
        }
    }

    /// A tagged union: the tag first, then the variant's fields (see
    /// [`Visitor::union`]).
    pub const fn tagged(tags: &'static Tags<T>, fields: fn(&mut T, &mut Visitor<'_>)) -> Self {
        Obj {
            base: tags.variants[0].1,
            tags: Some(tags),
            fields,
            check: |_| Ok(()),
        }
    }

    /// Adds the cross-field validation a read value must pass. Its errors
    /// carry a key relative to this object (empty for the object itself).
    #[must_use]
    pub const fn validated(self, check: fn(&T) -> Result<(), SpecError>) -> Self {
        Obj { check, ..self }
    }

    /// Reads the document root.
    ///
    /// # Errors
    ///
    /// Returns the document's first [`SpecError`].
    pub fn read_root(&self, doc: &JsonValue) -> Result<T, SpecError> {
        self.read(doc, &|| "(root)".to_owned())
    }

    fn walk(&self, value: &mut T, walk: &mut Visitor<'_>) {
        match self.tags {
            Some(tags) => walk.union(tags, value, self.fields),
            None => (self.fields)(value, walk),
        }
    }
}

impl<T> Codec for Obj<T> {
    type Value = T;

    fn write(&self, value: &mut T) -> JsonValue {
        let mut walk = Visitor(Walk::Write(Vec::new()));
        self.walk(value, &mut walk);
        match walk.0 {
            Walk::Write(fields) => JsonValue::Object(fields),
            Walk::Read { .. } => unreachable!("a writer walk stays a writer"),
        }
    }

    fn read(&self, json: &JsonValue, path: &dyn Fn() -> String) -> Result<T, SpecError> {
        let mut value = (self.base)();
        let mut walk = Visitor(Walk::Read(Reader::new(json, path())?));
        self.walk(&mut value, &mut walk);
        let Walk::Read(reader) = walk.0 else {
            unreachable!("a reader walk stays a reader")
        };
        reader.finish((self.check)(&value))?;
        Ok(value)
    }
}

/// The tag table of a tagged union: the key the tag sits under, what a tag
/// names (for errors), and each variant's tag with its declared base. A
/// variant tagged `""` is the one an object without the tag key reads as.
#[derive(Debug)]
pub struct Tags<T: 'static> {
    /// The key of the tag (`"kind"`, `"type"`).
    pub key: &'static str,
    /// What a tag names, for the unknown-tag error (`"workload kind"`).
    pub what: &'static str,
    /// Each variant's tag and the base value a reader fills in.
    pub variants: &'static [Variant<T>],
}

/// One variant of a tagged union: its tag and its base value.
pub type Variant<T> = (&'static str, fn() -> T);

impl<T> Tags<T> {
    fn base(&self, reader: &mut Reader<'_>) -> Result<T, SpecError> {
        let json = reader.take(self.key);
        let path = || reader.child_path(self.key);
        let tag = match json {
            Some(json) => Str.read_str(json, &path)?,
            None => "",
        };
        match self.variants.iter().find(|(name, _)| *name == tag) {
            Some((_, base)) => Ok(base()),
            None if tag.is_empty() => Err(SpecError::new(path(), "missing required key")),
            None => Err(unknown_name(self.what, tag, self.variants, &path)),
        }
    }

    fn name(&self, value: &T) -> &'static str {
        let variant = std::mem::discriminant(value);
        self.variants
            .iter()
            .find(|(_, base)| std::mem::discriminant(&base()) == variant)
            .map(|(name, _)| *name)
            .expect("every variant is in its tag table")
    }
}

fn unknown_name<V>(
    what: &str,
    name: &str,
    table: &[(&str, V)],
    path: &dyn Fn() -> String,
) -> SpecError {
    let names: Vec<&str> = table
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !n.is_empty())
        .collect();
    SpecError::new(
        path(),
        format!("unknown {what} {name:?} ({})", names.join("|")),
    )
}

/// A string naming one value of a fieldless enum: one table for both
/// directions.
#[derive(Debug)]
pub struct Names<T: 'static> {
    /// What a name names, for the unknown-name error (`"size class"`).
    pub what: &'static str,
    /// Each value's name.
    pub table: &'static [(&'static str, T)],
}

impl<T: PartialEq + Copy> Codec for Names<T> {
    type Value = T;

    fn write(&self, value: &mut T) -> JsonValue {
        let (name, _) = (self.table.iter().find(|(_, v)| v == value))
            .expect("every value is in its name table");
        JsonValue::Str((*name).to_owned())
    }

    fn read(&self, json: &JsonValue, path: &dyn Fn() -> String) -> Result<T, SpecError> {
        let name = Str.read_str(json, path)?;
        match self.table.iter().find(|(n, _)| *n == name) {
            Some((_, value)) => Ok(*value),
            None => Err(unknown_name(self.what, name, self.table, path)),
        }
    }
}

/// A string.
#[derive(Debug, Clone, Copy)]
pub struct Str;

impl Str {
    fn read_str<'j>(
        self,
        json: &'j JsonValue,
        path: &dyn Fn() -> String,
    ) -> Result<&'j str, SpecError> {
        match json {
            JsonValue::Str(s) => Ok(s),
            other => Err(expected("a string", other, path)),
        }
    }
}

impl Codec for Str {
    type Value = String;

    fn write(&self, value: &mut String) -> JsonValue {
        JsonValue::Str(std::mem::take(value))
    }

    fn read(&self, json: &JsonValue, path: &dyn Fn() -> String) -> Result<String, SpecError> {
        self.read_str(json, path).map(str::to_owned)
    }
}

/// A boolean.
#[derive(Debug, Clone, Copy)]
pub struct Bool;

impl Codec for Bool {
    type Value = bool;

    fn write(&self, value: &mut bool) -> JsonValue {
        JsonValue::Bool(*value)
    }

    fn read(&self, json: &JsonValue, path: &dyn Fn() -> String) -> Result<bool, SpecError> {
        json.as_bool()
            .ok_or_else(|| expected("a boolean", json, path))
    }
}

/// A number; integers coerce.
#[derive(Debug, Clone, Copy)]
pub struct F64;

impl Codec for F64 {
    type Value = f64;

    fn write(&self, value: &mut f64) -> JsonValue {
        JsonValue::Num(*value)
    }

    fn read(&self, json: &JsonValue, path: &dyn Fn() -> String) -> Result<f64, SpecError> {
        json.as_f64()
            .ok_or_else(|| expected("a number", json, path))
    }
}

/// An unsigned integer stored as `T`; see [`U64`], [`U32`] and [`USIZE`].
#[derive(Debug, Clone, Copy)]
pub struct Int<T>(std::marker::PhantomData<T>);

/// A `u64`.
pub const U64: Int<u64> = Int(std::marker::PhantomData);
/// A `u32`.
pub const U32: Int<u32> = Int(std::marker::PhantomData);
/// A `usize`.
pub const USIZE: Int<usize> = Int(std::marker::PhantomData);

impl<T: Copy + TryFrom<u64>> Codec for Int<T>
where
    u64: TryFrom<T>,
{
    type Value = T;

    fn write(&self, value: &mut T) -> JsonValue {
        JsonValue::UInt(u64::try_from(*value).unwrap_or(u64::MAX))
    }

    fn read(&self, json: &JsonValue, path: &dyn Fn() -> String) -> Result<T, SpecError> {
        let n = json
            .as_u64()
            .ok_or_else(|| expected("an unsigned integer", json, path))?;
        T::try_from(n).map_err(|_| {
            let bits = 8 * std::mem::size_of::<T>();
            SpecError::new(path(), format!("must fit in {bits} bits"))
        })
    }
}

/// A value kept as `T` and encoded as its image under `inner`: a sim time
/// as integer milliseconds, a series as its name and samples.
#[derive(Debug)]
pub struct Map<C: Codec, T> {
    inner: C,
    from: fn(C::Value) -> T,
    to: fn(&T) -> C::Value,
}

impl<C: Codec, T> Map<C, T> {
    /// `T` read through `from` and written through `to`.
    pub const fn new(inner: C, from: fn(C::Value) -> T, to: fn(&T) -> C::Value) -> Self {
        Map { inner, from, to }
    }
}

impl<C: Codec, T> Codec for Map<C, T> {
    type Value = T;

    fn write(&self, value: &mut T) -> JsonValue {
        self.inner.write(&mut (self.to)(value))
    }

    fn read(&self, json: &JsonValue, path: &dyn Fn() -> String) -> Result<T, SpecError> {
        self.inner.read(json, path).map(self.from)
    }
}

/// A sim time in integer milliseconds.
pub const MILLIS: Map<Int<u64>, SimTime> = Map::new(U64, SimTime::from_millis, |t| t.as_millis());

/// A JSON document kept as its canonical rendering.
#[derive(Debug, Clone, Copy)]
pub struct Raw;

impl Codec for Raw {
    type Value = String;

    fn write(&self, value: &mut String) -> JsonValue {
        JsonValue::Raw(std::mem::take(value))
    }

    fn read(&self, json: &JsonValue, _path: &dyn Fn() -> String) -> Result<String, SpecError> {
        Ok(json.render())
    }
}

/// An optional value, written as `null` when absent.
#[derive(Debug, Clone, Copy)]
pub struct Opt<C>(pub C);

impl<C: Codec> Codec for Opt<C> {
    type Value = Option<C::Value>;

    fn write(&self, value: &mut Option<C::Value>) -> JsonValue {
        value.as_mut().map_or(JsonValue::Null, |v| self.0.write(v))
    }

    fn read(&self, json: &JsonValue, path: &dyn Fn() -> String) -> Result<Self::Value, SpecError> {
        match json {
            JsonValue::Null => Ok(None),
            json => self.0.read(json, path).map(Some),
        }
    }
}

/// A value whose key the writer leaves out while the predicate holds of it
/// (an absent option, a `false` flag); a reader keeps the field's base
/// value when the key is absent.
#[derive(Debug, Clone, Copy)]
pub struct OmitIf<C: Codec>(pub C, pub fn(&C::Value) -> bool);

impl<C: Codec> Codec for OmitIf<C> {
    type Value = C::Value;

    fn write(&self, value: &mut C::Value) -> JsonValue {
        self.0.write(value)
    }

    fn read(&self, json: &JsonValue, path: &dyn Fn() -> String) -> Result<C::Value, SpecError> {
        self.0.read(json, path)
    }

    fn omits(&self, value: &C::Value) -> bool {
        (self.1)(value)
    }
}

/// An array of values.
#[derive(Debug, Clone, Copy)]
pub struct List<C>(pub C);

impl<C: Codec> Codec for List<C> {
    type Value = Vec<C::Value>;

    fn write(&self, value: &mut Vec<C::Value>) -> JsonValue {
        JsonValue::Array(value.iter_mut().map(|v| self.0.write(v)).collect())
    }

    fn read(&self, json: &JsonValue, path: &dyn Fn() -> String) -> Result<Self::Value, SpecError> {
        let JsonValue::Array(items) = json else {
            return Err(expected("an array", json, path));
        };
        (items.iter().enumerate())
            .map(|(i, item)| self.0.read(item, &|| format!("{}[{i}]", path())))
            .collect()
    }
}

/// A two-element array.
#[derive(Debug, Clone, Copy)]
pub struct Pair<A, B>(pub A, pub B);

impl<A: Codec, B: Codec> Codec for Pair<A, B> {
    type Value = (A::Value, B::Value);

    fn write(&self, value: &mut Self::Value) -> JsonValue {
        JsonValue::Array(vec![self.0.write(&mut value.0), self.1.write(&mut value.1)])
    }

    fn read(&self, json: &JsonValue, path: &dyn Fn() -> String) -> Result<Self::Value, SpecError> {
        match json {
            JsonValue::Array(items) if items.len() == 2 => Ok((
                self.0.read(&items[0], &|| format!("{}[0]", path()))?,
                self.1.read(&items[1], &|| format!("{}[1]", path()))?,
            )),
            other => Err(expected("a two-element array", other, path)),
        }
    }
}

/// A codec whose reads must also satisfy a predicate.
#[derive(Debug, Clone, Copy)]
pub struct Check<C: Codec> {
    inner: C,
    ok: fn(&C::Value) -> bool,
    message: &'static str,
}

impl<C: Codec> Check<C> {
    /// `inner`, with a read failing with `message` unless `ok` holds.
    pub const fn new(inner: C, ok: fn(&C::Value) -> bool, message: &'static str) -> Self {
        Check { inner, ok, message }
    }
}

impl<C: Codec> Codec for Check<C> {
    type Value = C::Value;

    fn write(&self, value: &mut C::Value) -> JsonValue {
        self.inner.write(value)
    }

    fn read(&self, json: &JsonValue, path: &dyn Fn() -> String) -> Result<C::Value, SpecError> {
        let value = self.inner.read(json, path)?;
        if (self.ok)(&value) {
            Ok(value)
        } else {
            Err(SpecError::new(path(), self.message))
        }
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

/// The 1-based line number and full line containing byte `pos`. A `pos`
/// inside a multi-byte character counts as that character's start.
fn line_at(input: &str, pos: usize) -> (usize, &str) {
    let mut pos = pos.min(input.len());
    while !input.is_char_boundary(pos) {
        pos -= 1;
    }
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

    #[derive(Debug, Clone, PartialEq)]
    struct Doc {
        n: u64,
        s: String,
        f: f64,
        opt: Option<u64>,
        items: Vec<(u32, bool)>,
    }

    const DOC: Obj<Doc> = Obj::new(
        || Doc {
            n: 0,
            s: String::new(),
            f: 0.5,
            opt: Some(3),
            items: Vec::new(),
        },
        |d, v| {
            v.required("n", U64, &mut d.n);
            v.required("s", Str, &mut d.s);
            v.field("f", F64, &mut d.f);
            v.field("opt", OmitIf(Opt(U64), Option::is_none), &mut d.opt);
            v.field("items", List(Pair(U32, Bool)), &mut d.items);
        },
    );

    fn read(text: &str) -> Result<Doc, SpecError> {
        DOC.read_root(&JsonValue::parse(text).unwrap())
    }

    #[test]
    fn typed_accessors_and_paths() {
        let doc = read(r#"{"n":7,"s":"x","opt":null,"items":[[1,true]]}"#).unwrap();
        assert_eq!(doc.n, 7);
        assert_eq!(doc.s, "x");
        assert!((doc.f - 0.5).abs() < 1e-12, "absent keeps the base");
        assert_eq!(doc.opt, Some(3), "null counts as absent");
        assert_eq!(doc.items, vec![(1, true)]);
        let err = read(r#"{"n":"7","s":"x"}"#).unwrap_err();
        assert_eq!(err.path, "n");
        let err = read(r#"{"n":7}"#).unwrap_err();
        assert_eq!(err.path, "s");
        assert_eq!(err.message, "missing required key");
        let err = read(r#"{"n":7,"s":"x","items":[[1,true],[2,3]]}"#).unwrap_err();
        assert_eq!(err.path, "items[1][1]");
        let err = read(r#"{"n":7,"s":"x","items":[[4294967296,true]]}"#).unwrap_err();
        assert_eq!(err.to_string(), "`items[0][0]`: must fit in 32 bits");
        // The writer emits every field in list order, leaving out what
        // the list omits.
        let mut doc = Doc { opt: None, ..doc };
        let rendered = DOC.write(&mut doc.clone()).render();
        assert_eq!(rendered, r#"{"n":7,"s":"x","f":0.5,"items":[[1,true]]}"#);
        assert_eq!(
            read(&rendered).unwrap(),
            Doc {
                opt: Some(3),
                ..doc.clone()
            }
        );
        doc.opt = Some(9);
        assert!(DOC
            .write(&mut doc)
            .render()
            .ends_with(r#""opt":9,"items":[[1,true]]}"#));
    }

    #[test]
    fn deny_unknown_names_the_stray_key() {
        // An unknown key wins over a bad value, wherever they sit.
        let err = read(r#"{"n":"bad","tyop":2,"s":"x"}"#).unwrap_err();
        assert_eq!(err.path, "tyop");
        assert_eq!(err.message, "unknown key");
        let err = read(r#"{"n":1,"s":"x","n":2}"#).unwrap_err();
        assert_eq!(err.to_string(), "`n`: repeated key");
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
    fn syntax_context_survives_a_multibyte_last_char() {
        // The parser reports the end of input, one byte past the
        // two-byte 'é' the document ends in.
        let input = "{\n\"name\": \"é";
        let err = JsonValue::parse(input).unwrap_err();
        let msg = syntax_context(input, &err);
        assert!(msg.starts_with("line 2: "), "{msg}");
        assert!(msg.contains("offending line: \"name\": \"é"), "{msg}");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
